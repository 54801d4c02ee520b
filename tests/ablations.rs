//! The eager-threshold ablation EXPERIMENTS.md quotes (`cargo run
//! --release --example ablations`): on HPCG at 64 ranks, moving the
//! eager/rendezvous threshold S changes the control-message count
//! exactly, and the noise-free baseline by less than 0.1%.

use dram_ce_sim::engine::{simulate, NoNoise};
use dram_ce_sim::model::LogGopsParams;
use dram_ce_sim::workloads::{build, AppId, WorkloadConfig};

#[test]
fn eager_threshold_sets_hpcg_control_messages() {
    let cfg = WorkloadConfig {
        steps_override: Some(10),
        ..WorkloadConfig::default()
    };
    let sched = build(AppId::Hpcg, 64, &cfg);
    let run = |threshold: u64| {
        let params = LogGopsParams::xc40().with_eager_threshold(threshold);
        simulate(&sched, &params, &mut NoNoise).unwrap()
    };
    let (s1k, s16k, s256k) = (run(1024), run(16 * 1024), run(256 * 1024));
    // At S = 1 KiB HPCG's larger messages go rendezvous, each costing an
    // RTS and a CTS; from S = 16 KiB on, every message is eager.
    assert_eq!(s1k.control_msgs, 7_680);
    assert_eq!(s16k.control_msgs, 0);
    assert_eq!(s256k.control_msgs, 0);
    // The payload traffic is the same under either protocol.
    assert_eq!(s1k.msgs_delivered, s16k.msgs_delivered);
    assert_eq!(s16k.msgs_delivered, s256k.msgs_delivered);
    // Protocol choice moves the baseline by < 0.1%.
    for r in [&s1k, &s256k] {
        let delta = r.slowdown_pct(s16k.finish).unwrap();
        assert!(delta.abs() < 0.1, "baseline moved {delta}%");
    }
}
