//! Robustness of the paper's conclusions to CE arrival clustering: the
//! exponential model of §III-D vs a bursty (avalanche) process at the
//! same average rate.

use dram_ce_sim::engine::{simulate, NoNoise};
use dram_ce_sim::model::{LogGopsParams, LoggingMode, Span};
use dram_ce_sim::noise::{BurstSpec, CeNoise, Scope};
use dram_ce_sim::workloads::{self, AppId, WorkloadConfig};

fn spec() -> BurstSpec {
    BurstSpec {
        quiet_mtbce: Span::from_secs(30),
        burst_mtbce: Span::from_ms(100),
        mean_quiet: Span::from_secs(5),
        mean_burst: Span::from_ms(500),
    }
}

#[test]
fn bursty_and_memoryless_agree_within_small_factor() {
    let params = LogGopsParams::xc40();
    let cfg = WorkloadConfig::default().with_steps(60);
    let sched = workloads::build(AppId::Lulesh, 32, &cfg);
    let base = simulate(&sched, &params, &mut NoNoise).unwrap();
    let detour = LoggingMode::Software.per_event_cost();
    let s = spec();
    let reps = 4u64;
    let mut bursty = 0.0;
    let mut smooth = 0.0;
    for seed in 0..reps {
        let mut bn = CeNoise::bursty(32, s, detour, seed);
        bursty += simulate(&sched, &params, &mut bn)
            .unwrap()
            .slowdown_pct(base.finish)
            .expect("positive baseline");
        let mut sn = CeNoise::new(32, s.equivalent_mtbce(), detour, Scope::AllRanks, seed);
        smooth += simulate(&sched, &params, &mut sn)
            .unwrap()
            .slowdown_pct(base.finish)
            .expect("positive baseline");
    }
    let (bursty, smooth) = (bursty / reps as f64, smooth / reps as f64);
    assert!(bursty > 0.0 && smooth > 0.0);
    // Mean slowdowns under software logging agree within a small factor —
    // the paper's rate-based guidance is robust to clustering.
    let ratio = bursty / smooth;
    assert!(
        (0.3..4.0).contains(&ratio),
        "bursty {bursty}% vs memoryless {smooth}% (ratio {ratio})"
    );
}
