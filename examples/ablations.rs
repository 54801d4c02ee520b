//! Ablations of the design choices DESIGN.md calls out (the numbers
//! EXPERIMENTS.md's "Ablations" section quotes):
//!
//! 1. **Allreduce expansion algorithm** — recursive doubling vs binomial
//!    reduce+broadcast. The collective's dependency structure determines
//!    how CE detours serialize into the critical path.
//! 2. **Eager/rendezvous threshold** — protocol choice changes how many
//!    control messages (and CPU touch points for noise) each halo
//!    exchange costs.
//! 3. **Bursty vs memoryless CE arrivals** at a matched average rate.
//! 4. **Network topology** — the paper's flat crossbar vs torus/dragonfly
//!    with a per-hop latency surcharge: does network diameter change the
//!    CE-noise picture? (It barely does — per-event CPU cost dominates.)
//!
//! ```sh
//! cargo run --release --example ablations
//! ```

use dram_ce_sim::engine::{simulate, NoNoise, Simulator};
use dram_ce_sim::engine::{Dragonfly, FlatCrossbar, Topology, Torus3D};
use dram_ce_sim::goal::collectives::AllreduceAlgo;
use dram_ce_sim::model::{LogGopsParams, LoggingMode, Span};
use dram_ce_sim::noise::{BurstSpec, CeNoise, Scope};
use dram_ce_sim::workloads::{build, AppId, WorkloadConfig};

/// Mean CE slowdown of LULESH at 64 nodes (firmware logging, MTBCE 5 s)
/// over three replicas, with the given allreduce expansion.
fn slowdown_with(algo: AllreduceAlgo, params: &LogGopsParams) -> f64 {
    let cfg = WorkloadConfig {
        allreduce_algo: algo,
        steps_override: Some(40),
        ..WorkloadConfig::default()
    };
    let sched = build(AppId::Lulesh, 64, &cfg);
    let base = simulate(&sched, params, &mut NoNoise).unwrap();
    let mut total = 0.0;
    let reps = 3;
    for seed in 0..reps {
        let mut noise = CeNoise::new(
            64,
            Span::from_secs(5),
            LoggingMode::Firmware.per_event_cost(),
            Scope::AllRanks,
            seed,
        );
        let pert = simulate(&sched, params, &mut noise).unwrap();
        total += pert.slowdown_pct(base.finish).expect("positive baseline");
    }
    total / reps as f64
}

fn main() {
    let params = LogGopsParams::xc40();

    println!("=== Ablation: allreduce expansion (LULESH, 64 nodes, fw @ MTBCE 5s) ===");
    for algo in [AllreduceAlgo::RecursiveDoubling, AllreduceAlgo::ReduceBcast] {
        println!(
            "  {:?}: {:.2}% CE slowdown",
            algo,
            slowdown_with(algo, &params)
        );
    }

    println!("\n=== Ablation: eager threshold (HPCG baseline completion) ===");
    for threshold in [1024u64, 16 * 1024, 256 * 1024] {
        let p = params.with_eager_threshold(threshold);
        let cfg = WorkloadConfig {
            steps_override: Some(10),
            ..WorkloadConfig::default()
        };
        let sched = build(AppId::Hpcg, 64, &cfg);
        let r = simulate(&sched, &p, &mut NoNoise).unwrap();
        println!(
            "  S = {:>7} B: baseline {}, {} control msgs",
            threshold, r.finish, r.control_msgs
        );
    }

    println!("\n=== Ablation: bursty vs memoryless CE arrivals (matched average rate) ===");
    {
        let cfg = WorkloadConfig {
            steps_override: Some(40),
            ..WorkloadConfig::default()
        };
        let sched = build(AppId::Lulesh, 64, &cfg);
        let base = simulate(&sched, &params, &mut NoNoise).unwrap();
        let spec = BurstSpec {
            quiet_mtbce: Span::from_secs(60),
            burst_mtbce: Span::from_ms(200),
            mean_quiet: Span::from_secs(10),
            mean_burst: Span::from_secs(1),
        };
        let detour = LoggingMode::Firmware.per_event_cost();
        let reps = 3u64;
        let mut bursty_total = 0.0;
        let mut smooth_total = 0.0;
        for seed in 0..reps {
            let mut bn = CeNoise::bursty(64, spec, detour, seed);
            bursty_total += simulate(&sched, &params, &mut bn)
                .unwrap()
                .slowdown_pct(base.finish)
                .expect("positive baseline");
            let mut sn = CeNoise::new(64, spec.equivalent_mtbce(), detour, Scope::AllRanks, seed);
            smooth_total += simulate(&sched, &params, &mut sn)
                .unwrap()
                .slowdown_pct(base.finish)
                .expect("positive baseline");
        }
        println!(
            "  equivalent MTBCE {}: memoryless {:.1}%, bursty {:.1}%",
            spec.equivalent_mtbce(),
            smooth_total / reps as f64,
            bursty_total / reps as f64
        );
    }

    println!("\n=== Ablation: network topology (LULESH, 64 nodes, 1us/hop, fw @ MTBCE 5s) ===");
    {
        let cfg = WorkloadConfig {
            steps_override: Some(40),
            ..WorkloadConfig::default()
        };
        let sched = build(AppId::Lulesh, 64, &cfg);
        let p_hop = params.with_hop_latency(Span::from_us(1));
        type TopoFactory = Box<dyn Fn() -> Box<dyn Topology>>;
        let topos: Vec<(&str, TopoFactory)> = vec![
            ("flat-crossbar", Box::new(|| Box::new(FlatCrossbar))),
            (
                "torus-3d 4x4x4",
                Box::new(|| Box::new(Torus3D::new([4, 4, 4]))),
            ),
            ("dragonfly g=16", Box::new(|| Box::new(Dragonfly::new(16)))),
        ];
        for (name, mk) in &topos {
            let base = Simulator::new(&sched, p_hop)
                .with_topology(mk())
                .run(&mut NoNoise)
                .unwrap();
            let mut noise = CeNoise::new(
                64,
                Span::from_secs(5),
                LoggingMode::Firmware.per_event_cost(),
                Scope::AllRanks,
                1,
            );
            let pert = Simulator::new(&sched, p_hop)
                .with_topology(mk())
                .run(&mut noise)
                .unwrap();
            println!(
                "  {name:<16} baseline {}  CE slowdown {:.2}%",
                base.finish,
                pert.slowdown_pct(base.finish).expect("positive baseline")
            );
        }
    }
}
