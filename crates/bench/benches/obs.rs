//! Observability overhead bench.
//!
//! The `Recorder` hooks in the engine are gated on `R::ENABLED`, a
//! monomorphization-time constant, so the default `NullRecorder` path
//! must compile to the pre-instrumentation engine. This bench verifies
//! the claim empirically on LULESH at 32 nodes (steps scale 0.2): the
//! explicit `NullRecorder` run must stay within 2% of
//! `simulate()`, measured as interleaved min-of-N to shed scheduler
//! noise. The active `TimelineRecorder` cost is printed alongside for
//! the logs (it is allowed to cost — it records everything).
//!
//! The runtime-telemetry layer (span profiler, flight recorder, request
//! traces) has the same contract at runtime instead of compile time:
//! switched off via its process-wide atomic after it has been on (ring
//! and phase histograms allocated), the sharded engine path (4 threaded
//! shards) must stay within 2% of the same path timed before telemetry
//! was ever enabled.

use cesim_core::engine::{
    simulate, simulate_compiled_sharded, CompiledSchedule, NoNoise, NullRecorder, Simulator,
};
use cesim_core::model::LogGopsParams;
use cesim_core::obs::telemetry::{self, Span};
use cesim_core::obs::TimelineRecorder;
use cesim_core::workloads::{self, AppId, WorkloadConfig};
use std::hint::black_box;
use std::time::Instant;

fn main() {
    let wl = WorkloadConfig {
        steps_scale: 0.2,
        ..WorkloadConfig::default()
    };
    let ranks = workloads::natural_ranks(AppId::Lulesh, 32);
    let sched = workloads::build(AppId::Lulesh, ranks, &wl);
    let params = LogGopsParams::xc40();

    // Interleaved min-of-N: the minimum is the least noise-contaminated
    // observation of each path.
    let rounds = 20;
    let mut t_plain = f64::INFINITY;
    let mut t_null = f64::INFINITY;
    let mut t_timeline = f64::INFINITY;
    for _ in 0..rounds {
        let t0 = Instant::now();
        black_box(simulate(&sched, &params, &mut NoNoise).unwrap());
        t_plain = t_plain.min(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        black_box(
            Simulator::new(&sched, params)
                .with_recorder(NullRecorder)
                .run(&mut NoNoise)
                .unwrap(),
        );
        t_null = t_null.min(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        let mut rec = TimelineRecorder::with_capacity(1 << 22);
        black_box(
            Simulator::new(&sched, params)
                .with_recorder(&mut rec)
                .run(&mut NoNoise)
                .unwrap(),
        );
        t_timeline = t_timeline.min(t0.elapsed().as_secs_f64());
    }
    let null_overhead = t_null / t_plain - 1.0;
    println!(
        "\n=== obs overhead (LULESH {} ranks, min of {rounds}): plain {:.3}ms, \
         NullRecorder {:.3}ms ({:+.2}%), TimelineRecorder {:.3}ms ({:+.2}%) ===",
        ranks,
        t_plain * 1e3,
        t_null * 1e3,
        null_overhead * 100.0,
        t_timeline * 1e3,
        (t_timeline / t_plain - 1.0) * 100.0,
    );
    assert!(
        null_overhead < 0.02,
        "NullRecorder must be free: measured {:+.2}% vs the default path",
        null_overhead * 100.0
    );

    // Runtime telemetry (span profiler, flight recorder, request traces)
    // is gated on a single process-wide atomic. Contract: once telemetry
    // has been on — its ring and phase histograms allocated — and is
    // switched off again, the engine path stays within 2% of the same
    // run measured before telemetry was ever enabled. The enabled cost
    // is printed alongside for the logs.
    let cs = CompiledSchedule::compile(&sched);
    let run_sharded = |cs: &CompiledSchedule| {
        let _s = Span::enter("bench_cell");
        black_box(simulate_compiled_sharded(cs, &params, 4, &NoNoise).unwrap())
    };
    let mut t_before = f64::INFINITY;
    for _ in 0..rounds {
        let t0 = Instant::now();
        run_sharded(&cs);
        t_before = t_before.min(t0.elapsed().as_secs_f64());
    }
    let mut t_disabled = f64::INFINITY;
    let mut t_enabled = f64::INFINITY;
    for _ in 0..rounds {
        telemetry::set_enabled(false);
        let t0 = Instant::now();
        run_sharded(&cs);
        t_disabled = t_disabled.min(t0.elapsed().as_secs_f64());

        telemetry::set_enabled(true);
        let t0 = Instant::now();
        run_sharded(&cs);
        t_enabled = t_enabled.min(t0.elapsed().as_secs_f64());
    }
    telemetry::set_enabled(false);
    let disabled_overhead = t_disabled / t_before - 1.0;
    println!(
        "=== telemetry overhead (sharded x4, min of {rounds}): never-enabled {:.3}ms, \
         disabled {:.3}ms ({:+.2}%), enabled {:.3}ms ({:+.2}%) ===",
        t_before * 1e3,
        t_disabled * 1e3,
        disabled_overhead * 100.0,
        t_enabled * 1e3,
        (t_enabled / t_before - 1.0) * 100.0,
    );
    assert!(
        disabled_overhead < 0.02,
        "disabled telemetry must be free: measured {:+.2}% vs the never-enabled engine path",
        disabled_overhead * 100.0
    );
}
