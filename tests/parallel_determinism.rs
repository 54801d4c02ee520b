//! Serial/parallel equivalence of the sweep runner.
//!
//! The figure sweeps execute their cells (and each cell's replicas) as a
//! parallel job list; every job derives its RNG stream from stable
//! `(figure, cell, replica)` coordinates rather than execution order, and
//! results are reassembled in job order. Consequence under test: the
//! rendered output — including the CSV artifact — is **byte-identical**
//! for every thread count, and likewise for every `--shards` value when
//! individual simulations are split across lookahead-window shards.

use dram_ce_sim::experiment::{run as run_experiment, Experiment, Outcome};
use dram_ce_sim::figures::{fig4, fig5, with_threads, FigureData, ScaleConfig};
use dram_ce_sim::model::{LoggingMode, Span};
use dram_ce_sim::report::figure_csv;
use dram_ce_sim::workloads::AppId;

fn small(threads: usize) -> ScaleConfig {
    ScaleConfig {
        nodes: 16,
        reps: 3,
        steps_scale: 0.05,
        apps: vec![AppId::Lulesh, AppId::LammpsLj],
        threads,
        ..ScaleConfig::default()
    }
}

fn csv_of(f: impl Fn(&ScaleConfig) -> FigureData, threads: usize) -> String {
    figure_csv(&f(&small(threads)))
}

#[test]
fn fig4_csv_is_byte_identical_across_thread_counts() {
    let serial = csv_of(fig4, 1);
    assert!(serial.lines().count() > 1, "sweep produced no cells");
    for threads in [2, 4, 0] {
        assert_eq!(
            csv_of(fig4, threads),
            serial,
            "fig4 CSV diverged at --threads {threads}"
        );
    }
}

/// The recorder path must not weaken the guarantee: with observation
/// enabled (the first `observe_replicas` replicas of every cell
/// recorded; critical-path mean/stddev and provenance columns in the
/// CSV), the output is still byte-identical for every thread count —
/// and the base columns are byte-identical to the unobserved sweep.
#[test]
fn observed_fig4_csv_is_byte_identical_across_thread_counts() {
    let observed = |threads: usize| {
        let mut cfg = small(threads);
        cfg.observe_replicas = 1;
        figure_csv(&fig4(&cfg))
    };
    let serial = observed(1);
    assert!(
        serial
            .lines()
            .next()
            .unwrap()
            .ends_with("p99_amplification"),
        "observed sweeps must emit the attribution columns"
    );
    for threads in [4, 0] {
        assert_eq!(
            observed(threads),
            serial,
            "observed fig4 CSV diverged at --threads {threads}"
        );
    }
    // Observation is purely additive: stripping the cp_* columns
    // reproduces the unobserved CSV exactly.
    let base_cols = |csv: &str| {
        csv.lines()
            .map(|l| l.split(',').take(10).collect::<Vec<_>>().join(","))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(base_cols(&serial), base_cols(&csv_of(fig4, 1)));
}

/// Multi-replica observation (`--observe-replicas 2`): per-replica
/// recordings feed the mean/stddev and provenance aggregates, and the
/// CSV stays byte-identical across thread counts because each observed
/// replica derives its recording from the same stable seed coordinates.
#[test]
fn multi_replica_observed_fig4_csv_is_byte_identical_across_thread_counts() {
    let observed = |threads: usize| {
        let mut cfg = small(threads);
        cfg.observe_replicas = 2;
        figure_csv(&fig4(&cfg))
    };
    let serial = observed(1);
    // Every data row carries the full 24-column observed shape, and the
    // stddev columns parse as finite numbers. (That the stddevs are
    // nonzero when replicas actually differ is covered at the unit
    // level in cesim-core's report tests; the tiny sweep used here is
    // noise-free.)
    let ncols = serial.lines().next().unwrap().split(',').count();
    assert_eq!(ncols, 24, "10 base + 5 cp means + 5 cp sds + 4 provenance");
    for line in serial.lines().skip(1) {
        assert_eq!(line.split(',').count(), ncols, "ragged row: {line}");
        for v in line.split(',').skip(15).take(5) {
            assert!(v.parse::<f64>().unwrap().is_finite(), "bad sd {v}");
        }
    }
    for threads in [4, 0] {
        assert_eq!(
            observed(threads),
            serial,
            "multi-replica observed fig4 CSV diverged at --threads {threads}"
        );
    }
}

#[test]
fn fig5_csv_is_byte_identical_across_thread_counts() {
    let serial = csv_of(fig5, 1);
    for threads in [4, 0] {
        assert_eq!(
            csv_of(fig5, threads),
            serial,
            "fig5 CSV diverged at --threads {threads}"
        );
    }
}

/// Intra-run sharding composes with the sweep runner: the figure CSVs
/// are byte-identical no matter how many shards each simulation is
/// split into, because the sharded engine's lookahead-window merge
/// reproduces the serial event order exactly.
#[test]
fn fig4_csv_is_byte_identical_across_shard_counts() {
    let sharded = |shards: usize| {
        let mut cfg = small(0);
        cfg.shards = shards;
        figure_csv(&fig4(&cfg))
    };
    let serial = sharded(1);
    assert!(serial.lines().count() > 1, "sweep produced no cells");
    for shards in [2, 4, 7] {
        assert_eq!(
            sharded(shards),
            serial,
            "fig4 CSV diverged at --shards {shards}"
        );
    }
}

#[test]
fn fig5_csv_is_byte_identical_across_shard_counts() {
    let sharded = |shards: usize| {
        let mut cfg = small(0);
        cfg.shards = shards;
        figure_csv(&fig5(&cfg))
    };
    let serial = sharded(1);
    for shards in [2, 4, 7] {
        assert_eq!(
            sharded(shards),
            serial,
            "fig5 CSV diverged at --shards {shards}"
        );
    }
}

/// Sharding must also leave the **recorded** path untouched: observed
/// sweeps route events through per-shard buffering recorders and a
/// deterministic merge, and still render byte-identical CSVs (critical
/// path, provenance, and detour-id-sensitive columns included).
#[test]
fn observed_fig4_csv_is_byte_identical_across_shard_counts() {
    let observed = |shards: usize| {
        let mut cfg = small(0);
        cfg.observe_replicas = 2;
        cfg.shards = shards;
        figure_csv(&fig4(&cfg))
    };
    let serial = observed(1);
    assert_eq!(serial.lines().next().unwrap().split(',').count(), 24);
    for shards in [2, 4, 7] {
        assert_eq!(
            observed(shards),
            serial,
            "observed fig4 CSV diverged at --shards {shards}"
        );
    }
}

/// Same replica-level guarantee one layer down: a single experiment's
/// per-replica results are identical whether the replicas run serially or
/// across a pool.
#[test]
fn experiment_outcomes_identical_serial_vs_parallel() {
    let exp = Experiment::new(AppId::Hpcg, 16)
        .mode(LoggingMode::Firmware)
        .mtbce(Span::from_secs(2))
        .reps(6)
        .steps(4);
    let serial: Outcome = with_threads(1, || run_experiment(&exp)).unwrap();
    let parallel: Outcome = with_threads(4, || run_experiment(&exp)).unwrap();
    assert_eq!(serial.runs, parallel.runs);
    assert_eq!(serial.baseline, parallel.baseline);
    assert_eq!(serial.diverged, parallel.diverged);
    // ...and whether each replica's simulation is itself sharded.
    let sharded_exp = Experiment::new(AppId::Hpcg, 16)
        .mode(LoggingMode::Firmware)
        .mtbce(Span::from_secs(2))
        .reps(6)
        .steps(4)
        .shards(4);
    let sharded: Outcome = run_experiment(&sharded_exp).unwrap();
    // Serial replicas may resume from or rejoin the baseline's fork
    // table, while sharded ones run in full: the two agree on every
    // result and on the events a full run processes.
    let full = |o: &Outcome| -> Vec<(Span, u64, u64)> {
        o.runs
            .iter()
            .map(|r| (r.finish, r.ce_events, r.events + r.skipped))
            .collect()
    };
    assert!(
        serial.runs.iter().any(|r| r.skipped > 0),
        "no replica forked"
    );
    assert_eq!(full(&serial), full(&sharded));
    assert_eq!(serial.baseline, sharded.baseline);
    assert_eq!(serial.diverged, sharded.diverged);
    // The replicas genuinely differ from each other (distinct seeds), so
    // the equality above is not vacuous.
    let distinct: std::collections::HashSet<u64> =
        serial.runs.iter().map(|r| r.finish.as_ps()).collect();
    assert!(distinct.len() > 1);
}

/// The seed of a cell must not depend on which other cells run: sweeping
/// a subset of apps reproduces exactly the cells of the full sweep.
#[test]
fn cell_results_stable_under_app_subsetting() {
    let full = fig4(&small(0));
    let mut solo_cfg = small(0);
    solo_cfg.apps = vec![AppId::Lulesh];
    let solo = fig4(&solo_cfg);
    // Lulesh is app index 0 in both configs, so its cells must agree.
    let full_lulesh: Vec<_> = full
        .cells
        .iter()
        .filter(|c| c.app == AppId::Lulesh)
        .collect();
    assert_eq!(full_lulesh.len(), solo.cells.len());
    for (a, b) in full_lulesh.iter().zip(&solo.cells) {
        assert_eq!(a.slowdown_pct, b.slowdown_pct, "{} {}", a.group, a.mode);
        assert_eq!(a.ce_events, b.ce_events);
        assert_eq!(a.stddev_pct, b.stddev_pct);
    }
}
