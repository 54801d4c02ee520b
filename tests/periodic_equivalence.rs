//! A periodic compile (`CompiledSchedule::compile_periodic` of
//! `workloads::build_periodic`) is the compile of the expanded schedule
//! (`CompiledSchedule::compile` of `workloads::build`), op for op.
//!
//! Every app, at rank counts from 1 to 125 and at step counts around its
//! period P (1, P - 1, P, P + 1, 2P + 3 and a quarter of its default), so
//! LAMMPS-lj/-snap (P = 20) cover cut-short and single partial
//! repetitions, under both allreduce expansions. Each flat op answers the
//! same kind, dependents and indegree; roots, totals and the fork
//! table's snapshot budget agree; and noise-free and CE-noise runs give
//! equal results, serial and sharded.

use dram_ce_sim::engine::{
    simulate_compiled, simulate_compiled_sharded, CompiledSchedule, ForkTable, NoNoise,
};
use dram_ce_sim::goal::collectives::AllreduceAlgo;
use dram_ce_sim::goal::Rank;
use dram_ce_sim::model::{LogGopsParams, Span};
use dram_ce_sim::noise::{CeNoise, Scope};
use dram_ce_sim::workloads::{self, apps, AppId, WorkloadConfig};

const RANKS: [usize; 6] = [1, 2, 7, 27, 64, 125];

/// The step counts checked for `app`, deduplicated.
fn step_counts(app: AppId) -> Vec<usize> {
    let sk = apps::spec(app);
    let p = sk.period();
    let mut steps = vec![1, p - 1, p, p + 1, 2 * p + 3, sk.default_steps.div_ceil(4)];
    steps.retain(|&s| s > 0);
    steps.sort_unstable();
    steps.dedup();
    steps
}

fn both(app: AppId, ranks: usize, cfg: &WorkloadConfig) -> (CompiledSchedule, CompiledSchedule) {
    let full = CompiledSchedule::compile(&workloads::build(app, ranks, cfg));
    let periodic = CompiledSchedule::compile_periodic(workloads::build_periodic(app, ranks, cfg))
        .unwrap_or_else(|e| panic!("{app:?} x{ranks}: {e}"));
    (full, periodic)
}

fn assert_same_ops(at: &str, full: &CompiledSchedule, periodic: &CompiledSchedule) {
    assert_eq!(periodic.num_ranks(), full.num_ranks(), "{at}");
    assert_eq!(periodic.total_ops(), full.total_ops(), "{at}");
    assert_eq!(periodic.total_deps(), full.total_deps(), "{at}");
    assert_eq!(periodic.roots(), full.roots(), "{at}");
    for r in 0..full.num_ranks() as u32 {
        assert_eq!(periodic.ops_on(r), full.ops_on(r), "{at} rank {r}");
    }
    for f in 0..full.total_ops() as usize {
        assert_eq!(periodic.op_kind(f), full.op_kind(f), "{at} op {f}");
        assert_eq!(periodic.indeg0(f), full.indeg0(f), "{at} op {f}");
        assert!(
            periodic.dependents(f).eq(full.dependents(f)),
            "{at} op {f}: dependents differ"
        );
    }
    assert_eq!(ForkTable::budget(periodic), ForkTable::budget(full), "{at}");
}

#[test]
fn periodic_compile_answers_every_flat_op_as_the_expanded_one() {
    for algo in [AllreduceAlgo::RecursiveDoubling, AllreduceAlgo::ReduceBcast] {
        for app in AppId::all() {
            for steps in step_counts(app) {
                for ranks in RANKS {
                    let cfg = WorkloadConfig {
                        allreduce_algo: algo,
                        ..WorkloadConfig::default().with_steps(steps)
                    };
                    let (full, periodic) = both(app, ranks, &cfg);
                    let at = format!("{app:?} {algo:?} x{ranks} {steps} steps");
                    assert_same_ops(&at, &full, &periodic);
                }
            }
        }
    }
}

#[test]
fn periodic_compile_stores_one_period() {
    // LULESH repeats every step: 120 steps hold one step's records.
    let cfg = WorkloadConfig::default();
    let (full, periodic) = both(AppId::Lulesh, 27, &cfg);
    assert_eq!(full.records() as u64, full.total_ops());
    assert!(
        periodic.records() * 100 < full.records(),
        "{}",
        periodic.records()
    );
}

#[test]
fn periodic_runs_equal_expanded_runs_serial_and_sharded() {
    let p = LogGopsParams::xc40();
    for algo in [AllreduceAlgo::RecursiveDoubling, AllreduceAlgo::ReduceBcast] {
        for app in AppId::all() {
            for steps in step_counts(app) {
                for ranks in [1, 7, 27] {
                    let cfg = WorkloadConfig {
                        allreduce_algo: algo,
                        ..WorkloadConfig::default().with_steps(steps)
                    };
                    let (full, periodic) = both(app, ranks, &cfg);
                    let at = format!("{app:?} {algo:?} x{ranks} {steps} steps");
                    let want = simulate_compiled(&full, &p, &mut NoNoise).unwrap();
                    let got = simulate_compiled(&periodic, &p, &mut NoNoise).unwrap();
                    assert_eq!(got, want, "{at} noise-free");
                    let ce = CeNoise::new(
                        ranks,
                        Span::from_ms(40),
                        Span::from_us(300),
                        Scope::AllRanks,
                        steps as u64,
                    );
                    let want = simulate_compiled(&full, &p, &mut ce.clone()).unwrap();
                    let got = simulate_compiled(&periodic, &p, &mut ce.clone()).unwrap();
                    assert_eq!(got, want, "{at} CE noise");
                    let sharded = simulate_compiled_sharded(&periodic, &p, 3, &ce).unwrap();
                    assert_eq!(sharded, want, "{at} CE noise, 3 shards");
                }
            }
        }
    }
}

#[test]
fn single_rank_ce_noise_is_equal_too() {
    let p = LogGopsParams::xc40();
    let cfg = WorkloadConfig::default().with_steps(25);
    for app in [AppId::LammpsLj, AppId::Lulesh, AppId::Hpcg] {
        let (full, periodic) = both(app, 64, &cfg);
        let ce = CeNoise::new(
            64,
            Span::from_ms(2),
            Span::from_us(300),
            Scope::SingleRank(Rank(5)),
            3,
        );
        let want = simulate_compiled(&full, &p, &mut ce.clone()).unwrap();
        assert!(want.noise_events > 0, "{app:?}: no CE fired");
        assert_eq!(
            simulate_compiled(&periodic, &p, &mut ce.clone()).unwrap(),
            want,
            "{app:?}"
        );
        assert_eq!(
            simulate_compiled_sharded(&periodic, &p, 3, &ce).unwrap(),
            want,
            "{app:?}"
        );
    }
}

/// `ForkTable::budget` of expanded workload schedules, pinned to the
/// values it had when the budget was a quarter of the compiled heap.
#[test]
fn fork_budget_keeps_its_values() {
    for (app, ranks, steps, budget) in [
        (AppId::Lulesh, 27, 5, 105_193),
        (AppId::Hpcg, 64, 3, 194_162),
        (AppId::LammpsLj, 7, 25, 4_753),
        (AppId::Milc, 125, 2, 108_699),
        (AppId::LammpsSnap, 1, 16, 4_096),
        (AppId::Cth, 3, 40, 12_437),
    ] {
        let (full, periodic) = both(app, ranks, &WorkloadConfig::default().with_steps(steps));
        assert_eq!(ForkTable::budget(&full), budget, "{app:?}");
        assert_eq!(ForkTable::budget(&periodic), budget, "{app:?}");
    }
}
