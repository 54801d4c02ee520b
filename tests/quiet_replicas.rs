//! The quiet-replica rule: a replica whose first CE arrival comes after
//! the noise-free finish is the baseline run, so it is answered without
//! simulating. It is the terminal entry of every baseline fork table
//! (`cesim_engine::fork`), whose snapshots extend the same argument to
//! the noise-free prefix of the replicas that still simulate.
//!
//! The rule rests on one engine invariant — every CPU interval of a
//! noise-free run ends at or before `SimResult::finish` — pinned here for
//! every workload and collective, on the serial and the sharded engine.
//! The equivalence tests then check the fork table's four answers
//! (baseline, resume, cold run, and rejoining the baseline before the
//! end) against full simulation, on a grid where each of them occurs.

mod common;

use dram_ce_sim::engine::{
    simulate_compiled, simulate_compiled_sharded, CompiledSchedule, Fork, ForkTable, NoNoise,
    NoiseModel, SimResult,
};
use dram_ce_sim::experiment::{
    run_against_baseline_compiled, run_against_table, Experiment, RunStats,
};
use dram_ce_sim::figures::{self, FigureData, ScaleConfig};
use dram_ce_sim::goal::{Rank, Schedule};
use dram_ce_sim::model::{LogGopsParams, LoggingMode, Span, Time};
use dram_ce_sim::noise::{CeNoise, Scope};
use dram_ce_sim::report::figure_csv;
use dram_ce_sim::seed::{point_seed, rep_seed};
use dram_ce_sim::workloads::{self, natural_ranks, AppId, WorkloadConfig};
use dram_ce_sim::ScheduleCache;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A noise model that injects nothing and records the latest end of any
/// CPU interval it was asked to stretch. Clones share the record, so the
/// sharded engine's per-shard copies all report into it.
#[derive(Clone, Default)]
struct LatestEnd {
    max_ps: Arc<AtomicU64>,
    intervals: Arc<AtomicU64>,
}

impl NoiseModel for LatestEnd {
    fn stretch(&mut self, _rank: Rank, start: Time, work: Span) -> Time {
        let end = start + work;
        self.max_ps.fetch_max(end.as_ps(), Ordering::Relaxed);
        self.intervals.fetch_add(1, Ordering::Relaxed);
        end
    }
}

/// Every stretched interval of a noise-free run of `sched` ends at or
/// before the run's finish, on the serial engine and on 3 shards.
fn assert_intervals_end_by_finish(label: &str, sched: &Schedule) {
    let p = LogGopsParams::xc40();
    let cs = CompiledSchedule::compile(sched);
    let base = simulate_compiled(&cs, &p, &mut NoNoise).unwrap();
    let serial = LatestEnd::default();
    let r = simulate_compiled(&cs, &p, &mut serial.clone()).unwrap();
    let sharded = LatestEnd::default();
    let s = simulate_compiled_sharded(&cs, &p, 3, &sharded).unwrap();
    for (engine, rec, res) in [("serial", &serial, &r), ("sharded", &sharded, &s)] {
        assert_eq!(res.finish, base.finish, "{label} {engine}: not noise-free");
        assert!(
            rec.intervals.load(Ordering::Relaxed) > 0,
            "{label} {engine}"
        );
        let latest = Time::from_ps(rec.max_ps.load(Ordering::Relaxed));
        assert!(
            latest <= res.finish,
            "{label} {engine}: an interval ends at {latest}, after finish {}",
            res.finish
        );
    }
}

#[test]
fn noise_free_intervals_end_by_finish_for_every_app() {
    for (label, sched) in common::app_schedules(16, 2) {
        assert_intervals_end_by_finish(&label, &sched);
    }
}

#[test]
fn noise_free_intervals_end_by_finish_for_every_collective() {
    for (label, sched) in common::collective_schedules() {
        assert_intervals_end_by_finish(&label, &sched);
    }
}

/// On the grid app × scope × MTBCE × seed, every answer of the fork
/// table matches full simulation: a Baseline answer gives the baseline
/// finish and no CE anywhere, and a Resume answer gives the full run's
/// result, per-rank CE counts included, whether the resumed replica runs
/// to the end or (like a cold one) rejoins the baseline. The grid holds
/// all four answers.
#[test]
fn quiet_replica_matches_full_simulation() {
    let p = LogGopsParams::xc40();
    let detour = LoggingMode::Software.per_event_cost();
    let (mut baseline, mut resumed, mut cold, mut rejoined) = (0, 0, 0, 0);
    for (app, sched) in common::app_schedules(8, 2) {
        let ranks = sched.num_ranks();
        let cs = Arc::new(CompiledSchedule::compile(&sched));
        let (forks, base) = ForkTable::build(Arc::clone(&cs), &p).unwrap();
        let base_ps = base.finish.as_ps();
        let last = Rank::from(ranks - 1);
        for scope in [Scope::AllRanks, Scope::SingleRank(last)] {
            // MTBCEs at fixed multiples of this schedule's makespan, so
            // every app sees quiet, resumed and cold replicas.
            for k in [1, 8, 64] {
                let mtbce = Span::from_ps(base_ps * k);
                for seed in 0..4 {
                    let noise = CeNoise::new(ranks, mtbce, detour, scope, seed);
                    let mut full = noise.clone();
                    let r = simulate_compiled(&cs, &p, &mut full).unwrap();
                    let at = format!("{app} {scope:?} mtbce={mtbce} seed={seed}");
                    match forks.lookup(noise.first_arrival()) {
                        Fork::Baseline => {
                            baseline += 1;
                            assert_eq!(r.finish, base.finish, "{at}");
                            assert_eq!(forks.finish(), r.finish, "{at}");
                            assert_eq!(r.noise_events, 0, "{at}");
                            assert!(full.per_rank_events().iter().all(|&e| e == 0), "{at}");
                            assert_eq!(full.first_arrival(), noise.first_arrival(), "{at}");
                        }
                        Fork::Resume(snap) => {
                            resumed += 1;
                            assert!(snap.horizon() < noise.first_arrival(), "{at}");
                            let mut fork = noise.clone();
                            let f = forks.resume(snap, &mut fork).unwrap();
                            let events = r.events_processed - snap.events();
                            assert_eq!(f.events_processed, events, "{at}");
                            assert_same_but_events(&at, f, &r);
                            assert_eq!(fork.per_rank_events(), full.per_rank_events(), "{at}");
                        }
                        Fork::Cold => cold += 1,
                    }
                    let from = match forks.lookup(noise.first_arrival()) {
                        Fork::Baseline => continue,
                        Fork::Resume(snap) => Some(snap),
                        Fork::Cold => None,
                    };
                    let mut fork = noise.clone();
                    let f = forks.run(from, &mut fork).unwrap();
                    assert_eq!(f.prefix, from.map_or(0, |s| s.events()), "{at}");
                    let events = f.result.events_processed + f.prefix + f.suffix;
                    assert_eq!(events, r.events_processed, "{at}");
                    assert_same_but_events(&at, f.result, &r);
                    assert_eq!(fork.per_rank_events(), full.per_rank_events(), "{at}");
                    rejoined += usize::from(f.suffix > 0);
                }
            }
        }
    }
    assert!(
        baseline > 0 && resumed > 0 && cold > 0 && rejoined > 0,
        "baseline {baseline}, resumed {resumed}, cold {cold}, rejoined {rejoined}"
    );
}

fn assert_same_but_events(at: &str, got: SimResult, want: &SimResult) {
    let got = SimResult {
        events_processed: want.events_processed,
        ..got
    };
    assert_eq!(&got, want, "{at}");
}

/// End to end through `run_against_baseline_compiled` (serial and
/// sharded) and `run_against_table`: every replica's finish and
/// CE count equal a full simulation of that replica. Exactly the replicas
/// no CE reaches report no engine events, and a forked replica's events
/// plus the prefix and suffix it skipped are the full run's.
#[test]
fn experiment_replicas_match_full_simulation() {
    // (app, scope, targeted ranks): MTBCE = 2 x targeted ranks x the
    // makespan, so about 60% of replicas are quiet.
    for (app, scope, targeted) in [
        (AppId::Hpcg, Scope::AllRanks, 8),
        (AppId::Lulesh, Scope::SingleRank(Rank(3)), 1),
    ] {
        let cache = ScheduleCache::new(4);
        for shards in [1, 2] {
            let exp = Experiment::new(app, 8)
                .mode(LoggingMode::Software)
                .scope(scope)
                .reps(12)
                .steps(2)
                .shards(shards);
            let ranks = natural_ranks(app, exp.nodes);
            let cs = Arc::new(CompiledSchedule::compile(&workloads::build(
                app,
                ranks,
                &exp.workload,
            )));
            let base = simulate_compiled(&cs, &exp.params, &mut NoNoise).unwrap();
            let exp = exp.mtbce(Span::from_ps(base.finish.as_ps() * 2 * targeted));
            let table = cache
                .get_or_compile(app, exp.nodes, &exp.workload, &exp.params)
                .unwrap();
            assert_eq!(table.finish(), base.finish);
            let out = run_against_baseline_compiled(&exp, ranks, &cs, base.finish, 0).unwrap();
            let forked = run_against_table(&exp, &table, 0).unwrap();
            assert_eq!(forked.baseline, out.baseline);
            let detour = exp.mode.per_event_cost();
            let (mut skipped, mut resumed) = (0, 0);
            for (rep, (run, fork)) in out.runs.iter().zip(&forked.runs).enumerate() {
                let seed = rep_seed(exp.seed, rep as u32);
                let mut noise = CeNoise::new(ranks, exp.mtbce, detour, scope, seed);
                let quiet = noise.first_arrival() > base.finish;
                let full = simulate_compiled(&cs, &exp.params, &mut noise).unwrap();
                let at = format!("{app} shards={shards} rep={rep}");
                for r in [run, fork] {
                    assert_eq!(r.finish, full.finish.since(Time::ZERO), "{at}");
                    assert_eq!(r.ce_events, full.noise_events, "{at}");
                    assert_eq!(r.events == 0, quiet, "{at}");
                    if !quiet {
                        assert_eq!(r.events + r.skipped, full.events_processed, "{at}");
                    }
                }
                assert_eq!(run.skipped, 0, "{at}: no snapshots to resume from");
                assert!(fork.suffix <= fork.skipped, "{at}");
                skipped += usize::from(quiet);
                resumed += usize::from(fork.skipped > 0);
            }
            assert!(
                0 < skipped && skipped < out.runs.len(),
                "{app}: {skipped} of {} replicas skipped",
                out.runs.len()
            );
            if shards > 1 {
                assert_eq!(resumed, 0, "{app}: sharded replicas never resume or rejoin");
            }
        }
    }
}

/// Figure cells run their replicas against real fork tables, and match
/// full simulation: a small Fig. 3 and Fig. 6 sweep, once plain and once
/// with every replica observed (observed replicas always simulate in
/// full), agree on every base CSV column. Every cell, rerun here against
/// a table built from its own app and scale, reproduces the sweep's
/// cell; and one cell of each sweep has replicas that resumed from a
/// snapshot and replicas that rejoined the baseline, so the comparison
/// covers both. The figure's fork ledger, summed over those reruns, pins
/// how many replicas took each answer.
#[test]
fn figure_cells_match_full_simulation() {
    // Exact per-node rates (Fig. 3 is never rescaled): at the
    // rate-preserving default, Fig. 6's all-rank CEs arrive before the
    // first snapshot's horizon, so its replicas rejoin but never resume.
    let cfg = ScaleConfig {
        nodes: 16,
        reps: 3,
        steps_scale: 0.05,
        apps: vec![AppId::Lulesh, AppId::Hpcg],
        preserve_machine_rate: false,
        ..ScaleConfig::default()
    };
    let observed = ScaleConfig {
        observe_replicas: cfg.reps as usize,
        ..cfg.clone()
    };
    let base_cols = |fig: &FigureData| -> Vec<String> {
        let csv = figure_csv(fig);
        csv.lines()
            .map(|l| l.split(',').take(10).collect::<Vec<_>>().join(","))
            .collect()
    };
    // (figure, sweep, scope, index of the cell that resumes and rejoins:
    // LULESH under software logging, at MTBCE 100 ms and 1 s, and the
    // figure's fork ledger).
    type Sweep = fn(&ScaleConfig) -> FigureData;
    let sweeps: [(&str, Sweep, Scope, usize, Ledger); 2] = [
        (
            "fig3",
            figures::fig3,
            Scope::SingleRank(Rank(0)),
            7,
            Ledger {
                baseline: 57,
                resumed: 7,
                rejoined: 29,
                prefix: 26_865,
                suffix: 53_840,
                events: 254_575,
            },
        ),
        (
            "fig6",
            figures::fig6,
            Scope::AllRanks,
            7,
            Ledger {
                baseline: 26,
                resumed: 7,
                rejoined: 17,
                prefix: 31_295,
                suffix: 31_536,
                events: 98_897,
            },
        ),
    ];
    for (id, fig, scope, forked, want) in sweeps {
        let mut ledger = Ledger::default();
        let plain = fig(&cfg);
        assert_eq!(base_cols(&plain), base_cols(&fig(&observed)), "{id}");
        let specs = plain.cells.len() / cfg.apps.len();
        for (k, cell) in plain.cells.iter().enumerate() {
            let (ai, si) = (k / specs, k % specs);
            let workload = WorkloadConfig {
                steps_scale: cfg.steps_scale,
                seed: cfg.seed ^ ai as u64,
                ..WorkloadConfig::default()
            };
            let exp = Experiment {
                app: cell.app,
                nodes: cfg.nodes,
                mode: cell.mode,
                mtbce: cell.mtbce,
                scope,
                reps: cfg.reps,
                seed: point_seed(cfg.seed, id, ai, si),
                params: LogGopsParams::xc40(),
                workload,
                shards: 1,
            };
            let ranks = natural_ranks(cell.app, cfg.nodes);
            let sched = workloads::build(cell.app, ranks, &workload);
            let cs = Arc::new(CompiledSchedule::compile(&sched));
            let (table, _) = ForkTable::build(cs, &exp.params).unwrap();
            let out = run_against_table(&exp, &table, 0).unwrap();
            let at = format!("{id} {} {} {}", cell.app, cell.group, cell.mode);
            assert_eq!(out.baseline.as_secs_f64(), cell.baseline_secs, "{at}");
            assert_eq!(out.mean_slowdown_pct(), cell.slowdown_pct, "{at}");
            for r in &out.runs {
                ledger.add(r);
            }
            if k == forked {
                assert!(
                    out.runs.iter().any(|r| r.prefix() > 0),
                    "{at}: none resumed"
                );
                assert!(out.runs.iter().any(|r| r.suffix > 0), "{at}: none rejoined");
            }
        }
        assert_eq!(ledger, want, "{id}: fork ledger");
    }
}

/// How a figure's replicas were answered, summed over its cells: by the
/// baseline, resumed from a snapshot, rejoining the baseline, and the
/// engine events skipped before and after and dispatched.
#[derive(Debug, Default, PartialEq)]
struct Ledger {
    baseline: u64,
    resumed: u64,
    rejoined: u64,
    prefix: u64,
    suffix: u64,
    events: u64,
}

impl Ledger {
    fn add(&mut self, r: &RunStats) {
        self.baseline += u64::from(r.events == 0);
        self.resumed += u64::from(r.prefix() > 0);
        self.rejoined += u64::from(r.suffix > 0);
        self.prefix += r.prefix();
        self.suffix += r.suffix;
        self.events += r.events;
    }
}
