//! The quiet-replica rule: a replica whose first CE arrival comes after
//! the noise-free finish is the baseline run, so it is answered without
//! simulating (`cesim_core::experiment::quiet_replica`).
//!
//! The rule rests on one engine invariant — every CPU interval of a
//! noise-free run ends at or before `SimResult::finish` — pinned here for
//! every workload and collective, on the serial and the sharded engine.
//! The equivalence tests then check the rule itself against full
//! simulation, on a grid where it fires and where it does not.

use dram_ce_sim::engine::{
    simulate_compiled, simulate_compiled_sharded, CompiledSchedule, NoNoise, NoiseModel, ShardMode,
};
use dram_ce_sim::experiment::{quiet_replica, run_against_baseline_compiled, Experiment};
use dram_ce_sim::goal::builder::TagPool;
use dram_ce_sim::goal::collectives::{self, AllreduceAlgo, CollectiveCosts};
use dram_ce_sim::goal::{OpId, Rank, Schedule, ScheduleBuilder};
use dram_ce_sim::model::{LogGopsParams, LoggingMode, Span, Time};
use dram_ce_sim::noise::{CeNoise, Scope};
use dram_ce_sim::seed::rep_seed;
use dram_ce_sim::workloads::{self, natural_ranks, AppId, WorkloadConfig};
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
    let s = simulate_compiled_sharded(&cs, &p, 3, ShardMode::Lockstep, &sharded).unwrap();
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
    let cfg = WorkloadConfig {
        steps_override: Some(2),
        ..WorkloadConfig::default()
    };
    for app in AppId::all() {
        let ranks = natural_ranks(app, 16);
        let sched = workloads::build(app, ranks, &cfg);
        assert_intervals_end_by_finish(app.name(), &sched);
    }
}

#[test]
fn noise_free_intervals_end_by_finish_for_every_collective() {
    type Expand = fn(&mut ScheduleBuilder, &mut TagPool, u64, &[OpId]) -> Vec<OpId>;
    let costs = CollectiveCosts::default();
    let expansions: [(&str, Expand); 9] = [
        ("allreduce_rd", |b, t, bytes, e| {
            let c = CollectiveCosts::default();
            collectives::allreduce(b, t, AllreduceAlgo::RecursiveDoubling, bytes, &c, e)
        }),
        ("allreduce_rb", |b, t, bytes, e| {
            let c = CollectiveCosts::default();
            collectives::allreduce(b, t, AllreduceAlgo::ReduceBcast, bytes, &c, e)
        }),
        ("barrier", |b, t, _, e| {
            collectives::barrier_dissemination(b, t, e)
        }),
        ("bcast", |b, t, bytes, e| {
            collectives::bcast_binomial(b, t, Rank(1), bytes, e)
        }),
        ("reduce", |b, t, bytes, e| {
            let c = CollectiveCosts::default();
            collectives::reduce_binomial(b, t, Rank(1), bytes, &c, e)
        }),
        ("allgather", |b, t, bytes, e| {
            collectives::allgather_ring(b, t, bytes, e)
        }),
        ("alltoall", |b, t, bytes, e| {
            collectives::alltoall_pairwise(b, t, bytes, e)
        }),
        ("scatter", |b, t, bytes, e| {
            collectives::scatter_binomial(b, t, Rank(1), bytes, e)
        }),
        ("gather", |b, t, bytes, e| {
            collectives::gather_binomial(b, t, Rank(1), bytes, e)
        }),
    ];
    let rendezvous = LogGopsParams::xc40().eager_threshold + 1;
    for (name, expand) in expansions {
        for n in [5, 16] {
            for bytes in [8, rendezvous] {
                let mut b = ScheduleBuilder::new(n);
                let mut tags = TagPool::new();
                // Staggered entry work, then the collective, then a
                // closing reduction step on every rank.
                let entry: Vec<OpId> = (0..n)
                    .map(|r| b.calc(Rank::from(r), Span::from_us(1 + 3 * r as u64), &[]))
                    .collect();
                let out = expand(&mut b, &mut tags, bytes, &entry);
                for (r, &op) in out.iter().enumerate() {
                    b.calc(Rank::from(r), costs.reduce_cost(bytes), &[op]);
                }
                let label = format!("{name} n={n} bytes={bytes}");
                assert_intervals_end_by_finish(&label, &b.build());
            }
        }
    }
}

/// Wherever the rule fires on the grid app × scope × MTBCE × seed, full
/// simulation gives the baseline finish and no CE anywhere. The grid
/// holds both outcomes.
#[test]
fn quiet_replica_matches_full_simulation() {
    let p = LogGopsParams::xc40();
    let detour = LoggingMode::Software.per_event_cost();
    let cfg = WorkloadConfig {
        steps_override: Some(2),
        ..WorkloadConfig::default()
    };
    let (mut fired, mut simulated) = (0, 0);
    for app in AppId::all() {
        let ranks = natural_ranks(app, 8);
        let cs = CompiledSchedule::compile(&workloads::build(app, ranks, &cfg));
        let base = simulate_compiled(&cs, &p, &mut NoNoise).unwrap();
        let base_ps = base.finish.as_ps();
        let last = Rank::from(ranks - 1);
        for scope in [Scope::AllRanks, Scope::SingleRank(last)] {
            // MTBCEs at fixed multiples of this schedule's makespan, so
            // every app sees both quiet and noisy replicas.
            for k in [1, 8, 64] {
                let mtbce = Span::from_ps(base_ps * k);
                for seed in 0..4 {
                    let noise = CeNoise::new(ranks, mtbce, detour, scope, seed);
                    let Some(quiet) = quiet_replica(&noise, base.finish) else {
                        simulated += 1;
                        continue;
                    };
                    fired += 1;
                    let mut full = noise.clone();
                    let r = simulate_compiled(&cs, &p, &mut full).unwrap();
                    let at = format!("{app} {scope:?} mtbce={mtbce} seed={seed}");
                    assert_eq!(r.finish, base.finish, "{at}");
                    assert_eq!(quiet.finish, r.finish.since(Time::ZERO), "{at}");
                    assert_eq!(r.noise_events, 0, "{at}");
                    assert_eq!(quiet.ce_events, r.noise_events, "{at}");
                    assert!(full.per_rank_events().iter().all(|&e| e == 0), "{at}");
                    assert_eq!(full.first_arrival(), noise.first_arrival(), "{at}");
                }
            }
        }
    }
    assert!(
        fired > 0 && simulated > 0,
        "fired {fired}, simulated {simulated}"
    );
}

/// End to end through `run_against_baseline_compiled`, serial and
/// sharded: every replica's finish and CE count equal a full simulation
/// of that replica, and exactly the skipped replicas report no engine
/// events.
#[test]
fn experiment_replicas_match_full_simulation() {
    // (app, scope, targeted ranks): MTBCE = 2 x targeted ranks x the
    // makespan, so about 60% of replicas are quiet.
    for (app, scope, targeted) in [
        (AppId::Hpcg, Scope::AllRanks, 8),
        (AppId::Lulesh, Scope::SingleRank(Rank(3)), 1),
    ] {
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
            let out = run_against_baseline_compiled(&exp, ranks, &cs, base.finish, 0).unwrap();
            let detour = exp.mode.per_event_cost();
            let mut skipped = 0;
            for (rep, run) in out.runs.iter().enumerate() {
                let seed = rep_seed(exp.seed, rep as u32);
                let mut noise = CeNoise::new(ranks, exp.mtbce, detour, scope, seed);
                let quiet = quiet_replica(&noise, base.finish).is_some();
                let full = simulate_compiled(&cs, &exp.params, &mut noise).unwrap();
                let at = format!("{app} shards={shards} rep={rep}");
                assert_eq!(run.finish, full.finish.since(Time::ZERO), "{at}");
                assert_eq!(run.ce_events, full.noise_events, "{at}");
                assert_eq!(run.events == 0, quiet, "{at}");
                skipped += usize::from(quiet);
            }
            assert!(
                0 < skipped && skipped < out.runs.len(),
                "{app}: {skipped} of {} replicas skipped",
                out.runs.len()
            );
        }
    }
}
