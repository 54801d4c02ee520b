//! Property-based tests for the process-wide shard counters
//! (`shard_globals`): the conservation law (`busy + stall + barrier ==
//! wall`, exactly, per shard), event accounting against the serial
//! engine, and serial fallbacks counting nothing. Each case takes the
//! counters' difference across one run while holding a lock that every
//! test in this binary holds while it runs the engine.

use std::sync::{Arc, Mutex, MutexGuard};

use dram_ce_sim::engine::{
    shard_globals, simulate, simulate_compiled_sharded, CompiledSchedule, NoNoise, ShardGlobals,
    SimResult,
};
use dram_ce_sim::goal::{Rank, Schedule, ScheduleBuilder, Tag};
use dram_ce_sim::model::{LogGopsParams, Span};
use proptest::prelude::*;

static COUNTERS: Mutex<()> = Mutex::new(());

fn lock_counters() -> MutexGuard<'static, ()> {
    COUNTERS.lock().unwrap_or_else(|e| e.into_inner())
}

/// A random message: src/dst rank indices, tag class, payload size
/// (crossing the eager/rendezvous boundary).
#[derive(Clone, Debug)]
struct Msg {
    src: usize,
    dst: usize,
    tag: u32,
    bytes: u64,
}

fn msg_strategy(nranks: usize) -> impl Strategy<Value = Msg> {
    (
        0..nranks,
        0..nranks,
        0u32..4,
        prop_oneof![1u64..64, 60_000u64..80_000],
    )
        .prop_map(|(src, dst, tag, bytes)| Msg {
            src,
            dst,
            tag,
            bytes,
        })
}

/// Build a deadlock-free schedule: calcs form a chain per rank; sends
/// depend only on calcs (never on receives), so every send eventually
/// fires and every receive matches.
fn build_schedule(nranks: usize, calcs: &[Vec<u32>], msgs: &[Msg]) -> Schedule {
    let mut b = ScheduleBuilder::new(nranks);
    let mut last_calc = Vec::with_capacity(nranks);
    for (r, durs) in calcs.iter().enumerate() {
        let rank = Rank::from(r);
        let mut prev = b.calc(rank, Span::ZERO, &[]);
        for &d in durs {
            prev = b.calc(rank, Span::from_us(d as u64), &[prev]);
        }
        last_calc.push(prev);
    }
    for m in msgs {
        if m.src == m.dst {
            continue; // self-messages are not modeled
        }
        b.send(
            Rank::from(m.src),
            Rank::from(m.dst),
            m.bytes,
            Tag(m.tag),
            &[last_calc[m.src]],
        );
        b.recv(
            Rank::from(m.dst),
            Some(Rank::from(m.src)),
            m.bytes,
            Tag(m.tag),
            &[last_calc[m.dst]],
        );
    }
    b.build()
}

fn schedule_strategy() -> impl Strategy<Value = Schedule> {
    (2usize..6).prop_flat_map(|nranks| {
        (
            proptest::collection::vec(proptest::collection::vec(1u32..200, 1..5), nranks),
            proptest::collection::vec(msg_strategy(nranks), 0..12),
        )
            .prop_map(move |(calcs, msgs)| build_schedule(nranks, &calcs, &msgs))
    })
}

/// A sharded run of `cs` and the counters' difference across it.
fn counted_run(
    cs: &CompiledSchedule,
    params: &LogGopsParams,
    shards: usize,
) -> (SimResult, ShardGlobals) {
    let before = shard_globals();
    let r = simulate_compiled_sharded(cs, params, shards, &NoNoise).expect("sharded run failed");
    (r, shard_globals().since(&before))
}

proptest! {
    /// Per shard, the three timing buckets partition the shard thread's
    /// wall time with no gap and no double counting: the laps chain on
    /// the same instants, so `busy + stall + barrier == wall` holds to
    /// the nanosecond.
    #[test]
    fn buckets_partition_wall_exactly(
        sched in schedule_strategy(),
        shards in 2usize..5,
    ) {
        let params = LogGopsParams::default();
        let cs = Arc::new(CompiledSchedule::compile(&sched));
        let _counters = lock_counters();
        let (_, run) = counted_run(&cs, &params, shards);

        prop_assert_eq!(run.runs_total, 1);
        // Shards beyond the rank count are clamped away; the table keeps
        // zero entries for shard indices this run did not use.
        let used = run.per_shard.iter().filter(|s| s.windows > 0).count();
        prop_assert_eq!(used, shards.min(sched.num_ranks()));
        for (i, s) in run.per_shard.iter().enumerate() {
            prop_assert_eq!(
                s.busy + s.stall + s.barrier,
                s.wall,
                "shard {} buckets do not partition wall", i
            );
        }
    }

    /// Counting never perturbs a run: per-shard event pops sum to the
    /// serial engine's event count, the sharded result equals the serial
    /// one, and a serial fallback counts nothing at all.
    #[test]
    fn events_conserved_and_results_unperturbed(
        sched in schedule_strategy(),
        shards in 2usize..5,
    ) {
        let params = LogGopsParams::default();
        let serial = simulate(&sched, &params, &mut NoNoise).expect("serial run failed");

        let cs = Arc::new(CompiledSchedule::compile(&sched));
        let _counters = lock_counters();
        let (sharded, run) = counted_run(&cs, &params, shards);
        prop_assert_eq!(run.per_shard.iter().map(|s| s.events).sum::<u64>(), serial.events_processed);
        prop_assert_eq!(run.events, serial.events_processed);
        prop_assert_eq!(&sharded, &serial);
        prop_assert!(run.windows > 0);
        prop_assert!(run.imbalance() >= 1.0);

        let before = shard_globals();
        let fallback = simulate_compiled_sharded(&cs, &params, 1, &NoNoise).expect("serial fallback failed");
        prop_assert_eq!(&fallback, &serial);
        prop_assert_eq!(shard_globals(), before, "a serial fallback counts nothing");
    }
}
