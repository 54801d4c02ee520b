//! Property-based tests for shard-health telemetry: the conservation
//! law (`busy + stall + barrier == wall`, exactly, per shard), event
//! accounting against the serial engine, and the guarantee that
//! attaching a telemetry handle never perturbs simulation results.

use std::sync::Arc;

use dram_ce_sim::engine::{
    simulate, simulate_compiled_sharded, simulate_sharded_instrumented, CompiledSchedule, NoNoise,
    NullRecorder, ShardTelemetry, SimResult,
};
use dram_ce_sim::goal::{Rank, Schedule, ScheduleBuilder, Tag};
use dram_ce_sim::model::{LogGopsParams, Span};
use proptest::prelude::*;

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

/// A sharded run of `cs` with shard-health telemetry attached.
fn with_telemetry(
    cs: &CompiledSchedule,
    params: &LogGopsParams,
    shards: usize,
    telem: &ShardTelemetry,
) -> Result<SimResult, dram_ce_sim::engine::SimError> {
    simulate_sharded_instrumented(cs, params, shards, &NoNoise, &mut NullRecorder, Some(telem))
}

proptest! {
    /// Per shard, the three timing buckets partition accounted wall
    /// time with no gap and no double counting: boundary-timestamp
    /// accounting makes `busy + stall + barrier == wall` hold to the
    /// nanosecond.
    #[test]
    fn buckets_partition_wall_exactly(
        sched in schedule_strategy(),
        shards in 2usize..5,
    ) {
        let params = LogGopsParams::default();
        let cs = Arc::new(CompiledSchedule::compile(&sched));
        let telem = ShardTelemetry::new(shards);
        with_telemetry(&cs, &params, shards, &telem).expect("sharded run failed");

        let report = telem.report();
        prop_assert_eq!(report.per_shard.len(), shards);
        prop_assert_eq!(report.runs, 1);
        for (i, s) in report.per_shard.iter().enumerate() {
            prop_assert_eq!(
                s.busy + s.stall + s.barrier,
                s.wall,
                "shard {} buckets do not partition wall", i
            );
        }
    }

    /// Telemetry is an observer, not a participant: per-shard event
    /// pops sum to the serial engine's event count, the sharded finish
    /// time matches the serial one, and running with the handle
    /// attached returns byte-identical results to running without it.
    #[test]
    fn events_conserved_and_results_unperturbed(
        sched in schedule_strategy(),
        shards in 2usize..5,
    ) {
        let params = LogGopsParams::default();
        let serial = simulate(&sched, &params, &mut NoNoise).expect("serial run failed");

        let cs = Arc::new(CompiledSchedule::compile(&sched));
        let telem = ShardTelemetry::new(shards);
        let observed =
            with_telemetry(&cs, &params, shards, &telem).expect("observed sharded run failed");
        let plain = simulate_compiled_sharded(&cs, &params, shards, &NoNoise)
            .expect("plain sharded run failed");

        let report = telem.report();
        prop_assert_eq!(report.events(), serial.events_processed);
        prop_assert_eq!(observed.finish, serial.finish);
        prop_assert_eq!(observed.finish, plain.finish);
        prop_assert_eq!(&observed.per_rank_finish, &plain.per_rank_finish);
        prop_assert!(report.windows() > 0);
        prop_assert!(report.imbalance() >= 1.0);
    }
}
