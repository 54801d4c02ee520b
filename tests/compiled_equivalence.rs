//! Property check: the compile-once/run-many engine path is
//! **bit-identical** to compiling fresh per run, over randomized
//! dependency DAGs that exercise eager and rendezvous transfers,
//! `MPI_ANY_SOURCE` wildcards, FIFO tag collisions, CE noise, and
//! deadlocks.
//!
//! Three executions of every generated schedule must agree exactly on
//! the full `Result<SimResult, SimError>` — finish times, per-rank
//! accounting, event counts, queue high-water marks, and (for
//! deadlocks) the formatted stuck-op report:
//!
//! 1. `simulate` — the legacy entry point (compiles privately, fresh
//!    scratch);
//! 2. `simulate_compiled` — one shared [`CompiledSchedule`], pooled
//!    per-thread scratch;
//! 3. `simulate_compiled_with` — the same compiled schedule through an
//!    explicitly reused scratch that previously ran a *different*
//!    schedule (state-bleed detector);
//! 4. `simulate_compiled_sharded` — the lookahead-window sharded engine
//!    at shard counts {2, 4, 7}.
//!
//! A structural property additionally checks the flat tables of
//! [`CompiledSchedule`] against a naive per-rank reference built
//! directly from the `Schedule` (the legacy `Simulator::new` layout):
//! kinds round-trip, indegrees equal dependency counts, the root set is
//! rank-major, and the global CSR reproduces the per-rank adjacency in
//! visit order.

use dram_ce_sim::engine::{
    simulate, simulate_compiled, simulate_compiled_sharded, simulate_compiled_with,
    CompiledSchedule, NoNoise, RunScratch,
};
use dram_ce_sim::goal::{OpKind, Rank, Schedule, ScheduleBuilder, Tag};
use dram_ce_sim::model::{LogGopsParams, Span};
use dram_ce_sim::noise::{CeNoise, Scope};
use proptest::prelude::*;

/// One generated schedule element.
#[derive(Clone, Debug)]
enum Item {
    /// Compute on `rank`, optionally chained to its previous op.
    Calc { rank: u32, dur_us: u64, chain: bool },
    /// A matched send/recv pair. `bytes` selects eager vs rendezvous
    /// (the XC40 threshold is 16 KiB); `wildcard` posts the receive as
    /// `MPI_ANY_SOURCE`. Each side optionally chains to its rank's
    /// previous op — unchained receives can match out of program order,
    /// which is exactly the FIFO/wildcard territory worth stressing.
    Msg {
        src: u32,
        dst: u32,
        bytes: u64,
        tag: u32,
        wildcard: bool,
        chain_send: bool,
        chain_recv: bool,
    },
}

fn item(nranks: u32) -> impl Strategy<Value = Item> {
    prop_oneof![
        (0..nranks, 1u64..50, 0u32..2).prop_map(|(rank, dur_us, chain)| Item::Calc {
            rank,
            dur_us,
            chain: chain == 1
        }),
        (
            0..nranks,
            0..nranks,
            prop_oneof![8u64..1024, 20_000u64..100_000], // eager | rendezvous
            0u32..3,
            0u32..8, // wildcard | chain_send | chain_recv bit flags
        )
            .prop_map(move |(src, dst_raw, bytes, tag, flags)| {
                // Distinct destination: shift by 1..n-1 modulo n.
                let dst = (src + 1 + dst_raw % (nranks - 1)) % nranks;
                Item::Msg {
                    src,
                    dst,
                    bytes,
                    tag,
                    wildcard: flags & 1 != 0,
                    chain_send: flags & 2 != 0,
                    chain_recv: flags & 4 != 0,
                }
            }),
    ]
}

/// A random multi-rank DAG: 2–5 ranks, up to 24 elements. Dependencies
/// are within-rank chains (the builder's invariant); cross-rank order
/// comes only from message matching, so generated programs may deadlock
/// — the property compares errors too.
fn schedule() -> impl Strategy<Value = Schedule> {
    (2u32..=5)
        .prop_flat_map(|n| (Just(n), proptest::collection::vec(item(n), 1..24)))
        .prop_map(|(n, items)| {
            let mut b = ScheduleBuilder::new(n as usize);
            let mut last: Vec<Option<dram_ce_sim::goal::OpId>> = vec![None; n as usize];
            for it in items {
                match it {
                    Item::Calc {
                        rank,
                        dur_us,
                        chain,
                    } => {
                        let deps: Vec<_> =
                            last[rank as usize].filter(|_| chain).into_iter().collect();
                        let id = b.calc(Rank(rank), Span::from_us(dur_us), &deps);
                        last[rank as usize] = Some(id);
                    }
                    Item::Msg {
                        src,
                        dst,
                        bytes,
                        tag,
                        wildcard,
                        chain_send,
                        chain_recv,
                    } => {
                        let sdeps: Vec<_> = last[src as usize]
                            .filter(|_| chain_send)
                            .into_iter()
                            .collect();
                        let sid = b.send(Rank(src), Rank(dst), bytes, Tag(tag), &sdeps);
                        last[src as usize] = Some(sid);
                        let rdeps: Vec<_> = last[dst as usize]
                            .filter(|_| chain_recv)
                            .into_iter()
                            .collect();
                        let rsrc = if wildcard { None } else { Some(Rank(src)) };
                        let rid = b.recv(Rank(dst), rsrc, bytes, Tag(tag), &rdeps);
                        last[dst as usize] = Some(rid);
                    }
                }
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Full-result equivalence of the three execution paths, noise-free
    /// and under CE noise, including reused-scratch runs.
    #[test]
    fn compiled_paths_match_legacy(sched in schedule(), seed in 0u64..=u64::MAX) {
        let p = LogGopsParams::xc40();
        let cs = CompiledSchedule::compile(&sched);

        // Noise-free.
        let legacy = simulate(&sched, &p, &mut NoNoise);
        prop_assert_eq!(&legacy, &simulate_compiled(&cs, &p, &mut NoNoise));

        // A scratch pre-dirtied by a different schedule must not bleed.
        let mut scratch = RunScratch::new();
        let mut warm = ScheduleBuilder::new(2);
        let c = warm.calc(Rank(0), Span::from_us(1), &[]);
        warm.send(Rank(0), Rank(1), 64 * 1024, Tag(0), &[c]);
        warm.recv(Rank(1), None, 64 * 1024, Tag(0), &[]);
        let warm_cs = CompiledSchedule::compile(&warm.build());
        simulate_compiled_with(&warm_cs, &p, &mut scratch, &mut NoNoise).unwrap();
        prop_assert_eq!(
            &legacy,
            &simulate_compiled_with(&cs, &p, &mut scratch, &mut NoNoise)
        );

        // Under CE noise: identical seeds → identical streams → results
        // must stay equal across paths (noise consumption is path-free).
        let ranks = sched.num_ranks();
        let mk = || CeNoise::new(ranks, Span::from_ms(1), Span::from_us(50), Scope::AllRanks, seed);
        let legacy_noisy = simulate(&sched, &p, &mut mk());
        prop_assert_eq!(&legacy_noisy, &simulate_compiled(&cs, &p, &mut mk()));
        prop_assert_eq!(
            &legacy_noisy,
            &simulate_compiled_with(&cs, &p, &mut scratch, &mut mk())
        );

        // Sharded execution must agree on the full Result — including
        // deadlock reports — for any shard count. CeNoise draws from
        // per-rank substreams, so shard-local clones consume exactly the
        // streams the serial run would.
        for shards in [2usize, 4, 7] {
            prop_assert_eq!(&legacy, &simulate_compiled_sharded(&cs, &p, shards, &NoNoise));
            prop_assert_eq!(&legacy_noisy, &simulate_compiled_sharded(&cs, &p, shards, &mk()));
        }
    }

    /// Structural equivalence of the flat tables against a naive
    /// per-rank reference built straight from the `Schedule`.
    #[test]
    fn compiled_tables_match_reference(sched in schedule()) {
        let cs = CompiledSchedule::compile(&sched);
        prop_assert_eq!(cs.num_ranks(), sched.num_ranks());
        prop_assert_eq!(cs.total_ops(), sched.total_ops() as u64);

        let mut flat = 0usize;
        let mut roots_ref: Vec<(u32, u32)> = Vec::new();
        for (r, rank) in sched.ranks.iter().enumerate() {
            prop_assert_eq!(cs.ops_on(r as u32), rank.ops.len());
            // Legacy per-rank dependent adjacency, in visit order.
            let mut adj: Vec<Vec<u32>> = vec![Vec::new(); rank.ops.len()];
            for (i, op) in rank.ops.iter().enumerate() {
                for d in &op.deps {
                    adj[d.idx()].push(i as u32);
                }
                if op.deps.is_empty() {
                    roots_ref.push((r as u32, i as u32));
                }
            }
            for (i, op) in rank.ops.iter().enumerate() {
                // Kind round-trip through the dispatch records.
                prop_assert_eq!(cs.op_kind(flat), op.kind);
                prop_assert_eq!(cs.indeg0(flat), op.deps.len() as u32);
                prop_assert_eq!(cs.dependents(flat).collect::<Vec<_>>(), adj[i].clone());
                // Wildcard receives are encoded as the sentinel.
                if let OpKind::Recv { src: None, .. } = op.kind {
                    prop_assert!(cs.op_kind(flat) == op.kind);
                }
                flat += 1;
            }
        }
        prop_assert_eq!(cs.roots(), &roots_ref[..]);
    }
}

/// Equivalence in the desynchronized regime: 1,024 ranks whose compute
/// phases carry per-rank, per-round jitter at picosecond resolution, and
/// whose halo exchanges (near and strided neighbours, eager and
/// rendezvous) never resynchronize them globally. Nearly every event
/// lands at a distinct timestamp, so thousands are queued at once — the
/// regime the small random DAGs above never reach. The serial engine,
/// the legacy entry point and the 4-shard engine must agree.
#[test]
fn desynchronized_ranks_match_across_paths() {
    const RANKS: u32 = 1024;
    const ROUNDS: u32 = 6;
    let mut b = ScheduleBuilder::new(RANKS as usize);
    let mut prev: Vec<Vec<dram_ce_sim::goal::OpId>> = vec![Vec::new(); RANKS as usize];
    for round in 0..ROUNDS {
        let bytes = if round % 2 == 0 { 512 } else { 32 * 1024 };
        let mut next = Vec::with_capacity(RANKS as usize);
        for r in 0..RANKS {
            let h = (u64::from(r) * 2_654_435_761 + u64::from(round) * 40_503) % 1_000_003;
            let jitter = Span::from_ps(1_000_000 + h * 37);
            let c = b.calc(Rank(r), jitter, &prev[r as usize]);
            let mut ops = Vec::with_capacity(4);
            for (k, stride) in [1u32, 37].into_iter().enumerate() {
                let tag = Tag(round * 2 + k as u32);
                let dst = (r + stride) % RANKS;
                let src = (r + RANKS - stride) % RANKS;
                ops.push(b.send(Rank(r), Rank(dst), bytes, tag, &[c]));
                ops.push(b.recv(Rank(r), Some(Rank(src)), bytes, tag, &[c]));
            }
            next.push(vec![b.join(Rank(r), &ops)]);
        }
        prev = next;
    }
    let sched = b.build();
    let cs = CompiledSchedule::compile(&sched);
    let p = LogGopsParams::xc40();
    let serial = simulate_compiled(&cs, &p, &mut NoNoise).expect("schedule completes");
    assert_eq!(serial.ops_executed, cs.total_ops());
    assert_eq!(Ok(&serial), simulate(&sched, &p, &mut NoNoise).as_ref());
    assert_eq!(
        Ok(&serial),
        simulate_compiled_sharded(&cs, &p, 4, &NoNoise).as_ref()
    );
}
