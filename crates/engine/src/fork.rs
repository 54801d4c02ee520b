//! Baseline fork tables: resume noisy replicas from snapshots of the
//! noise-free run instead of simulating their noise-free prefix.
//!
//! A CE detour only stretches an *active* CPU interval (the paper's CE
//! model, and LogGOPSim's noise injection). Up to its first CE arrival a
//! replica therefore repeats the noise-free baseline event for event, and
//! its CE process draws nothing. A [`ForkTable`] records that prefix once
//! per schedule:
//!
//! * [`ForkTable::build`] runs the baseline under a noise model that
//!   injects nothing and tracks the *horizon*, the latest end of any
//!   non-zero-work CPU interval stretched so far. Between batches it
//!   snapshots the run at up to K completed-op fractions `k/(K+1)`.
//!   `total_ops` is known up front, so this takes a single pass.
//! * [`ForkTable::lookup`] answers a replica by its first CE arrival `a`:
//!   [`Fork::Baseline`] when `a` is after the noise-free finish (the
//!   table's terminal entry: every interval of the run ends by then, so
//!   the replica *is* the baseline); else [`Fork::Resume`] from the last
//!   snapshot whose horizon is strictly before `a`; else [`Fork::Cold`].
//! * [`resume_compiled`] resets the per-thread [`RunScratch`], applies the
//!   snapshot, and drives the same event loop on with the replica's noise
//!   model.
//!
//! **Exactness.** The noise model must leave an interval alone (return
//! `start + work` and change no state) when its work is zero or it ends
//! strictly before the model's first pending arrival. `CeNoise` does: its
//! `stretch` returns early on zero work and draws nothing while the next
//! arrival is after the interval's end. Every interval stretched before a
//! snapshot ends at or before the snapshot's horizon. So a replica whose
//! first arrival is later got exactly the baseline's stretch results up
//! to the snapshot, and its noise model is still in its initial state
//! there. An interval that ends exactly at an arrival takes the detour,
//! hence the strict comparison.
//!
//! **Layout.** A [`Snapshot`] is a delta against [`RunScratch::reset`],
//! not a clone. It holds the per-rank cursors and counters, `done` as a
//! bitset, indegrees only where they differ from the compiled `indeg0`
//! for ops not yet done, the queued events (message arrivals index a list
//! of the live in-flight messages), the non-empty match queues, and the
//! run statistics. The per-op dispatch plan is not stored: it depends only
//! on the schedule and the parameters.
//!
//! **Sizing.** K is sized from a byte budget derived from the compiled
//! schedule's heap ([`ForkTable::budget`]): the run offers
//! [`MAX_SNAPSHOTS`] snapshots, and whenever the kept ones outgrow the
//! budget the one worth least per byte is dropped (see `fit_budget`).

use crate::compile::CompiledSchedule;
use crate::matchq::TagQueue;
use crate::noise::NoiseModel;
use crate::queue::QueueSnapshot;
use crate::record::NullRecorder;
use crate::result::{SimError, SimResult};
use crate::sim::{
    drive, start, with_thread_scratch, Event, Msg, MsgRef, PostedRecv, RunScratch, UnexMsg,
};
use crate::topology::FlatCrossbar;
use cesim_goal::{Rank, Tag};
use cesim_model::{LogGopsParams, Span, Time};
use std::mem::size_of;

/// Most snapshots a table holds.
pub const MAX_SNAPSHOTS: usize = 16;

/// The snapshot budget is the compiled schedule's heap divided by this.
const BUDGET_DIV: usize = 16;

/// Budget floor: small schedules still get their snapshots.
const MIN_BUDGET: usize = 4 << 10;

/// The answer of [`ForkTable::lookup`] for one replica.
#[derive(Clone, Copy, Debug)]
pub enum Fork<'a> {
    /// No CE reaches the replica: it is the noise-free run, bit for bit.
    Baseline,
    /// Resume from this snapshot with [`resume_compiled`].
    Resume(&'a Snapshot),
    /// Simulate from the start.
    Cold,
}

/// Snapshots of one schedule's noise-free run under one parameter set,
/// plus its finish (the terminal entry). See the module docs.
#[derive(Debug)]
pub struct ForkTable {
    finish: Time,
    /// Ascending completed ops, non-decreasing horizons, each strictly
    /// before `finish`.
    snapshots: Vec<Snapshot>,
}

impl ForkTable {
    /// A table holding only the terminal entry: replicas are answered
    /// [`Fork::Baseline`] or [`Fork::Cold`]. `finish` must be the
    /// noise-free finish of the schedule the replicas run.
    pub fn terminal(finish: Time) -> Self {
        ForkTable {
            finish,
            snapshots: Vec::new(),
        }
    }

    /// Run the noise-free baseline of `cs` under `params`, snapshotting
    /// it on the way. Returns the table and the baseline result, which is
    /// identical to `simulate_compiled(cs, params, &mut NoNoise)`.
    pub fn build(
        cs: &CompiledSchedule,
        params: &LogGopsParams,
    ) -> Result<(ForkTable, SimResult), SimError> {
        let budget = Self::budget(cs);
        let k = MAX_SNAPSHOTS as u64;
        let total = cs.total_ops();
        with_thread_scratch(|scratch| {
            start(cs, params, scratch, 0..cs.num_ranks() as u32, 0)?;
            let mut snapshots: Vec<Snapshot> = Vec::new();
            // Index of the next fraction `next / (k + 1)` to snapshot at.
            let mut next = 1;
            let mut horizon = Horizon(Time::ZERO);
            let base = drive(
                cs,
                *params,
                &FlatCrossbar,
                scratch,
                NullRecorder,
                &mut horizon,
                |s, h, events| {
                    if next > k || s.completed * (k + 1) < next * total {
                        return;
                    }
                    while next <= k && s.completed * (k + 1) >= next * total {
                        next += 1;
                    }
                    // The newest snapshot's worth is unknown until the
                    // next one (or the finish) bounds its horizon range.
                    let settled = snapshots.len();
                    fit_budget(&mut snapshots, settled, h.0, budget);
                    snapshots.push(s.snapshot(cs, params, h.0, events));
                },
            )?;
            snapshots.retain(|s| s.horizon < base.finish);
            let all = snapshots.len();
            fit_budget(&mut snapshots, all, base.finish, budget);
            Ok((
                ForkTable {
                    finish: base.finish,
                    snapshots,
                },
                base,
            ))
        })
    }

    /// Byte budget for the snapshots of `cs`: a sixteenth of its compiled
    /// heap, and at least 4 KiB.
    pub fn budget(cs: &CompiledSchedule) -> usize {
        (cs.heap_bytes() / BUDGET_DIV).max(MIN_BUDGET)
    }

    /// How to run a replica whose noise model's first pending arrival is
    /// `first_arrival` (see the module docs for the rule).
    pub fn lookup(&self, first_arrival: Time) -> Fork<'_> {
        if first_arrival > self.finish {
            return Fork::Baseline;
        }
        let usable = self
            .snapshots
            .partition_point(|s| s.horizon < first_arrival);
        match usable.checked_sub(1) {
            Some(i) => Fork::Resume(&self.snapshots[i]),
            None => Fork::Cold,
        }
    }

    /// The noise-free finish (the terminal entry).
    pub fn finish(&self) -> Time {
        self.finish
    }

    /// The snapshots, in run order.
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.snapshots
    }

    /// Heap bytes the snapshots hold.
    pub fn bytes(&self) -> usize {
        self.snapshots.iter().map(Snapshot::bytes).sum()
    }
}

/// Drop snapshots among the first `settled` of `snaps` until all of them
/// fit in `budget` bytes, or only unsettled ones are left. `end` bounds
/// the horizon range of the last settled snapshot.
///
/// Each time, the one dropped is the snapshot worth least per byte.
/// Without snapshot `i`, replicas whose first arrival falls in
/// `(h[i], h[i+1]]` resume from snapshot `i - 1` instead (or run cold),
/// so with arrivals spread evenly over the run it is worth
/// `(events[i] - events[i-1]) * (h[i+1] - h[i])`. Of a run of snapshots
/// on the same horizon plateau, only the last is worth keeping.
fn fit_budget(snaps: &mut Vec<Snapshot>, mut settled: usize, end: Time, budget: usize) {
    let mut bytes: usize = snaps.iter().map(Snapshot::bytes).sum();
    while bytes > budget && settled > 0 {
        let worth = |i: usize| {
            let prev = i.checked_sub(1).map_or(0, |p| snaps[p].events);
            let next = snaps.get(i + 1).map_or(end, |s| s.horizon);
            let span = next.since(snaps[i].horizon).as_ps() as f64;
            (snaps[i].events - prev) as f64 * span / snaps[i].bytes() as f64
        };
        let drop = (0..settled)
            .min_by(|&a, &b| worth(a).total_cmp(&worth(b)))
            .expect("settled > 0");
        bytes -= snaps.remove(drop).bytes();
        settled -= 1;
    }
}

/// The noise model of the snapshotting baseline: [`crate::NoNoise`] plus
/// the horizon.
struct Horizon(Time);

impl NoiseModel for Horizon {
    #[inline]
    fn stretch(&mut self, _rank: Rank, start: Time, work: Span) -> Time {
        let end = start + work;
        if !work.is_zero() {
            self.0 = self.0.max(end);
        }
        end
    }
}

/// One rank's cursors and counters.
#[derive(Clone, Copy, Debug)]
struct RankState {
    cpu_free: Time,
    nic_free: Time,
    finish: Time,
    busy: Span,
    work: Span,
    push_seq: u32,
}

/// The noise-free run of one schedule between two batches, stored as a
/// delta against a reset scratch (see the module docs).
#[derive(Debug)]
pub struct Snapshot {
    horizon: Time,
    events: u64,
    /// The schedule (`CompiledSchedule::uid`) and parameters it belongs to.
    uid: u64,
    params: LogGopsParams,
    ranks: Vec<RankState>,
    /// Bit `f % 64` of word `f / 64` is set iff flat op `f` is done.
    done: Vec<u64>,
    /// `(flat op, indegree)` of the ops not done whose indegree differs
    /// from `indeg0`.
    indeg: Vec<(u32, u32)>,
    /// Queued events; an arrival's `MsgRef::slot` indexes `msgs`.
    queue: QueueSnapshot<Event>,
    msgs: Vec<Msg>,
    /// `(rank, tag, entry)`, rank-major, FIFO within each tag.
    posted: Vec<(u32, Tag, PostedRecv)>,
    unexpected: Vec<(u32, Tag, UnexMsg)>,
    completed: u64,
    msgs_delivered: u64,
    control_msgs: u64,
    max_unexpected: usize,
    max_posted: usize,
    next_msg_id: u64,
}

impl Snapshot {
    /// Latest end of any non-zero-work CPU interval stretched before the
    /// snapshot.
    pub fn horizon(&self) -> Time {
        self.horizon
    }

    /// Engine events the baseline processed before the snapshot: the
    /// prefix a resumed replica skips.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Heap bytes held, including the struct itself.
    pub fn bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * size_of::<T>()
        }
        size_of::<Snapshot>()
            + bytes(&self.ranks)
            + bytes(&self.done)
            + bytes(&self.indeg)
            + self.queue.heap_bytes()
            + bytes(&self.msgs)
            + bytes(&self.posted)
            + bytes(&self.unexpected)
    }
}

/// `(rank, tag, entry)` for every entry of per-rank match queues.
fn flatten<E: Copy>(queues: &[TagQueue<E>]) -> Vec<(u32, Tag, E)> {
    let mut out = Vec::with_capacity(queues.iter().map(TagQueue::len).sum());
    for (r, q) in queues.iter().enumerate() {
        out.extend(q.iter().map(|(tag, &e)| (r as u32, tag, e)));
    }
    out
}

/// Refill per-rank match queues (already cleared) from [`flatten`]'s list.
fn unflatten<E: Copy>(queues: &mut [TagQueue<E>], entries: &[(u32, Tag, E)]) {
    for rank in entries.chunk_by(|a, b| a.0 == b.0) {
        queues[rank[0].0 as usize].restore(rank.iter().map(|&(_, tag, e)| (tag, e)));
    }
}

impl RunScratch {
    /// Snapshot this serial (full-range) scratch between batches.
    fn snapshot(
        &self,
        cs: &CompiledSchedule,
        params: &LogGopsParams,
        horizon: Time,
        events: u64,
    ) -> Snapshot {
        debug_assert_eq!((self.rank_lo, self.op_base), (0, 0), "serial scratch only");
        let ranks = (0..self.cpu_free.len())
            .map(|i| RankState {
                cpu_free: self.cpu_free[i],
                nic_free: self.nic_free[i],
                finish: self.finish[i],
                busy: self.busy[i],
                work: self.work[i],
                push_seq: self.push_seq[i],
            })
            .collect();
        let mut done = vec![0u64; self.done.len().div_ceil(64)];
        let mut indeg = Vec::new();
        for (f, &d) in self.done.iter().enumerate() {
            if d {
                done[f / 64] |= 1 << (f % 64);
            } else if self.indeg[f] != cs.indeg0[f] {
                indeg.push((f as u32, self.indeg[f]));
            }
        }
        let mut msgs = Vec::new();
        let queue = self.queue.snapshot_with(|ev| match ev {
            Event::Arrive(r) => {
                msgs.push(self.slab.get(r));
                let slot = msgs.len() as u32 - 1;
                Event::Arrive(MsgRef { slot, gen: 0 })
            }
            ready => ready,
        });
        Snapshot {
            horizon,
            events,
            uid: cs.uid,
            params: *params,
            ranks,
            done,
            indeg,
            queue,
            msgs,
            posted: flatten(&self.posted),
            unexpected: flatten(&self.unexpected),
            completed: self.completed,
            msgs_delivered: self.msgs_delivered,
            control_msgs: self.control_msgs,
            max_unexpected: self.max_unexpected,
            max_posted: self.max_posted,
            next_msg_id: self.next_msg_id,
        }
    }

    /// Apply `snap` to this scratch, freshly reset for its schedule.
    fn restore(&mut self, snap: &Snapshot) {
        for (i, r) in snap.ranks.iter().enumerate() {
            self.cpu_free[i] = r.cpu_free;
            self.nic_free[i] = r.nic_free;
            self.finish[i] = r.finish;
            self.busy[i] = r.busy;
            self.work[i] = r.work;
            self.push_seq[i] = r.push_seq;
        }
        for (w, &word) in snap.done.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                self.done[w * 64 + bits.trailing_zeros() as usize] = true;
                bits &= bits - 1;
            }
        }
        for &(f, d) in &snap.indeg {
            self.indeg[f as usize] = d;
        }
        let slab = &mut self.slab;
        self.queue.restore_with(&snap.queue, |ev| match ev {
            Event::Arrive(r) => Event::Arrive(slab.alloc(snap.msgs[r.slot as usize])),
            ready => ready,
        });
        unflatten(&mut self.posted, &snap.posted);
        unflatten(&mut self.unexpected, &snap.unexpected);
        self.completed = snap.completed;
        self.msgs_delivered = snap.msgs_delivered;
        self.control_msgs = snap.control_msgs;
        self.max_unexpected = snap.max_unexpected;
        self.max_posted = snap.max_posted;
        self.next_msg_id = snap.next_msg_id;
    }
}

/// Run a replica of `cs` from `snap` to completion with `noise`, on this
/// thread's pooled scratch. `noise` must be in its initial state and its
/// first pending arrival strictly after `snap.horizon()` (what
/// [`ForkTable::lookup`] checks); the result then equals a full
/// `simulate_compiled` run with the same noise model, except that
/// `events_processed` omits the [`Snapshot::events`] of the prefix.
///
/// # Panics
///
/// If `snap` was taken from another schedule or parameter set.
pub fn resume_compiled<N: NoiseModel + ?Sized>(
    cs: &CompiledSchedule,
    params: &LogGopsParams,
    snap: &Snapshot,
    noise: &mut N,
) -> Result<SimResult, SimError> {
    assert!(
        snap.uid == cs.uid && snap.params == *params,
        "snapshot belongs to another schedule or parameter set"
    );
    with_thread_scratch(|scratch| {
        scratch.reset(cs);
        scratch.plan_dispatch(cs, params);
        scratch.restore(snap);
        drive(
            cs,
            *params,
            &FlatCrossbar,
            scratch,
            NullRecorder,
            noise,
            |_, _, _| {},
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::NoNoise;
    use crate::sim::simulate_compiled;
    use cesim_goal::builder::TagPool;
    use cesim_goal::collectives::{self as coll, CollectiveCosts};
    use cesim_goal::ScheduleBuilder;

    /// Three steps of work, an eager allreduce, and a rendezvous bcast,
    /// on 6 ranks with uneven work: snapshots hold in-flight eager and
    /// rendezvous messages and non-empty match queues.
    fn steps() -> CompiledSchedule {
        let n = 6;
        let mut b = ScheduleBuilder::new(n);
        let mut tags = TagPool::new();
        let costs = CollectiveCosts::default();
        let mut last: Vec<_> = (0..n)
            .map(|r| b.calc(Rank::from(r), Span::from_us(3 + r as u64), &[]))
            .collect();
        for step in 0..3u64 {
            last = coll::allreduce_recursive_doubling(&mut b, &mut tags, 64, &costs, &last);
            last = coll::bcast_binomial(&mut b, &mut tags, Rank(1), 1 << 20, &last);
            last = last
                .iter()
                .enumerate()
                .map(|(r, &op)| b.calc(Rank::from(r), Span::from_us(20 + step * r as u64), &[op]))
                .collect();
        }
        CompiledSchedule::compile(&b.build())
    }

    /// One CE at `at`, taken by the first non-zero-work interval on
    /// `rank` that ends at or after it: first arrival `at`.
    struct OneCe {
        rank: Rank,
        at: Time,
        fired: bool,
    }

    impl NoiseModel for OneCe {
        fn stretch(&mut self, rank: Rank, start: Time, work: Span) -> Time {
            let end = start + work;
            if self.fired || rank != self.rank || work.is_zero() || end < self.at {
                return end;
            }
            self.fired = true;
            end + Span::from_us(7)
        }

        fn events_injected(&self) -> u64 {
            self.fired as u64
        }
    }

    /// Resuming from every snapshot, on a thread scratch that just ran
    /// another schedule, reproduces the full run: noise-free, and with a
    /// CE right after the snapshot's horizon on every rank.
    #[test]
    fn resume_in_a_used_scratch_matches_the_full_run() {
        let p = LogGopsParams::xc40();
        let cs = steps();
        let (forks, base) = ForkTable::build(&cs, &p).unwrap();
        assert_eq!(base, simulate_compiled(&cs, &p, &mut NoNoise).unwrap());
        assert!(
            forks.snapshots().len() >= 2,
            "{} snapshots",
            forks.snapshots().len()
        );
        let other = {
            let mut b = ScheduleBuilder::new(3);
            let mut tags = TagPool::new();
            let e: Vec<_> = (0..3)
                .map(|r| b.calc(Rank(r), Span::from_us(1), &[]))
                .collect();
            coll::allgather_ring(&mut b, &mut tags, 1 << 20, &e);
            CompiledSchedule::compile(&b.build())
        };
        let same_but_events = |fork: SimResult, full: &SimResult, skipped: u64| {
            assert_eq!(fork.events_processed + skipped, full.events_processed);
            let fork = SimResult {
                events_processed: full.events_processed,
                ..fork
            };
            assert_eq!(&fork, full);
        };
        for snap in forks.snapshots() {
            simulate_compiled(&other, &p, &mut NoNoise).unwrap();
            let quiet = resume_compiled(&cs, &p, snap, &mut NoNoise).unwrap();
            same_but_events(quiet, &base, snap.events());
            for r in 0..cs.num_ranks() as u32 {
                let ce = || OneCe {
                    rank: Rank(r),
                    at: snap.horizon() + Span::from_ps(1),
                    fired: false,
                };
                let full = simulate_compiled(&cs, &p, &mut ce()).unwrap();
                simulate_compiled(&other, &p, &mut NoNoise).unwrap();
                let fork = resume_compiled(&cs, &p, snap, &mut ce()).unwrap();
                same_but_events(fork, &full, snap.events());
            }
        }
    }

    #[test]
    fn lookup_picks_the_last_snapshot_strictly_before_the_arrival() {
        let p = LogGopsParams::xc40();
        let cs = steps();
        let (forks, base) = ForkTable::build(&cs, &p).unwrap();
        let ps = Span::from_ps(1);
        assert!(matches!(forks.lookup(base.finish + ps), Fork::Baseline));
        assert!(matches!(forks.lookup(Time::ZERO), Fork::Cold));
        let snaps = forks.snapshots();
        for (i, s) in snaps.iter().enumerate() {
            let after = forks.lookup(s.horizon() + ps);
            let Fork::Resume(got) = after else {
                panic!("snapshot {i}: {after:?}")
            };
            let last_at_horizon = snaps.partition_point(|t| t.horizon() <= s.horizon()) - 1;
            assert!(std::ptr::eq(got, &snaps[last_at_horizon]), "snapshot {i}");
            assert!(!matches!(forks.lookup(s.horizon()), Fork::Resume(t) if std::ptr::eq(t, s)));
        }
        // The terminal-only table answers Baseline or Cold.
        let terminal = ForkTable::terminal(base.finish);
        assert!(matches!(terminal.lookup(base.finish + ps), Fork::Baseline));
        assert!(matches!(terminal.lookup(base.finish), Fork::Cold));
        assert_eq!(terminal.bytes(), 0);
    }

    #[test]
    fn snapshots_ascend_and_fit_the_budget() {
        let p = LogGopsParams::xc40();
        let cs = steps();
        let (forks, base) = ForkTable::build(&cs, &p).unwrap();
        let snaps = forks.snapshots();
        assert!(forks.bytes() <= ForkTable::budget(&cs));
        assert!(snaps.len() <= MAX_SNAPSHOTS);
        assert!(snaps.iter().all(|s| s.horizon() < base.finish));
        for w in snaps.windows(2) {
            assert!(w[0].horizon() <= w[1].horizon());
            assert!(w[0].events() < w[1].events());
            assert!(w[0].completed < w[1].completed);
        }
    }
}
