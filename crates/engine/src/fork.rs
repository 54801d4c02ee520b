//! Baseline fork tables: resume noisy replicas from snapshots of the
//! noise-free run instead of simulating their noise-free prefix, and stop
//! simulating them once the rest of their run is the baseline's, shifted
//! in time.
//!
//! A CE detour only stretches an *active* CPU interval (the paper's CE
//! model, and LogGOPSim's noise injection). Up to its first CE arrival a
//! replica therefore repeats the noise-free baseline event for event, and
//! its CE process draws nothing. A [`ForkTable`] records that prefix once
//! per schedule. The table is the one prepared form of a schedule: it
//! owns the [`CompiledSchedule`] and the [`LogGopsParams`] its baseline
//! ran under, so a replica is answered from the table and its noise
//! model alone.
//!
//! * [`ForkTable::build`] runs the baseline under a noise model that
//!   injects nothing and tracks the *horizon*, the latest end of any
//!   non-zero-work CPU interval stretched so far. Between batches it
//!   snapshots the run at up to K completed-op fractions `k/(K+1)`.
//!   `total_ops` is known up front, so this takes a single pass.
//!   [`ForkTable::terminal`] makes a table from a known finish alone.
//! * [`ForkTable::lookup`] answers a replica by its first CE arrival `a`:
//!   [`Fork::Baseline`] when `a` is after the noise-free finish (the
//!   table's terminal entry: every interval of the run ends by then, so
//!   the replica *is* the baseline); else [`Fork::Resume`] from the last
//!   snapshot whose horizon is strictly before `a`; else [`Fork::Cold`].
//! * [`ForkTable::run`] simulates a resumed or cold replica and *rejoins*
//!   the baseline at a later snapshot when it can (below): the fourth
//!   answer. [`ForkTable::resume`] resumes without rejoining.
//! * [`ForkTable::answer`] is the one call for a replica: it looks up
//!   the noise model's first arrival and gives one of the four answers.
//!
//! **Exactness of a resume.** The noise model must leave an interval
//! alone (return `start + work` and change no state) when its work is
//! zero or it ends strictly before the model's first pending arrival.
//! `CeNoise` does: its `stretch` returns early on zero work and draws
//! nothing while the next arrival is after the interval's end. Every
//! interval stretched before a snapshot ends at or before the snapshot's
//! horizon. So a replica whose first arrival is later got exactly the
//! baseline's stretch results up to the snapshot, and its noise model is
//! still in its initial state there. An interval that ends exactly at an
//! arrival takes the detour, hence the strict comparison.
//!
//! **Rejoin.** LogGOPS costs are durations, so the engine commutes with
//! a time shift. Let T be a snapshot's batch time in the baseline, and
//! let a replica finish a batch at T' = T + Δ with the same completed-op
//! count. If the replica's state there is the snapshot's shifted by Δ,
//! and its noise model fires no detour in the shifted rest of the run,
//! then the rest of the replica *is* the rest of the baseline, shifted by
//! Δ. The match needs:
//!
//! * equal `done` bits, indegrees of ops not yet done, per-rank event
//!   counters (the key half of every future event), and message counts;
//! * `max(x, T') == max(x_base, T) + Δ` for every CPU and NIC cursor,
//!   per-rank finish, posted receive's `posted_at` and unexpected
//!   message's `arrived`. A time before the cut only ever enters the
//!   engine through `max` with a later time (the current event time, or
//!   a CPU end at or after it), so its exact value is dead: the clamp
//!   compares what the future can observe;
//! * the same queued `(time + Δ, key, event)` entries and the same match
//!   queue contents, message ids (recorder-only) ignored;
//! * on every rank, [`NoiseModel::next_arrival`] at T' strictly after the
//!   rank's last non-zero-work interval end in the baseline, plus Δ.
//!   Every later interval of the replica is a baseline interval shifted
//!   by Δ, so none of them then ends at or after an arrival ("strictly"
//!   because an interval that ends exactly at an arrival takes the
//!   detour). A model that cannot tell answers `None` and never rejoins.
//!
//! The result is then assembled from the table instead of simulated: a
//! rank with ops left finishes at its baseline finish plus Δ (and one
//! without keeps its finish), busy and useful time add the baseline's
//! rest to the replica's, message counts are the baseline's, and the
//! queue high-water marks are the larger of the replica's and the rest of
//! the baseline's. Every `SimResult` field equals a full run's except
//! `events_processed`, which counts the events the replica dispatched;
//! [`ForkRun::suffix`] holds the baseline events after the snapshot it
//! skipped. Only snapshots in the table are tried, at batch boundaries
//! where the completed-op counts agree.
//!
//! **Layout.** A [`Snapshot`] is a delta against [`RunScratch::reset`],
//! not a clone. It holds the per-rank cursors and counters, `done` as a
//! bitset, indegrees only where they differ from the compiled `indeg0`
//! for ops not yet done, the queued events sorted by key (message
//! arrivals index a list of the live in-flight messages), the non-empty
//! match queues, the run statistics, and the queue high-water marks of
//! the rest of the run. The table also keeps,
//! per rank, the baseline's last busy end and final finish, busy and
//! useful time.
//!
//! **Sizing.** K is sized from a byte budget derived from the schedule's
//! op, edge, rank and root counts ([`ForkTable::budget`]): the run offers
//! [`MAX_SNAPSHOTS`] snapshots, and whenever the kept ones outgrow the
//! budget the one worth least per byte is dropped (see `fit_budget`).
//! The budget is a quarter of the heap the schedule's fully expanded
//! column layout took (33 bytes per op and 4 per edge), whatever layout
//! it is compiled to: a periodic compile keeps the snapshots of the
//! expanded one. A snapshot's size scales with
//! the ranks and the in-flight state, not with the ops, so short, wide
//! jobs get few snapshots out of a small fraction. On the 24 entries of
//! the `fleet_4k` benchmark (seed 1), whose simulated slices would
//! process 8.59M events in full, a sixteenth keeps 50 snapshots in
//! 274 KiB and lets the slices skip 3.76M events; an eighth keeps 80
//! (4.77M skipped) and a quarter 133 in 1,101 KiB (5.18M). A half keeps
//! 224 in 2,337 KiB and adds 8% to the fleet's peak heap, for only
//! 5.29M.

use crate::compile::CompiledSchedule;
use crate::matchq::TagQueue;
use crate::noise::NoiseModel;
use crate::queue::QueueSnapshot;
use crate::record::NullRecorder;
use crate::result::{SimError, SimResult};
use crate::sim::{
    assemble, drive, simulate_compiled, start, with_thread_scratch, Engine, Event, Msg, MsgRef,
    PostedRecv, RunScratch, UnexMsg,
};
use crate::topology::FlatCrossbar;
use cesim_goal::{Rank, Tag};
use cesim_model::{LogGopsParams, Span, Time};
use std::mem::size_of;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Most snapshots a table holds.
pub const MAX_SNAPSHOTS: usize = 16;

/// The snapshot budget is the expanded column heap divided by this.
const BUDGET_DIV: usize = 4;

/// Budget floor: small schedules still get their snapshots.
const MIN_BUDGET: usize = 4 << 10;

/// The answer of [`ForkTable::lookup`] for one replica.
#[derive(Clone, Copy, Debug)]
pub enum Fork<'a> {
    /// No CE reaches the replica: it is the noise-free run, bit for bit.
    Baseline,
    /// Resume from this snapshot ([`ForkTable::run`] or
    /// [`ForkTable::resume`]).
    Resume(&'a Snapshot),
    /// Simulate from the start ([`ForkTable::run`] with no snapshot).
    Cold,
}

/// One compiled schedule and parameter set, with snapshots of their
/// noise-free run, its finish (the terminal entry) and what a rejoining
/// replica needs of the rest of the run. See the module docs.
pub struct ForkTable {
    /// The schedule every replica runs (shared, never copied).
    schedule: Arc<CompiledSchedule>,
    /// The parameters the baseline ran under.
    params: LogGopsParams,
    finish: Time,
    /// Engine events of the whole baseline run.
    events: u64,
    /// Per rank, the baseline's final accounting; empty in a terminal
    /// table.
    ranks: Vec<RankEnd>,
    msgs_delivered: u64,
    control_msgs: u64,
    /// Ascending completed ops, non-decreasing horizons, each strictly
    /// before `finish`.
    snapshots: Vec<Snapshot>,
}

/// One rank at the end of the baseline run.
#[derive(Clone, Copy, Debug)]
struct RankEnd {
    /// End of the rank's last non-zero-work CPU interval.
    last_busy: Time,
    finish: Time,
    busy: Span,
    work: Span,
}

/// A replica run by [`ForkTable::run`].
#[derive(Debug)]
pub struct ForkRun {
    /// Equal to a full run of the replica in every field but
    /// `events_processed`, which counts only the events this run
    /// dispatched.
    pub result: SimResult,
    /// Baseline events before the snapshot the replica resumed from,
    /// which it did not process; `0` if it ran from the start.
    pub prefix: u64,
    /// Baseline events after the snapshot the replica rejoined at, which
    /// it did not process; `0` if it ran to the end.
    pub suffix: u64,
}

impl ForkTable {
    /// A table of `cs` under `params` holding only the terminal entry:
    /// replicas are answered [`Fork::Baseline`] or [`Fork::Cold`].
    /// `finish` must be the noise-free finish of `cs` under `params`.
    pub fn terminal(cs: Arc<CompiledSchedule>, params: &LogGopsParams, finish: Time) -> Self {
        ForkTable {
            schedule: cs,
            params: *params,
            finish,
            events: 0,
            ranks: Vec::new(),
            msgs_delivered: 0,
            control_msgs: 0,
            snapshots: Vec::new(),
        }
    }

    /// Run the noise-free baseline of `cs` under `params`, snapshotting
    /// it on the way. Returns the table and the baseline result, which is
    /// identical to `simulate_compiled(&cs, params, &mut NoNoise)`.
    pub fn build(
        cs: Arc<CompiledSchedule>,
        params: &LogGopsParams,
    ) -> Result<(ForkTable, SimResult), SimError> {
        let budget = Self::budget(&cs);
        let k = MAX_SNAPSHOTS as u64;
        let total = cs.total_ops();
        let (snapshots, ranks, base) = with_thread_scratch(|scratch| {
            let cs = &*cs;
            start(cs, scratch, 0..cs.num_ranks() as u32)?;
            let mut snapshots: Vec<Snapshot> = Vec::new();
            // Index of the next fraction `next / (k + 1)` to snapshot at.
            let mut next = 1;
            let mut horizon = Horizon {
                latest: Time::ZERO,
                last_busy: vec![Time::ZERO; cs.num_ranks()],
            };
            // The queue high-water marks up to the last snapshot. The
            // scratch counts only those of the stretch since, so that
            // each snapshot learns the marks of the rest of the run.
            let mut marks = (0, 0);
            let mut base = drive(
                cs,
                *params,
                &FlatCrossbar,
                scratch,
                NullRecorder,
                &mut horizon,
                |s, h, t, events| {
                    if next > k || s.completed * (k + 1) < next * total {
                        return ControlFlow::Continue(());
                    }
                    while next <= k && s.completed * (k + 1) >= next * total {
                        next += 1;
                    }
                    // The newest snapshot's worth is unknown until the
                    // next one (or the finish) bounds its horizon range.
                    let settled = snapshots.len();
                    fit_budget(&mut snapshots, settled, h.latest, budget);
                    close_stretch(&mut snapshots, &mut marks, s.max_unexpected, s.max_posted);
                    (s.max_unexpected, s.max_posted) = marks;
                    snapshots.push(s.snapshot(cs, params, h.latest, t, events));
                    (s.max_unexpected, s.max_posted) = (0, 0);
                    ControlFlow::Continue(())
                },
            )?;
            close_stretch(
                &mut snapshots,
                &mut marks,
                base.max_unexpected,
                base.max_posted,
            );
            (base.max_unexpected, base.max_posted) = marks;
            snapshots.retain(|s| s.horizon < base.finish);
            let all = snapshots.len();
            fit_budget(&mut snapshots, all, base.finish, budget);
            let ranks = (0..cs.num_ranks())
                .map(|r| RankEnd {
                    last_busy: horizon.last_busy[r],
                    finish: base.per_rank_finish[r],
                    busy: base.per_rank_busy[r],
                    work: base.per_rank_work[r],
                })
                .collect();
            Ok::<_, SimError>((snapshots, ranks, base))
        })?;
        let table = ForkTable {
            schedule: cs,
            params: *params,
            finish: base.finish,
            events: base.events_processed,
            ranks,
            msgs_delivered: base.msgs_delivered,
            control_msgs: base.control_msgs,
            snapshots,
        };
        Ok((table, base))
    }

    /// Byte budget for the snapshots of `cs`: a quarter of the heap of
    /// its expanded column layout, and at least 4 KiB. Snapshots of wide,
    /// short schedules are large next to their heap, and a smaller
    /// fraction leaves them too few to resume or rejoin at (see the
    /// module docs, "Sizing").
    pub fn budget(cs: &CompiledSchedule) -> usize {
        let (ops, deps) = (cs.total_ops() as usize, cs.total_deps() as usize);
        // Per op: class, duration, peer, bytes, tag, indegree and CSR
        // offset columns; per rank and one past the last: a rank offset
        // and a CSR offset; the root list grew by doubling from four.
        let roots = match cs.roots().len() {
            0 => 0,
            n => n.next_power_of_two().max(4),
        };
        let heap = 33 * ops + 4 * deps + 4 * (cs.num_ranks() + 1) + 4 + 8 * roots;
        (heap / BUDGET_DIV).max(MIN_BUDGET)
    }

    /// The compiled schedule every replica runs.
    pub fn schedule(&self) -> &Arc<CompiledSchedule> {
        &self.schedule
    }

    /// The parameters the baseline ran under, and every replica runs
    /// under.
    pub fn params(&self) -> &LogGopsParams {
        &self.params
    }

    /// Answer a replica with `noise`, which must be fresh: `None` when no
    /// CE reaches it, so it is the baseline run, bit for bit; else its run
    /// ([`ForkTable::run`]) from the last snapshot before its first
    /// arrival, or from the start, rejoining the baseline where it can.
    /// The first arrival is the earliest [`NoiseModel::next_arrival`] of
    /// any rank at time zero; a model that cannot tell runs from the
    /// start and never rejoins.
    // Out of line, the replica event loop is compiled once per noise
    // model; inlined into a caller's replica closure, the figures
    // benchmark ran a few percent slower.
    #[inline(never)]
    pub fn answer<N: NoiseModel + ?Sized>(
        &self,
        noise: &mut N,
    ) -> Result<Option<ForkRun>, SimError> {
        let first = (0..self.schedule.num_ranks() as u32).try_fold(Time::MAX, |a, r| {
            Some(a.min(noise.next_arrival(Rank(r), Time::ZERO)?))
        });
        let from = match first.map(|a| self.lookup(a)) {
            Some(Fork::Baseline) => return Ok(None),
            Some(Fork::Resume(snap)) => Some(snap),
            Some(Fork::Cold) | None => None,
        };
        self.run(from, noise).map(Some)
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

    /// Run a replica with `noise` on this thread's pooled scratch: from
    /// snapshot `from` of this table (with the precondition of
    /// [`ForkTable::resume`]) or, with `None`, from the start. At every
    /// later snapshot it reaches, the replica rejoins the baseline if the
    /// rule in the module docs holds, and its result is assembled from
    /// the table instead of simulated. Either way the result equals a
    /// full `simulate_compiled` run with the same noise model, apart from
    /// the event counts (see [`ForkRun`]). `noise` is left as the
    /// replica leaves it at the point it stopped, so its detour counts are
    /// the full run's.
    ///
    /// # Panics
    ///
    /// If `from` was taken from another table's schedule or parameters.
    pub fn run<N: NoiseModel + ?Sized>(
        &self,
        from: Option<&Snapshot>,
        noise: &mut N,
    ) -> Result<ForkRun, SimError> {
        let (cs, params) = (&*self.schedule, &self.params);
        let first = from.map_or(0, |f| {
            self.snapshots
                .partition_point(|s| s.completed <= f.completed)
        });
        let later = &self.snapshots[first..];
        let (result, suffix) = if later.is_empty() {
            let result = match from {
                Some(snap) => self.resume(snap, noise)?,
                None => simulate_compiled(cs, params, noise)?,
            };
            (result, 0)
        } else {
            with_thread_scratch(|scratch| {
                match from {
                    Some(snap) => scratch.resume(cs, params, snap),
                    None => start(cs, scratch, 0..cs.num_ranks() as u32)?,
                }
                let mut next = 0;
                let mut rejoin = None;
                let events = Engine {
                    cs,
                    params: *params,
                    topology: &FlatCrossbar,
                    s: &mut *scratch,
                    rec: NullRecorder,
                }
                .run_until(noise, Time::MAX, |s, noise, t, _| {
                    while later
                        .get(next)
                        .is_some_and(|snap| snap.completed < s.completed)
                    {
                        next += 1;
                    }
                    let Some(snap) = later.get(next).filter(|snap| snap.completed == s.completed)
                    else {
                        return ControlFlow::Continue(());
                    };
                    match self.shift(snap, s, noise, t) {
                        Some(delta) => {
                            rejoin = Some((snap, delta));
                            ControlFlow::Break(())
                        }
                        None => ControlFlow::Continue(()),
                    }
                });
                let noise_events = noise.events_injected();
                Ok(match rejoin {
                    None => (assemble(cs, &[scratch], noise_events, events)?, 0),
                    Some((snap, delta)) => (
                        self.rejoined(scratch, snap, delta, noise_events, events),
                        self.events - snap.events,
                    ),
                })
            })?
        };
        Ok(ForkRun {
            result,
            prefix: from.map_or(0, |f| f.events),
            suffix,
        })
    }

    /// Δ if the replica in `s`, cut after a batch at `t`, is `snap`
    /// shifted by Δ and `noise` fires no detour in the shifted rest of the
    /// baseline (the rejoin rule of the module docs).
    fn shift<N: NoiseModel + ?Sized>(
        &self,
        snap: &Snapshot,
        s: &RunScratch,
        noise: &N,
        t: Time,
    ) -> Option<Span> {
        if t < snap.time
            || s.msgs_delivered != snap.msgs_delivered
            || s.control_msgs != snap.control_msgs
            || s.queue.len() != snap.queue.len()
        {
            return None;
        }
        let delta = t.since(snap.time);
        // What the future can observe of a time: see the module docs.
        let same = |x: Time, base: Time| x.max(t) == base.max(snap.time) + delta;
        for (i, (r, end)) in snap.ranks.iter().zip(&self.ranks).enumerate() {
            let quiet = || {
                noise
                    .next_arrival(Rank(i as u32), t)
                    .is_some_and(|a| a > end.last_busy + delta)
            };
            let ok = s.push_seq[i] == r.push_seq
                && same(s.cpu_free[i], r.cpu_free)
                && same(s.nic_free[i], r.nic_free)
                && same(s.finish[i], r.finish)
                && quiet();
            if !ok {
                return None;
            }
        }
        let mut indeg = snap.indeg.iter().peekable();
        let indeg0 = self.schedule.flat_indeg0(0..self.ranks.len() as u32);
        for (f, (&done, d0)) in s.done.iter().zip(indeg0).enumerate() {
            if done != (snap.done[f / 64] >> (f % 64) & 1 == 1) {
                return None;
            }
            if !done {
                let want = match indeg.next_if(|&&(g, _)| g as usize == f) {
                    Some(&(_, d)) => d,
                    None => d0,
                };
                if s.indeg[f] != want {
                    return None;
                }
            }
        }
        let queued = s.queue.sorted_entries();
        let same_queue = queued
            .iter()
            .zip(snap.queue.entries())
            .all(|(q, (bt, bk, bev))| {
                let (qt, qk, qev) = *q;
                let same_event = match (qev, *bev) {
                    // Equal keys, so equal ranks.
                    (Event::OpReady { op }, Event::OpReady { op: o }) => op == o,
                    (Event::Arrive(m), Event::Arrive(b)) => {
                        s.slab.get(m).same_but_id(&snap.msgs[b.slot as usize])
                    }
                    _ => false,
                };
                qk == bk && qt == bt + delta && same_event
            });
        let same_posted = same_queues(&s.posted, &snap.posted, |a: &PostedRecv, b| {
            (a.op, a.src) == (b.op, b.src) && same(a.posted_at, b.posted_at)
        });
        let same_unexpected = same_queues(&s.unexpected, &snap.unexpected, |a: &UnexMsg, b| {
            (a.src, a.src_op, a.bytes, a.kind) == (b.src, b.src_op, b.bytes, b.kind)
                && same(a.arrived, b.arrived)
        });
        (same_queue && same_posted && same_unexpected).then_some(delta)
    }

    /// The result of a replica that rejoined at `snap` shifted by `delta`,
    /// with `s` its scratch at the cut (see the module docs).
    fn rejoined(
        &self,
        s: &RunScratch,
        snap: &Snapshot,
        delta: Span,
        noise_events: u64,
        events: u64,
    ) -> SimResult {
        let cs = &*self.schedule;
        let per_rank_finish: Vec<Time> = (0..cs.num_ranks())
            .map(|r| {
                let lo = cs.rank_off[r] as usize;
                let ops = lo..lo + cs.ops_on(r as u32);
                if s.done[ops].iter().all(|&d| d) {
                    s.finish[r]
                } else {
                    self.ranks[r].finish + delta
                }
            })
            .collect();
        let (end, cut) = (&self.ranks, &snap.ranks);
        SimResult {
            finish: per_rank_finish.iter().copied().max().unwrap_or(Time::ZERO),
            per_rank_finish,
            per_rank_busy: (0..end.len())
                .map(|r| s.busy[r] + (end[r].busy - cut[r].busy))
                .collect(),
            per_rank_work: (0..end.len())
                .map(|r| s.work[r] + (end[r].work - cut[r].work))
                .collect(),
            ops_executed: cs.total_ops(),
            msgs_delivered: self.msgs_delivered,
            control_msgs: self.control_msgs,
            noise_events,
            max_unexpected: s.max_unexpected.max(snap.rest_max_unexpected),
            max_posted: s.max_posted.max(snap.rest_max_posted),
            events_processed: events,
        }
    }

    /// Run a replica from `snap` to completion with `noise`, on this
    /// thread's pooled scratch. `noise` must be in its initial state and
    /// its first pending arrival strictly after `snap.horizon()` (what
    /// [`ForkTable::lookup`] checks); the result then equals a full
    /// `simulate_compiled` run with the same noise model, except that
    /// `events_processed` omits the [`Snapshot::events`] of the prefix.
    /// It never rejoins the baseline; [`ForkTable::run`] does.
    ///
    /// # Panics
    ///
    /// If `snap` was taken from another table's schedule or parameters.
    pub fn resume<N: NoiseModel + ?Sized>(
        &self,
        snap: &Snapshot,
        noise: &mut N,
    ) -> Result<SimResult, SimError> {
        let cs = &*self.schedule;
        with_thread_scratch(|scratch| {
            scratch.resume(cs, &self.params, snap);
            drive(
                cs,
                self.params,
                &FlatCrossbar,
                scratch,
                NullRecorder,
                noise,
                |_, _, _, _| ControlFlow::Continue(()),
            )
        })
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

/// Whether per-rank match queues hold exactly the entries [`flatten`]
/// listed, in the same FIFO order within each tag, comparing entries with
/// `eq`.
fn same_queues<E>(
    queues: &[TagQueue<E>],
    entries: &[(u32, Tag, E)],
    eq: impl Fn(&E, &E) -> bool,
) -> bool {
    queues.iter().map(TagQueue::len).sum::<usize>() == entries.len()
        && entries
            .chunk_by(|a, b| (a.0, a.1) == (b.0, b.1))
            .all(|run| {
                let (rank, tag) = (run[0].0, run[0].1);
                queues[rank as usize].fifo(tag).is_some_and(|q| {
                    q.len() == run.len() && q.iter().zip(run).all(|(a, (_, _, b))| eq(a, b))
                })
            })
}

/// Close a stretch of the baseline whose queue high-water marks are
/// `(unexpected, posted)`: fold them into the rest-of-run marks of every
/// snapshot taken before it, and into `marks`, the marks of the run so
/// far.
fn close_stretch(
    snaps: &mut [Snapshot],
    marks: &mut (usize, usize),
    unexpected: usize,
    posted: usize,
) {
    for s in snaps.iter_mut() {
        s.rest_max_unexpected = s.rest_max_unexpected.max(unexpected);
        s.rest_max_posted = s.rest_max_posted.max(posted);
    }
    *marks = (marks.0.max(unexpected), marks.1.max(posted));
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
/// the horizon and each rank's last busy end.
struct Horizon {
    latest: Time,
    last_busy: Vec<Time>,
}

impl NoiseModel for Horizon {
    #[inline]
    fn stretch(&mut self, rank: Rank, start: Time, work: Span) -> Time {
        let end = start + work;
        if !work.is_zero() {
            self.latest = self.latest.max(end);
            let last = &mut self.last_busy[rank.idx()];
            *last = (*last).max(end);
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
    /// Timestamp of the batch the baseline had just dispatched.
    time: Time,
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
    /// Queue high-water marks of the rest of the baseline run.
    rest_max_unexpected: usize,
    rest_max_posted: usize,
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
    /// Snapshot this serial (full-range) scratch after a batch at `time`.
    fn snapshot(
        &self,
        cs: &CompiledSchedule,
        params: &LogGopsParams,
        horizon: Time,
        time: Time,
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
        let indeg0 = cs.flat_indeg0(0..cs.num_ranks() as u32);
        for (f, (&d, d0)) in self.done.iter().zip(indeg0).enumerate() {
            if d {
                done[f / 64] |= 1 << (f % 64);
            } else if self.indeg[f] != d0 {
                indeg.push((f as u32, self.indeg[f]));
            }
        }
        let mut msgs = Vec::new();
        let queue = self.queue.snapshot_with(|ev| match ev {
            Event::Arrive(r) => {
                msgs.push(self.slab.get(r));
                let slot = msgs.len() as u32 - 1;
                Event::Arrive(MsgRef::detached(slot))
            }
            ready => ready,
        });
        Snapshot {
            horizon,
            time,
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
            rest_max_unexpected: 0,
            rest_max_posted: 0,
            next_msg_id: self.next_msg_id,
        }
    }

    /// Reset for `cs` and apply `snap`.
    ///
    /// # Panics
    ///
    /// If `snap` was taken from another schedule or parameter set.
    fn resume(&mut self, cs: &CompiledSchedule, params: &LogGopsParams, snap: &Snapshot) {
        assert!(
            snap.uid == cs.uid && snap.params == *params,
            "snapshot belongs to another schedule or parameter set"
        );
        self.reset(cs);
        self.restore(snap);
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
        let (forks, base) = ForkTable::build(Arc::new(steps()), &p).unwrap();
        let cs = forks.schedule();
        assert_eq!(base, simulate_compiled(cs, &p, &mut NoNoise).unwrap());
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
            let quiet = forks.resume(snap, &mut NoNoise).unwrap();
            same_but_events(quiet, &base, snap.events());
            for r in 0..cs.num_ranks() as u32 {
                let ce = || OneCe {
                    rank: Rank(r),
                    at: snap.horizon() + Span::from_ps(1),
                    fired: false,
                };
                let full = simulate_compiled(cs, &p, &mut ce()).unwrap();
                simulate_compiled(&other, &p, &mut NoNoise).unwrap();
                let fork = forks.resume(snap, &mut ce()).unwrap();
                same_but_events(fork, &full, snap.events());
            }
        }
    }

    #[test]
    fn lookup_picks_the_last_snapshot_strictly_before_the_arrival() {
        let p = LogGopsParams::xc40();
        let (forks, base) = ForkTable::build(Arc::new(steps()), &p).unwrap();
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
        // `answer` looks the first arrival up across all ranks: the
        // noise-free replica is the baseline, and a model that cannot
        // tell its arrivals runs from the start.
        assert!(forks.answer(&mut NoNoise).unwrap().is_none());
        let mut ce = OneCe {
            rank: Rank(0),
            at: Time::ZERO,
            fired: false,
        };
        let cold = forks.answer(&mut ce).unwrap().expect("a CE reaches it");
        assert_eq!((cold.prefix, cold.suffix), (0, 0));
        assert!(ce.fired);
        // The terminal-only table answers Baseline or Cold.
        let terminal = ForkTable::terminal(Arc::clone(forks.schedule()), &p, base.finish);
        assert!(matches!(terminal.lookup(base.finish + ps), Fork::Baseline));
        assert!(matches!(terminal.lookup(base.finish), Fork::Cold));
        assert_eq!(terminal.bytes(), 0);
    }

    #[test]
    fn snapshots_ascend_and_fit_the_budget() {
        let p = LogGopsParams::xc40();
        let (forks, base) = ForkTable::build(Arc::new(steps()), &p).unwrap();
        let snaps = forks.snapshots();
        assert!(forks.bytes() <= ForkTable::budget(forks.schedule()));
        assert!(snaps.len() <= MAX_SNAPSHOTS);
        assert!(snaps.iter().all(|s| s.horizon() < base.finish));
        for w in snaps.windows(2) {
            assert!(w[0].horizon() <= w[1].horizon());
            assert!(w[0].events() < w[1].events());
            assert!(w[0].completed < w[1].completed);
        }
    }
}
