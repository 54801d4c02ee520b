//! The LogGOPS discrete-event simulation loop.
//!
//! See the crate docs for the cost model. Implementation notes:
//!
//! * Per-rank **CPU** and **NIC** cursors (`cpu_free`, `nic_free`)
//!   serialize overheads; the event queue only carries *op readiness* and
//!   *message arrival* — resource waiting is folded into start-time
//!   computation (`start = max(ready, cpu_free)`), which keeps the event
//!   count at O(ops + messages).
//! * Dispatch and dependency fan-out read the immutable
//!   [`CompiledSchedule`]'s per-op records (one period of ops per rank,
//!   see [`crate::compile`]), built **once** per schedule and shared
//!   across runs; all mutable per-run state lives in a [`RunScratch`]
//!   that is reset in place (no reallocation) between runs.
//! * All CPU intervals pass through the [`NoiseModel`], in non-decreasing
//!   start order per rank.
//! * Rendezvous transfers are three chained messages (RTS → CTS →
//!   payload); RTS matches like a normal message, the payload is routed
//!   directly to the matched receive.

use crate::compile::{CompiledSchedule, ANY_SOURCE, OPC_CALC, OPC_CALC_STEP, OPC_SEND};
use crate::matchq::TagQueue;
use crate::noise::NoiseModel;
use crate::queue::{EvKey, EventQueue};
use crate::record::{MsgClass, NullRecorder, Recorder, SegKind, SimEvent};
use crate::result::{SimError, SimResult};
use crate::topology::{FlatCrossbar, Topology};
use cesim_goal::{Rank, Schedule, Tag};
use cesim_model::{LogGopsParams, Span, Time};
use std::cell::RefCell;
use std::ops::ControlFlow;
use std::sync::Arc;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MsgKind {
    /// Eagerly buffered payload.
    Eager,
    /// Rendezvous request-to-send; `send_op` identifies the sender's op.
    Rts { send_op: u32 },
    /// Rendezvous clear-to-send; echoes the sender's op and names the
    /// matched receive.
    Cts { send_op: u32, recv_op: u32 },
    /// Rendezvous payload, routed directly to the matched receive.
    Payload { recv_op: u32 },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Msg {
    /// Unique id tying a recorder's `MsgSend` to its `MsgDeliver`.
    id: u64,
    src: u32,
    /// Destination rank — the shard router's only lookup.
    pub(crate) dst: u32,
    tag: Tag,
    bytes: u64,
    /// The op on `src` this message serves (recorder attribution; for a
    /// CTS this is the *receive* op answering the RTS).
    src_op: u32,
    kind: MsgKind,
}

impl Msg {
    /// Equal in everything but the id, which only a recorder sees.
    pub(crate) fn same_but_id(&self, other: &Msg) -> bool {
        Msg {
            id: other.id,
            ..*self
        } == *other
    }

    fn class(&self) -> MsgClass {
        match self.kind {
            MsgKind::Eager => MsgClass::Eager,
            MsgKind::Rts { .. } => MsgClass::Rts,
            MsgKind::Cts { .. } => MsgClass::Cts,
            MsgKind::Payload { .. } => MsgClass::Payload,
        }
    }
}

/// Index of an in-flight message in the [`MsgSlab`] arena. Debug builds
/// also carry the slot's generation, which makes stale copies
/// detectable: a ref is valid for exactly one `alloc`-to-`take` lifetime
/// of its slot. Release builds drop it, so an arrival's payload is the
/// 4-byte slot alone and an [`Event`] is 8 bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct MsgRef {
    pub(crate) slot: u32,
    #[cfg(debug_assertions)]
    gen: u32,
}

impl MsgRef {
    /// A ref into a message list outside any slab (a fork snapshot's
    /// own list of in-flight messages).
    pub(crate) fn detached(slot: u32) -> Self {
        MsgRef {
            slot,
            #[cfg(debug_assertions)]
            gen: 0,
        }
    }
}

/// Arena for in-flight messages.
///
/// Between its send-side injection and its arrival dispatch a message
/// used to ride inside the `Event` enum, making every queue entry
/// `Msg`-sized. The slab keeps the one live copy here and hands the
/// queue a 4-byte [`MsgRef`] instead. Slots are recycled through a free
/// list. Debug builds keep a generation per slot that only ever
/// increases, so a ref leaked across [`MsgSlab::reset`] or used after its
/// `take` panics instead of aliasing a later message.
#[derive(Default)]
pub(crate) struct MsgSlab {
    msgs: Vec<Msg>,
    #[cfg(debug_assertions)]
    gens: Vec<u32>,
    free: Vec<u32>,
}

impl MsgSlab {
    /// Park `msg` in the arena until its arrival; returns its ref.
    #[inline]
    pub(crate) fn alloc(&mut self, msg: Msg) -> MsgRef {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.msgs[slot as usize] = msg;
                slot
            }
            None => {
                self.msgs.push(msg);
                #[cfg(debug_assertions)]
                self.gens.push(0);
                self.msgs.len() as u32 - 1
            }
        };
        MsgRef {
            slot,
            #[cfg(debug_assertions)]
            gen: self.gens[slot as usize],
        }
    }

    /// Retire `r` and return its message. In debug builds the slot's
    /// generation is bumped, so `r` (and any copy of it) is dead from
    /// here on.
    #[inline]
    fn take(&mut self, r: MsgRef) -> Msg {
        #[cfg(debug_assertions)]
        assert!(self.is_current(r), "stale MsgRef dereferenced");
        let i = r.slot as usize;
        #[cfg(debug_assertions)]
        {
            self.gens[i] = self.gens[i].wrapping_add(1);
        }
        self.free.push(r.slot);
        self.msgs[i]
    }

    /// The message `r` refers to, leaving it in flight.
    #[inline]
    pub(crate) fn get(&self, r: MsgRef) -> Msg {
        #[cfg(debug_assertions)]
        assert!(self.is_current(r), "stale MsgRef dereferenced");
        self.msgs[r.slot as usize]
    }

    /// Messages currently in flight.
    #[cfg(test)]
    fn live(&self) -> usize {
        self.msgs.len() - self.free.len()
    }

    /// Would `r` still resolve to the message it was issued for?
    #[cfg(debug_assertions)]
    fn is_current(&self, r: MsgRef) -> bool {
        self.gens[r.slot as usize] == r.gen
    }

    /// Reset for a new replica, keeping all allocations: every slot
    /// becomes free, and in debug builds every generation is bumped, so
    /// refs issued before the reset can never alias messages allocated
    /// after it (generations stay monotone across resets).
    fn reset(&mut self) {
        #[cfg(debug_assertions)]
        for g in &mut self.gens {
            *g = g.wrapping_add(1);
        }
        self.free.clear();
        self.free.extend((0..self.msgs.len() as u32).rev());
    }
}

/// A queued event. The rank an `OpReady` runs on is not stored: ops are
/// only ever readied by their own rank (`push_op_ready`, `seed_roots`),
/// so it is the event key's `crank`. In release builds an event is
/// 8 bytes, a radix-bucket entry 24 and an active-run entry 16, both in
/// the live queue and in fork snapshots.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Event {
    OpReady { op: u32 },
    Arrive(MsgRef),
}

// The matching tag is the `TagQueue` bucket key, not repeated in the
// queued records.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PostedRecv {
    pub(crate) op: u32,
    pub(crate) src: Option<u32>,
    pub(crate) posted_at: Time,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum UnexKind {
    Eager,
    Rts { send_op: u32 },
}

#[derive(Clone, Copy, Debug)]
pub(crate) struct UnexMsg {
    /// Message id (recorder attribution, see [`Msg::id`]).
    id: u64,
    pub(crate) src: u32,
    /// Sender-side op (recorder attribution).
    pub(crate) src_op: u32,
    pub(crate) bytes: u64,
    pub(crate) arrived: Time,
    pub(crate) kind: UnexKind,
}

/// All mutable per-run simulation state, reusable across runs.
///
/// The immutable half of a prepared simulation is the
/// [`CompiledSchedule`]; everything the event loop mutates — CPU/NIC
/// cursors, the indegree working copy, done bits, match queues, the
/// event heap, statistics counters — lives here. [`reset`](RunScratch::reset)
/// clears it in O(touched) **without freeing**: vectors keep their
/// capacity, the heap keeps its buffer, and [`TagQueue`]s park drained
/// buckets for reuse, so repeated runs of the same schedule reach a
/// steady state with near-zero allocator traffic.
///
/// [`simulate_compiled`] maintains one scratch per thread automatically;
/// hold one explicitly (via [`RunScratch::new`] +
/// [`simulate_compiled_with`]) to control reuse yourself.
#[derive(Default)]
pub struct RunScratch {
    // Per-rank resource cursors and accounting (indexed by rank minus
    // `rank_lo` — the serial engine owns every rank, so `rank_lo` is 0
    // and the index is the rank itself; a shard owns `[rank_lo, rank_hi)`).
    pub(crate) cpu_free: Vec<Time>,
    pub(crate) nic_free: Vec<Time>,
    pub(crate) finish: Vec<Time>,
    /// CPU-occupied time (useful work + injected detours).
    pub(crate) busy: Vec<Span>,
    /// Useful work requested (busy minus detours).
    pub(crate) work: Vec<Span>,
    /// Per-rank event-creation counters — the `cseq` half of [`EvKey`].
    pub(crate) push_seq: Vec<u32>,
    // Per-op state (indexed by flat op id minus `op_base`).
    pub(crate) indeg: Vec<u32>,
    pub(crate) done: Vec<bool>,
    // Per-rank MPI match queues.
    pub(crate) posted: Vec<TagQueue<PostedRecv>>,
    pub(crate) unexpected: Vec<TagQueue<UnexMsg>>,
    /// In-flight message arena; `Event::Arrive` holds refs into it.
    pub(crate) slab: MsgSlab,
    pub(crate) queue: EventQueue<Event>,
    /// Reused buffer for the batch dispatch loop ([`EventQueue::pop_batch`]).
    pub(crate) batch: Vec<(Time, EvKey, Event)>,
    /// Messages created here but owned by another shard, staged until
    /// the next window boundary. Always empty on the serial path.
    /// (Only `Arrive` events ever cross shards — dependencies are
    /// rank-local, so `OpReady` always lands on the creating shard.)
    pub(crate) outbox: Vec<(Time, EvKey, Msg)>,
    /// First rank this scratch owns (0 on the serial path).
    pub(crate) rank_lo: u32,
    /// One past the last rank this scratch owns.
    pub(crate) rank_hi: u32,
    /// Flat-op offset of `rank_lo` (0 on the serial path).
    pub(crate) op_base: usize,
    // Run statistics.
    pub(crate) completed: u64,
    pub(crate) msgs_delivered: u64,
    pub(crate) control_msgs: u64,
    pub(crate) max_unexpected: usize,
    pub(crate) max_posted: usize,
    pub(crate) next_msg_id: u64,
    /// Next detour id (bumped only when a recorder is enabled, so the
    /// default path never touches it past reset).
    pub(crate) next_detour_id: u64,
}

impl RunScratch {
    /// An empty scratch; sized lazily by the first
    /// [`reset`](RunScratch::reset).
    pub fn new() -> Self {
        RunScratch::default()
    }

    /// Re-initialize for a run of `cs`, retaining every allocation:
    /// vectors are cleared and refilled in place, the event queue keeps
    /// its buffers, and the match queues recycle their bucket `VecDeque`s.
    /// A reset scratch is indistinguishable from a fresh one (event
    /// creation counters restart at zero), which is what keeps reuse
    /// byte-identical to fresh-per-run simulation.
    pub fn reset(&mut self, cs: &CompiledSchedule) {
        self.reset_range(cs, 0, cs.num_ranks() as u32);
    }

    /// [`reset`](RunScratch::reset) restricted to the rank range
    /// `[lo, hi)` — the per-shard form. All per-rank and per-op state is
    /// sized for the owned slice only; `rank_lo`/`op_base` shift global
    /// ids into it.
    pub(crate) fn reset_range(&mut self, cs: &CompiledSchedule, lo: u32, hi: u32) {
        debug_assert!(lo < hi && hi as usize <= cs.num_ranks());
        let nranks = (hi - lo) as usize;
        let op_base = cs.rank_off[lo as usize] as usize;
        let total = cs.rank_off[hi as usize] as usize - op_base;
        self.rank_lo = lo;
        self.rank_hi = hi;
        self.op_base = op_base;
        reset_fill(&mut self.cpu_free, nranks, Time::ZERO);
        reset_fill(&mut self.nic_free, nranks, Time::ZERO);
        reset_fill(&mut self.finish, nranks, Time::ZERO);
        reset_fill(&mut self.busy, nranks, Span::ZERO);
        reset_fill(&mut self.work, nranks, Span::ZERO);
        reset_fill(&mut self.push_seq, nranks, 0);
        self.indeg.clear();
        cs.extend_indeg0(lo..hi, &mut self.indeg);
        reset_fill(&mut self.done, total, false);
        self.posted.resize_with(nranks, TagQueue::new);
        self.unexpected.resize_with(nranks, TagQueue::new);
        for q in &mut self.posted {
            q.clear();
        }
        for q in &mut self.unexpected {
            q.clear();
        }
        self.slab.reset();
        self.queue.clear();
        self.batch.clear();
        self.outbox.clear();
        self.completed = 0;
        self.msgs_delivered = 0;
        self.control_msgs = 0;
        self.max_unexpected = 0;
        self.max_posted = 0;
        self.next_msg_id = 0;
        self.next_detour_id = 0;
    }

    /// Seed the initial ready wavefront: every root op on an owned rank,
    /// in `cs.roots` (rank-major) order, keyed by its own rank's creation
    /// counter. Plain bucket appends (see [`EventQueue::seed`]).
    pub(crate) fn seed_roots(&mut self, cs: &CompiledSchedule) {
        let (lo, hi) = (self.rank_lo, self.rank_hi);
        let push_seq = &mut self.push_seq;
        self.queue.seed(
            cs.roots
                .iter()
                .filter(|&&(rank, _)| rank >= lo && rank < hi)
                .map(|&(rank, op)| {
                    let i = (rank - lo) as usize;
                    let cseq = push_seq[i];
                    push_seq[i] = cseq + 1;
                    (
                        Time::ZERO,
                        EvKey { crank: rank, cseq },
                        Event::OpReady { op },
                    )
                }),
        );
    }

    /// Accept a cross-shard message routed here by the sharded driver:
    /// park it in the local arena and enqueue its arrival under the key
    /// its creator assigned (never re-keyed — the content-computable
    /// key is what keeps the merged pop order serial).
    pub(crate) fn deliver(&mut self, time: Time, key: EvKey, msg: Msg) {
        let r = self.slab.alloc(msg);
        self.queue.push(time, key, Event::Arrive(r));
    }
}

/// Clear + refill a vector in place, keeping its capacity.
fn reset_fill<T: Copy>(v: &mut Vec<T>, n: usize, val: T) {
    v.clear();
    v.resize(n, val);
}

/// A configured simulation, ready to [`run`](Simulator::run).
///
/// Owns an [`Arc`]-shared [`CompiledSchedule`] plus one [`RunScratch`].
/// Generic over a [`Recorder`]; the default [`NullRecorder`] compiles all
/// instrumentation away (see [`crate::record`]). Attach a live recorder
/// with [`Simulator::with_recorder`].
///
/// For many runs of one schedule prefer [`simulate_compiled`] (pooled
/// per-thread scratch) — this type pays a fresh scratch per simulator.
pub struct Simulator<R: Recorder = NullRecorder> {
    cs: Arc<CompiledSchedule>,
    params: LogGopsParams,
    topology: Box<dyn Topology>,
    scratch: RunScratch,
    rec: R,
}

/// Simulate `sched` under `params`, injecting noise from `noise`.
///
/// Convenience wrapper around [`Simulator::new`] + [`Simulator::run`].
pub fn simulate<N: NoiseModel + ?Sized>(
    sched: &Schedule,
    params: &LogGopsParams,
    noise: &mut N,
) -> Result<SimResult, SimError> {
    Simulator::new(sched, *params).run(noise)
}

/// Simulate a [`CompiledSchedule`] under `params`, reusing a per-thread
/// [`RunScratch`] pool — the fast path for replica sweeps: compile once,
/// wrap in an [`Arc`], and call this from every worker. Results are
/// byte-identical to [`simulate`] on the source [`Schedule`].
pub fn simulate_compiled<N: NoiseModel + ?Sized>(
    cs: &CompiledSchedule,
    params: &LogGopsParams,
    noise: &mut N,
) -> Result<SimResult, SimError> {
    with_thread_scratch(|scratch| simulate_compiled_with(cs, params, scratch, noise))
}

thread_local! {
    static SCRATCH: RefCell<RunScratch> = RefCell::new(RunScratch::new());
}

/// Run `f` on this thread's pooled scratch (the one behind
/// [`simulate_compiled`] and the baseline fork entry points).
pub(crate) fn with_thread_scratch<T>(f: impl FnOnce(&mut RunScratch) -> T) -> T {
    SCRATCH.with(|scratch| f(&mut scratch.borrow_mut()))
}

/// [`simulate_compiled`] with caller-managed scratch: resets `scratch`
/// and runs `cs` in it. Reusing one scratch across runs (any mix of
/// schedules and noise seeds) gives results identical to a fresh scratch
/// per run.
pub fn simulate_compiled_with<N: NoiseModel + ?Sized>(
    cs: &CompiledSchedule,
    params: &LogGopsParams,
    scratch: &mut RunScratch,
    noise: &mut N,
) -> Result<SimResult, SimError> {
    run_engine(cs, *params, &FlatCrossbar, scratch, NullRecorder, noise)
}

impl Simulator {
    /// Prepare a simulation of `sched` under `params` (instrumentation
    /// disabled; see [`Simulator::with_recorder`]).
    ///
    /// Thin wrapper over [`CompiledSchedule::compile`] +
    /// [`Simulator::from_compiled`]: compiles the schedule privately and
    /// runs it once.
    pub fn new(sched: &Schedule, params: LogGopsParams) -> Self {
        Simulator::from_compiled(Arc::new(CompiledSchedule::compile(sched)), params)
    }

    /// Prepare a simulation of an already-compiled schedule, sharing the
    /// [`Arc`] instead of recompiling.
    pub fn from_compiled(cs: Arc<CompiledSchedule>, params: LogGopsParams) -> Self {
        Simulator {
            cs,
            params,
            topology: Box::new(FlatCrossbar),
            scratch: RunScratch::new(),
            rec: NullRecorder,
        }
    }
}

impl<R: Recorder> Simulator<R> {
    /// Attach a recorder, enabling instrumentation for this run.
    ///
    /// Pass `&mut recorder` to keep ownership and inspect the recorder
    /// after [`run`](Simulator::run) consumes the simulator.
    pub fn with_recorder<R2: Recorder>(self, rec: R2) -> Simulator<R2> {
        Simulator {
            cs: self.cs,
            params: self.params,
            topology: self.topology,
            scratch: self.scratch,
            rec,
        }
    }

    /// Replace the network topology (default: the paper's flat crossbar).
    /// Only has an effect when `params.hop_latency` is non-zero.
    pub fn with_topology(mut self, topology: Box<dyn Topology>) -> Self {
        self.topology = topology;
        self
    }

    /// Run to completion (or deadlock).
    pub fn run<N: NoiseModel + ?Sized>(mut self, noise: &mut N) -> Result<SimResult, SimError> {
        run_engine(
            &self.cs,
            self.params,
            self.topology.as_ref(),
            &mut self.scratch,
            self.rec,
            noise,
        )
    }
}

/// Run `cs` in `scratch` (reset first) to completion.
pub(crate) fn run_engine<R: Recorder, N: NoiseModel + ?Sized>(
    cs: &CompiledSchedule,
    params: LogGopsParams,
    topology: &dyn Topology,
    scratch: &mut RunScratch,
    rec: R,
    noise: &mut N,
) -> Result<SimResult, SimError> {
    start(cs, scratch, 0..cs.num_ranks() as u32)?;
    drive(cs, params, topology, scratch, rec, noise, |_, _, _, _| {
        ControlFlow::Continue(())
    })
}

/// Prepare `scratch` to run the ranks `ranks` of `cs` from time zero:
/// reset the slice and seed the initial ready wavefront
/// as bucket appends (root keys reproduce the legacy rank-major seeding
/// order: time 0, rank-major `crank`, in-rank `cseq` in root order). The
/// serial engine prepares one full-range slice; each shard of a sharded
/// run prepares its own.
pub(crate) fn start(
    cs: &CompiledSchedule,
    scratch: &mut RunScratch,
    ranks: std::ops::Range<u32>,
) -> Result<(), SimError> {
    if cs.num_ranks() == 0 {
        return Err(SimError::EmptySchedule);
    }
    scratch.reset_range(cs, ranks.start, ranks.end);
    scratch.seed_roots(cs);
    Ok(())
}

/// Drive a prepared `scratch` (see [`start`], or a restored baseline
/// snapshot in [`crate::fork`]) to completion with the batch loop
/// ([`Engine::run_until`] without a bound) and assemble its result.
/// `between` runs after every batch (see [`Engine::run_until`]) and must
/// not end the loop. `SimResult::events_processed` counts only the
/// events this call dispatched.
pub(crate) fn drive<R, N, F>(
    cs: &CompiledSchedule,
    params: LogGopsParams,
    topology: &dyn Topology,
    scratch: &mut RunScratch,
    rec: R,
    noise: &mut N,
    between: F,
) -> Result<SimResult, SimError>
where
    R: Recorder,
    N: NoiseModel + ?Sized,
    F: FnMut(&mut RunScratch, &N, Time, u64) -> ControlFlow<()>,
{
    let events = Engine {
        cs,
        params,
        topology,
        s: scratch,
        rec,
    }
    .run_until(noise, Time::MAX, between);
    assemble(cs, &[scratch], noise.events_injected(), events)
}

/// The result of a finished run from its rank slices (`parts`: one
/// full-range scratch for the serial engine, one per shard in rank order
/// for the sharded one), so results and deadlock reports are
/// byte-identical across shard counts.
pub(crate) fn assemble(
    cs: &CompiledSchedule,
    parts: &[&RunScratch],
    noise_events: u64,
    events_processed: u64,
) -> Result<SimResult, SimError> {
    let completed: u64 = parts.iter().map(|s| s.completed).sum();
    if completed != cs.total_ops() {
        // Up to 8 stuck ops, scanning the slices in rank order.
        let mut stuck_examples = Vec::new();
        'outer: for s in parts {
            for r in s.rank_lo..s.rank_hi {
                let base = cs.rank_off[r as usize] as usize;
                for i in 0..cs.ops_on(r) {
                    let f = base + i - s.op_base;
                    if !s.done[f] {
                        stuck_examples.push(format!(
                            "rank {r} op {i}: {} (unmet deps: {})",
                            cs.op_kind(base + i),
                            s.indeg[f]
                        ));
                        if stuck_examples.len() >= 8 {
                            break 'outer;
                        }
                    }
                }
            }
        }
        return Err(SimError::Deadlock {
            completed,
            total: cs.total_ops(),
            stuck_examples,
        });
    }
    let per_rank_finish: Vec<Time> = parts
        .iter()
        .flat_map(|s| s.finish.iter().copied())
        .collect();
    Ok(SimResult {
        finish: per_rank_finish.iter().copied().max().unwrap_or(Time::ZERO),
        per_rank_finish,
        per_rank_busy: parts.iter().flat_map(|s| s.busy.iter().copied()).collect(),
        per_rank_work: parts.iter().flat_map(|s| s.work.iter().copied()).collect(),
        ops_executed: completed,
        msgs_delivered: parts.iter().map(|s| s.msgs_delivered).sum(),
        control_msgs: parts.iter().map(|s| s.control_msgs).sum(),
        noise_events,
        max_unexpected: parts.iter().map(|s| s.max_unexpected).max().unwrap_or(0),
        max_posted: parts.iter().map(|s| s.max_posted).max().unwrap_or(0),
        events_processed,
    })
}

/// The hot-loop view: immutable compiled schedule + mutable scratch.
pub(crate) struct Engine<'e, R: Recorder> {
    pub(crate) cs: &'e CompiledSchedule,
    pub(crate) params: LogGopsParams,
    pub(crate) topology: &'e dyn Topology,
    pub(crate) s: &'e mut RunScratch,
    pub(crate) rec: R,
}

impl<'e, R: Recorder> Engine<'e, R> {
    /// The batch loop, shared by the serial engine (`wend = Time::MAX`)
    /// and every shard window (`wend = m + L`): dispatch queued events
    /// strictly below `wend`; returns the number dispatched.
    ///
    /// Batched delivery: drain a whole same-timestamp run in one queue
    /// operation, then dispatch it in order. Dispatching an entry can
    /// push events that sort *before* a later batch entry (zero-duration
    /// completions ready dependents at the same timestamp under a lower
    /// creator key), so the queue's head at the active timestamp is
    /// re-checked before every batch entry — the dispatched sequence is
    /// exactly the one repeated `pop` would produce. Pushes are causal,
    /// so later timestamps can never sort first, and interleaved events
    /// share the batch timestamp, so all of them sit below `wend` too.
    /// `between` runs after every batch with the scratch, the noise model,
    /// the batch's timestamp and the events dispatched so far; those are
    /// the only points where the baseline fork table takes snapshots and
    /// a replica may rejoin the baseline. Returning
    /// [`ControlFlow::Break`] ends the loop there.
    pub(crate) fn run_until<N, F>(&mut self, noise: &mut N, wend: Time, mut between: F) -> u64
    where
        N: NoiseModel + ?Sized,
        F: FnMut(&mut RunScratch, &N, Time, u64) -> ControlFlow<()>,
    {
        let mut batch = std::mem::take(&mut self.s.batch);
        let mut events = 0u64;
        while let Some(t) = self.s.queue.peek_time().filter(|&t| t < wend) {
            self.s.queue.pop_batch(&mut batch);
            for &(bt, bkey, bev) in &batch {
                while let Some((qt, qkey)) = self.s.queue.peek_active_min() {
                    if (qt, qkey) >= (bt, bkey) {
                        break;
                    }
                    let (t, key, ev) = self.s.queue.pop().expect("peeked entry exists");
                    events += 1;
                    self.dispatch(noise, key, ev, t);
                }
                events += 1;
                self.dispatch(noise, bkey, bev, bt);
            }
            if between(self.s, noise, t, events).is_break() {
                break;
            }
        }
        self.s.batch = batch;
        events
    }

    /// Process one event popped under `key`.
    #[inline]
    fn dispatch<N: NoiseModel + ?Sized>(&mut self, noise: &mut N, key: EvKey, ev: Event, t: Time) {
        match ev {
            Event::OpReady { op } => self.exec_op(noise, key.crank, op, t),
            Event::Arrive(mref) => {
                let msg = self.s.slab.take(mref);
                self.arrive(noise, msg, t)
            }
        }
    }

    /// Local (owned-slice) index of rank `rank`.
    #[inline]
    fn li(&self, rank: u32) -> usize {
        debug_assert!(rank >= self.s.rank_lo && rank < self.s.rank_hi);
        (rank - self.s.rank_lo) as usize
    }

    /// Local (owned-slice) index of global flat op id `f`.
    #[inline]
    fn lf(&self, f: usize) -> usize {
        f - self.s.op_base
    }

    /// Creating rank `crank`'s next event key (its private monotone
    /// creation counter — the content-computable half of determinism).
    #[inline]
    fn next_key(&mut self, crank: u32) -> EvKey {
        let i = self.li(crank);
        let cseq = self.s.push_seq[i];
        debug_assert!(cseq < u32::MAX, "per-rank event-creation counter overflow");
        self.s.push_seq[i] = cseq + 1;
        EvKey { crank, cseq }
    }

    /// Schedule op readiness at `time`, keyed by the op's own rank (which
    /// is how [`Event::OpReady`] recovers it). Dependencies never cross
    /// ranks, so an `OpReady` is always local to the creating shard.
    #[inline]
    fn push_op_ready(&mut self, rank: u32, time: Time, op: u32) {
        let key = self.next_key(rank);
        self.s.queue.push(time, key, Event::OpReady { op });
    }

    /// Schedule `msg`'s arrival at `time`, keyed by creating rank
    /// `crank`'s next creation counter. Messages for ranks this scratch
    /// owns are parked in the local arena and enqueued; anything else is
    /// staged (as the full `Msg` — the ref would be meaningless in
    /// another slab) in the outbox for the sharded driver to route at
    /// the next window boundary. (The serial engine owns every rank, so
    /// the outbox arm is dead there.)
    #[inline]
    fn push_arrive(&mut self, crank: u32, time: Time, msg: Msg) {
        let key = self.next_key(crank);
        if msg.dst >= self.s.rank_lo && msg.dst < self.s.rank_hi {
            let r = self.s.slab.alloc(msg);
            self.s.queue.push(time, key, Event::Arrive(r));
        } else {
            self.s.outbox.push((time, key, msg));
        }
    }

    /// Next unique message id (ties `MsgSend` to `MsgDeliver` records).
    #[inline]
    fn new_msg_id(&mut self) -> u64 {
        let id = self.s.next_msg_id;
        self.s.next_msg_id += 1;
        id
    }

    /// Record a message injection (recorder enabled only).
    #[inline]
    fn record_send(&mut self, msg: &Msg, inject: Time, arrive: Time) {
        if R::ENABLED {
            self.rec.record(SimEvent::MsgSend {
                id: msg.id,
                src: msg.src,
                dst: msg.dst,
                src_op: msg.src_op,
                class: msg.class(),
                bytes: msg.bytes,
                tag: msg.tag,
                inject,
                arrive,
            });
        }
    }

    /// Record queue depths on `rank` after a match-queue mutation.
    #[inline]
    fn record_queues(&mut self, rank: u32, at: Time) {
        if R::ENABLED {
            self.rec.record(SimEvent::QueueDepth {
                rank,
                at,
                unexpected: self.s.unexpected[self.li(rank)].len() as u32,
                posted: self.s.posted[self.li(rank)].len() as u32,
            });
        }
    }

    /// Per-hop latency surcharge for a `src → dst` message:
    /// `hop_latency · (hops − 1)`.
    #[inline]
    fn wire_extra(&self, src: u32, dst: u32) -> cesim_model::Span {
        if self.params.hop_latency.is_zero() {
            return cesim_model::Span::ZERO;
        }
        let hops = self.topology.hops(Rank(src), Rank(dst));
        self.params.hop_latency * hops.saturating_sub(1) as u64
    }

    /// Occupy `rank`'s CPU with `work` on behalf of `op`, starting no
    /// earlier than `ready`, routing the interval through the noise model
    /// and accounting busy / useful time.
    fn occupy_cpu<N: NoiseModel + ?Sized>(
        &mut self,
        noise: &mut N,
        rank: u32,
        op: u32,
        seg: SegKind,
        ready: Time,
        work: Span,
    ) -> Time {
        let r = self.li(rank);
        let start = ready.max(self.s.cpu_free[r]);
        let end = noise.stretch(Rank(rank), start, work);
        self.s.cpu_free[r] = end;
        self.s.busy[r] += end.since(start);
        self.s.work[r] += work;
        if R::ENABLED {
            self.rec.record(SimEvent::Exec {
                rank,
                op,
                seg,
                start,
                end,
                work,
            });
            let detour = end.since(start).saturating_sub(work);
            if !detour.is_zero() {
                let id = self.s.next_detour_id;
                self.s.next_detour_id += 1;
                // Tail-placement convention: the noise model reports only
                // the stretched end, so place the detour at the segment
                // tail (`start + work .. end`).
                self.rec.record(SimEvent::Detour {
                    id,
                    rank,
                    op,
                    at: start + work,
                    dur: detour,
                });
            }
        }
        end
    }

    fn exec_op<N: NoiseModel + ?Sized>(&mut self, noise: &mut N, rank: u32, op: u32, t: Time) {
        // Table-driven dispatch: one 32-byte record per head/body op,
        // with the op's repetition advancing its tag or duration.
        let (rec, rep) = self.cs.layout[rank as usize].locate(op);
        let o = self.cs.recs[rec];
        match o.opcode {
            OPC_CALC | OPC_CALC_STEP => {
                let dur = if o.opcode == OPC_CALC {
                    Span::from_ps(o.arg)
                } else {
                    self.cs.step_dur(&o, rep)
                };
                let end = self.occupy_cpu(noise, rank, op, SegKind::Calc, t, dur);
                self.complete(rank, op, end);
            }
            OPC_SEND if self.params.is_rendezvous(o.arg) => {
                let dst = o.peer;
                let bytes = o.arg;
                let tag = Tag(o.tag + rep * o.stride);
                // RTS control message; the send op stays open until the
                // CTS returns and the payload is injected.
                let cpu_end =
                    self.occupy_cpu(noise, rank, op, SegKind::Rts, t, self.params.overhead);
                let r = self.li(rank);
                let inject = cpu_end.max(self.s.nic_free[r]);
                self.s.nic_free[r] = inject + self.params.gap;
                let arrive = inject + self.params.latency + self.wire_extra(rank, dst);
                let msg = Msg {
                    id: self.new_msg_id(),
                    src: rank,
                    dst,
                    tag,
                    bytes,
                    src_op: op,
                    kind: MsgKind::Rts { send_op: op },
                };
                self.record_send(&msg, inject, arrive);
                self.push_arrive(rank, arrive, msg);
            }
            OPC_SEND => {
                let dst = o.peer;
                let bytes = o.arg;
                let tag = Tag(o.tag + rep * o.stride);
                let cpu_end = self.occupy_cpu(
                    noise,
                    rank,
                    op,
                    SegKind::SendCpu,
                    t,
                    self.params.cpu_cost(bytes),
                );
                let r = self.li(rank);
                let inject = cpu_end.max(self.s.nic_free[r]);
                self.s.nic_free[r] = inject + self.params.nic_cost(bytes);
                let arrive = inject + self.params.wire_time(bytes) + self.wire_extra(rank, dst);
                let msg = Msg {
                    id: self.new_msg_id(),
                    src: rank,
                    dst,
                    tag,
                    bytes,
                    src_op: op,
                    kind: MsgKind::Eager,
                };
                self.record_send(&msg, inject, arrive);
                self.push_arrive(rank, arrive, msg);
                // Eager sends complete locally once buffered.
                self.complete(rank, op, cpu_end);
            }
            _ => {
                debug_assert_eq!(o.opcode, crate::compile::OPC_RECV);
                let peer = o.peer;
                let tag = Tag(o.tag + rep * o.stride);
                let srcf = (peer != ANY_SOURCE).then_some(peer);
                if let Some(u) = self.take_unexpected(rank, srcf, tag) {
                    if R::ENABLED {
                        self.rec.record(SimEvent::MsgDeliver {
                            id: u.id,
                            src: u.src,
                            dst: rank,
                            src_op: u.src_op,
                            dst_op: op,
                            class: match u.kind {
                                UnexKind::Eager => MsgClass::Eager,
                                UnexKind::Rts { .. } => MsgClass::Rts,
                            },
                            bytes: u.bytes,
                            at: t,
                        });
                        self.record_queues(rank, t);
                    }
                    match u.kind {
                        UnexKind::Eager => self.finish_recv(noise, rank, op, u.arrived, u.bytes, t),
                        UnexKind::Rts { send_op } => self.send_cts(
                            noise,
                            rank,
                            u.src,
                            tag,
                            u.bytes,
                            send_op,
                            op,
                            t.max(u.arrived),
                        ),
                    }
                } else {
                    let r = self.li(rank);
                    let posted = &mut self.s.posted[r];
                    posted.push(
                        tag,
                        PostedRecv {
                            op,
                            src: srcf,
                            posted_at: t,
                        },
                    );
                    self.s.max_posted = self.s.max_posted.max(posted.len());
                    if R::ENABLED {
                        self.rec.record(SimEvent::RecvPosted { rank, op, at: t });
                        self.record_queues(rank, t);
                    }
                }
            }
        }
    }

    fn arrive<N: NoiseModel + ?Sized>(&mut self, noise: &mut N, msg: Msg, t: Time) {
        match msg.kind {
            MsgKind::Eager | MsgKind::Rts { .. } => {
                if matches!(msg.kind, MsgKind::Eager) {
                    self.s.msgs_delivered += 1;
                } else {
                    self.s.control_msgs += 1;
                }
                if let Some(p) = self.take_posted(msg.dst, msg.src, msg.tag) {
                    if R::ENABLED {
                        self.rec.record(SimEvent::MsgDeliver {
                            id: msg.id,
                            src: msg.src,
                            dst: msg.dst,
                            src_op: msg.src_op,
                            dst_op: p.op,
                            class: msg.class(),
                            bytes: msg.bytes,
                            at: t,
                        });
                        self.record_queues(msg.dst, t);
                    }
                    match msg.kind {
                        MsgKind::Eager => {
                            self.finish_recv(noise, msg.dst, p.op, t, msg.bytes, p.posted_at)
                        }
                        MsgKind::Rts { send_op } => self.send_cts(
                            noise, msg.dst, msg.src, msg.tag, msg.bytes, send_op, p.op, t,
                        ),
                        _ => unreachable!(),
                    }
                } else {
                    let kind = match msg.kind {
                        MsgKind::Eager => UnexKind::Eager,
                        MsgKind::Rts { send_op } => UnexKind::Rts { send_op },
                        _ => unreachable!(),
                    };
                    let d = self.li(msg.dst);
                    let unexpected = &mut self.s.unexpected[d];
                    unexpected.push(
                        msg.tag,
                        UnexMsg {
                            id: msg.id,
                            src: msg.src,
                            src_op: msg.src_op,
                            bytes: msg.bytes,
                            arrived: t,
                            kind,
                        },
                    );
                    self.s.max_unexpected = self.s.max_unexpected.max(unexpected.len());
                    self.record_queues(msg.dst, t);
                }
            }
            MsgKind::Cts { send_op, recv_op } => {
                // Back at the original sender: inject the payload.
                self.s.control_msgs += 1;
                if R::ENABLED {
                    self.rec.record(SimEvent::MsgDeliver {
                        id: msg.id,
                        src: msg.src,
                        dst: msg.dst,
                        src_op: msg.src_op,
                        dst_op: send_op,
                        class: MsgClass::Cts,
                        bytes: msg.bytes,
                        at: t,
                    });
                }
                let sender = msg.dst;
                let cpu_end = self.occupy_cpu(
                    noise,
                    sender,
                    send_op,
                    SegKind::RendPayload,
                    t,
                    self.params.cpu_cost(msg.bytes),
                );
                let si = self.li(sender);
                let inject = cpu_end.max(self.s.nic_free[si]);
                self.s.nic_free[si] = inject + self.params.nic_cost(msg.bytes);
                let arrive =
                    inject + self.params.wire_time(msg.bytes) + self.wire_extra(sender, msg.src);
                let payload = Msg {
                    id: self.new_msg_id(),
                    src: sender,
                    dst: msg.src,
                    tag: msg.tag,
                    bytes: msg.bytes,
                    src_op: send_op,
                    kind: MsgKind::Payload { recv_op },
                };
                self.record_send(&payload, inject, arrive);
                self.push_arrive(sender, arrive, payload);
                self.complete(sender, send_op, cpu_end);
            }
            MsgKind::Payload { recv_op } => {
                self.s.msgs_delivered += 1;
                if R::ENABLED {
                    self.rec.record(SimEvent::MsgDeliver {
                        id: msg.id,
                        src: msg.src,
                        dst: msg.dst,
                        src_op: msg.src_op,
                        dst_op: recv_op,
                        class: MsgClass::Payload,
                        bytes: msg.bytes,
                        at: t,
                    });
                }
                self.finish_recv(noise, msg.dst, recv_op, t, msg.bytes, t);
            }
        }
    }

    /// Complete a receive once its message is available at `avail`.
    #[allow(clippy::too_many_arguments)]
    fn finish_recv<N: NoiseModel + ?Sized>(
        &mut self,
        noise: &mut N,
        rank: u32,
        op: u32,
        avail: Time,
        bytes: u64,
        posted_at: Time,
    ) {
        let ready = avail.max(posted_at);
        let end = self.occupy_cpu(
            noise,
            rank,
            op,
            SegKind::RecvCpu,
            ready,
            self.params.cpu_cost(bytes),
        );
        self.complete(rank, op, end);
    }

    /// Receiver side of rendezvous: answer an RTS with a CTS.
    #[allow(clippy::too_many_arguments)]
    fn send_cts<N: NoiseModel + ?Sized>(
        &mut self,
        noise: &mut N,
        rank: u32,
        sender: u32,
        tag: Tag,
        payload_bytes: u64,
        send_op: u32,
        recv_op: u32,
        t: Time,
    ) {
        let cpu_end = self.occupy_cpu(
            noise,
            rank,
            recv_op,
            SegKind::CtsReply,
            t,
            self.params.overhead,
        );
        let r = self.li(rank);
        let inject = cpu_end.max(self.s.nic_free[r]);
        self.s.nic_free[r] = inject + self.params.gap;
        let arrive = inject + self.params.latency + self.wire_extra(rank, sender);
        let msg = Msg {
            id: self.new_msg_id(),
            src: rank,
            dst: sender,
            tag,
            bytes: payload_bytes,
            src_op: recv_op,
            kind: MsgKind::Cts { send_op, recv_op },
        };
        self.record_send(&msg, inject, arrive);
        self.push_arrive(rank, arrive, msg);
    }

    /// First posted receive at `dst` matching `(src, tag)`, FIFO order.
    ///
    /// Tag match is exact, so only `tag`'s bucket needs scanning; the
    /// `src == None` wildcard on a posted receive is handled in the
    /// predicate (see [`TagQueue::take_first`] for the order argument).
    fn take_posted(&mut self, dst: u32, src: u32, tag: Tag) -> Option<PostedRecv> {
        let d = self.li(dst);
        self.s.posted[d].take_first(tag, |p| p.src.is_none() || p.src == Some(src))
    }

    /// First unexpected message at `rank` matching the receive's filter.
    fn take_unexpected(&mut self, rank: u32, srcf: Option<u32>, tag: Tag) -> Option<UnexMsg> {
        let r = self.li(rank);
        self.s.unexpected[r].take_first(tag, |u| srcf.is_none() || srcf == Some(u.src))
    }

    fn complete(&mut self, rank: u32, op: u32, t: Time) {
        let f = self.cs.flat(rank, op);
        let fl = self.lf(f);
        debug_assert!(!self.s.done[fl], "op completed twice");
        self.s.done[fl] = true;
        let ri = self.li(rank);
        let finish = &mut self.s.finish[ri];
        *finish = (*finish).max(t);
        self.s.completed += 1;
        if R::ENABLED {
            self.rec.record(SimEvent::OpDone { rank, op, at: t });
        }
        // Dependency fan-out: targets are rank-local op ids of the
        // record's first repetition (deps never cross ranks), shifted to
        // this op's repetition; one past the rank's last op leaves the
        // schedule (see `crate::compile`).
        let cs = self.cs;
        let base = cs.rank_off[rank as usize] as usize - self.s.op_base;
        let l = cs.layout[rank as usize];
        let (rec, rep) = l.locate(op);
        let o = cs.recs[rec];
        let shift = rep * l.body;
        let lo = o.dep_lo as usize;
        for &d in &cs.dep_tgt[lo..lo + o.dep_cnt as usize] {
            let d = d + shift;
            if d >= l.len {
                continue;
            }
            let indeg = &mut self.s.indeg[base + d as usize];
            *indeg -= 1;
            if *indeg == 0 {
                if R::ENABLED {
                    self.rec.record(SimEvent::DepEdge {
                        rank,
                        from: op,
                        to: d,
                        at: t,
                    });
                }
                self.push_op_ready(rank, t, d);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::{NoNoise, ScriptedNoise};
    use cesim_goal::{Rank, ScheduleBuilder, Tag};
    use cesim_model::Span;

    fn xc40() -> LogGopsParams {
        LogGopsParams::xc40()
    }

    #[test]
    fn single_calc() {
        let mut b = ScheduleBuilder::new(1);
        b.calc(Rank(0), Span::from_us(5), &[]);
        let s = b.build();
        let r = simulate(&s, &xc40(), &mut NoNoise).unwrap();
        assert_eq!(r.finish, Time::ZERO + Span::from_us(5));
        assert_eq!(r.ops_executed, 1);
        assert_eq!(r.msgs_delivered, 0);
    }

    #[test]
    fn chained_calcs_serialize() {
        let mut b = ScheduleBuilder::new(1);
        let a = b.calc(Rank(0), Span::from_us(2), &[]);
        b.calc(Rank(0), Span::from_us(3), &[a]);
        // Independent op with no deps still serializes on the CPU.
        b.calc(Rank(0), Span::from_us(4), &[]);
        let s = b.build();
        let r = simulate(&s, &xc40(), &mut NoNoise).unwrap();
        assert_eq!(r.finish, Time::ZERO + Span::from_us(9));
    }

    /// Analytic check of the eager path:
    /// receiver finishes at (o + bO) + (L + bG) + (o + bO).
    #[test]
    fn eager_ping_analytic() {
        let p = xc40();
        let bytes = 8u64;
        let mut b = ScheduleBuilder::new(2);
        b.send(Rank(0), Rank(1), bytes, Tag(1), &[]);
        b.recv(Rank(1), Some(Rank(0)), bytes, Tag(1), &[]);
        let s = b.build();
        let r = simulate(&s, &p, &mut NoNoise).unwrap();
        let expect = Time::ZERO
            + p.cpu_cost(bytes) // sender o + bO
            + p.wire_time(bytes) // L + bG
            + p.cpu_cost(bytes); // receiver o + bO
        assert_eq!(r.per_rank_finish[1], expect);
        assert_eq!(r.per_rank_finish[0], Time::ZERO + p.cpu_cost(bytes));
        assert_eq!(r.msgs_delivered, 1);
        assert_eq!(r.control_msgs, 0);
    }

    /// Analytic check of the rendezvous path:
    /// RTS(o, L) → CTS(o, L) → payload(o+bO, L+bG, o+bO).
    #[test]
    fn rendezvous_ping_analytic() {
        let p = xc40();
        let bytes = 32 * 1024u64; // > 16 KiB threshold
        assert!(p.is_rendezvous(bytes));
        let mut b = ScheduleBuilder::new(2);
        b.send(Rank(0), Rank(1), bytes, Tag(1), &[]);
        b.recv(Rank(1), Some(Rank(0)), bytes, Tag(1), &[]);
        let s = b.build();
        let r = simulate(&s, &p, &mut NoNoise).unwrap();

        let rts_at_recv = Time::ZERO + p.overhead + p.latency;
        let cts_at_sender = rts_at_recv + p.overhead + p.latency;
        let sender_done = cts_at_sender + p.cpu_cost(bytes);
        let payload_at_recv = sender_done + p.wire_time(bytes);
        let recv_done = payload_at_recv + p.cpu_cost(bytes);

        assert_eq!(r.per_rank_finish[0], sender_done);
        assert_eq!(r.per_rank_finish[1], recv_done);
        assert_eq!(r.msgs_delivered, 1);
        assert_eq!(r.control_msgs, 2);
    }

    /// Rendezvous where the send starts before the recv is posted: the RTS
    /// sits in the unexpected queue until the receiver posts.
    #[test]
    fn rendezvous_late_recv() {
        let p = xc40();
        let bytes = 64 * 1024u64;
        let delay = Span::from_ms(1);
        let mut b = ScheduleBuilder::new(2);
        b.send(Rank(0), Rank(1), bytes, Tag(1), &[]);
        let c = b.calc(Rank(1), delay, &[]);
        b.recv(Rank(1), Some(Rank(0)), bytes, Tag(1), &[c]);
        let s = b.build();
        let r = simulate(&s, &p, &mut NoNoise).unwrap();
        // CTS leaves the receiver only after its delay calc.
        let cts_at_sender = Time::ZERO + delay + p.overhead + p.latency;
        let sender_done = cts_at_sender + p.cpu_cost(bytes);
        assert_eq!(r.per_rank_finish[0], sender_done);
        assert_eq!(r.max_unexpected, 1);
    }

    #[test]
    fn unexpected_eager_message() {
        let p = xc40();
        let mut b = ScheduleBuilder::new(2);
        b.send(Rank(0), Rank(1), 8, Tag(1), &[]);
        let c = b.calc(Rank(1), Span::from_ms(2), &[]);
        b.recv(Rank(1), Some(Rank(0)), 8, Tag(1), &[c]);
        let s = b.build();
        let r = simulate(&s, &p, &mut NoNoise).unwrap();
        // Message arrived long before the recv posted; recv completes right
        // after the calc plus processing overhead.
        let expect = Time::ZERO + Span::from_ms(2) + p.cpu_cost(8);
        assert_eq!(r.per_rank_finish[1], expect);
        assert_eq!(r.max_unexpected, 1);
    }

    #[test]
    fn any_source_matches_first_arrival() {
        let p = xc40();
        let mut b = ScheduleBuilder::new(3);
        // Rank 1 sends immediately; rank 0 sends after a long calc.
        let c = b.calc(Rank(0), Span::from_ms(5), &[]);
        b.send(Rank(0), Rank(2), 8, Tag(1), &[c]);
        b.send(Rank(1), Rank(2), 8, Tag(1), &[]);
        let r1 = b.recv(Rank(2), None, 8, Tag(1), &[]);
        b.recv(Rank(2), None, 8, Tag(1), &[r1]);
        let s = b.build();
        let r = simulate(&s, &p, &mut NoNoise).unwrap();
        // First recv completes well before rank 0's message exists.
        assert!(r.per_rank_finish[2] > Time::ZERO + Span::from_ms(5));
        assert_eq!(r.msgs_delivered, 2);
    }

    #[test]
    fn fifo_matching_same_src_tag() {
        let p = xc40();
        let mut b = ScheduleBuilder::new(2);
        let s1 = b.send(Rank(0), Rank(1), 100, Tag(1), &[]);
        b.send(Rank(0), Rank(1), 200, Tag(1), &[s1]);
        let r1 = b.recv(Rank(1), Some(Rank(0)), 100, Tag(1), &[]);
        b.recv(Rank(1), Some(Rank(0)), 200, Tag(1), &[r1]);
        let s = b.build();
        // Must complete without deadlock; FIFO keeps pairs aligned.
        let r = simulate(&s, &p, &mut NoNoise).unwrap();
        assert_eq!(r.msgs_delivered, 2);
    }

    #[test]
    fn nic_gap_serializes_injections() {
        let p = xc40();
        let bytes = 1024u64;
        // Two sends back-to-back: second arrival is delayed by max(cpu, gap)
        // serialization.
        let mut b = ScheduleBuilder::new(2);
        let s1 = b.send(Rank(0), Rank(1), bytes, Tag(1), &[]);
        b.send(Rank(0), Rank(1), bytes, Tag(2), &[s1]);
        let r1 = b.recv(Rank(1), Some(Rank(0)), bytes, Tag(1), &[]);
        b.recv(Rank(1), Some(Rank(0)), bytes, Tag(2), &[r1]);
        let s = b.build();
        let r = simulate(&s, &p, &mut NoNoise).unwrap();
        // Sender CPU: two cpu_cost intervals; second injection must wait
        // for NIC: inject2 = max(2*cpu_cost, inject1 + nic_cost).
        let cpu = p.cpu_cost(bytes);
        let inject1 = Time::ZERO + cpu;
        let inject2 = (inject1 + cpu).max(inject1 + p.nic_cost(bytes));
        let arrive2 = inject2 + p.wire_time(bytes);
        let expect = arrive2 + p.cpu_cost(bytes);
        assert_eq!(r.per_rank_finish[1], expect);
    }

    #[test]
    fn deadlock_detected() {
        let mut b = ScheduleBuilder::new(2);
        b.recv(Rank(1), Some(Rank(0)), 8, Tag(1), &[]);
        let s = b.build();
        let e = simulate(&s, &xc40(), &mut NoNoise).unwrap_err();
        match e {
            SimError::Deadlock {
                completed,
                total,
                stuck_examples,
            } => {
                assert_eq!(completed, 0);
                assert_eq!(total, 1);
                assert!(stuck_examples[0].contains("recv"));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn empty_schedule_rejected() {
        let s = Schedule::default();
        assert_eq!(
            simulate(&s, &xc40(), &mut NoNoise).unwrap_err(),
            SimError::EmptySchedule
        );
    }

    /// The Fig. 1 scenario: three ranks chained by two messages; a detour
    /// on rank 0 delays rank 2, which rank 0 never talks to.
    #[test]
    fn fig1_delay_propagates_transitively() {
        let p = xc40();
        let work = Span::from_us(100);
        let build = || {
            let mut b = ScheduleBuilder::new(3);
            let c0 = b.calc(Rank(0), work, &[]);
            b.send(Rank(0), Rank(1), 8, Tag(1), &[c0]);
            let r1 = b.recv(Rank(1), Some(Rank(0)), 8, Tag(1), &[]);
            let c1 = b.calc(Rank(1), work, &[r1]);
            b.send(Rank(1), Rank(2), 8, Tag(2), &[c1]);
            let r2 = b.recv(Rank(2), Some(Rank(1)), 8, Tag(2), &[]);
            b.calc(Rank(2), work, &[r2]);
            b.build()
        };
        let base = simulate(&build(), &p, &mut NoNoise).unwrap();
        let detour = Span::from_ms(10);
        let mut noise = ScriptedNoise::new(vec![(Rank(0), Time::ZERO, detour)]);
        let pert = simulate(&build(), &p, &mut noise).unwrap();
        assert_eq!(pert.noise_events, 1);
        // Rank 2's finish shifts by exactly the rank-0 detour.
        assert_eq!(pert.per_rank_finish[2], base.per_rank_finish[2] + detour);
        assert_eq!(pert.finish, base.finish + detour);
    }

    #[test]
    fn noise_on_uninvolved_rank_is_harmless() {
        let p = xc40();
        let build = || {
            let mut b = ScheduleBuilder::new(3);
            b.send(Rank(0), Rank(1), 8, Tag(1), &[]);
            b.recv(Rank(1), Some(Rank(0)), 8, Tag(1), &[]);
            b.calc(Rank(2), Span::from_us(1), &[]);
            b.build()
        };
        let base = simulate(&build(), &p, &mut NoNoise).unwrap();
        // A detour on rank 2 smaller than the communication time of ranks
        // 0/1 does not move the app finish time.
        let mut noise = ScriptedNoise::new(vec![(Rank(2), Time::ZERO, Span::from_ns(10))]);
        let pert = simulate(&build(), &p, &mut noise).unwrap();
        assert_eq!(pert.finish, base.finish);
    }

    #[test]
    fn determinism_same_inputs_same_result() {
        let mut b = ScheduleBuilder::new(4);
        let mut tags = cesim_goal::builder::TagPool::new();
        let entry: Vec<_> = (0..4)
            .map(|r| b.calc(Rank::from(r), Span::from_us(3), &[]))
            .collect();
        cesim_goal::collectives::allreduce_recursive_doubling(
            &mut b,
            &mut tags,
            64,
            &cesim_goal::collectives::CollectiveCosts::default(),
            &entry,
        );
        let s = b.build();
        let r1 = simulate(&s, &xc40(), &mut NoNoise).unwrap();
        let r2 = simulate(&s, &xc40(), &mut NoNoise).unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn collective_schedules_complete() {
        use cesim_goal::builder::TagPool;
        use cesim_goal::collectives as coll;
        for n in [2usize, 3, 5, 8, 13] {
            let mut b = ScheduleBuilder::new(n);
            let mut tags = TagPool::new();
            let entry: Vec<_> = (0..n)
                .map(|r| b.calc(Rank::from(r), Span::from_us(1), &[]))
                .collect();
            let e1 = coll::barrier_dissemination(&mut b, &mut tags, &entry);
            let e2 = coll::allreduce_recursive_doubling(
                &mut b,
                &mut tags,
                8,
                &coll::CollectiveCosts::default(),
                &e1,
            );
            let e3 = coll::bcast_binomial(&mut b, &mut tags, Rank(1 % n as u32), 1 << 20, &e2);
            let e4 = coll::reduce_binomial(
                &mut b,
                &mut tags,
                Rank(0),
                4096,
                &coll::CollectiveCosts::default(),
                &e3,
            );
            let e5 = coll::allgather_ring(&mut b, &mut tags, 256, &e4);
            coll::alltoall_pairwise(&mut b, &mut tags, 64, &e5);
            let s = b.build();
            s.validate().unwrap();
            let r = simulate(&s, &xc40(), &mut NoNoise).unwrap();
            assert!(r.finish > Time::ZERO, "n = {n}");
        }
    }

    #[test]
    fn rendezvous_inside_collective_completes() {
        use cesim_goal::builder::TagPool;
        use cesim_goal::collectives as coll;
        let n = 6;
        let mut b = ScheduleBuilder::new(n);
        let mut tags = TagPool::new();
        let entry: Vec<_> = (0..n)
            .map(|r| b.calc(Rank::from(r), Span::ZERO, &[]))
            .collect();
        // 1 MiB payload: forces the rendezvous path inside the collective.
        coll::allreduce_recursive_doubling(
            &mut b,
            &mut tags,
            1 << 20,
            &coll::CollectiveCosts::default(),
            &entry,
        );
        let s = b.build();
        let r = simulate(&s, &xc40(), &mut NoNoise).unwrap();
        assert!(r.control_msgs > 0);
        assert_eq!(r.ops_executed, s.total_ops() as u64);
    }

    #[test]
    fn topology_hop_latency_delays_distant_pairs() {
        use crate::topology::{FlatCrossbar, Torus3D};
        let hop = Span::from_us(1);
        let p = xc40().with_hop_latency(hop);
        // A 4x4x4 torus: rank 0 -> 1 is adjacent; rank 0 -> 42 ([2,2,2])
        // is 6 hops away.
        let ping = |dst: u32| {
            let mut b = ScheduleBuilder::new(64);
            b.send(Rank(0), Rank(dst), 8, Tag(1), &[]);
            b.recv(Rank(dst), Some(Rank(0)), 8, Tag(1), &[]);
            b.build()
        };
        let run = |dst: u32| {
            Simulator::new(&ping(dst), p)
                .with_topology(Box::new(Torus3D::new([4, 4, 4])))
                .run(&mut NoNoise)
                .unwrap()
                .per_rank_finish[dst as usize]
        };
        let near = run(1);
        let far = run(42);
        assert_eq!(far.since(Time::ZERO) - near.since(Time::ZERO), hop * 5);
        // Flat topology (or zero hop latency) reproduces the default.
        let base = simulate(&ping(42), &xc40(), &mut NoNoise).unwrap();
        let flat = Simulator::new(&ping(42), xc40())
            .with_topology(Box::new(FlatCrossbar))
            .run(&mut NoNoise)
            .unwrap();
        assert_eq!(base, flat);
        let torus_no_hop = Simulator::new(&ping(42), xc40())
            .with_topology(Box::new(Torus3D::new([4, 4, 4])))
            .run(&mut NoNoise)
            .unwrap();
        assert_eq!(base, torus_no_hop);
    }

    #[test]
    fn rendezvous_pays_hop_latency_on_all_three_messages() {
        use crate::topology::Dragonfly;
        let hop = Span::from_us(10);
        let p = xc40().with_hop_latency(hop);
        let bytes = 64 * 1024u64;
        let build = || {
            let mut b = ScheduleBuilder::new(32);
            b.send(Rank(0), Rank(31), bytes, Tag(1), &[]);
            b.recv(Rank(31), Some(Rank(0)), bytes, Tag(1), &[]);
            b.build()
        };
        let flat = simulate(&build(), &xc40(), &mut NoNoise).unwrap();
        let df = Simulator::new(&build(), p)
            .with_topology(Box::new(Dragonfly::new(16)))
            .run(&mut NoNoise)
            .unwrap();
        // Ranks 0 and 31 are in different groups: 3 hops, surcharge
        // 2 * hop per message, RTS + CTS + payload = 3 messages.
        assert_eq!(
            df.per_rank_finish[31].since(Time::ZERO) - flat.per_rank_finish[31].since(Time::ZERO),
            hop * 2 * 3
        );
    }

    #[test]
    fn busy_work_accounting() {
        let p = xc40();
        let bytes = 8u64;
        let build = || {
            let mut b = ScheduleBuilder::new(2);
            let c = b.calc(Rank(0), Span::from_us(10), &[]);
            b.send(Rank(0), Rank(1), bytes, Tag(1), &[c]);
            b.recv(Rank(1), Some(Rank(0)), bytes, Tag(1), &[]);
            b.build()
        };
        // Without noise: busy == work on both ranks; rank 1 is blocked
        // while the message is in flight.
        let r = simulate(&build(), &p, &mut NoNoise).unwrap();
        assert_eq!(r.per_rank_busy, r.per_rank_work);
        assert_eq!(r.total_stolen(), Span::ZERO);
        assert_eq!(r.per_rank_work[0], Span::from_us(10) + p.cpu_cost(bytes));
        assert_eq!(r.per_rank_work[1], p.cpu_cost(bytes));
        assert!(r.blocked_time(1).unwrap() > Span::ZERO);
        assert_eq!(r.blocked_time(99), None);
        // With one scripted detour on rank 0: exactly that much stolen.
        let d = Span::from_ms(3);
        let mut noise = ScriptedNoise::new(vec![(Rank(0), Time::ZERO, d)]);
        let rn = simulate(&build(), &p, &mut noise).unwrap();
        assert_eq!(rn.total_stolen(), d);
        assert_eq!(rn.per_rank_work, r.per_rank_work);
        // The detour lands on both ranks' critical paths: amplification
        // is (added wall) / (stolen per rank) = d / (d/2) = 2.
        let amp = rn.amplification(r.finish).unwrap();
        assert!((amp - 2.0).abs() < 0.01, "amp = {amp}");
    }

    #[test]
    fn recorder_captures_eager_ping() {
        use crate::record::{MsgClass, SegKind, SimEvent, VecRecorder};
        let p = xc40();
        let bytes = 8u64;
        let mut b = ScheduleBuilder::new(2);
        b.send(Rank(0), Rank(1), bytes, Tag(7), &[]);
        b.recv(Rank(1), Some(Rank(0)), bytes, Tag(7), &[]);
        let s = b.build();
        let mut rec = VecRecorder::default();
        let r = Simulator::new(&s, p)
            .with_recorder(&mut rec)
            .run(&mut NoNoise)
            .unwrap();
        let send_end = Time::ZERO + p.cpu_cost(bytes);
        let arrive = send_end + p.wire_time(bytes);
        // One send segment, one recv segment, a matching MsgSend/MsgDeliver
        // pair, two OpDones, and queue-depth samples.
        let execs: Vec<_> = rec
            .events
            .iter()
            .filter(|e| matches!(e, SimEvent::Exec { .. }))
            .collect();
        assert_eq!(execs.len(), 2);
        assert!(matches!(
            execs[0],
            SimEvent::Exec {
                rank: 0,
                op: 0,
                seg: SegKind::SendCpu,
                start: Time::ZERO,
                ..
            }
        ));
        let sends: Vec<_> = rec
            .events
            .iter()
            .filter_map(|e| match *e {
                SimEvent::MsgSend {
                    id,
                    class,
                    inject,
                    arrive,
                    ..
                } => Some((id, class, inject, arrive)),
                _ => None,
            })
            .collect();
        assert_eq!(sends, vec![(0, MsgClass::Eager, send_end, arrive)]);
        let delivers: Vec<_> = rec
            .events
            .iter()
            .filter_map(|e| match *e {
                SimEvent::MsgDeliver {
                    id,
                    src_op,
                    dst_op,
                    at,
                    ..
                } => Some((id, src_op, dst_op, at)),
                _ => None,
            })
            .collect();
        // Recv posted at t=0, message arrives later: delivered at arrival.
        assert_eq!(delivers, vec![(0, 0, 0, arrive)]);
        let dones: Vec<_> = rec
            .events
            .iter()
            .filter_map(|e| match *e {
                SimEvent::OpDone { rank, at, .. } => Some((rank, at)),
                _ => None,
            })
            .collect();
        assert_eq!(dones, vec![(0, send_end), (1, r.per_rank_finish[1])]);
        // Detour-free run records no detours; events are time-ordered
        // per rank.
        assert!(!rec
            .events
            .iter()
            .any(|e| matches!(e, SimEvent::Detour { .. })));
    }

    #[test]
    fn recorder_detour_event_matches_script() {
        use crate::record::{SimEvent, VecRecorder};
        let mut b = ScheduleBuilder::new(1);
        b.calc(Rank(0), Span::from_us(10), &[]);
        let s = b.build();
        let d = Span::from_us(3);
        let mut noise = ScriptedNoise::new(vec![(Rank(0), Time::ZERO, d)]);
        let mut rec = VecRecorder::default();
        Simulator::new(&s, xc40())
            .with_recorder(&mut rec)
            .run(&mut noise)
            .unwrap();
        let detours: Vec<_> = rec
            .events
            .iter()
            .filter_map(|e| match *e {
                SimEvent::Detour {
                    id, rank, at, dur, ..
                } => Some((id, rank, at, dur)),
                _ => None,
            })
            .collect();
        // Tail placement: detour sits after the 10 us of useful work;
        // the first detour of the run gets id 0.
        assert_eq!(detours, vec![(0, 0, Time::ZERO + Span::from_us(10), d)]);
        let stolen: Span = detours.iter().map(|&(_, _, _, dur)| dur).sum();
        assert_eq!(stolen, d);
    }

    /// Detour ids are dense, sequential in emission order, and restart at
    /// zero on every run — including scratch reuse.
    #[test]
    fn detour_ids_are_sequential_and_reset() {
        use crate::compile::CompiledSchedule;
        use crate::record::{SimEvent, VecRecorder};
        let mut b = ScheduleBuilder::new(2);
        let a = b.calc(Rank(0), Span::from_us(10), &[]);
        b.calc(Rank(0), Span::from_us(10), &[a]);
        b.calc(Rank(1), Span::from_us(10), &[]);
        let s = b.build();
        let script = || {
            // The second rank-0 event lands strictly inside the second
            // calc ([11us, 21us) after the first 1us detour): at 11us
            // exactly it would cascade into the *first* segment
            // (`stretch` absorbs everything due by the extended end).
            ScriptedNoise::new(vec![
                (Rank(0), Time::ZERO, Span::from_us(1)),
                (Rank(0), Time::from_ps(15_000_000), Span::from_us(2)),
                (Rank(1), Time::ZERO, Span::from_us(3)),
            ])
        };
        let ids_of = |rec: &VecRecorder| -> Vec<u64> {
            rec.events
                .iter()
                .filter_map(|e| match *e {
                    SimEvent::Detour { id, .. } => Some(id),
                    _ => None,
                })
                .collect()
        };
        let cs = Arc::new(CompiledSchedule::compile(&s));
        let mut rec = VecRecorder::default();
        Simulator::from_compiled(Arc::clone(&cs), xc40())
            .with_recorder(&mut rec)
            .run(&mut script())
            .unwrap();
        assert_eq!(ids_of(&rec), vec![0, 1, 2]);
        // A second run (fresh simulator, same compiled schedule) restarts
        // the sequence and emits the identical stream.
        let mut rec2 = VecRecorder::default();
        Simulator::from_compiled(cs, xc40())
            .with_recorder(&mut rec2)
            .run(&mut script())
            .unwrap();
        assert_eq!(rec.events, rec2.events);
    }

    /// The recorder must not perturb simulation results.
    #[test]
    fn recorder_does_not_change_results() {
        use crate::record::VecRecorder;
        let mut b = ScheduleBuilder::new(2);
        let c = b.calc(Rank(0), Span::from_us(5), &[]);
        b.send(Rank(0), Rank(1), 64 * 1024, Tag(1), &[c]);
        b.recv(Rank(1), Some(Rank(0)), 64 * 1024, Tag(1), &[]);
        let s = b.build();
        let plain = simulate(&s, &xc40(), &mut NoNoise).unwrap();
        let mut rec = VecRecorder::default();
        let traced = Simulator::new(&s, xc40())
            .with_recorder(&mut rec)
            .run(&mut NoNoise)
            .unwrap();
        assert_eq!(plain, traced);
        assert!(!rec.events.is_empty());
    }

    /// The compiled fast path and the legacy wrapper agree exactly, and
    /// one scratch reused across schedules and error cases never bleeds
    /// state into later runs.
    #[test]
    fn compiled_path_matches_legacy_and_scratch_reuse_is_clean() {
        use crate::compile::CompiledSchedule;
        let p = xc40();
        // A communication mix: eager + rendezvous + ANY_SOURCE + calc.
        let mut b = ScheduleBuilder::new(3);
        let c = b.calc(Rank(0), Span::from_us(2), &[]);
        b.send(Rank(0), Rank(2), 8, Tag(1), &[c]);
        b.send(Rank(1), Rank(2), 64 * 1024, Tag(2), &[]);
        let r1 = b.recv(Rank(2), None, 8, Tag(1), &[]);
        b.recv(Rank(2), Some(Rank(1)), 64 * 1024, Tag(2), &[r1]);
        let s = b.build();
        let legacy = simulate(&s, &p, &mut NoNoise).unwrap();

        let cs = CompiledSchedule::compile(&s);
        assert_eq!(simulate_compiled(&cs, &p, &mut NoNoise).unwrap(), legacy);

        let mut scratch = RunScratch::new();
        // Run a *different* schedule through the scratch first, then a
        // deadlocking one — neither may affect the next result.
        let mut b2 = ScheduleBuilder::new(2);
        b2.send(Rank(0), Rank(1), 8, Tag(9), &[]);
        b2.recv(Rank(1), Some(Rank(0)), 8, Tag(9), &[]);
        let other = CompiledSchedule::compile(&b2.build());
        simulate_compiled_with(&other, &p, &mut scratch, &mut NoNoise).unwrap();
        let mut b3 = ScheduleBuilder::new(1);
        b3.recv(Rank(0), None, 8, Tag(1), &[]);
        let stuck = CompiledSchedule::compile(&b3.build());
        simulate_compiled_with(&stuck, &p, &mut scratch, &mut NoNoise).unwrap_err();
        assert_eq!(
            simulate_compiled_with(&cs, &p, &mut scratch, &mut NoNoise).unwrap(),
            legacy
        );
        // And again: back-to-back reuse of the (now warm) scratch.
        assert_eq!(
            simulate_compiled_with(&cs, &p, &mut scratch, &mut NoNoise).unwrap(),
            legacy
        );
    }

    /// `Simulator::from_compiled` shares one Arc across runs (including
    /// a recorded one) and matches `Simulator::new`.
    #[test]
    fn from_compiled_shares_schedule_across_runs() {
        use crate::compile::CompiledSchedule;
        use crate::record::VecRecorder;
        let p = xc40();
        let mut b = ScheduleBuilder::new(2);
        let c = b.calc(Rank(0), Span::from_us(5), &[]);
        b.send(Rank(0), Rank(1), 32 * 1024, Tag(4), &[c]);
        b.recv(Rank(1), Some(Rank(0)), 32 * 1024, Tag(4), &[]);
        let s = b.build();
        let cs = Arc::new(CompiledSchedule::compile(&s));
        let base = Simulator::new(&s, p).run(&mut NoNoise).unwrap();
        let a = Simulator::from_compiled(Arc::clone(&cs), p)
            .run(&mut NoNoise)
            .unwrap();
        let mut rec = VecRecorder::default();
        let traced = Simulator::from_compiled(Arc::clone(&cs), p)
            .with_recorder(&mut rec)
            .run(&mut NoNoise)
            .unwrap();
        assert_eq!(a, base);
        assert_eq!(traced, base);
        assert!(!rec.events.is_empty());
    }

    /// The hot loop's layout: 8-byte events, so a radix-bucket entry is
    /// 24 bytes and an active-run entry 16, live and in fork snapshots.
    /// (Debug builds keep each `MsgRef`'s generation and are larger.)
    #[cfg(not(debug_assertions))]
    #[test]
    fn queue_events_are_8_bytes() {
        assert_eq!(std::mem::size_of::<Event>(), 8);
        assert_eq!(EventQueue::<Event>::ENTRY_BYTES, [24, 16, 24]);
    }

    /// Arena-reuse equivalence: slab indices never alias live messages
    /// across replica resets. Refs held from any earlier round — both
    /// consumed and still-nominally-live ones — are stale after a
    /// reset (generations are monotone per slot), while refs issued in
    /// the current round resolve to exactly their own message.
    #[cfg(debug_assertions)]
    #[test]
    fn msg_slab_never_aliases_across_100_resets() {
        let mk = |id: u64| Msg {
            id,
            src: 0,
            dst: 1,
            tag: Tag(0),
            bytes: 8,
            src_op: 0,
            kind: MsgKind::Eager,
        };
        let mut slab = MsgSlab::default();
        let mut stale: Vec<MsgRef> = Vec::new();
        for round in 0..100u64 {
            let refs: Vec<MsgRef> = (0..8).map(|i| slab.alloc(mk(round * 8 + i))).collect();
            // Current-round refs are live and resolve to their own
            // message; take half, leave half in flight.
            for (i, &r) in refs.iter().enumerate().take(4) {
                assert!(slab.is_current(r));
                assert_eq!(slab.take(r).id, round * 8 + i as u64);
                assert!(!slab.is_current(r), "taken ref stayed live");
            }
            assert_eq!(slab.live(), 4);
            // Every ref from every earlier round is dead, even though
            // its slot has long been recycled for new messages.
            for &old in &stale {
                assert!(!slab.is_current(old), "pre-reset ref aliases a slot");
            }
            stale.extend(refs);
            // Reset with messages still in flight (the deadlock case):
            // the arena empties and the leftover refs go stale.
            slab.reset();
            assert_eq!(slab.live(), 0);
        }
    }

    /// Debug builds catch a ref used after its message was taken, even
    /// once the slot holds another message.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "stale MsgRef dereferenced")]
    fn msg_slab_rejects_a_taken_ref() {
        let msg = Msg {
            id: 0,
            src: 0,
            dst: 1,
            tag: Tag(0),
            bytes: 8,
            src_op: 0,
            kind: MsgKind::Eager,
        };
        let mut slab = MsgSlab::default();
        let r = slab.alloc(msg);
        slab.take(r);
        assert_eq!(slab.alloc(msg).slot, r.slot);
        slab.get(r);
    }

    /// Live messages copied out mid-run (`get`) and parked again in a
    /// slab that has already been used (`alloc`) come back out exactly
    /// as they would have from the uninterrupted slab.
    #[test]
    fn msg_slab_round_trips_into_a_used_slab() {
        let mk = |id: u64| Msg {
            id,
            src: id as u32 % 3,
            dst: 1,
            tag: Tag(id as u32 % 5),
            bytes: 8 * id,
            src_op: 0,
            kind: MsgKind::Eager,
        };
        let mut slab = MsgSlab::default();
        let mut live: Vec<MsgRef> = (0..12).map(|i| slab.alloc(mk(i))).collect();
        for i in [3, 0, 7, 5] {
            slab.take(live.remove(i));
        }
        live.extend((12..15).map(|i| slab.alloc(mk(i))));
        let snap: Vec<Msg> = live.iter().map(|&r| slab.get(r)).collect();
        let mut used = MsgSlab::default();
        for i in 0..40 {
            let r = used.alloc(mk(100 + i));
            if i % 3 != 0 {
                used.take(r);
            }
        }
        used.reset();
        let restored: Vec<MsgRef> = snap.iter().map(|&m| used.alloc(m)).collect();
        assert_eq!(used.live(), slab.live());
        // Continue both the same way: interleave takes and new allocs.
        let (mut a, mut b) = (live, restored);
        for round in 0..a.len() {
            let i = (round * 5) % a.len();
            let (x, y) = (slab.take(a.remove(i)), used.take(b.remove(i)));
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
            a.push(slab.alloc(mk(200 + round as u64)));
            b.push(used.alloc(mk(200 + round as u64)));
        }
        for (ra, rb) in a.into_iter().zip(b) {
            assert_eq!(
                format!("{:?}", slab.take(ra)),
                format!("{:?}", used.take(rb))
            );
        }
        assert_eq!((slab.live(), used.live()), (0, 0));
    }

    /// Engine-level arena reuse: 100 replicas through one warm scratch
    /// give byte-identical results, and every run consumes exactly the
    /// messages it created (the arena is drained when the run ends).
    #[test]
    fn scratch_arena_reuse_is_clean_across_replicas() {
        use crate::compile::CompiledSchedule;
        let p = xc40();
        let mut b = ScheduleBuilder::new(4);
        let mut tags = cesim_goal::builder::TagPool::new();
        let entry: Vec<_> = (0..4)
            .map(|r| b.calc(Rank::from(r), Span::from_us(2), &[]))
            .collect();
        // Eager + rendezvous traffic so the arena sees both protocols.
        let e1 = cesim_goal::collectives::allreduce_recursive_doubling(
            &mut b,
            &mut tags,
            64,
            &cesim_goal::collectives::CollectiveCosts::default(),
            &entry,
        );
        cesim_goal::collectives::bcast_binomial(&mut b, &mut tags, Rank(0), 1 << 20, &e1);
        let cs = CompiledSchedule::compile(&b.build());
        let mut scratch = RunScratch::new();
        let first = simulate_compiled_with(&cs, &p, &mut scratch, &mut NoNoise).unwrap();
        assert_eq!(scratch.slab.live(), 0, "messages leaked past the run");
        let high_water = scratch.slab.msgs.len();
        assert!(high_water > 0, "schedule produced no messages");
        for _ in 0..99 {
            let again = simulate_compiled_with(&cs, &p, &mut scratch, &mut NoNoise).unwrap();
            assert_eq!(again, first);
            assert_eq!(scratch.slab.live(), 0);
            // Steady state: replica reuse never grows the arena.
            assert_eq!(scratch.slab.msgs.len(), high_water);
        }
    }

    #[test]
    fn slowdown_is_monotone_in_detour_size() {
        let p = xc40();
        let build = || {
            let mut b = ScheduleBuilder::new(2);
            let c = b.calc(Rank(0), Span::from_us(50), &[]);
            b.send(Rank(0), Rank(1), 8, Tag(1), &[c]);
            b.recv(Rank(1), Some(Rank(0)), 8, Tag(1), &[]);
            b.build()
        };
        let base = simulate(&build(), &p, &mut NoNoise).unwrap().finish;
        let mut prev = base;
        for us in [1u64, 10, 100, 1000] {
            let mut n = ScriptedNoise::new(vec![(Rank(0), Time::ZERO, Span::from_us(us))]);
            let f = simulate(&build(), &p, &mut n).unwrap().finish;
            assert!(f >= prev);
            prev = f;
        }
        assert_eq!(prev, base + Span::from_us(1000));
    }
}
