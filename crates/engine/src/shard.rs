//! Intra-run parallel DES: shard the event loop by rank, advance the
//! shards on scoped threads in lookahead windows, and stay
//! **byte-identical** to the serial engine.
//!
//! # Why `L` is a safe lookahead
//!
//! Every cross-rank interaction in the LogGOPS model is a message, and
//! every message injected at time `t` arrives no earlier than `t + L`:
//! eager payloads arrive at `inject + L + bytes·G`, RTS and CTS control
//! messages at `inject + L`, and topology hop surcharges only *add*
//! delay. So if the earliest unprocessed event anywhere in the system is
//! at time `m`, no shard can receive a message with timestamp below
//! `m + L` that does not already exist — which makes `[m, m + L)` a
//! window every shard may execute to completion without hearing from the
//! others. (`L = 0` disables sharding; the entry point runs the serial
//! engine.)
//!
//! # The window protocol
//!
//! Ranks are partitioned into `S` contiguous slices; each shard owns the
//! per-rank state (CPU/NIC cursors, match queues, event heap — its own
//! [`RunScratch`] slice) of its ranks, while the [`CompiledSchedule`]
//! stays shared and immutable. Each shard runs on its own scoped thread
//! and repeats:
//!
//! 1. **min**: publish the timestamp of the earliest local pending
//!    event; the global minimum `m` defines `window_end = m + L`.
//! 2. **run**: dispatch local events with `time < window_end` with the
//!    engine's one batch loop — the serial engine runs the same loop
//!    over one full-range slice with no bound. Events created for
//!    foreign ranks go to a per-shard *outbox* instead of the local heap.
//! 3. **exchange**: route outbox entries to the owning shard's mailbox;
//!    each shard drains its mailbox into its heap before the next round.
//!
//! # Deterministic merge order
//!
//! The event heap orders by `(time, creator rank, creator seq)` — the
//! content-computable key of [`crate::queue::EvKey`] — so the pop order
//! of any fixed event set is independent of *which heap* the events pass
//! through or the order mailboxes were drained in. Combined with the
//! window bound above, every rank processes exactly the event sequence
//! it would under the serial engine, so all per-rank state, counters and
//! the assembled [`SimResult`] are byte-identical.
//!
//! # Wildcards and FIFO matching
//!
//! `MPI_ANY_SOURCE` receives and FIFO tag matching are per-*receiving*
//! rank: the match queues live in the shard that owns the destination
//! rank, and arrivals for one rank are processed in the same key order
//! as serially, so match outcomes cannot differ.
//!
//! # The Recorder
//!
//! A recorded sharded run tags every emitted [`SimEvent`] with the key
//! of the pop that produced it (plus an intra-pop counter), buffers
//! per-shard streams, and k-way-merges them afterwards — reproducing the
//! serial emission order exactly. Message and detour ids are assigned
//! per shard from disjoint provisional ranges and densely renumbered in
//! merged order, which restores the exact ids the serial engine hands
//! out. The merged stream is then replayed into the caller's recorder,
//! so capacity/drop behavior also matches a serial recording.

use crate::compile::CompiledSchedule;
use crate::noise::NoiseModel;
use crate::queue::EvKey;
use crate::record::{NullRecorder, Recorder, SimEvent};
use crate::result::{SimError, SimResult};
use crate::sim::{assemble, run_engine, start, Engine, Msg, RunScratch};
use crate::topology::FlatCrossbar;
use cesim_model::{LogGopsParams, Time};
use std::fmt;
use std::marker::PhantomData;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Provisional-id stride per shard: shard `i` hands
/// out ids starting at `(i + 1) << 48`, far above any dense serial id,
/// so provisional ids never collide across shards (or with the dense
/// range) before the merge renumbers them.
const ID_STRIDE: u64 = 1 << 48;

// ---------------------------------------------------------------------
// Shard health telemetry
// ---------------------------------------------------------------------
//
// Two layers, both relaxed atomics so shard threads never synchronize
// through the telemetry:
//
// * process-wide counters ([`shard_globals`]) — always on (a handful
//   of relaxed adds per *window*, far below measurement noise), the
//   source for live daemon gauges and window-based progress reporting;
// * an opt-in per-run [`ShardTelemetry`] — per-shard busy/stall/
//   barrier time, windows, events, outbox traffic. Timing reads the
//   clock only when a telemetry handle is passed, so the default path
//   never calls `Instant::now` per window.

static G_WINDOWS: AtomicU64 = AtomicU64::new(0);
static G_EVENTS: AtomicU64 = AtomicU64::new(0);
static G_SIM_PS: AtomicU64 = AtomicU64::new(0);
static G_RUNS_ACTIVE: AtomicU64 = AtomicU64::new(0);
static G_RUNS_TOTAL: AtomicU64 = AtomicU64::new(0);

/// Snapshot of process-wide sharded-engine activity since start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardGlobals {
    /// Lookahead windows advanced (all runs).
    pub windows: u64,
    /// Events popped inside windows (all runs).
    pub events: u64,
    /// Simulated picoseconds advanced (sum of window-start deltas).
    pub sim_ps_advanced: u64,
    /// Sharded drives currently executing.
    pub runs_active: u64,
    /// Sharded drives started since process start.
    pub runs_total: u64,
}

/// Read the process-wide sharded-engine counters.
pub fn shard_globals() -> ShardGlobals {
    ShardGlobals {
        windows: G_WINDOWS.load(Ordering::Relaxed),
        events: G_EVENTS.load(Ordering::Relaxed),
        sim_ps_advanced: G_SIM_PS.load(Ordering::Relaxed),
        runs_active: G_RUNS_ACTIVE.load(Ordering::Relaxed),
        runs_total: G_RUNS_TOTAL.load(Ordering::Relaxed),
    }
}

/// Per-window global bookkeeping: count the window, accumulate the
/// sim-time delta between consecutive window starts (`prev_m_ps` is
/// `u64::MAX` before the first window).
fn note_window(m_ps: u64, prev_m_ps: u64) {
    G_WINDOWS.fetch_add(1, Ordering::Relaxed);
    if prev_m_ps != u64::MAX {
        G_SIM_PS.fetch_add(m_ps.saturating_sub(prev_m_ps), Ordering::Relaxed);
    }
}

/// Per-shard health counters. Written with relaxed atomics from the
/// shard's own thread; read by reporting code whenever convenient.
#[derive(Debug, Default)]
pub struct ShardStats {
    /// Wall nanoseconds spent executing windows that popped events.
    busy_ns: AtomicU64,
    /// Wall nanoseconds spent in windows that popped nothing — the
    /// shard rode along while others had the work.
    stall_ns: AtomicU64,
    /// Wall nanoseconds waiting at window barriers.
    barrier_ns: AtomicU64,
    /// Total accounted wall nanoseconds. Every accounted nanosecond
    /// lands in exactly one of the three buckets above, so
    /// `busy + stall + barrier == wall` holds exactly.
    wall_ns: AtomicU64,
    /// Windows this shard participated in.
    windows: AtomicU64,
    /// Events this shard popped.
    events: AtomicU64,
    /// Cross-shard messages this shard staged in its outbox.
    outbox_msgs: AtomicU64,
}

impl ShardStats {
    #[inline]
    fn add_ns(counter: &AtomicU64, ns: u64) {
        counter.fetch_add(ns, Ordering::Relaxed);
    }

    /// Account a measured segment to one timing bucket (and the wall
    /// total, preserving the conservation law).
    #[inline]
    fn lap(&self, bucket: Lap, ns: u64) {
        let counter = match bucket {
            Lap::Busy => &self.busy_ns,
            Lap::Stall => &self.stall_ns,
            Lap::Barrier => &self.barrier_ns,
        };
        Self::add_ns(counter, ns);
        Self::add_ns(&self.wall_ns, ns);
    }

    fn health(&self) -> ShardHealth {
        ShardHealth {
            busy: Duration::from_nanos(self.busy_ns.load(Ordering::Relaxed)),
            stall: Duration::from_nanos(self.stall_ns.load(Ordering::Relaxed)),
            barrier: Duration::from_nanos(self.barrier_ns.load(Ordering::Relaxed)),
            wall: Duration::from_nanos(self.wall_ns.load(Ordering::Relaxed)),
            windows: self.windows.load(Ordering::Relaxed),
            events: self.events.load(Ordering::Relaxed),
            outbox_msgs: self.outbox_msgs.load(Ordering::Relaxed),
        }
    }
}

/// Which timing bucket a measured segment belongs to.
#[derive(Clone, Copy)]
enum Lap {
    Busy,
    Stall,
    Barrier,
}

/// Boundary-timestamp accounting for one shard thread: consecutive
/// [`Stamp::lap`] calls chain on the same instants, so the buckets
/// partition the elapsed time with no gaps or double counting.
struct Stamp<'a> {
    stats: &'a ShardStats,
    mark: Instant,
}

impl<'a> Stamp<'a> {
    fn new(stats: &'a ShardStats) -> Self {
        Stamp {
            stats,
            mark: Instant::now(),
        }
    }

    #[inline]
    fn lap(&mut self, bucket: Lap) {
        let now = Instant::now();
        let ns = now.duration_since(self.mark).as_nanos() as u64;
        self.stats.lap(bucket, ns);
        self.mark = now;
    }
}

/// Aggregated shard-health telemetry for one or more sharded runs.
/// Create one sized for the shard count, pass it to
/// [`simulate_sharded_instrumented`] (possibly from many replicas
/// concurrently — counters accumulate), then read [`Self::report`].
#[derive(Debug, Default)]
pub struct ShardTelemetry {
    stats: Vec<ShardStats>,
    drive_ns: AtomicU64,
    runs: AtomicU64,
}

impl ShardTelemetry {
    /// Telemetry sized for `shards` shards (at least one).
    pub fn new(shards: usize) -> Self {
        ShardTelemetry {
            stats: (0..shards.max(1)).map(|_| ShardStats::default()).collect(),
            drive_ns: AtomicU64::new(0),
            runs: AtomicU64::new(0),
        }
    }

    /// Number of shard slots.
    pub fn shards(&self) -> usize {
        self.stats.len()
    }

    /// Runs accumulated so far.
    pub fn runs(&self) -> u64 {
        self.runs.load(Ordering::Relaxed)
    }

    /// Credit a serial-fallback run (no windows to attribute; the
    /// whole run is busy time on shard 0).
    fn note_serial_fallback(&self, elapsed: Duration, events: u64) {
        let ns = elapsed.as_nanos() as u64;
        let st = &self.stats[0];
        st.lap(Lap::Busy, ns);
        st.windows.fetch_add(1, Ordering::Relaxed);
        st.events.fetch_add(events, Ordering::Relaxed);
        self.drive_ns.fetch_add(ns, Ordering::Relaxed);
        self.runs.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot everything into a plain-value report.
    pub fn report(&self) -> ShardHealthReport {
        ShardHealthReport {
            per_shard: self.stats.iter().map(ShardStats::health).collect(),
            runs: self.runs.load(Ordering::Relaxed),
            drive: Duration::from_nanos(self.drive_ns.load(Ordering::Relaxed)),
        }
    }
}

/// Plain-value snapshot of one shard's counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardHealth {
    /// Wall time in windows where this shard popped events.
    pub busy: Duration,
    /// Wall time in windows where this shard had nothing to do.
    pub stall: Duration,
    /// Wall time waiting at window barriers for the other shards
    /// (zero for a run that fell back to the serial engine).
    pub barrier: Duration,
    /// Total accounted wall time (`busy + stall + barrier`, exactly).
    pub wall: Duration,
    /// Windows participated in.
    pub windows: u64,
    /// Events popped.
    pub events: u64,
    /// Cross-shard messages staged.
    pub outbox_msgs: u64,
}

/// The imbalance report: per-shard health plus the aggregate ratios
/// the ISSUE asks operators to watch. [`fmt::Display`] renders the
/// human table printed by `--shard-health`.
#[derive(Clone, Debug, Default)]
pub struct ShardHealthReport {
    /// One entry per shard.
    pub per_shard: Vec<ShardHealth>,
    /// Sharded runs accumulated into this report.
    pub runs: u64,
    /// Total wall time inside the window drivers.
    pub drive: Duration,
}

impl ShardHealthReport {
    /// Total events popped across shards.
    pub fn events(&self) -> u64 {
        self.per_shard.iter().map(|s| s.events).sum()
    }

    /// Windows advanced (shards participate in every window, so this
    /// is the maximum over shards).
    pub fn windows(&self) -> u64 {
        self.per_shard.iter().map(|s| s.windows).max().unwrap_or(0)
    }

    /// Total cross-shard messages staged.
    pub fn outbox_msgs(&self) -> u64 {
        self.per_shard.iter().map(|s| s.outbox_msgs).sum()
    }

    /// Largest per-shard busy time.
    pub fn max_busy(&self) -> Duration {
        self.per_shard
            .iter()
            .map(|s| s.busy)
            .max()
            .unwrap_or_default()
    }

    /// Mean per-shard busy time.
    pub fn mean_busy(&self) -> Duration {
        if self.per_shard.is_empty() {
            return Duration::ZERO;
        }
        let total: Duration = self.per_shard.iter().map(|s| s.busy).sum();
        total / self.per_shard.len() as u32
    }

    /// Busy-time imbalance: max/mean (1.0 = perfectly balanced; also
    /// 1.0 when nothing ran).
    pub fn imbalance(&self) -> f64 {
        let mean = self.mean_busy().as_secs_f64();
        if mean == 0.0 {
            1.0
        } else {
            self.max_busy().as_secs_f64() / mean
        }
    }

    /// Fraction of accounted wall time spent in empty windows.
    pub fn stall_fraction(&self) -> f64 {
        self.fraction(|s| s.stall)
    }

    /// Fraction of accounted wall time spent waiting at barriers.
    pub fn barrier_fraction(&self) -> f64 {
        self.fraction(|s| s.barrier)
    }

    fn fraction(&self, f: impl Fn(&ShardHealth) -> Duration) -> f64 {
        let wall: Duration = self.per_shard.iter().map(|s| s.wall).sum();
        if wall.is_zero() {
            return 0.0;
        }
        let part: Duration = self.per_shard.iter().map(f).sum();
        part.as_secs_f64() / wall.as_secs_f64()
    }

    /// Lookahead efficiency: events popped per shard-window. Low
    /// values mean windows advance mostly empty — the lookahead `L`
    /// is small relative to event spacing.
    pub fn lookahead_efficiency(&self) -> f64 {
        let shard_windows: u64 = self.per_shard.iter().map(|s| s.windows).sum();
        if shard_windows == 0 {
            0.0
        } else {
            self.events() as f64 / shard_windows as f64
        }
    }
}

impl fmt::Display for ShardHealthReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "shard health: {} shards, {} windows, {} events, {} run(s), drive {:.3}s",
            self.per_shard.len(),
            self.windows(),
            self.events(),
            self.runs,
            self.drive.as_secs_f64()
        )?;
        writeln!(
            f,
            "{:>7} {:>11} {:>11} {:>11} {:>9} {:>12} {:>9}",
            "shard", "busy(s)", "stall(s)", "barrier(s)", "windows", "events", "outbox"
        )?;
        for (i, s) in self.per_shard.iter().enumerate() {
            writeln!(
                f,
                "{:>7} {:>11.4} {:>11.4} {:>11.4} {:>9} {:>12} {:>9}",
                i,
                s.busy.as_secs_f64(),
                s.stall.as_secs_f64(),
                s.barrier.as_secs_f64(),
                s.windows,
                s.events,
                s.outbox_msgs
            )?;
        }
        write!(
            f,
            "busy max/mean {:.4}/{:.4}s (imbalance {:.2}x); stall {:.1}%; barrier {:.1}%; lookahead {:.1} events/shard-window",
            self.max_busy().as_secs_f64(),
            self.mean_busy().as_secs_f64(),
            self.imbalance(),
            100.0 * self.stall_fraction(),
            100.0 * self.barrier_fraction(),
            self.lookahead_efficiency()
        )
    }
}

/// Contiguous rank partition: shard `s` owns ranks
/// `[cut(s), cut(s+1))` with `cut(s) = n·s/S`.
fn cuts(nranks: usize, shards: usize) -> Vec<u32> {
    (0..=shards).map(|s| (nranks * s / shards) as u32).collect()
}

/// Pick an empirically good power-of-two shard count for `nranks` ranks
/// on this host — what `--shards auto` resolves to.
///
/// The count follows the CPU count (rounded up to a power of two),
/// bounded by `nranks / 1024` so each shard keeps at least ~1k ranks of
/// work (finer splits drown in window overhead and are where the
/// measured scaling went non-monotonic), and clamped to 64.
///
/// Single-CPU hosts return 1: the shard threads would only take turns.
/// Splitting without parallelism once paid off through smaller
/// per-shard heaps (the first `sharded_single_run_scaling` entry in
/// `BENCH_engine.json` climbs through 1.55x at 64 shards), but the
/// bucket queue works on one small sorted run at a time, so the
/// remeasured single-thread scaling is flat (0.92–1.00x at 64k ranks)
/// and sharding is pure overhead without real cores behind it.
///
/// Schedules below 2048 ranks also return 1: window overhead beats any
/// split there regardless of host.
pub fn auto_shards(nranks: usize) -> usize {
    let cap = (nranks / 1024).max(1).next_power_of_two();
    if nranks / 1024 < 2 {
        return 1;
    }
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cpus <= 1 {
        1
    } else {
        cpus.next_power_of_two().min(cap).min(64)
    }
}

/// Owning shard of `rank` under `cuts`.
#[inline]
fn shard_of(cuts: &[u32], rank: u32) -> usize {
    cuts.partition_point(|&c| c <= rank) - 1
}

/// A [`SimEvent`] tagged with the key of the pop that emitted it plus an
/// intra-pop emission counter — the merge key that reproduces serial
/// emission order.
#[derive(Clone, Copy)]
struct Tagged {
    t: Time,
    key: EvKey,
    n: u32,
    ev: SimEvent,
}

/// Per-shard recorder of a sharded run whose caller records into an
/// `R`: buffers tagged events for the post-run merge. It is enabled
/// exactly when `R` is, so an unrecorded run compiles the tagging away.
struct KeyedRecorder<R> {
    buf: Vec<Tagged>,
    t: Time,
    key: EvKey,
    n: u32,
    sink: PhantomData<fn(&mut R)>,
}

impl<R> KeyedRecorder<R> {
    fn new() -> Self {
        KeyedRecorder {
            buf: Vec::new(),
            t: Time::ZERO,
            key: EvKey { crank: 0, cseq: 0 },
            n: 0,
            sink: PhantomData,
        }
    }
}

impl<R: Recorder> Recorder for KeyedRecorder<R> {
    const ENABLED: bool = R::ENABLED;

    #[inline]
    fn record(&mut self, ev: SimEvent) {
        self.buf.push(Tagged {
            t: self.t,
            key: self.key,
            n: self.n,
            ev,
        });
        self.n += 1;
    }

    #[inline]
    fn begin_pop(&mut self, t: Time, key: EvKey) {
        if R::ENABLED {
            self.t = t;
            self.key = key;
            self.n = 0;
        }
    }
}

/// One shard of a run recording into an `R`: the scratch of its rank
/// slice, its clone of the noise prototype, and its recorder.
struct Shard<N, R> {
    s: RunScratch,
    noise: N,
    rec: KeyedRecorder<R>,
}

/// Simulate a [`CompiledSchedule`] split across `shards` rank-contiguous
/// shards advanced in lookahead windows. Byte-identical to
/// [`crate::simulate_compiled`]; `noise` is used as a prototype (cloned
/// per shard, each clone only ever queried for that shard's ranks — the
/// per-rank noise substreams consumed are exactly the serial ones).
///
/// `shards <= 1`, a single-rank schedule, or `params.latency == 0` (no
/// usable lookahead) all run the serial engine.
pub fn simulate_compiled_sharded<N: NoiseModel + Clone + Send>(
    cs: &CompiledSchedule,
    params: &LogGopsParams,
    shards: usize,
    noise: &N,
) -> Result<SimResult, SimError> {
    simulate_sharded_instrumented(cs, params, shards, noise, &mut NullRecorder, None)
}

/// [`simulate_compiled_sharded`] with instruments attached; results are
/// byte-identical regardless of which are.
///
/// * `rec`: per-shard event streams are merged back into serial emission
///   order (ids densely renumbered) and replayed into `rec`, so the
///   recording is byte-identical to a serial recorded run.
/// * `telem`: per-shard busy/stall/barrier time, window and event counts
///   accumulate into it (relaxed atomics — safe to share across
///   concurrent replicas).
pub fn simulate_sharded_instrumented<N: NoiseModel + Clone + Send, R: Recorder>(
    cs: &CompiledSchedule,
    params: &LogGopsParams,
    shards: usize,
    noise: &N,
    rec: &mut R,
    telem: Option<&ShardTelemetry>,
) -> Result<SimResult, SimError> {
    if cs.num_ranks() == 0 {
        return Err(SimError::EmptySchedule);
    }
    let s_eff = shards.clamp(1, cs.num_ranks());
    if s_eff <= 1 || params.latency.is_zero() {
        // No usable partition or no lookahead: the serial engine IS the
        // sharded engine with one shard.
        let t0 = telem.map(|_| Instant::now());
        let mut scratch = RunScratch::new();
        let out = run_engine(
            cs,
            *params,
            &FlatCrossbar,
            &mut scratch,
            &mut *rec,
            &mut noise.clone(),
        );
        if let (Some(t), Some(t0)) = (telem, t0) {
            let events = out.as_ref().map(|r| r.events_processed).unwrap_or(0);
            t.note_serial_fallback(t0.elapsed(), events);
        }
        return out;
    }

    let cuts = cuts(cs.num_ranks(), s_eff);
    let mut shards: Vec<Shard<N, R>> = Vec::with_capacity(s_eff);
    for (i, w) in cuts.windows(2).enumerate() {
        let mut s = RunScratch::new();
        start(cs, params, &mut s, w[0]..w[1], (i as u64 + 1) * ID_STRIDE)?;
        shards.push(Shard {
            s,
            noise: noise.clone(),
            rec: KeyedRecorder::new(),
        });
    }
    let events = drive_threaded(cs, *params, &cuts, &mut shards, telem);
    let base = noise.events_injected();
    let noise_events = base
        + shards
            .iter()
            .map(|p| p.noise.events_injected() - base)
            .sum::<u64>();
    let parts: Vec<&RunScratch> = shards.iter().map(|p| &p.s).collect();
    let out = assemble(cs, &parts, noise_events, events);
    if R::ENABLED {
        merge_records(shards.into_iter().map(|p| p.rec.buf), rec);
    }
    out
}

/// Run the window protocol to completion, one OS thread per shard;
/// returns total events processed. Three barriers per window round:
/// after **publishing** local minima (so the leader sees them all),
/// after the leader computes the **window bound** (so everyone reads
/// it), and after **routing** outboxes (so mailbox drains see every
/// message). Mailbox mutexes are uncontended by construction — senders
/// and the draining owner are separated by the route barrier.
fn drive_threaded<N: NoiseModel + Send, R: Recorder>(
    cs: &CompiledSchedule,
    params: LogGopsParams,
    cuts: &[u32],
    shards: &mut [Shard<N, R>],
    telem: Option<&ShardTelemetry>,
) -> u64 {
    G_RUNS_ACTIVE.fetch_add(1, Ordering::Relaxed);
    G_RUNS_TOTAL.fetch_add(1, Ordering::Relaxed);
    let t0 = Instant::now();
    let s_eff = shards.len();
    let lookahead = params.latency;
    let barrier = Barrier::new(s_eff);
    let mins: Vec<AtomicU64> = (0..s_eff).map(|_| AtomicU64::new(0)).collect();
    let wend_ps = AtomicU64::new(0);
    let prev_m_ps = AtomicU64::new(u64::MAX);
    let done = AtomicBool::new(false);
    let mailboxes: Vec<Mutex<Vec<(Time, EvKey, Msg)>>> =
        (0..s_eff).map(|_| Mutex::new(Vec::new())).collect();
    let events_total = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for (i, shard) in shards.iter_mut().enumerate() {
            let (barrier, mins, wend_ps, prev_m_ps, done, mailboxes, events_total) = (
                &barrier,
                &mins,
                &wend_ps,
                &prev_m_ps,
                &done,
                &mailboxes,
                &events_total,
            );
            scope.spawn(move || {
                let Shard {
                    s: scratch,
                    noise,
                    rec,
                } = shard;
                let stats = telem.and_then(|t| t.stats.get(i));
                let mut stamp = stats.map(Stamp::new);
                let mut events = 0u64;
                loop {
                    mins[i].store(
                        scratch.queue.peek_time().map_or(u64::MAX, |t| t.as_ps()),
                        Ordering::SeqCst,
                    );
                    if barrier.wait().is_leader() {
                        let m = mins
                            .iter()
                            .map(|a| a.load(Ordering::SeqCst))
                            .min()
                            .expect("at least one shard");
                        if m == u64::MAX {
                            done.store(true, Ordering::SeqCst);
                        } else {
                            let wend = (Time::from_ps(m) + lookahead).as_ps();
                            wend_ps.store(wend, Ordering::SeqCst);
                            note_window(m, prev_m_ps.swap(m, Ordering::Relaxed));
                        }
                    }
                    barrier.wait();
                    if let Some(s) = stamp.as_mut() {
                        s.lap(Lap::Barrier);
                    }
                    if done.load(Ordering::SeqCst) {
                        break;
                    }
                    let wend = Time::from_ps(wend_ps.load(Ordering::SeqCst));
                    let popped = Engine {
                        cs,
                        params,
                        topology: &FlatCrossbar,
                        s: &mut *scratch,
                        rec: &mut *rec,
                    }
                    .run_until(noise, wend, |_, _, _, _| ControlFlow::Continue(()));
                    events += popped;
                    G_EVENTS.fetch_add(popped, Ordering::Relaxed);
                    if let Some(s) = stamp.as_mut() {
                        let bucket = if popped == 0 { Lap::Stall } else { Lap::Busy };
                        s.lap(bucket);
                    }
                    if let Some(st) = stats {
                        st.windows.fetch_add(1, Ordering::Relaxed);
                        st.events.fetch_add(popped, Ordering::Relaxed);
                        st.outbox_msgs
                            .fetch_add(scratch.outbox.len() as u64, Ordering::Relaxed);
                    }
                    for (t, key, m) in scratch.outbox.drain(..) {
                        let d = shard_of(cuts, m.dst);
                        mailboxes[d].lock().expect("mailbox lock").push((t, key, m));
                    }
                    if let Some(s) = stamp.as_mut() {
                        s.lap(Lap::Busy);
                    }
                    barrier.wait();
                    if let Some(s) = stamp.as_mut() {
                        s.lap(Lap::Barrier);
                    }
                    for (t, key, m) in mailboxes[i].lock().expect("mailbox lock").drain(..) {
                        scratch.deliver(t, key, m);
                    }
                    if let Some(s) = stamp.as_mut() {
                        s.lap(Lap::Busy);
                    }
                }
                events_total.fetch_add(events, Ordering::SeqCst);
            });
        }
    });
    if let Some(t) = telem {
        t.drive_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        t.runs.fetch_add(1, Ordering::Relaxed);
    }
    G_RUNS_ACTIVE.fetch_sub(1, Ordering::Relaxed);
    events_total.load(Ordering::SeqCst)
}

/// Merge per-shard tagged streams into serial emission order and replay
/// into `rec`, renumbering message and detour ids densely (the exact
/// ids a serial recorded run assigns).
fn merge_records<R: Recorder>(bufs: impl Iterator<Item = Vec<Tagged>>, rec: &mut R) {
    let mut all: Vec<Tagged> = bufs.flatten().collect();
    // (pop time, pop key, intra-pop index) is unique per record, so this
    // is a total order — the serial emission order.
    all.sort_unstable_by_key(|e| (e.t, e.key, e.n));
    let mut msg_ids: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let mut next_msg = 0u64;
    let mut next_detour = 0u64;
    for t in all {
        let ev = match t.ev {
            SimEvent::MsgSend {
                id,
                src,
                dst,
                src_op,
                class,
                bytes,
                tag,
                inject,
                arrive,
            } => {
                let dense = next_msg;
                next_msg += 1;
                msg_ids.insert(id, dense);
                SimEvent::MsgSend {
                    id: dense,
                    src,
                    dst,
                    src_op,
                    class,
                    bytes,
                    tag,
                    inject,
                    arrive,
                }
            }
            SimEvent::MsgDeliver {
                id,
                src,
                dst,
                src_op,
                dst_op,
                class,
                bytes,
                at,
            } => {
                let dense = *msg_ids
                    .get(&id)
                    .expect("MsgSend always merges before its MsgDeliver");
                SimEvent::MsgDeliver {
                    id: dense,
                    src,
                    dst,
                    src_op,
                    dst_op,
                    class,
                    bytes,
                    at,
                }
            }
            SimEvent::Detour {
                id: _,
                rank,
                op,
                at,
                dur,
            } => {
                let dense = next_detour;
                next_detour += 1;
                SimEvent::Detour {
                    id: dense,
                    rank,
                    op,
                    at,
                    dur,
                }
            }
            other => other,
        };
        rec.record(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::NoNoise;
    use crate::record::VecRecorder;
    use crate::sim::{simulate, simulate_compiled};
    use cesim_goal::{builder::TagPool, collectives as coll, Rank, Schedule, ScheduleBuilder, Tag};
    use cesim_model::Span;

    fn xc40() -> LogGopsParams {
        LogGopsParams::xc40()
    }

    /// Serializes the tests that run sharded drives: every drive bumps
    /// the process-wide [`shard_globals`] counters, and
    /// `telemetry_accumulates_across_runs_and_fallbacks` asserts their
    /// exact deltas.
    static GLOBALS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn lock_globals() -> std::sync::MutexGuard<'static, ()> {
        GLOBALS.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A sharded run of `cs` with shard-health telemetry attached.
    fn with_telemetry(
        cs: &CompiledSchedule,
        shards: usize,
        telem: &ShardTelemetry,
    ) -> Result<SimResult, SimError> {
        simulate_sharded_instrumented(
            cs,
            &xc40(),
            shards,
            &NoNoise,
            &mut NullRecorder,
            Some(telem),
        )
    }

    /// A communication-heavy schedule: per-rank entry calcs feeding a
    /// chain of collectives, with both eager and rendezvous payloads.
    fn busy_schedule(n: usize) -> Schedule {
        let mut b = ScheduleBuilder::new(n);
        let mut tags = TagPool::new();
        let entry: Vec<_> = (0..n)
            .map(|r| b.calc(Rank::from(r), Span::from_us(1 + (r as u64 % 5)), &[]))
            .collect();
        let e1 = coll::barrier_dissemination(&mut b, &mut tags, &entry);
        let e2 = coll::allreduce_recursive_doubling(
            &mut b,
            &mut tags,
            64,
            &coll::CollectiveCosts::default(),
            &e1,
        );
        let e3 = coll::bcast_binomial(&mut b, &mut tags, Rank(0), 1 << 20, &e2);
        coll::allgather_ring(&mut b, &mut tags, 256, &e3);
        b.build()
    }

    #[test]
    fn cuts_partition_every_rank() {
        for n in [1usize, 2, 7, 64, 1000] {
            for s in [1usize, 2, 3, 7, 16] {
                let s = s.min(n);
                let c = cuts(n, s);
                assert_eq!(c[0], 0);
                assert_eq!(c[s] as usize, n);
                for w in c.windows(2) {
                    assert!(w[0] < w[1], "empty shard in {c:?}");
                }
                for r in 0..n as u32 {
                    let i = shard_of(&c, r);
                    assert!(c[i] <= r && r < c[i + 1]);
                }
            }
        }
    }

    #[test]
    fn sharded_matches_serial_noise_free() {
        let _globals = lock_globals();
        for n in [2usize, 5, 8, 13] {
            let sched = busy_schedule(n);
            let cs = CompiledSchedule::compile(&sched);
            let serial = simulate_compiled(&cs, &xc40(), &mut NoNoise);
            for shards in [2usize, 3, 4, 7] {
                let got = simulate_compiled_sharded(&cs, &xc40(), shards, &NoNoise);
                assert_eq!(got, serial, "n={n} shards={shards}");
            }
        }
    }

    #[test]
    fn sharded_matches_serial_under_ce_noise() {
        let _globals = lock_globals();
        use cesim_model::rng::Rng64;
        // A hand-rolled per-rank noise equivalent in spirit to CeNoise
        // (the real one lives a crate up): exponential-ish arrivals from
        // per-rank substreams, cloneable, counts injections.
        #[derive(Clone)]
        struct TestNoise {
            next: Vec<Time>,
            rngs: Vec<Rng64>,
            detour: Span,
            mean_ps: u64,
            events: u64,
        }
        impl TestNoise {
            fn new(nranks: usize, seed: u64) -> Self {
                let rngs: Vec<Rng64> = (0..nranks)
                    .map(|r| Rng64::substream(seed, r as u64))
                    .collect();
                TestNoise {
                    next: vec![Time::from_ps(50_000); nranks],
                    rngs,
                    // Detours must be well below the mean arrival gap or
                    // the stretch loop cannot converge (each injection
                    // pushes `end` out by `detour`).
                    detour: Span::from_ns(800),
                    mean_ps: 300_000_000, // 300 µs mean between CEs
                    events: 0,
                }
            }
        }
        impl NoiseModel for TestNoise {
            fn stretch(&mut self, rank: Rank, start: Time, work: Span) -> Time {
                let i = rank.idx();
                let mut end = start + work;
                while self.next[i] < end {
                    end += self.detour;
                    let step = self.rngs[i].exp_span(Span::from_ps(self.mean_ps));
                    self.next[i] += step.max(Span::from_ps(1));
                    self.events += 1;
                }
                end
            }
            fn events_injected(&self) -> u64 {
                self.events
            }
        }

        let sched = busy_schedule(9);
        let cs = CompiledSchedule::compile(&sched);
        for seed in [1u64, 7, 42] {
            let serial = {
                let mut n = TestNoise::new(9, seed);
                simulate_compiled(&cs, &xc40(), &mut n)
            };
            for shards in [2usize, 4, 7] {
                let got = simulate_compiled_sharded(&cs, &xc40(), shards, &TestNoise::new(9, seed));
                assert_eq!(got, serial, "seed={seed} shards={shards}");
            }
        }
    }

    #[test]
    fn sharded_recorded_stream_matches_serial() {
        let _globals = lock_globals();
        let sched = busy_schedule(6);
        let cs = CompiledSchedule::compile(&sched);
        let mut serial_rec = VecRecorder::default();
        let mut scratch = RunScratch::new();
        run_engine(
            &cs,
            xc40(),
            &FlatCrossbar,
            &mut scratch,
            &mut serial_rec,
            &mut NoNoise,
        )
        .unwrap();
        for shards in [2usize, 3, 5] {
            let mut rec = VecRecorder::default();
            simulate_sharded_instrumented(&cs, &xc40(), shards, &NoNoise, &mut rec, None).unwrap();
            assert_eq!(rec.events, serial_rec.events, "shards={shards}");
        }
    }

    #[test]
    fn sharded_deadlock_report_matches_serial() {
        let _globals = lock_globals();
        // Rank 2 waits on a message no one sends; ranks 0/1 complete.
        let mut b = ScheduleBuilder::new(3);
        b.send(Rank(0), Rank(1), 8, Tag(1), &[]);
        b.recv(Rank(1), Some(Rank(0)), 8, Tag(1), &[]);
        b.recv(Rank(2), None, 8, Tag(9), &[]);
        b.calc(Rank(2), Span::from_us(1), &[]);
        let cs = CompiledSchedule::compile(&b.build());
        let serial = simulate_compiled(&cs, &xc40(), &mut NoNoise).unwrap_err();
        let got = simulate_compiled_sharded(&cs, &xc40(), 3, &NoNoise).unwrap_err();
        assert_eq!(got, serial);
    }

    #[test]
    fn degenerate_configs_fall_back_to_serial() {
        let _globals = lock_globals();
        let sched = busy_schedule(4);
        let cs = CompiledSchedule::compile(&sched);
        let serial = simulate_compiled(&cs, &xc40(), &mut NoNoise);
        // One shard, more shards than ranks (clamped), zero latency.
        assert_eq!(simulate_compiled_sharded(&cs, &xc40(), 1, &NoNoise), serial);
        assert_eq!(
            simulate_compiled_sharded(&cs, &xc40(), 64, &NoNoise),
            simulate_compiled_sharded(&cs, &xc40(), 4, &NoNoise)
        );
        let ideal = LogGopsParams::ideal();
        assert!(ideal.latency.is_zero());
        let serial_ideal = simulate_compiled(&cs, &ideal, &mut NoNoise);
        assert_eq!(
            simulate_compiled_sharded(&cs, &ideal, 4, &NoNoise),
            serial_ideal
        );
        // Empty schedule still rejected.
        let empty = CompiledSchedule::compile(&Schedule::default());
        assert_eq!(
            simulate_compiled_sharded(&empty, &xc40(), 4, &NoNoise).unwrap_err(),
            SimError::EmptySchedule
        );
    }

    #[test]
    fn telemetry_is_conserved_and_counts_serial_events() {
        let _globals = lock_globals();
        let sched = busy_schedule(8);
        let cs = CompiledSchedule::compile(&sched);
        let serial = simulate_compiled(&cs, &xc40(), &mut NoNoise).unwrap();
        let telem = ShardTelemetry::new(4);
        let got = with_telemetry(&cs, 4, &telem).unwrap();
        assert_eq!(got, serial, "telemetry must not alter results");
        let report = telem.report();
        assert_eq!(report.runs, 1);
        assert_eq!(report.per_shard.len(), 4);
        assert_eq!(
            report.events(),
            serial.events_processed,
            "per-shard events must sum to the serial count"
        );
        let windows = report.windows();
        assert!(windows > 0, "windowed run must advance windows");
        for (i, s) in report.per_shard.iter().enumerate() {
            assert_eq!(s.windows, windows, "shard {i} missed windows");
            assert_eq!(
                s.busy + s.stall + s.barrier,
                s.wall,
                "shard {i} time buckets must partition wall time"
            );
        }
        assert!(report.imbalance() >= 1.0);
        assert!(report.lookahead_efficiency() > 0.0);
        // The Display table renders without panicking and mentions the
        // headline aggregates.
        let text = report.to_string();
        assert!(text.contains("shard health"), "{text}");
        assert!(text.contains("imbalance"), "{text}");
    }

    #[test]
    fn telemetry_accumulates_across_runs_and_fallbacks() {
        let _globals = lock_globals();
        let sched = busy_schedule(5);
        let cs = CompiledSchedule::compile(&sched);
        let serial = simulate_compiled(&cs, &xc40(), &mut NoNoise).unwrap();
        let telem = ShardTelemetry::new(3);
        for _ in 0..2 {
            with_telemetry(&cs, 3, &telem).unwrap();
        }
        // Serial fallback (one shard) still credits events and a run.
        with_telemetry(&cs, 1, &telem).unwrap();
        let report = telem.report();
        assert_eq!(report.runs, 3);
        assert_eq!(report.events(), 3 * serial.events_processed);
        let before = shard_globals();
        simulate_compiled_sharded(&cs, &xc40(), 3, &NoNoise).unwrap();
        let after = shard_globals();
        assert!(after.windows > before.windows);
        assert_eq!(after.events - before.events, serial.events_processed);
        assert!(after.runs_total == before.runs_total + 1);
        assert!(after.sim_ps_advanced >= before.sim_ps_advanced);
    }

    /// A same-tick wildcard race across shards: two eager sends injected
    /// so both arrivals reach the receiver at the same timestamp. The
    /// key order (creator rank, then seq) must decide the match.
    #[test]
    fn same_time_wildcard_arrivals_match_identically() {
        let _globals = lock_globals();
        let p = xc40();
        let mut b = ScheduleBuilder::new(3);
        // Same bytes, same start: identical inject/arrive times on both
        // senders, landing on rank 2's two wildcard receives.
        b.send(Rank(0), Rank(2), 8, Tag(1), &[]);
        b.send(Rank(1), Rank(2), 8, Tag(1), &[]);
        let r1 = b.recv(Rank(2), None, 8, Tag(1), &[]);
        b.recv(Rank(2), None, 8, Tag(1), &[r1]);
        let s = b.build();
        let cs = CompiledSchedule::compile(&s);
        let serial = simulate(&s, &p, &mut NoNoise);
        assert_eq!(simulate_compiled(&cs, &p, &mut NoNoise), serial);
        for shards in [2usize, 3] {
            assert_eq!(
                simulate_compiled_sharded(&cs, &p, shards, &NoNoise),
                serial,
                "shards={shards}"
            );
        }
    }
}
