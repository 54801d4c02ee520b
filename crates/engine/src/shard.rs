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
//! # Scope
//!
//! The sharded engine only advances unrecorded runs: a caller that
//! records a run's event stream runs it on the serial engine, which
//! produces the same results. Its one instrument is the process-wide
//! set of shard counters read by [`shard_globals`].

use crate::compile::CompiledSchedule;
use crate::noise::NoiseModel;
use crate::queue::EvKey;
use crate::record::NullRecorder;
use crate::result::{SimError, SimResult};
use crate::sim::{assemble, simulate_compiled, start, Engine, Msg, RunScratch};
use crate::topology::FlatCrossbar;
use cesim_model::{LogGopsParams, Time};
use std::fmt;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Shard counters
// ---------------------------------------------------------------------
//
// One process-wide set. The window, event and sim-time counters are
// relaxed atomics bumped once per window, so progress reporters and the
// daemon's gauges see a run advance while it runs. Each shard thread
// times its own windows into plain locals and the driver adds them to
// the per-shard table once, when the run ends. Serial fallbacks count
// nothing.

static G_WINDOWS: AtomicU64 = AtomicU64::new(0);
static G_EVENTS: AtomicU64 = AtomicU64::new(0);
static G_SIM_PS: AtomicU64 = AtomicU64::new(0);
static G_RUNS_ACTIVE: AtomicU64 = AtomicU64::new(0);
static G_RUNS_TOTAL: AtomicU64 = AtomicU64::new(0);
static G_DRIVE_NS: AtomicU64 = AtomicU64::new(0);
static G_PER_SHARD: Mutex<Vec<ShardHealth>> = Mutex::new(Vec::new());

/// Snapshot of process-wide sharded-engine activity since start;
/// [`ShardGlobals::since`] narrows it to the runs between two snapshots.
/// [`fmt::Display`] renders the imbalance report the CLI prints under
/// `--profile`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
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
    /// Wall time inside the window drivers of finished runs.
    pub drive: Duration,
    /// Per-shard counters of finished runs, indexed by shard: a run of
    /// `S` shards adds to the first `S` entries.
    pub per_shard: Vec<ShardHealth>,
}

/// Read the process-wide sharded-engine counters.
pub fn shard_globals() -> ShardGlobals {
    ShardGlobals {
        windows: G_WINDOWS.load(Ordering::Relaxed),
        events: G_EVENTS.load(Ordering::Relaxed),
        sim_ps_advanced: G_SIM_PS.load(Ordering::Relaxed),
        runs_active: G_RUNS_ACTIVE.load(Ordering::Relaxed),
        runs_total: G_RUNS_TOTAL.load(Ordering::Relaxed),
        drive: Duration::from_nanos(G_DRIVE_NS.load(Ordering::Relaxed)),
        per_shard: G_PER_SHARD.lock().expect("shard table lock").clone(),
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

/// One shard's counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardHealth {
    /// Wall time in windows where this shard popped events.
    pub busy: Duration,
    /// Wall time in windows where this shard had nothing to do.
    pub stall: Duration,
    /// Wall time waiting at window barriers for the other shards.
    pub barrier: Duration,
    /// Wall time of the shard's thread, measured end to end. The laps
    /// above chain on the same instants, so `busy + stall + barrier ==
    /// wall` holds exactly.
    pub wall: Duration,
    /// Windows participated in.
    pub windows: u64,
    /// Events popped.
    pub events: u64,
    /// Cross-shard messages staged.
    pub outbox_msgs: u64,
}

impl ShardHealth {
    fn add(&mut self, o: &ShardHealth) {
        self.busy += o.busy;
        self.stall += o.stall;
        self.barrier += o.barrier;
        self.wall += o.wall;
        self.windows += o.windows;
        self.events += o.events;
        self.outbox_msgs += o.outbox_msgs;
    }

    fn since(&self, o: &ShardHealth) -> ShardHealth {
        ShardHealth {
            busy: self.busy.saturating_sub(o.busy),
            stall: self.stall.saturating_sub(o.stall),
            barrier: self.barrier.saturating_sub(o.barrier),
            wall: self.wall.saturating_sub(o.wall),
            windows: self.windows.saturating_sub(o.windows),
            events: self.events.saturating_sub(o.events),
            outbox_msgs: self.outbox_msgs.saturating_sub(o.outbox_msgs),
        }
    }
}

/// Add the wall time since `*mark` to `bucket` and move `mark` to now,
/// so consecutive laps partition a shard's wall time with no gap.
#[inline]
fn lap(mark: &mut Instant, bucket: &mut Duration) {
    let now = Instant::now();
    *bucket += now - *mark;
    *mark = now;
}

impl ShardGlobals {
    /// The activity between `earlier` and `self`; `runs_active` stays
    /// the later reading.
    pub fn since(&self, earlier: &ShardGlobals) -> ShardGlobals {
        let zero = ShardHealth::default();
        ShardGlobals {
            windows: self.windows.saturating_sub(earlier.windows),
            events: self.events.saturating_sub(earlier.events),
            sim_ps_advanced: self.sim_ps_advanced.saturating_sub(earlier.sim_ps_advanced),
            runs_active: self.runs_active,
            runs_total: self.runs_total.saturating_sub(earlier.runs_total),
            drive: self.drive.saturating_sub(earlier.drive),
            per_shard: self
                .per_shard
                .iter()
                .enumerate()
                .map(|(i, s)| s.since(earlier.per_shard.get(i).unwrap_or(&zero)))
                .collect(),
        }
    }

    /// Busy-time imbalance: max/mean over shards (1.0 = perfectly
    /// balanced; also 1.0 when nothing ran).
    pub fn imbalance(&self) -> f64 {
        let mean = self.mean_busy().as_secs_f64();
        if mean == 0.0 {
            1.0
        } else {
            self.max_busy().as_secs_f64() / mean
        }
    }

    fn max_busy(&self) -> Duration {
        self.per_shard
            .iter()
            .map(|s| s.busy)
            .max()
            .unwrap_or_default()
    }

    fn mean_busy(&self) -> Duration {
        if self.per_shard.is_empty() {
            return Duration::ZERO;
        }
        let total: Duration = self.per_shard.iter().map(|s| s.busy).sum();
        total / self.per_shard.len() as u32
    }

    /// Fraction of the shards' wall time spent in `part`.
    fn fraction(&self, part: impl Fn(&ShardHealth) -> Duration) -> f64 {
        let wall: Duration = self.per_shard.iter().map(|s| s.wall).sum();
        if wall.is_zero() {
            return 0.0;
        }
        let part: Duration = self.per_shard.iter().map(part).sum();
        part.as_secs_f64() / wall.as_secs_f64()
    }

    /// Lookahead efficiency: events popped per shard-window. Low values
    /// mean windows advance mostly empty — the lookahead `L` is small
    /// relative to event spacing.
    fn lookahead_efficiency(&self) -> f64 {
        let shard_windows: u64 = self.per_shard.iter().map(|s| s.windows).sum();
        let events: u64 = self.per_shard.iter().map(|s| s.events).sum();
        if shard_windows == 0 {
            0.0
        } else {
            events as f64 / shard_windows as f64
        }
    }
}

impl fmt::Display for ShardGlobals {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "shard health: {} shards, {} windows, {} events, {} run(s), drive {:.3}s",
            self.per_shard.len(),
            self.windows,
            self.events,
            self.runs_total,
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
            100.0 * self.fraction(|s| s.stall),
            100.0 * self.fraction(|s| s.barrier),
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

/// One shard of a run: the scratch of its rank slice and its clone of
/// the noise prototype.
struct Shard<N> {
    s: RunScratch,
    noise: N,
}

/// Simulate a [`CompiledSchedule`] split across `shards` rank-contiguous
/// shards advanced in lookahead windows. Byte-identical to
/// [`crate::simulate_compiled`]; `noise` is used as a prototype (cloned
/// per shard, each clone only ever queried for that shard's ranks — the
/// per-rank noise substreams consumed are exactly the serial ones).
///
/// `shards <= 1`, a single-rank schedule, or `params.latency == 0` (no
/// usable lookahead) all run [`crate::simulate_compiled`].
pub fn simulate_compiled_sharded<N: NoiseModel + Clone + Send>(
    cs: &CompiledSchedule,
    params: &LogGopsParams,
    shards: usize,
    noise: &N,
) -> Result<SimResult, SimError> {
    let s_eff = shards.min(cs.num_ranks());
    if s_eff <= 1 || params.latency.is_zero() {
        // No usable partition or no lookahead: the serial engine IS the
        // sharded engine with one shard.
        return simulate_compiled(cs, params, &mut noise.clone());
    }

    let cuts = cuts(cs.num_ranks(), s_eff);
    let mut shards: Vec<Shard<N>> = Vec::with_capacity(s_eff);
    for w in cuts.windows(2) {
        let mut s = RunScratch::new();
        start(cs, &mut s, w[0]..w[1])?;
        shards.push(Shard {
            s,
            noise: noise.clone(),
        });
    }
    let events = drive_threaded(cs, *params, &cuts, &mut shards);
    let base = noise.events_injected();
    let noise_events = base
        + shards
            .iter()
            .map(|p| p.noise.events_injected() - base)
            .sum::<u64>();
    let parts: Vec<&RunScratch> = shards.iter().map(|p| &p.s).collect();
    assemble(cs, &parts, noise_events, events)
}

/// Run the window protocol to completion, one OS thread per shard;
/// returns total events processed. Three barriers per window round:
/// after **publishing** local minima (so the leader sees them all),
/// after the leader computes the **window bound** (so everyone reads
/// it), and after **routing** outboxes (so mailbox drains see every
/// message). Mailbox mutexes are uncontended by construction — senders
/// and the draining owner are separated by the route barrier.
fn drive_threaded<N: NoiseModel + Send>(
    cs: &CompiledSchedule,
    params: LogGopsParams,
    cuts: &[u32],
    shards: &mut [Shard<N>],
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

    let health: Vec<ShardHealth> = std::thread::scope(|scope| {
        let threads: Vec<_> = shards
            .iter_mut()
            .enumerate()
            .map(|(i, shard)| {
                let (barrier, mins, wend_ps, prev_m_ps, done, mailboxes) =
                    (&barrier, &mins, &wend_ps, &prev_m_ps, &done, &mailboxes);
                scope.spawn(move || {
                    let Shard { s: scratch, noise } = shard;
                    let mut h = ShardHealth::default();
                    let started = Instant::now();
                    let mut mark = started;
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
                        lap(&mut mark, &mut h.barrier);
                        if done.load(Ordering::SeqCst) {
                            break;
                        }
                        let wend = Time::from_ps(wend_ps.load(Ordering::SeqCst));
                        let popped = Engine {
                            cs,
                            params,
                            topology: &FlatCrossbar,
                            s: &mut *scratch,
                            rec: NullRecorder,
                        }
                        .run_until(noise, wend, |_, _, _, _| ControlFlow::Continue(()));
                        G_EVENTS.fetch_add(popped, Ordering::Relaxed);
                        h.windows += 1;
                        h.events += popped;
                        h.outbox_msgs += scratch.outbox.len() as u64;
                        lap(
                            &mut mark,
                            if popped == 0 {
                                &mut h.stall
                            } else {
                                &mut h.busy
                            },
                        );
                        for (t, key, m) in scratch.outbox.drain(..) {
                            let d = shard_of(cuts, m.dst);
                            mailboxes[d].lock().expect("mailbox lock").push((t, key, m));
                        }
                        lap(&mut mark, &mut h.busy);
                        barrier.wait();
                        lap(&mut mark, &mut h.barrier);
                        for (t, key, m) in mailboxes[i].lock().expect("mailbox lock").drain(..) {
                            scratch.deliver(t, key, m);
                        }
                        lap(&mut mark, &mut h.busy);
                    }
                    h.wall = mark - started;
                    h
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let mut table = G_PER_SHARD.lock().expect("shard table lock");
    if table.len() < s_eff {
        table.resize(s_eff, ShardHealth::default());
    }
    for (total, h) in table.iter_mut().zip(&health) {
        total.add(h);
    }
    drop(table);
    G_DRIVE_NS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    G_RUNS_ACTIVE.fetch_sub(1, Ordering::Relaxed);
    health.iter().map(|h| h.events).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::NoNoise;
    use crate::sim::simulate;
    use cesim_goal::{builder::TagPool, collectives as coll, Rank, Schedule, ScheduleBuilder, Tag};
    use cesim_model::Span;

    fn xc40() -> LogGopsParams {
        LogGopsParams::xc40()
    }

    /// Serializes the tests that run sharded drives: every drive adds to
    /// the process-wide [`shard_globals`] counters, and the counter tests
    /// assert their exact differences across one run.
    static GLOBALS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn lock_globals() -> std::sync::MutexGuard<'static, ()> {
        GLOBALS.lock().unwrap_or_else(|e| e.into_inner())
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
    fn counters_are_conserved_and_count_serial_events() {
        let _globals = lock_globals();
        let sched = busy_schedule(8);
        let cs = CompiledSchedule::compile(&sched);
        let serial = simulate_compiled(&cs, &xc40(), &mut NoNoise).unwrap();
        let before = shard_globals();
        let got = simulate_compiled_sharded(&cs, &xc40(), 4, &NoNoise).unwrap();
        let run = shard_globals().since(&before);
        assert_eq!(got, serial);
        assert_eq!(run.runs_total, 1);
        assert_eq!(run.per_shard.len(), 4);
        assert_eq!(run.events, serial.events_processed);
        assert_eq!(
            run.per_shard.iter().map(|s| s.events).sum::<u64>(),
            serial.events_processed,
            "per-shard events must sum to the serial count"
        );
        assert!(run.windows > 0, "windowed run must advance windows");
        assert!(run.sim_ps_advanced > 0);
        for (i, s) in run.per_shard.iter().enumerate() {
            assert_eq!(s.windows, run.windows, "shard {i} missed windows");
            assert_eq!(
                s.busy + s.stall + s.barrier,
                s.wall,
                "shard {i} time buckets must partition wall time"
            );
        }
        assert!(run.imbalance() >= 1.0);
        assert!(run.lookahead_efficiency() > 0.0);
        // The report renders the headline aggregates.
        let text = run.to_string();
        assert!(text.contains("shard health: 4 shards"), "{text}");
        assert!(text.contains("imbalance"), "{text}");
    }

    #[test]
    fn serial_fallbacks_count_nothing() {
        let _globals = lock_globals();
        let cs = CompiledSchedule::compile(&busy_schedule(5));
        let before = shard_globals();
        simulate_compiled_sharded(&cs, &xc40(), 1, &NoNoise).unwrap();
        simulate_compiled_sharded(&cs, &LogGopsParams::ideal(), 3, &NoNoise).unwrap();
        assert_eq!(shard_globals(), before);
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
