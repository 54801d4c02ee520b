//! Runtime telemetry: a process-wide span profiler and flight recorder.
//!
//! This is the measurement substrate for the runtime itself (the
//! sharded engine, the sweep pipeline, the serve daemon) — as opposed
//! to the *simulation* observability in [`crate::timeline`] /
//! [`crate::provenance`], which records what happens inside the
//! simulated machine. Everything here answers "where did the
//! wall-clock go?" for the simulator's own execution.
//!
//! # The span profiler
//!
//! [`Span::enter("compile")`](Span::enter) returns a guard; dropping it
//! attributes the elapsed wall time to the `"compile"` phase in a
//! global registry. [`Span`] is the only wall-time guard: the same drop
//! also writes flight records and, under an installed request context,
//! a span of that request's trace ([`crate::tracectx`]). Mirroring the
//! engine's `Recorder` contract (`const ENABLED`), spans are designed
//! to be left in release-build hot paths permanently: when the sink is
//! disabled (the default) opening a span is a single relaxed atomic
//! load, no clock is read and nothing is recorded. Phases are surfaced
//! as a [`profile_table`] (the CLI `--profile` flag) and as
//! `cesim_phase_seconds` histograms on the daemon's `GET /metrics`.
//! The registry holds one [`Histogram`] per phase, the same type the
//! daemon keeps its request latencies in.
//!
//! # The flight recorder
//!
//! A bounded queue of the most recent structured telemetry events
//! (span begin/end, shed, panic, cache evict, signal) behind one
//! mutex: a record pushes one event and drops the oldest once
//! [`FLIGHT_CAPACITY`] are held. A panic while the lock is held
//! leaves the ring usable (poisoning is ignored), and the panic
//! hook only `try_lock`s it, so a panic can never deadlock in the
//! hook. The dump — [`flight_dump_json`] — is wired to panic (via
//! [`install_panic_hook`]), to SIGUSR1 in the daemon, and to
//! `GET /v1/debug/flightrec`, so a wedged or slow process can be
//! diagnosed post-hoc without a restart.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, Once, OnceLock, PoisonError, TryLockError};
use std::time::{Duration, Instant};

/// Phase-duration histogram bucket upper bounds, in seconds (a `+Inf`
/// bucket is implicit). Spans sub-millisecond parses to multi-minute
/// full-machine runs.
pub const PHASE_BUCKETS: [f64; 9] = [0.0001, 0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0];

/// Most events the flight ring holds.
pub const FLIGHT_CAPACITY: usize = 4096;

static ENABLED: AtomicBool = AtomicBool::new(false);
static PHASES: Mutex<BTreeMap<&'static str, Histogram>> = Mutex::new(BTreeMap::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Turn the telemetry sink on or off. Off (the default) makes every
/// span and flight-record call a near-no-op; nothing is buffered.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the telemetry sink is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the first telemetry call in this process — the
/// time base for flight-recorder events.
fn mono_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Lock `m`, ignoring poisoning: every registry here stays consistent
/// across a panic (each update is one push or a few counter bumps).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A Prometheus histogram of durations over fixed bucket bounds (in
/// seconds), with optional per-bucket OpenMetrics exemplars.
#[derive(Clone, Debug)]
pub struct Histogram {
    bounds: &'static [f64],
    /// Cumulative counts per bound, then the implicit `+Inf` bucket
    /// (the observation count): an observation lands in every bucket
    /// whose bound is >= its value.
    counts: Vec<u64>,
    sum: Duration,
    /// Per bucket, `(trace id, seconds)` of the latest traced
    /// observation whose lowest bucket it is; empty until the first.
    exemplars: Vec<Option<(String, f64)>>,
}

impl Histogram {
    /// An empty histogram over `bounds` (ascending, in seconds).
    pub fn new(bounds: &'static [f64]) -> Histogram {
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            sum: Duration::ZERO,
            exemplars: Vec::new(),
        }
    }

    /// Record one observation, pinning `trace` (if any) as the exemplar
    /// of the lowest bucket it lands in.
    pub fn observe(&mut self, elapsed: Duration, trace: Option<&str>) {
        let secs = elapsed.as_secs_f64();
        let lowest = self.bounds.partition_point(|b| *b < secs);
        for n in &mut self.counts[lowest..] {
            *n += 1;
        }
        self.sum += elapsed;
        if let Some(trace) = trace {
            self.exemplars.resize(self.counts.len(), None);
            self.exemplars[lowest] = Some((trace.to_string(), secs));
        }
    }

    fn count(&self) -> u64 {
        self.counts[self.bounds.len()]
    }

    /// Append this histogram's `_bucket`/`_sum`/`_count` samples as the
    /// series `name{key="value"}`.
    pub fn render(&self, out: &mut String, name: &str, (key, value): (&str, &str)) {
        for (i, n) in self.counts.iter().enumerate() {
            let le = self.bounds.get(i).map_or("+Inf".into(), f64::to_string);
            let _ = write!(out, "{name}_bucket{{{key}=\"{value}\",le=\"{le}\"}} {n}");
            if let Some(Some((trace, secs))) = self.exemplars.get(i) {
                let _ = write!(out, " # {{trace_id=\"{trace}\"}} {secs}");
            }
            out.push('\n');
        }
        let sum = self.sum.as_secs_f64();
        let _ = writeln!(out, "{name}_sum{{{key}=\"{value}\"}} {sum}");
        let _ = writeln!(out, "{name}_count{{{key}=\"{value}\"}} {}", self.count());
    }
}

/// Append a family's `# HELP` and `# TYPE` lines.
pub fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
}

/// A scoped wall-time span: the one guard behind the profiler, the
/// flight ring and request traces.
///
/// [`Span::enter`] opens a phase span. On drop it folds its elapsed
/// time into the phase registry under its static label and writes
/// `span_begin`/`span_end` flight records. [`tracectx::begin`] and
/// [`tracectx::begin_dyn`] open the same guard with no phase label.
/// Either kind, when the calling thread has a [`crate::tracectx`]
/// context installed (requests inside the serve daemon), also records
/// itself into that request's trace tree. Every span is gated on
/// [`enabled`]: when the sink is off, opening one reads no clock and
/// its drop records nothing.
///
/// [`tracectx::begin`]: crate::tracectx::begin
/// [`tracectx::begin_dyn`]: crate::tracectx::begin_dyn
#[must_use = "a span measures the time until it is dropped"]
pub struct Span {
    /// Profiler and flight-ring label; `None` for trace-only spans.
    phase: Option<&'static str>,
    /// When the span opened; `None` when telemetry was off.
    start: Option<Instant>,
    /// This span's node in the installed trace, if any.
    trace: Option<crate::tracectx::Child>,
}

impl Span {
    /// Open a phase span for `label`. Labels are static so the registry
    /// and the flight recorder never allocate per event.
    #[inline]
    pub fn enter(label: &'static str) -> Span {
        if !enabled() {
            return Span {
                phase: None,
                start: None,
                trace: None,
            };
        }
        flight_record(FlightKind::SpanBegin, label, 0, 0);
        Span {
            phase: Some(label),
            trace: crate::tracectx::open(|| label.to_string()),
            start: Some(Instant::now()),
        }
    }

    /// Open a trace-only span under the thread's installed context;
    /// `None` when telemetry is off or no context is installed.
    pub(crate) fn traced(name: impl FnOnce() -> String) -> Option<Span> {
        if !enabled() {
            return None;
        }
        let trace = crate::tracectx::open(name)?;
        Some(Span {
            phase: None,
            trace: Some(trace),
            start: Some(Instant::now()),
        })
    }

    /// This span's id in the installed trace, if it records into one.
    pub fn id(&self) -> Option<crate::tracectx::SpanId> {
        self.trace.as_ref().map(|t| t.id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed = start.elapsed();
        if let Some(label) = self.phase {
            lock(&PHASES)
                .entry(label)
                .or_insert_with(|| Histogram::new(&PHASE_BUCKETS))
                .observe(elapsed, None);
            flight_record(FlightKind::SpanEnd, label, elapsed.as_nanos() as u64, 0);
        }
        if let Some(trace) = self.trace.take() {
            trace.close(start, elapsed);
        }
    }
}

/// One row of the phase registry, as captured by [`phase_snapshot`].
#[derive(Clone, Debug)]
pub struct PhaseRow {
    /// Phase label as passed to [`Span::enter`].
    pub label: &'static str,
    /// Completed spans.
    pub count: u64,
    /// Total wall time across those spans.
    pub total: Duration,
}

/// Snapshot the phase registry, sorted by label.
pub fn phase_snapshot() -> Vec<PhaseRow> {
    lock(&PHASES)
        .iter()
        .map(|(label, h)| PhaseRow {
            label,
            count: h.count(),
            total: h.sum,
        })
        .collect()
}

/// Clear the phase registry and the flight ring (test isolation and
/// per-run `--profile` scoping). The flight sequence keeps counting.
pub fn reset() {
    lock(&PHASES).clear();
    lock(&RING).events.clear();
}

/// Render the phase breakdown as an aligned text table, with a final
/// machine-parsable `profile-total:` line relating the sum of phase
/// times to `wall` (the enclosing measured wall time). With
/// non-overlapping spans on one thread, coverage approaches 100%.
pub fn profile_table(wall: Duration) -> String {
    let rows = phase_snapshot();
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:>8} {:>12} {:>12} {:>7}\n",
        "phase", "count", "total(s)", "mean(ms)", "%wall"
    ));
    let mut total = Duration::ZERO;
    for r in &rows {
        total += r.total;
        let mean_ms = r.total.as_secs_f64() * 1e3 / r.count.max(1) as f64;
        let pct = percent(r.total, wall);
        out.push_str(&format!(
            "{:<16} {:>8} {:>12.4} {:>12.3} {:>6.1}%\n",
            r.label,
            r.count,
            r.total.as_secs_f64(),
            mean_ms,
            pct
        ));
    }
    out.push_str(&format!(
        "profile-total: phases={:.4}s wall={:.4}s coverage={:.1}%\n",
        total.as_secs_f64(),
        wall.as_secs_f64(),
        percent(total, wall)
    ));
    out
}

fn percent(part: Duration, whole: Duration) -> f64 {
    if whole.is_zero() {
        0.0
    } else {
        100.0 * part.as_secs_f64() / whole.as_secs_f64()
    }
}

/// Append `cesim_phase_seconds` Prometheus histograms (one label set
/// per phase) to `out`. Deterministically ordered; empty when no spans
/// have completed.
pub fn render_prometheus(out: &mut String) {
    let phases = lock(&PHASES);
    if phases.is_empty() {
        return;
    }
    let name = "cesim_phase_seconds";
    let help = "Wall time per pipeline phase (span profiler).";
    family(out, name, "histogram", help);
    for (label, h) in phases.iter() {
        h.render(out, name, ("phase", label));
    }
}

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

/// What a flight-recorder event describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlightKind {
    /// A profiling span opened (`a`/`b` unused).
    SpanBegin,
    /// A profiling span closed (`a` = duration in ns).
    SpanEnd,
    /// The daemon shed a connection with 429 (`a` = queue depth).
    Shed,
    /// A panic was observed (`a`/`b` unused).
    Panic,
    /// A cache evicted an entry (`a` = entries after eviction).
    CacheEvict,
    /// A diagnostic signal (SIGUSR1) arrived.
    Signal,
}

impl FlightKind {
    fn name(self) -> &'static str {
        match self {
            FlightKind::SpanBegin => "span_begin",
            FlightKind::SpanEnd => "span_end",
            FlightKind::Shed => "shed",
            FlightKind::Panic => "panic",
            FlightKind::CacheEvict => "cache_evict",
            FlightKind::Signal => "signal",
        }
    }
}

/// One flight-recorder event.
#[derive(Clone, Debug)]
pub struct FlightEvent {
    /// Global 1-based sequence number of the event.
    pub seq: u64,
    /// Nanoseconds since the telemetry epoch.
    pub t_ns: u64,
    /// Event kind.
    pub kind: FlightKind,
    /// Label (span name, cache name, ...).
    pub label: &'static str,
    /// Kind-specific payload.
    pub a: u64,
    /// Kind-specific payload.
    pub b: u64,
    /// Trace id of the request the event belongs to (0 when the event
    /// was recorded outside any request context).
    pub trace: u128,
}

/// The flight ring: the newest events, oldest first, and how many were
/// ever recorded (the last event's `seq`).
struct Ring {
    events: VecDeque<FlightEvent>,
    total: u64,
}

static RING: Mutex<Ring> = Mutex::new(Ring {
    events: VecDeque::new(),
    total: 0,
});

impl Ring {
    fn push(&mut self, kind: FlightKind, label: &'static str, a: u64, b: u64) {
        if self.events.len() == FLIGHT_CAPACITY {
            self.events.pop_front();
        }
        if self.events.capacity() == 0 {
            // The ring's one allocation, on its first record.
            self.events.reserve_exact(FLIGHT_CAPACITY);
        }
        self.total += 1;
        self.events.push_back(FlightEvent {
            seq: self.total,
            t_ns: mono_ns(),
            kind,
            label,
            a,
            b,
            trace: crate::tracectx::current_trace_id().map_or(0, |t| t.0),
        });
    }

    /// The ring as a JSON object: metadata plus the events, oldest first.
    fn dump_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        let _ = write!(
            out,
            "{{\"total\":{},\"capacity\":{FLIGHT_CAPACITY},\"events\":[",
            self.total
        );
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"seq\":{},\"t_us\":{},\"kind\":\"{}\",\"label\":",
                e.seq,
                e.t_ns / 1_000,
                e.kind.name(),
            );
            cesim_json::write_escaped(e.label, &mut out);
            let _ = write!(out, ",\"a\":{},\"b\":{}", e.a, e.b);
            if e.trace != 0 {
                let _ = write!(out, ",\"trace_id\":\"{:032x}\"", e.trace);
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Record one flight event. A near-no-op when telemetry is disabled.
/// Events recorded on a thread with a [`crate::tracectx`] context
/// installed are stamped with its trace id, so flightrec dumps
/// cross-correlate with access logs and stored traces.
pub fn flight_record(kind: FlightKind, label: &'static str, a: u64, b: u64) {
    if enabled() {
        lock(&RING).push(kind, label, a, b);
    }
}

/// Total flight events recorded since process start (including ones
/// the ring has since dropped).
pub fn flight_total() -> u64 {
    lock(&RING).total
}

/// Snapshot the ring, oldest first.
pub fn flight_snapshot() -> Vec<FlightEvent> {
    lock(&RING).events.iter().cloned().collect()
}

/// Dump the flight recorder as a JSON object: ring metadata plus the
/// surviving events, oldest first.
pub fn flight_dump_json() -> String {
    lock(&RING).dump_json()
}

/// Install a panic hook that records a [`FlightKind::Panic`] event and
/// dumps the flight recorder to stderr before delegating to the
/// previous hook. Idempotent; a no-op chain when telemetry is
/// disabled at panic time, and when the ring is locked (by the
/// panicking thread itself, or another writer mid-record).
pub fn install_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if enabled() {
                let ring = match RING.try_lock() {
                    Ok(ring) => Some(ring),
                    Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
                    Err(TryLockError::WouldBlock) => None,
                };
                if let Some(mut ring) = ring {
                    ring.push(FlightKind::Panic, "panic", 0, 0);
                    eprintln!("cesim-flightrec: {}", ring.dump_json());
                }
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The registry, ring and enabled flag are process-global; every
    /// test that touches them serializes on this lock.
    fn sink_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Run `f` under [`sink_lock`] with a clean, enabled sink.
    pub(crate) fn with_sink<T>(f: impl FnOnce() -> T) -> T {
        let _g = sink_lock();
        reset();
        set_enabled(true);
        let out = f();
        set_enabled(false);
        reset();
        out
    }

    #[test]
    fn disabled_span_records_nothing() {
        // Under the sink lock: clearing the process-wide flag while a
        // sink test runs would silently drop that test's writes.
        let _g = sink_lock();
        let before = flight_total();
        set_enabled(false);
        {
            let _s = Span::enter("never");
        }
        assert!(phase_snapshot().iter().all(|r| r.label != "never"));
        assert_eq!(flight_total(), before);
    }

    #[test]
    fn span_attributes_time_to_phase() {
        with_sink(|| {
            {
                let _s = Span::enter("unit_test_phase");
                std::thread::sleep(Duration::from_millis(2));
            }
            let rows = phase_snapshot();
            let r = rows
                .iter()
                .find(|r| r.label == "unit_test_phase")
                .expect("phase recorded");
            assert_eq!(r.count, 1);
            assert!(r.total >= Duration::from_millis(2));
        });
    }

    #[test]
    fn profile_table_reports_coverage() {
        with_sink(|| {
            {
                let _a = Span::enter("alpha");
                std::thread::sleep(Duration::from_millis(1));
            }
            let table = profile_table(Duration::from_millis(10));
            assert!(table.contains("alpha"), "{table}");
            assert!(table.contains("profile-total:"), "{table}");
            assert!(table.contains("wall=0.0100s"), "{table}");
        });
    }

    #[test]
    fn flight_ring_keeps_most_recent() {
        with_sink(|| {
            let base = flight_total();
            for i in 0..(FLIGHT_CAPACITY as u64 + 10) {
                flight_record(FlightKind::Shed, "overflow", i, 0);
            }
            let events = flight_snapshot();
            assert_eq!(events.len(), FLIGHT_CAPACITY);
            // Oldest surviving record is the 11th written in this test
            // (the ticket counter is global and never resets).
            assert_eq!(events.first().unwrap().seq, base + 11);
            assert_eq!(events.last().unwrap().a, FLIGHT_CAPACITY as u64 + 9);
            // Monotone sequence, no duplicates.
            for w in events.windows(2) {
                assert!(w[0].seq < w[1].seq);
            }
        });
    }

    #[test]
    fn poisoned_ring_still_records_and_dumps() {
        with_sink(|| {
            // Under the hook, which only try-locks the ring: a blocking
            // lock would deadlock on the lock the panicking thread holds.
            install_panic_hook();
            let poisoner = std::thread::spawn(|| {
                let _ring = lock(&RING);
                panic!("panic while holding the flight ring");
            });
            assert!(poisoner.join().is_err() && RING.is_poisoned());
            flight_record(FlightKind::Signal, "after_poison", 7, 0);
            let last = flight_snapshot().pop().expect("recorded");
            assert_eq!((last.label, last.a), ("after_poison", 7));
            assert_eq!(last.seq, flight_total());
            cesim_json::JsonValue::parse(&flight_dump_json()).expect("dump parses");
        });
    }

    #[test]
    fn flight_dump_is_valid_json() {
        with_sink(|| {
            flight_record(FlightKind::CacheEvict, "schedule", 3, 0);
            flight_record(FlightKind::Signal, "tab\tlabel", 0, 0);
            {
                let _s = Span::enter("dumped");
            }
            let dump = flight_dump_json();
            let v = cesim_json::JsonValue::parse(&dump).expect("dump parses");
            let events = v.get("events").and_then(|e| e.as_array()).unwrap();
            assert!(!events.is_empty());
            assert!(v.get("capacity").and_then(|c| c.as_u64()).unwrap() == FLIGHT_CAPACITY as u64);
            let kinds: Vec<_> = events
                .iter()
                .filter_map(|e| e.get("kind").and_then(|k| k.as_str()))
                .collect();
            assert!(kinds.contains(&"cache_evict"), "{kinds:?}");
            assert!(kinds.contains(&"span_begin"), "{kinds:?}");
            assert!(kinds.contains(&"span_end"), "{kinds:?}");
            let labels: Vec<_> = events
                .iter()
                .filter_map(|e| e.get("label").and_then(|l| l.as_str()))
                .collect();
            assert!(labels.contains(&"tab\tlabel"), "{labels:?}");
        });
    }

    #[test]
    fn prometheus_rendering_is_wellformed() {
        with_sink(|| {
            {
                let _s = Span::enter("render_me");
            }
            let mut out = String::new();
            render_prometheus(&mut out);
            assert!(out.contains("# TYPE cesim_phase_seconds histogram"));
            assert!(out.contains("cesim_phase_seconds_bucket{phase=\"render_me\",le=\"+Inf\"} 1"));
            assert!(out.contains("cesim_phase_seconds_count{phase=\"render_me\"} 1"));
        });
    }

    #[test]
    fn spans_and_flight_events_carry_the_installed_trace() {
        // One guard, three sinks: a phase span feeds the profiler, the
        // flight ring and the installed trace; a trace-only span feeds
        // the trace alone; with telemetry off neither records anything.
        use crate::tracectx::{begin_dyn, TraceCtx};
        let _g = sink_lock();
        reset();
        set_enabled(false);
        let ctx = TraceCtx::new_root("GET /t", None);
        let before = flight_total();
        {
            let _c = ctx.install();
            let _s = Span::enter("off_phase");
            assert!(begin_dyn("off dyn".into()).is_none());
        }
        assert_eq!(flight_total(), before, "no flight records while off");
        assert!(phase_snapshot().is_empty(), "no phases while off");

        set_enabled(true);
        let mark = {
            let _c = ctx.install();
            drop(Span::enter("traced_phase"));
            let mark = flight_total();
            drop(begin_dyn("traced dyn".into()).expect("context installed"));
            mark
        };
        set_enabled(false);
        assert_eq!(flight_total(), mark, "begin_dyn writes no flight records");
        let fin = ctx.finish(200, false);
        let names: Vec<_> = fin.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["traced_phase", "traced dyn"], "trace sink");
        let labels: Vec<_> = phase_snapshot().iter().map(|r| r.label).collect();
        assert_eq!(labels, ["traced_phase"], "profiler sink");
        let flights: Vec<_> = flight_snapshot()
            .iter()
            .filter(|e| e.trace == fin.trace_id.0)
            .map(|e| (e.kind, e.label))
            .collect();
        let want = [FlightKind::SpanBegin, FlightKind::SpanEnd].map(|k| (k, "traced_phase"));
        assert_eq!(
            flights, want,
            "flight events under the context carry its id"
        );
        let dump = flight_dump_json();
        assert!(dump.contains(&fin.trace_id.to_string()), "{dump}");
        reset();
    }

    #[test]
    fn concurrent_flight_writers_never_tear_the_snapshot() {
        with_sink(|| {
            let threads: Vec<_> = (0..4)
                .map(|t| {
                    std::thread::spawn(move || {
                        for i in 0..2000u64 {
                            flight_record(FlightKind::Shed, "stress", t * 10_000 + i, i);
                        }
                    })
                })
                .collect();
            for t in threads {
                t.join().unwrap();
            }
            let events = flight_snapshot();
            assert!(!events.is_empty());
            for w in events.windows(2) {
                assert!(w[0].seq < w[1].seq, "duplicate or unsorted seq");
            }
        });
    }
}
