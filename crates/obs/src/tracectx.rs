//! Request-scoped distributed tracing.
//!
//! The span profiler in [`crate::telemetry`] answers "where does wall
//! time go *in aggregate*"; this module answers "where did **this
//! request** spend its time". Each request entering the serve daemon
//! gets a [`TraceCtx`] — a 128-bit [`TraceId`] plus a root [`SpanId`] —
//! either freshly generated or adopted from an incoming W3C
//! `traceparent` header ([`parse_traceparent`]). The context is
//! installed thread-locally ([`TraceCtx::install`]) and cloned across
//! worker threads (rayon sweep cells, replica runs, fleet jobs), so
//! every [`telemetry::Span`](crate::telemetry::Span) opened anywhere
//! under the request records a [`SpanRec`] into the request's bounded
//! span buffer — parse → cache_lookup → compile → run → serialize,
//! with child spans per sweep cell and per replica. Phase spans
//! ([`Span::enter`]) also feed the profiler and the flight ring;
//! [`begin`] / [`begin_dyn`] open the same guard with no phase label,
//! so they feed the trace alone.
//!
//! Completed traces are offered to a [`TraceStore`]: a tail-sampling
//! ring that keeps the last [`RECENT_CAP`] traces and *always* retains
//! errors, 429 sheds, and the rolling slowest cohort, so the traces
//! worth debugging survive churn from healthy traffic. The daemon
//! serves the store at `GET /v1/debug/traces` (summaries) and
//! `GET /v1/debug/traces/:id` (full tree, plus a Chrome `trace_event`
//! rendering via [`crate::chrome::export_request_trace`]).
//!
//! # Cost model
//!
//! Tracing rides the same master switch as the rest of the telemetry
//! sink: when [`telemetry::enabled()`](crate::telemetry::enabled) is
//! false no span records anything, installed context or not, and when
//! it is enabled but no context is installed (CLI figure runs),
//! [`begin`] is one thread-local read returning `None`. Id generation
//! never reads the wall clock: ids are a process-global counter mixed
//! with a [`RandomState`]-keyed hash, unique in-process by construction
//! and distinct across processes with overwhelming probability.

use std::cell::RefCell;
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::telemetry::Span;

/// Maximum spans buffered per trace; later spans are counted in
/// [`FinishedTrace::dropped`] instead of buffered.
pub const MAX_SPANS: usize = 4096;

/// Completed traces kept in the store's recency ring.
pub const RECENT_CAP: usize = 256;

/// Error / shed traces retained regardless of recency churn.
pub const ERROR_CAP: usize = 64;

/// Slowest-cohort traces retained regardless of recency churn.
pub const SLOW_CAP: usize = 32;

// ---------------------------------------------------------------------
// Ids
// ---------------------------------------------------------------------

/// 128-bit trace identifier (W3C `trace-id`), nonzero.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u128);

/// 64-bit span identifier (W3C `parent-id`), nonzero.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl TraceId {
    /// Parse exactly 32 hex digits into a nonzero trace id.
    pub fn parse_hex(s: &str) -> Option<TraceId> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u128::from_str_radix(s, 16)
            .ok()
            .filter(|v| *v != 0)
            .map(TraceId)
    }
}

impl SpanId {
    /// Parse exactly 16 hex digits into a nonzero span id.
    pub fn parse_hex(s: &str) -> Option<SpanId> {
        if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u64::from_str_radix(s, 16)
            .ok()
            .filter(|v| *v != 0)
            .map(SpanId)
    }
}

static ID_KEY: OnceLock<RandomState> = OnceLock::new();
static ID_COUNTER: AtomicU64 = AtomicU64::new(1);

fn keyed_hash(n: u64) -> u64 {
    let mut h = ID_KEY.get_or_init(RandomState::new).build_hasher();
    h.write_u64(0x6365_7369_6d74_7278); // "cesimtrx" domain separator
    h.write_u64(n);
    h.finish()
}

/// Next process-unique nonzero span id (a monotone counter: collisions
/// are impossible, and the low bits double as creation order).
fn next_span_id() -> SpanId {
    SpanId(ID_COUNTER.fetch_add(1, Ordering::Relaxed))
}

/// Next trace id: low 64 bits are the process-unique counter (so two
/// traces from one process can never collide), high 64 bits a keyed
/// hash of it (so traces from different processes almost surely
/// differ). Nonzero because the counter starts at 1.
fn next_trace_id() -> TraceId {
    let n = ID_COUNTER.fetch_add(1, Ordering::Relaxed);
    TraceId(((keyed_hash(n) as u128) << 64) | n as u128)
}

// ---------------------------------------------------------------------
// traceparent
// ---------------------------------------------------------------------

/// Parse a W3C `traceparent` header value. Returns the remote trace id
/// and parent span id, or `None` for anything malformed (wrong field
/// widths, non-hex, all-zero ids, version `ff`, trailing fields on
/// version `00`) — callers fall back to fresh ids, never to an error.
pub fn parse_traceparent(s: &str) -> Option<(TraceId, SpanId)> {
    let mut parts = s.trim().split('-');
    let ver = parts.next()?;
    if ver.len() != 2 || !ver.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    if ver.eq_ignore_ascii_case("ff") {
        return None;
    }
    let trace = TraceId::parse_hex(parts.next()?)?;
    let span = SpanId::parse_hex(parts.next()?)?;
    let flags = parts.next()?;
    if flags.len() != 2 || !flags.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    // Version 00 defines exactly four fields; future versions may add
    // more, which we tolerate (and ignore) per the spec.
    if ver == "00" && parts.next().is_some() {
        return None;
    }
    Some((trace, span))
}

/// Render a version-00 `traceparent` value with the sampled flag set.
pub fn format_traceparent(trace: TraceId, span: SpanId) -> String {
    format!("00-{trace}-{span}-01")
}

// ---------------------------------------------------------------------
// Trace context and spans
// ---------------------------------------------------------------------

/// One buffered span of a request trace.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// This span's id.
    pub id: SpanId,
    /// Parent span id (the root span for top-level phases).
    pub parent: SpanId,
    /// Span name ("parse", "cell n512 fw", "replica 3", ...).
    pub name: String,
    /// Start offset from the trace root, nanoseconds.
    pub start_ns: u64,
    /// Span duration, nanoseconds.
    pub dur_ns: u64,
}

struct TraceInner {
    trace_id: TraceId,
    root: SpanId,
    remote_parent: Option<SpanId>,
    name: String,
    started: Instant,
    spans: Mutex<Vec<SpanRec>>,
    dropped: AtomicU64,
}

/// A live request trace: shared span buffer plus this handle's current
/// parent span. Cloning is cheap (one `Arc`); clones installed on other
/// threads record into the same buffer, parented at whatever span was
/// current when the clone was taken.
#[derive(Clone)]
pub struct TraceCtx {
    inner: Arc<TraceInner>,
    parent: SpanId,
}

thread_local! {
    static CURRENT: RefCell<Option<TraceCtx>> = const { RefCell::new(None) };
}

impl TraceCtx {
    /// Open a trace rooted at `name` (conventionally `"METHOD /path"`).
    /// With `adopted` ids from a `traceparent` header the trace joins
    /// the caller's distributed trace: same trace id, and the root span
    /// is parented under the remote span in exports.
    pub fn new_root(name: impl Into<String>, adopted: Option<(TraceId, SpanId)>) -> TraceCtx {
        TraceCtx::new_root_at(name, adopted, Instant::now())
    }

    /// [`TraceCtx::new_root`] for a request whose wall time began at
    /// `started`, before its name was known: the daemon accepts a
    /// connection, queues it, and reads the request line only then.
    pub fn new_root_at(
        name: impl Into<String>,
        adopted: Option<(TraceId, SpanId)>,
        started: Instant,
    ) -> TraceCtx {
        let (trace_id, remote_parent) = match adopted {
            Some((t, s)) => (t, Some(s)),
            None => (next_trace_id(), None),
        };
        let root = next_span_id();
        TraceCtx {
            inner: Arc::new(TraceInner {
                trace_id,
                root,
                remote_parent,
                name: name.into(),
                started,
                spans: Mutex::new(Vec::new()),
                dropped: AtomicU64::new(0),
            }),
            parent: root,
        }
    }

    /// The trace id.
    pub fn trace_id(&self) -> TraceId {
        self.inner.trace_id
    }

    /// `traceparent` value identifying this trace's root span —
    /// what the daemon echoes back in the response header.
    pub fn traceparent(&self) -> String {
        format_traceparent(self.inner.trace_id, self.inner.root)
    }

    /// Install this context as the calling thread's current trace;
    /// the returned guard restores the previous state on drop.
    #[must_use = "dropping the guard immediately uninstalls the context"]
    pub fn install(&self) -> CtxGuard {
        let prev = CURRENT.with(|c| c.borrow_mut().replace(self.clone()));
        CtxGuard { prev }
    }

    /// Record a span that ran from `start` to `end` under this handle's
    /// parent span: a phase timed before the trace existed.
    pub fn record_span(&self, name: &str, start: Instant, end: Instant) {
        self.push(SpanRec {
            id: next_span_id(),
            parent: self.parent,
            name: name.to_string(),
            start_ns: start
                .saturating_duration_since(self.inner.started)
                .as_nanos() as u64,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
        });
    }

    fn push(&self, rec: SpanRec) {
        let mut spans = self.inner.spans.lock().expect("trace span buffer lock");
        if spans.len() >= MAX_SPANS {
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            spans.push(rec);
        }
    }

    /// Close the trace: snapshot the span buffer and the root duration.
    /// Call once, after the response is determined.
    pub fn finish(&self, status: u16, shed: bool) -> FinishedTrace {
        let dur_ns = self.inner.started.elapsed().as_nanos() as u64;
        let spans = self
            .inner
            .spans
            .lock()
            .expect("trace span buffer lock")
            .clone();
        FinishedTrace {
            trace_id: self.inner.trace_id,
            root: self.inner.root,
            remote_parent: self.inner.remote_parent,
            name: self.inner.name.clone(),
            status,
            shed,
            dur_ns,
            dropped: self.inner.dropped.load(Ordering::Relaxed),
            spans,
        }
    }
}

/// Guard restoring the thread's previous trace context; see
/// [`TraceCtx::install`].
pub struct CtxGuard {
    prev: Option<TraceCtx>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// Clone of the calling thread's current trace context, if any. The
/// clone's parent is the span that was open at the time of the call —
/// installing it on another thread parents that thread's spans there.
pub fn current() -> Option<TraceCtx> {
    CURRENT.with(|c| c.borrow().clone())
}

/// The current thread's trace id, if a context is installed. Cheap
/// enough for per-event use (one thread-local read, no allocation).
pub fn current_trace_id() -> Option<TraceId> {
    CURRENT.with(|c| c.borrow().as_ref().map(|t| t.inner.trace_id))
}

/// Open a trace-only [`Span`] under the thread's current trace: `None`
/// when telemetry is off or no context is installed. The span records
/// itself on drop and nests: spans begun while it is live become its
/// children.
pub fn begin(name: &'static str) -> Option<Span> {
    Span::traced(|| name.to_string())
}

/// [`begin`] with a computed name (sweep cells, replicas). Callers on
/// untraced paths skip building the name by checking [`current`] first.
pub fn begin_dyn(name: String) -> Option<Span> {
    Span::traced(|| name)
}

/// A live span's node in the thread's trace, held by its [`Span`] from
/// [`open`] until [`Child::close`].
pub(crate) struct Child {
    /// The trace, parented at the span that encloses this one.
    ctx: TraceCtx,
    pub(crate) id: SpanId,
    name: String,
}

/// Open a child of the thread's current span, making it the parent of
/// spans opened after it; `None` when no context is installed.
pub(crate) fn open(name: impl FnOnce() -> String) -> Option<Child> {
    CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        let ctx = cur.as_mut()?;
        let id = next_span_id();
        let parent = std::mem::replace(&mut ctx.parent, id);
        Some(Child {
            ctx: TraceCtx {
                inner: ctx.inner.clone(),
                parent,
            },
            id,
            name: name(),
        })
    })
}

impl Child {
    /// Record the span as a [`SpanRec`] and restore the thread's parent.
    pub(crate) fn close(self, start: Instant, dur: Duration) {
        // Restore the parent chain only if this trace is still the
        // thread's current one and we are the innermost span (guards
        // against out-of-order drops across install scopes).
        CURRENT.with(|c| {
            if let Some(cur) = c.borrow_mut().as_mut() {
                if Arc::ptr_eq(&cur.inner, &self.ctx.inner) && cur.parent == self.id {
                    cur.parent = self.ctx.parent;
                }
            }
        });
        let start_ns = start
            .saturating_duration_since(self.ctx.inner.started)
            .as_nanos() as u64;
        self.ctx.push(SpanRec {
            id: self.id,
            parent: self.ctx.parent,
            name: self.name,
            start_ns,
            dur_ns: dur.as_nanos() as u64,
        });
    }
}

// ---------------------------------------------------------------------
// Finished traces and the tail-sampled store
// ---------------------------------------------------------------------

/// An immutable completed trace.
#[derive(Clone, Debug)]
pub struct FinishedTrace {
    /// Trace id (own or adopted from `traceparent`).
    pub trace_id: TraceId,
    /// Root span id.
    pub root: SpanId,
    /// Remote parent span id when the trace was adopted.
    pub remote_parent: Option<SpanId>,
    /// Root name, conventionally `"METHOD /path"`.
    pub name: String,
    /// HTTP status of the response.
    pub status: u16,
    /// Whether the request was shed (429 at the accept queue).
    pub shed: bool,
    /// Root wall time in nanoseconds.
    pub dur_ns: u64,
    /// Spans discarded past the [`MAX_SPANS`] buffer cap.
    pub dropped: u64,
    /// Buffered spans (excluding the implicit root).
    pub spans: Vec<SpanRec>,
}

/// Minimal root-only trace for a request shed at the accept queue
/// (the request never reached a worker, so there is nothing to span).
pub fn shed_trace() -> FinishedTrace {
    FinishedTrace {
        trace_id: next_trace_id(),
        root: next_span_id(),
        remote_parent: None,
        name: "shed".into(),
        status: 429,
        shed: true,
        dur_ns: 0,
        dropped: 0,
        spans: Vec::new(),
    }
}

/// Fraction of the root's wall time covered by the union of its direct
/// children's intervals (clamped to the root). 1.0 for an empty root.
pub fn root_coverage(t: &FinishedTrace) -> f64 {
    if t.dur_ns == 0 {
        return 1.0;
    }
    let mut ivals: Vec<(u64, u64)> = t
        .spans
        .iter()
        .filter(|s| s.parent == t.root)
        .map(|s| {
            (
                s.start_ns.min(t.dur_ns),
                (s.start_ns + s.dur_ns).min(t.dur_ns),
            )
        })
        .collect();
    ivals.sort_unstable();
    let mut covered = 0u64;
    let mut end = 0u64;
    for (s, e) in ivals {
        let s = s.max(end);
        if e > s {
            covered += e - s;
            end = e;
        }
    }
    covered as f64 / t.dur_ns as f64
}

/// One row of the store's summary listing.
#[derive(Clone, Debug)]
pub struct TraceSummary {
    /// Trace id.
    pub trace_id: TraceId,
    /// Root name.
    pub name: String,
    /// Response status.
    pub status: u16,
    /// Whether the request was shed.
    pub shed: bool,
    /// Root wall time in nanoseconds.
    pub dur_ns: u64,
    /// Buffered span count.
    pub spans: usize,
    /// Store admission order (higher = newer).
    pub seq: u64,
}

struct Stored {
    seq: u64,
    trace: Arc<FinishedTrace>,
}

#[derive(Default)]
struct StoreInner {
    seq: u64,
    recent: VecDeque<Stored>,
    errors: VecDeque<Stored>,
    slow: Vec<Stored>,
}

/// Tail-sampling store of completed traces.
///
/// Three pools, each bounded: a FIFO ring of the last [`RECENT_CAP`]
/// traces, a FIFO ring of the last [`ERROR_CAP`] error/shed traces
/// (status ≥ 400), and the [`SLOW_CAP`] slowest traces seen (evicting
/// the current minimum). A trace may sit in several pools; lookups
/// search all three, so errors and tail latency survive arbitrarily
/// long after healthy traffic has churned the recency ring.
#[derive(Default)]
pub struct TraceStore {
    inner: Mutex<StoreInner>,
}

impl TraceStore {
    /// Empty store.
    pub fn new() -> TraceStore {
        TraceStore::default()
    }

    /// Admit a completed trace into every pool whose policy it matches.
    pub fn offer(&self, t: FinishedTrace) {
        let t = Arc::new(t);
        let mut s = self.inner.lock().expect("trace store lock");
        s.seq += 1;
        let seq = s.seq;
        if t.status >= 400 || t.shed {
            if s.errors.len() >= ERROR_CAP {
                s.errors.pop_front();
            }
            s.errors.push_back(Stored {
                seq,
                trace: t.clone(),
            });
        }
        if s.slow.len() < SLOW_CAP {
            s.slow.push(Stored {
                seq,
                trace: t.clone(),
            });
        } else if let Some(min_i) = s
            .slow
            .iter()
            .enumerate()
            .min_by_key(|(_, st)| st.trace.dur_ns)
            .map(|(i, _)| i)
        {
            if t.dur_ns > s.slow[min_i].trace.dur_ns {
                s.slow[min_i] = Stored {
                    seq,
                    trace: t.clone(),
                };
            }
        }
        if s.recent.len() >= RECENT_CAP {
            s.recent.pop_front();
        }
        s.recent.push_back(Stored { seq, trace: t });
    }

    /// Look a trace up by id across all pools (newest match wins).
    pub fn get(&self, id: TraceId) -> Option<Arc<FinishedTrace>> {
        let s = self.inner.lock().expect("trace store lock");
        s.recent
            .iter()
            .rev()
            .chain(s.errors.iter().rev())
            .chain(s.slow.iter())
            .find(|st| st.trace.trace_id == id)
            .map(|st| st.trace.clone())
    }

    /// Summaries of every retained trace, newest first, deduplicated
    /// across pools.
    pub fn summaries(&self) -> Vec<TraceSummary> {
        let s = self.inner.lock().expect("trace store lock");
        let mut best: BTreeMap<TraceId, (u64, &Arc<FinishedTrace>)> = BTreeMap::new();
        for st in s.recent.iter().chain(s.errors.iter()).chain(s.slow.iter()) {
            let e = best.entry(st.trace.trace_id).or_insert((st.seq, &st.trace));
            if st.seq > e.0 {
                *e = (st.seq, &st.trace);
            }
        }
        let mut out: Vec<TraceSummary> = best
            .into_values()
            .map(|(seq, t)| TraceSummary {
                trace_id: t.trace_id,
                name: t.name.clone(),
                status: t.status,
                shed: t.shed,
                dur_ns: t.dur_ns,
                spans: t.spans.len(),
                seq,
            })
            .collect();
        out.sort_unstable_by_key(|s| std::cmp::Reverse(s.seq));
        out
    }
}

// ---------------------------------------------------------------------
// JSON rendering
// ---------------------------------------------------------------------

/// Render store summaries as the `/v1/debug/traces` JSON document.
pub fn summary_json(summaries: &[TraceSummary]) -> String {
    let mut out = String::with_capacity(64 + summaries.len() * 128);
    out.push_str(&format!("{{\"count\":{},\"traces\":[", summaries.len()));
    for (i, s) in summaries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"trace_id\":\"{}\",\"name\":", s.trace_id));
        cesim_json::write_escaped(&s.name, &mut out);
        out.push_str(&format!(
            ",\"status\":{},\"shed\":{},\"dur_ns\":{},\"spans\":{}}}",
            s.status, s.shed, s.dur_ns, s.spans
        ));
    }
    out.push_str("]}");
    out
}

/// Render a full trace as a span-tree JSON document (the
/// `/v1/debug/traces/:id` body). Spans whose parent was dropped from
/// the buffer re-attach to the root so the tree always accounts for
/// every retained span.
pub fn trace_json(t: &FinishedTrace) -> String {
    let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let known: std::collections::BTreeSet<u64> =
        t.spans.iter().map(|s| s.id.0).chain([t.root.0]).collect();
    for (i, s) in t.spans.iter().enumerate() {
        let parent = if known.contains(&s.parent.0) {
            s.parent.0
        } else {
            t.root.0
        };
        children.entry(parent).or_default().push(i);
    }
    for kids in children.values_mut() {
        kids.sort_by_key(|&i| (t.spans[i].start_ns, t.spans[i].id.0));
    }

    fn render(
        out: &mut String,
        t: &FinishedTrace,
        children: &BTreeMap<u64, Vec<usize>>,
        id: SpanId,
        name: &str,
        start_ns: u64,
        dur_ns: u64,
    ) {
        out.push_str(&format!("{{\"span_id\":\"{id}\",\"name\":"));
        cesim_json::write_escaped(name, out);
        out.push_str(&format!(
            ",\"start_ns\":{start_ns},\"dur_ns\":{dur_ns},\"children\":["
        ));
        if let Some(kids) = children.get(&id.0) {
            for (i, &k) in kids.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let s = &t.spans[k];
                render(out, t, children, s.id, &s.name, s.start_ns, s.dur_ns);
            }
        }
        out.push_str("]}");
    }

    let mut out = String::with_capacity(256 + t.spans.len() * 128);
    out.push_str(&format!(
        "{{\"trace_id\":\"{}\",\"traceparent\":\"{}\",\"name\":",
        t.trace_id,
        format_traceparent(t.trace_id, t.root),
    ));
    cesim_json::write_escaped(&t.name, &mut out);
    out.push_str(&format!(
        ",\"status\":{},\"shed\":{},\"dur_ns\":{},\"span_count\":{},\"dropped\":{},",
        t.status,
        t.shed,
        t.dur_ns,
        t.spans.len(),
        t.dropped
    ));
    if let Some(rp) = t.remote_parent {
        out.push_str(&format!("\"remote_parent\":\"{rp}\","));
    }
    out.push_str("\"root\":");
    render(&mut out, t, &children, t.root, &t.name, 0, t.dur_ns);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::tests::with_sink;
    use std::collections::HashSet;

    #[test]
    fn traceparent_roundtrip() {
        let t = next_trace_id();
        let s = next_span_id();
        let hdr = format_traceparent(t, s);
        assert_eq!(parse_traceparent(&hdr), Some((t, s)));
        // Uppercase hex and surrounding whitespace are tolerated.
        assert!(parse_traceparent(&format!(" {} ", hdr.to_uppercase())).is_some());
    }

    #[test]
    fn malformed_traceparents_are_rejected() {
        for bad in [
            "",
            "00",
            "00-abc-def-01",
            "zz-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
            "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
            "00-00000000000000000000000000000000-b7ad6b7169203331-01",
            "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",
            "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-0",
            "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra",
            "00-0af7651916cd43dd8448eb211c80319g-b7ad6b7169203331-01",
        ] {
            assert_eq!(parse_traceparent(bad), None, "{bad:?} should be rejected");
        }
        // Future versions may carry extra fields.
        assert!(
            parse_traceparent("cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-what")
                .is_some()
        );
    }

    #[test]
    fn concurrent_ids_never_collide() {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    (0..200)
                        .map(|_| TraceCtx::new_root("t", None).trace_id())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut seen = HashSet::new();
        for h in handles {
            for id in h.join().unwrap() {
                assert_ne!(id.0, 0);
                assert!(seen.insert(id), "duplicate trace id {id}");
            }
        }
        assert_eq!(seen.len(), 1600);
    }

    #[test]
    fn spans_nest_under_the_installed_context() {
        with_sink(|| {
            let ctx = TraceCtx::new_root("GET /x", None);
            {
                let _g = ctx.install();
                let outer = begin("outer").expect("context installed");
                let outer_id = outer.id();
                {
                    let inner = begin("inner").expect("context installed");
                    assert_ne!(inner.id(), outer_id);
                }
                drop(outer);
                // After the guard chain unwinds, new spans parent at root.
                let top = begin("top").expect("context installed");
                drop(top);
            }
            assert!(begin("after").is_none(), "uninstalled thread has no trace");
            let fin = ctx.finish(200, false);
            assert_eq!(fin.spans.len(), 3);
            let by_name = |n: &str| fin.spans.iter().find(|s| s.name == n).unwrap();
            assert_eq!(by_name("outer").parent, fin.root);
            assert_eq!(by_name("inner").parent, by_name("outer").id);
            assert_eq!(by_name("top").parent, fin.root);
            let doc = trace_json(&fin);
            let v = cesim_json::JsonValue::parse(&doc).expect("trace json parses");
            let root = v.get("root").unwrap();
            assert_eq!(
                root.get("children").unwrap().as_array().unwrap().len(),
                2,
                "{doc}"
            );
        });
    }

    #[test]
    fn cross_thread_clone_records_into_the_same_trace() {
        with_sink(|| {
            let ctx = TraceCtx::new_root("POST /v1/sweep", None);
            let _g = ctx.install();
            let outer = begin("dispatch").expect("context installed");
            let cloned = current().expect("current clones the installed context");
            std::thread::spawn(move || {
                let _g = cloned.install();
                let _s = begin("cell").expect("clone installed");
            })
            .join()
            .unwrap();
            drop(outer);
            let fin = ctx.finish(200, false);
            let cell = fin.spans.iter().find(|s| s.name == "cell").unwrap();
            let dispatch = fin.spans.iter().find(|s| s.name == "dispatch").unwrap();
            assert_eq!(cell.parent, dispatch.id, "cell parents under dispatch");
        });
    }

    #[test]
    fn store_retains_errors_and_slowest_under_churn() {
        let store = TraceStore::new();
        let mk = |status: u16, dur_ns: u64| {
            let ctx = TraceCtx::new_root("r", None);
            let mut f = ctx.finish(status, false);
            f.dur_ns = dur_ns;
            f
        };
        let err = mk(500, 10);
        let err_id = err.trace_id;
        let slow = mk(200, u64::MAX);
        let slow_id = slow.trace_id;
        store.offer(err);
        store.offer(slow);
        // Churn far past every ring capacity with healthy fast traces.
        let mut last_ok = None;
        for _ in 0..(RECENT_CAP + SLOW_CAP + 100) {
            let t = mk(200, 1);
            last_ok = Some(t.trace_id);
            store.offer(t);
        }
        assert!(store.get(err_id).is_some(), "error trace must survive");
        assert!(store.get(slow_id).is_some(), "slowest trace must survive");
        assert!(
            store.get(last_ok.unwrap()).is_some(),
            "newest in recency ring"
        );
        let shed = shed_trace();
        let shed_id = shed.trace_id;
        store.offer(shed);
        let got = store.get(shed_id).expect("shed trace retained");
        assert!(got.shed);
        assert_eq!(got.status, 429);
        let sums = summary_json(&store.summaries());
        assert!(sums.contains(&err_id.to_string()), "{sums}");
    }

    #[test]
    fn root_coverage_unions_overlapping_children() {
        let ctx = TraceCtx::new_root("r", None);
        let mut f = ctx.finish(200, false);
        f.dur_ns = 100;
        let mk = |parent: SpanId, start_ns: u64, dur_ns: u64| SpanRec {
            id: next_span_id(),
            parent,
            name: "c".into(),
            start_ns,
            dur_ns,
        };
        // Two overlapping children [0,60) and [40,98) → union 98/100.
        f.spans.push(mk(f.root, 0, 60));
        f.spans.push(mk(f.root, 40, 58));
        // A grandchild must not double-count.
        let child_id = f.spans[0].id;
        f.spans.push(mk(child_id, 0, 60));
        let cov = root_coverage(&f);
        assert!((cov - 0.98).abs() < 1e-9, "{cov}");
    }
}
