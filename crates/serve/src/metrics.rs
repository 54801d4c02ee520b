//! Request counters and latency histograms, rendered in the Prometheus
//! text exposition format on `GET /metrics`.
//!
//! Per-endpoint latencies are [`Histogram`]s, the type the span
//! profiler's `cesim_phase_seconds` uses too. Their buckets carry
//! OpenMetrics exemplars — the trace id of the latest traced
//! observation that landed in each bucket — so a suspicious bucket
//! links straight to a stored trace at `/v1/debug/traces/:id`.
//!
//! The hot-path cost is one short mutex acquisition per completed
//! request; the queue-depth gauge and shed/panic counters are atomics
//! because the accept thread updates them outside any request. Label
//! sets live in [`BTreeMap`]s so the rendered text is deterministic —
//! the integration tests diff whole scrape bodies.

use cesim_core::obs::telemetry::{self, family, Histogram};
use cesim_core::service::ServiceState;
use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Histogram bucket upper bounds, in seconds (a `+Inf` bucket is
/// implicit). Spans sub-millisecond cache hits to multi-second sweeps.
pub const LATENCY_BUCKETS: [f64; 10] =
    [0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.5, 1.0, 5.0];

#[derive(Default)]
struct Inner {
    /// `(endpoint, status)` → request count.
    requests: BTreeMap<(&'static str, u16), u64>,
    /// endpoint → latency histogram.
    latency: BTreeMap<&'static str, Histogram>,
}

/// All daemon-level metrics; one instance shared by every thread.
pub struct Metrics {
    inner: Mutex<Inner>,
    queue_depth: AtomicUsize,
    shed: AtomicU64,
    panics: AtomicU64,
    started: Instant,
    workers: AtomicUsize,
    busy_workers: AtomicUsize,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Metrics {
            inner: Mutex::new(Inner::default()),
            queue_depth: AtomicUsize::new(0),
            shed: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            started: Instant::now(),
            workers: AtomicUsize::new(0),
            busy_workers: AtomicUsize::new(0),
        }
    }

    /// Record one completed request; a `trace` id becomes the exemplar
    /// of the latency bucket the observation lands in.
    pub fn observe(
        &self,
        endpoint: &'static str,
        status: u16,
        elapsed: Duration,
        trace: Option<&str>,
    ) {
        let mut inner = self.inner.lock().expect("metrics lock");
        *inner.requests.entry((endpoint, status)).or_insert(0) += 1;
        inner
            .latency
            .entry(endpoint)
            .or_insert_with(|| Histogram::new(&LATENCY_BUCKETS))
            .observe(elapsed, trace);
    }

    /// Record a connection shed with 429 because the queue was full.
    pub fn shed(&self) {
        self.shed.fetch_add(1, Relaxed);
    }

    /// Record a handler panic caught by the worker isolation boundary.
    pub fn panicked(&self) {
        self.panics.fetch_add(1, Relaxed);
    }

    /// Publish the current accept-queue depth.
    pub fn set_queue_depth(&self, depth: usize) {
        self.queue_depth.store(depth, Relaxed);
    }

    /// Publish the configured worker count (once, at startup).
    pub fn set_workers(&self, n: usize) {
        self.workers.store(n, Relaxed);
    }

    /// A worker picked up a connection.
    pub fn worker_busy(&self) {
        self.busy_workers.fetch_add(1, Relaxed);
    }

    /// A worker finished its connection.
    pub fn worker_idle(&self) {
        self.busy_workers.fetch_sub(1, Relaxed);
    }

    /// Render the Prometheus text exposition, folding in the cache
    /// counters owned by the simulation state.
    pub fn render(&self, state: &ServiceState) -> String {
        let mut text = String::with_capacity(2048);
        let out = &mut text;
        {
            let inner = self.inner.lock().expect("metrics lock");
            header(out, "cesim_requests_total");
            for ((endpoint, status), count) in &inner.requests {
                let labels = format!("endpoint=\"{endpoint}\",code=\"{status}\"");
                let _ = writeln!(out, "cesim_requests_total{{{labels}}} {count}");
            }
            let name = "cesim_request_duration_seconds";
            header(out, name);
            for (endpoint, hist) in &inner.latency {
                hist.render(out, name, ("endpoint", endpoint));
            }
        }
        let s = &state.schedules;
        let r = &state.responses;
        let forks = s.fork_footprint();
        let g = cesim_core::engine::shard_globals();
        let build = format!(
            "cesim_build_info{{version=\"{}\"}}",
            env!("CARGO_PKG_VERSION")
        );
        let uptime = self.started.elapsed().as_secs_f64();
        let sim_secs = g.sim_ps_advanced as f64 / 1e12;
        single(out, "cesim_queue_depth", self.queue_depth.load(Relaxed));
        single(out, "cesim_shed_total", self.shed.load(Relaxed));
        single(out, "cesim_worker_panics_total", self.panics.load(Relaxed));
        single(out, "cesim_schedule_cache_hits_total", s.hits());
        single(out, "cesim_schedule_cache_misses_total", s.misses());
        single(out, "cesim_response_cache_hits_total", r.hits());
        single(out, "cesim_response_cache_misses_total", r.misses());
        single(out, "cesim_baseline_forks_total", s.forks());
        single(out, "cesim_forked_events_total", s.forked_events());
        single(out, "cesim_baseline_rejoins_total", s.rejoins());
        single(out, "cesim_rejoined_events_total", s.rejoined_events());
        single(out, "cesim_fork_tables", forks.entries);
        single(out, "cesim_fork_snapshots", forks.snapshots);
        single(out, "cesim_fork_snapshot_bytes", forks.bytes);
        single(out, &build, 1);
        single(out, "cesim_uptime_seconds", format!("{uptime:.3}"));
        single(out, "cesim_workers", self.workers.load(Relaxed));
        single(out, "cesim_workers_busy", self.busy_workers.load(Relaxed));
        // Live shard-engine counters: process-wide, so in-flight sharded
        // simulations are visible between scrapes of the request metrics.
        single(out, "cesim_shard_runs_active", g.runs_active);
        single(out, "cesim_shard_runs_total", g.runs_total);
        single(out, "cesim_shard_windows_total", g.windows);
        single(out, "cesim_shard_events_total", g.events);
        single(
            out,
            "cesim_shard_sim_seconds_total",
            format!("{sim_secs:.6}"),
        );
        // Span-profiler phase histograms (cesim_phase_seconds).
        telemetry::render_prometheus(out);
        text
    }
}

/// Name, type and `# HELP` text of each family [`Metrics::render`]
/// writes, in the order it writes them.
const FAMILIES: &str = "\
cesim_requests_total counter Requests completed, by endpoint and status.
cesim_request_duration_seconds histogram Request latency, by endpoint.
cesim_queue_depth gauge Connections waiting for a worker.
cesim_shed_total counter Connections answered 429 because the queue was full.
cesim_worker_panics_total counter Handler panics caught and answered 500.
cesim_schedule_cache_hits_total counter Compiled-schedule cache hits.
cesim_schedule_cache_misses_total counter Compiled-schedule cache misses (compilations).
cesim_response_cache_hits_total counter Full-response cache hits.
cesim_response_cache_misses_total counter Full-response cache misses.
cesim_baseline_forks_total counter Replicas resumed from a snapshot of the cached baseline.
cesim_forked_events_total counter Engine events those replicas skipped.
cesim_baseline_rejoins_total counter Replicas that rejoined the cached baseline before their end.
cesim_rejoined_events_total counter Engine events of the baseline suffix those replicas skipped.
cesim_fork_tables gauge Cached entries whose baseline fork table is built.
cesim_fork_snapshots gauge Baseline snapshots those fork tables hold.
cesim_fork_snapshot_bytes gauge Heap bytes those snapshots hold.
cesim_build_info gauge Build metadata; value is always 1.
cesim_uptime_seconds gauge Seconds since the daemon started.
cesim_workers gauge Configured request-worker threads.
cesim_workers_busy gauge Workers currently handling a connection.
cesim_shard_runs_active gauge Sharded simulations currently in flight.
cesim_shard_runs_total counter Sharded simulations driven since startup.
cesim_shard_windows_total counter Lookahead windows advanced by the shard engine.
cesim_shard_events_total counter Events processed by the shard engine.
cesim_shard_sim_seconds_total counter Simulated seconds advanced by the shard engine.
";

/// Append the `# HELP`/`# TYPE` lines of the family `name`, as listed
/// in [`FAMILIES`].
fn header(out: &mut String, name: &str) {
    let (kind, help) = FAMILIES
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.split_once(' '))
        .expect("every rendered family is listed in FAMILIES");
    family(out, name, kind, help);
}

/// Append a single-sample family: its header, then `series value`
/// (`series` is the family name, possibly with a label set).
fn single(out: &mut String, series: &str, value: impl Display) {
    header(out, series.split('{').next().unwrap_or(series));
    let _ = writeln!(out, "{series} {value}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_all_families() {
        let m = Metrics::new();
        let state = ServiceState::new(2, 2);
        m.observe("/v1/simulate", 200, Duration::from_millis(3), None);
        m.observe("/v1/simulate", 200, Duration::from_millis(700), None);
        m.observe("/healthz", 200, Duration::from_micros(50), None);
        m.observe("/v1/simulate", 400, Duration::from_micros(80), None);
        m.shed();
        m.panicked();
        m.set_queue_depth(5);
        m.set_workers(7);
        m.worker_busy();
        let text = m.render(&state);
        assert!(text.contains("cesim_requests_total{endpoint=\"/v1/simulate\",code=\"200\"} 2"));
        assert!(text.contains("cesim_requests_total{endpoint=\"/v1/simulate\",code=\"400\"} 1"));
        assert!(text.contains("cesim_requests_total{endpoint=\"/healthz\",code=\"200\"} 1"));
        // 3 ms lands in the 5 ms bucket but not the 2.5 ms one; the
        // 700 ms request only lands in 1 s and above.
        assert!(text.contains(
            "cesim_request_duration_seconds_bucket{endpoint=\"/v1/simulate\",le=\"0.0025\"} 1"
        ));
        assert!(text.contains(
            "cesim_request_duration_seconds_bucket{endpoint=\"/v1/simulate\",le=\"0.005\"} 2"
        ));
        assert!(text.contains(
            "cesim_request_duration_seconds_bucket{endpoint=\"/v1/simulate\",le=\"0.5\"} 2"
        ));
        assert!(text.contains(
            "cesim_request_duration_seconds_bucket{endpoint=\"/v1/simulate\",le=\"+Inf\"} 3"
        ));
        assert!(text.contains("cesim_request_duration_seconds_count{endpoint=\"/v1/simulate\"} 3"));
        assert!(text.contains("cesim_queue_depth 5"));
        assert!(text.contains("cesim_shed_total 1"));
        assert!(text.contains("cesim_worker_panics_total 1"));
        assert!(text.contains("cesim_schedule_cache_hits_total 0"));
        assert!(text.contains("cesim_response_cache_misses_total 0"));
        assert!(text.contains("cesim_baseline_forks_total 0"));
        assert!(text.contains("cesim_forked_events_total 0"));
        assert!(text.contains("cesim_baseline_rejoins_total 0"));
        assert!(text.contains("cesim_rejoined_events_total 0"));
        let version = env!("CARGO_PKG_VERSION");
        assert!(text.contains(&format!("cesim_build_info{{version=\"{version}\"}} 1")));
        assert!(text.contains("cesim_workers 7"));
        assert!(text.contains("cesim_workers_busy 1"));
        m.worker_idle();
        assert!(m.render(&state).contains("cesim_workers_busy 0"));
    }

    #[test]
    fn traced_observations_render_bucket_exemplars() {
        let m = Metrics::new();
        let state = ServiceState::new(1, 1);
        m.observe(
            "/v1/sweep",
            200,
            Duration::from_millis(3),
            Some("0af7651916cd43dd8448eb211c80319c"),
        );
        // Beyond the last bound: the exemplar lands on +Inf.
        m.observe(
            "/v1/sweep",
            200,
            Duration::from_secs(6),
            Some("ffffffffffffffffffffffffffffffff"),
        );
        let text = m.render(&state);
        assert!(text.contains(
            "cesim_request_duration_seconds_bucket{endpoint=\"/v1/sweep\",le=\"0.005\"} 1 \
             # {trace_id=\"0af7651916cd43dd8448eb211c80319c\"} 0.003"
        ));
        assert!(text.contains(
            "cesim_request_duration_seconds_bucket{endpoint=\"/v1/sweep\",le=\"+Inf\"} 2 \
             # {trace_id=\"ffffffffffffffffffffffffffffffff\"} 6"
        ));
        // Untraced observations must not touch exemplars: only the
        // canonical bucket of the traced one carries a suffix.
        m.observe("/v1/sweep", 200, Duration::from_millis(3), None);
        let text = m.render(&state);
        assert!(text.contains(
            "cesim_request_duration_seconds_bucket{endpoint=\"/v1/sweep\",le=\"0.0025\"} 0\n"
        ));
        assert!(text.contains(
            "cesim_request_duration_seconds_bucket{endpoint=\"/v1/sweep\",le=\"0.005\"} 2 #"
        ));
    }

    #[test]
    fn exposition_families_are_pinned() {
        // Nothing in this test binary enables telemetry, so the phase
        // registry is empty and `cesim_phase_seconds` is not rendered.
        let m = Metrics::new();
        let state = ServiceState::new(1, 1);
        m.observe(
            "/v1/sweep",
            200,
            Duration::from_millis(3),
            Some("0af7651916cd43dd8448eb211c80319c"),
        );
        m.observe("/healthz", 200, Duration::from_micros(50), None);
        let text = m.render(&state);
        let meta: Vec<_> = text.lines().filter(|l| l.starts_with("# ")).collect();
        let want = [
            "# HELP cesim_requests_total Requests completed, by endpoint and status.",
            "# TYPE cesim_requests_total counter",
            "# HELP cesim_request_duration_seconds Request latency, by endpoint.",
            "# TYPE cesim_request_duration_seconds histogram",
            "# HELP cesim_queue_depth Connections waiting for a worker.",
            "# TYPE cesim_queue_depth gauge",
            "# HELP cesim_shed_total Connections answered 429 because the queue was full.",
            "# TYPE cesim_shed_total counter",
            "# HELP cesim_worker_panics_total Handler panics caught and answered 500.",
            "# TYPE cesim_worker_panics_total counter",
            "# HELP cesim_schedule_cache_hits_total Compiled-schedule cache hits.",
            "# TYPE cesim_schedule_cache_hits_total counter",
            "# HELP cesim_schedule_cache_misses_total Compiled-schedule cache misses (compilations).",
            "# TYPE cesim_schedule_cache_misses_total counter",
            "# HELP cesim_response_cache_hits_total Full-response cache hits.",
            "# TYPE cesim_response_cache_hits_total counter",
            "# HELP cesim_response_cache_misses_total Full-response cache misses.",
            "# TYPE cesim_response_cache_misses_total counter",
            "# HELP cesim_baseline_forks_total Replicas resumed from a snapshot of the cached baseline.",
            "# TYPE cesim_baseline_forks_total counter",
            "# HELP cesim_forked_events_total Engine events those replicas skipped.",
            "# TYPE cesim_forked_events_total counter",
            "# HELP cesim_baseline_rejoins_total Replicas that rejoined the cached baseline before their end.",
            "# TYPE cesim_baseline_rejoins_total counter",
            "# HELP cesim_rejoined_events_total Engine events of the baseline suffix those replicas skipped.",
            "# TYPE cesim_rejoined_events_total counter",
            "# HELP cesim_fork_tables Cached entries whose baseline fork table is built.",
            "# TYPE cesim_fork_tables gauge",
            "# HELP cesim_fork_snapshots Baseline snapshots those fork tables hold.",
            "# TYPE cesim_fork_snapshots gauge",
            "# HELP cesim_fork_snapshot_bytes Heap bytes those snapshots hold.",
            "# TYPE cesim_fork_snapshot_bytes gauge",
            "# HELP cesim_build_info Build metadata; value is always 1.",
            "# TYPE cesim_build_info gauge",
            "# HELP cesim_uptime_seconds Seconds since the daemon started.",
            "# TYPE cesim_uptime_seconds gauge",
            "# HELP cesim_workers Configured request-worker threads.",
            "# TYPE cesim_workers gauge",
            "# HELP cesim_workers_busy Workers currently handling a connection.",
            "# TYPE cesim_workers_busy gauge",
            "# HELP cesim_shard_runs_active Sharded simulations currently in flight.",
            "# TYPE cesim_shard_runs_active gauge",
            "# HELP cesim_shard_runs_total Sharded simulations driven since startup.",
            "# TYPE cesim_shard_runs_total counter",
            "# HELP cesim_shard_windows_total Lookahead windows advanced by the shard engine.",
            "# TYPE cesim_shard_windows_total counter",
            "# HELP cesim_shard_events_total Events processed by the shard engine.",
            "# TYPE cesim_shard_events_total counter",
            "# HELP cesim_shard_sim_seconds_total Simulated seconds advanced by the shard engine.",
            "# TYPE cesim_shard_sim_seconds_total counter",
        ];
        assert_eq!(meta, want);
    }

    #[test]
    fn render_is_deterministic() {
        let m = Metrics::new();
        let state = ServiceState::new(1, 1);
        m.observe("/v1/sweep", 200, Duration::from_millis(1), None);
        m.observe("/healthz", 200, Duration::from_millis(1), None);
        // Uptime is the one wall-clock-dependent sample; everything else
        // must render byte-identically.
        fn strip_uptime(s: &str) -> String {
            s.lines()
                .filter(|l| !l.starts_with("cesim_uptime_seconds "))
                .collect::<Vec<_>>()
                .join("\n")
        }
        assert_eq!(
            strip_uptime(&m.render(&state)),
            strip_uptime(&m.render(&state))
        );
    }
}
