//! Request counters and latency histograms, rendered in the Prometheus
//! text exposition format on `GET /metrics`. Latency buckets carry
//! OpenMetrics exemplars — the trace id of the latest observation that
//! landed in each bucket — so a suspicious bucket links straight to a
//! stored trace at `/v1/debug/traces/:id`.
//!
//! The hot-path cost is one short mutex acquisition per completed
//! request; the queue-depth gauge and shed/panic counters are atomics
//! because the accept thread updates them outside any request. Label
//! sets live in [`BTreeMap`]s so the rendered text is deterministic —
//! the integration tests diff whole scrape bodies.

use cesim_core::service::ServiceState;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Histogram bucket upper bounds, in seconds (a `+Inf` bucket is
/// implicit). Spans sub-millisecond cache hits to multi-second sweeps.
pub const LATENCY_BUCKETS: [f64; 10] =
    [0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.5, 1.0, 5.0];

/// An OpenMetrics exemplar: the most recent observation that landed in
/// a bucket, tagged with its request's trace id so a spike in a latency
/// bucket links directly to `/v1/debug/traces/:id`.
#[derive(Clone)]
struct Exemplar {
    trace_id: String,
    value_secs: f64,
}

#[derive(Default, Clone)]
struct Hist {
    buckets: [u64; LATENCY_BUCKETS.len()],
    /// One slot per bucket plus `+Inf`; an observation overwrites the
    /// exemplar of the lowest bucket it lands in (its canonical bucket).
    exemplars: [Option<Exemplar>; LATENCY_BUCKETS.len() + 1],
    count: u64,
    sum_us: u64,
}

#[derive(Default)]
struct Inner {
    /// `(endpoint, status)` → request count.
    requests: BTreeMap<(&'static str, u16), u64>,
    /// endpoint → latency histogram.
    latency: BTreeMap<&'static str, Hist>,
}

/// OpenMetrics exemplar suffix for a bucket line: ` # {trace_id="…"} v`,
/// or empty when the bucket has never seen a traced observation.
fn exemplar_suffix(e: &Option<Exemplar>) -> String {
    match e {
        Some(e) => format!(" # {{trace_id=\"{}\"}} {}", e.trace_id, e.value_secs),
        None => String::new(),
    }
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

    /// Record one completed request.
    pub fn observe(&self, endpoint: &'static str, status: u16, elapsed: Duration) {
        self.observe_traced(endpoint, status, elapsed, None);
    }

    /// [`Metrics::observe`], additionally pinning the observation's
    /// trace id as the exemplar of the bucket it lands in.
    pub fn observe_traced(
        &self,
        endpoint: &'static str,
        status: u16,
        elapsed: Duration,
        trace_id: Option<&str>,
    ) {
        let mut inner = self.inner.lock().expect("metrics lock");
        *inner.requests.entry((endpoint, status)).or_insert(0) += 1;
        let hist = inner.latency.entry(endpoint).or_default();
        let secs = elapsed.as_secs_f64();
        let mut slot = LATENCY_BUCKETS.len(); // +Inf unless a bound fits
        for (i, bound) in LATENCY_BUCKETS.iter().enumerate() {
            if secs <= *bound {
                hist.buckets[i] += 1;
                slot = slot.min(i);
            }
        }
        hist.count += 1;
        hist.sum_us += elapsed.as_micros() as u64;
        if let Some(trace_id) = trace_id {
            hist.exemplars[slot] = Some(Exemplar {
                trace_id: trace_id.to_string(),
                value_secs: secs,
            });
        }
    }

    /// Record a connection shed with 429 because the queue was full.
    pub fn shed(&self) {
        self.shed.fetch_add(1, Relaxed);
    }

    /// Requests shed so far.
    pub fn shed_count(&self) -> u64 {
        self.shed.load(Relaxed)
    }

    /// Record a handler panic caught by the worker isolation boundary.
    pub fn panicked(&self) {
        self.panics.fetch_add(1, Relaxed);
    }

    /// Panics caught so far.
    pub fn panic_count(&self) -> u64 {
        self.panics.load(Relaxed)
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
        let inner = self.inner.lock().expect("metrics lock");
        let mut out = String::with_capacity(2048);

        out.push_str("# HELP cesim_requests_total Requests completed, by endpoint and status.\n");
        out.push_str("# TYPE cesim_requests_total counter\n");
        for ((endpoint, status), count) in &inner.requests {
            out.push_str(&format!(
                "cesim_requests_total{{endpoint=\"{endpoint}\",code=\"{status}\"}} {count}\n"
            ));
        }

        out.push_str("# HELP cesim_request_duration_seconds Request latency, by endpoint.\n");
        out.push_str("# TYPE cesim_request_duration_seconds histogram\n");
        for (endpoint, hist) in &inner.latency {
            for (i, bound) in LATENCY_BUCKETS.iter().enumerate() {
                out.push_str(&format!(
                    "cesim_request_duration_seconds_bucket{{endpoint=\"{endpoint}\",le=\"{bound}\"}} {}{}\n",
                    hist.buckets[i],
                    exemplar_suffix(&hist.exemplars[i])
                ));
            }
            out.push_str(&format!(
                "cesim_request_duration_seconds_bucket{{endpoint=\"{endpoint}\",le=\"+Inf\"}} {}{}\n",
                hist.count,
                exemplar_suffix(&hist.exemplars[LATENCY_BUCKETS.len()])
            ));
            out.push_str(&format!(
                "cesim_request_duration_seconds_sum{{endpoint=\"{endpoint}\"}} {}\n",
                hist.sum_us as f64 / 1e6
            ));
            out.push_str(&format!(
                "cesim_request_duration_seconds_count{{endpoint=\"{endpoint}\"}} {}\n",
                hist.count
            ));
        }
        drop(inner);

        out.push_str("# HELP cesim_queue_depth Connections waiting for a worker.\n");
        out.push_str("# TYPE cesim_queue_depth gauge\n");
        out.push_str(&format!(
            "cesim_queue_depth {}\n",
            self.queue_depth.load(Relaxed)
        ));

        out.push_str(
            "# HELP cesim_shed_total Connections answered 429 because the queue was full.\n",
        );
        out.push_str("# TYPE cesim_shed_total counter\n");
        out.push_str(&format!("cesim_shed_total {}\n", self.shed.load(Relaxed)));

        out.push_str("# HELP cesim_worker_panics_total Handler panics caught and answered 500.\n");
        out.push_str("# TYPE cesim_worker_panics_total counter\n");
        out.push_str(&format!(
            "cesim_worker_panics_total {}\n",
            self.panics.load(Relaxed)
        ));

        for (name, help, value) in [
            (
                "cesim_schedule_cache_hits_total",
                "Compiled-schedule cache hits.",
                state.schedules.hits(),
            ),
            (
                "cesim_schedule_cache_misses_total",
                "Compiled-schedule cache misses (compilations).",
                state.schedules.misses(),
            ),
            (
                "cesim_response_cache_hits_total",
                "Full-response cache hits.",
                state.responses.hits(),
            ),
            (
                "cesim_response_cache_misses_total",
                "Full-response cache misses.",
                state.responses.misses(),
            ),
            (
                "cesim_baseline_forks_total",
                "Replicas resumed from a snapshot of the cached baseline.",
                state.schedules.forks(),
            ),
            (
                "cesim_forked_events_total",
                "Engine events those replicas skipped.",
                state.schedules.forked_events(),
            ),
            (
                "cesim_baseline_rejoins_total",
                "Replicas that rejoined the cached baseline before their end.",
                state.schedules.rejoins(),
            ),
            (
                "cesim_rejoined_events_total",
                "Engine events of the baseline suffix those replicas skipped.",
                state.schedules.rejoined_events(),
            ),
        ] {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
            ));
        }

        let forks = state.schedules.fork_footprint();
        for (name, help, value) in [
            (
                "cesim_fork_tables",
                "Cached entries whose baseline fork table is built.",
                forks.entries,
            ),
            (
                "cesim_fork_snapshots",
                "Baseline snapshots those fork tables hold.",
                forks.snapshots,
            ),
            (
                "cesim_fork_snapshot_bytes",
                "Heap bytes those snapshots hold.",
                forks.bytes,
            ),
        ] {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
            ));
        }

        out.push_str("# HELP cesim_build_info Build metadata; value is always 1.\n");
        out.push_str("# TYPE cesim_build_info gauge\n");
        out.push_str(&format!(
            "cesim_build_info{{version=\"{}\"}} 1\n",
            env!("CARGO_PKG_VERSION")
        ));

        out.push_str("# HELP cesim_uptime_seconds Seconds since the daemon started.\n");
        out.push_str("# TYPE cesim_uptime_seconds gauge\n");
        out.push_str(&format!(
            "cesim_uptime_seconds {:.3}\n",
            self.started.elapsed().as_secs_f64()
        ));

        out.push_str("# HELP cesim_workers Configured request-worker threads.\n");
        out.push_str("# TYPE cesim_workers gauge\n");
        out.push_str(&format!("cesim_workers {}\n", self.workers.load(Relaxed)));

        out.push_str("# HELP cesim_workers_busy Workers currently handling a connection.\n");
        out.push_str("# TYPE cesim_workers_busy gauge\n");
        out.push_str(&format!(
            "cesim_workers_busy {}\n",
            self.busy_workers.load(Relaxed)
        ));

        // Live shard-engine counters: process-wide, so in-flight sharded
        // simulations are visible between scrapes of the request metrics.
        let g = cesim_core::engine::shard_globals();
        out.push_str("# HELP cesim_shard_runs_active Sharded simulations currently in flight.\n");
        out.push_str("# TYPE cesim_shard_runs_active gauge\n");
        out.push_str(&format!("cesim_shard_runs_active {}\n", g.runs_active));
        for (name, help, value) in [
            (
                "cesim_shard_runs_total",
                "Sharded simulations driven since startup.",
                g.runs_total,
            ),
            (
                "cesim_shard_windows_total",
                "Lookahead windows advanced by the shard engine.",
                g.windows,
            ),
            (
                "cesim_shard_events_total",
                "Events processed by the shard engine.",
                g.events,
            ),
        ] {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
            ));
        }
        out.push_str(
            "# HELP cesim_shard_sim_seconds_total Simulated seconds advanced by the shard engine.\n",
        );
        out.push_str("# TYPE cesim_shard_sim_seconds_total counter\n");
        out.push_str(&format!(
            "cesim_shard_sim_seconds_total {:.6}\n",
            g.sim_ps_advanced as f64 / 1e12
        ));

        // Span-profiler phase histograms (cesim_phase_seconds).
        cesim_core::obs::telemetry::render_prometheus(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_all_families() {
        let m = Metrics::new();
        let state = ServiceState::new(2, 2);
        m.observe("/v1/simulate", 200, Duration::from_millis(3));
        m.observe("/v1/simulate", 200, Duration::from_millis(700));
        m.observe("/healthz", 200, Duration::from_micros(50));
        m.observe("/v1/simulate", 400, Duration::from_micros(80));
        m.shed();
        m.panicked();
        m.set_queue_depth(5);
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
    }

    #[test]
    fn traced_observations_render_bucket_exemplars() {
        let m = Metrics::new();
        let state = ServiceState::new(1, 1);
        m.observe_traced(
            "/v1/sweep",
            200,
            Duration::from_millis(3),
            Some("0af7651916cd43dd8448eb211c80319c"),
        );
        // Beyond the last bound: the exemplar lands on +Inf.
        m.observe_traced(
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
        m.observe("/v1/sweep", 200, Duration::from_millis(3));
        let text = m.render(&state);
        assert!(text.contains(
            "cesim_request_duration_seconds_bucket{endpoint=\"/v1/sweep\",le=\"0.0025\"} 0\n"
        ));
        assert!(text.contains(
            "cesim_request_duration_seconds_bucket{endpoint=\"/v1/sweep\",le=\"0.005\"} 2 #"
        ));
    }

    #[test]
    fn render_is_deterministic() {
        let m = Metrics::new();
        let state = ServiceState::new(1, 1);
        m.observe("/v1/sweep", 200, Duration::from_millis(1));
        m.observe("/healthz", 200, Duration::from_millis(1));
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

    #[test]
    fn render_includes_runtime_and_shard_families() {
        let m = Metrics::new();
        m.set_workers(7);
        m.worker_busy();
        let state = ServiceState::new(1, 1);
        let text = m.render(&state);
        assert!(text.contains(&format!(
            "cesim_build_info{{version=\"{}\"}} 1",
            env!("CARGO_PKG_VERSION")
        )));
        assert!(text.contains("cesim_uptime_seconds "));
        assert!(text.contains("cesim_workers 7"));
        assert!(text.contains("cesim_workers_busy 1"));
        assert!(text.contains("cesim_shard_runs_active "));
        assert!(text.contains("cesim_shard_windows_total "));
        assert!(text.contains("cesim_shard_events_total "));
        assert!(text.contains("cesim_shard_sim_seconds_total "));
        m.worker_idle();
        assert!(m.render(&state).contains("cesim_workers_busy 0"));
    }
}
