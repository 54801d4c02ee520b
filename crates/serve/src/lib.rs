//! # cesim-serve
//!
//! Simulation-as-a-service: a dependency-free HTTP/1.1 daemon over
//! `std::net` that exposes the experiment layer of `cesim-core` as a
//! JSON API. No async runtime and no HTTP crates — a bounded
//! worker-thread pool over blocking sockets is simple, predictable
//! under load, and all this workload needs (requests are
//! CPU-dominated simulations, not I/O fan-out).
//!
//! ## Endpoints
//!
//! * `POST /v1/simulate` — one experiment cell; body mapped by
//!   [`cesim_core::service::SimulateRequest`].
//! * `POST /v1/sweep` — a figure-style grid ("fig3" … "fig7") run on
//!   the ambient rayon pool; body mapped by
//!   [`cesim_core::service::SweepRequest`].
//! * `POST /v1/fleet` — a fleet scenario (heterogeneous cluster, job
//!   mix, mitigation policy) run against the daemon's shared schedule
//!   cache; body mapped by [`cesim_fleet::FleetRequest`].
//! * `GET /healthz` — liveness.
//! * `GET /metrics` — Prometheus text: per-endpoint request counters
//!   and latency histograms, queue depth, shed/panic counters, the
//!   schedule-/response-cache hit counters, build/uptime/worker
//!   gauges, live shard-engine counters, and span-profiler phase
//!   histograms (validated in-repo by [`promcheck`]).
//! * `GET /v1/debug/flightrec` — JSON dump of the in-memory flight
//!   recorder (recent spans, sheds, panics, cache evictions, signals).
//!   The same dump goes to stderr on `SIGUSR1` and on a worker panic.
//! * `GET /v1/debug/traces` — summaries of the tail-sampled request
//!   traces, and `GET /v1/debug/traces/:id` the full span tree of one
//!   trace (`/:id/chrome` renders it as a Chrome `trace_event` file).
//!   Every request gets a trace id — fresh, or adopted from an incoming
//!   W3C `traceparent` header — echoed back as a `traceparent` response
//!   header, stamped into access-log lines and flight-recorder events,
//!   and attached to `/metrics` latency buckets as OpenMetrics
//!   exemplars. See `cesim_core::obs::tracectx`.
//!
//! ## Operational properties
//!
//! * **Backpressure, not collapse.** Accepted connections enter a
//!   bounded queue; when it is full the accept thread answers `429`
//!   with `Retry-After` immediately instead of letting latency grow
//!   without bound.
//! * **Panic isolation.** Each request handler runs under
//!   [`std::panic::catch_unwind`]; a panicking request is answered
//!   `500` and the worker lives on.
//! * **Deterministic bodies.** Simulation responses are pure functions
//!   of the request (see `cesim_core::service`), so concurrent
//!   identical requests produce byte-identical bodies and the
//!   full-response cache is sound.
//! * **Graceful shutdown.** On SIGTERM/SIGINT (or
//!   [`Server::shutdown`]) the daemon stops accepting, drains queued
//!   and in-flight requests, and joins every worker.

#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod metrics;
pub mod promcheck;
pub mod signal;

use cesim_core::obs::telemetry::{self, FlightKind};
use cesim_core::obs::{chrome, logging, tracectx};
use cesim_core::service::{
    handle_simulate, handle_sweep, ServiceError, ServiceState, SimulateRequest, SweepRequest,
};
use cesim_fleet::{handle_fleet, FleetRequest};
use cesim_json::JsonValue;
use http::{HttpError, Response};
use metrics::Metrics;
use std::collections::VecDeque;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Daemon configuration; every knob has a CLI flag on `cesim serve`.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address, e.g. `"127.0.0.1:8080"`. Port `0` picks an
    /// ephemeral port (see [`Server::addr`]).
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Accepted connections allowed to wait for a worker before new
    /// arrivals are shed with `429`.
    pub queue_depth: usize,
    /// Compiled-schedule LRU capacity (`0` disables).
    pub schedule_cache_entries: usize,
    /// Full-response LRU capacity (`0` disables).
    pub response_cache_entries: usize,
    /// Per-connection socket read timeout.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// Maximum request body size.
    pub max_body_bytes: usize,
    /// Expose `/v1/test/sleep` and `/v1/test/panic` (integration tests
    /// only — never enabled by the CLI).
    pub enable_test_endpoints: bool,
    /// Emit one structured access-log line per request to stderr
    /// (`--log-requests` on the CLI).
    pub log_requests: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8080".into(),
            workers: 4,
            queue_depth: 64,
            schedule_cache_entries: 64,
            response_cache_entries: 256,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_body_bytes: 1 << 20,
            enable_test_endpoints: false,
            log_requests: false,
        }
    }
}

/// State shared by the accept thread and every worker.
struct Shared {
    cfg: ServeConfig,
    state: ServiceState,
    metrics: Metrics,
    traces: tracectx::TraceStore,
    /// Accepted connections waiting for a worker, with their accept
    /// instants (each request's trace starts there).
    queue: Mutex<VecDeque<(TcpStream, Instant)>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
}

/// A running daemon: an accept thread plus `workers` request threads.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving in background threads.
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Server> {
        // The daemon is long-lived and observability is its contract:
        // spans, phase histograms, and the flight recorder are always on.
        telemetry::set_enabled(true);
        telemetry::install_panic_hook();
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            state: ServiceState::new(cfg.schedule_cache_entries, cfg.response_cache_entries),
            metrics: Metrics::new(),
            traces: tracectx::TraceStore::new(),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            cfg,
        });
        shared.metrics.set_workers(workers);
        let accept = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(&listener, &shared))?
        };
        let worker_handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
            workers: worker_handles,
        })
    }

    /// The actual bound address (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain queued and in-flight requests, and join
    /// every thread.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // The accept thread is blocked in accept(2); a throwaway
        // connection wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Workers drain whatever is queued, then observe the flag.
        self.shared.queue_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Blocking CLI entry point: bind, serve until SIGTERM/SIGINT, then
/// shut down gracefully.
pub fn run(cfg: ServeConfig) -> std::io::Result<()> {
    signal::install();
    let workers = cfg.workers.max(1).to_string();
    let server = Server::bind(cfg)?;
    logging::info(
        "serve",
        &[
            ("msg", &format!("listening on {}", server.addr())),
            ("workers", &workers),
        ],
    );
    while !signal::triggered() {
        if signal::usr1_taken() {
            // Operator asked for a flight-recorder dump (kill -USR1).
            telemetry::flight_record(FlightKind::Signal, "SIGUSR1", 0, 0);
            eprintln!("cesim-flightrec: {}", telemetry::flight_dump_json());
        }
        thread::sleep(Duration::from_millis(100));
    }
    logging::info("serve", &[("msg", "draining and shutting down")]);
    server.shutdown();
    Ok(())
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let (mut stream, accepted) = match listener.accept() {
            Ok((s, _)) => (s, Instant::now()),
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // A connection without socket timeouts can park a worker forever
        // on a stalled peer — refuse it rather than risk that.
        if let Err(e) = stream
            .set_read_timeout(Some(shared.cfg.read_timeout))
            .and_then(|()| stream.set_write_timeout(Some(shared.cfg.write_timeout)))
        {
            logging::warn(
                "serve",
                &[(
                    "msg",
                    &format!("dropping connection (cannot set socket timeouts: {e})"),
                )],
            );
            drop(stream);
            continue;
        }
        let mut q = shared.queue.lock().expect("accept queue lock");
        if q.len() >= shared.cfg.queue_depth {
            let depth = q.len();
            drop(q);
            shared.metrics.shed();
            telemetry::flight_record(FlightKind::Shed, "queue_full", depth as u64, 0);
            // Shed requests never reach a worker, so a minimal root-only
            // trace keeps them visible in the tail-sampled store.
            shared.traces.offer(tracectx::shed_trace());
            let mut resp = Response::error(429, "queue full; retry later");
            resp.extra_headers.push(("retry-after", "1".into()));
            reject_connection(&mut stream, &resp);
        } else {
            q.push_back((stream, accepted));
            shared.metrics.set_queue_depth(q.len());
            drop(q);
            shared.queue_cv.notify_one();
        }
    }
}

/// The longest a rejected connection's unread input is drained.
const REJECT_DRAIN: Duration = Duration::from_millis(50);

/// Answer a request that will not be read in full (a 429 shed at the
/// accept queue, or a 400/408/413 from the worker), then close cleanly.
///
/// Some of the request is still unread, and closing a socket with unread
/// input makes the kernel send a reset, which can destroy the response
/// before the client reads it. So half-close the write side (the client
/// sees the response, then EOF) and discard the client's input until it
/// closes or [`REJECT_DRAIN`] runs out, whichever comes first.
fn reject_connection(stream: &mut TcpStream, resp: &Response) {
    if http::write_response(stream, resp).is_err() || stream.shutdown(Shutdown::Write).is_err() {
        return;
    }
    let deadline = Instant::now() + REJECT_DRAIN;
    let mut sink = [0u8; 4096];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut q = shared.queue.lock().expect("worker queue lock");
            loop {
                if let Some(s) = q.pop_front() {
                    shared.metrics.set_queue_depth(q.len());
                    break Some(s);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                q = shared.queue_cv.wait(q).expect("worker queue wait");
            }
        };
        let Some((mut stream, accepted)) = stream else {
            return;
        };
        shared.metrics.worker_busy();
        handle_connection(shared, &mut stream, accepted);
        shared.metrics.worker_idle();
    }
}

/// Stable endpoint label for metrics (bounds label cardinality: an
/// attacker probing random paths lands in `"other"`).
fn endpoint_label(path: &str) -> &'static str {
    match path {
        "/healthz" => "/healthz",
        "/metrics" => "/metrics",
        "/v1/simulate" => "/v1/simulate",
        "/v1/sweep" => "/v1/sweep",
        "/v1/fleet" => "/v1/fleet",
        "/v1/debug/flightrec" => "/v1/debug/flightrec",
        "/v1/test/sleep" => "/v1/test/sleep",
        "/v1/test/panic" => "/v1/test/panic",
        // One label for the whole trace-lookup family: the id segment
        // would otherwise mint a label per trace.
        p if p.starts_with("/v1/debug/traces") => "/v1/debug/traces",
        _ => "other",
    }
}

thread_local! {
    /// Whether the current request was answered from the full-response
    /// cache (`None` for endpoints that never consult it). Written by
    /// [`handle_api`], consumed by the access log in
    /// [`handle_connection`].
    static CACHE_OUTCOME: std::cell::Cell<Option<bool>> = const { std::cell::Cell::new(None) };
}

/// One structured access-log line (stable logfmt/JSON via the global
/// [`logging`] format, greppable and field-splittable; enabled by
/// [`ServeConfig::log_requests`]). Carries the request's trace id so
/// access lines join up with `/v1/debug/traces/:id`.
fn access_log_line(
    method: &str,
    path: &str,
    status: u16,
    us: u64,
    cache: Option<bool>,
    trace_id: &str,
) -> String {
    let cache = match cache {
        Some(true) => "hit",
        Some(false) => "miss",
        None => "-",
    };
    logging::render_line(
        logging::format(),
        logging::Level::Info,
        "access",
        &[
            ("method", method),
            ("path", path),
            ("status", &status.to_string()),
            ("us", &us.to_string()),
            ("cache", cache),
        ],
        Some(trace_id),
    )
}

/// Serve one connection accepted at `accepted`. Its trace's root starts
/// there, with the accept-queue wait and the request read as its first
/// children; the latency metrics start at the worker's pickup.
fn handle_connection(shared: &Shared, stream: &mut TcpStream, accepted: Instant) {
    let start = Instant::now();
    let req = match http::read_request(stream, shared.cfg.max_body_bytes) {
        Ok(req) => req,
        Err(err) => {
            let resp = match err {
                HttpError::Malformed(ref m) => Response::error(400, m),
                HttpError::TooLarge { declared, limit } => Response::error(
                    413,
                    &format!("body of {declared} bytes exceeds limit of {limit}"),
                ),
                HttpError::Truncated => Response::error(408, "request truncated"),
                // Nothing readable arrived; no response is possible.
                HttpError::Io(_) => return,
            };
            shared
                .metrics
                .observe("other", resp.status, start.elapsed(), None);
            reject_connection(stream, &resp);
            return;
        }
    };
    let read = Instant::now();
    let endpoint = endpoint_label(&req.path);
    CACHE_OUTCOME.with(|c| c.set(None));
    // Every request is traced: fresh ids, or the trace adopted from a
    // well-formed `traceparent` header (malformed values fall back to
    // fresh ids — never an error). The context is installed for the
    // duration of the handler so every telemetry span taken anywhere
    // under route() lands in this request's span tree.
    let adopted = req
        .traceparent
        .as_deref()
        .and_then(tracectx::parse_traceparent);
    let ctx =
        tracectx::TraceCtx::new_root_at(format!("{} {}", req.method, endpoint), adopted, accepted);
    ctx.record_span("queue_wait", accepted, start);
    ctx.record_span("read", start, read);
    let trace_hex = ctx.trace_id().to_string();
    let trace_guard = ctx.install();
    // Panic isolation boundary: a panicking handler (a bug, or the
    // test-only panic endpoint) becomes a 500 and the worker survives.
    let mut resp = match catch_unwind(AssertUnwindSafe(|| route(shared, &req))) {
        Ok(resp) => resp,
        Err(_) => {
            shared.metrics.panicked();
            telemetry::flight_record(FlightKind::Panic, endpoint, 0, 0);
            Response::error(500, "request handler panicked")
        }
    };
    drop(trace_guard);
    resp.extra_headers.push(("traceparent", ctx.traceparent()));
    // Finish before the response write so the root duration measures
    // request handling, not the peer's read speed; the trace is
    // retrievable at /v1/debug/traces/:id the moment the client sees
    // the response.
    shared.traces.offer(ctx.finish(resp.status, false));
    let _ = http::write_response(stream, &resp);
    let elapsed = start.elapsed();
    if shared.cfg.log_requests {
        let cache = CACHE_OUTCOME.with(std::cell::Cell::get);
        eprintln!(
            "{}",
            access_log_line(
                &req.method,
                endpoint,
                resp.status,
                elapsed.as_micros() as u64,
                cache,
                &trace_hex,
            )
        );
    }
    shared
        .metrics
        .observe(endpoint, resp.status, elapsed, Some(&trace_hex));
}

fn route(shared: &Shared, req: &http::Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::json(200, "{\"status\":\"ok\"}"),
        ("GET", "/metrics") => Response::text(200, shared.metrics.render(&shared.state)),
        ("GET", "/v1/debug/flightrec") => Response::json(200, telemetry::flight_dump_json()),
        ("GET", "/v1/debug/traces") => {
            Response::json(200, tracectx::summary_json(&shared.traces.summaries()))
        }
        ("GET", p) if p.starts_with("/v1/debug/traces/") => trace_lookup(shared, p),
        ("POST", "/v1/simulate") => handle_api(shared, "/v1/simulate", &req.body, |v| {
            SimulateRequest::from_json(v).and_then(|r| handle_simulate(&shared.state, &r))
        }),
        ("POST", "/v1/sweep") => handle_api(shared, "/v1/sweep", &req.body, |v| {
            SweepRequest::from_json(v).and_then(|r| handle_sweep(&r))
        }),
        ("POST", "/v1/fleet") => handle_api(shared, "/v1/fleet", &req.body, |v| {
            FleetRequest::from_json(v).and_then(|r| handle_fleet(&shared.state, &r))
        }),
        ("POST", "/v1/test/sleep") if shared.cfg.enable_test_endpoints => test_sleep(&req.body),
        ("POST", "/v1/test/panic") if shared.cfg.enable_test_endpoints => {
            panic!("test endpoint requested a panic")
        }
        (_, "/healthz" | "/metrics" | "/v1/debug/flightrec") => {
            Response::error(405, "method not allowed")
        }
        (_, "/v1/simulate" | "/v1/sweep" | "/v1/fleet") => {
            Response::error(405, "method not allowed")
        }
        (_, p) if p.starts_with("/v1/debug/traces") => Response::error(405, "method not allowed"),
        _ => Response::error(404, "no such endpoint"),
    }
}

/// `GET /v1/debug/traces/:id` and `…/:id/chrome`: look a sampled trace
/// up by its 32-hex-digit id and render the span tree as JSON, or as a
/// Chrome `trace_event` document (load in `chrome://tracing` /
/// Perfetto) for the `/chrome` form.
fn trace_lookup(shared: &Shared, path: &str) -> Response {
    let rest = &path["/v1/debug/traces/".len()..];
    let (id_part, as_chrome) = match rest.strip_suffix("/chrome") {
        Some(id) => (id, true),
        None => (rest, false),
    };
    let Some(id) = tracectx::TraceId::parse_hex(id_part) else {
        return Response::error(400, "trace id must be 32 hex digits");
    };
    let Some(trace) = shared.traces.get(id) else {
        return Response::error(404, "no such trace (never sampled, or evicted)");
    };
    if as_chrome {
        Response::json(200, chrome::export_request_trace(&trace))
    } else {
        Response::json(200, tracectx::trace_json(&trace))
    }
}

/// Shared plumbing for the two simulation endpoints: canonicalize the
/// body, consult the full-response cache, dispatch on a miss, and cache
/// the rendered body. Cache keys are `"<path> <canonical-json>"`, so
/// field order and whitespace never cause spurious misses and the two
/// endpoints can never alias.
fn handle_api(
    shared: &Shared,
    path: &str,
    body: &[u8],
    dispatch: impl FnOnce(&JsonValue) -> Result<JsonValue, ServiceError>,
) -> Response {
    let value = {
        let _s = telemetry::Span::enter("parse");
        let text = match std::str::from_utf8(body) {
            Ok(t) => t,
            Err(_) => return Response::error(400, "body must be UTF-8 JSON"),
        };
        match JsonValue::parse(text) {
            Ok(v) => v,
            Err(e) => return Response::error(400, &format!("invalid JSON: {e}")),
        }
    };
    let hit = {
        let _s = telemetry::Span::enter("cache_lookup");
        let key = format!("{path} {}", value.to_json());
        match shared.state.responses.get(&key) {
            Some(body) => Ok(body),
            None => Err(key),
        }
    };
    let key = match hit {
        Ok(body) => {
            CACHE_OUTCOME.with(|c| c.set(Some(true)));
            return Response::json(200, body.as_str());
        }
        Err(key) => key,
    };
    CACHE_OUTCOME.with(|c| c.set(Some(false)));
    // The dispatch span makes the root's direct children a sequential
    // chain (parse → cache_lookup → dispatch → serialize): compile/run
    // and per-cell spans nest under it, and the chain covers nearly the
    // whole request wall time in the stored trace.
    let dispatched = {
        let _s = telemetry::Span::enter("dispatch");
        dispatch(&value)
    };
    match dispatched {
        Ok(json) => {
            let _s = telemetry::Span::enter("serialize");
            let rendered = Arc::new(json.to_json());
            shared.state.responses.put(key, Arc::clone(&rendered));
            Response::json(200, rendered.as_str())
        }
        Err(ServiceError::BadRequest(m)) => Response::error(400, &m),
        Err(ServiceError::Internal(m)) => Response::error(500, &m),
    }
}

/// Test-only: `{"ms": n}` → hold the worker for `n` milliseconds. Lets
/// integration tests create deterministic queue pressure and in-flight
/// requests without depending on simulation timing.
fn test_sleep(body: &[u8]) -> Response {
    let parsed = std::str::from_utf8(body)
        .ok()
        .and_then(|t| JsonValue::parse(t).ok())
        .and_then(|v| v.get("ms").and_then(JsonValue::as_u64));
    match parsed {
        Some(ms) if ms <= 10_000 => {
            thread::sleep(Duration::from_millis(ms));
            Response::json(200, format!("{{\"slept_ms\":{ms}}}"))
        }
        _ => Response::error(400, "body must be {\"ms\": 0..=10000}"),
    }
}

#[cfg(test)]
mod tests {
    use super::{access_log_line, reject_connection, Response, REJECT_DRAIN};
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    #[test]
    fn shed_drain_is_bounded_when_the_client_never_closes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client.write_all(b"POST /v1/simulate HTTP/1.1\r\n").unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        let start = Instant::now();
        reject_connection(&mut server_side, &Response::error(429, "queue full"));
        let took = start.elapsed();
        assert!(
            took >= REJECT_DRAIN,
            "returned before the drain bound: {took:?}"
        );
        assert!(
            took < REJECT_DRAIN + Duration::from_secs(1),
            "drain overran: {took:?}"
        );
        // The client, still open, reads the whole response, then EOF.
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut raw = String::new();
        client.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 429"), "{raw}");
        assert!(raw.ends_with("{\"error\":\"queue full\"}"), "{raw}");
    }

    #[test]
    fn access_log_line_is_stable_and_greppable() {
        let t = "0af7651916cd43dd8448eb211c80319c";
        assert_eq!(
            access_log_line("POST", "/v1/simulate", 200, 532, Some(true), t),
            "level=info event=access method=POST path=/v1/simulate status=200 us=532 \
             cache=hit trace_id=0af7651916cd43dd8448eb211c80319c"
        );
        assert_eq!(
            access_log_line("POST", "/v1/sweep", 200, 88_000, Some(false), t),
            "level=info event=access method=POST path=/v1/sweep status=200 us=88000 \
             cache=miss trace_id=0af7651916cd43dd8448eb211c80319c"
        );
        assert_eq!(
            access_log_line("GET", "/healthz", 405, 12, None, t),
            "level=info event=access method=GET path=/healthz status=405 us=12 \
             cache=- trace_id=0af7651916cd43dd8448eb211c80319c"
        );
    }
}
