//! End-to-end tests of the daemon over real sockets on an ephemeral
//! 127.0.0.1 port: determinism under concurrency, response-cache
//! behavior, queue-full shedding, malformed-input robustness, panic
//! isolation, and graceful shutdown.

use cesim_serve::client;
use cesim_serve::{ServeConfig, Server};
use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(30);

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        enable_test_endpoints: true,
        ..ServeConfig::default()
    }
}

fn scrape_counter(addr: SocketAddr, name: &str) -> u64 {
    let metrics = client::get(addr, "/metrics", TIMEOUT).unwrap();
    assert_eq!(metrics.status, 200);
    metrics
        .body
        .lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or_else(|| panic!("metric {name} missing from scrape"))
}

#[test]
fn healthz_and_unknown_routes() {
    let server = Server::bind(test_config()).unwrap();
    let addr = server.addr();
    let ok = client::get(addr, "/healthz", TIMEOUT).unwrap();
    assert_eq!(ok.status, 200);
    assert_eq!(ok.body, "{\"status\":\"ok\"}");
    assert_eq!(client::get(addr, "/nope", TIMEOUT).unwrap().status, 404);
    assert_eq!(
        client::post(addr, "/healthz", "{}", TIMEOUT)
            .unwrap()
            .status,
        405
    );
    assert_eq!(
        client::get(addr, "/v1/simulate", TIMEOUT).unwrap().status,
        405
    );
    server.shutdown();
}

#[test]
fn concurrent_identical_requests_are_byte_identical_and_cached() {
    let server = Server::bind(test_config()).unwrap();
    let addr = server.addr();
    let body = r#"{"app":"miniFE","nodes":8,"mode":"fw","mtbce":"1s","reps":2,"steps":3}"#;

    // (a) 8 concurrent identical POSTs → byte-identical bodies.
    let bodies: Vec<String> = (0..8)
        .map(|_| {
            thread::spawn(move || {
                let r = client::post(addr, "/v1/simulate", body, TIMEOUT).unwrap();
                assert_eq!(r.status, 200, "{}", r.body);
                r.body
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().unwrap())
        .collect();
    for b in &bodies[1..] {
        assert_eq!(b, &bodies[0], "concurrent identical requests must agree");
    }
    assert!(bodies[0].contains("\"app\":\"miniFE\""));
    assert!(bodies[0].contains("\"slowdown_pct\":"));

    // (b) a field-order permutation of the same request is a
    // response-cache hit (canonicalized key), per /metrics.
    let hits_before = scrape_counter(addr, "cesim_response_cache_hits_total");
    let permuted = r#"{"steps":3,"reps":2,"mtbce":"1s","mode":"fw","nodes":8,"app":"miniFE"}"#;
    let again = client::post(addr, "/v1/simulate", permuted, TIMEOUT).unwrap();
    assert_eq!(again.status, 200);
    assert_eq!(again.body, bodies[0], "cache replays the exact bytes");
    let hits_after = scrape_counter(addr, "cesim_response_cache_hits_total");
    assert!(
        hits_after > hits_before,
        "permuted request must hit the response cache ({hits_before} → {hits_after})"
    );
    // The schedule cache served the sequential follow-up without a
    // recompile. (Concurrent first arrivals may each have compiled —
    // the cache races benignly, compiling outside the lock — so the
    // miss count is bounded by the burst size, not exactly 1.)
    let misses = scrape_counter(addr, "cesim_schedule_cache_misses_total");
    assert!((1..=8).contains(&misses), "misses = {misses}");
    server.shutdown();
}

#[test]
fn sustains_32_concurrent_in_flight_requests() {
    let server = Server::bind(ServeConfig {
        workers: 32,
        queue_depth: 64,
        ..test_config()
    })
    .unwrap();
    let addr = server.addr();
    // 32 requests that each hold a worker for 300 ms. With 32 workers
    // they must all be in flight at once: total wall time far below the
    // 9.6 s serial bound.
    let start = Instant::now();
    let handles: Vec<_> = (0..32)
        .map(|_| {
            thread::spawn(move || {
                client::post(addr, "/v1/test/sleep", r#"{"ms":300}"#, TIMEOUT).unwrap()
            })
        })
        .collect();
    for h in handles {
        let r = h.join().unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.body, "{\"slept_ms\":300}");
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "32 sleeps of 300ms took {elapsed:?}; not concurrent"
    );
    server.shutdown();
}

#[test]
fn queue_overflow_sheds_429_with_retry_after() {
    // One worker, queue depth one: occupy the worker, fill the queue,
    // then watch further arrivals bounce.
    let server = Server::bind(ServeConfig {
        workers: 1,
        queue_depth: 1,
        ..test_config()
    })
    .unwrap();
    let addr = server.addr();
    let hold = thread::spawn(move || {
        client::post(addr, "/v1/test/sleep", r#"{"ms":1500}"#, TIMEOUT).unwrap()
    });
    // Wait until the worker has picked up the hold request.
    thread::sleep(Duration::from_millis(300));
    let fill = thread::spawn(move || {
        client::post(addr, "/v1/test/sleep", r#"{"ms":10}"#, TIMEOUT).unwrap()
    });
    thread::sleep(Duration::from_millis(300));
    // Queue now holds `fill`; this one must be shed.
    let shed = client::post(addr, "/v1/test/sleep", r#"{"ms":10}"#, TIMEOUT).unwrap();
    assert_eq!(shed.status, 429);
    assert_eq!(shed.header("retry-after"), Some("1"));
    assert!(shed.body.contains("queue full"));
    // The held and queued requests still complete normally.
    assert_eq!(hold.join().unwrap().status, 200);
    assert_eq!(fill.join().unwrap().status, 200);
    let shed_total = scrape_counter(addr, "cesim_shed_total");
    assert!(shed_total >= 1, "shed counter must record the 429");
    server.shutdown();
}

#[test]
fn malformed_inputs_get_4xx_without_killing_workers() {
    let server = Server::bind(ServeConfig {
        workers: 1,
        max_body_bytes: 512,
        ..test_config()
    })
    .unwrap();
    let addr = server.addr();

    // Invalid JSON → 400.
    let r = client::post(addr, "/v1/simulate", "{not json", TIMEOUT).unwrap();
    assert_eq!(r.status, 400);
    assert!(r.body.contains("invalid JSON"));
    // Valid JSON, bad request → 400 naming the field.
    let r = client::post(addr, "/v1/simulate", r#"{"app":"nope"}"#, TIMEOUT).unwrap();
    assert_eq!(r.status, 400);
    assert!(r.body.contains("unknown app"));
    // Unknown field → 400 (strict mapping).
    let r = client::post(addr, "/v1/simulate", r#"{"app":"HPCG","bogus":1}"#, TIMEOUT).unwrap();
    assert_eq!(r.status, 400);
    // Oversized body → 413.
    let big = format!(r#"{{"app":"{}"}}"#, "x".repeat(600));
    let r = client::post(addr, "/v1/simulate", &big, TIMEOUT).unwrap();
    assert_eq!(r.status, 413);
    // Truncated request (Content-Length larger than what arrives):
    // the daemon answers 408 once its read times out, so use a server
    // with a short read timeout to keep the test fast.
    // Unknown method on a known path → 405.
    let r = client::request(addr, "BREW", "/v1/simulate", Some("{}"), TIMEOUT).unwrap();
    assert_eq!(r.status, 405);
    // A panicking handler → 500, worker survives.
    let r = client::post(addr, "/v1/test/panic", "{}", TIMEOUT).unwrap();
    assert_eq!(r.status, 500);
    assert!(r.body.contains("panicked"));
    // The single worker is still alive and serving.
    let ok = client::get(addr, "/healthz", TIMEOUT).unwrap();
    assert_eq!(ok.status, 200);
    assert_eq!(scrape_counter(addr, "cesim_worker_panics_total"), 1);
    server.shutdown();

    // 20,000 nested arrays (20 KB, within the default body limit) → 400
    // from the parser's depth cap, not a stack overflow on the worker
    // thread that aborts the whole process.
    let server = Server::bind(ServeConfig {
        workers: 1,
        ..test_config()
    })
    .unwrap();
    let addr = server.addr();
    let r = client::post(addr, "/v1/simulate", &"[".repeat(20_000), TIMEOUT).unwrap();
    assert_eq!(r.status, 400);
    assert!(r.body.contains("deeper than 128"), "{}", r.body);
    assert_eq!(client::get(addr, "/healthz", TIMEOUT).unwrap().status, 200);
    server.shutdown();
}

#[test]
fn truncated_request_times_out_as_408() {
    let server = Server::bind(ServeConfig {
        read_timeout: Duration::from_millis(300),
        ..test_config()
    })
    .unwrap();
    let addr = server.addr();
    // Open a raw socket, declare a body, send half of it, keep the
    // connection open: the server's read timeout must fire and answer
    // 408 instead of wedging the worker.
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.write_all(b"POST /v1/simulate HTTP/1.1\r\ncontent-length: 100\r\n\r\n{\"app\":")
        .unwrap();
    s.set_read_timeout(Some(TIMEOUT)).unwrap();
    let mut text = String::new();
    s.read_to_string(&mut text).unwrap();
    assert!(text.starts_with("HTTP/1.1 408 "), "got: {text}");
    // Worker survived.
    assert_eq!(client::get(addr, "/healthz", TIMEOUT).unwrap().status, 200);
    server.shutdown();
}

#[test]
fn non_token_method_reads_400() {
    // A control character in the method makes it no RFC 9110 token:
    // rejected at read, so it never reaches a trace name.
    let server = Server::bind(test_config()).unwrap();
    let addr = server.addr();
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(TIMEOUT)).unwrap();
    s.write_all(b"GE\x01T /v1/simulate HTTP/1.1\r\n\r\n")
        .unwrap();
    let mut text = String::new();
    s.read_to_string(&mut text).unwrap();
    assert!(text.starts_with("HTTP/1.1 400 "), "got: {text}");
    assert!(text.contains("invalid method"), "got: {text}");
    server.shutdown();
}

#[test]
fn oversized_body_written_in_full_still_reads_413() {
    // The daemon answers 413 from the headers alone, with most of the
    // body still unread in its socket. Closing such a socket sends a
    // reset, which must not destroy the answer before the client reads
    // it: the whole 64 KiB body goes out first, then the client reads.
    let server = Server::bind(ServeConfig {
        max_body_bytes: 32 << 10,
        ..test_config()
    })
    .unwrap();
    let addr = server.addr();
    use std::io::{Read, Write};
    let body = vec![b'x'; 64 << 10];
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(TIMEOUT)).unwrap();
    write!(
        s,
        "POST /v1/simulate HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .unwrap();
    s.write_all(&body).unwrap();
    let mut text = Vec::new();
    let read = s.read_to_end(&mut text);
    let text = String::from_utf8_lossy(&text);
    assert!(text.starts_with("HTTP/1.1 413 "), "got {read:?}: {text}");
    // The answer must end in EOF: a reader that stops at the first error
    // (as `client::post` does) never sees a 413 followed by a reset.
    assert!(read.is_ok(), "connection reset after the answer: {read:?}");
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let server = Server::bind(ServeConfig {
        workers: 2,
        ..test_config()
    })
    .unwrap();
    let addr = server.addr();
    // Put a slow request in flight, then shut down while it runs.
    let in_flight = thread::spawn(move || {
        client::post(addr, "/v1/test/sleep", r#"{"ms":800}"#, TIMEOUT).unwrap()
    });
    thread::sleep(Duration::from_millis(200));
    let shutdown_started = Instant::now();
    server.shutdown();
    let drained_after = shutdown_started.elapsed();
    // The in-flight request completed with a real response...
    let r = in_flight.join().unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.body, "{\"slept_ms\":800}");
    // ...and shutdown blocked until it drained (~600ms remained).
    assert!(
        drained_after >= Duration::from_millis(400),
        "shutdown returned after {drained_after:?}, before the in-flight request finished"
    );
    // The listener is closed: new connections are refused or reset.
    assert!(
        client::get(addr, "/healthz", Duration::from_millis(500)).is_err(),
        "daemon must not accept connections after shutdown"
    );
}

#[test]
fn sweep_endpoint_is_deterministic() {
    let server = Server::bind(test_config()).unwrap();
    let addr = server.addr();
    let body = r#"{"figure":"fig4","apps":["LULESH"],"nodes":16,"steps_scale":0.05}"#;
    let a = client::post(addr, "/v1/sweep", body, TIMEOUT).unwrap();
    assert_eq!(a.status, 200, "{}", a.body);
    assert!(a.body.contains("\"figure\":\"fig4\""));
    assert!(a.body.contains("\"cells\":["));
    server.shutdown();

    // A fresh server process produces the same bytes (no wall-clock or
    // identity data in bodies; seeding is positional).
    let server2 = Server::bind(test_config()).unwrap();
    let b = client::post(server2.addr(), "/v1/sweep", body, TIMEOUT).unwrap();
    assert_eq!(b.status, 200);
    assert_eq!(a.body, b.body, "sweep bodies identical across servers");
    server2.shutdown();

    let server3 = Server::bind(test_config()).unwrap();
    let bad = client::post(server3.addr(), "/v1/sweep", r#"{"figure":"fig9"}"#, TIMEOUT).unwrap();
    assert_eq!(bad.status, 400);
    server3.shutdown();
}

#[test]
fn simulate_identical_across_servers_and_worker_counts() {
    // Byte-identity must hold across processes and thread counts, not
    // just within one warm cache.
    let body = r#"{"app":"LULESH","nodes":27,"mode":"sw","mtbce":"500ms","reps":2,"steps":4}"#;
    let mut seen: Option<String> = None;
    for workers in [1, 8] {
        let server = Server::bind(ServeConfig {
            workers,
            ..test_config()
        })
        .unwrap();
        let r = client::post(server.addr(), "/v1/simulate", body, TIMEOUT).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        if let Some(prev) = &seen {
            assert_eq!(&r.body, prev, "body differs at workers={workers}");
        }
        seen = Some(r.body);
        server.shutdown();
    }
}

#[test]
fn metrics_shape_covers_endpoints_and_caches() {
    let server = Server::bind(test_config()).unwrap();
    let addr = server.addr();
    let _ = client::get(addr, "/healthz", TIMEOUT).unwrap();
    let _ = client::post(
        addr,
        "/v1/simulate",
        r#"{"app":"HPCG","nodes":8,"reps":1,"steps":2}"#,
        TIMEOUT,
    )
    .unwrap();
    let scrape = client::get(addr, "/metrics", TIMEOUT).unwrap();
    assert_eq!(scrape.status, 200);
    for needle in [
        "cesim_requests_total{endpoint=\"/healthz\",code=\"200\"} 1",
        "cesim_requests_total{endpoint=\"/v1/simulate\",code=\"200\"} 1",
        "cesim_request_duration_seconds_bucket{endpoint=\"/v1/simulate\",le=\"+Inf\"} 1",
        "cesim_request_duration_seconds_count{endpoint=\"/v1/simulate\"} 1",
        "cesim_queue_depth",
        "cesim_shed_total 0",
        "cesim_worker_panics_total 0",
        "cesim_schedule_cache_misses_total 1",
        "cesim_response_cache_misses_total 1",
    ] {
        assert!(
            scrape.body.contains(needle),
            "missing {needle:?} in:\n{}",
            scrape.body
        );
    }
    server.shutdown();
}

#[test]
fn scrape_is_valid_prometheus_and_flightrec_dumps() {
    // The full observability loop over real sockets: a sharded simulate
    // populates phase spans and shard counters, the whole scrape body
    // passes the in-repo exposition validator, and the flight recorder
    // serves recent structured events as JSON.
    let server = Server::bind(test_config()).unwrap();
    let addr = server.addr();
    let resp = client::post(
        addr,
        "/v1/simulate",
        r#"{"app":"HPCG","nodes":8,"reps":1,"steps":2,"shards":2}"#,
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(resp.status, 200);

    let scrape = client::get(addr, "/metrics", TIMEOUT).unwrap();
    assert_eq!(scrape.status, 200);
    let stats = cesim_serve::promcheck::validate_prometheus(&scrape.body)
        .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{}", scrape.body));
    assert!(
        stats.histograms >= 2,
        "latency + phase histograms: {stats:?}"
    );
    for needle in [
        "cesim_build_info{version=",
        "cesim_uptime_seconds ",
        "cesim_workers 4",
        "cesim_shard_runs_total",
        "cesim_phase_seconds_bucket{phase=\"parse\"",
        "cesim_phase_seconds_bucket{phase=\"run\"",
        "cesim_baseline_forks_total ",
        "cesim_forked_events_total ",
        "cesim_baseline_rejoins_total ",
        "cesim_rejoined_events_total ",
        "cesim_fork_snapshots ",
        "cesim_fork_snapshot_bytes ",
    ] {
        assert!(
            scrape.body.contains(needle),
            "missing {needle:?} in:\n{}",
            scrape.body
        );
    }

    // The request above compiled one entry and built its fork table.
    assert!(
        scrape.body.contains("\ncesim_fork_tables 1\n"),
        "fork table gauge in:\n{}",
        scrape.body
    );

    let dump = client::get(addr, "/v1/debug/flightrec", TIMEOUT).unwrap();
    assert_eq!(dump.status, 200);
    let v = cesim_json::JsonValue::parse(&dump.body).expect("flightrec dump is valid JSON");
    assert!(
        v.get("total")
            .and_then(cesim_json::JsonValue::as_u64)
            .unwrap()
            > 0
    );
    let events = v
        .get("events")
        .and_then(cesim_json::JsonValue::as_array)
        .unwrap();
    assert!(!events.is_empty(), "flight ring must hold recent events");
    let kinds: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("kind").and_then(cesim_json::JsonValue::as_str))
        .collect();
    assert!(
        kinds.contains(&"span_begin") && kinds.contains(&"span_end"),
        "expected span events in flight dump, got kinds {kinds:?}"
    );
    assert_eq!(
        client::post(addr, "/v1/debug/flightrec", "{}", TIMEOUT)
            .unwrap()
            .status,
        405
    );
    server.shutdown();
}
