//! `serve`: the uncached serving path of `cesim serve`, driven in process.
//!
//! Every pass binds a fresh daemon (`workers: 2`, default caches), so the
//! caches start empty, and drives it **closed-loop** from two client
//! threads through a fixed sequence of `/v1/simulate` bodies: ~70% from a
//! hot set (9 apps × 4 node counts), ~20% a long tail of node counts that
//! mostly miss the schedule cache, ~10% exact repeats of a recent body that
//! hit the response cache. The loop is closed because daemon callers
//! (sweep scripts, notebooks) wait for each reply; an open loop gave a p99
//! that moved by a third between identical runs.

use crate::harness::{self, phase, secs, Layers, Pass, Phases, Scale, Workload};
use cesim_core::model::rng::Rng64;
use cesim_core::obs::tracectx;
use cesim_core::service::SimulateRequest;
use cesim_core::workloads::AppId;
use cesim_json::JsonValue;
use cesim_serve::{client, ServeConfig, Server};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(60);
const CLIENTS: usize = 2;
const MODES: [&str; 4] = ["hw", "sw", "fw", "100us"];

struct Request {
    body: String,
    /// Index of the earlier request this one repeats exactly.
    repeat_of: Option<usize>,
    parsed: SimulateRequest,
}

/// What the last pass saw, for the per-layer report.
#[derive(Default)]
struct ServeLast {
    bodies: Vec<String>,
    metrics: BTreeMap<String, f64>,
}

pub struct Serve {
    requests: Vec<Request>,
    last: ServeLast,
}

impl Serve {
    pub fn new(seed: u64, scale: Scale) -> Result<Serve, String> {
        // The request shapes are the same for every seed, so every seed
        // asks for the same work: the hot set (every app at 16/32/48/64
        // nodes, repeated) and one tail request per stratum of 8..=128
        // nodes, with mode, MTBCE (2^k s) and replica count from fixed
        // cycles. The seed orders them, seeds each simulation and picks
        // the repeats.
        let apps = AppId::all();
        let hot: Vec<(AppId, usize)> = apps
            .iter()
            .flat_map(|&a| [16, 32, 48, 64].map(|n| (a, n)))
            .collect();
        let mut shapes: Vec<(AppId, usize)> = match scale {
            Scale::Full => (0..3).flat_map(|_| hot.iter().copied()).collect(),
            Scale::Smoke => hot.iter().copied().step_by(4).collect(),
        };
        let tail = scale.pick(30, 2);
        shapes
            .extend((0..tail).map(|i| (apps[i % apps.len()], 8 + (2 * i + 1) * 121 / (2 * tail))));
        let round = hot.len();
        let mut rng = Rng64::new(seed);
        let mut order: Vec<usize> = (0..shapes.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.next_below(i as u64 + 1) as usize);
        }

        let repeats = scale.pick(15, 1);
        let every = shapes.len() / repeats;
        let mut bodies: Vec<(String, Option<usize>)> = Vec::with_capacity(shapes.len() + repeats);
        for (pos, &i) in order.iter().enumerate() {
            let (app, nodes) = shapes[i];
            bodies.push((
                format!(
                    r#"{{"app":"{}","nodes":{nodes},"mode":"{}","mtbce":{},"reps":{},"seed":{}}}"#,
                    app.name(),
                    MODES[(i + i / round) % MODES.len()],
                    1u64 << ((7 * i + i / round) % 12),
                    1 + (i + i / 12) % 3,
                    rng.next_u64() as u32
                ),
                None,
            ));
            if pos % every == every - 1 && bodies.len() > 8 {
                // Repeat a body far enough back that its response is
                // normally complete, and near enough to be cached.
                let len = bodies.len();
                let j = len - 8 - rng.next_below((len as u64 - 8).min(56)) as usize;
                let orig = bodies[j].1.unwrap_or(j);
                bodies.push((bodies[orig].0.clone(), Some(orig)));
            }
        }
        let requests = bodies
            .into_iter()
            .map(|(body, repeat_of)| {
                let v = JsonValue::parse(&body).map_err(|e| e.to_string())?;
                let parsed = SimulateRequest::from_json(&v).map_err(|e| e.to_string())?;
                Ok(Request {
                    body,
                    repeat_of,
                    parsed,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Serve {
            requests,
            last: ServeLast::default(),
        })
    }

    /// Bind a cold daemon and wait until `/healthz` answers 200.
    fn start() -> Result<Server, String> {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: CLIENTS,
            ..ServeConfig::default()
        })
        .map_err(|e| format!("serve: bind: {e}"))?;
        let resp = client::get(server.addr(), "/healthz", TIMEOUT)
            .map_err(|e| format!("serve: /healthz: {e}"))?;
        if resp.status != 200 {
            return Err(format!("serve: /healthz answered {}", resp.status));
        }
        Ok(server)
    }

    /// Send every request closed-loop; returns `(status, body, ms)` in
    /// request order.
    fn drive(&self, addr: SocketAddr) -> Vec<(u16, String, f64)> {
        let next = AtomicUsize::new(0);
        let results = Mutex::new(vec![(0u16, String::new(), 0.0); self.requests.len()]);
        let trace = tracectx::current();
        std::thread::scope(|s| {
            for _ in 0..CLIENTS {
                s.spawn(|| {
                    let _g = trace.as_ref().map(|t| t.install());
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = self.requests.get(i) else {
                            return;
                        };
                        let _s = tracectx::begin("serve.request");
                        let t = Instant::now();
                        let (status, body) =
                            match client::post(addr, "/v1/simulate", &req.body, TIMEOUT) {
                                Ok(resp) => (resp.status, resp.body),
                                Err(e) => (0, e.to_string()),
                            };
                        let ms = secs(t) * 1e3;
                        results.lock().expect("results lock")[i] = (status, body, ms);
                    }
                });
            }
        });
        results.into_inner().expect("results lock")
    }
}

/// The plain (unlabelled or labelled) samples of a Prometheus scrape.
fn scrape(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let resp =
        client::get(addr, "/metrics", TIMEOUT).map_err(|e| format!("serve: /metrics: {e}"))?;
    if resp.status != 200 {
        return Err(format!("serve: /metrics answered {}", resp.status));
    }
    Ok(resp
        .body
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let l = l.split(" # ").next()?;
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}

impl Workload for Serve {
    fn setup_reps(&self) -> usize {
        15
    }

    fn setup(&mut self) -> Result<(), String> {
        Serve::start()?.shutdown();
        Ok(())
    }

    fn pass(&mut self) -> Result<Pass, String> {
        let t = Instant::now();
        let server = {
            let _s = tracectx::begin("serve.bind");
            Serve::start()?
        };
        let setup_s = secs(t);
        let addr = server.addr();
        let before = {
            let _s = tracectx::begin("serve.scrape");
            scrape(addr)?
        };
        let t = Instant::now();
        let results = self.drive(addr);
        let wall_s = secs(t);
        let after = {
            let _s = tracectx::begin("serve.scrape");
            scrape(addr)
        };
        {
            let _s = tracectx::begin("serve.shutdown");
            server.shutdown();
        }
        let after = after?;

        let mut pass = Pass {
            wall_s,
            setup_s: Some(setup_s),
            attempted: results.len() as u64,
            ..Pass::default()
        };
        let mut digest_text = String::new();
        for (i, (req, (status, body, ms))) in self.requests.iter().zip(&results).enumerate() {
            if *status != 200 {
                eprintln!("serve: request {i} answered {status}: {body}");
                pass.failed += 1;
                continue;
            }
            let v = JsonValue::parse(body).map_err(|e| format!("serve: response {i}: {e}"))?;
            let echoed = v.get("app").and_then(JsonValue::as_str) == Some(req.parsed.app.name())
                && v.get("seed").and_then(JsonValue::as_u64) == Some(req.parsed.seed)
                && v.get("reps").and_then(JsonValue::as_u64) == Some(u64::from(req.parsed.reps));
            if !echoed {
                return Err(format!(
                    "serve: response {i} does not match its request: {body}"
                ));
            }
            if let Some(j) = req.repeat_of {
                if results[j].1 != *body {
                    return Err(format!(
                        "serve: repeat {i} of request {j} returned other bytes"
                    ));
                }
            }
            pass.latencies_ms.push(*ms);
            digest_text.push_str(body);
            digest_text.push('\n');
        }
        pass.digest = harness::digest(digest_text.as_bytes());
        self.last = ServeLast {
            bodies: results.into_iter().map(|r| r.1).collect(),
            metrics: after
                .into_iter()
                .map(|(k, v)| {
                    let d = v - before.get(&k).copied().unwrap_or(0.0);
                    (k, d)
                })
                .collect(),
        };
        Ok(pass)
    }

    fn layers(&mut self, pass: &Pass, phases: &Phases) -> Result<Layers, String> {
        // Repeats are answered from the response cache: no simulation.
        let simulated = || {
            self.requests
                .iter()
                .zip(&self.last.bodies)
                .filter(|(r, _)| r.repeat_of.is_none())
        };
        let keys = simulated()
            .map(|(r, _)| (r.parsed.app, r.parsed.nodes, r.parsed.workload))
            .collect();
        let stats = harness::replay(&harness::distinct(keys))?;
        let mut ce_events = 0.0;
        for (req, body) in simulated() {
            let v = JsonValue::parse(body).map_err(|e| e.to_string())?;
            if let Some(ce) = v.get("ce_events").and_then(JsonValue::as_f64) {
                ce_events += (ce * f64::from(req.parsed.reps)).round();
            }
        }
        let m = |name: &str| self.last.metrics.get(name).copied().unwrap_or(0.0);
        // Server phases are summed over the two busy workers; per client
        // they are shares of the pass's wall time.
        let per_client = |secs: f64| secs / CLIENTS as f64;
        let (build, compile, baseline) = stats.split(per_client(phase(phases, "compile")));
        let replica = per_client(phase(phases, "run"));
        let server_s: f64 = ["parse", "cache_lookup", "dispatch", "serialize"]
            .iter()
            .map(|p| phase(phases, p))
            .sum();
        let client_s: f64 = pass.latencies_ms.iter().sum::<f64>() / 1e3;
        let mut out: Layers = vec![
            ("workloads.build_s", build),
            ("engine.compile_s", compile),
            ("engine.baseline_s", baseline),
            ("engine.replica_s", replica),
            (
                "core.other_s",
                pass.wall_s - build - compile - baseline - replica,
            ),
            ("noise.ce_events", ce_events),
            ("cache.schedule_hits", m("cesim_schedule_cache_hits_total")),
            (
                "cache.schedule_misses",
                m("cesim_schedule_cache_misses_total"),
            ),
            ("cache.response_hits", m("cesim_response_cache_hits_total")),
            (
                "cache.response_misses",
                m("cesim_response_cache_misses_total"),
            ),
            ("serve.requests", pass.attempted as f64),
            ("serve.shed", m("cesim_shed_total")),
            ("serve.transport_s", per_client(client_s - server_s)),
        ];
        for (label, name) in [
            ("parse", "serve.parse_s"),
            ("cache_lookup", "serve.cache_lookup_s"),
            ("compile", "serve.compile_s"),
            ("run", "serve.run_s"),
            ("serialize", "serve.serialize_s"),
            ("dispatch", "serve.dispatch_s"),
        ] {
            out.push((name, per_client(phase(phases, label))));
        }
        stats.count_layers(&mut out);
        Ok(out)
    }
}
