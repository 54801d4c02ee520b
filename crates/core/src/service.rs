//! Request → experiment mapping for the serving daemon.
//!
//! `cesim-serve` is transport only: it parses HTTP, enforces
//! backpressure, and counts metrics. Everything semantic about a request
//! — validation, defaults, mapping onto [`Experiment`] / figure sweeps,
//! and rendering results as JSON — lives here so it can be unit-tested
//! without sockets and reused by the in-process load generator.
//!
//! **Determinism contract.** A response is a pure function of the
//! request: every field that feeds the simulation (seed, reps, scale)
//! comes from the request or a fixed default, no wall-clock or
//! identity data is ever included in a body, and the underlying sweeps
//! are seeded by stable coordinates (see `crate::seed`). This is what
//! makes the daemon's full-response cache sound and lets the
//! integration tests demand byte-identical bodies across concurrent
//! runs.

use crate::cache::{ResponseCache, ScheduleCache};
use crate::experiment::{run_against_table, Experiment};
use crate::figures::{self, FigureData, ScaleConfig};
use cesim_goal::Rank;
use cesim_json::JsonValue;
use cesim_model::{parse_positive_span, parse_span, LogGopsParams, LoggingMode, Span};
use cesim_noise::Scope;
use cesim_workloads::{AppId, WorkloadConfig};
use std::collections::BTreeMap;

/// Upper bound on simulated nodes per request — keeps a single request
/// from monopolizing the daemon with a paper-scale (16k-node) run.
pub const MAX_NODES: usize = 4096;
/// Upper bound on replicas per request.
pub const MAX_REPS: u64 = 64;
/// Upper bound on intra-run event-loop shards per request.
pub const MAX_SHARDS: u64 = 64;

/// A request failed. [`BadRequest`](ServiceError::BadRequest) maps to
/// HTTP 400, [`Internal`](ServiceError::Internal) to 500.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The request was malformed or out of bounds; the message names the
    /// offending field.
    BadRequest(String),
    /// The simulation itself failed (deadlock guard etc.) — a server
    /// bug, since validated requests map onto well-formed schedules.
    Internal(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServiceError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for ServiceError {}

fn bad(msg: impl Into<String>) -> ServiceError {
    ServiceError::BadRequest(msg.into())
}

/// Shared per-daemon simulation state: the two caches. One instance
/// lives for the life of the process and is shared by every worker.
pub struct ServiceState {
    /// Compiled-schedule + baseline cache.
    pub schedules: ScheduleCache,
    /// Full-response cache keyed by canonicalized request.
    pub responses: ResponseCache,
}

impl ServiceState {
    /// State with the given cache capacities (`0` disables a cache).
    pub fn new(schedule_entries: usize, response_entries: usize) -> Self {
        ServiceState {
            schedules: ScheduleCache::new(schedule_entries),
            responses: ResponseCache::new(response_entries),
        }
    }
}

/// A validated `POST /v1/simulate` body: one experiment cell.
#[derive(Clone, Debug)]
pub struct SimulateRequest {
    /// Workload under test.
    pub app: AppId,
    /// Simulated node count (snapped by the workload's natural shape).
    pub nodes: usize,
    /// Logging mode.
    pub mode: LoggingMode,
    /// Per-node mean time between CEs.
    pub mtbce: Span,
    /// Perturbed replicas to average.
    pub reps: u32,
    /// Base RNG seed.
    pub seed: u64,
    /// Inject CEs into a single rank (Fig. 3 style) instead of all.
    pub single_rank: bool,
    /// Workload generation knobs (steps / steps_scale).
    pub workload: WorkloadConfig,
    /// Intra-run event-loop shards (`1` = serial engine; results are
    /// byte-identical for every value).
    pub shards: usize,
}

// JSON request-field helpers, shared with the fleet spec parser
// (`cesim_fleet::spec`). Each error message names the offending field;
// the `/v1/simulate` and `/v1/sweep` paths wrap them with `bad`.

/// `v` as an object, or an error naming it `what`.
pub fn expect_object<'v>(
    v: &'v JsonValue,
    what: &str,
) -> Result<&'v BTreeMap<String, JsonValue>, String> {
    v.as_object()
        .ok_or_else(|| format!("{what} must be a JSON object"))
}

/// Reject any key of `obj` (named `what`) outside `known`: a typo must
/// not silently fall back to a default.
pub fn reject_unknown(
    obj: &BTreeMap<String, JsonValue>,
    what: &str,
    known: &[&str],
) -> Result<(), String> {
    match obj.keys().find(|key| !known.contains(&key.as_str())) {
        Some(key) => Err(format!(
            "{what}: unknown field {key:?} (expected one of: {})",
            known.join(", ")
        )),
        None => Ok(()),
    }
}

/// Field `key` as a non-negative integer, `default` when absent.
pub fn field_u64(
    obj: &BTreeMap<String, JsonValue>,
    key: &str,
    default: u64,
) -> Result<u64, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("{key} must be a non-negative integer")),
    }
}

/// Field `key` as a number, `default` when absent.
pub fn field_f64(
    obj: &BTreeMap<String, JsonValue>,
    key: &str,
    default: f64,
) -> Result<f64, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v.as_f64().ok_or_else(|| format!("{key} must be a number")),
    }
}

fn field_bool(obj: &BTreeMap<String, JsonValue>, key: &str, default: bool) -> Result<bool, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| format!("{key} must be a boolean")),
    }
}

fn parse_app(v: &JsonValue) -> Result<AppId, ServiceError> {
    let name = v.as_str().ok_or_else(|| bad("app must be a string"))?;
    AppId::parse(name).ok_or_else(|| {
        let names: Vec<&str> = AppId::all().into_iter().map(|a| a.name()).collect();
        bad(format!(
            "unknown app {name:?} (expected one of: {})",
            names.join(", ")
        ))
    })
}

/// Parse logging-mode field `what`: `"hw"` / `"sw"` / `"fw"` (or the
/// long names), or any duration accepted by [`parse_span`] as a custom
/// per-event cost (`"7ms"`, `"500us"`, …).
pub fn parse_mode(v: &JsonValue, what: &str) -> Result<LoggingMode, String> {
    let s = v
        .as_str()
        .ok_or_else(|| format!("{what} must be a string"))?;
    match s.to_ascii_lowercase().as_str() {
        "hw" | "hardware" | "hardware-only" => Ok(LoggingMode::HardwareOnly),
        "sw" | "software" | "os" => Ok(LoggingMode::Software),
        "fw" | "firmware" => Ok(LoggingMode::Firmware),
        other => parse_span(other).map(LoggingMode::Custom).map_err(|_| {
            format!(
                "{what} must be \"hw\", \"sw\", \"fw\", or a per-event duration like \"7ms\" (got {s:?})"
            )
        }),
    }
}

/// Parse MTBCE field `what`: a duration string (`"1h"`, `"200ms"`) or a
/// plain number of seconds, either way at least 1 ps.
pub fn parse_mtbce(v: &JsonValue, what: &str) -> Result<Span, String> {
    if let Some(s) = v.as_str() {
        return parse_positive_span(s).map_err(|e| format!("{what}: {e}"));
    }
    if let Some(secs) = v.as_f64() {
        if !secs.is_finite() || secs <= 0.0 || Span::from_secs_f64(secs).is_zero() {
            return Err(format!("{what}: seconds must be positive (at least 1ps)"));
        }
        return Ok(Span::from_secs_f64(secs));
    }
    Err(format!("{what} must be a duration string or seconds"))
}

impl SimulateRequest {
    const KNOWN: &'static [&'static str] = &[
        "app",
        "nodes",
        "mode",
        "mtbce",
        "reps",
        "seed",
        "shards",
        "single_rank",
        "steps",
        "steps_scale",
    ];

    /// Validate a parsed `POST /v1/simulate` body. Unknown fields are
    /// rejected (a typo must not silently fall back to a default).
    pub fn from_json(v: &JsonValue) -> Result<Self, ServiceError> {
        let obj = expect_object(v, "request body").map_err(bad)?;
        reject_unknown(obj, "request body", Self::KNOWN).map_err(bad)?;
        let app = parse_app(obj.get("app").ok_or_else(|| bad("missing field \"app\""))?)?;
        let nodes = field_u64(obj, "nodes", 64).map_err(bad)? as usize;
        if nodes == 0 || nodes > MAX_NODES {
            return Err(bad(format!("nodes must be in 1..={MAX_NODES}")));
        }
        let mode = match obj.get("mode") {
            Some(v) => parse_mode(v, "mode").map_err(bad)?,
            None => LoggingMode::Firmware,
        };
        let mtbce = match obj.get("mtbce") {
            Some(v) => parse_mtbce(v, "mtbce").map_err(bad)?,
            None => Span::from_secs(3600),
        };
        let reps = field_u64(obj, "reps", 3).map_err(bad)?;
        if reps == 0 || reps > MAX_REPS {
            return Err(bad(format!("reps must be in 1..={MAX_REPS}")));
        }
        let seed = field_u64(obj, "seed", 0xCE11).map_err(bad)?;
        let shards = field_u64(obj, "shards", 1).map_err(bad)?;
        if shards == 0 || shards > MAX_SHARDS {
            return Err(bad(format!("shards must be in 1..={MAX_SHARDS}")));
        }
        let single_rank = field_bool(obj, "single_rank", false).map_err(bad)?;
        // Serving default: a quarter of the app's step count. Full-length
        // runs are for the CLI; the daemon favors latency, and slowdown
        // ratios converge with few steps (see figures module docs).
        let mut workload = WorkloadConfig {
            steps_scale: 0.25,
            ..WorkloadConfig::default()
        };
        if let Some(v) = obj.get("steps") {
            let steps = v
                .as_u64()
                .filter(|&s| s >= 1)
                .ok_or_else(|| bad("steps must be a positive integer"))?;
            workload.steps_override = Some(steps as usize);
        }
        if obj.contains_key("steps_scale") {
            let scale = field_f64(obj, "steps_scale", 0.25).map_err(bad)?;
            if !scale.is_finite() || scale <= 0.0 {
                return Err(bad("steps_scale must be positive"));
            }
            workload.steps_scale = scale;
        }
        Ok(SimulateRequest {
            app,
            nodes,
            mode,
            mtbce,
            reps: reps as u32,
            seed,
            single_rank,
            workload,
            shards: shards as usize,
        })
    }

    fn to_experiment(&self) -> Experiment {
        let mut exp = Experiment::new(self.app, self.nodes)
            .mode(self.mode)
            .mtbce(self.mtbce)
            .reps(self.reps)
            .seed(self.seed)
            .shards(self.shards);
        if self.single_rank {
            exp = exp.scope(Scope::SingleRank(Rank(0)));
        }
        exp.workload = self.workload;
        exp
    }
}

/// Run one simulate request against the shared caches and render the
/// response body.
pub fn handle_simulate(
    state: &ServiceState,
    req: &SimulateRequest,
) -> Result<JsonValue, ServiceError> {
    let exp = req.to_experiment();
    // The "compile" phase span lives inside `get_or_compile` so cache
    // hits contribute nothing to it; the run phase wraps the replicas.
    let table = state
        .schedules
        .get_or_compile(req.app, req.nodes, &req.workload, &LogGopsParams::xc40())
        .map_err(|e| ServiceError::Internal(e.to_string()))?;
    let out = {
        let _s = cesim_obs::telemetry::Span::enter("run");
        run_against_table(&exp, &table, 0).map_err(|e| ServiceError::Internal(e.to_string()))?
    };
    state.schedules.record_forks(&out.runs);
    let ci = out.slowdown_ci95_pct();
    Ok(JsonValue::object([
        ("app", req.app.name().into()),
        ("nodes", req.nodes.into()),
        ("ranks", out.ranks.into()),
        ("mode", req.mode.short_label().into()),
        ("mtbce_s", req.mtbce.as_secs_f64().into()),
        ("reps", req.reps.into()),
        ("seed", req.seed.into()),
        ("baseline_s", out.baseline.as_secs_f64().into()),
        ("diverged", out.diverged.into()),
        (
            "slowdown_pct",
            out.mean_slowdown_pct().map_or(JsonValue::Null, Into::into),
        ),
        (
            "stddev_pct",
            out.slowdown_stddev_pct()
                .map_or(JsonValue::Null, Into::into),
        ),
        (
            "ci95_pct",
            ci.map_or(JsonValue::Null, |(lo, hi)| {
                JsonValue::Array(vec![lo.into(), hi.into()])
            }),
        ),
        ("ce_events", out.mean_ce_events().into()),
    ]))
}

/// A validated `POST /v1/sweep` body: one figure-style grid.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepRequest {
    /// Figure to regenerate ("fig3" … "fig7").
    pub figure: String,
    /// Simulated node count.
    pub nodes: usize,
    /// Replicas per cell.
    pub reps: u32,
    /// Workload step-count scale.
    pub steps_scale: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Workloads to sweep (defaults to all nine).
    pub apps: Vec<AppId>,
}

impl SweepRequest {
    const KNOWN: &'static [&'static str] =
        &["figure", "nodes", "reps", "steps_scale", "seed", "apps"];

    /// Validate a parsed `POST /v1/sweep` body.
    pub fn from_json(v: &JsonValue) -> Result<Self, ServiceError> {
        let obj = expect_object(v, "request body").map_err(bad)?;
        reject_unknown(obj, "request body", Self::KNOWN).map_err(bad)?;
        let figure = obj
            .get("figure")
            .ok_or_else(|| bad("missing field \"figure\""))?
            .as_str()
            .ok_or_else(|| bad("figure must be a string"))?
            .to_ascii_lowercase();
        if !matches!(figure.as_str(), "fig3" | "fig4" | "fig5" | "fig6" | "fig7") {
            return Err(bad(format!(
                "unknown figure {figure:?} (expected fig3..fig7)"
            )));
        }
        let nodes = field_u64(obj, "nodes", 32).map_err(bad)? as usize;
        if nodes == 0 || nodes > MAX_NODES {
            return Err(bad(format!("nodes must be in 1..={MAX_NODES}")));
        }
        let reps = field_u64(obj, "reps", 1).map_err(bad)?;
        if reps == 0 || reps > MAX_REPS {
            return Err(bad(format!("reps must be in 1..={MAX_REPS}")));
        }
        let steps_scale = field_f64(obj, "steps_scale", 0.05).map_err(bad)?;
        if !steps_scale.is_finite() || steps_scale <= 0.0 {
            return Err(bad("steps_scale must be positive"));
        }
        let seed = field_u64(obj, "seed", 0xF16).map_err(bad)?;
        let apps = match obj.get("apps") {
            None => AppId::all().to_vec(),
            Some(v) => {
                let arr = v
                    .as_array()
                    .ok_or_else(|| bad("apps must be an array of workload names"))?;
                if arr.is_empty() {
                    return Err(bad("apps must not be empty"));
                }
                arr.iter().map(parse_app).collect::<Result<Vec<_>, _>>()?
            }
        };
        Ok(SweepRequest {
            figure,
            nodes,
            reps: reps as u32,
            steps_scale,
            seed,
            apps,
        })
    }

    fn to_scale_config(&self) -> ScaleConfig {
        ScaleConfig {
            nodes: self.nodes,
            reps: self.reps,
            steps_scale: self.steps_scale,
            seed: self.seed,
            apps: self.apps.clone(),
            ..ScaleConfig::default()
        }
    }
}

fn figure_json(fig: &FigureData) -> JsonValue {
    let cells: Vec<JsonValue> = fig
        .cells
        .iter()
        .map(|c| {
            JsonValue::object([
                ("app", c.app.name().into()),
                ("group", c.group.as_str().into()),
                ("mode", c.mode.short_label().into()),
                ("mtbce_s", c.mtbce.as_secs_f64().into()),
                ("ranks", c.ranks.into()),
                ("baseline_s", c.baseline_secs.into()),
                (
                    "slowdown_pct",
                    c.slowdown_pct.map_or(JsonValue::Null, Into::into),
                ),
                (
                    "stddev_pct",
                    c.stddev_pct.map_or(JsonValue::Null, Into::into),
                ),
                ("ce_events", c.ce_events.into()),
            ])
        })
        .collect();
    JsonValue::object([
        ("figure", fig.id.as_str().into()),
        ("title", fig.title.as_str().into()),
        ("cells", JsonValue::Array(cells)),
    ])
}

/// Run one sweep request on the ambient rayon pool and render the
/// response body. Cells are seeded by stable grid coordinates
/// ([`crate::seed::point_seed`]), so the body is byte-identical for any
/// worker-thread count or request interleaving.
pub fn handle_sweep(req: &SweepRequest) -> Result<JsonValue, ServiceError> {
    let cfg = req.to_scale_config();
    let fig = match req.figure.as_str() {
        "fig3" => figures::fig3(&cfg),
        "fig4" => figures::fig4(&cfg),
        "fig5" => figures::fig5(&cfg),
        "fig6" => figures::fig6(&cfg),
        "fig7" => figures::fig7(&cfg),
        other => return Err(bad(format!("unknown figure {other:?}"))),
    };
    Ok(figure_json(&fig))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cesim_json::canonicalize;
    use std::sync::Arc;

    fn parse(text: &str) -> JsonValue {
        JsonValue::parse(text).expect("test JSON is well-formed")
    }

    #[test]
    fn simulate_defaults_and_required_fields() {
        let req = SimulateRequest::from_json(&parse(r#"{"app":"LULESH"}"#)).unwrap();
        assert_eq!(req.app, AppId::Lulesh);
        assert_eq!(req.nodes, 64);
        assert_eq!(req.mode, LoggingMode::Firmware);
        assert_eq!(req.mtbce, Span::from_secs(3600));
        assert_eq!(req.reps, 3);
        assert_eq!(req.seed, 0xCE11);
        assert!(!req.single_rank);
        assert_eq!(req.workload.steps_scale, 0.25);

        let err = SimulateRequest::from_json(&parse("{}")).unwrap_err();
        assert!(matches!(err, ServiceError::BadRequest(ref m) if m.contains("app")));
    }

    #[test]
    fn simulate_rejects_unknown_fields() {
        let err =
            SimulateRequest::from_json(&parse(r#"{"app":"LULESH","mtbse":"1h"}"#)).unwrap_err();
        assert!(
            matches!(err, ServiceError::BadRequest(ref m) if m.contains("mtbse")),
            "typo must be named: {err}"
        );
    }

    #[test]
    fn simulate_parses_modes_and_spans() {
        let req = SimulateRequest::from_json(&parse(
            r#"{"app":"HPCG","mode":"sw","mtbce":"200ms","nodes":16,"reps":2,"steps":5}"#,
        ))
        .unwrap();
        assert_eq!(req.mode, LoggingMode::Software);
        assert_eq!(req.mtbce, Span::from_ms(200));
        assert_eq!(req.workload.steps_override, Some(5));
        // Custom per-event duration and numeric mtbce seconds.
        let req =
            SimulateRequest::from_json(&parse(r#"{"app":"HPCG","mode":"7ms","mtbce":2}"#)).unwrap();
        assert_eq!(req.mode, LoggingMode::Custom(Span::from_ms(7)));
        assert_eq!(req.mtbce, Span::from_secs(2));
        // Garbage mode / app / bounds.
        for body in [
            r#"{"app":"HPCG","mode":"warp-drive"}"#,
            r#"{"app":"nope"}"#,
            r#"{"app":"HPCG","nodes":0}"#,
            r#"{"app":"HPCG","reps":1000000}"#,
            r#"{"app":"HPCG","steps_scale":-1}"#,
            r#"{"app":"HPCG","mtbce":-3}"#,
        ] {
            assert!(
                SimulateRequest::from_json(&parse(body)).is_err(),
                "{body} must be rejected"
            );
        }
    }

    #[test]
    fn zero_mtbce_is_rejected_in_every_form() {
        for mtbce in ["0", "0.0", "\"0s\"", "\"0\"", "\"0.1ps\"", "1e-13"] {
            let body = format!(r#"{{"app":"HPCG","mtbce":{mtbce}}}"#);
            match SimulateRequest::from_json(&parse(&body)) {
                Err(ServiceError::BadRequest(m)) => assert!(m.contains("mtbce"), "{body}: {m}"),
                other => panic!("{body} must be a bad request: {other:?}"),
            }
        }
        let one = SimulateRequest::from_json(&parse(r#"{"app":"HPCG","mtbce":"1ps"}"#)).unwrap();
        assert_eq!(one.mtbce, Span::from_ps(1));
    }

    #[test]
    fn handle_simulate_is_deterministic_and_caches_schedules() {
        let state = ServiceState::new(8, 8);
        let req = SimulateRequest::from_json(&parse(
            r#"{"app":"miniFE","nodes":8,"mode":"fw","mtbce":"1s","reps":2,"steps":3}"#,
        ))
        .unwrap();
        let a = handle_simulate(&state, &req).unwrap().to_json();
        let b = handle_simulate(&state, &req).unwrap().to_json();
        assert_eq!(a, b, "same request → byte-identical body");
        assert_eq!(state.schedules.misses(), 1);
        assert_eq!(state.schedules.hits(), 1);
        assert!(a.contains("\"slowdown_pct\":"));
        assert!(a.contains("\"app\":\"miniFE\""));
    }

    #[test]
    fn simulate_shards_parse_validate_and_do_not_change_results() {
        let req = SimulateRequest::from_json(&parse(r#"{"app":"HPCG"}"#)).unwrap();
        assert_eq!(req.shards, 1, "default is the serial engine");
        for body in [
            r#"{"app":"HPCG","shards":0}"#,
            r#"{"app":"HPCG","shards":65}"#,
            r#"{"app":"HPCG","shards":"two"}"#,
        ] {
            assert!(
                SimulateRequest::from_json(&parse(body)).is_err(),
                "{body} must be rejected"
            );
        }
        // The whole point of the sharded engine: responses are
        // byte-identical to the serial ones.
        let state = ServiceState::new(8, 8);
        let serial = SimulateRequest::from_json(&parse(
            r#"{"app":"miniFE","nodes":8,"mode":"fw","mtbce":"1s","reps":2,"steps":3}"#,
        ))
        .unwrap();
        let sharded = SimulateRequest::from_json(&parse(
            r#"{"app":"miniFE","nodes":8,"mode":"fw","mtbce":"1s","reps":2,"steps":3,"shards":4}"#,
        ))
        .unwrap();
        assert_eq!(sharded.shards, 4);
        assert_eq!(
            handle_simulate(&state, &serial).unwrap().to_json(),
            handle_simulate(&state, &sharded).unwrap().to_json(),
            "sharded response must be byte-identical to serial"
        );
    }

    #[test]
    fn canonicalized_permutations_share_a_response_cache_entry() {
        // Satellite 6: field order and whitespace must not cause
        // spurious response-cache misses. Two permutations of the same
        // request canonicalize to one key and hit one entry.
        let state = ServiceState::new(4, 4);
        let a = r#"{"app":"HPCG","nodes":16,"reps":2,"seed":7}"#;
        let b = r#"{ "seed": 7, "reps": 2, "app": "HPCG", "nodes": 16 }"#;
        let key_a = format!("/v1/simulate {}", canonicalize(a).unwrap());
        let key_b = format!("/v1/simulate {}", canonicalize(b).unwrap());
        assert_eq!(key_a, key_b);
        assert!(state.responses.get(&key_a).is_none());
        state.responses.put(key_a, Arc::new("{}".into()));
        assert!(state.responses.get(&key_b).is_some(), "permutation hits");
        assert_eq!((state.responses.hits(), state.responses.misses()), (1, 1));
        assert_eq!(state.responses.len(), 1);
    }

    #[test]
    fn sweep_request_validation() {
        let req = SweepRequest::from_json(&parse(r#"{"figure":"fig4"}"#)).unwrap();
        assert_eq!(req.figure, "fig4");
        assert_eq!(req.nodes, 32);
        assert_eq!(req.reps, 1);
        assert_eq!(req.apps.len(), 9);
        let req = SweepRequest::from_json(&parse(
            r#"{"figure":"FIG3","apps":["LULESH","HPCG"],"nodes":16}"#,
        ))
        .unwrap();
        assert_eq!(req.figure, "fig3");
        assert_eq!(req.apps, vec![AppId::Lulesh, AppId::Hpcg]);
        for body in [
            r#"{"figure":"fig9"}"#,
            r#"{}"#,
            r#"{"figure":"fig3","apps":[]}"#,
            r#"{"figure":"fig3","bogus":1}"#,
        ] {
            assert!(SweepRequest::from_json(&parse(body)).is_err());
        }
    }

    #[test]
    fn handle_sweep_matches_direct_figure_run() {
        let req = SweepRequest::from_json(&parse(
            r#"{"figure":"fig4","apps":["LULESH"],"nodes":16,"steps_scale":0.05}"#,
        ))
        .unwrap();
        let body = handle_sweep(&req).unwrap();
        let cells = body.get("cells").unwrap().as_array().unwrap();
        // Fig. 4: 3 systems × 3 modes × 1 app.
        assert_eq!(cells.len(), 9);
        // The JSON mirrors a direct figures::fig4 run with the same knobs.
        let direct = figures::fig4(&ScaleConfig {
            nodes: 16,
            reps: 1,
            steps_scale: 0.05,
            apps: vec![AppId::Lulesh],
            ..ScaleConfig::default()
        });
        for (cell_json, cell) in cells.iter().zip(&direct.cells) {
            assert_eq!(
                cell_json.get("slowdown_pct").unwrap().as_f64(),
                cell.slowdown_pct
            );
            assert_eq!(
                cell_json.get("group").unwrap().as_str(),
                Some(cell.group.as_str())
            );
        }
        // And it is reproducible byte-for-byte.
        assert_eq!(
            body.to_json(),
            handle_sweep(&req).unwrap().to_json(),
            "sweep bodies are deterministic"
        );
    }
}
