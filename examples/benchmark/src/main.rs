//! The repository's benchmark: four workloads, end-to-end metrics from an
//! untraced run, per-layer metrics from a traced one, and a correctness
//! gate on every pass. See README.md.
//!
//! ```sh
//! cargo run --release --manifest-path examples/benchmark/Cargo.toml -- \
//!     run [--workload W]... [--seed S] [--seconds N] [--traced] [--smoke] [--out FILE]
//! cargo run --release --manifest-path examples/benchmark/Cargo.toml -- \
//!     compare A.jsonl B.jsonl
//! ```
//!
//! `run` starts one child process per workload, so each workload's peak
//! memory is its own, and prints one JSON result line per workload.

mod figures;
mod fleet;
mod harness;
mod large_run;
mod serve;

use cesim_core::obs::{chrome, tracectx};
use cesim_json::JsonValue;
use harness::{median, percentile, quartiles, RunOutcome, Scale, Workload};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static ALLOC: harness::CountingAlloc = harness::CountingAlloc;

const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");
const DIGESTS_JSON: &str = include_str!("../digests.json");
const WORKLOADS: [&str; 4] = ["figures", "large_run", "serve", "fleet_4k"];
const DEFAULT_SEED: u64 = 1;
const MIN_COVERAGE: f64 = 0.95;
const USAGE: &str = "usage: benchmark run [--workload W]... [--seed S] [--seconds N] \
                     [--trace 0|1 | --traced] [--smoke] [--out FILE]\n       \
                     benchmark compare A.jsonl B.jsonl";

/// End-to-end metrics only some workloads have, or that are not gated.
/// They go to the results file and `compare`, not to the one-line result,
/// which carries the metrics of `BENCHMARK.json`: name, whether higher is
/// better, regression bound.
const EXTRA_E2E: [(&str, bool, f64); 5] = [
    ("p50_ms", false, 0.25),
    ("p99_ms", false, 0.25),
    ("events_per_s", true, 0.25),
    ("peak_rss_mb", false, 0.25),
    ("fail_frac", false, 0.0),
];

struct Metric {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

struct Spec {
    run_seconds: f64,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

/// The metric definitions of the compiled-in `BENCHMARK.json`.
fn spec() -> Spec {
    let v = JsonValue::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    let metrics = |key: &str| -> Vec<Metric> {
        v.get(key)
            .and_then(JsonValue::as_array)
            .expect("BENCHMARK.json lists metrics")
            .iter()
            .map(|m| Metric {
                name: m
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .expect("metric name")
                    .into(),
                unit: m
                    .get("unit")
                    .and_then(JsonValue::as_str)
                    .expect("metric unit")
                    .into(),
                higher_is_better: m.get("better").and_then(JsonValue::as_str) == Some("higher"),
                bound: m.get("bound").and_then(JsonValue::as_f64).unwrap_or(0.0),
            })
            .collect()
    };
    Spec {
        run_seconds: v
            .get("run_seconds")
            .and_then(JsonValue::as_f64)
            .expect("BENCHMARK.json has run_seconds"),
        end_to_end: metrics("end_to_end"),
        per_layer: metrics("per_layer"),
    }
}

struct Opts {
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

impl Opts {
    fn scale(&self) -> Scale {
        if self.smoke {
            Scale::Smoke
        } else {
            Scale::Full
        }
    }
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: None,
        traced: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                for w in value()?.split(',') {
                    if !WORKLOADS.contains(&w) {
                        return Err(format!("unknown workload {w:?} (one of {WORKLOADS:?})"));
                    }
                    o.workloads.push(w.to_string());
                }
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => o.traced = true,
            "--smoke" => o.smoke = true,
            "--out" => o.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if o.workloads.is_empty() {
        o.workloads = WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("child") => cmd_child(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run each workload in a child process of its own and print its result.
fn cmd_run(args: &[String]) -> Result<bool, String> {
    let opts = parse_opts(args)?;
    let spec = spec();
    let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    let mut all_ok = true;
    for w in &opts.workloads {
        let mut child_args = vec![
            "child".to_string(),
            "--workload".into(),
            w.clone(),
            "--seed".into(),
            opts.seed.to_string(),
            "--trace".into(),
            if opts.traced { "1" } else { "0" }.into(),
        ];
        if let Some(s) = opts.seconds {
            child_args.extend(["--seconds".into(), s.to_string()]);
        }
        if opts.smoke {
            child_args.push("--smoke".into());
        }
        let output = Command::new(&exe)
            .args(&child_args)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("starting the {w} child: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let rec = stdout.lines().last().and_then(|l| JsonValue::parse(l).ok());
        let Some(rec) = rec.filter(|_| output.status.success()) else {
            eprintln!("{w}: child process failed ({})", output.status);
            all_ok = false;
            continue;
        };
        if let Some(path) = &opts.out {
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("opening {}: {e}", path.display()))?;
            writeln!(f, "{}", rec.to_json())
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        let (line, ok) = result_line(&rec, &spec, opts.traced);
        summarize(w, &rec);
        println!("{line}");
        all_ok &= ok;
    }
    Ok(all_ok)
}

/// The one-line result: every end-to-end metric (untraced) or every
/// per-layer metric (traced) of `BENCHMARK.json`, by name and unit.
fn result_line(rec: &JsonValue, spec: &Spec, traced: bool) -> (String, bool) {
    let (defs, key) = if traced {
        (&spec.per_layer, "layers")
    } else {
        (&spec.end_to_end, "metrics")
    };
    let mut ok = rec.get("correct").and_then(JsonValue::as_bool) == Some(true);
    let mut metrics = BTreeMap::new();
    for d in defs {
        match rec
            .get(key)
            .and_then(|m| m.get(&d.name))
            .and_then(JsonValue::as_f64)
        {
            Some(v) => {
                metrics.insert(
                    d.name.clone(),
                    JsonValue::object([("value", v.into()), ("unit", d.unit.as_str().into())]),
                );
            }
            None => {
                eprintln!("result has no {key} value for {}", d.name);
                ok = false;
            }
        }
    }
    let count = |k: &str| rec.get(k).cloned().unwrap_or(JsonValue::from(0u64));
    let line = JsonValue::object([
        ("correct", ok.into()),
        ("attempted", count("attempted")),
        ("failed", count("failed")),
        ("metrics", JsonValue::Object(metrics)),
    ]);
    (line.to_json(), ok)
}

fn summarize(w: &str, rec: &JsonValue) {
    let get = |k: &str| rec.get(k).map(JsonValue::to_json).unwrap_or_default();
    eprintln!(
        "{w}: correct={} digest={} passes={} metrics={} layers={}",
        get("correct"),
        get("digest"),
        get("passes"),
        get("metrics"),
        get("layers"),
    );
    if let Some(errors) = rec.get("errors").and_then(JsonValue::as_array) {
        for e in errors {
            eprintln!("{w}: {}", e.as_str().unwrap_or_default());
        }
    }
}

/// Run one workload in this process and print its record as one line.
fn cmd_child(args: &[String]) -> Result<bool, String> {
    let opts = parse_opts(args)?;
    let [name] = opts.workloads.as_slice() else {
        return Err("child runs exactly one workload".into());
    };
    let scale = opts.scale();
    let seconds = opts
        .seconds
        .unwrap_or_else(|| scale.pick(spec().run_seconds, 0.5));
    let workload: Result<Box<dyn Workload>, String> = match name.as_str() {
        "figures" => Ok(Box::new(figures::Figures::new(opts.seed, scale))),
        "large_run" => Ok(Box::new(large_run::LargeRun::new(opts.seed, scale))),
        "serve" => serve::Serve::new(opts.seed, scale).map(|w| Box::new(w) as Box<dyn Workload>),
        "fleet_4k" => fleet::Fleet::new(opts.seed, scale).map(|w| Box::new(w) as Box<dyn Workload>),
        other => Err(format!("unknown workload {other}")),
    };
    let outcome = workload.and_then(|mut w| harness::run(w.as_mut(), name, seconds, opts.traced));
    let rec = record(name, &opts, seconds, outcome);
    println!("{}", rec.to_json());
    Ok(true)
}

fn meta(opts: &Opts) -> JsonValue {
    // Only a repository at the working directory counts: git must not
    // search the directories above it.
    let cwd = std::env::current_dir().unwrap_or_default();
    let git_rev = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    JsonValue::object([
        ("git_rev", git_rev.into()),
        ("host_cpus", host_cpus.into()),
        ("rayon_threads", rayon::current_num_threads().into()),
        ("rustc", env!("BENCH_RUSTC_VERSION").into()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        ("seed", opts.seed.into()),
        ("scale", opts.scale().name().into()),
    ])
}

/// The committed digest of `workload` at the default seed, if any.
fn expected_digest(scale: Scale, workload: &str) -> Option<String> {
    let v = JsonValue::parse(DIGESTS_JSON).expect("digests.json is valid JSON");
    v.get(scale.name())?
        .get(workload)?
        .as_str()
        .map(str::to_string)
}

/// Where Chrome traces go: inside the build directory, which is ignored.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("benchmark")
}

fn record(name: &str, opts: &Opts, seconds: f64, outcome: Result<RunOutcome, String>) -> JsonValue {
    let mut errors: Vec<String> = Vec::new();
    let mut fields: Vec<(&str, JsonValue)> = vec![
        ("workload", name.into()),
        ("traced", opts.traced.into()),
        ("seconds", seconds.into()),
        ("meta", meta(opts)),
    ];
    match outcome {
        Err(e) => errors.push(e),
        Ok(o) => {
            let passes = o.untraced.iter().chain(o.traced.iter().map(|t| &t.pass));
            let mut digests: Vec<&str> = passes.clone().map(|p| p.digest.as_str()).collect();
            digests.dedup();
            if digests.len() > 1 {
                errors.push(format!(
                    "outputs differ between passes: digests {digests:?}"
                ));
            }
            let digest = digests[0].to_string();
            if opts.seed == DEFAULT_SEED {
                match expected_digest(opts.scale(), name) {
                    Some(d) if d == digest => {}
                    Some(d) => errors.push(format!("digest {digest} != committed {d}")),
                    None => errors.push(format!("no committed digest (this run: {digest})")),
                }
            }
            let attempted: u64 = passes.clone().map(|p| p.attempted).sum();
            let failed: u64 = passes.map(|p| p.failed).sum();
            if failed > 0 {
                errors.push(format!("{failed} of {attempted} operations failed"));
            }
            let walls: Vec<f64> = o.untraced.iter().map(|p| p.wall_s).collect();
            let mut metrics = vec![("fail_frac", failed as f64 / attempted.max(1) as f64)];
            end_to_end(&o, &mut metrics, &mut errors);
            if !o.traced.is_empty() {
                let layers = layers(name, opts.seed, &o, median(&walls), &mut errors);
                fields.push(("layers", layers));
            }
            let list = |xs: &[f64]| JsonValue::Array(xs.iter().map(|&x| x.into()).collect());
            fields.extend([
                ("digest", digest.into()),
                ("attempted", attempted.into()),
                ("failed", failed.into()),
                ("passes", list(&walls)),
                ("setup_samples", list(&o.setup_s)),
                (
                    "metrics",
                    JsonValue::object(metrics.into_iter().map(|(k, v)| (k, v.into()))),
                ),
            ]);
        }
    }
    fields.push(("correct", errors.is_empty().into()));
    fields.push((
        "errors",
        JsonValue::Array(errors.into_iter().map(JsonValue::from).collect()),
    ));
    JsonValue::object(fields)
}

/// The end-to-end metrics of the untraced passes.
fn end_to_end(o: &RunOutcome, metrics: &mut Vec<(&str, f64)>, errors: &mut Vec<String>) {
    let over_passes = |f: fn(&harness::Pass) -> f64| {
        let v: Vec<f64> = o.untraced.iter().map(f).collect();
        median(&v)
    };
    metrics.extend([
        ("wall_s", over_passes(|p| p.wall_s)),
        ("setup_s", median(&o.setup_s)),
        ("peak_heap_mb", over_passes(|p| p.peak_heap_mb)),
    ]);
    match harness::peak_rss_mb() {
        Ok(mb) => metrics.push(("peak_rss_mb", mb)),
        Err(e) => errors.push(e),
    }
    let lat: Vec<f64> = o
        .untraced
        .iter()
        .flat_map(|p| p.latencies_ms.iter().copied())
        .collect();
    if !lat.is_empty() {
        metrics.push(("p50_ms", percentile(&lat, 50.0)));
        metrics.push(("p99_ms", percentile(&lat, 99.0)));
    }
    if o.untraced.iter().all(|p| p.events > 0) {
        metrics.push(("events_per_s", over_passes(|p| p.events as f64 / p.wall_s)));
    }
}

/// The per-layer metrics of the traced passes (medians), with trace
/// coverage and overhead; writes the last pass's Chrome trace.
fn layers(name: &str, seed: u64, o: &RunOutcome, wall: f64, errors: &mut Vec<String>) -> JsonValue {
    let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for t in &o.traced {
        for (k, v) in &t.layers {
            samples.entry(k).or_default().push(*v);
        }
        samples
            .entry("trace.coverage")
            .or_default()
            .push(tracectx::root_coverage(&t.trace));
    }
    let traced_walls: Vec<f64> = o.traced.iter().map(|t| t.pass.wall_s).collect();
    let mut layers: BTreeMap<&str, f64> =
        samples.into_iter().map(|(k, v)| (k, median(&v))).collect();
    layers.insert("trace.overhead_frac", median(&traced_walls) / wall - 1.0);
    let coverage = layers["trace.coverage"];
    if coverage < MIN_COVERAGE {
        eprintln!("{name}: trace coverage {coverage:.3} below {MIN_COVERAGE}");
    }
    let last = &o.traced[o.traced.len() - 1].trace;
    let text = chrome::export_request_trace(last);
    if let Err(e) = chrome::validate_chrome_trace(&text) {
        errors.push(format!("Chrome trace does not validate: {e}"));
    } else {
        let dir = out_dir();
        let path = dir.join(format!("trace-{name}-seed{seed}.json"));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
            errors.push(format!("writing {}: {e}", path.display()));
        }
    }
    JsonValue::object(layers.into_iter().map(|(k, v)| (k, v.into())))
}

/// Untraced records of a results file, grouped by workload.
fn load(path: &str) -> Result<BTreeMap<String, Vec<JsonValue>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut out: BTreeMap<String, Vec<JsonValue>> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = JsonValue::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if rec.get("traced").and_then(JsonValue::as_bool) == Some(true) {
            continue;
        }
        let w = rec
            .get("workload")
            .and_then(JsonValue::as_str)
            .unwrap_or("?")
            .to_string();
        out.entry(w).or_default().push(rec);
    }
    Ok(out)
}

/// Compare two results files metric by metric against the bounds.
fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err(USAGE.into());
    };
    let (runs_a, runs_b) = (load(a)?, load(b)?);
    let spec = spec();
    let mut metrics: Vec<(String, bool, f64)> = spec
        .end_to_end
        .iter()
        .map(|m| (m.name.clone(), m.higher_is_better, m.bound))
        .collect();
    metrics.extend(EXTRA_E2E.iter().map(|(n, h, b)| (n.to_string(), *h, *b)));
    println!(
        "{:<10} {:<13} {:>28} {:>28} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    let mut no_regression = true;
    for (w, recs_a) in &runs_a {
        let Some(recs_b) = runs_b.get(w) else {
            continue;
        };
        for (m, higher_is_better, bound) in &metrics {
            let values = |recs: &[JsonValue]| -> Vec<f64> {
                recs.iter()
                    .filter_map(|r| r.get("metrics")?.get(m)?.as_f64())
                    .collect()
            };
            let (va, vb) = (values(recs_a), values(recs_b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let summary = |v: &[f64]| {
                let med = median(v);
                let (q1, q3) = if v.len() >= 2 {
                    quartiles(v)
                } else {
                    (med, med)
                };
                let spread = if q3 == q1 { 0.0 } else { (q3 - q1) / med.abs() };
                (med, q1, q3, spread)
            };
            let (ma, q1a, q3a, sa) = summary(&va);
            let (mb, q1b, q3b, sb) = summary(&vb);
            let change = if ma == mb { 0.0 } else { (mb - ma) / ma.abs() };
            let worse_by = if *higher_is_better { -change } else { change };
            let verdict = if sa.max(sb) > *bound {
                "unresolved"
            } else if worse_by > *bound {
                no_regression = false;
                "worse"
            } else if -worse_by > *bound {
                "better"
            } else {
                "within bound"
            };
            println!(
                "{w:<10} {m:<13} {:>28} {:>28} {:>7.1}% {:>5.0}%  {verdict} (n={}/{})",
                format!("{ma:.4} [{q1a:.4}, {q3a:.4}]"),
                format!("{mb:.4} [{q1b:.4}, {q3b:.4}]"),
                change * 100.0,
                bound * 100.0,
                va.len(),
                vb.len(),
            );
        }
    }
    Ok(no_regression)
}
