//! `cesim` — command-line driver for the DRAM correctable-error logging
//! study. Every table and figure of the paper can be regenerated from
//! here; see `cesim help`.

mod args;

use args::Args;
use cesim_core::engine::noise::ScriptedNoise;
use cesim_core::engine::{simulate, NoNoise};
use cesim_core::experiment::{run as run_experiment, Experiment};
use cesim_core::figures::{self, FigureData, ScaleConfig};
use cesim_core::goal::{Rank, ScheduleBuilder, Tag};
use cesim_core::model::{LogGopsParams, LoggingMode, Span, Time};
use cesim_core::noise::signature::{fig2, SignatureConfig};
use cesim_core::noise::Scope;
use cesim_core::report::{ascii_table, figure_csv, render_chart, render_figure};
use cesim_core::tables;
use cesim_core::workloads::AppId;
use std::process::ExitCode;

const HELP: &str = "\
cesim — DRAM correctable-error logging overheads at scale (CLUSTER'21 reproduction)

USAGE: cesim <command> [options]

COMMANDS
  table1            Workload descriptions (Table I)
  table2            System CE parameters and MTBCE (Table II)
  fig1              Delay-propagation demonstration (Fig. 1)
  fig2              selfish noise signatures: native/dry-run/CMCI/EMCA (Fig. 2)
  fig3              Single-process CE sweep vs MTBCE (Fig. 3)
  fig4              CE impact on Cielo/Trinity/Summit (Fig. 4)
  fig5              CE impact on exascale straw-man systems (Fig. 5)
  fig6              Extreme-rate software-logging study (Fig. 6)
  fig7              Per-event duration sweep at MTBCE 720s / 0.2s (Fig. 7)
  run               One custom experiment (see options below)
  goal              Dump a workload's expanded schedule in GOAL text form
  trace             Generate / extrapolate / simulate MPI traces; export
                    Chrome traces and interval metrics (see TRACE OPTIONS)
  trace-check FILE  Validate a Chrome trace written by trace --trace-out
  metrics-check FILE
                    Validate a Prometheus text exposition (e.g. a saved
                    GET /metrics scrape): HELP/TYPE pairing, label
                    escaping, histogram consistency
  attribute FILE    Per-event CE detour provenance for a simulated trace:
                    absorbed/propagated classification, amplification
                    factors, JSONL + heatmap reports (ATTRIBUTE OPTIONS)
  ablate            Compare CE sensitivity under both allreduce expansions
  fleet SPEC.json   Fleet-scale scenario: a job mix scheduled over a
                    heterogeneous cluster, with a mitigation policy
                    reacting to observed CEs between epochs
                    (FLEET OPTIONS)
  serve             Simulation-as-a-service HTTP daemon (SERVE OPTIONS)
  skeletons         Print the calibrated workload-skeleton parameters
  list              List workloads and logging modes
  help              This text

SCALE OPTIONS (fig3..fig7)
  --nodes N         Simulated nodes [default 256; Table II counts cap it]
  --reps N          Perturbed replicas per cell [default 2]
  --steps-scale F   Scale workload step counts [default 1.0]
  --apps a,b,c      Subset of workloads [default: all nine]
  --paper           Full paper scale (16,384 nodes, 8 reps, full steps,
                    no machine-rate rescaling) — hours of CPU time
  --exact-rate      Do not rescale MTBCE when nodes < system size
  --seed N          Base RNG seed
  --threads N       Sweep worker threads: 0 = all cores [default], 1 =
                    serial. Output is byte-identical for every value —
                    each cell/replica derives its RNG stream from stable
                    (figure, cell, replica) coordinates, never from
                    execution order
  --shards N        Split each simulation's event loop across N
                    rank-partitioned shards advanced in lookahead windows
                    [default 1 = serial engine], or 'auto' to pick N from
                    the rank scale and host CPUs. Output is byte-identical
                    for every value; the sweep thread budget is divided by
                    N so cells x shards never oversubscribes the host
  --csv FILE        Also write the figure's cells as CSV
  --chart           Render as log-scale ASCII bar charts
  --quiet           No per-cell progress on stderr
  --progress        Sweep progress on stderr: cells completed / total plus
                    engine throughput (events/s and simulated seconds per
                    wall second), and an ETA extrapolated from
                    completed-cell wall time
  --observe         Record replicas of every cell and append critical-path
                    (cp_*_s mean/stddev) and provenance columns
                    (events_absorbed, events_propagated, max_amplification,
                    p99_amplification) to --csv output; results unchanged
  --observe-replicas N
                    Number of replicas per cell to record and aggregate
                    [default 1; implies --observe]
  --profile         Span-profiler phase breakdown (build/compile/baseline/
                    cell_run) on stderr after the sweep, then, if a run was
                    sharded, the per-shard busy/stall/barrier table and
                    imbalance report; results unchanged

TRACE OPTIONS (cesim trace [FILE])
  --generate FILE   Write a synthetic PMPI-style trace and exit
  --extrapolate K   Extrapolate the loaded trace k-fold before simulating
  --mode M          hw | sw | fw | <microseconds> [default fw]
  --mtbce DURATION  Per-node mean time between CEs [default 10]
  --trace-out FILE  Record the perturbed run and write a Chrome trace_event
                    JSON (load in Perfetto / chrome://tracing)
  --metrics-interval DT
                    Emit per-rank interval metrics CSV sampled every DT
                    (e.g. 1ms) to stdout, or to --metrics-out FILE

ATTRIBUTE OPTIONS (cesim attribute FILE)
  --mode M          hw | sw | fw | <microseconds> [default sw]
  --mtbce DURATION  Per-node mean time between CEs [default 10]
  --seed N          Noise RNG seed
  --provenance-out FILE
                    Write per-event provenance JSONL (one record per
                    detour plus a trailing summary object)
  --heatmap-out FILE
                    Write a rank x time-bin heatmap CSV (detour counts,
                    stolen CPU time, induced delay per cell)
  --bins N          Heatmap time bins [default 32]

RUN OPTIONS (cesim run)
  --app NAME        Workload [default LULESH]
  --mode M          hw | sw | fw | <microseconds> [default fw]
  --mtbce DURATION  Per-node mean time between CEs, e.g. 200ms, 1h
                    [default 5544s]
  --single-node     Inject CEs on one rank only (Fig. 3 style)
  --steps N         Override workload step count
  --threads N       Worker threads for the replicas [default 0 = all cores]
  --shards N        Intra-run event-loop shards [default 1 = serial engine],
                    or 'auto' to pick N from the rank scale and host CPUs;
                    results are byte-identical for every value
  --progress        With --shards > 1: window-based progress and ETA on
                    stderr while the sharded replicas run
  --profile         Span-profiler phase breakdown on stderr after the run,
                    then, if a run was sharded, the per-shard busy/stall/
                    barrier table and imbalance report

FLEET OPTIONS (cesim fleet SPEC.json)
  --policy P        Override the spec's mitigation policy: static,
                    threshold_offline, or mode_switch (using the spec-file
                    defaults: 1000 CEs/epoch threshold, 25% offline cap,
                    hw switch target)
  --threads N       Job-slice worker threads: 0 = all cores [default].
                    Every report is byte-identical for every value — node
                    draws and job slices derive their RNG streams from
                    stable (node, job, attempt, slice) coordinates
  --jobs-csv FILE   Also write the per-job slowdown CSV (the stdout
                    stream) to FILE
  --nodes-csv FILE  Write the per-node CSV: drawn MTBCE, hot-spot
                    membership, mode changes, CE/offline accounting
  --jsonl FILE      Write per-epoch JSONL (queue/run/completion counts,
                    policy actions) with a trailing summary line
  --profile         Span-profiler phase breakdown (fleet_place/fleet_run/
                    fleet_policy) on stderr after the run, plus the job
                    slices resumed from baseline snapshots or rejoining
                    the baseline, the engine events each skipped, and the
                    snapshots the fork tables hold
  --quiet           Suppress the '#' summary trailer on stdout

FIG2 OPTIONS
  --window SECONDS  Observation window [default 300]
  --period SECONDS  Injection period [default 10]

SERVE OPTIONS (cesim serve)
  --addr HOST:PORT  Bind address [default 127.0.0.1:8080; port 0 = ephemeral]
  --workers N       Request worker threads [default 4]
  --queue-depth N   Accepted connections allowed to wait for a worker;
                    beyond this, arrivals are shed with 429 [default 64]
  --cache-entries N Compiled-schedule LRU capacity, 0 disables [default 64]
  --response-cache-entries N
                    Full-response LRU capacity, 0 disables [default 256]
  --log-requests    One structured access-log line per request on stderr
                    (method, path, status, microseconds, cache hit/miss,
                    trace id)
  Endpoints: POST /v1/simulate, POST /v1/sweep, POST /v1/fleet,
  GET /healthz, GET /metrics
  (Prometheus text with trace-id exemplars), GET /v1/debug/flightrec
  (recent telemetry events as JSON; also dumped to stderr on SIGUSR1),
  GET /v1/debug/traces[/:id[/chrome]] (tail-sampled request traces; ids
  come from the traceparent response header). Shuts down gracefully on
  SIGTERM/ctrl-c, draining queued and in-flight requests. See README.md
  for curl examples.

LOGGING OPTIONS (any command)
  --log-level L     Structured-log filter: error, warn, info, debug
                    [default info]
  --log-format F    Structured-log encoding: logfmt or json
                    [default logfmt]
";

const USAGE: &str = "usage: cesim <command> [options] — run 'cesim help' for the command list";

/// How a command failed, which decides the exit status: usage errors
/// (unknown command/flag, missing required argument) exit 2 after
/// printing usage; runtime errors (I/O, validation) exit 1. CI gates on
/// this split.
enum Failure {
    Usage(String),
    Runtime(String),
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Runtime(msg)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => return usage_error(&e),
    };
    let cmd = args.command.clone().unwrap_or_else(|| "help".into());
    match dispatch(&cmd, &args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(e)) => usage_error(&e),
        Err(Failure::Runtime(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn dispatch(cmd: &str, args: &Args) -> Result<(), Failure> {
    configure_logging(args)?;
    // Only the trace tools, metrics-check, and fleet take positional
    // arguments (an input file path).
    if !matches!(
        cmd,
        "trace" | "trace-check" | "attribute" | "metrics-check" | "fleet"
    ) {
        if let Some(p) = args.positionals.first() {
            return Err(Failure::Usage(format!("unexpected argument '{p}'")));
        }
    }
    // Missing required arguments are usage errors, checked up front so
    // every subcommand reports them the same way (exit 2).
    match cmd {
        "trace-check" if args.positionals.is_empty() => {
            return Err(Failure::Usage(
                "trace-check needs a trace file argument".into(),
            ));
        }
        "attribute" if args.positionals.is_empty() => {
            return Err(Failure::Usage(
                "attribute needs a trace file argument".into(),
            ));
        }
        "metrics-check" if args.positionals.is_empty() => {
            return Err(Failure::Usage(
                "metrics-check needs a metrics file argument".into(),
            ));
        }
        "fleet" if args.positionals.is_empty() => {
            return Err(Failure::Usage("fleet needs a spec file argument".into()));
        }
        "trace"
            if args.positionals.is_empty()
                && args.get("generate").is_none()
                && args.get("load").is_none() =>
        {
            return Err(Failure::Usage(
                "trace needs --generate FILE or an input FILE".into(),
            ));
        }
        _ => {}
    }
    match cmd {
        "help" | "-h" | "--help" => {
            print!("{HELP}");
            Ok(())
        }
        "table1" => {
            print!("{}", tables::table1());
            Ok(())
        }
        "table2" => {
            print!("{}", tables::table2());
            Ok(())
        }
        "list" => Ok(cmd_list()?),
        "skeletons" => Ok(cmd_skeletons()?),
        "fig1" => Ok(cmd_fig1()?),
        "fig2" => Ok(cmd_fig2(args)?),
        "fig3" => Ok(cmd_fig(args, figures::fig3)?),
        "fig4" => Ok(cmd_fig(args, figures::fig4)?),
        "fig5" => Ok(cmd_fig(args, figures::fig5)?),
        "fig6" => Ok(cmd_fig(args, figures::fig6)?),
        "fig7" => Ok(cmd_fig(args, figures::fig7)?),
        "run" => Ok(cmd_run(args)?),
        "goal" => Ok(cmd_goal(args)?),
        "trace" => Ok(cmd_trace(args)?),
        "trace-check" => Ok(cmd_trace_check(args)?),
        "metrics-check" => Ok(cmd_metrics_check(args)?),
        "attribute" => Ok(cmd_attribute(args)?),
        "ablate" => Ok(cmd_ablate(args)?),
        "fleet" => Ok(cmd_fleet(args)?),
        "serve" => Ok(cmd_serve(args)?),
        other => Err(Failure::Usage(format!(
            "unknown command '{other}' (try 'cesim help')"
        ))),
    }
}

/// Apply `--log-level` / `--log-format` to the process-global
/// structured-log sink before any command runs. Bad names are usage
/// errors (exit 2), like any other unknown option value.
fn configure_logging(args: &Args) -> Result<(), Failure> {
    use cesim_core::obs::logging;
    let level = match args.get("log-level") {
        None => logging::Level::Info,
        Some(v) => logging::Level::parse(v).ok_or_else(|| {
            Failure::Usage(format!(
                "invalid --log-level '{v}' (expected error, warn, info, or debug)"
            ))
        })?,
    };
    let format = match args.get("log-format") {
        None => logging::Format::Logfmt,
        Some(v) => logging::Format::parse(v).ok_or_else(|| {
            Failure::Usage(format!(
                "invalid --log-format '{v}' (expected logfmt or json)"
            ))
        })?,
    };
    logging::configure(level, format);
    Ok(())
}

/// `cesim serve` — run the simulation daemon until SIGTERM/ctrl-c.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let mut cfg = cesim_serve::ServeConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:8080").to_string(),
        ..cesim_serve::ServeConfig::default()
    };
    cfg.workers = args.get_parsed("workers", cfg.workers)?;
    cfg.queue_depth = args.get_parsed("queue-depth", cfg.queue_depth)?;
    cfg.schedule_cache_entries = args.get_parsed("cache-entries", cfg.schedule_cache_entries)?;
    cfg.response_cache_entries =
        args.get_parsed("response-cache-entries", cfg.response_cache_entries)?;
    if cfg.workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    if cfg.queue_depth == 0 {
        return Err("--queue-depth must be at least 1".into());
    }
    cfg.log_requests = args.has_flag("log-requests");
    cesim_serve::run(cfg).map_err(|e| format!("serve: {e}"))
}

/// `cesim fleet SPEC.json` — run a fleet scenario: a job mix scheduled
/// over a heterogeneous cluster, with a mitigation policy reacting to
/// observed CE counts between epochs. The per-job slowdown CSV goes to
/// stdout (with a '#' summary trailer); every report is byte-identical
/// across `--threads` values.
fn cmd_fleet(args: &Args) -> Result<(), String> {
    use cesim_core::obs::telemetry;
    use cesim_core::ScheduleCache;
    use cesim_fleet as fleet;

    let path = args
        .positionals
        .first()
        .expect("dispatch rejects a missing spec file");
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut spec = fleet::FleetSpec::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if let Some(name) = args.get("policy") {
        spec.policy = match name {
            "static" => fleet::PolicySpec::Static,
            "threshold_offline" => fleet::PolicySpec::ThresholdOffline {
                ce_per_epoch: 1000,
                max_offline_fraction: 0.25,
            },
            "mode_switch" => fleet::PolicySpec::ModeSwitch {
                ce_per_epoch: 1000,
                to: LoggingMode::HardwareOnly,
            },
            other => {
                let choices = "static, threshold_offline, or mode_switch";
                return Err(format!("invalid --policy '{other}' (expected {choices})"));
            }
        };
    }
    let threads: usize = args.get_parsed("threads", 0)?;
    let profile = args.has_flag("profile");
    if profile {
        telemetry::set_enabled(true);
    }
    let start = std::time::Instant::now();
    let cache = ScheduleCache::new(64);
    let out = figures::with_threads(threads, || fleet::run_fleet(&spec, &cache))?;
    let wall = start.elapsed();

    print!("{}", cesim_fleet::jobs_csv(&out));
    if !args.has_flag("quiet") {
        print!("{}", cesim_fleet::summary_text(&out));
    }
    if let Some(f) = args.get("jobs-csv") {
        std::fs::write(f, cesim_fleet::jobs_csv(&out)).map_err(|e| format!("writing {f}: {e}"))?;
        eprintln!("wrote {f}");
    }
    if let Some(f) = args.get("nodes-csv") {
        std::fs::write(f, cesim_fleet::nodes_csv(&out)).map_err(|e| format!("writing {f}: {e}"))?;
        eprintln!("wrote {f}");
    }
    if let Some(f) = args.get("jsonl") {
        std::fs::write(f, cesim_fleet::epochs_jsonl(&out))
            .map_err(|e| format!("writing {f}: {e}"))?;
        eprintln!("wrote {f}");
    }
    if profile {
        eprint!("{}", telemetry::profile_table(wall));
        eprintln!(
            "baseline forks  : {} slices resumed from a snapshot, {} events skipped",
            cache.forks(),
            cache.forked_events()
        );
        eprintln!(
            "baseline rejoins: {} slices rejoined the baseline, {} events skipped",
            cache.rejoins(),
            cache.rejoined_events()
        );
        let f = cache.fork_footprint();
        eprintln!(
            "fork tables     : {} snapshots in {} KiB over {} entries",
            f.snapshots,
            (f.bytes + 512) / 1024,
            f.entries
        );
    }
    Ok(())
}

/// The `--mtbce` option (or `default`): a duration of at least 1 ps.
fn mtbce_arg(args: &Args, default: &str) -> Result<Span, String> {
    let v = args.get("mtbce").unwrap_or(default);
    cesim_core::model::parse_positive_span(v).map_err(|e| format!("--mtbce: {e}"))
}

/// `--steps-scale`: a finite factor above zero.
fn steps_scale_arg(args: &Args, default: f64) -> Result<f64, String> {
    let scale = args.get_parsed("steps-scale", default)?;
    if !(scale.is_finite() && scale > 0.0) {
        return Err(format!("--steps-scale must be positive, got {scale}"));
    }
    Ok(scale)
}

/// A count option (`--nodes`, `--reps`) that must be at least 1.
fn count_arg<T: std::str::FromStr + Default + PartialEq>(
    args: &Args,
    name: &str,
    default: T,
) -> Result<T, String> {
    let n = args.get_parsed(name, default)?;
    if n == T::default() {
        return Err(format!("--{name} must be at least 1"));
    }
    Ok(n)
}

/// `cesim metrics-check FILE` — validate a saved Prometheus scrape body
/// with the in-repo exposition validator (CI gates on this).
fn cmd_metrics_check(args: &Args) -> Result<(), String> {
    let Some(path) = args.positionals.first() else {
        return Err("metrics-check needs a metrics file argument".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let stats =
        cesim_serve::promcheck::validate_prometheus(&text).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: ok ({} families, {} samples, {} histograms)",
        stats.families, stats.samples, stats.histograms
    );
    Ok(())
}

fn cmd_skeletons() -> Result<(), String> {
    let headers: Vec<String> = [
        "workload",
        "decomp",
        "halo classes",
        "reverse",
        "halo cadence",
        "compute/step",
        "allreduce",
        "steps",
        "sync window",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    println!("Calibrated communication skeletons (the trace substitution, see DESIGN.md):\n");
    print!(
        "{}",
        ascii_table(&headers, &cesim_core::workloads::apps::calibration_rows())
    );
    Ok(())
}

fn cmd_list() -> Result<(), String> {
    println!("workloads:");
    for app in AppId::all() {
        println!("  {:<14} {}", app.name(), app.description());
    }
    println!("\nlogging modes:");
    for m in LoggingMode::all() {
        println!("  {:<4} {m}", m.short_label());
    }
    Ok(())
}

fn scale_config(args: &Args) -> Result<ScaleConfig, String> {
    let mut cfg = if args.has_flag("paper") {
        ScaleConfig::paper()
    } else {
        ScaleConfig::default()
    };
    cfg.nodes = count_arg(args, "nodes", cfg.nodes)?;
    cfg.reps = count_arg(args, "reps", cfg.reps)?;
    cfg.steps_scale = steps_scale_arg(args, cfg.steps_scale)?;
    cfg.seed = args.get_parsed("seed", cfg.seed)?;
    cfg.threads = args.get_parsed("threads", cfg.threads)?;
    cfg.shards = parse_shards(args, cfg.shards, cfg.nodes)?;
    if args.has_flag("exact-rate") {
        cfg.preserve_machine_rate = false;
    }
    cfg.progress = !args.has_flag("quiet");
    cfg.progress_eta = args.has_flag("progress");
    if args.has_flag("observe") || args.get("observe-replicas").is_some() {
        cfg.observe_replicas = args.get_parsed("observe-replicas", 1)?;
        if cfg.observe_replicas == 0 {
            return Err("--observe-replicas must be at least 1 when observing".into());
        }
    }
    if let Some(list) = args.get("apps") {
        let mut apps = Vec::new();
        for name in list.split(',') {
            apps.push(
                AppId::parse(name.trim()).ok_or_else(|| format!("unknown workload '{name}'"))?,
            );
        }
        cfg.apps = apps;
    }
    Ok(cfg)
}

fn cmd_fig(args: &Args, f: impl Fn(&ScaleConfig) -> FigureData) -> Result<(), String> {
    use cesim_core::obs::telemetry;
    let cfg = scale_config(args)?;
    let profile = args.has_flag("profile");
    if profile {
        telemetry::set_enabled(true);
    }
    let sweep_start = std::time::Instant::now();
    let fig = f(&cfg);
    let wall = sweep_start.elapsed();
    if args.has_flag("chart") {
        print!("{}", render_chart(&fig));
    } else {
        print!("{}", render_figure(&fig));
    }
    if let Some(path) = args.get("csv") {
        std::fs::write(path, figure_csv(&fig)).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if profile {
        eprint_profile(wall);
    }
    Ok(())
}

/// The `--profile` report on stderr: the span profiler's phase table,
/// then the shard report if any run was sharded.
fn eprint_profile(wall: std::time::Duration) {
    eprint!("{}", cesim_core::obs::telemetry::profile_table(wall));
    let shards = cesim_core::engine::shard_globals();
    if shards.runs_total > 0 {
        eprintln!("{shards}");
    }
}

/// Fig. 1: the hand example — a detour on rank 0 delays rank 2, which it
/// never communicates with directly.
fn cmd_fig1() -> Result<(), String> {
    let params = LogGopsParams::xc40();
    let work = Span::from_us(100);
    let build = || {
        let mut b = ScheduleBuilder::new(3);
        let c0 = b.calc(Rank(0), work, &[]);
        b.send(Rank(0), Rank(1), 8, Tag(1), &[c0]);
        let r1 = b.recv(Rank(1), Some(Rank(0)), 8, Tag(1), &[]);
        let c1 = b.calc(Rank(1), work, &[r1]);
        b.send(Rank(1), Rank(2), 8, Tag(2), &[c1]);
        let r2 = b.recv(Rank(2), Some(Rank(1)), 8, Tag(2), &[]);
        b.calc(Rank(2), work, &[r2]);
        b.build()
    };
    let base = simulate(&build(), &params, &mut NoNoise).map_err(|e| e.to_string())?;
    let detour = Span::from_ms(1);
    let mut noise = ScriptedNoise::new(vec![(Rank(0), Time::ZERO, detour)]);
    let pert = simulate(&build(), &params, &mut noise).map_err(|e| e.to_string())?;

    println!("Fig. 1 demonstration: p0 -> m1 -> p1 -> m2 -> p2, one {detour} CE detour on p0\n");
    let headers = vec![
        "rank".to_string(),
        "no-CE finish".to_string(),
        "with-CE finish".to_string(),
        "delay".to_string(),
    ];
    let rows: Vec<Vec<String>> = (0..3)
        .map(|r| {
            let b = base.per_rank_finish[r];
            let p = pert.per_rank_finish[r];
            vec![
                format!("p{r}"),
                format!("{b}"),
                format!("{p}"),
                format!("{}", p.saturating_since(b)),
            ]
        })
        .collect();
    print!("{}", ascii_table(&headers, &rows));
    println!(
        "\np2 never communicates with p0, yet its completion slips by the full detour:\n\
         delays propagate along communication dependencies."
    );
    Ok(())
}

fn cmd_fig2(args: &Args) -> Result<(), String> {
    let window = cesim_core::model::parse_span(args.get("window").unwrap_or("300"))?;
    let period = cesim_core::model::parse_span(args.get("period").unwrap_or("10"))?;
    let seed = args.get_parsed("seed", 0xB1A4Eu64)?;
    let cfg = SignatureConfig {
        window,
        inject_period: period,
        seed,
    };
    let panels = fig2(&cfg);
    println!("Fig. 2: selfish noise signatures, {window} window, injection every {period}\n");
    let headers: Vec<String> = [
        "panel",
        "detours",
        "noise %",
        "max detour",
        "500us-2ms",
        "2ms-20ms",
        ">=100ms",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    for (kind, trace) in &panels {
        rows.push(vec![
            kind.label().to_string(),
            trace.count().to_string(),
            format!("{:.4}", trace.noise_fraction() * 100.0),
            format!("{}", trace.max_detour()),
            trace
                .count_in(Span::from_us(500), Span::from_ms(2))
                .to_string(),
            trace
                .count_in(Span::from_ms(2), Span::from_ms(20))
                .to_string(),
            trace.count_in(Span::from_ms(100), Span::MAX).to_string(),
        ]);
    }
    print!("{}", ascii_table(&headers, &rows));
    println!(
        "\nReading: dry-run == native (configuring EINJ is free); software adds one\n\
         ~775us bar per injection; firmware adds a ~7ms SMI per injection plus a\n\
         ~500ms decode every 10th."
    );
    if let Some(path) = args.get("csv") {
        let mut csv = String::from("panel,t_s,dur_us\n");
        for (kind, trace) in &panels {
            for d in &trace.detours {
                csv.push_str(&format!(
                    "{},{},{}\n",
                    kind.label(),
                    d.at.as_secs_f64(),
                    d.dur.as_us_f64()
                ));
            }
        }
        std::fs::write(path, csv).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// Dump a workload's expanded schedule in the GOAL text format (stdout,
/// or --csv FILE to write to a file despite the name).
fn cmd_goal(args: &Args) -> Result<(), String> {
    let app = match args.get("app") {
        None => AppId::Lulesh,
        Some(name) => AppId::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?,
    };
    let nodes = count_arg(args, "nodes", 8usize)?;
    let steps = count_arg(args, "steps", 2usize)?;
    let cfg = cesim_core::workloads::WorkloadConfig::default().with_steps(steps);
    let ranks = cesim_core::workloads::natural_ranks(app, nodes);
    let sched = cesim_core::workloads::build(app, ranks, &cfg);
    let text = cesim_core::goal::textfmt::to_text(&sched);
    match args.get("csv") {
        Some(path) => {
            std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path} ({})", sched.stats());
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// The trace tool-chain: generate a synthetic PMPI-style trace, or load
/// one, optionally extrapolate it k-fold, convert it to a schedule and
/// simulate it under CE noise — optionally recording the perturbed run
/// into a Chrome trace, interval metrics CSV, and a critical-path
/// attribution summary.
///
/// `cesim trace --generate out.trc [--nodes N --steps S]`
/// `cesim trace IN.trc [--extrapolate K] [--mode fw --mtbce S]`
/// `cesim trace IN.trc --trace-out t.json --metrics-interval 1ms`
fn cmd_trace(args: &Args) -> Result<(), String> {
    use cesim_core::engine::Simulator;
    use cesim_core::goal::collectives::CollectiveCosts;
    use cesim_core::noise::{CeNoise, Scope};
    use cesim_core::obs::TimelineRecorder;
    use cesim_trace as tr;

    if let Some(path) = args.get("generate") {
        let ranks = args.get_parsed("nodes", 8usize)?;
        if ranks < 2 {
            return Err("--nodes must be at least 2: the generated ring needs two ranks".into());
        }
        let spec = tr::generate::GenSpec {
            ranks,
            steps: args.get_parsed("steps", 4usize)?,
            seed: args.get_parsed("seed", 0x7ACEu64)?,
            ..tr::generate::GenSpec::default()
        };
        let set = tr::generate::generate(&spec);
        std::fs::write(path, tr::to_text(&set)).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!(
            "wrote {path}: {} ranks, {} events",
            set.num_ranks(),
            set.total_events()
        );
        return Ok(());
    }
    // The input trace is the positional argument; --load remains as an
    // alias for older invocations.
    let path = match (args.positionals.first(), args.get("load")) {
        (Some(p), _) => p.as_str(),
        (None, Some(p)) => p,
        (None, None) => return Err("trace needs --generate FILE or an input FILE".into()),
    };
    let mode = parse_mode(args.get("mode").unwrap_or("fw"))?;
    let mtbce = mtbce_arg(args, "10")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut set = tr::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let k = args.get_parsed("extrapolate", 1usize)?;
    if k > 1 {
        set = tr::extrapolate(&set, k);
        eprintln!("extrapolated to {} ranks", set.num_ranks());
    }
    let sched = tr::convert(&set, &CollectiveCosts::default()).map_err(|e| e.to_string())?;
    let params = LogGopsParams::xc40();
    let base = simulate(&sched, &params, &mut NoNoise).map_err(|e| e.to_string())?;
    println!(
        "trace: {} ranks, {} events -> schedule {} -> baseline {}",
        set.num_ranks(),
        set.total_events(),
        sched.stats(),
        base.finish
    );
    let mut noise = CeNoise::new(
        sched.num_ranks(),
        mtbce,
        mode.per_event_cost(),
        Scope::AllRanks,
        args.get_parsed("seed", 0xCE11u64)?,
    );
    let trace_out = args.get("trace-out");
    let metrics_interval = args.get("metrics-interval");
    let observe = trace_out.is_some() || metrics_interval.is_some();
    let pert = if observe {
        let mut rec = TimelineRecorder::for_ops(sched.total_ops() as u64);
        let r = Simulator::new(&sched, params)
            .with_recorder(&mut rec)
            .run(&mut noise)
            .map_err(|e| e.to_string())?;
        let events = rec.events();
        if let Some(out) = trace_out {
            let json = cesim_core::obs::export_chrome_trace(&events, rec.dropped());
            std::fs::write(out, json).map_err(|e| format!("writing {out}: {e}"))?;
            eprintln!(
                "wrote {out}: {} events recorded, {} dropped",
                rec.total(),
                rec.dropped()
            );
        }
        if let Some(dt) = metrics_interval {
            let dt = cesim_core::model::parse_span(dt)?;
            let csv = cesim_core::obs::interval_metrics_csv(&events, dt);
            match args.get("metrics-out") {
                Some(out) => {
                    std::fs::write(out, csv).map_err(|e| format!("writing {out}: {e}"))?;
                    eprintln!("wrote {out}");
                }
                None => print!("{csv}"),
            }
        }
        let attr = cesim_core::obs::critical::attribute(&events);
        eprintln!(
            "critical path: {} total = {} compute + {} comm-cpu + {} network + {} detour + {} blocked{}",
            attr.finish,
            attr.compute,
            attr.comm_cpu,
            attr.network,
            attr.detour,
            attr.blocked,
            if attr.truncated { " (truncated)" } else { "" }
        );
        r
    } else {
        simulate(&sched, &params, &mut noise).map_err(|e| e.to_string())?
    };
    // A degenerate trace (no timed work) has a zero baseline, where the
    // slowdown ratio is undefined — report that rather than panicking.
    let slowdown = pert
        .slowdown_pct(base.finish)
        .map(|s| format!("{s:.2}% slowdown"))
        .unwrap_or_else(|| "slowdown undefined (zero baseline)".into());
    println!(
        "with CEs ({mode}, MTBCE {mtbce}): {} -> {slowdown} ({} detours)",
        pert.finish, pert.noise_events
    );
    Ok(())
}

/// Validate a Chrome trace file written by `trace --trace-out`: parse
/// the JSON and check the `trace_event` shape plus per-track timestamp
/// monotonicity.
fn cmd_trace_check(args: &Args) -> Result<(), String> {
    let Some(path) = args.positionals.first() else {
        return Err("trace-check needs a trace file argument".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let stats =
        cesim_core::obs::validate_chrome_trace(&text).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: ok ({} events: {} slices, {} counters, {} tracks)",
        stats.events, stats.slices, stats.counters, stats.tracks
    );
    Ok(())
}

/// Per-event detour provenance over a trace file: simulate the trace
/// under CE noise with recording enabled, run the causal propagation
/// pass, print a fleet-style summary and optionally write the per-event
/// JSONL and the rank×time heatmap CSV. Any validation failure — a
/// truncated recording, a conservation-invariant violation, or emitted
/// JSONL that fails to re-parse — is an error, so the process exits
/// nonzero.
fn cmd_attribute(args: &Args) -> Result<(), String> {
    use cesim_core::engine::Simulator;
    use cesim_core::goal::collectives::CollectiveCosts;
    use cesim_core::noise::CeNoise;
    use cesim_core::obs::{provenance, JsonValue, TimelineRecorder};
    use cesim_trace as tr;

    let Some(path) = args.positionals.first() else {
        return Err("attribute needs a trace file argument".into());
    };
    let mode = parse_mode(args.get("mode").unwrap_or("sw"))?;
    let mtbce = mtbce_arg(args, "10")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let set = tr::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let sched = tr::convert(&set, &CollectiveCosts::default()).map_err(|e| e.to_string())?;
    let params = LogGopsParams::xc40();
    let base = simulate(&sched, &params, &mut NoNoise).map_err(|e| e.to_string())?;
    let mut noise = CeNoise::new(
        sched.num_ranks(),
        mtbce,
        mode.per_event_cost(),
        Scope::AllRanks,
        args.get_parsed("seed", 0xCE11u64)?,
    );
    let mut rec = TimelineRecorder::for_ops(sched.total_ops() as u64);
    let pert = Simulator::new(&sched, params)
        .with_recorder(&mut rec)
        .run(&mut noise)
        .map_err(|e| e.to_string())?;

    let report = provenance::analyze(&rec.events(), rec.dropped());
    report.check().map_err(|e| format!("{path}: {e}"))?;
    if report.makespan != pert.finish.since(Time::ZERO) {
        return Err(format!(
            "{path}: recorded makespan {} disagrees with simulated finish {}",
            report.makespan, pert.finish
        ));
    }
    // Self-validate the JSONL before anything is written.
    let jsonl = provenance::provenance_jsonl(&report);
    for (i, line) in jsonl.lines().enumerate() {
        JsonValue::parse(line)
            .map_err(|e| format!("internal: provenance JSONL line {} invalid: {e}", i + 1))?;
    }

    let s = report.summary();
    println!(
        "attribute {path}: {} ranks, {mode}, MTBCE {mtbce} -> {} detours \
         ({} absorbed, {} partially absorbed, {} propagated)",
        report.ranks, s.events, s.absorbed, s.partially_absorbed, s.propagated
    );
    println!(
        "makespan {} = baseline {} + noise; replay delta {}, stolen {}, \
         amplification max {:.2} p99 {:.2}",
        report.makespan,
        base.finish,
        report.replay_delta(),
        report.total_stolen,
        s.max_amplification,
        s.p99_amplification
    );
    let mut worst: Vec<&cesim_core::obs::DetourFate> = report.fates.iter().collect();
    worst.sort_by(|a, b| b.global_delay.cmp(&a.global_delay).then(a.id.cmp(&b.id)));
    for f in worst.iter().take(5) {
        if f.global_delay.is_zero() {
            break;
        }
        println!(
            "  detour {} on rank {} at {}: {} stolen -> {} induced across {} rank(s), \
             {} on makespan ({})",
            f.id,
            f.rank,
            f.at,
            f.dur,
            f.global_delay,
            f.ranks_delayed + u32::from(!f.self_delay.is_zero()),
            f.makespan_contribution,
            f.fate.label()
        );
    }
    if let Some(out) = args.get("provenance-out") {
        std::fs::write(out, &jsonl).map_err(|e| format!("writing {out}: {e}"))?;
        eprintln!("wrote {out} ({} records + summary)", report.fates.len());
    }
    if let Some(out) = args.get("heatmap-out") {
        let bins = args.get_parsed("bins", 32usize)?;
        let csv = provenance::heatmap_csv(&report, bins);
        std::fs::write(out, csv).map_err(|e| format!("writing {out}: {e}"))?;
        eprintln!("wrote {out}");
    }
    Ok(())
}

/// Compare CE-noise sensitivity under the two allreduce expansions.
fn cmd_ablate(args: &Args) -> Result<(), String> {
    use cesim_core::goal::collectives::AllreduceAlgo;
    let app = match args.get("app") {
        None => AppId::Lulesh,
        Some(name) => AppId::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?,
    };
    let nodes = count_arg(args, "nodes", 128usize)?;
    let mtbce = mtbce_arg(args, "10")?;
    let reps = count_arg(args, "reps", 3u32)?;
    println!(
        "allreduce-expansion ablation: {app}, {nodes} nodes, firmware logging, MTBCE {mtbce}\n"
    );
    for algo in [AllreduceAlgo::RecursiveDoubling, AllreduceAlgo::ReduceBcast] {
        let mut exp = Experiment::new(app, nodes)
            .mode(LoggingMode::Firmware)
            .mtbce(mtbce)
            .reps(reps);
        exp.workload.allreduce_algo = algo;
        let out = run_experiment(&exp).map_err(|e| e.to_string())?;
        println!(
            "  {:<18} baseline {}  slowdown {}",
            format!("{algo:?}:"),
            out.baseline,
            out.mean_slowdown_pct()
                .map(|s| format!("{s:.2}%"))
                .unwrap_or_else(|| "no-progress".into())
        );
    }
    println!(
        "\nThe collective's dependency shape decides how detours reach the critical\n\
         path: reduce+bcast has twice the tree depth but idles interior ranks;\n\
         recursive doubling keeps every rank on the critical path each round."
    );
    Ok(())
}

/// Parse `--shards`: a positive integer, or the literal `auto`, which
/// picks a shard count from the rank scale and host parallelism via
/// [`cesim_core::engine::auto_shards`]. `nranks` is the (approximate)
/// rank count the simulations will run at.
fn parse_shards(args: &Args, default: usize, nranks: usize) -> Result<usize, String> {
    match args.get("shards") {
        None => Ok(default),
        Some("auto") => Ok(cesim_core::engine::auto_shards(nranks)),
        Some(s) => {
            let n: usize = s.parse().map_err(|_| {
                format!("invalid --shards '{s}' (expected a positive integer or 'auto')")
            })?;
            if n == 0 {
                return Err("--shards must be at least 1".into());
            }
            Ok(n)
        }
    }
}

fn parse_mode(s: &str) -> Result<LoggingMode, String> {
    match s {
        "hw" => Ok(LoggingMode::HardwareOnly),
        "sw" => Ok(LoggingMode::Software),
        "fw" => Ok(LoggingMode::Firmware),
        other => match other.parse::<f64>() {
            Ok(us) if us.is_finite() && us >= 0.0 => Ok(LoggingMode::Custom(Span::from_us_f64(us))),
            _ => Err(format!(
                "--mode must be hw|sw|fw or non-negative microseconds, got '{other}'"
            )),
        },
    }
}

fn cmd_run(args: &Args) -> Result<(), String> {
    use cesim_core::engine::{CompiledSchedule, ForkTable};
    use cesim_core::experiment::run_against_table;
    use cesim_core::obs::telemetry::{self, Span as ProfSpan};
    use cesim_core::workloads::natural_ranks;
    use std::sync::Arc;
    use std::time::Instant;

    let app = match args.get("app") {
        None => AppId::Lulesh,
        Some(name) => AppId::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?,
    };
    let nodes = count_arg(args, "nodes", 256usize)?;
    let mode = parse_mode(args.get("mode").unwrap_or("fw"))?;
    let mtbce = mtbce_arg(args, "5544")?;
    let reps = count_arg(args, "reps", 3u32)?;
    let seed = args.get_parsed("seed", 0xCE11u64)?;
    let shards = parse_shards(args, 1, natural_ranks(app, nodes))?;
    let profile = args.has_flag("profile");
    if profile {
        telemetry::set_enabled(true);
    }
    let mut exp = Experiment::new(app, nodes)
        .mode(mode)
        .mtbce(mtbce)
        .reps(reps)
        .seed(seed)
        .shards(shards);
    if args.has_flag("single-node") {
        exp = exp.scope(Scope::SingleRank(Rank(0)));
    }
    if args.get("steps").is_some() {
        exp = exp.steps(count_arg(args, "steps", 1usize)?);
    } else {
        exp.workload.steps_scale = steps_scale_arg(args, 0.25)?;
    }
    println!(
        "running {app} on {nodes} nodes, {mode}, MTBCE_node = {mtbce}, scope = {:?}, {reps} reps",
        exp.scope
    );
    let threads = args.get_parsed("threads", 0usize)?;
    let run_start = Instant::now();

    // Staged explicitly (instead of experiment::run) so the span
    // profiler can attribute build/compile/baseline/run separately and
    // the sharded replicas can report window-based progress.
    let ranks = natural_ranks(exp.app, exp.nodes);
    let sched = {
        let _s = ProfSpan::enter("build");
        cesim_core::workloads::build_periodic(exp.app, ranks, &exp.workload)
    };
    // Compiling consumes (and frees) the schedule inside the compile
    // phase, before the baseline run builds the fork table.
    let cs = {
        let _s = ProfSpan::enter("compile");
        Arc::new(CompiledSchedule::compile_periodic(sched).map_err(|e| e.to_string())?)
    };
    let table = {
        let _s = ProfSpan::enter("baseline");
        ForkTable::build(cs, &exp.params)
            .map_err(|e| e.to_string())?
            .0
    };

    let progress = (shards > 1 && args.has_flag("progress")).then(|| {
        let expected_ps = table.finish().as_ps().saturating_mul(reps as u64);
        figures::ShardProgress::start("run".into(), expected_ps, run_start)
    });

    let out = {
        let _s = ProfSpan::enter("run");
        figures::with_threads(threads, || run_against_table(&exp, &table, 0))
            .map_err(|e| e.to_string())?
    };
    // Wall time for the profile table stops here: the progress join
    // below can lag up to one poll interval and is not simulation work.
    let run_wall = run_start.elapsed();
    drop(progress);
    println!("ranks simulated : {}", out.ranks);
    println!("baseline        : {}", out.baseline);
    match (out.mean_finish(), out.mean_slowdown_pct()) {
        (Some(m), Some(s)) => {
            println!("mean perturbed  : {m}");
            println!(
                "slowdown        : {s:.3}%{}",
                out.slowdown_stddev_pct()
                    .map(|d| format!(" (stddev {d:.3}%)"))
                    .unwrap_or_default()
            );
            println!("CE events/rep   : {:.1}", out.mean_ce_events());
        }
        _ => println!(
            "slowdown        : no forward progress (per-event cost {} vs MTBCE {})",
            exp.mode.per_event_cost(),
            exp.mtbce
        ),
    }
    if profile {
        eprint_profile(run_wall);
    }
    Ok(())
}
