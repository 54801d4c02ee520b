//! Exit-status contract for the CLI, so pipelines can gate on status
//! alone: 0 = success, 1 = runtime failure (bad input file, failed
//! validation), 2 = usage error (unknown subcommand, unknown flag,
//! missing required argument — with usage printed to stderr).

use std::path::PathBuf;
use std::process::Command;

fn cesim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cesim"))
}

/// Path to a file shipped in the repository `examples/` directory.
fn example(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples")
        .join(name)
}

/// Scratch file path unique to this test binary run.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cesim-exit-codes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn attribute_on_valid_trace_exits_zero() {
    let out = cesim()
        .arg("attribute")
        .arg(example("ring8.trc"))
        .args(["--mode", "sw", "--mtbce", "2ms", "--seed", "7"])
        .output()
        .expect("spawn cesim");
    assert!(
        out.status.success(),
        "expected success, stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("detours"), "summary missing: {stdout}");
    assert!(stdout.contains("replay delta"), "summary missing: {stdout}");
}

#[test]
fn attribute_on_truncated_trace_exits_nonzero() {
    let full = std::fs::read(example("ring8.trc")).unwrap();
    let path = scratch("truncated.trc");
    // Cut the file mid-record: the parser must reject it and the
    // process must report that through its exit status.
    std::fs::write(&path, &full[..full.len() / 2]).unwrap();
    let out = cesim()
        .arg("attribute")
        .arg(&path)
        .output()
        .expect("spawn cesim");
    assert!(
        !out.status.success(),
        "truncated trace must fail, stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("error"),
        "stderr should carry the error"
    );
}

#[test]
fn attribute_on_missing_file_exits_nonzero() {
    let out = cesim()
        .arg("attribute")
        .arg(scratch("does-not-exist.trc"))
        .output()
        .expect("spawn cesim");
    assert!(!out.status.success());
}

#[test]
fn trace_check_on_truncated_json_exits_nonzero() {
    // Produce a valid Chrome trace first, then truncate it.
    let json = scratch("ring8-trace.json");
    let out = cesim()
        .arg("trace")
        .arg(example("ring8.trc"))
        .arg("--trace-out")
        .arg(&json)
        .output()
        .expect("spawn cesim");
    assert!(
        out.status.success(),
        "trace conversion failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let ok = cesim()
        .arg("trace-check")
        .arg(&json)
        .output()
        .expect("spawn cesim");
    assert!(ok.status.success(), "intact trace must validate");

    let full = std::fs::read(&json).unwrap();
    let broken = scratch("ring8-trace-truncated.json");
    std::fs::write(&broken, &full[..full.len() * 2 / 3]).unwrap();
    let bad = cesim()
        .arg("trace-check")
        .arg(&broken)
        .output()
        .expect("spawn cesim");
    assert!(
        !bad.status.success(),
        "truncated Chrome trace must fail validation"
    );
}

/// Every subcommand, including `serve`, for the usage-error sweeps below.
const ALL_COMMANDS: &[&str] = &[
    "help",
    "table1",
    "table2",
    "list",
    "skeletons",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "run",
    "goal",
    "trace",
    "trace-check",
    "attribute",
    "ablate",
    "fleet",
    "serve",
];

/// Run cesim with the given args and return (exit code, stderr).
fn run_cli(args: &[&str]) -> (i32, String) {
    let out = cesim().args(args).output().expect("spawn cesim");
    (
        out.status.code().expect("terminated by signal"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_usage_error(args: &[&str]) {
    let (code, stderr) = run_cli(args);
    assert_eq!(code, 2, "expected exit 2 for {args:?}, stderr: {stderr}");
    assert!(
        stderr.contains("error:"),
        "stderr must carry the error for {args:?}: {stderr}"
    );
    assert!(
        stderr.contains("usage:"),
        "stderr must carry usage for {args:?}: {stderr}"
    );
}

#[test]
fn unknown_subcommand_exits_two_with_usage() {
    assert_usage_error(&["frobnicate"]);
    assert_usage_error(&["Fig3"]); // commands are case-sensitive
}

#[test]
fn unknown_flag_exits_two_for_every_subcommand() {
    for cmd in ALL_COMMANDS {
        assert_usage_error(&[cmd, "--no-such-flag"]);
    }
}

#[test]
fn missing_option_value_exits_two() {
    assert_usage_error(&["run", "--app"]);
    assert_usage_error(&["serve", "--addr"]);
}

#[test]
fn missing_required_argument_exits_two() {
    assert_usage_error(&["trace"]);
    assert_usage_error(&["trace-check"]);
    assert_usage_error(&["attribute"]);
    assert_usage_error(&["fleet"]);
}

#[test]
fn unexpected_positional_exits_two() {
    assert_usage_error(&["fig3", "stray.txt"]);
    assert_usage_error(&["serve", "stray.txt"]);
}

#[test]
fn runtime_errors_exit_one() {
    // A file that doesn't exist is a runtime failure, not a usage error.
    let missing = scratch("no-such.trc");
    let (code, stderr) = run_cli(&["attribute", missing.to_str().unwrap()]);
    assert_eq!(code, 1, "stderr: {stderr}");
    assert!(!stderr.contains("usage:"), "runtime errors skip usage");

    // An unbindable address fails at runtime after arguments parse fine.
    let (code, stderr) = run_cli(&["serve", "--addr", "203.0.113.1:1"]);
    assert_eq!(code, 1, "stderr: {stderr}");

    // Semantically invalid option values are runtime errors too.
    let (code, _) = run_cli(&["serve", "--workers", "0"]);
    assert_eq!(code, 1);

    // Numbers that parse but are out of range are rejected before any
    // simulation runs, with a message naming the flag.
    let ring = example("ring8.trc");
    let ring = ring.to_str().unwrap();
    let generated = scratch("generated.trc");
    let generated = generated.to_str().unwrap();
    for (cmd, flag, value) in [
        (&["run"][..], "--mode", "-5"),
        (&["run"], "--mode", "nan"),
        (&["run"], "--mode", "inf"),
        (&["trace", ring], "--mode", "-5"),
        (&["attribute", ring], "--mode", "nan"),
        (&["run"], "--steps-scale", "-1"),
        (&["run"], "--steps-scale", "nan"),
        (&["fig3"], "--steps-scale", "-1"),
        (&["fig3"], "--steps-scale", "nan"),
        (&["run"], "--reps", "0"),
        (&["run"], "--nodes", "0"),
        (&["fig3"], "--reps", "0"),
        (&["fig3"], "--nodes", "0"),
        (&["ablate"], "--reps", "0"),
        (&["ablate"], "--nodes", "0"),
        (&["goal"], "--nodes", "0"),
        (&["run"], "--steps", "0"),
        (&["goal"], "--steps", "0"),
        (&["trace", "--generate", generated], "--nodes", "0"),
        (&["trace", "--generate", generated], "--nodes", "1"),
    ] {
        let args: Vec<&str> = cmd.iter().copied().chain([flag, value]).collect();
        let (code, stderr) = run_cli(&args);
        assert_eq!(code, 1, "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
    }
}

#[test]
fn fleet_on_valid_spec_exits_zero() {
    let out = cesim()
        .arg("fleet")
        .arg(example("fleet_small.json"))
        .output()
        .expect("spawn cesim");
    assert!(
        out.status.success(),
        "expected success, stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("job,app,nodes,policy"),
        "CSV header missing: {stdout}"
    );
    assert!(
        stdout.contains("# slowdown_pct"),
        "trailer missing: {stdout}"
    );
}

#[test]
fn fleet_runtime_failures_exit_one_with_pointful_stderr() {
    // Missing spec file: runtime failure naming the path.
    let missing = scratch("no-such-fleet.json");
    let (code, stderr) = run_cli(&["fleet", missing.to_str().unwrap()]);
    assert_eq!(code, 1, "stderr: {stderr}");
    assert!(
        stderr.contains("no-such-fleet.json"),
        "error must name the file: {stderr}"
    );
    assert!(!stderr.contains("usage:"), "runtime errors skip usage");

    // Truncated JSON: parse failure is a runtime error naming the file.
    let full = std::fs::read_to_string(example("fleet_small.json")).unwrap();
    let broken = scratch("fleet-truncated.json");
    std::fs::write(&broken, &full[..full.len() / 2]).unwrap();
    let (code, stderr) = run_cli(&["fleet", broken.to_str().unwrap()]);
    assert_eq!(code, 1, "stderr: {stderr}");
    assert!(
        stderr.contains("fleet-truncated.json"),
        "error must name the file: {stderr}"
    );

    // Well-formed JSON violating the spec grammar: the error names the
    // offending field.
    let bad_field = scratch("fleet-bad-field.json");
    std::fs::write(
        &bad_field,
        r#"{"cluster": {"nodes": 0, "mtbce": {"dist": "uniform", "min": "1s", "max": "2s"}},
            "jobs": [{"app": "HPCG", "nodes": 2}]}"#,
    )
    .unwrap();
    let (code, stderr) = run_cli(&["fleet", bad_field.to_str().unwrap()]);
    assert_eq!(code, 1, "stderr: {stderr}");
    assert!(
        stderr.contains("cluster.nodes"),
        "error must name the field: {stderr}"
    );

    // An unknown --policy value is a runtime error listing the choices.
    let spec = example("fleet_small.json");
    let (code, stderr) = run_cli(&["fleet", spec.to_str().unwrap(), "--policy", "bogus"]);
    assert_eq!(code, 1, "stderr: {stderr}");
    assert!(stderr.contains("threshold_offline"), "stderr: {stderr}");
}

/// A 20,000-deep nested document is a parse error (exit 1 naming the
/// depth cap), not a stack overflow that aborts the process.
#[test]
fn deeply_nested_json_exits_one() {
    let path = scratch("deeply-nested.json");
    std::fs::write(&path, "[".repeat(20_000)).unwrap();
    for cmd in ["fleet", "trace-check"] {
        let (code, stderr) = run_cli(&[cmd, path.to_str().unwrap()]);
        assert_eq!(code, 1, "{cmd}: stderr: {stderr}");
        assert!(
            stderr.contains("deeper than 128"),
            "{cmd}: stderr: {stderr}"
        );
    }
}

/// A zero MTBCE is an invalid option value on every command that takes
/// one, not a panic (101) or a silent "no forward progress" (0).
#[test]
fn zero_mtbce_exits_one() {
    let trace = example("ring8.trc");
    let trace = trace.to_str().unwrap();
    let cmds: [&[&str]; 4] = [
        &["trace", trace],
        &["attribute", trace],
        &["run", "--app", "HPCG", "--nodes", "8", "--steps", "2"],
        &["ablate", "--nodes", "8"],
    ];
    for cmd in cmds {
        for zero in ["0s", "0", "0.1ps"] {
            let args = [cmd, &["--mtbce", zero]].concat();
            let (code, stderr) = run_cli(&args);
            assert_eq!(code, 1, "{args:?}: stderr: {stderr}");
            assert!(stderr.contains("--mtbce"), "{args:?}: stderr: {stderr}");
        }
    }
}

/// A lognormal sigma large enough to overflow the MTBCE draw still runs
/// the fleet: the draw saturates (an exit of 101 would be a panic).
#[test]
fn fleet_with_huge_lognormal_sigma_exits_zero() {
    let spec = std::fs::read_to_string(example("fleet_small.json")).unwrap();
    let huge = r#"{"dist": "lognormal", "median": "600s", "sigma": 1e308}"#;
    let spec = spec.replace(r#"{"dist": "uniform", "min": "8ms", "max": "15ms"}"#, huge);
    assert!(spec.contains(huge), "fleet_small.json changed its mtbce");
    let path = scratch("fleet-huge-sigma.json");
    std::fs::write(&path, spec).unwrap();
    let (code, stderr) = run_cli(&["fleet", path.to_str().unwrap(), "--quiet"]);
    assert_eq!(code, 0, "stderr: {stderr}");
}

#[test]
fn successful_commands_exit_zero() {
    for args in [&["help"][..], &["table1"], &["list"], &["skeletons"]] {
        let (code, stderr) = run_cli(args);
        assert_eq!(code, 0, "expected success for {args:?}, stderr: {stderr}");
    }
}
