//! A small hand-rolled argument parser (no external dependencies; see
//! DESIGN.md's dependency policy).

use std::collections::HashMap;

/// Parsed command line: a subcommand plus `--key value` / `--flag` pairs.
#[derive(Debug, Default)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: Option<String>,
    /// `--key value` options.
    pub options: HashMap<String, String>,
    /// Bare `--flag` switches.
    pub flags: Vec<String>,
    /// Non-flag arguments after the subcommand (e.g. a trace file path).
    /// Commands that take none reject them at dispatch time.
    pub positionals: Vec<String>,
}

/// Options that take a value; everything else starting with `--` is a flag.
const VALUED: &[&str] = &[
    "nodes",
    "reps",
    "steps",
    "steps-scale",
    "seed",
    "apps",
    "csv",
    "app",
    "mode",
    "mtbce",
    "window",
    "period",
    "detour",
    "generate",
    "load",
    "extrapolate",
    "threads",
    "shards",
    "trace-out",
    "metrics-interval",
    "metrics-out",
    "observe-replicas",
    "provenance-out",
    "heatmap-out",
    "bins",
    "policy",
    "jobs-csv",
    "nodes-csv",
    "jsonl",
    "addr",
    "workers",
    "queue-depth",
    "cache-entries",
    "response-cache-entries",
    "log-level",
    "log-format",
];

/// Bare switches the CLI understands. Anything else spelled `--name` is
/// rejected at parse time so a typo (`--quite`) cannot silently run a
/// full sweep with the wrong behavior.
const FLAGS: &[&str] = &[
    "paper",
    "exact-rate",
    "quiet",
    "progress",
    "observe",
    "chart",
    "single-node",
    "profile",
    "log-requests",
    "help",
];

impl Args {
    /// Parse from an iterator of arguments (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = args.into_iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if VALUED.contains(&name) {
                    let v = it
                        .next()
                        .ok_or_else(|| format!("--{name} requires a value"))?;
                    out.options.insert(name.to_string(), v);
                } else if FLAGS.contains(&name) {
                    out.flags.push(name.to_string());
                } else {
                    return Err(format!("unknown option '--{name}'"));
                }
            } else if out.command.is_none() {
                out.command = Some(a);
            } else {
                out.positionals.push(a);
            }
        }
        Ok(out)
    }

    /// A string option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(|s| s.as_str())
    }

    /// A parsed option with a default.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value '{v}' for --{name}")),
        }
    }

    /// Whether a bare flag was passed.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn basic_parse() {
        let a = parse("fig5 --nodes 512 --reps 4 --paper").unwrap();
        assert_eq!(a.command.as_deref(), Some("fig5"));
        assert_eq!(a.get("nodes"), Some("512"));
        assert_eq!(a.get_parsed("reps", 1u32).unwrap(), 4);
        assert!(a.has_flag("paper"));
        assert!(!a.has_flag("quiet"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse("fig3").unwrap();
        assert_eq!(a.get_parsed("nodes", 256usize).unwrap(), 256);
    }

    #[test]
    fn missing_value_is_error() {
        assert!(parse("run --app").is_err());
    }

    #[test]
    fn bad_value_is_error() {
        let a = parse("fig3 --nodes abc").unwrap();
        assert!(a.get_parsed::<usize>("nodes", 1).is_err());
    }

    #[test]
    fn unknown_flag_is_error() {
        let err = parse("fig3 --bogus").unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
        // Typos of real flags are caught too.
        assert!(parse("fig4 --quite").is_err());
        assert!(parse("serve --adr 1.2.3.4:80").is_err());
    }

    #[test]
    fn serve_options_parse() {
        let a = parse("serve --addr 127.0.0.1:0 --workers 8 --queue-depth 16 --cache-entries 32")
            .unwrap();
        assert_eq!(a.command.as_deref(), Some("serve"));
        assert_eq!(a.get("addr"), Some("127.0.0.1:0"));
        assert_eq!(a.get_parsed("workers", 1usize).unwrap(), 8);
        assert_eq!(a.get_parsed("queue-depth", 1usize).unwrap(), 16);
        assert_eq!(a.get_parsed("cache-entries", 1usize).unwrap(), 32);
    }

    #[test]
    fn logging_options_parse() {
        let a = parse("serve --log-level debug --log-format json").unwrap();
        assert_eq!(a.get("log-level"), Some("debug"));
        assert_eq!(a.get("log-format"), Some("json"));
    }

    #[test]
    fn extra_positionals_are_collected() {
        let a = parse("trace in.trc --trace-out t.json").unwrap();
        assert_eq!(a.command.as_deref(), Some("trace"));
        assert_eq!(a.positionals, vec!["in.trc".to_string()]);
        assert_eq!(a.get("trace-out"), Some("t.json"));
    }
}
