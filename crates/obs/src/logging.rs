//! Leveled structured logging for the daemon and CLI.
//!
//! One process-global sink (stderr) with a level filter and two wire
//! formats — logfmt (the default, grep-friendly) and JSON (one object
//! per line). Every line is an `event` plus ordered key/value fields;
//! when the calling thread has a [`crate::tracectx`] context installed,
//! a `trace_id` field is stamped automatically so log lines, access
//! lines, flight-recorder dumps, and stored traces all cross-correlate
//! on the same id.
//!
//! Lines deliberately carry no timestamp: stderr consumers (journald,
//! container runtimes, CI logs) stamp arrival time themselves, and
//! timestamp-free lines are byte-deterministic for tests.

use std::sync::atomic::{AtomicU8, Ordering};

/// Log severity, most severe first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Unrecoverable or dropped work.
    Error = 0,
    /// Degraded but continuing.
    Warn = 1,
    /// Normal operational landmarks (default filter).
    Info = 2,
    /// Per-request / per-step detail.
    Debug = 3,
}

impl Level {
    /// Parse a level name (case-insensitive).
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// Line encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Format {
    /// `level=info event=access method=POST ...` (default).
    Logfmt = 0,
    /// One JSON object per line, all values as strings.
    Json = 1,
}

impl Format {
    /// Parse a format name (case-insensitive).
    pub fn parse(s: &str) -> Option<Format> {
        match s.to_ascii_lowercase().as_str() {
            "logfmt" => Some(Format::Logfmt),
            "json" => Some(Format::Json),
            _ => None,
        }
    }
}

static LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);
static FORMAT: AtomicU8 = AtomicU8::new(Format::Logfmt as u8);

/// Set the process-wide level filter and wire format.
pub fn configure(level: Level, format: Format) {
    LEVEL.store(level as u8, Ordering::Relaxed);
    FORMAT.store(format as u8, Ordering::Relaxed);
}

/// Whether lines at `level` currently pass the filter.
pub fn enabled(level: Level) -> bool {
    (level as u8) <= LEVEL.load(Ordering::Relaxed)
}

/// The currently configured wire format.
pub fn format() -> Format {
    if FORMAT.load(Ordering::Relaxed) == Format::Json as u8 {
        Format::Json
    } else {
        Format::Logfmt
    }
}

/// Emit one structured line to stderr (a no-op below the level filter).
/// `fields` are rendered in order; a `trace_id` field is appended from
/// the thread's trace context unless the caller already supplied one.
pub fn log(level: Level, event: &str, fields: &[(&str, &str)]) {
    if !enabled(level) {
        return;
    }
    let format = format();
    let trace = if fields.iter().any(|(k, _)| *k == "trace_id") {
        None
    } else {
        crate::tracectx::current_trace_id()
    };
    let trace_hex = trace.map(|t| t.to_string());
    eprintln!(
        "{}",
        render_line(format, level, event, fields, trace_hex.as_deref())
    );
}

/// [`log`] at [`Level::Warn`].
pub fn warn(event: &str, fields: &[(&str, &str)]) {
    log(Level::Warn, event, fields);
}

/// [`log`] at [`Level::Info`].
pub fn info(event: &str, fields: &[(&str, &str)]) {
    log(Level::Info, event, fields);
}

/// Render one line without emitting it — the format contract, exposed
/// for tests (deterministic: no clock, no globals).
pub fn render_line(
    format: Format,
    level: Level,
    event: &str,
    fields: &[(&str, &str)],
    trace_id: Option<&str>,
) -> String {
    let mut out = String::with_capacity(64 + fields.len() * 24);
    match format {
        Format::Logfmt => {
            out.push_str("level=");
            out.push_str(level.name());
            out.push_str(" event=");
            push_logfmt_value(&mut out, event);
            for (k, v) in fields {
                out.push(' ');
                out.push_str(k);
                out.push('=');
                push_logfmt_value(&mut out, v);
            }
            if let Some(t) = trace_id {
                out.push_str(" trace_id=");
                out.push_str(t);
            }
        }
        Format::Json => {
            out.push_str("{\"level\":\"");
            out.push_str(level.name());
            out.push_str("\",\"event\":");
            cesim_json::write_escaped(event, &mut out);
            for (k, v) in fields {
                out.push(',');
                cesim_json::write_escaped(k, &mut out);
                out.push(':');
                cesim_json::write_escaped(v, &mut out);
            }
            if let Some(t) = trace_id {
                out.push_str(",\"trace_id\":\"");
                out.push_str(t);
                out.push('"');
            }
            out.push('}');
        }
    }
    out
}

fn push_logfmt_value(out: &mut String, v: &str) {
    let needs_quotes = v.is_empty()
        || v.chars()
            .any(|c| c == ' ' || c == '"' || c == '=' || c == '\n');
    if !needs_quotes {
        out.push_str(v);
        return;
    }
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_and_format_parse() {
        assert_eq!(Level::parse("DEBUG"), Some(Level::Debug));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("loud"), None);
        assert_eq!(Format::parse("json"), Some(Format::Json));
        assert_eq!(Format::parse("logfmt"), Some(Format::Logfmt));
        assert_eq!(Format::parse("xml"), None);
    }

    #[test]
    fn logfmt_line_quotes_only_when_needed() {
        let line = render_line(
            Format::Logfmt,
            Level::Info,
            "serve",
            &[("msg", "listening on 127.0.0.1:8321"), ("workers", "4")],
            Some("0af7651916cd43dd8448eb211c80319c"),
        );
        assert_eq!(
            line,
            "level=info event=serve msg=\"listening on 127.0.0.1:8321\" workers=4 \
             trace_id=0af7651916cd43dd8448eb211c80319c"
        );
    }

    #[test]
    fn json_line_is_valid_json() {
        let line = render_line(
            Format::Json,
            Level::Warn,
            "access",
            &[("path", "/v1/simulate"), ("note", "a \"quoted\" value")],
            None,
        );
        let v = cesim_json::JsonValue::parse(&line).expect("json log line parses");
        assert_eq!(v.get("level").and_then(|l| l.as_str()), Some("warn"));
        assert_eq!(
            v.get("note").and_then(|n| n.as_str()),
            Some("a \"quoted\" value")
        );
    }

    #[test]
    fn filter_respects_level_order() {
        assert!(Level::Error < Level::Debug);
        configure(Level::Warn, Format::Logfmt);
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        configure(Level::Info, Format::Logfmt);
        assert!(enabled(Level::Info));
        assert!(!enabled(Level::Debug));
    }
}
