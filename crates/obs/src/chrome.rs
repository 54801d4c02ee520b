//! Chrome `trace_event` JSON export.
//!
//! Produces the JSON-object flavor of the [Trace Event Format] consumed
//! by `chrome://tracing` and [Perfetto](https://ui.perfetto.dev):
//!
//! * **pid 0 — "ranks"**: one thread per rank (`tid = rank + 1`) with
//!   `ph: "X"` complete slices for every CPU segment (named by
//!   [`SegKind::label`]), plus `ph: "C"` counter samples for match-queue
//!   depths and `ph: "i"` instants for message injections/deliveries.
//! * **pid 1 — "noise"**: one lane per rank carrying the injected
//!   detours as slices, so noise lines up under the work it displaced.
//!
//! Timestamps are microseconds (the format's native unit) derived from
//! the simulator's picosecond clock; the conversion is fixed-point
//! (`ps / 1e6` rendered with 6 fractional digits) so exports are
//! byte-deterministic.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::fmt::Write as _;

use cesim_engine::record::{SegKind, SimEvent};
use cesim_model::Time;

use cesim_json::JsonValue;

/// Process id used for per-rank execution tracks.
pub const PID_RANKS: u64 = 0;
/// Process id used for per-rank noise (detour) lanes.
pub const PID_NOISE: u64 = 1;

/// Render picoseconds as microseconds with 6 fractional digits
/// (exact: 1 ps = 1e-6 us).
fn us(t: Time) -> String {
    let ps = t.as_ps();
    format!("{}.{:06}", ps / 1_000_000, ps % 1_000_000)
}

fn us_span(ps: u64) -> String {
    format!("{}.{:06}", ps / 1_000_000, ps % 1_000_000)
}

struct TraceEvent {
    /// Sort key: timestamp in ps, then emission order (stable).
    ts_ps: u64,
    pid: u64,
    tid: u64,
    body: String,
}

#[allow(clippy::too_many_arguments)]
fn push_complete(
    out: &mut Vec<TraceEvent>,
    pid: u64,
    tid: u64,
    name: &str,
    cat: &str,
    start: Time,
    dur_ps: u64,
    args: &str,
) {
    let body = format!(
        r#"{{"name":"{name}","cat":"{cat}","ph":"X","ts":{},"dur":{},"pid":{pid},"tid":{tid},"args":{{{args}}}}}"#,
        us(start),
        us_span(dur_ps),
    );
    out.push(TraceEvent {
        ts_ps: start.as_ps(),
        pid,
        tid,
        body,
    });
}

/// Export recorded events as a Chrome trace JSON document.
///
/// `dropped` is the number of events lost to ring-buffer truncation
/// (see `TimelineRecorder::dropped`); it is surfaced in the trace's
/// `otherData` so a truncated timeline is visibly marked.
pub fn export_chrome_trace(events: &[SimEvent], dropped: u64) -> String {
    let mut slices: Vec<TraceEvent> = Vec::with_capacity(events.len());
    let mut max_rank = 0u32;
    for ev in events {
        match *ev {
            SimEvent::Exec {
                rank,
                op,
                seg,
                start,
                end,
                work,
            } => {
                max_rank = max_rank.max(rank);
                let args = format!(r#""op":{op},"work_us":{}"#, us_span(work.as_ps()));
                push_complete(
                    &mut slices,
                    PID_RANKS,
                    rank as u64 + 1,
                    seg.label(),
                    if seg == SegKind::Calc {
                        "compute"
                    } else {
                        "comm"
                    },
                    start,
                    end.since(start).as_ps(),
                    &args,
                );
            }
            SimEvent::Detour {
                rank, op, at, dur, ..
            } => {
                max_rank = max_rank.max(rank);
                let args = format!(r#""op":{op}"#);
                push_complete(
                    &mut slices,
                    PID_NOISE,
                    rank as u64 + 1,
                    "detour",
                    "noise",
                    at,
                    dur.as_ps(),
                    &args,
                );
            }
            SimEvent::QueueDepth {
                rank,
                at,
                unexpected,
                posted,
            } => {
                max_rank = max_rank.max(rank);
                let body = format!(
                    r#"{{"name":"queues r{rank}","ph":"C","ts":{},"pid":{PID_RANKS},"tid":{},"args":{{"unexpected":{unexpected},"posted":{posted}}}}}"#,
                    us(at),
                    rank as u64 + 1,
                );
                slices.push(TraceEvent {
                    ts_ps: at.as_ps(),
                    pid: PID_RANKS,
                    tid: rank as u64 + 1,
                    body,
                });
            }
            SimEvent::MsgSend {
                id,
                src,
                dst,
                class,
                bytes,
                inject,
                ..
            } => {
                max_rank = max_rank.max(src).max(dst);
                let body = format!(
                    r#"{{"name":"send {}","ph":"i","s":"t","ts":{},"pid":{PID_RANKS},"tid":{},"args":{{"msg":{id},"dst":{dst},"bytes":{bytes}}}}}"#,
                    class.label(),
                    us(inject),
                    src as u64 + 1,
                );
                slices.push(TraceEvent {
                    ts_ps: inject.as_ps(),
                    pid: PID_RANKS,
                    tid: src as u64 + 1,
                    body,
                });
            }
            SimEvent::MsgDeliver {
                id,
                src,
                dst,
                class,
                at,
                ..
            } => {
                max_rank = max_rank.max(src).max(dst);
                let body = format!(
                    r#"{{"name":"deliver {}","ph":"i","s":"t","ts":{},"pid":{PID_RANKS},"tid":{},"args":{{"msg":{id},"src":{src}}}}}"#,
                    class.label(),
                    us(at),
                    dst as u64 + 1,
                );
                slices.push(TraceEvent {
                    ts_ps: at.as_ps(),
                    pid: PID_RANKS,
                    tid: dst as u64 + 1,
                    body,
                });
            }
            // Pure bookkeeping events carry no visual payload.
            SimEvent::OpDone { .. } | SimEvent::RecvPosted { .. } | SimEvent::DepEdge { .. } => {}
        }
    }
    // Stable per-track time order (Perfetto requires non-decreasing
    // timestamps within a (pid, tid) track for nesting).
    slices.sort_by_key(|a| (a.pid, a.tid, a.ts_ps));

    let mut out = String::with_capacity(slices.len() * 96 + 1024);
    out.push_str("{\"traceEvents\":[\n");
    // Metadata first: process and thread names.
    let mut first = true;
    let mut meta = |out: &mut String, body: String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&body);
    };
    meta(
        &mut out,
        format!(
            r#"{{"name":"process_name","ph":"M","pid":{PID_RANKS},"args":{{"name":"ranks"}}}}"#
        ),
    );
    meta(
        &mut out,
        format!(
            r#"{{"name":"process_name","ph":"M","pid":{PID_NOISE},"args":{{"name":"noise"}}}}"#
        ),
    );
    if !events.is_empty() {
        for r in 0..=max_rank {
            for pid in [PID_RANKS, PID_NOISE] {
                meta(
                    &mut out,
                    format!(
                        r#"{{"name":"thread_name","ph":"M","pid":{pid},"tid":{},"args":{{"name":"rank {r}"}}}}"#,
                        r as u64 + 1,
                    ),
                );
            }
        }
    }
    for s in &slices {
        meta(&mut out, String::new());
        out.push_str(&s.body);
    }
    let _ = write!(
        out,
        "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"generator\":\"cesim-obs\",\"dropped_events\":{dropped}}}}}"
    );
    out
}

/// Export a completed request trace ([`crate::tracectx::FinishedTrace`])
/// as a Chrome `trace_event` document: the root span plus every
/// buffered span as `ph: "X"` complete slices on pid 0 ("request").
/// Spans are packed greedily into lanes (tids) so concurrent siblings
/// — parallel sweep cells, replicas — render side by side instead of
/// producing an invalid nesting; timestamps are the trace's nanosecond
/// offsets rendered as fixed-point microseconds, so the export is
/// byte-deterministic for a given trace.
pub fn export_request_trace(t: &crate::tracectx::FinishedTrace) -> String {
    fn ns_us(ns: u64) -> String {
        format!("{}.{:03}", ns / 1_000, ns % 1_000)
    }
    // (start_ns, id, name, dur_ns, parent) — root first, then spans in
    // start order so greedy lane assignment keeps per-track timestamps
    // monotone.
    let mut rows: Vec<(u64, u64, &str, u64, u64)> =
        vec![(0, t.root.0, t.name.as_str(), t.dur_ns, 0)];
    for s in &t.spans {
        rows.push((s.start_ns, s.id.0, s.name.as_str(), s.dur_ns, s.parent.0));
    }
    rows.sort_by_key(|r| (r.0, r.1));
    let mut lane_end: Vec<u64> = Vec::new();
    let mut out = String::with_capacity(256 + rows.len() * 128);
    out.push_str("{\"traceEvents\":[\n");
    out.push_str(&format!(
        r#"{{"name":"process_name","ph":"M","pid":0,"args":{{"name":"request {}"}}}}"#,
        t.trace_id
    ));
    for (start_ns, id, name, dur_ns, parent) in rows {
        let end = start_ns + dur_ns;
        let lane = match lane_end.iter().position(|&e| e <= start_ns) {
            Some(l) => {
                lane_end[l] = end;
                l
            }
            None => {
                lane_end.push(end);
                lane_end.len() - 1
            }
        };
        out.push_str(",\n{\"name\":");
        cesim_json::write_escaped(name, &mut out);
        let _ = write!(
            out,
            ",\"cat\":\"request\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\"args\":{{\"span_id\":\"{:016x}\",\"parent\":\"{:016x}\"}}}}",
            ns_us(start_ns),
            ns_us(dur_ns),
            lane + 1,
            id,
            parent,
        );
    }
    let _ = write!(
        out,
        "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"generator\":\"cesim-obs\",\"trace_id\":\"{}\",\"status\":{},\"dropped_spans\":{}}}}}",
        t.trace_id, t.status, t.dropped
    );
    out
}

/// Summary of a validated Chrome trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChromeTraceStats {
    /// Total entries in `traceEvents`.
    pub events: usize,
    /// `ph: "X"` complete slices.
    pub slices: usize,
    /// `ph: "C"` counter samples.
    pub counters: usize,
    /// Distinct (pid, tid) tracks carrying slices.
    pub tracks: usize,
}

/// Parse and sanity-check an exported trace.
///
/// Checks performed: the document is valid JSON; `traceEvents` is an
/// array of objects, each with a `ph` string; every `X` slice carries
/// numeric `ts`/`dur` and `pid`/`tid`; and within each (pid, tid) track
/// the `X` timestamps are monotone non-decreasing.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeTraceStats, String> {
    let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
    let evs = doc
        .get("traceEvents")
        .ok_or("missing traceEvents")?
        .as_array()
        .ok_or("traceEvents is not an array")?;
    let mut stats = ChromeTraceStats {
        events: evs.len(),
        ..Default::default()
    };
    let mut last_ts: std::collections::BTreeMap<(u64, u64), f64> = Default::default();
    for (i, e) in evs.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(|p| p.as_str())
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        match ph {
            "X" => {
                stats.slices += 1;
                let ts = e
                    .get("ts")
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| format!("event {i}: X without numeric ts"))?;
                e.get("dur")
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| format!("event {i}: X without numeric dur"))?;
                let pid = e
                    .get("pid")
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| format!("event {i}: X without pid"))?
                    as u64;
                let tid = e
                    .get("tid")
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| format!("event {i}: X without tid"))?
                    as u64;
                let prev = last_ts.insert((pid, tid), ts);
                if let Some(p) = prev {
                    if ts < p {
                        return Err(format!(
                            "event {i}: track ({pid},{tid}) timestamps regress: {ts} < {p}"
                        ));
                    }
                }
            }
            "C" => stats.counters += 1,
            _ => {}
        }
    }
    stats.tracks = last_ts.len();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cesim_model::Span;

    #[test]
    fn microsecond_rendering_is_exact() {
        assert_eq!(us(Time::from_ps(0)), "0.000000");
        assert_eq!(us(Time::from_ps(1)), "0.000001");
        assert_eq!(us(Time::from_ps(1_500_000)), "1.500000");
        assert_eq!(us(Time::from_ps(123_456_789)), "123.456789");
    }

    #[test]
    fn empty_trace_validates() {
        let t = export_chrome_trace(&[], 0);
        let stats = validate_chrome_trace(&t).unwrap();
        assert_eq!(stats.slices, 0);
    }

    #[test]
    fn exec_and_detour_land_on_separate_processes() {
        let evs = vec![
            SimEvent::Exec {
                rank: 0,
                op: 0,
                seg: SegKind::Calc,
                start: Time::from_ps(0),
                end: Time::from_ps(2_000_000),
                work: Span::from_ps(1_500_000),
            },
            SimEvent::Detour {
                id: 0,
                rank: 0,
                op: 0,
                at: Time::from_ps(1_500_000),
                dur: Span::from_ps(500_000),
            },
        ];
        let t = export_chrome_trace(&evs, 3);
        let stats = validate_chrome_trace(&t).unwrap();
        assert_eq!(stats.slices, 2);
        assert_eq!(stats.tracks, 2);
        let doc = JsonValue::parse(&t).unwrap();
        assert_eq!(
            doc.get("otherData").unwrap().get("dropped_events").unwrap(),
            &JsonValue::Number(3.0)
        );
    }

    #[test]
    fn request_trace_export_validates_with_overlapping_siblings() {
        use crate::tracectx::{SpanId, SpanRec, TraceCtx};
        // Span names are arbitrary text (the root's carries the client's
        // method): control characters must come out escaped.
        let ctx = TraceCtx::new_root("GE\u{1}T /v1/sweep", None);
        let mut f = ctx.finish(200, false);
        f.dur_ns = 5_000_000;
        let mk = |id: u64, start_ns: u64, dur_ns: u64| SpanRec {
            id: SpanId(id),
            parent: f.root,
            name: format!("cell\t\"{id}\""),
            start_ns,
            dur_ns,
        };
        // Two overlapping "parallel cell" siblings plus a sequential one.
        f.spans.push(mk(f.root.0 + 1, 0, 3_000_000));
        f.spans.push(mk(f.root.0 + 2, 1_000_000, 3_000_000));
        f.spans.push(mk(f.root.0 + 3, 4_000_000, 500_000));
        let doc = export_request_trace(&f);
        let stats = validate_chrome_trace(&doc).unwrap();
        assert_eq!(stats.slices, 4, "{doc}");
        // The overlapping siblings must land on distinct lanes; the
        // sequential span reuses a freed lane.
        assert!(stats.tracks >= 2 && stats.tracks <= 3, "{stats:?}");
    }

    #[test]
    fn validator_rejects_regressing_track() {
        let bad = r#"{"traceEvents":[
            {"name":"a","ph":"X","ts":5.0,"dur":1.0,"pid":0,"tid":1},
            {"name":"b","ph":"X","ts":3.0,"dur":1.0,"pid":0,"tid":1}
        ]}"#;
        assert!(validate_chrome_trace(bad).unwrap_err().contains("regress"));
    }
}
