//! # cesim-obs
//!
//! Observability layer on top of the engine's [`Recorder`] hooks:
//!
//! * [`TimelineRecorder`] — a bounded ring-buffer recorder suitable for
//!   production runs (oldest events are dropped, never reallocation in
//!   the hot path),
//! * [`chrome`] — Chrome `trace_event` JSON export, loadable in
//!   `chrome://tracing` / [Perfetto](https://ui.perfetto.dev),
//! * [`critical`] — a critical-path walker that backtracks dependency
//!   and message edges from the last-finishing op and attributes the
//!   run's makespan to compute, communication CPU, network, injected
//!   detours, and blocked time,
//! * [`metrics`] — periodic per-rank interval metrics (busy / detour /
//!   blocked fractions, match-queue depths) as CSV,
//! * [`provenance`] — per-event detour provenance: a causal propagation
//!   pass that classifies every injected detour as absorbed or
//!   propagated, with amplification factors and makespan attribution,
//! * [`telemetry`] — runtime telemetry for the tool itself: [`Span`],
//!   the one wall-time guard, whose drop feeds a phase profiler (phase
//!   tables, Prometheus histograms), a bounded flight ring of recent
//!   runtime events, and the installed request trace — all gated on
//!   one process-wide atomic so the disabled path is free. Its
//!   [`Histogram`](telemetry::Histogram) is the one Prometheus
//!   histogram type (the daemon's request latencies use it too),
//! * [`tracectx`] — request-scoped distributed tracing: W3C
//!   `traceparent` propagation, per-request span trees collected
//!   across worker threads, and a tail-sampling [`TraceStore`] that
//!   always retains errors, sheds, and the slowest cohort,
//! * [`logging`] — leveled structured logging (logfmt | JSON) with
//!   automatic `trace_id` stamping from the installed trace context.
//!
//! [`JsonValue`] is re-exported from `cesim-json`, the shared parser
//! and serializer that validates exported traces and writes provenance
//! JSONL.
//!
//! The event taxonomy itself ([`SimEvent`], [`Recorder`]) lives in
//! `cesim_engine::record` so the engine carries no dependency on this
//! crate; everything here is pure post-processing over the recorded
//! stream.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod critical;
pub mod logging;
pub mod metrics;
pub mod provenance;
pub mod telemetry;
pub mod timeline;
pub mod tracectx;

pub use cesim_json::JsonValue;
pub use chrome::{export_chrome_trace, validate_chrome_trace, ChromeTraceStats};
pub use critical::{Attribution, CriticalPath};
pub use metrics::{interval_metrics_csv, IntervalMetrics};
pub use provenance::{
    analyze, heatmap_csv, provenance_jsonl, DetourFate, Fate, ProvenanceReport, ProvenanceSummary,
};
pub use telemetry::Span;
pub use timeline::TimelineRecorder;
pub use tracectx::{FinishedTrace, TraceCtx, TraceId, TraceStore};

// Re-export the engine-side contract so downstream users need one import.
pub use cesim_engine::record::{MsgClass, NullRecorder, Recorder, SegKind, SimEvent, VecRecorder};
