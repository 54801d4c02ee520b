//! # cesim-core
//!
//! The experiment layer of the DRAM correctable-error logging study, and
//! the crate downstream users should depend on: it re-exports the whole
//! stack (`cesim-model`, `cesim-goal`, `cesim-engine`, `cesim-noise`,
//! `cesim-workloads`) and adds:
//!
//! * [`experiment`] — a single measurement cell: workload × scale ×
//!   logging mode × MTBCE × injection scope, run against a noise-free
//!   baseline with replicated perturbed runs ([`experiment::run`]).
//! * [`figures`] — the sweeps that regenerate every evaluation figure of
//!   the paper (Figs. 3–7) plus Fig. 2 via `cesim-noise`, each behind a
//!   [`figures::ScaleConfig`] that defaults to a laptop-tractable scale
//!   and can be dialed up to the paper's 16,384 nodes.
//! * [`report`] — ASCII-table and CSV rendering of figure data.
//! * [`tables`] — Table I (workloads) and Table II (systems).
//! * [`cache`] — compiled-schedule and full-response LRUs shared by the
//!   serving daemon (`cesim-serve`).
//! * [`service`] — JSON request → experiment mapping and response
//!   rendering for `cesim serve`'s `/v1/simulate` and `/v1/sweep`.
//!
//! ## Quick start
//!
//! ```
//! use cesim_core::experiment::{Experiment, run};
//! use cesim_core::model::{LoggingMode, Span};
//! use cesim_core::noise::Scope;
//! use cesim_core::workloads::AppId;
//!
//! let exp = Experiment::new(AppId::Lulesh, 64)
//!     .mode(LoggingMode::Firmware)
//!     .mtbce(Span::from_secs(5))
//!     .scope(Scope::AllRanks)
//!     .reps(2)
//!     .steps(10);
//! let out = run(&exp).unwrap();
//! println!("slowdown: {:.2}%", out.mean_slowdown_pct().unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod experiment;
pub mod figures;
pub mod report;
pub mod seed;
pub mod service;
pub mod tables;

/// Re-export: foundation types (time, LogGOPS params, systems, RNG).
pub use cesim_model as model;

/// Re-export: schedule IR and collectives.
pub use cesim_goal as goal;

/// Re-export: the LogGOPS discrete-event engine.
pub use cesim_engine as engine;

/// Re-export: CE noise, selfish/EINJ substrate, Fig. 2 signatures.
pub use cesim_noise as noise;

/// Re-export: the nine workload skeletons.
pub use cesim_workloads as workloads;

/// Re-export: tracing, metrics, and Chrome-trace export.
pub use cesim_obs as obs;

pub use cache::{ForkFootprint, ResponseCache, ScheduleCache};
pub use experiment::{CellObs, Experiment, Outcome};
pub use figures::{FigureData, ScaleConfig};
pub use service::{
    handle_simulate, handle_sweep, ServiceError, ServiceState, SimulateRequest, SweepRequest,
};
