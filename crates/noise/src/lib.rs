//! # cesim-noise
//!
//! Correctable-error (CE) noise injection and the simulated measurement
//! substrate of §IV-A of the paper.
//!
//! * [`ce`] — the heart of the study: [`ce::CeNoise`] models per-node CE
//!   arrivals as independent Poisson processes (exponential inter-arrival
//!   times) and stretches every CPU interval the engine executes by one
//!   detour of the logging mode's per-event cost. One process covers every
//!   use: one MTBCE on all nodes (Figs. 4–7) or a single node (Fig. 3),
//!   a rate and detour per rank (the substrate of the fleet engine,
//!   `cesim-fleet`), and an optional two-state Markov burst modulation
//!   (CE "avalanches").
//! * [`selfish`] — a model of the `selfish` system-noise microbenchmark:
//!   it samples a node's activity and records every CPU *detour* longer
//!   than a threshold (the paper uses 150 ns), producing the bar-trace
//!   representation of Fig. 2.
//! * [`einj`] — the APEI EINJ error-injection workflow (configure via
//!   sysfs writes, then trigger), including the dry-run mode the paper
//!   uses to show that configuring injection is itself noise-free.
//! * [`signature`] — composes the above to regenerate the four noise
//!   signatures of Fig. 2: native, dry-run, software/CMCI and
//!   firmware/EMCA.
//! * [`trace`] — replays any recorded [`DetourTrace`] (e.g. a Fig. 2
//!   signature) as simulation noise, closing the measure→inject loop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ce;
pub mod einj;
pub mod selfish;
pub mod signature;
pub mod trace;

pub use ce::{BurstSpec, CeNoise, RankCeParams, Scope};
pub use selfish::{Detour, DetourTrace};
pub use signature::SignatureKind;
pub use trace::TraceNoise;
