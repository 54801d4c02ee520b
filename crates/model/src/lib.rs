//! # cesim-model
//!
//! Foundation types for the DRAM correctable-error (CE) logging simulation
//! study (reproduction of *"Understanding the Effects of DRAM Correctable
//! Error Logging at Scale"*, Ferreira et al., IEEE CLUSTER 2021).
//!
//! This crate is dependency-free and provides:
//!
//! * [`time`] — picosecond-resolution simulated time ([`Time`]) and
//!   durations ([`Span`]). Picoseconds are required because the LogGOPS
//!   per-byte gap `G` on a Cray-XC40-class network is a fraction of a
//!   nanosecond.
//! * [`params`] — the LogGOPS network/CPU model parameters
//!   ([`LogGopsParams`]) used by the discrete-event engine.
//! * [`logging`] — the three CE logging modes the paper evaluates
//!   ([`LoggingMode`]): hardware-only correction (150 ns/event), software/OS
//!   decoding via CMCI (775 µs/event) and firmware decoding via EMCA
//!   (133 ms/event).
//! * [`system`] — Table II of the paper: measured and hypothesized CE rates
//!   for Google/Facebook fleets, Cielo, Trinity, Summit and a family of
//!   straw-man exascale systems, plus the algebra converting CEs/GiB/year
//!   into a per-node mean time between correctable errors
//!   ([`SystemSpec::mtbce_node`]).
//! * [`rng`] — a small, deterministic xoshiro256++ PRNG ([`rng::Rng64`])
//!   with exponential sampling. We deliberately hand-roll this (~60 lines)
//!   instead of depending on `rand`: experiment reproducibility requires
//!   bit-stable streams across toolchain updates, and the engine only needs
//!   uniform and exponential draws.
//!
//! Everything downstream (`cesim-goal`, `cesim-engine`, `cesim-noise`,
//! `cesim-workloads`, `cesim-core`) builds on these types.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod logging;
pub mod params;
pub mod rng;
pub mod system;
pub mod time;
pub mod units;

pub use logging::LoggingMode;
pub use params::LogGopsParams;
pub use system::SystemSpec;
pub use time::{Span, Time};
pub use units::{parse_positive_span, parse_span};
