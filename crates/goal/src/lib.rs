//! # cesim-goal
//!
//! Communication-schedule intermediate representation, modeled on
//! LogGOPSim's GOAL format (Group Operation Assembly Language).
//!
//! A [`Schedule`] holds, for each MPI rank, a dependency DAG of three
//! operation kinds:
//!
//! * `calc` — a CPU interval of a given duration,
//! * `send` — transmit `bytes` to a destination rank with a tag,
//! * `recv` — receive `bytes` from a source rank (or any source) with a tag.
//!
//! Dependencies are intra-rank only; inter-rank ordering arises solely from
//! message matching, exactly as in MPI. The crate provides:
//!
//! * [`builder::ScheduleBuilder`] — append-only construction that
//!   guarantees acyclicity by requiring dependencies to point backwards,
//! * [`collectives`] — expansion of MPI collectives into point-to-point
//!   send/recv trees (binomial broadcast/reduce, recursive-doubling
//!   allreduce, dissemination barrier, ring allgather, pairwise alltoall,
//!   binomial scatter/gather), mirroring LogGOPSim's collective expander,
//! * [`periodic`] — one period of a repeating schedule (a head run
//!   once, then a body repeated with per-repetition tags and durations),
//!   the form workload skeletons compile from,
//! * [`textfmt`] — a human-readable GOAL-like text serialization with a
//!   round-tripping parser,
//! * [`validate`] — static checks (dependency ranges, acyclicity for
//!   externally-parsed schedules, send/recv matching balance).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod collectives;
pub mod op;
pub mod periodic;
pub mod schedule;
pub mod textfmt;
pub mod validate;

pub use builder::ScheduleBuilder;
pub use op::{Op, OpId, OpKind, Rank, Tag};
pub use periodic::{Period, PeriodicSchedule, RankPeriod};
pub use schedule::{RankSchedule, Schedule, ScheduleStats};
pub use validate::ValidationError;
