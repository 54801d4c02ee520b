//! # cesim-workloads
//!
//! Communication skeletons for the nine workloads of the paper's Table I:
//! LAMMPS (Lennard-Jones, SNAP and Crack potentials), LULESH, HPCG, CTH,
//! MILC, miniFE and SPARC.
//!
//! ## Substitution note (see DESIGN.md)
//!
//! The paper replays MPI traces collected on Mutrino (64–128 ranks) and
//! extrapolates them with LogGOPSim to 4k–16k ranks. The traces are not
//! available, so this crate generates each workload's *communication
//! skeleton* directly at the target scale: the decomposition geometry,
//! per-step halo exchanges, compute granularity and — critically — the
//! **collective frequency**, which the paper (§IV-C, citing Ferreira et
//! al. SC'14) identifies as the property that determines sensitivity to
//! CE noise. The skeletons are calibrated so that
//!
//! * LAMMPS-lj and LAMMPS-snap have long compute phases and rare
//!   collectives (the paper's insensitive pair),
//! * LULESH and LAMMPS-crack have fine-grained steps with per-step
//!   collectives (the paper's most sensitive pair),
//! * HPCG, miniFE, CTH, MILC and SPARC sit in between (CG-style solvers
//!   and timestep-controlled physics with ~1 s global sync intervals).
//!
//! Rank-count *extrapolation* is inherent: generators take the target rank
//! count and produce exact collective trees (like LogGOPSim's exact
//! collective extrapolation) and geometry-preserving point-to-point halos.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod config;
pub mod geometry;
pub mod skeleton;

pub use apps::AppId;
pub use config::WorkloadConfig;
pub use skeleton::Skeleton;

use cesim_goal::{PeriodicSchedule, Schedule};

/// Build the communication skeleton of `app` for `ranks` ranks.
///
/// Panics if `ranks == 0`. Use [`natural_ranks`] to snap a node budget to
/// the workload's natural process count first (e.g. LULESH's
/// 125·2^k rule from the paper).
pub fn build(app: AppId, ranks: usize, cfg: &WorkloadConfig) -> Schedule {
    apps::spec(app).build(ranks, cfg)
}

/// One period of [`build`]'s schedule ([`Skeleton::build_periodic`]):
/// the form the engine compiles without expanding the whole run.
pub fn build_periodic(app: AppId, ranks: usize, cfg: &WorkloadConfig) -> PeriodicSchedule {
    apps::spec(app).build_periodic(ranks, cfg)
}

/// The workload's natural rank count given a node budget, mirroring
/// Table II's note: LULESH runs on the nearest power-of-two multiple of
/// its 125-rank trace (e.g. 16,000 on a 16,384-node system); all other
/// workloads use the node count directly.
pub fn natural_ranks(app: AppId, target_nodes: usize) -> usize {
    match app {
        AppId::Lulesh => {
            if target_nodes < 125 {
                // Below the trace size, fall back to the budget itself.
                target_nodes.max(1)
            } else {
                let mut r = 125usize;
                while r * 2 <= target_nodes {
                    r *= 2;
                }
                r
            }
        }
        _ => target_nodes.max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lulesh_natural_ranks_match_paper() {
        // Table II: 16,000 simulated LULESH processes on 16,384 nodes.
        assert_eq!(natural_ranks(AppId::Lulesh, 16_384), 16_000);
        assert_eq!(natural_ranks(AppId::Lulesh, 8_192), 8_000);
        assert_eq!(natural_ranks(AppId::Lulesh, 4_096), 4_000);
        assert_eq!(natural_ranks(AppId::Lulesh, 125), 125);
        assert_eq!(natural_ranks(AppId::Lulesh, 64), 64);
        assert_eq!(natural_ranks(AppId::Hpcg, 16_384), 16_384);
    }

    #[test]
    fn all_apps_build_and_validate_small() {
        let cfg = WorkloadConfig {
            steps_override: Some(3),
            ..WorkloadConfig::default()
        };
        for app in AppId::all() {
            let s = build(app, 8, &cfg);
            assert_eq!(s.num_ranks(), 8, "{app:?}");
            s.validate().unwrap_or_else(|e| panic!("{app:?}: {e}"));
            assert!(s.stats().sends > 0, "{app:?} has no communication");
        }
    }
}
