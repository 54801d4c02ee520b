//! The generic bulk-synchronous workload skeleton.
//!
//! Every workload in the study is, structurally, a timestep/iteration loop:
//!
//! ```text
//! for step in 0..steps {
//!     compute();                   // local work, with per-rank jitter
//!     halo_exchange();             // neighbor sends/recvs (decomposition-specific)
//!     halo_exchange();             //   (optional reverse/force communication)
//!     if step % k == 0 { allreduce(); ... }   // global reductions
//! }
//! ```
//!
//! [`Skeleton`] captures the parameters that distinguish the nine
//! workloads — decomposition dimensionality, halo stencil classes and
//! message sizes, compute granularity, and collective cadence — and
//! expands them into a validated [`Schedule`].
//!
//! The loop's structure repeats every [`Skeleton::period`] steps (the
//! least common multiple of the halo and collective cadences); only the
//! compute jitter and the message tags change. [`Skeleton::build_periodic`]
//! therefore expands one period and records what changes per
//! repetition (see [`cesim_goal::periodic`]): the jitter of every
//! (rank, step) in a side table, halo tags advancing by twice the period,
//! and collective tags by what one period draws from the [`TagPool`].
//! The engine compiles that form directly, so a long run costs one
//! period of schedule; [`Skeleton::build`] expands every step and stays
//! the reference the periodic form is checked against.

#![allow(clippy::needless_range_loop)] // parallel per-rank arrays

use crate::config::WorkloadConfig;
use crate::geometry::{offsets, order, Grid};
use cesim_goal::builder::TagPool;
use cesim_goal::collectives::{allreduce, CollectiveCosts};
use cesim_goal::{
    OpId, Period, PeriodicSchedule, Rank, RankPeriod, Schedule, ScheduleBuilder, Tag,
};
use cesim_model::rng::Rng64;
use cesim_model::Span;

/// Per-step, per-rank multiplicative compute jitter amplitude (breaks
/// artificial lockstep; the paper's traces contain natural imbalance).
const JITTER: f64 = 0.01;

/// One halo stencil class: all offsets with `order` non-zero components
/// exchange `bytes` each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HaloClass {
    /// Stencil order: 1 = faces, 2 = edges, 3 = corners.
    pub order: usize,
    /// Message payload per neighbor of this class.
    pub bytes: u64,
}

/// Global-reduction cadence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CollectivePlan {
    /// An occurrence every `every` steps (1 = every step).
    pub every: usize,
    /// Back-to-back allreduces per occurrence (e.g. CG does two dot
    /// products per iteration).
    pub per_occurrence: usize,
    /// Reduction payload.
    pub bytes: u64,
}

/// A workload's communication-skeleton parameters.
#[derive(Clone, Debug)]
pub struct Skeleton {
    /// Workload name.
    pub name: &'static str,
    /// Decomposition dimensionality (2, 3 or 4).
    pub dims: usize,
    /// Halo stencil classes (empty = no point-to-point communication).
    pub halo: Vec<HaloClass>,
    /// Whether each step performs a second (reverse) halo exchange, as
    /// molecular-dynamics force communication does.
    pub reverse_comm: bool,
    /// Perform the halo exchange only every `halo_every` steps (≥ 1).
    /// Models codes whose per-step neighbor communication is overlapped /
    /// non-synchronizing and whose real coupling point is a periodic
    /// operation (e.g. MD reneighboring every few steps); LogGOPSim traces
    /// capture the same effect through their recorded dependencies.
    pub halo_every: usize,
    /// Local compute per step (before jitter).
    pub compute_per_step: Span,
    /// Global reduction cadence, if any.
    pub collective: Option<CollectivePlan>,
    /// Default step count.
    pub default_steps: usize,
}

impl Skeleton {
    /// Expand into a schedule for `ranks` ranks.
    pub fn build(&self, ranks: usize, cfg: &WorkloadConfig) -> Schedule {
        let steps = cfg.effective_steps(self.default_steps);
        let mut jitter: Vec<Rng64> = (0..ranks)
            .map(|r| Rng64::substream(cfg.seed, r as u64))
            .collect();
        let (b, _, _) = self.expand(ranks, cfg, steps, |r, _, _| {
            self.compute_per_step.mul_f64(jitter[r].jitter(JITTER))
        });
        b.build()
    }

    /// Steps after which the step structure repeats: the least common
    /// multiple of the halo and collective cadences.
    pub fn period(&self) -> usize {
        let halo = self.halo_every.max(1);
        match self.collective {
            Some(c) => lcm(halo, c.every.max(1)),
            None => halo,
        }
    }

    /// Expand into one [`period`](Skeleton::period) of the schedule
    /// [`build`](Skeleton::build) makes: the step loop runs over the
    /// first `min(period, steps)` steps, and the compute jitter of every
    /// step goes to a side table. Expanding the result repetition by
    /// repetition (see [`cesim_goal::periodic`]) gives `build`'s schedule
    /// op for op.
    pub fn build_periodic(&self, ranks: usize, cfg: &WorkloadConfig) -> PeriodicSchedule {
        let steps = cfg.effective_steps(self.default_steps);
        let period = self.period();
        let body_steps = period.min(steps);
        let reps = steps.div_ceil(period);
        let last_steps = steps - (reps - 1) * period;
        // Compute durations of every (rank, step), rank-major: the draws
        // `build` makes, one stream per rank.
        let mut durs = Vec::with_capacity(ranks * steps);
        for r in 0..ranks {
            let mut jitter = Rng64::substream(cfg.seed, r as u64);
            durs.extend((0..steps).map(|_| self.compute_per_step.mul_f64(jitter.jitter(JITTER))));
        }
        // Step-major: the compute calc of (rank r, step s) is entry
        // `s * ranks + r`.
        let mut series = Vec::with_capacity(ranks * body_steps);
        let (b, carry, tags) = self.expand(ranks, cfg, body_steps, |r, step, op| {
            let base = u32::try_from(r * steps + step).expect("jitter table exceeds u32");
            series.push((Rank::from(r), op, base));
            durs[base as usize]
        });
        let template = b.build();
        let per_rank = (0..ranks)
            .map(|r| {
                // Each step opens with its compute calc, so the head is
                // what precedes step 0's and a cut-short repetition ends
                // where step `last_steps`'s would start.
                let head = series[r].1 .0;
                let last = match series.get(last_steps * ranks + r) {
                    Some(&(_, op, _)) => op.0 - head,
                    None => template.ranks[r].ops.len() as u32 - head,
                };
                RankPeriod {
                    head,
                    entry: OpId(head - 1),
                    carry: carry[r],
                    last,
                }
            })
            .collect();
        PeriodicSchedule {
            template,
            period: Period {
                ranks: per_rank,
                reps: u32::try_from(reps).expect("repetition count exceeds u32"),
                p2p_tag_stride: u32::try_from(2 * period).expect("halo tag space exhausted"),
                collective_tag_stride: tags.drawn(),
                durs,
                dur_stride: period as u32,
                series,
            },
        }
    }

    /// The step loop over `steps` steps, each rank's step opening with a
    /// compute calc of `compute(rank, step, op)`, where `op` is the id
    /// that calc gets. Returns the builder, each rank's last op, and the
    /// tags the collectives drew.
    fn expand(
        &self,
        ranks: usize,
        cfg: &WorkloadConfig,
        steps: usize,
        mut compute: impl FnMut(usize, usize, OpId) -> Span,
    ) -> (ScheduleBuilder, Vec<OpId>, TagPool) {
        assert!(ranks > 0, "need at least one rank");
        assert!((2..=4).contains(&self.dims), "unsupported dimensionality");
        let grid = Grid::balanced(ranks, self.dims);
        let max_order = self.halo.iter().map(|h| h.order).max().unwrap_or(0);
        let offs = if max_order > 0 {
            offsets(self.dims, max_order)
        } else {
            Vec::new()
        };
        // Pre-resolve bytes per offset (None = class not exchanged).
        let bytes_of: Vec<Option<u64>> = offs
            .iter()
            .map(|o| {
                let k = order(o);
                self.halo.iter().find(|h| h.order == k).map(|h| h.bytes)
            })
            .collect();

        let mut b = ScheduleBuilder::new(ranks);
        let mut tags = TagPool::new();
        let costs = CollectiveCosts::default();

        // Start node per rank.
        let mut cur: Vec<OpId> = (0..ranks).map(|r| b.join(Rank::from(r), &[])).collect();

        for step in 0..steps {
            // Compute phase.
            for r in 0..ranks {
                let rank = Rank::from(r);
                let dur = compute(r, step, OpId(b.ops_on(rank) as u32));
                cur[r] = b.calc(rank, dur, &[cur[r]]);
            }
            // Halo phase(s). Tags: two per step (forward/reverse), far
            // below the collective tag base.
            if step % self.halo_every.max(1) == 0 {
                let phases = if self.reverse_comm { 2 } else { 1 };
                for phase in 0..phases {
                    let tag = Tag((step * 2 + phase) as u32);
                    halo_phase(&mut b, &grid, &offs, &bytes_of, tag, &mut cur);
                }
            }
            // Collective phase.
            if let Some(c) = self.collective {
                if step % c.every.max(1) == 0 {
                    for _ in 0..c.per_occurrence {
                        cur =
                            allreduce(&mut b, &mut tags, cfg.allreduce_algo, c.bytes, &costs, &cur);
                    }
                }
            }
        }
        (b, cur, tags)
    }

    /// Nominal step count × compute per step: the serial-compute lower
    /// bound on the baseline runtime (useful for sizing experiments).
    pub fn nominal_compute(&self, cfg: &WorkloadConfig) -> Span {
        let steps = cfg.effective_steps(self.default_steps) as u64;
        self.compute_per_step * steps
    }
}

fn lcm(a: usize, b: usize) -> usize {
    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    a / gcd(a, b) * b
}

/// One halo exchange: every rank sends to / receives from each stencil
/// neighbor, then joins. Offsets that wrap onto the rank itself (extent-1
/// dimensions) are skipped on both sides.
fn halo_phase(
    b: &mut ScheduleBuilder,
    grid: &Grid,
    offs: &[Vec<i64>],
    bytes_of: &[Option<u64>],
    tag: Tag,
    cur: &mut [OpId],
) {
    if offs.is_empty() {
        return;
    }
    let ranks = grid.len();
    for r in 0..ranks {
        let rank = Rank::from(r);
        let mut parts = Vec::with_capacity(offs.len() * 2 + 1);
        parts.push(cur[r]);
        for (o, bytes) in offs.iter().zip(bytes_of) {
            let Some(bytes) = *bytes else { continue };
            let nb = grid.neighbor(r, o);
            if nb == r {
                continue;
            }
            parts.push(b.send(rank, Rank::from(nb), bytes, tag, &[cur[r]]));
            parts.push(b.recv(rank, Some(Rank::from(nb)), bytes, tag, &[cur[r]]));
        }
        cur[r] = b.join(rank, &parts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Skeleton {
        Skeleton {
            name: "toy",
            dims: 3,
            halo: vec![
                HaloClass {
                    order: 1,
                    bytes: 1024,
                },
                HaloClass {
                    order: 2,
                    bytes: 128,
                },
            ],
            reverse_comm: false,
            halo_every: 1,
            compute_per_step: Span::from_ms(1),
            collective: Some(CollectivePlan {
                every: 1,
                per_occurrence: 2,
                bytes: 8,
            }),
            default_steps: 4,
        }
    }

    #[test]
    fn builds_and_validates() {
        let s = toy().build(27, &WorkloadConfig::default());
        s.validate().unwrap();
        assert_eq!(s.num_ranks(), 27);
    }

    #[test]
    fn halo_send_counts() {
        // 27 ranks = 3x3x3 periodic: every rank has 6 face + 12 edge
        // neighbors, all distinct, 4 steps.
        let s = toy().build(27, &WorkloadConfig::default());
        let st = s.stats();
        let halo_sends = 27 * (6 + 12) * 4;
        // Allreduce on 27 ranks: m = 16, rem = 11 → 16*4 + 2*11 = 86 sends,
        // twice per step.
        let coll_sends = 86 * 2 * 4;
        assert_eq!(st.sends, (halo_sends + coll_sends) as u64);
    }

    #[test]
    fn reverse_comm_doubles_halo() {
        let mut sk = toy();
        sk.collective = None;
        let fwd = sk.build(8, &WorkloadConfig::default()).stats().sends;
        sk.reverse_comm = true;
        let both = sk.build(8, &WorkloadConfig::default()).stats().sends;
        assert_eq!(both, fwd * 2);
    }

    #[test]
    fn single_rank_degenerates_gracefully() {
        let s = toy().build(1, &WorkloadConfig::default());
        s.validate().unwrap();
        assert_eq!(s.stats().sends, 0);
        assert!(s.stats().calcs > 0);
    }

    #[test]
    fn two_ranks_skip_duplicate_wraps_consistently() {
        // 2x1x1 grid: every offset with a non-zero x component reaches
        // the other rank (the +x/-x wrap coincide); offsets confined to
        // the extent-1 dimensions wrap to self and are skipped. Order <= 2
        // offsets with x != 0: 2 faces + 8 edges = 10 per rank.
        let mut sk = toy();
        sk.collective = None;
        let s = sk.build(2, &WorkloadConfig::default().with_steps(1));
        s.validate().unwrap();
        assert_eq!(s.stats().sends, 20);
    }

    #[test]
    fn jitter_varies_compute_but_determinism_holds() {
        let cfg = WorkloadConfig::default();
        let a = toy().build(8, &cfg);
        let b = toy().build(8, &cfg);
        assert_eq!(a, b, "same seed must give identical schedules");
        let c = toy().build(8, &cfg.with_seed(1));
        assert_ne!(a, c, "different seed should perturb compute jitter");
    }

    #[test]
    fn nominal_compute_math() {
        let sk = toy();
        let cfg = WorkloadConfig::default();
        assert_eq!(sk.nominal_compute(&cfg), Span::from_ms(4));
    }

    #[test]
    fn period_is_the_lcm_of_the_cadences() {
        let mut sk = toy();
        assert_eq!(sk.period(), 1);
        sk.halo_every = 4;
        sk.collective = Some(CollectivePlan {
            every: 6,
            per_occurrence: 1,
            bytes: 8,
        });
        assert_eq!(sk.period(), 12);
        sk.collective = None;
        assert_eq!(sk.period(), 4);
    }

    #[test]
    fn periodic_build_holds_one_period() {
        let mut sk = toy();
        sk.halo_every = 2;
        let cfg = WorkloadConfig::default().with_steps(7);
        let full = sk.build(8, &cfg);
        let ps = sk.build_periodic(8, &cfg);
        let p = &ps.period;
        // Period 2: three full repetitions and one cut to a single step.
        assert_eq!(p.reps, 4);
        assert_eq!(p.durs.len(), 8 * 7);
        assert_eq!(p.series.len(), 8 * 2);
        assert_eq!(p.p2p_tag_stride, 4);
        for (r, rp) in p.ranks.iter().enumerate() {
            let ops = ps.template.ranks[r].ops.len() as u32;
            let body = ops - rp.head;
            assert_eq!(rp.head, 1);
            assert_eq!(rp.carry.0, ops - 1, "the carry is the period's last op");
            assert!(rp.last < body);
            assert_eq!(
                full.ranks[r].ops.len() as u32,
                rp.head + 3 * body + rp.last,
                "rank {r}"
            );
            // The first repetition is the full build's first period.
            assert_eq!(
                ps.template.ranks[r].ops[..],
                full.ranks[r].ops[..ops as usize]
            );
        }
    }

    #[test]
    fn collective_every_k() {
        let mut sk = toy();
        sk.halo.clear();
        sk.collective = Some(CollectivePlan {
            every: 3,
            per_occurrence: 1,
            bytes: 8,
        });
        sk.default_steps = 7;
        // Occurrences at steps 0, 3, 6 → 3 allreduces on 4 ranks = 3*4*2 sends.
        let s = sk.build(4, &WorkloadConfig::default());
        assert_eq!(s.stats().sends, 24);
    }
}
