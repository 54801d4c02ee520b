//! Replaying a measured detour trace as simulation noise.
//!
//! The paper's methodology is two-phase: *measure* per-event CE handling
//! costs with `selfish` on real hardware (§IV-A), then *inject* those
//! costs into the simulator. [`TraceNoise`] closes the loop inside this
//! repository: any [`DetourTrace`] — including the synthesized Fig. 2
//! signatures — can be replayed verbatim onto a simulated rank, instead
//! of going through the Poisson abstraction.
//!
//! Semantics match the CE process of [`crate::ce`]: detours that fall inside a busy
//! CPU interval stretch it; detours that fall while the rank is blocked
//! are absorbed by idle time.

use crate::selfish::DetourTrace;
use cesim_engine::NoiseModel;
use cesim_goal::Rank;
use cesim_model::{Span, Time};

/// Replays recorded detours onto one rank (or all ranks, each with its
/// own copy of the trace).
#[derive(Clone, Debug)]
pub struct TraceNoise {
    /// `(at, dur)` pairs sorted by time.
    detours: Vec<(Time, Span)>,
    /// Per-rank cursor into `detours`.
    cursor: Vec<usize>,
    /// `None` = apply to every rank; `Some(r)` = only rank `r`.
    target: Option<Rank>,
    injected: u64,
}

impl TraceNoise {
    /// Replay `trace` on every rank (each rank sees the same detour
    /// timeline — a worst-case "synchronized noise" configuration).
    pub fn all_ranks(nranks: usize, trace: &DetourTrace) -> Self {
        Self::build(nranks, trace, None)
    }

    /// Replay `trace` on a single rank (the Fig. 3 single-node scenario
    /// with measured rather than synthetic arrivals).
    pub fn single_rank(nranks: usize, rank: Rank, trace: &DetourTrace) -> Self {
        assert!(rank.idx() < nranks, "target rank out of range");
        Self::build(nranks, trace, Some(rank))
    }

    fn build(nranks: usize, trace: &DetourTrace, target: Option<Rank>) -> Self {
        assert!(nranks > 0);
        let mut detours: Vec<(Time, Span)> = trace.detours.iter().map(|d| (d.at, d.dur)).collect();
        detours.sort_by_key(|&(at, _)| at);
        TraceNoise {
            detours,
            cursor: vec![0; nranks],
            target,
            injected: 0,
        }
    }

    /// Detours remaining un-replayed for `rank` (diagnostics).
    pub fn remaining(&self, rank: Rank) -> usize {
        self.detours.len() - self.cursor[rank.idx()]
    }
}

impl NoiseModel for TraceNoise {
    fn stretch(&mut self, rank: Rank, start: Time, work: Span) -> Time {
        if self.target.is_some_and(|t| t != rank) || work.is_zero() {
            return start + work;
        }
        let i = rank.idx();
        let c = &mut self.cursor[i];
        // Absorb idle-time detours.
        while *c < self.detours.len() && self.detours[*c].0 < start {
            *c += 1;
        }
        let mut t = start;
        let mut remaining = work;
        while *c < self.detours.len() {
            let (at, dur) = self.detours[*c];
            if at > t + remaining {
                break;
            }
            if at > t {
                remaining -= at - t;
                t = at;
            }
            t += dur;
            *c += 1;
            self.injected += 1;
        }
        t + remaining
    }

    fn events_injected(&self) -> u64 {
        self.injected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selfish::Detour;

    fn trace(pairs: &[(u64, u64)]) -> DetourTrace {
        DetourTrace::new(
            Span::from_secs(1_000),
            Span::ZERO,
            pairs
                .iter()
                .map(|&(at, dur)| Detour {
                    at: Time::from_ps(at),
                    dur: Span::from_ps(dur),
                })
                .collect(),
        )
    }

    #[test]
    fn detours_inside_intervals_apply() {
        let t = trace(&[(100, 10), (150, 20)]);
        let mut n = TraceNoise::all_ranks(1, &t);
        // Interval [50, 250): both detours hit.
        let end = n.stretch(Rank(0), Time::from_ps(50), Span::from_ps(200));
        assert_eq!(end, Time::from_ps(280));
        assert_eq!(n.events_injected(), 2);
        assert_eq!(n.remaining(Rank(0)), 0);
    }

    #[test]
    fn idle_detours_absorbed() {
        let t = trace(&[(100, 999)]);
        let mut n = TraceNoise::all_ranks(1, &t);
        // Interval starts at 200: the detour at 100 happened during idle.
        let end = n.stretch(Rank(0), Time::from_ps(200), Span::from_ps(50));
        assert_eq!(end, Time::from_ps(250));
        assert_eq!(n.events_injected(), 0);
        assert_eq!(n.remaining(Rank(0)), 0);
    }

    #[test]
    fn cascading_detours_during_handling() {
        // Second detour lands while the first is being handled: both apply
        // back-to-back.
        let t = trace(&[(10, 100), (50, 7)]);
        let mut n = TraceNoise::all_ranks(1, &t);
        // 10 ps work, +100 detour, +7 queued detour, 10 ps work left.
        let end = n.stretch(Rank(0), Time::ZERO, Span::from_ps(20));
        assert_eq!(end, Time::from_ps(127));
        assert_eq!(n.events_injected(), 2);
    }

    #[test]
    fn single_rank_targeting() {
        let t = trace(&[(0, 50)]);
        let mut n = TraceNoise::single_rank(3, Rank(1), &t);
        assert_eq!(
            n.stretch(Rank(0), Time::ZERO, Span::from_ps(10)),
            Time::from_ps(10)
        );
        assert_eq!(
            n.stretch(Rank(1), Time::ZERO, Span::from_ps(10)),
            Time::from_ps(60)
        );
        assert_eq!(n.remaining(Rank(2)), 1, "untouched rank keeps its cursor");
    }

    #[test]
    fn each_rank_has_its_own_cursor() {
        let t = trace(&[(5, 10)]);
        let mut n = TraceNoise::all_ranks(2, &t);
        let a = n.stretch(Rank(0), Time::ZERO, Span::from_ps(20));
        let b = n.stretch(Rank(1), Time::ZERO, Span::from_ps(20));
        assert_eq!(a, b);
        assert_eq!(n.events_injected(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_target_rejected() {
        TraceNoise::single_rank(2, Rank(5), &trace(&[]));
    }
}
