//! The noise-injection interface.
//!
//! The engine funnels **every** interval of CPU work through
//! [`NoiseModel::stretch`]. An implementation may extend the interval by
//! inserting detours (CE handling, OS jitter, …). The CE detour model
//! itself lives in `cesim-noise`; the engine only defines the contract:
//!
//! * calls for a given rank have non-decreasing `start` values (the
//!   engine's per-rank CPU cursor guarantees this), so implementations can
//!   keep per-rank cursors of their own;
//! * `stretch` must return `>= start + work` — noise can only delay.
//!
//! A model may also say, without consuming anything, when a rank's next
//! detour can fire ([`NoiseModel::next_arrival`]); the baseline fork
//! tables (`crate::fork`) use that to stop simulating a replica once the
//! rest of its run is the noise-free baseline shifted in time.

use cesim_goal::Rank;
use cesim_model::{Span, Time};

/// Injects CPU detours into the simulation.
pub trait NoiseModel {
    /// A CPU interval on `rank` begins at `start` and needs `work` of
    /// useful computation. Return the time at which the work completes,
    /// including any injected detours.
    fn stretch(&mut self, rank: Rank, start: Time, work: Span) -> Time;

    /// Total detour events injected so far (for reporting).
    fn events_injected(&self) -> u64 {
        0
    }

    /// The first arrival on `rank` at or after `at`, without consuming
    /// it: `Some(Time::MAX)` if no detour will ever fire on `rank` again,
    /// `None` (the default) if the model cannot tell.
    ///
    /// An answer `a` promises that every later call for `rank` that starts
    /// at or after `at` returns `start + work`, and leaves the answers of
    /// all later calls unchanged, when its work is zero or its interval
    /// ends strictly before `a`. Arrivals before `at` that are still
    /// pending and would fire on such an interval count as arriving at
    /// `at`.
    fn next_arrival(&self, _rank: Rank, _at: Time) -> Option<Time> {
        None
    }
}

/// The identity model: no noise, CPU intervals take exactly their work.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoNoise;

impl NoiseModel for NoNoise {
    #[inline]
    fn stretch(&mut self, _rank: Rank, start: Time, work: Span) -> Time {
        start + work
    }

    fn next_arrival(&self, _rank: Rank, _at: Time) -> Option<Time> {
        Some(Time::MAX)
    }
}

/// A deterministic test model: a fixed list of `(rank, at, detour)`
/// triples; each detour is inserted into the first non-zero-work CPU
/// interval on that rank that covers (or follows) `at`. Useful for
/// reproducing the paper's Fig. 1 hand-example and for unit tests.
///
/// Detours are grouped per rank at construction and consumed through a
/// monotone cursor: `stretch` only ever advances past detours it injects,
/// so each call is O(detours injected) rather than a rescan of the whole
/// script (the previous implementation `Vec::remove`d out of one flat
/// list, O(script length) per CPU interval).
#[derive(Clone, Debug, Default)]
pub struct ScriptedNoise {
    /// Per-rank scripts; ranks are sparse, so a map rather than a Vec.
    scripts: std::collections::HashMap<Rank, RankScript>,
    injected: u64,
}

/// One rank's detours, time-sorted, with the next-unapplied cursor.
#[derive(Clone, Debug, Default)]
struct RankScript {
    /// `(at, detour)` pairs sorted by `at` (stable, preserving input
    /// order among equal times).
    detours: Vec<(Time, Span)>,
    /// Index of the first detour not yet injected.
    cursor: usize,
}

impl ScriptedNoise {
    /// Build from `(rank, at, detour)` triples.
    pub fn new(detours: Vec<(Rank, Time, Span)>) -> Self {
        let mut scripts: std::collections::HashMap<Rank, RankScript> =
            std::collections::HashMap::new();
        for (r, t, d) in detours {
            scripts.entry(r).or_default().detours.push((t, d));
        }
        for script in scripts.values_mut() {
            // Stable: equal-time detours keep their scripted order.
            script.detours.sort_by_key(|&(t, _)| t);
        }
        ScriptedNoise {
            scripts,
            injected: 0,
        }
    }
}

impl NoiseModel for ScriptedNoise {
    fn stretch(&mut self, rank: Rank, start: Time, work: Span) -> Time {
        let mut end = start + work;
        if work.is_zero() {
            return end;
        }
        // Inject every not-yet-applied detour due by `end`; each injection
        // extends the interval, which may pull in further detours
        // (cascading, same as the original scan-until-fixpoint).
        if let Some(script) = self.scripts.get_mut(&rank) {
            while let Some(&(at, d)) = script.detours.get(script.cursor) {
                if at > end {
                    break;
                }
                end += d;
                script.cursor += 1;
                self.injected += 1;
            }
        }
        end
    }

    fn events_injected(&self) -> u64 {
        self.injected
    }

    /// The rank's next detour not yet injected, or `at` if that one is
    /// already due: it fires on the next non-zero-work interval.
    fn next_arrival(&self, rank: Rank, at: Time) -> Option<Time> {
        let pending = self
            .scripts
            .get(&rank)
            .and_then(|s| s.detours.get(s.cursor));
        Some(pending.map_or(Time::MAX, |&(t, _)| t.max(at)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_noise_is_identity() {
        let mut n = NoNoise;
        let t = n.stretch(Rank(0), Time::from_ps(100), Span::from_ps(50));
        assert_eq!(t, Time::from_ps(150));
        assert_eq!(n.events_injected(), 0);
    }

    #[test]
    fn scripted_noise_applies_in_window() {
        let mut n = ScriptedNoise::new(vec![
            (Rank(0), Time::from_ps(10), Span::from_ps(5)),
            (Rank(1), Time::from_ps(0), Span::from_ps(100)),
        ]);
        // Rank 0 interval [0, 20) covers t=10: stretched by 5.
        let end = n.stretch(Rank(0), Time::ZERO, Span::from_ps(20));
        assert_eq!(end, Time::from_ps(25));
        // Rank 0 has no more detours.
        let end = n.stretch(Rank(0), end, Span::from_ps(20));
        assert_eq!(end, Time::from_ps(45));
        // Rank 1's detour applies to its first interval.
        let end = n.stretch(Rank(1), Time::from_ps(7), Span::from_ps(3));
        assert_eq!(end, Time::from_ps(110));
        assert_eq!(n.events_injected(), 2);
    }

    #[test]
    fn scripted_noise_defers_future_detours() {
        let mut n = ScriptedNoise::new(vec![(Rank(0), Time::from_ps(1_000), Span::from_ps(7))]);
        // Interval ends before the detour is due: unchanged.
        let end = n.stretch(Rank(0), Time::ZERO, Span::from_ps(10));
        assert_eq!(end, Time::from_ps(10));
        // A later interval that covers it picks it up.
        let end = n.stretch(Rank(0), Time::from_ps(995), Span::from_ps(10));
        assert_eq!(end, Time::from_ps(1_012));
    }

    #[test]
    fn scripted_noise_peeks_without_consuming_and_skips_zero_work() {
        let mut n = ScriptedNoise::new(vec![(Rank(0), Time::from_ps(100), Span::from_ps(7))]);
        assert_eq!(
            n.next_arrival(Rank(0), Time::ZERO),
            Some(Time::from_ps(100))
        );
        assert_eq!(
            n.next_arrival(Rank(0), Time::from_ps(150)),
            Some(Time::from_ps(150))
        );
        assert_eq!(n.next_arrival(Rank(1), Time::ZERO), Some(Time::MAX));
        // A zero-work interval past the detour leaves it pending.
        assert_eq!(
            n.stretch(Rank(0), Time::from_ps(120), Span::ZERO),
            Time::from_ps(120)
        );
        assert_eq!(
            n.stretch(Rank(0), Time::from_ps(120), Span::from_ps(1)),
            Time::from_ps(128)
        );
        assert_eq!(n.next_arrival(Rank(0), Time::ZERO), Some(Time::MAX));
        assert_eq!(NoNoise.next_arrival(Rank(0), Time::ZERO), Some(Time::MAX));
    }
}
