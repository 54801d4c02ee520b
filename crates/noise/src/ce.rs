//! The correctable-error noise model: one per-rank Poisson process.
//!
//! §III-D of the paper: *"Our extension programmatically injects detours
//! that represent correctable errors. The timing of each simulated
//! correctable error is determined statistically using random numbers
//! drawn from an exponential distribution [whose mean is] the mean time
//! between correctable errors. The duration of the detour is determined by
//! the amount of time required to recover from a correctable error."*
//!
//! Every rank owns an independent exponential arrival stream with its own
//! mean inter-arrival time and per-event detour, set by the constructors:
//!
//! * [`CeNoise::new`] — the paper's setting: one MTBCE and one detour on
//!   every rank (Figs. 4–7) or on a single rank (Fig. 3).
//! * [`CeNoise::per_rank`] — a rate and a detour per rank, the substrate
//!   of the fleet engine (`cesim-fleet`): real fleets are skewed, a few
//!   faulty DIMMs producing most CEs (arXiv 2408.15302), and operators
//!   change a *node's* logging mode, not the whole machine's.
//! * [`CeNoise::bursty`] — a two-state Markov-modulated rate: CE
//!   "avalanches" separated by long quiet periods (Meza et al. DSN'15;
//!   Gottscho et al.), an extension beyond the paper for checking that its
//!   conclusions survive arrival clustering.
//!
//! Because the model is driven by the engine's CPU intervals as simulated
//! time advances, time lost to detours itself accrues further CE arrivals
//! — the feedback that makes high rates with expensive logging collapse
//! (the paper's "unable to make any reasonable forward progress" regime).
//!
//! CE arrivals that fall while the rank is blocked on a message are
//! absorbed by the idle time (see [`CeNoise::stretch`]).

use cesim_engine::NoiseModel;
use cesim_goal::Rank;
use cesim_model::rng::Rng64;
use cesim_model::{Span, Time};

/// Which ranks receive CE detours.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Every rank experiences CEs at the same rate (Figs. 4–7).
    AllRanks,
    /// Only one rank experiences CEs (Fig. 3's single-process study).
    SingleRank(Rank),
}

/// One rank's CE process parameters: the MTBCE of the node hosting the
/// rank and the per-event detour of that node's logging mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankCeParams {
    /// Mean time between correctable errors on this rank's node.
    pub mtbce: Span,
    /// CPU detour per correctable error (the node's logging-mode cost).
    pub detour: Span,
}

/// Parameters of the two-state burst modulation: quiet and burst phases
/// of exponentially distributed length, each with its own CE rate.
#[derive(Clone, Copy, Debug)]
pub struct BurstSpec {
    /// Mean time between CEs while quiet.
    pub quiet_mtbce: Span,
    /// Mean time between CEs while bursting (≪ `quiet_mtbce`).
    pub burst_mtbce: Span,
    /// Mean duration of a quiet period.
    pub mean_quiet: Span,
    /// Mean duration of a burst.
    pub mean_burst: Span,
}

impl BurstSpec {
    /// The long-run average CE rate (events/second) of the process.
    pub fn average_rate(&self) -> f64 {
        let q = self.mean_quiet.as_secs_f64();
        let b = self.mean_burst.as_secs_f64();
        let rq = 1.0 / self.quiet_mtbce.as_secs_f64();
        let rb = 1.0 / self.burst_mtbce.as_secs_f64();
        (q * rq + b * rb) / (q + b)
    }

    /// The equivalent memoryless MTBCE (for comparing against
    /// [`CeNoise::new`] at matched average rates).
    pub fn equivalent_mtbce(&self) -> Span {
        Span::from_secs_f64(1.0 / self.average_rate())
    }

    /// The phase's `(mean time between CEs, mean phase duration)`.
    fn phase(&self, bursting: bool) -> (Span, Span) {
        if bursting {
            (self.burst_mtbce, self.mean_burst)
        } else {
            (self.quiet_mtbce, self.mean_quiet)
        }
    }
}

/// Floors every step but a plain rank's first: a zero step would stall.
const MIN_STEP: Span = Span::from_ps(1);

/// One rank's arrival process (64 bytes).
#[derive(Clone, Debug)]
struct RankProcess {
    /// Next pending CE arrival (simulated time).
    next: Time,
    rng: Rng64,
    /// Mean time between CEs (the current phase's, when bursty).
    mtbce: Span,
    detour: Span,
    /// CE detours injected into this rank so far.
    events: u64,
}

impl RankProcess {
    /// Move the pending arrival (of rank `i`) to the next one strictly
    /// after it.
    #[inline]
    fn advance(&mut self, bursts: Option<&mut Bursts>, i: usize) {
        match bursts {
            None => self.next += self.rng.exp_span(self.mtbce).max(MIN_STEP),
            Some(b) => self.advance_bursty(&b.spec, &mut b.phases[i]),
        }
    }

    /// Steps through phase boundaries, re-drawing from each at the new
    /// phase's rate (exact: the exponential is memoryless). Kept out of
    /// line so that the plain path's stretch loop stays small.
    #[inline(never)]
    fn advance_bursty(&mut self, spec: &BurstSpec, phase: &mut (bool, Time)) {
        let (bursting, end) = phase;
        let mut t = self.next;
        loop {
            let candidate = t + self.rng.exp_span(self.mtbce).max(MIN_STEP);
            if candidate <= *end {
                self.next = candidate;
                return;
            }
            t = *end;
            *bursting = !*bursting;
            let (mtbce, duration) = spec.phase(*bursting);
            self.mtbce = mtbce;
            *end = t + self.rng.exp_span(duration).max(MIN_STEP);
        }
    }
}

/// Burst modulation of every rank: the shared spec plus, per rank,
/// whether it is bursting and when its current phase ends.
#[derive(Clone, Debug)]
struct Bursts {
    spec: BurstSpec,
    phases: Vec<(bool, Time)>,
}

/// Poisson CE arrivals with a per-rank rate and detour, optionally burst-modulated.
#[derive(Clone, Debug)]
pub struct CeNoise {
    ranks: Vec<RankProcess>,
    scope: Scope,
    bursts: Option<Bursts>,
}

impl CeNoise {
    /// A CE process for `nranks` ranks with mean inter-arrival `mtbce`,
    /// per-event cost `detour`, the given `scope`, seeded deterministically
    /// from `seed` (each rank gets an independent substream).
    pub fn new(nranks: usize, mtbce: Span, detour: Span, scope: Scope, seed: u64) -> Self {
        if let Scope::SingleRank(r) = scope {
            assert!(r.idx() < nranks, "scoped rank {r} out of range");
        }
        let params = RankCeParams { mtbce, detour };
        Self::poisson((0..nranks).map(|_| params), scope, seed)
    }

    /// A CE process with one [`RankCeParams`] per rank. Rank `r` draws from
    /// the same substream as under [`CeNoise::new`], whatever the other
    /// ranks' parameters.
    pub fn per_rank(params: Vec<RankCeParams>, seed: u64) -> Self {
        Self::poisson(params.into_iter(), Scope::AllRanks, seed)
    }

    fn poisson(params: impl Iterator<Item = RankCeParams>, scope: Scope, seed: u64) -> Self {
        let ranks: Vec<RankProcess> = params
            .enumerate()
            .map(|(r, p)| {
                assert!(!p.mtbce.is_zero(), "rank {r}: MTBCE must be positive");
                let mut rng = Rng64::substream(seed, r as u64);
                RankProcess {
                    next: Time::ZERO + rng.exp_span(p.mtbce),
                    rng,
                    mtbce: p.mtbce,
                    detour: p.detour,
                    events: 0,
                }
            })
            .collect();
        assert!(!ranks.is_empty(), "need at least one rank");
        CeNoise {
            ranks,
            scope,
            bursts: None,
        }
    }

    /// A burst-modulated CE process on every rank, each starting in a
    /// quiet phase, with per-event cost `detour`.
    pub fn bursty(nranks: usize, spec: BurstSpec, detour: Span, seed: u64) -> Self {
        let s = spec;
        assert!(
            ![s.quiet_mtbce, s.burst_mtbce, s.mean_quiet, s.mean_burst].contains(&Span::ZERO),
            "burst MTBCEs and durations must be positive"
        );
        assert!(nranks > 0, "need at least one rank");
        let mut phases = Vec::with_capacity(nranks);
        let mut ranks: Vec<RankProcess> = (0..nranks)
            .map(|r| {
                let mut rng = Rng64::substream(seed ^ 0xB057, r as u64);
                // The first phase's end is drawn before the first arrival.
                phases.push((false, Time::ZERO + rng.exp_span(spec.mean_quiet)));
                RankProcess {
                    next: Time::ZERO,
                    rng,
                    mtbce: spec.quiet_mtbce,
                    detour,
                    events: 0,
                }
            })
            .collect();
        let mut bursts = Bursts { spec, phases };
        for (i, p) in ranks.iter_mut().enumerate() {
            // Unlike a plain rank's, the first arrival is floored.
            p.advance(Some(&mut bursts), i);
        }
        CeNoise {
            ranks,
            scope: Scope::AllRanks,
            bursts: Some(bursts),
        }
    }

    /// CE detours injected into each rank so far (indexed by rank).
    pub fn per_rank_events(&self) -> Vec<u64> {
        self.ranks.iter().map(|p| p.events).collect()
    }

    /// The earliest pending CE arrival among the ranks that receive
    /// detours: the scoped rank under [`Scope::SingleRank`], else every
    /// rank. A run whose CPU intervals all end strictly before this time
    /// takes no detour and draws nothing (see `stretch`), so it is
    /// exactly the noise-free run.
    pub fn first_arrival(&self) -> Time {
        match self.scope {
            Scope::SingleRank(r) => self.ranks[r.idx()].next,
            Scope::AllRanks => self
                .ranks
                .iter()
                .map(|p| p.next)
                .min()
                .expect("ranks are non-empty"),
        }
    }

    /// The largest per-rank utilization `detour / mtbce` (for a bursty
    /// process, at the current phases' rates). Drivers should treat
    /// configurations at or above ~0.95 as "no forward progress" rather
    /// than simulating them (see `cesim_core::experiment::DIVERGENCE_LIMIT`).
    pub fn max_utilization(&self) -> f64 {
        self.ranks
            .iter()
            .map(|p| p.detour.as_secs_f64() / p.mtbce.as_secs_f64())
            .fold(0.0, f64::max)
    }
}

impl NoiseModel for CeNoise {
    fn stretch(&mut self, rank: Rank, start: Time, work: Span) -> Time {
        let untargeted = matches!(self.scope, Scope::SingleRank(r) if r != rank);
        if untargeted || work.is_zero() {
            return start + work;
        }
        let i = rank.idx();
        let p = &mut self.ranks[i];
        // CE arrivals that fell before this interval began occurred while
        // the rank was blocked (waiting on a message): the interrupt was
        // handled during idle time and stole no application CPU. Advance
        // the process past them without injecting detours — the same
        // semantics as LogGOPSim's noise injection, which only stretches
        // *active* intervals.
        while p.next < start {
            p.advance(self.bursts.as_mut(), i);
        }
        let detour = p.detour;
        let mut t = start;
        let mut remaining = work;
        loop {
            let arrival = p.next;
            if arrival > t + remaining {
                break;
            }
            if arrival > t {
                // Work progresses until the CE fires.
                remaining -= arrival - t;
                t = arrival;
            }
            // Handle the CE. Arrivals that land while a previous detour is
            // still being handled (arrival <= t) queue up and are processed
            // back-to-back: the CPU is busy, so they do steal time.
            t += detour;
            p.events += 1;
            p.advance(self.bursts.as_mut(), i);
        }
        t + remaining
    }

    fn events_injected(&self) -> u64 {
        self.ranks.iter().map(|p| p.events).sum()
    }

    /// Draws on a copy of the rank's process, so nothing is consumed.
    /// `stretch` skips arrivals before an interval's start and fires
    /// none past its end, which is the contract's promise.
    fn next_arrival(&self, rank: Rank, at: Time) -> Option<Time> {
        if matches!(self.scope, Scope::SingleRank(r) if r != rank) {
            return Some(Time::MAX);
        }
        let i = rank.idx();
        let mut p = self.ranks[i].clone();
        let mut phase = self.bursts.as_ref().map(|b| (&b.spec, b.phases[i]));
        while p.next < at {
            match &mut phase {
                None => p.advance(None, i),
                Some((spec, phase)) => p.advance_bursty(spec, phase),
            }
        }
        Some(p.next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(mtbce: Span, detour: Span) -> RankCeParams {
        RankCeParams { mtbce, detour }
    }

    /// A clustered process: ~9.18 CEs/s on average, mostly in bursts.
    fn spec() -> BurstSpec {
        BurstSpec {
            quiet_mtbce: Span::from_secs(10),
            burst_mtbce: Span::from_ms(10),
            mean_quiet: Span::from_secs(5),
            mean_burst: Span::from_ms(500),
        }
    }

    /// One two-rank process of each kind, with each rank's detour.
    fn kinds(seed: u64) -> Vec<(&'static str, CeNoise, [Span; 2])> {
        let (mtbce, detour) = (Span::from_ms(2), Span::from_us(100));
        vec![
            (
                "all-rank",
                CeNoise::new(2, mtbce, detour, Scope::AllRanks, seed),
                [detour; 2],
            ),
            (
                "single-rank",
                CeNoise::new(2, mtbce, detour, Scope::SingleRank(Rank(0)), seed),
                [detour; 2],
            ),
            (
                "per-rank",
                CeNoise::per_rank(vec![p(mtbce, detour), p(mtbce, Span::from_ms(1))], seed),
                [detour, Span::from_ms(1)],
            ),
            (
                "bursty",
                CeNoise::bursty(2, spec(), detour, seed),
                [detour; 2],
            ),
        ]
    }

    fn run(n: &mut CeNoise, work: Span) -> (Time, Time, u64) {
        let a = n.stretch(Rank(0), Time::ZERO, work);
        let b = n.stretch(Rank(1), Time::ZERO, work);
        (a, b, n.events_injected())
    }

    #[test]
    fn every_kind_is_deterministic_per_seed() {
        let outcome = |seed, k| {
            let (name, mut n, _) = kinds(seed).swap_remove(k);
            (name, run(&mut n, Span::from_secs(30)))
        };
        for k in 0..kinds(0).len() {
            let (name, first) = outcome(9, k);
            assert_eq!(first, outcome(9, k).1, "{name}");
            assert_ne!(first, outcome(10, k).1, "{name}");
        }
    }

    #[test]
    fn every_kind_steals_detour_times_events() {
        let work = Span::from_secs(30);
        for (name, mut n, detours) in kinds(4) {
            let ends = [
                n.stretch(Rank(0), Time::ZERO, work),
                n.stretch(Rank(1), Time::ZERO, work),
            ];
            let per_rank = n.per_rank_events();
            assert!(per_rank[0] > 0, "{name}: no events");
            for r in 0..2 {
                let stolen = ends[r].since(Time::ZERO + work);
                assert_eq!(stolen, detours[r] * per_rank[r], "{name} rank {r}");
            }
            assert_eq!(n.events_injected(), per_rank.iter().sum::<u64>(), "{name}");
        }
    }

    #[test]
    fn every_kind_passes_zero_work_and_never_shrinks() {
        for (name, mut n, _) in kinds(11) {
            let at = Time::from_ps(123);
            assert_eq!(n.stretch(Rank(0), at, Span::ZERO), at, "{name}");
            let mut t = Time::ZERO;
            for _ in 0..1_000 {
                let w = Span::from_us(170);
                let end = n.stretch(Rank(0), t, w);
                assert!(end >= t + w, "{name}");
                t = end;
            }
        }
    }

    #[test]
    fn every_constructor_rejects_a_zero_rate() {
        type Build = fn() -> CeNoise;
        let builds: [(&str, Build); 3] = [
            ("new", || {
                CeNoise::new(1, Span::ZERO, Span::from_us(1), Scope::AllRanks, 0)
            }),
            ("per_rank", || {
                CeNoise::per_rank(vec![p(Span::ZERO, Span::from_us(1))], 0)
            }),
            ("bursty", || {
                let spec = BurstSpec {
                    quiet_mtbce: Span::ZERO,
                    ..spec()
                };
                CeNoise::bursty(1, spec, Span::from_us(1), 0)
            }),
        ];
        for (name, build) in builds {
            let err = std::panic::catch_unwind(build).expect_err(name);
            let msg = (err.downcast_ref::<String>().map(String::as_str))
                .or(err.downcast_ref::<&str>().copied())
                .expect("panic message");
            assert!(msg.contains("must be positive"), "{name}: {msg}");
        }
    }

    #[test]
    fn first_arrival_respects_scope() {
        let build = |scope| CeNoise::new(3, Span::from_ms(1), Span::from_us(10), scope, 8);
        let scoped: Vec<Time> = (0..3)
            .map(|r| build(Scope::SingleRank(Rank(r))).first_arrival())
            .collect();
        assert!(scoped.windows(2).all(|w| w[0] != w[1]), "{scoped:?}");
        let earliest = *scoped.iter().min().unwrap();
        assert_eq!(build(Scope::AllRanks).first_arrival(), earliest);
    }

    #[test]
    fn interval_ending_at_the_pending_arrival_takes_a_detour() {
        // The quiet-replica skip compares `first_arrival() > finish`
        // strictly: an interval that ends exactly at the arrival is hit.
        let detour = Span::from_us(10);
        for r in 0..3 {
            let build = || CeNoise::new(3, Span::from_ms(1), detour, Scope::SingleRank(Rank(r)), 4);
            let at = build().first_arrival();
            let work = at.since(Time::ZERO);
            let mut hit = build();
            assert_eq!(hit.stretch(Rank(r), Time::ZERO, work), at + detour);
            assert_eq!(hit.events_injected(), 1);
            // One picosecond short: no detour, and nothing drawn.
            let mut miss = build();
            let short = work - Span::from_ps(1);
            assert_eq!(miss.stretch(Rank(r), Time::ZERO, short), Time::ZERO + short);
            assert_eq!(miss.events_injected(), 0);
            assert_eq!(miss.first_arrival(), at);
        }
    }

    #[test]
    fn untargeted_rank_is_identity() {
        let mut n = CeNoise::new(
            4,
            Span::from_ms(1),
            Span::from_ms(100),
            Scope::SingleRank(Rank(2)),
            7,
        );
        let end = n.stretch(Rank(0), Time::ZERO, Span::from_secs(10));
        assert_eq!(end, Time::ZERO + Span::from_secs(10));
        assert_eq!(n.events_injected(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn scope_bounds_checked() {
        CeNoise::new(
            2,
            Span::from_ms(1),
            Span::ZERO,
            Scope::SingleRank(Rank(5)),
            0,
        );
    }

    #[test]
    fn event_count_matches_rate() {
        // 10 s of work, MTBCE 10 ms, detour 775 µs: events accrue over
        // wall time (work + detours), so expect slightly above 1000.
        let mut n = CeNoise::new(
            1,
            Span::from_ms(10),
            Span::from_us(775),
            Scope::AllRanks,
            42,
        );
        n.stretch(Rank(0), Time::ZERO, Span::from_secs(10));
        let events = n.events_injected();
        assert!((900..1_200).contains(&events), "events = {events}");
    }

    #[test]
    fn feedback_accrues_more_events() {
        // With detour = 0.5 * mtbce, wall time doubles, so events per unit
        // of *work* are ~2x the raw rate.
        let mut n = CeNoise::new(1, Span::from_ms(10), Span::from_ms(5), Scope::AllRanks, 1);
        let end = n.stretch(Rank(0), Time::ZERO, Span::from_secs(20));
        let wall = end.since(Time::ZERO).as_secs_f64();
        // wall ≈ work / (1 - ρ) = 20 / 0.5 = 40 s.
        assert!((35.0..45.0).contains(&wall), "wall = {wall}");
        assert!((n.max_utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn arrivals_in_idle_gaps_are_absorbed() {
        let detour = Span::from_us(10);
        let mut n = CeNoise::new(1, Span::from_ms(1), detour, Scope::AllRanks, 3);
        // First interval: 5 ms of work starting at 0.
        let end1 = n.stretch(Rank(0), Time::ZERO, Span::from_ms(5));
        let e1 = n.events_injected();
        assert!(e1 >= 1);
        // Long idle gap, then another interval: the ~50 arrivals from the
        // gap were handled while the rank was blocked and steal nothing;
        // only arrivals inside the new interval inject detours.
        let start2 = end1 + Span::from_ms(50);
        let end2 = n.stretch(Rank(0), start2, Span::from_ms(5));
        let e2 = n.events_injected() - e1;
        assert!(e2 <= 15, "gap arrivals must not pile up: {e2}");
        assert_eq!(end2.since(start2), Span::from_ms(5) + detour * e2);
    }

    #[test]
    fn high_utilization_converges_with_idle_absorption() {
        // ρ = 0.665 (firmware at MTBCE 200 ms): an interval stretches by
        // ~1/(1-ρ) ≈ 3x and must terminate (regression test for the
        // deferred-arrival runaway).
        let mut n = CeNoise::new(
            1,
            Span::from_ms(200),
            Span::from_ms(133),
            Scope::AllRanks,
            2,
        );
        let end = n.stretch(Rank(0), Time::ZERO, Span::from_secs(10));
        let wall = end.since(Time::ZERO).as_secs_f64();
        assert!((20.0..50.0).contains(&wall), "wall = {wall}");
    }

    #[test]
    fn ranks_have_independent_streams() {
        let mut n = CeNoise::new(2, Span::from_ms(1), Span::from_us(1), Scope::AllRanks, 5);
        let (a, b, _) = run(&mut n, Span::from_secs(1));
        assert_ne!(a, b, "identical streams would be a seeding bug");
    }

    #[test]
    fn hot_rank_sees_more_events_and_sets_max_utilization() {
        let mut params = vec![p(Span::from_ms(10), Span::from_us(100)); 4];
        params[2] = p(Span::from_us(200), Span::from_us(180)); // the faulty-DIMM node
        let mut n = CeNoise::per_rank(params, 7);
        assert!((n.max_utilization() - 0.9).abs() < 1e-12);
        for r in 0..4 {
            n.stretch(Rank(r), Time::ZERO, Span::from_secs(1));
        }
        let ev = n.per_rank_events();
        assert!(ev[2] > 10 * ev[0].max(1), "hot rank must dominate: {ev:?}");
    }

    #[test]
    fn average_rate_math() {
        let s = spec();
        // (5·0.1 + 0.5·100) / 5.5 = 50.5 / 5.5 ≈ 9.18 CEs/s.
        assert!((s.average_rate() - 50.5 / 5.5).abs() < 1e-9);
        let eq = s.equivalent_mtbce().as_secs_f64();
        assert!((eq - 5.5 / 50.5).abs() < 1e-9);
    }

    #[test]
    fn bursty_events_cluster_in_bursts() {
        let mut n = CeNoise::bursty(1, spec(), Span::from_us(1), 3);
        // Walk 60 s of continuous work in 10 ms slices and count events
        // per slice: bursty arrivals must produce slices with many events
        // AND long stretches with none.
        let mut t = Time::ZERO;
        let mut counts = Vec::new();
        let mut prev_events = 0;
        for _ in 0..6_000 {
            t = n.stretch(Rank(0), t, Span::from_ms(10));
            let e = n.events_injected();
            counts.push(e - prev_events);
            prev_events = e;
        }
        let total: u64 = counts.iter().sum();
        // Average rate ≈ 9.18/s over ~60 s → several hundred events.
        assert!((300..1200).contains(&total), "total = {total}");
        let empty = counts.iter().filter(|&&c| c == 0).count();
        let heavy = counts.iter().filter(|&&c| c >= 3).count();
        assert!(
            empty > 4_000,
            "quiet periods should dominate slices: {empty}"
        );
        assert!(heavy > 20, "bursts should concentrate events: {heavy}");
    }

    #[test]
    fn bursty_and_memoryless_steal_comparably_at_matched_rate() {
        // Over a long window, bursty and memoryless processes at the same
        // average rate steal comparable total CPU time.
        let s = spec();
        let detour = Span::from_us(100);
        let work = Span::from_secs(200);
        let stolen = |mut n: CeNoise| {
            n.stretch(Rank(0), Time::ZERO, work)
                .since(Time::ZERO + work)
                .as_secs_f64()
        };
        let bursty = stolen(CeNoise::bursty(1, s, detour, 1));
        let smooth = stolen(CeNoise::new(
            1,
            s.equivalent_mtbce(),
            detour,
            Scope::AllRanks,
            1,
        ));
        let ratio = bursty / smooth;
        assert!((0.5..2.0).contains(&ratio), "stolen ratio = {ratio}");
    }

    /// `next_arrival` consumes nothing, and is exact: an interval from
    /// the peeked time `at` that ends 1 ps before the answer takes no
    /// detour, and one that ends at the answer takes at least one.
    #[test]
    fn every_kind_peeks_its_next_arrival_exactly() {
        for (name, mut n, _) in kinds(6) {
            // Move every process along a little first.
            n.stretch(Rank(0), Time::ZERO, Span::from_ms(40));
            for ms in [0, 3, 40, 900] {
                let at = Time::ZERO + Span::from_ms(ms);
                for r in [Rank(0), Rank(1)] {
                    let a = n.next_arrival(r, at).expect("CeNoise always answers");
                    assert_eq!(n.next_arrival(r, at), Some(a), "{name}: peek consumed");
                    assert!(a >= at, "{name}");
                    if a == Time::MAX {
                        assert_eq!(name, "single-rank");
                        assert_eq!(r, Rank(1));
                        continue;
                    }
                    let events = n.events_injected();
                    let short = a.since(at).saturating_sub(Span::from_ps(1));
                    let mut before = n.clone();
                    assert_eq!(before.stretch(r, at, short), at + short, "{name} {ms}ms");
                    assert_eq!(before.events_injected(), events, "{name} {ms}ms");
                    let mut upto = n.clone();
                    upto.stretch(r, at, a.since(at));
                    assert!(upto.events_injected() > events, "{name} {ms}ms {r}");
                }
            }
        }
    }
}
