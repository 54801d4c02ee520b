//! Rejoin (`cesim_engine::fork`): a replica whose state at a later
//! snapshot is the baseline's shifted by Δ, with no detour left to fire
//! in the shifted rest of the run, stops simulating there, and its result
//! is assembled from the fork table.
//!
//! Checked against full simulation on every workload and every
//! collective expansion (eager and rendezvous payloads), with CE
//! processes on all ranks, on a single rank, and with per-rank rates and
//! detours. Negative controls with scripted detours pin the strict
//! comparison against each rank's shifted last busy end, and a run whose
//! ranks end up shifted by different amounts.

mod common;

use dram_ce_sim::engine::noise::ScriptedNoise;
use dram_ce_sim::engine::{
    simulate_compiled, CompiledSchedule, Fork, ForkRun, ForkTable, NoNoise, NoiseModel, SimResult,
};
use dram_ce_sim::goal::builder::TagPool;
use dram_ce_sim::goal::{Rank, Schedule, ScheduleBuilder};
use dram_ce_sim::model::{LogGopsParams, Span, Time};
use dram_ce_sim::noise::{CeNoise, RankCeParams, Scope};
use std::sync::Arc;

/// Seeds tried per schedule and CE process kind.
const SEEDS: u64 = 24;

/// Run `noise` through `forks` as `ForkTable::answer` does (lookup by
/// `first_arrival`, then resume or run cold) and check the answer against
/// a full simulation: every `SimResult` field but `events_processed` is
/// equal, and the events run plus those skipped before and after are the
/// full run's. Returns the fork run and both noise models as they end.
fn check<N: NoiseModel + Clone>(
    at: &str,
    forks: &ForkTable,
    first_arrival: Time,
    noise: &N,
) -> Option<(ForkRun, N, N)> {
    let p = LogGopsParams::xc40();
    let from = match forks.lookup(first_arrival) {
        Fork::Baseline => return None,
        Fork::Resume(snap) => Some(snap),
        Fork::Cold => None,
    };
    let mut full_noise = noise.clone();
    let full = simulate_compiled(forks.schedule(), &p, &mut full_noise).unwrap();
    let mut fork_noise = noise.clone();
    let fork = forks.run(from, &mut fork_noise).unwrap();
    assert_eq!(fork.prefix, from.map_or(0, |s| s.events()), "{at}");
    assert_eq!(
        fork.result.events_processed + fork.prefix + fork.suffix,
        full.events_processed,
        "{at}"
    );
    assert_same_but_events(at, &fork.result, &full);
    Some((fork, fork_noise, full_noise))
}

fn assert_same_but_events(at: &str, got: &SimResult, want: &SimResult) {
    let got = SimResult {
        events_processed: want.events_processed,
        ..got.clone()
    };
    assert_eq!(&got, want, "{at}");
}

/// The CE processes of the grid for a schedule with `ranks` ranks whose
/// noise-free run takes `finish`: all ranks, a single rank, and per-rank
/// rates and detours. Detours short against the run keep every process
/// convergent; the rates put the first arrival anywhere in the run.
fn processes(ranks: usize, finish: Time, seed: u64) -> Vec<(&'static str, CeNoise)> {
    let f = finish.as_ps().max(1);
    let detour = Span::from_ps(f / 16);
    let per_rank = (0..ranks)
        .map(|r| RankCeParams {
            mtbce: Span::from_ps(f * ranks as u64 * (1 + r as u64 % 3) / 2),
            detour: Span::from_ps(f / (8 + 8 * (r as u64 % 2))),
        })
        .collect();
    vec![
        (
            "all-rank",
            CeNoise::new(
                ranks,
                Span::from_ps(f * ranks as u64 / 2),
                detour,
                Scope::AllRanks,
                seed,
            ),
        ),
        (
            "single-rank",
            CeNoise::new(
                ranks,
                Span::from_ps(f / 2),
                detour,
                Scope::SingleRank(Rank::from(ranks / 2)),
                seed,
            ),
        ),
        ("per-rank", CeNoise::per_rank(per_rank, seed)),
    ]
}

/// Every replica of the grid on `sched` against full simulation, per-rank
/// CE counts included. Returns `(replicas run, replicas rejoined)`.
fn check_grid(label: &str, sched: &Schedule) -> (usize, usize) {
    let p = LogGopsParams::xc40();
    let cs = Arc::new(CompiledSchedule::compile(sched));
    let (forks, base) = ForkTable::build(Arc::clone(&cs), &p).unwrap();
    let (mut ran, mut rejoined) = (0, 0);
    for seed in 0..SEEDS {
        for (kind, noise) in processes(cs.num_ranks(), base.finish, seed) {
            let at = format!("{label}: {kind} seed {seed}");
            let Some((fork, fork_noise, full_noise)) =
                check(&at, &forks, noise.first_arrival(), &noise)
            else {
                continue;
            };
            assert_eq!(
                fork_noise.per_rank_events(),
                full_noise.per_rank_events(),
                "{at}"
            );
            ran += 1;
            rejoined += usize::from(fork.suffix > 0);
        }
    }
    (ran, rejoined)
}

#[test]
fn rejoined_replicas_match_full_simulation_for_every_app() {
    let (mut ran, mut rejoined) = (0, 0);
    for (label, sched) in common::app_schedules(8, 3) {
        let (n, r) = check_grid(&label, &sched);
        ran += n;
        rejoined += r;
    }
    assert!(
        rejoined > 0 && rejoined < ran,
        "{rejoined} of {ran} replicas rejoined"
    );
}

#[test]
fn rejoined_replicas_match_full_simulation_for_every_collective() {
    let (mut ran, mut rejoined) = (0, 0);
    for (label, sched) in common::collective_schedules() {
        let (n, r) = check_grid(&label, &sched);
        ran += n;
        rejoined += r;
    }
    assert!(
        rejoined > 0 && rejoined < ran,
        "{rejoined} of {ran} replicas rejoined"
    );
}

/// A noise-free replica is the baseline shifted by zero: run cold it
/// rejoins at the first snapshot, and resumed at the next one.
#[test]
fn noise_free_replicas_rejoin_at_the_next_snapshot() {
    let p = LogGopsParams::xc40();
    for (label, sched) in common::app_schedules(8, 2) {
        let cs = Arc::new(CompiledSchedule::compile(&sched));
        let (forks, base) = ForkTable::build(Arc::clone(&cs), &p).unwrap();
        let snaps = forks.snapshots();
        let starts = std::iter::once(None).chain(snaps.iter().map(Some));
        for (i, from) in starts.enumerate() {
            let at = format!("{label}: start {i}");
            let run = forks.run(from, &mut NoNoise).unwrap();
            assert_same_but_events(&at, &run.result, &base);
            let prefix = from.map_or(0, |s| s.events());
            match snaps.get(i) {
                Some(next) => {
                    assert_eq!(run.result.events_processed, next.events() - prefix, "{at}");
                    assert_eq!(run.suffix, base.events_processed - next.events(), "{at}");
                }
                None => assert_eq!(run.suffix, 0, "{at}"),
            }
        }
    }
}

/// Per rank, the end of its last non-zero-work CPU interval.
#[derive(Clone)]
struct LastBusy(Vec<Time>);

impl NoiseModel for LastBusy {
    fn stretch(&mut self, rank: Rank, start: Time, work: Span) -> Time {
        let end = start + work;
        if !work.is_zero() {
            self.0[rank.idx()] = end;
        }
        end
    }
}

/// The strict comparison: every scripted process that rejoins after one
/// detour, plus a second detour on the rank whose last busy interval ends
/// latest. Placed exactly at that end shifted by Δ, the second detour
/// fires in the full run, so the replica must not rejoin; 1 ps later it
/// never fires, and the replica must rejoin where the one-detour process
/// did.
#[test]
fn an_arrival_at_a_shifted_last_busy_end_blocks_rejoin() {
    let p = LogGopsParams::xc40();
    let (mut apps, mut scripts) = (0, 0);
    for (label, sched) in common::app_schedules(8, 3) {
        let cs = Arc::new(CompiledSchedule::compile(&sched));
        let (forks, base) = ForkTable::build(Arc::clone(&cs), &p).unwrap();
        let mut last = LastBusy(vec![Time::ZERO; cs.num_ranks()]);
        simulate_compiled(&cs, &p, &mut last).unwrap();
        let q = (0..cs.num_ranks()).max_by_key(|&r| last.0[r]).unwrap();
        let detour = Span::from_ps(base.finish.as_ps() / 16);
        let mut rejoining = 0;
        for r in 0..cs.num_ranks() {
            for k in 1..8 {
                let first = Time::from_ps(base.finish.as_ps() * k / 16);
                let script = vec![(Rank::from(r), first, detour)];
                let at = format!("{label}: {script:?}");
                let noise = ScriptedNoise::new(script.clone());
                let Some((one, _, _)) = check(&at, &forks, first, &noise) else {
                    continue;
                };
                if one.suffix == 0 {
                    continue;
                }
                let mut full = ScriptedNoise::new(script.clone());
                let finish = simulate_compiled(&cs, &p, &mut full).unwrap().finish;
                let end = last.0[q] + finish.since(base.finish);
                for (extra, rejoins) in [(Span::ZERO, false), (Span::from_ps(1), true)] {
                    let at = format!("{at} + rank {q} at last busy end + Δ + {extra}");
                    let mut two = script.clone();
                    two.push((Rank::from(q), end + extra, detour));
                    let noise = ScriptedNoise::new(two);
                    let (fork, fork_noise, full_noise) = check(&at, &forks, first, &noise).unwrap();
                    let fired = 2 - u64::from(rejoins);
                    assert_eq!(full_noise.events_injected(), fired, "{at}");
                    assert_eq!(fork_noise.events_injected(), fired, "{at}");
                    let rejoined = if rejoins { one.suffix } else { 0 };
                    assert_eq!(fork.suffix, rejoined, "{at}");
                }
                rejoining += 1;
            }
        }
        apps += usize::from(rejoining > 0);
        scripts += rejoining;
    }
    assert!(
        apps == 9 && scripts > 100,
        "{scripts} rejoining scripts in {apps} apps"
    );
}

/// Two rank pairs that never talk to each other, each exchanging
/// messages and computing for `steps` rounds, plus a fifth rank that
/// computes for 1 µs at the start and is idle from then on.
fn two_pairs(steps: usize) -> Schedule {
    let mut b = ScheduleBuilder::new(5);
    let mut tags = TagPool::new();
    b.calc(Rank(4), Span::from_us(1), &[]);
    let mut last: Vec<_> = (0..4)
        .map(|r| b.calc(Rank(r), Span::from_us(5), &[]))
        .collect();
    for _ in 0..steps {
        let tag = tags.alloc(1);
        last = (0..4u32)
            .map(|r| {
                let peer = Rank(r ^ 1);
                let send = b.send(Rank(r), peer, 64, tag, &[last[r as usize]]);
                let recv = b.recv(Rank(r), Some(peer), 64, tag, &[last[r as usize]]);
                b.calc(Rank(r), Span::from_us(10), &[send, recv])
            })
            .collect();
    }
    b.build()
}

/// The same detour at the same time on every rank of one pair shifts
/// only that pair, and one on a single rank shifts the two ranks of its
/// pair apart: either way no snapshot matches the replica shifted by one
/// Δ, and it runs to the end. The same detour on all four ranks shifts
/// them alike, and the replica rejoins: the idle rank's cursors and
/// finish, unshifted and before the cut, match only through the clamp,
/// and it keeps its own finish.
#[test]
fn ranks_shifted_by_different_amounts_do_not_rejoin() {
    let p = LogGopsParams::xc40();
    let cs = Arc::new(CompiledSchedule::compile(&two_pairs(12)));
    let (forks, _) = ForkTable::build(Arc::clone(&cs), &p).unwrap();
    assert!(forks.snapshots().len() >= 4);
    let (at, detour) = (Time::ZERO + Span::from_us(2), Span::from_us(3));
    for (ranks, rejoins) in [
        (vec![0, 1], false),
        (vec![2, 3], false),
        (vec![0], false),
        (vec![0, 1, 2, 3], true),
    ] {
        let label = format!("detours on ranks {ranks:?}");
        let script = ranks.iter().map(|&r| (Rank(r), at, detour)).collect();
        let (fork, _, full) = check(&label, &forks, at, &ScriptedNoise::new(script)).unwrap();
        assert_eq!(full.events_injected(), ranks.len() as u64, "{label}");
        assert_eq!(fork.suffix > 0, rejoins, "{label}");
    }
}
