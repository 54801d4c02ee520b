//! Baseline fork tables (`cesim_engine::fork`): a replica resumed from a
//! snapshot of the noise-free run equals a full simulation whenever its
//! first CE arrival is strictly after the snapshot's horizon.
//!
//! Checked for every snapshot of every workload and every collective
//! expansion (eager and rendezvous payloads), with CE processes on all
//! ranks and on a single rank. The strict comparison is pinned by a CE
//! landing exactly at a horizon, and the snapshot memory by the byte
//! budget of the largest serve and fleet schedules.

mod common;

use dram_ce_sim::engine::{
    simulate_compiled, CompiledSchedule, Fork, ForkTable, NoiseModel, SimResult, Snapshot,
};
use dram_ce_sim::goal::{Rank, Schedule};
use dram_ce_sim::model::{LogGopsParams, Span, Time};
use dram_ce_sim::noise::{CeNoise, Scope};
use dram_ce_sim::workloads::{AppId, WorkloadConfig};
use dram_ce_sim::ScheduleCache;
use std::sync::Arc;

/// Seeds tried per snapshot and scope.
const SEEDS: u64 = 48;

/// Resume `noise` from `snap` and check it against a full run: every
/// `SimResult` field and the per-rank CE counts agree, except that the
/// resumed run counts only the events after the snapshot.
fn assert_resume_matches(at: &str, forks: &ForkTable, snap: &Snapshot, noise: &CeNoise) {
    let p = LogGopsParams::xc40();
    let mut full_noise = noise.clone();
    let full = simulate_compiled(forks.schedule(), &p, &mut full_noise).unwrap();
    let mut fork_noise = noise.clone();
    let fork = forks.resume(snap, &mut fork_noise).unwrap();
    assert_eq!(
        fork.events_processed,
        full.events_processed - snap.events(),
        "{at}"
    );
    let fork = SimResult {
        events_processed: full.events_processed,
        ..fork
    };
    assert_eq!(fork, full, "{at}");
    assert_eq!(
        fork_noise.per_rank_events(),
        full_noise.per_rank_events(),
        "{at}"
    );
}

/// For every snapshot of `sched`'s fork table, resume CE processes whose
/// first arrival lies after its horizon (and by the finish, so the run is
/// not the baseline) and compare with full simulation. Returns the
/// number of snapshots and resumed runs checked.
fn check_every_snapshot(label: &str, sched: &Schedule) -> (usize, usize) {
    let p = LogGopsParams::xc40();
    let cs = Arc::new(CompiledSchedule::compile(sched));
    let (forks, base) = ForkTable::build(Arc::clone(&cs), &p).unwrap();
    let ranks = cs.num_ranks();
    // Detours short against the run keep every process convergent
    // (utilization at most 1/8), even for microsecond collectives.
    let detour = Span::from_ps(base.finish.as_ps() / 16);
    let mut resumed = 0;
    for (i, snap) in forks.snapshots().iter().enumerate() {
        assert!(snap.horizon() < base.finish, "{label}: snapshot {i}");
        // Spread the first arrival over the run: with all ranks
        // targeted it is the minimum of `ranks` draws.
        for (scope, mtbce) in [
            (Scope::AllRanks, base.finish.as_ps() * ranks as u64 / 2),
            (
                Scope::SingleRank(Rank::from(ranks / 2)),
                base.finish.as_ps() / 2,
            ),
        ] {
            let mtbce = Span::from_ps(mtbce.max(1));
            for seed in 0..SEEDS {
                let noise = CeNoise::new(ranks, mtbce, detour, scope, seed);
                let a = noise.first_arrival();
                if a <= snap.horizon() || a > base.finish {
                    continue;
                }
                let at = format!("{label}: snapshot {i} {scope:?} seed {seed}");
                assert_resume_matches(&at, &forks, snap, &noise);
                resumed += 1;
            }
        }
    }
    (forks.snapshots().len(), resumed)
}

#[test]
fn resumed_replicas_match_full_simulation_for_every_app() {
    let (mut snaps, mut resumed) = (0, 0);
    for (label, sched) in common::app_schedules(8, 3) {
        let (s, r) = check_every_snapshot(&label, &sched);
        assert!(s > 0, "{label}: no snapshots");
        snaps += s;
        resumed += r;
    }
    assert!(
        resumed > snaps,
        "{resumed} resumed runs over {snaps} snapshots"
    );
}

#[test]
fn resumed_replicas_match_full_simulation_for_every_collective() {
    let (mut snaps, mut resumed) = (0, 0);
    for (label, sched) in common::collective_schedules() {
        let (s, r) = check_every_snapshot(&label, &sched);
        snaps += s;
        resumed += r;
    }
    assert!(
        snaps > 0 && resumed > 0,
        "{resumed} resumed runs, {snaps} snapshots"
    );
}

/// One CE at `at` on any rank, handled by the first non-zero-work CPU
/// interval that ends at or after it: a process whose first arrival is
/// `at`. Records the `(rank, start, end)` of the interval it stretched.
struct OneCe {
    at: Time,
    hit: Option<(Rank, Time, Time)>,
}

impl NoiseModel for OneCe {
    fn stretch(&mut self, rank: Rank, start: Time, work: Span) -> Time {
        let end = start + work;
        if self.hit.is_some() || work.is_zero() || end < self.at {
            return end;
        }
        self.hit = Some((rank, start, end));
        end + Span::from_us(50)
    }
}

/// The lookup resumes from the last snapshot whose horizon is strictly
/// before the first arrival. A CE exactly at a snapshot's horizon hits
/// the interval that ends there, so resuming from that snapshot would
/// be wrong: the lookup must not offer it, nor the baseline for a CE
/// exactly at the finish.
#[test]
fn lookup_is_strict_at_horizons_and_finish() {
    let p = LogGopsParams::xc40();
    let ps = Span::from_ps(1);
    for (label, sched) in common::app_schedules(8, 3) {
        let cs = Arc::new(CompiledSchedule::compile(&sched));
        let (forks, base) = ForkTable::build(Arc::clone(&cs), &p).unwrap();
        assert_eq!(forks.finish(), base.finish, "{label}");
        assert!(
            matches!(forks.lookup(base.finish + ps), Fork::Baseline),
            "{label}"
        );
        assert!(
            !matches!(forks.lookup(base.finish), Fork::Baseline),
            "{label}"
        );
        assert!(matches!(forks.lookup(Time::ZERO), Fork::Cold), "{label}");
        let snaps = forks.snapshots();
        for (i, snap) in snaps.iter().enumerate() {
            let h = snap.horizon();
            let at = format!("{label}: snapshot {i}");
            // Just after the horizon: this snapshot or a later one at
            // the same horizon.
            match forks.lookup(h + ps) {
                Fork::Resume(s) => assert_eq!(s.horizon(), h, "{at}"),
                other => panic!("{at}: {other:?}"),
            }
            // At the horizon: an earlier snapshot, or none.
            match forks.lookup(h) {
                Fork::Resume(s) => assert!(s.horizon() < h, "{at}"),
                Fork::Cold => assert!(snaps[..i].iter().all(|s| s.horizon() >= h), "{at}"),
                Fork::Baseline => panic!("{at}: baseline"),
            }
            // Why: a CE at exactly `h` stretches an interval of the
            // prefix (one ends at `h`), which a resumed run never sees.
            let (mut full, mut fork) = (OneCe { at: h, hit: None }, OneCe { at: h, hit: None });
            simulate_compiled(&cs, &p, &mut full).unwrap();
            forks.resume(snap, &mut fork).unwrap();
            let (_, _, end) = full.hit.expect("the full run takes the CE");
            assert_eq!(end, h, "{at}");
            assert_ne!(fork.hit, full.hit, "{at}");
        }
    }
}

/// The snapshots of a cached entry stay within its byte budget for the
/// largest schedules the benchmark's serve and fleet workloads compile.
#[test]
fn snapshot_bytes_stay_within_budget() {
    let p = LogGopsParams::xc40();
    let cache = ScheduleCache::new(32);
    let fleet = WorkloadConfig {
        steps_override: Some(4),
        ..WorkloadConfig::default()
    };
    let serve = WorkloadConfig::default();
    let fleet_apps = [
        AppId::MiniFe,
        AppId::Hpcg,
        AppId::Lulesh,
        AppId::LammpsLj,
        AppId::Milc,
        AppId::Cth,
    ];
    let shapes = fleet_apps
        .into_iter()
        .map(|app| (app, 64, fleet))
        .chain(AppId::all().into_iter().map(|app| (app, 128, serve)));
    for (app, nodes, wl) in shapes {
        let table = cache.get_or_compile(app, nodes, &wl, &p).unwrap();
        let budget = ForkTable::budget(table.schedule());
        let bytes = table.bytes();
        assert!(bytes <= budget, "{app} x{nodes}: {bytes} > {budget}");
        assert!(!table.snapshots().is_empty(), "{app} x{nodes}");
        assert!(table.snapshots().len() <= 16, "{app} x{nodes}");
    }
}
