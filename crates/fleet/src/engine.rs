//! The fleet epoch loop.
//!
//! Time is divided into *epochs*. Each epoch:
//!
//! 1. **place** — queued jobs are assigned to free online nodes by the
//!    spec's placement policy (`fleet_place` phase span);
//! 2. **run** — every running job simulates one epoch slice of its
//!    workload through the compile-once engine, with
//!    a per-rank [`CeNoise`](cesim_noise::CeNoise::per_rank) carrying each
//!    hosting node's MTBCE and logging-mode detour (`fleet_run`). Each
//!    slice is answered by its cached fork table, which holds the
//!    compiled schedule and its baseline
//!    ([`ForkTable::answer`](cesim_engine::ForkTable::answer)): a slice
//!    whose first CE arrival comes after its
//!    noise-free finish is the baseline run, one whose first arrival
//!    comes after a snapshot's horizon resumes there instead of
//!    simulating its noise-free prefix, and one that reaches a later
//!    snapshot in the baseline's state shifted in time, with no CE left
//!    to fire, rejoins the baseline there instead of simulating its
//!    noise-free suffix;
//! 3. **observe** — per-rank CE counts are attributed back to the hosting
//!    nodes;
//! 4. **react** — the mitigation policy sees the observations and may
//!    offline nodes (displacing and re-queuing their jobs, progress
//!    lost) or switch logging modes for subsequent epochs
//!    (`fleet_policy`).
//!
//! **Determinism.** The cluster is materialized from stable per-node
//! coordinates (see [`crate::cluster`]); each job slice's RNG seed is
//! `rep_seed(point_seed(seed, "fleet", job, attempt), slice)` — a pure
//! function of *what* is being simulated, never of worker interleaving.
//! Within an epoch, slices run in parallel via rayon and are collected
//! in job order; everything between epochs is serial. Job slices use the
//! serial compiled engine rather than the intra-run sharded one: the
//! sharded fan-out clones its noise model per shard and discards the
//! clones, which would lose the per-rank CE counts policies react to —
//! and at fleet scale, job-level parallelism already saturates the pool.

use crate::cluster::{build_cluster, Node};
use crate::policy::{build_policy, Action};
use crate::spec::{FleetSpec, JobSpec, Placement};
use cesim_core::experiment::{RunStats, DIVERGENCE_LIMIT};
use cesim_core::seed::{fnv1a, mix, point_seed, rep_seed};
use cesim_core::ScheduleCache;
use cesim_model::rng::Rng64;
use cesim_model::{LogGopsParams, Span, Time};
use cesim_noise::{CeNoise, RankCeParams};
use cesim_obs::telemetry;
use cesim_workloads::{AppId, WorkloadConfig};
use rayon::prelude::*;

/// One job instance in the fleet.
#[derive(Clone, Debug)]
struct Job {
    id: usize,
    spec_index: usize,
    app: AppId,
    nodes_required: usize,
    workload: WorkloadConfig,
    duration: u32,
}

#[derive(Clone, Debug)]
enum JobState {
    Queued,
    Running {
        nodes: Vec<usize>,
        start_epoch: u32,
        slices_done: u32,
        finish_acc: Span,
        baseline_acc: Span,
        ce_acc: u64,
        diverged: bool,
    },
    Completed,
}

/// Final per-job report row.
#[derive(Clone, Debug, PartialEq)]
pub struct JobOutcome {
    /// Job id (stable across displacement).
    pub id: usize,
    /// Index of the [`JobSpec`] mix entry that produced the job.
    pub spec_index: usize,
    /// Workload.
    pub app: AppId,
    /// Nodes the job occupies while running.
    pub nodes: usize,
    /// Epoch the (final, non-displaced) run started, if it ever ran.
    pub start_epoch: Option<u32>,
    /// Epoch the job completed, if it did.
    pub end_epoch: Option<u32>,
    /// Times the job was displaced from an offlined node and re-queued.
    pub displaced: u32,
    /// Whether the job finished all its epoch slices.
    pub completed: bool,
    /// Whether any slice hit the divergence guard (ρ ≥ 0.95).
    pub diverged: bool,
    /// Summed noise-free baseline of the completed slices.
    pub baseline: Span,
    /// Summed perturbed finish of the completed slices.
    pub finish: Span,
    /// CE detours injected across the job's (final) run.
    pub ce_events: u64,
    /// Slowdown vs baseline in percent; `None` if diverged or never
    /// completed.
    pub slowdown_pct: Option<f64>,
}

/// Per-epoch accounting row (the JSONL stream and the conservation
/// invariant both come from this).
#[derive(Clone, Debug, PartialEq)]
pub struct EpochRecord {
    /// Epoch index.
    pub epoch: u32,
    /// Jobs waiting after this epoch's placement and policy actions.
    pub queued: usize,
    /// Jobs holding nodes at the end of the epoch.
    pub running: usize,
    /// Jobs finished so far.
    pub completed: usize,
    /// Total displacement events so far (a job displaced twice counts
    /// twice).
    pub displaced_total: u64,
    /// Nodes offline at the end of the epoch.
    pub offline_nodes: usize,
    /// CEs observed fleet-wide during the epoch.
    pub ce_events: u64,
    /// Human-readable policy actions taken at the end of the epoch.
    pub actions: Vec<String>,
}

/// The complete result of one fleet run.
#[derive(Clone, Debug)]
pub struct FleetOutcome {
    /// Policy that ran (spec name, e.g. `threshold_offline`).
    pub policy: String,
    /// Placement that ran.
    pub placement: String,
    /// Base seed.
    pub seed: u64,
    /// Per-job rows, ascending id.
    pub jobs: Vec<JobOutcome>,
    /// Final node states, ascending id.
    pub nodes: Vec<Node>,
    /// Per-epoch accounting.
    pub epochs: Vec<EpochRecord>,
    /// Node-epochs of capacity lost to policy offlining.
    pub offline_node_epochs: u64,
    /// True when the run stopped before every job completed (epoch cap
    /// hit, or queued jobs could no longer fit the surviving capacity).
    pub truncated: bool,
}

impl FleetOutcome {
    /// Nearest-rank percentile of completed, non-diverged job slowdowns.
    pub fn slowdown_percentile(&self, q: f64) -> Option<f64> {
        let mut xs: Vec<f64> = self.jobs.iter().filter_map(|j| j.slowdown_pct).collect();
        if xs.is_empty() {
            return None;
        }
        xs.sort_by(f64::total_cmp);
        let rank = ((q / 100.0) * xs.len() as f64).ceil() as usize;
        Some(xs[rank.clamp(1, xs.len()) - 1])
    }

    /// CEs observed fleet-wide.
    pub fn total_ce_events(&self) -> u64 {
        self.nodes.iter().map(|n| n.ce_total).sum()
    }

    /// Jobs that finished.
    pub fn completed_jobs(&self) -> usize {
        self.jobs.iter().filter(|j| j.completed).count()
    }

    /// Total displacement events.
    pub fn displaced_total(&self) -> u64 {
        self.jobs.iter().map(|j| u64::from(j.displaced)).sum()
    }
}

/// Expand the spec's job mix into concrete jobs (ids ascend in mix
/// order).
fn expand_jobs(specs: &[JobSpec]) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (spec_index, js) in specs.iter().enumerate() {
        for _ in 0..js.count {
            jobs.push(Job {
                id: jobs.len(),
                spec_index,
                app: js.app,
                nodes_required: js.nodes,
                workload: WorkloadConfig {
                    steps_override: js.steps,
                    ..WorkloadConfig::default()
                },
                duration: js.epochs,
            });
        }
    }
    jobs
}

/// Pick `want` nodes from the free list per the placement policy.
/// `free` is sorted ascending by node id. Returns `None` when there is
/// not enough capacity.
fn place(
    placement: Placement,
    free: &[usize],
    want: usize,
    seed: u64,
    epoch: u32,
    job_id: usize,
) -> Option<Vec<usize>> {
    if free.len() < want {
        return None;
    }
    match placement {
        Placement::Packed => Some(free[..want].to_vec()),
        Placement::Spread => {
            // Evenly strided indices across the free list.
            Some(
                (0..want)
                    .map(|i| free[i * free.len() / want])
                    .collect::<Vec<_>>(),
            )
        }
        Placement::Random => {
            // A seeded partial Fisher–Yates over a copy of the free
            // list; the seed folds in (epoch, job) so re-placements draw
            // fresh but reproducible permutations.
            let mut rng = Rng64::new(mix(
                mix(mix(seed, fnv1a(b"fleet/place")), u64::from(epoch)),
                job_id as u64,
            ));
            let mut pool = free.to_vec();
            let mut picked = Vec::with_capacity(want);
            for _ in 0..want {
                let i = rng.next_below(pool.len() as u64) as usize;
                picked.push(pool.swap_remove(i));
            }
            picked.sort_unstable();
            Some(picked)
        }
    }
}

/// One slice's simulation output.
struct SliceResult {
    job_index: usize,
    finish: Span,
    baseline: Span,
    ce_events: u64,
    per_rank: Vec<u64>,
    diverged: bool,
}

/// Run a fleet scenario to completion (or its epoch cap).
///
/// `schedules` is the compile-once cache — the daemon passes its
/// process-wide cache so fleet jobs share compiled schedules with
/// `/v1/simulate` traffic; the CLI creates a fresh one per run. Jobs on
/// nodes with *different logging modes* still share one compiled
/// schedule: noise is applied at run time, never baked into the
/// compiled form (pinned by a regression test in `cesim_core::cache`).
pub fn run_fleet(spec: &FleetSpec, schedules: &ScheduleCache) -> Result<FleetOutcome, String> {
    let params = LogGopsParams::xc40();
    let mut nodes = build_cluster(&spec.cluster, spec.seed);
    let jobs = expand_jobs(&spec.jobs);
    let mut states: Vec<JobState> = vec![JobState::Queued; jobs.len()];
    let mut attempts: Vec<u32> = vec![0; jobs.len()];
    let mut outcomes: Vec<JobOutcome> = jobs
        .iter()
        .map(|j| JobOutcome {
            id: j.id,
            spec_index: j.spec_index,
            app: j.app,
            nodes: j.nodes_required,
            start_epoch: None,
            end_epoch: None,
            displaced: 0,
            completed: false,
            diverged: false,
            baseline: Span::ZERO,
            finish: Span::ZERO,
            ce_events: 0,
            slowdown_pct: None,
        })
        .collect();
    let mut policy = build_policy(&spec.policy, spec.cluster.nodes);
    let mut epochs = Vec::new();
    let mut offline_node_epochs = 0u64;
    let mut displaced_total = 0u64;
    let mut truncated = false;
    // Node occupancy: which running job holds each node.
    let mut occupant: Vec<Option<usize>> = vec![None; nodes.len()];
    let trace = cesim_obs::tracectx::current();

    for epoch in 0..spec.max_epochs {
        let any_open = states.iter().any(|s| !matches!(s, JobState::Completed));
        if !any_open {
            break;
        }
        offline_node_epochs += nodes.iter().filter(|n| n.offline).count() as u64;

        // --- place ---
        {
            let _s = telemetry::Span::enter("fleet_place");
            // Free nodes in id order, built once per epoch and shrunk as
            // jobs place (nothing else changes occupancy in this loop).
            let mut free: Vec<usize> = nodes
                .iter()
                .filter(|n| !n.offline && occupant[n.id].is_none())
                .map(|n| n.id)
                .collect();
            for ji in 0..jobs.len() {
                if !matches!(states[ji], JobState::Queued) {
                    continue;
                }
                if let Some(assigned) = place(
                    spec.placement,
                    &free,
                    jobs[ji].nodes_required,
                    spec.seed,
                    epoch,
                    jobs[ji].id,
                ) {
                    for &n in &assigned {
                        occupant[n] = Some(ji);
                    }
                    free.retain(|&n| occupant[n].is_none());
                    states[ji] = JobState::Running {
                        nodes: assigned,
                        start_epoch: epoch,
                        slices_done: 0,
                        finish_acc: Span::ZERO,
                        baseline_acc: Span::ZERO,
                        ce_acc: 0,
                        diverged: false,
                    };
                }
            }
        }

        let running: Vec<usize> = (0..jobs.len())
            .filter(|&ji| matches!(states[ji], JobState::Running { .. }))
            .collect();
        if running.is_empty() {
            // Queued jobs that cannot place now never will: completion
            // only frees nodes of running jobs, and none are running.
            truncated = true;
            epochs.push(EpochRecord {
                epoch,
                queued: states
                    .iter()
                    .filter(|s| matches!(s, JobState::Queued))
                    .count(),
                running: 0,
                completed: states
                    .iter()
                    .filter(|s| matches!(s, JobState::Completed))
                    .count(),
                displaced_total,
                offline_nodes: nodes.iter().filter(|n| n.offline).count(),
                ce_events: 0,
                actions: Vec::new(),
            });
            break;
        }

        // --- run: snapshot slice inputs, then fan out ---
        let slices: Vec<SliceResult> = {
            let _s = telemetry::Span::enter("fleet_run");
            struct SliceInput {
                job_index: usize,
                app: AppId,
                nodes_required: usize,
                workload: WorkloadConfig,
                rank_params_of: Vec<RankCeParams>,
                seed: u64,
            }
            let mut inputs = Vec::with_capacity(running.len());
            for &ji in &running {
                let (assigned, slices_done) = match &states[ji] {
                    JobState::Running {
                        nodes: ns,
                        slices_done,
                        ..
                    } => (ns.clone(), *slices_done),
                    _ => unreachable!("running set is filtered"),
                };
                // Per-rank params snapshot: rank r lands on assigned
                // node r mod |assigned| (ranks == nodes for all apps
                // modulo natural_ranks snapping).
                let entry_seed = rep_seed(
                    point_seed(spec.seed, "fleet", jobs[ji].id, attempts[ji] as usize),
                    slices_done,
                );
                let rank_params_of: Vec<RankCeParams> = assigned
                    .iter()
                    .map(|&n| RankCeParams {
                        mtbce: nodes[n].mtbce,
                        detour: nodes[n].mode.per_event_cost(),
                    })
                    .collect();
                inputs.push(SliceInput {
                    job_index: ji,
                    app: jobs[ji].app,
                    nodes_required: jobs[ji].nodes_required,
                    workload: jobs[ji].workload,
                    rank_params_of,
                    seed: entry_seed,
                });
            }
            let trace = trace.as_ref();
            let results: Vec<Result<SliceResult, String>> = inputs
                .into_par_iter()
                .map(|inp| {
                    let _trace_guard = trace.map(|t| t.install());
                    let _job_span = trace.and_then(|_| {
                        cesim_obs::tracectx::begin_dyn(format!(
                            "fleet job {} epoch {epoch}",
                            inp.job_index
                        ))
                    });
                    let table = schedules
                        .get_or_compile(inp.app, inp.nodes_required, &inp.workload, &params)
                        .map_err(|e| format!("job {}: {e}", inp.job_index))?;
                    let ranks = table.schedule().num_ranks();
                    let rank_params: Vec<RankCeParams> = (0..ranks)
                        .map(|r| inp.rank_params_of[r % inp.rank_params_of.len()])
                        .collect();
                    let baseline = table.finish().since(Time::ZERO);
                    let mut noise = CeNoise::per_rank(rank_params, inp.seed);
                    if noise.max_utilization() >= DIVERGENCE_LIMIT {
                        // No forward progress on at least one hosting
                        // node; the slice is skipped, not simulated
                        // (mirrors the experiment-level guard).
                        return Ok(SliceResult {
                            job_index: inp.job_index,
                            finish: baseline,
                            baseline,
                            ce_events: 0,
                            per_rank: vec![0; ranks],
                            diverged: true,
                        });
                    }
                    // A slice no CE reaches leaves the process untouched,
                    // so its per-rank counts are all zero.
                    let run = table
                        .answer(&mut noise)
                        .map_err(|e| format!("job {}: {e}", inp.job_index))?;
                    let r = RunStats::answered(&table, run);
                    schedules.record_forks([&r]);
                    Ok(SliceResult {
                        job_index: inp.job_index,
                        finish: r.finish,
                        baseline,
                        ce_events: r.ce_events,
                        per_rank: noise.per_rank_events(),
                        diverged: false,
                    })
                })
                .collect();
            results.into_iter().collect::<Result<Vec<_>, _>>()?
        };

        // --- observe: CE accrual + job progress, in job order ---
        for n in nodes.iter_mut() {
            n.ce_last_epoch = 0;
        }
        let mut epoch_ce = 0u64;
        for slice in &slices {
            let ji = slice.job_index;
            let assigned = match &states[ji] {
                JobState::Running { nodes: ns, .. } => ns.clone(),
                _ => unreachable!(),
            };
            for (r, &ev) in slice.per_rank.iter().enumerate() {
                let nid = assigned[r % assigned.len()];
                nodes[nid].ce_last_epoch += ev;
                nodes[nid].ce_total += ev;
            }
            for &nid in &assigned {
                nodes[nid].busy_epochs += 1;
            }
            epoch_ce += slice.ce_events;
            if let JobState::Running {
                slices_done,
                finish_acc,
                baseline_acc,
                ce_acc,
                diverged,
                start_epoch,
                ..
            } = &mut states[ji]
            {
                *slices_done += 1;
                *finish_acc += slice.finish;
                *baseline_acc += slice.baseline;
                *ce_acc += slice.ce_events;
                *diverged |= slice.diverged;
                let done = *slices_done >= jobs[ji].duration;
                if done {
                    let o = &mut outcomes[ji];
                    o.start_epoch = Some(*start_epoch);
                    o.end_epoch = Some(epoch);
                    o.completed = true;
                    o.diverged = *diverged;
                    o.baseline = *baseline_acc;
                    o.finish = *finish_acc;
                    o.ce_events = *ce_acc;
                    o.slowdown_pct = (!*diverged).then(|| {
                        (finish_acc.as_secs_f64() / baseline_acc.as_secs_f64() - 1.0) * 100.0
                    });
                    for &nid in &assigned {
                        occupant[nid] = None;
                    }
                    states[ji] = JobState::Completed;
                }
            }
        }

        // --- react ---
        let mut action_log = Vec::new();
        {
            let _s = telemetry::Span::enter("fleet_policy");
            let actions = policy.react(epoch, &nodes);
            for a in actions {
                match a {
                    Action::Offline { node } => {
                        if nodes[node].offline {
                            continue;
                        }
                        nodes[node].offline = true;
                        nodes[node].offline_epoch = Some(epoch);
                        action_log.push(format!("offline node {node}"));
                        if let Some(ji) = occupant[node] {
                            // Displace: the job loses all progress and
                            // re-queues for a fresh attempt.
                            let assigned = match &states[ji] {
                                JobState::Running { nodes: ns, .. } => ns.clone(),
                                _ => unreachable!("occupant is running"),
                            };
                            for &nid in &assigned {
                                occupant[nid] = None;
                            }
                            states[ji] = JobState::Queued;
                            attempts[ji] += 1;
                            outcomes[ji].displaced += 1;
                            displaced_total += 1;
                            action_log.push(format!("displace job {ji}"));
                        }
                    }
                    Action::SetMode { node, mode } => {
                        if nodes[node].offline || nodes[node].mode == mode {
                            continue;
                        }
                        nodes[node].mode = mode;
                        action_log.push(format!("node {node} mode -> {}", mode.short_label()));
                    }
                }
            }
        }

        epochs.push(EpochRecord {
            epoch,
            queued: states
                .iter()
                .filter(|s| matches!(s, JobState::Queued))
                .count(),
            running: states
                .iter()
                .filter(|s| matches!(s, JobState::Running { .. }))
                .count(),
            completed: states
                .iter()
                .filter(|s| matches!(s, JobState::Completed))
                .count(),
            displaced_total,
            offline_nodes: nodes.iter().filter(|n| n.offline).count(),
            ce_events: epoch_ce,
            actions: action_log,
        });
    }

    if states.iter().any(|s| !matches!(s, JobState::Completed)) {
        truncated = true;
    }

    Ok(FleetOutcome {
        policy: spec.policy.name().to_string(),
        placement: spec.placement.name().to_string(),
        seed: spec.seed,
        jobs: outcomes,
        nodes,
        epochs,
        offline_node_epochs,
        truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FleetSpec;

    fn small_spec(policy: &str) -> FleetSpec {
        FleetSpec::parse(&format!(
            r#"{{
            "seed": 42, "epochs": 8,
            "cluster": {{
                "nodes": 8, "mode": "sw",
                "mtbce": {{"dist": "uniform", "min": "8ms", "max": "15ms"}},
                "hot_fraction": 0.25, "hot_scale": 0.15
            }},
            "jobs": [{{"app": "miniFE", "nodes": 4, "count": 3, "steps": 2, "epochs": 2}}],
            "placement": "packed",
            "policy": {policy}
        }}"#
        ))
        .expect("test spec parses")
    }

    #[test]
    fn static_fleet_completes_all_jobs() {
        let spec = small_spec(r#"{"kind": "static"}"#);
        let out = run_fleet(&spec, &ScheduleCache::new(8)).unwrap();
        assert_eq!(out.completed_jobs(), 3);
        assert!(!out.truncated);
        assert_eq!(out.displaced_total(), 0);
        assert!(out.total_ce_events() > 0, "sw logging at ~10ms must inject");
        for j in &out.jobs {
            assert!(j.completed);
            let s = j.slowdown_pct.expect("not diverged at these rates");
            assert!(s > 0.0, "job {} slowdown {s}", j.id);
        }
        // Percentiles are well-formed and ordered.
        let p50 = out.slowdown_percentile(50.0).unwrap();
        let p99 = out.slowdown_percentile(99.0).unwrap();
        assert!(p50 <= p99);
    }

    #[test]
    fn conservation_holds_every_epoch() {
        let spec = small_spec(
            r#"{"kind": "threshold_offline", "ce_per_epoch": 1, "max_offline_fraction": 0.5}"#,
        );
        let out = run_fleet(&spec, &ScheduleCache::new(8)).unwrap();
        for e in &out.epochs {
            assert_eq!(
                e.queued + e.running + e.completed,
                3,
                "epoch {}: {e:?}",
                e.epoch
            );
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let spec = small_spec(
            r#"{"kind": "threshold_offline", "ce_per_epoch": 100, "max_offline_fraction": 0.25}"#,
        );
        let a = run_fleet(&spec, &ScheduleCache::new(8)).unwrap();
        let b = run_fleet(&spec, &ScheduleCache::new(8)).unwrap();
        assert_eq!(a.jobs, b.jobs);
        assert_eq!(a.epochs, b.epochs);
        assert_eq!(a.offline_node_epochs, b.offline_node_epochs);
    }

    #[test]
    fn offline_policy_displaces_and_requeues() {
        // Threshold 1: every node with any CE is a candidate; half the
        // cluster may go offline. Displaced jobs must still finish on
        // surviving nodes (8 nodes, 4-node jobs, cap 4 offline).
        let spec = small_spec(
            r#"{"kind": "threshold_offline", "ce_per_epoch": 1, "max_offline_fraction": 0.5}"#,
        );
        let out = run_fleet(&spec, &ScheduleCache::new(8)).unwrap();
        assert!(
            out.offline_node_epochs > 0,
            "an aggressive threshold must cost capacity"
        );
        let last = out.epochs.last().unwrap();
        assert!(last.offline_nodes > 0);
        assert!(
            out.epochs.iter().any(|e| !e.actions.is_empty()),
            "actions must be logged"
        );
    }

    #[test]
    fn mode_switch_changes_final_modes() {
        let spec = small_spec(r#"{"kind": "mode_switch", "ce_per_epoch": 1, "to_mode": "hw"}"#);
        let out = run_fleet(&spec, &ScheduleCache::new(8)).unwrap();
        assert!(
            out.nodes.iter().any(|n| n.mode != n.initial_mode),
            "threshold 1 must switch at least one node"
        );
        assert_eq!(out.displaced_total(), 0, "mode switches never displace");
    }

    #[test]
    fn random_placement_is_deterministic_too() {
        let mut spec = small_spec(r#"{"kind": "static"}"#);
        spec.placement = Placement::Random;
        let a = run_fleet(&spec, &ScheduleCache::new(8)).unwrap();
        let b = run_fleet(&spec, &ScheduleCache::new(8)).unwrap();
        assert_eq!(a.jobs, b.jobs);
    }

    #[test]
    fn oversized_queue_truncates_instead_of_spinning() {
        // 3 jobs x 4 nodes on 8 nodes with an epoch cap of 1: one epoch
        // runs two jobs, then the cap strands the third.
        let mut spec = small_spec(r#"{"kind": "static"}"#);
        spec.max_epochs = 1;
        let out = run_fleet(&spec, &ScheduleCache::new(8)).unwrap();
        assert!(out.truncated);
        let incomplete: Vec<_> = out.jobs.iter().filter(|j| !j.completed).collect();
        assert!(!incomplete.is_empty());
        for j in incomplete {
            assert_eq!(j.slowdown_pct, None);
            assert_eq!(j.end_epoch, None);
        }
    }

    #[test]
    fn schedule_cache_is_shared_across_jobs() {
        let spec = small_spec(r#"{"kind": "static"}"#);
        let cache = ScheduleCache::new(8);
        run_fleet(&spec, &cache).unwrap();
        // 3 identical jobs x 2 slices each: one compile, the rest hits.
        assert_eq!(cache.misses(), 1, "identical jobs share one compile");
        assert!(cache.hits() >= 5);
    }
}
