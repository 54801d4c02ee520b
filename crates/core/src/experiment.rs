//! A single measurement cell of the study.
//!
//! One [`Experiment`] compares a noise-free baseline run of a workload
//! against `reps` replicated runs with CE detours injected, and reports
//! the mean slowdown — the y-axis of every evaluation figure in the
//! paper. The paper averages "at least eight simulations" per bar; the
//! default here is smaller for tractability and configurable throughout.
//!
//! **Divergence guard.** When the per-event cost approaches the MTBCE,
//! per-node utilization `ρ = detour/mtbce → 1` and the workload cannot
//! make forward progress (the paper drops such points, e.g. firmware
//! logging at `MTBCE = 0.2 s` in Fig. 7). Experiments whose `ρ` exceeds
//! [`DIVERGENCE_LIMIT`] are not simulated; their outcome reports
//! `slowdown = None`.
//!
//! **One replica path.** Every caller — figure cells, [`run`], `cesim
//! run`, `/v1/simulate` and fleet slices — holds a [`ForkTable`]
//! ([`ForkTable::build`]: the compiled schedule and its parameters, with
//! snapshots of their noise-free run), and every unobserved serial
//! replica is answered by [`ForkTable::answer`] with nothing but its
//! noise model, so it may skip the noise-free prefix and rejoin the
//! baseline before its end. [`run_against_table`] runs a cell's replicas
//! against a table; [`run_against_baseline_compiled`] is the one wrapper
//! for callers that hold only a finish time.

use crate::seed::rep_seed;
use cesim_engine::{
    simulate_compiled_sharded, CompiledSchedule, Fork, ForkRun, ForkTable, SimError, SimResult,
    Simulator,
};
use cesim_model::{LogGopsParams, LoggingMode, Span, Time};
use cesim_noise::{CeNoise, Scope};
use cesim_obs::critical::Attribution;
use cesim_obs::provenance::ProvenanceSummary;
use cesim_obs::TimelineRecorder;
use cesim_workloads::{natural_ranks, AppId, WorkloadConfig};
use rayon::prelude::*;
use std::sync::Arc;

/// Per-node CE-handling utilization above which a configuration is
/// treated as "no forward progress" instead of being simulated.
pub const DIVERGENCE_LIMIT: f64 = 0.95;

/// One measurement cell: workload × scale × logging × rate × scope.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Workload under test.
    pub app: AppId,
    /// Simulated node count (one rank per node, as in the paper).
    pub nodes: usize,
    /// Logging mode (determines the per-event detour).
    pub mode: LoggingMode,
    /// Mean time between CEs per node.
    pub mtbce: Span,
    /// All nodes (Figs. 4–7) or a single node (Fig. 3).
    pub scope: Scope,
    /// Perturbed replicas to average.
    pub reps: u32,
    /// Base seed; replica `i` uses [`rep_seed`]`(seed, i)`, so the
    /// replica stream is a pure function of `(seed, i)` regardless of
    /// execution order or thread count.
    pub seed: u64,
    /// Network/CPU model.
    pub params: LogGopsParams,
    /// Workload generation knobs.
    pub workload: WorkloadConfig,
    /// Intra-run event-loop shards (`1` = the serial engine; `N > 1`
    /// partitions ranks into `N` lookahead-windowed shards, byte-identical
    /// output — see `cesim_engine::shard`).
    pub shards: usize,
}

impl Experiment {
    /// An experiment with paper-default knobs (XC40 network, firmware
    /// logging, 1-hour MTBCE, all-node scope, 3 reps).
    pub fn new(app: AppId, nodes: usize) -> Self {
        Experiment {
            app,
            nodes,
            mode: LoggingMode::Firmware,
            mtbce: Span::from_secs(3600),
            scope: Scope::AllRanks,
            reps: 3,
            seed: 0xCE11,
            params: LogGopsParams::xc40(),
            workload: WorkloadConfig::default(),
            shards: 1,
        }
    }

    /// Set the logging mode.
    pub fn mode(mut self, mode: LoggingMode) -> Self {
        self.mode = mode;
        self
    }

    /// Set the per-node MTBCE.
    pub fn mtbce(mut self, mtbce: Span) -> Self {
        self.mtbce = mtbce;
        self
    }

    /// Set the injection scope.
    pub fn scope(mut self, scope: Scope) -> Self {
        self.scope = scope;
        self
    }

    /// Set the replica count.
    pub fn reps(mut self, reps: u32) -> Self {
        self.reps = reps.max(1);
        self
    }

    /// Set the base seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the workload step count.
    pub fn steps(mut self, steps: usize) -> Self {
        self.workload.steps_override = Some(steps);
        self
    }

    /// Set the intra-run shard count (`1` = serial event loop).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Per-node CE-handling utilization `ρ = detour / mtbce`.
    pub fn utilization(&self) -> f64 {
        self.mode.per_event_cost().as_secs_f64() / self.mtbce.as_secs_f64()
    }

    /// Whether the divergence guard will skip simulation.
    pub fn diverges(&self) -> bool {
        self.utilization() >= DIVERGENCE_LIMIT
    }
}

/// Observability record for one recorded replica: critical-path
/// attribution plus the per-event detour-provenance summary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReplicaObs {
    /// Replica index the recording came from.
    pub rep: u32,
    /// Critical-path makespan attribution.
    pub attr: Attribution,
    /// Detour-provenance summary (absorbed/propagated counts and
    /// amplification percentiles; see `cesim_obs::provenance`).
    pub prov: ProvenanceSummary,
    /// Events retained by the ring buffer.
    pub events: u64,
    /// Events dropped by the ring buffer (0 = complete timeline).
    pub dropped: u64,
}

/// Per-cell observability: the first `observe_replicas` replicas of the
/// cell, recorded and summarized (see [`run_against_table`]),
/// plus aggregation helpers that the CSV reporting layer uses for
/// mean/stddev columns.
#[derive(Clone, Debug, PartialEq)]
pub struct CellObs {
    /// One entry per observed replica, ascending replica index. Never
    /// empty (a cell with nothing recorded carries no `CellObs`).
    pub replicas: Vec<ReplicaObs>,
}

impl CellObs {
    /// The first observed replica (replica 0).
    pub fn first(&self) -> &ReplicaObs {
        &self.replicas[0]
    }

    /// Mean and sample standard deviation of a per-replica metric
    /// (stddev 0 with fewer than two replicas).
    pub fn mean_sd(&self, f: impl Fn(&ReplicaObs) -> f64) -> (f64, f64) {
        let n = self.replicas.len();
        let xs: Vec<f64> = self.replicas.iter().map(f).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        if n < 2 {
            return (mean, 0.0);
        }
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        (mean, var.sqrt())
    }

    /// Mean detours per replica that never left their own rank
    /// (absorbed + partially absorbed).
    pub fn mean_absorbed(&self) -> f64 {
        self.mean_sd(|r| (r.prov.absorbed + r.prov.partially_absorbed) as f64)
            .0
    }

    /// Mean detours per replica that delayed other ranks or the makespan.
    pub fn mean_propagated(&self) -> f64 {
        self.mean_sd(|r| r.prov.propagated as f64).0
    }

    /// Largest amplification factor in any observed replica.
    pub fn max_amplification(&self) -> f64 {
        self.replicas
            .iter()
            .map(|r| r.prov.max_amplification)
            .fold(0.0, f64::max)
    }

    /// Mean 99th-percentile amplification across observed replicas.
    pub fn p99_amplification(&self) -> f64 {
        self.mean_sd(|r| r.prov.p99_amplification).0
    }
}

/// One perturbed replica's result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunStats {
    /// Completion time of the perturbed run.
    pub finish: Span,
    /// CE detours injected during the run.
    pub ce_events: u64,
    /// Engine events processed (for throughput reporting). A replica
    /// resumed from a baseline snapshot counts only the events after it,
    /// one that rejoined the baseline only those before the rejoin point,
    /// and one answered by the baseline counts `0`.
    pub events: u64,
    /// Engine events a full run would process that the replica did not:
    /// the noise-free prefix it resumed past plus the baseline suffix it
    /// rejoined before (`0` for a cold run to the end, and for a replica
    /// answered by the baseline). `events + skipped` is what a full run
    /// processes.
    pub skipped: u64,
    /// The suffix part of `skipped`: engine events of the baseline after
    /// the snapshot the replica rejoined at (`0` unless it rejoined).
    pub suffix: u64,
}

impl RunStats {
    /// The stats of an engine run that skipped `prefix` events before
    /// it and `suffix` events after it.
    fn of(r: &SimResult, prefix: u64, suffix: u64) -> Self {
        RunStats {
            finish: r.finish.since(Time::ZERO),
            ce_events: r.noise_events,
            events: r.events_processed,
            skipped: prefix + suffix,
            suffix,
        }
    }

    /// Engine events of the noise-free prefix a resumed replica skipped.
    pub fn prefix(&self) -> u64 {
        self.skipped - self.suffix
    }

    /// The stats of a replica [`ForkTable::answer`] answered from
    /// `table` with `run`. `None` is the noise-free run, which the engine
    /// did not process again. All four answers are bit-identical to a
    /// full run, apart from the event counts ([`RunStats::events`],
    /// [`RunStats::skipped`], [`RunStats::suffix`]).
    pub fn answered(table: &ForkTable, run: Option<ForkRun>) -> Self {
        match run {
            Some(run) => Self::of(&run.result, run.prefix, run.suffix),
            None => RunStats {
                finish: table.finish().since(Time::ZERO),
                ce_events: 0,
                events: 0,
                skipped: 0,
                suffix: 0,
            },
        }
    }
}

/// Aggregated result of an [`Experiment`].
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The workload.
    pub app: AppId,
    /// Ranks actually simulated (after [`natural_ranks`] snapping).
    pub ranks: usize,
    /// Noise-free completion time.
    pub baseline: Span,
    /// Per-replica results; empty when the divergence guard fired.
    pub runs: Vec<RunStats>,
    /// True when the configuration was treated as "no forward progress".
    pub diverged: bool,
    /// Observability summaries of the recorded replicas; `None` unless
    /// the experiment ran with a non-zero `observe_replicas` count (see
    /// [`run_against_table`]).
    pub obs: Option<CellObs>,
}

impl Outcome {
    /// Mean perturbed completion time, if simulated.
    pub fn mean_finish(&self) -> Option<Span> {
        if self.runs.is_empty() {
            return None;
        }
        let total: Span = self.runs.iter().map(|r| r.finish).sum();
        Some(total / self.runs.len() as u64)
    }

    /// Mean slowdown versus baseline, in percent; `None` when diverged.
    pub fn mean_slowdown_pct(&self) -> Option<f64> {
        let m = self.mean_finish()?;
        Some((m.as_secs_f64() / self.baseline.as_secs_f64() - 1.0) * 100.0)
    }

    /// Mean CE events injected per replica.
    pub fn mean_ce_events(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.runs.iter().map(|r| r.ce_events as f64).sum::<f64>() / self.runs.len() as f64
    }

    /// Sample standard deviation of the slowdown across replicas (percent).
    pub fn slowdown_stddev_pct(&self) -> Option<f64> {
        if self.runs.len() < 2 {
            return None;
        }
        let b = self.baseline.as_secs_f64();
        let xs: Vec<f64> = self
            .runs
            .iter()
            .map(|r| (r.finish.as_secs_f64() / b - 1.0) * 100.0)
            .collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        Some(var.sqrt())
    }

    /// An approximate 95% confidence interval on the mean slowdown
    /// (percent), using Student's t critical values for small replica
    /// counts. `None` with fewer than two replicas or when diverged.
    pub fn slowdown_ci95_pct(&self) -> Option<(f64, f64)> {
        let mean = self.mean_slowdown_pct()?;
        let sd = self.slowdown_stddev_pct()?;
        let n = self.runs.len() as f64;
        // Two-sided 97.5% t critical values for df = n-1 (df 1..=30).
        const T: [f64; 30] = [
            12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179,
            2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
            2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
        ];
        let df = (self.runs.len() - 1).min(T.len());
        let t = T[df - 1];
        let half = t * sd / n.sqrt();
        Some((mean - half, mean + half))
    }
}

/// Run an experiment: build and compile the schedule, simulate the
/// baseline into its fork table ([`ForkTable::build`]), then the
/// perturbed replicas (unless the divergence guard fires).
pub fn run(exp: &Experiment) -> Result<Outcome, SimError> {
    let ranks = natural_ranks(exp.app, exp.nodes);
    let sched = cesim_workloads::build_periodic(exp.app, ranks, &exp.workload);
    let cs = Arc::new(
        CompiledSchedule::compile_periodic(sched).expect("workload skeletons repeat exactly"),
    );
    let (table, _) = ForkTable::build(cs, &exp.params)?;
    run_against_table(exp, &table, 0)
}

/// [`run_against_table`] for callers that hold only the noise-free
/// finish `baseline` of `cs` (with `ranks` ranks) under `exp.params`, not
/// its fork table: the table holds only that terminal entry, so a
/// replica is answered by the baseline or simulated from the start,
/// never resumed or rejoined. Outcomes equal those against a full table
/// except for the event counts.
pub fn run_against_baseline_compiled(
    exp: &Experiment,
    ranks: usize,
    cs: &Arc<CompiledSchedule>,
    baseline: Time,
    observe_replicas: usize,
) -> Result<Outcome, SimError> {
    debug_assert_eq!(ranks, cs.num_ranks());
    let table = ForkTable::terminal(Arc::clone(cs), &exp.params, baseline);
    run_against_table(exp, &table, observe_replicas)
}

/// The replicas of `exp` against `table`: its compiled schedule, shared
/// by every replica and cell (workers clone the [`Arc`], never the
/// schedule, and reuse per-thread [`cesim_engine::RunScratch`] state
/// across runs), the parameters its baseline ran under (which replace
/// `exp.params`), and its snapshots.
///
/// **Replica paths.** Unobserved serial replicas use every entry of the
/// fork table ([`ForkTable::answer`]). Unobserved sharded replicas use
/// only the terminal entry. Observed replicas always simulate in full on
/// the serial engine, whatever `exp.shards` is, since they need the
/// timeline and only the serial engine records one.
///
/// **Determinism contract.** The recorder never alters simulation state
/// (the engine's instrumentation only observes), each replica still
/// derives its RNG stream from stable coordinates, and each recorder is
/// private to its replica's job — so outcomes (and any CSV rendered from
/// them) are byte-identical for every thread count and shard count, with
/// or without observation or a fork table, apart from the event counts
/// ([`RunStats::events`], [`RunStats::skipped`]).
///
/// `observe_replicas` is the number of leading replicas (`rep <
/// observe_replicas`) to record and summarize; `0` disables observation
/// entirely.
pub fn run_against_table(
    exp: &Experiment,
    table: &ForkTable,
    observe_replicas: usize,
) -> Result<Outcome, SimError> {
    let (cs, params) = (table.schedule(), table.params());
    let ranks = cs.num_ranks();
    let baseline_span = table.finish().since(Time::ZERO);
    if exp.diverges() {
        return Ok(Outcome {
            app: exp.app,
            ranks,
            baseline: baseline_span,
            runs: Vec::new(),
            diverged: true,
            obs: None,
        });
    }
    let detour = exp.mode.per_event_cost();
    // When the calling thread carries a request-trace context (serve),
    // propagate it into the replica jobs: each replica runs under its
    // own span. Purely observational — replicas are seeded from stable
    // coordinates either way, so results are byte-identical.
    let trace = cesim_obs::tracectx::current();
    let trace = trace.as_ref();
    // Each replica is a self-contained job — its own noise model, seeded
    // from stable coordinates — so the replicas parallelize freely and
    // results are reassembled in replica order (identical to serial).
    let results: Vec<Result<(RunStats, Option<ReplicaObs>), SimError>> = (0..exp.reps)
        .into_par_iter()
        .map(|rep| {
            let _trace_guard = trace.map(|t| t.install());
            let _rep_span =
                trace.and_then(|_| cesim_obs::tracectx::begin_dyn(format!("replica {rep}")));
            let mut noise =
                CeNoise::new(ranks, exp.mtbce, detour, exp.scope, rep_seed(exp.seed, rep));
            if (rep as usize) < observe_replicas {
                let mut rec = TimelineRecorder::for_ops(cs.total_ops());
                let r = Simulator::from_compiled(Arc::clone(cs), *params)
                    .with_recorder(&mut rec)
                    .run(&mut noise)?;
                let events = rec.events();
                let attr = cesim_obs::critical::attribute(&events);
                let prov = cesim_obs::provenance::analyze(&events, rec.dropped()).summary();
                Ok((
                    RunStats::of(&r, 0, 0),
                    Some(ReplicaObs {
                        rep,
                        attr,
                        prov,
                        events: rec.len() as u64,
                        dropped: rec.dropped(),
                    }),
                ))
            } else if exp.shards > 1 {
                // Sharded replicas use only the terminal entry.
                match table.lookup(noise.first_arrival()) {
                    Fork::Baseline => Ok(RunStats::answered(table, None)),
                    _ => simulate_compiled_sharded(cs, params, exp.shards, &noise)
                        .map(|r| RunStats::of(&r, 0, 0)),
                }
                .map(|stats| (stats, None))
            } else {
                let run = table.answer(&mut noise)?;
                Ok((RunStats::answered(table, run), None))
            }
        })
        .collect();
    let pairs: Vec<(RunStats, Option<ReplicaObs>)> =
        results.into_iter().collect::<Result<_, _>>()?;
    // Replica order is job order, so the aggregation below is
    // deterministic regardless of worker interleaving.
    let replicas: Vec<ReplicaObs> = pairs.iter().filter_map(|(_, o)| *o).collect();
    let obs = (!replicas.is_empty()).then_some(CellObs { replicas });
    let runs: Vec<RunStats> = pairs.into_iter().map(|(r, _)| r).collect();
    Ok(Outcome {
        app: exp.app,
        ranks,
        baseline: baseline_span,
        runs,
        diverged: false,
        obs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cesim_goal::Rank;

    /// The fork table of `exp`'s workload, as [`run`] prepares it.
    fn table(exp: &Experiment) -> ForkTable {
        let ranks = natural_ranks(exp.app, exp.nodes);
        let sched = cesim_workloads::build_periodic(exp.app, ranks, &exp.workload);
        let cs = Arc::new(CompiledSchedule::compile_periodic(sched).unwrap());
        ForkTable::build(cs, &exp.params).unwrap().0
    }

    /// Each replica's results and the events a full run of it processes:
    /// everything but which of those events the engine skipped, which
    /// differs between forked and observed (always full) replicas.
    fn results(o: &Outcome) -> Vec<(Span, u64, u64)> {
        o.runs
            .iter()
            .map(|r| (r.finish, r.ce_events, r.events + r.skipped))
            .collect()
    }

    #[test]
    fn baseline_and_noise_free_mode_agree() {
        // Hardware-only logging at a huge MTBCE ≈ no noise at all.
        let exp = Experiment::new(AppId::MiniFe, 8)
            .mode(LoggingMode::HardwareOnly)
            .mtbce(Span::from_secs(1_000_000))
            .reps(1)
            .steps(3);
        let out = run(&exp).unwrap();
        let s = out.mean_slowdown_pct().unwrap();
        assert!(s.abs() < 0.1, "slowdown {s}%");
        assert!(!out.diverged);
    }

    #[test]
    fn firmware_noise_slows_things_down() {
        let exp = Experiment::new(AppId::Lulesh, 16)
            .mode(LoggingMode::Firmware)
            .mtbce(Span::from_ms(500))
            .reps(2)
            .steps(20);
        let out = run(&exp).unwrap();
        let s = out.mean_slowdown_pct().unwrap();
        assert!(s > 5.0, "expected visible slowdown, got {s}%");
        assert!(out.mean_ce_events() > 0.0);
        assert!(out.slowdown_stddev_pct().is_some());
    }

    #[test]
    fn divergence_guard_fires() {
        let exp = Experiment::new(AppId::Lulesh, 4)
            .mode(LoggingMode::Firmware)
            .mtbce(Span::from_ms(133)) // ρ = 1.0
            .steps(2);
        assert!(exp.diverges());
        let out = run(&exp).unwrap();
        assert!(out.diverged);
        assert_eq!(out.mean_slowdown_pct(), None);
        assert!(out.baseline > Span::ZERO);
    }

    #[test]
    fn single_rank_scope_limits_damage() {
        let all = Experiment::new(AppId::LammpsCrack, 16)
            .mode(LoggingMode::Software)
            .mtbce(Span::from_ms(20))
            .reps(2)
            .steps(40);
        let single = all.clone().scope(Scope::SingleRank(Rank(0)));
        let s_all = run(&all).unwrap().mean_slowdown_pct().unwrap();
        let s_one = run(&single).unwrap().mean_slowdown_pct().unwrap();
        assert!(
            s_one <= s_all + 0.5,
            "single-rank ({s_one}%) should not exceed all-ranks ({s_all}%)"
        );
    }

    #[test]
    fn lulesh_ranks_are_snapped() {
        let exp = Experiment::new(AppId::Lulesh, 260)
            .mode(LoggingMode::HardwareOnly)
            .reps(1)
            .steps(1);
        let out = run(&exp).unwrap();
        assert_eq!(out.ranks, 250);
    }

    #[test]
    fn utilization_math() {
        let exp = Experiment::new(AppId::Hpcg, 4).mtbce(Span::from_ms(266));
        assert!((exp.utilization() - 0.5).abs() < 1e-9);
        assert!(!exp.diverges());
    }

    #[test]
    fn ci95_brackets_the_mean() {
        let exp = Experiment::new(AppId::Milc, 8)
            .mode(LoggingMode::Firmware)
            .mtbce(Span::from_secs(1))
            .reps(4)
            .steps(6);
        let out = run(&exp).unwrap();
        let mean = out.mean_slowdown_pct().unwrap();
        let (lo, hi) = out.slowdown_ci95_pct().unwrap();
        assert!(lo <= mean && mean <= hi);
        assert!(hi > lo, "interval must have width under noise");
        // One replica: no interval.
        let one = Experiment::new(AppId::Milc, 4).reps(1).steps(2);
        assert_eq!(run(&one).unwrap().slowdown_ci95_pct(), None);
    }

    #[test]
    fn observed_run_attaches_summary_without_changing_results() {
        let exp = Experiment::new(AppId::Lulesh, 8)
            .mode(LoggingMode::Firmware)
            .mtbce(Span::from_secs(1))
            .reps(2)
            .steps(4);
        let table = table(&exp);
        let plain = run_against_table(&exp, &table, 0).unwrap();
        let observed = run_against_table(&exp, &table, 1).unwrap();
        // Observation is a pure add-on: replica results are identical.
        assert_eq!(results(&plain), results(&observed));
        assert!(plain.obs.is_none());
        let obs = observed.obs.expect("replica 0 was recorded");
        assert_eq!(obs.replicas.len(), 1);
        let r0 = obs.first();
        assert_eq!(r0.rep, 0);
        assert!(r0.events > 0);
        assert_eq!(r0.dropped, 0, "small schedule must fit the ring");
        // The attribution covers replica 0's makespan exactly.
        assert_eq!(r0.attr.total(), r0.attr.finish);
        assert_eq!(r0.attr.finish, observed.runs[0].finish);
        assert!(!r0.attr.truncated);
        assert!(r0.attr.compute > Span::ZERO);
        // Provenance accounted for every recorded detour.
        assert_eq!(
            r0.prov.absorbed + r0.prov.partially_absorbed + r0.prov.propagated,
            r0.prov.events
        );
    }

    #[test]
    fn multi_replica_observation_aggregates_in_replica_order() {
        let exp = Experiment::new(AppId::Lulesh, 8)
            .mode(LoggingMode::Firmware)
            .mtbce(Span::from_secs(1))
            .reps(3)
            .steps(4);
        let table = table(&exp);
        let plain = run_against_table(&exp, &table, 0).unwrap();
        let out = run_against_table(&exp, &table, 2).unwrap();
        assert_eq!(
            results(&plain),
            results(&out),
            "observation never alters results"
        );
        let obs = out.obs.unwrap();
        assert_eq!(obs.replicas.len(), 2);
        assert_eq!(obs.replicas[0].rep, 0);
        assert_eq!(obs.replicas[1].rep, 1);
        // Each replica's attribution matches its own run.
        for (i, r) in obs.replicas.iter().enumerate() {
            assert_eq!(r.attr.finish, out.runs[i].finish);
        }
        let (mean, sd) = obs.mean_sd(|r| r.attr.finish.as_secs_f64());
        assert!(mean > 0.0);
        assert!(sd >= 0.0);
        assert!(obs.max_amplification() >= 0.0);
        // Asking for more observed replicas than reps records them all.
        let capped = run_against_table(&exp, &table, 99).unwrap();
        assert_eq!(capped.obs.unwrap().replicas.len(), exp.reps as usize);
    }

    #[test]
    fn observed_sharded_replicas_equal_serial() {
        let exp = Experiment::new(AppId::Lulesh, 8)
            .mode(LoggingMode::Firmware)
            .mtbce(Span::from_secs(1))
            .reps(2)
            .steps(4);
        let table = table(&exp);
        let serial = run_against_table(&exp, &table, 2).unwrap();
        let sharded = run_against_table(&exp.clone().shards(3), &table, 2).unwrap();
        assert_eq!(serial.runs, sharded.runs);
        assert_eq!(serial.obs, sharded.obs);
        assert_eq!(sharded.obs.map(|o| o.replicas.len()), Some(2));
    }

    #[test]
    fn reps_are_independent_but_deterministic() {
        let exp = Experiment::new(AppId::Cth, 8)
            .mode(LoggingMode::Firmware)
            .mtbce(Span::from_secs(2))
            .reps(3)
            .steps(4);
        let a = run(&exp).unwrap();
        let b = run(&exp).unwrap();
        assert_eq!(a.runs, b.runs, "same seeds → same results");
        // Different replicas see different arrival streams (almost surely
        // different finish times under heavy noise).
        let distinct: std::collections::HashSet<u64> =
            a.runs.iter().map(|r| r.finish.as_ps()).collect();
        assert!(distinct.len() > 1 || a.runs[0].ce_events == 0);
    }
}
