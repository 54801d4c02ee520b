//! `large_run`: one experiment per app at thousands of ranks, driven
//! through the public pipeline `build → compile → simulate_compiled(NoNoise)
//! → run_against_baseline_compiled`.
//!
//! The only workload with thousands of ranks, where the per-event engine
//! cost that grows with rank count dominates and the working set is far
//! larger than the CPU caches. The baseline is one serial run, so it also
//! shows the core that sits idle while it runs. Build and compile are the
//! set-up.

use crate::harness::{self, secs, EngineStats, Layers, Pass, Phases, Scale, Workload};
use cesim_core::engine::{simulate_compiled, CompiledSchedule, NoNoise, SimResult};
use cesim_core::experiment::{run_against_baseline_compiled, Experiment, RunStats};
use cesim_core::model::{LogGopsParams, LoggingMode, Span, Time};
use cesim_core::obs::tracectx;
use cesim_core::workloads::{natural_ranks, AppId, WorkloadConfig};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

struct Prepared {
    exp: Experiment,
    ranks: usize,
    cs: Arc<CompiledSchedule>,
    build_s: f64,
    compile_s: f64,
}

/// What the last pass measured for each app, for the per-layer report.
struct AppPass {
    base: SimResult,
    baseline_s: f64,
    replica_s: f64,
    runs: Vec<RunStats>,
}

pub struct LargeRun {
    exps: Vec<Experiment>,
    prepared: Vec<Prepared>,
    last: Vec<AppPass>,
}

impl LargeRun {
    pub fn new(seed: u64, scale: Scale) -> LargeRun {
        let exp = |app: AppId, nodes: usize, i: u64| {
            let mut e = Experiment::new(app, nodes)
                .mode(LoggingMode::Software)
                .mtbce(Span::from_secs(1))
                .reps(2)
                .seed(cesim_core::seed::mix(seed, i))
                .steps(1);
            e.workload = WorkloadConfig {
                seed: cesim_core::seed::mix(seed, 100 + i),
                ..e.workload
            };
            e
        };
        LargeRun {
            exps: vec![
                exp(AppId::Lulesh, scale.pick(2048, 256), 0),
                exp(AppId::LammpsLj, scale.pick(2048, 512), 1),
            ],
            prepared: Vec::new(),
            last: Vec::new(),
        }
    }
}

impl Workload for LargeRun {
    fn setup_reps(&self) -> usize {
        3
    }

    fn setup(&mut self) -> Result<(), String> {
        // Drop the previous set-up first so peak memory holds one copy.
        self.prepared.clear();
        for exp in &self.exps {
            let ranks = natural_ranks(exp.app, exp.nodes);
            let t = Instant::now();
            let sched = cesim_core::workloads::build(exp.app, ranks, &exp.workload);
            let build_s = secs(t);
            let t = Instant::now();
            let cs = Arc::new(CompiledSchedule::compile(&sched));
            let compile_s = secs(t);
            self.prepared.push(Prepared {
                exp: exp.clone(),
                ranks,
                cs,
                build_s,
                compile_s,
            });
        }
        Ok(())
    }

    fn pass(&mut self) -> Result<Pass, String> {
        let t = Instant::now();
        let mut apps = Vec::new();
        for p in &self.prepared {
            let t_base = Instant::now();
            let base = {
                let _s = tracectx::begin_dyn(format!("engine.baseline {}", p.exp.app));
                simulate_compiled(&p.cs, &LogGopsParams::xc40(), &mut NoNoise)
                    .map_err(|e| format!("large_run {} baseline: {e}", p.exp.app))?
            };
            let baseline_s = secs(t_base);
            let t_rep = Instant::now();
            let out = {
                let _s = tracectx::begin_dyn(format!("engine.replicas {}", p.exp.app));
                run_against_baseline_compiled(&p.exp, p.ranks, &p.cs, base.finish, 0)
                    .map_err(|e| format!("large_run {} replicas: {e}", p.exp.app))?
            };
            apps.push(AppPass {
                base,
                baseline_s,
                replica_s: secs(t_rep),
                runs: out.runs,
            });
        }
        let wall_s = secs(t);

        let mut text = String::new();
        let mut pass = Pass {
            wall_s,
            ..Pass::default()
        };
        for (p, a) in self.prepared.iter().zip(&apps) {
            let baseline = a.base.finish.since(Time::ZERO);
            let _ = write!(text, "{} {}:", p.exp.app, baseline.as_ps());
            for r in &a.runs {
                // CE noise only ever delays a run.
                if r.finish < baseline {
                    return Err(format!(
                        "large_run {}: replica finished at {} with {} CEs against baseline {}",
                        p.exp.app, r.finish, r.ce_events, baseline
                    ));
                }
                let _ = write!(text, " {}/{}", r.finish.as_ps(), r.ce_events);
            }
            text.push('\n');
            pass.attempted += 1 + a.runs.len() as u64;
            pass.events += a.base.events_processed + a.runs.iter().map(|r| r.events).sum::<u64>();
        }
        pass.digest = harness::digest(text.as_bytes());
        self.last = apps;
        Ok(pass)
    }

    fn layers(&mut self, pass: &Pass, _phases: &Phases) -> Result<Layers, String> {
        let mut stats = EngineStats::default();
        let (mut replica_s, mut replica_events, mut ce_events) = (0.0, 0u64, 0u64);
        for (p, a) in self.prepared.iter().zip(&self.last) {
            stats.add(&p.cs, &a.base);
            stats.build_s += p.build_s;
            stats.compile_s += p.compile_s;
            stats.baseline_s += a.baseline_s;
            replica_s += a.replica_s;
            replica_events += a.runs.iter().map(|r| r.events).sum::<u64>();
            ce_events += a.runs.iter().map(|r| r.ce_events).sum::<u64>();
        }
        // Replicas run in parallel, one per pool thread: busy time per
        // event is the call time times the threads it kept busy.
        let busy = self.exps[0].reps.min(rayon::current_num_threads() as u32);
        let replica_ns = replica_s * f64::from(busy) * 1e9 / replica_events.max(1) as f64;
        let mut out: Layers = vec![
            // Build and compile are the set-up: the values of the last one.
            ("workloads.build_s", stats.build_s),
            ("engine.compile_s", stats.compile_s),
            ("engine.baseline_s", stats.baseline_s),
            ("engine.replica_s", replica_s),
            ("core.other_s", pass.wall_s - stats.baseline_s - replica_s),
            ("noise.ce_events", ce_events as f64),
            ("cache.schedule_hits", 0.0),
            ("cache.schedule_misses", 0.0),
            ("cache.response_hits", 0.0),
            ("cache.response_misses", 0.0),
            ("engine.replica_events", replica_events as f64),
            ("engine.replica_ns_per_event", replica_ns),
            (
                "noise.extra_ns_per_event",
                replica_ns - stats.baseline_ns_per_event(),
            ),
        ];
        stats.count_layers(&mut out);
        Ok(out)
    }
}
