//! `figures`: regenerate Fig. 3 and Fig. 6 through `cesim_core::figures`.
//!
//! Many small cells at small rank counts put the time into the event loop
//! at small wave counts. Fig. 3 puts noise on one rank, so most ranks stay
//! in lockstep and deliveries arrive in large same-time batches; Fig. 6 puts
//! heavy noise on every rank, which desynchronizes them and makes noise
//! draws heavy. A queue change tuned for one regime shows its cost on the
//! other.

use crate::harness::{self, phase, secs, EngineStats, Layers, Pass, Phases, Scale, Workload};
use cesim_core::figures::{self, FigureData, ScaleConfig};
use cesim_core::model::{LoggingMode, Span};
use cesim_core::obs::tracectx;
use cesim_core::report::figure_csv;
use cesim_core::workloads::{AppId, WorkloadConfig};
use std::time::Instant;

pub struct Figures {
    fig3: ScaleConfig,
    fig6: ScaleConfig,
    /// A one-app, 8-node Fig. 3: the set-up call that lets lazy state
    /// (thread start-up, allocator arenas) settle before timing.
    warm: ScaleConfig,
    last: Option<(FigureData, FigureData)>,
}

impl Figures {
    pub fn new(seed: u64, scale: Scale) -> Figures {
        let cfg = |nodes: usize| ScaleConfig {
            nodes,
            reps: 2,
            steps_scale: scale.pick(0.125, 0.05),
            seed,
            apps: scale.pick(AppId::all().to_vec(), vec![AppId::Lulesh, AppId::Hpcg]),
            ..ScaleConfig::default()
        };
        Figures {
            fig3: cfg(scale.pick(64, 16)),
            fig6: cfg(scale.pick(128, 16)),
            warm: ScaleConfig {
                nodes: 8,
                reps: 1,
                steps_scale: 0.05,
                seed,
                apps: vec![AppId::Lulesh],
                ..ScaleConfig::default()
            },
            last: None,
        }
    }
}

/// Fig. 3's firmware cells at MTBCE = 1 ms must be no-progress cells
/// (utilization 133 ms / 1 ms, far above the divergence limit), and every
/// hardware-only cell must have simulated.
fn check(f3: &FigureData, f6: &FigureData, apps: usize) -> Result<(), String> {
    if f3.cells.len() != 7 * 3 * apps || f6.cells.len() != 3 * 3 * apps {
        return Err(format!(
            "figures: expected {} fig3 and {} fig6 cells, got {} and {}",
            21 * apps,
            9 * apps,
            f3.cells.len(),
            f6.cells.len()
        ));
    }
    for c in f3.cells.iter().chain(&f6.cells) {
        let fw_1ms = c.mode == LoggingMode::Firmware && c.mtbce == Span::from_ms(1);
        let hw = c.mode == LoggingMode::HardwareOnly;
        if (fw_1ms && c.slowdown_pct.is_some()) || (hw && c.slowdown_pct.is_none()) {
            return Err(format!(
                "figures: {} {} {}: slowdown {:?}",
                c.app,
                c.group,
                c.mode.short_label(),
                c.slowdown_pct
            ));
        }
    }
    Ok(())
}

impl Workload for Figures {
    fn setup_reps(&self) -> usize {
        5
    }

    fn setup(&mut self) -> Result<(), String> {
        figures::fig3(&self.warm);
        Ok(())
    }

    fn pass(&mut self) -> Result<Pass, String> {
        let t = Instant::now();
        let f3 = {
            let _s = tracectx::begin("core.figures fig3");
            figures::fig3(&self.fig3)
        };
        let f6 = {
            let _s = tracectx::begin("core.figures fig6");
            figures::fig6(&self.fig6)
        };
        let wall_s = secs(t);
        check(&f3, &f6, self.fig3.apps.len())?;
        let csv = figure_csv(&f3) + &figure_csv(&f6);
        let pass = Pass {
            wall_s,
            digest: harness::digest(csv.as_bytes()),
            attempted: (f3.cells.len() + f6.cells.len()) as u64,
            ..Pass::default()
        };
        self.last = Some((f3, f6));
        Ok(pass)
    }

    fn layers(&mut self, pass: &Pass, phases: &Phases) -> Result<Layers, String> {
        // Stage 1 of each figure, replayed with the keys `run_figure`
        // uses: one schedule per app, seeded `seed ^ app index`.
        let mut keys = Vec::new();
        for cfg in [&self.fig3, &self.fig6] {
            for (ai, app) in cfg.apps.iter().enumerate() {
                let wl = WorkloadConfig {
                    steps_scale: cfg.steps_scale,
                    seed: cfg.seed ^ ai as u64,
                    ..WorkloadConfig::default()
                };
                keys.push((*app, cfg.nodes, wl));
            }
        }
        let stats: EngineStats = harness::replay(&keys)?;
        let (f3, f6) = self.last.as_ref().ok_or("figures: no pass ran")?;
        let cells = || f3.cells.iter().chain(&f6.cells);
        let ce_events: f64 = cells()
            .filter(|c| c.slowdown_pct.is_some())
            .map(|c| (c.ce_events * f64::from(self.fig3.reps)).round())
            .sum();
        // The phases are summed over the sweep's worker threads; dividing
        // by the pool size turns them into shares of the pass's wall time.
        let threads = rayon::current_num_threads() as f64;
        let build = phase(phases, "build") / threads;
        let compile = phase(phases, "compile") / threads;
        let baseline = phase(phases, "baseline") / threads;
        let replica = phase(phases, "cell_run") / threads;
        let mut out: Layers = vec![
            ("workloads.build_s", build),
            ("engine.compile_s", compile),
            ("engine.baseline_s", baseline),
            ("engine.replica_s", replica),
            (
                "core.other_s",
                pass.wall_s - build - compile - baseline - replica,
            ),
            ("noise.ce_events", ce_events),
            ("cache.schedule_hits", 0.0),
            ("cache.schedule_misses", 0.0),
            ("cache.response_hits", 0.0),
            ("cache.response_misses", 0.0),
            (
                "core.figures.cell_aggregate_s",
                phase(phases, "cell_aggregate") / threads,
            ),
            ("core.figures.cells", cells().count() as f64),
        ];
        stats.count_layers(&mut out);
        Ok(out)
    }
}
