//! `fleet_4k`: a 4,096-node fleet scenario through `cesim_fleet::run_fleet`.
//!
//! About a thousand short jobs (8–64 ranks, 2–4 steps per slice) make
//! per-run fixed costs dominate rather than per-event costs, and placement
//! rebuilds the free-node list for every queued job, work no other workload
//! does. The committed spec (`fleet_4k.json`) gets the run's seed; the
//! smoke scale shrinks the cluster and the job counts 16-fold. Nodes log in
//! software mode: with firmware's 133 ms detours the slices of the hottest
//! nodes hit the divergence guard and are skipped, and the pass time moved
//! by up to a quarter from seed to seed.

use crate::harness::{self, phase, secs, Layers, Pass, Phases, Scale, Workload};
use cesim_core::obs::tracectx;
use cesim_core::workloads::WorkloadConfig;
use cesim_core::ScheduleCache;
use cesim_fleet::{build_cluster, jobs_csv, nodes_csv, run_fleet, FleetOutcome, FleetSpec};
use cesim_json::JsonValue;
use std::time::Instant;

const SPEC: &str = include_str!("../fleet_4k.json");

/// Schedule-cache capacity, as `cesim fleet` uses it.
const CACHE_ENTRIES: usize = 64;

pub struct Fleet {
    text: String,
    spec: Option<FleetSpec>,
    last: Option<(FleetOutcome, u64, u64)>,
}

impl Fleet {
    pub fn new(seed: u64, scale: Scale) -> Result<Fleet, String> {
        let mut v = JsonValue::parse(SPEC).map_err(|e| format!("fleet_4k.json: {e}"))?;
        let JsonValue::Object(top) = &mut v else {
            return Err("fleet_4k.json: not an object".into());
        };
        top.insert("seed".into(), seed.into());
        if scale == Scale::Smoke {
            let shrink = |v: &mut JsonValue| {
                if let Some(n) = v.as_u64() {
                    *v = (n / 16).max(1).into();
                }
            };
            if let Some(JsonValue::Object(c)) = top.get_mut("cluster") {
                c.get_mut("nodes").into_iter().for_each(shrink);
            }
            if let Some(JsonValue::Array(jobs)) = top.get_mut("jobs") {
                for j in jobs {
                    if let JsonValue::Object(j) = j {
                        j.get_mut("count").into_iter().for_each(shrink);
                    }
                }
            }
        }
        Ok(Fleet {
            text: v.to_json(),
            spec: None,
            last: None,
        })
    }
}

/// Job slices simulated: every job that ran in an epoch is still running
/// at its end, completed in it, or was displaced at its end.
fn slices(out: &FleetOutcome) -> u64 {
    let (mut completed, mut displaced, mut total) = (0, 0, 0);
    for e in &out.epochs {
        total += (e.running + e.completed - completed) as u64 + e.displaced_total - displaced;
        completed = e.completed;
        displaced = e.displaced_total;
    }
    total
}

impl Workload for Fleet {
    fn setup_reps(&self) -> usize {
        15
    }

    fn setup(&mut self) -> Result<(), String> {
        let spec = FleetSpec::parse(&self.text)?;
        build_cluster(&spec.cluster, spec.seed);
        self.spec = Some(spec);
        Ok(())
    }

    fn pass(&mut self) -> Result<Pass, String> {
        let spec = self.spec.as_ref().ok_or("fleet: not set up")?;
        let cache = ScheduleCache::new(CACHE_ENTRIES);
        let t = Instant::now();
        let out = {
            let _s = tracectx::begin("fleet.run_fleet");
            run_fleet(spec, &cache)?
        };
        let wall_s = secs(t);
        let total = spec.total_jobs() as u64;
        let completed = out.completed_jobs() as u64;
        if out.truncated {
            return Err(format!(
                "fleet: truncated with {completed} of {total} jobs done"
            ));
        }
        let pass = Pass {
            wall_s,
            digest: harness::digest((jobs_csv(&out) + &nodes_csv(&out)).as_bytes()),
            attempted: total,
            failed: total - completed,
            ..Pass::default()
        };
        self.last = Some((out, cache.hits(), cache.misses()));
        Ok(pass)
    }

    fn layers(&mut self, pass: &Pass, phases: &Phases) -> Result<Layers, String> {
        let spec = self.spec.as_ref().ok_or("fleet: not set up")?;
        let (out, hits, misses) = self.last.as_ref().ok_or("fleet: no pass ran")?;
        let keys = spec
            .jobs
            .iter()
            .map(|j| {
                let wl = WorkloadConfig {
                    steps_override: j.steps,
                    ..WorkloadConfig::default()
                };
                (j.app, j.nodes, wl)
            })
            .collect();
        let stats = harness::replay(&harness::distinct(keys))?;
        // Schedule-cache compiles run on the pool threads inside
        // `fleet_run`; placement and policy run serially between epochs.
        let threads = rayon::current_num_threads() as f64;
        let prepare = phase(phases, "compile") / threads;
        let (build, compile, baseline) = stats.split(prepare);
        let replica = phase(phases, "fleet_run") - prepare;
        let mut layers: Layers = vec![
            ("workloads.build_s", build),
            ("engine.compile_s", compile),
            ("engine.baseline_s", baseline),
            ("engine.replica_s", replica),
            (
                "core.other_s",
                pass.wall_s - build - compile - baseline - replica,
            ),
            ("noise.ce_events", out.total_ce_events() as f64),
            ("cache.schedule_hits", *hits as f64),
            ("cache.schedule_misses", *misses as f64),
            ("cache.response_hits", 0.0),
            ("cache.response_misses", 0.0),
            ("fleet.place_s", phase(phases, "fleet_place")),
            ("fleet.run_s", phase(phases, "fleet_run")),
            ("fleet.policy_s", phase(phases, "fleet_policy")),
            ("fleet.compile_s", prepare),
            ("fleet.epochs", out.epochs.len() as f64),
            ("fleet.displaced", out.displaced_total() as f64),
            ("fleet.slices", slices(out) as f64),
        ];
        stats.count_layers(&mut layers);
        Ok(layers)
    }
}
