//! Shared machinery: the [`Workload`] trait, the pass loop, the engine
//! replay that supplies per-layer counts, and small measurement helpers.

use cesim_core::engine::{simulate_compiled, CompiledSchedule, NoNoise};
use cesim_core::model::LogGopsParams;
use cesim_core::obs::telemetry;
use cesim_core::obs::tracectx::{FinishedTrace, TraceCtx};
use cesim_core::workloads::{natural_ranks, AppId, WorkloadConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Workload size: the measured configuration, or the ~1/20 smoke check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }

    /// Pick the full-size or the smoke-size value.
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// Per-layer values of one traced pass, named as in `BENCHMARK.json`
/// (plus workload-specific extras that only the results file carries).
pub type Layers = Vec<(&'static str, f64)>;

/// Phase-profiler totals (seconds) accumulated during one traced pass.
pub type Phases = BTreeMap<&'static str, f64>;

/// What one pass of a workload produced.
#[derive(Default)]
pub struct Pass {
    /// Wall time of the measured section, seconds.
    pub wall_s: f64,
    /// Set-up the pass had to pay before its measured section (serve binds
    /// a fresh daemon per pass so every pass starts cold).
    pub setup_s: Option<f64>,
    /// Digest of the simulated outputs; identical for every pass of a run.
    pub digest: String,
    /// Operations attempted and failed (requests, cells, runs or jobs).
    pub attempted: u64,
    pub failed: u64,
    /// Client-side latency of each request (serve only), milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Engine events the harness can count from public results
    /// (`large_run` only; 0 elsewhere).
    pub events: u64,
    /// Peak live heap during the pass, MiB (set by [`run`]).
    pub peak_heap_mb: f64,
}

/// One benchmark workload.
pub trait Workload {
    /// How many times [`Workload::setup`] runs before the passes; the
    /// reported `setup_s` is the median.
    fn setup_reps(&self) -> usize;
    /// Prepare the state every pass uses. Timed.
    fn setup(&mut self) -> Result<(), String>;
    /// One measured pass. Returns an error when an output check fails.
    fn pass(&mut self) -> Result<Pass, String>;
    /// Per-layer values of the pass just run with tracing on. Runs after
    /// the trace closed, so any replay here is not part of the pass.
    fn layers(&mut self, pass: &Pass, phases: &Phases) -> Result<Layers, String>;
}

/// A traced pass with its layers and the harness trace tree.
pub struct TracedPass {
    pub pass: Pass,
    pub layers: Layers,
    pub trace: FinishedTrace,
}

/// Everything one run measured.
pub struct RunOutcome {
    pub setup_s: Vec<f64>,
    pub untraced: Vec<Pass>,
    pub traced: Vec<TracedPass>,
}

/// Run set-ups, then passes until `seconds` of measuring are used (at
/// least one pass). With `traced`, every untraced pass is followed by a
/// traced one, so the two can be compared for overhead and digest.
pub fn run(
    w: &mut dyn Workload,
    name: &str,
    seconds: f64,
    traced: bool,
) -> Result<RunOutcome, String> {
    let mut setup_s = Vec::new();
    for _ in 0..w.setup_reps() {
        let t = Instant::now();
        w.setup()?;
        setup_s.push(secs(t));
    }
    let mut out = RunOutcome {
        setup_s,
        untraced: Vec::new(),
        traced: Vec::new(),
    };
    let start = Instant::now();
    loop {
        let t = Instant::now();
        reset_peak_heap();
        let mut p = w.pass()?;
        p.peak_heap_mb = peak_heap_mb();
        out.setup_s.extend(p.setup_s);
        out.untraced.push(p);
        if traced {
            out.traced.push(traced_pass(w, name)?);
        }
        if secs(start) + secs(t) > seconds {
            return Ok(out);
        }
    }
}

fn traced_pass(w: &mut dyn Workload, name: &str) -> Result<TracedPass, String> {
    telemetry::set_enabled(true);
    let before = phase_totals();
    let ctx = TraceCtx::new_root(format!("benchmark {name}"), None);
    let pass = {
        let _g = ctx.install();
        w.pass()
    };
    let trace = ctx.finish(200, false);
    let after = phase_totals();
    telemetry::set_enabled(false);
    let pass = pass?;
    let phases = after
        .iter()
        .map(|(k, v)| (*k, v - before.get(k).copied().unwrap_or(0.0)))
        .collect();
    let layers = w.layers(&pass, &phases)?;
    Ok(TracedPass {
        pass,
        layers,
        trace,
    })
}

fn phase_totals() -> BTreeMap<&'static str, f64> {
    telemetry::phase_snapshot()
        .into_iter()
        .map(|r| (r.label, r.total.as_secs_f64()))
        .collect()
}

/// A phase's total in `phases`, 0 when it never ran.
pub fn phase(phases: &Phases, label: &str) -> f64 {
    phases.get(label).copied().unwrap_or(0.0)
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Hex digest of simulated output bytes.
pub fn digest(bytes: &[u8]) -> String {
    format!("{:016x}", cesim_core::seed::fnv1a(bytes))
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The system allocator, counting live heap bytes and their peak.
///
/// Peak RSS also holds memory the allocator keeps after the threads that
/// used it exit, which depends on thread timing; the peak of live bytes is
/// what the program itself asked for.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    if now > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the counters
// only observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Peak live heap since the last [`reset_peak_heap`], MiB.
fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Start a new peak at the current live heap.
fn reset_peak_heap() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in 0..=100) of a non-empty sample.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First and third quartiles, computed as Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method) does.
/// Needs at least two values.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Engine work of the schedules a pass built: counts from the compiled
/// schedules and their noise-free baselines, and the harness's own timing
/// of each stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    pub schedules: u64,
    pub ops: u64,
    pub deps: u64,
    pub baseline_events: u64,
    pub msgs: u64,
    pub control_msgs: u64,
    pub max_unexpected: u64,
    pub max_posted: u64,
    pub build_s: f64,
    pub compile_s: f64,
    pub baseline_s: f64,
}

impl EngineStats {
    /// Fold in one compiled schedule and its baseline result.
    pub fn add(&mut self, cs: &CompiledSchedule, base: &cesim_core::engine::SimResult) {
        self.schedules += 1;
        self.ops += cs.total_ops();
        self.deps += cs.total_deps();
        self.baseline_events += base.events_processed;
        self.msgs += base.msgs_delivered;
        self.control_msgs += base.control_msgs;
        self.max_unexpected = self.max_unexpected.max(base.max_unexpected as u64);
        self.max_posted = self.max_posted.max(base.max_posted as u64);
    }

    /// Host nanoseconds per engine event of the noise-free baselines.
    pub fn baseline_ns_per_event(&self) -> f64 {
        self.baseline_s * 1e9 / self.baseline_events.max(1) as f64
    }

    /// The count layers every workload reports.
    pub fn count_layers(&self, out: &mut Layers) {
        out.extend([
            ("workloads.schedules", self.schedules as f64),
            ("workloads.ops", self.ops as f64),
            ("engine.deps", self.deps as f64),
            ("engine.baseline_events", self.baseline_events as f64),
            ("engine.baseline_ns_per_event", self.baseline_ns_per_event()),
            ("engine.msgs", self.msgs as f64),
            ("engine.control_msgs", self.control_msgs as f64),
            ("engine.max_unexpected", self.max_unexpected as f64),
            ("engine.max_posted", self.max_posted as f64),
        ]);
    }

    /// Split a measured "build + compile + baseline" total (the program's
    /// `compile` phase in the schedule cache) in this replay's proportions.
    pub fn split(&self, total: f64) -> (f64, f64, f64) {
        let sum = (self.build_s + self.compile_s + self.baseline_s).max(f64::MIN_POSITIVE);
        (
            total * self.build_s / sum,
            total * self.compile_s / sum,
            total * self.baseline_s / sum,
        )
    }
}

/// Build, compile and simulate the noise-free baseline of each schedule,
/// timing every stage: the program's own calls, repeated by the harness
/// outside the measured pass to count what the pass built.
pub fn replay(keys: &[(AppId, usize, WorkloadConfig)]) -> Result<EngineStats, String> {
    let params = LogGopsParams::xc40();
    let mut st = EngineStats::default();
    for (app, nodes, wl) in keys {
        let t = Instant::now();
        let sched = cesim_core::workloads::build(*app, natural_ranks(*app, *nodes), wl);
        st.build_s += secs(t);
        let t = Instant::now();
        let cs = CompiledSchedule::compile(&sched);
        st.compile_s += secs(t);
        let t = Instant::now();
        let base = simulate_compiled(&cs, &params, &mut NoNoise).map_err(|e| e.to_string())?;
        st.baseline_s += secs(t);
        st.add(&cs, &base);
    }
    Ok(st)
}

/// Keep the first occurrence of each schedule key, as the program's
/// schedule cache keys them (app, snapped ranks, workload knobs).
pub fn distinct(keys: Vec<(AppId, usize, WorkloadConfig)>) -> Vec<(AppId, usize, WorkloadConfig)> {
    let mut seen = std::collections::HashSet::new();
    keys.into_iter()
        .filter(|(app, nodes, wl)| {
            seen.insert(format!("{app:?}|{}|{wl:?}", natural_ranks(*app, *nodes)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 100.0);
        assert_eq!(percentile(&xs, 99.0), 198.0);
    }
}
