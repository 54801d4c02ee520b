//! Cross-request caches for the serving layer.
//!
//! PR 3 split the engine into an immutable [`CompiledSchedule`] shared
//! via [`Arc`] and per-run scratch, which made compilation a per-process
//! cost. The serving daemon (`cesim-serve`) answers *many* requests per
//! process, so this module turns compile-once-per-process into
//! compile-once-per-(app, ranks, workload, params) across requests:
//!
//! * [`ScheduleCache`] — a bounded LRU of [`ForkTable`]s: compiled
//!   schedules **with their noise-free baselines** (the baseline is a
//!   deterministic function of the schedule and network parameters, so
//!   it is cached in the table and never re-simulated on a hit; its
//!   snapshots let noisy replicas skip their noise-free prefix, see
//!   [`cesim_engine::fork`]). Figure sweeps and `cesim run` build the
//!   same tables without the cache;
//! * [`ResponseCache`] — a bounded LRU of full response bodies keyed by
//!   the canonicalized request. Sound because every run is seeded and
//!   deterministic: the same request always produces the same bytes
//!   (see `tests` and DESIGN.md "Serving architecture").
//!
//! Both caches are thread-safe and export hit/miss counters that the
//! daemon surfaces on `/metrics`.

use crate::experiment::RunStats;
use cesim_engine::{CompiledSchedule, ForkTable, SimError};
use cesim_model::LogGopsParams;
use cesim_obs::telemetry::{flight_record, FlightKind, Span};
use cesim_workloads::{natural_ranks, AppId, WorkloadConfig};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, TryLockError};

/// A small dependency-free LRU map.
///
/// Recency is tracked with a monotonic tick per entry; eviction scans
/// for the minimum tick. That scan is O(len), which is fine at the cache
/// sizes the daemon uses (tens to a few hundred entries) and keeps the
/// implementation obviously correct without an intrusive list.
#[derive(Debug)]
pub struct Lru<K, V> {
    cap: usize,
    tick: u64,
    map: HashMap<K, (V, u64)>,
}

impl<K: Eq + Hash + Clone, V: Clone> Lru<K, V> {
    /// An LRU holding at most `cap` entries. `cap == 0` disables the
    /// cache entirely (every lookup misses, every insert is dropped).
    pub fn new(cap: usize) -> Self {
        Lru {
            cap,
            tick: 0,
            map: HashMap::new(),
        }
    }

    /// Look up `key`, bumping its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(v, t)| {
            *t = tick;
            v.clone()
        })
    }

    /// Insert `key → value`, evicting the least-recently-used entry when
    /// at capacity. Returns `true` when an entry was evicted to make
    /// room (callers surface this to the flight recorder).
    pub fn insert(&mut self, key: K, value: V) -> bool {
        if self.cap == 0 {
            return false;
        }
        self.tick += 1;
        let mut evicted = false;
        if self.map.len() >= self.cap && !self.map.contains_key(&key) {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (_, t))| *t)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
                evicted = true;
            }
        }
        self.map.insert(key, (value, self.tick));
        evicted
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Configured capacity.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// The values held, in no particular order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.map.values().map(|(v, _)| v)
    }
}

/// One key's entry, filled by the first caller to compile it.
type Slot = Mutex<Option<Arc<ForkTable>>>;

/// What the fork tables of a [`ScheduleCache`]'s entries hold (see
/// [`ScheduleCache::fork_footprint`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ForkFootprint {
    /// Fork tables counted.
    pub entries: usize,
    /// Snapshots their fork tables hold.
    pub snapshots: usize,
    /// Heap bytes of those snapshots ([`ForkTable::bytes`]).
    pub bytes: usize,
}

/// Thread-safe LRU of [`ForkTable`]s keyed by
/// `(app, ranks, workload knobs, network params)`, where `ranks` is the
/// node count after [`natural_ranks`] snapping.
///
/// The key is the `Debug` rendering of the exact inputs: every field of
/// [`WorkloadConfig`] and [`LogGopsParams`] is plain data whose `Debug`
/// form is injective (floats print in shortest-round-trip form, so two
/// distinct bit patterns never collide), which makes the string an exact
/// — not hashed — identity.
///
/// Each key maps to a slot that the first caller fills; callers racing
/// on the same key wait on the slot rather than compiling again.
pub struct ScheduleCache {
    inner: Mutex<Lru<String, Arc<Slot>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    forks: AtomicU64,
    forked_events: AtomicU64,
    rejoins: AtomicU64,
    rejoined_events: AtomicU64,
}

impl ScheduleCache {
    /// A cache holding at most `cap` compiled schedules (`0` disables
    /// caching — every request recompiles; the serve loadtest uses this
    /// as its cold baseline).
    pub fn new(cap: usize) -> Self {
        ScheduleCache {
            inner: Mutex::new(Lru::new(cap)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            forks: AtomicU64::new(0),
            forked_events: AtomicU64::new(0),
            rejoins: AtomicU64::new(0),
            rejoined_events: AtomicU64::new(0),
        }
    }

    /// The exact cache key for a request.
    fn key(app: AppId, ranks: usize, workload: &WorkloadConfig, params: &LogGopsParams) -> String {
        format!("{app:?}|{ranks}|{workload:?}|{params:?}")
    }

    /// Fetch the fork table for `(app, nodes, workload, params)`,
    /// compiling the schedule and simulating its baseline into the table
    /// on a miss.
    /// Single-flight: the first caller for a key compiles while holding
    /// only that key's slot, so racing callers for the same key wait for
    /// its result and count a hit, and unrelated requests are never
    /// blocked. A failed compile leaves the slot empty for the next
    /// caller to retry. Build, compile and baseline run no rayon work, so
    /// a pool worker waiting on a slot cannot starve the compiling one.
    pub fn get_or_compile(
        &self,
        app: AppId,
        nodes: usize,
        workload: &WorkloadConfig,
        params: &LogGopsParams,
    ) -> Result<Arc<ForkTable>, SimError> {
        let ranks = natural_ranks(app, nodes);
        let key = Self::key(app, ranks, workload, params);
        let slot = {
            let mut guard = self.inner.lock().expect("schedule cache lock");
            match guard.get(&key) {
                Some(slot) => slot,
                None => {
                    let slot = Arc::new(Slot::default());
                    let evicted = guard.insert(key, Arc::clone(&slot));
                    let len = guard.len();
                    drop(guard);
                    if evicted {
                        flight_record(FlightKind::CacheEvict, "schedule", len as u64, 0);
                    }
                    slot
                }
            }
        };
        // A slot only ever holds a finished entry, so one poisoned by a
        // panicking compile is still sound to use.
        let mut filled = slot.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(hit) = filled.as_ref() {
            self.hits.fetch_add(1, Relaxed);
            return Ok(Arc::clone(hit));
        }
        self.misses.fetch_add(1, Relaxed);
        let _s = Span::enter("compile");
        let sched = cesim_workloads::build_periodic(app, ranks, workload);
        let cs = Arc::new(
            CompiledSchedule::compile_periodic(sched).expect("workload skeletons repeat exactly"),
        );
        let table = Arc::new(ForkTable::build(cs, params)?.0);
        *filled = Some(Arc::clone(&table));
        Ok(table)
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Relaxed)
    }

    /// Lookups that compiled.
    pub fn misses(&self) -> u64 {
        self.misses.load(Relaxed)
    }

    /// Count the replicas of cached tables that resumed from a baseline
    /// snapshot (a non-zero [`RunStats::prefix`]) with the prefix events
    /// they skipped, and separately those that rejoined the baseline (a
    /// non-zero [`RunStats::suffix`]) with the suffix events they
    /// skipped. One replica may do both.
    pub fn record_forks<'a>(&self, runs: impl IntoIterator<Item = &'a RunStats>) {
        for run in runs {
            for (count, events, skipped) in [
                (&self.forks, &self.forked_events, run.prefix()),
                (&self.rejoins, &self.rejoined_events, run.suffix),
            ] {
                if skipped > 0 {
                    count.fetch_add(1, Relaxed);
                    events.fetch_add(skipped, Relaxed);
                }
            }
        }
    }

    /// Replicas resumed from a baseline snapshot.
    pub fn forks(&self) -> u64 {
        self.forks.load(Relaxed)
    }

    /// Engine events those replicas skipped.
    pub fn forked_events(&self) -> u64 {
        self.forked_events.load(Relaxed)
    }

    /// Replicas that rejoined the baseline before their end.
    pub fn rejoins(&self) -> u64 {
        self.rejoins.load(Relaxed)
    }

    /// Engine events of the baseline suffix those replicas skipped.
    pub fn rejoined_events(&self) -> u64 {
        self.rejoined_events.load(Relaxed)
    }

    /// The snapshots the fork tables held now keep: the heap this cache
    /// spends to let replicas resume and rejoin. A table whose slot is
    /// busy (being compiled, or being looked up at that
    /// instant) is skipped rather than waited for.
    pub fn fork_footprint(&self) -> ForkFootprint {
        let slots: Vec<Arc<Slot>> = {
            let guard = self.inner.lock().expect("schedule cache lock");
            guard.values().cloned().collect()
        };
        let mut out = ForkFootprint::default();
        for slot in slots {
            let filled = match slot.try_lock() {
                Ok(filled) => filled,
                Err(TryLockError::Poisoned(e)) => e.into_inner(),
                Err(TryLockError::WouldBlock) => continue,
            };
            if let Some(table) = filled.as_ref() {
                out.entries += 1;
                out.snapshots += table.snapshots().len();
                out.bytes += table.bytes();
            }
        }
        out
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("schedule cache lock").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Thread-safe LRU of full response bodies keyed by the canonicalized
/// request (see [`cesim_json::canonicalize`]); the daemon prepends the
/// request path so the same body against different endpoints cannot
/// alias.
pub struct ResponseCache {
    inner: Mutex<Lru<String, Arc<String>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResponseCache {
    /// A cache holding at most `cap` responses (`0` disables caching).
    pub fn new(cap: usize) -> Self {
        ResponseCache {
            inner: Mutex::new(Lru::new(cap)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Look up a canonical request key.
    pub fn get(&self, key: &str) -> Option<Arc<String>> {
        let hit = self
            .inner
            .lock()
            .expect("response cache lock")
            .get(&key.to_string());
        match hit {
            Some(v) => {
                self.hits.fetch_add(1, Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Relaxed);
                None
            }
        }
    }

    /// Store a response body under its canonical request key.
    pub fn put(&self, key: String, body: Arc<String>) {
        let mut guard = self.inner.lock().expect("response cache lock");
        let evicted = guard.insert(key, body);
        let len = guard.len();
        drop(guard);
        if evicted {
            flight_record(FlightKind::CacheEvict, "response", len as u64, 0);
        }
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Relaxed)
    }

    /// Lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses.load(Relaxed)
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("response cache lock").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cesim_engine::{simulate_compiled, NoNoise};
    use cesim_model::Span;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru: Lru<u32, u32> = Lru::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert_eq!(lru.get(&1), Some(10)); // bump 1
        lru.insert(3, 30); // evicts 2
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.get(&1), Some(10));
        assert_eq!(lru.get(&3), Some(30));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn lru_reinsert_updates_without_evicting() {
        let mut lru: Lru<u32, u32> = Lru::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        lru.insert(1, 11); // same key: update, no eviction
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&1), Some(11));
        assert_eq!(lru.get(&2), Some(20));
    }

    #[test]
    fn zero_capacity_disables() {
        let mut lru: Lru<u32, u32> = Lru::new(0);
        lru.insert(1, 10);
        assert_eq!(lru.get(&1), None);
        assert!(lru.is_empty());
    }

    #[test]
    fn schedule_cache_hits_after_first_compile() {
        let cache = ScheduleCache::new(4);
        let wl = WorkloadConfig::default().with_steps(2);
        let params = LogGopsParams::xc40();
        let a = cache
            .get_or_compile(AppId::MiniFe, 8, &wl, &params)
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let b = cache
            .get_or_compile(AppId::MiniFe, 8, &wl, &params)
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!(Arc::ptr_eq(&a, &b), "hit returns the shared table");
        // A different workload knob is a different schedule.
        let wl3 = WorkloadConfig::default().with_steps(3);
        let c = cache
            .get_or_compile(AppId::MiniFe, 8, &wl3, &params)
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn entry_carries_the_baseline_and_counts_forks() {
        let cache = ScheduleCache::new(4);
        let wl = WorkloadConfig::default().with_steps(3);
        let params = LogGopsParams::xc40();
        let e = cache.get_or_compile(AppId::Hpcg, 8, &wl, &params).unwrap();
        let base = simulate_compiled(e.schedule(), &params, &mut NoNoise).unwrap();
        assert_eq!(e.finish(), base.finish);
        assert_eq!(e.params(), &params);
        assert!(!e.snapshots().is_empty());
        assert_eq!((cache.forks(), cache.forked_events()), (0, 0));
        // (prefix, suffix) skipped per replica: replicas that skipped
        // neither are not counted, and one that did both counts twice.
        let runs = [(0, 0), (120, 0), (0, 40), (30, 5)].map(|(prefix, suffix)| RunStats {
            finish: Span::ZERO,
            ce_events: 1,
            events: 100,
            skipped: prefix + suffix,
            suffix,
        });
        cache.record_forks(&runs);
        assert_eq!((cache.forks(), cache.forked_events()), (2, 150));
        assert_eq!((cache.rejoins(), cache.rejoined_events()), (2, 45));
    }

    #[test]
    fn racing_callers_share_one_compile() {
        const THREADS: usize = 8;
        let cache = ScheduleCache::new(4);
        let wl = WorkloadConfig::default().with_steps(2);
        let params = LogGopsParams::xc40();
        let start = std::sync::Barrier::new(THREADS);
        let entries: Vec<Arc<ForkTable>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        cache
                            .get_or_compile(AppId::Lulesh, 27, &wl, &params)
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(cache.misses(), 1, "one compile per key");
        assert_eq!(cache.hits(), THREADS as u64 - 1);
        assert!(entries.iter().all(|e| Arc::ptr_eq(e, &entries[0])));
    }

    #[test]
    fn schedule_cache_snaps_ranks_before_keying() {
        // LULESH snaps node counts to cubes: 260 and 250 both simulate
        // 250 ranks and must share one entry.
        let cache = ScheduleCache::new(4);
        let wl = WorkloadConfig::default().with_steps(1);
        let params = LogGopsParams::xc40();
        let a = cache
            .get_or_compile(AppId::Lulesh, 260, &wl, &params)
            .unwrap();
        assert_eq!(a.schedule().num_ranks(), 250);
        let b = cache
            .get_or_compile(AppId::Lulesh, 250, &wl, &params)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn schedule_cache_key_excludes_logging_mode_noise() {
        // The cache key is (app, ranks, workload, params); the logging
        // mode lives in the *noise model*, never in the schedule. Fleet
        // nodes running different logging modes must therefore share
        // one compiled entry — and running mode-specific noise against
        // the shared schedule must match a fresh compile per mode, so
        // the sharing loses nothing.
        use cesim_model::{LoggingMode, Span};
        use cesim_noise::{CeNoise, Scope};

        let wl = WorkloadConfig::default().with_steps(2);
        let params = LogGopsParams::xc40();
        let finish = |table: &Arc<ForkTable>, mode: LoggingMode| {
            // MTBCE 500ms keeps even firmware's 133ms detour convergent
            // (utilization ~0.27 < 1), so the stretch loop terminates.
            let mut noise = CeNoise::new(
                table.schedule().num_ranks(),
                Span::from_ms(500),
                mode.per_event_cost(),
                Scope::AllRanks,
                11,
            );
            simulate_compiled(table.schedule(), &params, &mut noise)
                .unwrap()
                .finish
        };

        let cache = ScheduleCache::new(4);
        let entry = cache
            .get_or_compile(AppId::MiniFe, 8, &wl, &params)
            .unwrap();
        let sw = finish(&entry, LoggingMode::Software);
        let fw = finish(&entry, LoggingMode::Firmware);
        assert!(fw > sw, "firmware detours cost more: {fw:?} vs {sw:?}");
        assert_eq!(
            (cache.hits(), cache.misses(), cache.len()),
            (0, 1, 1),
            "one compiled entry serves every logging mode"
        );

        let fresh = ScheduleCache::new(4);
        let e2 = fresh
            .get_or_compile(AppId::MiniFe, 8, &wl, &params)
            .unwrap();
        assert_eq!(sw, finish(&e2, LoggingMode::Software));
        assert_eq!(fw, finish(&e2, LoggingMode::Firmware));
    }

    #[test]
    fn response_cache_counts_hits_and_misses() {
        let cache = ResponseCache::new(2);
        assert!(cache.get("k1").is_none());
        cache.put("k1".into(), Arc::new("body".into()));
        assert_eq!(cache.get("k1").as_deref().map(|s| s.as_str()), Some("body"));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }
}
