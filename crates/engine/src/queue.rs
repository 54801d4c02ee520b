//! The central event queue.
//!
//! A deterministic time-ordered queue over `(time, creator rank, creator
//! sequence)`. The key is **content-computable**: it is derived from
//! *which rank created the event and how many events that rank had
//! created before*, never from global insertion order. Two consequences:
//!
//! * ties are still broken deterministically (keys are unique: a rank's
//!   sequence numbers are monotone), so whole-simulation results stay
//!   bit-reproducible, and
//! * the same set of events pops in the same relative order no matter
//!   which queue instance they pass through — the property the sharded
//!   engine ([`crate::shard`]) relies on to merge per-shard streams
//!   byte-identically with the serial engine.
//!
//! # Layout: radix buckets feeding a sorted active run
//!
//! The dispatch loop consumes events one whole timestamp at a time
//! ([`EventQueue::pop_batch`]), so the queue never needs a total order
//! over the future — only "which timestamp is next" and a key order
//! within it. How many distinct timestamps W are live at once depends on
//! the regime. Lockstep collectives at small scale hold a handful. Once
//! noise or per-rank work desynchronizes thousands of ranks, nearly
//! every push opens a new timestamp: one 2,000-rank LULESH baseline
//! pushes 304k events, 287k of them at a timestamp not yet live, and W
//! peaks at 7,818 (`figures` peaks at 668, `fleet_4k` at 321). A sorted
//! per-timestamp list pays an O(W) memmove for each new timestamp, so
//! the queue must cost O(1) per push whatever W is.
//!
//! Times only ever move forward from the timestamp being drained
//! (`last`), which is what a monotone radix queue exploits:
//!
//! * **Radix buckets** — 65 unsorted buckets of `(time, key, event)`. An
//!   event at `t > last` goes to bucket `b = 64 - lzcnt(t ^ last)`: it
//!   agrees with `last` above bit `b - 1` and has that bit set. Bucket
//!   ranges are disjoint and ascend with `b`, so the lowest non-empty
//!   bucket holds the minimum. A push is one xor, one `lzcnt` and one
//!   append; each bucket memoizes its minimum time, and an occupancy mask
//!   finds the lowest non-empty bucket in one `tzcnt`.
//! * **Activation** — when the active timestamp is exhausted, the lowest
//!   non-empty bucket's minimum becomes the new `last` and that bucket is
//!   redistributed: entries at `last` form the run, every other entry
//!   drops to a strictly lower bucket (it now differs from `last` in a
//!   lower bit). Higher buckets stay put — `last` moved only below their
//!   bit. An event descends at most 64 times, in practice a few.
//! * **The active run** — the events at `last`, sorted once by the
//!   packed `(crank, cseq)` key (a contiguous `u64` sort; keys are
//!   unique, so the order is deterministic), then drained by cursor.
//! * **The side heap** — events pushed *at* `last` while it is being
//!   drained (a completing op readying a dependent at the same instant)
//!   go to a small binary min-heap that pops merge with the run head.
//!
//! Because engine pushes are causal and same-instant pushes land in the
//! side heap, no bucketed event can sort before anything still queued
//! at the active timestamp. The dispatch loops therefore interleave
//! same-instant events with [`EventQueue::peek_active_min`] (run head
//! vs side head), never touching the buckets mid-batch.
//! [`EventQueue::peek_time`] stays O(1); [`EventQueue::peek_min`] scans
//! the lowest bucket for its minimum key when the active timestamp is
//! exhausted, which only the API and tests need.
//!
//! **Memory.** A drained bucket keeps its buffer only up to
//! [`RETAIN_CAP`] entries; a larger one is freed after redistribution.
//! Without that, every bucket keeps its own high-water capacity, and
//! capacity circulates across buckets as events descend (summing to 5×
//! the peak live events on a 2,000-rank run). With it, retained capacity
//! is bounded by a small multiple of the live events plus a constant.
//!
//! Pop order is exactly ascending `(time, crank, cseq)`, which the tests
//! below check against a sorted reference model over the full `u64`
//! time range. Pushing a timestamp *below* the active one (impossible in
//! engine use, where pushes are causal, but legal API) takes a cold path
//! that re-files every queued event relative to the new minimum.

use cesim_model::Time;

/// Content-computable tie-break key: the rank that created the event and
/// that rank's private event-creation counter. Combined with the
/// timestamp this identifies an event uniquely, independent of which
/// queue (or how many queues) it travels through.
///
/// `cseq` is 32-bit so the whole tie-break packs into a single `u64`
/// (`crank << 32 | cseq`); a rank would need to create 4 billion events
/// in one run to wrap, orders of magnitude beyond any schedule here
/// (overflow is checked in debug builds at the increment site).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct EvKey {
    /// Rank on which the event was created (the rank whose processing
    /// pushed it; for the initial wavefront, the root op's own rank).
    pub crank: u32,
    /// That rank's monotone creation counter at push time.
    pub cseq: u32,
}

/// Pack the tie-break into an order-preserving `u64`.
#[inline(always)]
fn pack_key(key: EvKey) -> u64 {
    ((key.crank as u64) << 32) | key.cseq as u64
}

/// Inverse of [`pack_key`].
#[inline(always)]
fn unpack_key(k: u64) -> EvKey {
    EvKey {
        crank: (k >> 32) as u32,
        cseq: k as u32,
    }
}

/// Number of radix buckets: bucket 0 holds events at `last` before it is
/// activated, bucket `b ≥ 1` those whose highest bit differing from
/// `last` is `b - 1`.
const BUCKETS: usize = 65;

/// Largest buffer (in entries) a bucket keeps after it is drained; a
/// larger one is freed so capacity cannot accumulate across buckets.
/// Small enough that 65 retained buffers are a few MiB at most, large
/// enough that small and lockstep runs never reallocate.
const RETAIN_CAP: usize = 1024;

/// Bucket index of time `t` relative to the radix base `last`.
#[inline(always)]
fn bucket_of(t: u64, last: u64) -> usize {
    (u64::BITS - (t ^ last).leading_zeros()) as usize
}

/// A bucketed event: the time is kept per entry because one bucket
/// spans a range of timestamps.
#[derive(Clone, Copy)]
struct Entry<E> {
    t: u64,
    k: u64,
    ev: E,
}

/// Deterministic time-ordered event queue (see module docs for the
/// radix-bucket layout).
pub struct EventQueue<E> {
    /// Radix buckets relative to `last`; every entry has `t >= last`,
    /// and bucket 0 is non-empty only while no run is active.
    buckets: [Vec<Entry<E>>; BUCKETS],
    /// Per-bucket minimum time (`u64::MAX` when empty).
    min_t: [u64; BUCKETS],
    /// Bit `b` set iff `buckets[b]` is non-empty.
    occupied: u128,
    /// The radix base: the active timestamp, or the floor of all queued
    /// times while no run is active.
    last: u64,
    /// True once the events at `last` have been moved into `run`; until
    /// then pushes at `last` go to bucket 0 instead of the side heap.
    active: bool,
    /// The active timestamp's events, sorted by packed key; consumed by
    /// advancing `cursor`.
    run: Vec<(u64, E)>,
    cursor: usize,
    /// Min-heap of events pushed at `last` after activation.
    side: Vec<(u64, E)>,
    len: usize,
    pushed: u64,
}

// `E: Copy` is deliberate: event payloads are small index-like values
// (the arena reduced them to `Copy` refs), which keeps bucket moves,
// run sorting and the side heap's hole-style sifts to single copies of
// small records.
impl<E: Copy> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty queue with pre-reserved capacity for the active run
    /// (buckets grow on first use).
    pub fn with_capacity(cap: usize) -> Self {
        let mut q = Self::default();
        q.run.reserve(cap);
        q
    }

    /// Schedule `event` at `time` under the tie-break `key`.
    ///
    /// Keys must be unique per queue — the caller derives them from
    /// per-rank creation counters, which guarantees it.
    #[inline]
    pub fn push(&mut self, time: Time, key: EvKey, event: E) {
        self.pushed += 1;
        self.len += 1;
        let t = time.as_ps();
        let k = pack_key(key);
        if t == self.last && self.active {
            // Same-instant push while draining: the dispatch loop will
            // consume it almost immediately — keep it in the small merge
            // heap instead of disturbing the sorted run.
            side_push(&mut self.side, (k, event));
            return;
        }
        if t < self.last {
            // Legal API, unreachable from the engine (pushes are causal:
            // never earlier than the time being dispatched).
            self.rebase(t);
        }
        self.file(Entry { t, k, ev: event });
    }

    /// Append `e` to its radix bucket (requires `e.t >= last`).
    #[inline(always)]
    fn file(&mut self, e: Entry<E>) {
        debug_assert!(e.t >= self.last);
        let b = bucket_of(e.t, self.last);
        self.buckets[b].push(e);
        self.min_t[b] = self.min_t[b].min(e.t);
        self.occupied |= 1 << b;
    }

    /// Slow path: push below `last`. Re-files every queued event (active
    /// run and side heap included) relative to the new floor `t`, and
    /// deactivates, so the normal ordering machinery re-applies.
    #[cold]
    fn rebase(&mut self, t: u64) {
        let last = self.last;
        let mut all: Vec<Entry<E>> = self.run[self.cursor..]
            .iter()
            .chain(self.side.iter())
            .map(|&(k, ev)| Entry { t: last, k, ev })
            .collect();
        for b in &mut self.buckets {
            all.append(b);
        }
        self.run.clear();
        self.side.clear();
        self.cursor = 0;
        self.active = false;
        self.occupied = 0;
        self.min_t = [u64::MAX; BUCKETS];
        self.last = t;
        for e in all {
            self.file(e);
        }
    }

    /// Make the earliest queued timestamp the active run: redistribute
    /// the lowest non-empty bucket around its minimum time (see module
    /// docs), then sort the run once by packed key (unique keys, so
    /// `sort_unstable` is deterministic) and drain it by cursor.
    fn activate_next(&mut self) -> bool {
        debug_assert!(self.cursor == self.run.len() && self.side.is_empty());
        if self.occupied == 0 {
            return false;
        }
        let b = self.occupied.trailing_zeros() as usize;
        self.occupied &= !(1 << b);
        self.last = std::mem::replace(&mut self.min_t[b], u64::MAX);
        let mut src = std::mem::take(&mut self.buckets[b]);
        self.run.clear();
        self.cursor = 0;
        for e in src.drain(..) {
            if e.t == self.last {
                self.run.push((e.k, e.ev));
            } else {
                self.file(e);
            }
        }
        if src.capacity() <= RETAIN_CAP {
            self.buckets[b] = src;
        }
        self.run.sort_unstable_by_key(|&(k, _)| k);
        self.active = true;
        true
    }

    /// Bulk-schedule `events` — the path for seeding the initial ready
    /// wavefront. Pushes into a bucket are plain appends; the sort on
    /// activation restores exactly the order one-at-a-time pushes would
    /// produce (pop order is fully determined by the key once keys are
    /// distinct).
    pub fn seed(&mut self, events: impl IntoIterator<Item = (Time, EvKey, E)>) {
        for (time, key, event) in events {
            self.push(time, key, event);
        }
    }

    /// Remove and return the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, EvKey, E)> {
        if self.active_is_drained() && !self.activate_next() {
            return None;
        }
        let (k, ev) = self.pop_active().expect("activated run is non-empty");
        self.len -= 1;
        Some((Time::from_ps(self.last), unpack_key(k), ev))
    }

    /// Drain every event sharing the minimum timestamp into `out`
    /// (cleared first), in exactly the order repeated [`EventQueue::pop`]
    /// calls would yield them. Returns the number drained.
    ///
    /// The dispatch loop uses this to amortize per-event work across
    /// same-timestamp bursts (the common case: a whole wavefront of
    /// ranks acting at the identical instant). The active run *is* the
    /// batch.
    #[inline]
    pub fn pop_batch(&mut self, out: &mut Vec<(Time, EvKey, E)>) -> usize {
        out.clear();
        if self.active_is_drained() && !self.activate_next() {
            return 0;
        }
        let t = Time::from_ps(self.last);
        if self.side.is_empty() {
            // Whole-run fast path: the sorted tail is the batch.
            out.extend(
                self.run[self.cursor..]
                    .iter()
                    .map(|&(k, ev)| (t, unpack_key(k), ev)),
            );
            self.cursor = self.run.len();
            self.len -= out.len();
        } else {
            // Rare: leftover same-instant pushes must merge in.
            while let Some((k, ev)) = self.pop_active() {
                out.push((t, unpack_key(k), ev));
                self.len -= 1;
            }
        }
        out.len()
    }

    /// True when nothing is left at the active timestamp (also true
    /// before the first activation).
    #[inline(always)]
    fn active_is_drained(&self) -> bool {
        self.cursor == self.run.len() && self.side.is_empty()
    }

    /// Pop the next `(key, payload)` of the active timestamp only
    /// (`None` once the run and side heap are drained).
    #[inline]
    fn pop_active(&mut self) -> Option<(u64, E)> {
        match (self.run.get(self.cursor), self.side.first()) {
            (Some(&r), Some(&s)) => Some(if r.0 < s.0 {
                self.cursor += 1;
                r
            } else {
                side_pop(&mut self.side)
            }),
            (Some(&r), None) => {
                self.cursor += 1;
                Some(r)
            }
            (None, Some(_)) => Some(side_pop(&mut self.side)),
            (None, None) => None,
        }
    }

    /// `(time, key)` of the earliest event still queued at the active
    /// timestamp (run head vs side head); `None` once it is exhausted,
    /// even if later timestamps are queued.
    ///
    /// This is what the dispatch loops consult between batch entries:
    /// engine pushes are causal and same-instant pushes go to the side
    /// heap, so nothing in the buckets can sort before an entry of the
    /// batch being dispatched.
    #[inline]
    pub fn peek_active_min(&self) -> Option<(Time, EvKey)> {
        let run_head = self.run.get(self.cursor).map(|&(k, _)| k);
        let side_head = self.side.first().map(|&(k, _)| k);
        let k = match (run_head, side_head) {
            (Some(r), Some(s)) => r.min(s),
            (r, s) => r.or(s)?,
        };
        Some((Time::from_ps(self.last), unpack_key(k)))
    }

    /// Timestamp of the earliest event without removing it. O(1).
    #[inline]
    pub fn peek_time(&self) -> Option<Time> {
        if !self.active_is_drained() {
            return Some(Time::from_ps(self.last));
        }
        self.lowest_bucket().map(|b| Time::from_ps(self.min_t[b]))
    }

    /// `(time, key)` of the earliest event without removing it. Once the
    /// active timestamp is exhausted this scans the lowest bucket for
    /// the minimum key; hot loops use [`EventQueue::peek_active_min`].
    pub fn peek_min(&self) -> Option<(Time, EvKey)> {
        if let Some(head) = self.peek_active_min() {
            return Some(head);
        }
        let b = self.lowest_bucket()?;
        let t = self.min_t[b];
        let k = self.buckets[b]
            .iter()
            .filter(|e| e.t == t)
            .map(|e| e.k)
            .min()
            .expect("memoized minimum time is present");
        Some((Time::from_ps(t), unpack_key(k)))
    }

    /// Index of the lowest non-empty bucket.
    #[inline(always)]
    fn lowest_bucket(&self) -> Option<usize> {
        (self.occupied != 0).then(|| self.occupied.trailing_zeros() as usize)
    }

    /// Remove all events. Buffers up to [`RETAIN_CAP`] are kept, so a
    /// cleared queue behaves exactly like a fresh one without
    /// reallocating in steady state.
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            if b.capacity() > RETAIN_CAP {
                *b = Vec::new();
            } else {
                b.clear();
            }
        }
        self.min_t = [u64::MAX; BUCKETS];
        self.occupied = 0;
        self.last = 0;
        self.active = false;
        self.run.clear();
        self.side.clear();
        self.cursor = 0;
        self.len = 0;
        self.pushed = 0;
    }

    /// Number of events currently queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total events ever pushed (for statistics).
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Every queued event as `(time, packed key, payload)`, in no
    /// particular order. Events still queued at the active timestamp are
    /// reported at `last`.
    fn entries(&self) -> impl Iterator<Item = (u64, u64, E)> + '_ {
        let at_last = self.run[self.cursor..].iter().chain(&self.side);
        at_last
            .map(|&(k, ev)| (self.last, k, ev))
            .chain(self.buckets.iter().flatten().map(|e| (e.t, e.k, e.ev)))
    }

    /// Every queued event, sorted by key (keys are unique, so this is a
    /// canonical form of the queue's contents).
    pub(crate) fn sorted_entries(&self) -> Vec<(Time, EvKey, E)> {
        let mut out = Vec::with_capacity(self.len);
        out.extend(
            self.entries()
                .map(|(t, k, ev)| (Time::from_ps(t), unpack_key(k), ev)),
        );
        out.sort_unstable_by_key(|e| e.1);
        out
    }

    /// Copy every queued event out (payloads mapped through `f`), for a
    /// later [`EventQueue::restore_with`]. The layout itself is not kept,
    /// because pop order depends only on `(time, key)`: the entries are
    /// stored sorted by key instead.
    pub fn snapshot_with<S>(&self, mut f: impl FnMut(E) -> S) -> QueueSnapshot<S> {
        let mut entries = Vec::with_capacity(self.len);
        entries.extend(self.entries().map(|(t, k, ev)| (t, k, f(ev))));
        entries.sort_unstable_by_key(|e| e.1);
        QueueSnapshot {
            last: self.last,
            pushed: self.pushed,
            entries,
        }
    }

    /// Replace the contents with a snapshot's events (payloads mapped
    /// back through `f`). The restored queue pops exactly the sequence
    /// the snapshotted one would have, and counts the same pushes.
    pub fn restore_with<S: Copy>(&mut self, snap: &QueueSnapshot<S>, mut f: impl FnMut(S) -> E) {
        self.clear();
        self.last = snap.last;
        for &(t, k, ev) in &snap.entries {
            self.file(Entry { t, k, ev: f(ev) });
        }
        self.len = snap.entries.len();
        self.pushed = snap.pushed;
    }

    /// Bytes of one radix-bucket entry, one active-run entry and one
    /// snapshot entry (pinned for release builds).
    #[cfg(all(test, not(debug_assertions)))]
    pub(crate) const ENTRY_BYTES: [usize; 3] = [
        std::mem::size_of::<Entry<E>>(),
        std::mem::size_of::<(u64, E)>(),
        std::mem::size_of::<(u64, u64, E)>(),
    ];

    /// Entries the queue's buffers can hold without reallocating.
    #[cfg(test)]
    fn retained_capacity(&self) -> usize {
        self.buckets.iter().map(Vec::capacity).sum::<usize>()
            + self.run.capacity()
            + self.side.capacity()
    }
}

/// The events of an [`EventQueue`] at one instant, as plain
/// `(time, packed key, payload)` triples (see
/// [`EventQueue::snapshot_with`]).
#[derive(Clone, Debug)]
pub struct QueueSnapshot<S> {
    /// The radix base: every entry's time is at or after it.
    last: u64,
    /// Events pushed before the snapshot.
    pushed: u64,
    entries: Vec<(u64, u64, S)>,
}

impl<S> QueueSnapshot<S> {
    /// Number of events held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the snapshotted queue was empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Heap bytes held.
    pub fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(u64, u64, S)>()
    }

    /// The events held as `(time, key, payload)`, sorted by key.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (Time, EvKey, &S)> {
        self.entries
            .iter()
            .map(|(t, k, ev)| (Time::from_ps(*t), unpack_key(*k), ev))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            buckets: std::array::from_fn(|_| Vec::new()),
            min_t: [u64::MAX; BUCKETS],
            occupied: 0,
            last: 0,
            active: false,
            run: Vec::new(),
            cursor: 0,
            side: Vec::new(),
            len: 0,
            pushed: 0,
        }
    }
}

/// Binary min-heap push for the side buffer (hole-based sift-up).
#[inline]
fn side_push<E: Copy>(heap: &mut Vec<(u64, E)>, entry: (u64, E)) {
    let mut i = heap.len();
    heap.push(entry);
    while i > 0 {
        let p = (i - 1) / 2;
        if heap[p].0 <= entry.0 {
            break;
        }
        heap[i] = heap[p];
        i = p;
    }
    heap[i] = entry;
}

/// Binary min-heap pop for the side buffer. Caller ensures non-empty.
#[inline]
fn side_pop<E: Copy>(heap: &mut Vec<(u64, E)>) -> (u64, E) {
    let top = heap[0];
    let last = heap.pop().expect("side heap non-empty");
    let n = heap.len();
    if n > 0 {
        let mut i = 0;
        loop {
            let mut c = 2 * i + 1;
            if c >= n {
                break;
            }
            if c + 1 < n && heap[c + 1].0 < heap[c].0 {
                c += 1;
            }
            if last.0 <= heap[c].0 {
                break;
            }
            heap[i] = heap[c];
            i = c;
        }
        heap[i] = last;
    }
    top
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(crank: u32, cseq: u32) -> EvKey {
        EvKey { crank, cseq }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_ps(30), k(0, 0), "c");
        q.push(Time::from_ps(10), k(0, 1), "a");
        q.push(Time::from_ps(20), k(0, 2), "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(Time::from_ps(10)));
        assert_eq!(q.peek_min(), Some((Time::from_ps(10), k(0, 1))));
        assert_eq!(q.pop(), Some((Time::from_ps(10), k(0, 1), "a")));
        assert_eq!(q.pop(), Some((Time::from_ps(20), k(0, 2), "b")));
        assert_eq!(q.pop(), Some((Time::from_ps(30), k(0, 0), "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.peek_min(), None);
        assert_eq!(q.total_pushed(), 3);
    }

    /// Same-time events pop ordered by `(crank, cseq)` — a stable FIFO
    /// per creating rank, ranks interleaved in rank order.
    #[test]
    fn ties_break_by_creator_key() {
        let mut q = EventQueue::new();
        // Insert deliberately scrambled.
        q.push(Time::from_ps(5), k(1, 0), (1u32, 0u64));
        q.push(Time::from_ps(5), k(0, 1), (0, 1));
        q.push(Time::from_ps(5), k(1, 7), (1, 7));
        q.push(Time::from_ps(5), k(0, 0), (0, 0));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, e)| e).collect();
        assert_eq!(order, vec![(0, 0), (0, 1), (1, 0), (1, 7)]);
    }

    /// The packed `u64` tie-break must order exactly like the
    /// `(crank, cseq)` pair, including at field boundaries.
    #[test]
    fn packed_key_orders_like_tuple() {
        let samples = [
            k(0, 0),
            k(0, 1),
            k(1, 0),
            k(1, u32::MAX),
            k(u32::MAX, 0),
            k(u32::MAX, u32::MAX),
        ];
        for &ka in &samples {
            for &kb in &samples {
                let tuple = ka.cmp(&kb);
                let packed = pack_key(ka).cmp(&pack_key(kb));
                assert_eq!(tuple, packed, "{ka:?} vs {kb:?}");
                assert_eq!(unpack_key(pack_key(ka)), ka);
            }
        }
    }

    /// The pop order of a fixed event set is independent of insertion
    /// order — the property the sharded engine's mailbox drain relies on
    /// (cross-shard events are inserted at window boundaries in whatever
    /// order shards drained, yet must pop identically to serial).
    #[test]
    fn pop_order_is_insertion_order_independent() {
        let events: Vec<(Time, EvKey, usize)> = (0..200usize)
            .map(|i| {
                let t = Time::from_ps((i as u64).wrapping_mul(7919) % 50);
                (t, k((i % 7) as u32, (i / 7) as u32), i)
            })
            .collect();
        let mut fwd = EventQueue::new();
        for &(t, key, e) in &events {
            fwd.push(t, key, e);
        }
        let mut rev = EventQueue::new();
        for &(t, key, e) in events.iter().rev() {
            rev.push(t, key, e);
        }
        loop {
            let (a, b) = (fwd.pop(), rev.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// The bulk-seed path must pop in exactly the order the
    /// push-one-at-a-time path would, including ties — many distinct
    /// times collide on purpose here.
    #[test]
    fn seed_matches_sequential_pushes() {
        let items: Vec<(Time, EvKey, usize)> = (0..500usize)
            .map(|i| {
                let t = Time::from_ps((i as u64).wrapping_mul(7919) % 50);
                (t, k((i % 3) as u32, (i / 3) as u32), i)
            })
            .collect();
        let mut pushed = EventQueue::new();
        for &(t, key, e) in &items {
            pushed.push(t, key, e);
        }
        let mut seeded = EventQueue::new();
        seeded.seed(items.iter().copied());
        assert_eq!(seeded.len(), pushed.len());
        assert_eq!(seeded.total_pushed(), pushed.total_pushed());
        while !pushed.is_empty() {
            assert_eq!(seeded.pop(), pushed.pop());
        }
        assert_eq!(seeded.pop(), None);
    }

    /// Seeding a non-empty queue merges with what is already there.
    #[test]
    fn seed_after_pushes_merges() {
        let mut mixed = EventQueue::new();
        mixed.push(Time::from_ps(5), k(0, 0), 0);
        mixed.push(Time::from_ps(5), k(0, 1), 1);
        mixed.seed([
            (Time::from_ps(5), k(1, 0), 2),
            (Time::from_ps(3), k(2, 0), 3),
        ]);
        let order: Vec<_> = std::iter::from_fn(|| mixed.pop())
            .map(|(_, _, e)| e)
            .collect();
        assert_eq!(order, vec![3, 0, 1, 2]);
    }

    /// `clear` leaves the queue indistinguishable from a fresh one.
    #[test]
    fn clear_behaves_like_fresh() {
        let mut q = EventQueue::new();
        q.push(Time::from_ps(1), k(0, 0), 100);
        q.push(Time::from_ps(1), k(0, 1), 200);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.total_pushed(), 0);
        q.push(Time::from_ps(9), k(0, 0), 300);
        q.push(Time::from_ps(9), k(0, 1), 400);
        assert_eq!(q.pop(), Some((Time::from_ps(9), k(0, 0), 300)));
        assert_eq!(q.pop(), Some((Time::from_ps(9), k(0, 1), 400)));
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::with_capacity(4);
        q.push(Time::from_ps(10), k(0, 0), 1);
        q.push(Time::from_ps(5), k(0, 1), 0);
        assert_eq!(q.pop().unwrap().2, 0);
        q.push(Time::from_ps(7), k(0, 2), 2);
        assert_eq!(q.pop().unwrap().2, 2);
        assert_eq!(q.pop().unwrap().2, 1);
    }

    /// Pushing below the drained-but-active timestamp (the rebase slow
    /// path — unreachable from the engine, legal for the API).
    #[test]
    fn push_below_active_timestamp() {
        let mut q = EventQueue::new();
        q.push(Time::from_ps(10), k(0, 0), "b");
        q.push(Time::from_ps(20), k(0, 1), "d");
        assert_eq!(q.pop(), Some((Time::from_ps(10), k(0, 0), "b")));
        // 10 is now the active (exhausted) run; push both below it and
        // at it, then above it.
        q.push(Time::from_ps(5), k(0, 2), "a");
        q.push(Time::from_ps(10), k(0, 3), "c");
        assert_eq!(q.peek_min(), Some((Time::from_ps(5), k(0, 2))));
        assert_eq!(q.pop(), Some((Time::from_ps(5), k(0, 2), "a")));
        assert_eq!(q.pop(), Some((Time::from_ps(10), k(0, 3), "c")));
        assert_eq!(q.pop(), Some((Time::from_ps(20), k(0, 1), "d")));
        assert_eq!(q.pop(), None);
    }

    /// Rebase with the active run only partially consumed.
    #[test]
    fn push_below_partially_drained_run() {
        let mut q = EventQueue::new();
        for i in 0..4 {
            q.push(Time::from_ps(10), k(0, i), i);
        }
        assert_eq!(q.pop(), Some((Time::from_ps(10), k(0, 0), 0)));
        // Same-instant push lands in the side heap, then an earlier
        // push re-files run + side together.
        q.push(Time::from_ps(10), k(1, 0), 100);
        q.push(Time::from_ps(3), k(0, 4), 99);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, e)| e).collect();
        assert_eq!(order, vec![99, 1, 2, 3, 100]);
    }

    /// `pop_batch` drains exactly the leading same-timestamp run, in
    /// pop order, and leaves the next timestamp intact.
    #[test]
    fn pop_batch_drains_one_timestamp() {
        let mut q = EventQueue::new();
        q.push(Time::from_ps(5), k(1, 0), "b");
        q.push(Time::from_ps(5), k(0, 0), "a");
        q.push(Time::from_ps(7), k(0, 1), "c");
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(&mut out), 2);
        assert_eq!(
            out,
            vec![
                (Time::from_ps(5), k(0, 0), "a"),
                (Time::from_ps(5), k(1, 0), "b"),
            ]
        );
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_batch(&mut out), 1);
        assert_eq!(out, vec![(Time::from_ps(7), k(0, 1), "c")]);
        assert_eq!(q.pop_batch(&mut out), 0);
        assert!(out.is_empty());
    }

    /// `pop_batch` must include side-heap entries (same-instant pushes
    /// after partial drains) merged into key order.
    #[test]
    fn pop_batch_merges_side_heap() {
        let mut q = EventQueue::new();
        q.push(Time::from_ps(5), k(0, 0), 0);
        q.push(Time::from_ps(5), k(2, 0), 3);
        assert_eq!(q.pop(), Some((Time::from_ps(5), k(0, 0), 0)));
        // Land two more at the active instant: one ahead of the run
        // head, one behind it.
        q.push(Time::from_ps(5), k(1, 0), 2);
        q.push(Time::from_ps(5), k(0, 1), 1);
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(&mut out), 3);
        let got: Vec<_> = out.iter().map(|&(_, _, e)| e).collect();
        assert_eq!(got, vec![1, 2, 3]);
        assert_eq!(q.pop_batch(&mut out), 0);
    }

    /// `peek_active_min` sees only the active timestamp: run head vs
    /// side head, never a later bucket.
    #[test]
    fn peek_active_min_sees_only_the_active_timestamp() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_active_min(), None);
        q.push(Time::from_ps(5), k(2, 0), 0);
        q.push(Time::from_ps(9), k(0, 0), 1);
        // Nothing is active before the first activation.
        assert_eq!(q.peek_active_min(), None);
        assert_eq!(q.peek_min(), Some((Time::from_ps(5), k(2, 0))));
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(&mut out), 1);
        assert_eq!(q.peek_active_min(), None);
        assert_eq!(q.peek_time(), Some(Time::from_ps(9)));
        // A same-instant push is visible to both peeks.
        q.push(Time::from_ps(5), k(1, 0), 2);
        assert_eq!(q.peek_active_min(), Some((Time::from_ps(5), k(1, 0))));
        assert_eq!(q.peek_min(), q.peek_active_min());
        assert_eq!(q.pop(), Some((Time::from_ps(5), k(1, 0), 2)));
        assert_eq!(q.pop(), Some((Time::from_ps(9), k(0, 0), 1)));
        assert_eq!(q.pop(), None);
    }

    /// Times at the top of the `u64` range land in the highest buckets
    /// and still pop in order.
    #[test]
    fn extreme_times_pop_in_order() {
        let mut q = EventQueue::new();
        let times = [u64::MAX, 0, u64::MAX - 1, 1 << 63, (1 << 63) - 1, 1];
        for (i, &t) in times.iter().enumerate() {
            q.push(Time::from_ps(t), k(0, i as u32), i);
        }
        let mut sorted = times;
        sorted.sort_unstable();
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _, _)| t.as_ps())
            .collect();
        assert_eq!(popped, sorted);
    }

    /// A snapshot taken mid-run and restored into a queue that has
    /// already been used pops exactly what the uninterrupted queue pops,
    /// including events left in a partly drained run or the side heap.
    #[test]
    fn snapshot_round_trip_preserves_pop_order() {
        // A causal workload: every pop pushes up to two successors, a
        // third of them at the popped instant.
        #[derive(Clone)]
        struct Driver {
            rng: u64,
            seq: [u32; 4],
            budget: u32,
        }
        impl Driver {
            fn next(&mut self) -> u64 {
                self.rng ^= self.rng << 13;
                self.rng ^= self.rng >> 7;
                self.rng ^= self.rng << 17;
                self.rng
            }
            fn step(&mut self, q: &mut EventQueue<u32>) -> Option<(Time, EvKey, u32)> {
                let popped = q.pop()?;
                for _ in 0..2 {
                    let r = self.next();
                    if self.budget == 0 || r.is_multiple_of(4) {
                        continue;
                    }
                    self.budget -= 1;
                    let dt = if r.is_multiple_of(3) {
                        0
                    } else {
                        (r >> 8) % 40
                    };
                    let c = ((r >> 16) % 4) as usize;
                    let key = k(c as u32, self.seq[c]);
                    self.seq[c] += 1;
                    q.push(popped.0 + cesim_model::Span::from_ps(dt), key, popped.2 + 1);
                }
                Some(popped)
            }
        }
        let start = |d: &mut Driver| {
            let mut q = EventQueue::new();
            for c in 0..4u32 {
                q.push(Time::from_ps(u64::from(c % 2)), k(c, 0), 0);
                d.seq[c as usize] = 1;
            }
            q
        };
        let fresh = Driver {
            rng: 0x2545_F491_4F6C_DD1D,
            seq: [0; 4],
            budget: 600,
        };
        let mut d = fresh.clone();
        let mut q = start(&mut d);
        let full: Vec<_> = std::iter::from_fn(|| d.step(&mut q)).collect();
        assert!(full.len() > 400, "{} events", full.len());
        // A used queue to restore into: it ran the same workload and
        // still holds half of it.
        let mut used_d = fresh.clone();
        let mut used = start(&mut used_d);
        for _ in 0..200 {
            used_d.step(&mut used);
        }
        for at in (0..full.len()).step_by(7) {
            let mut d = fresh.clone();
            let mut q = start(&mut d);
            for _ in 0..at {
                d.step(&mut q);
            }
            let snap = q.snapshot_with(|e| e);
            assert_eq!(snap.len(), q.len());
            used.restore_with(&snap, |e| e);
            assert_eq!(used.len(), q.len());
            assert_eq!(used.total_pushed(), q.total_pushed());
            let rest: Vec<_> = std::iter::from_fn(|| d.step(&mut used)).collect();
            assert_eq!(rest, full[at..], "restored at event {at}");
        }
    }

    /// Repeated resets of a desynchronized wide-timestamp run keep the
    /// queue's buffers within a small multiple of the peak live events:
    /// drained buckets beyond `RETAIN_CAP` are freed rather than each
    /// keeping its own high-water capacity.
    #[test]
    fn retained_capacity_stays_bounded_across_resets() {
        const RANKS: u32 = 4096;
        const SUCCESSORS: usize = 40_000;
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut jitter = |bits: u32| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng >> (64 - bits)
        };
        let mut q = EventQueue::new();
        let (mut peak_live, mut peak_cap) = (0, 0);
        let mut after_first = 0;
        for reset in 0..4 {
            q.clear();
            let mut seq = vec![0u32; RANKS as usize];
            for r in 0..RANKS {
                q.push(Time::from_ps(jitter(20)), k(r, 0), r);
                seq[r as usize] = 1;
            }
            let mut budget = SUCCESSORS;
            while let Some((t, key, r)) = q.pop() {
                if budget > 0 {
                    budget -= 1;
                    let s = &mut seq[r as usize];
                    let next =
                        t.as_ps() + 1 + jitter(if budget.is_multiple_of(3) { 40 } else { 16 });
                    q.push(Time::from_ps(next), k(key.crank, *s), r);
                    *s += 1;
                }
                peak_live = peak_live.max(q.len());
                if budget.is_multiple_of(256) {
                    peak_cap = peak_cap.max(q.retained_capacity());
                }
            }
            if reset == 0 {
                after_first = q.retained_capacity();
            }
        }
        assert_eq!(peak_live, RANKS as usize);
        assert!(
            peak_cap <= 4 * peak_live,
            "peak capacity {peak_cap} entries vs {peak_live} live"
        );
        assert!(
            q.retained_capacity() <= after_first.max(peak_live),
            "capacity grew across resets: {} after the first run, {} after the last",
            after_first,
            q.retained_capacity()
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Same-timestamp events pop in stable FIFO order: per creating
        /// rank they come out in creation order, ties across ranks break
        /// by rank id, and none of it depends on the order events were
        /// pushed into the queue (or whether they arrived via `push` or
        /// the bulk `seed` path).
        #[test]
        fn same_time_pop_order_is_stable_fifo(
            // Few distinct timestamps + few ranks → dense tie collisions.
            items in proptest::collection::vec((0u64..4, 0u32..3), 1..64),
            shuffle in 0u64..=u64::MAX,
        ) {
            // Assign each event its creator's FIFO sequence number.
            let mut next_seq = [0u32; 3];
            let mut events: Vec<(Time, EvKey, usize)> = items
                .iter()
                .enumerate()
                .map(|(payload, &(t, crank))| {
                    let cseq = next_seq[crank as usize];
                    next_seq[crank as usize] += 1;
                    (Time::from_ps(t), EvKey { crank, cseq }, payload)
                })
                .collect();

            let mut expected = events.clone();
            expected.sort_by_key(|&(t, key, _)| (t, key));

            // Push in a shuffled order (deterministic xorshift walk).
            let mut order: Vec<usize> = (0..events.len()).collect();
            let mut s = shuffle | 1;
            for i in (1..order.len()).rev() {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                order.swap(i, (s % (i as u64 + 1)) as usize);
            }

            let mut q = EventQueue::new();
            for &i in &order {
                let (t, key, p) = events[i];
                q.push(t, key, p);
            }
            let mut popped = Vec::new();
            while let Some(e) = q.pop() {
                popped.push(e);
            }
            prop_assert_eq!(&popped, &expected);

            // The bulk-seed path must agree with the push path exactly
            // (under yet another insertion order).
            for i in (1..events.len()).rev() {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                events.swap(i, (s % (i as u64 + 1)) as usize);
            }
            let mut q2 = EventQueue::new();
            q2.seed(events);
            let mut popped2 = Vec::new();
            while let Some(e) = q2.pop() {
                popped2.push(e);
            }
            prop_assert_eq!(&popped2, &expected);
        }

        /// Flattening successive `pop_batch` calls yields exactly the
        /// sequence repeated `pop` would — including same-timestamp FIFO
        /// ties — and each batch covers one whole timestamp run.
        #[test]
        fn pop_batch_flattens_to_pop_sequence(
            items in proptest::collection::vec((0u64..4, 0u32..3), 1..64),
        ) {
            let mut next_seq = [0u32; 3];
            let events: Vec<(Time, EvKey, usize)> = items
                .iter()
                .enumerate()
                .map(|(payload, &(t, crank))| {
                    let cseq = next_seq[crank as usize];
                    next_seq[crank as usize] += 1;
                    (Time::from_ps(t), EvKey { crank, cseq }, payload)
                })
                .collect();

            let mut a = EventQueue::new();
            let mut b = EventQueue::new();
            for &(t, key, p) in &events {
                a.push(t, key, p);
                b.push(t, key, p);
            }

            let mut by_pop = Vec::new();
            while let Some(e) = a.pop() {
                by_pop.push(e);
            }

            let mut by_batch = Vec::new();
            let mut scratch = Vec::new();
            loop {
                let n = b.pop_batch(&mut scratch);
                prop_assert_eq!(n, scratch.len());
                if n == 0 {
                    break;
                }
                // A batch is exactly one timestamp run: uniform inside,
                // strictly earlier than whatever remains queued.
                let t0 = scratch[0].0;
                prop_assert!(scratch.iter().all(|&(t, _, _)| t == t0));
                if let Some(next) = b.peek_time() {
                    prop_assert!(next > t0);
                }
                by_batch.extend_from_slice(&scratch);
            }
            prop_assert_eq!(&by_batch, &by_pop);
        }

        /// Interleaved pushes and pops — including pushes at and below
        /// the timestamp currently being drained — always produce the
        /// globally sorted `(time, crank, cseq)` sequence. This walks
        /// the activation, side-heap, and rebase paths randomly.
        #[test]
        fn interleaved_ops_stay_sorted(
            script in proptest::collection::vec((0u64..6, 0u32..3, 0u8..2), 1..80),
        ) {
            let mut next_seq = [0u32; 3];
            let mut q = EventQueue::new();
            let mut live: Vec<(Time, EvKey, usize)> = Vec::new();
            for (i, &(t, crank, do_pop)) in script.iter().enumerate() {
                let do_pop = do_pop == 1;
                let cseq = next_seq[crank as usize];
                next_seq[crank as usize] += 1;
                let key = EvKey { crank, cseq };
                q.push(Time::from_ps(t), key, i);
                live.push((Time::from_ps(t), key, i));
                if do_pop {
                    let got = q.pop().expect("queue non-empty");
                    live.sort_by_key(|&(t, key, _)| (t, key));
                    let expect = live.remove(0);
                    prop_assert_eq!(got, expect);
                }
            }
            live.sort_by_key(|&(t, key, _)| (t, key));
            for expect in live {
                prop_assert_eq!(q.pop(), Some(expect));
            }
            prop_assert_eq!(q.pop(), None);
        }

        /// Wide and clustered `u64` times — up to `u64::MAX`, so every
        /// radix bucket is reached — interleaved with pops, batch pops,
        /// same-instant, near-future and below-active pushes, checked
        /// after every step against a sorted reference model. Whenever
        /// the run or the side heap holds events, `peek_active_min` must
        /// agree with `peek_min`.
        #[test]
        fn wide_times_match_sorted_model(
            base in prop_oneof![Just(0u64), 0u64..=u64::MAX, (u64::MAX - 4096)..=u64::MAX],
            script in proptest::collection::vec((0u8..7, 0u64..=u64::MAX, 0u32..4), 1..160),
        ) {
            let mut next_seq = [0u32; 4];
            let mut q = EventQueue::new();
            let mut model: Vec<(Time, EvKey, usize)> = Vec::new();
            let mut now: Option<u64> = None;
            let mut out = Vec::new();
            for (i, &(op, raw, crank)) in script.iter().enumerate() {
                let push_at = match op {
                    0 => Some(raw),
                    1 => Some(base.saturating_add(raw % 64)),
                    2 => Some(now.unwrap_or(raw)),
                    3 => Some(now.map_or(raw, |n| n.saturating_sub(1 + raw % 1024))),
                    4 => Some(now.map_or(raw, |n| n.saturating_add(raw % 1024))),
                    _ => None,
                };
                if let Some(t) = push_at {
                    let key = EvKey { crank, cseq: next_seq[crank as usize] };
                    next_seq[crank as usize] += 1;
                    q.push(Time::from_ps(t), key, i);
                    model.push((Time::from_ps(t), key, i));
                }
                model.sort_by_key(|&(t, key, _)| (t, key));
                if op == 5 {
                    let got = q.pop();
                    let expect = (!model.is_empty()).then(|| model.remove(0));
                    prop_assert_eq!(got, expect);
                    now = got.map(|(t, _, _)| t.as_ps()).or(now);
                } else if op == 6 {
                    let n = q.pop_batch(&mut out);
                    let run = model.iter().take_while(|e| Some(e.0) == model.first().map(|f| f.0)).count();
                    let expect: Vec<_> = model.drain(..run).collect();
                    prop_assert_eq!(n, expect.len());
                    prop_assert_eq!(&out, &expect);
                    now = out.first().map(|&(t, _, _)| t.as_ps()).or(now);
                }
                prop_assert_eq!(q.len(), model.len());
                let min = model.first().map(|&(t, key, _)| (t, key));
                prop_assert_eq!(q.peek_min(), min);
                prop_assert_eq!(q.peek_time(), min.map(|(t, _)| t));
                if !q.active_is_drained() {
                    prop_assert_eq!(q.peek_active_min(), min);
                } else {
                    prop_assert_eq!(q.peek_active_min(), None);
                }
            }
            for expect in model {
                prop_assert_eq!(q.pop(), Some(expect));
            }
            prop_assert_eq!(q.pop(), None);
        }
    }
}
