//! Tag-bucketed MPI match queues.
//!
//! The simulator keeps two match queues per rank: posted receives and
//! unexpected messages. Both were flat `VecDeque`s searched with a linear
//! `position` scan and removed from with `VecDeque::remove` — O(n) per
//! match, which dominates on communication-heavy schedules where many
//! operations share a rank.
//!
//! [`TagQueue`] replaces the flat queue with a per-[`Tag`] FIFO bucket.
//! This is **order-equivalent** to the flat scan because MPI tags in this
//! engine are always exact-match on both sides (there is no `MPI_ANY_TAG`):
//! the flat scan `position(|e| e.tag == tag && pred(e))` only ever inspects
//! entries of the requested tag, in insertion order — exactly the contents
//! of that tag's bucket. The source wildcard (`MPI_ANY_SOURCE`, modelled as
//! `src == None`) lives inside `pred` and is evaluated bucket-locally in
//! the same FIFO order, so the matched entry is identical.
//!
//! Entries are pushed in simulation order and each bucket preserves it, so
//! FIFO matching per `(source, tag)` — the MPI non-overtaking rule — is
//! preserved. `tests/matchq_equivalence.rs` property-checks this module
//! against the original linear scan on random post/arrive interleavings.

use cesim_goal::Tag;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// Fibonacci-multiply hasher for the 4-byte [`Tag`] keys.
///
/// The default SipHash is keyed and DoS-resistant, which costs ~10× more
/// per lookup than this workload needs: tags are small dense program
/// constants, the map is process-internal, and every message match does
/// at least one lookup. A single odd-constant multiply mixes the low
/// bits (which `HashMap` uses for bucket selection) well enough.
/// Deterministic across runs — but note match results never depend on
/// bucket order anyway (matching is exact-tag FIFO; only the diagnostic
/// [`TagQueue::iter`] observes map order).
#[derive(Default)]
pub struct TagHasher(u64);

impl Hasher for TagHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused by `Tag`, which hashes as one u32).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The multiply concentrates entropy in the high bits; fold them
        // down so the map's low-bit masking sees them.
        self.0 ^ (self.0 >> 32)
    }
}

type TagMap<V> = HashMap<Tag, V, BuildHasherDefault<TagHasher>>;

/// A FIFO match queue bucketed by message [`Tag`].
///
/// Semantically a single FIFO of entries, each filed under a tag;
/// [`take_first`](TagQueue::take_first) pops the earliest-pushed entry of a
/// given tag that satisfies a predicate, in O(bucket length) instead of
/// O(total length). Since tag match is exact, entries of other tags can
/// never match and skipping them wholesale is safe.
#[derive(Clone, Debug)]
pub struct TagQueue<E> {
    buckets: TagMap<VecDeque<E>>,
    len: usize,
    /// Drained bucket ring buffers, kept for reuse: pruning a bucket
    /// parks its (empty) `VecDeque` here and the next push under a fresh
    /// tag adopts one instead of allocating. Run-scratch reuse relies on
    /// this — repeated simulations of the same schedule reach a steady
    /// state with no match-queue allocation at all.
    spare: Vec<VecDeque<E>>,
}

// Manual impl: the derive would needlessly bound `E: Default`.
impl<E> Default for TagQueue<E> {
    fn default() -> Self {
        TagQueue::new()
    }
}

impl<E> TagQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        TagQueue {
            buckets: TagMap::default(),
            len: 0,
            spare: Vec::new(),
        }
    }

    /// Append `entry` under `tag` (the back of that tag's FIFO).
    #[inline]
    pub fn push(&mut self, tag: Tag, entry: E) {
        self.buckets
            .entry(tag)
            .or_insert_with(|| self.spare.pop().unwrap_or_default())
            .push_back(entry);
        self.len += 1;
    }

    /// Drop all entries while retaining bucket allocations (parked in
    /// the spare pool) and the map's capacity — a cleared queue is
    /// observationally an empty one, but re-filling it with the same
    /// tag population allocates nothing.
    pub fn clear(&mut self) {
        for (_, mut bucket) in self.buckets.drain() {
            bucket.clear();
            self.spare.push(bucket);
        }
        self.len = 0;
    }

    /// Replace the contents with `entries`, pushed in order. Fed what
    /// [`TagQueue::iter`] listed (FIFO within each tag), it rebuilds a
    /// queue that matches exactly like the one iterated; allocations
    /// are kept as by [`TagQueue::clear`].
    pub fn restore(&mut self, entries: impl IntoIterator<Item = (Tag, E)>) {
        self.clear();
        for (tag, e) in entries {
            self.push(tag, e);
        }
    }

    /// Remove and return the earliest-pushed entry under `tag` for which
    /// `pred` holds, or `None` if no such entry exists.
    ///
    /// The predicate carries the source filter: a posted receive with
    /// `src == None` matches any arrival, and an arrival probes a posted
    /// queue whose entries may themselves hold wildcards. Entries that fail
    /// `pred` stay in place, preserving their FIFO position for later
    /// matches.
    pub fn take_first(&mut self, tag: Tag, mut pred: impl FnMut(&E) -> bool) -> Option<E> {
        let bucket = self.buckets.get_mut(&tag)?;
        let idx = bucket.iter().position(&mut pred)?;
        let entry = bucket.remove(idx);
        debug_assert!(entry.is_some());
        self.len -= 1;
        if bucket.is_empty() {
            if let Some(drained) = self.buckets.remove(&tag) {
                self.spare.push(drained);
            }
        }
        entry
    }

    /// Total entries across all tags.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are queued under any tag.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entries under `tag`, FIFO, or `None` if there are none.
    pub(crate) fn fifo(&self, tag: Tag) -> Option<&VecDeque<E>> {
        self.buckets.get(&tag)
    }

    /// Iterate over all entries, grouped by tag, FIFO within each tag.
    /// Tag group order is unspecified; use only for diagnostics.
    pub fn iter(&self) -> impl Iterator<Item = (Tag, &E)> {
        self.buckets
            .iter()
            .flat_map(|(&tag, bucket)| bucket.iter().map(move |e| (tag, e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_tag() {
        let mut q = TagQueue::new();
        q.push(Tag(1), "a");
        q.push(Tag(1), "b");
        q.push(Tag(2), "c");
        assert_eq!(q.len(), 3);
        assert_eq!(q.take_first(Tag(1), |_| true), Some("a"));
        assert_eq!(q.take_first(Tag(1), |_| true), Some("b"));
        assert_eq!(q.take_first(Tag(1), |_| true), None);
        assert_eq!(q.take_first(Tag(2), |_| true), Some("c"));
        assert!(q.is_empty());
    }

    #[test]
    fn predicate_skips_without_disturbing_order() {
        let mut q = TagQueue::new();
        q.push(Tag(7), 10);
        q.push(Tag(7), 20);
        q.push(Tag(7), 30);
        // Skip the head; FIFO among the rest is intact.
        assert_eq!(q.take_first(Tag(7), |&e| e > 10), Some(20));
        assert_eq!(q.take_first(Tag(7), |_| true), Some(10));
        assert_eq!(q.take_first(Tag(7), |_| true), Some(30));
    }

    #[test]
    fn missing_tag_is_none() {
        let mut q: TagQueue<u32> = TagQueue::new();
        assert_eq!(q.take_first(Tag(9), |_| true), None);
        q.push(Tag(1), 1);
        assert_eq!(q.take_first(Tag(9), |_| true), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn empty_buckets_are_pruned() {
        let mut q = TagQueue::new();
        for i in 0..100u32 {
            q.push(Tag(i), i);
        }
        for i in 0..100u32 {
            assert_eq!(q.take_first(Tag(i), |_| true), Some(i));
        }
        assert!(q.is_empty());
        assert_eq!(q.iter().count(), 0);
    }

    #[test]
    fn clear_retains_bucket_allocations() {
        let mut q = TagQueue::new();
        for round in 0..3 {
            for i in 0..50u32 {
                q.push(Tag(i % 5), i + round);
            }
            assert_eq!(q.len(), 50);
            q.clear();
            assert!(q.is_empty());
            assert_eq!(q.iter().count(), 0);
            assert_eq!(q.take_first(Tag(0), |_| true), None);
        }
        // After a clear the drained buckets are reusable spares.
        assert!(q.spare.len() >= 5);
        q.push(Tag(9), 1);
        assert_eq!(q.take_first(Tag(9), |_| true), Some(1));
    }

    /// A queue rebuilt by `restore` from another's `iter` — mid-run, into
    /// a queue that has already been used — matches every later lookup
    /// exactly as the original does.
    #[test]
    fn restore_from_iter_round_trips_mid_run() {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        // (is_push, tag, value): pushes of (src, id) records and
        // source-filtered takes, over a few tags.
        let ops: Vec<(bool, u32, u32)> = (0..400)
            .map(|i| {
                let r = next();
                (r % 5 < 3, (r >> 8) as u32 % 4, i)
            })
            .collect();
        let apply = |q: &mut TagQueue<(u32, u32)>, &(push, tag, v): &(bool, u32, u32)| {
            if push {
                q.push(Tag(tag), (v % 3, v));
                None
            } else {
                q.take_first(Tag(tag), |&(src, _)| src == v % 3)
            }
        };
        let mut used = TagQueue::new();
        for op in &ops[..150] {
            apply(&mut used, op);
        }
        for at in (0..ops.len()).step_by(25) {
            let mut q = TagQueue::new();
            for op in &ops[..at] {
                apply(&mut q, op);
            }
            used.restore(q.iter().map(|(t, &e)| (t, e)));
            assert_eq!(used.len(), q.len());
            for op in &ops[at..] {
                assert_eq!(
                    apply(&mut used, op),
                    apply(&mut q, op),
                    "restored at op {at}"
                );
            }
        }
    }

    #[test]
    fn iter_visits_everything() {
        let mut q = TagQueue::new();
        q.push(Tag(1), 'x');
        q.push(Tag(2), 'y');
        q.push(Tag(1), 'z');
        let mut seen: Vec<(u32, char)> = q.iter().map(|(t, &e)| (t.0, e)).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![(1, 'x'), (1, 'z'), (2, 'y')]);
    }
}
