//! Bounded ring-buffer recorder.

use cesim_engine::record::{Recorder, SimEvent};

/// Default event capacity when none is given: enough for small and
/// medium schedules without growing unbounded on large sweeps.
pub const DEFAULT_CAPACITY: usize = 1 << 20;

/// A bounded recorder: keeps the most recent `capacity` events in a ring
/// buffer, dropping the oldest once full.
///
/// The buffer is allocated up front (one flat `Vec<SimEvent>`); recording
/// an event is an index write plus two counter bumps, never an
/// allocation. [`TimelineRecorder::dropped`] reports how many events were
/// overwritten so downstream consumers can tell a complete timeline from
/// a truncated one.
#[derive(Clone, Debug)]
pub struct TimelineRecorder {
    buf: Vec<SimEvent>,
    cap: usize,
    /// Index of the oldest retained event once the ring has wrapped.
    head: usize,
    /// Events overwritten after the ring filled.
    dropped: u64,
    /// Total events offered (retained + dropped).
    total: u64,
}

impl TimelineRecorder {
    /// A recorder retaining at most `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(1);
        TimelineRecorder {
            buf: Vec::with_capacity(cap),
            cap,
            head: 0,
            dropped: 0,
            total: 0,
        }
    }

    /// A recorder sized for the full event stream of a typical run of a
    /// schedule with `ops` ops (about a dozen events per op), between
    /// 2^10 and 2^22 events so that a huge schedule cannot exhaust
    /// memory.
    pub fn for_ops(ops: u64) -> Self {
        Self::with_capacity(ops.saturating_mul(12).clamp(1 << 10, 1 << 22) as usize)
    }

    /// A recorder with [`DEFAULT_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no events have been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events offered to the recorder (retained + dropped).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Retained events in emission order (oldest first).
    pub fn events(&self) -> Vec<SimEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Iterate retained events in emission order without copying.
    pub fn iter(&self) -> impl Iterator<Item = &SimEvent> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }
}

impl Default for TimelineRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder for TimelineRecorder {
    #[inline]
    fn record(&mut self, ev: SimEvent) {
        self.total += 1;
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cesim_model::Time;

    fn ev(i: u64) -> SimEvent {
        SimEvent::OpDone {
            rank: 0,
            op: i as u32,
            at: Time::from_ps(i),
        }
    }

    #[test]
    fn retains_everything_under_capacity() {
        let mut r = TimelineRecorder::with_capacity(8);
        for i in 0..5 {
            r.record(ev(i));
        }
        assert_eq!(r.len(), 5);
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.total(), 5);
        let evs = r.events();
        assert_eq!(evs.len(), 5);
        assert_eq!(evs[0], ev(0));
        assert_eq!(evs[4], ev(4));
    }

    #[test]
    fn drops_oldest_when_full() {
        let mut r = TimelineRecorder::with_capacity(4);
        for i in 0..10 {
            r.record(ev(i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        assert_eq!(r.total(), 10);
        // Oldest-first order of the surviving tail.
        let evs = r.events();
        assert_eq!(evs, vec![ev(6), ev(7), ev(8), ev(9)]);
        assert_eq!(r.iter().count(), 4);
    }

    #[test]
    fn sized_for_a_dozen_events_per_op() {
        assert_eq!(TimelineRecorder::for_ops(0).cap, 1 << 10);
        assert_eq!(TimelineRecorder::for_ops(1000).cap, 12_000);
    }

    #[test]
    fn capacity_floor_is_one() {
        let mut r = TimelineRecorder::with_capacity(0);
        r.record(ev(1));
        r.record(ev(2));
        assert_eq!(r.len(), 1);
        assert_eq!(r.events(), vec![ev(2)]);
    }
}
