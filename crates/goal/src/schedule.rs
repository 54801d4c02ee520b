//! The schedule container and aggregate statistics.

use crate::op::{Op, OpKind, Rank};
use cesim_model::Span;
use core::fmt;

/// The dependency DAG of a single rank.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RankSchedule {
    /// Operations in insertion order; dependencies refer to indices in this
    /// vector.
    pub ops: Vec<Op>,
}

impl RankSchedule {
    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the rank has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// A complete program: one [`RankSchedule`] per rank.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Schedule {
    /// Per-rank DAGs; index = rank.
    pub ranks: Vec<RankSchedule>,
}

impl Schedule {
    /// Create an empty schedule with `n` ranks.
    pub fn with_ranks(n: usize) -> Self {
        Schedule {
            ranks: vec![RankSchedule::default(); n],
        }
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// The operations of one rank.
    pub fn rank(&self, r: Rank) -> &RankSchedule {
        &self.ranks[r.idx()]
    }

    /// Total operation count over all ranks.
    pub fn total_ops(&self) -> usize {
        self.ranks.iter().map(|r| r.ops.len()).sum()
    }

    /// Flat-layout rank offsets: `offsets[r]..offsets[r + 1]` is rank
    /// `r`'s slice of the global op index space `0..total_ops()` used by
    /// compiled schedule representations. The flat
    /// index of `(rank, op)` is `offsets[rank] + op`.
    pub fn flat_offsets(&self) -> Vec<u32> {
        let mut offsets = Vec::with_capacity(self.ranks.len() + 1);
        let mut total = 0u32;
        offsets.push(0);
        for r in &self.ranks {
            total = total
                .checked_add(u32::try_from(r.ops.len()).expect("rank op count exceeds u32"))
                .expect("total op count exceeds u32");
            offsets.push(total);
        }
        offsets
    }

    /// Iterate every op in flat order (rank-major, then op insertion
    /// order) — the exact order of the flat index space described by
    /// [`flat_offsets`](Schedule::flat_offsets).
    pub fn iter_flat(&self) -> impl Iterator<Item = (Rank, crate::op::OpId, &Op)> {
        self.ranks.iter().enumerate().flat_map(|(r, rank)| {
            rank.ops
                .iter()
                .enumerate()
                .map(move |(i, op)| (Rank(r as u32), crate::op::OpId(i as u32), op))
        })
    }

    /// Aggregate statistics (op mix, bytes, compute time).
    pub fn stats(&self) -> ScheduleStats {
        let mut s = ScheduleStats {
            ranks: self.num_ranks(),
            ..ScheduleStats::default()
        };
        for rank in &self.ranks {
            for op in &rank.ops {
                match op.kind {
                    OpKind::Calc { dur } => {
                        s.calcs += 1;
                        s.total_calc_time += dur;
                    }
                    OpKind::Send { bytes, .. } => {
                        s.sends += 1;
                        s.total_send_bytes += bytes;
                    }
                    OpKind::Recv { .. } => s.recvs += 1,
                }
                s.total_deps += op.deps.len() as u64;
            }
        }
        s
    }
}

/// Aggregate schedule statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScheduleStats {
    /// Number of ranks.
    pub ranks: usize,
    /// Total `calc` operations.
    pub calcs: u64,
    /// Total `send` operations.
    pub sends: u64,
    /// Total `recv` operations.
    pub recvs: u64,
    /// Total dependency edges.
    pub total_deps: u64,
    /// Sum of all message payloads.
    pub total_send_bytes: u64,
    /// Sum of all compute durations (single-rank serial work).
    pub total_calc_time: Span,
}

impl ScheduleStats {
    /// Total operations of all kinds.
    pub fn total_ops(&self) -> u64 {
        self.calcs + self.sends + self.recvs
    }
}

impl fmt::Display for ScheduleStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ranks, {} ops ({} calc / {} send / {} recv), {} dep edges, {} B sent, {} total compute",
            self.ranks,
            self.total_ops(),
            self.calcs,
            self.sends,
            self.recvs,
            self.total_deps,
            self.total_send_bytes,
            self.total_calc_time
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ScheduleBuilder;
    use crate::op::Tag;

    #[test]
    fn empty_schedule() {
        let s = Schedule::with_ranks(4);
        assert_eq!(s.num_ranks(), 4);
        assert_eq!(s.total_ops(), 0);
        assert!(s.rank(Rank(0)).is_empty());
        assert_eq!(s.stats().total_ops(), 0);
    }

    #[test]
    fn flat_offsets_and_iteration_agree() {
        let mut b = ScheduleBuilder::new(3);
        b.calc(Rank(0), Span::from_us(1), &[]);
        b.send(Rank(0), Rank(1), 8, Tag(1), &[]);
        b.recv(Rank(1), Some(Rank(0)), 8, Tag(1), &[]);
        // Rank 2 stays empty.
        let s = b.build();
        assert_eq!(s.flat_offsets(), vec![0, 2, 3, 3]);
        let flat: Vec<(u32, u32)> = s.iter_flat().map(|(r, i, _)| (r.0, i.0)).collect();
        assert_eq!(flat, vec![(0, 0), (0, 1), (1, 0)]);
        let off = s.flat_offsets();
        for (k, (r, i, op)) in s.iter_flat().enumerate() {
            assert_eq!(off[r.idx()] + i.0, k as u32);
            assert_eq!(&s.ranks[r.idx()].ops[i.idx()], op);
        }
    }

    #[test]
    fn stats_counts() {
        let mut b = ScheduleBuilder::new(2);
        let c = b.calc(Rank(0), Span::from_us(3), &[]);
        b.send(Rank(0), Rank(1), 100, Tag(1), &[c]);
        b.recv(Rank(1), Some(Rank(0)), 100, Tag(1), &[]);
        b.calc(Rank(1), Span::from_us(7), &[]);
        let s = b.build();
        let st = s.stats();
        assert_eq!(st.ranks, 2);
        assert_eq!(st.calcs, 2);
        assert_eq!(st.sends, 1);
        assert_eq!(st.recvs, 1);
        assert_eq!(st.total_send_bytes, 100);
        assert_eq!(st.total_calc_time, Span::from_us(10));
        assert_eq!(st.total_deps, 1);
        assert_eq!(st.total_ops(), 4);
        let text = format!("{st}");
        assert!(text.contains("2 ranks"));
        assert!(text.contains("4 ops"));
    }
}
