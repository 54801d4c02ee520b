//! Append-only schedule construction.
//!
//! The builder enforces that every dependency refers to an *earlier* op of
//! the same rank, which makes cycles unrepresentable; schedules built here
//! skip the general acyclicity check in [`crate::validate`].

use crate::op::{Op, OpId, OpKind, Rank, Tag};
use crate::schedule::{RankSchedule, Schedule};
use cesim_model::Span;

/// Incrementally builds a [`Schedule`].
#[derive(Clone, Debug)]
pub struct ScheduleBuilder {
    ranks: Vec<Vec<Op>>,
}

impl ScheduleBuilder {
    /// A builder for `n` ranks.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a schedule needs at least one rank");
        ScheduleBuilder {
            ranks: vec![Vec::new(); n],
        }
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// Number of ops currently on `rank`.
    pub fn ops_on(&self, rank: Rank) -> usize {
        self.ranks[rank.idx()].len()
    }

    fn push(&mut self, rank: Rank, kind: OpKind, deps: &[OpId]) -> OpId {
        let ops = &mut self.ranks[rank.idx()];
        let id = OpId(u32::try_from(ops.len()).expect("too many ops on a rank"));
        for d in deps {
            assert!(
                d.0 < id.0,
                "dependency {d} of new op {id} on {rank} must point backwards"
            );
        }
        ops.push(Op {
            kind,
            deps: deps.to_vec(),
        });
        id
    }

    /// Append a compute interval.
    pub fn calc(&mut self, rank: Rank, dur: Span, deps: &[OpId]) -> OpId {
        self.push(rank, OpKind::Calc { dur }, deps)
    }

    /// Append a zero-duration synchronization node that joins `deps`.
    pub fn join(&mut self, rank: Rank, deps: &[OpId]) -> OpId {
        self.push(rank, OpKind::Calc { dur: Span::ZERO }, deps)
    }

    /// Append a send.
    pub fn send(&mut self, rank: Rank, dst: Rank, bytes: u64, tag: Tag, deps: &[OpId]) -> OpId {
        assert!(dst.idx() < self.num_ranks(), "send to unknown rank {dst}");
        assert!(dst != rank, "self-send on {rank} is not modeled");
        self.push(rank, OpKind::Send { dst, bytes, tag }, deps)
    }

    /// Append a receive (from a specific source, or any source if `None`).
    pub fn recv(
        &mut self,
        rank: Rank,
        src: Option<Rank>,
        bytes: u64,
        tag: Tag,
        deps: &[OpId],
    ) -> OpId {
        if let Some(s) = src {
            assert!(s.idx() < self.num_ranks(), "recv from unknown rank {s}");
            assert!(s != rank, "self-recv on {rank} is not modeled");
        }
        self.push(rank, OpKind::Recv { src, bytes, tag }, deps)
    }

    /// Finish construction.
    pub fn build(self) -> Schedule {
        Schedule {
            ranks: self
                .ranks
                .into_iter()
                .map(|ops| RankSchedule { ops })
                .collect(),
        }
    }
}

/// Allocates disjoint tag ranges to expanded collectives so that different
/// collective instances can never match each other's messages.
#[derive(Clone, Debug)]
pub struct TagPool {
    next: u32,
}

impl TagPool {
    /// A pool starting at [`crate::op::COLLECTIVE_TAG_BASE`].
    pub fn new() -> Self {
        TagPool {
            next: crate::op::COLLECTIVE_TAG_BASE,
        }
    }

    /// Reserve `count` consecutive tags and return the first.
    pub fn alloc(&mut self, count: u32) -> Tag {
        let t = Tag(self.next);
        self.next = self
            .next
            .checked_add(count)
            .expect("collective tag space exhausted");
        t
    }

    /// Tags reserved so far.
    pub fn drawn(&self) -> u32 {
        self.next - crate::op::COLLECTIVE_TAG_BASE
    }
}

impl Default for TagPool {
    fn default() -> Self {
        TagPool::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_chain() {
        let mut b = ScheduleBuilder::new(1);
        let a = b.calc(Rank(0), Span::from_ns(1), &[]);
        let c = b.calc(Rank(0), Span::from_ns(2), &[a]);
        let d = b.join(Rank(0), &[a, c]);
        let s = b.build();
        assert_eq!(s.ranks[0].ops.len(), 3);
        assert_eq!(s.ranks[0].ops[d.idx()].deps, vec![a, c]);
    }

    #[test]
    #[should_panic(expected = "point backwards")]
    fn forward_dep_rejected() {
        let mut b = ScheduleBuilder::new(1);
        b.calc(Rank(0), Span::ZERO, &[OpId(5)]);
    }

    #[test]
    #[should_panic(expected = "self-send")]
    fn self_send_rejected() {
        let mut b = ScheduleBuilder::new(2);
        b.send(Rank(0), Rank(0), 8, Tag(0), &[]);
    }

    #[test]
    #[should_panic(expected = "unknown rank")]
    fn out_of_range_dst_rejected() {
        let mut b = ScheduleBuilder::new(2);
        b.send(Rank(0), Rank(7), 8, Tag(0), &[]);
    }

    #[test]
    fn tag_pool_is_disjoint() {
        let mut p = TagPool::new();
        let a = p.alloc(10);
        let b = p.alloc(5);
        assert_eq!(b.0, a.0 + 10);
        assert!(a.0 >= crate::op::COLLECTIVE_TAG_BASE);
        assert_eq!(p.drawn(), 15);
    }

    #[test]
    fn per_rank_ids_are_independent() {
        let mut b = ScheduleBuilder::new(2);
        let a0 = b.calc(Rank(0), Span::ZERO, &[]);
        let a1 = b.calc(Rank(1), Span::ZERO, &[]);
        assert_eq!(a0, OpId(0));
        assert_eq!(a1, OpId(0));
        assert_eq!(b.ops_on(Rank(0)), 1);
        assert_eq!(b.ops_on(Rank(1)), 1);
    }
}
