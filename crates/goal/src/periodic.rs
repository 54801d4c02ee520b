//! Periodic schedules: a head run once, then one period of ops repeated.
//!
//! A bulk-synchronous skeleton repeats the same step structure for its
//! whole run; only the compute jitter and the message tags change from
//! one period to the next. A [`PeriodicSchedule`] stores one period
//! instead of the whole run: a [`template`](PeriodicSchedule::template)
//! holding each rank's *head* ops (run once) followed by one period of
//! *body* ops, and a [`Period`] saying how often the body repeats and
//! what changes per repetition. Expanded, rank `r`'s ops are its head,
//! then `reps - 1` full copies of its body, then the first
//! [`RankPeriod::last`] body ops (the last repetition, which may be cut
//! short when the step count is not a multiple of the period).
//!
//! Per repetition `k` (from 0):
//!
//! * a body dependency on the head's [`entry`](RankPeriod::entry) op is,
//!   for `k >= 1`, a dependency on repetition `k - 1`'s
//!   [`carry`](RankPeriod::carry) op; every other body dependency stays
//!   inside its repetition;
//! * a body send or receive tag `t` is `t + k * stride`, with
//!   [`Period::p2p_tag_stride`] for tags below
//!   [`COLLECTIVE_TAG_BASE`] and [`Period::collective_tag_stride`] for
//!   the rest;
//! * a calc listed in [`Period::series`] with base `b` lasts
//!   `durs[b + k * dur_stride]`; every other calc keeps its duration.
//!
//! The engine compiles this form directly
//! (`CompiledSchedule::compile_periodic`), checking those rules; a plain
//! [`Schedule`] is the one-repetition case ([`Period::once`]).

use crate::op::{OpId, Rank, COLLECTIVE_TAG_BASE};
use crate::schedule::Schedule;
use cesim_model::Span;

/// One period of a repeating schedule: see the module docs.
#[derive(Clone, Debug, PartialEq)]
pub struct PeriodicSchedule {
    /// Each rank's head ops followed by one period of its body ops.
    pub template: Schedule,
    /// How the body repeats.
    pub period: Period,
}

/// The repetition of a [`PeriodicSchedule`]'s body.
#[derive(Clone, Debug, PartialEq)]
pub struct Period {
    /// Per-rank layout of the template, indexed by rank.
    pub ranks: Vec<RankPeriod>,
    /// Body repetitions (at least 1).
    pub reps: u32,
    /// Per-repetition advance of body tags below [`COLLECTIVE_TAG_BASE`].
    pub p2p_tag_stride: u32,
    /// Per-repetition advance of the other body tags.
    pub collective_tag_stride: u32,
    /// Durations of the [`series`](Period::series) calcs over all
    /// repetitions.
    pub durs: Vec<Span>,
    /// Per-repetition advance of a series calc's index into `durs`.
    pub dur_stride: u32,
    /// `(rank, template op, base)` of every body calc whose duration
    /// changes per repetition; its template duration is `durs[base]`.
    pub series: Vec<(Rank, OpId, u32)>,
}

/// How one rank's template splits into head and body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankPeriod {
    /// Template ops before the body.
    pub head: u32,
    /// The head op the first repetition continues from.
    pub entry: OpId,
    /// The template body op the next repetition continues from.
    pub carry: OpId,
    /// Body ops in the last repetition: a prefix of the body.
    pub last: u32,
}

impl Period {
    /// The trivial period of a plain schedule: no head, each rank's ops
    /// are its body, run once.
    pub fn once(s: &Schedule) -> Period {
        Period {
            ranks: s
                .ranks
                .iter()
                .map(|r| RankPeriod {
                    head: 0,
                    entry: OpId(0),
                    carry: OpId(0),
                    last: u32::try_from(r.ops.len()).expect("rank op count exceeds u32"),
                })
                .collect(),
            reps: 1,
            p2p_tag_stride: 0,
            collective_tag_stride: 0,
            durs: Vec::new(),
            dur_stride: 0,
            series: Vec::new(),
        }
    }

    /// The per-repetition advance of body tag `tag`.
    pub fn tag_stride(&self, tag: u32) -> u32 {
        if tag < COLLECTIVE_TAG_BASE {
            self.p2p_tag_stride
        } else {
            self.collective_tag_stride
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ScheduleBuilder;

    #[test]
    fn once_makes_every_op_body_of_one_repetition() {
        let mut b = ScheduleBuilder::new(2);
        let a = b.calc(Rank(0), Span::from_ns(1), &[]);
        b.join(Rank(0), &[a]);
        let s = b.build();
        let p = Period::once(&s);
        assert_eq!(p.reps, 1);
        assert_eq!(p.ranks[0].last, 2);
        assert_eq!(p.ranks[1].last, 0);
        assert!(p.ranks.iter().all(|r| r.head == 0));
        assert_eq!(p.tag_stride(3), 0);
    }
}
