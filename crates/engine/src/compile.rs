//! Compile-once / run-many schedule representation.
//!
//! The experiment layer sweeps the *same* application schedule across
//! many MTBCE × logging-mode cells with many replicas each. The
//! [`CompiledSchedule`] is the immutable half of a prepared simulation,
//! built once per `(app, ranks, workload)` and shared (via `Arc`) across
//! the baseline run, every replica, and every sweep cell; the mutable
//! per-run state lives in [`crate::sim::RunScratch`], which is reset in
//! place between runs instead of reallocated.
//!
//! **Periodic layout.** Each rank holds a *head* (ops run once), a *body*
//! of one period, and the schedule a repetition count (see
//! [`cesim_goal::periodic`]). A workload skeleton repeats one period of
//! steps, so [`CompiledSchedule::compile_periodic`] stores one period per
//! rank however long the run is; [`CompiledSchedule::compile`] of a plain
//! [`Schedule`] is the one-repetition case (no head, every op in the
//! body). The engine still addresses ops by *flat rank-local id*, the
//! op's index in the expanded rank: head ops first, then repetition after
//! repetition of the body, the last one possibly cut short. Run state
//! (`indeg`, `done`), snapshots, recorder events and deadlock reports all
//! use these ids; `RankLayout::locate` maps one to its record and
//! repetition. An op in the body's first repetition needs no division,
//! so a one-repetition schedule never pays one.
//!
//! **Dispatch records.** Every head and body op is one 32-byte
//! `PackedOp` (two per cache line): opcode, the class-dependent
//! argument, peer, tag, the per-repetition stride, and its range of
//! dependency fan-out edges. Dispatch visits ops in data-dependent order
//! across ranks, so one record per op costs one cache miss where a
//! column per field would cost several. Repetition `k` of a body op
//! advances its tag (or, for a jittered compute calc, its index into the
//! per-(rank, step) duration table) by `k * stride`; the send protocol
//! (eager or rendezvous) is decided at dispatch from the payload size.
//!
//! **Fan-out.** Edge targets are rank-local ids of the record's *first*
//! repetition; repetition `k` adds `k * body` to them. A body's carry op
//! also lists the next repetition's entry ops (ids past its own
//! repetition), and a target at or beyond the rank's op count, which only
//! edges leaving the last repetition can reach, is dropped.
//!
//! **Equivalence.** Compiling is a pure re-layout: dependents are listed
//! in the order the legacy per-rank CSR build visited them, and the root
//! set preserves the legacy seeding order (rank-major, then op order), so
//! simulation results are bit-identical to the rebuild-per-run path
//! (`tests/compiled_equivalence.rs` property-checks this over random DAGs
//! including `MPI_ANY_SOURCE` and rendezvous), and a periodic compile
//! answers every flat op as the compile of the expanded schedule does
//! (`tests/periodic_equivalence.rs`).

use cesim_goal::{OpKind, Period, PeriodicSchedule, Rank, Schedule, Tag};
use cesim_model::Span;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-unique compile counter backing [`CompiledSchedule::uid`].
static NEXT_UID: AtomicU64 = AtomicU64::new(1);

/// Sentinel peer of `MPI_ANY_SOURCE` receives (a valid rank never
/// reaches `u32::MAX`: ranks are dense indices).
pub(crate) const ANY_SOURCE: u32 = u32::MAX;

// Dispatch opcodes.
/// Calc of `arg` ps.
pub(crate) const OPC_CALC: u32 = 0;
/// Calc lasting `durs[arg + rep * stride]`.
pub(crate) const OPC_CALC_STEP: u32 = 1;
/// Send of `arg` bytes to `peer`.
pub(crate) const OPC_SEND: u32 = 2;
/// Receive of `arg` bytes from `peer` (`ANY_SOURCE` = wildcard).
pub(crate) const OPC_RECV: u32 = 3;

/// One head or body op's dispatch record: everything
/// `Engine::exec_op` and `Engine::complete` read per dispatched op.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub(crate) struct PackedOp {
    /// Calc: duration in ps. Step calc: index into
    /// `CompiledSchedule::durs`. Send/Recv: payload bytes.
    pub(crate) arg: u64,
    /// First fan-out edge in `CompiledSchedule::dep_tgt`.
    pub(crate) dep_lo: u32,
    /// Fan-out edge count.
    pub(crate) dep_cnt: u32,
    /// Send destination / receive source filter (`ANY_SOURCE` =
    /// wildcard); unused for calcs.
    pub(crate) peer: u32,
    /// Message tag of the first repetition; unused for calcs.
    pub(crate) tag: u32,
    /// One of the `OPC_*` dispatch codes.
    pub(crate) opcode: u32,
    /// Per-repetition advance of `tag` (send/recv) or of `arg` (step
    /// calc); zero for head ops.
    pub(crate) stride: u32,
}

/// Where one rank's ops live in the record table.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RankLayout {
    /// Index of the rank's first record.
    pub(crate) rec: u32,
    /// Head ops (records `rec..rec + head`).
    pub(crate) head: u32,
    /// Body ops per repetition (records `rec + head..rec + head + body`).
    pub(crate) body: u32,
    /// Flat ops on the rank: head plus every repetition.
    pub(crate) len: u32,
}

impl RankLayout {
    /// Record index and repetition of rank-local op `op`.
    #[inline]
    pub(crate) fn locate(&self, op: u32) -> (usize, u32) {
        if op < self.head + self.body {
            ((self.rec + op) as usize, 0)
        } else {
            let j = op - self.head;
            (
                (self.rec + self.head + j % self.body) as usize,
                j / self.body,
            )
        }
    }
}

/// Why a periodic form cannot be compiled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeriodError(String);

impl fmt::Display for PeriodError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid periodic schedule: {}", self.0)
    }
}

impl std::error::Error for PeriodError {}

fn bad<T>(msg: String) -> Result<T, PeriodError> {
    Err(PeriodError(msg))
}

/// An immutable, simulation-ready form of a schedule.
///
/// Build once with [`compile`](CompiledSchedule::compile) or
/// [`compile_periodic`](CompiledSchedule::compile_periodic), wrap in an
/// [`std::sync::Arc`], and share across runs: the baseline, every
/// perturbed replica, and every sweep cell that uses the same workload
/// scale. Run it with [`crate::simulate_compiled`] (pooled per-thread
/// scratch) or [`crate::Simulator::from_compiled`].
pub struct CompiledSchedule {
    /// Process-unique id of this compilation: a fork snapshot records it
    /// and may only be restored into a run of the same table.
    pub(crate) uid: u64,
    /// `rank_off[r]..rank_off[r + 1]` is rank `r`'s slice of the flat op
    /// index space; `flat = rank_off[rank] + op`.
    pub(crate) rank_off: Vec<u32>,
    /// Per-rank record layout.
    pub(crate) layout: Vec<RankLayout>,
    /// Dispatch records: per rank, head then one body.
    pub(crate) recs: Vec<PackedOp>,
    /// Dependency count of each record's op.
    indeg0: Vec<u32>,
    /// Fan-out edge targets (see the module docs, "Fan-out").
    pub(crate) dep_tgt: Vec<u32>,
    /// Durations of step calcs: per-(rank, step) compute jitter.
    pub(crate) durs: Vec<Span>,
    /// Zero-indegree `(rank, local op)` pairs in flat (= legacy seeding)
    /// order: the initial ready wavefront at `t = 0`.
    pub(crate) roots: Vec<(u32, u32)>,
    /// Dependency edges of the expanded schedule.
    total_deps: u64,
}

impl CompiledSchedule {
    /// Compile `sched`: the one-repetition case of
    /// [`compile_periodic`](CompiledSchedule::compile_periodic).
    pub fn compile(sched: &Schedule) -> Self {
        Self::build(sched, Period::once(sched)).expect("one repetition of a schedule compiles")
    }

    /// Compile one period of a repeating schedule, checking that every
    /// body dependency stays inside its repetition or points at the
    /// previous repetition's carry op (the head's entry op for the
    /// first), that the last repetition is a prefix of the body, and that
    /// tags and the duration table cover every repetition. The template
    /// is freed here; the duration table moves into the compiled form.
    pub fn compile_periodic(ps: PeriodicSchedule) -> Result<Self, PeriodError> {
        Self::build(&ps.template, ps.period)
    }

    fn build(template: &Schedule, p: Period) -> Result<Self, PeriodError> {
        let nranks = template.num_ranks();
        if p.ranks.len() != nranks {
            return bad(format!("{} rank periods for {nranks} ranks", p.ranks.len()));
        }
        if p.reps == 0 {
            return bad("zero repetitions".into());
        }
        // Full repetitions before the last.
        let full = p.reps - 1;

        let mut rank_off = Vec::with_capacity(nranks + 1);
        let mut layout = Vec::with_capacity(nranks);
        let mut flat = 0u32;
        let mut rec = 0u32;
        rank_off.push(0);
        for (r, (rs, rp)) in template.ranks.iter().zip(&p.ranks).enumerate() {
            let ops = rs.ops.len() as u32;
            if rp.head > ops || rp.last > ops - rp.head {
                return bad(format!("rank {r}: head or last repetition outside its ops"));
            }
            let body = ops - rp.head;
            let len = body
                .checked_mul(full)
                .and_then(|n| n.checked_add(rp.head + rp.last));
            let (Some(len), Some(next_flat), Some(next_rec)) = (
                len,
                len.and_then(|n| flat.checked_add(n)),
                rec.checked_add(ops),
            ) else {
                return bad(format!("rank {r}: op count exceeds u32"));
            };
            layout.push(RankLayout {
                rec,
                head: rp.head,
                body,
                len,
            });
            (flat, rec) = (next_flat, next_rec);
            rank_off.push(flat);
        }

        // Records, each record's fan-out edge count, and the roots and
        // edge count of the expanded schedule.
        let mut recs = Vec::with_capacity(rec as usize);
        let mut indeg0 = Vec::with_capacity(rec as usize);
        let mut roots = Vec::new();
        let mut total_deps = 0u64;
        // Per rank: the carry op's next-repetition edges.
        let mut carry_out = Vec::with_capacity(nranks);
        let mut body_roots = Vec::new();
        for (r, ((rs, rp), l)) in template.ranks.iter().zip(&p.ranks).zip(&layout).enumerate() {
            let base = l.rec as usize;
            let mut out = 0u32;
            let (mut deg_head, mut deg_body, mut deg_last) = (0u64, 0u64, 0u64);
            body_roots.clear();
            for (i, op) in rs.ops.iter().enumerate() {
                let i = i as u32;
                let in_body = i >= l.head;
                let stride = |tag: Tag| if in_body { p.tag_stride(tag.0) } else { 0 };
                let (opcode, arg, peer, tag, stride) = match op.kind {
                    OpKind::Calc { dur } => (OPC_CALC, dur.as_ps(), 0, Tag(0), 0),
                    OpKind::Send { dst, bytes, tag } => (OPC_SEND, bytes, dst.0, tag, stride(tag)),
                    OpKind::Recv { src, bytes, tag } => (
                        OPC_RECV,
                        bytes,
                        src.map_or(ANY_SOURCE, |r| r.0),
                        tag,
                        stride(tag),
                    ),
                };
                if stride
                    .checked_mul(full)
                    .and_then(|s| s.checked_add(tag.0))
                    .is_none()
                {
                    return bad(format!("rank {r}: tag space exhausted across repetitions"));
                }
                recs.push(PackedOp {
                    arg,
                    dep_lo: 0,
                    dep_cnt: 0,
                    peer,
                    tag: tag.0,
                    opcode,
                    stride,
                });
                let deg = op.deps.len() as u32;
                indeg0.push(deg);
                if !in_body {
                    deg_head += deg as u64;
                    if deg == 0 {
                        roots.push((r as u32, i));
                    }
                } else {
                    deg_body += deg as u64;
                    if i - l.head < rp.last {
                        deg_last += deg as u64;
                    }
                    if deg == 0 {
                        body_roots.push(i - l.head);
                    }
                }
                for d in &op.deps {
                    recs[base + d.idx()].dep_cnt += 1;
                    // A body dependency on the head's entry op is also
                    // one on the previous repetition's carry op.
                    if in_body && d.0 < l.head {
                        if *d != rp.entry {
                            return bad(format!(
                                "rank {r}: body op {i} depends on head op {d}, not the entry op"
                            ));
                        }
                        if !(l.head..l.head + l.body).contains(&rp.carry.0) {
                            return bad(format!("rank {r}: carry op is not a body op"));
                        }
                        out += 1;
                    }
                }
            }
            if out > 0 {
                recs[base + rp.carry.idx()].dep_cnt += out;
            }
            carry_out.push(out);
            total_deps += deg_head + full as u64 * deg_body + deg_last;
            for rep in 0..p.reps {
                let n = if rep < full { l.body } else { rp.last };
                let first = l.head + rep * l.body;
                roots.extend(
                    body_roots
                        .iter()
                        .filter(|&&b| b < n)
                        .map(|&b| (r as u32, first + b)),
                );
            }
        }

        // Step calcs read their duration from the side table.
        for &(rank, op, base) in &p.series {
            let Some(l) = layout.get(rank.idx()) else {
                return bad(format!("series calc on unknown rank {rank}"));
            };
            let o = (op.0.checked_sub(l.head).filter(|&b| b < l.body))
                .map(|b| (b, &mut recs[(l.rec + op.0) as usize]))
                .filter(|(_, o)| o.opcode == OPC_CALC);
            let Some((b, o)) = o else {
                return bad(format!("series op {op} on {rank} is not a body calc"));
            };
            // Repetitions the op appears in, and the last one's index.
            let reps_in = (l.len - l.head).saturating_sub(b).div_ceil(l.body);
            let top = base as u64 + reps_in.saturating_sub(1) as u64 * p.dur_stride as u64;
            if top >= p.durs.len() as u64 || p.durs[base as usize].as_ps() != o.arg {
                return bad(format!(
                    "series op {op} on {rank}: durations do not cover it"
                ));
            }
            o.opcode = OPC_CALC_STEP;
            o.arg = base as u64;
            o.stride = p.dur_stride;
        }

        // CSR offsets, then targets in the legacy visit order: ops in
        // insertion order, each appending its own id to every
        // dependency's list; the carry op's next-repetition targets
        // close its list.
        let mut edges = 0u32;
        for o in &mut recs {
            o.dep_lo = edges;
            edges += o.dep_cnt;
            o.dep_cnt = 0;
        }
        let mut dep_tgt = vec![0u32; edges as usize];
        for (((rs, rp), l), out) in template
            .ranks
            .iter()
            .zip(&p.ranks)
            .zip(&layout)
            .zip(carry_out)
        {
            let base = l.rec as usize;
            let carry = base + rp.carry.idx();
            let mut next = recs.get(carry + 1).map_or(edges, |o| o.dep_lo) - out;
            for (i, op) in rs.ops.iter().enumerate() {
                let i = i as u32;
                for d in &op.deps {
                    let o = &mut recs[base + d.idx()];
                    dep_tgt[(o.dep_lo + o.dep_cnt) as usize] = i;
                    o.dep_cnt += 1;
                    if i >= l.head && d.0 < l.head {
                        dep_tgt[next as usize] = i + l.body;
                        next += 1;
                    }
                }
            }
            if out > 0 {
                recs[carry].dep_cnt += out;
            }
        }

        Ok(CompiledSchedule {
            uid: NEXT_UID.fetch_add(1, Ordering::Relaxed),
            rank_off,
            layout,
            recs,
            indeg0,
            dep_tgt,
            durs: p.durs,
            roots,
            total_deps,
        })
    }

    /// Number of ranks.
    #[inline]
    pub fn num_ranks(&self) -> usize {
        self.rank_off.len() - 1
    }

    /// Total operation count over all ranks.
    #[inline]
    pub fn total_ops(&self) -> u64 {
        *self.rank_off.last().expect("offsets are never empty") as u64
    }

    /// Number of ops on `rank`.
    #[inline]
    pub fn ops_on(&self, rank: u32) -> usize {
        (self.rank_off[rank as usize + 1] - self.rank_off[rank as usize]) as usize
    }

    /// Total dependency edges.
    #[inline]
    pub fn total_deps(&self) -> u64 {
        self.total_deps
    }

    /// Dispatch records held: head plus one body per rank.
    pub fn records(&self) -> usize {
        self.recs.len()
    }

    /// Flat index of `(rank, op)`.
    #[inline]
    pub(crate) fn flat(&self, rank: u32, op: u32) -> usize {
        self.rank_off[rank as usize] as usize + op as usize
    }

    /// Rank, record and repetition of flat op `f`.
    fn at(&self, f: usize) -> (u32, usize, u32) {
        let r = self.rank_off.partition_point(|&o| o as usize <= f) - 1;
        let (rec, rep) = self.layout[r].locate((f - self.rank_off[r] as usize) as u32);
        (r as u32, rec, rep)
    }

    /// Initial indegree (dependency count) of flat op `f`.
    pub fn indeg0(&self, f: usize) -> u32 {
        self.indeg0[self.at(f).1]
    }

    /// Initial indegrees of the flat ops of `ranks`, in flat order.
    pub(crate) fn flat_indeg0(
        &self,
        ranks: std::ops::Range<u32>,
    ) -> impl Iterator<Item = u32> + '_ {
        ranks.flat_map(|r| {
            let l = self.layout[r as usize];
            let deg = &self.indeg0[l.rec as usize..(l.rec + l.head + l.body) as usize];
            let (head, body) = deg.split_at(l.head as usize);
            let rest = (l.len - l.head) as usize;
            head.iter().chain(body.iter().cycle().take(rest)).copied()
        })
    }

    /// Append the initial indegrees of the flat ops of `ranks` to `out`.
    pub(crate) fn extend_indeg0(&self, ranks: std::ops::Range<u32>, out: &mut Vec<u32>) {
        for r in ranks {
            let l = self.layout[r as usize];
            let rec = l.rec as usize;
            let first = l.len.min(l.head + l.body) as usize;
            out.extend_from_slice(&self.indeg0[rec..rec + first]);
            let body = &self.indeg0[rec + l.head as usize..rec + (l.head + l.body) as usize];
            let mut left = l.len as usize - first;
            while left > 0 {
                let n = left.min(body.len());
                out.extend_from_slice(&body[..n]);
                left -= n;
            }
        }
    }

    /// The zero-indegree `(rank, local op)` root set in rank-major
    /// seeding order.
    pub fn roots(&self) -> &[(u32, u32)] {
        &self.roots
    }

    /// Rank-local op ids enabled by the completion of flat op `f`, in
    /// legacy visit order.
    pub fn dependents(&self, f: usize) -> impl Iterator<Item = u32> + '_ {
        let (r, rec, rep) = self.at(f);
        let l = self.layout[r as usize];
        let o = self.recs[rec];
        let shift = rep * l.body;
        self.dep_tgt[o.dep_lo as usize..(o.dep_lo + o.dep_cnt) as usize]
            .iter()
            .map(move |&d| d + shift)
            .filter(move |&d| d < l.len)
    }

    /// The duration of step calc record `o` in repetition `rep`.
    #[inline]
    pub(crate) fn step_dur(&self, o: &PackedOp, rep: u32) -> Span {
        self.durs[o.arg as usize + (rep * o.stride) as usize]
    }

    /// Reconstruct the [`OpKind`] of a flat op (diagnostics: deadlock
    /// reports and equivalence checks).
    pub fn op_kind(&self, f: usize) -> OpKind {
        let (_, rec, rep) = self.at(f);
        let o = &self.recs[rec];
        let tag = Tag(o.tag + rep * o.stride);
        match o.opcode {
            OPC_CALC => OpKind::Calc {
                dur: Span::from_ps(o.arg),
            },
            OPC_CALC_STEP => OpKind::Calc {
                dur: self.step_dur(o, rep),
            },
            OPC_SEND => OpKind::Send {
                dst: Rank(o.peer),
                bytes: o.arg,
                tag,
            },
            _ => OpKind::Recv {
                src: (o.peer != ANY_SOURCE).then_some(Rank(o.peer)),
                bytes: o.arg,
                tag,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cesim_goal::{OpId, RankPeriod, ScheduleBuilder, Tag};
    use cesim_model::Span;

    #[test]
    fn compile_flattens_kinds_and_deps() {
        let mut b = ScheduleBuilder::new(2);
        let c = b.calc(Rank(0), Span::from_us(5), &[]);
        b.send(Rank(0), Rank(1), 64, Tag(3), &[c]);
        b.recv(Rank(1), None, 64, Tag(3), &[]);
        let s = b.build();
        let cs = CompiledSchedule::compile(&s);
        assert_eq!(cs.num_ranks(), 2);
        assert_eq!(cs.total_ops(), 3);
        assert_eq!(cs.ops_on(0), 2);
        assert_eq!(cs.total_deps(), 1);
        let opcodes: Vec<u32> = cs.recs.iter().map(|o| o.opcode).collect();
        assert_eq!(opcodes, vec![OPC_CALC, OPC_SEND, OPC_RECV]);
        assert_eq!(cs.recs[2].peer, ANY_SOURCE);
        // The calc fans out to the send (local op id 1 on rank 0).
        assert_eq!(cs.dependents(0).collect::<Vec<_>>(), vec![1]);
        assert_eq!(cs.dependents(1).count(), 0);
        assert_eq!(cs.dep_tgt, vec![1]);
        assert_eq!((0..3).map(|f| cs.indeg0(f)).collect::<Vec<_>>(), [0, 1, 0]);
        // Roots in legacy (rank-major) seeding order.
        assert_eq!(cs.roots, vec![(0, 0), (1, 0)]);
        // Kind reconstruction round-trips.
        for (rank, op, op_ref) in s.iter_flat() {
            assert_eq!(cs.op_kind(cs.flat(rank.0, op.0)), op_ref.kind);
        }
    }

    #[test]
    fn compile_handles_empty_ranks() {
        let mut b = ScheduleBuilder::new(3);
        b.calc(Rank(1), Span::from_us(1), &[]);
        let cs = CompiledSchedule::compile(&b.build());
        assert_eq!(cs.num_ranks(), 3);
        assert_eq!(cs.total_ops(), 1);
        assert_eq!(cs.ops_on(0), 0);
        assert_eq!(cs.ops_on(1), 1);
        assert_eq!(cs.roots, vec![(1, 0)]);
        assert_eq!(
            cs.op_kind(0),
            OpKind::Calc {
                dur: Span::from_us(1)
            }
        );
    }

    /// One rank: a start join, then a body of a step calc and a join,
    /// three and a half times over.
    fn chain(entry: OpId) -> PeriodicSchedule {
        let mut b = ScheduleBuilder::new(1);
        let j = b.join(Rank(0), &[]);
        let c = b.calc(Rank(0), Span::from_ns(10), &[j]);
        let k = b.join(Rank(0), &[c]);
        PeriodicSchedule {
            template: b.build(),
            period: Period {
                ranks: vec![RankPeriod {
                    head: 1,
                    entry,
                    carry: k,
                    last: 1,
                }],
                reps: 4,
                p2p_tag_stride: 0,
                collective_tag_stride: 0,
                durs: (1..=4).map(|n| Span::from_ns(10 * n)).collect(),
                dur_stride: 1,
                series: vec![(Rank(0), c, 0)],
            },
        }
    }

    #[test]
    fn periodic_ops_repeat_and_the_last_repetition_is_cut() {
        let cs = CompiledSchedule::compile_periodic(chain(OpId(0))).unwrap();
        // Head 1 + 3 full repetitions of 2 + 1 op of the cut-short one.
        assert_eq!(cs.total_ops(), 8);
        assert_eq!(cs.records(), 3);
        assert_eq!(cs.total_deps(), 7);
        assert_eq!(cs.roots(), &[(0, 0)]);
        for (f, ns) in [(1, 10), (3, 20), (5, 30), (7, 40)] {
            assert_eq!(
                cs.op_kind(f),
                OpKind::Calc {
                    dur: Span::from_ns(ns)
                }
            );
        }
        // The carry of repetition 0 enables repetition 1's calc; the
        // last op's edge leaves the schedule and is dropped.
        assert_eq!(cs.dependents(2).collect::<Vec<_>>(), vec![3]);
        assert_eq!(cs.dependents(6).collect::<Vec<_>>(), vec![7]);
        assert_eq!(cs.dependents(7).count(), 0);
        let mut indeg = Vec::new();
        cs.extend_indeg0(0..1, &mut indeg);
        assert_eq!(indeg, cs.flat_indeg0(0..1).collect::<Vec<_>>());
        assert_eq!(indeg, [0, 1, 1, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn body_dependency_outside_its_repetition_is_an_error() {
        let mut ps = chain(OpId(0));
        ps.period.ranks[0].head = 2;
        ps.period.ranks[0].entry = OpId(0);
        ps.period.series.clear();
        // Body op 2 depends on head op 1, which is not the entry.
        let err = CompiledSchedule::compile_periodic(ps).err().unwrap();
        assert!(err.to_string().contains("not the entry op"), "{err}");
        let mut short = chain(OpId(0));
        short.period.durs.truncate(3);
        assert!(CompiledSchedule::compile_periodic(short).is_err());
    }
}
