//! Compile-once / run-many schedule representation.
//!
//! The experiment layer sweeps the *same* application schedule across
//! many MTBCE × logging-mode cells with many replicas each. Before this
//! module existed, every replica paid `Simulator::new` again: per-rank
//! CSR dependent arrays, indegree vectors, `done` bitmaps and
//! match-queue maps were rebuilt and reallocated per run. The
//! [`CompiledSchedule`] is the immutable half of that work, built once
//! per `(app, ranks, workload)` and shared (via `Arc`) across the
//! baseline run, every replica, and every sweep cell; the mutable
//! per-run state lives in [`crate::sim::RunScratch`], which is reset in
//! place between runs instead of reallocated.
//!
//! Layout: a flat struct-of-arrays op table over the global op index
//! space `0..total_ops` (rank-major, see [`Schedule::flat_offsets`]) —
//! class / duration / peer / tag / bytes in parallel arrays — plus one
//! global CSR of dependency fan-out edges and the precomputed initial
//! indegrees and zero-indegree root set. This eliminates the per-`Op`
//! `Vec<OpId>` heap allocations of the pointer-y [`Schedule`] form and
//! gives the event loop cache-friendly sequential lookups.
//!
//! **Equivalence.** The compiled form is a pure re-layout: dependents
//! are recorded in the same order the legacy per-rank CSR build visited
//! them, and the root set preserves the legacy seeding order (rank-major,
//! then op order), so simulation results are bit-identical to the
//! rebuild-per-run path (`tests/compiled_equivalence.rs` property-checks
//! this over random DAGs including `MPI_ANY_SOURCE` and rendezvous).

use cesim_goal::{OpKind, Rank, Schedule, Tag};
use cesim_model::Span;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-unique compile counter backing [`CompiledSchedule::uid`].
static NEXT_UID: AtomicU64 = AtomicU64::new(1);

/// Operation class of a compiled op: the discriminant of [`OpKind`],
/// with the payload split into the parallel arrays of
/// [`CompiledSchedule`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum OpClass {
    /// Occupy the CPU for `dur[i]` of work.
    Calc,
    /// Transmit `bytes[i]` to rank `peer[i]` with `tag[i]`.
    Send,
    /// Receive from rank `peer[i]` (or any source if `peer[i]` is
    /// [`ANY_SOURCE`]) with `tag[i]`.
    Recv,
}

/// Sentinel in [`CompiledSchedule::peer`] for `MPI_ANY_SOURCE` receives
/// (a valid rank never reaches `u32::MAX`: ranks are dense indices).
pub(crate) const ANY_SOURCE: u32 = u32::MAX;

/// An immutable, flat, simulation-ready form of a [`Schedule`].
///
/// Build once with [`compile`](CompiledSchedule::compile), wrap in an
/// [`std::sync::Arc`], and share across runs: the baseline, every
/// perturbed replica, and every sweep cell that uses the same workload
/// scale. Run it with [`crate::simulate_compiled`] (pooled per-thread
/// scratch) or [`crate::Simulator::from_compiled`].
pub struct CompiledSchedule {
    /// Process-unique id of this compilation, used by
    /// [`crate::RunScratch`] to stamp (and cache) per-schedule dispatch
    /// plans across replica resets. Never reused within a process, so a
    /// stamp match guarantees the plan was built for this very table.
    pub(crate) uid: u64,
    /// `rank_off[r]..rank_off[r + 1]` is rank `r`'s slice of the flat op
    /// index space; `flat = rank_off[rank] + op`.
    pub(crate) rank_off: Vec<u32>,
    /// Op class, indexed by flat op id.
    pub(crate) class: Vec<OpClass>,
    /// Calc duration (zero for send/recv), indexed by flat op id.
    pub(crate) dur: Vec<Span>,
    /// Send destination / receive source ([`ANY_SOURCE`] = wildcard),
    /// indexed by flat op id; unused for calcs.
    pub(crate) peer: Vec<u32>,
    /// Message payload size, indexed by flat op id; unused for calcs.
    pub(crate) bytes: Vec<u64>,
    /// Message tag, indexed by flat op id; unused for calcs.
    pub(crate) tag: Vec<Tag>,
    /// Dependency fan-out CSR offsets over the flat op index space:
    /// completing flat op `f` enables `dep_tgt[dep_off[f]..dep_off[f+1]]`.
    pub(crate) dep_off: Vec<u32>,
    /// CSR targets as **rank-local** op ids (dependencies never cross
    /// ranks, so the rank is the completing op's rank).
    pub(crate) dep_tgt: Vec<u32>,
    /// Initial indegree of every flat op (its dependency count).
    pub(crate) indeg0: Vec<u32>,
    /// Zero-indegree `(rank, local op)` pairs in flat (= legacy seeding)
    /// order: the initial ready wavefront at `t = 0`.
    pub(crate) roots: Vec<(u32, u32)>,
}

impl CompiledSchedule {
    /// Compile `sched` into the flat run-many form.
    pub fn compile(sched: &Schedule) -> Self {
        let rank_off = sched.flat_offsets();
        let total = *rank_off.last().expect("offsets are never empty") as usize;

        let mut class = Vec::with_capacity(total);
        let mut dur = Vec::with_capacity(total);
        let mut peer = Vec::with_capacity(total);
        let mut bytes = Vec::with_capacity(total);
        let mut tag = Vec::with_capacity(total);
        let mut indeg0 = Vec::with_capacity(total);
        let mut roots = Vec::new();
        // Dependent counts per flat op, for the CSR offsets.
        let mut dep_cnt = vec![0u32; total];

        for (rank, op_id, op) in sched.iter_flat() {
            match op.kind {
                OpKind::Calc { dur: d } => {
                    class.push(OpClass::Calc);
                    dur.push(d);
                    peer.push(0);
                    bytes.push(0);
                    tag.push(Tag(0));
                }
                OpKind::Send {
                    dst,
                    bytes: b,
                    tag: t,
                } => {
                    class.push(OpClass::Send);
                    dur.push(Span::ZERO);
                    peer.push(dst.0);
                    bytes.push(b);
                    tag.push(t);
                }
                OpKind::Recv {
                    src,
                    bytes: b,
                    tag: t,
                } => {
                    class.push(OpClass::Recv);
                    dur.push(Span::ZERO);
                    peer.push(src.map_or(ANY_SOURCE, |r| r.0));
                    bytes.push(b);
                    tag.push(t);
                }
            }
            indeg0.push(op.deps.len() as u32);
            if op.deps.is_empty() {
                roots.push((rank.0, op_id.0));
            }
            let base = rank_off[rank.idx()] as usize;
            for d in &op.deps {
                dep_cnt[base + d.idx()] += 1;
            }
        }

        let mut dep_off = vec![0u32; total + 1];
        for f in 0..total {
            dep_off[f + 1] = dep_off[f] + dep_cnt[f];
        }
        let mut dep_tgt = vec![0u32; dep_off[total] as usize];
        let mut cursor = dep_off.clone();
        // Same visit order as the legacy per-rank CSR build: ops in
        // insertion order, each appending its own (local) id to every
        // dependency's fan-out list.
        for (rank, op_id, op) in sched.iter_flat() {
            let base = rank_off[rank.idx()] as usize;
            for d in &op.deps {
                let c = &mut cursor[base + d.idx()];
                dep_tgt[*c as usize] = op_id.0;
                *c += 1;
            }
        }

        CompiledSchedule {
            uid: NEXT_UID.fetch_add(1, Ordering::Relaxed),
            rank_off,
            class,
            dur,
            peer,
            bytes,
            tag,
            dep_off,
            dep_tgt,
            indeg0,
            roots,
        }
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
        self.dep_tgt.len() as u64
    }

    /// Bytes this table holds on the heap (the capacity of every array).
    /// The baseline fork table sizes its snapshot budget from it (see
    /// [`crate::fork`]).
    pub fn heap_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        bytes(&self.rank_off)
            + bytes(&self.class)
            + bytes(&self.dur)
            + bytes(&self.peer)
            + bytes(&self.bytes)
            + bytes(&self.tag)
            + bytes(&self.dep_off)
            + bytes(&self.dep_tgt)
            + bytes(&self.indeg0)
            + bytes(&self.roots)
    }

    /// Flat index of `(rank, op)`.
    #[inline]
    pub(crate) fn flat(&self, rank: u32, op: u32) -> usize {
        self.rank_off[rank as usize] as usize + op as usize
    }

    /// Initial indegrees, indexed by flat op id (read-only view for
    /// equivalence checks and tooling).
    pub fn indeg0(&self) -> &[u32] {
        &self.indeg0
    }

    /// The zero-indegree `(rank, local op)` root set in rank-major
    /// seeding order.
    pub fn roots(&self) -> &[(u32, u32)] {
        &self.roots
    }

    /// Rank-local op ids enabled by the completion of flat op `f` (its
    /// CSR fan-out slice, in legacy visit order).
    pub fn dependents(&self, f: usize) -> &[u32] {
        &self.dep_tgt[self.dep_off[f] as usize..self.dep_off[f + 1] as usize]
    }

    /// Reconstruct the [`OpKind`] of a flat op (diagnostics: deadlock
    /// reports and equivalence checks; the hot loop reads the parallel
    /// arrays directly).
    pub fn op_kind(&self, f: usize) -> OpKind {
        match self.class[f] {
            OpClass::Calc => OpKind::Calc { dur: self.dur[f] },
            OpClass::Send => OpKind::Send {
                dst: Rank(self.peer[f]),
                bytes: self.bytes[f],
                tag: self.tag[f],
            },
            OpClass::Recv => OpKind::Recv {
                src: (self.peer[f] != ANY_SOURCE).then_some(Rank(self.peer[f])),
                bytes: self.bytes[f],
                tag: self.tag[f],
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cesim_goal::{ScheduleBuilder, Tag};
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
        assert_eq!(cs.class, vec![OpClass::Calc, OpClass::Send, OpClass::Recv]);
        assert_eq!(cs.peer[2], ANY_SOURCE);
        // The calc fans out to the send (local op id 1 on rank 0).
        assert_eq!(cs.dep_off, vec![0, 1, 1, 1]);
        assert_eq!(cs.dep_tgt, vec![1]);
        assert_eq!(cs.indeg0, vec![0, 1, 0]);
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
    }
}
