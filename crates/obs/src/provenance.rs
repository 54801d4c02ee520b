//! Per-event detour provenance: which injected detours mattered, and by
//! how much.
//!
//! The critical-path walker ([`crate::critical`]) answers *"where did the
//! makespan go"* in aggregate. This module answers the per-event
//! question the paper's §IV absorption argument poses: a CE detour either
//! gets **absorbed** by slack (the rank was going to wait anyway) or
//! **propagates** along MPI dependencies into a global slowdown. Given
//! one recorded run, [`analyze`] classifies every [`SimEvent::Detour`]
//! and quantifies its blast radius.
//!
//! ## The timing graph
//!
//! One forward pass over the event stream (emission order is a valid
//! topological order: the engine records causes before effects) builds a
//! max-plus timing graph with three node kinds:
//!
//! * **segment** nodes (one per [`SimEvent::Exec`]) valued at the
//!   segment end, carrying a node weight `end − start` of which
//!   `detour` picoseconds are injected noise;
//! * **inject** nodes (one per [`SimEvent::MsgSend`]) valued at NIC
//!   injection time;
//! * **deliver** nodes (one per [`SimEvent::MsgDeliver`]) valued at
//!   match time.
//!
//! Edges encode the engine's start-time constraints — CPU serialization,
//! same-rank dependency edges, NIC serialization, wire latency, and
//! receive-posting — with weights chosen so the graph is *conservative*
//! (`value(u) + w ≤ value(v)` on every edge) and *tight* (some in-edge
//! achieves equality at every node). Recomputing node values with detour
//! weights removed is then a **detour-free replay**: the counterfactual
//! run with the same message matching but no stolen CPU time. On
//! schedules without wildcard receives the replay equals the true
//! noise-free baseline exactly; with `MPI_ANY_SOURCE`, noise can flip
//! message matching, so the replay (which holds matching fixed) is the
//! reference against which per-event contributions are *provably*
//! conserved — see `check` and the DESIGN.md provenance section.
//!
//! ## Per-event attribution
//!
//! For each detour `d` of duration `δ`, a cone propagation computes the
//! marginal reduction `red(v)` of every downstream node if only `d` were
//! removed, stopping at the slack frontier (`red ≤ 0`). From the cone:
//! own-rank lateness, the set of other ranks whose finish moved, the
//! marginal makespan contribution `M − M₍without d₎`, the total (summed
//! across ranks) induced delay, and the **amplification factor**
//! `global delay ÷ δ`. Events are classified absorbed / partially
//! absorbed / propagated. Cost: O(events) to build and replay, plus the
//! sum of cone sizes — absorbed detours have empty cones, so streams
//! dominated by absorbed noise stay O(events) amortized; a stream of
//! detours that each delay the whole job is O(events · detours) in the
//! worst case.
//!
//! ## Conservation invariants
//!
//! With `Δ = makespan − replay makespan`:
//!
//! * `Σ (propagated delays) ≥ Δ` — the binding critical walk from the
//!   makespan argmax contains detours whose durations alone cover `Δ`;
//! * `Δ ≥ max (single-event contribution)` — removing one detour never
//!   helps more than removing all of them (max-plus monotonicity).
//!
//! Both are theorems for any tight conservative graph and are re-checked
//! on every [`analyze`] via [`ProvenanceReport::check`] (also proptested
//! over random DAGs in `tests/provenance.rs`).

use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap, HashSet};

use cesim_engine::record::SimEvent;
use cesim_model::{Span, Time};

/// Sentinel rank for non-segment nodes (inject/deliver).
const NO_RANK: u32 = u32::MAX;

/// How many delayed ranks are retained verbatim per event (the full
/// count is always reported; the sample keeps records small on
/// 2048-rank recordings).
pub const DELAYED_RANKS_SAMPLE: usize = 8;

/// Final classification of one injected detour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fate {
    /// No rank's finish time moved: the stolen CPU time fell entirely
    /// into slack (the paper's §IV absorption).
    Absorbed,
    /// Only the detoured rank's own finish moved; the makespan and every
    /// other rank are unaffected.
    PartiallyAbsorbed,
    /// The detour delayed at least one other rank through message edges,
    /// or moved the job's makespan.
    Propagated,
}

impl Fate {
    /// Lowercase label (JSONL field value).
    pub fn label(self) -> &'static str {
        match self {
            Fate::Absorbed => "absorbed",
            Fate::PartiallyAbsorbed => "partially_absorbed",
            Fate::Propagated => "propagated",
        }
    }
}

/// Per-event provenance record for one injected detour.
#[derive(Clone, Debug)]
pub struct DetourFate {
    /// Engine-assigned detour id (emission order).
    pub id: u64,
    /// Rank the detour executed on.
    pub rank: u32,
    /// Op whose CPU segment absorbed the detour.
    pub op: u32,
    /// Detour start (tail-placement convention).
    pub at: Time,
    /// CPU time stolen.
    pub dur: Span,
    /// Lateness induced on the detoured rank's own finish time if only
    /// this event were removed.
    pub self_delay: Span,
    /// Number of *other* ranks whose finish time this event delayed
    /// (through message edges).
    pub ranks_delayed: u32,
    /// Up to [`DELAYED_RANKS_SAMPLE`] of those ranks, ascending.
    pub delayed_ranks: Vec<u32>,
    /// Total finish-time delay summed across all ranks.
    pub global_delay: Span,
    /// Marginal makespan contribution: `makespan − makespan without
    /// this event`.
    pub makespan_contribution: Span,
    /// Whether the event's segment lies on the binding critical walk
    /// from the makespan argmax.
    pub on_critical_walk: bool,
    /// The event's stake in the makespan delta: `dur` when on the
    /// binding critical walk, zero otherwise. Summed over all events
    /// this bounds the replay delta from above (see module docs).
    pub propagated_delay: Span,
    /// Amplification factor: `global_delay ÷ dur` (0 when absorbed).
    pub amplification: f64,
    /// Final classification.
    pub fate: Fate,
}

/// Compact aggregate of a [`ProvenanceReport`] (what figure sweeps embed
/// per cell).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProvenanceSummary {
    /// Detour events analyzed.
    pub events: u64,
    /// Events classified [`Fate::Absorbed`].
    pub absorbed: u64,
    /// Events classified [`Fate::PartiallyAbsorbed`].
    pub partially_absorbed: u64,
    /// Events classified [`Fate::Propagated`].
    pub propagated: u64,
    /// Largest amplification factor (0 with no events).
    pub max_amplification: f64,
    /// 99th-percentile amplification factor (0 with no events).
    pub p99_amplification: f64,
}

/// Everything [`analyze`] computes over one recorded run.
#[derive(Clone, Debug)]
pub struct ProvenanceReport {
    /// One record per injected detour, in detour-id order.
    pub fates: Vec<DetourFate>,
    /// Ranks observed in the stream.
    pub ranks: usize,
    /// Measured (perturbed) makespan.
    pub makespan: Span,
    /// Detour-free replay makespan (matching held fixed; see module
    /// docs).
    pub replay_makespan: Span,
    /// Total CPU time stolen across all events.
    pub total_stolen: Span,
    /// True when the stream was incomplete (ring-buffer drops or
    /// dangling references); attribution is then best-effort and the
    /// conservation invariants are not guaranteed.
    pub truncated: bool,
}

impl ProvenanceReport {
    /// `makespan − replay makespan`: the slowdown explained by the
    /// recorded detours under fixed matching.
    pub fn replay_delta(&self) -> Span {
        self.makespan.saturating_sub(self.replay_makespan)
    }

    /// Aggregate counts and amplification percentiles.
    pub fn summary(&self) -> ProvenanceSummary {
        let mut s = ProvenanceSummary {
            events: self.fates.len() as u64,
            ..ProvenanceSummary::default()
        };
        let mut amps: Vec<f64> = Vec::with_capacity(self.fates.len());
        for f in &self.fates {
            match f.fate {
                Fate::Absorbed => s.absorbed += 1,
                Fate::PartiallyAbsorbed => s.partially_absorbed += 1,
                Fate::Propagated => s.propagated += 1,
            }
            amps.push(f.amplification);
        }
        if !amps.is_empty() {
            amps.sort_by(|a, b| a.partial_cmp(b).expect("amplifications are finite"));
            s.max_amplification = *amps.last().unwrap();
            let idx = ((amps.len() as f64 * 0.99).ceil() as usize).clamp(1, amps.len()) - 1;
            s.p99_amplification = amps[idx];
        }
        s
    }

    /// Amplification histogram over fixed buckets
    /// (`0`, `(0,1]`, `(1,2]`, `(2,4]`, `(4,8]`, `(8,16]`, `>16`).
    pub fn amplification_histogram(&self) -> Vec<(&'static str, u64)> {
        let labels = ["0", "(0,1]", "(1,2]", "(2,4]", "(4,8]", "(8,16]", ">16"];
        let mut counts = [0u64; 7];
        for f in &self.fates {
            let a = f.amplification;
            let i = if a <= 0.0 {
                0
            } else if a <= 1.0 {
                1
            } else if a <= 2.0 {
                2
            } else if a <= 4.0 {
                3
            } else if a <= 8.0 {
                4
            } else if a <= 16.0 {
                5
            } else {
                6
            };
            counts[i] += 1;
        }
        labels.into_iter().zip(counts).collect()
    }

    /// Validate the stream and the conservation invariants; `Err`
    /// describes the first violation. Used by `cesim attribute` to turn
    /// bad inputs into a nonzero exit.
    pub fn check(&self) -> Result<(), String> {
        if self.truncated {
            return Err("event stream is truncated (ring-buffer drops or dangling \
                 references); per-event attribution is not trustworthy"
                .into());
        }
        if self.replay_makespan > self.makespan {
            return Err(format!(
                "replay makespan {} exceeds measured makespan {}",
                self.replay_makespan, self.makespan
            ));
        }
        let delta = self.replay_delta();
        let sum_propagated: Span = self.fates.iter().map(|f| f.propagated_delay).sum();
        if sum_propagated < delta {
            return Err(format!(
                "conservation violated: sum of propagated delays {sum_propagated} \
                 < replay delta {delta}"
            ));
        }
        for f in &self.fates {
            if f.makespan_contribution > delta {
                return Err(format!(
                    "conservation violated: detour {} contributes {} > replay delta {delta}",
                    f.id, f.makespan_contribution
                ));
            }
        }
        Ok(())
    }
}

/// One node of the timing graph (SoA; see module docs).
#[derive(Default)]
struct Graph {
    /// Recorded value (ps): segment end, inject time, or deliver time.
    actual: Vec<u64>,
    /// Node weight added after the in-edge max (segment span; 0 for
    /// inject/deliver nodes).
    weight: Vec<u64>,
    /// Injected-detour portion of `weight` (0 when none).
    detour_ps: Vec<u64>,
    /// Segment rank, or [`NO_RANK`] for inject/deliver nodes.
    rank: Vec<u32>,
    /// Flat edge list `(from, to, w)`, finalized into CSR after build.
    edges: Vec<(u32, u32, u64)>,
}

impl Graph {
    fn push_node(&mut self, actual: u64, weight: u64, rank: u32) -> usize {
        let v = self.actual.len();
        self.actual.push(actual);
        self.weight.push(weight);
        self.detour_ps.push(0);
        self.rank.push(rank);
        v
    }

    /// Add a conservative edge; weights are clamped so
    /// `actual[u] + w ≤ actual[v]` always holds (defensive against
    /// malformed streams). Returns false on an inconsistent edge.
    fn edge(&mut self, u: usize, v: usize, w: u64) -> bool {
        debug_assert!(u < v, "timing-graph edges must follow emission order");
        if self.actual[u] > self.actual[v] {
            return false;
        }
        let w = w.min(self.actual[v] - self.actual[u]);
        self.edges.push((u as u32, v as u32, w));
        true
    }

    fn len(&self) -> usize {
        self.actual.len()
    }
}

/// CSR adjacency built once from the flat edge list.
struct Csr {
    off: Vec<u32>,
    /// `(peer, w)` pairs.
    adj: Vec<(u32, u64)>,
}

impl Csr {
    fn build(n: usize, edges: &[(u32, u32, u64)], incoming: bool) -> Csr {
        let mut off = vec![0u32; n + 1];
        for &(u, v, _) in edges {
            off[1 + if incoming { v } else { u } as usize] += 1;
        }
        for i in 0..n {
            off[i + 1] += off[i];
        }
        let mut adj = vec![(0u32, 0u64); edges.len()];
        let mut cur = off.clone();
        for &(u, v, w) in edges {
            let (key, peer) = if incoming { (v, u) } else { (u, v) };
            adj[cur[key as usize] as usize] = (peer, w);
            cur[key as usize] += 1;
        }
        Csr { off, adj }
    }

    fn of(&self, v: usize) -> &[(u32, u64)] {
        &self.adj[self.off[v] as usize..self.off[v + 1] as usize]
    }
}

/// One detour pending attribution: `(node, id, rank, op, at, dur)`.
struct DetourRec {
    node: usize,
    id: u64,
    rank: u32,
    op: u32,
    at: Time,
    dur: Span,
}

/// Build the timing graph from the recorded stream (one forward pass).
/// Returns the graph, the detours awaiting attribution, and whether the
/// stream turned out to be incomplete (dangling references).
fn build(events: &[SimEvent], mut truncated: bool) -> (Graph, Vec<DetourRec>, bool) {
    let mut g = Graph::default();
    let mut detours: Vec<DetourRec> = Vec::new();
    // Last CPU segment per rank (CPU serialization chain).
    let mut last_seg: Vec<Option<usize>> = Vec::new();
    // Last NIC injection per rank (NIC serialization chain).
    let mut last_inject: Vec<Option<usize>> = Vec::new();
    // Latest (completing) segment of each (rank, op).
    let mut op_last_seg: HashMap<(u32, u32), usize> = HashMap::new();
    // Dependency-readiness sources per (rank, op), from DepEdge records.
    let mut ready_srcs: HashMap<(u32, u32), Vec<usize>> = HashMap::new();
    // Inject node and wire-arrival time per message id.
    let mut msg_inject: HashMap<u64, (usize, u64)> = HashMap::new();
    // A deliver node waiting for the segment it triggers (same handler,
    // so the very next Exec on (rank, op)).
    let mut pending_deliver: Option<(u32, u32, usize)> = None;
    // The most recent segment node (its Detour record follows directly).
    let mut last_seg_node: Option<(usize, u32, u32)> = None;

    let grow = |v: &mut Vec<Option<usize>>, r: usize| {
        if v.len() <= r {
            v.resize(r + 1, None);
        }
    };

    for ev in events {
        match *ev {
            SimEvent::Exec {
                rank,
                op,
                start,
                end,
                ..
            } => {
                let r = rank as usize;
                grow(&mut last_seg, r);
                grow(&mut last_inject, r);
                let v = g.push_node(end.as_ps(), end.since(start).as_ps(), rank);
                if let Some(p) = last_seg[r] {
                    truncated |= !g.edge(p, v, 0);
                }
                if let Some((dr, dop, dnode)) = pending_deliver.take() {
                    if (dr, dop) == (rank, op) {
                        truncated |= !g.edge(dnode, v, 0);
                    }
                }
                if !op_last_seg.contains_key(&(rank, op)) {
                    if let Some(srcs) = ready_srcs.get(&(rank, op)) {
                        for &s in srcs {
                            truncated |= !g.edge(s, v, 0);
                        }
                    }
                }
                last_seg[r] = Some(v);
                op_last_seg.insert((rank, op), v);
                last_seg_node = Some((v, rank, op));
            }
            SimEvent::Detour {
                id,
                rank,
                op,
                at,
                dur,
            } => match last_seg_node {
                Some((v, sr, sop)) if (sr, sop) == (rank, op) && g.detour_ps[v] == 0 => {
                    g.detour_ps[v] = dur.as_ps().min(g.weight[v]);
                    detours.push(DetourRec {
                        node: v,
                        id,
                        rank,
                        op,
                        at,
                        dur,
                    });
                }
                // Detour without its segment: the ring dropped the Exec.
                _ => truncated = true,
            },
            SimEvent::MsgSend {
                id,
                src,
                inject,
                arrive,
                ..
            } => {
                let r = src as usize;
                grow(&mut last_seg, r);
                grow(&mut last_inject, r);
                let v = g.push_node(inject.as_ps(), 0, NO_RANK);
                match last_seg[r] {
                    Some(s) => {
                        truncated |= !g.edge(s, v, 0);
                        if let Some(p) = last_inject[r] {
                            // NIC-bound when the injection left after the
                            // CPU segment finished: the gap to the
                            // previous injection is then exactly the NIC
                            // serialization cost. CPU-bound injections
                            // get a zero-weight (conservative) edge.
                            let w = if g.actual[v] > g.actual[s] {
                                g.actual[v].saturating_sub(g.actual[p])
                            } else {
                                0
                            };
                            truncated |= !g.edge(p, v, w);
                        }
                    }
                    None => truncated = true,
                }
                msg_inject.insert(id, (v, arrive.as_ps()));
                last_inject[r] = Some(v);
            }
            SimEvent::MsgDeliver {
                id,
                dst,
                dst_op,
                at,
                ..
            } => {
                let v = g.push_node(at.as_ps(), 0, NO_RANK);
                match msg_inject.get(&id) {
                    Some(&(inode, arrive_ps)) => {
                        let wire = arrive_ps.saturating_sub(g.actual[inode]);
                        truncated |= !g.edge(inode, v, wire);
                    }
                    None => truncated = true,
                }
                // Receive-posting constraint: the receive op's readiness
                // sources bound the match time from below.
                if let Some(srcs) = ready_srcs.get(&(dst, dst_op)) {
                    for &s in srcs {
                        truncated |= !g.edge(s, v, 0);
                    }
                }
                pending_deliver = Some((dst, dst_op, v));
            }
            SimEvent::DepEdge { rank, from, to, .. } => match op_last_seg.get(&(rank, from)) {
                Some(&s) => ready_srcs.entry((rank, to)).or_default().push(s),
                None => truncated = true,
            },
            SimEvent::OpDone { .. } | SimEvent::RecvPosted { .. } | SimEvent::QueueDepth { .. } => {
            }
        }
    }
    (g, detours, truncated)
}

/// Analyze one recorded run. `dropped` is the recorder's dropped-event
/// count (a nonzero value marks the report truncated).
pub fn analyze(events: &[SimEvent], dropped: u64) -> ProvenanceReport {
    let (g, detour_recs, mut truncated) = build(events, dropped > 0);
    let n = g.len();
    let incoming = Csr::build(n, &g.edges, true);
    let outgoing = Csr::build(n, &g.edges, false);

    // Per-rank segment lists, sorted by descending end time.
    let nranks = g
        .rank
        .iter()
        .filter(|&&r| r != NO_RANK)
        .map(|&r| r as usize + 1)
        .max()
        .unwrap_or(0);
    let mut rank_segs: Vec<Vec<usize>> = vec![Vec::new(); nranks];
    for v in 0..n {
        if g.rank[v] != NO_RANK {
            rank_segs[g.rank[v] as usize].push(v);
        }
    }
    for list in &mut rank_segs {
        list.sort_by(|&a, &b| g.actual[b].cmp(&g.actual[a]).then(a.cmp(&b)));
    }
    let finish: Vec<u64> = rank_segs
        .iter()
        .map(|l| l.first().map(|&v| g.actual[v]).unwrap_or(0))
        .collect();
    let makespan_ps = finish.iter().copied().max().unwrap_or(0);
    // Ranks sorted by descending finish (for the untouched-max lookup in
    // makespan recomputation).
    let mut ranks_desc: Vec<usize> = (0..nranks).collect();
    ranks_desc.sort_by(|&a, &b| finish[b].cmp(&finish[a]).then(a.cmp(&b)));

    // Detour-free replay: one forward pass with detour weights removed.
    let mut replay: Vec<u64> = vec![0; n];
    for v in 0..n {
        let mut base = 0u64;
        for &(u, w) in incoming.of(v) {
            base = base.max(replay[u as usize] + w);
        }
        replay[v] = base + (g.weight[v] - g.detour_ps[v]);
    }
    let replay_makespan_ps = (0..n)
        .filter(|&v| g.rank[v] != NO_RANK)
        .map(|v| replay[v])
        .max()
        .unwrap_or(0);

    // Binding critical walk from the makespan argmax: the set of detour
    // segments whose durations bound the replay delta from above.
    let mut on_walk: HashSet<usize> = HashSet::new();
    if let Some(start) = (0..n)
        .filter(|&v| g.rank[v] != NO_RANK && g.actual[v] == makespan_ps)
        .min()
    {
        let mut cur = start;
        loop {
            if g.detour_ps[cur] > 0 {
                on_walk.insert(cur);
            }
            let target = g.actual[cur] - g.weight[cur];
            if target == 0 {
                break;
            }
            match incoming
                .of(cur)
                .iter()
                .find(|&&(u, w)| g.actual[u as usize] + w == target)
            {
                Some(&(u, _)) => cur = u as usize,
                None => {
                    // No binding predecessor: incomplete stream.
                    truncated = true;
                    break;
                }
            }
        }
    }

    // Per-detour cone propagation.
    let mut fates: Vec<DetourFate> = Vec::with_capacity(detour_recs.len());
    let mut red: HashMap<usize, u64> = HashMap::new();
    let mut frontier: BinaryHeap<std::cmp::Reverse<usize>> = BinaryHeap::new();
    let mut queued: HashSet<usize> = HashSet::new();
    for d in &detour_recs {
        red.clear();
        frontier.clear();
        queued.clear();
        let delta = d.dur.as_ps().min(g.detour_ps[d.node]);
        red.insert(d.node, delta);
        for &(nb, _) in outgoing.of(d.node) {
            if queued.insert(nb as usize) {
                frontier.push(std::cmp::Reverse(nb as usize));
            }
        }
        // Process strictly in node (= topological) order: every affected
        // predecessor of a node is finalized before the node pops.
        while let Some(std::cmp::Reverse(v)) = frontier.pop() {
            queued.remove(&v);
            let mut base = 0u64;
            for &(u, w) in incoming.of(v) {
                let uval = g.actual[u as usize] - red.get(&(u as usize)).copied().unwrap_or(0);
                base = base.max(uval + w);
            }
            let newv = base + g.weight[v];
            let r = g.actual[v].saturating_sub(newv);
            if r > 0 {
                red.insert(v, r);
                for &(nb, _) in outgoing.of(v) {
                    if queued.insert(nb as usize) {
                        frontier.push(std::cmp::Reverse(nb as usize));
                    }
                }
            }
        }

        // Per-rank finish delays from the cone.
        let mut touched_max: HashMap<u32, u64> = HashMap::new();
        for (&v, &r) in &red {
            let rk = g.rank[v];
            if rk != NO_RANK {
                let cand = g.actual[v] - r;
                match touched_max.entry(rk) {
                    Entry::Occupied(mut e) => {
                        let m = e.get_mut();
                        *m = (*m).max(cand);
                    }
                    Entry::Vacant(e) => {
                        e.insert(cand);
                    }
                }
            }
        }
        let mut self_delay = 0u64;
        let mut global_delay = 0u64;
        let mut delayed: Vec<u32> = Vec::new();
        let mut new_finish: HashMap<u32, u64> = HashMap::new();
        for (&rk, &tmax) in &touched_max {
            // First untouched segment on the rank's descending end list
            // caps the new finish from below.
            let untouched = rank_segs[rk as usize]
                .iter()
                .find(|v| !red.contains_key(v))
                .map(|&v| g.actual[v])
                .unwrap_or(0);
            let nf = tmax.max(untouched);
            new_finish.insert(rk, nf);
            let delay = finish[rk as usize].saturating_sub(nf);
            if delay > 0 {
                global_delay += delay;
                if rk == d.rank {
                    self_delay = delay;
                } else {
                    delayed.push(rk);
                }
            }
        }
        delayed.sort_unstable();
        let ranks_delayed = delayed.len() as u32;
        delayed.truncate(DELAYED_RANKS_SAMPLE);

        // New makespan: affected ranks use their recomputed finish, the
        // best unaffected rank keeps its measured one.
        let unaffected_max = ranks_desc
            .iter()
            .find(|&&rk| !new_finish.contains_key(&(rk as u32)))
            .map(|&rk| finish[rk])
            .unwrap_or(0);
        let new_makespan = new_finish
            .values()
            .copied()
            .max()
            .unwrap_or(0)
            .max(unaffected_max);
        let contribution = makespan_ps.saturating_sub(new_makespan);

        let fate = if global_delay == 0 {
            Fate::Absorbed
        } else if ranks_delayed == 0 && contribution == 0 {
            Fate::PartiallyAbsorbed
        } else {
            Fate::Propagated
        };
        let amplification = if d.dur.is_zero() {
            0.0
        } else {
            global_delay as f64 / d.dur.as_ps() as f64
        };
        fates.push(DetourFate {
            id: d.id,
            rank: d.rank,
            op: d.op,
            at: d.at,
            dur: d.dur,
            self_delay: Span::from_ps(self_delay),
            ranks_delayed,
            delayed_ranks: delayed,
            global_delay: Span::from_ps(global_delay),
            makespan_contribution: Span::from_ps(contribution),
            on_critical_walk: on_walk.contains(&d.node),
            propagated_delay: if on_walk.contains(&d.node) {
                d.dur
            } else {
                Span::ZERO
            },
            amplification,
            fate,
        });
    }
    fates.sort_by_key(|f| f.id);

    let total_stolen: Span = fates.iter().map(|f| f.dur).sum();
    ProvenanceReport {
        fates,
        ranks: nranks,
        makespan: Span::from_ps(makespan_ps),
        replay_makespan: Span::from_ps(replay_makespan_ps),
        total_stolen,
        truncated,
    }
}

/// Render the per-event records plus a trailing summary object as JSONL,
/// one JSON value per line, built with the shared [`cesim_json`]
/// serializer (so escaping and number formatting match what
/// [`cesim_json::JsonValue::parse`] accepts by construction).
pub fn provenance_jsonl(report: &ProvenanceReport) -> String {
    use cesim_json::JsonValue;
    let mut out = String::new();
    for f in &report.fates {
        let rec = JsonValue::object([
            ("type", JsonValue::from("detour")),
            ("id", JsonValue::from(f.id)),
            ("rank", JsonValue::from(f.rank)),
            ("op", JsonValue::from(f.op)),
            ("at_s", JsonValue::from(f.at.as_secs_f64())),
            ("dur_s", JsonValue::from(f.dur.as_secs_f64())),
            ("fate", JsonValue::from(f.fate.label())),
            ("self_delay_s", JsonValue::from(f.self_delay.as_secs_f64())),
            ("ranks_delayed", JsonValue::from(f.ranks_delayed)),
            (
                "delayed_ranks_sample",
                JsonValue::Array(
                    f.delayed_ranks
                        .iter()
                        .map(|&r| JsonValue::from(r))
                        .collect(),
                ),
            ),
            (
                "global_delay_s",
                JsonValue::from(f.global_delay.as_secs_f64()),
            ),
            (
                "makespan_contribution_s",
                JsonValue::from(f.makespan_contribution.as_secs_f64()),
            ),
            ("on_critical_walk", JsonValue::from(f.on_critical_walk)),
            (
                "propagated_delay_s",
                JsonValue::from(f.propagated_delay.as_secs_f64()),
            ),
            ("amplification", JsonValue::from(f.amplification)),
        ]);
        out.push_str(&rec.to_json());
        out.push('\n');
    }
    let s = report.summary();
    let hist: Vec<JsonValue> = report
        .amplification_histogram()
        .into_iter()
        .map(|(label, count)| {
            JsonValue::object([
                ("bucket", JsonValue::from(label)),
                ("count", JsonValue::from(count)),
            ])
        })
        .collect();
    let summary = JsonValue::object([
        ("type", JsonValue::from("summary")),
        ("ranks", JsonValue::from(report.ranks)),
        ("events", JsonValue::from(s.events)),
        ("absorbed", JsonValue::from(s.absorbed)),
        ("partially_absorbed", JsonValue::from(s.partially_absorbed)),
        ("propagated", JsonValue::from(s.propagated)),
        ("makespan_s", JsonValue::from(report.makespan.as_secs_f64())),
        (
            "replay_makespan_s",
            JsonValue::from(report.replay_makespan.as_secs_f64()),
        ),
        (
            "replay_delta_s",
            JsonValue::from(report.replay_delta().as_secs_f64()),
        ),
        (
            "total_stolen_s",
            JsonValue::from(report.total_stolen.as_secs_f64()),
        ),
        ("max_amplification", JsonValue::from(s.max_amplification)),
        ("p99_amplification", JsonValue::from(s.p99_amplification)),
        ("truncated", JsonValue::from(report.truncated)),
        ("histogram", JsonValue::Array(hist)),
    ]);
    out.push_str(&summary.to_json());
    out.push('\n');
    out
}

/// Render a rank×time heatmap as long-format CSV: one row per
/// `(rank, time bin)` with at least one detour, binned over
/// `[0, makespan)` into `bins` equal windows. Columns report the event
/// count, CPU time stolen, global delay induced, and how many of the
/// bin's events propagated.
pub fn heatmap_csv(report: &ProvenanceReport, bins: usize) -> String {
    use std::fmt::Write as _;
    let bins = bins.max(1);
    let mut out =
        String::from("rank,bin,bin_start_s,bin_end_s,detours,stolen_s,global_delay_s,propagated\n");
    let span_ps = report.makespan.as_ps().max(1);
    let mut cells: HashMap<(u32, usize), (u64, u64, u64, u64)> = HashMap::new();
    for f in &report.fates {
        let b = ((f.at.as_ps() as u128 * bins as u128 / span_ps as u128) as usize).min(bins - 1);
        let c = cells.entry((f.rank, b)).or_default();
        c.0 += 1;
        c.1 += f.dur.as_ps();
        c.2 += f.global_delay.as_ps();
        c.3 += (f.fate == Fate::Propagated) as u64;
    }
    let mut keys: Vec<(u32, usize)> = cells.keys().copied().collect();
    keys.sort_unstable();
    let bin_s = report.makespan.as_secs_f64() / bins as f64;
    for (rank, b) in keys {
        let (count, stolen, delay, prop) = cells[&(rank, b)];
        let _ = writeln!(
            out,
            "{rank},{b},{},{},{count},{},{},{prop}",
            b as f64 * bin_s,
            (b + 1) as f64 * bin_s,
            Span::from_ps(stolen).as_secs_f64(),
            Span::from_ps(delay).as_secs_f64(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cesim_engine::noise::ScriptedNoise;
    use cesim_engine::record::VecRecorder;
    use cesim_engine::{NoNoise, Simulator};
    use cesim_goal::{Rank, ScheduleBuilder, Tag};
    use cesim_model::LogGopsParams;

    fn record(
        build: impl Fn(&mut ScheduleBuilder),
        ranks: usize,
        noise: &mut dyn cesim_engine::NoiseModel,
    ) -> (VecRecorder, cesim_engine::SimResult) {
        let mut b = ScheduleBuilder::new(ranks);
        build(&mut b);
        let s = b.build();
        let mut rec = VecRecorder::default();
        let r = Simulator::new(&s, LogGopsParams::xc40())
            .with_recorder(&mut rec)
            .run(noise)
            .unwrap();
        (rec, r)
    }

    #[test]
    fn empty_stream_is_empty_report() {
        let rep = analyze(&[], 0);
        assert!(rep.fates.is_empty());
        assert_eq!(rep.makespan, Span::ZERO);
        assert_eq!(rep.replay_delta(), Span::ZERO);
        assert!(rep.check().is_ok());
    }

    #[test]
    fn noise_free_run_has_exact_replay() {
        let (rec, r) = record(
            |b| {
                let c = b.calc(Rank(0), Span::from_us(10), &[]);
                b.send(Rank(0), Rank(1), 8, Tag(1), &[c]);
                b.recv(Rank(1), Some(Rank(0)), 8, Tag(1), &[]);
            },
            2,
            &mut NoNoise,
        );
        let rep = analyze(&rec.events, 0);
        assert!(rep.fates.is_empty());
        assert_eq!(rep.makespan, r.finish.since(Time::ZERO));
        assert_eq!(rep.replay_makespan, rep.makespan);
        assert!(!rep.truncated);
        rep.check().unwrap();
    }

    /// A detour inside slack is absorbed: no finish time moves.
    #[test]
    fn slack_detour_is_absorbed() {
        let d = Span::from_us(20);
        let mut noise = ScriptedNoise::new(vec![(Rank(1), Time::ZERO, d)]);
        let (rec, r) = record(
            |b| {
                // Rank 1 computes 10 us then waits ~990 us for rank 0.
                let c0 = b.calc(Rank(0), Span::from_us(1000), &[]);
                b.send(Rank(0), Rank(1), 8, Tag(1), &[c0]);
                let c1 = b.calc(Rank(1), Span::from_us(10), &[]);
                b.recv(Rank(1), Some(Rank(0)), 8, Tag(1), &[c1]);
            },
            2,
            &mut noise,
        );
        let rep = analyze(&rec.events, 0);
        assert_eq!(rep.fates.len(), 1);
        let f = &rep.fates[0];
        assert_eq!(f.fate, Fate::Absorbed);
        assert_eq!(f.global_delay, Span::ZERO);
        assert_eq!(f.amplification, 0.0);
        assert_eq!(f.makespan_contribution, Span::ZERO);
        assert!(!f.on_critical_walk);
        // Absorption means the replay equals the measured makespan.
        assert_eq!(rep.replay_makespan, r.finish.since(Time::ZERO));
        rep.check().unwrap();
    }

    /// A detour on the critical path delays both ranks by its full
    /// duration: amplification 2.
    #[test]
    fn critical_path_detour_propagates_with_amplification_two() {
        let d = Span::from_us(50);
        let mut noise = ScriptedNoise::new(vec![(Rank(0), Time::ZERO, d)]);
        let (rec, r) = record(
            |b| {
                let c0 = b.calc(Rank(0), Span::from_us(100), &[]);
                b.send(Rank(0), Rank(1), 8, Tag(1), &[c0]);
                b.recv(Rank(1), Some(Rank(0)), 8, Tag(1), &[]);
            },
            2,
            &mut noise,
        );
        let rep = analyze(&rec.events, 0);
        assert_eq!(rep.fates.len(), 1);
        let f = &rep.fates[0];
        assert_eq!(f.fate, Fate::Propagated);
        assert_eq!(f.self_delay, d);
        assert_eq!(f.ranks_delayed, 1);
        assert_eq!(f.delayed_ranks, vec![1]);
        assert_eq!(f.global_delay, d + d);
        assert_eq!(f.makespan_contribution, d);
        assert!(f.on_critical_walk);
        assert_eq!(f.propagated_delay, d);
        assert!((f.amplification - 2.0).abs() < 1e-12);
        assert_eq!(rep.replay_delta(), d);
        assert_eq!(rep.makespan, r.finish.since(Time::ZERO));
        rep.check().unwrap();
    }

    /// Rendezvous chain: a detour delaying the sender's payload
    /// propagates across the three-message handshake.
    #[test]
    fn rendezvous_detour_propagates() {
        let d = Span::from_ms(1);
        let mut noise = ScriptedNoise::new(vec![(Rank(0), Time::ZERO, d)]);
        let (rec, _) = record(
            |b| {
                let c0 = b.calc(Rank(0), Span::from_us(100), &[]);
                b.send(Rank(0), Rank(1), 64 * 1024, Tag(1), &[c0]);
                b.recv(Rank(1), Some(Rank(0)), 64 * 1024, Tag(1), &[]);
            },
            2,
            &mut noise,
        );
        let rep = analyze(&rec.events, 0);
        assert_eq!(rep.fates.len(), 1);
        assert_eq!(rep.fates[0].fate, Fate::Propagated);
        assert_eq!(rep.fates[0].global_delay, d + d);
        assert_eq!(rep.replay_delta(), d);
        rep.check().unwrap();
    }

    /// Truncated stream (ring drops) is flagged and fails `check`.
    #[test]
    fn dropped_events_mark_truncated() {
        let (rec, _) = record(
            |b| {
                b.calc(Rank(0), Span::from_us(10), &[]);
            },
            1,
            &mut NoNoise,
        );
        let rep = analyze(&rec.events, 3);
        assert!(rep.truncated);
        assert!(rep.check().is_err());
    }

    #[test]
    fn jsonl_and_heatmap_are_well_formed() {
        let d = Span::from_us(50);
        let mut noise = ScriptedNoise::new(vec![(Rank(0), Time::ZERO, d)]);
        let (rec, _) = record(
            |b| {
                let c0 = b.calc(Rank(0), Span::from_us(100), &[]);
                b.send(Rank(0), Rank(1), 8, Tag(1), &[c0]);
                b.recv(Rank(1), Some(Rank(0)), 8, Tag(1), &[]);
            },
            2,
            &mut noise,
        );
        let rep = analyze(&rec.events, 0);
        let jsonl = provenance_jsonl(&rep);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), rep.fates.len() + 1);
        for line in &lines {
            let v = cesim_json::JsonValue::parse(line).expect("every JSONL line parses");
            assert!(v.get("type").is_some());
        }
        let summary = cesim_json::JsonValue::parse(lines.last().unwrap()).unwrap();
        assert_eq!(
            summary.get("propagated").unwrap(),
            &cesim_json::JsonValue::Number(1.0)
        );
        let csv = heatmap_csv(&rep, 16);
        let mut it = csv.lines();
        assert_eq!(
            it.next().unwrap(),
            "rank,bin,bin_start_s,bin_end_s,detours,stolen_s,global_delay_s,propagated"
        );
        let row = it.next().expect("one populated heatmap cell");
        assert!(row.starts_with("0,"));
    }

    #[test]
    fn histogram_buckets_cover_all_events() {
        let d = Span::from_us(50);
        let mut noise = ScriptedNoise::new(vec![
            (Rank(0), Time::ZERO, d),
            (Rank(1), Time::ZERO, Span::from_us(1)),
        ]);
        let (rec, _) = record(
            |b| {
                let c0 = b.calc(Rank(0), Span::from_us(1000), &[]);
                b.send(Rank(0), Rank(1), 8, Tag(1), &[c0]);
                let c1 = b.calc(Rank(1), Span::from_us(10), &[]);
                b.recv(Rank(1), Some(Rank(0)), 8, Tag(1), &[c1]);
            },
            2,
            &mut noise,
        );
        let rep = analyze(&rec.events, 0);
        let total: u64 = rep.amplification_histogram().iter().map(|&(_, c)| c).sum();
        assert_eq!(total, rep.fates.len() as u64);
        let s = rep.summary();
        assert_eq!(s.events, rep.fates.len() as u64);
        assert_eq!(s.absorbed + s.partially_absorbed + s.propagated, s.events);
    }
}
