//! Schedule generators shared by the quiet-replica and baseline-fork
//! tests: every workload, and every collective expansion with eager and
//! rendezvous payloads.

use dram_ce_sim::goal::builder::TagPool;
use dram_ce_sim::goal::collectives::{self, AllreduceAlgo, CollectiveCosts};
use dram_ce_sim::goal::{OpId, Rank, Schedule, ScheduleBuilder};
use dram_ce_sim::model::{LogGopsParams, Span};
use dram_ce_sim::workloads::{self, natural_ranks, AppId, WorkloadConfig};

/// `(label, schedule)` for all nine apps at `nodes` nodes and `steps`
/// steps.
pub fn app_schedules(nodes: usize, steps: usize) -> Vec<(String, Schedule)> {
    let cfg = WorkloadConfig {
        steps_override: Some(steps),
        ..WorkloadConfig::default()
    };
    AppId::all()
        .into_iter()
        .map(|app| {
            let ranks = natural_ranks(app, nodes);
            (app.name().to_string(), workloads::build(app, ranks, &cfg))
        })
        .collect()
}

/// `(label, schedule)` for every collective expansion at n = 5 and 16
/// ranks, with eager and rendezvous payloads: staggered entry work, the
/// collective, then a closing reduction step on every rank.
pub fn collective_schedules() -> Vec<(String, Schedule)> {
    type Expand = fn(&mut ScheduleBuilder, &mut TagPool, u64, &[OpId]) -> Vec<OpId>;
    let costs = CollectiveCosts::default();
    let expansions: [(&str, Expand); 9] = [
        ("allreduce_rd", |b, t, bytes, e| {
            let c = CollectiveCosts::default();
            collectives::allreduce(b, t, AllreduceAlgo::RecursiveDoubling, bytes, &c, e)
        }),
        ("allreduce_rb", |b, t, bytes, e| {
            let c = CollectiveCosts::default();
            collectives::allreduce(b, t, AllreduceAlgo::ReduceBcast, bytes, &c, e)
        }),
        ("barrier", |b, t, _, e| {
            collectives::barrier_dissemination(b, t, e)
        }),
        ("bcast", |b, t, bytes, e| {
            collectives::bcast_binomial(b, t, Rank(1), bytes, e)
        }),
        ("reduce", |b, t, bytes, e| {
            let c = CollectiveCosts::default();
            collectives::reduce_binomial(b, t, Rank(1), bytes, &c, e)
        }),
        ("allgather", |b, t, bytes, e| {
            collectives::allgather_ring(b, t, bytes, e)
        }),
        ("alltoall", |b, t, bytes, e| {
            collectives::alltoall_pairwise(b, t, bytes, e)
        }),
        ("scatter", |b, t, bytes, e| {
            collectives::scatter_binomial(b, t, Rank(1), bytes, e)
        }),
        ("gather", |b, t, bytes, e| {
            collectives::gather_binomial(b, t, Rank(1), bytes, e)
        }),
    ];
    let rendezvous = LogGopsParams::xc40().eager_threshold + 1;
    let mut out = Vec::new();
    for (name, expand) in expansions {
        for n in [5, 16] {
            for bytes in [8, rendezvous] {
                let mut b = ScheduleBuilder::new(n);
                let mut tags = TagPool::new();
                let entry: Vec<OpId> = (0..n)
                    .map(|r| b.calc(Rank::from(r), Span::from_us(1 + 3 * r as u64), &[]))
                    .collect();
                let done = expand(&mut b, &mut tags, bytes, &entry);
                for (r, &op) in done.iter().enumerate() {
                    b.calc(Rank::from(r), costs.reduce_cost(bytes), &[op]);
                }
                out.push((format!("{name} n={n} bytes={bytes}"), b.build()));
            }
        }
    }
    out
}
