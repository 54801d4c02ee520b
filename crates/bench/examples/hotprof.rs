//! Quick hot-path profiler for the serial engine — a development tool,
//! not a benchmark of record (`benches/compile.rs` is that).
//!
//! Runs the replica-sweep workload three ways and prints per-event
//! costs, which is enough to attribute a regression to the queue, the
//! dispatch path, or the noise model without external profilers:
//!
//! * `ce-noise`  — the full bench configuration (CE detours enabled).
//! * `no-noise`  — same schedule under `NoNoise`; the delta to the line
//!   above is what noise desynchronization costs (smaller same-time
//!   batches), not the noise model itself.
//! * `queue-only` — replays a comparable push/pop volume against
//!   `EventQueue` directly with the real key pattern (per-rank monotone
//!   `cseq`), isolating queue cost from dispatch. Two timestamp
//!   patterns: 256 lockstep ranks whose events cluster on a few shared
//!   timestamps, and 2,000 desynchronized ranks whose per-rank jitter
//!   keeps ~2,000 distinct timestamps live at once (the large-run
//!   regime).
//!
//! Usage: `cargo build --release -p cesim-bench --example hotprof`, then
//! run the binary (all three) or `hotprof queue` (the queue-only replays
//! alone). A/B it against a stashed baseline build; single runs on a
//! noisy host swing ±10%, so interleave several rounds.

use cesim_core::engine::queue::{EvKey, EventQueue};
use cesim_core::engine::{simulate_compiled, CompiledSchedule, NoNoise};
use cesim_core::goal::builder::TagPool;
use cesim_core::goal::collectives::{allreduce_recursive_doubling, CollectiveCosts};
use cesim_core::goal::{Rank, ScheduleBuilder};
use cesim_core::model::{LogGopsParams, Span, Time};
use cesim_core::noise::{CeNoise, Scope};
use std::time::Instant;

/// The serial engine with and without CE noise.
fn engine_modes(reps: u64) {
    let n = 256;
    let rounds = 24;
    let mut b = ScheduleBuilder::new(n);
    let mut tags = TagPool::new();
    let mut cur: Vec<_> = (0..n).map(|r| b.join(Rank::from(r), &[])).collect();
    for _ in 0..rounds {
        cur = allreduce_recursive_doubling(&mut b, &mut tags, 8, &CollectiveCosts::default(), &cur);
    }
    let sched = b.build();
    let cs = CompiledSchedule::compile(&sched);
    let mk = |seed| {
        CeNoise::new(
            n,
            Span::from_ms(50),
            Span::from_us(200),
            Scope::AllRanks,
            seed,
        )
    };
    // Warm-up: populate scratch/caches outside the timed regions.
    simulate_compiled(&cs, &LogGopsParams::xc40(), &mut mk(u64::MAX)).unwrap();

    let t0 = Instant::now();
    let mut ev = 0u64;
    for s in 0..reps {
        let r = simulate_compiled(&cs, &LogGopsParams::xc40(), &mut mk(s)).unwrap();
        ev += r.events_processed;
    }
    let el = t0.elapsed().as_secs_f64();
    println!(
        "ce-noise : reps/s {:.2}  ns/event {:.1}",
        reps as f64 / el,
        el * 1e9 / ev as f64
    );

    let t0 = Instant::now();
    let mut ev2 = 0u64;
    for _ in 0..reps {
        let r = simulate_compiled(&cs, &LogGopsParams::xc40(), &mut NoNoise).unwrap();
        ev2 += r.events_processed;
    }
    let el2 = t0.elapsed().as_secs_f64();
    println!(
        "no-noise : reps/s {:.2}  ns/event {:.1}",
        reps as f64 / el2,
        el2 * 1e9 / ev2 as f64
    );
}

/// Replay `reps` × `per_rep` pushes against a bare `EventQueue`: one seed
/// event per rank at t = 0, then each popped event schedules its rank's
/// next one `delay(pushed)` ps later until the volume is reached.
fn queue_replay(label: &str, ranks: usize, reps: u64, mut delay: impl FnMut(usize) -> u64) {
    let mut q: EventQueue<(u32, u32)> = EventQueue::new();
    let per_rep: usize = 246_016;
    let t0 = Instant::now();
    let mut sink = 0u64;
    let mut out = Vec::new();
    for _ in 0..reps {
        let mut seq = vec![0u32; ranks];
        let mut pushed = 0usize;
        for (r, s) in seq.iter_mut().enumerate() {
            let key = EvKey {
                crank: r as u32,
                cseq: *s,
            };
            q.push(Time::from_ps(0), key, (r as u32, 0));
            *s += 1;
            pushed += 1;
        }
        while q.pop_batch(&mut out) > 0 {
            for &(t, k, _) in out.iter() {
                let now = t.as_ps();
                let r = k.crank as usize;
                if pushed < per_rep {
                    let key = EvKey {
                        crank: r as u32,
                        cseq: seq[r],
                    };
                    q.push(Time::from_ps(now + delay(pushed)), key, (r as u32, 1));
                    seq[r] += 1;
                    pushed += 1;
                }
                sink = sink.wrapping_add(now);
            }
        }
        q.clear();
    }
    let el = t0.elapsed().as_secs_f64();
    println!(
        "{label}: ns/event {:.1}  (sink {sink})",
        el * 1e9 / (per_rep as f64 * reps as f64)
    );
}

fn main() {
    let reps = 24u64;
    if std::env::args().nth(1).as_deref() != Some("queue") {
        engine_modes(reps);
    }
    queue_replay("queue-only lockstep (256 ranks)", 256, reps, |pushed| {
        1000 + (pushed as u64 % 7) * 250
    });
    // Per-rank compute jitter of 1-41 us at ps resolution: nearly every
    // push opens a new timestamp, ~2,000 of them live at once.
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    queue_replay("queue-only desync (2000 ranks)", 2000, reps, move |_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        1_000_000 + x % 40_000_000
    });
}
