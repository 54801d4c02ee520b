//! Golden pins of the CE arrival process's RNG consumption.
//!
//! Figure, serve and fleet digests all depend on every rank's substream
//! being consumed in exactly the same order, so these tests drive a fixed
//! `stretch` sequence through each way of building the process and assert
//! the exact outcome. The sequence covers zero-work intervals, long idle
//! gaps (arrivals absorbed while blocked) and a ρ≈0.66 stretch where
//! arrivals queue behind detours.
//!
//! The constants were captured from the original implementation; a change
//! to any of them means the process now draws differently.

use cesim_engine::NoiseModel;
use cesim_goal::Rank;
use cesim_model::{Span, Time};
use cesim_noise::{BurstSpec, CeNoise, RankCeParams, Scope};

const RANKS: usize = 4;

/// `(idle gap before the interval, work)`, applied to every rank in turn.
const SEQUENCE: [(Span, Span); 10] = [
    (Span::ZERO, Span::from_ms(5)),
    (Span::ZERO, Span::ZERO),
    (Span::from_us(40), Span::from_ms(300)),
    (Span::from_secs(10), Span::from_ms(1)),
    (Span::ZERO, Span::ZERO),
    (Span::from_ms(2), Span::from_secs(2)),
    (Span::from_secs(60), Span::from_ms(50)),
    (Span::from_us(3), Span::from_us(17)),
    (Span::ZERO, Span::from_secs(8)),
    (Span::from_secs(5), Span::ZERO),
];

/// What a run of [`SEQUENCE`] produced.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    /// Each rank's end time after the last interval, in ps.
    ends: [u64; RANKS],
    /// CE events each rank took (from `events_injected()` deltas).
    per_rank: [u64; RANKS],
    /// `events_injected()` after the run.
    total: u64,
    /// FNV-1a over every interval's end time, in call order.
    digest: u64,
}

fn drive(noise: &mut impl NoiseModel) -> Outcome {
    let mut cursor = [Time::ZERO; RANKS];
    let mut per_rank = [0u64; RANKS];
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for &(gap, work) in &SEQUENCE {
        for r in 0..RANKS {
            let start = cursor[r] + gap;
            let before = noise.events_injected();
            let end = noise.stretch(Rank(r as u32), start, work);
            assert!(end >= start + work, "rank {r}: stretch shrank work");
            per_rank[r] += noise.events_injected() - before;
            cursor[r] = end;
            for b in end.as_ps().to_le_bytes() {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    Outcome {
        ends: cursor.map(Time::as_ps),
        per_rank,
        total: noise.events_injected(),
        digest,
    }
}

/// Firmware logging at MTBCE 200 ms: ρ = 133/200 ≈ 0.66.
const MTBCE: Span = Span::from_ms(200);
const DETOUR: Span = Span::from_ms(133);

#[test]
fn all_rank_process_is_pinned() {
    let mut n = CeNoise::new(RANKS, MTBCE, DETOUR, Scope::AllRanks, 42);
    assert_eq!(
        drive(&mut n),
        Outcome {
            ends: [
                100121060000000,
                101318060000000,
                100387060000000,
                111958060000000
            ],
            per_rank: [111, 120, 113, 200],
            total: 544,
            digest: 10540245803238279170,
        }
    );
}

#[test]
fn single_rank_process_is_pinned() {
    let mut n = CeNoise::new(RANKS, MTBCE, DETOUR, Scope::SingleRank(Rank(2)), 7);
    assert_eq!(
        drive(&mut n),
        Outcome {
            ends: [
                85358060000000,
                85358060000000,
                105840060000000,
                85358060000000
            ],
            per_rank: [0, 0, 154, 0],
            total: 154,
            digest: 14999196297516164038,
        }
    );
}

#[test]
fn per_rank_process_is_pinned() {
    // One hot (faulty-DIMM) rank, one at ρ≈0.66, mixed detours.
    let p = |mtbce, detour| RankCeParams { mtbce, detour };
    let params = vec![
        p(Span::from_ms(10), Span::from_us(100)),
        p(Span::from_us(200), Span::from_us(20)),
        p(MTBCE, DETOUR),
        p(Span::from_ms(5), Span::from_us(775)),
    ];
    let mut n = CeNoise::per_rank(params, 11);
    assert_eq!(
        drive(&mut n),
        Outcome {
            ends: [
                85462960000000,
                86508480000000,
                106771060000000,
                87254485000000
            ],
            per_rank: [1049, 57521, 161, 2447],
            total: 61178,
            digest: 13929451645330271423,
        }
    );
}

#[test]
fn bursty_process_is_pinned() {
    // Bursts at ρ = 6.6 ms / 10 ms ≈ 0.66, separated by quiet periods.
    let spec = BurstSpec {
        quiet_mtbce: Span::from_secs(1),
        burst_mtbce: Span::from_ms(10),
        mean_quiet: Span::from_secs(2),
        mean_burst: Span::from_ms(300),
    };
    let mut n = CeNoise::bursty(RANKS, spec, Span::from_us(6_600), 3);
    assert_eq!(
        drive(&mut n),
        Outcome {
            ends: [
                86691260000000,
                87060860000000,
                85925660000000,
                86189660000000
            ],
            per_rank: [202, 258, 86, 126],
            total: 672,
            digest: 5643972122372403914,
        }
    );
}
