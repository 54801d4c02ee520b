//! `workloads::build` output is pinned: the GOAL text of every app's
//! schedule at two rank counts and two step counts hashes to a fixed
//! FNV-1a digest. The periodic build and any rewrite of the skeleton's
//! step loop must leave these schedules unchanged.

use dram_ce_sim::goal::textfmt::to_text;
use dram_ce_sim::seed::fnv1a;
use dram_ce_sim::workloads::{self, AppId, WorkloadConfig};

/// `(app, ranks, steps, fnv1a(to_text(build(app, ranks, steps))))`.
const PINNED: [(AppId, usize, usize, u64); 36] = [
    (AppId::LammpsLj, 6, 3, 0x2d820f35356bb391),
    (AppId::LammpsLj, 6, 23, 0xb448a5c9b4cc4f19),
    (AppId::LammpsLj, 27, 3, 0x7a9048ba756a0342),
    (AppId::LammpsLj, 27, 23, 0x2c3b227abe2dbe6d),
    (AppId::LammpsSnap, 6, 3, 0x4f78dc27cadcf8e1),
    (AppId::LammpsSnap, 6, 23, 0x2e71ffc5dd355aef),
    (AppId::LammpsSnap, 27, 3, 0xe208f98235d87f90),
    (AppId::LammpsSnap, 27, 23, 0xd43ef53ee9f52384),
    (AppId::LammpsCrack, 6, 3, 0x4bf9e75b340cf8f1),
    (AppId::LammpsCrack, 6, 23, 0x6c25e3d9ce25e22e),
    (AppId::LammpsCrack, 27, 3, 0x4c47eb9b545f7f64),
    (AppId::LammpsCrack, 27, 23, 0xc4fcdc0a1c2eb0ea),
    (AppId::Lulesh, 6, 3, 0x7bf1d88feb90921e),
    (AppId::Lulesh, 6, 23, 0xe3eaeb67794efb0d),
    (AppId::Lulesh, 27, 3, 0x9cc40f52e5768ec7),
    (AppId::Lulesh, 27, 23, 0xd1942dfa5a26365a),
    (AppId::Hpcg, 6, 3, 0x706b7b8ac96d4f26),
    (AppId::Hpcg, 6, 23, 0xad9a0c45354665f8),
    (AppId::Hpcg, 27, 3, 0x5f1e5bca1d04c6aa),
    (AppId::Hpcg, 27, 23, 0x75fa1701756325a3),
    (AppId::Cth, 6, 3, 0x053d0eda564fac2b),
    (AppId::Cth, 6, 23, 0xc0b57d2937357f8d),
    (AppId::Cth, 27, 3, 0x05e38bae989f2af3),
    (AppId::Cth, 27, 23, 0x96b8e0d6ed15f5da),
    (AppId::Milc, 6, 3, 0xd4dbafe4168383b9),
    (AppId::Milc, 6, 23, 0xc4582599dbc32349),
    (AppId::Milc, 27, 3, 0x0ecb829c3343810f),
    (AppId::Milc, 27, 23, 0x46c4a0346bfc555b),
    (AppId::MiniFe, 6, 3, 0x12b45fe27f415105),
    (AppId::MiniFe, 6, 23, 0x098cf23152f16948),
    (AppId::MiniFe, 27, 3, 0x6a107b897aee1748),
    (AppId::MiniFe, 27, 23, 0xf705cd66da8d2109),
    (AppId::Sparc, 6, 3, 0x29218be29910e887),
    (AppId::Sparc, 6, 23, 0x1160b17ed463b1a5),
    (AppId::Sparc, 27, 3, 0x53a44f9bd36d493d),
    (AppId::Sparc, 27, 23, 0x92ca54c46f4bdcd4),
];

#[test]
fn workload_schedules_match_their_pinned_digests() {
    let mut got = Vec::new();
    for &(app, ranks, steps, _) in &PINNED {
        let cfg = WorkloadConfig::default().with_steps(steps);
        let text = to_text(&workloads::build(app, ranks, &cfg));
        got.push((app, ranks, steps, fnv1a(text.as_bytes())));
    }
    let want: Vec<_> = PINNED.to_vec();
    assert_eq!(got, want, "a workload schedule changed");
}
