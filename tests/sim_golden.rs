//! Golden pin for the simulator labels.
//!
//! `simulate_warmed` cycles label every training sample and score every
//! held-out region, and `simulate_inorder` feeds the D/I-cache features. The
//! FNV-1a hashes below pin both, bitwise, over eight suite programs on the
//! ARM N1 (prefetcher off) and big-core (prefetcher on, largest caches)
//! configurations, so a change to the cache model's storage or the pipeline
//! that moves a single cycle or hit level shows up here.

use concorde_suite::prelude::*;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn level(&mut self, l: CacheLevel) {
        self.u64(l as u64);
    }
}

const PROGRAMS: [&str; 8] = ["P1", "P7", "C1", "O1", "S1", "S5", "S6", "S10"];
const WARMUP: usize = 4_096;
const REGION: usize = 4_096;

fn archs() -> [(&'static str, MicroArch); 2] {
    [("n1", MicroArch::arm_n1()), ("big", MicroArch::big_core())]
}

/// `program_arch → (simulate_warmed hash, simulate_inorder hash)`.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("P1_n1", 0xec3b526be2a95dc5, 0xf8095641dd16dc96),
    ("P1_big", 0xac4ee11f1eeae85a, 0x32825e4e29090f1c),
    ("P7_n1", 0xb623fcbce5f3251f, 0x396f50bac084ba03),
    ("P7_big", 0xa6f8917df0a52934, 0x5ad470a14ee5a6b6),
    ("C1_n1", 0x542df00ddb09744b, 0x4ca0f7e748ffac72),
    ("C1_big", 0x612b1ccb7abcbf15, 0x3a2c73d2b9d74d66),
    ("O1_n1", 0xe32969cd429e197a, 0xabde532bce92b6c4),
    ("O1_big", 0xf94dd5cc0807efd0, 0x6943b5512d8c0368),
    ("S1_n1", 0xf5058af1b628d46f, 0x3c3206e20059e597),
    ("S1_big", 0x8e1be043dbefc0a2, 0xdf13b630fd5d2fea),
    ("S5_n1", 0xdec03251a2cea8b1, 0x24d9df84229aa49e),
    ("S5_big", 0x32cc500b7300f8ab, 0xd2d24f6d83c17f35),
    ("S6_n1", 0x61262955af3a96b3, 0x0bc22ab5a5650682),
    ("S6_big", 0xa1f6b39b0d2a67be, 0x261e24c0138ca6c6),
    ("S10_n1", 0x2340f91951d9d164, 0x665e10cbb7cc5d34),
    ("S10_big", 0x57e8fed1ef5a6b39, 0xe88178f8918989e6),
];

fn hashes() -> Vec<(String, u64, u64)> {
    let mut out = Vec::new();
    for id in PROGRAMS {
        let spec = by_id(id).unwrap();
        let full = generate_region(&spec, 0, 0, WARMUP + REGION);
        let (w, r) = full.instrs.split_at(WARMUP);
        for (name, arch) in archs() {
            let sim = simulate_warmed(w, r, &arch, SimOptions::default());
            let mut hs = Fnv::new();
            for x in [
                sim.instructions,
                sim.cycles,
                sim.d_l1,
                sim.d_l2,
                sim.d_llc,
                sim.d_ram,
            ] {
                hs.u64(x);
            }

            let inorder = simulate_inorder(&full.instrs, arch.mem);
            let mut hi = Fnv::new();
            let s = inorder.stats;
            for x in [
                s.d_l1,
                s.d_l2,
                s.d_llc,
                s.d_ram,
                s.i_l1,
                s.i_l2,
                s.i_llc,
                s.i_ram,
                s.prefetches,
            ] {
                hi.u64(x);
            }
            for l in &inorder.data_levels {
                match l {
                    Some(l) => hi.level(*l),
                    None => hi.u64(u64::MAX),
                }
            }
            for l in &inorder.inst_levels {
                hi.level(*l);
            }
            out.push((format!("{id}_{name}"), hs.0, hi.0));
        }
    }
    out
}

#[test]
fn simulator_labels_match_golden_bitwise() {
    let got = hashes();
    let got: Vec<(&str, u64, u64)> = got.iter().map(|(t, a, b)| (t.as_str(), *a, *b)).collect();
    assert_eq!(got, GOLDEN, "simulator labels drifted from the golden pin");
}
