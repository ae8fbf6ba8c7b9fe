//! Golden pin for the synthetic traces.
//!
//! Every label and every feature starts from `generate_region`, and the
//! static CFG it walks comes from `build_static_program`; both draw all their
//! randomness from the ChaCha12 shim. The FNV-1a hashes below pin, bitwise,
//! for all 29 suite programs:
//!
//! * a quick-profile warm-up + region (4096 + 4096 instructions) of trace 2,
//!   starting mid-segment in the middle of the trace, so the segment
//!   re-seeding, the skip of a partial first segment and a non-zero trace
//!   index are all covered;
//! * the block, op and terminator stream of trace 2's static program.
//!
//! A change to the RNG, the range sampling or the walker that moves a single
//! instruction or static op shows up here.

use concorde_suite::prelude::*;
use concorde_suite::trace::{
    build_static_program, BranchBehavior, StaticProgram, Terminator, SEGMENT_LEN,
};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn reg(&mut self, r: Option<u8>) {
        self.u64(r.map_or(u64::MAX, u64::from));
    }

    fn op(&mut self, op: OpClass) {
        self.bytes(format!("{op:?}").as_bytes());
    }
}

const TRACE_IDX: u32 = 2;
/// Five segments in, plus an offset inside the segment.
const START: u64 = 5 * SEGMENT_LEN + 1_000;
const LEN: usize = 4_096 + 4_096;

/// `program → (generate_region hash, build_static_program hash)`.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("P1", 0xf2e79f9147e56628, 0x2e256c5d2fce894f),
    ("P2", 0xdedc4e532c169040, 0x69eb19d8fb3bb3f8),
    ("P3", 0x63e051298da1de00, 0xe4607ff4e81928df),
    ("P4", 0xf1f487be32832fb0, 0xa48c8cf99b8a12ba),
    ("P5", 0x9f3ee199adb95604, 0x5c21765237045664),
    ("P6", 0x340c48e670263891, 0x77c4e0f346a7fcd9),
    ("P7", 0x1b470b32cff14da2, 0xae07ae22f286de6c),
    ("P8", 0x4b79056fc12c801e, 0xd24fdbb4d53de9b2),
    ("P9", 0xf37b68a7aaea6458, 0x3cdbf7da57c779ae),
    ("P10", 0x560a0b947d246ef8, 0x930576da6e1075a6),
    ("P11", 0x548a6dc7e7c0c737, 0xa974690719beee38),
    ("P12", 0x5927ece262743a88, 0xf30d596e07169f3c),
    ("P13", 0x4cf8741c7768bee0, 0x9e40889c2a8ba343),
    ("C1", 0x26bf7756892f208b, 0xe7783bf426ba073a),
    ("C2", 0xce4a7e828b1838a0, 0x61750c745021f0e0),
    ("O1", 0xfa4873971776a767, 0xbe57521dd37d0016),
    ("O2", 0xb28319c84a91f0b1, 0xf3010248af6e0b9c),
    ("O3", 0xabe6f6c54935fc3a, 0x0325d3a5f29af6d4),
    ("O4", 0xc2206a59c63da5d4, 0x1fddbf48c33a1d13),
    ("S1", 0xa21defa24b946806, 0xba6f19d6c6a522d7),
    ("S2", 0x50d1b8e1829b660f, 0x32f0f505386284eb),
    ("S3", 0x3093a2c208d7ca9b, 0x7e9a989b5369edbb),
    ("S4", 0x61204a949ac539f5, 0x88b121e611120867),
    ("S5", 0x9c1fbaf6e6be1e47, 0xc974b12a0ce9d4a3),
    ("S6", 0xdc0f576719c919c1, 0xb143b7d07e106c9c),
    ("S7", 0xc80aaecfb3c85636, 0x016efc6c33251f80),
    ("S8", 0x05d4f0f5ff59a79f, 0x69f1f42f04c95805),
    ("S9", 0x96870d4c85efcf69, 0xf8d0805daf49d277),
    ("S10", 0x74fe03fe480e2738, 0x07ae631653b470d0),
];

fn region_hash(spec: &WorkloadSpec) -> u64 {
    let t = generate_region(spec, TRACE_IDX, START, LEN);
    assert_eq!(t.instrs.len(), LEN);
    let mut h = Fnv::new();
    for i in &t.instrs {
        h.u64(i.pc);
        h.op(i.op);
        h.reg(i.srcs[0]);
        h.reg(i.srcs[1]);
        h.reg(i.dst);
        h.u64(i.mem_addr);
        h.u64(u64::from(i.taken));
        h.u64(i.target);
    }
    h.0
}

fn behavior(h: &mut Fnv, b: BranchBehavior) {
    match b {
        BranchBehavior::Biased { taken_prob } => {
            h.u64(0);
            h.u64(u64::from(taken_prob.to_bits()));
        }
        BranchBehavior::Loop { trip } => {
            h.u64(1);
            h.u64(u64::from(trip));
        }
        BranchBehavior::Periodic { pattern, period } => {
            h.u64(2);
            h.u64(u64::from(pattern));
            h.u64(u64::from(period));
        }
    }
}

fn program_hash(p: &StaticProgram) -> u64 {
    let mut h = Fnv::new();
    h.u64(p.code_bytes);
    for &e in &p.phase_entries {
        h.u64(u64::from(e));
    }
    for pat in &p.patterns {
        h.bytes(format!("{pat:?}").as_bytes());
    }
    for b in &p.blocks {
        h.u64(b.base_pc);
        h.u64(u64::from(b.phase));
        h.u64(b.ops.len() as u64);
        for op in &b.ops {
            h.op(op.op);
            h.reg(op.srcs[0]);
            h.reg(op.srcs[1]);
            h.reg(op.dst);
            h.u64(u64::from(op.pattern_idx));
        }
        match &b.terminator {
            Terminator::FallThrough { next } => {
                h.u64(10);
                h.u64(u64::from(*next));
            }
            Terminator::Jump { target } => {
                h.u64(11);
                h.u64(u64::from(*target));
            }
            Terminator::CondBranch {
                behavior: beh,
                target,
                fall,
            } => {
                h.u64(12);
                behavior(&mut h, *beh);
                h.u64(u64::from(*target));
                h.u64(u64::from(*fall));
            }
            Terminator::IndirectBranch { targets } => {
                h.u64(13);
                h.u64(targets.len() as u64);
                for &t in targets {
                    h.u64(u64::from(t));
                }
            }
        }
    }
    h.0
}

#[test]
fn traces_and_static_programs_match_golden() {
    let got: Vec<(String, u64, u64)> = suite()
        .iter()
        .map(|spec| {
            (
                spec.id.clone(),
                region_hash(spec),
                program_hash(&build_static_program(spec, TRACE_IDX)),
            )
        })
        .collect();
    assert_eq!(got.len(), 29, "the suite has 29 programs");
    let mut bad = Vec::new();
    for (id, r, p) in &got {
        let want = GOLDEN.iter().find(|(g, _, _)| g == id);
        if want.map(|&(_, wr, wp)| (wr, wp)) != Some((*r, *p)) {
            bad.push(format!("    (\"{id}\", {r:#018x}, {p:#018x}),"));
        }
    }
    assert!(
        bad.is_empty(),
        "trace hashes moved; current values:\n{}",
        bad.join("\n")
    );
}
