//! The 29-program workload suite (paper Table 2 substitute).
//!
//! Each program from the paper's corpus is modelled as a [`WorkloadSpec`]: a
//! statistical description (instruction mix, memory profile, branch profile,
//! code shape, phase schedule) from which [`crate::generate_region`] produces
//! deterministic dynamic traces. The characteristics are matched qualitatively
//! to the paper's program descriptions — e.g. `S1` (505.mcf_r) is a
//! pointer-chasing, cache-sensitive workload, `S4` (541.leela_r) is
//! frontend/branch bound, `O3` (MMU) is a synthetic memory test with extreme
//! CPI — so the suite spans the same behavioural space even though the
//! original proprietary traces are unavailable.

use serde::{Deserialize, Serialize};

/// Workload group from Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadClass {
    /// Google-internal production workloads (P1–P13).
    Proprietary,
    /// Cloud benchmarks (C1–C2).
    Cloud,
    /// Open benchmarks (O1–O4).
    Open,
    /// SPEC CPU2017 rate benchmarks (S1–S10).
    Spec2017,
    /// Real programs ingested at runtime (e.g. executed RISC-V ELF
    /// binaries); never part of the static 29-program catalog.
    Real,
}

/// Instruction-mix weights (need not sum to 1; normalized at use).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpMix {
    /// Integer ALU weight.
    pub alu: f32,
    /// Integer multiply weight.
    pub mul: f32,
    /// Integer divide weight.
    pub div: f32,
    /// FP add weight.
    pub fp_alu: f32,
    /// FP multiply weight.
    pub fp_mul: f32,
    /// FP divide weight.
    pub fp_div: f32,
    /// Load weight.
    pub load: f32,
    /// Store weight.
    pub store: f32,
    /// Nop/move weight.
    pub nop: f32,
}

impl OpMix {
    /// Integer-dominated mix.
    pub fn int_heavy() -> Self {
        OpMix {
            alu: 0.52,
            mul: 0.03,
            div: 0.004,
            fp_alu: 0.0,
            fp_mul: 0.0,
            fp_div: 0.0,
            load: 0.24,
            store: 0.12,
            nop: 0.05,
        }
    }

    /// Floating-point / media mix.
    pub fn fp_heavy() -> Self {
        OpMix {
            alu: 0.22,
            mul: 0.02,
            div: 0.0,
            fp_alu: 0.2,
            fp_mul: 0.22,
            fp_div: 0.01,
            load: 0.2,
            store: 0.1,
            nop: 0.02,
        }
    }

    /// Memory-dominated mix.
    pub fn mem_heavy() -> Self {
        OpMix {
            alu: 0.3,
            mul: 0.01,
            div: 0.0,
            fp_alu: 0.02,
            fp_mul: 0.0,
            fp_div: 0.0,
            load: 0.4,
            store: 0.15,
            nop: 0.02,
        }
    }

    /// Store-leaning mix (logging / disk style).
    pub fn store_heavy() -> Self {
        OpMix {
            alu: 0.32,
            mul: 0.01,
            div: 0.0,
            fp_alu: 0.0,
            fp_mul: 0.0,
            fp_div: 0.0,
            load: 0.22,
            store: 0.33,
            nop: 0.03,
        }
    }
}

/// Relative weights over the memory-access pattern families and the working set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemProfile {
    /// Data working-set size in bytes.
    pub wss_bytes: u64,
    /// Weight of streaming (sequential) accesses.
    pub seq_w: f32,
    /// Weight of strided accesses.
    pub strided_w: f32,
    /// Weight of uniform-random accesses.
    pub random_w: f32,
    /// Weight of pointer-chasing accesses.
    pub chase_w: f32,
    /// Weight of hot stack-like accesses (L1-resident).
    pub stack_w: f32,
    /// Byte stride used by strided patterns.
    pub stride_bytes: u64,
}

impl MemProfile {
    /// Streaming profile over `wss` bytes.
    pub fn streaming(wss: u64) -> Self {
        MemProfile {
            wss_bytes: wss,
            seq_w: 0.6,
            strided_w: 0.15,
            random_w: 0.05,
            chase_w: 0.0,
            stack_w: 0.2,
            stride_bytes: 256,
        }
    }

    /// Pointer-chasing profile over `wss` bytes.
    pub fn chasing(wss: u64) -> Self {
        MemProfile {
            wss_bytes: wss,
            seq_w: 0.05,
            strided_w: 0.05,
            random_w: 0.2,
            chase_w: 0.5,
            stack_w: 0.2,
            stride_bytes: 128,
        }
    }

    /// Random-access profile (hash tables, caches) over `wss` bytes.
    pub fn random(wss: u64) -> Self {
        MemProfile {
            wss_bytes: wss,
            seq_w: 0.1,
            strided_w: 0.1,
            random_w: 0.55,
            chase_w: 0.05,
            stack_w: 0.2,
            stride_bytes: 192,
        }
    }

    /// Cache-resident profile: tiny working set, mostly stack hits.
    pub fn resident(wss: u64) -> Self {
        MemProfile {
            wss_bytes: wss,
            seq_w: 0.2,
            strided_w: 0.1,
            random_w: 0.1,
            chase_w: 0.0,
            stack_w: 0.6,
            stride_bytes: 64,
        }
    }
}

/// Branch behaviour profile of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BranchProfile {
    /// Fraction of block terminators that are conditional branches.
    pub cond_frac: f32,
    /// Fraction that are direct unconditional jumps.
    pub uncond_frac: f32,
    /// Fraction that are indirect branches (rest fall through).
    pub indirect_frac: f32,
    /// Weight of strongly biased conditional branches.
    pub biased_w: f32,
    /// Weight of loop back-edges.
    pub loop_w: f32,
    /// Weight of periodic (history-predictable) branches.
    pub periodic_w: f32,
    /// Weight of genuinely random mid-bias branches (hard for any predictor).
    pub random_w: f32,
    /// Mean loop trip count.
    pub avg_trip: u16,
    /// Number of dynamic targets per indirect branch.
    pub indirect_targets: u8,
}

impl BranchProfile {
    /// Highly predictable branches (loops + strong bias).
    pub fn predictable() -> Self {
        BranchProfile {
            cond_frac: 0.55,
            uncond_frac: 0.12,
            indirect_frac: 0.02,
            biased_w: 0.5,
            loop_w: 0.35,
            periodic_w: 0.12,
            random_w: 0.03,
            avg_trip: 24,
            indirect_targets: 2,
        }
    }

    /// Hard-to-predict branches (tree search / data-dependent).
    pub fn unpredictable() -> Self {
        BranchProfile {
            cond_frac: 0.62,
            uncond_frac: 0.08,
            indirect_frac: 0.04,
            biased_w: 0.25,
            loop_w: 0.12,
            periodic_w: 0.13,
            random_w: 0.5,
            avg_trip: 8,
            indirect_targets: 6,
        }
    }

    /// Typical mixed behaviour.
    pub fn mixed() -> Self {
        BranchProfile {
            cond_frac: 0.55,
            uncond_frac: 0.12,
            indirect_frac: 0.05,
            biased_w: 0.42,
            loop_w: 0.25,
            periodic_w: 0.18,
            random_w: 0.15,
            avg_trip: 12,
            indirect_targets: 4,
        }
    }
}

/// Static code shape (footprint drives the frontend/I-cache behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CodeShape {
    /// Number of basic blocks in the static program.
    pub n_blocks: u32,
    /// Mean straight-line ops per block.
    pub avg_block_len: u32,
    /// Base address of the text segment.
    pub code_base: u64,
}

impl CodeShape {
    /// Tiny kernel (fits trivially in L1i).
    pub fn kernel() -> Self {
        CodeShape {
            n_blocks: 48,
            avg_block_len: 7,
            code_base: 0x40_0000,
        }
    }

    /// Medium application code.
    pub fn medium() -> Self {
        CodeShape {
            n_blocks: 600,
            avg_block_len: 6,
            code_base: 0x40_0000,
        }
    }

    /// Large, frontend-stressing footprint (search / database binaries).
    pub fn large() -> Self {
        CodeShape {
            n_blocks: 4000,
            avg_block_len: 5,
            code_base: 0x40_0000,
        }
    }
}

/// One execution phase: mix + memory profile active for a span of the trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseSpec {
    /// Instruction mix during this phase.
    pub mix: OpMix,
    /// Memory profile during this phase.
    pub mem: MemProfile,
}

/// Full statistical description of one Table-2 program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Short identifier used in the paper's figures (e.g. `"S1"`).
    pub id: String,
    /// Human-readable name (e.g. `"505.mcf_r"`).
    pub name: String,
    /// Workload group.
    pub class: WorkloadClass,
    /// Base seed; combined with trace/segment indices for determinism.
    pub seed: u64,
    /// Number of distinct traces of this program (Table 2 "Traces", scaled).
    pub n_traces: u32,
    /// Virtual length of each trace in instructions (Table 2 scaled down).
    pub trace_len: u64,
    /// Phase schedule (cycled through the trace).
    pub phases: Vec<PhaseSpec>,
    /// Instructions per phase before switching (in segments of the generator).
    pub phase_len: u64,
    /// Fraction of instructions forced into a serial dependency chain
    /// (controls ILP; 0 = maximally parallel register reuse).
    pub chain_frac: f32,
    /// ISB instructions per 1000 instructions.
    pub isb_per_kinstr: f32,
    /// Branch behaviour.
    pub branch: BranchProfile,
    /// Static code shape.
    pub code: CodeShape,
}

impl WorkloadSpec {
    /// Convenience constructor for single-phase workloads.
    #[allow(clippy::too_many_arguments)]
    pub fn single_phase(
        id: &str,
        name: &str,
        class: WorkloadClass,
        seed: u64,
        n_traces: u32,
        trace_len: u64,
        mix: OpMix,
        mem: MemProfile,
        branch: BranchProfile,
        code: CodeShape,
    ) -> Self {
        WorkloadSpec {
            id: id.to_string(),
            name: name.to_string(),
            class,
            seed,
            n_traces,
            trace_len,
            phases: vec![PhaseSpec { mix, mem }],
            phase_len: 1 << 16,
            chain_frac: 0.1,
            isb_per_kinstr: 0.0,
            branch,
            code,
        }
    }
}

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;

/// Builds the full 29-program suite mirroring paper Table 2.
///
/// Entries are ordered P1–P13, C1–C2, O1–O4, S1–S10. Trace counts and lengths
/// are scaled down from the paper (see the README, "Reproducing the paper")
/// but preserve relative magnitudes.
///
/// # Examples
///
/// ```
/// let suite = concorde_trace::suite();
/// assert_eq!(suite.len(), 29);
/// assert!(suite.iter().any(|w| w.id == "S1"));
/// ```
pub fn suite() -> Vec<WorkloadSpec> {
    let mut v = Vec::with_capacity(29);
    let s = WorkloadSpec::single_phase;

    // ---- Proprietary (P1..P13) ----
    v.push(s(
        "P1",
        "Compression",
        WorkloadClass::Proprietary,
        101,
        4,
        2 << 20,
        OpMix::int_heavy(),
        MemProfile::streaming(8 * MB),
        BranchProfile::mixed(),
        CodeShape::medium(),
    ));
    v.push(s(
        "P2",
        "Search1",
        WorkloadClass::Proprietary,
        102,
        12,
        4 << 20,
        OpMix::int_heavy(),
        MemProfile::random(24 * MB),
        BranchProfile::mixed(),
        CodeShape::large(),
    ));
    v.push(s(
        "P3",
        "Search4",
        WorkloadClass::Proprietary,
        103,
        12,
        4 << 20,
        OpMix::int_heavy(),
        MemProfile::random(16 * MB),
        BranchProfile::mixed(),
        CodeShape::large(),
    ));
    v.push(s(
        "P4",
        "Disk",
        WorkloadClass::Proprietary,
        104,
        12,
        4 << 20,
        OpMix::store_heavy(),
        MemProfile::streaming(32 * MB),
        BranchProfile::predictable(),
        CodeShape::medium(),
    ));
    v.push(s(
        "P5",
        "Video",
        WorkloadClass::Proprietary,
        105,
        16,
        4 << 20,
        OpMix::fp_heavy(),
        MemProfile::streaming(12 * MB),
        BranchProfile::predictable(),
        CodeShape::medium(),
    ));
    v.push(s(
        "P6",
        "NoSQL Database1",
        WorkloadClass::Proprietary,
        106,
        12,
        4 << 20,
        OpMix::mem_heavy(),
        MemProfile::chasing(24 * MB),
        BranchProfile::mixed(),
        CodeShape::large(),
    ));
    v.push(s(
        "P7",
        "Search2",
        WorkloadClass::Proprietary,
        107,
        8,
        6 << 20,
        OpMix::int_heavy(),
        MemProfile::random(20 * MB),
        BranchProfile::mixed(),
        CodeShape::large(),
    ));
    v.push(s(
        "P8",
        "MapReduce1",
        WorkloadClass::Proprietary,
        108,
        8,
        6 << 20,
        OpMix::int_heavy(),
        MemProfile::streaming(16 * MB),
        BranchProfile::mixed(),
        CodeShape::medium(),
    ));
    // P9 (Search3) carries an explicit two-phase schedule: a compute phase and a
    // cache-hostile phase. Figure 17 zooms into exactly this phase behaviour.
    let mut p9 = s(
        "P9",
        "Search3",
        WorkloadClass::Proprietary,
        109,
        24,
        6 << 20,
        OpMix::int_heavy(),
        MemProfile::random(8 * MB),
        BranchProfile::mixed(),
        CodeShape::large(),
    );
    p9.phases = vec![
        PhaseSpec {
            mix: OpMix::int_heavy(),
            mem: MemProfile::resident(96 * KB),
        },
        PhaseSpec {
            mix: OpMix::mem_heavy(),
            mem: MemProfile::chasing(24 * MB),
        },
        PhaseSpec {
            mix: OpMix::int_heavy(),
            mem: MemProfile::random(4 * MB),
        },
    ];
    p9.phase_len = 1 << 15;
    v.push(p9);
    v.push(s(
        "P10",
        "Logs",
        WorkloadClass::Proprietary,
        110,
        12,
        8 << 20,
        OpMix::store_heavy(),
        MemProfile::streaming(24 * MB),
        BranchProfile::mixed(),
        CodeShape::medium(),
    ));
    v.push(s(
        "P11",
        "NoSQL Database2",
        WorkloadClass::Proprietary,
        111,
        8,
        8 << 20,
        OpMix::mem_heavy(),
        MemProfile::chasing(48 * MB),
        BranchProfile::mixed(),
        CodeShape::large(),
    ));
    let mut p12 = s(
        "P12",
        "MapReduce2",
        WorkloadClass::Proprietary,
        112,
        8,
        8 << 20,
        OpMix::int_heavy(),
        MemProfile::random(32 * MB),
        BranchProfile::unpredictable(),
        CodeShape::medium(),
    );
    p12.chain_frac = 0.2;
    v.push(p12);
    v.push(s(
        "P13",
        "Query Engine&Database",
        WorkloadClass::Proprietary,
        113,
        32,
        8 << 20,
        OpMix::mem_heavy(),
        MemProfile::random(40 * MB),
        BranchProfile::mixed(),
        CodeShape::large(),
    ));

    // ---- Cloud (C1..C2) ----
    v.push(s(
        "C1",
        "Memcached",
        WorkloadClass::Cloud,
        201,
        4,
        2 << 20,
        OpMix::mem_heavy(),
        MemProfile::random(32 * MB),
        BranchProfile::mixed(),
        CodeShape::large(),
    ));
    let mut c2 = s(
        "C2",
        "MySQL",
        WorkloadClass::Cloud,
        202,
        8,
        4 << 20,
        OpMix::int_heavy(),
        MemProfile::chasing(16 * MB),
        BranchProfile::mixed(),
        CodeShape::large(),
    );
    c2.isb_per_kinstr = 0.05;
    v.push(c2);

    // ---- Open (O1..O4) ----
    v.push(s(
        "O1",
        "Dhrystone",
        WorkloadClass::Open,
        301,
        1,
        1 << 20,
        OpMix::int_heavy(),
        MemProfile::resident(32 * KB),
        BranchProfile::predictable(),
        CodeShape::kernel(),
    ));
    v.push(s(
        "O2",
        "CoreMark",
        WorkloadClass::Open,
        302,
        1,
        1 << 20,
        OpMix::int_heavy(),
        MemProfile::resident(64 * KB),
        BranchProfile::predictable(),
        CodeShape::kernel(),
    ));
    // O3 is a synthetic MMU/memory test: essentially pure dependent misses, by far
    // the highest CPI of the suite (called out in §5.2.5 as an OOD outlier).
    let mut o3 = s(
        "O3",
        "MMU",
        WorkloadClass::Open,
        303,
        8,
        2 << 20,
        OpMix::mem_heavy(),
        MemProfile::chasing(96 * MB),
        BranchProfile::predictable(),
        CodeShape::kernel(),
    );
    o3.chain_frac = 0.6;
    v.push(o3);
    // O4 stresses execution units with serial chains and divides.
    let mut o4 = s(
        "O4",
        "CPUtest",
        WorkloadClass::Open,
        304,
        8,
        4 << 20,
        OpMix {
            alu: 0.4,
            mul: 0.12,
            div: 0.06,
            fp_alu: 0.08,
            fp_mul: 0.06,
            fp_div: 0.03,
            load: 0.12,
            store: 0.06,
            nop: 0.02,
        },
        MemProfile::resident(48 * KB),
        BranchProfile::predictable(),
        CodeShape::kernel(),
    );
    o4.chain_frac = 0.5;
    o4.isb_per_kinstr = 0.2;
    v.push(o4);

    // ---- SPEC2017 (S1..S10) ----
    v.push(s(
        "S1",
        "505.mcf_r",
        WorkloadClass::Spec2017,
        401,
        4,
        8 << 20,
        OpMix::mem_heavy(),
        MemProfile::chasing(64 * MB),
        BranchProfile::mixed(),
        CodeShape::kernel(),
    ));
    v.push(s(
        "S2",
        "520.omnetpp_r",
        WorkloadClass::Spec2017,
        402,
        4,
        8 << 20,
        OpMix::int_heavy(),
        MemProfile::chasing(24 * MB),
        BranchProfile::mixed(),
        CodeShape::large(),
    ));
    v.push(s(
        "S3",
        "523.xalancbmk_r",
        WorkloadClass::Spec2017,
        403,
        4,
        8 << 20,
        OpMix::int_heavy(),
        MemProfile::random(12 * MB),
        BranchProfile::mixed(),
        CodeShape::large(),
    ));
    v.push(s(
        "S4",
        "541.leela_r",
        WorkloadClass::Spec2017,
        404,
        4,
        8 << 20,
        OpMix::int_heavy(),
        MemProfile::resident(128 * KB),
        BranchProfile::unpredictable(),
        CodeShape::medium(),
    ));
    v.push(s(
        "S5",
        "548.exchange2_r",
        WorkloadClass::Spec2017,
        405,
        4,
        8 << 20,
        OpMix::int_heavy(),
        MemProfile::resident(256 * KB),
        BranchProfile::predictable(),
        CodeShape::medium(),
    ));
    v.push(s(
        "S6",
        "531.deepsjeng_r",
        WorkloadClass::Spec2017,
        406,
        4,
        8 << 20,
        OpMix::int_heavy(),
        MemProfile::random(2 * MB),
        BranchProfile::unpredictable(),
        CodeShape::medium(),
    ));
    let mut s7 = s(
        "S7",
        "557.xz_r",
        WorkloadClass::Spec2017,
        407,
        6,
        8 << 20,
        OpMix::int_heavy(),
        MemProfile::random(16 * MB),
        BranchProfile::mixed(),
        CodeShape::medium(),
    );
    s7.chain_frac = 0.3;
    v.push(s7);
    v.push(s(
        "S8",
        "500.perlbench_r",
        WorkloadClass::Spec2017,
        408,
        6,
        8 << 20,
        OpMix::int_heavy(),
        MemProfile::random(4 * MB),
        BranchProfile::mixed(),
        CodeShape::large(),
    ));
    v.push(s(
        "S9",
        "525.x264_r",
        WorkloadClass::Spec2017,
        409,
        6,
        8 << 20,
        OpMix::fp_heavy(),
        MemProfile::streaming(8 * MB),
        BranchProfile::predictable(),
        CodeShape::medium(),
    ));
    v.push(s(
        "S10",
        "502.gcc_r",
        WorkloadClass::Spec2017,
        410,
        10,
        8 << 20,
        OpMix::int_heavy(),
        MemProfile::random(24 * MB),
        BranchProfile::mixed(),
        CodeShape::large(),
    ));

    v
}

/// The suite catalog, built once and cached for the lifetime of the
/// process. The serving hot path validates every request's workload against
/// the catalog, so lookups must not rebuild 29 specs' worth of `String`s
/// per request — borrow from here instead.
pub fn suite_cached() -> &'static [WorkloadSpec] {
    static SUITE: std::sync::OnceLock<Vec<WorkloadSpec>> = std::sync::OnceLock::new();
    SUITE.get_or_init(suite)
}

/// Looks up a suite workload by its short id (e.g. `"S1"`), borrowing from
/// the cached catalog — the allocation-free lookup the serving warm path
/// uses.
pub fn by_id_ref(id: &str) -> Option<&'static WorkloadSpec> {
    suite_cached().iter().find(|w| w.id == id)
}

/// Looks up a suite workload by its short id (e.g. `"S1"`), cloning the
/// spec. Prefer [`by_id_ref`] anywhere allocation or lookup cost matters.
pub fn by_id(id: &str) -> Option<WorkloadSpec> {
    by_id_ref(id).cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn suite_has_29_unique_programs() {
        let s = suite();
        assert_eq!(s.len(), 29);
        let ids: HashSet<_> = s.iter().map(|w| w.id.clone()).collect();
        assert_eq!(ids.len(), 29);
        let seeds: HashSet<_> = s.iter().map(|w| w.seed).collect();
        assert_eq!(
            seeds.len(),
            29,
            "seeds must be unique for trace independence"
        );
    }

    #[test]
    fn suite_covers_all_classes() {
        let s = suite();
        for class in [
            WorkloadClass::Proprietary,
            WorkloadClass::Cloud,
            WorkloadClass::Open,
            WorkloadClass::Spec2017,
        ] {
            assert!(s.iter().any(|w| w.class == class));
        }
        assert_eq!(
            s.iter()
                .filter(|w| w.class == WorkloadClass::Proprietary)
                .count(),
            13
        );
        assert_eq!(
            s.iter()
                .filter(|w| w.class == WorkloadClass::Spec2017)
                .count(),
            10
        );
    }

    #[test]
    fn specs_are_well_formed() {
        for w in suite() {
            assert!(!w.phases.is_empty(), "{}: no phases", w.id);
            assert!(w.n_traces >= 1 && w.trace_len > 0);
            assert!(w.code.n_blocks >= 2 && w.code.avg_block_len >= 1);
            assert!((0.0..=1.0).contains(&w.chain_frac));
            let b = w.branch;
            assert!(b.cond_frac + b.uncond_frac + b.indirect_frac <= 1.0 + 1e-5);
            for p in &w.phases {
                let m = p.mix;
                let total = m.alu
                    + m.mul
                    + m.div
                    + m.fp_alu
                    + m.fp_mul
                    + m.fp_div
                    + m.load
                    + m.store
                    + m.nop;
                assert!(total > 0.0, "{}: empty mix", w.id);
                assert!(p.mem.wss_bytes >= 1024);
            }
        }
    }

    #[test]
    fn by_id_finds_and_misses() {
        assert_eq!(by_id("S1").unwrap().name, "505.mcf_r");
        assert!(by_id("ZZ").is_none());
    }

    #[test]
    fn p9_has_phase_behaviour() {
        let p9 = by_id("P9").unwrap();
        assert!(p9.phases.len() >= 2, "P9 drives the Figure 17 phase study");
    }
}
