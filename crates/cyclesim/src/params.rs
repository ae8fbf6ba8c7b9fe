//! The 20-parameter microarchitectural design space (paper Table 1).

use concorde_branch::PredictorKind;
use concorde_cache::{MemConfig, L1_SIZES_KB, L2_SIZES_KB, PREFETCH_DEGREES};
use rand::Rng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

/// A full microarchitecture specification: every Table 1 parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MicroArch {
    /// Reorder buffer size (1..=1024).
    pub rob_size: u32,
    /// Commit width (1..=12).
    pub commit_width: u32,
    /// Load queue size (1..=256).
    pub lq_size: u32,
    /// Store queue size (1..=256).
    pub sq_size: u32,
    /// Integer ALU issue width (1..=8).
    pub alu_width: u32,
    /// Floating-point issue width (1..=8).
    pub fp_width: u32,
    /// Load-store issue width (1..=8).
    pub ls_width: u32,
    /// Number of load-store pipes (1..=8).
    pub ls_pipes: u32,
    /// Number of load-only pipes (0..=8).
    pub load_pipes: u32,
    /// Fetch width (1..=12).
    pub fetch_width: u32,
    /// Decode width (1..=12).
    pub decode_width: u32,
    /// Rename width (1..=12).
    pub rename_width: u32,
    /// Number of fetch buffers (1..=8), each one cache line deep.
    pub fetch_buffers: u32,
    /// Maximum outstanding I-cache fills (1..=32).
    pub max_icache_fills: u32,
    /// Branch predictor (Simple with a misprediction %, or TAGE).
    pub predictor: PredictorKind,
    /// Memory parameters (L1i/L1d/L2 sizes, L1d prefetcher degree).
    pub mem: MemConfig,
}

impl Default for MicroArch {
    fn default() -> Self {
        Self::arm_n1()
    }
}

impl MicroArch {
    /// The ARM Neoverse N1-based configuration from Table 1's last column.
    pub fn arm_n1() -> Self {
        MicroArch {
            rob_size: 128,
            commit_width: 8,
            lq_size: 12,
            sq_size: 18,
            alu_width: 3,
            fp_width: 2,
            ls_width: 2,
            ls_pipes: 2,
            load_pipes: 0,
            fetch_width: 4,
            decode_width: 4,
            rename_width: 4,
            fetch_buffers: 1,
            max_icache_fills: 8,
            predictor: PredictorKind::Tage,
            mem: MemConfig {
                l1i_kb: 64,
                l1d_kb: 64,
                l2_kb: 1024,
                prefetch_degree: 0,
            },
        }
    }

    /// The "big core" baseline of §6: every parameter at its Table 1 maximum
    /// and perfect branch prediction (`Simple` with 0% mispredictions).
    pub fn big_core() -> Self {
        MicroArch {
            rob_size: 1024,
            commit_width: 12,
            lq_size: 256,
            sq_size: 256,
            alu_width: 8,
            fp_width: 8,
            ls_width: 8,
            ls_pipes: 8,
            load_pipes: 8,
            fetch_width: 12,
            decode_width: 12,
            rename_width: 12,
            fetch_buffers: 8,
            max_icache_fills: 32,
            predictor: PredictorKind::Simple { miss_pct: 0 },
            mem: MemConfig {
                l1i_kb: 256,
                l1d_kb: 256,
                l2_kb: 4096,
                prefetch_degree: 4,
            },
        }
    }

    /// Samples a microarchitecture uniformly from Table 1 (paper §4: every
    /// parameter drawn independently from its value range).
    pub fn sample(rng: &mut ChaCha12Rng) -> Self {
        let predictor = if rng.gen_bool(0.5) {
            PredictorKind::Tage
        } else {
            PredictorKind::Simple {
                miss_pct: rng.gen_range(0..=100),
            }
        };
        MicroArch {
            rob_size: rng.gen_range(1..=1024),
            commit_width: rng.gen_range(1..=12),
            lq_size: rng.gen_range(1..=256),
            sq_size: rng.gen_range(1..=256),
            alu_width: rng.gen_range(1..=8),
            fp_width: rng.gen_range(1..=8),
            ls_width: rng.gen_range(1..=8),
            ls_pipes: rng.gen_range(1..=8),
            load_pipes: rng.gen_range(0..=8),
            fetch_width: rng.gen_range(1..=12),
            decode_width: rng.gen_range(1..=12),
            rename_width: rng.gen_range(1..=12),
            fetch_buffers: rng.gen_range(1..=8),
            max_icache_fills: rng.gen_range(1..=32),
            predictor,
            mem: MemConfig {
                l1i_kb: L1_SIZES_KB[rng.gen_range(0..L1_SIZES_KB.len())],
                l1d_kb: L1_SIZES_KB[rng.gen_range(0..L1_SIZES_KB.len())],
                l2_kb: L2_SIZES_KB[rng.gen_range(0..L2_SIZES_KB.len())],
                prefetch_degree: PREFETCH_DEGREES[rng.gen_range(0..PREFETCH_DEGREES.len())],
            },
        }
    }

    /// Encodes the microarchitecture as the ML model's 23-dimensional
    /// parameter vector (paper Table 3, last column): 19 normalized scalars
    /// plus one-hot pairs for predictor type and prefetcher state.
    pub fn encode(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; Self::ENCODED_DIM];
        self.encode_into(&mut out);
        out
    }

    /// [`MicroArch::encode`] into a caller-owned buffer — the zero-allocation
    /// path used by feature assembly.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != Self::ENCODED_DIM`.
    pub fn encode_into(&self, out: &mut [f32]) {
        let norm = |v: u32, max: u32| v as f32 / max as f32;
        let (simple, simple_pct) = match self.predictor {
            PredictorKind::Simple { miss_pct } => (1.0, f32::from(miss_pct) / 100.0),
            PredictorKind::Tage => (0.0, 0.0),
        };
        let vals = [
            norm(self.rob_size, 1024),
            norm(self.commit_width, 12),
            norm(self.lq_size, 256),
            norm(self.sq_size, 256),
            norm(self.alu_width, 8),
            norm(self.fp_width, 8),
            norm(self.ls_width, 8),
            norm(self.ls_pipes, 8),
            norm(self.load_pipes, 8),
            norm(self.fetch_width, 12),
            norm(self.decode_width, 12),
            norm(self.rename_width, 12),
            norm(self.fetch_buffers, 8),
            norm(self.max_icache_fills, 32),
            simple_pct,
            norm(self.mem.l1d_kb, 256),
            norm(self.mem.l1i_kb, 256),
            norm(self.mem.l2_kb, 4096),
            norm(self.mem.prefetch_degree, 4),
            // One-hot: predictor type.
            simple,
            1.0 - simple,
            // One-hot: prefetcher state.
            if self.mem.prefetch_degree > 0 {
                1.0
            } else {
                0.0
            },
            if self.mem.prefetch_degree > 0 {
                0.0
            } else {
                1.0
            },
        ];
        out.copy_from_slice(&vals);
    }

    /// Dimension of [`MicroArch::encode`]'s output.
    pub const ENCODED_DIM: usize = 23;
}

/// Identifier for each of the 20 Table 1 parameters; used by sweeps and
/// Shapley attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum ParamId {
    RobSize,
    CommitWidth,
    LqSize,
    SqSize,
    AluWidth,
    FpWidth,
    LsWidth,
    LsPipes,
    LoadPipes,
    FetchWidth,
    DecodeWidth,
    RenameWidth,
    FetchBuffers,
    MaxIcacheFills,
    BranchPredictor,
    SimpleBpPct,
    L1dKb,
    L1iKb,
    L2Kb,
    PrefetchDegree,
}

impl ParamId {
    /// All 20 parameters in Table 1 order.
    pub const ALL: [ParamId; 20] = [
        ParamId::RobSize,
        ParamId::CommitWidth,
        ParamId::LqSize,
        ParamId::SqSize,
        ParamId::AluWidth,
        ParamId::FpWidth,
        ParamId::LsWidth,
        ParamId::LsPipes,
        ParamId::LoadPipes,
        ParamId::FetchWidth,
        ParamId::DecodeWidth,
        ParamId::RenameWidth,
        ParamId::FetchBuffers,
        ParamId::MaxIcacheFills,
        ParamId::BranchPredictor,
        ParamId::SimpleBpPct,
        ParamId::L1dKb,
        ParamId::L1iKb,
        ParamId::L2Kb,
        ParamId::PrefetchDegree,
    ];

    /// Number of discrete values this parameter can take (Table 1).
    pub fn cardinality(self) -> u64 {
        match self {
            ParamId::RobSize => 1024,
            ParamId::CommitWidth => 12,
            ParamId::LqSize | ParamId::SqSize => 256,
            ParamId::AluWidth | ParamId::FpWidth | ParamId::LsWidth | ParamId::LsPipes => 8,
            ParamId::LoadPipes => 9,
            ParamId::FetchWidth | ParamId::DecodeWidth | ParamId::RenameWidth => 12,
            ParamId::FetchBuffers => 8,
            ParamId::MaxIcacheFills => 32,
            ParamId::BranchPredictor => 2,
            ParamId::SimpleBpPct => 101,
            ParamId::L1dKb | ParamId::L1iKb => 5,
            ParamId::L2Kb => 4,
            ParamId::PrefetchDegree => 2,
        }
    }

    /// Copies parameter `self` from `src` into `dst` (the ablation/Shapley
    /// primitive: move one coordinate from a baseline to a target design).
    pub fn transplant(self, dst: &mut MicroArch, src: &MicroArch) {
        match self {
            ParamId::RobSize => dst.rob_size = src.rob_size,
            ParamId::CommitWidth => dst.commit_width = src.commit_width,
            ParamId::LqSize => dst.lq_size = src.lq_size,
            ParamId::SqSize => dst.sq_size = src.sq_size,
            ParamId::AluWidth => dst.alu_width = src.alu_width,
            ParamId::FpWidth => dst.fp_width = src.fp_width,
            ParamId::LsWidth => dst.ls_width = src.ls_width,
            ParamId::LsPipes => dst.ls_pipes = src.ls_pipes,
            ParamId::LoadPipes => dst.load_pipes = src.load_pipes,
            ParamId::FetchWidth => dst.fetch_width = src.fetch_width,
            ParamId::DecodeWidth => dst.decode_width = src.decode_width,
            ParamId::RenameWidth => dst.rename_width = src.rename_width,
            ParamId::FetchBuffers => dst.fetch_buffers = src.fetch_buffers,
            ParamId::MaxIcacheFills => dst.max_icache_fills = src.max_icache_fills,
            ParamId::BranchPredictor | ParamId::SimpleBpPct => dst.predictor = src.predictor,
            ParamId::L1dKb => dst.mem.l1d_kb = src.mem.l1d_kb,
            ParamId::L1iKb => dst.mem.l1i_kb = src.mem.l1i_kb,
            ParamId::L2Kb => dst.mem.l2_kb = src.mem.l2_kb,
            ParamId::PrefetchDegree => dst.mem.prefetch_degree = src.mem.prefetch_degree,
        }
    }

    /// Short display name matching Figure 16's legend.
    pub fn label(self) -> &'static str {
        match self {
            ParamId::RobSize => "ROB",
            ParamId::CommitWidth => "Commit width",
            ParamId::LqSize => "Load queue",
            ParamId::SqSize => "Store queue",
            ParamId::AluWidth => "ALU issue width",
            ParamId::FpWidth => "FP issue width",
            ParamId::LsWidth => "LS issue width",
            ParamId::LsPipes => "Load-store pipes",
            ParamId::LoadPipes => "Load pipes",
            ParamId::FetchWidth => "Fetch width",
            ParamId::DecodeWidth => "Decode width",
            ParamId::RenameWidth => "Rename width",
            ParamId::FetchBuffers => "Fetch buffers",
            ParamId::MaxIcacheFills => "Max icache fills",
            ParamId::BranchPredictor => "Branch predictor",
            ParamId::SimpleBpPct => "Simple BP %",
            ParamId::L1dKb => "L1d cache",
            ParamId::L1iKb => "L1i cache",
            ParamId::L2Kb => "L2 cache",
            ParamId::PrefetchDegree => "L1d prefetcher",
        }
    }
}

/// Size of the full design space (product of Table 1 cardinalities, counting
/// the branch predictor as TAGE + 101 Simple settings — the paper's
/// ~2.2 × 10²³).
pub fn design_space_size() -> f64 {
    let mut size = 1.0f64;
    for p in ParamId::ALL {
        match p {
            // TAGE plus the 101 Simple misprediction settings.
            ParamId::BranchPredictor => size *= 102.0,
            ParamId::SimpleBpPct => {}
            other => size *= other.cardinality() as f64,
        }
    }
    size
}

/// Size of the power-of-two-quantized space from §5.2.3 (ROB, LQ, SQ swept in
/// powers of two — the paper's ~1.8 × 10¹⁸).
pub fn quantized_space_size() -> f64 {
    design_space_size() / (1024.0 * 256.0 * 256.0) * (11.0 * 9.0 * 9.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn arm_n1_matches_table1_column() {
        let a = MicroArch::arm_n1();
        assert_eq!(a.rob_size, 128);
        assert_eq!(a.commit_width, 8);
        assert_eq!(a.lq_size, 12);
        assert_eq!(a.sq_size, 18);
        assert_eq!(a.alu_width, 3);
        assert_eq!(a.load_pipes, 0);
        assert_eq!(a.predictor, PredictorKind::Tage);
        assert_eq!(a.mem.l2_kb, 1024);
        assert_eq!(a.mem.prefetch_degree, 0);
    }

    #[test]
    fn sampling_stays_in_ranges() {
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        for _ in 0..500 {
            let a = MicroArch::sample(&mut rng);
            assert!((1..=1024).contains(&a.rob_size));
            assert!((1..=12).contains(&a.commit_width));
            assert!((1..=256).contains(&a.lq_size));
            assert!((1..=8).contains(&a.ls_pipes));
            assert!(a.load_pipes <= 8);
            assert!(L1_SIZES_KB.contains(&a.mem.l1d_kb));
            assert!(L2_SIZES_KB.contains(&a.mem.l2_kb));
            if let PredictorKind::Simple { miss_pct } = a.predictor {
                assert!(miss_pct <= 100);
            }
        }
    }

    #[test]
    fn encoding_dim_and_range() {
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        for _ in 0..50 {
            let a = MicroArch::sample(&mut rng);
            let e = a.encode();
            assert_eq!(e.len(), MicroArch::ENCODED_DIM);
            for v in &e {
                assert!((0.0..=1.0).contains(v), "out of range: {v}");
            }
        }
    }

    #[test]
    fn design_space_matches_paper_magnitude() {
        let full = design_space_size();
        assert!(full > 1e23 && full < 4e23, "full space {full:e}");
        let quant = quantized_space_size();
        assert!(quant > 5e17 && quant < 5e18, "quantized space {quant:e}");
    }

    #[test]
    fn transplant_moves_single_coordinates() {
        let base = MicroArch::big_core();
        let target = MicroArch::arm_n1();
        let mut cur = base;
        ParamId::RobSize.transplant(&mut cur, &target);
        assert_eq!(cur.rob_size, 128);
        assert_eq!(cur.lq_size, 256, "other params untouched");
        for p in ParamId::ALL {
            p.transplant(&mut cur, &target);
        }
        assert_eq!(cur, target, "transplanting all params reaches the target");
    }

    #[test]
    fn encode_distinguishes_predictors() {
        let mut a = MicroArch::arm_n1();
        let e_tage = a.encode();
        a.predictor = PredictorKind::Simple { miss_pct: 40 };
        let e_simple = a.encode();
        assert_ne!(e_tage, e_simple);
    }
}
