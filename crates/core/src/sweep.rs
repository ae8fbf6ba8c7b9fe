//! Reproduction profiles and parameter sweep grids.
//!
//! [`ReproProfile`] gathers every scaling knob (region length, window size,
//! encoding width, dataset and training sizes) with three presets: the
//! scaled-down default, a paper-faithful configuration, and a tiny profile
//! for tests. [`SweepConfig`] declares which parameter values a
//! [`FeatureStore`](crate::features::FeatureStore) precomputes — the paper's
//! per-parameter sweeps (§2: "Concorde sweeps the range of each CPU
//! parameter... precomputing the feature set"), which can be full,
//! power-of-two quantized (§5.2.3), or restricted to the exact values an
//! experiment visits.

use concorde_analytic::distribution::Encoding;
use concorde_cache::MemConfig;
use concorde_cyclesim::MicroArch;
use serde::{Deserialize, Serialize};

/// All scaling knobs for one reproduction run (see the README, "Reproducing
/// the paper").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReproProfile {
    /// Instructions per analyzed region.
    pub region_len: usize,
    /// Functional warmup instructions preceding each region.
    pub warmup_len: usize,
    /// Throughput window length `k` (paper: 400).
    pub window_k: usize,
    /// Distribution encoding width.
    pub encoding: Encoding,
    /// Training-set size (samples).
    pub train_samples: usize,
    /// Test-set size (samples).
    pub test_samples: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Hidden-layer sizes of the MLP (paper: [256, 128]).
    pub hidden: Vec<usize>,
    /// AdamW base learning rate.
    pub lr: f32,
    /// AdamW weight decay (paper: 0.3 — on the much larger paper dataset;
    /// scaled down for the smaller default dataset).
    pub weight_decay: f32,
    /// Master seed.
    pub seed: u64,
}

impl ReproProfile {
    /// Scaled-down default: full mechanism, minutes-scale runtime.
    pub fn default_repro() -> Self {
        ReproProfile {
            region_len: 24_000,
            warmup_len: 16_000,
            window_k: 256,
            encoding: Encoding::compact(),
            train_samples: 12_000,
            test_samples: 2_400,
            epochs: 40,
            batch_size: 256,
            hidden: vec![256, 128],
            lr: 1e-3,
            weight_decay: 0.01,
            seed: 0xC0C0,
        }
    }

    /// Paper-faithful sizes (§4). Expect hours of CPU time.
    pub fn paper() -> Self {
        ReproProfile {
            region_len: 100_000,
            warmup_len: 100_000,
            window_k: 400,
            encoding: Encoding::paper(),
            train_samples: 789_024,
            test_samples: 48_472,
            epochs: 1521,
            batch_size: 50_000,
            hidden: vec![256, 128],
            lr: 1e-3,
            weight_decay: 0.3,
            seed: 0xC0C0,
        }
    }

    /// Tiny profile for unit/integration tests (seconds).
    pub fn quick() -> Self {
        ReproProfile {
            region_len: 4_096,
            warmup_len: 4_096,
            window_k: 256,
            encoding: Encoding { levels: 8 },
            train_samples: 96,
            test_samples: 24,
            epochs: 12,
            batch_size: 32,
            hidden: vec![64, 32],
            lr: 2e-3,
            weight_decay: 0.01,
            seed: 0xC0C0,
        }
    }
}

/// Power-of-two sweep values for a range `[1, max]`.
pub fn pow2_sweep(max: u32) -> Vec<u32> {
    let mut v = Vec::new();
    let mut x = 1u32;
    while x <= max {
        v.push(x);
        x *= 2;
    }
    v
}

/// Which parameter values a feature store precomputes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// ROB sizes (always unioned with the 11-point aux sweep {1,2,…,1024}).
    pub rob: Vec<u32>,
    /// Load-queue sizes.
    pub lq: Vec<u32>,
    /// Store-queue sizes.
    pub sq: Vec<u32>,
    /// ALU issue widths.
    pub alu: Vec<u32>,
    /// FP issue widths.
    pub fp: Vec<u32>,
    /// Load-store issue widths.
    pub ls: Vec<u32>,
    /// (load-store pipes, load pipes) pairs.
    pub pipes: Vec<(u32, u32)>,
    /// Maximum I-cache fill counts.
    pub fills: Vec<u32>,
    /// Fetch buffer counts.
    pub buffers: Vec<u32>,
    /// D-side memory configurations to analyze.
    pub d_cfgs: Vec<MemConfig>,
    /// I-side memory configurations to analyze.
    pub i_cfgs: Vec<MemConfig>,
}

impl SweepConfig {
    /// The §5.2.3 power-of-two quantized sweep over the full design space
    /// (1.8 × 10¹⁸ reachable combinations).
    pub fn quantized() -> Self {
        SweepConfig {
            rob: pow2_sweep(1024),
            lq: pow2_sweep(256),
            sq: pow2_sweep(256),
            alu: (1..=8).collect(),
            fp: (1..=8).collect(),
            ls: (1..=8).collect(),
            pipes: (1..=8)
                .flat_map(|lsp| (0..=8).map(move |lp| (lsp, lp)))
                .collect(),
            fills: vec![1, 2, 4, 8, 16, 32],
            buffers: (1..=8).collect(),
            d_cfgs: MemConfig::all_data_configs(),
            i_cfgs: MemConfig::all_inst_configs(),
        }
    }

    /// A minimal sweep covering exactly one microarchitecture (used when
    /// labelling training samples: the paper runs the analytical models "for
    /// one (randomly selected) microarchitecture for each program region",
    /// §5.2.4).
    pub fn for_arch(arch: &MicroArch) -> Self {
        SweepConfig {
            rob: vec![arch.rob_size],
            lq: vec![arch.lq_size],
            sq: vec![arch.sq_size],
            alu: vec![arch.alu_width],
            fp: vec![arch.fp_width],
            ls: vec![arch.ls_width],
            pipes: vec![(arch.ls_pipes, arch.load_pipes)],
            fills: vec![arch.max_icache_fills],
            buffers: vec![arch.fetch_buffers],
            d_cfgs: vec![arch.mem],
            i_cfgs: vec![arch.mem],
        }
    }

    /// The union of values visited when moving any subset of parameters from
    /// `base` to `target` — the exact grid Shapley attribution needs.
    pub fn for_pair(base: &MicroArch, target: &MicroArch) -> Self {
        let uniq = |mut v: Vec<u32>| {
            v.sort_unstable();
            v.dedup();
            v
        };
        let mut d_cfgs = Vec::new();
        for &l1d in &[base.mem.l1d_kb, target.mem.l1d_kb] {
            for &l2 in &[base.mem.l2_kb, target.mem.l2_kb] {
                for &pf in &[base.mem.prefetch_degree, target.mem.prefetch_degree] {
                    d_cfgs.push(MemConfig {
                        l1i_kb: 64,
                        l1d_kb: l1d,
                        l2_kb: l2,
                        prefetch_degree: pf,
                    });
                }
            }
        }
        d_cfgs.sort_by_key(|c| c.data_key());
        d_cfgs.dedup_by_key(|c| c.data_key());
        let mut i_cfgs = Vec::new();
        for &l1i in &[base.mem.l1i_kb, target.mem.l1i_kb] {
            for &l2 in &[base.mem.l2_kb, target.mem.l2_kb] {
                i_cfgs.push(MemConfig {
                    l1i_kb: l1i,
                    l1d_kb: 64,
                    l2_kb: l2,
                    prefetch_degree: 0,
                });
            }
        }
        i_cfgs.sort_by_key(|c| c.inst_key());
        i_cfgs.dedup_by_key(|c| c.inst_key());
        SweepConfig {
            rob: uniq(vec![base.rob_size, target.rob_size]),
            lq: uniq(vec![base.lq_size, target.lq_size]),
            sq: uniq(vec![base.sq_size, target.sq_size]),
            alu: uniq(vec![base.alu_width, target.alu_width]),
            fp: uniq(vec![base.fp_width, target.fp_width]),
            ls: uniq(vec![base.ls_width, target.ls_width]),
            pipes: {
                let mut v = vec![
                    (base.ls_pipes, base.load_pipes),
                    (base.ls_pipes, target.load_pipes),
                    (target.ls_pipes, base.load_pipes),
                    (target.ls_pipes, target.load_pipes),
                ];
                v.sort_unstable();
                v.dedup();
                v
            },
            fills: uniq(vec![base.max_icache_fills, target.max_icache_fills]),
            buffers: uniq(vec![base.fetch_buffers, target.fetch_buffers]),
            d_cfgs,
            i_cfgs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_ordered_in_size() {
        let q = ReproProfile::quick();
        let d = ReproProfile::default_repro();
        let p = ReproProfile::paper();
        assert!(q.train_samples < d.train_samples && d.train_samples < p.train_samples);
        assert_eq!(p.window_k, 400);
        assert_eq!(p.encoding.dim(), 101);
    }

    #[test]
    fn pow2_grids() {
        assert_eq!(pow2_sweep(1024).len(), 11);
        assert_eq!(pow2_sweep(256).len(), 9);
        assert_eq!(pow2_sweep(1), vec![1]);
    }

    #[test]
    fn quantized_sweep_matches_paper_counts() {
        let s = SweepConfig::quantized();
        assert_eq!(s.rob.len(), 11);
        assert_eq!(s.lq.len(), 9);
        assert_eq!(s.d_cfgs.len(), 40);
        assert_eq!(s.i_cfgs.len(), 20);
        assert_eq!(s.pipes.len(), 72);
    }

    #[test]
    fn pair_sweep_covers_both_endpoints() {
        let base = MicroArch::big_core();
        let target = MicroArch::arm_n1();
        let s = SweepConfig::for_pair(&base, &target);
        assert!(s.rob.contains(&128) && s.rob.contains(&1024));
        assert!(s.lq.contains(&12) && s.lq.contains(&256));
        assert_eq!(s.d_cfgs.len(), 8, "2 L1d x 2 L2 x 2 prefetch");
        assert_eq!(s.i_cfgs.len(), 4);
        assert_eq!(s.pipes.len(), 4, "(8,8),(8,0),(2,8),(2,0)");
    }

    #[test]
    fn arch_sweep_is_singleton() {
        let a = MicroArch::arm_n1();
        let s = SweepConfig::for_arch(&a);
        assert_eq!(s.rob, vec![128]);
        assert_eq!(s.d_cfgs.len(), 1);
    }
}
