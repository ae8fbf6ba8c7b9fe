//! Direct analytic min-bound estimation, without a feature store.
//!
//! [`FeatureStore::min_bound_cpi`](crate::features::FeatureStore::min_bound_cpi)
//! needs a full precomputed store: every resource's throughput series at
//! every sweep grid point, which is exactly the work a serving cache miss
//! queues on the precompute pool. But the min-bound itself only consults
//! *one* grid point per resource — the queried architecture's — so a caller
//! that only wants the bound (`concorde bound --fast`) can run the analytic
//! models once at that single point instead of over the whole sweep.
//!
//! [`MinBoundEstimator`] does exactly that: one `analyze_static` pass plus
//! one data/instruction cache analysis per distinct memory configuration
//! (memoized across calls), then per architecture one ROB run, two queue
//! runs, three width bounds, one pipe bound, and two frontend runs. For a
//! per-architecture sweep that is ~`|rob ∪ ROB_SWEEP| + |lq| + |sq|` times
//! less model work than the full store build; for the quantized sweep the
//! gap is larger still.
//!
//! The per-window combination is shared with the store path
//! ([`combine_min_bound`]), so for an architecture that sits exactly on a
//! store's grid (e.g. any architecture under `SweepConfig::for_arch`) the
//! estimate is **bitwise identical** to `store.min_bound_cpi(arch)`.

use std::collections::HashMap;

use concorde_analytic::prelude::*;
use concorde_cyclesim::MicroArch;
use concorde_trace::Instruction;

use crate::sweep::ReproProfile;

/// Per-window minimum over the nine per-resource throughput series (and the
/// static width bound), averaged into a CPI — the pink "min bound" line of
/// Figure 12. Series order is fixed: ROB, LQ, SQ, ALU, FP, LS, pipes-upper,
/// I-cache fills, fetch buffers. Shared by the store path and the direct
/// estimator so the two are bitwise comparable.
pub(crate) fn combine_min_bound(series: &[&[f64]; 9], arch: &MicroArch) -> f64 {
    let static_bound = f64::from(
        arch.commit_width
            .min(arch.fetch_width)
            .min(arch.decode_width)
            .min(arch.rename_width),
    );
    let windows = series.iter().map(|s| s.len()).min().unwrap_or(0);
    if windows == 0 {
        return 1.0;
    }
    let mut cpi_sum = 0.0;
    for j in 0..windows {
        let mut thr = static_bound;
        for s in series {
            thr = thr.min(s[j]);
        }
        cpi_sum += 1.0 / thr.max(1e-6);
    }
    cpi_sum / windows as f64
}

/// Computes analytic min-bound CPI estimates for one region without building
/// a [`FeatureStore`](crate::features::FeatureStore).
///
/// Construction runs the arch-independent static trace analysis; each
/// [`MinBoundEstimator::min_bound_cpi`] call runs the per-resource models at
/// the queried architecture's single grid point, memoizing the cache-analysis
/// stages per distinct memory configuration so a batch of architectures on
/// the same memory system shares them.
pub struct MinBoundEstimator<'a> {
    warmup: &'a [Instruction],
    instrs: &'a [Instruction],
    k: usize,
    info: TraceInfo,
    datas: HashMap<(u32, u32, u32), DataLatencies>,
    insts: HashMap<(u32, u32), InstLatencies>,
}

impl<'a> MinBoundEstimator<'a> {
    /// Analyzes `instrs` (functionally warmed by `warmup`) for min-bound
    /// queries under `profile`'s window length.
    pub fn new(
        warmup: &'a [Instruction],
        instrs: &'a [Instruction],
        profile: &ReproProfile,
    ) -> Self {
        MinBoundEstimator {
            warmup,
            instrs,
            k: profile.window_k,
            info: analyze_static(instrs),
            datas: HashMap::new(),
            insts: HashMap::new(),
        }
    }

    /// The pure-analytical CPI min-bound for `arch`.
    pub fn min_bound_cpi(&mut self, arch: &MicroArch) -> f64 {
        let (warmup, instrs, k) = (self.warmup, self.instrs, self.k);
        let data = self
            .datas
            .entry(arch.mem.data_key())
            .or_insert_with(|| analyze_data(warmup, instrs, arch.mem));
        let inst = self
            .insts
            .entry(arch.mem.inst_key())
            .or_insert_with(|| analyze_inst(warmup, instrs, arch.mem));
        let info = &self.info;
        let series: [Vec<f64>; 9] = [
            throughput_from_marks(&rob_model(info, data, arch.rob_size).commit_cycles, k),
            throughput_from_marks(&queue_model(info, data, arch.lq_size, QueueKind::Load), k),
            throughput_from_marks(&queue_model(info, data, arch.sq_size, QueueKind::Store), k),
            issue_width_bound(info, IssueClass::Alu, arch.alu_width, k),
            issue_width_bound(info, IssueClass::Fp, arch.fp_width, k),
            issue_width_bound(info, IssueClass::LoadStore, arch.ls_width, k),
            pipe_bounds(info, arch.ls_pipes, arch.load_pipes, k).upper,
            throughput_from_marks(&icache_fills_model(info, inst, arch.max_icache_fills), k),
            throughput_from_marks(&fetch_buffers_model(info, inst, arch.fetch_buffers), k),
        ];
        combine_min_bound(&series.each_ref().map(Vec::as_slice), arch)
    }
}

/// One-shot convenience wrapper around [`MinBoundEstimator`] for a single
/// `(region, architecture)` query.
pub fn analytic_min_bound_cpi(
    warmup: &[Instruction],
    instrs: &[Instruction],
    arch: &MicroArch,
    profile: &ReproProfile,
) -> f64 {
    MinBoundEstimator::new(warmup, instrs, profile).min_bound_cpi(arch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use concorde_trace::{by_id, generate_region};

    #[test]
    fn estimator_memoizes_memory_analyses() {
        let region = generate_region(&by_id("S1").unwrap(), 0, 0, 2_048);
        let profile = ReproProfile::quick();
        let mut est = MinBoundEstimator::new(&[], &region.instrs, &profile);
        let n1 = MicroArch::arm_n1();
        let a = est.min_bound_cpi(&n1);
        assert_eq!(est.datas.len(), 1);
        // Same memory config, different core: no new cache analysis.
        let mut wide = n1;
        wide.rob_size = 512;
        wide.alu_width = 8;
        let b = est.min_bound_cpi(&wide);
        assert_eq!(est.datas.len(), 1);
        assert_eq!(est.insts.len(), 1);
        // A strictly wider machine can only lower (or keep) the bound CPI.
        assert!(b <= a, "wider core bound {b} vs {a}");
        // A new memory config triggers exactly one more analysis.
        let big = MicroArch::big_core();
        est.min_bound_cpi(&big);
        assert_eq!(est.datas.len(), 2);
    }

    #[test]
    fn one_shot_matches_estimator() {
        let region = generate_region(&by_id("C1").unwrap(), 0, 0, 1_024);
        let profile = ReproProfile::quick();
        let arch = MicroArch::arm_n1();
        let one = analytic_min_bound_cpi(&[], &region.instrs, &arch, &profile);
        let mut est = MinBoundEstimator::new(&[], &region.instrs, &profile);
        assert_eq!(one.to_bits(), est.min_bound_cpi(&arch).to_bits());
        assert!(one > 0.05 && one < 100.0, "min-bound CPI {one}");
    }
}
