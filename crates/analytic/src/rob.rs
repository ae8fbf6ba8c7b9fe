//! The ROB analytical model (paper §3.2.1, Equations 1–4).
//!
//! Models out-of-order execution constrained *only* by the ROB size and
//! instruction dependencies, with a perfect frontend and unlimited bandwidth:
//!
//! ```text
//! a_i = c_{i-ROB}                       (ROB size constraint)
//! s_i = max(a_i, max{f_d | d ∈ Dep(i)}) (dependencies)
//! f_i = RespCycle(s_i, instr_i)         (Algorithm 1 memory model)
//! c_i = max(f_i, c_{i-1})               (in-order commit)
//! ```
//!
//! Equation 3 must execute in order of instruction *start* times so that
//! Algorithm 1 sees non-decreasing request cycles per cache line (paper
//! footnote 3). This module realizes that with a discrete-event loop: a ready
//! heap keyed by `s_i` pops instructions in global start order — a property
//! the loop `debug_assert`s.
//!
//! Everything that does not depend on the ROB size or the memory
//! configuration comes precomputed on [`TraceInfo`]: the producer → consumer
//! graph as a CSR with per-instruction dependency counts, and the dense
//! load-line ids [`MemoryModel`] indexes. A run allocates only its own
//! per-instruction cycle arrays.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::memory_model::MemoryModel;
use crate::trace_analysis::{DataLatencies, TraceInfo};

/// Output of one ROB-model run.
#[derive(Debug, Clone)]
pub struct RobResult {
    /// Commit cycle `c_i` per instruction.
    pub commit_cycles: Vec<u64>,
    /// Issue-stage latency `s_i − a_i` per instruction (§3.2.2 aux feature).
    pub issue_latency: Vec<u32>,
    /// Execution latency `f_i − s_i` per instruction.
    pub exec_latency: Vec<u32>,
    /// Commit-stage latency `c_i − f_i` per instruction.
    pub commit_latency: Vec<u32>,
}

impl RobResult {
    /// Overall throughput `n / c_n` (instructions per cycle).
    pub fn overall_throughput(&self) -> f64 {
        let n = self.commit_cycles.len();
        if n == 0 {
            return 0.0;
        }
        let total = *self.commit_cycles.last().unwrap();
        if total == 0 {
            crate::window::THROUGHPUT_CAP
        } else {
            (n as f64 / total as f64).min(crate::window::THROUGHPUT_CAP)
        }
    }
}

/// Runs the ROB dynamical system for `rob_size` over the region described by
/// `info` (dependencies, op classes) and `data` (execution-latency estimates).
///
/// # Panics
///
/// Panics if `rob_size == 0`.
pub fn rob_model(info: &TraceInfo, data: &DataLatencies, rob_size: u32) -> RobResult {
    assert!(rob_size >= 1, "ROB size must be at least 1");
    let n = info.len();
    let rob = rob_size as usize;
    let mut a = vec![0u64; n];
    let mut s = vec![0u64; n];
    let mut f = vec![0u64; n];
    let mut c = vec![0u64; n];
    let mut f_known = vec![false; n];
    // Pending-dependency countdown over the region's shared consumer graph.
    let mut dep_remaining = info.dep_count.clone();

    let mut max_dep_f = vec![0u64; n];
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    let mut mem = MemoryModel::new(info, data);
    let mut entered = 0usize;
    let mut frontier = 0usize; // instructions with c computed
    let mut executed = 0usize;
    #[cfg(debug_assertions)]
    let mut last_pop = 0u64;

    while executed < n {
        // Enter the window as the ROB constraint allows.
        while entered < n && entered < frontier + rob {
            let i = entered;
            a[i] = if i >= rob { c[i - rob] } else { 0 };
            if dep_remaining[i] == 0 {
                s[i] = a[i].max(max_dep_f[i]);
                heap.push(Reverse((s[i], i as u32)));
            }
            entered += 1;
        }

        let Reverse((si, iu)) = heap
            .pop()
            .expect("ready heap cannot be empty while work remains");
        let i = iu as usize;
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                si >= last_pop,
                "start times must pop in non-decreasing order"
            );
            last_pop = si;
        }
        f[i] = mem.resp_cycle(si, i, info.ops[i].is_load());
        f_known[i] = true;
        executed += 1;

        for &dr in info.consumers_of(i) {
            let d = dr as usize;
            max_dep_f[d] = max_dep_f[d].max(f[i]);
            dep_remaining[d] -= 1;
            if dep_remaining[d] == 0 && d < entered {
                s[d] = a[d].max(max_dep_f[d]);
                heap.push(Reverse((s[d], dr)));
            }
        }

        // Advance the in-order commit frontier (Eq. 4).
        while frontier < entered && f_known[frontier] {
            let prev = if frontier > 0 { c[frontier - 1] } else { 0 };
            c[frontier] = f[frontier].max(prev);
            frontier += 1;
        }
    }

    let issue_latency = (0..n)
        .map(|i| (s[i] - a[i]).min(u64::from(u32::MAX)) as u32)
        .collect();
    let exec_latency = (0..n)
        .map(|i| (f[i] - s[i]).min(u64::from(u32::MAX)) as u32)
        .collect();
    let commit_latency = (0..n)
        .map(|i| (c[i] - f[i]).min(u64::from(u32::MAX)) as u32)
        .collect();
    RobResult {
        commit_cycles: c,
        issue_latency,
        exec_latency,
        commit_latency,
    }
}

/// The paper's auxiliary ROB sweep: sizes {1, 2, 4, …, 1024} (§3.2.2).
pub const ROB_SWEEP: [u32; 11] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_analysis::{analyze_data, analyze_static};
    use concorde_cache::MemConfig;
    use concorde_trace::{by_id, generate_region, Instruction};

    fn setup(id: &str, n: usize) -> (Vec<Instruction>, TraceInfo, DataLatencies) {
        let t = generate_region(&by_id(id).unwrap(), 0, 0, n).instrs;
        let info = analyze_static(&t);
        let data = analyze_data(&[], &t, MemConfig::default());
        (t, info, data)
    }

    /// Like `setup` but with a 32k-instruction cache warmup, so latency
    /// estimates reflect steady state rather than compulsory misses.
    fn setup_warmed(id: &str, n: usize) -> (TraceInfo, DataLatencies) {
        let full = generate_region(&by_id(id).unwrap(), 0, 0, 32_000 + n).instrs;
        let (w, r) = full.split_at(32_000);
        (analyze_static(r), analyze_data(w, r, MemConfig::default()))
    }

    #[test]
    fn commit_cycles_are_monotone() {
        let (_, info, data) = setup("S5", 6000);
        let r = rob_model(&info, &data, 128);
        for w in r.commit_cycles.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn bigger_rob_never_decreases_throughput() {
        let (_, info, data) = setup("S1", 6000);
        let mut prev = 0.0;
        for rob in ROB_SWEEP {
            let thr = rob_model(&info, &data, rob).overall_throughput();
            assert!(
                thr >= prev - 1e-9,
                "ROB {rob}: throughput {thr} decreased from {prev}"
            );
            prev = thr;
        }
    }

    #[test]
    fn rob1_serializes_completely() {
        let (_, info, data) = setup("O1", 2000);
        let r = rob_model(&info, &data, 1);
        // With ROB=1, c_i >= c_{i-1} + exec, so throughput <= 1.
        assert!(r.overall_throughput() <= 1.0 + 1e-9);
        // And every instruction's arrival equals the previous commit.
        for i in 1..200 {
            assert!(r.commit_cycles[i] > r.commit_cycles[i - 1]);
        }
    }

    #[test]
    fn dependency_chains_bound_throughput() {
        let (info, data) = setup_warmed("O4", 6000); // serial chains + divides
        let chained = rob_model(&info, &data, 1024).overall_throughput();
        let (info2, data2) = setup_warmed("O1", 6000); // parallel ALU code
        let parallel = rob_model(&info2, &data2, 1024).overall_throughput();
        assert!(
            parallel > 1.5 * chained,
            "chained code {chained} should be slower than parallel {parallel}"
        );
    }

    #[test]
    fn stage_latencies_reconstruct_commit() {
        let (_, info, data) = setup("P9", 4000);
        let r = rob_model(&info, &data, 64);
        // a + issue + exec + commit = c, and a_i = c_{i-64}.
        for i in 64..4000 {
            let a = r.commit_cycles[i - 64];
            let reconstructed = a
                + u64::from(r.issue_latency[i])
                + u64::from(r.exec_latency[i])
                + u64::from(r.commit_latency[i]);
            assert_eq!(reconstructed, r.commit_cycles[i], "at {i}");
        }
    }

    #[test]
    fn memory_bound_workload_has_low_rob_throughput() {
        // P13: independent random misses over a 40 MB set — the ROB size
        // directly limits memory-level parallelism.
        let (info, data) = setup_warmed("P13", 8000);
        let small = rob_model(&info, &data, 16).overall_throughput();
        let big = rob_model(&info, &data, 1024).overall_throughput();
        assert!(
            big > 1.5 * small,
            "ROB sweep should matter: {small} -> {big}"
        );
    }

    #[test]
    fn window_throughput_matches_eq5() {
        let (_, info, data) = setup("S5", 2048);
        let r = rob_model(&info, &data, 128);
        let thr = crate::window::throughput_from_marks(&r.commit_cycles, 256);
        assert_eq!(thr.len(), 8);
        for t in &thr {
            assert!(*t > 0.0 && *t <= crate::window::THROUGHPUT_CAP);
        }
    }
}
