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
//! load-line ids [`MemoryModel`] indexes. A run's working arrays live in a
//! [`RobScratch`] that a sweep reuses from one run to the next; a run
//! allocates only the four arrays of its [`RobResult`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::memory_model::{LineState, MemoryModel};
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

/// Reusable working memory for [`rob_model_with`]: the per-instruction
/// completion cycles, dependency countdowns and ready heap, and the memory
/// model's per-line state. Any run may follow any other, over any region;
/// every run starts from a clean state.
#[derive(Debug, Default)]
pub struct RobScratch {
    /// `f_i`, or [`NOT_EXECUTED`].
    f: Vec<u64>,
    /// Latest completion among the producers seen so far.
    max_dep_f: Vec<u64>,
    /// Pending-dependency countdown over the region's consumer graph.
    dep_remaining: Vec<u8>,
    /// Ready instructions keyed `s_i << IDX_BITS | i`.
    heap: BinaryHeap<Reverse<u64>>,
    lines: Vec<LineState>,
}

/// Low bits of a heap key that hold the instruction index.
const IDX_BITS: u32 = 24;

/// `f_i` of an instruction that has not executed yet. Real cycles stay below
/// `2^(64 - IDX_BITS)` (asserted per run), so they never reach it.
const NOT_EXECUTED: u64 = u64::MAX;

/// The arrival cycle `a_i = c_{i-ROB}` (Eq. 1); the caller guarantees that
/// instruction `i - rob` has committed.
#[inline]
fn arrival(c: &[u64], i: usize, rob: usize) -> u64 {
    if i >= rob {
        c[i - rob]
    } else {
        0
    }
}

#[inline]
fn clamp_u32(x: u64) -> u32 {
    x.min(u64::from(u32::MAX)) as u32
}

/// Runs the ROB dynamical system for `rob_size` over the region described by
/// `info` (dependencies, op classes) and `data` (execution-latency estimates).
///
/// # Panics
///
/// Panics if `rob_size == 0`, or under the conditions of [`rob_model_with`].
pub fn rob_model(info: &TraceInfo, data: &DataLatencies, rob_size: u32) -> RobResult {
    rob_model_with(&mut RobScratch::default(), info, data, rob_size)
}

/// [`rob_model`] with its working arrays kept in `scratch`, so a sweep of
/// runs allocates them once. The result is bitwise the same as
/// [`rob_model`]'s, whatever `scratch` was used for before.
///
/// # Panics
///
/// Panics if `rob_size == 0`, if the region has 2^24 or more instructions,
/// or if its length times its largest execution latency reaches 2^40 cycles
/// (the heap packs a start cycle and an index into one `u64`).
pub fn rob_model_with(
    scratch: &mut RobScratch,
    info: &TraceInfo,
    data: &DataLatencies,
    rob_size: u32,
) -> RobResult {
    assert!(rob_size >= 1, "ROB size must be at least 1");
    let n = info.len();
    assert!(
        n < 1 << IDX_BITS,
        "the ROB model handles regions below 2^{IDX_BITS} instructions, got {n}"
    );
    // Every cycle is at most one maximal latency per instruction executed
    // before it, so `n × max latency` bounds every start cycle.
    let max_latency = data.exec_latency.iter().copied().max().unwrap_or(0);
    assert!(
        (n as u64) * u64::from(max_latency) < 1 << (64 - IDX_BITS),
        "cycle counts of {n} instructions at up to {max_latency} cycles overflow the heap key"
    );
    let rob = rob_size as usize;
    let RobScratch {
        f,
        max_dep_f,
        dep_remaining,
        heap,
        lines,
    } = scratch;
    f.clear();
    f.resize(n, NOT_EXECUTED);
    max_dep_f.clear();
    max_dep_f.resize(n, 0);
    dep_remaining.clear();
    dep_remaining.extend_from_slice(&info.dep_count);
    heap.clear();
    let mut mem = MemoryModel::reusing(info, data, std::mem::take(lines));

    let mut c = vec![0u64; n];
    let mut issue_latency = vec![0u32; n];
    let mut exec_latency = vec![0u32; n];
    let mut entered = 0usize;
    let mut frontier = 0usize; // instructions with c computed
    let mut executed = 0usize;
    #[cfg(debug_assertions)]
    let mut last_pop = 0u64;

    while executed < n {
        // Enter the window as the ROB constraint allows.
        while entered < n && entered < frontier + rob {
            let i = entered;
            if dep_remaining[i] == 0 {
                let s = arrival(&c, i, rob).max(max_dep_f[i]);
                heap.push(Reverse(s << IDX_BITS | i as u64));
            }
            entered += 1;
        }

        let Reverse(key) = heap
            .pop()
            .expect("ready heap cannot be empty while work remains");
        let si = key >> IDX_BITS;
        let i = (key & ((1 << IDX_BITS) - 1)) as usize;
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                si >= last_pop,
                "start times must pop in non-decreasing order"
            );
            last_pop = si;
        }
        let fi = mem.resp_cycle(si, i, info.ops[i].is_load());
        f[i] = fi;
        issue_latency[i] = clamp_u32(si - arrival(&c, i, rob));
        exec_latency[i] = clamp_u32(fi - si);
        executed += 1;

        for &dr in info.consumers_of(i) {
            let d = dr as usize;
            max_dep_f[d] = max_dep_f[d].max(fi);
            dep_remaining[d] -= 1;
            if dep_remaining[d] == 0 && d < entered {
                let s = arrival(&c, d, rob).max(max_dep_f[d]);
                heap.push(Reverse(s << IDX_BITS | u64::from(dr)));
            }
        }

        // Advance the in-order commit frontier (Eq. 4).
        while frontier < entered && f[frontier] != NOT_EXECUTED {
            let prev = if frontier > 0 { c[frontier - 1] } else { 0 };
            c[frontier] = f[frontier].max(prev);
            frontier += 1;
        }
    }

    let commit_latency = c
        .iter()
        .zip(f.iter())
        .map(|(&c, &f)| clamp_u32(c - f))
        .collect();
    *lines = mem.into_lines();
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

    fn assert_same(got: &RobResult, want: &RobResult, what: &str) {
        assert_eq!(
            got.commit_cycles, want.commit_cycles,
            "{what}: commit cycles"
        );
        assert_eq!(
            got.issue_latency, want.issue_latency,
            "{what}: issue latency"
        );
        assert_eq!(got.exec_latency, want.exec_latency, "{what}: exec latency");
        assert_eq!(
            got.commit_latency, want.commit_latency,
            "{what}: commit latency"
        );
    }

    #[test]
    fn reused_scratch_matches_fresh_runs_in_any_order() {
        let regions = [setup_warmed("P13", 3000), setup_warmed("S5", 5000)];
        let fresh: Vec<Vec<RobResult>> = regions
            .iter()
            .map(|(info, data)| ROB_SWEEP.map(|rob| rob_model(info, data, rob)).to_vec())
            .collect();
        let forward: Vec<usize> = (0..ROB_SWEEP.len()).collect();
        let backward: Vec<usize> = forward.iter().rev().copied().collect();
        let interleaved = [5, 0, 10, 3, 7, 1, 9, 2, 8, 4, 6];
        let mut scratch = RobScratch::default();
        for order in [&forward[..], &backward, &interleaved] {
            // Alternate the two regions (different lengths and line counts)
            // through the same scratch.
            for &k in order {
                for (r, (info, data)) in regions.iter().enumerate() {
                    let got = rob_model_with(&mut scratch, info, data, ROB_SWEEP[k]);
                    assert_same(
                        &got,
                        &fresh[r][k],
                        &format!("region {r}, ROB {}", ROB_SWEEP[k]),
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "overflow the heap key")]
    fn cycles_beyond_the_heap_key_are_refused() {
        let (info, mut data) = setup_warmed("O1", 2000);
        data.exec_latency[0] = u32::MAX;
        rob_model(&info, &data, 16);
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
