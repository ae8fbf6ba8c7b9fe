//! Trace analysis (paper §3.1): turns a raw dynamic trace into the *Concorde
//! trace* — per-instruction dependencies, execution-latency estimates from
//! in-order cache simulation, I-cache latency estimates, and branch
//! misprediction statistics.
//!
//! The analysis splits into four products so each can be computed for exactly
//! the configurations it depends on (the paper's precompute discipline):
//!
//! * [`TraceInfo`] — microarchitecture independent (dependencies and their
//!   consumer graph, op classes, load-line ids, cache lines, branch types,
//!   ISBs);
//! * [`DataLatencies`] — per D-side memory configuration (L1d × L2 × prefetch);
//! * [`InstLatencies`] — per I-side memory configuration (L1i × L2);
//! * [`BranchInfo`] — one TAGE + BTB simulation, from which the misprediction
//!   rate of *any* Table 1 predictor setting is derived.

use std::collections::HashMap;

use concorde_branch::{BranchUnit, PredictorKind};
use concorde_cache::{CacheLevel, Hierarchy, LatencyMap, MemConfig};
use concorde_trace::{BranchKind, Instruction, OpClass};

/// Sentinel for "no dependency".
pub const NO_DEP: u32 = u32::MAX;

/// Microarchitecture-independent per-instruction information.
#[derive(Debug, Clone)]
pub struct TraceInfo {
    /// Operation class per instruction.
    pub ops: Vec<OpClass>,
    /// Up to two register dependencies (producer indices; `NO_DEP` = none).
    pub reg_deps: Vec<[u32; 2]>,
    /// Memory dependency for loads (producer store index; `NO_DEP` = none).
    pub mem_dep: Vec<u32>,
    /// CSR offsets into [`TraceInfo::consumers`]: the consumers of
    /// instruction `i` are `consumers[consumer_start[i]..consumer_start[i + 1]]`
    /// (`n + 1` entries).
    pub consumer_start: Vec<u32>,
    /// Flat producer → consumer edges (register and memory dependencies),
    /// grouped by producer, consumers in program order. An instruction that
    /// names the same producer twice appears twice.
    pub consumers: Vec<u32>,
    /// Number of dependency edges into each instruction (at most 3).
    pub dep_count: Vec<u8>,
    /// Dense id of each load's data cache line, numbered in order of first
    /// touch (`NO_DEP` for non-loads).
    pub load_line: Vec<u32>,
    /// CSR offsets into [`TraceInfo::line_loads`], one entry per load line
    /// plus one.
    pub line_load_start: Vec<u32>,
    /// Load indices grouped by line id, in program order within each line
    /// (Algorithm 1's `exec_times[cache_line]`, as instruction indices).
    pub line_loads: Vec<u32>,
    /// Instruction cache line per instruction.
    pub icache_lines: Vec<u64>,
    /// Branch kind per instruction (`None` for non-branches).
    pub branch_kinds: Vec<Option<BranchKind>>,
    /// ISB flags.
    pub is_isb: Vec<bool>,
}

impl TraceInfo {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Count of instructions in the given class.
    pub fn count(&self, op: OpClass) -> usize {
        self.ops.iter().filter(|o| **o == op).count()
    }

    /// Number of distinct data cache lines touched by loads.
    pub fn load_lines(&self) -> usize {
        self.line_load_start.len() - 1
    }

    /// The instructions that depend on instruction `i`.
    #[inline]
    pub fn consumers_of(&self, i: usize) -> &[u32] {
        &self.consumers[self.consumer_start[i] as usize..self.consumer_start[i + 1] as usize]
    }

    /// The loads to line id `line`, in program order.
    #[inline]
    pub fn loads_on_line(&self, line: u32) -> &[u32] {
        let l = line as usize;
        &self.line_loads[self.line_load_start[l] as usize..self.line_load_start[l + 1] as usize]
    }
}

/// Groups `(key, value)` pairs into a CSR over keys `0..keys`: returns the
/// `keys + 1` offsets and the values, in input order within each key.
fn csr(keys: usize, pairs: impl Iterator<Item = (u32, u32)> + Clone) -> (Vec<u32>, Vec<u32>) {
    let mut start = vec![0u32; keys + 1];
    for (k, _) in pairs.clone() {
        start[k as usize + 1] += 1;
    }
    for k in 0..keys {
        start[k + 1] += start[k];
    }
    let mut next = start.clone();
    let mut values = vec![0u32; start[keys] as usize];
    for (k, v) in pairs {
        let slot = &mut next[k as usize];
        values[*slot as usize] = v;
        *slot += 1;
    }
    (start, values)
}

/// Builds the microarchitecture-independent trace information.
///
/// Dependencies follow the same rules the cycle-level simulator applies at
/// rename: register dependencies via last-writer tracking, and for loads a
/// memory dependency on the most recent older store to the same address (the
/// store-forwarding edge). It also builds the per-region structures every
/// ROB/queue model run shares: the producer → consumer graph and the dense
/// load-line ids with their per-line load lists.
pub fn analyze_static(instrs: &[Instruction]) -> TraceInfo {
    let n = instrs.len();
    let mut reg_deps = Vec::with_capacity(n);
    let mut mem_dep = vec![NO_DEP; n];
    let mut icache_lines = Vec::with_capacity(n);
    let mut branch_kinds = Vec::with_capacity(n);
    let mut is_isb = Vec::with_capacity(n);

    let mut dep_count = Vec::with_capacity(n);
    let mut load_line = vec![NO_DEP; n];
    let mut line_ids: HashMap<u64, u32> = HashMap::new();

    let mut last_writer = [NO_DEP; concorde_trace::NUM_REGS];
    let mut last_store_addr: HashMap<u64, u32> = HashMap::new();

    for (i, instr) in instrs.iter().enumerate() {
        let mut deps = [NO_DEP; 2];
        for (slot, src) in instr.srcs.iter().flatten().enumerate().take(2) {
            deps[slot] = last_writer[*src as usize];
        }
        reg_deps.push(deps);
        if instr.op.is_load() {
            if let Some(&s) = last_store_addr.get(&instr.mem_addr) {
                mem_dep[i] = s;
            }
            let next = line_ids.len() as u32;
            load_line[i] = *line_ids.entry(instr.data_line()).or_insert(next);
        }
        let edges =
            deps.iter().filter(|&&d| d != NO_DEP).count() + usize::from(mem_dep[i] != NO_DEP);
        dep_count.push(edges as u8);
        if instr.op.is_store() {
            last_store_addr.insert(instr.mem_addr, i as u32);
        }
        if let Some(d) = instr.dst {
            last_writer[d as usize] = i as u32;
        }
        icache_lines.push(instr.icache_line());
        branch_kinds.push(match instr.op {
            OpClass::Branch(k) => Some(k),
            _ => None,
        });
        is_isb.push(instr.op == OpClass::Isb);
    }

    // Producer -> consumer edges, pushed in the order each consumer names
    // its producers (register slots, then the memory dependency).
    let edges = (0..n).flat_map(|i| {
        let [r0, r1] = reg_deps[i];
        [r0, r1, mem_dep[i]]
            .into_iter()
            .filter(|&d| d != NO_DEP)
            .map(move |d| (d, i as u32))
    });
    let (consumer_start, consumers) = csr(n, edges);
    let loads = (0..n as u32)
        .filter(|&i| load_line[i as usize] != NO_DEP)
        .map(|i| (load_line[i as usize], i));
    let (line_load_start, line_loads) = csr(line_ids.len(), loads);

    TraceInfo {
        ops: instrs.iter().map(|i| i.op).collect(),
        reg_deps,
        mem_dep,
        consumer_start,
        consumers,
        dep_count,
        load_line,
        line_load_start,
        line_loads,
        icache_lines,
        branch_kinds,
        is_isb,
    }
}

/// Per-instruction execution-latency estimates for one D-side memory
/// configuration. Algorithm 1's per-line latency queues are these values
/// read through [`TraceInfo::line_loads`].
#[derive(Debug, Clone)]
pub struct DataLatencies {
    /// Estimated execution latency per instruction (loads: from the in-order
    /// cache simulation level; others: fixed opcode latency).
    pub exec_latency: Vec<u32>,
}

/// Runs the in-order D-cache simulation (with `warmup` accesses first) and
/// derives execution-latency estimates (paper §3.1 "Microarchitecture
/// dependent (i)").
pub fn analyze_data(
    warmup: &[Instruction],
    instrs: &[Instruction],
    cfg: MemConfig,
) -> DataLatencies {
    let lat = LatencyMap::default();
    let mut h = Hierarchy::new(cfg);
    for i in warmup {
        if i.op.is_load() {
            h.access_data(i.mem_addr, false, Some(i.pc));
        } else if i.op.is_store() {
            h.access_data(i.mem_addr, true, None);
        }
    }
    let mut exec_latency = Vec::with_capacity(instrs.len());
    for i in instrs {
        let l = if i.op.is_load() {
            let level = h.access_data(i.mem_addr, false, Some(i.pc));
            lat.latency(level)
        } else if i.op.is_store() {
            h.access_data(i.mem_addr, true, None);
            i.op.base_latency()
        } else {
            i.op.base_latency()
        };
        exec_latency.push(l);
    }
    DataLatencies { exec_latency }
}

/// Per-instruction I-cache latency estimates for one I-side configuration.
#[derive(Debug, Clone)]
pub struct InstLatencies {
    /// I-cache access latency per instruction.
    pub icache_latency: Vec<u32>,
    /// Whether the instruction's line hit in L1i.
    pub l1_hit: Vec<bool>,
}

/// Runs the in-order I-cache simulation (paper §3.1 "Microarchitecture
/// dependent (ii)").
pub fn analyze_inst(
    warmup: &[Instruction],
    instrs: &[Instruction],
    cfg: MemConfig,
) -> InstLatencies {
    let lat = LatencyMap::default();
    let mut h = Hierarchy::new(cfg);
    for i in warmup {
        h.access_inst(i.pc);
    }
    let mut icache_latency = Vec::with_capacity(instrs.len());
    let mut l1_hit = Vec::with_capacity(instrs.len());
    for i in instrs {
        let level = h.access_inst(i.pc);
        icache_latency.push(lat.latency(level));
        l1_hit.push(level == CacheLevel::L1);
    }
    InstLatencies {
        icache_latency,
        l1_hit,
    }
}

/// Branch-prediction summary from one TAGE + BTB trace simulation, sufficient
/// to derive the misprediction rate of every Table 1 predictor setting.
#[derive(Debug, Clone, Copy, Default)]
pub struct BranchInfo {
    /// Total branches.
    pub branches: u64,
    /// Conditional branches.
    pub conditional: u64,
    /// TAGE mispredictions on conditional branches.
    pub tage_cond_misses: u64,
    /// Indirect-target mispredictions (predictor independent).
    pub indirect_misses: u64,
}

impl BranchInfo {
    /// Misprediction rate (per branch) under the given predictor setting.
    pub fn mispredict_rate(&self, kind: PredictorKind) -> f64 {
        if self.branches == 0 {
            return 0.0;
        }
        let cond_misses = match kind {
            PredictorKind::Tage => self.tage_cond_misses as f64,
            PredictorKind::Simple { miss_pct } => {
                self.conditional as f64 * f64::from(miss_pct) / 100.0
            }
        };
        (cond_misses + self.indirect_misses as f64) / self.branches as f64
    }

    /// Mispredictions per kilo-instruction under the given predictor.
    pub fn mpki(&self, kind: PredictorKind, instructions: usize) -> f64 {
        if instructions == 0 {
            return 0.0;
        }
        let cond_misses = match kind {
            PredictorKind::Tage => self.tage_cond_misses as f64,
            PredictorKind::Simple { miss_pct } => {
                self.conditional as f64 * f64::from(miss_pct) / 100.0
            }
        };
        (cond_misses + self.indirect_misses as f64) * 1000.0 / instructions as f64
    }
}

/// Simulates TAGE + BTB over the trace (after warmup) — paper §3.1
/// "Microarchitecture dependent (iii)".
pub fn analyze_branches(warmup: &[Instruction], instrs: &[Instruction]) -> BranchInfo {
    let mut unit = BranchUnit::new(PredictorKind::Tage, 0);
    for i in warmup {
        unit.observe(i);
    }
    unit.reset_stats();
    let mut info = BranchInfo::default();
    for i in instrs {
        let kind = match i.op {
            OpClass::Branch(k) => k,
            _ => continue,
        };
        let miss = unit.observe(i);
        info.branches += 1;
        match kind {
            BranchKind::DirectCond => {
                info.conditional += 1;
                if miss {
                    info.tage_cond_misses += 1;
                }
            }
            BranchKind::Indirect => {
                if miss {
                    info.indirect_misses += 1;
                }
            }
            BranchKind::DirectUncond => {}
        }
    }
    info
}

#[cfg(test)]
mod tests {
    use super::*;
    use concorde_trace::{by_id, generate_region};

    fn trace(id: &str, n: usize) -> Vec<Instruction> {
        generate_region(&by_id(id).unwrap(), 0, 0, n).instrs
    }

    #[test]
    fn reg_deps_point_backwards_to_writers() {
        let t = trace("S5", 5000);
        let info = analyze_static(&t);
        for (i, deps) in info.reg_deps.iter().enumerate() {
            for &d in deps {
                if d != NO_DEP {
                    let d = d as usize;
                    assert!(d < i, "dep must be older");
                    let produced = t[d].dst.expect("producer must write a register");
                    assert!(
                        t[i].srcs.iter().flatten().any(|s| *s == produced),
                        "dep register mismatch at {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn mem_deps_connect_stores_to_loads() {
        let t = trace("P4", 20_000); // store heavy
        let info = analyze_static(&t);
        let mut found = 0;
        for (i, &d) in info.mem_dep.iter().enumerate() {
            if d != NO_DEP {
                found += 1;
                assert!(t[i].op.is_load());
                assert!(t[d as usize].op.is_store());
                assert_eq!(t[i].mem_addr, t[d as usize].mem_addr);
            }
        }
        assert!(
            found > 10,
            "store-heavy trace should have forwarding edges, found {found}"
        );
    }

    #[test]
    fn chase_loads_have_self_chain_deps() {
        let t = trace("S1", 10_000);
        let info = analyze_static(&t);
        let chained = (0..t.len())
            .filter(|&i| {
                t[i].op.is_load()
                    && info.reg_deps[i]
                        .iter()
                        .any(|&d| d != NO_DEP && t[d as usize].op.is_load())
            })
            .count();
        assert!(
            chained > 100,
            "pointer chase must create load->load chains, got {chained}"
        );
    }

    #[test]
    fn exec_latencies_match_levels() {
        let t = trace("S1", 10_000);
        let d = analyze_data(&[], &t, MemConfig::default());
        assert_eq!(d.exec_latency.len(), t.len());
        for (lat, i) in d.exec_latency.iter().zip(&t) {
            if i.op.is_load() {
                assert!([4u32, 10, 30, 200].contains(lat), "load latency {lat}");
            } else {
                assert_eq!(*lat, i.op.base_latency());
            }
        }
    }

    #[test]
    fn load_lines_form_a_program_order_csr() {
        let t = trace("S1", 10_000);
        let info = analyze_static(&t);
        let loads = t.iter().filter(|i| i.op.is_load()).count();
        assert_eq!(info.line_loads.len(), loads);
        assert_eq!(*info.line_load_start.last().unwrap() as usize, loads);
        // Every load appears exactly once, under its own line, in program
        // order; distinct line ids name distinct lines.
        let mut seen = vec![false; t.len()];
        let mut line_of_id = Vec::new();
        for id in 0..info.load_lines() as u32 {
            let on_line = info.loads_on_line(id);
            assert!(!on_line.is_empty(), "line {id} has no loads");
            assert!(on_line.windows(2).all(|w| w[0] < w[1]), "line {id} order");
            for &i in on_line {
                let i = i as usize;
                assert!(t[i].op.is_load());
                assert!(!seen[i], "load {i} listed twice");
                seen[i] = true;
                assert_eq!(info.load_line[i], id);
            }
            line_of_id.push(t[on_line[0] as usize].data_line());
            assert!(on_line
                .iter()
                .all(|&i| t[i as usize].data_line() == line_of_id[id as usize]));
        }
        line_of_id.sort_unstable();
        line_of_id.dedup();
        assert_eq!(line_of_id.len(), info.load_lines());
        for (i, instr) in t.iter().enumerate() {
            assert_eq!(seen[i], instr.op.is_load(), "at {i}");
            if !instr.op.is_load() {
                assert_eq!(info.load_line[i], NO_DEP);
            }
        }
    }

    #[test]
    fn consumer_graph_inverts_the_dependencies() {
        let t = trace("P4", 8_000);
        let info = analyze_static(&t);
        assert_eq!(info.consumer_start.len(), t.len() + 1);
        let mut into = vec![0u8; t.len()];
        for p in 0..t.len() {
            for &c in info.consumers_of(p) {
                let c = c as usize;
                assert!(c > p, "consumers are younger");
                let named = info.reg_deps[c]
                    .iter()
                    .chain([&info.mem_dep[c]])
                    .filter(|&&d| d as usize == p)
                    .count();
                assert!(named > 0, "{c} does not depend on {p}");
                into[c] += 1;
            }
            assert!(info.consumers_of(p).windows(2).all(|w| w[0] <= w[1]));
        }
        assert_eq!(into, info.dep_count);
        for (i, &k) in info.dep_count.iter().enumerate() {
            let named = info.reg_deps[i]
                .iter()
                .chain([&info.mem_dep[i]])
                .filter(|&&d| d != NO_DEP)
                .count();
            assert_eq!(usize::from(k), named, "at {i}");
        }
    }

    #[test]
    fn warmup_reduces_estimated_latency() {
        let full = trace("S4", 40_000);
        let (w, r) = full.split_at(32_000);
        let cold = analyze_data(&[], r, MemConfig::default());
        let warm = analyze_data(w, r, MemConfig::default());
        let sum = |d: &DataLatencies| d.exec_latency.iter().map(|&x| u64::from(x)).sum::<u64>();
        assert!(sum(&warm) < sum(&cold));
    }

    #[test]
    fn icache_latency_reflects_code_footprint() {
        let big = trace("S10", 20_000);
        let small = trace("O1", 20_000);
        let ib = analyze_inst(&[], &big, MemConfig::default());
        let is = analyze_inst(&[], &small, MemConfig::default());
        let misses = |x: &InstLatencies| x.l1_hit.iter().filter(|h| !**h).count();
        assert!(misses(&ib) > 5 * misses(&is).max(1));
    }

    #[test]
    fn branch_info_rates_are_consistent() {
        let t = trace("S4", 30_000);
        let info = analyze_branches(&[], &t);
        assert!(info.branches > 0 && info.conditional > 0);
        let tage = info.mispredict_rate(PredictorKind::Tage);
        let perfect = info.mispredict_rate(PredictorKind::Simple { miss_pct: 0 });
        let awful = info.mispredict_rate(PredictorKind::Simple { miss_pct: 100 });
        assert!(tage > perfect && tage < awful);
        assert!(perfect >= 0.0, "only indirect misses remain: {perfect}");
        assert!(awful <= 1.0);
        assert!(info.mpki(PredictorKind::Tage, t.len()) > 0.0);
    }
}
