//! Differential tests: the ROB, queue and Algorithm 1 memory models run over
//! the per-region structures on `TraceInfo` (the CSR consumer graph and the
//! dense load-line ids) must be bitwise equal to a straightforward reference
//! that builds its adjacency lists per call and keys its per-line latency
//! queues by cache line in a `HashMap`. Likewise `Encoding::encode_u32` must
//! be bitwise equal to `Encoding::encode` over the widened samples.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use concorde_suite::prelude::*;
use concorde_suite::riscv;
use proptest::prelude::*;

/// Reference Algorithm 1: per-line state and latency lists in hash maps,
/// keyed by cache line.
struct RefMemory<'a> {
    exec_latency: &'a [u32],
    line_lists: HashMap<u64, Vec<u32>>,
    lines: HashMap<u64, (usize, u64, u64)>,
}

impl<'a> RefMemory<'a> {
    fn new(instrs: &[Instruction], data: &'a DataLatencies) -> Self {
        let mut line_lists: HashMap<u64, Vec<u32>> = HashMap::new();
        for (i, instr) in instrs.iter().enumerate() {
            if instr.op.is_load() {
                line_lists
                    .entry(instr.data_line())
                    .or_default()
                    .push(data.exec_latency[i]);
            }
        }
        RefMemory {
            exec_latency: &data.exec_latency,
            line_lists,
            lines: HashMap::new(),
        }
    }

    fn resp_cycle(&mut self, req_cycle: u64, idx: usize, line: u64, is_load: bool) -> u64 {
        let exec_est = u64::from(self.exec_latency[idx]);
        if !is_load {
            return req_cycle + exec_est;
        }
        let (counter, last_req, last_resp) = self.lines.entry(line).or_default();
        assert!(
            req_cycle >= *last_req,
            "per-line requests must not decrease"
        );
        *last_req = req_cycle;
        let list = &self.line_lists[&line];
        let exec = u64::from(*list.get(*counter).unwrap_or(list.last().unwrap()));
        *counter += 1;
        let resp = (req_cycle + exec).max(*last_resp);
        *last_resp = resp;
        resp
    }
}

/// Reference ROB model: the per-call `Vec<Vec<u32>>` adjacency formulation.
fn ref_rob(
    instrs: &[Instruction],
    info: &TraceInfo,
    data: &DataLatencies,
    rob_size: u32,
) -> RobResult {
    let n = info.len();
    let rob = rob_size as usize;
    let (mut a, mut s, mut f, mut c) = (vec![0u64; n], vec![0u64; n], vec![0u64; n], vec![0u64; n]);
    let mut f_known = vec![false; n];
    let mut dep_remaining = vec![0u16; n];
    let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (i, remaining) in dep_remaining.iter_mut().enumerate() {
        for &d in info.reg_deps[i].iter().chain([&info.mem_dep[i]]) {
            if d != NO_DEP {
                dependents[d as usize].push(i as u32);
                *remaining += 1;
            }
        }
    }
    let mut max_dep_f = vec![0u64; n];
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    let mut mem = RefMemory::new(instrs, data);
    let (mut entered, mut frontier, mut executed) = (0usize, 0usize, 0usize);
    while executed < n {
        while entered < n && entered < frontier + rob {
            let i = entered;
            a[i] = if i >= rob { c[i - rob] } else { 0 };
            if dep_remaining[i] == 0 {
                s[i] = a[i].max(max_dep_f[i]);
                heap.push(Reverse((s[i], i as u32)));
            }
            entered += 1;
        }
        let Reverse((si, iu)) = heap.pop().unwrap();
        let i = iu as usize;
        f[i] = mem.resp_cycle(si, i, instrs[i].data_line(), info.ops[i].is_load());
        f_known[i] = true;
        executed += 1;
        for &dr in &dependents[i] {
            let d = dr as usize;
            max_dep_f[d] = max_dep_f[d].max(f[i]);
            dep_remaining[d] -= 1;
            if dep_remaining[d] == 0 && d < entered {
                s[d] = a[d].max(max_dep_f[d]);
                heap.push(Reverse((s[d], dr)));
            }
        }
        while frontier < entered && f_known[frontier] {
            let prev = if frontier > 0 { c[frontier - 1] } else { 0 };
            c[frontier] = f[frontier].max(prev);
            frontier += 1;
        }
    }
    let sat = |x: u64| x.min(u64::from(u32::MAX)) as u32;
    RobResult {
        issue_latency: (0..n).map(|i| sat(s[i] - a[i])).collect(),
        exec_latency: (0..n).map(|i| sat(f[i] - s[i])).collect(),
        commit_latency: (0..n).map(|i| sat(c[i] - f[i])).collect(),
        commit_cycles: c,
    }
}

/// Reference load/store-queue model.
fn ref_queue(instrs: &[Instruction], data: &DataLatencies, size: u32, kind: QueueKind) -> Vec<u64> {
    let q = size as usize;
    let mut mem = RefMemory::new(instrs, data);
    let mut ring = vec![0u64; q];
    let (mut qcount, mut last_c) = (0usize, 0u64);
    let mut marks = Vec::with_capacity(instrs.len());
    for (i, instr) in instrs.iter().enumerate() {
        let is_kind = match kind {
            QueueKind::Load => instr.op.is_load(),
            QueueKind::Store => instr.op.is_store(),
        };
        if is_kind {
            let a = if qcount >= q { ring[qcount % q] } else { 0 };
            let f = mem.resp_cycle(a, i, instr.data_line(), kind == QueueKind::Load);
            let c = f.max(last_c);
            ring[qcount % q] = c;
            qcount += 1;
            last_c = c;
        }
        marks.push(last_c);
    }
    marks
}

const QUEUE_SIZES: [u32; 5] = [1, 3, 12, 64, 256];

/// Runs the ROB model at each of `robs` and both queue models at each of
/// `queues` over `region` (latencies after `warmup`), asserting every output
/// equals the reference bitwise.
fn assert_matches_reference(
    warmup: &[Instruction],
    region: &[Instruction],
    robs: &[u32],
    queues: &[u32],
    what: &str,
) {
    let info = analyze_static(region);
    let data = analyze_data(warmup, region, MemConfig::default());
    for &rob in robs {
        let got = rob_model(&info, &data, rob);
        let want = ref_rob(region, &info, &data, rob);
        let tag = format!("{what} ROB {rob}");
        assert_eq!(got.commit_cycles, want.commit_cycles, "{tag}: commit");
        assert_eq!(got.issue_latency, want.issue_latency, "{tag}: issue");
        assert_eq!(got.exec_latency, want.exec_latency, "{tag}: exec");
        assert_eq!(got.commit_latency, want.commit_latency, "{tag}: commit lat");
    }
    for &q in queues {
        for kind in [QueueKind::Load, QueueKind::Store] {
            assert_eq!(
                queue_model(&info, &data, q, kind),
                ref_queue(region, &data, q, kind),
                "{what} {kind:?} {q}"
            );
        }
    }
}

/// Every suite program over the full ROB sweep and a spread of LQ/SQ sizes,
/// with both cold and 4096-instruction-warmed latency estimates.
#[test]
fn suite_programs_match_reference_over_rob_sweep() {
    for spec in suite() {
        let full = generate_region(&spec, 0, 0, 8_192).instrs;
        let (warmup, region) = full.split_at(4_096);
        for (tag, w) in [("cold", &[][..]), ("warm", warmup)] {
            let what = format!("{} {tag}", spec.id);
            assert_matches_reference(w, region, &ROB_SWEEP, &QUEUE_SIZES, &what);
        }
    }
}

/// A region of a real RV32IM binary (a pointer chase with some stores).
#[test]
fn riscv_region_matches_reference() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("riscv-testdata")
        .join("chase.elf");
    let bytes = std::fs::read(&path).expect("vendored ELF");
    let exec = riscv::execute(
        &riscv::parse_elf32(&bytes).unwrap(),
        riscv::DEFAULT_MAX_INSTS,
    );
    // Straddle the end of list construction (stores) and the start of the
    // chase (loads), after a warm-up of the instructions before it.
    let last_store = exec.trace.iter().rposition(|i| i.op.is_store()).unwrap();
    let start = last_store.saturating_sub(4_096).max(8_192);
    let warmup = &exec.trace[start - 8_192..start];
    let region = &exec.trace[start..start + 8_192];
    let count = |f: fn(OpClass) -> bool| region.iter().filter(|i| f(i.op)).count();
    assert!(
        count(OpClass::is_load) > 1_000,
        "the region must exercise loads"
    );
    assert!(count(OpClass::is_store) > 100, "and stores");
    assert_matches_reference(warmup, region, &ROB_SWEEP, &QUEUE_SIZES, "chase");
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_encodings_equal(e: Encoding, xs: &[u32]) {
    let widened: Vec<f64> = xs.iter().map(|&x| f64::from(x)).collect();
    assert_eq!(
        bits(&e.encode_u32(xs)),
        bits(&e.encode(&widened)),
        "levels {} over {} samples",
        e.levels,
        xs.len()
    );
}

#[test]
fn encode_u32_edge_cases_match_encode() {
    let top = u32::MAX;
    let cases: [Vec<u32>; 6] = [
        vec![],
        vec![0],
        vec![0; 64],
        vec![7; 4096],
        vec![top, top - 1, top, 0, top - 2, top],
        (0..4096u32).map(|i| top - i % 5).collect(),
    ];
    for xs in &cases {
        for levels in [1, 8, 16, 50] {
            assert_encodings_equal(Encoding { levels }, xs);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Seeded regions of any suite program, any start, any length, any
    /// ROB/queue size.
    #[test]
    fn seeded_regions_match_reference(
        wl in 0usize..29,
        seed in 0u32..10_000,
        len in 1usize..3_000,
        sizes in (1u32..2_048, 1u32..300),
    ) {
        let spec = &suite()[wl];
        let full = generate_region(spec, seed % spec.n_traces, u64::from(seed) * 1_024, 1_024 + len).instrs;
        let (warmup, region) = full.split_at(1_024);
        let w = if seed % 2 == 0 { warmup } else { &[][..] };
        let what = format!("{} seed {seed} len {len}", spec.id);
        assert_matches_reference(w, region, &[sizes.0], &[sizes.1], &what);
    }

    /// `encode_u32` is bitwise `encode` over the widened samples: full-range
    /// values, heavy duplicates, and values near `u32::MAX` (empty inputs
    /// included, since the length range starts at 0).
    #[test]
    fn encode_u32_matches_encode_bitwise(
        raw in proptest::collection::vec(any::<u32>(), 0..600),
        mode in 0u8..3,
        levels in 1usize..60,
    ) {
        let xs: Vec<u32> = match mode {
            0 => raw,
            1 => raw.iter().map(|x| x % 4).collect(),
            _ => raw.iter().map(|x| u32::MAX - x % 16).collect(),
        };
        assert_encodings_equal(Encoding { levels }, &xs);
    }
}
