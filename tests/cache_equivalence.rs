//! Differential test of the flat cache layout.
//!
//! `concorde_cache::Cache` stores every set in one flat array with packed
//! ways. The reference below is the per-set layout it replaced (one heap
//! `Vec<Way>` per set, a `u32` of tree-PLRU bits each), kept verbatim in
//! behaviour. Random operation sequences must see the same hits, probes and
//! evicted `(line, dirty)` pairs from both, and a hierarchy built on the
//! reference must classify suite traces exactly as `Hierarchy` does, with the
//! stride prefetcher on and off.

use concorde_suite::cache::{
    Cache, CacheConfig, CacheLevel, HierarchyStats, MemConfig, StridePrefetcher, LINE_BYTES, LLC_KB,
};
use concorde_suite::prelude::*;
use proptest::prelude::*;

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    valid: bool,
    tag: u64,
    dirty: bool,
}

/// One cache set: `assoc` ways plus `assoc - 1` PLRU tree bits.
#[derive(Debug, Clone)]
struct RefSet {
    ways: Vec<Way>,
    /// Tree bits packed LSB-first in heap order (node 0 = root).
    tree: u32,
}

impl RefSet {
    fn new(assoc: usize) -> Self {
        RefSet {
            ways: vec![Way::default(); assoc],
            tree: 0,
        }
    }

    fn touch(&mut self, way: usize) {
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.ways.len();
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if way < mid {
                self.tree |= 1 << node;
                node = 2 * node + 1;
                hi = mid;
            } else {
                self.tree &= !(1 << node);
                node = 2 * node + 2;
                lo = mid;
            }
        }
    }

    fn victim(&self) -> usize {
        if let Some(i) = self.ways.iter().position(|w| !w.valid) {
            return i;
        }
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.ways.len();
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.tree & (1 << node) != 0 {
                node = 2 * node + 2;
                lo = mid;
            } else {
                node = 2 * node + 1;
                hi = mid;
            }
        }
        lo
    }

    fn lookup(&mut self, tag: u64, write: bool) -> bool {
        if let Some(i) = self.ways.iter().position(|w| w.valid && w.tag == tag) {
            if write {
                self.ways[i].dirty = true;
            }
            self.touch(i);
            true
        } else {
            false
        }
    }

    fn fill(&mut self, tag: u64, dirty: bool) -> Option<(u64, bool)> {
        let v = self.victim();
        let old = self.ways[v];
        self.ways[v] = Way {
            valid: true,
            tag,
            dirty,
        };
        self.touch(v);
        old.valid.then_some((old.tag, old.dirty))
    }
}

/// The per-set reference cache.
#[derive(Debug, Clone)]
struct RefCache {
    sets: Vec<RefSet>,
    set_mask: u64,
}

impl RefCache {
    fn new(config: CacheConfig) -> Self {
        let n = config.num_sets();
        assert!(n.is_power_of_two());
        RefCache {
            sets: (0..n).map(|_| RefSet::new(config.assoc as usize)).collect(),
            set_mask: n as u64 - 1,
        }
    }

    fn split(&self, line: u64) -> (usize, u64) {
        (
            (line & self.set_mask) as usize,
            line >> self.set_mask.count_ones(),
        )
    }

    fn access(&mut self, line: u64, write: bool) -> bool {
        let (set, tag) = self.split(line);
        self.sets[set].lookup(tag, write)
    }

    fn probe(&self, line: u64) -> bool {
        let (set, tag) = self.split(line);
        self.sets[set].ways.iter().any(|w| w.valid && w.tag == tag)
    }

    fn fill(&mut self, line: u64, dirty: bool) -> Option<(u64, bool)> {
        let (set, tag) = self.split(line);
        let bits = self.set_mask.count_ones();
        self.sets[set]
            .fill(tag, dirty)
            .map(|(etag, ed)| ((etag << bits) | set as u64, ed))
    }
}

/// `Hierarchy`'s fill and write-back logic over the reference cache.
struct RefHierarchy {
    l1i: RefCache,
    l1d: RefCache,
    l2: RefCache,
    llc: RefCache,
    prefetcher: StridePrefetcher,
    stats: HierarchyStats,
}

impl RefHierarchy {
    fn new(cfg: MemConfig) -> Self {
        RefHierarchy {
            l1i: RefCache::new(CacheConfig::from_kb(u64::from(cfg.l1i_kb), 4)),
            l1d: RefCache::new(CacheConfig::from_kb(u64::from(cfg.l1d_kb), 4)),
            l2: RefCache::new(CacheConfig::from_kb(u64::from(cfg.l2_kb), 8)),
            llc: RefCache::new(CacheConfig::from_kb(u64::from(LLC_KB), 16)),
            prefetcher: StridePrefetcher::new(8, cfg.prefetch_degree),
            stats: HierarchyStats::default(),
        }
    }

    fn fill_data_path(&mut self, line: u64) {
        if let Some((evicted, true)) = self.l1d.fill(line, false) {
            if !self.l2.access(evicted, true) {
                self.l2.fill(evicted, true);
            }
        }
        if !self.l2.probe(line) {
            if let Some((evicted, true)) = self.l2.fill(line, false) {
                if !self.llc.access(evicted, true) {
                    self.llc.fill(evicted, true);
                }
            }
        }
        if !self.llc.probe(line) {
            self.llc.fill(line, false);
        }
    }

    fn access_data(&mut self, addr: u64, write: bool, pc: Option<u64>) -> CacheLevel {
        let line = addr / LINE_BYTES;
        let level = if self.l1d.access(line, write) {
            self.stats.d_l1 += 1;
            CacheLevel::L1
        } else if self.l2.access(line, false) {
            self.stats.d_l2 += 1;
            self.fill_l1d(line, write);
            CacheLevel::L2
        } else if self.llc.access(line, false) {
            self.stats.d_llc += 1;
            self.l2_fill(line);
            self.fill_l1d(line, write);
            CacheLevel::Llc
        } else {
            self.stats.d_ram += 1;
            self.llc.fill(line, false);
            self.l2_fill(line);
            self.fill_l1d(line, write);
            CacheLevel::Ram
        };
        if let Some(pc) = pc {
            for t in self.prefetcher.observe(pc, addr) {
                if !self.l1d.probe(t) {
                    self.stats.prefetches += 1;
                    self.fill_data_path(t);
                }
            }
        }
        level
    }

    fn fill_l1d(&mut self, line: u64, write: bool) {
        if let Some((evicted, true)) = self.l1d.fill(line, write) {
            if !self.l2.access(evicted, true) {
                self.l2.fill(evicted, true);
            }
        }
    }

    fn l2_fill(&mut self, line: u64) {
        if let Some((evicted, true)) = self.l2.fill(line, false) {
            if !self.llc.access(evicted, true) {
                self.llc.fill(evicted, true);
            }
        }
    }

    fn access_inst(&mut self, pc: u64) -> CacheLevel {
        let line = pc / LINE_BYTES;
        if self.l1i.access(line, false) {
            self.stats.i_l1 += 1;
            return CacheLevel::L1;
        }
        let level = if self.l2.access(line, false) {
            self.stats.i_l2 += 1;
            CacheLevel::L2
        } else if self.llc.access(line, false) {
            self.stats.i_llc += 1;
            self.l2_fill(line);
            CacheLevel::Llc
        } else {
            self.stats.i_ram += 1;
            self.llc.fill(line, false);
            self.l2_fill(line);
            CacheLevel::Ram
        };
        self.l1i.fill(line, false);
        level
    }
}

/// One cache operation: `kind` 0 = access, 1 = probe, 2 = fill.
type Op = (u8, u64, bool, u8);

fn run_ops(n_sets: usize, assoc: u32, ops: &[Op]) {
    let config = CacheConfig {
        size_bytes: (n_sets as u64) * u64::from(assoc) * LINE_BYTES,
        assoc,
    };
    let mut flat = Cache::new(config);
    let mut reference = RefCache::new(config);
    assert_eq!(flat.num_sets(), n_sets);
    // Three lines per way keep sets contended, so evictions are frequent;
    // one op in sixteen uses a full 58-bit line to exercise the tag bits.
    let span = 3 * n_sets as u64 * u64::from(assoc);
    let mut touched = Vec::new();
    for (i, &(kind, raw, flag, wide)) in ops.iter().enumerate() {
        let line = if wide == 0 { raw >> 6 } else { raw % span };
        touched.push(line);
        match kind {
            0 => assert_eq!(
                flat.access(line, flag),
                reference.access(line, flag),
                "op {i}: access({line:#x}, {flag})"
            ),
            1 => assert_eq!(
                flat.probe(line),
                reference.probe(line),
                "op {i}: probe({line:#x})"
            ),
            _ => assert_eq!(
                flat.fill(line, flag),
                reference.fill(line, flag),
                "op {i}: fill({line:#x}, {flag})"
            ),
        }
    }
    for line in touched {
        assert_eq!(flat.probe(line), reference.probe(line), "final {line:#x}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Random geometry, random access/probe/fill sequences.
    #[test]
    fn flat_cache_matches_per_set_reference(
        set_bits in 0u32..9,
        assoc_bits in 0u32..5,
        ops in proptest::collection::vec((0u8..3, any::<u64>(), any::<bool>(), 0u8..16), 0..2_000),
    ) {
        run_ops(1 << set_bits, 1 << assoc_bits, &ops);
    }
}

/// Fills every way of every set before any hit, so the PLRU walk (not the
/// first-invalid rule) picks every victim from the first eviction on.
#[test]
fn saturated_sets_evict_identically() {
    for assoc in [1u32, 2, 4, 8, 16] {
        let ops: Vec<Op> = (0..4_000u64)
            .map(|i| {
                let line = (i * 7) % (32 * u64::from(assoc) * 2);
                ((i % 3) as u8, line, i % 5 == 0, 1)
            })
            .collect();
        run_ops(32, assoc, &ops);
    }
}

#[test]
fn hierarchy_matches_reference_on_suite_traces() {
    let n1 = MicroArch::arm_n1().mem;
    let configs = [
        n1,
        MemConfig {
            prefetch_degree: 4,
            ..n1
        },
        MicroArch::big_core().mem,
        MemConfig {
            l1i_kb: 16,
            l1d_kb: 16,
            l2_kb: 512,
            prefetch_degree: 4,
        },
    ];
    let mut prefetches = 0;
    for id in ["S1", "S5", "S10", "O1", "P3"] {
        let trace = generate_region(&by_id(id).unwrap(), 0, 0, 12_000);
        for cfg in configs {
            let mut flat = Hierarchy::new(cfg);
            let mut reference = RefHierarchy::new(cfg);
            for (k, i) in trace.instrs.iter().enumerate() {
                assert_eq!(
                    flat.access_inst(i.pc),
                    reference.access_inst(i.pc),
                    "{id} {cfg:?} instr {k}: fetch"
                );
                let (write, pc) = if i.op.is_load() {
                    (false, Some(i.pc))
                } else if i.op.is_store() {
                    (true, None)
                } else {
                    continue;
                };
                assert_eq!(
                    flat.access_data(i.mem_addr, write, pc),
                    reference.access_data(i.mem_addr, write, pc),
                    "{id} {cfg:?} instr {k}: data"
                );
            }
            assert_eq!(flat.stats(), reference.stats, "{id} {cfg:?}");
            prefetches += flat.stats().prefetches;
        }
    }
    assert!(prefetches > 0, "the prefetcher-on configs must prefetch");
}
