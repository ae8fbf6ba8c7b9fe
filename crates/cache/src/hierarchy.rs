//! The functional cache hierarchy: private L1i/L1d, unified L2, fixed 4 MB LLC.
//!
//! All caches are write-back / write-allocate (paper footnote 2). The hierarchy
//! classifies each access with the [`CacheLevel`] it hits at and performs the
//! fills and (functional) write-backs a real hierarchy would; the level is all
//! downstream consumers need, since timing maps levels to fixed latencies.
//!
//! Every level is a flat [`Cache`] (one zeroed array of PLRU words and packed
//! ways, see [`crate::set`]), so [`Hierarchy::new`] makes five heap
//! allocations — four caches and the prefetcher table — whatever the sizes.
//! Each trace analysis and each simulation builds a fresh hierarchy, so this
//! fixed cost is paid once per region and memory configuration.

use crate::config::{CacheConfig, CacheLevel, MemConfig, LLC_KB};
use crate::prefetch::StridePrefetcher;
use crate::set::Cache;

/// Functional three-level hierarchy with an L1d stride prefetcher.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    llc: Cache,
    prefetcher: StridePrefetcher,
    stats: HierarchyStats,
}

/// Access counters per level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Data accesses that hit in L1d.
    pub d_l1: u64,
    /// Data accesses that hit in L2.
    pub d_l2: u64,
    /// Data accesses that hit in LLC.
    pub d_llc: u64,
    /// Data accesses that went to memory.
    pub d_ram: u64,
    /// Instruction accesses per level.
    pub i_l1: u64,
    /// Instruction accesses that hit in L2.
    pub i_l2: u64,
    /// Instruction accesses that hit in LLC.
    pub i_llc: u64,
    /// Instruction accesses that went to memory.
    pub i_ram: u64,
    /// Prefetch fills issued into L1d.
    pub prefetches: u64,
}

impl Hierarchy {
    /// Builds a hierarchy for `cfg` (L1s 4-way, L2 8-way, LLC 16-way).
    pub fn new(cfg: MemConfig) -> Self {
        Hierarchy {
            l1i: Cache::new(CacheConfig::from_kb(u64::from(cfg.l1i_kb), 4)),
            l1d: Cache::new(CacheConfig::from_kb(u64::from(cfg.l1d_kb), 4)),
            l2: Cache::new(CacheConfig::from_kb(u64::from(cfg.l2_kb), 8)),
            llc: Cache::new(CacheConfig::from_kb(u64::from(LLC_KB), 16)),
            prefetcher: StridePrefetcher::new(8, cfg.prefetch_degree),
            stats: HierarchyStats::default(),
        }
    }

    fn fill_data_path(&mut self, line: u64) {
        // Fill inward; dirty evictions write back (functionally: install below).
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

    /// Classifies a data access to `addr`; `write` marks the L1d line dirty.
    /// `pc` feeds the stride prefetcher (loads only — pass `None` for stores).
    pub fn access_data(&mut self, addr: u64, write: bool, pc: Option<u64>) -> CacheLevel {
        let line = addr / crate::LINE_BYTES;
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
            let targets = self.prefetcher.observe(pc, addr);
            for t in targets {
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

    /// Classifies an instruction fetch of the line containing `pc`.
    pub fn access_inst(&mut self, pc: u64) -> CacheLevel {
        let line = pc / crate::LINE_BYTES;
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

    /// Accumulated per-level counters.
    pub fn stats(&self) -> HierarchyStats {
        self.stats
    }

    /// Zeroes the counters (e.g. after a functional warmup phase) without
    /// touching cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = HierarchyStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MemConfig {
        MemConfig {
            l1i_kb: 16,
            l1d_kb: 16,
            l2_kb: 512,
            prefetch_degree: 0,
        }
    }

    #[test]
    fn first_touch_misses_everywhere_then_hits_l1() {
        let mut h = Hierarchy::new(cfg());
        assert_eq!(h.access_data(0x10_0000, false, None), CacheLevel::Ram);
        assert_eq!(h.access_data(0x10_0000, false, None), CacheLevel::L1);
        assert_eq!(
            h.access_data(0x10_0010, false, None),
            CacheLevel::L1,
            "same line"
        );
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let mut h = Hierarchy::new(cfg());
        // 16 KiB L1d, 4-way, 64 sets. Touch 5 lines mapping to set 0.
        let set_stride = 64u64 * 64; // one full pass of sets
        for i in 0..5u64 {
            h.access_data(i * set_stride, false, None);
        }
        // First line fell out of L1 but sits in L2.
        assert_eq!(h.access_data(0, false, None), CacheLevel::L2);
    }

    #[test]
    fn bigger_l1_hits_more() {
        let small = MemConfig {
            l1d_kb: 16,
            ..cfg()
        };
        let big = MemConfig {
            l1d_kb: 256,
            ..cfg()
        };
        let addrs: Vec<u64> = (0..2000u64).map(|i| (i * 64) % (128 * 1024)).collect();
        let run = |c: MemConfig| {
            let mut h = Hierarchy::new(c);
            for _ in 0..3 {
                for &a in &addrs {
                    h.access_data(a, false, None);
                }
            }
            h.stats().d_l1
        };
        assert!(run(big) > run(small));
    }

    #[test]
    fn inst_and_data_share_l2() {
        let mut h = Hierarchy::new(cfg());
        assert_eq!(h.access_inst(0x40_0000), CacheLevel::Ram);
        assert_eq!(h.access_inst(0x40_0000), CacheLevel::L1);
        // Data access to the same line: L1d misses, L2 hits (unified L2).
        assert_eq!(h.access_data(0x40_0000, false, None), CacheLevel::L2);
    }

    #[test]
    fn prefetcher_converts_stream_misses_into_hits() {
        let on = MemConfig {
            prefetch_degree: 4,
            ..cfg()
        };
        let off = cfg();
        let run = |c: MemConfig| {
            let mut h = Hierarchy::new(c);
            let mut ram = 0;
            for i in 0..4000u64 {
                if h.access_data(0x20_0000 + i * 64, false, Some(0x400)) == CacheLevel::Ram {
                    ram += 1;
                }
            }
            (ram, h.stats().prefetches)
        };
        let (ram_off, pf_off) = run(off);
        let (ram_on, pf_on) = run(on);
        assert_eq!(pf_off, 0);
        assert!(pf_on > 1000, "prefetcher should fire on a pure stream");
        assert!(
            ram_on < ram_off / 2,
            "demand RAM accesses {ram_on} vs {ram_off}"
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut h = Hierarchy::new(cfg());
        for i in 0..100u64 {
            h.access_data(i * 64, false, None);
            h.access_inst(0x40_0000 + i * 4);
        }
        let s = h.stats();
        assert_eq!(s.d_l1 + s.d_l2 + s.d_llc + s.d_ram, 100);
        assert_eq!(s.i_l1 + s.i_l2 + s.i_llc + s.i_ram, 100);
    }
}
