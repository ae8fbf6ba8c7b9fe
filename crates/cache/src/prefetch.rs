//! PC-indexed stride prefetcher for the L1 data cache (Table 1: degree 0/4).

use crate::LINE_BYTES;

#[derive(Debug, Clone, Copy, Default)]
struct StrideEntry {
    pc: u64,
    last_addr: u64,
    stride: i64,
    confidence: u8,
}

/// Classic reference-prediction-table stride prefetcher.
///
/// On each load, the entry for the load's PC compares the new stride against
/// the recorded one; after two confirmations it emits `degree` prefetch
/// addresses ahead of the access stream.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    table: Vec<StrideEntry>,
    degree: u32,
}

impl StridePrefetcher {
    /// Creates a prefetcher with `2^bits` table entries and the given degree.
    /// Degree 0 disables prefetching entirely.
    pub fn new(bits: usize, degree: u32) -> Self {
        StridePrefetcher {
            table: vec![StrideEntry::default(); 1 << bits],
            degree,
        }
    }

    /// Prefetch degree (0 = off).
    pub fn degree(&self) -> u32 {
        self.degree
    }

    /// Observes a load at `pc` touching `addr`; returns the line indices to
    /// prefetch (empty when off or unconfirmed) as an iterator that borrows
    /// nothing and allocates nothing.
    pub fn observe(&mut self, pc: u64, addr: u64) -> PrefetchTargets {
        let mut out = PrefetchTargets::default();
        if self.degree == 0 {
            return out;
        }
        let idx = ((pc >> 2) as usize) & (self.table.len() - 1);
        let e = &mut self.table[idx];
        if e.pc == pc {
            let stride = addr as i64 - e.last_addr as i64;
            if stride == e.stride && stride != 0 {
                e.confidence = (e.confidence + 1).min(3);
            } else {
                e.confidence = e.confidence.saturating_sub(1);
                if e.confidence == 0 {
                    e.stride = stride;
                }
            }
            e.last_addr = addr;
            if e.confidence >= 2 && e.stride != 0 {
                out = PrefetchTargets {
                    addr: addr as i64,
                    stride: e.stride,
                    k: 0,
                    degree: i64::from(self.degree),
                };
            }
        } else {
            *e = StrideEntry {
                pc,
                last_addr: addr,
                stride: 0,
                confidence: 0,
            };
        }
        out
    }
}

/// The lines one observed load prefetches: `(addr + stride·k) / LINE_BYTES`
/// for `k = 1..=degree`, skipping negative targets.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrefetchTargets {
    addr: i64,
    stride: i64,
    k: i64,
    degree: i64,
}

impl Iterator for PrefetchTargets {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        while self.k < self.degree {
            self.k += 1;
            let target = self.addr + self.stride * self.k;
            if target >= 0 {
                return Some(target as u64 / LINE_BYTES);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_emits_nothing() {
        let mut p = StridePrefetcher::new(6, 0);
        for i in 0..10u64 {
            assert_eq!(p.observe(0x100, i * 64).next(), None);
        }
    }

    #[test]
    fn constant_stride_confirms_and_prefetches_degree_lines() {
        let mut p = StridePrefetcher::new(6, 4);
        let mut emitted = Vec::new();
        for i in 0..8u64 {
            emitted = p.observe(0x100, 0x1000 + i * 128).collect::<Vec<_>>();
        }
        assert_eq!(emitted.len(), 4);
        // Last access at 0x1000 + 7*128; next prefetches 128B apart.
        let base = 0x1000u64 + 7 * 128;
        for (k, line) in emitted.iter().enumerate() {
            assert_eq!(*line, (base + 128 * (k as u64 + 1)) / 64);
        }
    }

    #[test]
    fn negative_targets_are_skipped() {
        let mut p = StridePrefetcher::new(6, 4);
        let mut emitted = Vec::new();
        for i in 0..8u64 {
            emitted = p.observe(0x100, 0x300 - i * 0x40).collect::<Vec<_>>();
        }
        // Last access at 0x300 - 7*0x40 = 0x140: targets 0x100, 0xc0, 0x80,
        // 0x40; a stream ending at 0x40 reaches line 0 and skips the rest.
        assert_eq!(emitted, [4, 3, 2, 1]);
        let mut p = StridePrefetcher::new(6, 4);
        for i in 0..8u64 {
            emitted = p.observe(0x100, 0x200 - i * 0x40).collect::<Vec<_>>();
        }
        assert_eq!(emitted, [0]);
    }

    #[test]
    fn random_strides_never_confirm() {
        let mut p = StridePrefetcher::new(6, 4);
        let addrs = [0x0u64, 0x4040, 0x80, 0x9000, 0x140, 0x2340];
        let mut total = 0;
        for &a in &addrs {
            total += p.observe(0x200, a).count();
        }
        assert_eq!(total, 0);
    }

    #[test]
    fn pc_collision_resets_entry() {
        let mut p = StridePrefetcher::new(2, 2); // tiny table to force aliasing
        for i in 0..6u64 {
            p.observe(0x100, 0x1000 + i * 64);
        }
        // Different pc, same slot: resets; no prefetch on first touches.
        assert_eq!(p.observe(0x100 + (4 << 2), 0x9000).next(), None);
    }
}
