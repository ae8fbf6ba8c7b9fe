//! A set-associative cache with tree-PLRU replacement, stored flat.
//!
//! The replacement policy mirrors gem5's `TreePLRURP` (paper footnote 2):
//! each set keeps a binary tree of direction bits over its ways; an access
//! flips the bits on its root-to-leaf path to point *away* from the touched
//! way, and the victim is the first invalid way if there is one, else the
//! leaf found by following the bits from the root.
//!
//! # Layout
//!
//! A [`Cache`] is one heap allocation, independent of its size: `n_sets`
//! blocks of `assoc + 1` `u64` words, set-major. Word 0 of a block holds the
//! set's PLRU tree bits (`assoc - 1` of them, LSB-first in heap order, node 0
//! = root); words `1..=assoc` are its ways. Each way packs its state into one
//! word: bit 63 is *valid*, bit 62 is *dirty* and the low bits are the tag.
//! The packing is lossless because a line index is a byte address divided by
//! 64, so `tag ≤ line < 2^58` never reaches the flag bits. An all-zero word
//! is an invalid way, so a fresh cache is a zeroed allocation.

use crate::config::CacheConfig;

/// Way flag: the way holds a line.
const VALID: u64 = 1 << 63;
/// Way flag: the line was written since it was filled.
const DIRTY: u64 = 1 << 62;
/// Line indices are byte addresses over 64-byte lines, so they fit 58 bits.
const LINE_BITS: u32 = 58;

/// A set-associative, write-back cache over 64-byte lines.
#[derive(Debug, Clone)]
pub struct Cache {
    /// `n_sets` blocks of `[tree, way_0, …, way_{assoc-1}]`.
    words: Box<[u64]>,
    /// Words per set block (`assoc + 1`).
    stride: usize,
    set_mask: u64,
    set_bits: u32,
}

impl Cache {
    /// Builds a cache from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the set count is not a power of two, or if the
    /// associativity is outside `1..=64` (one `u64` word holds a set's
    /// `assoc - 1` tree bits).
    pub fn new(config: CacheConfig) -> Self {
        let n = config.num_sets();
        assert!(n.is_power_of_two(), "set count {n} must be a power of two");
        let assoc = config.assoc as usize;
        assert!(
            (1..=64).contains(&assoc),
            "associativity {assoc} must be in 1..=64"
        );
        let stride = assoc + 1;
        Cache {
            words: vec![0u64; n * stride].into_boxed_slice(),
            stride,
            set_mask: n as u64 - 1,
            set_bits: n.trailing_zeros(),
        }
    }

    /// Splits `line` into its set index and the packed word a valid, clean
    /// copy of it would have.
    #[inline]
    fn split(&self, line: u64) -> (usize, u64) {
        // The packed ways depend on it: a wider tag would alias the flags.
        assert!(
            line >> LINE_BITS == 0,
            "line index {line:#x} exceeds 58 bits"
        );
        (
            (line & self.set_mask) as usize,
            VALID | (line >> self.set_bits),
        )
    }

    /// The PLRU word and the ways of `set`.
    #[inline]
    fn set_mut(&mut self, set: usize) -> (&mut u64, &mut [u64]) {
        let base = set * self.stride;
        self.words[base..base + self.stride]
            .split_first_mut()
            .expect("stride is at least 2")
    }

    /// Looks up `line` (a 64-byte-line index); returns `true` on hit and
    /// updates recency / dirty state.
    ///
    /// # Panics
    ///
    /// `access`, `probe` and `fill` panic if `line` is 2^58 or more, which
    /// no byte address divided by 64 can be.
    pub fn access(&mut self, line: u64, write: bool) -> bool {
        let (set, want) = self.split(line);
        let (tree, ways) = self.set_mut(set);
        match ways.iter().position(|&w| w & !DIRTY == want) {
            Some(i) => {
                if write {
                    ways[i] |= DIRTY;
                }
                touch(tree, i, ways.len());
                true
            }
            None => false,
        }
    }

    /// Checks for presence without updating replacement state.
    pub fn probe(&self, line: u64) -> bool {
        let (set, want) = self.split(line);
        let base = set * self.stride;
        self.words[base + 1..base + self.stride]
            .iter()
            .any(|&w| w & !DIRTY == want)
    }

    /// Installs `line`; returns the evicted line index and dirty flag, if any.
    pub fn fill(&mut self, line: u64, dirty: bool) -> Option<(u64, bool)> {
        let (set, want) = self.split(line);
        let set_bits = self.set_bits;
        let (tree, ways) = self.set_mut(set);
        let v = victim(*tree, ways);
        let old = ways[v];
        ways[v] = if dirty { want | DIRTY } else { want };
        touch(tree, v, ways.len());
        (old & VALID != 0).then(|| {
            let tag = old & !(VALID | DIRTY);
            ((tag << set_bits) | set as u64, old & DIRTY != 0)
        })
    }

    /// Number of sets (diagnostics).
    pub fn num_sets(&self) -> usize {
        self.words.len() / self.stride
    }
}

/// Marks `way` most-recently used by setting path bits away from it.
#[inline]
fn touch(tree: &mut u64, way: usize, assoc: usize) {
    let mut node = 0usize; // heap index
    let mut lo = 0usize;
    let mut hi = assoc;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if way < mid {
            // Went left: point the bit right (1 = right is LRU side).
            *tree |= 1 << node;
            node = 2 * node + 1;
            hi = mid;
        } else {
            *tree &= !(1 << node);
            node = 2 * node + 2;
            lo = mid;
        }
    }
}

/// Victim way: the first invalid way, else the leaf the PLRU bits point at.
#[inline]
fn victim(tree: u64, ways: &[u64]) -> usize {
    if let Some(i) = ways.iter().position(|&w| w & VALID == 0) {
        return i;
    }
    let mut node = 0usize;
    let mut lo = 0usize;
    let mut hi = ways.len();
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if tree & (1 << node) != 0 {
            // Bit points right: LRU is on the right subtree.
            node = 2 * node + 2;
            lo = mid;
        } else {
            node = 2 * node + 1;
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;

    fn tiny() -> Cache {
        // 4 sets x 4 ways x 64B = 1 KiB
        Cache::new(CacheConfig {
            size_bytes: 1024,
            assoc: 4,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(5, false));
        c.fill(5, false);
        assert!(c.access(5, false));
        assert!(c.probe(5));
        assert!(!c.probe(6));
    }

    #[test]
    fn eviction_returns_old_line() {
        let mut c = tiny();
        // Fill one set (lines congruent mod 4) beyond capacity.
        let lines: Vec<u64> = (0..5).map(|i| i * 4).collect();
        let mut evicted = None;
        for &l in &lines {
            if let Some(e) = c.fill(l, false) {
                evicted = Some(e);
            }
        }
        let (eline, dirty) = evicted.expect("fifth fill must evict");
        assert!(!dirty);
        assert!(lines.contains(&eline));
        assert!(!c.probe(eline), "evicted line no longer present");
    }

    #[test]
    fn plru_protects_recently_used() {
        let mut c = tiny();
        for i in 0..4u64 {
            c.fill(i * 4, false);
        }
        // Touch line 0 repeatedly: it must survive the next eviction.
        c.access(0, false);
        let (evicted, _) = c.fill(16, false).unwrap();
        assert_ne!(evicted, 0, "MRU line must not be the PLRU victim");
        assert!(c.probe(0));
    }

    #[test]
    fn dirty_propagates_through_eviction() {
        let mut c = tiny();
        c.fill(4, false);
        c.access(4, true); // make dirty
        let mut evicted = Vec::new();
        for i in 1..5u64 {
            evicted.extend(c.fill(4 + i * 4, false));
        }
        assert!(!c.probe(4));
        assert!(
            evicted.contains(&(4, true)),
            "line 4 must leave dirty: {evicted:?}"
        );
    }

    #[test]
    fn tags_disambiguate_same_set() {
        let mut c = tiny();
        c.fill(0, false);
        assert!(!c.access(4, false), "same set, different tag");
        assert!(c.access(0, false));
    }

    #[test]
    fn largest_line_round_trips_through_eviction() {
        // A 58-bit line index keeps its tag bits clear of the flag bits.
        let mut c = tiny();
        let top = (1u64 << LINE_BITS) - 1;
        c.fill(top, true);
        assert!(c.probe(top));
        let mut evicted = Vec::new();
        for i in 1..5u64 {
            evicted.extend(c.fill(top - i * 4, false));
        }
        assert_eq!(evicted, [(top, true)]);
    }

    #[test]
    #[should_panic(expected = "exceeds 58 bits")]
    fn rejects_lines_wider_than_an_address() {
        tiny().fill(1 << LINE_BITS, false);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_sets() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 3 * 64 * 2,
            assoc: 2,
        });
    }
}
