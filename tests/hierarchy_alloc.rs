//! Proves `Hierarchy::new` makes a small, size-independent number of heap
//! allocations: one flat array per cache level plus the prefetcher table,
//! never one vector per set — and that the stride prefetcher emits its
//! targets without allocating. Allocations are counted per thread, so the
//! tests in this binary do not race with each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use concorde_suite::prelude::*;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: allocations during thread teardown are simply not counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations the current thread makes while running `f` (its result is
/// dropped after the count is taken).
fn allocs_of<R>(f: impl FnOnce() -> R) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    let after = ALLOCS.with(Cell::get);
    drop(out);
    after - before
}

fn allocs_of_new(cfg: MemConfig) -> u64 {
    allocs_of(|| Hierarchy::new(cfg))
}

#[test]
fn hierarchy_new_allocates_a_constant_handful() {
    // The largest Table 1 configuration: 4096 LLC sets, 4096 L2 sets and
    // 1024 sets in each L1.
    let largest = MemConfig {
        l1i_kb: 256,
        l1d_kb: 256,
        l2_kb: 4096,
        prefetch_degree: 4,
    };
    let smallest = MemConfig {
        l1i_kb: 16,
        l1d_kb: 16,
        l2_kb: 512,
        prefetch_degree: 0,
    };
    let big = allocs_of_new(largest);
    assert!(
        big <= 8,
        "Hierarchy::new made {big} allocations at the largest Table 1 sizes"
    );
    assert_eq!(
        big,
        allocs_of_new(smallest),
        "the allocation count must not grow with cache size"
    );
}

#[test]
fn prefetching_allocates_nothing_per_load() {
    // S2 streams through memory (hundreds of confirmed-stride prefetches
    // per region) and C1 prefetches a few dozen times: with degree 4 the
    // simulation must make exactly as many allocations as with degree 0.
    for id in ["S2", "C1"] {
        let region = generate_region(&by_id(id).unwrap(), 0, 0, 8192);
        let cfg = |prefetch_degree| MemConfig {
            prefetch_degree,
            ..MicroArch::arm_n1().mem
        };
        assert!(
            simulate_inorder(&region.instrs, cfg(4)).stats.prefetches > 0,
            "{id} must exercise the prefetcher"
        );
        let (off, on) = (
            allocs_of(|| simulate_inorder(&region.instrs, cfg(0))),
            allocs_of(|| simulate_inorder(&region.instrs, cfg(4))),
        );
        assert!(
            on <= off,
            "{id}: simulate_inorder made {on} allocations with prefetch degree 4 vs {off} with degree 0"
        );
    }
}
