//! Proves `Hierarchy::new` makes a small, size-independent number of heap
//! allocations: one flat array per cache level plus the prefetcher table,
//! never one vector per set. Kept in its own integration test binary so no
//! other test's allocations race with the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use concorde_suite::prelude::*;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn allocs_of_new(cfg: MemConfig) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    let h = Hierarchy::new(cfg);
    let after = ALLOCS.load(Ordering::SeqCst);
    drop(h);
    after - before
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
