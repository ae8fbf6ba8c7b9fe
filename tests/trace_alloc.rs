//! Proves the trace walker's heap allocations scale with the number of
//! segments a region spans, not with the branches it executes: a segment's
//! walker allocates its pattern cursors and branch counters once, and an
//! executed indirect branch allocates nothing. Allocations are counted per
//! thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use concorde_suite::prelude::*;
use concorde_suite::trace::{build_static_program, BranchKind, SEGMENT_LEN};

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

/// Allocations a segment's walker may make: its pattern cursors and its
/// branch counters.
const PER_SEGMENT: u64 = 2;

#[test]
fn region_allocations_scale_with_segments_not_branches() {
    for id in ["S4", "S10", "C1"] {
        let spec = by_id(id).unwrap();
        let program = allocs_of(|| build_static_program(&spec, 1));
        for segments in [1usize, 8] {
            let len = segments * SEGMENT_LEN as usize;
            let region = generate_region(&spec, 1, 3 * SEGMENT_LEN, len);
            let indirect = region
                .instrs
                .iter()
                .filter(|i| i.op == OpClass::Branch(BranchKind::Indirect))
                .count() as u64;
            let walk = allocs_of(|| generate_region(&spec, 1, 3 * SEGMENT_LEN, len)) - program;
            // Two more: the instruction vector and the region's workload id.
            let bound = PER_SEGMENT * segments as u64 + 2;
            assert!(
                walk <= bound,
                "{id}, {segments} segments: {walk} walker allocations > {bound} \
                 ({indirect} indirect branches executed)"
            );
            if segments == 8 {
                assert!(
                    indirect > 10 * bound,
                    "{id}: too few indirect branches ({indirect}) for the bound to bite"
                );
            }
        }
    }
}
