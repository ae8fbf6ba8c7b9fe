//! Proves `FeatureStore::features_into` performs **zero heap allocations**
//! per call, via a counting global allocator. Kept in its own integration
//! test binary so no other test's allocations race with the counters.

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

#[test]
fn features_into_allocates_nothing() {
    let profile = ReproProfile::quick();
    let spec = by_id("S5").unwrap();
    let full = generate_region(&spec, 0, 0, profile.warmup_len + profile.region_len);
    let (w, r) = full.instrs.split_at(profile.warmup_len);
    let n1 = MicroArch::arm_n1();
    let big = MicroArch::big_core();
    let store = FeatureStore::precompute(w, r, &SweepConfig::for_pair(&big, &n1), &profile);
    let mut off = n1;
    off.rob_size = 200;
    off.lq_size = 40;
    off.alu_width = 5;

    for arch in [n1, big, off] {
        for v in [
            FeatureVariant::Base,
            FeatureVariant::BaseBranch,
            FeatureVariant::Full,
        ] {
            let mut buf = vec![0.0f32; FeatureSchema::dim_for(profile.encoding, v)];
            // Warm once (first call has nothing left to lazily set up, but
            // keep the measurement honest anyway).
            store.features_into(&arch, v, &mut buf);
            let before = ALLOCS.load(Ordering::SeqCst);
            for _ in 0..16 {
                store.features_into(&arch, v, &mut buf);
            }
            let after = ALLOCS.load(Ordering::SeqCst);
            assert_eq!(
                after - before,
                0,
                "features_into allocated {} times for {v:?}",
                after - before
            );
        }
    }
}
