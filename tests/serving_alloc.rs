//! Proves the serving warm path performs **zero heap allocations** per
//! request, end to end: wire decode ([`decode_request_line`]) → bulk slot
//! submission ([`Client::predict_batch_into`]) → sharded dispatch → batched
//! feature assembly and MLP forward → slot delivery → reply encode
//! ([`PredictResponse::encode_json_into`]).
//!
//! Everything reusable is caller- or worker-owned scratch: request/response
//! buffers, response slots, group maps, assembly plans, kernel workspaces,
//! the encode `String`. After a warm-up phase (which *is* allowed to
//! allocate — slab growth, cache fill, capacity discovery) the counting
//! allocator must observe zero allocations across many full round trips.
//!
//! Own test binary so no other test's allocations race the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use concorde_suite::prelude::*;
use concorde_suite::serve::protocol::decode_request_line;
use concorde_suite::serve::BatchScratch;

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

/// One wire batch: eight requests against two distinct (cached)
/// microarchitectures of the same workload, so the warm path exercises
/// grouping, dedup, and multi-row batched assembly — not just a
/// single-request fast case.
const LINE: &str = r#"[{"id":1,"workload":"S5"},{"id":2,"workload":"S5","arch":{"rob":160}},{"id":3,"workload":"S5"},{"id":4,"workload":"S5","arch":{"rob":160}},{"id":5,"workload":"S5"},{"id":6,"workload":"S5"},{"id":7,"workload":"S5","arch":{"rob":160}},{"id":8,"workload":"S5"}]"#;

#[test]
fn warm_serving_round_trip_allocates_nothing() {
    let mut profile = ReproProfile::quick();
    profile.region_len = 2_048;
    profile.warmup_len = 2_048;
    profile.epochs = 2;
    let data = generate_dataset(&DatasetConfig {
        profile: profile.clone(),
        n: 16,
        seed: 11,
        arch: ArchSampling::Random,
        workloads: Some(vec![15]),
        threads: 0,
    });
    let model = train_model(&data, &profile, &TrainOptions::default());
    let service = PredictionService::start(
        model,
        profile,
        ServeConfig {
            workers: 1,
            precompute_workers: 1,
            max_batch: 8,
            ..ServeConfig::default()
        },
    );
    let client = service.client();

    let mut reqs: Vec<PredictRequest> = Vec::new();
    let mut out: Vec<PredictResponse> = Vec::new();
    let mut scratch = BatchScratch::default();
    let mut reply = String::new();

    let round = |reqs: &mut Vec<PredictRequest>,
                 scratch: &mut BatchScratch,
                 out: &mut Vec<PredictResponse>,
                 reply: &mut String| {
        decode_request_line(LINE, reqs).expect("fast decode");
        client
            .predict_batch_into(reqs, scratch, out)
            .expect("predict batch");
        assert_eq!(out.len(), 8);
        reply.clear();
        reply.push('[');
        for (i, resp) in out.iter().enumerate() {
            assert!(resp.error.is_none(), "unexpected error: {:?}", resp.error);
            if i > 0 {
                reply.push(',');
            }
            resp.encode_json_into(reply);
        }
        reply.push(']');
    };

    // Warm-up: fill the feature-store cache, grow the slot slab, queue
    // shards, group maps, kernel scratch, and the encode buffer to
    // steady-state capacity.
    for _ in 0..50 {
        round(&mut reqs, &mut scratch, &mut out, &mut reply);
    }
    // Bitwise-stable answers to re-check after measuring (`micros` varies
    // per round, so pin the CPI bits rather than the encoded reply).
    let golden: Vec<u64> = out
        .iter()
        .map(|r| r.cpi.expect("warm response has cpi").to_bits())
        .collect();
    // Let the precompute pool go fully quiescent before counting.
    std::thread::sleep(Duration::from_millis(50));

    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..100 {
        round(&mut reqs, &mut scratch, &mut out, &mut reply);
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "warm serving path allocated {} times across 100 round trips",
        after - before
    );
    // And the answers stayed bitwise identical while we were at it.
    let final_cpis: Vec<u64> = out
        .iter()
        .map(|r| r.cpi.expect("warm response has cpi").to_bits())
        .collect();
    assert_eq!(final_cpis, golden);
}
