//! End-to-end tests of the `concorde-serve` engine: served predictions must
//! equal direct `ConcordePredictor::predict` results exactly, across mixed
//! workloads, and the TCP protocol must round-trip.

use std::io::{BufRead, BufReader, Write};
use std::time::Duration;

use concorde_suite::core::cache::{sweep_content_hash, FeatureKey};
use concorde_suite::prelude::*;

/// Small but real model + profile shared by the tests (trained once).
fn tiny_service_parts() -> (ConcordePredictor, ReproProfile) {
    let mut profile = ReproProfile::quick();
    profile.region_len = 2_048;
    profile.warmup_len = 2_048;
    profile.epochs = 2;
    let data = generate_dataset(&DatasetConfig {
        profile: profile.clone(),
        n: 16,
        seed: 11,
        arch: ArchSampling::Random,
        workloads: Some(vec![15, 20]),
        threads: 0,
    });
    let model = train_model(&data, &profile, &TrainOptions::default());
    (model, profile)
}

fn quick_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        max_batch: 64,
        ..ServeConfig::default()
    }
}

#[test]
fn served_predictions_equal_direct_predictions() {
    let (model, profile) = tiny_service_parts();
    let direct_model = model.clone();
    let service = PredictionService::start(model, profile.clone(), quick_config());
    let client = service.client();

    // Mixed workloads × architectures, ids interleaved.
    let workloads = ["S5", "O1", "C1"];
    let mut specs = Vec::new();
    for rob in [64u32, 256] {
        let mut s = ArchSpec::base("n1");
        s.rob = Some(rob);
        specs.push(s);
    }
    specs.push(ArchSpec::base("big"));
    let mut reqs: Vec<PredictRequest> = workloads
        .iter()
        .enumerate()
        .flat_map(|(wi, w)| {
            specs
                .iter()
                .enumerate()
                .map(move |(si, spec)| PredictRequest {
                    id: (wi * 10 + si) as u64,
                    workload: (*w).into(),
                    arch: spec.clone(),
                    ..PredictRequest::default()
                })
        })
        .collect();
    // A mid-trace region: exercises the warmup-before-start convention.
    reqs.push(PredictRequest {
        id: 99,
        workload: "S5".into(),
        trace: 1,
        start: 8_192,
        arch: ArchSpec::base("n1"),
        ..PredictRequest::default()
    });

    let resps = client.predict_many(reqs.clone()).expect("batch prediction");
    assert_eq!(resps.len(), reqs.len());

    for (req, resp) in reqs.iter().zip(&resps) {
        assert_eq!(resp.id, req.id, "responses must come back in request order");
        let cpi = resp
            .cpi
            .unwrap_or_else(|| panic!("id {} errored: {:?}", resp.id, resp.error));

        // Rebuild the exact same store directly (dataset.rs region/warmup
        // convention: region at [start, start+len), warmup just before it)
        // and compare bitwise.
        let arch = req.arch.resolve().unwrap();
        let spec = by_id(&req.workload).unwrap();
        let warm_start = req.start.saturating_sub(profile.warmup_len as u64);
        let warm_len = (req.start - warm_start) as usize;
        let full = generate_region(&spec, req.trace, warm_start, warm_len + profile.region_len);
        let (w, r) = full.instrs.split_at(warm_len);
        let store = FeatureStore::precompute(w, r, &SweepConfig::for_arch(&arch), &profile);
        let direct = direct_model.predict(&store, &arch);
        assert_eq!(
            direct.to_bits(),
            cpi.to_bits(),
            "id {}: served {cpi} != direct {direct}",
            resp.id
        );
    }

    let m = service.metrics();
    assert_eq!(m.completed, reqs.len() as u64);
    assert_eq!(m.errored, 0);
    assert!(m.batches >= 1);
    assert!(
        m.cache_misses >= 1,
        "first touch of each group must precompute"
    );
}

#[test]
fn repeated_queries_hit_the_cache() {
    let (model, profile) = tiny_service_parts();
    let service = PredictionService::start(model, profile, quick_config());
    let client = service.client();
    let req = PredictRequest::new(1, "S5", ArchSpec::base("n1"));

    let first = client.predict(req.clone()).unwrap();
    assert!(!first.cached, "first query must precompute");
    let second = client.predict(req).unwrap();
    assert!(second.cached, "second query must reuse the cached store");
    assert_eq!(first.cpi.unwrap().to_bits(), second.cpi.unwrap().to_bits());

    let m = service.metrics();
    assert!(m.cache_hits >= 1);
}

#[test]
fn preloaded_artifact_makes_the_first_query_a_cache_hit() {
    let (model, profile) = tiny_service_parts();

    // Build the store offline, exactly as `concorde precompute` does.
    let arch = MicroArch::arm_n1();
    let sweep = SweepConfig::for_arch(&arch);
    let spec = by_id("S5").unwrap();
    let full = generate_region(&spec, 0, 0, profile.region_len);
    let store = FeatureStore::precompute(&[], &full.instrs, &sweep, &profile);
    let key = FeatureKey {
        workload: "S5".into(),
        trace: 0,
        start: 0,
        region_len: profile.region_len as u32,
        sweep_hash: sweep_content_hash(&sweep),
    };
    let path = std::env::temp_dir().join("concorde_preload_test.cfa");
    StoreArtifact::new(key, store).save(&path).unwrap();

    let service = PredictionService::start(model, profile, quick_config());
    let loaded_key = service.preload_artifact(&path).unwrap();
    assert_eq!(loaded_key.workload, "S5");
    std::fs::remove_file(&path).ok();

    // An artifact keyed to the quantized sweep can never be hit by this
    // per-arch server: preloading it must fail loudly, not go silently cold.
    // (Validation reads the key, so a cheap per-arch store body suffices.)
    let quantized_key = FeatureKey {
        sweep_hash: sweep_content_hash(&SweepConfig::quantized()),
        ..loaded_key.clone()
    };
    let tiny_profile = ReproProfile {
        region_len: 512,
        warmup_len: 0,
        ..ReproProfile::quick()
    };
    let tiny_region = generate_region(&spec, 0, 0, 512);
    let tiny_store = FeatureStore::precompute(&[], &tiny_region.instrs, &sweep, &tiny_profile);
    let bad_path = std::env::temp_dir().join("concorde_preload_mismatch.cfa");
    StoreArtifact::new(quantized_key, tiny_store)
        .save(&bad_path)
        .unwrap();
    let err = service.preload_artifact(&bad_path).unwrap_err();
    assert!(err.to_string().contains("quantized"), "{err}");
    std::fs::remove_file(&bad_path).ok();

    let client = service.client();
    let resp = client
        .predict(PredictRequest::new(1, "S5", ArchSpec::base("n1")))
        .unwrap();
    assert!(
        resp.cached,
        "first query against a preloaded region must skip the precompute"
    );
    let m = service.metrics();
    assert_eq!(m.cache_misses, 0);
    assert!(m.cache_hits >= 1);
}

#[test]
fn served_schema_names_every_block() {
    let (model, profile) = tiny_service_parts();
    let encoding = profile.encoding;
    let service = PredictionService::start(model, profile, quick_config());
    let schema = service.schema();
    assert_eq!(schema.version, SCHEMA_VERSION);
    assert_eq!(
        schema.dim(),
        FeatureSchema::dim_for(encoding, schema.variant)
    );
    for res in Resource::ALL {
        assert!(schema.block(res.name()).is_some(), "{res:?}");
    }
    assert!(schema.block("params").is_some());
    // The in-process client serves the identical schema.
    assert_eq!(service.client().schema(), schema);
}

#[test]
fn unknown_workload_and_bad_arch_error_cleanly() {
    let (model, profile) = tiny_service_parts();
    let service = PredictionService::start(model, profile, quick_config());
    let client = service.client();

    let bad_wl = client
        .predict(PredictRequest::new(7, "ZZ", ArchSpec::default()))
        .unwrap();
    assert!(bad_wl.cpi.is_none());
    assert!(bad_wl
        .error
        .as_deref()
        .unwrap_or("")
        .contains("unknown workload"));

    let bad_arch = client
        .predict(PredictRequest::new(8, "S5", ArchSpec::base("epyc")))
        .unwrap();
    assert!(bad_arch
        .error
        .as_deref()
        .unwrap_or("")
        .contains("unknown base arch"));

    // Zero-sized resources must be request errors, not worker panics: the
    // analytic models assert rob >= 1, and a panicking worker would shrink
    // the pool until the service wedged.
    let mut zero_rob = ArchSpec::base("n1");
    zero_rob.rob = Some(0);
    let bad_value = client
        .predict(PredictRequest::new(9, "S5", zero_rob))
        .unwrap();
    assert!(bad_value
        .error
        .as_deref()
        .unwrap_or("")
        .contains("out of range"));

    // Oversized region lengths are request errors, not multi-gigabyte
    // allocations inside a worker.
    let mut huge = PredictRequest::new(11, "S5", ArchSpec::base("n1"));
    huge.len = u32::MAX;
    let too_big = client.predict(huge).unwrap();
    assert!(too_big
        .error
        .as_deref()
        .unwrap_or("")
        .contains("exceeds the served maximum"));

    // The pool must still serve normal traffic afterwards.
    let ok = client
        .predict(PredictRequest::new(10, "S5", ArchSpec::base("n1")))
        .unwrap();
    assert!(
        ok.cpi.is_some(),
        "service must survive bad-value requests: {:?}",
        ok.error
    );

    let m = service.metrics();
    assert_eq!(m.errored, 4);
}

#[test]
fn concurrent_misses_coalesce_into_one_precompute() {
    // Single-flight deduplication: K concurrent misses on one FeatureKey
    // must trigger exactly one precompute, with every request answered from
    // the one build.
    let (model, profile) = tiny_service_parts();
    let service = PredictionService::start(
        model,
        profile,
        ServeConfig {
            workers: 4,
            // Every request becomes its own batch group, so the dedup must
            // happen at the in-flight registry, not the batch grouper.
            max_batch: 1,
            precompute_workers: 1,
            ..ServeConfig::default()
        },
    );
    let client = service.client();
    let rxs: Vec<_> = (0..8u64)
        .map(|i| {
            let mut r = PredictRequest::new(i, "S5", ArchSpec::base("n1"));
            r.id = i;
            client.submit(r).expect("submit")
        })
        .collect();
    let resps: Vec<PredictResponse> = rxs.into_iter().map(|rx| rx.recv().unwrap()).collect();
    let first = resps[0].cpi.expect("first response has a CPI");
    for (i, r) in resps.iter().enumerate() {
        assert_eq!(r.id, i as u64, "responses must match their submission ids");
        assert_eq!(
            r.cpi.expect("cpi").to_bits(),
            first.to_bits(),
            "all coalesced requests share the one store's prediction"
        );
    }
    let m = service.metrics();
    assert_eq!(
        m.precomputes, 1,
        "8 concurrent misses on one key must run exactly one precompute"
    );
    assert_eq!(m.cache_misses, 1, "only the registering group is a miss");
    assert_eq!(m.completed, 8);
    assert_eq!(m.parked, 0, "no request may remain parked after completion");
}

#[test]
fn hits_are_served_while_a_cold_miss_builds() {
    // The tentpole property: with ONE batch worker, a cold-region build on
    // the precompute pool must not stop that worker from answering cache
    // hits. If the worker built misses itself, this test would stall for
    // the whole precompute before the first warm response.
    let (model, profile) = tiny_service_parts();
    let direct_model = model.clone();
    let service = PredictionService::start(
        model,
        profile.clone(),
        ServeConfig {
            workers: 1,
            max_batch: 8,
            precompute_workers: 1,
            ..ServeConfig::default()
        },
    );
    let client = service.client();
    let warm = PredictRequest::new(0, "S5", ArchSpec::base("n1"));
    let warm_cpi = client.predict(warm.clone()).unwrap().cpi.unwrap();

    // A cold region big enough that its build dominates the warm loop below
    // (larger in release, where the precompute is fast enough that a small
    // region could land before the warm round trips finish).
    let mut cold = PredictRequest::new(1, "O1", ArchSpec::base("n1"));
    cold.start = 4096;
    cold.len = if cfg!(debug_assertions) {
        16_384
    } else {
        131_072
    };
    let cold_rx = client.submit(cold.clone()).unwrap();

    for i in 0..10u64 {
        let mut r = warm.clone();
        r.id = 10 + i;
        let resp = client.predict(r).unwrap();
        assert!(resp.cached, "warm requests must stay cache hits");
        assert_eq!(resp.cpi.unwrap().to_bits(), warm_cpi.to_bits());
    }
    assert!(
        cold_rx.try_recv().is_none(),
        "cold build finished before 10 warm hits — the hit path likely waited on the miss"
    );

    let cold_resp = cold_rx.recv().unwrap();
    assert!(!cold_resp.cached, "the cold request triggered the build");
    // The parked-and-re-enqueued path must still be bitwise identical to a
    // direct prediction over the same region/warmup convention.
    let arch = cold.arch.resolve().unwrap();
    let spec = by_id("O1").unwrap();
    let warm_start = cold.start - profile.warmup_len as u64;
    let full = generate_region(&spec, 0, warm_start, profile.warmup_len + cold.len as usize);
    let (w, r) = full.instrs.split_at(profile.warmup_len);
    let store = FeatureStore::precompute(w, r, &SweepConfig::for_arch(&arch), &profile);
    assert_eq!(
        cold_resp.cpi.unwrap().to_bits(),
        direct_model.predict(&store, &arch).to_bits()
    );
    let m = service.metrics();
    assert_eq!(m.parked, 0);
    assert_eq!(m.errored, 0);
}

#[test]
fn parked_requests_keep_their_ids_and_archs() {
    // K requests with distinct architectures and shuffled ids all park on
    // ONE quantized-store build; each response must carry its own id and its
    // own architecture's prediction (no cross-wiring through the park →
    // re-enqueue path).
    let (model, profile) = tiny_service_parts();
    let direct_model = model.clone();
    let service = PredictionService::start(
        model,
        profile.clone(),
        ServeConfig {
            workers: 2,
            // Small batches: the wave splits into several groups, so some
            // groups register the build and the rest coalesce onto it.
            max_batch: 2,
            sweep: SweepScope::Quantized,
            ..ServeConfig::default()
        },
    );
    let client = service.client();
    let robs = [64u32, 128, 256];
    let reqs: Vec<PredictRequest> = (0..9usize)
        .map(|i| {
            let mut spec = ArchSpec::base("n1");
            spec.rob = Some(robs[i % robs.len()]);
            let mut r = PredictRequest::new(100 - i as u64, "S5", spec);
            r.id = 100 - i as u64;
            r
        })
        .collect();
    let resps = client.predict_many(reqs.clone()).expect("batch prediction");

    // One quantized store serves every architecture; rebuild it directly.
    let spec = by_id("S5").unwrap();
    let full = generate_region(&spec, 0, 0, profile.region_len);
    let store = FeatureStore::precompute(&[], &full.instrs, &SweepConfig::quantized(), &profile);
    for (req, resp) in reqs.iter().zip(&resps) {
        assert_eq!(resp.id, req.id, "responses must match submission ids");
        let arch = req.arch.resolve().unwrap();
        let direct = direct_model.predict(&store, &arch);
        assert_eq!(
            resp.cpi.expect("cpi").to_bits(),
            direct.to_bits(),
            "id {}: parked response must match its own arch's prediction",
            resp.id
        );
    }
    let m = service.metrics();
    assert_eq!(m.precomputes, 1, "one key → one build, however many groups");
    assert_eq!(m.parked, 0);
}

#[test]
fn hot_cold_keys_build_before_lonely_ones() {
    // Miss-pool prioritization: with the single pool worker pinned on a held
    // build (A), a cold key with 3 parked requests (C) must build before a
    // cold key with 1 parked request (B) submitted *earlier* — parked-count
    // order, not FIFO. The third build (B's, in the right order) stalls for
    // seconds, so the order shows in answer latency by a wide margin rather
    // than by how fast the workers serve C's re-enqueued jobs.
    let (model, profile) = tiny_service_parts();
    let stall = Duration::from_secs(2);
    let faults = std::sync::Arc::new(
        concorde_suite::serve::FaultPlan::default()
            .hold_build_at(vec![1], Duration::from_secs(120))
            .slow_build_at(vec![3], stall),
    );
    let service = PredictionService::start(
        model,
        profile,
        ServeConfig {
            workers: 2,
            max_batch: 1,
            precompute_workers: 1,
            fault_plan: Some(std::sync::Arc::clone(&faults)),
            ..ServeConfig::default()
        },
    );
    let client = service.client();
    let mut a = PredictRequest::new(0, "S5", ArchSpec::base("n1"));
    a.len = if cfg!(debug_assertions) {
        16_384
    } else {
        131_072
    };
    let a_rx = client.submit(a).unwrap();
    // Two workers race to park A and B: A's build must be the one the pool
    // holds.
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    while {
        let m = service.metrics();
        m.miss_backlog > 0 || m.inflight_builds == 0
    } {
        assert!(std::time::Instant::now() < deadline, "A never built");
        std::thread::sleep(Duration::from_millis(2));
    }

    // B first (1 waiter), then C (3 waiters on one key).
    let mut b = PredictRequest::new(1, "O1", ArchSpec::base("n1"));
    b.start = 65_536;
    b.len = 512;
    let b_rx = client.submit(b).unwrap();
    let c_rxs: Vec<_> = (0..3u64)
        .map(|i| {
            let mut c = PredictRequest::new(10 + i, "C1", ArchSpec::base("n1"));
            c.start = 65_536;
            c.len = 512;
            client.submit(c).unwrap()
        })
        .collect();
    // The ordering below is only meaningful if B's and C's builds both
    // queue, with all five requests parked, while the pool is busy with A:
    // hold A until they have.
    while {
        let m = service.metrics();
        m.miss_backlog < 2 || m.parked < 5
    } {
        assert!(std::time::Instant::now() < deadline, "B and C never parked");
        std::thread::sleep(Duration::from_millis(2));
    }
    faults.release_held_builds();

    let b_resp = b_rx.recv().unwrap();
    let c_resps: Vec<PredictResponse> = c_rxs.into_iter().map(|rx| rx.recv().unwrap()).collect();
    let a_resp = a_rx.recv().unwrap();
    for r in c_resps.iter().chain([&b_resp, &a_resp]) {
        assert!(r.cpi.is_some(), "id {}: {:?}", r.id, r.error);
    }
    // `micros` is enqueue→response latency; B was enqueued *before* every
    // C, so B finishing after C implies strictly larger latency.
    let c_max = c_resps.iter().map(|r| r.micros).max().unwrap();
    assert!(
        b_resp.micros >= stall.as_micros() as u64,
        "B's must be the stalled third build (B {}µs, C max {}µs)",
        b_resp.micros,
        c_max
    );
    assert!(
        b_resp.micros > c_max,
        "the 3-waiter key must build before the earlier 1-waiter key \
         (B {}µs vs C max {}µs)",
        b_resp.micros,
        c_max
    );
    let m = service.metrics();
    assert_eq!(m.coalesced, 2, "C's extra requests must coalesce");
    assert_eq!(m.precomputes, 3, "three keys → three builds");
    assert_eq!(m.parked, 0);
}

#[test]
fn int8_serving_matches_f32_within_tolerance() {
    // `--encoding int8` end to end: the miss path quantizes built stores, the
    // schema + stats report it, and predictions stay within the drift bound
    // pinned by tests/quantization.rs.
    let (model, profile) = tiny_service_parts();
    let f32_model = model.clone();
    let service = PredictionService::start(
        model,
        profile.clone(),
        ServeConfig {
            store_encoding: ArenaEncoding::Int8,
            ..quick_config()
        },
    );
    let client = service.client();
    let req = PredictRequest::new(1, "S5", ArchSpec::base("n1"));
    let first = client.predict(req.clone()).unwrap();
    let cpi = first.cpi.expect("int8 serving must answer");
    // Reference: the same region through an f32 store, predicted directly.
    let arch = req.arch.resolve().unwrap();
    let spec = by_id("S5").unwrap();
    let full = generate_region(&spec, 0, 0, profile.region_len);
    let store =
        FeatureStore::precompute(&[], &full.instrs, &SweepConfig::for_arch(&arch), &profile);
    let direct = f32_model.predict(&store, &arch);
    assert!(
        (cpi - direct).abs() / direct < 0.05,
        "int8-served CPI {cpi} vs f32 direct {direct}"
    );
    // The quantized store is what's resident: it must be smaller than its
    // f32 equivalent would be.
    let stats = service.stats();
    assert_eq!(stats.store_encoding, Some(ArenaEncoding::Int8));
    // Strictly smaller resident footprint than the f32 equivalent (this
    // tiny 2048-instruction fixture is dominated by fixed struct overhead;
    // the ≥3× arena shrinkage is pinned in tests/quantization.rs).
    assert!(stats.cache.totals.bytes < store.approx_bytes());
    assert_eq!(service.schema().arena_encoding, ArenaEncoding::Int8);
    // Repeat queries hit the quantized store bitwise-stably.
    let second = client.predict(req).unwrap();
    assert!(second.cached);
    assert_eq!(second.cpi.unwrap().to_bits(), cpi.to_bits());
}

#[test]
fn stats_report_cache_occupancy_and_bytes() {
    let (model, profile) = tiny_service_parts();
    let service = PredictionService::start(
        model,
        profile,
        ServeConfig {
            workers: 2,
            cache_shards: 4,
            ..ServeConfig::default()
        },
    );
    let client = service.client();
    client
        .predict(PredictRequest::new(1, "S5", ArchSpec::base("n1")))
        .unwrap();
    let stats = service.stats();
    assert_eq!(stats.cache.shard_count, 4);
    assert_eq!(stats.cache.per_shard.len(), 4);
    assert_eq!(stats.cache.totals.stores, 1);
    assert!(
        stats.cache.totals.bytes > 0,
        "resident bytes must be tracked"
    );
    assert_eq!(stats.cache.budget_bytes, ServeConfig::default().cache_bytes);
    assert_eq!(
        stats.cache.per_shard.iter().map(|s| s.bytes).sum::<usize>(),
        stats.cache.totals.bytes,
        "per-shard occupancy must sum to the aggregate"
    );
    assert_eq!(stats.metrics.cache_stores, 1);
    assert_eq!(stats.metrics.cache_bytes, stats.cache.totals.bytes);
    assert_eq!(stats.workers, 2);
    assert!(stats.precompute_workers >= 1);
    assert_eq!(
        stats.kernel.as_deref(),
        Some(concorde_suite::ml::kernel_name())
    );
}

#[test]
fn connection_cap_returns_typed_busy_error() {
    use std::io::BufRead;

    let (model, profile) = tiny_service_parts();
    let service = Box::leak(Box::new(PredictionService::start(
        model,
        profile,
        ServeConfig {
            workers: 1,
            max_connections: 1,
            ..ServeConfig::default()
        },
    )));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let service: &PredictionService = service;
    std::thread::spawn(move || {
        let _ = service.serve_tcp(listener);
    });

    let mut first = TcpClient::connect(&addr).expect("first connection");
    // A roundtrip guarantees the accept loop has registered the connection.
    first.metrics().expect("first connection is served");

    // The second concurrent connection must receive one typed busy line.
    let second = std::net::TcpStream::connect(&addr).unwrap();
    let mut reader = std::io::BufReader::new(second);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let v: serde_json::Value = serde_json::from_str(&line).expect("busy reply is JSON");
    assert_eq!(
        v["type"].as_str(),
        Some("busy"),
        "reply must be typed: {line}"
    );
    assert!(v["error"].as_str().unwrap_or("").contains("busy"));
    assert_eq!(v["max_connections"].as_u64(), Some(1));
    let mut end = String::new();
    assert_eq!(
        reader.read_line(&mut end).unwrap(),
        0,
        "busy connection must be closed after the error line"
    );

    let m = service.metrics();
    assert!(m.busy_rejected >= 1);

    // Once the admitted connection closes, its slot frees up.
    drop(first);
    let mut admitted = false;
    for _ in 0..100 {
        if let Ok(mut c) = TcpClient::connect(&addr) {
            if c.metrics().is_ok() {
                admitted = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(admitted, "slot must free after the first connection closes");
}

#[test]
fn feature_key_matches_service_grouping() {
    // The cache key the service derives for two equal requests must be equal,
    // and differ across sweeps.
    let n1 = SweepConfig::for_arch(&MicroArch::arm_n1());
    let big = SweepConfig::for_arch(&MicroArch::big_core());
    let key = |sweep: &SweepConfig| FeatureKey {
        workload: "S5".into(),
        trace: 0,
        start: 0,
        region_len: 2048,
        sweep_hash: sweep_content_hash(sweep),
    };
    assert_eq!(key(&n1), key(&n1));
    assert_ne!(key(&n1), key(&big));
}

#[test]
fn tcp_protocol_roundtrip() {
    let (model, profile) = tiny_service_parts();
    let service = Box::leak(Box::new(PredictionService::start(
        model,
        profile,
        quick_config(),
    )));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let _ = service.serve_tcp(listener);
    });

    let mut client = TcpClient::connect(&addr).expect("connect to in-test server");

    // Single request.
    let resp = client
        .predict(&PredictRequest::new(3, "S5", ArchSpec::base("n1")))
        .unwrap();
    assert_eq!(resp.id, 3);
    assert!(resp.cpi.unwrap() > 0.0);

    // Array request → array response, in order.
    let reqs = vec![
        PredictRequest::new(10, "S5", ArchSpec::base("n1")),
        PredictRequest::new(11, "O1", ArchSpec::base("big")),
    ];
    let resps = client.predict_many(&reqs).unwrap();
    assert_eq!(resps.len(), 2);
    assert_eq!(resps[0].id, 10);
    assert_eq!(resps[1].id, 11);
    assert!(
        resps[0].cached,
        "S5/n1 store was cached by the first request"
    );

    // Metrics, stats, and catalog commands.
    let m = client.metrics().unwrap();
    assert!(m.completed >= 3);
    let stats = client.stats().unwrap();
    assert!(stats.cache.totals.stores >= 1);
    assert!(stats.cache.totals.bytes > 0);
    assert_eq!(stats.cache.per_shard.len(), stats.cache.shard_count);
    let wl = client.workloads().unwrap();
    assert_eq!(wl.as_array().map(Vec::len), Some(suite().len()));
}

/// Client and server each send a line in one write on a `TCP_NODELAY`
/// socket. Split writes (line, then `\n`) without it stall every exchange on
/// Nagle plus the peer's delayed ACK — about 40 ms each on Linux loopback.
#[test]
fn tcp_client_round_trips_do_not_stall_on_delayed_acks() {
    let (model, profile) = tiny_service_parts();
    let service = Box::leak(Box::new(PredictionService::start(
        model,
        profile,
        quick_config(),
    )));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let _ = service.serve_tcp(listener);
    });
    let mut client = TcpClient::connect(&addr).expect("connect to in-test server");
    let req = PredictRequest::new(1, "S5", ArchSpec::base("n1"));
    assert!(client.predict(&req).unwrap().cpi.unwrap() > 0.0);

    const N: u32 = 20;
    let t0 = std::time::Instant::now();
    for _ in 0..N {
        let resp = client.predict(&req).unwrap();
        assert!(resp.cached, "warm requests must hit the cached store");
    }
    let elapsed = t0.elapsed();
    // A delayed-ACK stall costs ≥ 40 ms per exchange, so a stalling client
    // needs ≥ 800 ms here; warm requests take well under a millisecond.
    assert!(
        elapsed < Duration::from_millis(40) * N / 2,
        "{N} warm round trips took {elapsed:?}: the client is stalling on delayed ACKs"
    );

    // Control replies go out the same way as predictions.
    let t0 = std::time::Instant::now();
    for _ in 0..N {
        assert!(client.metrics().unwrap().completed > 0);
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_millis(40) * N / 2,
        "{N} metrics round trips took {elapsed:?}: the server is stalling on delayed ACKs"
    );
}

/// A line nested 100 000 deep, in a request field, at the top level, or in
/// a control object, gets one error line from the decoder's nesting cap
/// instead of overflowing the connection thread's stack (which aborts the
/// whole server), and the connection goes on serving.
#[test]
fn deeply_nested_lines_get_one_error_and_the_connection_survives() {
    let (model, profile) = tiny_service_parts();
    let service = Box::leak(Box::new(PredictionService::start(
        model,
        profile,
        quick_config(),
    )));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let _ = service.serve_tcp(listener);
    });
    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    conn.set_nodelay(true).unwrap();
    let mut replies = BufReader::new(conn.try_clone().unwrap());
    let mut roundtrip = |line: &str| {
        conn.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut reply = String::new();
        replies.read_line(&mut reply).unwrap();
        reply
    };
    let warm = r#"{"id":5,"workload":"S5","arch":{"base":"n1"}}"#;
    assert!(roundtrip(warm).contains(r#""error":null"#));

    let deep = "[".repeat(100_000);
    for line in [
        format!(r#"{{"id":1,"workload":"S5","x":{deep}"#),
        deep.clone(),
        format!(r#"{{"cmd":"ping","x":{deep}"#),
    ] {
        let reply = roundtrip(&line);
        assert!(
            reply.starts_with(r#"{"error":"malformed JSON: "#)
                && reply.contains("nesting deeper than 128 levels"),
            "{reply}"
        );
        let resp: PredictResponse = serde_json::from_str(&roundtrip(warm)).unwrap();
        assert_eq!(resp.id, 5);
        assert!(resp.cached && resp.error.is_none(), "{resp:?}");
    }
}

/// A warm 1-worker service with the given `max_batch`, its S5/n1 store
/// already cached.
fn warm_single_worker(
    model: ConcordePredictor,
    profile: ReproProfile,
    max_batch: usize,
) -> PredictionService {
    let service = PredictionService::start(
        model,
        profile,
        ServeConfig {
            workers: 1,
            precompute_workers: 1,
            max_batch,
            ..ServeConfig::default()
        },
    );
    let warm = service
        .client()
        .predict(PredictRequest::new(0, "S5", ArchSpec::base("n1")))
        .unwrap();
    assert!(warm.cpi.is_some(), "warm-up failed: {:?}", warm.error);
    service
}

#[test]
fn zero_max_batch_answers_and_drops_cleanly() {
    // `max_batch: 0` counts as 1. Taken literally, every batch would come
    // back empty while the queue stays full: the worker spins, the request
    // is never answered, and the drop never drains.
    let (model, profile) = tiny_service_parts();
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let service = warm_single_worker(model, profile, 0);
        let resp = service
            .client()
            .predict(PredictRequest::new(1, "S5", ArchSpec::base("n1")))
            .unwrap();
        drop(service);
        let _ = tx.send(resp);
    });
    let resp = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("a max_batch: 0 service must answer and shut down");
    handle.join().unwrap();
    assert!(resp.cached, "the second request hits the warmed store");
    assert!(resp.cpi.is_some());
}

#[test]
fn a_max_batch_array_runs_as_one_batch() {
    // Work-conserving batching never splits work that is already queued:
    // a `predict_many` of exactly `max_batch` warm requests lands on the
    // idle worker's shard under one lock and runs as one batch.
    let (model, profile) = tiny_service_parts();
    let service = warm_single_worker(model, profile, 16);
    let before = service.metrics().batches;
    let reqs: Vec<PredictRequest> = (1..=16u64)
        .map(|i| PredictRequest::new(i, "S5", ArchSpec::base("n1")))
        .collect();
    let resps = service.client().predict_many(reqs).unwrap();
    assert!(resps.iter().all(|r| r.cached && r.cpi.is_some()));
    assert_eq!(service.metrics().batches - before, 1);
}

#[test]
fn lone_hits_do_not_wait_for_stragglers() {
    // A lone warm request is answered as soon as it is evaluated; the
    // collector does not hold it open for requests that never come. Its
    // service time is judged against the same prediction made directly on
    // this thread, so the 500 µs margin holds in debug builds and under the
    // scalar kernel alike (a 1 ms straggler window alone would exceed it).
    let (model, profile) = tiny_service_parts();
    let arch = ArchSpec::base("n1").resolve().unwrap();
    let full = generate_region(&by_id("S5").unwrap(), 0, 0, profile.region_len);
    let store =
        FeatureStore::precompute(&[], &full.instrs, &SweepConfig::for_arch(&arch), &profile);
    let service = warm_single_worker(model.clone(), profile, 128);
    let client = service.client();
    let (mut served, mut direct) = (Vec::new(), Vec::new());
    for i in 1..=50u64 {
        let resp = client
            .predict(PredictRequest::new(i, "S5", ArchSpec::base("n1")))
            .unwrap();
        assert!(resp.cached);
        served.push(resp.micros);
        let t = std::time::Instant::now();
        std::hint::black_box(model.predict(&store, &arch));
        direct.push(t.elapsed().as_micros() as u64);
    }
    let median = |v: &mut Vec<u64>| {
        v.sort_unstable();
        v[v.len() / 2]
    };
    let (served, direct) = (median(&mut served), median(&mut direct));
    assert!(
        served < direct + 500,
        "median lone-hit service time {served} µs vs {direct} µs evaluated directly"
    );
}
