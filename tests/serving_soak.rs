//! Deterministic serving stress/soak test: seeded multi-connection churn
//! over a hot/cold key mix with a byte budget tight enough to force
//! preload-evict-rebuild cycles, connections dropping mid-batch, and
//! abandoned in-flight requests. After the churn drains, the engine must be
//! clean: no stranded parked jobs, no queued builds, every submission
//! answered, bitwise-stable exact answers across rebuilds, and
//! monotonic/mutually consistent cache counters.
//!
//! Determinism: all request streams derive from fixed ChaCha12 seeds, and
//! every assertion is interleaving-independent (exact answers are compared
//! across repeats/threads, not against a wall-clock schedule).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use concorde_suite::core::cache::{sweep_content_hash, CacheStats, FeatureKey};
use concorde_suite::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

fn tiny_service_parts() -> (ConcordePredictor, ReproProfile) {
    let mut profile = ReproProfile::quick();
    profile.region_len = 2_048;
    profile.warmup_len = 2_048;
    profile.epochs = 1;
    let data = generate_dataset(&DatasetConfig {
        profile: profile.clone(),
        n: 8,
        seed: 31,
        arch: ArchSampling::Random,
        workloads: Some(vec![15, 20]),
        threads: 0,
    });
    let model = train_model(&data, &profile, &TrainOptions::default());
    (model, profile)
}

/// The churn request mix: two hot keys (full-length regions that stay
/// resident) and a ring of cold keys (short regions, cheap to rebuild) that
/// the byte budget keeps evicting.
fn churn_request(rng: &mut ChaCha12Rng, id: u64) -> PredictRequest {
    let hot = rng.gen_range(0..10) < 7;
    let mut spec = ArchSpec::base("n1");
    // A small arch wobble on the same store grid: exercises per-request
    // assembly without multiplying stores.
    spec.rob = Some(128 + 32 * rng.gen_range(0..2u32));
    if hot {
        let mut r =
            PredictRequest::new(id, if rng.gen_range(0..2) == 0 { "S5" } else { "O1" }, spec);
        r.trace = 0;
        r
    } else {
        let workloads = ["S5", "O1", "C1"];
        let mut r = PredictRequest::new(id, workloads[rng.gen_range(0..3) as usize], spec);
        r.start = 1_000_000 * u64::from(1 + rng.gen_range(0..6u32));
        r.len = 512;
        r
    }
}

/// Identity of an exact answer: everything that determines the CPI bits.
fn answer_key(req: &PredictRequest) -> (KeyStr, u32, u64, u32, Option<u32>) {
    (
        req.workload.clone(),
        req.trace,
        req.start,
        req.len,
        req.arch.rob,
    )
}

/// Asserts the monotone counters of `later` never regressed vs `earlier`,
/// and that each snapshot is internally consistent.
fn assert_cache_stats_consistent(earlier: &CacheStats, later: &CacheStats) {
    assert!(later.hits >= earlier.hits, "hits regressed");
    assert!(later.misses >= earlier.misses, "misses regressed");
    assert!(later.evictions >= earlier.evictions, "evictions regressed");
    // Evictions can never outnumber insertions (every store was admitted
    // exactly once per build/preload).
    assert!(
        later.evictions <= later.misses + 2,
        "evicted more than built"
    );
}

#[test]
fn soak_churn_drains_clean_with_stable_answers() {
    let (model, profile) = tiny_service_parts();

    // Offline artifact for the S5 hot key — the preload+evict cycle's seed.
    let arch = MicroArch::arm_n1();
    let sweep = SweepConfig::for_arch(&arch);
    let spec = by_id("S5").unwrap();
    let full = generate_region(&spec, 0, 0, profile.region_len);
    let hot_store = FeatureStore::precompute(&[], &full.instrs, &sweep, &profile);
    let hot_bytes = hot_store.approx_bytes();
    let key = FeatureKey {
        workload: "S5".into(),
        trace: 0,
        start: 0,
        region_len: profile.region_len as u32,
        sweep_hash: sweep_content_hash(&sweep),
    };
    let path = std::env::temp_dir().join("concorde_soak_preload.cfa");
    StoreArtifact::new(key, hot_store).save(&path).unwrap();

    let service = Box::leak(Box::new(PredictionService::start(
        model,
        profile,
        ServeConfig {
            workers: 2,
            max_batch: 4,
            precompute_workers: 2,
            // ~2½ hot-sized stores on ONE shard: the hot pair mostly stays
            // resident while the cold ring keeps evicting — every cold
            // repeat is a genuine rebuild of an evicted store.
            cache_shards: 1,
            cache_bytes: hot_bytes * 5 / 2,
            ..ServeConfig::default()
        },
    )));
    service.preload_artifact(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let service: &PredictionService = service;

    // The preloaded answer, recorded before any churn: the store will be
    // evicted and rebuilt during the churn, and the rebuilt answer must
    // match this bitwise at the end.
    let client = service.client();
    let mut preloaded_req = PredictRequest::new(0, "S5", ArchSpec::base("n1"));
    preloaded_req.arch.rob = Some(128);
    let preloaded = client.predict(preloaded_req.clone()).unwrap();
    assert!(preloaded.cached, "preloaded hot key must start as a hit");
    let preloaded_bits = preloaded.cpi.unwrap().to_bits();

    // TCP front end for the connection-level churn.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let _ = service.serve_tcp(listener);
    });

    let mid_stats = service.stats().cache.totals;
    let dropped = Arc::new(AtomicU64::new(0));

    // Seeded multi-client churn: 3 in-process clients, each its own RNG.
    let mut handles = Vec::new();
    for t in 0..3u64 {
        let client = service.client();
        let dropped = Arc::clone(&dropped);
        handles.push(std::thread::spawn(move || {
            let mut rng = ChaCha12Rng::seed_from_u64(1000 + t);
            let mut seen: HashMap<_, u64> = HashMap::new();
            for i in 0..30u64 {
                let id = t * 1_000 + i;
                if i % 11 == 3 {
                    // Abandon a request mid-flight: the engine must answer
                    // into the dropped channel without wedging or leaking a
                    // parked slot.
                    let req = churn_request(&mut rng, id);
                    let rx = client.submit(req);
                    drop(rx);
                    dropped.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                let resps = if i % 7 == 0 {
                    let reqs: Vec<PredictRequest> = (0..4)
                        .map(|j| churn_request(&mut rng, id * 10 + j))
                        .collect();
                    let got = client.predict_many(reqs.clone()).expect("batch");
                    reqs.into_iter().zip(got).collect::<Vec<_>>()
                } else {
                    let req = churn_request(&mut rng, id);
                    let resp = client.predict(req.clone()).expect("predict");
                    vec![(req, resp)]
                };
                for (req, resp) in resps {
                    let cpi = resp
                        .cpi
                        .unwrap_or_else(|| panic!("id {} errored: {:?}", resp.id, resp.error));
                    assert!(!resp.approx, "every answer is exact");
                    // Bitwise-stable exact answers across cache hits, cold
                    // builds, and evict-rebuild cycles alike.
                    let bits = cpi.to_bits();
                    let prev = seen.entry(answer_key(&req)).or_insert(bits);
                    assert_eq!(
                        *prev,
                        bits,
                        "answer for {:?} drifted across rebuilds",
                        answer_key(&req)
                    );
                }
            }
            seen
        }));
    }

    // Connection-level churn in parallel: full TCP round trips plus a
    // connection that writes a batch and drops before reading the reply.
    let mut tcp = TcpClient::connect(&addr).expect("tcp connect");
    let tcp_reqs = vec![
        PredictRequest::new(9_001, "S5", ArchSpec::base("n1")),
        PredictRequest::new(9_002, "O1", ArchSpec::base("n1")),
    ];
    let tcp_resps = tcp.predict_many(&tcp_reqs).expect("tcp batch");
    assert_eq!(tcp_resps.len(), 2);
    for _ in 0..3 {
        use std::io::Write;
        let mut drop_conn = std::net::TcpStream::connect(&addr).unwrap();
        let line = serde_json::to_string(&vec![
            PredictRequest::new(9_100, "C1", ArchSpec::base("n1")),
            PredictRequest::new(9_101, "S5", ArchSpec::base("big")),
        ])
        .unwrap();
        drop_conn.write_all(line.as_bytes()).unwrap();
        drop_conn.write_all(b"\n").unwrap();
        drop_conn.flush().unwrap();
        // Drop mid-batch: the server is still computing the reply.
        drop(drop_conn);
    }

    // Merge per-thread answer maps and assert cross-thread bitwise equality.
    let mut merged: HashMap<_, u64> = HashMap::new();
    for h in handles {
        let seen = h.join().expect("churn thread");
        for (k, bits) in seen {
            let prev = merged.entry(k.clone()).or_insert(bits);
            assert_eq!(*prev, bits, "answer for {k:?} differs across threads");
        }
    }

    // Drain: every build lands, every parked job is re-enqueued and
    // answered, nothing is stranded.
    let deadline = Instant::now() + Duration::from_secs(180);
    loop {
        let m = service.metrics();
        if m.parked == 0
            && m.miss_backlog == 0
            && m.inflight_builds == 0
            && m.queue_depth == 0
            && m.completed >= m.submitted
        {
            break;
        }
        assert!(Instant::now() < deadline, "soak never drained: {m:?}");
        std::thread::sleep(Duration::from_millis(10));
    }

    let m = service.metrics();
    assert_eq!(m.errored, 0, "soak must not produce error responses");
    assert_eq!(
        m.completed, m.submitted,
        "every submission (dropped receivers included) must be answered"
    );
    assert!(
        dropped.load(Ordering::Relaxed) > 0,
        "drop path not exercised"
    );

    // Cache counters: monotone vs the mid-churn snapshot, internally
    // consistent, and inside the configured budget.
    let final_stats = service.stats().cache.totals;
    assert_cache_stats_consistent(&mid_stats, &final_stats);
    assert!(
        final_stats.evictions > 0,
        "the tight budget must have forced evict/rebuild cycles"
    );
    let report = service.stats();
    assert_eq!(
        report
            .cache
            .per_shard
            .iter()
            .map(|s| s.bytes)
            .sum::<usize>(),
        report.cache.totals.bytes,
        "per-shard occupancy must sum to the aggregate"
    );
    assert!(
        report.cache.totals.bytes <= report.cache.budget_bytes,
        "resident bytes exceed the budget after drain"
    );

    // The preloaded key — evicted and rebuilt during churn — still answers
    // bitwise identically to its artifact-backed first answer.
    let again = client.predict(preloaded_req).unwrap();
    assert_eq!(
        again.cpi.unwrap().to_bits(),
        preloaded_bits,
        "preload → evict → rebuild must reproduce the artifact answer"
    );
}
