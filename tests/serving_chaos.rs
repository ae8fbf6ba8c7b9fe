//! Chaos/fault-injection soak: a seeded client mix runs under an active
//! [`FaultPlan`] that panics a batched evaluation, panics (then retries) a
//! store build, stalls a build, and drops TCP replies mid-connection — plus
//! one corrupt-artifact `--preload`-path load. The engine must absorb all
//! of it: every submitted request receives exactly one answer (exact or a
//! typed `{"type":"error","reason":"internal"}` line), nothing is stranded
//! after the drain, no lock is poisoned (post-fault predictions still
//! work), and every exact answer is bitwise identical to a fault-free run
//! of the same request set.
//!
//! Determinism: the request streams derive from fixed ChaCha12 seeds and
//! the fault plan fires at fixed ordinals. Which request lands on a fired
//! ordinal is scheduling-dependent; every assertion here is therefore
//! interleaving-independent (counts, invariants, and per-key bitwise
//! comparisons — never "request N fails").

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use concorde_suite::core::cache::{sweep_content_hash, FeatureKey};
use concorde_suite::prelude::*;
use concorde_suite::serve::FaultPlan;
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

/// Same hot/cold mix as the plain soak: two hot keys that stay resident
/// plus a ring of cold keys the byte budget keeps evicting, with a small
/// arch wobble to exercise per-request assembly.
fn churn_request(rng: &mut ChaCha12Rng, id: u64) -> PredictRequest {
    let hot = rng.gen_range(0..10) < 7;
    let mut spec = ArchSpec::base("n1");
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

/// The injected schedule: the 2nd batched eval panics, the 1st store build
/// panics (its re-queued retry is build ordinal 2, which instead stalls
/// 30 ms and succeeds — so the parked waiters still get exact answers),
/// and TCP replies 2 and 5 are dropped mid-connection.
const CHAOS_PLAN: &str = "panic_eval@2;panic_build@1;slow_build@2:30ms;drop_reply@2,5";

#[test]
fn chaos_faults_never_strand_requests_or_corrupt_answers() {
    let (model, profile) = tiny_service_parts();

    // Offline artifact for the S5 hot key, and a bit-flipped copy of it.
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
    let good = std::env::temp_dir().join("concorde_chaos_good.cfa");
    StoreArtifact::new(key, hot_store).save(&good).unwrap();
    let corrupt = std::env::temp_dir().join("concorde_chaos_corrupt.cfa");
    let mut bytes = std::fs::read(&good).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&corrupt, &bytes).unwrap();

    // The deterministic request set, shared by the fault-free baseline and
    // the chaos run: three in-process streams plus one TCP stream.
    let mut streams: Vec<Vec<PredictRequest>> = Vec::new();
    for t in 0..3u64 {
        let mut rng = ChaCha12Rng::seed_from_u64(4_000 + t);
        streams.push(
            (0..24)
                .map(|i| churn_request(&mut rng, t * 1_000 + i))
                .collect(),
        );
    }
    let mut rng = ChaCha12Rng::seed_from_u64(77);
    let tcp_reqs: Vec<PredictRequest> = (0..10)
        .map(|i| churn_request(&mut rng, 9_000 + i))
        .collect();
    let mut preloaded_req = PredictRequest::new(0, "S5", ArchSpec::base("n1"));
    preloaded_req.arch.rob = Some(128);

    let cfg = |plan: Option<Arc<FaultPlan>>| ServeConfig {
        workers: 2,
        max_batch: 4,
        precompute_workers: 2,
        cache_shards: 1,
        cache_bytes: hot_bytes * 5 / 2,
        fault_plan: plan,
        ..ServeConfig::default()
    };

    // ---- Fault-free baseline: the bitwise ground truth ------------------
    let baseline_bits: HashMap<_, u64> = {
        let service = PredictionService::start(model.clone(), profile.clone(), cfg(None));
        service.preload_artifact(&good).unwrap();
        let client = service.client();
        let mut bits = HashMap::new();
        for req in streams
            .iter()
            .flatten()
            .chain(&tcp_reqs)
            .chain(std::iter::once(&preloaded_req))
        {
            let resp = client.predict(req.clone()).unwrap();
            let cpi = resp
                .cpi
                .unwrap_or_else(|| panic!("baseline id {} errored: {:?}", resp.id, resp.error));
            assert!(!resp.approx, "every answer is exact");
            bits.insert(answer_key(req), cpi.to_bits());
        }
        bits
    };

    // ---- Chaos run ------------------------------------------------------
    let plan = Arc::new(FaultPlan::parse(CHAOS_PLAN).unwrap());
    let service = Box::leak(Box::new(PredictionService::start(
        model,
        profile,
        cfg(Some(Arc::clone(&plan))),
    )));

    // ≥1 corrupt-artifact load: the bit-flipped file is rejected with the
    // typed checksum error, and the service stays fully serviceable.
    let err = service.preload_artifact(&corrupt).unwrap_err();
    assert!(
        err.to_string().contains("checksum mismatch"),
        "corrupt preload must fail typed, got: {err}"
    );
    service.preload_artifact(&good).unwrap();
    std::fs::remove_file(&good).ok();
    std::fs::remove_file(&corrupt).ok();

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let service: &'static PredictionService = service;
    let server = std::thread::spawn(move || service.serve_tcp(listener));

    // In-process churn under the active plan: every reply is either an
    // exact answer bitwise-equal to the baseline, or a typed internal
    // error minted by an injected panic.
    let mut handles = Vec::new();
    for reqs in streams {
        let client = service.client();
        let baseline = baseline_bits.clone();
        handles.push(std::thread::spawn(move || {
            let mut internal = 0u64;
            for chunk in reqs.chunks(3) {
                let got = client.predict_many(chunk.to_vec()).expect("chaos batch");
                for (req, resp) in chunk.iter().zip(got) {
                    match resp.cpi {
                        Some(cpi) => {
                            assert!(!resp.approx, "every answer is exact");
                            assert_eq!(
                                cpi.to_bits(),
                                baseline[&answer_key(req)],
                                "chaos answer for {:?} diverged from the fault-free run",
                                answer_key(req)
                            );
                        }
                        None => {
                            assert_eq!(
                                resp.kind.as_deref(),
                                Some("error"),
                                "untyped failure: {:?}",
                                resp.error
                            );
                            assert_eq!(
                                resp.reason.as_deref(),
                                Some("internal"),
                                "only typed internal errors are acceptable: {:?}",
                                resp.error
                            );
                            internal += 1;
                        }
                    }
                }
            }
            internal
        }));
    }

    // TCP churn that must survive the injected mid-reply socket drops: a
    // dropped reply surfaces as EOF, and the client reconnects (with the
    // backoff schedule) and resubmits. The engine answered the first
    // submission into the dying connection, so completed==submitted still
    // audits every copy.
    let reconnect = || {
        TcpClient::connect_with_retry(
            &addr,
            5,
            Duration::from_millis(10),
            Duration::from_millis(100),
        )
    };
    let mut tcp = reconnect().expect("tcp connect");
    let mut tcp_drops = 0u64;
    for req in &tcp_reqs {
        let mut attempts = 0;
        loop {
            match tcp.predict(req) {
                Ok(resp) => {
                    if let Some(cpi) = resp.cpi {
                        assert_eq!(
                            cpi.to_bits(),
                            baseline_bits[&answer_key(req)],
                            "tcp chaos answer for {:?} diverged",
                            answer_key(req)
                        );
                    } else {
                        assert_eq!(resp.reason.as_deref(), Some("internal"), "{:?}", resp.error);
                    }
                    break;
                }
                Err(_) => {
                    tcp_drops += 1;
                    attempts += 1;
                    assert!(attempts <= 5, "tcp request kept failing past the drops");
                    tcp = reconnect().expect("tcp reconnect");
                }
            }
        }
    }

    let internal_errors: u64 = handles
        .into_iter()
        .map(|h| h.join().expect("churn thread"))
        .sum();

    // Graceful drain over the wire: the command is acknowledged, the
    // accept loop stops, live handlers finish, and serve_tcp returns.
    {
        use std::io::{BufRead, BufReader, Write};
        let mut s = std::net::TcpStream::connect(&addr).unwrap();
        s.write_all(b"{\"cmd\":\"drain\"}\n").unwrap();
        s.flush().unwrap();
        let mut line = String::new();
        BufReader::new(s.try_clone().unwrap())
            .read_line(&mut line)
            .unwrap();
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(
            v.get("draining").and_then(serde_json::Value::as_bool),
            Some(true),
            "{line}"
        );
    }
    server
        .join()
        .expect("server thread")
        .expect("serve_tcp error");
    assert!(service.is_draining());

    // Drain the engine: no parked jobs, queued builds, or unanswered
    // submissions survive the churn.
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
        assert!(Instant::now() < deadline, "chaos soak never drained: {m:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    let m = service.metrics();
    assert_eq!(
        m.completed, m.submitted,
        "every submission (faulted ones included) must be answered exactly once"
    );

    // The plan fired every fault class at least once, and each injected
    // panic was caught and counted — not leaked into a thread death.
    let (evals, builds, stalls, drops) = plan.fired();
    assert!(evals >= 1, "no injected eval panic fired");
    assert!(builds >= 1, "no injected build panic fired");
    assert!(stalls >= 1, "no injected slow build fired");
    assert!(drops >= 1, "no injected reply drop fired");
    assert!(tcp_drops >= 1, "the client never observed a dropped reply");
    assert!(
        m.worker_panics >= evals + builds,
        "caught-panic count {} below injected {}",
        m.worker_panics,
        evals + builds
    );
    // The eval panic errored its batch with typed lines the clients saw
    // (the build panic did not: its retry succeeded).
    assert!(
        internal_errors >= 1,
        "no client observed a typed internal error"
    );
    assert!(m.errored >= internal_errors, "error metric undercounts");

    // Post-fault health: no poisoned lock anywhere on the path — the
    // preloaded key (whose build panicked and retried during churn) still
    // answers, bitwise-identical to the fault-free run.
    let again = service.client().predict(preloaded_req.clone()).unwrap();
    assert_eq!(
        again.cpi.unwrap().to_bits(),
        baseline_bits[&answer_key(&preloaded_req)],
        "post-chaos answer drifted"
    );
}
