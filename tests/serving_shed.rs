//! SLO-aware miss load-shedding: the shed decision function, the degraded
//! analytic-answer path, and the exact-vs-approximate answer contract.

use std::sync::Arc;
use std::time::Duration;

use concorde_suite::prelude::*;
use concorde_suite::serve::{shed_decision, FaultPlan};
use proptest::prelude::*;

/// Small but real model + profile shared by the service tests.
fn tiny_service_parts() -> (ConcordePredictor, ReproProfile) {
    let mut profile = ReproProfile::quick();
    profile.region_len = 2_048;
    profile.warmup_len = 2_048;
    profile.epochs = 1;
    let data = generate_dataset(&DatasetConfig {
        profile: profile.clone(),
        n: 8,
        seed: 23,
        arch: ArchSampling::Random,
        workloads: Some(vec![15, 20]),
        threads: 0,
    });
    let model = train_model(&data, &profile, &TrainOptions::default());
    (model, profile)
}

/// A cold-region length big enough that its build outlasts everything the
/// test does while it runs (matches the convention in tests/serving.rs).
fn long_len() -> u32 {
    if cfg!(debug_assertions) {
        16_384
    } else {
        131_072
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The shed decision is monotone: growing the backlog or the observed
    /// build latency never flips shed→wait, and tightening the effective
    /// deadline never flips shed→wait. (0 maps to "not configured" for the
    /// two optional limits.)
    #[test]
    fn shed_decision_is_monotone(
        backlog in 0usize..10_000,
        ewma in 0u64..100_000_000,
        slo_raw in 0u64..100_000_000,
        deadline_raw in 0u64..100_000_000,
        backlog_extra in 0usize..10_000,
        ewma_extra in 0u64..100_000_000,
        tighten_num in 0u64..1_000,
    ) {
        let slo = (slo_raw > 0).then_some(slo_raw);
        let deadline = (deadline_raw > 0).then_some(deadline_raw);
        let base = shed_decision(backlog, ewma, slo, deadline);

        // Monotone in backlog and EWMA (more load never un-sheds).
        prop_assert!(shed_decision(backlog + backlog_extra, ewma, slo, deadline) >= base);
        prop_assert!(shed_decision(backlog, ewma.saturating_add(ewma_extra), slo, deadline) >= base);

        // Monotone in urgency: a tighter limit on the SAME channel the base
        // decision used never flips shed→wait.
        let tighter = |limit: u64| limit.saturating_mul(tighten_num) / 1_000;
        if let Some(d) = deadline {
            prop_assert!(shed_decision(backlog, ewma, slo, Some(tighter(d))) >= base);
        } else if let Some(s) = slo {
            prop_assert!(shed_decision(backlog, ewma, Some(tighter(s)), None) >= base);
        }

        // No limit configured → never shed; no observed latency → never shed.
        prop_assert!(!shed_decision(backlog, ewma, None, None));
        prop_assert!(!shed_decision(backlog, 0, slo, deadline));
    }
}

#[test]
fn direct_min_bound_matches_store_min_bound_bitwise() {
    // The serving shed path computes the min-bound WITHOUT building a
    // feature store; for an architecture on the store's grid the two
    // routes must agree bitwise — the degraded answer is the same number
    // the full store would have bounded with.
    let profile = ReproProfile::quick();
    let spec = by_id("S5").unwrap();
    let full = generate_region(&spec, 0, 0, profile.warmup_len + profile.region_len);
    let (w, r) = full.instrs.split_at(profile.warmup_len);
    for arch in [MicroArch::arm_n1(), MicroArch::big_core()] {
        let store = FeatureStore::precompute(w, r, &SweepConfig::for_arch(&arch), &profile);
        let via_store = store.min_bound_cpi(&arch);
        let direct = analytic_min_bound_cpi(w, r, &arch, &profile);
        assert_eq!(
            via_store.to_bits(),
            direct.to_bits(),
            "store {via_store} vs direct {direct}"
        );
    }
}

#[test]
fn shed_answers_are_approx_then_exact_once_the_store_lands() {
    let (model, profile) = tiny_service_parts();
    let direct_model = model.clone();
    let service = PredictionService::start(
        model,
        profile.clone(),
        ServeConfig {
            workers: 2,
            max_batch: 1,
            batch_deadline: Duration::from_micros(1),
            precompute_workers: 1,
            ..ServeConfig::default()
        },
    );
    let client = service.client();

    // Seed the build-latency EWMA: the first-ever build is never shed
    // (conservative bootstrap), whatever its deadline.
    let mut seed = PredictRequest::new(0, "S5", ArchSpec::base("n1"));
    seed.deadline_ms = Some(0);
    let seeded = client.predict(seed).unwrap();
    assert!(
        !seeded.approx,
        "nothing may shed before a build latency is observed"
    );
    assert!(service.metrics().build_ewma_us > 0);

    // Pin the single pool worker on a long build so the backlog is real.
    let mut long = PredictRequest::new(1, "O1", ArchSpec::base("n1"));
    long.start = 4_096;
    long.len = long_len();
    let long_rx = client.submit(long).unwrap();

    // A zero-deadline cold request behind that backlog must shed: an
    // immediate answer carrying the flagged analytic min-bound, bitwise
    // equal to the direct estimator over the same region/warmup convention.
    let mut tight = PredictRequest::new(2, "C1", ArchSpec::base("big"));
    tight.start = 8_192;
    tight.deadline_ms = Some(0);
    let shed_resp = client.predict(tight.clone()).unwrap();
    assert!(shed_resp.approx, "backlogged zero-deadline miss must shed");
    assert_eq!(shed_resp.reason.as_deref(), Some("shed"));
    assert!(!shed_resp.cached);
    let arch = tight.arch.resolve().unwrap();
    let spec = by_id("C1").unwrap();
    let warm_start = tight.start - profile.warmup_len as u64;
    let full = generate_region(
        &spec,
        0,
        warm_start,
        profile.warmup_len + profile.region_len,
    );
    let (w, r) = full.instrs.split_at(profile.warmup_len);
    let expected_bound = analytic_min_bound_cpi(w, r, &arch, &profile);
    assert_eq!(
        shed_resp.cpi.unwrap().to_bits(),
        expected_bound.to_bits(),
        "shed answer must be the analytic min-bound"
    );
    assert_eq!(service.metrics().shed, 1);

    // Shedding must NOT have cancelled the build: the exact store lands,
    // and the same key then answers exactly (approx never on a hit) — even
    // for a zero-deadline request.
    let _ = long_rx.recv().unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    loop {
        let m = service.metrics();
        if m.inflight_builds == 0 && m.miss_backlog == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "shed key's build never landed"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let exact = client.predict(tight.clone()).unwrap();
    assert!(exact.cached, "the shed key's store must have landed");
    assert!(!exact.approx, "approx must never appear on a cache hit");
    assert!(exact.reason.is_none());
    let store = FeatureStore::precompute(w, r, &SweepConfig::for_arch(&arch), &profile);
    assert_eq!(
        exact.cpi.unwrap().to_bits(),
        direct_model.predict(&store, &arch).to_bits(),
        "post-shed answer must be the exact model prediction"
    );

    // The degraded and exact answers for the key are both on record; the
    // gap between them is the price of the shed, not an error.
    assert!(exact.cpi.unwrap() > 0.0 && shed_resp.cpi.unwrap() > 0.0);
    let m = service.metrics();
    assert_eq!(m.shed, 1, "the hit must not shed again");
    assert_eq!(m.parked, 0);
    assert_eq!(m.errored, 0);
}

#[test]
fn server_slo_sheds_requests_without_their_own_deadline() {
    let (model, profile) = tiny_service_parts();
    let service = PredictionService::start(
        model,
        profile,
        ServeConfig {
            workers: 2,
            max_batch: 1,
            batch_deadline: Duration::from_micros(1),
            precompute_workers: 1,
            miss_slo: Some(Duration::from_millis(1)),
            ..ServeConfig::default()
        },
    );
    let client = service.client();

    // Seed the EWMA with a LONG build, so 1ms of SLO is far below one
    // projected build wait afterwards.
    let mut seed = PredictRequest::new(0, "S5", ArchSpec::base("n1"));
    seed.len = long_len();
    let seeded = client.predict(seed).unwrap();
    assert!(!seeded.approx, "first-ever build must not shed");

    // Pin the pool again…
    let mut long = PredictRequest::new(1, "O1", ArchSpec::base("n1"));
    long.start = 4_096;
    long.len = long_len();
    let long_rx = client.submit(long).unwrap();

    // …then a plain request (no deadline_ms) on a cold key inherits the
    // server SLO and sheds.
    let mut plain = PredictRequest::new(2, "C1", ArchSpec::base("n1"));
    plain.start = 8_192;
    plain.len = 512;
    let resp = client.predict(plain).unwrap();
    assert!(resp.approx, "server SLO must shed backlogged plain misses");
    assert_eq!(resp.reason.as_deref(), Some("shed"));

    // A request that opts out with a huge deadline parks instead.
    let mut patient = PredictRequest::new(3, "C1", ArchSpec::base("big"));
    patient.start = 16_384;
    patient.len = 512;
    patient.deadline_ms = Some(3_600_000);
    let patient_resp = client.predict(patient).unwrap();
    assert!(
        !patient_resp.approx,
        "a roomy per-request deadline overrides the server SLO"
    );
    let _ = long_rx.recv().unwrap();
    assert_eq!(service.stats().miss_slo_ms, Some(1));
}

#[test]
fn cold_storm_is_backstopped_and_shed_answers_are_memoized() {
    // A sustained fully-shed cold storm must not grow the pool queue
    // without bound: past 32 outstanding builds per pool worker, a group
    // nobody waits on skips registering its (speculative) build. And a
    // storm hammering ONE key must pay the analytic computation once —
    // repeats are served from the per-key memo bitwise identically.
    let (model, profile) = tiny_service_parts();
    // Build 1 seeds the EWMA; build 2 is the pin, held until the storm and
    // memo assertions are done — its length no longer races the storm.
    let plan = Arc::new(FaultPlan::default().hold_build_at(vec![2], Duration::from_secs(120)));
    let service = PredictionService::start(
        model,
        profile,
        ServeConfig {
            workers: 2,
            max_batch: 1,
            batch_deadline: Duration::from_micros(1),
            precompute_workers: 1,
            fault_plan: Some(plan.clone()),
            ..ServeConfig::default()
        },
    );
    let client = service.client();

    // Seed the EWMA, then pin the single pool worker.
    client
        .predict(PredictRequest::new(0, "S5", ArchSpec::base("n1")))
        .unwrap();
    let mut long = PredictRequest::new(1, "O1", ArchSpec::base("n1"));
    long.start = 4_096;
    let long_rx = client.submit(long).unwrap();
    // The storm starts only once the pool worker is parked in the pin.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while plan.held_builds() == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "pin build never started"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // Storm: 40 distinct zero-deadline cold keys. Tiny starts keep each
    // key's warmup (and so its shed answer and speculative build) cheap;
    // the held pin keeps every speculative build queued. The first
    // ~31 register speculative builds; once the backlog passes the
    // 32-per-worker backstop the rest are answered without queueing
    // anything.
    for i in 0..40u64 {
        let mut req = PredictRequest::new(100 + i, "C1", ArchSpec::base("n1"));
        req.start = i;
        req.len = 512;
        req.deadline_ms = Some(0);
        let resp = client.predict(req).unwrap();
        assert!(resp.approx, "storm request {i} must shed");
    }
    assert!(
        matches!(
            long_rx.try_recv(),
            Err(std::sync::mpsc::TryRecvError::Empty)
        ),
        "pin build finished mid-storm — the backlog assertions below lost their premise"
    );
    let m = service.metrics();
    assert!(
        m.shed_build_skips > 0,
        "the backstop must have skipped speculative builds"
    );
    assert!(
        m.inflight_builds <= 33,
        "pool backlog exceeded the backstop: {}",
        m.inflight_builds
    );

    // Memoization: hammer one already-shed key; all answers bitwise equal.
    let mut repeat = PredictRequest::new(500, "C1", ArchSpec::base("n1"));
    repeat.start = 0;
    repeat.len = 512;
    repeat.deadline_ms = Some(0);
    let first = client.predict(repeat.clone()).unwrap();
    assert!(first.approx);
    let first_bits = first.cpi.unwrap().to_bits();
    for _ in 0..5 {
        let again = client.predict(repeat.clone()).unwrap();
        assert!(again.approx);
        assert_eq!(again.cpi.unwrap().to_bits(), first_bits);
    }
    assert!(
        matches!(
            long_rx.try_recv(),
            Err(std::sync::mpsc::TryRecvError::Empty)
        ),
        "pin build finished mid-hammer — the memo assertions above lost their premise"
    );

    // Drain: the pin plus every registered speculative build lands.
    plan.release_held_builds();
    let _ = long_rx.recv().unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    loop {
        let m = service.metrics();
        if m.inflight_builds == 0 && m.miss_backlog == 0 && m.parked == 0 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "storm never drained");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(service.metrics().errored, 0);
}

#[test]
fn stats_report_backlog_and_parked_as_a_consistent_snapshot() {
    let (model, profile) = tiny_service_parts();
    let service = PredictionService::start(
        model,
        profile,
        ServeConfig {
            workers: 2,
            max_batch: 1,
            batch_deadline: Duration::from_micros(1),
            precompute_workers: 1,
            ..ServeConfig::default()
        },
    );
    let client = service.client();

    // Pin the single pool worker on A, then queue B (1 waiter) and C
    // (3 coalesced waiters on one key) behind it.
    let mut a = PredictRequest::new(0, "S5", ArchSpec::base("n1"));
    a.len = long_len();
    let a_rx = client.submit(a).unwrap();
    // Wait until the pool has *popped* A (queue empty, one build in
    // flight): B and C below then deterministically queue behind it —
    // otherwise the pool could pick hot C first and finish it immediately.
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    loop {
        let m = service.metrics();
        if m.miss_backlog == 0 && m.inflight_builds == 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "pool never picked up the pinning build"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
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

    // While A builds: 5 parked jobs (A's own + B + C×3) and 2 queued
    // builds (B, C) — and the two gauges must come from ONE lock-consistent
    // snapshot, so we must observe exactly this pair, never (5, 0) or
    // (0, 2) shear. Poll for the steady state, then re-assert the pair
    // within single snapshots.
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    let steady = loop {
        let m = service.metrics();
        if m.parked == 5 && m.miss_backlog == 2 {
            break m;
        }
        // If A already finished the test lost its window; only possible on
        // a wildly slow submit path.
        assert!(
            std::time::Instant::now() < deadline,
            "never observed the pinned steady state (last: parked {} backlog {})",
            m.parked,
            m.miss_backlog
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(steady.inflight_builds, 3, "A running + B + C registered");
    for _ in 0..10 {
        let stats = service.stats();
        let (p, q) = (stats.metrics.parked, stats.metrics.miss_backlog);
        // Every snapshot while A builds shows a consistent pair: all
        // parked jobs' builds are accounted either queued or running.
        assert!(
            (p, q) == (5, 2),
            "inconsistent snapshot: parked {p}, backlog {q}"
        );
    }

    // Drain completely: afterwards every gauge in one snapshot is zero.
    let _ = a_rx.recv().unwrap();
    let _ = b_rx.recv().unwrap();
    for rx in c_rxs {
        let _ = rx.recv().unwrap();
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    loop {
        let m = service.metrics();
        if m.parked == 0 && m.miss_backlog == 0 && m.inflight_builds == 0 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "drain never settled");
        std::thread::sleep(Duration::from_millis(5));
    }
}
