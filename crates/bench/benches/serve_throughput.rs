//! Criterion bench for the serving engine, two scenarios:
//!
//! 1. `serve_throughput` — sequential single-sample prediction vs. the
//!    batched `concorde-serve` path at batch sizes 1/16/128. All requests
//!    hit a warmed feature-store cache, so the comparison isolates the
//!    serving overhead + evaluation: per-request feature assembly and a
//!    single-threaded MLP forward on the sequential side, versus queueing,
//!    micro-batching, and the worker pool's batched forward on the service
//!    side. Expected shape: batch=1 pays the queueing tax; by batch ≥ 16
//!    the batched path's throughput (elem/s) exceeds the sequential
//!    baseline. `lone_warm_x4_clients` is the multi-client case for
//!    work-conserving batching: four client threads each send lone warm
//!    requests closed-loop, so batches can only form from requests that
//!    arrive while a worker is busy.
//!
//! 2. `serve_cold_warm` — the mixed cold/warm shape the precompute pool
//!    exists for: each iteration fires one *cold*-region request
//!    (fire-and-forget) and then measures a 16-request *warm* (cache-hit)
//!    batch, on a single batch worker. The miss parks on the dedicated
//!    pool, so warm latency stays flat. The reported median is the
//!    hit-path p50 under cold-region churn.

use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use concorde_core::prelude::*;
use concorde_serve::{ArchSpec, PredictRequest, PredictionService, ServeConfig, SweepScope};
use concorde_trace::by_id;

struct Setup {
    model: ConcordePredictor,
    profile: ReproProfile,
    store: FeatureStore,
    arch: concorde_cyclesim::MicroArch,
}

fn setup() -> Setup {
    let profile = ReproProfile::quick();
    let arch = concorde_cyclesim::MicroArch::arm_n1();
    let spec = by_id("S5").unwrap();
    let full =
        concorde_trace::generate_region(&spec, 0, 0, profile.warmup_len + profile.region_len);
    let (w, r) = full.instrs.split_at(profile.warmup_len);
    // The §5.2.3 quantized sweep: one store answers any microarchitecture —
    // the same store shape the service uses below.
    let store = FeatureStore::precompute(w, r, &SweepConfig::quantized(), &profile);
    let data = generate_dataset(&DatasetConfig {
        profile: profile.clone(),
        n: 48,
        seed: 1,
        arch: ArchSampling::Random,
        workloads: Some(vec![15, 16]),
        threads: 0,
    });
    let model = train_model(
        &data,
        &profile,
        &TrainOptions {
            epochs: Some(3),
            ..TrainOptions::default()
        },
    );
    Setup {
        model,
        profile,
        store,
        arch,
    }
}

/// `n` requests over a small ROB sweep of the N1 (all on the same store
/// grid, so every request is a cache hit but feature assembly still runs per
/// request — the design-space-exploration shape).
fn requests(n: usize) -> Vec<PredictRequest> {
    (0..n)
        .map(|i| {
            let mut spec = ArchSpec::base("n1");
            spec.rob = Some(128 + (i as u32 % 8));
            PredictRequest::new(i as u64, "S5", spec)
        })
        .collect()
}

fn bench_serve(c: &mut Criterion) {
    let s = setup();

    let service = PredictionService::start(
        s.model.clone(),
        s.profile.clone(),
        ServeConfig {
            workers: 4,
            // Small micro-batches: request waves split into full tiles, and
            // on multi-core hosts they also fan out across the worker pool.
            max_batch: 8,
            sweep: SweepScope::Quantized,
            ..ServeConfig::default()
        },
    );
    let client = service.client();
    // Warm the S5 quantized feature store so every measured request is a cache hit.
    client
        .predict(requests(1).pop().unwrap())
        .expect("warmup prediction");

    let mut g = c.benchmark_group("serve_throughput");

    // Baseline: the pre-serving shape — one synchronous prediction at a time
    // against an already-precomputed store, single-threaded. Same ROB sweep
    // as the service requests.
    g.throughput(Throughput::Elements(128));
    g.bench_function("sequential_direct_x128", |b| {
        b.iter(|| {
            for i in 0..128u32 {
                let mut arch = s.arch;
                arch.rob_size = 128 + (i % 8);
                criterion::black_box(s.model.predict(&s.store, &arch));
            }
        });
    });

    for batch in [1usize, 16, 128] {
        g.throughput(Throughput::Elements(batch as u64));
        g.bench_function(format!("service_batch_{batch}"), |b| {
            let reqs = requests(batch);
            b.iter(|| client.predict_many(reqs.clone()).expect("batch prediction"));
        });
    }

    // Four closed-loop clients, each sending lone warm requests.
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 16;
    g.throughput(Throughput::Elements((CLIENTS * PER_CLIENT) as u64));
    g.bench_function("lone_warm_x4_clients", |b| {
        let reqs = requests(PER_CLIENT);
        b.iter(|| {
            std::thread::scope(|scope| {
                for _ in 0..CLIENTS {
                    let client = service.client();
                    let reqs = &reqs;
                    scope.spawn(move || {
                        for req in reqs {
                            client.predict(req.clone()).expect("lone prediction");
                        }
                    });
                }
            });
        });
    });
    g.finish();
}

/// `n` warm requests against one fixed arch — a single per-arch store, so
/// every request is a cache hit once the store is warmed.
fn warm_requests(n: usize) -> Vec<PredictRequest> {
    (0..n)
        .map(|i| PredictRequest::new(i as u64, "S5", ArchSpec::base("n1")))
        .collect()
}

fn bench_cold_warm(c: &mut Criterion) {
    let s = setup();
    let mut g = c.benchmark_group("serve_cold_warm");

    // The cheap per-arch sweep keeps each cold build to a few
    // milliseconds. One store per distinct region start.
    let arch = concorde_cyclesim::MicroArch::arm_n1();
    let warm_store_bytes = {
        let spec = by_id("S5").unwrap();
        let full = concorde_trace::generate_region(
            &spec,
            0,
            0,
            s.profile.warmup_len + s.profile.region_len,
        );
        let (w, r) = full.instrs.split_at(s.profile.warmup_len);
        FeatureStore::precompute(w, r, &SweepConfig::for_arch(&arch), &s.profile).approx_bytes()
    };

    let service = PredictionService::start(
        s.model.clone(),
        s.profile.clone(),
        ServeConfig {
            // ONE batch worker: the hit path must stay free while the pool
            // builds the cold store.
            workers: 1,
            precompute_workers: 1,
            max_batch: 16,
            // Budget for ~2 stores on one shard: the hot warm store stays
            // resident while each landing cold store evicts the previous
            // one, so the cold keys in the ring below stay genuinely cold
            // across iterations.
            cache_shards: 1,
            cache_bytes: warm_store_bytes * 5 / 2,
            sweep: SweepScope::PerArch,
            ..ServeConfig::default()
        },
    );
    let client = service.client();
    client
        .predict(warm_requests(1).pop().unwrap())
        .expect("warm the S5 store");

    let cold_seq = AtomicU64::new(0);
    g.throughput(Throughput::Elements(16));
    g.bench_function("warm16_p50_under_cold_churn/async_pool", |b| {
        b.iter(|| {
            // Fire one cold-region request and do not wait for it; a small
            // ring of starts keeps pool backlog bounded (repeat submissions
            // coalesce onto the in-flight build) while the tight byte
            // budget above keeps the ring cold.
            let i = cold_seq.fetch_add(1, Ordering::Relaxed);
            let mut cold = PredictRequest::new(1_000_000 + i, "S5", ArchSpec::base("n1"));
            cold.start = 1_000_000 * (1 + i % 4);
            let _cold_rx = client.submit(cold).expect("submit cold");
            // Measured: the warm 16-request batch (the hit path).
            client.predict_many(warm_requests(16)).expect("warm batch")
        });
    });
    g.finish();
}

criterion_group! {
    name = serve;
    config = Criterion::default().sample_size(12);
    targets = bench_serve, bench_cold_warm
}
criterion_main!(serve);
