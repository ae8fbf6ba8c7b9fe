//! Contention smoke for the sharded run queues: many workers, many client
//! threads, interleaved warm/cold traffic — answers must stay bitwise
//! identical to a single-worker service, per-thread reply order must hold,
//! and the service must drain and shut down cleanly.
//!
//! This is the CI "contention smoke" leg (release build: `--workers 8
//! --precompute-workers 4`); debug runs use the same shape with the same
//! assertions, just slower.

use concorde_suite::prelude::*;
use concorde_suite::serve::BatchScratch;

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

/// A mixed request set: two workloads × three archs, so batches group and
/// split across several feature stores and shard-stealing has real spill.
fn request_set() -> Vec<PredictRequest> {
    let mut reqs = Vec::new();
    let mut id = 0u64;
    for w in ["S5", "O1"] {
        for arch in [
            ArchSpec::base("n1"),
            {
                let mut s = ArchSpec::base("n1");
                s.rob = Some(160);
                s
            },
            ArchSpec::base("big"),
        ] {
            reqs.push(PredictRequest {
                id,
                workload: w.into(),
                arch,
                ..PredictRequest::default()
            });
            id += 1;
        }
    }
    reqs
}

#[test]
fn sharded_queue_contention_is_bitwise_deterministic() {
    let (model, profile) = tiny_service_parts();

    // Golden answers from a deliberately contention-free service: one
    // worker, one shard, no stealing possible.
    let golden: Vec<u64> = {
        let service = PredictionService::start(
            model.clone(),
            profile.clone(),
            ServeConfig {
                workers: 1,
                precompute_workers: 1,
                max_batch: 16,
                ..ServeConfig::default()
            },
        );
        let resps = service
            .client()
            .predict_many(request_set())
            .expect("golden batch");
        resps
            .iter()
            .map(|r| {
                r.cpi
                    .unwrap_or_else(|| panic!("golden errored: {:?}", r.error))
                    .to_bits()
            })
            .collect()
    };

    // The contended service: 8 workers draining 8 shards with stealing,
    // 4 precompute threads racing the cold misses.
    let service = PredictionService::start(
        model,
        profile,
        ServeConfig {
            workers: 8,
            precompute_workers: 4,
            max_batch: 16,
            ..ServeConfig::default()
        },
    );

    const THREADS: usize = 8;
    const ROUNDS: usize = 12;
    let base = request_set();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let client = service.client();
            let golden = &golden;
            let base = &base;
            scope.spawn(move || {
                let mut reqs: Vec<PredictRequest> = Vec::new();
                let mut out: Vec<PredictResponse> = Vec::new();
                let mut scratch = BatchScratch::default();
                for round in 0..ROUNDS {
                    // Each thread rotates the request order differently per
                    // round so shards fill unevenly and workers must steal.
                    reqs.clear();
                    reqs.extend_from_slice(base);
                    reqs.rotate_left((t + round) % base.len());
                    let order: Vec<u64> = reqs.iter().map(|r| r.id).collect();
                    if t % 2 == 0 {
                        // Half the threads drive the zero-alloc slot path…
                        client
                            .predict_batch_into(&mut reqs, &mut scratch, &mut out)
                            .expect("predict_batch_into");
                    } else {
                        // …the other half the owned-vector API.
                        out = client
                            .predict_many(std::mem::take(&mut reqs))
                            .expect("predict_many");
                    }
                    assert_eq!(out.len(), order.len());
                    for (resp, &id) in out.iter().zip(&order) {
                        assert_eq!(resp.id, id, "reply order broke under contention");
                        let cpi = resp.cpi.unwrap_or_else(|| {
                            panic!("id {} errored under contention: {:?}", resp.id, resp.error)
                        });
                        assert_eq!(
                            cpi.to_bits(),
                            golden[id as usize],
                            "id {id} diverged from the single-worker golden answer"
                        );
                    }
                }
            });
        }
    });

    // Everything submitted was answered and the shards drained.
    let stats = service.stats();
    let expected = (THREADS * ROUNDS * base.len()) as u64;
    assert!(
        stats.metrics.completed >= expected,
        "completed {} < expected {expected}",
        stats.metrics.completed
    );
    assert_eq!(stats.metrics.errored, 0);
    assert_eq!(stats.metrics.queue_depth, 0, "queue must drain");
    assert_eq!(stats.metrics.parked, 0, "no requests may stay parked");
    // Dropping the service here is the clean-shutdown assertion: all 8
    // workers and 4 pool threads must exit without stranding a job.
}
