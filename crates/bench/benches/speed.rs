//! Criterion benches backing Figure 10: Concorde inference vs cycle-level
//! simulation, plus the one-time preprocessing cost.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

use concorde_core::prelude::*;
use concorde_cyclesim::{simulate_warmed, MicroArch, SimOptions};

struct Setup {
    profile: ReproProfile,
    warm: Vec<concorde_trace::Instruction>,
    region: Vec<concorde_trace::Instruction>,
    store: FeatureStore,
    model: ConcordePredictor,
    arch: MicroArch,
}

fn setup() -> Setup {
    let mut profile = ReproProfile::quick();
    profile.region_len = 16_384;
    profile.warmup_len = 16_384;
    let spec = concorde_trace::by_id("S5").unwrap();
    let full =
        concorde_trace::generate_region(&spec, 0, 0, profile.warmup_len + profile.region_len);
    let (w, r) = full.instrs.split_at(profile.warmup_len);
    let arch = MicroArch::arm_n1();
    let store = FeatureStore::precompute(w, r, &SweepConfig::for_arch(&arch), &profile);
    // A small trained model (accuracy is irrelevant for timing).
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
        profile,
        warm: w.to_vec(),
        region: r.to_vec(),
        store,
        model,
        arch,
    }
}

fn bench_speed(c: &mut Criterion) {
    let s = setup();

    // The paper's headline: one CPI prediction = feature lookup + MLP.
    c.bench_function("concorde_inference", |b| {
        b.iter(|| s.model.predict(&s.store, &s.arch));
    });

    c.bench_function("cyclesim_region_16k", |b| {
        b.iter(|| simulate_warmed(&s.warm, &s.region, &s.arch, SimOptions::default()));
    });

    c.bench_function("feature_precompute_single_arch", |b| {
        // One thread: this measures the serial per-training-sample cost
        // (dataset generation precomputes single-threaded); the 1-vs-4
        // thread scaling lives in the feature_assembly bench.
        b.iter(|| {
            FeatureStore::precompute_threaded(
                &s.warm,
                &s.region,
                &SweepConfig::for_arch(&s.arch),
                &s.profile,
                1,
            )
        });
    });

    c.bench_function("concorde_inference_random_archs", |b| {
        // Predictions across designs reuse the same store (quantized lookups).
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        b.iter_batched(
            || MicroArch::sample(&mut rng),
            |arch| s.model.predict(&s.store, &arch),
            BatchSize::SmallInput,
        );
    });
}

/// The raw MLP forward at serving batch sizes, dispatched kernel vs the
/// pinned scalar fallback (`forced_scalar`) — the SIMD speedup number,
/// isolated from feature assembly — plus a batch of one (the GEMV). Runs on
/// one thread, so the thread-local guard covers the whole measurement.
fn bench_mlp_kernels(c: &mut Criterion) {
    use criterion::Throughput;
    let mut rng = ChaCha12Rng::seed_from_u64(7);
    // The serving model's shape class: wide standardized input, two hidden
    // layers, scalar output.
    let mlp = concorde_ml::Mlp::new(&[512, 64, 32, 1], &mut rng);
    let mut scratch = concorde_ml::MlpScratch::default();
    let n = 128usize;
    let xs: Vec<f32> = (0..n * 512)
        .map(|i| ((i as f32) * 0.37).sin() * 2.0)
        .collect();
    let mut out = vec![0.0f32; n];

    let mut g = c.benchmark_group("mlp_kernels");
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function(format!("batch128/{}", concorde_ml::kernel_name()), |b| {
        b.iter(|| mlp.predict_batch_into(&xs, &mut out, &mut scratch))
    });
    g.bench_function("batch128/scalar_forced", |b| {
        let _guard = concorde_ml::forced_scalar();
        b.iter(|| mlp.predict_batch_into(&xs, &mut out, &mut scratch));
    });
    // A lone request: the per-sample GEMV instead of a tile.
    g.throughput(Throughput::Elements(1));
    g.bench_function(format!("batch1/{}", concorde_ml::kernel_name()), |b| {
        b.iter(|| mlp.predict_batch_into(&xs[..512], &mut out[..1], &mut scratch))
    });
    g.finish();
}

criterion_group! {
    name = speed;
    config = Criterion::default().sample_size(20);
    targets = bench_speed, bench_mlp_kernels
}
criterion_main!(speed);
