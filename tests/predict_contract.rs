//! The predictor's numerical contract, restated as a tested tolerance.
//!
//! `ConcordePredictor` has one inference path. Over every suite program, on
//! a per-arch store and a §5.2.3 quantized store, for 64 seeded grid
//! architectures, under the dispatched SIMD kernel and the forced scalar
//! kernel:
//!
//! - `predict_batch_into` (rows shuffled, with repeats, one scratch reused
//!   across stores), `predict_batch`, `predict` and
//!   `predict_features(store.features(arch))` all return the same bits;
//! - that answer is within [`DENSE_REL_TOL`] relative CPI of the dense
//!   reference: `Normalizer::apply` → `Mlp::predict` → the output transform.
//!
//! The gap to the dense reference is float reassociation only: the
//! predictor sums the first layer's pre-activation per input segment in a
//! fixed segment order rather than in one left-to-right chain.

use concorde_suite::cache::{L1_SIZES_KB, L2_SIZES_KB};
use concorde_suite::ml::{active_kernel, forced_scalar, KernelKind};
use concorde_suite::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// Largest relative CPI gap allowed between the predictor and the dense
/// reference. The worst case measured over this test's inputs is 2.27e-6
/// under AVX2+FMA and 2.38e-6 under the scalar kernel; the bound keeps a 4×
/// margin. Rounding grows with `Σ|w·x|`, so an input far outside the
/// normalizer's fitted range (a dim constant in training standardizes to
/// |z| ≈ 1e3–1e4) can move further from the dense chain — both chains are
/// then equally far from exact arithmetic.
const DENSE_REL_TOL: f64 = 1e-5;

/// Grid architectures per program.
const ARCHS: usize = 64;

/// A shortened quick profile: the contract is about assembly and the
/// network, not region length, and the test builds 58 stores.
fn profile() -> ReproProfile {
    ReproProfile {
        region_len: 1024,
        warmup_len: 1024,
        window_k: 128,
        ..ReproProfile::quick()
    }
}

fn pow2(rng: &mut ChaCha12Rng, max_exp: u32) -> u32 {
    1 << rng.gen_range(0..=max_exp)
}

/// A point of the §5.2.3 power-of-two grid over the N1 base (the design
/// sweep workload), with the branch predictor varied too.
fn grid_arch(rng: &mut ChaCha12Rng) -> MicroArch {
    let mut a = MicroArch::arm_n1();
    a.rob_size = pow2(rng, 10);
    a.lq_size = pow2(rng, 8);
    a.sq_size = pow2(rng, 8);
    a.alu_width = pow2(rng, 3);
    a.fp_width = pow2(rng, 3);
    a.ls_width = pow2(rng, 3);
    a.fetch_width = pow2(rng, 3);
    a.decode_width = pow2(rng, 3);
    a.rename_width = pow2(rng, 3);
    a.commit_width = pow2(rng, 3);
    a.ls_pipes = pow2(rng, 3);
    a.load_pipes = rng.gen_range(0..=8);
    a.fetch_buffers = pow2(rng, 3);
    a.max_icache_fills = pow2(rng, 5);
    a.mem.l1d_kb = L1_SIZES_KB[rng.gen_range(0..L1_SIZES_KB.len())];
    a.mem.l1i_kb = L1_SIZES_KB[rng.gen_range(0..L1_SIZES_KB.len())];
    a.mem.l2_kb = L2_SIZES_KB[rng.gen_range(0..L2_SIZES_KB.len())];
    a.mem.prefetch_degree = 4 * rng.gen_range(0..2u32);
    if rng.gen_bool(0.25) {
        a.predictor = PredictorKind::Simple {
            miss_pct: rng.gen_range(0..=10),
        };
    }
    a
}

/// A model with the quick profile's network shape, seeded Xavier weights,
/// and a normalizer fitted on `rows` — the inputs it is then checked on, so
/// every dim is standardized within its fitted range, as a served model's
/// inputs are within its training distribution.
fn model_fitted_on(rows: &[f32], layout: FeatureLayout) -> ConcordePredictor {
    let dim = layout.dim();
    let mut rng = ChaCha12Rng::seed_from_u64(0x1a7e);
    let mut shape = vec![dim];
    shape.extend(profile().hidden);
    shape.push(1);
    ConcordePredictor {
        layout,
        normalizer: Normalizer::fit(rows, dim, true),
        mlp: Mlp::new(&shape, &mut rng),
        log_output: true,
        output_clamp: None,
    }
}

/// The dense reference: the whole standardized row through the MLP's
/// first layer in one chain, then the predictor's output transform.
fn dense_reference(model: &ConcordePredictor, features: &[f32]) -> f64 {
    let mut x = features.to_vec();
    model.normalizer.apply(&mut x);
    let o = f64::from(model.mlp.predict(&x));
    let y = if model.log_output {
        o.clamp(-8.0, 8.0).exp()
    } else {
        o.max(1e-3)
    };
    match model.output_clamp {
        Some((lo, hi)) => y.clamp(lo, hi),
        None => y,
    }
}

/// Checks the bitwise agreements on one store and returns the worst
/// relative gap to the dense reference.
fn check_store(
    model: &ConcordePredictor,
    store: &FeatureStore,
    archs: &[MicroArch],
    rng: &mut ChaCha12Rng,
    scratch: &mut PredictScratch,
    label: &str,
) -> f64 {
    let variant = model.variant();
    let single: Vec<f64> = archs.iter().map(|a| model.predict(store, a)).collect();
    let mut worst = 0.0f64;
    for (a, &y) in archs.iter().zip(&single) {
        let features = store.features(a, variant);
        let via_features = model.predict_features(&features);
        assert_eq!(
            via_features.to_bits(),
            y.to_bits(),
            "{label}: predict_features {via_features} vs predict {y}"
        );
        let dense = dense_reference(model, &features);
        assert!(
            y.is_finite() && dense > 0.0,
            "{label}: {y} vs dense {dense}"
        );
        worst = worst.max((y - dense).abs() / dense);
    }
    let batch = model.predict_batch(store, archs);
    for (i, (b, s)) in batch.iter().zip(&single).enumerate() {
        assert_eq!(b.to_bits(), s.to_bits(), "{label}: predict_batch row {i}");
    }
    // Every arch once plus a third again, in a shuffled order.
    let mut rows: Vec<usize> = (0..archs.len())
        .chain((0..archs.len() / 3).map(|_| rng.gen_range(0..archs.len())))
        .collect();
    for i in (1..rows.len()).rev() {
        rows.swap(i, rng.gen_range(0..=i));
    }
    let shuffled: Vec<MicroArch> = rows.iter().map(|&r| archs[r]).collect();
    let mut out = Vec::new();
    model.predict_batch_into(store, &shuffled, scratch, &mut out);
    assert_eq!(out.len(), rows.len());
    for (j, (&r, y)) in rows.iter().zip(&out).enumerate() {
        assert_eq!(
            y.to_bits(),
            single[r].to_bits(),
            "{label}: predict_batch_into row {j} (arch {r}) {y} vs predict {}",
            single[r]
        );
    }
    worst
}

#[test]
fn predictor_paths_agree_bitwise_and_stay_within_tolerance_of_dense() {
    let profile = profile();
    let layout = FeatureLayout {
        encoding: profile.encoding,
        variant: FeatureVariant::Full,
    };
    let quantized = SweepConfig::quantized();
    let mut arch_rng = ChaCha12Rng::seed_from_u64(0xFAC7);
    let mut cases = Vec::new();
    let mut rows = Vec::new();
    for spec in suite() {
        let full = generate_region(&spec, 0, 0, profile.warmup_len + profile.region_len);
        let (w, r) = full.instrs.split_at(profile.warmup_len);
        let archs: Vec<MicroArch> = (0..ARCHS).map(|_| grid_arch(&mut arch_rng)).collect();
        for (name, sweep) in [
            ("per-arch", SweepConfig::for_arch(&archs[0])),
            ("quantized", quantized.clone()),
        ] {
            let store = FeatureStore::precompute(w, r, &sweep, &profile);
            for a in &archs {
                rows.extend(store.features(a, layout.variant));
            }
            cases.push((format!("{} {name}", spec.id), store, archs.clone()));
        }
    }
    let model = model_fitted_on(&rows, layout);
    let mut rng = ChaCha12Rng::seed_from_u64(0x5EED);
    let mut scratch = PredictScratch::default();
    let mut scalar_scratch = PredictScratch::default();
    let mut worst = [0.0f64; 2];
    for (label, store, archs) in &cases {
        let simd = check_store(&model, store, archs, &mut rng, &mut scratch, label);
        worst[0] = worst[0].max(simd);
        let _g = forced_scalar();
        assert_eq!(active_kernel(), KernelKind::Scalar);
        let label = format!("{label} scalar");
        let scalar = check_store(&model, store, archs, &mut rng, &mut scalar_scratch, &label);
        worst[1] = worst[1].max(scalar);
    }
    eprintln!(
        "worst relative gap to the dense reference: {:.3e} dispatched, {:.3e} scalar",
        worst[0], worst[1]
    );
    for w in worst {
        assert!(
            w <= DENSE_REL_TOL,
            "relative gap {w:.3e} to the dense reference exceeds {DENSE_REL_TOL:e}"
        );
    }
}

/// The batch dedup is linear-time and keyed on every architecture field:
/// a 1,000-row batch drawn from 40 architectures (repeats scattered, some
/// differing only in the branch predictor) answers each row exactly as
/// `predict` does — under every feature variant, whose segment lists
/// differ (`Base` has no stall or memory-config group, `BaseBranch` a
/// memory-config group without latencies).
#[test]
fn thousand_row_batch_with_repeats_matches_per_row_predict() {
    let profile = profile();
    let spec = by_id("S5").unwrap();
    let full = generate_region(&spec, 0, 0, profile.warmup_len + profile.region_len);
    let (w, r) = full.instrs.split_at(profile.warmup_len);
    let store = FeatureStore::precompute(w, r, &SweepConfig::quantized(), &profile);
    let mut rng = ChaCha12Rng::seed_from_u64(0xD0D0);
    let mut pool: Vec<MicroArch> = (0..30).map(|_| grid_arch(&mut rng)).collect();
    for i in 0..10 {
        let mut a = pool[i];
        a.predictor = PredictorKind::Simple {
            miss_pct: i as u8 + 1,
        };
        pool.push(a);
    }
    let batch: Vec<MicroArch> = (0..1000)
        .map(|_| pool[rng.gen_range(0..pool.len())])
        .collect();
    let mut scratch = PredictScratch::default();
    let mut out = Vec::new();
    for variant in [
        FeatureVariant::Base,
        FeatureVariant::BaseBranch,
        FeatureVariant::Full,
    ] {
        let layout = FeatureLayout {
            encoding: profile.encoding,
            variant,
        };
        let rows: Vec<f32> = pool
            .iter()
            .flat_map(|a| store.features(a, variant))
            .collect();
        let model = model_fitted_on(&rows, layout);
        for _ in 0..2 {
            model.predict_batch_into(&store, &batch, &mut scratch, &mut out);
            assert_eq!(out.len(), batch.len());
            for (i, (a, y)) in batch.iter().zip(&out).enumerate() {
                let single = model.predict(&store, a);
                assert_eq!(y.to_bits(), single.to_bits(), "{variant:?} row {i}");
            }
        }
        for a in &pool {
            let dense = dense_reference(&model, &store.features(a, variant));
            let gap = (model.predict(&store, a) - dense).abs() / dense;
            assert!(gap <= DENSE_REL_TOL, "{variant:?}: gap {gap:.3e}");
        }
    }
}
