//! Vector-kernel dispatch coverage: scalar↔SIMD max-ULP equivalence over
//! random layer shapes and ragged batches (proptest), the int8-weight CPI
//! drift pin mirroring the arena-quantization contract, bitwise equality of
//! the fused dequantize-assembly path against the materialized f32 feature
//! vector, and the normalizer contract (bitwise across kernels, ≤ 1e-5 CPI
//! drift against a libm `ln_1p` reference).

use concorde_suite::ml::kernel::log1p;
use concorde_suite::ml::{
    active_kernel, detected_kernel, forced_scalar, kernel_name, ulp_distance, KernelKind,
    QuantFeatureBuf, QuantScratch,
};
use concorde_suite::prelude::*;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// Scalar and FMA kernels sum each output in the same left-to-right order;
/// the only divergence is the fused multiply-add's single rounding per term.
/// Per layer that is ≤ `in_dim` half-ULP perturbations, and layers compound,
/// so the bound is dozens-not-millions; 256 holds with wide margin for the
/// shapes below (measured maxima are single digits).
/// ULP is the primary metric; the `1e-5` absolute escape hatch below only
/// covers catastrophic cancellation in the (relu-free) output layer, where a
/// near-zero sum makes ULP distance meaningless.
const MAX_ULP: u32 = 256;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The dispatched SIMD kernel agrees with the pinned scalar kernel to
    /// within `MAX_ULP` for random layer shapes, depths, batch sizes
    /// (including ragged, non-multiple-of-8 tails), and inputs. Trivially
    /// green on hosts without a vector unit (both runs take the scalar
    /// path).
    #[test]
    fn simd_matches_scalar_within_ulp_bound(
        seed in any::<u64>(),
        n in 1usize..21,
        din in 1usize..40,
        dh in 1usize..24,
        deep in 0usize..2,
    ) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let dims: Vec<usize> = if deep == 1 {
            vec![din, dh, dh.div_ceil(2), 1]
        } else {
            vec![din, dh, 1]
        };
        let mlp = Mlp::new(&dims, &mut rng);
        let xs: Vec<f32> = (0..n * din)
            .map(|i| ((i as f32) * 0.37 + (seed % 7) as f32).sin() * 4.0)
            .collect();
        let mut scratch = MlpScratch::default();
        let mut simd = vec![0.0f32; n];
        mlp.predict_batch_into(&xs, &mut simd, &mut scratch);
        let mut scalar = vec![0.0f32; n];
        {
            let _g = forced_scalar();
            prop_assert_eq!(active_kernel(), KernelKind::Scalar);
            mlp.predict_batch_into(&xs, &mut scalar, &mut scratch);
        }
        for (s, (a, b)) in simd.iter().zip(&scalar).enumerate() {
            let ulp = ulp_distance(*a, *b);
            prop_assert!(
                ulp <= MAX_ULP || (a - b).abs() <= 1e-5,
                "row {} of {} diverged: simd {} vs scalar {} ({} ULP)",
                s, n, a, b, ulp
            );
        }
    }

    /// Int8-weight inference tracks the f32 model within the quantization
    /// drift budget for random shapes and inputs (the micro-level version
    /// of the CPI pin below).
    #[test]
    fn int8_mlp_tracks_f32_for_random_shapes(
        seed in any::<u64>(),
        n in 1usize..13,
        din in 1usize..24,
        dh in 2usize..16,
    ) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mlp = Mlp::new(&[din, dh, 1], &mut rng);
        let qmlp = mlp.quantize();
        let mut scratch = MlpScratch::default();
        let mut qscratch = QuantScratch::default();
        let xs: Vec<f32> = (0..n * din)
            .map(|i| ((i as f32) * 0.53 + (seed % 11) as f32).cos() * 2.0)
            .collect();
        let mut yf = vec![0.0f32; n];
        mlp.predict_batch_into(&xs, &mut yf, &mut scratch);
        let mut yq = vec![0.0f32; n];
        qmlp.predict_batch_into(&xs, &mut yq, &mut qscratch);
        for (s, (f, q)) in yf.iter().zip(&yq).enumerate() {
            prop_assert!(
                (f - q).abs() <= 0.05 * f.abs() + 0.05,
                "row {}: f32 {} vs int8 {}",
                s, f, q
            );
        }
    }
}

#[test]
fn kernel_name_matches_active_kernel() {
    assert_eq!(kernel_name(), active_kernel().name());
    let _g = forced_scalar();
    assert_eq!(kernel_name(), "scalar");
}

#[test]
fn detected_kernel_matches_arch_features() {
    // `detected_kernel` reports raw host capability, ignoring overrides.
    let k = detected_kernel();
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        assert_eq!(k, KernelKind::Avx2Fma);
    }
    #[cfg(target_arch = "aarch64")]
    assert_eq!(k, KernelKind::Neon);
    // Dispatch follows detection — except on the CI scalar leg, where the
    // env override must pin every thread to the scalar kernel.
    let env_scalar =
        std::env::var("CONCORDE_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0");
    if env_scalar {
        assert_eq!(active_kernel(), KernelKind::Scalar);
    } else {
        assert_eq!(active_kernel(), k);
    }
}

// ---------------------------------------------------------------------------
// End-to-end pins on a real feature store + trained model, mirroring
// tests/quantization.rs so the model-weight contract reads like the
// arena-encoding contract it extends.

fn quick_profile() -> ReproProfile {
    ReproProfile {
        window_k: 64,
        ..ReproProfile::quick()
    }
}

fn reference_store() -> (FeatureStore, MicroArch, MicroArch) {
    let profile = quick_profile();
    let spec = by_id("S5").unwrap();
    let full = generate_region(&spec, 0, 0, profile.warmup_len + profile.region_len);
    let (w, r) = full.instrs.split_at(profile.warmup_len);
    let n1 = MicroArch::arm_n1();
    let big = MicroArch::big_core();
    let store = FeatureStore::precompute(w, r, &SweepConfig::for_pair(&big, &n1), &profile);
    (store, n1, big)
}

fn tiny_model(profile: &ReproProfile) -> ConcordePredictor {
    let mut p = profile.clone();
    p.epochs = 3;
    let data = generate_dataset(&DatasetConfig {
        profile: p.clone(),
        n: 16,
        seed: 23,
        arch: ArchSampling::Random,
        workloads: Some(vec![15, 20]),
        threads: 0,
    });
    train_model(&data, &p, &TrainOptions::default())
}

/// The int8-weight drift pin: CPI from the quantized model stays within 5%
/// of the f32 reference — the same budget the int8 *arena* encoding gets in
/// `tests/quantization.rs`, and independent of the kernel in use.
#[test]
fn int8_model_cpi_drift_below_5pct() {
    let profile = quick_profile();
    let model = tiny_model(&profile);
    let qmlp = model.quantized();
    let (store, n1, big) = reference_store();
    let mut off = n1;
    off.rob_size = 200;
    off.lq_size = 40;
    let mut buf = QuantFeatureBuf::default();
    let mut scratch = QuantScratch::default();
    for arch in [n1, big, off] {
        let reference = model.predict(&store, &arch);
        assert!(reference.is_finite() && reference > 0.0);
        let q = model.predict_quantized(&qmlp, &store, &arch, &mut buf, &mut scratch);
        let delta = (q - reference).abs() / reference;
        assert!(
            delta <= 0.05,
            "int8-model CPI drift {:.4}% exceeds 5% (f32 CPI {reference:.4} → int8 {q:.4})",
            delta * 100.0
        );
    }
}

/// Composition: int8 *store* feeding the int8 *model* through the fused
/// path drifts from the same store under the f32 model by the model-quant
/// budget alone (the store error is common to both sides).
#[test]
fn int8_store_int8_model_compose() {
    let profile = quick_profile();
    let model = tiny_model(&profile);
    let qmlp = model.quantized();
    let (store, n1, big) = reference_store();
    let int8_store = store.reencoded(ArenaEncoding::Int8);
    let mut buf = QuantFeatureBuf::default();
    let mut scratch = QuantScratch::default();
    for arch in [n1, big] {
        let reference = model.predict(&int8_store, &arch);
        let fused = model.predict_quantized(&qmlp, &int8_store, &arch, &mut buf, &mut scratch);
        let delta = (fused - reference).abs() / reference;
        assert!(
            delta <= 0.05,
            "fused int8×int8 drift {:.4}% vs f32 model on the same store",
            delta * 100.0
        );
    }
}

/// The fused assembly's segments dequantize to exactly the f32 vector
/// `features_into` materializes — for every arena encoding, variant, and a
/// grid-off architecture. Bitwise, not approximate: the fused path reuses
/// `write_entry`'s arithmetic instead of re-deriving it.
#[test]
fn quantized_segments_materialize_bitwise() {
    let (store, n1, big) = reference_store();
    let mut off = n1;
    off.rob_size = 200;
    off.lq_size = 40;
    let mut buf = QuantFeatureBuf::default();
    for enc in ArenaEncoding::ALL {
        let store = store.reencoded(enc);
        for arch in [n1, big, off] {
            for v in [
                FeatureVariant::Base,
                FeatureVariant::BaseBranch,
                FeatureVariant::Full,
            ] {
                let reference = store.features(&arch, v);
                store.features_quantized_into(&arch, v, &mut buf);
                assert_eq!(buf.len(), reference.len());
                let materialized = buf.materialize();
                for (i, (m, r)) in materialized.iter().zip(&reference).enumerate() {
                    assert_eq!(
                        m.to_bits(),
                        r.to_bits(),
                        "feature {i} of {v:?} under {enc}: fused {m} vs materialized {r}"
                    );
                }
            }
        }
    }
}

/// Fused prediction (segments straight into the quantized first layer)
/// equals quantized prediction over the materialized vector bitwise — the
/// fusion changes where dequantization happens, not what is computed.
#[test]
fn fused_prediction_matches_materialized_bitwise() {
    let profile = quick_profile();
    let model = tiny_model(&profile);
    let qmlp = model.quantized();
    let (store, n1, big) = reference_store();
    let mut buf = QuantFeatureBuf::default();
    let mut scratch = QuantScratch::default();
    for enc in [ArenaEncoding::F32, ArenaEncoding::Int8] {
        let store = store.reencoded(enc);
        for arch in [n1, big] {
            let fused = model.predict_quantized(&qmlp, &store, &arch, &mut buf, &mut scratch);
            let feats = store.features(&arch, model.layout.variant);
            let materialized = model.predict_features_quantized(&qmlp, &feats, &mut scratch);
            assert_eq!(
                fused.to_bits(),
                materialized.to_bits(),
                "under {enc}/{arch:?}: fused {fused} vs materialized {materialized}"
            );
        }
    }
}

/// Raw feature rows for a spread of architectures: the two grid points,
/// an off-grid one, and seeded random samples (nearest-grid lookups).
fn feature_rows(
    store: &FeatureStore,
    n1: MicroArch,
    big: MicroArch,
    variant: FeatureVariant,
) -> Vec<Vec<f32>> {
    let mut off = n1;
    off.rob_size = 200;
    off.lq_size = 40;
    let mut rng = ChaCha12Rng::seed_from_u64(7);
    let mut archs = vec![n1, big, off];
    archs.extend((0..13).map(|_| MicroArch::sample(&mut rng)));
    archs.iter().map(|a| store.features(a, variant)).collect()
}

/// Normalization is bitwise-identical under the dispatched and the forced
/// scalar kernel, and a batch equals its rows normalized one at a time.
#[test]
fn normalizer_is_bitwise_equal_across_kernels_and_batching() {
    let (store, n1, big) = reference_store();
    let rows = feature_rows(&store, n1, big, FeatureVariant::Full);
    let dim = rows[0].len();
    let raw: Vec<f32> = rows.concat();
    for log1p in [true, false] {
        let norm = Normalizer::fit(&raw, dim, log1p);
        let mut dispatched = raw.clone();
        norm.apply_batch(&mut dispatched);
        let mut scalar = raw.clone();
        {
            let _g = forced_scalar();
            assert_eq!(active_kernel(), KernelKind::Scalar);
            norm.apply_batch(&mut scalar);
        }
        let mut per_row = raw.clone();
        for row in per_row.chunks_exact_mut(dim) {
            norm.apply(row);
        }
        for (i, ((d, s), r)) in dispatched.iter().zip(&scalar).zip(&per_row).enumerate() {
            assert_eq!(
                d.to_bits(),
                s.to_bits(),
                "element {i} (log1p={log1p}): {} {d} vs scalar {s}",
                kernel_name()
            );
            assert_eq!(
                d.to_bits(),
                r.to_bits(),
                "element {i}: batch {d} vs row {r}"
            );
        }
    }
}

/// The in-tree `log1p` replaced the host libm's `ln_1p` in the normalizer.
/// CPI from the trained model stays within 1e-5 relative of a reference
/// that standardizes with libm. Store features take few distinct values,
/// so each row is also probed with seeded multiplicative jitter, which
/// reaches inputs where the two `ln(1 + x)` implementations round apart.
#[test]
fn normalizer_drift_against_libm_reference_below_1e5() {
    let profile = quick_profile();
    let model = tiny_model(&profile);
    assert!(model.normalizer.log1p, "the trainer fits in log space");
    let (store, n1, big) = reference_store();
    // Reference: libm `ln_1p` applied up front, then the same model with
    // the transform switched off — identical standardization and MLP.
    let mut reference = model.clone();
    reference.normalizer.log1p = false;
    let mut rng = ChaCha12Rng::seed_from_u64(11);
    let (mut worst, mut differing) = (0.0f64, 0usize);
    for row in feature_rows(&store, n1, big, model.layout.variant) {
        for jitter in [0.0f32, 1e-3, 3e-2] {
            let probe: Vec<f32> = row
                .iter()
                .map(|x| x * (1.0 + jitter * (rng.gen::<f32>() - 0.5)))
                .collect();
            let libm: Vec<f32> = probe.iter().map(|x| x.max(0.0).ln_1p()).collect();
            differing += probe
                .iter()
                .zip(&libm)
                .filter(|(x, l)| log1p(**x).to_bits() != l.to_bits())
                .count();
            let cpi = model.predict_features(&probe);
            let want = reference.predict_features(&libm);
            assert!(cpi.is_finite() && want > 0.0);
            worst = worst.max((cpi - want).abs() / want);
        }
    }
    assert!(
        differing > 0,
        "no probe reached an input where the two differ"
    );
    assert!(
        worst <= 1e-5,
        "normalizer drift {worst:.3e} vs the libm reference exceeds 1e-5"
    );
}
