//! Golden pin of the on-disk store artifact bytes.
//!
//! A quick-profile S5 store is precomputed under two sweeps — the single-arch
//! `SweepConfig::for_arch(n1)` and the §5.2.3 power-of-two
//! `SweepConfig::quantized()` grid — wrapped in a `StoreArtifact` with a fixed
//! key, and serialized. The FNV-1a hash of every byte of `to_bytes()` is
//! pinned, so any change to the writer (field order, padding, arena records,
//! the encoding tag word, the checksum footer) or to the values it stores
//! fails here, and artifacts written by earlier builds keep loading.
//!
//! The model artifact (`ConcordePredictor::save`, JSON) is pinned the same
//! way for a tiny deterministic model: nothing the predictor derives at
//! inference time may leak into it, and a saved artifact must load back to
//! the same model and answers.

use concorde_suite::core::cache::{FeatureKey, StoreArtifact};
use concorde_suite::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn artifact_bytes(sweep: &SweepConfig) -> Vec<u8> {
    let profile = ReproProfile::quick();
    let full = generate_region(
        &by_id("S5").unwrap(),
        0,
        0,
        profile.warmup_len + profile.region_len,
    );
    let (w, r) = full.instrs.split_at(profile.warmup_len);
    let store = FeatureStore::precompute(w, r, sweep, &profile);
    let key = FeatureKey {
        workload: "S5".into(),
        trace: 0,
        start: 0,
        region_len: profile.region_len as u32,
        sweep_hash: 0x5eed,
    };
    StoreArtifact::new(key, store).to_bytes()
}

#[test]
fn f32_artifact_bytes_are_pinned() {
    let n1 = MicroArch::arm_n1();
    let got = [
        ("for_arch_n1", artifact_bytes(&SweepConfig::for_arch(&n1))),
        ("quantized", artifact_bytes(&SweepConfig::quantized())),
    ]
    .map(|(name, bytes)| (name, bytes.len(), fnv1a(&bytes)));
    let want = [
        ("for_arch_n1", 7368, 0xae4c_1ec3_b4eb_9fa9),
        ("quantized", 390_608, 0xe1c4_9c50_3be6_5776),
    ];
    assert_eq!(got, want, "artifact bytes moved: {got:#x?}");
}

/// A small model with fixed weights (seeded Xavier init), a normalizer whose
/// every dim differs, and both output guards set.
fn tiny_model() -> ConcordePredictor {
    let layout = FeatureLayout {
        encoding: Encoding { levels: 4 },
        variant: FeatureVariant::Full,
    };
    let dim = layout.dim();
    let mut rng = ChaCha12Rng::seed_from_u64(0x90_1d);
    ConcordePredictor {
        layout,
        normalizer: Normalizer {
            mean: (0..dim).map(|i| (i as f32 * 0.37).sin()).collect(),
            std: (0..dim)
                .map(|i| 0.5 + (i as f32 * 0.11).cos().abs())
                .collect(),
            log1p: true,
        },
        mlp: Mlp::new(&[dim, 8, 4, 1], &mut rng),
        log_output: true,
        output_clamp: Some((0.05, 80.0)),
    }
}

#[test]
fn model_artifact_bytes_are_pinned() {
    let model = tiny_model();
    let store = {
        let profile = ReproProfile::quick();
        let full = generate_region(
            &by_id("S5").unwrap(),
            0,
            0,
            profile.warmup_len + profile.region_len,
        );
        let (w, r) = full.instrs.split_at(profile.warmup_len);
        let profile = ReproProfile {
            encoding: model.layout.encoding,
            ..profile
        };
        FeatureStore::precompute(w, r, &SweepConfig::for_arch(&MicroArch::arm_n1()), &profile)
    };
    let n1 = MicroArch::arm_n1();
    // Run inference first, so anything it caches on the model is in place
    // when the artifact is written.
    let before = model.predict(&store, &n1);
    let path =
        std::env::temp_dir().join(format!("concorde_model_golden_{}.json", std::process::id()));
    model.save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let loaded = ConcordePredictor::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (77_901, 0x24d5_584f_ec9a_3765),
        "model artifact bytes moved: {:#x}",
        fnv1a(&bytes)
    );
    assert_eq!(loaded.mlp, model.mlp);
    assert_eq!(loaded.normalizer, model.normalizer);
    assert_eq!(loaded.predict(&store, &n1).to_bits(), before.to_bits());
}
