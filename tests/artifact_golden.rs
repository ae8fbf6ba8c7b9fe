//! Golden pin of the on-disk store artifact bytes.
//!
//! A quick-profile S5 store is precomputed under two sweeps — the single-arch
//! `SweepConfig::for_arch(n1)` and the §5.2.3 power-of-two
//! `SweepConfig::quantized()` grid — wrapped in a `StoreArtifact` with a fixed
//! key, and serialized. The FNV-1a hash of every byte of `to_bytes()` is
//! pinned, so any change to the writer (field order, padding, arena records,
//! the encoding tag word, the checksum footer) or to the values it stores
//! fails here, and artifacts written by earlier builds keep loading.

use concorde_suite::core::cache::{FeatureKey, StoreArtifact};
use concorde_suite::prelude::*;

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
