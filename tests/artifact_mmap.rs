//! Store artifacts loaded two ways — owned (`StoreArtifact::from_bytes`) and
//! zero-copy mapped (`StoreArtifact::map`) — must round-trip bitwise and
//! answer identically, and the serving cache must admit a mapped store at
//! its resident-page estimate rather than its full virtual payload.

use concorde_suite::core::cache::FeatureKey;
use concorde_suite::prelude::*;

/// One quick two-config store (the `for_pair` sweep exercises multi-d_cfg
/// tables, including the latency arenas), with 64-instruction windows so
/// every raw series has many entries.
fn reference_store() -> (FeatureStore, MicroArch) {
    let profile = ReproProfile {
        window_k: 64,
        ..ReproProfile::quick()
    };
    let spec = by_id("S5").unwrap();
    let full = generate_region(&spec, 0, 0, profile.warmup_len + profile.region_len);
    let (w, r) = full.instrs.split_at(profile.warmup_len);
    let n1 = MicroArch::arm_n1();
    let big = MicroArch::big_core();
    let store = FeatureStore::precompute(w, r, &SweepConfig::for_pair(&big, &n1), &profile);
    (store, n1)
}

fn key(sweep_hash: u64) -> FeatureKey {
    FeatureKey {
        workload: "S5".into(),
        trace: 0,
        start: 0,
        region_len: 4096,
        sweep_hash,
    }
}

fn feature_bits(store: &FeatureStore, arch: &MicroArch) -> Vec<u32> {
    store
        .features(arch, FeatureVariant::Full)
        .iter()
        .map(|x| x.to_bits())
        .collect()
}

#[test]
fn artifact_roundtrip_is_bitwise_owned_and_mapped() {
    let (store, n1) = reference_store();
    let key = key(11);
    let artifact = StoreArtifact::new(key.clone(), store.clone());
    let bytes = artifact.to_bytes();
    let reference = feature_bits(&store, &n1);

    // Owned round-trip: container + store re-serialize to identical bytes,
    // and assembled features match bit-for-bit.
    let back = StoreArtifact::from_bytes(&bytes).unwrap();
    assert_eq!(back.key, key);
    assert_eq!(back.schema_version, SCHEMA_VERSION);
    assert_eq!(back.store.to_bytes(), store.to_bytes());
    assert_eq!(
        reference,
        feature_bits(&back.store, &n1),
        "owned load diverged"
    );

    // Mapped round-trip: identical bits without copying arena payloads.
    let path = std::env::temp_dir().join(format!("concorde_artifact_{}.cfa", std::process::id()));
    artifact.save(&path).unwrap();
    let mapped = StoreArtifact::map(&path).unwrap();
    assert_eq!(mapped.key, key);
    if cfg!(unix) {
        assert!(mapped.store.is_mapped(), "unix load must be mmap");
    }
    assert_eq!(
        reference,
        feature_bits(&mapped.store, &n1),
        "mapped load diverged"
    );
    assert_eq!(mapped.store.to_bytes(), store.to_bytes());
    assert_eq!(
        mapped.store.min_bound_cpi(&n1).to_bits(),
        back.store.min_bound_cpi(&n1).to_bits(),
        "raw series must read identically mapped vs owned"
    );
    assert_eq!(
        back.store.min_bound_cpi(&n1).to_bits(),
        store.min_bound_cpi(&n1).to_bits(),
        "raw series must survive the round trip"
    );
    std::fs::remove_file(&path).ok();
}

/// Cache admission for mmap'd stores charges the **resident-page estimate**
/// (`mincore(2)`), not the full virtual payload: an owned store admits at
/// its `approx_bytes`, a mapped one at no more than that (a freshly written
/// artifact is typically fully page-cache-resident, so the bound is loose —
/// the point is the accounting path, not a page-out scenario).
#[test]
fn mapped_store_admission_counts_resident_pages() {
    let (store, _) = reference_store();
    assert_eq!(
        store.admission_bytes(),
        store.approx_bytes(),
        "owned stores admit at their full accounted footprint"
    );
    let key = key(13);
    let path = std::env::temp_dir().join(format!("concorde_resident_{}.cfa", std::process::id()));
    StoreArtifact::new(key.clone(), store.clone())
        .save(&path)
        .unwrap();
    let mapped = StoreArtifact::map(&path).unwrap();
    if mapped.store.is_mapped() {
        let admission = mapped.store.admission_bytes();
        assert!(
            admission > 0 && admission <= mapped.store.approx_bytes(),
            "resident estimate {admission} must sit in (0, approx {}]",
            mapped.store.approx_bytes()
        );
        // The shared cache accounts the mapped insert at the same estimate.
        let cache = ShardedStoreCache::new(1, usize::MAX);
        let store = std::sync::Arc::new(mapped.store);
        let admission = store.admission_bytes();
        cache.insert(key, std::sync::Arc::clone(&store));
        assert_eq!(cache.stats().bytes, admission);
    }
    std::fs::remove_file(&path).ok();
}
