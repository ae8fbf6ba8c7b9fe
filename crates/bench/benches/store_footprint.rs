//! Artifact preload bench (§5.2.3): wall time to load a fleet-shaped store
//! artifact as an owned copy (`StoreArtifact::load`) vs zero-copy mmap
//! (`StoreArtifact::map`).

use criterion::{criterion_group, criterion_main, Criterion};

use concorde_core::cache::{FeatureKey, StoreArtifact};
use concorde_core::prelude::*;

fn bench_preload(c: &mut Criterion) {
    // A fleet-shaped artifact: the §5.2.3 quantized sweep produces a store
    // big enough (MBs) that owned preload pays a real copy while the mapped
    // path stays O(page faults touched at parse time).
    let profile = ReproProfile {
        window_k: 64,
        ..ReproProfile::quick()
    };
    let spec = concorde_trace::by_id("S5").unwrap();
    let full =
        concorde_trace::generate_region(&spec, 0, 0, profile.warmup_len + profile.region_len);
    let (w, r) = full.instrs.split_at(profile.warmup_len);
    let store = FeatureStore::precompute(w, r, &SweepConfig::quantized(), &profile);
    let key = FeatureKey {
        workload: "S5".into(),
        trace: 0,
        start: 0,
        region_len: 4096,
        sweep_hash: 7,
    };
    let path = std::env::temp_dir().join(format!("concorde_bench_{}.cfa", std::process::id()));
    StoreArtifact::new(key, store).save(&path).unwrap();
    let bytes = std::fs::metadata(&path).unwrap().len();
    eprintln!("preload fixture: {bytes} bytes");
    let mut g = c.benchmark_group("artifact_preload");
    g.sample_size(20);
    g.bench_function("owned_copy", |b| {
        b.iter(|| StoreArtifact::load(&path).unwrap())
    });
    g.bench_function("mmap", |b| b.iter(|| StoreArtifact::map(&path).unwrap()));
    g.finish();
    std::fs::remove_file(&path).ok();
}

criterion_group!(benches, bench_preload);
criterion_main!(benches);
