//! End-to-end integration tests: the full generate → analyze → simulate →
//! train → predict pipeline at a tiny scale.

use concorde_suite::prelude::*;

fn tiny_profile() -> ReproProfile {
    ReproProfile::quick()
}

#[test]
fn end_to_end_pipeline_beats_naive_predictor() {
    let profile = tiny_profile();
    let cfg = DatasetConfig {
        profile: profile.clone(),
        n: 120,
        seed: 100,
        arch: ArchSampling::Random,
        workloads: Some(vec![15, 16, 20, 24]), // O1, O2, S2, S6
        threads: 0,
    };
    let data = generate_dataset(&cfg);
    let (train, test) = data.split_at(96);
    let (model, stats) = train_and_evaluate(train, test, &profile, &TrainOptions::default());

    // Naive: predict the train-set mean CPI everywhere.
    let mean_cpi = train.iter().map(|s| s.cpi).sum::<f64>() / train.len() as f64;
    let naive_pairs: Vec<(f64, f64)> = test.iter().map(|s| (mean_cpi, s.cpi)).collect();
    let naive = ErrorStats::from_pairs(&naive_pairs);
    // At this tiny scale the tail is noisy; compare medians (robust) and
    // require the mean not to be catastrophically worse.
    assert!(
        stats.p50 < naive.p50,
        "Concorde median ({:.3}) must beat mean-prediction median ({:.3})",
        stats.p50,
        naive.p50
    );
    assert!(
        stats.mean < naive.mean * 3.0,
        "mean {:.3} vs naive {:.3}",
        stats.mean,
        naive.mean
    );

    // And its predictions must be usable via the FeatureStore path too.
    let suite = suite();
    let s0 = &test[0];
    let spec = &suite[s0.workload as usize];
    let warm_start = s0.region.start.saturating_sub(profile.warmup_len as u64);
    let warm_len = (s0.region.start - warm_start) as usize;
    let full = generate_region(
        spec,
        s0.region.trace_idx,
        warm_start,
        warm_len + profile.region_len,
    );
    let (w, r) = full.instrs.split_at(warm_len);
    let store = FeatureStore::precompute(w, r, &SweepConfig::for_arch(&s0.arch), &profile);
    let via_store = model.predict(&store, &s0.arch);
    let via_features = model.predict_features(&s0.features);
    assert_eq!(
        via_store.to_bits(),
        via_features.to_bits(),
        "store path {via_store} must equal stored-features path {via_features}"
    );
}

#[test]
fn model_artifacts_roundtrip_through_disk() {
    let profile = tiny_profile();
    let cfg = DatasetConfig {
        profile: profile.clone(),
        n: 32,
        seed: 101,
        arch: ArchSampling::Random,
        workloads: Some(vec![15, 16]),
        threads: 0,
    };
    let data = generate_dataset(&cfg);
    let model = train_model(
        &data,
        &profile,
        &TrainOptions {
            epochs: Some(3),
            ..TrainOptions::default()
        },
    );
    let path = std::env::temp_dir().join("concorde_integration_model.json");
    model.save(&path).unwrap();
    let loaded = ConcordePredictor::load(&path).unwrap();
    for s in &data {
        let a = model.predict_features(&s.features);
        let b = loaded.predict_features(&s.features);
        assert!((a - b).abs() < 1e-9);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn dataset_regeneration_is_bit_identical() {
    let profile = tiny_profile();
    let cfg = DatasetConfig {
        profile,
        n: 10,
        seed: 202,
        arch: ArchSampling::Random,
        workloads: Some(vec![3, 20]),
        threads: 0,
    };
    let a = generate_dataset(&cfg);
    let b = generate_dataset(&cfg);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.cpi.to_bits(), y.cpi.to_bits());
        assert_eq!(x.features, y.features);
    }
}

#[test]
fn long_program_estimator_runs_end_to_end() {
    let profile = tiny_profile();
    let arch = MicroArch::arm_n1();
    let cfg = DatasetConfig {
        profile: profile.clone(),
        n: 48,
        seed: 300,
        arch: ArchSampling::Fixed(arch),
        workloads: Some(vec![15, 16]),
        threads: 0,
    };
    let data = generate_dataset(&cfg);
    let model = train_model(
        &data,
        &profile,
        &TrainOptions {
            epochs: Some(10),
            ..TrainOptions::default()
        },
    );
    let spec = by_id("O2").unwrap();
    let res = long_program_experiment(&spec, &arch, &model, &profile, 60_000, &[2, 6], 1);
    assert!(res.true_cpi > 0.1 && res.true_cpi < 50.0);
    assert_eq!(res.estimates.len(), 2);
    for (_, est, err) in &res.estimates {
        assert!(est.is_finite() && *est > 0.0);
        assert!(err.is_finite());
    }
}
