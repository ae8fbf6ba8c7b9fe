//! Cross-crate consistency: the analytical models, the feature store, and the
//! cycle-level simulator must agree on first-order structure.

use concorde_suite::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

fn warmed(id: &str, warm: usize, n: usize) -> (Vec<Instruction>, Vec<Instruction>) {
    let spec = by_id(id).unwrap();
    let full = generate_region(&spec, 0, 0, warm + n);
    let (w, r) = full.instrs.split_at(warm);
    (w.to_vec(), r.to_vec())
}

#[test]
fn rob_model_upper_bounds_simulator_ipc() {
    // The ROB model assumes a perfect frontend and unlimited bandwidth, so
    // its throughput must (approximately) upper-bound the simulator's IPC at
    // the same ROB size when all other resources are maxed.
    let (w, r) = warmed("S5", 16_000, 8_000);
    let info = analyze_static(&r);
    let data = analyze_data(
        &w,
        &r,
        MemConfig {
            l1i_kb: 256,
            l1d_kb: 256,
            l2_kb: 4096,
            prefetch_degree: 4,
        },
    );
    for rob in [16u32, 64, 256] {
        let model_thr = rob_model(&info, &data, rob).overall_throughput();
        let arch = MicroArch {
            rob_size: rob,
            ..MicroArch::big_core()
        };
        let sim = simulate_warmed(&w, &r, &arch, SimOptions::default());
        assert!(
            model_thr >= sim.ipc() * 0.8,
            "ROB={rob}: analytical bound {model_thr:.3} should not sit far below simulated IPC {:.3}",
            sim.ipc()
        );
    }
}

#[test]
fn min_bound_correlates_with_simulated_cpi_across_workloads() {
    let profile = ReproProfile::quick();
    let arch = MicroArch::arm_n1();
    let mut bounds = Vec::new();
    let mut sims = Vec::new();
    for id in ["O1", "S5", "S6", "P11", "S1"] {
        let (w, r) = warmed(id, profile.warmup_len, profile.region_len);
        let store = FeatureStore::precompute(&w, &r, &SweepConfig::for_arch(&arch), &profile);
        bounds.push(store.min_bound_cpi(&arch));
        sims.push(simulate_warmed(&w, &r, &arch, SimOptions::default()).cpi());
    }
    // Rank agreement between the analytical bound and ground truth: the most
    // memory-bound workload must rank high in both, the resident kernel low.
    let rank = |v: &[f64]| {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&a, &b| v[a].partial_cmp(&v[b]).unwrap());
        idx
    };
    let rb = rank(&bounds);
    let rs = rank(&sims);
    assert_eq!(
        rb[0], rs[0],
        "fastest workload must match: bounds {bounds:?} sims {sims:?}"
    );
    assert_eq!(
        rb[rb.len() - 1],
        rs[rs.len() - 1],
        "slowest workload must match: bounds {bounds:?} sims {sims:?}"
    );
}

#[test]
fn direct_min_bound_matches_store_min_bound_bitwise() {
    // `concorde bound --fast` computes the min-bound WITHOUT building a
    // feature store; for an architecture on the store's grid the two
    // routes must agree bitwise — the fast answer is the same number the
    // full store would have bounded with.
    let profile = ReproProfile::quick();
    let spec = by_id("S5").unwrap();
    let full = generate_region(&spec, 0, 0, profile.warmup_len + profile.region_len);
    let (w, r) = full.instrs.split_at(profile.warmup_len);
    for arch in [MicroArch::arm_n1(), MicroArch::big_core()] {
        let store = FeatureStore::precompute(w, r, &SweepConfig::for_arch(&arch), &profile);
        let via_store = store.min_bound_cpi(&arch);
        let direct = analytic_min_bound_cpi(w, r, &arch, &profile);
        assert_eq!(
            via_store.to_bits(),
            direct.to_bits(),
            "store {via_store} vs direct {direct}"
        );
    }
}

#[test]
fn feature_store_is_finite_for_random_architectures() {
    let profile = ReproProfile::quick();
    let (w, r) = warmed("P9", profile.warmup_len, profile.region_len);
    let mut rng = ChaCha12Rng::seed_from_u64(77);
    for _ in 0..10 {
        let arch = MicroArch::sample(&mut rng);
        let store = FeatureStore::precompute(&w, &r, &SweepConfig::for_arch(&arch), &profile);
        let f = store.features(&arch, FeatureVariant::Full);
        assert!(
            f.iter().all(|x| x.is_finite()),
            "non-finite feature for {arch:?}"
        );
        assert!(store.min_bound_cpi(&arch).is_finite());
    }
}

#[test]
fn branch_rate_feature_matches_simulator_rates() {
    // Trace analysis predicts the mispredict rate analytically for Simple BP;
    // the simulator realizes it stochastically. They must agree closely.
    let (w, r) = warmed("S8", 16_000, 16_000);
    let info = analyze_branches(&w, &r);
    for pct in [10u8, 50] {
        let kind = PredictorKind::Simple { miss_pct: pct };
        let arch = MicroArch {
            predictor: kind,
            ..MicroArch::arm_n1()
        };
        let sim = simulate_warmed(&w, &r, &arch, SimOptions::default());
        let analytic_rate = info.mispredict_rate(kind);
        let sim_rate = sim.branch.mispredict_rate();
        assert!(
            (analytic_rate - sim_rate).abs() < 0.05,
            "pct={pct}: analytic {analytic_rate:.3} vs simulated {sim_rate:.3}"
        );
    }
}

#[test]
fn shapley_on_the_simulator_satisfies_efficiency() {
    let (w, r) = warmed("S6", 8_000, 6_000);
    let base = MicroArch::big_core();
    let target = MicroArch::arm_n1();
    let groups = cache_vs_lq_groups();
    let f = |a: &MicroArch| simulate_warmed(&w, &r, a, SimOptions::default()).cpi();
    let s = shapley_exact(f, &base, &target, &groups);
    let total: f64 = s.values.iter().sum();
    assert!(
        (total - (s.target_value - s.base_value)).abs() < 1e-9,
        "efficiency: {total} vs {}",
        s.target_value - s.base_value
    );
    assert!(s.base_value > 0.0 && s.target_value > 0.0);
}

#[test]
fn quantized_store_predictions_stay_close_to_exact() {
    // Quantizing ROB/LQ/SQ to powers of two (§5.2.3) must produce features
    // whose min-bound CPI is close to the exact-value store's.
    let profile = ReproProfile::quick();
    let (w, r) = warmed("S2", profile.warmup_len, profile.region_len);
    let arch = MicroArch {
        rob_size: 100,
        lq_size: 22,
        sq_size: 30,
        ..MicroArch::arm_n1()
    };
    let exact = FeatureStore::precompute(&w, &r, &SweepConfig::for_arch(&arch), &profile);
    let quant = FeatureStore::precompute(&w, &r, &SweepConfig::quantized(), &profile);
    let a = exact.min_bound_cpi(&arch);
    let b = quant.min_bound_cpi(&arch);
    assert!(
        (a - b).abs() / a < 0.35,
        "quantized bound {b:.3} too far from exact {a:.3}"
    );
}
