//! Criterion microbenchmarks of the analytical-stage components — the cost
//! breakdown behind the paper's §5.2.3 preprocessing table. The ROB sweep
//! is the largest single stage of a store build, but the D- and I-cache
//! simulations are not free: each builds a whole `Hierarchy` (a 4 MB LLC
//! included) for a quick-profile region of only 8192 instructions, so the
//! `*_quick` arms price the fixed set-up cost that the 16k arms amortize.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use concorde_analytic::prelude::*;
use concorde_branch::{BranchUnit, PredictorKind};
use concorde_cache::{simulate_inorder, Hierarchy, MemConfig};
use concorde_core::ReproProfile;
use concorde_trace::{build_static_program, by_id, generate_region};

fn bench_analytic(c: &mut Criterion) {
    let n = 16_384;
    let spec = by_id("P9").unwrap();
    let trace = generate_region(&spec, 0, 0, n);
    let info = analyze_static(&trace.instrs);
    let data = analyze_data(&[], &trace.instrs, MemConfig::default());
    let inst = analyze_inst(&[], &trace.instrs, MemConfig::default());

    c.bench_function("trace_generation_16k", |b| {
        b.iter(|| generate_region(&spec, 0, 0, n));
    });
    c.bench_function("inorder_cache_sim_16k", |b| {
        b.iter(|| simulate_inorder(&trace.instrs, MemConfig::default()));
    });
    c.bench_function("tage_simulation_16k", |b| {
        b.iter(|| BranchUnit::simulate(PredictorKind::Tage, 0, &trace.instrs));
    });

    let mut g = c.benchmark_group("rob_model");
    for rob in [16u32, 128, 1024] {
        g.bench_with_input(BenchmarkId::from_parameter(rob), &rob, |b, &rob| {
            b.iter(|| rob_model(&info, &data, rob));
        });
    }
    g.finish();

    // What one per-arch store build pays for its ROB curve: the full sweep
    // over a quick-profile region (4096 warm-up + 4096 instructions).
    let quick = ReproProfile::quick();
    let full = generate_region(&spec, 0, 0, quick.warmup_len + quick.region_len).instrs;
    let (warmup, region) = full.split_at(quick.warmup_len);
    let quick_info = analyze_static(region);
    let quick_data = analyze_data(warmup, region, MemConfig::default());
    // Trace generation for a cold store build: the static CFG of the
    // suite's largest program (S10, ~4000 blocks), and one quick-profile
    // warm-up + region walk, which builds its own static program first.
    let s10 = by_id("S10").unwrap();
    c.bench_function("static_program_s10", |b| {
        b.iter(|| build_static_program(&s10, 0));
    });
    c.bench_function("trace_generation_8k", |b| {
        b.iter(|| generate_region(&spec, 0, 0, quick.warmup_len + quick.region_len));
    });
    c.bench_function("hierarchy_new_n1", |b| {
        b.iter(|| Hierarchy::new(MemConfig::default()));
    });
    c.bench_function("analyze_data_quick", |b| {
        b.iter(|| analyze_data(warmup, region, MemConfig::default()));
    });
    c.bench_function("analyze_inst_quick", |b| {
        b.iter(|| analyze_inst(warmup, region, MemConfig::default()));
    });
    c.bench_function("rob_sweep_quick", |b| {
        let mut scratch = RobScratch::default();
        b.iter(|| {
            ROB_SWEEP
                .iter()
                .map(|&rob| {
                    rob_model_with(&mut scratch, &quick_info, &quick_data, rob).commit_cycles[0]
                })
                .sum::<u64>()
        });
    });

    c.bench_function("lq_model_16", |b| {
        b.iter(|| queue_model(&info, &data, 16, QueueKind::Load));
    });
    c.bench_function("pipes_bounds", |b| {
        b.iter(|| pipe_bounds(&info, 2, 2, 256));
    });
    c.bench_function("icache_fills_model_8", |b| {
        b.iter(|| icache_fills_model(&info, &inst, 8));
    });
    c.bench_function("percentile_encoding_101", |b| {
        let samples: Vec<f64> = (0..64).map(|i| (i % 13) as f64).collect();
        let enc = Encoding::paper();
        b.iter(|| enc.encode(&samples));
    });
    c.bench_function("encode_u32_4096", |b| {
        // The shape of a per-arch store's latency encodings: 4096 samples,
        // heavily duplicated, through the paper's 101-dim encoding.
        let samples: Vec<u32> = (0..4096u32)
            .map(|i| i.wrapping_mul(2_654_435_761) % 211)
            .collect();
        let enc = Encoding::paper();
        b.iter(|| enc.encode_u32(&samples));
    });
}

criterion_group! {
    name = analytic;
    config = Criterion::default().sample_size(20);
    targets = bench_analytic
}
criterion_main!(analytic);
