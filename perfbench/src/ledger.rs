//! The traced run: replays a workload's seeded inputs and times calls into
//! each layer's public functions, recording a span per call.
//!
//! Steps, in order:
//! 1. set-up (`core.dataset`, `core.train`);
//! 2. an untraced timed pass on a fresh service, the baseline for the
//!    tracing overhead;
//! 3. a traced timed pass on another fresh service (`core.warm`,
//!    `serve.client_call`), then the same single requests through
//!    `TcpClient`, the benchmark's line client and the in-process `Client`;
//! 4. the cold-path ledger: each store the workload builds, rebuilt stage by
//!    stage (`trace`, `analytic`, `branch`) and then whole
//!    (`core.precompute`);
//! 5. the warm-path ledger: the workload's prediction groups replayed
//!    through assembly, normalization and the MLP, then whole
//!    (`core.predict`);
//! 6. the wire codec on the workload's request lines;
//! 7. the held-out simulations (`cyclesim.simulate_warmed`).
//!
//! Spans go to `out/spans-<workload>-<seed>.jsonl` in the benchmark's
//! directory when the run ends.

use std::hint::black_box;

use concorde_analytic::{
    analyze_branches, analyze_data, analyze_inst, analyze_static, fetch_buffers_model,
    icache_fills_model, issue_width_bound, pipe_bounds, queue_model, rob_model, IssueClass,
    QueueKind, ROB_SWEEP,
};
use concorde_core::prelude::*;
use concorde_cyclesim::MicroArch;
use concorde_ml::MlpScratch;
use concorde_serve::protocol::decode_request_line;
use concorde_serve::{PredictRequest, PredictResponse, PredictionService, TcpClient};

use crate::bench::{self, Gate, LineClient, Plan, Work};
use crate::metrics::{Metrics, PER_LAYER};
use crate::requests::{DseStream, Region, WireLine, DSE_REGIONS};
use crate::spans::{self, NameStats, Tracer};
use crate::stats::mean;
use crate::{Args, Report};

/// `dse_sweep` batches replayed through the warm-path ledger.
const LEDGER_BATCHES: usize = 100;
/// Single requests sent through each client for the round-trip comparison.
const ROUNDTRIPS: usize = 48;
/// Stage spans whose totals make up `core.precompute` (coverage).
const STAGES: [&str; 5] = [
    "analytic.analyze_static",
    "analytic.analyze_data",
    "analytic.analyze_inst",
    "analytic.rob_model",
    "analytic.other_models",
];

/// One store the workload builds: its region, the architecture it was
/// requested for, and the sweep it covers.
struct Key {
    region: Region,
    arch: MicroArch,
    sweep: SweepConfig,
}

/// The stores a workload's cold path builds: the quantized `dse_sweep`
/// stores, one round of `cold_regions` requests, or the warm `wire_mixed`
/// keys.
fn build_keys(plan: &Plan) -> Vec<Key> {
    let per_arch = |r: &PredictRequest| {
        let arch = r.arch.resolve().expect("grid architectures resolve");
        Key {
            region: Region::of(r),
            arch,
            sweep: SweepConfig::for_arch(&arch),
        }
    };
    match &plan.work {
        Work::Dse { .. } => DSE_REGIONS
            .iter()
            .map(|&region| Key {
                region,
                arch: MicroArch::arm_n1(),
                sweep: SweepConfig::quantized(),
            })
            .collect(),
        Work::Cold(reqs) => reqs
            .iter()
            .take(concorde_trace::suite_cached().len())
            .map(per_arch)
            .collect(),
        Work::Wire(p) => p.warm.iter().map(per_arch).collect(),
    }
}

/// Rebuilds each key's store stage by stage, then whole.
fn cold_ledger(keys: &[Key], t: &mut Tracer) -> Vec<FeatureStore> {
    let profile = bench::profile();
    let k = profile.window_k;
    keys.iter()
        .enumerate()
        .map(|(i, key)| {
            let id = i as u64;
            t.span("ledger.store", id, |t| {
                let (instrs, warm_len) = t.span("trace.generate_region", id, |_| {
                    bench::materialize(key.region)
                });
                let (w, r) = instrs.split_at(warm_len);
                let info = t.span("analytic.analyze_static", id, |t| {
                    let info = analyze_static(r);
                    black_box(t.span("branch.analyze_branches", id, |_| analyze_branches(w, r)));
                    info
                });
                // The same de-duplication and ROB grid the precompute uses.
                let mut d_cfgs = key.sweep.d_cfgs.clone();
                let mut seen = std::collections::HashSet::new();
                d_cfgs.retain(|c| seen.insert(c.data_key()));
                let mut i_cfgs = key.sweep.i_cfgs.clone();
                let mut seen = std::collections::HashSet::new();
                i_cfgs.retain(|c| seen.insert(c.inst_key()));
                let mut rob_grid: Vec<u32> =
                    key.sweep.rob.iter().copied().chain(ROB_SWEEP).collect();
                rob_grid.sort_unstable();
                rob_grid.dedup();

                let datas: Vec<_> = d_cfgs
                    .iter()
                    .map(|&c| t.span("analytic.analyze_data", id, |_| analyze_data(w, r, c)))
                    .collect();
                let insts: Vec<_> = i_cfgs
                    .iter()
                    .map(|&c| t.span("analytic.analyze_inst", id, |_| analyze_inst(w, r, c)))
                    .collect();
                for data in &datas {
                    for &rob in &rob_grid {
                        t.span("analytic.rob_model", id, |_| {
                            black_box(rob_model(&info, data, rob))
                        });
                    }
                }
                let s = &key.sweep;
                t.span("analytic.other_models", id, |_| {
                    for data in &datas {
                        for &q in &s.lq {
                            black_box(queue_model(&info, data, q, QueueKind::Load));
                        }
                        for &q in &s.sq {
                            black_box(queue_model(&info, data, q, QueueKind::Store));
                        }
                    }
                    for (class, grid) in [
                        (IssueClass::Alu, &s.alu),
                        (IssueClass::Fp, &s.fp),
                        (IssueClass::LoadStore, &s.ls),
                    ] {
                        for &width in grid {
                            black_box(issue_width_bound(&info, class, width, k));
                        }
                    }
                    for &(lsp, lp) in &s.pipes {
                        black_box(pipe_bounds(&info, lsp, lp, k));
                    }
                    for inst in &insts {
                        for &f in &s.fills {
                            black_box(icache_fills_model(&info, inst, f));
                        }
                        for &b in &s.buffers {
                            black_box(fetch_buffers_model(&info, inst, b));
                        }
                    }
                });
                t.span("core.precompute", id, |_| {
                    FeatureStore::precompute_threaded(w, r, &key.sweep, &profile, 1)
                })
            })
        })
        .collect()
}

/// One prediction group: a store and the architectures asked of it.
struct Group<'s> {
    store: &'s FeatureStore,
    archs: Vec<MicroArch>,
}

/// The workload's prediction groups, as the serving worker forms them:
/// `dse_sweep` batches against their region's store, one group per cold
/// request, and one group per warm key on each `wire_mixed` line.
fn groups<'s>(plan: &Plan, keys: &[Key], stores: &'s [FeatureStore]) -> Vec<Group<'s>> {
    let resolve = |r: &PredictRequest| r.arch.resolve().expect("grid architectures resolve");
    match &plan.work {
        Work::Dse { .. } => {
            let mut stream = DseStream::new(plan.seed);
            let mut batch = Vec::new();
            (0..LEDGER_BATCHES)
                .map(|_| {
                    stream.next_batch(&mut batch);
                    let region = Region::of(&batch[0]);
                    let at = keys
                        .iter()
                        .position(|k| k.region == region)
                        .expect("warm region");
                    Group {
                        store: &stores[at],
                        archs: batch.iter().map(resolve).collect(),
                    }
                })
                .collect()
        }
        Work::Cold(_) => keys
            .iter()
            .zip(stores)
            .map(|(k, store)| Group {
                store,
                archs: vec![k.arch],
            })
            .collect(),
        Work::Wire(p) => {
            let mut out: Vec<Group<'s>> = Vec::new();
            for (line, &cold) in p.lines.iter().zip(&p.cold) {
                if cold {
                    continue;
                }
                let first = out.len();
                for r in line.requests() {
                    let (region, arch) = (Region::of(r), resolve(r));
                    let at = keys
                        .iter()
                        .position(|k| k.region == region && k.arch == arch)
                        .expect("warm key");
                    match out[first..]
                        .iter_mut()
                        .find(|g| std::ptr::eq(g.store, &stores[at]))
                    {
                        Some(g) => g.archs.push(arch),
                        None => out.push(Group {
                            store: &stores[at],
                            archs: vec![arch],
                        }),
                    }
                }
            }
            out
        }
    }
}

/// Replays `groups` through assembly, normalization and the MLP, then
/// through the whole `predict_batch_into`. Returns (requested, distinct)
/// architecture counts.
fn warm_ledger(groups: &[Group], model: &ConcordePredictor, t: &mut Tracer) -> (usize, usize) {
    let dim = model.layout.dim();
    let variant = model.variant();
    let (mut asm, mut mlp, mut predict) = (
        AssemblyScratch::default(),
        MlpScratch::default(),
        PredictScratch::default(),
    );
    let (mut xs, mut raw, mut out) = (Vec::new(), Vec::new(), Vec::new());
    let (mut requested, mut distinct) = (0, 0);
    for (i, g) in groups.iter().enumerate() {
        let id = i as u64;
        let mut uniq: Vec<MicroArch> = Vec::new();
        for a in &g.archs {
            if !uniq.contains(a) {
                uniq.push(*a);
            }
        }
        requested += g.archs.len();
        distinct += uniq.len();
        xs.clear();
        xs.resize(uniq.len() * dim, 0.0);
        raw.clear();
        raw.resize(uniq.len(), 0.0);
        t.span("core.assembly", id, |_| {
            g.store
                .features_into_many(&uniq, variant, &mut xs, &mut asm)
        });
        t.span("core.normalize", id, |_| {
            model.normalizer.apply_batch(&mut xs)
        });
        t.span("ml.mlp_forward", id, |_| {
            model.mlp.predict_batch_into(&xs, &mut raw, &mut mlp)
        });
        t.span("core.predict", id, |_| {
            model.predict_batch_into(g.store, &g.archs, &mut predict, &mut out)
        });
        black_box((&raw, &out));
    }
    (requested, distinct)
}

/// Times the wire codec on the workload's request lines: the request
/// decoder per line and the reply encoder per response. Returns the number
/// of requests decoded (= responses encoded).
fn codec_ledger(plan: &Plan, t: &mut Tracer, gate: &mut Gate) -> usize {
    let lines: Vec<WireLine> = match &plan.work {
        Work::Dse { .. } => {
            let mut stream = DseStream::new(plan.seed);
            (0..LEDGER_BATCHES)
                .map(|_| {
                    let mut batch = Vec::new();
                    stream.next_batch(&mut batch);
                    WireLine::Array(batch)
                })
                .collect()
        }
        Work::Cold(reqs) => reqs.iter().cloned().map(WireLine::Single).collect(),
        Work::Wire(p) => p.lines.clone(),
    };
    let mut decoded = Vec::new();
    let mut reply = String::new();
    let mut n = 0;
    for (i, line) in lines.iter().enumerate() {
        let id = i as u64;
        let text = line.encode();
        let text = text.trim_end_matches('\n');
        let ok = t.span("serve.decode", id, |_| {
            decode_request_line(text, &mut decoded)
        });
        gate.check(ok.is_ok() && decoded.len() == line.requests().len(), || {
            format!("fast decoder rejected a benchmark line: {ok:?}")
        });
        let answers: Vec<PredictResponse> = line
            .requests()
            .iter()
            .map(|r| PredictResponse::ok(r.id, 0.5 + (r.id % 1009) as f64 / 997.0, true, 1234))
            .collect();
        reply.clear();
        t.span("serve.encode", id, |_| {
            for a in &answers {
                a.encode_json_into(&mut reply);
            }
        });
        n += answers.len();
    }
    n
}

/// Single requests that are warm once the timed pass is over.
fn resend_sample(plan: &Plan) -> Vec<PredictRequest> {
    match &plan.work {
        Work::Dse { .. } => {
            let mut batch = Vec::new();
            DseStream::new(plan.seed).next_batch(&mut batch);
            batch.truncate(ROUNDTRIPS);
            batch
        }
        Work::Cold(reqs) => reqs.iter().take(ROUNDTRIPS).cloned().collect(),
        Work::Wire(p) => p
            .lines
            .iter()
            .zip(&p.cold)
            .filter(|(l, &cold)| !cold && matches!(l, WireLine::Single(_)))
            .map(|(l, _)| l.requests()[0].clone())
            .take(ROUNDTRIPS)
            .collect(),
    }
}

/// Sends each request through `TcpClient`, the benchmark's line client and
/// the in-process `Client`, checking that all three answers agree bitwise.
fn roundtrips(
    service: &PredictionService,
    addr: &str,
    reqs: &[PredictRequest],
    t: &mut Tracer,
    gate: &mut Gate,
) {
    let client = service.client();
    let mut tcp = TcpClient::connect(addr).expect("connect to the loopback server");
    let mut line = LineClient::connect(addr);
    for r in reqs {
        let via_tcp = t.span("serve.tcp_roundtrip", r.id, |_| tcp.predict(r));
        let single = WireLine::Single(r.clone());
        let text = single.encode();
        let via_line = t.span("serve.line_roundtrip", r.id, |_| {
            line.exchange(&single, &text)
        });
        let via_inproc = t.span("serve.inproc_roundtrip", r.id, |_| {
            client.predict(r.clone())
        });
        let cpis = (
            via_tcp.ok().and_then(|a| a.cpi),
            via_line.ok().and_then(|mut a| a.pop()).and_then(|a| a.cpi),
            via_inproc.ok().and_then(|a| a.cpi),
        );
        gate.check(
            matches!(cpis, (Some(a), Some(b), Some(c)) if a.to_bits() == b.to_bits() && b.to_bits() == c.to_bits()),
            || format!("request {}: TCP, line and in-process answers differ: {cpis:?}", r.id),
        );
    }
}

fn ms(s: &NameStats) -> f64 {
    s.total_ns as f64 / 1e6
}

/// The traced run.
pub fn run(args: &Args, gate: &mut Gate) -> Report {
    let plan = Plan::new(args.workload, args.seed, args.seconds);
    let mut tracer = Tracer::default();

    let model = bench::train(&mut Some(&mut tracer));

    let (service, _) = bench::start_warm(&plan, &model, gate, &mut None);
    let plain = bench::with_tcp(&service, |addr| {
        bench::run_timed(&plan, &service, addr, gate, &mut None)
    });
    drop(service);

    let (service, warm) = bench::start_warm(&plan, &model, gate, &mut Some(&mut tracer));
    let (pass, snap) = bench::with_tcp(&service, |addr| {
        let pass = bench::run_timed(&plan, &service, addr, gate, &mut Some(&mut tracer));
        let snap = service.metrics();
        roundtrips(&service, addr, &resend_sample(&plan), &mut tracer, gate);
        (pass, snap)
    });
    drop(service);

    let keys = build_keys(&plan);
    let stores = cold_ledger(&keys, &mut tracer);
    let (requested, distinct) = warm_ledger(&groups(&plan, &keys, &stores), &model, &mut tracer);
    let codec_n = codec_ledger(&plan, &mut tracer, gate);

    let errors = bench::heldout_errors(&pass.heldout, &mut Some(&mut tracer));
    gate.check(!errors.is_empty(), || {
        "no held-out answers to score".to_string()
    });
    if plan.workload() == crate::requests::Workload::WireMixed {
        bench::check_bitwise(&pass.bitwise, &model, gate);
    }

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        );
    }

    let st = spans::by_name(tracer.spans());
    let get = |name: &str| st.get(name).copied().unwrap_or_default();
    let per_store = |name: &str| ms(&get(name)) / keys.len() as f64;
    let us_per_pred = |name: &str| ms(&get(name)) * 1e3 / requested as f64;
    let mean_ms = |name: &str| ms(&get(name)) / get(name).count.max(1) as f64;

    let predict_us = us_per_pred("core.predict");
    // Client round trip per prediction over calls answered from warm stores;
    // a workload with none (every cold request misses) uses the in-process
    // re-sends instead.
    let hits: Vec<_> = pass.calls.iter().filter(|c| c.all_hits).collect();
    let client_us = if hits.is_empty() {
        mean_ms("serve.inproc_roundtrip") * 1e3
    } else {
        hits.iter().map(|c| c.ms).sum::<f64>() * 1e3
            / hits.iter().map(|c| f64::from(c.preds)).sum::<f64>()
    };
    // Miss wait beyond the build: timed-phase misses, else the warm-up's.
    let build_ms = snap.build_ewma_us as f64 / 1e3;
    let miss_us: Vec<f64> = if pass.miss_micros.is_empty() {
        warm.iter()
            .filter(|a| !a.cached)
            .map(|a| a.micros as f64)
            .collect()
    } else {
        pass.miss_micros.iter().map(|&u| u as f64).collect()
    };
    let store_kb = mean(
        &stores
            .iter()
            .map(|s| s.approx_bytes() as f64 / 1024.0)
            .collect::<Vec<_>>(),
    );

    let mut metrics = Metrics::new(&PER_LAYER);
    metrics.set(
        "trace.generate_region_ms",
        per_store("trace.generate_region"),
    );
    metrics.set(
        "analytic.analyze_static_ms",
        per_store("analytic.analyze_static"),
    );
    metrics.set(
        "analytic.analyze_data_ms",
        per_store("analytic.analyze_data"),
    );
    metrics.set(
        "analytic.analyze_inst_ms",
        per_store("analytic.analyze_inst"),
    );
    metrics.set("analytic.rob_model_ms", per_store("analytic.rob_model"));
    metrics.set(
        "analytic.rob_model_calls",
        get("analytic.rob_model").count as f64 / keys.len() as f64,
    );
    metrics.set(
        "analytic.other_models_ms",
        per_store("analytic.other_models"),
    );
    metrics.set("core.precompute_ms", per_store("core.precompute"));
    metrics.set(
        "core.precompute_coverage",
        spans::coverage(&st, "core.precompute", &STAGES),
    );
    metrics.set("core.store_kb", store_kb);
    metrics.set("serve.cache_bytes", snap.cache_bytes as f64);
    metrics.set("serve.store_build_ms", build_ms);
    metrics.set("serve.miss_wait_ms", mean(&miss_us) / 1e3 - build_ms);
    metrics.set("core.assembly_us", us_per_pred("core.assembly"));
    metrics.set("core.normalize_us", us_per_pred("core.normalize"));
    metrics.set("ml.mlp_forward_us", us_per_pred("ml.mlp_forward"));
    metrics.set("core.predict_us", predict_us);
    metrics.set("core.arch_dedup_ratio", distinct as f64 / requested as f64);
    metrics.set("serve.overhead_us", client_us - predict_us);
    metrics.set("serve.avg_batch", snap.avg_batch);
    metrics.set("serve.latency_p90_ms", pass.latency_ms(0.9));
    metrics.set(
        "serve.decode_us",
        ms(&get("serve.decode")) * 1e3 / codec_n as f64,
    );
    metrics.set(
        "serve.encode_us",
        ms(&get("serve.encode")) * 1e3 / codec_n as f64,
    );
    metrics.set(
        "serve.tcp_roundtrip_us",
        mean_ms("serve.tcp_roundtrip") * 1e3,
    );
    metrics.set(
        "serve.line_roundtrip_us",
        mean_ms("serve.line_roundtrip") * 1e3,
    );
    metrics.set(
        "serve.inproc_roundtrip_us",
        mean_ms("serve.inproc_roundtrip") * 1e3,
    );
    metrics.set("serve.cache_hit_ratio", snap.cache_hit_rate);
    metrics.set("core.dataset_s", ms(&get("core.dataset")) / 1e3);
    metrics.set("core.train_s", ms(&get("core.train")) / 1e3);
    metrics.set("core.warm_s", ms(&get("core.warm")) / 1e3);
    metrics.set(
        "cyclesim.simulate_warmed_ms",
        mean_ms("cyclesim.simulate_warmed"),
    );
    metrics.set(
        "tracing.overhead_pct",
        (plain.preds_per_s() / pass.preds_per_s() - 1.0) * 100.0,
    );
    Report {
        metrics,
        attempted: pass.attempted,
        failed: pass.attempted - pass.exact,
        notes: vec![
            ("spans", tracer.spans().len().to_string()),
            ("stores", keys.len().to_string()),
            (
                "untraced_preds_per_s",
                format!("{:.1}", plain.preds_per_s()),
            ),
            ("traced_preds_per_s", format!("{:.1}", pass.preds_per_s())),
            (
                "timed_steal_s",
                format!("{:.2}", pass.steal_s + plain.steal_s),
            ),
        ],
    }
}
