//! `concorde` — command-line interface to the reproduction.
//!
//! ```text
//! concorde simulate  <workload> [--arch n1|big] [--len N]   cycle-level CPI
//! concorde bound     <workload> [--arch n1|big] [--len N]   analytical min-bound CPI
//! concorde sweep     <workload> <param> v1,v2,…             CPI across one parameter
//! concorde attribute <workload>                             Shapley: big core → N1
//! concorde workloads [--json]                               list the 29-program suite
//! concorde riscv run <elf> [--max-insts N]                  execute an RV32IM binary
//! concorde serve     [--addr A] [--model P] [options]       prediction service (TCP)
//! concorde predict   <workload> [--addr A] [options]        query CPI (local or remote)
//! ```
//!
//! `simulate`/`bound`/`sweep`/`attribute` are deterministic and need no
//! trained model. `serve` and `predict` exercise the learned predictor
//! through `concorde-serve`: `serve` loads (or quickly trains) a model and
//! speaks line-delimited JSON over TCP; `predict` either queries a running
//! server or spins the service up in-process.
//!
//! Every `<workload>` operand accepts either a suite id (`S5`) or a
//! real-program id `riscv:<path>[@<max-insts>]` naming an RV32IM ELF
//! binary, which is executed once and served from its recorded trace.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use concorde_suite::prelude::*;
use concorde_suite::serve::workload_catalog;

fn usage_text() -> &'static str {
    "concorde — CPU performance modeling reproduction\n\n\
         workload ids: a suite id (S5) or riscv:<path>[@<max-insts>] for an RV32IM ELF\n\n\
         usage:\n  concorde workloads [--json]\n  \
         concorde riscv run <elf> [--max-insts N]\n  \
         concorde simulate  <workload> [--arch n1|big] [--len N]\n  \
         concorde bound     <workload> [--arch n1|big] [--len N] [--fast]\n  \
         concorde sweep     <workload> <param> v1,v2,… [--arch n1|big] [--len N]\n  \
         concorde attribute <workload> [--len N]\n  \
         concorde precompute <workload> --out FILE [--trace N] [--start N] [--len N]\n             \
         [--profile quick|default] [--sweep arch|quantized] [--arch n1|big]\n  \
         concorde inspect   <FILE>\n  \
         concorde serve     [--addr HOST:PORT] [--model PATH] [--save-model PATH]\n             \
         [--profile quick|default] [--train-samples N] [--workers N]\n             \
         [--max-batch N] [--cache-bytes N[k|m|g]] [--cache-shards N]\n             \
         [--precompute-workers N] [--max-conns N]\n             \
         [--slo CLASS=MS,…] [--metrics-addr HOST:PORT]\n             \
         [--sweep arch|quantized] [--preload FILE]…\n             \
         [--read-timeout-ms N] [--max-line-bytes N[k|m|g]] [--dynamic-workloads DIR]\n  \
         concorde predict   <workload> [--addr HOST:PORT] [--arch n1|big] [--set param=value …]\n             \
         [--trace N] [--start N] [--count N] [--deadline-ms N]\n             \
         [--class interactive|batch] [--schema-version N]"
}

fn usage() -> ! {
    eprintln!("{}", usage_text());
    std::process::exit(2);
}

fn bail(msg: &str) -> ! {
    eprintln!("error: {msg}\n");
    usage();
}

/// Value of `--flag <value>`, or a usage error naming the flag.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| bail(&format!("{flag} needs a value")))
            .as_str()
    })
}

/// Every value of a repeatable `--flag <value>`.
fn flag_values<'a>(args: &'a [String], flag: &str) -> Vec<&'a str> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == flag)
        .map(|(i, _)| {
            args.get(i + 1)
                .unwrap_or_else(|| bail(&format!("{flag} needs a value")))
                .as_str()
        })
        .collect()
}

fn parse_arch(args: &[String]) -> MicroArch {
    match flag_value(args, "--arch") {
        None | Some("n1") => MicroArch::arm_n1(),
        Some("big") => MicroArch::big_core(),
        Some(other) => bail(&format!("unknown --arch `{other}` (expected n1 or big)")),
    }
}

/// Longest region `--len` accepts: the ROB model indexes instructions in
/// 24 bits.
const MAX_LEN: usize = (1 << 24) - 1;

fn parse_len(args: &[String], default: usize) -> usize {
    match flag_value(args, "--len") {
        None => default,
        Some(v) => match v.parse() {
            Ok(len) if len <= MAX_LEN => len,
            Ok(_) => bail(&format!(
                "--len `{v}` is above the {MAX_LEN}-instruction limit"
            )),
            Err(_) => bail(&format!("--len `{v}` is not a number")),
        },
    }
}

fn parse_num<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    match flag_value(args, flag) {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| bail(&format!("{flag} `{v}` is not a number"))),
    }
}

fn operand<'a>(args: &'a [String], idx: usize, what: &str) -> &'a str {
    args.get(idx)
        .unwrap_or_else(|| bail(&format!("missing {what}")))
        .as_str()
}

fn region_of(id: &str, len: usize) -> (Vec<Instruction>, Vec<Instruction>) {
    let resolved = resolve_workload(id).unwrap_or_else(|e| {
        eprintln!("{e}; run `concorde workloads` for the suite list");
        std::process::exit(2);
    });
    let warm = len.min(32_000);
    let full = resolved.materialize(0, 0, warm + len);
    // Dynamic traces are finite: a short program may not fill warm + len.
    let (w, r) = full.instrs.split_at(warm.min(full.instrs.len()));
    (w.to_vec(), r.to_vec())
}

/// Sets the wire `arch` override `param` of `spec` (the `--set` and `sweep`
/// names); `false` for an unknown name. `ArchSpec::resolve` checks the value.
fn set_spec_param(spec: &mut ArchSpec, param: &str, v: u32) -> bool {
    let field = match param {
        "rob" => &mut spec.rob,
        "lq" => &mut spec.lq,
        "sq" => &mut spec.sq,
        "alu" => &mut spec.alu,
        "fp" => &mut spec.fp,
        "ls" => &mut spec.ls,
        "fetch" => &mut spec.fetch,
        "decode" => &mut spec.decode,
        "rename" => &mut spec.rename,
        "commit" => &mut spec.commit,
        "l1d" => &mut spec.l1d,
        "l1i" => &mut spec.l1i,
        "l2" => &mut spec.l2,
        "prefetch" => &mut spec.prefetch,
        _ => return false,
    };
    *field = Some(v);
    true
}

/// Loads `--model` if given, otherwise trains a small model on the fly.
fn obtain_model(args: &[String], profile: &ReproProfile) -> ConcordePredictor {
    if let Some(path) = flag_value(args, "--model") {
        return ConcordePredictor::load(std::path::Path::new(path))
            .unwrap_or_else(|e| bail(&format!("cannot load model from {path}: {e}")));
    }
    let n = parse_num(args, "--train-samples", 96usize);
    eprintln!("[serve] no --model given; training a {n}-sample model (pass --model for quality) …");
    let t0 = std::time::Instant::now();
    let data = generate_dataset(&DatasetConfig::random(profile.clone(), n, 1));
    let model = train_model(&data, profile, &TrainOptions::default());
    eprintln!(
        "[serve] model ready in {:?} ({} params)",
        t0.elapsed(),
        model.mlp.num_params()
    );
    if let Some(path) = flag_value(args, "--save-model") {
        match model.save(std::path::Path::new(path)) {
            Ok(()) => eprintln!("[serve] model saved to {path}"),
            Err(e) => eprintln!("[serve] warning: could not save model: {e}"),
        }
    }
    model
}

fn serve_profile(args: &[String]) -> ReproProfile {
    match flag_value(args, "--profile") {
        None | Some("quick") => ReproProfile::quick(),
        Some("default") => ReproProfile::default_repro(),
        Some(other) => bail(&format!(
            "unknown --profile `{other}` (expected quick or default)"
        )),
    }
}

/// Parses a byte size with an optional `k`/`m`/`g` suffix (e.g. `512m`),
/// rejecting zero and overflow with the parser's typed error.
fn parse_bytes(flag: &str, v: &str) -> usize {
    parse_byte_size(v).unwrap_or_else(|e| bail(&format!("{flag}: {e}")))
}

/// Exits 2 with `<flag> was removed: <why>` if `args` names a retired flag.
fn reject_retired(args: &[String], retired: &[(&str, &str)]) {
    for (flag, why) in retired {
        if args.iter().any(|a| a == flag) {
            bail(&format!("{flag} was removed: {why}"));
        }
    }
}

const RETIRED_ENCODING: (&str, &str) = ("--encoding", "stores are always lossless f32");

fn serve_config(args: &[String]) -> ServeConfig {
    if args.iter().any(|a| a == "--cache") {
        bail(
            "--cache <stores> was replaced: the cache now admits by a byte budget — \
             use --cache-bytes N[k|m|g] (and --cache-shards N); size it from \
             `concorde inspect` approx_bytes or `{\"cmd\": \"stats\"}`",
        );
    }
    let f32_pool = "the service always runs the f32 model and builds cache misses \
                    on the precompute pool";
    reject_retired(
        args,
        &[
            ("--model-encoding", f32_pool),
            ("--inline-miss", f32_pool),
            (
                "--miss-slo-ms",
                "every request gets the exact answer; use --slo interactive=N,batch=N \
                 to order cold builds by deadline",
            ),
            (
                "--deadline-us",
                "batches flush as soon as the queue is empty",
            ),
            RETIRED_ENCODING,
        ],
    );
    let sweep = match flag_value(args, "--sweep") {
        None | Some("arch") => SweepScope::PerArch,
        Some("quantized") => SweepScope::Quantized,
        Some(other) => bail(&format!(
            "unknown --sweep `{other}` (expected arch or quantized)"
        )),
    };
    let defaults = ServeConfig::default();
    ServeConfig {
        workers: parse_num(args, "--workers", 0usize),
        queue_capacity: parse_num(args, "--queue", defaults.queue_capacity),
        max_batch: parse_num(args, "--max-batch", defaults.max_batch),
        cache_shards: parse_num(args, "--cache-shards", 0usize),
        cache_bytes: flag_value(args, "--cache-bytes")
            .map(|v| parse_bytes("--cache-bytes", v))
            .unwrap_or(defaults.cache_bytes),
        precompute_workers: parse_num(args, "--precompute-workers", 0usize),
        max_connections: parse_num(args, "--max-conns", defaults.max_connections),
        sweep,
        class_slo: flag_value(args, "--slo")
            .map(|v| ClassSlo::parse(v).unwrap_or_else(|e| bail(&format!("--slo: {e}"))))
            .unwrap_or_default(),
        read_timeout: flag_value(args, "--read-timeout-ms").map(|v| {
            let ms: u64 = v
                .parse()
                .unwrap_or_else(|_| bail(&format!("--read-timeout-ms `{v}` is not a number")));
            if ms == 0 {
                bail("--read-timeout-ms must be > 0 (omit the flag to keep idle connections)");
            }
            Duration::from_millis(ms)
        }),
        max_line_bytes: flag_value(args, "--max-line-bytes")
            .map(|v| parse_bytes("--max-line-bytes", v))
            .unwrap_or(defaults.max_line_bytes),
        fault_plan: None,
        // Opt-in: without it, client-supplied `riscv:` ids only serve when
        // already registered (e.g. via --preload); with it, unseen ids
        // resolve on demand from ELFs inside DIR.
        dynamic_root: flag_value(args, "--dynamic-workloads").map(|v| {
            let p = std::path::PathBuf::from(v);
            if !p.is_dir() {
                bail(&format!("--dynamic-workloads `{v}` is not a directory"));
            }
            p
        }),
    }
}

/// Flipped by the `SIGTERM` handler; the watcher thread in `serve` begins
/// the graceful drain when it sees the flag.
static TERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term(_sig: i32) {
    // Async-signal-safe by construction: the handler is one atomic store.
    TERM.store(true, Ordering::SeqCst);
}

/// Installs the `SIGTERM` → drain flag handler. A raw `signal(2)` binding
/// keeps the tree dependency-free; `SIGINT` (Ctrl-C) keeps its default
/// hard-kill behavior so an operator can still bail out of a stuck drain.
#[cfg(unix)]
fn install_term_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_term as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_term_handler() {}

fn arch_spec_from_args(args: &[String]) -> ArchSpec {
    let mut spec = match flag_value(args, "--arch") {
        None => ArchSpec::default(),
        Some(base @ ("n1" | "big")) => ArchSpec::base(base),
        Some(other) => bail(&format!("unknown --arch `{other}` (expected n1 or big)")),
    };
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--set" {
            let kv = operand(args, i + 1, "--set value (param=value)");
            let (k, v) = kv
                .split_once('=')
                .unwrap_or_else(|| bail(&format!("--set `{kv}` is not param=value")));
            let v: u32 = v
                .parse()
                .unwrap_or_else(|_| bail(&format!("--set value `{v}` is not a number")));
            if !set_spec_param(&mut spec, k, v) {
                bail(&format!("unknown --set parameter `{k}`"));
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    spec
}

fn print_response(resp: &PredictResponse) {
    match (&resp.cpi, &resp.error) {
        (Some(cpi), _) => println!(
            "id {:>4}: CPI {cpi:.4}  ({}, {} µs)",
            resp.id,
            if resp.cached {
                "cache hit"
            } else {
                "precomputed"
            },
            resp.micros
        ),
        (None, Some(e)) => println!("id {:>4}: error: {e}", resp.id),
        (None, None) => println!("id {:>4}: empty response", resp.id),
    }
}

fn main() {
    // Make `riscv:<path>` workload ids resolvable in every subcommand.
    concorde_riscv::install();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    match cmd {
        "riscv" => {
            match args.get(1).map(String::as_str) {
                Some("run") => {}
                Some(other) => bail(&format!(
                    "unknown riscv subcommand `{other}` (expected run)"
                )),
                None => bail("usage: concorde riscv run <elf> [--max-insts N]"),
            }
            let path = operand(&args, 2, "ELF path (usage: concorde riscv run <elf>)");
            let max_insts: u64 = parse_num(&args, "--max-insts", concorde_riscv::DEFAULT_MAX_INSTS);
            if max_insts == 0 {
                bail("--max-insts must be > 0");
            }
            let bytes = std::fs::read(path)
                .unwrap_or_else(|e| bail(&format!("cannot read ELF `{path}`: {e}")));
            let image = concorde_riscv::parse_elf32(&bytes)
                .unwrap_or_else(|e| bail(&format!("{path}: {e}")));
            let t0 = std::time::Instant::now();
            let exec = concorde_riscv::execute(&image, max_insts);
            let elapsed = t0.elapsed();
            let halt = match &exec.halt {
                concorde_riscv::HaltReason::Exited(code) => format!("exit({code})"),
                concorde_riscv::HaltReason::BudgetExhausted => {
                    format!("budget exhausted ({max_insts} instructions)")
                }
                concorde_riscv::HaltReason::Breakpoint => "ebreak".to_string(),
                concorde_riscv::HaltReason::DecodeError { pc, err } => {
                    format!("decode error at {pc:#010x}: {err}")
                }
            };
            let n = exec.trace.len();
            let count = |p: fn(&Instruction) -> bool| exec.trace.iter().filter(|i| p(i)).count();
            println!(
                "{path}: {n} instructions in {elapsed:?}, halt: {halt}; \
                 trace hash {:#018x}",
                exec.trace_hash()
            );
            println!(
                "  mix: {:.1}% loads, {:.1}% stores, {:.1}% branches \
                 ({} mem pages resident)",
                100.0 * count(|i| i.op.is_load()) as f64 / n.max(1) as f64,
                100.0 * count(|i| i.op.is_store()) as f64 / n.max(1) as f64,
                100.0 * count(|i| i.op.is_branch()) as f64 / n.max(1) as f64,
                exec.resident_pages
            );
            if !exec.stdout.is_empty() {
                println!("  stdout: {}", String::from_utf8_lossy(&exec.stdout));
            }
            // CPI on the reference simulator over the trace head: the same
            // number `concorde simulate riscv:<path>` reports.
            let arch = parse_arch(&args);
            let cap = 65_536.min(n);
            let res = simulate_warmed(&[], &exec.trace[..cap], &arch, SimOptions::default());
            println!(
                "  CPI {:.3} over first {cap} instructions (reference simulator); \
                 predict it with: concorde predict riscv:{path}",
                res.cpi()
            );
        }
        "workloads" => {
            if args.iter().any(|a| a == "--json") {
                println!("{}", workload_catalog());
                return;
            }
            println!(
                "{:<5} {:<28} {:<12} traces  instr(M)",
                "id", "name", "class"
            );
            for w in suite() {
                println!(
                    "{:<5} {:<28} {:<12} {:>6}  {:>8.1}",
                    w.id,
                    w.name,
                    format!("{:?}", w.class),
                    w.n_traces,
                    w.n_traces as f64 * w.trace_len as f64 / 1e6
                );
            }
        }
        "simulate" => {
            let id = operand(&args, 1, "workload (usage: concorde simulate <workload>)");
            let arch = parse_arch(&args);
            let len = parse_len(&args, 24_000);
            let (w, r) = region_of(id, len);
            let t0 = std::time::Instant::now();
            let res = simulate_warmed(&w, &r, &arch, SimOptions::default());
            println!(
                "{id}: CPI {:.3} over {len} instructions ({} cycles, {:?}); \
                 branches {} / mispredicted {}, RAM accesses {}",
                res.cpi(),
                res.cycles,
                t0.elapsed(),
                res.branch.branches,
                res.branch.mispredictions,
                res.d_ram
            );
        }
        "bound" => {
            let id = operand(&args, 1, "workload (usage: concorde bound <workload>)");
            let arch = parse_arch(&args);
            let len = parse_len(&args, 24_000);
            let (w, r) = region_of(id, len);
            let profile = ReproProfile::default_repro();
            let t0 = std::time::Instant::now();
            // `--fast` runs the analytic models at the queried architecture
            // only; the store route sweeps the full per-arch grid first. Both produce the identical bound.
            let (bound, how) = if args.iter().any(|a| a == "--fast") {
                (
                    analytic_min_bound_cpi(&w, &r, &arch, &profile),
                    "direct analytic",
                )
            } else {
                let store =
                    FeatureStore::precompute(&w, &r, &SweepConfig::for_arch(&arch), &profile);
                (store.min_bound_cpi(&arch), "precompute")
            };
            println!(
                "{id}: analytical min-bound CPI {bound:.3} ({how} {:?}); simulator says {:.3}",
                t0.elapsed(),
                simulate_warmed(&w, &r, &arch, SimOptions::default()).cpi()
            );
        }
        "sweep" => {
            let id = operand(
                &args,
                1,
                "workload (usage: concorde sweep <workload> <param> v1,v2,…)",
            );
            let param = operand(
                &args,
                2,
                "parameter (rob|lq|sq|alu|fp|ls|fetch|decode|rename|commit|l1d|l1i|l2|prefetch)",
            );
            let values: Vec<u32> = operand(&args, 3, "value list (e.g. 32,64,128)")
                .split(',')
                .map(|v| {
                    v.parse()
                        .unwrap_or_else(|_| bail(&format!("sweep value `{v}` is not an integer")))
                })
                .collect();
            let len = parse_len(&args, 24_000);
            let mut spec = arch_spec_from_args(&args);
            let base = match spec.base.as_deref() {
                Some("big") => "big core",
                _ => "ARM N1",
            };
            let (w, r) = region_of(id, len);
            println!("{id}: sweeping {param} (base: {base})");
            for v in values {
                if !set_spec_param(&mut spec, param, v) {
                    bail(&format!("unknown parameter `{param}`"));
                }
                let arch = spec.resolve().unwrap_or_else(|e| bail(&e));
                let res = simulate_warmed(&w, &r, &arch, SimOptions::default());
                println!("  {param} = {v:>5}: CPI {:.3}", res.cpi());
            }
        }
        "attribute" => {
            let id = operand(&args, 1, "workload (usage: concorde attribute <workload>)");
            let len = parse_len(&args, 16_000);
            let (w, r) = region_of(id, len);
            let base = MicroArch::big_core();
            let target = MicroArch::arm_n1();
            // 6-group game on the simulator directly (exact Shapley).
            let groups: Vec<ParamGroup> = default_groups().into_iter().take(6).collect();
            println!(
                "{id}: exact Shapley over {} groups (big core → ARM N1), 2^{} simulator runs…",
                groups.len(),
                groups.len()
            );
            let f = |a: &MicroArch| simulate_warmed(&w, &r, a, SimOptions::default()).cpi();
            let s = shapley_exact(f, &base, &target, &groups);
            println!(
                "CPI {:.3} → {:.3} (groups outside the game stay at their big-core values)",
                s.base_value, s.target_value
            );
            for (label, v) in s.labels.iter().zip(&s.values) {
                println!("  {label:<20} {v:>+8.3}");
            }
            println!(
                "  {:<20} {:>+8.3}  (= ΔCPI)",
                "Σ",
                s.values.iter().sum::<f64>()
            );
        }
        "precompute" => {
            reject_retired(&args, &[RETIRED_ENCODING]);
            let id = operand(
                &args,
                1,
                "workload (usage: concorde precompute <workload> --out FILE)",
            );
            let out =
                flag_value(&args, "--out").unwrap_or_else(|| bail("precompute needs --out FILE"));
            let profile = serve_profile(&args);
            let trace: u32 = parse_num(&args, "--trace", 0u32);
            let start: u64 = parse_num(&args, "--start", 0u64);
            let len = parse_len(&args, profile.region_len) as u32;
            let arch = parse_arch(&args);
            let sweep = match flag_value(&args, "--sweep") {
                None | Some("arch") => SweepConfig::for_arch(&arch),
                Some("quantized") => SweepConfig::quantized(),
                Some(other) => bail(&format!(
                    "unknown --sweep `{other}` (expected arch or quantized)"
                )),
            };
            let resolved = resolve_workload(id).unwrap_or_else(|e| {
                bail(&format!("{e}; run `concorde workloads` for the suite list"))
            });
            let warm_start = start.saturating_sub(profile.warmup_len as u64);
            let warm_len = (start - warm_start) as usize;
            let region = resolved.materialize(trace, warm_start, warm_len + len as usize);
            let (w, r) = region.instrs.split_at(warm_len.min(region.instrs.len()));
            let t0 = std::time::Instant::now();
            let store = FeatureStore::precompute(w, r, &sweep, &profile);
            let precompute_time = t0.elapsed();
            let key = FeatureKey {
                workload: id.into(),
                trace,
                start,
                region_len: len,
                sweep_hash: sweep_content_hash(&sweep),
            };
            let artifact = StoreArtifact::new(key, store);
            let path = std::path::Path::new(out);
            artifact
                .save(path)
                .unwrap_or_else(|e| bail(&format!("cannot write {out}: {e}")));
            let file_bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            println!(
                "{id}: precomputed in {precompute_time:?} (schema v{SCHEMA_VERSION}); \
                 {} encoded bytes, {} raw bytes, artifact {out} ({file_bytes} bytes)",
                artifact.store.encoded_bytes(),
                artifact.store.raw_bytes(),
            );
            println!(
                "serve it with: concorde serve --preload {out}{}",
                if flag_value(&args, "--sweep") == Some("quantized") {
                    " --sweep quantized"
                } else {
                    ""
                }
            );
        }
        "inspect" => {
            let path = operand(&args, 1, "artifact path (usage: concorde inspect <FILE>)");
            // Inspect maps rather than reads: O(page faults) even for a
            // fleet-sized artifact, and it proves the file is mmap-servable.
            let artifact = StoreArtifact::map(std::path::Path::new(path))
                .unwrap_or_else(|e| bail(&format!("cannot load {path}: {e}")));
            let store = &artifact.store;
            let schema = store.schema(FeatureVariant::Full);
            let report = serde_json::json!({
                "artifact": {
                    "path": path,
                    "schema_version": artifact.schema_version,
                    "workload": artifact.key.workload,
                    "trace": artifact.key.trace,
                    "start": artifact.key.start,
                    "region_len": artifact.key.region_len,
                    "sweep_hash": format!("{:#018x}", artifact.key.sweep_hash),
                    "mmap": store.is_mapped(),
                },
                "store": {
                    "n_instr": store.n_instr(),
                    "n_windows": store.n_windows(),
                    "encoding_levels": store.encoding().levels,
                    "encoding_dim": store.encoding().dim(),
                    "encoded_bytes": store.encoded_bytes(),
                    "raw_bytes": store.raw_bytes(),
                    // Full resident footprint: what the serving cache's byte
                    // budget charges for this store — size `--cache-bytes`
                    // from this.
                    "approx_bytes": store.approx_bytes(),
                },
                "schema": schema,
            });
            println!(
                "{}",
                serde_json::to_string(&report).expect("serialize report")
            );
        }
        "serve" => {
            let addr = flag_value(&args, "--addr").unwrap_or("127.0.0.1:7878");
            let service_profile = serve_profile(&args);
            // Validate flags before the (potentially slow) model load/train.
            let cfg = serve_config(&args);
            let model = obtain_model(&args, &service_profile);
            let service = PredictionService::start(model, service_profile.clone(), cfg);
            let preloads = flag_values(&args, "--preload");
            for path in preloads {
                match service.preload_artifact(std::path::Path::new(path)) {
                    Ok(key) => {
                        eprintln!(
                            "[serve] preloaded {path}: {} trace {} @{} len {}",
                            key.workload, key.trace, key.start, key.region_len
                        );
                        if key.region_len as usize != service_profile.region_len {
                            eprintln!(
                                "[serve] warning: {path} covers a {}-instruction region but \
                                 default requests use {}; only requests passing `len: {}` \
                                 explicitly will hit it",
                                key.region_len, service_profile.region_len, key.region_len
                            );
                        }
                    }
                    Err(e) => bail(&format!("cannot preload {path}: {e}")),
                }
            }
            let cache = service.stats().cache.totals;
            if cache.evictions > 0 {
                eprintln!(
                    "[serve] warning: preloaded artifacts exceed --cache-bytes {} \
                     ({} bytes resident, {} stores already evicted); the earliest \
                     preloads are cold again",
                    service.config().cache_bytes,
                    cache.bytes,
                    cache.evictions
                );
            }
            let listener = std::net::TcpListener::bind(addr)
                .unwrap_or_else(|e| bail(&format!("cannot bind {addr}: {e}")));
            // Held for the life of the accept loop below; dropping it would
            // stop the scrape endpoint.
            let _metrics_server = flag_value(&args, "--metrics-addr").map(|maddr| {
                let srv = service
                    .serve_metrics(maddr)
                    .unwrap_or_else(|e| bail(&format!("cannot bind metrics addr {maddr}: {e}")));
                eprintln!("[serve] metrics: http://{}/metrics", srv.addr());
                srv
            });
            eprintln!(
                "[serve] inference: {} kernel",
                concorde_suite::ml::kernel_name()
            );
            eprintln!(
                "[serve] listening on {addr} ({} workers, {} precompute threads); \
                 cache: {} shards, {} byte budget; miss SLO: {}; \
                 protocol: one JSON request per line",
                service.workers(),
                service.precompute_workers(),
                service.config().effective_cache_shards(),
                service.config().cache_bytes,
                {
                    let slo = &service.config().class_slo;
                    if slo.is_empty() {
                        "off (misses park until their store lands)".to_string()
                    } else {
                        let per_class: Vec<String> = RequestClass::ALL
                            .iter()
                            .filter_map(|c| slo.get(*c).map(|d| format!("{c}={}ms", d.as_millis())))
                            .collect();
                        format!("per-class ({})", per_class.join(", "))
                    }
                },
            );
            eprintln!(
                "[serve] try: echo '{{\"workload\": \"S5\", \"arch\": {{\"base\": \"n1\"}}}}' | nc {addr}"
            );
            // SIGTERM → graceful drain: the handler only flips a flag; this
            // watcher does the real work from a normal thread.
            install_term_handler();
            let drain_client = service.client();
            std::thread::Builder::new()
                .name("concorde-term-watch".to_string())
                .spawn(move || loop {
                    if TERM.load(Ordering::SeqCst) {
                        eprintln!(
                            "[serve] SIGTERM: draining (stop accepting, answer in-flight, exit)"
                        );
                        drain_client.begin_drain();
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(50));
                })
                .expect("spawn signal watcher");
            if let Err(e) = service.serve_tcp(listener) {
                bail(&format!("server error: {e}"));
            }
            // serve_tcp returns only on drain. Dropping the service flushes
            // the queues and answers any straggling parked jobs before the
            // clean exit the drain contract promises.
            eprintln!("[serve] drained; shutting down");
            drop(service);
        }
        "predict" => {
            let id = operand(&args, 1, "workload (usage: concorde predict <workload>)");
            let spec = arch_spec_from_args(&args);
            let count: usize = parse_num(&args, "--count", 1usize);
            let trace: u32 = parse_num(&args, "--trace", 0u32);
            let start: u64 = parse_num(&args, "--start", 0u64);
            let deadline_ms: Option<u64> = flag_value(&args, "--deadline-ms").map(|v| {
                v.parse()
                    .unwrap_or_else(|_| bail(&format!("--deadline-ms `{v}` is not a number")))
            });
            let class = match flag_value(&args, "--class") {
                None => RequestClass::Interactive,
                Some(v) => RequestClass::parse(v).unwrap_or_else(|| {
                    bail(&format!("unknown --class `{v}` (interactive | batch)"))
                }),
            };
            if args.iter().any(|a| a == "--notify") {
                bail(
                    "--notify was removed: every request gets one exact answer, \
                     so there is no later upgrade to wait for",
                );
            }
            let schema_version: Option<u32> = flag_value(&args, "--schema-version").map(|v| {
                v.parse()
                    .unwrap_or_else(|_| bail(&format!("--schema-version `{v}` is not a number")))
            });
            let reqs: Vec<PredictRequest> = (0..count)
                .map(|i| PredictRequest {
                    id: i as u64,
                    workload: id.into(),
                    trace,
                    start,
                    len: 0,
                    arch: spec.clone(),
                    deadline_ms,
                    class,
                    schema_version,
                })
                .collect();
            if let Some(addr) = flag_value(&args, "--addr") {
                // Retry with jittered exponential backoff: a server mid-
                // restart answers the 2nd–5th attempt instead of failing
                // the whole command on one ECONNREFUSED.
                let mut client = TcpClient::connect_with_retry(
                    addr,
                    5,
                    Duration::from_millis(50),
                    Duration::from_secs(1),
                )
                .unwrap_or_else(|e| bail(&format!("cannot connect to {addr}: {e}")));
                let resps = client
                    .predict_many(&reqs)
                    .unwrap_or_else(|e| bail(&format!("request failed: {e}")));
                for r in &resps {
                    print_response(r);
                }
            } else {
                eprintln!("[predict] no --addr; starting an in-process service");
                // The operator named the workload on the command line, so
                // resolve it now (registering e.g. a `riscv:` provider):
                // admission refuses *unseen* dynamic ids, and a bad ELF
                // path should fail here, before the model loads.
                if let Err(e) = resolve_workload(id) {
                    bail(&e);
                }
                let profile = serve_profile(&args);
                let cfg = serve_config(&args);
                let model = obtain_model(&args, &profile);
                let service = PredictionService::start(model, profile, cfg);
                let client = service.client();
                let resps = client
                    .predict_many(reqs)
                    .unwrap_or_else(|e| bail(&format!("request failed: {e}")));
                for r in &resps {
                    print_response(r);
                }
                let m = service.metrics();
                eprintln!(
                    "[predict] {} served: {} batches (avg {:.1}/batch), cache {:.0}% hit",
                    m.completed,
                    m.batches,
                    m.avg_batch,
                    m.cache_hit_rate * 100.0
                );
            }
        }
        "help" | "--help" | "-h" => println!("{}", usage_text()),
        _ => usage(),
    }
}
