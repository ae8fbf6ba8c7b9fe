//! The repository's benchmark: one command that runs a named workload
//! against the Concorde serving stack, checks its answers and prints every
//! metric by name with its unit.
//!
//! ```text
//! perfbench --workload <dse_sweep|cold_regions|wire_mixed> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ledger. The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; a failed correctness check
//! exits with code 1, bad arguments with code 2. See `README.md`.

mod alloc;
mod bench;
mod host;
mod ledger;
mod metrics;
mod requests;
mod spans;
mod stats;

use std::time::Instant;

use bench::{Gate, Plan};
use metrics::{Metrics, END_TO_END};
use requests::Workload;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Parsed command line.
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Run length that sizes the timed phase.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <dse_sweep|cold_regions|wire_mixed> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.clamp(1, 60)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
            },
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// What a run reports besides its metrics.
pub struct Report {
    /// The run's metrics, by name.
    pub metrics: Metrics,
    /// Predictions requested in the measured phase.
    pub attempted: u64,
    /// Of those, answered with an error, a refusal or an `approx` estimate.
    pub failed: u64,
    /// Extra `key=value` diagnostics printed before the result line.
    pub notes: Vec<(&'static str, String)>,
}

/// The end-to-end run: set-up [`SETUP_REPS`] times, one timed phase, then
/// the CPI error and correctness checks outside any timing.
fn run_untraced(args: &Args, gate: &mut Gate) -> Report {
    let plan = Plan::new(args.workload, args.seed, args.seconds);
    let mut setup_s = Vec::new();
    let mut model_digests = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        // The previous set-up's service is torn down before the next starts.
        drop(kept.take());
        let t = Instant::now();
        let model = bench::train(&mut None);
        let (service, _) = bench::start_warm(&plan, &model, gate, &mut None);
        setup_s.push(t.elapsed().as_secs_f64());
        let json = serde_json::to_string(&model).expect("models serialize");
        model_digests.push(requests::fnv1a(json.as_bytes()));
        kept = Some((service, model));
    }
    gate.check(model_digests.windows(2).all(|w| w[0] == w[1]), || {
        format!("set-up is not deterministic: model digests {model_digests:x?}")
    });
    let (service, model) = kept.expect("at least one set-up");
    let out = bench::with_tcp(&service, |addr| {
        bench::run_timed(&plan, &service, addr, gate, &mut None)
    });
    drop(service);

    let errors = bench::heldout_errors(&out.heldout, &mut None);
    gate.check(!errors.is_empty(), || {
        "no held-out answers to score".to_string()
    });
    if args.workload == Workload::WireMixed {
        bench::check_bitwise(&out.bitwise, &model, gate);
    }
    let mut metrics = Metrics::new(&END_TO_END);
    metrics.set("setup_s", stats::median(&setup_s));
    metrics.set("preds_per_s", out.preds_per_s());
    metrics.set("cpu_us_per_pred", out.cpu_us_per_pred());
    metrics.set("latency_p50_ms", out.latency_ms(0.5));
    metrics.set("cpi_rel_err_p50", stats::median(&errors));
    metrics.set("cpi_rel_err_p90", stats::quantile(&errors, 0.9));
    metrics.set(
        "heap_peak_mb",
        alloc::peak_bytes() as f64 / (1 << 20) as f64,
    );
    metrics.set("ok_rate", out.exact as f64 / out.attempted.max(1) as f64);
    Report {
        metrics,
        attempted: out.attempted,
        failed: out.attempted - out.exact,
        notes: vec![
            ("setup_reps_s", format!("{setup_s:.3?}")),
            ("timed_wall_s", format!("{:.3}", out.wall_s)),
            ("timed_cpu_s", format!("{:.3}", out.cpu_s)),
            ("timed_steal_s", format!("{:.2}", out.steal_s)),
            ("latency_p90_ms", format!("{:.4}", out.latency_ms(0.9))),
            ("raw_preds_per_s", format!("{:.4}", out.raw_preds_per_s())),
            (
                "raw_latency_p50_ms",
                format!("{:.4}", out.raw_latency_ms(0.5)),
            ),
            (
                "raw_latency_p90_ms",
                format!("{:.4}", out.raw_latency_ms(0.9)),
            ),
            ("calls", out.calls.len().to_string()),
            ("chunks", out.chunks.len().to_string()),
            ("heldout", errors.len().to_string()),
        ],
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let host0 = host::HostSample::now();
    let t0 = Instant::now();
    let mut gate = Gate::default();
    let report = if args.trace {
        ledger::run(&args, &mut gate)
    } else {
        run_untraced(&args, &mut gate)
    };
    let metrics = report.metrics.finish().unwrap_or_else(|missing| {
        gate.check(false, || format!("metrics never measured: {missing:?}"));
        Vec::new()
    });
    for m in &metrics {
        gate.check(m.value.is_finite(), || {
            format!("metric {} is {}", m.name, m.value)
        });
    }

    // Host-noise diagnostics: printed, never gated.
    let (cpu_s, steal_s) = host::HostSample::now().since(&host0);
    let mut diag = format!(
        "diagnostics workload={} seed={} trace={} wall_s={:.2} cpu_s={cpu_s:.2} steal_s={steal_s:.2} \
         nproc={} kernel={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        t0.elapsed().as_secs_f64(),
        host::nproc(),
        concorde_ml::kernel_name(),
    );
    // Digest of the first unit of the request sequence: equal seeds must
    // print equal digests on every host and commit.
    let first = requests::sequence_bytes(args.workload, args.seed, 1);
    diag.push_str(&format!(" requests_fnv={:016x}", requests::fnv1a(&first)));
    for (k, v) in &report.notes {
        diag.push_str(&format!(" {k}={v}"));
    }
    println!("{diag}");
    for v in gate.violations() {
        eprintln!("perfbench: correctness violation: {v}");
    }

    let printed: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(r#""{}": {{"value": {v:?}, "unit": "{}"}}"#, m.name, m.unit)
        })
        .collect();
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        gate.passed(),
        report.attempted.max(1),
        report.failed,
        printed.join(", ")
    );
    std::process::exit(if gate.passed() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_and_reject() {
        let s = |v: &[&str]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        let a = parse_args(&s(&[
            "--workload",
            "wire_mixed",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(a.workload, Workload::WireMixed);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert!(parse_args(&s(&["--workload", "nope", "--seed", "1"])).is_err());
        assert!(parse_args(&s(&["--seed", "1"])).is_err());
        assert!(parse_args(&s(&["--workload", "dse_sweep", "--seed"])).is_err());
        assert!(parse_args(&s(&[
            "--workload",
            "dse_sweep",
            "--seed",
            "1",
            "--trace",
            "2"
        ]))
        .is_err());
    }
}
