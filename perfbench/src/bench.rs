//! Set-up, the timed closed-loop phase of each workload, and the checks on
//! its answers — shared by the untraced and the traced run.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use concorde_core::prelude::*;
use concorde_cyclesim::{simulate_warmed, SimOptions};
use concorde_serve::{
    ArchSpec, BatchScratch, PredictRequest, PredictResponse, PredictionService, ServeConfig,
    SweepScope,
};
use concorde_trace::Instruction;

use crate::host;
use crate::requests::{
    cold_requests, request, wire_plan, DseStream, Region, SplitMix64, WireLine, WirePlan, Workload,
    DSE_BATCH, DSE_REGIONS, WIRE_BLOCK,
};
use crate::spans::Tracer;
use crate::stats::{median, quantile};

/// Seed of the training dataset. Workload seeds only shape requests.
pub const TRAIN_SEED: u64 = 1;
/// Held-out (region, arch) pairs scored against the simulator per run on
/// `dse_sweep` and `cold_regions` (`wire_mixed` scores every distinct pair
/// it sends).
pub const HELDOUT: usize = 384;
/// `wire_mixed` answers compared bitwise against a direct prediction.
pub const BITWISE_SAMPLE: usize = 32;
/// Timed-phase chunks of `dse_sweep` (~0.25 s each). Throughput and CPU
/// per prediction are medians over chunks, so a burst of host steal moves a
/// few chunks, not the figure.
const DSE_CHUNKS: usize = 40;
/// `wire_mixed` blocks per chunk (~0.25 s).
const WIRE_CHUNK_BLOCKS: usize = 3;
/// Mean call length from which steal stretches calls evenly: the scale of a
/// host steal slice, and the resolution of the `/proc/stat` steal counter.
const LONG_CALL_MS: f64 = 10.0;
/// Calls the latency percentiles are taken over, at least: the 90th
/// percentile then has fifteen samples beyond it.
const LATENCY_CALLS: usize = 150;

/// `dse_sweep` batches per second of `--seconds`.
const DSE_BATCHES_PER_S: usize = 460;
/// `cold_regions` rounds (one request per suite program) per ten seconds.
const COLD_ROUNDS_PER_10S: usize = 24;
/// `cold_regions` rounds per chunk (58 calls).
const COLD_CHUNK_ROUNDS: usize = 2;
/// `wire_mixed` blocks per second of `--seconds`.
const WIRE_BLOCKS_PER_S: usize = 12;

const HELDOUT_SALT: u64 = 0x4E1D_5A17;
const BITWISE_SALT: u64 = 0xB17_5A1E;

/// Violations of the correctness gate; any one fails the run.
#[derive(Default)]
pub struct Gate {
    violations: Vec<String>,
}

impl Gate {
    /// Records `msg` unless `ok`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok && self.violations.len() < 1000 {
            self.violations.push(msg());
        }
    }

    /// The recorded violations.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// True when nothing was violated.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The seeded request plan of one run.
pub struct Plan {
    /// Workload seed.
    pub seed: u64,
    /// What the timed phase sends.
    pub work: Work,
}

/// The requests of one workload.
pub enum Work {
    /// `dse_sweep`: `batches` batches, generated lazily from the seed.
    Dse {
        /// Batches in the timed phase.
        batches: usize,
    },
    /// `cold_regions`: one request per call.
    Cold(Vec<PredictRequest>),
    /// `wire_mixed`: warm keys plus protocol lines.
    Wire(WirePlan),
}

impl Plan {
    /// The plan `workload` sends for `seed` over a `seconds`-long run.
    pub fn new(workload: Workload, seed: u64, seconds: u64) -> Plan {
        let s = seconds.max(1) as usize;
        let work = match workload {
            Workload::DseSweep => Work::Dse {
                batches: (s * DSE_BATCHES_PER_S).div_ceil(DSE_CHUNKS) * DSE_CHUNKS,
            },
            Workload::ColdRegions => {
                let rounds = (s * COLD_ROUNDS_PER_10S).div_ceil(10 * COLD_CHUNK_ROUNDS);
                Work::Cold(cold_requests(seed, rounds * COLD_CHUNK_ROUNDS))
            }
            Workload::WireMixed => Work::Wire(wire_plan(
                seed,
                (s * WIRE_BLOCKS_PER_S).div_ceil(WIRE_CHUNK_BLOCKS) * WIRE_CHUNK_BLOCKS,
            )),
        };
        Plan { seed, work }
    }

    /// The workload this plan belongs to.
    pub fn workload(&self) -> Workload {
        match self.work {
            Work::Dse { .. } => Workload::DseSweep,
            Work::Cold(_) => Workload::ColdRegions,
            Work::Wire(_) => Workload::WireMixed,
        }
    }

    /// Requests set-up sends so the timed phase finds its stores warm.
    pub fn warm_requests(&self) -> Vec<PredictRequest> {
        match &self.work {
            Work::Dse { .. } => DSE_REGIONS
                .iter()
                .enumerate()
                .map(|(i, &r)| request(i as u64, r, ArchSpec::base("n1")))
                .collect(),
            Work::Cold(_) => Vec::new(),
            Work::Wire(p) => p.warm.clone(),
        }
    }

    /// Ids of the requests whose answers are scored against the simulator:
    /// a seeded sample for `dse_sweep` and `cold_regions`, and the first
    /// request of every distinct (region, arch) pair for `wire_mixed` (its
    /// warm traffic repeats 48 keys, so a plain sample would score the same
    /// few pairs many times over).
    fn heldout_ids(&self) -> Vec<u64> {
        let seed = self.seed ^ HELDOUT_SALT;
        match &self.work {
            Work::Dse { .. } | Work::Cold(_) => sample(seed, &self.timed_ids(), HELDOUT),
            Work::Wire(p) => {
                let mut seen = vec![false; p.warm.len()];
                let mut ids = Vec::new();
                for (line, &cold) in p.lines.iter().zip(&p.cold) {
                    for r in line.requests() {
                        let key = p.warm.iter().position(|w| {
                            (&w.workload, w.trace, w.start, &w.arch)
                                == (&r.workload, r.trace, r.start, &r.arch)
                        });
                        match key {
                            Some(k) if !seen[k] => {
                                seen[k] = true;
                                ids.push(r.id);
                            }
                            None if cold => ids.push(r.id),
                            _ => {}
                        }
                    }
                }
                ids.sort_unstable();
                ids
            }
        }
    }

    /// Ids of the `wire_mixed` answers checked bitwise (a seeded sample).
    fn bitwise_ids(&self) -> Vec<u64> {
        match &self.work {
            Work::Wire(_) => sample(self.seed ^ BITWISE_SALT, &self.timed_ids(), BITWISE_SAMPLE),
            _ => Vec::new(),
        }
    }

    /// Ids of every request the timed phase sends, in send order.
    fn timed_ids(&self) -> Vec<u64> {
        match &self.work {
            // `DseStream` numbers its requests from 0.
            Work::Dse { batches } => (0..(batches * DSE_BATCH) as u64).collect(),
            Work::Cold(reqs) => reqs.iter().map(|r| r.id).collect(),
            Work::Wire(p) => p
                .lines
                .iter()
                .flat_map(|l| l.requests())
                .map(|r| r.id)
                .collect(),
        }
    }

    /// Client calls per chunk. `cold_regions` and `wire_mixed` chunks hold
    /// whole rounds or blocks, so every chunk of a run sends the same mix.
    fn chunk_calls(&self) -> usize {
        match &self.work {
            Work::Dse { batches } => batches / DSE_CHUNKS,
            Work::Cold(_) => COLD_CHUNK_ROUNDS * concorde_trace::suite_cached().len(),
            Work::Wire(_) => WIRE_CHUNK_BLOCKS * WIRE_BLOCK,
        }
    }
}

/// The engine configuration every workload runs with, sized for two cores.
pub fn serve_config(workload: Workload) -> ServeConfig {
    ServeConfig {
        workers: 1,
        precompute_workers: 1,
        sweep: match workload {
            Workload::DseSweep => SweepScope::Quantized,
            _ => SweepScope::PerArch,
        },
        ..ServeConfig::default()
    }
}

/// The served profile (the server default).
pub fn profile() -> ReproProfile {
    ReproProfile::quick()
}

/// Trains the model single-threaded from [`TRAIN_SEED`]: the quick
/// profile's dataset size, as `concorde serve` does by default.
pub fn train(tracer: &mut Option<&mut Tracer>) -> ConcordePredictor {
    let profile = profile();
    let data = traced(tracer, "core.dataset", 0, || {
        generate_dataset(&DatasetConfig {
            profile: profile.clone(),
            n: profile.train_samples,
            seed: TRAIN_SEED,
            arch: ArchSampling::Random,
            workloads: None,
            threads: 1,
        })
    });
    traced(tracer, "core.train", 0, || {
        train_model(
            &data,
            &profile,
            &TrainOptions {
                threads: 1,
                ..TrainOptions::default()
            },
        )
    })
}

/// Starts a service for `plan` and warms the stores its timed phase reuses.
/// Returns the service and the warm-up answers.
pub fn start_warm(
    plan: &Plan,
    model: &ConcordePredictor,
    gate: &mut Gate,
    tracer: &mut Option<&mut Tracer>,
) -> (PredictionService, Vec<PredictResponse>) {
    let (service, warm) = traced(tracer, "core.warm", 0, || {
        let service =
            PredictionService::start(model.clone(), profile(), serve_config(plan.workload()));
        let warm = plan.warm_requests();
        let answers = if warm.is_empty() {
            Vec::new()
        } else {
            service
                .client()
                .predict_many(warm)
                .expect("warm-up requests are answered")
        };
        (service, answers)
    });
    for a in &warm {
        gate.check(is_exact(a), || {
            format!("warm-up request {} not answered exactly: {a:?}", a.id)
        });
    }
    (service, warm)
}

/// Runs `f` inside a span when tracing.
pub fn traced<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    req: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, req, |_| f()),
        None => f(),
    }
}

/// An exact answer: a CPI, no error, not a degraded `approx` estimate.
pub fn is_exact(r: &PredictResponse) -> bool {
    r.error.is_none() && !r.approx && r.cpi.is_some()
}

/// One client call of the timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// Wall latency, ms.
    pub ms: f64,
    /// Predictions the call asked for.
    pub preds: u32,
    /// Whether every answer came from a cached store.
    pub all_hits: bool,
    /// Index of the throughput chunk the call belongs to.
    pub chunk: u32,
}

/// Throughput sample over a fixed run of consecutive calls.
#[derive(Debug, Clone, Copy)]
pub struct Chunk {
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU seconds.
    pub cpu_s: f64,
    /// Host steal seconds (both vCPUs) during the chunk.
    pub steal_s: f64,
    /// Client calls in the chunk.
    pub calls: u32,
    /// Predictions answered.
    pub preds: u64,
}

impl Chunk {
    /// The share of the chunk's wall time that was not lost to host steal,
    /// in (0, 1]. Steal only accrues on vCPUs with work to do, so when the
    /// process keeps at least one vCPU busy throughout (`cpu + steal >=
    /// wall`) the lost share is `steal / (cpu + steal)`; when its critical
    /// path is mostly idle (timer waits), every stolen second was a second
    /// of that path, and the lost share is `steal / wall`. The larger of the
    /// two remaining shares is the right branch in each case. Floored so a
    /// pathological sample cannot blow up.
    pub fn stretch(&self) -> f64 {
        let cpu_bound = self.cpu_s / (self.cpu_s + self.steal_s);
        let idle_bound = 1.0 - self.steal_s / self.wall_s;
        cpu_bound.max(idle_bound).clamp(0.05, 1.0)
    }
}

/// A request whose answer is kept for a check after the timed phase.
#[derive(Debug, Clone)]
pub struct Kept {
    /// The request.
    pub req: PredictRequest,
    /// The CPI it was answered with.
    pub cpi: f64,
}

/// Everything the timed phase observed.
#[derive(Default)]
pub struct Outcome {
    /// Per client call.
    pub calls: Vec<Call>,
    /// Per throughput chunk.
    pub chunks: Vec<Chunk>,
    /// Predictions requested.
    pub attempted: u64,
    /// Exact answers.
    pub exact: u64,
    /// Service-side latency (µs) of every answer that missed the cache.
    pub miss_micros: Vec<u64>,
    /// Held-out answers for the CPI error.
    pub heldout: Vec<Kept>,
    /// `wire_mixed` answers for the bitwise check.
    pub bitwise: Vec<Kept>,
    /// Wall seconds of the whole phase.
    pub wall_s: f64,
    /// Process CPU seconds of the whole phase.
    pub cpu_s: f64,
    /// Host steal seconds during the phase.
    pub steal_s: f64,
}

impl Outcome {
    /// Median over chunks of predictions per second of steal-corrected
    /// wall time ([`Chunk::stretch`]).
    pub fn preds_per_s(&self) -> f64 {
        let v: Vec<f64> = self
            .chunks
            .iter()
            .map(|c| c.preds as f64 / (c.wall_s * c.stretch()))
            .collect();
        median(&v)
    }

    /// Median over chunks of plain wall-clock throughput (a diagnostic).
    pub fn raw_preds_per_s(&self) -> f64 {
        let v: Vec<f64> = self
            .chunks
            .iter()
            .map(|c| c.preds as f64 / c.wall_s)
            .collect();
        median(&v)
    }

    /// Median over chunks of process CPU µs per prediction.
    pub fn cpu_us_per_pred(&self) -> f64 {
        let v: Vec<f64> = self
            .chunks
            .iter()
            .map(|c| c.cpu_s * 1e6 / c.preds as f64)
            .collect();
        median(&v)
    }

    /// The `q`-quantile of per-call latency, ms, over the least-stolen
    /// chunks: chunks in decreasing [`Chunk::stretch`] order until they hold
    /// [`LATENCY_CALLS`] calls.
    ///
    /// Steal lands on calls in slices, so even a few per cent of stolen time
    /// in a chunk inflates its tail; the least-stolen chunks show the
    /// latency the program gives. Short calls are only selected, never
    /// rescaled: a slice either misses a short call or lands whole in it.
    /// Calls of a chunk whose mean call lasts at least [`LONG_CALL_MS`] are
    /// stretched evenly by steal, so they are also scaled by the chunk's
    /// stretch.
    pub fn latency_ms(&self, q: f64) -> f64 {
        let mut order: Vec<usize> = (0..self.chunks.len()).collect();
        order.sort_by(|&a, &b| {
            self.chunks[b]
                .stretch()
                .total_cmp(&self.chunks[a].stretch())
        });
        let mut quiet = Vec::new();
        let mut calls = 0;
        for i in order {
            if calls >= LATENCY_CALLS {
                break;
            }
            quiet.push(i);
            calls += self.chunks[i].calls as usize;
        }
        let v: Vec<f64> = self
            .calls
            .iter()
            .filter(|c| quiet.contains(&(c.chunk as usize)))
            .map(|c| {
                let chunk = &self.chunks[c.chunk as usize];
                let mean_call_ms = chunk.wall_s * chunk.stretch() * 1e3 / f64::from(chunk.calls);
                if mean_call_ms >= LONG_CALL_MS {
                    c.ms * chunk.stretch()
                } else {
                    c.ms
                }
            })
            .collect();
        quantile(&v, q)
    }

    /// The `q`-quantile of plain per-call latency, ms (a diagnostic).
    pub fn raw_latency_ms(&self, q: f64) -> f64 {
        let v: Vec<f64> = self.calls.iter().map(|c| c.ms).collect();
        quantile(&v, q)
    }
}

/// Sorted distinct seeded sample of `k` of `ids`.
fn sample(seed: u64, ids: &[u64], k: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    let mut picked = std::collections::BTreeSet::new();
    while picked.len() < k.min(ids.len()) {
        picked.insert(ids[rng.below(ids.len() as u64) as usize]);
    }
    picked.into_iter().collect()
}

/// Records the timed phase: per-call latency, chunk clocks, answer checks,
/// and the answers kept for the held-out and bitwise checks.
struct Recorder<'g> {
    out: Outcome,
    gate: &'g mut Gate,
    workload: Workload,
    heldout: Vec<u64>,
    bitwise: Vec<u64>,
    chunk_calls: usize,
    calls_in_chunk: usize,
    chunk_preds: u64,
    chunk_t: Instant,
    chunk_host: host::HostSample,
    t0: Instant,
    host0: host::HostSample,
}

impl<'g> Recorder<'g> {
    fn new(plan: &Plan, gate: &'g mut Gate) -> Self {
        Recorder {
            out: Outcome::default(),
            gate,
            workload: plan.workload(),
            heldout: plan.heldout_ids(),
            bitwise: plan.bitwise_ids(),
            chunk_calls: plan.chunk_calls(),
            calls_in_chunk: 0,
            chunk_preds: 0,
            chunk_t: Instant::now(),
            chunk_host: host::HostSample::now(),
            t0: Instant::now(),
            host0: host::HostSample::now(),
        }
    }

    /// Checks and records one call's answers to `reqs`.
    fn call(&mut self, reqs: &[PredictRequest], answers: &[PredictResponse], elapsed: Duration) {
        let gate = &mut *self.gate;
        gate.check(answers.len() == reqs.len(), || {
            format!("{} answers for {} requests", answers.len(), reqs.len())
        });
        let mut all_hits = true;
        for (req, a) in reqs.iter().zip(answers) {
            self.out.attempted += 1;
            gate.check(a.id == req.id, || {
                format!("answer id {} for request {}", a.id, req.id)
            });
            if let Some(cpi) = a.cpi {
                gate.check(cpi.is_finite() && cpi > 0.0, || {
                    format!("request {}: CPI {cpi} is not finite and positive", req.id)
                });
            }
            if self.workload == Workload::ColdRegions {
                gate.check(!a.cached && is_exact(a), || {
                    format!("cold request {} not an exact miss: {a:?}", req.id)
                });
            }
            all_hits &= a.cached;
            if !a.cached {
                self.out.miss_micros.push(a.micros);
            }
            if !is_exact(a) {
                continue;
            }
            self.out.exact += 1;
            let cpi = a.cpi.expect("exact answers carry a CPI");
            for (picks, kept) in [
                (&self.heldout, &mut self.out.heldout),
                (&self.bitwise, &mut self.out.bitwise),
            ] {
                if picks.binary_search(&req.id).is_ok() {
                    kept.push(Kept {
                        req: req.clone(),
                        cpi,
                    });
                }
            }
        }
        self.out.calls.push(Call {
            ms: elapsed.as_secs_f64() * 1e3,
            preds: reqs.len() as u32,
            all_hits,
            chunk: self.out.chunks.len() as u32,
        });
        self.chunk_preds += reqs.len() as u64;
        self.calls_in_chunk += 1;
        if self.calls_in_chunk == self.chunk_calls {
            self.close_chunk();
        }
    }

    fn close_chunk(&mut self) {
        let now = host::HostSample::now();
        let (cpu_s, steal_s) = now.since(&self.chunk_host);
        self.out.chunks.push(Chunk {
            wall_s: self.chunk_t.elapsed().as_secs_f64(),
            cpu_s,
            steal_s,
            calls: self.calls_in_chunk as u32,
            preds: self.chunk_preds,
        });
        self.chunk_t = Instant::now();
        self.chunk_host = now;
        self.calls_in_chunk = 0;
        self.chunk_preds = 0;
    }

    fn finish(mut self) -> Outcome {
        if self.calls_in_chunk > 0 {
            self.close_chunk();
        }
        let (cpu_s, steal_s) = host::HostSample::now().since(&self.host0);
        self.out.wall_s = self.t0.elapsed().as_secs_f64();
        self.out.cpu_s = cpu_s;
        self.out.steal_s = steal_s;
        self.out
    }
}

/// Runs the timed phase of `plan` against `service`, closed-loop from one
/// client; `wire_mixed` connects to `addr`, where [`with_tcp`] serves the
/// same service. With a tracer, every client call is a `serve.client_call`
/// span.
pub fn run_timed(
    plan: &Plan,
    service: &PredictionService,
    addr: &str,
    gate: &mut Gate,
    tracer: &mut Option<&mut Tracer>,
) -> Outcome {
    let mut rec = Recorder::new(plan, gate);
    match &plan.work {
        Work::Dse { batches } => {
            let client = service.client();
            let mut stream = DseStream::new(plan.seed);
            let (mut reqs, mut sent, mut out) = (Vec::new(), Vec::new(), Vec::new());
            let mut scratch = BatchScratch::default();
            for _ in 0..*batches {
                stream.next_batch(&mut reqs);
                sent.clone_from(&reqs);
                let id = reqs[0].id;
                let t = Instant::now();
                traced(tracer, "serve.client_call", id, || {
                    client.predict_batch_into(&mut reqs, &mut scratch, &mut out)
                })
                .expect("the service stays up for the timed phase");
                let dt = t.elapsed();
                rec.call(&sent, &out, dt);
            }
        }
        Work::Cold(reqs) => {
            let client = service.client();
            for req in reqs {
                let t = Instant::now();
                let answer = traced(tracer, "serve.client_call", req.id, || {
                    client.predict(req.clone())
                })
                .expect("the service stays up for the timed phase");
                let dt = t.elapsed();
                rec.call(std::slice::from_ref(req), std::slice::from_ref(&answer), dt);
            }
        }
        Work::Wire(p) => {
            // Encode every line up front: the timed loop then costs the
            // client one write, one read and one reply parse per line.
            let lines: Vec<String> = p.lines.iter().map(WireLine::encode).collect();
            let mut conn = LineClient::connect(addr);
            for (line, text) in p.lines.iter().zip(&lines) {
                let id = line.requests()[0].id;
                let t = Instant::now();
                let answers = traced(tracer, "serve.client_call", id, || {
                    conn.exchange(line, text)
                })
                .expect("loopback protocol exchange succeeds");
                let dt = t.elapsed();
                rec.call(line.requests(), &answers, dt);
            }
        }
    }
    rec.finish()
}

/// Serves `service` over loopback TCP for the duration of `f`, which gets
/// the server's address; drains and joins the server before returning.
/// Draining is final, so each service is served at most once.
pub fn with_tcp<R>(service: &PredictionService, f: impl FnOnce(&str) -> R) -> R {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address").to_string();
    std::thread::scope(|s| {
        let server = s.spawn(|| service.serve_tcp(listener));
        let out = f(&addr);
        service.begin_drain();
        server
            .join()
            .expect("server thread does not panic")
            .expect("accept loop ends cleanly");
        out
    })
}

/// A minimal protocol client: each request line goes out in one write on a
/// `TCP_NODELAY` socket, and replies parse with the crate's own
/// [`PredictResponse`] decoder.
///
/// `wire_mixed` sends through this rather than [`TcpClient`], whose
/// `predict` writes the line and its newline separately without
/// `TCP_NODELAY`: Nagle holds the newline until the server's delayed ACK
/// (~40 ms on Linux), so every exchange would measure that timer instead of
/// the server. The traced run times `TcpClient` on the same requests as
/// `serve.tcp_roundtrip_us`, so the stall stays visible.
pub struct LineClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    reply: String,
}

impl LineClient {
    /// Connects to `addr`.
    pub fn connect(addr: &str) -> LineClient {
        let writer = TcpStream::connect(addr).expect("connect to the loopback server");
        writer.set_nodelay(true).expect("set TCP_NODELAY");
        let reader = BufReader::new(writer.try_clone().expect("clone the socket"));
        LineClient {
            reader,
            writer,
            reply: String::new(),
        }
    }

    /// Sends `text` (the encoded `line`, newline included) and reads the
    /// reply: one response for a single, an array for an array line.
    ///
    /// # Errors
    ///
    /// Socket errors, an early close, or a reply that does not parse.
    pub fn exchange(
        &mut self,
        line: &WireLine,
        text: &str,
    ) -> std::io::Result<Vec<PredictResponse>> {
        self.writer.write_all(text.as_bytes())?;
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let parsed = match line {
            WireLine::Single(_) => serde_json::from_str(&self.reply).map(|r| vec![r]),
            WireLine::Array(_) => serde_json::from_str(&self.reply),
        };
        parsed.map_err(std::io::Error::other)
    }
}

/// Warm-up and region instructions of `region` under the served profile,
/// split the way the service splits them.
pub fn materialize(region: Region) -> (Vec<Instruction>, usize) {
    let p = profile();
    let spec = concorde_trace::by_id_ref(region.workload).expect("suite workload");
    let warm_start = region.start.saturating_sub(p.warmup_len as u64);
    let warm_len = (region.start - warm_start) as usize;
    let t =
        concorde_trace::generate_region(spec, region.trace, warm_start, warm_len + p.region_len);
    (t.instrs, warm_len)
}

/// Relative CPI error of each held-out answer against `simulate_warmed`.
pub fn heldout_errors(kept: &[Kept], tracer: &mut Option<&mut Tracer>) -> Vec<f64> {
    kept.iter()
        .map(|k| {
            let arch = k.req.arch.resolve().expect("grid architectures resolve");
            let (instrs, warm_len) = materialize(Region::of(&k.req));
            let (w, r) = instrs.split_at(warm_len);
            let sim = traced(tracer, "cyclesim.simulate_warmed", k.req.id, || {
                simulate_warmed(
                    w,
                    r,
                    &arch,
                    SimOptions {
                        record_commit_cycles: false,
                        seed: 0,
                    },
                )
            });
            let truth = sim.cpi();
            (k.cpi - truth).abs() / truth
        })
        .collect()
}

/// Checks that each kept `wire_mixed` answer is bitwise equal to
/// [`ConcordePredictor::predict`] on an independently built store for the
/// same region and architecture.
pub fn check_bitwise(kept: &[Kept], model: &ConcordePredictor, gate: &mut Gate) {
    let p = profile();
    let mut stores: Vec<(Region, concorde_cyclesim::MicroArch, FeatureStore)> = Vec::new();
    for k in kept {
        let arch = k.req.arch.resolve().expect("grid architectures resolve");
        let region = Region::of(&k.req);
        let at = match stores
            .iter()
            .position(|(r, a, _)| *r == region && *a == arch)
        {
            Some(i) => i,
            None => {
                let (instrs, warm_len) = materialize(region);
                let (w, r) = instrs.split_at(warm_len);
                let store =
                    FeatureStore::precompute_threaded(w, r, &SweepConfig::for_arch(&arch), &p, 1);
                stores.push((region, arch, store));
                stores.len() - 1
            }
        };
        let direct = model.predict(&stores[at].2, &arch);
        gate.check(direct.to_bits() == k.cpi.to_bits(), || {
            format!(
                "wire answer {} = {:e} differs from direct predict {:e}",
                k.req.id, k.cpi, direct
            )
        });
    }
    gate.check(!kept.is_empty(), || {
        "no wire answers were kept for the bitwise check".to_string()
    });
}
