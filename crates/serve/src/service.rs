//! The prediction engine: bounded queue → micro-batching collector → worker
//! pool → batched model evaluation over sharded, byte-budgeted feature-store
//! caching, with misses routed to a dedicated precompute pool.
//!
//! Requests enter a bounded FIFO. Each worker takes up to
//! [`ServeConfig::max_batch`] requests of the work already queued and runs
//! them at once, never lingering for stragglers (work-conserving batching:
//! batches form from a `submit_many` array or from whatever arrived while
//! the worker was busy, the way `TCP_NODELAY` replaces Nagle). It groups the
//! batch by region feature-store key and probes the shared
//! [`ShardedStoreCache`]:
//!
//! - **Hit** → one batched MLP forward pass per group through a worker-owned
//!   scratch arena; the response leaves in microseconds.
//! - **Miss** → the group *parks*: its jobs are attached to a single-flight
//!   in-flight entry for the key and the build is queued to the dedicated
//!   precompute pool. The worker moves straight on to the next batch, so
//!   **a cold region never stalls the hit path**. Concurrent misses on the same key coalesce onto
//!   the one in-flight build instead of each computing (or each blocking).
//!   When the store lands in the cache, the parked jobs are re-enqueued at
//!   the front of the request queue and complete as ordinary hits (reported
//!   with `cached: false` — their store was built on demand).
//!
//! Every request gets exactly one answer, and every successful answer is the
//! exact model prediction. A request's miss-wait deadline (its own
//! `deadline_ms`, else its class SLO from [`ServeConfig::class_slo`]) only
//! orders the precompute pool's builds earliest-deadline-first (see
//! [`pick_task`]); it never changes what the request is answered with.
//!
//! What the engine does is recorded once, in the [`crate::metrics`]
//! registry it owns; [`PredictionService::metrics`],
//! [`PredictionService::stats`] and every wire view read it through one
//! [`crate::metrics::snapshot`].

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use concorde_core::cache::{sweep_content_hash, FeatureKey, ShardedStoreCache, StoreArtifact};
use concorde_core::features::FeatureStore;
use concorde_core::model::{ConcordePredictor, PredictScratch};
use concorde_core::schema::{FeatureSchema, SCHEMA_VERSION};
use concorde_core::sweep::{ReproProfile, SweepConfig};
use concorde_cyclesim::MicroArch;
use serde::{Deserialize, Serialize};

use crate::fault::FaultPlan;
use crate::metrics::{snapshot, Metrics, MetricsSnapshot, ServiceStats};
use crate::protocol::{PredictRequest, PredictResponse, RequestClass, N_CLASSES};
use crate::slots::{SlotPool, SlotReceiver, SlotSender};

/// Largest per-request region length the service will generate (the paper's
/// full-scale regions are 100k instructions; this leaves ample headroom
/// while bounding the memory one request can demand).
pub const MAX_REGION_LEN: u32 = 1 << 20;

/// Largest `@budget` suffix accepted on a wire-supplied `riscv:` workload id
/// when on-demand resolution is enabled ([`ServeConfig::dynamic_root`]).
/// Resolution interprets the binary for up to this many instructions inline,
/// so the cap bounds the CPU one admission can burn (16 Mi instructions,
/// 16× the front end's default budget).
pub const MAX_WIRE_RISCV_BUDGET: u64 = 1 << 24;

/// Which parameter sweep each region's feature store precomputes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SweepScope {
    /// The §5.2.3 power-of-two quantized sweep: one (expensive) precompute
    /// per region serves *any* microarchitecture afterwards — the
    /// design-space-exploration shape.
    Quantized,
    /// A minimal per-architecture sweep: cheap precompute, but the store is
    /// only reusable for queries that quantize onto the same grid.
    PerArch,
}

/// Per-class miss-wait SLOs (`--slo interactive=25,batch=500`, milliseconds).
///
/// A request's *effective deadline* resolves per job as: its own wire
/// `deadline_ms`, else its class's SLO here (see [`effective_slo`]). The
/// deadline orders the precompute pool's builds earliest-deadline-first
/// ([`pick_task`]) — a class with no SLO configured behaves exactly as
/// before this knob existed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassSlo {
    slos: [Option<Duration>; N_CLASSES],
}

impl ClassSlo {
    /// Sets one class's SLO.
    pub fn set(&mut self, class: RequestClass, slo: Duration) {
        self.slos[class.index()] = Some(slo);
    }

    /// The SLO configured for `class`, if any.
    pub fn get(&self, class: RequestClass) -> Option<Duration> {
        self.slos[class.index()]
    }

    /// True when no class has an SLO (the default: per-class QoS off).
    pub fn is_empty(&self) -> bool {
        self.slos.iter().all(Option::is_none)
    }

    /// Parses the `--slo` flag syntax: comma-separated `class=millis`
    /// entries, e.g. `interactive=25,batch=500`. Unlisted classes keep no
    /// SLO; listing a class twice is an error (a silent last-wins would
    /// hide operator typos).
    pub fn parse(s: &str) -> Result<ClassSlo, String> {
        let mut out = ClassSlo::default();
        for entry in s.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (name, ms) = entry
                .split_once('=')
                .ok_or_else(|| format!("`{entry}`: expected class=millis"))?;
            let class = RequestClass::parse(name.trim())
                .ok_or_else(|| format!("`{name}`: unknown request class (interactive | batch)"))?;
            let ms: u64 = ms
                .trim()
                .parse()
                .map_err(|_| format!("`{ms}`: not a millisecond count"))?;
            if out.get(class).is_some() {
                return Err(format!("class `{class}` listed twice"));
            }
            out.set(class, Duration::from_millis(ms));
        }
        Ok(out)
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (0 = `available_parallelism - 1`, at least 1).
    pub workers: usize,
    /// Bounded request-queue capacity; submissions beyond it are rejected.
    pub queue_capacity: usize,
    /// Most requests one worker takes into a batch (0 counts as 1).
    pub max_batch: usize,
    /// Feature-store cache shard count (0 = 8). Each shard has its own lock,
    /// so hot-region lookups don't contend with cold-region insertions.
    pub cache_shards: usize,
    /// Feature-store cache byte budget across all shards
    /// ([`FeatureStore::approx_bytes`] accounting).
    pub cache_bytes: usize,
    /// Dedicated precompute-pool threads for cache misses
    /// (0 = half the cores, at least 1).
    pub precompute_workers: usize,
    /// Concurrent TCP connections accepted before new ones get a typed
    /// `busy` error (min 1).
    pub max_connections: usize,
    /// Sweep each store precomputes.
    pub sweep: SweepScope,
    /// Per-class miss-wait SLOs (`--slo`): the deadline a request without
    /// its own `deadline_ms` gets for the precompute pool's EDF ordering.
    /// Empty by default (per-class QoS off).
    pub class_slo: ClassSlo,
    /// Idle-connection reap timeout (`--read-timeout-ms`): a TCP connection
    /// that sends no complete request line for this long is closed. `None`
    /// (the default) never reaps — connections may idle forever, the
    /// pre-hardening behavior. Independent of drain: a draining server
    /// closes idle connections immediately.
    pub read_timeout: Option<Duration>,
    /// Maximum accepted request-line length in bytes (`--max-line-bytes`).
    /// A connection that exceeds it mid-line gets a typed `oversized` error
    /// and is closed — the server never buffers an unbounded line.
    pub max_line_bytes: usize,
    /// Deterministic fault-injection plan for the chaos harness (tests pass
    /// one here; operators set `CONCORDE_FAULT_PLAN`). `None` = no faults.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Root directory for on-demand dynamic workload resolution
    /// (`--dynamic-workloads DIR`). `None` (the default) means
    /// client-supplied ids are validated against the suite catalog and
    /// workloads already registered in-process (preloaded artifacts, CLI
    /// operands) only: an unseen `riscv:<path>` id from the wire is refused
    /// instead of reading and executing a server-side file. With a root
    /// set, unseen `riscv:` ids are resolved on demand when the ELF path
    /// canonicalizes inside the root, with the `@budget` suffix capped at
    /// [`MAX_WIRE_RISCV_BUDGET`] and resolver failures reported to clients
    /// as one uniform message (details go to the server log, so error text
    /// cannot be used to probe the filesystem).
    pub dynamic_root: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            queue_capacity: 4096,
            max_batch: 128,
            cache_shards: 0,
            cache_bytes: 512 << 20,
            precompute_workers: 0,
            max_connections: 256,
            sweep: SweepScope::PerArch,
            class_slo: ClassSlo::default(),
            read_timeout: None,
            max_line_bytes: 1 << 20,
            fault_plan: None,
            dynamic_root: None,
        }
    }
}

impl ServeConfig {
    /// Worker threads a service started with this config runs.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(2)
            .saturating_sub(1)
            .max(1)
    }

    /// Most requests a worker of this config takes into one batch.
    pub fn effective_max_batch(&self) -> usize {
        self.max_batch.max(1)
    }

    /// Cache shards a service started with this config uses.
    pub fn effective_cache_shards(&self) -> usize {
        if self.cache_shards > 0 {
            self.cache_shards
        } else {
            8
        }
    }

    /// Precompute-pool threads a service started with this config runs.
    pub fn effective_precompute_workers(&self) -> usize {
        if self.precompute_workers > 0 {
            return self.precompute_workers;
        }
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(2)
            .div_ceil(2)
            .max(1)
    }
}

/// Why a submission was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded queue is at capacity; retry after draining.
    QueueFull,
    /// The service is shutting down.
    ShuttingDown,
    /// The service dropped the request without answering it.
    Disconnected,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull => write!(f, "request queue is full"),
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::Disconnected => write!(f, "service dropped the in-flight request"),
        }
    }
}

impl std::error::Error for ServeError {}

pub(crate) struct Job {
    req: PredictRequest,
    enqueued: Instant,
    /// The job's reply slot (see [`crate::slots`]). A job dropped without
    /// an answer closes it, so its submitter gets
    /// [`ServeError::Disconnected`] instead of waiting forever.
    tx: SlotSender,
    /// True once the job has been parked on an in-flight precompute and
    /// re-enqueued: its store was built on demand, so the response must
    /// report `cached: false` even though the re-run finds a cache hit.
    parked: bool,
    /// Effective deadline for QoS: `enqueued` + [`effective_slo`]. `None`
    /// when none is configured. Drives the precompute pool's EDF ordering
    /// only; the answer itself is the same exact prediction either way.
    deadline: Option<Instant>,
}

/// A request's miss-wait budget: its own `deadline_ms`, else its class's
/// SLO, else none.
fn effective_slo(req: &PredictRequest, class_slo: &ClassSlo) -> Option<Duration> {
    req.deadline_ms
        .map(Duration::from_millis)
        .or_else(|| class_slo.get(req.class))
}

/// A queued cache-miss build for the precompute pool.
pub(crate) struct PrecomputeTask {
    key: FeatureKey,
    sweep: Arc<SweepConfig>,
    /// Arrival order, the FIFO tie-breaker when parked counts are equal.
    seq: u64,
    /// Times a pop chose a different task over this one; at
    /// [`MAX_BYPASS`] the task is built regardless of parked counts.
    bypassed: u32,
    /// Times this build has already crashed and been re-queued; at
    /// [`MAX_BUILD_RETRIES`] the waiters are failed with a typed error
    /// instead of retrying again.
    retries: u32,
}

/// How many times a panicking store build is re-queued (keeping its
/// single-flight entry and parked waiters) before the waiters are answered
/// with a typed internal error. One retry absorbs transient faults — an
/// injected chaos panic, an OOM-killed helper thread — while a
/// deterministic crash still fails fast.
const MAX_BUILD_RETRIES: u32 = 1;

/// How many pops may skip a queued build before it is forced to run —
/// bounds waiter latency so parked-count priority cannot starve a
/// single-waiter cold key under a stream of hotter ones.
const MAX_BYPASS: u32 = 4;

/// Picks the next build, earliest-effective-deadline-first (EDF): `prio`
/// maps a key to (earliest deadline among its parked waiters, parked
/// count). The task with the earliest deadline builds first; a key with any
/// deadline beats a key with none; ties (including the no-SLO
/// configuration, where every deadline is `None`) fall back to the prior
/// policy — most parked waiters, then FIFO on seq — so QoS-off servers
/// schedule exactly as before. Exception: a task bypassed [`MAX_BYPASS`]
/// times is picked first (oldest such), guaranteeing the progress the old
/// FIFO queue gave — a starving key's waiters have blown any deadline
/// already, so the backstop outranks EDF.
fn pick_task(
    tasks: &[PrecomputeTask],
    prio: impl Fn(&FeatureKey) -> (Option<Instant>, usize),
) -> usize {
    if let Some((i, _)) = tasks
        .iter()
        .enumerate()
        .filter(|(_, t)| t.bypassed >= MAX_BYPASS)
        .min_by_key(|(_, t)| t.seq)
    {
        return i;
    }
    // Placeholder instant for "no deadline": the leading `is_none` tuple
    // component already ranks those last, so the value only ever compares
    // against itself.
    let far = Instant::now();
    tasks
        .iter()
        .enumerate()
        .min_by_key(|(_, t)| {
            let (deadline, count) = prio(&t.key);
            (
                deadline.is_none(),
                deadline.unwrap_or(far),
                std::cmp::Reverse(count),
                t.seq,
            )
        })
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// One run-queue shard: its own lock and wakeup channel. Submitters spread
/// jobs round-robin across shards; each worker drains "its" shard first and
/// steals from the others when it comes up empty, so steady-state submission
/// and collection never serialize on one global queue lock.
struct Shard {
    q: Mutex<VecDeque<Job>>,
    cv: Condvar,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            q: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
        }
    }
}

pub(crate) struct Shared {
    pub(crate) cfg: ServeConfig,
    model: ConcordePredictor,
    profile: ReproProfile,
    /// Per-worker run-queue shards (see [`Shard`]).
    shards: Vec<Shard>,
    /// Jobs across all shards, *including* slots reserved by an in-progress
    /// push — the capacity check, the depth gauge, and the shutdown drain
    /// test all read this instead of sweeping every shard lock.
    pub(crate) queue_len: AtomicUsize,
    /// Round-robin shard cursor for submissions.
    rr: AtomicUsize,
    /// Recycled response slots (the warm path's channel replacement).
    slot_pool: Arc<SlotPool>,
    /// The §5.2.3 quantized sweep + its content hash, computed once at
    /// startup: under [`SweepScope::Quantized`] every request shares this
    /// one config, so the hot path neither rebuilds the grids nor re-hashes
    /// them per job.
    quant_sweep: Arc<SweepConfig>,
    quant_sweep_hash: u64,
    pub(crate) cache: ShardedStoreCache,
    /// Single-flight registry: key → jobs parked on that key's in-flight
    /// build. Presence of an entry means exactly one build is queued or
    /// running for the key.
    pub(crate) inflight: Mutex<HashMap<FeatureKey, Vec<Job>>>,
    /// Number of in-flight precomputes; workers may only exit at shutdown
    /// once this reaches zero (parked jobs still need re-enqueuing).
    pub(crate) inflight_builds: AtomicUsize,
    /// Pending builds, popped by parked-request count (see [`pick_task`]),
    /// not FIFO — the small scan is cheap next to any single build.
    pub(crate) pre_queue: Mutex<Vec<PrecomputeTask>>,
    /// Arrival stamp for queued builds (the FIFO tie-breaker).
    pre_seq: AtomicU64,
    pre_notify: Condvar,
    pub(crate) metrics: Metrics,
    /// Fault-injection plan (the chaos harness's hooks); the default empty
    /// plan costs one branch per hook.
    pub(crate) faults: Arc<FaultPlan>,
    /// Graceful-drain flag: set by `{"cmd":"drain"}` / SIGTERM. The TCP
    /// accept loop stops accepting, connection handlers close once idle,
    /// and `/readyz` flips to 503; in-flight work still completes.
    pub(crate) draining: AtomicBool,
    shutdown: AtomicBool,
    /// Second-phase shutdown: set only after the batch workers have drained,
    /// so the pool never abandons a build whose parked jobs a worker is
    /// still waiting to serve.
    pool_shutdown: AtomicBool,
    /// Cache-miss precomputes currently running; divides the per-precompute
    /// thread budget so concurrent misses share the cores instead of each
    /// spawning `available_parallelism` threads.
    active_precomputes: AtomicUsize,
}

/// The serving engine; dropping it drains the workers.
pub struct PredictionService {
    pub(crate) shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    pool: Vec<std::thread::JoinHandle<()>>,
}

impl PredictionService {
    /// Starts the worker + precompute pools around a trained model.
    ///
    /// `profile` must be the profile the model was trained with (it fixes
    /// the encoding width and the served region/warmup lengths).
    pub fn start(model: ConcordePredictor, profile: ReproProfile, cfg: ServeConfig) -> Self {
        // Real-program workload ids (`riscv:<path>`) must resolve in every
        // embedding — wire requests, `--preload`, tests — so the front end
        // registers its prefix resolver whenever a service starts.
        concorde_riscv::install();
        let n_workers = cfg.effective_workers();
        let n_pool = cfg.effective_precompute_workers();
        let quant_sweep = Arc::new(SweepConfig::quantized());
        let quant_sweep_hash = sweep_content_hash(&quant_sweep);
        // Chaos hooks: an explicit plan from the config wins; otherwise the
        // environment may arm one (operators smoke-testing a deployment).
        let faults = cfg.fault_plan.clone().unwrap_or_else(|| {
            std::env::var("CONCORDE_FAULT_PLAN")
                .ok()
                .and_then(|spec| match FaultPlan::parse(&spec) {
                    Ok(plan) => Some(Arc::new(plan)),
                    Err(e) => {
                        eprintln!("ignoring CONCORDE_FAULT_PLAN: {e}");
                        None
                    }
                })
                .unwrap_or_default()
        });
        let shared = Arc::new(Shared {
            cache: ShardedStoreCache::new(cfg.effective_cache_shards(), cfg.cache_bytes),
            cfg,
            model,
            profile,
            shards: (0..n_workers).map(|_| Shard::new()).collect(),
            queue_len: AtomicUsize::new(0),
            rr: AtomicUsize::new(0),
            slot_pool: Arc::new(SlotPool::default()),
            quant_sweep,
            quant_sweep_hash,
            inflight: Mutex::new(HashMap::new()),
            inflight_builds: AtomicUsize::new(0),
            pre_queue: Mutex::new(Vec::new()),
            pre_seq: AtomicU64::new(0),
            pre_notify: Condvar::new(),
            metrics: Metrics::default(),
            faults,
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            pool_shutdown: AtomicBool::new(false),
            active_precomputes: AtomicUsize::new(0),
        });
        let workers = (0..n_workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("concorde-serve-{i}"))
                    .spawn(move || supervise(&shared, false, || worker_loop(&shared, i)))
                    .expect("spawn serve worker")
            })
            .collect();
        let pool = (0..n_pool)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("concorde-precompute-{i}"))
                    .spawn(move || supervise(&shared, true, || precompute_loop(&shared)))
                    .expect("spawn precompute worker")
            })
            .collect();
        PredictionService {
            shared,
            workers,
            pool,
        }
    }

    /// Live metrics (the `{"cmd": "metrics"}` reply).
    pub fn metrics(&self) -> MetricsSnapshot {
        snapshot(&self.shared).stats.metrics
    }

    /// Full stats (the `{"cmd": "stats"}` reply): metrics plus cache budget
    /// and per-shard occupancy.
    pub fn stats(&self) -> ServiceStats {
        snapshot(&self.shared).stats
    }

    /// The engine configuration this service runs with.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.cfg
    }

    /// The feature schema (version + named blocks) this service's model
    /// consumes; served to clients as `{"cmd": "schema"}`.
    pub fn schema(&self) -> FeatureSchema {
        schema_of(&self.shared)
    }

    /// Seeds the feature-store cache with a prebuilt store, so queries
    /// against that region skip the analytic precompute from the first
    /// request on.
    pub fn preload(&self, key: FeatureKey, store: FeatureStore) {
        self.shared.cache.insert(key, Arc::new(store));
    }

    /// Memory-maps a `concorde precompute` artifact from `path` into the
    /// cache (zero-copy: the cached store's arenas point into the mapping,
    /// which is released when the store is evicted and unreferenced).
    ///
    /// # Errors
    ///
    /// I/O and format errors from [`StoreArtifact::map`]; a mismatch
    /// between the artifact's encoding and the served model's (a store built
    /// at a different encoding width would assemble misshapen vectors); or a
    /// sweep-scope mismatch that would make the artifact unreachable by any
    /// request key (preloading it would silently leave the server cold).
    pub fn preload_artifact(&self, path: &std::path::Path) -> std::io::Result<FeatureKey> {
        let artifact = StoreArtifact::map(path)?;
        let model_enc = self.shared.model.layout.encoding;
        if artifact.store.encoding() != model_enc {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "artifact encoding ({} levels) does not match the served model ({} levels)",
                    artifact.store.encoding().levels,
                    model_enc.levels
                ),
            ));
        }
        // Request keys embed the sweep hash the server computes per request,
        // so an artifact built for the wrong sweep scope can never be hit.
        let quantized_hash = sweep_content_hash(&SweepConfig::quantized());
        let is_quantized_artifact = artifact.key.sweep_hash == quantized_hash;
        match self.shared.cfg.sweep {
            SweepScope::Quantized if !is_quantized_artifact => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "artifact was not built for the quantized sweep this server runs; \
                     rebuild with `concorde precompute --sweep quantized`",
                ));
            }
            SweepScope::PerArch if is_quantized_artifact => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "artifact was built for the quantized sweep but this server runs \
                     per-arch sweeps (start it with `--sweep quantized`)",
                ));
            }
            _ => {}
        }
        // Opt-in paranoia (`CONCORDE_VERIFY_STORES=1`): re-verify the store
        // at insert time by round-tripping it through its own serialization
        // — touches every arena byte beyond what the load-time checksum
        // already proved.
        if concorde_core::cache::verify_stores_enabled() {
            concorde_core::cache::verify_store(&artifact.store).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("store verification failed (CONCORDE_VERIFY_STORES=1): {e}"),
                )
            })?;
        }
        // A dynamic-workload artifact (e.g. `riscv:<path>`) registers its
        // provider now, in operator context, and *pins* it: requests
        // against the preloaded region must pass admission even on servers
        // that refuse on-demand resolution of client-supplied ids, and a
        // preload whose workload can't resolve on this host would otherwise
        // turn every matching request into an error — fail fast instead.
        match concorde_trace::resolve_workload(&artifact.key.workload) {
            Ok(concorde_trace::ResolvedWorkload::Dynamic(p)) => {
                concorde_trace::register_provider(p);
            }
            Ok(concorde_trace::ResolvedWorkload::Suite(_)) => {}
            Err(e) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "artifact workload `{}` is not resolvable on this host: {e}",
                        artifact.key.workload
                    ),
                ));
            }
        }
        let key = artifact.key.clone();
        self.preload(artifact.key, artifact.store);
        Ok(key)
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Number of dedicated precompute-pool threads.
    pub fn precompute_workers(&self) -> usize {
        self.pool.len()
    }

    /// An in-process client handle (cheap to clone, independent lifetime).
    pub fn client(&self) -> crate::Client {
        crate::Client::new(Arc::clone(&self.shared))
    }

    /// Begins a graceful drain: [`PredictionService::serve_tcp`] stops
    /// accepting, open connections close once their in-flight requests are
    /// answered, and `/readyz` flips to 503. The engine itself keeps
    /// serving (queues flush, parked jobs are answered) until the service
    /// is dropped. Idempotent.
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// True once [`PredictionService::begin_drain`] (or the wire
    /// `{"cmd":"drain"}` / a SIGTERM handler) has been called.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }
}

impl Drop for PredictionService {
    fn drop(&mut self) {
        // Phase 1: stop accepting submissions and drain the batch workers.
        // They only exit once the queue is empty AND no precompute is in
        // flight, so every parked job is re-enqueued and answered first —
        // the pool must still be alive to land those stores.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for s in &self.shared.shards {
            s.cv.notify_all();
        }
        self.shared.pre_notify.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // A submitter that passed the shutdown check just before the flag
        // landed may have pushed after the last worker's final empty check;
        // answer those jobs instead of stranding their waiters. No new
        // builds can register (the workers are gone), so nothing refills
        // the shards after this sweep.
        for shard in &self.shared.shards {
            loop {
                let job = shard
                    .q
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .pop_front();
                let Some(job) = job else { break };
                self.shared.queue_len.fetch_sub(1, Ordering::SeqCst);
                let us = job.enqueued.elapsed().as_micros() as u64;
                respond(
                    &self.shared,
                    &job,
                    PredictResponse::err(job.req.id, ServeError::ShuttingDown.to_string(), us),
                );
            }
        }
        // Phase 2: with the workers gone nothing can queue new builds;
        // release the pool.
        self.shared.pool_shutdown.store(true, Ordering::SeqCst);
        self.shared.pre_notify.notify_all();
        for w in self.pool.drain(..) {
            let _ = w.join();
        }
    }
}

/// Builds a [`Job`] around `req`, resolving its effective deadline (the
/// EDF key the precompute pool orders builds by).
fn make_job(shared: &Shared, req: PredictRequest, tx: SlotSender) -> Job {
    let enqueued = Instant::now();
    let deadline = effective_slo(&req, &shared.cfg.class_slo).map(|d| enqueued + d);
    Job {
        req,
        enqueued,
        tx,
        parked: false,
        deadline,
    }
}

/// Reserves `n` queue slots against the bounded capacity (all-or-nothing,
/// so a wire batch enqueues atomically or not at all).
fn reserve(shared: &Shared, n: usize) -> Result<(), ServeError> {
    // Racing the flag (instead of checking under a global queue lock, which
    // no longer exists) can strand at most the handful of jobs pushed in the
    // window between the last worker's final empty check and the flag
    // landing — the service `Drop` sweeps the shards and answers those.
    if shared.shutdown.load(Ordering::SeqCst) {
        return Err(ServeError::ShuttingDown);
    }
    shared
        .queue_len
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |len| {
            (len + n <= shared.cfg.queue_capacity).then_some(len + n)
        })
        .map_err(|_| {
            shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            ServeError::QueueFull
        })?;
    Ok(())
}

/// Raises the queue-depth high-water mark and wakes workers after `n` jobs
/// landed on shard `idx`. A batch bigger than one worker's `max_batch` also
/// pokes the other shards so their (possibly sleeping) workers come steal
/// the spill.
fn notify_enqueued(shared: &Shared, idx: usize, n: usize) {
    let depth = shared.queue_len.load(Ordering::SeqCst);
    shared
        .metrics
        .max_queue_depth
        .fetch_max(depth, Ordering::Relaxed);
    shared.shards[idx].cv.notify_all();
    if n > shared.cfg.effective_max_batch() {
        for (i, s) in shared.shards.iter().enumerate() {
            if i != idx {
                s.cv.notify_one();
            }
        }
    }
}

/// Enqueues one job on the next round-robin shard. Capacity must already be
/// reserved.
fn push_one(shared: &Shared, job: Job) {
    let idx = shared.rr.fetch_add(1, Ordering::Relaxed) % shared.shards.len();
    shared.shards[idx]
        .q
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push_back(job);
    shared.metrics.submitted.fetch_add(1, Ordering::Relaxed);
    notify_enqueued(shared, idx, 1);
}

/// Submit against a recycled response slot (no per-request allocation once
/// the slab is warm). Dropping the returned receiver releases the slot.
pub(crate) fn submit(shared: &Shared, req: PredictRequest) -> Result<SlotReceiver, ServeError> {
    reserve(shared, 1)?;
    let (tx, rx) = shared.slot_pool.channel();
    push_one(shared, make_job(shared, req, tx));
    Ok(rx)
}

/// Enqueues a whole wire batch under **one** shard lock: one capacity
/// reservation, one lock acquisition, one wakeup — instead of N global
/// queue round-trips. All-or-nothing: on `Err` nothing was enqueued and
/// `reqs` is untouched (callers fall back to per-request submission, which
/// makes progress even when the batch exceeds the whole queue capacity).
///
/// On success `reqs` is drained; a slot receiver per request is appended to
/// `rxs` in request order. `jobs` is caller-owned scratch so the warm path
/// reuses its capacity.
pub(crate) fn submit_many(
    shared: &Shared,
    reqs: &mut Vec<PredictRequest>,
    rxs: &mut Vec<SlotReceiver>,
    jobs: &mut Vec<Job>,
) -> Result<(), ServeError> {
    let n = reqs.len();
    if n == 0 {
        return Ok(());
    }
    reserve(shared, n)?;
    jobs.clear();
    for req in reqs.drain(..) {
        let (tx, rx) = shared.slot_pool.channel();
        jobs.push(make_job(shared, req, tx));
        rxs.push(rx);
    }
    let idx = shared.rr.fetch_add(1, Ordering::Relaxed) % shared.shards.len();
    shared.shards[idx]
        .q
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .extend(jobs.drain(..));
    shared
        .metrics
        .submitted
        .fetch_add(n as u64, Ordering::Relaxed);
    notify_enqueued(shared, idx, n);
    Ok(())
}

/// Submits every request of `reqs` in order, appending one receiver per
/// request to `rxs`. The whole batch enqueues under one shard lock when it
/// fits ([`submit_many`]); a queue too full for that degrades to
/// per-request submission that sleeps out [`ServeError::QueueFull`], which
/// makes progress even when the batch exceeds the entire queue capacity.
///
/// # Errors
///
/// [`ServeError::ShuttingDown`]: `rxs` then holds the receivers of the
/// requests already submitted and `reqs` the rest, in order.
pub(crate) fn submit_waiting(
    shared: &Shared,
    reqs: &mut Vec<PredictRequest>,
    rxs: &mut Vec<SlotReceiver>,
    jobs: &mut Vec<Job>,
) -> Result<(), ServeError> {
    match submit_many(shared, reqs, rxs, jobs) {
        Err(ServeError::QueueFull) => {}
        submitted => return submitted,
    }
    for done in 0..reqs.len() {
        loop {
            match submit(shared, reqs[done].clone()) {
                Ok(rx) => {
                    rxs.push(rx);
                    break;
                }
                Err(ServeError::QueueFull) => std::thread::sleep(Duration::from_micros(200)),
                Err(e) => {
                    reqs.drain(..done);
                    return Err(e);
                }
            }
        }
    }
    reqs.clear();
    Ok(())
}

pub(crate) fn schema_of(shared: &Shared) -> FeatureSchema {
    shared.model.layout.schema()
}

/// True once every shutdown-drain obligation is met. Read order matters:
/// [`requeue_parked`] pushes its jobs (growing `queue_len`) *before*
/// releasing the build slot (`inflight_builds -= 1`), so a thread that
/// observes zero in-flight builds first and then an empty queue cannot have
/// raced past a requeue — if all decrements had landed, so had their pushes,
/// and the length read (sequenced after) would have seen them.
fn drained_for_shutdown(shared: &Shared) -> bool {
    shared.shutdown.load(Ordering::SeqCst)
        && shared.inflight_builds.load(Ordering::SeqCst) == 0
        && shared.queue_len.load(Ordering::SeqCst) == 0
}

/// Pops up to `max - batch.len()` jobs off a locked shard queue, keeping the
/// global length counter in step.
fn drain_locked(shared: &Shared, q: &mut VecDeque<Job>, batch: &mut Vec<Job>, max: usize) {
    let mut taken = 0usize;
    while batch.len() < max {
        match q.pop_front() {
            Some(j) => {
                batch.push(j);
                taken += 1;
            }
            None => break,
        }
    }
    if taken > 0 {
        shared.queue_len.fetch_sub(taken, Ordering::SeqCst);
    }
}

/// Collects one micro-batch into `batch` (cleared first): waits on the
/// worker's own shard, drains it, and steals front-first from the other
/// shards when it comes up empty — then returns at once. The collector is
/// work-conserving: a batch is whatever was already queued, up to
/// [`ServeConfig::effective_max_batch`], and never waits for stragglers.
///
/// Leaves `batch` empty only when there was nothing to take — at shutdown
/// (the worker loop re-checks [`drained_for_shutdown`] before exiting, so a
/// parked job awaiting its store can never strand) or when a steal raced
/// another worker to the same jobs.
fn collect_batch(shared: &Shared, wid: usize, batch: &mut Vec<Job>) {
    batch.clear();
    let max = shared.cfg.effective_max_batch();
    let nsh = shared.shards.len();
    let my = &shared.shards[wid % nsh];
    {
        let mut q = my.q.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if !q.is_empty() {
                break;
            }
            if shared.queue_len.load(Ordering::SeqCst) > 0 {
                break; // work on some other shard: go steal it
            }
            if drained_for_shutdown(shared) {
                return;
            }
            // Timed wait: robust against lost wakeups during shutdown and
            // while awaiting re-enqueued parked jobs.
            let (qq, _) = my
                .cv
                .wait_timeout(q, Duration::from_millis(50))
                .unwrap_or_else(|e| e.into_inner());
            q = qq;
        }
        drain_locked(shared, &mut q, batch, max);
    }
    if batch.is_empty() {
        for off in 1..nsh {
            let sh = &shared.shards[(wid + off) % nsh];
            let mut q = sh.q.lock().unwrap_or_else(|e| e.into_inner());
            drain_locked(shared, &mut q, batch, max);
            drop(q);
            if !batch.is_empty() {
                break;
            }
        }
    }
}

/// Per-worker reusable buffers: batch/group staging plus the full
/// prediction scratch ([`PredictScratch`]: dedup table, entry plan,
/// first-layer projections, MLP activations). Warm after the first batch, so steady-state serving
/// allocates nothing per request.
#[derive(Default)]
struct WorkerScratch {
    predict: PredictScratch,
    batch: Vec<Job>,
    groups: Vec<Group>,
    group_idx: HashMap<FeatureKey, usize>,
    /// Recycled per-group job vectors (capacity-retaining).
    spare_jobs: Vec<ArchJobs>,
    archs: Vec<MicroArch>,
    outs: Vec<f64>,
    /// Per-arch sweep memo for [`SweepScope::PerArch`]: repeated
    /// microarchitectures reuse the built `SweepConfig` + content hash
    /// instead of re-allocating the grid per request (linear scan —
    /// `MicroArch` is `PartialEq`-only — over a small FIFO window).
    sweep_memo: Vec<(MicroArch, Arc<SweepConfig>, u64)>,
}

/// Entries kept in [`WorkerScratch::sweep_memo`] before the oldest is
/// evicted. Covers typical steady-state arch working sets; misses just pay
/// the old build-per-request cost.
const SWEEP_MEMO_CAP: usize = 32;

/// Thread supervisor: runs `body` (a worker or precompute loop) until it
/// returns cleanly, restarting it when a panic escapes the per-job unwind
/// guards. The restarted loop starts with fresh scratch state; the shared
/// engine state holds no lock across a loop iteration boundary, so a
/// restart never observes a poisoned invariant. `pool` selects which
/// shutdown flag ends the supervision (workers drain before the pool).
fn supervise(shared: &Shared, pool: bool, body: impl Fn()) {
    loop {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(&body)) {
            Ok(()) => return,
            Err(_) => {
                shared.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
                let stop = if pool {
                    &shared.pool_shutdown
                } else {
                    &shared.shutdown
                };
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                shared
                    .metrics
                    .worker_restarts
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn worker_loop(shared: &Shared, wid: usize) {
    let mut scratch = WorkerScratch::default();
    loop {
        let mut batch = std::mem::take(&mut scratch.batch);
        collect_batch(shared, wid, &mut batch);
        if batch.is_empty() {
            scratch.batch = batch;
            if drained_for_shutdown(shared) {
                return;
            }
            continue;
        }
        shared.metrics.batch_size.observe(batch.len() as f64);
        process_batch(shared, &mut batch, &mut scratch);
        scratch.batch = batch;
    }
}

/// A missed group's jobs with their resolved architectures.
type ArchJobs = Vec<(Job, MicroArch)>;

/// A batch group: jobs sharing one feature store. The sweep is shared, not
/// owned: under [`SweepScope::Quantized`] every group aliases the one
/// startup-built config instead of re-deriving its grids per batch.
struct Group {
    key: FeatureKey,
    sweep: Arc<SweepConfig>,
    jobs: ArchJobs,
}

/// Admission-time validation of a client-supplied workload id.
///
/// Suite ids and workloads already registered in-process (preloaded
/// artifacts, CLI operands, earlier resolutions) pass without touching the
/// resolver — no I/O, no execution. Unseen dynamic ids resolve on demand
/// only when the operator opted in with [`ServeConfig::dynamic_root`], and
/// then under three restrictions that keep remote clients from driving the
/// resolver: the ELF path must canonicalize inside the root, the `@budget`
/// suffix is capped at [`MAX_WIRE_RISCV_BUDGET`], and every
/// filesystem-dependent failure (missing file, permissions, path escape,
/// malformed ELF) comes back as one uniform message — the detail goes to
/// the server log — so error text cannot distinguish what exists where.
fn validate_workload(shared: &Shared, id: &str) -> Result<(), String> {
    if concorde_trace::resolve_registered(id).is_some() {
        return Ok(());
    }
    let Some(root) = shared.cfg.dynamic_root.as_deref() else {
        return Err(format!(
            "unknown workload `{id}` (on-demand dynamic resolution is disabled; \
             preload the workload or start the server with --dynamic-workloads)"
        ));
    };
    // Syntax failures (wrong prefix, empty path, malformed budget) derive
    // from the id alone and are safe to echo verbatim.
    let (path, budget) = concorde_riscv::parse_workload_id(id)?;
    if budget > MAX_WIRE_RISCV_BUDGET {
        return Err(format!(
            "workload `{id}`: instruction budget {budget} exceeds the served \
             maximum {MAX_WIRE_RISCV_BUDGET}"
        ));
    }
    let refused = || {
        format!(
            "workload `{id}` is not servable (dynamic workloads are restricted \
             to the server's --dynamic-workloads root)"
        )
    };
    let root = std::fs::canonicalize(root).map_err(|e| {
        eprintln!("[serve] dynamic-workloads root unusable: {e}");
        refused()
    })?;
    match std::fs::canonicalize(path) {
        Ok(p) if p.starts_with(&root) => {}
        Ok(p) => {
            eprintln!(
                "[serve] refused dynamic workload `{id}`: {} escapes the root {}",
                p.display(),
                root.display()
            );
            return Err(refused());
        }
        Err(e) => {
            eprintln!("[serve] refused dynamic workload `{id}`: {e}");
            return Err(refused());
        }
    }
    concorde_trace::resolve_workload(id).map(drop).map_err(|e| {
        eprintln!("[serve] dynamic workload `{id}` failed to resolve: {e}");
        refused()
    })
}

fn respond(shared: &Shared, job: &Job, resp: PredictResponse) {
    if resp.error.is_some() {
        shared.metrics.errored.fetch_add(1, Ordering::Relaxed);
    }
    shared
        .metrics
        .observe_latency(job.req.class, job.enqueued.elapsed().as_micros() as u64);
    job.tx.send(resp);
}

fn process_batch(shared: &Shared, batch: &mut Vec<Job>, scratch: &mut WorkerScratch) {
    // Group by feature-store key, resolving architectures up front. The
    // group table and index live in the worker scratch: cleared each batch,
    // capacity (and the recycled per-group job vectors) retained.
    let mut groups = std::mem::take(&mut scratch.groups);
    for job in batch.drain(..) {
        // First pass only: a re-enqueued parked job's wait is park time, not
        // queue time, and is visible in end-to-end latency instead.
        if !job.parked {
            shared.metrics.queue_wait[job.req.class.index()]
                .observe(job.enqueued.elapsed().as_secs_f64());
        }
        // Schema pinning: a client that demands a specific feature-schema
        // version gets a typed refusal, never a silently different layout.
        if let Some(v) = job.req.schema_version {
            if v != SCHEMA_VERSION {
                shared
                    .metrics
                    .schema_mismatches
                    .fetch_add(1, Ordering::Relaxed);
                let id = job.req.id;
                let us = job.enqueued.elapsed().as_micros() as u64;
                respond(
                    shared,
                    &job,
                    PredictResponse::schema_mismatch(id, v, SCHEMA_VERSION, us),
                );
                continue;
            }
        }
        let arch = match job.req.arch.resolve() {
            Ok(a) => a,
            Err(msg) => {
                let id = job.req.id;
                let us = job.enqueued.elapsed().as_micros() as u64;
                respond(shared, &job, PredictResponse::err(id, msg, us));
                continue;
            }
        };
        // Suite ids stay on the lock-free catalog path; registered dynamic
        // ids pass under a read lock. Unseen `riscv:` ids run their
        // resolver here — opt-in, path-confined, budget-capped (see
        // `validate_workload`) — on this worker thread; the per-id build
        // latch in the registry keeps one slow ELF from stalling
        // resolutions of other ids on other workers.
        if let Err(msg) = validate_workload(shared, &job.req.workload) {
            let id = job.req.id;
            let us = job.enqueued.elapsed().as_micros() as u64;
            respond(shared, &job, PredictResponse::err(id, msg, us));
            continue;
        }
        // Quantized scope (the design-space-exploration shape) reuses the
        // startup-built sweep + hash: no grid rebuild, no re-hash per job.
        let (sweep, sweep_hash) = match shared.cfg.sweep {
            SweepScope::Quantized => (Arc::clone(&shared.quant_sweep), shared.quant_sweep_hash),
            SweepScope::PerArch => {
                if let Some(i) = scratch.sweep_memo.iter().position(|(a, _, _)| *a == arch) {
                    let (_, s, h) = &scratch.sweep_memo[i];
                    (Arc::clone(s), *h)
                } else {
                    let s = Arc::new(SweepConfig::for_arch(&arch));
                    let h = sweep_content_hash(&s);
                    if scratch.sweep_memo.len() >= SWEEP_MEMO_CAP {
                        scratch.sweep_memo.remove(0);
                    }
                    scratch.sweep_memo.push((arch, Arc::clone(&s), h));
                    (s, h)
                }
            }
        };
        // Bound wire-controlled work: an unchecked `len` would let one
        // request allocate/generate gigabytes of trace (an allocation abort
        // is not catchable by the worker's unwind guard).
        if job.req.len > MAX_REGION_LEN {
            let id = job.req.id;
            let msg = format!(
                "region len {} exceeds the served maximum {MAX_REGION_LEN}",
                job.req.len
            );
            let us = job.enqueued.elapsed().as_micros() as u64;
            respond(shared, &job, PredictResponse::err(id, msg, us));
            continue;
        }
        let region_len = if job.req.len > 0 {
            job.req.len
        } else {
            shared.profile.region_len as u32
        };
        let key = FeatureKey {
            workload: job.req.workload.clone(),
            trace: job.req.trace,
            start: job.req.start,
            region_len,
            sweep_hash,
        };
        match scratch.group_idx.get(&key) {
            Some(&g) => groups[g].jobs.push((job, arch)),
            None => {
                scratch.group_idx.insert(key.clone(), groups.len());
                let mut jobs = scratch.spare_jobs.pop().unwrap_or_default();
                jobs.push((job, arch));
                groups.push(Group { key, sweep, jobs });
            }
        }
    }

    for group in &mut groups {
        run_group(shared, group, scratch);
    }
    for group in groups.drain(..) {
        let mut jobs = group.jobs;
        jobs.clear();
        scratch.spare_jobs.push(jobs);
    }
    scratch.groups = groups;
    scratch.group_idx.clear();
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "prediction panicked".to_string())
}

/// Counts a found-in-cache group toward `cache_hits`, unless the group is
/// purely re-enqueued parked jobs — their miss was already counted when they
/// registered the build, so counting the post-build "hit" too would inflate
/// `cache_hit_rate` (a fully cold workload would report 50%).
fn note_group_hit(shared: &Shared, jobs: &[(Job, MicroArch)]) {
    if jobs.iter().any(|(j, _)| !j.parked) {
        shared.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
    }
}

fn run_group(shared: &Shared, group: &mut Group, scratch: &mut WorkerScratch) {
    match shared.cache.get(&group.key) {
        Some(store) => {
            note_group_hit(shared, &group.jobs);
            eval_group(shared, &store, &group.jobs, scratch);
            group.jobs.clear();
        }
        // Miss: park the whole group on the key's single-flight entry and
        // move on — this worker never blocks on the build. The cold path
        // owns its allocations (key clone is inline, the job list moves
        // into the registry).
        None => {
            let key = group.key.clone();
            let sweep = Arc::clone(&group.sweep);
            let jobs = std::mem::take(&mut group.jobs);
            park_group(shared, key, sweep, jobs, scratch);
        }
    }
}

/// One batched forward pass for a group whose store is in hand, with the
/// worker's unwind guard around the evaluation.
fn eval_group(
    shared: &Shared,
    store: &Arc<FeatureStore>,
    jobs: &[(Job, MicroArch)],
    scratch: &mut WorkerScratch,
) {
    let archs = &mut scratch.archs;
    archs.clear();
    archs.extend(jobs.iter().map(|(_, a)| *a));
    let predict = &mut scratch.predict;
    let outs = &mut scratch.outs;
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        shared.faults.on_eval();
        shared.model.predict_batch_into(store, archs, predict, outs);
    }));
    match outcome {
        Ok(()) => {
            for ((job, _), &cpi) in jobs.iter().zip(scratch.outs.iter()) {
                let us = job.enqueued.elapsed().as_micros() as u64;
                // A job that parked on this store's build sees a "hit" only
                // because its own miss triggered the build — report it as
                // the precompute it was.
                respond(
                    shared,
                    job,
                    PredictResponse::ok(job.req.id, cpi, !job.parked, us),
                );
            }
        }
        Err(panic) => {
            shared.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
            let msg = panic_message(panic);
            for (job, _) in jobs {
                let us = job.enqueued.elapsed().as_micros() as u64;
                respond(shared, job, PredictResponse::internal(job.req.id, &msg, us));
            }
        }
    }
}

/// Re-enqueues jobs at the *front* of one round-robin shard (they have
/// waited the longest, and keeping a parked group together lets it re-batch
/// onto its now-cached store in one forward pass). Bypasses the capacity
/// check, like the single-queue push_front it replaces — these jobs already
/// held queue slots once.
fn push_front_batch(shared: &Shared, jobs: Vec<Job>) {
    if jobs.is_empty() {
        return;
    }
    let n = jobs.len();
    shared.queue_len.fetch_add(n, Ordering::SeqCst);
    let idx = shared.rr.fetch_add(1, Ordering::Relaxed) % shared.shards.len();
    {
        let mut q = shared.shards[idx]
            .q
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        for job in jobs.into_iter().rev() {
            q.push_front(job);
        }
    }
    notify_enqueued(shared, idx, n);
}

/// Parks a missed group: joins the key's in-flight build if one exists
/// (single-flight deduplication), otherwise registers a new one and queues
/// it to the precompute pool. If the store landed between the cache probe
/// and the registry lock, evaluates immediately instead.
fn park_group(
    shared: &Shared,
    key: FeatureKey,
    sweep: Arc<SweepConfig>,
    jobs: Vec<(Job, MicroArch)>,
    scratch: &mut WorkerScratch,
) {
    let mut inflight = shared.inflight.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(entry) = inflight.get_mut(&key) {
        shared
            .metrics
            .coalesced
            .fetch_add(jobs.len() as u64, Ordering::Relaxed);
        entry.extend(jobs.into_iter().map(|(j, _)| j));
        return;
    }
    // No entry: the build either never ran or already completed. Builds land
    // in the cache *before* their registry entry is removed, so re-probing
    // under this lock cannot miss a completed build.
    if let Some(store) = shared.cache.get(&key) {
        drop(inflight);
        note_group_hit(shared, &jobs);
        eval_group(shared, &store, &jobs, scratch);
        return;
    }
    shared.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
    inflight.insert(key.clone(), jobs.into_iter().map(|(j, _)| j).collect());
    shared.inflight_builds.fetch_add(1, Ordering::SeqCst);
    drop(inflight);
    {
        let mut pq = shared.pre_queue.lock().unwrap_or_else(|e| e.into_inner());
        pq.push(PrecomputeTask {
            key: key.clone(),
            sweep,
            seq: shared.pre_seq.fetch_add(1, Ordering::Relaxed),
            bypassed: 0,
            retries: 0,
        });
    }
    shared.pre_notify.notify_one();
}

/// Removes the key's in-flight entry and returns its parked jobs.
fn take_parked(shared: &Shared, key: &FeatureKey) -> Vec<Job> {
    shared
        .inflight
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(key)
        .unwrap_or_default()
}

/// Re-enqueues parked jobs at the front of a shard (they have waited the
/// longest) and releases the in-flight slot. Ordering contract with
/// [`drained_for_shutdown`]: the jobs are pushed — `queue_len` grown —
/// *before* the `inflight_builds` decrement, so a shutting-down worker that
/// reads "no builds in flight, queue empty" in that order can never have
/// raced between the two and stranded these jobs.
fn requeue_parked(shared: &Shared, mut jobs: Vec<Job>) {
    for job in &mut jobs {
        job.parked = true;
    }
    push_front_batch(shared, jobs);
    shared.inflight_builds.fetch_sub(1, Ordering::SeqCst);
    // Wake every worker: sleepers re-check the drain condition, and any
    // shard can steal the re-enqueued group.
    for s in &shared.shards {
        s.cv.notify_all();
    }
}

/// The dedicated precompute pool: pops the missed key with the most parked
/// requests (hot cold-keys first), builds its store, lands it in the cache,
/// and re-enqueues the parked jobs.
fn precompute_loop(shared: &Shared) {
    loop {
        let task = {
            let mut q = shared.pre_queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if !q.is_empty() {
                    let idx = if q.len() == 1 {
                        0
                    } else {
                        // Snapshot deadlines + parked counts under the
                        // registry lock. Lock order pre_queue → inflight is
                        // safe: park_group releases the registry lock before
                        // queueing.
                        let inflight = shared.inflight.lock().unwrap_or_else(|e| e.into_inner());
                        pick_task(&q, |k| {
                            let waiters = inflight.get(k);
                            (
                                waiters.and_then(|v| v.iter().filter_map(|j| j.deadline).min()),
                                waiters.map_or(0, Vec::len),
                            )
                        })
                    };
                    for (i, t) in q.iter_mut().enumerate() {
                        if i != idx {
                            t.bypassed += 1;
                        }
                    }
                    break q.remove(idx);
                }
                // `pool_shutdown` (not `shutdown`): batch workers may still
                // queue rebuilds while draining, and their parked jobs would
                // strand if the pool left early. The service drop joins the
                // workers first, then sets this flag.
                if shared.pool_shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let (qq, _) = shared
                    .pre_notify
                    .wait_timeout(q, Duration::from_millis(50))
                    .unwrap_or_else(|e| e.into_inner());
                q = qq;
            }
        };
        let t0 = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            precompute_store(shared, &task.key, &task.sweep)
        }));
        match outcome {
            Ok(store) => {
                shared.metrics.record_build(t0.elapsed());
                // Land the store before removing the in-flight entry: a
                // worker that finds no entry must be able to trust a cache
                // re-probe (see `park_group`).
                shared.cache.insert(task.key.clone(), Arc::new(store));
                let jobs = take_parked(shared, &task.key);
                requeue_parked(shared, jobs);
            }
            Err(panic) => {
                shared.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
                let msg = panic_message(panic);
                if task.retries < MAX_BUILD_RETRIES {
                    // Failover: re-queue the build once with a fresh seq.
                    // The single-flight entry stays — waiters stay parked,
                    // new requests for the key keep coalescing — and
                    // `inflight_builds` is NOT decremented, because a build
                    // is still owed; the drain ordering contract holds
                    // unchanged. The pool loop only exits on an empty queue,
                    // so a retry queued during shutdown still runs.
                    let mut pq = shared.pre_queue.lock().unwrap_or_else(|e| e.into_inner());
                    pq.push(PrecomputeTask {
                        key: task.key.clone(),
                        sweep: task.sweep,
                        seq: shared.pre_seq.fetch_add(1, Ordering::Relaxed),
                        bypassed: 0,
                        retries: task.retries + 1,
                    });
                    drop(pq);
                    shared.pre_notify.notify_one();
                    continue;
                }
                let jobs = take_parked(shared, &task.key);
                for job in &jobs {
                    let us = job.enqueued.elapsed().as_micros() as u64;
                    respond(shared, job, PredictResponse::internal(job.req.id, &msg, us));
                }
                // Every job was answered directly (nothing re-enqueued), so
                // the bare decrement upholds the drain ordering trivially.
                shared.inflight_builds.fetch_sub(1, Ordering::SeqCst);
                for s in &shared.shards {
                    s.cv.notify_all();
                }
            }
        }
    }
}

/// Decrements the active-precompute counter even if the precompute panics
/// (the pool's unwind guard keeps serving afterwards, so a leaked count
/// would permanently shrink every later precompute's thread budget).
struct PrecomputeSlot<'a>(&'a AtomicUsize);

impl Drop for PrecomputeSlot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn precompute_store(shared: &Shared, key: &FeatureKey, sweep: &SweepConfig) -> FeatureStore {
    // Chaos hook: may stall and/or panic here, inside the pool loop's
    // unwind guard.
    shared.faults.on_build();
    // Validated at admission; an evicted provider re-resolves
    // deterministically here. Failure (e.g. the backing ELF vanished since)
    // panics into the caller's unwind guard — retried once, then the
    // waiters get a typed internal error.
    let resolved = concorde_trace::resolve_workload(&key.workload)
        .unwrap_or_else(|e| panic!("workload `{}` became unresolvable: {e}", key.workload));
    // Same convention as `dataset.rs`: the region is [start, start + len),
    // functionally warmed by the up-to-`warmup_len` instructions before it.
    let warm_start = key.start.saturating_sub(shared.profile.warmup_len as u64);
    let warm_len = (key.start - warm_start) as usize;
    let region = resolved.materialize(key.trace, warm_start, warm_len + key.region_len as usize);
    let (w, r) = region.instrs.split_at(warm_len.min(region.instrs.len()));
    // Share the cores across concurrent misses: a lone miss uses every core,
    // while N simultaneous misses get ~cores/N threads each instead of
    // oversubscribing the machine N-fold.
    let active = shared.active_precomputes.fetch_add(1, Ordering::SeqCst) + 1;
    let _slot = PrecomputeSlot(&shared.active_precomputes);
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let threads = (cores / active).max(1);
    let store = FeatureStore::precompute_threaded(w, r, sweep, &shared.profile, threads);
    // `CONCORDE_VERIFY_STORES=1`: round-trip the freshly built store through
    // its own serialization before it lands in the cache. A failure panics
    // into the caller's unwind guard — retried once, then the waiters get a
    // typed internal error rather than a corrupt store.
    if concorde_core::cache::verify_stores_enabled() {
        if let Err(e) = concorde_core::cache::verify_store(&store) {
            panic!("store verification failed (CONCORDE_VERIFY_STORES=1): {e}");
        }
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let cfg = ServeConfig::default();
        assert!(cfg.effective_workers() >= 1);
        assert!(cfg.effective_cache_shards() >= 1);
        assert!(cfg.effective_precompute_workers() >= 1);
        assert!(cfg.queue_capacity > 0);
        assert!(cfg.max_batch > 1);
        let zero = ServeConfig {
            max_batch: 0,
            ..ServeConfig::default()
        };
        assert_eq!(zero.effective_max_batch(), 1);
        assert!(cfg.cache_bytes > 0);
        assert!(cfg.max_connections >= 1);
        assert!(cfg.class_slo.is_empty(), "per-class QoS must default off");
    }

    #[test]
    fn error_display() {
        assert!(ServeError::QueueFull.to_string().contains("full"));
        assert!(ServeError::ShuttingDown.to_string().contains("shutting"));
    }

    fn task(start: u64, seq: u64) -> PrecomputeTask {
        PrecomputeTask {
            key: FeatureKey {
                workload: "S5".into(),
                trace: 0,
                start,
                region_len: 2048,
                sweep_hash: 7,
            },
            sweep: Arc::new(SweepConfig::quantized()),
            seq,
            bypassed: 0,
            retries: 0,
        }
    }

    /// Adapts a parked-count map to the EDF `prio` signature with no
    /// deadlines anywhere — the legacy most-parked-first configuration.
    fn counts_only(
        f: impl Fn(&FeatureKey) -> usize,
    ) -> impl Fn(&FeatureKey) -> (Option<Instant>, usize) {
        move |k| (None, f(k))
    }

    #[test]
    fn pick_task_prefers_most_parked_then_fifo() {
        let tasks = vec![task(0, 0), task(1, 1), task(2, 2)];
        // Distinct parked counts: the hottest key wins regardless of age.
        let counts = |k: &FeatureKey| match k.start {
            0 => 1,
            1 => 5,
            _ => 3,
        };
        assert_eq!(pick_task(&tasks, counts_only(counts)), 1);
        // Ties break FIFO (lowest seq), including all-zero counts.
        assert_eq!(pick_task(&tasks, counts_only(|_| 2)), 0);
        assert_eq!(pick_task(&tasks, counts_only(|_| 0)), 0);
        // FIFO holds even when the queue order is not seq order.
        let shuffled = vec![task(0, 9), task(1, 4), task(2, 6)];
        assert_eq!(pick_task(&shuffled, counts_only(|_| 1)), 1);
        // A key with no registry entry (waiters gone) sinks below any key
        // that still has parked requests.
        let counts = |k: &FeatureKey| if k.start == 2 { 1 } else { 0 };
        assert_eq!(pick_task(&tasks, counts_only(counts)), 2);
    }

    #[test]
    fn pick_task_is_earliest_deadline_first() {
        let tasks = vec![task(0, 0), task(1, 1), task(2, 2)];
        let now = Instant::now();
        // The tightest deadline wins, even against an older key with more
        // parked waiters (key 0: 10 waiters, no deadline; key 1: loose
        // deadline; key 2: tight deadline, youngest, fewest waiters).
        let prio = move |k: &FeatureKey| match k.start {
            0 => (None, 10),
            1 => (Some(now + Duration::from_millis(500)), 2),
            _ => (Some(now + Duration::from_millis(25)), 1),
        };
        assert_eq!(pick_task(&tasks, prio), 2);
        // Any deadline beats no deadline, regardless of parked counts.
        let prio = move |k: &FeatureKey| match k.start {
            1 => (Some(now + Duration::from_secs(3600)), 1),
            _ => (None, 50),
        };
        assert_eq!(pick_task(&tasks, prio), 1);
        // Equal deadlines fall back to most-parked, then seq.
        let d = now + Duration::from_millis(100);
        let prio = move |k: &FeatureKey| (Some(d), if k.start == 1 { 5 } else { 2 });
        assert_eq!(pick_task(&tasks, prio), 1);
        let prio = move |_: &FeatureKey| (Some(d), 3);
        assert_eq!(pick_task(&tasks, prio), 0);
    }

    #[test]
    fn bypassed_tasks_cannot_starve() {
        // A lone-waiter key skipped MAX_BYPASS times is built next even
        // while hotter keys keep arriving — priority never starves a task.
        let mut starved = task(0, 0);
        starved.bypassed = MAX_BYPASS;
        let mut also_starved = task(1, 1);
        also_starved.bypassed = MAX_BYPASS + 3;
        let tasks = vec![task(9, 9), starved, also_starved];
        // Without aging, key 9 (5 waiters) would win; with it, the oldest
        // over-bypassed task (seq 0) must.
        let counts = |k: &FeatureKey| if k.start == 9 { 5 } else { 1 };
        assert_eq!(pick_task(&tasks, counts_only(counts)), 1);
        // Below the threshold, priority order still applies.
        let mut fresh = task(0, 0);
        fresh.bypassed = MAX_BYPASS - 1;
        assert_eq!(pick_task(&[fresh, task(9, 9)], counts_only(counts)), 1);
        // The backstop outranks even a tight deadline elsewhere.
        let now = Instant::now();
        let mut starved = task(0, 7);
        starved.bypassed = MAX_BYPASS;
        let tasks = vec![task(1, 1), starved];
        let prio = move |k: &FeatureKey| match k.start {
            1 => (Some(now + Duration::from_millis(1)), 4),
            _ => (None, 1),
        };
        assert_eq!(pick_task(&tasks, prio), 1);
    }

    #[test]
    fn class_slo_parses_and_resolves() {
        let slo = ClassSlo::parse("interactive=25,batch=500").unwrap();
        assert_eq!(
            slo.get(RequestClass::Interactive),
            Some(Duration::from_millis(25))
        );
        assert_eq!(
            slo.get(RequestClass::Batch),
            Some(Duration::from_millis(500))
        );
        // Partial configuration leaves the other class SLO-less.
        let slo = ClassSlo::parse(" interactive = 10 ").unwrap();
        assert_eq!(
            slo.get(RequestClass::Interactive),
            Some(Duration::from_millis(10))
        );
        assert_eq!(slo.get(RequestClass::Batch), None);
        assert!(!slo.is_empty());
        assert!(ClassSlo::parse("").unwrap().is_empty());
        // Errors: bad class, bad number, missing `=`, duplicate class.
        assert!(ClassSlo::parse("vip=1").is_err());
        assert!(ClassSlo::parse("batch=fast").is_err());
        assert!(ClassSlo::parse("batch").is_err());
        assert!(ClassSlo::parse("batch=1,batch=2").is_err());
    }

    #[test]
    fn effective_slo_resolution_order() {
        let mut slo = ClassSlo::default();
        slo.set(RequestClass::Interactive, Duration::from_millis(25));
        let mut req = PredictRequest::new(1, "S5", crate::ArchSpec::default());
        // Class SLO applies when the request carries no deadline…
        assert_eq!(effective_slo(&req, &slo), Some(Duration::from_millis(25)));
        // …and the request's own deadline_ms overrides it.
        req.deadline_ms = Some(3);
        assert_eq!(effective_slo(&req, &slo), Some(Duration::from_millis(3)));
        // A class without an SLO resolves to none.
        req.deadline_ms = None;
        req.class = RequestClass::Batch;
        assert_eq!(effective_slo(&req, &slo), None);
    }

    /// Parks one in-process and one TCP request on a held store build,
    /// then drops both jobs unanswered, as a worker losing its batch to an
    /// escaped panic does.
    #[test]
    fn a_job_dropped_unanswered_replies_disconnected() {
        use crate::ArchSpec;
        use concorde_core::prelude::{
            generate_dataset, train_model, ArchSampling, DatasetConfig, TrainOptions,
        };
        use std::io::{BufRead, BufReader, Write};

        let mut profile = ReproProfile::quick();
        profile.region_len = 2_048;
        profile.warmup_len = 2_048;
        profile.epochs = 1;
        let data = generate_dataset(&DatasetConfig {
            profile: profile.clone(),
            n: 8,
            seed: 5,
            arch: ArchSampling::Random,
            workloads: Some(vec![15, 20]),
            threads: 0,
        });
        let model = train_model(&data, &profile, &TrainOptions::default());
        let faults = Arc::new(FaultPlan::default().hold_build_at(vec![1], Duration::from_secs(60)));
        let service: &'static PredictionService = Box::leak(Box::new(PredictionService::start(
            model,
            profile,
            ServeConfig {
                workers: 1,
                precompute_workers: 1,
                fault_plan: Some(Arc::clone(&faults)),
                ..ServeConfig::default()
            },
        )));
        let shared = &service.shared;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || service.serve_tcp(listener));

        let client = service.client();
        let in_process = std::thread::spawn(move || {
            client.predict(PredictRequest::new(1, "S5", ArchSpec::base("n1")))
        });
        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        let mut replies = BufReader::new(conn.try_clone().unwrap());
        let line = "{\"id\":7,\"workload\":\"S5\",\"arch\":{\"base\":\"n1\"}}\n";
        conn.write_all(line.as_bytes()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(60);
        while service.metrics().parked < 2 {
            assert!(Instant::now() < deadline, "requests never parked");
            std::thread::sleep(Duration::from_millis(5));
        }
        let lost: Vec<Job> = shared
            .inflight
            .lock()
            .unwrap()
            .values_mut()
            .flat_map(|jobs| jobs.drain(..))
            .collect();
        assert_eq!(lost.len(), 2);
        drop(lost);

        assert_eq!(
            in_process.join().unwrap().unwrap_err(),
            ServeError::Disconnected
        );
        let mut reply = String::new();
        replies.read_line(&mut reply).unwrap();
        let resp: PredictResponse = serde_json::from_str(&reply).unwrap();
        assert_eq!(resp.id, 7);
        assert_eq!(
            resp.error.as_deref(),
            Some("service dropped the in-flight request")
        );

        // The connection stays in order: once the build lands, the same
        // line gets its prediction.
        faults.release_held_builds();
        conn.write_all(line.as_bytes()).unwrap();
        reply.clear();
        replies.read_line(&mut reply).unwrap();
        let resp: PredictResponse = serde_json::from_str(&reply).unwrap();
        assert!(resp.error.is_none() && resp.cpi.is_some(), "{reply}");
    }
}
