//! The serving engine's one metrics registry, its one snapshot, and the
//! dependency-free Prometheus primitives the snapshot renders through.
//!
//! **One record per fact.** [`Metrics`] holds the counters and histograms
//! the engine bumps while it serves. A fact another record already implies
//! is derived when the registry is read, never counted a second time:
//! `completed` is the sum of the per-class latency counts, `batches` and
//! `avg_batch` are the count and mean of the batch-size histogram,
//! `precomputes` is the store-build count, and `queue_depth` is the
//! engine's own queue length.
//!
//! **One snapshot.** [`snapshot`] reads the registry and the engine's live
//! state once: one per-shard cache sample (the totals are summed from it),
//! one `pre_queue` → `inflight` lock pair, and each histogram once.
//! `{"cmd":"metrics"}`, `{"cmd":"stats"}`, `GET /metrics` and
//! `{"cmd":"metrics","format":"prometheus"}` all render from that
//! [`Snapshot`], so no two views can report different worlds.
//!
//! **Hit counts differ by design.** The JSON `cache_hits`/`cache_misses`
//! count *batch groups*: a group that starts a build is one miss, and its
//! re-run on the landed store is not a hit. The per-shard
//! `concorde_cache_{hits,misses}_total` series count *store lookups*,
//! including `park_group`'s re-probe and that post-build re-run. One cold
//! request therefore reads 0 hits / 1 miss in JSON and 1 hit / 2 misses in
//! Prometheus.
//!
//! **Prometheus primitives.** Like every external-facing layer of this
//! workspace they are hand-rolled (no `prometheus` crate), but the output
//! is strict [text exposition format 0.0.4]: each metric family is
//! `# HELP`/`# TYPE`d exactly once, histograms render cumulative
//! `_bucket{le="..."}` series ending in `le="+Inf"` plus `_sum`/`_count`,
//! and label values are escaped. `tests/serving_metrics.rs` scrapes a live
//! server, re-validates those invariants with a strict parser, and pins
//! every family's type and label names.
//!
//! [text exposition format 0.0.4]:
//!     https://prometheus.io/docs/instrumenting/exposition_formats/
//!
//! The recording side is designed for the serving hot path: one atomic
//! increment per bucket observation (bucket search is a handful of `f64`
//! compares over a fixed array), a CAS loop only for the `f64` sum, and no
//! locks anywhere — scrapes read the same atomics without stopping writers.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use concorde_core::arena::ArenaEncoding;
use concorde_core::cache::{CacheStats, ShardStats};
use concorde_core::schema::SCHEMA_VERSION;
use serde::{Deserialize, Serialize};

use crate::protocol::{RequestClass, N_CLASSES};
use crate::service::Shared;

/// The engine's metrics registry: each fact the engine records, recorded
/// once (see the module docs for what is derived instead).
#[derive(Debug)]
pub(crate) struct Metrics {
    pub(crate) submitted: AtomicU64,
    pub(crate) errored: AtomicU64,
    pub(crate) rejected: AtomicU64,
    /// Batch groups found in the cache (see [`MetricsSnapshot::cache_hits`]).
    pub(crate) cache_hits: AtomicU64,
    /// Batch groups that started a build.
    pub(crate) cache_misses: AtomicU64,
    pub(crate) coalesced: AtomicU64,
    /// Requests rejected for pinning a `schema_version` the server does not
    /// speak.
    pub(crate) schema_mismatches: AtomicU64,
    /// Panics caught anywhere in worker/pool job execution (each one
    /// answered its jobs with typed `reason: "internal"` errors instead of
    /// taking the thread down or stranding waiters).
    pub(crate) worker_panics: AtomicU64,
    /// Worker/pool loops restarted by the supervisor after a panic escaped
    /// the per-job guards.
    pub(crate) worker_restarts: AtomicU64,
    pub(crate) busy_rejected: AtomicU64,
    pub(crate) conn_active: AtomicUsize,
    pub(crate) max_queue_depth: AtomicUsize,
    /// End-to-end latency (enqueue → response, seconds), by request class;
    /// its counts are the `completed` total.
    latency: [Histogram; N_CLASSES],
    /// Enqueue → batch-collection wait (seconds), by request class. First
    /// pass only: a re-enqueued parked job is not re-observed (its park time
    /// shows up in end-to-end latency, not queue wait).
    pub(crate) queue_wait: [Histogram; N_CLASSES],
    /// Requests per executed batch; its count is `batches`.
    pub(crate) batch_size: Histogram,
    /// Feature-store build latency (seconds); its count is `precomputes`.
    store_build: Histogram,
    /// Observed per-build latency EWMA (µs, α = 1/4); 0 until the first
    /// build completes.
    build_ewma_us: AtomicU64,
}

/// Latency/queue-wait bucket layout: 10µs → ~84s in ×2 steps, constant
/// relative resolution across the hit-path-µs to cold-build-s span.
fn latency_histogram() -> Histogram {
    Histogram::log_buckets(1e-5, 2.0, 23)
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            submitted: AtomicU64::new(0),
            errored: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            schema_mismatches: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            worker_restarts: AtomicU64::new(0),
            busy_rejected: AtomicU64::new(0),
            conn_active: AtomicUsize::new(0),
            max_queue_depth: AtomicUsize::new(0),
            latency: std::array::from_fn(|_| latency_histogram()),
            queue_wait: std::array::from_fn(|_| latency_histogram()),
            // 1, 2, 4, … 256 requests — brackets `max_batch` defaults.
            batch_size: Histogram::log_buckets(1.0, 2.0, 9),
            // 1ms → ~32s: cold feature-store builds are milliseconds-to-
            // seconds scale.
            store_build: Histogram::log_buckets(1e-3, 2.0, 16),
            build_ewma_us: AtomicU64::new(0),
        }
    }
}

impl Metrics {
    /// Records one answered request's enqueue → response latency.
    pub(crate) fn observe_latency(&self, class: RequestClass, us: u64) {
        self.latency[class.index()].observe(us as f64 / 1e6);
    }

    /// Records one completed store build: its latency histogram and the
    /// EWMA (α = 1/4; the first build seeds it, floored at 1µs so a measured
    /// build never reads as "nothing observed yet").
    pub(crate) fn record_build(&self, took: Duration) {
        self.store_build.observe(took.as_secs_f64());
        let us = (took.as_micros() as u64).max(1);
        let prev = self.build_ewma_us.load(Ordering::Relaxed);
        let next = if prev == 0 { us } else { (prev * 3 + us) / 4 };
        self.build_ewma_us.store(next.max(1), Ordering::Relaxed);
    }
}

/// Engine counters and gauges (the `{"cmd": "metrics"}` reply).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Responses delivered (success or error).
    pub completed: u64,
    /// Error responses among `completed`.
    pub errored: u64,
    /// Submissions rejected for a full queue.
    pub rejected: u64,
    /// Batches executed.
    pub batches: u64,
    /// Mean requests per batch.
    pub avg_batch: f64,
    /// Batch groups whose feature store was cached. A group of jobs
    /// re-run on the store their own miss built does not count; the
    /// Prometheus `concorde_cache_hits_total` counts store lookups instead
    /// (see the [module docs](self)).
    pub cache_hits: u64,
    /// Batch groups that triggered a new precompute.
    pub cache_misses: u64,
    /// `hits / (hits + misses)`.
    pub cache_hit_rate: f64,
    /// Requests that joined an already in-flight precompute for their key
    /// instead of triggering their own (single-flight deduplication).
    #[serde(default)]
    pub coalesced: u64,
    /// Feature-store builds executed.
    #[serde(default)]
    pub precomputes: u64,
    /// Requests rejected with the typed `schema_mismatch` error for pinning
    /// a `schema_version` the server does not speak.
    #[serde(default)]
    pub schema_mismatches: u64,
    /// Panics caught during worker/pool job execution; each answered its
    /// jobs with typed `reason: "internal"` errors instead of poisoning a
    /// lock or stranding waiters.
    #[serde(default)]
    pub worker_panics: u64,
    /// Worker/pool loops restarted by the panic supervisor.
    #[serde(default)]
    pub worker_restarts: u64,
    /// Requests currently parked awaiting an in-flight precompute (gauge).
    /// Read under the same locks as [`MetricsSnapshot::miss_backlog`], so one
    /// snapshot's pair is mutually consistent.
    #[serde(default)]
    pub parked: usize,
    /// Builds waiting in the precompute-pool queue, not yet picked up by a
    /// pool worker (gauge; consistent with [`MetricsSnapshot::parked`]).
    #[serde(default)]
    pub miss_backlog: usize,
    /// Observed per-build latency EWMA in microseconds (0 until the first
    /// build completes).
    #[serde(default)]
    pub build_ewma_us: u64,
    /// Precomputes currently in flight (gauge).
    #[serde(default)]
    pub inflight_builds: usize,
    /// Stores evicted from the cache to stay within the byte budget.
    #[serde(default)]
    pub cache_evictions: u64,
    /// Resident cache bytes.
    #[serde(default)]
    pub cache_bytes: usize,
    /// Resident cached stores.
    #[serde(default)]
    pub cache_stores: usize,
    /// TCP connections turned away with a `busy` error.
    #[serde(default)]
    pub busy_rejected: u64,
    /// Currently open TCP connections (gauge).
    #[serde(default)]
    pub active_connections: usize,
    /// Current queue depth.
    pub queue_depth: usize,
    /// High-water queue depth.
    pub max_queue_depth: usize,
    /// Mean enqueue→response latency (µs).
    pub avg_latency_us: f64,
    /// Worst enqueue→response latency (µs).
    pub max_latency_us: u64,
}

/// The `{"cmd": "stats"}` reply: metrics plus the cache occupancy report
/// operators size `--cache-bytes` and `--cache-shards` with.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Engine counters.
    pub metrics: MetricsSnapshot,
    /// Cache budget + per-shard occupancy.
    pub cache: CacheReport,
    /// Worker threads serving batches.
    pub workers: usize,
    /// Dedicated precompute-pool threads.
    pub precompute_workers: usize,
    /// Concurrent TCP connection cap.
    pub max_connections: usize,
    /// Arena encoding of stores built on the miss path (`--encoding`).
    #[serde(default)]
    pub store_encoding: Option<ArenaEncoding>,
    /// Active MLP microkernel (`scalar` / `avx2_fma` / `neon`).
    #[serde(default)]
    pub kernel: Option<String>,
}

/// Cache shape + occupancy section of [`ServiceStats`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CacheReport {
    /// Configured byte budget across all shards.
    pub budget_bytes: usize,
    /// Shard count.
    pub shard_count: usize,
    /// Aggregate counters: the sum of `per_shard`, from the same sample.
    pub totals: CacheStats,
    /// Per-shard occupancy and counters.
    pub per_shard: Vec<ShardStats>,
}

/// Everything the engine reports, read once by [`snapshot`]: the JSON
/// stats plus what only the Prometheus document shows.
pub(crate) struct Snapshot {
    /// The `{"cmd": "stats"}` reply; its `metrics` is the
    /// `{"cmd": "metrics"}` reply.
    pub(crate) stats: ServiceStats,
    latency: [HistogramSnapshot; N_CLASSES],
    queue_wait: [HistogramSnapshot; N_CLASSES],
    batch_size: HistogramSnapshot,
    store_build: HistogramSnapshot,
    draining: bool,
}

/// Reads the registry and the engine's live state once (see the module
/// docs).
pub(crate) fn snapshot(shared: &Shared) -> Snapshot {
    let m = &shared.metrics;
    let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
    let per_shard = shared.cache.shard_stats();
    let mut totals = CacheStats::default();
    for s in &per_shard {
        totals.hits += s.hits;
        totals.misses += s.misses;
        totals.evictions += s.evictions;
        totals.stores += s.stores;
        totals.bytes += s.bytes;
    }
    // Pool-queue depth and parked-request count are read under the same
    // two locks (pre_queue → inflight, the pool's own order), so one
    // snapshot cannot report a parked request whose build the same
    // snapshot says is neither queued nor in flight.
    let (miss_backlog, parked) = {
        let pq = shared.pre_queue.lock().unwrap_or_else(|e| e.into_inner());
        let inflight = shared.inflight.lock().unwrap_or_else(|e| e.into_inner());
        (pq.len(), inflight.values().map(Vec::len).sum())
    };
    let latency = m.latency.each_ref().map(Histogram::snapshot);
    let mut all_latency = latency[0].clone();
    for h in &latency[1..] {
        all_latency.merge(h);
    }
    let batch_size = m.batch_size.snapshot();
    let store_build = m.store_build.snapshot();
    let (hits, misses) = (load(&m.cache_hits), load(&m.cache_misses));
    let metrics = MetricsSnapshot {
        submitted: load(&m.submitted),
        completed: all_latency.count,
        errored: load(&m.errored),
        rejected: load(&m.rejected),
        batches: batch_size.count,
        // The sum of integer-valued observations is exact, so this equals
        // the requests-over-batches integer ratio bit for bit.
        avg_batch: batch_size.mean(),
        cache_hits: hits,
        cache_misses: misses,
        cache_hit_rate: if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
        coalesced: load(&m.coalesced),
        precomputes: store_build.count,
        schema_mismatches: load(&m.schema_mismatches),
        worker_panics: load(&m.worker_panics),
        worker_restarts: load(&m.worker_restarts),
        parked,
        miss_backlog,
        build_ewma_us: load(&m.build_ewma_us),
        inflight_builds: shared.inflight_builds.load(Ordering::Relaxed),
        cache_evictions: totals.evictions,
        cache_bytes: totals.bytes,
        cache_stores: totals.stores,
        busy_rejected: load(&m.busy_rejected),
        active_connections: m.conn_active.load(Ordering::Relaxed),
        queue_depth: shared.queue_len.load(Ordering::Relaxed),
        max_queue_depth: m.max_queue_depth.load(Ordering::Relaxed),
        // Observations are whole-µs durations recorded in seconds, so
        // ×1e6 + round recovers them exactly (f64 is exact for integers up
        // to 2^53).
        avg_latency_us: all_latency.mean() * 1e6,
        max_latency_us: (all_latency.max * 1e6).round() as u64,
    };
    let cfg = &shared.cfg;
    Snapshot {
        stats: ServiceStats {
            metrics,
            cache: CacheReport {
                budget_bytes: shared.cache.byte_budget(),
                shard_count: shared.cache.shard_count(),
                totals,
                per_shard,
            },
            workers: cfg.effective_workers(),
            precompute_workers: cfg.effective_precompute_workers(),
            max_connections: cfg.max_connections.max(1),
            store_encoding: Some(cfg.store_encoding),
            kernel: Some(concorde_ml::kernel_name().to_string()),
        },
        latency,
        queue_wait: m.queue_wait.each_ref().map(Histogram::snapshot),
        batch_size,
        store_build,
        draining: shared.draining.load(Ordering::SeqCst),
    }
}

/// One series per request class, labelled `class`, valued by `value` of the
/// class index.
fn by_class<T>(value: impl Fn(usize) -> T) -> Vec<(Vec<(&'static str, String)>, T)> {
    RequestClass::ALL
        .iter()
        .map(|c| (vec![("class", c.name().to_string())], value(c.index())))
        .collect()
}

/// Renders a snapshot as one Prometheus text-exposition document: the
/// `GET /metrics` body and the `{"cmd":"metrics","format":"prometheus"}`
/// reply.
pub(crate) fn prometheus_text(s: &Snapshot) -> String {
    use Kind::{Counter, Gauge};
    let m = &s.stats.metrics;
    let mut w = PromWriter::new();
    w.family(
        "concorde_build_info",
        Gauge,
        "Constant 1; labels carry the served feature-schema version, arena encoding, and active MLP kernel.",
        &[(
            vec![
                ("schema_version", SCHEMA_VERSION.to_string()),
                (
                    "encoding",
                    s.stats
                        .store_encoding
                        .map(|e| format!("{e:?}").to_lowercase())
                        .unwrap_or_default(),
                ),
                ("kernel", s.stats.kernel.clone().unwrap_or_default()),
            ],
            1.0,
        )],
    );
    // One row per single-series family: (name, type, value, HELP).
    #[rustfmt::skip]
    let scalars = [
        ("concorde_requests_submitted_total", Counter, m.submitted as f64,
            "Requests accepted into the queue."),
        ("concorde_requests_rejected_total", Counter, m.rejected as f64,
            "Submissions rejected for a full queue."),
        ("concorde_errors_total", Counter, m.errored as f64,
            "Error responses among the completed ones."),
        ("concorde_schema_mismatch_total", Counter, m.schema_mismatches as f64,
            "Requests rejected for pinning a schema_version the server does not \
             speak."),
        ("concorde_coalesced_total", Counter, m.coalesced as f64,
            "Requests that joined an already in-flight precompute for their key."),
        ("concorde_precomputes_total", Counter, m.precomputes as f64,
            "Feature-store builds executed."),
        ("concorde_batches_total", Counter, m.batches as f64,
            "Micro-batches executed."),
        ("concorde_busy_rejected_total", Counter, m.busy_rejected as f64,
            "TCP connections turned away with a busy error."),
        ("concorde_worker_panics_total", Counter, m.worker_panics as f64,
            "Panics caught by worker/pool unwind guards; affected jobs were answered \
             with typed internal errors."),
        ("concorde_worker_restarts_total", Counter, m.worker_restarts as f64,
            "Worker/pool loop restarts by the panic supervisor."),
        ("concorde_draining", Gauge, if s.draining { 1.0 } else { 0.0 },
            "1 while the server is draining (stopped accepting, flushing in-flight \
             work), else 0."),
        ("concorde_queue_depth", Gauge, m.queue_depth as f64,
            "Current request-queue depth."),
        ("concorde_queue_depth_max", Gauge, m.max_queue_depth as f64,
            "High-water request-queue depth."),
        ("concorde_parked_requests", Gauge, m.parked as f64,
            "Requests parked awaiting an in-flight precompute."),
        ("concorde_miss_backlog", Gauge, m.miss_backlog as f64,
            "Builds waiting in the precompute-pool queue."),
        ("concorde_inflight_builds", Gauge, m.inflight_builds as f64,
            "Precomputes currently queued or running."),
        ("concorde_active_connections", Gauge, m.active_connections as f64,
            "Currently open TCP connections."),
        ("concorde_build_ewma_seconds", Gauge, m.build_ewma_us as f64 / 1e6,
            "Observed per-build latency EWMA (alpha 1/4; 0 until the first build \
             completes)."),
    ];
    for (name, kind, value, help) in scalars {
        w.family(name, kind, help, &[(Vec::new(), value)]);
    }
    w.family(
        "concorde_responses_total",
        Counter,
        "Responses delivered (success or error), by request class.",
        &by_class(|c| s.latency[c].count as f64),
    );
    type Value = fn(&ShardStats) -> f64;
    #[rustfmt::skip]
    let per_shard: [(&str, Kind, Value, &str); 5] = [
        ("concorde_cache_hits_total", Counter, |s| s.hits as f64,
            "Feature-store cache lookups that found a store, by shard. Every lookup counts, \
             a parked group's re-run after its build included; the JSON cache_hits counts \
             batch groups instead."),
        ("concorde_cache_misses_total", Counter, |s| s.misses as f64,
            "Feature-store cache lookups that found no store, by shard. Every lookup counts, \
             a missed group's re-probe before parking included; the JSON cache_misses counts \
             batch groups instead."),
        ("concorde_cache_evictions_total", Counter, |s| s.evictions as f64,
            "Stores evicted to stay within the byte budget, by shard."),
        ("concorde_cache_bytes", Gauge, |s| s.bytes as f64,
            "Resident cache bytes, by shard."),
        ("concorde_cache_stores", Gauge, |s| s.stores as f64,
            "Resident cached stores, by shard."),
    ];
    for (name, kind, value, help) in per_shard {
        let series: Vec<_> = s
            .stats
            .cache
            .per_shard
            .iter()
            .map(|sh| (vec![("shard", sh.shard.to_string())], value(sh)))
            .collect();
        w.family(name, kind, help, &series);
    }
    w.histogram(
        "concorde_request_latency_seconds",
        "End-to-end latency, enqueue to response, by request class.",
        &by_class(|c| &s.latency[c]),
    );
    w.histogram(
        "concorde_queue_wait_seconds",
        "Enqueue to batch-collection wait (first pass), by request class.",
        &by_class(|c| &s.queue_wait[c]),
    );
    w.histogram(
        "concorde_batch_size",
        "Requests per executed micro-batch.",
        &[(Vec::new(), &s.batch_size)],
    );
    w.histogram(
        "concorde_store_build_seconds",
        "Feature-store build latency.",
        &[(Vec::new(), &s.store_build)],
    );
    w.finish()
}

/// A fixed-bucket histogram recording non-negative `f64` observations.
///
/// Buckets are defined by their inclusive upper bounds (`le`); one implicit
/// overflow bucket (`+Inf`) catches everything beyond the last bound. The
/// sum is a CAS-maintained `f64` and the maximum is kept exactly (the
/// non-negative IEEE-754 bit pattern is order-preserving, so `fetch_max` on
/// the bits is `fetch_max` on the values) — which lets the legacy
/// `max_latency_us` stat derive from the histogram instead of drifting
/// beside it.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// One counter per bound plus the overflow (`+Inf`) bucket; NOT
    /// cumulative — the render step accumulates.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// IEEE-754 bits of the running sum (CAS-updated).
    sum_bits: AtomicU64,
    /// IEEE-754 bits of the largest observation.
    max_bits: AtomicU64,
}

impl Histogram {
    /// Histogram over explicit upper bounds (must be finite, positive, and
    /// strictly increasing; the `+Inf` bucket is implicit).
    pub fn new(bounds: Vec<f64>) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        for w in bounds.windows(2) {
            assert!(w[0] < w[1], "histogram bounds must strictly increase");
        }
        assert!(
            bounds.iter().all(|b| b.is_finite() && *b > 0.0),
            "histogram bounds must be finite and positive"
        );
        let buckets = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
            max_bits: AtomicU64::new(0),
        }
    }

    /// `n` log-spaced buckets: `start, start·factor, start·factor², …`.
    ///
    /// The fixed-log-bucket shape keeps relative (not absolute) resolution
    /// constant across decades — right for latencies that span microseconds
    /// to seconds.
    pub fn log_buckets(start: f64, factor: f64, n: usize) -> Histogram {
        assert!(start > 0.0 && factor > 1.0 && n > 0);
        let mut bounds = Vec::with_capacity(n);
        let mut b = start;
        for _ in 0..n {
            bounds.push(b);
            b *= factor;
        }
        Histogram::new(bounds)
    }

    /// Records one observation.
    ///
    /// Invariant: observations must be non-negative and finite. Durations
    /// and sizes satisfy this by construction; it matters here because the
    /// running maximum is a bit-pattern `fetch_max` — IEEE-754 ordering
    /// matches integer ordering only for non-negative finite values, so a
    /// negative or NaN observation would silently wedge the max (every
    /// negative value's sign bit makes it compare *greater* as an integer).
    /// Debug builds assert; release builds saturate the bad value to zero,
    /// which keeps count/sum/max coherent instead of corrupting the max.
    pub fn observe(&self, v: f64) {
        debug_assert!(
            v.is_finite() && v >= 0.0,
            "Histogram::observe requires non-negative finite values, got {v}"
        );
        let v = if v.is_finite() && v > 0.0 { v } else { 0.0 };
        let idx = self
            .bounds
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        self.max_bits.fetch_max(v.to_bits(), Ordering::Relaxed);
    }

    /// Point-in-time copy for rendering and for deriving legacy stats.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            max: f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
        }
    }
}

/// One consistent-enough read of a [`Histogram`]'s atomics.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (`le` values, excluding `+Inf`).
    pub bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) counts; last entry is the overflow.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
}

impl HistogramSnapshot {
    /// Mean observation, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Merges another snapshot of an identically-bucketed histogram (used to
    /// aggregate per-class histograms into the legacy global stats).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        debug_assert_eq!(self.bounds, other.bounds);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// Escapes a label value per the exposition format (`\`, `"`, newline).
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders a label set (`{a="x",b="y"}`), empty string for no labels.
fn render_labels(labels: &[(&str, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", inner.join(","))
}

/// The type of a one-value-per-series family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotonic count.
    Counter,
    /// A level that can go up and down.
    Gauge,
}

/// Builds one Prometheus text-exposition document.
///
/// Families must be emitted in one shot (`family`/`histogram` take every
/// labelled series of the family at once), which makes the "each metric is
/// `# TYPE`d exactly once" invariant structural rather than a caller
/// discipline.
#[derive(Debug, Default)]
pub struct PromWriter {
    out: String,
}

impl PromWriter {
    /// Empty document.
    pub fn new() -> PromWriter {
        PromWriter::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// A counter or gauge family: every `(labels, value)` series at once.
    pub fn family(
        &mut self,
        name: &str,
        kind: Kind,
        help: &str,
        series: &[(Vec<(&str, String)>, f64)],
    ) {
        let kind = match kind {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        };
        self.header(name, help, kind);
        for (labels, v) in series {
            let _ = writeln!(self.out, "{name}{} {}", render_labels(labels), fmt_f64(*v));
        }
    }

    /// A histogram family: cumulative `_bucket` series (ending `+Inf`),
    /// `_sum`, and `_count` per label set.
    pub fn histogram(
        &mut self,
        name: &str,
        help: &str,
        series: &[(Vec<(&str, String)>, &HistogramSnapshot)],
    ) {
        self.header(name, help, "histogram");
        for (labels, snap) in series {
            let mut cumulative = 0u64;
            for (bound, n) in snap.bounds.iter().zip(&snap.buckets) {
                cumulative += n;
                let mut with_le: Vec<(&str, String)> = labels.clone();
                with_le.push(("le", fmt_f64(*bound)));
                let _ = writeln!(
                    self.out,
                    "{name}_bucket{} {cumulative}",
                    render_labels(&with_le)
                );
            }
            cumulative += snap.buckets.last().copied().unwrap_or(0);
            let mut with_le: Vec<(&str, String)> = labels.clone();
            with_le.push(("le", "+Inf".to_string()));
            let _ = writeln!(
                self.out,
                "{name}_bucket{} {cumulative}",
                render_labels(&with_le)
            );
            let ls = render_labels(labels);
            let _ = writeln!(self.out, "{name}_sum{ls} {}", fmt_f64(snap.sum));
            let _ = writeln!(self.out, "{name}_count{ls} {}", snap.count);
        }
    }

    /// The finished document.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Formats an `f64` so it survives a strict-parser round trip: Rust's
/// shortest-roundtrip `Display`, which Prometheus parses for both plain
/// decimals and exponent notation (the writer's inputs are finite by
/// construction). Integer-valued counts print without a fraction (`3`).
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_buckets_cover_decades() {
        let h = Histogram::log_buckets(1e-5, 2.0, 20);
        assert_eq!(h.bounds.len(), 20);
        assert!(h.bounds[0] == 1e-5);
        assert!(h.bounds[19] > 5.0, "last bound {}", h.bounds[19]);
    }

    #[test]
    fn observe_counts_sum_and_max() {
        let h = Histogram::new(vec![1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 3.0, 100.0] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![1, 1, 1, 1]);
        assert_eq!(s.count, 4);
        assert!((s.sum - 105.0).abs() < 1e-9);
        assert_eq!(s.max, 100.0);
        // Boundary: a value exactly on a bound lands in that bucket (le is
        // inclusive).
        h.observe(2.0);
        assert_eq!(h.snapshot().buckets[1], 2);
    }

    /// Release builds saturate invariant-violating observations to zero
    /// (see `observe`: a raw negative/NaN bit pattern would wedge the
    /// `fetch_max`-based maximum). Debug builds assert instead — covered by
    /// `invalid_observations_assert_in_debug` below.
    #[test]
    #[cfg(not(debug_assertions))]
    fn negative_and_nonfinite_observations_clamp() {
        let h = Histogram::new(vec![1.0]);
        h.observe(-5.0);
        h.observe(f64::NAN);
        h.observe(f64::NEG_INFINITY);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.buckets[0], 3);
        assert_eq!(s.sum, 0.0);
        assert_eq!(s.max, 0.0, "max must not absorb a bad bit pattern");
        // A later valid observation still orders correctly.
        h.observe(0.5);
        assert_eq!(h.snapshot().max, 0.5);
    }

    /// Debug builds surface the non-negative-finite invariant loudly so the
    /// offending call site is found in development, not masked forever by
    /// the release-mode clamp.
    #[test]
    #[cfg(debug_assertions)]
    fn invalid_observations_assert_in_debug() {
        for bad in [-5.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let r = std::panic::catch_unwind(|| {
                let h = Histogram::new(vec![1.0]);
                h.observe(bad);
            });
            assert!(r.is_err(), "observe({bad}) must debug_assert");
        }
        // Zero is valid: the boundary of the invariant, not a violation.
        let h = Histogram::new(vec![1.0]);
        h.observe(0.0);
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn render_histogram_is_cumulative_with_inf() {
        let h = Histogram::new(vec![1.0, 2.0]);
        h.observe(0.5);
        h.observe(1.5);
        h.observe(9.0);
        let mut w = PromWriter::new();
        w.histogram(
            "x_seconds",
            "test",
            &[(vec![("class", "interactive".to_string())], &h.snapshot())],
        );
        let text = w.finish();
        assert!(text.contains("# TYPE x_seconds histogram"));
        assert!(text.contains("x_seconds_bucket{class=\"interactive\",le=\"1\"} 1"));
        assert!(text.contains("x_seconds_bucket{class=\"interactive\",le=\"2\"} 2"));
        assert!(text.contains("x_seconds_bucket{class=\"interactive\",le=\"+Inf\"} 3"));
        assert!(text.contains("x_seconds_count{class=\"interactive\"} 3"));
        assert!(text.contains("x_seconds_sum{class=\"interactive\"} 11"));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut w = PromWriter::new();
        w.family(
            "c_total",
            Kind::Counter,
            "test",
            &[(vec![("k", "a\"b\\c\nd".to_string())], 1.0)],
        );
        let text = w.finish();
        assert!(text.contains(r#"c_total{k="a\"b\\c\nd"} 1"#));
    }

    #[test]
    fn merge_aggregates_identical_shapes() {
        let a = Histogram::new(vec![1.0, 2.0]);
        let b = Histogram::new(vec![1.0, 2.0]);
        a.observe(0.5);
        b.observe(1.5);
        b.observe(50.0);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count, 3);
        assert_eq!(s.buckets, vec![1, 1, 1]);
        assert_eq!(s.max, 50.0);
    }
}
