//! Dynamic (non-suite) workload registration and unified resolution.
//!
//! The 29-program suite is a closed catalog; real-program front ends (the
//! RISC-V ELF ingester in `concorde-riscv`, and anything after it) supply an
//! *open* set of workloads whose traces come from executing actual binaries.
//! This module is the seam between the two: a process-global registry of
//! [`TraceProvider`]s keyed by workload id, plus prefix-dispatched
//! *resolvers* that lazily construct a provider the first time an id like
//! `riscv:/path/to/prog.elf` is seen.
//!
//! [`resolve_workload`] is the one lookup every consumer (the serving
//! validation path, `precompute`, the CLI) goes through:
//!
//! 1. suite ids (`"S5"`) hit the cached catalog — no locks, no allocation,
//!    preserving the serving warm path's zero-allocation contract;
//! 2. already-registered dynamic ids hit the registry under a read lock;
//! 3. otherwise the longest matching registered prefix resolver runs (e.g.
//!    loading and executing an ELF), and its provider is cached so the
//!    expensive construction happens once per process.
//!
//! Determinism contract: a provider's [`TraceProvider::materialize`] must be
//! a pure function of `(trace_idx, start, len)` — same region reference,
//! byte-identical instructions — exactly like `generate_region` for suite
//! workloads.
//!
//! Memory contract: explicitly registered providers ([`register_provider`])
//! are pinned for the process lifetime, but resolver-built ones are an
//! unbounded, caller-named set (each id caches a full execution trace), so
//! they live in a FIFO cache capped at [`RESOLVED_PROVIDER_CAP`]. An
//! evicted id re-resolves transparently on next use; because resolvers are
//! deterministic, the rebuilt provider serves byte-identical regions as
//! long as its backing input (e.g. the ELF file) is unchanged.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use crate::generator::generate_region;
use crate::region::DynTrace;
use crate::workload::{by_id_ref, WorkloadSpec};

/// A source of dynamic instruction traces for one workload.
///
/// Implementations must be deterministic: `materialize` is a pure function
/// of its arguments (plus the provider's immutable construction inputs).
pub trait TraceProvider: Send + Sync {
    /// The workload's statistical descriptor. `spec().id` is the registry
    /// key; `n_traces`/`trace_len` bound region sampling exactly as they do
    /// for suite workloads.
    fn spec(&self) -> &WorkloadSpec;

    /// Materializes `len` instructions of trace `trace_idx` starting at
    /// instruction offset `start`. Regions past the end of a finite trace
    /// are truncated (possibly to empty), never an error.
    fn materialize(&self, trace_idx: u32, start: u64, len: usize) -> DynTrace;
}

/// A lazily-invoked constructor for ids carrying a given prefix.
type Resolver = Arc<dyn Fn(&str) -> Result<Arc<dyn TraceProvider>, String> + Send + Sync>;

/// Maximum resolver-built providers cached at once. Each provider holds a
/// full recorded trace (multiple MB for real binaries), and the id space is
/// caller-named (`riscv:<path>@<budget>` admits unbounded distinct ids), so
/// the cache must be bounded: past the cap the oldest resolver-built entry
/// is evicted FIFO. Explicitly registered (pinned) providers don't count
/// against the cap and are never evicted.
pub const RESOLVED_PROVIDER_CAP: usize = 16;

struct CacheEntry {
    provider: Arc<dyn TraceProvider>,
    /// Explicit registrations are pinned; resolver-built entries are not
    /// and rotate out once [`RESOLVED_PROVIDER_CAP`] is reached.
    pinned: bool,
}

/// One cold-path construction: racers on the same id block on its latch
/// (`OnceLock::get_or_init` serializes initializers) and share one result.
type BuildLatch = OnceLock<Result<Arc<dyn TraceProvider>, String>>;

struct Registry {
    providers: RwLock<HashMap<String, CacheEntry>>,
    resolvers: RwLock<Vec<(String, Resolver)>>,
    /// In-flight cold-path builds, one latch per id: two threads racing on
    /// the same unseen id build its provider once, while *different* ids
    /// build concurrently — one slow resolver (file read + up to millions
    /// of interpreted instructions) must not stall unrelated resolutions.
    building: Mutex<HashMap<String, Arc<BuildLatch>>>,
    /// Resolver-built ids in insertion order, oldest first (FIFO eviction).
    resolved_order: Mutex<VecDeque<String>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        providers: RwLock::new(HashMap::new()),
        resolvers: RwLock::new(Vec::new()),
        building: Mutex::new(HashMap::new()),
        resolved_order: Mutex::new(VecDeque::new()),
    })
}

/// A workload id resolved to its trace source: a static suite spec or a
/// registered dynamic provider.
#[derive(Clone)]
pub enum ResolvedWorkload {
    /// One of the 29 catalog programs.
    Suite(&'static WorkloadSpec),
    /// A registered dynamic workload (e.g. an executed ELF binary).
    Dynamic(Arc<dyn TraceProvider>),
}

impl ResolvedWorkload {
    /// The workload's descriptor.
    pub fn spec(&self) -> &WorkloadSpec {
        match self {
            ResolvedWorkload::Suite(s) => s,
            ResolvedWorkload::Dynamic(p) => p.spec(),
        }
    }

    /// Materializes a region (suite workloads via [`generate_region`],
    /// dynamic ones via their provider). Deterministic in both arms.
    pub fn materialize(&self, trace_idx: u32, start: u64, len: usize) -> DynTrace {
        match self {
            ResolvedWorkload::Suite(s) => generate_region(s, trace_idx, start, len),
            ResolvedWorkload::Dynamic(p) => p.materialize(trace_idx, start, len),
        }
    }
}

impl std::fmt::Debug for ResolvedWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResolvedWorkload::Suite(s) => write!(f, "ResolvedWorkload::Suite({})", s.id),
            ResolvedWorkload::Dynamic(p) => write!(f, "ResolvedWorkload::Dynamic({})", p.spec().id),
        }
    }
}

/// Registers a provider under `provider.spec().id`, replacing any previous
/// registration of the same id. Explicit registrations are *pinned*: they
/// never count against [`RESOLVED_PROVIDER_CAP`] and are never evicted.
pub fn register_provider(provider: Arc<dyn TraceProvider>) {
    let id = provider.spec().id.clone();
    let reg = registry();
    reg.providers
        .write()
        .unwrap_or_else(|e| e.into_inner())
        .insert(
            id.clone(),
            CacheEntry {
                provider,
                pinned: true,
            },
        );
    // If the id was previously resolver-built, pinning supersedes its spot
    // in the eviction queue.
    reg.resolved_order
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .retain(|i| *i != id);
}

/// Registers a lazy resolver for ids starting with `prefix` (e.g.
/// `"riscv:"`). Re-registering a prefix replaces the previous resolver.
/// The resolver runs at most once per distinct id; its provider is cached.
pub fn register_resolver(
    prefix: &str,
    f: impl Fn(&str) -> Result<Arc<dyn TraceProvider>, String> + Send + Sync + 'static,
) {
    let mut resolvers = registry()
        .resolvers
        .write()
        .unwrap_or_else(|e| e.into_inner());
    resolvers.retain(|(p, _)| p != prefix);
    resolvers.push((prefix.to_string(), Arc::new(f)));
}

/// Ids of every currently-registered dynamic workload (sorted, so catalog
/// listings are stable).
pub fn dynamic_ids() -> Vec<String> {
    let mut ids: Vec<String> = registry()
        .providers
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .keys()
        .cloned()
        .collect();
    ids.sort();
    ids
}

/// Resolves `id` against the suite catalog and *already-registered*
/// providers only — never runs a prefix resolver, so it does no I/O and
/// executes nothing. The serving admission path uses this to keep
/// client-supplied ids from triggering file reads or binary execution
/// unless the operator has opted in.
pub fn resolve_registered(id: &str) -> Option<ResolvedWorkload> {
    if let Some(spec) = by_id_ref(id) {
        return Some(ResolvedWorkload::Suite(spec));
    }
    registry()
        .providers
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .get(id)
        .map(|e| ResolvedWorkload::Dynamic(Arc::clone(&e.provider)))
}

/// Caches a freshly resolver-built provider, evicting the oldest unpinned
/// entries past [`RESOLVED_PROVIDER_CAP`]. A racer that already cached the
/// id wins (entries are never replaced here).
fn cache_resolved(reg: &Registry, id: &str, provider: &Arc<dyn TraceProvider>) {
    let mut providers = reg.providers.write().unwrap_or_else(|e| e.into_inner());
    if providers.contains_key(id) {
        return;
    }
    let mut order = reg.resolved_order.lock().unwrap_or_else(|e| e.into_inner());
    while order.len() >= RESOLVED_PROVIDER_CAP {
        let victim = order.pop_front().expect("len checked");
        // A stale queue entry for a since-pinned id just drops out of the
        // queue; only unpinned entries actually leave the cache.
        if providers.get(&victim).is_some_and(|e| !e.pinned) {
            providers.remove(&victim);
        }
    }
    order.push_back(id.to_string());
    providers.insert(
        id.to_string(),
        CacheEntry {
            provider: Arc::clone(provider),
            pinned: false,
        },
    );
}

/// Resolves a workload id: suite catalog first (lock-free, allocation-free),
/// then registered dynamic providers, then prefix resolvers (which may do
/// arbitrary work — load a file, execute a binary — once per distinct id
/// while it stays cached; see [`RESOLVED_PROVIDER_CAP`]).
///
/// # Errors
///
/// An unknown id, or a resolver failure (missing file, malformed binary),
/// returns a human-readable message suitable for a typed wire error.
/// Failures are never cached: the next attempt re-runs the resolver.
pub fn resolve_workload(id: &str) -> Result<ResolvedWorkload, String> {
    if let Some(r) = resolve_registered(id) {
        return Ok(r);
    }
    let reg = registry();
    let has_match = {
        let resolvers = reg.resolvers.read().unwrap_or_else(|e| e.into_inner());
        resolvers.iter().any(|(p, _)| id.starts_with(p.as_str()))
    };
    if !has_match {
        return Err(format!(
            "unknown workload `{id}` (not in the suite catalog and no dynamic resolver matches)"
        ));
    }
    // Cold path: take (or join) this id's build latch. `get_or_init`
    // serializes racers on the *same* id while different ids build in
    // parallel on their own latches.
    let latch = {
        let mut building = reg.building.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(building.entry(id.to_string()).or_default())
    };
    let result = latch
        .get_or_init(|| {
            // Re-check the cache under the latch: a racer may have built
            // and cached the id between our miss and latch acquisition.
            if let Some(e) = reg
                .providers
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .get(id)
            {
                return Ok(Arc::clone(&e.provider));
            }
            // Clone the resolver out and drop the guard before running it:
            // a resolver may take seconds, and a waiting `register_resolver`
            // writer would otherwise block every other id's resolution
            // behind it (std's `RwLock` stops admitting readers once a
            // writer waits).
            let f = {
                let resolvers = reg.resolvers.read().unwrap_or_else(|e| e.into_inner());
                let (_, f) = resolvers
                    .iter()
                    .filter(|(p, _)| id.starts_with(p.as_str()))
                    .max_by_key(|(p, _)| p.len())
                    .expect("match checked above");
                Arc::clone(f)
            };
            f(id)
        })
        .clone();
    // Build settled (either way): retire the latch so failed ids retry with
    // a fresh build and the map stays bounded by in-flight builds. The
    // ptr_eq guard keeps a slow loser from retiring a successor's latch.
    {
        let mut building = reg.building.lock().unwrap_or_else(|e| e.into_inner());
        if building.get(id).is_some_and(|l| Arc::ptr_eq(l, &latch)) {
            building.remove(id);
        }
    }
    let provider = result?;
    cache_resolved(reg, id, &provider);
    Ok(ResolvedWorkload::Dynamic(provider))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{BranchProfile, CodeShape, MemProfile, OpMix, WorkloadClass};
    use crate::Instruction;

    struct Fixed {
        spec: WorkloadSpec,
        instrs: Vec<Instruction>,
    }

    impl TraceProvider for Fixed {
        fn spec(&self) -> &WorkloadSpec {
            &self.spec
        }
        fn materialize(&self, _trace: u32, start: u64, len: usize) -> DynTrace {
            let s = (start as usize).min(self.instrs.len());
            let e = (s + len).min(self.instrs.len());
            DynTrace {
                workload_id: self.spec.id.clone(),
                trace_idx: 0,
                start,
                instrs: self.instrs[s..e].to_vec(),
            }
        }
    }

    fn fixed(id: &str, n: usize) -> Arc<dyn TraceProvider> {
        let instrs: Vec<Instruction> = (0..n)
            .map(|i| {
                Instruction::compute(
                    0x1000 + 4 * i as u64,
                    crate::OpClass::IntAlu,
                    [Some(1), None],
                    Some(2),
                )
            })
            .collect();
        Arc::new(Fixed {
            spec: WorkloadSpec::single_phase(
                id,
                "fixed",
                WorkloadClass::Real,
                7,
                1,
                n as u64,
                OpMix::int_heavy(),
                MemProfile::resident(4096),
                BranchProfile::predictable(),
                CodeShape::kernel(),
            ),
            instrs,
        })
    }

    #[test]
    fn suite_ids_resolve_without_registration() {
        let r = resolve_workload("S5").expect("suite id");
        assert_eq!(r.spec().id, "S5");
        assert!(matches!(r, ResolvedWorkload::Suite(_)));
        // Suite resolution matches generate_region bitwise.
        let a = r.materialize(0, 0, 512);
        let b = generate_region(by_id_ref("S5").unwrap(), 0, 0, 512);
        assert_eq!(a.instrs, b.instrs);
    }

    #[test]
    fn unknown_ids_error_with_context() {
        let e = resolve_workload("test-dyn:nope/zz").unwrap_err();
        assert!(e.contains("unknown workload"), "{e}");
    }

    #[test]
    fn registered_provider_resolves_and_truncates() {
        register_provider(fixed("test-dyn:fixed-a", 100));
        let r = resolve_workload("test-dyn:fixed-a").expect("registered");
        assert_eq!(r.spec().trace_len, 100);
        assert_eq!(r.materialize(0, 0, 64).len(), 64);
        assert_eq!(r.materialize(0, 90, 64).len(), 10, "truncated past end");
        assert_eq!(r.materialize(0, 1000, 64).len(), 0, "empty past end");
        assert!(dynamic_ids().contains(&"test-dyn:fixed-a".to_string()));
    }

    #[test]
    fn prefix_resolver_runs_once_and_caches() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        register_resolver("test-lazy:", |id| {
            CALLS.fetch_add(1, Ordering::SeqCst);
            if id.ends_with("bad") {
                return Err("deliberately unresolvable".to_string());
            }
            Ok(fixed(id, 32))
        });
        let before = CALLS.load(Ordering::SeqCst);
        let a = resolve_workload("test-lazy:x").expect("resolves");
        let b = resolve_workload("test-lazy:x").expect("cached");
        assert_eq!(a.spec().id, b.spec().id);
        assert_eq!(
            CALLS.load(Ordering::SeqCst),
            before + 1,
            "resolver must run once per id"
        );
        let e = resolve_workload("test-lazy:bad").unwrap_err();
        assert!(e.contains("unresolvable"));
        // Failures are not cached as providers; they re-resolve (and
        // re-fail) on the next attempt.
        let _ = resolve_workload("test-lazy:bad").unwrap_err();
    }

    #[test]
    fn registered_resolution_never_runs_resolvers() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        register_resolver("test-reg-only:", |id| {
            CALLS.fetch_add(1, Ordering::SeqCst);
            Ok(fixed(id, 8))
        });
        assert!(resolve_registered("S5").is_some(), "suite ids pass");
        // An unseen id with a matching resolver is NOT resolved — no I/O,
        // no execution — until resolve_workload is asked for it.
        assert!(resolve_registered("test-reg-only:x").is_none());
        assert_eq!(CALLS.load(Ordering::SeqCst), 0);
        resolve_workload("test-reg-only:x").expect("full resolve");
        assert!(
            resolve_registered("test-reg-only:x").is_some(),
            "now cached"
        );
    }

    #[test]
    fn resolved_provider_cache_is_bounded_and_pinned_entries_survive() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        register_resolver("test-evict:", |id| {
            CALLS.fetch_add(1, Ordering::SeqCst);
            Ok(fixed(id, 4))
        });
        register_provider(fixed("test-evict:pinned", 4));
        // Sweep far past the cap, as a hostile client probing distinct
        // budgets would; residency must stay bounded.
        for i in 0..(RESOLVED_PROVIDER_CAP + 8) {
            resolve_workload(&format!("test-evict:n{i}")).expect("resolves");
        }
        let resident = dynamic_ids()
            .iter()
            .filter(|i| i.starts_with("test-evict:n"))
            .count();
        assert!(
            resident <= RESOLVED_PROVIDER_CAP,
            "{resident} resolver-built providers resident, cap is {RESOLVED_PROVIDER_CAP}"
        );
        assert!(
            dynamic_ids().contains(&"test-evict:pinned".to_string()),
            "pinned registration must survive resolver churn"
        );
        // An evicted id re-resolves transparently (the resolver runs again
        // and, being deterministic, rebuilds the same provider).
        let before = CALLS.load(Ordering::SeqCst);
        let r = resolve_workload("test-evict:n0").expect("re-resolves");
        assert_eq!(r.spec().id, "test-evict:n0");
        assert_eq!(CALLS.load(Ordering::SeqCst), before + 1, "n0 was rebuilt");
    }

    #[test]
    fn a_running_resolver_does_not_block_registration() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::{Duration, Instant};
        static ENTERED: AtomicBool = AtomicBool::new(false);
        static REGISTERED: AtomicBool = AtomicBool::new(false);
        // The resolver parks until another thread's `register_resolver` has
        // returned. Were the registry lock held across the resolver call,
        // that registration could not take the write lock, and the resolver
        // would give up at its deadline — failing, not hanging, the test.
        register_resolver("test-park:", |id| {
            ENTERED.store(true, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(5);
            while !REGISTERED.load(Ordering::SeqCst) {
                if Instant::now() > deadline {
                    return Err("register_resolver blocked behind a running resolver".to_string());
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(fixed(id, 8))
        });
        let parked = std::thread::spawn(|| resolve_workload("test-park:x"));
        while !ENTERED.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        register_resolver("test-park-other:", |id| Ok(fixed(id, 8)));
        REGISTERED.store(true, Ordering::SeqCst);
        parked
            .join()
            .unwrap()
            .expect("the parked resolution completes");
    }

    #[test]
    fn distinct_ids_build_concurrently() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::{Duration, Instant};
        static ARRIVED: AtomicUsize = AtomicUsize::new(0);
        // Each build blocks until BOTH ids have entered their resolver: if
        // cold-path construction were serialized process-wide (the old
        // single build mutex), the second build could never start and the
        // first would time out — failing, not hanging, the test.
        register_resolver("test-conc:", |id| {
            ARRIVED.fetch_add(1, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(10);
            while ARRIVED.load(Ordering::SeqCst) < 2 {
                if Instant::now() > deadline {
                    return Err("builds serialized: the other id never started".to_string());
                }
                std::thread::yield_now();
            }
            Ok(fixed(id, 8))
        });
        let a = std::thread::spawn(|| resolve_workload("test-conc:a"));
        let b = std::thread::spawn(|| resolve_workload("test-conc:b"));
        a.join().unwrap().expect("id a resolves");
        b.join().unwrap().expect("id b resolves");
    }
}
