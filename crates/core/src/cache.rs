//! Sharded, byte-budgeted LRU cache of precomputed [`FeatureStore`]s for
//! serving.
//!
//! `FeatureStore::precompute` is the expensive analytic stage (trace
//! generation + per-resource models); a prediction against a cached store is
//! microseconds. The serving engine keys stores by *(workload id, region
//! coordinates, sweep-config hash)* so repeated queries against the same
//! region — the design-space-exploration access pattern the paper targets —
//! skip the analytic stage entirely.
//!
//! The cache is split into N independently locked shards (selected by the
//! [`FeatureKey`] hash), so lookups against hot regions never contend with
//! insertions landing for cold regions. Each shard admits by a **byte
//! budget** ([`FeatureStore::approx_bytes`]) rather than a store count —
//! stores vary by orders of magnitude between per-arch and quantized sweeps,
//! so a count budget either wastes memory or overcommits it — and maintains
//! recency with an intrusive doubly-linked LRU list over a slab: get, insert,
//! and evict are all O(1).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use crate::features::FeatureStore;
use crate::keystr::KeyStr;
use crate::schema::SCHEMA_VERSION;
use crate::sweep::SweepConfig;

/// Identity of one precomputed feature store.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FeatureKey {
    /// Workload id (e.g. `"S5"`).
    pub workload: KeyStr,
    /// Trace index within the workload.
    pub trace: u32,
    /// Region start offset (instructions).
    pub start: u64,
    /// Region length (instructions).
    pub region_len: u32,
    /// [`sweep_content_hash`] of the sweep the store was built for.
    pub sweep_hash: u64,
}

/// Aggregate counters across every shard of a [`ShardedStoreCache`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups that found a store.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Stores evicted to stay within the byte budget.
    pub evictions: u64,
    /// Resident stores.
    pub stores: usize,
    /// Resident bytes ([`FeatureStore::approx_bytes`] sum).
    pub bytes: usize,
}

/// Point-in-time occupancy and counters of one cache shard — the
/// `{"cmd": "stats"}` per-shard report operators size `--cache-bytes` with.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Resident stores.
    pub stores: usize,
    /// Resident bytes.
    pub bytes: usize,
    /// Lookups that found a store in this shard.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Stores this shard evicted.
    pub evictions: u64,
}

/// Sentinel index terminating the intrusive LRU list.
const NIL: usize = usize::MAX;

struct Node {
    key: FeatureKey,
    store: Arc<FeatureStore>,
    bytes: usize,
    prev: usize,
    next: usize,
}

/// One independently locked shard: hash map for identity, slab + intrusive
/// doubly-linked list for recency. Every operation is O(1); eviction pops
/// the list tail — no scan.
struct Shard {
    map: HashMap<FeatureKey, usize>,
    slab: Vec<Option<Node>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn node(&self, i: usize) -> &Node {
        self.slab[i].as_ref().expect("linked node is populated")
    }

    fn node_mut(&mut self, i: usize) -> &mut Node {
        self.slab[i].as_mut().expect("linked node is populated")
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = {
            let n = self.node(i);
            (n.prev, n.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.node_mut(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            x => self.node_mut(x).prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        let old_head = self.head;
        {
            let n = self.node_mut(i);
            n.prev = NIL;
            n.next = old_head;
        }
        match old_head {
            NIL => self.tail = i,
            h => self.node_mut(h).prev = i,
        }
        self.head = i;
    }

    fn touch(&mut self, i: usize) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    fn alloc(&mut self, node: Node) -> usize {
        match self.free.pop() {
            Some(i) => {
                self.slab[i] = Some(node);
                i
            }
            None => {
                self.slab.push(Some(node));
                self.slab.len() - 1
            }
        }
    }

    /// Removes and returns the least-recently-used entry.
    fn pop_lru(&mut self) -> Option<FeatureKey> {
        let i = self.tail;
        if i == NIL {
            return None;
        }
        self.unlink(i);
        let node = self.slab[i].take().expect("tail node is populated");
        self.free.push(i);
        self.map.remove(&node.key);
        self.bytes -= node.bytes;
        Some(node.key)
    }

    fn get(&mut self, key: &FeatureKey) -> Option<Arc<FeatureStore>> {
        match self.map.get(key).copied() {
            Some(i) => {
                self.touch(i);
                self.hits += 1;
                Some(Arc::clone(&self.node(i).store))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts `store`, then evicts LRU entries until the shard is back
    /// under `budget` — but always keeps at least one store, so a region
    /// larger than the whole budget is still cacheable.
    fn insert(
        &mut self,
        key: FeatureKey,
        store: Arc<FeatureStore>,
        budget: usize,
    ) -> Vec<FeatureKey> {
        // Mapped stores are charged at their resident-page estimate, owned
        // stores at their full footprint (see `FeatureStore::admission_bytes`).
        let bytes = store.admission_bytes();
        match self.map.get(&key).copied() {
            Some(i) => {
                self.bytes = self.bytes - self.node(i).bytes + bytes;
                let n = self.node_mut(i);
                n.store = store;
                n.bytes = bytes;
                self.touch(i);
            }
            None => {
                let i = self.alloc(Node {
                    key: key.clone(),
                    store,
                    bytes,
                    prev: NIL,
                    next: NIL,
                });
                self.push_front(i);
                self.map.insert(key, i);
                self.bytes += bytes;
            }
        }
        let mut evicted = Vec::new();
        while self.bytes > budget && self.map.len() > 1 {
            let victim = self.pop_lru().expect("len > 1 implies a tail");
            self.evictions += 1;
            evicted.push(victim);
        }
        evicted
    }
}

/// Sharded, byte-budgeted LRU cache of [`FeatureStore`]s, shared via [`Arc`]
/// so readers can keep using an evicted store.
///
/// All methods take `&self`: each shard carries its own lock, so concurrent
/// lookups against different shards never contend, and a hit on one shard is
/// never blocked by an insertion landing on another.
pub struct ShardedStoreCache {
    shards: Vec<Mutex<Shard>>,
    shard_budget: usize,
    budget: usize,
}

impl ShardedStoreCache {
    /// Creates a cache of `shards` independently locked shards (min 1)
    /// admitting `byte_budget` total bytes of stores (split evenly across
    /// shards; each shard always retains at least one store).
    pub fn new(shards: usize, byte_budget: usize) -> Self {
        let n = shards.max(1);
        let budget = byte_budget.max(1);
        ShardedStoreCache {
            shards: (0..n).map(|_| Mutex::new(Shard::new())).collect(),
            shard_budget: (budget / n).max(1),
            budget,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total byte budget across all shards.
    pub fn byte_budget(&self) -> usize {
        self.budget
    }

    /// Byte budget of each shard.
    pub fn shard_budget(&self) -> usize {
        self.shard_budget
    }

    /// Index of the shard `key` lives on.
    pub fn shard_of(&self, key: &FeatureKey) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    fn shard(&self, key: &FeatureKey) -> std::sync::MutexGuard<'_, Shard> {
        self.shards[self.shard_of(key)]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Number of cached stores.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).map.len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total resident bytes across shards.
    pub fn bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).bytes)
            .sum()
    }

    /// Looks up `key`, marking it most-recently-used within its shard.
    pub fn get(&self, key: &FeatureKey) -> Option<Arc<FeatureStore>> {
        self.shard(key).get(key)
    }

    /// Inserts a store, evicting its shard's least-recently-used entries
    /// until the shard is back under its byte budget. Returns the evicted
    /// keys in eviction (LRU-first) order.
    pub fn insert(&self, key: FeatureKey, store: Arc<FeatureStore>) -> Vec<FeatureKey> {
        let budget = self.shard_budget;
        self.shard(&key).insert(key, store, budget)
    }

    /// Drops all entries and counters.
    pub fn clear(&self) {
        for s in &self.shards {
            *s.lock().unwrap_or_else(|e| e.into_inner()) = Shard::new();
        }
    }

    /// Aggregate counters across every shard.
    pub fn stats(&self) -> CacheStats {
        let mut out = CacheStats::default();
        for s in &self.shards {
            let s = s.lock().unwrap_or_else(|e| e.into_inner());
            out.hits += s.hits;
            out.misses += s.misses;
            out.evictions += s.evictions;
            out.stores += s.map.len();
            out.bytes += s.bytes;
        }
        out
    }

    /// Per-shard occupancy and counters.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let s = s.lock().unwrap_or_else(|e| e.into_inner());
                ShardStats {
                    shard: i,
                    stores: s.map.len(),
                    bytes: s.bytes,
                    hits: s.hits,
                    misses: s.misses,
                    evictions: s.evictions,
                }
            })
            .collect()
    }

    /// Slab length of one shard (test-only): bounds amortized-O(1) eviction —
    /// a scan-free LRU reuses freed slots, so the slab never grows past the
    /// high-water resident count.
    #[cfg(test)]
    fn slab_len(&self, shard: usize) -> usize {
        self.shards[shard]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .slab
            .len()
    }
}

/// A persisted feature store plus the identity it was precomputed for — the
/// on-disk artifact `concorde precompute` writes and `concorde serve
/// --preload` boots from, so a server starts warm instead of re-running the
/// analytic stage per region.
///
/// File layout v4 (little-endian): `"CCFA"`, artifact-format version,
/// [`SCHEMA_VERSION`], the [`FeatureKey`] fields, zero padding to the next
/// 8-byte boundary, the store in [`FeatureStore::to_bytes`] layout-v3 form,
/// zero padding to the next 8-byte boundary, and finally an 8-byte FNV-1a
/// checksum of every preceding byte. The padding guarantees the store blob
/// (and therefore every arena payload inside it) is 8-byte aligned in the
/// file, which is what lets [`StoreArtifact::map`] mmap the file and point
/// the arenas straight into the mapping without copying a byte. The checksum
/// is verified once at load time ([`StoreArtifact::from_bytes`] /
/// [`StoreArtifact::map`]) — never on the per-request path — so a bit-flipped
/// file is rejected with a typed error instead of producing a wrong-shape
/// arena or silently wrong answers. Round-trips bit-exactly.
#[derive(Debug, Clone)]
pub struct StoreArtifact {
    /// Region + sweep identity of the store.
    pub key: FeatureKey,
    /// Feature-schema version the store was built under.
    pub schema_version: u32,
    /// The precomputed store.
    pub store: FeatureStore,
}

/// Magic bytes opening a [`StoreArtifact`] file.
pub const ARTIFACT_MAGIC: [u8; 4] = *b"CCFA";
/// Artifact container format version (v4: v3's aligned, mmap-able store
/// layout plus an FNV-1a integrity checksum footer).
pub const ARTIFACT_VERSION: u32 = 4;

/// FNV-1a over a byte slice — the artifact integrity checksum. Same constants
/// as [`sweep_content_hash`]; this one runs over raw file bytes.
fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Verifies the v4 checksum footer: the trailing 8 bytes must equal the
/// FNV-1a hash of everything before them.
fn verify_artifact_checksum(bytes: &[u8]) -> std::io::Result<()> {
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    if bytes.len() < 8 {
        return Err(bad(
            "artifact checksum mismatch: file truncated before the checksum footer".to_string(),
        ));
    }
    let body = &bytes[..bytes.len() - 8];
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8-byte footer"));
    let computed = fnv1a_bytes(body);
    if stored != computed {
        return Err(bad(format!(
            "artifact checksum mismatch (stored {stored:#018x}, computed {computed:#018x}): \
             the file is corrupt or was truncated — re-run `concorde precompute`"
        )));
    }
    Ok(())
}

/// Re-serializes a store and checks it parses back cleanly — the opt-in
/// `CONCORDE_VERIFY_STORES=1` integrity re-check run at cache-insert time.
/// Touches every arena byte, so it also surfaces corruption of an mmap'd
/// store whose backing file changed after load.
///
/// # Errors
///
/// `InvalidData` if the round-trip fails to parse.
pub fn verify_store(store: &FeatureStore) -> std::io::Result<()> {
    let bytes = store.to_bytes();
    FeatureStore::from_bytes(&bytes).map(|_| ())
}

/// Whether `CONCORDE_VERIFY_STORES=1` is set (checked once per process).
pub fn verify_stores_enabled() -> bool {
    use std::sync::OnceLock;
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| std::env::var("CONCORDE_VERIFY_STORES").as_deref() == Ok("1"))
}

/// Parses the artifact header, returning the key, schema version, and the
/// 8-aligned offset where the store blob begins.
fn parse_artifact_header(bytes: &[u8]) -> std::io::Result<(FeatureKey, u32, usize)> {
    use crate::features::ByteReader;
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let mut r = ByteReader::new(bytes);
    if r.bytes(4)? != ARTIFACT_MAGIC {
        return Err(bad("not a Concorde store artifact (bad magic)"));
    }
    let version = r.u32()?;
    if version != ARTIFACT_VERSION {
        return Err(bad(&format!(
            "unsupported artifact version {version} (this build reads {ARTIFACT_VERSION}); \
             re-run `concorde precompute`"
        )));
    }
    let schema_version = r.u32()?;
    if schema_version != SCHEMA_VERSION {
        return Err(bad(&format!(
            "artifact was built under feature-schema version {schema_version}; \
             this build serves version {SCHEMA_VERSION} — re-run `concorde precompute`"
        )));
    }
    let wl_len = r.u32()? as usize;
    let workload = std::str::from_utf8(r.bytes(wl_len)?)
        .map(KeyStr::new)
        .map_err(|_| bad("artifact workload id is not UTF-8"))?;
    let trace = r.u32()?;
    let start = r.u64()?;
    let region_len = r.u32()?;
    let sweep_hash = r.u64()?;
    r.align8()?;
    Ok((
        FeatureKey {
            workload,
            trace,
            start,
            region_len,
            sweep_hash,
        },
        schema_version,
        r.pos(),
    ))
}

impl StoreArtifact {
    /// Wraps a freshly precomputed store under the current schema version.
    pub fn new(key: FeatureKey, store: FeatureStore) -> Self {
        StoreArtifact {
            key,
            schema_version: SCHEMA_VERSION,
            store,
        }
    }

    /// Serializes the artifact (header + padding + store) to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let store_bytes = self.store.to_bytes();
        let mut buf = Vec::with_capacity(64 + self.key.workload.len() + store_bytes.len());
        buf.extend_from_slice(&ARTIFACT_MAGIC);
        buf.extend_from_slice(&ARTIFACT_VERSION.to_le_bytes());
        buf.extend_from_slice(&self.schema_version.to_le_bytes());
        buf.extend_from_slice(&(self.key.workload.len() as u32).to_le_bytes());
        buf.extend_from_slice(self.key.workload.as_bytes());
        buf.extend_from_slice(&self.key.trace.to_le_bytes());
        buf.extend_from_slice(&self.key.start.to_le_bytes());
        buf.extend_from_slice(&self.key.region_len.to_le_bytes());
        buf.extend_from_slice(&self.key.sweep_hash.to_le_bytes());
        // 8-align the store blob so every arena payload inside it lands on
        // the boundary `FeatureStore::parse` (and an mmap view) expects.
        crate::features::pad8(&mut buf);
        buf.extend_from_slice(&store_bytes);
        // v4 footer: pad to 8, then FNV-1a over every preceding byte. The
        // store parser reads by length prefixes and tolerates trailing
        // bytes, so the footer is invisible to it.
        crate::features::pad8(&mut buf);
        let sum = fnv1a_bytes(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        buf
    }

    /// Deserializes an artifact written by [`StoreArtifact::to_bytes`],
    /// copying the store payload into owned memory.
    ///
    /// # Errors
    ///
    /// `InvalidData` on a bad magic, an unsupported container or schema
    /// version, or a corrupt store payload.
    pub fn from_bytes(bytes: &[u8]) -> std::io::Result<StoreArtifact> {
        let (key, schema_version, store_off) = parse_artifact_header(bytes)?;
        verify_artifact_checksum(bytes)?;
        let store = FeatureStore::from_bytes(&bytes[store_off..])?;
        Ok(StoreArtifact {
            key,
            schema_version,
            store,
        })
    }

    /// Writes the artifact to `path`.
    ///
    /// # Errors
    ///
    /// Any I/O error.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Loads an artifact from `path` into owned memory (one copy of the
    /// file). Prefer [`StoreArtifact::map`] for large artifacts.
    ///
    /// # Errors
    ///
    /// Any I/O error, plus the [`StoreArtifact::from_bytes`] validations.
    pub fn load(path: &Path) -> std::io::Result<StoreArtifact> {
        Self::from_bytes(&std::fs::read(path)?)
    }

    /// Memory-maps an artifact file and backs the store's arenas by views
    /// into the mapping — **no arena bytes are copied through the heap**
    /// (the checksum check still reads every page once). The
    /// mapping is shared by the returned store and every clone of it; when
    /// the last reference drops (e.g. the serving cache evicts the store and
    /// in-flight readers finish), the region is `munmap`ed.
    ///
    /// On non-unix targets this transparently falls back to an owned read.
    ///
    /// # Errors
    ///
    /// Any I/O / mmap error, plus the [`StoreArtifact::from_bytes`]
    /// validations.
    pub fn map(path: &Path) -> std::io::Result<StoreArtifact> {
        let region = crate::arena::MappedStore::open(path)?;
        let (key, schema_version, store_off) = parse_artifact_header(region.bytes())?;
        verify_artifact_checksum(region.bytes())?;
        let store = FeatureStore::parse(&region, store_off)?;
        Ok(StoreArtifact {
            key,
            schema_version,
            store,
        })
    }
}

/// FNV-1a over the sweep's grids and memory configurations; used to key
/// cached stores by the sweep they were precomputed for.
pub fn sweep_content_hash(sweep: &SweepConfig) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    for grid in [
        &sweep.rob,
        &sweep.lq,
        &sweep.sq,
        &sweep.alu,
        &sweep.fp,
        &sweep.ls,
        &sweep.fills,
        &sweep.buffers,
    ] {
        eat(grid.len() as u64);
        for &v in grid.iter() {
            eat(u64::from(v));
        }
    }
    eat(sweep.pipes.len() as u64);
    for &(a, b) in &sweep.pipes {
        eat(u64::from(a));
        eat(u64::from(b));
    }
    eat(sweep.d_cfgs.len() as u64);
    for cfg in &sweep.d_cfgs {
        let (a, b, c) = cfg.data_key();
        eat(u64::from(a));
        eat(u64::from(b));
        eat(u64::from(c));
        let (d, e) = cfg.inst_key();
        eat(u64::from(d));
        eat(u64::from(e));
    }
    eat(sweep.i_cfgs.len() as u64);
    for cfg in &sweep.i_cfgs {
        let (d, e) = cfg.inst_key();
        eat(u64::from(d));
        eat(u64::from(e));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::ReproProfile;
    use concorde_cyclesim::MicroArch;
    use concorde_trace::{by_id, generate_region};

    fn key(id: &str, start: u64) -> FeatureKey {
        FeatureKey {
            workload: KeyStr::new(id),
            trace: 0,
            start,
            region_len: 2048,
            sweep_hash: 7,
        }
    }

    fn tiny_store() -> Arc<FeatureStore> {
        let profile = ReproProfile::quick();
        let arch = MicroArch::arm_n1();
        let full = generate_region(&by_id("S5").unwrap(), 0, 0, 2048).instrs;
        let (w, r) = full.split_at(1024);
        Arc::new(FeatureStore::precompute(
            w,
            r,
            &SweepConfig::for_arch(&arch),
            &profile,
        ))
    }

    /// A one-shard cache whose budget fits exactly `n` copies of `store`.
    fn cache_of(n: usize, store: &Arc<FeatureStore>) -> ShardedStoreCache {
        ShardedStoreCache::new(1, n * store.approx_bytes() + store.approx_bytes() / 2)
    }

    #[test]
    fn hit_miss_accounting_and_reuse() {
        let store = tiny_store();
        let cache = cache_of(4, &store);
        assert!(cache.get(&key("S5", 0)).is_none());
        cache.insert(key("S5", 0), Arc::clone(&store));
        let again = cache.get(&key("S5", 0)).expect("must hit");
        assert!(Arc::ptr_eq(&again, &store));
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.stores, 1);
        assert_eq!(stats.bytes, store.approx_bytes());
        assert_eq!(cache.bytes(), store.approx_bytes());
    }

    #[test]
    fn byte_budget_evicts_the_coldest() {
        let store = tiny_store();
        let cache = cache_of(2, &store);
        assert!(cache.insert(key("S5", 0), Arc::clone(&store)).is_empty());
        assert!(cache.insert(key("S5", 1), Arc::clone(&store)).is_empty());
        // Touch entry 0 so entry 1 becomes the LRU victim.
        assert!(cache.get(&key("S5", 0)).is_some());
        let evicted = cache.insert(key("S5", 2), Arc::clone(&store));
        assert_eq!(evicted, vec![key("S5", 1)]);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key("S5", 0)).is_some());
        assert!(cache.get(&key("S5", 1)).is_none());
        assert!(cache.get(&key("S5", 2)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn eviction_follows_exact_lru_order() {
        // Regression for the old O(len) `iter().min_by_key` eviction scan:
        // the intrusive list must reproduce exact tick order, including after
        // interleaved touches, with no scan helper left to fall back on.
        let store = tiny_store();
        let cache = cache_of(3, &store);
        for start in 0..3 {
            cache.insert(key("S5", start), Arc::clone(&store));
        }
        // Recency now (MRU→LRU): 2, 1, 0. Touch 0 → 0, 2, 1.
        assert!(cache.get(&key("S5", 0)).is_some());
        let evicted = cache.insert(key("S5", 3), Arc::clone(&store));
        assert_eq!(evicted, vec![key("S5", 1)]);
        let evicted = cache.insert(key("S5", 4), Arc::clone(&store));
        assert_eq!(evicted, vec![key("S5", 2)]);
        // Re-inserting a resident key must refresh, not duplicate or evict.
        assert!(cache.insert(key("S5", 0), Arc::clone(&store)).is_empty());
        assert_eq!(cache.len(), 3);
        let evicted = cache.insert(key("S5", 5), Arc::clone(&store));
        assert_eq!(evicted, vec![key("S5", 3)]);
    }

    #[test]
    fn eviction_reuses_slots_without_slab_growth() {
        // Amortized-O(1) eviction: freed slots are recycled, so churning many
        // keys through a 2-store budget keeps the slab at the high-water
        // resident count instead of growing per insert (as a scan-based or
        // tombstoning implementation would).
        let store = tiny_store();
        let cache = cache_of(2, &store);
        for start in 0..100 {
            cache.insert(key("S5", start), Arc::clone(&store));
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 98);
        assert!(
            cache.slab_len(0) <= 3,
            "slab grew to {} slots for 2 resident stores",
            cache.slab_len(0)
        );
    }

    #[test]
    fn oversized_store_is_still_cached_alone() {
        // A store larger than the entire shard budget must still be
        // admitted (and evict everything else), not bounce forever.
        let store = tiny_store();
        let cache = ShardedStoreCache::new(1, 16);
        cache.insert(key("S5", 0), Arc::clone(&store));
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key("S5", 0)).is_some());
        let evicted = cache.insert(key("S5", 1), Arc::clone(&store));
        assert_eq!(evicted, vec![key("S5", 0)]);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn shards_partition_keys_consistently() {
        let store = tiny_store();
        let cache = ShardedStoreCache::new(4, 64 * store.approx_bytes());
        assert_eq!(cache.shard_count(), 4);
        for start in 0..32 {
            let k = key("S5", start);
            assert_eq!(cache.shard_of(&k), cache.shard_of(&k.clone()));
            cache.insert(k, Arc::clone(&store));
        }
        assert_eq!(cache.len(), 32);
        let per_shard = cache.shard_stats();
        assert_eq!(per_shard.iter().map(|s| s.stores).sum::<usize>(), 32);
        assert_eq!(
            per_shard.iter().map(|s| s.bytes).sum::<usize>(),
            cache.bytes()
        );
        // Every key must be found on its own shard.
        for start in 0..32 {
            assert!(cache.get(&key("S5", start)).is_some());
        }
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn sweep_hash_distinguishes_configs() {
        let a = SweepConfig::for_arch(&MicroArch::arm_n1());
        let b = SweepConfig::for_arch(&MicroArch::big_core());
        assert_eq!(sweep_content_hash(&a), sweep_content_hash(&a));
        assert_ne!(sweep_content_hash(&a), sweep_content_hash(&b));
    }

    fn tiny_artifact_bytes() -> Vec<u8> {
        let store = tiny_store();
        StoreArtifact::new(key("S5", 0), (*store).clone()).to_bytes()
    }

    #[test]
    fn artifact_v4_roundtrips_and_is_checksummed() {
        let bytes = tiny_artifact_bytes();
        // 8-aligned end-to-end: footer included.
        assert_eq!(bytes.len() % 8, 0);
        let loaded = StoreArtifact::from_bytes(&bytes).expect("clean load");
        assert_eq!(loaded.key, key("S5", 0));
        assert_eq!(loaded.store.to_bytes(), tiny_store().to_bytes());
    }

    #[test]
    fn artifact_payload_corruption_is_a_typed_checksum_error() {
        let mut bytes = tiny_artifact_bytes();
        // Flip a bit deep in the store payload — past every header field.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let err = StoreArtifact::from_bytes(&bytes).expect_err("must reject");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("checksum mismatch"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn artifact_truncation_is_rejected() {
        let bytes = tiny_artifact_bytes();
        for keep in [0, 3, 16, bytes.len() - 1] {
            let err = StoreArtifact::from_bytes(&bytes[..keep]).expect_err("must reject");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "keep={keep}");
        }
    }

    #[test]
    fn old_artifact_version_gets_the_version_error_not_a_checksum_one() {
        let mut bytes = tiny_artifact_bytes();
        // Rewrite the version field to v3: the reader must say "unsupported
        // version", not confuse the user with a checksum complaint.
        bytes[4..8].copy_from_slice(&3u32.to_le_bytes());
        let err = StoreArtifact::from_bytes(&bytes).expect_err("must reject");
        assert!(
            err.to_string().contains("unsupported artifact version 3"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn verify_store_roundtrip_is_clean() {
        let store = tiny_store();
        verify_store(&store).expect("a freshly built store must verify");
    }
}
