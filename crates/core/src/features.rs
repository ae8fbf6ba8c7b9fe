//! Performance-distribution features: precomputation, storage, and assembly.
//!
//! This is Concorde's central data structure. A [`FeatureStore`] holds, for
//! one program region, the encoded per-resource throughput distributions for
//! every parameter value in a [`SweepConfig`] (paper §3.2.1), the auxiliary
//! pipeline-stall and latency-distribution features (§3.2.2), and enough raw
//! series for the no-ML minimum-bound baseline and Figure 1.
//!
//! Storage is a set of flat arenas — one contiguous `f32` buffer for encoded
//! distributions and one `f64` buffer for raw window series per table —
//! indexed by *grid position*: every sweep value is known up front, so a
//! lookup is a nearest-grid-index search over a tiny array plus a computed
//! offset, never a hash. [`FeatureStore::features_into`] assembles the ML
//! input vector into a caller-owned buffer with zero heap allocations, and
//! the predictor's batch path reads each distinct store entry once per
//! input segment instead (`FeatureStore::plan_entries`), which is what
//! makes design-space sweeps and Shapley attribution cheap (§5.2.3).
//! [`FeatureStore::precompute`] parallelizes internally across memory
//! configurations and sweep points, and stores round-trip through a compact
//! binary artifact format ([`FeatureStore::to_bytes`]) so servers can boot
//! from prebuilt stores. The vector layout itself is owned by
//! [`FeatureSchema`](crate::schema::FeatureSchema).

use std::borrow::Cow;
use std::collections::HashSet;
use std::sync::Arc;

use concorde_analytic::prelude::*;
use concorde_branch::PredictorKind;
use concorde_cache::MemConfig;
use concorde_cyclesim::MicroArch;
use concorde_trace::{BranchKind, Instruction};
use serde::{Deserialize, Serialize};

use crate::arena::{Buf, EncArena, MappedStore, RawArena};
use crate::parallel::{parallel_map, parallel_map_with};
use crate::schema::FeatureSchema;
use crate::sweep::{ReproProfile, SweepConfig};

/// Which feature groups feed the ML model (the Figure 12 ablation axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FeatureVariant {
    /// Per-resource throughput distributions + misprediction rate + parameters.
    Base,
    /// `Base` plus the pipeline-stall features (§3.2.2).
    BaseBranch,
    /// `BaseBranch` plus the latency distributions (§3.2.2) — full Concorde.
    Full,
}

/// The 11 per-resource primary distributions, in feature order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Resource {
    Rob,
    LoadQueue,
    StoreQueue,
    AluWidth,
    FpWidth,
    LsWidth,
    PipesLower,
    PipesUpper,
    IcacheFills,
    FetchBuffers,
    MemLatency,
}

impl Resource {
    /// All primary resources in feature order.
    pub const ALL: [Resource; 11] = [
        Resource::Rob,
        Resource::LoadQueue,
        Resource::StoreQueue,
        Resource::AluWidth,
        Resource::FpWidth,
        Resource::LsWidth,
        Resource::PipesLower,
        Resource::PipesUpper,
        Resource::IcacheFills,
        Resource::FetchBuffers,
        Resource::MemLatency,
    ];

    /// Stable schema block name for this resource.
    pub const fn name(self) -> &'static str {
        match self {
            Resource::Rob => "rob",
            Resource::LoadQueue => "load_queue",
            Resource::StoreQueue => "store_queue",
            Resource::AluWidth => "alu_width",
            Resource::FpWidth => "fp_width",
            Resource::LsWidth => "ls_width",
            Resource::PipesLower => "pipes_lower",
            Resource::PipesUpper => "pipes_upper",
            Resource::IcacheFills => "icache_fills",
            Resource::FetchBuffers => "fetch_buffers",
            Resource::MemLatency => "mem_latency",
        }
    }
}

/// Feature-vector layout for a variant and encoding width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatureLayout {
    /// Distribution encoding.
    pub encoding: Encoding,
    /// Feature groups included.
    pub variant: FeatureVariant,
}

impl FeatureLayout {
    /// Total input dimension (paper Table 3 computes 3873 for the paper
    /// encoding and the `Full` variant). Delegates to the schema — the single
    /// source of truth for the layout.
    pub fn dim(&self) -> usize {
        FeatureSchema::dim_for(self.encoding, self.variant)
    }

    /// The full block-level schema for this layout.
    pub fn schema(&self) -> FeatureSchema {
        FeatureSchema::new(self.encoding, self.variant)
    }

    /// The vector cut into the segments the predictor's first layer
    /// projects one at a time, in column order: the 11 primary blocks, the
    /// misprediction scalar, the store-constant ISB + branch group and the
    /// per-memory-configuration group (per variant), and the parameter
    /// tail. A pure function of the layout; allocates nothing.
    pub(crate) fn segments(&self) -> Segments {
        let e = self.encoding.dim();
        let s = ROB_SWEEP.len();
        let mut out = Segments {
            items: [InputSegment {
                source: SegmentSource::Stall,
                start: 0,
                len: 0,
            }; MAX_SEGMENTS],
            len: 0,
        };
        let mut start = 0;
        let mut push = |source: SegmentSource, len: usize| {
            out.items[out.len] = InputSegment { source, start, len };
            out.len += 1;
            start += len;
        };
        for res in Resource::ALL {
            push(SegmentSource::Primary(res), e);
        }
        push(SegmentSource::Mispredict, 1);
        if self.variant != FeatureVariant::Base {
            push(SegmentSource::Stall, 4 * e);
            let latency = self.variant == FeatureVariant::Full;
            let len = if latency { s + (2 * s + 1) * e } else { s };
            push(SegmentSource::Memory { latency }, len);
        }
        push(SegmentSource::Params, MicroArch::ENCODED_DIM);
        debug_assert_eq!(start, self.dim());
        out
    }
}

/// Where one input segment's values come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SegmentSource {
    /// A resource's primary distribution: one arena entry per architecture.
    Primary(Resource),
    /// The ISB + three branch distributions: one entry for the whole store.
    Stall,
    /// The ROB curve, then (`latency`) the exec/issue/commit latency
    /// distributions: one entry per memory configuration.
    Memory { latency: bool },
    /// The misprediction scalar, computed per architecture.
    Mispredict,
    /// The parameter tail, encoded per architecture.
    Params,
}

/// One contiguous column range of the input vector and its source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct InputSegment {
    pub(crate) source: SegmentSource,
    pub(crate) start: usize,
    pub(crate) len: usize,
}

impl InputSegment {
    /// The segment's columns.
    pub(crate) fn cols(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.len
    }
}

/// Most segments any variant has (`Full`: 11 + 4).
pub(crate) const MAX_SEGMENTS: usize = Resource::ALL.len() + 4;

/// [`FeatureLayout::segments`]: a fixed-capacity list.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Segments {
    items: [InputSegment; MAX_SEGMENTS],
    len: usize,
}

impl std::ops::Deref for Segments {
    type Target = [InputSegment];
    fn deref(&self) -> &[InputSegment] {
        &self.items[..self.len]
    }
}

type DKey = (u32, u32, u32);
type IKey = (u32, u32);

/// Precomputed performance distributions for one region, stored as flat
/// grid-indexed lossless arenas (see the module docs). Arenas may be owned or
/// backed by a shared [`MappedStore`] region (zero-copy artifact loading).
#[derive(Debug, Clone)]
pub struct FeatureStore {
    k: usize,
    encoding: Encoding,
    n_instr: usize,
    /// Length of every raw per-window series (identical across tables: all
    /// series are windowed over the same region with the same `k`).
    n_windows: usize,
    // Sweep grids. `rob_grid` is sorted (sweep ∪ ROB_SWEEP); the others keep
    // their sweep order, which fixes nearest-lookup tie-breaking.
    rob_grid: Vec<u32>,
    lq_grid: Vec<u32>,
    sq_grid: Vec<u32>,
    alu_grid: Vec<u32>,
    fp_grid: Vec<u32>,
    ls_grid: Vec<u32>,
    pipes_grid: Vec<(u32, u32)>,
    fills_grid: Vec<u32>,
    buffers_grid: Vec<u32>,
    d_keys: Vec<DKey>,
    i_keys: Vec<IKey>,
    // Arenas. `*_enc` strides by `encoding.dim()`, `*_raw` by `n_windows`.
    // Two-axis tables index as `outer * inner_grid_len + inner`.
    rob_enc: EncArena,
    rob_raw: RawArena,
    lq_enc: EncArena,
    lq_raw: RawArena,
    sq_enc: EncArena,
    sq_raw: RawArena,
    mem_enc: EncArena,
    mem_raw: RawArena,
    alu_enc: EncArena,
    alu_raw: RawArena,
    fp_enc: EncArena,
    fp_raw: RawArena,
    ls_enc: EncArena,
    ls_raw: RawArena,
    pipes_lo_enc: EncArena,
    pipes_lo_raw: RawArena,
    pipes_hi_enc: EncArena,
    pipes_hi_raw: RawArena,
    fills_enc: EncArena,
    fills_raw: RawArena,
    buffers_enc: EncArena,
    buffers_raw: RawArena,
    rob_curve: EncArena,  // entries n_d, stride ROB_SWEEP.len()
    exec_lat: EncArena,   // entries n_d, stride e
    issue_lat: EncArena,  // entries n_d × ROB_SWEEP.len(), stride e
    commit_lat: EncArena, // entries n_d × ROB_SWEEP.len(), stride e
    load_exec_est: Vec<u64>,
    isb_dist: EncArena,          // 1 entry, stride e
    branch_dists: [EncArena; 3], // 1 entry each, stride e
    branch_info_branches: u64,
    branch_info_cond: u64,
    branch_info_tage: u64,
    branch_info_indirect: u64,
}

/// Index of the grid value nearest `v` under the ratio distance (fixed
/// point), robust for size-like parameters. Ties resolve to the first
/// minimal grid entry — the same element the value-keyed `min_by_key`
/// selection always picked.
fn nearest_idx(grid: &[u32], v: u32) -> usize {
    grid.iter()
        .enumerate()
        .min_by_key(|&(_, &g)| {
            let (a, b) = (g.max(1) as u64, v.max(1) as u64);
            let (hi, lo) = if a > b { (a, b) } else { (b, a) };
            (hi * 1024 / lo, hi)
        })
        .expect("grid must be non-empty")
        .0
}

fn nearest_pair_idx(grid: &[(u32, u32)], v: (u32, u32)) -> usize {
    grid.iter()
        .enumerate()
        .min_by_key(|&(_, &(a, b))| {
            let d1 = (i64::from(a) - i64::from(v.0)).abs();
            let d2 = (i64::from(b) - i64::from(v.1)).abs();
            (d1 + d2, a, b)
        })
        .expect("pipes grid must be non-empty")
        .0
}

fn nearest_dkey_idx(keys: &[DKey], v: DKey) -> usize {
    keys.iter()
        .enumerate()
        .min_by_key(|&(_, &(a, b, c))| {
            (
                (i64::from(a) - i64::from(v.0)).abs(),
                (i64::from(b) - i64::from(v.1)).abs(),
                (i64::from(c) - i64::from(v.2)).abs(),
            )
        })
        .expect("d_cfgs must be non-empty")
        .0
}

fn nearest_ikey_idx(keys: &[IKey], v: IKey) -> usize {
    keys.iter()
        .enumerate()
        .min_by_key(|&(_, &(a, b))| {
            (
                (i64::from(a) - i64::from(v.0)).abs(),
                (i64::from(b) - i64::from(v.1)).abs(),
            )
        })
        .expect("i_cfgs must be non-empty")
        .0
}

/// Staged result of one analytic run: encoded + raw series.
struct Thr {
    enc: Vec<f32>,
    raw: Vec<f64>,
}

/// Output of one precompute task (see the task list in `precompute_threaded`).
enum TaskOut {
    Thr(Thr),
    Mem {
        thr: Thr,
        est: u64,
    },
    Pipes {
        lo: Thr,
        hi: Thr,
    },
    Rob {
        thr: Thr,
        curve: Option<f32>,
        issue: Option<Vec<f32>>,
        commit: Option<Vec<f32>>,
        exec: Option<Vec<f32>>,
    },
}

impl TaskOut {
    fn thr(self) -> Thr {
        match self {
            TaskOut::Thr(t) => t,
            _ => unreachable!("task section mismatch"),
        }
    }
}

/// One planned assembly row: the original batch position plus the lookup
/// indices `FeatureStore::plan_assembly` resolved for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AssemblySlot {
    /// Row index in the caller's architecture slice / output buffer.
    row: u32,
    /// Data-side memory-configuration index (`d_idx`).
    di: u32,
    /// Instruction-side memory-configuration index (`i_idx`).
    ii: u32,
    /// Nearest ROB-grid index — the dominant arena-address component and the
    /// plan's primary intra-`di` sort key.
    rob_idx: u32,
}

/// Reusable buffer holding a batched-assembly plan (see
/// [`FeatureStore::features_into_many`]). Warm reuse allocates nothing.
#[derive(Debug, Default)]
pub struct AssemblyScratch {
    slots: Vec<AssemblySlot>,
}

/// FxHash-style hasher for a [`Memo`]'s small integer keys, which SipHash
/// would spend most of a lookup on. Colliding keys only share a memo slot
/// (a recomputed lookup), so crafted keys cost nothing more.
#[derive(Default)]
struct FieldHasher(u64);

impl std::hash::Hasher for FieldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Slots in a [`Memo`].
const MEMO_SLOTS: usize = 64;

/// One batch's nearest-grid results, so a lookup runs once per distinct
/// value: a direct-mapped table whose slots are live only under the current
/// batch's stamp (a value whose slot another value took is looked up again —
/// the same answer, just recomputed).
#[derive(Debug)]
struct Memo<K> {
    slots: Vec<(K, u32, u32)>,
    stamp: u32,
}

impl<K> Default for Memo<K> {
    fn default() -> Self {
        Memo {
            slots: Vec::new(),
            stamp: 0,
        }
    }
}

impl<K: Copy + Default + Eq + std::hash::Hash> Memo<K> {
    /// Starts a batch: every slot goes dead.
    fn begin(&mut self) {
        if self.slots.is_empty() {
            self.slots.resize(MEMO_SLOTS, (K::default(), 0, 0));
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            for slot in &mut self.slots {
                slot.2 = 0;
            }
            self.stamp = 1;
        }
    }

    fn get(&mut self, key: K, lookup: impl FnOnce() -> usize) -> usize {
        let mut h = FieldHasher::default();
        key.hash(&mut h);
        let slot = &mut self.slots[(std::hash::Hasher::finish(&h) >> 58) as usize];
        if slot.2 == self.stamp && slot.0 == key {
            return slot.1 as usize;
        }
        let idx = lookup();
        *slot = (key, idx as u32, self.stamp);
        idx
    }
}

/// One batch's store entries per input segment, resolved by
/// [`FeatureStore::plan_entries`] for the factored predictor. Warm reuse
/// allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct EntryPlan {
    /// Distinct entry ids, segment after segment, each segment's in
    /// first-appearance order.
    pub(crate) entries: Vec<u32>,
    /// Segment `j` owns `entries[starts[j]..starts[j + 1]]` (an empty range
    /// for per-architecture segments).
    pub(crate) starts: Vec<usize>,
    /// `local[u * n_segments + j]`: architecture `u`'s entry within segment
    /// `j`'s distinct list — or `u` itself for a per-architecture segment.
    pub(crate) local: Vec<u32>,
    /// Per architecture: (`d_idx`, `i_idx`).
    mem: Vec<(usize, usize)>,
    d_memo: Memo<DKey>,
    i_memo: Memo<IKey>,
    axis_memo: [Memo<u64>; Resource::ALL.len()],
    /// Entry-id → distinct-slot table over every store segment's entries;
    /// a slot is live in this batch only when its stamp equals `stamp`.
    stamps: Vec<u32>,
    slots: Vec<u32>,
    stamp: u32,
}

impl FeatureStore {
    /// Precomputes the store for `instrs` (after `warmup`) over `sweep`,
    /// using all available cores.
    ///
    /// Cost scales with `|d_cfgs| × (|rob ∪ ROB_SWEEP| + |lq| + |sq|)` ROB-model
    /// runs plus cheap width/pipe/frontend analyses (paper §5.2.3's cost
    /// breakdown: the ROB invocations dominate). The arch-independent part of
    /// those runs — the dependency graph and the dense load-line ids — is
    /// built once per region by `analyze_static`; each run only walks it.
    pub fn precompute(
        warmup: &[Instruction],
        instrs: &[Instruction],
        sweep: &SweepConfig,
        profile: &ReproProfile,
    ) -> FeatureStore {
        Self::precompute_threaded(warmup, instrs, sweep, profile, 0)
    }

    /// [`FeatureStore::precompute`] with an explicit thread count (`0` = all
    /// available). Callers that already parallelize across regions (dataset
    /// generation, experiment harnesses) pass `1`; the serving path passes
    /// `0` so a single cold region uses every core. The result is bitwise
    /// identical for any thread count.
    pub fn precompute_threaded(
        warmup: &[Instruction],
        instrs: &[Instruction],
        sweep: &SweepConfig,
        profile: &ReproProfile,
        threads: usize,
    ) -> FeatureStore {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            threads
        };
        let k = profile.window_k;
        let enc = profile.encoding;
        let e = enc.dim();

        // Deduplicate memory configurations up front (first occurrence wins,
        // preserving sweep order — the lookup tie-break order).
        let mut d_keys: Vec<DKey> = Vec::new();
        let mut d_cfgs: Vec<MemConfig> = Vec::new();
        let mut seen_d: HashSet<DKey> = HashSet::new();
        for cfg in &sweep.d_cfgs {
            if seen_d.insert(cfg.data_key()) {
                d_keys.push(cfg.data_key());
                d_cfgs.push(*cfg);
            }
        }
        let mut i_keys: Vec<IKey> = Vec::new();
        let mut i_cfgs: Vec<MemConfig> = Vec::new();
        let mut seen_i: HashSet<IKey> = HashSet::new();
        for cfg in &sweep.i_cfgs {
            if seen_i.insert(cfg.inst_key()) {
                i_keys.push(cfg.inst_key());
                i_cfgs.push(*cfg);
            }
        }

        let rob_grid: Vec<u32> = {
            let mut g: Vec<u32> = sweep.rob.iter().copied().chain(ROB_SWEEP).collect();
            g.sort_unstable();
            g.dedup();
            g
        };
        let rob_last = *ROB_SWEEP.last().expect("ROB_SWEEP is non-empty");

        // Stage 1: the trace analyses every model run below depends on. With
        // one configuration per side (every per-arch store) they are four
        // serial passes, so a helper thread takes the arch-independent pair
        // while this thread runs the two cache simulations one after the
        // other — one `Hierarchy` alive at a time. Multi-configuration
        // sweeps spread the per-configuration analyses across cores instead.
        let arch_independent = || (analyze_static(instrs), analyze_branches(warmup, instrs));
        let ((info, binfo), datas, insts) =
            if threads >= 2 && d_cfgs.len() == 1 && i_cfgs.len() == 1 {
                std::thread::scope(|s| {
                    let helper = s.spawn(arch_independent);
                    let data = analyze_data(warmup, instrs, d_cfgs[0]);
                    let inst = analyze_inst(warmup, instrs, i_cfgs[0]);
                    let statics = helper
                        .join()
                        .unwrap_or_else(|p| std::panic::resume_unwind(p));
                    (statics, vec![data], vec![inst])
                })
            } else {
                let statics = arch_independent();
                let datas = parallel_map(d_cfgs.len(), threads, |di| {
                    analyze_data(warmup, instrs, d_cfgs[di])
                });
                let insts = parallel_map(i_cfgs.len(), threads, |ii| {
                    analyze_inst(warmup, instrs, i_cfgs[ii])
                });
                (statics, datas, insts)
            };
        let n = info.len();

        // Arch-independent: ISB and branch-kind window-count distributions.
        let isb_dist = enc.encode_u32(&window_counts(n, k, |i| info.is_isb[i]));
        let branch_dists = [
            enc.encode_u32(&window_counts(n, k, |i| {
                info.branch_kinds[i] == Some(BranchKind::DirectUncond)
            })),
            enc.encode_u32(&window_counts(n, k, |i| {
                info.branch_kinds[i] == Some(BranchKind::DirectCond)
            })),
            enc.encode_u32(&window_counts(n, k, |i| {
                info.branch_kinds[i] == Some(BranchKind::Indirect)
            })),
        ];

        // Stage 2: one flat task list over every (configuration, sweep
        // point), so even a single-d_cfg store (a serve cache miss) spreads
        // its dominant ROB-model runs across cores.
        #[derive(Clone, Copy)]
        enum Task {
            Mem(usize),
            Rob(usize, usize),
            Lq(usize, usize),
            Sq(usize, usize),
            Width(usize, usize),
            Pipes(usize),
            Fill(usize, usize),
            Buffer(usize, usize),
        }
        let (n_d, n_i) = (d_cfgs.len(), i_cfgs.len());
        let (n_rob, n_lq, n_sq) = (rob_grid.len(), sweep.lq.len(), sweep.sq.len());
        let width_grids: [&[u32]; 3] = [&sweep.alu, &sweep.fp, &sweep.ls];
        let width_classes = [IssueClass::Alu, IssueClass::Fp, IssueClass::LoadStore];
        let mut tasks: Vec<Task> = Vec::new();
        let mem0 = tasks.len();
        tasks.extend((0..n_d).map(Task::Mem));
        let rob0 = tasks.len();
        tasks.extend((0..n_d).flat_map(|d| (0..n_rob).map(move |r| Task::Rob(d, r))));
        let lq0 = tasks.len();
        tasks.extend((0..n_d).flat_map(|d| (0..n_lq).map(move |q| Task::Lq(d, q))));
        let sq0 = tasks.len();
        tasks.extend((0..n_d).flat_map(|d| (0..n_sq).map(move |q| Task::Sq(d, q))));
        let width0 = tasks.len();
        tasks.extend(
            (0..3usize).flat_map(|c| (0..width_grids[c].len()).map(move |w| Task::Width(c, w))),
        );
        let pipes0 = tasks.len();
        tasks.extend((0..sweep.pipes.len()).map(Task::Pipes));
        let fill0 = tasks.len();
        tasks.extend((0..n_i).flat_map(|i| (0..sweep.fills.len()).map(move |v| Task::Fill(i, v))));
        let buf0 = tasks.len();
        tasks.extend(
            (0..n_i).flat_map(|i| (0..sweep.buffers.len()).map(move |v| Task::Buffer(i, v))),
        );

        let run = |rob_scratch: &mut RobScratch, t: usize| -> TaskOut {
            match tasks[t] {
                Task::Mem(d) => {
                    // 11th primary feature: per-window mean estimated load
                    // latency — Table 3's resource count is 11 but the paper
                    // does not name all of them; this memory-latency
                    // distribution carries the same information the
                    // L1d/L2/prefetch parameters act on (README, "The
                    // feature pipeline": the `mem_latency` block).
                    let data = &datas[d];
                    let mut raw = Vec::new();
                    let mut start = 0;
                    while start < n {
                        let end = (start + k).min(n);
                        if end - start < k && !raw.is_empty() {
                            break;
                        }
                        let (mut sum, mut cnt) = (0u64, 0u64);
                        for i in start..end {
                            if info.ops[i].is_load() {
                                sum += u64::from(data.exec_latency[i]);
                                cnt += 1;
                            }
                        }
                        raw.push(if cnt == 0 {
                            0.0
                        } else {
                            sum as f64 / cnt as f64
                        });
                        start = end;
                    }
                    let est = (0..n)
                        .filter(|&i| info.ops[i].is_load())
                        .map(|i| u64::from(data.exec_latency[i]))
                        .sum();
                    TaskOut::Mem {
                        thr: Thr {
                            enc: enc.encode(&raw),
                            raw,
                        },
                        est,
                    }
                }
                Task::Rob(d, ri) => {
                    let rv = rob_grid[ri];
                    let r = rob_model_with(rob_scratch, &info, &datas[d], rv);
                    let raw = throughput_from_marks(&r.commit_cycles, k);
                    let in_sweep = ROB_SWEEP.contains(&rv);
                    TaskOut::Rob {
                        thr: Thr {
                            enc: enc.encode(&raw),
                            raw,
                        },
                        curve: in_sweep.then(|| r.overall_throughput() as f32),
                        issue: in_sweep.then(|| enc.encode_u32(&r.issue_latency)),
                        commit: in_sweep.then(|| enc.encode_u32(&r.commit_latency)),
                        exec: (rv == rob_last).then(|| enc.encode_u32(&r.exec_latency)),
                    }
                }
                Task::Lq(d, qi) => {
                    let marks = queue_model(&info, &datas[d], sweep.lq[qi], QueueKind::Load);
                    let raw = throughput_from_marks(&marks, k);
                    TaskOut::Thr(Thr {
                        enc: enc.encode(&raw),
                        raw,
                    })
                }
                Task::Sq(d, qi) => {
                    let marks = queue_model(&info, &datas[d], sweep.sq[qi], QueueKind::Store);
                    let raw = throughput_from_marks(&marks, k);
                    TaskOut::Thr(Thr {
                        enc: enc.encode(&raw),
                        raw,
                    })
                }
                Task::Width(c, wi) => {
                    let raw = issue_width_bound(&info, width_classes[c], width_grids[c][wi], k);
                    TaskOut::Thr(Thr {
                        enc: enc.encode(&raw),
                        raw,
                    })
                }
                Task::Pipes(p) => {
                    let (lsp, lp) = sweep.pipes[p];
                    let b = pipe_bounds(&info, lsp, lp, k);
                    TaskOut::Pipes {
                        lo: Thr {
                            enc: enc.encode(&b.lower),
                            raw: b.lower,
                        },
                        hi: Thr {
                            enc: enc.encode(&b.upper),
                            raw: b.upper,
                        },
                    }
                }
                Task::Fill(i, vi) => {
                    let marks = icache_fills_model(&info, &insts[i], sweep.fills[vi]);
                    let raw = throughput_from_marks(&marks, k);
                    TaskOut::Thr(Thr {
                        enc: enc.encode(&raw),
                        raw,
                    })
                }
                Task::Buffer(i, vi) => {
                    let marks = fetch_buffers_model(&info, &insts[i], sweep.buffers[vi]);
                    let raw = throughput_from_marks(&marks, k);
                    TaskOut::Thr(Thr {
                        enc: enc.encode(&raw),
                        raw,
                    })
                }
            }
        };
        let mut outs: Vec<Option<TaskOut>> =
            parallel_map_with(tasks.len(), threads, RobScratch::default, run)
                .into_iter()
                .map(Some)
                .collect();
        let mut take = |idx: usize| outs[idx].take().expect("each task consumed once");

        // Deterministic serial fill of the arenas, in grid order, into plain
        // vectors; the arenas are built from them at the end.
        let s_len = ROB_SWEEP.len();
        let mut n_windows = 0usize;
        let mut rob_enc_v = Vec::with_capacity(n_d * n_rob * e);
        let mut rob_raw_v = Vec::new();
        let mut lq_enc_v = Vec::with_capacity(n_d * n_lq * e);
        let mut lq_raw_v = Vec::new();
        let mut sq_enc_v = Vec::with_capacity(n_d * n_sq * e);
        let mut sq_raw_v = Vec::new();
        let mut mem_enc_v = Vec::with_capacity(n_d * e);
        let mut mem_raw_v = Vec::new();
        let mut alu_enc_v = Vec::new();
        let mut alu_raw_v = Vec::new();
        let mut fp_enc_v = Vec::new();
        let mut fp_raw_v = Vec::new();
        let mut ls_enc_v = Vec::new();
        let mut ls_raw_v = Vec::new();
        let mut pipes_lo_enc_v = Vec::new();
        let mut pipes_lo_raw_v = Vec::new();
        let mut pipes_hi_enc_v = Vec::new();
        let mut pipes_hi_raw_v = Vec::new();
        let mut fills_enc_v = Vec::new();
        let mut fills_raw_v = Vec::new();
        let mut buffers_enc_v = Vec::new();
        let mut buffers_raw_v = Vec::new();
        let mut rob_curve_v = vec![0.0f32; n_d * s_len];
        let mut exec_lat_v = vec![0.0f32; n_d * e];
        let mut issue_lat_v = vec![0.0f32; n_d * s_len * e];
        let mut commit_lat_v = vec![0.0f32; n_d * s_len * e];
        let mut load_exec_est = Vec::with_capacity(n_d);

        let push = |enc_arena: &mut Vec<f32>, raw_arena: &mut Vec<f64>, t: Thr| {
            enc_arena.extend_from_slice(&t.enc);
            raw_arena.extend_from_slice(&t.raw);
            t.raw.len()
        };
        for d in 0..n_d {
            match take(mem0 + d) {
                TaskOut::Mem { thr, est } => {
                    n_windows = push(&mut mem_enc_v, &mut mem_raw_v, thr);
                    load_exec_est.push(est);
                }
                _ => unreachable!("task section mismatch"),
            }
        }
        for d in 0..n_d {
            for (ri, &rv) in rob_grid.iter().enumerate() {
                match take(rob0 + d * n_rob + ri) {
                    TaskOut::Rob {
                        thr,
                        curve,
                        issue,
                        commit,
                        exec,
                    } => {
                        push(&mut rob_enc_v, &mut rob_raw_v, thr);
                        if let Some(j) = ROB_SWEEP.iter().position(|&s| s == rv) {
                            rob_curve_v[d * s_len + j] = curve.expect("curve for sweep point");
                            let at = (d * s_len + j) * e;
                            issue_lat_v[at..at + e]
                                .copy_from_slice(&issue.expect("issue for sweep point"));
                            commit_lat_v[at..at + e]
                                .copy_from_slice(&commit.expect("commit for sweep point"));
                        }
                        if let Some(x) = exec {
                            exec_lat_v[d * e..(d + 1) * e].copy_from_slice(&x);
                        }
                    }
                    _ => unreachable!("task section mismatch"),
                }
            }
            for qi in 0..n_lq {
                let t = take(lq0 + d * n_lq + qi).thr();
                push(&mut lq_enc_v, &mut lq_raw_v, t);
            }
            for qi in 0..n_sq {
                let t = take(sq0 + d * n_sq + qi).thr();
                push(&mut sq_enc_v, &mut sq_raw_v, t);
            }
        }
        let mut w_at = width0;
        for (c, grid) in width_grids.iter().enumerate() {
            for _ in 0..grid.len() {
                let t = take(w_at).thr();
                w_at += 1;
                match c {
                    0 => push(&mut alu_enc_v, &mut alu_raw_v, t),
                    1 => push(&mut fp_enc_v, &mut fp_raw_v, t),
                    _ => push(&mut ls_enc_v, &mut ls_raw_v, t),
                };
            }
        }
        for p in 0..sweep.pipes.len() {
            match take(pipes0 + p) {
                TaskOut::Pipes { lo, hi } => {
                    push(&mut pipes_lo_enc_v, &mut pipes_lo_raw_v, lo);
                    push(&mut pipes_hi_enc_v, &mut pipes_hi_raw_v, hi);
                }
                _ => unreachable!("task section mismatch"),
            }
        }
        for i in 0..n_i {
            for vi in 0..sweep.fills.len() {
                let t = take(fill0 + i * sweep.fills.len() + vi).thr();
                push(&mut fills_enc_v, &mut fills_raw_v, t);
            }
        }
        for i in 0..n_i {
            for vi in 0..sweep.buffers.len() {
                let t = take(buf0 + i * sweep.buffers.len() + vi).thr();
                push(&mut buffers_enc_v, &mut buffers_raw_v, t);
            }
        }

        let ea = |v: &[f32]| EncArena::from_f32(v, e);
        let ra = |v: &[f64]| RawArena::from_f64(v, n_windows.max(1));
        let store = FeatureStore {
            k,
            encoding: enc,
            n_instr: n,
            n_windows,
            rob_grid,
            lq_grid: sweep.lq.clone(),
            sq_grid: sweep.sq.clone(),
            alu_grid: sweep.alu.clone(),
            fp_grid: sweep.fp.clone(),
            ls_grid: sweep.ls.clone(),
            pipes_grid: sweep.pipes.clone(),
            fills_grid: sweep.fills.clone(),
            buffers_grid: sweep.buffers.clone(),
            d_keys,
            i_keys,
            rob_enc: ea(&rob_enc_v),
            rob_raw: ra(&rob_raw_v),
            lq_enc: ea(&lq_enc_v),
            lq_raw: ra(&lq_raw_v),
            sq_enc: ea(&sq_enc_v),
            sq_raw: ra(&sq_raw_v),
            mem_enc: ea(&mem_enc_v),
            mem_raw: ra(&mem_raw_v),
            alu_enc: ea(&alu_enc_v),
            alu_raw: ra(&alu_raw_v),
            fp_enc: ea(&fp_enc_v),
            fp_raw: ra(&fp_raw_v),
            ls_enc: ea(&ls_enc_v),
            ls_raw: ra(&ls_raw_v),
            pipes_lo_enc: ea(&pipes_lo_enc_v),
            pipes_lo_raw: ra(&pipes_lo_raw_v),
            pipes_hi_enc: ea(&pipes_hi_enc_v),
            pipes_hi_raw: ra(&pipes_hi_raw_v),
            fills_enc: ea(&fills_enc_v),
            fills_raw: ra(&fills_raw_v),
            buffers_enc: ea(&buffers_enc_v),
            buffers_raw: ra(&buffers_raw_v),
            rob_curve: EncArena::from_f32(&rob_curve_v, s_len),
            exec_lat: ea(&exec_lat_v),
            issue_lat: ea(&issue_lat_v),
            commit_lat: ea(&commit_lat_v),
            load_exec_est,
            isb_dist: ea(&isb_dist),
            branch_dists: [
                ea(&branch_dists[0]),
                ea(&branch_dists[1]),
                ea(&branch_dists[2]),
            ],
            branch_info_branches: binfo.branches,
            branch_info_cond: binfo.conditional,
            branch_info_tage: binfo.tage_cond_misses,
            branch_info_indirect: binfo.indirect_misses,
        };
        debug_assert!(store.arena_lengths_consistent());
        store
    }

    /// Internal consistency of arena shapes vs grid sizes (used by loads
    /// and debug assertions).
    fn arena_lengths_consistent(&self) -> bool {
        let e = self.encoding.dim();
        let w = self.n_windows;
        let (n_d, n_i, s) = (self.d_keys.len(), self.i_keys.len(), ROB_SWEEP.len());
        let enc_ok = |a: &EncArena, entries: usize| a.stride() == e && a.entries() == entries;
        let raw_ok = |a: &RawArena, entries: usize| {
            a.stride() == w.max(1) && (a.entries() == entries || (w == 0 && a.entries() == 0))
        };
        enc_ok(&self.rob_enc, n_d * self.rob_grid.len())
            && raw_ok(&self.rob_raw, n_d * self.rob_grid.len())
            && enc_ok(&self.lq_enc, n_d * self.lq_grid.len())
            && raw_ok(&self.lq_raw, n_d * self.lq_grid.len())
            && enc_ok(&self.sq_enc, n_d * self.sq_grid.len())
            && raw_ok(&self.sq_raw, n_d * self.sq_grid.len())
            && enc_ok(&self.mem_enc, n_d)
            && raw_ok(&self.mem_raw, n_d)
            && enc_ok(&self.alu_enc, self.alu_grid.len())
            && raw_ok(&self.alu_raw, self.alu_grid.len())
            && enc_ok(&self.fp_enc, self.fp_grid.len())
            && raw_ok(&self.fp_raw, self.fp_grid.len())
            && enc_ok(&self.ls_enc, self.ls_grid.len())
            && raw_ok(&self.ls_raw, self.ls_grid.len())
            && enc_ok(&self.pipes_lo_enc, self.pipes_grid.len())
            && raw_ok(&self.pipes_lo_raw, self.pipes_grid.len())
            && enc_ok(&self.pipes_hi_enc, self.pipes_grid.len())
            && raw_ok(&self.pipes_hi_raw, self.pipes_grid.len())
            && enc_ok(&self.fills_enc, n_i * self.fills_grid.len())
            && raw_ok(&self.fills_raw, n_i * self.fills_grid.len())
            && enc_ok(&self.buffers_enc, n_i * self.buffers_grid.len())
            && raw_ok(&self.buffers_raw, n_i * self.buffers_grid.len())
            && self.rob_curve.stride() == s
            && self.rob_curve.entries() == n_d
            && enc_ok(&self.exec_lat, n_d)
            && enc_ok(&self.issue_lat, n_d * s)
            && enc_ok(&self.commit_lat, n_d * s)
            && self.load_exec_est.len() == n_d
            && enc_ok(&self.isb_dist, 1)
            && self.branch_dists.iter().all(|b| enc_ok(b, 1))
    }

    /// Distribution encoding the store was built with.
    pub fn encoding(&self) -> Encoding {
        self.encoding
    }

    /// Whether the store's arenas are backed by a live `mmap` region.
    pub fn is_mapped(&self) -> bool {
        self.rob_enc.is_mapped()
    }

    /// Number of instructions in the analyzed region.
    pub fn n_instr(&self) -> usize {
        self.n_instr
    }

    /// Length of every raw per-window series.
    pub fn n_windows(&self) -> usize {
        self.n_windows
    }

    /// The block-level schema of vectors this store assembles for `variant`.
    pub fn schema(&self, variant: FeatureVariant) -> FeatureSchema {
        FeatureSchema::new(self.encoding, variant)
    }

    /// Branch misprediction rate (per instruction ×1000, i.e. MPKI-scaled to
    /// 0..~1) for the architecture's predictor — the §3.2.2 scalar feature.
    pub fn mispredict_feature(&self, predictor: PredictorKind) -> f32 {
        let cond_misses = match predictor {
            PredictorKind::Tage => self.branch_info_tage as f64,
            PredictorKind::Simple { miss_pct } => {
                self.branch_info_cond as f64 * f64::from(miss_pct) / 100.0
            }
        };
        let per_instr =
            (cond_misses + self.branch_info_indirect as f64) / self.n_instr.max(1) as f64;
        (per_instr * 10.0) as f32 // scale ~[0, 1]
    }

    fn d_idx(&self, mem: MemConfig) -> usize {
        nearest_dkey_idx(&self.d_keys, mem.data_key())
    }

    fn i_idx(&self, mem: MemConfig) -> usize {
        nearest_ikey_idx(&self.i_keys, mem.inst_key())
    }

    /// Trace-analysis estimate of the total load execution time under `mem`
    /// (the denominator of Figure 11's discrepancy ratio).
    pub fn load_exec_estimate(&self, mem: MemConfig) -> u64 {
        self.load_exec_est[self.d_idx(mem)]
    }

    /// Arena entry index for `res` under `arch`: nearest grid position on
    /// each axis, combined into the flat table offset.
    fn entry_idx(&self, res: Resource, arch: &MicroArch) -> usize {
        self.entry_idx_with(res, arch, self.d_idx(arch.mem), self.i_idx(arch.mem))
    }

    /// [`FeatureStore::entry_idx`] with precomputed memory-configuration
    /// indices, so assembly resolves `d_idx`/`i_idx` once per vector instead
    /// of once per resource.
    fn entry_idx_with(&self, res: Resource, arch: &MicroArch, di: usize, ii: usize) -> usize {
        self.entry_at(res, di, ii, self.axis_idx(res, arch))
    }

    /// The value of `arch` on `res`'s own parameter axis, as a memo key.
    fn axis_key(res: Resource, arch: &MicroArch) -> u64 {
        let v = match res {
            Resource::Rob => arch.rob_size,
            Resource::LoadQueue => arch.lq_size,
            Resource::StoreQueue => arch.sq_size,
            Resource::AluWidth => arch.alu_width,
            Resource::FpWidth => arch.fp_width,
            Resource::LsWidth => arch.ls_width,
            Resource::PipesLower | Resource::PipesUpper => {
                return u64::from(arch.ls_pipes) << 32 | u64::from(arch.load_pipes)
            }
            Resource::IcacheFills => arch.max_icache_fills,
            Resource::FetchBuffers => arch.fetch_buffers,
            Resource::MemLatency => 0,
        };
        u64::from(v)
    }

    /// Nearest-grid position of `arch` on `res`'s own parameter axis (0 for
    /// the memory-latency table, which has none).
    fn axis_idx(&self, res: Resource, arch: &MicroArch) -> usize {
        match res {
            Resource::Rob => nearest_idx(&self.rob_grid, arch.rob_size),
            Resource::LoadQueue => nearest_idx(&self.lq_grid, arch.lq_size),
            Resource::StoreQueue => nearest_idx(&self.sq_grid, arch.sq_size),
            Resource::AluWidth => nearest_idx(&self.alu_grid, arch.alu_width),
            Resource::FpWidth => nearest_idx(&self.fp_grid, arch.fp_width),
            Resource::LsWidth => nearest_idx(&self.ls_grid, arch.ls_width),
            Resource::PipesLower | Resource::PipesUpper => {
                nearest_pair_idx(&self.pipes_grid, (arch.ls_pipes, arch.load_pipes))
            }
            Resource::IcacheFills => nearest_idx(&self.fills_grid, arch.max_icache_fills),
            Resource::FetchBuffers => nearest_idx(&self.buffers_grid, arch.fetch_buffers),
            Resource::MemLatency => 0,
        }
    }

    /// The flat arena offset of axis position `axis` under memory indices
    /// `di`/`ii`.
    fn entry_at(&self, res: Resource, di: usize, ii: usize, axis: usize) -> usize {
        match res {
            Resource::Rob => di * self.rob_grid.len() + axis,
            Resource::LoadQueue => di * self.lq_grid.len() + axis,
            Resource::StoreQueue => di * self.sq_grid.len() + axis,
            Resource::AluWidth
            | Resource::FpWidth
            | Resource::LsWidth
            | Resource::PipesLower
            | Resource::PipesUpper => axis,
            Resource::IcacheFills => ii * self.fills_grid.len() + axis,
            Resource::FetchBuffers => ii * self.buffers_grid.len() + axis,
            Resource::MemLatency => di,
        }
    }

    /// How many entries a store-backed segment can take (0 for a
    /// per-architecture one).
    fn segment_entries(&self, source: SegmentSource) -> usize {
        match source {
            SegmentSource::Primary(res) => self.enc_arena(res).entries(),
            SegmentSource::Stall => 1,
            SegmentSource::Memory { .. } => self.d_keys.len(),
            SegmentSource::Mispredict | SegmentSource::Params => 0,
        }
    }

    /// Writes the raw values of entry `entry` of a store-backed segment.
    pub(crate) fn write_segment(&self, source: SegmentSource, entry: usize, out: &mut [f32]) {
        let e = self.encoding.dim();
        let s = ROB_SWEEP.len();
        match source {
            SegmentSource::Primary(res) => self.enc_arena(res).write_entry(entry, out),
            SegmentSource::Stall => {
                let (isb, branches) = out.split_at_mut(e);
                self.isb_dist.write_entry(0, isb);
                for (d, out) in self.branch_dists.iter().zip(branches.chunks_exact_mut(e)) {
                    d.write_entry(0, out);
                }
            }
            SegmentSource::Memory { latency } => {
                let (curve, rest) = out.split_at_mut(s);
                self.rob_curve.write_entry(entry, curve);
                if latency {
                    let (exec, rest) = rest.split_at_mut(e);
                    self.exec_lat.write_entry(entry, exec);
                    let (issue, commit) = rest.split_at_mut(s * e);
                    for (j, (i, c)) in issue
                        .chunks_exact_mut(e)
                        .zip(commit.chunks_exact_mut(e))
                        .enumerate()
                    {
                        self.issue_lat.write_entry(entry * s + j, i);
                        self.commit_lat.write_entry(entry * s + j, c);
                    }
                }
            }
            SegmentSource::Mispredict | SegmentSource::Params => {
                unreachable!("per-architecture segments have no store entry")
            }
        }
    }

    /// Resolves, for every architecture of a batch sharing this store, the
    /// store entry behind each store-backed segment of `segments`, and
    /// lists each segment's distinct entries once (see [`EntryPlan`]).
    ///
    /// Every nearest-grid lookup (`d_idx`, `i_idx` and each resource's
    /// axis) runs once per distinct value in the batch (see [`Memo`]), with
    /// the same tie-breaks as [`FeatureStore::features_into`]. Warm calls
    /// allocate nothing.
    pub(crate) fn plan_entries(
        &self,
        archs: &[MicroArch],
        segments: &[InputSegment],
        plan: &mut EntryPlan,
    ) {
        plan.d_memo.begin();
        plan.i_memo.begin();
        for memo in &mut plan.axis_memo {
            memo.begin();
        }
        plan.mem.clear();
        for arch in archs {
            let di = plan
                .d_memo
                .get(arch.mem.data_key(), || self.d_idx(arch.mem));
            let ii = plan
                .i_memo
                .get(arch.mem.inst_key(), || self.i_idx(arch.mem));
            plan.mem.push((di, ii));
        }
        let table: usize = segments
            .iter()
            .map(|seg| self.segment_entries(seg.source))
            .sum();
        if plan.stamps.len() < table {
            plan.stamps.resize(table, 0);
            plan.slots.resize(table, 0);
        }
        // Stamp 0 is never live: a fresh table (or a wrapped stamp) starts
        // with every slot dead.
        plan.stamp = plan.stamp.wrapping_add(1);
        if plan.stamp == 0 {
            plan.stamps.fill(0);
            plan.stamp = 1;
        }
        let n_seg = segments.len();
        plan.local.clear();
        plan.local.resize(archs.len() * n_seg, 0);
        plan.entries.clear();
        plan.starts.clear();
        let mut base = 0;
        for (j, seg) in segments.iter().enumerate() {
            let first = plan.entries.len();
            plan.starts.push(first);
            for (u, arch) in archs.iter().enumerate() {
                let (di, ii) = plan.mem[u];
                let entry = match seg.source {
                    SegmentSource::Primary(res) => {
                        let axis = plan.axis_memo[res as usize]
                            .get(Self::axis_key(res, arch), || self.axis_idx(res, arch));
                        self.entry_at(res, di, ii, axis)
                    }
                    SegmentSource::Stall => 0,
                    SegmentSource::Memory { .. } => di,
                    SegmentSource::Mispredict | SegmentSource::Params => {
                        plan.local[u * n_seg + j] = u as u32;
                        continue;
                    }
                };
                let t = base + entry;
                if plan.stamps[t] != plan.stamp {
                    plan.stamps[t] = plan.stamp;
                    plan.slots[t] = (plan.entries.len() - first) as u32;
                    plan.entries.push(entry as u32);
                }
                plan.local[u * n_seg + j] = plan.slots[t];
            }
            base += self.segment_entries(seg.source);
        }
        plan.starts.push(plan.entries.len());
    }

    fn raw_arena(&self, res: Resource) -> &RawArena {
        match res {
            Resource::Rob => &self.rob_raw,
            Resource::LoadQueue => &self.lq_raw,
            Resource::StoreQueue => &self.sq_raw,
            Resource::AluWidth => &self.alu_raw,
            Resource::FpWidth => &self.fp_raw,
            Resource::LsWidth => &self.ls_raw,
            Resource::PipesLower => &self.pipes_lo_raw,
            Resource::PipesUpper => &self.pipes_hi_raw,
            Resource::IcacheFills => &self.fills_raw,
            Resource::FetchBuffers => &self.buffers_raw,
            Resource::MemLatency => &self.mem_raw,
        }
    }

    fn enc_arena(&self, res: Resource) -> &EncArena {
        match res {
            Resource::Rob => &self.rob_enc,
            Resource::LoadQueue => &self.lq_enc,
            Resource::StoreQueue => &self.sq_enc,
            Resource::AluWidth => &self.alu_enc,
            Resource::FpWidth => &self.fp_enc,
            Resource::LsWidth => &self.ls_enc,
            Resource::PipesLower => &self.pipes_lo_enc,
            Resource::PipesUpper => &self.pipes_hi_enc,
            Resource::IcacheFills => &self.fills_enc,
            Resource::FetchBuffers => &self.buffers_enc,
            Resource::MemLatency => &self.mem_enc,
        }
    }

    /// Raw per-window throughput-bound series for a resource under `arch`
    /// (used by Figure 1 and the min-bound baseline), borrowed straight from
    /// the arena on little-endian targets. Empty for a store of an empty
    /// region, whose raw arenas hold no series.
    pub fn raw_series(&self, res: Resource, arch: &MicroArch) -> Cow<'_, [f64]> {
        if self.n_windows == 0 {
            return Cow::Borrowed(&[]);
        }
        let idx = self.entry_idx(res, arch);
        self.raw_arena(res).series(idx)
    }

    /// Assembles the ML input vector for `arch` under `variant`.
    ///
    /// Layout: 11 primary distributions → misprediction rate → (stall
    /// features → latency distributions, per variant) → 23 parameter dims
    /// (see [`FeatureSchema`]).
    pub fn features(&self, arch: &MicroArch, variant: FeatureVariant) -> Vec<f32> {
        let mut out = vec![0.0f32; FeatureSchema::dim_for(self.encoding, variant)];
        self.features_into(arch, variant, &mut out);
        out
    }

    /// Assembles the ML input vector into `out` with zero heap allocations
    /// (what a single-architecture prediction reads).
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the schema dimension for
    /// `(self.encoding(), variant)`.
    pub fn features_into(&self, arch: &MicroArch, variant: FeatureVariant, out: &mut [f32]) {
        // Resolve the memory-configuration indices once: every d/i-keyed
        // lookup below reuses them instead of rescanning the key lists.
        let di = self.d_idx(arch.mem);
        let ii = self.i_idx(arch.mem);
        self.features_into_at(arch, variant, out, di, ii);
    }

    /// [`FeatureStore::features_into`] with the memory-configuration indices
    /// already resolved — the batched-assembly inner loop.
    fn features_into_at(
        &self,
        arch: &MicroArch,
        variant: FeatureVariant,
        out: &mut [f32],
        di: usize,
        ii: usize,
    ) {
        assert_eq!(
            out.len(),
            FeatureSchema::dim_for(self.encoding, variant),
            "output buffer does not match the schema dimension"
        );
        let layout = FeatureLayout {
            encoding: self.encoding,
            variant,
        };
        for seg in layout.segments().iter() {
            let out = &mut out[seg.cols()];
            let entry = match seg.source {
                SegmentSource::Primary(res) => self.entry_idx_with(res, arch, di, ii),
                SegmentSource::Stall => 0,
                SegmentSource::Memory { .. } => di,
                SegmentSource::Mispredict => {
                    out[0] = self.mispredict_feature(arch.predictor);
                    continue;
                }
                SegmentSource::Params => {
                    arch.encode_into(out);
                    continue;
                }
            };
            self.write_segment(seg.source, entry, out);
        }
    }

    /// Computes the per-arch lookup indices for a batch sharing this store
    /// and orders the rows so assembly walks the arenas coherently.
    ///
    /// Each architecture's nearest-grid resolution (`d_idx`/`i_idx` scans
    /// plus the ROB grid position that dominates entry addressing) happens
    /// exactly once here, hoisted out of the per-row assembly loop; rows are
    /// then sorted by `(d_idx, rob_idx, i_idx)` so consecutive rows copy
    /// from adjacent arena blocks instead of striding randomly. The plan is
    /// written into `scratch` (cleared first, capacity kept — warm calls
    /// allocate nothing).
    fn plan_assembly(&self, archs: &[MicroArch], scratch: &mut AssemblyScratch) {
        scratch.slots.clear();
        scratch.slots.reserve(archs.len());
        for (row, arch) in archs.iter().enumerate() {
            scratch.slots.push(AssemblySlot {
                row: row as u32,
                di: self.d_idx(arch.mem) as u32,
                ii: self.i_idx(arch.mem) as u32,
                rob_idx: nearest_idx(&self.rob_grid, arch.rob_size) as u32,
            });
        }
        scratch
            .slots
            .sort_unstable_by_key(|s| (s.di, s.rob_idx, s.ii));
    }

    /// Batched [`FeatureStore::features_into`]: assembles one row per
    /// architecture into the row-major `out` buffer (`archs.len() × dim`).
    /// The predictor no longer assembles whole rows for a batch (see
    /// `FeatureStore::plan_entries`); this is the dense assembly the
    /// benchmark ledger still times.
    ///
    /// Rows land at their original positions, but are *visited* in the
    /// arena-coherent order planned by `plan_assembly`, with each row's
    /// layout math resolved once up front — output bits are identical to
    /// calling `features_into` per row.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != archs.len() * dim` for the schema dimension.
    pub fn features_into_many(
        &self,
        archs: &[MicroArch],
        variant: FeatureVariant,
        out: &mut [f32],
        scratch: &mut AssemblyScratch,
    ) {
        let dim = FeatureSchema::dim_for(self.encoding, variant);
        assert_eq!(
            out.len(),
            archs.len() * dim,
            "output buffer does not match archs.len() × schema dimension"
        );
        self.plan_assembly(archs, scratch);
        for slot in &scratch.slots {
            let row = slot.row as usize;
            self.features_into_at(
                &archs[row],
                variant,
                &mut out[row * dim..(row + 1) * dim],
                slot.di as usize,
                slot.ii as usize,
            );
        }
    }

    /// The pure-analytical CPI estimate: per window, take the minimum of all
    /// per-resource throughput bounds (and the static widths), then average
    /// window CPIs (the pink "min bound" line of Figure 12).
    ///
    /// The combination is shared with
    /// [`MinBoundEstimator`](crate::minbound::MinBoundEstimator), the
    /// store-free fast path: for an architecture exactly on this store's
    /// grid the two are bitwise identical.
    pub fn min_bound_cpi(&self, arch: &MicroArch) -> f64 {
        let series: [Cow<'_, [f64]>; 9] = [
            self.raw_series(Resource::Rob, arch),
            self.raw_series(Resource::LoadQueue, arch),
            self.raw_series(Resource::StoreQueue, arch),
            self.raw_series(Resource::AluWidth, arch),
            self.raw_series(Resource::FpWidth, arch),
            self.raw_series(Resource::LsWidth, arch),
            self.raw_series(Resource::PipesUpper, arch),
            self.raw_series(Resource::IcacheFills, arch),
            self.raw_series(Resource::FetchBuffers, arch),
        ];
        crate::minbound::combine_min_bound(&series.each_ref().map(|s| s.as_ref()), arch)
    }

    fn enc_arenas(&self) -> [&EncArena; 14] {
        [
            &self.rob_enc,
            &self.lq_enc,
            &self.sq_enc,
            &self.fills_enc,
            &self.buffers_enc,
            &self.alu_enc,
            &self.fp_enc,
            &self.ls_enc,
            &self.pipes_lo_enc,
            &self.pipes_hi_enc,
            &self.mem_enc,
            &self.issue_lat,
            &self.commit_lat,
            &self.exec_lat,
        ]
    }

    fn raw_arenas(&self) -> [&RawArena; 11] {
        [
            &self.rob_raw,
            &self.lq_raw,
            &self.sq_raw,
            &self.fills_raw,
            &self.buffers_raw,
            &self.alu_raw,
            &self.fp_raw,
            &self.ls_raw,
            &self.pipes_lo_raw,
            &self.pipes_hi_raw,
            &self.mem_raw,
        ]
    }

    /// In-memory footprint of the encoded features (bytes) — the §5.2.3
    /// "precomputed performance features occupy…" statistic.
    pub fn encoded_bytes(&self) -> usize {
        self.enc_arenas().iter().map(|a| a.payload_bytes()).sum()
    }

    /// Total approximate in-memory footprint of the store (bytes): every
    /// encoded arena, raw series, grid, latency table, and distribution plus
    /// the struct header. This is the statistic the serving cache's byte
    /// budget (`--cache-bytes`) admits against.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        size_of::<Self>()
            + self.encoded_bytes()
            + self.raw_bytes()
            + size_of_val(&self.rob_grid[..])
            + size_of_val(&self.lq_grid[..])
            + size_of_val(&self.sq_grid[..])
            + size_of_val(&self.alu_grid[..])
            + size_of_val(&self.fp_grid[..])
            + size_of_val(&self.ls_grid[..])
            + size_of_val(&self.pipes_grid[..])
            + size_of_val(&self.fills_grid[..])
            + size_of_val(&self.buffers_grid[..])
            + size_of_val(&self.d_keys[..])
            + size_of_val(&self.i_keys[..])
            + self.rob_curve.payload_bytes()
            + size_of_val(&self.load_exec_est[..])
            + self.isb_dist.payload_bytes()
            + self
                .branch_dists
                .iter()
                .map(|d| d.payload_bytes())
                .sum::<usize>()
    }

    /// Every arena payload byte that lives in the backing region for a
    /// mapped store (the part of [`FeatureStore::approx_bytes`] that is
    /// virtual, not owned, after an mmap load).
    fn arena_payload_bytes(&self) -> usize {
        self.encoded_bytes()
            + self.raw_bytes()
            + self.rob_curve.payload_bytes()
            + self.isb_dist.payload_bytes()
            + self
                .branch_dists
                .iter()
                .map(|d| d.payload_bytes())
                .sum::<usize>()
    }

    /// Bytes the serving cache should charge for admitting this store.
    ///
    /// Owned stores charge their full approximate footprint
    /// ([`FeatureStore::approx_bytes`]) — every byte is heap-resident. For
    /// `mmap`-backed stores the arena payloads are virtual, paged in on
    /// first touch, so charging the full payload would evict real stores to
    /// make room for bytes that may never exist: instead the mapped region
    /// is charged at its **resident-page estimate**
    /// ([`MappedStore::resident_bytes`], `mincore(2)`), plus the owned
    /// parsing overhead (grids, keys, struct). The estimate is taken at
    /// admission time; it can only over-count relative to a later page-out,
    /// which is the safe direction for a byte budget.
    ///
    /// The resident charge is capped at the arena payload total: the region
    /// also spans the artifact header and serialized grids, whose parsed
    /// copies the owned overhead already counts, so a fully-resident mapping
    /// admits at exactly `approx_bytes` — never above it.
    pub fn admission_bytes(&self) -> usize {
        if !self.is_mapped() {
            return self.approx_bytes();
        }
        let payload = self.arena_payload_bytes();
        let owned = self.approx_bytes().saturating_sub(payload);
        owned + self.rob_enc.data().region().resident_bytes().min(payload)
    }

    /// Total raw-series footprint (bytes): the part of the store a serving
    /// deployment carries for the min-bound baseline.
    pub fn raw_bytes(&self) -> usize {
        self.raw_arenas().iter().map(|a| a.payload_bytes()).sum()
    }
}

// ---------------------------------------------------------------------------
// Compact binary artifact serialization (layout v3).
// ---------------------------------------------------------------------------

/// Magic bytes opening a serialized [`FeatureStore`] (layout v3: an
/// arena-encoding tag word, 8-byte-aligned arena payloads for zero-copy mmap
/// loads).
pub const STORE_MAGIC: [u8; 4] = *b"CFS\x03";

/// The arena-encoding tag word every store blob carries after its magic:
/// `0`, lossless `f32`/`f64`. Tags 1 (f16) and 2 (int8) belonged to lossy
/// encodings that were removed; the reader rejects them.
const F32_ARENA_TAG: u32 = 0;

/// The error a store blob carrying the removed f16 (1) or int8 (2) tag gets.
const REMOVED_ENCODING: &str = "store blob uses an f16/int8 arena encoding; f16/int8 stores \
     were removed (stores are always lossless f32) — re-run `concorde precompute`";

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32s(buf: &mut Vec<u8>, xs: &[u32]) {
    put_u64(buf, xs.len() as u64);
    for &x in xs {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

fn put_u64s(buf: &mut Vec<u8>, xs: &[u64]) {
    put_u64(buf, xs.len() as u64);
    for &x in xs {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

/// Zero-pads `buf` to the next 8-byte boundary (relative to the store base,
/// which the artifact container places at an 8-aligned file offset; the
/// container writer reuses this to establish that offset).
pub(crate) fn pad8(buf: &mut Vec<u8>) {
    while !buf.len().is_multiple_of(8) {
        buf.push(0);
    }
}

/// One arena record: `stride | entries | data_len | pad⁸ | data |
/// params_len (always 0) | pad⁸`. The pads make every payload 8-byte aligned
/// within the store blob, so a mapped load can point arenas straight into
/// the file. The params length is the slot the removed f16/int8 encodings
/// used for per-block dequantization parameters; it is kept so the layout
/// stays byte-identical.
fn put_arena(buf: &mut Vec<u8>, stride: usize, entries: usize, data: &Buf) {
    put_u64(buf, stride as u64);
    put_u64(buf, entries as u64);
    let data = data.bytes();
    put_u64(buf, data.len() as u64);
    pad8(buf);
    buf.extend_from_slice(data);
    put_u64(buf, 0);
    pad8(buf);
}

/// Bounded little-endian reader over a byte slice.
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
    at: usize,
}

fn truncated() -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, "truncated store artifact")
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, at: 0 }
    }

    pub(crate) fn bytes(&mut self, n: usize) -> std::io::Result<&'a [u8]> {
        let end = self.at.checked_add(n).ok_or_else(truncated)?;
        if end > self.buf.len() {
            return Err(truncated());
        }
        let out = &self.buf[self.at..end];
        self.at = end;
        Ok(out)
    }

    pub(crate) fn u32(&mut self) -> std::io::Result<u32> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> std::io::Result<u64> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn len_prefix(&mut self, elem_bytes: usize) -> std::io::Result<usize> {
        let n = self.u64()? as usize;
        // Reject lengths that cannot fit in the remaining input before
        // allocating (a corrupt header must not trigger an OOM).
        if n.checked_mul(elem_bytes).ok_or_else(truncated)? > self.buf.len() - self.at {
            return Err(truncated());
        }
        Ok(n)
    }

    fn u32s(&mut self) -> std::io::Result<Vec<u32>> {
        let n = self.len_prefix(4)?;
        (0..n).map(|_| self.u32()).collect()
    }

    fn u64s(&mut self) -> std::io::Result<Vec<u64>> {
        let n = self.len_prefix(8)?;
        (0..n).map(|_| self.u64()).collect()
    }

    /// Current offset from the start of the slice.
    pub(crate) fn pos(&self) -> usize {
        self.at
    }

    /// Skips to the next 8-byte boundary (the writer's `pad8`).
    pub(crate) fn align8(&mut self) -> std::io::Result<()> {
        let rem = self.at % 8;
        if rem != 0 {
            self.bytes(8 - rem)?;
        }
        Ok(())
    }
}

/// Reads one arena record written by `put_arena`, returning its stride,
/// entry count and a view of its payload in `region` (offsets are absolute:
/// `base` + the reader's position).
fn read_arena_views(
    r: &mut ByteReader,
    region: &Arc<MappedStore>,
    base: usize,
) -> std::io::Result<(usize, usize, Buf)> {
    let stride = r.u64()? as usize;
    let entries = r.u64()? as usize;
    let data_len = r.u64()? as usize;
    r.align8()?;
    let data_off = base + r.pos();
    r.bytes(data_len)?;
    let params_len = r.u64()?;
    r.align8()?;
    if params_len != 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "arena params length is inconsistent with its header (lossless arenas carry none)",
        ));
    }
    Ok((stride, entries, Buf::view(region, data_off, data_len)))
}

fn read_enc_arena(
    r: &mut ByteReader,
    region: &Arc<MappedStore>,
    base: usize,
) -> std::io::Result<EncArena> {
    let (stride, entries, data) = read_arena_views(r, region, base)?;
    EncArena::from_views(stride, entries, data)
}

fn read_raw_arena(
    r: &mut ByteReader,
    region: &Arc<MappedStore>,
    base: usize,
) -> std::io::Result<RawArena> {
    let (stride, entries, data) = read_arena_views(r, region, base)?;
    RawArena::from_views(stride, entries, data)
}

impl FeatureStore {
    /// Serializes the store to the compact binary artifact layout v3
    /// (little-endian; bit-exact for every value; arena payloads padded to
    /// 8-byte boundaries so a mapped load can reference them in place).
    ///
    /// The field order here is the wire contract: [`FeatureStore::parse`]
    /// reads the same sequence. Any reorder must change both lists together
    /// — the `artifact_roundtrip_is_bitwise_identical` golden test compares
    /// features of a loaded store against the original, so a writer/reader
    /// mismatch fails loudly there.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(256 + self.encoded_bytes() + self.raw_bytes() * 2);
        buf.extend_from_slice(&STORE_MAGIC);
        buf.extend_from_slice(&F32_ARENA_TAG.to_le_bytes());
        put_u64(&mut buf, self.k as u64);
        put_u64(&mut buf, self.encoding.levels as u64);
        put_u64(&mut buf, self.n_instr as u64);
        put_u64(&mut buf, self.n_windows as u64);
        for v in [
            self.branch_info_branches,
            self.branch_info_cond,
            self.branch_info_tage,
            self.branch_info_indirect,
        ] {
            put_u64(&mut buf, v);
        }
        for g in [
            &self.rob_grid,
            &self.lq_grid,
            &self.sq_grid,
            &self.alu_grid,
            &self.fp_grid,
            &self.ls_grid,
            &self.fills_grid,
            &self.buffers_grid,
        ] {
            put_u32s(&mut buf, g);
        }
        let pipes_flat: Vec<u32> = self.pipes_grid.iter().flat_map(|&(a, b)| [a, b]).collect();
        put_u32s(&mut buf, &pipes_flat);
        let d_flat: Vec<u32> = self
            .d_keys
            .iter()
            .flat_map(|&(a, b, c)| [a, b, c])
            .collect();
        put_u32s(&mut buf, &d_flat);
        let i_flat: Vec<u32> = self.i_keys.iter().flat_map(|&(a, b)| [a, b]).collect();
        put_u32s(&mut buf, &i_flat);
        put_u64s(&mut buf, &self.load_exec_est);
        for a in [
            &self.rob_enc,
            &self.lq_enc,
            &self.sq_enc,
            &self.mem_enc,
            &self.alu_enc,
            &self.fp_enc,
            &self.ls_enc,
            &self.pipes_lo_enc,
            &self.pipes_hi_enc,
            &self.fills_enc,
            &self.buffers_enc,
            &self.rob_curve,
            &self.exec_lat,
            &self.issue_lat,
            &self.commit_lat,
            &self.isb_dist,
            &self.branch_dists[0],
            &self.branch_dists[1],
            &self.branch_dists[2],
        ] {
            put_arena(&mut buf, a.stride(), a.entries(), a.data());
        }
        for a in [
            &self.rob_raw,
            &self.lq_raw,
            &self.sq_raw,
            &self.mem_raw,
            &self.alu_raw,
            &self.fp_raw,
            &self.ls_raw,
            &self.pipes_lo_raw,
            &self.pipes_hi_raw,
            &self.fills_raw,
            &self.buffers_raw,
        ] {
            put_arena(&mut buf, a.stride(), a.entries(), a.data());
        }
        buf
    }

    /// Deserializes a store written by [`FeatureStore::to_bytes`], copying
    /// the payload once into an owned aligned region. Use
    /// [`FeatureStore::parse`] with a mapped region for zero-copy loads.
    ///
    /// # Errors
    ///
    /// `InvalidData` on a bad magic, truncation, or inconsistent arena
    /// lengths.
    pub fn from_bytes(bytes: &[u8]) -> std::io::Result<FeatureStore> {
        Self::parse(&MappedStore::from_bytes(bytes), 0)
    }

    /// Parses a store blob starting at `base` within a shared region,
    /// backing every arena by a view into it — **no arena bytes are copied**.
    /// `base` must be 8-byte aligned (the artifact container pads to
    /// guarantee this), so the writer's payload padding holds absolutely.
    ///
    /// # Errors
    ///
    /// `InvalidData` on a bad magic, an arena encoding other than lossless
    /// `f32` (the removed f16/int8 tags get a message saying so), truncation,
    /// misalignment, or inconsistent arena shapes.
    pub fn parse(region: &Arc<MappedStore>, base: usize) -> std::io::Result<FeatureStore> {
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        if !base.is_multiple_of(8) || base > region.bytes().len() {
            return Err(bad("store blob is not 8-byte aligned within its region"));
        }
        let mut r = ByteReader::new(&region.bytes()[base..]);
        if r.bytes(4)? != STORE_MAGIC {
            return Err(bad(
                "not a Concorde feature-store blob (bad magic; layout v3 is `CFS\\x03` — \
                 re-run `concorde precompute` for older artifacts)",
            ));
        }
        match r.u32()? {
            F32_ARENA_TAG => {}
            1 | 2 => return Err(bad(REMOVED_ENCODING)),
            _ => return Err(bad("store blob declares an unknown arena encoding")),
        }
        let k = r.u64()? as usize;
        let levels = r.u64()? as usize;
        // Every encoded block holds `2·levels + 1` values, so a level count
        // beyond the blob's length can never match its arenas (and must not
        // overflow `Encoding::dim` on the way to saying so).
        if levels > region.bytes().len() {
            return Err(bad(
                "store blob declares more encoding levels than it has bytes",
            ));
        }
        let n_instr = r.u64()? as usize;
        let n_windows = r.u64()? as usize;
        let branch_info_branches = r.u64()?;
        let branch_info_cond = r.u64()?;
        let branch_info_tage = r.u64()?;
        let branch_info_indirect = r.u64()?;
        let rob_grid = r.u32s()?;
        let lq_grid = r.u32s()?;
        let sq_grid = r.u32s()?;
        let alu_grid = r.u32s()?;
        let fp_grid = r.u32s()?;
        let ls_grid = r.u32s()?;
        let fills_grid = r.u32s()?;
        let buffers_grid = r.u32s()?;
        let pipes_flat = r.u32s()?;
        if !pipes_flat.len().is_multiple_of(2) {
            return Err(truncated());
        }
        let pipes_grid = pipes_flat.chunks_exact(2).map(|c| (c[0], c[1])).collect();
        let d_flat = r.u32s()?;
        if !d_flat.len().is_multiple_of(3) {
            return Err(truncated());
        }
        let d_keys = d_flat.chunks_exact(3).map(|c| (c[0], c[1], c[2])).collect();
        let i_flat = r.u32s()?;
        if !i_flat.len().is_multiple_of(2) {
            return Err(truncated());
        }
        let i_keys = i_flat.chunks_exact(2).map(|c| (c[0], c[1])).collect();
        let load_exec_est = r.u64s()?;
        let enc_a = |r: &mut ByteReader| read_enc_arena(r, region, base);
        let rob_enc = enc_a(&mut r)?;
        let lq_enc = enc_a(&mut r)?;
        let sq_enc = enc_a(&mut r)?;
        let mem_enc = enc_a(&mut r)?;
        let alu_enc = enc_a(&mut r)?;
        let fp_enc = enc_a(&mut r)?;
        let ls_enc = enc_a(&mut r)?;
        let pipes_lo_enc = enc_a(&mut r)?;
        let pipes_hi_enc = enc_a(&mut r)?;
        let fills_enc = enc_a(&mut r)?;
        let buffers_enc = enc_a(&mut r)?;
        let rob_curve = enc_a(&mut r)?;
        let exec_lat = enc_a(&mut r)?;
        let issue_lat = enc_a(&mut r)?;
        let commit_lat = enc_a(&mut r)?;
        let isb_dist = enc_a(&mut r)?;
        let branch_dists = [enc_a(&mut r)?, enc_a(&mut r)?, enc_a(&mut r)?];
        let raw_a = |r: &mut ByteReader| read_raw_arena(r, region, base);
        let rob_raw = raw_a(&mut r)?;
        let lq_raw = raw_a(&mut r)?;
        let sq_raw = raw_a(&mut r)?;
        let mem_raw = raw_a(&mut r)?;
        let alu_raw = raw_a(&mut r)?;
        let fp_raw = raw_a(&mut r)?;
        let ls_raw = raw_a(&mut r)?;
        let pipes_lo_raw = raw_a(&mut r)?;
        let pipes_hi_raw = raw_a(&mut r)?;
        let fills_raw = raw_a(&mut r)?;
        let buffers_raw = raw_a(&mut r)?;
        let store = FeatureStore {
            k,
            encoding: Encoding { levels },
            n_instr,
            n_windows,
            rob_grid,
            lq_grid,
            sq_grid,
            alu_grid,
            fp_grid,
            ls_grid,
            pipes_grid,
            fills_grid,
            buffers_grid,
            d_keys,
            i_keys,
            rob_enc,
            rob_raw,
            lq_enc,
            lq_raw,
            sq_enc,
            sq_raw,
            mem_enc,
            mem_raw,
            alu_enc,
            alu_raw,
            fp_enc,
            fp_raw,
            ls_enc,
            ls_raw,
            pipes_lo_enc,
            pipes_lo_raw,
            pipes_hi_enc,
            pipes_hi_raw,
            fills_enc,
            fills_raw,
            buffers_enc,
            buffers_raw,
            rob_curve,
            exec_lat,
            issue_lat,
            commit_lat,
            load_exec_est,
            isb_dist,
            branch_dists,
            branch_info_branches,
            branch_info_cond,
            branch_info_tage,
            branch_info_indirect,
        };
        if !store.arena_lengths_consistent() {
            return Err(bad(
                "store artifact arena shapes are inconsistent with its grids",
            ));
        }
        // Lookups assume non-empty grids and key lists (a precompute always
        // produces them); reject degenerate artifacts at load time rather
        // than panicking inside `nearest_*` on the first matching request.
        if store.d_keys.is_empty()
            || store.i_keys.is_empty()
            || store.rob_grid.is_empty()
            || store.lq_grid.is_empty()
            || store.sq_grid.is_empty()
            || store.alu_grid.is_empty()
            || store.fp_grid.is_empty()
            || store.ls_grid.is_empty()
            || store.pipes_grid.is_empty()
            || store.fills_grid.is_empty()
            || store.buffers_grid.is_empty()
        {
            return Err(bad(
                "store artifact has an empty sweep grid or memory-key list",
            ));
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::ReproProfile;
    use concorde_trace::{by_id, generate_region};

    fn quick_store(arch: &MicroArch) -> FeatureStore {
        let profile = ReproProfile::quick();
        let full = generate_region(
            &by_id("S5").unwrap(),
            0,
            0,
            profile.warmup_len + profile.region_len,
        )
        .instrs;
        let (w, r) = full.split_at(profile.warmup_len);
        FeatureStore::precompute(w, r, &SweepConfig::for_arch(arch), &profile)
    }

    #[test]
    fn layout_dims_match_paper_formula() {
        let paper = FeatureLayout {
            encoding: Encoding::paper(),
            variant: FeatureVariant::Full,
        };
        // 11×101 + (4×101 + 1 + 11) + 23×101 + 23 = 3873 (Table 3).
        assert_eq!(paper.dim(), 3873);
        let base = FeatureLayout {
            encoding: Encoding::paper(),
            variant: FeatureVariant::Base,
        };
        assert_eq!(base.dim(), 11 * 101 + 1 + 23);
    }

    #[test]
    fn segments_tile_the_schema_blocks() {
        for variant in [
            FeatureVariant::Base,
            FeatureVariant::BaseBranch,
            FeatureVariant::Full,
        ] {
            let layout = FeatureLayout {
                encoding: Encoding { levels: 8 },
                variant,
            };
            let schema = layout.schema();
            let range = |name: &str| schema.range(name).unwrap();
            let mut want: Vec<std::ops::Range<usize>> =
                Resource::ALL.iter().map(|r| range(r.name())).collect();
            want.push(range("mispredict"));
            if variant != FeatureVariant::Base {
                want.push(range("isb").start..range("branch_indirect").end);
                let last = if variant == FeatureVariant::Full {
                    "commit_latency"
                } else {
                    "rob_curve"
                };
                want.push(range("rob_curve").start..range(last).end);
            }
            want.push(range("params"));
            let got: Vec<_> = layout.segments().iter().map(InputSegment::cols).collect();
            assert_eq!(got, want, "{variant:?}");
        }
    }

    #[test]
    fn features_have_declared_dims_for_all_variants() {
        let arch = MicroArch::arm_n1();
        let store = quick_store(&arch);
        for v in [
            FeatureVariant::Base,
            FeatureVariant::BaseBranch,
            FeatureVariant::Full,
        ] {
            let f = store.features(&arch, v);
            assert_eq!(
                f.len(),
                FeatureLayout {
                    encoding: Encoding { levels: 8 },
                    variant: v
                }
                .dim()
            );
            assert!(f.iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn features_into_matches_features_bitwise() {
        let arch = MicroArch::arm_n1();
        let store = quick_store(&arch);
        let mut off = arch;
        off.rob_size = 77;
        off.mem.l1d_kb = 48;
        for a in [arch, off] {
            for v in [
                FeatureVariant::Base,
                FeatureVariant::BaseBranch,
                FeatureVariant::Full,
            ] {
                let alloc = store.features(&a, v);
                let mut buf = vec![7.0f32; alloc.len()];
                store.features_into(&a, v, &mut buf);
                assert_eq!(
                    alloc.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    buf.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "{v:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "schema dimension")]
    fn features_into_rejects_misshapen_buffers() {
        let arch = MicroArch::arm_n1();
        let store = quick_store(&arch);
        let mut buf = vec![0.0f32; 3];
        store.features_into(&arch, FeatureVariant::Base, &mut buf);
    }

    #[test]
    fn quantization_finds_nearest_grid_point() {
        assert_eq!(nearest_idx(&[1, 2, 4, 8], 3), 2);
        assert_eq!(nearest_idx(&[1, 2, 4, 8], 5), 2);
        assert_eq!(nearest_idx(&[1, 2, 4, 8], 7), 3);
        assert_eq!(nearest_idx(&[16, 64, 256], 100), 1);
        assert_eq!(nearest_pair_idx(&[(2, 0), (8, 8)], (3, 1)), 0);
    }

    #[test]
    fn min_bound_is_a_plausible_lower_cpi_estimate() {
        let arch = MicroArch::arm_n1();
        let store = quick_store(&arch);
        let cpi = store.min_bound_cpi(&arch);
        assert!(cpi > 0.05 && cpi < 100.0, "min-bound CPI {cpi}");
        // A maximally wide machine should have a lower (or equal) bound CPI.
        let big = MicroArch::big_core();
        let store_big = quick_store(&big);
        assert!(store_big.min_bound_cpi(&big) <= cpi * 1.5);
    }

    #[test]
    fn mispredict_feature_orders_predictors() {
        let arch = MicroArch::arm_n1();
        let store = quick_store(&arch);
        let perfect = store.mispredict_feature(PredictorKind::Simple { miss_pct: 0 });
        let tage = store.mispredict_feature(PredictorKind::Tage);
        let awful = store.mispredict_feature(PredictorKind::Simple { miss_pct: 100 });
        assert!(perfect <= tage && tage <= awful);
    }

    #[test]
    fn raw_series_nonempty_for_all_resources() {
        let arch = MicroArch::arm_n1();
        let store = quick_store(&arch);
        for r in Resource::ALL {
            assert!(!store.raw_series(r, &arch).is_empty(), "{r:?}");
        }
        assert!(store.encoded_bytes() > 0);
        assert!(store.raw_bytes() > 0);
        // The full footprint strictly dominates its encoded + raw parts
        // (grids, curves, and distributions all contribute).
        assert!(store.approx_bytes() > store.encoded_bytes() + store.raw_bytes());
    }

    #[test]
    fn threaded_precompute_is_bitwise_deterministic() {
        let profile = ReproProfile::quick();
        let arch = MicroArch::arm_n1();
        let full = generate_region(&by_id("S5").unwrap(), 0, 0, 6_000).instrs;
        let (w, r) = full.split_at(2_000);
        let sweep = SweepConfig::for_pair(&MicroArch::big_core(), &arch);
        let serial = FeatureStore::precompute_threaded(w, r, &sweep, &profile, 1);
        let par = FeatureStore::precompute_threaded(w, r, &sweep, &profile, 4);
        assert_eq!(serial.to_bytes(), par.to_bytes());
    }

    #[test]
    fn duplicate_sweep_configs_are_deduplicated() {
        let profile = ReproProfile::quick();
        let arch = MicroArch::arm_n1();
        let mut sweep = SweepConfig::for_arch(&arch);
        sweep.d_cfgs.push(sweep.d_cfgs[0]);
        sweep.d_cfgs.push(sweep.d_cfgs[0]);
        sweep.i_cfgs.push(sweep.i_cfgs[0]);
        let full = generate_region(&by_id("S5").unwrap(), 0, 0, 4_096).instrs;
        let (w, r) = full.split_at(2_048);
        let store = FeatureStore::precompute(w, r, &sweep, &profile);
        assert_eq!(store.d_keys.len(), 1);
        assert_eq!(store.i_keys.len(), 1);
    }

    #[test]
    fn binary_roundtrip_is_bitwise_identical() {
        let arch = MicroArch::arm_n1();
        let store = quick_store(&arch);
        let bytes = store.to_bytes();
        let back = FeatureStore::from_bytes(&bytes).unwrap();
        assert_eq!(bytes, back.to_bytes());
        let a = store.features(&arch, FeatureVariant::Full);
        let b = back.features(&arch, FeatureVariant::Full);
        assert_eq!(
            a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(store.min_bound_cpi(&arch), back.min_bound_cpi(&arch));
    }

    #[test]
    fn corrupt_artifacts_are_rejected() {
        let arch = MicroArch::arm_n1();
        let store = quick_store(&arch);
        let bytes = store.to_bytes();
        assert!(FeatureStore::from_bytes(&bytes[..bytes.len() / 2]).is_err());
        assert!(FeatureStore::from_bytes(b"nope").is_err());
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(FeatureStore::from_bytes(&bad_magic).is_err());
    }
}
