//! Seeded request sequences for the three workloads.
//!
//! Every request a workload sends is a pure function of the workload seed
//! and the run length: nothing depends on timing, so two runs with the same
//! seed send byte-identical sequences whatever the host does.

use concorde_cache::{L1_SIZES_KB, L2_SIZES_KB};
use concorde_serve::{ArchSpec, PredictRequest};
use concorde_trace::{suite_cached, SEGMENT_LEN};
use std::collections::HashSet;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Batched design-space sweep over warm quantized stores.
    DseSweep,
    /// One distinct cold region per request.
    ColdRegions,
    /// Mixed single/array traffic over loopback TCP.
    WireMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::DseSweep,
        Workload::ColdRegions,
        Workload::WireMixed,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DseSweep => "dse_sweep",
            Workload::ColdRegions => "cold_regions",
            Workload::WireMixed => "wire_mixed",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn salt(self) -> u64 {
        match self {
            Workload::DseSweep => 0xD5E0_5EED,
            Workload::ColdRegions => 0xC01D_5EED,
            Workload::WireMixed => 0x3A1E_5EED,
        }
    }
}

/// SplitMix64: a small, fixed, dependency-free generator, so the request
/// sequences cannot change under a dependency upgrade.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// A program region of the suite: the unit a feature store is built for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Region {
    /// Suite workload id (e.g. `"S5"`).
    pub workload: &'static str,
    /// Trace index within the workload.
    pub trace: u32,
    /// First instruction of the region.
    pub start: u64,
}

impl Region {
    const fn fixed(workload: &'static str, trace: u32, segment: u64) -> Region {
        Region {
            workload,
            trace,
            start: segment * SEGMENT_LEN,
        }
    }

    /// The region a request names.
    pub fn of(req: &PredictRequest) -> Region {
        let spec = concorde_trace::by_id_ref(&req.workload)
            .expect("benchmark requests name suite workloads");
        Region {
            workload: spec.id.as_str(),
            trace: req.trace,
            start: req.start,
        }
    }
}

/// Requests per `dse_sweep` client call.
pub const DSE_BATCH: usize = 128;

/// The quantized-sweep stores `dse_sweep` warms in set-up and sweeps over:
/// four programs of different classes.
pub const DSE_REGIONS: [Region; 4] = [
    Region::fixed("S5", 0, 8),
    Region::fixed("S1", 1, 8),
    Region::fixed("P2", 2, 8),
    Region::fixed("C1", 0, 8),
];

/// Regions whose per-architecture stores `wire_mixed` keeps warm.
pub const WIRE_REGIONS: [Region; 8] = [
    Region::fixed("S2", 0, 4),
    Region::fixed("S8", 1, 4),
    Region::fixed("S10", 2, 4),
    Region::fixed("P6", 0, 4),
    Region::fixed("P13", 3, 4),
    Region::fixed("C2", 1, 4),
    Region::fixed("O1", 0, 4),
    Region::fixed("O4", 2, 4),
];

/// Seeded architectures per warm `wire_mixed` region.
pub const WIRE_ARCHS_PER_REGION: usize = 6;

/// Lines per `wire_mixed` block: one cold single, [`WIRE_ARRAYS`] small
/// arrays, and warm singles for the rest.
pub const WIRE_BLOCK: usize = 50;
/// Small-array lines per `wire_mixed` block.
pub const WIRE_ARRAYS: usize = 5;

fn pow2(rng: &mut SplitMix64, max_exp: u64) -> u32 {
    1 << rng.below(max_exp + 1)
}

/// An architecture on the §5.2.3 power-of-two grid, as a wire spec over the
/// N1 base: every parameter the wire exposes is drawn independently.
pub fn grid_arch(rng: &mut SplitMix64) -> ArchSpec {
    let mut a = ArchSpec::base("n1");
    a.rob = Some(pow2(rng, 10));
    a.lq = Some(pow2(rng, 8));
    a.sq = Some(pow2(rng, 8));
    a.alu = Some(pow2(rng, 3));
    a.fp = Some(pow2(rng, 3));
    a.ls = Some(pow2(rng, 3));
    a.fetch = Some(pow2(rng, 3));
    a.decode = Some(pow2(rng, 3));
    a.rename = Some(pow2(rng, 3));
    a.commit = Some(pow2(rng, 3));
    a.l1d = Some(L1_SIZES_KB[rng.below(L1_SIZES_KB.len() as u64) as usize]);
    a.l1i = Some(L1_SIZES_KB[rng.below(L1_SIZES_KB.len() as u64) as usize]);
    a.l2 = Some(L2_SIZES_KB[rng.below(L2_SIZES_KB.len() as u64) as usize]);
    a.prefetch = Some(4 * rng.below(2) as u32);
    a
}

/// A request for `region` on `arch`.
pub fn request(id: u64, region: Region, arch: ArchSpec) -> PredictRequest {
    let mut r = PredictRequest::new(id, region.workload, arch);
    r.trace = region.trace;
    r.start = region.start;
    r
}

/// A seeded region of the suite program at `program`, starting at least one
/// segment in (so its warm-up window is full) and ending inside its trace.
fn seeded_region(rng: &mut SplitMix64, program: usize) -> Region {
    let spec = &suite_cached()[program];
    let segments = (spec.trace_len / SEGMENT_LEN).saturating_sub(4).max(1);
    Region {
        workload: spec.id.as_str(),
        trace: rng.below(u64::from(spec.n_traces.max(1))) as u32,
        start: (1 + rng.below(segments)) * SEGMENT_LEN,
    }
}

/// Draws a region not yet in `seen` (and records it).
fn fresh_region(rng: &mut SplitMix64, program: usize, seen: &mut HashSet<Region>) -> Region {
    loop {
        let r = seeded_region(rng, program);
        if seen.insert(r) {
            return r;
        }
    }
}

/// Endless `dse_sweep` batch stream: each batch is [`DSE_BATCH`] grid
/// architectures against one seeded [`DSE_REGIONS`] store. Generated lazily
/// so a long run holds one batch, not the whole sequence.
pub struct DseStream {
    rng: SplitMix64,
    next_id: u64,
}

impl DseStream {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Self {
        DseStream {
            rng: SplitMix64::new(seed ^ Workload::DseSweep.salt()),
            next_id: 0,
        }
    }

    /// Fills `out` (cleared first) with the next batch.
    pub fn next_batch(&mut self, out: &mut Vec<PredictRequest>) {
        out.clear();
        let region = DSE_REGIONS[self.rng.below(DSE_REGIONS.len() as u64) as usize];
        for _ in 0..DSE_BATCH {
            let arch = grid_arch(&mut self.rng);
            out.push(request(self.next_id, region, arch));
            self.next_id += 1;
        }
    }
}

/// `cold_regions`: `rounds` rounds, each visiting every suite program once
/// in seeded order at a distinct seeded region with a seeded architecture.
/// Every round has the same program mix, so per-round cost is comparable
/// across rounds and seeds.
pub fn cold_requests(seed: u64, rounds: usize) -> Vec<PredictRequest> {
    let mut rng = SplitMix64::new(seed ^ Workload::ColdRegions.salt());
    let n_programs = suite_cached().len();
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(rounds * n_programs);
    for _ in 0..rounds {
        let mut order: Vec<usize> = (0..n_programs).collect();
        rng.shuffle(&mut order);
        for program in order {
            let region = fresh_region(&mut rng, program, &mut seen);
            let arch = grid_arch(&mut rng);
            out.push(request(out.len() as u64, region, arch));
        }
    }
    out
}

/// One `wire_mixed` protocol line.
#[derive(Debug, Clone)]
pub enum WireLine {
    /// A single request object.
    Single(PredictRequest),
    /// A small array of requests.
    Array(Vec<PredictRequest>),
}

impl WireLine {
    /// The requests on the line.
    pub fn requests(&self) -> &[PredictRequest] {
        match self {
            WireLine::Single(r) => std::slice::from_ref(r),
            WireLine::Array(v) => v,
        }
    }

    /// The protocol text of the line, newline included.
    pub fn encode(&self) -> String {
        let mut text = match self {
            WireLine::Single(r) => serde_json::to_string(r),
            WireLine::Array(v) => serde_json::to_string(v),
        }
        .expect("requests serialize");
        text.push('\n');
        text
    }
}

/// The `wire_mixed` plan: the warm keys set-up builds, then the lines.
pub struct WirePlan {
    /// One request per warm (region, architecture) key.
    pub warm: Vec<PredictRequest>,
    /// Protocol lines in send order.
    pub lines: Vec<WireLine>,
    /// Whether each line is a cold-region single.
    pub cold: Vec<bool>,
}

/// `wire_mixed`: `blocks` blocks of [`WIRE_BLOCK`] lines in seeded order.
/// Each block holds one cold single (a distinct seeded region), and
/// [`WIRE_ARRAYS`] arrays of 2–8 warm requests; the other lines are warm
/// singles. Warm requests pick uniformly among the warm keys.
pub fn wire_plan(seed: u64, blocks: usize) -> WirePlan {
    let mut rng = SplitMix64::new(seed ^ Workload::WireMixed.salt());
    let mut warm = Vec::new();
    for region in WIRE_REGIONS {
        for _ in 0..WIRE_ARCHS_PER_REGION {
            warm.push(request(warm.len() as u64, region, grid_arch(&mut rng)));
        }
    }
    let mut seen: HashSet<Region> = WIRE_REGIONS.into_iter().collect();
    let n_programs = suite_cached().len() as u64;
    let mut next_id = warm.len() as u64;
    let warm_req = |rng: &mut SplitMix64, id: &mut u64| {
        let mut r = warm[rng.below(warm.len() as u64) as usize].clone();
        r.id = *id;
        *id += 1;
        r
    };
    let mut lines = Vec::with_capacity(blocks * WIRE_BLOCK);
    let mut cold = Vec::with_capacity(blocks * WIRE_BLOCK);
    for _ in 0..blocks {
        // 0 = cold single, 1 = warm array, 2 = warm single.
        let mut kinds = [2u8; WIRE_BLOCK];
        kinds[0] = 0;
        kinds[1..=WIRE_ARRAYS].fill(1);
        rng.shuffle(&mut kinds);
        for kind in kinds {
            let line = match kind {
                0 => {
                    let program = rng.below(n_programs) as usize;
                    let region = fresh_region(&mut rng, program, &mut seen);
                    let r = request(next_id, region, grid_arch(&mut rng));
                    next_id += 1;
                    WireLine::Single(r)
                }
                1 => {
                    let len = 2 + rng.below(7) as usize;
                    WireLine::Array((0..len).map(|_| warm_req(&mut rng, &mut next_id)).collect())
                }
                _ => WireLine::Single(warm_req(&mut rng, &mut next_id)),
            };
            lines.push(line);
            cold.push(kind == 0);
        }
    }
    WirePlan { warm, lines, cold }
}

/// The request sequence a workload sends for `seed` over `units` units
/// (batches, rounds or blocks), serialized one JSON request per line.
pub fn sequence_bytes(workload: Workload, seed: u64, units: usize) -> Vec<u8> {
    let mut out = Vec::new();
    let mut put = |r: &PredictRequest| {
        out.extend_from_slice(
            serde_json::to_string(r)
                .expect("requests serialize")
                .as_bytes(),
        );
        out.push(b'\n');
    };
    match workload {
        Workload::DseSweep => {
            let mut s = DseStream::new(seed);
            let mut batch = Vec::new();
            for _ in 0..units {
                s.next_batch(&mut batch);
                batch.iter().for_each(&mut put);
            }
        }
        Workload::ColdRegions => cold_requests(seed, units).iter().for_each(put),
        Workload::WireMixed => {
            let plan = wire_plan(seed, units);
            plan.warm.iter().for_each(&mut put);
            for line in &plan.lines {
                line.requests().iter().for_each(&mut put);
            }
        }
    }
    out
}

/// FNV-1a of `bytes` (the request-sequence digest printed with each run).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_and_other_seed_other_bytes() {
        for w in Workload::ALL {
            let a = sequence_bytes(w, 11, 3);
            let b = sequence_bytes(w, 11, 3);
            let c = sequence_bytes(w, 12, 3);
            assert!(!a.is_empty(), "{}", w.name());
            assert_eq!(a, b, "{}: same seed must give identical bytes", w.name());
            assert_ne!(
                a,
                c,
                "{}: another seed must give another sequence",
                w.name()
            );
        }
    }

    #[test]
    fn cold_regions_are_distinct_and_stratified() {
        let reqs = cold_requests(5, 4);
        let n = suite_cached().len();
        assert_eq!(reqs.len(), 4 * n);
        let regions: HashSet<Region> = reqs.iter().map(Region::of).collect();
        assert_eq!(
            regions.len(),
            reqs.len(),
            "every cold request names a new region"
        );
        for round in reqs.chunks(n) {
            let programs: HashSet<&str> = round.iter().map(|r| &*r.workload).collect();
            assert_eq!(programs.len(), n, "each round visits every program once");
        }
    }

    #[test]
    fn wire_blocks_have_the_fixed_mix() {
        let plan = wire_plan(9, 3);
        assert_eq!(plan.warm.len(), WIRE_REGIONS.len() * WIRE_ARCHS_PER_REGION);
        assert_eq!(plan.lines.len(), 3 * WIRE_BLOCK);
        for (lines, cold) in plan
            .lines
            .chunks(WIRE_BLOCK)
            .zip(plan.cold.chunks(WIRE_BLOCK))
        {
            assert_eq!(cold.iter().filter(|&&c| c).count(), 1);
            let arrays = lines
                .iter()
                .filter(|l| matches!(l, WireLine::Array(_)))
                .count();
            assert_eq!(arrays, WIRE_ARRAYS);
        }
        let warm_regions: HashSet<Region> = WIRE_REGIONS.into_iter().collect();
        for (line, &is_cold) in plan.lines.iter().zip(&plan.cold) {
            for r in line.requests() {
                assert_eq!(warm_regions.contains(&Region::of(r)), !is_cold);
            }
        }
    }

    #[test]
    fn requests_resolve_and_stay_inside_their_traces() {
        let profile = concorde_core::ReproProfile::quick();
        let mut batch = Vec::new();
        DseStream::new(3).next_batch(&mut batch);
        let wire = wire_plan(3, 2);
        let cold = cold_requests(3, 2);
        let all = batch
            .iter()
            .chain(cold.iter())
            .chain(wire.lines.iter().flat_map(|l| l.requests()));
        for r in all {
            r.arch.resolve().expect("grid architectures resolve");
            let spec = concorde_trace::by_id_ref(&r.workload).expect("suite id");
            assert!(r.trace < spec.n_traces.max(1));
            assert!(r.start >= profile.warmup_len as u64);
            assert!(r.start + profile.region_len as u64 <= spec.trace_len);
        }
    }
}
