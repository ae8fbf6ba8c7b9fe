//! Static program construction and dynamic trace generation.
//!
//! Generation is two-staged, mirroring how a real binary produces a trace:
//!
//! 1. [`build_static_program`] turns a [`WorkloadSpec`] into a fixed CFG of
//!    basic blocks with register assignments, memory patterns and branch
//!    behaviours (deterministic in `(spec.seed, trace_idx)`).
//! 2. [`generate_region`] walks the CFG to emit dynamic instructions. Traces
//!    are divided into fixed [`SEGMENT_LEN`]-instruction segments; the walker
//!    state is re-seeded per segment from `(spec.seed, trace_idx, segment)`,
//!    so any region `[start, start+len)` of a virtual multi-million-instruction
//!    trace can be materialized in `O(len)` without generating the prefix.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

use crate::instruction::{BranchKind, Instruction, OpClass, RegId};
use crate::pattern::{AddressPattern, PatternState};
use crate::program::{BasicBlock, BlockId, BranchBehavior, StaticOp, StaticProgram, Terminator};
use crate::region::DynTrace;
use crate::workload::{PhaseSpec, WorkloadSpec};

/// Number of instructions per independently seeded trace segment.
pub const SEGMENT_LEN: u64 = 4096;

/// Number of memory-address patterns instantiated per phase.
const PATTERNS_PER_PHASE: usize = 12;

/// Base of the synthetic data segment; each phase gets a disjoint 256 MB arena.
const DATA_BASE: u64 = 0x1_0000_0000;
const PHASE_ARENA: u64 = 256 << 20;

/// Registers reserved for pointer-chase chains (serial dependent loads).
const CHASE_REGS: [RegId; 4] = [24, 25, 26, 27];

fn mix_weights(phase: &PhaseSpec) -> Weighted<OpClass, 9> {
    let m = phase.mix;
    Weighted::new([
        (OpClass::IntAlu, m.alu),
        (OpClass::IntMul, m.mul),
        (OpClass::IntDiv, m.div),
        (OpClass::FpAlu, m.fp_alu),
        (OpClass::FpMul, m.fp_mul),
        (OpClass::FpDiv, m.fp_div),
        (OpClass::Load, m.load),
        (OpClass::Store, m.store),
        (OpClass::Nop, m.nop),
    ])
}

/// A discrete distribution for repeated draws: the items, their weights
/// clamped at zero, and the weights' total, summed once.
struct Weighted<T, const N: usize> {
    items: [(T, f32); N],
    total: f32,
}

impl<T: Copy, const N: usize> Weighted<T, N> {
    fn new(items: [(T, f32); N]) -> Self {
        let total = items.iter().map(|(_, w)| w.max(0.0)).sum();
        Weighted {
            items: items.map(|(item, w)| (item, w.max(0.0))),
            total,
        }
    }

    /// Draws an item with probability proportional to its weight.
    fn sample(&self, rng: &mut ChaCha12Rng) -> T {
        let mut x = rng.gen_range(0.0..self.total.max(f32::MIN_POSITIVE));
        for &(item, w) in &self.items {
            if x < w {
                return item;
            }
            x -= w;
        }
        self.items[N - 1].0
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic sub-seed derivation.
fn derive_seed(parts: &[u64]) -> u64 {
    let mut acc = 0x5bd1_e995u64;
    for &p in parts {
        acc = splitmix(acc ^ p);
    }
    acc
}

fn build_phase_patterns(
    phase_idx: usize,
    phase: &PhaseSpec,
    rng: &mut ChaCha12Rng,
) -> Vec<AddressPattern> {
    let arena = DATA_BASE + phase_idx as u64 * PHASE_ARENA;
    let wss = phase.mem.wss_bytes.max(1024);
    let stack_wss = wss.min(16 * 1024);
    let stack_base = arena + PHASE_ARENA / 2;
    let fams = Weighted::new([
        (0u8, phase.mem.seq_w),
        (1, phase.mem.strided_w),
        (2, phase.mem.random_w),
        (3, phase.mem.chase_w),
        (4, phase.mem.stack_w),
    ]);
    (0..PATTERNS_PER_PHASE)
        .map(|_| match fams.sample(rng) {
            0 => AddressPattern::Sequential { base: arena, wss },
            1 => AddressPattern::Strided {
                base: arena,
                wss,
                stride: phase.mem.stride_bytes.max(64),
            },
            2 => AddressPattern::Random { base: arena, wss },
            3 => AddressPattern::PointerChase { base: arena, wss },
            _ => AddressPattern::Stack {
                base: stack_base,
                wss: stack_wss,
            },
        })
        .collect()
}

/// The four behaviour families of `spec`'s conditional branches.
fn behavior_kinds(spec: &WorkloadSpec) -> Weighted<u8, 4> {
    let b = spec.branch;
    Weighted::new([
        (0u8, b.biased_w),
        (1, b.loop_w),
        (2, b.periodic_w),
        (3, b.random_w),
    ])
}

fn sample_behavior(
    spec: &WorkloadSpec,
    kinds: &Weighted<u8, 4>,
    rng: &mut ChaCha12Rng,
) -> BranchBehavior {
    let b = spec.branch;
    match kinds.sample(rng) {
        0 => {
            let p = rng.gen_range(0.9f32..0.99);
            BranchBehavior::Biased {
                taken_prob: if rng.gen_bool(0.5) { p } else { 1.0 - p },
            }
        }
        1 => {
            let lo = (b.avg_trip / 2).max(2);
            let hi = (b.avg_trip.saturating_mul(2)).max(lo + 1);
            BranchBehavior::Loop {
                trip: rng.gen_range(lo..=hi),
            }
        }
        2 => BranchBehavior::Periodic {
            pattern: rng.gen::<u32>(),
            period: rng.gen_range(3..=16),
        },
        _ => BranchBehavior::Biased {
            taken_prob: rng.gen_range(0.3f32..0.7),
        },
    }
}

fn pick_reg(fp: bool, rng: &mut ChaCha12Rng) -> RegId {
    if fp {
        rng.gen_range(32..60)
    } else {
        rng.gen_range(0..24)
    }
}

/// Builds the deterministic static CFG for trace `trace_idx` of `spec`.
///
/// Blocks are partitioned contiguously among phases; every block's branch
/// targets stay within its phase group, so the dynamic walker remains in the
/// phase's working set until the segment schedule switches phases.
pub fn build_static_program(spec: &WorkloadSpec, trace_idx: u32) -> StaticProgram {
    let mut rng = ChaCha12Rng::seed_from_u64(derive_seed(&[spec.seed, trace_idx as u64, 0xC0DE]));
    let n_phases = spec.phases.len().max(1);
    let blocks_per_phase = (spec.code.n_blocks as usize / n_phases).max(2);
    let total_blocks = blocks_per_phase * n_phases;

    let mut patterns = Vec::new();
    let mut phase_pattern_ranges = Vec::new();
    for (pi, phase) in spec.phases.iter().enumerate() {
        let start = patterns.len();
        patterns.extend(build_phase_patterns(pi, phase, &mut rng));
        phase_pattern_ranges.push(start..patterns.len());
    }

    let mut blocks = Vec::with_capacity(total_blocks);
    let mut pc = spec.code.code_base;
    let mut chase_cursor = 0usize;
    let b = spec.branch;
    let terminator_kinds = Weighted::new([
        (0u8, b.cond_frac),
        (1, b.uncond_frac),
        (2, b.indirect_frac),
        (
            3,
            (1.0 - b.cond_frac - b.uncond_frac - b.indirect_frac).max(0.0),
        ),
    ]);
    let behavior_kinds = behavior_kinds(spec);

    #[allow(clippy::needless_range_loop)] // phase_idx indexes two parallel arrays
    for phase_idx in 0..n_phases {
        let phase = &spec.phases[phase_idx];
        let weights = mix_weights(phase);
        let prange = phase_pattern_ranges[phase_idx].clone();
        let lo_id = (phase_idx * blocks_per_phase) as BlockId;
        let hi_id = lo_id + blocks_per_phase as BlockId;

        for local in 0..blocks_per_phase {
            let id = lo_id + local as BlockId;
            let next_in_phase = if id + 1 < hi_id { id + 1 } else { lo_id };
            let len_lo = (spec.code.avg_block_len / 2).max(1);
            let len_hi = (spec.code.avg_block_len * 3 / 2).max(len_lo + 1);
            let n_ops = rng.gen_range(len_lo..=len_hi) as usize;

            let mut ops = Vec::with_capacity(n_ops);
            let mut last_dst: Option<RegId> = None;
            for _ in 0..n_ops {
                let op = weights.sample(&mut rng);
                let chain = last_dst.filter(|_| rng.gen::<f32>() < spec.chain_frac);
                let (srcs, dst, pattern_idx) = match op {
                    OpClass::Load => {
                        let pidx = rng.gen_range(prange.clone());
                        if matches!(patterns[pidx], AddressPattern::PointerChase { .. }) {
                            // Serial chase: the load's address register is its own
                            // destination, creating a dependent-miss chain.
                            let creg = CHASE_REGS[chase_cursor % CHASE_REGS.len()];
                            chase_cursor += 1;
                            ([Some(creg), None], Some(creg), pidx as u32)
                        } else {
                            let addr_reg = chain.unwrap_or_else(|| pick_reg(false, &mut rng));
                            (
                                [Some(addr_reg), None],
                                Some(pick_reg(false, &mut rng)),
                                pidx as u32,
                            )
                        }
                    }
                    OpClass::Store => {
                        let pidx = rng.gen_range(prange.clone());
                        let data = chain.unwrap_or_else(|| pick_reg(false, &mut rng));
                        (
                            [Some(data), Some(pick_reg(false, &mut rng))],
                            None,
                            pidx as u32,
                        )
                    }
                    OpClass::Nop => ([None, None], None, u32::MAX),
                    other => {
                        let fp = other.is_fp();
                        let a = chain.unwrap_or_else(|| pick_reg(fp, &mut rng));
                        let b = if rng.gen_bool(0.7) {
                            Some(pick_reg(fp, &mut rng))
                        } else {
                            None
                        };
                        ([Some(a), b], Some(pick_reg(fp, &mut rng)), u32::MAX)
                    }
                };
                if let Some(d) = dst {
                    last_dst = Some(d);
                }
                ops.push(StaticOp {
                    op,
                    srcs,
                    dst,
                    pattern_idx,
                });
            }

            // Terminator.
            let terminator = match terminator_kinds.sample(&mut rng) {
                0 => {
                    let behavior = sample_behavior(spec, &behavior_kinds, &mut rng);
                    // Loop back-edges target an earlier (or same) block so that
                    // "taken" really forms a loop; other conditionals jump anywhere
                    // within the phase.
                    let target = if matches!(behavior, BranchBehavior::Loop { .. }) {
                        rng.gen_range(lo_id..=id)
                    } else {
                        rng.gen_range(lo_id..hi_id)
                    };
                    Terminator::CondBranch {
                        behavior,
                        target,
                        fall: next_in_phase,
                    }
                }
                1 => Terminator::Jump {
                    target: rng.gen_range(lo_id..hi_id),
                },
                2 => {
                    let n = b.indirect_targets.max(2) as usize;
                    let targets = (0..n).map(|_| rng.gen_range(lo_id..hi_id)).collect();
                    Terminator::IndirectBranch { targets }
                }
                _ => Terminator::FallThrough {
                    next: next_in_phase,
                },
            };

            let dyn_len =
                ops.len() + usize::from(!matches!(terminator, Terminator::FallThrough { .. }));
            blocks.push(BasicBlock {
                base_pc: pc,
                ops,
                terminator,
                phase: phase_idx as u8,
            });
            pc += dyn_len as u64 * 4;
        }
    }

    let code_bytes = pc - spec.code.code_base;
    let phase_entries = (0..n_phases)
        .map(|p| (p * blocks_per_phase) as BlockId)
        .collect();
    StaticProgram {
        blocks,
        phase_entries,
        patterns,
        code_bytes,
    }
}

/// Per-segment dynamic walker state.
struct Walker<'a> {
    prog: &'a StaticProgram,
    rng: ChaCha12Rng,
    pattern_states: Vec<PatternState>,
    branch_counts: Vec<u32>,
    cur: BlockId,
    op_idx: usize,
    isb_prob: f64,
}

impl<'a> Walker<'a> {
    fn new(prog: &'a StaticProgram, spec: &WorkloadSpec, phase: u8, seed: u64) -> Self {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let pattern_states = prog
            .patterns
            .iter()
            .map(|p| PatternState::seeded(p, &mut rng))
            .collect();
        let n_phases = prog.phase_entries.len() as u32;
        let blocks_per_phase = prog.blocks.len() as u32 / n_phases.max(1);
        let entry = prog.entry(phase);
        let cur = entry + rng.gen_range(0..blocks_per_phase.max(1));
        Walker {
            prog,
            rng,
            pattern_states,
            branch_counts: vec![0; prog.blocks.len()],
            cur,
            op_idx: 0,
            isb_prob: f64::from(spec.isb_per_kinstr) / 1000.0,
        }
    }

    fn decide(&mut self, behavior: BranchBehavior, count: u32) -> bool {
        match behavior {
            BranchBehavior::Biased { taken_prob } => self.rng.gen::<f32>() < taken_prob,
            BranchBehavior::Loop { trip } => {
                let t = trip.max(1) as u32;
                count % t != t - 1
            }
            BranchBehavior::Periodic { pattern, period } => {
                let p = period.clamp(1, 32) as u32;
                (pattern >> (count % p)) & 1 == 1
            }
        }
    }

    /// Emits the next dynamic instruction.
    fn next_instr(&mut self) -> Instruction {
        let prog = self.prog;
        loop {
            let block = &prog.blocks[self.cur as usize];
            if self.op_idx < block.ops.len() {
                let op = block.ops[self.op_idx];
                let pc = block.base_pc + self.op_idx as u64 * 4;
                self.op_idx += 1;
                if self.isb_prob > 0.0 && self.rng.gen_bool(self.isb_prob) {
                    return Instruction::compute(pc, OpClass::Isb, [None, None], None);
                }
                let instr = match op.op {
                    OpClass::Load | OpClass::Store => {
                        let pat = &self.prog.patterns[op.pattern_idx as usize];
                        let addr = self.pattern_states[op.pattern_idx as usize]
                            .next_addr(pat, &mut self.rng);
                        Instruction {
                            pc,
                            op: op.op,
                            srcs: op.srcs,
                            dst: op.dst,
                            mem_addr: addr,
                            taken: false,
                            target: 0,
                        }
                    }
                    other => Instruction::compute(pc, other, op.srcs, op.dst),
                };
                return instr;
            }

            // Terminator.
            let branch_pc = block.base_pc + block.ops.len() as u64 * 4;
            let count = self.branch_counts[self.cur as usize];
            self.branch_counts[self.cur as usize] = count.wrapping_add(1);
            self.op_idx = 0;
            match &block.terminator {
                Terminator::FallThrough { next } => {
                    self.cur = *next;
                    // No instruction emitted; continue with the next block.
                }
                Terminator::Jump { target } => {
                    let tpc = prog.blocks[*target as usize].base_pc;
                    self.cur = *target;
                    return Instruction::branch(
                        branch_pc,
                        BranchKind::DirectUncond,
                        [None, None],
                        true,
                        tpc,
                    );
                }
                Terminator::CondBranch {
                    behavior,
                    target,
                    fall,
                } => {
                    let taken = self.decide(*behavior, count);
                    let next = if taken { *target } else { *fall };
                    let tpc = prog.blocks[*target as usize].base_pc;
                    self.cur = next;
                    return Instruction::branch(
                        branch_pc,
                        BranchKind::DirectCond,
                        [Some(pick_src_flag(count)), None],
                        taken,
                        tpc,
                    );
                }
                Terminator::IndirectBranch { targets } => {
                    let t = targets[self.rng.gen_range(0..targets.len())];
                    let tpc = prog.blocks[t as usize].base_pc;
                    self.cur = t;
                    return Instruction::branch(
                        branch_pc,
                        BranchKind::Indirect,
                        [Some(30), None],
                        true,
                        tpc,
                    );
                }
            }
        }
    }
}

/// Flag-producing register for conditional branches: conditions depend on a
/// rotating small set of integer registers, creating realistic compute→branch
/// dependencies without tracking real flags.
fn pick_src_flag(count: u32) -> RegId {
    (count % 8) as RegId
}

/// Generates the dynamic instructions of region `[start, start + len)` of trace
/// `trace_idx` of `spec`.
///
/// Deterministic: identical arguments always produce an identical trace, and
/// overlapping regions of the same trace share their overlapping instructions
/// (segment-aligned), which is what makes the paper's train/test overlap study
/// (Figure 4) meaningful.
///
/// # Examples
///
/// ```
/// let spec = concorde_trace::by_id("O1").unwrap();
/// let region = concorde_trace::generate_region(&spec, 0, 0, 1000);
/// assert_eq!(region.instrs.len(), 1000);
/// ```
pub fn generate_region(spec: &WorkloadSpec, trace_idx: u32, start: u64, len: usize) -> DynTrace {
    let prog = build_static_program(spec, trace_idx);
    let n_phases = spec.phases.len().max(1) as u64;
    let mut instrs = Vec::with_capacity(len);

    let mut seg = start / SEGMENT_LEN;
    let mut skip = (start % SEGMENT_LEN) as usize;
    while instrs.len() < len {
        let phase = ((seg * SEGMENT_LEN / spec.phase_len.max(1)) % n_phases) as u8;
        let seed = derive_seed(&[spec.seed, trace_idx as u64, seg, 0x5E6]);
        let mut walker = Walker::new(&prog, spec, phase, seed);
        let mut emitted = 0u64;
        while emitted < SEGMENT_LEN && instrs.len() < len {
            let instr = walker.next_instr();
            emitted += 1;
            if skip > 0 {
                skip -= 1;
            } else {
                instrs.push(instr);
            }
        }
        seg += 1;
    }

    DynTrace {
        workload_id: spec.id.clone(),
        trace_idx,
        start,
        instrs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{by_id, suite};

    #[test]
    fn generation_is_deterministic() {
        let spec = by_id("S5").unwrap();
        let a = generate_region(&spec, 1, 8192, 2000);
        let b = generate_region(&spec, 1, 8192, 2000);
        assert_eq!(a.instrs, b.instrs);
    }

    #[test]
    fn overlapping_regions_share_instructions() {
        let spec = by_id("S8").unwrap();
        let a = generate_region(&spec, 0, 0, (SEGMENT_LEN * 2) as usize);
        let b = generate_region(&spec, 0, SEGMENT_LEN, (SEGMENT_LEN * 2) as usize);
        // The second half of `a` equals the first half of `b`.
        assert_eq!(
            a.instrs[SEGMENT_LEN as usize..],
            b.instrs[..SEGMENT_LEN as usize]
        );
    }

    #[test]
    fn different_traces_differ() {
        let spec = by_id("S2").unwrap();
        let a = generate_region(&spec, 0, 0, 1000);
        let b = generate_region(&spec, 1, 0, 1000);
        assert_ne!(a.instrs, b.instrs);
    }

    #[test]
    fn unaligned_start_is_consistent_with_aligned_generation() {
        let spec = by_id("O2").unwrap();
        let aligned = generate_region(&spec, 0, 0, 600);
        let offset = generate_region(&spec, 0, 100, 500);
        assert_eq!(&aligned.instrs[100..600], &offset.instrs[..]);
    }

    #[test]
    fn mix_roughly_matches_spec() {
        let spec = by_id("P5").unwrap(); // Video: FP heavy
        let t = generate_region(&spec, 0, 0, 20_000);
        let fp = t.instrs.iter().filter(|i| i.op.is_fp()).count() as f64 / t.instrs.len() as f64;
        assert!(fp > 0.2, "FP fraction {fp} too low for a video workload");
        let loads =
            t.instrs.iter().filter(|i| i.op.is_load()).count() as f64 / t.instrs.len() as f64;
        assert!(loads > 0.05 && loads < 0.6);
    }

    #[test]
    fn chase_loads_are_self_dependent() {
        let spec = by_id("S1").unwrap(); // mcf: pointer chasing
        let t = generate_region(&spec, 0, 0, 20_000);
        let self_dep = t
            .instrs
            .iter()
            .filter(|i| i.op.is_load() && i.dst.is_some() && i.srcs[0] == i.dst)
            .count();
        assert!(
            self_dep > 100,
            "expected many self-dependent chase loads, got {self_dep}"
        );
    }

    #[test]
    fn branches_present_with_targets() {
        let spec = by_id("S4").unwrap();
        let t = generate_region(&spec, 0, 0, 10_000);
        let branches: Vec<_> = t.instrs.iter().filter(|i| i.op.is_branch()).collect();
        assert!(
            branches.len() > 500,
            "leela should be branchy, got {}",
            branches.len()
        );
        for b in &branches {
            assert!(b.target != 0);
        }
        let taken = branches.iter().filter(|b| b.taken).count() as f64 / branches.len() as f64;
        assert!(taken > 0.2 && taken < 0.95, "taken rate {taken}");
    }

    #[test]
    fn code_footprints_ordered_by_shape() {
        let small = build_static_program(&by_id("O1").unwrap(), 0);
        let large = build_static_program(&by_id("S10").unwrap(), 0);
        assert!(large.code_bytes > 4 * small.code_bytes);
    }

    #[test]
    fn all_suite_workloads_generate() {
        for spec in suite() {
            let t = generate_region(&spec, 0, 0, 512);
            assert_eq!(t.instrs.len(), 512, "{}", spec.id);
            assert!(
                t.instrs.iter().any(|i| i.op.is_load()),
                "{} has no loads",
                spec.id
            );
        }
    }

    #[test]
    fn isb_injection_respects_rate() {
        let spec = by_id("O4").unwrap();
        let t = generate_region(&spec, 0, 0, 50_000);
        let isbs = t.instrs.iter().filter(|i| i.op == OpClass::Isb).count();
        assert!(isbs > 0, "O4 specifies ISBs");
        let none = by_id("S5").unwrap();
        let t2 = generate_region(&none, 0, 0, 50_000);
        assert_eq!(t2.instrs.iter().filter(|i| i.op == OpClass::Isb).count(), 0);
    }
}
