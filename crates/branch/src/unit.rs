//! The combined branch unit: conditional predictor + indirect target predictor,
//! driven trace-style (outcome known at prediction time).

use concorde_trace::{BranchKind, Instruction};
use serde::{Deserialize, Serialize};

use crate::btb::TargetPredictor;
use crate::simple::SimplePredictor;
use crate::tage::Tage;
use crate::ConditionalPredictor;

/// Which conditional predictor the core uses (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum PredictorKind {
    /// Random mispredictor with the given percentage (0..=100).
    Simple {
        /// Misprediction percentage.
        miss_pct: u8,
    },
    /// TAGE predictor.
    #[default]
    Tage,
}

enum CondImpl {
    Simple(Box<SimplePredictor>),
    Tage(Box<Tage>),
}

/// Branch unit combining a conditional predictor with an indirect-target table.
pub struct BranchUnit {
    cond: CondImpl,
    targets: TargetPredictor,
    stats: BranchStats,
}

/// Aggregate branch statistics over a simulated trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BranchStats {
    /// Total branch instructions observed.
    pub branches: u64,
    /// Conditional branches observed.
    pub conditional: u64,
    /// Indirect branches observed.
    pub indirect: u64,
    /// Total mispredictions (direction or target).
    pub mispredictions: u64,
}

impl BranchStats {
    /// Mispredictions per branch (0 when no branches were seen).
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.branches as f64
        }
    }

    /// Mispredictions per 1000 instructions, given the region length.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.mispredictions as f64 * 1000.0 / instructions as f64
        }
    }
}

impl BranchUnit {
    /// Creates a branch unit of the given kind. `seed` only matters for
    /// [`PredictorKind::Simple`].
    pub fn new(kind: PredictorKind, seed: u64) -> Self {
        let cond = match kind {
            PredictorKind::Simple { miss_pct } => {
                CondImpl::Simple(Box::new(SimplePredictor::new(miss_pct, seed)))
            }
            PredictorKind::Tage => CondImpl::Tage(Box::default()),
        };
        BranchUnit {
            cond,
            targets: TargetPredictor::default(),
            stats: BranchStats::default(),
        }
    }

    /// Processes one branch instruction; returns `true` if it was mispredicted
    /// (direction for conditionals, target for indirects; direct unconditional
    /// branches never mispredict).
    ///
    /// Non-branch instructions are ignored and return `false`.
    pub fn observe(&mut self, instr: &Instruction) -> bool {
        let kind = match instr.op {
            concorde_trace::OpClass::Branch(k) => k,
            _ => return false,
        };
        self.stats.branches += 1;
        let mispredicted = match kind {
            BranchKind::DirectUncond => false,
            BranchKind::DirectCond => {
                self.stats.conditional += 1;
                let pred = match &mut self.cond {
                    CondImpl::Simple(s) => {
                        s.set_outcome(instr.taken);
                        s.predict(instr.pc)
                    }
                    CondImpl::Tage(t) => t.predict(instr.pc),
                };
                match &mut self.cond {
                    CondImpl::Simple(s) => s.update(instr.pc, instr.taken),
                    CondImpl::Tage(t) => t.update(instr.pc, instr.taken),
                }
                pred != instr.taken
            }
            BranchKind::Indirect => {
                self.stats.indirect += 1;
                let pred = self.targets.predict(instr.pc);
                self.targets.update(instr.pc, instr.target);
                pred != Some(instr.target)
            }
        };
        if mispredicted {
            self.stats.mispredictions += 1;
        }
        mispredicted
    }

    /// Runs the whole region through the unit, returning per-instruction
    /// mispredict flags (aligned with `instrs`) and summary stats.
    pub fn simulate(
        kind: PredictorKind,
        seed: u64,
        instrs: &[Instruction],
    ) -> (Vec<bool>, BranchStats) {
        let mut unit = BranchUnit::new(kind, seed);
        let flags = instrs.iter().map(|i| unit.observe(i)).collect();
        (flags, unit.stats)
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> BranchStats {
        self.stats
    }

    /// Zeroes the statistics (e.g. after predictor warmup) while keeping the
    /// learned predictor state.
    pub fn reset_stats(&mut self) {
        self.stats = BranchStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concorde_trace::{by_id, generate_region};

    #[test]
    fn tage_beats_simple50_on_predictable_code() {
        let spec = by_id("S5").unwrap(); // exchange2: predictable branches
        let t = generate_region(&spec, 0, 0, 30_000);
        let (_, tage) = BranchUnit::simulate(PredictorKind::Tage, 1, &t.instrs);
        let (_, simple) =
            BranchUnit::simulate(PredictorKind::Simple { miss_pct: 50 }, 1, &t.instrs);
        assert!(
            tage.mispredict_rate() < simple.mispredict_rate() / 2.0,
            "tage {} vs simple50 {}",
            tage.mispredict_rate(),
            simple.mispredict_rate()
        );
    }

    #[test]
    fn unpredictable_code_has_higher_tage_rate() {
        let easy = by_id("S5").unwrap();
        let hard = by_id("S4").unwrap(); // leela: unpredictable profile
        let te = generate_region(&easy, 0, 0, 30_000);
        let th = generate_region(&hard, 0, 0, 30_000);
        let (_, e) = BranchUnit::simulate(PredictorKind::Tage, 1, &te.instrs);
        let (_, h) = BranchUnit::simulate(PredictorKind::Tage, 1, &th.instrs);
        assert!(
            h.mispredict_rate() > e.mispredict_rate(),
            "hard {} should exceed easy {}",
            h.mispredict_rate(),
            e.mispredict_rate()
        );
    }

    #[test]
    fn flags_align_with_branches_only() {
        let spec = by_id("O2").unwrap();
        let t = generate_region(&spec, 0, 0, 5_000);
        let (flags, stats) = BranchUnit::simulate(PredictorKind::Tage, 1, &t.instrs);
        assert_eq!(flags.len(), t.instrs.len());
        for (f, i) in flags.iter().zip(&t.instrs) {
            if *f {
                assert!(i.op.is_branch(), "only branches may mispredict");
            }
        }
        assert_eq!(
            flags.iter().filter(|f| **f).count() as u64,
            stats.mispredictions
        );
    }

    #[test]
    fn simple_rate_controls_mispredictions() {
        let spec = by_id("S8").unwrap();
        let t = generate_region(&spec, 0, 0, 30_000);
        let (_, lo) = BranchUnit::simulate(PredictorKind::Simple { miss_pct: 5 }, 9, &t.instrs);
        let (_, hi) = BranchUnit::simulate(PredictorKind::Simple { miss_pct: 60 }, 9, &t.instrs);
        assert!(hi.mispredictions > 3 * lo.mispredictions);
    }

    #[test]
    fn mpki_and_rate_helpers() {
        let s = BranchStats {
            branches: 100,
            conditional: 80,
            indirect: 5,
            mispredictions: 10,
        };
        assert!((s.mispredict_rate() - 0.1).abs() < 1e-12);
        assert!((s.mpki(10_000) - 1.0).abs() < 1e-12);
        assert_eq!(BranchStats::default().mispredict_rate(), 0.0);
        assert_eq!(BranchStats::default().mpki(0), 0.0);
    }
}
