//! Versioned schema of the flat ML feature vector.
//!
//! A [`FeatureSchema`] names every block of the model input — one block per
//! [`Resource`], the misprediction scalar, the pipeline-stall group, the
//! latency-distribution group, and the parameter tail — with its offset and
//! length for a given encoding width and [`FeatureVariant`]. It is the single
//! source of truth shared by feature assembly ([`FeatureStore`]), variant
//! projection, the trainer, Shapley attribution over feature blocks, the
//! ablation experiments, and the serving wire protocol (`{"cmd": "schema"}`),
//! replacing the hand-kept `11·e + 1 + …` index arithmetic that previously
//! lived in each of those places.
//!
//! [`FeatureStore`]: crate::features::FeatureStore

use concorde_analytic::distribution::Encoding;
use concorde_analytic::rob::ROB_SWEEP;
use concorde_cyclesim::MicroArch;
use serde::{Deserialize, Serialize};

use crate::features::{FeatureVariant, Resource};

/// Version of the feature-vector layout. Bump on any change to block order,
/// block contents, or encoding semantics; persisted in store artifacts and
/// reported over the serving protocol so offline featurization and online
/// serving can detect mismatches.
///
/// v3: store blobs carry an arena-encoding tag word (always `0`, lossless
/// `f32`) and a per-arena params length (always `0`), and the artifact layout
/// is 8-byte-aligned for zero-copy mmap loads.
pub const SCHEMA_VERSION: u32 = 3;

/// Which section of the vector a block belongs to (paper Table 3 columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BlockGroup {
    /// Per-resource throughput distributions (§3.2.1).
    Primary,
    /// The branch-misprediction-rate scalar (§3.2.2).
    Mispredict,
    /// Pipeline-stall features: ISB/branch window counts + ROB curve (§3.2.2).
    Stall,
    /// Latency distributions (§3.2.2).
    Latency,
    /// The 23-dimensional normalized parameter tail.
    Params,
}

impl BlockGroup {
    /// All groups in vector order.
    pub const ALL: [BlockGroup; 5] = [
        BlockGroup::Primary,
        BlockGroup::Mispredict,
        BlockGroup::Stall,
        BlockGroup::Latency,
        BlockGroup::Params,
    ];
}

/// One named, contiguous span of the feature vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureBlock {
    /// Stable block name (e.g. `"rob"`, `"issue_latency"`, `"params"`).
    pub name: String,
    /// Section the block belongs to.
    pub group: BlockGroup,
    /// First dimension of the block.
    pub offset: usize,
    /// Number of dimensions.
    pub len: usize,
}

impl FeatureBlock {
    /// Index range of the block within the feature vector.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.offset..self.offset + self.len
    }
}

/// The complete, versioned layout of one feature vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureSchema {
    /// Layout version ([`SCHEMA_VERSION`]).
    pub version: u32,
    /// Distribution encoding the blocks were sized for.
    pub encoding: Encoding,
    /// Feature groups included.
    pub variant: FeatureVariant,
    blocks: Vec<FeatureBlock>,
}

impl FeatureSchema {
    /// Builds the schema for `encoding` and `variant`.
    pub fn new(encoding: Encoding, variant: FeatureVariant) -> Self {
        let e = encoding.dim();
        let s = ROB_SWEEP.len();
        let mut blocks = Vec::with_capacity(Resource::ALL.len() + 10);
        let mut offset = 0usize;
        let mut push = |name: &str, group: BlockGroup, len: usize| {
            blocks.push(FeatureBlock {
                name: name.to_string(),
                group,
                offset,
                len,
            });
            offset += len;
        };
        for res in Resource::ALL {
            push(res.name(), BlockGroup::Primary, e);
        }
        push("mispredict", BlockGroup::Mispredict, 1);
        if variant != FeatureVariant::Base {
            push("isb", BlockGroup::Stall, e);
            push("branch_direct_uncond", BlockGroup::Stall, e);
            push("branch_direct_cond", BlockGroup::Stall, e);
            push("branch_indirect", BlockGroup::Stall, e);
            push("rob_curve", BlockGroup::Stall, s);
        }
        if variant == FeatureVariant::Full {
            push("exec_latency", BlockGroup::Latency, e);
            push("issue_latency", BlockGroup::Latency, s * e);
            push("commit_latency", BlockGroup::Latency, s * e);
        }
        push("params", BlockGroup::Params, MicroArch::ENCODED_DIM);
        let schema = FeatureSchema {
            version: SCHEMA_VERSION,
            encoding,
            variant,
            blocks,
        };
        debug_assert_eq!(schema.dim(), Self::dim_for(encoding, variant));
        schema
    }

    /// Total input dimension for `encoding` and `variant` without building
    /// the block list (what [`FeatureLayout::dim`] delegates to).
    ///
    /// [`FeatureLayout::dim`]: crate::features::FeatureLayout::dim
    pub fn dim_for(encoding: Encoding, variant: FeatureVariant) -> usize {
        let e = encoding.dim();
        let s = ROB_SWEEP.len();
        let base = Resource::ALL.len() * e + 1 + MicroArch::ENCODED_DIM;
        match variant {
            FeatureVariant::Base => base,
            FeatureVariant::BaseBranch => base + 4 * e + s,
            FeatureVariant::Full => base + 4 * e + s + (2 * s + 1) * e,
        }
    }

    /// Total input dimension.
    pub fn dim(&self) -> usize {
        self.blocks.last().map_or(0, |b| b.offset + b.len)
    }

    /// All blocks in vector order.
    pub fn blocks(&self) -> &[FeatureBlock] {
        &self.blocks
    }

    /// Looks up a block by name.
    pub fn block(&self, name: &str) -> Option<&FeatureBlock> {
        self.blocks.iter().find(|b| b.name == name)
    }

    /// Index range of a named block.
    pub fn range(&self, name: &str) -> Option<std::ops::Range<usize>> {
        self.block(name).map(FeatureBlock::range)
    }

    /// Contiguous index range covered by a whole group (blocks of one group
    /// are adjacent by construction); `None` if the variant omits the group.
    pub fn group_range(&self, group: BlockGroup) -> Option<std::ops::Range<usize>> {
        let mut it = self.blocks.iter().filter(|b| b.group == group);
        let first = it.next()?;
        let last = it.next_back().unwrap_or(first);
        Some(first.offset..last.offset + last.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_schema_matches_table3() {
        let s = FeatureSchema::new(Encoding::paper(), FeatureVariant::Full);
        assert_eq!(s.dim(), 3873);
        assert_eq!(s.version, SCHEMA_VERSION);
        assert_eq!(s.blocks().len(), 11 + 1 + 5 + 3 + 1);
        // Blocks tile the vector exactly: contiguous, no gaps or overlaps.
        let mut pos = 0;
        for b in s.blocks() {
            assert_eq!(b.offset, pos, "{}", b.name);
            pos += b.len;
        }
        assert_eq!(pos, s.dim());
    }

    #[test]
    fn variants_drop_whole_groups() {
        let enc = Encoding { levels: 8 };
        let base = FeatureSchema::new(enc, FeatureVariant::Base);
        assert!(base.group_range(BlockGroup::Stall).is_none());
        assert!(base.group_range(BlockGroup::Latency).is_none());
        let bb = FeatureSchema::new(enc, FeatureVariant::BaseBranch);
        assert!(bb.group_range(BlockGroup::Stall).is_some());
        assert!(bb.group_range(BlockGroup::Latency).is_none());
        let full = FeatureSchema::new(enc, FeatureVariant::Full);
        for g in BlockGroup::ALL {
            assert!(full.group_range(g).is_some(), "{g:?}");
        }
        // Shared blocks sit at identical offsets across variants.
        for name in ["rob", "mem_latency", "mispredict"] {
            assert_eq!(base.range(name), full.range(name), "{name}");
        }
    }

    #[test]
    fn dim_for_agrees_with_blocks() {
        for levels in [4usize, 8, 16, 50] {
            let enc = Encoding { levels };
            for v in [
                FeatureVariant::Base,
                FeatureVariant::BaseBranch,
                FeatureVariant::Full,
            ] {
                assert_eq!(
                    FeatureSchema::new(enc, v).dim(),
                    FeatureSchema::dim_for(enc, v)
                );
            }
        }
    }

    #[test]
    fn named_lookups_and_params_tail() {
        let s = FeatureSchema::new(Encoding::compact(), FeatureVariant::Full);
        let params = s.block("params").unwrap();
        assert_eq!(params.len, MicroArch::ENCODED_DIM);
        assert_eq!(params.offset + params.len, s.dim());
        assert!(s.block("no_such_block").is_none());
        let e = Encoding::compact().dim();
        assert_eq!(s.range("rob").unwrap(), 0..e);
        assert_eq!(s.block("issue_latency").unwrap().len, ROB_SWEEP.len() * e);
    }
}
