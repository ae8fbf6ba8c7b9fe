//! # concorde-core
//!
//! The paper's primary contribution: Concorde's compositional analytical-ML
//! CPU performance model.
//!
//! The crate wires the substrates together into the Figure 3 pipeline:
//!
//! 1. **Trace analysis + analytical models** (`concorde-analytic`) run once
//!    per region over a [`SweepConfig`] of parameter values, producing a
//!    [`FeatureStore`] of percentile-encoded performance distributions.
//! 2. A lightweight MLP ([`ConcordePredictor`]) maps any microarchitecture's
//!    distributions + parameter vector to CPI in microseconds.
//! 3. [`dataset`] generates ground-truth-labelled training data with the
//!    cycle-level simulator; [`trainer`] fits the model with AdamW and the
//!    relative-error loss; [`longrun`] estimates arbitrarily long programs by
//!    region sampling.
//!
//! ```no_run
//! use concorde_core::prelude::*;
//! use concorde_cyclesim::MicroArch;
//!
//! let profile = ReproProfile::quick();
//! let cfg = DatasetConfig::random(profile.clone(), 64, 1);
//! let data = generate_dataset(&cfg);
//! let (train, test) = data.split_at(48);
//! let (model, stats) = train_and_evaluate(train, test, &profile, &TrainOptions::default());
//! println!("mean relative CPI error: {:.2}%", stats.mean * 100.0);
//! # let _ = (model, MicroArch::arm_n1());
//! ```

#![warn(missing_docs)]

pub mod arena;
pub mod cache;
pub mod dataset;
pub mod features;
pub mod keystr;
pub mod longrun;
pub mod metrics;
pub mod minbound;
pub mod model;
pub mod parallel;
pub mod schema;
pub mod sweep;
pub mod trainer;

/// Convenient re-exports of the crate's primary API.
pub mod prelude {
    pub use crate::arena::{EncArena, MappedStore, RawArena};
    pub use crate::cache::{
        sweep_content_hash, CacheStats, FeatureKey, ShardStats, ShardedStoreCache, StoreArtifact,
    };
    pub use crate::dataset::{
        generate_dataset, overlap_report, project_features, ArchSampling, DatasetConfig,
        FeatureProjection, Sample,
    };
    pub use crate::features::{
        AssemblyScratch, FeatureLayout, FeatureStore, FeatureVariant, Resource,
    };
    pub use crate::keystr::KeyStr;
    pub use crate::longrun::{long_program_experiment, LongRunResult};
    pub use crate::metrics::{bucketed, per_program, GroupStats};
    pub use crate::minbound::{analytic_min_bound_cpi, MinBoundEstimator};
    pub use crate::model::{ConcordePredictor, Normalizer, PredictScratch};
    pub use crate::parallel::{parallel_map, parallel_map_all};
    pub use crate::schema::{BlockGroup, FeatureBlock, FeatureSchema, SCHEMA_VERSION};
    pub use crate::sweep::{pow2_sweep, ReproProfile, SweepConfig};
    pub use crate::trainer::{
        predict_all, predict_all_with_labels, train_and_evaluate, train_model,
        train_model_with_labels, TrainOptions,
    };
}

pub use prelude::*;
