//! # concorde-suite
//!
//! Facade for the Concorde reproduction — *Concorde: Fast and Accurate CPU
//! Performance Modeling with Compositional Analytical-ML Fusion* (ISCA 2025)
//! — re-exporting every workspace crate under one roof. See the repository
//! `README.md` for the architecture overview, the feature pipeline, the
//! serving engine and how the reproduction is scaled.
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`trace`] | `concorde-trace` | synthetic workloads + instruction traces |
//! | [`branch`] | `concorde-branch` | TAGE / Simple / BTB predictors |
//! | [`cache`] | `concorde-cache` | cache hierarchy + in-order simulation |
//! | [`cyclesim`] | `concorde-cyclesim` | reference cycle-level OoO simulator |
//! | [`analytic`] | `concorde-analytic` | trace analysis + per-resource models |
//! | [`ml`] | `concorde-ml` | MLP/LSTM/AdamW substrate |
//! | [`core`] | `concorde-core` | the Concorde model itself |
//! | [`attribution`] | `concorde-attribution` | Shapley performance attribution |
//! | [`baseline`] | `concorde-baseline` | TAO-like sequence baseline |
//! | [`riscv`] | `concorde-riscv` | RV32IM ELF ingestion → real-program traces |
//! | [`serve`] | `concorde-serve` | batched, cached inference serving (TCP + in-process) |
//!
//! ## Quickstart
//!
//! ```
//! use concorde_suite::prelude::*;
//!
//! // A pointer-chasing (505.mcf_r-like) region on the ARM N1 configuration.
//! let spec = by_id("S1").unwrap();
//! let region = generate_region(&spec, 0, 0, 4_096);
//! let arch = MicroArch::arm_n1();
//! let result = simulate(&region.instrs, &arch, SimOptions::default());
//! assert!(result.cpi() > 0.2);
//! ```

pub use concorde_analytic as analytic;
pub use concorde_attribution as attribution;
pub use concorde_baseline as baseline;
pub use concorde_branch as branch;
pub use concorde_cache as cache;
pub use concorde_core as core;
pub use concorde_cyclesim as cyclesim;
pub use concorde_ml as ml;
pub use concorde_riscv as riscv;
pub use concorde_serve as serve;
pub use concorde_trace as trace;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use concorde_analytic::prelude::*;
    pub use concorde_attribution::{
        ablation_deltas, cache_vs_lq_groups, default_groups, shapley_exact, shapley_mc, ParamGroup,
    };
    pub use concorde_baseline::{featurize, train_baseline, BaselineConfig, TaoBaseline};
    pub use concorde_branch::{BranchStats, BranchUnit, PredictorKind};
    pub use concorde_cache::{simulate_inorder, CacheLevel, Hierarchy, LatencyMap, MemConfig};
    pub use concorde_core::prelude::*;
    pub use concorde_cyclesim::{
        design_space_size, quantized_space_size, simulate, simulate_warmed, MicroArch, ParamId,
        SimOptions, SimResult,
    };
    pub use concorde_ml::{AdamW, ErrorStats, HalvingSchedule, LstmRegressor, Mlp, MlpScratch};
    pub use concorde_riscv::RiscvWorkload;
    pub use concorde_serve::{
        parse_byte_size, ArchSpec, ByteSizeError, ClassSlo, Client, MetricsServer, MissPolicy,
        PredictRequest, PredictResponse, PredictionService, RequestClass, ServeConfig,
        ServiceStats, SweepScope, TcpClient,
    };
    pub use concorde_trace::{
        by_id, generate_region, resolve_registered, resolve_workload, sample_region, suite,
        DynTrace, Instruction, OpClass, RegionRef, ResolvedWorkload, WorkloadSpec,
    };
}
