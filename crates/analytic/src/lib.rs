//! # concorde-analytic
//!
//! Concorde's trace analysis and per-resource analytical models (paper §3.1,
//! §3.2): the stage that converts a dynamic instruction trace into compact
//! performance distributions.
//!
//! * [`trace_analysis`] — builds the *Concorde trace*: dependencies,
//!   execution-latency estimates from in-order cache simulation, I-cache
//!   latencies, and branch statistics.
//! * [`memory_model`] — Algorithm 1's trace-driven memory state machine.
//! * [`rob`] — the ROB dynamical system (Eqs. 1–4) run as a discrete-event
//!   loop in start-time order.
//! * [`queues`] — load-/store-queue variants of the ROB model.
//! * [`widths`] — static bandwidth bounds (Eq. 6).
//! * [`pipes`] — load / load-store pipe lower/upper bounds.
//! * [`frontend`] — max-I-cache-fills and fetch-buffer single-component
//!   simulations.
//! * [`window`] — Eq. 5 window throughput series.
//! * [`distribution`] — the percentile CDF encoding (50+50+1 in the paper).
//!
//! ```
//! use concorde_analytic::prelude::*;
//! use concorde_cache::MemConfig;
//! use concorde_trace::{by_id, generate_region};
//!
//! let region = generate_region(&by_id("S1").unwrap(), 0, 0, 4_096);
//! let info = analyze_static(&region.instrs);
//! let data = analyze_data(&[], &region.instrs, MemConfig::default());
//! let rob = rob_model(&info, &data, 128);
//! let thr = throughput_from_marks(&rob.commit_cycles, 256);
//! assert_eq!(thr.len(), 16);
//! ```

#![warn(missing_docs)]

pub mod distribution;
pub mod frontend;
pub mod memory_model;
pub mod pipes;
pub mod queues;
pub mod rob;
pub mod trace_analysis;
pub mod widths;
pub mod window;

/// Convenient re-exports of the crate's primary API.
pub mod prelude {
    pub use crate::distribution::Encoding;
    pub use crate::frontend::{fetch_buffers_model, icache_fills_model};
    pub use crate::memory_model::MemoryModel;
    pub use crate::pipes::{pipe_bounds, PipeBounds};
    pub use crate::queues::{queue_model, QueueKind};
    pub use crate::rob::{rob_model, rob_model_with, RobResult, RobScratch, ROB_SWEEP};
    pub use crate::trace_analysis::{
        analyze_branches, analyze_data, analyze_inst, analyze_static, BranchInfo, DataLatencies,
        InstLatencies, TraceInfo, NO_DEP,
    };
    pub use crate::widths::{class_counts, issue_width_bound, IssueClass};
    pub use crate::window::{
        bandwidth_bound, throughput_from_marks, window_count, window_counts, DEFAULT_WINDOW,
        THROUGHPUT_CAP,
    };
}

pub use prelude::*;
