//! # concorde-cache
//!
//! Cache-hierarchy substrate for the Concorde reproduction: set-associative
//! write-back caches with tree-PLRU replacement (matching the paper's
//! gem5-`TreePLRURP`-like policy), a PC-indexed stride prefetcher, the
//! three-level [`Hierarchy`] (L1i/L1d + unified L2 + fixed 4 MB LLC), and the
//! [in-order functional simulation](inorder::simulate_inorder) trace analysis
//! uses to estimate load and fetch latencies (paper §3.1).
//!
//! ```
//! use concorde_cache::{simulate_inorder, MemConfig};
//! use concorde_trace::{by_id, generate_region};
//!
//! let spec = by_id("S1").unwrap();
//! let region = generate_region(&spec, 0, 0, 5_000);
//! let result = simulate_inorder(&region.instrs, MemConfig::default());
//! assert_eq!(result.data_levels.len(), region.len());
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod hierarchy;
pub mod inorder;
pub mod prefetch;
pub mod set;

pub use config::{
    CacheConfig, CacheLevel, LatencyMap, MemConfig, L1_SIZES_KB, L2_SIZES_KB, LLC_KB,
    PREFETCH_DEGREES,
};
pub use hierarchy::{Hierarchy, HierarchyStats};
pub use inorder::{simulate_inorder, InOrderResult};
pub use prefetch::{PrefetchTargets, StridePrefetcher};
pub use set::Cache;

/// Cache line size in bytes (shared with `concorde-trace`).
pub const LINE_BYTES: u64 = concorde_trace::LINE_BYTES;
