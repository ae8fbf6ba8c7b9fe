//! # concorde-cyclesim
//!
//! The reference trace-driven cycle-level out-of-order CPU simulator: the
//! ground-truth function `f(program, microarchitecture) → CPI` that Concorde
//! learns to approximate (the paper uses a proprietary gem5-based simulator in
//! this role; see the README's "Architecture" table for where it sits).
//!
//! All 20 design parameters of the paper's Table 1 are modelled — see
//! [`MicroArch`] — spanning the frontend (fetch width/buffers, I-cache fills,
//! decode/rename widths, branch predictor), backend (ROB, load/store queues,
//! per-class issue widths, load and load-store pipes, commit width) and the
//! memory hierarchy (L1i/L1d/L2 sizes, L1d stride prefetcher).
//!
//! ```
//! use concorde_cyclesim::{simulate, MicroArch, SimOptions};
//! use concorde_trace::{by_id, generate_region};
//!
//! let region = generate_region(&by_id("O1").unwrap(), 0, 0, 4_000);
//! let result = simulate(&region.instrs, &MicroArch::arm_n1(), SimOptions::default());
//! assert!(result.cpi() > 0.1 && result.cpi() < 100.0);
//! ```

#![warn(missing_docs)]

pub mod params;
pub mod pipeline;
pub mod stats;

pub use params::{design_space_size, quantized_space_size, MicroArch, ParamId};
pub use pipeline::{
    simulate, simulate_warmed, FETCH_BUFFER_ENTRIES, REDIRECT_PENALTY, RENAME_Q_CAP,
};
pub use stats::{SimOptions, SimResult};
