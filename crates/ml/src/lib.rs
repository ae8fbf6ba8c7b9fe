//! # concorde-ml
//!
//! Minimal from-scratch neural-network substrate for the Concorde
//! reproduction: dense [`Mlp`]s with backprop, the [`AdamW`] optimizer with
//! the paper's halving LR schedule, the relative-error loss (paper Eq. 7),
//! and an [`LstmRegressor`] powering the TAO-like sequence baseline.
//!
//! Everything is deterministic given a seeded `ChaCha12Rng` and `&self`-safe
//! for data-parallel gradient computation across threads.
//!
//! ```
//! use concorde_ml::{Mlp, AdamW, relative_error};
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha12Rng;
//!
//! let mut rng = ChaCha12Rng::seed_from_u64(0);
//! let mut model = Mlp::new(&[8, 16, 1], &mut rng);
//! let mut opt = AdamW::new(&model, 0.01, 0.0);
//! let xs = vec![0.5f32; 8 * 4];
//! let ys = vec![2.0f32; 4];
//! let (mut g, loss) = model.grad_batch(&xs, &ys, relative_error);
//! g.average();
//! opt.apply(&mut model, &g, 1.0);
//! assert!(loss.is_finite());
//! ```

#![warn(missing_docs)]

pub mod adam_vec;
pub mod adamw;
pub mod kernel;
pub mod loss;
pub mod lstm;
pub mod mlp;

pub use adam_vec::AdamVec;
pub use adamw::{AdamW, HalvingSchedule};
pub use kernel::{
    active_kernel, detected_kernel, forced_scalar, kernel_name, ulp_distance, KernelKind,
};
pub use loss::{relative_error, squared_error, ErrorStats};
pub use lstm::{LstmGrads, LstmRegressor};
pub use mlp::{Linear, Mlp, MlpGrads, MlpScratch};
