//! # concorde-serve
//!
//! Batched, cached inference serving for Concorde predictions — the layer
//! that turns the paper's "~5 orders of magnitude faster than cycle-level
//! simulation" result into a service: fleet-scale design-space exploration
//! issues millions of *(region, microarchitecture)* queries, and this crate
//! answers them with micro-batched MLP evaluation over an LRU cache of
//! precomputed analytic feature stores.
//!
//! Pipeline: bounded queue → work-conserving micro-batching collector (a
//! batch is whatever is already queued, up to the size cap) → worker pool →
//! sharded, byte-budgeted feature-store cache →
//! one batched forward pass per region group. Cache misses are parked on a
//! single-flight registry and built by a dedicated precompute pool, so a
//! cold region never stalls the hit path (see [`service`]).
//!
//! Entry points:
//!
//! - [`PredictionService::start`] — spin up the engine around a trained
//!   [`ConcordePredictor`](concorde_core::model::ConcordePredictor)
//! - [`PredictionService::client`] — in-process [`Client`] for tests,
//!   benches, and embedding
//! - [`PredictionService::serve_tcp`] — the line-delimited JSON protocol
//!   (see [`server`]), spoken by [`TcpClient`] and `concorde predict`
//!
//! ```no_run
//! use concorde_serve::{ArchSpec, PredictRequest, PredictionService, ServeConfig};
//! # let (model, profile) = unimplemented!();
//! let service = PredictionService::start(model, profile, ServeConfig::default());
//! let client = service.client();
//! let resp = client
//!     .predict(PredictRequest::new(1, "S5", ArchSpec::base("n1")))
//!     .unwrap();
//! println!("CPI {}", resp.cpi.unwrap());
//! ```

#![warn(missing_docs)]

pub mod bytesize;
mod client;
pub mod fault;
pub mod http;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod service;
pub mod slots;

pub use bytesize::{parse_byte_size, ByteSizeError};
pub use client::{BatchScratch, Client, TcpClient};
pub use fault::FaultPlan;
pub use http::MetricsServer;
pub use metrics::{CacheReport, MetricsSnapshot, ServiceStats};
pub use protocol::{ArchSpec, PredictRequest, PredictResponse, RequestClass, MAX_CACHE_KB};
pub use server::workload_catalog;
pub use service::{
    ClassSlo, PredictionService, ServeConfig, ServeError, SweepScope, MAX_REGION_LEN,
    MAX_WIRE_RISCV_BUDGET,
};
