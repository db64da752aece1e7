//! # bandana-core — NVM storage for deep-learning embedding tables
//!
//! This crate is the reproduction of **Bandana** (Eisenman et al., MLSys
//! 2019): a storage system that keeps recommender-system embedding tables on
//! block-addressable NVM with a small DRAM cache, recovering NVM's effective
//! read bandwidth through two mechanisms:
//!
//! 1. **Locality-aware placement** — embedding vectors that are accessed
//!    together are stored in the same 4 KB NVM block (via SHP hypergraph
//!    partitioning or K-means, from [`bandana_partition`]), so one block
//!    read prefetches useful neighbours;
//! 2. **Simulation-tuned caching** — prefetched vectors pass an admission
//!    policy whose threshold is chosen by sampled "miniature cache"
//!    simulations per table, and the DRAM budget is divided across tables
//!    by their hit-rate curves (from [`bandana_cache`]).
//!
//! The [`BandanaStore`] is the deployable artifact: it owns a simulated NVM
//! device ([`nvm_sim`]), stores real embedding bytes, and serves lookups.
//! The [`pipeline`] module packages the full train → place → tune → serve
//! loop used by the examples and by every experiment in the paper
//! reproduction.
//!
//! ## Quickstart
//!
//! ```
//! use bandana_core::pipeline::{run_pipeline, PipelineConfig};
//! use bandana_core::PartitionerKind;
//! use bandana_trace::ModelSpec;
//!
//! let report = run_pipeline(&PipelineConfig {
//!     spec: ModelSpec::test_small(),
//!     train_requests: 300,
//!     eval_requests: 150,
//!     partitioner: PartitionerKind::Shp { iterations: 8 },
//!     cache_vectors_total: 512,
//!     ..PipelineConfig::default()
//! });
//! assert_eq!(report.tables.len(), 2);
//! // SHP placement plus tuned caching beats the single-vector baseline.
//! assert!(report.overall_gain() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bandwidth;
pub mod concurrent;
pub mod config;
pub mod error;
pub mod online;
mod payload_cache;
pub mod pipeline;
pub mod scratch;
pub mod store;
pub mod table;
pub mod tuner;

pub use bandwidth::{effective_bandwidth_sweep, TableGain};
pub use concurrent::{ConcurrentStore, ThroughputReport};
pub use config::{BandanaConfig, PartitionerKind};
pub use error::BandanaError;
pub use online::{OnlineTuner, OnlineTunerConfig, TuningDecision};
pub use scratch::BatchScratch;
pub use store::{BandanaStore, StoreParts};
pub use table::TableStore;
pub use tuner::{tune_thresholds, TunerConfig};
