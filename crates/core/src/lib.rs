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
//! [`BandanaStore::build`] runs the paper's offline recipe on a training
//! trace: place every table, take per-table hit-rate curves
//! ([`hit_rate_curves`]), divide DRAM by them ([`divide_dram`]), and pick
//! each table's admission threshold with miniature caches
//! ([`tune_admission`]). The [`tuner`] module holds those steps as plain
//! functions, which the paper-reproduction figures call directly;
//! [`effective_bandwidth_sweep`] scores a recipe's result against the
//! single-vector baseline.
//!
//! ## Quickstart
//!
//! ```
//! use bandana_cache::AdmissionPolicy;
//! use bandana_core::{BandanaConfig, BandanaStore};
//! use bandana_trace::{EmbeddingTable, ModelSpec, TraceGenerator};
//!
//! # fn main() -> Result<(), bandana_core::BandanaError> {
//! let spec = ModelSpec::test_small();
//! let mut generator = TraceGenerator::new(&spec, 1);
//! let training = generator.generate_requests(300);
//! let embeddings: Vec<EmbeddingTable> = (0..spec.num_tables())
//!     .map(|t| EmbeddingTable::synthesize(
//!         spec.tables[t].num_vectors, spec.dim, generator.topic_model(t), t as u64))
//!     .collect();
//! let config = BandanaConfig::default().with_cache_vectors(512);
//! let mut store = BandanaStore::build(&spec, &embeddings, &training, config)?;
//!
//! // The recipe divided the 512-vector budget and tuned every table: a
//! // block-aware set serves, in front of the threshold it retires to.
//! for t in 0..store.num_tables() {
//!     let table = store.table(t)?;
//!     assert!(table.cache_capacity() >= 1);
//!     assert_eq!(table.policy(), AdmissionPolicy::Set);
//!     assert!(matches!(table.fallback_policy(), AdmissionPolicy::Threshold { .. }));
//! }
//!
//! // Serving a fresh trace batches each query's misses into block reads.
//! for request in &generator.generate_requests(150).requests {
//!     store.serve_request_batched(request)?;
//! }
//! let metrics = store.total_metrics();
//! assert_eq!(metrics.hits + metrics.misses, metrics.lookups);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bandwidth;
pub mod config;
pub mod error;
pub mod online;
mod payload_cache;
pub mod scratch;
pub mod store;
pub mod table;
pub mod tuner;

pub use bandwidth::{effective_bandwidth_sweep, TableGain};
pub use config::{BandanaConfig, PartitionerKind};
pub use error::BandanaError;
pub use online::{OnlineTuner, OnlineTunerConfig, TuningDecision};
pub use scratch::BatchScratch;
pub use store::{BandanaStore, StoreParts};
pub use table::TableStore;
pub use tuner::{
    block_aware_set, block_aware_sets, curve_sizes, divide_dram, hit_rate_curves, lookup_weights,
    tune_admission, tune_tables, BlockAwareSet, TunerConfig, FIT_BATCH_REQUESTS,
};
