//! # bandana-cache — DRAM caching machinery for Bandana
//!
//! Bandana fronts its NVM store with a small DRAM cache per embedding table.
//! The paper's §4.3 explores, in order:
//!
//! 1. treating prefetched vectors like requested ones (disastrous —
//!    Figure 10),
//! 2. inserting prefetches at a lower LRU position ([`lru::SegmentedLru`],
//!    Figure 11a),
//! 3. admitting prefetches only when a [`shadow::ShadowCache`] has seen them
//!    (Figure 11b), and both combined (Figure 11c),
//! 4. admitting prefetches only when their SHP-training access count passes
//!    a threshold `t` (Figure 12) — the policy that wins,
//! 5. choosing `t` per table and cache size by simulating dozens of
//!    [`mini::MiniatureCacheSet`]s on a sampled stream (Table 2, Figure 14),
//! 6. dividing total DRAM across tables with [`alloc`] using hit-rate
//!    curves ([`hrc`]).
//!
//! The [`sim::PrefetchCacheSim`] ties 1–4 together for one table; the `core`
//! crate wraps it around real byte storage.
//!
//! ## Example
//!
//! ```
//! use bandana_cache::{AdmissionPolicy, PrefetchCacheSim};
//! use bandana_partition::{AccessFrequency, BlockLayout};
//!
//! let layout = BlockLayout::identity(64, 8);
//! let freq = AccessFrequency::zeros(64);
//! let mut sim = PrefetchCacheSim::new(&layout, 16, AdmissionPolicy::None, freq);
//! sim.lookup(3); // miss: one block read
//! sim.lookup(3); // hit
//! assert_eq!(sim.metrics().hits, 1);
//! assert_eq!(sim.metrics().block_reads, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod alloc;
pub mod allocator;
pub mod curve;
pub mod hrc;
pub mod idhash;
pub mod lru;
pub mod metrics;
pub mod mini;
pub mod policy;
pub mod shadow;
pub mod sim;

pub use admission::{AdmissionPolicy, AdmissionSet};
pub use alloc::{allocate_dram, allocation_hit_rate};
pub use allocator::{allocate_with, compare_policies, AllocationPolicy};
pub use curve::CurveSampler;
pub use hrc::HitRateCurve;
pub use idhash::{IdHashMap, IdHasher};
pub use lru::SegmentedLru;
pub use metrics::CacheMetrics;
pub use mini::{MiniatureCacheSet, SampledStream};
pub use policy::{EvictionCache, PolicyKind, PolicySim};
pub use shadow::ShadowCache;
pub use sim::{baseline_block_reads, PrefetchCacheSim};
