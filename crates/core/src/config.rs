//! Store configuration.

use bandana_cache::AdmissionPolicy;
use serde::{Deserialize, Serialize};

/// Which placement algorithm lays the table out on NVM (paper §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum PartitionerKind {
    /// Keep the original column order (the paper's unsorted baseline).
    Identity,
    /// A seeded random order (no locality at all).
    Random,
    /// Social Hash Partitioner on the training queries (§4.2.2).
    Shp {
        /// Refinement iterations per bisection (paper: 16).
        iterations: u32,
    },
    /// Flat K-means over the embedding values (§4.2.1).
    KMeans {
        /// Number of clusters.
        k: usize,
        /// Lloyd iterations (paper: 20).
        iterations: u32,
    },
    /// Two-stage recursive K-means (§4.2.1, Figures 7b/8).
    TwoStageKMeans {
        /// First-stage cluster count (paper: 256).
        first_stage_k: usize,
        /// Total sub-clusters.
        total_subclusters: usize,
        /// Lloyd iterations per stage.
        iterations: u32,
    },
}

impl Default for PartitionerKind {
    fn default() -> Self {
        PartitionerKind::Shp { iterations: 16 }
    }
}

/// Configuration of a [`crate::BandanaStore`].
///
/// # Example
///
/// ```
/// use bandana_core::BandanaConfig;
///
/// let config = BandanaConfig::default()
///     .with_cache_vectors(100_000)
///     .with_seed(7);
/// assert_eq!(config.block_size, 4096);
/// assert_eq!(config.cache_vectors_total, 100_000);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BandanaConfig {
    /// NVM block size in bytes (4 KB on the paper's device).
    pub block_size: usize,
    /// Total DRAM budget across all tables, in vectors (paper §5 uses 4 M).
    pub cache_vectors_total: usize,
    /// Placement algorithm.
    pub partitioner: PartitionerKind,
    /// Prefetch admission policy applied to every table unless the tuner
    /// overrides it per table.
    pub admission: AdmissionPolicy,
    /// Shadow cache multiplier (only used by shadow policies).
    pub shadow_multiplier: f64,
    /// Enable per-table threshold tuning with miniature caches (§4.3.3).
    /// The store then serves a block-aware admission set in front of each
    /// tuned threshold ([`crate::tuner::block_aware_sets`]).
    pub tune_thresholds: bool,
    /// Candidate thresholds for the tuner (Figure 12 sweeps 5–20).
    pub candidate_thresholds: Vec<u32>,
    /// Miniature-cache sampling rate (paper: 0.001 suffices).
    pub mini_sampling_rate: f64,
    /// Divide DRAM across tables by hit-rate curves instead of lookup share.
    pub allocate_by_hit_rate_curves: bool,
    /// Master RNG seed.
    pub seed: u64,
}

impl Default for BandanaConfig {
    fn default() -> Self {
        BandanaConfig {
            block_size: 4096,
            cache_vectors_total: 4096,
            partitioner: PartitionerKind::default(),
            admission: AdmissionPolicy::default(),
            shadow_multiplier: 1.5,
            tune_thresholds: true,
            candidate_thresholds: vec![5, 10, 15, 20],
            mini_sampling_rate: 0.1,
            allocate_by_hit_rate_curves: true,
            seed: 0,
        }
    }
}

impl BandanaConfig {
    /// Sets the total DRAM budget in vectors.
    pub fn with_cache_vectors(mut self, vectors: usize) -> Self {
        self.cache_vectors_total = vectors;
        self
    }

    /// Sets the placement algorithm.
    pub fn with_partitioner(mut self, partitioner: PartitionerKind) -> Self {
        self.partitioner = partitioner;
        self
    }

    /// Sets the admission policy (and disables threshold tuning and with
    /// it the block-aware set, since an explicit policy is a manual
    /// override).
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self.tune_thresholds = false;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Vectors that fit in one NVM block for a given vector size.
    ///
    /// # Panics
    ///
    /// Panics if `vector_bytes` is zero or exceeds the block size.
    pub fn vectors_per_block(&self, vector_bytes: usize) -> usize {
        assert!(vector_bytes > 0, "vector size must be non-zero");
        assert!(vector_bytes <= self.block_size, "vector larger than a block");
        self.block_size / vector_bytes
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if self.block_size == 0 {
            return Err("block size must be non-zero".into());
        }
        if self.cache_vectors_total == 0 {
            return Err("cache must hold at least one vector".into());
        }
        if !(0.0 < self.mini_sampling_rate && self.mini_sampling_rate <= 1.0) {
            return Err(format!("sampling rate {} outside (0,1]", self.mini_sampling_rate));
        }
        if self.tune_thresholds && self.candidate_thresholds.is_empty() {
            return Err("tuning enabled but no candidate thresholds".into());
        }
        if self.shadow_multiplier <= 0.0 {
            return Err("shadow multiplier must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = BandanaConfig::default();
        assert_eq!(c.block_size, 4096);
        assert_eq!(c.partitioner, PartitionerKind::Shp { iterations: 16 });
        assert_eq!(c.candidate_thresholds, vec![5, 10, 15, 20]);
        c.validate().unwrap();
        // 128 B vectors -> 32 per block, as in the paper.
        assert_eq!(c.vectors_per_block(128), 32);
        assert_eq!(c.vectors_per_block(64), 64);
        assert_eq!(c.vectors_per_block(256), 16);
    }

    #[test]
    fn builder_chains() {
        let c = BandanaConfig::default()
            .with_cache_vectors(10)
            .with_partitioner(PartitionerKind::Random)
            .with_seed(3);
        assert_eq!(c.cache_vectors_total, 10);
        assert_eq!(c.partitioner, PartitionerKind::Random);
        assert_eq!(c.seed, 3);
    }

    #[test]
    fn explicit_admission_disables_tuning() {
        let c = BandanaConfig::default()
            .with_admission(bandana_cache::AdmissionPolicy::All { position: 0.5 });
        assert!(!c.tune_thresholds);
    }

    #[test]
    fn validation_catches_problems() {
        let c = BandanaConfig { cache_vectors_total: 0, ..Default::default() };
        assert!(c.validate().is_err());
        let c = BandanaConfig { mini_sampling_rate: 0.0, ..Default::default() };
        assert!(c.validate().is_err());
        let c = BandanaConfig { candidate_thresholds: Vec::new(), ..Default::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "vector larger than a block")]
    fn oversized_vector_rejected() {
        let _ = BandanaConfig::default().vectors_per_block(8192);
    }
}
