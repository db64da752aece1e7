//! Workload specifications: per-table parameters and the paper's Table 1
//! model.

use serde::{Deserialize, Serialize};

/// Generative parameters for one embedding table's access pattern.
///
/// The popularity model is hierarchical: requests pick a few *topics* from a
/// Zipf distribution over topics, then pick vectors from those topics with an
/// in-topic Zipf; a `noise` fraction of lookups is uniform over the whole
/// table. Tables with high `topic_skew`/`vector_skew` and low `noise` are
/// highly cacheable (paper tables 1–2); near-uniform tables with large id
/// spaces reproduce the compulsory-miss-bound table 8.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableSpec {
    /// Number of embedding vectors (columns) in the table.
    pub num_vectors: u32,
    /// Mean number of lookups a request performs in this table
    /// (Table 1 "avg request lookups": 17.68–92.75).
    pub mean_lookups: f64,
    /// Fraction of all lookups that go to this table (Table 1 "% of total").
    pub lookup_share: f64,
    /// Number of latent topics (co-access clusters).
    pub num_topics: u32,
    /// Topics a single request draws from.
    pub topics_per_request: u32,
    /// Zipf exponent over topic popularity.
    pub topic_skew: f64,
    /// Zipf exponent over vector popularity within a topic.
    pub vector_skew: f64,
    /// Probability that a lookup ignores topics and picks uniformly at
    /// random — the knob controlling the compulsory-miss rate.
    pub noise: f64,
}

impl TableSpec {
    /// A small, moderately skewed table useful in unit tests.
    pub fn test_small(num_vectors: u32) -> Self {
        TableSpec {
            num_vectors,
            mean_lookups: 8.0,
            lookup_share: 0.5,
            num_topics: (num_vectors / 64).max(1),
            topics_per_request: 2,
            topic_skew: 0.8,
            vector_skew: 0.7,
            noise: 0.05,
        }
    }

    /// Expected table size in bytes given a vector payload size.
    pub fn size_bytes(&self, vector_bytes: usize) -> u64 {
        self.num_vectors as u64 * vector_bytes as u64
    }
}

/// A full model: the set of embedding tables plus vector geometry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSpec {
    /// Per-table generative parameters.
    pub tables: Vec<TableSpec>,
    /// Embedding dimension (elements per vector).
    pub dim: usize,
    /// Bytes per element (4 for the f32 vectors we synthesize; the paper's
    /// production model uses 64 × fp16 = 128 B, which equals 32 × f32).
    pub element_bytes: usize,
}

impl ModelSpec {
    /// The paper's 8-table user-embedding model (Table 1), scaled down by
    /// `scale` in table size. Trace lengths scale separately — pass shorter
    /// traces to the generator.
    ///
    /// Table 1 of the paper:
    ///
    /// | table | vectors | avg lookups | share | compulsory misses |
    /// |-------|---------|-------------|-------|-------------------|
    /// | 1     | 10 M    | 34.83       |  9.44% |  4.16% |
    /// | 2     | 10 M    | 92.75       | 25.14% |  2.19% |
    /// | 3     | 20 M    | 26.67       |  7.23% | 24.29% |
    /// | 4     | 20 M    | 25.14       |  6.82% | 19.46% |
    /// | 5     | 10 M    | 30.22       |  8.19% | 22.68% |
    /// | 6     | 10 M    | 53.50       | 14.50% | 26.94% |
    /// | 7     | 10 M    | 54.35       | 14.73% | 11.36% |
    /// | 8     | 20 M    | 17.68       |  4.79% | 60.83% |
    ///
    /// The skew/noise parameters below are set so that the *ordering* of
    /// cacheability matches the paper (`repro table1` and `repro fig3` show
    /// it): tables 1–2
    /// have low compulsory-miss rates and long LRU-friendly tails, table 8 is
    /// dominated by compulsory misses, and the rest sit in between.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is zero.
    pub fn paper_scaled(scale: u32) -> Self {
        assert!(scale > 0, "scale must be non-zero");
        let m = |millions: u64| ((millions * 1_000_000) / scale as u64).max(1024) as u32;
        let table = |num_vectors: u32,
                     mean_lookups: f64,
                     lookup_share: f64,
                     topic_skew: f64,
                     vector_skew: f64,
                     noise: f64| TableSpec {
            num_vectors,
            mean_lookups,
            lookup_share,
            num_topics: (num_vectors / 256).max(8),
            topics_per_request: 3,
            topic_skew,
            vector_skew,
            noise,
        };
        ModelSpec {
            tables: vec![
                // Highly cacheable: strong skew, little noise.
                table(m(10), 34.83, 0.0944, 1.05, 0.90, 0.02),
                table(m(10), 92.75, 0.2514, 1.10, 0.95, 0.01),
                // Mid-tier cacheability.
                table(m(20), 26.67, 0.0723, 0.75, 0.60, 0.25),
                table(m(20), 25.14, 0.0682, 0.80, 0.65, 0.20),
                table(m(10), 30.22, 0.0819, 0.75, 0.60, 0.22),
                table(m(10), 53.50, 0.1450, 0.70, 0.55, 0.25),
                // Cacheable but with a flat histogram (no ultra-hot head).
                table(m(10), 54.35, 0.1473, 0.85, 0.35, 0.10),
                // Compulsory-miss bound: large, nearly uniform.
                table(m(20), 17.68, 0.0479, 0.30, 0.20, 0.60),
            ],
            dim: 32,
            element_bytes: 4,
        }
    }

    /// A compact two-table model for unit tests.
    pub fn test_small() -> Self {
        ModelSpec {
            tables: vec![TableSpec::test_small(2048), TableSpec::test_small(4096)],
            dim: 8,
            element_bytes: 4,
        }
    }

    /// Bytes per embedding vector.
    pub fn vector_bytes(&self) -> usize {
        self.dim * self.element_bytes
    }

    /// Number of tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Returns a copy with every table's vector payload resized to
    /// `vector_bytes` (dimension is adjusted; element size stays f32). Used
    /// by the Figure 16 sweep over 64/128/256-byte vectors.
    ///
    /// # Panics
    ///
    /// Panics if `vector_bytes` is not a positive multiple of the element
    /// size.
    pub fn with_vector_bytes(mut self, vector_bytes: usize) -> Self {
        assert!(
            vector_bytes > 0 && vector_bytes.is_multiple_of(self.element_bytes),
            "vector bytes must be a positive multiple of element bytes"
        );
        self.dim = vector_bytes / self.element_bytes;
        self
    }

    /// Validates internal consistency (shares roughly sum to 1, non-empty).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.tables.is_empty() {
            return Err("model has no tables".to_string());
        }
        if self.dim == 0 || self.element_bytes == 0 {
            return Err("vector geometry must be non-zero".to_string());
        }
        let share: f64 = self.tables.iter().map(|t| t.lookup_share).sum();
        if !(0.5..=1.5).contains(&share) {
            return Err(format!("lookup shares sum to {share:.3}, expected ~1.0"));
        }
        for (i, t) in self.tables.iter().enumerate() {
            if t.num_vectors == 0 {
                return Err(format!("table {i} has no vectors"));
            }
            if t.mean_lookups <= 0.0 {
                return Err(format!("table {i} has non-positive mean lookups"));
            }
            if !(0.0..=1.0).contains(&t.noise) {
                return Err(format!("table {i} noise outside [0,1]"));
            }
            if t.num_topics == 0 || t.topics_per_request == 0 {
                return Err(format!("table {i} topic configuration is degenerate"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_matches_table1_shape() {
        let spec = ModelSpec::paper_scaled(1000);
        assert_eq!(spec.tables.len(), 8);
        spec.validate().unwrap();
        // 10M/1000 = 10_000 vectors, 20M/1000 = 20_000.
        assert_eq!(spec.tables[0].num_vectors, 10_000);
        assert_eq!(spec.tables[2].num_vectors, 20_000);
        // Vector payload is 128 B like the paper's production model.
        assert_eq!(spec.vector_bytes(), 128);
        // Table 2 dominates lookups; table 8 is the smallest share.
        let shares: Vec<f64> = spec.tables.iter().map(|t| t.lookup_share).collect();
        let max_idx =
            shares.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        assert_eq!(max_idx, 1);
        // Noise ordering: table 8 noisiest, tables 1-2 cleanest.
        assert!(spec.tables[7].noise > spec.tables[2].noise);
        assert!(spec.tables[1].noise < spec.tables[2].noise);
    }

    #[test]
    fn scale_floors_at_1024_vectors() {
        let spec = ModelSpec::paper_scaled(1_000_000);
        for t in &spec.tables {
            assert!(t.num_vectors >= 1024);
        }
    }

    #[test]
    fn with_vector_bytes_adjusts_dim() {
        let spec = ModelSpec::paper_scaled(1000).with_vector_bytes(64);
        assert_eq!(spec.dim, 16);
        assert_eq!(spec.vector_bytes(), 64);
        let spec = spec.with_vector_bytes(256);
        assert_eq!(spec.dim, 64);
    }

    #[test]
    #[should_panic(expected = "multiple of element bytes")]
    fn odd_vector_bytes_rejected() {
        let _ = ModelSpec::paper_scaled(1000).with_vector_bytes(102);
    }

    #[test]
    fn validation_catches_bad_shares() {
        let mut spec = ModelSpec::test_small();
        spec.tables[0].lookup_share = 10.0;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn validation_catches_empty_tables() {
        let spec = ModelSpec { tables: vec![], dim: 4, element_bytes: 4 };
        assert!(spec.validate().is_err());
        let mut spec = ModelSpec::test_small();
        spec.tables[0].lookup_share = 0.5;
        spec.tables[1].lookup_share = 0.5;
        spec.tables[0].num_vectors = 0;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn table_size_bytes() {
        let t = TableSpec::test_small(1000);
        assert_eq!(t.size_bytes(128), 128_000);
    }

    #[test]
    #[should_panic(expected = "scale must be non-zero")]
    fn zero_scale_rejected() {
        ModelSpec::paper_scaled(0);
    }
}
