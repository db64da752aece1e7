//! Experiment scale presets.
//!
//! The paper runs on 10–20 M-vector tables and billions of lookups. All
//! reported metrics are ratios over counted block reads, which survive a
//! uniform scale-down: shrinking tables, caches and traces by one factor
//! keeps every table's lookup share and the cache-to-table ratio, so the
//! ratios keep their meaning. The harness therefore runs the same
//! experiments at 1/1000 of production scale (`Full`) and a further-reduced
//! smoke size (`Quick`) for CI and Criterion.

use serde::{Deserialize, Serialize};

/// How large to run an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// CI-sized: ~1–2 K vectors per table, a few hundred thousand lookups.
    Quick,
    /// The paper-scale run: 10–20 K vectors per table (1000× below
    /// production), millions of lookups. ROADMAP.md's "What the paper
    /// reproduction says" records what each figure shows at both scales.
    Full,
}

impl Scale {
    /// Table-size divisor relative to production (10–20 M vectors).
    pub fn spec_scale(self) -> u32 {
        match self {
            Scale::Quick => 10_000,
            Scale::Full => 1_000,
        }
    }

    /// Evaluation-trace length in requests (~335 lookups each across the 8
    /// paper tables).
    pub fn eval_requests(self) -> usize {
        match self {
            Scale::Quick => 400,
            Scale::Full => 3_000,
        }
    }

    /// Base training-trace length in requests (the "1 B requests" analogue;
    /// figures 9/15 sweep multiples of this).
    pub fn train_requests(self) -> usize {
        match self {
            Scale::Quick => 800,
            Scale::Full => 6_000,
        }
    }

    /// Per-table cache sizes in vectors standing in for the paper's
    /// 80 k–200 k sweep on table 2 (scaled by the table-size divisor).
    pub fn table2_cache_sizes(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![40, 60, 80, 100],
            Scale::Full => vec![80, 120, 160, 200],
        }
    }

    /// Total cache sizes in vectors standing in for the paper's 1 M–5 M
    /// total sweep (Figure 13).
    pub fn total_cache_sizes(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![250, 500, 750, 1_000, 1_250],
            Scale::Full => vec![1_000, 2_000, 3_000, 4_000, 5_000],
        }
    }

    /// The default total cache (the paper's 4 M-vector configuration).
    pub fn default_total_cache(self) -> usize {
        match self {
            Scale::Quick => 1_000,
            Scale::Full => 4_000,
        }
    }

    /// Miniature-cache sampling rates standing in for the paper's
    /// 10% / 1% / 0.1%. Scaled caches are 1000× smaller, so the rates scale
    /// up: a miniature cache of the scaled size times 0.1% would hold less
    /// than one vector.
    pub fn sampling_rates(self) -> Vec<f64> {
        match self {
            Scale::Quick => vec![0.5, 0.25, 0.1],
            Scale::Full => vec![0.5, 0.25, 0.1],
        }
    }

    /// SHP refinement iterations.
    pub fn shp_iterations(self) -> u32 {
        match self {
            Scale::Quick => 9,
            Scale::Full => 16,
        }
    }

    /// Evaluation requests for the *unlimited-cache* experiments (Figures
    /// 6, 8, 9). These must stay short enough that the accessed set covers
    /// only part of each table — once every vector has been touched, any
    /// layout packs the accessed set perfectly and the metric saturates
    /// (the paper's tables are 10–20 M vectors against 1 B lookups, i.e.
    /// partial coverage by construction).
    pub fn unlimited_eval_requests(self) -> usize {
        match self {
            Scale::Quick => 10,
            Scale::Full => 50,
        }
    }

    /// Requests to simulate per device benchmark point (Figures 2 and 5).
    pub fn device_requests(self) -> u64 {
        match self {
            Scale::Quick => 20_000,
            Scale::Full => 200_000,
        }
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scale::Quick => write!(f, "quick"),
            Scale::Full => write!(f, "full"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_is_larger_than_quick() {
        assert!(Scale::Full.spec_scale() < Scale::Quick.spec_scale());
        assert!(Scale::Full.eval_requests() > Scale::Quick.eval_requests());
        assert!(Scale::Full.train_requests() > Scale::Quick.train_requests());
        assert!(Scale::Full.device_requests() > Scale::Quick.device_requests());
    }

    #[test]
    fn sweeps_are_non_empty_and_sorted() {
        for s in [Scale::Quick, Scale::Full] {
            let caches = s.table2_cache_sizes();
            assert!(!caches.is_empty());
            assert!(caches.windows(2).all(|w| w[0] < w[1]));
            let totals = s.total_cache_sizes();
            assert!(totals.windows(2).all(|w| w[0] < w[1]));
            assert!(!s.sampling_rates().is_empty());
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Scale::Quick.to_string(), "quick");
        assert_eq!(Scale::Full.to_string(), "full");
    }
}
