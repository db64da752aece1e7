//! The offline Bandana recipe (paper §4.3.3 and §5).
//!
//! Three steps turn a training trace into per-table cache settings:
//!
//! 1. per-table hit-rate curves from the training trace
//!    ([`hit_rate_curves`], weighted by [`lookup_weights`]);
//! 2. the DRAM budget divided across tables by those curves
//!    ([`divide_dram`], Dynacache-style greedy marginal gain);
//! 3. each table's admission threshold picked by sampled miniature caches
//!    ([`tune_admission`], [`tune_tables`]): one miniature cache per
//!    candidate threshold over a hash-sampled slice of the lookup stream,
//!    and the threshold with the best estimated effective bandwidth wins.
//!    Table 2 of the paper shows 0.1% sampling already picks near-oracle
//!    thresholds.
//!
//! [`crate::BandanaStore::build`] and every limited-cache figure of the
//! reproduction run these functions; every knob is an explicit argument.

use bandana_cache::{allocate_dram, AdmissionPolicy, HitRateCurve, MiniatureCacheSet};
use bandana_partition::{AccessFrequency, BlockLayout};
use bandana_trace::Trace;
use serde::{Deserialize, Serialize};

/// Each table's share of the trace's lookups (Table 1's "% of total"): the
/// weights of the DRAM division.
pub fn lookup_weights(train: &Trace) -> Vec<f64> {
    let total = train.total_lookups().max(1) as f64;
    (0..train.num_tables).map(|t| train.table_lookups(t) as f64 / total).collect()
}

/// The cache sizes at which the DRAM division samples each table's
/// hit-rate curve: 1/64, 1/16, 1/8, 1/4, 1/2 and all of `total`.
pub fn curve_sizes(total: usize) -> Vec<usize> {
    [64usize, 16, 8, 4, 2, 1].iter().map(|d| (total / d).max(1)).collect()
}

/// Every table's exact LRU hit-rate curve over its lookups in `train`,
/// sampled at `sizes`. A table the trace never touches gets a flat zero
/// curve.
pub fn hit_rate_curves(train: &Trace, sizes: &[usize]) -> Vec<HitRateCurve> {
    (0..train.num_tables)
        .map(|t| {
            let stream = train.table_stream(t);
            let points = bandana_trace::hit_rate_curve(stream.iter().map(|&v| v as u64), sizes);
            HitRateCurve::new(points)
        })
        .collect()
}

/// Divides `total` cache vectors across tables by greedy marginal gain over
/// their hit-rate curves, in steps of `total / 64`. Every table gets at
/// least one slot.
pub fn divide_dram(total: usize, curves: &[HitRateCurve], weights: &[f64]) -> Vec<usize> {
    allocate_dram(total, curves, weights, (total / 64).max(1))
        .into_iter()
        .map(|c| c.max(1))
        .collect()
}

/// Configuration of [`tune_admission`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TunerConfig {
    /// The production cache size being tuned for, in vectors.
    pub cache_capacity: usize,
    /// Spatial sampling rate of the miniature caches.
    pub sampling_rate: f64,
    /// Candidate thresholds (Figure 12 sweeps 5–20).
    pub candidate_thresholds: Vec<u32>,
    /// Hash salt (vary to resample).
    pub salt: u64,
}

impl Default for TunerConfig {
    fn default() -> Self {
        TunerConfig {
            cache_capacity: 4096,
            sampling_rate: 0.001,
            candidate_thresholds: vec![5, 10, 15, 20],
            salt: 0,
        }
    }
}

/// Picks one table's admission policy by simulating miniature caches over
/// `stream` (the table's lookup ids, in order).
///
/// Returns [`AdmissionPolicy::Threshold`] at the winning candidate of
/// `config.candidate_thresholds`.
///
/// # Example
///
/// ```
/// use bandana_cache::AdmissionPolicy;
/// use bandana_core::{tune_admission, TunerConfig};
/// use bandana_partition::{AccessFrequency, BlockLayout};
///
/// let layout = BlockLayout::identity(512, 32);
/// let freq = AccessFrequency::zeros(512);
/// let stream: Vec<u32> = (0..2000).map(|i| (i * 7) % 512).collect();
/// let config = TunerConfig { cache_capacity: 128, sampling_rate: 0.5, ..Default::default() };
/// let AdmissionPolicy::Threshold { t } = tune_admission(&layout, &freq, &stream, &config) else {
///     unreachable!("the tuner picks a threshold")
/// };
/// assert!(config.candidate_thresholds.contains(&t));
/// ```
///
/// # Panics
///
/// Panics if the candidate list is empty or the capacity is zero.
pub fn tune_admission(
    layout: &BlockLayout,
    freq: &AccessFrequency,
    stream: &[u32],
    config: &TunerConfig,
) -> AdmissionPolicy {
    let mut minis = MiniatureCacheSet::new(
        layout,
        freq,
        config.cache_capacity,
        config.sampling_rate,
        &config.candidate_thresholds,
        config.salt,
    );
    minis.observe_all(stream);
    AdmissionPolicy::Threshold { t: minis.best_threshold() }
}

/// Tunes every table with [`tune_admission`] over its lookups in `train`,
/// at its cache capacity, with `salt(t)` as table `t`'s hash salt.
pub fn tune_tables(
    layouts: &[BlockLayout],
    freqs: &[AccessFrequency],
    train: &Trace,
    capacities: &[usize],
    sampling_rate: f64,
    candidate_thresholds: &[u32],
    salt: impl Fn(usize) -> u64,
) -> Vec<AdmissionPolicy> {
    (0..layouts.len())
        .map(|t| {
            tune_admission(
                &layouts[t],
                &freqs[t],
                &train.table_stream(t),
                &TunerConfig {
                    cache_capacity: capacities[t],
                    sampling_rate,
                    candidate_thresholds: candidate_thresholds.to_vec(),
                    salt: salt(t),
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bandana_trace::{ModelSpec, TraceGenerator};

    /// A workload where the hot half of each block is worth prefetching and
    /// the cold half is pollution; training frequencies separate them.
    fn skewed_setup() -> (BlockLayout, AccessFrequency, Vec<u32>) {
        let n = 1024u32;
        let layout = BlockLayout::identity(n, 32);
        // Hot vectors: the first 16 slots of each block.
        let train: Vec<Vec<u32>> = (0..200)
            .map(|i| {
                let block = (i * 13) % 32;
                (0..16u32).map(|s| block * 32 + s).collect()
            })
            .collect();
        let freq = AccessFrequency::from_queries(n, train.iter().map(|q| q.as_slice()));
        let mut stream = Vec::new();
        for i in 0..400u32 {
            let block = (i * 13) % 32;
            for s in 0..16u32 {
                stream.push(block * 32 + s);
            }
        }
        (layout, freq, stream)
    }

    #[test]
    fn tuner_returns_a_candidate() {
        let (layout, freq, stream) = skewed_setup();
        let cfg = TunerConfig {
            cache_capacity: 256,
            sampling_rate: 1.0,
            candidate_thresholds: vec![5, 10, 1000],
            salt: 1,
        };
        let policy = tune_admission(&layout, &freq, &stream, &cfg);
        // Hot vectors appear ~100 times in training; t=1000 blocks all
        // prefetching and must lose to an admitting threshold.
        assert!(matches!(policy, AdmissionPolicy::Threshold { t: 5 | 10 }), "{policy:?}");
    }

    #[test]
    fn sampled_tuning_matches_full_cache_choice() {
        let (layout, freq, stream) = skewed_setup();
        let tune = |sampling_rate| {
            let cfg = TunerConfig {
                cache_capacity: 256,
                sampling_rate,
                candidate_thresholds: vec![5, 1000],
                salt: 2,
            };
            tune_admission(&layout, &freq, &stream, &cfg)
        };
        assert_eq!(tune(1.0), tune(0.25), "sampled tuner diverged");
    }

    #[test]
    fn lookup_weights_sum_to_one() {
        let spec = ModelSpec::paper_scaled(20_000);
        let train = TraceGenerator::new(&spec, 3).generate_requests(100);
        let weights = lookup_weights(&train);
        assert_eq!(weights.len(), spec.num_tables());
        assert!((weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn an_untouched_table_gets_a_flat_curve() {
        let train = Trace::new(2, Vec::new());
        let curves = hit_rate_curves(&train, &curve_sizes(128));
        assert!(curves.iter().all(|c| c.hit_rate_at(128) == 0.0));
        assert_eq!(divide_dram(128, &curves, &lookup_weights(&train)).len(), 2);
    }
}
