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
//!
//! The store then goes one step past the paper's threshold: at each
//! table's capacity it solves for the set of vectors that avoids the most
//! block reads on the training trace ([`block_aware_sets`]) and serves
//! that set ([`AdmissionPolicy::Set`]). A threshold ranks single vectors,
//! but a cached vector saves a read only when every vector the batch wants
//! from its block is cached too. The figures keep the paper's threshold.

use bandana_cache::{
    allocate_dram, AdmissionPolicy, AdmissionSet, HitRateCurve, MiniatureCacheSet,
};
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

/// Requests merged into one batch by the block-aware fit: the serving
/// engine's mean batch on a device-bound load, where two requests share a
/// micro-batch and each table's ids are deduplicated across them.
pub const FIT_BATCH_REQUESTS: usize = 2;

/// One table's block-aware admission set and what it predicts.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockAwareSet {
    /// The vectors to cache; never more than the capacity it was solved for.
    pub set: AdmissionSet,
    /// (batch, block) touches of the fitted batches: the block reads with
    /// nothing cached.
    pub touches: u64,
    /// Block reads on the fitted batches once `set` is resident: the
    /// touches that want a vector outside the set.
    pub predicted_reads: u64,
}

/// Solves one table's block-aware admission set.
///
/// Each block's vectors are ranked by training count (`freq`, ties by
/// slot). A (batch, block) touch — `batches` holds each batch's ids in
/// this table, deduplicated or not — is avoided by caching the block's top
/// `k` iff every vector the batch wants from the block ranks below `k`;
/// `f_b(k)` counts those touches. A multiple-choice knapsack then picks
/// one `k_b` per block, `Σ k_b ≤ capacity`, maximising `Σ f_b(k_b)`,
/// greedily over each block's upper convex hull (see `choose_prefixes`). A
/// capacity that covers the table takes every vector without looking at
/// `batches`.
///
/// # Example
///
/// ```
/// use bandana_core::tuner::block_aware_set;
/// use bandana_partition::{AccessFrequency, BlockLayout};
///
/// // Vectors 0 and 1 share block 0 and are always wanted together.
/// let layout = BlockLayout::identity(8, 4);
/// let batches: Vec<Vec<u32>> = (0..10).map(|i| vec![0, 1, 4 + i % 4]).collect();
/// let freq = AccessFrequency::from_queries(8, batches.iter().map(|b| b.as_slice()));
/// let solved = block_aware_set(&layout, &freq, batches.iter().map(|b| b.as_slice()), 2);
/// assert_eq!(solved.set.iter().collect::<Vec<_>>(), [0, 1]);
/// assert_eq!((solved.touches, solved.predicted_reads), (20, 10));
/// ```
pub fn block_aware_set<'q>(
    layout: &BlockLayout,
    freq: &AccessFrequency,
    batches: impl IntoIterator<Item = &'q [u32]>,
    capacity: usize,
) -> BlockAwareSet {
    let n = layout.num_vectors();
    if capacity >= n as usize {
        return BlockAwareSet {
            set: AdmissionSet::from_ids(n, 0..n),
            touches: 0,
            predicted_reads: 0,
        };
    }
    let curves = avoidance_curves(layout, freq, batches);
    let touches: u64 = curves.iter().map(|c| c.last().copied().unwrap_or(0)).sum();
    let ks = choose_prefixes(&curves, capacity);
    let avoided: u64 = curves.iter().zip(&ks).map(|(f, &k)| f[k]).sum();
    let rank = |b: u32| ranked_block(layout, freq, b);
    let set = AdmissionSet::from_ids(
        n,
        ks.iter().enumerate().flat_map(|(b, &k)| rank(b as u32).into_iter().take(k)),
    );
    BlockAwareSet { set, touches, predicted_reads: touches - avoided }
}

/// Solves every table's block-aware set ([`block_aware_set`]) at its
/// capacity, over `train` merged `batch_requests` requests per batch
/// ([`FIT_BATCH_REQUESTS`] is the engine's shape).
///
/// # Panics
///
/// Panics if `batch_requests` is zero.
pub fn block_aware_sets(
    layouts: &[BlockLayout],
    freqs: &[AccessFrequency],
    train: &Trace,
    capacities: &[usize],
    batch_requests: usize,
) -> Vec<BlockAwareSet> {
    (0..layouts.len())
        .map(|t| {
            let batches: Vec<Vec<u32>> = if capacities[t] >= layouts[t].num_vectors() as usize {
                Vec::new()
            } else {
                train
                    .requests
                    .chunks(batch_requests)
                    .map(|chunk| {
                        chunk
                            .iter()
                            .filter_map(|r| r.query_for(t))
                            .flat_map(|q| q.ids.iter().copied())
                            .collect()
                    })
                    .collect()
            };
            block_aware_set(
                &layouts[t],
                &freqs[t],
                batches.iter().map(|b| b.as_slice()),
                capacities[t],
            )
        })
        .collect()
}

/// Block `b`'s vectors, most trained first (ties by slot).
fn ranked_block(layout: &BlockLayout, freq: &AccessFrequency, b: u32) -> Vec<u32> {
    let mut vectors = layout.vectors_in_block(b).to_vec();
    vectors.sort_by_key(|&v| std::cmp::Reverse(freq.count(v)));
    vectors
}

/// Every block's read-avoidance curve: `curves[b][k]` is the number of
/// (batch, block `b`) touches whose wanted vectors all rank below `k`, so
/// `curves[b][0] = 0` and `curves[b][vectors in b]` is every touch.
fn avoidance_curves<'q>(
    layout: &BlockLayout,
    freq: &AccessFrequency,
    batches: impl IntoIterator<Item = &'q [u32]>,
) -> Vec<Vec<u64>> {
    let mut rank = vec![0u32; layout.num_vectors() as usize];
    for b in 0..layout.num_blocks() {
        for (r, v) in ranked_block(layout, freq, b).into_iter().enumerate() {
            rank[v as usize] = r as u32;
        }
    }
    // Per block: the highest rank the current batch wants, and the batch
    // that last touched it (a stamp, so nothing is cleared between
    // batches).
    let blocks = layout.num_blocks() as usize;
    let mut highest = vec![0u32; blocks];
    let mut stamp = vec![0u64; blocks];
    let mut touched: Vec<u32> = Vec::new();
    let mut curves: Vec<Vec<u64>> =
        (0..blocks as u32).map(|b| vec![0; layout.vectors_in_block(b).len() + 1]).collect();
    for (i, ids) in batches.into_iter().enumerate() {
        let now = i as u64 + 1;
        for &v in ids {
            let b = layout.block_of(v) as usize;
            if stamp[b] != now {
                stamp[b] = now;
                highest[b] = 0;
                touched.push(b as u32);
            }
            highest[b] = highest[b].max(rank[v as usize]);
        }
        for b in touched.drain(..) {
            curves[b as usize][highest[b as usize] as usize + 1] += 1;
        }
    }
    for curve in &mut curves {
        for k in 1..curve.len() {
            curve[k] += curve[k - 1];
        }
    }
    curves
}

/// One prefix length per block, `Σ k ≤ capacity`, maximising
/// `Σ curves[b][k_b]` by a greedy over every block's upper convex hull:
/// hull segments in order of falling touches avoided per slot, each taken
/// while it fits and its block has taken every segment before it. That is
/// the knapsack's linear relaxation up to the segments that no longer fit,
/// in O(P log P) for P curve steps. On the benchmark's `nvm_bound` inputs
/// its sets read 126.70 and 126.87 blocks per request (seeds 7 and 311)
/// where the exact dynamic programme's read 126.66 and 126.79.
fn choose_prefixes(curves: &[Vec<u64>], capacity: usize) -> Vec<usize> {
    // (block, slots, touches) per hull segment, in block order. Only a
    // prefix that avoids more than every shorter one can be a hull point.
    let mut segments: Vec<(usize, usize, u64)> = Vec::new();
    for (b, f) in curves.iter().enumerate() {
        let mut hull: Vec<usize> = vec![0];
        for k in (1..f.len()).filter(|&k| f[k] > f[k - 1]) {
            // Pop the last hull point while it lies on or below the chord
            // from the one before it to `k`.
            while let [.., i, j] = hull[..] {
                let (to_j, to_k) = ((j - i) as u128, (k - i) as u128);
                if u128::from(f[j] - f[i]) * to_k <= u128::from(f[k] - f[i]) * to_j {
                    hull.pop();
                } else {
                    break;
                }
            }
            hull.push(k);
        }
        segments.extend(hull.windows(2).map(|w| (b, w[1] - w[0], f[w[1]] - f[w[0]])));
    }
    // Steepest first; a block's own segments keep their order (their
    // slopes fall strictly), other ties go to the lower block.
    segments.sort_by(|a, b| {
        (u128::from(b.2) * a.1 as u128).cmp(&(u128::from(a.2) * b.1 as u128)).then(a.0.cmp(&b.0))
    });
    let mut ks = vec![0usize; curves.len()];
    let mut closed = vec![false; curves.len()];
    let mut left = capacity;
    for (b, slots, _) in segments {
        if closed[b] {
            continue;
        }
        if slots <= left {
            ks[b] += slots;
            left -= slots;
        } else {
            closed[b] = true;
        }
    }
    ks
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

    /// Block 0 (vectors 0–3): 0 and 1, always wanted together, 12 times.
    /// Block 1 (vectors 4–7): 4, the hottest vector, 21 times, each time
    /// with one of 5, 6 and 7.
    fn pair_and_busy_block() -> (BlockLayout, AccessFrequency, Vec<Vec<u32>>) {
        let layout = BlockLayout::identity(16, 4);
        let mut batches: Vec<Vec<u32>> = (0..12).map(|_| vec![0, 1]).collect();
        batches.extend((0..21u32).map(|i| vec![4, 5 + i % 3]));
        let freq = AccessFrequency::from_queries(16, batches.iter().map(|b| b.as_slice()));
        (layout, freq, batches)
    }

    fn solve(capacity: usize) -> BlockAwareSet {
        let (layout, freq, batches) = pair_and_busy_block();
        block_aware_set(&layout, &freq, batches.iter().map(|b| b.as_slice()), capacity)
    }

    #[test]
    fn a_pair_always_wanted_together_is_cached_whole() {
        // One slot saves nothing; two hold the pair. The hottest vector,
        // which a threshold would pick first, is not cached: its block is
        // read anyway for the vector that comes with it.
        assert!(solve(1).set.is_empty());
        let two = solve(2);
        assert_eq!(two.set.iter().collect::<Vec<_>>(), [0, 1]);
        assert_eq!((two.touches, two.predicted_reads), (33, 21));
        // Six slots also take all of block 1 and avoid every read.
        let six = solve(6);
        assert_eq!(six.set.iter().collect::<Vec<_>>(), [0, 1, 4, 5, 6, 7]);
        assert_eq!(six.predicted_reads, 0);
    }

    #[test]
    fn the_solve_never_outgrows_its_capacity_and_predicts_its_reads() {
        let (layout, _, batches) = pair_and_busy_block();
        for capacity in 0..=15 {
            let solved = solve(capacity);
            assert!(solved.set.len() <= capacity, "capacity {capacity}");
            // The prediction is a plain count over the batches.
            let reads = batches
                .iter()
                .map(|ids| {
                    let mut missing: Vec<u32> = ids
                        .iter()
                        .filter(|&&v| !solved.set.contains(v))
                        .map(|&v| layout.block_of(v))
                        .collect();
                    missing.sort_unstable();
                    missing.dedup();
                    missing.len() as u64
                })
                .sum::<u64>();
            assert_eq!(solved.predicted_reads, reads, "capacity {capacity}");
        }
    }

    #[test]
    fn a_capacity_that_covers_the_table_takes_every_vector() {
        for capacity in [16, 100] {
            let solved = solve(capacity);
            assert_eq!(solved.set.len(), 16);
            assert_eq!(solved.predicted_reads, 0);
        }
    }

    #[test]
    fn every_table_is_solved_at_its_own_capacity() {
        let spec = ModelSpec::paper_scaled(20_000);
        let train = TraceGenerator::new(&spec, 3).generate_requests(60);
        let layouts: Vec<BlockLayout> =
            spec.tables.iter().map(|t| BlockLayout::identity(t.num_vectors, 32)).collect();
        let freqs: Vec<AccessFrequency> = (0..spec.num_tables())
            .map(|t| {
                AccessFrequency::from_queries(spec.tables[t].num_vectors, train.table_queries(t))
            })
            .collect();
        let capacities: Vec<usize> = (0..spec.num_tables()).map(|t| 8 * (t + 1)).collect();
        let sets = block_aware_sets(&layouts, &freqs, &train, &capacities, FIT_BATCH_REQUESTS);
        assert_eq!(sets.len(), spec.num_tables());
        for (solved, &capacity) in sets.iter().zip(&capacities) {
            assert!(solved.set.len() <= capacity);
            assert!(solved.predicted_reads < solved.touches, "some read is avoided");
        }
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
