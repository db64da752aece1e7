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
//! Every limited-cache figure of the reproduction runs these functions;
//! every knob is an explicit argument.
//!
//! [`crate::BandanaStore::build`] goes one step past the paper's threshold
//! and its division: it solves for the vectors that avoid the most block
//! reads on the training trace, over every table's blocks at the whole
//! budget ([`shared_split`]), serves that set per table
//! ([`AdmissionPolicy::Set`]), sizes each table's cache from the same
//! solve, and tunes step 3's threshold at that size as the set's fallback.
//! A threshold ranks single vectors, but a cached vector saves a read only
//! when every vector the batch wants from its block is cached too; a
//! hit-rate curve cannot see that either. Only a store built with an
//! explicit policy divides by step 2 (or by lookup share), capped at each
//! table's vector count ([`cap_at_sizes`]).

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
/// greedily over each block's upper convex hull (see `take_segments`). A
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
    let ks = take_segments(&hull_segments(&curves), curves.len(), capacity);
    prefix_set(layout, freq, &curves, &ks)
}

/// The set that caches each block's top `ks[b]` vectors, and its
/// prediction on the batches `curves` counted.
fn prefix_set(
    layout: &BlockLayout,
    freq: &AccessFrequency,
    curves: &[Vec<u64>],
    ks: &[usize],
) -> BlockAwareSet {
    let touches: u64 = curves.iter().map(|c| c.last().copied().unwrap_or(0)).sum();
    let avoided: u64 = curves.iter().zip(ks).map(|(f, &k)| f[k]).sum();
    let set = AdmissionSet::from_ids(
        layout.num_vectors(),
        ks.iter()
            .enumerate()
            .flat_map(|(b, &k)| ranked_block(layout, freq, b as u32).into_iter().take(k)),
    );
    BlockAwareSet { set, touches, predicted_reads: touches - avoided }
}

/// The store's DRAM division and admission sets, from one solve
/// ([`shared_split`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SharedSplit {
    /// Each table's cache capacity in vectors: its set plus its share of
    /// the slots no set took.
    pub capacities: Vec<usize>,
    /// Each table's block-aware set and what it predicts.
    pub sets: Vec<BlockAwareSet>,
    /// Requests in the fitted trace.
    pub fitted_requests: usize,
}

impl SharedSplit {
    /// Table `t`'s predicted block reads per fitted request.
    pub fn predicted_reads_per_request(&self, t: usize) -> f64 {
        self.sets[t].predicted_reads as f64 / self.fitted_requests.max(1) as f64
    }
}

/// Divides `total` cache vectors across tables and picks each table's
/// block-aware set in one solve: the hull greedy of [`block_aware_set`]
/// runs over every table's blocks at once, so a slot goes to whichever
/// table's block avoids the most reads per slot on `train`, merged
/// `batch_requests` requests per batch ([`FIT_BATCH_REQUESTS`] is the
/// engine's shape).
///
/// Each table's capacity is its set's size plus a share, by lookup weight
/// ([`lookup_weights`]), of the slots the sets leave over, never above the
/// table's vector count. Every table gets at least one slot and the
/// capacities sum to at most `total`, or to the table count when `total`
/// is smaller (then every table gets one slot).
/// A `total` that covers every vector gives each table its size and all
/// its vectors without a pass over `train`.
///
/// # Panics
///
/// Panics if `batch_requests` is zero or the slices disagree in length.
pub fn shared_split(
    layouts: &[BlockLayout],
    freqs: &[AccessFrequency],
    train: &Trace,
    total: usize,
    batch_requests: usize,
) -> SharedSplit {
    assert!(batch_requests > 0, "a fitted batch holds at least one request");
    assert_eq!(layouts.len(), freqs.len(), "layouts/freqs length mismatch");
    let sizes: Vec<usize> = layouts.iter().map(|l| l.num_vectors() as usize).collect();
    let fitted_requests = train.requests.len();
    if total >= sizes.iter().sum::<usize>() {
        let sets = sizes
            .iter()
            .map(|&n| BlockAwareSet {
                set: AdmissionSet::from_ids(n as u32, 0..n as u32),
                touches: 0,
                predicted_reads: 0,
            })
            .collect();
        return SharedSplit { capacities: sizes, sets, fitted_requests };
    }
    let per_table: Vec<Vec<Vec<u64>>> = (0..layouts.len())
        .map(|t| {
            let batches: Vec<Vec<u32>> = train
                .requests
                .chunks(batch_requests)
                .map(|chunk| {
                    chunk
                        .iter()
                        .filter_map(|r| r.query_for(t))
                        .flat_map(|q| q.ids.iter().copied())
                        .collect()
                })
                .collect();
            avoidance_curves(&layouts[t], &freqs[t], batches.iter().map(|b| b.as_slice()))
        })
        .collect();
    let curves: Vec<&[u64]> = per_table.iter().flatten().map(Vec::as_slice).collect();
    let segments = hull_segments(&curves);
    // Every table needs a slot: while the greedy leaves more tables empty
    // than it leaves slots over, hold that many slots back from it. The
    // reserve grows on every retry and stops at the table count, which
    // `budget` covers, so the loop ends.
    let budget = total.max(layouts.len());
    let mut reserve = 0;
    let (ks, mut capacities) = loop {
        let ks = take_segments(&segments, curves.len(), budget - reserve);
        let mut next = ks.iter();
        let taken: Vec<usize> =
            per_table.iter().map(|blocks| next.by_ref().take(blocks.len()).sum()).collect();
        let empty = taken.iter().filter(|&&k| k == 0).count();
        if budget - taken.iter().sum::<usize>() >= empty {
            break (ks, taken);
        }
        reserve = empty;
    };
    for c in capacities.iter_mut().filter(|c| **c == 0) {
        *c = 1;
    }
    let left = budget - capacities.iter().sum::<usize>();
    spread(&mut capacities, left, &sizes, &lookup_weights(train));
    let mut ks = ks.into_iter();
    let sets = per_table
        .iter()
        .enumerate()
        .map(|(t, curves)| {
            let ks: Vec<usize> = ks.by_ref().take(curves.len()).collect();
            prefix_set(&layouts[t], &freqs[t], curves, &ks)
        })
        .collect();
    SharedSplit { capacities, sets, fitted_requests }
}

/// Caps every table's slots at its vector count in `sizes` and hands the
/// surplus to the tables still below theirs, by `weights` (evenly when
/// none of them weighs anything). A surplus no table can hold is dropped.
///
/// # Example
///
/// ```
/// use bandana_core::tuner::cap_at_sizes;
///
/// let mut slots = vec![60, 30, 10];
/// cap_at_sizes(&mut slots, &[20, 100, 15], &[0.6, 0.3, 0.1]);
/// assert_eq!(slots, [20, 65, 15]);
/// ```
///
/// # Panics
///
/// Panics if the slices disagree in length.
pub fn cap_at_sizes(slots: &mut [usize], sizes: &[usize], weights: &[f64]) {
    assert_eq!(slots.len(), sizes.len(), "slots/sizes length mismatch");
    assert_eq!(slots.len(), weights.len(), "slots/weights length mismatch");
    let mut surplus = 0;
    for (s, &n) in slots.iter_mut().zip(sizes) {
        surplus += s.saturating_sub(n);
        *s = (*s).min(n);
    }
    spread(slots, surplus, sizes, weights);
}

/// Hands up to `extra` slots to the tables below their size, in
/// proportion to `weights` (evenly when none of them weighs anything),
/// none above its size.
fn spread(slots: &mut [usize], mut extra: usize, sizes: &[usize], weights: &[f64]) {
    while extra > 0 {
        let short: Vec<usize> = (0..slots.len()).filter(|&t| slots[t] < sizes[t]).collect();
        if short.is_empty() {
            return;
        }
        let weighed = short.iter().any(|&t| weights[t] > 0.0);
        let weight = |t: usize| if weighed { weights[t].max(0.0) } else { 1.0 };
        let sum: f64 = short.iter().map(|&t| weight(t)).sum();
        let mut given = 0;
        for &t in &short {
            let share = (extra as f64 * weight(t) / sum) as usize;
            let take = share.min(sizes[t] - slots[t]).min(extra - given);
            slots[t] += take;
            given += take;
        }
        if given == 0 {
            // Fewer slots than shares: one each, heaviest first.
            let mut order: Vec<usize> = short.into_iter().filter(|&t| weight(t) > 0.0).collect();
            order.sort_by(|&a, &b| weight(b).total_cmp(&weight(a)).then(a.cmp(&b)));
            for &t in order.iter().take(extra) {
                slots[t] += 1;
                given += 1;
            }
        }
        extra -= given;
    }
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

/// Every block's upper-convex-hull segments as `(block, slots, touches
/// avoided)`, steepest first: the order in which [`take_segments`] spends
/// slots.
fn hull_segments<C: AsRef<[u64]>>(curves: &[C]) -> Vec<(usize, usize, u64)> {
    // Only a prefix that avoids more than every shorter one can be a hull
    // point.
    let mut segments: Vec<(usize, usize, u64)> = Vec::new();
    for (b, f) in curves.iter().enumerate() {
        let f = f.as_ref();
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
    segments
}

/// One prefix length per block, `Σ k ≤ capacity`, maximising
/// `Σ curves[b][k_b]` by a greedy over the blocks' hull `segments`
/// ([`hull_segments`]): each segment is taken while it fits and its block
/// has taken every segment before it. That is the knapsack's linear
/// relaxation up to the segments that no longer fit, in O(P log P) for P
/// curve steps. On the benchmark's `nvm_bound` inputs, solved per table,
/// its sets read 126.70 and 126.87 blocks per request (seeds 7 and 311)
/// where the exact dynamic programme's read 126.66 and 126.79.
fn take_segments(segments: &[(usize, usize, u64)], blocks: usize, capacity: usize) -> Vec<usize> {
    let mut ks = vec![0usize; blocks];
    let mut closed = vec![false; blocks];
    let mut left = capacity;
    for &(b, slots, _) in segments {
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
    use bandana_trace::{ModelSpec, Request, TableQuery, TraceGenerator};

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

    /// One request per batch, each wanting `ids` from table `t`.
    fn trace_of(tables: usize, batches: &[(usize, Vec<u32>)]) -> Trace {
        let requests = batches
            .iter()
            .map(|(t, ids)| Request { queries: vec![TableQuery::new(*t, ids.clone())] })
            .collect();
        Trace::new(tables, requests)
    }

    fn identity_inputs(train: &Trace, sizes: &[u32]) -> (Vec<BlockLayout>, Vec<AccessFrequency>) {
        let layouts = sizes.iter().map(|&n| BlockLayout::identity(n, 4)).collect();
        let freqs = (0..sizes.len())
            .map(|t| AccessFrequency::from_queries(sizes[t], train.table_queries(t)))
            .collect();
        (layouts, freqs)
    }

    #[test]
    fn the_shared_split_gives_slots_to_the_pairs_that_avoid_most_reads() {
        // Table 0's pair {0, 1} is wanted 12 times: 6 reads avoided per
        // slot. Table 1 has more lookups, but its best pair avoids 1.5 per
        // slot and its other pairs 1.
        let mut batches: Vec<(usize, Vec<u32>)> = (0..12).map(|_| (0, vec![0, 1])).collect();
        batches.extend((0..3).map(|_| (1, vec![0, 1])));
        for v in (4..16).step_by(2) {
            batches.extend((0..2).map(|_| (1, vec![v, v + 1])));
        }
        let train = trace_of(2, &batches);
        let weights = lookup_weights(&train);
        assert!(weights[1] > weights[0], "{weights:?}");
        let (layouts, freqs) = identity_inputs(&train, &[16, 16]);
        let split = shared_split(&layouts, &freqs, &train, 3, 1);
        assert_eq!(split.capacities, [2, 1], "a lookup-share split gives [1, 1]");
        assert_eq!(split.sets[0].set.iter().collect::<Vec<_>>(), [0, 1]);
        assert!(split.sets[1].set.is_empty());
        assert_eq!((split.sets[0].touches, split.sets[0].predicted_reads), (12, 0));
        assert_eq!(split.fitted_requests, 27);
        assert_eq!(split.predicted_reads_per_request(1), 15.0 / 27.0);
        // Two more slots buy table 1's best pair.
        let split = shared_split(&layouts, &freqs, &train, 5, 1);
        assert_eq!(split.capacities, [2, 3]);
        assert_eq!(split.sets[1].set.iter().collect::<Vec<_>>(), [0, 1]);
    }

    #[test]
    fn a_budget_that_covers_every_vector_gives_each_table_all_of_it() {
        // No trace at all: the solve needs none.
        let train = Trace::new(2, Vec::new());
        let (layouts, freqs) = identity_inputs(&train, &[16, 8]);
        for total in [24, 100] {
            let split = shared_split(&layouts, &freqs, &train, total, FIT_BATCH_REQUESTS);
            assert_eq!(split.capacities, [16, 8]);
            assert_eq!(split.sets[0].set.len(), 16);
            assert_eq!(split.sets[1].set.len(), 8);
            assert!(split.sets.iter().all(|s| s.predicted_reads == 0));
        }
    }

    #[test]
    fn shared_capacities_fit_the_budget_and_hold_their_sets() {
        let spec = ModelSpec::paper_scaled(20_000);
        let mut train = TraceGenerator::new(&spec, 3).generate_requests(60);
        // Table 2 is never looked up.
        for r in &mut train.requests {
            r.queries.retain(|q| q.table != 2);
        }
        let layouts: Vec<BlockLayout> =
            spec.tables.iter().map(|t| BlockLayout::identity(t.num_vectors, 32)).collect();
        let freqs: Vec<AccessFrequency> = (0..spec.num_tables())
            .map(|t| {
                AccessFrequency::from_queries(spec.tables[t].num_vectors, train.table_queries(t))
            })
            .collect();
        for total in [1, 7, 8, 9, 50, 300, 1_000] {
            let split = shared_split(&layouts, &freqs, &train, total, FIT_BATCH_REQUESTS);
            // A budget below the table count still gives every table a slot.
            let bound = total.max(spec.num_tables());
            assert!(split.capacities.iter().sum::<usize>() <= bound, "total {total}");
            for (t, (solved, &capacity)) in split.sets.iter().zip(&split.capacities).enumerate() {
                assert!(capacity >= 1, "table {t} at total {total}");
                assert!(capacity <= layouts[t].num_vectors() as usize);
                assert!(solved.set.len() <= capacity, "table {t} at total {total}");
            }
            assert!(split.sets[2].set.is_empty());
        }
        let split = shared_split(&layouts, &freqs, &train, 300, FIT_BATCH_REQUESTS);
        let (touches, reads) =
            split.sets.iter().fold((0, 0), |(t, r), s| (t + s.touches, r + s.predicted_reads));
        assert!(reads < touches, "some read is avoided");
    }

    #[test]
    fn capping_hands_the_surplus_to_short_tables_by_weight() {
        let mut slots = vec![10, 1, 1];
        cap_at_sizes(&mut slots, &[4, 100, 100], &[0.2, 0.6, 0.2]);
        assert_eq!(slots, [4, 6, 2]);
        // Nobody can hold it: the surplus is dropped.
        let mut slots = vec![10, 10];
        cap_at_sizes(&mut slots, &[3, 5], &[0.5, 0.5]);
        assert_eq!(slots, [3, 5]);
        // Short tables that weigh nothing share it evenly.
        let mut slots = vec![10, 0, 0];
        cap_at_sizes(&mut slots, &[2, 100, 100], &[1.0, 0.0, 0.0]);
        assert_eq!(slots, [2, 4, 4]);
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
