//! The per-table cache simulator: LRU + block prefetch + admission policy.
//!
//! This is the execution model of one Bandana table (§4.3): a lookup that
//! misses in DRAM costs one 4 KB NVM block read; the block's other vectors
//! are prefetch candidates filtered by the [`AdmissionPolicy`]. The `core`
//! crate runs the same logic against real byte storage; this simulator
//! tracks ids only and is what the miniature caches (§4.3.3) replicate at
//! small scale.

use crate::admission::{AdmissionPolicy, AdmissionSet};
use crate::lru::SegmentedLru;
use crate::metrics::CacheMetrics;
use crate::shadow::ShadowCache;
use bandana_partition::{AccessFrequency, BlockLayout};

/// Default shadow-cache size multiplier (mid-range of Figure 11b's sweep).
pub const DEFAULT_SHADOW_MULTIPLIER: f64 = 1.5;

/// How many LRU segments the queue uses when the policy inserts below the
/// top ([`AdmissionPolicy::inserts_below_top`]); position granularity is
/// 1/16. Every other policy runs on one segment, an exact LRU.
const SEGMENTS: usize = 16;

/// Whether a cached entry arrived on demand or as a prefetch (for the
/// prefetch-usefulness counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    Demand,
    Prefetch,
}

/// Simulates one embedding table's DRAM cache in front of block NVM.
///
/// # Example
///
/// ```
/// use bandana_cache::{AdmissionPolicy, PrefetchCacheSim};
/// use bandana_partition::{AccessFrequency, BlockLayout};
///
/// let layout = BlockLayout::identity(128, 32);
/// let freq = AccessFrequency::zeros(128);
/// let mut sim = PrefetchCacheSim::new(
///     &layout,
///     32,
///     AdmissionPolicy::All { position: 0.0 },
///     freq,
/// );
/// sim.lookup(0);  // miss, prefetches vectors 1..32
/// sim.lookup(1);  // hit thanks to the prefetch
/// assert_eq!(sim.metrics().block_reads, 1);
/// assert_eq!(sim.metrics().prefetch_hits, 1);
/// ```
#[derive(Debug, Clone)]
pub struct PrefetchCacheSim<'a> {
    layout: &'a BlockLayout,
    freq: AccessFrequency,
    policy: AdmissionPolicy,
    cache: SegmentedLru<Origin>,
    shadow: Option<ShadowCache>,
    /// The members under [`AdmissionPolicy::Set`]; `None` under any other
    /// policy.
    set: Option<AdmissionSet>,
    metrics: CacheMetrics,
}

impl<'a> PrefetchCacheSim<'a> {
    /// Creates a simulator with `cache_capacity` vector slots.
    ///
    /// # Panics
    ///
    /// Panics if `cache_capacity` is zero.
    pub fn new(
        layout: &'a BlockLayout,
        cache_capacity: usize,
        policy: AdmissionPolicy,
        freq: AccessFrequency,
    ) -> Self {
        Self::with_shadow_multiplier(
            layout,
            cache_capacity,
            policy,
            freq,
            DEFAULT_SHADOW_MULTIPLIER,
        )
    }

    /// Creates a simulator with an explicit shadow-cache multiplier
    /// (Figure 11b sweeps this).
    ///
    /// # Panics
    ///
    /// Panics if `cache_capacity` is zero, if the policy needs a shadow cache
    /// and `shadow_multiplier` is not positive, or if the policy is
    /// [`AdmissionPolicy::Set`] (use [`PrefetchCacheSim::with_set`]).
    pub fn with_shadow_multiplier(
        layout: &'a BlockLayout,
        cache_capacity: usize,
        policy: AdmissionPolicy,
        freq: AccessFrequency,
        shadow_multiplier: f64,
    ) -> Self {
        assert!(cache_capacity > 0, "cache capacity must be non-zero");
        assert!(!policy.is_set(), "the set policy needs its set: use PrefetchCacheSim::with_set");
        let segments = if policy.inserts_below_top() { SEGMENTS.min(cache_capacity) } else { 1 };
        let shadow =
            policy.needs_shadow().then(|| ShadowCache::new(cache_capacity, shadow_multiplier));
        PrefetchCacheSim {
            layout,
            freq,
            policy,
            cache: SegmentedLru::new(cache_capacity, segments),
            shadow,
            set: None,
            metrics: CacheMetrics::new(),
        }
    }

    /// Creates a simulator under [`AdmissionPolicy::Set`]: a vector is
    /// cached, on demand or as a prefetch, only if `set` holds it. Each
    /// lookup is served as a batch of one, as `bandana_core::TableStore`
    /// serves a batched read under the set.
    ///
    /// # Panics
    ///
    /// Panics if `cache_capacity` is zero.
    pub fn with_set(
        layout: &'a BlockLayout,
        cache_capacity: usize,
        set: AdmissionSet,
        freq: AccessFrequency,
    ) -> Self {
        let mut sim = Self::new(layout, cache_capacity, AdmissionPolicy::None, freq);
        sim.policy = AdmissionPolicy::Set;
        sim.set = Some(set);
        sim
    }

    /// Serves one application lookup; returns `true` on a DRAM hit.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the layout.
    pub fn lookup(&mut self, v: u32) -> bool {
        self.metrics.lookups += 1;
        // The shadow cache tracks *application reads only*, hit or miss.
        if let Some(shadow) = &mut self.shadow {
            shadow.record_read(v as u64);
        }
        if let Some(origin) = self.cache.get_mut(v as u64) {
            if *origin == Origin::Prefetch {
                // Count each prefetched entry's usefulness once.
                *origin = Origin::Demand;
                self.metrics.prefetch_hits += 1;
            }
            self.metrics.hits += 1;
            return true;
        }

        // Miss: read the whole 4 KB block from NVM.
        self.metrics.misses += 1;
        self.metrics.block_reads += 1;
        let block = self.layout.block_of(v);

        // The requested vector is cached at the queue top, under the set
        // policy only if it is a member.
        let admits = |u: u32| self.set.as_ref().is_none_or(|s| s.contains(u));
        if admits(v) && self.cache.insert(v as u64, Origin::Demand, 0.0).is_some() {
            self.metrics.evictions += 1;
        }

        if self.policy.prefetches() {
            for &u in self.layout.vectors_in_block(block) {
                if u == v || !admits(u) || self.cache.contains(u as u64) {
                    continue;
                }
                let shadow_hit = self.shadow.as_ref().is_some_and(|s| s.contains(u as u64));
                if let Some(pos) = self.policy.admit(self.freq.count(u), shadow_hit) {
                    self.metrics.prefetches_admitted += 1;
                    if self.cache.insert(u as u64, Origin::Prefetch, pos).is_some() {
                        self.metrics.evictions += 1;
                    }
                }
            }
        }
        false
    }

    /// Serves a whole query (a slice of vector ids).
    pub fn lookup_all(&mut self, ids: &[u32]) {
        for &v in ids {
            self.lookup(v);
        }
    }

    /// The counters accumulated so far.
    pub fn metrics(&self) -> &CacheMetrics {
        &self.metrics
    }

    /// The admission policy in force.
    pub fn policy(&self) -> AdmissionPolicy {
        self.policy
    }

    /// The cached vectors, MRU first, each with whether it was
    /// demand-fetched (or a prefetch since hit) — the shape of
    /// `bandana_core::TableStore::cache_snapshot`.
    pub fn cache_snapshot(&self) -> Vec<(u32, bool)> {
        self.cache
            .entries_in_order()
            .into_iter()
            .map(|(k, &origin)| (k as u32, origin == Origin::Demand))
            .collect()
    }

    /// Current number of cached vectors.
    pub fn cached_vectors(&self) -> usize {
        self.cache.len()
    }

    /// Resets the counters (cache contents are kept — useful for separating
    /// warm-up from measurement).
    pub fn reset_metrics(&mut self) {
        self.metrics = CacheMetrics::new();
    }
}

/// Runs the single-vector baseline policy (cache exactly what was read, one
/// block read per miss) over a query stream and returns its block reads —
/// the denominator of every effective-bandwidth figure in the paper.
///
/// # Example
///
/// ```
/// use bandana_cache::baseline_block_reads;
/// use bandana_partition::BlockLayout;
///
/// let layout = BlockLayout::identity(64, 8);
/// let queries: Vec<Vec<u32>> = vec![vec![1, 2], vec![1, 2]];
/// // 2 compulsory misses, then hits.
/// assert_eq!(baseline_block_reads(&layout, queries.iter().map(|q| q.as_slice()), 16), 2);
/// ```
pub fn baseline_block_reads<'q, I>(layout: &BlockLayout, queries: I, cache_capacity: usize) -> u64
where
    I: IntoIterator<Item = &'q [u32]>,
{
    let freq = AccessFrequency::zeros(layout.num_vectors());
    let mut sim = PrefetchCacheSim::new(layout, cache_capacity, AdmissionPolicy::None, freq);
    for q in queries {
        sim.lookup_all(q);
    }
    sim.metrics().block_reads
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout_16x4() -> BlockLayout {
        BlockLayout::identity(16, 4)
    }

    #[test]
    fn baseline_counts_one_block_per_miss() {
        let layout = layout_16x4();
        let freq = AccessFrequency::zeros(16);
        let mut sim = PrefetchCacheSim::new(&layout, 8, AdmissionPolicy::None, freq);
        sim.lookup(0);
        sim.lookup(1); // same block but NOT prefetched: still a miss
        sim.lookup(0); // hit
        let m = sim.metrics();
        assert_eq!(m.lookups, 3);
        assert_eq!(m.hits, 1);
        assert_eq!(m.misses, 2);
        assert_eq!(m.block_reads, 2);
        assert_eq!(m.prefetches_admitted, 0);
    }

    #[test]
    fn prefetch_all_saves_reads_with_locality() {
        let layout = layout_16x4();
        let freq = AccessFrequency::zeros(16);
        let mut sim =
            PrefetchCacheSim::new(&layout, 8, AdmissionPolicy::All { position: 0.0 }, freq);
        sim.lookup(0); // miss, prefetch 1,2,3
        sim.lookup(1);
        sim.lookup(2);
        sim.lookup(3);
        let m = sim.metrics();
        assert_eq!(m.block_reads, 1);
        assert_eq!(m.hits, 3);
        assert_eq!(m.prefetches_admitted, 3);
        assert_eq!(m.prefetch_hits, 3);
    }

    #[test]
    fn prefetch_all_thrashes_small_cache() {
        // Access pattern touching many blocks with no reuse of prefetches:
        // admit-all should evict useful entries and do at least as many
        // block reads as the baseline (paper Figure 10).
        let layout = BlockLayout::identity(256, 4);
        let freq = AccessFrequency::zeros(256);
        // Cycle over one vector per block: prefetches are pure pollution.
        let stream: Vec<u32> = (0..2000u32).map(|i| (i * 4) % 256).collect();
        let mut all = PrefetchCacheSim::new(
            &layout,
            16,
            AdmissionPolicy::All { position: 0.0 },
            freq.clone(),
        );
        let mut none = PrefetchCacheSim::new(&layout, 16, AdmissionPolicy::None, freq);
        for &v in &stream {
            all.lookup(v);
            none.lookup(v);
        }
        assert!(
            all.metrics().block_reads >= none.metrics().block_reads,
            "admit-all {} should not beat baseline {} here",
            all.metrics().block_reads,
            none.metrics().block_reads
        );
    }

    #[test]
    fn threshold_filters_cold_vectors() {
        let layout = layout_16x4();
        // Vector 1 is hot in training; 2 and 3 are cold.
        let queries: Vec<Vec<u32>> = (0..20).map(|_| vec![0, 1]).collect();
        let freq = AccessFrequency::from_queries(16, queries.iter().map(|q| q.as_slice()));
        let mut sim = PrefetchCacheSim::new(&layout, 8, AdmissionPolicy::Threshold { t: 5 }, freq);
        sim.lookup(0);
        assert_eq!(sim.metrics().prefetches_admitted, 1); // only vector 1
        assert!(sim.cache.contains(1));
        assert!(!sim.cache.contains(2));
    }

    #[test]
    fn set_gates_demand_and_prefetch_alike() {
        let layout = layout_16x4();
        let set = AdmissionSet::from_ids(16, [1, 2, 5]);
        let mut sim = PrefetchCacheSim::with_set(&layout, 3, set, AccessFrequency::zeros(16));
        assert_eq!(sim.policy(), AdmissionPolicy::Set);
        sim.lookup(0); // not a member: read, not cached; 1 and 2 prefetched
        assert!(!sim.cache.contains(0) && sim.cache.contains(1) && sim.cache.contains(2));
        sim.lookup(5); // a member, cached on demand
        for v in [0, 4, 6, 7, 8, 12] {
            sim.lookup(v);
        }
        let m = sim.metrics();
        assert_eq!((m.block_reads, m.prefetches_admitted, m.evictions), (8, 2, 0));
        assert!(sim.lookup(1) && sim.lookup(2) && sim.lookup(5));
    }

    #[test]
    #[should_panic(expected = "with_set")]
    fn the_set_policy_needs_its_set() {
        let layout = layout_16x4();
        let _ = PrefetchCacheSim::new(&layout, 4, AdmissionPolicy::Set, AccessFrequency::zeros(16));
    }

    #[test]
    fn shadow_admits_only_previously_read() {
        let layout = layout_16x4();
        let freq = AccessFrequency::zeros(16);
        let mut sim = PrefetchCacheSim::new(&layout, 8, AdmissionPolicy::Shadow, freq);
        sim.lookup(1); // app read: enters shadow; miss reads block 0
                       // Vector 1 cached. Force 1 out of the real cache by touching other
                       // blocks' vectors (no prefetch admits: shadow only contains 1).
        sim.lookup(4);
        sim.lookup(8);
        // Now read vector 0: block 0 fetched; candidate 1 is a shadow hit.
        sim.lookup(0);
        assert!(sim.cache.contains(1), "shadow-hit candidate should be admitted");
        assert!(!sim.cache.contains(2), "shadow-miss candidate should be dropped");
    }

    #[test]
    fn lookup_all_matches_sequential() {
        let layout = layout_16x4();
        let freq = AccessFrequency::zeros(16);
        let mut a =
            PrefetchCacheSim::new(&layout, 4, AdmissionPolicy::All { position: 0.5 }, freq.clone());
        let mut b = PrefetchCacheSim::new(&layout, 4, AdmissionPolicy::All { position: 0.5 }, freq);
        let ids = [0u32, 5, 1, 9, 0, 5];
        a.lookup_all(&ids);
        for &v in &ids {
            b.lookup(v);
        }
        assert_eq!(a.metrics(), b.metrics());
    }

    #[test]
    fn baseline_helper_equals_unique_vectors_with_big_cache() {
        let layout = layout_16x4();
        let queries: Vec<Vec<u32>> = vec![vec![0, 1, 2], vec![0, 1, 2], vec![3]];
        let reads = baseline_block_reads(&layout, queries.iter().map(|q| q.as_slice()), 16);
        assert_eq!(reads, 4); // 4 unique vectors
    }

    #[test]
    fn reset_metrics_keeps_cache_contents() {
        let layout = layout_16x4();
        let freq = AccessFrequency::zeros(16);
        let mut sim = PrefetchCacheSim::new(&layout, 8, AdmissionPolicy::None, freq);
        sim.lookup(0);
        sim.reset_metrics();
        assert_eq!(sim.metrics().lookups, 0);
        assert!(sim.lookup(0), "cache contents must survive a metrics reset");
    }

    #[test]
    fn prefetch_hit_counted_once() {
        let layout = layout_16x4();
        let freq = AccessFrequency::zeros(16);
        let mut sim =
            PrefetchCacheSim::new(&layout, 8, AdmissionPolicy::All { position: 0.0 }, freq);
        sim.lookup(0); // prefetch 1..3
        sim.lookup(1);
        sim.lookup(1);
        sim.lookup(1);
        assert_eq!(sim.metrics().prefetch_hits, 1);
        assert_eq!(sim.metrics().hits, 3);
    }
}
