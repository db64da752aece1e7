//! Pluggable eviction policies — an ablation of the paper's LRU choice.
//!
//! The paper fixes LRU for the DRAM cache (§4.3) and never revisits that
//! decision. This module asks the natural follow-up: *does the eviction
//! policy matter once placement and admission are tuned?* It provides four
//! classic alternatives behind one [`EvictionCache`] trait —
//! [`FifoCache`], [`ClockCache`] (second chance), [`LfuCache`], and
//! [`TwoQCache`] — plus [`PolicySim`], a variant of
//! [`crate::PrefetchCacheSim`] with the eviction policy swapped out, so the
//! whole Bandana pipeline (block prefetch + threshold admission) can be
//! replayed under each policy.
//!
//! # Example
//!
//! ```
//! use bandana_cache::policy::{PolicyKind, PolicySim};
//! use bandana_cache::AdmissionPolicy;
//! use bandana_partition::{AccessFrequency, BlockLayout};
//!
//! let layout = BlockLayout::identity(64, 8);
//! let freq = AccessFrequency::zeros(64);
//! let mut sim = PolicySim::new(&layout, 16, AdmissionPolicy::None, freq, PolicyKind::Clock);
//! sim.lookup(3); // miss
//! sim.lookup(3); // hit
//! assert_eq!(sim.metrics().hits, 1);
//! ```

use crate::admission::AdmissionPolicy;
use crate::metrics::CacheMetrics;
use crate::shadow::ShadowCache;
use bandana_partition::{AccessFrequency, BlockLayout};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fmt;

/// A bounded map from `u64` keys to values with a fixed eviction policy.
///
/// All implementations guarantee `len() <= capacity()` after every call and
/// evict exactly one entry per overflowing insert.
pub trait EvictionCache<V>: fmt::Debug {
    /// Looks `key` up, updating any recency/frequency state the policy
    /// keeps. Returns the cached value on a hit.
    fn get(&mut self, key: u64) -> Option<&V>;

    /// Whether `key` is cached, *without* touching policy state.
    fn contains(&self, key: u64) -> bool;

    /// Inserts `key`, evicting one victim if the cache is full. Returns the
    /// evicted `(key, value)` if any. Re-inserting an existing key replaces
    /// its value and refreshes policy state without evicting.
    fn insert(&mut self, key: u64, value: V) -> Option<(u64, V)>;

    /// Number of cached entries.
    fn len(&self) -> usize;

    /// Whether the cache is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of entries.
    fn capacity(&self) -> usize;
}

/// Which eviction policy a [`PolicySim`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Least-recently-used (the paper's choice).
    Lru,
    /// First-in-first-out: insertion order, no recency update on hit.
    Fifo,
    /// CLOCK / second chance: FIFO with one reference bit per entry.
    Clock,
    /// Least-frequently-used with LRU tie-breaking and no aging.
    Lfu,
    /// 2Q: a FIFO probation queue, an LRU protected queue, and a ghost
    /// queue of recently evicted probation keys promoting re-fetches.
    TwoQ,
}

impl PolicyKind {
    /// Every policy, in the order the ablation tables report them.
    pub const ALL: [PolicyKind; 5] =
        [PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::Clock, PolicyKind::Lfu, PolicyKind::TwoQ];

    /// Short lower-case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Lru => "lru",
            PolicyKind::Fifo => "fifo",
            PolicyKind::Clock => "clock",
            PolicyKind::Lfu => "lfu",
            PolicyKind::TwoQ => "2q",
        }
    }

    /// Builds a boxed cache of this kind.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn build<V: fmt::Debug + 'static>(self, capacity: usize) -> Box<dyn EvictionCache<V>> {
        match self {
            PolicyKind::Lru => Box::new(LruPolicyCache::new(capacity)),
            PolicyKind::Fifo => Box::new(FifoCache::new(capacity)),
            PolicyKind::Clock => Box::new(ClockCache::new(capacity)),
            PolicyKind::Lfu => Box::new(LfuCache::new(capacity)),
            PolicyKind::TwoQ => Box::new(TwoQCache::new(capacity)),
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Exact LRU behind the [`EvictionCache`] trait (wraps
/// [`crate::SegmentedLru`] with a single segment).
#[derive(Debug)]
pub struct LruPolicyCache<V> {
    inner: crate::lru::SegmentedLru<V>,
}

impl<V> LruPolicyCache<V> {
    /// Creates an exact LRU with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        LruPolicyCache { inner: crate::lru::SegmentedLru::new(capacity, 1) }
    }
}

impl<V: fmt::Debug> EvictionCache<V> for LruPolicyCache<V> {
    fn get(&mut self, key: u64) -> Option<&V> {
        self.inner.get(key)
    }

    fn contains(&self, key: u64) -> bool {
        self.inner.contains(key)
    }

    fn insert(&mut self, key: u64, value: V) -> Option<(u64, V)> {
        self.inner.insert(key, value, 0.0)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }
}

/// First-in-first-out eviction: hits do not refresh an entry's position.
///
/// # Example
///
/// ```
/// use bandana_cache::policy::{EvictionCache, FifoCache};
///
/// let mut c = FifoCache::new(2);
/// c.insert(1, "a");
/// c.insert(2, "b");
/// c.get(1); // does NOT protect key 1
/// let evicted = c.insert(3, "c").unwrap();
/// assert_eq!(evicted.0, 1);
/// ```
#[derive(Debug)]
pub struct FifoCache<V> {
    map: HashMap<u64, V>,
    queue: VecDeque<u64>,
    capacity: usize,
}

impl<V> FifoCache<V> {
    /// Creates a FIFO cache with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be non-zero");
        FifoCache { map: HashMap::new(), queue: VecDeque::new(), capacity }
    }
}

impl<V: fmt::Debug> EvictionCache<V> for FifoCache<V> {
    fn get(&mut self, key: u64) -> Option<&V> {
        self.map.get(&key)
    }

    fn contains(&self, key: u64) -> bool {
        self.map.contains_key(&key)
    }

    fn insert(&mut self, key: u64, value: V) -> Option<(u64, V)> {
        if self.map.insert(key, value).is_some() {
            return None; // refresh in place, queue position unchanged
        }
        self.queue.push_back(key);
        if self.map.len() > self.capacity {
            let victim = self.queue.pop_front().expect("queue tracks map");
            let v = self.map.remove(&victim).expect("victim cached");
            return Some((victim, v));
        }
        None
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }
}

/// CLOCK (second chance): a circular scan over entries with reference bits.
///
/// A hit sets the entry's reference bit. Eviction sweeps the clock hand,
/// clearing set bits and evicting the first entry whose bit is clear — an
/// O(1)-amortized approximation of LRU that many OS page caches use.
#[derive(Debug)]
pub struct ClockCache<V> {
    /// Slot table; `None` only before the cache first fills.
    slots: Vec<Option<(u64, V, bool)>>,
    index: HashMap<u64, usize>,
    hand: usize,
    capacity: usize,
}

impl<V> ClockCache<V> {
    /// Creates a CLOCK cache with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be non-zero");
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, || None);
        ClockCache { slots, index: HashMap::new(), hand: 0, capacity }
    }

    /// Advances the hand to a victim slot, clearing reference bits on the
    /// way (classic second-chance sweep).
    fn find_victim(&mut self) -> usize {
        loop {
            let slot = self.hand;
            self.hand = (self.hand + 1) % self.capacity;
            match &mut self.slots[slot] {
                Some((_, _, referenced)) if *referenced => *referenced = false,
                _ => return slot,
            }
        }
    }
}

impl<V: fmt::Debug> EvictionCache<V> for ClockCache<V> {
    fn get(&mut self, key: u64) -> Option<&V> {
        let &slot = self.index.get(&key)?;
        let (_, v, referenced) = self.slots[slot].as_mut().expect("index tracks slots");
        *referenced = true;
        Some(v)
    }

    fn contains(&self, key: u64) -> bool {
        self.index.contains_key(&key)
    }

    fn insert(&mut self, key: u64, value: V) -> Option<(u64, V)> {
        if let Some(&slot) = self.index.get(&key) {
            let (_, v, referenced) = self.slots[slot].as_mut().expect("index tracks slots");
            *v = value;
            *referenced = true;
            return None;
        }
        if self.index.len() < self.capacity {
            // Fill an empty slot (before first eviction the table is sparse).
            let slot = self.find_victim();
            debug_assert!(self.slots[slot].is_none() || self.index.len() == self.capacity);
            if let Some((old_key, old_val, _)) = self.slots[slot].take() {
                self.index.remove(&old_key);
                self.slots[slot] = Some((key, value, true));
                self.index.insert(key, slot);
                return Some((old_key, old_val));
            }
            self.slots[slot] = Some((key, value, true));
            self.index.insert(key, slot);
            return None;
        }
        let slot = self.find_victim();
        let (old_key, old_val, _) = self.slots[slot].take().expect("cache is full");
        self.index.remove(&old_key);
        self.slots[slot] = Some((key, value, true));
        self.index.insert(key, slot);
        Some((old_key, old_val))
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Least-frequently-used with LRU tie-breaking.
///
/// Evicts the entry with the smallest access count; among equals, the one
/// least recently touched. No aging — long-running streams with shifting
/// popularity are exactly where LFU is expected to lose to LRU, which the
/// ablation measures.
#[derive(Debug)]
pub struct LfuCache<V> {
    map: HashMap<u64, (V, u32, u64)>,
    /// Ordered (frequency, last-touch sequence, key): the min is the victim.
    order: BTreeSet<(u32, u64, u64)>,
    seq: u64,
    capacity: usize,
}

impl<V> LfuCache<V> {
    /// Creates an LFU cache with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be non-zero");
        LfuCache { map: HashMap::new(), order: BTreeSet::new(), seq: 0, capacity }
    }

    fn touch(&mut self, key: u64, bump: bool) {
        if let Some((_, freq, last)) = self.map.get(&key) {
            let old = (*freq, *last, key);
            let removed = self.order.remove(&old);
            debug_assert!(removed, "order tracks map");
            self.seq += 1;
            let new_freq = if bump { freq + 1 } else { *freq };
            self.order.insert((new_freq, self.seq, key));
            let entry = self.map.get_mut(&key).expect("checked above");
            entry.1 = new_freq;
            entry.2 = self.seq;
        }
    }
}

impl<V: fmt::Debug> EvictionCache<V> for LfuCache<V> {
    fn get(&mut self, key: u64) -> Option<&V> {
        if !self.map.contains_key(&key) {
            return None;
        }
        self.touch(key, true);
        self.map.get(&key).map(|(v, _, _)| v)
    }

    fn contains(&self, key: u64) -> bool {
        self.map.contains_key(&key)
    }

    fn insert(&mut self, key: u64, value: V) -> Option<(u64, V)> {
        if self.map.contains_key(&key) {
            self.map.get_mut(&key).expect("checked above").0 = value;
            self.touch(key, true);
            return None;
        }
        let mut evicted = None;
        if self.map.len() == self.capacity {
            let &victim = self.order.iter().next().expect("full cache is non-empty");
            self.order.remove(&victim);
            let (_, _, vkey) = victim;
            let (v, _, _) = self.map.remove(&vkey).expect("order tracks map");
            evicted = Some((vkey, v));
        }
        self.seq += 1;
        self.map.insert(key, (value, 1, self.seq));
        self.order.insert((1, self.seq, key));
        evicted
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Fraction of a 2Q cache devoted to the probation (A1in) FIFO queue.
const TWO_Q_IN_FRACTION: f64 = 0.25;
/// Ghost (A1out) queue size as a fraction of the cache capacity.
const TWO_Q_OUT_FRACTION: f64 = 0.50;

/// The 2Q replacement policy (Johnson & Shasha).
///
/// New keys enter a small FIFO probation queue (A1in). Keys evicted from
/// probation leave their id in a ghost queue (A1out); a re-fetch that hits
/// the ghost queue is promoted to the protected LRU queue (Am). One-shot
/// scans therefore wash through probation without disturbing the protected
/// working set — the same scan resistance the paper buys with admission
/// thresholds, applied at the eviction layer instead.
#[derive(Debug)]
pub struct TwoQCache<V> {
    /// Probation FIFO (A1in): key order, values live in `map`.
    a1in: VecDeque<u64>,
    /// Ghost FIFO (A1out): ids only.
    a1out: VecDeque<u64>,
    a1out_set: HashMap<u64, ()>,
    /// Protected LRU (Am).
    am: crate::lru::SegmentedLru<()>,
    map: HashMap<u64, V>,
    in_capacity: usize,
    out_capacity: usize,
    capacity: usize,
}

impl<V> TwoQCache<V> {
    /// Creates a 2Q cache with `capacity` resident entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be non-zero");
        let in_capacity = ((capacity as f64 * TWO_Q_IN_FRACTION) as usize).max(1);
        let am_capacity = (capacity - in_capacity).max(1);
        let out_capacity = ((capacity as f64 * TWO_Q_OUT_FRACTION) as usize).max(1);
        TwoQCache {
            a1in: VecDeque::new(),
            a1out: VecDeque::new(),
            a1out_set: HashMap::new(),
            am: crate::lru::SegmentedLru::new(am_capacity, 1),
            map: HashMap::new(),
            in_capacity,
            out_capacity,
            capacity,
        }
    }

    fn ghost_push(&mut self, key: u64) {
        self.a1out.push_back(key);
        self.a1out_set.insert(key, ());
        while self.a1out.len() > self.out_capacity {
            let old = self.a1out.pop_front().expect("non-empty");
            self.a1out_set.remove(&old);
        }
    }

    /// Evicts from probation into the ghost queue; returns the victim.
    fn evict_probation(&mut self) -> Option<(u64, V)> {
        let victim = self.a1in.pop_front()?;
        let value = self.map.remove(&victim).expect("a1in tracks map");
        self.ghost_push(victim);
        Some((victim, value))
    }
}

impl<V: fmt::Debug> EvictionCache<V> for TwoQCache<V> {
    fn get(&mut self, key: u64) -> Option<&V> {
        if !self.map.contains_key(&key) {
            return None;
        }
        // A hit in Am refreshes recency; a hit in A1in leaves FIFO order
        // alone (the original 2Q "simplified" behaviour).
        if self.am.contains(key) {
            let _ = self.am.get(key);
        }
        self.map.get(&key)
    }

    fn contains(&self, key: u64) -> bool {
        self.map.contains_key(&key)
    }

    fn insert(&mut self, key: u64, value: V) -> Option<(u64, V)> {
        if self.map.contains_key(&key) {
            *self.map.get_mut(&key).expect("checked above") = value;
            if self.am.contains(key) {
                let _ = self.am.get(key);
            }
            return None;
        }

        let promoted = self.a1out_set.remove(&key).is_some();
        if promoted {
            // Ghost hit: the key earned protection.
            self.a1out.retain(|&k| k != key);
            self.map.insert(key, value);
            if let Some((evicted_key, ())) = self.am.insert(key, (), 0.0) {
                let v = self.map.remove(&evicted_key).expect("am tracks map");
                return Some((evicted_key, v));
            }
            // Am had room; if the cache as a whole overflowed, shrink
            // probation (a1in is non-empty whenever that happens, because
            // Am alone can never exceed the total capacity).
            if self.map.len() > self.capacity {
                return self.evict_probation();
            }
            return None;
        }

        // Cold key: probation. A1in's size target only matters as eviction
        // *preference*; probation may borrow capacity Am is not using.
        self.map.insert(key, value);
        self.a1in.push_back(key);
        if self.map.len() > self.capacity {
            // Classic 2Q victim choice: shrink probation while it exceeds
            // its target, otherwise age the protected queue.
            if self.a1in.len() > self.in_capacity {
                return self.evict_probation();
            }
            if let Some((vkey, ())) = self.am.pop_lru() {
                let v = self.map.remove(&vkey).expect("am tracks map");
                return Some((vkey, v));
            }
            return self.evict_probation();
        }
        None
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Whether a cached entry arrived on demand or as a prefetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    Demand,
    Prefetch,
}

/// [`crate::PrefetchCacheSim`] with the eviction policy swapped out.
///
/// Runs the same data path — miss reads a 4 KB block, prefetch candidates
/// pass the [`AdmissionPolicy`] — but the DRAM queue is any
/// [`PolicyKind`]. Fractional insertion positions are an LRU-specific
/// concept, so position-based policies degrade gracefully: every admitted
/// entry is inserted the way the policy inserts (FIFO tail, clock hand,
/// LFU count 1, 2Q probation).
#[derive(Debug)]
pub struct PolicySim<'a> {
    layout: &'a BlockLayout,
    freq: AccessFrequency,
    policy: AdmissionPolicy,
    kind: PolicyKind,
    cache: Box<dyn EvictionCache<Origin>>,
    shadow: Option<ShadowCache>,
    metrics: CacheMetrics,
}

impl<'a> PolicySim<'a> {
    /// Creates a simulator with `cache_capacity` vector slots under `kind`.
    ///
    /// # Panics
    ///
    /// Panics if `cache_capacity` is zero or the policy is
    /// [`AdmissionPolicy::Set`], whose set this simulator does not hold.
    pub fn new(
        layout: &'a BlockLayout,
        cache_capacity: usize,
        policy: AdmissionPolicy,
        freq: AccessFrequency,
        kind: PolicyKind,
    ) -> Self {
        assert!(cache_capacity > 0, "cache capacity must be non-zero");
        assert!(!policy.is_set(), "the set policy needs its set: use PrefetchCacheSim::with_set");
        let shadow = policy
            .needs_shadow()
            .then(|| ShadowCache::new(cache_capacity, crate::sim::DEFAULT_SHADOW_MULTIPLIER));
        PolicySim {
            layout,
            freq,
            policy,
            kind,
            cache: kind.build(cache_capacity),
            shadow,
            metrics: CacheMetrics::new(),
        }
    }

    /// Serves one application lookup; returns `true` on a DRAM hit.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the layout.
    pub fn lookup(&mut self, v: u32) -> bool {
        self.metrics.lookups += 1;
        if let Some(shadow) = &mut self.shadow {
            shadow.record_read(v as u64);
        }
        if let Some(&origin) = self.cache.get(v as u64) {
            if origin == Origin::Prefetch {
                self.metrics.prefetch_hits += 1;
                self.cache.insert(v as u64, Origin::Demand);
            }
            self.metrics.hits += 1;
            return true;
        }

        self.metrics.misses += 1;
        self.metrics.block_reads += 1;
        let block = self.layout.block_of(v);

        if self.cache.insert(v as u64, Origin::Demand).is_some() {
            self.metrics.evictions += 1;
        }

        if self.policy.prefetches() {
            for &u in self.layout.vectors_in_block(block) {
                if u == v || self.cache.contains(u as u64) {
                    continue;
                }
                let shadow_hit = self.shadow.as_ref().is_some_and(|s| s.contains(u as u64));
                if self.policy.admit(self.freq.count(u), shadow_hit).is_some() {
                    self.metrics.prefetches_admitted += 1;
                    if self.cache.insert(u as u64, Origin::Prefetch).is_some() {
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

    /// The eviction policy in force.
    pub fn kind(&self) -> PolicyKind {
        self.kind
    }

    /// Current number of cached vectors.
    pub fn cached_vectors(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill_and_overflow(cache: &mut dyn EvictionCache<u32>, n: u64) {
        for k in 0..n {
            cache.insert(k, k as u32);
            assert!(cache.len() <= cache.capacity(), "capacity violated at key {k}");
        }
    }

    #[test]
    fn all_policies_respect_capacity() {
        for kind in PolicyKind::ALL {
            let mut cache = kind.build::<u32>(8);
            fill_and_overflow(cache.as_mut(), 100);
            assert_eq!(cache.len(), 8, "{kind} should be full");
        }
    }

    #[test]
    fn all_policies_hit_after_insert() {
        for kind in PolicyKind::ALL {
            let mut cache = kind.build::<u32>(4);
            cache.insert(7, 42);
            assert_eq!(cache.get(7), Some(&42), "{kind}");
            assert!(cache.contains(7), "{kind}");
        }
    }

    #[test]
    fn reinsert_updates_value_without_eviction() {
        for kind in PolicyKind::ALL {
            let mut cache = kind.build::<u32>(2);
            cache.insert(1, 10);
            cache.insert(2, 20);
            let evicted = cache.insert(1, 11);
            assert!(evicted.is_none(), "{kind}: refresh must not evict");
            assert_eq!(cache.get(1), Some(&11), "{kind}");
            assert_eq!(cache.len(), 2, "{kind}");
        }
    }

    #[test]
    fn fifo_ignores_recency() {
        let mut c = FifoCache::new(2);
        c.insert(1, ());
        c.insert(2, ());
        c.get(1);
        let (victim, ()) = c.insert(3, ()).expect("full");
        assert_eq!(victim, 1, "FIFO must evict the oldest insert, hits notwithstanding");
    }

    #[test]
    fn lru_respects_recency() {
        let mut c = LruPolicyCache::new(2);
        c.insert(1, ());
        c.insert(2, ());
        c.get(1);
        let (victim, ()) = c.insert(3, ()).expect("full");
        assert_eq!(victim, 2, "LRU must evict the stale key");
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut c = ClockCache::new(2);
        c.insert(1, ());
        c.insert(2, ());
        c.get(1); // sets 1's reference bit
                  // Insert 3: hand sweeps, clears 1's bit... but 2's bit is also set
                  // from its insert. The sweep clears both and returns to slot 0 — we
                  // only check that *something* was evicted and 1 survived if its bit
                  // protected it longer than 2's.
        let evicted = c.insert(3, ()).expect("full");
        assert!(evicted.0 == 1 || evicted.0 == 2);
        assert!(c.contains(3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn clock_evicts_unreferenced_first() {
        let mut c = ClockCache::new(3);
        c.insert(1, ());
        c.insert(2, ());
        c.insert(3, ());
        // Clear all bits with one full sweep by inserting and evicting once.
        let first = c.insert(4, ()).expect("full").0;
        assert_eq!(first, 1, "first sweep clears insert-bits in slot order then loops");
        // Now touch 2 so its bit is set; 3 is the next clean victim.
        c.get(2);
        let second = c.insert(5, ()).expect("full").0;
        assert_eq!(second, 3, "referenced entry 2 must be skipped");
        assert!(c.contains(2));
    }

    #[test]
    fn lfu_evicts_cold_keys() {
        let mut c = LfuCache::new(2);
        c.insert(1, ());
        c.insert(2, ());
        c.get(1);
        c.get(1); // key 1: freq 3, key 2: freq 1
        let (victim, ()) = c.insert(3, ()).expect("full");
        assert_eq!(victim, 2);
        assert!(c.contains(1));
    }

    #[test]
    fn lfu_ties_break_lru() {
        let mut c = LfuCache::new(2);
        c.insert(1, ());
        c.insert(2, ());
        // Both freq 1; key 1 is older.
        let (victim, ()) = c.insert(3, ()).expect("full");
        assert_eq!(victim, 1);
    }

    #[test]
    fn two_q_protects_reaccessed_keys() {
        let mut c = TwoQCache::new(8); // am cap 6, ghost cap 4
                                       // Overflow probation so keys 1..=4 land in the ghost list.
        for k in 1..=12u64 {
            c.insert(k, ());
        }
        assert!(!c.contains(1), "1 must have left probation");
        // Re-fetch 1: ghost hit → protected.
        c.insert(1, ());
        assert!(c.contains(1));
        // A long cold scan must not displace the protected key.
        for k in 100..140u64 {
            c.insert(k, ());
        }
        assert!(c.contains(1), "protected key washed out by a scan");
    }

    #[test]
    fn two_q_scan_resistant_vs_lru() {
        // A small hot set + a long one-shot scan: 2Q should retain the hot
        // set better than LRU.
        let hot: Vec<u64> = (0..4).collect();
        let mut two_q = TwoQCache::new(16);
        let mut lru = LruPolicyCache::new(16);
        let mut hits_2q = 0;
        let mut hits_lru = 0;
        let mut scan_key = 1000u64;
        for round in 0..200 {
            for &h in &hot {
                if two_q.get(h).is_some() {
                    hits_2q += 1;
                } else {
                    two_q.insert(h, ());
                }
                if lru.get(h).is_some() {
                    hits_lru += 1;
                } else {
                    lru.insert(h, ());
                }
            }
            // Interleave a burst of cold keys.
            if round % 2 == 0 {
                for _ in 0..20 {
                    scan_key += 1;
                    two_q.insert(scan_key, ());
                    lru.insert(scan_key, ());
                }
            }
        }
        assert!(
            hits_2q >= hits_lru,
            "2Q ({hits_2q}) should be at least as scan-resistant as LRU ({hits_lru})"
        );
    }

    #[test]
    fn policy_sim_lru_matches_prefetch_sim() {
        // PolicySim with PolicyKind::Lru and position-0 admission must agree
        // with the production PrefetchCacheSim on hits and block reads.
        use crate::sim::PrefetchCacheSim;
        let layout = BlockLayout::identity(64, 8);
        let freq = AccessFrequency::zeros(64);
        let stream: Vec<u32> = (0..500u32).map(|i| (i * 7 + i * i / 3) % 64).collect();

        let mut reference = PrefetchCacheSim::new(
            &layout,
            16,
            AdmissionPolicy::All { position: 0.0 },
            freq.clone(),
        );
        let mut subject = PolicySim::new(
            &layout,
            16,
            AdmissionPolicy::All { position: 0.0 },
            freq,
            PolicyKind::Lru,
        );
        for &v in &stream {
            reference.lookup(v);
            subject.lookup(v);
        }
        assert_eq!(reference.metrics().hits, subject.metrics().hits);
        assert_eq!(reference.metrics().block_reads, subject.metrics().block_reads);
        assert_eq!(reference.metrics().prefetches_admitted, subject.metrics().prefetches_admitted);
    }

    #[test]
    fn policy_sim_threshold_admission_filters() {
        let layout = BlockLayout::identity(16, 4);
        let queries: Vec<Vec<u32>> = (0..20).map(|_| vec![0, 1]).collect();
        let freq = AccessFrequency::from_queries(16, queries.iter().map(|q| q.as_slice()));
        for kind in PolicyKind::ALL {
            let mut sim =
                PolicySim::new(&layout, 8, AdmissionPolicy::Threshold { t: 5 }, freq.clone(), kind);
            sim.lookup(0);
            assert_eq!(sim.metrics().prefetches_admitted, 1, "{kind}: only vector 1 is hot");
        }
    }

    #[test]
    fn display_names_are_stable() {
        let names: Vec<&str> = PolicyKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["lru", "fifo", "clock", "lfu", "2q"]);
    }
}
