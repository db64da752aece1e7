//! Property-based tests for the caching machinery.

use bandana_cache::{AdmissionPolicy, PrefetchCacheSim, SegmentedLru};
use bandana_partition::{AccessFrequency, BlockLayout};
use proptest::prelude::*;

/// Reference LRU: Vec ordered MRU-first.
#[derive(Debug)]
struct RefLru {
    order: Vec<u64>,
    capacity: usize,
}

impl RefLru {
    fn new(capacity: usize) -> Self {
        RefLru { order: Vec::new(), capacity }
    }
    fn get(&mut self, key: u64) -> bool {
        if let Some(i) = self.order.iter().position(|&k| k == key) {
            self.order.remove(i);
            self.order.insert(0, key);
            true
        } else {
            false
        }
    }
    fn insert(&mut self, key: u64) -> Option<u64> {
        if let Some(i) = self.order.iter().position(|&k| k == key) {
            self.order.remove(i);
        }
        self.order.insert(0, key);
        if self.order.len() > self.capacity {
            self.order.pop()
        } else {
            None
        }
    }
}

/// An operation against the cache.
#[derive(Debug, Clone)]
enum Op {
    Get(u64),
    Insert(u64),
}

fn op_strategy(key_space: u64) -> impl Strategy<Value = Op> {
    prop_oneof![(0..key_space).prop_map(Op::Get), (0..key_space).prop_map(Op::Insert),]
}

proptest! {
    /// With a single segment, SegmentedLru is an exact LRU: identical hits,
    /// evictions, and recency order to the reference model.
    #[test]
    fn single_segment_is_exact_lru(
        capacity in 1usize..16,
        ops in proptest::collection::vec(op_strategy(24), 1..400)
    ) {
        let mut lru = SegmentedLru::new(capacity, 1);
        let mut reference = RefLru::new(capacity);
        for op in ops {
            match op {
                Op::Get(k) => {
                    prop_assert_eq!(lru.get(k).is_some(), reference.get(k));
                }
                Op::Insert(k) => {
                    let e1 = lru.insert(k, (), 0.0).map(|(key, ())| key);
                    let e2 = reference.insert(k);
                    prop_assert_eq!(e1, e2);
                }
            }
            prop_assert_eq!(lru.keys_in_order(), reference.order.clone());
        }
    }

    /// Capacity is never exceeded and `contains` agrees with `keys_in_order`
    /// for any segment count and any mix of positions.
    #[test]
    fn segmented_invariants(
        capacity in 4usize..32,
        segments in 1usize..4,
        ops in proptest::collection::vec((0u64..40, 0..=10u32), 1..400)
    ) {
        let mut lru = SegmentedLru::new(capacity, segments);
        for (key, pos10) in ops {
            let pos = f64::from(pos10) / 10.0;
            lru.insert(key, key, pos);
            prop_assert!(lru.len() <= capacity);
            prop_assert!(lru.contains(key), "freshly inserted key missing");
        }
        let listed = lru.keys_in_order();
        prop_assert_eq!(listed.len(), lru.len());
        for k in listed {
            prop_assert!(lru.contains(k));
        }
    }

    /// The prefetch simulator conserves counters on any lookup stream:
    /// hits + misses = lookups, block reads = misses, and the hit rate of a
    /// bigger cache is never worse under the None policy (pure LRU).
    #[test]
    fn sim_counter_conservation(
        stream in proptest::collection::vec(0u32..128, 1..500),
        cache in 1usize..64
    ) {
        let layout = BlockLayout::identity(128, 8);
        let freq = AccessFrequency::zeros(128);
        let mut sim = PrefetchCacheSim::new(&layout, cache, AdmissionPolicy::None, freq);
        for &v in &stream {
            sim.lookup(v);
        }
        let m = sim.metrics();
        prop_assert_eq!(m.hits + m.misses, m.lookups);
        prop_assert_eq!(m.block_reads, m.misses);
        prop_assert_eq!(m.lookups as usize, stream.len());
    }

    /// LRU inclusion property through the simulator: under the None policy a
    /// larger cache never has fewer hits on the same stream.
    #[test]
    fn lru_inclusion(
        stream in proptest::collection::vec(0u32..64, 1..400),
        small in 1usize..16
    ) {
        let layout = BlockLayout::identity(64, 8);
        let freq = AccessFrequency::zeros(64);
        let big = small * 2;
        let run = |cap: usize| {
            let mut sim = PrefetchCacheSim::new(&layout, cap, AdmissionPolicy::None, freq.clone());
            for &v in &stream {
                sim.lookup(v);
            }
            sim.metrics().hits
        };
        prop_assert!(run(big) >= run(small));
    }

    /// `set_capacity` keeps the structural invariants for any resize
    /// schedule: `targets` always sum to `capacity`, occupancy never
    /// exceeds it, and a shrink→grow round trip never loses a survivor or
    /// reorders one.
    #[test]
    fn set_capacity_round_trip_preserves_survivors(
        capacity in 4usize..24,
        segments in 1usize..4,
        ops in proptest::collection::vec((0u64..48, 0..=10u32), 1..200),
        shrink_to in 1usize..12,
    ) {
        let mut lru = SegmentedLru::new(capacity, segments);
        for (key, pos10) in ops {
            lru.insert(key, key, f64::from(pos10) / 10.0);
        }
        let before = lru.keys_in_order();
        let shed: Vec<u64> = lru.set_capacity(shrink_to).into_iter().map(|(k, _)| k).collect();
        prop_assert_eq!(lru.segment_targets().iter().sum::<usize>(), lru.capacity());
        prop_assert!(lru.len() <= lru.capacity());
        // Shrink evicts coldest-first: the shed keys are exactly the tail
        // of the pre-shrink recency order, coldest first.
        let expected_shed: Vec<u64> = before.iter().rev().take(shed.len()).copied().collect();
        prop_assert_eq!(&shed, &expected_shed);
        lru.set_capacity(capacity);
        prop_assert_eq!(lru.segment_targets().iter().sum::<usize>(), lru.capacity());
        let survivors: Vec<u64> =
            before.iter().filter(|k| !shed.contains(k)).copied().collect();
        prop_assert_eq!(lru.keys_in_order(), survivors);
    }

    /// After a shrink, a single-segment queue behaves exactly like a
    /// freshly built LRU of the smaller size holding the same survivors:
    /// identical hits, evictions, and recency order from then on.
    #[test]
    fn shrunk_lru_matches_fresh_lru_of_same_size(
        warmup in proptest::collection::vec(0u64..32, 1..150),
        ops in proptest::collection::vec(op_strategy(32), 1..150),
        capacity in 2usize..16,
        shrink_to in 1usize..8,
    ) {
        let mut subject = SegmentedLru::new(capacity, 1);
        for &k in &warmup {
            subject.insert(k, k, 0.0);
        }
        subject.set_capacity(shrink_to);
        // A fresh LRU of the shrunken size seeded with the survivors in
        // recency order (coldest inserted first).
        let mut fresh = SegmentedLru::new(shrink_to.max(1), 1);
        for &k in subject.keys_in_order().iter().rev() {
            fresh.insert(k, k, 0.0);
        }
        prop_assert_eq!(subject.keys_in_order(), fresh.keys_in_order());
        for op in ops {
            match op {
                Op::Get(k) => {
                    prop_assert_eq!(subject.get(k).is_some(), fresh.get(k).is_some());
                }
                Op::Insert(k) => {
                    let e1 = subject.insert(k, k, 0.0).map(|(key, _)| key);
                    let e2 = fresh.insert(k, k, 0.0).map(|(key, _)| key);
                    prop_assert_eq!(e1, e2, "eviction order diverged from fresh LRU");
                }
            }
            prop_assert_eq!(subject.keys_in_order(), fresh.keys_in_order());
        }
    }

    /// Under top inserts, promotions, peeks and resizes at or above the
    /// segment count, an S-segment queue is indistinguishable from a
    /// one-segment queue: the same evicted entries, order, length and
    /// eviction count after every step. This is what lets a cache whose
    /// policy never inserts below the top run on one segment. `remove` is
    /// left out on purpose: a hole in the middle of a segmented queue plus a
    /// later shrink sheds an entry the one-segment queue keeps, and neither
    /// cache built on this equivalence removes entries.
    #[test]
    fn top_only_queue_is_the_same_on_any_segment_count(
        segments in 2usize..=16,
        extra in 0usize..24,
        ops in proptest::collection::vec((0u8..8, 0u64..48, 0usize..40), 1..400),
    ) {
        let capacity = segments + extra;
        let mut split = SegmentedLru::new(capacity, segments);
        let mut flat = SegmentedLru::new(capacity, 1);
        for (step, (kind, key, resize)) in ops.into_iter().enumerate() {
            match kind {
                0..=3 => {
                    let value = step as u64;
                    prop_assert_eq!(split.insert(key, value, 0.0), flat.insert(key, value, 0.0));
                }
                4 => prop_assert_eq!(split.get(key), flat.get(key)),
                5 => match (split.get_mut(key), flat.get_mut(key)) {
                    (Some(a), Some(b)) => {
                        prop_assert_eq!(*a, *b);
                        *a += 1000;
                        *b += 1000;
                    }
                    (a, b) => prop_assert_eq!(a.is_some(), b.is_some()),
                },
                6 => prop_assert_eq!(split.peek(key), flat.peek(key)),
                _ => {
                    let to = segments + resize;
                    prop_assert_eq!(split.set_capacity(to), flat.set_capacity(to));
                }
            }
            prop_assert_eq!(split.keys_in_order(), flat.keys_in_order());
            prop_assert_eq!(split.len(), flat.len());
            prop_assert_eq!(split.evictions(), flat.evictions());
        }
    }

    /// Prefetch admission never changes correctness-level counters: lookups
    /// and the hit/miss partition stay consistent for every policy.
    #[test]
    fn policies_conserve_counters(
        stream in proptest::collection::vec(0u32..96, 1..300),
        which in 0usize..5
    ) {
        let policy = match which {
            0 => AdmissionPolicy::None,
            1 => AdmissionPolicy::All { position: 0.0 },
            2 => AdmissionPolicy::All { position: 0.7 },
            3 => AdmissionPolicy::Shadow,
            _ => AdmissionPolicy::Threshold { t: 1 },
        };
        let layout = BlockLayout::random(96, 8, 3);
        let freq = AccessFrequency::zeros(96);
        let mut sim = PrefetchCacheSim::new(&layout, 16, policy, freq);
        for &v in &stream {
            sim.lookup(v);
        }
        let m = sim.metrics();
        prop_assert_eq!(m.hits + m.misses, m.lookups);
        prop_assert_eq!(m.block_reads, m.misses);
        prop_assert!(m.prefetch_hits <= m.prefetches_admitted);
    }
}

mod policy_props {
    use super::*;
    use bandana_cache::policy::{EvictionCache, LruPolicyCache, PolicyKind};

    proptest! {
        /// Every eviction policy maintains `len <= capacity`, never loses a
        /// key it did not evict, and evicts exactly one entry per
        /// overflowing insert.
        #[test]
        fn policies_maintain_invariants(
            ops in proptest::collection::vec(op_strategy(64), 1..400),
            capacity in 1usize..32,
        ) {
            for kind in PolicyKind::ALL {
                let mut cache = kind.build::<u64>(capacity);
                let mut resident = std::collections::HashSet::new();
                for op in &ops {
                    match op {
                        Op::Get(k) => {
                            let hit = cache.get(*k).is_some();
                            prop_assert_eq!(hit, resident.contains(k), "{} get({})", kind, k);
                        }
                        Op::Insert(k) => {
                            let was_resident = resident.contains(k);
                            let evicted = cache.insert(*k, *k);
                            resident.insert(*k);
                            if let Some((vk, vv)) = evicted {
                                prop_assert_eq!(vk, vv, "{}: value corrupted", kind);
                                prop_assert!(resident.remove(&vk), "{}: evicted non-resident {}", kind, vk);
                                prop_assert!(!was_resident, "{}: refresh must not evict", kind);
                            }
                            prop_assert!(cache.len() <= capacity);
                            prop_assert_eq!(cache.len(), resident.len(), "{}: len mismatch", kind);
                        }
                    }
                }
            }
        }

        /// `LruPolicyCache` (the trait adapter) agrees with the reference
        /// LRU model on hits and evictions.
        #[test]
        fn lru_policy_cache_matches_reference(
            ops in proptest::collection::vec(op_strategy(32), 1..300),
            capacity in 1usize..16,
        ) {
            let mut subject = LruPolicyCache::new(capacity);
            let mut reference = RefLru::new(capacity);
            for op in &ops {
                match op {
                    Op::Get(k) => {
                        prop_assert_eq!(subject.get(*k).is_some(), reference.get(*k));
                    }
                    Op::Insert(k) => {
                        let e1 = subject.insert(*k, ()).map(|(key, ())| key);
                        let e2 = reference.insert(*k);
                        prop_assert_eq!(e1, e2);
                    }
                }
            }
        }

        /// `SegmentedLru::pop_lru` always returns the key the reference
        /// model would evict next.
        #[test]
        fn pop_lru_pops_the_coldest(
            keys in proptest::collection::vec(0u64..24, 1..100),
            capacity in 1usize..12,
        ) {
            let mut subject = SegmentedLru::new(capacity, 1);
            let mut reference = RefLru::new(capacity);
            for &k in &keys {
                let _ = subject.insert(k, (), 0.0);
                let _ = reference.insert(k);
            }
            while let Some((k, ())) = subject.pop_lru() {
                let expected = reference.order.pop().expect("reference still has keys");
                prop_assert_eq!(k, expected);
            }
            prop_assert!(reference.order.is_empty());
        }
    }
}
