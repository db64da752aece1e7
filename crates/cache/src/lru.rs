//! A segmented LRU queue with O(1) fractional-position insertion.
//!
//! Paper §4.3.1 inserts prefetched vectors at configurable positions in the
//! eviction queue (0 = top/MRU, 0.5 = middle, 0.9 = near the tail). A naive
//! linked list would need an O(n) walk to find "position 0.7·len", so the
//! queue is built from `S` fixed-ratio segments, each an intrusive doubly
//! linked list over one slab: inserting at fraction `p` pushes onto the head
//! of segment `⌊p·S⌋`, overflow cascades tail→head down the segments, and
//! eviction pops the last segment's tail. With one segment this is an exact
//! LRU, which the property tests verify against a reference model.
//!
//! Segments exist only for those fractional inserts, and they cost work:
//! every insert and every hit promotion into segment 0 relinks one entry at
//! each segment boundary below it. A queue that only ever inserts at the top
//! does not need them. Under top inserts, `get`/`get_mut`/`peek` and
//! `set_capacity` (at or above the segment count), an `S`-segment queue
//! holds the same keys in the same order and evicts the same entries as a
//! one-segment queue, so such a queue is built with one (see
//! [`AdmissionPolicy::inserts_below_top`](crate::AdmissionPolicy::inserts_below_top)).
//! `remove` breaks the equivalence: a hole left mid-queue plus a later shrink
//! can shed an entry the one-segment queue keeps.

use crate::idhash::IdHashMap;

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node<V> {
    key: u64,
    /// `None` only while the slot sits on the free list.
    value: Option<V>,
    prev: u32,
    next: u32,
    segment: u8,
}

#[derive(Debug, Clone, Copy)]
struct SegmentList {
    head: u32,
    tail: u32,
    len: usize,
}

impl SegmentList {
    fn new() -> Self {
        SegmentList { head: NIL, tail: NIL, len: 0 }
    }
}

/// A bounded LRU-like queue over `u64` keys with values, supporting
/// insertion at a fractional queue position.
///
/// # Example
///
/// ```
/// use bandana_cache::SegmentedLru;
///
/// let mut lru = SegmentedLru::new(2, 1); // capacity 2, exact LRU
/// lru.insert(1, "a", 0.0);
/// lru.insert(2, "b", 0.0);
/// lru.insert(3, "c", 0.0); // evicts key 1
/// assert!(!lru.contains(1));
/// assert_eq!(lru.get(2), Some(&"b"));
/// ```
#[derive(Debug, Clone)]
pub struct SegmentedLru<V> {
    nodes: Vec<Node<V>>,
    free: Vec<u32>,
    index: IdHashMap<u64, u32>,
    segments: Vec<SegmentList>,
    /// Per-segment capacity targets; sum equals total capacity.
    targets: Vec<usize>,
    capacity: usize,
    evictions: u64,
}

impl<V> SegmentedLru<V> {
    /// Creates a queue with `capacity` entries split across `segments`
    /// equal-ratio segments.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `segments` is zero, `segments > 255`, or
    /// `segments > capacity`.
    pub fn new(capacity: usize, segments: usize) -> Self {
        assert!(capacity > 0, "capacity must be non-zero");
        assert!(segments > 0, "need at least one segment");
        assert!(segments <= 255, "at most 255 segments");
        assert!(segments <= capacity, "more segments than capacity");
        let base = capacity / segments;
        let mut targets = vec![base; segments];
        // Distribute the remainder to the front segments.
        for target in targets.iter_mut().take(capacity % segments) {
            *target += 1;
        }
        SegmentedLru {
            nodes: Vec::new(),
            free: Vec::new(),
            // 2× headroom keeps the live count at or below half the bucket
            // array. Delete-heavy workloads leave tombstones behind, and the
            // std hash table only *allocates* on the resulting rebuild when
            // occupancy exceeds half the buckets — below that it rehashes in
            // place. The steady-state zero-allocation guarantee on the read
            // path depends on staying on that in-place branch.
            index: IdHashMap::with_capacity_and_hasher(
                capacity.saturating_mul(2),
                Default::default(),
            ),
            segments: vec![SegmentList::new(); segments],
            targets,
            capacity,
            evictions: 0,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Per-segment capacity targets; they always sum to
    /// [`SegmentedLru::capacity`].
    pub fn segment_targets(&self) -> &[usize] {
        &self.targets
    }

    /// Whether `key` is cached, *without* touching recency.
    pub fn contains(&self, key: u64) -> bool {
        self.index.contains_key(&key)
    }

    /// Looks up `key`, promoting it to the queue top (MRU) on a hit.
    pub fn get(&mut self, key: u64) -> Option<&V> {
        let &id = self.index.get(&key)?;
        self.unlink(id);
        self.link_head(id, 0);
        self.rebalance(0);
        self.nodes[id as usize].value.as_ref()
    }

    /// Looks up `key` mutably, promoting it to the queue top (MRU) on a
    /// hit — [`SegmentedLru::get`] for callers that update the value in
    /// place (e.g. flipping a prefetched entry to demand-fetched) without
    /// a remove/re-insert round trip.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        let &id = self.index.get(&key)?;
        self.unlink(id);
        self.link_head(id, 0);
        self.rebalance(0);
        self.nodes[id as usize].value.as_mut()
    }

    /// Reads `key` without touching recency.
    pub fn peek(&self, key: u64) -> Option<&V> {
        let &id = self.index.get(&key)?;
        self.nodes[id as usize].value.as_ref()
    }

    /// Inserts `key` at queue fraction `position` (0.0 = top/MRU, values
    /// close to 1.0 = near the eviction end). If the key is present it is
    /// *moved* to that position and its value replaced.
    ///
    /// Returns the evicted `(key, value)` pair if the insertion displaced
    /// one.
    ///
    /// # Panics
    ///
    /// Panics if `position` is not in `[0.0, 1.0]`.
    pub fn insert(&mut self, key: u64, value: V, position: f64) -> Option<(u64, V)> {
        assert!((0.0..=1.0).contains(&position), "position must be in [0,1], got {position}");
        let seg = ((position * self.segments.len() as f64) as usize).min(self.segments.len() - 1);
        if let Some(&id) = self.index.get(&key) {
            self.nodes[id as usize].value = Some(value);
            self.unlink(id);
            self.link_head(id, seg);
            return self.rebalance(seg);
        }
        let id = self.alloc(key, value);
        self.index.insert(key, id);
        self.link_head(id, seg);
        self.rebalance(seg)
    }

    /// Changes the capacity online, returning the entries evicted by a
    /// shrink (coldest first; empty on grow).
    ///
    /// Growing takes effect immediately: the raised per-segment targets
    /// admit new inserts without evicting anything. Shrinking settles every
    /// segment into its smaller target before returning: overflow cascades
    /// tail→head down the segments (which keeps the global MRU→LRU order)
    /// and the last segment sheds from its tail — exactly the order
    /// [`SegmentedLru::pop_lru`] would evict in — so the survivors keep
    /// their relative recency, every shed entry is handed back, and the
    /// queue never holds more than `capacity` entries afterwards.
    ///
    /// The segment count is fixed at construction, so `capacity` is clamped
    /// to at least the segment count (every segment keeps a non-zero
    /// target).
    pub fn set_capacity(&mut self, capacity: usize) -> Vec<(u64, V)> {
        let capacity = capacity.max(self.segments.len());
        let segments = self.segments.len();
        let base = capacity / segments;
        let remainder = capacity % segments;
        for (i, target) in self.targets.iter_mut().enumerate() {
            *target = base + usize::from(i < remainder);
        }
        self.capacity = capacity;
        // Keep the constructor's 2× index headroom through grows so
        // tombstone-driven rebuilds stay on the alloc-free in-place path
        // (see `new`). `reserve` takes *additional* slots beyond `len`.
        self.index.reserve(capacity.saturating_mul(2).saturating_sub(self.index.len()));
        self.cascade(0);
        let mut shed = Vec::new();
        while let Some(entry) = self.evict_overflow() {
            shed.push(entry);
        }
        shed
    }

    /// Pops the least-recently-used entry (the tail of the last non-empty
    /// segment), returning it. O(segments).
    pub fn pop_lru(&mut self) -> Option<(u64, V)> {
        let id = self.segments.iter().rev().find(|seg| seg.tail != NIL).map(|seg| seg.tail)?;
        Some(self.release(id))
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let &id = self.index.get(&key)?;
        Some(self.release(id).1)
    }

    /// The keys from MRU to LRU across all segments (O(n); for tests and
    /// debugging).
    pub fn keys_in_order(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len());
        for seg in &self.segments {
            let mut cur = seg.head;
            while cur != NIL {
                out.push(self.nodes[cur as usize].key);
                cur = self.nodes[cur as usize].next;
            }
        }
        out
    }

    /// The entries from MRU to LRU across all segments, without touching
    /// recency (O(n); the persistence snapshot path walks this to capture
    /// cache contents in eviction order).
    pub fn entries_in_order(&self) -> Vec<(u64, &V)> {
        let mut out = Vec::with_capacity(self.len());
        for seg in &self.segments {
            let mut cur = seg.head;
            while cur != NIL {
                let node = &self.nodes[cur as usize];
                out.push((node.key, node.value.as_ref().expect("live node has a value")));
                cur = node.next;
            }
        }
        out
    }

    /// Every cached value, mutably, in no particular order and without
    /// touching recency (O(slab); for owners that keep side storage keyed
    /// by a field of the value and need to rewrite that field).
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.nodes.iter_mut().filter_map(|node| node.value.as_mut())
    }

    fn alloc(&mut self, key: u64, value: V) -> u32 {
        if let Some(id) = self.free.pop() {
            self.nodes[id as usize] =
                Node { key, value: Some(value), prev: NIL, next: NIL, segment: 0 };
            id
        } else {
            self.nodes.push(Node { key, value: Some(value), prev: NIL, next: NIL, segment: 0 });
            (self.nodes.len() - 1) as u32
        }
    }

    fn unlink(&mut self, id: u32) {
        let (prev, next, seg) = {
            let n = &self.nodes[id as usize];
            (n.prev, n.next, n.segment as usize)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.segments[seg].head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.segments[seg].tail = prev;
        }
        self.segments[seg].len -= 1;
        self.nodes[id as usize].prev = NIL;
        self.nodes[id as usize].next = NIL;
    }

    fn link_head(&mut self, id: u32, seg: usize) {
        let head = self.segments[seg].head;
        self.nodes[id as usize].next = head;
        self.nodes[id as usize].prev = NIL;
        self.nodes[id as usize].segment = seg as u8;
        if head != NIL {
            self.nodes[head as usize].prev = id;
        } else {
            self.segments[seg].tail = id;
        }
        self.segments[seg].head = id;
        self.segments[seg].len += 1;
    }

    /// Takes the live node `id` out of the queue and the index, returning
    /// its entry; the slab slot goes back on the free list.
    fn release(&mut self, id: u32) -> (u64, V) {
        let key = self.nodes[id as usize].key;
        self.index.remove(&key);
        self.unlink(id);
        self.free.push(id);
        (key, self.nodes[id as usize].value.take().expect("live node has a value"))
    }

    /// Demotes overflow from segment `from` downward, tail→head, until
    /// every segment but the last fits its target.
    fn cascade(&mut self, from: usize) {
        for seg in from..self.segments.len() - 1 {
            // A demoted entry becomes the *most* recent of the next, colder
            // segment.
            while self.segments[seg].len > self.targets[seg] {
                let tail = self.segments[seg].tail;
                debug_assert_ne!(tail, NIL);
                self.unlink(tail);
                self.link_head(tail, seg + 1);
            }
        }
    }

    /// Evicts the last segment's tail if that segment is over its target.
    fn evict_overflow(&mut self) -> Option<(u64, V)> {
        let last = self.segments.len() - 1;
        if self.segments[last].len <= self.targets[last] {
            return None;
        }
        self.evictions += 1;
        Some(self.release(self.segments[last].tail))
    }

    /// Settles the queue after one entry was linked into segment `from`:
    /// cascades the overflow down and evicts at most one entry. Every
    /// segment is within its target between operations (`set_capacity`
    /// settles eagerly), so one link can overflow the last segment by one.
    fn rebalance(&mut self, from: usize) -> Option<(u64, V)> {
        self.cascade(from);
        let evicted = self.evict_overflow();
        debug_assert!(self.segments.iter().zip(&self.targets).all(|(s, &t)| s.len <= t));
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference LRU model: Vec ordered MRU-first.
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

    #[test]
    fn exact_lru_matches_reference_model() {
        let mut lru = SegmentedLru::new(5, 1);
        let mut reference = RefLru::new(5);
        // Deterministic pseudo-random key stream.
        let mut x = 7u64;
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = (x >> 33) % 12;
            if (x >> 10) & 1 == 0 {
                let hit = lru.get(key).is_some();
                assert_eq!(hit, reference.get(key), "get({key}) diverged");
            } else {
                let ev = lru.insert(key, key, 0.0).map(|(k, _)| k);
                assert_eq!(ev, reference.insert(key), "insert({key}) diverged");
            }
            assert_eq!(lru.keys_in_order(), reference.order, "order diverged");
        }
    }

    #[test]
    fn basic_insert_get_evict() {
        let mut lru = SegmentedLru::new(2, 1);
        assert!(lru.insert(1, 10, 0.0).is_none());
        assert!(lru.insert(2, 20, 0.0).is_none());
        let evicted = lru.insert(3, 30, 0.0);
        assert_eq!(evicted, Some((1, 10)));
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(2), Some(&20));
        assert_eq!(lru.evictions(), 1);
    }

    #[test]
    fn get_promotes_to_mru() {
        let mut lru = SegmentedLru::new(3, 1);
        lru.insert(1, (), 0.0);
        lru.insert(2, (), 0.0);
        lru.insert(3, (), 0.0);
        assert_eq!(lru.keys_in_order(), vec![3, 2, 1]);
        lru.get(1);
        assert_eq!(lru.keys_in_order(), vec![1, 3, 2]);
        // Inserting now evicts 2 (the LRU), not 1.
        let ev = lru.insert(4, (), 0.0);
        assert_eq!(ev, Some((2, ())));
    }

    #[test]
    fn get_mut_promotes_and_updates_in_place() {
        let mut lru = SegmentedLru::new(3, 1);
        lru.insert(1, 10, 0.0);
        lru.insert(2, 20, 0.0);
        lru.insert(3, 30, 0.0);
        let evictions_before = lru.evictions();
        *lru.get_mut(1).unwrap() = 11;
        assert_eq!(lru.keys_in_order(), vec![1, 3, 2], "get_mut must promote to MRU");
        assert_eq!(lru.peek(1), Some(&11));
        assert_eq!(lru.evictions(), evictions_before, "in-place update must not evict");
        assert!(lru.get_mut(99).is_none());
    }

    #[test]
    fn peek_and_contains_do_not_promote() {
        let mut lru = SegmentedLru::new(2, 1);
        lru.insert(1, (), 0.0);
        lru.insert(2, (), 0.0);
        assert!(lru.contains(1));
        assert_eq!(lru.peek(1), Some(&()));
        assert_eq!(lru.keys_in_order(), vec![2, 1]);
    }

    #[test]
    fn tail_insertion_is_evicted_first() {
        let mut lru = SegmentedLru::new(10, 10);
        // Five MRU inserts then one near-tail insert.
        for k in 0..5 {
            lru.insert(k, (), 0.0);
        }
        lru.insert(99, (), 0.9);
        // Fill the cache; the tail insert should go before the head ones.
        let mut evicted = Vec::new();
        for k in 10..16 {
            if let Some((e, ())) = lru.insert(k, (), 0.0) {
                evicted.push(e);
            }
        }
        assert!(
            evicted.first() == Some(&99),
            "tail-inserted key should evict first, evicted order {evicted:?}"
        );
    }

    #[test]
    fn mid_insertion_outlives_tail_but_not_head() {
        let mut lru = SegmentedLru::new(12, 4);
        lru.insert(100, (), 0.99); // near tail
        lru.insert(200, (), 0.5); // middle
        lru.insert(300, (), 0.0); // head
        let mut evict_order = Vec::new();
        for k in 0..12u64 {
            if let Some((e, ())) = lru.insert(k, (), 0.0) {
                if e >= 100 {
                    evict_order.push(e);
                }
            }
        }
        // Ensure the relative eviction order is tail < middle.
        let p100 = evict_order.iter().position(|&k| k == 100);
        let p200 = evict_order.iter().position(|&k| k == 200);
        assert!(p100.is_some(), "tail insert never evicted: {evict_order:?}");
        if let (Some(a), Some(b)) = (p100, p200) {
            assert!(a < b, "tail should evict before middle: {evict_order:?}");
        }
    }

    #[test]
    fn reinsert_moves_and_replaces_value() {
        let mut lru = SegmentedLru::new(3, 1);
        lru.insert(1, 10, 0.0);
        lru.insert(2, 20, 0.0);
        lru.insert(1, 11, 0.0);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.peek(1), Some(&11));
        assert_eq!(lru.keys_in_order(), vec![1, 2]);
    }

    #[test]
    fn remove_frees_capacity() {
        let mut lru = SegmentedLru::new(2, 1);
        lru.insert(1, 10, 0.0);
        lru.insert(2, 20, 0.0);
        assert_eq!(lru.remove(1), Some(10));
        assert_eq!(lru.len(), 1);
        assert!(lru.insert(3, 30, 0.0).is_none(), "freed slot should absorb the insert");
        assert_eq!(lru.remove(99), None);
    }

    #[test]
    fn slab_reuse_after_many_evictions() {
        let mut lru = SegmentedLru::new(4, 2);
        for k in 0..1000u64 {
            lru.insert(k, k, (k % 2) as f64 * 0.6);
        }
        assert_eq!(lru.len(), 4);
        // The slab should not have grown past capacity + O(1).
        assert!(lru.nodes.len() <= 8, "slab grew to {}", lru.nodes.len());
    }

    #[test]
    fn shrink_evicts_coldest_first_and_preserves_survivor_order() {
        let mut lru = SegmentedLru::new(6, 1);
        for k in 0..6u64 {
            lru.insert(k, k, 0.0);
        }
        // Order is MRU-first: [5, 4, 3, 2, 1, 0].
        let shed = lru.set_capacity(3);
        assert_eq!(shed.iter().map(|&(k, _)| k).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(lru.keys_in_order(), vec![5, 4, 3], "survivors keep recency order");
        assert_eq!(lru.capacity(), 3);
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.evictions(), 3);
    }

    #[test]
    fn shrink_settles_every_segment_and_hands_back_every_shed_entry() {
        // Targets (4, 4) holding (1, 4): under the new capacity but with
        // the tail segment over its new target of 3.
        let mut lru = SegmentedLru::new(8, 2);
        lru.insert(0, 0, 0.0);
        for k in 1..=4u64 {
            lru.insert(k, k, 0.5);
        }
        let shed = lru.set_capacity(6);
        assert_eq!(shed, vec![(1, 1)], "the tail segment's overflow is shed now, coldest first");
        assert_eq!(lru.keys_in_order(), vec![0, 4, 3, 2]);
        // Settled: a hit never evicts, an insert evicts at most the one
        // entry it returns, and occupancy never passes the capacity.
        lru.get(2);
        assert_eq!(lru.len(), 4);
        for k in 10..30u64 {
            let before = lru.len();
            let evicted = lru.insert(k, k, (k % 2) as f64 * 0.5);
            assert_eq!(lru.len(), before + 1 - usize::from(evicted.is_some()));
            assert!(lru.len() <= lru.capacity());
        }
        assert_eq!(lru.evictions(), 1 + 20 - 2);
    }

    #[test]
    fn values_mut_visits_exactly_the_live_entries() {
        let mut lru = SegmentedLru::new(3, 1);
        for k in 0..5u64 {
            lru.insert(k, k, 0.0);
        }
        lru.values_mut().for_each(|v| *v += 100);
        let mut seen: Vec<u64> = lru.entries_in_order().into_iter().map(|(_, &v)| v).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![102, 103, 104]);
    }

    #[test]
    fn grow_admits_immediately_without_evicting() {
        let mut lru = SegmentedLru::new(2, 1);
        lru.insert(1, (), 0.0);
        lru.insert(2, (), 0.0);
        assert!(lru.set_capacity(4).is_empty(), "grow must not evict");
        assert!(lru.insert(3, (), 0.0).is_none());
        assert!(lru.insert(4, (), 0.0).is_none());
        assert_eq!(lru.evictions(), 0);
        assert_eq!(lru.len(), 4);
        // The fifth insert evicts again at the new capacity.
        assert_eq!(lru.insert(5, (), 0.0), Some((1, ())));
    }

    #[test]
    fn set_capacity_targets_sum_to_capacity_multi_segment() {
        let mut lru = SegmentedLru::<u64>::new(16, 4);
        for capacity in [7usize, 16, 5, 33, 4] {
            lru.set_capacity(capacity);
            assert_eq!(lru.targets.iter().sum::<usize>(), lru.capacity());
            assert!(lru.targets.iter().all(|&t| t > 0), "every segment keeps a share");
        }
    }

    #[test]
    fn set_capacity_clamps_to_segment_count() {
        let mut lru = SegmentedLru::<()>::new(8, 4);
        lru.set_capacity(1);
        assert_eq!(lru.capacity(), 4, "capacity clamps to the segment count");
    }

    #[test]
    fn shrink_grow_round_trip_keeps_survivors() {
        let mut lru = SegmentedLru::new(8, 4);
        for k in 0..8u64 {
            lru.insert(k, k, (k % 4) as f64 / 4.0);
        }
        let before = lru.keys_in_order();
        let shed: Vec<u64> = lru.set_capacity(5).into_iter().map(|(k, _)| k).collect();
        assert_eq!(shed.len(), 3);
        lru.set_capacity(8);
        let after = lru.keys_in_order();
        let expected: Vec<u64> = before.into_iter().filter(|k| !shed.contains(k)).collect();
        assert_eq!(after, expected, "round trip must keep survivors in order");
        for k in &after {
            assert!(lru.contains(*k));
        }
    }

    #[test]
    #[should_panic(expected = "position must be in [0,1]")]
    fn bad_position_rejected() {
        let mut lru = SegmentedLru::new(2, 1);
        lru.insert(1, (), 1.5);
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_rejected() {
        let _ = SegmentedLru::<()>::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "more segments than capacity")]
    fn too_many_segments_rejected() {
        let _ = SegmentedLru::<()>::new(2, 4);
    }
}
