//! One table's DRAM cache: which vectors are cached, and their bytes.
//!
//! The paper budgets DRAM in vectors — a cache of *N* entries costs
//! *N* × `vector_bytes`. [`PayloadCache`] makes that literally true: the
//! eviction queue ([`SegmentedLru`]) maps a vector id to a *slot*, and the
//! payload lives at `slot × vector_bytes` in one arena the cache owns.
//! Admitting a vector copies its bytes in; nothing cached aliases a device
//! block buffer, so a block is free the moment its read has been served.
//!
//! # Slots
//!
//! Every live entry owns exactly one slot and no two entries share one. A
//! new entry takes the slot the previous eviction freed, or — while the
//! cache is still filling — the next slot past the arena's end, so the
//! arena grows lazily, one vector at a time, and never past
//! `(capacity + 1) × vector_bytes`: `capacity` live entries plus the one
//! slot an insert fills before the eviction it causes frees another. A
//! shrink packs the survivors into the low slots and gives the rest back.

use bandana_cache::{AdmissionPolicy, SegmentedLru};

/// How many LRU segments the cache uses under a policy that inserts below
/// the top ([`AdmissionPolicy::inserts_below_top`]); position granularity
/// 1/16. Every other policy runs on one segment, an exact LRU.
const SEGMENTS: usize = 16;

/// Whether a cached entry arrived on demand or as a prefetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Origin {
    Demand,
    Prefetch,
}

#[derive(Debug)]
pub(crate) struct PayloadCache {
    lru: SegmentedLru<(Origin, u32)>,
    /// Payload bytes, `vector_bytes` per slot.
    arena: Vec<u8>,
    /// The slot freed by the most recent eviction, not yet reused. Inserts
    /// take it before growing the arena, so at most one is ever waiting.
    free_slot: Option<u32>,
    vector_bytes: usize,
    /// `SEGMENTS.min(capacity at construction)`: the segment count of the
    /// queue under a policy that inserts below the top, and the floor every
    /// resize clamps to, whatever the queue's current shape.
    segmented: usize,
}

impl PayloadCache {
    pub(crate) fn new(capacity: usize, vector_bytes: usize, policy: &AdmissionPolicy) -> Self {
        let segmented = SEGMENTS.min(capacity);
        PayloadCache {
            lru: SegmentedLru::new(capacity, Self::segments(segmented, policy)),
            arena: Vec::new(),
            free_slot: None,
            vector_bytes,
            segmented,
        }
    }

    fn segments(segmented: usize, policy: &AdmissionPolicy) -> usize {
        if policy.inserts_below_top() {
            segmented
        } else {
            1
        }
    }

    /// Re-splits the queue for `policy` when it needs another segment count,
    /// keeping every entry and its recency order (see
    /// `TableStore::set_policy`).
    pub(crate) fn reshape_for(&mut self, policy: &AdmissionPolicy) {
        let segments = Self::segments(self.segmented, policy);
        if segments == self.lru.segment_targets().len() {
            return;
        }
        let mut lru = SegmentedLru::new(self.lru.capacity(), segments);
        while let Some((key, value)) = self.lru.pop_lru() {
            lru.insert(key, value, 0.0);
        }
        self.lru = lru;
    }

    pub(crate) fn capacity(&self) -> usize {
        self.lru.capacity()
    }

    /// Bytes of payload storage the cache holds right now.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.arena.len()
    }

    /// Whether `v` is cached, without touching recency.
    pub(crate) fn contains(&self, v: u32) -> bool {
        self.lru.contains(u64::from(v))
    }

    /// Looks `v` up, promoting it to MRU on a hit. The origin is mutable so
    /// the caller can flip a prefetched entry to demand-fetched in place.
    pub(crate) fn get(&mut self, v: u32) -> Option<(&mut Origin, &[u8])> {
        let (origin, slot) = self.lru.get_mut(u64::from(v))?;
        let at = *slot as usize * self.vector_bytes;
        Some((origin, &self.arena[at..at + self.vector_bytes]))
    }

    /// Copies `payload` into the cache as `v`'s entry at queue fraction
    /// `position` (see [`SegmentedLru::insert`]). Returns whether the
    /// insert evicted another entry.
    ///
    /// `refresh` says `v` may already be cached (a duplicate id within one
    /// batch, a repeated key in a snapshot): its entry is then moved and
    /// rewritten in its own slot. A caller that knows `v` is absent passes
    /// `false` and saves the probe.
    pub(crate) fn insert(
        &mut self,
        v: u32,
        origin: Origin,
        position: f64,
        payload: &[u8],
        refresh: bool,
    ) -> bool {
        let key = u64::from(v);
        let held = if refresh { self.lru.peek(key).map(|&(_, slot)| slot) } else { None };
        debug_assert!(refresh || !self.lru.contains(key), "insert of a cached vector");
        let slot = held.or_else(|| self.free_slot.take()).unwrap_or_else(|| {
            let slot = self.arena.len() / self.vector_bytes;
            self.arena.resize(self.arena.len() + self.vector_bytes, 0);
            slot as u32
        });
        let at = slot as usize * self.vector_bytes;
        self.arena[at..at + self.vector_bytes].copy_from_slice(payload);
        match self.lru.insert(key, (origin, slot), position) {
            Some((_, (_, freed))) => {
                debug_assert!(self.free_slot.is_none(), "an insert frees at most one slot");
                self.free_slot = Some(freed);
                true
            }
            None => false,
        }
    }

    /// Resizes the cache (see [`SegmentedLru::set_capacity`]), never below
    /// `SEGMENTS.min(capacity at construction)` entries, and returns how
    /// many entries a shrink evicted. When it evicted any, the survivors are
    /// packed into the low slots and the arena is cut — and its memory
    /// returned — to exactly their size.
    pub(crate) fn set_capacity(&mut self, entries: usize) -> usize {
        let shed = self.lru.set_capacity(entries.max(self.segmented)).len();
        if shed > 0 {
            self.compact();
        }
        shed
    }

    /// Moves every payload stored at or past slot `len()` into a slot below
    /// it that no live entry owns, then truncates the arena to `len()`
    /// slots. There are exactly as many such holes as payloads to move.
    fn compact(&mut self) {
        let live = self.lru.len();
        let mut owned = vec![false; live];
        for &mut (_, slot) in self.lru.values_mut() {
            if let Some(o) = owned.get_mut(slot as usize) {
                *o = true;
            }
        }
        let mut holes = (0..live).filter(|&s| !owned[s]);
        let vb = self.vector_bytes;
        for (_, slot) in self.lru.values_mut() {
            let from = *slot as usize;
            if from >= live {
                let to = holes.next().expect("a free low slot for every payload past the cut");
                self.arena.copy_within(from * vb..(from + 1) * vb, to * vb);
                *slot = to as u32;
            }
        }
        self.arena.truncate(live * vb);
        self.arena.shrink_to_fit();
        self.free_slot = None;
    }

    /// `(vector id, demand-fetched?)` pairs in MRU→LRU order.
    pub(crate) fn snapshot(&self) -> Vec<(u32, bool)> {
        self.lru
            .entries_in_order()
            .into_iter()
            .map(|(k, v)| (k as u32, v.0 == Origin::Demand))
            .collect()
    }

    /// `v`'s cached bytes, without touching recency.
    #[cfg(test)]
    pub(crate) fn peek(&self, v: u32) -> Option<&[u8]> {
        let &(_, slot) = self.lru.peek(u64::from(v))?;
        Some(&self.arena[slot as usize * self.vector_bytes..][..self.vector_bytes])
    }

    /// Checks the slot rules: every live entry owns a distinct slot inside
    /// the arena, the arena holds nothing but those slots and at most one
    /// free one, and so never exceeds `(capacity + 1) × vector_bytes`.
    #[cfg(test)]
    pub(crate) fn assert_invariants(&self) {
        let slots = self.arena.len() / self.vector_bytes;
        assert_eq!(self.arena.len() % self.vector_bytes, 0);
        let mut owner = vec![None; slots];
        for (key, &(_, slot)) in self.lru.entries_in_order() {
            let seat = owner.get_mut(slot as usize).expect("slot lies inside the arena");
            assert_eq!(seat.replace(key), None, "slot {slot} owned by two live keys");
        }
        if let Some(free) = self.free_slot {
            assert_eq!(owner[free as usize], None, "the free slot is owned by a live key");
        }
        assert_eq!(slots, self.lru.len() + usize::from(self.free_slot.is_some()));
        assert!(self.lru.len() <= self.capacity());
        assert!(self.arena.len() <= (self.capacity() + 1) * self.vector_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inserts below the top, so the queue is segmented.
    const POSITIONAL: AdmissionPolicy = AdmissionPolicy::All { position: 0.5 };

    fn payload(v: u32) -> [u8; 4] {
        v.to_le_bytes()
    }

    #[test]
    fn arena_grows_lazily_and_recycles_the_evicted_slot() {
        let mut cache = PayloadCache::new(16, 4, &POSITIONAL);
        assert_eq!(cache.resident_bytes(), 0, "nothing is pre-faulted");
        for v in 0..16u32 {
            assert!(!cache.insert(v, Origin::Demand, 0.0, &payload(v), false));
            assert_eq!(cache.resident_bytes(), (v as usize + 1) * 4);
        }
        // Full: each further insert evicts, and takes the slot the one
        // before it freed — one slot past the capacity, never more.
        for v in 16..200u32 {
            assert!(cache.insert(v, Origin::Prefetch, (v % 3) as f64 / 3.0, &payload(v), false));
            assert_eq!(cache.resident_bytes(), 17 * 4);
            cache.assert_invariants();
        }
        for (v, _) in cache.snapshot() {
            assert_eq!(cache.get(v).expect("snapshotted").1, payload(v));
        }
    }

    #[test]
    fn refresh_rewrites_an_entry_in_its_own_slot() {
        let mut cache = PayloadCache::new(16, 4, &POSITIONAL);
        for v in 0..16u32 {
            cache.insert(v, Origin::Prefetch, 0.0, &payload(v), false);
        }
        assert!(!cache.insert(3, Origin::Demand, 0.0, &payload(33), true), "refresh evicted");
        cache.assert_invariants();
        assert_eq!(cache.resident_bytes(), 16 * 4);
        let (origin, bytes) = cache.get(3).expect("still cached");
        assert_eq!((*origin, bytes), (Origin::Demand, &payload(33)[..]));
        // `refresh` on an absent key is a plain insert.
        assert!(cache.insert(99, Origin::Demand, 0.0, &payload(99), true));
        cache.assert_invariants();
    }

    #[test]
    fn shrink_packs_survivors_and_cuts_the_arena() {
        let mut cache = PayloadCache::new(64, 4, &POSITIONAL);
        for v in 0..100u32 {
            cache.insert(v, Origin::Demand, (v % 4) as f64 / 4.0, &payload(v), false);
        }
        let shed = cache.set_capacity(20);
        assert!(shed >= 44);
        cache.assert_invariants();
        let survivors = cache.snapshot();
        assert_eq!(cache.resident_bytes(), survivors.len() * 4, "cut to the survivors exactly");
        assert!(cache.arena.capacity() <= 21 * 4, "the memory itself is returned");
        for &(v, _) in &survivors {
            assert_eq!(cache.get(v).expect("survivor").1, payload(v), "vector {v} moved intact");
        }
        // Growing back costs nothing until entries arrive.
        assert_eq!(cache.set_capacity(64), 0);
        assert_eq!(cache.resident_bytes(), survivors.len() * 4);
        for v in 100..200u32 {
            cache.insert(v, Origin::Demand, 0.0, &payload(v), false);
            cache.assert_invariants();
        }
    }

    #[test]
    fn the_resize_floor_does_not_depend_on_the_queue_shape() {
        for policy in [POSITIONAL, AdmissionPolicy::Threshold { t: 10 }] {
            let mut cache = PayloadCache::new(64, 4, &policy);
            cache.set_capacity(1);
            assert_eq!(cache.capacity(), SEGMENTS, "{policy:?}");
            let mut small = PayloadCache::new(5, 4, &policy);
            small.set_capacity(1);
            assert_eq!(small.capacity(), 5, "{policy:?}");
            small.reshape_for(&POSITIONAL);
            small.set_capacity(9);
            small.reshape_for(&AdmissionPolicy::None);
            small.set_capacity(1);
            assert_eq!(small.capacity(), 5, "{policy:?}");
        }
    }
}
