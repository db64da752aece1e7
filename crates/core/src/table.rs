//! One embedding table: an NVM block region, a DRAM cache, and the prefetch
//! machinery.

use crate::error::BandanaError;
use crate::payload_cache::{Origin, PayloadCache};
use crate::scratch::BatchScratch;
use bandana_cache::{AdmissionPolicy, AdmissionSet, CacheMetrics, ShadowCache};
use bandana_partition::{AccessFrequency, BlockLayout};
use bandana_trace::EmbeddingTable;
use bytes::Bytes;
use nvm_sim::{BlockBufPool, BlockDevice, PooledBlock};
use std::collections::hash_map::{Entry, HashMap};

/// One embedding table stored on NVM with a DRAM cache in front.
///
/// Unlike [`bandana_cache::PrefetchCacheSim`], this stores and serves the
/// actual embedding bytes; it is the data path of the Bandana store. The
/// cache owns its bytes: an admitted vector is copied out of its block
/// into a per-table arena, so cached DRAM is entries × vector size
/// ([`TableStore::cache_resident_bytes`]) and a block buffer is free again
/// as soon as its read has been served.
#[derive(Debug)]
pub struct TableStore {
    table_id: usize,
    layout: BlockLayout,
    freq: AccessFrequency,
    policy: AdmissionPolicy,
    /// Shadow-cache size multiplier last applied (construction or
    /// [`TableStore::set_policy`]); captured by persistence snapshots.
    shadow_multiplier: f64,
    cache: PayloadCache,
    shadow: Option<ShadowCache>,
    /// The members under [`AdmissionPolicy::Set`]; `None` under any other
    /// policy.
    set: Option<AdmissionSet>,
    /// Block reads per request the set's solve predicted; `None` without
    /// a set.
    predicted_reads_per_request: Option<f64>,
    /// What a retired set falls back to ([`TableStore::fallback_policy`]).
    fallback: AdmissionPolicy,
    metrics: CacheMetrics,
    /// First device block of this table's region.
    base_block: u64,
    vector_bytes: usize,
    num_vectors: u32,
    /// How many online re-layouts have been applied; the build-time layout
    /// is epoch 0. Persistence uses this to skip journaling layouts the
    /// build can reproduce.
    layout_epoch: u64,
    /// Working memory for the convenience APIs ([`TableStore::lookup`],
    /// [`TableStore::lookup_batch`]); the `*_with` and plan/fill variants
    /// take external state instead so shard workers own theirs.
    scratch: BatchScratch,
    pool: BlockBufPool,
}

impl TableStore {
    /// Creates the table over a block region starting at `base_block`.
    ///
    /// # Panics
    ///
    /// Panics if the cache capacity is zero, the frequency table does not
    /// match the layout, `vector_bytes` is zero, or `policy` is
    /// [`AdmissionPolicy::Set`] (a set is installed with
    /// [`TableStore::install_set`]).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        table_id: usize,
        layout: BlockLayout,
        freq: AccessFrequency,
        policy: AdmissionPolicy,
        cache_capacity: usize,
        shadow_multiplier: f64,
        base_block: u64,
        vector_bytes: usize,
    ) -> Self {
        assert!(cache_capacity > 0, "cache capacity must be non-zero");
        assert!(vector_bytes > 0, "vector size must be non-zero");
        assert!(!policy.is_set(), "the set policy needs its set: use TableStore::install_set");
        assert_eq!(
            freq.num_vectors(),
            layout.num_vectors(),
            "frequency table does not match layout"
        );
        let shadow =
            policy.needs_shadow().then(|| ShadowCache::new(cache_capacity, shadow_multiplier));
        TableStore {
            table_id,
            num_vectors: layout.num_vectors(),
            layout,
            freq,
            policy,
            shadow_multiplier,
            cache: PayloadCache::new(cache_capacity, vector_bytes, &policy),
            shadow,
            set: None,
            predicted_reads_per_request: None,
            fallback: policy,
            metrics: CacheMetrics::new(),
            base_block,
            vector_bytes,
            layout_epoch: 0,
            scratch: BatchScratch::new(),
            pool: BlockBufPool::default(),
        }
    }

    /// The table's index in the store.
    pub fn table_id(&self) -> usize {
        self.table_id
    }

    /// Number of vectors in the table.
    pub fn num_vectors(&self) -> u32 {
        self.num_vectors
    }

    /// Bytes per embedding vector.
    pub fn vector_bytes(&self) -> usize {
        self.vector_bytes
    }

    /// Number of NVM blocks the table occupies.
    pub fn num_blocks(&self) -> u64 {
        self.layout.num_blocks() as u64
    }

    /// First device block of this table's region; the table's blocks are
    /// `base_block .. base_block + num_blocks()`.
    pub fn base_block(&self) -> u64 {
        self.base_block
    }

    /// Moves the table's block region to `new_base_block` without touching
    /// cache contents or counters — the companion of
    /// [`nvm_sim::SparseDevice::rebase`], which packs a shard's carved
    /// blocks into a dense zero-based device and reports where each old
    /// range landed ([`nvm_sim::RebasedDevice::remap`]).
    pub fn rebase(&mut self, new_base_block: u64) {
        self.base_block = new_base_block;
    }

    /// The physical placement in force.
    pub fn layout(&self) -> &BlockLayout {
        &self.layout
    }

    /// How many online re-layouts ([`TableStore::apply_layout`] calls that
    /// rewrote at least one block) this table has absorbed. The build-time
    /// layout is epoch 0.
    pub fn layout_epoch(&self) -> u64 {
        self.layout_epoch
    }

    /// The admission policy in force.
    pub fn policy(&self) -> AdmissionPolicy {
        self.policy
    }

    /// The shadow-cache size multiplier last applied (construction or
    /// [`TableStore::set_policy`]).
    pub fn shadow_multiplier(&self) -> f64 {
        self.shadow_multiplier
    }

    /// Training-time access frequencies (used by online re-tuners that need
    /// the same inputs the build-time tuner saw).
    pub fn freq(&self) -> &AccessFrequency {
        &self.freq
    }

    /// DRAM cache capacity in vectors.
    pub fn cache_capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// Bytes of payload the DRAM cache holds right now: cached entries ×
    /// [`TableStore::vector_bytes`], plus at most one spare slot — never
    /// more than `(cache_capacity() + 1) × vector_bytes()`. The arena
    /// behind it grows as entries are admitted (nothing is reserved up
    /// front) and is cut back by a [`TableStore::set_cache_capacity`]
    /// shrink.
    pub fn cache_resident_bytes(&self) -> usize {
        self.cache.resident_bytes()
    }

    /// Replaces the admission policy (used by the tuner). The shadow cache
    /// is created or dropped as needed; cache contents and their recency
    /// order are preserved.
    ///
    /// A table on [`AdmissionPolicy::Set`] keeps its set only when `policy`
    /// is `Set` again; any other policy retires it. `Set` on a table that
    /// holds no set means [`TableStore::fallback_policy`].
    ///
    /// The eviction queue is segmented only while the policy inserts below
    /// the top ([`AdmissionPolicy::inserts_below_top`]); a swap across that
    /// line re-splits it, in recency order, so the same keys stay in the
    /// same order. The one state a re-split does not reproduce is segment
    /// membership: the first insert below the top after a re-split *into*
    /// segments finds each entry in the segment the re-split put it in,
    /// which can differ from where a history on a segmented queue would
    /// have left it while the cache is not full.
    pub fn set_policy(&mut self, policy: AdmissionPolicy, shadow_multiplier: f64) {
        let policy = match (policy.is_set(), &self.set) {
            (true, Some(_)) => policy,
            (true, None) => self.fallback,
            (false, _) => {
                self.set = None;
                self.predicted_reads_per_request = None;
                policy
            }
        };
        self.cache.reshape_for(&policy);
        self.policy = policy;
        self.shadow_multiplier = shadow_multiplier;
        if policy.needs_shadow() {
            if self.shadow.is_none() {
                self.shadow = Some(ShadowCache::new(self.cache.capacity(), shadow_multiplier));
            }
        } else {
            self.shadow = None;
        }
    }

    /// Puts the table on [`AdmissionPolicy::Set`] with `set` as its
    /// members, and the block reads per request its solve predicted
    /// ([`TableStore::predicted_reads_per_request`]). A set is solved for
    /// one layout and one cache capacity
    /// ([`crate::tuner::shared_split`]), so a policy swap, a capacity
    /// change or a re-layout that moves a vector retires it to
    /// [`TableStore::fallback_policy`] — the policy in force before the
    /// first install. Cache contents are kept.
    ///
    /// The set gates batched reads ([`TableStore::lookup_batch`] and its
    /// `_with` and plan/fill forms, which is how the serving engine reads):
    /// a demanded vector or a block-mate is cached iff it is a member, so
    /// once the set is resident nothing is evicted. The set is fitted to
    /// batches — every vector a batch wants from a block looked up
    /// together — so a single-id read ([`TableStore::lookup`]) admits by
    /// the fallback policy instead, and may evict a member. It does so on
    /// the set's queue: one segment, no shadow cache.
    ///
    /// # Panics
    ///
    /// Panics if `set` has more members than the cache has slots.
    pub fn install_set(&mut self, set: AdmissionSet, predicted_reads_per_request: f64) {
        assert!(set.len() <= self.cache.capacity(), "the set outgrows the cache");
        if self.set.is_none() {
            self.fallback = self.policy;
        }
        self.set = Some(set);
        self.predicted_reads_per_request = Some(predicted_reads_per_request);
        self.set_policy(AdmissionPolicy::Set, self.shadow_multiplier);
    }

    /// The members of the table's admission set while the policy is
    /// [`AdmissionPolicy::Set`].
    pub fn admission_set(&self) -> Option<&AdmissionSet> {
        self.set.as_ref()
    }

    /// Block reads per request the serving set's solve predicted on the
    /// trace it was fitted to; `None` once the set retires.
    pub fn predicted_reads_per_request(&self) -> Option<f64> {
        self.predicted_reads_per_request
    }

    /// The policy a retired set falls back to: the policy the table was
    /// built with, before [`TableStore::install_set`].
    pub fn fallback_policy(&self) -> AdmissionPolicy {
        self.fallback
    }

    /// Retires the admission set, if any, to the fallback policy.
    fn retire_set(&mut self) {
        if self.set.is_some() {
            self.set_policy(self.fallback, self.shadow_multiplier);
        }
    }

    /// Resizes the DRAM cache online (the budget controller's lever).
    ///
    /// Growing admits immediately; shrinking evicts coldest-first without
    /// touching the survivors (the shed entries count as evictions), packs
    /// the survivors' payloads together and returns the rest of the arena's
    /// memory. The shadow cache, when present, is rebuilt at the new
    /// capacity — its admission history restarts, like a policy change.
    /// `entries` is clamped to at least 16, or to the capacity the table was
    /// built with if that was smaller. A change of capacity retires an
    /// admission set.
    pub fn set_cache_capacity(&mut self, entries: usize) {
        let before = self.cache.capacity();
        self.metrics.evictions += self.cache.set_capacity(entries) as u64;
        if self.cache.capacity() != before {
            self.retire_set();
        }
        if self.shadow.is_some() {
            self.shadow = Some(ShadowCache::new(self.cache.capacity(), self.shadow_multiplier));
        }
    }

    /// The counters accumulated so far.
    pub fn metrics(&self) -> &CacheMetrics {
        &self.metrics
    }

    /// Resets the counters (cache contents survive).
    pub fn reset_metrics(&mut self) {
        self.metrics = CacheMetrics::new();
    }

    /// Captures the DRAM cache contents for a persistence snapshot:
    /// `(vector id, demand-fetched?)` pairs in MRU→LRU order. Payload
    /// bytes are not captured — recovery re-reads them from the device,
    /// which is the durable copy.
    pub fn cache_snapshot(&self) -> Vec<(u32, bool)> {
        self.cache.snapshot()
    }

    /// Restores cache contents captured by [`TableStore::cache_snapshot`],
    /// re-reading payloads from the device. `entries` is MRU→LRU as the
    /// snapshot recorded it; insertion runs LRU-first so the rebuilt cache
    /// reproduces the recorded eviction order. Ids the catalog no longer
    /// covers (a snapshot that outlived a schema change) are skipped.
    /// Cache counters are untouched: recovery reads are not traffic.
    ///
    /// Returns the number of entries restored.
    ///
    /// # Errors
    ///
    /// Propagates device read failures.
    pub fn rehydrate(
        &mut self,
        device: &mut dyn BlockDevice,
        entries: &[(u32, bool)],
    ) -> Result<usize, BandanaError> {
        // Entries from the same block share one read.
        let mut blocks: HashMap<u32, Vec<u8>> = HashMap::new();
        let mut restored = 0usize;
        for &(v, demand) in entries.iter().rev() {
            if v >= self.num_vectors {
                continue;
            }
            let raw = match blocks.entry(self.layout.block_of(v)) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    let mut raw = vec![0u8; device.block_size()];
                    device.read_block_into(self.base_block + u64::from(*e.key()), &mut raw)?;
                    e.insert(raw)
                }
            };
            let payload = self.vector_in(raw, self.layout.slot_of(v) as usize);
            let origin = if demand { Origin::Demand } else { Origin::Prefetch };
            // `refresh`: a snapshot that repeats a key must not cost a slot.
            self.cache.insert(v, origin, 0.0, payload, true);
            restored += 1;
        }
        Ok(restored)
    }

    /// Writes the full embedding table to the device in layout order.
    ///
    /// Never-trained vectors (ids beyond `embeddings.num_vectors()`) are
    /// zero-filled. Used at build time and by retraining (§2.2 endurance).
    ///
    /// # Errors
    ///
    /// Propagates device write failures.
    pub fn write_embeddings(
        &mut self,
        device: &mut dyn BlockDevice,
        embeddings: &EmbeddingTable,
    ) -> Result<(), BandanaError> {
        let mut buf = vec![0u8; device.block_size()];
        for b in 0..self.layout.num_blocks() {
            buf.iter_mut().for_each(|x| *x = 0);
            for (slot, &v) in self.layout.vectors_in_block(b).iter().enumerate() {
                let off = slot * self.vector_bytes;
                if v < embeddings.num_vectors() {
                    let bytes = embeddings.vector_as_bytes(v);
                    let len = bytes.len().min(self.vector_bytes);
                    buf[off..off + len].copy_from_slice(&bytes[..len]);
                }
            }
            device.write_block(self.base_block + b as u64, &buf)?;
        }
        Ok(())
    }

    /// Atomically remaps the table onto `new_layout`, rewriting exactly the
    /// blocks whose slot contents change.
    ///
    /// This is the apply half of the online SHP loop: the refinement solver
    /// produces a new placement and this method realizes it on the device
    /// between micro-batches. Every source block is read **before** the
    /// first rewrite (a rewritten block may source another rewrite), each
    /// changed destination block is written once, and the in-memory layout
    /// is swapped only after the last write — so a lookup never observes a
    /// mix of old and new placement. Rewrites are real device writes,
    /// charged to the device's endurance meter like retraining.
    ///
    /// The DRAM cache is untouched: entries are keyed by vector id and hold
    /// their own copy of the payload bytes, so they stay valid under any
    /// remap. Cache counters do not move — a re-layout is not traffic.
    ///
    /// Returns the number of blocks rewritten (0 when `new_layout` places
    /// every vector where it already was). A rewrite retires an admission
    /// set.
    ///
    /// # Errors
    ///
    /// Propagates device failures. Like [`TableStore::write_embeddings`], a
    /// write error mid-apply leaves the device region partially rewritten
    /// while the in-memory layout still describes the old placement; the
    /// caller must treat the table as poisoned (re-write or discard it).
    ///
    /// # Panics
    ///
    /// Panics if `new_layout` disagrees with the current layout on vector
    /// count or vectors-per-block.
    pub fn apply_layout(
        &mut self,
        device: &mut dyn BlockDevice,
        new_layout: BlockLayout,
    ) -> Result<u64, BandanaError> {
        assert_eq!(
            new_layout.num_vectors(),
            self.layout.num_vectors(),
            "new layout changes the vector count"
        );
        assert_eq!(
            new_layout.vectors_per_block(),
            self.layout.vectors_per_block(),
            "new layout changes the block capacity"
        );

        let changed: Vec<u32> = (0..self.layout.num_blocks())
            .filter(|&b| self.layout.vectors_in_block(b) != new_layout.vectors_in_block(b))
            .collect();
        if changed.is_empty() {
            self.layout = new_layout;
            return Ok(0);
        }

        // Read phase: every block sourcing a changed destination, exactly
        // once. All reads precede all writes.
        let block_size = device.block_size();
        let mut sources: HashMap<u32, Vec<u8>> = HashMap::new();
        for &b in &changed {
            for &v in new_layout.vectors_in_block(b) {
                if let Entry::Vacant(e) = sources.entry(self.layout.block_of(v)) {
                    let mut raw = vec![0u8; block_size];
                    device.read_block_into(self.base_block + u64::from(*e.key()), &mut raw)?;
                    e.insert(raw);
                }
            }
        }

        // Write phase: assemble each changed block from the old placement's
        // payloads and rewrite it (endurance-charged).
        let mut buf = vec![0u8; block_size];
        for &b in &changed {
            buf.iter_mut().for_each(|x| *x = 0);
            for (slot, &v) in new_layout.vectors_in_block(b).iter().enumerate() {
                let src = &sources[&self.layout.block_of(v)];
                let off = slot * self.vector_bytes;
                buf[off..off + self.vector_bytes]
                    .copy_from_slice(self.vector_in(src, self.layout.slot_of(v) as usize));
            }
            device.write_block(self.base_block + u64::from(b), &buf)?;
        }

        self.layout = new_layout;
        self.layout_epoch += 1;
        self.retire_set();
        Ok(changed.len() as u64)
    }

    /// Looks up one vector, reading through to NVM on a miss.
    ///
    /// Returns an **owned copy** of the payload: the cache keeps its bytes
    /// in its own arena and hands none of it out. That costs an allocation
    /// per call, which is fine here — the single-id paths are off the
    /// serving path; serving goes through [`TableStore::lookup_batch_with`],
    /// which allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`BandanaError::NoSuchVector`] for out-of-range ids and
    /// propagates device errors.
    pub fn lookup(&mut self, device: &mut dyn BlockDevice, v: u32) -> Result<Bytes, BandanaError> {
        match self.lookup_cached(v)? {
            Some(bytes) => Ok(bytes),
            None => {
                let mut pool = std::mem::take(&mut self.pool);
                let result = self.lookup_miss(device, v, &mut pool);
                self.pool = pool;
                result
            }
        }
    }

    /// The DRAM-only half of [`TableStore::lookup`]: validates `v`, records
    /// the lookup, and returns an owned copy of the payload if it is
    /// cached. On `Ok(None)` the caller must complete the lookup with the
    /// device-side half (`lookup_miss`), so a hit never touches the
    /// device.
    ///
    /// # Errors
    ///
    /// Returns [`BandanaError::NoSuchVector`] for out-of-range ids.
    pub fn lookup_cached(&mut self, v: u32) -> Result<Option<Bytes>, BandanaError> {
        if v >= self.num_vectors {
            return Err(BandanaError::NoSuchVector {
                table: self.table_id,
                vector: v,
                vectors: self.num_vectors,
            });
        }
        Ok(self.probe(v).map(Bytes::copy_from_slice))
    }

    /// Records a lookup of `v` (which must be in range) and returns its
    /// cached payload on a hit, promoted to MRU.
    fn probe(&mut self, v: u32) -> Option<&[u8]> {
        self.metrics.lookups += 1;
        if let Some(shadow) = &mut self.shadow {
            shadow.record_read(v as u64);
        }
        let (origin, payload) = self.cache.get(v)?;
        // Promote a prefetched entry to demand-fetched in place: no
        // re-insert, no spurious eviction churn.
        if *origin == Origin::Prefetch {
            *origin = Origin::Demand;
            self.metrics.prefetch_hits += 1;
        }
        self.metrics.hits += 1;
        Some(payload)
    }

    /// The bytes of the vector in `slot` of the block `raw`.
    fn vector_in<'a>(&self, raw: &'a [u8], slot: usize) -> &'a [u8] {
        &raw[slot * self.vector_bytes..(slot + 1) * self.vector_bytes]
    }

    /// Reads one table block into a buffer recycled from `pool`
    /// (`read_block_into`, no fresh `Vec` per read). The caller copies what
    /// it needs out of the block and recycles the buffer.
    fn read_block_pooled(
        &self,
        device: &mut dyn BlockDevice,
        pool: &mut BlockBufPool,
        block: u32,
    ) -> Result<PooledBlock, BandanaError> {
        let mut buf = pool.acquire(device.block_size());
        match device.read_block_into(self.base_block + u64::from(block), buf.as_mut_slice()) {
            Ok(()) => Ok(buf),
            Err(e) => {
                buf.recycle(pool);
                Err(e.into())
            }
        }
    }

    /// Copies a demanded vector's `payload` into the cache at MRU, unless
    /// the read is gated by a set `v` is not in ([`admission`]). `refresh`
    /// as in [`PayloadCache::insert`].
    fn admit_demand(&mut self, v: u32, payload: &[u8], refresh: bool, batched: bool) {
        self.metrics.misses += 1;
        let (set, _) = admission(&self.set, self.policy, self.fallback, batched);
        if set.is_none_or(|s| s.contains(v))
            && self.cache.insert(v, Origin::Demand, 0.0, payload, refresh)
        {
            self.metrics.evictions += 1;
        }
    }

    /// The prefetch sweep over a block just read: every vector of `block`
    /// that was not `demanded` (by block slot) and is not cached is offered
    /// to the admission policy ([`admission`]).
    fn admit_neighbours(
        &mut self,
        block: u32,
        raw: &[u8],
        demanded: impl Fn(usize) -> bool,
        batched: bool,
    ) {
        let (set, policy) = admission(&self.set, self.policy, self.fallback, batched);
        if !policy.prefetches() {
            return;
        }
        for (uslot, &u) in self.layout.vectors_in_block(block).iter().enumerate() {
            // A non-member costs one bit test, before the cache probe.
            if demanded(uslot) || set.is_some_and(|s| !s.contains(u)) || self.cache.contains(u) {
                continue;
            }
            let shadow_hit = self.shadow.as_ref().is_some_and(|s| s.contains(u as u64));
            if let Some(pos) = policy.admit(self.freq.count(u), shadow_hit) {
                self.metrics.prefetches_admitted += 1;
                let upayload = self.vector_in(raw, uslot);
                if self.cache.insert(u, Origin::Prefetch, pos, upayload, false) {
                    self.metrics.evictions += 1;
                }
            }
        }
    }

    /// The device-side half of a lookup. Must only be called after
    /// [`TableStore::lookup_cached`] returned `Ok(None)` for the same `v`.
    /// The block is read into a buffer recycled from `pool` and returned
    /// to it before this returns; the result is an owned copy.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub(crate) fn lookup_miss(
        &mut self,
        device: &mut dyn BlockDevice,
        v: u32,
        pool: &mut BlockBufPool,
    ) -> Result<Bytes, BandanaError> {
        // Miss: fetch the whole 4 KB block.
        self.metrics.block_reads += 1;
        let block = self.layout.block_of(v);
        let buf = self.read_block_pooled(device, pool, block)?;
        let raw = buf.as_slice();
        let slot = self.layout.slot_of(v) as usize;
        let payload = self.vector_in(raw, slot);
        let owned = Bytes::copy_from_slice(payload);
        self.admit_demand(v, payload, false, false);
        self.admit_neighbours(block, raw, |uslot| uslot == slot, false);
        buf.recycle(pool);
        Ok(owned)
    }

    /// Looks up a whole query at once, coalescing NVM reads: misses that
    /// land in the same 4 KB block cost **one** block read instead of one
    /// each. Production queries average 18–93 lookups per table (Table 1),
    /// so with SHP placement clustering co-accessed vectors this is the
    /// natural serving interface.
    ///
    /// Returns owned payloads in `ids` order (views of one buffer copied
    /// out of the scratch). Metrics count every element of `ids` as a
    /// lookup; duplicate uncached ids within one batch each count as a miss
    /// but share the block read.
    ///
    /// # Errors
    ///
    /// Returns [`BandanaError::NoSuchVector`] if *any* id is out of range —
    /// checked up front, before any counter moves or I/O is issued — and
    /// propagates device errors.
    pub fn lookup_batch(
        &mut self,
        device: &mut dyn BlockDevice,
        ids: &[u32],
    ) -> Result<Vec<Bytes>, BandanaError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut pool = std::mem::take(&mut self.pool);
        let result = self.lookup_batch_with(device, ids, &mut scratch, &mut pool);
        let out = result.map(|()| scratch.to_bytes());
        self.scratch = scratch;
        self.pool = pool;
        out
    }

    /// [`TableStore::lookup_batch`] with caller-owned working state: the
    /// miss plan and requested-slot bitset live in `scratch`, block reads
    /// recycle buffers from `pool`, and every payload is **copied** into
    /// the scratch's flat output buffer ([`BatchScratch::out`], in `ids`
    /// order) — hits from the cache arena, misses from the block just read,
    /// which also fills the arena. Each block buffer goes back to `pool`
    /// at the end of its group of misses, so the output aliases neither
    /// the cache nor the device and stays valid until the scratch's next
    /// call. After a few calls have warmed the scratch and pool to the
    /// workload's batch shape, a steady-state call performs **zero heap
    /// allocations** — the property the serving engine's shard workers (one
    /// scratch per table + one pool per worker) rely on.
    ///
    /// This is [`TableStore::plan_batch`] followed by
    /// [`TableStore::fill_batch`] with nothing to do before each read; a
    /// caller that has somewhere better to be while the device works calls
    /// the halves itself.
    ///
    /// # Errors
    ///
    /// As [`TableStore::lookup_batch`]; on error the scratch contents are
    /// unspecified but remain reusable.
    pub fn lookup_batch_with(
        &mut self,
        device: &mut dyn BlockDevice,
        ids: &[u32],
        scratch: &mut BatchScratch,
        pool: &mut BlockBufPool,
    ) -> Result<(), BandanaError> {
        self.plan_batch(ids, scratch)?;
        self.fill_batch(device, ids, scratch, pool, || {})
    }

    /// The DRAM half of a batched lookup: validates `ids`, probes the cache
    /// for each (hits are promoted and copied into `scratch` right here —
    /// they never wait on the device), and leaves the sorted miss plan in
    /// `scratch`. Returns the number of **distinct blocks** the plan
    /// covers: exactly the block reads the matching
    /// [`TableStore::fill_batch`] will issue, known before any I/O so the
    /// caller can submit them all to the device at once.
    ///
    /// `scratch` now carries this batch's state; hand the same `ids` and
    /// `scratch` to `fill_batch` next, with no other call on this table or
    /// that scratch in between.
    ///
    /// # Errors
    ///
    /// Returns [`BandanaError::NoSuchVector`] if *any* id is out of range —
    /// checked up front, before any counter moves.
    pub fn plan_batch(
        &mut self,
        ids: &[u32],
        scratch: &mut BatchScratch,
    ) -> Result<usize, BandanaError> {
        for &v in ids {
            if v >= self.num_vectors {
                return Err(BandanaError::NoSuchVector {
                    table: self.table_id,
                    vector: v,
                    vectors: self.num_vectors,
                });
            }
        }

        scratch.begin(ids.len(), self.vector_bytes);
        for (i, &v) in ids.iter().enumerate() {
            match self.probe(v) {
                Some(payload) => scratch.payload_mut(i).copy_from_slice(payload),
                None => scratch.misses.push((self.layout.block_of(v), i as u32)),
            }
        }
        // The miss plan: sorting the (block, position) pairs groups misses
        // by block with ascending positions inside each group — the same
        // deterministic ascending-block read order the old per-call
        // `BTreeMap<u32, Vec<usize>>` produced, without its allocations.
        scratch.misses.sort_unstable();
        Ok(scratch.misses.chunk_by(|a, b| a.0 == b.0).count())
    }

    /// The device half of a batched lookup: walks the miss plan
    /// [`TableStore::plan_batch`] left in `scratch` one block at a time, in
    /// ascending block order — calls `before_read`, reads the block, copies
    /// the demanded payloads out, admits them and the block's neighbours to
    /// the cache, recycles the buffer. `before_read` therefore runs exactly
    /// once ahead of every block read and is the caller's place to wait for
    /// that read's completion; everything between two calls is CPU work
    /// that overlaps the reads still in flight.
    ///
    /// # Errors
    ///
    /// Propagates device errors; the blocks after the failing one are
    /// neither awaited nor read.
    ///
    /// # Panics
    ///
    /// Panics if `ids` is not the length `scratch` was planned for.
    pub fn fill_batch(
        &mut self,
        device: &mut dyn BlockDevice,
        ids: &[u32],
        scratch: &mut BatchScratch,
        pool: &mut BlockBufPool,
        mut before_read: impl FnMut(),
    ) -> Result<(), BandanaError> {
        assert_eq!(scratch.out.len(), ids.len() * self.vector_bytes, "ids changed since the plan");
        let vectors_per_block = self.layout.vectors_per_block();
        let mut group = 0;
        while group < scratch.misses.len() {
            let block = scratch.misses[group].0;
            let end =
                group + scratch.misses[group..].iter().take_while(|&&(b, _)| b == block).count();

            before_read();
            self.metrics.block_reads += 1;
            let buf = self.read_block_pooled(device, pool, block)?;
            let raw = buf.as_slice();
            scratch.reset_requested(vectors_per_block);
            for m in group..end {
                let pos = scratch.misses[m].1 as usize;
                let v = ids[pos];
                let slot = self.layout.slot_of(v) as usize;
                let payload = self.vector_in(raw, slot);
                scratch.payload_mut(pos).copy_from_slice(payload);
                // A slot already marked is a duplicate id: its first miss
                // in this group admitted it, so this one refreshes.
                self.admit_demand(v, payload, scratch.is_requested(slot), true);
                scratch.mark_requested(slot);
            }
            // The scratch bitset answers "was this slot demanded by the
            // batch?" in O(1), replacing a linear scan over the requested
            // ids.
            self.admit_neighbours(block, raw, |uslot| scratch.is_requested(uslot), true);
            buf.recycle(pool);
            group = end;
        }
        Ok(())
    }
}

/// The admission a block read applies: the set, if it gates the read, and
/// the policy the rest of the read follows.
///
/// Under [`AdmissionPolicy::Set`] a batched read — the ids one table is
/// asked for at once — is gated by the set: a demanded vector or a
/// block-mate is cached iff it is a member. A single-id read admits by the
/// fallback policy instead. The set is fitted to batches, where every
/// vector a batch wants from a block is looked up together; ids looked up
/// one at a time break that premise (each non-member re-reads its block,
/// repeats included), so they keep the paper's per-lookup policy. The
/// serving engine only reads in batches.
fn admission(
    set: &Option<AdmissionSet>,
    policy: AdmissionPolicy,
    fallback: AdmissionPolicy,
    batched: bool,
) -> (Option<&AdmissionSet>, AdmissionPolicy) {
    match set {
        Some(set) if batched => (Some(set), policy),
        Some(_) => (None, fallback),
        None => (None, policy),
    }
}

#[cfg(test)]
mod arena_props;

#[cfg(test)]
mod tests {
    use super::*;
    use bandana_trace::{spec::TableSpec, TopicModel};
    use nvm_sim::{NvmConfig, NvmDevice};

    /// A table of `vectors` 32-byte vectors, `per_block` to a block, written
    /// to a fresh device.
    pub(super) fn setup_blocks(
        vectors: u32,
        per_block: usize,
        policy: AdmissionPolicy,
        cache: usize,
    ) -> (TableStore, NvmDevice, EmbeddingTable) {
        let spec = TableSpec::test_small(vectors);
        let topics = TopicModel::new(&spec, 1);
        let emb = EmbeddingTable::synthesize(vectors, 8, &topics, 2); // 32 B vectors
        let layout = BlockLayout::identity(vectors, per_block);
        let mut device = NvmDevice::new(
            NvmConfig::optane_375gb().with_capacity_blocks(layout.num_blocks() as u64),
        );
        let freq = AccessFrequency::zeros(vectors);
        let mut table = TableStore::new(0, layout, freq, policy, cache, 1.5, 0, 32);
        table.write_embeddings(&mut device, &emb).unwrap();
        device.reset_counters();
        (table, device, emb)
    }

    /// 64 vectors, all in one 4 KB block.
    fn setup(policy: AdmissionPolicy, cache: usize) -> (TableStore, NvmDevice, EmbeddingTable) {
        setup_blocks(64, 4096 / 32, policy, cache)
    }

    #[test]
    fn lookup_returns_correct_bytes() {
        let (mut table, mut device, emb) = setup(AdmissionPolicy::None, 8);
        for v in [0u32, 17, 63] {
            let got = table.lookup(&mut device, v).unwrap();
            assert_eq!(got.as_ref(), emb.vector_as_bytes(v).as_slice(), "vector {v} corrupted");
        }
    }

    #[test]
    fn hit_skips_device() {
        let (mut table, mut device, _) = setup(AdmissionPolicy::None, 8);
        table.lookup(&mut device, 5).unwrap();
        let reads_after_miss = device.counters().reads;
        table.lookup(&mut device, 5).unwrap();
        assert_eq!(device.counters().reads, reads_after_miss);
        assert_eq!(table.metrics().hits, 1);
    }

    #[test]
    fn prefetch_serves_neighbours_without_new_reads() {
        let (mut table, mut device, emb) = setup(AdmissionPolicy::All { position: 0.0 }, 256);
        table.lookup(&mut device, 0).unwrap(); // block 0 holds vectors 0..128
        let reads = device.counters().reads;
        let got = table.lookup(&mut device, 1).unwrap();
        assert_eq!(device.counters().reads, reads, "prefetched vector should not hit NVM");
        assert_eq!(got.as_ref(), emb.vector_as_bytes(1).as_slice());
        assert_eq!(table.metrics().prefetch_hits, 1);
    }

    #[test]
    fn out_of_range_vector_rejected() {
        let (mut table, mut device, _) = setup(AdmissionPolicy::None, 8);
        let err = table.lookup(&mut device, 64).unwrap_err();
        assert!(matches!(err, BandanaError::NoSuchVector { vector: 64, .. }));
        // Failed lookups do not contaminate the counters.
        assert_eq!(table.metrics().lookups, 0);
    }

    #[test]
    fn retraining_overwrites_values() {
        let (mut table, mut device, _) = setup(AdmissionPolicy::None, 8);
        let spec = TableSpec::test_small(64);
        let topics = TopicModel::new(&spec, 9);
        let new_emb = EmbeddingTable::synthesize(64, 8, &topics, 99);
        table.write_embeddings(&mut device, &new_emb).unwrap();
        // Cache still holds old values until they churn out; read an
        // uncached vector and check it reflects the new training.
        let got = table.lookup(&mut device, 40).unwrap();
        assert_eq!(got.as_ref(), new_emb.vector_as_bytes(40).as_slice());
        // A full table rewrite recorded endurance writes.
        assert!(device.endurance().bytes_written() > 0);
    }

    #[test]
    fn set_policy_manages_shadow_cache() {
        let (mut table, _, _) = setup(AdmissionPolicy::None, 8);
        assert!(table.shadow.is_none());
        table.set_policy(AdmissionPolicy::Shadow, 1.5);
        assert!(table.shadow.is_some());
        table.set_policy(AdmissionPolicy::Threshold { t: 5 }, 1.5);
        assert!(table.shadow.is_none());
    }

    #[test]
    fn a_set_retires_to_the_fallback_on_any_live_change() {
        let threshold = AdmissionPolicy::Threshold { t: 3 };
        let on_set = || {
            let (mut table, device, _) = setup_blocks(64, 8, threshold, 16);
            table.install_set(AdmissionSet::from_ids(64, [1, 2, 9]), 0.25);
            assert_eq!(
                (table.policy(), table.fallback_policy()),
                (AdmissionPolicy::Set, threshold)
            );
            (table, device)
        };

        // `Set` again keeps the set; another policy retires it, and `Set`
        // then means the fallback.
        let (mut table, _) = on_set();
        table.set_policy(AdmissionPolicy::Set, 2.0);
        assert_eq!(table.admission_set().map(AdmissionSet::len), Some(3));
        assert_eq!(table.predicted_reads_per_request(), Some(0.25));
        table.set_policy(AdmissionPolicy::None, 1.5);
        assert!(table.admission_set().is_none());
        assert_eq!(table.predicted_reads_per_request(), None);
        table.set_policy(AdmissionPolicy::Set, 1.5);
        assert_eq!(table.policy(), threshold);

        // A capacity change retires it; the same capacity does not.
        let (mut table, _) = on_set();
        table.set_cache_capacity(16);
        assert_eq!(table.policy(), AdmissionPolicy::Set);
        table.set_cache_capacity(32);
        assert_eq!(table.policy(), threshold);

        // So does a re-layout that moves a vector, but not one that moves
        // nothing.
        let (mut table, mut device) = on_set();
        table.apply_layout(&mut device, BlockLayout::identity(64, 8)).unwrap();
        assert_eq!(table.policy(), AdmissionPolicy::Set);
        let mut order: Vec<u32> = (0..64).collect();
        order.swap(0, 63);
        table.apply_layout(&mut device, BlockLayout::from_order(order, 8)).unwrap();
        assert_eq!(table.policy(), threshold);
        assert!(table.admission_set().is_none());
        assert_eq!(table.predicted_reads_per_request(), None);
    }

    #[test]
    fn set_policy_resplits_the_queue_without_touching_its_contents() {
        // Threshold admission with all-zero training counts admits nothing.
        let threshold = AdmissionPolicy::Threshold { t: 0 };
        let (mut table, mut device, _) = setup_blocks(64, 8, threshold, 16);
        for v in 0..16u32 {
            table.lookup(&mut device, v).unwrap();
        }
        let warm = table.cache_snapshot();
        table.set_policy(AdmissionPolicy::All { position: 0.7 }, 1.5);
        assert_eq!(table.cache_snapshot(), warm, "a re-split keeps every entry in order");

        // A miss on block 5 (vectors 40..48) now admits its neighbours
        // below the top: they are evicted before the vector it demanded,
        // which on a one-segment queue would be evicted first.
        table.lookup(&mut device, 40).unwrap();
        let neighbours = 41..48u32;
        assert_eq!(table.metrics().prefetches_admitted, 7);
        let positional = table.cache_snapshot();
        table.set_policy(threshold, 1.5);
        assert_eq!(table.cache_snapshot(), positional, "and so does a merge back into one");

        let mut outlived = false;
        for v in 16..40u32 {
            table.lookup(&mut device, v).unwrap();
            let cached: Vec<u32> = table.cache_snapshot().iter().map(|e| e.0).collect();
            let any_neighbour = neighbours.clone().any(|u| cached.contains(&u));
            assert!(cached.contains(&40) || !any_neighbour, "vector 40 left before a neighbour");
            outlived |= cached.contains(&40) && !any_neighbour;
        }
        assert!(outlived, "vector 40 outlived every neighbour");
    }

    #[test]
    fn set_cache_capacity_resizes_without_flushing_hot_entries() {
        let (mut table, mut device, emb) = setup(AdmissionPolicy::None, 64);
        for v in 0..20u32 {
            table.lookup(&mut device, v).unwrap();
        }
        // Shrink to 16: the 16 most recent (4..20) survive in order.
        table.set_cache_capacity(16);
        assert_eq!(table.cache_capacity(), 16);
        assert_eq!(
            table.cache_snapshot().iter().map(|e| e.0).collect::<Vec<_>>(),
            (4..20u32).rev().collect::<Vec<_>>(),
            "shrink must keep the most recent entries in order"
        );
        let reads = device.counters().reads;
        let got = table.lookup(&mut device, 19).unwrap();
        assert_eq!(got.as_ref(), emb.vector_as_bytes(19).as_slice());
        assert_eq!(device.counters().reads, reads, "survivor must still hit in DRAM");
        // Grow back: admits immediately, survivors untouched.
        let evictions = table.metrics().evictions;
        table.set_cache_capacity(64);
        table.lookup(&mut device, 0).unwrap();
        assert_eq!(table.metrics().evictions, evictions, "grow must not evict");
        assert_eq!(table.cache_capacity(), 64);
    }

    #[test]
    fn set_cache_capacity_rebuilds_shadow_at_new_size() {
        let (mut table, _, _) = setup(AdmissionPolicy::Shadow, 64);
        assert!(table.shadow.is_some());
        table.set_cache_capacity(32);
        let shadow = table.shadow.as_ref().expect("shadow survives resize");
        assert_eq!(shadow.capacity(), (32.0 * 1.5) as usize);
    }

    #[test]
    fn cache_snapshot_round_trips_through_rehydrate() {
        let (mut table, mut device, emb) = setup(AdmissionPolicy::None, 8);
        for v in [0u32, 17, 63] {
            table.lookup(&mut device, v).unwrap();
        }
        let snap = table.cache_snapshot();
        assert_eq!(snap.iter().map(|e| e.0).collect::<Vec<_>>(), vec![63, 17, 0]);
        assert!(snap.iter().all(|e| e.1), "demand-fetched entries must be flagged demand");

        let (mut fresh, mut fresh_device, _) = setup(AdmissionPolicy::None, 8);
        let restored = fresh.rehydrate(&mut fresh_device, &snap).unwrap();
        assert_eq!(restored, 3);
        assert_eq!(fresh.cache_snapshot(), snap, "rehydrate must reproduce eviction order");
        assert_eq!(fresh.metrics().lookups, 0, "rehydration is not serving traffic");
        let reads = fresh_device.counters().reads;
        let got = fresh.lookup(&mut fresh_device, 63).unwrap();
        assert_eq!(got.as_ref(), emb.vector_as_bytes(63).as_slice());
        assert_eq!(fresh_device.counters().reads, reads, "rehydrated entry must hit in DRAM");
    }

    #[test]
    fn rehydrate_skips_ids_beyond_the_catalog_and_keeps_origin() {
        let (mut table, mut device, _) = setup(AdmissionPolicy::None, 8);
        let restored = table.rehydrate(&mut device, &[(200, true), (3, false)]).unwrap();
        assert_eq!(restored, 1, "out-of-range id must be skipped, not fail recovery");
        assert_eq!(table.cache_snapshot(), vec![(3, false)]);
        assert_eq!(device.counters().writes, 0, "rehydration must never write the device");
    }

    #[test]
    fn batch_returns_same_bytes_as_sequential() {
        let (mut table, mut device, emb) = setup(AdmissionPolicy::None, 8);
        let ids = [0u32, 17, 63, 17, 5];
        let batch = table.lookup_batch(&mut device, &ids).unwrap();
        for (i, &v) in ids.iter().enumerate() {
            assert_eq!(batch[i].as_ref(), emb.vector_as_bytes(v).as_slice(), "id {v}");
        }
        assert_eq!(table.metrics().lookups, ids.len() as u64);
    }

    #[test]
    fn batch_coalesces_same_block_misses() {
        // Vectors 0..128 share block 0 in the identity layout (32 B
        // vectors, 4 KB blocks → 128 slots). Sequential lookups with no
        // prefetch pay one read each; the batch pays one read total.
        let (mut seq_table, mut seq_device, _) = setup(AdmissionPolicy::None, 8);
        let (mut batch_table, mut batch_device, _) = setup(AdmissionPolicy::None, 8);
        let ids = [0u32, 1, 2, 3];
        for &v in &ids {
            seq_table.lookup(&mut seq_device, v).unwrap();
        }
        batch_table.lookup_batch(&mut batch_device, &ids).unwrap();
        assert_eq!(seq_device.counters().reads, 4);
        assert_eq!(batch_device.counters().reads, 1, "batch must coalesce the block");
        assert_eq!(batch_table.metrics().misses, 4);
        assert_eq!(batch_table.metrics().block_reads, 1);
    }

    #[test]
    fn batch_respects_admission_policy() {
        let (mut table, mut device, _) = setup(AdmissionPolicy::All { position: 0.0 }, 256);
        table.lookup_batch(&mut device, &[0, 1]).unwrap();
        // All 64 vectors fit one block (32 B vectors, 128 slots); the 62
        // non-requested ones are prefetch candidates and admit-all takes
        // every one.
        assert_eq!(table.metrics().prefetches_admitted, 62);
        // Everything now hits.
        table.lookup_batch(&mut device, &[40, 41]).unwrap();
        assert_eq!(table.metrics().hits, 2);
    }

    #[test]
    fn large_same_block_batch_prefetches_exactly_the_unrequested_vectors() {
        // All 64 vectors live in block 0 (identity layout, 128 slots). A
        // batch demanding 48 of them — with duplicates — must admit
        // prefetches for exactly the other 16: the requested-slot bitset
        // has to agree with the old linear `requested.contains` scan even
        // when the batch is large and repetitive.
        let (mut table, mut device, emb) = setup(AdmissionPolicy::All { position: 0.0 }, 256);
        let mut ids: Vec<u32> = (0..48u32).collect();
        ids.extend((0..48u32).map(|v| v / 2)); // 48 duplicate demands
        let out = table.lookup_batch(&mut device, &ids).unwrap();
        for (i, &v) in ids.iter().enumerate() {
            assert_eq!(out[i].as_ref(), emb.vector_as_bytes(v).as_slice(), "id {v}");
        }
        assert_eq!(table.metrics().prefetches_admitted, 64 - 48);
        assert_eq!(table.metrics().block_reads, 1);
        // The prefetched 16 now hit without further reads.
        let reads = device.counters().reads;
        table.lookup_batch(&mut device, &(48..64u32).collect::<Vec<_>>()).unwrap();
        assert_eq!(device.counters().reads, reads);
        assert_eq!(table.metrics().prefetch_hits, 16);
    }

    #[test]
    fn scratch_path_matches_convenience_path_and_reuses_buffers() {
        let (mut table, mut device, emb) = setup(AdmissionPolicy::None, 8);
        let mut scratch = BatchScratch::new();
        let mut pool = nvm_sim::BlockBufPool::default();
        let ids = [0u32, 17, 63, 17, 5];
        table.lookup_batch_with(&mut device, &ids, &mut scratch, &mut pool).unwrap();
        assert_eq!(scratch.out().len(), ids.len() * 32);
        for (i, &v) in ids.iter().enumerate() {
            assert_eq!(scratch.payload(i), emb.vector_as_bytes(v).as_slice(), "id {v}");
        }
    }

    #[test]
    fn block_buffers_are_batch_scoped_however_large_the_cache() {
        // The pathology this guards against: cached payloads used to pin
        // their source blocks, so a table with thousands of cached entries
        // kept thousands of buffers alive and every miss read swept the
        // pool for a free one before allocating anyway. Fill an 8 192-entry
        // cache completely, then serve 1 000 more miss reads.
        let (mut table, mut device, emb) = setup_blocks(16_384, 8, AdmissionPolicy::None, 8_192);
        let mut scratch = BatchScratch::new();
        let mut pool = nvm_sim::BlockBufPool::for_cache(table.cache_capacity());
        for v in 0..8_192u32 {
            table.lookup_batch_with(&mut device, &[v], &mut scratch, &mut pool).unwrap();
        }
        assert_eq!(table.cache_snapshot().len(), 8_192, "cache fully populated");
        for v in 8_192..9_192u32 {
            table.lookup_batch_with(&mut device, &[v], &mut scratch, &mut pool).unwrap();
            assert_eq!(scratch.payload(0), emb.vector_as_bytes(v).as_slice());
        }
        let stats = pool.stats();
        assert_eq!(stats.acquires, 9_192);
        assert!(stats.allocs <= 2, "miss reads must not allocate buffers: {stats:?}");
        assert!(stats.retained <= 2, "nothing may pin a block buffer: {stats:?}");
        assert!(stats.reuse_rate() >= 0.99, "{stats:?}");
        assert_eq!(table.cache_resident_bytes(), (8_192 + 1) * 32);
    }

    #[test]
    fn single_id_lookups_return_copies_the_cache_cannot_disturb() {
        let (mut table, mut device, emb) = setup_blocks(64, 8, AdmissionPolicy::None, 16);
        let held: Vec<(u32, Bytes)> =
            (0..4u32).map(|v| (v, table.lookup(&mut device, v).unwrap())).collect();
        // Churn every slot of the arena and shrink it under the copies.
        for v in 4..64u32 {
            table.lookup(&mut device, v).unwrap();
        }
        table.set_cache_capacity(16);
        for (v, bytes) in held {
            assert_eq!(bytes.as_ref(), emb.vector_as_bytes(v).as_slice(), "copy of {v} changed");
        }
    }

    #[test]
    fn batch_validates_before_any_io() {
        let (mut table, mut device, _) = setup(AdmissionPolicy::None, 8);
        let err = table.lookup_batch(&mut device, &[3, 200]).unwrap_err();
        assert!(matches!(err, BandanaError::NoSuchVector { vector: 200, .. }));
        assert_eq!(table.metrics().lookups, 0, "failed batch must not move counters");
        assert_eq!(device.counters().reads, 0);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let (mut table, mut device, _) = setup(AdmissionPolicy::None, 8);
        let out = table.lookup_batch(&mut device, &[]).unwrap();
        assert!(out.is_empty());
        assert_eq!(table.metrics().lookups, 0);
    }

    #[test]
    fn apply_layout_preserves_bytes_and_charges_endurance() {
        // 8 vectors per block so a remap spans several physical blocks.
        let (mut t, mut device, emb) = setup_blocks(64, 8, AdmissionPolicy::None, 8);
        let endurance_before = device.endurance().bytes_written();
        assert_eq!(t.layout_epoch(), 0);

        // Reverse the placement: every block's contents change.
        let new = BlockLayout::from_order((0..64u32).rev().collect(), 8);
        let rewritten = t.apply_layout(&mut device, new).unwrap();
        assert_eq!(rewritten, 8, "every block changed");
        assert_eq!(t.layout_epoch(), 1);
        assert_eq!(device.counters().writes, 8, "one write per changed block");
        assert!(
            device.endurance().bytes_written() > endurance_before,
            "rewrites must be charged to endurance"
        );
        for v in 0..64u32 {
            let got = t.lookup(&mut device, v).unwrap();
            assert_eq!(got.as_ref(), emb.vector_as_bytes(v).as_slice(), "vector {v} corrupted");
        }
    }

    #[test]
    fn apply_layout_rewrites_only_changed_blocks_and_keeps_cache() {
        let (mut t, mut device, emb) = setup_blocks(64, 8, AdmissionPolicy::None, 8);

        // Warm the cache with vectors from an untouched block.
        t.lookup(&mut device, 40).unwrap();
        t.lookup(&mut device, 41).unwrap();
        let lookups_before = t.metrics().lookups;

        // Swap the first two vectors: both live in block 0, so exactly one
        // block changes.
        let mut order: Vec<u32> = (0..64).collect();
        order.swap(0, 1);
        let rewritten = t.apply_layout(&mut device, BlockLayout::from_order(order, 8)).unwrap();
        assert_eq!(rewritten, 1, "only the block holding the swapped pair changes");
        assert_eq!(device.counters().writes, 1);
        assert_eq!(t.metrics().lookups, lookups_before, "a re-layout is not traffic");

        // Cached entries survive the remap and still hit in DRAM.
        let reads = device.counters().reads;
        let got = t.lookup(&mut device, 40).unwrap();
        assert_eq!(got.as_ref(), emb.vector_as_bytes(40).as_slice());
        assert_eq!(device.counters().reads, reads, "cache keys must survive the remap");

        // The moved vectors read back correctly from their new slots.
        for v in [0u32, 1] {
            let got = t.lookup(&mut device, v).unwrap();
            assert_eq!(got.as_ref(), emb.vector_as_bytes(v).as_slice(), "vector {v}");
        }

        // Re-applying the identical layout is a free no-op.
        let again = t.layout().clone();
        assert_eq!(t.apply_layout(&mut device, again).unwrap(), 0);
        assert_eq!(t.layout_epoch(), 1, "a no-op apply is not a new epoch");
    }

    #[test]
    #[should_panic(expected = "block capacity")]
    fn apply_layout_rejects_capacity_change() {
        let (mut table, mut device, _) = setup(AdmissionPolicy::None, 8);
        let bad = BlockLayout::identity(64, 16);
        let _ = table.apply_layout(&mut device, bad);
    }
}
