//! Differential property tests for the per-table payload arena: whatever
//! sequence of lookups, resizes, re-layouts and recoveries a table goes
//! through, every byte it serves or caches equals the embedding table's,
//! its counters equal the id-only cache simulator's, and the slot rules of
//! [`PayloadCache`](crate::payload_cache) hold after every step.

use super::tests::setup_blocks;
use super::*;
use bandana_cache::{AdmissionSet, PrefetchCacheSim};
use nvm_sim::{IoCounters, NvmDevice, NvmError};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const VECTORS: u32 = 96;
const PER_BLOCK: usize = 8;
const VECTOR_BYTES: usize = 32;

fn store(policy: AdmissionPolicy, cache: usize) -> (TableStore, NvmDevice, EmbeddingTable) {
    setup_blocks(VECTORS, PER_BLOCK, policy, cache)
}

/// A cold table over `layout`, for a device that already holds the vectors.
fn table_over(layout: BlockLayout, policy: AdmissionPolicy, cache: usize) -> TableStore {
    let freq = AccessFrequency::zeros(VECTORS);
    TableStore::new(0, layout, freq, policy, cache, 1.5, 0, VECTOR_BYTES)
}

/// A device that publishes its read count where a `before_read` hook can
/// see it — the hook cannot borrow the device `fill_batch` is holding.
struct CountedReads {
    inner: NvmDevice,
    reads: Arc<AtomicU64>,
}

impl BlockDevice for CountedReads {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }
    fn capacity_blocks(&self) -> u64 {
        self.inner.capacity_blocks()
    }
    fn read_block(&mut self, block: u64) -> Result<Vec<u8>, NvmError> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read_block(block)
    }
    fn read_block_into(&mut self, block: u64, buf: &mut [u8]) -> Result<(), NvmError> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read_block_into(block, buf)
    }
    fn write_block(&mut self, block: u64, data: &[u8]) -> Result<(), NvmError> {
        self.inner.write_block(block, data)
    }
    fn counters(&self) -> IoCounters {
        self.inner.counters()
    }
    fn reset_counters(&mut self) {
        self.inner.reset_counters()
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// A batched lookup (ids repeat: the range is small).
    Batch(Vec<u32>),
    /// A single-id lookup.
    Single(u32),
    /// `set_cache_capacity`, shrinking or growing.
    Resize(usize),
    /// `apply_layout` onto the current order with these positions swapped.
    Relayout(Vec<(u32, u32)>),
    /// `cache_snapshot` → a fresh table over the same device → `rehydrate`.
    Recover,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        proptest::collection::vec(0u32..VECTORS, 1..24).prop_map(Op::Batch),
        proptest::collection::vec(0u32..VECTORS, 1..24).prop_map(Op::Batch),
        (0u32..VECTORS).prop_map(Op::Single),
        (1usize..80).prop_map(Op::Resize),
        proptest::collection::vec((0u32..VECTORS, 0u32..VECTORS), 1..8).prop_map(Op::Relayout),
        (0u32..1).prop_map(|_| Op::Recover),
    ]
}

/// Every cached payload is the vector's own bytes, the slot rules hold,
/// and the arena is within the memory model's bound.
fn check(table: &TableStore, emb: &EmbeddingTable) {
    table.cache.assert_invariants();
    assert!(table.cache_resident_bytes() <= (table.cache_capacity() + 1) * VECTOR_BYTES);
    for (v, _) in table.cache_snapshot() {
        assert_eq!(
            table.cache.peek(v).expect("snapshotted entry is cached"),
            emb.vector_as_bytes(v).as_slice(),
            "cached bytes of vector {v}"
        );
    }
}

proptest! {
    #[test]
    fn arena_serves_the_embedding_bytes_through_any_history(
        ops in proptest::collection::vec(op(), 1..60),
        position in 0u32..4,
        cache in 16usize..64,
    ) {
        // Admit-all prefetching at a fractional queue position: every miss
        // fills the arena from all over its block, mid-queue.
        let policy = AdmissionPolicy::All { position: f64::from(position) * 0.3 };
        let (mut table, mut device, emb) = store(policy, cache);
        let mut scratch = BatchScratch::new();
        let mut pool = BlockBufPool::default();
        for op in ops {
            match op {
                Op::Batch(ids) => {
                    table.lookup_batch_with(&mut device, &ids, &mut scratch, &mut pool).unwrap();
                    for (i, &v) in ids.iter().enumerate() {
                        prop_assert_eq!(scratch.payload(i), emb.vector_as_bytes(v).as_slice());
                    }
                }
                Op::Single(v) => {
                    let got = table.lookup(&mut device, v).unwrap();
                    prop_assert_eq!(got.as_ref(), emb.vector_as_bytes(v).as_slice());
                }
                Op::Resize(entries) => {
                    let before = table.cache_snapshot();
                    table.set_cache_capacity(entries);
                    let after = table.cache_snapshot();
                    // Survivors are the hottest entries, order intact.
                    prop_assert_eq!(&after[..], &before[..after.len()]);
                    if table.cache_capacity() < before.len() {
                        prop_assert_eq!(table.cache_resident_bytes(), after.len() * VECTOR_BYTES);
                    }
                }
                Op::Relayout(swaps) => {
                    let mut order = table.layout().order().to_vec();
                    for (a, b) in swaps {
                        order.swap(a as usize, b as usize);
                    }
                    let cached = table.cache_snapshot();
                    table.apply_layout(&mut device, BlockLayout::from_order(order, PER_BLOCK)).unwrap();
                    prop_assert_eq!(table.cache_snapshot(), cached);
                }
                Op::Recover => {
                    let snap = table.cache_snapshot();
                    let mut fresh = table_over(table.layout().clone(), policy, table.cache_capacity());
                    prop_assert_eq!(fresh.rehydrate(&mut device, &snap).unwrap(), snap.len());
                    prop_assert_eq!(fresh.cache_snapshot(), snap);
                    table = fresh;
                }
            }
            check(&table, &emb);
        }
        prop_assert!(pool.stats().retained <= 1, "a block buffer outlived its read");
    }

    #[test]
    fn counters_match_the_cache_simulator_on_any_stream(
        stream in proptest::collection::vec(0u32..VECTORS, 1..400),
        position in 0u32..4,
        cache in 16usize..64,
    ) {
        // The byte-serving table and the id-only simulator must agree on
        // every counter for the same stream: copying payloads into an
        // arena changes where bytes live, never what is admitted,
        // promoted or evicted.
        let policy = AdmissionPolicy::All { position: f64::from(position) * 0.3 };
        let (mut table, mut device, emb) = store(policy, cache);
        let layout = BlockLayout::identity(VECTORS, PER_BLOCK);
        let mut sim = PrefetchCacheSim::new(&layout, cache, policy, AccessFrequency::zeros(VECTORS));
        for &v in &stream {
            table.lookup(&mut device, v).unwrap();
            sim.lookup(v);
            prop_assert_eq!(table.metrics(), sim.metrics());
        }
        check(&table, &emb);
    }

    #[test]
    fn the_set_policy_matches_the_cache_simulator_on_any_stream(
        stream in proptest::collection::vec(0u32..VECTORS, 1..400),
        members in proptest::collection::vec(0u32..VECTORS, 0..64),
        cache in 16usize..64,
    ) {
        // Under the set policy the table's batched reads and the simulator
        // gate demanded vectors and block-mates by the same bit: the same
        // payloads, the same counters and the same queue, and no eviction
        // ever, since the set fits the cache.
        let set = AdmissionSet::from_ids(VECTORS, members.into_iter().take(cache));
        let (mut table, mut device, emb) = store(AdmissionPolicy::None, cache);
        table.install_set(set.clone());
        let layout = BlockLayout::identity(VECTORS, PER_BLOCK);
        let mut sim = PrefetchCacheSim::with_set(&layout, cache, set, AccessFrequency::zeros(VECTORS));
        let (mut scratch, mut pool) = (BatchScratch::new(), BlockBufPool::default());
        for &v in &stream {
            table.lookup_batch_with(&mut device, &[v], &mut scratch, &mut pool).unwrap();
            prop_assert_eq!(scratch.payload(0), emb.vector_as_bytes(v).as_slice());
            sim.lookup(v);
            prop_assert_eq!(table.metrics(), sim.metrics());
            prop_assert_eq!(table.cache_snapshot(), sim.cache_snapshot());
        }
        prop_assert_eq!(table.metrics().evictions, 0);
        check(&table, &emb);
    }

    #[test]
    fn plan_then_fill_is_lookup_batch_with_whenever_the_reads_are_awaited(
        batches in proptest::collection::vec(proptest::collection::vec(0u32..VECTORS, 0..24), 1..30),
        position in 0u32..4,
        cache in 16usize..64,
    ) {
        // Twin stores, one served whole and one in halves with a hook
        // between every pair of reads: splitting the call moves *when* the
        // device is touched, never what the cache or the caller sees.
        let policy = AdmissionPolicy::All { position: f64::from(position) * 0.3 };
        let (mut whole, mut whole_device, emb) = store(policy, cache);
        let (mut halves, inner, _) = store(policy, cache);
        let reads = Arc::new(AtomicU64::new(0));
        let mut halves_device = CountedReads { inner, reads: Arc::clone(&reads) };
        let (mut whole_scratch, mut halves_scratch) = (BatchScratch::new(), BatchScratch::new());
        let (mut whole_pool, mut halves_pool) = (BlockBufPool::default(), BlockBufPool::default());
        for ids in batches {
            whole.lookup_batch_with(&mut whole_device, &ids, &mut whole_scratch, &mut whole_pool).unwrap();

            let planned = halves.plan_batch(&ids, &mut halves_scratch).unwrap() as u64;
            let before = reads.load(Ordering::Relaxed);
            prop_assert_eq!(halves.metrics().block_reads, before, "the plan half must not read");
            let mut calls = 0u64;
            halves
                .fill_batch(&mut halves_device, &ids, &mut halves_scratch, &mut halves_pool, || {
                    calls += 1;
                    // Exactly once ahead of each read: every earlier block
                    // has been read, this one has not.
                    assert_eq!(reads.load(Ordering::Relaxed) - before, calls - 1);
                })
                .unwrap();
            prop_assert_eq!(calls, planned, "one hook call per planned block");
            prop_assert_eq!(reads.load(Ordering::Relaxed) - before, planned, "the plan counts the reads");

            prop_assert_eq!(halves_scratch.out(), whole_scratch.out());
            for (i, &v) in ids.iter().enumerate() {
                prop_assert_eq!(halves_scratch.payload(i), emb.vector_as_bytes(v).as_slice());
            }
            prop_assert_eq!(halves.metrics(), whole.metrics());
            prop_assert_eq!(halves.cache_snapshot(), whole.cache_snapshot());
            prop_assert_eq!(halves_device.counters().reads, whole_device.counters().reads);
            check(&halves, &emb);
        }
    }
}
