//! Proof of the zero-allocation steady-state read path.
//!
//! This test binary installs a counting global allocator (its own local
//! copy — the library workspace forbids `unsafe`, but a test crate may
//! carry the one narrowly-scoped `unsafe impl`) and asserts that a warmed
//! [`TableStore::lookup_batch_with`] performs **zero** heap allocations:
//! the miss plan and the flat output buffer live in the reusable
//! [`BatchScratch`], block reads recycle buffers from a [`BlockBufPool`],
//! and payloads are copied — block to cache arena, arena or block to the
//! output — never allocated for.
//!
//! The counter is per-thread (const-initialized TLS, safe to touch inside
//! the allocator), so the test harness's other threads cannot pollute the
//! measurement.

use bandana::cache::AdmissionPolicy;
use bandana::core::{BatchScratch, TableStore};
use bandana::nvm::{BlockBufPool, BlockDevice, NvmConfig, NvmDevice};
use bandana::partition::{AccessFrequency, BlockLayout};
use bandana::trace::{spec::TableSpec, EmbeddingTable, TopicModel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

std::thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`, not `with`: the allocator may run during TLS teardown.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn thread_allocations() -> u64 {
    ALLOCATIONS.with(|c| c.get())
}

/// A 256-vector table spread over 16 blocks (16 × 32 B vectors per
/// block), a 64-entry cache, and admit-all prefetching: every pass
/// misses, prefetches, and evicts — the busiest shape the read path has.
fn fixture() -> (TableStore, NvmDevice, EmbeddingTable) {
    let spec = TableSpec::test_small(256);
    let topics = TopicModel::new(&spec, 7);
    let emb = EmbeddingTable::synthesize(256, 8, &topics, 11); // 32 B vectors
    let layout = BlockLayout::identity(256, 16);
    let mut device =
        NvmDevice::new(NvmConfig::optane_375gb().with_capacity_blocks(layout.num_blocks() as u64));
    let mut table = TableStore::new(
        0,
        layout,
        AccessFrequency::zeros(256),
        AdmissionPolicy::All { position: 0.5 },
        64,
        1.5,
        0,
        32,
    );
    table.write_embeddings(&mut device, &emb).unwrap();
    device.reset_counters();
    (table, device, emb)
}

#[test]
fn steady_state_lookup_batch_performs_zero_heap_allocations() {
    let (mut table, mut device, emb) = fixture();
    let mut scratch = BatchScratch::new();
    let mut pool = BlockBufPool::for_cache(table.cache_capacity());

    // One batch per block, with duplicates and a cross-block straggler, so
    // every pass exercises hits, coalesced misses, duplicate demands, and
    // the prefetch sweep. Built before measurement; the ids are reused.
    let batches: Vec<Vec<u32>> = (0..16u32)
        .map(|b| vec![b * 16, b * 16 + 3, b * 16 + 9, b * 16 + 3, (b * 16 + 21) % 256])
        .collect();

    let replay = |table: &mut TableStore,
                  device: &mut NvmDevice,
                  scratch: &mut BatchScratch,
                  pool: &mut BlockBufPool| {
        for ids in &batches {
            table.lookup_batch_with(device, ids, scratch, pool).unwrap();
        }
    };

    // Warm until the scratch, pool, and cache index reach their
    // steady-state shapes.
    for _ in 0..3 {
        replay(&mut table, &mut device, &mut scratch, &mut pool);
    }

    let misses_before = table.metrics().misses;
    let reads_before = device.counters().reads;
    let before = thread_allocations();
    replay(&mut table, &mut device, &mut scratch, &mut pool);
    let after = thread_allocations();

    assert_eq!(
        after - before,
        0,
        "steady-state lookup_batch allocated {} times (pool {:?})",
        after - before,
        pool.stats()
    );
    // The measured pass did real work: device reads happened (this is the
    // miss path, not an all-hit cop-out) and the pool recycled for them.
    assert!(device.counters().reads > reads_before, "measured pass never touched the device");
    assert!(table.metrics().misses > misses_before, "measured pass never missed");
    let stats = pool.stats();
    assert!(stats.reuses > 0, "pool never recycled: {stats:?}");

    // And the payloads are still byte-exact.
    table.lookup_batch_with(&mut device, &[5, 77, 210], &mut scratch, &mut pool).unwrap();
    for (i, &v) in [5u32, 77, 210].iter().enumerate() {
        assert_eq!(scratch.payload(i), emb.vector_as_bytes(v).as_slice(), "vector {v}");
    }
}

#[test]
fn a_large_mostly_hit_cache_stays_allocation_free() {
    // The shape that used to allocate on the hit-heavy path: a cache of
    // more than 4 096 entries (past the old pool's retention cap, so
    // pinned block buffers overflowed it) at ~97 % hits. 16 384 vectors,
    // 16 per block, an 8 192-entry cache; each 32-id batch takes 31 ids
    // from a 6 000-vector hot set and one, fresh every time, from the cold
    // tail.
    let spec = TableSpec::test_small(16_384);
    let topics = TopicModel::new(&spec, 7);
    let emb = EmbeddingTable::synthesize(16_384, 8, &topics, 11); // 32 B vectors
    let layout = BlockLayout::identity(16_384, 16);
    let mut device =
        NvmDevice::new(NvmConfig::optane_375gb().with_capacity_blocks(layout.num_blocks() as u64));
    let freq = AccessFrequency::zeros(16_384);
    let mut table = TableStore::new(0, layout, freq, AdmissionPolicy::None, 8_192, 1.5, 0, 32);
    table.write_embeddings(&mut device, &emb).unwrap();
    let mut scratch = BatchScratch::new();
    let mut pool = BlockBufPool::for_cache(table.cache_capacity());

    let batches: Vec<Vec<u32>> = (0..3_000u32)
        .map(|b| {
            let mut ids: Vec<u32> = (0..31).map(|i| (b * 31 + i) * 7 % 6_000).collect();
            ids.push(6_000 + (b * 17) % 10_384);
            ids
        })
        .collect();
    let mut replay = |table: &mut TableStore, device: &mut NvmDevice, batches: &[Vec<u32>]| {
        for ids in batches {
            table.lookup_batch_with(device, ids, &mut scratch, &mut pool).unwrap();
        }
    };
    let (warmup, measured) = batches.split_at(2_400);
    replay(&mut table, &mut device, warmup);
    assert_eq!(table.cache_snapshot().len(), 8_192, "cache must be full, so misses evict");

    table.reset_metrics();
    let before = thread_allocations();
    replay(&mut table, &mut device, measured);
    let allocations = thread_allocations() - before;
    let m = *table.metrics();
    assert_eq!(allocations, 0, "hit-heavy steady state allocated (pool {:?})", pool.stats());
    assert!(m.hits as f64 >= 0.96 * m.lookups as f64, "not hit-heavy: {m:?}");
    assert!(m.misses > 0 && m.evictions > 0, "the pass must also miss and evict: {m:?}");
    assert!(pool.stats().retained <= 2, "block buffers must not accumulate: {:?}", pool.stats());

    table.lookup_batch_with(&mut device, &[5, 7_777], &mut scratch, &mut pool).unwrap();
    for (i, &v) in [5u32, 7_777].iter().enumerate() {
        assert_eq!(scratch.payload(i), emb.vector_as_bytes(v).as_slice(), "vector {v}");
    }
}

#[test]
fn warmup_is_what_buys_the_zero() {
    // Sanity check on the methodology: the *first* pass, with cold
    // scratch and pool, must allocate — otherwise the steady-state
    // assertion above would be vacuous.
    let (mut table, mut device, _) = fixture();
    let mut scratch = BatchScratch::new();
    let mut pool = BlockBufPool::for_cache(table.cache_capacity());
    let before = thread_allocations();
    table.lookup_batch_with(&mut device, &[0, 3, 250], &mut scratch, &mut pool).unwrap();
    assert!(thread_allocations() > before, "a cold first batch must allocate");
}
