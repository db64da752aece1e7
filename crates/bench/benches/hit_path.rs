//! Microbenchmarks for the DRAM side of the read path — the layers the
//! figure benches never touch: the store's batched lookup when almost
//! everything hits a large cache, and the serving engine's merge + scatter
//! of a two-request micro-batch.
//!
//! Both are dominated by per-lookup software cost, not device time, so a
//! cost that grows with the *cache size* (a buffer-pool scan, a payload
//! that drags its 4 KB block along) shows up here between benchmark runs.

use bandana_cache::AdmissionPolicy;
use bandana_core::{BandanaConfig, BandanaStore, BatchScratch, TableStore};
use bandana_partition::{AccessFrequency, BlockLayout};
use bandana_serve::{ServeConfig, ShardedEngine, TenantId};
use bandana_trace::{spec::TableSpec, EmbeddingTable, ModelSpec, TopicModel, TraceGenerator};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use nvm_sim::{BlockBufPool, NvmConfig, NvmDevice};
use std::time::Duration;

const VECTORS: u32 = 31_000;
const CACHE: usize = 30_000;
const BATCH: usize = 32;
/// Batches timed per iteration, and the length of the pre-drawn stream they
/// are taken from, in turn (long enough to draw every vector many times).
const BATCHES: usize = 2_000;
const STREAM: usize = 8 * BATCHES;

/// `lookup_batch_with` at ~97 % hits over a 30 000-entry cache: 32-id
/// batches drawn uniformly from a table 3 % larger than the cache, so
/// about one id per batch misses, reads a block, admits and evicts an
/// entry of no particular age.
fn bench_lookup_batch_hit_heavy(c: &mut Criterion) {
    let spec = TableSpec::test_small(VECTORS);
    let topics = TopicModel::new(&spec, 1);
    let emb = EmbeddingTable::synthesize(VECTORS, 32, &topics, 2); // 128 B vectors
    let layout = BlockLayout::identity(VECTORS, 32);
    let mut device =
        NvmDevice::new(NvmConfig::optane_375gb().with_capacity_blocks(layout.num_blocks() as u64));
    let freq = AccessFrequency::zeros(VECTORS);
    let mut table = TableStore::new(0, layout, freq, AdmissionPolicy::None, CACHE, 1.5, 0, 128);
    table.write_embeddings(&mut device, &emb).expect("the device takes the table");

    let mut scratch = BatchScratch::new();
    let mut pool = BlockBufPool::default();
    let mut x = 88172645463325252u64;
    let mut next_id = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 11) as u32 % VECTORS
    };
    let stream: Vec<Vec<u32>> =
        (0..STREAM).map(|_| (0..BATCH).map(|_| next_id()).collect()).collect();
    let mut cursor = 0;
    let mut pass = |table: &mut TableStore, device: &mut NvmDevice| {
        for ids in stream.iter().cycle().skip(cursor).take(BATCHES) {
            table.lookup_batch_with(device, ids, &mut scratch, &mut pool).expect("ids in range");
        }
        cursor = (cursor + BATCHES) % STREAM;
        black_box(scratch.out().len())
    };
    // Fill the cache before timing.
    for _ in 0..STREAM / BATCHES {
        pass(&mut table, &mut device);
    }
    assert_eq!(table.cache_snapshot().len(), CACHE, "warm-up must fill the cache");

    let mut group = c.benchmark_group("hit_path");
    group.throughput(Throughput::Elements((BATCHES * BATCH) as u64));
    group.bench_function("lookup_batch_with/97pct_hits_30k_cache", |b| {
        b.iter(|| pass(&mut table, &mut device));
    });
    group.finish();
}

/// The engine's software path for a micro-batch of two requests: admit,
/// lane, drain, merge the two requests' ids per table, look them up (all
/// DRAM hits, no device queue), scatter the payloads into one buffer per
/// job, complete both tickets.
fn bench_engine_two_request_batch(c: &mut Criterion) {
    let spec = ModelSpec::test_small();
    let mut generator = TraceGenerator::new(&spec, 3);
    let training = generator.generate_requests(200);
    let embeddings: Vec<EmbeddingTable> = (0..spec.num_tables())
        .map(|t| {
            EmbeddingTable::synthesize(
                spec.tables[t].num_vectors,
                spec.dim,
                generator.topic_model(t),
                t as u64,
            )
        })
        .collect();
    let resident: usize = spec.tables.iter().map(|t| t.num_vectors as usize).sum();
    let store = BandanaStore::build(
        &spec,
        &embeddings,
        &training,
        BandanaConfig::default().with_cache_vectors(resident),
    )
    .expect("the store builds");
    // One shard, and a window long enough that the second request always
    // joins the first: `max_batch` closes the batch the moment it does.
    let config = ServeConfig::default()
        .with_shards(1)
        .with_batch_window(Duration::from_millis(50))
        .with_max_batch(2);
    let engine = ShardedEngine::new(store, config).expect("the engine starts");
    let client = engine.client(TenantId::DEFAULT).expect("the default tenant exists");
    let requests = generator.generate_requests(64).requests;
    let serve_pair = |pair: &[bandana_trace::Request]| {
        let mut first = client.submit(&pair[0]).expect("admitted");
        let mut second = client.submit(&pair[1]).expect("admitted");
        let a = first.wait().expect("served");
        let b = second.wait().expect("served");
        a.parts.len() + b.parts.len()
    };
    // Make every vector the requests touch resident.
    for pair in requests.chunks_exact(2) {
        serve_pair(pair);
    }

    let lookups: usize = requests.iter().map(bandana_trace::Request::total_lookups).sum();
    let mut group = c.benchmark_group("hit_path");
    group.throughput(Throughput::Elements(lookups as u64));
    group.bench_function("engine/merge_scatter_two_request_batch", |b| {
        b.iter(|| requests.chunks_exact(2).map(serve_pair).sum::<usize>());
    });
    group.finish();
    let metrics = engine.shutdown();
    assert!(metrics.batching.mean_batch() > 1.9, "the pairs must merge: {:?}", metrics.batching);
}

criterion_group!(benches, bench_lookup_batch_hit_heavy, bench_engine_two_request_batch);
criterion_main!(benches);
