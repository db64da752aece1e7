//! Microbenchmarks for the device side of the read path at the repo
//! benchmark's `nvm_bound` shape: the store's batched lookup when most ids
//! miss a 3.6 % cache, and the depth tracker's schedule for one
//! micro-batch's reads.
//!
//! The shard worker submits a batch's reads up front and does this CPU work
//! while they are in flight, so on a device-bound workload the cost below
//! is *hidden* behind device time, not gone: end to end it only shows once
//! it outgrows the device time per batch. These benches keep it in view
//! between benchmark runs — a change that bloats the plan pass, or spends
//! the overlapped CPU on something else, moves these numbers first.

use bandana_core::{BandanaConfig, BandanaStore, BatchScratch};
use bandana_trace::{EmbeddingTable, ModelSpec, Request, TraceGenerator};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use nvm_sim::{BlockBufPool, QueueDepthTracker, QueueModel};

/// The `nvm_bound` store: `paper_scaled(4000)` (8 tables, 27 500 vectors of
/// 128 B), SHP on 1 500 training requests, 1 000 cached vectors, the
/// default division and admission.
const PAPER_SCALE: u32 = 4_000;
const TRAINING_REQUESTS: usize = 1_500;
const CACHE_VECTORS: usize = 1_000;
const SEED: u64 = 7;
/// Requests replayed per iteration (~330 lookups each), after as many
/// again to warm the caches, the scratch and the pool.
const REQUESTS: usize = 200;
/// Block reads per request on `nvm_bound`, and its device queue depth.
const BATCH_READS: u64 = 131;
const QUEUE_DEPTH: u32 = 4;

/// `lookup_batch_with` where ~0.39 block reads per lookup remain, in two
/// arms over the same store and requests:
///
/// - `tuned`: each table's tuned threshold. Each miss group reads a block,
///   copies the demanded payloads out and offers the block's other vectors
///   to the admission policy — the prefetch sweep is most of the cost, and
///   at this cache size very little of it pays back.
/// - `set`: the block-aware admission set the store serves by default.
///   Once the set is resident nothing is inserted or evicted, and a
///   rejected block-mate costs one bit test.
fn bench_lookup_batch_miss_heavy(c: &mut Criterion) {
    let spec = ModelSpec::paper_scaled(PAPER_SCALE);
    let mut generator = TraceGenerator::new(&spec, SEED);
    let training = generator.generate_requests(TRAINING_REQUESTS);
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
    let requests = generator.generate_requests(2 * REQUESTS).requests;
    let (warm, timed) = requests.split_at(REQUESTS);
    let lookups: usize = timed.iter().map(Request::total_lookups).sum();
    let mut group = c.benchmark_group("miss_path");
    group.throughput(Throughput::Elements(lookups as u64));
    for (arm, on_set) in [("tuned", false), ("set", true)] {
        let config = BandanaConfig::default().with_cache_vectors(CACHE_VECTORS).with_seed(SEED);
        let store =
            BandanaStore::build(&spec, &embeddings, &training, config).expect("the store builds");
        let mut parts = store.into_raw_parts();
        if !on_set {
            for table in &mut parts.tables {
                table.set_policy(table.fallback_policy(), table.shadow_multiplier());
            }
        }
        let mut scratch = BatchScratch::new();
        let mut pool = BlockBufPool::default();
        let mut replay = |requests: &[Request]| {
            for request in requests {
                for query in &request.queries {
                    parts.tables[query.table]
                        .lookup_batch_with(&mut parts.device, &query.ids, &mut scratch, &mut pool)
                        .expect("generated ids are in range");
                }
            }
            black_box(scratch.out().len())
        };
        replay(warm);
        group.bench_function(format!("lookup_batch_with/nvm_bound_3_6pct_cache/{arm}"), |b| {
            b.iter(|| replay(timed));
        });

        let (mut probes, mut reads) = (0, 0);
        for table in &parts.tables {
            probes += table.metrics().lookups;
            reads += table.metrics().block_reads;
        }
        let reads_per_lookup = reads as f64 / probes as f64;
        assert!(
            (0.25..0.6).contains(&reads_per_lookup),
            "{arm}: not the nvm_bound shape any more: {reads_per_lookup:.3} block reads per lookup"
        );
    }
    group.finish();
}

/// One micro-batch's submission: the depth-4 schedule of 131 reads into a
/// warmed buffer — what the shard worker pays, per batch, to know when each
/// block arrives.
fn bench_schedule_batch(c: &mut Criterion) {
    let mut tracker = QueueDepthTracker::new(QueueModel::optane(), QUEUE_DEPTH);
    let mut done_at = Vec::new();
    let mut group = c.benchmark_group("miss_path");
    group.throughput(Throughput::Elements(BATCH_READS));
    group.bench_function("queue_depth_tracker/schedule_131_reads_depth_4", |b| {
        b.iter(|| {
            let total = tracker.schedule_batch(black_box(BATCH_READS), &mut done_at);
            black_box((total, done_at.len()))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_lookup_batch_miss_heavy, bench_schedule_batch);
criterion_main!(benches);
