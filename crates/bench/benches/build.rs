//! Set-up cost at the repo benchmark's `nvm_bound` shape: the whole
//! `BandanaStore::build`, and the DRAM division plus admission-set solve
//! inside it.
//!
//! The benchmark's `setup_s` is mostly the SHP placement solve, and its
//! speed moves with where the linker puts that code, so it cannot tell a
//! cheaper build from a dearer one by a few milliseconds. These benches
//! time the build in a process of their own, and its DRAM division alone
//! (`tuner::shared_split`: one hull greedy over every table's blocks at the
//! whole budget) over the same layouts.

use bandana_core::store::build_layouts_and_freqs;
use bandana_core::tuner::{self, FIT_BATCH_REQUESTS};
use bandana_core::{BandanaConfig, BandanaStore};
use bandana_trace::{EmbeddingTable, ModelSpec, TraceGenerator};
use criterion::{criterion_group, criterion_main, Criterion};

/// The `nvm_bound` inputs: `paper_scaled(4000)` (8 tables, 27 500 vectors
/// of 128 B), SHP on 1 500 training requests, 1 000 cached vectors.
const PAPER_SCALE: u32 = 4_000;
const TRAINING_REQUESTS: usize = 1_500;
const CACHE_VECTORS: usize = 1_000;
const SEED: u64 = 7;

fn bench_build(c: &mut Criterion) {
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
    let config = BandanaConfig::default().with_cache_vectors(CACHE_VECTORS).with_seed(SEED);

    let mut group = c.benchmark_group("build");
    group.sample_size(5);
    group.bench_function("store/nvm_bound", |b| {
        b.iter(|| {
            BandanaStore::build(&spec, &embeddings, &training, config.clone())
                .expect("the store builds")
        });
    });

    let vectors_per_block = config.vectors_per_block(spec.vector_bytes());
    let (layouts, freqs) = build_layouts_and_freqs(
        &spec,
        &training,
        config.partitioner,
        vectors_per_block,
        &embeddings,
        SEED,
    );
    group.sample_size(20);
    group.bench_function("division/nvm_bound", |b| {
        b.iter(|| {
            tuner::shared_split(&layouts, &freqs, &training, CACHE_VECTORS, FIT_BATCH_REQUESTS)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_build);
criterion_main!(benches);
