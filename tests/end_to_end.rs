//! Cross-crate integration tests: the full Bandana data path from trace
//! generation through placement, tuning, and byte-serving.

use bandana::prelude::*;

/// Builds the standard small fixture: spec, generator, traces, embeddings.
fn fixture(seed: u64) -> (ModelSpec, TraceGenerator, Trace, Trace, Vec<EmbeddingTable>) {
    let spec = ModelSpec::paper_scaled(20_000);
    let mut generator = TraceGenerator::new(&spec, seed);
    let train = generator.generate_requests(400);
    let eval = generator.generate_requests(200);
    let embeddings: Vec<EmbeddingTable> = (0..spec.num_tables())
        .map(|t| {
            EmbeddingTable::synthesize(
                spec.tables[t].num_vectors,
                spec.dim,
                generator.topic_model(t),
                seed.wrapping_add(t as u64),
            )
        })
        .collect();
    (spec, generator, train, eval, embeddings)
}

/// One synthesized embedding table per spec table, seeded by table index.
fn synthesize(spec: &ModelSpec, generator: &TraceGenerator) -> Vec<EmbeddingTable> {
    (0..spec.num_tables())
        .map(|t| {
            EmbeddingTable::synthesize(
                spec.tables[t].num_vectors,
                spec.dim,
                generator.topic_model(t),
                t as u64,
            )
        })
        .collect()
}

#[test]
fn full_stack_serves_correct_bytes_under_all_partitioners() {
    let (spec, _generator, train, eval, embeddings) = fixture(1);
    for partitioner in [
        PartitionerKind::Identity,
        PartitionerKind::Random,
        PartitionerKind::Shp { iterations: 6 },
        PartitionerKind::KMeans { k: 8, iterations: 5 },
        PartitionerKind::TwoStageKMeans { first_stage_k: 4, total_subclusters: 16, iterations: 5 },
    ] {
        let config = BandanaConfig::default()
            .with_cache_vectors(800)
            .with_partitioner(partitioner)
            .with_seed(3);
        let mut store = BandanaStore::build(&spec, &embeddings, &train, config).unwrap();
        // Every lookup must return the exact embedding bytes regardless of
        // physical placement and caching.
        for request in eval.requests.iter().take(50) {
            for q in &request.queries {
                for &v in &q.ids {
                    let got = store.lookup(q.table, v).unwrap();
                    assert_eq!(
                        got.as_ref(),
                        embeddings[q.table].vector_as_bytes(v).as_slice(),
                        "corrupted vector {v} of table {} under {partitioner:?}",
                        q.table
                    );
                }
            }
        }
    }
}

#[test]
fn shp_store_issues_fewer_block_reads_than_identity_baseline() {
    let (spec, _generator, train, eval, embeddings) = fixture(2);
    let serve = |partitioner: PartitionerKind, admission: Option<AdmissionPolicy>| {
        let mut config = BandanaConfig::default()
            .with_cache_vectors(1_000)
            .with_partitioner(partitioner)
            .with_seed(4);
        if let Some(a) = admission {
            config = config.with_admission(a);
        }
        let mut store = BandanaStore::build(&spec, &embeddings, &train, config).unwrap();
        store.serve_trace(&eval).unwrap();
        store.total_metrics().block_reads
    };
    let bandana = serve(PartitionerKind::Shp { iterations: 8 }, None);
    let baseline = serve(PartitionerKind::Identity, Some(AdmissionPolicy::None));
    assert!(
        bandana < baseline,
        "Bandana ({bandana} reads) should beat the baseline ({baseline} reads)"
    );
}

#[test]
fn store_metrics_reconcile_with_device_counters() {
    let (spec, _generator, train, eval, embeddings) = fixture(3);
    let config = BandanaConfig::default().with_cache_vectors(500).with_seed(5);
    let mut store = BandanaStore::build(&spec, &embeddings, &train, config).unwrap();
    store.serve_trace(&eval).unwrap();
    let m = store.total_metrics();
    assert_eq!(m.lookups as usize, eval.total_lookups());
    assert_eq!(m.hits + m.misses, m.lookups);
    assert_eq!(store.device_counters().reads, m.block_reads);
    assert_eq!(store.device_counters().bytes_read, m.block_reads * 4096);
    // Per-table metrics sum to the total.
    let sum: u64 = store.table_metrics().iter().map(|t| t.lookups).sum();
    assert_eq!(sum, m.lookups);
}

/// A store over `ModelSpec::test_small()` trained on 300 requests, and the
/// generator to draw serving traffic from.
fn small_store(seed: u64, cache: usize) -> (BandanaStore, TraceGenerator) {
    let spec = ModelSpec::test_small();
    let mut generator = TraceGenerator::new(&spec, seed);
    let training = generator.generate_requests(300);
    let embeddings = synthesize(&spec, &generator);
    let config = BandanaConfig::default().with_cache_vectors(cache);
    let store = BandanaStore::build(&spec, &embeddings, &training, config).unwrap();
    (store, generator)
}

#[test]
fn metrics_are_internally_consistent_after_trace() {
    let (mut store, mut generator) = small_store(2, 256);
    let serving = generator.generate_requests(300);
    store.serve_trace(&serving).unwrap();
    let m = store.total_metrics();
    assert_eq!(m.lookups, serving.total_lookups() as u64);
    assert_eq!(m.hits + m.misses, m.lookups);
    assert_eq!(m.block_reads, m.misses, "every miss costs exactly one block read");
    // Device counters agree with cache accounting.
    assert_eq!(store.device_counters().reads, m.block_reads);
}

#[test]
fn per_table_metrics_sum_to_total() {
    let (mut store, mut generator) = small_store(5, 256);
    let serving = generator.generate_requests(200);
    store.serve_trace(&serving).unwrap();
    let per_table = store.table_metrics();
    let total = store.total_metrics();
    assert_eq!(per_table.iter().map(|m| m.lookups).sum::<u64>(), total.lookups);
    assert_eq!(per_table.iter().map(|m| m.block_reads).sum::<u64>(), total.block_reads);
}

#[test]
fn reset_metrics_clears_counters_but_keeps_cache() {
    // A cache big enough (6144 ≥ both tables' id spaces) that the whole
    // working set survives the first pass.
    let (mut store, mut generator) = small_store(4, 6144);
    let serving = generator.generate_requests(100);
    store.serve_trace(&serving).unwrap();
    let cold_hit_rate = store.total_metrics().hit_rate();
    store.reset_metrics();
    assert_eq!(store.total_metrics().lookups, 0);
    assert_eq!(store.device_counters().reads, 0);
    // Replaying the same trace against the warm cache hits ~everything.
    store.serve_trace(&serving).unwrap();
    let warm = store.total_metrics();
    assert!(
        warm.hit_rate() > 0.95 && warm.hit_rate() > cold_hit_rate,
        "warm replay ({:.2}) should beat the cold run ({cold_hit_rate:.2})",
        warm.hit_rate()
    );
}

#[test]
fn deterministic_end_to_end() {
    let run = || {
        let (spec, _generator, train, eval, embeddings) = fixture(7);
        let config = BandanaConfig::default().with_cache_vectors(600).with_seed(7);
        let mut store = BandanaStore::build(&spec, &embeddings, &train, config).unwrap();
        store.serve_trace(&eval).unwrap();
        store.total_metrics()
    };
    assert_eq!(run(), run());
}

#[test]
fn retraining_stays_within_endurance_budget() {
    let (spec, _generator, train, _eval, embeddings) = fixture(8);
    let config = BandanaConfig::default().with_cache_vectors(400).with_seed(8);
    let mut store = BandanaStore::build(&spec, &embeddings, &train, config).unwrap();
    // The paper: tables are retrained 10-20x per day against a 30 DWPD
    // budget. Simulate 20 full retrains of every table in one day.
    // (The build itself already wrote each table once.)
    for _ in 0..20 {
        for (t, emb) in embeddings.iter().enumerate() {
            store.retrain(t, emb).unwrap();
        }
    }
    assert!(
        store.endurance().within_budget(1.0),
        "20 retrains/day must fit the 30 DWPD budget: {:.1} drive writes",
        store.endurance().drive_writes()
    );
    // 40 more pushes past the limit.
    for _ in 0..40 {
        for (t, emb) in embeddings.iter().enumerate() {
            store.retrain(t, emb).unwrap();
        }
    }
    assert!(!store.endurance().within_budget(1.0));
}

#[test]
fn stale_cache_entries_survive_retraining_until_evicted() {
    let (spec, mut generator, train, _eval, embeddings) = fixture(9);
    let config = BandanaConfig::default().with_cache_vectors(400).with_seed(9);
    let mut store = BandanaStore::build(&spec, &embeddings, &train, config).unwrap();
    // Warm one vector into DRAM.
    let warm = store.lookup(0, 3).unwrap();
    // Retrain table 0 with fresh values.
    let fresh = EmbeddingTable::synthesize(
        spec.tables[0].num_vectors,
        spec.dim,
        generator.topic_model(0),
        999,
    );
    store.retrain(0, &fresh).unwrap();
    // Cached lookup still serves the pre-retrain bytes (production
    // semantics, paper §2.1: inference uses vectors without adjustment
    // until the cache turns over).
    let still_cached = store.lookup(0, 3).unwrap();
    assert_eq!(warm, still_cached);
    // An uncached vector reflects the new training.
    let uncached = store.lookup(0, spec.tables[0].num_vectors - 1).unwrap();
    assert_eq!(uncached.as_ref(), fresh.vector_as_bytes(spec.tables[0].num_vectors - 1).as_slice());
    let _ = generator.generate_request();
}

#[test]
fn batched_serving_reduces_device_reads() {
    // Same store, same requests: the batched path must serve identical
    // bytes while issuing no more device reads than one-at-a-time serving
    // (strictly fewer whenever SHP clusters a query's vectors).
    use bandana::prelude::*;
    let spec = ModelSpec::test_small();
    let mut generator = TraceGenerator::new(&spec, 77);
    let training = generator.generate_requests(300);
    let embeddings = synthesize(&spec, &generator);
    let serving = generator.generate_requests(200);
    let build = || {
        BandanaStore::build(
            &spec,
            &embeddings,
            &training,
            BandanaConfig::default().with_cache_vectors(512),
        )
        .expect("build")
    };

    let mut sequential = build();
    for r in &serving.requests {
        sequential.serve_request(r).expect("serve");
    }
    let seq_reads = sequential.device_counters().reads;

    let mut batched = build();
    for r in &serving.requests {
        batched.serve_request_batched(r).expect("serve");
    }
    let batch_reads = batched.device_counters().reads;

    assert!(
        batch_reads < seq_reads,
        "batching should coalesce block reads: {batch_reads} vs {seq_reads}"
    );
    // Both served every lookup.
    assert_eq!(batched.total_metrics().lookups, sequential.total_metrics().lookups);

    // Spot-check payload correctness through the batched path.
    let mut store = build();
    for q in &serving.requests[0].queries {
        let got = store.lookup_batch(q.table, &q.ids).expect("batch");
        for (b, &v) in got.iter().zip(&q.ids) {
            assert_eq!(b.as_ref(), embeddings[q.table].vector_as_bytes(v).as_slice());
        }
    }
}

/// Pins what `BandanaStore::build` decides for one fixed spec and seed,
/// with DRAM divided by hit-rate curves, thresholds tuned by miniature
/// caches and a block-aware set solved in front of each threshold: a change
/// to the offline recipe that moves any table's capacity, threshold or set
/// size fails here.
#[test]
fn build_decisions_are_pinned() {
    let spec = ModelSpec::paper_scaled(40_000);
    let mut generator = TraceGenerator::new(&spec, 21);
    let train = generator.generate_requests(150);
    let embeddings = synthesize(&spec, &generator);
    let mut config = BandanaConfig::default()
        .with_cache_vectors(300)
        .with_partitioner(PartitionerKind::Shp { iterations: 4 })
        .with_seed(21);
    config.candidate_thresholds = vec![1, 2, 4, 8];
    assert!(config.tune_thresholds && config.allocate_by_hit_rate_curves);
    let store = BandanaStore::build(&spec, &embeddings, &train, config).unwrap();
    let tables = || (0..store.num_tables()).map(|t| store.table(t).unwrap());
    let capacities: Vec<usize> = tables().map(|t| t.cache_capacity()).collect();
    let policies: Vec<AdmissionPolicy> = tables().map(|t| t.policy()).collect();
    let fallbacks: Vec<AdmissionPolicy> = tables().map(|t| t.fallback_policy()).collect();
    let set_sizes: Vec<usize> =
        tables().map(|t| t.admission_set().map_or(0, |s| s.len())).collect();
    assert_eq!(capacities, [48, 152, 4, 4, 16, 36, 40, 1]);
    assert_eq!(policies, [AdmissionPolicy::Set; 8]);
    let t = |t| AdmissionPolicy::Threshold { t };
    assert_eq!(fallbacks, [t(8), t(8), t(8), t(8), t(8), t(4), t(8), t(8)]);
    assert_eq!(set_sizes, [48, 149, 4, 4, 16, 36, 39, 1]);
}

/// Serves `trace` the way the engine reads: requests merged
/// `FIT_BATCH_REQUESTS` to a batch, each table's ids deduplicated and read
/// in one batched lookup.
fn serve_in_batches(store: &mut BandanaStore, trace: &Trace) {
    for chunk in trace.requests.chunks(bandana::core::FIT_BATCH_REQUESTS) {
        for t in 0..store.num_tables() {
            let mut ids: Vec<u32> =
                chunk.iter().filter_map(|r| r.query_for(t)).flat_map(|q| q.ids.clone()).collect();
            ids.sort_unstable();
            ids.dedup();
            store.lookup_batch(t, &ids).unwrap();
        }
    }
}

#[test]
fn a_resident_set_reads_exactly_what_the_solve_predicts() {
    // The store's reads are pinned like its payloads: once a pass over the
    // training trace has made every table's set resident, replaying that
    // trace in the engine's batch shape reads exactly the blocks the solve
    // predicted, table by table, and evicts nothing.
    let (spec, _generator, train, _eval, embeddings) = fixture(12);
    let config = BandanaConfig::default().with_cache_vectors(800).with_seed(12);
    let mut store = BandanaStore::build(&spec, &embeddings, &train, config).unwrap();
    let tables = || (0..spec.num_tables()).map(|t| store.table(t).unwrap());
    let layouts: Vec<BlockLayout> = tables().map(|t| t.layout().clone()).collect();
    let freqs: Vec<AccessFrequency> = tables().map(|t| t.freq().clone()).collect();
    let capacities: Vec<usize> = tables().map(|t| t.cache_capacity()).collect();
    let solved = bandana::core::block_aware_sets(
        &layouts,
        &freqs,
        &train,
        &capacities,
        bandana::core::FIT_BATCH_REQUESTS,
    );
    for (t, s) in solved.iter().enumerate() {
        assert_eq!(store.table(t).unwrap().admission_set(), Some(&s.set), "table {t}");
    }

    serve_in_batches(&mut store, &train);
    store.reset_metrics();
    serve_in_batches(&mut store, &train);
    let measured: Vec<u64> = store.table_metrics().iter().map(|m| m.block_reads).collect();
    let predicted: Vec<u64> = solved.iter().map(|s| s.predicted_reads).collect();
    assert_eq!(measured, predicted);
    assert!(predicted.iter().sum::<u64>() < solved.iter().map(|s| s.touches).sum::<u64>());
    assert_eq!(store.total_metrics().evictions, 0);
}
