//! The multi-table Bandana store.

use crate::config::{BandanaConfig, PartitionerKind};
use crate::error::BandanaError;
use crate::table::TableStore;
use crate::tuner;
use bandana_cache::CacheMetrics;
use bandana_partition::{
    kmeans, order_from_assignments, social_hash_partition, two_stage_kmeans, AccessFrequency,
    BlockLayout, KMeansConfig, ShpConfig, TwoStageConfig,
};
use bandana_trace::{EmbeddingTable, ModelSpec, Request, Trace};
use bytes::Bytes;
use nvm_sim::{BlockDevice, EnduranceMeter, IoCounters, NvmConfig, NvmDevice};

/// The Bandana store: embedding tables on simulated NVM, DRAM-cached, with
/// locality-aware placement and tuned prefetch admission.
///
/// Build one with [`BandanaStore::build`], then serve lookups with
/// [`BandanaStore::lookup`] or whole requests with
/// [`BandanaStore::serve_request`].
///
/// # Example
///
/// ```
/// use bandana_core::{BandanaConfig, BandanaStore, PartitionerKind};
/// use bandana_trace::{EmbeddingTable, ModelSpec, TraceGenerator};
///
/// # fn main() -> Result<(), bandana_core::BandanaError> {
/// let spec = ModelSpec::test_small();
/// let mut generator = TraceGenerator::new(&spec, 1);
/// let training = generator.generate_requests(200);
/// let embeddings: Vec<EmbeddingTable> = (0..spec.num_tables())
///     .map(|t| EmbeddingTable::synthesize(
///         spec.tables[t].num_vectors, spec.dim, generator.topic_model(t), t as u64))
///     .collect();
/// let config = BandanaConfig::default().with_cache_vectors(256);
/// let mut store = BandanaStore::build(&spec, &embeddings, &training, config)?;
///
/// let payload = store.lookup(0, 42)?;
/// assert_eq!(payload.len(), spec.vector_bytes());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BandanaStore {
    device: NvmDevice,
    tables: Vec<TableStore>,
    config: BandanaConfig,
    vector_bytes: usize,
}

impl BandanaStore {
    /// Builds the store: partitions every table, sizes the per-table DRAM
    /// caches, tunes admission, and writes all embeddings to the simulated
    /// NVM device.
    ///
    /// `training` drives the supervised parts: SHP placement, access
    /// frequencies, the DRAM division and admission. With `tune_thresholds`
    /// on, one solve over every table's blocks picks the vectors that avoid
    /// the most block reads and sizes each table's cache around its share
    /// ([`tuner::shared_split`]); each table serves that block-aware
    /// admission set until a live change retires it to the threshold its
    /// miniature caches pick at that size ([`TableStore::install_set`]).
    /// With an explicit policy, DRAM is divided by hit-rate curves or
    /// lookup share ([`BandanaConfig::allocate_by_hit_rate_curves`]),
    /// capped at each table's vector count.
    ///
    /// # Errors
    ///
    /// Returns [`BandanaError::Config`] for inconsistent inputs and
    /// propagates device errors.
    pub fn build(
        spec: &ModelSpec,
        embeddings: &[EmbeddingTable],
        training: &Trace,
        config: BandanaConfig,
    ) -> Result<Self, BandanaError> {
        config.validate().map_err(BandanaError::Config)?;
        spec.validate().map_err(BandanaError::Config)?;
        if embeddings.len() != spec.num_tables() {
            return Err(BandanaError::Config(format!(
                "{} embedding tables for {} spec tables",
                embeddings.len(),
                spec.num_tables()
            )));
        }
        if training.num_tables != spec.num_tables() {
            return Err(BandanaError::Config(format!(
                "training trace over {} tables for {} spec tables",
                training.num_tables,
                spec.num_tables()
            )));
        }
        let vector_bytes = spec.vector_bytes();
        let vectors_per_block = config.vectors_per_block(vector_bytes);

        // 1. Placement and training-time access frequencies.
        let (layouts, freqs) = build_layouts_and_freqs(
            spec,
            training,
            config.partitioner,
            vectors_per_block,
            embeddings,
            config.seed,
        );

        // 2. DRAM division and per-table admission: with tuning on, one
        // solve sizes every table's cache around its block-aware set and a
        // tuned threshold is the set's fallback.
        let sizes: Vec<usize> = spec.tables.iter().map(|t| t.num_vectors as usize).collect();
        let (capacities, policies, mut sets) = if config.tune_thresholds {
            let split = tuner::shared_split(
                &layouts,
                &freqs,
                training,
                config.cache_vectors_total,
                tuner::FIT_BATCH_REQUESTS,
            );
            let policies = tuner::tune_tables(
                &layouts,
                &freqs,
                training,
                &split.capacities,
                config.mini_sampling_rate,
                &config.candidate_thresholds,
                |t| config.seed.wrapping_add(t as u64),
            );
            let predicted: Vec<f64> =
                (0..spec.num_tables()).map(|t| split.predicted_reads_per_request(t)).collect();
            let sets = split.sets.into_iter().zip(predicted).map(|(s, p)| Some((s.set, p)));
            (split.capacities, policies, sets.collect())
        } else {
            let capacities = divide_cache(training, &config, &sizes);
            (capacities, vec![config.admission; spec.num_tables()], vec![None; spec.num_tables()])
        };

        // 3. Device sizing and table construction.
        let total_blocks: u64 = layouts.iter().map(|l| l.num_blocks() as u64).sum();
        let mut device = NvmDevice::new(
            NvmConfig::optane_375gb()
                .with_block_size(config.block_size)
                .with_capacity_blocks(total_blocks.max(1)),
        );
        let mut tables = Vec::with_capacity(spec.num_tables());
        let mut base_block = 0u64;
        for (t, layout) in layouts.into_iter().enumerate() {
            let blocks = layout.num_blocks() as u64;
            let mut table = TableStore::new(
                t,
                layout,
                freqs[t].clone(),
                policies[t],
                capacities[t],
                config.shadow_multiplier,
                base_block,
                vector_bytes,
            );
            if let Some((set, predicted)) = sets[t].take() {
                table.install_set(set, predicted);
            }
            table.write_embeddings(&mut device, &embeddings[t])?;
            tables.push(table);
            base_block += blocks;
        }
        device.reset_counters();

        Ok(BandanaStore { device, tables, config, vector_bytes })
    }

    /// Number of tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Bytes per embedding vector.
    pub fn vector_bytes(&self) -> usize {
        self.vector_bytes
    }

    /// The configuration the store was built with.
    pub fn config(&self) -> &BandanaConfig {
        &self.config
    }

    /// Access to one table (layout, policy, metrics).
    ///
    /// # Errors
    ///
    /// Returns [`BandanaError::NoSuchTable`] for out-of-range indices.
    pub fn table(&self, table: usize) -> Result<&TableStore, BandanaError> {
        self.tables.get(table).ok_or(BandanaError::NoSuchTable { table, tables: self.tables.len() })
    }

    /// Looks up one embedding vector, reading through to NVM on a miss.
    ///
    /// # Errors
    ///
    /// Returns [`BandanaError::NoSuchTable`] / [`BandanaError::NoSuchVector`]
    /// for bad indices and propagates device errors.
    pub fn lookup(&mut self, table: usize, v: u32) -> Result<Bytes, BandanaError> {
        let tables = self.tables.len();
        let t = self.tables.get_mut(table).ok_or(BandanaError::NoSuchTable { table, tables })?;
        t.lookup(&mut self.device, v)
    }

    /// Serves every lookup of one request, in order.
    ///
    /// # Errors
    ///
    /// Fails on the first bad table/vector reference.
    pub fn serve_request(&mut self, request: &Request) -> Result<(), BandanaError> {
        for q in &request.queries {
            for &v in &q.ids {
                self.lookup(q.table, v)?;
            }
        }
        Ok(())
    }

    /// Looks up a whole query in one table, coalescing NVM reads per block
    /// (see [`TableStore::lookup_batch`]). Payloads come back in `ids`
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`BandanaError::NoSuchTable`] / [`BandanaError::NoSuchVector`]
    /// for bad indices (checked before any I/O) and propagates device
    /// errors.
    pub fn lookup_batch(&mut self, table: usize, ids: &[u32]) -> Result<Vec<Bytes>, BandanaError> {
        let tables = self.tables.len();
        let t = self.tables.get_mut(table).ok_or(BandanaError::NoSuchTable { table, tables })?;
        t.lookup_batch(&mut self.device, ids)
    }

    /// Serves one request with per-table batching: each table query's
    /// misses are coalesced into one read per distinct block. Same cache
    /// effects as [`BandanaStore::serve_request`], fewer device reads when
    /// placement clusters a query's vectors.
    ///
    /// # Errors
    ///
    /// Fails on the first bad table/vector reference.
    pub fn serve_request_batched(&mut self, request: &Request) -> Result<(), BandanaError> {
        for q in &request.queries {
            self.lookup_batch(q.table, &q.ids)?;
        }
        Ok(())
    }

    /// Serves a whole trace.
    ///
    /// # Errors
    ///
    /// Fails on the first bad table/vector reference.
    pub fn serve_trace(&mut self, trace: &Trace) -> Result<(), BandanaError> {
        for r in &trace.requests {
            self.serve_request(r)?;
        }
        Ok(())
    }

    /// Retrains one table: overwrites its embeddings on NVM (the cache keeps
    /// serving stale values until they churn out, as in production §2.1).
    ///
    /// # Errors
    ///
    /// Returns [`BandanaError::NoSuchTable`] or device errors.
    pub fn retrain(
        &mut self,
        table: usize,
        embeddings: &EmbeddingTable,
    ) -> Result<(), BandanaError> {
        let tables = self.tables.len();
        let t = self.tables.get_mut(table).ok_or(BandanaError::NoSuchTable { table, tables })?;
        t.write_embeddings(&mut self.device, embeddings)
    }

    /// Per-table metrics.
    pub fn table_metrics(&self) -> Vec<CacheMetrics> {
        self.tables.iter().map(|t| *t.metrics()).collect()
    }

    /// Aggregate metrics across tables.
    pub fn total_metrics(&self) -> CacheMetrics {
        let mut total = CacheMetrics::new();
        for t in &self.tables {
            total.merge(t.metrics());
        }
        total
    }

    /// Resets all per-table counters and the device I/O counters.
    pub fn reset_metrics(&mut self) {
        for t in &mut self.tables {
            t.reset_metrics();
        }
        self.device.reset_counters();
    }

    /// Raw device I/O counters.
    pub fn device_counters(&self) -> IoCounters {
        self.device.counters()
    }

    /// Device endurance accounting (drive writes; §2.2).
    pub fn endurance(&self) -> &EnduranceMeter {
        self.device.endurance()
    }

    /// Decomposes the store into its raw parts so external serving layers
    /// (e.g. `bandana-serve`) can distribute tables across shard-owned
    /// workers. The tables keep their block offsets into `device`.
    pub fn into_raw_parts(self) -> StoreParts {
        StoreParts {
            device: self.device,
            tables: self.tables,
            config: self.config,
            vector_bytes: self.vector_bytes,
        }
    }
}

/// The raw parts of a [`BandanaStore`], as returned by
/// [`BandanaStore::into_raw_parts`].
///
/// `tables[t].table_id() == t` and each table's blocks live at its
/// `base_block` offset inside `device`.
#[derive(Debug)]
pub struct StoreParts {
    /// The simulated NVM device holding every table's blocks.
    pub device: NvmDevice,
    /// Per-table stores, indexed by table id.
    pub tables: Vec<TableStore>,
    /// The configuration the store was built with.
    pub config: BandanaConfig,
    /// Bytes per embedding vector.
    pub vector_bytes: usize,
}

/// Builds every table's layout and training-time access frequencies.
///
/// `embeddings` is only consulted by the semantic (K-means) partitioners and
/// may be empty otherwise.
///
/// # Panics
///
/// Panics if a semantic partitioner is requested without embeddings.
pub fn build_layouts_and_freqs(
    spec: &ModelSpec,
    training: &Trace,
    partitioner: PartitionerKind,
    vectors_per_block: usize,
    embeddings: &[EmbeddingTable],
    seed: u64,
) -> (Vec<BlockLayout>, Vec<AccessFrequency>) {
    let semantic = matches!(
        partitioner,
        PartitionerKind::KMeans { .. } | PartitionerKind::TwoStageKMeans { .. }
    );
    if semantic {
        assert_eq!(
            embeddings.len(),
            spec.num_tables(),
            "semantic partitioning needs one embedding table per spec table"
        );
    }
    let layouts = spec
        .tables
        .iter()
        .enumerate()
        .map(|(t, tspec)| {
            let emb = if semantic { Some(&embeddings[t]) } else { None };
            build_layout(
                partitioner,
                tspec.num_vectors,
                vectors_per_block,
                training,
                t,
                emb,
                spec.dim,
                seed,
            )
        })
        .collect();
    let freqs = spec
        .tables
        .iter()
        .enumerate()
        .map(|(t, tspec)| {
            AccessFrequency::from_queries(tspec.num_vectors, training.table_queries(t))
        })
        .collect();
    (layouts, freqs)
}

/// Builds one table's physical layout with the chosen partitioner.
#[allow(clippy::too_many_arguments)]
fn build_layout(
    partitioner: PartitionerKind,
    num_vectors: u32,
    vectors_per_block: usize,
    training: &Trace,
    table: usize,
    embeddings: Option<&EmbeddingTable>,
    dim: usize,
    seed: u64,
) -> BlockLayout {
    match partitioner {
        PartitionerKind::Identity => BlockLayout::identity(num_vectors, vectors_per_block),
        PartitionerKind::Random => {
            BlockLayout::random(num_vectors, vectors_per_block, seed.wrapping_add(table as u64))
        }
        PartitionerKind::Shp { iterations } => {
            let cfg = ShpConfig {
                block_capacity: vectors_per_block,
                iterations,
                seed: seed.wrapping_add(table as u64),
                parallel_depth: 3,
            };
            let order = social_hash_partition(num_vectors, training.table_queries(table), &cfg);
            BlockLayout::from_order(order, vectors_per_block)
        }
        PartitionerKind::KMeans { k, iterations } => {
            let emb = embeddings.expect("K-means partitioning needs embeddings");
            let result = kmeans(
                emb.data(),
                dim,
                &KMeansConfig { k, iterations, seed: seed.wrapping_add(table as u64) },
            );
            BlockLayout::from_order(order_from_assignments(&result.assignments), vectors_per_block)
        }
        PartitionerKind::TwoStageKMeans { first_stage_k, total_subclusters, iterations } => {
            let emb = embeddings.expect("two-stage K-means partitioning needs embeddings");
            let order = two_stage_kmeans(
                emb.data(),
                dim,
                &TwoStageConfig {
                    first_stage_k,
                    total_subclusters,
                    iterations,
                    seed: seed.wrapping_add(table as u64),
                },
            );
            BlockLayout::from_order(order, vectors_per_block)
        }
    }
}

/// Divides the DRAM budget across the tables of a store built with an
/// explicit policy: by hit-rate curves (Dynacache style, §4.3.3) or
/// proportionally to lookup share, never above a table's vector count in
/// `sizes` ([`tuner::cap_at_sizes`]).
fn divide_cache(training: &Trace, config: &BandanaConfig, sizes: &[usize]) -> Vec<usize> {
    let total = config.cache_vectors_total;
    let weights = tuner::lookup_weights(training);
    let mut capacities = if config.allocate_by_hit_rate_curves {
        let curves = tuner::hit_rate_curves(training, &tuner::curve_sizes(total));
        tuner::divide_dram(total, &curves, &weights)
    } else {
        weights.iter().map(|w| ((total as f64 * w) as usize).max(1)).collect()
    };
    tuner::cap_at_sizes(&mut capacities, sizes, &weights);
    capacities
}

#[cfg(test)]
mod tests {
    use super::*;
    use bandana_cache::AdmissionPolicy;
    use bandana_trace::TraceGenerator;

    fn build_store(
        partitioner: PartitionerKind,
        cache: usize,
    ) -> (BandanaStore, Trace, Vec<EmbeddingTable>) {
        let spec = ModelSpec::test_small();
        let mut generator = TraceGenerator::new(&spec, 11);
        let training = generator.generate_requests(200);
        let eval = generator.generate_requests(100);
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
        let config = BandanaConfig::default()
            .with_cache_vectors(cache)
            .with_partitioner(partitioner)
            .with_seed(5);
        let store = BandanaStore::build(&spec, &embeddings, &training, config).unwrap();
        (store, eval, embeddings)
    }

    #[test]
    fn lookups_return_exact_embedding_bytes() {
        let (mut store, _, embeddings) = build_store(PartitionerKind::Identity, 128);
        for (t, emb) in embeddings.iter().enumerate() {
            for v in [0u32, 7, emb.num_vectors() - 1] {
                let got = store.lookup(t, v).unwrap();
                assert_eq!(got.as_ref(), emb.vector_as_bytes(v).as_slice());
            }
        }
    }

    #[test]
    fn serve_trace_counts_every_lookup() {
        let (mut store, eval, _) = build_store(PartitionerKind::Shp { iterations: 4 }, 256);
        store.serve_trace(&eval).unwrap();
        let total = store.total_metrics();
        assert_eq!(total.lookups as usize, eval.total_lookups());
        assert_eq!(total.hits + total.misses, total.lookups);
        // Device reads match recorded block reads.
        assert_eq!(store.device_counters().reads, total.block_reads);
    }

    #[test]
    fn bad_indices_are_rejected() {
        let (mut store, _, _) = build_store(PartitionerKind::Identity, 64);
        assert!(matches!(store.lookup(9, 0), Err(BandanaError::NoSuchTable { .. })));
        assert!(matches!(store.lookup(0, u32::MAX), Err(BandanaError::NoSuchVector { .. })));
        assert!(store.table(9).is_err());
    }

    #[test]
    fn kmeans_partitioner_builds_valid_store() {
        let (mut store, eval, _) =
            build_store(PartitionerKind::KMeans { k: 8, iterations: 5 }, 128);
        store.serve_trace(&eval).unwrap();
        assert!(store.total_metrics().lookups > 0);
    }

    #[test]
    fn two_stage_partitioner_builds_valid_store() {
        let (mut store, eval, _) = build_store(
            PartitionerKind::TwoStageKMeans {
                first_stage_k: 4,
                total_subclusters: 16,
                iterations: 5,
            },
            128,
        );
        store.serve_trace(&eval).unwrap();
        assert!(store.total_metrics().lookups > 0);
    }

    #[test]
    fn tuned_tables_serve_a_set_in_front_of_a_threshold() {
        let (store, _, _) = build_store(PartitionerKind::Shp { iterations: 4 }, 256);
        for t in 0..store.num_tables() {
            let table = store.table(t).unwrap();
            assert_eq!(table.policy(), AdmissionPolicy::Set, "table {t}");
            let fallback = table.fallback_policy();
            assert!(
                matches!(fallback, AdmissionPolicy::Threshold { .. }),
                "table {t} has untuned fallback {fallback:?}"
            );
            let set = table.admission_set().expect("a set serves");
            assert!(set.len() <= table.cache_capacity());
            assert!(table.predicted_reads_per_request().is_some_and(|r| r >= 0.0));
        }
        let total: usize =
            (0..store.num_tables()).map(|t| store.table(t).unwrap().cache_capacity()).sum();
        assert!(total <= 256, "the tables share the budget: {total}");
    }

    #[test]
    fn explicit_policy_is_used_verbatim() {
        let spec = ModelSpec::test_small();
        let mut generator = TraceGenerator::new(&spec, 11);
        let training = generator.generate_requests(50);
        let embeddings: Vec<EmbeddingTable> = (0..spec.num_tables())
            .map(|t| {
                let topics = generator.topic_model(t);
                EmbeddingTable::synthesize(spec.tables[t].num_vectors, spec.dim, topics, t as u64)
            })
            .collect();
        let policy = AdmissionPolicy::All { position: 0.5 };
        let config = BandanaConfig::default().with_cache_vectors(64).with_admission(policy);
        let store = BandanaStore::build(&spec, &embeddings, &training, config).unwrap();
        assert!((0..store.num_tables()).all(|t| store.table(t).unwrap().policy() == policy));
    }

    #[test]
    fn retrain_tracks_endurance() {
        let (mut store, _, embeddings) = build_store(PartitionerKind::Identity, 64);
        let before = store.endurance().bytes_written();
        store.retrain(0, &embeddings[0]).unwrap();
        assert!(store.endurance().bytes_written() > before);
        assert!(store.retrain(99, &embeddings[0]).is_err());
    }

    #[test]
    fn reset_metrics_clears_counters() {
        let (mut store, eval, _) = build_store(PartitionerKind::Identity, 64);
        store.serve_trace(&eval).unwrap();
        store.reset_metrics();
        assert_eq!(store.total_metrics().lookups, 0);
        assert_eq!(store.device_counters().reads, 0);
    }

    #[test]
    fn cache_division_respects_budget() {
        let spec = ModelSpec::test_small();
        let training = TraceGenerator::new(&spec, 3).generate_requests(150);
        let config = BandanaConfig::default().with_cache_vectors(300);
        let caps = divide_cache(&training, &config, &[2048, 4096]);
        assert_eq!(caps.len(), 2);
        let sum: usize = caps.iter().sum();
        assert!(sum <= 300 + caps.len(), "allocated {sum} of 300");
        assert!(caps.iter().all(|&c| c >= 1));
    }

    #[test]
    fn share_proportional_division() {
        let spec = ModelSpec::test_small();
        let training = TraceGenerator::new(&spec, 3).generate_requests(150);
        let mut config = BandanaConfig::default().with_cache_vectors(300);
        config.allocate_by_hit_rate_curves = false;
        let caps = divide_cache(&training, &config, &[2048, 4096]);
        let sum: usize = caps.iter().sum();
        assert!(sum <= 301, "allocated {sum}");
    }

    #[test]
    fn the_curve_division_gives_no_table_more_slots_than_vectors() {
        let spec = ModelSpec::test_small();
        let training = TraceGenerator::new(&spec, 3).generate_requests(150);
        let mut config = BandanaConfig::default().with_cache_vectors(3_000);
        // Table 0's share is well above its 100 vectors; the surplus goes
        // to table 1.
        let caps = divide_cache(&training, &config, &[100, 4096]);
        assert_eq!(caps[0], 100);
        assert!(caps[1] >= 2_800, "{caps:?}");
        assert!(caps.iter().sum::<usize>() <= 3_000);
        // A budget above every vector leaves each table at its size.
        config.cache_vectors_total = 10_000;
        assert_eq!(divide_cache(&training, &config, &[2048, 4096]), [2048, 4096]);
    }

    #[test]
    fn a_budget_of_twice_the_vectors_reads_nothing_once_warm() {
        let spec = ModelSpec::test_small();
        let vectors = 2048 + 4096;
        let (mut store, eval, _) = build_store(PartitionerKind::Identity, 2 * vectors);
        for t in 0..store.num_tables() {
            let table = store.table(t).unwrap();
            assert_eq!(table.cache_capacity(), spec.tables[t].num_vectors as usize);
            assert_eq!(table.admission_set().map(|s| s.len()), Some(table.cache_capacity()));
            assert_eq!(table.predicted_reads_per_request(), Some(0.0));
        }
        for r in &eval.requests {
            store.serve_request_batched(r).unwrap();
        }
        store.reset_metrics();
        for r in &eval.requests {
            store.serve_request_batched(r).unwrap();
        }
        assert_eq!(store.device_counters().reads, 0);
        assert_eq!(store.total_metrics().lookups as usize, eval.total_lookups());
    }

    #[test]
    fn a_budget_below_the_table_count_gives_each_table_one_slot() {
        let (mut store, eval, _) = build_store(PartitionerKind::Identity, 1);
        for t in 0..store.num_tables() {
            let table = store.table(t).unwrap();
            assert_eq!(table.cache_capacity(), 1, "table {t}");
            assert!(table.admission_set().is_some_and(|s| s.len() <= 1), "table {t}");
        }
        for r in &eval.requests {
            store.serve_request_batched(r).unwrap();
        }
        assert_eq!(store.total_metrics().lookups as usize, eval.total_lookups());
    }

    #[test]
    fn mismatched_embeddings_rejected() {
        let spec = ModelSpec::test_small();
        let training = TraceGenerator::new(&spec, 3).generate_requests(10);
        let err = BandanaStore::build(&spec, &[], &training, BandanaConfig::default());
        assert!(matches!(err, Err(BandanaError::Config(_))));
    }

    #[test]
    fn training_trace_over_other_tables_rejected() {
        let (_, eval, embeddings) = build_store(PartitionerKind::Identity, 64);
        let spec = ModelSpec::test_small();
        let training = Trace::new(spec.num_tables() + 1, eval.requests);
        let err = BandanaStore::build(&spec, &embeddings, &training, BandanaConfig::default());
        assert!(matches!(err, Err(BandanaError::Config(_))));
    }
}
