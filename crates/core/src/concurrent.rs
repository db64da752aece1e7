//! A thread-safe, lock-sharded wrapper around the Bandana store.
//!
//! Production ranking servers serve many users concurrently; a single
//! `&mut self` store would serialize everything. [`ConcurrentStore`] puts
//! each table behind its own [`parking_lot::Mutex`] and the NVM device
//! behind another, with a fixed lock order (table → device) so lookups on
//! different tables proceed in parallel and only *misses* contend on the
//! device — mirroring how a real deployment contends on NVM bandwidth
//! rather than on DRAM.
//!
//! DRAM hits never touch the device lock thanks to the
//! [`TableStore::lookup_cached`] / miss split, so the hit path scales with
//! the number of tables.
//!
//! # Example
//!
//! ```
//! use bandana_core::{BandanaConfig, BandanaStore};
//! use bandana_trace::{EmbeddingTable, ModelSpec, TraceGenerator};
//!
//! # fn main() -> Result<(), bandana_core::BandanaError> {
//! let spec = ModelSpec::test_small();
//! let mut generator = TraceGenerator::new(&spec, 1);
//! let training = generator.generate_requests(200);
//! let embeddings: Vec<EmbeddingTable> = (0..spec.num_tables())
//!     .map(|t| EmbeddingTable::synthesize(
//!         spec.tables[t].num_vectors, spec.dim, generator.topic_model(t), t as u64))
//!     .collect();
//! let store = BandanaStore::build(&spec, &embeddings, &training, BandanaConfig::default())?
//!     .into_concurrent();
//!
//! let serving = generator.generate_requests(100);
//! let report = store.serve_trace_parallel(&serving, 4)?;
//! assert_eq!(report.lookups, serving.total_lookups() as u64);
//! # Ok(())
//! # }
//! ```

use crate::config::BandanaConfig;
use crate::error::BandanaError;
use crate::scratch::BatchScratch;
use crate::store::BandanaStore;
use crate::table::TableStore;
use bandana_cache::CacheMetrics;
use bandana_trace::{Request, Trace};
use bytes::Bytes;
use nvm_sim::{BlockBufPool, BlockDevice, IoCounters, NvmDevice};
use parking_lot::Mutex;
use std::time::Instant;

/// Throughput observed by [`ConcurrentStore::serve_trace_parallel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputReport {
    /// Vector lookups served.
    pub lookups: u64,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock seconds for the whole trace.
    pub wall_seconds: f64,
}

impl ThroughputReport {
    /// Vector lookups per wall-clock second.
    pub fn lookups_per_second(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.lookups as f64 / self.wall_seconds
        }
    }
}

/// The device-side state of a miss: the device itself plus the buffer
/// pool and batch scratch every miss path reuses. One lock guards all
/// three — misses serialize on NVM bandwidth anyway, so sharing the
/// scratch costs no extra contention and keeps the steady-state miss path
/// allocation-free.
#[derive(Debug)]
struct MissPath {
    device: NvmDevice,
    pool: BlockBufPool,
    scratch: BatchScratch,
}

/// A [`BandanaStore`] sharded behind per-table locks; all methods take
/// `&self` and the store is `Send + Sync`.
#[derive(Debug)]
pub struct ConcurrentStore {
    device: Mutex<MissPath>,
    tables: Vec<Mutex<TableStore>>,
    config: BandanaConfig,
    vector_bytes: usize,
}

impl ConcurrentStore {
    /// Wraps a built store. Also available as
    /// [`BandanaStore::into_concurrent`].
    pub fn from_store(store: BandanaStore) -> Self {
        let (device, tables, config, vector_bytes) = store.into_parts();
        ConcurrentStore {
            device: Mutex::new(MissPath {
                device,
                pool: BlockBufPool::default(),
                scratch: BatchScratch::new(),
            }),
            tables: tables.into_iter().map(Mutex::new).collect(),
            config,
            vector_bytes,
        }
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

    /// Looks up one embedding vector; safe to call from many threads.
    /// Returns an owned copy of the payload (see [`TableStore::lookup`]).
    ///
    /// Lock order is table → device, taken only on a miss.
    ///
    /// # Errors
    ///
    /// Returns [`BandanaError::NoSuchTable`] / [`BandanaError::NoSuchVector`]
    /// for bad indices and propagates device errors.
    pub fn lookup(&self, table: usize, v: u32) -> Result<Bytes, BandanaError> {
        let t = self
            .tables
            .get(table)
            .ok_or(BandanaError::NoSuchTable { table, tables: self.tables.len() })?;
        let mut guard = t.lock();
        if let Some(bytes) = guard.lookup_cached(v)? {
            return Ok(bytes);
        }
        let mut miss = self.device.lock();
        let MissPath { ref mut device, ref mut pool, .. } = *miss;
        guard.lookup_miss(device, v, pool)
    }

    /// Serves every lookup of one request, in order.
    ///
    /// # Errors
    ///
    /// Fails on the first bad table/vector reference.
    pub fn serve_request(&self, request: &Request) -> Result<(), BandanaError> {
        for q in &request.queries {
            for &v in &q.ids {
                self.lookup(q.table, v)?;
            }
        }
        Ok(())
    }

    /// Looks up a whole query in one table with per-block read coalescing
    /// (see [`TableStore::lookup_batch`]). The device lock is held for the
    /// whole miss phase, so a query's blocks are read without interleaving.
    ///
    /// # Errors
    ///
    /// Returns [`BandanaError::NoSuchTable`] / [`BandanaError::NoSuchVector`]
    /// for bad indices and propagates device errors.
    pub fn lookup_batch(&self, table: usize, ids: &[u32]) -> Result<Vec<Bytes>, BandanaError> {
        let t = self
            .tables
            .get(table)
            .ok_or(BandanaError::NoSuchTable { table, tables: self.tables.len() })?;
        let mut guard = t.lock();
        let mut miss = self.device.lock();
        // The scratch and pool riding with the device lock keep the
        // internal miss structures reused across every table's batches;
        // the results leave as one owned copy of the scratch's output.
        let MissPath { ref mut device, ref mut pool, ref mut scratch } = *miss;
        guard.lookup_batch_with(device, ids, scratch, pool)?;
        Ok(scratch.to_bytes())
    }

    /// Serves a whole trace across `threads` worker threads, requests
    /// interleaved round-robin (request *i* goes to worker `i % threads`,
    /// approximating independent user sessions).
    ///
    /// # Errors
    ///
    /// Returns the first error any worker hit; remaining work on other
    /// workers may or may not have been served.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn serve_trace_parallel(
        &self,
        trace: &Trace,
        threads: usize,
    ) -> Result<ThroughputReport, BandanaError> {
        assert!(threads > 0, "need at least one worker thread");
        let start = Instant::now();
        let first_error: Mutex<Option<BandanaError>> = Mutex::new(None);
        crossbeam::thread::scope(|scope| {
            for worker in 0..threads {
                let first_error = &first_error;
                scope.spawn(move |_| {
                    for request in trace.requests.iter().skip(worker).step_by(threads) {
                        if first_error.lock().is_some() {
                            return;
                        }
                        if let Err(e) = self.serve_request(request) {
                            let mut slot = first_error.lock();
                            if slot.is_none() {
                                *slot = Some(e);
                            }
                            return;
                        }
                    }
                });
            }
        })
        .expect("worker thread panicked");
        if let Some(e) = first_error.into_inner() {
            return Err(e);
        }
        let wall_seconds = start.elapsed().as_secs_f64();
        Ok(ThroughputReport { lookups: trace.total_lookups() as u64, threads, wall_seconds })
    }

    /// Applies a new DRAM partition to one table's cache (see
    /// [`TableStore::set_cache_capacity`]). Only that table's lock is
    /// taken — never the device lock — so the table → device lock order is
    /// trivially preserved and in-flight lookups on other tables are
    /// unaffected.
    ///
    /// # Errors
    ///
    /// Returns [`BandanaError::NoSuchTable`] for a bad index.
    pub fn set_cache_capacity(&self, table: usize, entries: usize) -> Result<(), BandanaError> {
        let t = self
            .tables
            .get(table)
            .ok_or(BandanaError::NoSuchTable { table, tables: self.tables.len() })?;
        t.lock().set_cache_capacity(entries);
        Ok(())
    }

    /// Per-table DRAM cache capacities in vectors, in table order.
    pub fn cache_capacities(&self) -> Vec<usize> {
        self.tables.iter().map(|t| t.lock().cache_capacity()).collect()
    }

    /// Per-table metrics — the per-table hit/miss counters an online
    /// curve sampler diffs between control ticks.
    pub fn table_metrics(&self) -> Vec<CacheMetrics> {
        self.tables.iter().map(|t| *t.lock().metrics()).collect()
    }

    /// Aggregate metrics across tables.
    pub fn total_metrics(&self) -> CacheMetrics {
        let mut total = CacheMetrics::new();
        for t in &self.tables {
            total.merge(t.lock().metrics());
        }
        total
    }

    /// Resets all per-table counters and the device I/O counters.
    pub fn reset_metrics(&self) {
        for t in &self.tables {
            t.lock().reset_metrics();
        }
        self.device.lock().device.reset_counters();
    }

    /// Raw device I/O counters.
    pub fn device_counters(&self) -> IoCounters {
        self.device.lock().device.counters()
    }
}

impl From<BandanaStore> for ConcurrentStore {
    fn from(store: BandanaStore) -> Self {
        ConcurrentStore::from_store(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BandanaConfig;
    use bandana_trace::{EmbeddingTable, ModelSpec, TraceGenerator};

    fn build_concurrent(seed: u64) -> (ConcurrentStore, TraceGenerator, ModelSpec) {
        let spec = ModelSpec::test_small();
        let mut generator = TraceGenerator::new(&spec, seed);
        let training = generator.generate_requests(300);
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
        let store = BandanaStore::build(
            &spec,
            &embeddings,
            &training,
            BandanaConfig::default().with_cache_vectors(256),
        )
        .expect("build store")
        .into_concurrent();
        (store, generator, spec)
    }

    #[test]
    fn concurrent_store_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConcurrentStore>();
    }

    #[test]
    fn lookup_through_shared_reference() {
        let (store, _, spec) = build_concurrent(1);
        let payload = store.lookup(0, 3).expect("lookup");
        assert_eq!(payload.len(), spec.vector_bytes());
        // Second lookup is a hit.
        let before = store.device_counters().reads;
        store.lookup(0, 3).expect("lookup");
        assert_eq!(store.device_counters().reads, before);
    }

    #[test]
    fn parallel_serve_counts_all_lookups() {
        let (store, mut generator, _) = build_concurrent(2);
        let serving = generator.generate_requests(200);
        let report = store.serve_trace_parallel(&serving, 4).expect("serve");
        assert_eq!(report.lookups, serving.total_lookups() as u64);
        assert_eq!(store.total_metrics().lookups, serving.total_lookups() as u64);
        assert!(report.lookups_per_second() > 0.0);
    }

    #[test]
    fn parallel_matches_sequential_hit_counts_roughly() {
        // Interleaving changes per-thread cache timing slightly, but the
        // aggregate block-read count must stay in the same ballpark as the
        // sequential run (within 20%).
        let (store, mut generator, _) = build_concurrent(3);
        let serving = generator.generate_requests(400);
        store.serve_trace_parallel(&serving, 4).expect("serve");
        let parallel_reads = store.total_metrics().block_reads;

        let (store_seq, _, _) = build_concurrent(3);
        store_seq.serve_trace_parallel(&serving, 1).expect("serve");
        let sequential_reads = store_seq.total_metrics().block_reads;

        let hi = sequential_reads.max(parallel_reads) as f64;
        let lo = sequential_reads.min(parallel_reads) as f64;
        assert!(
            hi / lo < 1.2,
            "parallel reads {parallel_reads} diverge from sequential {sequential_reads}"
        );
    }

    #[test]
    fn set_cache_capacity_repartitions_live_store() {
        let (store, mut generator, _) = build_concurrent(6);
        let serving = generator.generate_requests(100);
        store.serve_trace_parallel(&serving, 2).expect("serve");
        let before = store.cache_capacities();
        assert!(before.len() >= 2);
        store.set_cache_capacity(0, before[0] / 2).expect("shrink table 0");
        store.set_cache_capacity(1, before[1] * 2).expect("grow table 1");
        let after = store.cache_capacities();
        assert!(after[0] < before[0]);
        assert_eq!(after[1], before[1] * 2);
        assert!(matches!(
            store.set_cache_capacity(99, 16).unwrap_err(),
            BandanaError::NoSuchTable { table: 99, .. }
        ));
        // The store still serves correctly after the repartition.
        let more = generator.generate_requests(50);
        store.serve_trace_parallel(&more, 2).expect("serve after repartition");
    }

    #[test]
    fn bad_indices_reported_from_any_thread() {
        let (store, _, _) = build_concurrent(4);
        assert!(matches!(
            store.lookup(99, 0).unwrap_err(),
            BandanaError::NoSuchTable { table: 99, .. }
        ));
        assert!(matches!(
            store.lookup(0, u32::MAX).unwrap_err(),
            BandanaError::NoSuchVector { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let (store, mut generator, _) = build_concurrent(5);
        let serving = generator.generate_requests(10);
        let _ = store.serve_trace_parallel(&serving, 0);
    }
}
