//! # bandana — NVM storage for deep-learning embedding tables
//!
//! A from-scratch Rust reproduction of **"Bandana: Using Non-volatile
//! Memory for Storing Deep Learning Models"** (Eisenman et al., MLSys
//! 2019), grown into a full serving system: store, engine, control
//! plane, observability, and a wire protocol.
//!
//! ## Architecture
//!
//! The workspace is seven crates, re-exported here as modules:
//!
//! | module | crate | what lives there |
//! |--------|-------|------------------|
//! | [`core`] | `bandana-core` | the [`BandanaStore`](bandana_core::BandanaStore): embedding tables on simulated block NVM, DRAM-cached, locality-aware placement, miniature-cache-tuned prefetch admission |
//! | [`nvm`](nvm_sim) | `nvm-sim` | the calibrated NVM device simulator: block reads, queue-depth model, buffer pools, fault injection |
//! | [`trace`] | `bandana-trace` | synthetic Facebook-like lookup workloads, arrival processes, hot-set drift |
//! | [`partition`] | `bandana-partition` | SHP hypergraph partitioning and K-means placement |
//! | [`cache`] | `bandana-cache` | segmented LRU, shadow cache, admission policies, miniature caches, DRAM division |
//! | [`serve`] | `bandana-serve` | the sharded serving engine: tickets, tenants, QoS queues, control plane, observability, and the TCP front-end ([`serve::net`]) |
//! | — | `bandana-bench` | the `repro` harness regenerating every paper table/figure, plus the CI bench gate (`repro check-bench`) |
//!
//! A request's life, from socket to device and back:
//!
//! ```text
//!       remote process                         in-process caller
//!   NetClient ── frames ──▶ NetServer              Client
//!  (docs/PROTOCOL.md)      reader thread             │
//!                               │  submit            │ submit
//!                               ▼                    ▼
//!                      admission: tenant quota / SLO breaker / lane caps
//!                               │ admitted              │ shed ──▶ error terminal
//!                               ▼                       ▼   (ERROR frame / typed status)
//!              weighted per-tenant shard queues (priority + DRR)
//!                               │ popped by the owning shard worker
//!                               ▼
//!         micro-batch merge ─▶ DRAM cache ─▶ NVM reads (queue-depth model)
//!                               │
//!                               ▼
//!               ResponseTicket completes — out of order, as finished
//!                               │
//!            NetServer writer ── RESPONSE/ERROR frame ──▶ NetClient
//! ```
//!
//! Around that path sit the **control plane** (a windowed metrics bus
//! feeding pluggable controllers: the paper's online tuner, per-tenant
//! SLO shedding), the **observability surface** (Prometheus text
//! exposition, a sampled flight recorder exporting Chrome trace JSON,
//! a controller audit log), and the **admin plane** (an HTTP listener
//! serving all three plus live tenant registration). The wire format is
//! specified in `docs/PROTOCOL.md` and the operator runbook —
//! starting servers, scraping metrics, reading audit logs, dumping
//! traces, re-baselining the bench gate — is `docs/OPERATIONS.md`.
//!
//! ## Quickstart
//!
//! ```
//! use bandana::prelude::*;
//!
//! # fn main() -> Result<(), BandanaError> {
//! // A scaled-down 8-table model shaped like the paper's Table 1.
//! let spec = ModelSpec::paper_scaled(10_000);
//! let mut generator = TraceGenerator::new(&spec, 42);
//! let training = generator.generate_requests(500);
//!
//! // Synthesize embeddings and build the store: SHP placement, tuned
//! // admission thresholds, hit-rate-curve DRAM division.
//! let embeddings: Vec<EmbeddingTable> = (0..spec.num_tables())
//!     .map(|t| EmbeddingTable::synthesize(
//!         spec.tables[t].num_vectors, spec.dim, generator.topic_model(t), t as u64))
//!     .collect();
//! let config = BandanaConfig::default().with_cache_vectors(1_000);
//! let mut store = BandanaStore::build(&spec, &embeddings, &training, config)?;
//!
//! // Serve traffic.
//! let eval = generator.generate_requests(100);
//! store.serve_trace(&eval)?;
//! let m = store.total_metrics();
//! assert!(m.hit_rate() > 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! ## Serving at scale: tenants and tickets
//!
//! A built store becomes a production-style serving engine with one call:
//! tables spread across shard-owned worker threads, requests dispatched,
//! batched, and merged, latency recorded in mergeable log-bucketed
//! histograms, and overload handled by per-tenant weighted queues with
//! explicit shedding. Each tenant opens a
//! [`Client`](bandana_serve::Client) session; submissions return
//! [`ResponseTicket`](bandana_serve::ResponseTicket) futures, so one
//! thread keeps many requests in flight and collects typed
//! [`Response`](bandana_serve::Response)s out of order.
//!
//! ```
//! use bandana::prelude::*;
//! use bandana::serve::{ServeConfig, ShardedEngine};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = ModelSpec::test_small();
//! let mut generator = TraceGenerator::new(&spec, 42);
//! let training = generator.generate_requests(300);
//! let embeddings: Vec<EmbeddingTable> = (0..spec.num_tables())
//!     .map(|t| EmbeddingTable::synthesize(
//!         spec.tables[t].num_vectors, spec.dim, generator.topic_model(t), t as u64))
//!     .collect();
//! let store = BandanaStore::build(
//!     &spec, &embeddings, &training,
//!     BandanaConfig::default().with_cache_vectors(512))?;
//!
//! // Two tenants sharing the shards: under overload the ranking tenant
//! // gets 9× the backfill's completions (deficit round-robin on the
//! // weights), and the backfill is capped at 32 in-flight requests.
//! let engine = ShardedEngine::new(
//!     store,
//!     ServeConfig::default()
//!         .with_shards(2)
//!         .with_tenant(TenantId(1), TenantSpec::new(9))
//!         .with_tenant(TenantId(2), TenantSpec::new(1).with_quota(32)),
//! )?;
//!
//! // One thread, out-of-order collection: submit everything, then take
//! // responses as they finish.
//! let ranking = engine.client(TenantId(1))?;
//! let serving = generator.generate_requests(100);
//! let mut tickets = Vec::new();
//! for request in &serving.requests {
//!     tickets.push(ranking.submit(request)?);
//! }
//! for ticket in tickets.iter_mut().rev() {
//!     assert!(ticket.wait()?.status.is_ok());
//! }
//!
//! // Typed request building with a per-request deadline.
//! let backfill = engine.client(TenantId(2))?;
//! let response = backfill
//!     .request()
//!     .keys(0, &[1, 2, 3])
//!     .deadline(std::time::Duration::from_millis(50))
//!     .call()?;
//! assert_eq!(response.parts[0].len(), 3);
//!
//! // Per-tenant QoS accounting: sheds, quotas, latency histograms.
//! let m = engine.metrics();
//! assert_eq!(m.completed, 101);
//! assert!(m.per_tenant.iter().any(|t| t.id == TenantId(1) && t.completed == 100));
//! # Ok(())
//! # }
//! ```
//!
//! ## Serving over the wire
//!
//! The same engine fronts TCP clients through
//! [`serve::net`]: a pipelined, length-prefixed
//! binary protocol (`docs/PROTOCOL.md`) whose connection handler maps
//! straight onto the `Client`/`ResponseTicket` machinery — correlation
//! ids carry out-of-order completion onto the wire, and per-connection
//! in-flight caps backpressure into admission via TCP flow control
//! instead of buffering. Next to it, an
//! [`AdminServer`](bandana_serve::AdminServer) speaks plain HTTP:
//! `GET /metrics` (the Prometheus text, byte-identical to
//! [`render_prometheus`](bandana_serve::render_prometheus)),
//! `GET /audit`, `GET /trace` (Chrome trace JSON), and `POST /tenants`
//! for live tenant registration.
//!
//! ```no_run
//! use bandana::prelude::*;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let spec = ModelSpec::test_small();
//! # let mut generator = TraceGenerator::new(&spec, 42);
//! # let training = generator.generate_requests(300);
//! # let embeddings: Vec<EmbeddingTable> = (0..spec.num_tables())
//! #     .map(|t| EmbeddingTable::synthesize(
//! #         spec.tables[t].num_vectors, spec.dim, generator.topic_model(t), t as u64))
//! #     .collect();
//! # let store = BandanaStore::build(
//! #     &spec, &embeddings, &training,
//! #     BandanaConfig::default().with_cache_vectors(512))?;
//! // Put the engine on the wire: lookups on one port, operators on another.
//! let engine = Arc::new(ShardedEngine::new(store, ServeConfig::default())?);
//! let server = NetServer::start(Arc::clone(&engine), NetServerConfig::default())?;
//! let admin = AdminServer::start(Arc::clone(&engine), "127.0.0.1:0")?;
//!
//! // Connect as the default tenant with a 64-deep pipeline, submit a
//! // burst without waiting, then reap completions in reverse — the
//! // correlation id, not arrival order, matches replies to requests.
//! let client = NetClient::connect(server.local_addr(), TenantId::DEFAULT, 64)?;
//! let burst = generator.generate_requests(16);
//! let mut tickets: Vec<NetTicket> = burst
//!     .requests
//!     .iter()
//!     .map(|request| client.submit(request))
//!     .collect::<std::io::Result<_>>()?;
//! for ticket in tickets.iter_mut().rev() {
//!     assert!(ticket.wait()?.is_ok());
//! }
//! client.close()?;
//! admin.shutdown();
//! server.shutdown();
//! # Ok(())
//! # }
//! ```
//!
//! Legacy callers keep working — `ShardedEngine::serve`/`submit` delegate
//! to the default tenant ([`TenantId::DEFAULT`](bandana_serve::TenantId))
//! — and closed-loop capacity replay
//! ([`serve::run_closed_loop`]) drives
//! `Client::call`. Open-loop mode offers load on an arrival-process clock
//! ([`ArrivalProcess`](bandana_trace::ArrivalProcess), Poisson or bursty)
//! regardless of engine progress, driving the ticket API from a small
//! reactor pool ([`LoadGenConfig`](bandana_serve::LoadGenConfig) sizes
//! it) — see [`serve::run_open_loop`] and
//! [`serve::run_open_loop_with`],
//! `examples/latency_bench.rs`, `examples/multi_tenant.rs`, and the
//! `repro serve` experiment which writes `BENCH_serve.json` (including a
//! two-tenant overload scenario with per-tenant p99 and shed columns).
//!
//! Feedback lives in one place: the
//! [`serve::control`] plane. Every engine runs a
//! metrics bus that rotates per-tenant *recent-window* latency
//! histograms and snapshots queue depths, batching, and shed-reason
//! breakdowns each tick; registered
//! [`Controller`](bandana_serve::Controller)s turn those
//! [`EngineSnapshot`](bandana_serve::EngineSnapshot)s into actions —
//! the paper's online tuner hot-swapping admission thresholds, and the
//! [`SloController`](bandana_serve::SloController) shedding a tenant at
//! admission while its windowed p99 blows its
//! [`TenantSpec::slo_p99`](bandana_serve::TenantSpec::slo_p99) budget.
//! `examples/online_tuning.rs` shows the loop end to end under drifting
//! overload, and `repro serve-drift` gates it (controller-on vs
//! controller-off) in CI.
//!
//! Everything above is observable from the outside via
//! [`serve::obs`]: a sampled **flight recorder**
//! ([`TraceConfig`](bandana_serve::TraceConfig), off by default) records
//! per-request lifecycle events in preallocated per-shard rings —
//! allocation-free on the hot path — and
//! [`ShardedEngine::dump_trace`](bandana_serve::ShardedEngine::dump_trace)
//! exports them as a Perfetto-loadable Chrome trace;
//! [`render_prometheus`](bandana_serve::render_prometheus) renders the
//! full metrics surface as Prometheus text exposition; and every action
//! a controller applies lands in a bounded **audit log**
//! ([`AuditEvent`](bandana_serve::AuditEvent), surfaced through
//! `EngineMetrics::audit` and rendered by
//! [`render_audit_log`](bandana_serve::render_audit_log)). The serve
//! crate's rustdoc has a runnable observability quickstart, and the
//! `repro serve` sweep carries a trace-overhead arm gated in CI.
//!
//! Restarts are crash-safe via [`persist`]: a CRC-framed write-ahead
//! log journals the table catalog and every tenant registration
//! (including live `POST /tenants` ones), periodic versioned snapshots
//! capture each shard's warm cache keys, tuned admission policies, and
//! endurance counters, and
//! [`ShardedEngine::recover`](bandana_serve::ShardedEngine::recover)
//! replays the WAL over the latest valid snapshot and rehydrates every
//! shard *before* admission opens — so a restarted server comes back
//! warm instead of eating a cold-cache latency cliff. The whole path is
//! proven under crash-point fault injection
//! ([`persist::FaultPlan`]), and the
//! `repro serve-restart` bench arm gates warm-vs-cold first-window p99
//! in CI.
//!
//! See `examples/` for end-to-end scenarios and `crates/bench` for the
//! harness that regenerates every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bandana_cache as cache;
pub use bandana_core as core;
pub use bandana_partition as partition;
pub use bandana_persist as persist;
pub use bandana_serve as serve;
pub use bandana_trace as trace;
pub use nvm_sim as nvm;

/// The common imports for working with Bandana.
pub mod prelude {
    pub use bandana_cache::{AdmissionPolicy, AllocationPolicy, CacheMetrics, PolicyKind};
    pub use bandana_core::{
        BandanaConfig, BandanaError, BandanaStore, BatchScratch, PartitionerKind, TableStore,
    };
    pub use bandana_partition::{AccessFrequency, BlockLayout};
    pub use bandana_persist::{PersistConfig, Persistence};
    pub use bandana_serve::{
        AdminServer, Client, LatencyHistogram, LatencySummary, NetClient, NetResponse, NetServer,
        NetServerConfig, NetTicket, PriorityClass, RequestBuilder, Response, ResponseStatus,
        ResponseTicket, ServeConfig, ShardedEngine, ShedPolicy, TenantId, TenantSpec, TraceConfig,
        WindowedHistogram,
    };
    pub use bandana_trace::{
        AetModel, ArrivalProcess, CounterStacks, DriftConfig, DriftingTraceGenerator,
        EmbeddingTable, ModelSpec, Request, Shards, TableQuery, Trace, TraceGenerator,
    };
    pub use nvm_sim::{
        BlockBufPool, BlockDevice, FaultInjector, FaultPlan, FileNvmDevice, NvmConfig, NvmDevice,
        PoolStats, RebasedDevice, SparseDevice,
    };
}
