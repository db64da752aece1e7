//! # bandana-serve — a sharded, batching serving engine for Bandana
//!
//! Bandana is ultimately a *serving* system: NVM-backed embedding tables
//! answering ranking lookups under production traffic. This crate turns a
//! built [`BandanaStore`](bandana_core::BandanaStore) into a serving
//! engine with the properties such a deployment is judged on:
//!
//! * **Shard-per-worker parallelism** ([`ShardedEngine`]): tables are
//!   spread across worker threads, each owning its tables and a
//!   [`RebasedDevice`](nvm_sim::RebasedDevice) — its own block ranges
//!   carved out of the store device and rebased onto a dense zero-based
//!   address space, with per-shard capacity and endurance accounting —
//!   so the hot path takes no shared lock. A dispatcher splits each
//!   request across shards, coalesces duplicate vector ids within a
//!   query, and merges results back in request order.
//! * **Allocation-free steady state**: each worker owns a
//!   [`BatchScratch`](bandana_core::BatchScratch) and a
//!   [`BlockBufPool`](nvm_sim::BlockBufPool), and the cross-request merge
//!   reuses its per-table maps, so once warmed the lookup path performs
//!   no heap allocation ([`EngineMetrics::pool`] reports the buffer reuse
//!   rate). A response's payloads are copied into one buffer per job per
//!   shard and handed out as views of it: what a client holds shares
//!   nothing with the cache, the pool or the worker.
//! * **Cross-request micro-batching**
//!   ([`ServeConfig::with_batch_window`] /
//!   [`ServeConfig::with_max_batch`]): each shard keeps a short window
//!   open after the first queued request and merges lookups from
//!   *different* requests into one deduplicated `lookup_batch` per table,
//!   so one batched device read can complete many requests. The window
//!   defaults to zero (single-read behaviour).
//! * **Device queue-depth modelling**
//!   ([`ServeConfig::with_device_queue`]): a micro-batch's block reads
//!   are submitted io_uring-style, all up front with a bounded number in
//!   flight, and charged through the calibrated
//!   [`QueueModel`](nvm_sim::QueueModel) at the live outstanding depth.
//!   The simulated NVM time actually elapses — each block is touched only
//!   once the model says it arrived, while the worker's CPU work runs
//!   under the reads still in flight — so tail latency reflects device
//!   queueing, not just host-side queueing, and a batch costs about
//!   max(software, device) rather than their sum.
//!   [`EngineMetrics::breakdown`](EngineMetrics) splits each request into
//!   queue-wait vs device-time vs service components.
//! * **Latency accounting** ([`LatencyHistogram`]): mergeable
//!   log-bucketed histograms record queue wait, device time, per-shard
//!   service time, and end-to-end latency; [`ShardedEngine::metrics`]
//!   reports p50/p95/p99/p999 across shards plus batch-size and
//!   queue-depth distributions ([`BatchingMetrics`]).
//! * **Overload behaviour** ([`ShedPolicy`]): bounded per-shard queues
//!   with block-or-shed admission and an optional deadline, surfacing
//!   drop and timeout counters instead of unbounded queueing.
//! * **Ticket-based, tenant-aware API** ([`Client`] / [`ResponseTicket`]):
//!   each tenant opens a session with [`ShardedEngine::client`], builds
//!   typed requests ([`RequestBuilder`]: per-table key lists, optional
//!   per-request deadline), and `submit` returns a completion ticket —
//!   one thread keeps hundreds of requests in flight and collects typed
//!   [`Response`]s out of order with `try_take`/`wait`/`wait_timeout`.
//! * **Multi-tenant QoS** ([`TenantSpec`] via
//!   [`ServeConfig::with_tenant`]): every shard queue is a set of
//!   per-tenant bounded lanes scheduled by strict priority across
//!   [`PriorityClass`]es and deficit round-robin on tenant weights
//!   within a class, with per-tenant admission quotas, shed counters,
//!   and latency histograms ([`EngineMetrics::per_tenant`]) — under
//!   overload, completions divide by the registered weights and no
//!   backlogged tenant is ever starved.
//! * **Open-loop load generation** ([`run_open_loop`], driven by
//!   [`bandana_trace::ArrivalProcess`]): Poisson and bursty arrival
//!   clocks that keep offering load when the engine falls behind — the
//!   regime where tail latency and shedding actually show up — driven
//!   through the ticket API by a small reactor pool ([`LoadGenConfig`]
//!   sizes it; use 1 on a single-core host), next to classic closed-loop
//!   capacity replay ([`run_closed_loop`] on [`Client::call`]).
//! * **A unified control plane** ([`control`]): every engine runs a
//!   metrics-bus thread that rotates per-tenant *windowed* latency
//!   histograms ([`WindowedHistogram`]) and snapshots the engine
//!   ([`EngineSnapshot`]: lane depths, batching/device stats, per-tenant
//!   recent-window p99 and [`ShedBreakdown`]) each tick; pluggable
//!   [`Controller`]s observe the snapshot and return [`Action`]s —
//!   admission-policy hot-swaps, live lane resizes, batch-window
//!   retunes, admission breakers — which the bus applies through the
//!   shard command channels. The paper's **online re-tuning**
//!   ([`OnlineTunerSettings`], §4.3.3: miniature caches raced on sampled
//!   live traffic) is the first controller; the [`SloController`]
//!   enforces per-tenant p99 budgets ([`TenantSpec::slo_p99`]) by
//!   shedding a tenant at admission ([`ServeError::SloShed`]) while its
//!   *recent-window* p99 is blown — doomed work is refused early, before
//!   it can poison other tenants' lanes, with breaker-style exponential
//!   backoff and congestion-attributed trips (one per window turnover,
//!   to the most-queued blown tenant). Custom controllers register via
//!   [`ShardedEngine::new_with_controllers`].
//! * **Online DRAM re-budgeting** ([`CacheBudgetSettings`] via
//!   [`ServeConfig::with_cache_budget`]): the build-time per-table cache
//!   division is re-solved *online* — shard workers tee sampled cache
//!   probes onto the bus, the internal `CacheBudgetController` folds
//!   them into per-table hit-rate curves (miniature simulated caches)
//!   and re-divides the same fixed total budget, applying
//!   hysteresis-gated [`Action::SetCachePartition`] moves that grow a
//!   shard cache live or shrink it coldest-first without flushing
//!   survivors. Every move is audit-logged with the curve points that
//!   justified it, the live split is exported as
//!   `bandana_table_cache_{capacity,target}_entries` gauges, and the
//!   learned partition survives a warm restart via snapshots.
//! * **Online hot-block re-layout** ([`ReLayoutSettings`] via
//!   [`ServeConfig::with_relayout`]): the paper's SHP placement loop
//!   (§4.1), closed against live traffic. Shard workers tee a sampled
//!   co-access record of each drained request part onto the bus, the
//!   internal `ReLayoutController` accumulates a windowed co-access
//!   hypergraph per table, and when observed blocks-per-request
//!   degrades past a threshold of the window's ideal it runs an
//!   incremental [`bandana_partition::refine`] over the blocks wasting
//!   the most slot reads. A refined order that packs the window into
//!   fewer blocks is applied atomically between micro-batches
//!   ([`Action::ApplyLayout`]) — rewritten blocks are real device
//!   writes charged to the shard's endurance meter, cached entries
//!   survive the remap — and the learned layout survives a warm
//!   restart via snapshots. Windows surface as
//!   `bandana_blocks_per_request_{observed,ideal}` gauges (the latest
//!   window of any table) and their per-table
//!   `bandana_table_blocks_per_request_{observed,ideal}{table="N"}`
//!   twins; every applied re-layout is audit-logged with the figures
//!   that justified it.
//! * **Observability** ([`obs`]): a three-part layer over everything
//!   above. The **flight recorder** samples one request in N
//!   ([`ServeConfig::with_trace`]) and records its lifecycle — admitted,
//!   lane-enqueued, batch-drained, device-submit/complete, then exactly
//!   one terminal (completed / shed / timed-out) — into preallocated
//!   per-shard rings with zero heap allocation on the hot path;
//!   [`ShardedEngine::dump_trace`] exports Chrome trace-event JSON for
//!   Perfetto and [`ShardedEngine::request_traces`] structured
//!   [`RequestTrace`]s for tests. [`render_prometheus`] encodes
//!   [`EngineMetrics`] plus a live [`EngineSnapshot`] as Prometheus text
//!   with stable `bandana_*` names. And every control-plane [`Action`]
//!   lands in a bounded **audit log** ([`EngineMetrics::audit`]), so an
//!   SLO trip is explainable after the fact: which controller, which
//!   tenant, and the snapshot evidence it acted on.
//! * **A network front-end** ([`net`]): a pipelined, length-prefixed
//!   binary TCP protocol ([`NetServer`] / [`NetClient`]) whose
//!   connection handlers map straight onto [`Client`] /
//!   [`ResponseTicket`] — out-of-order completion on the wire via
//!   correlation ids, per-connection in-flight caps that backpressure
//!   into TCP flow control, clean error frames for shed / timed-out /
//!   failed terminals — plus an HTTP/1.1 admin plane ([`AdminServer`]):
//!   `GET /metrics` (the frozen Prometheus schema, verbatim),
//!   `GET /audit`, `GET /trace`, and `POST /tenants` for live
//!   registration. The wire format is specified in `docs/PROTOCOL.md`
//!   (pinned to the code by a test); `docs/OPERATIONS.md` is the
//!   operator runbook.
//!
//! ## Example: tickets and weighted tenants
//!
//! ```
//! use bandana_core::{BandanaConfig, BandanaStore};
//! use bandana_serve::{
//!     PriorityClass, ServeConfig, ShardedEngine, TenantId, TenantSpec,
//! };
//! use bandana_trace::{EmbeddingTable, ModelSpec, TraceGenerator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = ModelSpec::test_small();
//! let mut generator = TraceGenerator::new(&spec, 42);
//! let training = generator.generate_requests(200);
//! let embeddings: Vec<EmbeddingTable> = (0..spec.num_tables())
//!     .map(|t| EmbeddingTable::synthesize(
//!         spec.tables[t].num_vectors, spec.dim, generator.topic_model(t), t as u64))
//!     .collect();
//! let store = BandanaStore::build(
//!     &spec, &embeddings, &training,
//!     BandanaConfig::default().with_cache_vectors(512),
//! )?;
//!
//! // Two tenants: the ranking service gets 9× the overload share of the
//! // batch backfill, which is also capped at 64 in-flight requests.
//! const RANKING: TenantId = TenantId(1);
//! const BACKFILL: TenantId = TenantId(2);
//! let engine = ShardedEngine::new(
//!     store,
//!     ServeConfig::default()
//!         .with_shards(2)
//!         .with_batch_window(std::time::Duration::from_micros(200))
//!         .with_max_batch(8)
//!         .with_device_queue(4)
//!         .with_tenant(RANKING, TenantSpec::new(9))
//!         .with_tenant(BACKFILL, TenantSpec::new(1).with_quota(64)),
//! )?;
//!
//! // One thread, many requests in flight: submit tickets, then collect
//! // the typed responses out of order.
//! let ranking = engine.client(RANKING)?;
//! let eval = generator.generate_requests(100);
//! let mut tickets: Vec<_> = eval
//!     .requests
//!     .iter()
//!     .map(|r| ranking.submit(r))
//!     .collect::<Result<_, _>>()?;
//! for ticket in tickets.iter_mut().rev() {
//!     let response = ticket.wait()?;
//!     assert!(response.status.is_ok());
//! }
//!
//! // A backfill request built by hand, with its own deadline.
//! let backfill = engine.client(BACKFILL)?;
//! let response = backfill
//!     .request()
//!     .keys(0, &[1, 2, 3])
//!     .deadline(std::time::Duration::from_millis(50))
//!     .call()?;
//! assert_eq!(response.parts[0].len(), 3);
//!
//! let m = engine.metrics();
//! assert_eq!(m.completed, 101);
//! let ranking_m = &m.per_tenant[1];
//! assert_eq!((ranking_m.id, ranking_m.completed), (RANKING, 100));
//! # Ok(())
//! # }
//! ```
//!
//! Legacy single-tenant callers keep working: [`ShardedEngine::serve`]
//! and [`ShardedEngine::submit`] delegate to the always-present default
//! tenant ([`TenantId::DEFAULT`], weight 1, normal class) and behave
//! exactly as before the tenant API existed.
//!
//! ## Observability quickstart
//!
//! ```
//! use bandana_core::{BandanaConfig, BandanaStore};
//! use bandana_serve::{
//!     render_audit_log, render_prometheus, ServeConfig, ShardedEngine, TraceConfig,
//! };
//! use bandana_trace::{EmbeddingTable, ModelSpec, TraceGenerator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let spec = ModelSpec::test_small();
//! # let mut generator = TraceGenerator::new(&spec, 42);
//! # let training = generator.generate_requests(200);
//! # let embeddings: Vec<EmbeddingTable> = (0..spec.num_tables())
//! #     .map(|t| EmbeddingTable::synthesize(
//! #         spec.tables[t].num_vectors, spec.dim, generator.topic_model(t), t as u64))
//! #     .collect();
//! # let store = BandanaStore::build(
//! #     &spec, &embeddings, &training,
//! #     BandanaConfig::default().with_cache_vectors(512),
//! # )?;
//! // Flight-record every 4th request into per-shard trace rings.
//! let engine = ShardedEngine::new(
//!     store,
//!     ServeConfig::default().with_shards(2).with_trace(TraceConfig::sampled(4)),
//! )?;
//! let eval = generator.generate_requests(40);
//! for request in &eval.requests {
//!     engine.serve(request)?;
//! }
//!
//! // 1. The flight recorder: Chrome trace-event JSON for Perfetto, and
//! //    structured per-request traces for assertions.
//! assert!(engine.dump_trace().starts_with("{\"traceEvents\":["));
//! let traces = engine.request_traces();
//! assert_eq!(traces.len(), 10, "one in four of 40 requests was sampled");
//! assert!(traces.iter().all(|t| t.terminal_count() == 1));
//!
//! // 2. Prometheus text exposition with stable `bandana_*` names (the
//! //    admin plane's `GET /metrics` serves this string verbatim).
//! let text = render_prometheus(&engine.metrics(), &engine.snapshot());
//! assert!(text.contains("bandana_requests_completed_total 40"));
//!
//! // 3. The control-plane audit log: every applied action, attributed.
//! println!("{}", render_audit_log(&engine.metrics().audit));
//! # Ok(())
//! # }
//! ```
//!
//! For the control plane end to end — a drifting two-tenant flood, the
//! SLO breaker shedding the offender, the tuner hot-swapping thresholds
//! — see `examples/online_tuning.rs` and the `repro serve-drift`
//! experiment, whose controller-on vs controller-off rows are gated by
//! `repro check-bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod control;
pub mod engine;
mod gate;
pub mod hist;
pub mod loadgen;
pub mod net;
pub mod obs;
pub mod queue;
pub mod relayout;
pub mod tenant;
pub mod tuner;

pub use bandana_persist::{CrashPoint, FaultPlan, PersistConfig, PersistError, Persistence};
pub use budget::CacheBudgetSettings;
pub use control::{
    Action, ControlConfig, Controller, EngineSnapshot, ShardSnapshot, SloController,
    SloControllerConfig, TableCachePartition, TenantSnapshot,
};
pub use engine::{
    BatchingMetrics, EngineMetrics, RecoveryMetrics, ServeConfig, ServeError, ShardMetrics,
    ShardedEngine, Tap, TapCounts,
};
pub use gate::GateStats;
pub use hist::{fmt_secs, LatencyBreakdown, LatencyHistogram, LatencySummary, WindowedHistogram};
pub use loadgen::{
    run_closed_loop, run_open_loop, run_open_loop_net, run_open_loop_tenants, run_open_loop_with,
    ClosedLoopReport, LoadGenConfig, NetOpenLoopReport, OpenLoopReport,
};
pub use net::{AdminServer, NetClient, NetResponse, NetServer, NetServerConfig, NetTicket};
pub use nvm_sim::{DepthStats, PoolStats};
pub use obs::{
    chrome_trace, render_audit_log, render_prometheus, render_tenant_table, AuditEvent, AuditLog,
    RequestTrace, TraceConfig, TraceEvent, TraceEventKind, TraceRecorder, TraceRing,
};
pub use queue::{LaneSpec, ShedPolicy, WeightedQueue};
pub use relayout::ReLayoutSettings;
pub use tenant::{
    Client, PriorityClass, RequestBuilder, Response, ResponseStatus, ResponseTicket, ShedBreakdown,
    TenantId, TenantMetrics, TenantSpec,
};
pub use tuner::OnlineTunerSettings;
