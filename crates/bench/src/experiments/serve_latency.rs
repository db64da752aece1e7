//! Serving-engine latency under offered load, batch window × load.
//!
//! The paper's Figure 5 plots device latency against offered throughput;
//! this experiment applies the same open-loop methodology to the whole
//! serving stack: build the paper workload's store, wrap it in the
//! sharded engine ([`bandana_serve::ShardedEngine`]) with block reads
//! charged through the calibrated NVM queue model, measure closed-loop
//! capacity, then sweep Poisson offered load from a fraction of that
//! capacity past saturation. The sweep runs twice: once with the
//! single-read pipeline (`max_batch` 1, device depth 1 — the paper's
//! unbatched baseline) and once with cross-request micro-batching
//! (200 µs window, depth 4), recording batch-size and queue-depth
//! distributions plus the queue-wait vs device-time latency breakdown at
//! every operating point. Expected shape: flat latency at low load, a
//! tail blow-up approaching capacity, non-zero shedding past it, and
//! mean batch size > 1 for the batched pipeline at moderate load.
//!
//! A final **two-tenant QoS scenario** re-runs the batched pipeline at
//! 15× closed-loop capacity with a weight-9 and a weight-1 tenant
//! splitting the same Poisson arrivals ([`run_open_loop_tenants`]): one
//! extra row per tenant records per-tenant p99 and shed counts, and
//! `repro check-bench` asserts structurally that the weighted tenant's
//! completions dominate per its weight.
//!
//! A **network arm** re-runs the batched pipeline at moderate load over
//! the TCP front-end ([`bandana_serve::NetServer`] driven by the socket
//! loadgen, [`run_open_loop_net`]), recording *client-side*
//! submit-to-receipt latency. `repro check-bench` gates its p99 against
//! the in-process row at the same load from the same run — the
//! protocol-overhead budget.

use crate::output::{JsonObject, TextTable};
use crate::scale::Scale;
use bandana_core::BandanaStore;
use bandana_serve::{
    run_closed_loop, run_open_loop, run_open_loop_net, run_open_loop_tenants, LoadGenConfig,
    NetServer, NetServerConfig, ServeConfig, ShardedEngine, ShedPolicy, TenantId, TenantSpec,
    TraceConfig,
};
use bandana_trace::{ArrivalProcess, EmbeddingTable};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Shards used by the experiment engine.
const SHARDS: usize = 4;
/// Per-shard queue bound: small enough that saturation sheds visibly.
const QUEUE_CAPACITY: usize = 64;
/// Offered load as a percentage of measured closed-loop capacity.
const LOAD_PCTS: [u32; 5] = [25, 50, 75, 90, 150];
/// The micro-batching window of the batched pipeline, in microseconds.
const BATCH_WINDOW_US: u64 = 200;
/// Most requests merged per micro-batch in the batched pipeline.
const MAX_BATCH: usize = 16;
/// Bounded in-flight device reads in the batched pipeline (the paper's
/// sweet-spot region of Figure 2).
const BATCH_DEPTH: u32 = 4;
/// Offered load of the two-tenant QoS scenario, as % of the batched
/// pipeline's closed-loop capacity — far enough past saturation that
/// *both* tenants individually exceed their weighted service shares, so
/// completion shares expose the DRR scheduler. The closed loop runs one
/// caller per shard and so fills batches to ~4 of the 16 an open loop can
/// merge: with the per-request software cost low, open-loop saturation
/// sits ~5–6× above the closed-loop figure, and the offer has to clear
/// that with room to spare (`check-bench` fails the scenario outright if
/// it sheds nothing).
const TENANT_LOAD_PCT: u32 = 1500;
/// The QoS scenario replays the eval trace this many times back to
/// back: the overload must be *sustained*, or the end-of-run queue
/// drain (every accepted request eventually completes) washes the DRR
/// completion shares out toward the admission split.
const TENANT_TRACE_REPEATS: usize = 8;
/// Per-tenant lane capacity of the QoS scenario: deep enough that the
/// heavy tenant's lanes stay backlogged through batch-sized pops and
/// bursty reactor arrivals (an empty lane forfeits its DRR quantum to
/// the other tenant — work conservation), yet bounded so the scenario
/// sheds visibly.
const TENANT_QUEUE_CAPACITY: usize = 64;
/// The heavy tenant of the QoS scenario (DRR weight 9).
const TENANT_HEAVY: (TenantId, u32) = (TenantId(1), 9);
/// The light tenant of the QoS scenario (DRR weight 1).
const TENANT_LIGHT: (TenantId, u32) = (TenantId(2), 1);
/// Flight-recorder sampling rate of the trace-overhead arm (1-in-N).
const TRACE_SAMPLE_EVERY: u64 = 64;
/// Offered load of the trace-overhead arm, as % of the batched
/// pipeline's capacity — matched to an untraced sweep row so
/// `check-bench` can compare the two p99s structurally.
const TRACE_LOAD_PCT: u32 = 50;
/// Offered load of the network arm, as % of the batched pipeline's
/// capacity — matched to an in-process sweep row so `check-bench` can
/// gate the TCP front-end's protocol overhead against the in-process
/// twin from the same run.
const NET_LOAD_PCT: u32 = 50;
/// Reactor connections of the network arm. One: on the bench host the
/// loadgen shares the CPU with the engine it measures, and extra
/// client connections only add scheduler preemption to the number
/// under test.
const NET_REACTORS: usize = 1;

/// One measured operating point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServeRow {
    /// Micro-batch window in microseconds (0 = single-read pipeline).
    pub window_us: u64,
    /// Offered load as % of measured closed-loop capacity (0 = the
    /// closed-loop capacity row itself).
    pub load_pct: u32,
    /// Offered requests per second (capacity row: achieved).
    pub offered_qps: f64,
    /// Completed requests per second.
    pub achieved_qps: f64,
    /// Requests completed.
    pub completed: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Mean end-to-end latency in seconds.
    pub mean_s: f64,
    /// Median end-to-end latency in seconds.
    pub p50_s: f64,
    /// P99 end-to-end latency in seconds.
    pub p99_s: f64,
    /// P99.9 end-to-end latency in seconds.
    pub p999_s: f64,
    /// Mean requests merged per device micro-batch.
    pub mean_batch: f64,
    /// Largest micro-batch observed.
    pub largest_batch: u64,
    /// Mean device queue depth experienced by block reads.
    pub mean_depth: f64,
    /// Peak device queue depth.
    pub peak_depth: u32,
    /// Mean simulated device time charged per served request, in seconds.
    pub device_mean_s: f64,
    /// Mean host queue wait per served request, in seconds.
    pub queue_wait_mean_s: f64,
    /// P99 host queue wait, in seconds.
    pub queue_wait_p99_s: f64,
    /// Heap allocations per lookup on the warmed store read path, from
    /// the steady-state probe run once per sweep (`-1` when the
    /// `count-allocs` feature is off). Must be exactly `0` — gated by
    /// `repro check-bench`.
    pub steady_allocs_per_lookup: f64,
    /// Percentage of shard-worker block reads served from recycled pool
    /// buffers instead of fresh allocations.
    pub pool_reuse_pct: f64,
    /// Tenant id of a per-tenant QoS row (`-1` for aggregate rows).
    pub tenant: i64,
    /// The tenant's DRR weight (`0` for aggregate rows).
    pub tenant_weight: u64,
    /// `1` when the flight recorder sampled this run (the trace-overhead
    /// arm, 1-in-`TRACE_SAMPLE_EVERY`), `0` for untraced rows.
    pub traced: u64,
    /// `1` when the run was driven over the TCP front-end
    /// ([`bandana_serve::NetServer`]) with client-side latency, `0` for
    /// in-process rows.
    pub transport: u64,
}

/// The shared inputs of every engine in the sweep: built once, reused —
/// only the store itself must be fresh per operating point (cold caches).
struct SweepInputs {
    workload: super::common::Workload,
    embeddings: Vec<EmbeddingTable>,
}

fn sweep_inputs(scale: Scale) -> SweepInputs {
    let workload = super::common::workload(scale);
    let embeddings: Vec<EmbeddingTable> = (0..workload.spec.num_tables())
        .map(|t| {
            EmbeddingTable::synthesize(
                workload.spec.tables[t].num_vectors,
                workload.spec.dim,
                workload.generator.topic_model(t),
                t as u64,
            )
        })
        .collect();
    SweepInputs { workload, embeddings }
}

/// One pipeline configuration of the sweep.
#[derive(Debug, Clone, Copy)]
struct Pipeline {
    window_us: u64,
    max_batch: usize,
    device_queue: u32,
}

const PIPELINES: [Pipeline; 2] = [
    // The single-read baseline: every request is its own submission at
    // queue depth 1.
    Pipeline { window_us: 0, max_batch: 1, device_queue: 1 },
    // Cross-request micro-batching with bounded in-flight reads.
    Pipeline { window_us: BATCH_WINDOW_US, max_batch: MAX_BATCH, device_queue: BATCH_DEPTH },
];

fn build_engine(
    inputs: &SweepInputs,
    scale: Scale,
    pipeline: Pipeline,
    trace: TraceConfig,
) -> ShardedEngine {
    let config = bandana_core::BandanaConfig::default()
        .with_cache_vectors(scale.default_total_cache())
        .with_seed(super::common::SEED);
    let store = BandanaStore::build(
        &inputs.workload.spec,
        &inputs.embeddings,
        &inputs.workload.train,
        config,
    )
    .expect("store builds on the paper workload");
    ShardedEngine::new(
        store,
        ServeConfig::default()
            .with_shards(SHARDS)
            .with_queue_capacity(QUEUE_CAPACITY)
            .with_shed_policy(ShedPolicy::DropNewest)
            .with_batch_window(Duration::from_micros(pipeline.window_us))
            .with_max_batch(pipeline.max_batch)
            .with_device_queue(pipeline.device_queue)
            .with_trace(trace),
    )
    .expect("engine configuration is valid")
}

/// Measures steady-state heap allocations per `lookup_batch` on the
/// store read path, with the counting allocator (`count-allocs` feature):
/// a store is built exactly like the sweep's, its tables are driven
/// directly with a worker-style scratch + pool through two warmup passes
/// over the eval queries, and a third pass is measured on this thread.
/// Fully deterministic — the read path takes no clocks — so the gate can
/// demand exactly zero. Returns `None` when counting is off.
fn steady_state_allocs_per_lookup(inputs: &SweepInputs, scale: Scale) -> Option<f64> {
    crate::alloc_track::thread_allocations()?;
    let config = bandana_core::BandanaConfig::default()
        .with_cache_vectors(scale.default_total_cache())
        .with_seed(super::common::SEED);
    let store = BandanaStore::build(
        &inputs.workload.spec,
        &inputs.embeddings,
        &inputs.workload.train,
        config,
    )
    .expect("store builds on the paper workload");
    let parts = store.into_raw_parts();
    let mut device = parts.device;
    let mut tables = parts.tables;
    let mut scratch = bandana_core::BatchScratch::new();
    let mut pool = nvm_sim::BlockBufPool::default();
    let queries: Vec<(usize, &[u32])> = inputs
        .workload
        .eval
        .requests
        .iter()
        .flat_map(|r| r.queries.iter().map(|q| (q.table, q.ids.as_slice())))
        .collect();
    let replay = |tables: &mut Vec<bandana_core::TableStore>,
                  device: &mut nvm_sim::NvmDevice,
                  scratch: &mut bandana_core::BatchScratch,
                  pool: &mut nvm_sim::BlockBufPool| {
        let mut lookups = 0u64;
        for &(t, ids) in &queries {
            tables[t]
                .lookup_batch_with(device, ids, scratch, pool)
                .expect("eval trace ids are valid");
            lookups += ids.len() as u64;
        }
        lookups
    };
    for _ in 0..2 {
        replay(&mut tables, &mut device, &mut scratch, &mut pool);
    }
    let before = crate::alloc_track::thread_allocations()?;
    let lookups = replay(&mut tables, &mut device, &mut scratch, &mut pool);
    let after = crate::alloc_track::thread_allocations()?;
    Some((after - before) as f64 / lookups.max(1) as f64)
}

/// Folds one finished engine's metrics into a [`ServeRow`].
#[allow(clippy::too_many_arguments)]
fn row_from(
    pipeline: Pipeline,
    load_pct: u32,
    offered_qps: f64,
    achieved_qps: f64,
    completed: u64,
    shed: u64,
    engine: &ShardedEngine,
    steady_allocs_per_lookup: f64,
) -> ServeRow {
    let m = engine.metrics();
    ServeRow {
        window_us: pipeline.window_us,
        load_pct,
        offered_qps,
        achieved_qps,
        completed,
        shed,
        mean_s: m.latency.mean_s,
        p50_s: m.latency.p50_s,
        p99_s: m.latency.p99_s,
        p999_s: m.latency.p999_s,
        mean_batch: m.batching.mean_batch(),
        largest_batch: m.batching.largest_batch,
        mean_depth: m.batching.depth.mean_depth(),
        peak_depth: m.batching.depth.peak_depth,
        device_mean_s: m.device_time.mean_s,
        queue_wait_mean_s: m.queue_wait.mean_s,
        queue_wait_p99_s: m.queue_wait.p99_s,
        steady_allocs_per_lookup,
        pool_reuse_pct: m.pool.reuse_rate() * 100.0,
        tenant: -1,
        tenant_weight: 0,
        traced: 0,
        transport: 0,
    }
}

/// Builds the QoS-scenario engine: the batched pipeline plus the two
/// weighted tenants.
fn build_tenant_engine(inputs: &SweepInputs, scale: Scale, pipeline: Pipeline) -> ShardedEngine {
    let config = bandana_core::BandanaConfig::default()
        .with_cache_vectors(scale.default_total_cache())
        .with_seed(super::common::SEED);
    let store = BandanaStore::build(
        &inputs.workload.spec,
        &inputs.embeddings,
        &inputs.workload.train,
        config,
    )
    .expect("store builds on the paper workload");
    ShardedEngine::new(
        store,
        ServeConfig::default()
            .with_shards(SHARDS)
            .with_queue_capacity(TENANT_QUEUE_CAPACITY)
            .with_shed_policy(ShedPolicy::DropNewest)
            .with_batch_window(Duration::from_micros(pipeline.window_us))
            .with_max_batch(pipeline.max_batch)
            .with_device_queue(pipeline.device_queue)
            .with_tenant(TENANT_HEAVY.0, TenantSpec::new(TENANT_HEAVY.1))
            .with_tenant(TENANT_LIGHT.0, TenantSpec::new(TENANT_LIGHT.1)),
    )
    .expect("tenant engine configuration is valid")
}

/// Runs the two-tenant overload scenario against the batched pipeline
/// and folds each tenant's slice into one [`ServeRow`].
fn tenant_scenario_rows(
    inputs: &SweepInputs,
    scale: Scale,
    trace: &bandana_trace::Trace,
    batched_capacity_qps: f64,
    steady_allocs: f64,
) -> Vec<ServeRow> {
    let pipeline = PIPELINES[1];
    let engine = build_tenant_engine(inputs, scale, pipeline);
    let rate = (batched_capacity_qps * f64::from(TENANT_LOAD_PCT) / 100.0).max(1.0);
    let process = ArrivalProcess::Poisson { rate_rps: rate };
    // The arrivals split 1:1 — deliberately: with identical offered
    // load, a weight-blind scheduler completes ~1:1, so any completion
    // skew is pure DRR signal (a skewed split would re-introduce the
    // admission ratio into the completions and mask a dead scheduler).
    // The measured skew lands well below the ideal 9:1 — ramp-up and
    // drain tails admit both tenants alike, and a work-conserving
    // scheduler serves the light lane whenever bursty arrivals leave the
    // heavy lane momentarily empty — which is why the check-bench floor
    // is a fraction of the weight ratio rather than the ratio itself.
    let slots = [TENANT_HEAVY.0, TENANT_LIGHT.0];
    let mut sustained = trace.clone();
    for _ in 1..TENANT_TRACE_REPEATS {
        sustained.requests.extend(trace.requests.iter().cloned());
    }
    let report = run_open_loop_tenants(
        &engine,
        &slots,
        &sustained,
        &process,
        super::common::SEED ^ u64::from(TENANT_LOAD_PCT),
    );
    let m = engine.metrics();
    [TENANT_HEAVY.0, TENANT_LIGHT.0]
        .iter()
        .map(|&id| {
            let t =
                m.per_tenant.iter().find(|t| t.id == id).expect("scenario tenants are registered");
            let slot_share = slots.iter().filter(|&&s| s == id).count() as f64 / slots.len() as f64;
            ServeRow {
                window_us: pipeline.window_us,
                load_pct: TENANT_LOAD_PCT,
                offered_qps: rate * slot_share,
                achieved_qps: t.completed as f64 / report.wall_s,
                completed: t.completed,
                shed: t.shed,
                mean_s: t.latency.mean_s,
                p50_s: t.latency.p50_s,
                p99_s: t.latency.p99_s,
                p999_s: t.latency.p999_s,
                // Batching/depth/queue-wait/pool metrics are engine-wide
                // aggregates with no per-tenant attribution; zero them
                // here rather than stamping identical aggregate values
                // into both tenants' rows as if they were per-tenant
                // measurements. Only the counters and the latency
                // distribution above are genuinely this tenant's.
                mean_batch: 0.0,
                largest_batch: 0,
                mean_depth: 0.0,
                peak_depth: 0,
                device_mean_s: 0.0,
                queue_wait_mean_s: 0.0,
                queue_wait_p99_s: 0.0,
                steady_allocs_per_lookup: steady_allocs,
                pool_reuse_pct: 0.0,
                tenant: i64::from(t.id.0),
                tenant_weight: u64::from(t.weight),
                traced: 0,
                transport: 0,
            }
        })
        .collect()
}

/// Measures closed-loop capacity, then the open-loop sweep, for both
/// pipelines. Each pipeline's first row (`load_pct == 0`) is its capacity
/// measurement.
pub fn run(scale: Scale) -> Vec<ServeRow> {
    let inputs = sweep_inputs(scale);
    run_on(&inputs, scale, &inputs.workload.eval)
}

fn run_on(inputs: &SweepInputs, scale: Scale, trace: &bandana_trace::Trace) -> Vec<ServeRow> {
    let mut rows = Vec::with_capacity(PIPELINES.len() * (LOAD_PCTS.len() + 1) + 4);
    // One steady-state allocation probe per sweep (it is a property of the
    // store read path, not of an operating point); -1 marks "not counted".
    let steady_allocs = steady_state_allocs_per_lookup(inputs, scale).unwrap_or(-1.0);

    for pipeline in PIPELINES {
        // Closed-loop capacity with one caller per shard.
        let capacity_engine = build_engine(inputs, scale, pipeline, TraceConfig::default());
        let capacity = run_closed_loop(&capacity_engine, trace, SHARDS)
            .expect("closed-loop replay of the eval trace");
        rows.push(row_from(
            pipeline,
            0,
            capacity.achieved_qps,
            capacity.achieved_qps,
            capacity.completed,
            0,
            &capacity_engine,
            steady_allocs,
        ));
        drop(capacity_engine);

        // Open-loop sweep: a fresh engine per point so caches, histograms,
        // and depth accounting start cold at every operating point.
        for pct in LOAD_PCTS {
            let rate = (capacity.achieved_qps * f64::from(pct) / 100.0).max(1.0);
            let engine = build_engine(inputs, scale, pipeline, TraceConfig::default());
            let process = ArrivalProcess::Poisson { rate_rps: rate };
            let report =
                run_open_loop(&engine, trace, &process, super::common::SEED ^ u64::from(pct));
            rows.push(row_from(
                pipeline,
                pct,
                report.offered_qps,
                report.achieved_qps,
                report.completed,
                report.shed,
                &engine,
                steady_allocs,
            ));
        }
    }

    // The two-tenant QoS scenario and the trace-overhead arm both ride
    // on the batched pipeline's measured capacity (its `load_pct == 0`
    // row).
    let batched_capacity = rows
        .iter()
        .find(|r| r.window_us == BATCH_WINDOW_US && r.load_pct == 0)
        .expect("the batched pipeline measured its capacity")
        .achieved_qps;

    // Trace-overhead arm: the batched pipeline at the same moderate load
    // as an untraced sweep row, with 1-in-TRACE_SAMPLE_EVERY
    // flight-recorder sampling on. `check-bench` asserts its p99 stays
    // inside the matched untraced row's band and that the steady-state
    // alloc probe still reads exactly zero.
    {
        let pipeline = PIPELINES[1];
        let rate = (batched_capacity * f64::from(TRACE_LOAD_PCT) / 100.0).max(1.0);
        let engine =
            build_engine(inputs, scale, pipeline, TraceConfig::sampled(TRACE_SAMPLE_EVERY));
        let process = ArrivalProcess::Poisson { rate_rps: rate };
        let report = run_open_loop(
            &engine,
            trace,
            &process,
            super::common::SEED ^ u64::from(TRACE_LOAD_PCT),
        );
        let mut row = row_from(
            pipeline,
            TRACE_LOAD_PCT,
            report.offered_qps,
            report.achieved_qps,
            report.completed,
            report.shed,
            &engine,
            steady_allocs,
        );
        row.traced = 1;
        rows.push(row);
    }

    // Network arm: the batched pipeline at the same moderate load as an
    // in-process sweep row, driven over the TCP front-end with the
    // socket loadgen. Latency here is *client-side* submit-to-receipt,
    // so the row measures protocol + transport overhead on top of the
    // engine time its in-process twin measures; `check-bench` gates the
    // two p99s against each other (the protocol-overhead budget).
    {
        let pipeline = PIPELINES[1];
        let rate = (batched_capacity * f64::from(NET_LOAD_PCT) / 100.0).max(1.0);
        let engine =
            std::sync::Arc::new(build_engine(inputs, scale, pipeline, TraceConfig::default()));
        let server = NetServer::start(std::sync::Arc::clone(&engine), NetServerConfig::default())
            .expect("net server binds a loopback port");
        let process = ArrivalProcess::Poisson { rate_rps: rate };
        let report = run_open_loop_net(
            server.local_addr(),
            TenantId::DEFAULT,
            trace,
            &process,
            super::common::SEED ^ u64::from(NET_LOAD_PCT),
            LoadGenConfig { reactors: NET_REACTORS },
        )
        .expect("socket-mode open loop against the loopback server");
        server.shutdown();
        let mut row = row_from(
            pipeline,
            NET_LOAD_PCT,
            report.offered_qps,
            report.achieved_qps,
            report.completed,
            report.shed + report.timed_out + report.failed,
            &engine,
            steady_allocs,
        );
        // The engine's server-side histogram never sees the wire;
        // overwrite the latency fields with the client-side measurement
        // — that distribution *is* what this row exists to record.
        row.mean_s = report.latency.mean_s;
        row.p50_s = report.latency.p50_s;
        row.p99_s = report.latency.p99_s;
        row.p999_s = report.latency.p999_s;
        row.transport = 1;
        rows.push(row);
    }

    rows.extend(tenant_scenario_rows(inputs, scale, trace, batched_capacity, steady_allocs));
    rows
}

/// Renders the latency table.
pub fn render(rows: &[ServeRow]) -> String {
    let mut table = TextTable::new(vec![
        "window µs",
        "load %",
        "tenant(w)",
        "trace",
        "wire",
        "offered qps",
        "achieved qps",
        "completed",
        "shed",
        "mean",
        "p50",
        "p99",
        "p999",
        "batch",
        "depth",
        "device",
        "q-wait",
        "allocs/lk",
        "pool %",
    ]);
    for r in rows {
        let label = if r.load_pct == 0 { "closed".to_string() } else { r.load_pct.to_string() };
        let tenant = if r.tenant < 0 {
            "-".to_string()
        } else {
            format!("{}({})", r.tenant, r.tenant_weight)
        };
        let trace_label =
            if r.traced != 0 { format!("1/{TRACE_SAMPLE_EVERY}") } else { "-".to_string() };
        let wire = if r.transport != 0 { "tcp" } else { "-" };
        table.row(vec![
            r.window_us.to_string(),
            label,
            tenant,
            trace_label,
            wire.to_string(),
            format!("{:.0}", r.offered_qps),
            format!("{:.0}", r.achieved_qps),
            r.completed.to_string(),
            r.shed.to_string(),
            bandana_serve::fmt_secs(r.mean_s),
            bandana_serve::fmt_secs(r.p50_s),
            bandana_serve::fmt_secs(r.p99_s),
            bandana_serve::fmt_secs(r.p999_s),
            format!("{:.2}", r.mean_batch),
            format!("{:.2}", r.mean_depth),
            bandana_serve::fmt_secs(r.device_mean_s),
            bandana_serve::fmt_secs(r.queue_wait_mean_s),
            if r.steady_allocs_per_lookup < 0.0 {
                "off".to_string()
            } else {
                format!("{:.3}", r.steady_allocs_per_lookup)
            },
            format!("{:.0}", r.pool_reuse_pct),
        ]);
    }
    format!(
        "Serving engine: open-loop latency vs offered load ({SHARDS} shards, \
         queue {QUEUE_CAPACITY}, drop-newest shedding, NVM reads charged through \
         the queue model; window 0 = single-read pipeline at depth 1, window \
         {BATCH_WINDOW_US} = ≤{MAX_BATCH}-request micro-batches at depth {BATCH_DEPTH}; \
         tenant rows = the {TENANT_LOAD_PCT}% QoS scenario, weights \
         {}:{} splitting the same arrivals; trace 1/{TRACE_SAMPLE_EVERY} = the \
         flight-recorder overhead arm; wire tcp = the socket arm with \
         client-side latency over the TCP front-end)\n{}",
        TENANT_HEAVY.1,
        TENANT_LIGHT.1,
        table.render()
    )
}

/// Renders the rows as a `BENCH_serve.json`-compatible document.
pub fn to_json(rows: &[ServeRow]) -> String {
    crate::output::json_document(
        "serve",
        rows.iter().map(|r| {
            JsonObject::new()
                .u64("window_us", r.window_us)
                .u64("load_pct", u64::from(r.load_pct))
                .f64("offered_qps", r.offered_qps)
                .f64("achieved_qps", r.achieved_qps)
                .u64("completed", r.completed)
                .u64("shed", r.shed)
                .f64("mean_s", r.mean_s)
                .f64("p50_s", r.p50_s)
                .f64("p99_s", r.p99_s)
                .f64("p999_s", r.p999_s)
                .f64("mean_batch", r.mean_batch)
                .u64("largest_batch", r.largest_batch)
                .f64("mean_depth", r.mean_depth)
                .u64("peak_depth", u64::from(r.peak_depth))
                .f64("device_mean_s", r.device_mean_s)
                .f64("queue_wait_mean_s", r.queue_wait_mean_s)
                .f64("queue_wait_p99_s", r.queue_wait_p99_s)
                .f64("steady_allocs_per_lookup", r.steady_allocs_per_lookup)
                .f64("pool_reuse_pct", r.pool_reuse_pct)
                .f64("tenant", r.tenant as f64)
                .u64("tenant_weight", r.tenant_weight)
                .u64("traced", r.traced)
                .u64("transport", r.transport)
        }),
    )
}

/// Runs the sweep, writes `BENCH_serve.json` next to the working
/// directory, and returns the rendered table (the `repro serve` artifact).
pub fn run_and_save(scale: Scale) -> String {
    let rows = run(scale);
    let json = to_json(&rows);
    let artifact = render(&rows);
    match std::fs::write("BENCH_serve.json", &json) {
        Ok(()) => format!("{artifact}\n[wrote BENCH_serve.json]\n"),
        Err(e) => format!("{artifact}\n[could not write BENCH_serve.json: {e}]\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_has_expected_shape() {
        // A shortened training trace keeps the twelve store builds (SHP +
        // tuning per operating point) test-sized, and a truncated eval
        // trace keeps the open-loop pacing (wall-clock = requests /
        // offered rate) short; the CI bench-smoke job runs the full quick
        // sweep in release mode.
        let workload = super::super::common::workload_with_train(Scale::Quick, 60);
        let embeddings: Vec<EmbeddingTable> = (0..workload.spec.num_tables())
            .map(|t| {
                EmbeddingTable::synthesize(
                    workload.spec.tables[t].num_vectors,
                    workload.spec.dim,
                    workload.generator.topic_model(t),
                    t as u64,
                )
            })
            .collect();
        let inputs = SweepInputs { workload, embeddings };
        let mut trace = inputs.workload.eval.clone();
        trace.requests.truncate(60);
        let rows = run_on(&inputs, Scale::Quick, &trace);
        assert_eq!(rows.len(), PIPELINES.len() * (LOAD_PCTS.len() + 1) + 4);
        let n = trace.requests.len() as u64;
        for pipeline in PIPELINES {
            let group: Vec<&ServeRow> = rows
                .iter()
                .filter(|r| {
                    r.tenant < 0
                        && r.traced == 0
                        && r.transport == 0
                        && r.window_us == pipeline.window_us
                })
                .collect();
            assert_eq!(group.len(), LOAD_PCTS.len() + 1);
            // Capacity row completes the whole trace without shedding.
            assert_eq!(group[0].shed, 0);
            assert!(group[0].achieved_qps > 0.0);
            // Offered load is monotone across the sweep rows.
            for w in group[1..].windows(2) {
                assert!(w[1].offered_qps > w[0].offered_qps);
            }
            for r in &group {
                // Every row orders its percentiles.
                assert!(r.p50_s <= r.p99_s && r.p99_s <= r.p999_s, "{r:?}");
                // The steady-state alloc probe: 0 with the counting
                // allocator on, the -1 sentinel with it off.
                if crate::alloc_track::thread_allocations().is_some() {
                    assert_eq!(r.steady_allocs_per_lookup, 0.0, "{r:?}");
                } else {
                    assert_eq!(r.steady_allocs_per_lookup, -1.0, "{r:?}");
                }
                assert!((0.0..=100.0).contains(&r.pool_reuse_pct), "{r:?}");
                // Device charging is on in both pipelines, so served
                // requests carry a device-time component and the depth
                // bound is respected.
                assert!(r.device_mean_s > 0.0, "{r:?}");
                assert!(u64::from(r.peak_depth) <= u64::from(pipeline.device_queue), "{r:?}");
                assert!(r.largest_batch <= pipeline.max_batch as u64, "{r:?}");
            }
            // Every submitted request is either completed or shed.
            for r in &group[1..] {
                assert_eq!(r.completed + r.shed, n, "{r:?}");
            }
        }
        // The single-read pipeline really is single-read.
        for r in rows.iter().filter(|r| r.window_us == 0) {
            assert!((r.mean_batch - 1.0).abs() < 1e-9, "{r:?}");
            assert_eq!(r.peak_depth, 1, "{r:?}");
        }
        // The batched pipeline merges requests at moderate offered load.
        let merged = rows
            .iter()
            .filter(|r| r.window_us > 0 && (25..=90).contains(&r.load_pct))
            .any(|r| r.mean_batch > 1.0);
        assert!(merged, "no moderate-load batched row merged requests: {rows:?}");
        // The QoS scenario: one row per tenant, each offered half the
        // (split) trace, with the heavy tenant completing strictly more.
        let tenant_rows: Vec<&ServeRow> = rows.iter().filter(|r| r.tenant >= 0).collect();
        assert_eq!(tenant_rows.len(), 2);
        let heavy = tenant_rows
            .iter()
            .find(|r| r.tenant == i64::from(TENANT_HEAVY.0 .0))
            .expect("heavy tenant row");
        let light = tenant_rows
            .iter()
            .find(|r| r.tenant == i64::from(TENANT_LIGHT.0 .0))
            .expect("light tenant row");
        assert_eq!(heavy.tenant_weight, u64::from(TENANT_HEAVY.1));
        assert_eq!(light.tenant_weight, u64::from(TENANT_LIGHT.1));
        for r in &tenant_rows {
            assert_eq!(r.load_pct, TENANT_LOAD_PCT);
            assert!(r.p50_s <= r.p99_s && r.p99_s <= r.p999_s, "{r:?}");
        }
        // The round-robin split hands each tenant half the (repeated)
        // arrivals.
        assert_eq!(
            heavy.completed + heavy.shed + light.completed + light.shed,
            n * TENANT_TRACE_REPEATS as u64
        );
        assert!(heavy.completed > 0 && light.completed > 0, "{tenant_rows:?}");
        // The trace-overhead arm: exactly one traced aggregate row, on
        // the batched pipeline at the matched moderate load, accounting
        // for every submitted request like any sweep row.
        let traced: Vec<&ServeRow> = rows.iter().filter(|r| r.traced != 0).collect();
        assert_eq!(traced.len(), 1);
        let tr = traced[0];
        assert_eq!((tr.window_us, tr.load_pct, tr.tenant), (BATCH_WINDOW_US, TRACE_LOAD_PCT, -1));
        assert_eq!(tr.traced, 1);
        assert_eq!(tr.transport, 0, "the trace arm runs in-process: {tr:?}");
        assert_eq!(tr.completed + tr.shed, n, "{tr:?}");
        assert!(tr.p50_s <= tr.p99_s && tr.p99_s <= tr.p999_s, "{tr:?}");
        // The network arm: exactly one socket row, on the batched
        // pipeline at the load of its in-process twin, accounting for
        // every request it put on the wire.
        let net: Vec<&ServeRow> = rows.iter().filter(|r| r.transport != 0).collect();
        assert_eq!(net.len(), 1);
        let nr = net[0];
        assert_eq!(
            (nr.window_us, nr.load_pct, nr.tenant, nr.traced),
            (BATCH_WINDOW_US, NET_LOAD_PCT, -1, 0)
        );
        assert_eq!(nr.completed + nr.shed, n, "{nr:?}");
        assert!(nr.completed > 0, "{nr:?}");
        assert!(nr.p50_s <= nr.p99_s && nr.p99_s <= nr.p999_s, "{nr:?}");
        // Its in-process twin exists in the same run — the row
        // check-bench compares the socket p99 against.
        assert!(
            rows.iter().any(|r| r.transport == 0
                && r.traced == 0
                && r.tenant < 0
                && r.window_us == nr.window_us
                && r.load_pct == nr.load_pct),
            "the net arm has no in-process twin: {rows:?}"
        );
    }

    #[test]
    fn renders_and_serializes() {
        let aggregate = ServeRow {
            window_us: 200,
            load_pct: 50,
            offered_qps: 1000.0,
            achieved_qps: 990.0,
            completed: 400,
            shed: 0,
            mean_s: 1e-4,
            p50_s: 9e-5,
            p99_s: 4e-4,
            p999_s: 9e-4,
            mean_batch: 2.5,
            largest_batch: 7,
            mean_depth: 3.1,
            peak_depth: 4,
            device_mean_s: 2e-5,
            queue_wait_mean_s: 3e-5,
            queue_wait_p99_s: 2e-4,
            steady_allocs_per_lookup: 0.0,
            pool_reuse_pct: 93.5,
            tenant: -1,
            tenant_weight: 0,
            traced: 0,
            transport: 0,
        };
        let tenant = ServeRow { load_pct: 300, tenant: 1, tenant_weight: 9, shed: 37, ..aggregate };
        let traced = ServeRow { traced: 1, ..aggregate };
        let net = ServeRow { transport: 1, ..aggregate };
        let rows = vec![aggregate, tenant, traced, net];
        let s = render(&rows);
        assert!(s.contains("offered qps"));
        assert!(s.contains("50"));
        assert!(s.contains("2.50"));
        assert!(s.contains("allocs/lk"));
        assert!(s.contains("94"), "pool reuse column missing: {s}");
        assert!(s.contains("tenant(w)"));
        assert!(s.contains("1(9)"), "tenant row label missing: {s}");
        assert!(s.contains("trace"));
        assert!(s.contains(&format!("1/{TRACE_SAMPLE_EVERY}")), "traced row label missing: {s}");
        assert!(s.contains("wire"));
        assert!(s.contains("tcp"), "net row label missing: {s}");
        let j = to_json(&rows);
        assert!(j.contains("\"experiment\":\"serve\""));
        assert!(j.contains("\"window_us\":200"));
        assert!(j.contains("\"load_pct\":50"));
        assert!(j.contains("\"p999_s\":0.0009"));
        assert!(j.contains("\"mean_batch\":2.5"));
        assert!(j.contains("\"peak_depth\":4"));
        assert!(j.contains("\"steady_allocs_per_lookup\":0"));
        assert!(j.contains("\"pool_reuse_pct\":93.5"));
        assert!(j.contains("\"tenant\":-1"));
        assert!(j.contains("\"tenant\":1"));
        assert!(j.contains("\"tenant_weight\":9"));
        assert!(j.contains("\"traced\":0"));
        assert!(j.contains("\"traced\":1"));
        assert!(j.contains("\"transport\":0"));
        assert!(j.contains("\"transport\":1"));
    }
}
