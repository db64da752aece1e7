//! Online hot-block re-layout under hot-set drift: the re-layout
//! controller on vs off on identical traffic.
//!
//! The paper's SHP layout is solved once, offline, from a training
//! trace (§4.2). This scenario starts both arms from the layout that
//! offline pass cannot save — identity placement, so every co-access
//! group's members straddle many device blocks — and drives Zipf-popular
//! group traffic ([`ZipfDriftGenerator`]) whose hot set rotates mid-run.
//! Two engines serve the identical request stream:
//!
//! * **relayout-on** — the engine runs the
//!   [`ReLayoutSettings`] controller:
//!   shard workers tee sampled co-access sets onto the metrics bus, the
//!   controller accumulates a windowed co-access hypergraph, and when
//!   observed blocks-per-request degrades past the threshold it refines
//!   the placement of the blocks wasting the most slot reads and
//!   live-applies the new layout when it packs the window tighter (real
//!   device rewrites, charged to the endurance meter). After the drift
//!   the newly-hot groups are packed — most of them already by the
//!   pre-drift solves, which see the whole 48-group deck — and the
//!   tail-window device reads per request recover to the pre-drift
//!   (also controller-packed) level.
//! * **relayout-off** — same store, same traffic, no controller. The
//!   scattered layout is frozen; every request keeps paying one device
//!   read per straddled block, before the drift and after it.
//!
//! One row per arm is merged into `BENCH_serve.json` (the `relayout`
//! field distinguishes the arms; every other scenario's rows are
//! preserved). `repro check-bench` gates the claim structurally: the on
//! arm's post-drift device-reads-per-completed-request must sit within
//! a band of its own pre-drift level with its tail p99 under the off
//! arm's, the off arm must stay degraded, rewrite traffic must show up
//! in the on arm's shard write accounting, applied re-layouts must be
//! audit-logged, and the off arm must show none of it.

use crate::output::{JsonObject, TextTable};
use crate::scale::Scale;
use bandana_core::BandanaStore;
use bandana_partition::BlockLayout;
use bandana_serve::{ControlConfig, ReLayoutSettings, ServeConfig, ShardedEngine};
use bandana_trace::{
    EmbeddingTable, ModelSpec, Request, TableQuery, TableSpec, Trace, TraceGenerator,
    ZipfDriftConfig, ZipfDriftGenerator,
};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// One shard: the arms' contrast is layout-determined, and on a 1-CPU
/// host extra worker threads only add scheduling noise to the p99s the
/// gate compares.
const SHARDS: usize = 1;
/// Window 0 = drain immediately (see serve_rebudget: the sequential
/// replay produces single-request batches and a timed wakeup's jitter
/// would pollute the tail-window p99s).
const BATCH_WINDOW_US: u64 = 0;
const MAX_BATCH: usize = 16;
/// Device queue depth 1: every block read pays the device's full QD1
/// latency, so a request that straddles ~120 blocks costs ~1.3 ms of
/// simulated reads — a layout story decisively above host scheduling
/// noise (same operating point as the rebudget scenario).
const BATCH_DEPTH: u32 = 1;
/// Closed-loop replay label, off every other serve scenario's value.
const RELAYOUT_LOAD_PCT: u32 = 130;
/// Zipf-drawn co-access groups merged into each request per table: 6
/// draws of 16 ids give ~100 unique lookups per table per request, so
/// the scattered arm pays ~120 QD1 block reads per request and the
/// packed arm a fraction of that.
const DRAWS_PER_REQUEST: usize = 6;
/// Ids per co-access group — exactly one 4 KB block's worth at the
/// 64-dim geometry below, so a perfectly packed group costs one read.
const GROUP_SIZE: usize = 16;
/// Zipf exponent over group ranks: a head of ~8 groups dominates but
/// each request's draws still spread over several distinct groups, so
/// the scattered arm pays for every one of them. (Steeper collapses
/// nearly all draws onto one group and with it the arms' contrast.)
const ZIPF_EXPONENT: f64 = 1.2;
/// Fraction of each table's group deck displaced at the drift boundary:
/// the post-drift head is dealt from mid-deck ranks the pre-drift
/// refinement never saw enough of to pack.
const ROTATE_FRACTION: f64 = 0.5;

/// The controller's tuning, chosen so it *quiesces* once converged —
/// the tail windows the gate measures must be free of rewrite pauses —
/// and so the bus's per-tick fold stays small. The second point is a
/// 1-CPU-host subtlety the gate would catch: at `sample_every: 1`
/// every bus wake folds ~200 queued samples, each wake preempts the
/// single shard worker for a scheduler timeslice, and those ~4 ms
/// stalls (every 5 ms tick, all run long) become the on arm's p99 —
/// sampling 1-in-3 parts cuts both the tee and the fold to where a
/// wake costs less than a request:
///
/// * a 1-in-3 stride because [`merged_request`] makes each request
///   exactly two co-access parts (one merged query per table): an even
///   stride would alias against that period and sample one table's
///   parts *only*, leaving the other table scattered forever — the
///   stride must be co-prime with parts-per-request;
/// * windows of 60 sampled parts per table (one table part every 3
///   requests, so a window spans ~180 requests) — big enough that one
///   unlucky request cannot spike the window's observed/ideal ratio
///   past the solve bar, and wide enough Zipf coverage of the 48-group
///   deck that a single solve can pack most of it.
///
/// Everything else is the controller's default: the 1.25× solve bar,
/// and a working set (up to 256 blocks) that covers a whole 48-block
/// table here. The accept rule, not the bar, keeps a converged layout
/// still — a window that clears the bar but cannot be packed tighter
/// rewrites nothing.
fn relayout_settings() -> ReLayoutSettings {
    ReLayoutSettings { window_requests: 60, sample_every: 3, ..ReLayoutSettings::default() }
}

/// One arm's measured outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RelayoutServeRow {
    /// Micro-batch window (matches the serve sweep's batched pipeline).
    pub window_us: u64,
    /// Label identifying the relayout rows' operating point.
    pub load_pct: u32,
    /// Whether the re-layout controller ran in this arm.
    pub relayout: bool,
    /// Requests completed across the whole run.
    pub completed: u64,
    /// Device block reads per completed request over the pre-drift tail
    /// window (in the on arm, measured after the controller converges).
    pub reads_per_req_pre: f64,
    /// Device block reads per completed request over the post-drift tail
    /// window — the figure the controller exists to recover.
    pub reads_per_req_post: f64,
    /// Client-observed p99 over the pre-drift tail window, in seconds.
    pub p99_pre_s: f64,
    /// Client-observed p99 over the post-drift tail window.
    pub p99_post_s: f64,
    /// Refinement solves the controller ran (zero in the off arm).
    pub relayout_solves: u64,
    /// `ApplyLayout` commands applied to shards (zero off).
    pub relayout_applied: u64,
    /// Device blocks rewritten by applied re-layouts (zero off).
    pub relayout_rewritten_blocks: u64,
    /// `ApplyLayout` entries in the audit log (zero off).
    pub layout_moves: u64,
    /// Total bytes written to the shard devices — the re-layout rewrite
    /// traffic the endurance meter charges (zero off: this scenario
    /// never retrains or snapshots).
    pub bytes_written: u64,
    /// Final observed blocks-per-request gauge (0 in the off arm — no
    /// controller, no completed windows).
    pub bpr_observed: f64,
    /// Final ideal (perfectly packed) blocks-per-request gauge.
    pub bpr_ideal: f64,
    /// Lifetime mean / p50 / p99 / p99.9 latency in seconds.
    pub mean_s: f64,
    /// Lifetime p50.
    pub p50_s: f64,
    /// Lifetime p99.
    pub p99_s: f64,
    /// Lifetime p99.9.
    pub p999_s: f64,
    /// Steady-state heap allocations per lookup on the worker read path
    /// with a controller-applied re-layout live and the co-access tee
    /// sampling every part (−1 when the counting allocator is off;
    /// gated to exactly 0 when counted).
    pub steady_allocs_per_lookup: f64,
}

/// The sizing knobs, split out so the unit test can run a miniature
/// version of the scenario.
#[derive(Debug, Clone, Copy)]
struct RelayoutParams {
    /// Requests in the pre-drift phase (epoch-0 hot set).
    phase_a: usize,
    /// Requests in the post-drift phase (rotated hot set).
    phase_b: usize,
    /// Tail-window length, in requests, over which each phase's device
    /// reads and p99 are measured.
    window: usize,
    /// Requests in the training trace (epoch-0-shaped; the build uses it
    /// for admission statistics only — placement is identity).
    train_requests: usize,
}

fn params(scale: Scale) -> RelayoutParams {
    match scale {
        // A window closes every ~180 requests and its apply lands one or
        // two bus ticks later. Phase A's 400 unmeasured requests let the
        // first two windows' applies land before the pre-drift tail: a
        // tail that starts ~20 requests after the first window races its
        // apply, and every request served before it lands pays ~100
        // scattered reads. Phase B leaves about two windows between the
        // drift and the post-drift tail.
        Scale::Quick => {
            RelayoutParams { phase_a: 600, phase_b: 600, window: 200, train_requests: 300 }
        }
        Scale::Full => {
            RelayoutParams { phase_a: 800, phase_b: 1200, window: 400, train_requests: 600 }
        }
    }
}

struct RelayoutInputs {
    spec: ModelSpec,
    embeddings: Vec<EmbeddingTable>,
    train: Trace,
    phase_a: Vec<Request>,
    phase_b: Vec<Request>,
}

/// The two-table model the scenario serves. 64-dim f32 vectors are
/// 256 B, so 16 fit a 4 KB block — a [`GROUP_SIZE`] co-access group is
/// exactly one block when packed and up to 16 blocks when scattered.
/// 768 vectors per table keep the whole deck at 48 groups, small
/// enough that the controller's sampled windows witness essentially
/// every group and convergence can reach the packed ideal (a deeper
/// deck leaves sampled-window-blind tail groups scattered forever,
/// stranding the observed/ideal ratio near the solve bar where noise
/// fires late solves into the measured tail windows).
fn relayout_spec() -> ModelSpec {
    ModelSpec {
        tables: vec![TableSpec::test_small(768), TableSpec::test_small(768)],
        dim: 64,
        element_bytes: 4,
    }
}

fn drift_config(p: RelayoutParams) -> ZipfDriftConfig {
    ZipfDriftConfig {
        group_size: GROUP_SIZE,
        exponent: ZIPF_EXPONENT,
        // The generator counts raw draws; each serve request merges
        // DRAWS_PER_REQUEST of them, so the epoch flips exactly at the
        // phase boundary.
        requests_per_epoch: p.phase_a * DRAWS_PER_REQUEST,
        rotate_fraction: ROTATE_FRACTION,
    }
}

/// Merges [`DRAWS_PER_REQUEST`] generator draws into one serve request:
/// per table, the concatenation of the drawn groups' ids.
fn merged_request(generator: &mut ZipfDriftGenerator, num_tables: usize) -> Request {
    let mut ids: Vec<Vec<u32>> = vec![Vec::new(); num_tables];
    for _ in 0..DRAWS_PER_REQUEST {
        for q in generator.generate_request().queries {
            ids[q.table].extend_from_slice(&q.ids);
        }
    }
    Request {
        queries: ids.into_iter().enumerate().map(|(t, ids)| TableQuery::new(t, ids)).collect(),
    }
}

fn build_inputs(p: RelayoutParams) -> RelayoutInputs {
    let spec = relayout_spec();
    let topic_generator = TraceGenerator::new(&spec, super::common::SEED);
    let embeddings: Vec<EmbeddingTable> = (0..spec.num_tables())
        .map(|t| {
            EmbeddingTable::synthesize(
                spec.tables[t].num_vectors,
                spec.dim,
                topic_generator.topic_model(t),
                t as u64,
            )
        })
        .collect();
    // The training trace is epoch-0-shaped (a fresh generator, same
    // seed, never advanced past the first epoch): the build consumes it
    // for admission statistics, while placement stays identity — the
    // scattered starting point both arms share.
    let mut train_generator = ZipfDriftGenerator::new(&spec, super::common::SEED, drift_config(p));
    let train = Trace {
        num_tables: spec.num_tables(),
        requests: (0..p.train_requests)
            .map(|_| merged_request(&mut train_generator, spec.num_tables()))
            .collect(),
    };
    // Both arms replay the identical serving stream: one generator,
    // epochs flipping at the phase boundary.
    let mut generator = ZipfDriftGenerator::new(&spec, super::common::SEED, drift_config(p));
    let phase_a: Vec<Request> =
        (0..p.phase_a).map(|_| merged_request(&mut generator, spec.num_tables())).collect();
    let phase_b: Vec<Request> =
        (0..p.phase_b).map(|_| merged_request(&mut generator, spec.num_tables())).collect();
    RelayoutInputs { spec, embeddings, train, phase_a, phase_b }
}

/// Both arms build byte-identical stores: identity placement (the
/// layout the controller must repair online) and no cache admission, so
/// every lookup is a device read and the arms' contrast is purely how
/// many blocks those reads coalesce into.
fn build_store(inputs: &RelayoutInputs) -> BandanaStore {
    let config = bandana_core::BandanaConfig::default()
        .with_cache_vectors(256)
        .with_partitioner(bandana_core::PartitionerKind::Identity)
        .with_admission(bandana_cache::AdmissionPolicy::None)
        .with_seed(super::common::SEED);
    BandanaStore::build(&inputs.spec, &inputs.embeddings, &inputs.train, config)
        .expect("store builds on the relayout workload")
}

fn build_config(controller_on: bool) -> ServeConfig {
    let mut config = ServeConfig::default()
        .with_shards(SHARDS)
        .with_batch_window(Duration::from_micros(BATCH_WINDOW_US))
        .with_max_batch(MAX_BATCH)
        .with_device_queue(BATCH_DEPTH)
        // A coarse bus tick, as in the rebudget scenario: on a 1-CPU
        // host every tick preempts the shard worker and the gate
        // compares tail p99s across arms.
        .with_control(ControlConfig { tick: Duration::from_millis(5), ..ControlConfig::default() });
    if controller_on {
        config = config.with_relayout(relayout_settings());
    }
    config
}

/// p99 of a set of per-request wall-clock latencies.
fn p99_of(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((samples.len() as f64 * 0.99).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Serves `requests` sequentially, timing each of the last `window`
/// calls; returns their p99.
fn serve_phase(engine: &ShardedEngine, requests: &[Request], window: usize) -> f64 {
    let split = requests.len().saturating_sub(window.min(requests.len()));
    for request in &requests[..split] {
        engine.serve(request).expect("relayout arm serves its trace");
    }
    let mut latencies = Vec::with_capacity(requests.len() - split);
    for request in &requests[split..] {
        let started = Instant::now();
        engine.serve(request).expect("relayout arm serves its trace");
        latencies.push(started.elapsed().as_secs_f64());
    }
    p99_of(&mut latencies)
}

/// Runs one arm over both phases, checkpointing the device counters
/// around each phase's tail window.
fn run_arm(
    inputs: &RelayoutInputs,
    window: usize,
    controller_on: bool,
    steady_allocs: f64,
) -> RelayoutServeRow {
    let engine = ShardedEngine::new(build_store(inputs), build_config(controller_on))
        .expect("relayout engine configuration is valid");
    let window_a = window.min(inputs.phase_a.len());
    let window_b = window.min(inputs.phase_b.len());

    // Pre-drift phase: in the on arm the controller packs the epoch-0
    // head over the warmup, then the tail window is measured.
    let split_a = inputs.phase_a.len() - window_a;
    serve_phase(&engine, &inputs.phase_a[..split_a], 0);
    let m0 = engine.metrics();
    let p99_pre_s = serve_phase(&engine, &inputs.phase_a[split_a..], window_a);
    let m_pre = engine.metrics();

    // The drift: the Zipf deck rotates, the packed head goes cold, and
    // the new head's groups are scattered again. The on arm's controller
    // re-solves within a few windows; the off arm's layout is frozen.
    let split_b = inputs.phase_b.len() - window_b;
    serve_phase(&engine, &inputs.phase_b[..split_b], 0);
    let m_mid = engine.metrics();
    let p99_post_s = serve_phase(&engine, &inputs.phase_b[split_b..], window_b);
    let m_post = engine.metrics();

    let device_reads =
        |m: &bandana_serve::EngineMetrics| m.per_shard.iter().map(|s| s.device_reads).sum::<u64>();
    RelayoutServeRow {
        window_us: BATCH_WINDOW_US,
        load_pct: RELAYOUT_LOAD_PCT,
        relayout: controller_on,
        completed: m_post.completed,
        reads_per_req_pre: (device_reads(&m_pre) - device_reads(&m0)) as f64
            / window_a.max(1) as f64,
        reads_per_req_post: (device_reads(&m_post) - device_reads(&m_mid)) as f64
            / window_b.max(1) as f64,
        p99_pre_s,
        p99_post_s,
        relayout_solves: m_post.relayout_solves,
        relayout_applied: m_post.relayout_applied,
        relayout_rewritten_blocks: m_post.relayout_rewritten_blocks,
        layout_moves: m_post
            .audit
            .iter()
            .filter(|e| e.controller == "re-layout" && e.action.contains("ApplyLayout"))
            .count() as u64,
        bytes_written: m_post.per_shard.iter().map(|s| s.bytes_written).sum(),
        bpr_observed: m_post.blocks_per_request_observed,
        bpr_ideal: m_post.blocks_per_request_ideal,
        mean_s: m_post.latency.mean_s,
        p50_s: m_post.latency.p50_s,
        p99_s: m_post.latency.p99_s,
        p999_s: m_post.latency.p999_s,
        steady_allocs_per_lookup: steady_allocs,
    }
}

/// Measures steady-state heap allocations per lookup on the worker read
/// path *with the controller's work applied*: the table carries a live
/// re-layout (its block order rewritten on-device the way an applied
/// `ApplyLayout` rewrites it) and every part's ids are teed into a
/// bounded co-access channel the way the shard worker samples traffic.
/// Two warmup passes, a measured third; deterministic, so the gate
/// demands exactly zero. Returns `None` when the counting allocator is
/// off.
fn steady_state_allocs_per_lookup(inputs: &RelayoutInputs) -> Option<f64> {
    crate::alloc_track::thread_allocations()?;
    let parts = build_store(inputs).into_raw_parts();
    let mut device = parts.device;
    let mut tables = parts.tables;
    // The applied re-layout: rotate table 0's order by one block, a
    // dense permutation that rewrites every block.
    let per_block = tables[0].layout().vectors_per_block();
    let mut order = tables[0].layout().order().to_vec();
    order.rotate_left(per_block);
    tables[0]
        .apply_layout(&mut device, BlockLayout::from_order(order, per_block))
        .expect("probe re-layout applies");
    let mut scratch = bandana_core::BatchScratch::new();
    let mut pool = nvm_sim::BlockBufPool::default();
    let (tx, rx) = std::sync::mpsc::sync_channel::<(usize, u32, u64)>(4096);
    let mut generator = ZipfDriftGenerator::new(
        &inputs.spec,
        super::common::SEED ^ 0xA110C,
        drift_config(params(Scale::Quick)),
    );
    let queries: Vec<(usize, Vec<u32>)> = (0..32)
        .map(|_| merged_request(&mut generator, inputs.spec.num_tables()))
        .flat_map(|r| r.queries.into_iter().map(|q| (q.table, q.ids)))
        .collect();
    let mut seq = 0u64;
    let mut replay = |tables: &mut Vec<bandana_core::TableStore>,
                      device: &mut nvm_sim::NvmDevice| {
        let mut lookups = 0u64;
        for (t, ids) in &queries {
            tables[*t]
                .lookup_batch_with(device, ids, &mut scratch, &mut pool)
                .expect("relayout probe ids are valid");
            seq += 1;
            let group = seq << 8;
            for &v in ids {
                let _ = tx.try_send((*t, v, group));
            }
            lookups += ids.len() as u64;
        }
        for _ in rx.try_iter() {}
        lookups
    };
    for _ in 0..2 {
        replay(&mut tables, &mut device);
    }
    let before = crate::alloc_track::thread_allocations()?;
    let lookups = replay(&mut tables, &mut device);
    let after = crate::alloc_track::thread_allocations()?;
    Some((after - before) as f64 / lookups.max(1) as f64)
}

/// Runs the full experiment: identical traffic through the relayout-on
/// and relayout-off arms.
pub fn run(scale: Scale) -> Vec<RelayoutServeRow> {
    run_with(params(scale))
}

fn run_with(p: RelayoutParams) -> Vec<RelayoutServeRow> {
    let inputs = build_inputs(p);
    let steady_allocs = steady_state_allocs_per_lookup(&inputs).unwrap_or(-1.0);
    vec![
        run_arm(&inputs, p.window, true, steady_allocs),
        // The probe models the on arm's re-laid-out steady state; the
        // off arm's row carries the counting-off sentinel.
        run_arm(&inputs, p.window, false, -1.0),
    ]
}

/// Renders the relayout table.
pub fn render(rows: &[RelayoutServeRow]) -> String {
    let mut table = TextTable::new(vec![
        "arm",
        "pre reads/req",
        "post reads/req",
        "pre p99",
        "post p99",
        "solves",
        "applied",
        "rewritten",
        "audit moves",
        "bytes written",
        "completed",
    ]);
    for r in rows {
        table.row(vec![
            if r.relayout { "relayout-on".into() } else { "relayout-off".to_string() },
            format!("{:.1}", r.reads_per_req_pre),
            format!("{:.1}", r.reads_per_req_post),
            bandana_serve::fmt_secs(r.p99_pre_s),
            bandana_serve::fmt_secs(r.p99_post_s),
            r.relayout_solves.to_string(),
            r.relayout_applied.to_string(),
            r.relayout_rewritten_blocks.to_string(),
            r.layout_moves.to_string(),
            r.bytes_written.to_string(),
            r.completed.to_string(),
        ]);
    }
    format!(
        "Online hot-block re-layout under hot-set drift ({SHARDS} shard, identity \
         build layout, {GROUP_SIZE}-id Zipf co-access groups rotating {ROTATE_FRACTION} \
         of the deck mid-run): re-layout controller on vs off on identical traffic. \
         The gate: relayout-on recovers its pre-drift tail-window device reads per \
         request (p99 inside relayout-off's tail band) with audit-logged ApplyLayout \
         evidence and real rewrite bytes; relayout-off stays degraded on its frozen \
         scattered layout.\n{}",
        table.render()
    )
}

/// Renders the rows in `BENCH_serve.json` row format.
fn rows_to_json(rows: &[RelayoutServeRow]) -> Vec<JsonObject> {
    rows.iter()
        .map(|r| {
            JsonObject::new()
                .u64("window_us", r.window_us)
                .u64("load_pct", u64::from(r.load_pct))
                .u64("relayout", u64::from(r.relayout))
                .u64("completed", r.completed)
                .f64("reads_per_req_pre", r.reads_per_req_pre)
                .f64("reads_per_req_post", r.reads_per_req_post)
                .f64("p99_pre_s", r.p99_pre_s)
                .f64("p99_post_s", r.p99_post_s)
                .u64("relayout_solves", r.relayout_solves)
                .u64("relayout_applied", r.relayout_applied)
                .u64("relayout_rewritten_blocks", r.relayout_rewritten_blocks)
                .u64("layout_moves", r.layout_moves)
                .u64("bytes_written", r.bytes_written)
                .f64("bpr_observed", r.bpr_observed)
                .f64("bpr_ideal", r.bpr_ideal)
                .f64("mean_s", r.mean_s)
                .f64("p50_s", r.p50_s)
                .f64("p99_s", r.p99_s)
                .f64("p999_s", r.p999_s)
                .f64("steady_allocs_per_lookup", r.steady_allocs_per_lookup)
        })
        .collect()
}

/// Merges the relayout rows into an existing `BENCH_serve.json`
/// document (replacing any previous relayout rows, keeping everyone
/// else's), or builds a relayout-only document when none exists.
fn merged_document(existing: Option<&str>, rows: &[RelayoutServeRow]) -> String {
    let mut objects: Vec<JsonObject> = Vec::new();
    if let Some(text) = existing {
        if let Ok(doc) = crate::baseline::parse_document(text) {
            for row in &doc.rows {
                // Relayout rows carry `relayout`; everything else is
                // another scenario's and is preserved verbatim (numeric
                // fields are the whole row format).
                if row.contains_key("relayout") {
                    continue;
                }
                let mut object = JsonObject::new();
                for (k, v) in row {
                    object = object.f64(k, *v);
                }
                objects.push(object);
            }
        }
    }
    objects.extend(rows_to_json(rows));
    crate::output::json_document("serve", objects)
}

/// Runs the experiment and appends its rows to `BENCH_serve.json`
/// alongside the other serve scenarios' (run `repro serve` first; this
/// preserves whatever rows are already there).
pub fn run_and_save(scale: Scale) -> String {
    let rows = run(scale);
    let artifact = render(&rows);
    let existing = std::fs::read_to_string("BENCH_serve.json").ok();
    let json = merged_document(existing.as_deref(), &rows);
    match std::fs::write("BENCH_serve.json", &json) {
        Ok(()) => {
            format!("{artifact}\n[merged {} relayout rows into BENCH_serve.json]\n", rows.len())
        }
        Err(e) => format!("{artifact}\n[could not write BENCH_serve.json: {e}]\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature end-to-end run: sized for test wall-clock, checking
    /// row structure and the controller-presence invariants that hold
    /// at any size (the recovery claims themselves are gated on the
    /// real run by `repro check-bench`).
    #[test]
    fn miniature_relayout_run_has_sound_rows() {
        let rows =
            run_with(RelayoutParams { phase_a: 100, phase_b: 160, window: 50, train_requests: 60 });
        assert_eq!(rows.len(), 2, "one relayout-on row, one relayout-off row");
        let on = rows.iter().find(|r| r.relayout).expect("on row present");
        let off = rows.iter().find(|r| !r.relayout).expect("off row present");
        // Both arms served the identical trace to completion.
        assert_eq!(on.completed, off.completed);
        assert!(on.completed > 0);
        // The controller really ran in the on arm — the identity layout
        // scatters every group, so the first completed window already
        // clears the degradation bar — and never in the off arm.
        assert!(on.relayout_solves >= 1, "{on:?}");
        assert_eq!(off.relayout_solves, 0, "{off:?}");
        assert_eq!(off.relayout_applied, 0, "{off:?}");
        assert_eq!(off.relayout_rewritten_blocks, 0, "{off:?}");
        assert_eq!(off.layout_moves, 0, "{off:?}");
        assert_eq!(off.bytes_written, 0, "no controller, no rewrites: {off:?}");
        // Applies, audit evidence, rewritten blocks, and write bytes
        // travel together.
        assert_eq!(on.relayout_applied > 0, on.layout_moves > 0, "{on:?}");
        assert_eq!(on.relayout_applied > 0, on.relayout_rewritten_blocks > 0, "{on:?}");
        assert_eq!(on.relayout_applied > 0, on.bytes_written > 0, "{on:?}");
        // A completed window published its gauges.
        assert!(on.bpr_observed > 0.0 && on.bpr_ideal > 0.0, "{on:?}");
        for r in &rows {
            assert!(r.reads_per_req_pre > 0.0, "{r:?}");
            assert!(r.reads_per_req_post > 0.0, "{r:?}");
            assert!(r.p99_pre_s > 0.0 && r.p99_post_s > 0.0, "{r:?}");
            assert!(r.p50_s <= r.p99_s && r.p99_s <= r.p999_s, "{r:?}");
            // The steady-state alloc probe: 0 with the counting
            // allocator on (the on arm carries the measurement), the
            // -1 sentinel otherwise.
            if r.relayout && crate::alloc_track::thread_allocations().is_some() {
                assert_eq!(r.steady_allocs_per_lookup, 0.0, "{r:?}");
            }
        }
    }

    #[test]
    fn renders_and_merges_into_bench_document() {
        let on = RelayoutServeRow {
            window_us: 0,
            load_pct: 130,
            relayout: true,
            completed: 1000,
            reads_per_req_pre: 30.0,
            reads_per_req_post: 33.0,
            p99_pre_s: 4e-4,
            p99_post_s: 5e-4,
            relayout_solves: 14,
            relayout_applied: 9,
            relayout_rewritten_blocks: 310,
            layout_moves: 9,
            bytes_written: 310 * 4096,
            bpr_observed: 12.5,
            bpr_ideal: 6.0,
            mean_s: 3e-4,
            p50_s: 2.5e-4,
            p99_s: 9e-4,
            p999_s: 2e-3,
            steady_allocs_per_lookup: 0.0,
        };
        let off = RelayoutServeRow {
            relayout: false,
            reads_per_req_post: 120.0,
            reads_per_req_pre: 118.0,
            p99_post_s: 1.6e-3,
            relayout_solves: 0,
            relayout_applied: 0,
            relayout_rewritten_blocks: 0,
            layout_moves: 0,
            bytes_written: 0,
            bpr_observed: 0.0,
            bpr_ideal: 0.0,
            steady_allocs_per_lookup: -1.0,
            ..on
        };
        let rows = vec![on, off];
        let rendered = render(&rows);
        assert!(rendered.contains("relayout-on"));
        assert!(rendered.contains("relayout-off"));
        assert!(rendered.contains("post reads/req"));
        assert!(rendered.contains("bytes written"));

        // Merging keeps every other scenario's rows, replaces stale
        // relayout rows, and appends the fresh ones.
        let existing = "{\"experiment\":\"serve\",\"rows\":[\
                        {\"window_us\":200,\"load_pct\":50,\"p99_s\":0.001,\"completed\":60},\
                        {\"window_us\":0,\"load_pct\":120,\"rebudget\":1,\"completed\":9},\
                        {\"window_us\":0,\"load_pct\":130,\"relayout\":1,\"completed\":5}]}\n";
        let merged = merged_document(Some(existing), &rows);
        let doc = crate::baseline::parse_document(&merged).expect("merged document parses");
        assert_eq!(doc.experiment, "serve");
        assert_eq!(doc.rows.len(), 4, "sweep + rebudget + two fresh relayout rows: {doc:?}");
        assert_eq!(doc.rows[0]["load_pct"], 50.0, "sweep row preserved");
        assert!(doc.rows[1].contains_key("rebudget"), "rebudget row preserved");
        assert!(
            !doc.rows.iter().any(|r| r.get("completed") == Some(&5.0)),
            "stale relayout rows are replaced"
        );
        // Without an existing file the document is relayout-only.
        let standalone = merged_document(None, &rows);
        let doc = crate::baseline::parse_document(&standalone).expect("standalone parses");
        assert_eq!(doc.rows.len(), 2);
        assert_eq!(doc.rows[0]["relayout"], 1.0);
        assert_eq!(doc.rows[1]["relayout"], 0.0);
        assert_eq!(doc.rows[1]["reads_per_req_post"], 120.0);
    }
}
