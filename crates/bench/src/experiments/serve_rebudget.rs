//! Online DRAM re-budgeting under hot-table migration: the cache budget
//! controller on vs off on identical traffic.
//!
//! The store's build-time DRAM division (Dynacache-style, §4.3.3) is
//! solved once, from the *training* trace. This scenario asks what
//! happens when production traffic then migrates: the training trace and
//! the first serving phase hammer one table, so the build split hands
//! that table nearly the whole budget — and mid-run the hot working set
//! moves to the *other* table, whose build-time cache share is a sliver.
//! Two engines serve the identical request stream:
//!
//! * **controller-on** — the engine runs the
//!   [`CacheBudgetController`](bandana_serve::CacheBudgetSettings): shard
//!   workers feed it per-table access samples, it folds them into online
//!   hit-rate curves, re-solves the division against the same fixed
//!   total budget, and live-applies the new split. Within a few solve
//!   windows of the migration the newly-hot table holds most of the
//!   DRAM and the tail-window hit rate recovers to its pre-drift level.
//! * **controller-off** — same store, same traffic, no controller. The
//!   build-time split is frozen, the newly-hot table thrashes its
//!   sliver, and the post-drift hit rate (and p99, since every miss pays
//!   a simulated device read) stays degraded for the rest of the run.
//!
//! One row per arm is merged into `BENCH_serve.json` (the `rebudget`
//! field distinguishes the arms; the sweep's, drift's, and restart's
//! rows are preserved). `repro check-bench` gates the claim
//! structurally: the on arm's post-drift hit rate must sit within a band
//! of its pre-drift level with its p99 under the off arm's, the off arm
//! must stay degraded, the on arm must show applied `SetCachePartition`
//! audit evidence, and the off arm must show none.

use crate::output::{JsonObject, TextTable};
use crate::scale::Scale;
use bandana_core::BandanaStore;
use bandana_serve::{CacheBudgetSettings, ControlConfig, ServeConfig, ShardedEngine};
use bandana_trace::{
    EmbeddingTable, ModelSpec, Request, TableQuery, TableSpec, Trace, TraceGenerator,
};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// One shard: the arms' contrast is cache-determined, and on a 1-CPU
/// host extra worker threads only add scheduling noise to the p99s the
/// gate compares.
const SHARDS: usize = 1;
/// Window 0 = drain immediately; the sequential replay produces
/// single-request batches and the timed wakeup's jitter would pollute
/// the tail-window p99s.
const BATCH_WINDOW_US: u64 = 0;
const MAX_BATCH: usize = 16;
/// Device queue depth 1: every miss pays the device's full QD1 read
/// latency instead of pipelining down to a fraction of it. This is the
/// paper's low-depth operating point (Fig. 2's left edge) and it is what
/// makes the arms' tail p99s a *cache* story — ~120 misses cost a
/// degraded request ~1.3 ms, far above any host scheduling noise.
const BATCH_DEPTH: u32 = 1;
/// Closed-loop replay: `load_pct` is a label, picked outside the
/// sweep's 25–90% band and off the restart scenario's 100.
const REBUDGET_LOAD_PCT: u32 = 120;
/// Total DRAM budget (vectors) both arms run under — fixed; the
/// controller only ever moves capacity, never grows it.
const TOTAL_CACHE: usize = 1024;
/// Hot lookups per request, drawn uniformly over [`HOT_KEYS`] (the
/// paper's tables average 17.7–92.8 lookups per request). Sized so a
/// thrashing request misses ~120 times and, at device queue depth 1,
/// pays ~1.3 ms of simulated reads — a tail cost that decisively
/// dominates the 1-CPU host's scheduling noise, which is what lets the
/// gate compare the arms' p99s.
const HOT_LOOKUPS: usize = 128;
/// The hot table's working set: larger than any fair share of
/// [`TOTAL_CACHE`] but mostly coverable when one table holds nearly the
/// whole budget — so where the budget sits decides the hit rate.
const HOT_KEYS: u32 = 1200;
/// The cold table's working set: one lookup per request over a few keys,
/// cacheable in a sliver — the traffic that keeps the cold table's
/// online curve alive without competing for budget.
const COLD_KEYS: u32 = 16;
/// The table the training trace and the first serving phase hammer (the
/// build split hands it nearly the whole budget).
const PRE_HOT_TABLE: usize = 0;
/// The table the hot set migrates to mid-run.
const POST_HOT_TABLE: usize = 1;

/// The controller's tuning for the scenario: one solve per ~127 requests
/// (1,024 samples at 129 lookups/request, every 16th lookup sampled), so
/// ~3 solves land between the migration and the measured tail window.
/// `sample_every: 16` matters on a 1-CPU host: samples are folded into
/// the miniature caches tick by tick on the bus thread, and sampling
/// every lookup would make that per-tick fold preempt the shard worker
/// for longer than the off arm's whole miss penalty — poisoning the very
/// tail-window p99 the gate compares. The window is a full 1,024 samples
/// so each solve sees a low-noise curve and hysteresis can hold the
/// converged split still instead of flapping it (every flap's shrink
/// evicts entries inline on the worker thread).
fn budget_settings() -> CacheBudgetSettings {
    CacheBudgetSettings {
        window_lookups: 1_024,
        sample_every: 16,
        granularity: 32,
        ..CacheBudgetSettings::default()
    }
}

/// One arm's measured outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RebudgetServeRow {
    /// Micro-batch window (matches the serve sweep's batched pipeline).
    pub window_us: u64,
    /// Label identifying the rebudget rows' operating point.
    pub load_pct: u32,
    /// Whether the cache budget controller ran in this arm.
    pub rebudget: bool,
    /// Requests completed across the whole run.
    pub completed: u64,
    /// DRAM hit rate over the tail window of the pre-drift phase.
    pub hit_rate_pre: f64,
    /// DRAM hit rate over the tail window of the post-drift phase — the
    /// figure the controller exists to recover.
    pub hit_rate_post: f64,
    /// Client-observed p99 over the pre-drift tail window, in seconds.
    pub p99_pre_s: f64,
    /// Client-observed p99 over the post-drift tail window.
    pub p99_post_s: f64,
    /// Device block reads issued serving the post-drift tail window.
    pub device_reads_post: u64,
    /// Re-division solves the controller ran (zero in the off arm).
    pub rebudget_solves: u64,
    /// `SetCachePartition` commands applied to shards (zero off).
    pub rebudget_applied: u64,
    /// `SetCachePartition` entries in the audit log (zero off).
    pub partition_moves: u64,
    /// Final cache capacity of the post-drift hot table, in entries.
    pub hot_capacity_final: u64,
    /// Lifetime mean / p50 / p99 / p99.9 latency in seconds.
    pub mean_s: f64,
    /// Lifetime p50.
    pub p50_s: f64,
    /// Lifetime p99.
    pub p99_s: f64,
    /// Lifetime p99.9.
    pub p999_s: f64,
    /// Steady-state heap allocations per lookup on the worker read path
    /// with a controller-applied re-partition live (−1 when the counting
    /// allocator is off; gated to exactly 0 when counted).
    pub steady_allocs_per_lookup: f64,
}

/// The sizing knobs, split out so the unit test can run a miniature
/// version of the scenario.
#[derive(Debug, Clone, Copy)]
struct RebudgetParams {
    /// Requests in the pre-drift phase (hot set on [`PRE_HOT_TABLE`]).
    phase_a: usize,
    /// Requests in the post-drift phase (hot set on [`POST_HOT_TABLE`]).
    phase_b: usize,
    /// Tail-window length, in requests, over which each phase's hit rate
    /// and p99 are measured.
    window: usize,
    /// Requests in the hand-rolled training trace (phase-A-shaped, so
    /// the build split favors [`PRE_HOT_TABLE`]).
    train_requests: usize,
}

fn params(scale: Scale) -> RebudgetParams {
    match scale {
        // Phase B leaves the controller ~3 solve windows between the
        // migration and the measured tail, and the tail starts after the
        // re-grown cache has refilled (~15 requests of 128 hot lookups).
        Scale::Quick => {
            RebudgetParams { phase_a: 400, phase_b: 600, window: 200, train_requests: 300 }
        }
        Scale::Full => {
            RebudgetParams { phase_a: 800, phase_b: 1200, window: 400, train_requests: 600 }
        }
    }
}

/// The deterministic pseudo-random draw both phases (and both arms) are
/// built from: uniform draws give the smooth, monotone hit-rate curves
/// (hit rate ≈ capacity / working set) the greedy allocator climbs —
/// a cyclic scan would give LRU flat-zero curves below the working set.
fn lcg(state: &mut u64, keys: u32) -> u32 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    ((*state >> 33) as u32) % keys
}

/// One phase of traffic: every request draws [`HOT_LOOKUPS`] uniform
/// keys from the hot table and one from the other (cold) table.
fn phase_requests(hot_table: usize, count: usize, rng: &mut u64) -> Vec<Request> {
    let cold_table = 1 - hot_table;
    (0..count)
        .map(|_| {
            let hot: Vec<u32> = (0..HOT_LOOKUPS).map(|_| lcg(rng, HOT_KEYS)).collect();
            let cold = vec![lcg(rng, COLD_KEYS)];
            Request {
                queries: vec![TableQuery::new(hot_table, hot), TableQuery::new(cold_table, cold)],
            }
        })
        .collect()
}

struct RebudgetInputs {
    spec: ModelSpec,
    embeddings: Vec<EmbeddingTable>,
    train: Trace,
    phase_a: Vec<Request>,
    phase_b: Vec<Request>,
}

/// The two-table model the scenario serves. The 64-dim vectors are the
/// load-bearing choice: at 256 B each, only 16 fit a 4 KB block, so the
/// 1,200-key hot set spans ~75 device blocks and a thrashing request
/// really pays for its misses — with the unit-test spec's 8-dim vectors
/// the whole hot set coalesces into ~10 blocks and a 96%-miss request
/// costs less than one controller solve.
fn rebudget_spec() -> ModelSpec {
    ModelSpec {
        tables: vec![TableSpec::test_small(2_048), TableSpec::test_small(4_096)],
        dim: 64,
        element_bytes: 4,
    }
}

fn build_inputs(p: RebudgetParams) -> RebudgetInputs {
    let spec = rebudget_spec();
    let generator = TraceGenerator::new(&spec, super::common::SEED);
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
    // The training trace is phase-A-shaped: the build-time DRAM division
    // solves against it and hands PRE_HOT_TABLE nearly the whole budget —
    // the stranded configuration the migration then exposes.
    let mut rng = super::common::SEED ^ 0x2EB0D6E7;
    let train = Trace {
        num_tables: spec.num_tables(),
        requests: phase_requests(PRE_HOT_TABLE, p.train_requests, &mut rng),
    };
    // Both arms replay the identical serving stream: phase A continues
    // the trained traffic shape, phase B migrates the hot set.
    let phase_a = phase_requests(PRE_HOT_TABLE, p.phase_a, &mut rng);
    let phase_b = phase_requests(POST_HOT_TABLE, p.phase_b, &mut rng);
    RebudgetInputs { spec, embeddings, train, phase_a, phase_b }
}

/// Both arms build byte-identical stores: the builder is deterministic
/// in the spec/trace/seed, so the only difference is the controller.
fn build_store(inputs: &RebudgetInputs) -> BandanaStore {
    let config = bandana_core::BandanaConfig::default()
        .with_cache_vectors(TOTAL_CACHE)
        .with_seed(super::common::SEED);
    BandanaStore::build(&inputs.spec, &inputs.embeddings, &inputs.train, config)
        .expect("store builds on the rebudget workload")
}

fn build_config(controller_on: bool) -> ServeConfig {
    let mut config = ServeConfig::default()
        .with_shards(SHARDS)
        .with_batch_window(Duration::from_micros(BATCH_WINDOW_US))
        .with_max_batch(MAX_BATCH)
        .with_device_queue(BATCH_DEPTH)
        // A coarse bus tick: on a 1-CPU host every tick preempts the
        // shard worker, and the gate compares tail p99s across arms —
        // the controller still solves several times per phase because
        // solves are paced by accumulated samples, not ticks.
        .with_control(ControlConfig { tick: Duration::from_millis(5), ..ControlConfig::default() });
    if controller_on {
        config = config.with_cache_budget(budget_settings());
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
        engine.serve(request).expect("rebudget arm serves its trace");
    }
    let mut latencies = Vec::with_capacity(requests.len() - split);
    for request in &requests[split..] {
        let started = Instant::now();
        engine.serve(request).expect("rebudget arm serves its trace");
        latencies.push(started.elapsed().as_secs_f64());
    }
    p99_of(&mut latencies)
}

/// Runs one arm over both phases, checkpointing the cache and device
/// counters around each phase's tail window.
fn run_arm(
    inputs: &RebudgetInputs,
    window: usize,
    controller_on: bool,
    steady_allocs: f64,
) -> RebudgetServeRow {
    let engine = ShardedEngine::new(build_store(inputs), build_config(controller_on))
        .expect("rebudget engine configuration is valid");
    let window_a = window.min(inputs.phase_a.len());
    let window_b = window.min(inputs.phase_b.len());

    // Pre-drift phase: warm the caches (and, in the on arm, let the
    // controller settle), then measure the tail window.
    let split_a = inputs.phase_a.len() - window_a;
    serve_phase(&engine, &inputs.phase_a[..split_a], 0);
    let m0 = engine.metrics();
    let p99_pre_s = serve_phase(&engine, &inputs.phase_a[split_a..], window_a);
    let m_pre = engine.metrics();

    // The migration: the hot set moves to POST_HOT_TABLE. The on arm's
    // controller re-solves within a few sample windows; the off arm's
    // build-time split is frozen.
    let split_b = inputs.phase_b.len() - window_b;
    serve_phase(&engine, &inputs.phase_b[..split_b], 0);
    let m_mid = engine.metrics();
    let p99_post_s = serve_phase(&engine, &inputs.phase_b[split_b..], window_b);
    let m_post = engine.metrics();

    let hit_rate = |after: &bandana_serve::EngineMetrics, before: &bandana_serve::EngineMetrics| {
        let hits = after.cache.hits - before.cache.hits;
        let lookups = after.cache.lookups - before.cache.lookups;
        hits as f64 / lookups.max(1) as f64
    };
    let device_reads =
        |m: &bandana_serve::EngineMetrics| m.per_shard.iter().map(|s| s.device_reads).sum::<u64>();
    RebudgetServeRow {
        window_us: BATCH_WINDOW_US,
        load_pct: REBUDGET_LOAD_PCT,
        rebudget: controller_on,
        completed: m_post.completed,
        hit_rate_pre: hit_rate(&m_pre, &m0),
        hit_rate_post: hit_rate(&m_post, &m_mid),
        p99_pre_s,
        p99_post_s,
        device_reads_post: device_reads(&m_post) - device_reads(&m_mid),
        rebudget_solves: m_post.rebudget_solves,
        rebudget_applied: m_post.rebudget_applied,
        partition_moves: m_post
            .audit
            .iter()
            .filter(|e| e.controller == "cache-budget" && e.action.contains("SetCachePartition"))
            .count() as u64,
        hot_capacity_final: m_post
            .cache_partition
            .iter()
            .find(|p| p.table == POST_HOT_TABLE)
            .map_or(0, |p| p.capacity_entries as u64),
        mean_s: m_post.latency.mean_s,
        p50_s: m_post.latency.p50_s,
        p99_s: m_post.latency.p99_s,
        p999_s: m_post.latency.p999_s,
        steady_allocs_per_lookup: steady_allocs,
    }
}

/// Measures steady-state heap allocations per lookup on the worker read
/// path *with the controller's work applied*: the store's tables carry a
/// live re-partition (capacity moved to the post-drift hot table, the
/// way an applied `SetCachePartition` moves it), the block pool is sized
/// to the fixed total the way the engine floors it when the controller
/// is on, and every lookup emits a budget sample into a bounded channel
/// the way the shard worker taps traffic. Two warmup passes, a measured
/// third; deterministic, so the gate demands exactly zero. Returns
/// `None` when the counting allocator is off.
fn steady_state_allocs_per_lookup(inputs: &RebudgetInputs) -> Option<f64> {
    crate::alloc_track::thread_allocations()?;
    let parts = build_store(inputs).into_raw_parts();
    let mut device = parts.device;
    let mut tables = parts.tables;
    let total: usize = tables.iter().map(|t| t.cache_capacity()).sum();
    // The post-drift re-partition the controller converges to: the
    // newly-hot table holds the budget, the other keeps a sliver.
    let sliver = (total / 16).max(1);
    tables[PRE_HOT_TABLE].set_cache_capacity(sliver);
    tables[POST_HOT_TABLE].set_cache_capacity(total - sliver);
    let mut scratch = bandana_core::BatchScratch::new();
    let mut pool = nvm_sim::BlockBufPool::default();
    let (tx, rx) = std::sync::mpsc::sync_channel::<(usize, u32, u32)>(4096);
    let mut rng = super::common::SEED ^ 0xA110C;
    let queries: Vec<(usize, Vec<u32>)> = phase_requests(POST_HOT_TABLE, 64, &mut rng)
        .iter()
        .flat_map(|r| r.queries.iter().map(|q| (q.table, q.ids.clone())))
        .collect();
    let mut replay = |tables: &mut Vec<bandana_core::TableStore>,
                      device: &mut nvm_sim::NvmDevice| {
        let mut lookups = 0u64;
        for (t, ids) in &queries {
            tables[*t]
                .lookup_batch_with(device, ids, &mut scratch, &mut pool)
                .expect("rebudget probe ids are valid");
            for &v in ids {
                let _ = tx.try_send((*t, v, 0));
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

/// Runs the full experiment: identical traffic through the
/// controller-on and controller-off arms.
pub fn run(scale: Scale) -> Vec<RebudgetServeRow> {
    run_with(params(scale))
}

fn run_with(p: RebudgetParams) -> Vec<RebudgetServeRow> {
    let inputs = build_inputs(p);
    let steady_allocs = steady_state_allocs_per_lookup(&inputs).unwrap_or(-1.0);
    vec![
        run_arm(&inputs, p.window, true, steady_allocs),
        // The probe models the on arm's re-partitioned steady state;
        // the off arm's row carries the counting-off sentinel.
        run_arm(&inputs, p.window, false, -1.0),
    ]
}

/// Renders the rebudget table.
pub fn render(rows: &[RebudgetServeRow]) -> String {
    let mut table = TextTable::new(vec![
        "arm",
        "pre hits",
        "post hits",
        "pre p99",
        "post p99",
        "post dev reads",
        "solves",
        "applied",
        "audit moves",
        "hot table cap",
        "completed",
    ]);
    for r in rows {
        table.row(vec![
            if r.rebudget { "budget-on".into() } else { "budget-off".to_string() },
            format!("{:.0}%", r.hit_rate_pre * 100.0),
            format!("{:.0}%", r.hit_rate_post * 100.0),
            bandana_serve::fmt_secs(r.p99_pre_s),
            bandana_serve::fmt_secs(r.p99_post_s),
            r.device_reads_post.to_string(),
            r.rebudget_solves.to_string(),
            r.rebudget_applied.to_string(),
            r.partition_moves.to_string(),
            r.hot_capacity_final.to_string(),
            r.completed.to_string(),
        ]);
    }
    format!(
        "Online DRAM re-budgeting under hot-table migration ({SHARDS} shard, \
         {TOTAL_CACHE}-vector total budget, hot set of {HOT_KEYS} keys moving from \
         table {PRE_HOT_TABLE} to table {POST_HOT_TABLE} mid-run): cache budget \
         controller on vs off on identical traffic. The gate: budget-on recovers its \
         pre-drift tail-window hit rate (p99 under budget-off's) with SetCachePartition \
         audit evidence; budget-off stays degraded on its frozen build-time split.\n{}",
        table.render()
    )
}

/// Renders the rows in `BENCH_serve.json` row format.
fn rows_to_json(rows: &[RebudgetServeRow]) -> Vec<JsonObject> {
    rows.iter()
        .map(|r| {
            JsonObject::new()
                .u64("window_us", r.window_us)
                .u64("load_pct", u64::from(r.load_pct))
                .u64("rebudget", u64::from(r.rebudget))
                .u64("completed", r.completed)
                .f64("hit_rate_pre", r.hit_rate_pre)
                .f64("hit_rate_post", r.hit_rate_post)
                .f64("p99_pre_s", r.p99_pre_s)
                .f64("p99_post_s", r.p99_post_s)
                .u64("device_reads_post", r.device_reads_post)
                .u64("rebudget_solves", r.rebudget_solves)
                .u64("rebudget_applied", r.rebudget_applied)
                .u64("partition_moves", r.partition_moves)
                .u64("hot_capacity_final", r.hot_capacity_final)
                .f64("mean_s", r.mean_s)
                .f64("p50_s", r.p50_s)
                .f64("p99_s", r.p99_s)
                .f64("p999_s", r.p999_s)
                .f64("steady_allocs_per_lookup", r.steady_allocs_per_lookup)
        })
        .collect()
}

/// Merges the rebudget rows into an existing `BENCH_serve.json` document
/// (replacing any previous rebudget rows, keeping everyone else's), or
/// builds a rebudget-only document when none exists.
fn merged_document(existing: Option<&str>, rows: &[RebudgetServeRow]) -> String {
    let mut objects: Vec<JsonObject> = Vec::new();
    if let Some(text) = existing {
        if let Ok(doc) = crate::baseline::parse_document(text) {
            for row in &doc.rows {
                // Rebudget rows carry `rebudget`; everything else is the
                // sweep's, drift's, or restart's and is preserved
                // verbatim (numeric fields are the whole row format).
                if row.contains_key("rebudget") {
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
            format!("{artifact}\n[merged {} rebudget rows into BENCH_serve.json]\n", rows.len())
        }
        Err(e) => format!("{artifact}\n[could not write BENCH_serve.json: {e}]\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature end-to-end run: sized for test wall-clock, checking
    /// row structure and the controller-presence invariants that hold at
    /// any size (the recovery claims themselves are gated on the real
    /// run by `repro check-bench`).
    #[test]
    fn miniature_rebudget_run_has_sound_rows() {
        let rows =
            run_with(RebudgetParams { phase_a: 80, phase_b: 140, window: 40, train_requests: 60 });
        assert_eq!(rows.len(), 2, "one controller-on row, one controller-off row");
        let on = rows.iter().find(|r| r.rebudget).expect("on row present");
        let off = rows.iter().find(|r| !r.rebudget).expect("off row present");
        // Both arms served the identical trace to completion.
        assert_eq!(on.completed, off.completed);
        assert!(on.completed > 0);
        // The controller really ran in the on arm — 220 requests at 129
        // lookups sampled every 16th accumulate ~1,770 samples, beyond
        // the 1,024-sample solve window — and never in the off arm.
        assert!(on.rebudget_solves >= 1, "{on:?}");
        assert_eq!(off.rebudget_solves, 0, "{off:?}");
        assert_eq!(off.rebudget_applied, 0, "{off:?}");
        assert_eq!(off.partition_moves, 0, "{off:?}");
        // Applied moves and audit evidence travel together.
        assert_eq!(on.rebudget_applied > 0, on.partition_moves > 0, "{on:?}");
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.hit_rate_pre), "{r:?}");
            assert!((0.0..=1.0).contains(&r.hit_rate_post), "{r:?}");
            assert!(r.p99_pre_s > 0.0 && r.p99_post_s > 0.0, "{r:?}");
            assert!(r.p50_s <= r.p99_s && r.p99_s <= r.p999_s, "{r:?}");
            assert!(r.hot_capacity_final > 0, "{r:?}");
            // The steady-state alloc probe: 0 with the counting
            // allocator on (the on arm carries the measurement), the
            // -1 sentinel otherwise.
            if r.rebudget && crate::alloc_track::thread_allocations().is_some() {
                assert_eq!(r.steady_allocs_per_lookup, 0.0, "{r:?}");
            }
        }
        // The off arm's budget never moves off the build-time split.
        assert!(off.hot_capacity_final < TOTAL_CACHE as u64 / 2, "{off:?}");
    }

    #[test]
    fn renders_and_merges_into_bench_document() {
        let on = RebudgetServeRow {
            window_us: 0,
            load_pct: 120,
            rebudget: true,
            completed: 1000,
            hit_rate_pre: 0.85,
            hit_rate_post: 0.82,
            p99_pre_s: 2e-3,
            p99_post_s: 3e-3,
            device_reads_post: 120,
            rebudget_solves: 12,
            rebudget_applied: 3,
            partition_moves: 3,
            hot_capacity_final: 960,
            mean_s: 1e-3,
            p50_s: 8e-4,
            p99_s: 4e-3,
            p999_s: 8e-3,
            steady_allocs_per_lookup: 0.0,
        };
        let off = RebudgetServeRow {
            rebudget: false,
            hit_rate_post: 0.12,
            p99_post_s: 4e-2,
            device_reads_post: 1500,
            rebudget_solves: 0,
            rebudget_applied: 0,
            partition_moves: 0,
            hot_capacity_final: 32,
            steady_allocs_per_lookup: -1.0,
            ..on
        };
        let rows = vec![on, off];
        let rendered = render(&rows);
        assert!(rendered.contains("budget-on"));
        assert!(rendered.contains("budget-off"));
        assert!(rendered.contains("post hits"));
        assert!(rendered.contains("audit moves"));

        // Merging keeps the sweep's, drift's, and restart's rows,
        // replaces stale rebudget rows, and appends the fresh ones.
        let existing = "{\"experiment\":\"serve\",\"rows\":[\
                        {\"window_us\":200,\"load_pct\":50,\"p99_s\":0.001,\"completed\":60},\
                        {\"window_us\":200,\"load_pct\":400,\"slo_on\":1,\"tenant\":1,\"completed\":9},\
                        {\"window_us\":50,\"load_pct\":100,\"restart\":1,\"completed\":7},\
                        {\"window_us\":0,\"load_pct\":120,\"rebudget\":1,\"completed\":5}]}\n";
        let merged = merged_document(Some(existing), &rows);
        let doc = crate::baseline::parse_document(&merged).expect("merged document parses");
        assert_eq!(doc.experiment, "serve");
        assert_eq!(doc.rows.len(), 5, "sweep + drift + restart + two fresh rebudget rows: {doc:?}");
        assert_eq!(doc.rows[0]["load_pct"], 50.0, "sweep row preserved");
        assert!(doc.rows[1].contains_key("slo_on"), "drift row preserved");
        assert!(doc.rows[2].contains_key("restart"), "restart row preserved");
        assert!(
            !doc.rows.iter().any(|r| r.get("completed") == Some(&5.0)),
            "stale rebudget rows are replaced"
        );
        // Without an existing file the document is rebudget-only.
        let standalone = merged_document(None, &rows);
        let doc = crate::baseline::parse_document(&standalone).expect("standalone parses");
        assert_eq!(doc.rows.len(), 2);
        assert_eq!(doc.rows[0]["rebudget"], 1.0);
        assert_eq!(doc.rows[1]["rebudget"], 0.0);
        assert_eq!(doc.rows[1]["hot_capacity_final"], 32.0);
    }
}
