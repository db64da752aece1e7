//! One workload, start to finish: set-up, warm-up, the measured phase, the
//! output oracle, and the metrics of `BENCHMARK.json` computed from them.

use crate::driver::{closed_loop, open_loop, Backend, Mark, Oracle, Phase, Replay, Stop};
use crate::probes::{self, Values};
use crate::spans::Tracer;
use crate::stats::{self, Sample, SLICES};
use crate::sys;
use crate::workloads::{self, Inputs, Kind, LIVE_TENANT, SHARDS, WARMUP_REQUESTS, WIRE_IN_FLIGHT};
use bandana::persist::snapshot::load_latest;
use bandana::prelude::*;
use bandana::serve::{render_prometheus, EngineMetrics};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a measured phase lasts unless `--seconds` says otherwise: the
/// `run_seconds` of `BENCHMARK.json`, which the benchmark driver passes.
pub const RUN_SECONDS: f64 = 20.0;
/// Where results, traces and the persist directories go, from the
/// repository root `run.sh` starts the binary in.
pub const OUT_DIR: &str = "benchmark/out";

/// `(name, unit, bound)` of every end-to-end metric, as in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str, f64)] = &[
    ("setup_s", "s", 0.25),
    ("throughput_rps", "1/s", 0.25),
    ("latency_p50_ms", "ms", 0.25),
    ("latency_p99_ms", "ms", 0.25),
    ("nvm_reads_per_request", "count", 0.15),
    ("cpu_ms_per_request", "ms", 0.25),
    ("peak_rss_mb", "MiB", 0.25),
];

/// `(name, unit)` of every per-layer metric, as in `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("partition.shp_s", "s"),
    ("partition.fanout_blocks_per_query", "count"),
    ("partition.refine_ms", "ms"),
    ("cache.hit_rate", "ratio"),
    ("cache.evictions_per_request", "count"),
    ("cache.prefetch_usefulness", "ratio"),
    ("cache.probe_ns", "ns"),
    ("cache.insert_evict_ns", "ns"),
    ("cache.resize_ms", "ms"),
    ("cache.curve_observe_ns", "ns"),
    ("core.build_s", "s"),
    ("core.lookup_ns_per_lookup", "ns"),
    ("core.allocs_per_lookup", "count"),
    ("core.apply_layout_ms", "ms"),
    ("core.apply_layout_blocks", "count"),
    ("nvm_sim.reads_per_lookup", "ratio"),
    ("nvm_sim.mean_queue_depth", "count"),
    ("nvm_sim.busy_share", "ratio"),
    ("nvm_sim.device_ms_per_request", "ms"),
    ("nvm_sim.pool_reuse_rate", "ratio"),
    ("nvm_sim.bytes_written", "B"),
    ("nvm_sim.written_blocks_per_kreq", "count"),
    ("nvm_sim.read_block_ns", "ns"),
    ("serve.queue_wait_ms_mean", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.service_ms_p50", "ms"),
    ("serve.software_ms_p50", "ms"),
    ("serve.mean_batch", "count"),
    ("serve.largest_batch", "count"),
    ("serve.submit_us", "us"),
    ("serve.allocs_per_request", "count"),
    ("serve.engine_start_ms", "ms"),
    ("serve.shed_total", "count"),
    ("serve.timed_out_total", "count"),
    ("serve_net.overhead_ms", "ms"),
    ("serve_net.frame_encode_ns", "ns"),
    ("serve_net.frame_decode_ns", "ns"),
    ("serve_net.bytes_per_request", "B"),
    ("serve_control.ticks_per_s", "1/s"),
    ("serve_control.relayout_applied_per_kreq", "count"),
    ("serve_control.rebudget_applied_per_kreq", "count"),
    ("serve_control.tuner_swaps_per_kreq", "count"),
    ("serve_control.overhead_share", "ratio"),
    ("serve_control.reads_saved_share", "ratio"),
    ("persist.wal_append_us", "us"),
    ("persist.wal_sync_ms", "ms"),
    ("persist.snapshot_encode_ms", "ms"),
    ("persist.snapshot_write_ms", "ms"),
    ("persist.snapshot_bytes", "B"),
    ("persist.recover_ms", "ms"),
    ("serve_obs.trace_overhead_share", "ratio"),
    ("serve_obs.render_prometheus_ms", "ms"),
    ("trace.gen_s", "s"),
    ("harness.gen_lateness_ms_p99", "ms"),
    ("harness.latency_p99_slice_median_ms", "ms"),
    ("harness.latency_p99_run_ms", "ms"),
    ("harness.latency_max_ms", "ms"),
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// One measured payload in this many is held against the oracle; warm-up
/// and the sweeps check every one.
const CHECK_EVERY: usize = 16;
/// Ids per request of the post-run sweep over every vector.
const SWEEP_IDS_PER_REQUEST: usize = 256;
/// The fewest samples the fullest closed-loop slice may hold and still be
/// reported: ten beyond its p99.
const MIN_SLICE_SAMPLES: usize = 1_000;
/// The most the open-loop generator's p99 lateness may be. On the two-core
/// reference host it runs 0.6-0.9 ms late at p99 (the submit call shares the
/// cores with the server it wakes), so the refusal line sits well clear of
/// that; lateness is part of every reported latency either way.
const MAX_LATENESS_MS: f64 = 2.0;

pub struct Options {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Why this run must not be reported: a guard tripped or the oracle
    /// found a mismatch. Empty on a good run.
    pub refusals: Vec<String>,
    pub wall_s: f64,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.refusals.is_empty()
    }
}

/// A directory that exists for as long as the guard does.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(path: PathBuf) -> Self {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("the output directory is writable");
        ScratchDir(path)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running engine and what fronts it. Fields drop in order: the wire
/// client, its server, the engine (joining its threads), then the persist
/// directory.
struct Served {
    wire: Option<(NetClient, NetServer)>,
    engine: Arc<ShardedEngine>,
    dir: Option<ScratchDir>,
}

/// The engine counters a measured phase is the difference of.
#[derive(Clone, Copy, Default)]
struct Counters {
    completed: u64,
    shed: u64,
    timed_out: u64,
    lookups: u64,
    device_reads: u64,
    bytes_written: u64,
    cache: CacheMetrics,
    batches: u64,
    batched_requests: u64,
    depth_completed: u64,
    depth_weight: u64,
    busy_s: f64,
    pool_acquires: u64,
    pool_reuses: u64,
    ticks: u64,
    relayout_applied: u64,
    rebudget_applied: u64,
    tuner_swaps: u64,
    /// Totals of the engine's lifetime histograms (mean × count), the one
    /// form in which they can be differenced: `latency_s` over the
    /// `completed` requests; `queue_wait_s` and `device_s` over `jobs`, the
    /// parts requests split into, one per shard they touch.
    latency_s: f64,
    jobs: u64,
    queue_wait_s: f64,
    device_s: f64,
}

impl Counters {
    fn read(m: &EngineMetrics) -> Self {
        Counters {
            completed: m.completed,
            shed: m.shed,
            timed_out: m.timed_out,
            lookups: m.lookups,
            device_reads: m.per_shard.iter().map(|s| s.device_reads).sum(),
            bytes_written: m.per_shard.iter().map(|s| s.bytes_written).sum(),
            cache: m.cache,
            batches: m.batching.batches,
            batched_requests: m.batching.batched_requests,
            depth_completed: m.batching.depth.completed,
            depth_weight: m.batching.depth.depth_weight,
            busy_s: m.batching.depth.busy_s,
            pool_acquires: m.pool.acquires,
            pool_reuses: m.pool.reuses,
            ticks: m.control_ticks,
            relayout_applied: m.relayout_applied,
            rebudget_applied: m.rebudget_applied,
            tuner_swaps: m.tuner_swaps,
            latency_s: m.latency.mean_s * m.latency.count as f64,
            jobs: m.queue_wait.count,
            queue_wait_s: m.queue_wait.mean_s * m.queue_wait.count as f64,
            device_s: m.device_time.mean_s * m.device_time.count as f64,
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            completed: self.completed - before.completed,
            shed: self.shed - before.shed,
            timed_out: self.timed_out - before.timed_out,
            lookups: self.lookups - before.lookups,
            device_reads: self.device_reads - before.device_reads,
            bytes_written: self.bytes_written - before.bytes_written,
            cache: CacheMetrics {
                lookups: self.cache.lookups - before.cache.lookups,
                hits: self.cache.hits - before.cache.hits,
                misses: self.cache.misses - before.cache.misses,
                block_reads: self.cache.block_reads - before.cache.block_reads,
                prefetches_admitted: self.cache.prefetches_admitted
                    - before.cache.prefetches_admitted,
                prefetch_hits: self.cache.prefetch_hits - before.cache.prefetch_hits,
                evictions: self.cache.evictions - before.cache.evictions,
            },
            batches: self.batches - before.batches,
            batched_requests: self.batched_requests - before.batched_requests,
            depth_completed: self.depth_completed - before.depth_completed,
            depth_weight: self.depth_weight - before.depth_weight,
            busy_s: self.busy_s - before.busy_s,
            pool_acquires: self.pool_acquires - before.pool_acquires,
            pool_reuses: self.pool_reuses - before.pool_reuses,
            ticks: self.ticks - before.ticks,
            relayout_applied: self.relayout_applied - before.relayout_applied,
            rebudget_applied: self.rebudget_applied - before.rebudget_applied,
            tuner_swaps: self.tuner_swaps - before.tuner_swaps,
            latency_s: self.latency_s - before.latency_s,
            jobs: self.jobs - before.jobs,
            queue_wait_s: self.queue_wait_s - before.queue_wait_s,
            device_s: self.device_s - before.device_s,
        }
    }
}

/// What distinguishes the arms of a run.
#[derive(Clone, Copy)]
struct ArmPlan {
    /// Harness spans, the engine's flight recorder and allocation counting.
    traced: bool,
    /// `drift_control`'s controllers (its controllers-off arm: `false`).
    controllers: bool,
    setups: usize,
    /// The full oracle: post-run sweep, and recovery for a controlled
    /// workload. Comparison arms only measure.
    verify: bool,
}

/// What the generator thread measured on one arm.
struct Driven {
    measured: Phase,
    /// Engine counters over the counted window of the measured phase: its
    /// first `counted_requests` in a closed loop, all of it in the open loop.
    delta: Counters,
    /// Seconds the counted window took.
    delta_wall_s: f64,
    /// Engine metrics at the end of the measured phase.
    after: EngineMetrics,
    allocations: u64,
    /// Warm-up, measured phase, sweeps and recovery checks together.
    attempted: u64,
    failed: u64,
    refusals: Vec<String>,
}

/// One arm of a run.
struct Arm {
    setup_s: Vec<f64>,
    build_s: f64,
    engine_start_s: f64,
    driven: Driven,
    prometheus_s: f64,
    recover_s: f64,
    probes: Values,
}

fn persist_path(tag: &str) -> PathBuf {
    Path::new(OUT_DIR).join(format!("persist-{}-{tag}", std::process::id()))
}

fn build_store(opts: &Options, inputs: &Inputs) -> BandanaStore {
    let config = workloads::store_config(opts.kind, opts.seed);
    BandanaStore::build(&inputs.spec, &inputs.embeddings, &inputs.training, config)
        .expect("the workload's store builds")
}

/// Builds the store, starts the engine and, for the wire workload, the
/// server and the client connection. Returns what is now serving with the
/// seconds the whole set-up, the store build and the engine start took.
fn set_up(
    opts: &Options,
    inputs: &Inputs,
    plan: ArmPlan,
    tag: &str,
    tracer: &mut Tracer,
) -> (Served, f64, f64, f64) {
    let kind = opts.kind;
    let dir = kind.controlled().then(|| ScratchDir::create(persist_path(tag)));
    let root = tracer.begin("setup", None);
    let (store, build_s) = tracer.time("core.build", Some(root), || build_store(opts, inputs));
    let config = workloads::serve_config(
        kind,
        opts.seed,
        plan.controllers,
        plan.traced,
        dir.as_ref().map(|d| d.0.as_path()),
    );
    let (engine, engine_start_s) = tracer.time("serve.engine_start", Some(root), || {
        Arc::new(ShardedEngine::new(store, config).expect("the engine starts"))
    });
    let wire = kind.wire().then(|| {
        let (pair, _) = tracer.time("serve_net.start", Some(root), || {
            let server = NetServer::start(Arc::clone(&engine), NetServerConfig::default())
                .expect("the server binds a loopback port");
            let client = NetClient::connect(server.local_addr(), TenantId::DEFAULT, WIRE_IN_FLIGHT)
                .expect("the client connects over loopback");
            (client, server)
        });
        pair
    });
    let setup_s = tracer.end(root);
    (Served { wire, engine, dir }, setup_s, build_s, engine_start_s)
}

/// One single-table request per [`SWEEP_IDS_PER_REQUEST`] ids, covering
/// every vector of every table.
fn sweep_requests(spec: &ModelSpec) -> Vec<Request> {
    let mut out = Vec::new();
    for (t, table) in spec.tables.iter().enumerate() {
        let ids: Vec<u32> = (0..table.num_vectors).collect();
        for chunk in ids.chunks(SWEEP_IDS_PER_REQUEST) {
            out.push(Request { queries: vec![TableQuery::new(t, chunk.to_vec())] });
        }
    }
    out
}

fn sweep<B: Backend>(backend: &B, spec: &ModelSpec, oracle: &Oracle) -> Phase {
    let requests = sweep_requests(spec);
    let replay = Replay { pool: &requests, start_at: 0, check_every: 1, oracle };
    closed_loop(backend, replay, Stop::Count(requests.len()), &mut Tracer::new(false), &mut [])
}

/// Warm-up, the measured phase and (when verifying) the sweep, through
/// whichever backend the workload uses.
fn drive<B: Backend>(
    backend: &B,
    engine: &ShardedEngine,
    opts: &Options,
    inputs: &Inputs,
    oracle: &Oracle,
    plan: ArmPlan,
    tracer: &mut Tracer,
) -> Driven {
    let mut refusals = Vec::new();
    let warm_up = {
        let span = tracer.begin("warm_up", None);
        let replay = Replay { pool: &inputs.pool, start_at: 0, check_every: 1, oracle };
        let stop = Stop::Count(WARMUP_REQUESTS);
        let phase = closed_loop(backend, replay, stop, &mut Tracer::new(false), &mut []);
        tracer.end(span);
        phase
    };
    let replay =
        Replay { pool: &inputs.pool, start_at: WARMUP_REQUESTS, check_every: CHECK_EVERY, oracle };

    let span = tracer.begin("measure", None);
    let before = Counters::read(&engine.metrics());
    let allocations_before = sys::allocations();
    sys::count_allocations(plan.traced);
    // A closed loop completes more requests the faster the system is, so
    // its counters are read after a fixed number of them: a count per
    // request must not move with speed. The open loop's schedule already
    // fixes its request count.
    let counted_requests = workloads::counted_requests(opts.kind);
    let mut counted = None;
    let started = Instant::now();
    let measured = if opts.kind.wire() {
        let schedule = workloads::schedule(opts.seed, opts.seconds);
        let span = Duration::from_secs_f64(opts.seconds);
        open_loop(backend, replay, &schedule, span, tracer)
    } else {
        let mut register = || {
            if opts.kind.controlled() {
                if let Err(e) = engine.register_tenant(LIVE_TENANT, TenantSpec::new(1)) {
                    refusals.push(format!("live tenant registration failed: {e}"));
                }
            }
        };
        let mut count = || {
            let now = Counters::read(&engine.metrics());
            counted = Some((now.since(before), started.elapsed().as_secs_f64()));
        };
        let marks: &mut [Mark] =
            &mut [(counted_requests / 2, &mut register), (counted_requests, &mut count)];
        let stop = Stop::After(Duration::from_secs_f64(opts.seconds));
        closed_loop(backend, replay, stop, tracer, marks)
    };
    sys::count_allocations(false);
    let allocations = sys::allocations() - allocations_before;
    let after = engine.metrics();
    tracer.end(span);
    let (delta, delta_wall_s) = if opts.kind.wire() {
        (Counters::read(&after).since(before), measured.wall_s)
    } else {
        counted.unwrap_or_else(|| {
            refusals.push(format!(
                "fewer than the {counted_requests} requests the counters are read over completed"
            ));
            (Counters::read(&after).since(before), measured.wall_s)
        })
    };

    let mut attempted = warm_up.attempted + measured.attempted;
    let mut failed = warm_up.failed + measured.failed;
    if plan.verify {
        let span = tracer.begin("sweep", None);
        let swept = sweep(backend, &inputs.spec, oracle);
        tracer.end(span);
        attempted += swept.attempted;
        failed += swept.failed;
    }
    Driven { measured, delta, delta_wall_s, after, allocations, attempted, failed, refusals }
}

/// Restarts a controlled workload from its persist directory and checks
/// what must have survived: the live-registered tenant, the journaled
/// layout, and every payload.
fn recover_and_check(
    opts: &Options,
    inputs: &Inputs,
    oracle: &Oracle,
    dir: &Path,
    relayouts: u64,
    tracer: &mut Tracer,
    arm: &mut Driven,
) -> f64 {
    let store = build_store(opts, inputs);
    let config = workloads::serve_config(opts.kind, opts.seed, true, false, Some(dir));
    let (engine, recover_s) = tracer.time("persist.recover", None, || {
        ShardedEngine::recover(store, config).expect("the engine recovers from its own directory")
    });

    if !engine.tenants().iter().any(|(id, _)| *id == LIVE_TENANT) {
        arm.refusals.push("the live-registered tenant did not survive recovery".into());
    } else {
        let client = engine.client(LIVE_TENANT).expect("the tenant is registered");
        let request = &inputs.pool[0];
        arm.attempted += 1;
        let served = client.call(request).ok().filter(|r| r.status.is_ok());
        if !served.is_some_and(|r| oracle.matches(request, &r.parts)) {
            arm.failed += 1;
        }
    }

    let snapshot = load_latest(dir).ok().flatten();
    let learned =
        snapshot.iter().flat_map(|(_, s)| &s.tables).filter(|t| !t.layout_order.is_empty());
    let mut journaled = 0;
    for table in learned {
        journaled += 1;
        let mut order = table.layout_order.clone();
        order.sort_unstable();
        if !order.iter().copied().eq(0..order.len() as u32) {
            arm.refusals
                .push(format!("table {}: the journaled layout is not a permutation", table.table));
        }
    }
    if relayouts > 0 && journaled == 0 {
        arm.refusals.push("re-layouts were applied but no snapshot journaled a layout".into());
    }

    let client = engine.client(TenantId::DEFAULT).expect("the default tenant exists");
    let swept = sweep(&client, &inputs.spec, oracle);
    arm.attempted += swept.attempted;
    arm.failed += swept.failed;
    recover_s
}

fn run_arm(
    opts: &Options,
    inputs: &Inputs,
    oracle: &Oracle,
    plan: ArmPlan,
    tracer: &mut Tracer,
) -> Arm {
    // Every set-up but the last is torn down at once: it is there to be
    // timed. The last one serves the run.
    let mut served = None;
    let (mut all_setup_s, mut build_s, mut engine_start_s) = (Vec::new(), 0.0, 0.0);
    for i in 0..plan.setups {
        drop(served.take());
        let (up, setup_s, b, e) = set_up(opts, inputs, plan, &i.to_string(), tracer);
        all_setup_s.push(setup_s);
        (build_s, engine_start_s) = (b, e);
        served = Some(up);
    }
    let Served { wire, engine, dir } = served.expect("a plan has at least one set-up");

    let mut driven = match &wire {
        Some((client, _)) => drive(client, &engine, opts, inputs, oracle, plan, tracer),
        None => {
            let client = engine.client(TenantId::DEFAULT).expect("the default tenant exists");
            drive(&client, &engine, opts, inputs, oracle, plan, tracer)
        }
    };

    let (mut prometheus_s, mut recover_s, mut probe_values) = (0.0, 0.0, Values::new());
    if plan.traced {
        let (text, seconds) = tracer.time("serve_obs.render_prometheus", None, || {
            render_prometheus(&engine.metrics(), &engine.snapshot())
        });
        std::hint::black_box(text);
        prometheus_s = seconds;
        let path = Path::new(OUT_DIR).join(format!("trace_{}_engine.json", opts.kind.name()));
        std::fs::write(path, engine.dump_trace()).expect("the output directory is writable");
    }
    if plan.verify && opts.kind.controlled() {
        // An orderly save, so the newest snapshot holds the final layout.
        if let Err(e) = engine.snapshot_now() {
            driven.refusals.push(format!("the final snapshot failed: {e}"));
        }
    }
    let relayouts = engine.metrics().relayout_applied;
    drop(wire);
    drop(engine);

    if plan.verify {
        if let Some(dir) = &dir {
            recover_s =
                recover_and_check(opts, inputs, oracle, &dir.0, relayouts, tracer, &mut driven);
        }
    }
    if plan.traced {
        let scratch = ScratchDir::create(persist_path("probe"));
        let persist_dir = dir.as_ref().map(|d| d.0.as_path());
        probe_values = probes::run(opts.kind, opts.seed, inputs, tracer, persist_dir, &scratch.0);
    }
    Arm {
        setup_s: all_setup_s,
        build_s,
        engine_start_s,
        driven,
        prometheus_s,
        recover_s,
        probes: probe_values,
    }
}

/// Completed-OK requests per second: in a closed loop the median over the
/// slices; in the open loop, whose schedule decides how many arrivals a slice
/// holds, that of the whole phase, first submit to last completion.
fn throughput(kind: Kind, phase: &Phase, seconds: f64) -> f64 {
    if kind.wire() {
        return ratio(phase.samples.len() as f64, phase.wall_s);
    }
    let slice_s = seconds / SLICES as f64;
    let cut = stats::slices(&phase.samples, seconds);
    stats::median_over_slices(&cut, |_, slice| slice.len() as f64 / slice_s)
}

/// Percentile `q` of `field` in milliseconds: the median over the slices.
fn percentile_ms(cut: &[Vec<Sample>], q: f64, field: impl Fn(&Sample) -> f64) -> f64 {
    stats::median_over_slices(cut, |_, slice| stats::field_percentile(slice, q, &field)) * 1e3
}

/// The 99th percentile of the caller's latency in milliseconds, in the least
/// disturbed slice.
fn latency_p99_ms(cut: &[Vec<Sample>]) -> f64 {
    stats::lowest_over_slices(cut, |slice| stats::field_percentile(slice, 0.99, |x| x.latency_s))
        * 1e3
}

/// Process CPU milliseconds per completed request: the median over the
/// slices.
fn cpu_ms_per_request(phase: &Phase, seconds: f64) -> f64 {
    let cut = stats::slices(&phase.samples, seconds);
    stats::median_over_slices(&cut, |i, slice| {
        (phase.cpu_at[i + 1] - phase.cpu_at[i]) * 1e3 / slice.len() as f64
    })
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// The per-layer ledger of a traced run: counters over the counted window
/// of the traced arm `arm`, comparisons with the `plain` (untraced) and
/// `uncontrolled` (controllers off) arms, and the probes.
fn per_layer_values(
    opts: &Options,
    arm: &Arm,
    plain: &Arm,
    uncontrolled: Option<&Arm>,
    cut: &[Vec<Sample>],
) -> Values {
    let kind = opts.kind;
    let run = &arm.driven;
    let ok = run.measured.samples.len() as f64;
    let d = run.delta;
    let completed = d.completed as f64;
    let block_bytes = workloads::store_config(kind, opts.seed).block_size as f64;
    // Percentiles of what each `Response` reports. A `NetResponse` carries
    // no breakdown, so on the wire these are 0; the engine's own histograms
    // cannot stand in, for they span its lifetime and only their totals can
    // be differenced (the means below).
    let p50 = |field: fn(&Sample) -> f64| percentile_ms(cut, 0.50, field);
    let p99 = |field: fn(&Sample) -> f64| percentile_ms(cut, 0.99, field);
    let whole = |q: f64| stats::field_percentile(&run.measured.samples, q, |x| x.latency_s) * 1e3;
    let traced_rps = throughput(kind, &run.measured, opts.seconds);
    // What tracing costs: throughput lost in a closed loop; in the open loop,
    // whose schedule fixes the throughput, processor time gained.
    let trace_overhead = if kind.wire() {
        let cpu = |arm: &Arm| cpu_ms_per_request(&arm.driven.measured, opts.seconds);
        ratio(cpu(arm), cpu(plain)) - 1.0
    } else {
        1.0 - ratio(traced_rps, throughput(kind, &plain.driven.measured, opts.seconds))
    };
    let mut values = vec![
        ("cache.hit_rate", d.cache.hit_rate()),
        ("cache.evictions_per_request", ratio(d.cache.evictions as f64, completed)),
        ("cache.prefetch_usefulness", d.cache.prefetch_usefulness()),
        ("core.build_s", arm.build_s),
        ("nvm_sim.reads_per_lookup", ratio(d.device_reads as f64, d.lookups as f64)),
        ("nvm_sim.mean_queue_depth", ratio(d.depth_weight as f64, d.depth_completed as f64)),
        // Each shard has a device of its own: their busy seconds add.
        ("nvm_sim.busy_share", ratio(d.busy_s, run.delta_wall_s * SHARDS as f64)),
        // Summed over a request's parts: the device time a request consumes.
        ("nvm_sim.device_ms_per_request", ratio(d.device_s * 1e3, completed)),
        ("nvm_sim.pool_reuse_rate", ratio(d.pool_reuses as f64, d.pool_acquires as f64)),
        ("nvm_sim.bytes_written", d.bytes_written as f64),
        (
            "nvm_sim.written_blocks_per_kreq",
            ratio(d.bytes_written as f64 / block_bytes * 1e3, completed),
        ),
        ("serve.queue_wait_ms_mean", ratio(d.queue_wait_s * 1e3, d.jobs as f64)),
        ("serve.queue_wait_ms_p50", p50(|x| x.queue_wait_s)),
        ("serve.queue_wait_ms_p99", p99(|x| x.queue_wait_s)),
        ("serve.service_ms_p50", p50(|x| x.service_s)),
        ("serve.software_ms_p50", p50(|x| x.service_s - x.device_s)),
        ("serve.mean_batch", ratio(d.batched_requests as f64, d.batches as f64)),
        ("serve.largest_batch", run.after.batching.largest_batch as f64),
        ("serve.submit_us", p50(|x| x.submit_s) * 1e3),
        ("serve.allocs_per_request", ratio(run.allocations as f64, ok)),
        ("serve.engine_start_ms", arm.engine_start_s * 1e3),
        ("serve.shed_total", d.shed as f64),
        ("serve.timed_out_total", d.timed_out as f64),
        ("serve_control.ticks_per_s", ratio(d.ticks as f64, run.delta_wall_s)),
        ("serve_obs.trace_overhead_share", trace_overhead),
        ("serve_obs.render_prometheus_ms", arm.prometheus_s * 1e3),
        ("persist.recover_ms", arm.recover_s * 1e3),
        ("harness.gen_lateness_ms_p99", p99(|x| x.late_s)),
        ("harness.latency_p99_slice_median_ms", p99(|x| x.latency_s)),
        ("harness.latency_p99_run_ms", whole(0.99)),
        ("harness.latency_max_ms", whole(1.0)),
    ];
    if kind.wire() {
        // The client's submit → receipt clock against the engine's own
        // admission → completion clock, over the same requests.
        let client_ms = stats::field_mean(&run.measured.samples, |x| x.e2e_s) * 1e3;
        values.push(("serve_net.overhead_ms", client_ms - ratio(d.latency_s * 1e3, completed)));
    }
    if let Some(off) = uncontrolled {
        let off = &off.driven;
        let off_reads = ratio(off.delta.device_reads as f64, off.delta.completed as f64);
        let on_reads = ratio(d.device_reads as f64, completed);
        let per_kreq = |n: u64| ratio(n as f64 * 1e3, completed);
        values.extend([
            ("serve_control.relayout_applied_per_kreq", per_kreq(d.relayout_applied)),
            ("serve_control.rebudget_applied_per_kreq", per_kreq(d.rebudget_applied)),
            ("serve_control.tuner_swaps_per_kreq", per_kreq(d.tuner_swaps)),
            (
                "serve_control.overhead_share",
                1.0 - ratio(traced_rps, throughput(kind, &off.measured, opts.seconds)),
            ),
            ("serve_control.reads_saved_share", 1.0 - ratio(on_reads, off_reads)),
        ]);
    }
    values.extend(arm.probes.iter().copied());
    values
}

/// Runs one workload and computes the metrics of its mode: the end-to-end
/// ones from an untraced run, the per-layer ones from a traced run.
pub fn run_workload(opts: &Options) -> Outcome {
    let started = Instant::now();
    let kind = opts.kind;
    let mut tracer = Tracer::new(opts.traced);
    let (inputs, gen_s) =
        tracer.time("trace.generate", None, || workloads::generate(kind, opts.seed, None));
    let oracle = Oracle::new(&inputs.embeddings);

    let mut refusals = Vec::new();
    if sys::nproc() < SHARDS {
        refusals.push(format!("{} cores: the benchmark needs {SHARDS}", sys::nproc()));
    }

    // A traced run first measures plain arms to compare with: the same
    // workload untraced and, for a controlled workload, with the
    // controllers off. Their spans are not kept.
    let compare = ArmPlan { traced: false, controllers: true, setups: 1, verify: false };
    let plain =
        opts.traced.then(|| run_arm(opts, &inputs, &oracle, compare, &mut Tracer::new(false)));
    let uncontrolled = (opts.traced && kind.controlled()).then(|| {
        let plan = ArmPlan { traced: true, controllers: false, ..compare };
        run_arm(opts, &inputs, &oracle, plan, &mut Tracer::new(true))
    });
    let plan = ArmPlan {
        traced: opts.traced,
        controllers: true,
        setups: if opts.traced { 1 } else { SETUPS },
        verify: true,
    };
    let arm = run_arm(opts, &inputs, &oracle, plan, &mut tracer);
    let run = &arm.driven;
    refusals.extend(run.refusals.iter().cloned());

    let cut = stats::slices(&run.measured.samples, opts.seconds);
    let fullest = cut.iter().map(Vec::len).max().unwrap_or(0);
    if !kind.wire() && fullest < MIN_SLICE_SAMPLES {
        refusals.push(format!(
            "the fullest closed-loop slice holds {fullest} samples, fewer than {MIN_SLICE_SAMPLES}"
        ));
    }
    // The statistic `harness.gen_lateness_ms_p99` reports.
    let lateness_ms = percentile_ms(&cut, 0.99, |x| x.late_s);
    if lateness_ms > MAX_LATENESS_MS {
        refusals.push(format!(
            "the open-loop generator ran {lateness_ms:.3} ms late at p99, more than {MAX_LATENESS_MS} ms"
        ));
    }
    if run.failed > 0 {
        refusals.push(format!("{} of {} requests failed or mismatched", run.failed, run.attempted));
    }

    let values = if opts.traced {
        let path = Path::new(OUT_DIR).join(format!("trace_{}.json", kind.name()));
        std::fs::write(path, tracer.chrome_json()).expect("the output directory is writable");
        let plain = plain.expect("a traced run has a plain arm");
        let mut values = per_layer_values(opts, &arm, &plain, uncontrolled.as_ref(), &cut);
        values.push(("trace.gen_s", gen_s));
        values
    } else {
        let d = run.delta;
        vec![
            ("setup_s", stats::median(&mut arm.setup_s.clone())),
            ("throughput_rps", throughput(kind, &run.measured, opts.seconds)),
            ("latency_p50_ms", percentile_ms(&cut, 0.50, |x| x.latency_s)),
            ("latency_p99_ms", latency_p99_ms(&cut)),
            ("nvm_reads_per_request", ratio(d.device_reads as f64, d.completed as f64)),
            ("cpu_ms_per_request", cpu_ms_per_request(&run.measured, opts.seconds)),
            ("peak_rss_mb", sys::peak_rss_mb()),
        ]
    };

    let table: Vec<(&str, &str)> = if opts.traced {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|&(name, unit, _)| (name, unit)).collect()
    };
    let mut by_name: BTreeMap<&str, f64> = values.into_iter().collect();
    let metrics = table
        .into_iter()
        // A layer the workload does not use reports 0.
        .map(|(name, unit)| Metric { name, value: by_name.remove(name).unwrap_or(0.0), unit })
        .collect();
    assert!(by_name.is_empty(), "computed metrics BENCHMARK.json does not name: {by_name:?}");

    Outcome {
        attempted: arm.driven.attempted,
        failed: arm.driven.failed,
        metrics,
        refusals,
        wall_s: started.elapsed().as_secs_f64(),
    }
}
