//! The shard-per-worker serving engine.
//!
//! [`ShardedEngine`] decomposes a built [`BandanaStore`] into shards, each
//! owning a **disjoint set of tables** plus its own replica of the
//! simulated NVM device, behind a tenant-aware
//! [`WeightedQueue`] (one bounded lane per
//! registered tenant, strict priority across classes, deficit
//! round-robin within a class) drained by a dedicated worker thread. A
//! dispatcher splits every incoming [`Request`] into per-shard parts
//! (one per table query), coalesces duplicate vector ids inside each
//! query so a repeated id costs one lookup, and merges the shard results
//! back in request order. Callers reach the engine through per-tenant
//! [`Client`] sessions whose submissions return
//! [`ResponseTicket`](crate::ResponseTicket) futures; the legacy
//! [`serve`](ShardedEngine::serve)/[`submit`](ShardedEngine::submit)
//! wrappers delegate to the default tenant.
//!
//! Latency is accounted per shard with mergeable
//! [`LatencyHistogram`]s — queue wait, per-shard service time, and
//! end-to-end request latency — so [`ShardedEngine::metrics`] can report
//! p50/p95/p99/p999 across the whole engine without any shared hot-path
//! lock. Overload behaviour is explicit: bounded queues plus a
//! [`ShedPolicy`] and an optional admission deadline give drop/timeout
//! counters instead of unbounded queueing.
//!
//! Table-to-shard placement is static (greedy balance by training-time
//! lookup mass). Feedback is centralized in the
//! [control plane](crate::control): a metrics-bus thread rotates the
//! per-tenant recent-latency windows, snapshots the engine each tick, and
//! runs the registered [`Controller`]s — the online
//! [tuner](crate::tuner) hot-swapping admission thresholds, the
//! [`SloController`] shedding tenants whose recent-window p99 blows their
//! budget, and any caller-supplied controllers
//! ([`ShardedEngine::new_with_controllers`]).

use crate::budget::{BudgetInputs, BudgetSample, CacheBudgetController, CacheBudgetSettings};
use crate::control::{
    Action, ControlConfig, Controller, EngineSnapshot, ShardSnapshot, SloController,
    SloControllerConfig, TableCachePartition, TenantSnapshot,
};
use crate::gate::{DeviceGate, GateStats};
use crate::hist::{LatencyBreakdown, LatencyHistogram, LatencySummary, WindowedHistogram};
use crate::obs::{
    AuditEvent, AuditLog, RequestTrace, TraceConfig, TraceEvent, TraceEventKind, TraceRecorder,
    DEFAULT_AUDIT_CAPACITY,
};
use crate::queue::{LaneSpec, Pop, Push, ShedPolicy, WeightedQueue};
use crate::relayout::{
    BlocksPerRequestGauge, CoAccessSample, ReLayoutController, ReLayoutInputs, ReLayoutSettings,
};
use crate::tenant::{
    Client, PriorityClass, Response, ResponseStatus, ShedBreakdown, TenantId, TenantMetrics,
    TenantSpec,
};
use crate::tuner::{OnlineTunerSettings, TunerController, TunerTable};
use bandana_cache::{AdmissionPolicy, CacheMetrics, IdHashMap};
use bandana_core::{BandanaError, BandanaStore, BatchScratch, TableStore};
use bandana_partition::BlockLayout;
use bandana_persist::{
    KeyOrigin, PersistConfig, Persistence, SnapshotData, TableSnapshot, WalRecord,
};
use bandana_trace::{EmbeddingTable, Request};
use bytes::Bytes;
use nvm_sim::{
    BlockBufPool, BlockDevice, DepthStats, PoolStats, QueueDepthTracker, RebasedDevice,
    SparseDevice,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Capacity of the shard → tuner sample channel; overflow samples are
/// dropped (sampling is lossy by design).
const SAMPLE_CHANNEL_CAPACITY: usize = 1 << 16;

/// How long a worker sleeps on an empty queue before re-checking for
/// shutdown and tuner commands.
const IDLE_POLL: Duration = Duration::from_millis(2);

/// Configuration of a [`ShardedEngine`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of shard worker threads (tables are spread across them).
    pub num_shards: usize,
    /// Capacity of each **tenant lane** in each shard's queue, in
    /// requests — a shard can queue up to `tenants × queue_capacity`
    /// total, so one tenant's backlog never crowds out another's
    /// admission.
    pub queue_capacity: usize,
    /// What a full shard queue does with new work.
    pub shed_policy: ShedPolicy,
    /// If set, a request that has not *started* serving on a shard within
    /// this budget after submission is abandoned and counted as timed out.
    pub request_timeout: Option<Duration>,
    /// How long a shard keeps a micro-batch open after its first request,
    /// absorbing later arrivals so lookups from *different* requests merge
    /// into one deduplicated device submission. Zero (the default)
    /// disables cross-request batching.
    pub batch_window: Duration,
    /// Most requests merged into one micro-batch (1 = the single-read
    /// path: every request is its own device submission).
    pub max_batch: usize,
    /// When set, each shard charges its block reads through the device's
    /// [`QueueModel`](nvm_sim::QueueModel) with at most this many reads in
    /// flight (io_uring-style bounded submission), and the simulated
    /// device time actually elapses — latency histograms then reflect NVM
    /// queueing, not just host-side queueing. `None` (the default) keeps
    /// reads free, as before this knob existed.
    pub device_queue: Option<u32>,
    /// Enables the background admission-threshold tuner (re-homed as the
    /// first [`Controller`] on the engine's metrics bus).
    pub tuner: Option<OnlineTunerSettings>,
    /// Enables the online DRAM [cache budget controller](crate::budget):
    /// shard workers tee sampled cache probes onto the metrics bus, which
    /// maintains per-table hit-rate curves and periodically re-solves the
    /// DRAM split across tables against the fixed total budget, applying
    /// [`Action::SetCachePartition`] moves that clear a hysteresis bar.
    /// `None` (the default) keeps the build-time partition fixed.
    pub cache_budget: Option<CacheBudgetSettings>,
    /// Enables the online hot-block [re-layout controller](crate::relayout):
    /// shard workers tee sampled co-access records onto the metrics bus,
    /// which accumulates a windowed co-access hypergraph per table and,
    /// when observed blocks-per-request degrades past the configured
    /// threshold of the window's ideal, refines the hottest blocks'
    /// placement and applies it atomically ([`Action::ApplyLayout`]).
    /// `None` (the default) keeps the build-time layout fixed.
    pub relayout: Option<ReLayoutSettings>,
    /// Registered tenants beyond the always-present default tenant
    /// ([`TenantId::DEFAULT`]); see [`ServeConfig::with_tenant`].
    pub tenants: Vec<(TenantId, TenantSpec)>,
    /// Cadence and window geometry of the metrics bus (always running;
    /// the defaults suit most deployments).
    pub control: ControlConfig,
    /// Enables the [`SloController`]: tenants with a
    /// [`TenantSpec::slo_p99`] budget are shed at admission while their
    /// recent-window p99 is blown. `None` (the default) reports windowed
    /// latencies without acting on them.
    pub slo: Option<SloControllerConfig>,
    /// Flight-recorder request tracing: when enabled, one request in
    /// [`TraceConfig::sample_every`] has its lifecycle events recorded
    /// in preallocated per-shard rings, exportable with
    /// [`ShardedEngine::dump_trace`] /
    /// [`ShardedEngine::request_traces`]. Off by default.
    pub trace: TraceConfig,
    /// Crash-safe durability and warm restart: when set, the engine
    /// journals the table catalog and every tenant registration
    /// (build-time and live) to a write-ahead log in
    /// [`PersistConfig::dir`], and the metrics bus periodically installs
    /// snapshots of the warm state (cache keys, admission policies,
    /// per-shard endurance). Restart with [`ShardedEngine::recover`] to
    /// get the warm state back. `None` (the default) keeps the engine
    /// fully in-memory, exactly as before this knob existed.
    pub persist: Option<PersistConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            num_shards: 4,
            queue_capacity: 1024,
            shed_policy: ShedPolicy::Block,
            request_timeout: None,
            batch_window: Duration::ZERO,
            max_batch: 1,
            device_queue: None,
            tuner: None,
            cache_budget: None,
            relayout: None,
            tenants: Vec::new(),
            control: ControlConfig::default(),
            slo: None,
            trace: TraceConfig::default(),
            persist: None,
        }
    }
}

impl ServeConfig {
    /// Sets the shard count.
    pub fn with_shards(mut self, n: usize) -> Self {
        self.num_shards = n;
        self
    }

    /// Sets the capacity of each per-tenant lane in each shard's queue
    /// (a shard can hold up to `tenants × n` queued requests).
    pub fn with_queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n;
        self
    }

    /// Sets the overload policy.
    pub fn with_shed_policy(mut self, policy: ShedPolicy) -> Self {
        self.shed_policy = policy;
        self
    }

    /// Sets the admission deadline.
    pub fn with_request_timeout(mut self, timeout: Duration) -> Self {
        self.request_timeout = Some(timeout);
        self
    }

    /// Sets the micro-batching window (zero disables cross-request
    /// batching).
    pub fn with_batch_window(mut self, window: Duration) -> Self {
        self.batch_window = window;
        self
    }

    /// Sets the most requests merged into one micro-batch.
    pub fn with_max_batch(mut self, max: usize) -> Self {
        self.max_batch = max;
        self
    }

    /// Enables device-queue charging with the given in-flight read bound.
    pub fn with_device_queue(mut self, max_inflight: u32) -> Self {
        self.device_queue = Some(max_inflight);
        self
    }

    /// Enables online threshold re-tuning.
    pub fn with_tuner(mut self, settings: OnlineTunerSettings) -> Self {
        self.tuner = Some(settings);
        self
    }

    /// Enables the online DRAM cache budget controller (closed-loop
    /// re-partitioning of the fixed total cache budget across tables).
    pub fn with_cache_budget(mut self, settings: CacheBudgetSettings) -> Self {
        self.cache_budget = Some(settings);
        self
    }

    /// Enables the online hot-block re-layout controller (closed-loop
    /// incremental SHP refinement against live co-access traffic).
    pub fn with_relayout(mut self, settings: ReLayoutSettings) -> Self {
        self.relayout = Some(settings);
        self
    }

    /// Sets the metrics bus cadence and recent-window geometry.
    pub fn with_control(mut self, control: ControlConfig) -> Self {
        self.control = control;
        self
    }

    /// Enables SLO enforcement: registers an [`SloController`] on the
    /// metrics bus, which sheds any tenant at admission
    /// ([`ServeError::SloShed`]) while its recent-window p99 exceeds its
    /// [`TenantSpec::slo_p99`] budget.
    pub fn with_slo_controller(mut self, config: SloControllerConfig) -> Self {
        self.slo = Some(config);
        self
    }

    /// Enables flight-recorder request tracing (sampled per-request
    /// lifecycle events in preallocated per-shard rings; see
    /// [`TraceConfig`]).
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Enables crash-safe durability: WAL journaling of catalog and
    /// tenant-registry mutations plus periodic warm-state snapshots in
    /// [`PersistConfig::dir`]. Pair with [`ShardedEngine::recover`] for a
    /// warm restart.
    pub fn with_persist(mut self, persist: PersistConfig) -> Self {
        self.persist = Some(persist);
        self
    }

    /// Registers a tenant and its QoS contract. Each shard gives every
    /// tenant its own bounded queue lane, scheduled by strict priority
    /// across [`PriorityClass`]es and deficit round-robin on
    /// [`TenantSpec::weight`] within a class. Registering
    /// [`TenantId::DEFAULT`] overrides the default tenant's spec
    /// (weight 1, normal class, no quota) instead of adding a tenant.
    pub fn with_tenant(mut self, id: TenantId, spec: TenantSpec) -> Self {
        self.tenants.push((id, spec));
        self
    }

    fn validate(&self) -> Result<(), String> {
        if self.num_shards == 0 {
            return Err("need at least one shard".into());
        }
        if self.queue_capacity == 0 {
            return Err("queue capacity must be non-zero".into());
        }
        if self.max_batch == 0 {
            return Err("max batch must be at least 1".into());
        }
        if self.device_queue == Some(0) {
            return Err("device queue depth must be at least 1".into());
        }
        for (i, (id, spec)) in self.tenants.iter().enumerate() {
            spec.validate()?;
            if self.tenants[..i].iter().any(|(other, _)| other == id) {
                return Err(format!("{id} registered twice"));
            }
        }
        if let Some(t) = &self.tuner {
            t.validate()?;
        }
        if let Some(b) = &self.cache_budget {
            b.validate()?;
        }
        if let Some(r) = &self.relayout {
            r.validate()?;
        }
        self.control.validate()?;
        if let Some(s) = &self.slo {
            s.validate()?;
        }
        self.trace.validate()?;
        Ok(())
    }
}

/// Errors surfaced by the serving API.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// The request was shed at admission (a shard queue was full under
    /// [`ShedPolicy::DropNewest`]).
    Rejected,
    /// The request was shed at admission because its tenant reached its
    /// [`admission quota`](TenantSpec::admission_quota).
    QuotaExceeded,
    /// The request was shed at admission by the
    /// [`SloController`]: the tenant's
    /// recent-window p99 currently exceeds its
    /// [`slo_p99`](TenantSpec::slo_p99) budget, so new work is refused
    /// early instead of queueing toward a latency that would violate the
    /// SLO anyway.
    SloShed,
    /// The request missed its deadline ([`ServeConfig::request_timeout`]
    /// or the per-request override).
    TimedOut,
    /// The engine is shutting down.
    ShuttingDown,
    /// The tenant was never registered with
    /// [`ServeConfig::with_tenant`].
    UnknownTenant(TenantId),
    /// The ticket's response was already taken
    /// (see [`ResponseTicket`](crate::ResponseTicket)).
    TicketTaken,
    /// A live tenant registration
    /// ([`ShardedEngine::register_tenant`]) was refused: the id is
    /// already registered or the spec is invalid.
    InvalidTenant(String),
    /// The durability subsystem failed (WAL append, snapshot install, or
    /// persistence not configured for the requested operation).
    Persist(String),
    /// A table/vector reference was invalid or the device failed.
    Store(BandanaError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Rejected => write!(f, "request shed: shard queue full"),
            ServeError::QuotaExceeded => {
                write!(f, "request shed: tenant admission quota exhausted")
            }
            ServeError::SloShed => {
                write!(f, "request shed: tenant over its recent-window p99 SLO budget")
            }
            ServeError::TimedOut => write!(f, "request timed out before serving started"),
            ServeError::ShuttingDown => write!(f, "engine is shutting down"),
            ServeError::UnknownTenant(id) => write!(f, "{id} is not registered with the engine"),
            ServeError::TicketTaken => write!(f, "response already taken from this ticket"),
            ServeError::InvalidTenant(why) => write!(f, "tenant registration refused: {why}"),
            ServeError::Persist(why) => write!(f, "persistence error: {why}"),
            ServeError::Store(e) => write!(f, "store error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BandanaError> for ServeError {
    fn from(e: BandanaError) -> Self {
        ServeError::Store(e)
    }
}

/// A command hot-swapped into a shard between micro-batches — the
/// write side of the control plane: [`Action`]s a controller returns are
/// translated into these and applied by the worker at a safe point.
#[derive(Debug)]
pub(crate) enum ShardCommand {
    /// Replace one table's admission policy.
    SetPolicy {
        /// Table id (owned by the receiving shard).
        table: usize,
        /// The new policy.
        policy: AdmissionPolicy,
        /// Shadow-cache multiplier for policies that need one.
        shadow_multiplier: f64,
    },
    /// Retune the worker's cross-request micro-batch window.
    SetBatchWindow {
        /// The new window (zero disables cross-request batching).
        window: Duration,
    },
    /// Re-size one table's DRAM cache to its newly solved budget share
    /// (grow admits immediately; shrink evicts coldest-first).
    SetCachePartition {
        /// Table id (owned by the receiving shard).
        table: usize,
        /// The new cache capacity in entries.
        entries: usize,
    },
    /// Capture the shard's warm state (cache keys, policies, endurance)
    /// for a persistence snapshot, between micro-batches so the capture
    /// is internally consistent per shard.
    CollectSnapshot {
        /// Where the shard sends its captured parts.
        reply: mpsc::Sender<ShardSnapshotParts>,
    },
    /// Rewrite one table's embeddings on the shard's device — §2.2
    /// retraining, the deliberate drive-write source charged to the
    /// shard's endurance meter.
    Retrain {
        /// Table id (owned by the receiving shard).
        table: usize,
        /// The freshly trained embeddings.
        embeddings: Arc<EmbeddingTable>,
        /// Completion/err channel back to the caller.
        reply: mpsc::Sender<Result<(), BandanaError>>,
    },
    /// Atomically remap one table onto a refined block layout, between
    /// micro-batches. Rewritten blocks are real device writes charged to
    /// the shard's endurance meter; cached entries survive the remap.
    ApplyLayout {
        /// Table id (owned by the receiving shard).
        table: usize,
        /// The full placement order: `order[position] = vector id`.
        order: Vec<u32>,
    },
}

/// One shard's contribution to a persistence snapshot.
#[derive(Debug)]
pub(crate) struct ShardSnapshotParts {
    shard: usize,
    /// Cumulative bytes written to the shard's dense device.
    endurance_bytes: u64,
    tables: Vec<TableSnapshot>,
}

/// The slice of a recovered snapshot one shard applies before it starts
/// draining its queue (cache rehydration happens before admission opens).
struct ShardRecovered {
    /// Restored endurance counter, when the snapshot's shard geometry
    /// matches the engine's (sharding is deterministic, so it normally
    /// does).
    endurance_bytes: Option<u64>,
    /// The snapshot's tables owned by this shard.
    tables: Vec<TableSnapshot>,
}

/// The per-shard slice of one request: one entry per table query routed to
/// that shard, with duplicate ids coalesced.
#[derive(Debug)]
struct Part {
    /// Index of the originating query inside the request.
    query_index: usize,
    /// The table this part reads.
    table: usize,
    /// Distinct ids, first-occurrence order.
    unique_ids: Vec<u32>,
    /// For each original id position, its index into `unique_ids`.
    expand: Vec<usize>,
}

#[derive(Debug)]
pub(crate) struct JobState {
    /// Per-query payloads (only filled when the submitter asked for them).
    pub(crate) results: Vec<Option<Vec<Bytes>>>,
    /// First store error hit by any shard.
    pub(crate) error: Option<BandanaError>,
    pub(crate) done: bool,
    /// Submission → completion, set when the job finishes.
    pub(crate) e2e: Duration,
    /// Host queue wait of the slowest involved shard.
    pub(crate) queue_wait: Duration,
    /// Simulated device seconds charged by the slowest involved shard.
    pub(crate) device_s: f64,
    /// Service time of the slowest involved shard.
    pub(crate) service: Duration,
}

/// One in-flight request (the completion state a
/// [`ResponseTicket`](crate::ResponseTicket) polls).
pub(crate) struct Job {
    arrival: Instant,
    deadline: Option<Instant>,
    /// Index into [`Shared::tenants`].
    tenant: usize,
    /// Flight-recorder trace id assigned at admission (`0` = unsampled).
    trace: u64,
    parts_by_shard: Vec<Vec<Part>>,
    /// Parts not yet finished (counts enqueued shards).
    remaining: AtomicUsize,
    cancelled: AtomicBool,
    timed_out: AtomicBool,
    want_payloads: bool,
    pub(crate) state: Mutex<JobState>,
    pub(crate) done_cv: Condvar,
}

/// Drains a finished job's state into a typed [`Response`]; payloads are
/// moved out, so this runs at most once per job (the ticket enforces it).
pub(crate) fn take_response(job: &Job) -> Response {
    let mut st = job.state.lock().expect("job lock");
    debug_assert!(st.done, "take_response on an unfinished job");
    let status = if job.timed_out.load(Ordering::Acquire) {
        ResponseStatus::TimedOut
    } else if let Some(e) = st.error.clone() {
        ResponseStatus::Failed(e)
    } else {
        ResponseStatus::Ok
    };
    let parts = if status.is_ok() {
        st.results.iter_mut().map(|slot| slot.take().unwrap_or_default()).collect()
    } else {
        Vec::new()
    };
    Response {
        parts,
        status,
        e2e: st.e2e,
        queue_wait: st.queue_wait,
        device: Duration::from_secs_f64(st.device_s),
        service: st.service,
    }
}

struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    timed_out: AtomicU64,
    failed: AtomicU64,
    lookups_served: AtomicU64,
    tuner_swaps: AtomicU64,
    control_ticks: AtomicU64,
    control_actions: AtomicU64,
    /// Budget-controller re-solves of the DRAM partition (each one
    /// re-runs `allocate_dram` against fresh online curves).
    rebudget_solves: AtomicU64,
    /// [`Action::SetCachePartition`]s actually routed to a shard (solves
    /// whose targets cleared the hysteresis bar).
    rebudget_applied: AtomicU64,
    /// Re-layout controller refinement solves (windows whose observed
    /// blocks-per-request cleared the degradation bar).
    relayout_solves: AtomicU64,
    /// [`Action::ApplyLayout`]s actually routed to a shard (solves whose
    /// refinement packed the window's edges into fewer blocks).
    relayout_applied: AtomicU64,
    /// Blocks rewritten on-device by applied re-layouts.
    relayout_rewritten_blocks: AtomicU64,
    /// Blocks per request over the freshest window any table completed.
    relayout_bpr: BlocksPerRequestGauge,
    /// Samples each tap handed its controller's channel, and samples it
    /// dropped on a full one: `[sent, dropped]`, indexed by [`Tap`].
    taps: [[AtomicU64; 2]; 3],
}

impl Counters {
    fn new() -> Self {
        Counters {
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            lookups_served: AtomicU64::new(0),
            tuner_swaps: AtomicU64::new(0),
            control_ticks: AtomicU64::new(0),
            control_actions: AtomicU64::new(0),
            rebudget_solves: AtomicU64::new(0),
            rebudget_applied: AtomicU64::new(0),
            relayout_solves: AtomicU64::new(0),
            relayout_applied: AtomicU64::new(0),
            relayout_rewritten_blocks: AtomicU64::new(0),
            relayout_bpr: BlocksPerRequestGauge::default(),
            taps: Default::default(),
        }
    }
}

/// A shard worker's lossy sampling taps, one per controller that reads the
/// lookup stream. Each sends into a bounded channel with `try_send` and
/// drops a sample the channel has no room for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tap {
    /// `(table, vector)` samples for the online threshold tuner.
    Tuner,
    /// Tenant-tagged samples for the cache budget controller.
    Budget,
    /// Whole-part co-access samples for the re-layout controller.
    CoAccess,
}

impl Tap {
    /// Every tap, in [`EngineMetrics::taps`] order.
    pub const ALL: [Tap; 3] = [Tap::Tuner, Tap::Budget, Tap::CoAccess];

    /// The `tap` label of the exported `bandana_tap_*_total` series.
    pub fn label(self) -> &'static str {
        match self {
            Tap::Tuner => "tuner",
            Tap::Budget => "budget",
            Tap::CoAccess => "coaccess",
        }
    }
}

/// What one sampling [`Tap`] offered its controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TapCounts {
    /// Samples the channel accepted.
    pub sent: u64,
    /// Samples dropped because the channel was full (or its controller
    /// gone). The share dropped grows with load: it is not a sampling rate.
    pub dropped: u64,
}

impl TapCounts {
    /// Offers `sample` to `tx` without blocking and counts the outcome.
    fn offer<T>(&mut self, tx: &mpsc::SyncSender<T>, sample: T) {
        match tx.try_send(sample) {
            Ok(()) => self.sent += 1,
            Err(_) => self.dropped += 1,
        }
    }
}

/// Shard-thread statistics, read by [`ShardedEngine::metrics`].
#[derive(Debug, Default)]
struct ShardStats {
    served_requests: u64,
    lookups: u64,
    queue_wait: LatencyHistogram,
    service: LatencyHistogram,
    /// Simulated device time charged to each served request's batch.
    device: LatencyHistogram,
    /// End-to-end latency of requests whose *last* part finished on this
    /// shard; merging across shards gives the full distribution.
    e2e: LatencyHistogram,
    cache: CacheMetrics,
    device_reads: u64,
    /// Micro-batches that served at least one request.
    batches: u64,
    /// Requests served across those batches.
    batched_requests: u64,
    /// Most requests ever merged into one batch.
    largest_batch: u64,
    /// Device submission accounting (zeros when no device queue is
    /// configured).
    depth: DepthStats,
    /// The worker's device gate: how long it stalled waiting for reads its
    /// CPU work had not covered, slept and yielded.
    gate: GateStats,
    /// Dense rebased device capacity in blocks (static per shard).
    capacity_blocks: u64,
    /// Bytes written to the shard's dense device (endurance accounting).
    bytes_written: u64,
    /// Cumulative full rewrites of the shard's dense device.
    drive_writes: f64,
    /// Block-buffer pool accounting for the shard's read path.
    pool: PoolStats,
}

/// One registered tenant's runtime state: its spec plus lock-free
/// admission counters (aggregate shed and the per-reason breakdown) and
/// two end-to-end latency histograms — cumulative and recent-window (the
/// latter rotated by the metrics bus).
pub(crate) struct TenantRuntime {
    id: TenantId,
    spec: TenantSpec,
    outstanding: AtomicU64,
    submitted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    shed_lane_full: AtomicU64,
    shed_quota: AtomicU64,
    shed_slo: AtomicU64,
    reclaimed: AtomicU64,
    timed_out: AtomicU64,
    failed: AtomicU64,
    /// Set by the SLO controller: while true, new submissions are shed at
    /// admission with [`ServeError::SloShed`].
    slo_shed: AtomicBool,
    e2e: Mutex<LatencyHistogram>,
    recent: Mutex<WindowedHistogram>,
}

impl TenantRuntime {
    fn new(id: TenantId, spec: TenantSpec, window_slots: usize) -> Self {
        TenantRuntime {
            id,
            spec,
            outstanding: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            shed_lane_full: AtomicU64::new(0),
            shed_quota: AtomicU64::new(0),
            shed_slo: AtomicU64::new(0),
            reclaimed: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            slo_shed: AtomicBool::new(false),
            e2e: Mutex::new(LatencyHistogram::new()),
            recent: Mutex::new(WindowedHistogram::new(window_slots)),
        }
    }

    /// The tenant's shed breakdown from the lock-free counters.
    fn shed_breakdown(&self) -> ShedBreakdown {
        ShedBreakdown {
            lane_full: self.shed_lane_full.load(Ordering::Relaxed),
            quota: self.shed_quota.load(Ordering::Relaxed),
            slo: self.shed_slo.load(Ordering::Relaxed),
            reclaimed: self.reclaimed.load(Ordering::Relaxed),
        }
    }
}

pub(crate) struct Shared {
    queues: Vec<WeightedQueue<Arc<Job>>>,
    /// `table_shard[t]` = shard owning table `t`.
    table_shard: Vec<usize>,
    shard_tables: Vec<Vec<usize>>,
    counters: Counters,
    /// Registered tenants; index 0 is always the default tenant. The
    /// list is append-only (tenant indices are stable for the engine's
    /// lifetime), behind a `RwLock` so the admin plane can register
    /// tenants live ([`ShardedEngine::register_tenant`]) while the hot
    /// path clones one `Arc` out of a brief read lock.
    tenants: RwLock<Vec<Arc<TenantRuntime>>>,
    outstanding: AtomicU64,
    idle: (Mutex<()>, Condvar),
    shard_stats: Vec<Mutex<ShardStats>>,
    shed_policy: ShedPolicy,
    request_timeout: Option<Duration>,
    /// When the engine started (snapshot uptimes are relative to this).
    started: Instant,
    /// The recent-window span ([`ControlConfig::window_span`]), reported
    /// in snapshots so controllers can reason about decay.
    window_span: Duration,
    /// Slots per recent window ([`ControlConfig::window_slots`]), kept
    /// so tenants registered live get the same window shape as
    /// build-time ones.
    window_slots: usize,
    /// The live micro-batch window in nanoseconds, kept in sync with
    /// [`Action::SetBatchWindow`] retunes so snapshots report the truth.
    batch_window_ns: AtomicU64,
    /// The flight recorder: the 1-in-N admission sampler plus one
    /// preallocated trace ring per shard.
    recorder: TraceRecorder,
    /// The live per-table DRAM partition: `capacity_entries` tracks what
    /// each table's cache is actually sized to (updated when a
    /// [`Action::SetCachePartition`] is routed), `target_entries` the
    /// budget controller's latest solve. Initialized from the build-time
    /// partition and always present, so snapshots and gauges report the
    /// split whether or not the controller is enabled.
    cache_partition: Mutex<Vec<TableCachePartition>>,
    /// Payload bytes each table's DRAM cache holds, indexed by table id;
    /// the owning shard worker stores it after every batch and resize.
    cache_resident_bytes: Vec<AtomicU64>,
    /// Block reads per request each table's build-time admission set was
    /// predicted to cost, indexed by table id.
    table_reads_per_request_predicted: Vec<Option<f64>>,
    /// Blocks per request over each table's freshest re-layout window,
    /// indexed by table id; empty when the controller is off.
    relayout_table_bpr: Vec<BlocksPerRequestGauge>,
    /// Bounded ring of control-plane decisions (the bus records every
    /// applied [`Action`] here before applying it).
    audit: AuditLog,
    /// The open persist directory when durability is configured: WAL
    /// appends from the admin plane, periodic snapshot installs from the
    /// metrics bus.
    persistence: Option<Arc<Persistence>>,
    /// Durability and warm-restart accounting (see [`RecoveryMetrics`]).
    recovery: RecoveryStats,
    /// Shard workers that have finished applying recovered state; the
    /// builder blocks on this after a recovery so the caches are warm
    /// before admission opens.
    warm_shards: AtomicUsize,
    shutdown: AtomicBool,
}

/// Lock-free counters behind [`RecoveryMetrics`].
#[derive(Default)]
struct RecoveryStats {
    replayed_records: AtomicU64,
    rehydrated_keys: AtomicU64,
    snapshots_installed: AtomicU64,
    /// Unix milliseconds of the newest installed or recovered snapshot
    /// (0 = no snapshot yet).
    last_snapshot_unix_ms: AtomicU64,
}

/// Milliseconds since the Unix epoch (0 if the clock is before it).
fn unix_ms_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Maps a persistence failure into the store's config-error channel
/// (build and recovery paths surface [`BandanaError`]).
fn persist_err(e: bandana_persist::PersistError) -> BandanaError {
    BandanaError::Config(format!("persist: {e}"))
}

/// Encodes one tenant registration as its WAL record.
fn tenant_record(id: TenantId, spec: &TenantSpec) -> WalRecord {
    WalRecord::TenantRegistered {
        id: id.0,
        weight: spec.weight,
        class: spec.priority_class.index() as u8,
        quota: spec.admission_quota.map_or(-1, |q| q.min(i64::MAX as u64) as i64),
        slo_p99_ms: spec.slo_p99.map_or(-1, |d| d.as_millis().min(i64::MAX as u128) as i64),
    }
}

/// Decodes a WAL tenant record back into its id and spec.
fn tenant_from_record(
    id: u32,
    weight: u32,
    class: u8,
    quota: i64,
    slo_p99_ms: i64,
) -> (TenantId, TenantSpec) {
    let priority_class = match class {
        0 => PriorityClass::High,
        2 => PriorityClass::Low,
        _ => PriorityClass::Normal,
    };
    (
        TenantId(id),
        TenantSpec {
            weight,
            priority_class,
            admission_quota: (quota >= 0).then_some(quota as u64),
            slo_p99: (slo_p99_ms >= 0).then(|| Duration::from_millis(slo_p99_ms as u64)),
        },
    )
}

/// Index of the always-present default tenant in [`Shared::tenants`].
const DEFAULT_TENANT_INDEX: usize = 0;

impl Shared {
    /// The durability/warm-restart counters as public metrics.
    pub(crate) fn recovery_metrics(&self) -> RecoveryMetrics {
        let last_ms = self.recovery.last_snapshot_unix_ms.load(Ordering::Relaxed);
        let snapshot_age_seconds = if last_ms == 0 {
            -1.0
        } else {
            (unix_ms_now().saturating_sub(last_ms)) as f64 / 1000.0
        };
        RecoveryMetrics {
            replayed_records: self.recovery.replayed_records.load(Ordering::Relaxed),
            rehydrated_keys: self.recovery.rehydrated_keys.load(Ordering::Relaxed),
            snapshots_installed: self.recovery.snapshots_installed.load(Ordering::Relaxed),
            snapshot_age_seconds,
        }
    }

    /// Resolves a tenant id to its index in [`Shared::tenants`].
    pub(crate) fn tenant_index(&self, id: TenantId) -> Option<usize> {
        self.tenants.read().expect("tenant lock").iter().position(|t| t.id == id)
    }

    /// The runtime registered at a tenant index (indices are stable:
    /// the tenant table is append-only).
    pub(crate) fn tenant(&self, index: usize) -> Arc<TenantRuntime> {
        Arc::clone(&self.tenants.read().expect("tenant lock")[index])
    }

    /// Number of registered tenants (including the default tenant).
    pub(crate) fn num_tenants(&self) -> usize {
        self.tenants.read().expect("tenant lock").len()
    }

    /// The id registered at a tenant index.
    pub(crate) fn tenant_id(&self, index: usize) -> TenantId {
        self.tenants.read().expect("tenant lock")[index].id
    }

    /// One tenant's metrics slice (see
    /// [`EngineMetrics::per_tenant`]).
    pub(crate) fn tenant_metrics(&self, index: usize) -> TenantMetrics {
        let t = self.tenant(index);
        let latency = t.e2e.lock().expect("tenant histogram lock").summary();
        let recent = t.recent.lock().expect("tenant window lock").summary();
        TenantMetrics {
            id: t.id,
            weight: t.spec.weight,
            priority_class: t.spec.priority_class,
            admission_quota: t.spec.admission_quota,
            slo_p99: t.spec.slo_p99,
            submitted: t.submitted.load(Ordering::Relaxed),
            shed: t.shed.load(Ordering::Relaxed),
            completed: t.completed.load(Ordering::Relaxed),
            shed_reasons: t.shed_breakdown(),
            timed_out: t.timed_out.load(Ordering::Relaxed),
            failed: t.failed.load(Ordering::Relaxed),
            outstanding: t.outstanding.load(Ordering::Relaxed),
            slo_shedding: t.slo_shed.load(Ordering::Relaxed),
            latency,
            recent,
        }
    }

    /// Publishes `table`'s cached payload bytes for the
    /// `bandana_table_cache_resident_bytes` gauge.
    fn publish_cache_resident(&self, table: &TableStore) {
        self.cache_resident_bytes[table.table_id()]
            .store(table.cache_resident_bytes() as u64, Ordering::Relaxed);
    }

    /// Nanoseconds since the engine started (flight-recorder timestamps
    /// are relative to [`Shared::started`]).
    fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Records the terminal event for a sampled request refused at
    /// admission (SLO breaker or quota) — no job ever existed, so the
    /// normal [`finalize_job`] terminal cannot fire for it.
    fn record_admission_shed(&self, trace: u64, tenant: usize) {
        if trace == 0 {
            return;
        }
        self.recorder.record(
            0,
            TraceEvent {
                request: trace,
                kind: TraceEventKind::Shed,
                at_ns: self.now_ns(),
                dur_ns: 0,
                shard: 0,
                tenant: tenant as u32,
                batch: 0,
            },
        );
    }

    /// Rotates every tenant's recent window by one slot (bus-driven).
    fn rotate_windows(&self) {
        for t in self.tenants.read().expect("tenant lock").iter() {
            t.recent.lock().expect("tenant window lock").rotate();
        }
    }

    /// Assembles the control plane's periodic view of the engine.
    fn snapshot(&self, tick: u64) -> EngineSnapshot {
        let shards: Vec<ShardSnapshot> = self
            .queues
            .iter()
            .enumerate()
            .map(|(shard, q)| {
                let s = self.shard_stats[shard].lock().expect("shard stats lock");
                ShardSnapshot {
                    shard,
                    lane_depths: q.lane_lens(),
                    batches: s.batches,
                    batched_requests: s.batched_requests,
                    depth: s.depth,
                }
            })
            .collect();
        let tenants = self
            .tenants
            .read()
            .expect("tenant lock")
            .iter()
            .enumerate()
            .map(|(i, t)| TenantSnapshot {
                id: t.id,
                priority_class: t.spec.priority_class,
                slo_p99: t.spec.slo_p99,
                outstanding: t.outstanding.load(Ordering::Relaxed),
                submitted: t.submitted.load(Ordering::Relaxed),
                completed: t.completed.load(Ordering::Relaxed),
                // A tenant registered between the shard capture above
                // and this read has lanes the captured depths predate;
                // treat the missing lane as empty rather than panic.
                queued: shards
                    .iter()
                    .map(|s| s.lane_depths.get(i).copied().unwrap_or(0) as u64)
                    .sum(),
                shed: t.shed_breakdown(),
                slo_shedding: t.slo_shed.load(Ordering::Relaxed),
                recent: t.recent.lock().expect("tenant window lock").summary(),
            })
            .collect();
        EngineSnapshot {
            tick,
            uptime: self.started.elapsed(),
            window_span: self.window_span,
            batch_window: Duration::from_nanos(self.batch_window_ns.load(Ordering::Relaxed)),
            shards,
            tenants,
            cache_partition: self.cache_partition.lock().expect("cache partition lock").clone(),
        }
    }

    /// Applies one controller [`Action`] through the shard command
    /// channels and shared admission state.
    fn apply_action(&self, commands: &[mpsc::Sender<ShardCommand>], action: Action) {
        self.counters.control_actions.fetch_add(1, Ordering::Relaxed);
        match action {
            Action::SetPolicy { table, policy, shadow_multiplier } => {
                if let Some(&shard) = self.table_shard.get(table) {
                    if commands[shard]
                        .send(ShardCommand::SetPolicy { table, policy, shadow_multiplier })
                        .is_ok()
                    {
                        self.counters.tuner_swaps.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Action::SetLaneCap { tenant, cap } => {
                if let Some(lane) = self.tenant_index(tenant) {
                    for q in &self.queues {
                        q.set_lane_capacity(lane, cap.max(1));
                    }
                }
            }
            Action::SetBatchWindow { window } => {
                self.batch_window_ns.store(window.as_nanos() as u64, Ordering::Relaxed);
                for tx in commands {
                    let _ = tx.send(ShardCommand::SetBatchWindow { window });
                }
            }
            Action::SetSloShed { tenant, shed } => {
                if let Some(i) = self.tenant_index(tenant) {
                    self.tenant(i).slo_shed.store(shed, Ordering::Release);
                }
            }
            Action::SetCachePartition { table, entries, .. } => {
                if let Some(&shard) = self.table_shard.get(table) {
                    if commands[shard]
                        .send(ShardCommand::SetCachePartition { table, entries })
                        .is_ok()
                    {
                        self.counters.rebudget_applied.fetch_add(1, Ordering::Relaxed);
                        let mut partition =
                            self.cache_partition.lock().expect("cache partition lock");
                        if let Some(p) = partition.iter_mut().find(|p| p.table == table) {
                            p.capacity_entries = entries;
                        }
                    }
                }
            }
            Action::ApplyLayout { table, order, .. } => {
                if let Some(&shard) = self.table_shard.get(table) {
                    if commands[shard].send(ShardCommand::ApplyLayout { table, order }).is_ok() {
                        self.counters.relayout_applied.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            // `Action` is non_exhaustive for forward compatibility; an
            // unknown action from a future controller is a no-op rather
            // than a crash.
            #[allow(unreachable_patterns)]
            _ => {}
        }
    }

    /// Splits a request into per-shard parts and allocates its
    /// completion state; `deadline` overrides the engine-wide timeout.
    fn build_job(
        &self,
        request: &Request,
        want_payloads: bool,
        tenant: usize,
        deadline: Option<Duration>,
        trace: u64,
    ) -> Result<(Arc<Job>, Vec<usize>), ServeError> {
        let num_shards = self.queues.len();
        let mut parts_by_shard: Vec<Vec<Part>> = (0..num_shards).map(|_| Vec::new()).collect();
        for (query_index, q) in request.queries.iter().enumerate() {
            let &shard = self.table_shard.get(q.table).ok_or(ServeError::Store(
                BandanaError::NoSuchTable { table: q.table, tables: self.table_shard.len() },
            ))?;
            // Coalesce duplicate ids within the query.
            let mut unique_ids: Vec<u32> = Vec::with_capacity(q.ids.len());
            let mut index_of: IdHashMap<u32, usize> =
                IdHashMap::with_capacity_and_hasher(q.ids.len(), Default::default());
            let mut expand = Vec::with_capacity(q.ids.len());
            for &v in &q.ids {
                let next = unique_ids.len();
                let idx = *index_of.entry(v).or_insert(next);
                if idx == next {
                    unique_ids.push(v);
                }
                expand.push(idx);
            }
            parts_by_shard[shard].push(Part { query_index, table: q.table, unique_ids, expand });
        }
        let involved: Vec<usize> =
            (0..num_shards).filter(|&s| !parts_by_shard[s].is_empty()).collect();
        let arrival = Instant::now();
        let job = Arc::new(Job {
            arrival,
            deadline: deadline.or(self.request_timeout).map(|t| arrival + t),
            tenant,
            trace,
            parts_by_shard,
            remaining: AtomicUsize::new(involved.len()),
            cancelled: AtomicBool::new(false),
            timed_out: AtomicBool::new(false),
            want_payloads,
            state: Mutex::new(JobState {
                results: vec![None; request.queries.len()],
                error: None,
                done: false,
                e2e: Duration::ZERO,
                queue_wait: Duration::ZERO,
                device_s: 0.0,
                service: Duration::ZERO,
            }),
            done_cv: Condvar::new(),
        });
        Ok((job, involved))
    }

    /// Admits a request for `tenant` (quota, then per-tenant shard
    /// lanes) and dispatches its parts.
    pub(crate) fn enqueue(
        &self,
        request: &Request,
        want_payloads: bool,
        tenant: usize,
        deadline: Option<Duration>,
    ) -> Result<Arc<Job>, ServeError> {
        if self.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        let rt = self.tenant(tenant);
        // Draw the flight-recorder sampling decision per admission
        // attempt: shed outcomes are lifecycle events too.
        let trace = self.recorder.sample();
        // SLO breaker first: a tenant currently over its recent-window
        // p99 budget is refused before it can occupy a quota slot or a
        // lane — the whole point is that this work never enters a queue.
        if rt.slo_shed.load(Ordering::Acquire) {
            self.counters.submitted.fetch_add(1, Ordering::Relaxed);
            rt.submitted.fetch_add(1, Ordering::Relaxed);
            self.counters.shed.fetch_add(1, Ordering::Relaxed);
            rt.shed.fetch_add(1, Ordering::Relaxed);
            rt.shed_slo.fetch_add(1, Ordering::Relaxed);
            self.record_admission_shed(trace, tenant);
            return Err(ServeError::SloShed);
        }
        // Reserve the tenant's in-flight slot up front so the quota check
        // is race-free under concurrent submitters.
        let reserved = rt.outstanding.fetch_add(1, Ordering::AcqRel);
        if rt.spec.admission_quota.is_some_and(|q| reserved >= q) {
            rt.outstanding.fetch_sub(1, Ordering::AcqRel);
            self.counters.submitted.fetch_add(1, Ordering::Relaxed);
            rt.submitted.fetch_add(1, Ordering::Relaxed);
            self.counters.shed.fetch_add(1, Ordering::Relaxed);
            rt.shed.fetch_add(1, Ordering::Relaxed);
            rt.shed_quota.fetch_add(1, Ordering::Relaxed);
            self.record_admission_shed(trace, tenant);
            return Err(ServeError::QuotaExceeded);
        }
        let (job, involved) = match self.build_job(request, want_payloads, tenant, deadline, trace)
        {
            Ok(built) => built,
            Err(e) => {
                // Malformed before admission: not counted as submitted.
                rt.outstanding.fetch_sub(1, Ordering::AcqRel);
                return Err(e);
            }
        };
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        rt.submitted.fetch_add(1, Ordering::Relaxed);
        if job.trace != 0 {
            self.recorder.record(
                0,
                TraceEvent {
                    request: job.trace,
                    kind: TraceEventKind::Admitted,
                    at_ns: self.now_ns(),
                    dur_ns: 0,
                    shard: 0,
                    tenant: tenant as u32,
                    batch: 0,
                },
            );
        }
        if involved.is_empty() {
            // Empty request: trivially complete.
            self.counters.completed.fetch_add(1, Ordering::Relaxed);
            rt.completed.fetch_add(1, Ordering::Relaxed);
            rt.outstanding.fetch_sub(1, Ordering::AcqRel);
            let mut st = job.state.lock().expect("job lock");
            st.done = true;
            drop(st);
            if job.trace != 0 {
                self.recorder.record(
                    0,
                    TraceEvent {
                        request: job.trace,
                        kind: TraceEventKind::Completed,
                        at_ns: self.now_ns(),
                        dur_ns: 0,
                        shard: 0,
                        tenant: tenant as u32,
                        batch: 0,
                    },
                );
            }
            return Ok(job);
        }
        self.outstanding.fetch_add(1, Ordering::AcqRel);
        for (i, &shard) in involved.iter().enumerate() {
            let result = self.queues[shard].push(tenant, Arc::clone(&job), self.shed_policy);
            let reject_error = match result {
                Push::Accepted => {
                    if job.trace != 0 {
                        self.recorder.record(
                            shard,
                            TraceEvent {
                                request: job.trace,
                                kind: TraceEventKind::LaneEnqueued,
                                at_ns: self.now_ns(),
                                dur_ns: 0,
                                shard: shard as u32,
                                tenant: tenant as u32,
                                batch: 0,
                            },
                        );
                    }
                    continue;
                }
                Push::Dropped(_) => ServeError::Rejected,
                Push::Closed(_) => ServeError::ShuttingDown,
            };
            // Shed/abort the whole request. Both rejection causes (full
            // lane, closing queue) count as shed so every submitted
            // request lands in exactly one outcome bucket.
            job.cancelled.store(true, Ordering::Release);
            self.counters.shed.fetch_add(1, Ordering::Relaxed);
            rt.shed.fetch_add(1, Ordering::Relaxed);
            // Both rejection causes land in the lane-full reason bucket
            // (a closing queue is indistinguishable from a full one to
            // the submitter, and both are admission-side drops).
            rt.shed_lane_full.fetch_add(1, Ordering::Relaxed);
            // Account for the parts that were never enqueued (this shard
            // and all later ones), then reclaim the parts earlier shards
            // already accepted: left queued, the cancelled work would
            // hold lane slots and burn the tenant's DRR quantum. A part
            // a worker already popped (reclaim misses) is handled by the
            // cancel flag and finishes through the normal worker path.
            let mut finished_parts = involved.len() - i;
            for &prior in &involved[..i] {
                if self.queues[prior].remove_first(tenant, |j| Arc::ptr_eq(j, &job)).is_some() {
                    finished_parts += 1;
                    rt.reclaimed.fetch_add(1, Ordering::Relaxed);
                }
            }
            if job.remaining.fetch_sub(finished_parts, Ordering::AcqRel) == finished_parts {
                finalize_job(self, &job, None);
            }
            return Err(reject_error);
        }
        Ok(job)
    }
}

/// Aggregated engine statistics (see [`ShardedEngine::metrics`]).
#[derive(Debug, Clone)]
pub struct EngineMetrics {
    /// Requests accepted by `submit`/`serve` (includes later sheds).
    pub submitted: u64,
    /// Requests fully served.
    pub completed: u64,
    /// Requests shed at admission (a shard queue was full, or closing
    /// during shutdown).
    pub shed: u64,
    /// Requests abandoned past their deadline.
    pub timed_out: u64,
    /// Requests that hit a store error.
    pub failed: u64,
    /// Requests currently in flight.
    pub outstanding: u64,
    /// Vector lookups served (original request positions, duplicates
    /// included).
    pub lookups: u64,
    /// Admission-policy hot-swaps applied by the background tuner.
    pub tuner_swaps: u64,
    /// Metrics-bus ticks completed (each tick snapshots the engine and
    /// runs every registered controller).
    pub control_ticks: u64,
    /// Controller [`Action`]s applied by the bus across all controllers.
    pub control_actions: u64,
    /// DRAM-budget re-solves by the cache budget controller (each one
    /// re-runs the marginal-gain allocator against fresh online curves).
    pub rebudget_solves: u64,
    /// Cache re-partitions actually applied to shards (solves whose
    /// targets cleared the hysteresis bar).
    pub rebudget_applied: u64,
    /// Re-layout controller refinement solves (windows whose observed
    /// blocks-per-request cleared the degradation bar).
    pub relayout_solves: u64,
    /// Block re-layouts actually applied to shards (solves whose
    /// refinement packed the window's co-access edges into strictly
    /// fewer blocks than the live layout).
    pub relayout_applied: u64,
    /// Blocks rewritten on-device by applied re-layouts.
    pub relayout_rewritten_blocks: u64,
    /// Samples sent and dropped by each shard-side sampling tap, indexed
    /// by [`Tap`] (all zero for a tap whose controller is off).
    pub taps: [TapCounts; 3],
    /// Observed blocks-per-request over the freshest re-layout window
    /// *any* table completed (`0.0` until a window completes); see
    /// [`table_blocks_per_request_observed`](Self::table_blocks_per_request_observed)
    /// for which table is above its ideal.
    pub blocks_per_request_observed: f64,
    /// The same window's ideal (perfectly packed) blocks-per-request.
    pub blocks_per_request_ideal: f64,
    /// Observed blocks-per-request over each table's freshest re-layout
    /// window, indexed by table id (`0.0` until that table completes a
    /// window; empty when the re-layout controller is off).
    pub table_blocks_per_request_observed: Vec<f64>,
    /// Each table's ideal blocks-per-request over the same window.
    pub table_blocks_per_request_ideal: Vec<f64>,
    /// The live per-table DRAM partition: running capacity and the
    /// budget controller's latest target per table (targets equal the
    /// build-time split until a controller solves).
    pub cache_partition: Vec<TableCachePartition>,
    /// Payload bytes each table's DRAM cache holds right now, indexed by
    /// table id: entries × vector size, never more than
    /// `(capacity_entries + 1) × vector size` of the capacity the table's
    /// worker runs.
    pub cache_resident_bytes: Vec<u64>,
    /// Block reads per request the build-time solve predicted for each
    /// table's admission set on its training trace, indexed by table id
    /// ([`TableStore::predicted_reads_per_request`] at engine start; `None`
    /// for a table built without a set). Fixed for the engine's life: a
    /// set a live controller retires keeps its prediction here.
    pub table_reads_per_request_predicted: Vec<Option<f64>>,
    /// End-to-end latency of completed requests.
    pub latency: LatencySummary,
    /// Submission → start-of-service wait.
    pub queue_wait: LatencySummary,
    /// Per-shard service time (dequeue → parts done).
    pub service: LatencySummary,
    /// Simulated device time charged to each served request's micro-batch
    /// (all zeros unless [`ServeConfig::device_queue`] is set).
    pub device_time: LatencySummary,
    /// Queue-wait vs device-time vs service breakdown of served requests.
    pub breakdown: LatencyBreakdown,
    /// Cross-request micro-batching and device submission accounting.
    pub batching: BatchingMetrics,
    /// Block-buffer pool accounting summed across shard workers; a high
    /// [`PoolStats::reuse_rate`] means the steady-state miss path runs
    /// without heap allocation.
    pub pool: PoolStats,
    /// The full end-to-end histogram, for custom quantiles.
    pub e2e_histogram: LatencyHistogram,
    /// DRAM cache counters merged across all tables.
    pub cache: CacheMetrics,
    /// Per-shard breakdown.
    pub per_shard: Vec<ShardMetrics>,
    /// Per-tenant QoS accounting (admission counters, sheds, and each
    /// tenant's own latency distribution); index 0 is the default tenant.
    pub per_tenant: Vec<TenantMetrics>,
    /// The control plane's retained audit events, oldest first: every
    /// [`Action`] the metrics bus applied, with the controller that
    /// authored it and the snapshot evidence behind it (bounded ring;
    /// see [`AuditEvent`]).
    pub audit: Vec<AuditEvent>,
    /// Durability and warm-restart accounting (zeroes on a cold start
    /// with no persist directory configured).
    pub recovery: RecoveryMetrics,
}

/// Durability/warm-restart counters inside [`EngineMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecoveryMetrics {
    /// WAL records replayed by [`ShardedEngine::recover`] (0 on a cold
    /// start).
    pub replayed_records: u64,
    /// Cache entries rehydrated into shard caches from the recovered
    /// snapshot.
    pub rehydrated_keys: u64,
    /// Snapshots installed by *this* engine instance (periodic plus
    /// explicit [`ShardedEngine::snapshot_now`] calls).
    pub snapshots_installed: u64,
    /// Seconds since the newest installed or recovered snapshot was
    /// written, `-1.0` when no snapshot exists yet.
    pub snapshot_age_seconds: f64,
}

/// Micro-batching and device-queue accounting inside [`EngineMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BatchingMetrics {
    /// Micro-batches that served at least one request.
    pub batches: u64,
    /// Requests served across those batches (mean batch size is
    /// [`BatchingMetrics::mean_batch`]).
    pub batched_requests: u64,
    /// Most requests ever merged into one micro-batch.
    pub largest_batch: u64,
    /// Device submission accounting summed across shards (reads
    /// submitted/completed, peak and mean queue depth, simulated busy
    /// seconds). All zeros when no device queue is configured.
    pub depth: DepthStats,
    /// Wall seconds shard workers actually stalled waiting for submitted
    /// reads, summed across shards. Reads are submitted up front and the
    /// CPU work of a batch runs under them, so this is the part of
    /// `depth.busy_s` the software did not cover: close to `busy_s` on a
    /// device-bound engine, close to zero on a CPU-bound one. Equal to
    /// `gate.stall_s()`, exactly.
    pub device_stall_s: f64,
    /// How the shard workers spent that stall: slept, yielded, and the
    /// sleeps that woke late, summed across shards (the wake margin is the
    /// largest shard's).
    pub gate: GateStats,
}

impl BatchingMetrics {
    /// Mean requests per micro-batch (`0.0` before any batch was served).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batches as f64
        }
    }
}

/// One shard's statistics inside [`EngineMetrics`].
#[derive(Debug, Clone)]
pub struct ShardMetrics {
    /// Shard index.
    pub shard: usize,
    /// Tables owned by the shard.
    pub tables: Vec<usize>,
    /// Requests this shard served at least one part of.
    pub served_requests: u64,
    /// Vector lookups served by this shard.
    pub lookups: u64,
    /// Per-shard service-time distribution.
    pub service: LatencySummary,
    /// Simulated device time charged to this shard's batches.
    pub device_time: LatencySummary,
    /// Cache counters for the shard's tables.
    pub cache: CacheMetrics,
    /// Block reads issued to the shard's device replica.
    pub device_reads: u64,
    /// Micro-batches this shard served.
    pub batches: u64,
    /// Most requests this shard ever merged into one batch.
    pub largest_batch: u64,
    /// This shard's device submission accounting.
    pub depth: DepthStats,
    /// Wall seconds this shard's worker stalled waiting for submitted
    /// reads (see [`BatchingMetrics::device_stall_s`]). Equal to
    /// `gate.stall_s()`, exactly.
    pub device_stall_s: f64,
    /// This shard's device gate: the stall slept and yielded, late wakes
    /// and the wake margin.
    pub gate: GateStats,
    /// Capacity of the shard's rebased dense device in blocks — exactly
    /// the blocks its tables occupy, so occupancy is always 100% and
    /// capacity checks are per-shard.
    pub capacity_blocks: u64,
    /// Bytes written to the shard's dense device.
    pub bytes_written: u64,
    /// Cumulative full rewrites of the shard's dense device (per-shard
    /// drive-writes endurance, not diluted by other shards' blocks).
    pub drive_writes: f64,
    /// The shard worker's block-buffer pool accounting.
    pub pool: PoolStats,
}

/// A shard-per-worker serving engine over a [`BandanaStore`].
///
/// # Example
///
/// ```
/// use bandana_core::{BandanaConfig, BandanaStore};
/// use bandana_serve::{ServeConfig, ShardedEngine};
/// use bandana_trace::{EmbeddingTable, ModelSpec, TraceGenerator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = ModelSpec::test_small();
/// let mut generator = TraceGenerator::new(&spec, 1);
/// let training = generator.generate_requests(200);
/// let embeddings: Vec<EmbeddingTable> = (0..spec.num_tables())
///     .map(|t| EmbeddingTable::synthesize(
///         spec.tables[t].num_vectors, spec.dim, generator.topic_model(t), t as u64))
///     .collect();
/// let store = BandanaStore::build(
///     &spec, &embeddings, &training,
///     BandanaConfig::default().with_cache_vectors(256),
/// )?;
///
/// let engine = ShardedEngine::new(store, ServeConfig::default().with_shards(2))?;
/// let eval = generator.generate_requests(50);
/// for request in &eval.requests {
///     engine.serve(request)?;
/// }
/// let m = engine.metrics();
/// assert_eq!(m.completed, 50);
/// assert_eq!(m.lookups as usize, eval.total_lookups());
/// assert!(m.latency.p99_s >= m.latency.p50_s);
/// # Ok(())
/// # }
/// ```
pub struct ShardedEngine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// The metrics-bus thread (window rotation, snapshots, controllers).
    control: Option<JoinHandle<()>>,
    /// Direct command channels to the shard workers (snapshot collection,
    /// retraining); the control bus holds its own clones.
    commands: Vec<mpsc::Sender<ShardCommand>>,
}

impl ShardedEngine {
    /// Builds the engine from a store: assigns tables to shards (greedy
    /// balance on training-time lookup mass), carves each shard's tables'
    /// block ranges out of the store device ([`SparseDevice::carve`]) and
    /// rebases them onto a dense zero-based [`RebasedDevice`]
    /// (the shard's tables get matching new base blocks), then starts the
    /// worker threads (plus the tuner thread when configured).
    ///
    /// In a real deployment shards would own disjoint NVM namespaces; the
    /// carve-and-rebase gives the simulator the same shape: each shard
    /// holds memory only for its own blocks, addressed from zero, with
    /// per-shard capacity and endurance accounting
    /// ([`ShardMetrics::capacity_blocks`], [`ShardMetrics::drive_writes`])
    /// instead of counters diluted across the parent arena.
    ///
    /// # Errors
    ///
    /// Returns [`BandanaError::Config`] for a degenerate configuration or
    /// a store with no tables.
    pub fn new(store: BandanaStore, config: ServeConfig) -> Result<Self, BandanaError> {
        Self::new_with_controllers(store, config, Vec::new())
    }

    /// As [`ShardedEngine::new`], with additional custom [`Controller`]s
    /// registered on the metrics bus.
    ///
    /// The in-tree controllers configured on `config` (the tuner via
    /// [`ServeConfig::with_tuner`], the SLO controller via
    /// [`ServeConfig::with_slo_controller`]) run first each tick, in that
    /// order, followed by `controllers` in the order given. Actions are
    /// applied as each controller returns them.
    ///
    /// # Errors
    ///
    /// As [`ShardedEngine::new`].
    pub fn new_with_controllers(
        store: BandanaStore,
        config: ServeConfig,
        controllers: Vec<Box<dyn Controller>>,
    ) -> Result<Self, BandanaError> {
        let persistence = match &config.persist {
            Some(pcfg) => {
                // `new*` means cold start: the directory is opened (and a
                // corrupt WAL tail healed) but whatever state it holds is
                // deliberately not applied — use [`ShardedEngine::recover`]
                // for a warm restart.
                let (p, _opened) = Persistence::open(pcfg).map_err(persist_err)?;
                Some(Arc::new(p))
            }
            None => None,
        };
        Self::build(store, config, controllers, persistence, None)
    }

    /// Rebuilds the engine from a persist directory: replays the WAL over
    /// the latest valid snapshot, verifies the journaled table catalog
    /// against `store`, re-registers every journaled tenant (including
    /// live `POST /tenants` registrations from the previous run), and
    /// rehydrates each shard's DRAM cache, admission policy, and
    /// endurance counters *before* admission opens.
    ///
    /// `config.persist` must be set; its directory is the one to recover
    /// from. A directory with no snapshot and an empty WAL recovers to a
    /// cold start.
    ///
    /// # Errors
    ///
    /// [`BandanaError::Config`] when `config.persist` is absent, when the
    /// journaled catalog disagrees with `store` (the WAL belongs to a
    /// different store), or for the same degenerate configurations as
    /// [`ShardedEngine::new`].
    pub fn recover(store: BandanaStore, config: ServeConfig) -> Result<Self, BandanaError> {
        let pcfg = config.persist.as_ref().ok_or_else(|| {
            BandanaError::Config("recover requires ServeConfig::with_persist".into())
        })?;
        let (persistence, opened) = Persistence::open(pcfg).map_err(persist_err)?;

        // Fold the WAL into the catalog-check list and the tenant
        // registry. Replay is idempotent: catalog records dedupe by table
        // id, tenant records keep the first-seen spec.
        let mut config = config;
        let mut seen_tables: HashMap<u32, ()> = HashMap::new();
        let mut seen_tenants: HashMap<u32, ()> = HashMap::new();
        let mut replayed = 0u64;
        for record in &opened.wal.records {
            replayed += 1;
            match *record {
                WalRecord::TableCatalog {
                    table,
                    base_block,
                    num_blocks,
                    num_vectors,
                    vector_bytes,
                } => {
                    if seen_tables.insert(table, ()).is_some() {
                        continue;
                    }
                    let stored = store.table(table as usize).map_err(|_| {
                        BandanaError::Config(format!(
                            "recover: WAL catalogs table {table} which the store does not have"
                        ))
                    })?;
                    let expect = (
                        stored.base_block(),
                        stored.num_blocks(),
                        stored.num_vectors(),
                        store.vector_bytes() as u32,
                    );
                    if expect != (base_block, num_blocks, num_vectors, vector_bytes) {
                        return Err(BandanaError::Config(format!(
                            "recover: WAL catalog for table {table} disagrees with the store \
                             (journaled base={base_block} blocks={num_blocks} vectors={num_vectors} \
                             vector_bytes={vector_bytes}, store has base={} blocks={} vectors={} \
                             vector_bytes={})",
                            expect.0, expect.1, expect.2, expect.3
                        )));
                    }
                }
                WalRecord::TenantRegistered { id, weight, class, quota, slo_p99_ms } => {
                    if seen_tenants.insert(id, ()).is_some() {
                        continue;
                    }
                    // Config-time tenants win over the journal: the journal
                    // re-records them on every boot anyway.
                    if config.tenants.iter().any(|(t, _)| t.0 == id) {
                        continue;
                    }
                    let (tenant, spec) = tenant_from_record(id, weight, class, quota, slo_p99_ms);
                    config = config.with_tenant(tenant, spec);
                }
            }
        }

        let snapshot = opened.snapshot.map(|(_, data)| Arc::new(data));
        let snapshot_written_at = snapshot.as_ref().map(|s| s.written_at_ms);
        let engine = Self::build(store, config, Vec::new(), Some(Arc::new(persistence)), snapshot)?;
        engine.shared.recovery.replayed_records.store(replayed, Ordering::Relaxed);
        if let Some(ms) = snapshot_written_at {
            engine.shared.recovery.last_snapshot_unix_ms.store(ms, Ordering::Relaxed);
        }
        engine.shared.audit.push(AuditEvent {
            tick: 0,
            uptime: engine.shared.started.elapsed(),
            controller: "persist".into(),
            action: "Recover".into(),
            tenant: None,
            cause: format!(
                "replayed {replayed} WAL records over {}, rehydrated {} cache keys",
                if snapshot_written_at.is_some() { "a snapshot" } else { "no snapshot" },
                engine.shared.recovery.rehydrated_keys.load(Ordering::Relaxed),
            ),
        });
        Ok(engine)
    }

    fn build(
        store: BandanaStore,
        config: ServeConfig,
        controllers: Vec<Box<dyn Controller>>,
        persistence: Option<Arc<Persistence>>,
        recovered: Option<Arc<SnapshotData>>,
    ) -> Result<Self, BandanaError> {
        config.validate().map_err(BandanaError::Config)?;
        let parts = store.into_raw_parts();
        let num_tables = parts.tables.len();
        if num_tables == 0 {
            return Err(BandanaError::Config("store has no tables".into()));
        }
        let num_shards = config.num_shards.min(num_tables);
        let shadow_multiplier = parts.config.shadow_multiplier;

        if let Some(p) = &persistence {
            // Journal the table catalog (pre-rebase base blocks — the
            // coordinates `recover` verifies against the parent store) and
            // the config-time tenants. Replay dedupes by id, so
            // re-journaling on every boot is idempotent and keeps the WAL
            // self-contained without ever truncating it.
            for t in &parts.tables {
                p.append(&WalRecord::TableCatalog {
                    table: t.table_id() as u32,
                    base_block: t.base_block(),
                    num_blocks: t.num_blocks(),
                    num_vectors: t.num_vectors(),
                    vector_bytes: parts.vector_bytes as u32,
                })
                .map_err(persist_err)?;
            }
            for (id, spec) in &config.tenants {
                p.append(&tenant_record(*id, spec)).map_err(persist_err)?;
            }
            p.sync().map_err(persist_err)?;
        }

        // Greedy balance: heaviest table (by training lookup mass) onto the
        // lightest shard.
        let mut weights: Vec<(usize, u64)> = parts
            .tables
            .iter()
            .map(|t| {
                let freq = t.freq();
                let mass: u64 = (0..t.num_vectors()).map(|v| u64::from(freq.count(v))).sum();
                (t.table_id(), mass.max(1))
            })
            .collect();
        weights.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut shard_load = vec![0u64; num_shards];
        let mut table_shard = vec![0usize; num_tables];
        let mut shard_tables: Vec<Vec<usize>> = vec![Vec::new(); num_shards];
        for (table, mass) in weights {
            let lightest =
                (0..num_shards).min_by_key(|&s| (shard_load[s], s)).expect("at least one shard");
            shard_load[lightest] += mass;
            table_shard[table] = lightest;
            shard_tables[lightest].push(table);
        }
        for tables in &mut shard_tables {
            tables.sort_unstable();
        }

        // Harvest tuner inputs before tables move into the shard threads.
        let tuner_tables: Option<Vec<TunerTable>> = config.tuner.as_ref().map(|_| {
            parts
                .tables
                .iter()
                .map(|t| TunerTable {
                    table: t.table_id(),
                    layout: t.layout().clone(),
                    freq: t.freq().clone(),
                    cache_capacity: t.cache_capacity(),
                })
                .collect()
        });

        // Harvest the re-layout controller's view of each table's active
        // layout, also before tables move into the shard threads.
        let relayout_tables: Option<Vec<(usize, BlockLayout)>> =
            config.relayout.as_ref().map(|_| {
                let mut tables: Vec<(usize, BlockLayout)> =
                    parts.tables.iter().map(|t| (t.table_id(), t.layout().clone())).collect();
                tables.sort_unstable_by_key(|e| e.0);
                // A warm restart resumes the learned layout the snapshot
                // recorded (the shards remap onto it before rehydrating), not
                // the build-time placement.
                if let Some(snap) = recovered.as_ref() {
                    for t in &snap.tables {
                        if t.layout_order.is_empty() {
                            continue;
                        }
                        if let Some(e) = tables.iter_mut().find(|e| e.0 == t.table as usize) {
                            if let Some(layout) = checked_layout(&t.layout_order, &e.1) {
                                e.1 = layout;
                            }
                        }
                    }
                }
                tables
            });

        // The build-time DRAM partition, table-id order: seeds the live
        // partition view and, when the budget controller is on, defines
        // the fixed total budget it re-divides.
        let mut budget_tables: Vec<(usize, usize)> =
            parts.tables.iter().map(|t| (t.table_id(), t.cache_capacity())).collect();
        budget_tables.sort_unstable();
        // `parts.tables` is in table-id order, like `budget_tables`.
        let table_vectors: Vec<usize> =
            parts.tables.iter().map(|t| t.num_vectors() as usize).collect();
        let table_reads_per_request_predicted: Vec<Option<f64>> =
            parts.tables.iter().map(TableStore::predicted_reads_per_request).collect();
        // A warm restart resumes the learned partition the snapshot
        // recorded (the shards restore the same capacities before
        // rehydrating), not the build-time split.
        if let Some(snap) = recovered.as_ref() {
            for t in &snap.tables {
                if t.cache_capacity == 0 {
                    continue; // v1 snapshot: capacity unknown
                }
                if let Some(e) = budget_tables.iter_mut().find(|(id, _)| *id == t.table as usize) {
                    e.1 = t.cache_capacity as usize;
                }
            }
        }

        // The tenant table: the default tenant always sits at index 0;
        // registering TenantId::DEFAULT overrides its spec in place.
        let window_slots = config.control.window_slots;
        let mut tenants: Vec<Arc<TenantRuntime>> = vec![Arc::new(TenantRuntime::new(
            TenantId::DEFAULT,
            TenantSpec::default(),
            window_slots,
        ))];
        for (id, spec) in &config.tenants {
            if *id == TenantId::DEFAULT {
                tenants[DEFAULT_TENANT_INDEX] =
                    Arc::new(TenantRuntime::new(*id, *spec, window_slots));
            } else {
                tenants.push(Arc::new(TenantRuntime::new(*id, *spec, window_slots)));
            }
        }
        let lanes: Vec<LaneSpec> = tenants
            .iter()
            .map(|t| LaneSpec {
                weight: u64::from(t.spec.weight),
                class: t.spec.priority_class.index(),
            })
            .collect();

        let shared = Arc::new(Shared {
            queues: (0..num_shards)
                .map(|_| WeightedQueue::new(&lanes, config.queue_capacity))
                .collect(),
            table_shard,
            shard_tables: shard_tables.clone(),
            counters: Counters::new(),
            tenants: RwLock::new(tenants),
            outstanding: AtomicU64::new(0),
            idle: (Mutex::new(()), Condvar::new()),
            shard_stats: (0..num_shards).map(|_| Mutex::new(ShardStats::default())).collect(),
            shed_policy: config.shed_policy,
            request_timeout: config.request_timeout,
            started: Instant::now(),
            window_span: config.control.window_span(),
            window_slots,
            batch_window_ns: AtomicU64::new(config.batch_window.as_nanos() as u64),
            recorder: TraceRecorder::new(config.trace, num_shards),
            cache_partition: Mutex::new(
                budget_tables
                    .iter()
                    .map(|&(table, c)| TableCachePartition {
                        table,
                        capacity_entries: c,
                        target_entries: c,
                    })
                    .collect(),
            ),
            cache_resident_bytes: (0..num_tables).map(|_| AtomicU64::new(0)).collect(),
            table_reads_per_request_predicted,
            relayout_table_bpr: if config.relayout.is_some() {
                (0..num_tables).map(|_| BlocksPerRequestGauge::default()).collect()
            } else {
                Vec::new()
            },
            audit: AuditLog::new(DEFAULT_AUDIT_CAPACITY),
            persistence,
            recovery: RecoveryStats::default(),
            warm_shards: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        });

        // Distribute tables (and a device replica) to each shard.
        let mut table_pool: HashMap<usize, TableStore> =
            parts.tables.into_iter().map(|t| (t.table_id(), t)).collect();
        let device = parts.device;

        let (sample_tx, sample_rx) = mpsc::sync_channel::<(usize, u32)>(SAMPLE_CHANNEL_CAPACITY);
        let (budget_tx, budget_rx) = mpsc::sync_channel::<BudgetSample>(SAMPLE_CHANNEL_CAPACITY);
        let (co_tx, co_rx) = mpsc::sync_channel::<CoAccessSample>(SAMPLE_CHANNEL_CAPACITY);
        let mut command_txs: Vec<mpsc::Sender<ShardCommand>> = Vec::with_capacity(num_shards);

        let batching = ShardBatching {
            window: config.batch_window,
            max_batch: config.max_batch,
            device_queue: config.device_queue,
        };
        let mut workers = Vec::with_capacity(num_shards);
        for (shard, owned) in shard_tables.iter().enumerate() {
            let mut tables: HashMap<usize, TableStore> = HashMap::new();
            for &t in owned {
                let table = table_pool.remove(&t).expect("table assigned once");
                tables.insert(t, table);
            }
            // Carve only the blocks this shard's tables occupy out of the
            // store device, then rebase them onto a dense zero-based
            // address space: the shard's capacity is exactly its tables'
            // blocks and endurance is charged against the shard alone.
            let ranges: Vec<(u64, u64)> =
                tables.values().map(|t| (t.base_block(), t.num_blocks())).collect();
            let device = SparseDevice::carve(&device, &ranges)
                .expect("table regions lie inside the store device")
                .rebase();
            for t in tables.values_mut() {
                if t.num_blocks() == 0 {
                    continue;
                }
                let new_base =
                    device.remap(t.base_block()).expect("table blocks were carved just above");
                t.rebase(new_base);
            }
            // This shard's slice of the recovered snapshot: its own tables'
            // warm state, plus its endurance counter when the snapshot's
            // shard count matches (table→shard assignment is deterministic,
            // so matching counts mean matching shards; a re-sharded restart
            // just drops the per-shard counters).
            let restore = recovered.as_ref().map(|snap| ShardRecovered {
                endurance_bytes: (snap.shard_endurance_bytes.len() == num_shards)
                    .then(|| snap.shard_endurance_bytes[shard]),
                tables: snap
                    .tables
                    .iter()
                    .filter(|t| owned.contains(&(t.table as usize)))
                    .cloned()
                    .collect(),
            });
            let shared = Arc::clone(&shared);
            let (cmd_tx, cmd_rx) = mpsc::channel::<ShardCommand>();
            command_txs.push(cmd_tx);
            let samples = config.tuner.as_ref().map(|t| (sample_tx.clone(), t.sample_every));
            let budget_samples =
                config.cache_budget.as_ref().map(|b| (budget_tx.clone(), b.sample_every));
            let co_samples = config.relayout.as_ref().map(|r| (co_tx.clone(), r.sample_every));
            let handle = std::thread::Builder::new()
                .name(format!("bandana-shard-{shard}"))
                .spawn(move || {
                    shard_main(
                        shard,
                        device,
                        tables,
                        shared,
                        batching,
                        cmd_rx,
                        samples,
                        budget_samples,
                        co_samples,
                        restore,
                    )
                })
                .expect("spawn shard worker");
            workers.push(handle);
        }
        // The engine keeps no sample sender of its own: once every worker
        // exits, the channels disconnect and the controllers see
        // end-of-stream.
        drop(sample_tx);
        drop(budget_tx);
        drop(co_tx);

        // The metrics bus always runs: it rotates the recent windows and
        // snapshots the engine even when no controller is registered, so
        // windowed latencies are observable with the control loop off.
        let tuner_inputs = match (config.tuner, tuner_tables) {
            (Some(settings), Some(tables)) => {
                Some(TunerInputs { tables, settings, samples: sample_rx, shadow_multiplier })
            }
            _ => None,
        };
        let budget_inputs = config.cache_budget.map(|settings| BudgetInputs {
            tables: budget_tables,
            sizes: table_vectors,
            settings,
            samples: budget_rx,
        });
        let relayout_inputs = match (config.relayout, relayout_tables) {
            (Some(settings), Some(tables)) => {
                Some(ReLayoutInputs { tables, settings, samples: co_rx })
            }
            _ => None,
        };
        let slo = config.slo;
        let control_cfg = config.control;
        let bus_shared = Arc::clone(&shared);
        let commands = command_txs.clone();
        let control = std::thread::Builder::new()
            .name("bandana-control".into())
            .spawn(move || {
                control_main(
                    bus_shared,
                    command_txs,
                    control_cfg,
                    tuner_inputs,
                    budget_inputs,
                    relayout_inputs,
                    slo,
                    controllers,
                )
            })
            .expect("spawn control bus");

        // On a warm restart admission must not open until every shard has
        // applied its recovered cache contents: the first requests after
        // the restart are exactly the ones the snapshot exists to serve.
        if recovered.is_some() {
            while shared.warm_shards.load(Ordering::Acquire) < num_shards {
                std::thread::yield_now();
            }
        }

        Ok(ShardedEngine { shared, workers, control: Some(control), commands })
    }

    /// Number of shard workers.
    pub fn num_shards(&self) -> usize {
        self.shared.queues.len()
    }

    /// The tables owned by each shard.
    pub fn shard_tables(&self) -> &[Vec<usize>] {
        &self.shared.shard_tables
    }

    /// The shard that owns `table`, if the table exists.
    pub fn shard_of(&self, table: usize) -> Option<usize> {
        self.shared.table_shard.get(table).copied()
    }

    /// Opens a session for a registered tenant: the handle that builds
    /// typed requests and submits them for
    /// [`ResponseTicket`](crate::ResponseTicket)s. The default tenant
    /// ([`TenantId::DEFAULT`]) always exists; other tenants must have
    /// been registered with [`ServeConfig::with_tenant`].
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] for an unregistered id.
    pub fn client(&self, tenant: TenantId) -> Result<Client, ServeError> {
        let index = self.shared.tenant_index(tenant).ok_or(ServeError::UnknownTenant(tenant))?;
        Ok(Client::new(Arc::clone(&self.shared), index))
    }

    /// The registered tenants, default tenant first.
    pub fn tenants(&self) -> Vec<(TenantId, TenantSpec)> {
        self.shared.tenants.read().expect("tenant lock").iter().map(|t| (t.id, t.spec)).collect()
    }

    /// Registers a tenant on a **running** engine: the admin plane's
    /// live-registration path (`POST /tenants` on the
    /// [`net::AdminServer`](crate::net::AdminServer)).
    ///
    /// A lane for the tenant is added to every shard queue first (with
    /// the engine's default per-lane capacity), then the tenant joins
    /// the registry, so concurrent snapshots never observe a tenant
    /// without its lanes. The new tenant schedules exactly like one
    /// registered at build time with
    /// [`ServeConfig::with_tenant`]; in-flight traffic is untouched.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidTenant`] if the id is already registered or
    /// the spec is invalid (zero weight), and
    /// [`ServeError::ShuttingDown`] after shutdown began.
    pub fn register_tenant(&self, id: TenantId, spec: TenantSpec) -> Result<(), ServeError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        spec.validate().map_err(ServeError::InvalidTenant)?;
        // Hold the write lock across the whole registration so
        // concurrent registrations cannot interleave lane/index
        // assignment, and so no reader sees lanes without the tenant or
        // vice versa.
        let mut tenants = self.shared.tenants.write().expect("tenant lock");
        if tenants.iter().any(|t| t.id == id) {
            return Err(ServeError::InvalidTenant(format!("{id} is already registered")));
        }
        // Journal the registration durably *before* the tenant becomes
        // visible: a registration acknowledged to the admin plane must
        // survive a crash. On failure nothing was registered; a torn
        // frame is healed (truncated) by the next recovery.
        if let Some(p) = &self.shared.persistence {
            p.append_durable(&tenant_record(id, &spec))
                .map_err(|e| ServeError::Persist(e.to_string()))?;
        }
        let lane = LaneSpec { weight: u64::from(spec.weight), class: spec.priority_class.index() };
        for q in &self.shared.queues {
            let index = q.add_lane(lane);
            debug_assert_eq!(index, tenants.len(), "lane index must equal tenant index");
        }
        let window_slots = self.shared.window_slots;
        tenants.push(Arc::new(TenantRuntime::new(id, spec, window_slots)));
        Ok(())
    }

    /// Submits a request without waiting for its results (open-loop mode;
    /// payloads are not retained), charged to the default tenant.
    ///
    /// With [`ShedPolicy::Block`] this blocks while a target shard queue is
    /// full; with [`ShedPolicy::DropNewest`] it returns
    /// [`ServeError::Rejected`] instead and the request counts as shed.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] on shed, [`ServeError::Store`] for unknown
    /// tables, [`ServeError::ShuttingDown`] after shutdown began.
    pub fn submit(&self, request: &Request) -> Result<(), ServeError> {
        self.shared.enqueue(request, false, DEFAULT_TENANT_INDEX, None).map(|_| ())
    }

    /// Serves a request synchronously on the default tenant: dispatches
    /// its queries to the owning shards, waits for every part, and
    /// returns the payloads in request order (`result[q][i]` is the
    /// payload of `request.queries[q].ids[i]`).
    ///
    /// Tenant-aware callers use [`ShardedEngine::client`] and the ticket
    /// API instead; this wrapper is kept for single-tenant deployments
    /// and behaves exactly as it did before tenants existed.
    ///
    /// # Errors
    ///
    /// As [`ShardedEngine::submit`], plus [`ServeError::TimedOut`] when the
    /// request missed its deadline and [`ServeError::Store`] when any id
    /// was invalid.
    pub fn serve(&self, request: &Request) -> Result<Vec<Vec<Bytes>>, ServeError> {
        let job = self.shared.enqueue(request, true, DEFAULT_TENANT_INDEX, None)?;
        crate::tenant::ResponseTicket::new(job).wait()?.into_parts()
    }

    /// Blocks until no request is in flight.
    pub fn drain(&self) {
        let (lock, cv) = &self.shared.idle;
        let mut guard = lock.lock().expect("idle lock");
        while self.shared.outstanding.load(Ordering::Acquire) > 0 {
            let (g, _) = cv.wait_timeout(guard, Duration::from_millis(20)).expect("idle lock");
            guard = g;
        }
    }

    /// A snapshot of counters, latency distributions, and per-shard
    /// breakdowns since the engine started.
    pub fn metrics(&self) -> EngineMetrics {
        let c = &self.shared.counters;
        let mut e2e = LatencyHistogram::new();
        let mut queue_wait = LatencyHistogram::new();
        let mut service = LatencyHistogram::new();
        let mut device = LatencyHistogram::new();
        let mut cache = CacheMetrics::new();
        let mut batching = BatchingMetrics::default();
        let mut pool = PoolStats::default();
        let mut per_shard = Vec::with_capacity(self.num_shards());
        for (shard, stats) in self.shared.shard_stats.iter().enumerate() {
            let s = stats.lock().expect("shard stats lock");
            e2e.merge(&s.e2e);
            queue_wait.merge(&s.queue_wait);
            service.merge(&s.service);
            device.merge(&s.device);
            cache.merge(&s.cache);
            batching.batches += s.batches;
            batching.batched_requests += s.batched_requests;
            batching.largest_batch = batching.largest_batch.max(s.largest_batch);
            batching.depth.merge(&s.depth);
            batching.gate.merge(&s.gate);
            pool.merge(&s.pool);
            per_shard.push(ShardMetrics {
                shard,
                tables: self.shared.shard_tables[shard].clone(),
                served_requests: s.served_requests,
                lookups: s.lookups,
                service: s.service.summary(),
                device_time: s.device.summary(),
                cache: s.cache,
                device_reads: s.device_reads,
                batches: s.batches,
                largest_batch: s.largest_batch,
                depth: s.depth,
                device_stall_s: s.gate.stall_s(),
                gate: s.gate,
                capacity_blocks: s.capacity_blocks,
                bytes_written: s.bytes_written,
                drive_writes: s.drive_writes,
                pool: s.pool,
            });
        }
        batching.device_stall_s = batching.gate.stall_s();
        let breakdown = LatencyBreakdown {
            queue_wait: queue_wait.summary(),
            device: device.summary(),
            service: service.summary(),
        };
        let per_tenant: Vec<TenantMetrics> =
            (0..self.shared.num_tenants()).map(|i| self.shared.tenant_metrics(i)).collect();
        let (blocks_per_request_observed, blocks_per_request_ideal) = c.relayout_bpr.read();
        let (table_blocks_per_request_observed, table_blocks_per_request_ideal) =
            self.shared.relayout_table_bpr.iter().map(BlocksPerRequestGauge::read).unzip();
        EngineMetrics {
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            timed_out: c.timed_out.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            outstanding: self.shared.outstanding.load(Ordering::Relaxed),
            lookups: c.lookups_served.load(Ordering::Relaxed),
            tuner_swaps: c.tuner_swaps.load(Ordering::Relaxed),
            control_ticks: c.control_ticks.load(Ordering::Relaxed),
            control_actions: c.control_actions.load(Ordering::Relaxed),
            rebudget_solves: c.rebudget_solves.load(Ordering::Relaxed),
            rebudget_applied: c.rebudget_applied.load(Ordering::Relaxed),
            relayout_solves: c.relayout_solves.load(Ordering::Relaxed),
            relayout_applied: c.relayout_applied.load(Ordering::Relaxed),
            relayout_rewritten_blocks: c.relayout_rewritten_blocks.load(Ordering::Relaxed),
            taps: c.taps.each_ref().map(|[sent, dropped]| TapCounts {
                sent: sent.load(Ordering::Relaxed),
                dropped: dropped.load(Ordering::Relaxed),
            }),
            blocks_per_request_observed,
            blocks_per_request_ideal,
            table_blocks_per_request_observed,
            table_blocks_per_request_ideal,
            cache_partition: self
                .shared
                .cache_partition
                .lock()
                .expect("cache partition lock")
                .clone(),
            cache_resident_bytes: self
                .shared
                .cache_resident_bytes
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            table_reads_per_request_predicted: self
                .shared
                .table_reads_per_request_predicted
                .clone(),
            latency: e2e.summary(),
            queue_wait: breakdown.queue_wait,
            service: breakdown.service,
            device_time: breakdown.device,
            breakdown,
            batching,
            pool,
            e2e_histogram: e2e,
            cache,
            per_shard,
            per_tenant,
            audit: self.shared.audit.snapshot(),
            recovery: self.shared.recovery_metrics(),
        }
    }

    /// Collects the warm state from every shard and atomically installs
    /// it as the next snapshot in the persist directory, synchronously.
    /// The metrics bus does the same on its own cadence
    /// ([`PersistConfig::with_snapshot_every_ticks`]); this is the
    /// explicit trigger for tests and an orderly pre-shutdown save.
    ///
    /// # Errors
    ///
    /// [`ServeError::Persist`] when no persist directory is configured,
    /// when a shard fails to report in time, or when the install itself
    /// fails (including injected crashes).
    pub fn snapshot_now(&self) -> Result<(), ServeError> {
        let tick = self.shared.counters.control_ticks.load(Ordering::Relaxed);
        take_snapshot(&self.shared, &self.commands, tick, Duration::from_secs(5))
            .map_err(ServeError::Persist)
    }

    /// Rewrites `table`'s embeddings on its owning shard's device — the
    /// serving-path stand-in for a model retrain pushing fresh embedding
    /// values to NVM. The write is charged to the shard's endurance
    /// meter, so drive-write accounting (and its survival across a warm
    /// restart) is observable from [`ShardMetrics::bytes_written`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Store`] when the table does not exist or the rows
    /// do not match the catalog; [`ServeError::ShuttingDown`] /
    /// [`ServeError::TimedOut`] when the shard is gone or unresponsive.
    pub fn retrain(&self, table: usize, embeddings: &EmbeddingTable) -> Result<(), ServeError> {
        let shard = *self.shared.table_shard.get(table).ok_or_else(|| {
            ServeError::Store(BandanaError::NoSuchTable {
                table,
                tables: self.shared.table_shard.len(),
            })
        })?;
        let (reply_tx, reply_rx) = mpsc::channel();
        self.commands[shard]
            .send(ShardCommand::Retrain {
                table,
                embeddings: Arc::new(embeddings.clone()),
                reply: reply_tx,
            })
            .map_err(|_| ServeError::ShuttingDown)?;
        match reply_rx.recv_timeout(Duration::from_secs(30)) {
            Ok(result) => result.map_err(ServeError::Store),
            Err(_) => Err(ServeError::TimedOut),
        }
    }

    /// The control plane's current view of the engine: per-shard lane
    /// depths, batching and device-queue statistics, and per-tenant
    /// recent-window latency and shed counters — exactly what registered
    /// [`Controller`]s observe each bus tick.
    pub fn snapshot(&self) -> EngineSnapshot {
        self.shared.snapshot(self.shared.counters.control_ticks.load(Ordering::Relaxed))
    }

    /// Renders every retained flight-recorder event as Chrome
    /// trace-event JSON, loadable in Perfetto or `chrome://tracing`.
    /// Empty (`{"traceEvents":[]}`) unless tracing was enabled with
    /// [`ServeConfig::with_trace`].
    pub fn dump_trace(&self) -> String {
        self.shared.recorder.dump_chrome_trace()
    }

    /// The retained flight-recorder events grouped into one
    /// [`RequestTrace`] per sampled request, ordered by trace id — the
    /// structured form of [`ShardedEngine::dump_trace`], for tests and
    /// tooling.
    pub fn request_traces(&self) -> Vec<RequestTrace> {
        self.shared.recorder.request_traces()
    }

    /// Stops accepting work, drains in-flight requests, joins every
    /// thread, and returns the final metrics.
    pub fn shutdown(mut self) -> EngineMetrics {
        self.begin_shutdown();
        // The control bus goes first (it exits within one tick of the
        // shutdown flag): otherwise its final tick races the workers'
        // exit and flushes controller actions into already-closed
        // command channels.
        if let Some(t) = self.control.take() {
            let _ = t.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.metrics()
    }

    fn begin_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for q in &self.shared.queues {
            q.close();
        }
    }
}

impl Drop for ShardedEngine {
    fn drop(&mut self) {
        self.begin_shutdown();
        // Same join order as `shutdown`: bus first, then workers.
        if let Some(t) = self.control.take() {
            let _ = t.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Classifies a finished job, completes waiters, and releases the
/// in-flight slots (engine-wide and per-tenant).
fn finalize_job(shared: &Shared, job: &Job, finishing_shard: Option<usize>) {
    let cancelled = job.cancelled.load(Ordering::Acquire);
    let timed_out = job.timed_out.load(Ordering::Acquire);
    let e2e = job.arrival.elapsed();
    let rt = shared.tenant(job.tenant);
    let had_error = job.state.lock().expect("job lock").error.is_some();
    // Classify and record BEFORE waking waiters: a caller returning from
    // `serve` must observe its own request in the counters. Shed and
    // timeout were counted when flagged; the rest is counted here so every
    // request lands in exactly one bucket.
    if !cancelled && !timed_out {
        if had_error {
            shared.counters.failed.fetch_add(1, Ordering::Relaxed);
            rt.failed.fetch_add(1, Ordering::Relaxed);
        } else {
            shared.counters.completed.fetch_add(1, Ordering::Relaxed);
            rt.completed.fetch_add(1, Ordering::Relaxed);
            if let Some(shard) = finishing_shard {
                let mut stats = shared.shard_stats[shard].lock().expect("shard stats lock");
                stats.e2e.record(e2e);
            }
            rt.e2e.lock().expect("tenant histogram lock").record(e2e);
            rt.recent.lock().expect("tenant window lock").record(e2e);
        }
    }
    // Flight recorder: the single terminal event per sampled request is
    // recorded here — `finalize_job` runs exactly once per job-backed
    // request, so the one-terminal invariant holds by construction.
    if job.trace != 0 {
        let kind = if timed_out {
            TraceEventKind::TimedOut
        } else if cancelled {
            TraceEventKind::Shed
        } else {
            TraceEventKind::Completed
        };
        let shard = finishing_shard.unwrap_or(0);
        shared.recorder.record(
            shard,
            TraceEvent {
                request: job.trace,
                kind,
                at_ns: shared.now_ns(),
                dur_ns: e2e.as_nanos() as u64,
                shard: shard as u32,
                tenant: job.tenant as u32,
                batch: 0,
            },
        );
    }
    // Release the tenant's in-flight slot BEFORE waking waiters: a
    // quota-limited caller resubmitting the instant its wait returns
    // must find its slot free, never a phantom QuotaExceeded.
    rt.outstanding.fetch_sub(1, Ordering::AcqRel);
    {
        let mut st = job.state.lock().expect("job lock");
        st.e2e = e2e;
        st.done = true;
    }
    job.done_cv.notify_all();
    if shared.outstanding.fetch_sub(1, Ordering::AcqRel) == 1 {
        let (_lock, cv) = &shared.idle;
        cv.notify_all();
    }
}

/// The per-worker slice of the batching configuration.
#[derive(Debug, Clone, Copy)]
struct ShardBatching {
    window: Duration,
    max_batch: usize,
    device_queue: Option<u32>,
}

/// Everything the control thread needs to build the tuner controller:
/// owned per-table inputs (the [`OnlineTuner`](bandana_core::OnlineTuner)s
/// borrow them for the thread's lifetime) plus the shard sample channel.
struct TunerInputs {
    tables: Vec<TunerTable>,
    settings: OnlineTunerSettings,
    samples: mpsc::Receiver<(usize, u32)>,
    shadow_multiplier: f64,
}

/// The metrics-bus thread: the engine's single control loop.
///
/// Every `tick` it (1) rotates the per-tenant recent windows on the
/// window-slot cadence, (2) assembles an [`EngineSnapshot`], and (3) runs
/// each registered controller over it, applying returned [`Action`]s
/// through the shard command channels and shared admission state. The
/// in-tree tuner and SLO controllers are constructed here — the tuner's
/// [`OnlineTuner`](bandana_core::OnlineTuner)s borrow their per-table
/// inputs from this stack frame — ahead of any caller-supplied
/// controllers.
#[allow(clippy::too_many_arguments)]
fn control_main(
    shared: Arc<Shared>,
    commands: Vec<mpsc::Sender<ShardCommand>>,
    config: ControlConfig,
    tuner: Option<TunerInputs>,
    budget: Option<BudgetInputs>,
    relayout: Option<ReLayoutInputs>,
    slo: Option<SloControllerConfig>,
    extra: Vec<Box<dyn Controller>>,
) {
    // Destructure first so the tables outlive (and can be borrowed by)
    // the tuner controller while the receiver moves into it.
    let (tuner_tables, tuner_rest) = match tuner {
        Some(t) => (t.tables, Some((t.settings, t.samples, t.shadow_multiplier))),
        None => (Vec::new(), None),
    };
    let mut controllers: Vec<Box<dyn Controller + '_>> = Vec::new();
    if let Some((settings, samples, shadow_multiplier)) = tuner_rest {
        controllers.push(Box::new(TunerController::new(
            &tuner_tables,
            &settings,
            samples,
            shadow_multiplier,
        )));
    }
    if let Some(inputs) = budget {
        // Like the tuner, the budget controller borrows from this stack
        // frame: the shared re-solve counter and partition view it
        // publishes into live inside `shared`, which outlives the loop.
        controllers.push(Box::new(CacheBudgetController::new(
            inputs,
            &shared.counters.rebudget_solves,
            &shared.cache_partition,
        )));
    }
    if let Some(inputs) = relayout {
        // Borrows the solve counter and blocks-per-request gauge cells
        // from `shared`, like the budget controller above.
        controllers.push(Box::new(ReLayoutController::new(
            inputs,
            &shared.counters.relayout_solves,
            &shared.counters.relayout_bpr,
            &shared.relayout_table_bpr,
        )));
    }
    if let Some(slo_config) = slo {
        controllers.push(Box::new(SloController::new(slo_config)));
    }
    for c in extra {
        controllers.push(c);
    }

    let snapshot_every =
        shared.persistence.as_ref().map(|p| p.snapshot_every_ticks()).filter(|&n| n > 0);
    let mut tick = 0u64;
    let mut next_rotation = Instant::now() + config.window_slot;
    while !shared.shutdown.load(Ordering::Acquire) {
        std::thread::sleep(config.tick);
        // Rotate on the slot cadence, catching up if a tick overslept a
        // slot boundary (each tenant window advances the same number of
        // slots, so shard-merged windows stay recency-aligned).
        let now = Instant::now();
        while now >= next_rotation {
            shared.rotate_windows();
            next_rotation += config.window_slot;
        }
        let snapshot = shared.snapshot(tick);
        for controller in &mut controllers {
            for action in controller.observe(&snapshot) {
                // Audit before applying: the event captures the action
                // alongside the snapshot evidence the controller saw,
                // and `apply_action` consumes the action.
                shared.audit.push(AuditEvent::from_action(controller.name(), &action, &snapshot));
                shared.apply_action(&commands, action);
            }
        }
        tick += 1;
        shared.counters.control_ticks.fetch_add(1, Ordering::Relaxed);
        // Periodic snapshots ride the same bus tick as the controllers.
        // Failures (including injected crashes) are non-fatal here: the
        // previous installed snapshot stays authoritative and the next
        // cadence tick retries.
        if let Some(every) = snapshot_every {
            if tick.is_multiple_of(every) {
                let _ = take_snapshot(&shared, &commands, tick, Duration::from_millis(500));
            }
        }
    }
}

/// Collects every shard's warm state and installs it as the next
/// snapshot. Used by both the metrics bus (periodic cadence) and
/// [`ShardedEngine::snapshot_now`]. `wait` bounds how long each shard
/// gets to reply — a shard that has already exited (shutdown race) makes
/// the collection fail cleanly rather than hang.
fn take_snapshot(
    shared: &Arc<Shared>,
    commands: &[mpsc::Sender<ShardCommand>],
    tick: u64,
    wait: Duration,
) -> Result<(), String> {
    let Some(persistence) = shared.persistence.as_ref() else {
        return Err("no persist directory configured".into());
    };
    let (reply_tx, reply_rx) = mpsc::channel();
    let mut expected = 0usize;
    for tx in commands {
        if tx.send(ShardCommand::CollectSnapshot { reply: reply_tx.clone() }).is_ok() {
            expected += 1;
        }
    }
    drop(reply_tx);
    if expected < commands.len() {
        return Err("a shard worker has already exited".into());
    }
    let mut parts = Vec::with_capacity(expected);
    for _ in 0..expected {
        match reply_rx.recv_timeout(wait) {
            Ok(p) => parts.push(p),
            Err(_) => return Err("timed out collecting shard state for snapshot".into()),
        }
    }
    let mut shard_endurance_bytes = vec![0u64; parts.len()];
    let mut tables = Vec::new();
    for p in parts {
        shard_endurance_bytes[p.shard] = p.endurance_bytes;
        tables.extend(p.tables);
    }
    tables.sort_by_key(|t| t.table);
    let key_count: usize = tables.iter().map(|t| t.keys.len()).sum();
    let data = SnapshotData { written_at_ms: unix_ms_now(), tick, shard_endurance_bytes, tables };
    let path = persistence.install_snapshot(&data).map_err(|e| e.to_string())?;
    shared.recovery.snapshots_installed.fetch_add(1, Ordering::Relaxed);
    shared.recovery.last_snapshot_unix_ms.store(data.written_at_ms, Ordering::Relaxed);
    shared.audit.push(AuditEvent {
        tick,
        uptime: shared.started.elapsed(),
        controller: "persist".into(),
        action: format!("InstallSnapshot {{ path: {:?} }}", path),
        tenant: None,
        cause: format!("{} tables, {key_count} cache keys", data.tables.len()),
    });
    Ok(())
}

/// One part routed into a [`MergedTable`]: which job and part it came
/// from, and where its merged-position list lives in
/// [`MergedTable::positions`].
#[derive(Debug, Clone, Copy)]
struct RoutedPart {
    /// Index into the micro-batch's job slice.
    job: usize,
    /// Index into that job's parts for this shard.
    part: usize,
    /// Start of this part's run inside [`MergedTable::positions`].
    pos_start: usize,
    /// Length of the run (== the part's `unique_ids` length).
    pos_len: usize,
    /// Where the part's unique payloads start inside its job's buffer in
    /// [`ShardWorker::job_payloads`].
    buf_start: usize,
}

/// One table's deduplicated id set merged across every request in a
/// micro-batch, plus the scatter plan back to the routed parts and the
/// lookup state that lives from the table's plan to the end of its fill.
#[derive(Debug, Default)]
struct MergedTable {
    ids: Vec<u32>,
    index_of: IdHashMap<u32, usize>,
    /// The parts merged into `ids` this batch.
    parts: Vec<RoutedPart>,
    /// Concatenated per-part indices into `ids` (one run per part; a
    /// part's unique id `u` resolves to `ids[positions[pos_start + u]]`).
    positions: Vec<usize>,
    /// This table's batch between `plan_batch` and `fill_batch`: every
    /// table is planned before any is filled, so each needs its own.
    scratch: BatchScratch,
    /// Block reads the plan counted for `ids` — this table's share of the
    /// batch's submission.
    planned: usize,
}

impl MergedTable {
    /// Clears the batch's contents, keeping every buffer's capacity.
    fn reset(&mut self) {
        self.ids.clear();
        self.index_of.clear();
        self.parts.clear();
        self.positions.clear();
    }
}

/// The cross-request merge state a shard worker reuses across
/// micro-batches: per-table merged id sets keyed by table id. Entries
/// persist for the worker's lifetime (bounded by the tables the shard
/// owns), so the maps, id vectors, scatter plans and lookup scratches are
/// warm after the first batch touching each table.
#[derive(Debug, Default)]
struct MergeScratch {
    tables: BTreeMap<usize, MergedTable>,
}

impl MergeScratch {
    fn reset(&mut self) {
        for m in self.tables.values_mut() {
            m.reset();
        }
    }
}

/// The reusable per-worker serving state: the shard's dense device and
/// tables plus every piece of steady-state scratch — the cross-request
/// merge maps (each table's lookup scratch included), the block-buffer
/// pool, the device gate's schedule. One of these lives for the worker's
/// lifetime so the hot loop allocates nothing after warmup beyond what
/// each response carries away.
struct ShardWorker {
    device: RebasedDevice,
    tables: HashMap<usize, TableStore>,
    merge: MergeScratch,
    pool: BlockBufPool,
    /// The reads of the micro-batch in flight: when each completes.
    gate: DeviceGate,
    /// Whether the micro-batch in flight serves each of its jobs, indexed
    /// like the batch's job slice.
    serve: Vec<bool>,
    /// One payload buffer per job of the micro-batch in flight, indexed
    /// like the batch's job slice: every part this shard serves for the
    /// job is copied into it, then the buffer is moved into the response
    /// as the one allocation all of the job's `Bytes` views share. Empty
    /// between batches.
    job_payloads: Vec<Vec<u8>>,
}

/// The shard worker: drains its queue in micro-batches, applies tuner
/// commands between batches, and charges device reads through the queue
/// model when one is configured.
/// Validates a proposed placement order against the running `current`
/// layout and materializes it. `None` when the order is not a
/// permutation of the table's vector ids — [`BlockLayout::from_order`]
/// panics on malformed input, and a stale controller or a corrupt
/// snapshot must degrade to "keep the current layout", never take down
/// a shard worker.
fn checked_layout(order: &[u32], current: &BlockLayout) -> Option<BlockLayout> {
    let n = current.num_vectors();
    if order.len() != n as usize {
        return None;
    }
    let mut seen = vec![false; n as usize];
    for &v in order {
        if v >= n || std::mem::replace(&mut seen[v as usize], true) {
            return None;
        }
    }
    Some(BlockLayout::from_order(order.to_vec(), current.vectors_per_block()))
}

#[allow(clippy::too_many_arguments)]
fn shard_main(
    shard: usize,
    device: RebasedDevice,
    tables: HashMap<usize, TableStore>,
    shared: Arc<Shared>,
    mut batching: ShardBatching,
    commands: mpsc::Receiver<ShardCommand>,
    samples: Option<(mpsc::SyncSender<(usize, u32)>, u32)>,
    budget_samples: Option<(mpsc::SyncSender<BudgetSample>, u32)>,
    co_samples: Option<(mpsc::SyncSender<CoAccessSample>, u32)>,
    recovered: Option<ShardRecovered>,
) {
    let mut sample_tick: u32 = 0;
    let mut budget_tick: u32 = 0;
    let mut co_tick: u32 = 0;
    let mut co_seq: u64 = 0;
    let mut batch_seq: u64 = 0;
    let mut tracker =
        batching.device_queue.map(|d| QueueDepthTracker::new(*device.queue_model(), d));
    // The shard's capacity is static: report it before serving begins so
    // metrics show per-shard capacity even for an idle shard.
    shared.shard_stats[shard].lock().expect("shard stats lock").capacity_blocks =
        device.capacity_blocks();
    let mut worker = ShardWorker {
        device,
        tables,
        merge: MergeScratch::default(),
        pool: BlockBufPool::default(),
        gate: DeviceGate::new(),
        serve: Vec::new(),
        job_payloads: Vec::new(),
    };
    // The gate sleeps through device waits: learn how far this thread's
    // sleeps overrun before the first batch relies on it.
    if tracker.is_some() {
        worker.gate.calibrate();
    }
    // Warm restart: apply the recovered snapshot slice before touching
    // the queue, then report readiness — the builder holds admission
    // closed until every shard has flipped `warm_shards`. Rehydration
    // reads blocks through the worker's own pool but never the metrics:
    // recovery I/O is not traffic, and restored endurance is separate.
    if let Some(restore) = recovered {
        if let Some(bytes) = restore.endurance_bytes {
            worker.device.restore_endurance(bytes);
        }
        let mut rehydrated = 0usize;
        for snap in &restore.tables {
            let Some(t) = worker.tables.get_mut(&(snap.table as usize)) else { continue };
            // Remap onto the learned layout the snapshot recorded (v3+)
            // before anything reads blocks, so rehydration and serving
            // both see vectors where the re-layout controller left them.
            // The rewrite is real recovery I/O charged to endurance, but
            // not to the relayout counters — it is not live traffic.
            if !snap.layout_order.is_empty() {
                if let Some(layout) = checked_layout(&snap.layout_order, t.layout()) {
                    let _ = t.apply_layout(&mut worker.device, layout);
                }
            }
            t.set_policy(snap.policy, snap.shadow_multiplier);
            // Restore the learned DRAM partition before rehydrating, so
            // the cache refills to the capacity it actually ran with
            // (0 = a v1 snapshot with no capacity recorded).
            if snap.cache_capacity > 0 {
                t.set_cache_capacity(snap.cache_capacity as usize);
            }
            let entries: Vec<(u32, bool)> =
                snap.keys.iter().map(|&(id, o)| (id, o == KeyOrigin::Demand)).collect();
            match t.rehydrate(&mut worker.device, &entries) {
                Ok(n) => rehydrated += n,
                // A block-read failure leaves the cache partially warm;
                // serving correctness is unaffected.
                Err(_) => continue,
            }
        }
        worker.tables.values().for_each(|t| shared.publish_cache_resident(t));
        shared.recovery.rehydrated_keys.fetch_add(rehydrated as u64, Ordering::Relaxed);
        let endurance = worker.device.endurance();
        let mut stats = shared.shard_stats[shard].lock().expect("shard stats lock");
        stats.bytes_written = endurance.bytes_written();
        stats.drive_writes = endurance.drive_writes();
    }
    shared.warm_shards.fetch_add(1, Ordering::Release);
    loop {
        while let Ok(cmd) = commands.try_recv() {
            match cmd {
                ShardCommand::SetPolicy { table, policy, shadow_multiplier } => {
                    if let Some(t) = worker.tables.get_mut(&table) {
                        t.set_policy(policy, shadow_multiplier);
                    }
                }
                ShardCommand::SetBatchWindow { window } => {
                    batching.window = window;
                }
                ShardCommand::SetCachePartition { table, entries } => {
                    if let Some(t) = worker.tables.get_mut(&table) {
                        t.set_cache_capacity(entries);
                        shared.publish_cache_resident(t);
                    }
                }
                ShardCommand::CollectSnapshot { reply } => {
                    let mut table_snaps: Vec<TableSnapshot> = worker
                        .tables
                        .values()
                        .map(|t| TableSnapshot {
                            table: t.table_id() as u32,
                            policy: t.policy(),
                            shadow_multiplier: t.shadow_multiplier(),
                            cache_capacity: t.cache_capacity() as u32,
                            // Only a layout the re-layout loop actually
                            // changed is journaled; an empty order means
                            // "the build-time layout" on recovery.
                            layout_order: if t.layout_epoch() > 0 {
                                t.layout().order().to_vec()
                            } else {
                                Vec::new()
                            },
                            keys: t
                                .cache_snapshot()
                                .into_iter()
                                .map(|(id, demand)| {
                                    (
                                        id,
                                        if demand {
                                            KeyOrigin::Demand
                                        } else {
                                            KeyOrigin::Prefetch
                                        },
                                    )
                                })
                                .collect(),
                        })
                        .collect();
                    table_snaps.sort_by_key(|t| t.table);
                    let _ = reply.send(ShardSnapshotParts {
                        shard,
                        endurance_bytes: worker.device.endurance().bytes_written(),
                        tables: table_snaps,
                    });
                }
                ShardCommand::Retrain { table, embeddings, reply } => {
                    let ShardWorker { device, tables, .. } = &mut worker;
                    let result = match tables.get_mut(&table) {
                        Some(t) => t.write_embeddings(device, &embeddings),
                        None => Err(BandanaError::NoSuchTable {
                            table,
                            tables: shared.table_shard.len(),
                        }),
                    };
                    if result.is_ok() {
                        let endurance = worker.device.endurance();
                        let counters = worker.device.counters();
                        let mut stats = shared.shard_stats[shard].lock().expect("shard stats lock");
                        stats.bytes_written = endurance.bytes_written();
                        stats.drive_writes = endurance.drive_writes();
                        stats.device_reads = counters.reads;
                    }
                    let _ = reply.send(result);
                }
                ShardCommand::ApplyLayout { table, order } => {
                    let ShardWorker { device, tables, .. } = &mut worker;
                    let Some(t) = tables.get_mut(&table) else { continue };
                    // Validate against the *running* layout: a stale or
                    // malformed order (engine restarted, table re-sized)
                    // is dropped rather than panicking the worker.
                    let Some(layout) = checked_layout(&order, t.layout()) else { continue };
                    if let Ok(rewritten) = t.apply_layout(device, layout) {
                        shared
                            .counters
                            .relayout_rewritten_blocks
                            .fetch_add(rewritten, Ordering::Relaxed);
                        let endurance = worker.device.endurance();
                        let counters = worker.device.counters();
                        let mut stats = shared.shard_stats[shard].lock().expect("shard stats lock");
                        stats.bytes_written = endurance.bytes_written();
                        stats.drive_writes = endurance.drive_writes();
                        stats.device_reads = counters.reads;
                    }
                }
            }
        }
        let jobs =
            match shared.queues[shard].pop_batch(IDLE_POLL, batching.window, batching.max_batch) {
                Pop::Item(jobs) => jobs,
                Pop::Empty => continue,
                Pop::Closed => break,
            };
        batch_seq += 1;
        process_batch(
            shard,
            &jobs,
            &mut worker,
            &shared,
            &mut tracker,
            samples.as_ref(),
            &mut sample_tick,
            budget_samples.as_ref(),
            &mut budget_tick,
            co_samples.as_ref(),
            &mut co_tick,
            &mut co_seq,
            batch_seq,
        );
    }
}

/// Fails every job that routed a part into a table whose lookup returned
/// `error` (the first error a job meets wins).
fn fail_parts(jobs: &[Arc<Job>], parts: &[RoutedPart], error: &BandanaError) {
    for rp in parts {
        let mut st = jobs[rp.job].state.lock().expect("job lock");
        if st.error.is_none() {
            st.error = Some(error.clone());
        }
    }
}

/// Serves one micro-batch, submit-then-reap:
///
/// 1. **Merge** the queued requests' lookups into one deduplicated id list
///    per table.
/// 2. **Plan** every table ([`TableStore::plan_batch`]): cache hits are
///    served from DRAM into the table's scratch right away, and each plan
///    reports how many distinct blocks its misses cover.
/// 3. **Submit** all of those block reads to the depth tracker at one
///    instant. Its schedule gives each read a completion offset and the
///    whole batch its charged device time.
/// 4. **Reap**: fill table after table ([`TableStore::fill_batch`]) with the
///    [`DeviceGate`] ahead of every block read — no block is touched before
///    the model says it arrived — and scatter each table's payloads to its
///    requests as soon as it is filled. The CPU work of one block runs
///    under the reads still in flight behind it.
/// 5. Wait out whatever is left of the charged device time (nothing, unless
///    a fill failed), so no request completes before its batch's reads
///    have, and downstream requests queue behind the device exactly as
///    they would behind real NVM.
///
/// A single batched device read can complete many requests — each exactly
/// once. All working state (merge maps, per-table scratches, buffer pool,
/// schedule) is reused from the [`ShardWorker`] across batches.
#[allow(clippy::too_many_arguments)]
fn process_batch(
    shard: usize,
    jobs: &[Arc<Job>],
    worker: &mut ShardWorker,
    shared: &Arc<Shared>,
    tracker: &mut Option<QueueDepthTracker>,
    samples: Option<&(mpsc::SyncSender<(usize, u32)>, u32)>,
    sample_tick: &mut u32,
    budget_samples: Option<&(mpsc::SyncSender<BudgetSample>, u32)>,
    budget_tick: &mut u32,
    co_samples: Option<&(mpsc::SyncSender<CoAccessSample>, u32)>,
    co_tick: &mut u32,
    co_seq: &mut u64,
    batch_seq: u64,
) {
    let started = Instant::now();
    // Flight recorder: each sampled request's drain into this
    // micro-batch, stamped with the shard's batch sequence number.
    for job in jobs {
        if job.trace != 0 {
            shared.recorder.record(
                shard,
                TraceEvent {
                    request: job.trace,
                    kind: TraceEventKind::BatchDrained,
                    at_ns: shared.now_ns(),
                    dur_ns: 0,
                    shard: shard as u32,
                    tenant: job.tenant as u32,
                    batch: batch_seq,
                },
            );
        }
    }
    let ShardWorker { device, tables, merge, pool, gate, serve, job_payloads } = worker;

    // Decide, per job, whether this batch serves it.
    serve.clear();
    for job in jobs {
        let mut serves = !job.cancelled.load(Ordering::Acquire);
        if serves {
            if let Some(deadline) = job.deadline {
                if started > deadline {
                    if !job.timed_out.swap(true, Ordering::AcqRel) {
                        shared.counters.timed_out.fetch_add(1, Ordering::Relaxed);
                        shared.tenant(job.tenant).timed_out.fetch_add(1, Ordering::Relaxed);
                    }
                    serves = false;
                }
            }
        }
        serve.push(serves);
    }

    // Merge lookups across requests: one deduplicated id list per table,
    // built in the worker's persistent per-table maps. Ids are validated
    // here so one request's bad id fails that request alone, never the
    // whole merged submission; each part records where its unique ids
    // landed in the merged list (a run inside `positions`) and where its
    // payloads go in the job's response buffer.
    merge.reset();
    job_payloads.clear();
    job_payloads.resize_with(jobs.len(), Vec::new);
    for (ji, job) in jobs.iter().enumerate() {
        if !serve[ji] {
            continue;
        }
        let mut payload_bytes = 0;
        for (pi, part) in job.parts_by_shard[shard].iter().enumerate() {
            let table =
                tables.get(&part.table).expect("dispatcher routes queries to the owning shard");
            if let Some(&bad) = part.unique_ids.iter().find(|&&v| v >= table.num_vectors()) {
                let mut st = job.state.lock().expect("job lock");
                if st.error.is_none() {
                    st.error = Some(BandanaError::NoSuchVector {
                        table: part.table,
                        vector: bad,
                        vectors: table.num_vectors(),
                    });
                }
                continue;
            }
            let m = merge.tables.entry(part.table).or_default();
            let pos_start = m.positions.len();
            for &v in &part.unique_ids {
                let next = m.ids.len();
                let idx = *m.index_of.entry(v).or_insert(next);
                if idx == next {
                    m.ids.push(v);
                }
                m.positions.push(idx);
            }
            m.parts.push(RoutedPart {
                job: ji,
                part: pi,
                pos_start,
                pos_len: part.unique_ids.len(),
                buf_start: payload_bytes,
            });
            payload_bytes += part.unique_ids.len() * table.vector_bytes();
        }
        if job.want_payloads {
            job_payloads[ji].resize(payload_bytes, 0);
        }
    }

    // Plan every table before touching the device: hits are copied out of
    // DRAM now, and the plans say how many block reads the whole merged
    // batch costs.
    let mut batch_reads = 0u64;
    for (&t, m) in &mut merge.tables {
        if m.parts.is_empty() {
            continue;
        }
        let table = tables.get_mut(&t).expect("merged tables are owned by this shard");
        match table.plan_batch(&m.ids, &mut m.scratch) {
            Ok(planned) => {
                m.planned = planned;
                batch_reads += planned as u64;
            }
            Err(e) => {
                fail_parts(jobs, &m.parts, &e);
                m.parts.clear();
            }
        }
    }

    // Submit them all at once through the bounded-depth queue model.
    let submitted_ns = shared.now_ns();
    let device_s = gate.submit(tracker.as_mut(), batch_reads);

    // Reap: one fill per table, each block read gated on its completion,
    // the table's payloads copied out to the routed parts' jobs as soon as
    // it is filled.
    let mut local_lookups = 0u64;
    let mut taps = [TapCounts::default(); 3];
    let mut reaped = 0;
    for (&t, m) in &mut merge.tables {
        if m.parts.is_empty() {
            continue;
        }
        let table = tables.get_mut(&t).expect("merged tables are owned by this shard");
        let filled = table.fill_batch(device, &m.ids, &mut m.scratch, pool, || gate.await_next());
        // A failed fill reaped only some of its reads; the next table's
        // still start where this one's end.
        reaped += m.planned;
        gate.skip_to(reaped);
        match filled {
            Ok(()) => {
                let vector_bytes = table.vector_bytes();
                for rp in &m.parts {
                    let job = &jobs[rp.job];
                    let part = &job.parts_by_shard[shard][rp.part];
                    local_lookups += part.expand.len() as u64;
                    if let Some((tx, every)) = samples {
                        for &v in &part.unique_ids {
                            *sample_tick = sample_tick.wrapping_add(1);
                            if sample_tick.is_multiple_of((*every).max(1)) {
                                taps[Tap::Tuner as usize].offer(tx, (part.table, v));
                            }
                        }
                    }
                    // Budget tap: same lossy temporal stride, but tagged
                    // with the requesting tenant so the controller can
                    // weight each table's demand by tenant class.
                    if let Some((tx, every)) = budget_samples {
                        for &v in &part.unique_ids {
                            *budget_tick = budget_tick.wrapping_add(1);
                            if budget_tick.is_multiple_of((*every).max(1)) {
                                taps[Tap::Budget as usize]
                                    .offer(tx, (part.table, v, job.tenant as u32));
                            }
                        }
                    }
                    // Co-access tap: whole parts, one in `every` — the
                    // re-layout controller needs each request's *set* of
                    // ids intact, so sampling strides over parts, never
                    // within one. The group token (per-shard sequence in
                    // the high bits, shard in the low byte) lets the bus
                    // stitch a part back together across drains; sends
                    // stay lossy (`try_send`, drops counted) and
                    // allocation-free — the bounded channel's ring is
                    // preallocated.
                    if let Some((tx, every)) = co_samples {
                        if part.unique_ids.len() > 1 {
                            *co_tick = co_tick.wrapping_add(1);
                            if co_tick.is_multiple_of((*every).max(1)) {
                                *co_seq += 1;
                                let group = (*co_seq << 8) | shard as u64;
                                for &v in &part.unique_ids {
                                    taps[Tap::CoAccess as usize].offer(tx, (part.table, v, group));
                                }
                            }
                        }
                    }
                    if job.want_payloads {
                        let positions = &m.positions[rp.pos_start..rp.pos_start + rp.pos_len];
                        let run =
                            &mut job_payloads[rp.job][rp.buf_start..][..rp.pos_len * vector_bytes];
                        for (dst, &p) in run.chunks_exact_mut(vector_bytes).zip(positions) {
                            dst.copy_from_slice(m.scratch.payload(p));
                        }
                    }
                }
            }
            Err(e) => fail_parts(jobs, &m.parts, &e),
        }
    }

    for (counts, [sent, dropped]) in taps.iter().zip(&shared.counters.taps) {
        if counts.sent + counts.dropped > 0 {
            sent.fetch_add(counts.sent, Ordering::Relaxed);
            dropped.fetch_add(counts.dropped, Ordering::Relaxed);
        }
    }

    // The batch is not done before its reads are: let the rest of the
    // charged device time pass (none, when every read was reaped).
    gate.await_all();

    if device_s > 0.0 {
        // Flight recorder: the batch's device span, per sampled served
        // request (submit spans the charged device time; complete marks
        // its end).
        let device_ns = Duration::from_secs_f64(device_s).as_nanos() as u64;
        for (ji, job) in jobs.iter().enumerate() {
            if !serve[ji] || job.trace == 0 {
                continue;
            }
            shared.recorder.record(
                shard,
                TraceEvent {
                    request: job.trace,
                    kind: TraceEventKind::DeviceSubmit,
                    at_ns: submitted_ns,
                    dur_ns: device_ns,
                    shard: shard as u32,
                    tenant: job.tenant as u32,
                    batch: batch_seq,
                },
            );
            shared.recorder.record(
                shard,
                TraceEvent {
                    request: job.trace,
                    kind: TraceEventKind::DeviceComplete,
                    at_ns: submitted_ns.saturating_add(device_ns),
                    dur_ns: 0,
                    shard: shard as u32,
                    tenant: job.tenant as u32,
                    batch: batch_seq,
                },
            );
        }
    }

    let served = serve.iter().filter(|&&s| s).count() as u64;
    if served > 0 {
        shared.counters.lookups_served.fetch_add(local_lookups, Ordering::Relaxed);
        let service_elapsed = started.elapsed();
        // Fold this shard's contribution into each job's per-request
        // breakdown (the slowest involved shard wins), outside the shard
        // stats lock.
        for (ji, job) in jobs.iter().enumerate() {
            if !serve[ji] {
                continue;
            }
            let queue_wait = started.saturating_duration_since(job.arrival);
            let failed = {
                let mut st = job.state.lock().expect("job lock");
                st.queue_wait = st.queue_wait.max(queue_wait);
                st.service = st.service.max(service_elapsed);
                if device_s > st.device_s {
                    st.device_s = device_s;
                }
                st.error.is_some()
            };
            // Hand the job its payloads: the buffer becomes the response's
            // own allocation and each part gets views of it, so nothing a
            // client holds (or drops, on its own thread) is shared with the
            // cache, the pool or this worker. A job without an error had
            // every part routed, in order, so the parts' runs sit back to
            // back in the buffer; a failed job's response carries no parts.
            if job.want_payloads && !failed {
                let payloads = Bytes::from(std::mem::take(&mut job_payloads[ji]));
                let mut at = 0;
                for part in &job.parts_by_shard[shard] {
                    let vb = tables[&part.table].vector_bytes();
                    let expanded: Vec<Bytes> = part
                        .expand
                        .iter()
                        .map(|&u| payloads.slice(at + u * vb..at + (u + 1) * vb))
                        .collect();
                    at += part.unique_ids.len() * vb;
                    job.state.lock().expect("job lock").results[part.query_index] = Some(expanded);
                }
            }
        }
        let mut stats = shared.shard_stats[shard].lock().expect("shard stats lock");
        stats.batches += 1;
        stats.batched_requests += served;
        stats.largest_batch = stats.largest_batch.max(served);
        stats.lookups += local_lookups;
        for (ji, job) in jobs.iter().enumerate() {
            if !serve[ji] {
                continue;
            }
            stats.served_requests += 1;
            stats.queue_wait.record(started.saturating_duration_since(job.arrival));
            stats.service.record(service_elapsed);
            stats.device.record_secs(device_s);
        }
        if let Some(t) = tracker.as_ref() {
            stats.depth = t.stats();
        }
        stats.gate = gate.stats();
        let mut cache = CacheMetrics::new();
        for t in tables.values() {
            cache.merge(t.metrics());
            shared.publish_cache_resident(t);
        }
        stats.cache = cache;
        stats.device_reads = device.counters().reads;
        stats.capacity_blocks = device.capacity_blocks();
        stats.bytes_written = device.endurance().bytes_written();
        stats.drive_writes = device.endurance().drive_writes();
        stats.pool = pool.stats();
    }

    // Complete every job in the batch exactly once for this shard.
    for job in jobs {
        if job.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            finalize_job(shared, job, Some(shard));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bandana_core::BandanaConfig;
    use bandana_trace::{EmbeddingTable, ModelSpec, TableQuery, TraceGenerator};

    fn build_store(seed: u64) -> (BandanaStore, TraceGenerator) {
        let spec = ModelSpec::test_small();
        let mut generator = TraceGenerator::new(&spec, seed);
        let training = generator.generate_requests(200);
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
        .expect("build store");
        (store, generator)
    }

    #[test]
    fn shards_own_disjoint_tables_covering_the_store() {
        let (store, _) = build_store(1);
        let tables = store.num_tables();
        let engine =
            ShardedEngine::new(store, ServeConfig::default().with_shards(2)).expect("engine");
        let mut seen = std::collections::HashSet::new();
        for shard in engine.shard_tables() {
            for &t in shard {
                assert!(seen.insert(t), "table {t} owned by two shards");
            }
        }
        assert_eq!(seen.len(), tables);
    }

    #[test]
    fn each_tables_predicted_reads_reach_the_metrics() {
        let (store, _) = build_store(1);
        let predicted: Vec<Option<f64>> = (0..store.num_tables())
            .map(|t| store.table(t).unwrap().predicted_reads_per_request())
            .collect();
        assert!(predicted.iter().all(Option::is_some), "{predicted:?}");
        let engine =
            ShardedEngine::new(store, ServeConfig::default().with_shards(2)).expect("engine");
        assert_eq!(engine.metrics().table_reads_per_request_predicted, predicted);
    }

    #[test]
    fn serve_returns_correct_payloads_with_duplicates_coalesced() {
        let (store, _) = build_store(2);
        let mut reference = {
            let (s, _) = build_store(2);
            s
        };
        let engine =
            ShardedEngine::new(store, ServeConfig::default().with_shards(2)).expect("engine");
        let request = Request {
            queries: vec![
                TableQuery::new(0, vec![3, 7, 3, 9, 7]),
                TableQuery::new(1, vec![11, 11]),
            ],
        };
        let results = engine.serve(&request).expect("serve");
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].len(), 5);
        assert_eq!(results[1].len(), 2);
        for (q, query) in request.queries.iter().enumerate() {
            for (i, &v) in query.ids.iter().enumerate() {
                let expected = reference.lookup(query.table, v).expect("reference lookup");
                assert_eq!(
                    results[q][i].as_ref(),
                    expected.as_ref(),
                    "table {} id {v}",
                    query.table
                );
            }
        }
        // Duplicates count as lookups served but share the cache probe.
        let m = engine.metrics();
        assert_eq!(m.lookups, 7);
        assert_eq!(m.completed, 1);
    }

    #[test]
    fn unknown_table_is_rejected_up_front() {
        let (store, _) = build_store(3);
        let engine = ShardedEngine::new(store, ServeConfig::default()).expect("engine");
        let request = Request { queries: vec![TableQuery::new(99, vec![0])] };
        match engine.serve(&request) {
            Err(ServeError::Store(BandanaError::NoSuchTable { table: 99, .. })) => {}
            other => panic!("expected NoSuchTable, got {other:?}"),
        }
        assert_eq!(engine.metrics().failed, 0, "rejected before submission");
    }

    #[test]
    fn invalid_vector_counts_as_failed() {
        let (store, _) = build_store(4);
        let engine = ShardedEngine::new(store, ServeConfig::default()).expect("engine");
        let request = Request { queries: vec![TableQuery::new(0, vec![u32::MAX])] };
        match engine.serve(&request) {
            Err(ServeError::Store(BandanaError::NoSuchVector { .. })) => {}
            other => panic!("expected NoSuchVector, got {other:?}"),
        }
        engine.drain();
        assert_eq!(engine.metrics().failed, 1);
    }

    #[test]
    fn empty_request_completes_immediately() {
        let (store, _) = build_store(5);
        let engine = ShardedEngine::new(store, ServeConfig::default()).expect("engine");
        let results = engine.serve(&Request::default()).expect("serve");
        assert!(results.is_empty());
        assert_eq!(engine.metrics().completed, 1);
    }

    #[test]
    fn metrics_account_every_submitted_request() {
        let (store, mut generator) = build_store(6);
        let engine =
            ShardedEngine::new(store, ServeConfig::default().with_shards(2)).expect("engine");
        let trace = generator.generate_requests(100);
        for r in &trace.requests {
            engine.submit(r).expect("submit");
        }
        engine.drain();
        let m = engine.metrics();
        assert_eq!(m.submitted, 100);
        assert_eq!(m.completed + m.shed + m.timed_out + m.failed, 100);
        assert_eq!(m.completed, 100);
        assert_eq!(m.lookups as usize, trace.total_lookups());
        assert_eq!(m.outstanding, 0);
        assert_eq!(m.latency.count, 100);
        // Per-shard lookups sum to the engine total.
        let shard_lookups: u64 = m.per_shard.iter().map(|s| s.lookups).sum();
        assert_eq!(shard_lookups, m.lookups);
        // Cache counters flow through from the tables; duplicate ids are
        // coalesced before the cache, so probes never exceed lookups.
        assert!(m.cache.lookups > 0);
        assert!(m.cache.lookups <= m.lookups, "{} > {}", m.cache.lookups, m.lookups);
    }

    #[test]
    fn shutdown_returns_final_metrics_and_rejects_new_work() {
        let (store, mut generator) = build_store(7);
        let engine = ShardedEngine::new(store, ServeConfig::default()).expect("engine");
        let trace = generator.generate_requests(10);
        for r in &trace.requests {
            engine.submit(r).expect("submit");
        }
        engine.drain();
        let m = engine.shutdown();
        assert_eq!(m.completed, 10);
    }

    #[test]
    fn zero_timeout_times_requests_out_without_deadlock() {
        let (store, mut generator) = build_store(8);
        let engine =
            ShardedEngine::new(store, ServeConfig::default().with_request_timeout(Duration::ZERO))
                .expect("engine");
        let trace = generator.generate_requests(20);
        for r in &trace.requests {
            engine.submit(r).expect("submit");
        }
        engine.drain();
        let m = engine.metrics();
        assert_eq!(m.completed + m.timed_out, 20);
        assert!(m.timed_out > 0, "a zero deadline must time out");
    }

    #[test]
    fn engine_config_is_validated() {
        let (store, _) = build_store(9);
        let err = ShardedEngine::new(store, ServeConfig::default().with_shards(0));
        assert!(matches!(err, Err(BandanaError::Config(_))));
        let (store, _) = build_store(9);
        let err = ShardedEngine::new(store, ServeConfig::default().with_max_batch(0));
        assert!(matches!(err, Err(BandanaError::Config(_))));
        let (store, _) = build_store(9);
        let err = ShardedEngine::new(store, ServeConfig::default().with_device_queue(0));
        assert!(matches!(err, Err(BandanaError::Config(_))));
    }

    /// Builds a store with identity placement and no prefetching, so block
    /// residency is predictable: table 0 holds 128 32-byte vectors per
    /// 4 KB block and a miss costs exactly one read.
    fn build_plain_store(seed: u64) -> BandanaStore {
        let spec = ModelSpec::test_small();
        let mut generator = TraceGenerator::new(&spec, seed);
        let training = generator.generate_requests(200);
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
        BandanaStore::build(
            &spec,
            &embeddings,
            &training,
            BandanaConfig::default()
                .with_cache_vectors(256)
                .with_partitioner(bandana_core::PartitionerKind::Identity)
                .with_admission(bandana_cache::AdmissionPolicy::None),
        )
        .expect("build store")
    }

    #[test]
    fn shards_report_dense_capacity_endurance_and_pool_stats() {
        let (store, mut generator) = build_store(21);
        let total_blocks: u64 =
            (0..store.num_tables()).map(|t| store.table(t).unwrap().num_blocks()).sum();
        let engine =
            ShardedEngine::new(store, ServeConfig::default().with_shards(2)).expect("engine");
        let trace = generator.generate_requests(300);
        for r in &trace.requests {
            engine.submit(r).expect("submit");
        }
        engine.drain();
        let m = engine.metrics();
        // Dense rebased devices: every shard's capacity is exactly its
        // tables' blocks, and the shard capacities partition the store.
        let sum: u64 = m.per_shard.iter().map(|s| s.capacity_blocks).sum();
        assert_eq!(sum, total_blocks);
        for s in &m.per_shard {
            assert!(s.capacity_blocks > 0, "shard {} has no capacity", s.shard);
            // Serving never writes: per-shard endurance stays untouched.
            assert_eq!(s.bytes_written, 0);
            assert_eq!(s.drive_writes, 0.0);
        }
        // A 300-request run churns the caches: the worker pools must be
        // recycling buffers rather than allocating per read.
        assert!(m.pool.acquires > 0);
        assert!(m.pool.reuses > 0, "pools never recycled: {:?}", m.pool);
    }

    #[test]
    fn batch_window_merges_lookups_from_different_requests_into_one_read() {
        let store = build_plain_store(31);
        let engine = ShardedEngine::new(
            store,
            ServeConfig::default()
                .with_shards(1)
                .with_batch_window(Duration::from_millis(100))
                .with_max_batch(8),
        )
        .expect("engine");
        // Eight requests, each a distinct id inside table 0's block 0
        // (identity layout, 128 vectors per block). Without cross-request
        // batching these cost eight cold block reads; merged into one
        // micro-batch they coalesce into one.
        for v in 0..8u32 {
            engine.submit(&Request { queries: vec![TableQuery::new(0, vec![v])] }).expect("submit");
        }
        engine.drain();
        let m = engine.metrics();
        assert_eq!(m.completed, 8);
        let reads: u64 = m.per_shard.iter().map(|s| s.device_reads).sum();
        assert!(reads < 8, "cross-request merging must coalesce block reads, got {reads}");
        assert!(m.batching.mean_batch() > 1.0, "{:?}", m.batching);
        assert!(m.batching.largest_batch >= 2);
        assert_eq!(m.batching.batched_requests, 8);
    }

    #[test]
    fn batches_never_exceed_max_batch() {
        let (store, mut generator) = build_store(32);
        let max_batch = 3;
        let engine = ShardedEngine::new(
            store,
            ServeConfig::default()
                .with_shards(2)
                .with_batch_window(Duration::from_millis(5))
                .with_max_batch(max_batch),
        )
        .expect("engine");
        let trace = generator.generate_requests(200);
        for r in &trace.requests {
            engine.submit(r).expect("submit");
        }
        engine.drain();
        let m = engine.metrics();
        assert_eq!(m.completed, 200);
        assert!(
            m.batching.largest_batch <= max_batch as u64,
            "batch of {} exceeded max {max_batch}",
            m.batching.largest_batch
        );
        for s in &m.per_shard {
            assert!(s.largest_batch <= max_batch as u64);
        }
    }

    #[test]
    fn invalid_id_fails_only_its_own_request_inside_a_merged_batch() {
        let store = build_plain_store(33);
        let engine = std::sync::Arc::new(
            ShardedEngine::new(
                store,
                ServeConfig::default()
                    .with_shards(1)
                    .with_batch_window(Duration::from_millis(100))
                    .with_max_batch(4),
            )
            .expect("engine"),
        );
        std::thread::scope(|scope| {
            let good_engine = std::sync::Arc::clone(&engine);
            let good = scope.spawn(move || {
                good_engine.serve(&Request { queries: vec![TableQuery::new(0, vec![5, 6])] })
            });
            let bad_engine = std::sync::Arc::clone(&engine);
            let bad = scope.spawn(move || {
                bad_engine.serve(&Request { queries: vec![TableQuery::new(0, vec![7, u32::MAX])] })
            });
            let good = good.join().expect("good caller");
            let bad = bad.join().expect("bad caller");
            assert!(good.is_ok(), "valid request poisoned by a bad batchmate: {good:?}");
            assert!(
                matches!(bad, Err(ServeError::Store(BandanaError::NoSuchVector { .. }))),
                "{bad:?}"
            );
        });
        engine.drain();
        let m = engine.metrics();
        assert_eq!(m.completed, 1);
        assert_eq!(m.failed, 1);
    }

    #[test]
    fn depth_one_device_queue_charges_exactly_the_single_read_latency() {
        let store = build_plain_store(34);
        let model = nvm_sim::QueueModel::default();
        let engine = ShardedEngine::new(
            store,
            ServeConfig::default().with_shards(1).with_max_batch(1).with_device_queue(1),
        )
        .expect("engine");
        for v in [0u32, 200, 400, 600] {
            engine.serve(&Request { queries: vec![TableQuery::new(0, vec![v])] }).expect("serve");
        }
        let m = engine.shutdown();
        // Backward-compat contract: at max_batch 1 and depth 1 every block
        // read is charged the device's QD1 service time, nothing more.
        let reads: u64 = m.per_shard.iter().map(|s| s.device_reads).sum();
        assert!(reads >= 4, "four distinct blocks were read");
        let expected = reads as f64 * model.mean_latency(1);
        assert!(
            (m.batching.depth.busy_s - expected).abs() < 1e-9,
            "busy {} vs expected {}",
            m.batching.depth.busy_s,
            expected
        );
        assert_eq!(m.batching.depth.peak_depth, 1);
        assert_eq!(m.batching.depth.submitted, reads);
        assert!(m.breakdown.device.mean_s > 0.0);
        // The charged time really elapsed: measured service can only be
        // slower than the simulated device component.
        assert!(m.service.mean_s + 1e-9 >= m.device_time.mean_s);
    }

    #[test]
    fn bad_part_in_a_two_table_batch_fails_its_request_alone_behind_the_gate() {
        let store = build_plain_store(37);
        let mut reference = build_plain_store(37);
        // The window only closes early on a full batch, so both requests
        // ride one micro-batch however slowly they are submitted.
        let engine = ShardedEngine::new(
            store,
            ServeConfig::default()
                .with_shards(1)
                .with_batch_window(Duration::from_secs(10))
                .with_max_batch(2)
                .with_device_queue(4),
        )
        .expect("engine");
        let client = engine.client(TenantId::DEFAULT).expect("default tenant");
        let good = Request {
            queries: vec![TableQuery::new(0, vec![5, 300, 5]), TableQuery::new(1, vec![9, 1000])],
        };
        let bad = Request {
            queries: vec![TableQuery::new(0, vec![7, 600]), TableQuery::new(1, vec![11, u32::MAX])],
        };
        let mut good_ticket = client.submit(&good).expect("submit good");
        let mut bad_ticket = client.submit(&bad).expect("submit bad");
        let good_response = good_ticket.wait().expect("good response");
        let bad_response = bad_ticket.wait().expect("bad response");

        assert!(good_response.status.is_ok(), "poisoned by a batchmate: {good_response:?}");
        for (q, query) in good.queries.iter().enumerate() {
            for (i, &v) in query.ids.iter().enumerate() {
                let expected = reference.lookup(query.table, v).expect("reference lookup");
                assert_eq!(good_response.parts[q][i].as_ref(), expected.as_ref(), "{query:?}[{i}]");
            }
        }
        assert!(
            matches!(
                bad_response.status,
                ResponseStatus::Failed(BandanaError::NoSuchVector { table: 1, .. })
            ),
            "{bad_response:?}"
        );
        assert!(bad_response.parts.is_empty());
        // Both rode the same batch: charged the same reads, and neither
        // completed before that device time had passed.
        assert!(good_response.device > Duration::ZERO);
        assert_eq!(good_response.device, bad_response.device);
        for response in [&good_response, &bad_response] {
            assert!(response.service >= response.device, "{response:?}");
        }
        let m = engine.shutdown();
        assert_eq!((m.completed, m.failed), (1, 1));
        assert_eq!(m.batching.batches, 1);
        // Blocks 0, 2 and 4 of table 0, blocks 0 and 7 of table 1; the bad
        // part never reached the device.
        assert_eq!(m.batching.depth.submitted, 5);
    }

    #[test]
    fn every_batch_is_charged_what_charge_batch_charges_for_its_reads() {
        let store = build_plain_store(38);
        let started = Instant::now();
        let engine = ShardedEngine::new(
            store,
            ServeConfig::default().with_shards(1).with_max_batch(1).with_device_queue(4),
        )
        .expect("engine");
        let client = engine.client(TenantId::DEFAULT).expect("default tenant");
        let mut twin = QueueDepthTracker::new(nvm_sim::QueueModel::default(), 4);
        // Identity layout, no prefetch, 128 vectors to a block: the first id
        // of each never-touched block costs exactly one read.
        let blocks = |table: usize, range: std::ops::Range<u32>| {
            TableQuery::new(table, range.map(|b| b * 128).collect())
        };
        let batches = [
            (vec![blocks(0, 0..1)], 1),
            (vec![blocks(0, 1..3)], 2),
            (vec![blocks(0, 3..8), blocks(1, 0..7)], 12),
            (vec![blocks(0, 1..3)], 0), // cached by now: nothing to submit
            (vec![blocks(1, 7..30)], 23),
        ];
        let mut charged = Duration::ZERO;
        for (queries, reads) in batches {
            let response = client.call(&Request { queries }).expect("call");
            assert!(response.status.is_ok(), "{response:?}");
            let expected = Duration::from_secs_f64(twin.charge_batch(reads));
            assert_eq!(response.device, expected, "a batch of {reads} reads");
            assert!(response.service >= response.device, "{response:?}");
            charged += response.device;
        }
        let m = engine.shutdown();
        assert_eq!(m.per_shard[0].device_reads, 38);
        assert_eq!(m.batching.depth, twin.stats(), "same submissions, same accounting");
        assert!((charged.as_secs_f64() - twin.stats().busy_s).abs() < 1e-6);
        // Stalled time is wall time the one worker really spent.
        assert!(m.batching.device_stall_s <= started.elapsed().as_secs_f64());
        assert_eq!(m.batching.device_stall_s, m.per_shard[0].device_stall_s);
    }

    #[test]
    fn budget_controller_repartitions_a_live_engine() {
        let (store, _) = build_store(35);
        let config = ServeConfig::default()
            .with_shards(1)
            .with_control(ControlConfig {
                tick: Duration::from_millis(1),
                ..ControlConfig::default()
            })
            .with_cache_budget(CacheBudgetSettings {
                window_lookups: 256,
                sample_every: 1,
                granularity: 32,
                ..CacheBudgetSettings::default()
            });
        let engine = ShardedEngine::new(store, config).expect("engine");

        // The build-time split is published before any solve.
        let before = engine.metrics().cache_partition;
        assert_eq!(before.len(), 2);
        let total: usize = before.iter().map(|p| p.capacity_entries).sum();
        assert!(total > 0);

        // Table 0 draws uniformly from a working set far larger than its
        // share; table 1 only ever touches 4 keys. The controller should
        // move budget from table 1 to table 0.
        let mut rng = 99u64;
        let mut lcg = move |keys: u32| {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((rng >> 33) as u32) % keys
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            for _ in 0..64 {
                let ids: Vec<u32> = (0..8).map(|_| lcg(1500)).collect();
                let request = Request {
                    queries: vec![TableQuery::new(0, ids), TableQuery::new(1, vec![lcg(4)])],
                };
                engine.submit(&request).expect("submit");
            }
            engine.drain();
            if engine.metrics().rebudget_applied > 0 || Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }

        let m = engine.shutdown();
        assert!(m.rebudget_solves >= 1, "window traffic must trigger a solve");
        assert!(m.rebudget_applied >= 1, "the skew must clear hysteresis");
        // The partition conserved the total budget and favours table 0.
        let after_total: usize = m.cache_partition.iter().map(|p| p.capacity_entries).sum();
        assert_eq!(after_total, total, "re-partitioning never mints budget");
        let t0 = m.cache_partition.iter().find(|p| p.table == 0).expect("table 0");
        let t1 = m.cache_partition.iter().find(|p| p.table == 1).expect("table 1");
        assert!(
            t0.capacity_entries > t1.capacity_entries,
            "hot table must win the budget: {:?}",
            m.cache_partition
        );
        // Every applied move is audited with its justifying curve.
        let audited = m
            .audit
            .iter()
            .filter(|e| e.controller == "cache-budget")
            .filter(|e| e.action.contains("SetCachePartition"))
            .count();
        assert!(audited >= 1, "applied moves must be audited");
        assert!(
            m.audit
                .iter()
                .filter(|e| e.controller == "cache-budget")
                .all(|e| e.cause.contains("hit-rate curve")),
            "audit entries must carry the curve evidence"
        );
    }

    #[test]
    fn learned_partition_survives_a_warm_restart() {
        let dir =
            std::env::temp_dir().join(format!("bandana-rebudget-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = || {
            ServeConfig::default()
                .with_shards(1)
                .with_control(ControlConfig {
                    tick: Duration::from_millis(1),
                    ..ControlConfig::default()
                })
                .with_cache_budget(CacheBudgetSettings {
                    window_lookups: 256,
                    sample_every: 1,
                    granularity: 32,
                    ..CacheBudgetSettings::default()
                })
                .with_persist(PersistConfig::new(&dir).with_snapshot_every_ticks(0))
        };

        let caps = |p: &[TableCachePartition]| -> Vec<(usize, usize)> {
            p.iter().map(|t| (t.table, t.capacity_entries)).collect()
        };

        // First life: traffic skewed *against* the build-time split
        // re-partitions the caches, then the learned split is snapshotted.
        // The table the build favours only ever touches 4 keys, so no solve
        // can hand it back the share it was built with.
        let (store, _) = build_store(36);
        let engine = ShardedEngine::new(store, config()).expect("engine");
        let built = caps(&engine.metrics().cache_partition);
        assert_ne!(built[0].1, built[1].1, "the build favours one table: {built:?}");
        let favoured = usize::from(built[1].1 > built[0].1);
        let mut rng = 7u64;
        let mut lcg = move |keys: u32| {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((rng >> 33) as u32) % keys
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            for _ in 0..64 {
                let ids: Vec<u32> = (0..8).map(|_| lcg(2000)).collect();
                let mut queries = vec![
                    TableQuery::new(favoured, vec![lcg(4)]),
                    TableQuery::new(1 - favoured, ids),
                ];
                queries.sort_by_key(|q| q.table);
                engine.submit(&Request { queries }).expect("submit");
            }
            engine.drain();
            if engine.metrics().rebudget_applied > 0 || Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        engine.snapshot_now().expect("snapshot");
        // The controller keeps moving budget until the engine stops, so
        // what a restart must reproduce is the split the installed snapshot
        // recorded — not wherever the partition had drifted to by shutdown.
        drop(engine.shutdown());
        let (_, snapshot) = bandana_persist::load_latest(&dir)
            .expect("readable snapshot dir")
            .expect("snapshot_now installed a snapshot");
        let learned: Vec<(usize, usize)> =
            snapshot.tables.iter().map(|t| (t.table as usize, t.cache_capacity as usize)).collect();
        assert_ne!(learned, built, "the run must have learned a split of its own");

        // Second life: the recovered engine resumes the learned split,
        // not the build-time one.
        let (store, _) = build_store(36);
        let engine = ShardedEngine::recover(store, config()).expect("recover");
        let restored = caps(&engine.metrics().cache_partition);
        assert_eq!(restored, learned, "partition must survive the restart");
        drop(engine.shutdown());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn relayout_controller_regroups_a_live_engine() {
        let store = build_plain_store(40);
        let config = ServeConfig::default()
            .with_shards(1)
            .with_control(ControlConfig {
                tick: Duration::from_millis(1),
                ..ControlConfig::default()
            })
            .with_relayout(ReLayoutSettings {
                window_requests: 64,
                hot_blocks: 8,
                ..ReLayoutSettings::default()
            });
        let engine = ShardedEngine::new(store, config).expect("engine");

        // A probe across every block of table 0: its payloads must be
        // byte-identical before and after the live remap.
        let probe =
            Request { queries: vec![TableQuery::new(0, (0..16).map(|k| k * 128).collect())] };
        let before = engine.serve(&probe).expect("probe");

        // Post-drift traffic: under the build-time identity layout (128
        // 32-byte vectors per 4 KB block) every request straddles four
        // blocks of table 0, while all 128 hot vectors would fit in one.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut g = 0u32;
        loop {
            for _ in 0..64 {
                g = (g + 1) % 32;
                let ids = vec![g, 128 + g, 256 + g, 384 + g];
                let request = Request { queries: vec![TableQuery::new(0, ids)] };
                engine.submit(&request).expect("submit");
            }
            engine.drain();
            if engine.metrics().relayout_rewritten_blocks > 0 || Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }

        let after = engine.serve(&probe).expect("probe after remap");
        assert_eq!(before, after, "reads must be byte-identical across the remap");

        let m = engine.shutdown();
        assert!(m.relayout_solves >= 1, "the degraded window must solve");
        assert!(m.relayout_applied >= 1, "drifted traffic must apply a re-layout");
        assert!(m.relayout_rewritten_blocks > 0, "an applied re-layout rewrites blocks");
        assert!(m.blocks_per_request_observed > 0.0, "gauges must publish");
        assert!(m.blocks_per_request_ideal > 0.0, "gauges must publish");
        // Rewritten blocks are real device writes charged to endurance.
        assert!(
            m.per_shard.iter().any(|s| s.bytes_written > 0),
            "re-layout writes must charge endurance: {:?}",
            m.per_shard
        );
        // Every applied re-layout is audited with its justifying
        // blocks-per-request figures.
        let audited: Vec<_> = m.audit.iter().filter(|e| e.controller == "re-layout").collect();
        assert!(!audited.is_empty(), "applied re-layouts must be audited");
        assert!(
            audited
                .iter()
                .all(|e| e.action.contains("ApplyLayout") && e.cause.contains("blocks/request")),
            "audit entries must carry the window evidence: {audited:?}"
        );
    }

    #[test]
    fn per_table_fragmentation_gauges_exist_only_with_the_controller() {
        let tables = ModelSpec::test_small().num_tables();
        for (relayout, len) in [(false, 0), (true, tables)] {
            let mut config = ServeConfig::default().with_shards(1);
            if relayout {
                config = config.with_relayout(ReLayoutSettings::default());
            }
            let m = ShardedEngine::new(build_plain_store(41), config).expect("engine").shutdown();
            assert_eq!(m.table_blocks_per_request_observed, vec![0.0; len], "relayout {relayout}");
            assert_eq!(m.table_blocks_per_request_ideal, vec![0.0; len], "relayout {relayout}");
        }
    }

    /// A one-shot controller that hands the engine a fixed layout once:
    /// exercises [`Action::ApplyLayout`] through the public controller
    /// API with a deterministic order.
    struct OneShotRelayout {
        order: Vec<u32>,
        fired: bool,
    }

    impl Controller for OneShotRelayout {
        fn name(&self) -> &str {
            "one-shot-relayout"
        }

        fn observe(&mut self, _snapshot: &EngineSnapshot) -> Vec<Action> {
            if std::mem::replace(&mut self.fired, true) {
                return Vec::new();
            }
            vec![Action::ApplyLayout {
                table: 0,
                order: self.order.clone(),
                observed_blocks_per_request: 2.0,
                ideal_blocks_per_request: 1.0,
            }]
        }
    }

    #[test]
    fn learned_layout_survives_a_warm_restart() {
        let dir =
            std::env::temp_dir().join(format!("bandana-relayout-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = || {
            ServeConfig::default()
                .with_shards(1)
                .with_control(ControlConfig {
                    tick: Duration::from_millis(1),
                    ..ControlConfig::default()
                })
                .with_persist(PersistConfig::new(&dir).with_snapshot_every_ticks(0))
        };
        // Swap the first two blocks of table 0 (2048 vectors, 128 per
        // block), leaving the rest of the order untouched.
        let order: Vec<u32> = (128..256).chain(0..128).chain(256..2048).collect();

        // First life: the controller applies the layout, a probe pins
        // the expected bytes, and the learned order is snapshotted.
        let store = build_plain_store(41);
        let engine = ShardedEngine::new_with_controllers(
            store,
            config(),
            vec![Box::new(OneShotRelayout { order: order.clone(), fired: false })],
        )
        .expect("engine");
        let probe = Request { queries: vec![TableQuery::new(0, vec![0, 1, 128, 129, 2000])] };
        let expected = engine.serve(&probe).expect("probe");
        let deadline = Instant::now() + Duration::from_secs(10);
        while engine.metrics().relayout_rewritten_blocks < 2 {
            assert!(Instant::now() < deadline, "shard never applied the layout");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(engine.serve(&probe).expect("probe"), expected, "remap preserves reads");
        engine.snapshot_now().expect("snapshot");
        let m = engine.shutdown();
        assert_eq!(m.relayout_applied, 1);
        assert_eq!(m.relayout_rewritten_blocks, 2, "exactly the two swapped blocks rewrite");

        // Second life: the recovered engine serves identical bytes and
        // carries the learned layout, not the build-time one — its next
        // snapshot re-journals the same order.
        let store = build_plain_store(41);
        let engine = ShardedEngine::recover(store, config()).expect("recover");
        assert_eq!(engine.serve(&probe).expect("probe"), expected, "restart preserves reads");
        engine.snapshot_now().expect("snapshot");
        drop(engine.shutdown());
        let (_, opened) = Persistence::open(&PersistConfig::new(&dir)).expect("open persist dir");
        let snap = opened.snapshot.expect("a snapshot was installed").1;
        let journaled = snap.tables.iter().find(|t| t.table == 0).expect("table 0 in snapshot");
        assert_eq!(journaled.layout_order, order, "the learned layout must survive the restart");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
