//! Observability: flight-recorder request tracing, Prometheus-style
//! metrics exposition, and the control-plane audit log.
//!
//! Three layers, one module:
//!
//! 1. **Flight recorder** — sampled (1-in-N, default off) per-request
//!    lifecycle events written into preallocated per-shard
//!    [`TraceRing`]s. Recording is allocation-free: a [`TraceEvent`] is
//!    a `Copy` struct, and a ring push is an indexed overwrite into a
//!    buffer sized at construction, so sampling can stay on without
//!    breaking the engine's zero-allocation steady-state guarantee.
//!    Traces export two ways: [`chrome_trace`] renders Chrome
//!    trace-event JSON (load it in Perfetto / `chrome://tracing`), and
//!    [`TraceRecorder::request_traces`] yields structured
//!    [`RequestTrace`] records for tests.
//! 2. **Prometheus exposition** — [`render_prometheus`] encodes an
//!    [`EngineMetrics`] plus a live [`EngineSnapshot`] as Prometheus
//!    text format with stable `bandana_*` metric names (per-shard,
//!    per-tenant, windowed, shed-breakdown, pool, endurance, and
//!    control-tick series). The admin plane's `GET /metrics`
//!    ([`AdminServer`](crate::net::AdminServer)) serves this string
//!    verbatim.
//! 3. **Audit log** — every [`Action`] the metrics bus applies becomes
//!    an [`AuditEvent`] (tick, controller name, the action, and the
//!    snapshot fields that caused it) in a bounded [`AuditLog`] ring
//!    surfaced through [`EngineMetrics::audit`], so an SLO trip at tick
//!    212 is explainable — and assertable — after the fact.
//!
//! The [`render_tenant_table`] / [`render_audit_log`] helpers exist so
//! the examples share one human-readable rendering instead of each
//! hand-rolling a table.

use crate::control::{Action, EngineSnapshot};
use crate::engine::{EngineMetrics, Tap};
use crate::hist::{fmt_secs, LatencySummary};
use crate::tenant::{TenantId, TenantMetrics};
use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Default number of [`TraceEvent`] slots in each per-shard ring.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;
/// Default number of [`AuditEvent`]s the bounded audit ring retains.
pub const DEFAULT_AUDIT_CAPACITY: usize = 256;

/// Flight-recorder configuration (see
/// [`ServeConfig::with_trace`](crate::ServeConfig::with_trace)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Sample one request in `sample_every` admissions; `0` disables
    /// tracing entirely (the default — untraced requests never touch
    /// the rings).
    pub sample_every: u64,
    /// Per-shard ring capacity in events; once full, the oldest events
    /// are overwritten.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { sample_every: 0, capacity: DEFAULT_TRACE_CAPACITY }
    }
}

impl TraceConfig {
    /// A config sampling one request in `sample_every` with the default
    /// ring capacity.
    pub fn sampled(sample_every: u64) -> Self {
        TraceConfig { sample_every, ..TraceConfig::default() }
    }

    /// Whether any request will ever be sampled.
    pub fn enabled(&self) -> bool {
        self.sample_every > 0
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.enabled() && self.capacity == 0 {
            return Err("trace sampling is enabled but the ring capacity is 0".into());
        }
        Ok(())
    }
}

/// A request-lifecycle stage recorded by the flight recorder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TraceEventKind {
    /// The request passed admission (breaker, quota) and got a trace id.
    #[default]
    Admitted,
    /// One shard's part of the request entered its tenant lane.
    LaneEnqueued,
    /// A shard worker drained the part into a micro-batch.
    BatchDrained,
    /// The batch's block reads were submitted to the simulated device.
    DeviceSubmit,
    /// The simulated device finished the batch's reads.
    DeviceComplete,
    /// Terminal: every part finished and the request completed.
    Completed,
    /// Terminal: the request was shed (lane overflow or cancellation).
    Shed,
    /// Terminal: the request's deadline expired before service.
    TimedOut,
}

impl TraceEventKind {
    /// The stable name used in the Chrome trace export.
    pub fn name(self) -> &'static str {
        match self {
            TraceEventKind::Admitted => "admitted",
            TraceEventKind::LaneEnqueued => "lane-enqueued",
            TraceEventKind::BatchDrained => "batch-drained",
            TraceEventKind::DeviceSubmit => "device-submit",
            TraceEventKind::DeviceComplete => "device-complete",
            TraceEventKind::Completed => "completed",
            TraceEventKind::Shed => "shed",
            TraceEventKind::TimedOut => "timed-out",
        }
    }

    /// Whether this event ends a request's lifecycle (exactly one per
    /// sampled request).
    pub fn is_terminal(self) -> bool {
        matches!(self, TraceEventKind::Completed | TraceEventKind::Shed | TraceEventKind::TimedOut)
    }
}

/// One flight-recorder event: plain `Copy` data, so recording never
/// allocates.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraceEvent {
    /// Nonzero trace id assigned at admission (`0` is never recorded).
    pub request: u64,
    /// Lifecycle stage.
    pub kind: TraceEventKind,
    /// Nanoseconds since the engine started.
    pub at_ns: u64,
    /// Span duration in nanoseconds (`0` for instant events).
    pub dur_ns: u64,
    /// Shard the event happened on (`0` for engine-level events).
    pub shard: u32,
    /// Tenant the request belongs to (runtime index).
    pub tenant: u32,
    /// Per-shard batch sequence number (`0` outside batch processing).
    pub batch: u64,
}

/// A preallocated fixed-capacity event ring: pushes are indexed
/// overwrites (allocation-free), and once full the oldest events go.
#[derive(Debug)]
pub struct TraceRing {
    slots: Vec<TraceEvent>,
    next: usize,
    recorded: u64,
}

impl TraceRing {
    /// A ring with `capacity` preallocated slots (`0` drops everything).
    pub fn with_capacity(capacity: usize) -> Self {
        TraceRing { slots: vec![TraceEvent::default(); capacity], next: 0, recorded: 0 }
    }

    /// The fixed slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        usize::try_from(self.recorded).unwrap_or(usize::MAX).min(self.slots.len())
    }

    /// Whether nothing is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever pushed, including overwritten ones.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events lost to wrap-around overwrites.
    pub fn dropped(&self) -> u64 {
        self.recorded - self.len() as u64
    }

    /// Records one event, overwriting the oldest when full. Never
    /// allocates.
    pub fn push(&mut self, event: TraceEvent) {
        self.recorded += 1;
        let cap = self.slots.len();
        if cap == 0 {
            return;
        }
        self.slots[self.next] = event;
        self.next = (self.next + 1) % cap;
    }

    /// The held events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let len = self.len();
        if self.recorded <= self.slots.len() as u64 {
            self.slots[..len].to_vec()
        } else {
            let mut out = Vec::with_capacity(len);
            out.extend_from_slice(&self.slots[self.next..]);
            out.extend_from_slice(&self.slots[..self.next]);
            out
        }
    }
}

/// The engine-wide flight recorder: a deterministic 1-in-N admission
/// sampler plus one [`TraceRing`] per shard.
#[derive(Debug)]
pub struct TraceRecorder {
    rings: Vec<Mutex<TraceRing>>,
    sample_every: u64,
    admissions: AtomicU64,
}

impl TraceRecorder {
    /// A recorder for `num_rings` shards. When the config is disabled
    /// the rings are zero-capacity, so the recorder holds no memory.
    pub fn new(config: TraceConfig, num_rings: usize) -> Self {
        let capacity = if config.enabled() { config.capacity } else { 0 };
        TraceRecorder {
            rings: (0..num_rings.max(1))
                .map(|_| Mutex::new(TraceRing::with_capacity(capacity)))
                .collect(),
            sample_every: config.sample_every,
            admissions: AtomicU64::new(0),
        }
    }

    /// Whether sampling is on.
    pub fn enabled(&self) -> bool {
        self.sample_every > 0
    }

    /// Draws the next admission's sampling decision: a nonzero trace id
    /// for every `sample_every`-th admission, `0` otherwise. The
    /// counter-based draw is deterministic — the k-th sampled admission
    /// always gets id `k`.
    pub fn sample(&self) -> u64 {
        if self.sample_every == 0 {
            return 0;
        }
        let n = self.admissions.fetch_add(1, Ordering::Relaxed);
        if n.is_multiple_of(self.sample_every) {
            n / self.sample_every + 1
        } else {
            0
        }
    }

    /// Records `event` into ring `ring % num_rings`. A `request` id of
    /// `0` (unsampled) is ignored. Allocation-free.
    pub fn record(&self, ring: usize, event: TraceEvent) {
        if event.request == 0 || !self.enabled() {
            return;
        }
        let ring = &self.rings[ring % self.rings.len()];
        ring.lock().expect("trace ring poisoned").push(event);
    }

    /// Every held event across all rings, sorted by timestamp.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = Vec::new();
        for ring in &self.rings {
            all.extend(ring.lock().expect("trace ring poisoned").events());
        }
        all.sort_by_key(|e| (e.at_ns, e.request, e.kind.is_terminal()));
        all
    }

    /// Events lost to ring wrap-around, summed across rings.
    pub fn dropped(&self) -> u64 {
        self.rings.iter().map(|r| r.lock().expect("trace ring poisoned").dropped()).sum()
    }

    /// Groups the held events into per-request [`RequestTrace`]s,
    /// ordered by trace id. Requests whose early events were overwritten
    /// still appear with whatever survived.
    pub fn request_traces(&self) -> Vec<RequestTrace> {
        let events = self.events();
        let mut traces: Vec<RequestTrace> = Vec::new();
        for event in events {
            match traces.iter_mut().find(|t| t.id == event.request) {
                Some(trace) => trace.events.push(event),
                None => traces.push(RequestTrace {
                    id: event.request,
                    tenant: event.tenant,
                    events: vec![event],
                }),
            }
        }
        traces.sort_by_key(|t| t.id);
        traces
    }

    /// Renders the held events as Chrome trace-event JSON (see
    /// [`chrome_trace`]).
    pub fn dump_chrome_trace(&self) -> String {
        chrome_trace(&self.events())
    }
}

/// One sampled request's surviving lifecycle events, oldest first.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTrace {
    /// The trace id assigned at admission (nonzero).
    pub id: u64,
    /// Tenant runtime index the request belonged to.
    pub tenant: u32,
    /// The events, in timestamp order.
    pub events: Vec<TraceEvent>,
}

impl RequestTrace {
    /// The trace's terminal event kind, if one survived in the ring.
    pub fn terminal(&self) -> Option<TraceEventKind> {
        self.events.iter().rev().map(|e| e.kind).find(|k| k.is_terminal())
    }

    /// How many terminal events the trace carries (the engine records
    /// exactly one per request).
    pub fn terminal_count(&self) -> usize {
        self.events.iter().filter(|e| e.kind.is_terminal()).count()
    }
}

/// Renders events as Chrome trace-event JSON: a `{"traceEvents":[...]}`
/// document loadable in Perfetto or `chrome://tracing`. Shards map to
/// `pid`, tenants to `tid`, and timestamps to microseconds since engine
/// start; the trace id and batch number ride in `args`.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ts_us = e.at_ns as f64 / 1e3;
        let dur_us = e.dur_ns as f64 / 1e3;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{ts_us},\"dur\":{dur_us},\
             \"pid\":{},\"tid\":{},\"args\":{{\"request\":{},\"batch\":{}}}}}",
            e.kind.name(),
            e.shard,
            e.tenant,
            e.request,
            e.batch
        );
    }
    out.push_str("]}\n");
    out
}

/// One control-plane decision, captured as it was applied: which
/// controller acted, what it did, and the snapshot evidence it acted on.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditEvent {
    /// The bus tick the action was applied on.
    pub tick: u64,
    /// Engine uptime at the snapshot the controller observed.
    pub uptime: Duration,
    /// [`Controller::name`](crate::Controller::name) of the author.
    pub controller: String,
    /// The applied [`Action`], rendered.
    pub action: String,
    /// The tenant the action targeted, when it targeted one.
    pub tenant: Option<TenantId>,
    /// The snapshot fields that explain the decision.
    pub cause: String,
}

impl AuditEvent {
    /// Captures `action` (authored by `controller`) with the snapshot
    /// evidence behind it.
    pub fn from_action(controller: &str, action: &Action, snapshot: &EngineSnapshot) -> Self {
        let (action_s, tenant, cause) = match action {
            Action::SetSloShed { tenant, shed } => {
                let t = snapshot.tenants.iter().find(|t| t.id == *tenant);
                let cause = match (shed, t) {
                    (true, Some(t)) => format!(
                        "recent-window p99 {} over the {} budget ({} samples, {} queued, \
                         {} outstanding)",
                        fmt_secs(t.recent.p99_s),
                        t.slo_p99.map_or_else(|| "?".into(), |d| fmt_secs(d.as_secs_f64())),
                        t.recent.count,
                        t.queued,
                        t.outstanding,
                    ),
                    (false, Some(t)) => {
                        format!("hold expired with {} samples in the recent window", t.recent.count)
                    }
                    (_, None) => "tenant absent from the snapshot".into(),
                };
                (format!("SetSloShed{{tenant: {tenant}, shed: {shed}}}"), Some(*tenant), cause)
            }
            Action::SetLaneCap { tenant, cap } => (
                format!("SetLaneCap{{tenant: {tenant}, cap: {cap}}}"),
                Some(*tenant),
                format!("{} requests queued engine-wide", snapshot.queued()),
            ),
            Action::SetBatchWindow { window } => (
                format!("SetBatchWindow{{window: {window:?}}}"),
                None,
                format!(
                    "previous window {:?}, {} requests queued",
                    snapshot.batch_window,
                    snapshot.queued()
                ),
            ),
            Action::SetPolicy { table, policy, shadow_multiplier } => (
                format!(
                    "SetPolicy{{table: {table}, policy: {policy:?}, \
                     shadow_multiplier: {shadow_multiplier}}}"
                ),
                None,
                "miniature-cache epoch retune".into(),
            ),
            Action::SetCachePartition { table, entries, curve } => {
                // The evidence IS the curve: the sampled (size, hit-rate)
                // points the allocator weighed when it granted this table
                // its new share.
                let points: Vec<String> =
                    curve.iter().map(|&(s, h)| format!("{s}:{h:.3}")).collect();
                let previous = snapshot
                    .cache_partition
                    .iter()
                    .find(|p| p.table == *table)
                    .map_or_else(|| "unknown".into(), |p| p.capacity_entries.to_string());
                (
                    format!("SetCachePartition{{table: {table}, entries: {entries}}}"),
                    None,
                    format!("from {previous} entries; hit-rate curve [{}]", points.join(", ")),
                )
            }
            Action::ApplyLayout {
                table,
                order,
                observed_blocks_per_request,
                ideal_blocks_per_request,
            } => (
                format!("ApplyLayout{{table: {table}, vectors: {}}}", order.len()),
                None,
                format!(
                    "observed {observed_blocks_per_request:.2} blocks/request vs ideal \
                     {ideal_blocks_per_request:.2} over the window"
                ),
            ),
            // `Action` is non_exhaustive; future variants still audit.
            #[allow(unreachable_patterns)]
            other => (format!("{other:?}"), None, String::new()),
        };
        AuditEvent {
            tick: snapshot.tick,
            uptime: snapshot.uptime,
            controller: controller.to_string(),
            action: action_s,
            tenant,
            cause,
        }
    }
}

impl fmt::Display for AuditEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[tick {:>5} +{}] {:<14} {}",
            self.tick,
            fmt_secs(self.uptime.as_secs_f64()),
            self.controller,
            self.action
        )?;
        if !self.cause.is_empty() {
            write!(f, " — {}", self.cause)?;
        }
        Ok(())
    }
}

/// A bounded ring of [`AuditEvent`]s: once `capacity` is reached the
/// oldest entries are evicted.
#[derive(Debug)]
pub struct AuditLog {
    events: Mutex<VecDeque<AuditEvent>>,
    capacity: usize,
    recorded: AtomicU64,
}

impl AuditLog {
    /// A log retaining at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        AuditLog {
            events: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
            recorded: AtomicU64::new(0),
        }
    }

    /// Appends an event, evicting the oldest when full.
    pub fn push(&self, event: AuditEvent) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        if self.capacity == 0 {
            return;
        }
        let mut events = self.events.lock().expect("audit log poisoned");
        if events.len() == self.capacity {
            events.pop_front();
        }
        events.push_back(event);
    }

    /// The retained events, oldest first.
    pub fn snapshot(&self) -> Vec<AuditEvent> {
        self.events.lock().expect("audit log poisoned").iter().cloned().collect()
    }

    /// Total events ever recorded, including evicted ones.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }
}

fn put(out: &mut String, name: &str, labels: &str, value: f64) {
    if labels.is_empty() {
        let _ = writeln!(out, "{name} {value}");
    } else {
        let _ = writeln!(out, "{name}{{{labels}}} {value}");
    }
}

fn head(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Emits a [`LatencySummary`] as a Prometheus summary: quantile samples
/// plus `_sum`/`_count`, and a `_max` gauge alongside.
fn put_summary(out: &mut String, name: &str, labels: &str, s: &LatencySummary) {
    let sep = if labels.is_empty() { String::new() } else { format!("{labels},") };
    for (q, v) in [("0.5", s.p50_s), ("0.95", s.p95_s), ("0.99", s.p99_s), ("0.999", s.p999_s)] {
        put(out, name, &format!("{sep}quantile=\"{q}\""), v);
    }
    put(out, &format!("{name}_sum"), labels, s.mean_s * s.count as f64);
    put(out, &format!("{name}_count"), labels, s.count as f64);
    put(out, &format!("{name}_max"), labels, s.max_s);
}

/// Renders the engine's metrics and a live snapshot in the Prometheus
/// text exposition format.
///
/// Metric names are stable (`bandana_*`, documented in the ROADMAP's
/// metric-name schema): engine counters, latency summaries per stage,
/// batching and device-queue series, block-buffer pool counters, cache
/// behaviour, per-shard series (including the `bytes_written` /
/// `drive_writes` endurance pair), per-tenant QoS series with the
/// shed-reason breakdown and the recent-window summaries, and the
/// control-plane tick/action/audit counters with live lane depths from
/// the snapshot. The admin plane's `GET /metrics`
/// ([`AdminServer`](crate::net::AdminServer)) serves this verbatim —
/// byte-identical, pinned by a test.
pub fn render_prometheus(metrics: &EngineMetrics, snapshot: &EngineSnapshot) -> String {
    let m = metrics;
    let mut out = String::new();

    // Engine-wide request counters.
    head(&mut out, "bandana_requests_submitted_total", "counter", "Requests admitted for service.");
    put(&mut out, "bandana_requests_submitted_total", "", m.submitted as f64);
    head(&mut out, "bandana_requests_completed_total", "counter", "Requests fully served.");
    put(&mut out, "bandana_requests_completed_total", "", m.completed as f64);
    head(&mut out, "bandana_requests_shed_total", "counter", "Requests shed by overload control.");
    put(&mut out, "bandana_requests_shed_total", "", m.shed as f64);
    head(&mut out, "bandana_requests_timed_out_total", "counter", "Requests past their deadline.");
    put(&mut out, "bandana_requests_timed_out_total", "", m.timed_out as f64);
    head(&mut out, "bandana_requests_failed_total", "counter", "Requests failed by store errors.");
    put(&mut out, "bandana_requests_failed_total", "", m.failed as f64);
    head(&mut out, "bandana_requests_outstanding", "gauge", "Requests currently in flight.");
    put(&mut out, "bandana_requests_outstanding", "", m.outstanding as f64);
    head(&mut out, "bandana_lookups_total", "counter", "Vector lookups served.");
    put(&mut out, "bandana_lookups_total", "", m.lookups as f64);

    // Latency: one summary per measured stage, plus the served-request
    // breakdown means.
    head(
        &mut out,
        "bandana_latency_seconds",
        "summary",
        "Per-request latency by stage (e2e, queue_wait, service, device).",
    );
    put_summary(&mut out, "bandana_latency_seconds", "stage=\"e2e\"", &m.latency);
    put_summary(&mut out, "bandana_latency_seconds", "stage=\"queue_wait\"", &m.queue_wait);
    put_summary(&mut out, "bandana_latency_seconds", "stage=\"service\"", &m.service);
    put_summary(&mut out, "bandana_latency_seconds", "stage=\"device\"", &m.device_time);
    head(
        &mut out,
        "bandana_e2e_latency_seconds",
        "summary",
        "End-to-end latency from the cumulative log-bucketed histogram.",
    );
    put_summary(&mut out, "bandana_e2e_latency_seconds", "", &m.e2e_histogram.summary());
    head(
        &mut out,
        "bandana_latency_breakdown_mean_seconds",
        "gauge",
        "Served-request mean by component (queue_wait, device, service).",
    );
    put(
        &mut out,
        "bandana_latency_breakdown_mean_seconds",
        "component=\"queue_wait\"",
        m.breakdown.queue_wait.mean_s,
    );
    put(
        &mut out,
        "bandana_latency_breakdown_mean_seconds",
        "component=\"device\"",
        m.breakdown.device.mean_s,
    );
    put(
        &mut out,
        "bandana_latency_breakdown_mean_seconds",
        "component=\"service\"",
        m.breakdown.service.mean_s,
    );

    // Micro-batching and the simulated device queue.
    head(&mut out, "bandana_batches_total", "counter", "Micro-batches processed.");
    put(&mut out, "bandana_batches_total", "", m.batching.batches as f64);
    head(&mut out, "bandana_batched_requests_total", "counter", "Requests carried by batches.");
    put(&mut out, "bandana_batched_requests_total", "", m.batching.batched_requests as f64);
    head(&mut out, "bandana_largest_batch", "gauge", "Largest batch ever drained.");
    put(&mut out, "bandana_largest_batch", "", m.batching.largest_batch as f64);
    head(&mut out, "bandana_mean_batch", "gauge", "Mean requests per batch.");
    put(&mut out, "bandana_mean_batch", "", m.batching.mean_batch());
    head(&mut out, "bandana_device_reads_submitted_total", "counter", "Reads sent to the device.");
    put(&mut out, "bandana_device_reads_submitted_total", "", m.batching.depth.submitted as f64);
    head(&mut out, "bandana_device_reads_completed_total", "counter", "Reads the device finished.");
    put(&mut out, "bandana_device_reads_completed_total", "", m.batching.depth.completed as f64);
    head(&mut out, "bandana_device_queue_depth_peak", "gauge", "Highest device depth observed.");
    put(&mut out, "bandana_device_queue_depth_peak", "", f64::from(m.batching.depth.peak_depth));
    head(&mut out, "bandana_device_queue_depth_mean", "gauge", "Mean depth completed reads saw.");
    put(&mut out, "bandana_device_queue_depth_mean", "", m.batching.depth.mean_depth());
    head(&mut out, "bandana_device_busy_seconds_total", "counter", "Simulated device-busy time.");
    put(&mut out, "bandana_device_busy_seconds_total", "", m.batching.depth.busy_s);
    head(&mut out, "bandana_device_stall_seconds_total", "counter", "Wall time stalled on reads.");
    put(&mut out, "bandana_device_stall_seconds_total", "", m.batching.device_stall_s);

    // Block-buffer pool.
    head(&mut out, "bandana_pool_acquires_total", "counter", "Block buffers handed out.");
    put(&mut out, "bandana_pool_acquires_total", "", m.pool.acquires as f64);
    head(&mut out, "bandana_pool_reuses_total", "counter", "Acquires served by recycling.");
    put(&mut out, "bandana_pool_reuses_total", "", m.pool.reuses as f64);
    head(&mut out, "bandana_pool_allocs_total", "counter", "Acquires that allocated fresh.");
    put(&mut out, "bandana_pool_allocs_total", "", m.pool.allocs as f64);
    head(&mut out, "bandana_pool_retained", "gauge", "Buffers currently retained.");
    put(&mut out, "bandana_pool_retained", "", m.pool.retained as f64);

    // Cache behaviour.
    head(&mut out, "bandana_cache_lookups_total", "counter", "Cache lookups.");
    put(&mut out, "bandana_cache_lookups_total", "", m.cache.lookups as f64);
    head(&mut out, "bandana_cache_hits_total", "counter", "Lookups served from DRAM.");
    put(&mut out, "bandana_cache_hits_total", "", m.cache.hits as f64);
    head(&mut out, "bandana_cache_misses_total", "counter", "Lookups that went to NVM.");
    put(&mut out, "bandana_cache_misses_total", "", m.cache.misses as f64);
    head(&mut out, "bandana_cache_block_reads_total", "counter", "NVM block reads issued.");
    put(&mut out, "bandana_cache_block_reads_total", "", m.cache.block_reads as f64);
    head(&mut out, "bandana_cache_prefetches_admitted_total", "counter", "Prefetches admitted.");
    put(
        &mut out,
        "bandana_cache_prefetches_admitted_total",
        "",
        m.cache.prefetches_admitted as f64,
    );
    head(
        &mut out,
        "bandana_cache_prefetch_hits_total",
        "counter",
        "Admitted prefetches later hit.",
    );
    put(&mut out, "bandana_cache_prefetch_hits_total", "", m.cache.prefetch_hits as f64);
    head(&mut out, "bandana_cache_evictions_total", "counter", "Cache evictions.");
    put(&mut out, "bandana_cache_evictions_total", "", m.cache.evictions as f64);
    head(&mut out, "bandana_cache_hit_rate", "gauge", "Hit fraction over all lookups.");
    put(&mut out, "bandana_cache_hit_rate", "", m.cache.hit_rate());

    // Per-shard series, including the endurance pair.
    head(&mut out, "bandana_shard_requests_total", "counter", "Requests a shard served parts of.");
    for s in &m.per_shard {
        put(
            &mut out,
            "bandana_shard_requests_total",
            &shard_label(s.shard),
            s.served_requests as f64,
        );
    }
    head(&mut out, "bandana_shard_lookups_total", "counter", "Vector lookups per shard.");
    for s in &m.per_shard {
        put(&mut out, "bandana_shard_lookups_total", &shard_label(s.shard), s.lookups as f64);
    }
    head(&mut out, "bandana_shard_tables", "gauge", "Tables owned by the shard.");
    for s in &m.per_shard {
        put(&mut out, "bandana_shard_tables", &shard_label(s.shard), s.tables.len() as f64);
    }
    head(&mut out, "bandana_shard_latency_seconds", "summary", "Per-shard service/device latency.");
    for s in &m.per_shard {
        let shard = shard_label(s.shard);
        put_summary(
            &mut out,
            "bandana_shard_latency_seconds",
            &format!("{shard},stage=\"service\""),
            &s.service,
        );
        put_summary(
            &mut out,
            "bandana_shard_latency_seconds",
            &format!("{shard},stage=\"device\""),
            &s.device_time,
        );
    }
    head(&mut out, "bandana_shard_cache_hit_rate", "gauge", "Per-shard cache hit fraction.");
    for s in &m.per_shard {
        put(&mut out, "bandana_shard_cache_hit_rate", &shard_label(s.shard), s.cache.hit_rate());
    }
    head(&mut out, "bandana_shard_device_reads_total", "counter", "Block reads per shard device.");
    for s in &m.per_shard {
        put(
            &mut out,
            "bandana_shard_device_reads_total",
            &shard_label(s.shard),
            s.device_reads as f64,
        );
    }
    head(&mut out, "bandana_shard_batches_total", "counter", "Micro-batches per shard.");
    for s in &m.per_shard {
        put(&mut out, "bandana_shard_batches_total", &shard_label(s.shard), s.batches as f64);
    }
    head(&mut out, "bandana_shard_largest_batch", "gauge", "Largest batch per shard.");
    for s in &m.per_shard {
        put(&mut out, "bandana_shard_largest_batch", &shard_label(s.shard), s.largest_batch as f64);
    }
    head(&mut out, "bandana_shard_queue_depth_mean", "gauge", "Mean device depth per shard.");
    for s in &m.per_shard {
        put(
            &mut out,
            "bandana_shard_queue_depth_mean",
            &shard_label(s.shard),
            s.depth.mean_depth(),
        );
    }
    head(&mut out, "bandana_shard_queue_depth_peak", "gauge", "Peak device depth per shard.");
    for s in &m.per_shard {
        put(
            &mut out,
            "bandana_shard_queue_depth_peak",
            &shard_label(s.shard),
            f64::from(s.depth.peak_depth),
        );
    }
    head(
        &mut out,
        "bandana_shard_device_stall_seconds_total",
        "counter",
        "Wall time stalled on reads per shard.",
    );
    for s in &m.per_shard {
        put(
            &mut out,
            "bandana_shard_device_stall_seconds_total",
            &shard_label(s.shard),
            s.device_stall_s,
        );
    }
    head(&mut out, "bandana_shard_capacity_blocks", "gauge", "Device capacity in blocks.");
    for s in &m.per_shard {
        put(
            &mut out,
            "bandana_shard_capacity_blocks",
            &shard_label(s.shard),
            s.capacity_blocks as f64,
        );
    }
    head(
        &mut out,
        "bandana_shard_bytes_written_total",
        "counter",
        "Bytes written to the shard's device (endurance).",
    );
    for s in &m.per_shard {
        put(
            &mut out,
            "bandana_shard_bytes_written_total",
            &shard_label(s.shard),
            s.bytes_written as f64,
        );
    }
    head(&mut out, "bandana_shard_drive_writes", "gauge", "Full drive writes so far (endurance).");
    for s in &m.per_shard {
        put(&mut out, "bandana_shard_drive_writes", &shard_label(s.shard), s.drive_writes);
    }
    head(&mut out, "bandana_shard_pool_reuse_rate", "gauge", "Pool reuse fraction per shard.");
    for s in &m.per_shard {
        put(&mut out, "bandana_shard_pool_reuse_rate", &shard_label(s.shard), s.pool.reuse_rate());
    }

    // Per-tenant QoS series.
    head(&mut out, "bandana_tenant_weight", "gauge", "Registered DRR weight.");
    for t in &m.per_tenant {
        put(&mut out, "bandana_tenant_weight", &tenant_label(t), f64::from(t.weight));
    }
    head(&mut out, "bandana_tenant_priority", "gauge", "Priority class index (0 = high).");
    for t in &m.per_tenant {
        put(&mut out, "bandana_tenant_priority", &tenant_label(t), t.priority_class.index() as f64);
    }
    head(&mut out, "bandana_tenant_admission_quota", "gauge", "In-flight quota (-1 = none).");
    for t in &m.per_tenant {
        let quota = t.admission_quota.map_or(-1.0, |q| q as f64);
        put(&mut out, "bandana_tenant_admission_quota", &tenant_label(t), quota);
    }
    head(
        &mut out,
        "bandana_tenant_slo_budget_seconds",
        "gauge",
        "Recent-window p99 budget (-1 = none).",
    );
    for t in &m.per_tenant {
        let budget = t.slo_p99.map_or(-1.0, |d| d.as_secs_f64());
        put(&mut out, "bandana_tenant_slo_budget_seconds", &tenant_label(t), budget);
    }
    head(&mut out, "bandana_tenant_submitted_total", "counter", "Admitted requests per tenant.");
    for t in &m.per_tenant {
        put(&mut out, "bandana_tenant_submitted_total", &tenant_label(t), t.submitted as f64);
    }
    head(&mut out, "bandana_tenant_completed_total", "counter", "Completed requests per tenant.");
    for t in &m.per_tenant {
        put(&mut out, "bandana_tenant_completed_total", &tenant_label(t), t.completed as f64);
    }
    head(&mut out, "bandana_tenant_shed_total", "counter", "Shed requests per tenant.");
    for t in &m.per_tenant {
        put(&mut out, "bandana_tenant_shed_total", &tenant_label(t), t.shed as f64);
    }
    head(
        &mut out,
        "bandana_tenant_shed_reason_total",
        "counter",
        "Shed requests by reason (lane_full, quota, slo, reclaimed).",
    );
    for t in &m.per_tenant {
        let label = tenant_label(t);
        for (reason, count) in [
            ("lane_full", t.shed_reasons.lane_full),
            ("quota", t.shed_reasons.quota),
            ("slo", t.shed_reasons.slo),
            ("reclaimed", t.shed_reasons.reclaimed),
        ] {
            put(
                &mut out,
                "bandana_tenant_shed_reason_total",
                &format!("{label},reason=\"{reason}\""),
                count as f64,
            );
        }
    }
    head(&mut out, "bandana_tenant_timed_out_total", "counter", "Timed-out requests per tenant.");
    for t in &m.per_tenant {
        put(&mut out, "bandana_tenant_timed_out_total", &tenant_label(t), t.timed_out as f64);
    }
    head(&mut out, "bandana_tenant_failed_total", "counter", "Failed requests per tenant.");
    for t in &m.per_tenant {
        put(&mut out, "bandana_tenant_failed_total", &tenant_label(t), t.failed as f64);
    }
    head(&mut out, "bandana_tenant_outstanding", "gauge", "In-flight requests per tenant.");
    for t in &m.per_tenant {
        put(&mut out, "bandana_tenant_outstanding", &tenant_label(t), t.outstanding as f64);
    }
    head(&mut out, "bandana_tenant_slo_shedding", "gauge", "1 while the SLO breaker is tripped.");
    for t in &m.per_tenant {
        put(
            &mut out,
            "bandana_tenant_slo_shedding",
            &tenant_label(t),
            if t.slo_shedding { 1.0 } else { 0.0 },
        );
    }
    head(
        &mut out,
        "bandana_tenant_latency_seconds",
        "summary",
        "Cumulative e2e latency per tenant.",
    );
    for t in &m.per_tenant {
        put_summary(&mut out, "bandana_tenant_latency_seconds", &tenant_label(t), &t.latency);
    }
    head(
        &mut out,
        "bandana_tenant_recent_latency_seconds",
        "summary",
        "Recent-window e2e latency per tenant (what the SLO breaker sees).",
    );
    for t in &m.per_tenant {
        put_summary(&mut out, "bandana_tenant_recent_latency_seconds", &tenant_label(t), &t.recent);
    }

    // Control plane and the live snapshot.
    head(&mut out, "bandana_tuner_swaps_total", "counter", "Admission-policy hot-swaps applied.");
    put(&mut out, "bandana_tuner_swaps_total", "", m.tuner_swaps as f64);
    head(
        &mut out,
        "bandana_tap_sent_total",
        "counter",
        "Samples a shard-side tap handed its controller.",
    );
    for tap in Tap::ALL {
        let label = format!("tap=\"{}\"", tap.label());
        put(&mut out, "bandana_tap_sent_total", &label, m.taps[tap as usize].sent as f64);
    }
    head(
        &mut out,
        "bandana_tap_dropped_total",
        "counter",
        "Samples a shard-side tap dropped on a full controller channel.",
    );
    for tap in Tap::ALL {
        let label = format!("tap=\"{}\"", tap.label());
        put(&mut out, "bandana_tap_dropped_total", &label, m.taps[tap as usize].dropped as f64);
    }
    head(&mut out, "bandana_control_ticks_total", "counter", "Metrics-bus ticks.");
    put(&mut out, "bandana_control_ticks_total", "", m.control_ticks as f64);
    head(&mut out, "bandana_control_actions_total", "counter", "Controller actions applied.");
    put(&mut out, "bandana_control_actions_total", "", m.control_actions as f64);
    head(&mut out, "bandana_audit_events", "gauge", "Audit events currently retained.");
    put(&mut out, "bandana_audit_events", "", m.audit.len() as f64);
    head(&mut out, "bandana_rebudget_solves_total", "counter", "Cache budget re-solves.");
    put(&mut out, "bandana_rebudget_solves_total", "", m.rebudget_solves as f64);
    head(&mut out, "bandana_rebudget_applied_total", "counter", "Cache re-partitions applied.");
    put(&mut out, "bandana_rebudget_applied_total", "", m.rebudget_applied as f64);
    head(&mut out, "bandana_relayout_solves_total", "counter", "Block re-layout re-solves.");
    put(&mut out, "bandana_relayout_solves_total", "", m.relayout_solves as f64);
    head(&mut out, "bandana_relayout_applied_total", "counter", "Block re-layouts applied.");
    put(&mut out, "bandana_relayout_applied_total", "", m.relayout_applied as f64);
    head(
        &mut out,
        "bandana_relayout_rewritten_blocks_total",
        "counter",
        "Blocks rewritten by applied re-layouts.",
    );
    put(
        &mut out,
        "bandana_relayout_rewritten_blocks_total",
        "",
        m.relayout_rewritten_blocks as f64,
    );
    head(
        &mut out,
        "bandana_blocks_per_request_observed",
        "gauge",
        "Observed blocks per request over the freshest re-layout window of any table.",
    );
    put(&mut out, "bandana_blocks_per_request_observed", "", m.blocks_per_request_observed);
    head(
        &mut out,
        "bandana_blocks_per_request_ideal",
        "gauge",
        "Ideal (perfectly packed) blocks per request over that same window.",
    );
    put(&mut out, "bandana_blocks_per_request_ideal", "", m.blocks_per_request_ideal);
    for (name, help, values) in [
        (
            "bandana_table_blocks_per_request_observed",
            "Observed blocks per request over each table's freshest re-layout window.",
            &m.table_blocks_per_request_observed,
        ),
        (
            "bandana_table_blocks_per_request_ideal",
            "Ideal blocks per request over each table's freshest re-layout window.",
            &m.table_blocks_per_request_ideal,
        ),
    ] {
        head(&mut out, name, "gauge", help);
        for (table, &value) in values.iter().enumerate() {
            put(&mut out, name, &format!("table=\"{table}\""), value);
        }
    }
    head(
        &mut out,
        "bandana_table_cache_capacity_entries",
        "gauge",
        "Live DRAM cache capacity per table.",
    );
    for p in &m.cache_partition {
        put(
            &mut out,
            "bandana_table_cache_capacity_entries",
            &format!("table=\"{}\"", p.table),
            p.capacity_entries as f64,
        );
    }
    head(
        &mut out,
        "bandana_table_cache_target_entries",
        "gauge",
        "Budget controller's solved target per table.",
    );
    for p in &m.cache_partition {
        put(
            &mut out,
            "bandana_table_cache_target_entries",
            &format!("table=\"{}\"", p.table),
            p.target_entries as f64,
        );
    }
    head(
        &mut out,
        "bandana_table_cache_resident_bytes",
        "gauge",
        "Payload bytes each table's DRAM cache holds (entries x vector size).",
    );
    for (table, &bytes) in m.cache_resident_bytes.iter().enumerate() {
        put(
            &mut out,
            "bandana_table_cache_resident_bytes",
            &format!("table=\"{table}\""),
            bytes as f64,
        );
    }
    head(
        &mut out,
        "bandana_table_reads_per_request_predicted",
        "gauge",
        "Block reads per request the build-time solve predicted for each table's admission set.",
    );
    for (table, reads) in m.table_reads_per_request_predicted.iter().enumerate() {
        if let Some(reads) = reads {
            put(
                &mut out,
                "bandana_table_reads_per_request_predicted",
                &format!("table=\"{table}\""),
                *reads,
            );
        }
    }
    head(&mut out, "bandana_control_tick", "gauge", "Current bus tick.");
    put(&mut out, "bandana_control_tick", "", snapshot.tick as f64);
    head(&mut out, "bandana_uptime_seconds", "gauge", "Engine uptime.");
    put(&mut out, "bandana_uptime_seconds", "", snapshot.uptime.as_secs_f64());
    head(&mut out, "bandana_window_span_seconds", "gauge", "Recent-window span.");
    put(&mut out, "bandana_window_span_seconds", "", snapshot.window_span.as_secs_f64());
    head(&mut out, "bandana_batch_window_seconds", "gauge", "Current batch window.");
    put(&mut out, "bandana_batch_window_seconds", "", snapshot.batch_window.as_secs_f64());
    head(&mut out, "bandana_queued_requests", "gauge", "Requests queued engine-wide right now.");
    put(&mut out, "bandana_queued_requests", "", snapshot.queued() as f64);
    head(&mut out, "bandana_lane_depth", "gauge", "Live queue depth per shard lane.");
    for shard in &snapshot.shards {
        for (lane, depth) in shard.lane_depths.iter().enumerate() {
            put(
                &mut out,
                "bandana_lane_depth",
                &format!("shard=\"{}\",lane=\"{lane}\"", shard.shard),
                *depth as f64,
            );
        }
    }

    // Durability and warm restart.
    head(
        &mut out,
        "bandana_recovery_replayed_records",
        "gauge",
        "WAL records replayed at recovery (0 on a cold start).",
    );
    put(&mut out, "bandana_recovery_replayed_records", "", m.recovery.replayed_records as f64);
    head(
        &mut out,
        "bandana_recovery_rehydrated_keys",
        "gauge",
        "Cache entries rehydrated from the recovered snapshot.",
    );
    put(&mut out, "bandana_recovery_rehydrated_keys", "", m.recovery.rehydrated_keys as f64);
    head(
        &mut out,
        "bandana_recovery_snapshots_installed_total",
        "counter",
        "Snapshots installed by this engine instance.",
    );
    put(
        &mut out,
        "bandana_recovery_snapshots_installed_total",
        "",
        m.recovery.snapshots_installed as f64,
    );
    head(
        &mut out,
        "bandana_recovery_snapshot_age_seconds",
        "gauge",
        "Seconds since the newest snapshot was written (-1 when none exists).",
    );
    put(&mut out, "bandana_recovery_snapshot_age_seconds", "", m.recovery.snapshot_age_seconds);

    out
}

fn shard_label(shard: usize) -> String {
    format!("shard=\"{shard}\"")
}

fn tenant_label(t: &TenantMetrics) -> String {
    format!("tenant=\"{}\"", t.id.0)
}

/// Renders the per-tenant QoS table the examples print: completions,
/// the shed-reason breakdown, and cumulative vs recent-window p99.
/// `name` maps a [`TenantId`] to a display name.
pub fn render_tenant_table(
    tenants: &[TenantMetrics],
    mut name: impl FnMut(TenantId) -> String,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>6} {:>6} {:>10} {:>8} {:>10} {:>8} {:>6} {:>10} {:>10} {:>10}",
        "tenant",
        "class",
        "weight",
        "completed",
        "shed",
        "lane-full",
        "quota",
        "slo",
        "p50",
        "p99",
        "recent p99"
    );
    for t in tenants {
        let _ = writeln!(
            out,
            "{:<10} {:>6} {:>6} {:>10} {:>8} {:>10} {:>8} {:>6} {:>10} {:>10} {:>10}",
            name(t.id),
            t.priority_class.to_string(),
            t.weight,
            t.completed,
            t.shed,
            t.shed_reasons.lane_full,
            t.shed_reasons.quota,
            t.shed_reasons.slo,
            fmt_secs(t.latency.p50_s),
            fmt_secs(t.latency.p99_s),
            fmt_secs(t.recent.p99_s),
        );
    }
    out
}

/// Renders the audit log the examples print, oldest decision first.
pub fn render_audit_log(events: &[AuditEvent]) -> String {
    if events.is_empty() {
        return "audit log: no control-plane actions recorded\n".into();
    }
    let mut out = String::new();
    for event in events {
        let _ = writeln!(out, "{event}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{ShardSnapshot, TableCachePartition, TenantSnapshot};
    use crate::engine::{BatchingMetrics, RecoveryMetrics, ShardMetrics, TapCounts};
    use crate::hist::{LatencyBreakdown, LatencyHistogram};
    use crate::tenant::{PriorityClass, ShedBreakdown};
    use bandana_cache::{AdmissionPolicy, CacheMetrics};
    use nvm_sim::{DepthStats, PoolStats};
    use proptest::prelude::*;

    fn event(request: u64, kind: TraceEventKind, at_ns: u64) -> TraceEvent {
        TraceEvent { request, kind, at_ns, dur_ns: 0, shard: 0, tenant: 0, batch: 0 }
    }

    #[test]
    fn ring_wraps_and_keeps_the_newest_events() {
        let mut ring = TraceRing::with_capacity(4);
        assert!(ring.is_empty());
        for i in 1..=10u64 {
            ring.push(event(i, TraceEventKind::Admitted, i));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.recorded(), 10);
        assert_eq!(ring.dropped(), 6);
        let ids: Vec<u64> = ring.events().iter().map(|e| e.request).collect();
        assert_eq!(ids, vec![7, 8, 9, 10], "oldest-first, newest retained");
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let mut ring = TraceRing::with_capacity(0);
        ring.push(event(1, TraceEventKind::Admitted, 1));
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 1);
        assert!(ring.events().is_empty());
    }

    #[test]
    fn sampling_is_deterministic_and_one_in_n() {
        let recorder = TraceRecorder::new(TraceConfig::sampled(4), 2);
        let ids: Vec<u64> = (0..12).map(|_| recorder.sample()).collect();
        assert_eq!(ids, vec![1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0]);
        // A fresh recorder with the same config replays the exact same
        // decisions: the draw is a counter, not a coin.
        let twin = TraceRecorder::new(TraceConfig::sampled(4), 2);
        let twin_ids: Vec<u64> = (0..12).map(|_| twin.sample()).collect();
        assert_eq!(ids, twin_ids);
    }

    #[test]
    fn sample_every_one_traces_every_admission() {
        let recorder = TraceRecorder::new(TraceConfig::sampled(1), 1);
        let ids: Vec<u64> = (0..5).map(|_| recorder.sample()).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn disabled_recorder_samples_nothing_and_records_nothing() {
        let recorder = TraceRecorder::new(TraceConfig::default(), 4);
        assert!(!recorder.enabled());
        assert_eq!(recorder.sample(), 0);
        recorder.record(0, event(7, TraceEventKind::Admitted, 1));
        assert!(recorder.events().is_empty());
    }

    #[test]
    fn recorder_merges_rings_in_timestamp_order_and_groups_traces() {
        let recorder = TraceRecorder::new(TraceConfig::sampled(1), 2);
        recorder.record(0, event(1, TraceEventKind::Admitted, 10));
        recorder.record(1, event(2, TraceEventKind::Admitted, 5));
        recorder.record(1, event(2, TraceEventKind::Completed, 30));
        recorder.record(0, event(1, TraceEventKind::Shed, 20));
        // Unsampled id 0 is ignored even on an enabled recorder.
        recorder.record(0, event(0, TraceEventKind::Admitted, 1));
        let at: Vec<u64> = recorder.events().iter().map(|e| e.at_ns).collect();
        assert_eq!(at, vec![5, 10, 20, 30]);
        let traces = recorder.request_traces();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].id, 1);
        assert_eq!(traces[0].terminal(), Some(TraceEventKind::Shed));
        assert_eq!(traces[1].terminal(), Some(TraceEventKind::Completed));
        assert_eq!(traces[0].terminal_count(), 1);
    }

    #[test]
    fn trace_config_validates() {
        assert!(TraceConfig::default().validate().is_ok());
        assert!(TraceConfig::sampled(64).validate().is_ok());
        let bad = TraceConfig { sample_every: 8, capacity: 0 };
        assert!(bad.validate().is_err());
        // Zero-capacity is fine while sampling is off.
        assert!(TraceConfig { sample_every: 0, capacity: 0 }.validate().is_ok());
    }

    #[test]
    fn chrome_trace_renders_the_expected_shape() {
        let events = [TraceEvent {
            request: 3,
            kind: TraceEventKind::BatchDrained,
            at_ns: 1_500,
            dur_ns: 250,
            shard: 1,
            tenant: 2,
            batch: 9,
        }];
        let json = chrome_trace(&events);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}\n"));
        assert!(json.contains("\"name\":\"batch-drained\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.5"), "{json}");
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"tid\":2"));
        assert!(json.contains("\"request\":3"));
        assert!(json.contains("\"batch\":9"));
        assert_eq!(chrome_trace(&[]), "{\"traceEvents\":[]}\n");
    }

    proptest! {
        /// Wrap-around never lies: after any push sequence the ring
        /// holds exactly the newest `min(pushes, capacity)` events in
        /// push order.
        #[test]
        fn ring_retains_the_newest_suffix(capacity in 1usize..32, pushes in 0u64..200) {
            let mut ring = TraceRing::with_capacity(capacity);
            for i in 1..=pushes {
                ring.push(event(i, TraceEventKind::Admitted, i));
            }
            let kept = (pushes as usize).min(capacity);
            prop_assert_eq!(ring.len(), kept);
            prop_assert_eq!(ring.dropped(), pushes - kept as u64);
            let ids: Vec<u64> = ring.events().iter().map(|e| e.request).collect();
            let expected: Vec<u64> = ((pushes - kept as u64 + 1)..=pushes).collect();
            prop_assert_eq!(ids, expected);
        }
    }

    fn snapshot_tenant(id: u32, p99_s: f64, count: u64) -> TenantSnapshot {
        TenantSnapshot {
            id: TenantId(id),
            slo_p99: Some(Duration::from_millis(10)),
            outstanding: 3,
            submitted: 100,
            completed: 90,
            queued: 4,
            shed: ShedBreakdown { lane_full: 5, quota: 1, slo: 4, reclaimed: 0 },
            slo_shedding: false,
            recent: LatencySummary { count, p99_s, ..LatencySummary::default() },
            priority_class: PriorityClass::Normal,
        }
    }

    fn sample_snapshot() -> EngineSnapshot {
        EngineSnapshot {
            tick: 212,
            uptime: Duration::from_secs(3),
            window_span: Duration::from_millis(400),
            batch_window: Duration::from_micros(200),
            shards: vec![ShardSnapshot {
                shard: 0,
                lane_depths: vec![2, 7],
                batches: 11,
                batched_requests: 30,
                depth: DepthStats::default(),
            }],
            tenants: vec![snapshot_tenant(7, 0.080, 41)],
            cache_partition: vec![TableCachePartition {
                table: 0,
                capacity_entries: 512,
                target_entries: 640,
            }],
        }
    }

    #[test]
    fn audit_event_captures_the_slo_trip_evidence() {
        let snapshot = sample_snapshot();
        let action = Action::SetSloShed { tenant: TenantId(7), shed: true };
        let event = AuditEvent::from_action("SloController", &action, &snapshot);
        assert_eq!(event.tick, 212);
        assert_eq!(event.controller, "SloController");
        assert_eq!(event.tenant, Some(TenantId(7)));
        assert!(event.action.contains("SetSloShed"), "{}", event.action);
        assert!(event.action.contains("tenant-7"), "{}", event.action);
        assert!(event.cause.contains("p99"), "{}", event.cause);
        assert!(event.cause.contains("41 samples"), "{}", event.cause);
        let line = event.to_string();
        assert!(line.contains("SloController") && line.contains("tick"), "{line}");

        let release = Action::SetSloShed { tenant: TenantId(7), shed: false };
        let event = AuditEvent::from_action("SloController", &release, &snapshot);
        assert!(event.cause.contains("hold expired"), "{}", event.cause);

        let retune =
            Action::SetPolicy { table: 3, policy: AdmissionPolicy::None, shadow_multiplier: 1.5 };
        let event = AuditEvent::from_action("online-tuner", &retune, &snapshot);
        assert_eq!(event.tenant, None);
        assert!(event.action.contains("table: 3"), "{}", event.action);

        let cap = Action::SetLaneCap { tenant: TenantId(2), cap: 8 };
        let event = AuditEvent::from_action("custom", &cap, &snapshot);
        assert_eq!(event.tenant, Some(TenantId(2)));
        assert!(event.cause.contains("queued"), "{}", event.cause);

        let window = Action::SetBatchWindow { window: Duration::from_millis(1) };
        let event = AuditEvent::from_action("custom", &window, &snapshot);
        assert!(event.cause.contains("previous window"), "{}", event.cause);

        let repartition = Action::SetCachePartition {
            table: 0,
            entries: 640,
            curve: vec![(128, 0.412), (512, 0.733)],
        };
        let event = AuditEvent::from_action("cache-budget", &repartition, &snapshot);
        assert_eq!(event.tenant, None);
        assert!(event.action.contains("entries: 640"), "{}", event.action);
        assert!(event.cause.contains("from 512 entries"), "{}", event.cause);
        assert!(event.cause.contains("128:0.412"), "{}", event.cause);
        assert!(event.cause.contains("512:0.733"), "{}", event.cause);

        let relayout = Action::ApplyLayout {
            table: 1,
            order: (0..64u32).rev().collect(),
            observed_blocks_per_request: 3.75,
            ideal_blocks_per_request: 1.5,
        };
        let event = AuditEvent::from_action("re-layout", &relayout, &snapshot);
        assert_eq!(event.tenant, None);
        assert!(event.action.contains("ApplyLayout{table: 1, vectors: 64}"), "{}", event.action);
        assert!(event.cause.contains("observed 3.75"), "{}", event.cause);
        assert!(event.cause.contains("ideal 1.50"), "{}", event.cause);
    }

    #[test]
    fn audit_log_is_bounded_and_ordered() {
        let snapshot = sample_snapshot();
        let log = AuditLog::new(2);
        for tick in 0..3u64 {
            let mut event = AuditEvent::from_action(
                "SloController",
                &Action::SetSloShed { tenant: TenantId(7), shed: true },
                &snapshot,
            );
            event.tick = tick;
            log.push(event);
        }
        let events = log.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(log.recorded(), 3);
        assert_eq!(events[0].tick, 1, "oldest entry was evicted");
        assert_eq!(events[1].tick, 2);
        assert!(render_audit_log(&events).lines().count() == 2);
        assert!(render_audit_log(&[]).contains("no control-plane actions"));
    }

    fn summary(seed: u64) -> LatencySummary {
        let s = seed as f64;
        LatencySummary {
            count: seed,
            mean_s: s * 1e-6,
            p50_s: s * 2e-6,
            p95_s: s * 3e-6,
            p99_s: s * 4e-6,
            p999_s: s * 5e-6,
            max_s: s * 6e-6,
        }
    }

    fn sample_metrics() -> EngineMetrics {
        let mut e2e = LatencyHistogram::new();
        e2e.record_secs(0.25);
        EngineMetrics {
            submitted: 1001,
            completed: 902,
            shed: 73,
            timed_out: 14,
            failed: 12,
            outstanding: 6,
            lookups: 5005,
            tuner_swaps: 3,
            control_ticks: 88,
            control_actions: 9,
            rebudget_solves: 5,
            rebudget_applied: 2,
            relayout_solves: 4,
            relayout_applied: 1,
            relayout_rewritten_blocks: 6,
            taps: [
                TapCounts { sent: 40, dropped: 2 },
                TapCounts { sent: 30, dropped: 0 },
                TapCounts { sent: 20, dropped: 7 },
            ],
            blocks_per_request_observed: 3.5,
            blocks_per_request_ideal: 1.25,
            table_blocks_per_request_observed: vec![3.5, 2.75],
            table_blocks_per_request_ideal: vec![1.25, 1.5],
            cache_partition: vec![TableCachePartition {
                table: 0,
                capacity_entries: 512,
                target_entries: 640,
            }],
            cache_resident_bytes: vec![65_536],
            table_reads_per_request_predicted: vec![None, Some(1.75)],
            latency: summary(11),
            queue_wait: summary(12),
            service: summary(13),
            device_time: summary(14),
            breakdown: LatencyBreakdown {
                queue_wait: summary(15),
                device: summary(16),
                service: summary(17),
            },
            batching: BatchingMetrics {
                batches: 41,
                batched_requests: 160,
                largest_batch: 9,
                depth: DepthStats {
                    submitted: 300,
                    completed: 298,
                    peak_depth: 5,
                    depth_weight: 600,
                    busy_s: 0.125,
                },
                device_stall_s: 0.0625,
            },
            pool: PoolStats { acquires: 500, reuses: 480, allocs: 20, retained: 16 },
            e2e_histogram: e2e,
            cache: CacheMetrics {
                lookups: 5005,
                hits: 4000,
                misses: 1005,
                block_reads: 1005,
                prefetches_admitted: 77,
                prefetch_hits: 33,
                evictions: 21,
            },
            per_shard: vec![ShardMetrics {
                shard: 0,
                tables: vec![0, 1],
                served_requests: 902,
                lookups: 5005,
                service: summary(18),
                device_time: summary(19),
                cache: CacheMetrics { lookups: 10, hits: 5, ..CacheMetrics::default() },
                device_reads: 1005,
                batches: 41,
                largest_batch: 9,
                depth: DepthStats { submitted: 300, ..DepthStats::default() },
                device_stall_s: 0.03125,
                capacity_blocks: 2048,
                bytes_written: 1 << 20,
                drive_writes: 0.25,
                pool: PoolStats { acquires: 500, reuses: 480, allocs: 20, retained: 16 },
            }],
            per_tenant: vec![TenantMetrics {
                id: TenantId(7),
                weight: 9,
                priority_class: PriorityClass::High,
                admission_quota: Some(32),
                slo_p99: Some(Duration::from_millis(10)),
                submitted: 1001,
                shed: 73,
                completed: 902,
                shed_reasons: ShedBreakdown { lane_full: 50, quota: 9, slo: 14, reclaimed: 2 },
                timed_out: 14,
                failed: 12,
                outstanding: 6,
                slo_shedding: true,
                latency: summary(20),
                recent: summary(21),
            }],
            audit: vec![AuditEvent::from_action(
                "SloController",
                &Action::SetSloShed { tenant: TenantId(7), shed: true },
                &sample_snapshot(),
            )],
            recovery: RecoveryMetrics {
                replayed_records: 6,
                rehydrated_keys: 512,
                snapshots_installed: 2,
                snapshot_age_seconds: 1.5,
            },
        }
    }

    /// Every [`EngineMetrics`] field (and the snapshot's live series)
    /// surfaces under a stable metric name.
    #[test]
    fn prometheus_exposition_covers_every_metrics_field() {
        let text = render_prometheus(&sample_metrics(), &sample_snapshot());
        for name in [
            // Engine counters: submitted..lookups.
            "bandana_requests_submitted_total 1001",
            "bandana_requests_completed_total 902",
            "bandana_requests_shed_total 73",
            "bandana_requests_timed_out_total 14",
            "bandana_requests_failed_total 12",
            "bandana_requests_outstanding 6",
            "bandana_lookups_total 5005",
            // latency/queue_wait/service/device_time summaries.
            "bandana_latency_seconds{stage=\"e2e\",quantile=\"0.99\"}",
            "bandana_latency_seconds{stage=\"queue_wait\",quantile=\"0.5\"}",
            "bandana_latency_seconds{stage=\"service\",quantile=\"0.999\"}",
            "bandana_latency_seconds{stage=\"device\",quantile=\"0.95\"}",
            "bandana_latency_seconds_count{stage=\"e2e\"} 11",
            // breakdown + e2e_histogram.
            "bandana_latency_breakdown_mean_seconds{component=\"queue_wait\"}",
            "bandana_latency_breakdown_mean_seconds{component=\"device\"}",
            "bandana_latency_breakdown_mean_seconds{component=\"service\"}",
            "bandana_e2e_latency_seconds_count 1",
            // batching (incl. depth) and pool.
            "bandana_batches_total 41",
            "bandana_batched_requests_total 160",
            "bandana_largest_batch 9",
            "bandana_mean_batch",
            "bandana_device_reads_submitted_total 300",
            "bandana_device_reads_completed_total 298",
            "bandana_device_queue_depth_peak 5",
            "bandana_device_queue_depth_mean",
            "bandana_device_busy_seconds_total 0.125",
            "bandana_device_stall_seconds_total 0.0625",
            "bandana_pool_acquires_total 500",
            "bandana_pool_reuses_total 480",
            "bandana_pool_allocs_total 20",
            "bandana_pool_retained 16",
            // cache.
            "bandana_cache_lookups_total 5005",
            "bandana_cache_hits_total 4000",
            "bandana_cache_misses_total 1005",
            "bandana_cache_block_reads_total 1005",
            "bandana_cache_prefetches_admitted_total 77",
            "bandana_cache_prefetch_hits_total 33",
            "bandana_cache_evictions_total 21",
            "bandana_cache_hit_rate",
            // per_shard (every ShardMetrics field).
            "bandana_shard_requests_total{shard=\"0\"} 902",
            "bandana_shard_lookups_total{shard=\"0\"} 5005",
            "bandana_shard_tables{shard=\"0\"} 2",
            "bandana_shard_latency_seconds{shard=\"0\",stage=\"service\",quantile=\"0.99\"}",
            "bandana_shard_latency_seconds{shard=\"0\",stage=\"device\",quantile=\"0.99\"}",
            "bandana_shard_cache_hit_rate{shard=\"0\"} 0.5",
            "bandana_shard_device_reads_total{shard=\"0\"} 1005",
            "bandana_shard_batches_total{shard=\"0\"} 41",
            "bandana_shard_largest_batch{shard=\"0\"} 9",
            "bandana_shard_queue_depth_mean{shard=\"0\"}",
            "bandana_shard_queue_depth_peak{shard=\"0\"}",
            "bandana_shard_device_stall_seconds_total{shard=\"0\"} 0.03125",
            "bandana_shard_capacity_blocks{shard=\"0\"} 2048",
            "bandana_shard_bytes_written_total{shard=\"0\"} 1048576",
            "bandana_shard_drive_writes{shard=\"0\"} 0.25",
            "bandana_shard_pool_reuse_rate{shard=\"0\"} 0.96",
            // per_tenant (every TenantMetrics field).
            "bandana_tenant_weight{tenant=\"7\"} 9",
            "bandana_tenant_priority{tenant=\"7\"} 0",
            "bandana_tenant_admission_quota{tenant=\"7\"} 32",
            "bandana_tenant_slo_budget_seconds{tenant=\"7\"} 0.01",
            "bandana_tenant_submitted_total{tenant=\"7\"} 1001",
            "bandana_tenant_completed_total{tenant=\"7\"} 902",
            "bandana_tenant_shed_total{tenant=\"7\"} 73",
            "bandana_tenant_shed_reason_total{tenant=\"7\",reason=\"lane_full\"} 50",
            "bandana_tenant_shed_reason_total{tenant=\"7\",reason=\"quota\"} 9",
            "bandana_tenant_shed_reason_total{tenant=\"7\",reason=\"slo\"} 14",
            "bandana_tenant_shed_reason_total{tenant=\"7\",reason=\"reclaimed\"} 2",
            "bandana_tenant_timed_out_total{tenant=\"7\"} 14",
            "bandana_tenant_failed_total{tenant=\"7\"} 12",
            "bandana_tenant_outstanding{tenant=\"7\"} 6",
            "bandana_tenant_slo_shedding{tenant=\"7\"} 1",
            "bandana_tenant_latency_seconds{tenant=\"7\",quantile=\"0.99\"}",
            "bandana_tenant_recent_latency_seconds{tenant=\"7\",quantile=\"0.99\"}",
            // control plane + audit + live snapshot.
            "bandana_tuner_swaps_total 3",
            "bandana_tap_sent_total{tap=\"tuner\"} 40",
            "bandana_tap_dropped_total{tap=\"tuner\"} 2",
            "bandana_tap_sent_total{tap=\"budget\"} 30",
            "bandana_tap_dropped_total{tap=\"budget\"} 0",
            "bandana_tap_sent_total{tap=\"coaccess\"} 20",
            "bandana_tap_dropped_total{tap=\"coaccess\"} 7",
            "bandana_control_ticks_total 88",
            "bandana_control_actions_total 9",
            "bandana_audit_events 1",
            "bandana_rebudget_solves_total 5",
            "bandana_rebudget_applied_total 2",
            "bandana_relayout_solves_total 4",
            "bandana_relayout_applied_total 1",
            "bandana_relayout_rewritten_blocks_total 6",
            "bandana_blocks_per_request_observed 3.5",
            "bandana_blocks_per_request_ideal 1.25",
            "bandana_table_blocks_per_request_observed{table=\"1\"} 2.75",
            "bandana_table_blocks_per_request_ideal{table=\"1\"} 1.5",
            "bandana_table_cache_capacity_entries{table=\"0\"} 512",
            "bandana_table_cache_target_entries{table=\"0\"} 640",
            "bandana_table_cache_resident_bytes{table=\"0\"} 65536",
            "bandana_table_reads_per_request_predicted{table=\"1\"} 1.75",
            "bandana_control_tick 212",
            "bandana_uptime_seconds 3",
            "bandana_window_span_seconds 0.4",
            "bandana_batch_window_seconds 0.0002",
            "bandana_queued_requests 9",
            "bandana_lane_depth{shard=\"0\",lane=\"0\"} 2",
            "bandana_lane_depth{shard=\"0\",lane=\"1\"} 7",
            // recovery (every RecoveryMetrics field).
            "bandana_recovery_replayed_records 6",
            "bandana_recovery_rehydrated_keys 512",
            "bandana_recovery_snapshots_installed_total 2",
            "bandana_recovery_snapshot_age_seconds 1.5",
        ] {
            assert!(text.contains(name), "missing series {name:?} in:\n{text}");
        }
        // A table without a set predicts nothing.
        assert!(!text.contains("bandana_table_reads_per_request_predicted{table=\"0\"}"));
    }

    /// Every exposition line is either a `#` comment or
    /// `name[{labels}] value` with an f64-parsable value.
    #[test]
    fn prometheus_exposition_parses_line_by_line() {
        let text = render_prometheus(&sample_metrics(), &sample_snapshot());
        assert!(text.lines().count() > 100);
        for line in text.lines() {
            assert!(!line.is_empty(), "blank line in exposition");
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "bad comment: {line}"
                );
                continue;
            }
            let (name, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("no value: {line}"));
            assert!(value.parse::<f64>().is_ok(), "unparsable value {value:?} on line: {line}");
            let bare = name.split('{').next().expect("metric name");
            assert!(
                !bare.is_empty()
                    && bare.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                    && bare.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'),
                "bad metric name on line: {line}"
            );
            if let Some((_, labels)) = name.split_once('{') {
                assert!(labels.ends_with('}'), "unclosed labels: {line}");
            }
        }
    }

    #[test]
    fn tenant_table_covers_both_example_layouts() {
        let metrics = sample_metrics();
        let table = render_tenant_table(&metrics.per_tenant, |id| match id {
            TenantId(7) => "ranking".into(),
            other => other.to_string(),
        });
        let mut lines = table.lines();
        let header = lines.next().expect("header");
        for col in
            ["tenant", "class", "weight", "completed", "shed", "lane-full", "quota", "slo", "p99"]
        {
            assert!(header.contains(col), "missing column {col}: {header}");
        }
        let row = lines.next().expect("one tenant row");
        assert!(row.contains("ranking"));
        assert!(row.contains("902"), "{row}");
        assert!(row.contains("high"), "{row}");
    }
}
