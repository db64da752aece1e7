//! Tenant identity, QoS contracts, and the ticket-based client API.
//!
//! A production embedding-serving deployment is shared by many consumers
//! — ranking models, experimentation traffic, backfills — with very
//! different latency contracts. This module gives each of them a first
//! class identity:
//!
//! * [`TenantId`] + [`TenantSpec`] name a tenant and its QoS contract
//!   (DRR weight, strict-priority class, admission quota), registered via
//!   [`ServeConfig::with_tenant`](crate::ServeConfig::with_tenant);
//! * [`Client`] is a tenant's session handle onto a running
//!   [`ShardedEngine`](crate::ShardedEngine): it builds typed requests
//!   ([`RequestBuilder`]) and submits them for completion tickets;
//! * [`ResponseTicket`] is a pollable/waitable future for one in-flight
//!   request, so a single caller thread can keep hundreds of requests in
//!   flight and collect [`Response`]s out of order.
//!
//! Legacy callers keep working: `ShardedEngine::serve`/`submit` delegate
//! to the always-present default tenant ([`TenantId::DEFAULT`], weight 1,
//! normal class, no quota).
//!
//! Tenancy is a first-class observability dimension too: every
//! per-tenant counter here surfaces as a `bandana_tenant_*` series in
//! [`crate::obs::render_prometheus`], flight-recorder events carry the
//! tenant's runtime index as their Chrome-trace `tid`, and control-plane
//! audit entries ([`crate::obs::AuditEvent`]) name the tenant a
//! controller acted on.

use crate::engine::{take_response, Shared};
use crate::hist::LatencySummary;
use bandana_trace::{Request, TableQuery};
use bytes::Bytes;
use std::sync::Arc;
use std::time::Duration;

use crate::engine::{Job, ServeError};

/// Identifies a tenant of a [`ShardedEngine`](crate::ShardedEngine).
///
/// Ids are opaque labels chosen by the operator; they do not need to be
/// dense. Id `0` is the **default tenant** that always exists and absorbs
/// legacy `serve`/`submit` traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The default tenant legacy `serve`/`submit` traffic is charged to.
    pub const DEFAULT: TenantId = TenantId(0);
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// Strict-priority class of a tenant's traffic.
///
/// Classes are scheduled in strict priority: a shard never serves a
/// [`Normal`](PriorityClass::Normal) request while a
/// [`High`](PriorityClass::High) request is queued, and never serves
/// [`Low`](PriorityClass::Low) while anything else waits. *Within* a
/// class, tenants share capacity by deficit round-robin on their
/// [`TenantSpec::weight`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum PriorityClass {
    /// Served before everything else (interactive / SLA traffic).
    High,
    /// The default class.
    #[default]
    Normal,
    /// Served only when no higher class has work (backfills, scans).
    Low,
}

impl PriorityClass {
    /// Scheduling index: `0` is served first.
    pub fn index(self) -> usize {
        match self {
            PriorityClass::High => 0,
            PriorityClass::Normal => 1,
            PriorityClass::Low => 2,
        }
    }
}

impl std::fmt::Display for PriorityClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            PriorityClass::High => "high",
            PriorityClass::Normal => "normal",
            PriorityClass::Low => "low",
        };
        write!(f, "{name}")
    }
}

/// A tenant's QoS contract, registered with
/// [`ServeConfig::with_tenant`](crate::ServeConfig::with_tenant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantSpec {
    /// Deficit-round-robin weight within the tenant's priority class: a
    /// weight-9 tenant sharing a saturated shard with a weight-1 tenant
    /// of the same class completes ~9× as many requests. Must be ≥ 1.
    pub weight: u32,
    /// Strict-priority class (served before lower classes, always).
    pub priority_class: PriorityClass,
    /// Most requests the tenant may have in flight engine-wide;
    /// submissions beyond the quota are shed at admission
    /// ([`ServeError::QuotaExceeded`]) before touching any shard queue.
    /// `None` disables the quota.
    pub admission_quota: Option<u64>,
    /// The tenant's p99 latency budget over the recent window. When the
    /// [`SloController`](crate::control::SloController) is enabled and the
    /// tenant's recent-window p99 exceeds this budget, the tenant is shed
    /// at admission ([`ServeError::SloShed`]) until the window recovers —
    /// requests that would blow the SLO are refused up front instead of
    /// queueing toward a latency nobody can use. `None` exempts the
    /// tenant from SLO shedding.
    pub slo_p99: Option<Duration>,
}

impl Default for TenantSpec {
    fn default() -> Self {
        TenantSpec {
            weight: 1,
            priority_class: PriorityClass::Normal,
            admission_quota: None,
            slo_p99: None,
        }
    }
}

impl TenantSpec {
    /// A spec with the given DRR weight (normal class, no quota).
    pub fn new(weight: u32) -> Self {
        TenantSpec { weight, ..TenantSpec::default() }
    }

    /// Sets the strict-priority class.
    pub fn with_class(mut self, class: PriorityClass) -> Self {
        self.priority_class = class;
        self
    }

    /// Caps the tenant's in-flight requests engine-wide.
    pub fn with_quota(mut self, max_outstanding: u64) -> Self {
        self.admission_quota = Some(max_outstanding);
        self
    }

    /// Sets the tenant's recent-window p99 budget (enforced by the
    /// [`SloController`](crate::control::SloController) when the engine
    /// runs one; see [`TenantSpec::slo_p99`]).
    pub fn with_slo_p99(mut self, budget: Duration) -> Self {
        self.slo_p99 = Some(budget);
        self
    }

    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.weight == 0 {
            return Err("tenant weight must be at least 1".into());
        }
        Ok(())
    }
}

/// Why a tenant's requests were shed at admission, broken down by cause
/// so a controller's effect is observable (a spike in `slo` with
/// `lane_full` falling means early SLO shedding is doing its job —
/// refusing doomed work before it occupies a lane).
///
/// `lane_full + quota + slo` always equals the tenant's aggregate
/// [`shed`](TenantMetrics::shed) count; `reclaimed` counts *parts* (not
/// requests) pulled back out of other shards' lanes when a request was
/// shed mid-dispatch, and rides alongside the sum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShedBreakdown {
    /// Shed because a shard lane was full (or closing during shutdown).
    pub lane_full: u64,
    /// Shed at the engine-wide admission quota
    /// ([`ServeError::QuotaExceeded`]).
    pub quota: u64,
    /// Shed by the SLO controller while the tenant's recent-window p99
    /// exceeded its [`TenantSpec::slo_p99`] budget
    /// ([`ServeError::SloShed`]).
    pub slo: u64,
    /// Already-accepted parts reclaimed from other shards' lanes when a
    /// later shard shed the request (zombie-work cleanup; counts parts,
    /// not requests, so it is not part of the shed sum).
    pub reclaimed: u64,
}

impl ShedBreakdown {
    /// Requests shed across all admission-side causes (equals the
    /// aggregate [`TenantMetrics::shed`]).
    pub fn total(&self) -> u64 {
        self.lane_full + self.quota + self.slo
    }
}

/// One tenant's slice of [`EngineMetrics`](crate::EngineMetrics):
/// admission counters, shed/timeout accounting, and the tenant's own
/// end-to-end latency distributions (lifetime and recent-window).
#[derive(Debug, Clone)]
pub struct TenantMetrics {
    /// The tenant.
    pub id: TenantId,
    /// Registered DRR weight.
    pub weight: u32,
    /// Registered strict-priority class.
    pub priority_class: PriorityClass,
    /// Registered admission quota (`None` = unlimited).
    pub admission_quota: Option<u64>,
    /// Registered recent-window p99 budget (`None` = no SLO).
    pub slo_p99: Option<std::time::Duration>,
    /// Requests this tenant submitted (includes later sheds).
    pub submitted: u64,
    /// Requests shed at admission (quota, a full shard lane, or the SLO
    /// controller); `shed_reasons` splits this total by cause.
    pub shed: u64,
    /// Requests fully served.
    pub completed: u64,
    /// The shed total broken down by cause.
    pub shed_reasons: ShedBreakdown,
    /// Requests abandoned past their deadline.
    pub timed_out: u64,
    /// Requests that hit a store error.
    pub failed: u64,
    /// Requests currently in flight.
    pub outstanding: u64,
    /// Whether the SLO controller is currently shedding this tenant.
    pub slo_shedding: bool,
    /// End-to-end latency of this tenant's completed requests, over the
    /// engine's lifetime.
    pub latency: LatencySummary,
    /// End-to-end latency over the recent window only (the distribution
    /// the [`SloController`](crate::control::SloController) acts on).
    pub recent: LatencySummary,
}

/// Outcome classification carried by a [`Response`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ResponseStatus {
    /// Served completely; [`Response::parts`] holds every payload.
    Ok,
    /// The request missed its deadline before serving started; no
    /// payloads.
    TimedOut,
    /// A table/vector reference was invalid or the device failed; no
    /// payloads.
    Failed(bandana_core::BandanaError),
}

impl ResponseStatus {
    /// Whether the request was fully served.
    pub fn is_ok(&self) -> bool {
        matches!(self, ResponseStatus::Ok)
    }
}

/// The typed result of one request, collected through a
/// [`ResponseTicket`].
#[derive(Debug, Clone)]
pub struct Response {
    /// Per-query payloads in request order: `parts[q][i]` is the payload
    /// of `request.queries[q].ids[i]` (duplicates included). Empty unless
    /// [`Response::status`] is [`ResponseStatus::Ok`]. The payloads are
    /// views of buffers this response owns (one per shard that served it):
    /// holding or dropping them never touches the engine's cache or its
    /// workers.
    pub parts: Vec<Vec<Bytes>>,
    /// How the request ended.
    pub status: ResponseStatus,
    /// Submission → completion latency.
    pub e2e: Duration,
    /// Host queue wait (slowest involved shard).
    pub queue_wait: Duration,
    /// Simulated device time charged to the micro-batches that served
    /// this request (slowest involved shard; zero without a device
    /// queue).
    pub device: Duration,
    /// Shard service time (slowest involved shard).
    pub service: Duration,
}

impl Response {
    /// Converts to the legacy `serve()` result shape: payloads on
    /// success, the matching [`ServeError`] otherwise.
    ///
    /// # Errors
    ///
    /// [`ServeError::TimedOut`] or [`ServeError::Store`] per
    /// [`Response::status`].
    pub fn into_parts(self) -> Result<Vec<Vec<Bytes>>, ServeError> {
        match self.status {
            ResponseStatus::Ok => Ok(self.parts),
            ResponseStatus::TimedOut => Err(ServeError::TimedOut),
            ResponseStatus::Failed(e) => Err(ServeError::Store(e)),
            // `ResponseStatus` is non_exhaustive for future shed states.
            #[allow(unreachable_patterns)]
            _ => Err(ServeError::Rejected),
        }
    }
}

/// A pollable/waitable handle to one in-flight request.
///
/// Returned by [`Client::submit`]; backed by the request's completion
/// state inside the engine, so one thread can keep hundreds of requests
/// in flight and collect responses out of order. The response can be
/// taken **exactly once** ([`try_take`](ResponseTicket::try_take) /
/// [`wait`](ResponseTicket::wait) /
/// [`wait_timeout`](ResponseTicket::wait_timeout)); later takes return
/// [`ServeError::TicketTaken`]. Dropping a ticket — taken or not — never
/// blocks and never leaks: the engine completes the request normally and
/// the completion state is freed with its last reference.
pub struct ResponseTicket {
    job: Arc<Job>,
    taken: bool,
}

impl std::fmt::Debug for ResponseTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResponseTicket")
            .field("complete", &self.is_complete())
            .field("taken", &self.taken)
            .finish()
    }
}

impl ResponseTicket {
    pub(crate) fn new(job: Arc<Job>) -> Self {
        ResponseTicket { job, taken: false }
    }

    /// Whether the request has finished (its response may still be
    /// untaken).
    pub fn is_complete(&self) -> bool {
        self.job.state.lock().expect("job lock").done
    }

    /// Takes the response if the request has finished, without blocking.
    ///
    /// Returns `Ok(None)` while the request is still in flight.
    ///
    /// # Errors
    ///
    /// [`ServeError::TicketTaken`] if the response was already taken.
    pub fn try_take(&mut self) -> Result<Option<Response>, ServeError> {
        if self.taken {
            return Err(ServeError::TicketTaken);
        }
        if !self.is_complete() {
            return Ok(None);
        }
        self.taken = true;
        Ok(Some(take_response(&self.job)))
    }

    /// Blocks until the request finishes and takes the response.
    ///
    /// # Errors
    ///
    /// [`ServeError::TicketTaken`] if the response was already taken.
    pub fn wait(&mut self) -> Result<Response, ServeError> {
        if self.taken {
            return Err(ServeError::TicketTaken);
        }
        {
            let mut st = self.job.state.lock().expect("job lock");
            while !st.done {
                st = self.job.done_cv.wait(st).expect("job lock");
            }
        }
        self.taken = true;
        Ok(take_response(&self.job))
    }

    /// Blocks up to `timeout` for the request to finish.
    ///
    /// Returns `Ok(None)` on expiry; the ticket stays live and the
    /// response can still be taken later.
    ///
    /// # Errors
    ///
    /// [`ServeError::TicketTaken`] if the response was already taken.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Result<Option<Response>, ServeError> {
        if self.taken {
            return Err(ServeError::TicketTaken);
        }
        let deadline = std::time::Instant::now() + timeout;
        {
            let mut st = self.job.state.lock().expect("job lock");
            while !st.done {
                let left = deadline.saturating_duration_since(std::time::Instant::now());
                if left.is_zero() {
                    return Ok(None);
                }
                let (next, _) = self.job.done_cv.wait_timeout(st, left).expect("job lock");
                st = next;
            }
        }
        self.taken = true;
        Ok(Some(take_response(&self.job)))
    }
}

/// A tenant's session handle onto a running
/// [`ShardedEngine`](crate::ShardedEngine).
///
/// Created by [`ShardedEngine::client`](crate::ShardedEngine::client);
/// cheap to clone and safe to share across threads. The client holds the
/// engine's shared state alive, but submissions fail with
/// [`ServeError::ShuttingDown`] once the engine shuts down.
#[derive(Clone)]
pub struct Client {
    shared: Arc<Shared>,
    tenant: usize,
}

impl Client {
    pub(crate) fn new(shared: Arc<Shared>, tenant: usize) -> Self {
        Client { shared, tenant }
    }

    /// The tenant this client submits as.
    pub fn tenant(&self) -> TenantId {
        self.shared.tenant_id(self.tenant)
    }

    /// Starts a typed request.
    pub fn request(&self) -> RequestBuilder<'_> {
        RequestBuilder { client: self, request: Request::default(), deadline: None }
    }

    /// Submits a request and returns its completion ticket (payloads are
    /// retained until the ticket takes them).
    ///
    /// # Errors
    ///
    /// [`ServeError::QuotaExceeded`] past the tenant's admission quota,
    /// [`ServeError::Rejected`] when a shard lane is full under
    /// [`ShedPolicy::DropNewest`](crate::ShedPolicy::DropNewest),
    /// [`ServeError::Store`] for unknown tables, and
    /// [`ServeError::ShuttingDown`] after shutdown began.
    pub fn submit(&self, request: &Request) -> Result<ResponseTicket, ServeError> {
        self.submit_with_deadline(request, None)
    }

    /// As [`Client::submit`], with a per-request deadline overriding the
    /// engine's [`request_timeout`](crate::ServeConfig::request_timeout).
    ///
    /// # Errors
    ///
    /// As [`Client::submit`].
    pub fn submit_with_deadline(
        &self,
        request: &Request,
        deadline: Option<Duration>,
    ) -> Result<ResponseTicket, ServeError> {
        let job = self.shared.enqueue(request, true, self.tenant, deadline)?;
        Ok(ResponseTicket::new(job))
    }

    /// Submits a request for a **completion-only** ticket: the
    /// [`Response`] carries status, latency, and breakdown but empty
    /// payload parts, and the shard workers skip payload retention
    /// entirely — the same hot path as the legacy fire-and-forget
    /// [`submit`](crate::ShardedEngine::submit), with a waitable handle.
    /// This is the open-loop load generator's mode: it needs to know
    /// *when* requests finish, never *what* they returned.
    ///
    /// # Errors
    ///
    /// As [`Client::submit`].
    pub fn submit_discarding(&self, request: &Request) -> Result<ResponseTicket, ServeError> {
        let job = self.shared.enqueue(request, false, self.tenant, None)?;
        Ok(ResponseTicket::new(job))
    }

    /// Submits and waits: the closed-loop convenience
    /// (`submit` + [`ResponseTicket::wait`]).
    ///
    /// # Errors
    ///
    /// As [`Client::submit`].
    pub fn call(&self, request: &Request) -> Result<Response, ServeError> {
        self.submit(request)?.wait()
    }

    /// This tenant's current metrics slice.
    pub fn metrics(&self) -> TenantMetrics {
        self.shared.tenant_metrics(self.tenant)
    }
}

/// Builds one typed request for a [`Client`]: per-table key lists plus an
/// optional per-request deadline.
///
/// ```no_run
/// # fn demo(client: &bandana_serve::Client) -> Result<(), bandana_serve::ServeError> {
/// let ticket = client
///     .request()
///     .keys(0, &[3, 7, 9])
///     .keys(2, &[11])
///     .deadline(std::time::Duration::from_millis(5))
///     .submit()?;
/// # let _ = ticket;
/// # Ok(())
/// # }
/// ```
pub struct RequestBuilder<'c> {
    client: &'c Client,
    request: Request,
    deadline: Option<Duration>,
}

impl std::fmt::Debug for RequestBuilder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RequestBuilder")
            .field("tenant", &self.client.tenant())
            .field("request", &self.request)
            .field("deadline", &self.deadline)
            .finish()
    }
}

impl RequestBuilder<'_> {
    /// Appends lookups against `table` (repeated calls for the same table
    /// extend its key list — a request holds at most one query per
    /// table).
    pub fn keys(mut self, table: usize, ids: &[u32]) -> Self {
        match self.request.queries.iter_mut().find(|q| q.table == table) {
            Some(q) => q.ids.extend_from_slice(ids),
            None => self.request.queries.push(TableQuery::new(table, ids.to_vec())),
        }
        self
    }

    /// Appends one lookup against `table`.
    pub fn key(self, table: usize, id: u32) -> Self {
        self.keys(table, &[id])
    }

    /// Sets a per-request deadline, overriding the engine's global
    /// [`request_timeout`](crate::ServeConfig::request_timeout).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The request built so far.
    pub fn as_request(&self) -> &Request {
        &self.request
    }

    /// Submits the request, returning its completion ticket.
    ///
    /// # Errors
    ///
    /// As [`Client::submit`].
    pub fn submit(self) -> Result<ResponseTicket, ServeError> {
        self.client.submit_with_deadline(&self.request, self.deadline)
    }

    /// Submits and waits for the typed response.
    ///
    /// # Errors
    ///
    /// As [`Client::submit`].
    pub fn call(self) -> Result<Response, ServeError> {
        self.submit()?.wait()
    }
}
