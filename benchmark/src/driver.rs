//! The single load-generator thread: a closed loop that keeps a fixed number
//! of tickets in flight, an open loop that submits on a schedule, and the
//! output oracle both check payloads against.

use crate::spans::{Tracer, SPAN_EVERY};
use crate::stats::{Sample, SLICES};
use crate::sys;
use crate::workloads::CLOSED_LOOP_IN_FLIGHT;
use bandana::prelude::*;
use bytes::Bytes;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// A finished request as the generator sees it.
pub struct Done {
    pub ok: bool,
    /// `parts[q][i]` answers `request.queries[q].ids[i]`; empty unless `ok`.
    pub parts: Vec<Vec<Bytes>>,
    /// The backend's own submit → completion clock.
    pub e2e: Duration,
    /// Engine-reported queue wait, device time and service time; the wire
    /// protocol does not carry them.
    pub breakdown: Option<[Duration; 3]>,
}

/// What the loops drive: the in-process client, the wire client, or a test's
/// stub.
pub trait Backend {
    type Ticket;
    /// `None` when the request was refused at admission.
    fn submit(&self, request: &Request) -> Option<Self::Ticket>;
    fn wait(&self, ticket: &mut Self::Ticket) -> Done;
    fn try_take(&self, ticket: &mut Self::Ticket) -> Option<Done>;
}

const FAILED: Done = Done { ok: false, parts: Vec::new(), e2e: Duration::ZERO, breakdown: None };

fn done_in_process(response: Response) -> Done {
    Done {
        ok: response.status.is_ok(),
        parts: response.parts,
        e2e: response.e2e,
        breakdown: Some([response.queue_wait, response.device, response.service]),
    }
}

impl Backend for Client {
    type Ticket = ResponseTicket;

    fn submit(&self, request: &Request) -> Option<ResponseTicket> {
        Client::submit(self, request).ok()
    }

    fn wait(&self, ticket: &mut ResponseTicket) -> Done {
        ticket.wait().map_or(FAILED, done_in_process)
    }

    fn try_take(&self, ticket: &mut ResponseTicket) -> Option<Done> {
        match ticket.try_take() {
            Ok(None) => None,
            Ok(Some(response)) => Some(done_in_process(response)),
            Err(_) => Some(FAILED),
        }
    }
}

fn done_on_wire(response: NetResponse) -> Done {
    Done { ok: response.is_ok(), parts: response.parts, e2e: response.e2e, breakdown: None }
}

impl Backend for NetClient {
    type Ticket = NetTicket;

    fn submit(&self, request: &Request) -> Option<NetTicket> {
        NetClient::submit(self, request).ok()
    }

    fn wait(&self, ticket: &mut NetTicket) -> Done {
        ticket.wait().map_or(FAILED, done_on_wire)
    }

    fn try_take(&self, ticket: &mut NetTicket) -> Option<Done> {
        match ticket.try_take() {
            Ok(None) => None,
            Ok(Some(response)) => Some(done_on_wire(response)),
            Err(_) => Some(FAILED),
        }
    }
}

/// The reference every payload is compared with: each table's vectors as
/// `EmbeddingTable::vector_as_bytes` renders them, laid out flat so a check
/// is a slice comparison and not an allocation.
pub struct Oracle {
    tables: Vec<Vec<u8>>,
    vector_bytes: usize,
}

impl Oracle {
    pub fn new(embeddings: &[EmbeddingTable]) -> Self {
        let tables = embeddings
            .iter()
            .map(|e| (0..e.num_vectors()).flat_map(|v| e.vector_as_bytes(v)).collect())
            .collect();
        Oracle { tables, vector_bytes: embeddings[0].vector_bytes() }
    }

    /// Whether `parts` holds exactly the reference payload of every id of
    /// `request`, in order.
    pub fn matches(&self, request: &Request, parts: &[Vec<Bytes>]) -> bool {
        request.queries.len() == parts.len()
            && request.queries.iter().zip(parts).all(|(query, part)| {
                let table = &self.tables[query.table];
                query.ids.len() == part.len()
                    && query.ids.iter().zip(part).all(|(&id, payload)| {
                        let at = id as usize * self.vector_bytes;
                        table.get(at..at + self.vector_bytes) == Some(&payload[..])
                    })
            })
    }
}

/// When a closed loop stops submitting.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    Count(usize),
    After(Duration),
}

/// What one loop did.
#[derive(Default)]
pub struct Phase {
    /// One per request that completed OK, in completion order.
    pub samples: Vec<Sample>,
    pub attempted: u64,
    /// Refused, timed out, failed, or answered with a wrong payload.
    pub failed: u64,
    pub wall_s: f64,
    /// Process CPU seconds at the start of a timed loop and at each of its
    /// [`SLICES`] slice boundaries; empty for a counted loop.
    pub cpu_at: Vec<f64>,
    /// A timed loop's slice length.
    slice: Option<Duration>,
}

impl Phase {
    fn start(span: Option<Duration>) -> Self {
        let mut phase = Phase { slice: span.map(|s| s / SLICES as u32), ..Phase::default() };
        phase.sample_cpu(Duration::ZERO);
        phase
    }

    /// Reads the process CPU clock once per slice boundary passed.
    fn sample_cpu(&mut self, elapsed: Duration) {
        if let Some(slice) = self.slice {
            while self.cpu_at.len() <= SLICES && elapsed >= slice * self.cpu_at.len() as u32 {
                self.cpu_at.push(sys::cpu_seconds());
            }
        }
    }

    /// Closes the loop: the wall time, and the last slice's CPU reading if
    /// the loop ended just short of the boundary.
    fn finish(mut self, started: Instant) -> Self {
        self.wall_s = started.elapsed().as_secs_f64();
        self.sample_cpu(self.slice.unwrap_or_default() * SLICES as u32);
        self
    }
}

/// What a loop replays and how it checks the answers.
#[derive(Clone, Copy)]
pub struct Replay<'a> {
    /// Requests, replayed in order from `start_at` and cycled.
    pub pool: &'a [Request],
    pub start_at: usize,
    /// Every `check_every`-th payload is held against the oracle (0: none).
    pub check_every: usize,
    pub oracle: &'a Oracle,
}

impl Replay<'_> {
    fn request(&self, seq: usize) -> &Request {
        &self.pool[(self.start_at + seq) % self.pool.len()]
    }

    /// Whether request `seq` came back OK and, if it is one of the checked
    /// ones, with the right payload.
    fn accepts(&self, seq: usize, done: &Done) -> bool {
        let checked = self.check_every != 0 && seq.is_multiple_of(self.check_every);
        done.ok && (!checked || self.oracle.matches(self.request(seq), &done.parts))
    }
}

struct InFlight<T> {
    seq: usize,
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
    ticket: T,
}

/// Books one finished request into `phase` and records its spans when this
/// request is a traced one.
#[allow(clippy::too_many_arguments)]
fn book<T>(
    phase: &mut Phase,
    tracer: &mut Tracer,
    replay: &Replay,
    flight: &InFlight<T>,
    done: &Done,
    done_at: Instant,
    slot_s: f64,
    open_loop: bool,
) {
    if !replay.accepts(flight.seq, done) {
        phase.failed += 1;
        return;
    }
    let late = flight.submit_start.saturating_duration_since(flight.due);
    let [queue_wait, device, service] = done.breakdown.unwrap_or_default();
    // An open loop times from when the request was due: the generator's own
    // lateness plus the backend's submit → receipt clock.
    let latency = if open_loop { late + done.e2e } else { done_at - flight.submit_start };
    phase.samples.push(Sample {
        slot_s,
        latency_s: latency.as_secs_f64(),
        late_s: late.as_secs_f64(),
        submit_s: (flight.submit_end - flight.submit_start).as_secs_f64(),
        queue_wait_s: queue_wait.as_secs_f64(),
        device_s: device.as_secs_f64(),
        service_s: service.as_secs_f64(),
        e2e_s: done.e2e.as_secs_f64(),
    });
    let id = flight.seq as u64;
    if tracer.requests && id.is_multiple_of(SPAN_EVERY) {
        let whole = done_at - flight.submit_start;
        let root = tracer.push("request", flight.submit_start, whole, None, id);
        let submit = flight.submit_end - flight.submit_start;
        tracer.push("submit", flight.submit_start, submit, Some(root), id);
        let wait =
            tracer.push("wait", flight.submit_end, done_at - flight.submit_end, Some(root), id);
        if done.breakdown.is_some() {
            // The engine reports durations, not instants: lay them out from
            // the moment the request was handed over.
            tracer.push("queue_wait", flight.submit_end, queue_wait, Some(wait), id);
            let serving = flight.submit_end + queue_wait;
            let service_span = tracer.push("service", serving, service, Some(wait), id);
            tracer.push("device", serving, device, Some(service_span), id);
        }
    }
}

/// Something the generator thread does once, right after the request that
/// brings the finished count to `.0` (failures included) has been booked.
pub type Mark<'a> = (usize, &'a mut dyn FnMut());

/// Replays keeping [`CLOSED_LOOP_IN_FLIGHT`] tickets in flight until `stop`.
/// `marks` must ascend by count.
pub fn closed_loop<B: Backend>(
    backend: &B,
    replay: Replay,
    stop: Stop,
    tracer: &mut Tracer,
    marks: &mut [Mark],
) -> Phase {
    let mut phase = Phase::start(match stop {
        Stop::Count(_) => None,
        Stop::After(span) => Some(span),
    });
    let mut in_flight: VecDeque<InFlight<B::Ticket>> = VecDeque::new();
    let started = Instant::now();
    let mut seq = 0usize;
    let (mut finished, mut next_mark) = (0usize, 0usize);
    loop {
        let open = match stop {
            Stop::Count(n) => seq < n,
            Stop::After(span) => started.elapsed() < span,
        };
        if open && in_flight.len() < CLOSED_LOOP_IN_FLIGHT {
            let submit_start = Instant::now();
            let ticket = backend.submit(replay.request(seq));
            let submit_end = Instant::now();
            phase.attempted += 1;
            match ticket {
                Some(ticket) => in_flight.push_back(InFlight {
                    seq,
                    due: submit_start,
                    submit_start,
                    submit_end,
                    ticket,
                }),
                None => phase.failed += 1,
            }
            seq += 1;
            continue;
        }
        let Some(mut flight) = in_flight.pop_front() else { break };
        let done = backend.wait(&mut flight.ticket);
        let done_at = Instant::now();
        let slot_s = (done_at - started).as_secs_f64();
        book(&mut phase, tracer, &replay, &flight, &done, done_at, slot_s, false);
        phase.sample_cpu(done_at - started);
        finished += 1;
        while next_mark < marks.len() && marks[next_mark].0 <= finished {
            (marks[next_mark].1)();
            next_mark += 1;
        }
    }
    phase.finish(started)
}

/// How far ahead of a due time the generator stops sleeping and starts
/// spinning: `thread::sleep` overshoots by tens of microseconds.
const SLEEP_MARGIN: Duration = Duration::from_micros(150);

/// Submits request `i` at `schedule[i]` seconds whether or not earlier
/// requests have finished, reaping completions while it waits. A sample's
/// slice is set by its due time and its latency counts from it; `span` is
/// the length the schedule was drawn for.
pub fn open_loop<B: Backend>(
    backend: &B,
    replay: Replay,
    schedule: &[f64],
    span: Duration,
    tracer: &mut Tracer,
) -> Phase {
    let mut phase = Phase::start(Some(span));
    let mut in_flight: Vec<InFlight<B::Ticket>> = Vec::new();
    let started = Instant::now();
    let mut reap = |in_flight: &mut Vec<InFlight<B::Ticket>>, phase: &mut Phase, block: bool| {
        let mut i = 0;
        while i < in_flight.len() {
            let flight = &mut in_flight[i];
            let done = if block {
                Some(backend.wait(&mut flight.ticket))
            } else {
                backend.try_take(&mut flight.ticket)
            };
            let Some(done) = done else {
                i += 1;
                continue;
            };
            let flight = in_flight.swap_remove(i);
            let slot_s = schedule[flight.seq];
            book(phase, tracer, &replay, &flight, &done, Instant::now(), slot_s, true);
        }
    };
    for (seq, &due_s) in schedule.iter().enumerate() {
        let due = started + Duration::from_secs_f64(due_s);
        // Reap only while ahead of schedule: a request that is already due
        // goes out at once.
        while Instant::now() < due {
            reap(&mut in_flight, &mut phase, false);
            let ahead = due.saturating_duration_since(Instant::now());
            if ahead > SLEEP_MARGIN {
                std::thread::sleep(ahead - SLEEP_MARGIN);
            } else {
                // Spin, not yield: on a busy host a yielded thread may not
                // get the core back before the due time.
                while Instant::now() < due {
                    std::hint::spin_loop();
                }
            }
        }
        let submit_start = Instant::now();
        let ticket = backend.submit(replay.request(seq));
        let submit_end = Instant::now();
        phase.attempted += 1;
        match ticket {
            Some(ticket) => in_flight.push(InFlight { seq, due, submit_start, submit_end, ticket }),
            None => phase.failed += 1,
        }
        phase.sample_cpu(submit_end - started);
    }
    reap(&mut in_flight, &mut phase, true);
    phase.finish(started)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Completes every request at once with a fixed 1 ms `e2e`, but its
    /// `submit` blocks for `stall` on request number `stall_at`: a stalled
    /// generator, as after a host hiccup.
    struct Stub {
        submitted: Cell<usize>,
        stall_at: usize,
        stall: Duration,
    }

    impl Backend for Stub {
        type Ticket = ();

        fn submit(&self, _: &Request) -> Option<()> {
            let n = self.submitted.get();
            self.submitted.set(n + 1);
            if n == self.stall_at {
                std::thread::sleep(self.stall);
            }
            Some(())
        }

        fn wait(&self, _: &mut ()) -> Done {
            Done { ok: true, e2e: Duration::from_millis(1), ..FAILED }
        }

        fn try_take(&self, ticket: &mut ()) -> Option<Done> {
            Some(self.wait(ticket))
        }
    }

    fn one_table() -> (Vec<Request>, Oracle) {
        let embeddings = vec![EmbeddingTable::from_data(vec![0.0; 8], 4, 2)];
        (vec![Request { queries: vec![TableQuery::new(0, vec![1, 3])] }], Oracle::new(&embeddings))
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time_through_a_generator_stall() {
        let (pool, oracle) = one_table();
        // 100 arrivals, 1 ms apart; submitting request 20 stalls for 40 ms.
        let schedule: Vec<f64> = (0..100).map(|i| i as f64 * 0.001).collect();
        let stub = Stub { submitted: Cell::new(0), stall_at: 20, stall: Duration::from_millis(40) };
        let mut tracer = Tracer::new(false);
        // Unchecked: the stub returns no payloads.
        let span = Duration::from_millis(100);
        let replay = Replay { pool: &pool, start_at: 0, check_every: 0, oracle: &oracle };
        let phase = open_loop(&stub, replay, &schedule, span, &mut tracer);
        assert_eq!(phase.cpu_at.len(), SLICES + 1, "one CPU reading per slice boundary");
        assert_eq!((phase.attempted, phase.failed, phase.samples.len()), (100, 0, 100));
        let by_due = |ms: f64| {
            *phase.samples.iter().find(|s| (s.slot_s - ms / 1e3).abs() < 1e-9).expect("sampled")
        };
        // Request 21 was due 1 ms into the stall and left ~39 ms late; the
        // backend's own 1 ms clock never saw that wait.
        let stalled = by_due(21.0);
        assert!(stalled.late_s >= 0.035, "late {}", stalled.late_s);
        assert!((stalled.e2e_s - 0.001).abs() < 1e-9);
        assert!((stalled.latency_s - (stalled.late_s + stalled.e2e_s)).abs() < 1e-9);
        // Requests due well before and well after the stall are on time.
        assert!(by_due(5.0).latency_s < 0.01);
        assert!(by_due(95.0).latency_s < 0.01);
    }

    #[test]
    fn closed_loop_counts_requests_and_refuses_wrong_payloads() {
        let (pool, oracle) = one_table();
        let stub = Stub { submitted: Cell::new(0), stall_at: usize::MAX, stall: Duration::ZERO };
        let mut tracer = Tracer::new(false);
        let stop = Stop::Count(10);
        // Unchecked, the stub's empty payloads pass; checked, every one is a
        // wrong answer and counts as failed.
        let mut seen = Vec::new();
        let mut at_four = || seen.push(4);
        let marks: &mut [Mark] = &mut [(4, &mut at_four)];
        let replay = Replay { pool: &pool, start_at: 0, check_every: 0, oracle: &oracle };
        let phase = closed_loop(&stub, replay, stop, &mut tracer, marks);
        assert_eq!((phase.attempted, phase.failed, phase.samples.len()), (10, 0, 10));
        assert_eq!(seen, [4], "a mark fires once");
        let checking = Replay { check_every: 1, ..replay };
        let phase = closed_loop(&stub, checking, stop, &mut tracer, &mut []);
        assert_eq!((phase.attempted, phase.failed, phase.samples.len()), (10, 10, 0));
    }

    #[test]
    fn the_oracle_compares_bytes_in_request_order() {
        let data: Vec<f32> = (0..8).map(|x| x as f32).collect();
        let embeddings = vec![EmbeddingTable::from_data(data, 4, 2)];
        let oracle = Oracle::new(&embeddings);
        let request = Request { queries: vec![TableQuery::new(0, vec![2, 0])] };
        let payload = |v: u32| Bytes::from(embeddings[0].vector_as_bytes(v));
        assert!(oracle.matches(&request, &[vec![payload(2), payload(0)]]));
        assert!(!oracle.matches(&request, &[vec![payload(0), payload(2)]]));
        assert!(!oracle.matches(&request, &[vec![payload(2)]]));
        assert!(!oracle.matches(&request, &[]));
    }
}
