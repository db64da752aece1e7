//! Integration tests for the ticket-based, tenant-aware serving API:
//! ticket semantics (out-of-order collection, timeout, double-take,
//! drop), DRR fairness across weighted tenants, admission quotas, and
//! the legacy single-tenant back-compat contract.

use bandana::prelude::*;
use bandana::serve::{
    queue::{LaneSpec, Pop, WeightedQueue},
    ServeConfig, ServeError, ShardedEngine,
};
use proptest::prelude::*;
use std::time::Duration;

fn build_store(seed: u64, cache: usize) -> (BandanaStore, TraceGenerator) {
    let spec = ModelSpec::test_small();
    let mut generator = TraceGenerator::new(&spec, seed);
    let training = generator.generate_requests(250);
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
        BandanaConfig::default().with_cache_vectors(cache),
    )
    .expect("build store");
    (store, generator)
}

/// The acceptance contract of the ticket API: one thread pipelines
/// hundreds of requests before collecting anything, and every response
/// arrives exactly once with the right payloads, collected out of order.
#[test]
fn single_thread_pipelines_256_requests_and_collects_out_of_order() {
    let (store, mut generator) = build_store(50, 256);
    let mut reference = {
        let (s, _) = build_store(50, 256);
        s
    };
    let engine = ShardedEngine::new(store, ServeConfig::default().with_shards(2)).expect("engine");
    let client = engine.client(TenantId::DEFAULT).expect("default tenant");
    let trace = generator.generate_requests(256);

    // Submit all 256 before touching a single ticket.
    let mut tickets: Vec<_> =
        trace.requests.iter().map(|r| client.submit(r).expect("submit")).collect();

    // Collect in reverse submission order; completion order is whatever
    // the shards produced.
    for (i, ticket) in tickets.iter_mut().enumerate().rev() {
        let response = ticket.wait().expect("first take");
        assert!(response.status.is_ok(), "request {i}: {:?}", response.status);
        let request = &trace.requests[i];
        assert_eq!(response.parts.len(), request.queries.len());
        for (q, query) in request.queries.iter().enumerate() {
            assert_eq!(response.parts[q].len(), query.ids.len());
            for (k, &v) in query.ids.iter().enumerate() {
                let expected = reference.lookup(query.table, v).expect("reference lookup");
                assert_eq!(
                    response.parts[q][k].as_ref(),
                    expected.as_ref(),
                    "request {i} table {} id {v}",
                    query.table
                );
            }
        }
        assert!(response.e2e >= response.queue_wait, "breakdown inside e2e");
    }

    let m = engine.metrics();
    assert_eq!(m.submitted, 256);
    assert_eq!(m.completed, 256, "every request completes exactly once");
    assert_eq!(m.outstanding, 0);
    assert_eq!(m.lookups as usize, trace.total_lookups());
}

#[test]
fn wait_timeout_expires_then_the_ticket_still_delivers() {
    let (store, mut generator) = build_store(51, 256);
    // A 150 ms batch window on a single shard holds the first request's
    // micro-batch open, so its ticket cannot complete immediately.
    let engine = ShardedEngine::new(
        store,
        ServeConfig::default()
            .with_shards(1)
            .with_batch_window(Duration::from_millis(150))
            .with_max_batch(64),
    )
    .expect("engine");
    let client = engine.client(TenantId::DEFAULT).expect("default tenant");
    let trace = generator.generate_requests(1);
    let mut ticket = client.submit(&trace.requests[0]).expect("submit");
    // The window is 30× the poll timeout: the first poll expires.
    match ticket.wait_timeout(Duration::from_millis(5)) {
        Ok(None) => {}
        other => panic!("expected expiry while the batch window is open, got {other:?}"),
    }
    // The ticket stays live: a full wait still delivers the response.
    let response = ticket.wait().expect("take after expiry");
    assert!(response.status.is_ok());
    assert_eq!(engine.metrics().completed, 1);
}

#[test]
fn double_take_is_an_error_and_dropped_tickets_do_not_leak() {
    let (store, mut generator) = build_store(52, 256);
    let engine = ShardedEngine::new(store, ServeConfig::default().with_shards(2)).expect("engine");
    let client = engine.client(TenantId::DEFAULT).expect("default tenant");
    let trace = generator.generate_requests(12);

    // Double take: every take path reports TicketTaken after the first.
    let mut ticket = client.submit(&trace.requests[0]).expect("submit");
    let response = ticket.wait().expect("first take");
    assert!(response.status.is_ok());
    assert!(matches!(ticket.try_take(), Err(ServeError::TicketTaken)));
    assert!(matches!(ticket.wait(), Err(ServeError::TicketTaken)));
    assert!(matches!(ticket.wait_timeout(Duration::from_millis(1)), Err(ServeError::TicketTaken)));

    // Dropped tickets: submit the rest and drop every ticket untaken.
    for request in &trace.requests[1..] {
        drop(client.submit(request).expect("submit"));
    }
    engine.drain();
    let m = engine.metrics();
    assert_eq!(m.completed, 12, "dropped tickets still complete normally");
    assert_eq!(m.outstanding, 0, "no completion state leaks");
    // The engine is fully alive afterwards.
    let response = client.call(&trace.requests[0]).expect("serve after drops");
    assert!(response.status.is_ok());
}

#[test]
fn per_request_deadline_overrides_the_global_timeout() {
    let (store, mut generator) = build_store(53, 256);
    // Generous global timeout; the per-request deadline of zero loses the
    // race every time.
    let engine = ShardedEngine::new(
        store,
        ServeConfig::default().with_shards(1).with_request_timeout(Duration::from_secs(30)),
    )
    .expect("engine");
    let client = engine.client(TenantId::DEFAULT).expect("default tenant");
    let trace = generator.generate_requests(20);
    let mut timed_out = 0u64;
    for request in &trace.requests {
        let response = client
            .submit_with_deadline(request, Some(Duration::ZERO))
            .expect("submit")
            .wait()
            .expect("take");
        if response.status == ResponseStatus::TimedOut {
            timed_out += 1;
        }
    }
    assert!(timed_out > 0, "a zero per-request deadline must time out");
    let m = engine.metrics();
    assert_eq!(m.timed_out, timed_out);
    assert_eq!(m.completed + m.timed_out, 20);
}

#[test]
fn admission_quota_sheds_before_the_shard_queues() {
    let (store, mut generator) = build_store(54, 256);
    let engine = ShardedEngine::new(
        store,
        ServeConfig::default()
            .with_shards(2)
            .with_tenant(TenantId(7), TenantSpec::new(1).with_quota(0)),
    )
    .expect("engine");
    let capped = engine.client(TenantId(7)).expect("capped tenant");
    let trace = generator.generate_requests(10);
    for request in &trace.requests {
        assert!(matches!(capped.submit(request), Err(ServeError::QuotaExceeded)));
    }
    let m = engine.metrics();
    let t = m.per_tenant.iter().find(|t| t.id == TenantId(7)).expect("tenant registered");
    assert_eq!(t.submitted, 10);
    assert_eq!(t.shed, 10);
    assert_eq!(t.completed, 0);
    assert_eq!(m.shed, 10);
    assert_eq!(m.submitted, 10);
    // Unknown tenants are rejected up front.
    assert!(matches!(engine.client(TenantId(99)), Err(ServeError::UnknownTenant(TenantId(99)))));
}

/// Regression: the in-flight quota slot is released *before* the
/// ticket's waiter wakes, so a quota-1 tenant running a sequential
/// closed loop never sees a phantom `QuotaExceeded`.
#[test]
fn sequential_quota_one_caller_is_never_spuriously_shed() {
    let (store, mut generator) = build_store(58, 256);
    let engine = ShardedEngine::new(
        store,
        ServeConfig::default()
            .with_shards(2)
            .with_tenant(TenantId(9), TenantSpec::new(1).with_quota(1)),
    )
    .expect("engine");
    let client = engine.client(TenantId(9)).expect("quota tenant");
    let trace = generator.generate_requests(200);
    for (i, request) in trace.requests.iter().enumerate() {
        let response = client
            .call(request)
            .unwrap_or_else(|e| panic!("sequential call {i} shed by its own quota: {e}"));
        assert!(response.status.is_ok());
    }
    let m = engine.metrics();
    let t = m.per_tenant.iter().find(|t| t.id == TenantId(9)).expect("tenant");
    assert_eq!(t.completed, 200);
    assert_eq!(t.shed, 0);
}

/// Satellite back-compat pin: for a single-tenant config the legacy
/// `serve()` path and the ticket path produce identical payloads, read
/// counts, and metrics.
#[test]
fn legacy_serve_matches_ticket_path_for_single_tenant_configs() {
    let trace = {
        let (_, mut generator) = build_store(55, 256);
        generator.generate_requests(80)
    };
    let run = |use_tickets: bool| {
        let (store, _) = build_store(55, 256);
        let engine =
            ShardedEngine::new(store, ServeConfig::default().with_shards(2)).expect("engine");
        let results: Vec<_> = if use_tickets {
            let client = engine.client(TenantId::DEFAULT).expect("default tenant");
            trace
                .requests
                .iter()
                .map(|r| client.call(r).expect("call").into_parts().expect("ok response"))
                .collect()
        } else {
            trace.requests.iter().map(|r| engine.serve(r).expect("serve")).collect()
        };
        (results, engine.shutdown())
    };
    let (legacy_payloads, legacy_metrics) = run(false);
    let (ticket_payloads, ticket_metrics) = run(true);
    assert_eq!(legacy_payloads, ticket_payloads, "payloads must be byte-identical");
    assert_eq!(legacy_metrics.completed, ticket_metrics.completed);
    assert_eq!(legacy_metrics.lookups, ticket_metrics.lookups);
    assert_eq!(legacy_metrics.shed, ticket_metrics.shed);
    assert_eq!(legacy_metrics.failed, ticket_metrics.failed);
    let legacy_reads: u64 = legacy_metrics.per_shard.iter().map(|s| s.device_reads).sum();
    let ticket_reads: u64 = ticket_metrics.per_shard.iter().map(|s| s.device_reads).sum();
    assert_eq!(legacy_reads, ticket_reads, "read pattern must not change");
    // The legacy path is charged to the default tenant: its per-tenant
    // slice mirrors the engine-wide counters exactly.
    for m in [&legacy_metrics, &ticket_metrics] {
        assert_eq!(m.per_tenant.len(), 1);
        let t = &m.per_tenant[0];
        assert_eq!(t.id, TenantId::DEFAULT);
        assert_eq!(t.submitted, m.submitted);
        assert_eq!(t.completed, m.completed);
        assert_eq!(t.latency.count, m.latency.count);
    }
}

proptest! {
    /// DRR fairness at the scheduling layer: with two tenants at 9:1
    /// weights both permanently backlogged, popped shares track the
    /// weights within ±10% for any batch size, and the starved-tenant
    /// invariant holds — every nonempty tenant lane is visited each
    /// scheduling round (never more than 9 heavy pops between
    /// consecutive light pops).
    #[test]
    fn drr_fairness_under_overload(batch in 1usize..24, backlog in 16usize..128) {
        let q: WeightedQueue<usize> = WeightedQueue::new(
            &[LaneSpec { weight: 9, class: 0 }, LaneSpec { weight: 1, class: 0 }],
            4096,
        );
        let mut flat: Vec<usize> = Vec::new();
        while flat.len() < 800 {
            for lane in 0..2 {
                while q.lane_len(lane) < backlog {
                    q.push(lane, lane, ShedPolicy::DropNewest);
                }
            }
            match q.pop_batch(Duration::ZERO, Duration::ZERO, batch) {
                Pop::Item(items) => flat.extend(items),
                other => prop_assert!(false, "backlogged queue must pop, got {other:?}"),
            }
        }
        let heavy = flat.iter().filter(|&&l| l == 0).count() as f64;
        let share = heavy / flat.len() as f64;
        prop_assert!(
            (share - 0.9).abs() <= 0.1,
            "heavy completion share {share} outside ±10% of the 9:1 weights (batch {batch})"
        );
        // Starved-tenant invariant.
        let mut gap = 0usize;
        for &lane in &flat {
            if lane == 1 {
                gap = 0;
            } else {
                gap += 1;
                prop_assert!(gap <= 9, "light tenant skipped a scheduling round (gap {gap})");
            }
        }
    }

    /// Generalized weighted shares: random weights, shares within ±10%
    /// of the weight fractions.
    #[test]
    fn drr_shares_generalize_to_arbitrary_weights(wa in 1u64..12, wb in 1u64..12) {
        let q: WeightedQueue<usize> = WeightedQueue::new(
            &[LaneSpec { weight: wa, class: 0 }, LaneSpec { weight: wb, class: 0 }],
            4096,
        );
        let mut counts = [0u64; 2];
        let mut total = 0u64;
        while total < 600 {
            for lane in 0..2 {
                while q.lane_len(lane) < 64 {
                    q.push(lane, lane, ShedPolicy::DropNewest);
                }
            }
            match q.pop_batch(Duration::ZERO, Duration::ZERO, 8) {
                Pop::Item(items) => {
                    for lane in items {
                        counts[lane] += 1;
                        total += 1;
                    }
                }
                other => prop_assert!(false, "backlogged queue must pop, got {other:?}"),
            }
        }
        let expected = wa as f64 / (wa + wb) as f64;
        let share = counts[0] as f64 / total as f64;
        prop_assert!(
            (share - expected).abs() <= 0.1,
            "share {share} vs weight fraction {expected} (weights {wa}:{wb})"
        );
    }
}

/// End-to-end DRR fairness: two tenants at 9:1 weights flooding a
/// single-shard engine complete within ±10% of their weight shares.
///
/// The floods use [`ShedPolicy::Block`], so the submitter threads sleep
/// on the lane condvars instead of burning CPU — both lanes stay
/// backlogged by construction, which keeps the measurement meaningful
/// even on a single-core machine. Shares are measured as the completion
/// delta between two mid-run snapshots, when both lanes are guaranteed
/// saturated.
#[test]
fn weighted_tenants_divide_completions_under_engine_overload() {
    let (store, mut generator) = build_store(56, 256);
    let engine = ShardedEngine::new(
        store,
        ServeConfig::default()
            .with_shards(1)
            .with_queue_capacity(16)
            .with_shed_policy(ShedPolicy::Block)
            .with_device_queue(2)
            .with_tenant(TenantId(1), TenantSpec::new(9))
            .with_tenant(TenantId(2), TenantSpec::new(1)),
    )
    .expect("engine");
    let trace = generator.generate_requests(64);
    let stop = std::sync::atomic::AtomicBool::new(false);
    let completed_of = |m: &bandana::serve::EngineMetrics, id: TenantId| {
        m.per_tenant.iter().find(|t| t.id == id).expect("registered tenant").completed
    };
    // The window is sized on the per-tenant counters it is measured with:
    // a snapshot reads them before the engine-wide `completed`, so the two
    // can differ by the completions that land in between.
    let both = |m: &bandana::serve::EngineMetrics| {
        completed_of(m, TenantId(1)) + completed_of(m, TenantId(2))
    };
    let (heavy_delta, light_delta) = std::thread::scope(|scope| {
        for id in [TenantId(1), TenantId(2)] {
            let client = engine.client(id).expect("registered tenant");
            let stop = &stop;
            let requests = &trace.requests;
            scope.spawn(move || {
                let mut i = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    // Tickets dropped on purpose: fire-and-forget flood;
                    // a full lane blocks the submitter until space frees.
                    let _ = client.submit(&requests[i % requests.len()]);
                    i += 1;
                }
            });
        }
        // Let the floods saturate their lanes, then measure a window.
        let warm = loop {
            let m = engine.metrics();
            if both(&m) >= 200 {
                break m;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let end = loop {
            let m = engine.metrics();
            if both(&m) >= both(&warm) + 800 {
                break m;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        (
            completed_of(&end, TenantId(1)) - completed_of(&warm, TenantId(1)),
            completed_of(&end, TenantId(2)) - completed_of(&warm, TenantId(2)),
        )
    });
    engine.drain();
    let total = heavy_delta + light_delta;
    assert!(total >= 800, "measurement window too short: {total} completions");
    let share = heavy_delta as f64 / total as f64;
    assert!(
        (share - 0.9).abs() <= 0.1,
        "heavy tenant completed {share:.3} of the overload window, expected 0.9 ± 0.1 \
         (heavy {heavy_delta}, light {light_delta})"
    );
    // Every submitted request landed in exactly one bucket, per tenant.
    let m = engine.metrics();
    for id in [TenantId(1), TenantId(2)] {
        let t = m.per_tenant.iter().find(|t| t.id == id).expect("tenant");
        assert_eq!(t.submitted, t.completed + t.shed + t.timed_out + t.failed, "{t:?}");
    }
}

/// Strict priority end-to-end: a High-class tenant's requests never shed
/// while a Low-class tenant floods the same single shard. The flood uses
/// [`ShedPolicy::Block`] so the flooding thread parks instead of burning
/// CPU (single-core friendly); the High tenant's lane is never full, so
/// its closed-loop calls are admitted and scheduled first.
#[test]
fn high_priority_tenant_is_served_ahead_of_a_flooding_low_tenant() {
    let (store, mut generator) = build_store(57, 128);
    let engine = ShardedEngine::new(
        store,
        ServeConfig::default()
            .with_shards(1)
            .with_queue_capacity(4)
            .with_shed_policy(ShedPolicy::Block)
            .with_tenant(TenantId(1), TenantSpec::new(1).with_class(PriorityClass::High))
            .with_tenant(TenantId(2), TenantSpec::new(1).with_class(PriorityClass::Low)),
    )
    .expect("engine");
    let trace = generator.generate_requests(32);
    let stop = std::sync::atomic::AtomicBool::new(false);
    let high_served = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|scope| {
        let low = engine.client(TenantId(2)).expect("low tenant");
        let stop_ref = &stop;
        let requests = &trace.requests;
        scope.spawn(move || {
            let mut i = 0usize;
            while !stop_ref.load(std::sync::atomic::Ordering::Relaxed) {
                let _ = low.submit(&requests[i % requests.len()]);
                i += 1;
            }
        });
        // The interactive tenant calls closed-loop through the flood; its
        // lane is drained first at every scheduling decision, so calls
        // succeed promptly.
        let high = engine.client(TenantId(1)).expect("high tenant");
        for request in &trace.requests {
            let response = high.call(request).expect("high-priority call");
            assert!(response.status.is_ok());
            high_served.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    engine.drain();
    let m = engine.metrics();
    let high = m.per_tenant.iter().find(|t| t.id == TenantId(1)).expect("high tenant");
    assert_eq!(high.completed, 32);
    assert_eq!(high.shed, 0, "the high-class closed-loop caller must never shed");
}
