//! Integration tests for the unified control plane: the metrics bus,
//! SLO-budget shedding, shed-reason accounting, and custom controllers
//! driving the engine's knobs.

use bandana::prelude::*;
use bandana::serve::{
    Action, ControlConfig, Controller, EngineSnapshot, ServeConfig, ServeError, ShardedEngine,
    SloControllerConfig,
};
use std::time::{Duration, Instant};

fn build_store(seed: u64) -> (BandanaStore, TraceGenerator) {
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
        BandanaConfig::default().with_cache_vectors(256),
    )
    .expect("build store");
    (store, generator)
}

/// Polls `predicate` until it holds or the deadline passes.
fn wait_for(what: &str, mut predicate: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !predicate() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A fast bus for tests: short ticks and a short recent window.
fn fast_control() -> ControlConfig {
    ControlConfig {
        tick: Duration::from_millis(2),
        window_slot: Duration::from_millis(25),
        window_slots: 4,
    }
}

#[test]
fn metrics_bus_ticks_and_snapshots_the_engine() {
    let (store, mut generator) = build_store(61);
    let engine = ShardedEngine::new(
        store,
        ServeConfig::default()
            .with_shards(2)
            .with_batch_window(Duration::from_micros(200))
            .with_max_batch(4)
            .with_control(fast_control())
            .with_tenant(TenantId(1), TenantSpec::new(3)),
    )
    .expect("engine");
    let trace = generator.generate_requests(50);
    for r in &trace.requests {
        engine.submit(r).expect("submit");
    }
    engine.drain();
    // The bus runs even with no controller registered.
    wait_for("bus ticks", || engine.metrics().control_ticks > 0);
    let snapshot = engine.snapshot();
    assert_eq!(snapshot.shards.len(), 2);
    assert_eq!(snapshot.tenants.len(), 2, "default tenant plus one registered");
    for shard in &snapshot.shards {
        assert_eq!(shard.lane_depths.len(), 2, "one lane per tenant");
    }
    assert_eq!(snapshot.queued(), 0, "drained engine has empty lanes");
    assert_eq!(snapshot.batch_window, Duration::from_micros(200));
    assert!(snapshot.uptime > Duration::ZERO);
    // No controllers: the bus observed but never acted.
    assert_eq!(engine.metrics().control_actions, 0);
}

#[test]
fn recent_window_reports_and_then_decays_tenant_latency() {
    let (store, mut generator) = build_store(62);
    let engine = ShardedEngine::new(
        store,
        ServeConfig::default().with_shards(1).with_control(fast_control()),
    )
    .expect("engine");
    let trace = generator.generate_requests(30);
    for r in &trace.requests {
        engine.serve(r).expect("serve");
    }
    let m = engine.metrics();
    let tenant = &m.per_tenant[0];
    assert_eq!(tenant.latency.count, 30);
    assert!(tenant.recent.count > 0, "fresh completions are inside the window");
    assert!(tenant.recent.p99_s > 0.0);
    // Idle long enough for every slot to rotate out: the recent window
    // drains while the cumulative histogram keeps its history.
    wait_for("window decay", || engine.metrics().per_tenant[0].recent.count == 0);
    let m = engine.metrics();
    assert_eq!(m.per_tenant[0].latency.count, 30, "cumulative history is untouched");
}

#[test]
fn slo_controller_sheds_a_blown_tenant_then_releases_it() {
    let (store, mut generator) = build_store(63);
    const TENANT: TenantId = TenantId(7);
    let engine = ShardedEngine::new(
        store,
        ServeConfig::default()
            .with_shards(1)
            .with_control(fast_control())
            // A 1 ns budget: any completed request blows it, so the trip
            // is deterministic.
            .with_tenant(TENANT, TenantSpec::new(1).with_slo_p99(Duration::from_nanos(1)))
            .with_slo_controller(SloControllerConfig {
                min_samples: 1,
                base_hold: Duration::from_millis(30),
                backoff: 1,
                max_hold: Duration::from_millis(30),
                ..Default::default()
            }),
    )
    .expect("engine");
    let client = engine.client(TENANT).expect("registered tenant");
    let trace = generator.generate_requests(20);
    // Only the first call is guaranteed to precede the trip: once its
    // completion reaches the bus (2 ms ticks), any later submission may
    // already be shed — how many squeeze through first is host-speed
    // dependent, so the test asserts nothing about them.
    client.call(&trace.requests[0]).expect("pre-trip request serves normally");
    for r in trace.requests.iter().skip(1).take(4) {
        match client.call(r) {
            Ok(_) | Err(ServeError::SloShed) => {}
            Err(e) => panic!("unexpected pre-trip error: {e:?}"),
        }
    }
    // The controller observes the blown recent-window p99 and trips.
    wait_for("SLO trip", || engine.metrics().per_tenant.iter().any(|t| t.slo_shedding));

    // The trip left a matching entry in the control-plane audit log:
    // the SLO controller, naming the offending tenant, shed = true.
    let audit = engine.metrics().audit;
    assert!(
        audit.iter().any(|e| e.controller == "SloController"
            && e.tenant == Some(TENANT)
            && e.action.contains("shed: true")),
        "no audit entry for the SLO trip: {audit:?}"
    );

    // While tripped, submissions are refused up front with the dedicated
    // error and counted in the SLO shed bucket.
    let shed_error = client.submit(&trace.requests[5]).expect_err("tripped tenant is shed");
    assert!(matches!(shed_error, ServeError::SloShed), "{shed_error:?}");
    let m = engine.metrics();
    let t = m.per_tenant.iter().find(|t| t.id == TENANT).expect("tenant metrics");
    assert!(t.slo_shedding);
    assert_eq!(t.slo_p99, Some(Duration::from_nanos(1)));
    assert!(t.shed_reasons.slo > 0, "{:?}", t.shed_reasons);
    assert_eq!(t.shed_reasons.lane_full, 0);
    assert_eq!(t.shed_reasons.total(), t.shed, "breakdown must cover the aggregate");
    // The default tenant is unaffected by its neighbour's breaker.
    engine.serve(&trace.requests[6]).expect("default tenant still serves");

    // With the tenant shed, its window drains; once the hold expires the
    // breaker releases and submissions flow again.
    wait_for("SLO release", || {
        engine.metrics().per_tenant.iter().all(|t| !t.slo_shedding)
            || client.submit(&trace.requests[7]).is_ok()
    });
    // Engine-wide accounting still adds up: every submission landed in
    // exactly one outcome bucket.
    let m = engine.metrics();
    assert_eq!(m.completed + m.shed + m.timed_out + m.failed, m.submitted);
    assert!(m.control_actions > 0, "the trip and release were bus actions");
}

/// A one-shot custom controller: on its first observation it widens the
/// batch window and pinches the default tenant's lanes to one slot.
struct OneShotKnobs {
    fired: bool,
}

impl Controller for OneShotKnobs {
    fn name(&self) -> &str {
        "one-shot-knobs"
    }

    fn observe(&mut self, _snapshot: &EngineSnapshot) -> Vec<Action> {
        if self.fired {
            return Vec::new();
        }
        self.fired = true;
        vec![
            Action::SetBatchWindow { window: Duration::from_millis(100) },
            Action::SetLaneCap { tenant: TenantId::DEFAULT, cap: 1 },
        ]
    }
}

#[test]
fn custom_controllers_drive_batch_window_and_lane_caps() {
    let (store, mut generator) = build_store(64);
    let engine = ShardedEngine::new_with_controllers(
        store,
        ServeConfig::default()
            .with_shards(1)
            .with_max_batch(8)
            .with_shed_policy(ShedPolicy::DropNewest)
            .with_control(fast_control()),
        vec![Box::new(OneShotKnobs { fired: false })],
    )
    .expect("engine");
    // The engine started with no batch window; the controller's retune is
    // visible in the snapshot once applied.
    wait_for("batch window retune", || {
        engine.snapshot().batch_window == Duration::from_millis(100)
    });
    assert!(engine.metrics().control_actions >= 2);

    let trace = generator.generate_requests(40);
    // The pinched one-slot lane sheds under a tight submission loop long
    // before 30 requests (the stock 1024-slot lane would absorb them
    // all) — proof SetLaneCap reached the queues.
    let mut sheds = 0u64;
    for r in trace.requests.iter().take(30) {
        match engine.submit(r) {
            Ok(()) => {}
            Err(ServeError::Rejected) => sheds += 1,
            Err(other) => panic!("unexpected submit error {other:?}"),
        }
    }
    engine.drain();
    let m = engine.metrics();
    assert!(sheds > 0, "a one-slot lane must shed a 30-request burst");
    assert_eq!(m.per_tenant[0].shed_reasons.lane_full, sheds);

    // The widened window now merges paced requests into one micro-batch
    // — proof SetBatchWindow reached the shard worker. Pacing (rather
    // than a tight loop) lets the one-slot lane drain between
    // submissions on a single-core host: the first request opens the
    // 100 ms window and the follow-ups land inside it.
    let batches_before = m.batching.batches;
    for r in trace.requests.iter().skip(30) {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match engine.submit(r) {
                Ok(()) => break,
                Err(ServeError::Rejected) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(other) => panic!("paced submit failed: {other:?}"),
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    engine.drain();
    let m = engine.metrics();
    let new_batches = m.batching.batches - batches_before;
    assert!(new_batches > 0);
    assert!(
        m.batching.largest_batch > 1,
        "the retuned window must merge paced requests: {:?}",
        m.batching
    );
}

#[test]
fn cache_residency_stays_inside_the_memory_model_across_repartitions() {
    use bandana::serve::CacheBudgetSettings;

    let (store, _) = build_store(66);
    let vector_bytes = store.vector_bytes() as u64;
    let engine = ShardedEngine::new(
        store,
        ServeConfig::default()
            .with_shards(1)
            .with_control(ControlConfig { tick: Duration::from_millis(1), ..fast_control() })
            .with_cache_budget(CacheBudgetSettings {
                window_lookups: 256,
                granularity: 32,
                ..CacheBudgetSettings::default()
            }),
    )
    .expect("engine");
    let total: u64 =
        engine.metrics().cache_partition.iter().map(|p| p.capacity_entries as u64).sum();

    // The memory model, read off the exported gauges alone: a table's
    // cache holds at most (capacity + 1) vectors' worth of bytes. While a
    // re-partition is in flight the control plane's capacity can run ahead
    // of the worker's by one command, so the per-table bound is checked at
    // rest; the engine-wide one — no cache ever outgrows the whole budget —
    // is checked on every sample.
    let within_model = |m: &bandana::serve::EngineMetrics| {
        m.cache_partition.iter().all(|p| {
            m.cache_resident_bytes[p.table] <= (p.capacity_entries as u64 + 1) * vector_bytes
        })
    };
    let mut rng = 7u64;
    let mut lcg = move |keys: u32| {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((rng >> 33) as u32) % keys
    };
    let share = |m: &bandana::serve::EngineMetrics, table: usize| {
        m.cache_partition.iter().find(|p| p.table == table).expect("table").capacity_entries
    };
    // Drives one table over a wide working set and the other over 4 keys
    // until the controller has handed the wide one the larger share.
    let mut favour = |hot: usize| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while {
            let m = engine.metrics();
            share(&m, hot) <= share(&m, 1 - hot)
        } {
            assert!(Instant::now() < deadline, "no re-partition towards table {hot}");
            for _ in 0..64 {
                let wide: Vec<u32> = (0..8).map(|_| lcg(1500)).collect();
                let mut queries =
                    vec![TableQuery::new(hot, wide), TableQuery::new(1 - hot, vec![lcg(4)])];
                queries.sort_by_key(|q| q.table);
                engine.submit(&Request { queries }).expect("submit");
            }
            engine.drain();
            let m = engine.metrics();
            for (table, &bytes) in m.cache_resident_bytes.iter().enumerate() {
                assert!(bytes <= (total + 1) * vector_bytes, "table {table} outgrew the budget");
            }
        }
        wait_for("the worker to apply the partition", || within_model(&engine.metrics()));
        engine.metrics()
    };

    // There: table 1 (the smaller share at build time) wins the budget and
    // fills it. Back: table 0 does, and table 1's arena — full by now — has
    // to be cut down to its new share.
    let there = favour(1);
    assert!(there.cache_resident_bytes[1] > 0, "the gauge never moved: {there:?}");
    let back = favour(0);
    assert!(share(&back, 1) < share(&there, 1), "the round trip must shrink table 1");
    assert!(
        back.cache_resident_bytes[1] < there.cache_resident_bytes[1],
        "a shrunk cache must give its bytes back: {} -> {}",
        there.cache_resident_bytes[1],
        back.cache_resident_bytes[1]
    );
    let text = bandana::serve::render_prometheus(&back, &engine.snapshot());
    assert!(text.contains("bandana_table_cache_resident_bytes{table=\"1\"}"), "{text}");
}
