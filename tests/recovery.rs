//! Integration tests for crash-safe durability and warm restart: the
//! WAL + snapshot recovery path, the crash-point fault-injection
//! matrix, bit-flip corruption, and the net-layer contract that a
//! restarted server still serves a live-registered tenant.

use bandana::persist::{flip_bit, CrashPoint, FaultPlan};
use bandana::prelude::*;
use bandana::serve::{
    AdminServer, NetClient, NetServer, NetServerConfig, ServeConfig, ServeError, ShardedEngine,
    TenantId, TenantSpec,
};
use std::path::PathBuf;
use std::sync::Arc;

const SHARDS: usize = 2;
const CACHE_VECTORS: usize = 256;
/// The table retrained to generate real drive writes.
const RETRAIN_TABLE: usize = 0;

fn temp_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bandana-recovery-{}-{name}", std::process::id()))
}

/// Removes the persist directory when the test ends, pass or fail.
struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A deterministic workload: same seed → byte-identical stores, so the
/// only difference between a fresh build and a recovered engine is what
/// recovery restored.
struct Fixture {
    spec: ModelSpec,
    embeddings: Vec<EmbeddingTable>,
    train: Trace,
    eval: Trace,
}

fn fixture(seed: u64) -> Fixture {
    let spec = ModelSpec::test_small();
    let mut generator = TraceGenerator::new(&spec, seed);
    let train = generator.generate_requests(200);
    let eval = generator.generate_requests(120);
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
    Fixture { spec, embeddings, train, eval }
}

fn build_store(f: &Fixture) -> BandanaStore {
    BandanaStore::build(
        &f.spec,
        &f.embeddings,
        &f.train,
        BandanaConfig::default().with_cache_vectors(CACHE_VECTORS),
    )
    .expect("store builds")
}

fn persist_config(dir: &std::path::Path, faults: &Arc<FaultPlan>) -> PersistConfig {
    // fsync every append and no periodic snapshots: every durability
    // action in these tests is explicit, so the on-disk state at each
    // crash point is exactly known.
    PersistConfig::new(dir)
        .with_fsync_every(1)
        .with_snapshot_every_ticks(0)
        .with_faults(Arc::clone(faults))
}

fn serve_config(dir: &std::path::Path, faults: &Arc<FaultPlan>) -> ServeConfig {
    ServeConfig::default().with_shards(SHARDS).with_persist(persist_config(dir, faults))
}

fn serve_all(engine: &ShardedEngine, trace: &Trace) {
    for request in &trace.requests {
        engine.serve(request).expect("request serves");
    }
}

fn bytes_written(engine: &ShardedEngine) -> u64 {
    engine.metrics().per_shard.iter().map(|s| s.bytes_written).sum()
}

/// Warm restart end-to-end: the recovered engine rehydrates the shard
/// caches, restores the endurance counters, reports it all through
/// `RecoveryMetrics`, and keeps serving correct payloads.
#[test]
fn warm_restart_rehydrates_cache_counters_and_serves() {
    let dir = temp_dir("warm");
    let _cleanup = Cleanup(dir.clone());
    let _ = std::fs::remove_dir_all(&dir);
    let f = fixture(11);
    let faults = FaultPlan::none();

    // Prime: serve (warms the caches), retrain (generates drive
    // writes), snapshot, shut down.
    let engine = ShardedEngine::new(build_store(&f), serve_config(&dir, &faults))
        .expect("primed engine builds");
    serve_all(&engine, &f.eval);
    engine.retrain(RETRAIN_TABLE, &f.embeddings[RETRAIN_TABLE]).expect("retrain");
    let bytes_pre = bytes_written(&engine);
    assert!(bytes_pre > 0, "retrain must generate drive writes");
    engine.snapshot_now().expect("snapshot installs");
    drop(engine);

    // Recover on an identical fresh store.
    let recovered = ShardedEngine::recover(build_store(&f), serve_config(&dir, &faults))
        .expect("recovery succeeds");
    let m = recovered.metrics();
    assert!(m.recovery.replayed_records > 0, "the WAL catalog replays");
    assert!(m.recovery.rehydrated_keys > 0, "the snapshot rehydrates cache keys");
    assert!(m.recovery.snapshot_age_seconds >= 0.0, "a snapshot exists: {m:?}");
    assert_eq!(bytes_written(&recovered), bytes_pre, "drive-write accounting survives the restart");
    // The rehydrated cache is *correct*, not just populated: every
    // payload matches the embeddings the store was built from.
    for request in f.eval.requests.iter().take(30) {
        let responses = recovered.serve(request).expect("recovered engine serves");
        for (query, parts) in request.queries.iter().zip(&responses) {
            for (&id, part) in query.ids.iter().zip(parts) {
                assert_eq!(
                    part.as_ref(),
                    f.embeddings[query.table].vector_as_bytes(id).as_slice(),
                    "table {} vector {id} corrupted across restart",
                    query.table
                );
            }
        }
    }
    // A hot first window: the rehydrated cache absorbs misses a cold
    // engine would pay. Hit rate, not raw device reads — cold misses
    // concentrate on hot blocks and coalesce into fewer distinct block
    // reads, so read counts can cross even when the warm cache works.
    // (Recovery leaves the cache counters at zero, so these rates cover
    // exactly the 30 requests each engine served.)
    let hit_rate =
        |m: &bandana::serve::EngineMetrics| m.cache.hits as f64 / m.cache.lookups.max(1) as f64;
    let warm_rate = hit_rate(&recovered.metrics());
    let cold = ShardedEngine::new(build_store(&f), ServeConfig::default().with_shards(SHARDS))
        .expect("cold engine builds");
    for request in f.eval.requests.iter().take(30) {
        cold.serve(request).expect("cold engine serves");
    }
    let cold_rate = hit_rate(&cold.metrics());
    assert!(
        warm_rate > cold_rate,
        "rehydrated cache must absorb misses: warm hit rate {warm_rate:.4} vs cold {cold_rate:.4}"
    );
}

/// The crash matrix: every [`CrashPoint`] fires mid-operation, and
/// recovery from the resulting directory restores a consistent state —
/// catalog intact, acknowledged tenants present, unacknowledged ones
/// absent, endurance counters matching the last installed snapshot,
/// and the engine serving correct data.
#[test]
fn crash_matrix_recovers_to_consistent_state() {
    let f = fixture(13);
    for point in CrashPoint::ALL {
        let dir = temp_dir(&format!("crash-{point}"));
        let _cleanup = Cleanup(dir.clone());
        let _ = std::fs::remove_dir_all(&dir);
        let faults = FaultPlan::none();

        // A healthy prime first: warm, retrain, snapshot, and one
        // acknowledged live registration — state recovery must keep.
        let engine = ShardedEngine::new(build_store(&f), serve_config(&dir, &faults))
            .expect("primed engine builds");
        serve_all(&engine, &f.eval);
        engine.retrain(RETRAIN_TABLE, &f.embeddings[RETRAIN_TABLE]).expect("retrain");
        let bytes_pre = bytes_written(&engine);
        engine.snapshot_now().expect("baseline snapshot installs");
        engine.register_tenant(TenantId(7), TenantSpec::new(3)).expect("acknowledged registration");

        // Arm the crash point and drive the operation into it.
        faults.arm(point);
        match point {
            CrashPoint::WalMidAppend => {
                let err = engine
                    .register_tenant(TenantId(8), TenantSpec::new(2))
                    .expect_err("torn append must fail the registration");
                assert!(
                    matches!(err, ServeError::Persist(_)),
                    "registration fails as a persist error, got {err:?}"
                );
                // The failed registration was not applied in memory
                // either: fail-closed, no acknowledged-but-lost state.
                assert!(
                    !engine.tenants().iter().any(|(id, _)| *id == TenantId(8)),
                    "unjournaled tenant must not be registered"
                );
            }
            CrashPoint::SnapshotMidWrite | CrashPoint::SnapshotBeforeRename => {
                engine.snapshot_now().expect_err("injected snapshot crash must surface");
            }
        }
        drop(engine);

        // Recovery: the torn tail heals, orphaned temp files are
        // ignored, and the state is exactly the acknowledged one.
        let clean = FaultPlan::none();
        let recovered = ShardedEngine::recover(build_store(&f), serve_config(&dir, &clean))
            .unwrap_or_else(|e| panic!("recovery after {point} failed: {e}"));
        let m = recovered.metrics();
        assert!(m.recovery.replayed_records > 0, "{point}: catalog replays");
        assert!(m.recovery.rehydrated_keys > 0, "{point}: the baseline snapshot still rehydrates");
        assert_eq!(
            bytes_written(&recovered),
            bytes_pre,
            "{point}: endurance counters match the last installed snapshot"
        );
        let tenants = recovered.tenants();
        assert!(
            tenants.iter().any(|(id, spec)| *id == TenantId(7) && spec.weight == 3),
            "{point}: acknowledged tenant survives the crash"
        );
        assert!(
            !tenants.iter().any(|(id, _)| *id == TenantId(8)),
            "{point}: unacknowledged tenant must not reappear"
        );
        // The recovered engine still serves correct payloads.
        for request in f.eval.requests.iter().take(20) {
            let responses = recovered.serve(request).expect("recovered engine serves");
            for (query, parts) in request.queries.iter().zip(&responses) {
                for (&id, part) in query.ids.iter().zip(parts) {
                    assert_eq!(
                        part.as_ref(),
                        f.embeddings[query.table].vector_as_bytes(id).as_slice(),
                        "{point}: table {} vector {id} corrupted",
                        query.table
                    );
                }
            }
        }
    }
}

/// Silent bit-flip corruption: a flipped bit in the WAL tail drops only
/// the corrupt suffix (acknowledged prefix survives), and a flipped bit
/// in the newest snapshot falls back rather than rehydrating garbage.
#[test]
fn bit_flips_truncate_the_wal_tail_and_fail_snapshots_safely() {
    let f = fixture(17);

    // WAL tail corruption: two live registrations, then a flip inside
    // the last record. Replay must keep tenant 21 and drop tenant 22.
    {
        let dir = temp_dir("flip-wal");
        let _cleanup = Cleanup(dir.clone());
        let _ = std::fs::remove_dir_all(&dir);
        let faults = FaultPlan::none();
        let engine = ShardedEngine::new(build_store(&f), serve_config(&dir, &faults))
            .expect("engine builds");
        engine.register_tenant(TenantId(21), TenantSpec::new(4)).expect("first registration");
        engine.register_tenant(TenantId(22), TenantSpec::new(5)).expect("second registration");
        drop(engine);

        let wal = dir.join("wal.log");
        let len = std::fs::metadata(&wal).expect("wal exists").len();
        flip_bit(&wal, len - 3, 2).expect("flip a bit in the last record");

        let recovered = ShardedEngine::recover(build_store(&f), serve_config(&dir, &faults))
            .expect("recovery heals the corrupt tail");
        let tenants = recovered.tenants();
        assert!(tenants.iter().any(|(id, _)| *id == TenantId(21)), "the intact prefix survives");
        assert!(
            !tenants.iter().any(|(id, _)| *id == TenantId(22)),
            "the corrupt record is dropped, not misread"
        );
        serve_all(&recovered, &f.eval);
    }

    // Snapshot corruption: flip a bit mid-file in the only snapshot.
    // Recovery must refuse it (CRC) and come up cold-cached but
    // serving, instead of rehydrating garbage.
    {
        let dir = temp_dir("flip-snap");
        let _cleanup = Cleanup(dir.clone());
        let _ = std::fs::remove_dir_all(&dir);
        let faults = FaultPlan::none();
        let engine = ShardedEngine::new(build_store(&f), serve_config(&dir, &faults))
            .expect("engine builds");
        serve_all(&engine, &f.eval);
        engine.snapshot_now().expect("snapshot installs");
        drop(engine);

        let snap = dir.join("snapshot-1.bin");
        let len = std::fs::metadata(&snap).expect("snapshot exists").len();
        flip_bit(&snap, len / 2, 0).expect("flip a bit mid-snapshot");

        let recovered = ShardedEngine::recover(build_store(&f), serve_config(&dir, &faults))
            .expect("recovery survives a corrupt snapshot");
        let m = recovered.metrics();
        assert_eq!(m.recovery.rehydrated_keys, 0, "a corrupt snapshot must not rehydrate anything");
        assert!(m.recovery.replayed_records > 0, "the WAL still replays");
        serve_all(&recovered, &f.eval);
    }
}

/// The net-layer restart contract: a tenant registered live over
/// `POST /tenants` is journaled, survives the restart, and a client
/// HELLO naming it on the restarted server is accepted and served.
#[test]
fn restarted_server_still_serves_a_live_registered_tenant() {
    let dir = temp_dir("net");
    let _cleanup = Cleanup(dir.clone());
    let _ = std::fs::remove_dir_all(&dir);
    let f = fixture(19);
    let faults = FaultPlan::none();

    // First life: register tenant 42 over the admin plane and serve it
    // over the wire.
    let engine = Arc::new(
        ShardedEngine::new(build_store(&f), serve_config(&dir, &faults))
            .expect("first engine builds"),
    );
    let admin = AdminServer::start(Arc::clone(&engine), "127.0.0.1:0").expect("admin starts");
    let (status, body) = bandana::serve::net::http_request(
        admin.local_addr(),
        "POST",
        "/tenants",
        Some("id=42&weight=5"),
    )
    .expect("POST /tenants");
    assert_eq!(status, 201, "registration must be acknowledged: {body}");
    let server =
        NetServer::start(Arc::clone(&engine), NetServerConfig::default()).expect("server starts");
    let client =
        NetClient::connect(server.local_addr(), TenantId(42), 8).expect("tenant 42 connects");
    let mut ticket = client.submit(&f.eval.requests[0]).expect("submit");
    assert!(ticket.wait().expect("response arrives").is_ok());
    client.close().expect("client closes");
    server.shutdown();
    admin.shutdown();
    drop(engine);

    // Second life: recover and serve the same tenant over a fresh wire.
    // No ServeConfig tenant list, no re-registration — the WAL is the
    // only place tenant 42 exists.
    let engine = Arc::new(
        ShardedEngine::recover(build_store(&f), serve_config(&dir, &faults))
            .expect("recovery succeeds"),
    );
    assert!(
        engine.tenants().iter().any(|(id, spec)| *id == TenantId(42) && spec.weight == 5),
        "live-registered tenant must be replayed from the WAL"
    );
    let server =
        NetServer::start(Arc::clone(&engine), NetServerConfig::default()).expect("server restarts");
    let client = NetClient::connect(server.local_addr(), TenantId(42), 8)
        .expect("tenant 42 connects to the restarted server");
    let mut ticket = client.submit(&f.eval.requests[1]).expect("submit after restart");
    assert!(ticket.wait().expect("response arrives").is_ok());
    client.close().expect("client closes");
    // The contrast that makes the positive case meaningful: a tenant
    // nobody ever registered is still refused at HELLO.
    assert!(
        NetClient::connect(server.local_addr(), TenantId(99), 8).is_err(),
        "unknown tenants must still be refused after restart"
    );
    server.shutdown();
}

/// Re-replay is idempotent: recovering, shutting down, and recovering
/// again (the WAL re-journals the catalog on every boot) changes
/// nothing — same tenants, same counters, same payloads.
#[test]
fn double_recovery_is_idempotent() {
    let dir = temp_dir("idempotent");
    let _cleanup = Cleanup(dir.clone());
    let _ = std::fs::remove_dir_all(&dir);
    let f = fixture(23);
    let faults = FaultPlan::none();

    let engine =
        ShardedEngine::new(build_store(&f), serve_config(&dir, &faults)).expect("engine builds");
    engine.register_tenant(TenantId(5), TenantSpec::new(2)).expect("register");
    engine.retrain(RETRAIN_TABLE, &f.embeddings[RETRAIN_TABLE]).expect("retrain");
    let bytes_pre = bytes_written(&engine);
    engine.snapshot_now().expect("snapshot");
    drop(engine);

    let first = ShardedEngine::recover(build_store(&f), serve_config(&dir, &faults))
        .expect("first recovery");
    let first_tenants = first.tenants();
    let first_rehydrated = first.metrics().recovery.rehydrated_keys;
    assert_eq!(bytes_written(&first), bytes_pre);
    drop(first);

    let second = ShardedEngine::recover(build_store(&f), serve_config(&dir, &faults))
        .expect("second recovery");
    assert_eq!(second.tenants(), first_tenants, "tenant set is stable across re-replays");
    assert_eq!(
        second.metrics().recovery.rehydrated_keys,
        first_rehydrated,
        "rehydration is stable across re-replays"
    );
    assert_eq!(bytes_written(&second), bytes_pre, "endurance is stable across re-replays");
    serve_all(&second, &f.eval);
}

/// The policy each table runs, read from a fresh snapshot of `engine`.
fn snapshotted_policies(engine: &ShardedEngine, dir: &std::path::Path) -> Vec<AdmissionPolicy> {
    engine.snapshot_now().expect("snapshot installs");
    let (_, data) = bandana::persist::load_latest(dir).unwrap().expect("a snapshot exists");
    data.tables.iter().map(|t| t.policy).collect()
}

/// A block-aware admission set survives a warm restart: the snapshot
/// records the set policy as a bare tag, and the rebuilt store solves the
/// same set from the same inputs. A journaled re-layout recovered onto a
/// table retires that table's set to its tuned threshold, since a set is
/// solved for one layout.
#[test]
fn a_snapshot_on_the_set_resumes_it_and_a_journaled_layout_retires_it() {
    let dir = temp_dir("set");
    let _cleanup = Cleanup(dir.clone());
    let _ = std::fs::remove_dir_all(&dir);
    let f = fixture(13);
    let faults = FaultPlan::none();
    let built = build_store(&f);
    let fallback = built.table(0).unwrap().fallback_policy();
    assert!(matches!(fallback, AdmissionPolicy::Threshold { .. }));
    let order = built.table(0).unwrap().layout().order().to_vec();

    let engine = ShardedEngine::new(built, serve_config(&dir, &faults)).expect("engine builds");
    serve_all(&engine, &f.eval);
    assert_eq!(snapshotted_policies(&engine, &dir), [AdmissionPolicy::Set; 2]);
    drop(engine);

    let recovered = ShardedEngine::recover(build_store(&f), serve_config(&dir, &faults))
        .expect("recovery succeeds");
    assert!(recovered.metrics().recovery.rehydrated_keys > 0);
    assert_eq!(snapshotted_policies(&recovered, &dir), [AdmissionPolicy::Set; 2]);
    drop(recovered);

    // Journal a re-layout of table 0 (two vectors in different blocks
    // swapped) into the newest snapshot, as the re-layout controller's
    // apply would have.
    let (seq, mut data) = bandana::persist::load_latest(&dir).unwrap().expect("a snapshot exists");
    let mut moved = order;
    let last = moved.len() - 1;
    moved.swap(0, last);
    data.tables[0].layout_order = moved.clone();
    bandana::persist::write_snapshot(&dir, seq + 1, &data, &faults).expect("snapshot writes");

    let relaid = ShardedEngine::recover(build_store(&f), serve_config(&dir, &faults))
        .expect("recovery succeeds");
    assert_eq!(snapshotted_policies(&relaid, &dir), [fallback, AdmissionPolicy::Set]);
    let (_, data) = bandana::persist::load_latest(&dir).unwrap().expect("a snapshot exists");
    assert_eq!(data.tables[0].layout_order, moved, "the journaled layout is in force");
    for request in f.eval.requests.iter().take(20) {
        let responses = relaid.serve(request).expect("serves after the re-layout");
        for (query, parts) in request.queries.iter().zip(&responses) {
            for (&id, part) in query.ids.iter().zip(parts) {
                assert_eq!(part.as_ref(), f.embeddings[query.table].vector_as_bytes(id).as_slice());
            }
        }
    }
}
