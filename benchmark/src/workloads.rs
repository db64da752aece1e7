//! The four workloads: their inputs (made from the seed and nothing else),
//! their stores and their engine configurations.

use bandana::prelude::*;
use bandana::serve::{CacheBudgetSettings, OnlineTunerSettings, ReLayoutSettings};
use bandana::trace::{TableSpec, ZipfDriftConfig, ZipfDriftGenerator};
use std::path::Path;
use std::time::Duration;

/// Shard workers. The reference host has two cores; the harness refuses to
/// report on fewer.
pub const SHARDS: usize = 2;
/// Requests served before measurement starts, every payload checked.
pub const WARMUP_REQUESTS: usize = 2_000;
/// Tickets the closed-loop generator keeps in flight.
pub const CLOSED_LOOP_IN_FLIGHT: usize = 2;
/// Pipelining cap of the wire connection. Half the lane capacity, so a host
/// stall backs up into TCP flow control (and shows as latency) before a lane
/// can fill and shed.
pub const WIRE_IN_FLIGHT: u32 = 128;
/// The open loop's fixed arrival rate: about half of `nvm_bound`'s
/// closed-loop throughput at the commit that defined the benchmark. A
/// constant, never re-derived from a run. Busy enough that requests queue
/// behind arrivals, idle enough that a 10 % sag of the host does not become
/// a 35 % rise in latency, as it did at 800.
pub const OPEN_LOOP_RPS: f64 = 600.0;
/// The tenant `drift_control` registers on the live engine mid-run.
pub const LIVE_TENANT: TenantId = TenantId(7);

/// `ModelSpec::paper_scaled` divisor: 8 tables, 27 500 vectors of 128 B.
const PAPER_SCALE: u32 = 4_000;
const PAPER_TRAINING_REQUESTS: usize = 1_500;
/// Distinct evaluation requests; the loops cycle through them. 12 000
/// requests are 4 M lookups, three orders above the `nvm_bound` cache, so a
/// wrap-around never turns into cache hits.
const PAPER_POOL_REQUESTS: usize = 12_000;
/// 3.6 % of the vectors, the paper's 4 M of 110 M.
const NVM_BOUND_CACHE_VECTORS: usize = 1_000;
/// Twice the vectors there are. Split by lookup share it makes six of the
/// eight tables fully resident, ~98 % of lookups hit DRAM, and ~8 block reads
/// per request remain.
const DRAM_RESIDENT_CACHE_VECTORS: usize = 60_000;

const DRIFT_TABLES: usize = 4;
const DRIFT_VECTORS_PER_TABLE: u32 = 8_192;
/// 64 × f32 = 256 B, 16 vectors per 4 KB block: one packed co-access group
/// is one block.
const DRIFT_DIM: usize = 64;
const DRIFT_GROUP_SIZE: usize = 16;
const DRIFT_DRAWS_PER_REQUEST: usize = 6;
const DRIFT_EXPONENT: f64 = 1.1;
const DRIFT_ROTATE_FRACTION: f64 = 0.25;
const DRIFT_REQUESTS_PER_EPOCH: usize = 3_000;
const DRIFT_EPOCHS: usize = 16;
/// SHP sees only this prefix of epoch 0, so most of the layout is left for
/// the online controllers to repair.
const DRIFT_TRAINING_REQUESTS: usize = 300;
/// 5 % of the vectors.
const DRIFT_CACHE_VECTORS: usize = 1_638;

/// A workload of the benchmark. Names are final: issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    NvmBound,
    DramResident,
    WireOpen,
    DriftControl,
}

impl Kind {
    pub const ALL: [Kind; 4] =
        [Kind::NvmBound, Kind::DramResident, Kind::WireOpen, Kind::DriftControl];

    pub fn name(self) -> &'static str {
        match self {
            Kind::NvmBound => "nvm_bound",
            Kind::DramResident => "dram_resident",
            Kind::WireOpen => "wire_open",
            Kind::DriftControl => "drift_control",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Served over `NetServer`/`NetClient` in an open loop.
    pub fn wire(self) -> bool {
        self == Kind::WireOpen
    }

    /// Runs the three online controllers and persistence.
    pub fn controlled(self) -> bool {
        self == Kind::DriftControl
    }
}

/// Everything a run needs that depends only on `(kind, seed)`.
pub struct Inputs {
    pub spec: ModelSpec,
    pub embeddings: Vec<EmbeddingTable>,
    pub training: Trace,
    /// Evaluation requests, replayed in order and cycled when exhausted.
    pub pool: Vec<Request>,
}

/// Generates the workload's inputs. `pool_requests` overrides the pool
/// length (the self-tests use a short one); `None` is the benchmark's.
pub fn generate(kind: Kind, seed: u64, pool_requests: Option<usize>) -> Inputs {
    if kind.controlled() {
        return generate_drift(
            seed,
            pool_requests.unwrap_or(DRIFT_REQUESTS_PER_EPOCH * DRIFT_EPOCHS),
        );
    }
    let spec = ModelSpec::paper_scaled(PAPER_SCALE);
    let mut generator = TraceGenerator::new(&spec, seed);
    let training = generator.generate_requests(PAPER_TRAINING_REQUESTS);
    let embeddings = synthesize(&spec, &generator);
    let pool = generator.generate_requests(pool_requests.unwrap_or(PAPER_POOL_REQUESTS)).requests;
    Inputs { spec, embeddings, training, pool }
}

fn synthesize(spec: &ModelSpec, topics: &TraceGenerator) -> Vec<EmbeddingTable> {
    (0..spec.num_tables())
        .map(|t| {
            EmbeddingTable::synthesize(
                spec.tables[t].num_vectors,
                spec.dim,
                topics.topic_model(t),
                t as u64,
            )
        })
        .collect()
}

fn generate_drift(seed: u64, pool_requests: usize) -> Inputs {
    let table = TableSpec {
        lookup_share: 1.0 / DRIFT_TABLES as f64,
        ..TableSpec::test_small(DRIFT_VECTORS_PER_TABLE)
    };
    let spec = ModelSpec { tables: vec![table; DRIFT_TABLES], dim: DRIFT_DIM, element_bytes: 4 };
    let embeddings = synthesize(&spec, &TraceGenerator::new(&spec, seed));
    let config = ZipfDriftConfig {
        group_size: DRIFT_GROUP_SIZE,
        exponent: DRIFT_EXPONENT,
        // The generator counts raw draws and a request merges several.
        requests_per_epoch: DRIFT_REQUESTS_PER_EPOCH * DRIFT_DRAWS_PER_REQUEST,
        rotate_fraction: DRIFT_ROTATE_FRACTION,
    };
    // Training is the head of the very stream that is then served: a fresh
    // generator with the same seed replays it.
    let mut generator = ZipfDriftGenerator::new(&spec, seed, config);
    let training = Trace::new(
        DRIFT_TABLES,
        (0..DRIFT_TRAINING_REQUESTS).map(|_| merged_request(&mut generator)).collect(),
    );
    let mut generator = ZipfDriftGenerator::new(&spec, seed, config);
    let pool = (0..pool_requests).map(|_| merged_request(&mut generator)).collect();
    Inputs { spec, embeddings, training, pool }
}

/// Merges [`DRIFT_DRAWS_PER_REQUEST`] generator draws into one request: per
/// table, the concatenation of the drawn groups' ids.
fn merged_request(generator: &mut ZipfDriftGenerator) -> Request {
    let mut ids: Vec<Vec<u32>> = vec![Vec::new(); DRIFT_TABLES];
    for _ in 0..DRIFT_DRAWS_PER_REQUEST {
        for q in generator.generate_request().queries {
            ids[q.table].extend_from_slice(&q.ids);
        }
    }
    Request {
        queries: ids.into_iter().enumerate().map(|(t, ids)| TableQuery::new(t, ids)).collect(),
    }
}

/// How many measured requests a closed loop's engine counters are read over
/// (a run too slow to complete them in its span is refused): for the paper
/// mix most of one pass over the pool, for the drifting one six hot-set
/// rotations. Half-way there `drift_control` registers its live tenant.
pub fn counted_requests(kind: Kind) -> usize {
    if kind.controlled() {
        6 * DRIFT_REQUESTS_PER_EPOCH
    } else {
        10_000
    }
}

/// The open loop's due times in seconds from the start of measurement.
pub fn schedule(seed: u64, seconds: f64) -> Vec<f64> {
    let n = (OPEN_LOOP_RPS * seconds) as usize;
    ArrivalProcess::Poisson { rate_rps: OPEN_LOOP_RPS }.schedule(n, seed)
}

pub fn store_config(kind: Kind, seed: u64) -> BandanaConfig {
    let cache = match kind {
        Kind::NvmBound | Kind::WireOpen => NVM_BOUND_CACHE_VECTORS,
        Kind::DramResident => DRAM_RESIDENT_CACHE_VECTORS,
        Kind::DriftControl => DRIFT_CACHE_VECTORS,
    };
    let mut config = BandanaConfig::default().with_cache_vectors(cache).with_seed(seed);
    // Divided by hit-rate curves, which tables end up short of full residency
    // depends on the seed, and reads per request with them (7 to 9 over ten
    // seeds). Divided by lookup share it is always the near-uniform table 8
    // and its two large neighbours: a steady floor of capacity misses.
    config.allocate_by_hit_rate_curves = kind != Kind::DramResident;
    config
}

/// The engine configuration. `controllers` switches `drift_control`'s
/// online controllers (its controllers-off arm passes `false`); `recorder`
/// switches the engine's flight recorder, at 1 request in 64; `persist_dir`
/// is where a controlled workload keeps its WAL and snapshots.
pub fn serve_config(
    kind: Kind,
    seed: u64,
    controllers: bool,
    recorder: bool,
    persist_dir: Option<&Path>,
) -> ServeConfig {
    let mut config = ServeConfig::default()
        .with_shards(SHARDS)
        .with_batch_window(Duration::from_micros(200))
        .with_max_batch(16)
        .with_device_queue(4)
        .with_queue_capacity(256)
        .with_shed_policy(ShedPolicy::DropNewest);
    if recorder {
        config = config.with_trace(TraceConfig::sampled(64));
    }
    if kind.controlled() && controllers {
        config = config
            .with_tuner(OnlineTunerSettings {
                sample_every: 16,
                salt: seed,
                ..OnlineTunerSettings::default()
            })
            .with_cache_budget(CacheBudgetSettings {
                sample_every: 16,
                ..CacheBudgetSettings::default()
            })
            // Co-prime with the four parts a request splits into, so the
            // sampling stride visits every table.
            .with_relayout(ReLayoutSettings {
                sample_every: 3,
                seed,
                ..ReLayoutSettings::default()
            });
    }
    if let Some(dir) = persist_dir {
        config = config.with_persist(PersistConfig::new(dir).with_snapshot_every_ticks(100));
    }
    config
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_another_seed_does_not() {
        for kind in [Kind::NvmBound, Kind::DriftControl] {
            let a = generate(kind, 7, Some(64));
            let b = generate(kind, 7, Some(64));
            let c = generate(kind, 8, Some(64));
            assert_eq!(a.pool, b.pool, "{kind:?}: same seed, same pool");
            assert_eq!(a.training, b.training, "{kind:?}: same seed, same training trace");
            assert_eq!(a.embeddings[0].data(), b.embeddings[0].data());
            assert_ne!(a.pool, c.pool, "{kind:?}: another seed, another pool");
        }
        assert_eq!(schedule(7, 2.0), schedule(7, 2.0));
        assert_ne!(schedule(7, 2.0), schedule(8, 2.0));
    }

    #[test]
    fn the_schedule_is_ascending_at_the_fixed_rate() {
        let due = schedule(7, 10.0);
        assert_eq!(due.len(), (OPEN_LOOP_RPS * 10.0) as usize);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        let last = *due.last().unwrap();
        assert!((9.0..11.0).contains(&last), "ten seconds of arrivals span ~10 s, got {last}");
    }

    #[test]
    fn names_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(Kind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(Kind::from_name("nope"), None);
    }
}
