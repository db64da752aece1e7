//! Per-layer probes: the harness times direct calls into each crate's
//! public functions on the workload's own inputs. Run once, after the
//! traced arm, on objects of their own, so they never disturb a measured
//! phase.

use crate::spans::Tracer;
use crate::sys;
use crate::workloads::{self, Inputs, Kind};
use bandana::cache::{CurveSampler, SegmentedLru};
use bandana::core::BatchScratch;
use bandana::partition::{
    average_fanout, refine, social_hash_partition, BlockLayout, RefineConfig, ShpConfig,
};
use bandana::persist::snapshot::{encode, load_latest, write_snapshot};
use bandana::persist::{FaultPlan, Wal, WalRecord};
use bandana::prelude::*;
use bandana::serve::net::frame::{opcode, Frame, FRAME_HEADER_LEN};
use bytes::Bytes;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Per-layer metric values by name.
pub type Values = Vec<(&'static str, f64)>;

/// Pool requests the fan-out figure and the lookup replay read.
const REPLAY_REQUESTS: usize = 3_000;
/// Of those, how many warm the scratch, pool and cache before timing.
const REPLAY_WARMUP: usize = 1_000;
/// Requests whose co-access feeds the refinement probe, and the hot blocks
/// it may move — the re-layout controller's default working set.
const REFINE_REQUESTS: usize = 512;
const REFINE_HOT_BLOCKS: usize = 32;
/// Iterations of each micro-probe.
const MICRO_ITERATIONS: usize = 200_000;
const FRAME_ITERATIONS: usize = 2_000;
const WAL_APPENDS: usize = 1_000;

fn queries_of(pool: &[Request], table: usize) -> impl Iterator<Item = &[u32]> + Clone {
    pool.iter().filter_map(move |r| r.query_for(table)).map(|q| q.ids.as_slice())
}

/// Nanoseconds per iteration of `f` over `n` iterations.
fn ns_per<T>(n: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    let started = Instant::now();
    for i in 0..n {
        black_box(f(i));
    }
    started.elapsed().as_secs_f64() * 1e9 / n as f64
}

/// Runs every probe the workload has a layer for. `persist_dir` is the
/// finished run's WAL-and-snapshot directory (controlled workloads only);
/// `scratch_dir` is an empty directory the persist probes may write in.
pub fn run(
    kind: Kind,
    seed: u64,
    inputs: &Inputs,
    tracer: &mut Tracer,
    persist_dir: Option<&Path>,
    scratch_dir: &Path,
) -> Values {
    let mut out = Values::new();
    let replay = &inputs.pool[..REPLAY_REQUESTS.min(inputs.pool.len())];
    let config = workloads::store_config(kind, seed);
    let vectors_per_block = config.vectors_per_block(inputs.spec.vector_bytes());

    // partition: the placement solve BandanaStore::build runs per table.
    let ((), shp_s) = tracer.time("partition.shp", None, || {
        for (t, table) in inputs.spec.tables.iter().enumerate() {
            let shp = ShpConfig {
                block_capacity: vectors_per_block,
                iterations: 16,
                seed: seed.wrapping_add(t as u64),
                parallel_depth: 3,
            };
            black_box(social_hash_partition(
                table.num_vectors,
                inputs.training.table_queries(t),
                &shp,
            ));
        }
    });
    out.push(("partition.shp_s", shp_s));

    let store = BandanaStore::build(&inputs.spec, &inputs.embeddings, &inputs.training, config)
        .expect("the probe store builds");
    let cache_total = store.config().cache_vectors_total;
    let mut parts = store.into_raw_parts();

    let (mut fanout, mut queries) = (0.0, 0usize);
    for (t, table) in parts.tables.iter().enumerate() {
        let n = queries_of(replay, t).count();
        fanout += average_fanout(table.layout(), queries_of(replay, t)) * n as f64;
        queries += n;
    }
    out.push(("partition.fanout_blocks_per_query", fanout / queries as f64));

    // core: the lookup path on warmed raw parts, one thread, every query of
    // the replay through lookup_batch_with.
    let mut scratch = BatchScratch::new();
    let mut pool = BlockBufPool::for_cache(cache_total);
    let mut replay_lookups = |requests: &[Request]| -> usize {
        let mut lookups = 0;
        for request in requests {
            for query in &request.queries {
                parts.tables[query.table]
                    .lookup_batch_with(&mut parts.device, &query.ids, &mut scratch, &mut pool)
                    .expect("replayed ids are in range");
                lookups += query.ids.len();
            }
        }
        lookups
    };
    let (warm, timed) = replay.split_at(REPLAY_WARMUP.min(replay.len() / 2));
    replay_lookups(warm);
    sys::count_allocations(true);
    // The engine and its threads are gone by now: every allocation in the
    // process is this thread's.
    let allocs_before = sys::allocations();
    let (lookups, lookup_s) = tracer.time("core.lookup_replay", None, || replay_lookups(timed));
    let allocs = sys::allocations() - allocs_before;
    sys::count_allocations(false);
    out.push(("core.lookup_ns_per_lookup", lookup_s * 1e9 / lookups as f64));
    out.push(("core.allocs_per_lookup", allocs as f64 / lookups as f64));

    // nvm-sim: one pooled block read.
    let blocks = parts.device.capacity_blocks();
    let block_size = parts.device.block_size();
    let read_ns = ns_per(MICRO_ITERATIONS, |i| {
        let mut buf = pool.acquire(block_size);
        parts
            .device
            .read_block_into(i as u64 * 7919 % blocks, buf.as_mut_slice())
            .expect("the block is in range");
        buf.freeze(&mut pool)
    });
    out.push(("nvm_sim.read_block_ns", read_ns));

    // partition + core: refine the busiest table's hottest blocks against
    // recent co-access, then realize the refinement on the device.
    let busiest = (0..parts.tables.len())
        .max_by_key(|&t| queries_of(replay, t).map(<[u32]>::len).sum::<usize>())
        .expect("the store has tables");
    let recent = &replay[..REFINE_REQUESTS.min(replay.len())];
    let layout = parts.tables[busiest].layout().clone();
    let mut heat = vec![0u32; layout.num_blocks() as usize];
    for ids in queries_of(recent, busiest) {
        for &v in ids {
            heat[layout.block_of(v) as usize] += 1;
        }
    }
    let mut hot: Vec<u32> = (0..layout.num_blocks()).collect();
    hot.sort_by_key(|&b| std::cmp::Reverse(heat[b as usize]));
    hot.truncate(REFINE_HOT_BLOCKS);
    let refine_config = RefineConfig { seed, ..RefineConfig::default() };
    let (refinement, refine_s) = tracer.time("partition.refine", None, || {
        refine(&layout, &hot, queries_of(recent, busiest), &refine_config)
    });
    out.push(("partition.refine_ms", refine_s * 1e3));
    let refined = BlockLayout::from_order(refinement.order, vectors_per_block);
    let (rewritten, apply_s) = tracer.time("core.apply_layout", None, || {
        parts.tables[busiest]
            .apply_layout(&mut parts.device, refined)
            .expect("the simulated device takes the rewrite")
    });
    out.push(("core.apply_layout_ms", apply_s * 1e3));
    out.push(("core.apply_layout_blocks", rewritten as f64));

    // cache: the segmented LRU at the busiest table's capacity, fed that
    // table's own id stream.
    let capacity = parts.tables[busiest].cache_capacity();
    let stream: Vec<u32> = queries_of(replay, busiest).flatten().copied().collect();
    let payload = Bytes::from(vec![0u8; inputs.spec.vector_bytes()]);
    let mut lru: SegmentedLru<Bytes> = SegmentedLru::new(capacity, 16.min(capacity));
    for &v in stream.iter().take(capacity) {
        lru.insert(u64::from(v), payload.clone(), 0.0);
    }
    let probe_ns =
        ns_per(MICRO_ITERATIONS, |i| lru.get(u64::from(stream[i % stream.len()])).is_some());
    out.push(("cache.probe_ns", probe_ns));
    // Fresh keys above every vector id: each insert into the full cache
    // evicts.
    let insert_ns =
        ns_per(MICRO_ITERATIONS, |i| lru.insert((1u64 << 32) + i as u64, payload.clone(), 0.0));
    out.push(("cache.insert_evict_ns", insert_ns));
    let ((), resize_s) = tracer.time("cache.resize", None, || {
        black_box(lru.set_capacity(capacity - capacity / 10));
        black_box(lru.set_capacity(capacity));
    });
    out.push(("cache.resize_ms", resize_s * 1e3));
    let mut sampler = CurveSampler::new(cache_total, 8, 1.0, seed);
    let observe_ns = ns_per(MICRO_ITERATIONS, |i| sampler.observe(stream[i % stream.len()]));
    out.push(("cache.curve_observe_ns", observe_ns));

    if kind.wire() {
        out.extend(frame_probe(inputs));
    }
    if let Some(dir) = persist_dir {
        out.extend(persist_probe(dir, scratch_dir, tracer));
    }
    out
}

/// serve::net: the frame codec on one request and one response of the
/// workload's shape, and the bytes a request moves each way. The payloads
/// are laid out as docs/PROTOCOL.md specifies (the crate's own payload
/// encoders are private).
fn frame_probe(inputs: &Inputs) -> Values {
    let vector_bytes = inputs.spec.vector_bytes();
    let lookup_payload = |request: &Request| {
        let mut p = vec![0u8];
        p.extend_from_slice(&0u64.to_le_bytes());
        p.extend_from_slice(&(request.queries.len() as u16).to_le_bytes());
        for q in &request.queries {
            p.extend_from_slice(&(q.table as u32).to_le_bytes());
            p.extend_from_slice(&(q.ids.len() as u32).to_le_bytes());
            q.ids.iter().for_each(|id| p.extend_from_slice(&id.to_le_bytes()));
        }
        p
    };
    let response_payload = |request: &Request| {
        let mut p = (request.queries.len() as u16).to_le_bytes().to_vec();
        for q in &request.queries {
            p.extend_from_slice(&(q.ids.len() as u32).to_le_bytes());
            for _ in &q.ids {
                p.extend_from_slice(&(vector_bytes as u32).to_le_bytes());
                p.resize(p.len() + vector_bytes, 0);
            }
        }
        p
    };
    let frames = [
        Frame::new(opcode::LOOKUP, 1, lookup_payload(&inputs.pool[0])),
        Frame::new(opcode::RESPONSE, 1, response_payload(&inputs.pool[0])),
    ];
    let mut wire = Vec::new();
    let encode_ns = ns_per(FRAME_ITERATIONS, |_| {
        wire.clear();
        frames.iter().for_each(|f| f.write_to(&mut wire).expect("a Vec takes every write"));
    });
    let decode_ns = ns_per(FRAME_ITERATIONS, |_| {
        let mut cursor = &wire[..];
        [0, 1].map(|_| Frame::read_from(&mut cursor).expect("the frame was just written"))
    });
    let sample = &inputs.pool[..256.min(inputs.pool.len())];
    // On the wire a frame is its u32 length prefix, its header, its payload.
    let framing = 2 * (4 + FRAME_HEADER_LEN as usize);
    let bytes: usize =
        sample.iter().map(|r| framing + lookup_payload(r).len() + response_payload(r).len()).sum();
    vec![
        ("serve_net.frame_encode_ns", encode_ns),
        ("serve_net.frame_decode_ns", decode_ns),
        ("serve_net.bytes_per_request", bytes as f64 / sample.len() as f64),
    ]
}

/// persist: WAL appends and one fsync, and the run's own newest snapshot
/// encoded and installed again.
fn persist_probe(run_dir: &Path, scratch_dir: &Path, tracer: &mut Tracer) -> Values {
    let (_, snapshot) = load_latest(run_dir)
        .expect("the run's persist directory is readable")
        .expect("the run installed a snapshot");
    let (bytes, encode_s) =
        tracer.time("persist.snapshot_encode", None, || encode(&snapshot).expect("it encodes"));
    let ((), write_s) = tracer.time("persist.snapshot_write", None, || {
        write_snapshot(scratch_dir, 1, &snapshot, &FaultPlan::none()).expect("it installs");
    });
    // `usize::MAX`: no fsync inside the timed appends; the one sync after
    // them is timed on its own.
    let mut wal = Wal::open(&scratch_dir.join("wal.log"), usize::MAX, FaultPlan::none())
        .expect("the probe WAL opens");
    let record =
        WalRecord::TenantRegistered { id: 1, weight: 1, class: 1, quota: -1, slo_p99_ms: -1 };
    let append_ns = ns_per(WAL_APPENDS, |_| wal.append(&record).expect("the append lands"));
    let ((), sync_s) = tracer.time("persist.wal_sync", None, || wal.sync().expect("it syncs"));
    vec![
        ("persist.snapshot_encode_ms", encode_s * 1e3),
        ("persist.snapshot_write_ms", write_s * 1e3),
        ("persist.snapshot_bytes", bytes.len() as f64),
        ("persist.wal_append_us", append_ns / 1e3),
        ("persist.wal_sync_ms", sync_s * 1e3),
    ]
}
