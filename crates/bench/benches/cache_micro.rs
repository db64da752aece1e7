//! Microbenchmarks of the caching data path: segmented LRU operations, the
//! prefetch simulator, stack distances, and miniature-cache overhead (the
//! paper's claim that tuning is lightweight, §4.3.3).

use bandana_cache::{AdmissionPolicy, MiniatureCacheSet, PrefetchCacheSim, SegmentedLru};
use bandana_partition::{AccessFrequency, BlockLayout};
use bandana_trace::StackDistances;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn stream(n: u32, len: usize) -> Vec<u32> {
    let mut x = 88172645463325252u64;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Mild skew: square the fraction so low ids are hotter.
            let f = (x >> 11) as f64 / (1u64 << 53) as f64;
            ((f * f) * n as f64) as u32 % n
        })
        .collect()
}

fn bench_lru(c: &mut Criterion) {
    let keys = stream(10_000, 100_000);
    let mut group = c.benchmark_group("lru_ops");
    group.throughput(Throughput::Elements(keys.len() as u64));
    for segments in [1usize, 16] {
        group.bench_with_input(
            BenchmarkId::new("insert_get", segments),
            &segments,
            |b, &segments| {
                b.iter(|| {
                    let mut lru = SegmentedLru::new(4096, segments);
                    for &k in &keys {
                        if lru.get(k as u64).is_none() {
                            lru.insert(k as u64, (), 0.0);
                        }
                    }
                    lru.len()
                });
            },
        );
    }
    group.finish();
}

fn bench_prefetch_sim(c: &mut Criterion) {
    let n = 20_000u32;
    let keys = stream(n, 100_000);
    let layout = BlockLayout::random(n, 32, 1);
    let freq = AccessFrequency::zeros(n);
    let mut group = c.benchmark_group("prefetch_sim");
    group.throughput(Throughput::Elements(keys.len() as u64));
    for (name, policy) in [
        ("baseline", AdmissionPolicy::None),
        ("prefetch_all", AdmissionPolicy::All { position: 0.0 }),
        // Inserts mid-queue, so it runs on the 16-segment queue.
        ("prefetch_all_mid", AdmissionPolicy::All { position: 0.5 }),
        ("threshold", AdmissionPolicy::Threshold { t: 5 }),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut sim = PrefetchCacheSim::new(&layout, 2_000, policy, freq.clone());
                for &v in &keys {
                    sim.lookup(v);
                }
                sim.metrics().hits
            });
        });
    }
    group.finish();
}

fn bench_stack_distances(c: &mut Criterion) {
    let keys = stream(50_000, 200_000);
    let mut group = c.benchmark_group("stack_distances");
    group.throughput(Throughput::Elements(keys.len() as u64));
    group.bench_function("fenwick", |b| {
        b.iter(|| {
            let mut sd = StackDistances::with_capacity(keys.len());
            sd.access_all(keys.iter().map(|&k| k as u64));
            sd.compulsory_misses()
        });
    });
    group.finish();
}

fn bench_mini_cache_overhead(c: &mut Criterion) {
    // The paper's point: a 0.1%-sampled miniature cache set adds negligible
    // work per lookup compared to serving the lookup itself.
    let n = 20_000u32;
    let keys = stream(n, 100_000);
    let layout = BlockLayout::random(n, 32, 2);
    let freq = AccessFrequency::zeros(n);
    let mut group = c.benchmark_group("mini_cache_observe");
    group.throughput(Throughput::Elements(keys.len() as u64));
    for rate in [0.1f64, 0.01] {
        group.bench_with_input(BenchmarkId::from_parameter(rate), &rate, |b, &rate| {
            b.iter(|| {
                let mut minis =
                    MiniatureCacheSet::new(&layout, &freq, 2_000, rate, &[5, 10, 15, 20], 1);
                for &v in &keys {
                    minis.observe(v);
                }
                minis.best_threshold()
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_lru, bench_prefetch_sim, bench_stack_distances, bench_mini_cache_overhead
}
criterion_main!(benches);
