//! Microbenchmarks for the extension modules: eviction policies and MRC
//! estimators.

use bandana_cache::{AdmissionPolicy, PolicyKind, PolicySim};
use bandana_partition::{AccessFrequency, BlockLayout};
use bandana_trace::{AetModel, Shards, StackDistances};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn stream(n: u32, len: usize) -> Vec<u32> {
    let mut x = 88172645463325252u64;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let f = (x >> 11) as f64 / (1u64 << 53) as f64;
            ((f * f) * n as f64) as u32 % n
        })
        .collect()
}

/// Lookup throughput of every eviction policy on the same skewed stream.
fn bench_eviction_policies(c: &mut Criterion) {
    let n = 20_000u32;
    let keys = stream(n, 100_000);
    let layout = BlockLayout::random(n, 32, 1);
    let freq = AccessFrequency::zeros(n);
    let mut group = c.benchmark_group("eviction_policies");
    group.throughput(Throughput::Elements(keys.len() as u64));
    for kind in PolicyKind::ALL {
        group.bench_with_input(BenchmarkId::new("lookup", kind.name()), &kind, |b, &kind| {
            b.iter(|| {
                let mut sim = PolicySim::new(
                    &layout,
                    2048,
                    AdmissionPolicy::Threshold { t: 2 },
                    freq.clone(),
                    kind,
                );
                for &v in &keys {
                    sim.lookup(v);
                }
                sim.metrics().hits
            });
        });
    }
    group.finish();
}

/// Cost of building an MRC: exact stack distances vs SHARDS vs AET.
fn bench_mrc_estimators(c: &mut Criterion) {
    let keys: Vec<u64> = stream(50_000, 200_000).into_iter().map(u64::from).collect();
    let mut group = c.benchmark_group("mrc_estimators");
    group.throughput(Throughput::Elements(keys.len() as u64));
    group.bench_function("exact_mattson", |b| {
        b.iter(|| {
            let mut sd = StackDistances::with_capacity(keys.len());
            sd.access_all(keys.iter().copied());
            sd.hit_rate_at(4096)
        });
    });
    for rate in [0.1f64, 0.01] {
        group.bench_with_input(
            BenchmarkId::new("shards", format!("{}%", rate * 100.0)),
            &rate,
            |b, &rate| {
                b.iter(|| {
                    let mut s = Shards::new(rate, 7);
                    s.access_all(keys.iter().copied());
                    s.hit_rate_at(4096)
                });
            },
        );
    }
    group.bench_function("shards_max_1k", |b| {
        b.iter(|| {
            let mut s = Shards::fixed_size(1024, 7);
            s.access_all(keys.iter().copied());
            s.hit_rate_at(4096)
        });
    });
    group.bench_function("aet", |b| {
        b.iter(|| {
            let mut a = AetModel::new();
            a.access_all(keys.iter().copied());
            a.miss_rate_at(4096)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_eviction_policies, bench_mrc_estimators);
criterion_main!(benches);
