//! Criterion benchmarks of the work-sharing runtime: fork-join cost and
//! schedule dispatch overhead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use perfport_pool::{Schedule, ThreadPool};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn bench_fork_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("fork_join_empty_region");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    for threads in [1usize, 2, 4] {
        let pool = ThreadPool::new(threads);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &pool, |b, pool| {
            b.iter(|| {
                pool.run_region(&|tid| {
                    black_box(tid);
                })
            })
        });
    }
    group.finish();
}

fn bench_schedule_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_dispatch_10k_items");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    let pool = ThreadPool::new(4);
    let counter = AtomicU64::new(0);
    for (label, schedule) in [
        ("static_block", Schedule::StaticBlock),
        ("dynamic_1", Schedule::Dynamic { chunk: 1 }),
        ("dynamic_64", Schedule::Dynamic { chunk: 64 }),
        ("guided", Schedule::Guided { min_chunk: 1 }),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let stats = pool.parallel_for_each(10_000, schedule, |i| {
                    counter.fetch_add(i as u64, Ordering::Relaxed);
                });
                black_box(stats)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fork_join, bench_schedule_dispatch);
criterion_main!(benches);
