//! Criterion microbenchmarks of the native CPU GEMM kernels: loop-order
//! ablation, per-model variants, precisions, thread scaling, and the
//! tile-size sweep (experiment A2 support data).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use perfport_gemm::{
    gemm_flops, par_gemm, serial::gemm_blocked, serial::gemm_loop_order, tuned, CpuVariant, Layout,
    LoopOrder, Matrix, PackArena, TileShape, TunedParams,
};
use perfport_half::F16;
use perfport_pool::{Schedule, ThreadPool};
use std::hint::black_box;
use std::time::Duration;

const N: usize = 160;

fn quick(c: &mut Criterion) -> &mut Criterion {
    c
}

fn bench_loop_orders(c: &mut Criterion) {
    let a = Matrix::<f64>::random(N, N, Layout::RowMajor, 1);
    let b = Matrix::<f64>::random(N, N, Layout::RowMajor, 2);
    let mut group = quick(c).benchmark_group("loop_orders_f64_rowmajor");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    group.throughput(criterion::Throughput::Elements(gemm_flops(N, N, N)));
    for order in LoopOrder::ALL {
        group.bench_function(order.name(), |bench| {
            bench.iter(|| {
                let mut cm = Matrix::<f64>::zeros(N, N, Layout::RowMajor);
                gemm_loop_order(order, black_box(&a), black_box(&b), &mut cm);
                black_box(cm)
            })
        });
    }
    group.finish();
}

fn bench_variants(c: &mut Criterion) {
    let mut group = quick(c).benchmark_group("model_variants_serial_f64");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for v in CpuVariant::ALL {
        let layout = v.layout();
        let a = Matrix::<f64>::random(N, N, layout, 1);
        let b = Matrix::<f64>::random(N, N, layout, 2);
        group.bench_function(v.name(), |bench| {
            bench.iter(|| {
                let mut cm = Matrix::<f64>::zeros(N, N, layout);
                v.run_serial(black_box(&a), black_box(&b), &mut cm);
                black_box(cm)
            })
        });
    }
    group.finish();
}

fn bench_precisions(c: &mut Criterion) {
    let mut group = quick(c).benchmark_group("precision_serial_ikj");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));

    macro_rules! prec_case {
        ($t:ty, $label:expr) => {
            let a = Matrix::<$t>::random(N, N, Layout::RowMajor, 1);
            let b = Matrix::<$t>::random(N, N, Layout::RowMajor, 2);
            group.bench_function($label, |bench| {
                bench.iter(|| {
                    let mut cm = Matrix::<$t>::zeros(N, N, Layout::RowMajor);
                    gemm_loop_order(LoopOrder::Ikj, black_box(&a), black_box(&b), &mut cm);
                    black_box(cm)
                })
            });
        };
    }
    prec_case!(f64, "fp64");
    prec_case!(f32, "fp32");
    prec_case!(F16, "fp16_soft");
    group.finish();
}

fn bench_thread_scaling(c: &mut Criterion) {
    let n = 256;
    let a = Matrix::<f64>::random(n, n, Layout::RowMajor, 1);
    let b = Matrix::<f64>::random(n, n, Layout::RowMajor, 2);
    let mut group = quick(c).benchmark_group("thread_scaling_openmp_style");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let max = std::thread::available_parallelism().map_or(2, |p| p.get().min(8));
    let mut threads = 1;
    while threads <= max {
        let pool = ThreadPool::new(threads);
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &pool,
            |bench, pool| {
                bench.iter(|| {
                    let mut cm = Matrix::<f64>::zeros(n, n, Layout::RowMajor);
                    par_gemm(
                        pool,
                        CpuVariant::OpenMpC,
                        black_box(&a),
                        black_box(&b),
                        &mut cm,
                        Schedule::StaticBlock,
                    );
                    black_box(cm)
                })
            },
        );
        threads *= 2;
    }
    group.finish();
}

fn bench_schedules(c: &mut Criterion) {
    let n = 256;
    let a = Matrix::<f64>::random(n, n, Layout::RowMajor, 1);
    let b = Matrix::<f64>::random(n, n, Layout::RowMajor, 2);
    let threads = std::thread::available_parallelism().map_or(2, |p| p.get().min(8));
    let pool = ThreadPool::new(threads);
    let mut group = quick(c).benchmark_group("schedule_ablation");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for (label, schedule) in [
        ("static_block", Schedule::StaticBlock),
        ("static_chunk4", Schedule::StaticChunked { chunk: 4 }),
        ("dynamic_chunk4", Schedule::Dynamic { chunk: 4 }),
        ("guided", Schedule::Guided { min_chunk: 2 }),
    ] {
        group.bench_function(label, |bench| {
            bench.iter(|| {
                let mut cm = Matrix::<f64>::zeros(n, n, Layout::RowMajor);
                par_gemm(
                    &pool,
                    CpuVariant::OpenMpC,
                    black_box(&a),
                    black_box(&b),
                    &mut cm,
                    schedule,
                );
                black_box(cm)
            })
        });
    }
    group.finish();
}

fn bench_tiles(c: &mut Criterion) {
    let a = Matrix::<f64>::random(N, N, Layout::RowMajor, 1);
    let b = Matrix::<f64>::random(N, N, Layout::RowMajor, 2);
    let mut group = quick(c).benchmark_group("tile_sweep_blocked_gemm");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for tile in [8usize, 16, 32, 64, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(tile), &tile, |bench, &tile| {
            bench.iter(|| {
                let mut cm = Matrix::<f64>::zeros(N, N, Layout::RowMajor);
                gemm_blocked(black_box(&a), black_box(&b), &mut cm, tile);
                black_box(cm)
            })
        });
    }
    group.finish();
}

fn bench_tuned(c: &mut Criterion) {
    let n = 256;
    let mut group = quick(c).benchmark_group("tuned_vendor_kernel");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    group.throughput(criterion::Throughput::Elements(gemm_flops(n, n, n)));

    let a = Matrix::<f64>::random(n, n, Layout::RowMajor, 1);
    let b = Matrix::<f64>::random(n, n, Layout::RowMajor, 2);
    // Serial packed kernel per register-tile shape (the A4 sweep).
    for tile in TileShape::ALL {
        let params = TunedParams::with_tile(
            perfport_pool::CacheInfo::host(),
            tile,
            std::mem::size_of::<f64>(),
        );
        let mut arena = PackArena::new();
        group.bench_function(format!("serial_{}", tile.name()), |bench| {
            bench.iter(|| {
                let mut cm = Matrix::<f64>::zeros(n, n, Layout::RowMajor);
                tuned::gemm_serial(black_box(&a), black_box(&b), &mut cm, &params, &mut arena);
                black_box(cm)
            })
        });
    }
    // FP16 on the dispatched tile: the widened path, whose f16 ↔ f32
    // conversions follow the same ISA verdict as the microkernel.
    let a16 = Matrix::<F16>::random(n, n, Layout::RowMajor, 1);
    let b16 = Matrix::<F16>::random(n, n, Layout::RowMajor, 2);
    let params16 = TunedParams::host::<F16>();
    let mut arena16 = PackArena::new();
    group.bench_function("serial_f16_auto_tile", |bench| {
        bench.iter(|| {
            let mut cm = Matrix::<F16>::zeros(n, n, Layout::RowMajor);
            tuned::gemm_serial(
                black_box(&a16),
                black_box(&b16),
                &mut cm,
                &params16,
                &mut arena16,
            );
            black_box(cm)
        })
    });
    // Parallel tuned vs the fastest naive variant, same pool.
    let threads = std::thread::available_parallelism().map_or(2, |p| p.get().min(8));
    let pool = ThreadPool::new(threads);
    let params = TunedParams::host::<f64>();
    group.bench_function("parallel_auto_tile", |bench| {
        bench.iter(|| {
            let mut cm = Matrix::<f64>::zeros(n, n, Layout::RowMajor);
            tuned::gemm(&pool, black_box(&a), black_box(&b), &mut cm, &params);
            black_box(cm)
        })
    });
    group.bench_function("parallel_naive_openmp", |bench| {
        bench.iter(|| {
            let mut cm = Matrix::<f64>::zeros(n, n, Layout::RowMajor);
            par_gemm(
                &pool,
                CpuVariant::OpenMpC,
                black_box(&a),
                black_box(&b),
                &mut cm,
                Schedule::StaticBlock,
            );
            black_box(cm)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_loop_orders,
    bench_variants,
    bench_precisions,
    bench_thread_scaling,
    bench_schedules,
    bench_tiles,
    bench_tuned
);
criterion_main!(benches);
