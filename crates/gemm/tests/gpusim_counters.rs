//! The gpusim counter contract: the four launches of the benchmark's
//! `gpusim` workload (FP64, n = 96) must report exactly these
//! `LaunchStats`. Every field except the host wall time `sim_time` is
//! pinned, so a change to the simulator's engine that moves any counter
//! fails here. Access patterns do not depend on operand values, so the
//! seeds below do not affect the counts.

use perfport_gemm::{gpu_gemm, gpu_gemm_tiled, GpuVariant, Layout, Matrix};
use perfport_gpusim::{DeviceClass, Dim3, Gpu, LaunchStats};
use std::time::Duration;

const N: usize = 96;

fn operands() -> (Matrix<f64>, Matrix<f64>) {
    (
        Matrix::random(N, N, Layout::RowMajor, 1),
        Matrix::random(N, N, Layout::RowMajor, 2),
    )
}

fn naive(class: DeviceClass, variant: GpuVariant) -> LaunchStats {
    let (a, b) = operands();
    let gpu = Gpu::new(class);
    gpu_gemm(&gpu, variant, &a, &b, Dim3::d2(32, 32)).unwrap().1
}

fn tiled(class: DeviceClass) -> LaunchStats {
    let (a, b) = operands();
    let gpu = Gpu::new(class);
    gpu_gemm_tiled(&gpu, &a, &b).unwrap().1
}

/// Asserts every field of `got` except `sim_time`, the host wall time.
fn check(got: LaunchStats, expected: LaunchStats) {
    let got = LaunchStats {
        sim_time: Duration::ZERO,
        ..got
    };
    assert_eq!(got, expected);
}

#[test]
fn nvidia_naive() {
    check(
        naive(DeviceClass::NvidiaLike, GpuVariant::Cuda),
        LaunchStats {
            blocks: 9,
            warps: 288,
            threads: 9216,
            flops: 1769472,
            loads: 1769472,
            stores: 9216,
            load_transactions: 82944,
            store_transactions: 576,
            load_bytes: 14155776,
            store_bytes: 73728,
            atomic_ops: 0,
            divergent_warps: 0,
            active_warps: 288,
            shared_loads: 0,
            shared_stores: 0,
            bank_conflicts: 0,
            phases: 0,
            line_bytes: 128,
            sim_time: Duration::ZERO,
        },
    );
}

#[test]
fn nvidia_tiled() {
    check(
        tiled(DeviceClass::NvidiaLike),
        LaunchStats {
            blocks: 36,
            warps: 3456,
            threads: 9216,
            flops: 1769472,
            loads: 110592,
            stores: 9216,
            load_transactions: 6912,
            store_transactions: 576,
            load_bytes: 884736,
            store_bytes: 73728,
            atomic_ops: 0,
            divergent_warps: 0,
            active_warps: 2016,
            shared_loads: 1769472,
            shared_stores: 110592,
            bank_conflicts: 0,
            phases: 12,
            line_bytes: 128,
            sim_time: Duration::ZERO,
        },
    );
}

#[test]
fn amd_naive() {
    check(
        naive(DeviceClass::AmdLike, GpuVariant::Hip),
        LaunchStats {
            blocks: 9,
            warps: 144,
            threads: 9216,
            flops: 1769472,
            loads: 1769472,
            stores: 9216,
            load_transactions: 82944,
            store_transactions: 1152,
            load_bytes: 14155776,
            store_bytes: 73728,
            atomic_ops: 0,
            divergent_warps: 0,
            active_warps: 144,
            shared_loads: 0,
            shared_stores: 0,
            bank_conflicts: 0,
            phases: 0,
            line_bytes: 64,
            sim_time: Duration::ZERO,
        },
    );
}

#[test]
fn amd_tiled() {
    check(
        tiled(DeviceClass::AmdLike),
        LaunchStats {
            blocks: 36,
            warps: 1728,
            threads: 9216,
            flops: 1769472,
            loads: 110592,
            stores: 9216,
            load_transactions: 13824,
            store_transactions: 1152,
            load_bytes: 884736,
            store_bytes: 73728,
            atomic_ops: 0,
            divergent_warps: 0,
            active_warps: 1008,
            shared_loads: 1769472,
            shared_stores: 110592,
            bank_conflicts: 15552,
            phases: 12,
            line_bytes: 64,
            sim_time: Duration::ZERO,
        },
    );
}
