//! Shared-memory tiled GPU GEMM — the optimisation the paper's
//! hand-rolled kernels deliberately leave out.
//!
//! The study's naive kernels re-read `A` and `B` from global memory for
//! every multiply-add; the first optimisation any GPU programming guide
//! teaches is to stage `TILE × TILE` blocks of `A` and `B` through shared
//! memory behind `__syncthreads()`. This module implements that kernel on
//! the simulator's phase-stepped cooperative interface, giving the
//! ablation data for "what was left on the table": global-memory traffic
//! drops by a factor of `TILE` while flops stay identical.
//!
//! Phase layout per tile step `t` (of `k / TILE` steps):
//!
//! * phase `2t`   — each thread loads one element of the `A` tile and one
//!   of the `B` tile into shared memory, then barrier;
//! * phase `2t+1` — each thread accumulates `TILE` multiply-adds from
//!   shared memory into its per-thread accumulator, then barrier;
//! * after the last step, the accumulator is written to `C`.
//!
//! [`gpu_gemm_tiled_mixed`] is the same staging pattern with inputs at
//! precision `I` widened to the accumulator precision `O` on load — the
//! fragment shape of a tensor-core MMA (FP16 tiles in, FP32 accumulate,
//! following Faingnaert et al.). The simulator executes it functionally;
//! the *throughput* of the tensor-core datapath is modelled separately
//! (`perfport_machines::tensor_core_gflops`, occupancy-derived).

use crate::matrix::{Layout, Matrix};
use crate::scalar::Scalar;
use perfport_gpusim::{
    CooperativeKernel, Dim3, Gpu, LaunchConfig, LaunchError, LaunchOptions, LaunchStats, SharedMem,
    ThreadCtx,
};

/// Tile side length (threads per block side).
pub const TILE: usize = 16;

/// Shared-memory footprint of one tiled block, in `O`-sized elements
/// (an `A` tile plus a `B` tile, both staged at accumulator precision).
pub const TILE_SMEM_ELEMS: usize = 2 * TILE * TILE;

struct TiledGemm<'a, I: Scalar, O: Scalar> {
    a: &'a perfport_gpusim::DeviceBuffer<I>,
    b: &'a perfport_gpusim::DeviceBuffer<I>,
    c: &'a perfport_gpusim::DeviceBuffer<O>,
    m: usize,
    n: usize,
    k: usize,
    steps: usize,
}

impl<I: Scalar, O: Scalar> CooperativeKernel<O> for TiledGemm<'_, I, O> {
    /// The running dot-product accumulator lives across barriers.
    type State = Option<O>;

    fn phase(
        &self,
        phase: usize,
        ctx: &ThreadCtx,
        state: &mut Self::State,
        shared: &SharedMem<O>,
    ) -> bool {
        let acc = state.get_or_insert(O::zero());
        let (tx, ty) = (ctx.thread_idx.x as usize, ctx.thread_idx.y as usize);
        let col = ctx.global_x();
        let row = ctx.global_y();
        let step = phase / 2;

        if phase.is_multiple_of(2) {
            // Load phase: stage A[row, step*TILE + tx] and
            // B[step*TILE + ty, col], widened to the accumulator
            // precision; zero-pad outside the matrix so the compute
            // phase stays uniform (no barrier divergence).
            let ka = step * TILE + tx;
            let av = if row < self.m && ka < self.k {
                O::from_f64(self.a.read(ctx, row * self.k + ka).to_f64())
            } else {
                O::zero()
            };
            let kb = step * TILE + ty;
            let bv = if kb < self.k && col < self.n {
                O::from_f64(self.b.read(ctx, kb * self.n + col).to_f64())
            } else {
                O::zero()
            };
            shared.write(ty * TILE + tx, av);
            shared.write(TILE * TILE + ty * TILE + tx, bv);
            true
        } else {
            // Compute phase: TILE multiply-adds from shared memory.
            for l in 0..TILE {
                let av = shared.read(ty * TILE + l);
                let bv = shared.read(TILE * TILE + l * TILE + tx);
                *acc = av.mul_add(bv, *acc);
            }
            ctx.tally_flops(2 * TILE as u64);
            if step + 1 < self.steps {
                true
            } else {
                if row < self.m && col < self.n {
                    self.c.write(ctx, row * self.n + col, *acc);
                }
                false
            }
        }
    }
}

/// Runs the tiled kernel and returns the result with its launch
/// counters.
///
/// # Errors
///
/// Propagates simulator launch errors.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn gpu_gemm_tiled<T: Scalar>(
    gpu: &Gpu,
    a: &Matrix<T>,
    b: &Matrix<T>,
) -> Result<(Matrix<T>, LaunchStats), LaunchError> {
    gpu_gemm_tiled_mixed::<T, T>(gpu, a, b)
}

/// Mixed-precision tiled kernel: inputs at precision `I`, shared-memory
/// staging, accumulation, and output at precision `O` — the functional
/// execution behind the modelled tensor-core variant
/// (`I = F16, O = f32`).
///
/// # Errors
///
/// Propagates simulator launch errors.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn gpu_gemm_tiled_mixed<I: Scalar, O: Scalar>(
    gpu: &Gpu,
    a: &Matrix<I>,
    b: &Matrix<I>,
) -> Result<(Matrix<O>, LaunchStats), LaunchError> {
    launch_tiled(gpu, a, b, LaunchOptions::default())
}

fn launch_tiled<I: Scalar, O: Scalar>(
    gpu: &Gpu,
    a: &Matrix<I>,
    b: &Matrix<I>,
    opts: LaunchOptions,
) -> Result<(Matrix<O>, LaunchStats), LaunchError> {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let (m, n, k) = (a.rows(), b.cols(), a.cols());
    let a_host = a.to_layout(Layout::RowMajor);
    let b_host = b.to_layout(Layout::RowMajor);
    let da = gpu.alloc_from_slice(a_host.as_slice());
    let db = gpu.alloc_from_slice(b_host.as_slice());
    let dc = gpu.alloc_filled(m * n, O::zero());

    let cfg = LaunchConfig::cover2d(n as u32, m as u32, Dim3::d2(TILE as u32, TILE as u32));
    let kernel = TiledGemm {
        a: &da,
        b: &db,
        c: &dc,
        m,
        n,
        k,
        steps: k.div_ceil(TILE),
    };
    let stats = gpu.launch_cooperative(cfg, opts, TILE_SMEM_ELEMS, O::zero(), &kernel)?;

    let host = dc.to_host();
    let mut c = Matrix::<O>::zeros(m, n, Layout::RowMajor);
    c.as_mut_slice().copy_from_slice(&host);
    Ok((c, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::{gpu_gemm, GpuVariant};
    use crate::serial::gemm_reference_f64;
    use perfport_gpusim::DeviceClass;

    #[test]
    fn tiled_gemm_matches_reference_exact_tiles() {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let (m, k, n) = (64, 48, 32);
        let a = Matrix::<f64>::random(m, k, Layout::RowMajor, 1);
        let b = Matrix::<f64>::random(k, n, Layout::RowMajor, 2);
        let reference = gemm_reference_f64(&a, &b);
        let (c, stats) = gpu_gemm_tiled(&gpu, &a, &b).unwrap();
        assert!(c.max_abs_diff(&reference) < 1e-12);
        assert_eq!(stats.flops, {
            // Every resident thread (including padded edge threads)
            // executes TILE MACs per step.
            let blocks = (m as u64 / TILE as u64) * (n as u64 / TILE as u64);
            blocks * (TILE * TILE) as u64 * (k as u64 / TILE as u64) * 2 * TILE as u64
        });
    }

    #[test]
    fn tiled_gemm_matches_reference_ragged_shapes() {
        let gpu = Gpu::new(DeviceClass::AmdLike);
        for (m, k, n) in [(17, 23, 19), (16, 10, 50), (33, 16, 31), (1, 1, 1)] {
            let a = Matrix::<f32>::random(m, k, Layout::RowMajor, 3);
            let b = Matrix::<f32>::random(k, n, Layout::RowMajor, 4);
            let reference = gemm_reference_f64(&a, &b);
            let (c, _) = gpu_gemm_tiled(&gpu, &a, &b).unwrap();
            let cast: Matrix<f64> = c.cast();
            assert!(cast.max_abs_diff(&reference) < 1e-3, "({m},{k},{n})");
        }
    }

    #[test]
    fn tiling_slashes_global_traffic() {
        // The ablation headline: identical problem, ~TILE× fewer global
        // loads than the naive kernel.
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let nsize = 128;
        let a = Matrix::<f64>::random(nsize, nsize, Layout::RowMajor, 5);
        let b = Matrix::<f64>::random(nsize, nsize, Layout::RowMajor, 6);
        let (_, naive) = gpu_gemm(&gpu, GpuVariant::Cuda, &a, &b, Dim3::d2(16, 16)).unwrap();
        let (_, tiled) = gpu_gemm_tiled(&gpu, &a, &b).unwrap();
        let reduction = naive.loads as f64 / tiled.loads as f64;
        assert!(
            (reduction - TILE as f64).abs() < 1.0,
            "expected ~{TILE}x reduction, got {reduction}"
        );
        // The traffic moved into shared memory instead.
        assert!(tiled.shared_loads > tiled.loads);
        assert_eq!(naive.shared_loads, 0);
    }

    #[test]
    fn tiled_kernel_uses_barrier_phases() {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let nsize = 64;
        let a = Matrix::<f64>::random(nsize, nsize, Layout::RowMajor, 7);
        let b = Matrix::<f64>::random(nsize, nsize, Layout::RowMajor, 8);
        let (_, stats) = gpu_gemm_tiled(&gpu, &a, &b).unwrap();
        // k/TILE steps × 2 phases each.
        assert_eq!(stats.phases, (nsize / TILE) as u64 * 2);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// Serial ≡ parallel for cooperative launches: the tiled kernel
        /// gives the same output and the same counters, `sim_time`
        /// aside, on one host thread and on three.
        #[test]
        fn tiled_host_parallelism_invariance(
            m in 1usize..50, n in 1usize..50, k in 1usize..40,
            amd in proptest::bool::ANY, seed in 0u64..1000,
        ) {
            let class = if amd { DeviceClass::AmdLike } else { DeviceClass::NvidiaLike };
            let gpu = Gpu::new(class);
            let a = Matrix::<f64>::random(m, k, Layout::RowMajor, seed);
            let b = Matrix::<f64>::random(k, n, Layout::RowMajor, seed + 1);
            let run = |host_threads| {
                let opts = LaunchOptions { host_threads, ..Default::default() };
                let (c, stats): (Matrix<f64>, _) = launch_tiled(&gpu, &a, &b, opts).unwrap();
                (c, LaunchStats { sim_time: Default::default(), ..stats })
            };
            let (serial, serial_stats) = run(1);
            let (parallel, parallel_stats) = run(3);
            proptest::prop_assert_eq!(serial.as_slice(), parallel.as_slice());
            proptest::prop_assert_eq!(serial_stats, parallel_stats);
        }
    }
}
