//! The paper's fine-granularity GPU GEMM kernels (Fig. 3), one per
//! programming model, running on the `perfport-gpusim` SIMT simulator.
//!
//! Every model maps one thread to one element of `C` inside a 2-D grid of
//! (the paper uses 32×32) thread blocks, guards against the matrix edge,
//! and accumulates a length-`k` dot product. The models differ in host
//! language layout (row-major C/CUDA/HIP/Numba vs. column-major Julia) and
//! — on real machines — in generated code quality, which is the subject of
//! `perfport-models`; here they differ only in their memory-access
//! geometry, which the simulator's coalescing counters expose.

use crate::matrix::{Layout, Matrix};
use crate::scalar::Scalar;
use perfport_gpusim::{Dim3, Gpu, LaunchConfig, LaunchError, LaunchOptions, LaunchStats};
use std::fmt;

/// The GPU programming models compared in the paper's Figs. 6–7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuVariant {
    /// Vendor CUDA C (reference on NVIDIA).
    Cuda,
    /// Vendor HIP C (reference on AMD).
    Hip,
    /// Kokkos with the CUDA backend.
    KokkosCuda,
    /// Kokkos with the HIP backend.
    KokkosHip,
    /// Julia CUDA.jl.
    JuliaCudaJl,
    /// Julia AMDGPU.jl.
    JuliaAmdGpu,
    /// Python/Numba `@cuda.jit` (NVIDIA only; AMD support deprecated).
    NumbaCuda,
}

impl GpuVariant {
    /// All seven variants.
    pub const ALL: [GpuVariant; 7] = [
        GpuVariant::Cuda,
        GpuVariant::Hip,
        GpuVariant::KokkosCuda,
        GpuVariant::KokkosHip,
        GpuVariant::JuliaCudaJl,
        GpuVariant::JuliaAmdGpu,
        GpuVariant::NumbaCuda,
    ];

    /// The device family this model targets.
    pub fn device_class(&self) -> perfport_gpusim::DeviceClass {
        match self {
            GpuVariant::Hip | GpuVariant::KokkosHip | GpuVariant::JuliaAmdGpu => {
                perfport_gpusim::DeviceClass::AmdLike
            }
            _ => perfport_gpusim::DeviceClass::NvidiaLike,
        }
    }

    /// Host-language array layout (drives device indexing).
    pub fn layout(&self) -> Layout {
        match self {
            GpuVariant::JuliaCudaJl | GpuVariant::JuliaAmdGpu => Layout::ColMajor,
            _ => Layout::RowMajor,
        }
    }

    /// Short identifier used in tables and benches.
    pub fn name(&self) -> &'static str {
        match self {
            GpuVariant::Cuda => "cuda",
            GpuVariant::Hip => "hip",
            GpuVariant::KokkosCuda => "kokkos-cuda",
            GpuVariant::KokkosHip => "kokkos-hip",
            GpuVariant::JuliaCudaJl => "julia-cuda.jl",
            GpuVariant::JuliaAmdGpu => "julia-amdgpu.jl",
            GpuVariant::NumbaCuda => "numba-cuda",
        }
    }
}

impl fmt::Display for GpuVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Runs `C = A · B` on the simulator with `variant`'s kernel geometry and
/// the given thread-block shape (the paper uses `32×32`).
///
/// Inputs may be in any layout; they are staged to the variant's layout
/// before upload, exactly as the host languages would hold them. Returns
/// the result matrix and the launch counters.
///
/// # Errors
///
/// Propagates [`LaunchError`] from the simulator.
pub fn gpu_gemm<T: Scalar>(
    gpu: &Gpu,
    variant: GpuVariant,
    a: &Matrix<T>,
    b: &Matrix<T>,
    block: Dim3,
) -> Result<(Matrix<T>, LaunchStats), LaunchError> {
    gpu_gemm_mixed::<T, T>(gpu, variant, a, b, block)
}

/// Mixed-precision variant: inputs at precision `I`, accumulation and
/// output at precision `O` — the paper's Fig. 1c half-input /
/// single-output experiment (Figs. 6c and 7c).
pub fn gpu_gemm_mixed<I: Scalar, O: Scalar>(
    gpu: &Gpu,
    variant: GpuVariant,
    a: &Matrix<I>,
    b: &Matrix<I>,
    block: Dim3,
) -> Result<(Matrix<O>, LaunchStats), LaunchError> {
    launch_naive(gpu, variant, a, b, block, LaunchOptions::default())
}

fn launch_naive<I: Scalar, O: Scalar>(
    gpu: &Gpu,
    variant: GpuVariant,
    a: &Matrix<I>,
    b: &Matrix<I>,
    block: Dim3,
    opts: LaunchOptions,
) -> Result<(Matrix<O>, LaunchStats), LaunchError> {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let (m, n, k) = (a.rows(), b.cols(), a.cols());
    let layout = variant.layout();

    let a_host = a.to_layout(layout);
    let b_host = b.to_layout(layout);
    let da = gpu.alloc_from_slice(a_host.as_slice());
    let db = gpu.alloc_from_slice(b_host.as_slice());
    let dc = gpu.alloc_filled(m * n, O::zero());

    let cfg = match layout {
        // Fig. 3a/3d: col ← x (coalesced along B/C rows), row ← y.
        Layout::RowMajor => LaunchConfig::cover2d(n as u32, m as u32, block),
        // Fig. 3b/3c: i (row) ← x (coalesced along A/C columns), j ← y.
        Layout::ColMajor => LaunchConfig::cover2d(m as u32, n as u32, block),
    };

    let stats = gpu.launch_with(cfg, opts, |t| match layout {
        Layout::RowMajor => {
            let (col, row) = t.grid2();
            if row < m && col < n {
                let mut sum = O::zero();
                for l in 0..k {
                    let av = O::from_f64(da.read(t, row * k + l).to_f64());
                    let bv = O::from_f64(db.read(t, l * n + col).to_f64());
                    sum = av.mul_add(bv, sum);
                    t.tally_flops(2);
                }
                dc.write(t, row * n + col, sum);
            }
        }
        Layout::ColMajor => {
            let (i, j) = t.grid2();
            if i < m && j < n {
                let mut sum = O::zero();
                for l in 0..k {
                    let av = O::from_f64(da.read(t, l * m + i).to_f64());
                    let bv = O::from_f64(db.read(t, j * k + l).to_f64());
                    sum = av.mul_add(bv, sum);
                    t.tally_flops(2);
                }
                dc.write(t, j * m + i, sum);
            }
        }
    })?;

    let host = dc.to_host();
    let mut c = Matrix::<O>::zeros(m, n, layout);
    c.as_mut_slice().copy_from_slice(&host);
    Ok((c, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::{gemm_flops, gemm_reference_f64};
    use perfport_gpusim::DeviceClass;
    use perfport_half::F16;

    const BLOCK: Dim3 = Dim3::d2(16, 16);

    #[test]
    fn all_variants_match_reference_f64() {
        for v in GpuVariant::ALL {
            let gpu = Gpu::new(v.device_class());
            let a = Matrix::<f64>::random(33, 17, Layout::RowMajor, 1);
            let b = Matrix::<f64>::random(17, 29, Layout::RowMajor, 2);
            let reference = gemm_reference_f64(&a, &b);
            let (c, stats) = gpu_gemm(&gpu, v, &a, &b, BLOCK).unwrap();
            let cr = c.to_layout(Layout::RowMajor);
            let diff: Matrix<f64> = cr.cast();
            assert!(diff.max_abs_diff(&reference) < 1e-12, "{v}");
            assert_eq!(stats.flops, gemm_flops(33, 29, 17), "{v} flop count");
        }
    }

    #[test]
    fn f32_and_f16_precisions() {
        let gpu = Gpu::new(perfport_gpusim::DeviceClass::NvidiaLike);
        let a32 = Matrix::<f32>::random(20, 12, Layout::RowMajor, 3);
        let b32 = Matrix::<f32>::random(12, 18, Layout::RowMajor, 4);
        let reference = gemm_reference_f64(&a32, &b32);
        let (c, _) = gpu_gemm(&gpu, GpuVariant::Cuda, &a32, &b32, BLOCK).unwrap();
        let cast: Matrix<f64> = c.cast();
        assert!(cast.max_abs_diff(&reference) < 1e-4);

        let a16: Matrix<F16> = a32.cast();
        let b16: Matrix<F16> = b32.cast();
        let ref16 = gemm_reference_f64(&a16, &b16);
        let (c16, _) = gpu_gemm(&gpu, GpuVariant::JuliaCudaJl, &a16, &b16, BLOCK).unwrap();
        let cast: Matrix<f64> = c16.to_layout(Layout::RowMajor).cast();
        assert!(cast.max_abs_diff(&ref16) < 0.2);
    }

    #[test]
    fn mixed_half_in_single_out_matches_paper_fig1c() {
        // Half inputs, FP32 accumulate: noticeably more accurate than pure
        // half.
        let gpu = Gpu::new(perfport_gpusim::DeviceClass::AmdLike);
        let a = Matrix::<F16>::random(24, 32, Layout::RowMajor, 5);
        let b = Matrix::<F16>::random(32, 24, Layout::RowMajor, 6);
        let reference = gemm_reference_f64(&a, &b);
        let (c, _) =
            gpu_gemm_mixed::<F16, f32>(&gpu, GpuVariant::JuliaAmdGpu, &a, &b, BLOCK).unwrap();
        let cast: Matrix<f64> = c.to_layout(Layout::RowMajor).cast();
        assert!(cast.max_abs_diff(&reference) < 2e-2);

        let (pure, _) = gpu_gemm::<F16>(&gpu, GpuVariant::JuliaAmdGpu, &a, &b, BLOCK).unwrap();
        let pure_cast: Matrix<f64> = pure.to_layout(Layout::RowMajor).cast();
        assert!(pure_cast.max_abs_diff(&reference) >= cast.max_abs_diff(&reference));
    }

    #[test]
    fn exact_tiles_have_no_divergence() {
        let gpu = Gpu::new(perfport_gpusim::DeviceClass::NvidiaLike);
        let a = Matrix::<f32>::random(64, 16, Layout::RowMajor, 7);
        let b = Matrix::<f32>::random(16, 64, Layout::RowMajor, 8);
        let (_, stats) = gpu_gemm(&gpu, GpuVariant::Cuda, &a, &b, Dim3::d2(32, 32)).unwrap();
        assert_eq!(stats.divergent_warps, 0);
        // Ragged edge introduces divergent warps.
        let a = Matrix::<f32>::random(65, 16, Layout::RowMajor, 7);
        let b = Matrix::<f32>::random(16, 65, Layout::RowMajor, 8);
        let (_, ragged) = gpu_gemm(&gpu, GpuVariant::Cuda, &a, &b, Dim3::d2(32, 32)).unwrap();
        assert!(ragged.divergent_warps > 0);
    }

    #[test]
    fn b_loads_are_coalesced_a_loads_are_broadcast() {
        // Row-major kernel, one warp per output row segment: B[l*n+col] is
        // contiguous across lanes (coalesced), A[row*k+l] is identical
        // across lanes (broadcast -> 1 transaction). Loads per thread:
        // 2k; transactions should be close to 2 per ordinal pair.
        let gpu = Gpu::new(perfport_gpusim::DeviceClass::NvidiaLike);
        let (m, k, n) = (32usize, 8usize, 32usize);
        let a = Matrix::<f32>::random(m, k, Layout::RowMajor, 9);
        let b = Matrix::<f32>::random(k, n, Layout::RowMajor, 10);
        let (_, stats) = gpu_gemm(&gpu, GpuVariant::Cuda, &a, &b, Dim3::d2(32, 1)).unwrap();
        assert_eq!(stats.loads, ((2 * m * n * k) as u64));
        // Per warp and per l: one A broadcast + one B line = 2
        // transactions; warps = m (one row each), ordinals = k pairs.
        let expected = (m * k * 2) as u64;
        assert_eq!(stats.load_transactions, expected);
    }

    #[test]
    fn julia_colmajor_geometry_is_equally_coalesced() {
        let gpu = Gpu::new(perfport_gpusim::DeviceClass::NvidiaLike);
        let (m, k, n) = (32usize, 8usize, 32usize);
        let a = Matrix::<f32>::random(m, k, Layout::RowMajor, 9);
        let b = Matrix::<f32>::random(k, n, Layout::RowMajor, 10);
        let (_, row) = gpu_gemm(&gpu, GpuVariant::Cuda, &a, &b, Dim3::d2(32, 1)).unwrap();
        let (_, col) = gpu_gemm(&gpu, GpuVariant::JuliaCudaJl, &a, &b, Dim3::d2(32, 1)).unwrap();
        // Same algorithm, mirrored layout: identical traffic shape.
        assert_eq!(row.loads, col.loads);
        assert_eq!(row.load_transactions, col.load_transactions);
        assert_eq!(row.stores, col.stores);
    }

    /// Every `LaunchStats` field but the host wall time.
    fn counters(stats: LaunchStats) -> LaunchStats {
        LaunchStats {
            sim_time: Default::default(),
            ..stats
        }
    }

    #[test]
    fn race_detection_counts_what_a_plain_launch_counts() {
        // A ragged edge, so some warps diverge. The race detector keeps
        // every thread's access log beside the warp tally; the counts
        // must come out as they do without it.
        let (m, k, n) = (37usize, 13usize, 45usize);
        let a = Matrix::<f64>::random(m, k, Layout::RowMajor, 11);
        let b = Matrix::<f64>::random(k, n, Layout::RowMajor, 12);
        for v in GpuVariant::ALL {
            let gpu = Gpu::new(v.device_class());
            let run = |detect_races| {
                let opts = LaunchOptions {
                    detect_races,
                    ..Default::default()
                };
                let (c, stats): (Matrix<f64>, _) =
                    launch_naive(&gpu, v, &a, &b, BLOCK, opts).unwrap();
                (c, counters(stats))
            };
            let (checked, checked_stats) = run(true);
            let (plain, plain_stats) = run(false);
            assert!(plain_stats.divergent_warps > 0, "{v}");
            assert_eq!(checked.as_slice(), plain.as_slice(), "{v}");
            assert_eq!(checked_stats, plain_stats, "{v}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// Serial ≡ parallel for plain launches: every naive kernel gives
        /// the same output and the same counters, `sim_time` aside, on
        /// one host thread and on three.
        #[test]
        fn naive_host_parallelism_invariance(
            m in 1usize..50, n in 1usize..50, k in 1usize..40,
            variant in 0usize..GpuVariant::ALL.len(),
            amd in proptest::bool::ANY, seed in 0u64..1000,
        ) {
            let v = GpuVariant::ALL[variant];
            let class = if amd { DeviceClass::AmdLike } else { DeviceClass::NvidiaLike };
            let gpu = Gpu::new(class);
            let a = Matrix::<f64>::random(m, k, Layout::RowMajor, seed);
            let b = Matrix::<f64>::random(k, n, Layout::RowMajor, seed + 1);
            let run = |host_threads| {
                let opts = LaunchOptions { host_threads, ..Default::default() };
                let (c, stats): (Matrix<f64>, _) =
                    launch_naive(&gpu, v, &a, &b, BLOCK, opts).unwrap();
                (c, counters(stats))
            };
            let (serial, serial_stats) = run(1);
            let (parallel, parallel_stats) = run(3);
            proptest::prop_assert_eq!(serial.as_slice(), parallel.as_slice());
            proptest::prop_assert_eq!(serial_stats, parallel_stats);
        }
    }

    #[test]
    fn names_and_devices() {
        assert_eq!(GpuVariant::Cuda.name(), "cuda");
        assert_eq!(
            GpuVariant::JuliaAmdGpu.device_class(),
            perfport_gpusim::DeviceClass::AmdLike
        );
        assert_eq!(GpuVariant::NumbaCuda.layout(), Layout::RowMajor);
        assert_eq!(GpuVariant::JuliaCudaJl.layout(), Layout::ColMajor);
        assert_eq!(GpuVariant::KokkosHip.to_string(), "kokkos-hip");
    }
}
