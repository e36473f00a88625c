//! The measured vendor-baseline headroom on CPU targets.
//!
//! The paper divides every portable model's throughput by the *vendor
//! library* (Eq. 2). The modelled vendor reference in this workspace runs
//! the same naive loop nest as the portable models, only through the
//! vendor toolchain — which makes the host-side denominator naive-vs-naive
//! and flatters every CPU efficiency. A real vendor BLAS packs, blocks for
//! the cache hierarchy, and register-tiles; `perfport-gemm::tuned`
//! implements exactly that decomposition, and the bench harness
//! (`cargo run -p perfport-bench --bin host_gemm`) measures how far it
//! pulls ahead of the fastest naive kernel on the build host.
//!
//! The ratios below are that measurement, committed as data (the raw
//! snapshot lives in `BENCH_gemm.json` at the repo root). They are
//! *headroom multipliers on the vendor denominator*: dividing a modelled
//! CPU efficiency by the headroom yields the efficiency against the
//! measured tuned baseline. Keeping them as committed constants — rather
//! than re-measuring inside the study pipeline — keeps Table III
//! deterministic and its golden files machine-independent, while the
//! committed values themselves remain honest wall-clock measurements.
//!
//! The GPU side has the same bug shape and now the same fix: the modelled
//! CUDA/HIP vendor references run the paper's naive one-thread-per-element
//! kernel, but a real cuBLAS/rocBLAS stages tiles through shared memory
//! (and reaches the matrix units at FP16). The `gpu_gemm` bench bin runs
//! the tiled shared-memory kernel and the modelled tensor-core variant on
//! the gpusim simulator under the same warm-up-then-reps protocol, derives
//! steady-state device estimates from the measured counters, and the
//! tiled-over-best-naive ratios below are that measurement, committed as
//! data (raw snapshot: `BENCH_gpu.json` at the repo root).

use crate::arch::Arch;
use crate::calibration::Calibration;
use perfport_machines::Precision;

/// Measured tuned-over-best-naive ratio at n=1024 FP64 on the build host
/// (see `BENCH_gemm.json`), taken with the earlier `8×8` AVX-512 tile.
/// The tuned kernel now runs `8×16` under AVX-512 and is faster, so this
/// understates today's numerator; it is kept until the naive denominator
/// is measured rather than modelled.
const HEADROOM_F64: f64 = 6.68;
/// Measured tuned-over-best-naive ratio at n=1024 FP32 on the build host,
/// taken with the earlier `8×8` tile on the 256-bit AVX2 microkernel
/// under the AVX-512 verdict (today's AVX-512 default is the 512-bit
/// kernel on `8×16`); kept for the same reason as [`HEADROOM_F64`].
const HEADROOM_F32: f64 = 4.58;

/// Measured-on-simulator steady-state ratios of the tiled shared-memory
/// kernel (FP64/FP32) and the modelled tensor-core mixed-precision
/// variant (FP16) over the best naive kernel at n=128 — `gpu_gemm`,
/// committed in `BENCH_gpu.json`'s `headroom` block. The naive kernels
/// are LSU-bound (two element loads per FMA); tiling drops global
/// traffic by the tile factor, which on the A100 flips FP64/FP32 to
/// compute-bound at ~4× while the MI250X's fatter FP64 vector units
/// leave it LSU-limited far longer.
const GPU_HEADROOM_A100_F64: f64 = 4.00;
const GPU_HEADROOM_A100_F32: f64 = 4.02;
const GPU_HEADROOM_A100_F16: f64 = 14.33;
const GPU_HEADROOM_MI250X_F64: f64 = 15.12;
const GPU_HEADROOM_MI250X_F32: f64 = 8.04;
const GPU_HEADROOM_MI250X_F16: f64 = 14.33;

/// Multiplier the measured tuned (or tiled/tensor-core, on GPUs) kernel
/// holds over the fastest naive portable kernel on each target.
pub fn vendor_headroom(arch: Arch, precision: Precision) -> Calibration {
    match arch {
        Arch::A100 => {
            let (value, provenance) = match precision {
                Precision::Double => (
                    GPU_HEADROOM_A100_F64,
                    "measured on gpusim: tiled shared-memory kernel vs fastest naive \
                     kernel, steady-state device estimate, n=128 FP64 on the A100 model \
                     (gpu_gemm, BENCH_gpu.json)",
                ),
                Precision::Single => (
                    GPU_HEADROOM_A100_F32,
                    "measured on gpusim: tiled shared-memory kernel vs fastest naive \
                     kernel, steady-state device estimate, n=128 FP32 on the A100 model \
                     (gpu_gemm, BENCH_gpu.json)",
                ),
                Precision::Half => (
                    GPU_HEADROOM_A100_F16,
                    "measured on gpusim: modelled tensor-core mixed-precision kernel \
                     (occupancy-derived matrix-unit rate) vs fastest naive mixed kernel, \
                     n=128 FP16-in/FP32-acc on the A100 model (gpu_gemm, BENCH_gpu.json)",
                ),
            };
            return Calibration { value, provenance };
        }
        Arch::Mi250x => {
            let (value, provenance) = match precision {
                Precision::Double => (
                    GPU_HEADROOM_MI250X_F64,
                    "measured on gpusim: tiled shared-memory kernel vs fastest naive \
                     kernel, steady-state device estimate, n=128 FP64 on the MI250X GCD \
                     model (gpu_gemm, BENCH_gpu.json)",
                ),
                Precision::Single => (
                    GPU_HEADROOM_MI250X_F32,
                    "measured on gpusim: tiled shared-memory kernel vs fastest naive \
                     kernel, steady-state device estimate, n=128 FP32 on the MI250X GCD \
                     model (gpu_gemm, BENCH_gpu.json)",
                ),
                Precision::Half => (
                    GPU_HEADROOM_MI250X_F16,
                    "measured on gpusim: modelled matrix-core mixed-precision kernel \
                     (occupancy-derived matrix-unit rate) vs fastest naive mixed kernel, \
                     n=128 FP16-in/FP32-acc on the MI250X GCD model (gpu_gemm, \
                     BENCH_gpu.json)",
                ),
            };
            return Calibration { value, provenance };
        }
        _ => {}
    }
    match precision {
        Precision::Double => Calibration {
            value: HEADROOM_F64,
            provenance: "measured on the build host: tuned packed kernel (8x8 tile, \
                         AVX-512 microkernel, before the 8x16 AVX-512 tile) vs fastest \
                         naive portable model, n=1024 FP64 (host_gemm, BENCH_gemm.json)",
        },
        Precision::Single => Calibration {
            value: HEADROOM_F32,
            provenance: "measured on the build host: tuned packed kernel (8x8 tile, \
                         256-bit AVX2 microkernel, before the 8x16 AVX-512 tile) vs \
                         fastest naive portable model, n=1024 FP32 (host_gemm, \
                         BENCH_gemm.json)",
        },
        Precision::Half => Calibration {
            value: HEADROOM_F32,
            provenance: "software-F16 headroom not separately measured; assumed at the \
                         measured FP32 ratio (the tuned F16 path packs widened to f32 \
                         and runs the f32 microkernel)",
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_targets_scale_by_the_measured_simulator_headroom() {
        for arch in [Arch::Mi250x, Arch::A100] {
            for p in Precision::ALL {
                let h = vendor_headroom(arch, p);
                // Tiling beats the LSU-bound naive kernels on every
                // target; the matrix units beat them harder still.
                assert!(h.value > 1.0 && h.value < 20.0, "{arch} {p}");
                assert!(h.provenance.contains("BENCH_gpu.json"), "{arch} {p}");
            }
        }
        // The A100's naive kernels are LSU-bound at 1/4 of its FP64
        // peak; the MI250X's fat FP64 vector units leave more on the
        // table, so its measured headroom must be larger.
        assert!(
            vendor_headroom(Arch::Mi250x, Precision::Double).value
                > vendor_headroom(Arch::A100, Precision::Double).value
        );
        // The tensor-core story: FP16 headroom dwarfs the FP64 one on
        // NVIDIA.
        assert!(
            vendor_headroom(Arch::A100, Precision::Half).value
                > 2.0 * vendor_headroom(Arch::A100, Precision::Double).value
        );
    }

    #[test]
    fn cpu_headroom_is_measured_and_sane() {
        for arch in [Arch::Epyc7A53, Arch::AmpereAltra] {
            for p in Precision::ALL {
                let h = vendor_headroom(arch, p);
                // A packed cache-blocked kernel beats a naive loop nest,
                // but not by an implausible factor on a server core.
                assert!(h.value > 1.0 && h.value < 10.0, "{arch} {p}");
                assert!(h.provenance.contains("measured") || h.provenance.contains("FP64"));
            }
        }
        assert_eq!(
            vendor_headroom(Arch::Epyc7A53, Precision::Double).value,
            HEADROOM_F64
        );
    }
}
