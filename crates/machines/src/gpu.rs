//! GPU descriptions: performance envelopes paired with a
//! `perfport-gpusim` device class.

use crate::precision::Precision;
use perfport_gpusim::DeviceClass;

/// A GPU, described by the parameters the timing model needs.
#[derive(Debug, Clone)]
pub struct GpuMachine {
    /// Marketing name.
    pub name: &'static str,
    /// Host system in the paper.
    pub system: &'static str,
    /// Execution-semantics class for the simulator.
    pub class: DeviceClass,
    /// Streaming multiprocessors (NVIDIA) / compute units (AMD).
    pub sms: u32,
    /// Peak vector FP64, GFLOP/s (no tensor cores — the paper's kernels
    /// are plain FMA loops).
    pub peak_fp64_gflops: f64,
    /// Peak vector FP32, GFLOP/s.
    pub peak_fp32_gflops: f64,
    /// Peak vector FP16, GFLOP/s.
    pub peak_fp16_gflops: f64,
    /// Peak matrix-unit FP16-in/FP32-accumulate rate, GFLOP/s (tensor
    /// cores on NVIDIA, matrix cores on CDNA2) — reachable only through
    /// MMA fragments, never from a scalar FMA loop.
    pub peak_tensor_fp16_gflops: f64,
    /// Sustained HBM bandwidth, GB/s.
    pub mem_bw_gbs: f64,
    /// SM clock, GHz.
    pub clock_ghz: f64,
    /// L1/LSU throughput per SM, bytes per cycle (bounds streaming
    /// kernels that do two loads per FMA — the naive GEMM's real ceiling).
    pub l1_bytes_per_cycle_per_sm: f64,
    /// Kernel launch latency, microseconds (vendor runtime baseline;
    /// programming models scale it).
    pub launch_latency_us: f64,
}

impl GpuMachine {
    /// Peak GFLOP/s at a precision.
    pub fn peak_gflops(&self, p: Precision) -> f64 {
        match p {
            Precision::Double => self.peak_fp64_gflops,
            Precision::Single => self.peak_fp32_gflops,
            Precision::Half => self.peak_fp16_gflops,
        }
    }

    /// Aggregate L1/LSU bandwidth, GB/s.
    pub fn l1_bw_gbs(&self) -> f64 {
        f64::from(self.sms) * self.clock_ghz * self.l1_bytes_per_cycle_per_sm
    }

    /// Wombat's NVIDIA A100 (40 GB).
    pub fn a100() -> Self {
        GpuMachine {
            name: "NVIDIA A100",
            system: "Wombat",
            class: DeviceClass::NvidiaLike,
            sms: 108,
            peak_fp64_gflops: 9_700.0,
            peak_fp32_gflops: 19_500.0,
            // Non-tensor FP16 vector rate (tensor cores are the
            // separate matrix-unit rate below, unreachable from a
            // hand-rolled FMA loop).
            peak_fp16_gflops: 39_000.0,
            peak_tensor_fp16_gflops: 312_000.0,
            mem_bw_gbs: 1_555.0,
            clock_ghz: 1.41,
            l1_bytes_per_cycle_per_sm: 128.0,
            launch_latency_us: 8.0,
        }
    }

    /// Crusher's AMD MI250X, one GCD (a single-GPU job addresses one
    /// Graphics Compute Die; the paper launches on one GPU id).
    pub fn mi250x_gcd() -> Self {
        GpuMachine {
            name: "AMD MI250X (1 GCD)",
            system: "Crusher",
            class: DeviceClass::AmdLike,
            sms: 110,
            peak_fp64_gflops: 23_950.0,
            peak_fp32_gflops: 23_950.0,
            peak_fp16_gflops: 95_700.0,
            // Half of the full MI250X's 383 TF FP16 matrix rate.
            peak_tensor_fp16_gflops: 191_500.0,
            mem_bw_gbs: 1_638.0,
            clock_ghz: 1.7,
            l1_bytes_per_cycle_per_sm: 64.0,
            launch_latency_us: 10.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_spec_sheet() {
        let g = GpuMachine::a100();
        assert_eq!(g.class, DeviceClass::NvidiaLike);
        assert_eq!(g.sms, 108);
        assert!(
            (g.peak_gflops(Precision::Single) / g.peak_gflops(Precision::Double) - 2.0).abs() < 0.1
        );
    }

    #[test]
    fn mi250x_spec_sheet() {
        let g = GpuMachine::mi250x_gcd();
        assert_eq!(g.class, DeviceClass::AmdLike);
        // CDNA2 vector FP32 == FP64 rate (the paper's FP32 gains on
        // MI250X are modest for exactly this reason).
        assert_eq!(g.peak_fp32_gflops, g.peak_fp64_gflops);
        assert!(g.mem_bw_gbs > 1_500.0);
    }

    #[test]
    fn precision_dispatch() {
        let g = GpuMachine::a100();
        assert_eq!(g.peak_gflops(Precision::Double), 9_700.0);
        assert_eq!(g.peak_gflops(Precision::Half), 39_000.0);
    }

    #[test]
    fn tensor_rate_dwarfs_the_vector_rate() {
        // The matrix units are the whole point of the mixed-precision
        // story: both parts keep an ~8× and ~2× step over vector FP16.
        for g in [GpuMachine::a100(), GpuMachine::mi250x_gcd()] {
            assert!(
                g.peak_tensor_fp16_gflops >= 2.0 * g.peak_fp16_gflops,
                "{}",
                g.name
            );
        }
    }
}
