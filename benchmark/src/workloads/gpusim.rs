//! `gpusim`: the study's GPU kernels on the SIMT simulator. Each
//! operation launches the naive vendor-geometry kernel (CUDA on the
//! NVIDIA-like class, HIP on the AMD-like class, 32×32 blocks) and the
//! shared-memory tiled kernel on both device classes, FP64 at the
//! study's verification size.

use crate::harness::{telemetry_layers, Layers, Meter, Step, Workload};
use perfport_core::noise;
use perfport_gemm::{
    gemm_reference_f64, gpu_gemm, gpu_gemm_tiled, GpuVariant, Layout, Matrix, Tolerance,
};
use perfport_gpusim::{DeviceClass, Dim3, Gpu, LaunchError, LaunchStats};
use perfport_telemetry::Snapshot;
use rand::Rng;
use std::time::Duration;

/// Matrix order (the study's GPU verification size).
pub const N: usize = 96;

/// The paper's naive block shape.
const BLOCK: Dim3 = Dim3::d2(32, 32);

/// Generates `A` and `B` from `seed` alone.
pub fn inputs(seed: u64) -> (Matrix<f64>, Matrix<f64>) {
    let mut s = noise::stream(seed, "gpusim/operands");
    let l = Layout::RowMajor;
    let (sa, sb): (u64, u64) = (s.gen(), s.gen());
    (Matrix::random(N, N, l, sa), Matrix::random(N, N, l, sb))
}

/// The `gpusim` workload.
pub struct GpuSim {
    devices: [(Gpu, GpuVariant); 2],
    a: Matrix<f64>,
    b: Matrix<f64>,
    reference: Matrix<f64>,
    /// Launch counters of the current traced block.
    block: Layers,
}

type Launch = Result<(Matrix<f64>, LaunchStats), LaunchError>;

impl GpuSim {
    /// Generates the inputs and their `f64` reference, creates both
    /// devices and runs one warm-up operation.
    pub fn setup(seed: u64) -> GpuSim {
        let (a, b) = inputs(seed);
        let w = GpuSim {
            devices: [
                (Gpu::new(DeviceClass::NvidiaLike), GpuVariant::Cuda),
                (Gpu::new(DeviceClass::AmdLike), GpuVariant::Hip),
            ],
            reference: gemm_reference_f64(&a, &b),
            a,
            b,
            block: Layers::default(),
        };
        std::hint::black_box(w.launches());
        w
    }

    fn launches(&self) -> Vec<Launch> {
        let (a, b) = (&self.a, &self.b);
        self.devices
            .iter()
            .flat_map(|(gpu, naive)| {
                [
                    gpu_gemm(gpu, *naive, a, b, BLOCK),
                    gpu_gemm_tiled(gpu, a, b),
                ]
            })
            .collect()
    }

    /// Every launch succeeded and matches the reference within the
    /// FP64 tolerance for a length-`N` contraction.
    fn correct(&self, launches: &[Launch]) -> bool {
        let tol = Tolerance::for_gemm::<f64>(N);
        launches.iter().all(|l| match l {
            Ok((c, _)) => {
                (0..N).all(|i| (0..N).all(|j| tol.accepts(c[(i, j)], self.reference[(i, j)])))
            }
            Err(_) => false,
        })
    }
}

impl Workload for GpuSim {
    fn step(&mut self, _i: u64, meter: &Meter) -> Step {
        let (launches, wall) = meter.time("gpu_launches", || self.launches());
        if meter.traced() {
            for (_, s) in launches.iter().flatten() {
                let b = &mut self.block;
                b.add("gpusim.sim_pct", s.sim_time.as_nanos() as f64);
                b.add("gpusim.phases", s.phases as f64);
                b.add("gpusim.shared_loads", s.shared_loads as f64);
                b.add("gpusim.load_transactions", s.load_transactions as f64);
                b.add("gpusim.bank_conflicts", s.bank_conflicts as f64);
            }
        }
        Step {
            wall,
            failed: !self.correct(&launches),
        }
    }

    fn begin_block(&mut self) {
        self.block = Layers::default();
    }

    fn end_block(&mut self, delta: &Snapshot, _wall: Duration) -> (Layers, u64) {
        let mut layers = std::mem::take(&mut self.block);
        layers.absorb(&telemetry_layers(delta));
        (layers, 0)
    }
}
