//! `gemm-large`: the paper's vendor-baseline kernel. Each operation is
//! one FP64 and one FP32 `tuned::gemm` call at n = 1024, their order
//! alternating so drift hits both precisions alike.

use crate::harness::{hist_sum, telemetry_layers, Layers, Meter, Step, Workload};
use perfport_core::noise;
use perfport_gemm::{tuned, verify_gemm, Layout, Matrix, Scalar, TunedParams};
use perfport_pool::ThreadPool;
use perfport_telemetry::Snapshot;
use rand::Rng;
use std::time::Duration;

/// Matrix order of every call.
pub const N: usize = 1024;

/// Rows of `C` each output check compares with the `f64` reference.
const CHECKED_ROWS: usize = 8;

/// One precision's operands, result and parameters.
struct Operands<T: Scalar> {
    a: Matrix<T>,
    b: Matrix<T>,
    c: Matrix<T>,
    params: TunedParams,
}

impl<T: Scalar> Operands<T> {
    fn new(a: Matrix<T>, b: Matrix<T>) -> Self {
        Operands {
            c: Matrix::zeros(a.rows(), b.cols(), Layout::RowMajor),
            a,
            b,
            params: TunedParams::host::<T>(),
        }
    }

    /// Checks sampled rows of `C` against the `f64` reference through
    /// the public `verify_gemm`, at the precision's tolerance.
    fn check(&self, rows: &[usize]) -> Result<(), String> {
        let pick = |m: &Matrix<T>| {
            Matrix::from_fn(rows.len(), m.cols(), Layout::RowMajor, |i, j| {
                m[(rows[i], j)]
            })
        };
        verify_gemm(&pick(&self.a), &self.b, &pick(&self.c)).map(|_| ())
    }
}

/// The generated inputs: FP64 and FP32 operand pairs and the rows the
/// checks sample.
pub struct Inputs {
    /// FP64 `A`, `B`.
    pub f64: (Matrix<f64>, Matrix<f64>),
    /// FP32 `A`, `B`.
    pub f32: (Matrix<f32>, Matrix<f32>),
    /// Rows of `C` the output checks compare.
    pub rows: Vec<usize>,
}

/// Generates the inputs from `seed` alone.
pub fn inputs(seed: u64) -> Inputs {
    let mut s = noise::stream(seed, "gemm-large/operands");
    let seeds: [u64; 4] = std::array::from_fn(|_| s.gen());
    let l = Layout::RowMajor;
    let f64 = (
        Matrix::random(N, N, l, seeds[0]),
        Matrix::random(N, N, l, seeds[1]),
    );
    let f32 = (
        Matrix::random(N, N, l, seeds[2]),
        Matrix::random(N, N, l, seeds[3]),
    );
    let mut r = noise::stream(seed, "gemm-large/checked-rows");
    let rows = (0..CHECKED_ROWS).map(|_| r.gen_range(0..N)).collect();
    Inputs { f64, f32, rows }
}

/// The `gemm-large` workload.
pub struct GemmLarge {
    pool: ThreadPool,
    f64: Operands<f64>,
    f32: Operands<f32>,
    rows: Vec<usize>,
}

impl GemmLarge {
    /// Generates the inputs, starts a one-worker pool and runs one
    /// warm-up operation.
    pub fn setup(seed: u64) -> GemmLarge {
        let Inputs { f64, f32, rows } = inputs(seed);
        let mut w = GemmLarge {
            pool: ThreadPool::new(1),
            f64: Operands::new(f64.0, f64.1),
            f32: Operands::new(f32.0, f32.1),
            rows,
        };
        w.pair(0, &Meter::default());
        w
    }

    /// Both calls of operation `i`, timed together.
    fn pair(&mut self, i: u64, meter: &Meter) -> Duration {
        self.f64.c.fill_zero();
        self.f32.c.fill_zero();
        let (pool, x, y) = (&self.pool, &mut self.f64, &mut self.f32);
        let ((), wall) = meter.time("gemm_pair", || {
            if i.is_multiple_of(2) {
                tuned::gemm(pool, &x.a, &x.b, &mut x.c, &x.params);
                tuned::gemm(pool, &y.a, &y.b, &mut y.c, &y.params);
            } else {
                tuned::gemm(pool, &y.a, &y.b, &mut y.c, &y.params);
                tuned::gemm(pool, &x.a, &x.b, &mut x.c, &x.params);
            }
        });
        wall
    }

    fn check(&self) -> bool {
        self.f64.check(&self.rows).is_ok() && self.f32.check(&self.rows).is_ok()
    }
}

impl Workload for GemmLarge {
    fn step(&mut self, i: u64, meter: &Meter) -> Step {
        let wall = self.pair(i, meter);
        // The first call per precision is checked here, the last one in
        // `finish`.
        Step {
            wall,
            failed: i == 0 && !self.check(),
        }
    }

    fn end_block(&mut self, delta: &Snapshot, _wall: Duration) -> (Layers, u64) {
        let mut layers = telemetry_layers(delta);
        let pack = hist_sum(delta, "gemm/pack_ns");
        layers.add("gemm.tuned_pct", hist_sum(delta, "gemm/compute_ns") + pack);
        layers.add("gemm.pack_pct", pack);
        (layers, 0)
    }

    fn finish(&mut self) -> u64 {
        u64::from(!self.check())
    }
}
