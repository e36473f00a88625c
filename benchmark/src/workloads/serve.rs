//! `serve-batch` and `serve-single`: the small-GEMM serving path. Each
//! operation is one synchronous `gemm_batch` call; the calls walk a
//! fixed set of generated problems whose operands are far larger than
//! L2, so packing reads cold data as it would under real traffic.

use crate::harness::{hist_prefix_sum, hist_sum, telemetry_layers, Layers, Meter, Step, Workload};
use perfport_core::noise;
use perfport_gemm::{batch, Layout, Matrix, Output, Problem};
use perfport_half::F16;
use perfport_pool::ThreadPool;
use perfport_telemetry::Snapshot;
use rand::Rng;
use std::time::Duration;

/// Problems generated per run; calls cycle through them.
pub const PROBLEMS: usize = 8192;

/// Shape menu for `m`, `n` and `k`, the serving harness's menu.
pub const SIZES: [usize; 8] = [4, 8, 12, 16, 24, 32, 48, 64];

/// Output checks compare every this many calls with the serial path.
const CHECK_EVERY: u64 = 16;

/// Generates the problem set from `seed` alone: shapes from the menu,
/// precision f64/f32/f16 at 25/50/25 %.
pub fn problems(seed: u64) -> Vec<Problem> {
    let mut shapes = noise::stream(seed, "serve/shape");
    let mut operands = noise::stream(seed, "serve/operands");
    let l = Layout::RowMajor;
    (0..PROBLEMS)
        .map(|_| {
            let [m, n, k] = std::array::from_fn(|_| SIZES[shapes.gen_range(0..SIZES.len())]);
            let p: f64 = shapes.gen();
            let (sa, sb): (u64, u64) = (operands.gen(), operands.gen());
            if p < 0.25 {
                Problem::new_f64(Matrix::random(m, k, l, sa), Matrix::random(k, n, l, sb))
            } else if p < 0.75 {
                Problem::new_f32(Matrix::random(m, k, l, sa), Matrix::random(k, n, l, sb))
            } else {
                Problem::new_f16(
                    Matrix::<F16>::random(m, k, l, sa),
                    Matrix::<F16>::random(k, n, l, sb),
                )
            }
        })
        .collect()
}

/// The serving workloads; `batch` problems per call.
pub struct Serve {
    pool: ThreadPool,
    problems: Vec<Problem>,
    batch: usize,
    /// Checks due in a traced block, run after its telemetry is read
    /// (the serial reference records telemetry of its own): first
    /// problem of the call and the call's outputs.
    deferred: Vec<(usize, Vec<Output>)>,
}

impl Serve {
    /// Generates the problems, starts a one-worker pool and warms up with
    /// one pass over every problem (pack arenas grow and every shape
    /// bucket is seen once).
    pub fn setup(seed: u64, batch: usize) -> Serve {
        assert!(
            PROBLEMS.is_multiple_of(batch),
            "calls must tile the problem set"
        );
        let w = Serve {
            pool: ThreadPool::new(1),
            problems: problems(seed),
            batch,
            deferred: Vec::new(),
        };
        for chunk in w.problems.chunks(batch) {
            std::hint::black_box(batch::gemm_batch(&w.pool, chunk));
        }
        w
    }

    /// Byte-compares a call's outputs with the per-problem serial path.
    fn matches_serial(&self, start: usize, outputs: &[Output]) -> bool {
        let serial = batch::gemm_batch_serial(&self.problems[start..start + self.batch]);
        outputs.len() == serial.len()
            && outputs
                .iter()
                .zip(&serial)
                .all(|(b, s)| b.to_le_bytes() == s.to_le_bytes())
    }
}

impl Workload for Serve {
    fn step(&mut self, i: u64, meter: &Meter) -> Step {
        let calls = (PROBLEMS / self.batch) as u64;
        let start = (i % calls) as usize * self.batch;
        let slice = &self.problems[start..start + self.batch];
        let pool = &self.pool;
        let (outputs, wall) = meter.time("gemm_batch", || batch::gemm_batch(pool, slice));
        let mut failed = false;
        if i.is_multiple_of(CHECK_EVERY) {
            if meter.traced() {
                self.deferred.push((start, outputs));
            } else {
                failed = !self.matches_serial(start, &outputs);
            }
        }
        Step { wall, failed }
    }

    fn end_block(&mut self, delta: &Snapshot, wall: Duration) -> (Layers, u64) {
        let mut layers = telemetry_layers(delta);
        layers.add(
            "gemm.tuned_pct",
            hist_prefix_sum(delta, "batch/service_ns/"),
        );
        layers.add(
            "gemm.batch_pct",
            wall.as_nanos() as f64 - hist_sum(delta, "graph/run_ns"),
        );
        let deferred = std::mem::take(&mut self.deferred);
        let failed = deferred
            .iter()
            .filter(|(start, outputs)| !self.matches_serial(*start, outputs))
            .count();
        (layers, failed as u64)
    }
}
