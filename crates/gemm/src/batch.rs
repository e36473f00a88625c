//! Batched small-GEMM execution.
//!
//! The paper benchmarks one large GEMM at a time, but a production
//! serving system faces the opposite regime: streams of *many small*
//! problems with ragged shapes and mixed precisions, where batching —
//! not single-kernel throughput — decides efficiency (see "Flexible
//! Performant GEMM Kernels on GPUs", PAPERS.md). This module is that
//! serving layer for the tuned CPU kernel:
//!
//! * [`Problem`] / [`Output`] — one `C = A·B` request and its result,
//!   over `f64`/`f32`/[`F16`].
//! * [`bucket_params`] — the [`TunedParams`] / `TileShape` selection
//!   every problem of one precision shares, looked up once per precision
//!   per batch.
//! * [`gemm_batch`] — executes a batch on a [`ThreadPool`], one problem
//!   per work item in submission order. A problem that fits one cache
//!   block runs the tuned kernel's direct tiles with no packing (see
//!   [`crate::tuned`]); a larger one packs through the worker's reusable
//!   thread-local arena.
//! * [`BucketKey`] — `(precision, m, n, k)`, the key of the per-shape
//!   `batch/service_ns/<key>` service-time histograms.
//!
//! # The batch ≡ serial bitwise contract
//!
//! The concatenated outputs of [`gemm_batch`] are **bitwise identical**
//! to running [`gemm_serial`] per problem in submission order, for any
//! worker count. Three facts make this hold: every problem runs *whole*
//! on one worker (no intra-problem row-splitting), both paths derive
//! parameters through the same [`bucket_params`] function, and the tuned
//! kernel's accumulation order per `C` element is a fixed function of the
//! `Kc` blocking alone. The contract is enforced by proptests
//! (`batch_props.rs`) and by the output checks of the `serve-batch` and
//! `serve-single` benchmark workloads.

use crate::matrix::{Layout, Matrix};
use crate::scalar::Scalar;
use crate::tuned::{gemm_serial, with_thread_arena, TunedParams};
use perfport_half::F16;
use perfport_pool::{Schedule, ThreadPool};
use perfport_telemetry::{Counter, Histogram};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;

/// Element precision of one batched problem (widest first, matching the
/// paper's precision columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Precision {
    /// IEEE 754 binary64.
    F64,
    /// IEEE 754 binary32.
    F32,
    /// IEEE 754 binary16 ([`perfport_half::F16`]), run by the tuned
    /// kernel's widened path: f32 arithmetic, with conversions in
    /// hardware where the ISA verdict has them.
    F16,
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
            Precision::F16 => "f16",
        })
    }
}

/// One `C = A·B` request: the operands of a single small GEMM.
///
/// Operands are owned (a serving batch outlives the stack frame that
/// created it); `C` is always produced fresh and row-major, so the
/// request carries no output buffer.
#[derive(Debug, Clone)]
pub enum Problem {
    /// A double-precision problem.
    F64 {
        /// Left operand (`m × k`).
        a: Matrix<f64>,
        /// Right operand (`k × n`).
        b: Matrix<f64>,
    },
    /// A single-precision problem.
    F32 {
        /// Left operand (`m × k`).
        a: Matrix<f32>,
        /// Right operand (`k × n`).
        b: Matrix<f32>,
    },
    /// A half-precision problem.
    F16 {
        /// Left operand (`m × k`).
        a: Matrix<F16>,
        /// Right operand (`k × n`).
        b: Matrix<F16>,
    },
}

impl Problem {
    /// Wraps a double-precision multiply.
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != b.rows()`.
    pub fn new_f64(a: Matrix<f64>, b: Matrix<f64>) -> Self {
        assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
        Problem::F64 { a, b }
    }

    /// Wraps a single-precision multiply.
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != b.rows()`.
    pub fn new_f32(a: Matrix<f32>, b: Matrix<f32>) -> Self {
        assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
        Problem::F32 { a, b }
    }

    /// Wraps a half-precision multiply.
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != b.rows()`.
    pub fn new_f16(a: Matrix<F16>, b: Matrix<F16>) -> Self {
        assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
        Problem::F16 { a, b }
    }

    /// The problem's element precision.
    pub fn precision(&self) -> Precision {
        match self {
            Problem::F64 { .. } => Precision::F64,
            Problem::F32 { .. } => Precision::F32,
            Problem::F16 { .. } => Precision::F16,
        }
    }

    /// `(m, n, k)` of the multiply.
    pub fn dims(&self) -> (usize, usize, usize) {
        match self {
            Problem::F64 { a, b } => (a.rows(), b.cols(), a.cols()),
            Problem::F32 { a, b } => (a.rows(), b.cols(), a.cols()),
            Problem::F16 { a, b } => (a.rows(), b.cols(), a.cols()),
        }
    }

    /// The problem's precision and shape.
    pub fn key(&self) -> BucketKey {
        let (m, n, k) = self.dims();
        BucketKey {
            precision: self.precision(),
            m,
            n,
            k,
        }
    }
}

/// A problem's precision and shape: the key of its
/// `batch/service_ns/<key>` service-time histogram, so a serving mix's
/// shapes stay separable in the merged snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BucketKey {
    /// Element precision.
    pub precision: Precision,
    /// Rows of `C`.
    pub m: usize,
    /// Columns of `C`.
    pub n: usize,
    /// Inner (contraction) dimension.
    pub k: usize,
}

impl fmt::Display for BucketKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}x{}x{}", self.precision, self.m, self.n, self.k)
    }
}

/// The result of one batched problem: a freshly-allocated row-major `C`.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// Double-precision result.
    F64(Matrix<f64>),
    /// Single-precision result.
    F32(Matrix<f32>),
    /// Half-precision result.
    F16(Matrix<F16>),
}

impl Output {
    /// `(rows, cols)` of the result.
    pub fn dims(&self) -> (usize, usize) {
        match self {
            Output::F64(c) => (c.rows(), c.cols()),
            Output::F32(c) => (c.rows(), c.cols()),
            Output::F16(c) => (c.rows(), c.cols()),
        }
    }

    /// The result's elements as little-endian bytes in storage order —
    /// the canonical form for the batch ≡ serial bitwise contract
    /// (`f16` serialises via its bit pattern).
    pub fn to_le_bytes(&self) -> Vec<u8> {
        match self {
            Output::F64(c) => c.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect(),
            Output::F32(c) => c.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect(),
            Output::F16(c) => c
                .as_slice()
                .iter()
                .flat_map(|v| v.to_bits().to_le_bytes())
                .collect(),
        }
    }
}

/// The tuned-kernel parameters of a problem with key `key`; they depend
/// on its precision alone.
///
/// Both [`gemm_batch`] and the per-problem serial reference
/// ([`gemm_batch_serial`]) derive parameters through this one function,
/// which is half of what makes the bitwise contract hold (the other
/// half: each problem runs whole, so accumulation order never depends
/// on the worker count).
pub fn bucket_params(key: &BucketKey) -> TunedParams {
    match key.precision {
        Precision::F64 => TunedParams::host::<f64>(),
        Precision::F32 => TunedParams::host::<f32>(),
        Precision::F16 => TunedParams::host::<F16>(),
    }
}

fn solve<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>, params: &TunedParams) -> Matrix<T> {
    let mut c = Matrix::zeros(a.rows(), b.cols(), Layout::RowMajor);
    with_thread_arena(|arena| gemm_serial(a, b, &mut c, params, arena));
    c
}

static PROBLEMS: Counter = Counter::new("batch/problems");

thread_local! {
    /// This thread's handles of the per-shape `batch/service_ns/<key>`
    /// histograms, so each key's name is built once per thread.
    static SERVICE_NS: RefCell<HashMap<BucketKey, Histogram>> = RefCell::new(HashMap::new());
}

fn run_problem(problem: &Problem, params: &TunedParams) -> Output {
    let t0 = std::time::Instant::now();
    let output = match problem {
        Problem::F64 { a, b } => Output::F64(solve(a, b, params)),
        Problem::F32 { a, b } => Output::F32(solve(a, b, params)),
        Problem::F16 { a, b } => Output::F16(solve(a, b, params)),
    };
    // Per-shape service-time histogram: tail percentiles for any
    // number of problems in O(1) memory.
    let service_ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    PROBLEMS.add(1);
    SERVICE_NS.with(|handles| {
        handles
            .borrow_mut()
            .entry(problem.key())
            .or_insert_with_key(|key| Histogram::named(&format!("batch/service_ns/{key}")))
            .observe(service_ns);
    });
    output
}

/// Each problem's parameters, in submission order, with one
/// [`bucket_params`] lookup per precision present.
fn problem_params(problems: &[Problem]) -> Vec<TunedParams> {
    let mut by_precision: [Option<TunedParams>; 3] = [None; 3];
    problems
        .iter()
        .map(|p| {
            *by_precision[p.precision() as usize].get_or_insert_with(|| bucket_params(&p.key()))
        })
        .collect()
}

/// Executes a batch of problems on the pool and returns outputs in
/// submission order.
///
/// Work items are whole problems in submission order, dispatched through
/// `parallel_map` with a dynamic schedule of one problem per grab. A
/// problem that fits one cache block runs unpacked; a larger one packs
/// through the worker's reusable thread-local arena, so a steady stream
/// of batches never reallocates pack buffers after warm-up. A
/// one-problem batch is a one-item loop, which runs on the calling
/// thread with no pool round trip. Outputs are bitwise identical to
/// [`gemm_batch_serial`] for any worker count (see the module docs).
pub fn gemm_batch(pool: &ThreadPool, problems: &[Problem]) -> Vec<Output> {
    let params = problem_params(problems);
    pool.parallel_map(problems.len(), Schedule::Dynamic { chunk: 1 }, |i| {
        run_problem(&problems[i], &params[i])
    })
}

/// The per-problem serial reference: [`gemm_serial`] on each problem in
/// submission order, with the same [`bucket_params`] the batch path
/// uses. This is the right-hand side of the bitwise contract.
pub fn gemm_batch_serial(problems: &[Problem]) -> Vec<Output> {
    problems
        .iter()
        .map(|p| run_problem(p, &bucket_params(&p.key())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_batch(seed: u64) -> Vec<Problem> {
        let l = Layout::RowMajor;
        vec![
            Problem::new_f32(
                Matrix::random(8, 12, l, seed),
                Matrix::random(12, 6, l, seed + 1),
            ),
            Problem::new_f64(
                Matrix::random(5, 7, Layout::ColMajor, seed + 2),
                Matrix::random(7, 9, l, seed + 3),
            ),
            Problem::new_f32(
                Matrix::random(8, 12, l, seed + 4),
                Matrix::random(12, 6, l, seed + 5),
            ),
            Problem::new_f16(
                Matrix::random(4, 3, l, seed + 6),
                Matrix::random(3, 10, l, seed + 7),
            ),
        ]
    }

    #[test]
    fn batch_matches_serial_bitwise() {
        let problems = mixed_batch(17);
        let serial = gemm_batch_serial(&problems);
        for threads in [1, 2, 5] {
            let pool = ThreadPool::new(threads);
            let batch = gemm_batch(&pool, &problems);
            assert_eq!(batch.len(), serial.len());
            for (i, (b, s)) in batch.iter().zip(&serial).enumerate() {
                assert_eq!(
                    b.to_le_bytes(),
                    s.to_le_bytes(),
                    "problem {i} diverged at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn one_problem_batch_runs_on_the_caller_and_matches_serial() {
        let problems = mixed_batch(41);
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            // One problem of each precision (indices 0, 1, 3 of the mix).
            for problem in [&problems[0], &problems[1], &problems[3]] {
                let single = std::slice::from_ref(problem);
                let serial = gemm_batch_serial(single);
                let regions = pool.regions_run();
                let batch = gemm_batch(&pool, single);
                // No region forked: the problem ran on this thread.
                assert_eq!(pool.regions_run(), regions);
                assert_eq!(
                    batch[0].to_le_bytes(),
                    serial[0].to_le_bytes(),
                    "{} diverged at {threads} threads",
                    problem.key()
                );
            }
        }
    }

    #[test]
    fn empty_and_degenerate_problems_round_trip() {
        let l = Layout::RowMajor;
        let problems = vec![
            Problem::new_f64(Matrix::random(0, 3, l, 1), Matrix::random(3, 4, l, 2)),
            Problem::new_f32(Matrix::random(2, 0, l, 3), Matrix::random(0, 5, l, 4)),
            Problem::new_f16(Matrix::random(1, 1, l, 5), Matrix::random(1, 1, l, 6)),
        ];
        let pool = ThreadPool::new(2);
        let batch = gemm_batch(&pool, &problems);
        let serial = gemm_batch_serial(&problems);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0].dims(), (0, 4));
        // k = 0 means C is the zero matrix, not an error.
        assert_eq!(batch[1].dims(), (2, 5));
        assert!(matches!(&batch[1], Output::F32(c) if c.as_slice().iter().all(|v| *v == 0.0)));
        for (b, s) in batch.iter().zip(&serial) {
            assert_eq!(b.to_le_bytes(), s.to_le_bytes());
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions must agree")]
    fn mismatched_inner_dims_are_rejected() {
        let l = Layout::RowMajor;
        let _ = Problem::new_f32(Matrix::random(3, 4, l, 1), Matrix::random(5, 2, l, 2));
    }
}
