//! Batched small-GEMM execution with shape-bucketing.
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
//! * [`bucket`] — groups problems by [`BucketKey`] `(precision, m, n,
//!   k)` so every problem in a bucket shares one [`TunedParams`] /
//!   `TileShape` selection ([`bucket_params`]), computed once per bucket
//!   instead of once per problem.
//! * [`gemm_batch`] — executes a batch on a [`ThreadPool`], one problem
//!   per work item in *canonical order* (bucket-major by `BucketKey`
//!   ordering, submission order within a bucket), packing through each
//!   worker's reusable thread-local arena.
//!
//! # The batch ≡ serial bitwise contract
//!
//! The concatenated outputs of [`gemm_batch`] are **bitwise identical**
//! to running [`gemm_serial`] per problem in submission order, for any
//! bucketing and any worker count. Three facts make this
//! hold: every problem runs *whole* on one worker (no intra-problem
//! row-splitting), both paths derive parameters through the same
//! [`bucket_params`] function, and the tuned kernel's accumulation order
//! per `C` element is a fixed function of the `Kc` blocking alone. The
//! contract is enforced by proptests (`batch_props.rs`) and by the
//! output checks of the `serve-batch` and `serve-single` benchmark
//! workloads.

use crate::matrix::{Layout, Matrix};
use crate::scalar::Scalar;
use crate::tuned::{gemm_serial, with_thread_arena, TunedParams};
use perfport_half::F16;
use perfport_pool::{Schedule, ThreadPool};
use std::collections::BTreeMap;
use std::fmt;

/// Element precision of one batched problem, in canonical bucket order
/// (widest first, matching the paper's precision columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Precision {
    /// IEEE 754 binary64.
    F64,
    /// IEEE 754 binary32.
    F32,
    /// Software IEEE 754 binary16 ([`perfport_half::F16`]).
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

    /// The bucket this problem belongs to.
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

/// The grouping key for shape-bucketing: problems with equal keys share
/// one [`TunedParams`] selection and run back-to-back so a worker's pack
/// arena sees a run of identically-shaped packs.
///
/// The derived ordering (precision-major, then `m`, `n`, `k`) is the
/// *canonical bucket order*: bucket iteration — and therefore the
/// batch's internal execution sequence — is identical for every worker
/// count.
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

/// Groups problems into buckets by [`BucketKey`].
///
/// Every problem index lands in exactly one bucket; within a bucket,
/// indices keep submission order; buckets iterate in canonical
/// `BucketKey` order (the `BTreeMap` ordering) — all three properties
/// are load-bearing for the bitwise contract and property-tested.
pub fn bucket(problems: &[Problem]) -> BTreeMap<BucketKey, Vec<usize>> {
    let mut buckets: BTreeMap<BucketKey, Vec<usize>> = BTreeMap::new();
    for (idx, problem) in problems.iter().enumerate() {
        buckets.entry(problem.key()).or_default().push(idx);
    }
    buckets
}

/// The tuned-kernel parameters every problem in `key`'s bucket shares.
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

fn run_problem(problem: &Problem, params: &TunedParams) -> Output {
    let t0 = std::time::Instant::now();
    let output = match problem {
        Problem::F64 { a, b } => Output::F64(solve(a, b, params)),
        Problem::F32 { a, b } => Output::F32(solve(a, b, params)),
        Problem::F16 { a, b } => Output::F16(solve(a, b, params)),
    };
    // Per-bucket service-time histogram: tail percentiles for any
    // number of problems in O(1) memory, keyed so a serving mix's
    // buckets stay separable in the merged snapshot.
    let service_ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    perfport_telemetry::counter_add("batch/problems", 1);
    perfport_telemetry::observe(&format!("batch/service_ns/{}", problem.key()), service_ns);
    output
}

/// The canonical execution sequence: `(submission index, shared
/// params)` in bucket-major order, submission order within a bucket.
fn execution_order(problems: &[Problem]) -> Vec<(usize, TunedParams)> {
    let mut exec = Vec::with_capacity(problems.len());
    for (key, indices) in bucket(problems) {
        let params = bucket_params(&key);
        exec.extend(indices.into_iter().map(|idx| (idx, params)));
    }
    exec
}

/// Executes a batch of problems on the pool and returns outputs in
/// submission order.
///
/// Work items are whole problems in canonical bucket order, dispatched
/// through `parallel_map` with a dynamic schedule of one problem per
/// grab; each worker packs through its reusable thread-local arena, so a
/// steady stream of batches never reallocates pack buffers after warm-up.
/// A one-problem batch is a one-item loop, which runs and packs on the
/// calling thread with no pool round trip. Outputs are bitwise identical
/// to [`gemm_batch_serial`] for any worker count (see the module docs).
pub fn gemm_batch(pool: &ThreadPool, problems: &[Problem]) -> Vec<Output> {
    let exec = execution_order(problems);
    let results = pool.parallel_map(exec.len(), Schedule::Dynamic { chunk: 1 }, |i| {
        let (idx, params) = &exec[i];
        (*idx, run_problem(&problems[*idx], params))
    });
    scatter(problems.len(), results)
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

fn scatter(n: usize, results: Vec<(usize, Output)>) -> Vec<Output> {
    let mut slots: Vec<Option<Output>> = (0..n).map(|_| None).collect();
    for (idx, output) in results {
        debug_assert!(slots[idx].is_none(), "problem {idx} executed twice");
        slots[idx] = Some(output);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every problem executed exactly once"))
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
    fn buckets_partition_the_batch() {
        let problems = mixed_batch(9);
        let buckets = bucket(&problems);
        // The two identically-shaped f32 problems share one bucket.
        assert_eq!(buckets.len(), 3);
        let mut seen: Vec<usize> = buckets.values().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
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
