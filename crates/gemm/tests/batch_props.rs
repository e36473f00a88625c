//! Property tests for the batched serving layer: the batch ≡ serial
//! bitwise contract, under ragged proptest-generated shape mixes
//! (degenerate 0/1 extents included) across all three precisions.

use perfport_gemm::batch::{gemm_batch, gemm_batch_serial, Precision, Problem};
use perfport_gemm::{Layout, Matrix};
use perfport_pool::ThreadPool;
use proptest::prelude::*;

/// One generated problem: precision selector, ragged dims (0 and 1
/// included — empty operands and k = 0 must round-trip), seed, layouts.
#[derive(Debug, Clone)]
struct Spec {
    precision: u8,
    m: usize,
    n: usize,
    k: usize,
    seed: u64,
    col_a: bool,
    col_b: bool,
}

fn spec() -> impl Strategy<Value = Spec> {
    (
        0u8..3,
        0usize..20,
        0usize..20,
        0usize..20,
        0u64..1000,
        proptest::bool::ANY,
        proptest::bool::ANY,
    )
        .prop_map(|(precision, m, n, k, seed, col_a, col_b)| Spec {
            precision,
            m,
            n,
            k,
            seed,
            col_a,
            col_b,
        })
}

fn build(specs: &[Spec]) -> Vec<Problem> {
    specs
        .iter()
        .map(|s| {
            let la = if s.col_a {
                Layout::ColMajor
            } else {
                Layout::RowMajor
            };
            let lb = if s.col_b {
                Layout::ColMajor
            } else {
                Layout::RowMajor
            };
            match s.precision {
                0 => Problem::new_f64(
                    Matrix::random(s.m, s.k, la, s.seed),
                    Matrix::random(s.k, s.n, lb, s.seed + 1),
                ),
                1 => Problem::new_f32(
                    Matrix::random(s.m, s.k, la, s.seed),
                    Matrix::random(s.k, s.n, lb, s.seed + 1),
                ),
                _ => Problem::new_f16(
                    Matrix::random(s.m, s.k, la, s.seed),
                    Matrix::random(s.k, s.n, lb, s.seed + 1),
                ),
            }
        })
        .collect()
}

fn batch_of_specs() -> impl Strategy<Value = Vec<Spec>> {
    proptest::collection::vec(spec(), 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole contract: concatenated batch outputs are bitwise
    /// identical to per-problem serial execution in submission order,
    /// for any bucketing and any worker count.
    #[test]
    fn batch_equals_serial_bitwise(specs in batch_of_specs()) {
        let problems = build(&specs);
        let serial: Vec<Vec<u8>> = gemm_batch_serial(&problems)
            .iter()
            .map(|o| o.to_le_bytes())
            .collect();
        for jobs in [1usize, 3, 5] {
            let pool = ThreadPool::new(jobs);
            let batch = gemm_batch(&pool, &problems);
            prop_assert_eq!(batch.len(), serial.len());
            for (i, out) in batch.iter().enumerate() {
                prop_assert_eq!(
                    &out.to_le_bytes(),
                    &serial[i],
                    "pool path diverged at problem {} with {} jobs", i, jobs
                );
            }
        }
    }
}

/// Non-property regression for the F16 typed-arena fix: a worker that
/// just packed f32 panels must serve an F16 problem (and vice versa)
/// through its own typed arena, never a reinterpreted one. Interleaved
/// same-shape f32/f16 problems force exactly that switch on every
/// worker, and the outputs must still verify numerically and match the
/// serial reference bitwise.
#[test]
fn mixed_f32_f16_batches_use_typed_arenas() {
    let l = Layout::RowMajor;
    let problems: Vec<Problem> = (0..12)
        .map(|i| {
            let seed = 100 + 2 * i as u64;
            if i % 2 == 0 {
                Problem::new_f32(
                    Matrix::random(16, 24, l, seed),
                    Matrix::random(24, 12, l, seed + 1),
                )
            } else {
                Problem::new_f16(
                    Matrix::random(16, 24, l, seed),
                    Matrix::random(24, 12, l, seed + 1),
                )
            }
        })
        .collect();
    let serial = gemm_batch_serial(&problems);
    for jobs in [1usize, 4] {
        let pool = ThreadPool::new(jobs);
        let outputs = gemm_batch(&pool, &problems);
        for (i, (out, reference)) in outputs.iter().zip(&serial).enumerate() {
            assert_eq!(
                out.to_le_bytes(),
                reference.to_le_bytes(),
                "problem {i} diverged with {jobs} jobs"
            );
        }
    }
    // The outputs are not just self-consistent but numerically right.
    for (i, (p, out)) in problems.iter().zip(&serial).enumerate() {
        let err = match (p, out) {
            (Problem::F32 { a, b }, perfport_gemm::batch::Output::F32(c)) => {
                perfport_gemm::verify_gemm(a, b, c).unwrap_or(f64::INFINITY)
            }
            (Problem::F16 { a, b }, perfport_gemm::batch::Output::F16(c)) => {
                perfport_gemm::verify_gemm(a, b, c).unwrap_or(f64::INFINITY)
            }
            _ => panic!("problem {i} precision mismatch"),
        };
        let tol = if matches!(p.precision(), Precision::F16) {
            0.05
        } else {
            1e-4
        };
        assert!(err < tol, "problem {i}: max rel err {err}");
    }
}
