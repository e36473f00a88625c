//! Workload inputs are a function of the seed alone.

use perfport_benchmark::spec::{DEFAULT_SEED, HELD_OUT_SEED};
use perfport_benchmark::workloads::{gemm_large, gpusim, serve, study};
use perfport_gemm::Problem;

fn same_problem(p: &Problem, q: &Problem) -> bool {
    match (p, q) {
        (Problem::F64 { a, b }, Problem::F64 { a: c, b: d }) => a == c && b == d,
        (Problem::F32 { a, b }, Problem::F32 { a: c, b: d }) => a == c && b == d,
        (Problem::F16 { a, b }, Problem::F16 { a: c, b: d }) => a == c && b == d,
        _ => false,
    }
}

fn same_problems(x: &[Problem], y: &[Problem]) -> bool {
    x.len() == y.len() && x.iter().zip(y).all(|(p, q)| same_problem(p, q))
}

#[test]
fn gemm_large_inputs_follow_the_seed() {
    let one = gemm_large::inputs(DEFAULT_SEED);
    let again = gemm_large::inputs(DEFAULT_SEED);
    let two = gemm_large::inputs(HELD_OUT_SEED);
    assert!(one.f64 == again.f64 && one.f32 == again.f32 && one.rows == again.rows);
    assert!(one.f64.0 != two.f64.0 && one.f32.0 != two.f32.0 && one.rows != two.rows);
    assert_eq!(one.f64.0.rows(), gemm_large::N);
}

#[test]
fn serve_problems_follow_the_seed() {
    let one = serve::problems(DEFAULT_SEED);
    assert!(same_problems(&one, &serve::problems(DEFAULT_SEED)));
    assert!(!same_problems(&one, &serve::problems(HELD_OUT_SEED)));
    assert_eq!(one.len(), serve::PROBLEMS);
    for p in &one {
        let (m, n, k) = p.dims();
        assert!([m, n, k].iter().all(|d| serve::SIZES.contains(d)));
    }
}

#[test]
fn gpusim_inputs_follow_the_seed() {
    assert_eq!(gpusim::inputs(DEFAULT_SEED), gpusim::inputs(DEFAULT_SEED));
    assert_ne!(gpusim::inputs(DEFAULT_SEED), gpusim::inputs(HELD_OUT_SEED));
}

#[test]
fn study_panel_order_follows_the_seed() {
    let one = study::panel_order(DEFAULT_SEED);
    assert_eq!(one, study::panel_order(DEFAULT_SEED));
    assert_ne!(one, study::panel_order(HELD_OUT_SEED));
    let mut sorted = one.clone();
    sorted.sort();
    let mut all: Vec<String> = perfport_core::figure_specs()
        .iter()
        .map(|s| s.id.to_string())
        .collect();
    all.sort();
    assert_eq!(sorted, all, "every panel is served exactly once");
}
