//! Dense matrices and the paper's hand-rolled GEMM kernels.
//!
//! The study's workload is deliberately naive: `C += A · B` as a triple
//! loop, written the way a domain scientist would while prototyping, once
//! per programming model (Fig. 2 and Fig. 3 of the paper). This crate
//! provides:
//!
//! * [`Matrix`] — a dense matrix with runtime [`Layout`] (row-major as in
//!   NumPy/C, column-major as in Julia), because layout is exactly why the
//!   per-model loop nests differ;
//! * [`Scalar`] — the element abstraction covering `f64`, `f32`, and the
//!   software [`perfport_half::F16`];
//! * [`serial`] — all six loop orders plus a cache-blocked variant, used
//!   as references and for ablations;
//! * [`variants`] — one kernel per programming model, transcribing the
//!   paper's Fig. 2 loop structures (OpenMP-C `ikj`, Kokkos row-lambda,
//!   Julia `jli` column-major, Numba `prange` `ikj`);
//! * [`parallel`] — the same variants executed on the
//!   [`perfport_pool::ThreadPool`] work-sharing runtime;
//! * [`tuned`] — the packed, register-tiled, cache-blocked kernel standing
//!   in for the vendor BLAS: the measured baseline Table III's host
//!   efficiencies divide by;
//! * [`simd`] — the explicit AVX2+FMA / AVX-512 / NEON microkernels the
//!   tuned kernel dispatches to at runtime (portable autovectorized
//!   fallback included), overridable via `PERFPORT_SIMD`;
//! * [`verify`] — numerical verification against an `f64` reference;
//! * [`batch`] — the batched small-GEMM serving layer: mixed-precision
//!   [`Problem`] streams executed on the pool under a batch ≡ serial
//!   bitwise contract.
//!
//! # Example
//!
//! Multiply two random matrices with the tuned (vendor stand-in) kernel
//! and verify against the `f64` reference:
//!
//! ```
//! use perfport_gemm::{tuned, Layout, Matrix};
//!
//! let (m, k, n) = (33, 17, 29);
//! let a = Matrix::<f32>::random(m, k, Layout::RowMajor, 1);
//! let b = Matrix::<f32>::random(k, n, Layout::RowMajor, 2);
//! let mut c = Matrix::<f32>::zeros(m, n, Layout::RowMajor);
//!
//! let params = tuned::TunedParams::host::<f32>();
//! tuned::gemm_serial(&a, &b, &mut c, &params, &mut tuned::PackArena::new());
//!
//! let max_rel_err = perfport_gemm::verify_gemm(&a, &b, &c).expect("tuned GEMM verifies");
//! assert!(max_rel_err < 1e-4);
//! ```

#![deny(missing_docs)]

pub mod batch;
pub mod gpu;
pub mod gpu_tiled;
pub mod matrix;
pub mod parallel;
pub mod portable;
pub mod scalar;
pub mod serial;
pub mod simd;
pub mod tuned;
pub mod variants;
pub mod verify;

pub use batch::{
    bucket_params, gemm_batch, gemm_batch_serial, BucketKey, Output, Precision, Problem,
};
pub use gpu::{gpu_gemm, gpu_gemm_mixed, GpuVariant};
pub use gpu_tiled::{gpu_gemm_tiled, gpu_gemm_tiled_mixed, TILE, TILE_SMEM_ELEMS};
pub use matrix::{Layout, Matrix};
pub use parallel::{par_gemm, par_gemm_element_grid};
pub use portable::{gemm_element, portable_gemm, Backend, BackendStats, GemmAccess};
pub use scalar::Scalar;
pub use serial::{
    gemm_arithmetic_intensity, gemm_flops, gemm_min_bytes, gemm_reference_f64, LoopOrder,
};
pub use simd::Isa;
pub use tuned::{BlockSizes, PackArena, TileShape, TunedParams, TunedStats};
pub use variants::CpuVariant;
pub use verify::{max_abs_error, max_rel_error, verify_gemm, Tolerance};
