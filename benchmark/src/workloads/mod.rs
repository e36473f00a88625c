//! The five workloads. Each stresses different layers, and for each
//! layer one workload runs it and another bypasses it:
//!
//! | workload       | operation                              | layers it runs                    |
//! |----------------|----------------------------------------|-----------------------------------|
//! | `gemm-large`   | FP64 + FP32 `tuned::gemm`, n = 1024    | pool, gemm.tuned                  |
//! | `serve-batch`  | `gemm_batch` of 32 small problems      | pool, gemm.batch, gemm.tuned      |
//! | `serve-single` | `gemm_batch` of 1 small problem        | pool, gemm.batch, gemm.tuned      |
//! | `gpusim`       | naive + tiled launches on both classes | gemm.gpu, gpusim                  |
//! | `study-dist`   | 255-point grid over 2 TCP workers      | serve, core                       |

pub mod gemm_large;
pub mod gpusim;
pub mod serve;
pub mod study;

use crate::harness::Workload;

/// Generates `name`'s inputs from `seed`, starts what it needs and runs
/// its warm-up: everything before the first timed operation.
///
/// # Errors
///
/// An unknown workload name, or a set-up step that failed.
pub fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "gemm-large" => Box::new(gemm_large::GemmLarge::setup(seed)),
        "serve-batch" => Box::new(serve::Serve::setup(seed, 32)),
        "serve-single" => Box::new(serve::Serve::setup(seed, 1)),
        "gpusim" => Box::new(gpusim::GpuSim::setup(seed)),
        "study-dist" => Box::new(study::StudyDist::setup(seed)?),
        other => return Err(format!("unknown workload '{other}'")),
    })
}
