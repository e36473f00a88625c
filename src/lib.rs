//! Umbrella crate re-exporting the whole `perfport` workspace.
//!
//! See the README and `DESIGN.md` for the architecture; the typical entry
//! points are [`core`] for running experiments and [`metrics`] for the
//! portability analysis.

pub use perfport_core as core;
pub use perfport_gemm as gemm;
pub use perfport_gpusim as gpusim;
pub use perfport_half as half;
pub use perfport_machines as machines;
pub use perfport_metrics as metrics;
pub use perfport_models as models;
pub use perfport_pool as pool;
pub use perfport_serve as serve;
pub use perfport_trace as trace;
