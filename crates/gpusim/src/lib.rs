//! A functional SIMT GPU simulator.
//!
//! The paper's GPU experiments run hand-rolled GEMM kernels through CUDA,
//! HIP, Kokkos, CUDA.jl, AMDGPU.jl, and Numba-CUDA on hardware this
//! reproduction does not have. Per the substitution methodology in
//! `DESIGN.md`, those launches run here instead: kernels are ordinary Rust
//! closures over a [`ThreadCtx`], executed for every thread of a
//! grid/block hierarchy with CUDA-compatible index semantics, and the
//! simulator observes what real profilers would report:
//!
//! * **global-memory traffic** — element loads/stores and *coalesced
//!   transactions* (distinct cache lines touched per warp access),
//! * **branch divergence** — warps whose lanes executed different access
//!   streams (e.g. the `row < m && col < n` guard),
//! * **flops** — tallied by the kernel through [`ThreadCtx::tally_flops`],
//! * **occupancy** — the classic limits calculation from block size and
//!   shared-memory usage.
//!
//! Execution is *functional and deterministic*: every thread really runs,
//! results are bit-exact, and the counters feed the analytical timing
//! model in `perfport-machines` the way `nvprof` counters feed a roofline
//! analysis. Warps are 32-wide on NVIDIA-class devices and 64-wide
//! (wavefronts) on AMD-class devices.
//!
//! Intra-block synchronisation (`__syncthreads`) is supported through the
//! phase-stepped [`cooperative`] interface: a block's threads all finish
//! phase *p* before any enters phase *p + 1*, which realises barrier
//! semantics deterministically without one OS thread per GPU thread.

pub mod buffer;
pub mod coalesce;
pub mod cooperative;
pub mod ctx;
pub mod device;
pub mod dim;
mod driver;
pub mod kernels;
pub mod launch;
pub mod occupancy;
pub mod stats;

pub use buffer::{DeviceAtomicAdd, DeviceBuffer};
pub use cooperative::{CooperativeKernel, SharedMem, SMEM_BANKS};
pub use ctx::ThreadCtx;
pub use device::DeviceClass;
pub use dim::Dim3;
pub use launch::{Gpu, LaunchConfig, LaunchError, LaunchOptions};
pub use occupancy::{occupancy, Occupancy, OccupancyLimiter};
pub use stats::LaunchStats;
