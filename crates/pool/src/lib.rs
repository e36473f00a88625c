//! An OpenMP-like work-sharing runtime.
//!
//! The paper compares four CPU programming models that all reduce to the
//! same execution shape: a persistent team of threads that includes the
//! one reaching the loop, a `parallel for` over an index space, a loop
//! schedule (OpenMP `static`/`dynamic`/
//! `guided`, Julia `@threads :static`, Numba `prange`), and an optional
//! thread-affinity policy (`OMP_PROC_BIND`/`OMP_PLACES`, `JULIA_EXCLUSIVE`;
//! Numba notably has none). This crate is that substrate, built from
//! scratch on `crossbeam` channels and `parking_lot` primitives.
//!
//! Fork-join is the crate's only execution discipline: every parallel
//! entry point (`parallel_for`, `parallel_map`, `parallel_reduce`) is a
//! work-sharing loop over one region, and a loop of at most one item runs
//! on the calling thread instead of forking one. The pieces:
//!
//! * [`ThreadPool`] — a persistent team with fork-join semantics and panic
//!   propagation (the "OpenMP runtime"). The calling thread is team member
//!   0, like OpenMP's master thread, so a team of `n` spawns `n − 1`
//!   workers and a team of one runs every region on the caller.
//! * [`Schedule`] — static (block or round-robin chunked), dynamic, and
//!   guided loop schedules, implemented exactly as the OpenMP 5.x
//!   specification describes them.
//! * [`CpuTopology`] / [`PinPolicy`] — affinity bookkeeping. Placement is
//!   *recorded*, not enforced with `sched_setaffinity` (no `libc`
//!   dependency, and containers routinely mask CPU sets); the analytical
//!   timing models in `perfport-machines` consume the recorded placement to
//!   model NUMA locality, which is the effect the paper attributes to
//!   pinning.
//! * [`RegionStats`] — per-region instrumentation: items and chunks per
//!   thread, load imbalance, fork-join overhead and end-barrier wait.
//! * [`SenseBarrier`] — a reusable sense-reversing barrier.
//! * [`DisjointSlice`] — safe disjoint mutable access for row-parallel
//!   kernels.
//! * [`CachePadded`] / [`CacheInfo`] — false-sharing padding for hot
//!   shared atomics, and cache capacities for cache-aware blocking.

mod barrier;
mod pad;
mod pool;
mod reduce;
mod schedule;
mod slice;
mod stats;
mod topology;

pub use barrier::SenseBarrier;
pub use pad::CachePadded;
pub use pool::{ForContext, ThreadPool};
pub use schedule::{Chunk, Schedule, StaticChunks};
pub use slice::DisjointSlice;
pub use stats::RegionStats;
pub use topology::{CacheInfo, CacheSource, CpuTopology, PinPolicy, Placement};
