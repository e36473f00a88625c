//! The launch engine: grid iteration, host-parallel block execution,
//! counter aggregation, and optional data-race detection.

use crate::buffer::{DeviceBuffer, DeviceCopy};
use crate::ctx::{Access, ThreadCtx};
use crate::device::DeviceClass;
use crate::dim::Dim3;
use crate::driver::{drive_blocks, host_threads, lock, WarpLanes};
use crate::stats::LaunchStats;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Grid and block shape of a launch — the `<<<grid, block>>>` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Blocks in the grid.
    pub grid: Dim3,
    /// Threads per block.
    pub block: Dim3,
}

impl LaunchConfig {
    /// A 1-D launch covering `n` threads with `block`-sized blocks.
    pub fn cover1d(n: u32, block: u32) -> Self {
        LaunchConfig {
            grid: Dim3::cover(Dim3::d1(n.max(1)), Dim3::d1(block)),
            block: Dim3::d1(block),
        }
    }

    /// A 2-D launch covering an `nx × ny` problem — the paper's GEMM grid
    /// with 32×32 thread blocks.
    pub fn cover2d(nx: u32, ny: u32, block: Dim3) -> Self {
        LaunchConfig {
            grid: Dim3::cover(Dim3::d2(nx.max(1), ny.max(1)), block),
            block,
        }
    }

    /// Checks the configuration against device limits.
    pub fn validate(&self, class: DeviceClass) -> Result<(), LaunchError> {
        if self.grid.count() == 0 || self.block.count() == 0 {
            return Err(LaunchError::InvalidConfig(
                "grid and block extents must be non-zero".into(),
            ));
        }
        let per_block = self.block.count();
        if per_block > class.max_threads_per_block() as u64 {
            return Err(LaunchError::InvalidConfig(format!(
                "block has {per_block} threads, device limit is {}",
                class.max_threads_per_block()
            )));
        }
        Ok(())
    }

    /// Total threads in the launch.
    pub fn total_threads(&self) -> u64 {
        self.grid.count() * self.block.count()
    }
}

/// Knobs for one launch.
#[derive(Debug, Clone, Copy, Default)]
pub struct LaunchOptions {
    /// Host threads used to simulate blocks in parallel; `0` = one per
    /// available core.
    pub host_threads: usize,
    /// Record every thread's accesses and report write-write or
    /// cross-thread read-write sharing. Forces serial simulation; intended
    /// for kernel debugging at small sizes (compare `compute-sanitizer
    /// --tool racecheck`). Plain launches only: barriers order a
    /// cooperative kernel's accesses, which this detector cannot see, so
    /// [`Gpu::launch_cooperative`] rejects it with
    /// [`LaunchError::InvalidConfig`].
    pub detect_races: bool,
}

/// Launch failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchError {
    /// The grid/block shape violates a device limit.
    InvalidConfig(String),
    /// Two simulated threads raced on a global address (race detector
    /// enabled).
    DataRace {
        /// Conflicting simulated address.
        addr: u64,
        /// Global linear id of the first thread involved.
        thread_a: u64,
        /// Global linear id of the second thread involved.
        thread_b: u64,
    },
    /// Threads of one block disagreed about continuing at a barrier
    /// (cooperative launches) — undefined behaviour on real hardware.
    BarrierDivergence {
        /// The offending block.
        block: Dim3,
        /// The phase at which lanes disagreed.
        phase: usize,
    },
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaunchError::InvalidConfig(msg) => write!(f, "invalid launch config: {msg}"),
            LaunchError::DataRace {
                addr,
                thread_a,
                thread_b,
            } => write!(
                f,
                "data race on device address {addr:#x} between threads {thread_a} and {thread_b}"
            ),
            LaunchError::BarrierDivergence { block, phase } => {
                write!(f, "barrier divergence in block {block} at phase {phase}")
            }
        }
    }
}

impl std::error::Error for LaunchError {}

/// A simulated GPU: an address space for buffers plus the launch engine.
///
/// ```
/// use perfport_gpusim::{DeviceClass, Gpu, LaunchConfig};
///
/// let gpu = Gpu::new(DeviceClass::NvidiaLike);
/// let xs = gpu.alloc_from_slice(&[1.0f32, 2.0, 3.0, 4.0]);
/// let ys = gpu.alloc_filled(4, 0.0f32);
/// let stats = gpu
///     .launch(LaunchConfig::cover1d(4, 32), |t| {
///         let i = t.global_x();
///         if i < 4 {
///             ys.write(t, i, xs.read(t, i) * 10.0);
///             t.tally_flops(1);
///         }
///     })
///     .unwrap();
/// assert_eq!(ys.to_host(), vec![10.0, 20.0, 30.0, 40.0]);
/// assert_eq!(stats.flops, 4);
/// ```
pub struct Gpu {
    class: DeviceClass,
    next_base: AtomicU64,
    next_id: AtomicU32,
}

/// Alignment of simulated allocations (matches `cudaMalloc`'s 256-byte
/// guarantee, and keeps buffers from sharing cache lines).
const ALLOC_ALIGN: u64 = 256;

impl Gpu {
    /// Creates a device of the given class.
    pub fn new(class: DeviceClass) -> Self {
        Gpu {
            class,
            next_base: AtomicU64::new(ALLOC_ALIGN),
            next_id: AtomicU32::new(0),
        }
    }

    /// The device's execution class.
    pub fn class(&self) -> DeviceClass {
        self.class
    }

    fn bump(&self, bytes: u64) -> (u32, u64) {
        let size = bytes.max(1).div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN;
        let base = self.next_base.fetch_add(size, Ordering::Relaxed);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        (id, base)
    }

    /// Copies a host slice into a fresh device buffer (`cudaMemcpy` H2D).
    pub fn alloc_from_slice<T: DeviceCopy>(&self, host: &[T]) -> DeviceBuffer<T> {
        let (id, base) = self.bump(std::mem::size_of_val(host) as u64);
        DeviceBuffer::new(id, base, host.to_vec())
    }

    /// Allocates `len` elements initialised to `value`.
    pub fn alloc_filled<T: DeviceCopy>(&self, len: usize, value: T) -> DeviceBuffer<T> {
        let (id, base) = self.bump((len * std::mem::size_of::<T>()) as u64);
        DeviceBuffer::new(id, base, vec![value; len])
    }

    /// Launches `kernel` over `cfg` with default options.
    ///
    /// # Errors
    ///
    /// Returns [`LaunchError::InvalidConfig`] for illegal shapes.
    ///
    /// # Panics
    ///
    /// Propagates kernel panics (e.g. out-of-bounds buffer access — the
    /// simulator's illegal-address fault).
    pub fn launch<F>(&self, cfg: LaunchConfig, kernel: F) -> Result<LaunchStats, LaunchError>
    where
        F: Fn(&ThreadCtx) + Sync,
    {
        self.launch_with(cfg, LaunchOptions::default(), kernel)
    }

    /// Launches with explicit [`LaunchOptions`].
    pub fn launch_with<F>(
        &self,
        cfg: LaunchConfig,
        opts: LaunchOptions,
        kernel: F,
    ) -> Result<LaunchStats, LaunchError>
    where
        F: Fn(&ThreadCtx) + Sync,
    {
        cfg.validate(self.class)?;
        let mut sp = perfport_trace::span("gpu", "launch");
        let start = Instant::now();
        let class = self.class;
        let requested = if opts.detect_races {
            1
        } else {
            opts.host_threads
        };
        let host_threads = host_threads(requested, cfg.grid.count());
        let race_log: Mutex<Vec<(u64, Vec<Access>)>> = Mutex::new(Vec::new());

        let mut stats = drive_blocks(
            cfg,
            host_threads,
            class.transaction_bytes(),
            || WarpLanes::new(class, cfg, opts.detect_races),
            |lanes, block_idx, local| {
                for w in 0..lanes.warps_per_block() {
                    lanes.run_warp(w, block_idx, local, |_, ctx| {
                        kernel(ctx);
                        if opts.detect_races {
                            lock(&race_log).push((ctx.global_linear(), ctx.take_log()));
                        }
                        Ok(())
                    })?;
                }
                Ok(())
            },
        )?;

        if opts.detect_races {
            check_races(
                &race_log
                    .into_inner()
                    .unwrap_or_else(PoisonError::into_inner),
            )?;
        }

        stats.sim_time = start.elapsed();
        if sp.is_recording() {
            let occ = crate::occupancy::occupancy(class, cfg.block.count() as u32, 0);
            sp.arg("class", format!("{class:?}"));
            sp.arg("grid", cfg.grid.to_string());
            sp.arg("block", cfg.block.to_string());
            sp.arg("host_threads", host_threads);
            sp.arg("blocks", stats.blocks);
            sp.arg("threads", stats.threads);
            sp.arg("flops", stats.flops);
            sp.arg("load_transactions", stats.load_transactions);
            sp.arg("store_transactions", stats.store_transactions);
            sp.arg("divergent_warps", stats.divergent_warps);
            sp.arg("occupancy", occ.fraction);
            sp.arg("occupancy_limiter", format!("{:?}", occ.limiter));
            perfport_trace::counter(
                "gpu",
                "coalescing_efficiency",
                stats.coalescing_efficiency(),
            );
        }
        Ok(stats)
    }
}

/// Scans the full access trace for unsynchronised sharing: two distinct
/// threads writing one address, or one thread reading an address another
/// thread wrote. In a data-parallel launch (no cross-block or cross-warp
/// ordering), any such sharing is a race.
fn check_races(trace: &[(u64, Vec<Access>)]) -> Result<(), LaunchError> {
    let mut writers: HashMap<u64, u64> = HashMap::new();
    for (tid, log) in trace {
        for a in log.iter().filter(|a| a.store && !a.atomic) {
            if let Some(&other) = writers.get(&a.addr) {
                if other != *tid {
                    return Err(LaunchError::DataRace {
                        addr: a.addr,
                        thread_a: other,
                        thread_b: *tid,
                    });
                }
            } else {
                writers.insert(a.addr, *tid);
            }
        }
    }
    for (tid, log) in trace {
        for a in log.iter().filter(|a| !a.store && !a.atomic) {
            if let Some(&w) = writers.get(&a.addr) {
                if w != *tid {
                    return Err(LaunchError::DataRace {
                        addr: a.addr,
                        thread_a: w,
                        thread_b: *tid,
                    });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_add_runs_and_counts() {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let n = 1000u32;
        let a = gpu.alloc_from_slice(&(0..n).map(|i| i as f32).collect::<Vec<_>>());
        let b = gpu.alloc_from_slice(&vec![2.0f32; n as usize]);
        let c = gpu.alloc_filled(n as usize, 0.0f32);
        let cfg = LaunchConfig::cover1d(n, 128);
        let stats = gpu
            .launch(cfg, |t| {
                let i = t.global_x();
                if i < n as usize {
                    let v = a.read(t, i) + b.read(t, i);
                    c.write(t, i, v);
                    t.tally_flops(1);
                }
            })
            .unwrap();
        for i in 0..n as usize {
            assert_eq!(c.get(i), i as f32 + 2.0);
        }
        assert_eq!(stats.flops, n as u64);
        assert_eq!(stats.loads, 2 * n as u64);
        assert_eq!(stats.stores, n as u64);
        assert_eq!(stats.blocks, 8);
        assert_eq!(stats.threads, 8 * 128);
        // 1000 of 1024 threads active: the tail warp is divergent.
        assert_eq!(stats.divergent_warps, 1);
    }

    #[test]
    fn coalesced_vs_strided_transactions() {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let n = 1024usize;
        let src = gpu.alloc_filled(n * 32, 1.0f32);
        let dst = gpu.alloc_filled(n, 0.0f32);
        let cfg = LaunchConfig::cover1d(n as u32, 256);

        let coalesced = gpu
            .launch(cfg, |t| {
                let i = t.global_x();
                dst.write(t, i, src.read(t, i));
            })
            .unwrap();
        let strided = gpu
            .launch(cfg, |t| {
                let i = t.global_x();
                dst.write(t, i, src.read(t, i * 32));
            })
            .unwrap();
        // 32 f32 per 128-byte line: coalesced warp = 1 transaction, stride
        // 32 puts every lane in its own line.
        assert_eq!(coalesced.load_transactions, (n / 32) as u64);
        assert_eq!(strided.load_transactions, n as u64);
        assert!(strided.coalescing_efficiency() < coalesced.coalescing_efficiency());
    }

    #[test]
    fn grid2_semantics_match_cuda() {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let out = gpu.alloc_filled(16 * 8, 0u32);
        let cfg = LaunchConfig::cover2d(16, 8, Dim3::d2(4, 4));
        gpu.launch(cfg, |t| {
            let (x, y) = t.grid2();
            if x < 16 && y < 8 {
                out.write(t, y * 16 + x, (1000 * y + x) as u32);
            }
        })
        .unwrap();
        for y in 0..8 {
            for x in 0..16 {
                assert_eq!(out.get(y * 16 + x), (1000 * y + x) as u32);
            }
        }
    }

    #[test]
    fn amd_wavefronts_change_warp_count() {
        let na = Gpu::new(DeviceClass::NvidiaLike);
        let aa = Gpu::new(DeviceClass::AmdLike);
        let cfg = LaunchConfig::cover1d(512, 256);
        let sn = na.launch(cfg, |_t| {}).unwrap();
        let sa = aa.launch(cfg, |_t| {}).unwrap();
        assert_eq!(sn.warps, 2 * 8); // 256/32 per block × 2 blocks
        assert_eq!(sa.warps, 2 * 4); // 256/64 per block × 2 blocks
    }

    #[test]
    fn invalid_configs_rejected() {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let too_big = LaunchConfig {
            grid: Dim3::d1(1),
            block: Dim3::d2(64, 32),
        };
        assert!(matches!(
            gpu.launch(too_big, |_t| {}),
            Err(LaunchError::InvalidConfig(_))
        ));
        let empty = LaunchConfig {
            grid: Dim3::d1(1),
            block: Dim3 { x: 0, y: 1, z: 1 },
        };
        assert!(gpu.launch(empty, |_t| {}).is_err());
    }

    #[test]
    #[should_panic(expected = "illegal device address")]
    fn out_of_bounds_access_faults() {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let buf = gpu.alloc_filled(8, 0.0f32);
        let cfg = LaunchConfig::cover1d(32, 32);
        let _ = gpu.launch(cfg, |t| {
            // No bounds guard: threads 8..32 fault.
            buf.write(t, t.global_x(), 1.0);
        });
    }

    #[test]
    fn race_detector_catches_write_write() {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let buf = gpu.alloc_filled(1, 0u32);
        let cfg = LaunchConfig::cover1d(64, 32);
        let opts = LaunchOptions {
            detect_races: true,
            ..Default::default()
        };
        let err = gpu
            .launch_with(cfg, opts, |t| {
                buf.write(t, 0, t.global_x() as u32);
            })
            .unwrap_err();
        assert!(matches!(err, LaunchError::DataRace { .. }));
    }

    #[test]
    fn race_detector_catches_read_write_sharing() {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let buf = gpu.alloc_filled(64, 0u32);
        let cfg = LaunchConfig::cover1d(64, 32);
        let opts = LaunchOptions {
            detect_races: true,
            ..Default::default()
        };
        let err = gpu
            .launch_with(cfg, opts, |t| {
                let i = t.global_x();
                // Neighbour read of a written cell: racy.
                let v = buf.read(t, (i + 1) % 64);
                buf.write(t, i, v + 1);
            })
            .unwrap_err();
        assert!(matches!(err, LaunchError::DataRace { .. }));
    }

    #[test]
    fn race_free_kernel_passes_detector() {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let a = gpu.alloc_filled(64, 1u32);
        let b = gpu.alloc_filled(64, 0u32);
        let cfg = LaunchConfig::cover1d(64, 32);
        let opts = LaunchOptions {
            detect_races: true,
            ..Default::default()
        };
        let stats = gpu
            .launch_with(cfg, opts, |t| {
                let i = t.global_x();
                b.write(t, i, a.read(t, i) * 2);
            })
            .unwrap();
        assert_eq!(stats.threads, 64);
        assert!(b.to_host().iter().all(|&x| x == 2));
    }

    #[test]
    fn deterministic_across_host_parallelism() {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let n = 4096;
        let src = gpu.alloc_from_slice(&(0..n).map(|i| i as f32).collect::<Vec<_>>());
        let d1 = gpu.alloc_filled(n, 0.0f32);
        let d2 = gpu.alloc_filled(n, 0.0f32);
        let cfg = LaunchConfig::cover1d(n as u32, 128);
        let serial = gpu
            .launch_with(
                cfg,
                LaunchOptions {
                    host_threads: 1,
                    detect_races: false,
                },
                |t| {
                    let i = t.global_x();
                    d1.write(t, i, src.read(t, i) * 3.0);
                },
            )
            .unwrap();
        let parallel = gpu
            .launch(cfg, |t| {
                let i = t.global_x();
                d2.write(t, i, src.read(t, i) * 3.0);
            })
            .unwrap();
        assert_eq!(d1.to_host(), d2.to_host());
        assert_eq!(serial.loads, parallel.loads);
        assert_eq!(serial.load_transactions, parallel.load_transactions);
        assert_eq!(serial.divergent_warps, parallel.divergent_warps);
    }

    #[test]
    fn allocations_do_not_share_lines() {
        let gpu = Gpu::new(DeviceClass::NvidiaLike);
        let a = gpu.alloc_filled(3, 0u8);
        let b = gpu.alloc_filled(3, 0u8);
        assert!(b.base_addr() >= a.base_addr() + 256 || a.base_addr() >= b.base_addr() + 256);
        assert_ne!(a.id(), b.id());
    }
}
