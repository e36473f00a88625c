//! The block driver both launch engines share: host threads claim blocks
//! from one cursor, run a per-block body with their own scratch, and merge
//! their counters at the end. The first fault — a kernel panic or a
//! launch error — stops every host thread from claiming further blocks and
//! reaches the caller unchanged.

use crate::ctx::ThreadCtx;
use crate::device::DeviceClass;
use crate::dim::Dim3;
use crate::launch::{LaunchConfig, LaunchError};
use crate::stats::LaunchStats;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`. No kernel runs while the driver's locks are held, and each
/// block runs under `catch_unwind`, so a poisoned lock guards nothing
/// broken and is taken as it is.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Host threads for a launch of `n_blocks` blocks: `requested`, or one per
/// available core when it is 0, but never more than there are blocks.
pub(crate) fn host_threads(requested: usize, n_blocks: u64) -> usize {
    let requested = if requested == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        requested
    };
    requested.min(n_blocks as usize).max(1)
}

enum Fault {
    Panic(Box<dyn Any + Send>),
    Error(LaunchError),
}

/// Runs `body` once for every block of `cfg` on `host_threads` host
/// threads and returns the merged counters. Each host thread builds its
/// scratch with `init` and passes it to every block it claims, together
/// with the block index and its own counters; the driver counts the
/// blocks and their threads.
///
/// # Panics
///
/// Resumes the first kernel panic with its original payload (e.g. the
/// illegal-address fault).
pub(crate) fn drive_blocks<W, I, B>(
    cfg: LaunchConfig,
    host_threads: usize,
    line_bytes: u64,
    init: I,
    body: B,
) -> Result<LaunchStats, LaunchError>
where
    I: Fn() -> W + Sync,
    B: Fn(&mut W, Dim3, &mut LaunchStats) -> Result<(), LaunchError> + Sync,
{
    let n_blocks = cfg.grid.count();
    let next_block = AtomicU64::new(0);
    let totals = Mutex::new(LaunchStats {
        line_bytes,
        ..Default::default()
    });
    let fault: Mutex<Option<Fault>> = Mutex::new(None);

    // The calling thread is one of the host threads.
    let worker = || {
        let mut scratch = init();
        let mut local = LaunchStats {
            line_bytes,
            ..Default::default()
        };
        while lock(&fault).is_none() {
            let b = next_block.fetch_add(1, Ordering::Relaxed);
            if b >= n_blocks {
                break;
            }
            local.blocks += 1;
            local.threads += cfg.block.count();
            let block_idx = cfg.grid.delinearize(b);
            let failed = match catch_unwind(AssertUnwindSafe(|| {
                body(&mut scratch, block_idx, &mut local)
            })) {
                Ok(Ok(())) => continue,
                Ok(Err(err)) => Fault::Error(err),
                Err(payload) => Fault::Panic(payload),
            };
            lock(&fault).get_or_insert(failed);
            return;
        }
        lock(&totals).merge(&local);
    };
    std::thread::scope(|s| {
        for _ in 1..host_threads {
            s.spawn(worker);
        }
        worker();
    });

    match fault.into_inner().unwrap_or_else(PoisonError::into_inner) {
        Some(Fault::Panic(payload)) => resume_unwind(payload),
        Some(Fault::Error(err)) => Err(err),
        None => Ok(totals.into_inner().unwrap_or_else(PoisonError::into_inner)),
    }
}

/// One host thread's view of a launch's warps: the context it points at
/// each GPU thread in turn, whose tally counts a warp as its lanes run.
pub(crate) struct WarpLanes {
    ctx: ThreadCtx,
    /// `threadIdx` of every thread of a block, by linear index.
    thread_idx: Vec<Dim3>,
    warp: u64,
}

impl WarpLanes {
    /// Warp scratch for `cfg` on `class`, keeping each thread's accesses
    /// for the race detector when `keep_log` is set.
    pub(crate) fn new(class: DeviceClass, cfg: LaunchConfig, keep_log: bool) -> Self {
        WarpLanes {
            ctx: ThreadCtx::new(class, cfg.grid, cfg.block, keep_log),
            thread_idx: cfg.block.iter().collect(),
            warp: class.warp_size() as u64,
        }
    }

    /// Warps in one block, the last one possibly partial.
    pub(crate) fn warps_per_block(&self) -> u64 {
        (self.thread_idx.len() as u64).div_ceil(self.warp)
    }

    /// Runs warp `w` of `block_idx`: `thread(lin, ctx)` runs the thread at
    /// linear index `lin` in the block. Counts the warp, its flops and
    /// atomics and its coalescing into `local`; the first error ends the
    /// warp.
    pub(crate) fn run_warp<F>(
        &mut self,
        w: u64,
        block_idx: Dim3,
        local: &mut LaunchStats,
        mut thread: F,
    ) -> Result<(), LaunchError>
    where
        F: FnMut(u64, &ThreadCtx) -> Result<(), LaunchError>,
    {
        let first = w * self.warp;
        let last = (first + self.warp).min(self.thread_idx.len() as u64);
        local.warps += 1;
        self.ctx.begin_warp(block_idx);
        for lin in first..last {
            self.ctx.thread_idx = self.thread_idx[lin as usize];
            thread(lin, &self.ctx)?;
            self.ctx.end_lane();
        }
        self.ctx.finish_warp(local);
        Ok(())
    }
}
