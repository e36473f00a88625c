//! The block driver both launch engines share: host threads claim blocks
//! from one cursor, run a per-block body with their own scratch, and merge
//! their counters at the end. The first fault — a kernel panic or a
//! launch error — stops every host thread from claiming further blocks and
//! reaches the caller unchanged.

use crate::coalesce::Coalescer;
use crate::ctx::{Access, ThreadCtx};
use crate::device::DeviceClass;
use crate::dim::Dim3;
use crate::launch::{LaunchConfig, LaunchError};
use crate::stats::LaunchStats;
use parking_lot::Mutex;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

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

    std::thread::scope(|s| {
        for _ in 0..host_threads {
            s.spawn(|| {
                let mut scratch = init();
                let mut local = LaunchStats {
                    line_bytes,
                    ..Default::default()
                };
                while fault.lock().is_none() {
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
                    fault.lock().get_or_insert(failed);
                    return;
                }
                totals.lock().merge(&local);
            });
        }
    });

    match fault.into_inner() {
        Some(Fault::Panic(payload)) => resume_unwind(payload),
        Some(Fault::Error(err)) => Err(err),
        None => Ok(totals.into_inner()),
    }
}

/// One host thread's lane logs, recycled across every warp it runs, and
/// the coalescing scratch that analyses them.
pub(crate) struct WarpLanes {
    class: DeviceClass,
    cfg: LaunchConfig,
    /// `threadIdx` of every thread of a block, by linear index.
    thread_idx: Vec<Dim3>,
    logs: Vec<Vec<Access>>,
    coalescer: Coalescer,
}

impl WarpLanes {
    pub(crate) fn new(class: DeviceClass, cfg: LaunchConfig) -> Self {
        WarpLanes {
            class,
            cfg,
            thread_idx: cfg.block.iter().collect(),
            logs: vec![Vec::new(); class.warp_size() as usize],
            coalescer: Coalescer::default(),
        }
    }

    /// Warps in one block, the last one possibly partial.
    pub(crate) fn warps_per_block(&self) -> u64 {
        (self.thread_idx.len() as u64).div_ceil(self.logs.len() as u64)
    }

    /// Runs warp `w` of `block_idx`: `thread(lane, lin, ctx)` runs the
    /// thread at linear index `lin` in the block, recording into `lane`'s
    /// log. Counts the warp, its flops and atomics and its coalescing
    /// into `local`; the first error ends the warp.
    pub(crate) fn run_warp<F>(
        &mut self,
        w: u64,
        block_idx: Dim3,
        local: &mut LaunchStats,
        mut thread: F,
    ) -> Result<(), LaunchError>
    where
        F: FnMut(usize, u64, &ThreadCtx) -> Result<(), LaunchError>,
    {
        let warp = self.logs.len() as u64;
        let lane_count = warp.min(self.thread_idx.len() as u64 - w * warp) as usize;
        local.warps += 1;
        for lane in 0..lane_count {
            let lin = w * warp + lane as u64;
            let ctx = ThreadCtx::with_log(
                self.class,
                self.cfg.grid,
                self.cfg.block,
                block_idx,
                self.thread_idx[lin as usize],
                std::mem::take(&mut self.logs[lane]),
            );
            thread(lane, lin, &ctx)?;
            let (obs, log) = ctx.take_observations();
            self.logs[lane] = log;
            local.flops += obs.flops;
            local.atomic_ops += obs.atomics;
        }
        let line_bytes = self.class.transaction_bytes();
        local.absorb_warp(&self.coalescer.analyze(&self.logs[..lane_count], line_bytes));
        Ok(())
    }
}
