//! Per-thread kernel context: CUDA-style indices plus instrumentation.

use crate::coalesce::WarpTally;
use crate::device::DeviceClass;
use crate::dim::Dim3;
use crate::stats::LaunchStats;
use std::cell::{Cell, RefCell};

/// One recorded global-memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Simulated device address.
    pub addr: u64,
    /// Access width in bytes.
    pub bytes: u8,
    /// `true` for stores.
    pub store: bool,
    /// `true` for atomic read-modify-write operations (exempt from race
    /// detection, counted separately).
    pub atomic: bool,
}

/// The view a kernel thread has of itself — `threadIdx`, `blockIdx`,
/// `blockDim`, `gridDim` — plus the hooks the simulator uses to observe
/// the thread (the warp's access tally, the flop count).
///
/// An engine keeps one context per host thread and points it at each GPU
/// thread in turn, so the counts of a whole warp gather in one tally.
pub struct ThreadCtx {
    /// `blockIdx`.
    pub block_idx: Dim3,
    /// `threadIdx`.
    pub thread_idx: Dim3,
    /// `gridDim`.
    pub grid_dim: Dim3,
    /// `blockDim`.
    pub block_dim: Dim3,
    /// The device class executing this thread.
    pub device: DeviceClass,
    flops: Cell<u64>,
    tally: RefCell<WarpTally>,
}

impl ThreadCtx {
    /// A context for the threads of a `grid_dim` × `block_dim` launch on
    /// `device`, at thread 0 of block 0. It keeps each thread's accesses
    /// for the race detector when `keep_log` is set.
    pub(crate) fn new(
        device: DeviceClass,
        grid_dim: Dim3,
        block_dim: Dim3,
        keep_log: bool,
    ) -> Self {
        ThreadCtx {
            block_idx: Dim3::at1(0),
            thread_idx: Dim3::at1(0),
            grid_dim,
            block_dim,
            device,
            flops: Cell::new(0),
            tally: RefCell::new(WarpTally::new(device.transaction_bytes(), keep_log)),
        }
    }

    /// `blockIdx.x * blockDim.x + threadIdx.x`.
    #[inline]
    pub fn global_x(&self) -> usize {
        (self.block_idx.x * self.block_dim.x + self.thread_idx.x) as usize
    }

    /// `blockIdx.y * blockDim.y + threadIdx.y`.
    #[inline]
    pub fn global_y(&self) -> usize {
        (self.block_idx.y * self.block_dim.y + self.thread_idx.y) as usize
    }

    /// `blockIdx.z * blockDim.z + threadIdx.z`.
    #[inline]
    pub fn global_z(&self) -> usize {
        (self.block_idx.z * self.block_dim.z + self.thread_idx.z) as usize
    }

    /// Numba's `cuda.grid(2)`: the `(x, y)` global coordinates.
    #[inline]
    pub fn grid2(&self) -> (usize, usize) {
        (self.global_x(), self.global_y())
    }

    /// Linear thread index within the block (`x` fastest) — the index
    /// warps are formed from.
    #[inline]
    pub fn linear_in_block(&self) -> u64 {
        self.block_dim.linear(self.thread_idx)
    }

    /// Lane within the warp/wavefront.
    #[inline]
    pub fn lane(&self) -> u32 {
        (self.linear_in_block() % self.device.warp_size() as u64) as u32
    }

    /// Warp/wavefront index within the block.
    #[inline]
    pub fn warp_in_block(&self) -> u64 {
        self.linear_in_block() / self.device.warp_size() as u64
    }

    /// Globally unique linear thread id.
    #[inline]
    pub fn global_linear(&self) -> u64 {
        self.grid_dim.linear(self.block_idx) * self.block_dim.count() + self.linear_in_block()
    }

    /// Credits `n` floating-point operations to this thread. Kernels call
    /// this the way real kernels are profiled for flop counts; the GEMM
    /// kernels tally two flops per multiply-add.
    #[inline]
    pub fn tally_flops(&self, n: u64) {
        self.flops.set(self.flops.get() + n);
    }

    #[inline(always)]
    pub(crate) fn record_load(&self, addr: u64, bytes: u8) {
        self.tally.borrow_mut().record(addr, bytes, false, false);
    }

    #[inline(always)]
    pub(crate) fn record_store(&self, addr: u64, bytes: u8) {
        self.tally.borrow_mut().record(addr, bytes, true, false);
    }

    #[inline(always)]
    pub(crate) fn record_atomic(&self, addr: u64, bytes: u8) {
        self.tally.borrow_mut().record(addr, bytes, true, true);
    }

    /// Takes this thread's accesses: empty unless the context keeps them.
    pub(crate) fn take_log(&self) -> Vec<Access> {
        self.tally.borrow_mut().take_log()
    }

    /// Starts a warp of `block_idx`, forgetting a warp left unfinished
    /// (one whose lane failed).
    pub(crate) fn begin_warp(&mut self, block_idx: Dim3) {
        self.block_idx = block_idx;
        self.flops.set(0);
        self.tally.get_mut().clear();
    }

    /// Closes the current thread's lane of the warp.
    #[inline]
    pub(crate) fn end_lane(&mut self) {
        self.tally.get_mut().end_lane();
    }

    /// Adds the finished warp's flops, atomics and coalescing to `stats`.
    pub(crate) fn finish_warp(&mut self, stats: &mut LaunchStats) {
        let tally = self.tally.get_mut();
        stats.flops += self.flops.take();
        stats.atomic_ops += tally.atomics();
        stats.absorb_warp(&tally.finish());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(block_idx: Dim3, thread_idx: Dim3) -> ThreadCtx {
        let mut c = ThreadCtx::new(
            DeviceClass::NvidiaLike,
            Dim3::d2(4, 4),
            Dim3::d2(8, 8),
            false,
        );
        c.block_idx = block_idx;
        c.thread_idx = thread_idx;
        c
    }

    #[test]
    fn global_coordinates() {
        let c = ctx(Dim3::at2(1, 2), Dim3::at2(3, 4));
        assert_eq!(c.global_x(), 8 + 3);
        assert_eq!(c.global_y(), 16 + 4);
        assert_eq!(c.grid2(), (11, 20));
        assert_eq!(c.global_z(), 0);
    }

    #[test]
    fn warp_formation_is_x_fastest() {
        // 8x8 block, warp size 32: rows 0..4 form warp 0.
        let c = ctx(Dim3::at2(0, 0), Dim3::at2(7, 3));
        assert_eq!(c.linear_in_block(), 31);
        assert_eq!(c.warp_in_block(), 0);
        assert_eq!(c.lane(), 31);
        let c = ctx(Dim3::at2(0, 0), Dim3::at2(0, 4));
        assert_eq!(c.warp_in_block(), 1);
        assert_eq!(c.lane(), 0);
    }

    #[test]
    fn global_linear_is_unique() {
        let mut seen = std::collections::HashSet::new();
        let grid = Dim3::d2(2, 2);
        let block = Dim3::d2(4, 4);
        let mut c = ThreadCtx::new(DeviceClass::NvidiaLike, grid, block, false);
        for b in grid.iter() {
            for t in block.iter() {
                c.block_idx = b;
                c.thread_idx = t;
                assert!(seen.insert(c.global_linear()));
            }
        }
        assert_eq!(seen.len(), 64);
    }

    #[test]
    fn flop_tally_accumulates() {
        let mut c = ctx(Dim3::at2(0, 0), Dim3::at2(0, 0));
        c.begin_warp(Dim3::at2(0, 0));
        c.tally_flops(10);
        c.tally_flops(32);
        c.end_lane();
        let mut stats = LaunchStats::default();
        c.finish_warp(&mut stats);
        assert_eq!(stats.flops, 42);
        assert_eq!(stats.atomic_ops, 0);
        assert_eq!(stats.active_warps, 0);
    }

    #[test]
    fn a_warp_tallies_its_lanes_flops_and_accesses() {
        let mut c = ctx(Dim3::at2(0, 0), Dim3::at2(0, 0));
        c.begin_warp(Dim3::at2(0, 0));
        for lane in 0..2 {
            c.tally_flops(10);
            c.tally_flops(11);
            c.record_load(0x100 + lane * 8, 8);
            c.record_atomic(0x200, 4);
            c.end_lane();
        }
        let mut stats = LaunchStats::default();
        c.finish_warp(&mut stats);
        assert_eq!(stats.flops, 42);
        assert_eq!(stats.atomic_ops, 2);
        assert_eq!((stats.loads, stats.stores), (2, 2));
        assert_eq!((stats.load_bytes, stats.store_bytes), (16, 8));
        assert_eq!((stats.load_transactions, stats.store_transactions), (1, 1));
        assert_eq!((stats.active_warps, stats.divergent_warps), (1, 0));
        assert!(c.take_log().is_empty(), "no log unless kept");
    }

    #[test]
    fn an_unfinished_warp_is_forgotten() {
        let mut c = ctx(Dim3::at2(0, 0), Dim3::at2(0, 0));
        c.begin_warp(Dim3::at2(0, 0));
        c.tally_flops(5);
        c.record_store(0x100, 8);
        c.begin_warp(Dim3::at2(1, 0));
        assert_eq!(c.block_idx, Dim3::at2(1, 0));
        let mut stats = LaunchStats::default();
        c.finish_warp(&mut stats);
        assert_eq!(stats, LaunchStats::default());
    }

    #[test]
    fn access_log_preserves_order_and_kind() {
        let c = ThreadCtx::new(DeviceClass::NvidiaLike, Dim3::d1(1), Dim3::d1(32), true);
        c.record_load(0x100, 8);
        c.record_store(0x200, 4);
        let log = c.take_log();
        assert_eq!(log.len(), 2);
        assert!(!log[0].store);
        assert_eq!(log[0].addr, 0x100);
        assert!(log[1].store);
        assert_eq!(log[1].bytes, 4);
        c.record_atomic(0x300, 8);
        assert_eq!(c.take_log().len(), 1, "each take starts a fresh log");
    }

    #[test]
    fn amd_wavefront_width() {
        let mut c = ThreadCtx::new(DeviceClass::AmdLike, Dim3::d1(1), Dim3::d1(128), false);
        c.thread_idx = Dim3::at1(100);
        assert_eq!(c.warp_in_block(), 1);
        assert_eq!(c.lane(), 36);
    }
}
