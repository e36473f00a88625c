//! Per-thread kernel context: CUDA-style indices plus instrumentation.

use crate::device::DeviceClass;
use crate::dim::Dim3;
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

/// Per-thread non-memory observations collected during execution.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Observations {
    pub flops: u64,
    pub atomics: u64,
}

/// The view a kernel thread has of itself — `threadIdx`, `blockIdx`,
/// `blockDim`, `gridDim` — plus the hooks the simulator uses to observe
/// the thread (memory access log, flop tally).
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
    atomics: Cell<u64>,
    log: RefCell<Vec<Access>>,
}

impl ThreadCtx {
    /// A context that records into `log`, cleared first. The engines hand
    /// each lane's log back in after the warp's analysis, so a log's
    /// allocation serves every thread that lane runs.
    pub(crate) fn with_log(
        device: DeviceClass,
        grid_dim: Dim3,
        block_dim: Dim3,
        block_idx: Dim3,
        thread_idx: Dim3,
        mut log: Vec<Access>,
    ) -> Self {
        log.clear();
        ThreadCtx {
            block_idx,
            thread_idx,
            grid_dim,
            block_dim,
            device,
            flops: Cell::new(0),
            atomics: Cell::new(0),
            log: RefCell::new(log),
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

    #[inline]
    pub(crate) fn record_load(&self, addr: u64, bytes: u8) {
        self.log.borrow_mut().push(Access {
            addr,
            bytes,
            store: false,
            atomic: false,
        });
    }

    #[inline]
    pub(crate) fn record_store(&self, addr: u64, bytes: u8) {
        self.log.borrow_mut().push(Access {
            addr,
            bytes,
            store: true,
            atomic: false,
        });
    }

    #[inline]
    pub(crate) fn record_atomic(&self, addr: u64, bytes: u8) {
        self.atomics.set(self.atomics.get() + 1);
        self.log.borrow_mut().push(Access {
            addr,
            bytes,
            store: true,
            atomic: true,
        });
    }

    /// A copy of the accesses recorded so far.
    pub(crate) fn log_copy(&self) -> Vec<Access> {
        self.log.borrow().clone()
    }

    pub(crate) fn take_observations(self) -> (Observations, Vec<Access>) {
        (
            Observations {
                flops: self.flops.get(),
                atomics: self.atomics.get(),
            },
            self.log.into_inner(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(block_idx: Dim3, thread_idx: Dim3) -> ThreadCtx {
        ThreadCtx::with_log(
            DeviceClass::NvidiaLike,
            Dim3::d2(4, 4),
            Dim3::d2(8, 8),
            block_idx,
            thread_idx,
            Vec::new(),
        )
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
        for b in grid.iter() {
            for t in block.iter() {
                let c = ThreadCtx::with_log(DeviceClass::NvidiaLike, grid, block, b, t, Vec::new());
                assert!(seen.insert(c.global_linear()));
            }
        }
        assert_eq!(seen.len(), 64);
    }

    #[test]
    fn flop_tally_accumulates() {
        let c = ctx(Dim3::at2(0, 0), Dim3::at2(0, 0));
        c.tally_flops(10);
        c.tally_flops(32);
        let (obs, log) = c.take_observations();
        assert_eq!(obs.flops, 42);
        assert_eq!(obs.atomics, 0);
        assert!(log.is_empty());
    }

    #[test]
    fn access_log_preserves_order_and_kind() {
        let c = ctx(Dim3::at2(0, 0), Dim3::at2(0, 0));
        c.record_load(0x100, 8);
        c.record_store(0x200, 4);
        let (_, log) = c.take_observations();
        assert_eq!(log.len(), 2);
        assert!(!log[0].store);
        assert_eq!(log[0].addr, 0x100);
        assert!(log[1].store);
        assert_eq!(log[1].bytes, 4);
    }

    #[test]
    fn recycled_log_starts_empty_and_keeps_its_allocation() {
        let c = ctx(Dim3::at2(0, 0), Dim3::at2(0, 0));
        c.record_load(0x100, 8);
        let (_, log) = c.take_observations();
        let capacity = log.capacity();
        let c = ThreadCtx::with_log(
            DeviceClass::NvidiaLike,
            Dim3::d1(1),
            Dim3::d1(32),
            Dim3::at1(0),
            Dim3::at1(1),
            log,
        );
        c.record_store(0x200, 4);
        let (_, log) = c.take_observations();
        assert_eq!(log.len(), 1);
        assert!(log[0].store);
        assert_eq!(log.capacity(), capacity);
    }

    #[test]
    fn amd_wavefront_width() {
        let c = ThreadCtx::with_log(
            DeviceClass::AmdLike,
            Dim3::d1(1),
            Dim3::d1(128),
            Dim3::at1(0),
            Dim3::at1(100),
            Vec::new(),
        );
        assert_eq!(c.warp_in_block(), 1);
        assert_eq!(c.lane(), 36);
    }
}
