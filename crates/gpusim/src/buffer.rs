//! Device-global memory buffers.
//!
//! A [`DeviceBuffer`] owns typed storage plus a *simulated base address*
//! used by the coalescing analysis (so that accesses to different buffers
//! never alias a cache line). All element access — from kernel threads and
//! from the host — goes through per-element atomic loads/stores, which
//! keeps even a misbehaving (racy) kernel free of undefined behaviour in
//! the simulator; the optional race detector then reports such kernels
//! instead of the process corrupting itself.

use crate::ctx::ThreadCtx;
use std::cell::UnsafeCell;
use std::mem::{align_of, size_of};
use std::sync::atomic::{AtomicU16, AtomicU32, AtomicU64, AtomicU8, Ordering};

/// Element types storable in device memory: plain-old-data of a power-of-
/// two size up to 8 bytes with natural alignment (covers `f64`, `f32`,
/// `F16`, and the integer types).
pub trait DeviceCopy: Copy + Send + Sync + 'static {}
impl<T: Copy + Send + Sync + 'static> DeviceCopy for T {}

/// A typed allocation in simulated device-global memory.
pub struct DeviceBuffer<T> {
    data: Box<[UnsafeCell<T>]>,
    base: u64,
    id: u32,
}

// SAFETY: all access to the cells goes through atomic loads/stores of the
// element's bit pattern (see `load_raw`/`store_raw`), so concurrent use
// from multiple simulated threads cannot produce UB.
unsafe impl<T: DeviceCopy> Sync for DeviceBuffer<T> {}
unsafe impl<T: DeviceCopy> Send for DeviceBuffer<T> {}

fn assert_supported<T>() {
    let s = size_of::<T>();
    assert!(
        matches!(s, 1 | 2 | 4 | 8) && align_of::<T>() >= s.min(align_of::<u64>()),
        "device elements must be 1/2/4/8 bytes with natural alignment"
    );
}

/// Atomically loads the bit pattern of the element behind `cell`.
///
/// # Safety
///
/// `cell` must be a live element of a `DeviceBuffer` (guaranteed by the
/// callers, which index-check first).
unsafe fn load_raw<T: Copy>(cell: &UnsafeCell<T>) -> T {
    let p = cell.get();
    // SAFETY: size/alignment validated at buffer construction; the atomic
    // types have the same layout as the corresponding integers.
    unsafe {
        match size_of::<T>() {
            1 => {
                let bits = (*(p as *const AtomicU8)).load(Ordering::Relaxed);
                std::mem::transmute_copy(&bits)
            }
            2 => {
                let bits = (*(p as *const AtomicU16)).load(Ordering::Relaxed);
                std::mem::transmute_copy(&bits)
            }
            4 => {
                let bits = (*(p as *const AtomicU32)).load(Ordering::Relaxed);
                std::mem::transmute_copy(&bits)
            }
            8 => {
                let bits = (*(p as *const AtomicU64)).load(Ordering::Relaxed);
                std::mem::transmute_copy(&bits)
            }
            _ => unreachable!("validated at construction"),
        }
    }
}

/// Atomically stores the bit pattern of `value` into `cell`.
///
/// # Safety
///
/// Same contract as [`load_raw`].
unsafe fn store_raw<T: Copy>(cell: &UnsafeCell<T>, value: T) {
    let p = cell.get();
    // SAFETY: as in `load_raw`.
    unsafe {
        match size_of::<T>() {
            1 => {
                let bits: u8 = std::mem::transmute_copy(&value);
                (*(p as *const AtomicU8)).store(bits, Ordering::Relaxed);
            }
            2 => {
                let bits: u16 = std::mem::transmute_copy(&value);
                (*(p as *const AtomicU16)).store(bits, Ordering::Relaxed);
            }
            4 => {
                let bits: u32 = std::mem::transmute_copy(&value);
                (*(p as *const AtomicU32)).store(bits, Ordering::Relaxed);
            }
            8 => {
                let bits: u64 = std::mem::transmute_copy(&value);
                (*(p as *const AtomicU64)).store(bits, Ordering::Relaxed);
            }
            _ => unreachable!("validated at construction"),
        }
    }
}

impl<T: DeviceCopy> DeviceBuffer<T> {
    pub(crate) fn new(id: u32, base: u64, host: Vec<T>) -> Self {
        assert_supported::<T>();
        let data = host
            .into_iter()
            .map(UnsafeCell::new)
            .collect::<Vec<_>>()
            .into_boxed_slice();
        DeviceBuffer { data, base, id }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The simulated device address of element 0.
    pub fn base_addr(&self) -> u64 {
        self.base
    }

    /// Allocation id within its [`crate::Gpu`].
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Simulated address of element `idx`.
    #[inline]
    pub fn addr_of(&self, idx: usize) -> u64 {
        self.base + (idx * size_of::<T>()) as u64
    }

    /// Device-side load: returns element `idx` and records the access on
    /// the calling thread (for coalescing analysis and traffic counters).
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access — the simulator's equivalent of
    /// `CUDA_ERROR_ILLEGAL_ADDRESS`.
    #[inline(always)]
    pub fn read(&self, ctx: &ThreadCtx, idx: usize) -> T {
        assert!(
            idx < self.data.len(),
            "illegal device address: load at index {idx} of buffer {} (len {})",
            self.id,
            self.data.len()
        );
        ctx.record_load(self.addr_of(idx), size_of::<T>() as u8);
        // SAFETY: bounds checked above.
        unsafe { load_raw(&self.data[idx]) }
    }

    /// Device-side store of `value` into element `idx`, recording the
    /// access.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access.
    #[inline(always)]
    pub fn write(&self, ctx: &ThreadCtx, idx: usize, value: T) {
        assert!(
            idx < self.data.len(),
            "illegal device address: store at index {idx} of buffer {} (len {})",
            self.id,
            self.data.len()
        );
        ctx.record_store(self.addr_of(idx), size_of::<T>() as u8);
        // SAFETY: bounds checked above.
        unsafe { store_raw(&self.data[idx], value) }
    }

    /// Host-side read (no traffic recorded) — a `cudaMemcpy` back.
    pub fn get(&self, idx: usize) -> T {
        assert!(idx < self.data.len(), "host read out of bounds");
        // SAFETY: bounds checked above.
        unsafe { load_raw(&self.data[idx]) }
    }

    /// Host-side write (no traffic recorded).
    pub fn set(&self, idx: usize, value: T) {
        assert!(idx < self.data.len(), "host write out of bounds");
        // SAFETY: bounds checked above.
        unsafe { store_raw(&self.data[idx], value) }
    }

    /// Copies the whole buffer back to the host.
    pub fn to_host(&self) -> Vec<T> {
        // SAFETY: indices in range by construction.
        self.data.iter().map(|c| unsafe { load_raw(c) }).collect()
    }
}

/// Element types supporting device atomics (`atomicAdd`).
pub trait DeviceAtomicAdd: DeviceCopy {
    /// Atomically adds `value` to the element behind `cell`, returning
    /// the previous value.
    ///
    /// # Safety
    ///
    /// `cell` must be a live element of a `DeviceBuffer`.
    unsafe fn raw_atomic_add(cell: &UnsafeCell<Self>, value: Self) -> Self;
}

impl DeviceAtomicAdd for u32 {
    unsafe fn raw_atomic_add(cell: &UnsafeCell<u32>, value: u32) -> u32 {
        // SAFETY: alignment/size validated at construction.
        unsafe { (*(cell.get() as *const AtomicU32)).fetch_add(value, Ordering::Relaxed) }
    }
}

impl DeviceAtomicAdd for u64 {
    unsafe fn raw_atomic_add(cell: &UnsafeCell<u64>, value: u64) -> u64 {
        // SAFETY: alignment/size validated at construction.
        unsafe { (*(cell.get() as *const AtomicU64)).fetch_add(value, Ordering::Relaxed) }
    }
}

impl DeviceAtomicAdd for f32 {
    unsafe fn raw_atomic_add(cell: &UnsafeCell<f32>, value: f32) -> f32 {
        // Compare-exchange loop on the bit pattern — how pre-sm_60
        // atomicAdd(float) is implemented, and exactly equivalent to the
        // hardware instruction's result.
        // SAFETY: alignment/size validated at construction.
        let atom = unsafe { &*(cell.get() as *const AtomicU32) };
        let mut cur = atom.load(Ordering::Relaxed);
        loop {
            let new = f32::from_bits(cur) + value;
            match atom.compare_exchange_weak(
                cur,
                new.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(old) => return f32::from_bits(old),
                Err(seen) => cur = seen,
            }
        }
    }
}

impl DeviceAtomicAdd for f64 {
    unsafe fn raw_atomic_add(cell: &UnsafeCell<f64>, value: f64) -> f64 {
        // SAFETY: alignment/size validated at construction.
        let atom = unsafe { &*(cell.get() as *const AtomicU64) };
        let mut cur = atom.load(Ordering::Relaxed);
        loop {
            let new = f64::from_bits(cur) + value;
            match atom.compare_exchange_weak(
                cur,
                new.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(old) => return f64::from_bits(old),
                Err(seen) => cur = seen,
            }
        }
    }
}

impl<T: DeviceAtomicAdd> DeviceBuffer<T> {
    /// Device-side `atomicAdd`: atomically adds `value` to element `idx`
    /// and returns the previous value. Recorded as an atomic RMW (exempt
    /// from race detection, counted in `LaunchStats::atomic_ops`).
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access.
    pub fn atomic_add(&self, ctx: &ThreadCtx, idx: usize, value: T) -> T {
        assert!(
            idx < self.data.len(),
            "illegal device address: atomic at index {idx} of buffer {} (len {})",
            self.id,
            self.data.len()
        );
        ctx.record_atomic(self.addr_of(idx), size_of::<T>() as u8);
        // SAFETY: bounds checked above.
        unsafe { T::raw_atomic_add(&self.data[idx], value) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfport_half::F16;

    #[test]
    fn round_trip_f64() {
        let b = DeviceBuffer::new(0, 0x1000, vec![1.0f64, 2.0, 3.0]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.to_host(), vec![1.0, 2.0, 3.0]);
        b.set(1, 20.0);
        assert_eq!(b.get(1), 20.0);
    }

    #[test]
    fn round_trip_f16() {
        let b = DeviceBuffer::new(1, 0x2000, vec![F16::ONE, F16::from_f32(0.5)]);
        assert_eq!(b.get(1).to_f32(), 0.5);
        b.set(0, F16::from_f32(-2.0));
        assert_eq!(b.get(0).to_f32(), -2.0);
    }

    #[test]
    fn addresses_follow_element_size() {
        let b = DeviceBuffer::new(0, 0x100, vec![0.0f32; 8]);
        assert_eq!(b.addr_of(0), 0x100);
        assert_eq!(b.addr_of(3), 0x100 + 12);
        let h = DeviceBuffer::new(0, 0x100, vec![F16::ZERO; 8]);
        assert_eq!(h.addr_of(3), 0x100 + 6);
    }

    #[test]
    fn concurrent_disjoint_device_writes_are_visible() {
        let b = std::sync::Arc::new(DeviceBuffer::new(0, 0, vec![0u64; 1024]));
        let writers: Vec<_> = (0..4u64)
            .map(|t| {
                let b = std::sync::Arc::clone(&b);
                std::thread::spawn(move || {
                    for i in (t as usize..1024).step_by(4) {
                        b.set(i, t + 1);
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let host = b.to_host();
        for (i, v) in host.iter().enumerate() {
            assert_eq!(*v, (i % 4) as u64 + 1);
        }
    }

    #[test]
    #[should_panic(expected = "host read out of bounds")]
    fn host_oob_read_panics() {
        let b = DeviceBuffer::new(0, 0, vec![0u8; 4]);
        let _ = b.get(4);
    }

    #[test]
    fn empty_buffer() {
        let b = DeviceBuffer::<f32>::new(0, 0, vec![]);
        assert!(b.is_empty());
        assert_eq!(b.to_host(), Vec::<f32>::new());
    }
}
