//! Cache-line padding for hot shared state.
//!
//! The dynamic-schedule cursor and the region join counter are the two
//! atomics every worker hammers during a parallel region. On the
//! caller's stack (or inside an `Arc` allocation) they would
//! otherwise share a cache line with neighbouring fields, so every
//! `fetch_add`/`fetch_sub` from one core invalidates lines other cores
//! are reading — classic false sharing. Wrapping them in [`CachePadded`]
//! gives each its own line.

use std::ops::{Deref, DerefMut};

/// Aligns (and therefore pads) `T` to 128 bytes.
///
/// 128 rather than 64 because adjacent-line prefetchers on modern x86
/// (and the 128-byte cache lines on some Arm server cores) pull pairs
/// of 64-byte lines; crossbeam's `CachePadded` makes the same choice.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps a value in its own cache line.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Unwraps the value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn alignment_and_size_are_a_full_line_pair() {
        assert_eq!(std::mem::align_of::<CachePadded<AtomicUsize>>(), 128);
        assert_eq!(std::mem::size_of::<CachePadded<AtomicUsize>>(), 128);
        // Two padded atomics side by side can never share a line.
        let pair = [
            CachePadded::new(AtomicUsize::new(0)),
            CachePadded::new(AtomicUsize::new(0)),
        ];
        let a = &*pair[0] as *const AtomicUsize as usize;
        let b = &*pair[1] as *const AtomicUsize as usize;
        assert!(b - a >= 128);
    }

    #[test]
    fn deref_and_into_inner() {
        let mut padded = CachePadded::new(7usize);
        assert_eq!(*padded, 7);
        *padded = 9;
        assert_eq!(padded.into_inner(), 9);
        let atomic = CachePadded::new(AtomicUsize::new(1));
        atomic.fetch_add(2, Ordering::Relaxed);
        assert_eq!(atomic.load(Ordering::Relaxed), 3);
    }
}
