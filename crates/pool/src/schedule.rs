//! Loop schedules: how a `parallel for` index space is carved into chunks
//! and handed to threads.
//!
//! The three families mirror OpenMP's `schedule(static|dynamic|guided)`
//! clause semantics (OpenMP 5.2 §11.5.3), which is also what Julia
//! `@threads :static` (block static) and Numba `prange` (static chunks over
//! its workqueue backend) boil down to.

use crate::pad::CachePadded;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A contiguous chunk of loop iterations assigned to one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// First iteration index (inclusive).
    pub start: usize,
    /// One past the last iteration index.
    pub end: usize,
}

impl Chunk {
    /// Number of iterations in the chunk.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` when the chunk covers no iterations.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// The chunk as an index range.
    #[inline]
    pub fn range(&self) -> Range<usize> {
        self.start..self.end
    }
}

/// Loop schedule selecting how iterations map to threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// `schedule(static)`: one contiguous block per thread, sizes differing
    /// by at most one iteration. This is the schedule Julia's
    /// `Threads.@threads` uses and the OpenMP default on the paper's
    /// compilers.
    StaticBlock,
    /// `schedule(static, chunk)`: fixed-size chunks dealt round-robin.
    StaticChunked {
        /// Iterations per chunk (>= 1).
        chunk: usize,
    },
    /// `schedule(dynamic, chunk)`: threads grab fixed-size chunks from a
    /// shared counter as they finish previous work.
    Dynamic {
        /// Iterations per grab (>= 1).
        chunk: usize,
    },
    /// `schedule(guided, min_chunk)`: like dynamic but the grabbed chunk is
    /// proportional to the remaining work divided by the team size,
    /// shrinking geometrically to `min_chunk`.
    Guided {
        /// Lower bound on the grabbed chunk size (>= 1).
        min_chunk: usize,
    },
}

impl Schedule {
    /// The OpenMP default used throughout the paper's CPU experiments.
    pub const DEFAULT: Schedule = Schedule::StaticBlock;

    /// `true` for schedules whose assignment is fixed before the loop runs.
    pub fn is_static(&self) -> bool {
        matches!(self, Schedule::StaticBlock | Schedule::StaticChunked { .. })
    }

    /// The kind of the OpenMP `schedule` clause: `static`, `dynamic` or
    /// `guided`.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Schedule::StaticBlock | Schedule::StaticChunked { .. } => "static",
            Schedule::Dynamic { .. } => "dynamic",
            Schedule::Guided { .. } => "guided",
        }
    }

    /// The clause's chunk argument, if it has one (`min_chunk` for
    /// guided).
    pub(crate) fn chunk(&self) -> Option<usize> {
        match *self {
            Schedule::StaticBlock => None,
            Schedule::StaticChunked { chunk } | Schedule::Dynamic { chunk } => Some(chunk),
            Schedule::Guided { min_chunk } => Some(min_chunk),
        }
    }
}

/// Computes the contiguous block owned by `thread` under
/// [`Schedule::StaticBlock`]: the first `n % threads` threads receive one
/// extra iteration, matching `libgomp`/`libomp` behaviour.
pub fn static_block(n: usize, threads: usize, thread: usize) -> Chunk {
    debug_assert!(thread < threads);
    let base = n / threads;
    let extra = n % threads;
    let start = thread * base + thread.min(extra);
    let len = base + usize::from(thread < extra);
    Chunk {
        start,
        end: start + len,
    }
}

/// Iterator over the chunks owned by one thread under a static schedule.
///
/// For [`Schedule::StaticBlock`] it yields a single block; for
/// [`Schedule::StaticChunked`] it yields every `threads`-th chunk of size
/// `chunk` starting at `thread * chunk`.
#[derive(Debug, Clone)]
pub struct StaticChunks {
    n: usize,
    stride: usize,
    chunk: usize,
    next: usize,
    done: bool,
}

impl StaticChunks {
    /// Builds the chunk iterator for `thread` of `threads` over `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is not static, `threads == 0`, or
    /// `thread >= threads`.
    pub fn new(schedule: Schedule, n: usize, threads: usize, thread: usize) -> Self {
        assert!(threads > 0, "thread team must be non-empty");
        assert!(thread < threads, "thread index out of range");
        match schedule {
            Schedule::StaticBlock => {
                let block = static_block(n, threads, thread);
                StaticChunks {
                    n: block.end,
                    stride: 0,
                    chunk: block.len().max(1),
                    next: block.start,
                    done: block.is_empty(),
                }
            }
            Schedule::StaticChunked { chunk } => {
                assert!(chunk > 0, "chunk size must be positive");
                StaticChunks {
                    n,
                    stride: threads * chunk,
                    chunk,
                    next: thread * chunk,
                    done: thread * chunk >= n,
                }
            }
            _ => panic!("StaticChunks requires a static schedule"),
        }
    }
}

impl Iterator for StaticChunks {
    type Item = Chunk;

    fn next(&mut self) -> Option<Chunk> {
        if self.done || self.next >= self.n {
            return None;
        }
        let start = self.next;
        let end = (start + self.chunk).min(self.n);
        if self.stride == 0 {
            self.done = true;
        } else {
            self.next = start + self.stride;
        }
        Some(Chunk { start, end })
    }
}

/// Shared state for dynamic and guided schedules: a single atomic cursor
/// over `0..n`, grabbed in chunks.
///
/// The cursor atomic is padded to its own cache-line pair: every worker
/// RMWs it on every grab, and without padding it shares a line with
/// whatever neighbours it on the caller's stack (the per-thread
/// stats slots), turning each grab into cross-core invalidation traffic
/// on unrelated data.
#[derive(Debug)]
pub(crate) struct DynamicCursor {
    next: CachePadded<AtomicUsize>,
    n: usize,
}

impl DynamicCursor {
    pub(crate) fn new(n: usize) -> Self {
        DynamicCursor {
            next: CachePadded::new(AtomicUsize::new(0)),
            n,
        }
    }

    /// Grabs the next chunk under `schedule`, or `None` when the index
    /// space is exhausted. `threads` is the team size (used by guided).
    pub(crate) fn grab(&self, schedule: Schedule, threads: usize) -> Option<Chunk> {
        match schedule {
            Schedule::Dynamic { chunk } => {
                debug_assert!(chunk > 0);
                let start = self.next.fetch_add(chunk, Ordering::Relaxed);
                if start >= self.n {
                    return None;
                }
                Some(Chunk {
                    start,
                    end: (start + chunk).min(self.n),
                })
            }
            Schedule::Guided { min_chunk } => {
                debug_assert!(min_chunk > 0);
                // CAS loop: chunk size = ceil(remaining / threads), clamped
                // below by min_chunk — the classic guided self-scheduling
                // formula (Polychronopoulos & Kuck).
                let mut cur = self.next.load(Ordering::Relaxed);
                loop {
                    if cur >= self.n {
                        return None;
                    }
                    let remaining = self.n - cur;
                    let size = remaining.div_ceil(threads).max(min_chunk).min(remaining);
                    match self.next.compare_exchange_weak(
                        cur,
                        cur + size,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            return Some(Chunk {
                                start: cur,
                                end: cur + size,
                            })
                        }
                        Err(seen) => cur = seen,
                    }
                }
            }
            _ => panic!("DynamicCursor requires a dynamic or guided schedule"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn clause_kind_and_chunk() {
        let clause = |s: Schedule| (s.kind(), s.chunk());
        assert_eq!(clause(Schedule::StaticBlock), ("static", None));
        assert_eq!(
            clause(Schedule::StaticChunked { chunk: 8 }),
            ("static", Some(8))
        );
        assert_eq!(clause(Schedule::Dynamic { chunk: 1 }), ("dynamic", Some(1)));
        assert_eq!(
            clause(Schedule::Guided { min_chunk: 2 }),
            ("guided", Some(2))
        );
    }

    fn cover_static(schedule: Schedule, n: usize, threads: usize) -> Vec<usize> {
        let mut hits = vec![0usize; n];
        for t in 0..threads {
            for c in StaticChunks::new(schedule, n, threads, t) {
                for i in c.range() {
                    hits[i] += 1;
                }
            }
        }
        hits
    }

    #[test]
    fn static_block_partitions_exactly() {
        for (n, threads) in [(0, 4), (1, 4), (7, 3), (64, 64), (100, 7), (1000, 13)] {
            let hits = cover_static(Schedule::StaticBlock, n, threads);
            assert!(hits.iter().all(|&h| h == 1), "n={n} t={threads}");
        }
    }

    #[test]
    fn static_block_sizes_differ_by_at_most_one() {
        let n = 103;
        let threads = 10;
        let sizes: Vec<usize> = (0..threads)
            .map(|t| static_block(n, threads, t).len())
            .collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1);
        assert_eq!(sizes.iter().sum::<usize>(), n);
        // Extra iterations go to the lowest-numbered threads.
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn static_block_is_contiguous_and_ordered() {
        let n = 57;
        let threads = 5;
        let mut prev_end = 0;
        for t in 0..threads {
            let b = static_block(n, threads, t);
            assert_eq!(b.start, prev_end);
            prev_end = b.end;
        }
        assert_eq!(prev_end, n);
    }

    #[test]
    fn static_chunked_partitions_exactly() {
        for (n, threads, chunk) in [(100, 4, 8), (99, 7, 1), (5, 8, 2), (0, 3, 4), (64, 2, 64)] {
            let hits = cover_static(Schedule::StaticChunked { chunk }, n, threads);
            assert!(hits.iter().all(|&h| h == 1), "n={n} t={threads} c={chunk}");
        }
    }

    #[test]
    fn static_chunked_round_robin_order() {
        // n=10, threads=2, chunk=3: thread 0 gets [0,3) and [6,9);
        // thread 1 gets [3,6) and [9,10).
        let t0: Vec<Chunk> =
            StaticChunks::new(Schedule::StaticChunked { chunk: 3 }, 10, 2, 0).collect();
        let t1: Vec<Chunk> =
            StaticChunks::new(Schedule::StaticChunked { chunk: 3 }, 10, 2, 1).collect();
        assert_eq!(
            t0,
            vec![Chunk { start: 0, end: 3 }, Chunk { start: 6, end: 9 }]
        );
        assert_eq!(
            t1,
            vec![Chunk { start: 3, end: 6 }, Chunk { start: 9, end: 10 }]
        );
    }

    #[test]
    fn dynamic_cursor_partitions_exactly() {
        let n = 1003;
        let cursor = DynamicCursor::new(n);
        let mut seen = HashSet::new();
        while let Some(c) = cursor.grab(Schedule::Dynamic { chunk: 7 }, 4) {
            for i in c.range() {
                assert!(seen.insert(i), "index {i} assigned twice");
            }
        }
        assert_eq!(seen.len(), n);
    }

    #[test]
    fn guided_chunks_shrink_geometrically() {
        let n = 1024;
        let threads = 4;
        let cursor = DynamicCursor::new(n);
        let mut sizes = Vec::new();
        while let Some(c) = cursor.grab(Schedule::Guided { min_chunk: 4 }, threads) {
            sizes.push(c.len());
        }
        // First grab is remaining/threads = 256.
        assert_eq!(sizes[0], 256);
        // Monotonically non-increasing until the floor.
        assert!(sizes.windows(2).all(|w| w[0] >= w[1] || w[1] == 4));
        // Everything covered exactly once (sizes sum to n).
        assert_eq!(sizes.iter().sum::<usize>(), n);
        // Floor respected except possibly the final remainder chunk.
        for (i, &s) in sizes.iter().enumerate() {
            if i + 1 < sizes.len() {
                assert!(s >= 4);
            }
        }
    }

    #[test]
    fn guided_under_concurrency_covers_everything() {
        let n = 50_000;
        let threads = 8;
        let cursor = std::sync::Arc::new(DynamicCursor::new(n));
        let counts: Vec<_> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let counts = std::sync::Arc::new(counts);
        std::thread::scope(|s| {
            for _ in 0..threads {
                let cursor = cursor.clone();
                let counts = counts.clone();
                s.spawn(move || {
                    while let Some(c) = cursor.grab(Schedule::Guided { min_chunk: 2 }, threads) {
                        for i in c.range() {
                            counts[i].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn chunk_helpers() {
        let c = Chunk { start: 3, end: 8 };
        assert_eq!(c.len(), 5);
        assert!(!c.is_empty());
        assert_eq!(c.range(), 3..8);
        assert!(Chunk { start: 4, end: 4 }.is_empty());
    }

    #[test]
    fn schedule_classification() {
        assert!(Schedule::StaticBlock.is_static());
        assert!(Schedule::StaticChunked { chunk: 4 }.is_static());
        assert!(!Schedule::Dynamic { chunk: 1 }.is_static());
        assert!(!Schedule::Guided { min_chunk: 1 }.is_static());
    }

    #[test]
    fn empty_range_yields_no_chunks() {
        assert_eq!(StaticChunks::new(Schedule::StaticBlock, 0, 4, 2).count(), 0);
        let cursor = DynamicCursor::new(0);
        assert_eq!(cursor.grab(Schedule::Dynamic { chunk: 4 }, 2), None);
        assert_eq!(cursor.grab(Schedule::Guided { min_chunk: 4 }, 2), None);
    }

    #[test]
    #[should_panic(expected = "thread index out of range")]
    fn thread_out_of_range_panics() {
        let _ = StaticChunks::new(Schedule::StaticBlock, 10, 4, 4);
    }
}
