//! Per-region instrumentation.
//!
//! The CPU timing model in `perfport-machines` needs two things the raw
//! kernel cannot tell it: how evenly the schedule spread the work (load
//! imbalance) and how much time the fork-join protocol itself cost. Both
//! are measured here for every parallel region.

use std::time::Duration;

/// Statistics collected for one `parallel_for` region.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionStats {
    /// Iterations executed by each thread.
    pub items_per_thread: Vec<usize>,
    /// Chunks fetched/assigned per thread.
    pub chunks_per_thread: Vec<usize>,
    /// Wall-clock time of the whole region, including fork and join.
    pub elapsed: Duration,
    /// Wall-clock time spent dispatching to and joining the team, measured
    /// on an empty region of the same shape would be `elapsed` itself; here
    /// it is the region time minus the busiest thread's body time when
    /// available, else zero.
    pub fork_join_overhead: Duration,
    /// Time each thread spent waiting at the region's implicit end
    /// barrier: region elapsed minus that thread's busy time. The
    /// process-wide sum is the `pool/barrier_wait_ns` telemetry counter.
    /// Zero for every thread when a one-item loop ran on the caller, and
    /// empty when the region did not measure per-thread busy time.
    pub barrier_wait_per_thread: Vec<Duration>,
}

impl RegionStats {
    /// Total iterations executed.
    pub fn total_items(&self) -> usize {
        self.items_per_thread.iter().sum()
    }

    /// Total chunks dispatched.
    pub fn total_chunks(&self) -> usize {
        self.chunks_per_thread.iter().sum()
    }

    /// Load imbalance as `max/mean` over threads that could have worked
    /// (1.0 = perfectly balanced). Returns 1.0 for empty regions.
    pub fn imbalance(&self) -> f64 {
        let total = self.total_items();
        if total == 0 || self.items_per_thread.is_empty() {
            return 1.0;
        }
        let mean = total as f64 / self.items_per_thread.len() as f64;
        let max = *self.items_per_thread.iter().max().unwrap() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Fraction of threads that executed at least one iteration.
    pub fn participation(&self) -> f64 {
        if self.items_per_thread.is_empty() {
            return 0.0;
        }
        let active = self.items_per_thread.iter().filter(|&&x| x > 0).count();
        active as f64 / self.items_per_thread.len() as f64
    }

    /// Total barrier wait across the team.
    pub fn total_barrier_wait(&self) -> Duration {
        self.barrier_wait_per_thread.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(items: Vec<usize>, chunks: Vec<usize>) -> RegionStats {
        RegionStats {
            items_per_thread: items,
            chunks_per_thread: chunks,
            elapsed: Duration::from_millis(1),
            fork_join_overhead: Duration::ZERO,
            barrier_wait_per_thread: Vec::new(),
        }
    }

    #[test]
    fn totals() {
        let s = stats(vec![10, 20, 30], vec![1, 2, 3]);
        assert_eq!(s.total_items(), 60);
        assert_eq!(s.total_chunks(), 6);
    }

    #[test]
    fn balanced_region_has_unit_imbalance() {
        let s = stats(vec![25, 25, 25, 25], vec![1; 4]);
        assert!((s.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn skewed_region_reports_ratio() {
        // max = 40, mean = 20 -> imbalance 2.0
        let s = stats(vec![40, 20, 10, 10], vec![1; 4]);
        assert!((s.imbalance() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_region_defaults() {
        let s = stats(vec![0, 0], vec![0, 0]);
        assert_eq!(s.imbalance(), 1.0);
        assert_eq!(s.participation(), 0.0);
        let s = stats(vec![], vec![]);
        assert_eq!(s.imbalance(), 1.0);
    }

    #[test]
    fn participation_counts_active_threads() {
        let s = stats(vec![5, 0, 3, 0], vec![1, 0, 1, 0]);
        assert!((s.participation() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn barrier_wait_totals_sum_per_thread_values() {
        let mut s = stats(vec![1, 1], vec![1, 1]);
        assert_eq!(s.total_barrier_wait(), Duration::ZERO);
        s.barrier_wait_per_thread = vec![Duration::from_micros(3), Duration::from_micros(7)];
        assert_eq!(s.total_barrier_wait(), Duration::from_micros(10));
    }
}
