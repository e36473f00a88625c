//! Log₂-bucketed streaming histograms.
//!
//! A [`Histogram`] folds a stream of `u64` samples (latencies and
//! durations in nanoseconds, sizes in bytes) into 64 power-of-two
//! buckets plus an **exact** total count and sum. Memory is O(1) no
//! matter how many samples arrive — this is what lets a run report tail
//! percentiles for millions of samples without holding a sorted
//! `Vec<u64>` — and recording is one relaxed atomic increment
//! per sample, so the metric shards can share them
//! without locks on the hot path.
//!
//! The price is resolution: a quantile read back from the buckets is
//! exact only up to its bucket, i.e. within one factor of two of the
//! true nearest-rank value (see [`HistogramSnapshot::quantile`] for
//! the precise bound). The `quantile_brackets_nearest_rank` test pins
//! that bound against exact nearest-rank over the raw samples.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log₂ buckets: one per possible bit position of a `u64`.
pub const BUCKETS: usize = 64;

/// The bucket a sample lands in: `floor(log2(value))`, with zero
/// mapped into bucket 0 alongside 1. Bucket `i` (for `i ≥ 1`) covers
/// `[2^i, 2^(i+1))`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        63 - value.leading_zeros() as usize
    }
}

/// The largest value bucket `index` can hold (`2^(index+1) - 1`;
/// saturates to `u64::MAX` for the top bucket). Quantile estimates
/// report this bound, so they never under-state a tail.
#[inline]
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index >= 63 {
        u64::MAX
    } else {
        (1u64 << (index + 1)) - 1
    }
}

/// A concurrent log₂ histogram. All updates are relaxed atomics; the
/// struct is wait-free for writers and is only ever read via
/// [`Histogram::snapshot`], which tolerates concurrent writes (a
/// snapshot is some valid interleaving point, not a seqlock).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample: one increment in its log₂ bucket plus the
    /// exact count/sum totals.
    #[inline]
    pub fn observe(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Copies the current totals into an immutable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a histogram's buckets and exact totals.
/// Snapshots from different shards merge by plain addition
/// ([`HistogramSnapshot::merge_from`]), and because every field is
/// monotonic, two snapshots of the same process subtract into a
/// well-defined delta ([`HistogramSnapshot::delta_since`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts; always `BUCKETS` entries.
    pub buckets: Vec<u64>,
    /// Exact number of samples observed.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with no samples.
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Adds another snapshot's buckets and totals into this one (the
    /// shard-merge operation).
    pub fn merge_from(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// The samples recorded between `earlier` and this snapshot.
    /// Saturating per field, so a mismatched pair degrades to zeros
    /// instead of wrapping.
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .zip(&earlier.buckets)
                .map(|(now, then)| now.saturating_sub(*then))
                .collect(),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }

    /// Exact arithmetic mean of the stream (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// A nearest-rank quantile estimate from the buckets, `q` in
    /// `[0, 1]`. Returns the upper bound of the bucket holding the
    /// rank-`⌈q·count⌉` sample, so for a true nearest-rank value `v`
    /// the estimate `e` satisfies `v ≤ e < 2·v` (one log₂ bucket of
    /// relative error, never an under-estimate). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_covers_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(7), 2);
        assert_eq!(bucket_index(8), 3);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn upper_bounds_close_each_bucket() {
        for i in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_upper_bound(i)), i);
            if i < 63 {
                assert_eq!(bucket_index(bucket_upper_bound(i) + 1), i + 1);
            }
        }
    }

    #[test]
    fn count_and_sum_are_exact() {
        let h = Histogram::new();
        for v in [0u64, 1, 17, 1024, 999_999] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, [0u64, 1, 17, 1024, 999_999].iter().sum());
        assert_eq!(s.buckets.iter().sum::<u64>(), 5);
    }

    #[test]
    fn quantile_brackets_nearest_rank() {
        let mut values: Vec<u64> = (1..=1000u64).map(|i| i * 37 + 5).collect();
        let h = Histogram::new();
        for &v in &values {
            h.observe(v);
        }
        values.sort_unstable();
        let s = h.snapshot();
        for q in [0.5, 0.95, 0.99, 1.0] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1];
            let est = s.quantile(q);
            assert!(est >= exact, "q={q}: est {est} under-states exact {exact}");
            assert!(est < exact * 2, "q={q}: est {est} ≥ 2× exact {exact}");
        }
    }

    #[test]
    fn merge_equals_single_stream() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in 0..500u64 {
            let target = if v % 3 == 0 { &a } else { &b };
            target.observe(v * v);
            all.observe(v * v);
        }
        let mut merged = a.snapshot();
        merged.merge_from(&b.snapshot());
        assert_eq!(merged, all.snapshot());
    }

    #[test]
    fn delta_since_isolates_new_samples() {
        let h = Histogram::new();
        for v in [10u64, 20, 30] {
            h.observe(v);
        }
        let epoch = h.snapshot();
        for v in [1000u64, 2000] {
            h.observe(v);
        }
        let delta = h.snapshot().delta_since(&epoch);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.sum, 3000);
        let fresh = Histogram::new();
        fresh.observe(1000);
        fresh.observe(2000);
        assert_eq!(delta, fresh.snapshot());
    }
}
