//! Work-sharing reductions — the `#pragma omp parallel for reduction`
//! analogue.
//!
//! Each thread folds its chunks into a private accumulator; the
//! caller combines the per-thread partials in thread order after
//! the join, so a reduction over a commutative-associative operator is
//! deterministic for a fixed team size and schedule.

use crate::pool::{ForContext, ThreadPool};
use crate::schedule::{Chunk, Schedule};
use crate::slice::SlotCell;
use crate::stats::RegionStats;

impl ThreadPool {
    /// Reduces over `0..n`: `fold` accumulates a chunk into the thread's
    /// private accumulator (seeded with `identity`), and `combine` merges
    /// the per-thread partials in thread order.
    ///
    /// Returns the reduced value and the region statistics.
    pub fn parallel_reduce<T, Fold, Combine>(
        &self,
        n: usize,
        schedule: Schedule,
        identity: T,
        fold: Fold,
        combine: Combine,
    ) -> (T, RegionStats)
    where
        T: Clone + Send + Sync + Default,
        Fold: Fn(ForContext, Chunk, T) -> T + Sync,
        Combine: Fn(T, T) -> T,
    {
        let team = self.num_threads();
        let partials = SlotCell::<Option<T>>::new(team);
        let identity_ref = &identity;
        let stats =
            self.parallel_for_cells(n, schedule, &partials, |ctx, chunk, acc: &mut Option<T>| {
                let current = acc.take().unwrap_or_else(|| identity_ref.clone());
                *acc = Some(fold(ctx, chunk, current));
            });
        let mut result = identity;
        for partial in partials.into_inner().into_iter().flatten() {
            result = combine(result, partial);
        }
        (result, stats)
    }

    /// Sum reduction over per-index values — the common case.
    pub fn parallel_sum<F>(&self, n: usize, schedule: Schedule, value: F) -> (f64, RegionStats)
    where
        F: Fn(usize) -> f64 + Sync,
    {
        self.parallel_reduce(
            n,
            schedule,
            0.0f64,
            |_ctx, chunk, mut acc| {
                for i in chunk.range() {
                    acc += value(i);
                }
                acc
            },
            |a, b| a + b,
        )
    }

    /// Internal: a `parallel_for` where each thread also owns a mutable
    /// cell, threaded through every chunk it executes.
    fn parallel_for_cells<T, F>(
        &self,
        n: usize,
        schedule: Schedule,
        cells: &SlotCell<T>,
        body: F,
    ) -> RegionStats
    where
        T: Default + Clone + Send,
        F: Fn(ForContext, Chunk, &mut T) + Sync,
    {
        self.parallel_for(n, schedule, |ctx, chunk| {
            // SAFETY: each thread touches only its own slot, and the
            // region join orders these accesses before `into_inner`.
            unsafe {
                cells.with(ctx.thread_id, |cell| body(ctx, chunk, cell));
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_matches_closed_form() {
        let pool = ThreadPool::new(4);
        for schedule in [
            Schedule::StaticBlock,
            Schedule::Dynamic { chunk: 7 },
            Schedule::Guided { min_chunk: 3 },
        ] {
            let n = 10_001;
            let (sum, stats) = pool.parallel_sum(n, schedule, |i| i as f64);
            assert_eq!(sum, (n as f64 - 1.0) * n as f64 / 2.0, "{schedule:?}");
            assert_eq!(stats.total_items(), n);
        }
    }

    #[test]
    fn reduce_with_custom_monoid() {
        // Max reduction.
        let pool = ThreadPool::new(3);
        let data: Vec<i64> = (0..5000).map(|i| ((i * 37) % 4999) as i64).collect();
        let (max, _) = pool.parallel_reduce(
            data.len(),
            Schedule::StaticBlock,
            i64::MIN,
            |_ctx, chunk, acc| chunk.range().fold(acc, |m, i| m.max(data[i])),
            i64::max,
        );
        assert_eq!(max, *data.iter().max().unwrap());
    }

    #[test]
    fn dot_product_reduction() {
        let pool = ThreadPool::new(4);
        let x: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..1000).map(|i| 2.0 * i as f64).collect();
        let (dot, _) = pool.parallel_reduce(
            x.len(),
            Schedule::Dynamic { chunk: 64 },
            0.0,
            |_ctx, chunk, mut acc| {
                for i in chunk.range() {
                    acc += x[i] * y[i];
                }
                acc
            },
            |a, b| a + b,
        );
        let expect: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert_eq!(dot, expect);
    }

    #[test]
    fn reduction_is_deterministic_for_fixed_team_and_static_schedule() {
        let pool = ThreadPool::new(5);
        let run = || {
            pool.parallel_sum(4096, Schedule::StaticBlock, |i| (i as f64).sin())
                .0
        };
        let a = run();
        let b = run();
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn empty_reduction_returns_identity() {
        let pool = ThreadPool::new(2);
        let (sum, stats) = pool.parallel_sum(0, Schedule::StaticBlock, |_| 1.0);
        assert_eq!(sum, 0.0);
        assert_eq!(stats.total_items(), 0);
    }
}
