//! Roofline primitives shared by the CPU and GPU timing models.

use std::fmt;

/// Which resource bound an estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Floating-point throughput.
    Compute,
    /// DRAM / HBM bandwidth.
    MemoryBandwidth,
    /// On-chip bandwidth (shared LLC on CPUs, L1/LSU throughput on
    /// GPUs).
    OnChipBandwidth,
    /// Fixed overheads (fork-join, launch latency) dominate.
    Overhead,
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::Compute => write!(f, "compute"),
            Bound::MemoryBandwidth => write!(f, "memory-bandwidth"),
            Bound::OnChipBandwidth => write!(f, "onchip-bandwidth"),
            Bound::Overhead => write!(f, "overhead"),
        }
    }
}

/// A time/throughput estimate from a timing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Predicted execution time, seconds.
    pub seconds: f64,
    /// Predicted throughput, GFLOP/s.
    pub gflops: f64,
    /// The binding resource.
    pub bound: Bound,
}

impl Estimate {
    /// Builds an estimate from a flop count and component times; the
    /// slowest component is the bound, with `overhead` added serially.
    pub fn from_components(flops: f64, overhead_s: f64, components: &[(Bound, f64)]) -> Estimate {
        assert!(!components.is_empty(), "need at least one component");
        let (mut bound, mut worst) = components[0];
        for &(b, t) in &components[1..] {
            if t > worst {
                worst = t;
                bound = b;
            }
        }
        let seconds = worst + overhead_s;
        if overhead_s > worst {
            bound = Bound::Overhead;
        }
        Estimate {
            seconds,
            gflops: if seconds > 0.0 {
                flops / seconds / 1e9
            } else {
                f64::INFINITY
            },
            bound,
        }
    }
}

/// A classic two-ceiling roofline: peak compute and memory bandwidth.
#[derive(Debug, Clone, Copy)]
pub struct Roofline {
    /// Peak compute, GFLOP/s.
    pub peak_gflops: f64,
    /// Peak memory bandwidth, GB/s.
    pub bw_gbs: f64,
}

impl Roofline {
    /// Attainable GFLOP/s at arithmetic intensity `ai` (flops/byte).
    pub fn attainable(&self, ai: f64) -> f64 {
        (self.bw_gbs * ai).min(self.peak_gflops)
    }

    /// The ridge point: the arithmetic intensity where the kernel stops
    /// being memory bound.
    pub fn ridge_ai(&self) -> f64 {
        self.peak_gflops / self.bw_gbs
    }

    /// `true` when a kernel of intensity `ai` is memory bound.
    pub fn is_memory_bound(&self, ai: f64) -> bool {
        ai < self.ridge_ai()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attainable_follows_both_ceilings() {
        let r = Roofline {
            peak_gflops: 1000.0,
            bw_gbs: 100.0,
        };
        assert_eq!(r.ridge_ai(), 10.0);
        assert_eq!(r.attainable(1.0), 100.0); // memory bound
        assert_eq!(r.attainable(100.0), 1000.0); // compute bound
        assert_eq!(r.attainable(10.0), 1000.0); // exactly at the ridge
        assert!(r.is_memory_bound(5.0));
        assert!(!r.is_memory_bound(50.0));
    }

    #[test]
    fn estimate_picks_slowest_component() {
        let e = Estimate::from_components(
            2e9,
            0.0,
            &[(Bound::Compute, 1.0), (Bound::MemoryBandwidth, 2.0)],
        );
        assert_eq!(e.bound, Bound::MemoryBandwidth);
        assert_eq!(e.seconds, 2.0);
        assert!((e.gflops - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overhead_dominates_small_problems() {
        let e = Estimate::from_components(2e6, 1.0, &[(Bound::Compute, 0.001)]);
        assert_eq!(e.bound, Bound::Overhead);
        assert!(e.seconds > 1.0);
    }

    #[test]
    fn gflops_consistent_with_seconds() {
        let e = Estimate::from_components(4e9, 0.5, &[(Bound::Compute, 1.5)]);
        assert!((e.gflops - 4e9 / 2.0 / 1e9).abs() < 1e-12);
    }
}
