//! The benchmark's vocabulary: workload names, seeds, and the metrics
//! every run reports. `BENCHMARK.json` at the repository root lists the
//! same names; `tests/manifest.rs` keeps the two in step.

/// Workload names, in the order the all-workloads mode runs them.
pub const WORKLOADS: [&str; 5] = [
    "gemm-large",
    "serve-batch",
    "serve-single",
    "gpusim",
    "study-dist",
];

/// The seed runs use unless told otherwise.
pub const DEFAULT_SEED: u64 = 1;

/// A seed kept out of development: a claimed gain must also hold here.
pub const HELD_OUT_SEED: u64 = 2;

/// Measured seconds per run (`run_seconds` in `BENCHMARK.json`).
pub const DEFAULT_SECONDS: u64 = 20;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How a per-layer metric is derived from the traced operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Reported directly (end-to-end metrics).
    Direct,
    /// Self time of one layer, as a share of traced op wall time. The
    /// partition layers plus `unattributed_pct` add up to 100.
    Partition,
    /// Time inside a layer that nests in, or runs beside, a partition
    /// layer, as a share of traced op wall time.
    Share,
    /// A count per traced operation.
    Count,
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// How the value is derived.
    pub kind: Kind,
}

const fn metric(name: &'static str, unit: &'static str, better: Better, kind: Kind) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind,
    }
}

use Better::{Higher, Lower};
use Kind::{Count, Direct, Partition, Share};

/// Metrics of untraced runs (`--trace 0`).
pub const END_TO_END: [Metric; 3] = [
    metric("setup_s", "s", Lower, Direct),
    metric("best_1s_ms", "ms", Lower, Direct),
    metric("peak_rss_mb", "MiB", Lower, Direct),
];

/// Name of the remainder of the traced wall time no partition layer
/// covers.
pub const UNATTRIBUTED: &str = "unattributed_pct";

/// Metrics of traced runs (`--trace 1`). A layer a workload does not
/// run reads 0.
pub const PER_LAYER: [Metric; 24] = [
    metric("pool.self_pct", "%", Lower, Partition),
    metric("gemm.tuned_pct", "%", Higher, Partition),
    metric("gemm.batch_pct", "%", Lower, Partition),
    metric("gpusim.sim_pct", "%", Higher, Partition),
    metric("serve.recv_wait_pct", "%", Lower, Partition),
    metric("serve.send_pct", "%", Lower, Partition),
    metric(UNATTRIBUTED, "%", Lower, Direct),
    metric("gemm.pack_pct", "%", Lower, Share),
    metric("core.point_pct", "%", Higher, Share),
    metric("gemm.microkernel_calls", "count", Lower, Count),
    metric("gemm.pack_bytes", "count", Lower, Count),
    metric("pool.regions", "count", Lower, Count),
    metric("graph.tasks", "count", Lower, Count),
    metric("gpusim.phases", "count", Lower, Count),
    metric("gpusim.shared_loads", "count", Lower, Count),
    metric("gpusim.load_transactions", "count", Lower, Count),
    metric("gpusim.bank_conflicts", "count", Lower, Count),
    metric("serve.frames", "count", Lower, Count),
    metric("serve.bytes", "count", Lower, Count),
    metric("serve.leases_granted", "count", Lower, Count),
    metric("serve.heartbeats", "count", Lower, Count),
    metric("op.p50_ms", "ms", Lower, Direct),
    metric("op.tail_ms", "ms", Lower, Direct),
    metric("trace.overhead_pct", "%", Lower, Direct),
];
