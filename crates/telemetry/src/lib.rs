//! Always-on runtime telemetry for the perfport workspace.
//!
//! This is the one instrumentation path. Every fact is recorded once,
//! cheaply enough to leave on unconditionally: aggregates here, events
//! in `perfport-trace`'s per-thread record log, of which `--trace` and
//! the flight recorder are two views:
//!
//! - **Static metric handles** ([`Counter`], [`Gauge`], [`Histogram`]),
//!   each a `static` declared at its call site: every thread writes its
//!   own shard by index with relaxed atomics and no cross-thread
//!   traffic; [`snapshot()`] merges the shards on demand into a
//!   canonical [`Snapshot`] with summed counters, max-merged gauges,
//!   and log₂-bucketed streaming histograms
//!   ([`histogram::HistogramSnapshot`]) carrying exact count/sum.
//! - **Spans** ([`Histogram::span`]): one timed interval recorded into
//!   its histogram and, as one record, into the thread's event log;
//!   while a `perfport-trace` collector is installed that record also
//!   carries the span's arguments into the trace.
//! - **Flight recorder** ([`flight_dump`]): the newest 256 records of
//!   every thread's event log, which cost nothing on disk until a
//!   region poisons or a task panics, at which point they are merged
//!   and serialized to `flight-<pid>.json` for post-mortem inspection.
//!
//! Instrumentation is **observation-only** by construction: nothing
//! recorded here feeds back into scheduling or numerics, and the
//! workspace's bitwise contracts (serial ≡ parallel, batch ≡ serial,
//! shard concat) are tested with telemetry enabled — because it is
//! always enabled.
//!
//! # Overhead budget and the `stub` feature
//!
//! CI measures the cost of the always-on default by rebuilding the
//! bench harness with this crate's `stub` feature, which replaces
//! every metric recording entry point with an empty inline function
//! and turns the flight dump off, and
//! gating the two `host_gemm` runs against each other (≤2%). Shipping
//! code never enables `stub`; it exists purely as the A/B baseline.

#![deny(missing_docs)]

pub mod flight;
pub mod histogram;
mod metrics;
pub mod snapshot;

pub use flight::panic_message;
pub use histogram::HistogramSnapshot;
pub use metrics::{snapshot, Counter, Gauge, Histogram, Span};
pub use snapshot::Snapshot;

/// Dumps the flight recorder (first trigger only); returns the path
/// written. Never dumps in a `stub` build.
pub fn flight_dump(trigger_kind: &str, trigger_detail: &str) -> Option<std::path::PathBuf> {
    if cfg!(feature = "stub") {
        None
    } else {
        flight::dump(trigger_kind, trigger_detail)
    }
}

/// How this binary was built: `"on"` (the default, telemetry live) or
/// `"stub"` (every recording entry point compiled to a no-op). Stamped
/// into the run-provenance manifest.
pub fn build_mode() -> &'static str {
    if cfg!(feature = "stub") {
        "stub"
    } else {
        "on"
    }
}
