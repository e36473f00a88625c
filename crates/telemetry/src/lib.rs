//! Always-on runtime telemetry for the perfport workspace.
//!
//! This is the one instrumentation path. Every fact is recorded once,
//! here, cheaply enough to leave on unconditionally; `--trace` is the
//! opt-in, per-event view of the same spans:
//!
//! - **Static metric handles** ([`Counter`], [`Gauge`], [`Histogram`]),
//!   each a `static` declared at its call site: every thread writes its
//!   own shard by index with relaxed atomics and no cross-thread
//!   traffic; [`snapshot()`] merges the shards on demand into a
//!   canonical [`Snapshot`] with summed counters, max-merged gauges,
//!   and log₂-bucketed streaming histograms
//!   ([`histogram::HistogramSnapshot`]) carrying exact count/sum.
//! - **Spans** ([`Histogram::span`]): one timed interval recorded into
//!   its histogram always and, while a `perfport-trace` collector is
//!   installed, also emitted as a trace span with its arguments.
//! - **Flight recorder** ([`event`], [`flight_dump`]): a fixed-size
//!   per-worker ring of structured runtime events that costs nothing
//!   on disk until a region poisons or a task panics, at which point
//!   the merged rings are serialized to `flight-<pid>.json` for
//!   post-mortem inspection.
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
//! every recording entry point with an empty inline function, and
//! gating the two `host_gemm` runs against each other (≤2%). Shipping
//! code never enables `stub`; it exists purely as the A/B baseline.

#![deny(missing_docs)]

pub mod flight;
pub mod histogram;
mod metrics;
pub mod snapshot;

pub use flight::{panic_message, Detail};
pub use histogram::HistogramSnapshot;
pub use metrics::{snapshot, Counter, Gauge, Histogram, Span};
pub use snapshot::Snapshot;

/// Records a flight-recorder event on the calling thread's ring.
#[inline]
pub fn event(kind: &'static str, detail: Detail) {
    if !cfg!(feature = "stub") {
        flight::event(kind, detail);
    }
}

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
