//! Property tests for the flight-recorder ring and the histogram
//! quantile bound.
//!
//! - A ring of capacity N fed K events keeps exactly the newest
//!   `min(N, K)` events, in recording order.
//! - A histogram-derived quantile never under-states the exact
//!   nearest-rank value and never exceeds twice it (one log₂ bucket
//!   of relative error) — the bound the serving-path cross-check
//!   relies on.

use perfport_telemetry::flight::FlightEvent;
use perfport_telemetry::histogram::Histogram;
use perfport_trace::log::Ring;
use proptest::prelude::*;

fn ev(i: u64) -> FlightEvent {
    FlightEvent {
        ts_ns: i,
        worker: format!("w{}", i % 4),
        kind: "step".to_string(),
        detail: format!("event {i}"),
    }
}

/// Exact nearest-rank quantile over raw samples (the serving path's
/// reference definition).
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ring_keeps_exactly_the_newest_n_in_order(
        capacity in 1usize..40,
        pushed in 0usize..200,
    ) {
        let mut ring = Ring::new(capacity);
        for i in 0..pushed as u64 {
            ring.push(ev(i));
        }
        let kept: Vec<u64> = ring.events().map(|e| e.ts_ns).collect();
        let expect_len = pushed.min(capacity);
        prop_assert_eq!(kept.len(), expect_len);
        prop_assert_eq!(ring.len(), expect_len);
        // The survivors are the newest `expect_len` events, oldest
        // first — i.e. the tail of the push sequence, order intact.
        let first = (pushed - expect_len) as u64;
        let expected: Vec<u64> = (first..pushed as u64).collect();
        prop_assert_eq!(kept, expected);
    }

    #[test]
    fn histogram_quantiles_bracket_nearest_rank(
        samples in proptest::collection::vec(1u64..2_000_000, 1..300),
        q in 0.01f64..1.0,
    ) {
        let hist = Histogram::new();
        for &s in &samples {
            hist.observe(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let exact = nearest_rank(&sorted, q);
        let est = hist.snapshot().quantile(q);
        prop_assert!(est >= exact, "q={}: estimate {} under exact {}", q, est, exact);
        prop_assert!(est < exact.saturating_mul(2), "q={}: estimate {} ≥ 2× exact {}", q, est, exact);
    }
}
