//! Property tests for `trace::summary::render` on pathological event
//! streams: arbitrary interleavings, unbalanced begin/end pairs,
//! counter-only sessions, and non-monotonic timestamps. The renderer is
//! the last consumer of whatever a crashed or misinstrumented run left
//! behind, so it must never panic and must account for every event —
//! completed, unclosed, or unmatched — rather than silently dropping
//! the ones that don't line up.

use perfport::trace::{summary, Event, EventKind, Value};
use proptest::prelude::*;

const NAMES: [&str; 3] = ["alpha", "beta", "gamma"];

fn ev(kind: EventKind, name: &str, ts_ns: u128, tid: u64) -> Event {
    Event {
        kind,
        cat: "p".to_string(),
        name: name.to_string(),
        ts_ns,
        tid,
        args: Vec::new(),
    }
}

/// Decodes one generated op into an event: kind, span name, thread, and
/// timestamp all arbitrary — including end-before-begin orderings.
fn decode(op: (u8, u8, u8, u16)) -> Event {
    let (kind, name, tid, ts) = op;
    let kind = match kind % 4 {
        0 => EventKind::SpanBegin,
        1 => EventKind::SpanEnd,
        2 => EventKind::Counter,
        _ => EventKind::Instant,
    };
    let mut e = ev(
        kind,
        NAMES[name as usize % NAMES.len()],
        ts as u128,
        tid as u64 % 3,
    );
    if e.kind == EventKind::Counter {
        e.args.push(("value".to_string(), Value::F64(ts as f64)));
    }
    e
}

/// The obviously-correct accounting the renderer must agree with: per
/// thread, an end completes some open span of the same name; otherwise
/// it is unmatched. Which occurrence it matches cannot change the
/// counts, only the attributed durations.
fn expected_imbalance(events: &[Event]) -> (u64, u64) {
    use std::collections::BTreeMap;
    let mut open: BTreeMap<(u64, &str), u64> = BTreeMap::new();
    let mut unmatched = 0u64;
    for e in events {
        match e.kind {
            EventKind::SpanBegin => *open.entry((e.tid, e.name.as_str())).or_default() += 1,
            EventKind::SpanEnd => match open.get_mut(&(e.tid, e.name.as_str())) {
                Some(n) if *n > 0 => *n -= 1,
                _ => unmatched += 1,
            },
            _ => {}
        }
    }
    (open.values().sum(), unmatched)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary streams — unbalanced, cross-thread, time-travelling —
    /// must render without panicking, and the warning line must agree
    /// with independent bookkeeping of what could not be matched.
    #[test]
    fn arbitrary_streams_render_and_account_for_imbalance(
        ops in proptest::collection::vec((0u8..4, 0u8..3, 0u8..3, 0u16..1000), 0..40)
    ) {
        let events: Vec<Event> = ops.into_iter().map(decode).collect();
        let text = summary::render(&events);
        prop_assert!(text.contains(&format!("{} events", events.len())));
        let (unclosed, unmatched) = expected_imbalance(&events);
        if unclosed == 0 && unmatched == 0 {
            prop_assert!(!text.contains("warning:"), "{text}");
        } else {
            let want = format!(
                "warning: {unclosed} unclosed span(s), {unmatched} unmatched end(s)"
            );
            prop_assert!(text.contains(&want), "missing '{want}' in:\n{text}");
        }
    }

    /// Well-formed nested streams (a Dyck walk per thread) never draw a
    /// warning, whatever the cross-thread interleaving looks like.
    #[test]
    fn balanced_nesting_never_warns(
        walk in proptest::collection::vec((proptest::bool::ANY, 0u8..3, 0u8..3), 0..40)
    ) {
        let mut stacks: std::collections::BTreeMap<u64, Vec<&str>> = Default::default();
        let mut events = Vec::new();
        let mut ts = 0u128;
        for (push, name, tid) in walk {
            let tid = tid as u64;
            let stack = stacks.entry(tid).or_default();
            ts += 1;
            if push {
                let name = NAMES[name as usize % NAMES.len()];
                stack.push(name);
                events.push(ev(EventKind::SpanBegin, name, ts, tid));
            } else if let Some(name) = stack.pop() {
                events.push(ev(EventKind::SpanEnd, name, ts, tid));
            }
        }
        // Close whatever the walk left open, innermost first.
        for (tid, stack) in &mut stacks {
            while let Some(name) = stack.pop() {
                ts += 1;
                events.push(ev(EventKind::SpanEnd, name, ts, *tid));
            }
        }
        let text = summary::render(&events);
        prop_assert!(!text.contains("warning:"), "{text}");
    }

    /// Counter-only sessions: no spans at all, every series accounted
    /// with the right observation count, extreme values included.
    #[test]
    fn counter_only_sessions_count_every_observation(
        obs in proptest::collection::vec((0u8..3, -1e12f64..1e12, proptest::bool::ANY), 1..30)
    ) {
        let mut events = Vec::new();
        let mut expect: std::collections::BTreeMap<String, usize> = Default::default();
        for (i, (name, v, multi)) in obs.iter().enumerate() {
            let name = NAMES[*name as usize % NAMES.len()];
            let mut e = ev(EventKind::Counter, name, i as u128, 0);
            if *multi {
                // A multi-series counter event: one row per series.
                e.args.push(("x".to_string(), Value::F64(*v)));
                e.args.push(("y".to_string(), Value::F64(-v)));
                *expect.entry(format!("p:{name}.x")).or_default() += 1;
                *expect.entry(format!("p:{name}.y")).or_default() += 1;
            } else {
                e.args.push(("value".to_string(), Value::F64(*v)));
                *expect.entry(format!("p:{name}")).or_default() += 1;
            }
            events.push(e);
        }
        let text = summary::render(&events);
        prop_assert!(text.contains("spans: none"), "{text}");
        for (key, count) in &expect {
            let line = text
                .lines()
                .find(|l| l.split_whitespace().next() == Some(key.as_str()))
                .unwrap_or_else(|| panic!("no row for {key} in:\n{text}"));
            let got: usize = line
                .split_whitespace()
                .nth(1)
                .and_then(|t| t.parse().ok())
                .unwrap_or_else(|| panic!("unparsable count in '{line}'"));
            prop_assert_eq!(got, *count, "{}", text);
        }
    }

    /// Ends that precede their begins in timestamp (clock skew across
    /// threads, buggy instrumentation) must not panic or underflow —
    /// durations saturate at zero.
    #[test]
    fn non_monotonic_timestamps_saturate(
        begin_ts in 0u16..1000, end_ts in 0u16..1000
    ) {
        let events = vec![
            ev(EventKind::SpanBegin, "skewed", begin_ts as u128, 0),
            ev(EventKind::SpanEnd, "skewed", end_ts as u128, 0),
        ];
        let text = summary::render(&events);
        prop_assert!(text.contains("p:skewed"), "{text}");
        prop_assert!(!text.contains("warning:"), "{text}");
    }
}
