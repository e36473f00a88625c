//! Plain-text hierarchical summary of a trace: spans aggregated by
//! call path with count / total / mean / min / max durations, followed
//! by counter statistics.

use crate::event::{Event, EventKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Default)]
struct SpanStats {
    count: u64,
    total_ns: u128,
    min_ns: u128,
    max_ns: u128,
}

impl SpanStats {
    fn add(&mut self, dur_ns: u128) {
        if self.count == 0 {
            self.min_ns = dur_ns;
            self.max_ns = dur_ns;
        } else {
            self.min_ns = self.min_ns.min(dur_ns);
            self.max_ns = self.max_ns.max(dur_ns);
        }
        self.count += 1;
        self.total_ns += dur_ns;
    }
}

#[derive(Default)]
struct CounterStats {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    last: f64,
}

impl CounterStats {
    fn add(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        self.last = v;
    }
}

fn fmt_dur(ns: u128) -> String {
    let ns = ns as f64;
    if ns >= 1e9 {
        format!("{:.3}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3}µs", ns / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

/// Renders a hierarchical text summary of `events`.
///
/// Spans are keyed by their *path* — the stack of enclosing span names
/// on the same thread — so the same span name in different contexts
/// aggregates separately. Unclosed spans (still open when the session
/// finished) are reported, not silently dropped.
pub fn render(events: &[Event]) -> String {
    // Per-thread span stacks, keyed path -> aggregated stats.
    // Path components are "cat:name" so categories stay visible.
    let mut stacks: BTreeMap<u64, Vec<(String, u128, Vec<String>)>> = BTreeMap::new();
    let mut spans: BTreeMap<Vec<String>, SpanStats> = BTreeMap::new();
    let mut counters: BTreeMap<String, CounterStats> = BTreeMap::new();
    let mut unclosed = 0u64;
    let mut unmatched_ends = 0u64;

    for e in events {
        match e.kind {
            EventKind::SpanBegin => {
                let stack = stacks.entry(e.tid).or_default();
                let mut path: Vec<String> =
                    stack.last().map(|(_, _, p)| p.clone()).unwrap_or_default();
                path.push(format!("{}:{}", e.cat, e.name));
                stack.push((e.name.clone(), e.ts_ns, path));
            }
            EventKind::SpanEnd => {
                let stack = stacks.entry(e.tid).or_default();
                // Tolerate interleaving by popping the nearest matching
                // open span on this thread.
                match stack.iter().rposition(|(name, _, _)| *name == e.name) {
                    Some(idx) => {
                        let (_, start, path) = stack.remove(idx);
                        spans
                            .entry(path)
                            .or_default()
                            .add(e.ts_ns.saturating_sub(start));
                    }
                    None => unmatched_ends += 1,
                }
            }
            EventKind::Counter => {
                // Single-valued counters use the key "value" and keep the
                // plain `cat:name`; a multi-series counter (several keys
                // on one event) gets one statistics row per series,
                // `cat:name.key`.
                let mut recorded = false;
                for (k, v) in &e.args {
                    let Some(x) = v.as_f64() else { continue };
                    let key = if k == "value" {
                        format!("{}:{}", e.cat, e.name)
                    } else {
                        format!("{}:{}.{}", e.cat, e.name, k)
                    };
                    counters.entry(key).or_default().add(x);
                    recorded = true;
                }
                if !recorded {
                    counters
                        .entry(format!("{}:{}", e.cat, e.name))
                        .or_default()
                        .add(f64::NAN);
                }
            }
            EventKind::Instant => {}
        }
    }
    for stack in stacks.values() {
        unclosed += stack.len() as u64;
    }

    let mut out = String::new();
    let _ = writeln!(out, "trace summary: {} events", events.len());
    let _ = writeln!(out);

    if spans.is_empty() {
        let _ = writeln!(out, "spans: none");
    } else {
        let _ = writeln!(
            out,
            "{:<52} {:>7} {:>12} {:>12} {:>12} {:>12}",
            "span", "count", "total", "mean", "min", "max"
        );
        for (path, s) in &spans {
            let depth = path.len() - 1;
            let label = format!("{}{}", "  ".repeat(depth), path.last().unwrap());
            let mean = s.total_ns / s.count as u128;
            let _ = writeln!(
                out,
                "{:<52} {:>7} {:>12} {:>12} {:>12} {:>12}",
                label,
                s.count,
                fmt_dur(s.total_ns),
                fmt_dur(mean),
                fmt_dur(s.min_ns),
                fmt_dur(s.max_ns)
            );
        }
    }

    if !counters.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<52} {:>7} {:>12} {:>12} {:>12} {:>12}",
            "counter", "count", "mean", "min", "max", "last"
        );
        for (name, c) in &counters {
            let _ = writeln!(
                out,
                "{:<52} {:>7} {:>12} {:>12} {:>12} {:>12}",
                name,
                c.count,
                fmt_num(c.sum / c.count as f64),
                fmt_num(c.min),
                fmt_num(c.max),
                fmt_num(c.last)
            );
        }
    }

    if unclosed > 0 || unmatched_ends > 0 {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "warning: {unclosed} unclosed span(s), {unmatched_ends} unmatched end(s)"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Value;

    fn ev(kind: EventKind, name: &str, ts_ns: u128, tid: u64) -> Event {
        Event {
            kind,
            cat: "t".to_string(),
            name: name.to_string(),
            ts_ns,
            tid,
            args: Vec::new(),
        }
    }

    #[test]
    fn nested_spans_aggregate_by_path() {
        let events = vec![
            ev(EventKind::SpanBegin, "outer", 0, 0),
            ev(EventKind::SpanBegin, "inner", 100, 0),
            ev(EventKind::SpanEnd, "inner", 600, 0),
            ev(EventKind::SpanBegin, "inner", 700, 0),
            ev(EventKind::SpanEnd, "inner", 900, 0),
            ev(EventKind::SpanEnd, "outer", 1_000, 0),
        ];
        let text = render(&events);
        assert!(text.contains("t:outer"), "{text}");
        assert!(text.contains("  t:inner"), "{text}");
        // inner ran twice for 500 + 200 = 700ns total.
        let inner_line = text
            .lines()
            .find(|l| l.trim_start().starts_with("t:inner"))
            .unwrap();
        assert!(inner_line.contains("700ns"), "{inner_line}");
        assert!(!text.contains("warning"), "{text}");
    }

    #[test]
    fn counters_report_mean_min_max() {
        let mut events = Vec::new();
        for (i, v) in [1.0, 3.0, 2.0].into_iter().enumerate() {
            let mut e = ev(EventKind::Counter, "imbalance", i as u128, 0);
            e.args.push(("value".to_string(), Value::F64(v)));
            events.push(e);
        }
        let text = render(&events);
        let line = text.lines().find(|l| l.starts_with("t:imbalance")).unwrap();
        assert!(line.contains('3'), "{line}");
        assert!(line.contains('1'), "{line}");
        assert!(line.contains('2'), "{line}");
    }

    #[test]
    fn unclosed_spans_are_flagged_not_dropped() {
        let events = vec![ev(EventKind::SpanBegin, "open", 0, 0)];
        let text = render(&events);
        assert!(text.contains("warning: 1 unclosed"), "{text}");
    }

    #[test]
    fn same_name_on_different_threads_does_not_cross_match() {
        let events = vec![
            ev(EventKind::SpanBegin, "work", 0, 0),
            ev(EventKind::SpanBegin, "work", 50, 1),
            ev(EventKind::SpanEnd, "work", 100, 1),
            ev(EventKind::SpanEnd, "work", 400, 0),
        ];
        let text = render(&events);
        let line = text.lines().find(|l| l.starts_with("t:work")).unwrap();
        // Two completions: 50ns (tid 1) and 400ns (tid 0).
        assert!(line.contains("2"), "{line}");
        assert!(line.contains("400ns"), "{line}");
        assert!(line.contains("50ns"), "{line}");
    }

    #[test]
    fn empty_trace_renders() {
        let text = render(&[]);
        assert!(text.contains("0 events"));
        assert!(text.contains("spans: none"));
    }
}
