//! The Chrome `trace_event` exporter and its inverse (`import_chrome`),
//! which the `trace_report` tool reads traces back with.
//!
//! `chrome` streams event by event through [`json::escape`] and
//! [`json::number`] instead of building one [`Json`] value: a trace
//! holds up to 100,000 events, and its `u64` arguments must stay exact,
//! which `Json::Number(f64)` cannot promise above 2^53.

use crate::event::{Event, EventKind, Value};
use crate::json::{self, Json};
use std::fmt::Write as _;

fn value_json(v: &Value) -> String {
    match v {
        Value::I64(n) => format!("{n}"),
        Value::U64(n) => format!("{n}"),
        Value::F64(n) => json::number(*n),
        Value::Bool(b) => format!("{b}"),
        Value::Str(s) => format!("\"{}\"", json::escape(s)),
    }
}

fn args_json(args: &[(String, Value)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", json::escape(k), value_json(v));
    }
    out.push('}');
    out
}

/// Chrome `trace_event` JSON (object form), loadable in
/// `chrome://tracing` or <https://ui.perfetto.dev>.
///
/// Spans map to `B`/`E` duration pairs, counters to `C`, instants to
/// `i`. Timestamps are microseconds (fractional, preserving the
/// nanosecond clock) since the collector epoch; all events share
/// `pid` 1 and use the collector's stable thread ids.
pub fn chrome(events: &[Event]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let ts_us = e.ts_ns as f64 / 1_000.0;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":1,\"tid\":{}",
            json::escape(&e.name),
            json::escape(&e.cat),
            e.kind.phase(),
            json::number(ts_us),
            e.tid,
        );
        match e.kind {
            // Chrome renders a counter track from the args object.
            EventKind::Counter => {
                let _ = write!(out, ",\"args\":{}", args_json(&e.args));
            }
            EventKind::Instant => {
                let _ = write!(out, ",\"s\":\"t\",\"args\":{}", args_json(&e.args));
            }
            EventKind::SpanBegin | EventKind::SpanEnd => {
                if !e.args.is_empty() {
                    let _ = write!(out, ",\"args\":{}", args_json(&e.args));
                }
            }
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

/// An import failure: either malformed JSON or a shape that is not a
/// Chrome trace.
#[derive(Debug)]
pub enum ImportError {
    /// The document did not parse as JSON.
    Parse(json::ParseError),
    /// The document parsed but is not a usable trace.
    Shape(String),
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImportError::Parse(e) => write!(f, "{e}"),
            ImportError::Shape(msg) => write!(f, "not a chrome trace: {msg}"),
        }
    }
}

impl std::error::Error for ImportError {}

fn json_to_value(j: &Json) -> Value {
    match j {
        Json::Bool(b) => Value::Bool(*b),
        Json::Number(n) => {
            // Chrome traces do not distinguish int from float; recover
            // the integer flavour when the value is exactly integral.
            if n.fract() == 0.0 && n.abs() < 9e15 {
                if *n >= 0.0 {
                    Value::U64(*n as u64)
                } else {
                    Value::I64(*n as i64)
                }
            } else {
                Value::F64(*n)
            }
        }
        Json::String(s) => Value::Str(s.clone().into()),
        other => Value::Str(format!("{other:?}").into()),
    }
}

/// Parses a Chrome trace (object form `{"traceEvents":[...]}` or bare
/// array form) back into [`Event`]s. Unknown phases are skipped rather
/// than rejected, so traces from other tools still import.
pub fn import_chrome(input: &str) -> Result<Vec<Event>, ImportError> {
    let doc = json::parse(input).map_err(ImportError::Parse)?;
    let items = match doc.get("traceEvents") {
        Some(array) => array
            .as_array()
            .ok_or_else(|| ImportError::Shape("traceEvents is not an array".to_string()))?,
        None => doc.as_array().ok_or_else(|| {
            ImportError::Shape("expected an object with traceEvents or a bare array".to_string())
        })?,
    };
    let mut events = Vec::with_capacity(items.len());
    for item in items {
        let Some(ph) = item.get("ph").and_then(Json::as_str) else {
            continue;
        };
        let Some(kind) = EventKind::from_phase(ph) else {
            continue;
        };
        let name = item
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let cat = item
            .get("cat")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let ts_us = item.get("ts").and_then(Json::as_f64).unwrap_or(0.0);
        let tid = item.get("tid").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let mut args = Vec::new();
        if let Some(Json::Object(map)) = item.get("args") {
            for (k, v) in map {
                args.push((k.clone(), json_to_value(v)));
            }
        }
        events.push(Event {
            kind,
            cat,
            name,
            ts_ns: (ts_us * 1_000.0).max(0.0) as u128,
            tid,
            args,
        });
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Event> {
        vec![
            Event {
                kind: EventKind::SpanBegin,
                cat: "pool".to_string(),
                name: "region".to_string(),
                ts_ns: 1_000,
                tid: 0,
                args: vec![],
            },
            Event {
                kind: EventKind::Counter,
                cat: "pool".to_string(),
                name: "imbalance".to_string(),
                ts_ns: 1_500,
                tid: 0,
                args: vec![("value".to_string(), Value::F64(1.25))],
            },
            Event {
                kind: EventKind::SpanEnd,
                cat: "pool".to_string(),
                name: "region".to_string(),
                ts_ns: 2_000,
                tid: 0,
                args: vec![
                    ("n".to_string(), Value::U64(4096)),
                    ("sched".to_string(), Value::Str("static".into())),
                ],
            },
        ]
    }

    #[test]
    fn chrome_is_valid_json_with_trace_events() {
        let text = chrome(&sample());
        let doc = json::parse(&text).unwrap();
        let items = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].get("ph").unwrap().as_str(), Some("B"));
        // 1_000 ns = 1 µs
        assert_eq!(items[0].get("ts").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn chrome_round_trips_through_import() {
        let original = sample();
        let imported = import_chrome(&chrome(&original)).unwrap();
        assert_eq!(imported.len(), original.len());
        for (a, b) in imported.iter().zip(&original) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.name, b.name);
            assert_eq!(a.cat, b.cat);
            assert_eq!(a.ts_ns, b.ts_ns);
            assert_eq!(a.tid, b.tid);
        }
        // End-event args survive (order normalised by key).
        let end = &imported[2];
        assert_eq!(end.arg("n"), Some(&Value::U64(4096)));
        assert_eq!(end.arg("sched"), Some(&Value::Str("static".into())));
    }

    #[test]
    fn import_rejects_non_traces() {
        assert!(import_chrome("not json").is_err());
        assert!(import_chrome("{\"traceEvents\": 5}").is_err());
        assert!(import_chrome("{\"other\": []}").is_err());
    }
}
