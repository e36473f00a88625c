//! The flight recorder: the bounded tail of every thread's record log,
//! dumped to disk when something goes wrong.
//!
//! The records live in `perfport-trace`'s per-thread log
//! ([`perfport_trace::log`]), which keeps the newest
//! [`TAIL`](perfport_trace::log::TAIL) records of every thread always,
//! traced or not: every span (a pool region among them) and every
//! instant (task panics, region poisoning). Memory is bounded however
//! long the process runs, and nothing is formatted until a dump. The
//! recorder is invisible in steady state: nothing is written to disk
//! until a pool region poisons or a task panics, at which point [`dump`]
//! renders every live thread's tail in timestamp order (a span as a
//! `<name>_begin`/`<name>_end` pair), appends the triggering event
//! **last**, and serializes the lot to `flight-<pid>.json` (in
//! `PERFPORT_FLIGHT_DIR`, or the working directory) for post-mortem
//! inspection.
//!
//! Only the first trigger in a process dumps; later poisons see the
//! guard already taken and skip, so the file on disk always describes
//! the *first* failure.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

use perfport_trace::json::Json;
use perfport_trace::log::{self, Record, Stamp};
use perfport_trace::EventKind;

/// Schema tag stamped into every dump.
pub const FLIGHT_SCHEMA: &str = "perfport-flight/1";

/// One structured runtime event, as a dump writes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Nanoseconds since the process epoch of the record log.
    pub ts_ns: u64,
    /// Label of the thread that recorded the event.
    pub worker: String,
    /// Event kind, e.g. `region_begin`, `task_panic`, `region_poison`.
    pub kind: String,
    /// Free-form detail payload.
    pub detail: String,
}

impl FlightEvent {
    /// The events `record` stands for, with their stamps: a span's begin
    /// (detail `cat=<cat>`) and end (`ns=<length>` and its arguments),
    /// or one point event named after the record (its arguments).
    fn expand<'a>(
        worker: &'a str,
        record: &'a Record,
    ) -> impl Iterator<Item = (Stamp, FlightEvent)> + 'a {
        record.events().map(move |(kind, at)| {
            let args = record.args.iter().map(|(k, v)| format!("{k}={v}"));
            let (kind, detail) = match kind {
                EventKind::SpanBegin => (
                    format!("{}_begin", record.name),
                    format!("cat={}", record.cat),
                ),
                EventKind::SpanEnd => {
                    let ns = record.end.ns.saturating_sub(record.begin.ns);
                    let detail = std::iter::once(format!("ns={ns}")).chain(args);
                    (format!("{}_end", record.name), join(detail))
                }
                _ => (record.name.to_string(), join(args)),
            };
            let event = FlightEvent {
                ts_ns: at.ns,
                worker: worker.to_string(),
                kind,
                detail,
            };
            (at, event)
        })
    }

    fn to_json(&self) -> Json {
        Json::object([
            ("ts_ns", self.ts_ns.into()),
            ("worker", self.worker.as_str().into()),
            ("kind", self.kind.as_str().into()),
            ("detail", self.detail.as_str().into()),
        ])
    }
}

fn join(parts: impl Iterator<Item = String>) -> String {
    parts.collect::<Vec<_>>().join(" ")
}

/// Best-effort extraction of a panic payload's message, for poison
/// events and dump triggers (`&str` and `String` payloads; anything
/// else gets a placeholder).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Whether [`dump`] has already fired in this process.
static DUMPED: AtomicBool = AtomicBool::new(false);

/// Serializes every live thread's tail to `flight-<pid>.json` with the
/// triggering event appended last, and returns the path written. Only
/// the first call in a process dumps (the file describes the first
/// failure); later calls — and calls where the write fails — return
/// `None`.
///
/// The destination directory is `PERFPORT_FLIGHT_DIR` when set, else
/// the current working directory.
pub fn dump(trigger_kind: &str, trigger_detail: &str) -> Option<PathBuf> {
    if DUMPED.swap(true, Ordering::SeqCst) {
        return None;
    }
    let trigger = FlightEvent {
        ts_ns: log::now_ns(),
        worker: log::thread_label(),
        kind: trigger_kind.to_string(),
        detail: trigger_detail.to_string(),
    };

    let mut stamped = Vec::new();
    log::each_tail(|worker, record| stamped.extend(FlightEvent::expand(worker, record)));
    stamped.sort_by_key(|&(at, _)| at);
    let mut merged: Vec<FlightEvent> = stamped.into_iter().map(|(_, ev)| ev).collect();
    merged.push(trigger.clone());

    let doc = Json::object([
        ("schema", FLIGHT_SCHEMA.into()),
        ("pid", u64::from(std::process::id()).into()),
        ("trigger", trigger.to_json()),
        (
            "events",
            Json::Array(merged.iter().map(FlightEvent::to_json).collect()),
        ),
    ]);
    let body = format!("{}\n", doc.pretty());

    let dir = std::env::var_os("PERFPORT_FLIGHT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    let path = dir.join(format!("flight-{}.json", std::process::id()));
    match std::fs::write(&path, body) {
        Ok(()) => {
            eprintln!(
                "perfport-telemetry: flight recorder dumped {} events to {}",
                merged.len(),
                path.display()
            );
            Some(path)
        }
        Err(err) => {
            eprintln!(
                "perfport-telemetry: failed to write flight recording to {}: {err}",
                path.display()
            );
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_span_record_renders_as_a_begin_end_pair() {
        let mut sp = perfport_trace::span("flight_test", "region");
        sp.arg("ignored_untraced", 1u64);
        drop(sp);
        let mut rendered = Vec::new();
        let me = log::thread_label();
        log::each_tail(|worker, record| {
            if worker == me && record.cat == "flight_test" {
                rendered.extend(FlightEvent::expand(worker, record).map(|(_, ev)| ev));
            }
        });
        let kinds: Vec<&str> = rendered.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(kinds, ["region_begin", "region_end"]);
        assert!(rendered[0].ts_ns <= rendered[1].ts_ns);
        assert_eq!(rendered[0].detail, "cat=flight_test");
        assert!(rendered[1].detail.starts_with("ns="), "{rendered:?}");
    }

    #[test]
    fn event_json_escapes_payload() {
        let ev = FlightEvent {
            ts_ns: 1,
            worker: "w".into(),
            kind: "task_panic".into(),
            detail: "said \"boom\"".into(),
        };
        let json = ev.to_json().to_string();
        assert!(json.contains("\\\"boom\\\""));
        assert!(json.contains("\"ts_ns\": 1"));
    }
}
