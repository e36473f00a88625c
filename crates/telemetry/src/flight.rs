//! The flight recorder: per-worker ring buffers of runtime events,
//! dumped to disk when something goes wrong.
//!
//! Every thread that records an event owns a fixed-size [`Ring`]
//! (capacity [`DEFAULT_RING_CAPACITY`]) holding the newest structured
//! events — region begin/end, region poisoning, task panics.
//! Recording pushes a static kind, the time and a [`Detail`] (a named
//! number on every hot path) into a thread-owned ring behind an
//! uncontended mutex; the thread's label is kept once per ring, so
//! nothing is formatted or allocated until a dump. Memory is bounded no
//! matter how long the process runs. The rings are invisible in steady
//! state: nothing is ever written to disk until a pool region poisons
//! or a task panics, at which point [`dump`] merges every ring in
//! timestamp order, appends the triggering event **last**, and
//! serializes the lot to `flight-<pid>.json` (in `PERFPORT_FLIGHT_DIR`,
//! or the working directory) for post-mortem inspection.
//!
//! Only the first trigger in a process dumps; later poisons see the
//! guard already taken and skip, so the file on disk always describes
//! the *first* failure.

use std::collections::VecDeque;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::snapshot::escape;

/// Events kept per worker thread before the oldest falls off.
pub const DEFAULT_RING_CAPACITY: usize = 256;

/// Schema tag stamped into every dump.
pub const FLIGHT_SCHEMA: &str = "perfport-flight/1";

/// One structured runtime event, as a dump writes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Nanoseconds since the process-wide telemetry epoch (the first
    /// event ever recorded).
    pub ts_ns: u64,
    /// Label of the thread that recorded the event.
    pub worker: String,
    /// Event kind, e.g. `region_begin`, `task_panic`, `region_poison`.
    pub kind: String,
    /// Free-form detail payload.
    pub detail: String,
}

impl FlightEvent {
    fn to_json(&self) -> String {
        format!(
            "{{\"ts_ns\": {}, \"worker\": \"{}\", \"kind\": \"{}\", \"detail\": \"{}\"}}",
            self.ts_ns,
            escape(&self.worker),
            escape(&self.kind),
            escape(&self.detail)
        )
    }
}

/// What an event says beyond its kind. Recording stores it as is; it
/// becomes text only when a dump is written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Detail {
    /// A named number, written `key=value` (`team=2`, `ns=1530`).
    Num(&'static str, u64),
    /// Free text, for cold paths such as a panic message.
    Text(String),
}

impl fmt::Display for Detail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Detail::Num(key, value) => write!(f, "{key}={value}"),
            Detail::Text(text) => f.write_str(text),
        }
    }
}

/// An event as a thread's ring holds it: nothing is formatted and, for
/// numeric details, nothing is allocated.
struct Record {
    ts_ns: u64,
    kind: &'static str,
    detail: Detail,
}

impl Record {
    fn to_event(&self, worker: &str) -> FlightEvent {
        FlightEvent {
            ts_ns: self.ts_ns,
            worker: worker.to_string(),
            kind: self.kind.to_string(),
            detail: self.detail.to_string(),
        }
    }
}

/// A fixed-capacity event ring: pushing beyond capacity evicts the
/// oldest entry, so the ring always holds the newest `capacity`
/// events in recording order.
#[derive(Debug)]
pub struct Ring<T = FlightEvent> {
    capacity: usize,
    events: VecDeque<T>,
}

impl<T> Ring<T> {
    /// An empty ring holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Ring<T> {
        Ring {
            capacity: capacity.max(1),
            events: VecDeque::new(),
        }
    }

    /// Appends `event`, evicting the oldest entry when full.
    pub fn push(&mut self, event: T) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(event);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &T> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Maximum number of events the ring retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// The process-wide timestamp origin, fixed at the first event.
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One thread's ring with the thread's label, which every event of the
/// ring shares.
struct ThreadRing {
    worker: Arc<str>,
    ring: Mutex<Ring<Record>>,
}

/// All per-thread rings; locked only at thread registration and dump.
static RINGS: Mutex<Vec<Arc<ThreadRing>>> = Mutex::new(Vec::new());

/// Monotonic label source for unnamed threads.
static WORKER_SEQ: AtomicU64 = AtomicU64::new(0);

fn register() -> Arc<ThreadRing> {
    let worker = match std::thread::current().name() {
        Some(name) => name.into(),
        None => format!("thread-{}", WORKER_SEQ.fetch_add(1, Ordering::Relaxed)).into(),
    };
    let ring = Arc::new(ThreadRing {
        worker,
        ring: Mutex::new(Ring::new(DEFAULT_RING_CAPACITY)),
    });
    RINGS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(Arc::clone(&ring));
    ring
}

thread_local! {
    static LOCAL_RING: Arc<ThreadRing> = register();
}

/// Records one event into the calling thread's ring.
#[inline]
pub fn event(kind: &'static str, detail: Detail) {
    let ts_ns = now_ns();
    LOCAL_RING.with(|l| {
        l.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Record {
                ts_ns,
                kind,
                detail,
            });
    });
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

/// Serializes every ring to `flight-<pid>.json` with the triggering
/// event appended last, and returns the path written. Only the first
/// call in a process dumps (the file describes the first failure);
/// later calls — and calls where the write fails — return `None`.
///
/// The destination directory is `PERFPORT_FLIGHT_DIR` when set, else
/// the current working directory.
pub fn dump(trigger_kind: &str, trigger_detail: &str) -> Option<PathBuf> {
    if DUMPED.swap(true, Ordering::SeqCst) {
        return None;
    }
    let trigger = FlightEvent {
        ts_ns: now_ns(),
        worker: LOCAL_RING.with(|l| l.worker.to_string()),
        kind: trigger_kind.to_string(),
        detail: trigger_detail.to_string(),
    };

    let mut merged: Vec<FlightEvent> = Vec::new();
    {
        let rings = RINGS.lock().unwrap_or_else(|e| e.into_inner());
        for ring in rings.iter() {
            let records = ring.ring.lock().unwrap_or_else(|e| e.into_inner());
            merged.extend(records.events().map(|r| r.to_event(&ring.worker)));
        }
    }
    merged.sort_by_key(|e| e.ts_ns);
    merged.push(trigger.clone());

    let mut body = String::new();
    body.push_str("{\n");
    body.push_str(&format!("  \"schema\": \"{FLIGHT_SCHEMA}\",\n"));
    body.push_str(&format!("  \"pid\": {},\n", std::process::id()));
    body.push_str(&format!("  \"trigger\": {},\n", trigger.to_json()));
    body.push_str("  \"events\": [\n");
    for (i, ev) in merged.iter().enumerate() {
        let sep = if i + 1 == merged.len() { "" } else { "," };
        body.push_str(&format!("    {}{sep}\n", ev.to_json()));
    }
    body.push_str("  ]\n}\n");

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
    fn ring_keeps_newest_in_order() {
        let mut ring = Ring::new(3);
        for i in 0..5u64 {
            ring.push(FlightEvent {
                ts_ns: i,
                worker: "t".into(),
                kind: "k".into(),
                detail: i.to_string(),
            });
        }
        let kept: Vec<u64> = ring.events().map(|e| e.ts_ns).collect();
        assert_eq!(kept, vec![2, 3, 4]);
        assert_eq!(ring.len(), 3);
    }

    #[test]
    fn ring_below_capacity_keeps_everything() {
        let mut ring = Ring::new(8);
        for i in 0..4u64 {
            ring.push(FlightEvent {
                ts_ns: i,
                worker: "t".into(),
                kind: "k".into(),
                detail: String::new(),
            });
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.capacity(), 8);
    }

    #[test]
    fn details_become_text_only_when_written() {
        assert_eq!(Detail::Num("team", 2).to_string(), "team=2");
        assert_eq!(Detail::Text("boom".into()).to_string(), "boom");
        let record = Record {
            ts_ns: 7,
            kind: "region_end",
            detail: Detail::Num("ns", 1530),
        };
        let ev = record.to_event("perfport-worker-0");
        assert_eq!(ev.worker, "perfport-worker-0");
        assert_eq!(
            (ev.kind.as_str(), ev.detail.as_str()),
            ("region_end", "ns=1530")
        );
    }

    #[test]
    fn event_json_escapes_payload() {
        let ev = FlightEvent {
            ts_ns: 1,
            worker: "w".into(),
            kind: "task_panic".into(),
            detail: "said \"boom\"".into(),
        };
        let json = ev.to_json();
        assert!(json.contains("\\\"boom\\\""));
        assert!(json.contains("\"ts_ns\": 1"));
    }
}
