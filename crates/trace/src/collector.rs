//! Thread-safe in-memory event collector.

use crate::event::{Event, EventKind, Value};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Process-wide registry handing out small, stable per-thread ids. The
/// OS thread id is neither small nor stable across runs; trace ids
/// start at 0 in registration order, which makes summaries and Chrome
/// timelines readable.
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Returns this thread's stable trace id.
pub fn thread_id() -> u64 {
    TID.with(|t| *t)
}

/// An argument key: a literal at almost every site, so recording
/// borrows it instead of allocating.
pub type Key = Cow<'static, str>;

/// An event as recorded: the category and static keys stay borrowed,
/// and the [`Event`] with its owned strings is built only when the
/// collector is read.
struct Raw {
    kind: EventKind,
    cat: &'static str,
    name: Key,
    ts_ns: u128,
    tid: u64,
    args: Vec<(Key, Value)>,
}

/// Accumulates [`Event`]s from any number of threads.
///
/// A collector is cheap to create and owns its own epoch: all
/// timestamps are nanoseconds since [`Collector::new`] was called.
/// Recording takes one short-lived mutex acquisition and copies neither
/// the category nor a literal argument key; the instrument sites in the
/// workspace record at region/launch/size-point granularity (not per
/// element), so contention is negligible.
pub struct Collector {
    epoch: Instant,
    events: Mutex<Vec<Raw>>,
}

impl Collector {
    /// Creates an empty collector whose epoch is "now".
    pub fn new() -> Self {
        Collector {
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Records one event, stamped with the current time and the calling
    /// thread's stable id.
    pub fn record(
        &self,
        kind: EventKind,
        cat: &'static str,
        name: impl Into<Key>,
        args: Vec<(Key, Value)>,
    ) {
        let raw = Raw {
            kind,
            cat,
            name: name.into(),
            ts_ns: self.epoch.elapsed().as_nanos(),
            tid: thread_id(),
            args,
        };
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(raw);
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies out everything recorded so far, in recording order.
    pub fn snapshot(&self) -> Vec<Event> {
        let events = self.events.lock().unwrap_or_else(|e| e.into_inner());
        events
            .iter()
            .map(|r| Event {
                kind: r.kind,
                cat: r.cat.to_string(),
                name: r.name.to_string(),
                ts_ns: r.ts_ns,
                tid: r.tid,
                args: r
                    .args
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            })
            .collect()
    }
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_with_monotone_timestamps() {
        let c = Collector::new();
        for i in 0..5 {
            c.record(EventKind::Instant, "t", format!("e{i}"), Vec::new());
        }
        let events = c.snapshot();
        assert_eq!(events.len(), 5);
        for w in events.windows(2) {
            assert!(w[0].ts_ns <= w[1].ts_ns);
        }
        assert_eq!(events[3].name, "e3");
        assert_eq!(events[3].cat, "t");
    }

    #[test]
    fn thread_ids_are_stable_within_a_thread() {
        let a = thread_id();
        let b = thread_id();
        assert_eq!(a, b);
        let other = std::thread::spawn(thread_id).join().unwrap();
        assert_ne!(a, other);
    }
}
