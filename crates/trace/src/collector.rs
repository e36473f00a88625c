//! The trace view of the per-thread record log.

use crate::event::{Event, EventKind, Value};
use crate::log::{self, Key};

pub use crate::log::thread_id;

/// A trace session over the per-thread record logs.
///
/// A collector owns a session of the logs ([`crate::log`]): while it
/// lives, every thread keeps its records unbounded, even after it
/// exits. Timestamps are nanoseconds since [`Collector::new`] was
/// called.
pub struct Collector {
    /// The session recording sites stamp while this collector is
    /// installed.
    pub(crate) session: u64,
    origin: u64,
}

impl Collector {
    /// Opens an empty session whose epoch is "now".
    pub fn new() -> Self {
        Collector {
            session: log::open_session(),
            origin: log::now_ns(),
        }
    }

    /// Records one event into the calling thread's log, stamped now and
    /// owned by this collector whether or not it is installed.
    pub fn record(
        &self,
        kind: EventKind,
        cat: &'static str,
        name: impl Into<Key>,
        args: Vec<(Key, Value)>,
    ) {
        log::point(kind, cat, name.into(), args, self.session);
    }

    /// Copies out everything recorded so far, every thread's records
    /// merged by timestamp and each span expanded into its begin and end
    /// event; a span's arguments travel on its end event.
    pub fn snapshot(&self) -> Vec<Event> {
        let mut stamped = Vec::new();
        log::each_session(self.session, |tid, record| {
            for (kind, at) in record.events() {
                let args = match kind {
                    EventKind::SpanBegin => Vec::new(),
                    _ => record
                        .args
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.clone()))
                        .collect(),
                };
                let event = Event {
                    kind,
                    cat: record.cat.to_string(),
                    name: record.name.to_string(),
                    ts_ns: u128::from(at.ns.saturating_sub(self.origin)),
                    tid,
                    args,
                };
                stamped.push((at, event));
            }
        });
        stamped.sort_by_key(|&(at, _)| at);
        stamped.into_iter().map(|(_, event)| event).collect()
    }
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        log::close_session();
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
