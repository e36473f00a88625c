//! Structured tracing for the perfport workspace.
//!
//! The paper's evaluation is only as convincing as the evidence behind
//! each number: region fork-join costs, per-worker chunk imbalance,
//! simulated launch/coalescing behaviour, warm-up exclusion. This crate
//! captures that intermediate evidence as **spans** (nested, timed
//! regions) and **counters** (named samples), without perturbing the
//! measurements themselves:
//!
//! - **One log, two views.** Every span and instant writes one
//!   [`log::Record`] into its thread's log ([`log`]). The newest 256
//!   records of each thread are always kept: they are the flight
//!   recorder's window. While a [`Collector`] is open, each thread
//!   keeps its records unbounded, and the collector merges those of its
//!   session into [`Event`]s. Untraced, a span costs two clock reads and
//!   one uncontended lock of its own thread's log, and allocates
//!   nothing; counters record only while traced.
//! - **Observation only.** Recording never feeds back into modelled
//!   timings: results are bit-identical with tracing on and off (the
//!   end-to-end suite asserts this).
//! - **Two exporters.** Chrome `trace_event` JSON for
//!   `chrome://tracing`/Perfetto ([`export::chrome`]), and a plain
//!   hierarchical text summary ([`summary::render`]).
//! - **One JSON module.** [`json`] holds the workspace's one JSON writer
//!   and parser: every document the crates write (bench snapshots,
//!   manifests, telemetry blocks, flight dumps) is a [`json::Json`]
//!   value, rendered compact or pretty and read back by [`json::parse`].
//!
//! # Quickstart
//!
//! ```
//! use perfport_trace as trace;
//!
//! let session = trace::TraceSession::start();
//! {
//!     let mut sp = trace::span("demo", "outer");
//!     sp.arg("n", 42u64);
//!     let _inner = trace::span("demo", "inner");
//!     trace::counter("demo", "items", 42.0);
//! }
//! let events = session.finish();
//! assert_eq!(events.len(), 5); // 2 begins + 2 ends + 1 counter
//! let chrome = trace::export::chrome(&events);
//! assert!(chrome.contains("\"traceEvents\""));
//! println!("{}", trace::summary::render(&events));
//! ```

pub mod collector;
pub mod event;
pub mod export;
pub mod json;
pub mod log;
pub mod summary;

pub use collector::Collector;
pub use event::{Event, EventKind, Value};
pub use log::Key;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The session of the installed collector, 0 with none; read once by
/// every recording site. Stored with Release and loaded with Acquire
/// where a record is stamped with it, so the stamping thread also sees
/// the log state that opening the session published.
static ACTIVE: AtomicU64 = AtomicU64::new(0);

/// The installed collector. A `Mutex<Option<Arc<..>>>` instead of a
/// `OnceLock` so a session can be torn down and a new one installed
/// (each bench invocation is its own session).
static GLOBAL: Mutex<Option<Arc<Collector>>> = Mutex::new(None);

/// Whether a collector is currently installed. Instrumentation sites
/// can use this to skip preparing expensive arguments.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

fn active() -> u64 {
    ACTIVE.load(Ordering::Acquire)
}

/// Installs `collector` as the global recording sink, replacing (and
/// returning) any previous one.
pub fn install(collector: Arc<Collector>) -> Option<Arc<Collector>> {
    let mut slot = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    ACTIVE.store(collector.session, Ordering::Release);
    slot.replace(collector)
}

/// Removes the global collector and disables tracing. Returns the
/// collector so its events can be exported.
pub fn uninstall() -> Option<Arc<Collector>> {
    let mut slot = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    ACTIVE.store(0, Ordering::Release);
    slot.take()
}

/// An installed-collector session with RAII teardown: the common
/// pattern for tests and binaries.
///
/// `start` installs a fresh collector; `finish` (or drop) uninstalls it
/// and hands back the recorded events.
pub struct TraceSession {
    collector: Arc<Collector>,
    finished: bool,
}

impl TraceSession {
    /// Installs a fresh global collector.
    pub fn start() -> Self {
        let collector = Arc::new(Collector::new());
        install(Arc::clone(&collector));
        TraceSession {
            collector,
            finished: false,
        }
    }

    /// Uninstalls the collector and returns everything it recorded,
    /// merged by timestamp.
    pub fn finish(mut self) -> Vec<Event> {
        self.finished = true;
        uninstall();
        self.collector.snapshot()
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        if !self.finished {
            uninstall();
        }
    }
}

/// Opens a span. It writes one record into the calling thread's log
/// when the returned guard drops, which the flight recorder's tail
/// always shows; opened while a collector is installed, the record also
/// belongs to that collector's session. Untraced, a span allocates
/// nothing and ignores its arguments.
pub fn span(cat: &'static str, name: impl Into<Key>) -> SpanGuard {
    // Fix the epoch before the first begin time is read, which would
    // otherwise precede it and stamp as 0.
    log::epoch();
    SpanGuard {
        cat,
        name: name.into(),
        session: active(),
        begin_seq: log::next_seq(),
        begin: Instant::now(),
        end: None,
        args: Vec::new(),
    }
}

/// Records a counter sample while a collector is installed; untraced it
/// does nothing. Counters sit at the hottest sites, and a sample means
/// something only beside its neighbours in a trace.
pub fn counter(cat: &'static str, name: impl Into<Key>, value: f64) {
    let session = active();
    if session != 0 {
        let args = vec![("value".into(), Value::F64(value))];
        log::point(EventKind::Counter, cat, name.into(), args, session);
    }
}

/// Records an instantaneous event with arguments. Instants mark rare
/// events (a panic, a poisoned region, a run's provenance), so they are
/// recorded traced or not and the flight recorder's tail shows them.
pub fn instant(cat: &'static str, name: impl Into<Key>, args: Vec<(impl Into<Key>, Value)>) {
    let args = args.into_iter().map(|(k, v)| (k.into(), v)).collect();
    log::point(EventKind::Instant, cat, name.into(), args, active());
}

/// RAII handle for an open span. Arguments attached with [`arg`]
/// travel on the span's end event (they are usually only known once the
/// work has run: imbalance, counters, throughput).
///
/// [`arg`]: SpanGuard::arg
#[must_use = "a span ends when this guard drops"]
pub struct SpanGuard {
    cat: &'static str,
    name: Key,
    /// The collector session at opening; 0 when untraced.
    session: u64,
    begin_seq: u64,
    begin: Instant,
    /// Length and end sequence number, once stopped.
    end: Option<(Duration, u64)>,
    args: Vec<(Key, Value)>,
}

impl SpanGuard {
    /// Whether this guard is actually recording (tracing enabled at
    /// creation). Use to skip preparing expensive argument values.
    pub fn is_recording(&self) -> bool {
        self.session != 0
    }

    /// Attaches an argument to the span's end event.
    pub fn arg(&mut self, key: impl Into<Key>, value: impl Into<Value>) {
        if self.is_recording() {
            if self.args.capacity() == 0 {
                // Spans with arguments carry several: one allocation
                // instead of a growing series.
                self.args.reserve(8);
            }
            self.args.push((key.into(), value.into()));
        }
    }

    /// Ends the span's interval on the first call and returns its
    /// length; later calls return the same length. The record is still
    /// written at drop, so arguments attached after `stop` reach it.
    pub fn stop(&mut self) -> Duration {
        self.close().0
    }

    fn close(&mut self) -> (Duration, u64) {
        let begin = self.begin;
        *self
            .end
            .get_or_insert_with(|| (begin.elapsed(), log::next_seq()))
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let (elapsed, end_seq) = self.close();
        let begin = log::Stamp {
            ns: log::since_epoch(self.begin),
            seq: self.begin_seq,
        };
        let end = log::Stamp {
            ns: begin.ns.saturating_add(log::nanos(elapsed)),
            seq: end_seq,
        };
        log::push(log::Record {
            kind: log::Kind::Span,
            cat: self.cat,
            name: std::mem::take(&mut self.name),
            begin,
            end,
            args: std::mem::take(&mut self.args),
            session: self.session,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global tracer is process-wide state; serialize the tests that
    // touch it.
    static GLOBAL_TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_sites_record_nothing() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!enabled());
        let mut sp = span("t", "nothing");
        assert!(!sp.is_recording());
        sp.arg("ignored", 1u64);
        counter("t", "ignored", 1.0);
        drop(sp);
        // Installing afterwards must observe an empty world.
        let session = TraceSession::start();
        assert!(session.finish().is_empty());
    }

    #[test]
    fn session_collects_spans_and_counters() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let session = TraceSession::start();
        {
            let mut sp = span("cat", "outer");
            sp.arg("answer", 42u64);
            {
                let _inner = span("cat", "inner");
                counter("cat", "work", 7.0);
            }
        }
        let events = session.finish();
        assert!(!enabled());
        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::SpanBegin, // outer
                EventKind::SpanBegin, // inner
                EventKind::Counter,   // work
                EventKind::SpanEnd,   // inner
                EventKind::SpanEnd,   // outer
            ]
        );
        let outer_end = &events[4];
        assert_eq!(outer_end.name, "outer");
        assert_eq!(outer_end.args[0].0, "answer");
        assert_eq!(outer_end.args[0].1, Value::U64(42));
    }

    #[test]
    fn timestamps_are_monotone_per_thread() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let session = TraceSession::start();
        for i in 0..10 {
            let mut sp = span("t", format!("s{i}"));
            sp.arg("i", i as u64);
        }
        let events = session.finish();
        let times: Vec<u128> = events.iter().map(|e| e.ts_ns).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted, "single-thread events must be ordered");
    }

    #[test]
    fn concurrent_recording_is_safe_and_complete() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let session = TraceSession::start();
        std::thread::scope(|s| {
            for t in 0..4 {
                s.spawn(move || {
                    for i in 0..50 {
                        let mut sp = span("mt", format!("t{t}"));
                        sp.arg("i", i as u64);
                    }
                });
            }
        });
        let events = session.finish();
        assert_eq!(events.len(), 4 * 50 * 2);
        // Each thread's events carry a consistent, distinct tid.
        let mut tids: Vec<u64> = events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 4);
    }

    #[test]
    fn a_thread_that_exits_mid_session_keeps_its_records_until_the_collector_drops() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let session = TraceSession::start();
        let tid = std::thread::spawn(|| {
            let _sp = span("exit", "last_words");
            log::thread_id()
        })
        .join()
        .unwrap();
        assert!(log::registered().0.contains(&tid), "held for the session");
        let events = session.finish();
        let ends: Vec<&Event> = events
            .iter()
            .filter(|e| e.kind == EventKind::SpanEnd && e.tid == tid)
            .collect();
        assert_eq!(ends.len(), 1);
        assert_eq!(ends[0].name, "last_words");
        // Released once no collector is open; one of the collector unit
        // tests, which run beside this one, may still be.
        let (tids, open) = log::registered();
        assert!(open > 0 || !tids.contains(&tid), "released with it");
    }

    #[test]
    fn exited_threads_leave_the_registry() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        const THREADS: usize = 2000;
        for _ in 0..THREADS / 8 {
            let threads: Vec<_> = (0..8)
                .map(|_| std::thread::spawn(|| drop(span("retire", "short"))))
                .collect();
            for t in threads {
                t.join().unwrap();
            }
        }
        // Only threads alive right now (this test binary's harness and
        // concurrent tests) may still be registered.
        let registered = log::registered().0.len();
        assert!(
            registered <= 64,
            "{registered} logs registered after {THREADS} exits"
        );
    }
}
