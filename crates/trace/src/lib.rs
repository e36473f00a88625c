//! Structured tracing for the perfport workspace.
//!
//! The paper's evaluation is only as convincing as the evidence behind
//! each number: region fork-join costs, per-worker chunk imbalance,
//! simulated launch/coalescing behaviour, warm-up exclusion. This crate
//! captures that intermediate evidence as **spans** (nested, timed
//! regions) and **counters** (named samples), without perturbing the
//! measurements themselves:
//!
//! - **Zero cost when disabled.** Every instrumentation site starts
//!   with one relaxed atomic load; when no collector is installed the
//!   site does nothing else — no allocation, no formatting, no lock.
//! - **Observation only.** Recording never feeds back into modelled
//!   timings: results are bit-identical with tracing on and off (the
//!   end-to-end suite asserts this).
//! - **Three exporters.** JSONL event logs for ad-hoc grepping, Chrome
//!   `trace_event` JSON for `chrome://tracing`/Perfetto, and a plain
//!   hierarchical text summary ([`summary::render`]).
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
pub mod summary;

pub use collector::{Collector, Key};
pub use event::{Event, EventKind, Value};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Global enable flag; checked with one relaxed load on every
/// instrumentation site before anything else happens.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The installed collector. A `Mutex<Option<Arc<..>>>` instead of a
/// `OnceLock` so a session can be torn down and a new one installed
/// (each bench invocation is its own session).
static GLOBAL: Mutex<Option<Arc<Collector>>> = Mutex::new(None);

/// Whether a collector is currently installed. Instrumentation sites
/// can use this to skip preparing expensive arguments.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs `collector` as the global recording sink, replacing (and
/// returning) any previous one.
pub fn install(collector: Arc<Collector>) -> Option<Arc<Collector>> {
    let mut slot = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let old = slot.replace(collector);
    ENABLED.store(true, Ordering::Relaxed);
    old
}

/// Removes the global collector and disables tracing. Returns the
/// collector so its events can be exported.
pub fn uninstall() -> Option<Arc<Collector>> {
    let mut slot = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    ENABLED.store(false, Ordering::Relaxed);
    slot.take()
}

fn current() -> Option<Arc<Collector>> {
    if !enabled() {
        return None;
    }
    GLOBAL
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
        .map(Arc::clone)
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

    /// Uninstalls the collector and returns everything it recorded, in
    /// recording order.
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

/// Opens a span: records a begin event now and an end event when the
/// returned guard drops. When tracing is disabled this is a no-op that
/// performs a single atomic load.
pub fn span(cat: &'static str, name: impl Into<String>) -> SpanGuard {
    match current() {
        Some(collector) => {
            let name: Key = name.into().into();
            collector.record(EventKind::SpanBegin, cat, name.clone(), Vec::new());
            SpanGuard {
                inner: Some(SpanInner {
                    collector,
                    cat,
                    name,
                    args: Vec::new(),
                }),
            }
        }
        None => SpanGuard { inner: None },
    }
}

/// Records a counter sample.
pub fn counter(cat: &'static str, name: impl Into<String>, value: f64) {
    if let Some(collector) = current() {
        collector.record(
            EventKind::Counter,
            cat,
            name.into(),
            vec![("value".into(), Value::F64(value))],
        );
    }
}

/// Records an instantaneous event with arguments.
pub fn instant(cat: &'static str, name: impl Into<String>, args: Vec<(String, Value)>) {
    if let Some(collector) = current() {
        let args = args.into_iter().map(|(k, v)| (k.into(), v)).collect();
        collector.record(EventKind::Instant, cat, name.into(), args);
    }
}

struct SpanInner {
    collector: Arc<Collector>,
    cat: &'static str,
    name: Key,
    args: Vec<(Key, Value)>,
}

/// RAII handle for an open span. Arguments attached with [`arg`]
/// travel on the span's end event (they are usually only known once the
/// work has run: imbalance, counters, throughput).
///
/// [`arg`]: SpanGuard::arg
#[must_use = "a span ends when this guard drops"]
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

impl SpanGuard {
    /// Whether this guard is actually recording (tracing enabled at
    /// creation). Use to skip preparing expensive argument values.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// Attaches an argument to the span's end event.
    pub fn arg(&mut self, key: impl Into<Key>, value: impl Into<Value>) {
        if let Some(inner) = &mut self.inner {
            inner.args.push((key.into(), value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            inner
                .collector
                .record(EventKind::SpanEnd, inner.cat, inner.name, inner.args);
        }
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
}
