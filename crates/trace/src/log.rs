//! The per-thread record log: the one event buffer behind both the
//! flight recorder and the trace collector.
//!
//! Each thread that records owns a [`Ring`] of [`Record`]s; one registry
//! gives each thread its numeric id and its label, and all stamps count
//! from one process epoch. The flight recorder (`perfport-telemetry`)
//! reads the newest [`TAIL`] records of every thread through
//! [`each_tail`]. While any [`crate::Collector`] is open, rings stop
//! evicting, so each thread keeps its records unbounded and a collector
//! reads back those of its session; when the last collector closes, the
//! rings shrink back to their tails.
//!
//! Recording locks only the calling thread's own ring, and allocates
//! nothing once the ring is full. A thread that exits leaves the
//! registry, unless a collector is open: then it leaves when the last
//! one closes, so the collector still sees its records.

use crate::event::{EventKind, Value};
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// A name or argument key: a literal at almost every site, so recording
/// borrows it instead of allocating.
pub type Key = Cow<'static, str>;

/// Records each thread keeps for the flight recorder.
pub const TAIL: usize = 256;

/// Where an event sits in its thread's log. Stamps order one thread's
/// events as they happened: the sequence number separates events that
/// the clock cannot tell apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Stamp {
    /// Nanoseconds since the process epoch.
    pub ns: u64,
    /// Position in the recording thread's event order.
    pub seq: u64,
}

/// The process epoch, fixed by the first call.
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds from the process epoch to `t` (0 before it).
pub(crate) fn since_epoch(t: Instant) -> u64 {
    nanos(t.saturating_duration_since(epoch()))
}

/// Nanoseconds since the process epoch.
pub fn now_ns() -> u64 {
    since_epoch(Instant::now())
}

/// A duration in whole nanoseconds, saturating at `u64::MAX`.
pub fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// The calling thread's next sequence number.
pub(crate) fn next_seq() -> u64 {
    thread_local!(static SEQ: Cell<u64> = const { Cell::new(0) });
    SEQ.with(|seq| seq.replace(seq.get() + 1))
}

/// What a record stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A closed span, from `begin` to `end`.
    Span,
    /// One event of this kind at `end`: a counter sample or an instant.
    Point(EventKind),
}

/// One entry of a thread's log.
#[derive(Debug, Clone)]
pub struct Record {
    /// What the record stands for.
    pub kind: Kind,
    /// Subsystem category (`"pool"`, `"gpu"`, `"runner"`, ...).
    pub cat: &'static str,
    /// Span, counter or instant name.
    pub name: Key,
    /// When a span opened; equal to `end` for a point.
    pub begin: Stamp,
    /// When a span closed, or when a point happened.
    pub end: Stamp,
    /// Arguments; a span's travel on its end event.
    pub args: Vec<(Key, Value)>,
    /// The collector session the record belongs to; 0 for none.
    pub(crate) session: u64,
}

impl Record {
    /// The events the record stands for, in order: a span's begin and
    /// end, or its one point event.
    pub fn events(&self) -> impl Iterator<Item = (EventKind, Stamp)> {
        let (first, second) = match self.kind {
            Kind::Span => (
                (EventKind::SpanBegin, self.begin),
                Some((EventKind::SpanEnd, self.end)),
            ),
            Kind::Point(kind) => ((kind, self.end), None),
        };
        std::iter::once(first).chain(second)
    }
}

/// Appends a point event, stamped now, to the calling thread's log.
pub(crate) fn point(
    kind: EventKind,
    cat: &'static str,
    name: Key,
    args: Vec<(Key, Value)>,
    session: u64,
) {
    let at = Stamp {
        ns: now_ns(),
        seq: next_seq(),
    };
    push(Record {
        kind: Kind::Point(kind),
        cat,
        name,
        begin: at,
        end: at,
        args,
        session,
    });
}

/// A bounded ring: [`Ring::push`] beyond capacity evicts the oldest
/// entry, so the ring holds the newest `capacity` entries in recording
/// order.
#[derive(Debug)]
pub struct Ring<T> {
    capacity: usize,
    entries: VecDeque<T>,
}

impl<T> Ring<T> {
    /// An empty ring holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Ring<T> {
        Ring {
            capacity: capacity.max(1),
            entries: VecDeque::new(),
        }
    }

    /// Appends `entry`, evicting the oldest entry when full.
    pub fn push(&mut self, entry: T) {
        self.trim(self.capacity - 1);
        self.entries.push_back(entry);
    }

    /// Evicts the oldest entries down to `keep`.
    fn trim(&mut self, keep: usize) {
        while self.entries.len() > keep {
            self.entries.pop_front();
        }
    }

    /// Every retained entry, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &T> {
        self.entries.iter()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One thread's log with the identity its records share.
struct ThreadLog {
    tid: u64,
    label: String,
    ring: Mutex<Ring<Record>>,
}

/// Every update leaves the guarded data whole, so a poisoned lock is
/// recovered rather than propagated.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Every registered thread's log. A live thread's `Local` holds a second
/// reference, so a log held only here belongs to a thread that exited
/// while a collector was open.
static REGISTRY: Mutex<Vec<Arc<ThreadLog>>> = Mutex::new(Vec::new());

/// Collectors open now; while any is, rings keep everything. Changed
/// only under the registry lock. Relaxed: a thread learns a session id
/// only through a happens-before edge from `open_session` (the
/// collector itself, or the Release store that installs it), so it
/// never reads a count from before its session.
static OPEN: AtomicUsize = AtomicUsize::new(0);
static NEXT_SESSION: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

/// The calling thread's registration; dropped at thread exit.
struct Local(Arc<ThreadLog>);

impl Drop for Local {
    fn drop(&mut self) {
        let mut registry = lock(&REGISTRY);
        if OPEN.load(Ordering::Relaxed) == 0 {
            registry.retain(|log| !Arc::ptr_eq(log, &self.0));
        }
    }
}

thread_local! {
    static LOCAL: Local = {
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        let label = match std::thread::current().name() {
            Some(name) => name.to_string(),
            None => format!("thread-{tid}"),
        };
        let ring = Mutex::new(Ring::new(TAIL));
        let log = Arc::new(ThreadLog { tid, label, ring });
        lock(&REGISTRY).push(Arc::clone(&log));
        Local(log)
    };
}

/// Appends `record` to the calling thread's log. A thread recording
/// while its thread-locals are torn down loses the record.
pub(crate) fn push(record: Record) {
    let _ = LOCAL.try_with(|l| {
        let mut ring = lock(&l.0.ring);
        if OPEN.load(Ordering::Relaxed) == 0 {
            ring.push(record);
        } else {
            ring.entries.push_back(record);
        }
    });
}

/// The calling thread's id: small, stable, unique in the process and
/// given out in registration order, so summaries and timelines read
/// well (the OS thread id is neither small nor stable across runs).
pub fn thread_id() -> u64 {
    LOCAL.with(|l| l.0.tid)
}

/// The calling thread's label: its name, or `thread-<id>`.
pub fn thread_label() -> String {
    LOCAL.with(|l| l.0.label.clone())
}

/// Calls `f` with the label of every registered thread and each record
/// of its tail (its newest [`TAIL`] records), oldest first.
pub fn each_tail(mut f: impl FnMut(&str, &Record)) {
    for log in lock(&REGISTRY).iter() {
        let ring = lock(&log.ring);
        for record in ring.events().skip(ring.len().saturating_sub(TAIL)) {
            f(&log.label, record);
        }
    }
}

/// Opens a collector session and returns its id.
pub(crate) fn open_session() -> u64 {
    let _registry = lock(&REGISTRY);
    OPEN.fetch_add(1, Ordering::Relaxed);
    NEXT_SESSION.fetch_add(1, Ordering::Relaxed)
}

/// Calls `f` with the id of every registered thread and each of its
/// records of `session`, oldest first.
pub(crate) fn each_session(session: u64, mut f: impl FnMut(u64, &Record)) {
    for log in lock(&REGISTRY).iter() {
        for record in lock(&log.ring).events().filter(|r| r.session == session) {
            f(log.tid, record);
        }
    }
}

/// Closes a session. When it was the last one open, every ring shrinks
/// back to its tail and the logs of threads that exited meanwhile leave
/// the registry.
pub(crate) fn close_session() {
    let mut registry = lock(&REGISTRY);
    if OPEN.fetch_sub(1, Ordering::Relaxed) == 1 {
        registry.retain(|log| Arc::strong_count(log) > 1);
        for log in registry.iter() {
            let mut ring = lock(&log.ring);
            ring.trim(TAIL);
            ring.entries.shrink_to(TAIL);
        }
    }
}

/// Thread ids of the registered logs, and the number of open
/// collectors, read together.
#[cfg(test)]
pub(crate) fn registered() -> (Vec<u64>, usize) {
    let registry = lock(&REGISTRY);
    let tids = registry.iter().map(|log| log.tid).collect();
    (tids, OPEN.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_newest_in_order() {
        let mut ring = Ring::new(3);
        for i in 0..5u64 {
            ring.push(i);
        }
        assert_eq!(ring.events().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(ring.len(), 3);
    }

    #[test]
    fn a_span_record_expands_to_a_begin_end_pair() {
        let at = |ns, seq| Stamp { ns, seq };
        let record = Record {
            kind: Kind::Span,
            cat: "pool",
            name: "region".into(),
            begin: at(10, 0),
            end: at(30, 2),
            args: Vec::new(),
            session: 0,
        };
        let events: Vec<_> = record.events().collect();
        assert_eq!(
            events,
            vec![
                (EventKind::SpanBegin, at(10, 0)),
                (EventKind::SpanEnd, at(30, 2))
            ]
        );
        let point = Record {
            kind: Kind::Point(EventKind::Instant),
            ..record
        };
        assert_eq!(point.events().count(), 1);
    }
}
