//! Static metric handles over per-thread shards merged on demand.
//!
//! A metric is a `static` handle declared where it is recorded:
//!
//! ```
//! use perfport_telemetry::Counter;
//!
//! static REGIONS: Counter = Counter::new("pool/regions");
//! REGIONS.add(1);
//! ```
//!
//! The first use of a handle in the process resolves its name to a
//! small id (one lock, once per handle); handles of one kind and name
//! share an id. Every thread that records owns a **shard**: per kind, a
//! list of slots indexed by that id. Recording is a thread-local index
//! plus one relaxed atomic update — no string hash, no allocation, no
//! lock and no write to another thread's cache line — which is what
//! makes it safe to leave on in the pool's region path. Locks are taken
//! only on cold edges: resolving an id, a thread's first touch of a
//! metric, and [`snapshot`], which merges all shards into one
//! [`Snapshot`].
//!
//! A thread that exits folds its shard into the registry's retired
//! totals and unregisters it, so the registry holds only live threads'
//! shards however many short-lived threads come and go. Folding keeps
//! every merge rule: counters and histograms stay monotonic (snapshot
//! deltas remain meaningful) and gauges keep their max-merge.
//!
//! With the crate's `stub` feature every recording method is an empty
//! inline function and [`snapshot`] is always empty; a [`Span`] still
//! times its interval, because callers use the length, and still
//! reaches the trace collector.

use std::sync::atomic::AtomicUsize;
use std::time::Duration;

use crate::snapshot::Snapshot;
use perfport_trace::log::nanos;

/// Marks a handle whose name has not been resolved to an id yet.
const UNRESOLVED: usize = usize::MAX;

/// A metric's name and, once resolved, its id within its kind.
#[derive(Debug)]
#[cfg_attr(feature = "stub", allow(dead_code))]
struct Id {
    name: &'static str,
    id: AtomicUsize,
}

impl Id {
    const fn new(name: &'static str) -> Id {
        Id {
            name,
            id: AtomicUsize::new(UNRESOLVED),
        }
    }
}

/// A monotonic counter, summed across threads.
#[derive(Debug)]
pub struct Counter(Id);

impl Counter {
    /// A handle for the counter `name`.
    pub const fn new(name: &'static str) -> Counter {
        Counter(Id::new(name))
    }

    /// Adds `delta` to the calling thread's shard of this counter.
    #[inline]
    pub fn add(&self, delta: u64) {
        shards::counter(&self.0, delta);
    }
}

/// A point-in-time reading, kept per thread and merged by maximum
/// (the useful aggregate for depth-style gauges).
#[derive(Debug)]
pub struct Gauge(Id);

impl Gauge {
    /// A handle for the gauge `name`.
    pub const fn new(name: &'static str) -> Gauge {
        Gauge(Id::new(name))
    }

    /// Sets the calling thread's shard of this gauge to `value`.
    #[inline]
    pub fn set(&self, value: u64) {
        shards::gauge(&self.0, value);
    }
}

/// A log₂-bucketed streaming histogram of `u64` samples (see
/// [`crate::histogram`]), summed bucket-wise across threads.
#[derive(Debug)]
pub struct Histogram(Id);

impl Histogram {
    /// A handle for the histogram `name`.
    pub const fn new(name: &'static str) -> Histogram {
        Histogram(Id::new(name))
    }

    /// A handle for a name built at run time, such as one member of a
    /// per-key family. The name is interned once per process; keep the
    /// handle (in a thread-local map, say) so the hot path never builds
    /// the name again.
    pub fn named(name: &str) -> Histogram {
        shards::named(name)
    }

    /// Records `value` into the calling thread's shard of this
    /// histogram.
    #[inline]
    pub fn observe(&self, value: u64) {
        shards::observe(&self.0, value);
    }

    /// Starts timing one interval into this histogram. The interval is
    /// also a `perfport-trace` span `cat:name`, which times it: it lands
    /// in the thread's record log, and in a collector's session while
    /// one is installed.
    pub fn span(&'static self, cat: &'static str, name: &'static str) -> Span {
        Span {
            histogram: self,
            trace: perfport_trace::span(cat, name),
            elapsed: None,
        }
    }
}

/// One timed interval: the single instrument for a region that is both
/// a telemetry histogram and a trace span.
///
/// The interval ends at the first [`Span::stop`] (or at drop), and its
/// length is recorded into the histogram then. The trace span writes
/// its record when the `Span` drops, so arguments computed from the
/// length still reach its end event.
#[must_use = "a span stops when it drops"]
pub struct Span {
    histogram: &'static Histogram,
    trace: perfport_trace::SpanGuard,
    elapsed: Option<Duration>,
}

impl Span {
    /// Whether a trace collector records this span. Use it to skip
    /// preparing arguments that cost something to compute.
    pub fn is_traced(&self) -> bool {
        self.trace.is_recording()
    }

    /// Attaches an argument to the trace span's end event; a no-op when
    /// untraced.
    pub fn arg(&mut self, key: &'static str, value: impl Into<perfport_trace::Value>) {
        self.trace.arg(key, value);
    }

    /// Ends the interval on the first call, records its length into the
    /// histogram and returns it; later calls return the same length.
    pub fn stop(&mut self) -> Duration {
        let (trace, histogram) = (&mut self.trace, self.histogram);
        *self.elapsed.get_or_insert_with(|| {
            let elapsed = trace.stop();
            histogram.observe(nanos(elapsed));
            elapsed
        })
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Merges every shard into one canonical [`Snapshot`]: counters sum,
/// gauges take the per-shard maximum, histograms add bucket-wise.
/// Exited threads' shards count through the retired totals.
pub fn snapshot() -> Snapshot {
    shards::snapshot()
}

#[cfg(not(feature = "stub"))]
mod shards {
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

    use super::{Histogram, Id, UNRESOLVED};
    use crate::histogram::Histogram as Buckets;
    use crate::snapshot::Snapshot;

    fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// One kind's metric names; an id indexes every shard's slots of
    /// that kind.
    struct Names(Mutex<NameTable>);

    struct NameTable {
        ids: BTreeMap<&'static str, usize>,
        names: Vec<&'static str>,
    }

    impl Names {
        const fn new() -> Names {
            Names(Mutex::new(NameTable {
                ids: BTreeMap::new(),
                names: Vec::new(),
            }))
        }

        /// The id of `name`, registering it (and leaking a copy of a
        /// name that is not `'static`) on first sight.
        fn intern(&self, name: &str, keep: impl FnOnce() -> &'static str) -> (&'static str, usize) {
            let mut table = lock(&self.0);
            if let Some((&name, &id)) = table.ids.get_key_value(name) {
                return (name, id);
            }
            let name = keep();
            let id = table.names.len();
            table.names.push(name);
            table.ids.insert(name, id);
            (name, id)
        }

        /// The handle's id, resolved once per handle.
        #[inline]
        fn id(&self, handle: &Id) -> usize {
            match handle.id.load(Ordering::Relaxed) {
                UNRESOLVED => {
                    let (_, id) = self.intern(handle.name, || handle.name);
                    handle.id.store(id, Ordering::Relaxed);
                    id
                }
                id => id,
            }
        }
    }

    static COUNTERS: Names = Names::new();
    static GAUGES: Names = Names::new();
    static HISTOGRAMS: Names = Names::new();

    /// One kind's slots in a shard, indexed by id; `None` until the
    /// thread first touches that metric.
    type Slots<T> = Mutex<Vec<Option<Arc<T>>>>;

    /// One thread's private slice of the metric space, as snapshots
    /// read it.
    #[derive(Default)]
    struct Shard {
        counters: Slots<AtomicU64>,
        gauges: Slots<AtomicU64>,
        histograms: Slots<Buckets>,
    }

    /// Calls `f` with the name and slot of every metric `slots` holds.
    fn each<T>(slots: &Slots<T>, names: &Names, mut f: impl FnMut(&'static str, &T)) {
        let slots = lock(slots);
        let names = lock(&names.0);
        for (id, slot) in slots.iter().enumerate() {
            if let Some(slot) = slot {
                f(names.names[id], slot);
            }
        }
    }

    impl Shard {
        /// Merges this shard into `snap`: counters sum, gauges take the
        /// maximum, histograms add bucket-wise.
        fn fold_into(&self, snap: &mut Snapshot) {
            each(&self.counters, &COUNTERS, |name, c| {
                *snap.counters.entry(name.to_string()).or_insert(0) += c.load(Ordering::Relaxed);
            });
            each(&self.gauges, &GAUGES, |name, g| {
                let slot = snap.gauges.entry(name.to_string()).or_insert(0);
                *slot = (*slot).max(g.load(Ordering::Relaxed));
            });
            each(&self.histograms, &HISTOGRAMS, |name, h| {
                snap.histograms
                    .entry(name.to_string())
                    .or_default()
                    .merge_from(&h.snapshot());
            });
        }
    }

    /// The shards of live threads, plus the folded totals of every
    /// shard whose thread has exited.
    #[derive(Default)]
    struct Registry {
        live: Vec<Arc<Shard>>,
        retired: Snapshot,
    }

    /// Guarded by a mutex that is only taken at thread registration,
    /// thread exit and snapshot time.
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();

    fn registry() -> MutexGuard<'static, Registry> {
        lock(REGISTRY.get_or_init(|| Mutex::new(Registry::default())))
    }

    /// The owner's view of one kind's slots: the same `Arc`s as the
    /// shard, read without a lock.
    type Cache<T> = RefCell<Vec<Option<Arc<T>>>>;

    struct Local {
        shard: Arc<Shard>,
        counters: Cache<AtomicU64>,
        gauges: Cache<AtomicU64>,
        histograms: Cache<Buckets>,
    }

    impl Local {
        fn register() -> Local {
            let shard = Arc::new(Shard::default());
            registry().live.push(Arc::clone(&shard));
            Local {
                shard,
                counters: RefCell::default(),
                gauges: RefCell::default(),
                histograms: RefCell::default(),
            }
        }
    }

    impl Drop for Local {
        /// Thread exit: fold the shard into the retired totals and
        /// unregister it under one lock, so no snapshot sees it twice
        /// or not at all.
        fn drop(&mut self) {
            let mut registry = registry();
            self.shard.fold_into(&mut registry.retired);
            registry.live.retain(|s| !Arc::ptr_eq(s, &self.shard));
        }
    }

    thread_local! {
        static LOCAL: Local = Local::register();
    }

    fn put<T>(slots: &mut Vec<Option<Arc<T>>>, id: usize, slot: &Arc<T>) {
        if slots.len() <= id {
            slots.resize_with(id + 1, || None);
        }
        slots[id] = Some(Arc::clone(slot));
    }

    /// Calls `f` with the calling thread's slot `id`, creating it on the
    /// thread's first touch.
    #[inline]
    fn with_slot<T: Default>(
        id: usize,
        pick: for<'a> fn(&'a Local) -> (&'a Cache<T>, &'a Slots<T>),
        f: impl FnOnce(&T),
    ) {
        LOCAL.with(|l| {
            let (cache, slots) = pick(l);
            if let Some(Some(slot)) = cache.borrow().get(id) {
                return f(slot);
            }
            let slot = Arc::new(T::default());
            put(&mut lock(slots), id, &slot);
            put(&mut cache.borrow_mut(), id, &slot);
            f(&slot);
        });
    }

    #[inline]
    pub(super) fn counter(handle: &Id, delta: u64) {
        let id = COUNTERS.id(handle);
        with_slot(
            id,
            |l| (&l.counters, &l.shard.counters),
            |c| {
                c.fetch_add(delta, Ordering::Relaxed);
            },
        );
    }

    #[inline]
    pub(super) fn gauge(handle: &Id, value: u64) {
        let id = GAUGES.id(handle);
        with_slot(
            id,
            |l| (&l.gauges, &l.shard.gauges),
            |g| {
                g.store(value, Ordering::Relaxed);
            },
        );
    }

    #[inline]
    pub(super) fn observe(handle: &Id, value: u64) {
        let id = HISTOGRAMS.id(handle);
        with_slot(
            id,
            |l| (&l.histograms, &l.shard.histograms),
            |h| {
                h.observe(value);
            },
        );
    }

    pub(super) fn named(name: &str) -> Histogram {
        let (name, id) = HISTOGRAMS.intern(name, || Box::leak(name.into()));
        Histogram(Id {
            name,
            id: AtomicUsize::new(id),
        })
    }

    pub(super) fn snapshot() -> Snapshot {
        let registry = registry();
        let mut snap = registry.retired.clone();
        for shard in &registry.live {
            shard.fold_into(&mut snap);
        }
        snap
    }

    #[cfg(test)]
    pub(super) fn live_shards() -> usize {
        registry().live.len()
    }
}

#[cfg(feature = "stub")]
mod shards {
    use super::{Histogram, Id};
    use crate::snapshot::Snapshot;

    #[inline(always)]
    pub(super) fn counter(_: &Id, _: u64) {}

    #[inline(always)]
    pub(super) fn gauge(_: &Id, _: u64) {}

    #[inline(always)]
    pub(super) fn observe(_: &Id, _: u64) {}

    pub(super) fn named(_: &str) -> Histogram {
        Histogram::new("")
    }

    pub(super) fn snapshot() -> Snapshot {
        Snapshot::default()
    }
}

#[cfg(all(test, not(feature = "stub")))]
mod tests {
    use super::*;

    // Metric names namespaced per test: the registry is process-global
    // and the test harness runs tests concurrently in one process.

    #[test]
    fn counters_sum_across_threads() {
        static CTR: Counter = Counter::new("test_metrics/ctr");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..100 {
                        CTR.add(2);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(snapshot().counters["test_metrics/ctr"], 800);
    }

    #[test]
    fn handles_of_one_name_share_a_metric() {
        static A: Counter = Counter::new("test_metrics/shared");
        static B: Counter = Counter::new("test_metrics/shared");
        A.add(3);
        B.add(4);
        assert_eq!(snapshot().counters["test_metrics/shared"], 7);
    }

    #[test]
    fn gauges_merge_by_max() {
        static GAUGE: Gauge = Gauge::new("test_metrics/gauge");
        let threads: Vec<_> = [3u64, 9, 5]
            .into_iter()
            .map(|v| std::thread::spawn(move || GAUGE.set(v)))
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(snapshot().gauges["test_metrics/gauge"], 9);
    }

    #[test]
    fn histograms_merge_and_keep_exact_totals() {
        static HIST: Histogram = Histogram::new("test_metrics/hist");
        let threads: Vec<_> = (0..3)
            .map(|i: u64| {
                std::thread::spawn(move || {
                    for v in 0..50u64 {
                        HIST.observe(i * 1000 + v);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let h = &snapshot().histograms["test_metrics/hist"];
        assert_eq!(h.count, 150);
        let expected: u64 = (0..3u64)
            .flat_map(|i| (0..50u64).map(move |v| i * 1000 + v))
            .sum();
        assert_eq!(h.sum, expected);
    }

    #[test]
    fn named_histograms_join_their_static_namesake() {
        static HIST: Histogram = Histogram::new("test_metrics/named/a");
        HIST.observe(5);
        Histogram::named(&format!("test_metrics/named/{}", "a")).observe(7);
        Histogram::named("test_metrics/named/b").observe(11);
        let snap = snapshot();
        assert_eq!(snap.histograms["test_metrics/named/a"].sum, 12);
        assert_eq!(snap.histograms["test_metrics/named/b"].sum, 11);
    }

    #[test]
    fn a_span_records_its_length_once() {
        static HIST: Histogram = Histogram::new("test_metrics/span");
        let mut span = HIST.span("test", "span");
        let first = span.stop();
        assert_eq!(span.stop(), first);
        drop(span);
        let h = &snapshot().histograms["test_metrics/span"];
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, nanos(first));
    }

    #[test]
    fn exited_threads_retire_their_shards_and_keep_their_totals() {
        static CTR: Counter = Counter::new("test_metrics/retired_ctr");
        static GAUGE: Gauge = Gauge::new("test_metrics/retired_gauge");
        static HIST: Histogram = Histogram::new("test_metrics/retired_hist");
        const THREADS: u64 = 2000;
        for batch in (0..THREADS).collect::<Vec<_>>().chunks(8) {
            let threads: Vec<_> = batch
                .iter()
                .map(|&i| {
                    std::thread::spawn(move || {
                        CTR.add(1);
                        GAUGE.set(i);
                        HIST.observe(i);
                    })
                })
                .collect();
            for t in threads {
                t.join().unwrap();
            }
        }
        let snap = snapshot();
        assert_eq!(snap.counters["test_metrics/retired_ctr"], THREADS);
        assert_eq!(snap.gauges["test_metrics/retired_gauge"], THREADS - 1);
        let h = &snap.histograms["test_metrics/retired_hist"];
        assert_eq!(h.count, THREADS);
        assert_eq!(h.sum, (0..THREADS).sum::<u64>());
        // Only threads alive right now (this test binary's harness and
        // concurrent tests) may still hold a registered shard.
        let live = shards::live_shards();
        assert!(live <= 64, "{live} shards registered after {THREADS} exits");
    }

    #[test]
    fn delta_against_live_epoch_only_sees_new_work() {
        static CTR: Counter = Counter::new("test_metrics/epoch_ctr");
        CTR.add(5);
        let epoch = snapshot();
        CTR.add(7);
        let delta = snapshot().delta_since(&epoch);
        assert_eq!(delta.counters["test_metrics/epoch_ctr"], 7);
    }
}
