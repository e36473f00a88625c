//! Per-thread metric shards merged on demand.
//!
//! Every thread that records a metric owns a **shard**: a private set
//! of counters, gauges, and histograms registered once in a global
//! list. The hot path — [`counter_add`], [`gauge_set`], [`observe`] —
//! is a thread-local handle-cache lookup plus one relaxed atomic
//! update; no lock is taken and no other thread's cache line is
//! written, which is what makes it safe to leave enabled inside the
//! pool's region and task paths. Locks exist only on the cold edges:
//! the first time a thread touches a given metric name (shard map
//! insert) and whenever [`snapshot`] merges all shards into one
//! [`Snapshot`].
//!
//! A thread that exits folds its shard into the registry's retired
//! totals and unregisters it, so the registry holds only live threads'
//! shards however many short-lived threads come and go. Folding keeps
//! every merge rule: counters and histograms stay monotonic (snapshot
//! deltas remain meaningful) and gauges keep their max-merge.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use crate::histogram::Histogram;
use crate::snapshot::Snapshot;

/// One thread's private slice of the metric space.
#[derive(Default)]
struct Shard {
    counters: Mutex<HashMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<HashMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<HashMap<String, Arc<Histogram>>>,
}

impl Shard {
    /// Merges this shard into `snap`: counters sum, gauges take the
    /// maximum, histograms add bucket-wise.
    fn fold_into(&self, snap: &mut Snapshot) {
        for (name, counter) in self
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            *snap.counters.entry(name.clone()).or_insert(0) += counter.load(Ordering::Relaxed);
        }
        for (name, gauge) in self.gauges.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            let value = gauge.load(Ordering::Relaxed);
            let slot = snap.gauges.entry(name.clone()).or_insert(0);
            *slot = (*slot).max(value);
        }
        for (name, hist) in self
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            snap.histograms
                .entry(name.clone())
                .or_default()
                .merge_from(&hist.snapshot());
        }
    }
}

/// The shards of live threads, plus the folded totals of every shard
/// whose thread has exited.
#[derive(Default)]
struct Registry {
    live: Vec<Arc<Shard>>,
    retired: Snapshot,
}

/// Guarded by a mutex that is only taken at thread registration, thread
/// exit and snapshot time.
static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();

fn registry() -> MutexGuard<'static, Registry> {
    REGISTRY
        .get_or_init(|| Mutex::new(Registry::default()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Thread-local handle caches: once a thread has resolved a metric
/// name to its `Arc`, later updates touch no map but this one.
struct Local {
    shard: Arc<Shard>,
    counters: RefCell<HashMap<String, Arc<AtomicU64>>>,
    gauges: RefCell<HashMap<String, Arc<AtomicU64>>>,
    histograms: RefCell<HashMap<String, Arc<Histogram>>>,
}

impl Local {
    fn register() -> Local {
        let shard = Arc::new(Shard::default());
        registry().live.push(Arc::clone(&shard));
        Local {
            shard,
            counters: RefCell::new(HashMap::new()),
            gauges: RefCell::new(HashMap::new()),
            histograms: RefCell::new(HashMap::new()),
        }
    }
}

impl Drop for Local {
    /// Thread exit: fold the shard into the retired totals and
    /// unregister it under one lock, so no snapshot sees it twice or
    /// not at all.
    fn drop(&mut self) {
        let mut registry = registry();
        self.shard.fold_into(&mut registry.retired);
        registry.live.retain(|s| !Arc::ptr_eq(s, &self.shard));
    }
}

thread_local! {
    static LOCAL: Local = Local::register();
}

fn cached<T>(
    cache: &RefCell<HashMap<String, Arc<T>>>,
    registry: &Mutex<HashMap<String, Arc<T>>>,
    name: &str,
    init: impl FnOnce() -> T,
) -> Arc<T> {
    if let Some(handle) = cache.borrow().get(name) {
        return Arc::clone(handle);
    }
    let handle = {
        let mut map = registry.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(init())),
        )
    };
    cache
        .borrow_mut()
        .insert(name.to_string(), Arc::clone(&handle));
    handle
}

/// Adds `delta` to the calling thread's shard of counter `name`.
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    LOCAL.with(|l| {
        cached(&l.counters, &l.shard.counters, name, || AtomicU64::new(0))
            .fetch_add(delta, Ordering::Relaxed);
    });
}

/// Sets the calling thread's shard of gauge `name` to `value`.
/// Shards merge by maximum at snapshot time.
#[inline]
pub fn gauge_set(name: &str, value: u64) {
    LOCAL.with(|l| {
        cached(&l.gauges, &l.shard.gauges, name, || AtomicU64::new(0))
            .store(value, Ordering::Relaxed);
    });
}

/// Records `value` into the calling thread's shard of histogram
/// `name`.
#[inline]
pub fn observe(name: &str, value: u64) {
    LOCAL.with(|l| {
        cached(&l.histograms, &l.shard.histograms, name, Histogram::new).observe(value);
    });
}

/// Merges every shard into one canonical [`Snapshot`]: counters sum,
/// gauges take the per-shard maximum, histograms add bucket-wise.
/// Exited threads' shards count through the retired totals.
pub fn snapshot() -> Snapshot {
    let registry = registry();
    let mut snap = registry.retired.clone();
    for shard in &registry.live {
        shard.fold_into(&mut snap);
    }
    snap
}

#[cfg(test)]
mod tests {
    use super::*;

    // Metric names namespaced per test: the registry is process-global
    // and the test harness runs tests concurrently in one process.

    #[test]
    fn counters_sum_across_threads() {
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..100 {
                        counter_add("test_metrics/ctr", 2);
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
    fn gauges_merge_by_max() {
        let threads: Vec<_> = [3u64, 9, 5]
            .into_iter()
            .map(|v| std::thread::spawn(move || gauge_set("test_metrics/gauge", v)))
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(snapshot().gauges["test_metrics/gauge"], 9);
    }

    #[test]
    fn histograms_merge_and_keep_exact_totals() {
        let threads: Vec<_> = (0..3)
            .map(|i: u64| {
                std::thread::spawn(move || {
                    for v in 0..50u64 {
                        observe("test_metrics/hist", i * 1000 + v);
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
    fn exited_threads_retire_their_shards_and_keep_their_totals() {
        const THREADS: u64 = 2000;
        for batch in (0..THREADS).collect::<Vec<_>>().chunks(8) {
            let threads: Vec<_> = batch
                .iter()
                .map(|&i| {
                    std::thread::spawn(move || {
                        counter_add("test_metrics/retired_ctr", 1);
                        gauge_set("test_metrics/retired_gauge", i);
                        observe("test_metrics/retired_hist", i);
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
        let live = registry().live.len();
        assert!(live <= 64, "{live} shards registered after {THREADS} exits");
    }

    #[test]
    fn delta_against_live_epoch_only_sees_new_work() {
        counter_add("test_metrics/epoch_ctr", 5);
        let epoch = snapshot();
        counter_add("test_metrics/epoch_ctr", 7);
        let delta = snapshot().delta_since(&epoch);
        assert_eq!(delta.counters["test_metrics/epoch_ctr"], 7);
    }
}
