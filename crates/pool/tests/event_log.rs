//! The per-thread event log on the pool's paths: untraced spans
//! allocate nothing, and a clean region leaves exactly one record in the
//! calling thread's tail, which the flight dump renders as a
//! `region_begin`/`region_end` pair.
//!
//! A counting global allocator counts only on a thread that opted in,
//! so tests running beside each other do not disturb the count. No
//! test here installs a trace collector.

use perfport_pool::{Schedule, ThreadPool};
use perfport_telemetry::Histogram;
use perfport_trace::json::{self, Json};
use perfport_trace::log;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counters are const-initialized thread-locals without destructors,
// so touching them never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations the calling thread makes while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get)
}

static SPAN_NS: Histogram = Histogram::new("event_log_test/span_ns");

fn cycles(n: usize) {
    for _ in 0..n {
        let mut sp = perfport_trace::span("event_log_test", "plain");
        sp.arg("ignored", 1u64);
        drop(sp);
        let mut sp = SPAN_NS.span("event_log_test", "timed");
        sp.arg("ignored", 2u64);
        sp.stop();
    }
}

#[test]
fn untraced_spans_allocate_nothing_after_warm_up() {
    // Warm-up: register the thread's log and metric shard, resolve the
    // histogram's id and fill the ring to its tail length.
    cycles(log::TAIL);
    assert!(!perfport_trace::enabled());
    assert_eq!(allocations_in(|| cycles(1000)), 0);
}

/// Records named `name` in the calling thread's tail.
fn tail_records(name: &str) -> usize {
    let me = log::thread_label();
    let mut n = 0;
    log::each_tail(|worker, record| {
        n += usize::from(worker == me && record.name == name);
    });
    n
}

#[test]
fn a_clean_region_writes_one_record_that_the_dump_renders_as_a_pair() {
    let pool = ThreadPool::new(2);
    let before = tail_records("region");
    pool.parallel_for_each(2, Schedule::StaticBlock, |_| {});
    assert_eq!(tail_records("region") - before, 1);

    let dir = std::env::temp_dir().join(format!("perfport-event-log-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("dump dir must be creatable");
    std::env::set_var("PERFPORT_FLIGHT_DIR", &dir);
    let path = perfport_telemetry::flight_dump("test", "clean region").expect("first dump");
    let text = std::fs::read_to_string(&path).expect("dump must be readable");
    let _ = std::fs::remove_dir_all(&dir);
    let doc = json::parse(&text).expect("dump must be valid JSON");
    let me = log::thread_label();
    let mine: Vec<(&str, f64)> = doc
        .get("events")
        .and_then(Json::as_array)
        .expect("events array")
        .iter()
        .filter(|ev| ev.get("worker").and_then(Json::as_str) == Some(me.as_str()))
        .filter_map(|ev| {
            let kind = ev.get("kind").and_then(Json::as_str)?;
            Some((kind, ev.get("ts_ns").and_then(Json::as_f64)?))
        })
        .filter(|(kind, _)| kind.starts_with("region_"))
        .collect();
    assert_eq!(mine.len(), 2, "{text}");
    let [(begin, t0), (end, t1)] = [mine[0], mine[1]];
    assert_eq!((begin, end), ("region_begin", "region_end"));
    assert!(t0 <= t1, "{text}");
}
