//! A one-item loop runs on the calling thread, but a panic in it must
//! leave the same black box a worker panic leaves: a `task_panic`
//! flight dump naming the payload.
//!
//! The dump is first-trigger-wins per process, so this file holds one
//! test and no other panicking code.

use perfport_pool::{Schedule, ThreadPool};
use perfport_trace::json::{self, Json};
use std::panic::{catch_unwind, AssertUnwindSafe};

#[test]
fn inline_panic_dumps_a_task_panic_recording_and_the_pool_survives() {
    if perfport_telemetry::build_mode() != "on" {
        return;
    }
    let dir = std::env::temp_dir().join(format!("perfport-inline-flight-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("flight dir must be creatable");
    std::env::set_var("PERFPORT_FLIGHT_DIR", &dir);

    let pool = ThreadPool::new(3);
    let regions = pool.regions_run();
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool.parallel_for_each(1, Schedule::StaticBlock, |_| panic!("inline boom"));
    }));
    assert!(result.is_err(), "the panic must propagate");
    assert_eq!(pool.regions_run(), regions, "no region was forked");

    let path = dir.join(format!("flight-{}.json", std::process::id()));
    let text = std::fs::read_to_string(&path).expect("a flight dump must exist");
    let doc = json::parse(&text).expect("flight dump must be valid JSON");
    let trigger = doc.get("trigger").expect("trigger object");
    assert_eq!(
        trigger.get("kind").and_then(Json::as_str),
        Some("task_panic")
    );
    assert!(trigger
        .get("detail")
        .and_then(Json::as_str)
        .is_some_and(|d| d.contains("inline boom")));

    // The pool stays usable on both paths.
    assert_eq!(
        pool.parallel_map(4, Schedule::Dynamic { chunk: 1 }, |i| i * 2),
        vec![0, 2, 4, 6]
    );
    assert_eq!(pool.parallel_map(1, Schedule::StaticBlock, |i| i), vec![0]);
    let _ = std::fs::remove_dir_all(&dir);
}
