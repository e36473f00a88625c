//! Post-mortem drills: a panic in a pool region must leave a
//! well-formed `flight-<pid>.json` whose last event is the failure,
//! whether the panicking item ran on a worker or on the calling thread,
//! which is team member 0 of a region and runs a one-item loop alone.
//!
//! The dump is first-trigger-wins per process, and an uncaught panic
//! kills the process, so each drill runs in a child: the parent
//! re-executes this test binary with `--exact child --nocapture`, a
//! marker variable naming the drill and its own `PERFPORT_FLIGHT_DIR`,
//! then inspects the child's exit status, stderr and dump directory.
//! Without the marker the `child` test does nothing.

use perfport_pool::{Schedule, ThreadPool};
use perfport_trace::json::{self, Json};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Set only in the environment of a re-executed child, to the drill:
/// `"worker"`, `"caller"`, `"inline"` or `"clean"`.
const CHILD_MARKER: &str = "PERFPORT_WORKER_FLIGHT_CHILD";

/// The payload of the panicking item in the `"worker"` drill.
const WORKER_PAYLOAD: &str = "worker flight drill: item 1 panicked";

/// The payload of the panicking item in the `"caller"` drill.
const CALLER_PAYLOAD: &str = "caller flight drill: item 0 panicked";

/// The payload of the panicking item in the `"inline"` drill.
const INLINE_PAYLOAD: &str = "inline flight drill: the only item panicked";

/// Precedes the label a child prints for its own thread. A child run with
/// one test thread prints it after libtest's `test child ... `.
const LABEL_LINE: &str = "caller thread label: ";

/// The child body. Every drill first runs a few clean two-item regions,
/// so the ring holds complete `region_begin`/`region_end` pairs.
///
/// - `"worker"`: a two-item region whose item 1 panics on worker 1. That
///   panic reaches this thread as the region panic and is not caught.
/// - `"caller"`: a two-item region whose item 0 panics on this thread,
///   team member 0. The panic is caught and the pool must stay usable.
/// - `"inline"`: a one-item loop that panics on this thread; the panic
///   is caught, and the pool must have forked no region and stay usable.
///
/// Every drill prints this thread's label, which names it in the dump.
#[test]
fn child() {
    let Ok(drill) = std::env::var(CHILD_MARKER) else {
        return;
    };
    println!("{LABEL_LINE}{}", perfport_trace::log::thread_label());
    let pool = ThreadPool::new(2);
    for _ in 0..3 {
        assert_eq!(
            pool.parallel_map(2, Schedule::StaticBlock, |i| i + 1),
            vec![1, 2]
        );
    }
    match drill.as_str() {
        "worker" => {
            pool.parallel_for_each(2, Schedule::StaticBlock, |i| {
                if i == 1 {
                    panic!("{WORKER_PAYLOAD}");
                }
            });
        }
        "caller" => {
            let regions = pool.regions_run();
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.parallel_for_each(2, Schedule::StaticBlock, |i| {
                    if i == 0 {
                        panic!("{CALLER_PAYLOAD}");
                    }
                });
            }));
            assert!(result.is_err(), "the panic must propagate");
            assert_eq!(pool.regions_run(), regions + 1, "one region was forked");
            assert_eq!(
                pool.parallel_map(2, Schedule::StaticBlock, |i| i + 1),
                vec![1, 2]
            );
        }
        "inline" => {
            let regions = pool.regions_run();
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.parallel_for_each(1, Schedule::StaticBlock, |_| panic!("{INLINE_PAYLOAD}"));
            }));
            assert!(result.is_err(), "the panic must propagate");
            assert_eq!(pool.regions_run(), regions, "no region was forked");
            assert_eq!(
                pool.parallel_map(4, Schedule::Dynamic { chunk: 1 }, |i| i * 2),
                vec![0, 2, 4, 6]
            );
            assert_eq!(pool.parallel_map(1, Schedule::StaticBlock, |i| i), vec![0]);
        }
        _ => {}
    }
}

/// Re-executes this binary to run only `child` under `drill`, dumping
/// into a fresh directory; returns the child's output and that directory.
fn run_child(drill: &str) -> (Output, PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "perfport-worker-flight-{}-{drill}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("flight dir must be creatable");
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args(["--exact", "child", "--nocapture"])
        .env(CHILD_MARKER, drill)
        .env("PERFPORT_FLIGHT_DIR", &dir)
        .output()
        .expect("the test binary must re-execute");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("running 1 test"),
        "the child must run exactly one test:\n{stdout}"
    );
    (out, dir)
}

fn dumps_in(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .expect("flight dir must be readable")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("flight-") && n.ends_with(".json"))
        })
        .collect()
}

/// Reads the one flight dump in `dir`, returning its text and document.
fn only_dump(dir: &Path) -> (String, Json) {
    let dumps = dumps_in(dir);
    assert_eq!(dumps.len(), 1, "expected one flight dump, got {dumps:?}");
    let text = std::fs::read_to_string(&dumps[0]).expect("dump must be readable");
    let doc = json::parse(&text).expect("flight dump must be valid JSON");
    (text, doc)
}

/// Whether `ev` is a `task_panic` event carrying `payload`.
fn is_task_panic(ev: &Json, payload: &str) -> bool {
    ev.get("kind").and_then(Json::as_str) == Some("task_panic")
        && ev
            .get("detail")
            .and_then(Json::as_str)
            .is_some_and(|d| d.contains(payload))
}

/// Whether this is a parent run of a build that dumps at all.
fn dumping_parent() -> bool {
    std::env::var_os(CHILD_MARKER).is_none() && perfport_telemetry::build_mode() == "on"
}

#[test]
fn uncaught_worker_panic_dumps_a_parseable_flight_recording() {
    if !dumping_parent() {
        return;
    }
    let (out, dir) = run_child("worker");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "an uncaught worker panic must kill the child:\n{stderr}"
    );
    assert!(
        stderr.contains("flight recorder dumped"),
        "dump notice missing from stderr:\n{stderr}"
    );

    let (text, doc) = only_dump(&dir);
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("perfport-flight/1")
    );
    assert!(doc.get("pid").and_then(Json::as_f64).is_some());

    // The trigger is the worker's panic, not the region poisoning that
    // follows it on the caller, and it is the last event in the stream.
    let trigger = doc.get("trigger").expect("trigger object");
    assert!(
        is_task_panic(trigger, WORKER_PAYLOAD),
        "wrong trigger: {text}"
    );
    let events = doc
        .get("events")
        .and_then(Json::as_array)
        .expect("events array");
    assert!(
        events
            .last()
            .is_some_and(|ev| is_task_panic(ev, WORKER_PAYLOAD)),
        "the stream must end with the worker panic: {text}"
    );

    // Every event is fully structured, and the pre-trigger stream is
    // merged in timestamp order.
    let mut prev = 0.0;
    for (i, ev) in events.iter().enumerate() {
        for field in ["worker", "kind", "detail"] {
            assert!(
                ev.get(field).and_then(Json::as_str).is_some(),
                "event {i} missing '{field}': {text}"
            );
        }
        let ts = ev.get("ts_ns").and_then(Json::as_f64).expect("ts_ns");
        assert!(
            i + 1 == events.len() || ts >= prev,
            "event {i} out of ts order"
        );
        prev = ts;
    }

    // The stream leading up to the failure carries the pool's region
    // lifecycle, not just the trigger.
    for expected in ["region_begin", "region_end"] {
        assert!(
            events
                .iter()
                .any(|e| e.get("kind").and_then(Json::as_str) == Some(expected)),
            "kind '{expected}' missing: {text}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Item 0 of a region runs on the calling thread, so its panic is
/// recorded under the caller's label, and it is the dump's last event.
#[test]
fn caller_share_panic_is_recorded_on_the_callers_thread() {
    if !dumping_parent() {
        return;
    }
    let (out, dir) = run_child("caller");
    assert!(
        out.status.success(),
        "the caught caller panic must leave the pool usable:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let label = stdout
        .lines()
        .find_map(|l| l.split_once(LABEL_LINE).map(|(_, label)| label))
        .expect("the child names its thread label");
    assert!(!label.starts_with("perfport-worker"), "{label}");

    let (text, doc) = only_dump(&dir);
    let trigger = doc.get("trigger").expect("trigger object");
    assert!(
        is_task_panic(trigger, CALLER_PAYLOAD),
        "wrong trigger: {text}"
    );
    let last = doc
        .get("events")
        .and_then(Json::as_array)
        .and_then(|events| events.last())
        .expect("a non-empty events array");
    assert!(
        is_task_panic(last, CALLER_PAYLOAD),
        "wrong last event: {text}"
    );
    assert_eq!(
        last.get("worker").and_then(Json::as_str),
        Some(label),
        "the panic is recorded on the caller's thread: {text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A one-item loop runs on the calling thread, but a panic in it must
/// leave the same black box a worker panic leaves.
#[test]
fn inline_panic_dumps_a_task_panic_recording_and_the_pool_survives() {
    if !dumping_parent() {
        return;
    }
    let (out, dir) = run_child("inline");
    assert!(
        out.status.success(),
        "the caught inline panic must leave the pool usable:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let (text, doc) = only_dump(&dir);
    let trigger = doc.get("trigger").expect("trigger object");
    assert!(
        is_task_panic(trigger, INLINE_PAYLOAD),
        "wrong trigger: {text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Clean regions leave no black box behind: the recorder stays invisible
/// in steady state.
#[test]
fn clean_regions_write_no_flight_dump() {
    if std::env::var_os(CHILD_MARKER).is_some() {
        return;
    }
    let (out, dir) = run_child("clean");
    assert!(
        out.status.success(),
        "clean regions must exit 0:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(dumps_in(&dir), Vec::<PathBuf>::new(), "no failure, no dump");
    let _ = std::fs::remove_dir_all(&dir);
}
