//! Panic-propagation stress: a worker panic must surface to the caller
//! as a panic, and the pool must stay fully usable afterwards — no
//! wedged workers, no lost messages, no corrupted region accounting.
//!
//! Run this suite both ways (the behaviour must not depend on test
//! parallelism):
//!
//! ```text
//! cargo test -p perfport-pool --test panic_stress
//! RUST_TEST_THREADS=1 cargo test -p perfport-pool --test panic_stress
//! ```

use perfport_pool::{Schedule, ThreadPool};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Sends this binary's flight dump to one per-process directory under
/// the system temp dir instead of the working directory. Every panicking
/// test calls it first, and every call sets the same value.
fn flight_dir_in_temp() {
    let dir = std::env::temp_dir().join(format!(
        "perfport-panic-stress-flight-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("flight dir must be creatable");
    std::env::set_var("PERFPORT_FLIGHT_DIR", dir);
}

/// Alternates panicking and clean regions on one pool many times; the
/// pool must recover after every panic.
#[test]
fn pool_survives_repeated_worker_panics() {
    flight_dir_in_temp();
    let pool = ThreadPool::new(4);
    let completed = AtomicUsize::new(0);
    for round in 0..50 {
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for_each(64, Schedule::Dynamic { chunk: 3 }, |i| {
                if i == round {
                    panic!("induced panic in round {round}");
                }
            });
        }));
        assert!(result.is_err(), "round {round}: panic did not propagate");

        let stats = pool.parallel_for_each(128, Schedule::StaticBlock, |_| {
            completed.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(stats.total_items(), 128, "round {round}: pool wedged");
    }
    assert_eq!(completed.load(Ordering::Relaxed), 50 * 128);
}

/// Panics from several workers in the same region collapse into one
/// propagated panic, and the join still completes.
#[test]
fn simultaneous_panics_join_cleanly() {
    flight_dir_in_temp();
    let pool = ThreadPool::new(8);
    for _ in 0..20 {
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_region(&|_tid| {
                panic!("every worker panics");
            });
        }));
        assert!(result.is_err());
        // All eight workers must be back in their receive loops.
        let stats = pool.parallel_for_each(8, Schedule::StaticBlock, |_| {});
        assert_eq!(stats.items_per_thread.len(), 8);
        assert_eq!(stats.total_items(), 8);
    }
}

/// A panic in one region does not leak into the accounting of later
/// regions (`regions_run` keeps counting, stats stay exact).
#[test]
fn accounting_is_exact_across_panics() {
    flight_dir_in_temp();
    let pool = ThreadPool::new(3);
    let before = pool.regions_run();
    let _ = catch_unwind(AssertUnwindSafe(|| {
        pool.parallel_for_each(10, Schedule::StaticBlock, |i| {
            if i == 5 {
                panic!("boom");
            }
        });
    }));
    let stats = pool.parallel_for_each(300, Schedule::Guided { min_chunk: 2 }, |_| {});
    assert_eq!(stats.total_items(), 300);
    assert!((stats.imbalance() - 1.0).abs() < 3.0, "stats corrupted");
    // Both the panicked and the clean region were counted as run.
    assert_eq!(pool.regions_run(), before + 2);
}

/// Panics race with heavy concurrent use from multiple pools without
/// deadlock (regression stress for the join protocol's panic path).
#[test]
fn many_pools_panicking_concurrently() {
    flight_dir_in_temp();
    std::thread::scope(|s| {
        for p in 0..4 {
            s.spawn(move || {
                let pool = ThreadPool::new(2 + p % 3);
                for round in 0..10 {
                    let _ = catch_unwind(AssertUnwindSafe(|| {
                        pool.parallel_for_each(32, Schedule::Dynamic { chunk: 1 }, |i| {
                            if i % 7 == round % 7 {
                                panic!("pool {p} round {round}");
                            }
                        });
                    }));
                    let stats = pool.parallel_for_each(32, Schedule::StaticBlock, |_| {});
                    assert_eq!(stats.total_items(), 32);
                }
            });
        }
    });
}
