//! The persistent worker team and its fork-join protocol.
//!
//! Like an OpenMP runtime, the pool keeps its team alive across parallel
//! regions: forking a region costs one channel send per worker plus a
//! wake-up, not a thread spawn. Region bodies may borrow from the caller's
//! stack; soundness comes from the strict join protocol — `run_region`
//! does not return until every worker has signalled completion, so the
//! borrowed closure outlives all uses.

use crate::schedule::{Chunk, DynamicCursor, Schedule, StaticChunks};
use crate::slice::SlotCell;
use crate::stats::RegionStats;
use crate::topology::{place, CpuTopology, PinPolicy, Placement};
use crossbeam::channel::{unbounded, Sender};
use parking_lot::{Condvar, Mutex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-thread context handed to every region body.
#[derive(Debug, Clone, Copy)]
pub struct ForContext {
    /// This worker's index within the team, `0..num_threads`.
    pub thread_id: usize,
    /// Team size (`omp_get_num_threads`).
    pub num_threads: usize,
    /// Where the affinity policy put this worker.
    pub placement: Placement,
}

/// Iterations of the coordinator's spin phase before it parks on the
/// condvar. Sized so a small region (tens of microseconds of work per
/// worker) joins without a futex round trip, while a long region costs
/// at most a few microseconds of extra spinning.
const JOIN_SPIN_ITERS: u32 = 4096;

/// Completion state shared between the coordinator and the team for one
/// region.
///
/// The join counter lives on its own cache-line pair: every worker RMWs
/// it once per region, and at small region sizes those RMWs land within
/// nanoseconds of each other — sharing a line with `done_flag` (which
/// the coordinator polls in its spin phase) would make each decrement
/// evict the coordinator's line.
struct RegionState {
    remaining: crate::pad::CachePadded<AtomicUsize>,
    panicked: AtomicBool,
    /// Lock-free completion flag for the coordinator's spin phase.
    done_flag: AtomicBool,
    /// Parked-path completion state, for when spinning times out.
    done: Mutex<bool>,
    cv: Condvar,
}

impl RegionState {
    fn new(team: usize) -> Arc<Self> {
        Arc::new(RegionState {
            remaining: crate::pad::CachePadded::new(AtomicUsize::new(team)),
            panicked: AtomicBool::new(false),
            done_flag: AtomicBool::new(false),
            done: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    fn finish_one(&self) {
        // AcqRel: the worker's writes happen-before the coordinator's
        // return from `wait`.
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.done_flag.store(true, Ordering::Release);
            let mut done = self.done.lock();
            *done = true;
            self.cv.notify_all();
        }
    }

    /// Bounded spin, then park. Forking a region costs one channel send
    /// per worker; at small loop sizes the *join* used to dominate
    /// because the coordinator always took the mutex + condvar path
    /// (a futex sleep/wake pair). Spinning on the lock-free flag first
    /// makes the fork-join round trip allocation- and syscall-free
    /// whenever the region finishes within the spin budget.
    fn wait(&self) {
        for _ in 0..JOIN_SPIN_ITERS {
            // Acquire pairs with the Release store in `finish_one` (and
            // transitively with every worker's AcqRel decrement), so the
            // workers' writes are visible once the flag reads true.
            if self.done_flag.load(Ordering::Acquire) {
                return;
            }
            std::hint::spin_loop();
        }
        let mut done = self.done.lock();
        while !*done {
            self.cv.wait(&mut done);
        }
    }
}

/// A type-erased pointer to a region body living on the coordinator's
/// stack. The join protocol guarantees the pointee outlives every call.
struct Job {
    data: *const (),
    call: unsafe fn(*const (), usize),
    state: Arc<RegionState>,
}

// SAFETY: `data` points at a `F: Sync` closure that the coordinator keeps
// alive until all workers signalled completion; sending the pointer to
// worker threads is exactly the `&F: Send` capability `F: Sync` grants.
unsafe impl Send for Job {}

enum Msg {
    Run(Job),
    Shutdown,
}

/// Calls the closure behind the erased pointer. Split out so each
/// monomorphisation carries the concrete `F`.
///
/// # Safety
///
/// `data` must point to a live `F`.
unsafe fn call_body<F: Fn(usize) + Sync>(data: *const (), thread_id: usize) {
    let f = unsafe { &*(data as *const F) };
    f(thread_id);
}

/// Runs one team member's share of a region the same way on a worker and
/// on the calling thread: inside a hardware-counter scope (a no-op unless
/// profiling is enabled), with a panic caught, counted, logged as a
/// `task_panic` event and flight-recorded. Returns whether `body`
/// panicked.
///
/// The counter scope is dropped before the caller signals completion, so
/// the coordinator never observes a half-recorded region. The flight dump
/// fires before the coordinator learns of the failure, and the dump guard
/// is first-trigger-wins, so the file on disk ends with this event.
fn run_job(body: impl FnOnce()) -> bool {
    let result = {
        let _hw = perfport_obs::thread_scope();
        catch_unwind(AssertUnwindSafe(body))
    };
    let Err(payload) = result else {
        return false;
    };
    let msg = perfport_telemetry::panic_message(&*payload);
    perfport_telemetry::counter_add("pool/worker_panics", 1);
    perfport_telemetry::event("task_panic", msg.clone());
    perfport_telemetry::flight_dump("task_panic", &msg);
    true
}

/// Re-raises a team member's panic on the caller once its region (or
/// inline call) has finished, after recording the poisoning.
fn raise_region_panic(region_ns: u64) -> ! {
    const MSG: &str = "a perfport-pool worker panicked inside a parallel region";
    perfport_telemetry::counter_add("pool/regions_poisoned", 1);
    perfport_telemetry::event("region_poison", format!("ns={region_ns}"));
    perfport_telemetry::flight_dump("region_poison", MSG);
    panic!("{MSG}");
}

/// A persistent team of worker threads with OpenMP-style fork-join
/// parallel regions and work-sharing loops.
///
/// ```
/// use perfport_pool::{Schedule, ThreadPool};
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let pool = ThreadPool::new(4);
/// let sum = AtomicU64::new(0);
/// pool.parallel_for_each(1000, Schedule::StaticBlock, |i| {
///     sum.fetch_add(i as u64, Ordering::Relaxed);
/// });
/// assert_eq!(sum.into_inner(), 999 * 1000 / 2);
/// ```
pub struct ThreadPool {
    senders: Vec<Sender<Msg>>,
    handles: Vec<JoinHandle<()>>,
    placements: Vec<Placement>,
    topology: CpuTopology,
    policy: PinPolicy,
    regions_run: AtomicUsize,
}

impl ThreadPool {
    /// Creates a pool of `threads` unpinned workers on a flat topology.
    pub fn new(threads: usize) -> Self {
        Self::with_affinity(
            threads,
            CpuTopology::flat(threads.max(1)),
            PinPolicy::Unpinned,
        )
    }

    /// Creates a pool whose workers are placed on `topology` according to
    /// `policy`. Placement is recorded for the timing models; it is not
    /// enforced with OS affinity calls (see crate docs).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_affinity(threads: usize, topology: CpuTopology, policy: PinPolicy) -> Self {
        assert!(threads > 0, "thread pool must have at least one worker");
        let placements: Vec<Placement> = (0..threads)
            .map(|t| place(&topology, policy, threads, t))
            .collect();
        let mut senders = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for tid in 0..threads {
            let (tx, rx) = unbounded::<Msg>();
            senders.push(tx);
            let handle = std::thread::Builder::new()
                .name(format!("perfport-worker-{tid}"))
                .spawn(move || {
                    while let Ok(msg) = rx.recv() {
                        match msg {
                            Msg::Run(job) => {
                                // SAFETY: the coordinator keeps the closure
                                // alive until `finish_one` has been called
                                // by every worker.
                                if run_job(|| unsafe { (job.call)(job.data, tid) }) {
                                    job.state.panicked.store(true, Ordering::Release);
                                }
                                job.state.finish_one();
                            }
                            Msg::Shutdown => break,
                        }
                    }
                })
                .expect("failed to spawn pool worker");
            handles.push(handle);
        }
        ThreadPool {
            senders,
            handles,
            placements,
            topology,
            policy,
            regions_run: AtomicUsize::new(0),
        }
    }

    /// Team size.
    pub fn num_threads(&self) -> usize {
        self.senders.len()
    }

    /// The topology the team is placed on.
    pub fn topology(&self) -> CpuTopology {
        self.topology
    }

    /// The affinity policy in effect.
    pub fn policy(&self) -> PinPolicy {
        self.policy
    }

    /// Recorded placement of every worker.
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// Number of parallel regions executed so far.
    pub fn regions_run(&self) -> usize {
        self.regions_run.load(Ordering::Relaxed)
    }

    /// Runs `body(thread_id)` on every worker and waits for all of them —
    /// a bare `#pragma omp parallel`.
    ///
    /// # Panics
    ///
    /// Re-raises (as a panic) if any worker's body panicked.
    pub fn run_region<F: Fn(usize) + Sync>(&self, body: &F) {
        let mut sp = perfport_trace::span("pool", "region");
        sp.arg("team", self.senders.len());
        perfport_telemetry::event("region_begin", format!("team={}", self.senders.len()));
        let started = Instant::now();
        let state = RegionState::new(self.senders.len());
        for tx in &self.senders {
            let job = Job {
                data: body as *const F as *const (),
                call: call_body::<F>,
                state: Arc::clone(&state),
            };
            tx.send(job_msg(job)).expect("worker channel closed");
        }
        state.wait();
        let region_ns = region_ns_u64(started.elapsed());
        perfport_telemetry::counter_add("pool/regions", 1);
        perfport_telemetry::observe("pool/region_ns", region_ns);
        self.regions_run.fetch_add(1, Ordering::Relaxed);
        let panicked = state.panicked.load(Ordering::Acquire);
        sp.arg("panicked", panicked);
        if panicked {
            raise_region_panic(region_ns);
        }
        perfport_telemetry::event("region_end", format!("ns={region_ns}"));
    }

    /// Work-sharing loop over `0..n`: `body(ctx, chunk)` is invoked for
    /// every chunk the schedule assigns, each index reaching exactly one
    /// invocation. Returns the region's instrumentation.
    ///
    /// A loop of at most one item has nothing to share, so it forks no
    /// region: the body runs on the calling thread as `thread_id` 0 of a
    /// team of one, like an OpenMP region whose `if` clause is false. It
    /// is wrapped exactly as a worker wraps its share, and a panic in it
    /// re-raises the same region-panic message. The returned stats keep
    /// one slot per pool worker, with the item in slot 0 and zero barrier
    /// wait everywhere.
    ///
    /// # Panics
    ///
    /// Re-raises (as a panic) if the body panicked on any thread.
    pub fn parallel_for<F>(&self, n: usize, schedule: Schedule, body: F) -> RegionStats
    where
        F: Fn(ForContext, Chunk) + Sync,
    {
        let team = self.num_threads();
        let mut sp = perfport_trace::span("pool", "parallel_for");
        let items = SlotCell::<usize>::new(team);
        let chunks = SlotCell::<usize>::new(team);
        let busy = SlotCell::<Duration>::new(team);
        let cursor = DynamicCursor::new(n);
        let placements = &self.placements;
        let inline = n <= 1;

        let started = Instant::now();
        // `share` is the number of threads the schedule divides `0..n`
        // among: the pool's team, or the caller alone when inline.
        let work = |tid: usize, share: usize| {
            let t0 = Instant::now();
            let ctx = ForContext {
                thread_id: tid,
                num_threads: share,
                placement: placements[tid],
            };
            let mut my_items = 0usize;
            let mut my_chunks = 0usize;
            if schedule.is_static() {
                for c in StaticChunks::new(schedule, n, share, tid) {
                    body(ctx, c);
                    my_items += c.len();
                    my_chunks += 1;
                }
            } else {
                while let Some(c) = cursor.grab(schedule, share) {
                    body(ctx, c);
                    my_items += c.len();
                    my_chunks += 1;
                }
            }
            // SAFETY: each worker writes only its own slot, and the
            // coordinator reads only after the join.
            unsafe {
                items.set(tid, my_items);
                chunks.set(tid, my_chunks);
                busy.set(tid, t0.elapsed());
            }
        };
        if inline {
            if run_job(|| work(0, 1)) {
                raise_region_panic(region_ns_u64(started.elapsed()));
            }
        } else {
            self.run_region(&|tid| work(tid, team));
        }
        let elapsed = started.elapsed();

        let busy = busy.into_inner();
        let max_busy = busy.iter().copied().max().unwrap_or(Duration::ZERO);
        // A thread that finished early sat at the implicit end barrier for
        // the rest of the region. An inline call has no barrier.
        let barrier_wait_per_thread: Vec<Duration> = if inline {
            vec![Duration::ZERO; team]
        } else {
            busy.iter().map(|&b| elapsed.saturating_sub(b)).collect()
        };
        let stats = RegionStats {
            items_per_thread: items.into_inner(),
            chunks_per_thread: chunks.into_inner(),
            elapsed,
            fork_join_overhead: elapsed.saturating_sub(max_busy),
            barrier_wait_per_thread,
        };
        let barrier_wait_ns = stats
            .total_barrier_wait()
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64;
        perfport_telemetry::counter_add("pool/barrier_wait_ns", barrier_wait_ns);
        perfport_telemetry::observe("pool/parallel_for_ns", region_ns_u64(elapsed));
        if sp.is_recording() {
            perfport_trace::counter("pool", "barrier_wait_ns", barrier_wait_ns as f64);
            sp.arg("n", n);
            sp.arg("schedule", format!("{schedule:?}"));
            sp.arg("team", team);
            sp.arg(
                "items_min",
                stats.items_per_thread.iter().copied().min().unwrap_or(0),
            );
            sp.arg(
                "items_max",
                stats.items_per_thread.iter().copied().max().unwrap_or(0),
            );
            sp.arg("imbalance", stats.imbalance());
            sp.arg(
                "fork_join_overhead_ns",
                stats.fork_join_overhead.as_nanos() as u64,
            );
            perfport_trace::counter("pool", "imbalance", stats.imbalance());
        }
        stats
    }

    /// Convenience per-index variant of [`ThreadPool::parallel_for`].
    pub fn parallel_for_each<F>(&self, n: usize, schedule: Schedule, body: F) -> RegionStats
    where
        F: Fn(usize) + Sync,
    {
        self.parallel_for(n, schedule, |_, chunk| {
            for i in chunk.range() {
                body(i);
            }
        })
    }

    /// Work-sharing map over `0..n`: runs `f(i)` for every index under
    /// `schedule` and returns the results **in index order**, regardless
    /// of which worker computed which index or in what interleaving.
    ///
    /// This is the collection primitive behind the sharded study runner
    /// and `gemm_batch`: an embarrassingly parallel grid can fan out
    /// across the team while the ordered return value lets the caller
    /// emit output bytes identical to a serial run. Like
    /// [`ThreadPool::parallel_for`], a map of at most one item runs on
    /// the calling thread.
    pub fn parallel_map<T, F>(&self, n: usize, schedule: Schedule, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let slots = SlotCell::<Option<T>>::new(n);
        self.parallel_for_each(n, schedule, |i| {
            let v = f(i);
            // SAFETY: every schedule assigns each index to exactly one
            // chunk (one worker), and the coordinator reads the slots
            // only after the region joined.
            unsafe { slots.set(i, Some(v)) };
        });
        slots
            .into_inner()
            .into_iter()
            .map(|v| v.expect("schedule visited every index exactly once"))
            .collect()
    }
}

/// Wraps a job; separated so `Msg` construction stays next to its
/// definition.
fn job_msg(job: Job) -> Msg {
    Msg::Run(job)
}

/// `Duration` → saturating nanoseconds, for telemetry histograms.
fn region_ns_u64(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        for tx in &self.senders {
            // Workers may already be gone if a panic tore things down.
            let _ = tx.send(Msg::Shutdown);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    /// Sends this binary's flight dump to one per-process directory under
    /// the system temp dir instead of the working directory. Every panicking
    /// test calls it first, and every call sets the same value.
    fn flight_dir_in_temp() {
        let dir =
            std::env::temp_dir().join(format!("perfport-pool-unit-flight-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("flight dir must be creatable");
        std::env::set_var("PERFPORT_FLIGHT_DIR", dir);
    }

    #[test]
    fn region_runs_on_every_worker() {
        let pool = ThreadPool::new(6);
        let mask = AtomicU64::new(0);
        pool.run_region(&|tid| {
            mask.fetch_or(1 << tid, Ordering::Relaxed);
        });
        assert_eq!(mask.load(Ordering::Relaxed), 0b11_1111);
        assert_eq!(pool.regions_run(), 1);
    }

    #[test]
    fn parallel_for_covers_every_index_exactly_once() {
        let pool = ThreadPool::new(4);
        for schedule in [
            Schedule::StaticBlock,
            Schedule::StaticChunked { chunk: 3 },
            Schedule::Dynamic { chunk: 5 },
            Schedule::Guided { min_chunk: 2 },
        ] {
            let n = 1237;
            let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let stats = pool.parallel_for_each(n, schedule, |i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "{schedule:?} missed or duplicated an index"
            );
            assert_eq!(stats.total_items(), n, "{schedule:?} stats miscounted");
        }
    }

    #[test]
    fn parallel_for_borrows_stack_data() {
        let pool = ThreadPool::new(3);
        let input: Vec<u64> = (0..1000).collect();
        let sum = AtomicU64::new(0);
        pool.parallel_for(input.len(), Schedule::StaticBlock, |_, chunk| {
            let local: u64 = input[chunk.range()].iter().sum();
            sum.fetch_add(local, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 1000 * 999 / 2);
    }

    #[test]
    fn static_block_stats_are_balanced() {
        let pool = ThreadPool::new(8);
        let stats = pool.parallel_for_each(800, Schedule::StaticBlock, |_| {});
        assert_eq!(stats.items_per_thread, vec![100; 8]);
        assert_eq!(stats.chunks_per_thread, vec![1; 8]);
        assert!((stats.imbalance() - 1.0).abs() < 1e-12);
        assert_eq!(stats.participation(), 1.0);
    }

    #[test]
    fn dynamic_schedule_lets_fast_threads_take_more() {
        let pool = ThreadPool::new(4);
        // Make thread work heavily skewed: index 0 is very slow.
        let stats = pool.parallel_for(256, Schedule::Dynamic { chunk: 1 }, |_, chunk| {
            if chunk.start == 0 {
                std::thread::sleep(Duration::from_millis(30));
            }
        });
        assert_eq!(stats.total_items(), 256);
        // The thread that got stuck on index 0 should have processed far
        // fewer items than the busiest thread.
        let max = *stats.items_per_thread.iter().max().unwrap();
        let min = *stats.items_per_thread.iter().min().unwrap();
        assert!(max > min, "dynamic schedule should be uneven under skew");
    }

    #[test]
    fn context_reports_team_and_placement() {
        let topo = CpuTopology::new(2, 4, 1);
        let pool = ThreadPool::with_affinity(8, topo, PinPolicy::Compact);
        let seen = parking_lot::Mutex::new(HashSet::new());
        pool.parallel_for(8, Schedule::StaticBlock, |ctx, chunk| {
            assert_eq!(ctx.num_threads, 8);
            match ctx.placement {
                Placement::Pinned { core, numa } => {
                    assert_eq!(core, ctx.thread_id);
                    assert_eq!(numa, ctx.thread_id / 4);
                }
                Placement::Floating => panic!("compact policy must pin"),
            }
            seen.lock().insert((ctx.thread_id, chunk.start));
        });
        assert_eq!(seen.lock().len(), 8);
    }

    #[test]
    fn pool_survives_many_regions() {
        let pool = ThreadPool::new(4);
        let total = AtomicUsize::new(0);
        for _ in 0..200 {
            pool.parallel_for_each(64, Schedule::StaticBlock, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 200 * 64);
        assert_eq!(pool.regions_run(), 200);
    }

    #[test]
    fn many_tiny_regions_join_correctly() {
        // Small regions finish inside the coordinator's spin budget, so
        // this hammers the lock-free join path; the sleepy regions in
        // `fork_join_overhead_is_measured` cover the parked path.
        let pool = ThreadPool::new(4);
        let total = AtomicUsize::new(0);
        for _ in 0..2000 {
            pool.parallel_for_each(4, Schedule::StaticBlock, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 8000);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        flight_dir_in_temp();
        let pool = ThreadPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for_each(16, Schedule::StaticBlock, |i| {
                if i == 7 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool must remain usable afterwards.
        let stats = pool.parallel_for_each(8, Schedule::StaticBlock, |_| {});
        assert_eq!(stats.total_items(), 8);
    }

    #[test]
    fn empty_loop_is_fine() {
        let pool = ThreadPool::new(4);
        let stats = pool.parallel_for_each(0, Schedule::Dynamic { chunk: 8 }, |_| {
            panic!("must not run")
        });
        assert_eq!(stats.total_items(), 0);
    }

    #[test]
    fn single_thread_pool_runs_serially() {
        let pool = ThreadPool::new(1);
        let mut order = Vec::new();
        let order_cell = parking_lot::Mutex::new(&mut order);
        pool.parallel_for_each(10, Schedule::StaticBlock, |i| {
            order_cell.lock().push(i);
        });
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn fork_join_overhead_is_measured() {
        let pool = ThreadPool::new(2);
        let stats = pool.parallel_for_each(2, Schedule::StaticBlock, |_| {
            std::thread::sleep(Duration::from_millis(5));
        });
        assert!(stats.elapsed >= Duration::from_millis(5));
        assert!(stats.fork_join_overhead < stats.elapsed);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_panics() {
        let _ = ThreadPool::new(0);
    }

    #[test]
    fn parallel_map_returns_results_in_index_order() {
        let pool = ThreadPool::new(4);
        for schedule in [
            Schedule::StaticBlock,
            Schedule::StaticChunked { chunk: 3 },
            Schedule::Dynamic { chunk: 1 },
            Schedule::Guided { min_chunk: 1 },
        ] {
            let out = pool.parallel_map(37, schedule, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
        // Non-Clone, non-Default result types are fine.
        let boxed = pool.parallel_map(5, Schedule::Dynamic { chunk: 2 }, Box::new);
        assert_eq!(
            boxed.iter().map(|b| **b).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        let empty: Vec<usize> = pool.parallel_map(0, Schedule::StaticBlock, |i| i);
        assert!(empty.is_empty());
    }

    #[test]
    fn one_item_loops_run_on_the_caller_without_a_region() {
        let pool = ThreadPool::new(3);
        let regions = pool.regions_run();
        let ran_on = parking_lot::Mutex::new(Vec::new());
        pool.parallel_for(1, Schedule::StaticBlock, |ctx, chunk| {
            ran_on
                .lock()
                .push((std::thread::current().id(), ctx.thread_id, chunk.range()));
        });
        let seen = pool.parallel_map(1, Schedule::Dynamic { chunk: 1 }, |i| {
            (std::thread::current().id(), i)
        });
        let me = std::thread::current().id();
        assert_eq!(ran_on.into_inner(), vec![(me, 0, 0..1)]);
        assert_eq!(seen, vec![(me, 0)]);
        assert_eq!(pool.regions_run(), regions);
    }

    #[test]
    fn one_item_stats_stay_team_sized() {
        let pool = ThreadPool::new(3);
        for schedule in [
            Schedule::StaticBlock,
            Schedule::StaticChunked { chunk: 2 },
            Schedule::Dynamic { chunk: 1 },
            Schedule::Guided { min_chunk: 1 },
        ] {
            let stats = pool.parallel_for(1, schedule, |ctx, _| {
                assert_eq!((ctx.thread_id, ctx.num_threads), (0, 1));
            });
            assert_eq!(stats.items_per_thread, vec![1, 0, 0], "{schedule:?}");
            assert_eq!(stats.chunks_per_thread, vec![1, 0, 0], "{schedule:?}");
            assert_eq!(stats.barrier_wait_per_thread, vec![Duration::ZERO; 3]);
        }
        let empty = pool.parallel_for_each(0, Schedule::StaticBlock, |_| {});
        assert_eq!(empty.items_per_thread, vec![0, 0, 0]);
        assert_eq!(empty.barrier_wait_per_thread, vec![Duration::ZERO; 3]);
    }

    #[test]
    fn one_item_loops_still_observe_the_loop_histogram() {
        if perfport_telemetry::build_mode() != "on" {
            return;
        }
        let pool = ThreadPool::new(3);
        let before = perfport_telemetry::snapshot();
        pool.parallel_for_each(1, Schedule::StaticBlock, |_| {});
        // Other tests share the process-wide registry, so only a lower
        // bound on the delta is deterministic.
        let delta = perfport_telemetry::snapshot().delta_since(&before);
        let count = |name: &str| delta.histograms.get(name).map_or(0, |h| h.count);
        assert!(count("pool/parallel_for_ns") >= 1);
    }

    #[test]
    fn one_item_panic_raises_the_region_panic_and_the_pool_survives() {
        flight_dir_in_temp();
        let pool = ThreadPool::new(3);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for_each(1, Schedule::StaticBlock, |_| panic!("boom inline"));
        }))
        .expect_err("panic must propagate");
        let msg = perfport_telemetry::panic_message(&*payload);
        assert_eq!(
            msg,
            "a perfport-pool worker panicked inside a parallel region"
        );
        assert_eq!(
            pool.parallel_map(5, Schedule::StaticBlock, |i| i + 1),
            vec![1, 2, 3, 4, 5]
        );
        assert_eq!(
            pool.parallel_map(1, Schedule::StaticBlock, |i| i + 1),
            vec![1]
        );
    }

    #[test]
    fn one_item_map_matches_for_any_team() {
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            assert_eq!(
                pool.parallel_map(1, Schedule::Dynamic { chunk: 1 }, |i| (i + 7) * 3),
                vec![21]
            );
        }
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn parallel_map_propagates_panics() {
        flight_dir_in_temp();
        let pool = ThreadPool::new(2);
        let _ = pool.parallel_map(8, Schedule::StaticBlock, |i| {
            assert!(i != 5, "boom");
            i
        });
    }
}
