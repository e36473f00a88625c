//! The persistent team and its fork-join protocol.
//!
//! Like an OpenMP runtime, the pool keeps its team alive across parallel
//! regions, and the thread that forks a region is team member 0, as
//! OpenMP's master thread is: a team of `n` is the caller plus `n − 1`
//! spawned workers. Forking a region costs one channel send and one
//! wake-up per spawned worker, not a thread spawn, so a team of one forks
//! nothing. Region bodies may borrow from the caller's stack; soundness
//! comes from the strict join protocol — `run_region` does not return,
//! not even by unwinding, until every worker has signalled completion, so
//! the borrowed closure outlives all uses.

use crate::pad::CachePadded;
use crate::schedule::{Chunk, DynamicCursor, Schedule, StaticChunks};
use crate::slice::SlotCell;
use crate::stats::RegionStats;
use crate::topology::{place, CpuTopology, PinPolicy, Placement};
use perfport_telemetry::{Counter, Histogram};
use perfport_trace::log::nanos;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-thread context handed to every region body.
#[derive(Debug, Clone, Copy)]
pub struct ForContext {
    /// This thread's index within the team, `0..num_threads`; 0 is the
    /// calling thread.
    pub thread_id: usize,
    /// Team size (`omp_get_num_threads`).
    pub num_threads: usize,
    /// Where the affinity policy put this thread.
    pub placement: Placement,
}

/// Iterations of the caller's spin phase before it parks on the condvar.
/// The caller spins only once its own share of the region is done, so
/// the wait covers just the workers' lag behind it: the wake-up latency
/// plus any imbalance. Sized so a small region (tens of microseconds of
/// work per thread) joins without a futex round trip, while a long
/// region costs at most a few microseconds of extra spinning.
const JOIN_SPIN_ITERS: u32 = 4096;

/// Completion state shared between the caller and the spawned workers
/// for one region.
///
/// The join counter lives on its own cache-line pair: every worker RMWs
/// it once per region, and at small region sizes those RMWs land within
/// nanoseconds of each other — sharing a line with `done_flag` (which
/// the caller polls in its spin phase) would make each decrement evict
/// the caller's line.
struct RegionState {
    remaining: CachePadded<AtomicUsize>,
    panicked: AtomicBool,
    /// Lock-free completion flag for the caller's spin phase.
    done_flag: AtomicBool,
    /// Parked-path completion state, for when spinning times out.
    done: Mutex<bool>,
    cv: Condvar,
}

impl RegionState {
    /// State for a region joining `workers` spawned workers; with none
    /// it is done from the start.
    fn new(workers: usize) -> Arc<Self> {
        Arc::new(RegionState {
            remaining: CachePadded::new(AtomicUsize::new(workers)),
            panicked: AtomicBool::new(false),
            done_flag: AtomicBool::new(workers == 0),
            done: Mutex::new(workers == 0),
            cv: Condvar::new(),
        })
    }

    fn finish_one(&self) {
        // AcqRel: the worker's writes happen-before the caller's return
        // from `wait`.
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.done_flag.store(true, Ordering::Release);
            *lock(&self.done) = true;
            self.cv.notify_all();
        }
    }

    /// Bounded spin, then park. Forking a region costs one channel send
    /// per worker; at small loop sizes the *join* used to dominate
    /// because the caller always took the mutex + condvar path (a futex
    /// sleep/wake pair). Spinning on the lock-free flag first makes the
    /// join syscall-free whenever the workers finish within the spin
    /// budget.
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
        let mut done = lock(&self.done);
        while !*done {
            done = self.cv.wait(done).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Locks `m`. Member panics are caught by `run_job` and re-raised by the
/// join protocol itself, so a poisoned lock only means a panic is already
/// in flight, and its value is taken as it is.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A type-erased pointer to a region body living on the caller's stack.
/// The join protocol guarantees the pointee outlives every call.
struct Job {
    data: *const (),
    call: unsafe fn(*const (), usize),
    state: Arc<RegionState>,
}

// SAFETY: `data` points at a `F: Sync` closure that the caller keeps
// alive until all workers signalled completion; sending the pointer to
// worker threads is exactly the `&F: Send` capability `F: Sync` grants.
unsafe impl Send for Job {}

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

static REGIONS: Counter = Counter::new("pool/regions");
static REGION_NS: Histogram = Histogram::new("pool/region_ns");
static PARALLEL_FOR_NS: Histogram = Histogram::new("pool/parallel_for_ns");
static BARRIER_WAIT_NS: Counter = Counter::new("pool/barrier_wait_ns");
static WORKER_PANICS: Counter = Counter::new("pool/worker_panics");
static REGIONS_POISONED: Counter = Counter::new("pool/regions_poisoned");

/// Runs one team member's share of a region the same way on a worker and
/// on the calling thread: with a panic caught, counted, logged as a
/// `task_panic` event and flight-recorded. Returns whether `body`
/// panicked.
///
/// The flight dump fires before the region re-raises the failure, and the
/// dump guard is first-trigger-wins, so the file on disk ends with this
/// event.
fn run_job(body: impl FnOnce()) -> bool {
    let Err(payload) = catch_unwind(AssertUnwindSafe(body)) else {
        return false;
    };
    let msg = perfport_telemetry::panic_message(&*payload);
    WORKER_PANICS.add(1);
    perfport_trace::instant("pool", "task_panic", vec![("message", msg.clone().into())]);
    perfport_telemetry::flight_dump("task_panic", &msg);
    true
}

/// Re-raises a team member's panic on the caller once its region (or
/// inline call) has finished, after recording the poisoning.
fn raise_region_panic(region: Duration) -> ! {
    const MSG: &str = "a perfport-pool worker panicked inside a parallel region";
    REGIONS_POISONED.add(1);
    perfport_trace::instant("pool", "region_poison", vec![("ns", nanos(region).into())]);
    perfport_telemetry::flight_dump("region_poison", MSG);
    panic!("{MSG}");
}

/// A persistent team with OpenMP-style fork-join parallel regions and
/// work-sharing loops. The calling thread is member 0 of every region,
/// so a team of `n` spawns `n − 1` worker threads.
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
    senders: Vec<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    placements: Vec<Placement>,
    topology: CpuTopology,
    policy: PinPolicy,
    regions_run: AtomicUsize,
}

impl ThreadPool {
    /// Creates an unpinned team of `threads` on a flat topology: the
    /// caller plus `threads − 1` spawned workers.
    pub fn new(threads: usize) -> Self {
        Self::with_affinity(
            threads,
            CpuTopology::flat(threads.max(1)),
            PinPolicy::Unpinned,
        )
    }

    /// Creates a team of `threads` placed on `topology` according to
    /// `policy`; it spawns workers `1..threads`, and placement 0 is the
    /// calling thread's. Placement is recorded for the timing models; it
    /// is not enforced with OS affinity calls (see crate docs).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_affinity(threads: usize, topology: CpuTopology, policy: PinPolicy) -> Self {
        assert!(threads > 0, "thread pool must have at least one worker");
        let placements: Vec<Placement> = (0..threads)
            .map(|t| place(&topology, policy, threads, t))
            .collect();
        let mut senders = Vec::with_capacity(threads - 1);
        let mut handles = Vec::with_capacity(threads - 1);
        for tid in 1..threads {
            let (tx, rx) = channel::<Job>();
            senders.push(tx);
            let handle = std::thread::Builder::new()
                .name(format!("perfport-worker-{tid}"))
                .spawn(move || {
                    // Ends when the pool drops its sender.
                    for job in rx {
                        // SAFETY: the caller keeps the closure alive
                        // until `finish_one` has been called by every
                        // worker.
                        if run_job(|| unsafe { (job.call)(job.data, tid) }) {
                            job.state.panicked.store(true, Ordering::Release);
                        }
                        job.state.finish_one();
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

    /// Team size, the calling thread included.
    pub fn num_threads(&self) -> usize {
        self.placements.len()
    }

    /// The topology the team is placed on.
    pub fn topology(&self) -> CpuTopology {
        self.topology
    }

    /// The affinity policy in effect.
    pub fn policy(&self) -> PinPolicy {
        self.policy
    }

    /// Recorded placement of every team member; entry 0 is the caller's.
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// Number of parallel regions executed so far.
    pub fn regions_run(&self) -> usize {
        self.regions_run.load(Ordering::Relaxed)
    }

    /// Runs `body(thread_id)` on every team member and waits for all of
    /// them — a bare `#pragma omp parallel`. The calling thread runs
    /// `body(0)` after handing the region to the spawned workers, so a
    /// team of one runs it inline with no wake-up and no join.
    ///
    /// # Panics
    ///
    /// Re-raises (as a panic) if any member's body panicked, but only
    /// once every worker has finished: workers hold pointers into the
    /// caller's stack until the join.
    pub fn run_region<F: Fn(usize) + Sync>(&self, body: &F) {
        let mut sp = REGION_NS.span("pool", "region");
        sp.arg("team", self.num_threads());
        let state = RegionState::new(self.senders.len());
        for tx in &self.senders {
            let job = Job {
                data: body as *const F as *const (),
                call: call_body::<F>,
                state: Arc::clone(&state),
            };
            tx.send(job).expect("worker channel closed");
        }
        // `run_job` catches a panic in the caller's share, so the join
        // below always runs before this frame can unwind.
        let caller_panicked = run_job(|| body(0));
        state.wait();
        let region = sp.stop();
        REGIONS.add(1);
        self.regions_run.fetch_add(1, Ordering::Relaxed);
        let panicked = caller_panicked || state.panicked.load(Ordering::Acquire);
        sp.arg("panicked", panicked);
        if panicked {
            raise_region_panic(region);
        }
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
    /// one slot per team member, with the item in slot 0 and zero barrier
    /// wait everywhere.
    ///
    /// A longer loop forks one region, and the calling thread works
    /// through its share as member 0; its counts fill slot 0.
    ///
    /// # Panics
    ///
    /// Re-raises (as a panic) if the body panicked on any thread.
    pub fn parallel_for<F>(&self, n: usize, schedule: Schedule, body: F) -> RegionStats
    where
        F: Fn(ForContext, Chunk) + Sync,
    {
        let team = self.num_threads();
        let items = SlotCell::<usize>::new(team);
        let chunks = SlotCell::<usize>::new(team);
        let busy = SlotCell::<Duration>::new(team);
        let cursor = DynamicCursor::new(n);
        let placements = &self.placements;
        let inline = n <= 1;

        let mut sp = PARALLEL_FOR_NS.span("pool", "parallel_for");
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
            // SAFETY: each team member writes only its own slot, and the
            // caller reads only after the join.
            unsafe {
                items.set(tid, my_items);
                chunks.set(tid, my_chunks);
                busy.set(tid, t0.elapsed());
            }
        };
        if inline {
            if run_job(|| work(0, 1)) {
                raise_region_panic(sp.stop());
            }
        } else {
            self.run_region(&|tid| work(tid, team));
        }
        let elapsed = sp.stop();

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
        BARRIER_WAIT_NS.add(nanos(stats.total_barrier_wait()));
        // Only what a reader cannot derive from the rest of the trace: the
        // nested `pool:region` span carries `team`, `imbalance` is
        // `items_max · team / n`, and an inline call's item counts follow
        // from `n` alone.
        if sp.is_traced() {
            sp.arg("n", n);
            sp.arg("schedule", schedule.kind());
            if let Some(chunk) = schedule.chunk() {
                sp.arg("chunk", chunk);
            }
            if !inline {
                let items = &stats.items_per_thread;
                sp.arg("items_min", items.iter().copied().min().unwrap_or(0));
                sp.arg("items_max", items.iter().copied().max().unwrap_or(0));
                sp.arg("fork_join_overhead_ns", nanos(stats.fork_join_overhead));
            }
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
            // chunk (one thread), and the caller reads the slots
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

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Closing every channel ends each worker's receive loop.
        self.senders.clear();
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
        let seen = Mutex::new(HashSet::new());
        pool.parallel_for(8, Schedule::StaticBlock, |ctx, chunk| {
            assert_eq!(ctx.num_threads, 8);
            match ctx.placement {
                Placement::Pinned { core, numa } => {
                    assert_eq!(core, ctx.thread_id);
                    assert_eq!(numa, ctx.thread_id / 4);
                }
                Placement::Floating => panic!("compact policy must pin"),
            }
            lock(&seen).insert((ctx.thread_id, chunk.start));
        });
        assert_eq!(lock(&seen).len(), 8);
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
        // Small regions finish inside the caller's spin budget, so
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
    fn the_caller_is_team_member_zero() {
        let me = std::thread::current().id();
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            assert_eq!(pool.num_threads(), threads);
            assert_eq!(pool.handles.len(), threads - 1, "the caller is not spawned");
            let ran_on = Mutex::new(Vec::new());
            pool.run_region(&|tid| lock(&ran_on).push((tid, std::thread::current().id())));
            let mut ran_on = ran_on.into_inner().unwrap();
            ran_on.sort_by_key(|&(tid, _)| tid);
            assert_eq!(
                ran_on.iter().map(|&(tid, _)| tid).collect::<Vec<_>>(),
                (0..threads).collect::<Vec<_>>()
            );
            assert_eq!(ran_on[0].1, me, "member 0 is the calling thread");
            let distinct: HashSet<_> = ran_on.iter().map(|&(_, id)| id).collect();
            assert_eq!(
                distinct.len(),
                threads,
                "{threads} members, {threads} threads"
            );
        }
        // A team of one runs every region on the caller alone.
        let pool = ThreadPool::new(1);
        let ran_on = Mutex::new(HashSet::new());
        pool.parallel_for_each(64, Schedule::Dynamic { chunk: 4 }, |_| {
            lock(&ran_on).insert(std::thread::current().id());
        });
        assert_eq!(ran_on.into_inner().unwrap(), HashSet::from([me]));
        assert_eq!(pool.regions_run(), 1);
    }

    #[test]
    fn a_caller_share_panic_waits_for_every_worker() {
        /// Meets worker 1 at the barrier while member 0 unwinds.
        struct MeetOnUnwind<'a>(&'a std::sync::Barrier);
        impl Drop for MeetOnUnwind<'_> {
            fn drop(&mut self) {
                self.0.wait();
            }
        }

        flight_dir_in_temp();
        let me = std::thread::current().id();
        // Worker 1 writes here only once member 0 is unwinding on the
        // caller, and then late: a region that re-raised before its join
        // would reach the check below with the slot still empty. The body
        // and what it borrows are declared before the pool, so they
        // outlive its workers either way.
        let unwinding = std::sync::Barrier::new(2);
        let late_write = Mutex::new(None);
        let body = |tid: usize| {
            if tid == 0 {
                let _meet = MeetOnUnwind(&unwinding);
                assert_eq!(std::thread::current().id(), me);
                panic!("boom on the caller");
            }
            unwinding.wait();
            std::thread::sleep(Duration::from_millis(20));
            *lock(&late_write) = Some(std::thread::current().id());
        };
        let pool = ThreadPool::new(2);
        let payload = catch_unwind(AssertUnwindSafe(|| pool.run_region(&body)))
            .expect_err("the caller's panic must propagate");
        let worker = lock(&late_write)
            .take()
            .expect("worker 1 finished before the region re-raised");
        assert_ne!(worker, me);
        assert_eq!(
            perfport_telemetry::panic_message(&*payload),
            "a perfport-pool worker panicked inside a parallel region"
        );
        assert_eq!(
            pool.parallel_map(4, Schedule::StaticBlock, |i| i * 3),
            vec![0, 3, 6, 9]
        );
    }

    #[test]
    fn a_dropped_pool_joins_every_worker() {
        flight_dir_in_temp();
        let pool = ThreadPool::new(4);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            pool.run_region(&|tid| assert!(tid != 2, "boom on worker 2"));
        }))
        .expect_err("the worker's panic must propagate");
        assert_eq!(
            perfport_telemetry::panic_message(&*payload),
            "a perfport-pool worker panicked inside a parallel region"
        );
        // Dropping closes every worker's channel and joins its thread; a
        // worker that missed the close would keep the drop from returning.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            drop(pool);
            tx.send(()).expect("the test thread is waiting");
        });
        rx.recv_timeout(Duration::from_secs(5))
            .expect("dropping the pool joined every worker");
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
        let order_cell = Mutex::new(&mut order);
        pool.parallel_for_each(10, Schedule::StaticBlock, |i| {
            lock(&order_cell).push(i);
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
        let ran_on = Mutex::new(Vec::new());
        pool.parallel_for(1, Schedule::StaticBlock, |ctx, chunk| {
            lock(&ran_on).push((std::thread::current().id(), ctx.thread_id, chunk.range()));
        });
        let seen = pool.parallel_map(1, Schedule::Dynamic { chunk: 1 }, |i| {
            (std::thread::current().id(), i)
        });
        let me = std::thread::current().id();
        assert_eq!(ran_on.into_inner().unwrap(), vec![(me, 0, 0..1)]);
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
