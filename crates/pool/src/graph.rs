//! A dependency-driven task-graph executor on the fork-join pool.
//!
//! Every other entry point of this crate is a *barrier* construct: a
//! `parallel_for` describes one index space and joins the whole team at
//! its end, so a region that packs a panel while the rest of the team
//! waits pays the full fork-join round trip per panel. [`TaskGraph`]
//! replaces that with message-passing readiness, the idiom the gridiron
//! `Automaton` runtimes use: each task names the tasks it depends on,
//! becomes *eligible* the instant its last upstream completion arrives,
//! and eligibility — not a barrier — is the only synchronisation between
//! tasks. One pool region hosts the whole graph; inside it workers pop
//! eligible tasks until every task has settled. A graph of at most one
//! task has nothing to overlap, so it runs on the calling thread instead.
//!
//! Three contracts, mirrored from the rest of the crate:
//!
//! * **Cycle rejection.** [`TaskGraph::validate`] rejects graphs with
//!   dependency cycles up front via Kahn's algorithm, instead of
//!   deadlocking a worker team at runtime. [`TaskGraph::run`] and
//!   [`TaskGraph::run_serial`] call it whenever
//!   [`TaskGraph::add_dependency`] was used; a graph built with
//!   [`TaskGraph::add`] alone has only backward edges and is acyclic by
//!   construction.
//! * **Deterministic ordering.** Eligible tasks are claimed
//!   lowest-[`TaskId`] first from a min-heap, so the serial execution
//!   order ([`TaskGraph::run_serial`]) is a pure function of the graph,
//!   and the parallel claim order is reproducible given the same
//!   interleaving. Result determinism (the bitwise contracts upstream)
//!   comes from the dependency edges, never from scheduling luck.
//! * **Panic → poison.** A panicking task marks every transitive
//!   dependent *skipped* (their inputs never materialised), lets
//!   independent tasks finish, and re-raises the first panic payload to
//!   the caller after the region joins — the same loud-failure shape as
//!   [`crate::WorkQueue`]: no silent dropping, no deadlock.
//!
//! Per-worker idle nanoseconds (time spent parked waiting for a task to
//! become eligible) are measured for every run and exported through
//! [`GraphStats`] and the `pool/idle_ns` trace counter — the graph-mode
//! analogue of the fork-join overhead `parallel_for` reports.

use crate::pool::ThreadPool;
use crate::slice::SlotCell;
use crate::stats;
use parking_lot::{Condvar, Mutex};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Identifies one task within its [`TaskGraph`]. Ids are dense and
/// allocated in [`TaskGraph::add`] order; the ordering doubles as the
/// deterministic tie-break among simultaneously eligible tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(usize);

impl TaskId {
    /// The dense index of this task (its [`TaskGraph::add`] rank).
    pub fn index(self) -> usize {
        self.0
    }
}

/// The error [`TaskGraph::validate`] reports for a graph whose
/// dependencies form a cycle: no topological order exists, so running it
/// would deadlock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleError {
    /// Tasks on or downstream of a cycle (every task Kahn's algorithm
    /// could not order).
    pub tasks: Vec<TaskId>,
}

impl std::fmt::Display for CycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "task graph contains a dependency cycle ({} task(s) unorderable, first: {:?})",
            self.tasks.len(),
            self.tasks.first().map(|t| t.0)
        )
    }
}

impl std::error::Error for CycleError {}

type TaskBody<'env> = Box<dyn FnOnce() + Send + 'env>;

struct Node<'env> {
    body: Option<TaskBody<'env>>,
    deps: Vec<usize>,
}

/// A dependency graph of one-shot tasks, executed by a [`ThreadPool`]
/// team without barriers (see the module docs for the contracts).
///
/// Tasks may borrow from the enclosing scope (`'env`): [`TaskGraph::run`]
/// executes the whole graph inside a single pool region (or on the
/// calling thread), and the region's join protocol guarantees every
/// borrow outlives every use — the same soundness argument
/// `parallel_for` relies on.
///
/// ```
/// use perfport_pool::{TaskGraph, ThreadPool};
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let pool = ThreadPool::new(4);
/// let log = AtomicUsize::new(0);
/// let mut g = TaskGraph::new();
/// // A diamond: a before b and c, both before d.
/// let a = g.add(&[], || {
///     log.fetch_add(1, Ordering::SeqCst);
/// });
/// let b = g.add(&[a], || {
///     log.fetch_add(10, Ordering::SeqCst);
/// });
/// let c = g.add(&[a], || {
///     log.fetch_add(10, Ordering::SeqCst);
/// });
/// let d = g.add(&[b, c], || {
///     assert_eq!(log.load(Ordering::SeqCst), 21);
/// });
/// assert!(d > c && c > b && b > a);
/// let stats = g.run(&pool);
/// assert_eq!(stats.executed, 4);
/// ```
#[derive(Default)]
pub struct TaskGraph<'env> {
    nodes: Vec<Node<'env>>,
    /// Set by [`TaskGraph::add_dependency`], the only constructor of
    /// forward edges: without it the graph cannot hold a cycle.
    forward_edges: bool,
}

impl<'env> TaskGraph<'env> {
    /// An empty graph.
    pub fn new() -> Self {
        TaskGraph {
            nodes: Vec::new(),
            forward_edges: false,
        }
    }

    /// Number of tasks added so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when no tasks have been added.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a task that becomes eligible once every task in `deps` has
    /// completed, and returns its id. Duplicate dependencies are
    /// tolerated (each counts once).
    ///
    /// # Panics
    ///
    /// Panics if a dependency id does not name an already-added task
    /// (edges added here always point backwards, so they can never form
    /// a cycle; [`TaskGraph::add_dependency`] is the general — and
    /// therefore validated — edge constructor).
    pub fn add(&mut self, deps: &[TaskId], body: impl FnOnce() + Send + 'env) -> TaskId {
        let id = self.nodes.len();
        let mut unique: Vec<usize> = Vec::with_capacity(deps.len());
        for d in deps {
            assert!(d.0 < id, "dependency {:?} does not name an earlier task", d);
            if !unique.contains(&d.0) {
                unique.push(d.0);
            }
        }
        self.nodes.push(Node {
            body: Some(Box::new(body)),
            deps: unique,
        });
        TaskId(id)
    }

    /// Adds a dependency edge `dep → task` between two existing tasks
    /// after the fact (e.g. a buffer-reuse constraint discovered while
    /// enumerating later tasks). Unlike [`TaskGraph::add`] this can
    /// express forward edges — and therefore cycles, which
    /// [`TaskGraph::validate`] exists to reject.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range or `task == dep`.
    pub fn add_dependency(&mut self, task: TaskId, dep: TaskId) {
        assert!(task.0 < self.nodes.len(), "unknown task {task:?}");
        assert!(dep.0 < self.nodes.len(), "unknown dependency {dep:?}");
        assert_ne!(task, dep, "a task cannot depend on itself");
        self.forward_edges = true;
        let deps = &mut self.nodes[task.0].deps;
        if !deps.contains(&dep.0) {
            deps.push(dep.0);
        }
    }

    /// Checks the graph admits a topological order (Kahn's algorithm).
    ///
    /// # Errors
    ///
    /// [`CycleError`] naming every task on or downstream of a dependency
    /// cycle.
    pub fn validate(&self) -> Result<(), CycleError> {
        let n = self.nodes.len();
        let mut pending: Vec<usize> = self.nodes.iter().map(|node| node.deps.len()).collect();
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (id, node) in self.nodes.iter().enumerate() {
            for &d in &node.deps {
                dependents[d].push(id);
            }
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| pending[i] == 0).collect();
        let mut ordered = 0usize;
        while let Some(t) = ready.pop() {
            ordered += 1;
            for &d in &dependents[t] {
                pending[d] -= 1;
                if pending[d] == 0 {
                    ready.push(d);
                }
            }
        }
        if ordered == n {
            return Ok(());
        }
        Err(CycleError {
            tasks: (0..n).filter(|&i| pending[i] > 0).map(TaskId).collect(),
        })
    }

    /// Panics with the [`CycleError`] message if the graph may hold a
    /// cycle and does. Only [`TaskGraph::add_dependency`] can make one.
    fn assert_acyclic(&self) {
        if self.forward_edges {
            if let Err(cycle) = self.validate() {
                panic!("{cycle}");
            }
        }
    }

    /// Executes the graph on the pool and returns the run's
    /// instrumentation.
    ///
    /// A graph of two or more tasks runs on the pool's whole team inside
    /// one parallel region. Workers claim eligible tasks lowest-id first;
    /// a task's completion is published to its dependents with
    /// release/acquire ordering, so everything a task wrote is visible to
    /// every task that names it as a dependency (the happens-before edge
    /// pipelined users rely on).
    ///
    /// A graph of at most one task has nothing to overlap, so it runs on
    /// the calling thread through [`TaskGraph::run_serial`]'s executor and
    /// forks no region: the caller would otherwise only block while one
    /// worker is woken, runs the task and wakes it again. Its
    /// [`GraphStats`] are still sized to the team (see there).
    ///
    /// # Panics
    ///
    /// Panics with [`CycleError`]'s message if the graph has a cycle,
    /// and re-raises the first task panic after every reachable task has
    /// settled (dependents of the panicking task are skipped — see the
    /// module docs).
    pub fn run(self, pool: &ThreadPool) -> GraphStats {
        let team = pool.num_threads();
        if self.nodes.len() <= 1 {
            return self.run_on_caller(team);
        }
        self.assert_acyclic();
        let rt = Runtime::new(self.nodes);
        let tasks = SlotCell::<usize>::new(team);
        let idle = SlotCell::<Duration>::new(team);
        let started = Instant::now();
        pool.run_region(&|tid| {
            let (my_tasks, my_idle) = rt.worker_loop();
            // SAFETY: each worker writes only its own slot; the
            // coordinator reads after the join.
            unsafe {
                tasks.set(tid, my_tasks);
                idle.set(tid, my_idle);
            }
        });
        let elapsed = started.elapsed();
        let stats = GraphStats {
            executed: rt.executed.load(Ordering::Relaxed),
            skipped: rt.skipped.load(Ordering::Relaxed),
            tasks_per_worker: tasks.into_inner(),
            idle_per_worker: idle.into_inner(),
            elapsed,
        };
        stats.publish();
        if let Some(payload) = rt.panic.lock().take() {
            resume_unwind(payload);
        }
        stats
    }

    /// Executes the graph on the calling thread alone, in the
    /// deterministic lowest-id-first topological order — the serial
    /// reference for graph-mode bitwise contracts.
    ///
    /// # Panics
    ///
    /// Same contract as [`TaskGraph::run`].
    pub fn run_serial(self) -> GraphStats {
        self.run_on_caller(1)
    }

    /// The serial executor, reporting as slot 0 of a `team`-sized
    /// [`GraphStats`].
    fn run_on_caller(self, team: usize) -> GraphStats {
        self.assert_acyclic();
        let total = self.nodes.len();
        let rt = Runtime::new(self.nodes);
        let started = Instant::now();
        let (tasks, idle) = rt.worker_loop();
        debug_assert_eq!(tasks, total);
        let mut tasks_per_worker = vec![0; team];
        let mut idle_per_worker = vec![Duration::ZERO; team];
        tasks_per_worker[0] = tasks;
        idle_per_worker[0] = idle;
        let stats = GraphStats {
            executed: rt.executed.load(Ordering::Relaxed),
            skipped: rt.skipped.load(Ordering::Relaxed),
            tasks_per_worker,
            idle_per_worker,
            elapsed: started.elapsed(),
        };
        stats.publish();
        if let Some(payload) = rt.panic.lock().take() {
            resume_unwind(payload);
        }
        stats
    }
}

/// Instrumentation of one [`TaskGraph`] run.
///
/// The per-worker vectors have one slot per team member: the pool's
/// `num_threads()` for [`TaskGraph::run`], one for
/// [`TaskGraph::run_serial`]. When `run` executes a graph of at most one
/// task on the calling thread, the caller's counts fill slot 0 and every
/// other slot is zero.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Tasks whose bodies ran to completion.
    pub executed: usize,
    /// Tasks skipped because an upstream task panicked.
    pub skipped: usize,
    /// Tasks settled (executed or skipped) by each worker.
    pub tasks_per_worker: Vec<usize>,
    /// Time each worker spent parked with no eligible task — the
    /// graph-mode analogue of barrier wait.
    pub idle_per_worker: Vec<Duration>,
    /// Wall-clock time of the whole run, including fork and join.
    pub elapsed: Duration,
}

impl GraphStats {
    /// Total idle time across the team.
    pub fn total_idle(&self) -> Duration {
        self.idle_per_worker.iter().sum()
    }

    /// Records the run in the process-wide scheduling totals and emits
    /// the `pool/idle_ns` trace counter.
    fn publish(&self) {
        let idle_ns = self.total_idle().as_nanos().min(u128::from(u64::MAX)) as u64;
        stats::record_idle(idle_ns);
        perfport_telemetry::counter_add("pool/idle_ns", idle_ns);
        perfport_telemetry::observe(
            "graph/run_ns",
            self.elapsed.as_nanos().min(u128::from(u64::MAX)) as u64,
        );
        if perfport_trace::enabled() {
            perfport_trace::counter("pool", "idle_ns", idle_ns as f64);
        }
    }
}

/// The shared execution state of one running graph.
struct Runtime<'env> {
    /// Each body is taken exactly once, by the worker that claims the
    /// task (the mutex is uncontended: one lock per task lifetime).
    bodies: Vec<Mutex<Option<TaskBody<'env>>>>,
    /// Unfinished upstream count per task; a task is pushed to `ready`
    /// by whichever completion decrements it to zero.
    pending: Vec<AtomicUsize>,
    /// Set when an upstream task panicked or was itself skipped.
    skip: Vec<AtomicBool>,
    dependents: Vec<Vec<usize>>,
    /// Eligible tasks, popped lowest-id first.
    ready: Mutex<BinaryHeap<Reverse<usize>>>,
    /// Wakes parked workers when tasks become eligible or the run ends.
    cv: Condvar,
    completed: AtomicUsize,
    total: usize,
    executed: AtomicUsize,
    skipped: AtomicUsize,
    /// First panic payload; re-raised by the coordinator after the join.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl<'env> Runtime<'env> {
    fn new(nodes: Vec<Node<'env>>) -> Self {
        let total = nodes.len();
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); total];
        let mut pending = Vec::with_capacity(total);
        let mut bodies = Vec::with_capacity(total);
        let mut initial: Vec<usize> = Vec::new();
        for (id, node) in nodes.into_iter().enumerate() {
            for &d in &node.deps {
                dependents[d].push(id);
            }
            if node.deps.is_empty() {
                initial.push(id);
            }
            pending.push(AtomicUsize::new(node.deps.len()));
            bodies.push(Mutex::new(node.body));
        }
        Runtime {
            bodies,
            pending,
            skip: (0..total).map(|_| AtomicBool::new(false)).collect(),
            dependents,
            ready: Mutex::new(initial.into_iter().map(Reverse).collect()),
            cv: Condvar::new(),
            completed: AtomicUsize::new(0),
            total,
            executed: AtomicUsize::new(0),
            skipped: AtomicUsize::new(0),
            panic: Mutex::new(None),
        }
    }

    /// Claims and settles tasks until every task in the graph has
    /// completed; returns this worker's settled-task count and idle
    /// time.
    fn worker_loop(&self) -> (usize, Duration) {
        let mut settled = 0usize;
        let mut idle = Duration::ZERO;
        loop {
            let (task, eligible_left) = {
                let mut ready = self.ready.lock();
                loop {
                    if let Some(Reverse(t)) = ready.pop() {
                        break (t, ready.len());
                    }
                    // Acquire pairs with the Release increment in
                    // `finish`: once every task reads complete, their
                    // writes are visible here.
                    if self.completed.load(Ordering::Acquire) == self.total {
                        return (settled, idle);
                    }
                    let t0 = Instant::now();
                    self.cv.wait(&mut ready);
                    idle += t0.elapsed();
                }
            };
            // Depth of the eligible set right after this claim — how
            // much ready parallelism the executor is sitting on.
            perfport_telemetry::gauge_set("graph/eligible_depth", eligible_left as u64);
            perfport_telemetry::event("task_claim", format!("task={task}"));
            self.settle(task);
            settled += 1;
        }
    }

    /// Runs (or skips) one claimed task and publishes its completion.
    fn settle(&self, task: usize) {
        let failed = if self.skip[task].load(Ordering::Acquire) {
            self.skipped.fetch_add(1, Ordering::Relaxed);
            perfport_telemetry::counter_add("graph/tasks_skipped", 1);
            perfport_telemetry::event("task_skip", format!("task={task} upstream panicked"));
            true
        } else {
            let body = self.bodies[task]
                .lock()
                .take()
                .expect("a task is claimed exactly once");
            let t0 = Instant::now();
            match catch_unwind(AssertUnwindSafe(body)) {
                Ok(()) => {
                    let run_ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                    self.executed.fetch_add(1, Ordering::Relaxed);
                    perfport_telemetry::counter_add("graph/tasks_executed", 1);
                    perfport_telemetry::observe("graph/task_run_ns", run_ns);
                    perfport_telemetry::event("task_run", format!("task={task} ns={run_ns}"));
                    false
                }
                Err(payload) => {
                    self.skipped.fetch_add(1, Ordering::Relaxed);
                    perfport_telemetry::counter_add("graph/task_panics", 1);
                    let msg = perfport_telemetry::panic_message(&*payload);
                    perfport_telemetry::event("task_panic", format!("task={task} {msg}"));
                    perfport_telemetry::flight_dump("task_panic", &format!("task={task} {msg}"));
                    let mut slot = self.panic.lock();
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                    true
                }
            }
        };
        // A panicked or skipped task poisons its dependents before the
        // completion decrement can make them eligible.
        if failed {
            for &d in &self.dependents[task] {
                self.skip[d].store(true, Ordering::Release);
            }
        }
        let mut newly_ready: Vec<usize> = Vec::new();
        for &d in &self.dependents[task] {
            // AcqRel: this task's writes happen-before any dependent
            // that this decrement makes eligible.
            if self.pending[d].fetch_sub(1, Ordering::AcqRel) == 1 {
                newly_ready.push(d);
            }
        }
        let done = self.completed.fetch_add(1, Ordering::Release) + 1 == self.total;
        if !newly_ready.is_empty() || done {
            let mut ready = self.ready.lock();
            for d in newly_ready {
                ready.push(Reverse(d));
            }
            drop(ready);
            self.cv.notify_all();
        }
    }
}

impl ThreadPool {
    /// Graph-mode [`ThreadPool::parallel_map`]: runs `f(i)` for every
    /// index as one independent [`TaskGraph`] task and returns the
    /// results **in index order**. Tasks are claimed lowest-index first
    /// and drained without any intermediate barrier; the final join is
    /// the single happens-before edge the ordered collection needs.
    /// With `n <= 1` the call runs `f` on the calling thread and forks
    /// no region (see [`TaskGraph::run`]).
    ///
    /// # Panics
    ///
    /// Re-raises the first `f` panic after the graph settles.
    pub fn graph_map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let slots = SlotCell::<Option<T>>::new(n);
        let mut graph = TaskGraph::new();
        for i in 0..n {
            let slots = &slots;
            let f = &f;
            graph.add(&[], move || {
                let v = f(i);
                // SAFETY: each index is one task, claimed by exactly one
                // worker; the coordinator reads after the run joins.
                unsafe { slots.set(i, Some(v)) };
            });
        }
        graph.run(self);
        slots
            .into_inner()
            .into_iter()
            .map(|v| v.expect("every graph task settled exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex as StdMutex;

    #[test]
    fn empty_graph_is_a_noop() {
        let pool = ThreadPool::new(3);
        let stats = TaskGraph::new().run(&pool);
        assert_eq!(stats.executed, 0);
        assert_eq!(stats.skipped, 0);
        assert_eq!(stats.tasks_per_worker, vec![0; 3]);
        let stats = TaskGraph::new().run_serial();
        assert_eq!(stats.executed, 0);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let pool = ThreadPool::new(4);
        let counts: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        let mut g = TaskGraph::new();
        let mut prev: Option<TaskId> = None;
        for (i, c) in counts.iter().enumerate() {
            // Mix independent tasks and short chains.
            let deps: Vec<TaskId> = match (i % 3, prev) {
                (0, _) | (_, None) => vec![],
                (_, Some(p)) => vec![p],
            };
            prev = Some(g.add(&deps, move || {
                c.fetch_add(1, Ordering::Relaxed);
            }));
        }
        let stats = g.run(&pool);
        assert_eq!(stats.executed, 100);
        assert_eq!(stats.skipped, 0);
        assert_eq!(stats.tasks_per_worker.iter().sum::<usize>(), 100);
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn dependencies_order_execution() {
        // A diamond plus a tail: a → {b, c} → d → e, checked via a
        // value only the correct order produces.
        let pool = ThreadPool::new(4);
        for _ in 0..50 {
            let v = AtomicU64::new(1);
            let mut g = TaskGraph::new();
            let a = g.add(&[], || {
                v.fetch_add(1, Ordering::SeqCst); // 1 → 2
            });
            let b = g.add(&[a], || {
                v.fetch_mul_approx(3); // 2 → 6
            });
            let c = g.add(&[a], || {
                v.fetch_mul_approx(5); // 6 → 30 or 2 → 10 → 30
            });
            let d = g.add(&[b, c], || {
                v.fetch_add(70, Ordering::SeqCst); // 30 → 100
            });
            g.add(&[d], || {
                assert_eq!(v.load(Ordering::SeqCst), 100);
            });
            let stats = g.run(&pool);
            assert_eq!(stats.executed, 5);
        }
    }

    /// Multiply isn't a native atomic op; a CAS loop stands in (the test
    /// only needs commutativity between b and c).
    trait FetchMul {
        fn fetch_mul_approx(&self, by: u64);
    }
    impl FetchMul for AtomicU64 {
        fn fetch_mul_approx(&self, by: u64) {
            let mut cur = self.load(Ordering::SeqCst);
            loop {
                match self.compare_exchange(cur, cur * by, Ordering::SeqCst, Ordering::SeqCst) {
                    Ok(_) => return,
                    Err(now) => cur = now,
                }
            }
        }
    }

    #[test]
    fn serial_order_is_lowest_id_topological() {
        let order = StdMutex::new(Vec::new());
        let mut g = TaskGraph::new();
        // 0 gates 3; 1 and 2 are free. Eligible sets: {0,1,2} → pop 0,
        // then {1,2,3} → pop 1, then {2,3} → pop 2, then 3.
        let t0 = g.add(&[], || order.lock().unwrap().push(0));
        g.add(&[], || order.lock().unwrap().push(1));
        g.add(&[], || order.lock().unwrap().push(2));
        g.add(&[t0], || order.lock().unwrap().push(3));
        g.run_serial();
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn cycles_are_rejected_by_validate() {
        let mut g = TaskGraph::new();
        let a = g.add(&[], || {});
        let b = g.add(&[a], || {});
        let c = g.add(&[b], || {});
        assert!(g.validate().is_ok());
        g.add_dependency(a, c); // a → b → c → a
        let err = g.validate().unwrap_err();
        assert_eq!(err.tasks, vec![a, b, c]);
        assert!(err.to_string().contains("cycle"));
    }

    #[test]
    #[should_panic(expected = "dependency cycle")]
    fn running_a_cyclic_graph_panics_instead_of_deadlocking() {
        let pool = ThreadPool::new(2);
        let mut g = TaskGraph::new();
        let a = g.add(&[], || {});
        let b = g.add(&[a], || {});
        g.add_dependency(a, b);
        let _ = g.run(&pool);
    }

    #[test]
    fn self_dependency_is_rejected_eagerly() {
        let mut g = TaskGraph::new();
        let a = g.add(&[], || {});
        let r = catch_unwind(AssertUnwindSafe(|| g.add_dependency(a, a)));
        assert!(r.is_err());
    }

    #[test]
    #[should_panic(expected = "does not name an earlier task")]
    fn forward_dependencies_in_add_are_rejected() {
        let mut g = TaskGraph::new();
        g.add(&[TaskId(5)], || {});
    }

    #[test]
    fn panic_poisons_dependents_transitively_and_propagates() {
        let pool = ThreadPool::new(3);
        let ran = AtomicUsize::new(0);
        let mut g = TaskGraph::new();
        let boom = g.add(&[], || panic!("boom in task"));
        let child = g.add(&[boom], || {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        g.add(&[child], || {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        // Independent of the panic: must still run.
        g.add(&[], || {
            ran.fetch_add(100, Ordering::Relaxed);
        });
        let result = catch_unwind(AssertUnwindSafe(|| g.run(&pool)));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "boom in task");
        // The dependents were skipped, the independent task ran.
        assert_eq!(ran.load(Ordering::Relaxed), 100);
        // The pool survives for later work.
        assert_eq!(
            pool.parallel_map(4, crate::Schedule::StaticBlock, |i| i)
                .len(),
            4
        );
    }

    #[test]
    fn serial_run_has_identical_poison_semantics() {
        let ran = AtomicUsize::new(0);
        let mut g = TaskGraph::new();
        let boom = g.add(&[], || panic!("boom serial"));
        g.add(&[boom], || {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        g.add(&[], || {
            ran.fetch_add(100, Ordering::Relaxed);
        });
        let result = catch_unwind(AssertUnwindSafe(|| g.run_serial()));
        assert!(result.is_err());
        assert_eq!(ran.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn graph_map_matches_index_order_for_any_team() {
        for threads in [1, 2, 7] {
            let pool = ThreadPool::new(threads);
            let out = pool.graph_map(37, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
            let empty: Vec<usize> = pool.graph_map(0, |i| i);
            assert!(empty.is_empty());
        }
    }

    #[test]
    fn graph_map_propagates_panics() {
        let pool = ThreadPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.graph_map(8, |i| {
                assert!(i != 5, "boom");
                i
            })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn idle_time_is_measured_when_workers_starve() {
        // One long chain on a wide team: all but one worker must park.
        let pool = ThreadPool::new(4);
        let mut g = TaskGraph::new();
        let mut prev = g.add(&[], || std::thread::sleep(Duration::from_millis(2)));
        for _ in 0..4 {
            prev = g.add(&[prev], || std::thread::sleep(Duration::from_millis(2)));
        }
        let stats = g.run(&pool);
        assert_eq!(stats.executed, 5);
        assert_eq!(stats.idle_per_worker.len(), 4);
        assert!(stats.total_idle() > Duration::ZERO);
        assert!(stats.elapsed >= Duration::from_millis(10));
    }

    #[test]
    fn one_task_graph_runs_on_the_caller_without_a_region() {
        let pool = ThreadPool::new(3);
        let regions = pool.regions_run();
        let ran_on = StdMutex::new(None);
        let mut g = TaskGraph::new();
        g.add(&[], || {
            *ran_on.lock().unwrap() = Some(std::thread::current().id());
        });
        let stats = g.run(&pool);
        assert_eq!(
            ran_on.into_inner().unwrap(),
            Some(std::thread::current().id())
        );
        assert_eq!(pool.regions_run(), regions);
        assert_eq!(stats.executed, 1);
        assert_eq!(stats.tasks_per_worker, vec![1, 0, 0]);
        assert_eq!(stats.idle_per_worker, vec![Duration::ZERO; 3]);
    }

    #[test]
    fn one_task_graph_still_publishes_graph_telemetry() {
        if perfport_telemetry::build_mode() != "on" {
            return;
        }
        let pool = ThreadPool::new(3);
        let before = perfport_telemetry::snapshot();
        let mut g = TaskGraph::new();
        g.add(&[], || {});
        g.run(&pool);
        // Other tests share the process-wide registry, so only a lower
        // bound on the delta is deterministic.
        let delta = perfport_telemetry::snapshot().delta_since(&before);
        assert!(delta.counters.get("graph/tasks_executed").copied() >= Some(1));
        assert!(delta.histograms.get("graph/run_ns").map(|h| h.count) >= Some(1));
    }

    #[test]
    fn one_task_panic_reraises_its_payload_and_the_pool_survives() {
        let pool = ThreadPool::new(3);
        let mut g = TaskGraph::new();
        g.add(&[], || panic!("boom inline"));
        let payload =
            catch_unwind(AssertUnwindSafe(|| g.run(&pool))).expect_err("panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("boom inline"));
        assert_eq!(pool.graph_map(5, |i| i + 1), vec![1, 2, 3, 4, 5]);
        assert_eq!(
            pool.parallel_map(4, crate::Schedule::StaticBlock, |i| i)
                .len(),
            4
        );
    }

    #[test]
    fn one_task_graph_map_matches_for_any_team() {
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            assert_eq!(pool.graph_map(1, |i| (i + 7) * 3), vec![21]);
        }
    }

    #[test]
    fn cycles_from_add_dependency_are_rejected_on_every_path() {
        let cyclic = || {
            let mut g = TaskGraph::new();
            let a = g.add(&[], || {});
            let b = g.add(&[a], || {});
            g.add_dependency(a, b);
            g
        };
        let serial = catch_unwind(AssertUnwindSafe(|| cyclic().run_serial()));
        let payload = serial.expect_err("run_serial must reject a cycle");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("dependency cycle"), "{msg}");
        // A one-task graph can never hold a cycle: the only edge it could
        // take is a self-edge, which add_dependency refuses, so the
        // inline path of `run` sees acyclic graphs alone.
        let mut single = TaskGraph::new();
        let only = single.add(&[], || {});
        assert!(catch_unwind(AssertUnwindSafe(|| single.add_dependency(only, only))).is_err());
        assert_eq!(single.run(&ThreadPool::new(2)).executed, 1);
    }

    #[test]
    fn borrowed_environment_is_sound() {
        let pool = ThreadPool::new(3);
        let input: Vec<u64> = (0..100).collect();
        let sum = AtomicU64::new(0);
        let mut g = TaskGraph::new();
        for chunk in [0..50usize, 50..100] {
            let input = &input;
            let sum = &sum;
            g.add(&[], move || {
                let local: u64 = input[chunk].iter().sum();
                sum.fetch_add(local, Ordering::Relaxed);
            });
        }
        g.run(&pool);
        assert_eq!(sum.into_inner(), 99 * 100 / 2);
    }
}
