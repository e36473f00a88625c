//! `study-dist`: the distributed study service. Each operation serves
//! the full 255-point study grid, one point per lease: the coordinator
//! runs on the client thread and two worker threads connect to it over
//! 127.0.0.1 TCP. Verification is memoised by the cold set-up grid, so
//! the timed grids are lease loop, frame codec and TCP.

use crate::harness::{telemetry_layers, Layers, Meter, Step, Workload};
use perfport_core::{figure_specs, noise, render_study_csv, run_study_sharded, Shard, StudyConfig};
use perfport_serve::comm::tcp_v1::TcpCommunicator;
use perfport_serve::coordinator::{self, CoordinatorConfig, JoinedArtifact};
use perfport_serve::worker::{self, WorkerConfig, WorkerSummary};
use perfport_serve::{strip_trailer, CommError, Communicator, Frame, ServeError};
use perfport_telemetry::Snapshot;
use rand::Rng;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Worker threads, one TCP connection each.
const WORKERS: usize = 2;

/// How long any one step of the handshake may take before the grid
/// counts as failed (a healthy grid takes tens of milliseconds).
const PATIENCE: Duration = Duration::from_secs(20);

/// Generates the panel order from `seed` alone. The order sets the
/// grid's canonical order, so every seed serves the same 255 points
/// in a different sequence.
pub fn panel_order(seed: u64) -> Vec<String> {
    let mut ids: Vec<String> = figure_specs().iter().map(|s| s.id.to_string()).collect();
    let mut s = noise::stream(seed, "study-dist/panels");
    for i in (1..ids.len()).rev() {
        ids.swap(i, s.gen_range(0..i + 1));
    }
    ids
}

/// Transport counters of one side of the connections, summed over
/// them.
#[derive(Default)]
struct WireStats {
    recv_wait_ns: AtomicU64,
    send_ns: AtomicU64,
    frames: AtomicU64,
    bytes: AtomicU64,
    /// Worker side only: time from receiving a frame to sending the
    /// next one, which is the grid point's computation.
    compute_ns: AtomicU64,
    /// Frame sizes cost an extra encode, so they are counted only for
    /// traced operations.
    count_bytes: AtomicBool,
}

impl WireStats {
    fn reset(&self, count_bytes: bool) {
        for c in [
            &self.recv_wait_ns,
            &self.send_ns,
            &self.frames,
            &self.bytes,
            &self.compute_ns,
        ] {
            c.store(0, Relaxed);
        }
        self.count_bytes.store(count_bytes, Relaxed);
    }

    fn frame(&self, frame: &Frame) {
        self.frames.fetch_add(1, Relaxed);
        if self.count_bytes.load(Relaxed) {
            self.bytes.fetch_add(frame.encode().len() as u64, Relaxed);
        }
    }
}

fn ns(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// A `tcp_v1` connection seen from the benchmark: it times sends and
/// receive waits and counts frames on their way through.
struct Wire {
    inner: TcpCommunicator,
    stats: Arc<WireStats>,
    worker_side: bool,
    last_frame_at: Option<Instant>,
}

impl Wire {
    fn new(inner: TcpCommunicator, stats: &Arc<WireStats>, worker_side: bool) -> Wire {
        Wire {
            inner,
            stats: Arc::clone(stats),
            worker_side,
            last_frame_at: None,
        }
    }
}

impl Communicator for Wire {
    fn send(&mut self, frame: &Frame) -> Result<(), CommError> {
        let t0 = Instant::now();
        if let Some(t) = self.last_frame_at.take() {
            self.stats.compute_ns.fetch_add(ns(t0 - t), Relaxed);
        }
        self.stats.frame(frame);
        let sent = self.inner.send(frame);
        self.stats.send_ns.fetch_add(ns(t0.elapsed()), Relaxed);
        sent
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Frame>, CommError> {
        let t0 = Instant::now();
        let got = self.inner.recv_timeout(timeout);
        let t1 = Instant::now();
        self.stats.recv_wait_ns.fetch_add(ns(t1 - t0), Relaxed);
        if let Ok(Some(frame)) = &got {
            self.stats.frame(frame);
            if self.worker_side {
                self.last_frame_at = Some(t1);
            }
        }
        got
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }
}

/// One worker thread: each `go` runs one worker session.
struct WorkerThread {
    go: mpsc::Sender<()>,
    done: mpsc::Receiver<Result<WorkerSummary, ServeError>>,
    handle: JoinHandle<()>,
}

fn spawn_worker(i: usize, addr: SocketAddr, stats: &Arc<WireStats>) -> WorkerThread {
    let (go, go_rx) = mpsc::channel::<()>();
    let (done_tx, done) = mpsc::channel();
    let stats = Arc::clone(stats);
    let handle = std::thread::spawn(move || {
        let cfg = WorkerConfig::new(format!("w{i}"));
        while go_rx.recv().is_ok() {
            let session = TcpCommunicator::connect(addr, PATIENCE)
                .map_err(ServeError::from)
                .and_then(|tcp| worker::run(&mut Wire::new(tcp, &stats, true), &cfg));
            if done_tx.send(session).is_err() {
                break;
            }
        }
    });
    WorkerThread { go, done, handle }
}

/// Accepts one connection on the non-blocking `listener`, giving up at
/// `deadline`.
fn accept_by(listener: &TcpListener, deadline: Instant) -> std::io::Result<TcpStream> {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                return Ok(stream);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock && Instant::now() < deadline => {
                std::thread::sleep(Duration::from_micros(50));
            }
            Err(e) => return Err(e),
        }
    }
}

/// The `study-dist` workload.
pub struct StudyDist {
    listener: TcpListener,
    cfg: CoordinatorConfig,
    expected: String,
    coordinator_stats: Arc<WireStats>,
    worker_stats: Arc<WireStats>,
    workers: Vec<WorkerThread>,
}

impl StudyDist {
    /// Renders the expected artifact single-shot (the cold run that
    /// memoises verification), starts the listener and the worker
    /// threads, and serves one warm-up grid.
    pub fn setup(seed: u64) -> Result<StudyDist, String> {
        let ids = panel_order(seed);
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        let expected = render_study_csv(
            &run_study_sharded(&refs, &StudyConfig::default(), Shard::FULL, 1),
            true,
        );
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("listener: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("listener: {e}"))?;
        let worker_stats = Arc::new(WireStats::default());
        let w = StudyDist {
            workers: (0..WORKERS)
                .map(|i| spawn_worker(i, addr, &worker_stats))
                .collect(),
            listener,
            cfg: CoordinatorConfig {
                ids,
                lease_points: 1,
                deadline: Some(PATIENCE),
                ..CoordinatorConfig::default()
            },
            expected,
            coordinator_stats: Arc::new(WireStats::default()),
            worker_stats,
        };
        let (joined, _) = w.grid(&Meter::default());
        w.check(joined).map_err(|e| format!("warm-up grid: {e}"))?;
        Ok(w)
    }

    /// Serves one grid; the clock runs from the workers' start signal
    /// until the coordinator returns the joined artifact.
    fn grid(&self, meter: &Meter) -> (Result<JoinedArtifact, String>, Duration) {
        let (joined, wall) = meter.time("study_grid", || {
            for w in &self.workers {
                w.go.send(())
                    .map_err(|_| "worker thread gone".to_string())?;
            }
            let (tx, rx) = mpsc::channel::<Box<dyn Communicator>>();
            let deadline = Instant::now() + PATIENCE;
            for _ in 0..WORKERS {
                let stream =
                    accept_by(&self.listener, deadline).map_err(|e| format!("accept: {e}"))?;
                let wire = Wire::new(TcpCommunicator::new(stream), &self.coordinator_stats, false);
                tx.send(Box::new(wire))
                    .map_err(|_| "coordinator gone".to_string())?;
            }
            drop(tx);
            coordinator::run(rx, &self.cfg).map_err(|e| e.to_string())
        });
        // Every session must end before the next grid starts.
        let sessions: Result<Vec<_>, String> = self
            .workers
            .iter()
            .map(|w| match w.done.recv_timeout(PATIENCE) {
                Ok(session) => session.map_err(|e| e.to_string()),
                Err(_) => Err("worker session did not end".to_string()),
            })
            .collect();
        (joined.and_then(|j| sessions.map(|_| j)), wall)
    }

    /// The joined CSV, and the rendered artifact with its trailer
    /// stripped, must both equal the single-shot artifact.
    fn check(&self, joined: Result<JoinedArtifact, String>) -> Result<(), String> {
        let joined = joined?;
        if joined.csv != self.expected || strip_trailer(&joined.render()) != self.expected {
            return Err("joined artifact differs from the single-shot artifact".to_string());
        }
        Ok(())
    }
}

impl Workload for StudyDist {
    fn step(&mut self, _i: u64, meter: &Meter) -> Step {
        let (joined, wall) = self.grid(meter);
        Step {
            wall,
            failed: self.check(joined).is_err(),
        }
    }

    fn begin_block(&mut self) {
        self.coordinator_stats.reset(true);
        self.worker_stats.reset(true);
    }

    fn end_block(&mut self, delta: &Snapshot, _wall: Duration) -> (Layers, u64) {
        let (c, w) = (&self.coordinator_stats, &self.worker_stats);
        let get = |a: &AtomicU64| a.load(Relaxed) as f64;
        let mut layers = telemetry_layers(delta);
        layers.add("serve.recv_wait_pct", get(&c.recv_wait_ns));
        layers.add("serve.send_pct", get(&c.send_ns));
        layers.add("serve.frames", get(&c.frames));
        layers.add("serve.bytes", get(&c.bytes));
        layers.add("core.point_pct", get(&w.compute_ns));
        c.reset(false);
        w.reset(false);
        (layers, 0)
    }
}

impl Drop for StudyDist {
    fn drop(&mut self) {
        for w in self.workers.drain(..) {
            drop(w.go);
            let _ = w.handle.join();
        }
    }
}
