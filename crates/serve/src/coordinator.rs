//! The lease-granting coordinator: owns the study grid, hands
//! contiguous index ranges to workers, re-leases ranges whose workers
//! go quiet, and reassembles the joined artifact in canonical order.
//!
//! The state machine (normative version in `DESIGN.md` § "perfport-serve
//! wire protocol"):
//!
//! ```text
//!             grant                    Result (range matches)
//! Pending ───────────────▶ Leased ───────────────────────────▶ Done
//!    ▲                       │
//!    │   deadline missed /   │
//!    │   worker closed/Bye   │  (attempt += 1; attempt > retries
//!    └───────────────────────┘   aborts the run: LeaseExhausted)
//! ```
//!
//! Credit window: a worker may hold up to two leases, so its next range
//! is already queued when it sends a `Result`. The second credit is
//! earned by the worker's first `Result` of the session (slow start), so
//! a worker that never finishes anything holds one range, not two. Any
//! frame from a worker pushes the deadline of every lease it holds out
//! by one TTL.
//!
//! A worker whose lease expires goes on *probation*: while a live,
//! introduced worker not on probation exists, it gets no new grant until
//! its next frame proves it alive, so an expired range migrates to a
//! different worker instead of bouncing back to the silent one until
//! retries run out. With no such worker it is probed with a fresh grant
//! instead: a worker whose `Result` was lost waits idle for a lease, and
//! passing it over would leave the run to its deadline.
//!
//! Concurrency: every rule above lives in a sans-IO core (the
//! crate-private `lease` module) that owns the lease table and each
//! connection's state, takes the caller's `now` with every event, and
//! returns frames as values. [`run`] adapts it to threads, with the
//! core under one lock. Each connection is owned by one *driver* thread
//! that follows the protocol's turn rule. The worker holds the turn
//! from adoption until its `Hello`, and whenever it holds a lease; the
//! driver then reads its frames, applies each to the core and writes
//! the reply — the coordinator's `Hello`, grants up to the window, or a
//! `Bye` — to its own connection, so no frame passes through another
//! thread. A worker that holds no lease leaves the turn with the
//! coordinator: its driver blocks on its mailbox. The run thread adopts
//! connections and ticks the core at the next Hello window, lease
//! deadline, backoff release or run deadline. A tick posts grants to
//! the mailboxes of idle workers and of workers whose leases expired,
//! closes connections silent since adoption, and the run's end posts
//! every live worker its `Bye`. Drivers wake the run thread only when a
//! frame ends or fails the run or a connection is dropped, which starts
//! its ranges' backoff — a silent worker never delays a live one. Per
//! event the core touches only what changed: the ready set, the
//! sender's held leases and a done count.
//!
//! Determinism: the joined artifact is assembled from per-range CSV
//! fragments keyed by range start and emitted in range order, so worker
//! count, lease size, interleaving, and kill/retry schedules never
//! reach the output. Stripping the `#`-prefixed trailer reproduces the
//! `--shard 0/1` single-shot artifact byte for byte — the PR 5 contract
//! lifted over the wire.
//!
//! # Examples
//!
//! Lease ranges split the grid and rejoin to cover it exactly — the
//! split/rejoin satellite doc-example:
//!
//! ```
//! use perfport_serve::coordinator::lease_ranges;
//!
//! let ranges = lease_ranges(10, 4);
//! assert_eq!(ranges, vec![0..4, 4..8, 8..10]);
//! // Rejoining in range order tiles the grid with no gap or overlap,
//! // which is what makes the joined artifact canonical.
//! assert_eq!(ranges.first().unwrap().start, 0);
//! assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
//! assert_eq!(ranges.last().unwrap().end, 10);
//! ```

use crate::comm::{CommError, Communicator};
use crate::frame::Frame;
use crate::lease::{Action, Core, Turn};
use crate::ServeError;
use perfport_core::{figure_specs, StudyConfig};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything the coordinator needs to run one distributed study.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Figure panel ids whose grid points are served (canonical order
    /// follows this list). Must name registered panels.
    pub ids: Vec<String>,
    /// Run the reduced quick sweep instead of the paper sweep.
    pub quick: bool,
    /// Grid points per lease (the last lease of the grid may be
    /// shorter). The byte-identity contract holds for any value ≥ 1.
    pub lease_points: usize,
    /// Lease time-to-live: a leased range whose worker has sent no
    /// frame within this window is re-leased, and a connection that
    /// stays silent this long after adoption is dropped. Workers learn
    /// it from the coordinator's `Hello` and heartbeat after any point
    /// that ends `ttl / 2` or more after their last frame, so the
    /// slowest single grid point must take less than `ttl / 2`.
    pub ttl: Duration,
    /// Delay before an expired range becomes grantable again, scaled
    /// linearly by its attempt count (bounded backoff).
    pub backoff: Duration,
    /// Re-lease attempts allowed per range before the run aborts.
    pub max_retries: usize,
    /// Overall wall-clock cap for the run (`None`: unbounded). CI sets
    /// this so a wedged run fails instead of hanging.
    pub deadline: Option<Duration>,
    /// Emit progress lines on stderr.
    pub verbose: bool,
}

impl Default for CoordinatorConfig {
    fn default() -> CoordinatorConfig {
        CoordinatorConfig {
            ids: figure_specs().iter().map(|s| s.id.to_string()).collect(),
            quick: false,
            lease_points: 4,
            ttl: Duration::from_secs(30),
            backoff: Duration::from_millis(250),
            max_retries: 3,
            deadline: None,
            verbose: false,
        }
    }
}

impl CoordinatorConfig {
    /// The study spec string the coordinator's `Hello` carries, e.g.
    /// `"ids=fig5c,fig7a;quick=1;ttl_ms=30000"`. Workers parse it with
    /// [`parse_spec`], enumerate the identical grid and pace their
    /// heartbeats by the TTL.
    pub fn spec_string(&self) -> String {
        format!(
            "ids={};quick={};ttl_ms={}",
            self.ids.join(","),
            u8::from(self.quick),
            self.ttl.as_millis()
        )
    }

    /// The study configuration the spec selects.
    pub fn study_config(&self) -> StudyConfig {
        if self.quick {
            StudyConfig::quick()
        } else {
            StudyConfig::default()
        }
    }
}

/// A coordinator's study spec as a worker reads it from `Hello`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StudySpec {
    /// Figure panel ids, in canonical grid order.
    pub ids: Vec<String>,
    /// Whether the reduced quick sweep is served.
    pub quick: bool,
    /// The coordinator's lease TTL (whole milliseconds, rounded down,
    /// so a worker heartbeats early rather than late).
    pub ttl: Duration,
}

/// Parses a coordinator `Hello` study spec (see
/// [`CoordinatorConfig::spec_string`]).
///
/// # Errors
///
/// A message naming the malformed part: missing keys, unknown keys, a
/// non-boolean quick value or a non-integer TTL. Panel ids are
/// validated separately by [`validate_ids`].
pub fn parse_spec(spec: &str) -> Result<StudySpec, String> {
    let mut ids = None;
    let mut quick = None;
    let mut ttl = None;
    for part in spec.split(';') {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("spec part '{part}' is not key=value"))?;
        match key {
            "ids" => {
                ids = Some(
                    value
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(str::to_string)
                        .collect::<Vec<_>>(),
                )
            }
            "quick" => {
                quick = Some(match value {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("quick must be 0 or 1, got '{other}'")),
                })
            }
            "ttl_ms" => {
                let ms = value
                    .parse::<u64>()
                    .map_err(|_| format!("ttl_ms must be an integer, got '{value}'"))?;
                ttl = Some(Duration::from_millis(ms));
            }
            other => return Err(format!("unknown spec key '{other}'")),
        }
    }
    let ids = ids.ok_or_else(|| "spec is missing ids=".to_string())?;
    let quick = quick.ok_or_else(|| "spec is missing quick=".to_string())?;
    let ttl = ttl.ok_or_else(|| "spec is missing ttl_ms=".to_string())?;
    if ids.is_empty() {
        return Err("spec names no figure panels".to_string());
    }
    Ok(StudySpec { ids, quick, ttl })
}

/// Checks every id against the figure registry, returning the
/// `&'static str` panel ids the grid enumerator needs.
///
/// # Errors
///
/// Names the first unregistered panel id.
pub fn validate_ids(ids: &[String]) -> Result<Vec<&'static str>, String> {
    let specs = figure_specs();
    ids.iter()
        .map(|id| {
            specs
                .iter()
                .find(|s| s.id == id.as_str())
                .map(|s| s.id)
                .ok_or_else(|| format!("unknown figure panel '{id}'"))
        })
        .collect()
}

/// Splits `total` grid points into contiguous lease ranges of
/// `lease_points` (the final range takes the remainder). Ranges are
/// returned in canonical order; rejoining them in that order tiles
/// `0..total` exactly.
pub fn lease_ranges(total: usize, lease_points: usize) -> Vec<Range<usize>> {
    let step = lease_points.max(1);
    let mut out = Vec::with_capacity(total.div_ceil(step));
    let mut start = 0;
    while start < total {
        let end = (start + step).min(total);
        out.push(start..end);
        start = end;
    }
    out
}

/// Provenance one worker contributed to a joined artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerProvenance {
    /// The worker's one-line `perfport-manifest/1` JSON (latest wins if
    /// a worker reconnects).
    pub manifest: String,
    /// Leases this worker completed (0 for a worker that connected but
    /// never finished a range — it still appears, because provenance of
    /// every machine that touched the run matters).
    pub leases: usize,
}

/// The coordinator's output: the canonical study CSV plus the
/// provenance of every worker that joined the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinedArtifact {
    /// Header + per-point lines in canonical order — byte-identical to
    /// the `--shard 0/1` single-shot artifact.
    pub csv: String,
    /// Per-worker provenance keyed by worker ident (sorted, so the
    /// rendered trailer is deterministic for a given worker set).
    pub manifests: BTreeMap<String, WorkerProvenance>,
}

/// Schema identifier of the joined artifact's trailer.
pub const JOIN_SCHEMA: &str = "perfport-serve/1";

impl JoinedArtifact {
    /// Renders the full artifact: the CSV body followed by a
    /// `#`-prefixed trailer embedding each worker's manifest. Stripping
    /// every line that starts with `#` (see [`strip_trailer`]) recovers
    /// the CSV body exactly.
    pub fn render(&self) -> String {
        let mut out = self.csv.clone();
        out.push_str(&format!(
            "# {JOIN_SCHEMA} join trailer: strip '#'-prefixed lines to recover the --shard 0/1 artifact\n"
        ));
        for (ident, p) in &self.manifests {
            out.push_str(&format!(
                "# worker-manifest {ident} leases={} {}\n",
                p.leases, p.manifest
            ));
        }
        out
    }
}

/// Strips the joined artifact's `#`-prefixed trailer lines, recovering
/// the canonical CSV body. The CSV grammar reserves `#` (no figure id
/// or field starts with it), so this is exact.
pub fn strip_trailer(rendered: &str) -> String {
    rendered
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| format!("{line}\n"))
        .collect()
}

/// What the run thread waits on.
enum Event {
    /// A worker connection arrived from the connection source.
    Connect(Box<dyn Communicator>),
    /// The connection source hung up: no further worker can arrive.
    SourceClosed,
    /// A driver's event ended or failed the run, or dropped a
    /// connection, which releases its ranges into backoff.
    Wake,
}

/// The lease core, plus what drivers leave for the run thread, under
/// one lock.
struct Shared {
    core: Core,
    /// The first error a driver's event raised: the run fails with it.
    failed: Option<ServeError>,
    /// Set once the run thread has ended the run; drivers then stop
    /// feeding the core and wait for the run's last word.
    over: bool,
}

fn lock(shared: &Mutex<Shared>) -> MutexGuard<'_, Shared> {
    shared
        .lock()
        .expect("a thread panicked while applying an event to the lease core")
}

/// One connection's driver thread: owns the connection and follows the
/// turn rule until it ends (see the module docs).
struct Driver {
    conn: usize,
    comm: Box<dyn Communicator>,
    /// Batches of frames the run thread addresses to this connection.
    /// The run thread drops the sender to close the connection.
    mailbox: Receiver<Vec<Frame>>,
    shared: Arc<Mutex<Shared>>,
    events: Sender<Event>,
    ttl: Duration,
}

impl Driver {
    fn run(mut self) {
        // The worker holds the turn from adoption until its Hello.
        let mut turn = Turn::Worker;
        loop {
            let next = match turn {
                Turn::Worker => self.read(),
                // A batch posted while the coordinator holds the turn is
                // grants, which hand it back, or the run's final Bye.
                Turn::Coordinator => match self.mailbox.recv() {
                    Ok(batch) => {
                        self.send(&batch)
                            .map(|bye| if bye { Turn::Closed } else { Turn::Worker })
                    }
                    Err(_) => Ok(Turn::Closed),
                },
                Turn::Closed => return,
            };
            turn = match next {
                Ok(turn) => turn,
                Err(cause) => return self.lost(&cause),
            };
        }
    }

    /// Reads the worker's next frame, applies it to the core and sends
    /// the reply. On one TTL of silence only the mailbox matters: the
    /// worker's leases expire on the run thread's tick.
    fn read(&mut self) -> Result<Turn, CommError> {
        let Some(frame) = self.comm.recv_timeout(self.ttl)? else {
            return self.drain();
        };
        let (now, conn) = (Instant::now(), self.conn);
        let Some(reply) = self.apply(
            |core| core.on_frame(now, conn, frame),
            |reply, core| reply.turn == Turn::Closed || core.finished(),
        ) else {
            return self.last_word();
        };
        self.send(&reply.frames)?;
        match reply.turn {
            Turn::Worker => self.drain(),
            turn => Ok(turn),
        }
    }

    /// Sends every batch already posted while the worker holds the
    /// turn: a grant to a worker whose leases expired (its `Result` may
    /// have been lost, leaving it idle), or the run's last word.
    fn drain(&mut self) -> Result<Turn, CommError> {
        loop {
            match self.mailbox.try_recv() {
                Ok(batch) => {
                    if self.send(&batch)? {
                        return Ok(Turn::Closed);
                    }
                }
                Err(TryRecvError::Empty) => return Ok(Turn::Worker),
                Err(TryRecvError::Disconnected) => return Ok(Turn::Closed),
            }
        }
    }

    /// Waits out a run that has ended or failed: sends its `Bye`, if
    /// it posts one, and ends.
    fn last_word(&mut self) -> Result<Turn, CommError> {
        while let Ok(batch) = self.mailbox.recv() {
            if self.send(&batch)? {
                break;
            }
        }
        Ok(Turn::Closed)
    }

    /// Sends `frames` in order; `true` once a `Bye` has gone out.
    fn send(&mut self, frames: &[Frame]) -> Result<bool, CommError> {
        for frame in frames {
            self.comm.send(frame)?;
            if matches!(frame, Frame::Bye { .. }) {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Tells the core the connection failed with `cause`, and sends
    /// the peer the `Bye` the core answers with, if any (best effort).
    fn lost(&mut self, cause: &CommError) {
        let (now, conn) = (Instant::now(), self.conn);
        if let Some(Some(bye)) = self.apply(|core| core.on_lost(now, conn, cause), |_, _| true) {
            let _ = self.comm.send(&bye);
        }
    }

    /// Applies one event to the core under the lock, unless the run is
    /// over. Wakes the run thread when the event fails the run or
    /// `wake` holds after it. `None` when the run is over or failed.
    fn apply<T>(
        &self,
        event: impl FnOnce(&mut Core) -> Result<T, ServeError>,
        wake: impl FnOnce(&T, &Core) -> bool,
    ) -> Option<T> {
        let mut shared = lock(&self.shared);
        if shared.over {
            return None;
        }
        let (out, woke) = match event(&mut shared.core) {
            Ok(out) => {
                let woke = wake(&out, &shared.core);
                (Some(out), woke)
            }
            Err(e) => {
                shared.failed.get_or_insert(e);
                (None, true)
            }
        };
        drop(shared);
        if woke {
            let _ = self.events.send(Event::Wake);
        }
        out
    }
}

/// The run thread's side of [`run`]: the drivers it started and each
/// connection's mailbox, indexed like the core's connections.
struct Adapter {
    shared: Arc<Mutex<Shared>>,
    events: Sender<Event>,
    /// `None` once the connection is closed or its driver never started.
    mailboxes: Vec<Option<Sender<Vec<Frame>>>>,
    drivers: Vec<JoinHandle<()>>,
    ttl: Duration,
}

impl Adapter {
    /// Adopts `comm` into `core` and starts its driver, which applies
    /// nothing until the caller releases the lock on `core`.
    fn adopt(&mut self, core: &mut Core, comm: Box<dyn Communicator>) {
        let now = Instant::now();
        let conn = core.on_connect(now, &comm.peer());
        let (mailbox, posted) = mpsc::channel();
        let driver = Driver {
            conn,
            comm,
            mailbox: posted,
            shared: Arc::clone(&self.shared),
            events: self.events.clone(),
            ttl: self.ttl,
        };
        let spawned = std::thread::Builder::new()
            .name(format!("serve-conn-{conn}"))
            .spawn(move || driver.run());
        match spawned {
            Ok(handle) => {
                self.mailboxes.push(Some(mailbox));
                self.drivers.push(handle);
            }
            Err(e) => {
                self.mailboxes.push(None);
                // A connection that never held a lease releases nothing.
                let cause = CommError::Io(format!("cannot start a driver thread: {e}"));
                let _ = core.on_lost(now, conn, &cause);
            }
        }
    }

    /// The run thread's loop: ticks the core, carries out its actions
    /// and sleeps until the core's next wake, a new connection or a
    /// driver's wake-up, until the run is finished or failed. It wakes
    /// at least once per TTL, so a lease a driver grants while it
    /// sleeps never outlives its deadline unseen.
    fn serve(&mut self, events: &Receiver<Event>) -> Result<(), ServeError> {
        let shared = Arc::clone(&self.shared);
        loop {
            let now = Instant::now();
            let mut guard = lock(&shared);
            if let Some(e) = guard.failed.take() {
                return Err(e);
            }
            for action in guard.core.on_tick(now)? {
                match action {
                    Action::Send { conn, frames } => {
                        let posted = self.mailboxes[conn]
                            .as_ref()
                            .is_some_and(|mailbox| mailbox.send(frames).is_ok());
                        if !posted {
                            guard.core.on_lost(now, conn, &CommError::Closed)?;
                        }
                    }
                    Action::Close { conn } => self.mailboxes[conn] = None,
                }
            }
            if guard.core.finished() {
                return Ok(());
            }
            let wait = guard
                .core
                .next_wake()
                .map_or(self.ttl, |at| at.saturating_duration_since(now))
                .min(self.ttl);
            drop(guard);
            match events.recv_timeout(wait) {
                Ok(Event::Connect(comm)) => self.adopt(&mut lock(&shared).core, comm),
                Ok(Event::SourceClosed) => lock(&shared).core.on_source_closed(),
                Ok(Event::Wake) | Err(_) => {}
            }
        }
    }
}

/// Runs the coordinator over a stream of incoming worker connections
/// (TCP accept loop or loopback harness) until every lease range is
/// `Done` and every live worker has said `Hello`, then assembles the
/// joined artifact.
///
/// This is the lease core's thread adapter (see the module docs): each
/// adopted connection moves into its own driver thread, which applies
/// its frames to the core and sends the replies itself, while this
/// thread ticks the core's deadlines. A connection that says nothing
/// for `ttl` after adoption is dropped; a worker whose `Hello` arrives
/// after the last range is done is answered with `Hello` and then
/// `Bye`, so it leaves cleanly with no lease. Connections already
/// queued when `run` starts are adopted before any frame is applied, so
/// a fast peer cannot finish the grid without them. On success every
/// live worker gets a `Bye`; on failure every connection is closed.
/// Either way every driver is joined before `run` returns, which a
/// worker silent mid-lease delays by at most one `ttl`. Connections
/// arriving after the run are closed unread.
///
/// # Errors
///
/// [`ServeError::LeaseExhausted`] when a range dies more than
/// `max_retries` times, [`ServeError::NoWorkers`] when the connection
/// source disconnects with work outstanding and no worker alive,
/// [`ServeError::DeadlineExceeded`] past the configured wall-clock cap,
/// and [`ServeError::BadSpec`] for unregistered panel ids.
pub fn run(
    conn_rx: Receiver<Box<dyn Communicator>>,
    cfg: &CoordinatorConfig,
) -> Result<JoinedArtifact, ServeError> {
    let core = Core::new(cfg, Instant::now())?;
    let (events_tx, events) = mpsc::channel::<Event>();
    let shared = Arc::new(Mutex::new(Shared {
        core,
        failed: None,
        over: false,
    }));
    let mut adapter = Adapter {
        shared: Arc::clone(&shared),
        events: events_tx.clone(),
        mailboxes: Vec::new(),
        drivers: Vec::new(),
        ttl: cfg.ttl,
    };
    // Connections queued before the run are adopted under one lock,
    // ahead of any frame. Left to the forwarder below, a descheduled
    // forwarder could hand one over only after its peers had finished
    // the grid, and the run would close it unread.
    let source_open = {
        let mut guard = lock(&shared);
        loop {
            match conn_rx.try_recv() {
                Ok(comm) => adapter.adopt(&mut guard.core, comm),
                Err(TryRecvError::Empty) => break true,
                Err(TryRecvError::Disconnected) => {
                    guard.core.on_source_closed();
                    break false;
                }
            }
        }
    };
    // Left detached: it blocks on the connection source, which may
    // outlive the run (a TCP accept loop). After the run it exits on the
    // next connection, dropping it, or when the source closes.
    if source_open {
        std::thread::Builder::new()
            .name("serve-accept".to_string())
            .spawn(move || {
                for comm in conn_rx {
                    if events_tx.send(Event::Connect(comm)).is_err() {
                        return;
                    }
                }
                let _ = events_tx.send(Event::SourceClosed);
            })
            .map_err(|e| ServeError::Comm(CommError::Io(format!("spawn: {e}"))))?;
    }

    let outcome = adapter.serve(&events);
    let joined = {
        let mut guard = lock(&shared);
        guard.over = true;
        outcome.map(|()| {
            for mailbox in adapter.mailboxes.iter().flatten() {
                let _ = mailbox.send(vec![Frame::Bye {
                    reason: "complete".to_string(),
                }]);
            }
            guard.core.join()
        })
    };
    adapter.mailboxes.clear();
    for driver in adapter.drivers.drain(..) {
        if let Err(panic) = driver.join() {
            std::panic::resume_unwind(panic);
        }
    }
    joined
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfport_core::STUDY_CSV_HEADER;

    #[test]
    fn lease_ranges_tile_any_grid() {
        for total in [0usize, 1, 2, 7, 68] {
            for lease in [1usize, 2, 3, 5, 100] {
                let ranges = lease_ranges(total, lease);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "total={total} lease={lease}");
                    assert!(r.len() <= lease && !r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, total);
            }
        }
        // A zero lease size is clamped to 1 rather than looping forever.
        assert_eq!(lease_ranges(3, 0).len(), 3);
    }

    #[test]
    fn spec_round_trips() {
        let cfg = CoordinatorConfig {
            ids: vec!["fig5c".to_string(), "fig7a".to_string()],
            quick: true,
            ..CoordinatorConfig::default()
        };
        let spec = cfg.spec_string();
        assert_eq!(spec, "ids=fig5c,fig7a;quick=1;ttl_ms=30000");
        let parsed = parse_spec(&spec).unwrap();
        assert_eq!(parsed.ids, vec!["fig5c", "fig7a"]);
        assert!(parsed.quick);
        assert_eq!(parsed.ttl, cfg.ttl);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "",
            "ids=fig5c",
            "quick=1",
            "ids=fig5c;quick=1",
            "ids=fig5c;quick=maybe;ttl_ms=1",
            "ids=;quick=1;ttl_ms=1",
            "ids=fig5c;quick=1;ttl_ms=soon",
            "ids=fig5c;quick=1;ttl_ms=1;extra=2",
            "nonsense",
        ] {
            assert!(parse_spec(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn unknown_panels_are_rejected() {
        assert!(validate_ids(&["fig5c".to_string()]).is_ok());
        let err = validate_ids(&["fig5c".to_string(), "fig9z".to_string()]).unwrap_err();
        assert!(err.contains("fig9z"));
    }

    #[test]
    fn trailer_strips_back_to_the_csv_body() {
        let mut manifests = BTreeMap::new();
        manifests.insert(
            "w0".to_string(),
            WorkerProvenance {
                manifest: "{\"schema\": \"perfport-manifest/1\"}".to_string(),
                leases: 2,
            },
        );
        let artifact = JoinedArtifact {
            csv: format!("{STUDY_CSV_HEADER}\na,b,c\n"),
            manifests,
        };
        let rendered = artifact.render();
        assert!(rendered.contains("# worker-manifest w0 leases=2"));
        assert_eq!(strip_trailer(&rendered), artifact.csv);
    }
}
