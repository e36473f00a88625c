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
//! A worker whose lease expires goes on *probation*: it is excluded
//! from new grants until its next frame proves it alive, so an expired
//! range migrates to a different worker instead of bouncing back to
//! the silent one until retries run out.
//!
//! Concurrency: each connection is owned by one *driver* thread that
//! follows the protocol's turn rule. The worker holds the turn from
//! adoption until its `Hello`, and whenever it holds a lease; the
//! driver then reads and forwards every frame into one event channel.
//! Each `Hello` or `Result` hands the turn to the coordinator, which
//! answers on the driver's outgoing channel with its grants (or a
//! `Bye`) and then `None` if the worker holds a lease, handing the turn
//! back. A worker that holds no lease leaves the turn with the
//! coordinator, so its driver blocks on the outgoing channel and a grant
//! leaves the moment the coordinator decides it. The coordinator thread
//! alone owns the lease table and sleeps on the event channel until the
//! next frame, lease deadline, backoff release or run deadline — a
//! silent worker never delays a live one. Per event it touches only what
//! changed: the ready set, the sender's held leases and a done count.
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
use crate::frame::{Frame, Role, PROTOCOL_VERSION};
use crate::ServeError;
use perfport_core::{figure_specs, study_grid, StudyConfig, STUDY_CSV_HEADER};
use perfport_telemetry::{Counter, Gauge};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

static WORKERS_CONNECTED: Gauge = Gauge::new("serve/workers_connected");
static LEASES_GRANTED: Counter = Counter::new("serve/leases_granted");
static LEASES_EXPIRED: Counter = Counter::new("serve/leases_expired");
static LEASES_COMPLETED: Counter = Counter::new("serve/leases_completed");
static HEARTBEATS: Counter = Counter::new("serve/heartbeats");
static POINTS_DONE: Counter = Counter::new("serve/points_done");

/// Leases one worker may hold at once: the one it computes and the one
/// queued behind it. A protocol constant, not a tuning knob.
const LEASE_WINDOW: usize = 2;

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

enum ChunkState {
    /// Grantable: listed in [`LeaseTable::ready`], or in
    /// [`LeaseTable::cooling`] until its backoff ends.
    Pending,
    Leased {
        conn: usize,
        lease_id: u64,
        deadline: Instant,
    },
    /// Finished, holding the range's CSV fragment.
    Done(String),
}

struct Chunk {
    range: Range<usize>,
    /// Times the range has been released (expired or its worker lost).
    attempt: usize,
    state: ChunkState,
}

/// The grid's lease ranges plus the indexes that keep each event's work
/// proportional to what it changes: no event scans every range.
struct LeaseTable {
    chunks: Vec<Chunk>,
    /// Points per range; a range's index is its start divided by this.
    step: usize,
    /// Pending ranges ready for a grant. Ordered by index, which is
    /// start order, so grants go lowest start first.
    ready: BTreeSet<usize>,
    /// Pending ranges still backing off, with the instant each becomes
    /// ready. Only released ranges pass through here, so it stays short.
    cooling: Vec<(Instant, usize)>,
    done: usize,
}

impl LeaseTable {
    fn new(total: usize, lease_points: usize) -> LeaseTable {
        let chunks: Vec<Chunk> = lease_ranges(total, lease_points)
            .into_iter()
            .map(|range| Chunk {
                range,
                attempt: 0,
                state: ChunkState::Pending,
            })
            .collect();
        LeaseTable {
            ready: (0..chunks.len()).collect(),
            chunks,
            step: lease_points.max(1),
            cooling: Vec::new(),
            done: 0,
        }
    }

    fn finished(&self) -> bool {
        self.done == self.chunks.len()
    }

    /// Moves every range whose backoff has ended into `ready`.
    fn promote(&mut self, now: Instant) {
        let ready = &mut self.ready;
        self.cooling.retain(|&(at, idx)| {
            let cooled = at <= now;
            if cooled {
                ready.insert(idx);
            }
            !cooled
        });
    }

    /// `true` while range `idx` is leased to `conn` as `lease_id`.
    fn holds(&self, idx: usize, conn: usize, lease_id: u64) -> bool {
        matches!(self.chunks[idx].state,
            ChunkState::Leased { conn: c, lease_id: id, .. } if c == conn && id == lease_id)
    }

    fn deadline(&self, idx: usize) -> Option<Instant> {
        match self.chunks[idx].state {
            ChunkState::Leased { deadline, .. } => Some(deadline),
            _ => None,
        }
    }

    /// The lowest ready range: grants go lowest start first.
    fn next_ready(&self) -> Option<usize> {
        self.ready.first().copied()
    }

    /// Leases ready range `idx` to `conn`.
    fn lease(&mut self, idx: usize, conn: usize, lease_id: u64, deadline: Instant) {
        self.ready.remove(&idx);
        self.chunks[idx].state = ChunkState::Leased {
            conn,
            lease_id,
            deadline,
        };
    }

    fn refresh(&mut self, idx: usize, until: Instant) {
        if let ChunkState::Leased { deadline, .. } = &mut self.chunks[idx].state {
            *deadline = until;
        }
    }

    /// Returns leased range `idx` to `Pending` with its attempt count
    /// bumped and a linear backoff, or aborts the run once retries are
    /// exhausted.
    fn release(&mut self, idx: usize, cfg: &CoordinatorConfig) -> Result<(), ServeError> {
        LEASES_EXPIRED.add(1);
        let chunk = &mut self.chunks[idx];
        chunk.attempt += 1;
        if chunk.attempt > cfg.max_retries {
            return Err(ServeError::LeaseExhausted {
                start: chunk.range.start,
                end: chunk.range.end,
                attempts: chunk.attempt,
            });
        }
        chunk.state = ChunkState::Pending;
        self.cooling
            .push((Instant::now() + cfg.backoff * chunk.attempt as u32, idx));
        Ok(())
    }

    /// Accepts a `Result` frame. Returns the number of fresh points it
    /// contributed (0 for a duplicate of an already-`Done` range — late
    /// results from slow-but-alive workers are idempotent because the
    /// study is deterministic).
    fn accept(&mut self, lease_id: u64, range: Range<usize>, csv: String) -> Result<usize, String> {
        let idx = range.start / self.step;
        let chunk = self
            .chunks
            .get_mut(idx)
            .filter(|c| c.range == range)
            .ok_or_else(|| format!("lease {lease_id} names unknown range {range:?}"))?;
        if matches!(chunk.state, ChunkState::Done(_)) {
            return Ok(0);
        }
        let lines = csv.lines().count();
        if lines != chunk.range.len() {
            return Err(format!(
                "range {range:?} carries {lines} CSV lines, expected {}",
                chunk.range.len()
            ));
        }
        if matches!(chunk.state, ChunkState::Pending) {
            // A late result for a range that expired and awaits a grant.
            self.ready.remove(&idx);
            self.cooling.retain(|&(_, i)| i != idx);
        }
        chunk.state = ChunkState::Done(csv);
        self.done += 1;
        Ok(lines)
    }

    /// The joined CSV body: the header, then every fragment in range
    /// order.
    fn join(&self) -> String {
        let mut csv = String::from(STUDY_CSV_HEADER);
        csv.push('\n');
        for chunk in &self.chunks {
            match &chunk.state {
                ChunkState::Done(fragment) => csv.push_str(fragment),
                _ => unreachable!("the run joins only a finished table"),
            }
        }
        csv
    }
}

/// What a driver thread or the connection forwarder tells the
/// coordinator. Everything the coordinator reacts to arrives on one
/// channel of these.
enum Event {
    /// A worker connection arrived from the connection source.
    Connect(Box<dyn Communicator>),
    /// The connection source hung up: no further worker can arrive.
    SourceClosed,
    /// Connection `conn` delivered `frame`.
    Frame { conn: usize, frame: Frame },
    /// Connection `conn`'s driver gave up on it for the reason `why`
    /// and dropped its communicator.
    Lost { conn: usize, why: String },
}

/// The coordinator's view of one adopted connection.
struct Conn {
    /// Frames for this connection's driver, `None` ending the
    /// coordinator's turn; the sender is dropped with the connection,
    /// which lets the driver exit.
    out: Option<Sender<Option<Frame>>>,
    driver: Option<JoinHandle<()>>,
    ident: Option<String>,
    /// Set when this worker misses a lease deadline: a suspect worker
    /// receives no further grants (the range would just bounce back to
    /// the silent peer until retries ran out) until it proves it is
    /// alive by sending any frame.
    suspect: bool,
    /// Leases sent on this connection whose `Result` has not arrived,
    /// oldest first, as `(lease_id, range index)`. An entry outlives its
    /// lease's expiry, because the worker still computes the range, so
    /// its length is what the credit window bounds.
    held: Vec<(u64, usize)>,
    /// Leases this worker may hold: one until its first `Result`, then
    /// [`LEASE_WINDOW`].
    window: usize,
}

impl Conn {
    fn alive(&self) -> bool {
        self.out.is_some()
    }

    /// Mirrors the driver's turn: `true` while the worker holds it
    /// (before its `Hello`, and while it holds a lease). Only a
    /// connection whose worker does not hold the turn gets a grant
    /// outside a reply.
    fn worker_turn(&self) -> bool {
        self.ident.is_none() || !self.held.is_empty()
    }

    /// Queues `entry` for the driver (`None` ends the coordinator's
    /// turn); `false` when the driver is gone.
    fn queue(&self, entry: Option<Frame>) -> bool {
        self.out.as_ref().is_some_and(|out| out.send(entry).is_ok())
    }

    fn send(&self, frame: Frame) -> bool {
        self.queue(Some(frame))
    }

    /// Drops the connection and releases every range it still holds.
    fn kill(
        &mut self,
        table: &mut LeaseTable,
        me: usize,
        cfg: &CoordinatorConfig,
    ) -> Result<(), ServeError> {
        self.out = None;
        for (lease_id, idx) in self.held.drain(..) {
            if table.holds(idx, me, lease_id) {
                table.release(idx, cfg)?;
            }
        }
        Ok(())
    }
}

/// Body of connection `conn`'s driver thread: owns `comm` and follows
/// the turn rule until the connection ends (see the module docs).
fn drive(
    conn: usize,
    mut comm: Box<dyn Communicator>,
    out: Receiver<Option<Frame>>,
    events: Sender<Event>,
    ttl: Duration,
) {
    let lost = |why: String| {
        let _ = events.send(Event::Lost { conn, why });
    };
    let mut introduced = false;
    loop {
        // The worker holds the turn: forward its frames until one of
        // them hands the turn back.
        loop {
            let frame = match comm.recv_timeout(ttl) {
                Ok(Some(frame)) => frame,
                Ok(None) if !introduced => {
                    return lost(format!("no hello within {ttl:?}; dropping connection"));
                }
                // A silent worker's lease expires on the coordinator's
                // clock; here only a pending shutdown matters.
                Ok(None) => {
                    if shut_down(comm.as_mut(), &out) {
                        return;
                    }
                    continue;
                }
                Err(CommError::Closed) => return lost("disconnected".to_string()),
                Err(e) => {
                    // On a framing error, tell the peer why before
                    // giving up on the stream (best effort).
                    if let CommError::Frame(fe) = &e {
                        let _ = comm.send(&Frame::Bye {
                            reason: format!("protocol error: {fe} (speaking v{PROTOCOL_VERSION})"),
                        });
                    }
                    return lost(format!("{e}; dropping connection"));
                }
            };
            let hands_back = !matches!(frame, Frame::Heartbeat { .. });
            let bye = matches!(frame, Frame::Bye { .. });
            introduced |= matches!(frame, Frame::Hello { .. });
            if events.send(Event::Frame { conn, frame }).is_err() || bye {
                return;
            }
            if hands_back {
                break;
            }
            if shut_down(comm.as_mut(), &out) {
                return;
            }
        }
        // The coordinator holds the turn: send what it queues until
        // `None` hands the turn back.
        loop {
            let frame = match out.recv() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(_) => return,
            };
            if let Err(e) = comm.send(&frame) {
                return lost(format!("send failed: {e}"));
            }
            if matches!(frame, Frame::Bye { .. }) {
                return;
            }
        }
    }
}

/// While the worker holds the turn the coordinator queues nothing but
/// its final `Bye`. Sends that `Bye` if one is queued; `true` once the
/// connection should end.
fn shut_down(comm: &mut dyn Communicator, out: &Receiver<Option<Frame>>) -> bool {
    match out.try_recv() {
        Ok(Some(bye)) => {
            let _ = comm.send(&bye);
            true
        }
        Err(TryRecvError::Disconnected) => true,
        Ok(None) | Err(TryRecvError::Empty) => false,
    }
}

/// Runs the coordinator over a stream of incoming worker connections
/// (TCP accept loop or loopback harness) until every lease range is
/// `Done` and every live worker has said `Hello`, then assembles the
/// joined artifact.
///
/// Each adopted connection moves into its own driver thread; this
/// thread keeps sole ownership of the lease table and blocks on one
/// event channel until a frame arrives or the earliest lease deadline,
/// backoff release or run deadline passes (see the module docs). A
/// connection that says nothing for `ttl` after adoption is dropped; a
/// worker whose `Hello` arrives after the last range is done is
/// answered with `Hello` and then `Bye`, so it leaves cleanly with no
/// lease. Connections already queued when `run` starts are adopted
/// before any frame is read, so a fast peer cannot finish the grid
/// without them. On success every live worker gets a `Bye`; on failure
/// every connection is closed. Either way every driver is joined before
/// `run` returns, which a worker silent mid-lease delays by at most one
/// `ttl`. Connections arriving after the run are closed unread.
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
    let id_refs = validate_ids(&cfg.ids).map_err(ServeError::BadSpec)?;
    let total = study_grid(&id_refs, &cfg.study_config()).len();

    let (events_tx, events) = mpsc::channel::<Event>();
    // Connections queued before the run are adopted ahead of any frame.
    // Left to the forwarder below, a descheduled forwarder could hand
    // one over only after its peers had finished the grid, and the run
    // would close it unread.
    while let Ok(comm) = conn_rx.try_recv() {
        let _ = events_tx.send(Event::Connect(comm));
    }
    let forward = events_tx.clone();
    // Left detached: it blocks on the connection source, which may
    // outlive the run (a TCP accept loop). After the run it exits on the
    // next connection, dropping it, or when the source closes.
    std::thread::Builder::new()
        .name("serve-accept".to_string())
        .spawn(move || {
            for comm in conn_rx {
                if forward.send(Event::Connect(comm)).is_err() {
                    return;
                }
            }
            let _ = forward.send(Event::SourceClosed);
        })
        .map_err(|e| ServeError::Comm(CommError::Io(format!("spawn: {e}"))))?;

    let mut conns = Vec::new();
    let mut table = LeaseTable::new(total, cfg.lease_points);
    let outcome = serve(cfg, &mut table, &mut conns, &events_tx, &events);
    for conn in &mut conns {
        if outcome.is_ok() {
            conn.send(Frame::Bye {
                reason: "complete".to_string(),
            });
        }
        conn.out = None;
    }
    for driver in conns.iter_mut().filter_map(|c| c.driver.take()) {
        if let Err(panic) = driver.join() {
            std::panic::resume_unwind(panic);
        }
    }
    let manifests = outcome?;
    Ok(JoinedArtifact {
        csv: table.join(),
        manifests,
    })
}

/// Grants connection `i` ready ranges up to its window, lowest start
/// first, then hands the turn back to the worker if it holds a lease.
/// Called only while the coordinator holds the turn on `i`.
fn reply(
    conns: &mut [Conn],
    i: usize,
    table: &mut LeaseTable,
    next_lease_id: &mut u64,
    cfg: &CoordinatorConfig,
) -> Result<(), ServeError> {
    let conn = &mut conns[i];
    while !conn.suspect && conn.held.len() < conn.window {
        let Some(idx) = table.next_ready() else {
            break;
        };
        let lease_id = *next_lease_id + 1;
        let range = table.chunks[idx].range.clone();
        let lease = Frame::Lease {
            lease_id,
            start: range.start as u64,
            end: range.end as u64,
        };
        if !conn.send(lease) {
            return conn.kill(table, i, cfg);
        }
        *next_lease_id = lease_id;
        table.lease(idx, i, lease_id, Instant::now() + cfg.ttl);
        conn.held.push((lease_id, idx));
        LEASES_GRANTED.add(1);
        if cfg.verbose {
            eprintln!(
                "coordinator: leased points {}..{} to worker {} (lease {lease_id}, attempt {})",
                range.start,
                range.end,
                conn.ident.as_deref().unwrap_or("?"),
                table.chunks[idx].attempt,
            );
        }
    }
    if conn.worker_turn() && !conn.queue(None) {
        return conn.kill(table, i, cfg);
    }
    Ok(())
}

/// The event loop of [`run`]: adopts connections into `conns`, grants
/// and re-leases ranges until `table` is finished, and returns every
/// worker's provenance.
fn serve(
    cfg: &CoordinatorConfig,
    table: &mut LeaseTable,
    conns: &mut Vec<Conn>,
    events_tx: &Sender<Event>,
    events: &Receiver<Event>,
) -> Result<BTreeMap<String, WorkerProvenance>, ServeError> {
    let spec = cfg.spec_string();
    let started = Instant::now();
    let run_deadline = cfg.deadline.map(|cap| started + cap);
    let total = table.chunks.last().map_or(0, |c| c.range.end);
    let mut manifests: BTreeMap<String, WorkerProvenance> = BTreeMap::new();
    let mut next_lease_id: u64 = 0;
    let mut points_done: usize = 0;
    let mut source_open = true;

    let progress = |msg: &str| {
        if cfg.verbose {
            eprintln!("coordinator: {msg}");
        }
    };
    progress(&format!(
        "serving {} grid points as {} lease(s) of ≤{} points",
        total,
        table.chunks.len(),
        table.step
    ));

    loop {
        let live = conns.iter().filter(|c| c.alive()).count();
        WORKERS_CONNECTED.set(live as u64);
        // A worker adopted but not yet introduced may still be on its
        // way in: finishing now would drop it mid-handshake.
        if table.finished() && conns.iter().all(|c| !c.alive() || c.ident.is_some()) {
            break;
        }
        if live == 0 && !source_open {
            return Err(ServeError::NoWorkers);
        }
        let now = Instant::now();
        if run_deadline.is_some_and(|at| now > at) {
            return Err(ServeError::DeadlineExceeded);
        }

        // Expire leases whose workers missed their deadline. The worker
        // may be slow rather than dead: its connection stays (a late
        // Result is still welcome) and its held entry with it, but the
        // range is freed for someone else and the silent worker goes on
        // probation so the range is not granted straight back to it.
        for (i, conn) in conns.iter_mut().enumerate() {
            for &(lease_id, idx) in &conn.held {
                if table.holds(idx, i, lease_id) && table.deadline(idx).is_some_and(|d| now >= d) {
                    let range = &table.chunks[idx].range;
                    progress(&format!(
                        "lease over points {}..{} missed its deadline; re-leasing",
                        range.start, range.end
                    ));
                    conn.suspect = true;
                    table.release(idx, cfg)?;
                }
            }
        }

        // Grant ready ranges to idle, introduced workers.
        table.promote(Instant::now());
        for i in 0..conns.len() {
            if table.ready.is_empty() {
                break;
            }
            let conn = &conns[i];
            if conn.alive() && !conn.worker_turn() {
                reply(conns, i, table, &mut next_lease_id, cfg)?;
            }
        }

        // Sleep until the next event or the next instant the lease
        // table can change on its own.
        let wake = conns
            .iter()
            .flat_map(|c| &c.held)
            .filter_map(|&(_, idx)| table.deadline(idx))
            .chain(table.cooling.iter().map(|&(at, _)| at))
            .chain(run_deadline)
            .min();
        let event = match wake {
            Some(at) => events.recv_timeout(at.saturating_duration_since(now)),
            None => events.recv().map_err(RecvTimeoutError::from),
        };
        let (i, frame) = match event {
            Err(_) => continue,
            Ok(Event::Connect(comm)) => {
                progress(&format!("worker connected from {}", comm.peer()));
                let conn = conns.len();
                let (out, out_rx) = mpsc::channel();
                let events = events_tx.clone();
                let ttl = cfg.ttl;
                let driver = std::thread::Builder::new()
                    .name(format!("serve-conn-{conn}"))
                    .spawn(move || drive(conn, comm, out_rx, events, ttl));
                if let Err(e) = &driver {
                    progress(&format!(
                        "cannot start a driver thread ({e}); dropping connection"
                    ));
                }
                conns.push(Conn {
                    out: driver.is_ok().then_some(out),
                    driver: driver.ok(),
                    ident: None,
                    suspect: false,
                    held: Vec::new(),
                    window: 1,
                });
                continue;
            }
            Ok(Event::SourceClosed) => {
                source_open = false;
                continue;
            }
            Ok(Event::Lost { conn: i, why }) => {
                let conn = &mut conns[i];
                if conn.alive() {
                    progress(&format!(
                        "worker {}: {why}",
                        conn.ident.as_deref().unwrap_or("?")
                    ));
                    conn.kill(table, i, cfg)?;
                }
                continue;
            }
            Ok(Event::Frame { conn, frame }) => (conn, frame),
        };
        let conn = &mut conns[i];
        if !conn.alive() {
            // A frame the driver forwarded before its connection was
            // dropped.
            continue;
        }
        // Any frame proves the worker alive: every lease it holds gets
        // a fresh deadline.
        let until = Instant::now() + cfg.ttl;
        for &(lease_id, idx) in &conn.held {
            if table.holds(idx, i, lease_id) {
                table.refresh(idx, until);
            }
        }
        // Set when the frame hands the coordinator its turn to reply.
        let mut answer = false;
        match frame {
            Frame::Hello {
                role: Role::Worker,
                ident,
                detail,
            } if conn.ident.is_none() => {
                progress(&format!("hello from worker {ident}"));
                let entry = manifests.entry(ident.clone()).or_insert(WorkerProvenance {
                    manifest: String::new(),
                    leases: 0,
                });
                entry.manifest = detail;
                conn.ident = Some(ident);
                let hello = Frame::Hello {
                    role: Role::Coordinator,
                    ident: "coordinator".to_string(),
                    detail: spec.clone(),
                };
                answer = conn.send(hello);
                if !answer {
                    conn.kill(table, i, cfg)?;
                }
            }
            // A worker speaks first; anything else before its Hello is
            // a protocol violation like any unexpected frame below.
            Frame::Heartbeat { .. } if conn.ident.is_some() => {
                HEARTBEATS.add(1);
                conn.suspect = false;
            }
            Frame::Result {
                lease_id,
                start,
                end,
                csv,
            } if conn.ident.is_some() => {
                conn.suspect = false;
                let range = start as usize..end as usize;
                let entry = conn.held.iter().position(|&(id, _)| id == lease_id);
                let verdict = match entry {
                    Some(at) if table.chunks[conn.held[at].1].range != range => Err(format!(
                        "lease {lease_id} was granted for points {:?}, not {range:?}",
                        table.chunks[conn.held[at].1].range
                    )),
                    _ => table.accept(lease_id, range, csv),
                };
                match verdict {
                    Ok(fresh_points) => {
                        if let Some(at) = entry {
                            conn.held.remove(at);
                        }
                        conn.window = LEASE_WINDOW;
                        if fresh_points > 0 {
                            points_done += fresh_points;
                            LEASES_COMPLETED.add(1);
                            POINTS_DONE.add(fresh_points as u64);
                            if let Some(p) =
                                conn.ident.as_ref().and_then(|id| manifests.get_mut(id))
                            {
                                p.leases += 1;
                            }
                            progress(&format!(
                                "lease {lease_id} done ({points_done}/{total} points)"
                            ));
                        }
                        answer = true;
                    }
                    Err(detail) => {
                        progress(&format!(
                            "worker {} sent a bad result ({detail}); dropping connection",
                            conn.ident.as_deref().unwrap_or("?")
                        ));
                        conn.send(Frame::Bye {
                            reason: format!("bad result: {detail}"),
                        });
                        conn.kill(table, i, cfg)?;
                    }
                }
            }
            Frame::Bye { reason } => {
                progress(&format!(
                    "worker {} said bye ({reason})",
                    conn.ident.as_deref().unwrap_or("?")
                ));
                conn.kill(table, i, cfg)?;
            }
            other => {
                progress(&format!(
                    "unexpected {} frame from {}; dropping connection",
                    other.name(),
                    conn.ident.as_deref().unwrap_or("?")
                ));
                conn.send(Frame::Bye {
                    reason: format!("unexpected {} frame", other.name()),
                });
                conn.kill(table, i, cfg)?;
            }
        }
        if answer {
            reply(conns, i, table, &mut next_lease_id, cfg)?;
        }
    }

    progress(&format!(
        "complete: {total} points joined from {} worker(s)",
        manifests.len()
    ));
    Ok(manifests)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn duplicate_results_are_idempotent() {
        let mut table = LeaseTable::new(2, 2);
        assert_eq!(table.accept(1, 0..2, "x\ny\n".to_string()), Ok(2));
        assert!(table.finished());
        // A slow worker's late duplicate contributes nothing and leaves
        // the stored bytes untouched.
        assert_eq!(table.accept(2, 0..2, "z\nz\n".to_string()), Ok(0));
        // A duplicate for a range already Done is ignored before its
        // lines are counted, so even a malformed one is harmless.
        assert_eq!(table.accept(3, 0..2, "x\n".to_string()), Ok(0));
        assert_eq!(table.join(), format!("{STUDY_CSV_HEADER}\nx\ny\n"));
        // Wrong line counts and unknown ranges are protocol errors.
        let mut fresh = LeaseTable::new(6, 2);
        assert!(fresh.accept(4, 4..6, "x\n".to_string()).is_err());
        assert!(fresh.accept(5, 1..3, "x\ny\n".to_string()).is_err());
        assert!(fresh.accept(6, 6..8, "x\ny\n".to_string()).is_err());
        assert_eq!(fresh.done, 0);
    }

    #[test]
    fn grants_go_lowest_start_first_and_released_ranges_cool_off() {
        let cfg = CoordinatorConfig {
            backoff: Duration::from_secs(3600),
            ..CoordinatorConfig::default()
        };
        let mut table = LeaseTable::new(7, 2);
        let far = Instant::now() + cfg.ttl;
        let grant = |table: &mut LeaseTable, conn, lease_id| {
            let idx = table.next_ready()?;
            table.lease(idx, conn, lease_id, far);
            Some(idx)
        };
        assert_eq!(grant(&mut table, 0, 1), Some(0));
        assert_eq!(grant(&mut table, 0, 2), Some(1));
        assert!(table.holds(1, 0, 2));
        assert!(!table.holds(1, 0, 1));
        table.release(0, &cfg).unwrap();
        // The released range backs off; the next grant skips it.
        table.promote(Instant::now());
        assert_eq!(grant(&mut table, 1, 3), Some(2));
        // Once its backoff ends it is the lowest ready range again.
        table.promote(Instant::now() + 2 * cfg.backoff);
        assert_eq!(grant(&mut table, 1, 4), Some(0));
        assert_eq!(table.chunks[0].attempt, 1);
    }

    #[test]
    fn a_late_result_for_a_released_range_takes_it_off_the_ready_set() {
        let cfg = CoordinatorConfig {
            backoff: Duration::ZERO,
            max_retries: 1,
            ..CoordinatorConfig::default()
        };
        let mut table = LeaseTable::new(4, 2);
        let now = Instant::now();
        table.lease(0, 0, 1, now);
        table.release(0, &cfg).unwrap();
        table.promote(Instant::now());
        assert_eq!(table.next_ready(), Some(0));
        assert_eq!(table.accept(1, 0..2, "a\nb\n".to_string()), Ok(2));
        // Range 0 is done, so the next grant is range 1, and range 1
        // is the last one to grant.
        assert_eq!(table.next_ready(), Some(1));
        table.lease(1, 1, 2, now);
        assert_eq!(table.next_ready(), None);
        // A second release of range 1 exceeds the retry budget.
        table.release(1, &cfg).unwrap();
        table.promote(Instant::now());
        table.lease(1, 1, 4, now);
        assert_eq!(
            table.release(1, &cfg),
            Err(ServeError::LeaseExhausted {
                start: 2,
                end: 4,
                attempts: 2
            })
        );
    }

    #[test]
    fn a_v1_peer_is_answered_with_a_bye_naming_v2() {
        use crate::comm::Loopback;
        let (coord_end, mut worker_end) = Loopback::pair();
        let mut hello = Frame::Hello {
            role: Role::Worker,
            ident: "old".to_string(),
            detail: "{}".to_string(),
        }
        .encode();
        hello[4] = 1;
        worker_end.send_raw(hello).unwrap();
        let (tx, rx) = mpsc::channel::<Box<dyn Communicator>>();
        tx.send(Box::new(coord_end)).unwrap();
        drop(tx);
        let cfg = CoordinatorConfig {
            ids: vec!["fig5c".to_string()],
            quick: true,
            deadline: Some(Duration::from_secs(60)),
            ..CoordinatorConfig::default()
        };
        // The only worker is refused, so nobody can serve the grid.
        assert_eq!(run(rx, &cfg).unwrap_err(), ServeError::NoWorkers);
        match worker_end.recv_timeout(Duration::from_secs(5)) {
            Ok(Some(Frame::Bye { reason })) => {
                assert!(reason.contains("protocol version 1"), "{reason}");
                assert!(reason.contains("v2"), "{reason}");
            }
            other => panic!("expected a Bye, got {other:?}"),
        }
    }
}
