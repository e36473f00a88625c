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
//! A worker whose lease expires goes on *probation*: it is excluded
//! from new grants until its next frame proves it alive, so an expired
//! range migrates to a different worker instead of bouncing back to
//! the silent one until retries run out.
//!
//! Concurrency: each connection is owned by one *driver* thread that
//! follows the protocol's turn rule. The worker holds the turn from
//! adoption until its `Hello`, and from each `Lease` until its
//! `Result`, `Bye` or an error; meanwhile the driver reads and forwards
//! every frame into one event channel. Otherwise the driver blocks on
//! its outgoing channel, so a grant leaves the moment the coordinator
//! decides it. The coordinator thread alone owns the lease table and
//! sleeps on the event channel until the next frame, lease deadline,
//! backoff release or run deadline — a silent worker never delays a
//! live one.
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
use std::collections::BTreeMap;
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
    /// Heartbeat time-to-live: a leased range whose worker has not
    /// heartbeat within this window is re-leased, and a connection that
    /// stays silent this long after adoption is dropped.
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
    /// `"ids=fig5c,fig7a;quick=1"`. Workers parse it with
    /// [`parse_spec`] and enumerate the identical grid.
    pub fn spec_string(&self) -> String {
        format!("ids={};quick={}", self.ids.join(","), u8::from(self.quick))
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

/// Parses a coordinator `Hello` study spec (see
/// [`CoordinatorConfig::spec_string`]) into `(panel ids, quick)`.
///
/// # Errors
///
/// A message naming the malformed part: missing keys, unknown keys, or
/// a non-boolean quick value. Panel ids are validated separately by
/// [`validate_ids`].
pub fn parse_spec(spec: &str) -> Result<(Vec<String>, bool), String> {
    let mut ids = None;
    let mut quick = None;
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
            other => return Err(format!("unknown spec key '{other}'")),
        }
    }
    let ids = ids.ok_or_else(|| "spec is missing ids=".to_string())?;
    let quick = quick.ok_or_else(|| "spec is missing quick=".to_string())?;
    if ids.is_empty() {
        return Err("spec names no figure panels".to_string());
    }
    Ok((ids, quick))
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

#[derive(Debug, Clone)]
enum ChunkState {
    Pending {
        not_before: Instant,
        attempt: usize,
    },
    Leased {
        conn: usize,
        lease_id: u64,
        deadline: Instant,
        attempt: usize,
    },
    Done,
}

struct Chunk {
    range: Range<usize>,
    state: ChunkState,
    csv: Option<String>,
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
    /// Frames for this connection's driver; `None` once the connection
    /// is dropped, which lets the driver exit.
    out: Option<Sender<Frame>>,
    driver: Option<JoinHandle<()>>,
    ident: Option<String>,
    /// Mirrors the driver's turn: `true` while the worker holds it
    /// (before its `Hello`, and from a `Lease` until its `Result`). Only
    /// a connection whose worker does not hold the turn gets a grant.
    worker_turn: bool,
    /// Set when this worker misses a heartbeat window: a suspect worker
    /// receives no further grants (the range would just bounce back to
    /// the silent peer until retries ran out) until it proves it is
    /// alive by sending any frame.
    suspect: bool,
}

impl Conn {
    fn alive(&self) -> bool {
        self.out.is_some()
    }

    /// Queues `frame` for the driver; `false` when the driver is gone.
    fn send(&self, frame: Frame) -> bool {
        self.out.as_ref().is_some_and(|out| out.send(frame).is_ok())
    }

    fn kill(&mut self) {
        self.out = None;
    }
}

/// Body of connection `conn`'s driver thread: owns `comm` and follows
/// the turn rule until the connection ends (see the module docs).
fn drive(
    conn: usize,
    mut comm: Box<dyn Communicator>,
    out: Receiver<Frame>,
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
        // The coordinator holds the turn: send what it decides.
        loop {
            let Ok(frame) = out.recv() else { return };
            if let Err(e) = comm.send(&frame) {
                return lost(format!("send failed: {e}"));
            }
            match frame {
                Frame::Lease { .. } => break,
                Frame::Bye { .. } => return,
                _ => {}
            }
        }
    }
}

/// While the worker holds the turn the coordinator queues nothing but
/// its final `Bye`. Sends that `Bye` if one is queued; `true` once the
/// connection should end.
fn shut_down(comm: &mut dyn Communicator, out: &Receiver<Frame>) -> bool {
    match out.try_recv() {
        Ok(bye) => {
            let _ = comm.send(&bye);
            true
        }
        Err(TryRecvError::Disconnected) => true,
        Err(TryRecvError::Empty) => false,
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
/// lease. On success every live worker gets a `Bye`; on failure every
/// connection is closed. Either way every driver is joined before `run`
/// returns, which a worker silent mid-lease delays by at most one
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
    let outcome = serve(cfg, total, &mut conns, &events_tx, &events);
    for conn in &mut conns {
        if outcome.is_ok() {
            conn.send(Frame::Bye {
                reason: "complete".to_string(),
            });
        }
        conn.kill();
    }
    for driver in conns.iter_mut().filter_map(|c| c.driver.take()) {
        if let Err(panic) = driver.join() {
            std::panic::resume_unwind(panic);
        }
    }
    let (chunks, manifests) = outcome?;

    let mut csv = String::from(STUDY_CSV_HEADER);
    csv.push('\n');
    for chunk in &chunks {
        csv.push_str(chunk.csv.as_ref().expect("every chunk is Done"));
    }
    Ok(JoinedArtifact { csv, manifests })
}

/// The event loop of [`run`] over a grid of `total` points: adopts
/// connections into `conns`, grants and re-leases ranges, and returns
/// the finished lease table with every worker's provenance.
fn serve(
    cfg: &CoordinatorConfig,
    total: usize,
    conns: &mut Vec<Conn>,
    events_tx: &Sender<Event>,
    events: &Receiver<Event>,
) -> Result<(Vec<Chunk>, BTreeMap<String, WorkerProvenance>), ServeError> {
    let spec = cfg.spec_string();
    let started = Instant::now();
    let run_deadline = cfg.deadline.map(|cap| started + cap);
    let mut chunks: Vec<Chunk> = lease_ranges(total, cfg.lease_points)
        .into_iter()
        .map(|range| Chunk {
            range,
            state: ChunkState::Pending {
                not_before: started,
                attempt: 0,
            },
            csv: None,
        })
        .collect();
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
        chunks.len(),
        cfg.lease_points.max(1)
    ));

    loop {
        let live = conns.iter().filter(|c| c.alive()).count();
        WORKERS_CONNECTED.set(live as u64);
        // A worker adopted but not yet introduced may still be on its
        // way in: finishing now would drop it mid-handshake.
        if chunks.iter().all(|c| matches!(c.state, ChunkState::Done))
            && conns.iter().all(|c| !c.alive() || c.ident.is_some())
        {
            break;
        }
        if live == 0 && !source_open {
            return Err(ServeError::NoWorkers);
        }
        let now = Instant::now();
        if run_deadline.is_some_and(|at| now > at) {
            return Err(ServeError::DeadlineExceeded);
        }

        // Expire leases whose workers missed their heartbeat window.
        for chunk in chunks.iter_mut() {
            if let ChunkState::Leased {
                conn,
                deadline,
                attempt,
                ..
            } = chunk.state
            {
                if now >= deadline {
                    LEASES_EXPIRED.add(1);
                    progress(&format!(
                        "lease over points {}..{} missed its heartbeat window; re-leasing",
                        chunk.range.start, chunk.range.end
                    ));
                    // The worker may be slow rather than dead: leave its
                    // connection alive (a late Result is still welcome)
                    // but free the range for someone else, and put the
                    // silent worker on probation so the range is not
                    // granted straight back to it.
                    conns[conn].suspect = true;
                    expire_chunk(chunk, attempt, cfg)?;
                }
            }
        }

        // Grant pending ranges to idle, introduced workers.
        let now = Instant::now();
        for (i, conn) in conns.iter_mut().enumerate() {
            if !conn.alive() || conn.worker_turn || conn.suspect || conn.ident.is_none() {
                continue;
            }
            let next = chunks.iter().position(|c| {
                matches!(&c.state, ChunkState::Pending { not_before, .. } if *not_before <= now)
            });
            let Some(idx) = next else { break };
            next_lease_id += 1;
            let lease = Frame::Lease {
                lease_id: next_lease_id,
                start: chunks[idx].range.start as u64,
                end: chunks[idx].range.end as u64,
            };
            let attempt = match chunks[idx].state {
                ChunkState::Pending { attempt, .. } => attempt,
                _ => unreachable!("position() matched Pending"),
            };
            if !conn.send(lease) {
                conn.kill();
                continue;
            }
            LEASES_GRANTED.add(1);
            progress(&format!(
                "leased points {}..{} to worker {} (lease {next_lease_id}, attempt {attempt})",
                chunks[idx].range.start,
                chunks[idx].range.end,
                conn.ident.as_deref().unwrap_or("?"),
            ));
            chunks[idx].state = ChunkState::Leased {
                conn: i,
                lease_id: next_lease_id,
                deadline: Instant::now() + cfg.ttl,
                attempt,
            };
            conn.worker_turn = true;
        }

        // Sleep until the next event or the next instant the lease
        // table can change on its own.
        let wake = chunks
            .iter()
            .filter_map(|c| match c.state {
                ChunkState::Leased { deadline, .. } => Some(deadline),
                ChunkState::Pending { not_before, .. } if not_before > now => Some(not_before),
                _ => None,
            })
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
                    worker_turn: true,
                    suspect: false,
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
                    conn.kill();
                    release_conn_lease(&mut chunks, i, cfg)?;
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
        if !matches!(frame, Frame::Heartbeat { .. }) {
            conn.worker_turn = false;
        }
        match frame {
            Frame::Hello {
                role: Role::Worker,
                ident,
                detail,
            } => {
                progress(&format!("hello from worker {ident}"));
                let entry = manifests.entry(ident.clone()).or_insert(WorkerProvenance {
                    manifest: String::new(),
                    leases: 0,
                });
                entry.manifest = detail;
                conn.ident = Some(ident);
                let reply = Frame::Hello {
                    role: Role::Coordinator,
                    ident: "coordinator".to_string(),
                    detail: spec.clone(),
                };
                if !conn.send(reply) {
                    conn.kill();
                }
            }
            // A worker speaks first; anything else before its Hello is
            // a protocol violation like any unexpected frame below.
            Frame::Heartbeat { lease_id, .. } if conn.ident.is_some() => {
                HEARTBEATS.add(1);
                conn.suspect = false;
                let now = Instant::now();
                for chunk in chunks.iter_mut() {
                    if let ChunkState::Leased {
                        conn: owner,
                        lease_id: id,
                        deadline,
                        ..
                    } = &mut chunk.state
                    {
                        if *id == lease_id && *owner == i {
                            *deadline = now + cfg.ttl;
                        }
                    }
                }
            }
            Frame::Result {
                lease_id,
                start,
                end,
                csv,
                manifest,
            } if conn.ident.is_some() => {
                conn.suspect = false;
                let accepted =
                    accept_result(&mut chunks, lease_id, start as usize..end as usize, csv);
                match accepted {
                    Ok(fresh_points) => {
                        if fresh_points > 0 {
                            points_done += fresh_points;
                            LEASES_COMPLETED.add(1);
                            POINTS_DONE.add(fresh_points as u64);
                            if let Some(ident) = &conn.ident {
                                let entry =
                                    manifests.entry(ident.clone()).or_insert(WorkerProvenance {
                                        manifest: manifest.clone(),
                                        leases: 0,
                                    });
                                entry.manifest = manifest;
                                entry.leases += 1;
                            }
                            progress(&format!(
                                "lease {lease_id} done ({points_done}/{total} points)"
                            ));
                        }
                    }
                    Err(detail) => {
                        progress(&format!(
                            "worker {} sent a bad result ({detail}); dropping connection",
                            conn.ident.as_deref().unwrap_or("?")
                        ));
                        conn.send(Frame::Bye {
                            reason: format!("bad result: {detail}"),
                        });
                        conn.kill();
                        release_conn_lease(&mut chunks, i, cfg)?;
                    }
                }
            }
            Frame::Bye { reason } => {
                progress(&format!(
                    "worker {} said bye ({reason})",
                    conn.ident.as_deref().unwrap_or("?")
                ));
                conn.kill();
                release_conn_lease(&mut chunks, i, cfg)?;
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
                conn.kill();
                release_conn_lease(&mut chunks, i, cfg)?;
            }
        }
    }

    progress(&format!(
        "complete: {total} points joined from {} worker(s)",
        manifests.len()
    ));
    Ok((chunks, manifests))
}

/// Accepts a `Result` frame into the lease table. Returns the number of
/// fresh points it contributed (0 for a duplicate of an already-`Done`
/// range — late results from slow-but-alive workers are idempotent
/// because the study is deterministic).
fn accept_result(
    chunks: &mut [Chunk],
    lease_id: u64,
    range: Range<usize>,
    csv: String,
) -> Result<usize, String> {
    let chunk = chunks
        .iter_mut()
        .find(|c| c.range == range)
        .ok_or_else(|| format!("lease {lease_id} names unknown range {range:?}"))?;
    if matches!(chunk.state, ChunkState::Done) {
        return Ok(0);
    }
    let lines = csv.lines().count();
    if lines != chunk.range.len() {
        return Err(format!(
            "range {range:?} carries {lines} CSV lines, expected {}",
            chunk.range.len()
        ));
    }
    chunk.state = ChunkState::Done;
    chunk.csv = Some(csv);
    Ok(lines)
}

fn expire_chunk(
    chunk: &mut Chunk,
    attempt: usize,
    cfg: &CoordinatorConfig,
) -> Result<(), ServeError> {
    let attempt = attempt + 1;
    if attempt > cfg.max_retries {
        return Err(ServeError::LeaseExhausted {
            start: chunk.range.start,
            end: chunk.range.end,
            attempts: attempt,
        });
    }
    chunk.state = ChunkState::Pending {
        not_before: Instant::now() + cfg.backoff * attempt as u32,
        attempt,
    };
    Ok(())
}

/// Frees whatever range connection `i` currently holds (worker died or
/// was dropped): the range re-enters `Pending` with its attempt count
/// bumped, or the run aborts once retries are exhausted.
fn release_conn_lease(
    chunks: &mut [Chunk],
    i: usize,
    cfg: &CoordinatorConfig,
) -> Result<(), ServeError> {
    for chunk in chunks.iter_mut() {
        if let ChunkState::Leased { conn, attempt, .. } = chunk.state {
            if conn == i {
                LEASES_EXPIRED.add(1);
                expire_chunk(chunk, attempt, cfg)?;
            }
        }
    }
    Ok(())
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
        assert_eq!(spec, "ids=fig5c,fig7a;quick=1");
        let (ids, quick) = parse_spec(&spec).unwrap();
        assert_eq!(ids, vec!["fig5c", "fig7a"]);
        assert!(quick);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "",
            "ids=fig5c",
            "quick=1",
            "ids=fig5c;quick=maybe",
            "ids=;quick=1",
            "ids=fig5c;quick=1;extra=2",
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
        let mut chunks = vec![Chunk {
            range: 0..2,
            state: ChunkState::Pending {
                not_before: Instant::now(),
                attempt: 0,
            },
            csv: None,
        }];
        assert_eq!(
            accept_result(&mut chunks, 1, 0..2, "x\ny\n".to_string()),
            Ok(2)
        );
        // A slow worker's late duplicate contributes nothing and leaves
        // the stored bytes untouched.
        assert_eq!(
            accept_result(&mut chunks, 2, 0..2, "x\ny\n".to_string()),
            Ok(0)
        );
        assert_eq!(chunks[0].csv.as_deref(), Some("x\ny\n"));
        // Wrong line counts and unknown ranges are protocol errors.
        assert!(accept_result(&mut chunks, 3, 0..2, "x\n".to_string()).is_ok());
        let mut fresh = vec![Chunk {
            range: 4..6,
            state: ChunkState::Pending {
                not_before: Instant::now(),
                attempt: 0,
            },
            csv: None,
        }];
        assert!(accept_result(&mut fresh, 4, 4..6, "x\n".to_string()).is_err());
        assert!(accept_result(&mut fresh, 5, 0..2, "x\ny\n".to_string()).is_err());
    }
}
