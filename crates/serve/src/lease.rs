//! The coordinator's sans-IO lease core: every decision of a distributed
//! study run, as a state machine over the lease table with no channel,
//! no thread and no clock of its own.
//!
//! An adapter feeds the core events — a connection adopted, a frame
//! read, a connection lost, the clock passing a deadline — each stamped
//! with the adapter's `now`, and carries out what the core returns: the
//! frames that answer the sender, and [`Action`]s for other
//! connections. [`coordinator::run`](crate::coordinator::run) is the
//! thread adapter over real transports; the test-only simulator drives
//! the same core under a virtual clock, so a schedule that would take a
//! TTL of wall time per expiry runs in microseconds.
//!
//! The core owns the [`LeaseTable`], each connection's ident, probation
//! flag, held leases and credit window, the manifests and the lease-id
//! counter. The rules it applies are the ones the
//! [`coordinator`](crate::coordinator) module documents.

use crate::comm::CommError;
use crate::coordinator::{
    lease_ranges, validate_ids, CoordinatorConfig, JoinedArtifact, WorkerProvenance,
};
use crate::frame::{Frame, Role, PROTOCOL_VERSION};
use crate::ServeError;
use perfport_core::{study_grid, STUDY_CSV_HEADER};
use perfport_telemetry::{Counter, Gauge};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::time::Instant;

static WORKERS_CONNECTED: Gauge = Gauge::new("serve/workers_connected");
static LEASES_GRANTED: Counter = Counter::new("serve/leases_granted");
static LEASES_EXPIRED: Counter = Counter::new("serve/leases_expired");
static LEASES_COMPLETED: Counter = Counter::new("serve/leases_completed");
static HEARTBEATS: Counter = Counter::new("serve/heartbeats");
static POINTS_DONE: Counter = Counter::new("serve/points_done");

/// Leases one worker may hold at once: the one it computes and the one
/// queued behind it. A protocol constant, not a tuning knob.
const LEASE_WINDOW: usize = 2;

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
    /// bumped and a linear backoff from `now`, or aborts the run once
    /// retries are exhausted.
    fn release(
        &mut self,
        idx: usize,
        now: Instant,
        cfg: &CoordinatorConfig,
    ) -> Result<(), ServeError> {
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
            .push((now + cfg.backoff * chunk.attempt as u32, idx));
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

/// Who speaks next on a connection once the core's reply is sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Turn {
    /// The worker: its connection is read for the next frame.
    Worker,
    /// The coordinator: the connection waits for what a later tick
    /// addresses to it (grants, or the run's final `Bye`).
    Coordinator,
    /// Nobody: the core has dropped the connection.
    Closed,
}

/// The core's answer to one frame: what to send back on the frame's own
/// connection, in order, and who holds the turn after it.
#[derive(Debug)]
pub(crate) struct Reply {
    pub(crate) frames: Vec<Frame>,
    pub(crate) turn: Turn,
}

/// What a tick asks the adapter to do with a connection.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Action {
    /// Send `frames`, in order, on connection `conn`.
    Send { conn: usize, frames: Vec<Frame> },
    /// Close connection `conn` without a word.
    Close { conn: usize },
}

/// The core's view of one adopted connection.
struct Conn {
    /// Cleared when the connection is dropped.
    alive: bool,
    /// Until its `Hello`, the instant the connection is dropped for
    /// silence (one TTL after adoption).
    hello_by: Instant,
    ident: Option<String>,
    /// Set when this worker misses a lease deadline. A suspect worker
    /// is passed over for grants — the range would just bounce back to
    /// the silent peer until retries ran out — while a live, introduced,
    /// non-suspect worker exists, and cleared by any frame it sends.
    suspect: bool,
    /// Leases sent on this connection whose `Result` has not arrived,
    /// oldest first, as `(lease_id, range index)`. An entry outlives its
    /// lease's expiry, because the worker may still compute the range,
    /// so its length is what the credit window bounds — until a tick
    /// has a range for the worker, which forgets the expired entries.
    held: Vec<(u64, usize)>,
    /// Leases this worker may hold: one until its first `Result`, then
    /// [`LEASE_WINDOW`].
    window: usize,
}

impl Conn {
    /// Mirrors the connection's turn: `true` while the worker holds it
    /// (before its `Hello`, and while it holds a lease). Only a
    /// connection whose worker does not hold the turn gets a grant
    /// outside a reply.
    fn worker_turn(&self) -> bool {
        self.ident.is_none() || !self.held.is_empty()
    }

    fn turn(&self) -> Turn {
        match (self.alive, self.worker_turn()) {
            (false, _) => Turn::Closed,
            (true, true) => Turn::Worker,
            (true, false) => Turn::Coordinator,
        }
    }

    fn who(&self) -> &str {
        self.ident.as_deref().unwrap_or("?")
    }
}

/// One run's lease state machine (see the module docs).
pub(crate) struct Core {
    cfg: CoordinatorConfig,
    /// The study spec the coordinator's `Hello` carries.
    spec: String,
    table: LeaseTable,
    conns: Vec<Conn>,
    manifests: BTreeMap<String, WorkerProvenance>,
    next_lease_id: u64,
    points_done: usize,
    /// The instant past which the run fails with
    /// [`ServeError::DeadlineExceeded`].
    deadline: Option<Instant>,
    /// Cleared when no further connection can arrive.
    source_open: bool,
}

impl Core {
    /// A core serving `cfg`'s grid, its run started at `now`.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadSpec`] for unregistered panel ids.
    pub(crate) fn new(cfg: &CoordinatorConfig, now: Instant) -> Result<Core, ServeError> {
        let id_refs = validate_ids(&cfg.ids).map_err(ServeError::BadSpec)?;
        let total = study_grid(&id_refs, &cfg.study_config()).len();
        let core = Core {
            cfg: cfg.clone(),
            spec: cfg.spec_string(),
            table: LeaseTable::new(total, cfg.lease_points),
            conns: Vec::new(),
            manifests: BTreeMap::new(),
            next_lease_id: 0,
            points_done: 0,
            deadline: cfg.deadline.map(|cap| now + cap),
            source_open: true,
        };
        core.progress(&format!(
            "serving {total} grid points as {} lease(s) of ≤{} points",
            core.table.chunks.len(),
            core.table.step
        ));
        Ok(core)
    }

    fn progress(&self, msg: &str) {
        if self.cfg.verbose {
            eprintln!("coordinator: {msg}");
        }
    }

    fn total(&self) -> usize {
        self.table.chunks.last().map_or(0, |c| c.range.end)
    }

    fn live(&self) -> usize {
        self.conns.iter().filter(|c| c.alive).count()
    }

    /// `true` once every range is `Done` and every live connection has
    /// said `Hello`: a worker adopted but not yet introduced may still
    /// be on its way in, and finishing would drop it mid-handshake.
    pub(crate) fn finished(&self) -> bool {
        self.table.finished() && self.conns.iter().all(|c| !c.alive || c.ident.is_some())
    }

    /// Adopts a new connection from `peer` at `now` and returns its
    /// index. The worker holds the turn until its `Hello`, which must
    /// arrive within one TTL.
    pub(crate) fn on_connect(&mut self, now: Instant, peer: &str) -> usize {
        self.progress(&format!("worker connected from {peer}"));
        self.conns.push(Conn {
            alive: true,
            hello_by: now + self.cfg.ttl,
            ident: None,
            suspect: false,
            held: Vec::new(),
            window: 1,
        });
        WORKERS_CONNECTED.set(self.live() as u64);
        self.conns.len() - 1
    }

    /// Notes that no further connection can arrive.
    pub(crate) fn on_source_closed(&mut self) {
        self.source_open = false;
    }

    /// Applies `frame`, read from connection `i` at `now`.
    ///
    /// # Errors
    ///
    /// [`ServeError::LeaseExhausted`] when dropping the connection
    /// releases a range past its retry budget.
    pub(crate) fn on_frame(
        &mut self,
        now: Instant,
        i: usize,
        frame: Frame,
    ) -> Result<Reply, ServeError> {
        let mut frames = Vec::new();
        let conn = &mut self.conns[i];
        if !conn.alive {
            // Read before the connection was dropped.
            return Ok(Reply {
                frames,
                turn: Turn::Closed,
            });
        }
        // Any frame proves the worker alive: every lease it holds gets
        // a fresh deadline.
        let until = now + self.cfg.ttl;
        for &(lease_id, idx) in &conn.held {
            if self.table.holds(idx, i, lease_id) {
                self.table.refresh(idx, until);
            }
        }
        match frame {
            Frame::Hello {
                role: Role::Worker,
                ident,
                detail,
            } if conn.ident.is_none() => {
                let entry = self
                    .manifests
                    .entry(ident.clone())
                    .or_insert(WorkerProvenance {
                        manifest: String::new(),
                        leases: 0,
                    });
                entry.manifest = detail;
                conn.ident = Some(ident);
                frames.push(Frame::Hello {
                    role: Role::Coordinator,
                    ident: "coordinator".to_string(),
                    detail: self.spec.clone(),
                });
                self.progress(&format!("hello from worker {}", self.conns[i].who()));
                self.grant(now, i, &mut frames);
            }
            // A worker speaks first; anything else before its Hello is
            // a protocol violation like any unexpected frame below. A
            // heartbeat leaves the turn with the worker.
            Frame::Heartbeat { .. } if conn.ident.is_some() => {
                HEARTBEATS.add(1);
                conn.suspect = false;
                return Ok(Reply {
                    frames,
                    turn: Turn::Worker,
                });
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
                    Some(at) if self.table.chunks[conn.held[at].1].range != range => Err(format!(
                        "lease {lease_id} was granted for points {:?}, not {range:?}",
                        self.table.chunks[conn.held[at].1].range
                    )),
                    _ => self.table.accept(lease_id, range, csv),
                };
                match verdict {
                    Ok(fresh_points) => {
                        if let Some(at) = entry {
                            conn.held.remove(at);
                        }
                        conn.window = LEASE_WINDOW;
                        if fresh_points > 0 {
                            self.points_done += fresh_points;
                            LEASES_COMPLETED.add(1);
                            POINTS_DONE.add(fresh_points as u64);
                            if let Some(p) = conn
                                .ident
                                .as_ref()
                                .and_then(|id| self.manifests.get_mut(id))
                            {
                                p.leases += 1;
                            }
                            self.progress(&format!(
                                "lease {lease_id} done ({}/{} points)",
                                self.points_done,
                                self.total()
                            ));
                        }
                        self.grant(now, i, &mut frames);
                    }
                    Err(detail) => {
                        let msg = format!(
                            "worker {} sent a bad result ({detail}); dropping connection",
                            conn.who()
                        );
                        self.progress(&msg);
                        frames.push(Frame::Bye {
                            reason: format!("bad result: {detail}"),
                        });
                        self.kill(now, i)?;
                    }
                }
            }
            Frame::Bye { reason } => {
                let msg = format!("worker {} said bye ({reason})", conn.who());
                self.progress(&msg);
                self.kill(now, i)?;
            }
            other => {
                let msg = format!(
                    "unexpected {} frame from {}; dropping connection",
                    other.name(),
                    conn.who()
                );
                self.progress(&msg);
                frames.push(Frame::Bye {
                    reason: format!("unexpected {} frame", other.name()),
                });
                self.kill(now, i)?;
            }
        }
        Ok(Reply {
            frames,
            turn: self.conns[i].turn(),
        })
    }

    /// Drops connection `i`, which failed at `now` with `cause`. Returns
    /// the `Bye` to send the peer before closing, if its bytes failed to
    /// decode: a peer speaking another protocol version learns which
    /// one this coordinator speaks.
    ///
    /// # Errors
    ///
    /// [`ServeError::LeaseExhausted`] when a range the connection held
    /// passes its retry budget.
    pub(crate) fn on_lost(
        &mut self,
        now: Instant,
        i: usize,
        cause: &CommError,
    ) -> Result<Option<Frame>, ServeError> {
        if !self.conns[i].alive {
            return Ok(None);
        }
        self.progress(&format!(
            "worker {}: {cause}; dropping connection",
            self.conns[i].who()
        ));
        self.kill(now, i)?;
        Ok(match cause {
            CommError::Frame(fe) => Some(Frame::Bye {
                reason: format!("protocol error: {fe} (speaking v{PROTOCOL_VERSION})"),
            }),
            _ => None,
        })
    }

    /// Advances the core to `now`: drops connections silent since
    /// adoption, expires leases whose workers missed their deadline,
    /// ends backoffs, and grants ready ranges to idle workers. Returns
    /// what the adapter must do on connections other than a reply's.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoWorkers`] when no worker is alive and none can
    /// arrive with work outstanding, [`ServeError::DeadlineExceeded`]
    /// at or past the run's deadline, and
    /// [`ServeError::LeaseExhausted`] when an expiry passes a range's
    /// retry budget.
    pub(crate) fn on_tick(&mut self, now: Instant) -> Result<Vec<Action>, ServeError> {
        let mut actions = Vec::new();
        if self.finished() {
            return Ok(actions);
        }
        if self.live() == 0 && !self.source_open {
            return Err(ServeError::NoWorkers);
        }
        if self.deadline.is_some_and(|at| now >= at) {
            return Err(ServeError::DeadlineExceeded);
        }
        for i in 0..self.conns.len() {
            let conn = &self.conns[i];
            if conn.alive && conn.ident.is_none() && now >= conn.hello_by {
                self.progress(&format!(
                    "no hello within {:?}; dropping connection",
                    self.cfg.ttl
                ));
                self.kill(now, i)?;
                actions.push(Action::Close { conn: i });
            }
        }

        // Expire leases whose workers missed their deadline. The worker
        // may be slow rather than dead: its connection stays (a late
        // Result is still welcome) and its held entry with it, but the
        // range is freed for someone else and the silent worker goes on
        // probation so the range is not granted straight back to it.
        for (i, conn) in self.conns.iter_mut().enumerate() {
            for &(lease_id, idx) in &conn.held {
                let table = &mut self.table;
                if table.holds(idx, i, lease_id) && table.deadline(idx).is_some_and(|d| now >= d) {
                    let range = &table.chunks[idx].range;
                    if self.cfg.verbose {
                        eprintln!(
                            "coordinator: lease over points {}..{} missed its deadline; re-leasing",
                            range.start, range.end
                        );
                    }
                    conn.suspect = true;
                    table.release(idx, now, &self.cfg)?;
                }
            }
        }

        // Grant ready ranges to idle, introduced workers. A suspect
        // worker is passed over while a healthy one exists. Before a
        // grant, a worker forgets its expired entries: if a Result was
        // lost it waits idle, and only a grant can reach it, while a
        // worker that is merely slow still has its late Result accepted
        // without an entry.
        self.table.promote(now);
        let healthy = self
            .conns
            .iter()
            .any(|c| c.alive && c.ident.is_some() && !c.suspect);
        for i in 0..self.conns.len() {
            if self.table.ready.is_empty() {
                break;
            }
            let conn = &mut self.conns[i];
            if !conn.alive || conn.ident.is_none() || (conn.suspect && healthy) {
                continue;
            }
            let table = &self.table;
            conn.held
                .retain(|&(lease_id, idx)| table.holds(idx, i, lease_id));
            if !conn.worker_turn() {
                let mut frames = Vec::new();
                self.grant(now, i, &mut frames);
                actions.push(Action::Send { conn: i, frames });
            }
        }
        Ok(actions)
    }

    /// The earliest instant at which [`Core::on_tick`] has work without
    /// any other event: a Hello window closing, a lease deadline, a
    /// backoff ending or the run's deadline.
    pub(crate) fn next_wake(&self) -> Option<Instant> {
        let hellos = self
            .conns
            .iter()
            .filter(|c| c.alive && c.ident.is_none())
            .map(|c| c.hello_by);
        let deadlines = self
            .conns
            .iter()
            .flat_map(|c| &c.held)
            .filter_map(|&(_, idx)| self.table.deadline(idx));
        hellos
            .chain(deadlines)
            .chain(self.table.cooling.iter().map(|&(at, _)| at))
            .chain(self.deadline)
            .min()
    }

    /// The joined artifact of a [`finished`](Core::finished) run.
    pub(crate) fn join(&self) -> JoinedArtifact {
        self.progress(&format!(
            "complete: {} points joined from {} worker(s)",
            self.total(),
            self.manifests.len()
        ));
        JoinedArtifact {
            csv: self.table.join(),
            manifests: self.manifests.clone(),
        }
    }

    /// Grants connection `i` ready ranges up to its window, lowest start
    /// first, appending the leases to `out`.
    fn grant(&mut self, now: Instant, i: usize, out: &mut Vec<Frame>) {
        let conn = &mut self.conns[i];
        while conn.held.len() < conn.window {
            let Some(idx) = self.table.next_ready() else {
                break;
            };
            self.next_lease_id += 1;
            let lease_id = self.next_lease_id;
            let range = self.table.chunks[idx].range.clone();
            out.push(Frame::Lease {
                lease_id,
                start: range.start as u64,
                end: range.end as u64,
            });
            self.table.lease(idx, i, lease_id, now + self.cfg.ttl);
            conn.held.push((lease_id, idx));
            LEASES_GRANTED.add(1);
            if self.cfg.verbose {
                eprintln!(
                    "coordinator: leased points {}..{} to worker {} (lease {lease_id}, attempt {})",
                    range.start,
                    range.end,
                    conn.who(),
                    self.table.chunks[idx].attempt,
                );
            }
        }
    }

    /// Drops connection `i` and releases every range it still holds.
    fn kill(&mut self, now: Instant, i: usize) -> Result<(), ServeError> {
        let conn = &mut self.conns[i];
        conn.alive = false;
        for (lease_id, idx) in conn.held.drain(..) {
            if self.table.holds(idx, i, lease_id) {
                self.table.release(idx, now, &self.cfg)?;
            }
        }
        WORKERS_CONNECTED.set(self.live() as u64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{fragment, grid_of, hello, VirtualClock};
    use perfport_core::{render_study_csv, run_study_sharded, Shard, StudyConfig};
    use std::time::Duration;

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
        let clock = VirtualClock::new();
        let mut table = LeaseTable::new(7, 2);
        let far = clock.now() + cfg.ttl;
        let grant = |table: &mut LeaseTable, conn, lease_id| {
            let idx = table.next_ready()?;
            table.lease(idx, conn, lease_id, far);
            Some(idx)
        };
        assert_eq!(grant(&mut table, 0, 1), Some(0));
        assert_eq!(grant(&mut table, 0, 2), Some(1));
        assert!(table.holds(1, 0, 2));
        assert!(!table.holds(1, 0, 1));
        table.release(0, clock.now(), &cfg).unwrap();
        // The released range backs off; the next grant skips it.
        table.promote(clock.now());
        assert_eq!(grant(&mut table, 1, 3), Some(2));
        // Once its backoff ends it is the lowest ready range again.
        table.promote(clock.now() + 2 * cfg.backoff);
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
        let clock = VirtualClock::new();
        let mut table = LeaseTable::new(4, 2);
        let now = clock.now();
        table.lease(0, 0, 1, now);
        table.release(0, now, &cfg).unwrap();
        table.promote(now);
        assert_eq!(table.next_ready(), Some(0));
        assert_eq!(table.accept(1, 0..2, "a\nb\n".to_string()), Ok(2));
        // Range 0 is done, so the next grant is range 1, and range 1
        // is the last one to grant.
        assert_eq!(table.next_ready(), Some(1));
        table.lease(1, 1, 2, now);
        assert_eq!(table.next_ready(), None);
        // A second release of range 1 exceeds the retry budget.
        table.release(1, now, &cfg).unwrap();
        table.promote(now);
        table.lease(1, 1, 4, now);
        assert_eq!(
            table.release(1, now, &cfg),
            Err(ServeError::LeaseExhausted {
                start: 2,
                end: 4,
                attempts: 2
            })
        );
    }

    #[test]
    fn a_v1_peer_is_answered_with_a_bye_naming_v2() {
        let mut hello = Frame::Hello {
            role: Role::Worker,
            ident: "old".to_string(),
            detail: "{}".to_string(),
        }
        .encode();
        hello[4] = 1;
        let cause = CommError::Frame(Frame::decode_exact(&hello).unwrap_err());
        let cfg = CoordinatorConfig {
            ids: vec!["fig5c".to_string()],
            quick: true,
            deadline: Some(Duration::from_secs(60)),
            ..CoordinatorConfig::default()
        };
        let clock = VirtualClock::new();
        let mut core = Core::new(&cfg, clock.now()).unwrap();
        let conn = core.on_connect(clock.now(), "old");
        core.on_source_closed();
        let bye = core.on_lost(clock.now(), conn, &cause).unwrap();
        // The only worker is refused, so nobody can serve the grid.
        assert_eq!(
            core.on_tick(clock.now()).unwrap_err(),
            ServeError::NoWorkers
        );
        match bye {
            Some(Frame::Bye { reason }) => {
                assert!(reason.contains("protocol version 1"), "{reason}");
                assert!(reason.contains("v2"), "{reason}");
            }
            other => panic!("expected a Bye, got {other:?}"),
        }
    }

    /// A one-panel quick run whose grid is a single lease, so a lost
    /// `Result` leaves nothing else to grant.
    fn one_lease_cfg() -> CoordinatorConfig {
        CoordinatorConfig {
            ids: vec!["fig5c".to_string()],
            quick: true,
            lease_points: 1_000,
            ttl: Duration::from_secs(30),
            backoff: Duration::from_millis(250),
            deadline: None,
            ..CoordinatorConfig::default()
        }
    }

    /// Introduces worker `ident` on a new connection and returns the
    /// connection with the lease its `Hello` was answered with.
    fn introduce(core: &mut Core, now: Instant, ident: &str) -> (usize, Frame) {
        let conn = core.on_connect(now, ident);
        let reply = core.on_frame(now, conn, hello(ident)).unwrap();
        assert_eq!(reply.turn, Turn::Worker);
        (conn, reply.frames[1].clone())
    }

    /// The `Result` a worker sends for `lease`.
    fn result_for(cfg: &CoordinatorConfig, lease: &Frame) -> Frame {
        let &Frame::Lease {
            lease_id,
            start,
            end,
        } = lease
        else {
            panic!("expected a lease, got {lease:?}");
        };
        Frame::Result {
            lease_id,
            start,
            end,
            csv: fragment(
                &grid_of(cfg),
                &cfg.study_config(),
                start as usize..end as usize,
            ),
        }
    }

    fn regrant(lease: &Frame, lease_id: u64) -> Frame {
        match *lease {
            Frame::Lease { start, end, .. } => Frame::Lease {
                lease_id,
                start,
                end,
            },
            _ => unreachable!("a lease"),
        }
    }

    #[test]
    fn a_sole_worker_whose_result_was_lost_is_probed_and_the_run_joins() {
        // The worker's Result is lost, so it waits idle for a lease and
        // sends nothing. Passing it over would leave the run to its
        // deadline, or waiting forever without one; with no healthy
        // worker to take the range, the tick re-grants it.
        let cfg = one_lease_cfg();
        let mut clock = VirtualClock::new();
        let mut core = Core::new(&cfg, clock.now()).unwrap();
        let (conn, lease) = introduce(&mut core, clock.now(), "w0");
        core.on_source_closed();
        let _lost = result_for(&cfg, &lease);

        clock.advance(cfg.ttl);
        // The lease expires and its range backs off: nothing to grant yet.
        assert_eq!(core.on_tick(clock.now()).unwrap(), vec![]);
        clock.advance(cfg.backoff);
        let probe = regrant(&lease, 2);
        assert_eq!(
            core.on_tick(clock.now()).unwrap(),
            vec![Action::Send {
                conn,
                frames: vec![probe.clone()]
            }]
        );

        let reply = core
            .on_frame(clock.now(), conn, result_for(&cfg, &probe))
            .unwrap();
        assert!(reply.frames.is_empty());
        assert_eq!(reply.turn, Turn::Coordinator);
        assert!(core.finished());
        let expected = render_study_csv(
            &run_study_sharded(&["fig5c"], &StudyConfig::quick(), Shard::FULL, 1),
            true,
        );
        assert_eq!(core.join().csv, expected);
    }

    #[test]
    fn a_suspect_worker_is_passed_over_while_a_healthy_one_exists() {
        let cfg = one_lease_cfg();
        let mut clock = VirtualClock::new();
        let mut core = Core::new(&cfg, clock.now()).unwrap();
        let (suspect, lease) = introduce(&mut core, clock.now(), "w0");
        let healthy = core.on_connect(clock.now(), "w1");
        let reply = core.on_frame(clock.now(), healthy, hello("w1")).unwrap();
        // Nothing is left to grant, so the healthy worker waits idle.
        assert_eq!(reply.turn, Turn::Coordinator);

        clock.advance(cfg.ttl + cfg.backoff);
        // The suspect's range expires and cools off; the healthy worker,
        // not the suspect, gets it.
        core.on_tick(clock.now()).unwrap();
        clock.advance(cfg.backoff);
        assert_eq!(
            core.on_tick(clock.now()).unwrap(),
            vec![Action::Send {
                conn: healthy,
                frames: vec![regrant(&lease, 2)]
            }]
        );
        // Once the healthy worker is gone the suspect is the only one
        // left, and its probe waits on the dropped range's backoff.
        core.on_lost(clock.now(), healthy, &CommError::Closed)
            .unwrap();
        assert_eq!(core.on_tick(clock.now()).unwrap(), vec![]);
        clock.advance(cfg.backoff * 2);
        assert_eq!(
            core.on_tick(clock.now()).unwrap(),
            vec![Action::Send {
                conn: suspect,
                frames: vec![regrant(&lease, 3)]
            }]
        );
    }
}
