//! The worker side of the protocol: introduce yourself with a
//! provenance manifest (the session's only copy of it), enumerate the
//! same grid the coordinator serves, then execute leases in the order
//! they arrive — one `Result` per finished range — until the coordinator
//! says `Bye`. The coordinator may queue a second lease behind the one
//! being computed; the transport holds it, so the worker needs no queue
//! of its own.
//!
//! Heartbeats ride the point boundary: the worker stays single-threaded
//! (no timer thread racing the compute) and sends a `Heartbeat` after a
//! point only when at least `ttl / 2` has passed since its last frame.
//! Any worker frame refreshes the deadline of every lease the worker
//! holds, so fast points send none at all. The slowest single point
//! must stay under `ttl / 2`, which `DESIGN.md` states as the
//! protocol's one timing obligation.

use crate::comm::Communicator;
use crate::coordinator::{parse_spec, validate_ids};
use crate::frame::{Frame, Role};
use crate::ServeError;
use perfport_core::{render_study_csv, shard::run_grid_point, study_grid, StudyConfig};
use perfport_telemetry::Counter;
use std::sync::OnceLock;
use std::time::Instant;

static WORKER_POINTS: Counter = Counter::new("serve/worker_points");

/// Options for one worker session.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Stable worker name; keys this worker's manifest in the joined
    /// artifact's trailer, so give every worker of a run a unique one.
    pub ident: String,
    /// Fault injection for the dead-lease drill: after computing this
    /// many points (across leases), the worker abandons its connection
    /// mid-lease — no `Result`, no `Bye` — exactly like a crashed
    /// machine. `None` disables.
    pub fail_after: Option<usize>,
    /// Emit progress lines on stderr.
    pub verbose: bool,
}

impl WorkerConfig {
    /// A quiet worker named `ident` with no fault injection.
    pub fn new(ident: impl Into<String>) -> WorkerConfig {
        WorkerConfig {
            ident: ident.into(),
            fail_after: None,
            verbose: false,
        }
    }
}

/// What a completed worker session did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Leases completed (`Result` frames sent).
    pub leases: usize,
    /// Grid points computed.
    pub points: usize,
}

/// The worker's one-line provenance manifest: the compact render of
/// its `perfport-manifest/1` JSON, for the `Hello` frame and the joined
/// artifact's one-line-per-worker trailer.
///
/// Collected once per process: collection runs `git` and `rustc`, which
/// costs tens of milliseconds, and nothing it records changes while the
/// process lives.
pub fn manifest_line() -> String {
    static LINE: OnceLock<String> = OnceLock::new();
    LINE.get_or_init(|| perfport_bench::Manifest::collect(1).json().to_string())
        .clone()
}

/// Runs one worker session over an established connection: `Hello`
/// handshake, then the lease loop, until `Bye` or connection loss.
///
/// # Errors
///
/// [`ServeError::Comm`] on transport failure,
/// [`ServeError::Protocol`] when the coordinator misbehaves (bad spec,
/// lease beyond the grid), and [`ServeError::FaultInjected`] when the
/// configured `fail_after` drill triggers.
pub fn run(comm: &mut dyn Communicator, cfg: &WorkerConfig) -> Result<WorkerSummary, ServeError> {
    let progress = |msg: &str| {
        if cfg.verbose {
            eprintln!("worker {}: {msg}", cfg.ident);
        }
    };
    comm.send(&Frame::Hello {
        role: Role::Worker,
        ident: cfg.ident.clone(),
        detail: manifest_line(),
    })?;
    let mut last_sent = Instant::now();

    let spec = match comm.recv()? {
        Frame::Hello {
            role: Role::Coordinator,
            detail,
            ..
        } => parse_spec(&detail).map_err(ServeError::Protocol)?,
        Frame::Bye { reason } => {
            return Err(ServeError::Protocol(format!(
                "coordinator refused the session: {reason}"
            )))
        }
        other => {
            return Err(ServeError::Protocol(format!(
                "expected coordinator hello, got {}",
                other.name()
            )))
        }
    };
    let id_refs = validate_ids(&spec.ids).map_err(ServeError::Protocol)?;
    let beat_after = spec.ttl / 2;
    let study_cfg = if spec.quick {
        StudyConfig::quick()
    } else {
        StudyConfig::default()
    };
    let grid = study_grid(&id_refs, &study_cfg);
    progress(&format!(
        "joined study of {} points across {} panel(s)",
        grid.len(),
        id_refs.len()
    ));

    let mut summary = WorkerSummary {
        leases: 0,
        points: 0,
    };
    loop {
        match comm.recv()? {
            Frame::Lease {
                lease_id,
                start,
                end,
            } => {
                let (start, end) = (start as usize, end as usize);
                if start >= end || end > grid.len() {
                    let detail = format!(
                        "lease {lease_id} range {start}..{end} exceeds the {}-point grid",
                        grid.len()
                    );
                    let _ = comm.send(&Frame::Bye {
                        reason: detail.clone(),
                    });
                    return Err(ServeError::Protocol(detail));
                }
                progress(&format!("lease {lease_id}: points {start}..{end}"));
                let mut results = Vec::with_capacity(end - start);
                for (done, idx) in (start..end).enumerate() {
                    if cfg.fail_after.is_some_and(|limit| summary.points >= limit) {
                        progress(&format!(
                            "fault injected after {} points: abandoning lease {lease_id}",
                            summary.points
                        ));
                        return Err(ServeError::FaultInjected {
                            after: summary.points,
                        });
                    }
                    results.push(run_grid_point(&grid[idx], &study_cfg));
                    summary.points += 1;
                    WORKER_POINTS.add(1);
                    if last_sent.elapsed() >= beat_after {
                        comm.send(&Frame::Heartbeat {
                            lease_id,
                            done: (done + 1) as u64,
                        })?;
                        last_sent = Instant::now();
                    }
                }
                comm.send(&Frame::Result {
                    lease_id,
                    start: start as u64,
                    end: end as u64,
                    csv: render_study_csv(&results, false),
                })?;
                last_sent = Instant::now();
                summary.leases += 1;
            }
            Frame::Bye { reason } => {
                progress(&format!("bye from coordinator ({reason})"));
                return Ok(summary);
            }
            other => {
                let detail = format!("unexpected {} frame from coordinator", other.name());
                let _ = comm.send(&Frame::Bye {
                    reason: detail.clone(),
                });
                return Err(ServeError::Protocol(detail));
            }
        }
    }
}
