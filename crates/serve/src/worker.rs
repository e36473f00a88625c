//! The worker side of the protocol: introduce yourself with a
//! provenance manifest, enumerate the same grid the coordinator serves,
//! then loop executing leases — one heartbeat per finished point, one
//! `Result` per finished range — until the coordinator says `Bye`.
//!
//! Heartbeats ride the point boundary on purpose: the worker stays
//! single-threaded (no timer thread racing the compute), and the
//! heartbeat cadence self-tunes to the workload — a lease of k points
//! emits k heartbeats. The coordinator's TTL therefore has to exceed
//! the slowest *single point*, not the whole lease, which `DESIGN.md`
//! states as the protocol's one timing obligation.

use crate::comm::Communicator;
use crate::coordinator::{parse_spec, validate_ids};
use crate::frame::{Frame, Role};
use crate::ServeError;
use perfport_core::{render_study_csv, shard::run_grid_point, study_grid, StudyConfig};
use std::sync::OnceLock;

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

/// The worker's one-line provenance manifest: `perfport-manifest/1`
/// JSON with newlines removed, suitable for `Hello`/`Result` frames and
/// the joined artifact's one-line-per-worker trailer.
///
/// Collected once per process: collection runs `git` and `rustc`, which
/// costs tens of milliseconds, and nothing it records changes while the
/// process lives.
pub fn manifest_line() -> String {
    static LINE: OnceLock<String> = OnceLock::new();
    LINE.get_or_init(|| {
        perfport_bench::Manifest::collect(1)
            .to_json(0)
            .replace('\n', "")
    })
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
    let manifest = manifest_line();
    let progress = |msg: &str| {
        if cfg.verbose {
            eprintln!("worker {}: {msg}", cfg.ident);
        }
    };
    comm.send(&Frame::Hello {
        role: Role::Worker,
        ident: cfg.ident.clone(),
        detail: manifest.clone(),
    })?;

    let (ids, quick) = match comm.recv()? {
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
    let id_refs = validate_ids(&ids).map_err(ServeError::Protocol)?;
    let study_cfg = if quick {
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
                    perfport_telemetry::counter_add("serve/worker_points", 1);
                    comm.send(&Frame::Heartbeat {
                        lease_id,
                        done: (done + 1) as u64,
                    })?;
                }
                comm.send(&Frame::Result {
                    lease_id,
                    start: start as u64,
                    end: end as u64,
                    csv: render_study_csv(&results, false),
                    manifest: manifest.clone(),
                })?;
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
