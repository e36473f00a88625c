//! `--local N` self-test mode: the whole coordinator/worker service in
//! one process, over loopback [`Communicator`]s — same frames, same
//! state machine, no sockets. This is how the test suite (and CI's
//! drill) exercises kill/retry schedules deterministically.

use crate::comm::{Communicator, Loopback};
use crate::coordinator::{self, CoordinatorConfig, JoinedArtifact};
use crate::worker::{self, WorkerConfig};
use crate::ServeError;
use std::sync::mpsc;

/// Fault plan for the in-process dead-lease drill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillPlan {
    /// Zero-based index of the worker to kill (`w<index>`).
    pub worker: usize,
    /// Points the victim computes before abandoning its connection
    /// mid-lease (see [`WorkerConfig::fail_after`]).
    pub after_points: usize,
}

/// Runs a full coordinator + `workers` in-process worker threads over
/// loopback channels and returns the joined artifact. With a
/// [`KillPlan`], the victim worker dies mid-lease and the coordinator
/// must re-lease its range — the joined artifact is byte-identical
/// either way.
///
/// # Errors
///
/// Whatever [`coordinator::run`] returns; in particular, killing the
/// only worker yields [`ServeError::NoWorkers`](crate::ServeError)
/// because nobody is left to adopt the re-leased range.
pub fn run_local(
    cfg: &CoordinatorConfig,
    workers: usize,
    kill: Option<KillPlan>,
) -> Result<JoinedArtifact, ServeError> {
    let (tx, rx) = mpsc::channel::<Box<dyn Communicator>>();
    let mut handles = Vec::with_capacity(workers);
    for i in 0..workers {
        let (coord_end, worker_end) = Loopback::pair();
        tx.send(Box::new(coord_end))
            .expect("receiver outlives the send loop");
        let wcfg = WorkerConfig {
            ident: format!("w{i}"),
            fail_after: kill.filter(|k| k.worker == i).map(|k| k.after_points),
            verbose: cfg.verbose,
        };
        handles.push(std::thread::spawn(move || {
            let mut comm = worker_end;
            // A worker error here is part of the drill (fault injection)
            // or follows a coordinator abort; the coordinator's own
            // verdict is the authoritative one either way.
            let _ = worker::run(&mut comm, &wcfg);
        }));
    }
    // Dropping the sender lets the coordinator detect "no workers will
    // ever arrive" if the whole team dies with work outstanding.
    drop(tx);
    let result = coordinator::run(rx, cfg);
    for handle in handles {
        // A successful run has delivered every live worker its Bye, and
        // a failed one drops every connection, so joins are brief.
        let _ = handle.join();
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfport_core::{render_study_csv, run_study_sharded, Shard, StudyConfig};
    use std::time::Duration;

    fn quick_cfg(ids: &[&str]) -> CoordinatorConfig {
        CoordinatorConfig {
            ids: ids.iter().map(|s| s.to_string()).collect(),
            quick: true,
            lease_points: 2,
            ttl: Duration::from_secs(30),
            backoff: Duration::from_millis(10),
            max_retries: 3,
            deadline: Some(Duration::from_secs(120)),
            verbose: false,
        }
    }

    fn single_shot(ids: &[&str]) -> String {
        let results = run_study_sharded(ids, &StudyConfig::quick(), Shard::FULL, 1);
        render_study_csv(&results, true)
    }

    #[test]
    fn one_local_worker_reproduces_the_single_shot_artifact() {
        let cfg = quick_cfg(&["fig5c"]);
        let joined = run_local(&cfg, 1, None).expect("local run succeeds");
        assert_eq!(joined.csv, single_shot(&["fig5c"]));
        assert_eq!(joined.manifests.len(), 1);
        assert!(joined.manifests.contains_key("w0"));
        assert!(joined.manifests["w0"].leases >= 1);
    }

    #[test]
    fn killing_the_only_worker_is_a_no_workers_error() {
        let mut cfg = quick_cfg(&["fig5c"]);
        cfg.max_retries = 5;
        let err = run_local(
            &cfg,
            1,
            Some(KillPlan {
                worker: 0,
                after_points: 0,
            }),
        )
        .expect_err("nobody left to serve the grid");
        assert!(matches!(err, ServeError::NoWorkers));
    }
}
