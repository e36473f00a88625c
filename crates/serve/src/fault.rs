//! A seeded fault-injecting transport for the service's robustness
//! property: whatever a lossy, reordering, truncating link does to the
//! frames, [`coordinator::run`](crate::coordinator::run) ends within
//! its deadline bound, and it ends either in the byte-identical join or
//! in a typed [`ServeError`](crate::ServeError) — never a panic, never
//! a hang, never a wrong artifact.
//!
//! [`Faulty`] wraps one [`Loopback`] end and corrupts what it *sends*;
//! wrapping both ends of a pair covers both directions. Each frame is
//! hit by a fault with probability `rate`, the fault drawn uniformly
//! from a menu of [`Fault`]s, all from one seeded generator, so a
//! failing schedule replays exactly from its seed. Every link of a run
//! records the faults that fired in one shared [`Fired`], so the verdict
//! can demand more of a run that no fault could have stalled.

use crate::comm::{CommError, Communicator, Loopback};
use crate::coordinator::{self, strip_trailer, CoordinatorConfig};
use crate::frame::Frame;
use crate::worker::{self, WorkerConfig};
use proptest::test_runner::TestRng;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What the link does to one sent frame.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// Lost without a trace.
    Drop,
    /// Delivered late: the sender stalls first, like a congested link.
    Delay,
    /// Delivered twice.
    Duplicate,
    /// Delivered cut short, which the receiver's decoder must refuse.
    Truncate,
    /// Held back and delivered after the next frame sent, or just
    /// before the sender's next receive.
    Reorder,
    /// The connection closes instead.
    Close,
}

const FAULTS: [Fault; 6] = [
    Fault::Drop,
    Fault::Delay,
    Fault::Duplicate,
    Fault::Truncate,
    Fault::Reorder,
    Fault::Close,
];

/// Every fault but [`Fault::Drop`]. None of these leaves a live link
/// silent: each frame arrives, or its loss ends the connection, which
/// both ends notice. Only a dropped frame can stall a run until its
/// deadline.
const LOUD_FAULTS: [Fault; 5] = [
    Fault::Delay,
    Fault::Duplicate,
    Fault::Truncate,
    Fault::Reorder,
    Fault::Close,
];

/// Longest stall a [`Fault::Delay`] injects.
const MAX_DELAY: Duration = Duration::from_millis(30);

/// The kinds of fault that fired on any link sharing it, one bit per
/// [`Fault`].
#[derive(Clone, Default)]
struct Fired(Arc<AtomicU8>);

impl Fired {
    fn record(&self, fault: Fault) {
        self.0.fetch_or(1 << fault as u8, Ordering::Relaxed);
    }

    fn any(&self) -> bool {
        self.0.load(Ordering::Relaxed) != 0
    }

    fn has(&self, fault: Fault) -> bool {
        self.0.load(Ordering::Relaxed) & (1 << fault as u8) != 0
    }
}

/// A [`Loopback`] end whose sends pass through a seeded fault schedule.
struct Faulty {
    /// `None` once a [`Fault::Close`] has fired.
    inner: Option<Loopback>,
    rng: TestRng,
    rate: f64,
    menu: &'static [Fault],
    fired: Fired,
    held: Option<Vec<u8>>,
}

impl Faulty {
    fn new(inner: Loopback, seed: u64, rate: f64, menu: &'static [Fault], fired: Fired) -> Faulty {
        Faulty {
            inner: Some(inner),
            rng: TestRng::from_seed(seed),
            rate,
            menu,
            fired,
            held: None,
        }
    }

    fn link(&mut self) -> Result<&mut Loopback, CommError> {
        self.inner.as_mut().ok_or(CommError::Closed)
    }

    fn deliver(&mut self, bytes: Vec<u8>) -> Result<(), CommError> {
        self.link()?.send_raw(bytes)
    }

    fn flush_held(&mut self) -> Result<(), CommError> {
        match self.held.take() {
            Some(bytes) => self.deliver(bytes),
            None => Ok(()),
        }
    }
}

impl Communicator for Faulty {
    fn send(&mut self, frame: &Frame) -> Result<(), CommError> {
        self.link()?;
        let bytes = frame.encode();
        let fault = if self.rng.unit_f64() < self.rate {
            let fault = self.menu[(self.rng.next_u64() % self.menu.len() as u64) as usize];
            self.fired.record(fault);
            Some(fault)
        } else {
            None
        };
        match fault {
            None => self.deliver(bytes)?,
            Some(Fault::Drop) => return Ok(()),
            Some(Fault::Delay) => {
                let ms = self.rng.next_u64() % (MAX_DELAY.as_millis() as u64 + 1);
                std::thread::sleep(Duration::from_millis(ms));
                self.deliver(bytes)?;
            }
            Some(Fault::Duplicate) => {
                self.deliver(bytes.clone())?;
                self.deliver(bytes)?;
            }
            Some(Fault::Truncate) => {
                let cut = (self.rng.next_u64() % bytes.len() as u64) as usize;
                self.deliver(bytes[..cut].to_vec())?;
            }
            Some(Fault::Reorder) if self.held.is_none() => {
                self.held = Some(bytes);
                return Ok(());
            }
            Some(Fault::Reorder) => self.deliver(bytes)?,
            Some(Fault::Close) => {
                self.inner = None;
                return Err(CommError::Closed);
            }
        }
        self.flush_held()
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Frame>, CommError> {
        self.flush_held()?;
        self.link()?.recv_timeout(timeout)
    }

    fn peer(&self) -> String {
        "faulty-loopback".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeError;
    use perfport_core::{render_study_csv, run_study_sharded, Shard, StudyConfig};
    use proptest::prelude::*;
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::sync::OnceLock;
    use std::time::Instant;

    const IDS: &[&str] = &["fig5c", "fig7a"];
    const TTL: Duration = Duration::from_millis(150);
    const RETRIES: usize = 2;
    /// Scheduling and thread start-up on a loaded test host.
    const SLACK: Duration = Duration::from_secs(3);

    fn single_shot() -> &'static str {
        static CSV: OnceLock<String> = OnceLock::new();
        CSV.get_or_init(|| {
            render_study_csv(
                &run_study_sharded(IDS, &StudyConfig::quick(), Shard::FULL, 1),
                true,
            )
        })
    }

    /// Serves the quick grid to `workers` workers over faulty links,
    /// joining every worker before it returns the coordinator's verdict
    /// and the faults that fired. `silent` adds [`Fault::Drop`] to the
    /// menu; only then does the run get a deadline, since only a
    /// dropped frame can leave it waiting on a link that stays quiet.
    fn serve_faulty(
        workers: usize,
        lease_points: usize,
        seed: u64,
        rate: f64,
        silent: bool,
    ) -> (Result<coordinator::JoinedArtifact, ServeError>, Fired) {
        let cfg = CoordinatorConfig {
            ids: IDS.iter().map(|s| s.to_string()).collect(),
            quick: true,
            lease_points,
            ttl: TTL,
            backoff: Duration::from_millis(5),
            max_retries: RETRIES,
            // Joining the drivers afterwards adds at most one more TTL.
            deadline: silent.then_some(TTL * RETRIES as u32),
            verbose: false,
        };
        let menu: &'static [Fault] = if silent { &FAULTS } else { &LOUD_FAULTS };
        let fired = Fired::default();
        let (tx, rx) = mpsc::channel::<Box<dyn Communicator>>();
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers as u64 {
            let (coord_end, worker_end) = Loopback::pair();
            let coord_end = Faulty::new(coord_end, seed ^ (2 * w), rate, menu, fired.clone());
            tx.send(Box::new(coord_end)).expect("the receiver is alive");
            let mut link = Faulty::new(worker_end, seed ^ (2 * w + 1), rate, menu, fired.clone());
            handles.push(std::thread::spawn(move || {
                // A worker error is the link's doing; only the
                // coordinator's verdict is judged.
                let _ = worker::run(&mut link, &WorkerConfig::new(format!("w{w}")));
            }));
        }
        drop(tx);
        let outcome = coordinator::run(rx, &cfg);
        for handle in handles {
            handle.join().expect("no worker panics");
        }
        (outcome, fired)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A run ends within the bound in the byte-identical join or a
        /// typed error. It must reach the join when no fault fired, and
        /// only a dropped frame excuses reaching the deadline; without
        /// `silent` there is no deadline, so the protocol alone must end
        /// the run in time.
        #[test]
        fn faulty_links_end_in_the_join_or_a_typed_error(
            workers in 1usize..4,
            lease_points in 1usize..5,
            seed in 0u64..u64::MAX,
            rate in 0.0f64..0.12,
            silent in proptest::bool::ANY,
        ) {
            let expected = single_shot();
            // Collected once per process, by running `git` and `rustc`:
            // warm it so that cost never counts against a run's deadline.
            worker::manifest_line();
            let (done_tx, done_rx) = mpsc::channel();
            let started = Instant::now();
            std::thread::spawn(move || {
                let _ = done_tx.send(serve_faulty(workers, lease_points, seed, rate, silent));
            });
            let bound = TTL * (RETRIES as u32 + 1) + SLACK;
            let case = format!(
                "workers={workers} lease_points={lease_points} seed={seed} rate={rate} silent={silent}"
            );
            match done_rx.recv_timeout(bound) {
                Ok((Ok(joined), _)) => {
                    prop_assert_eq!(joined.csv.as_str(), expected, "{}", case);
                    prop_assert_eq!(strip_trailer(&joined.render()), expected, "{}", case);
                }
                Ok((Err(ServeError::DeadlineExceeded), fired)) => prop_assert!(
                    fired.has(Fault::Drop),
                    "{case}: the deadline ended a run no dropped frame could stall"
                ),
                Ok((Err(e), fired)) => {
                    prop_assert!(fired.any(), "{case}: {e} with no fault injected")
                }
                Err(RecvTimeoutError::Timeout) => {
                    prop_assert!(false, "{case}: no verdict within {bound:?}")
                }
                Err(RecvTimeoutError::Disconnected) => {
                    prop_assert!(false, "{case}: the run panicked")
                }
            }
            prop_assert!(started.elapsed() < bound, "{}", case);
        }
    }
}
