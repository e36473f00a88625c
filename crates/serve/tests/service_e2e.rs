//! End-to-end service tests: the joined artifact is byte-identical to
//! the `--shard 0/1` single-shot artifact for every worker count, lease
//! size, and kill/retry schedule — over loopback channels and over real
//! TCP sockets — and dead leases are re-leased to surviving workers.

use perfport_core::{render_study_csv, run_study_sharded, Shard, StudyConfig};
use perfport_serve::comm::{tcp_v1::TcpCommunicator, CommError, Communicator, Loopback};
use perfport_serve::coordinator::{self, strip_trailer, CoordinatorConfig, JoinedArtifact};
use perfport_serve::frame::{Frame, Role};
use perfport_serve::local::{run_local, KillPlan};
use perfport_serve::worker::{self, WorkerConfig, WorkerSummary};
use std::ops::Range;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const IDS: &[&str] = &["fig5c", "fig7a"];

fn cfg(lease_points: usize) -> CoordinatorConfig {
    CoordinatorConfig {
        ids: IDS.iter().map(|s| s.to_string()).collect(),
        quick: true,
        lease_points,
        ttl: Duration::from_secs(30),
        backoff: Duration::from_millis(10),
        max_retries: 3,
        deadline: Some(Duration::from_secs(120)),
        verbose: false,
    }
}

fn single_shot() -> String {
    let results = run_study_sharded(IDS, &StudyConfig::quick(), Shard::FULL, 1);
    render_study_csv(&results, true)
}

#[test]
fn any_worker_count_and_lease_size_is_byte_identical() {
    let expected = single_shot();
    for workers in [1usize, 2, 4] {
        for lease_points in [1usize, 3, 4] {
            let joined = run_local(&cfg(lease_points), workers, None)
                .unwrap_or_else(|e| panic!("workers={workers} lease={lease_points}: {e}"));
            assert_eq!(
                joined.csv, expected,
                "workers={workers} lease={lease_points}"
            );
            // The rendered artifact strips back to the same bytes.
            assert_eq!(strip_trailer(&joined.render()), expected);
            // Every worker that joined left its provenance manifest.
            assert_eq!(joined.manifests.len(), workers);
            for (ident, p) in &joined.manifests {
                assert!(
                    p.manifest.contains("perfport-manifest/1"),
                    "{ident} manifest: {}",
                    p.manifest
                );
            }
        }
    }
}

#[test]
fn dead_lease_is_re_leased_and_the_join_is_unchanged() {
    let expected = single_shot();
    let mut config = cfg(2);
    config.max_retries = 5;
    let joined = run_local(
        &config,
        3,
        Some(KillPlan {
            worker: 1,
            after_points: 2,
        }),
    )
    .expect("survivors absorb the dead worker's range");
    assert_eq!(joined.csv, expected);
    // The victim completed one 2-point lease before dying mid-lease-2,
    // so its manifest is embedded with the leases it actually finished.
    assert_eq!(joined.manifests["w1"].leases, 1);
    assert!(joined.manifests.contains_key("w0"));
    assert!(joined.manifests.contains_key("w2"));
    let rendered = joined.render();
    assert!(rendered.contains("# worker-manifest w1 leases=1"));
}

/// A lease range and the instant it was granted or its `Result` sent.
type Stamp = (Range<u64>, Instant);

/// Drives a worker by hand that hellos, takes one lease, reports its
/// range and the instant it arrived on `leased`, and then says nothing
/// at all, holding the connection open until the coordinator finishes
/// without it.
fn spawn_mute_lease_holder(mut end: Loopback, leased: mpsc::Sender<Stamp>) -> JoinHandle<()> {
    std::thread::spawn(move || {
        end.send(&Frame::Hello {
            role: Role::Worker,
            ident: "mute".to_string(),
            detail: "{\"schema\": \"perfport-manifest/1\"}".to_string(),
        })
        .unwrap();
        let hello = end.recv().unwrap();
        assert!(matches!(
            hello,
            Frame::Hello {
                role: Role::Coordinator,
                ..
            }
        ));
        match end.recv().unwrap() {
            Frame::Lease { start, end, .. } => leased.send((start..end, Instant::now())).unwrap(),
            other => panic!("expected a lease, got {other:?}"),
        }
        loop {
            match end.recv() {
                Ok(Frame::Bye { .. }) | Err(_) => break,
                Ok(_) => {}
            }
        }
    })
}

/// A loopback end that reports every `Result` it sends: its range and
/// the instant it left.
struct Tap {
    inner: Loopback,
    results: mpsc::Sender<Stamp>,
}

impl Communicator for Tap {
    fn send(&mut self, frame: &Frame) -> Result<(), CommError> {
        self.inner.send(frame)?;
        if let Frame::Result { start, end, .. } = frame {
            let _ = self.results.send((*start..*end, Instant::now()));
        }
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Frame>, CommError> {
        self.inner.recv_timeout(timeout)
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }
}

/// Serves the `config` grid to a mute lease holder and a live worker
/// that starts only once the mute one holds its lease. Returns the
/// joined CSV, the live worker's summary, the mute lease (range and
/// grant instant), and every `Result` the live worker sent.
fn serve_mute_and_live(
    config: &CoordinatorConfig,
) -> (JoinedArtifact, WorkerSummary, Stamp, Vec<Stamp>) {
    let (mute_coord_end, mute_worker_end) = Loopback::pair();
    let (live_coord_end, live_worker_end) = Loopback::pair();
    let (tx, rx) = mpsc::channel::<Box<dyn Communicator>>();
    tx.send(Box::new(mute_coord_end)).unwrap();
    tx.send(Box::new(live_coord_end)).unwrap();
    drop(tx);

    let (leased_tx, leased_rx) = mpsc::channel();
    let mute = spawn_mute_lease_holder(mute_worker_end, leased_tx);
    let (results_tx, results_rx) = mpsc::channel();
    let (lease_seen_tx, lease_seen_rx) = mpsc::channel();
    let live = std::thread::spawn(move || {
        let mute_lease = leased_rx.recv().expect("the mute worker takes a lease");
        lease_seen_tx.send(mute_lease).unwrap();
        let mut comm = Tap {
            inner: live_worker_end,
            results: results_tx,
        };
        worker::run(&mut comm, &WorkerConfig::new("live")).expect("live worker finishes")
    });

    let joined = coordinator::run(rx, config).expect("TTL re-lease rescues the run");
    mute.join().unwrap();
    let summary = live.join().unwrap();
    let mute_lease = lease_seen_rx.recv().unwrap();
    (joined, summary, mute_lease, results_rx.try_iter().collect())
}

#[test]
fn mute_worker_misses_heartbeats_and_its_lease_moves_on() {
    // A worker that hellos, takes a lease, and then goes silent without
    // closing its connection: only the heartbeat TTL can free its
    // range.
    let expected = single_shot();
    let mut config = cfg(2);
    config.ttl = Duration::from_millis(200);
    config.max_retries = 5;
    let (joined, summary, _, _) = serve_mute_and_live(&config);

    assert_eq!(joined.csv, expected);
    // The live worker ends up computing every point, including the
    // range first leased to the mute worker.
    assert_eq!(summary.points, expected.lines().count() - 1);
    // The mute worker still appears in the provenance trailer — it
    // joined the run even though it finished nothing.
    assert_eq!(joined.manifests["mute"].leases, 0);
    assert!(joined.manifests["live"].leases >= 1);
}

#[test]
fn a_mute_lease_holder_does_not_stall_the_live_worker() {
    // With a 2 s TTL, the live worker must finish every range but the
    // mute one's while that lease is still running: the silent
    // connection costs its peer nothing.
    let expected = single_shot();
    let mut config = cfg(2);
    config.ttl = Duration::from_secs(2);
    let (joined, _, (mute_range, granted), results) = serve_mute_and_live(&config);

    assert_eq!(joined.csv, expected);
    assert_eq!(strip_trailer(&joined.render()), expected);
    let expires = granted + config.ttl;
    let others: Vec<_> = results.iter().filter(|(r, _)| *r != mute_range).collect();
    assert!(!others.is_empty());
    for (range, at) in others {
        assert!(
            *at < expires,
            "result for {range:?} landed {:?} after the mute lease expired",
            at.duration_since(expires)
        );
    }
    // The mute range itself was re-leased to the live worker.
    assert!(results.iter().any(|(r, _)| *r == mute_range));
}

#[test]
fn a_late_hello_gets_hello_then_bye() {
    // A worker whose Hello arrives only after the live worker has sent
    // a Result for every range: the coordinator must not finish and
    // drop it mid-handshake, but answer Hello and then Bye.
    let expected = single_shot();
    let config = cfg(3);
    let ranges = coordinator::lease_ranges(expected.lines().count() - 1, 3).len();

    let (live_coord_end, live_worker_end) = Loopback::pair();
    let (late_coord_end, mut late_worker_end) = Loopback::pair();
    let (tx, rx) = mpsc::channel::<Box<dyn Communicator>>();
    tx.send(Box::new(live_coord_end)).unwrap();
    tx.send(Box::new(late_coord_end)).unwrap();
    drop(tx);

    let (results_tx, results_rx) = mpsc::channel();
    let live = std::thread::spawn(move || {
        let mut comm = Tap {
            inner: live_worker_end,
            results: results_tx,
        };
        worker::run(&mut comm, &WorkerConfig::new("live"))
    });
    let late = std::thread::spawn(move || {
        for _ in 0..ranges {
            results_rx
                .recv()
                .expect("the live worker sends every result");
        }
        // Long after the last Result has been read.
        std::thread::sleep(Duration::from_millis(200));
        worker::run(&mut late_worker_end, &WorkerConfig::new("late"))
    });

    let joined = coordinator::run(rx, &config).expect("run completes");
    let late = late.join().unwrap().expect("the latecomer leaves cleanly");
    let live = live.join().unwrap().expect("live worker finishes");
    assert_eq!(late.leases, 0);
    assert_eq!(live.leases, ranges);
    assert_eq!(joined.csv, expected);
    assert!(joined.render().contains("# worker-manifest late leases=0 "));
}

#[test]
fn a_peer_that_never_says_hello_is_dropped_after_the_ttl() {
    // An adopted connection that stays silent must not hang the run:
    // one TTL after adoption its connection is dropped.
    let expected = single_shot();
    let mut config = cfg(3);
    config.ttl = Duration::from_millis(500);

    let (mute_coord_end, mut mute_worker_end) = Loopback::pair();
    let (live_coord_end, mut live_worker_end) = Loopback::pair();
    let (tx, rx) = mpsc::channel::<Box<dyn Communicator>>();
    tx.send(Box::new(mute_coord_end)).unwrap();
    tx.send(Box::new(live_coord_end)).unwrap();
    drop(tx);

    let live = std::thread::spawn(move || {
        worker::run(&mut live_worker_end, &WorkerConfig::new("live")).expect("live worker finishes")
    });
    let started = Instant::now();
    let joined = coordinator::run(rx, &config).expect("the mute peer cannot hang the run");
    // The run waited out the mute peer's Hello window instead of
    // finishing without it or hanging on it.
    let took = started.elapsed();
    assert!(
        took >= config.ttl && took < Duration::from_secs(30),
        "{took:?}"
    );
    live.join().unwrap();
    // The coordinator dropped the mute connection without a word.
    assert_eq!(
        mute_worker_end.recv_timeout(Duration::from_secs(5)),
        Err(CommError::Closed)
    );
    assert_eq!(joined.csv, expected);
    assert!(!joined.manifests.contains_key("mute"));
}

#[test]
fn sessions_in_one_process_stamp_identical_manifests() {
    let first = run_local(&cfg(4), 1, None).expect("first session");
    let second = run_local(&cfg(4), 1, None).expect("second session");
    let line = worker::manifest_line();
    assert!(line.contains("perfport-manifest/1"));
    assert_eq!(first.manifests["w0"].manifest, line);
    assert_eq!(second.manifests["w0"].manifest, line);
}

#[test]
fn tcp_transport_is_byte_identical_too() {
    let expected = single_shot();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap();
    let (tx, rx) = mpsc::channel::<Box<dyn Communicator>>();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            if tx.send(Box::new(TcpCommunicator::new(stream))).is_err() {
                break;
            }
        }
    });

    let patience = Duration::from_secs(10);
    let workers: Vec<_> = (0..2)
        .map(|i| {
            std::thread::spawn(move || {
                let mut comm =
                    TcpCommunicator::connect(addr, patience).expect("reach the coordinator");
                worker::run(&mut comm, &WorkerConfig::new(format!("tcp{i}")))
            })
        })
        .collect();

    let joined = coordinator::run(rx, &cfg(3)).expect("TCP run succeeds");
    let mut points = 0;
    for handle in workers {
        points += handle
            .join()
            .unwrap()
            .expect("worker session succeeds")
            .points;
    }
    assert_eq!(joined.csv, expected);
    assert_eq!(points, expected.lines().count() - 1);
    assert!(joined.manifests.contains_key("tcp0"));
    assert!(joined.manifests.contains_key("tcp1"));
}
