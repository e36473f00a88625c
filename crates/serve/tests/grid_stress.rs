//! Repeated-grid stress in the shape of the `study-dist` benchmark: the
//! full paper grid (not the quick sweep), two workers over 127.0.0.1
//! TCP, one point per lease, a fresh session per grid on one listener.
//! A rare session race shows up here as a named failure — the
//! `ServeError` or the first line where the join differs from the
//! single-shot artifact — instead of as one failed benchmark operation
//! with its reason discarded.

use perfport_core::{render_study_csv, run_study_sharded, Shard, StudyConfig};
use perfport_serve::comm::tcp_v1::TcpCommunicator;
use perfport_serve::coordinator::{self, CoordinatorConfig};
use perfport_serve::worker::{self, WorkerConfig, WorkerSummary};
use perfport_serve::{strip_trailer, Communicator, ServeError};
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Grids served back to back.
const GRIDS: usize = 300;
const WORKERS: usize = 2;
/// How long any one step of a session may take.
const PATIENCE: Duration = Duration::from_secs(20);

/// Names the first line where `joined` differs from `expected`.
fn first_difference(joined: &str, expected: &str) -> String {
    let mut got = joined.lines();
    for (n, want) in expected.lines().enumerate() {
        match got.next() {
            Some(line) if line == want => {}
            Some(line) => return format!("line {}: got {line:?}, expected {want:?}", n + 1),
            None => return format!("line {}: missing, expected {want:?}", n + 1),
        }
    }
    match got.next() {
        Some(extra) => format!("extra line after the last: {extra:?}"),
        None => "no line differs".to_string(),
    }
}

/// Accepts one connection on the non-blocking `listener` within
/// [`PATIENCE`].
fn accept(listener: &TcpListener) -> std::io::Result<TcpStream> {
    let deadline = Instant::now() + PATIENCE;
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

#[test]
fn hundreds_of_full_grids_over_tcp_all_join_byte_identical() {
    let cfg = CoordinatorConfig {
        lease_points: 1,
        deadline: Some(PATIENCE),
        ..CoordinatorConfig::default()
    };
    let ids: Vec<&str> = cfg.ids.iter().map(String::as_str).collect();
    let expected = render_study_csv(
        &run_study_sharded(&ids, &StudyConfig::default(), Shard::FULL, 1),
        true,
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    listener
        .set_nonblocking(true)
        .expect("a listener can stop blocking");
    let addr = listener
        .local_addr()
        .expect("a bound listener has an address");

    // One thread per worker, one session per `go`, as in the benchmark.
    let mut workers = Vec::with_capacity(WORKERS);
    for i in 0..WORKERS {
        let (go, go_rx) = mpsc::channel::<()>();
        let (done_tx, done) = mpsc::channel::<Result<WorkerSummary, ServeError>>();
        let handle = std::thread::spawn(move || {
            let wcfg = WorkerConfig::new(format!("w{i}"));
            while go_rx.recv().is_ok() {
                let session = TcpCommunicator::connect(addr, PATIENCE)
                    .map_err(ServeError::from)
                    .and_then(|mut tcp| worker::run(&mut tcp, &wcfg));
                if done_tx.send(session).is_err() {
                    break;
                }
            }
        });
        workers.push((go, done, handle));
    }

    let mut failures = Vec::new();
    for grid in 0..GRIDS {
        for (go, _, _) in &workers {
            go.send(()).expect("worker threads outlive the loop");
        }
        let (tx, rx) = mpsc::channel::<Box<dyn Communicator>>();
        for _ in 0..WORKERS {
            let stream = accept(&listener).expect("both workers connect");
            tx.send(Box::new(TcpCommunicator::new(stream)))
                .expect("the coordinator is not running yet");
        }
        drop(tx);
        let joined = coordinator::run(rx, &cfg);
        let sessions: Vec<_> = workers
            .iter()
            .map(|(_, done, _)| done.recv_timeout(PATIENCE))
            .collect();
        match joined {
            Err(e) => failures.push(format!("grid {grid}: coordinator: {e}")),
            Ok(joined) => {
                if joined.csv != expected {
                    failures.push(format!(
                        "grid {grid}: joined CSV, {}",
                        first_difference(&joined.csv, &expected)
                    ));
                }
                let stripped = strip_trailer(&joined.render());
                if stripped != expected {
                    failures.push(format!(
                        "grid {grid}: stripped artifact, {}",
                        first_difference(&stripped, &expected)
                    ));
                }
            }
        }
        for (i, session) in sessions.into_iter().enumerate() {
            match session {
                Ok(Ok(_)) => {}
                Ok(Err(e)) => failures.push(format!("grid {grid}: worker w{i}: {e}")),
                Err(_) => failures.push(format!("grid {grid}: worker w{i}: session did not end")),
            }
        }
        if !failures.is_empty() {
            break;
        }
    }
    for (go, _, handle) in workers {
        drop(go);
        handle.join().expect("worker thread exits cleanly");
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
