//! The telemetry names the repository benchmark reads by string
//! (`benchmark/src`) are recorded when their paths run. A renamed or
//! dropped metric would otherwise zero a per-layer number without any
//! error; here it fails the suite.

use perfport::gemm::{batch, tuned, Layout, Matrix, Problem};
use perfport::pool::ThreadPool;
use perfport::serve::coordinator::{self, CoordinatorConfig};
use perfport::serve::local::run_local;
use perfport::serve::worker::{self, WorkerConfig};
use perfport::serve::{Communicator, Frame, Loopback, Role};
use std::sync::mpsc;
use std::time::Duration;

/// Counters every workload's per-layer numbers are read from.
const COUNTERS: &[&str] = &[
    "gemm/microkernel_calls",
    "gemm/pack_a_bytes",
    "gemm/pack_b_bytes",
    "pool/regions",
    "serve/leases_granted",
    "serve/heartbeats",
];

/// Histograms the benchmark sums.
const HISTOGRAMS: &[&str] = &["gemm/pack_ns", "gemm/compute_ns"];

/// The per-bucket service-time family serve-batch and serve-single sum
/// by prefix.
const SERVICE_NS: &str = "batch/service_ns/";

/// Serves `cfg` to a hand-driven peer that takes a lease, sends one
/// `Heartbeat` and leaves, then to a real worker that finishes the
/// grid. A worker heartbeats only after a point slower than half the
/// TTL, which no quick grid point is, so the heartbeat path needs a
/// peer that sends one on purpose.
fn serve_with_one_heartbeat(cfg: &CoordinatorConfig) {
    let (beat_coord_end, mut beat_end) = Loopback::pair();
    let (live_coord_end, mut live_end) = Loopback::pair();
    let (tx, rx) = mpsc::channel::<Box<dyn Communicator>>();
    tx.send(Box::new(beat_coord_end)).unwrap();
    tx.send(Box::new(live_coord_end)).unwrap();
    drop(tx);
    let peers = std::thread::spawn(move || {
        beat_end
            .send(&Frame::Hello {
                role: Role::Worker,
                ident: "beat".to_string(),
                detail: "{}".to_string(),
            })
            .unwrap();
        assert!(matches!(beat_end.recv().unwrap(), Frame::Hello { .. }));
        let Frame::Lease { lease_id, .. } = beat_end.recv().unwrap() else {
            panic!("the only introduced worker gets a lease");
        };
        beat_end
            .send(&Frame::Heartbeat { lease_id, done: 0 })
            .unwrap();
        beat_end
            .send(&Frame::Bye {
                reason: "leaving".to_string(),
            })
            .unwrap();
        worker::run(&mut live_end, &WorkerConfig::new("live"))
    });
    coordinator::run(rx, cfg).expect("the live worker finishes the grid");
    peers
        .join()
        .unwrap()
        .expect("the live worker leaves cleanly");
}

#[test]
fn every_name_the_benchmark_reads_is_recorded() {
    if perfport_telemetry::build_mode() != "on" {
        return;
    }
    let before = perfport_telemetry::snapshot();

    let pool = ThreadPool::new(2);
    // Column-major `A`: row-major operands that fit one cache block run
    // unpacked, and this call must pack.
    let a = Matrix::<f64>::random(64, 48, Layout::ColMajor, 1);
    let b = Matrix::<f64>::random(48, 40, Layout::RowMajor, 2);
    let mut c = Matrix::<f64>::zeros(64, 40, Layout::RowMajor);
    tuned::gemm(&pool, &a, &b, &mut c, &tuned::TunedParams::host::<f64>());

    let problems = [
        Problem::new_f64(
            Matrix::random(4, 8, Layout::RowMajor, 3),
            Matrix::random(8, 12, Layout::RowMajor, 4),
        ),
        Problem::new_f32(
            Matrix::random(16, 4, Layout::RowMajor, 5),
            Matrix::random(4, 8, Layout::RowMajor, 6),
        ),
    ];
    assert_eq!(batch::gemm_batch(&pool, &problems).len(), 2);

    let cfg = CoordinatorConfig {
        ids: vec!["fig7a".to_string()],
        quick: true,
        lease_points: 1,
        ttl: Duration::from_secs(30),
        backoff: Duration::from_millis(10),
        max_retries: 3,
        deadline: Some(Duration::from_secs(120)),
        verbose: false,
    };
    run_local(&cfg, 1, None).expect("a loopback study session completes");
    serve_with_one_heartbeat(&cfg);

    let delta = perfport_telemetry::snapshot().delta_since(&before);
    for name in COUNTERS {
        let value = delta.counters.get(*name).copied().unwrap_or(0);
        assert!(value > 0, "counter {name} was not recorded");
    }
    for name in HISTOGRAMS {
        let count = delta.histograms.get(*name).map_or(0, |h| h.count);
        assert!(count > 0, "histogram {name} was not recorded");
    }
    let served: u64 = delta
        .histograms
        .iter()
        .filter(|(name, _)| name.starts_with(SERVICE_NS))
        .map(|(_, h)| h.count)
        .sum();
    assert!(
        served >= 2,
        "{SERVICE_NS}* recorded {served} of the batch's 2 problems"
    );
}
