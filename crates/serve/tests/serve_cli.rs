//! CLI tests for the `serve_coordinator` / `serve_worker` binaries:
//! the `--local` self-test and the real TCP pairing both produce a
//! joined artifact whose body is byte-identical to the single-shot
//! study, usage errors exit 2, and the fault-injection drill exits 3.

use perfport_core::{render_study_csv, run_study_sharded, Shard, StudyConfig};
use perfport_trace::json::{self, Json};
use std::io::BufRead;
use std::process::{Command, Stdio};

const COORDINATOR: &str = env!("CARGO_BIN_EXE_serve_coordinator");
const WORKER: &str = env!("CARGO_BIN_EXE_serve_worker");

fn single_shot() -> String {
    let results = run_study_sharded(&["fig5c", "fig7a"], &StudyConfig::quick(), Shard::FULL, 1);
    render_study_csv(&results, true)
}

fn strip_comment_lines(rendered: &str) -> String {
    rendered
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| format!("{line}\n"))
        .collect()
}

/// Asserts that each `# worker-manifest <ident> leases=<n> <payload>`
/// trailer line carries one `perfport-manifest/1` JSON object.
fn assert_manifests_parse(rendered: &str) {
    let lines: Vec<&str> = rendered
        .lines()
        .filter_map(|line| line.strip_prefix("# worker-manifest "))
        .collect();
    assert!(!lines.is_empty(), "no worker manifests in:\n{rendered}");
    for line in lines {
        let payload = line.splitn(3, ' ').nth(2).expect("ident, leases, payload");
        let doc = json::parse(payload).unwrap_or_else(|e| panic!("{e}: {line}"));
        let schema = doc.get("schema").and_then(Json::as_str);
        assert_eq!(schema, Some("perfport-manifest/1"), "{line}");
    }
}

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("perfport-serve-{}-{name}", std::process::id()))
}

#[test]
fn local_self_test_writes_the_joined_artifact() {
    let out = temp_path("local.csv");
    let status = Command::new(COORDINATOR)
        .args([
            "--local",
            "2",
            "--figures",
            "fig5c,fig7a",
            "--quick",
            "--lease",
            "3",
            "--deadline-ms",
            "120000",
            "--out",
        ])
        .arg(&out)
        .stderr(Stdio::null())
        .status()
        .expect("spawn coordinator");
    assert!(status.success());
    let rendered = std::fs::read_to_string(&out).expect("joined artifact written");
    let _ = std::fs::remove_file(&out);
    assert_eq!(strip_comment_lines(&rendered), single_shot());
    assert!(rendered.contains("# perfport-serve/1 join trailer"));
    assert!(rendered.contains("# worker-manifest w0 "));
    assert!(rendered.contains("# worker-manifest w1 "));
    assert_manifests_parse(&rendered);
}

#[test]
fn local_kill_drill_is_byte_identical() {
    let output = Command::new(COORDINATOR)
        .args([
            "--local=3",
            "--kill-worker=1",
            "--kill-after=2",
            "--figures=fig5c,fig7a",
            "--quick",
            "--lease=2",
            "--retries=5",
            "--deadline-ms=120000",
        ])
        .stderr(Stdio::null())
        .output()
        .expect("spawn coordinator");
    assert!(output.status.success());
    let rendered = String::from_utf8(output.stdout).expect("CSV is UTF-8");
    assert_eq!(strip_comment_lines(&rendered), single_shot());
    // The killed worker's provenance is still embedded.
    assert!(rendered.contains("# worker-manifest w1 "));
    assert_manifests_parse(&rendered);
}

#[test]
fn tcp_pairing_with_fault_injection_is_byte_identical() {
    let out = temp_path("tcp.csv");
    let mut coordinator = Command::new(COORDINATOR)
        .args([
            "--figures",
            "fig5c,fig7a",
            "--quick",
            "--listen",
            "127.0.0.1:0",
            "--lease",
            "2",
            "--retries",
            "5",
            "--deadline-ms",
            "120000",
            "--out",
        ])
        .arg(&out)
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn coordinator");

    // The coordinator announces its bound ephemeral port on stderr.
    let stderr = coordinator.stderr.take().expect("stderr piped");
    let mut reader = std::io::BufReader::new(stderr);
    let addr = loop {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("read stderr") > 0,
            "coordinator exited before announcing its address"
        );
        if let Some(rest) = line.trim().strip_prefix("coordinator: listening on ") {
            break rest.to_string();
        }
    };
    // Keep draining stderr so the coordinator never blocks on the pipe.
    std::thread::spawn(move || for _ in reader.lines() {});

    // The doomed worker connects first so it is guaranteed a lease (and
    // therefore a mid-lease death) before the healthy worker can drain
    // the grid.
    let doomed = Command::new(WORKER)
        .args([
            "--connect",
            &addr,
            "--ident",
            "tcp-doomed",
            "--fail-after",
            "1",
        ])
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn doomed worker");
    let healthy = Command::new(WORKER)
        .args(["--connect", &addr, "--ident", "tcp-healthy"])
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn healthy worker");

    let doomed_status = doomed.wait_with_output().expect("doomed worker exits");
    assert_eq!(
        doomed_status.status.code(),
        Some(3),
        "fault injection exits 3"
    );
    assert!(healthy
        .wait_with_output()
        .expect("healthy worker exits")
        .status
        .success());
    assert!(coordinator.wait().expect("coordinator exits").success());

    let rendered = std::fs::read_to_string(&out).expect("joined artifact written");
    let _ = std::fs::remove_file(&out);
    assert_eq!(strip_comment_lines(&rendered), single_shot());
    assert!(rendered.contains("# worker-manifest tcp-healthy "));
    assert!(rendered.contains("# worker-manifest tcp-doomed leases=0 "));
    assert_manifests_parse(&rendered);
}

#[test]
fn coordinator_usage_errors_exit_2() {
    for args in [
        vec!["--nonsense"],
        vec!["--local", "0"],
        vec!["--local", "2", "--listen", "127.0.0.1:0"],
        vec!["--kill-worker", "1"],
        vec!["--figures"],
        vec!["--figures", ""],
        vec!["--lease", "zero"],
    ] {
        let output = Command::new(COORDINATOR)
            .args(&args)
            .output()
            .expect("spawn coordinator");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}

#[test]
fn worker_usage_errors_exit_2() {
    for args in [vec![], vec!["--connect"], vec!["--fail-after", "x"]] {
        let output = Command::new(WORKER)
            .args(&args)
            .output()
            .expect("spawn worker");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
    }
}

#[test]
fn unknown_figure_panel_exits_1_with_a_named_error() {
    let output = Command::new(COORDINATOR)
        .args(["--local", "1", "--figures", "fig9z", "--quick"])
        .output()
        .expect("spawn coordinator");
    assert_eq!(output.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&output.stderr).contains("fig9z"));
}

#[test]
fn unreachable_coordinator_exits_1() {
    let output = Command::new(WORKER)
        .args(["--connect", "127.0.0.1:9", "--patience-ms", "200"])
        .output()
        .expect("spawn worker");
    assert_eq!(output.status.code(), Some(1));
}
