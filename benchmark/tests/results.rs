//! The result line and the all-workloads report survive a write/parse
//! round trip, the result line has exactly the keys a run promises, and
//! the committed baseline covers every workload and metric.

use perfport_benchmark::results::{Report, RunResult, WorkloadReport};
use perfport_benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use perfport_trace::json::{self, Json};

fn run(values: &[(&str, f64, &str)], failed: u64) -> RunResult {
    RunResult {
        correct: failed == 0,
        attempted: 1234,
        failed,
        metrics: values
            .iter()
            .map(|&(n, v, u)| (n.to_string(), (v, u.to_string())))
            .collect(),
    }
}

#[test]
fn result_line_round_trips_with_exact_keys() {
    let r = run(
        &[
            ("best_1s_ms", 77.848469, "ms"),
            ("ops_per_s", 12.619909218580714, "1/s"),
            ("setup_s", 0.113410008, "s"),
        ],
        0,
    );
    let line = r.to_line();
    assert!(!line.contains('\n'));
    assert_eq!(RunResult::parse(&line), Ok(r));
    let Json::Object(top) = json::parse(&line).unwrap() else {
        panic!("result line is an object");
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, vec!["attempted", "correct", "failed", "metrics"]);
    let metric = top["metrics"].get("best_1s_ms").unwrap();
    assert_eq!(metric.get("value").and_then(Json::as_f64), Some(77.848469));
    assert_eq!(metric.get("unit").and_then(Json::as_str), Some("ms"));
}

#[test]
fn malformed_result_lines_are_refused() {
    for bad in [
        "",
        "{}",
        "{\"correct\": true, \"attempted\": 1, \"failed\": 0}",
        "{\"correct\": 1, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}",
        "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"x\": {\"value\": 1}}}",
    ] {
        assert!(RunResult::parse(bad).is_err(), "{bad:?} must be refused");
    }
}

#[test]
fn report_round_trips() {
    let report = Report {
        seed: 1,
        seconds: 10,
        manifest: json::parse("{\"cpu_model\": \"x\", \"threads\": 1}").unwrap(),
        workloads: vec![
            WorkloadReport {
                name: "gemm-large".to_string(),
                runs: vec![
                    run(&[("best_1s_ms", 77.8, "ms"), ("setup_s", 0.11, "s")], 0),
                    run(&[("best_1s_ms", 78.1, "ms"), ("setup_s", 0.12, "s")], 0),
                ],
                traced: Some(run(&[("pool.self_pct", 1.5, "%")], 0)),
            },
            WorkloadReport {
                name: "gpusim".to_string(),
                runs: vec![run(&[("best_1s_ms", 51.3, "ms")], 1)],
                traced: None,
            },
        ],
    };
    let text = report.to_json();
    assert_eq!(Report::parse(&text), Ok(report.clone()));
    // The derived summary is written alongside the runs.
    let summary = report.workloads[0].summary();
    assert_eq!(summary.len(), 2);
    assert_eq!(summary[0].0, "setup_s");
    assert!((summary[1].2 - 77.95).abs() < 1e-9);
    assert!(Report::parse("{\"schema\": \"other\"}").is_err());
}

#[test]
fn committed_baseline_covers_every_workload_and_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/baseline.json");
    let text = std::fs::read_to_string(path).expect("baseline.json is readable");
    let report = Report::parse(&text).expect("baseline.json parses");
    let names: Vec<&str> = report.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(names, WORKLOADS);
    for w in &report.workloads {
        assert_eq!(w.runs.len(), 5, "{}", w.name);
        let traced = w.traced.as_ref().expect("one traced run");
        for run in w.runs.iter().chain([traced]) {
            assert!(run.correct && run.failed == 0, "{}", w.name);
        }
        for r in &w.runs {
            assert!(END_TO_END.iter().all(|m| r.metrics.contains_key(m.name)));
        }
        assert!(PER_LAYER
            .iter()
            .all(|m| traced.metrics.contains_key(m.name)));
    }
}
