//! `BENCHMARK.json` at the repository root is well formed and names
//! exactly the workloads and metrics the benchmark reports.

use perfport_benchmark::spec::{self, Better, DEFAULT_SECONDS, END_TO_END, PER_LAYER, WORKLOADS};
use perfport_trace::json::{self, Json};
use std::collections::BTreeSet;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json exceeds 64 KiB");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn keys(j: &Json) -> Vec<&str> {
    match j {
        Json::Object(map) => map.keys().map(String::as_str).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn list<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    j.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("'{key}' is a list"))
}

fn text<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("'{key}' is a string in {j:?}"))
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn top_level_keys_and_limits() {
    let m = manifest();
    assert_eq!(
        keys(&m),
        vec![
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let command: Vec<&str> = list(&m, "command")
        .iter()
        .map(|c| c.as_str().expect("command words are strings"))
        .collect();
    assert!(!command.is_empty() && command.len() <= 32);
    for word in &command {
        assert!(word.len() <= 200 && !word.starts_with('/') && !word.contains(".."));
    }
    assert!(command.contains(&"benchmark/Cargo.toml"));
    let paths: Vec<&str> = list(&m, "paths").iter().filter_map(Json::as_str).collect();
    assert_eq!(paths, vec!["benchmark"]);
    assert_eq!(
        m.get("run_seconds").and_then(Json::as_f64),
        Some(DEFAULT_SECONDS as f64)
    );
    assert!((2..=8).contains(&list(&m, "workloads").len()));
    assert!((1..=16).contains(&list(&m, "end_to_end").len()));
    assert!((1..=128).contains(&list(&m, "per_layer").len()));
}

#[test]
fn names_are_valid_and_used_once() {
    let m = manifest();
    let mut seen = BTreeSet::new();
    for section in ["workloads", "end_to_end", "per_layer"] {
        for entry in list(&m, section) {
            let name = text(entry, "name");
            assert!(is_name(name), "bad name {name:?}");
            assert!(seen.insert(name.to_string()), "{name} is used twice");
        }
    }
}

#[test]
fn workloads_match_the_benchmark_and_say_why() {
    let m = manifest();
    let entries = list(&m, "workloads");
    let names: Vec<&str> = entries.iter().map(|w| text(w, "name")).collect();
    assert_eq!(names, WORKLOADS);
    for w in entries {
        assert_eq!(keys(w), vec!["name", "why"]);
        let why = text(w, "why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }
}

fn check_metrics(entries: &[Json], spec: &[spec::Metric], bounded: bool) {
    assert_eq!(entries.len(), spec.len());
    for (entry, s) in entries.iter().zip(spec) {
        let expected_keys = if bounded {
            vec!["better", "bound", "name", "unit"]
        } else {
            vec!["better", "name", "unit"]
        };
        assert_eq!(keys(entry), expected_keys, "{}", s.name);
        assert_eq!(text(entry, "name"), s.name);
        assert_eq!(text(entry, "unit"), s.unit);
        assert!(is_unit(s.unit), "bad unit {}", s.unit);
        assert_eq!(text(entry, "better"), s.better.name());
        if bounded {
            let bound = entry
                .get("bound")
                .and_then(Json::as_f64)
                .expect("numeric bound");
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", s.name);
        }
    }
}

#[test]
fn every_metric_has_unit_direction_and_bound() {
    let m = manifest();
    check_metrics(list(&m, "end_to_end"), &END_TO_END, true);
    check_metrics(list(&m, "per_layer"), &PER_LAYER, false);
}

#[test]
fn setup_time_is_gated_with_the_largest_bound() {
    let m = manifest();
    let e2e = list(&m, "end_to_end");
    let bound = |e: &Json| e.get("bound").and_then(Json::as_f64).unwrap();
    let setup = e2e
        .iter()
        .find(|e| text(e, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(text(setup, "unit"), "s");
    assert_eq!(text(setup, "better"), Better::Lower.name());
    assert!(e2e.iter().all(|e| bound(e) <= bound(setup)));
}
