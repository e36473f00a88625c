//! Integration: the tracing subsystem observes the whole pipeline
//! (pool regions → simulated kernel launches → runner size points →
//! study figures) and exports usable artifacts.
//!
//! This file is its own test binary, so the global tracer is not shared
//! with other integration suites; tests here still serialize among
//! themselves because the collector slot is process-wide.

use perfport::core::{run_experiment, Experiment, StudyConfig};
use perfport::machines::Precision;
use perfport::models::{Arch, ProgModel};
use perfport::trace::{self, EventKind};
use std::sync::Mutex;

static TRACER: Mutex<()> = Mutex::new(());

fn count_span_ends(events: &[trace::Event], cat: &str, name: &str) -> usize {
    events
        .iter()
        .filter(|e| e.kind == EventKind::SpanEnd && e.cat == cat && e.name == name)
        .count()
}

#[test]
fn full_pipeline_emits_spans_from_every_layer() {
    let _guard = TRACER.lock().unwrap_or_else(|e| e.into_inner());
    let session = trace::TraceSession::start();
    let mut cfg = StudyConfig::quick();
    // The verification memo is process-global and keyed by seed; a
    // test-unique seed keeps the fresh-verification (and hence GPU
    // launch) counts independent of whichever sibling test ran first.
    cfg.seed = 0xF19A;
    let spec = perfport::core::figure_specs()
        .into_iter()
        .find(|s| s.id == "fig7a")
        .expect("fig7a registered");
    let rows = spec.run(&cfg);
    let events = session.finish();
    assert_eq!(rows.len(), 4);

    // Study layer: one figure span.
    assert_eq!(count_span_ends(&events, "study", "figure"), 1);
    // Runner layer: one experiment span per curve, one verify each,
    // and a size-point span per (curve, size).
    assert_eq!(count_span_ends(&events, "runner", "experiment"), 4);
    assert_eq!(count_span_ends(&events, "runner", "verify"), 4);
    assert_eq!(
        count_span_ends(&events, "runner", "size_point"),
        4 * cfg.gpu_sizes.len()
    );
    // GPU layer: every verification ran a simulated launch.
    assert!(count_span_ends(&events, "gpu", "launch") >= 4);
    // Pool layer is exercised by CPU experiments.
    let cpu_session = trace::TraceSession::start();
    let mut cpu_exp = Experiment::new(
        Arch::Epyc7A53,
        ProgModel::COpenMp,
        Precision::Double,
        vec![1024],
    );
    cpu_exp.seed = 0xF19A;
    run_experiment(&cpu_exp).unwrap();
    let cpu_events = cpu_session.finish();
    assert!(count_span_ends(&cpu_events, "pool", "parallel_for") >= 1);
    assert!(count_span_ends(&cpu_events, "pool", "region") >= 1);

    // Every span end has a matching begin, and timestamps are sane.
    for (cat, name) in [
        ("study", "figure"),
        ("runner", "experiment"),
        ("runner", "size_point"),
        ("gpu", "launch"),
    ] {
        let begins = events
            .iter()
            .filter(|e| e.kind == EventKind::SpanBegin && e.cat == cat && e.name == name)
            .count();
        assert_eq!(
            begins,
            count_span_ends(&events, cat, name),
            "unbalanced {cat}:{name} spans"
        );
    }
}

#[test]
fn chrome_export_round_trips_and_summary_renders() {
    let _guard = TRACER.lock().unwrap_or_else(|e| e.into_inner());
    let session = trace::TraceSession::start();
    run_experiment(&Experiment::new(
        Arch::A100,
        ProgModel::Cuda,
        Precision::Double,
        vec![4096],
    ))
    .unwrap();
    let events = session.finish();
    assert!(!events.is_empty());

    let chrome = trace::export::chrome(&events);
    assert!(chrome.contains("\"traceEvents\""));
    let imported = trace::export::import_chrome(&chrome).expect("valid chrome trace");
    assert_eq!(imported.len(), events.len());
    for (a, b) in imported.iter().zip(&events) {
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.name, b.name);
        assert_eq!(a.cat, b.cat);
        assert_eq!(a.tid, b.tid);
    }

    let summary = trace::summary::render(&events);
    assert!(summary.contains("runner:experiment"), "{summary}");
    assert!(summary.contains("runner:size_point"), "{summary}");
    assert!(summary.contains("runner:gflops"), "{summary}");
    assert!(
        !summary.contains("unmatched"),
        "summary flagged broken span nesting:\n{summary}"
    );
}

#[test]
fn disabled_tracing_records_nothing_and_results_match() {
    let _guard = TRACER.lock().unwrap_or_else(|e| e.into_inner());
    let exp = Experiment::new(
        Arch::AmpereAltra,
        ProgModel::JuliaThreads,
        Precision::Single,
        vec![1024, 4096],
    );
    assert!(!trace::enabled());
    let off = run_experiment(&exp).unwrap();

    let session = trace::TraceSession::start();
    let on = run_experiment(&exp).unwrap();
    let events = session.finish();
    assert!(!events.is_empty());

    for (x, y) in off.points.iter().zip(&on.points) {
        assert_eq!(x.gflops.to_bits(), y.gflops.to_bits());
        assert_eq!(x.seconds.to_bits(), y.seconds.to_bits());
        for (sx, sy) in x.samples.iter().zip(&y.samples) {
            assert_eq!(sx.to_bits(), sy.to_bits());
        }
    }
    assert_eq!(off.verification_rel_err, on.verification_rel_err);
    assert_eq!(
        off.warmup_excluded_s.to_bits(),
        on.warmup_excluded_s.to_bits()
    );
}

#[test]
fn counters_carry_the_modelled_throughput() {
    let _guard = TRACER.lock().unwrap_or_else(|e| e.into_inner());
    let session = trace::TraceSession::start();
    let result = run_experiment(&Experiment::new(
        Arch::A100,
        ProgModel::KokkosCuda,
        Precision::Single,
        vec![8192],
    ))
    .unwrap();
    let events = session.finish();

    let gflops_counters: Vec<f64> = events
        .iter()
        .filter(|e| e.kind == EventKind::Counter && e.cat == "runner" && e.name == "gflops")
        .filter_map(|e| e.arg("value").and_then(|v| v.as_f64()))
        .collect();
    assert_eq!(gflops_counters.len(), 1);
    assert_eq!(gflops_counters[0], result.points[0].gflops);

    // The size-point span carries the same number as an end-event arg.
    let sp = events
        .iter()
        .find(|e| e.kind == EventKind::SpanEnd && e.cat == "runner" && e.name == "size_point")
        .expect("size_point span");
    let arg = sp.arg("gflops").and_then(|v| v.as_f64()).unwrap();
    assert_eq!(arg, result.points[0].gflops);
}
