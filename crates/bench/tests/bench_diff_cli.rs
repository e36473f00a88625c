//! End-to-end checks of the `bench_diff` binary: exit codes are the
//! contract CI depends on, so they are pinned here against synthetic
//! snapshot fixtures rather than left to the library tests alone.

use std::path::PathBuf;
use std::process::Command;

const BASELINE: &str = r#"{
  "schema": "perfport-bench-gemm/2",
  "quick": false,
  "points": [
    {"n": 1024, "precision": "FP64",
     "gflops": {"c-openmp": 5.0, "kokkos": 4.8, "vendor": 9.0},
     "spread": {"c-openmp": 0.01, "kokkos": 0.01, "vendor": 0.01}}
  ]
}"#;

/// The synthetic regression fixture: vendor drops exactly 10% while the
/// naive variants hold steady.
const REGRESSED: &str = r#"{
  "schema": "perfport-bench-gemm/2",
  "quick": true,
  "points": [
    {"n": 1024, "precision": "FP64",
     "gflops": {"c-openmp": 5.0, "kokkos": 4.8, "vendor": 8.1},
     "spread": {"c-openmp": 0.01, "kokkos": 0.01, "vendor": 0.01}}
  ]
}"#;

fn fixture(name: &str, text: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perfport-bench-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap();
    path
}

fn run(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_diff"))
        .args(args)
        .output()
        .expect("bench_diff must run");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code().unwrap_or(-1), text)
}

#[test]
fn ten_percent_regression_exits_one() {
    let base = fixture("base.json", BASELINE);
    let cand = fixture("regressed.json", REGRESSED);
    let (code, text) = run(&[base.to_str().unwrap(), cand.to_str().unwrap()]);
    assert_eq!(
        code, 1,
        "a 10% vendor regression must fail the gate:\n{text}"
    );
    assert!(text.contains("REGRESSED"), "verdict missing:\n{text}");
    assert!(text.contains("1 regressed"), "summary missing:\n{text}");
}

#[test]
fn warn_only_reports_but_passes() {
    let base = fixture("base2.json", BASELINE);
    let cand = fixture("regressed2.json", REGRESSED);
    let (code, text) = run(&[
        base.to_str().unwrap(),
        cand.to_str().unwrap(),
        "--warn-only",
    ]);
    assert_eq!(code, 0, "warn-only must not fail:\n{text}");
    assert!(text.contains("REGRESSED"));
    assert!(text.contains("warn-only"));
}

#[test]
fn identical_snapshots_pass() {
    let base = fixture("same-a.json", BASELINE);
    let cand = fixture("same-b.json", BASELINE);
    let (code, text) = run(&[base.to_str().unwrap(), cand.to_str().unwrap()]);
    assert_eq!(code, 0, "identical snapshots must pass:\n{text}");
    assert!(text.contains("0 regressed"));
}

/// A fixture with an embedded manifest pinning the producing ISA.
fn with_isa(isa: &str) -> String {
    BASELINE.replacen(
        "\"quick\": false,",
        &format!("\"quick\": false,\n  \"manifest\": {{\"schema\": \"perfport-manifest/1\", \"simd_isa\": \"{isa}\"}},"),
        1,
    )
}

#[test]
fn cross_isa_comparison_warns_on_stderr_but_passes() {
    let base = fixture("isa-a.json", &with_isa("avx512"));
    let cand = fixture("isa-b.json", &with_isa("portable"));
    let out = Command::new(env!("CARGO_BIN_EXE_bench_diff"))
        .args([base.to_str().unwrap(), cand.to_str().unwrap()])
        .output()
        .expect("bench_diff must run");
    assert_eq!(out.status.code(), Some(0), "warning must not gate");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("different tuned-kernel ISAs") && stderr.contains("avx512"),
        "cross-ISA warning must go to stderr:\n{stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("different tuned-kernel ISAs"),
        "the warning must not pollute stdout:\n{stdout}"
    );
}

#[test]
fn require_same_isa_refuses_cross_isa_with_exit_three() {
    let base = fixture("gate-a.json", &with_isa("avx512"));
    let cand = fixture("gate-b.json", &with_isa("portable"));
    let (code, text) = run(&[
        base.to_str().unwrap(),
        cand.to_str().unwrap(),
        "--require-same-isa",
    ]);
    assert_eq!(code, 3, "cross-ISA under the gate is exit 3:\n{text}");
    assert!(text.contains("refusing to compare across ISAs"));
}

#[test]
fn require_same_isa_passes_matching_snapshots() {
    let base = fixture("gate-c.json", &with_isa("neon"));
    let cand = fixture("gate-d.json", &with_isa("neon"));
    let (code, text) = run(&[
        base.to_str().unwrap(),
        cand.to_str().unwrap(),
        "--require-same-isa",
    ]);
    assert_eq!(code, 0, "same-ISA snapshots must pass the gate:\n{text}");
}

#[test]
fn require_same_isa_refuses_snapshots_without_provenance() {
    // BASELINE carries no manifest: under the gate that is unprovable
    // like-for-likeness, not a silent pass.
    let base = fixture("gate-e.json", BASELINE);
    let cand = fixture("gate-f.json", &with_isa("avx2"));
    let (code, text) = run(&[
        base.to_str().unwrap(),
        cand.to_str().unwrap(),
        "--require-same-isa",
    ]);
    assert_eq!(
        code, 3,
        "missing provenance under the gate is exit 3:\n{text}"
    );
    assert!(text.contains("no simd_isa manifest"));
}

/// A GPU-simulator snapshot as `gpu_gemm` emits it (trimmed to the keys
/// the parser reads; the extra per-point device blocks are ignored).
const GPU_BASE: &str = r#"{
  "schema": "perfport-bench-gpu/1",
  "quick": true,
  "manifest": {"schema": "perfport-manifest/1", "simd_isa": "avx2"},
  "devices": {"a100": "NVIDIA A100"},
  "headroom": {"a100": {"FP64": 4.0}},
  "points": [
    {"n": 64, "precision": "FP64",
     "gflops": {"cuda": 0.070, "tiled-nvidia": 0.050},
     "spread": {"cuda": 0.050, "tiled-nvidia": 0.030}}
  ]
}"#;

#[test]
fn gpu_snapshot_self_compare_passes() {
    let base = fixture("gpu-a.json", GPU_BASE);
    let cand = fixture("gpu-b.json", GPU_BASE);
    let (code, text) = run(&[base.to_str().unwrap(), cand.to_str().unwrap()]);
    assert_eq!(code, 0, "identical GPU snapshots must pass:\n{text}");
    assert!(text.contains("0 regressed"), "summary missing:\n{text}");
    assert!(
        text.contains("tiled-nvidia"),
        "GPU variants must appear in the report:\n{text}"
    );
}

#[test]
fn gpu_and_gemm_snapshots_are_refused_with_named_schemas() {
    let base = fixture("gpu-c.json", GPU_BASE);
    let cand = fixture("gemm-c.json", BASELINE);
    let (code, text) = run(&[base.to_str().unwrap(), cand.to_str().unwrap()]);
    assert_eq!(code, 2, "gpu-vs-gemm must be refused:\n{text}");
    assert!(text.contains("snapshot kinds differ"), "{text}");
    assert!(
        text.contains("perfport-bench-gpu/1") && text.contains("perfport-bench-gemm/2"),
        "the refusal must name both schemas:\n{text}"
    );
    assert!(
        text.contains("GPU simulator") && text.contains("host GEMM"),
        "the refusal must describe both kinds:\n{text}"
    );
}

#[test]
fn spreadless_cells_gate_on_the_blanket_floor() {
    // A snapshot with no committed spreads: a 3% drop sits inside the
    // documented 5% blanket floor even with the configured floor at 0.
    let no_spread = GPU_BASE.replace(
        "\"spread\": {\"cuda\": 0.050, \"tiled-nvidia\": 0.030}",
        "\"spread\": {}",
    );
    let drooped = no_spread.replace("\"cuda\": 0.070", "\"cuda\": 0.068");
    let base = fixture("flat-a.json", &no_spread);
    let cand = fixture("flat-b.json", &drooped);
    let (code, text) = run(&[
        base.to_str().unwrap(),
        cand.to_str().unwrap(),
        "--floor",
        "0",
    ]);
    assert_eq!(code, 0, "a 3% drop is inside the blanket floor:\n{text}");
    // A 10% drop is not.
    let worse = no_spread.replace("\"cuda\": 0.070", "\"cuda\": 0.063");
    let cand = fixture("flat-c.json", &worse);
    let (code, text) = run(&[
        base.to_str().unwrap(),
        cand.to_str().unwrap(),
        "--floor",
        "0",
    ]);
    assert_eq!(code, 1, "a 10% drop must still gate:\n{text}");
    assert!(text.contains("REGRESSED"));
}

#[test]
fn bad_input_is_a_usage_error_not_a_pass() {
    let base = fixture("base3.json", BASELINE);
    let bogus = fixture("bogus.json", "{\"schema\": \"perfport-trace/1\"}");
    let (code, _) = run(&[base.to_str().unwrap(), bogus.to_str().unwrap()]);
    assert_eq!(code, 2);
    // The retired serving schema is no longer a snapshot kind.
    let serve = fixture(
        "serve.json",
        r#"{"schema": "perfport-bench-serve/2", "quick": true,
            "workload": {"requests": 64},
            "latency_ms": {"p50": 0.05, "p95": 0.12, "p99": 0.2},
            "sustained_gflops": 3.5, "req_per_s": 1900.0}"#,
    );
    let (code, text) = run(&[serve.to_str().unwrap(), serve.to_str().unwrap()]);
    assert_eq!(code, 2, "a retired schema must not pass:\n{text}");
    let (code, _) = run(&[base.to_str().unwrap()]);
    assert_eq!(code, 2);
    let (code, _) = run(&["--frobnicate"]);
    assert_eq!(code, 2);
}
