//! Prometheus-text exposition of a bench snapshot's `telemetry` block.
//!
//! The bench binaries embed their always-on runtime telemetry (sharded
//! counters, gauges, log₂ streaming histograms) in `BENCH_gemm.json` /
//! `BENCH_gpu.json`. This tool re-renders that block in Prometheus
//! text exposition format — the lingua franca of scrape-based
//! monitoring — so a run's metrics can be pushed to a gateway, diffed
//! with `promtool`, or eyeballed without a JSON pretty-printer:
//!
//! ```text
//! cargo run -p perfport-bench --bin telemetry_report -- BENCH_gemm.json
//! ```
//!
//! Counters and gauges become single series; each histogram expands to
//! cumulative `_bucket{le="…"}` series (bucket upper bounds) plus exact
//! `_sum`/`_count`. All names are sanitized and prefixed `perfport_`.
//!
//! Exit codes: 0 on success, 1 when the snapshot carries no usable
//! telemetry block (pre-telemetry schema, or a `stub`-built producer),
//! 2 on usage errors.

use perfport_bench::diff::parse_snapshot;

const USAGE: &str = "usage: telemetry_report <BENCH_gemm.json | BENCH_gpu.json>";

fn fail_usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut paths: Vec<String> = Vec::new();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other if !other.starts_with('-') => paths.push(a),
            other => fail_usage(&format!("unknown argument '{other}'")),
        }
    }
    let [path] = paths.as_slice() else {
        fail_usage("expected exactly one snapshot path");
    };
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail_usage(&format!("cannot read {path}: {e}")));
    let snap = parse_snapshot(&text).unwrap_or_else(|e| fail_usage(&format!("{path}: {e}")));
    let Some(telemetry) = snap.telemetry else {
        eprintln!(
            "error: {path} ({}) carries no telemetry block — produced by a \
             pre-telemetry schema or a stub-built binary",
            snap.schema
        );
        std::process::exit(1);
    };
    print!("{}", telemetry.prometheus());
}
