//! Regression sentinel: compares two bench snapshots (`BENCH_gemm.json`,
//! `BENCH_serve.json`, or `BENCH_gpu.json`) point-by-point with
//! noise-aware thresholds and exits non-zero when a cell regressed
//! beyond its tolerance. Both files must record the same workload kind;
//! comparing, say, a GPU snapshot against a host GEMM one is refused
//! with exit 2 and a message naming both schemas.
//!
//! The tolerance for each `(n, precision, variant)` cell is derived from
//! the rep spreads *committed in the snapshots themselves* (see
//! `perfport_bench::diff`), so a naturally noisy cell does not flap CI
//! while a rock-steady one stays tight. Typical use:
//!
//! ```text
//! cargo run -p perfport-bench --bin host_gemm -- --quick   # writes BENCH_gemm.json
//! cargo run -p perfport-bench --bin bench_diff -- baseline.json BENCH_gemm.json
//! ```
//!
//! `--warn-only` reports regressions but exits 0 — the mode CI uses on
//! shared runners, where machine noise makes a hard gate dishonest.
//!
//! Snapshots from different tuned-kernel ISAs always draw a stderr
//! warning (the delta includes the microkernel change, not just the code
//! under test); `--require-same-isa` upgrades that to a refusal with
//! exit code 3, distinct from regression (1) and usage (2), so a gating
//! CI job can refuse apples-to-oranges comparisons outright.

use perfport_bench::diff::{diff, parse_snapshot, DiffConfig, Snapshot, Verdict};

const USAGE: &str = "usage: bench_diff <baseline.json> <candidate.json> \
                     [--warn-only] [--require-same-isa] [--floor <rel>] [--spread-factor <x>]";

/// Exit code for `--require-same-isa` refusals: the snapshots are not
/// comparable, which is neither a regression (1) nor a usage error (2).
const EXIT_ISA_MISMATCH: i32 = 3;

fn fail_usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn load(path: &str) -> Snapshot {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail_usage(&format!("cannot read {path}: {e}")));
    parse_snapshot(&text).unwrap_or_else(|e| fail_usage(&format!("{path}: {e}")))
}

fn main() {
    let mut paths: Vec<String> = Vec::new();
    let mut warn_only = false;
    let mut require_same_isa = false;
    let mut cfg = DiffConfig::default();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--warn-only" => warn_only = true,
            "--require-same-isa" => require_same_isa = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--floor" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v >= 0.0 => cfg.floor = v,
                _ => fail_usage("--floor requires a non-negative number"),
            },
            "--spread-factor" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v >= 0.0 => cfg.spread_factor = v,
                _ => fail_usage("--spread-factor requires a non-negative number"),
            },
            other if !other.starts_with('-') => paths.push(a),
            other => fail_usage(&format!("unknown argument '{other}'")),
        }
    }
    let [base_path, cand_path] = paths.as_slice() else {
        fail_usage("expected exactly two snapshot paths");
    };
    let base = load(base_path);
    let cand = load(cand_path);
    if base.kind != cand.kind {
        // Disjoint workload kinds can never share a cell; refuse up
        // front with the schemas named instead of a generic no-overlap
        // error after the fact.
        eprintln!(
            "error: snapshot kinds differ: {base_path} is a {} snapshot ('{}') \
             but {cand_path} is a {} snapshot ('{}'); these measure \
             incommensurable metrics and cannot be compared",
            base.kind.describe(),
            base.schema,
            cand.kind.describe(),
            cand.schema
        );
        std::process::exit(2);
    }
    let isa_of = |s: &Snapshot| s.simd_isa.clone().unwrap_or_else(|| "unknown".to_string());
    println!(
        "baseline:  {base_path} ({}, {} points, isa {})",
        base.schema,
        base.points.len(),
        isa_of(&base)
    );
    println!(
        "candidate: {cand_path} ({}, {} points, isa {})",
        cand.schema,
        cand.points.len(),
        isa_of(&cand)
    );
    // Telemetry never gates: it is context for reading the deltas below
    // (e.g. barrier-wait blowups behind a latency regression).
    let telemetry_of = |s: &Snapshot| match &s.telemetry {
        Some(t) => format!(
            "{} counters, {} gauges, {} histograms",
            t.counters.len(),
            t.gauges.len(),
            t.histograms.len()
        ),
        None => "absent".to_string(),
    };
    println!(
        "telemetry: baseline {}; candidate {}",
        telemetry_of(&base),
        telemetry_of(&cand)
    );
    match (&base.simd_isa, &cand.simd_isa) {
        (Some(bi), Some(ci)) if bi != ci => {
            // Different dispatched microkernels are a legitimate A/B run
            // (e.g. PERFPORT_SIMD=portable), but never a like-for-like
            // regression gate — flag it loudly either way.
            eprintln!(
                "warning: snapshots were produced by different tuned-kernel ISAs \
                 ({bi} vs {ci}); differences below include the microkernel change"
            );
            if require_same_isa {
                eprintln!("error: --require-same-isa: refusing to compare across ISAs");
                std::process::exit(EXIT_ISA_MISMATCH);
            }
        }
        (bi, ci) if require_same_isa && (bi.is_none() || ci.is_none()) => {
            // A snapshot without provenance cannot prove it is
            // like-for-like; under the gating flag that is a refusal too.
            eprintln!(
                "error: --require-same-isa: snapshot(s) carry no simd_isa manifest \
                 (baseline: {}, candidate: {})",
                isa_of(&base),
                isa_of(&cand)
            );
            std::process::exit(EXIT_ISA_MISMATCH);
        }
        _ => {}
    }

    let entries = diff(&base, &cand, &cfg);
    if entries.is_empty() {
        // Nothing comparable is a configuration error, not a pass.
        eprintln!("error: the snapshots share no (n, precision, variant) cells");
        std::process::exit(2);
    }

    println!(
        "\n  {:>6} {:>5} {:>10} {:>10} {:>10} {:>8} {:>8}  verdict",
        "n", "prec", "variant", "base", "cand", "change", "tol"
    );
    let mut regressed = 0usize;
    let mut improved = 0usize;
    for e in &entries {
        let mark = match e.verdict {
            Verdict::Regressed => {
                regressed += 1;
                "REGRESSED"
            }
            Verdict::Improved => {
                improved += 1;
                "improved"
            }
            Verdict::Ok => "ok",
        };
        println!(
            "  {:>6} {:>5} {:>10} {:>10.3} {:>10.3} {:>+7.1}% {:>7.1}%  {mark}",
            e.n,
            e.precision,
            e.variant,
            e.base,
            e.cand,
            e.rel_change * 100.0,
            e.threshold * 100.0
        );
    }
    println!(
        "\n{} cells compared: {regressed} regressed, {improved} improved, {} within noise",
        entries.len(),
        entries.len() - regressed - improved
    );
    if regressed > 0 {
        if warn_only {
            println!("warn-only mode: not failing the run");
        } else {
            std::process::exit(1);
        }
    }
}
