//! Native host measurements of the hand-rolled kernels against the tuned
//! vendor-BLAS stand-in — the measured numerator *and* denominator of the
//! paper's host efficiency story, on whatever machine builds this repo.
//!
//! Unlike the figure binaries (which model the paper's machines), every
//! number printed here is a genuine wall-clock measurement of the Rust
//! kernels on the build host, following the paper's protocol: one warm-up
//! run excluded, then the mean of several repetitions. Alongside the
//! human-readable tables the run emits `BENCH_gemm.json`, the machine-
//! readable baseline snapshot (the committed copy at the repo root is the
//! build host's measured vendor-headroom evidence).
//!
//! The snapshot uses schema `perfport-bench-gemm/3`: it carries the run's
//! provenance manifest (git SHA, rustc, CPU model, cache hierarchy and
//! its source), the relative rep spread per cell (what `bench_diff`
//! derives its noise-aware thresholds from), and a `telemetry` block
//! (the always-on runtime counters and streaming histograms recorded
//! during the measured sweep, stamped as deltas from a pre-measurement
//! epoch so warm-up does not inflate them).
//!
//! `--quick` restricts the sweep to the headline 1024² size; the
//! tuned-over-best-naive ratio is printed either way.

use perfport_bench::diff::{rounded, snapshot_json, SnapshotPoint};
use perfport_bench::{HarnessArgs, Manifest};
use perfport_gemm::serial::gemm_loop_order;
use perfport_gemm::{gemm_flops, par_gemm, tuned, CpuVariant, Layout, LoopOrder, Matrix, Scalar};
use perfport_half::F16;
use perfport_pool::{Schedule, ThreadPool};
use perfport_trace::json::Json;
use std::time::Instant;

/// One timed kernel: mean rate and rep noise.
struct Measured {
    gflops: f64,
    /// Relative half-range of the per-rep rates, `(max-min)/(2·mean)` —
    /// the committed noise evidence `bench_diff` thresholds on.
    spread: f64,
}

fn measure(reps: usize, flops: u64, mut run: impl FnMut()) -> Measured {
    run(); // warm-up, excluded (the paper's protocol)
    let mut rates = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        run();
        rates.push(flops as f64 / t0.elapsed().as_secs_f64() / 1e9);
    }
    let mean = rates.iter().sum::<f64>() / reps as f64;
    let (min, max) = rates
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &r| {
            (lo.min(r), hi.max(r))
        });
    Measured {
        gflops: mean,
        spread: if mean > 0.0 {
            (max - min) / (2.0 * mean)
        } else {
            0.0
        },
    }
}

fn serial_sweep<T: Scalar>(reps: usize, n: usize) -> Vec<(&'static str, f64)> {
    let a = Matrix::<T>::random(n, n, Layout::RowMajor, 1);
    let b = Matrix::<T>::random(n, n, Layout::RowMajor, 2);
    LoopOrder::ALL
        .iter()
        .map(|&order| {
            let m = measure(reps, gemm_flops(n, n, n), || {
                let mut c = Matrix::<T>::zeros(n, n, Layout::RowMajor);
                gemm_loop_order(order, &a, &b, &mut c);
                std::hint::black_box(&c);
            });
            (order.name(), m.gflops)
        })
        .collect()
}

/// One size point: every portable model plus the tuned vendor kernel.
struct SizePoint {
    n: usize,
    precision: &'static str,
    /// `(variant name, measurement)` for the four portable models.
    naive: Vec<(&'static str, Measured)>,
    vendor: Measured,
}

impl SizePoint {
    fn best_naive(&self) -> (&'static str, f64) {
        self.naive
            .iter()
            .map(|(name, m)| (*name, m.gflops))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least one portable model")
    }

    fn headroom(&self) -> f64 {
        self.vendor.gflops / self.best_naive().1
    }

    /// Every variant including the vendor kernel, for uniform output.
    fn all(&self) -> impl Iterator<Item = (&'static str, &Measured)> {
        self.naive
            .iter()
            .map(|(name, m)| (*name, m))
            .chain(std::iter::once(("vendor", &self.vendor)))
    }
}

fn measure_point<T: Scalar>(pool: &ThreadPool, reps: usize, n: usize) -> SizePoint {
    let flops = gemm_flops(n, n, n);
    let naive = CpuVariant::ALL
        .iter()
        .map(|&v| {
            let layout = v.layout();
            let a = Matrix::<T>::random(n, n, layout, 3);
            let b = Matrix::<T>::random(n, n, layout, 4);
            let m = measure(reps, flops, || {
                let mut c = Matrix::<T>::zeros(n, n, layout);
                par_gemm(pool, v, &a, &b, &mut c, Schedule::StaticBlock);
                std::hint::black_box(&c);
            });
            (v.name(), m)
        })
        .collect();
    let a = Matrix::<T>::random(n, n, Layout::RowMajor, 3);
    let b = Matrix::<T>::random(n, n, Layout::RowMajor, 4);
    let params = tuned::TunedParams::host::<T>();
    let vendor = measure(reps, flops, || {
        let mut c = Matrix::<T>::zeros(n, n, Layout::RowMajor);
        tuned::gemm(pool, &a, &b, &mut c, &params);
        std::hint::black_box(&c);
    });
    SizePoint {
        n,
        precision: T::NAME,
        naive,
        vendor,
    }
}

fn print_points(points: &[SizePoint], csv: bool) {
    println!(
        "  {:>6} {:>5}  {:>9} {:>9} {:>9} {:>9} {:>9}  {:>10} {:>12}",
        "n", "prec", "c-openmp", "kokkos", "julia", "numba", "vendor", "best-naive", "vendor/naive"
    );
    for p in points {
        let (bn_name, bn) = p.best_naive();
        print!("  {:>6} {:>5} ", p.n, p.precision);
        for (_, m) in &p.naive {
            print!(" {:>9.3}", m.gflops);
        }
        println!(
            " {:>9.3}  {:>10} {:>11.2}x",
            p.vendor.gflops,
            bn_name,
            p.vendor.gflops / bn
        );
    }
    if csv {
        println!("-- csv --");
        println!("n,precision,variant,gflops,spread");
        for p in points {
            for (name, m) in p.all() {
                println!(
                    "{},{},{name},{:.4},{:.4}",
                    p.n, p.precision, m.gflops, m.spread
                );
            }
        }
    }
}

/// The snapshot cells of `p`, rounded to the four decimals written.
fn cells(p: &SizePoint) -> SnapshotPoint {
    let cells = |f: fn(&Measured) -> f64| {
        p.all()
            .map(|(name, m)| (name.to_string(), rounded(f(m), 4)))
            .collect()
    };
    SnapshotPoint {
        n: p.n as u64,
        precision: p.precision.to_string(),
        gflops: cells(|m| m.gflops),
        spread: cells(|m| m.spread),
    }
}

fn json_snapshot(
    points: &[SizePoint],
    manifest: &Manifest,
    telemetry: &perfport_telemetry::Snapshot,
    reps: usize,
    quick: bool,
) -> String {
    let points = points
        .iter()
        .map(|p| {
            let (bn_name, bn) = p.best_naive();
            let own = vec![
                ("best_naive", bn_name.into()),
                ("vendor_over_naive", rounded(p.vendor.gflops / bn, 4).into()),
            ];
            (cells(p), own)
        })
        .collect();
    let doc = snapshot_json(
        "perfport-bench-gemm/3",
        quick,
        manifest,
        reps,
        "gflops",
        telemetry,
        points,
    );
    format!("{}\n", Json::Object(doc).pretty())
}

fn main() {
    let args = HarnessArgs::from_env();
    let trace = args.start_trace();
    let reps = if args.quick { 3 } else { 5 };
    let workers = args.thread_count();
    let pool = ThreadPool::new(workers);
    let manifest = Manifest::collect(workers);
    println!(
        "host: {workers} workers; caches L1d={}K L2={}K L3={}K ({}); {reps} reps after warm-up; tuned microkernel ISA: {}\n",
        manifest.cache.l1d_bytes / 1024,
        manifest.cache.l2_bytes / 1024,
        manifest.cache.l3_bytes / 1024,
        manifest.cache.source,
        manifest.simd_isa
    );
    // Telemetry epoch: everything stamped into the snapshot is a delta
    // from here, so pool construction above stays out of the evidence.
    let epoch = perfport_telemetry::snapshot();

    if !args.quick {
        let n = 256;
        println!("== serial loop orders (FP64, n={n}), measured GFLOP/s ==");
        for (name, g) in serial_sweep::<f64>(reps, n) {
            println!("  {name:<6} {g:>8.3}");
        }
        println!("\n== precision sweep (ikj serial, n={n}), measured GFLOP/s ==");
        for (label, g) in [
            ("FP64", serial_sweep::<f64>(reps, n)[1].1),
            ("FP32", serial_sweep::<f32>(reps, n)[1].1),
            ("FP16 (software)", serial_sweep::<F16>(reps, 128)[1].1),
        ] {
            println!("  {label:<16} {g:>8.3}");
        }
        println!();
    }

    println!("== portable models vs tuned vendor baseline, measured GFLOP/s ==");
    let sizes: &[usize] = if args.quick {
        &[1024]
    } else {
        &[256, 512, 1024]
    };
    let mut points = Vec::new();
    for &n in sizes {
        points.push(measure_point::<f64>(&pool, reps, n));
    }
    points.push(measure_point::<f32>(&pool, reps, 1024));
    print_points(&points, args.csv);

    let headline = points
        .iter()
        .find(|p| p.n >= 1024 && p.precision == "FP64")
        .expect("sweep includes the headline size");
    println!(
        "\nheadline: tuned vendor kernel is {:.2}x the fastest naive model\n\
         ({}) at n={} FP64 — the measured headroom Table III's host\n\
         efficiencies are scaled by.",
        headline.headroom(),
        headline.best_naive().0,
        headline.n
    );

    let telemetry = perfport_telemetry::snapshot().delta_since(&epoch);
    let json = json_snapshot(&points, &manifest, &telemetry, reps, args.quick);
    let path = "BENCH_gemm.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
    if let Some(trace) = trace {
        trace.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfport_bench::diff::parse_snapshot;

    #[test]
    fn a_written_point_reads_back_unchanged() {
        let m = |gflops| Measured {
            gflops,
            spread: 0.012_345,
        };
        let point = SizePoint {
            n: 1024,
            precision: "FP64",
            naive: vec![("c-openmp", m(3.456_789)), ("julia", m(3.5))],
            vendor: m(30.123_456),
        };
        let text = json_snapshot(
            std::slice::from_ref(&point),
            &Manifest::collect(1),
            &perfport_telemetry::Snapshot::default(),
            3,
            true,
        );
        let snap = parse_snapshot(&text).expect("the written snapshot parses");
        assert_eq!(snap.points, vec![cells(&point)]);
        assert_eq!(snap.points[0].gflops["vendor"], 30.1235);
        assert_eq!(snap.points[0].spread["julia"], 0.0123);
    }
}
