//! Measured GPU bench: the gpusim GEMM kernels under host_gemm's
//! one-warm-up-then-reps protocol — the GPU-side counterpart of the
//! measured vendor-headroom evidence in `BENCH_gemm.json`.
//!
//! For each device class the run times the paper's naive kernels
//! (vendor geometry plus Julia's column-major mirror; the Kokkos and
//! Numba variants share their simulator counters with the vendor kernel
//! and are omitted), the tiled shared-memory kernel, and the
//! mixed-precision (FP16-in/FP32-accumulate) variant whose throughput is
//! modelled on the matrix units. Two numbers are recorded per variant:
//!
//! * **`gflops`** — genuine wall-clock throughput of the simulator
//!   executing the kernel (warm-up excluded, mean of reps, relative
//!   half-range spread). This is what `bench_diff` gates: it moves with
//!   the build host and carries real noise evidence.
//! * **`device_gflops`** — the steady-state device estimate: the
//!   kernel's measured counters (element bytes, divergence) and
//!   occupancy pushed through the machine model's derated compute/L1
//!   ceilings (`perfport_machines::steady_state_gflops`; the tensor
//!   variant uses the matrix-unit peak via `tensor_core_gflops`).
//!   Deterministic for a given simulator build.
//!
//! The ratio of the tiled (or tensor) estimate over the best naive
//! estimate per device and precision is the **measured GPU headroom**:
//! the committed constants in `perfport_models::vendor` that Figs 6–7
//! divide their GPU efficiency rows by. The snapshot (`BENCH_gpu.json`,
//! schema `perfport-bench-gpu/1`) embeds the same `perfport-manifest/1`
//! provenance, per-variant rep spreads, and telemetry block as the
//! host GEMM snapshot.
//!
//! `--quick` restricts every precision to the smallest size (the CI
//! smoke configuration; its cells are a subset of the full sweep's).

use perfport_bench::diff::{rounded, snapshot_json, SnapshotPoint};
use perfport_bench::{HarnessArgs, Manifest};
use perfport_gemm::{
    gpu_gemm_mixed, gpu_gemm_tiled_mixed, GpuVariant, Layout, Matrix, Scalar, TILE, TILE_SMEM_ELEMS,
};
use perfport_gpusim::{occupancy, Dim3, Gpu, LaunchStats};
use perfport_half::F16;
use perfport_machines::{
    steady_state_gflops, tensor_core_gflops, GpuKernelProfile, GpuMachine, Precision,
};
use perfport_trace::json::Json;
use std::time::Instant;

/// The paper's GPU block shape (32×32 threads).
const NAIVE_BLOCK: Dim3 = Dim3::d2(32, 32);

/// One modelled device: which machine grounds the estimates and which
/// kernel variants run on its simulator class.
struct Target {
    machine: GpuMachine,
    /// Key used in the snapshot's `headroom`/`devices` maps and in
    /// `models::vendor` provenance.
    key: &'static str,
    naive: &'static [GpuVariant],
    tiled_name: &'static str,
    tensor_name: &'static str,
}

fn targets() -> [Target; 2] {
    [
        Target {
            machine: GpuMachine::a100(),
            key: "a100",
            naive: &[GpuVariant::Cuda, GpuVariant::JuliaCudaJl],
            tiled_name: "tiled-nvidia",
            tensor_name: "tensorcore-nvidia",
        },
        Target {
            machine: GpuMachine::mi250x_gcd(),
            key: "mi250x",
            naive: &[GpuVariant::Hip, GpuVariant::JuliaAmdGpu],
            tiled_name: "tiled-amd",
            tensor_name: "matrixcore-amd",
        },
    ]
}

/// One timed kernel: mean simulator throughput and rep noise.
struct Measured {
    gflops: f64,
    /// Relative half-range of the per-rep rates, `(max-min)/(2·mean)` —
    /// the committed noise evidence `bench_diff` thresholds on.
    spread: f64,
}

fn measure(reps: usize, mut run: impl FnMut() -> LaunchStats) -> (Measured, LaunchStats) {
    // Warm-up, excluded (the paper's protocol). The counters are
    // deterministic across reps, so the warm-up doubles as the capture.
    let stats = run();
    let flops = stats.flops as f64;
    let mut rates = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(run());
        rates.push(flops / t0.elapsed().as_secs_f64() / 1e9);
    }
    let mean = rates.iter().sum::<f64>() / reps as f64;
    let (min, max) = rates
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &r| {
            (lo.min(r), hi.max(r))
        });
    (
        Measured {
            gflops: mean,
            spread: if mean > 0.0 {
                (max - min) / (2.0 * mean)
            } else {
                0.0
            },
        },
        stats,
    )
}

fn profile_of(stats: &LaunchStats) -> GpuKernelProfile {
    GpuKernelProfile {
        flops: stats.flops as f64,
        l1_bytes: (stats.load_bytes + stats.store_bytes) as f64,
        dram_bytes: stats.dram_bytes() as f64,
    }
}

/// One kernel variant on one device class.
struct VariantRow {
    name: &'static str,
    device: &'static str,
    naive: bool,
    measured: Measured,
    /// Steady-state device estimate, GFLOP/s.
    device_gflops: f64,
    /// Occupancy fraction at the variant's block shape + smem footprint.
    occupancy: f64,
}

/// One (n, precision) grid point across both device classes.
struct SizePoint {
    n: usize,
    precision: &'static str,
    rows: Vec<VariantRow>,
    /// Per device key: tiled (or tensor) steady-state estimate over the
    /// best naive estimate — the measured headroom.
    headroom: Vec<(&'static str, f64)>,
}

impl SizePoint {
    fn best_naive(&self) -> &VariantRow {
        self.rows
            .iter()
            .filter(|r| r.naive)
            .max_by(|a, b| a.measured.gflops.total_cmp(&b.measured.gflops))
            .expect("at least one naive variant")
    }
}

/// Measures every variant at one size. `I`/`O` follow
/// `gpu_gemm_mixed`; `tensor` switches the tiled kernel's estimate to
/// the matrix-unit (tensor-core) rate and its tensor-named row.
fn measure_point<I: Scalar, O: Scalar>(
    reps: usize,
    n: usize,
    precision: Precision,
    tensor: bool,
) -> SizePoint {
    let mut rows = Vec::new();
    let mut headroom = Vec::new();
    for t in targets() {
        let class = t.machine.class;
        let gpu = Gpu::new(class);
        let a = Matrix::<I>::random(n, n, Layout::RowMajor, 3);
        let b = Matrix::<I>::random(n, n, Layout::RowMajor, 4);

        let naive_occ = occupancy(class, NAIVE_BLOCK.x * NAIVE_BLOCK.y, 0);
        let mut best_naive_est = 0.0f64;
        for &v in t.naive {
            let (m, stats) = measure(reps, || {
                gpu_gemm_mixed::<I, O>(&gpu, v, &a, &b, NAIVE_BLOCK)
                    .expect("naive launch")
                    .1
            });
            let est = steady_state_gflops(
                &t.machine,
                precision,
                &profile_of(&stats),
                naive_occ.fraction,
                stats.divergence_rate(),
            );
            best_naive_est = best_naive_est.max(est);
            rows.push(VariantRow {
                name: v.name(),
                device: t.key,
                naive: true,
                measured: m,
                device_gflops: est,
                occupancy: naive_occ.fraction,
            });
        }

        let smem_bytes = (TILE_SMEM_ELEMS * std::mem::size_of::<O>()) as u64;
        let tiled_occ = occupancy(class, (TILE * TILE) as u32, smem_bytes);
        let (m, stats) = measure(reps, || {
            gpu_gemm_tiled_mixed::<I, O>(&gpu, &a, &b)
                .expect("tiled launch")
                .1
        });
        let prof = profile_of(&stats);
        let div = stats.divergence_rate();
        let est = if tensor {
            tensor_core_gflops(&t.machine, &prof, tiled_occ.fraction, div)
        } else {
            steady_state_gflops(&t.machine, precision, &prof, tiled_occ.fraction, div)
        };
        rows.push(VariantRow {
            name: if tensor { t.tensor_name } else { t.tiled_name },
            device: t.key,
            naive: false,
            measured: m,
            device_gflops: est,
            occupancy: tiled_occ.fraction,
        });
        headroom.push((t.key, est / best_naive_est));
    }
    SizePoint {
        n,
        precision: if tensor { F16::NAME } else { O::NAME },
        rows,
        headroom,
    }
}

fn print_points(points: &[SizePoint], csv: bool) {
    println!(
        "  {:>6} {:>5} {:>18} {:>8} {:>12} {:>8} {:>12} {:>6}",
        "n", "prec", "variant", "device", "sim-gflops", "spread", "device-est", "occ"
    );
    for p in points {
        for r in &p.rows {
            println!(
                "  {:>6} {:>5} {:>18} {:>8} {:>12.4} {:>8.4} {:>12.1} {:>6.2}",
                p.n,
                p.precision,
                r.name,
                r.device,
                r.measured.gflops,
                r.measured.spread,
                r.device_gflops,
                r.occupancy
            );
        }
        for (key, h) in &p.headroom {
            println!(
                "  {:>6} {:>5}   headroom[{key}] = {h:.2}x",
                p.n, p.precision
            );
        }
    }
    if csv {
        println!("-- csv --");
        println!("n,precision,variant,device,sim_gflops,spread,device_gflops,occupancy");
        for p in points {
            for r in &p.rows {
                println!(
                    "{},{},{},{},{:.4},{:.4},{:.1},{:.4}",
                    p.n,
                    p.precision,
                    r.name,
                    r.device,
                    r.measured.gflops,
                    r.measured.spread,
                    r.device_gflops,
                    r.occupancy
                );
            }
        }
    }
}

/// Headroom per (device key, precision) from the largest measured size.
fn final_headroom(points: &[SizePoint]) -> Vec<(&'static str, Vec<(&'static str, f64)>)> {
    let mut out: Vec<(&'static str, Vec<(&'static str, f64)>)> =
        targets().iter().map(|t| (t.key, Vec::new())).collect();
    for prec in ["FP64", "FP32", "FP16"] {
        let Some(p) = points
            .iter()
            .filter(|p| p.precision == prec)
            .max_by_key(|p| p.n)
        else {
            continue;
        };
        for (key, h) in &p.headroom {
            let slot = out
                .iter_mut()
                .find(|(k, _)| k == key)
                .expect("known device key");
            slot.1.push((prec, *h));
        }
    }
    out
}

/// The snapshot cells of `p`, rounded to the four decimals written.
fn cells(p: &SizePoint) -> SnapshotPoint {
    let cells = |f: fn(&Measured) -> f64| {
        p.rows
            .iter()
            .map(|r| (r.name.to_string(), rounded(f(&r.measured), 4)))
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
    let headroom =
        |pairs: &[(&str, f64)]| Json::object(pairs.iter().map(|&(k, h)| (k, rounded(h, 4).into())));
    let written = points
        .iter()
        .map(|p| {
            let rows = |f: fn(&VariantRow) -> f64| {
                Json::object(p.rows.iter().map(|r| (r.name, f(r).into())))
            };
            let own = vec![
                ("device_gflops", rows(|r| rounded(r.device_gflops, 1))),
                ("occupancy", rows(|r| rounded(r.occupancy, 4))),
                ("headroom", headroom(&p.headroom)),
                ("best_naive", p.best_naive().name.into()),
            ];
            (cells(p), own)
        })
        .collect();
    let mut doc = snapshot_json(
        "perfport-bench-gpu/1",
        quick,
        manifest,
        reps,
        "sim_gflops",
        telemetry,
        written,
    );
    let devices = targets().map(|t| (t.key, t.machine.name.into()));
    doc.insert("devices".to_string(), Json::object(devices));
    let final_headroom = final_headroom(points);
    let final_headroom = final_headroom
        .iter()
        .map(|(key, precs)| (*key, headroom(precs)));
    doc.insert("headroom".to_string(), Json::object(final_headroom));
    format!("{}\n", Json::Object(doc).pretty())
}

fn main() {
    let args = HarnessArgs::from_env();
    let trace = args.start_trace();
    let reps = if args.quick { 3 } else { 5 };
    let workers = args.thread_count();
    let manifest = Manifest::collect(workers);
    println!(
        "gpusim bench: {reps} reps after warm-up; naive block {}x{}, tile {TILE}\n",
        NAIVE_BLOCK.x, NAIVE_BLOCK.y
    );
    // Telemetry epoch: everything stamped into the snapshot is a delta
    // from here.
    let epoch = perfport_telemetry::snapshot();

    println!("== gpusim kernels under the bench protocol ==");
    let fp64_sizes: &[usize] = if args.quick { &[64] } else { &[64, 96, 128] };
    let mixed_sizes: &[usize] = if args.quick { &[64] } else { &[64, 128] };
    let mut points = Vec::new();
    for &n in fp64_sizes {
        points.push(measure_point::<f64, f64>(reps, n, Precision::Double, false));
    }
    for &n in mixed_sizes {
        points.push(measure_point::<f32, f32>(reps, n, Precision::Single, false));
    }
    for &n in mixed_sizes {
        points.push(measure_point::<F16, f32>(reps, n, Precision::Half, true));
    }
    print_points(&points, args.csv);

    println!(
        "\nmeasured GPU headroom (steady-state device estimates, largest size):\n\
         tiled (FP64/FP32) and matrix-unit (FP16) kernels over the best naive\n\
         kernel — the constants committed in crates/models/src/vendor.rs:"
    );
    for (key, precs) in final_headroom(&points) {
        print!("  {key:>8}");
        for (prec, h) in precs {
            print!("  {prec} {h:.2}x");
        }
        println!();
    }

    let telemetry = perfport_telemetry::snapshot().delta_since(&epoch);
    let json = json_snapshot(&points, &manifest, &telemetry, reps, args.quick);
    let path = "BENCH_gpu.json";
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
        let row = |name, naive, gflops| VariantRow {
            name,
            device: "a100",
            naive,
            measured: Measured {
                gflops,
                spread: 0.031_234_5,
            },
            device_gflops: 2417.66,
            occupancy: 1.0,
        };
        let point = SizePoint {
            n: 64,
            precision: "FP64",
            rows: vec![
                row("cuda", true, 0.081_234_5),
                row("tiled-nvidia", false, 0.05),
            ],
            headroom: vec![("a100", 4.012_345)],
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
        assert_eq!(snap.points[0].gflops["cuda"], 0.0812);
        let doc = perfport_trace::json::parse(&text).expect("valid JSON");
        let written = &doc.get("points").and_then(Json::as_array).expect("points")[0];
        assert_eq!(
            written.get("best_naive").and_then(Json::as_str),
            Some("cuda")
        );
        let device = written.get("device_gflops").and_then(|d| d.get("cuda"));
        assert_eq!(device.and_then(Json::as_f64), Some(2417.7));
    }
}
