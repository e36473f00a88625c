//! R1: roofline context for all four machines and the naive GEMM's
//! arithmetic intensity, plus the productivity measures for the paper's
//! kernel snippets (§V discussion).
//!
//! `--measured` adds a host section that places the real kernels on the
//! roofline: measured GFLOP/s of every CPU variant and the tuned kernel
//! on this host, at the analytic arithmetic intensity of the GEMM
//! (exact FLOPs over compulsory traffic).

use perfport_bench::HarnessArgs;
use perfport_gemm::{
    gemm_arithmetic_intensity, gemm_flops, par_gemm, tuned, CpuVariant, Layout, Matrix,
};
use perfport_machines::{Precision, Roofline};
use perfport_metrics::productivity;
use perfport_models::Arch;
use perfport_pool::Schedule;
use std::time::Instant;

const USAGE: &str =
    "usage: roofline_report [--measured] [--quick] [--csv] [--threads <n>] [--trace <path>]";

fn main() {
    let mut measured = false;
    let parsed = HarnessArgs::try_parse_with(std::env::args().skip(1), |f| {
        if f == "--measured" {
            measured = true;
            true
        } else {
            false
        }
    });
    let args = match parsed {
        Ok(args) if args.help => {
            println!("{USAGE}");
            std::process::exit(0);
        }
        Ok(args) => args,
        Err(msg) => {
            // Sharding flags land here too: this report is one unit of
            // work, so `--shard`/`--jobs` are rejected, not ignored.
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let trace = args.start_trace();

    println!("== R1: rooflines ==");
    println!(
        "  {:<22} {:>6} {:>14} {:>12} {:>12}",
        "machine", "prec", "peak GF/s", "BW GB/s", "ridge AI"
    );
    for arch in Arch::ALL {
        for p in [Precision::Double, Precision::Single] {
            let (name, roof) = roofline_for(arch, p);
            println!(
                "  {:<22} {:>6} {:>14.0} {:>12.0} {:>12.2}",
                name,
                p.label(),
                roof.peak_gflops,
                roof.bw_gbs,
                roof.ridge_ai()
            );
        }
    }

    println!();
    println!("  naive GEMM DRAM arithmetic intensity (32x32 GPU blocks):");
    for p in [Precision::Double, Precision::Single] {
        // flops per DRAM byte with block-level reuse: 2·bx·by·k /
        // ((bx + by)·k·bytes) = 32 / bytes for square 32x32 blocks.
        let ai = 32.0 / p.bytes() as f64;
        println!("    {}: {ai:.1} flops/byte", p.label());
    }
    println!("  => memory-bound on every GPU at FP64; the binding ceiling in");
    println!("     practice is L1/LSU traffic (two loads per FMA), see DESIGN.md.");

    println!();
    println!("== productivity of the Fig. 2 kernels ==");
    println!(
        "  {:<14} {:>8} {:>8} {:>22}",
        "model", "lines", "tokens", "parallel annotations"
    );
    for v in CpuVariant::ALL {
        let p = productivity(v.source_snippet());
        println!(
            "  {:<14} {:>8} {:>8} {:>22}",
            v.name(),
            p.lines,
            p.tokens,
            p.parallel_annotations
        );
    }

    if measured {
        measured_roofline(&args);
    }
    if let Some(trace) = trace {
        trace.finish();
    }
}

/// Mean measured rate of `run` over `reps` timed repetitions.
fn measure(reps: usize, n: usize, run: &dyn Fn()) -> f64 {
    run(); // warm-up excluded, as everywhere in this harness
    let t0 = Instant::now();
    for _ in 0..reps {
        run();
    }
    let per_rep = t0.elapsed().as_secs_f64() / reps as f64;
    gemm_flops(n, n, n) as f64 / per_rep / 1e9
}

fn measured_roofline(args: &HarnessArgs) {
    let n = if args.quick { 512 } else { 1024 };
    let reps = if args.quick { 2 } else { 3 };
    let pool = args.make_pool();
    let ai = gemm_arithmetic_intensity(n, n, n, std::mem::size_of::<f64>());

    println!();
    println!(
        "== measured roofline placement (FP64, n={n}, {} workers, host) ==",
        pool.num_threads()
    );
    println!("  analytic AI (compulsory traffic only): {ai:.1} flops/byte");
    println!(
        "  {:<10} {:>10} {:>12}",
        "variant", "GFLOP/s", "analytic AI"
    );

    let mut rows: Vec<(&'static str, f64)> = Vec::new();
    for &v in CpuVariant::ALL.iter() {
        let layout = v.layout();
        let a = Matrix::<f64>::random(n, n, layout, 3);
        let b = Matrix::<f64>::random(n, n, layout, 4);
        let gflops = measure(reps, n, &|| {
            let mut c = Matrix::<f64>::zeros(n, n, layout);
            par_gemm(&pool, v, &a, &b, &mut c, Schedule::StaticBlock);
            std::hint::black_box(&c);
        });
        rows.push((v.name(), gflops));
    }
    let a = Matrix::<f64>::random(n, n, Layout::RowMajor, 3);
    let b = Matrix::<f64>::random(n, n, Layout::RowMajor, 4);
    let params = tuned::TunedParams::host::<f64>();
    let gflops = measure(reps, n, &|| {
        let mut c = Matrix::<f64>::zeros(n, n, Layout::RowMajor);
        tuned::gemm(&pool, &a, &b, &mut c, &params);
        std::hint::black_box(&c);
    });
    rows.push(("tuned", gflops));

    for (name, gflops) in &rows {
        println!("  {name:<10} {gflops:>10.3} {ai:>12.1}");
    }
    if args.csv {
        println!("-- measured csv --");
        println!("variant,gflops,analytic_ai");
        for (name, gflops) in &rows {
            println!("{name},{gflops:.4},{ai:.2}");
        }
    }
}

fn roofline_for(arch: Arch, p: Precision) -> (&'static str, Roofline) {
    if let Some(cpu) = arch.cpu_machine() {
        (
            cpu.name,
            Roofline {
                peak_gflops: cpu.peak_gflops(p),
                bw_gbs: cpu.total_bw_gbs(),
            },
        )
    } else {
        let gpu = arch.gpu_machine().unwrap();
        (
            gpu.name,
            Roofline {
                peak_gflops: gpu.peak_gflops(p),
                bw_gbs: gpu.mem_bw_gbs,
            },
        )
    }
}
