//! Extension A6: a BabelStream-style bandwidth table across the study's
//! programming models and machines — the workload family the wider
//! portability literature (and the paper's related work) standardises on.

use perfport_bench::HarnessArgs;
use perfport_core::{estimate_stream_bandwidth, run_stream_kernel, StreamKernel};
use perfport_models::{Arch, ProgModel};
use perfport_pool::ThreadPool;

fn main() {
    let args = HarnessArgs::from_env();
    let trace = args.start_trace();

    // Functional pass on the host first (every kernel verified). The
    // verification pool defaults to a modest size — a bandwidth kernel
    // gains nothing from oversubscription — unless --threads insists.
    let workers = args
        .threads
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(2, |p| p.get().min(8)));
    let pool = ThreadPool::new(workers);
    let n = if args.quick { 1 << 16 } else { 1 << 20 };
    for kernel in StreamKernel::ALL {
        let _ = run_stream_kernel(&pool, kernel, n);
    }
    println!("all five kernels verified on the host pool (n = {n}, {workers} workers)\n");

    for arch in Arch::ALL {
        println!("== BabelStream-style sustained bandwidth on {arch} (GB/s, FP64) ==");
        let models = ProgModel::candidates(arch);
        print!("{:>8}", "kernel");
        for m in &models {
            print!("  {:>16}", m.name());
        }
        println!();
        for kernel in StreamKernel::ALL {
            print!("{:>8}", kernel.name());
            for &m in &models {
                match estimate_stream_bandwidth(arch, m, kernel) {
                    Ok(bw) => print!("  {bw:>16.0}"),
                    Err(_) => print!("  {:>16}", "-"),
                }
            }
            println!();
        }
        if args.csv {
            println!("-- {arch} csv --");
            println!("kernel,model,gbs");
            for kernel in StreamKernel::ALL {
                for &m in &models {
                    if let Ok(bw) = estimate_stream_bandwidth(arch, m, kernel) {
                        println!("{},{},{bw:.1}", kernel.name(), m.name());
                    }
                }
            }
        }
        println!();
    }
    println!(
        "A pure stream hides most code-generation differences: models that trail\n\
         badly on GEMM (a compute/L1-bound kernel) sit much closer to the vendor\n\
         on bandwidth-bound kernels — except where NUMA placement still bites."
    );
    if let Some(trace) = trace {
        trace.finish();
    }
}
