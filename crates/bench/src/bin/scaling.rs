//! Extension A4: single-node thread-scaling curves for every CPU model
//! on both CPU architectures (the "scalability" dimension the paper's
//! introduction motivates).

use perfport_bench::HarnessArgs;
use perfport_core::{run_scaling, ScalingStudy};
use perfport_machines::Precision;
use perfport_models::{Arch, ProgModel};

fn main() {
    let args = HarnessArgs::from_env();
    let trace = args.start_trace();
    let n = if args.quick { 1024 } else { 4096 };
    for arch in [Arch::Epyc7A53, Arch::AmpereAltra] {
        println!("== thread scaling on {arch} (FP64, n={n}) ==");
        let models = ProgModel::candidates(arch);
        let results: Vec<_> = models
            .iter()
            .map(|&m| {
                (
                    m,
                    run_scaling(&ScalingStudy::pow2(arch, m, Precision::Double, n))
                        .expect("CPU models support FP64"),
                )
            })
            .collect();

        print!("{:>8}", "threads");
        for (m, _) in &results {
            print!("  {:>16}", m.name());
        }
        println!();
        let counts = results[0]
            .1
            .points
            .iter()
            .map(|p| p.threads)
            .collect::<Vec<_>>();
        for &t in &counts {
            print!("{t:>8}");
            for (_, r) in &results {
                let p = r.points.iter().find(|p| p.threads == t).unwrap();
                print!("  {:>16.1}", p.gflops);
            }
            println!();
        }
        print!("{:>8}", "eff");
        for (_, r) in &results {
            let last = r.points.last().unwrap().threads;
            print!("  {:>15.0}%", r.parallel_efficiency(last).unwrap() * 100.0);
        }
        println!("\n");
        if args.csv {
            println!("-- {arch} csv --");
            println!("threads,model,gflops");
            for (m, r) in &results {
                for p in &r.points {
                    println!("{},{},{:.2}", p.threads, m.name(), p.gflops);
                }
            }
            println!();
        }
    }
    println!(
        "The streaming GEMM saturates shared cache/memory bandwidth well before the\n\
         core count, so full-node parallel efficiency sits far below 100% for every\n\
         model — and lower still for Numba on Crusher, which cannot pin threads."
    );
    if let Some(trace) = trace {
        trace.finish();
    }
}
