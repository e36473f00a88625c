//! Regenerates Tables I and II: the experiment configurations — which
//! compiler/runtime stack, flags, affinity controls, and hardware each
//! (model, system) cell uses, as encoded in the machine and model
//! registries.

use perfport_bench::HarnessArgs;
use perfport_machines::Precision;
use perfport_models::{cpu_profile, gpu_profile, support, Arch, ProgModel};

fn main() {
    let args = HarnessArgs::from_env();
    let trace = args.start_trace();
    println!("Table I: CPU experiment specs");
    println!(
        "  {:<18} {:>22} {:>22}",
        "", "Wombat (Arm)", "Crusher (AMD)"
    );
    let altra = Arch::AmpereAltra.cpu_machine().unwrap();
    let epyc = Arch::Epyc7A53.cpu_machine().unwrap();
    println!("  {:<18} {:>22} {:>22}", "Model", altra.name, epyc.name);
    println!(
        "  {:<18} {:>22} {:>22}",
        "Cores / NUMA",
        format!("{}-core, {}-NUMA", altra.total_cores(), altra.numa_domains),
        format!("{}-core, {}-NUMA", epyc.total_cores(), epyc.numa_domains)
    );
    println!(
        "  {:<18} {:>22} {:>22}",
        "SIMD",
        format!("{}-bit NEON", altra.simd_bits),
        format!("{}-bit AVX2", epyc.simd_bits)
    );
    println!(
        "  {:<18} {:>22} {:>22}",
        "Mem BW (GB/s)",
        format!("{:.0}", altra.total_bw_gbs()),
        format!("{:.0}", epyc.total_bw_gbs())
    );
    println!();
    for model in [
        ProgModel::COpenMp,
        ProgModel::KokkosOpenMp,
        ProgModel::JuliaThreads,
        ProgModel::NumbaParallel,
    ] {
        let p = cpu_profile(model);
        println!(
            "  {:<18} pin={:<9} region-overhead x{:<4} jit-warmup {:>4.1}s",
            model.name(),
            p.pin_policy.to_string(),
            p.region_overhead_multiplier,
            p.jit_warmup_s
        );
    }

    println!();
    println!("Table II: GPU experiment specs");
    let a100 = Arch::A100.gpu_machine().unwrap();
    let mi = Arch::Mi250x.gpu_machine().unwrap();
    println!("  {:<18} {:>22} {:>22}", "Model", a100.name, mi.name);
    println!("  {:<18} {:>22} {:>22}", "SMs/CUs", a100.sms, mi.sms);
    println!(
        "  {:<18} {:>22} {:>22}",
        "FP64 peak (GF/s)",
        format!("{:.0}", a100.peak_fp64_gflops),
        format!("{:.0}", mi.peak_fp64_gflops)
    );
    println!(
        "  {:<18} {:>22} {:>22}",
        "HBM BW (GB/s)",
        format!("{:.0}", a100.mem_bw_gbs),
        format!("{:.0}", mi.mem_bw_gbs)
    );
    println!();
    for model in [
        ProgModel::Cuda,
        ProgModel::Hip,
        ProgModel::KokkosCuda,
        ProgModel::KokkosHip,
        ProgModel::JuliaCudaJl,
        ProgModel::JuliaAmdGpu,
        ProgModel::NumbaCuda,
    ] {
        let p = gpu_profile(model);
        println!(
            "  {:<18} launch-overhead x{:<5} jit-warmup {:>4.1}s",
            model.name(),
            p.launch_overhead_multiplier,
            p.jit_warmup_s
        );
    }

    println!();
    println!("Support matrix (FP64 / FP32 / FP16):");
    for arch in Arch::ALL {
        println!("  {arch}:");
        for model in ProgModel::candidates(arch) {
            let cells: Vec<String> = Precision::ALL
                .iter()
                .map(|&p| match support(model, arch, p) {
                    perfport_models::Support::Supported => "yes".to_string(),
                    perfport_models::Support::Partial(_) => "partial".to_string(),
                    perfport_models::Support::Unsupported(_) => "no".to_string(),
                })
                .collect();
            println!("    {:<18} {}", model.name(), cells.join(" / "));
        }
    }
    if args.csv {
        println!("-- support csv --");
        println!("arch,model,fp64,fp32,fp16");
        for arch in Arch::ALL {
            for model in ProgModel::candidates(arch) {
                let cells: Vec<&str> = Precision::ALL
                    .iter()
                    .map(|&p| match support(model, arch, p) {
                        perfport_models::Support::Supported => "yes",
                        perfport_models::Support::Partial(_) => "partial",
                        perfport_models::Support::Unsupported(_) => "no",
                    })
                    .collect();
                println!("{arch},{},{}", model.name(), cells.join(","));
            }
        }
    }
    if let Some(trace) = trace {
        trace.finish();
    }
}
