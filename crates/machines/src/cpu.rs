//! CPU node descriptions.

use crate::precision::Precision;
use perfport_pool::CpuTopology;

/// A multicore CPU node, described by the parameters the timing model
/// needs.
#[derive(Debug, Clone)]
pub struct CpuMachine {
    /// Marketing name, e.g. `"AMD EPYC 7A53"`.
    pub name: &'static str,
    /// Host system in the paper, e.g. `"Crusher"`.
    pub system: &'static str,
    /// NUMA domains.
    pub numa_domains: usize,
    /// Physical cores per NUMA domain.
    pub cores_per_domain: usize,
    /// Sustained all-core clock, GHz.
    pub clock_ghz: f64,
    /// SIMD register width, bits (AVX2 = 256, NEON = 128).
    pub simd_bits: u32,
    /// FMA pipes per core.
    pub fma_units: u32,
    /// Whether the SIMD units execute FP16 natively (Neoverse: yes;
    /// Zen 3: no — FP16 is software-converted, the paper's "very low
    /// performance" case on Crusher CPUs).
    pub native_fp16: bool,
    /// Sustained memory bandwidth per NUMA domain, GB/s.
    pub mem_bw_per_domain_gbs: f64,
    /// Bandwidth multiplier for remote-domain access.
    pub remote_numa_penalty: f64,
    /// Total last-level cache, MiB (governs when `B` stops fitting).
    pub llc_mib: f64,
    /// Aggregate last-level-cache bandwidth, GB/s (bounds the inner-loop
    /// streaming of `B` when it hits in cache).
    pub llc_bw_gbs: f64,
    /// Fork-join cost of one parallel region, microseconds (vendor OpenMP
    /// runtime baseline; programming models scale it).
    pub fork_join_us: f64,
}

impl CpuMachine {
    /// Total physical cores.
    pub fn total_cores(&self) -> usize {
        self.numa_domains * self.cores_per_domain
    }

    /// The pool-level topology of this machine.
    pub fn topology(&self) -> CpuTopology {
        CpuTopology::new(self.numa_domains, self.cores_per_domain, 1)
    }

    /// SIMD lanes per operation at a precision (1 lane when FP16 is not
    /// native — scalar emulation via conversion).
    pub fn simd_lanes(&self, p: Precision) -> f64 {
        match p {
            Precision::Half if !self.native_fp16 => 0.25, // convert-compute-convert, slower than scalar f32
            _ => f64::from(self.simd_bits) / (8.0 * p.bytes() as f64),
        }
    }

    /// Peak GFLOP/s of one core at a precision (`clock × lanes × 2 flops ×
    /// FMA pipes`).
    pub fn peak_core_gflops(&self, p: Precision) -> f64 {
        self.clock_ghz * self.simd_lanes(p) * 2.0 * f64::from(self.fma_units)
    }

    /// Peak GFLOP/s of the whole node.
    pub fn peak_gflops(&self, p: Precision) -> f64 {
        self.peak_core_gflops(p) * self.total_cores() as f64
    }

    /// Aggregate memory bandwidth, GB/s.
    pub fn total_bw_gbs(&self) -> f64 {
        self.mem_bw_per_domain_gbs * self.numa_domains as f64
    }

    /// Crusher's AMD EPYC 7A53 "Trento": 64 Zen-3 cores, NPS4.
    pub fn epyc_7a53() -> Self {
        CpuMachine {
            name: "AMD EPYC 7A53",
            system: "Crusher",
            numa_domains: 4,
            cores_per_domain: 16,
            clock_ghz: 2.45,
            simd_bits: 256,
            fma_units: 2,
            native_fp16: false,
            mem_bw_per_domain_gbs: 51.0, // 8× DDR4-3200 across 4 NPS domains
            remote_numa_penalty: 0.45,
            llc_mib: 256.0,
            llc_bw_gbs: 1_600.0,
            fork_join_us: 12.0,
        }
    }

    /// Wombat's Ampere Altra: 80 Neoverse-N1 cores, single NUMA domain.
    pub fn ampere_altra() -> Self {
        CpuMachine {
            name: "Ampere Altra",
            system: "Wombat",
            numa_domains: 1,
            cores_per_domain: 80,
            clock_ghz: 3.0,
            simd_bits: 128,
            fma_units: 2,
            native_fp16: true,
            mem_bw_per_domain_gbs: 197.0, // 8× DDR4-3200
            remote_numa_penalty: 1.0,     // single domain: no remote accesses
            llc_mib: 32.0,
            llc_bw_gbs: 800.0,
            fork_join_us: 10.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epyc_shape_matches_table_i() {
        let m = CpuMachine::epyc_7a53();
        assert_eq!(m.total_cores(), 64);
        assert_eq!(m.numa_domains, 4);
        assert_eq!(m.topology().total_cores(), 64);
    }

    #[test]
    fn altra_shape_matches_table_i() {
        let m = CpuMachine::ampere_altra();
        assert_eq!(m.total_cores(), 80);
        assert_eq!(m.numa_domains, 1);
        assert!(m.native_fp16);
    }

    #[test]
    fn peaks_scale_with_precision() {
        let m = CpuMachine::epyc_7a53();
        let d = m.peak_gflops(Precision::Double);
        let s = m.peak_gflops(Precision::Single);
        assert!((s / d - 2.0).abs() < 1e-12, "FP32 doubles AVX2 lanes");
        // EPYC FP64 peak: 2.45 GHz × 4 lanes × 2 × 2 units × 64 cores.
        assert!((d - 2.45 * 4.0 * 2.0 * 2.0 * 64.0).abs() < 1e-9);
    }

    #[test]
    fn fp16_native_vs_emulated() {
        let amd = CpuMachine::epyc_7a53();
        let arm = CpuMachine::ampere_altra();
        // Arm FP16 is faster than its FP32; AMD FP16 is slower than FP64
        // (software emulation), matching the paper's observation.
        assert!(arm.peak_gflops(Precision::Half) > arm.peak_gflops(Precision::Single));
        assert!(amd.peak_gflops(Precision::Half) < amd.peak_gflops(Precision::Double));
    }

    #[test]
    fn bandwidth_aggregates_domains() {
        let m = CpuMachine::epyc_7a53();
        assert!((m.total_bw_gbs() - 204.0).abs() < 1.0);
    }
}
