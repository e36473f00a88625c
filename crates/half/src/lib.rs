//! Software IEEE 754 binary16 ("half precision") arithmetic.
//!
//! The paper studies FP16 support across programming models (Julia on AMD
//! GPUs, Numba's missing `float16` random generation, Julia's maturing
//! native FP16 on CPUs). Stable Rust has no `f16` primitive and not every
//! machine this reproduction runs on converts half precision in hardware,
//! so this crate provides a bit-exact software implementation. Where the
//! CPU has F16C or AVX-512F, `perfport-gemm`'s `simd` module converts the
//! tuned kernel's panels with `vcvtph2ps` / `vcvtps2ph` instead; these
//! routines are the reference its tests hold that hardware to, bit for bit,
//! and the conversion every other target runs:
//!
//! * conversions to/from `f32`/`f64` with round-to-nearest-even,
//! * subnormal, infinity, and NaN handling,
//! * arithmetic implemented by converting through `f32` (the same strategy
//!   used by production soft-half libraries and by LLVM's `__gnu_h2f_ieee`
//!   lowering on hardware without native FP16),
//! * deterministic uniform random generation mirroring what the paper's
//!   Julia implementation supports (and Numba does not).
//!
//! The exported [`F16`] type implements enough of the numeric surface to be
//! used as a GEMM scalar in `perfport-gemm` and as a device element type in
//! `perfport-gpusim`.

mod bits;
mod f16;

pub use bits::{f16_bits_to_f32, f32_to_f16_bits};
pub use f16::F16;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_surface_round_trip() {
        let x = F16::from_f32(1.5);
        assert_eq!(x.to_f32(), 1.5);
        assert_eq!(F16::from_f32(f16_bits_to_f32(x.to_bits())), x);
        assert_eq!(f32_to_f16_bits(1.5), x.to_bits());
    }
}
