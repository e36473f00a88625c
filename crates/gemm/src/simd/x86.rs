//! x86-64 microkernels: AVX2+FMA (256-bit) and AVX-512F (512-bit).
//!
//! Each kernel is const-generic over the register tile so LLVM fully
//! unrolls the per-`p` body: the `MR×NR` accumulator tile lives in `MR ×
//! NR/W` vector registers (`W` lanes each) across the whole `kb`
//! contraction, each step broadcasting one `A` value per row and issuing
//! one fused multiply-add per accumulator register. All loads are
//! unaligned-tolerant (`loadu`): micropanel starts are 64-byte aligned,
//! but interior `p·MR`/`p·NR` offsets need not be a vector multiple.
//!
//! All four kernels (`f64`/`f32` × AVX2/AVX-512) share one body, the
//! `x86_kernel!` macro: they differ only in element type, lane count and
//! the intrinsics that zero, load, broadcast, fuse and store a vector,
//! plus a masked load. The same body also gives each kernel its *direct*
//! form, which reads row-major operands in place instead of packed
//! micropanels (`select_direct`). The safe entries it generates
//! bound-check the panels or strips and confine the `unsafe` needed to
//! call a `#[target_feature]` function. Their safety rests on the
//! dispatch contract in [`crate::simd`]: `select` and `select_direct`
//! hand these entries out only after the matching CPU feature was
//! detected at runtime. So the entries are crate-private, and code
//! outside this crate reaches a kernel only through that check:
//!
//! ```compile_fail,E0603
//! let panel = [0.0f64; 64];
//! let _ = perfport_gemm::simd::x86::f64_avx512::<8, 8>(1, &panel, &panel);
//! ```
//!
//! The binary16 ↔ `f32` slice conversions of the widened F16 path
//! (F16C and AVX-512F `vcvtph2ps` / `vcvtps2ph`) share the `x86_half!`
//! macro the same way, and `select_half` guards them likewise.

use perfport_half::F16;
use std::arch::x86_64::*;

/// Largest `NR/W` the dispatcher hands to an x86 kernel, sizing the fixed
/// per-row vector arrays below (unused high slots are dead code the
/// unroller deletes). [`crate::simd::select`] routes tiles needing more
/// vectors per row to the portable kernel.
pub(crate) const MAX_VECS: usize = 2;

/// Defines one x86 microkernel: a `#[target_feature]` body over `W`-lane
/// vectors of `T`, built from the five intrinsics that differ between
/// ISAs and precisions plus a masked load, and its two safe,
/// bounds-checked, crate-private entries.
///
/// The body is written once and instantiated twice through its
/// `DIRECT` parameter. The packed instantiation reads zero-padded
/// micropanels; the direct one reads a row-major `A` strip at stride
/// `lda` (rows past `ilim` clamped to the last live row) and a row-major
/// `B` strip at stride `ldb` (lanes past `jlim` masked off, so no load
/// touches memory past the strip). Both issue the same FMA chain per
/// live element of the tile, from a zero accumulator, `p` ascending, so
/// their live results are bit for bit equal.
macro_rules! x86_kernel {
    (
        $(#[$doc:meta])*
        pub(crate) fn $entry:ident, $direct:ident => $kernel:ident(
            $t:ty, $w:literal lanes, $feature:literal,
            $setzero:ident, $loadu:ident, $set1:ident, $fmadd:ident, $storeu:ident,
            mask = |$live:ident| $mask:expr,
            maskload = |$m:ident, $ptr:ident| $maskload:expr $(,)?
        );
    ) => {
        /// The `target_feature` body behind both entries of the same ISA
        /// and precision (see `x86_kernel!` for the two read patterns).
        ///
        /// # Safety
        ///
        /// The CPU must support the enabled features at runtime. Packed
        /// (`DIRECT = false`): `a`/`b` hold at least `kb*MR` / `kb*NR`
        /// elements, and `lda`, `ldb`, `ilim`, `jlim` are unused. Direct:
        /// `1 ≤ ilim ≤ MR`, `1 ≤ jlim ≤ NR`, and when `kb > 0`,
        /// `(ilim-1)*lda + kb ≤ a.len()` and `(kb-1)*ldb + jlim ≤
        /// b.len()`. (A row of more than `MAX_VECS` vectors is not unsafe:
        /// it panics on the checked accumulator index.)
        #[target_feature(enable = $feature)]
        #[allow(clippy::too_many_arguments)]
        unsafe fn $kernel<const MR: usize, const NR: usize, const DIRECT: bool>(
            kb: usize,
            a: &[$t],
            lda: usize,
            ilim: usize,
            b: &[$t],
            ldb: usize,
            jlim: usize,
        ) -> [[$t; NR]; MR] {
            const W: usize = $w;
            debug_assert!(NR.is_multiple_of(W) && NR / W <= MAX_VECS);
            let nv = NR / W;
            let mut acc = [[$setzero(); MAX_VECS]; MR];
            let a = a.as_ptr();
            let b = b.as_ptr();
            // Direct reads only: each tile row's first `A` element, and
            // each `B` vector's live-lane mask. A row is read only for
            // `p < kb`, where the entry's bound holds; with `kb = 0` its
            // start may lie past `a`, so it is formed with `wrapping_add`.
            let mut arow = [a; MR];
            let mut mask = [{ let $live = W; $mask }; MAX_VECS];
            if DIRECT {
                for (r, row) in arow.iter_mut().enumerate() {
                    *row = a.wrapping_add(r.min(ilim - 1) * lda);
                }
                for (j, m) in mask.iter_mut().enumerate().take(nv) {
                    let $live = jlim.saturating_sub(j * W).min(W);
                    *m = $mask;
                }
            }
            for p in 0..kb {
                let mut bv = [$setzero(); MAX_VECS];
                for (j, v) in bv.iter_mut().enumerate().take(nv) {
                    *v = if DIRECT {
                        // A fully masked vector may start past the strip,
                        // so its address is formed without `add`'s
                        // in-bounds requirement; masked lanes are never
                        // read.
                        let ($m, $ptr) = (mask[j], b.wrapping_add(p * ldb + j * W));
                        $maskload
                    } else {
                        $loadu(b.add(p * NR + j * W))
                    };
                }
                for (r, row) in acc.iter_mut().enumerate() {
                    let av = $set1(if DIRECT { *arow[r].add(p) } else { *a.add(p * MR + r) });
                    for j in 0..nv {
                        row[j] = $fmadd(av, bv[j], row[j]);
                    }
                }
            }
            let mut out = [[0.0; NR]; MR];
            for (row, accr) in out.iter_mut().zip(&acc) {
                for (j, &v) in accr.iter().enumerate().take(nv) {
                    $storeu(row.as_mut_ptr().add(j * W), v);
                }
            }
            out
        }

        $(#[$doc])*
        pub(crate) fn $entry<const MR: usize, const NR: usize>(
            kb: usize,
            ap: &[$t],
            bp: &[$t],
        ) -> [[$t; NR]; MR] {
            assert!(
                ap.len() >= kb * MR && bp.len() >= kb * NR,
                "panel too short"
            );
            // SAFETY: only reachable through `simd::select`, which returns
            // this entry only under an ISA verdict that detected the
            // kernel's features; panel bounds were just asserted.
            unsafe { $kernel::<MR, NR, false>(kb, ap, MR, MR, bp, NR, NR) }
        }

        /// The direct form of the entry above (a `simd::DirectKernel`):
        /// the same tile read in place from row-major `A` and `B` strips.
        pub(crate) fn $direct<const MR: usize, const NR: usize>(
            kb: usize,
            a: &[$t],
            lda: usize,
            b: &[$t],
            ldb: usize,
            ilim: usize,
            jlim: usize,
        ) -> [[$t; NR]; MR] {
            assert!(
                (1..=MR).contains(&ilim) && (1..=NR).contains(&jlim),
                "tile extent out of range"
            );
            // `rows` rows `stride` apart, the last `last` long, fit `len`.
            let fits = |rows: usize, stride: usize, last: usize, len: usize| {
                rows.checked_mul(stride)
                    .and_then(|start| start.checked_add(last))
                    .is_some_and(|end| end <= len)
            };
            assert!(
                kb == 0 || (fits(ilim - 1, lda, kb, a.len()) && fits(kb - 1, ldb, jlim, b.len())),
                "strip too short"
            );
            // SAFETY: only reachable through `simd::select_direct`, which
            // returns this entry only under an ISA verdict that detected
            // the kernel's features; extents and strip bounds were just
            // asserted.
            unsafe { $kernel::<MR, NR, true>(kb, a, lda, ilim, b, ldb, jlim) }
        }
    };
}

x86_kernel! {
    /// `f64` tile on 256-bit AVX2 lanes with FMA accumulation; `NR` must
    /// be a multiple of 4. Also the `f64` kernel under an AVX-512 verdict
    /// for tiles narrower than one zmm register.
    pub(crate) fn f64_avx2, f64_avx2_direct => kernel_f64_avx2(
        f64, 4 lanes, "avx2,fma",
        _mm256_setzero_pd, _mm256_loadu_pd, _mm256_set1_pd, _mm256_fmadd_pd, _mm256_storeu_pd,
        mask = |live| _mm256_cmpgt_epi64(_mm256_set1_epi64x(live as i64), _mm256_setr_epi64x(0, 1, 2, 3)),
        maskload = |m, ptr| _mm256_maskload_pd(ptr, m),
    );
}

x86_kernel! {
    /// `f32` tile on 256-bit AVX2 lanes with FMA accumulation; `NR` must
    /// be a multiple of 8. The `f32` kernel under an AVX2 verdict (or
    /// `PERFPORT_SIMD=avx2`). Under AVX-512 it runs only tiles narrower
    /// than 16 columns: on a 2-vCPU AVX-512 Xeon, a 1-worker FP32
    /// n = 1024 tuned GEMM reached 74.9 GFLOP/s with [`f32_avx512`] on
    /// the `8×16` tile against 54.6 with this kernel on `8×8`, so any
    /// AVX-512 frequency penalty there is outweighed by the doubled
    /// vector width.
    pub(crate) fn f32_avx2, f32_avx2_direct => kernel_f32_avx2(
        f32, 8 lanes, "avx2,fma",
        _mm256_setzero_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_fmadd_ps, _mm256_storeu_ps,
        mask = |live| _mm256_cmpgt_epi32(
            _mm256_set1_epi32(live as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        ),
        maskload = |m, ptr| _mm256_maskload_ps(ptr, m),
    );
}

x86_kernel! {
    /// `f64` tile on 512-bit AVX-512F lanes; `NR` must be a multiple of
    /// 8, so each accumulator row of the `8×16` AVX-512 default tile is
    /// two zmm registers (16 accumulators of the 32).
    pub(crate) fn f64_avx512, f64_avx512_direct => kernel_f64_avx512(
        f64, 8 lanes, "avx512f",
        _mm512_setzero_pd, _mm512_loadu_pd, _mm512_set1_pd, _mm512_fmadd_pd, _mm512_storeu_pd,
        mask = |live| ((1u32 << live) - 1) as __mmask8,
        maskload = |m, ptr| _mm512_maskz_loadu_pd(m, ptr),
    );
}

x86_kernel! {
    /// `f32` tile on 512-bit AVX-512F lanes; `NR` must be a multiple of
    /// 16, so each accumulator row of the `8×16` AVX-512 default tile is
    /// exactly one zmm register.
    pub(crate) fn f32_avx512, f32_avx512_direct => kernel_f32_avx512(
        f32, 16 lanes, "avx512f",
        _mm512_setzero_ps, _mm512_loadu_ps, _mm512_set1_ps, _mm512_fmadd_ps, _mm512_storeu_ps,
        mask = |live| ((1u32 << live) - 1) as __mmask16,
        maskload = |m, ptr| _mm512_maskz_loadu_ps(m, ptr),
    );
}

/// Defines one ISA's binary16 ↔ `f32` slice conversions for
/// [`crate::simd::HalfConv`]: `W`-lane bodies built from the intrinsics
/// that load, convert, add and store a vector, plus the safe
/// length-checked entries. A ragged tail (fewer than `W` elements) is
/// staged through zero-padded stack buffers, so callers pass any length.
macro_rules! x86_half {
    (
        $(#[$doc:meta])*
        pub(crate) fn $widen:ident, $accumulate:ident => $widen_k:ident, $acc_k:ident(
            $w:literal lanes, $feature:literal, round = $round:expr,
            $loadh:ident, $storeh:ident, $cvtph:ident, $cvtps:ident,
            $loadf:ident, $storef:ident, $addf:ident $(,)?
        );
    ) => {
        /// The `target_feature` body behind the widen entry of this ISA.
        ///
        /// # Safety
        ///
        /// The CPU must support the enabled features at runtime, and `dst`
        /// must be as long as `src`.
        #[target_feature(enable = $feature)]
        unsafe fn $widen_k(src: &[F16], dst: &mut [f32]) {
            const W: usize = $w;
            let full = src.len() - src.len() % W;
            for i in (0..full).step_by(W) {
                $storef(dst.as_mut_ptr().add(i), $cvtph($loadh(src.as_ptr().add(i).cast())));
            }
            let live = src.len() - full;
            if live > 0 {
                let mut h = [F16::ZERO; W];
                let mut f = [0.0f32; W];
                h[..live].copy_from_slice(&src[full..]);
                $storef(f.as_mut_ptr(), $cvtph($loadh(h.as_ptr().cast())));
                dst[full..].copy_from_slice(&f[..live]);
            }
        }

        /// The `target_feature` body behind the accumulate entry of this
        /// ISA.
        ///
        /// # Safety
        ///
        /// The CPU must support the enabled features at runtime, and `v`
        /// must be as long as `c`.
        #[target_feature(enable = $feature)]
        unsafe fn $acc_k(c: &mut [F16], v: &[f32]) {
            const W: usize = $w;
            let full = c.len() - c.len() % W;
            for i in (0..full).step_by(W) {
                let ci = c.as_mut_ptr().add(i);
                let sum = $addf($cvtph($loadh(ci.cast_const().cast())), $loadf(v.as_ptr().add(i)));
                $storeh(ci.cast(), $cvtps::<{ $round }>(sum));
            }
            let live = c.len() - full;
            if live > 0 {
                let mut h = [F16::ZERO; W];
                let mut f = [0.0f32; W];
                h[..live].copy_from_slice(&c[full..]);
                f[..live].copy_from_slice(&v[full..]);
                let sum = $addf($cvtph($loadh(h.as_ptr().cast())), $loadf(f.as_ptr()));
                $storeh(h.as_mut_ptr().cast(), $cvtps::<{ $round }>(sum));
                c[full..].copy_from_slice(&h[..live]);
            }
        }

        $(#[$doc])*
        pub(crate) fn $widen(src: &[F16], dst: &mut [f32]) {
            assert_eq!(src.len(), dst.len(), "widen length mismatch");
            // SAFETY: only reachable through `simd::select_half`, which
            // returns this entry only after detecting the features; the
            // lengths were just asserted equal.
            unsafe { $widen_k(src, dst) }
        }

        $(#[$doc])*
        pub(crate) fn $accumulate(c: &mut [F16], v: &[f32]) {
            assert_eq!(c.len(), v.len(), "accumulate length mismatch");
            // SAFETY: as for the widen entry above.
            unsafe { $acc_k(c, v) }
        }
    };
}

x86_half! {
    /// F16C conversion, 8 lanes, for the AVX2 verdict on CPUs that also
    /// report `f16c` (AVX2 does not imply it). The F16C immediate has
    /// three bits and no exception-suppression flag, so the explicit
    /// `_MM_FROUND_TO_NEAREST_INT` (bit 2 clear: ignore `MXCSR.RC`) is
    /// the whole rounding control.
    pub(crate) fn f16_widen_f16c, f16_accumulate_f16c => widen_f16c, accumulate_f16c(
        8 lanes, "avx,f16c", round = _MM_FROUND_TO_NEAREST_INT,
        _mm_loadu_si128, _mm_storeu_si128, _mm256_cvtph_ps, _mm256_cvtps_ph,
        _mm256_loadu_ps, _mm256_storeu_ps, _mm256_add_ps,
    );
}

x86_half! {
    /// AVX-512F conversion, 16 lanes: one row of the `8×16` tile is one
    /// instruction each way. Narrowing rounds to nearest-even by its
    /// immediate, whatever `MXCSR.RC` holds.
    pub(crate) fn f16_widen_avx512, f16_accumulate_avx512 => widen_avx512, accumulate_avx512(
        16 lanes, "avx512f", round = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC,
        _mm256_loadu_si256, _mm256_storeu_si256, _mm512_cvtph_ps, _mm512_cvtps_ph,
        _mm512_loadu_ps, _mm512_storeu_ps, _mm512_add_ps,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::{portable, Isa};

    fn panels(kb: usize, mr: usize, nr: usize) -> (Vec<f64>, Vec<f64>) {
        let ap = (0..kb * mr)
            .map(|i| (i as f64 * 0.37).sin())
            .collect::<Vec<_>>();
        let bp = (0..kb * nr)
            .map(|i| (i as f64 * 0.73).cos())
            .collect::<Vec<_>>();
        (ap, bp)
    }

    #[test]
    fn avx2_f64_matches_portable_within_fma_tolerance() {
        if !Isa::Avx2.available() {
            return;
        }
        let kb = 33;
        let (ap, bp) = panels(kb, 8, 8);
        let simd = f64_avx2::<8, 8>(kb, &ap, &bp);
        let scalar = portable::<f64, 8, 8>(kb, &ap, &bp);
        for (sr, pr) in simd.iter().zip(&scalar) {
            for (s, p) in sr.iter().zip(pr) {
                assert!((s - p).abs() < 1e-13, "{s} vs {p}");
            }
        }
    }

    #[test]
    fn avx512_f64_matches_avx2() {
        if !Isa::Avx512.available() {
            return;
        }
        let kb = 17;
        let (ap, bp) = panels(kb, 4, 8);
        let z = f64_avx512::<4, 8>(kb, &ap, &bp);
        let y = f64_avx2::<4, 8>(kb, &ap, &bp);
        for (zr, yr) in z.iter().zip(&y) {
            for (a, b) in zr.iter().zip(yr) {
                assert!((a - b).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn avx512_f32_matches_avx2() {
        if !Isa::Avx512.available() {
            return;
        }
        let kb = 17;
        let (ap, bp) = panels(kb, 8, 16);
        let ap: Vec<f32> = ap.iter().map(|&x| x as f32).collect();
        let bp: Vec<f32> = bp.iter().map(|&x| x as f32).collect();
        let z = f32_avx512::<8, 16>(kb, &ap, &bp);
        let y = f32_avx2::<8, 16>(kb, &ap, &bp);
        let tol = kb as f32 * f32::EPSILON * 8.0;
        for (zr, yr) in z.iter().zip(&y) {
            for (a, b) in zr.iter().zip(yr) {
                assert!((a - b).abs() <= tol * b.abs().max(1.0), "{a} vs {b}");
            }
        }
        assert_eq!(f32_avx512::<8, 16>(0, &[], &[]), [[0.0f32; 16]; 8]);
    }

    #[test]
    fn f32_kernel_handles_zero_depth() {
        if !Isa::Avx2.available() {
            return;
        }
        assert_eq!(f32_avx2::<4, 8>(0, &[], &[]), [[0.0f32; 8]; 4]);
    }

    #[test]
    #[should_panic(expected = "panel too short")]
    fn bounds_are_checked() {
        if !Isa::Avx2.available() {
            panic!("panel too short"); // keep the expectation on non-AVX2 hosts
        }
        let _ = f64_avx2::<4, 4>(9, &[0.0; 8], &[0.0; 64]);
    }
}
