//! aarch64 NEON/ASIMD microkernels (128-bit lanes).
//!
//! Structure mirrors [`crate::simd::x86`]: const-generic register tiles,
//! one fused multiply-add per accumulator register per `p` step, with the
//! `A` value broadcast via the `*_n_*` lane forms. `f64` uses 2-lane
//! vectors (`NR % 2 == 0`), `f32` 4-lane (`NR % 4 == 0`); every
//! supported [`crate::TileShape`] qualifies on this architecture except
//! `f64` `8×16`, whose eight vectors per row exceed `MAX_VECS` and which
//! therefore runs the portable kernel. The
//! same FMA-contraction caveat as on x86 applies: results differ from the
//! portable kernel by at most one rounding per multiply-accumulate.

use std::arch::aarch64::*;

/// Largest `NR/W` the dispatcher hands to a NEON kernel; wider rows are
/// routed to the portable kernel by [`crate::simd::select`].
pub(crate) const MAX_VECS: usize = 4;

/// `f64` tile on 2-lane NEON vectors; `NR` must be even.
///
/// # Safety
///
/// Requires NEON at runtime (baseline on aarch64, still verified by the
/// dispatcher); `ap`/`bp` must hold at least `kb*MR` / `kb*NR` elements.
#[target_feature(enable = "neon")]
unsafe fn kernel_f64_neon<const MR: usize, const NR: usize>(
    kb: usize,
    ap: &[f64],
    bp: &[f64],
) -> [[f64; NR]; MR] {
    const W: usize = 2;
    debug_assert!(NR % W == 0 && NR / W <= MAX_VECS);
    let nv = NR / W;
    let mut acc = [[vdupq_n_f64(0.0); MAX_VECS]; MR];
    let a = ap.as_ptr();
    let b = bp.as_ptr();
    for p in 0..kb {
        let mut bv = [vdupq_n_f64(0.0); MAX_VECS];
        for (j, v) in bv.iter_mut().enumerate().take(nv) {
            *v = vld1q_f64(b.add(p * NR + j * W));
        }
        for (r, row) in acc.iter_mut().enumerate() {
            let av = *a.add(p * MR + r);
            for j in 0..nv {
                row[j] = vfmaq_n_f64(row[j], bv[j], av);
            }
        }
    }
    let mut out = [[0.0f64; NR]; MR];
    for (r, row) in out.iter_mut().enumerate() {
        for j in 0..nv {
            vst1q_f64(row.as_mut_ptr().add(j * W), acc[r][j]);
        }
    }
    out
}

/// `f32` tile on 4-lane NEON vectors; `NR` must be a multiple of 4.
///
/// # Safety
///
/// As for [`kernel_f64_neon`].
#[target_feature(enable = "neon")]
unsafe fn kernel_f32_neon<const MR: usize, const NR: usize>(
    kb: usize,
    ap: &[f32],
    bp: &[f32],
) -> [[f32; NR]; MR] {
    const W: usize = 4;
    debug_assert!(NR % W == 0 && NR / W <= MAX_VECS);
    let nv = NR / W;
    let mut acc = [[vdupq_n_f32(0.0); MAX_VECS]; MR];
    let a = ap.as_ptr();
    let b = bp.as_ptr();
    for p in 0..kb {
        let mut bv = [vdupq_n_f32(0.0); MAX_VECS];
        for (j, v) in bv.iter_mut().enumerate().take(nv) {
            *v = vld1q_f32(b.add(p * NR + j * W));
        }
        for (r, row) in acc.iter_mut().enumerate() {
            let av = *a.add(p * MR + r);
            for j in 0..nv {
                row[j] = vfmaq_n_f32(row[j], bv[j], av);
            }
        }
    }
    let mut out = [[0.0f32; NR]; MR];
    for (r, row) in out.iter_mut().enumerate() {
        for j in 0..nv {
            vst1q_f32(row.as_mut_ptr().add(j * W), acc[r][j]);
        }
    }
    out
}

/// Safe entry for the NEON `f64` kernel (handed out by
/// [`crate::simd::select`] only under a NEON verdict).
pub(crate) fn f64_neon<const MR: usize, const NR: usize>(
    kb: usize,
    ap: &[f64],
    bp: &[f64],
) -> [[f64; NR]; MR] {
    assert!(
        ap.len() >= kb * MR && bp.len() >= kb * NR,
        "panel too short"
    );
    // SAFETY: only reachable through `simd::select` under a NEON
    // verdict; panel bounds were just asserted.
    unsafe { kernel_f64_neon::<MR, NR>(kb, ap, bp) }
}

/// Safe entry for the NEON `f32` kernel.
pub(crate) fn f32_neon<const MR: usize, const NR: usize>(
    kb: usize,
    ap: &[f32],
    bp: &[f32],
) -> [[f32; NR]; MR] {
    assert!(
        ap.len() >= kb * MR && bp.len() >= kb * NR,
        "panel too short"
    );
    // SAFETY: as for `f64_neon`.
    unsafe { kernel_f32_neon::<MR, NR>(kb, ap, bp) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::{portable, Isa};

    #[test]
    fn neon_matches_portable_within_fma_tolerance() {
        if !Isa::Neon.available() {
            return;
        }
        let kb = 21;
        let ap: Vec<f64> = (0..kb * 8).map(|i| (i as f64 * 0.37).sin()).collect();
        let bp: Vec<f64> = (0..kb * 8).map(|i| (i as f64 * 0.73).cos()).collect();
        let simd = f64_neon::<8, 8>(kb, &ap, &bp);
        let scalar = portable::<f64, 8, 8>(kb, &ap, &bp);
        for (sr, pr) in simd.iter().zip(&scalar) {
            for (s, p) in sr.iter().zip(pr) {
                assert!((s - p).abs() < 1e-13);
            }
        }
    }
}
