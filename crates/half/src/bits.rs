//! Bit-level conversions between IEEE 754 binary32 and binary16.
//!
//! Layout of a binary16 value:
//!
//! ```text
//! 15   14..10    9..0
//! sign exponent  mantissa        bias = 15
//! ```
//!
//! All conversions use round-to-nearest, ties-to-even — the default rounding
//! mode on every platform the paper targets.

/// Number of mantissa bits in binary16.
pub(crate) const MAN_BITS: u32 = 10;
/// Number of mantissa bits in binary32.
const F32_MAN_BITS: u32 = 23;
/// Exponent bias of binary16.
pub(crate) const EXP_BIAS: i32 = 15;
/// Exponent bias of binary32.
const F32_EXP_BIAS: i32 = 127;
/// Bit pattern of positive infinity in binary16.
pub(crate) const INF_BITS: u16 = 0x7c00;
/// Canonical quiet NaN in binary16.
pub(crate) const NAN_BITS: u16 = 0x7e00;
/// Quiet bit of a binary32 NaN (the top mantissa bit).
const F32_QUIET_BIT: u32 = 1 << (F32_MAN_BITS - 1);

/// Converts a binary32 value to binary16 bits with round-to-nearest-even.
///
/// Overflow saturates to infinity, underflow rounds through the subnormal
/// range down to (signed) zero, and NaNs are quieted while preserving the
/// top mantissa payload bits.
pub fn f32_to_f16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> F32_MAN_BITS) & 0xff) as i32;
    let man = bits & 0x007f_ffff;

    if exp == 0xff {
        if man == 0 {
            return sign | INF_BITS;
        }
        // Quiet the NaN and keep the high payload bits; force the quiet bit
        // so a payload of zero cannot collapse into infinity.
        return sign | NAN_BITS | ((man >> (F32_MAN_BITS - MAN_BITS)) as u16);
    }

    let unbiased = exp - F32_EXP_BIAS;

    if unbiased >= 16 {
        // Magnitude is at least 2^16 > f16::MAX even after rounding.
        return sign | INF_BITS;
    }

    if unbiased >= -14 {
        // Result is a normal binary16 number (modulo rounding overflow,
        // which the carry out of `+ 1` below handles: mantissa overflow
        // increments the exponent and can correctly reach infinity).
        let e = (unbiased + EXP_BIAS) as u16;
        let m = (man >> (F32_MAN_BITS - MAN_BITS)) as u16;
        let out = sign | (e << MAN_BITS) | m;
        let round = man & 0x1fff;
        if round > 0x1000 || (round == 0x1000 && (m & 1) == 1) {
            return out + 1;
        }
        return out;
    }

    if unbiased < -25 {
        // Magnitude is below half of the smallest subnormal: rounds to zero.
        return sign;
    }

    // Subnormal range: value = full_man * 2^(unbiased - 23), and the target
    // unit in the last place is 2^-24, so the result mantissa is
    // full_man >> (-(unbiased) - 1).
    let full_man = man | 0x0080_0000;
    let shift = (-unbiased - 1) as u32;
    debug_assert!((14..=24).contains(&shift));
    let m = (full_man >> shift) as u16;
    let rem = full_man & ((1u32 << shift) - 1);
    let half = 1u32 << (shift - 1);
    let out = sign | m;
    if rem > half || (rem == half && (m & 1) == 1) {
        // May carry into the exponent field, correctly producing the
        // smallest normal number.
        return out + 1;
    }
    out
}

/// Converts binary16 bits to the exactly representable binary32 value.
///
/// Every finite binary16 value is exactly representable in binary32, so
/// this direction is lossless. A NaN keeps its sign and payload and comes
/// out quiet, signalling ones included, which makes this routine
/// bit-identical to the hardware conversion on all 65 536 inputs.
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> MAN_BITS) & 0x1f) as u32;
    let man = (h & 0x03ff) as u32;

    let bits = match exp {
        0 => {
            if man == 0 {
                sign // signed zero
            } else {
                // Subnormal: value = man * 2^-24. Normalise so the leading
                // set bit becomes the implicit bit.
                let p = 31 - man.leading_zeros(); // position of MSB, 0..=9
                let e32 = (p as i32 - 24 + F32_EXP_BIAS) as u32;
                let m32 = (man << (F32_MAN_BITS - p)) & 0x007f_ffff;
                sign | (e32 << F32_MAN_BITS) | m32
            }
        }
        31 => {
            if man == 0 {
                sign | 0x7f80_0000
            } else {
                // Keep the payload in the top mantissa bits and set the f32
                // quiet bit: IEEE 754 format conversion quiets a signalling
                // NaN, exactly as F16C / AVX-512 `vcvtph2ps` do.
                sign | 0x7f80_0000 | F32_QUIET_BIT | (man << (F32_MAN_BITS - MAN_BITS))
            }
        }
        _ => {
            let e32 = (exp as i32 - EXP_BIAS + F32_EXP_BIAS) as u32;
            sign | (e32 << F32_MAN_BITS) | (man << (F32_MAN_BITS - MAN_BITS))
        }
    };
    f32::from_bits(bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(x: f32) -> f32 {
        f16_bits_to_f32(f32_to_f16_bits(x))
    }

    #[test]
    fn exact_small_integers_round_trip() {
        for i in -2048..=2048 {
            let x = i as f32;
            assert_eq!(rt(x), x, "integer {i} must be exact in f16");
        }
    }

    #[test]
    fn max_finite_value() {
        // f16::MAX = 65504.
        assert_eq!(rt(65504.0), 65504.0);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7bff);
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert_eq!(f32_to_f16_bits(65536.0), INF_BITS);
        assert_eq!(f32_to_f16_bits(1e30), INF_BITS);
        assert_eq!(f32_to_f16_bits(-1e30), 0x8000 | INF_BITS);
    }

    #[test]
    fn rounding_overflow_at_max_boundary() {
        // 65520 is the midpoint between 65504 (max finite) and 65536; ties
        // to even rounds *up* to infinity because the max-finite mantissa is
        // odd (0x3ff).
        assert_eq!(f32_to_f16_bits(65520.0), INF_BITS);
        // Just under the midpoint stays finite.
        assert_eq!(f32_to_f16_bits(65519.996), 0x7bff);
    }

    #[test]
    fn smallest_normal_and_subnormals() {
        let min_normal = 6.103_515_6e-5; // 2^-14
        assert_eq!(rt(min_normal), min_normal);
        assert_eq!(f32_to_f16_bits(min_normal), 0x0400);

        let min_subnormal = 5.960_464_477_539_063e-8_f64 as f32; // 2^-24
        assert_eq!(f32_to_f16_bits(min_subnormal), 0x0001);
        assert_eq!(f16_bits_to_f32(0x0001), min_subnormal);
    }

    #[test]
    fn underflow_to_zero() {
        // Half of the smallest subnormal ties to even = zero.
        let half_min = (2.0f64.powi(-25)) as f32;
        assert_eq!(f32_to_f16_bits(half_min), 0x0000);
        assert_eq!(f32_to_f16_bits(-half_min), 0x8000);
        // Slightly above the midpoint rounds to the smallest subnormal.
        let above = (2.0f64.powi(-25) * 1.001) as f32;
        assert_eq!(f32_to_f16_bits(above), 0x0001);
        // Anything below 2^-25 is a clean zero.
        assert_eq!(f32_to_f16_bits(1e-12), 0x0000);
    }

    #[test]
    fn signed_zero_preserved() {
        assert_eq!(f32_to_f16_bits(0.0), 0x0000);
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        assert_eq!(f16_bits_to_f32(0x8000).to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn nan_is_quieted_and_stays_nan() {
        let h = f32_to_f16_bits(f32::NAN);
        assert_eq!(h & 0x7c00, 0x7c00);
        assert_ne!(h & 0x03ff, 0, "NaN must not collapse to infinity");
        assert!(f16_bits_to_f32(h).is_nan());
        // Signalling NaN with a tiny payload must not become infinity.
        let snan = f32::from_bits(0x7f80_0001);
        let h = f32_to_f16_bits(snan);
        assert_ne!(h & 0x03ff, 0);
        assert!(f16_bits_to_f32(h).is_nan());
    }

    #[test]
    fn every_nan_widens_quiet_with_its_sign_and_payload() {
        let mut signalling = 0;
        for h in (0..=u16::MAX).filter(|h| h & 0x7c00 == 0x7c00 && h & 0x03ff != 0) {
            let bits = f16_bits_to_f32(h).to_bits();
            let payload = u32::from(h & 0x03ff) << (F32_MAN_BITS - MAN_BITS);
            let sign = u32::from(h & 0x8000) << 16;
            assert_eq!(
                bits,
                sign | 0x7f80_0000 | F32_QUIET_BIT | payload,
                "{h:#06x}"
            );
            signalling += usize::from(h & 0x0200 == 0);
        }
        assert_eq!(signalling, 1022, "every signalling pattern was checked");
    }

    #[test]
    fn infinity_round_trips() {
        assert_eq!(f16_bits_to_f32(INF_BITS), f32::INFINITY);
        assert_eq!(f16_bits_to_f32(0x8000 | INF_BITS), f32::NEG_INFINITY);
        assert_eq!(f32_to_f16_bits(f32::INFINITY), INF_BITS);
    }

    #[test]
    fn ties_to_even_in_normal_range() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next f16
        // (1 + 2^-10); even mantissa (0) wins -> 1.0.
        let x = 1.0 + 2.0f32.powi(-11);
        assert_eq!(rt(x), 1.0);
        // (1 + 2^-10) + 2^-11 is halfway between two values whose lower
        // mantissa bit is 1 and 0; rounds up to the even one.
        let y = 1.0 + 2.0f32.powi(-10) + 2.0f32.powi(-11);
        assert_eq!(rt(y), 1.0 + 2.0 * 2.0f32.powi(-10));
    }

    #[test]
    fn every_f16_bit_pattern_round_trips_through_f32() {
        for h in 0..=u16::MAX {
            let f = f16_bits_to_f32(h);
            let back = f32_to_f16_bits(f);
            if f.is_nan() {
                assert_eq!(back & 0x7c00, 0x7c00);
                assert_ne!(back & 0x03ff, 0);
            } else {
                assert_eq!(back, h, "bit pattern {h:#06x} failed round trip");
            }
        }
    }

    #[test]
    fn conversion_matches_nearest_f16_by_exhaustive_search() {
        // For a sample of f32 values, verify that the chosen f16 is at least
        // as close as both neighbouring candidates (correct rounding).
        let samples = [
            0.1f32,
            0.2,
            0.3,
            1.0 / 3.0,
            2.0 / 3.0,
            0.7,
            std::f32::consts::PI,
            std::f32::consts::E,
            123.456,
            1000.001,
            0.00012345,
            6e-5,
            3e-5,
            1e-6,
            60000.0,
        ];
        for &s in &samples {
            for &x in &[s, -s] {
                let h = f32_to_f16_bits(x);
                let chosen = f16_bits_to_f32(h) as f64;
                let err = (chosen - x as f64).abs();
                // Compare against neighbours one ulp away.
                for delta in [-1i32, 1] {
                    let n = h.wrapping_add(delta as u16);
                    // Skip non-finite neighbours and sign flips.
                    if n & 0x7c00 == 0x7c00 || (n ^ h) & 0x8000 != 0 {
                        continue;
                    }
                    let cand = f16_bits_to_f32(n) as f64;
                    let cand_err = (cand - x as f64).abs();
                    assert!(
                        err <= cand_err,
                        "{x} rounded to {chosen} but {cand} is closer"
                    );
                }
            }
        }
    }
}
