//! The [`F16`] value type and its numeric trait implementations.

use crate::bits::{f16_bits_to_f32, f32_to_f16_bits, INF_BITS, NAN_BITS};
use rand::distributions::{Distribution, Standard};
use rand::Rng;
use std::cmp::Ordering;
use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Rem, Sub, SubAssign};

/// An IEEE 754 binary16 floating-point number, stored as its bit pattern.
///
/// ```
/// use perfport_half::F16;
///
/// let x = F16::from_f32(1.5);
/// let y = F16::from_f32(2048.0);
/// assert_eq!((x + x).to_f32(), 3.0);
/// // Half precision rounds: 2048 + 1 is not representable.
/// assert_eq!((y + F16::ONE).to_f32(), 2048.0);
/// ```
///
/// Arithmetic converts through `f32` and rounds the result back to binary16
/// (round-to-nearest-even). For the basic operations `+ - * /` on half
/// operands this matches correctly rounded binary16 arithmetic except for a
/// handful of double-rounding corner cases in addition that production
/// soft-float half libraries share; multiplication and division of binary16
/// operands are exact in binary32 before the final rounding.
#[derive(Clone, Copy, Default)]
#[repr(transparent)]
pub struct F16(u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0x0000);
    /// Negative zero.
    pub const NEG_ZERO: F16 = F16(0x8000);
    /// One.
    pub const ONE: F16 = F16(0x3c00);
    /// Negative one.
    pub const NEG_ONE: F16 = F16(0xbc00);
    /// Largest finite value, `65504`.
    pub const MAX: F16 = F16(0x7bff);
    /// Smallest finite value, `-65504`.
    pub const MIN: F16 = F16(0xfbff);
    /// Smallest positive normal value, `2^-14`.
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Smallest positive subnormal value, `2^-24`.
    pub const MIN_POSITIVE_SUBNORMAL: F16 = F16(0x0001);
    /// Machine epsilon, `2^-10`.
    pub const EPSILON: F16 = F16(0x1400);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(INF_BITS);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0x8000 | INF_BITS);
    /// Canonical quiet NaN.
    pub const NAN: F16 = F16(NAN_BITS);

    /// Number of significant binary digits (including the implicit bit).
    pub const MANTISSA_DIGITS: u32 = 11;

    /// Builds a value from its raw bit pattern.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        F16(bits)
    }

    /// Returns the raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts from `f32`, rounding to nearest-even.
    #[inline]
    pub fn from_f32(x: f32) -> Self {
        F16(f32_to_f16_bits(x))
    }

    /// Converts from `f64`, rounding to nearest-even.
    ///
    /// The conversion goes through `f32`; since binary32 has more than twice
    /// the precision and a vastly wider exponent range than binary16, the
    /// intermediate rounding only matters for values that are already ties
    /// at binary32 precision, which cannot flip a binary16 rounding
    /// decision for inputs exactly representable in binary64 halfway cases.
    #[inline]
    pub fn from_f64(x: f64) -> Self {
        F16(f32_to_f16_bits(x as f32))
    }

    /// Widens to the exactly representable `f32`.
    #[inline]
    pub fn to_f32(self) -> f32 {
        f16_bits_to_f32(self.0)
    }

    /// Widens a slice element-wise into `dst` (exact; `f32` represents
    /// every `f16` value). The bulk form GEMM pack routines use to
    /// convert whole contiguous panels at once.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    #[inline]
    pub fn widen_slice(src: &[F16], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len(), "widen_slice length mismatch");
        for (d, s) in dst.iter_mut().zip(src) {
            *d = s.to_f32();
        }
    }

    /// Widens to the exactly representable `f64`.
    #[inline]
    pub fn to_f64(self) -> f64 {
        f16_bits_to_f32(self.0) as f64
    }

    /// `true` if the value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7c00) == 0x7c00 && (self.0 & 0x03ff) != 0
    }

    /// `true` if the value is positive or negative infinity.
    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7fff) == INF_BITS
    }

    /// `true` if the value is neither infinite nor NaN.
    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7c00) != 0x7c00
    }

    /// `true` for subnormal values (non-zero, exponent field zero).
    #[inline]
    pub fn is_subnormal(self) -> bool {
        (self.0 & 0x7c00) == 0 && (self.0 & 0x03ff) != 0
    }

    /// `true` if the sign bit is set (includes `-0` and negative NaNs).
    #[inline]
    pub fn is_sign_negative(self) -> bool {
        self.0 & 0x8000 != 0
    }

    /// Absolute value (clears the sign bit, NaN payload preserved).
    #[inline]
    pub fn abs(self) -> Self {
        F16(self.0 & 0x7fff)
    }

    /// Fused multiply-add `self * a + b`, computed exactly in `f64` and
    /// rounded once — the semantics of a hardware FMA instruction.
    #[inline]
    pub fn mul_add(self, a: F16, b: F16) -> Self {
        F16::from_f64(self.to_f64() * a.to_f64() + b.to_f64())
    }

    /// Square root, correctly rounded via `f64`.
    #[inline]
    pub fn sqrt(self) -> Self {
        F16::from_f64(self.to_f64().sqrt())
    }

    /// The larger of two values; NaN loses against any number, mirroring
    /// `f32::max`.
    #[inline]
    pub fn max(self, other: F16) -> Self {
        F16::from_f32(self.to_f32().max(other.to_f32()))
    }

    /// The smaller of two values; NaN loses against any number.
    #[inline]
    pub fn min(self, other: F16) -> Self {
        F16::from_f32(self.to_f32().min(other.to_f32()))
    }

    /// Total order over bit patterns (IEEE 754 `totalOrder`), used by tests
    /// that need a deterministic sort including NaNs.
    #[inline]
    pub fn total_cmp(self, other: F16) -> Ordering {
        // Flip negative values so the integer order matches numeric order.
        fn key(bits: u16) -> i32 {
            let b = bits as i32;
            if b & 0x8000 != 0 {
                !b & 0xffff
            } else {
                b | 0x1_0000
            }
        }
        key(self.0).cmp(&key(other.0))
    }
}

macro_rules! via_f32 {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign_method:ident, $op:tt) => {
        impl $trait for F16 {
            type Output = F16;
            #[inline]
            fn $method(self, rhs: F16) -> F16 {
                F16::from_f32(self.to_f32() $op rhs.to_f32())
            }
        }
        impl $assign_trait for F16 {
            #[inline]
            fn $assign_method(&mut self, rhs: F16) {
                *self = *self $op rhs;
            }
        }
    };
}

via_f32!(Add, add, AddAssign, add_assign, +);
via_f32!(Sub, sub, SubAssign, sub_assign, -);
via_f32!(Mul, mul, MulAssign, mul_assign, *);
via_f32!(Div, div, DivAssign, div_assign, /);

impl Rem for F16 {
    type Output = F16;
    #[inline]
    fn rem(self, rhs: F16) -> F16 {
        F16::from_f32(self.to_f32() % rhs.to_f32())
    }
}

impl Neg for F16 {
    type Output = F16;
    #[inline]
    fn neg(self) -> F16 {
        F16(self.0 ^ 0x8000)
    }
}

impl PartialEq for F16 {
    #[inline]
    fn eq(&self, other: &F16) -> bool {
        // IEEE semantics: NaN != NaN, +0 == -0.
        self.to_f32() == other.to_f32()
    }
}

impl PartialOrd for F16 {
    #[inline]
    fn partial_cmp(&self, other: &F16) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl Sum for F16 {
    fn sum<I: Iterator<Item = F16>>(iter: I) -> F16 {
        iter.fold(F16::ZERO, |a, b| a + b)
    }
}

impl Product for F16 {
    fn product<I: Iterator<Item = F16>>(iter: I) -> F16 {
        iter.fold(F16::ONE, |a, b| a * b)
    }
}

impl From<f32> for F16 {
    fn from(x: f32) -> F16 {
        F16::from_f32(x)
    }
}

impl From<F16> for f32 {
    fn from(x: F16) -> f32 {
        x.to_f32()
    }
}

impl From<F16> for f64 {
    fn from(x: F16) -> f64 {
        x.to_f64()
    }
}

impl From<u8> for F16 {
    fn from(x: u8) -> F16 {
        F16::from_f32(x as f32)
    }
}

impl From<i8> for F16 {
    fn from(x: i8) -> F16 {
        F16::from_f32(x as f32)
    }
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}f16", self.to_f32())
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

/// Uniform sampling in `[0, 1)` — the capability the paper calls out as
/// missing for `numpy.float16` (forcing the Numba experiment to fill inputs
/// with ones) but present in Julia.
impl Distribution<F16> for Standard {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> F16 {
        // Generate with 11 significant bits so every draw is exact in f16
        // and the distribution over representable values is uniform in value
        // (matching `rand(Float16)` in Julia).
        let v = rng.gen_range(0u16..2048);
        F16::from_f32(v as f32 / 2048.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constants_have_expected_values() {
        assert_eq!(F16::ONE.to_f32(), 1.0);
        assert_eq!(F16::NEG_ONE.to_f32(), -1.0);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::MIN.to_f32(), -65504.0);
        assert_eq!(F16::MIN_POSITIVE.to_f32(), 2.0f32.powi(-14));
        assert_eq!(F16::MIN_POSITIVE_SUBNORMAL.to_f32(), 2.0f32.powi(-24));
        assert_eq!(F16::EPSILON.to_f32(), 2.0f32.powi(-10));
        assert!(F16::NAN.is_nan());
        assert!(F16::INFINITY.is_infinite());
        assert!(F16::NEG_INFINITY.is_infinite());
    }

    #[test]
    fn basic_arithmetic() {
        let a = F16::from_f32(1.5);
        let b = F16::from_f32(2.25);
        assert_eq!((a + b).to_f32(), 3.75);
        assert_eq!((b - a).to_f32(), 0.75);
        assert_eq!((a * b).to_f32(), 3.375);
        assert_eq!((b / F16::from_f32(0.75)).to_f32(), 3.0);
        assert_eq!((-a).to_f32(), -1.5);
        assert_eq!((b % a).to_f32(), 0.75);
    }

    #[test]
    fn assign_ops_match_binary_ops() {
        let mut x = F16::from_f32(0.5);
        x += F16::ONE;
        assert_eq!(x.to_f32(), 1.5);
        x *= F16::from_f32(4.0);
        assert_eq!(x.to_f32(), 6.0);
        x -= F16::ONE;
        assert_eq!(x.to_f32(), 5.0);
        x /= F16::from_f32(2.0);
        assert_eq!(x.to_f32(), 2.5);
    }

    #[test]
    fn addition_rounds_to_half_precision() {
        // 2048 + 1 is not representable in f16 (11-bit mantissa): ties to
        // even keeps 2048.
        let big = F16::from_f32(2048.0);
        assert_eq!((big + F16::ONE).to_f32(), 2048.0);
        // 2048 + 2 is representable.
        assert_eq!((big + F16::from_f32(2.0)).to_f32(), 2050.0);
    }

    #[test]
    fn overflow_in_arithmetic_goes_to_infinity() {
        let x = F16::MAX;
        assert!((x + x).is_infinite());
        assert!((x * F16::from_f32(2.0)).is_infinite());
        assert!((-x - x).is_infinite());
        assert!((-x - x).is_sign_negative());
    }

    #[test]
    fn nan_propagates() {
        let n = F16::NAN;
        assert!((n + F16::ONE).is_nan());
        assert!((n * F16::ZERO).is_nan());
        assert!((F16::INFINITY - F16::INFINITY).is_nan());
        assert!((F16::ZERO / F16::ZERO).is_nan());
        assert_ne!(n, n);
    }

    #[test]
    fn signed_zero_semantics() {
        assert_eq!(F16::ZERO, F16::NEG_ZERO);
        assert!(F16::NEG_ZERO.is_sign_negative());
        assert!(!F16::ZERO.is_sign_negative());
        assert_eq!((-F16::ZERO).to_bits(), F16::NEG_ZERO.to_bits());
    }

    #[test]
    fn mul_add_is_single_rounded() {
        // Choose operands where (a*b) rounds differently than fma:
        // a = 1 + 2^-10 (ulp of 1), a*a = 1 + 2^-9 + 2^-20.
        let a = F16::from_f32(1.0 + 2.0f32.powi(-10));
        let naive = a * a + F16::ZERO;
        let fused = a.mul_add(a, F16::ZERO);
        // a*a in f16: 1 + 2^-9 + 2^-20 rounds to 1 + 2^-9 (2^-20 below half
        // ulp). Here both agree; verify the fused result is the correctly
        // rounded one computed in f64.
        let exact = a.to_f64() * a.to_f64();
        assert_eq!(fused, F16::from_f64(exact));
        assert_eq!(naive, fused);

        // A case where they differ: c + a*b with cancellation.
        let x = F16::from_f32(255.9);
        let fused = x.mul_add(x, -(x * x));
        // fused = x^2 - round(x^2), the (negated) rounding error: non-zero.
        let naive = x * x - x * x;
        assert_eq!(naive.to_f32(), 0.0);
        assert!(fused.abs() > F16::ZERO, "fma must expose rounding error");
    }

    #[test]
    fn comparisons_follow_ieee() {
        assert!(F16::ONE < F16::from_f32(1.5));
        assert!(F16::NEG_INFINITY < F16::MIN);
        assert!(F16::MAX < F16::INFINITY);
        assert_eq!(F16::NAN.partial_cmp(&F16::ONE), None);
    }

    #[test]
    fn total_cmp_orders_all_bit_patterns() {
        let mut vals = vec![
            F16::NEG_INFINITY,
            F16::MIN,
            F16::NEG_ONE,
            F16::NEG_ZERO,
            F16::ZERO,
            F16::MIN_POSITIVE_SUBNORMAL,
            F16::MIN_POSITIVE,
            F16::ONE,
            F16::MAX,
            F16::INFINITY,
        ];
        let sorted = vals.clone();
        vals.reverse();
        vals.sort_by(|a, b| a.total_cmp(*b));
        for (a, b) in vals.iter().zip(&sorted) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn sum_and_product_fold_in_half_precision() {
        let ones = [F16::ONE; 100];
        let s: F16 = ones.iter().copied().sum();
        assert_eq!(s.to_f32(), 100.0);
        let p: F16 = vec![F16::from_f32(2.0); 10].into_iter().product();
        assert_eq!(p.to_f32(), 1024.0);
    }

    #[test]
    fn random_sampling_is_exact_and_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: F16 = rng.gen();
            let f = x.to_f32();
            assert!((0.0..1.0).contains(&f));
            // Exactness: converting back must be lossless.
            assert_eq!(F16::from_f32(f), x);
        }
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(format!("{}", F16::from_f32(1.5)), "1.5");
        assert_eq!(format!("{:?}", F16::from_f32(1.5)), "1.5f16");
    }

    #[test]
    fn classification() {
        assert!(F16::MIN_POSITIVE_SUBNORMAL.is_subnormal());
        assert!(!F16::MIN_POSITIVE.is_subnormal());
        assert!(F16::ONE.is_finite());
        assert!(!F16::INFINITY.is_finite());
        assert!(!F16::NAN.is_finite());
        assert!(F16::from_f32(-3.0).is_sign_negative());
    }
}
