//! The BFloat16 scalar type.

use core::cmp::Ordering;
use core::fmt;

/// A 16-bit brain floating point number: 1 sign bit, 8 exponent bits,
/// 7 mantissa bits.
///
/// `Bf16` is a transparent wrapper over the raw bit pattern. All conversions
/// are implemented from scratch (no dependency on the `half` crate):
/// `from_f32` performs IEEE-754 round-to-nearest-even truncation of the
/// 32-bit significand, which is the conversion used when LLM checkpoints are
/// stored in BF16.
///
/// # Example
///
/// ```
/// use zipserv_bf16::Bf16;
///
/// let x = Bf16::from_f32(0.15625);
/// assert_eq!(x.to_f32(), 0.15625); // exactly representable
/// assert_eq!(x.exponent(), 124);   // 2^-3 => 127 - 3
/// assert_eq!(x.sign(), 0);
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
#[repr(transparent)]
pub struct Bf16(u16);

impl Bf16 {
    /// Positive zero.
    pub const ZERO: Bf16 = Bf16(0);
    /// One.
    pub const ONE: Bf16 = Bf16(0x3F80);
    /// Positive infinity.
    pub const INFINITY: Bf16 = Bf16(0x7F80);
    /// Negative infinity.
    pub const NEG_INFINITY: Bf16 = Bf16(0xFF80);
    /// A quiet NaN.
    pub const NAN: Bf16 = Bf16(0x7FC0);
    /// Smallest positive normal value (2^-126).
    pub const MIN_POSITIVE: Bf16 = Bf16(0x0080);
    /// Largest finite value (~3.39e38).
    pub const MAX: Bf16 = Bf16(0x7F7F);

    /// Creates a `Bf16` from its raw bit pattern.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        Bf16(bits)
    }

    /// Returns the raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts an `f32` to `Bf16` with round-to-nearest-even.
    ///
    /// NaN payloads are preserved in the upper bits, with the quiet bit
    /// forced so the result is never an unintended infinity.
    #[inline]
    pub fn from_f32(value: f32) -> Self {
        let bits = value.to_bits();
        if value.is_nan() {
            // Keep the top of the payload, force a quiet NaN.
            return Bf16(((bits >> 16) as u16) | 0x0040);
        }
        // Round to nearest even: add 0x7FFF + lsb of the kept part.
        let lsb = (bits >> 16) & 1;
        let rounded = bits.wrapping_add(0x7FFF + lsb);
        Bf16((rounded >> 16) as u16)
    }

    /// Converts this value to `f32` exactly (BF16 ⊂ FP32).
    #[inline]
    pub fn to_f32(self) -> f32 {
        f32::from_bits((self.0 as u32) << 16)
    }

    /// Builds a BF16 from its three bit fields.
    ///
    /// `sign` must be 0 or 1, `exponent` is the raw biased 8-bit field and
    /// `mantissa` the raw 7-bit field.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if a field is out of range.
    #[inline]
    pub fn from_parts(sign: u16, exponent: u16, mantissa: u16) -> Self {
        debug_assert!(sign <= 1, "sign must be 0 or 1");
        debug_assert!(exponent <= 0xFF, "exponent must fit in 8 bits");
        debug_assert!(mantissa <= 0x7F, "mantissa must fit in 7 bits");
        Bf16((sign << 15) | (exponent << 7) | mantissa)
    }

    /// The sign bit (0 for positive, 1 for negative).
    #[inline]
    pub const fn sign(self) -> u16 {
        self.0 >> 15
    }

    /// The raw (biased) 8-bit exponent field.
    #[inline]
    pub const fn exponent(self) -> u8 {
        ((self.0 >> 7) & 0xFF) as u8
    }

    /// The raw 7-bit mantissa field.
    #[inline]
    pub const fn mantissa(self) -> u8 {
        (self.0 & 0x7F) as u8
    }

    /// The sign and mantissa packed into a single byte, as stored in the
    /// TCA-TBE `PackedSignMantissa` buffer: bit 7 = sign, bits 0..7 = mantissa.
    #[inline]
    pub const fn packed_sign_mantissa(self) -> u8 {
        (((self.0 >> 15) as u8) << 7) | ((self.0 & 0x7F) as u8)
    }

    /// Reconstructs a BF16 from a packed sign/mantissa byte plus a raw
    /// exponent field. Inverse of [`Bf16::packed_sign_mantissa`].
    #[inline]
    pub const fn from_packed(packed: u8, exponent: u8) -> Self {
        let sign = ((packed >> 7) & 1) as u16;
        let mantissa = (packed & 0x7F) as u16;
        Bf16((sign << 15) | ((exponent as u16) << 7) | mantissa)
    }

    /// The unbiased exponent value `E - 127` for normal numbers.
    #[inline]
    pub const fn unbiased_exponent(self) -> i32 {
        self.exponent() as i32 - 127
    }

    /// Is this a NaN?
    #[inline]
    pub const fn is_nan(self) -> bool {
        self.exponent() == 0xFF && self.mantissa() != 0
    }

    /// Is this positive or negative infinity?
    #[inline]
    pub const fn is_infinite(self) -> bool {
        self.exponent() == 0xFF && self.mantissa() == 0
    }

    /// Is this a finite number (neither infinite nor NaN)?
    #[inline]
    pub const fn is_finite(self) -> bool {
        self.exponent() != 0xFF
    }

    /// Is this a subnormal number (exponent field 0, non-zero mantissa)?
    #[inline]
    pub const fn is_subnormal(self) -> bool {
        self.exponent() == 0 && self.mantissa() != 0
    }

    /// Is this positive or negative zero?
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 & 0x7FFF == 0
    }

    /// The absolute value (clears the sign bit).
    #[inline]
    pub const fn abs(self) -> Self {
        Bf16(self.0 & 0x7FFF)
    }

    /// Negation (flips the sign bit, including on NaN).
    #[inline]
    pub const fn neg(self) -> Self {
        Bf16(self.0 ^ 0x8000)
    }
}

impl From<Bf16> for f32 {
    #[inline]
    fn from(x: Bf16) -> f32 {
        x.to_f32()
    }
}

impl From<f32> for Bf16 {
    #[inline]
    fn from(x: f32) -> Bf16 {
        Bf16::from_f32(x)
    }
}

impl PartialOrd for Bf16 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl fmt::Debug for Bf16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bf16({} = {:#06x})", self.to_f32(), self.0)
    }
}

impl fmt::Display for Bf16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

impl fmt::LowerHex for Bf16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Bf16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for Bf16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl core::ops::Add for Bf16 {
    type Output = Bf16;
    #[inline]
    fn add(self, rhs: Self) -> Self::Output {
        Bf16::from_f32(self.to_f32() + rhs.to_f32())
    }
}

impl core::ops::Sub for Bf16 {
    type Output = Bf16;
    #[inline]
    fn sub(self, rhs: Self) -> Self::Output {
        Bf16::from_f32(self.to_f32() - rhs.to_f32())
    }
}

impl core::ops::Mul for Bf16 {
    type Output = Bf16;
    #[inline]
    fn mul(self, rhs: Self) -> Self::Output {
        Bf16::from_f32(self.to_f32() * rhs.to_f32())
    }
}

impl core::ops::Neg for Bf16 {
    type Output = Bf16;
    #[inline]
    fn neg(self) -> Self::Output {
        Bf16::neg(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one_roundtrip() {
        assert_eq!(Bf16::from_f32(0.0).to_bits(), 0);
        assert_eq!(Bf16::from_f32(1.0), Bf16::ONE);
        assert_eq!(Bf16::ONE.to_f32(), 1.0);
    }

    #[test]
    fn negative_zero_keeps_sign() {
        let nz = Bf16::from_f32(-0.0);
        assert_eq!(nz.sign(), 1);
        assert!(nz.is_zero());
        assert_eq!(nz.to_f32().to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn round_to_nearest_even_up() {
        // 1.0 + 2^-8 is exactly between 1.0 and the next BF16 (1 + 2^-7):
        // ties to even mantissa => stays at 1.0.
        let tie = f32::from_bits(0x3F80_8000);
        assert_eq!(Bf16::from_f32(tie), Bf16::ONE);
        // Slightly above the tie rounds up.
        let above = f32::from_bits(0x3F80_8001);
        assert_eq!(Bf16::from_f32(above).to_bits(), 0x3F81);
    }

    #[test]
    fn round_to_nearest_even_odd_mantissa() {
        // (1 + 2^-7) + 2^-8: tie with odd mantissa rounds up to even.
        let tie = f32::from_bits(0x3F81_8000);
        assert_eq!(Bf16::from_f32(tie).to_bits(), 0x3F82);
    }

    #[test]
    fn field_extraction() {
        let x = Bf16::from_f32(-3.5); // sign 1, exp 128 (2^1), mantissa 1.75 -> 0x60
        assert_eq!(x.sign(), 1);
        assert_eq!(x.exponent(), 128);
        assert_eq!(x.mantissa(), 0x60);
        assert_eq!(x.unbiased_exponent(), 1);
    }

    #[test]
    fn from_parts_matches_extraction() {
        for bits in [0u16, 1, 0x3F80, 0x7F80, 0xFF80, 0x7FC0, 0xABCD, 0x1234] {
            let x = Bf16::from_bits(bits);
            let y = Bf16::from_parts(x.sign(), x.exponent() as u16, x.mantissa() as u16);
            assert_eq!(x, y);
        }
    }

    #[test]
    fn packed_sign_mantissa_roundtrip() {
        for bits in 0..=u16::MAX {
            let x = Bf16::from_bits(bits);
            let packed = x.packed_sign_mantissa();
            let back = Bf16::from_packed(packed, x.exponent());
            assert_eq!(x, back, "bits {bits:#06x}");
        }
    }

    #[test]
    fn classification() {
        assert!(Bf16::NAN.is_nan());
        assert!(!Bf16::NAN.is_finite());
        assert!(Bf16::INFINITY.is_infinite());
        assert!(Bf16::NEG_INFINITY.is_infinite());
        assert!(Bf16::from_bits(0x0001).is_subnormal());
        assert!(!Bf16::MIN_POSITIVE.is_subnormal());
        assert!(Bf16::ZERO.is_zero());
        assert!(Bf16::MAX.is_finite());
    }

    #[test]
    fn nan_conversion_stays_nan() {
        let x = Bf16::from_f32(f32::NAN);
        assert!(x.is_nan());
        assert!(x.to_f32().is_nan());
    }

    #[test]
    fn infinity_conversion() {
        assert_eq!(Bf16::from_f32(f32::INFINITY), Bf16::INFINITY);
        assert_eq!(Bf16::from_f32(f32::NEG_INFINITY), Bf16::NEG_INFINITY);
        // Overflow rounds to infinity.
        assert_eq!(Bf16::from_f32(3.4e38), Bf16::INFINITY);
    }

    #[test]
    fn exact_roundtrip_for_all_finite_bit_patterns() {
        // BF16 -> f32 -> BF16 must be the identity for every bit pattern
        // (including NaN payload bits that survive the quiet-bit OR).
        for bits in 0..=u16::MAX {
            let x = Bf16::from_bits(bits);
            if x.is_nan() {
                assert!(Bf16::from_f32(x.to_f32()).is_nan());
            } else {
                assert_eq!(Bf16::from_f32(x.to_f32()).to_bits(), bits, "{bits:#06x}");
            }
        }
    }

    #[test]
    fn arithmetic_goes_through_f32() {
        let a = Bf16::from_f32(1.5);
        let b = Bf16::from_f32(2.0);
        assert_eq!((a + b).to_f32(), 3.5);
        assert_eq!((a * b).to_f32(), 3.0);
        assert_eq!((a - b).to_f32(), -0.5);
        assert_eq!((-a).to_f32(), -1.5);
    }

    #[test]
    fn ordering_matches_f32() {
        let a = Bf16::from_f32(-1.0);
        let b = Bf16::from_f32(2.0);
        assert!(a < b);
        assert!(Bf16::NAN.partial_cmp(&a).is_none());
    }

    #[test]
    fn abs_and_neg() {
        let x = Bf16::from_f32(-2.5);
        assert_eq!(x.abs().to_f32(), 2.5);
        assert_eq!(x.neg().to_f32(), 2.5);
        assert_eq!(Bf16::ONE.neg().to_f32(), -1.0);
    }
}
