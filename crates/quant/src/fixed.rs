//! Scaled-integer fixed-point values.
//!
//! SpAtten's on-chip datapath is 12-bit fixed point (Table I: 512 × 12-bit
//! multipliers); DRAM holds 4/8/12-bit planes that a bitwidth converter
//! widens to the on-chip width. [`Fixed`] models a signed integer with an
//! associated number of fractional bits, wide enough (i64) to hold adder-tree
//! partial sums without overflow.

use std::fmt;

/// A signed fixed-point number: `value = raw · 2^(−frac_bits)`.
///
/// `Fixed` is deliberately minimal: the simulator mostly needs conversion to
/// and from `f32`, saturating narrowing to a given bitwidth, and exact
/// integer addition/multiplication as performed by the hardware multiplier
/// array and adder tree.
///
/// # Examples
///
/// ```
/// use spatten_quant::Fixed;
///
/// let a = Fixed::from_f32(1.5, 8);
/// let b = Fixed::from_f32(2.0, 8);
/// let c = a.mul(b); // product has 16 fractional bits
/// assert!((c.to_f32() - 3.0).abs() < 1e-2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fixed {
    raw: i64,
    frac_bits: u32,
}

impl Fixed {
    /// Creates a fixed-point value directly from a raw integer and fractional
    /// bit count.
    pub const fn from_raw(raw: i64, frac_bits: u32) -> Self {
        Self { raw, frac_bits }
    }

    /// Quantizes an `f32` to fixed point with `frac_bits` fractional bits
    /// (round to nearest).
    pub fn from_f32(value: f32, frac_bits: u32) -> Self {
        let scaled = (value as f64) * f64::from(1u32 << frac_bits.min(31));
        Self {
            raw: scaled.round() as i64,
            frac_bits,
        }
    }

    /// The raw underlying integer.
    pub const fn raw(self) -> i64 {
        self.raw
    }

    /// Number of fractional bits.
    pub const fn frac_bits(self) -> u32 {
        self.frac_bits
    }

    /// Converts back to `f32`.
    pub fn to_f32(self) -> f32 {
        (self.raw as f64 / f64::from(1u32 << self.frac_bits.min(31))) as f32
    }

    /// Exact addition; both operands must share `frac_bits`.
    ///
    /// # Panics
    ///
    /// Panics if the operands have different fractional widths — the hardware
    /// adder tree only ever adds aligned products.
    #[allow(clippy::should_implement_trait)] // explicit hardware semantics
    pub fn add(self, other: Self) -> Self {
        assert_eq!(
            self.frac_bits, other.frac_bits,
            "fixed-point addition requires aligned fractional widths"
        );
        Self {
            raw: self.raw + other.raw,
            frac_bits: self.frac_bits,
        }
    }

    /// Exact multiplication; the product carries the summed fractional width,
    /// as in the hardware multiplier array.
    #[allow(clippy::should_implement_trait)] // explicit hardware semantics
    pub fn mul(self, other: Self) -> Self {
        Self {
            raw: self.raw * other.raw,
            frac_bits: self.frac_bits + other.frac_bits,
        }
    }

    /// Rescales to a new fractional width with round-to-nearest, as the
    /// bitwidth converter does after the multiplier array.
    pub fn rescale(self, frac_bits: u32) -> Self {
        if frac_bits >= self.frac_bits {
            Self {
                raw: self.raw << (frac_bits - self.frac_bits),
                frac_bits,
            }
        } else {
            let shift = self.frac_bits - frac_bits;
            let half = 1i64 << (shift - 1);
            Self {
                raw: (self.raw + half) >> shift,
                frac_bits,
            }
        }
    }

    /// Saturates the raw value into a signed `bits`-wide integer range
    /// `[−2^(bits−1), 2^(bits−1) − 1]`, as the narrowing stage of the
    /// bitwidth converter does.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 32.
    pub fn saturate(self, bits: u32) -> Self {
        assert!((1..=32).contains(&bits), "bitwidth must be in 1..=32");
        let max = (1i64 << (bits - 1)) - 1;
        let min = -(1i64 << (bits - 1));
        Self {
            raw: self.raw.clamp(min, max),
            frac_bits: self.frac_bits,
        }
    }
}

impl fmt::Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(q{})", self.to_f32(), self.frac_bits)
    }
}

/// Saturates a raw integer level into the representable range of a signed
/// `bits`-wide integer. Free function used by the quantizers.
pub fn saturate_level(level: i64, bits: u32) -> i64 {
    let max = (1i64 << (bits - 1)) - 1;
    let min = -(1i64 << (bits - 1));
    level.clamp(min, max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_value_within_lsb() {
        for &v in &[0.0f32, 1.0, -1.0, 0.123, -7.75, 2.625] {
            let fx = Fixed::from_f32(v, 12);
            assert!((fx.to_f32() - v).abs() <= 1.0 / 4096.0, "v = {v}");
        }
    }

    #[test]
    fn mul_widens_fraction() {
        let a = Fixed::from_f32(0.5, 8);
        let b = Fixed::from_f32(0.25, 8);
        let c = a.mul(b);
        assert_eq!(c.frac_bits(), 16);
        assert!((c.to_f32() - 0.125).abs() < 1e-4);
    }

    #[test]
    fn rescale_down_rounds_to_nearest() {
        let fx = Fixed::from_raw(0b1011, 3); // 1.375
        let down = fx.rescale(1); // nearest multiple of 0.5 → 1.5
        assert_eq!(down.raw(), 3);
        assert!((down.to_f32() - 1.5).abs() < 1e-6);
    }

    #[test]
    fn saturate_clamps_to_signed_range() {
        let fx = Fixed::from_raw(300, 0).saturate(8);
        assert_eq!(fx.raw(), 127);
        let fx = Fixed::from_raw(-300, 0).saturate(8);
        assert_eq!(fx.raw(), -128);
    }

    #[test]
    #[should_panic(expected = "aligned fractional widths")]
    fn add_rejects_misaligned_fractions() {
        let _ = Fixed::from_f32(1.0, 4).add(Fixed::from_f32(1.0, 8));
    }

    #[test]
    fn saturate_level_bounds() {
        assert_eq!(saturate_level(1000, 8), 127);
        assert_eq!(saturate_level(-1000, 8), -128);
        assert_eq!(saturate_level(5, 8), 5);
    }
}
