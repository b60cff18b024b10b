//! MSB/LSB bit-plane storage for progressive quantization.
//!
//! SpAtten stores the MSBs and LSBs of quantized Q/K/V *contiguously and
//! separately* in DRAM so that each plane can be fetched on its own
//! (§III-D). The accelerator eagerly fetches only the MSB plane; if the
//! softmax output is too flat it fetches the LSB plane and recomputes.
//!
//! The paper evaluates five schemes: 4+4, 6+4, 8+4, 10+4 and 12+4
//! (MSB+LSB bits). Within one task the scheme is fixed; *whether* LSBs are
//! fetched is decided per input on the fly.

use crate::linear::LinearQuantizer;
use std::fmt;

/// One of the paper's MSB+LSB bitwidth settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BitwidthScheme {
    /// 4 MSBs + 4 LSBs (8-bit full precision).
    Msb4Lsb4,
    /// 6 MSBs + 4 LSBs (10-bit full precision).
    Msb6Lsb4,
    /// 8 MSBs + 4 LSBs (12-bit full precision).
    Msb8Lsb4,
    /// 10 MSBs + 4 LSBs (14-bit full precision).
    Msb10Lsb4,
    /// 12 MSBs + 4 LSBs (16-bit full precision).
    Msb12Lsb4,
}

impl BitwidthScheme {
    /// All five schemes in increasing MSB width, as swept in the paper.
    pub const ALL: [BitwidthScheme; 5] = [
        BitwidthScheme::Msb4Lsb4,
        BitwidthScheme::Msb6Lsb4,
        BitwidthScheme::Msb8Lsb4,
        BitwidthScheme::Msb10Lsb4,
        BitwidthScheme::Msb12Lsb4,
    ];

    /// Number of bits in the MSB plane.
    pub const fn msb_bits(self) -> u32 {
        match self {
            BitwidthScheme::Msb4Lsb4 => 4,
            BitwidthScheme::Msb6Lsb4 => 6,
            BitwidthScheme::Msb8Lsb4 => 8,
            BitwidthScheme::Msb10Lsb4 => 10,
            BitwidthScheme::Msb12Lsb4 => 12,
        }
    }

    /// Number of bits in the LSB plane (always 4 in the paper).
    pub const fn lsb_bits(self) -> u32 {
        4
    }

    /// Total bits when both planes are fetched.
    pub const fn total_bits(self) -> u32 {
        self.msb_bits() + self.lsb_bits()
    }
}

impl fmt::Display for BitwidthScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}+{}", self.msb_bits(), self.lsb_bits())
    }
}

/// A tensor quantized at full precision and stored as separable MSB/LSB
/// planes.
///
/// # Examples
///
/// ```
/// use spatten_quant::{BitwidthScheme, SplitQuantized};
///
/// let data = [0.9f32, -0.4, 0.1, 0.7];
/// let sq = SplitQuantized::from_f32(&data, BitwidthScheme::Msb4Lsb4);
/// let coarse = sq.dequantize_msb_only();
/// let fine = sq.dequantize_full();
/// // full precision is at least as accurate pointwise as MSB-only
/// for ((x, c), f) in data.iter().zip(&coarse).zip(&fine) {
///     assert!((x - f).abs() <= (x - c).abs() + 1e-6);
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SplitQuantized {
    /// Full-precision integer levels (MSB∥LSB concatenated).
    levels: Vec<i64>,
    quantizer: LinearQuantizer,
    scheme: BitwidthScheme,
}

impl SplitQuantized {
    /// Quantizes `data` at the scheme's full precision and splits the levels
    /// into bit planes.
    pub fn from_f32(data: &[f32], scheme: BitwidthScheme) -> Self {
        let quantizer = LinearQuantizer::fit(data, scheme.total_bits());
        let levels = data.iter().map(|&x| quantizer.level(x)).collect();
        Self {
            levels,
            quantizer,
            scheme,
        }
    }

    /// The bitwidth scheme in use.
    pub fn scheme(&self) -> BitwidthScheme {
        self.scheme
    }

    /// The underlying full-precision quantizer.
    pub fn quantizer(&self) -> LinearQuantizer {
        self.quantizer
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Whether the tensor is empty.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// The MSB-plane levels: the full level arithmetically shifted right by
    /// the LSB width (two's-complement truncation, exactly what dropping the
    /// LSB plane in memory produces).
    pub fn msb_levels(&self) -> Vec<i64> {
        let shift = self.scheme.lsb_bits();
        self.levels.iter().map(|&l| l >> shift).collect()
    }

    /// Reconstruction using only the MSB plane (LSBs read as zero).
    pub fn dequantize_msb_only(&self) -> Vec<f32> {
        let shift = self.scheme.lsb_bits();
        self.levels
            .iter()
            .map(|&l| self.quantizer.value((l >> shift) << shift))
            .collect()
    }

    /// Reconstruction using both planes (full precision).
    pub fn dequantize_full(&self) -> Vec<f32> {
        self.levels
            .iter()
            .map(|&l| self.quantizer.value(l))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_bit_accounting() {
        assert_eq!(BitwidthScheme::Msb4Lsb4.total_bits(), 8);
        assert_eq!(BitwidthScheme::Msb12Lsb4.total_bits(), 16);
        assert_eq!(BitwidthScheme::Msb8Lsb4.to_string(), "8+4");
    }

    #[test]
    fn msb_only_matches_truncation_semantics() {
        let data = [0.81f32, -0.33, 0.02, -0.96, 0.5];
        let sq = SplitQuantized::from_f32(&data, BitwidthScheme::Msb4Lsb4);
        let shift = sq.scheme().lsb_bits();
        for (&level, &msb) in sq.levels.iter().zip(&sq.msb_levels()) {
            assert_eq!(msb, level >> shift);
        }
    }

    #[test]
    fn full_reconstruction_is_monotonically_better_on_average() {
        let data: Vec<f32> = (0..512).map(|i| ((i as f32) * 0.171).sin()).collect();
        let sq = SplitQuantized::from_f32(&data, BitwidthScheme::Msb4Lsb4);
        let err = |recon: &[f32]| -> f32 {
            data.iter()
                .zip(recon)
                .map(|(a, b)| (a - b).abs())
                .sum::<f32>()
                / data.len() as f32
        };
        assert!(err(&sq.dequantize_full()) < err(&sq.dequantize_msb_only()));
    }

    #[test]
    fn wider_msb_planes_reduce_msb_only_error() {
        let data: Vec<f32> = (0..512).map(|i| ((i as f32) * 0.37).cos()).collect();
        let mean_err = |scheme| {
            let sq = SplitQuantized::from_f32(&data, scheme);
            let recon = sq.dequantize_msb_only();
            data.iter()
                .zip(&recon)
                .map(|(a, b)| (a - b).abs())
                .sum::<f32>()
                / data.len() as f32
        };
        assert!(mean_err(BitwidthScheme::Msb4Lsb4) > mean_err(BitwidthScheme::Msb8Lsb4));
        assert!(mean_err(BitwidthScheme::Msb8Lsb4) > mean_err(BitwidthScheme::Msb12Lsb4));
    }

    #[test]
    fn negative_values_truncate_toward_negative_infinity() {
        // Arithmetic shift on two's complement floors; confirm reconstruction
        // never overshoots the true value from above for negatives.
        let data = [-0.51f32, -0.13, -0.99];
        let sq = SplitQuantized::from_f32(&data, BitwidthScheme::Msb4Lsb4);
        for (truncated, full) in sq.dequantize_msb_only().iter().zip(sq.dequantize_full()) {
            assert!(*truncated <= full + 1e-6);
        }
    }
}
