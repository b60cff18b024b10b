//! Linear symmetric quantization.
//!
//! SpAtten uses *linear symmetric* quantization (§III-D: "we conduct linear
//! symmetric quantization, which is much faster than K-Means quantization").
//! A tensor is mapped to signed integer levels `q = round(x / scale)` with
//! `scale = max|x| / (2^(bits−1) − 1)`, so zero maps exactly to zero and no
//! zero-point is needed.

use crate::fixed::saturate_level;

/// A per-tensor linear symmetric quantizer.
///
/// # Examples
///
/// ```
/// use spatten_quant::LinearQuantizer;
///
/// let data = [0.5f32, -1.0, 0.25, 0.75];
/// let q = LinearQuantizer::fit(&data, 8);
/// let t = q.quantize(&data);
/// let back = t.dequantize();
/// for (a, b) in data.iter().zip(&back) {
///     assert!((a - b).abs() < 0.01);
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearQuantizer {
    scale: f32,
    bits: u32,
}

impl LinearQuantizer {
    /// Builds a quantizer from an explicit scale and bitwidth.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not finite and positive, or `bits` is outside
    /// `2..=32`.
    pub fn new(scale: f32, bits: u32) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "scale must be positive and finite"
        );
        assert!((2..=32).contains(&bits), "bits must be in 2..=32");
        Self { scale, bits }
    }

    /// Fits a symmetric quantizer to the dynamic range of `data`.
    ///
    /// An all-zero (or empty) tensor yields a unit scale so that
    /// quantization is still well defined.
    pub fn fit(data: &[f32], bits: u32) -> Self {
        let max_abs = data.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let levels = ((1i64 << (bits - 1)) - 1) as f32;
        let scale = if max_abs > 0.0 { max_abs / levels } else { 1.0 };
        Self::new(scale, bits)
    }

    /// The quantization step size.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Quantizes a single value to its integer level (saturating).
    pub fn level(&self, x: f32) -> i64 {
        saturate_level((x / self.scale).round() as i64, self.bits)
    }

    /// Reconstructs the real value of an integer level.
    pub fn value(&self, level: i64) -> f32 {
        level as f32 * self.scale
    }

    /// Quantizes a whole tensor.
    pub fn quantize(&self, data: &[f32]) -> QuantizedTensor {
        QuantizedTensor {
            levels: data.iter().map(|&x| self.level(x)).collect(),
            quantizer: *self,
        }
    }

    /// The worst-case absolute rounding error for in-range inputs
    /// (half a step).
    pub fn max_rounding_error(&self) -> f32 {
        self.scale / 2.0
    }
}

/// A tensor stored as integer levels plus its quantizer.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedTensor {
    levels: Vec<i64>,
    quantizer: LinearQuantizer,
}

impl QuantizedTensor {
    /// The integer levels.
    pub fn levels(&self) -> &[i64] {
        &self.levels
    }

    /// The quantizer that produced this tensor.
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

    /// Reconstructs the approximate real values.
    pub fn dequantize(&self) -> Vec<f32> {
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
    fn fit_covers_dynamic_range() {
        let data = [3.0f32, -4.0, 1.0];
        let q = LinearQuantizer::fit(&data, 8);
        // max |x| = 4.0 must map to the top level, 127.
        assert_eq!(q.level(4.0), 127);
        assert_eq!(q.level(-4.0), -127);
    }

    #[test]
    fn zero_maps_to_zero_exactly() {
        let q = LinearQuantizer::fit(&[1.0, -2.0], 6);
        assert_eq!(q.level(0.0), 0);
        assert_eq!(q.value(0), 0.0);
    }

    #[test]
    fn all_zero_tensor_is_handled() {
        let q = LinearQuantizer::fit(&[0.0; 4], 8);
        let t = q.quantize(&[0.0; 4]);
        assert_eq!(t.dequantize(), vec![0.0; 4]);
    }

    #[test]
    fn roundtrip_error_is_bounded_by_half_step() {
        let data: Vec<f32> = (0..100).map(|i| (i as f32 * 0.37).sin() * 2.5).collect();
        let q = LinearQuantizer::fit(&data, 8);
        let back = q.quantize(&data).dequantize();
        for (a, b) in data.iter().zip(&back) {
            assert!((a - b).abs() <= q.max_rounding_error() + 1e-6);
        }
    }

    #[test]
    fn coarser_bitwidth_has_larger_error() {
        let data: Vec<f32> = (0..256).map(|i| (i as f32 * 0.11).cos()).collect();
        let err = |bits| {
            let q = LinearQuantizer::fit(&data, bits);
            let back = q.quantize(&data).dequantize();
            data.iter()
                .zip(&back)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max)
        };
        assert!(err(4) > err(8));
        assert!(err(8) > err(12));
    }
}
