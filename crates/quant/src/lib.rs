//! Quantization substrate for the SpAtten reproduction.
//!
//! SpAtten (HPCA 2021, §III-D) quantizes attention inputs (Q, K, V) with
//! *linear symmetric* quantization and stores the quantized values as two
//! separately fetchable bit planes: most-significant bits (MSBs) and
//! least-significant bits (LSBs). The accelerator first fetches only the MSB
//! plane; when the resulting attention-probability distribution is flat
//! (its maximum is below a threshold) the LSB plane is fetched and attention
//! is recomputed — *progressive quantization*, trading compute for DRAM
//! traffic.
//!
//! This crate provides the numeric machinery for that scheme:
//!
//! * [`fixed`] — scaled-integer fixed-point values matching the 12-bit
//!   on-chip datapath.
//! * [`linear`] — per-tensor linear symmetric quantizers.
//! * [`split`] — MSB/LSB bit-plane storage ([`SplitQuantized`]) and the five
//!   bitwidth schemes the paper evaluates (4+4, 6+4, 8+4, 10+4, 12+4).
//! * [`error`] — empirical quantization-error metrics on softmax outputs
//!   (the Fig. 7 experiment).

pub mod error;
pub mod fixed;
pub mod linear;
pub mod split;

pub use error::{
    max_abs_error, mean_abs_error, qk_softmax_quant_error, softmax_quant_error,
    softmax_quant_error_with, SoftmaxErrorSample,
};
pub use fixed::Fixed;
pub use linear::{LinearQuantizer, QuantizedTensor};
pub use split::{BitwidthScheme, SplitQuantized};

/// Numerically stable softmax over a slice, used as the f32 reference
/// implementation throughout the workspace.
///
/// Returns a vector of the same length whose entries are non-negative and sum
/// to 1 (up to rounding). An empty input yields an empty output.
///
/// # Examples
///
/// ```
/// let p = spatten_quant::softmax(&[1.0, 2.0, 3.0]);
/// assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
/// assert!(p[2] > p[1] && p[1] > p[0]);
/// ```
pub fn softmax(scores: &[f32]) -> Vec<f32> {
    if scores.is_empty() {
        return Vec::new();
    }
    let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = scores.iter().map(|&s| (s - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

#[cfg(test)]
mod tests {
    use super::softmax;

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[0.1, -2.0, 3.5, 0.0]);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum = {sum}");
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[11.0, 12.0, 13.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_handles_extremes_without_nan() {
        let p = softmax(&[1e30, -1e30, 0.0]);
        assert!(p.iter().all(|v| v.is_finite()));
        assert!((p[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_empty_input() {
        assert!(softmax(&[]).is_empty());
    }
}
