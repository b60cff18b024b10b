//! Empirical quantization-error metrics on softmax outputs.
//!
//! These helpers drive the Fig. 7 reproduction: sample attention-score rows,
//! quantize the underlying Q/K inputs at a given bitwidth, and relate the
//! resulting *mean attention-probability error* to the *maximum attention
//! probability* of the row. The paper observes that rows with a dominant
//! probability are robust to 4-bit inputs while flat rows are not.

use crate::linear::LinearQuantizer;
use crate::softmax;

/// Mean absolute elementwise difference between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn mean_abs_error(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    assert!(!a.is_empty(), "empty slices have no mean error");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f32>() / a.len() as f32
}

/// Maximum absolute elementwise difference between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn max_abs_error(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max)
}

/// One observation for the Fig. 7 scatter: a row's dominance vs. its
/// quantization-induced probability error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftmaxErrorSample {
    /// Maximum probability of the float32 reference distribution.
    pub max_prob: f32,
    /// Mean |p_float − p_quant| over the row.
    pub mean_error: f32,
}

/// Quantizes a row of attention scores at `bits` (scale fitted to this row)
/// and measures the softmax output error against the float32 reference.
pub fn softmax_quant_error(scores: &[f32], bits: u32) -> SoftmaxErrorSample {
    softmax_quant_error_with(scores, &LinearQuantizer::fit(scores, bits))
}

/// Like [`softmax_quant_error`] but with a caller-provided quantizer, so that
/// different rows can share one scale (as Q/K tensors do on the hardware).
pub fn softmax_quant_error_with(scores: &[f32], q: &LinearQuantizer) -> SoftmaxErrorSample {
    let reference = softmax(scores);
    let quantized: Vec<f32> = q.quantize(scores).dequantize();
    let perturbed = softmax(&quantized);
    let max_prob = reference.iter().copied().fold(0.0f32, f32::max);
    SoftmaxErrorSample {
        max_prob,
        mean_error: mean_abs_error(&reference, &perturbed),
    }
}

/// The full Fig. 7 experiment for one query row: quantize the *inputs*
/// (query and keys) at `bits`, recompute the attention scores
/// `q·kᵢ/√D` in quantized arithmetic, and compare the softmax outputs.
///
/// # Panics
///
/// Panics if `keys` is empty or any key's length differs from the query's.
pub fn qk_softmax_quant_error(query: &[f32], keys: &[Vec<f32>], bits: u32) -> SoftmaxErrorSample {
    assert!(!keys.is_empty(), "need at least one key");
    let d = query.len();
    assert!(keys.iter().all(|k| k.len() == d), "key dimension mismatch");
    let inv_sqrt_d = 1.0 / (d as f32).sqrt();

    let score = |q: &[f32], k: &[f32]| -> f32 {
        q.iter().zip(k).map(|(a, b)| a * b).sum::<f32>() * inv_sqrt_d
    };

    let exact: Vec<f32> = keys.iter().map(|k| score(query, k)).collect();

    // One shared quantizer per tensor, as on the hardware.
    let qq = LinearQuantizer::fit(query, bits);
    let flat_keys: Vec<f32> = keys.iter().flatten().copied().collect();
    let kq = LinearQuantizer::fit(&flat_keys, bits);
    let query_q: Vec<f32> = qq.quantize(query).dequantize();
    let approx: Vec<f32> = keys
        .iter()
        .map(|k| score(&query_q, &kq.quantize(k).dequantize()))
        .collect();

    let reference = softmax(&exact);
    let perturbed = softmax(&approx);
    SoftmaxErrorSample {
        max_prob: reference.iter().copied().fold(0.0f32, f32::max),
        mean_error: mean_abs_error(&reference, &perturbed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_max_error_basics() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [1.5f32, 2.0, 2.0];
        assert!((mean_abs_error(&a, &b) - 0.5).abs() < 1e-6);
        assert!((max_abs_error(&a, &b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn identical_slices_have_zero_error() {
        let a = [0.25f32; 8];
        assert_eq!(mean_abs_error(&a, &a), 0.0);
        assert_eq!(max_abs_error(&a, &a), 0.0);
    }

    #[test]
    fn dominated_rows_have_smaller_quant_error_int4() {
        // Reproduce the Fig. 7 claim on controlled inputs: with one shared
        // quantizer (same Δs for all rows), a peaked score row loses less
        // probability mass to 4-bit quantization than a near-flat row.
        let peaked: Vec<f32> = (0..32)
            .map(|i| if i == 5 { 6.0 } else { 0.1 * (i as f32 % 3.0) })
            .collect();
        let flat: Vec<f32> = (0..32).map(|i| 0.2 * ((i as f32) * 0.9).sin()).collect();
        let all: Vec<f32> = peaked.iter().chain(&flat).copied().collect();
        let shared = LinearQuantizer::fit(&all, 4);
        let e_peaked = softmax_quant_error_with(&peaked, &shared);
        let e_flat = softmax_quant_error_with(&flat, &shared);
        assert!(e_peaked.max_prob > e_flat.max_prob);
        assert!(
            e_peaked.mean_error < e_flat.mean_error,
            "peaked {:?} flat {:?}",
            e_peaked,
            e_flat
        );
    }

    #[test]
    fn qk_level_experiment_shows_fig7_trend() {
        // Keys aligned with the query produce a dominated distribution;
        // orthogonal-ish keys produce a flat one. The dominated row should
        // tolerate 4-bit inputs better.
        let d = 64usize;
        let query: Vec<f32> = (0..d).map(|i| ((i as f32) * 0.31).sin()).collect();
        let mut aligned: Vec<Vec<f32>> = (0..16)
            .map(|k| {
                (0..d)
                    .map(|i| 0.05 * ((i + k) as f32 * 0.77).cos())
                    .collect()
            })
            .collect();
        // one key strongly aligned with the query → dominant probability
        aligned[3] = query.iter().map(|v| v * 1.2).collect();
        let flat: Vec<Vec<f32>> = (0..16)
            .map(|k| {
                (0..d)
                    .map(|i| 0.3 * ((2 * i + 3 * k) as f32 * 0.53).sin())
                    .collect()
            })
            .collect();
        let e_peaked = qk_softmax_quant_error(&query, &aligned, 4);
        let e_flat = qk_softmax_quant_error(&query, &flat, 4);
        assert!(e_peaked.max_prob > e_flat.max_prob);
        assert!(
            e_peaked.mean_error < e_flat.mean_error,
            "peaked {:?} flat {:?}",
            e_peaked,
            e_flat
        );
    }

    #[test]
    fn more_bits_reduce_quant_error() {
        let scores: Vec<f32> = (0..64).map(|i| ((i as f32) * 0.23).sin() * 1.5).collect();
        let e4 = softmax_quant_error(&scores, 4).mean_error;
        let e8 = softmax_quant_error(&scores, 8).mean_error;
        let e12 = softmax_quant_error(&scores, 12).mean_error;
        assert!(e4 > e8, "e4={e4} e8={e8}");
        assert!(e8 > e12 || e8 < 1e-5, "e8={e8} e12={e12}");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = mean_abs_error(&[1.0], &[1.0, 2.0]);
    }
}
