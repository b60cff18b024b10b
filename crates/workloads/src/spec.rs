//! Pruning and quantization policy descriptions.
//!
//! These are *parameters*, not mechanisms: `spatten-core` turns a
//! [`PruningSpec`] into per-layer keep ratios (§V-A: the front 15 % of
//! layers stay unpruned, then ratios interpolate from `r_start` to `r_end`
//! with `r_start + r_end = 2·r_avg`) and a [`QuantPolicy`] into MSB/LSB
//! fetch decisions.

use serde::{Deserialize, Serialize};
use spatten_nn::ModelConfig;

pub use spatten_quant::BitwidthScheme;

/// Cascade-pruning parameters for one task.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PruningSpec {
    /// Average fraction of tokens *kept* across pruned layers
    /// (`1 / token pruning ratio`).
    pub token_avg_keep: f64,
    /// Average fraction of heads kept.
    pub head_avg_keep: f64,
    /// Fraction of front layers never token-pruned (paper: 0.15).
    pub token_front_frac: f64,
    /// Fraction of front layers never head-pruned (paper: 0.30).
    pub head_front_frac: f64,
    /// Fraction of V rows kept by local value pruning within each head.
    pub local_value_keep: f64,
}

impl PruningSpec {
    /// No pruning at all (dense baseline).
    pub const fn dense() -> Self {
        Self {
            token_avg_keep: 1.0,
            head_avg_keep: 1.0,
            token_front_frac: 0.15,
            head_front_frac: 0.30,
            local_value_keep: 1.0,
        }
    }

    /// A spec with the given average token/head keep fractions and the
    /// paper's front-layer protections.
    pub fn with_keeps(token_avg_keep: f64, head_avg_keep: f64) -> Self {
        Self {
            token_avg_keep,
            head_avg_keep,
            token_front_frac: 0.15,
            head_front_frac: 0.30,
            local_value_keep: 0.9,
        }
    }

    /// Per-layer token keep ratio: 1.0 for the protected front layers, then
    /// linear interpolation from `r_start` to `r_end` where
    /// `r_start + r_end = 2·avg` and the spread is ±25 % of the average
    /// (clamped to [0.05, 1]).
    pub fn token_keep_at(&self, layer: usize, layers: usize) -> f64 {
        keep_at(layer, layers, self.token_avg_keep, self.token_front_frac)
    }

    /// Per-layer head keep ratio (same interpolation, 30 % front).
    pub fn head_keep_at(&self, layer: usize, layers: usize) -> f64 {
        keep_at(layer, layers, self.head_avg_keep, self.head_front_frac)
    }
}

fn keep_at(layer: usize, layers: usize, avg: f64, front_frac: f64) -> f64 {
    assert!(layer < layers, "layer {layer} out of {layers}");
    let front = ((layers as f64) * front_frac).ceil() as usize;
    if layer < front || avg >= 1.0 {
        return 1.0;
    }
    let rest = layers - front;
    if rest == 1 {
        return avg.clamp(0.05, 1.0);
    }
    let spread = 0.25 * avg;
    let start = (avg + spread).min(1.0);
    let end = 2.0 * avg - start;
    let t = (layer - front) as f64 / (rest - 1) as f64;
    (start + (end - start) * t).clamp(0.05, 1.0)
}

/// Quantization policy for one task (§III-D).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantPolicy {
    /// The MSB+LSB storage scheme.
    pub scheme: BitwidthScheme,
    /// Whether LSBs may be fetched on demand (progressive quantization).
    /// `false` = static quantization: only the MSB plane is ever fetched.
    pub progressive: bool,
    /// Max-attention-probability threshold below which LSBs are fetched.
    pub lsb_threshold: f32,
}

impl QuantPolicy {
    /// Static quantization at the given scheme's MSB width.
    pub const fn static_msb(scheme: BitwidthScheme) -> Self {
        Self {
            scheme,
            progressive: false,
            lsb_threshold: 0.0,
        }
    }

    /// Progressive quantization with the paper's typical threshold (0.1).
    pub const fn progressive(scheme: BitwidthScheme) -> Self {
        Self {
            scheme,
            progressive: true,
            lsb_threshold: 0.1,
        }
    }

    /// Full-precision baseline: 12-bit static, no plane splitting benefit.
    pub const fn full_precision() -> Self {
        Self::static_msb(BitwidthScheme::Msb12Lsb4)
    }
}

/// Everything the accelerator needs to run one benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Benchmark id (for reports).
    pub name: String,
    /// Model shape.
    pub model: ModelConfig,
    /// Summarization length (BERT: the whole task; GPT-2: the prompt).
    pub seq_len: usize,
    /// Generation steps (0 for discriminative tasks).
    pub gen_steps: usize,
    /// Pruning parameters.
    pub pruning: PruningSpec,
    /// Quantization policy.
    pub quant: QuantPolicy,
    /// Seed for synthetic token/score streams.
    pub seed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_spec_keeps_everything() {
        let s = PruningSpec::dense();
        for l in 0..12 {
            assert_eq!(s.token_keep_at(l, 12), 1.0);
            assert_eq!(s.head_keep_at(l, 12), 1.0);
        }
    }

    #[test]
    fn front_layers_are_protected() {
        let s = PruningSpec::with_keeps(0.5, 0.8);
        // 15% of 12 layers → first 2 layers unpruned.
        assert_eq!(s.token_keep_at(0, 12), 1.0);
        assert_eq!(s.token_keep_at(1, 12), 1.0);
        assert!(s.token_keep_at(2, 12) < 1.0);
        // 30% of 12 → first 4 layers head-unpruned; the ramp starts at
        // layer 4 (which may still round to keep = 1.0) and decreases.
        assert_eq!(s.head_keep_at(3, 12), 1.0);
        assert!(s.head_keep_at(5, 12) < 1.0);
        assert!(s.head_keep_at(11, 12) < s.head_keep_at(5, 12));
    }

    #[test]
    fn pruned_layer_ratios_average_to_spec() {
        let s = PruningSpec::with_keeps(0.5, 0.9);
        let layers = 12;
        let front = 2; // ceil(12 * 0.15)
        let avg: f64 = (front..layers)
            .map(|l| s.token_keep_at(l, layers))
            .sum::<f64>()
            / (layers - front) as f64;
        assert!((avg - 0.5).abs() < 0.01, "avg {avg}");
    }

    #[test]
    fn keep_ratio_decreases_with_depth() {
        let s = PruningSpec::with_keeps(0.4, 0.9);
        let a = s.token_keep_at(3, 12);
        let b = s.token_keep_at(11, 12);
        assert!(b < a, "deeper layers prune more: {a} vs {b}");
    }

    #[test]
    fn quant_policies() {
        let stat = QuantPolicy::static_msb(BitwidthScheme::Msb8Lsb4);
        assert!(!stat.progressive);
        let prog = QuantPolicy::progressive(BitwidthScheme::Msb6Lsb4);
        assert!(prog.progressive);
        assert!((prog.lsb_threshold - 0.1).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn layer_out_of_range_panics() {
        let _ = PruningSpec::dense().token_keep_at(12, 12);
    }
}
