//! The softmax + progressive-quantization pipeline (paper Fig. 12).
//!
//! Fixed-point attention scores are dequantized (the `1/√D` normalization is
//! folded into the scale), exponentiated with a 5th-order Taylor expansion
//! on floating-point FMA units, accumulated, divided, and requantized to the
//! 12-bit on-chip width. The max probability is compared against the
//! progressive-quantization threshold to decide whether LSBs must be
//! fetched.

/// Taylor-expansion order for `exp` (as in the paper's reference [16]).
const EXP_TAYLOR_ORDER: u32 = 5;

/// Pipeline depth: dequant(1) + exp stages + accumulate(1) + divide(4) +
/// requant(1).
const PIPELINE_LATENCY: u64 = 1 + EXP_TAYLOR_ORDER as u64 + 1 + 4 + 1;

/// One softmax evaluation's outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct SoftmaxOutput {
    /// Quantized-then-normalized probabilities.
    pub probs: Vec<f32>,
    /// Maximum probability (input to the LSB-fetch decision).
    pub max_prob: f32,
    /// Whether the progressive-quantization comparator requested LSBs.
    pub needs_lsb: bool,
    /// Cycles consumed.
    pub cycles: u64,
}

/// The softmax functional unit.
#[derive(Debug, Clone)]
pub struct SoftmaxUnit {
    parallelism: usize,
    prob_frac_bits: u32,
    total_cycles: u64,
    total_exp_ops: u64,
    total_fmas: u64,
}

impl SoftmaxUnit {
    /// A unit evaluating `parallelism` exponentials per cycle (8 in
    /// Table I), requantizing probabilities to `prob_frac_bits` fractional
    /// bits (12-bit datapath).
    ///
    /// # Panics
    ///
    /// Panics if `parallelism` is zero.
    pub fn new(parallelism: usize, prob_frac_bits: u32) -> Self {
        assert!(parallelism > 0, "parallelism must be positive");
        Self {
            parallelism,
            prob_frac_bits,
            total_cycles: 0,
            total_exp_ops: 0,
            total_fmas: 0,
        }
    }

    /// Exponentials evaluated per cycle.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Lifetime busy cycles.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Lifetime exponential evaluations (for FMA energy).
    pub fn total_exp_ops(&self) -> u64 {
        self.total_exp_ops
    }

    /// Lifetime floating-point FMA operations (Taylor terms + divides).
    pub fn total_fmas(&self) -> u64 {
        self.total_fmas
    }

    /// Evaluates one score row: probabilities, max-probability comparator,
    /// and cycle cost. `lsb_threshold` is the progressive-quantization
    /// threshold (`needs_lsb = max_prob < lsb_threshold`).
    pub fn evaluate(&mut self, scores: &[f32], lsb_threshold: f32) -> SoftmaxOutput {
        let n = scores.len();
        let cycles = (n as u64).div_ceil(self.parallelism as u64) + PIPELINE_LATENCY;
        self.total_cycles += cycles;
        self.total_exp_ops += n as u64;
        // Taylor terms per exp + one divide per element.
        self.total_fmas += n as u64 * (u64::from(EXP_TAYLOR_ORDER) + 1);

        let probs_exact = spatten_quant::softmax(scores);
        // Requantize to the fixed-point probability width.
        let q = (1u32 << self.prob_frac_bits) as f32;
        let probs: Vec<f32> = probs_exact.iter().map(|p| (p * q).round() / q).collect();
        let max_prob = probs_exact.iter().copied().fold(0.0f32, f32::max);
        SoftmaxOutput {
            probs,
            max_prob,
            needs_lsb: max_prob < lsb_threshold,
            cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> SoftmaxUnit {
        SoftmaxUnit::new(8, 12)
    }

    #[test]
    fn probabilities_sum_to_one_within_quantization() {
        let mut u = unit();
        let out = u.evaluate(&[1.0, 2.0, 0.5, -1.0], 0.1);
        let sum: f32 = out.probs.iter().sum();
        assert!((sum - 1.0).abs() < 4.0 / 4096.0, "sum {sum}");
    }

    #[test]
    fn flat_distribution_requests_lsb() {
        let mut u = unit();
        let flat = u.evaluate(&vec![0.0; 64], 0.1);
        assert!(flat.needs_lsb, "max_prob {}", flat.max_prob);
        let peaked = u.evaluate(&[8.0, 0.0, 0.0, 0.0], 0.1);
        assert!(!peaked.needs_lsb, "max_prob {}", peaked.max_prob);
    }

    #[test]
    fn cycles_scale_with_length_and_parallelism() {
        let mut u8x = SoftmaxUnit::new(8, 12);
        let mut u1x = SoftmaxUnit::new(1, 12);
        let scores = vec![0.1f32; 128];
        let c8 = u8x.evaluate(&scores, 0.1).cycles;
        let c1 = u1x.evaluate(&scores, 0.1).cycles;
        assert_eq!(c8, 128 / 8 + 12);
        assert_eq!(c1, 128 + 12);
    }

    #[test]
    fn fma_accounting_counts_taylor_terms() {
        let mut u = unit();
        u.evaluate(&[0.0; 10], 0.1);
        assert_eq!(u.total_exp_ops(), 10);
        assert_eq!(u.total_fmas(), 10 * 6);
    }

    #[test]
    fn requantization_is_monotone() {
        let mut u = unit();
        let out = u.evaluate(&[3.0, 2.0, 1.0], 0.1);
        assert!(out.probs[0] >= out.probs[1]);
        assert!(out.probs[1] >= out.probs[2]);
    }
}
