//! The 512-multiplier array with reconfigurable adder tree (paper Fig. 11).
//!
//! One row of K is loaded from SRAM per cycle and multiplied against the
//! broadcast query; the adder tree reduces products into attention scores.
//! For head dimension `D < 512`, `512/D` key rows are packed per SRAM line
//! and the adder tree is reconfigured into `512/D` independent `D`-way
//! trees, producing `512/D` scores per cycle. The same array is reused by
//! the prob·V module with the broadcast/reduce roles adjusted.

/// How the adder tree is carved up for a given vector dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdderTreeConfig {
    /// Independent reduction trees (`multipliers / d`).
    pub trees: usize,
    /// Reduction width of each tree.
    pub d: usize,
}

/// The multiplier array + adder tree.
#[derive(Debug, Clone)]
pub struct MultArray {
    multipliers: usize,
    total_cycles: u64,
    total_macs: u64,
}

impl MultArray {
    /// An array with `multipliers` multipliers (512 in SpAtten, 128 in the
    /// 1/8-scale variant compared against A3/MNNFast).
    ///
    /// # Panics
    ///
    /// Panics if `multipliers` is zero.
    pub fn new(multipliers: usize) -> Self {
        assert!(multipliers > 0, "need at least one multiplier");
        Self {
            multipliers,
            total_cycles: 0,
            total_macs: 0,
        }
    }

    /// Multiplier count.
    pub fn multipliers(&self) -> usize {
        self.multipliers
    }

    /// The adder-tree configuration for vectors of dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero or exceeds the multiplier count.
    pub fn tree_config(&self, d: usize) -> AdderTreeConfig {
        assert!(d > 0, "dimension must be positive");
        assert!(
            d <= self.multipliers,
            "dimension {d} exceeds {} multipliers",
            self.multipliers
        );
        AdderTreeConfig {
            trees: self.multipliers / d,
            d,
        }
    }

    /// Cycles to compute `rows` dot products of dimension `d` (e.g. one
    /// query against `rows` keys): `⌈rows / (multipliers/d)⌉`, the Fig. 11
    /// packing. Also books the MAC count for energy accounting.
    pub fn dot_batch_cycles(&mut self, rows: usize, d: usize) -> u64 {
        let cfg = self.tree_config(d);
        let cycles = (rows as u64).div_ceil(cfg.trees as u64);
        self.total_cycles += cycles;
        self.total_macs += rows as u64 * d as u64;
        cycles
    }

    /// Cycles for a dense `m×k · k×n` matrix multiply tiled over the array
    /// (used by the SpAtten-e2e FFN extension): one k-dim dot product per
    /// tree per cycle.
    pub fn matmul_cycles(&mut self, m: usize, k: usize, n: usize) -> u64 {
        // m*n dot products of dimension k; trees = multipliers/min(k, mult)
        let d = k.min(self.multipliers);
        let dots = m as u64 * n as u64 * (k as u64).div_ceil(d as u64);
        let cfg = self.tree_config(d);
        let cycles = dots.div_ceil(cfg.trees as u64);
        self.total_cycles += cycles;
        self.total_macs += m as u64 * k as u64 * n as u64;
        cycles
    }

    /// Lifetime busy cycles.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Lifetime multiply-accumulates (for energy accounting).
    pub fn total_macs(&self) -> u64 {
        self.total_macs
    }

    /// Functional fixed-point dot product at `frac_bits`, saturating each
    /// operand to `bits` first — bit-accurate with the 12-bit datapath.
    pub fn dot_fixed(a: &[f32], b: &[f32], bits: u32, frac_bits: u32) -> f32 {
        assert_eq!(a.len(), b.len(), "dot operands must match");
        let scale = f64::from(1u32 << frac_bits);
        let max = (1i64 << (bits - 1)) - 1;
        let min = -(1i64 << (bits - 1));
        let mut acc: i64 = 0;
        for (&x, &y) in a.iter().zip(b) {
            let xi = ((x as f64 * scale).round() as i64).clamp(min, max);
            let yi = ((y as f64 * scale).round() as i64).clamp(min, max);
            acc += xi * yi;
        }
        (acc as f64 / (scale * scale)) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_config_packs_512_over_64() {
        let arr = MultArray::new(512);
        let cfg = arr.tree_config(64);
        assert_eq!(cfg.trees, 8); // 8 keys per cycle, as in the paper
        assert_eq!(cfg.d, 64);
    }

    #[test]
    fn dot_batch_cycles_match_paper_example() {
        // 1024 keys of dimension 64 on 512 multipliers → 128 cycles.
        let mut arr = MultArray::new(512);
        assert_eq!(arr.dot_batch_cycles(1024, 64), 128);
        assert_eq!(arr.total_macs(), 1024 * 64);
    }

    #[test]
    fn eighth_scale_array_is_8x_slower() {
        let mut big = MultArray::new(512);
        let mut small = MultArray::new(128);
        let b = big.dot_batch_cycles(4096, 64);
        let s = small.dot_batch_cycles(4096, 64);
        assert_eq!(s, b * 4);
    }

    #[test]
    fn matmul_cycles_scale_with_work() {
        let mut arr = MultArray::new(512);
        let small = arr.matmul_cycles(1, 768, 768);
        let mut arr2 = MultArray::new(512);
        let big = arr2.matmul_cycles(1, 768, 3072);
        assert_eq!(big, small * 4);
    }

    #[test]
    fn fixed_dot_tracks_float_within_quantization_error() {
        let a: Vec<f32> = (0..64).map(|i| ((i as f32) * 0.37).sin()).collect();
        let b: Vec<f32> = (0..64).map(|i| ((i as f32) * 0.23).cos()).collect();
        let exact: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let fixed = MultArray::dot_fixed(&a, &b, 12, 8);
        assert!((exact - fixed).abs() < 0.1, "exact {exact} fixed {fixed}");
    }

    #[test]
    fn fixed_dot_saturates_extremes() {
        // Inputs beyond the representable range clamp instead of wrapping.
        let a = [100.0f32];
        let b = [100.0f32];
        let v = MultArray::dot_fixed(&a, &b, 12, 8);
        assert!(v > 0.0 && v < 100.0 * 100.0);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_dimension_rejected() {
        let arr = MultArray::new(128);
        let _ = arr.tree_config(512);
    }
}
