//! A minimal row-major `f32` matrix.
//!
//! The SpAtten models only need dense GEMM-style operations; this type keeps
//! them dependency-free and deterministic. Performance is adequate for the
//! functional (small-model) experiments; the cycle-level accelerator
//! simulator never multiplies real matrices for the large configurations —
//! it works on shapes.

use rand::rngs::StdRng;
use rand::Rng;
use std::fmt;

/// Dense row-major `f32` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Builds from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Self { rows, cols, data }
    }

    /// Gaussian-initialized matrix (mean 0, standard deviation `std`).
    pub fn randn(rows: usize, cols: usize, std: f32, rng: &mut StdRng) -> Self {
        // Box–Muller from uniform samples; avoids needing rand_distr.
        let mut data = Vec::with_capacity(rows * cols);
        while data.len() < rows * cols {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < rows * cols {
                data.push(r * theta.sin() * std);
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of one row.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of one row.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self · other`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul inner dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(r, k);
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = out.row_mut(r);
                for (o, &b) in out_row.iter_mut().zip(orow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self · otherᵀ` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_nt dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.rows);
        for r in 0..self.rows {
            let arow = self.row(r);
            for c in 0..other.rows {
                let brow = other.row(c);
                let dot: f32 = arow.iter().zip(brow).map(|(x, y)| x * y).sum();
                out.set(r, c, dot);
            }
        }
        out
    }

    /// `selfᵀ · other` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_tn dimension mismatch");
        let mut out = Matrix::zeros(self.cols, other.cols);
        for k in 0..self.rows {
            let arow = self.row(k);
            let brow = other.row(k);
            for (i, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Materialized transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Elementwise in-place addition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place scalar multiply.
    pub fn scale_assign(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Adds a bias row vector to every row.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != cols`.
    pub fn add_bias_assign(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            for (v, b) in self.row_mut(r).iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// New matrix keeping only the given rows, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &r) in indices.iter().enumerate() {
            assert!(r < self.rows, "row index {r} out of bounds");
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// View of a contiguous column block `[start, start+len)` as a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if the block exceeds the column count.
    pub fn slice_cols(&self, start: usize, len: usize) -> Matrix {
        assert!(start + len <= self.cols, "column slice out of bounds");
        Matrix::from_fn(self.rows, len, |r, c| self.get(r, start + c))
    }

    /// Writes `block` into columns `[start, start+block.cols())`.
    ///
    /// # Panics
    ///
    /// Panics on row mismatch or column overflow.
    pub fn write_cols(&mut self, start: usize, block: &Matrix) {
        assert_eq!(self.rows, block.rows, "row mismatch");
        assert!(start + block.cols <= self.cols, "column block overflow");
        for r in 0..self.rows {
            let dst = &mut self.data[r * self.cols + start..r * self.cols + start + block.cols];
            dst.copy_from_slice(block.row(r));
        }
    }

    /// Appends the rows of `other` below `self`.
    ///
    /// # Panics
    ///
    /// Panics on column mismatch.
    pub fn vcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vcat column mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Matrix::from_vec(self.rows + other.rows, self.cols, data)
    }

    /// Sum of absolute values — the head-importance statistic of
    /// Algorithm 2 (`Σ |E[head][l0][d]|`).
    pub fn abs_sum(&self) -> f32 {
        self.data.iter().map(|v| v.abs()).sum()
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>8.4} ", self.get(r, c))?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
        let eye = Matrix::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&eye), a);
        assert_eq!(eye.matmul(&a), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::randn(4, 6, 1.0, &mut rng);
        let b = Matrix::randn(5, 6, 1.0, &mut rng);
        let fast = a.matmul_nt(&b);
        let slow = a.matmul(&b.transpose());
        for (x, y) in fast.data().iter().zip(slow.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Matrix::randn(6, 4, 1.0, &mut rng);
        let b = Matrix::randn(6, 5, 1.0, &mut rng);
        let fast = a.matmul_tn(&b);
        let slow = a.transpose().matmul(&b);
        for (x, y) in fast.data().iter().zip(slow.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn select_rows_reorders() {
        let a = Matrix::from_fn(4, 2, |r, _| r as f32);
        let s = a.select_rows(&[3, 1]);
        assert_eq!(s.row(0), &[3.0, 3.0]);
        assert_eq!(s.row(1), &[1.0, 1.0]);
    }

    #[test]
    fn slice_and_write_cols_roundtrip() {
        let a = Matrix::from_fn(3, 8, |r, c| (r * 8 + c) as f32);
        let block = a.slice_cols(2, 4);
        let mut b = Matrix::zeros(3, 8);
        b.write_cols(2, &block);
        for r in 0..3 {
            for c in 2..6 {
                assert_eq!(b.get(r, c), a.get(r, c));
            }
            assert_eq!(b.get(r, 0), 0.0);
        }
    }

    #[test]
    fn vcat_stacks_rows() {
        let a = Matrix::from_fn(2, 3, |_, _| 1.0);
        let b = Matrix::from_fn(1, 3, |_, _| 2.0);
        let c = a.vcat(&b);
        assert_eq!(c.rows(), 3);
        assert_eq!(c.row(2), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn randn_is_deterministic_and_roughly_normal() {
        let mut rng1 = StdRng::seed_from_u64(42);
        let mut rng2 = StdRng::seed_from_u64(42);
        let a = Matrix::randn(32, 32, 0.5, &mut rng1);
        let b = Matrix::randn(32, 32, 0.5, &mut rng2);
        assert_eq!(a, b);
        let mean: f32 = a.data().iter().sum::<f32>() / 1024.0;
        let var: f32 = a
            .data()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / 1024.0;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 0.5).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn bias_add_applies_per_row() {
        let mut a = Matrix::zeros(2, 3);
        a.add_bias_assign(&[1.0, 2.0, 3.0]);
        assert_eq!(a.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(a.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn abs_sum_counts_magnitudes() {
        let a = Matrix::from_vec(1, 4, vec![1.0, -2.0, 3.0, -4.0]);
        assert_eq!(a.abs_sum(), 10.0);
    }
}
