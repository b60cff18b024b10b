//! K-means (Lloyd) quantization — the baseline SpAtten rejects.
//!
//! §III-D: "we conduct linear symmetric quantization, which is much faster
//! than K-Means quantization". This module implements 1-D k-means codebook
//! quantization so that trade-off is measurable in this repository: k-means
//! reaches lower reconstruction error on skewed distributions (tested
//! below) but costs an iterative fit and a codebook lookup per element
//! (benchmarked in `spatten-bench`), while linear symmetric needs one max
//! and a multiply.

/// A fitted 1-D k-means codebook.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansQuantizer {
    /// Sorted centroids.
    centroids: Vec<f32>,
}

impl KMeansQuantizer {
    /// Fits `levels` centroids to `data` with at most `iterations` Lloyd
    /// steps, starting from evenly spaced quantiles (deterministic).
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty, `levels` is zero, or any value is NaN.
    pub fn fit(data: &[f32], levels: usize, iterations: usize) -> Self {
        assert!(!data.is_empty(), "cannot fit a codebook to nothing");
        assert!(levels >= 1, "need at least one level");
        assert!(data.iter().all(|v| !v.is_nan()), "NaN in input");

        let mut sorted = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));

        // Quantile initialization.
        let mut centroids: Vec<f32> = (0..levels)
            .map(|i| {
                let idx = (i * 2 + 1) * sorted.len() / (2 * levels);
                sorted[idx.min(sorted.len() - 1)]
            })
            .collect();
        centroids.dedup();

        for _ in 0..iterations {
            // Assign by nearest centroid (centroids stay sorted, so the
            // boundaries are midpoints) and recompute means in one sweep.
            let mut sums = vec![0.0f64; centroids.len()];
            let mut counts = vec![0u64; centroids.len()];
            for &v in &sorted {
                let c = nearest(&centroids, v);
                sums[c] += f64::from(v);
                counts[c] += 1;
            }
            let mut moved = 0.0f32;
            for i in 0..centroids.len() {
                if counts[i] > 0 {
                    let next = (sums[i] / counts[i] as f64) as f32;
                    moved += (next - centroids[i]).abs();
                    centroids[i] = next;
                }
            }
            centroids.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            if moved < 1e-7 {
                break;
            }
        }
        Self { centroids }
    }

    /// The codebook.
    pub fn centroids(&self) -> &[f32] {
        &self.centroids
    }

    /// Codebook index of the nearest centroid.
    pub fn encode(&self, value: f32) -> usize {
        nearest(&self.centroids, value)
    }

    /// Reconstruction of a codebook index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn decode(&self, index: usize) -> f32 {
        self.centroids[index]
    }

    /// Quantize-dequantize a whole tensor.
    pub fn reconstruct(&self, data: &[f32]) -> Vec<f32> {
        data.iter().map(|&v| self.decode(self.encode(v))).collect()
    }

    /// Mean squared reconstruction error on `data`.
    pub fn mse(&self, data: &[f32]) -> f32 {
        assert!(!data.is_empty());
        data.iter()
            .map(|&v| {
                let r = self.decode(self.encode(v));
                (v - r) * (v - r)
            })
            .sum::<f32>()
            / data.len() as f32
    }
}

fn nearest(sorted_centroids: &[f32], value: f32) -> usize {
    match sorted_centroids.binary_search_by(|c| c.partial_cmp(&value).expect("no NaN")) {
        Ok(i) => i,
        Err(0) => 0,
        Err(i) if i == sorted_centroids.len() => i - 1,
        Err(i) => {
            if (value - sorted_centroids[i - 1]).abs() <= (sorted_centroids[i] - value).abs() {
                i - 1
            } else {
                i
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearQuantizer;

    fn skewed_data() -> Vec<f32> {
        // Bimodal: a dense cluster near 0 plus a sparse tail near 10 —
        // exactly where uniform (linear) levels waste codewords.
        let mut v: Vec<f32> = (0..900).map(|i| (i as f32 % 30.0) * 0.01).collect();
        v.extend((0..100).map(|i| 10.0 + (i as f32 % 10.0) * 0.01));
        v
    }

    #[test]
    fn centroids_are_sorted_and_within_range() {
        let data = skewed_data();
        let q = KMeansQuantizer::fit(&data, 16, 25);
        let c = q.centroids();
        assert!(c.windows(2).all(|w| w[0] <= w[1]));
        assert!(c.iter().all(|&x| (0.0..=10.2).contains(&x)));
    }

    #[test]
    fn kmeans_beats_linear_on_skewed_data() {
        let data = skewed_data();
        let km = KMeansQuantizer::fit(&data, 16, 25);
        let lin = LinearQuantizer::fit(&data, 4); // 16 levels
        let lin_mse: f32 = data
            .iter()
            .zip(lin.quantize(&data).dequantize())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            / data.len() as f32;
        assert!(
            km.mse(&data) < lin_mse * 0.5,
            "k-means {} vs linear {}",
            km.mse(&data),
            lin_mse
        );
    }

    #[test]
    fn encode_decode_roundtrip_on_centroids() {
        let data = skewed_data();
        let q = KMeansQuantizer::fit(&data, 8, 20);
        for (i, &c) in q.centroids().iter().enumerate() {
            assert_eq!(q.encode(c), i);
            assert_eq!(q.decode(i), c);
        }
    }

    #[test]
    fn fit_is_deterministic() {
        let data = skewed_data();
        let a = KMeansQuantizer::fit(&data, 8, 20);
        let b = KMeansQuantizer::fit(&data, 8, 20);
        assert_eq!(a, b);
    }

    #[test]
    fn single_level_collapses_to_mean_cluster() {
        let q = KMeansQuantizer::fit(&[1.0, 2.0, 3.0], 1, 10);
        assert_eq!(q.centroids().len(), 1);
        assert!((q.decode(0) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn more_levels_never_hurt() {
        let data = skewed_data();
        let coarse = KMeansQuantizer::fit(&data, 4, 25).mse(&data);
        let fine = KMeansQuantizer::fit(&data, 32, 25).mse(&data);
        assert!(fine <= coarse);
    }

    #[test]
    #[should_panic(expected = "nothing")]
    fn empty_input_rejected() {
        let _ = KMeansQuantizer::fit(&[], 4, 5);
    }
}
