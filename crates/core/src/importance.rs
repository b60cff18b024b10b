//! Cumulative token and head importance scores (paper Algorithm 2, Fig. 5).
//!
//! Token importance: attention probabilities are summed **vertically** (over
//! query rows) and accumulated across heads, layers, and — for generative
//! models — across generation iterations. Head importance: the absolute
//! magnitude of each head's output chunk, accumulated across layers.

use spatten_nn::LayerRecord;

/// The accumulators for one inference (summarization + generation).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ImportanceAccumulator {
    token_scores: Vec<f64>,
    head_scores: Vec<f64>,
}

impl ImportanceAccumulator {
    /// Fresh accumulators for `tokens` tokens and `heads` heads.
    pub fn new(tokens: usize, heads: usize) -> Self {
        Self {
            token_scores: vec![0.0; tokens],
            head_scores: vec![0.0; heads],
        }
    }

    /// Current cumulative token scores (indexed by original token id).
    pub fn token_scores(&self) -> &[f64] {
        &self.token_scores
    }

    /// Current cumulative head scores.
    pub fn head_scores(&self) -> &[f64] {
        &self.head_scores
    }

    /// Grows the token table when generation appends tokens.
    pub fn ensure_tokens(&mut self, tokens: usize) {
        if tokens > self.token_scores.len() {
            self.token_scores.resize(tokens, 0.0);
        }
    }

    /// Accumulates one layer's record: per head, column-sums of the
    /// attention probabilities land on the key tokens; the head's output
    /// magnitude lands on the head.
    ///
    /// # Panics
    ///
    /// Panics if the record references tokens/heads beyond the accumulator
    /// capacity (call [`Self::ensure_tokens`] first during generation).
    pub fn accumulate(&mut self, record: &LayerRecord) {
        for (slot, probs) in record.probs.iter().enumerate() {
            let head = record.head_ids[slot];
            self.head_scores[head] += f64::from(record.head_abs_sums[slot]);
            for row in 0..probs.rows() {
                for (col, &p) in probs.row(row).iter().enumerate() {
                    let token = record.key_token_ids[col];
                    self.token_scores[token] += f64::from(p);
                }
            }
        }
    }

    /// Scores of the given token ids, as f32 for the top-k engine.
    pub fn token_scores_for(&self, ids: &[usize]) -> Vec<f32> {
        ids.iter().map(|&i| self.token_scores[i] as f32).collect()
    }

    /// Scores of the given head ids, as f32 for the top-k engine.
    pub fn head_scores_for(&self, ids: &[usize]) -> Vec<f32> {
        ids.iter().map(|&i| self.head_scores[i] as f32).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatten_nn::Matrix;

    fn record(
        layer: usize,
        probs: Vec<Matrix>,
        key_ids: Vec<usize>,
        sums: Vec<f32>,
    ) -> LayerRecord {
        let head_ids = (0..probs.len()).collect();
        LayerRecord {
            layer,
            probs,
            head_ids,
            query_token_ids: key_ids.clone(),
            key_token_ids: key_ids,
            head_abs_sums: sums,
        }
    }

    #[test]
    fn column_sums_accumulate_on_key_tokens() {
        let mut acc = ImportanceAccumulator::new(3, 1);
        // 2 queries × 3 keys; column sums = [0.3, 0.8, 0.9].
        let p = Matrix::from_vec(2, 3, vec![0.1, 0.4, 0.5, 0.2, 0.4, 0.4]);
        acc.accumulate(&record(0, vec![p], vec![0, 1, 2], vec![1.0]));
        let s = acc.token_scores();
        assert!((s[0] - 0.3).abs() < 1e-6);
        assert!((s[1] - 0.8).abs() < 1e-6);
        assert!((s[2] - 0.9).abs() < 1e-6);
    }

    #[test]
    fn accumulation_respects_token_ids_after_pruning() {
        let mut acc = ImportanceAccumulator::new(4, 1);
        // Tokens 1 and 3 survive; their columns must land on ids 1 and 3.
        let p = Matrix::from_vec(1, 2, vec![0.25, 0.75]);
        acc.accumulate(&record(1, vec![p], vec![1, 3], vec![2.0]));
        let s = acc.token_scores();
        assert_eq!(s[0], 0.0);
        assert!((s[1] - 0.25).abs() < 1e-6);
        assert_eq!(s[2], 0.0);
        assert!((s[3] - 0.75).abs() < 1e-6);
    }

    #[test]
    fn head_scores_accumulate_magnitudes() {
        let mut acc = ImportanceAccumulator::new(2, 3);
        let p0 = Matrix::from_vec(1, 2, vec![0.5, 0.5]);
        let p1 = Matrix::from_vec(1, 2, vec![0.5, 0.5]);
        let mut rec = record(0, vec![p0, p1], vec![0, 1], vec![3.0, 1.5]);
        rec.head_ids = vec![0, 2];
        acc.accumulate(&rec);
        assert_eq!(acc.head_scores(), &[3.0, 0.0, 1.5]);
    }

    #[test]
    fn scores_accumulate_across_layers() {
        let mut acc = ImportanceAccumulator::new(2, 1);
        let p = Matrix::from_vec(1, 2, vec![0.4, 0.6]);
        acc.accumulate(&record(0, vec![p.clone()], vec![0, 1], vec![1.0]));
        acc.accumulate(&record(1, vec![p], vec![0, 1], vec![1.0]));
        assert!((acc.token_scores()[1] - 1.2).abs() < 1e-6);
        assert!((acc.head_scores()[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn ensure_tokens_grows_without_losing_history() {
        let mut acc = ImportanceAccumulator::new(2, 1);
        let p = Matrix::from_vec(1, 2, vec![0.4, 0.6]);
        acc.accumulate(&record(0, vec![p], vec![0, 1], vec![1.0]));
        acc.ensure_tokens(4);
        assert_eq!(acc.token_scores().len(), 4);
        assert!((acc.token_scores()[1] - 0.6).abs() < 1e-6);
    }
}
