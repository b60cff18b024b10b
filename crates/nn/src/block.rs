//! A full transformer block: attention + residual + layer norm + FFN.

use crate::attention::{AttentionRecord, KvCache, MultiHeadAttention};
use crate::matrix::Matrix;
use crate::ops::{gelu_matrix, layer_norm};
use rand::rngs::StdRng;

const LN_EPS: f32 = 1e-5;

/// One transformer block (post-norm, as in the original BERT/Transformer).
#[derive(Debug, Clone, PartialEq)]
pub struct TransformerBlock {
    attn: MultiHeadAttention,
    ln1_gamma: Vec<f32>,
    ln1_beta: Vec<f32>,
    ln2_gamma: Vec<f32>,
    ln2_beta: Vec<f32>,
    w1: Matrix,
    b1: Vec<f32>,
    w2: Matrix,
    b2: Vec<f32>,
}

impl TransformerBlock {
    /// Fresh seeded block.
    pub fn new_seeded(hidden: usize, heads: usize, ffn: usize, rng: &mut StdRng) -> Self {
        let std1 = 1.0 / (hidden as f32).sqrt();
        let std2 = 1.0 / (ffn as f32).sqrt();
        Self {
            attn: MultiHeadAttention::new_seeded(hidden, heads, rng),
            ln1_gamma: vec![1.0; hidden],
            ln1_beta: vec![0.0; hidden],
            ln2_gamma: vec![1.0; hidden],
            ln2_beta: vec![0.0; hidden],
            w1: Matrix::randn(hidden, ffn, std1, rng),
            b1: vec![0.0; ffn],
            w2: Matrix::randn(ffn, hidden, std2, rng),
            b2: vec![0.0; hidden],
        }
    }

    /// The attention sublayer.
    pub fn attention(&self) -> &MultiHeadAttention {
        &self.attn
    }

    /// Mutable access to the attention sublayer (for the trainer).
    pub fn attention_mut(&mut self) -> &mut MultiHeadAttention {
        &mut self.attn
    }

    /// Read-only FFN weights: `(w1, b1, w2, b2)`.
    pub fn ffn_weights_ref(&self) -> (&Matrix, &Vec<f32>, &Matrix, &Vec<f32>) {
        (&self.w1, &self.b1, &self.w2, &self.b2)
    }

    /// All trainable parameters of this block in a fixed order:
    /// `[wq, wk, wv, wo, w1, b1, w2, b2]`.
    pub fn trainable_params_mut(&mut self) -> (Vec<&mut Matrix>, Vec<&mut Vec<f32>>) {
        let (wq, wk, wv, wo) = self.attn.weights_mut();
        (
            vec![wq, wk, wv, wo, &mut self.w1, &mut self.w2],
            vec![&mut self.b1, &mut self.b2],
        )
    }

    /// Applies the FFN sublayer (without residual/norm).
    pub fn ffn(&self, x: &Matrix) -> Matrix {
        let mut h = x.matmul(&self.w1);
        h.add_bias_assign(&self.b1);
        let h = gelu_matrix(&h);
        let mut out = h.matmul(&self.w2);
        out.add_bias_assign(&self.b2);
        out
    }

    fn finish(&self, x: &Matrix, attn_out: Matrix) -> Matrix {
        let mut mid = attn_out;
        mid.add_assign(x);
        let mid = layer_norm(&mid, &self.ln1_gamma, &self.ln1_beta, LN_EPS);
        let mut out = self.ffn(&mid);
        out.add_assign(&mid);
        layer_norm(&out, &self.ln2_gamma, &self.ln2_beta, LN_EPS)
    }

    /// Summarization-stage forward (self-attention over `x`).
    pub fn forward(
        &self,
        x: &Matrix,
        token_ids: &[usize],
        causal: bool,
        head_active: &[bool],
    ) -> (Matrix, AttentionRecord) {
        let (attn_out, rec) = self
            .attn
            .forward(x, x, token_ids, token_ids, causal, head_active);
        (self.finish(x, attn_out), rec)
    }

    /// Summarization-stage forward that also fills a KV cache (GPT-2 prompt
    /// processing): K/V of every token are appended to `cache` before
    /// attending, so generation can continue from them.
    pub fn forward_cached(
        &self,
        x: &Matrix,
        token_ids: &[usize],
        cache: &mut KvCache,
        head_active: &[bool],
    ) -> (Matrix, AttentionRecord) {
        let (q, k, v) = self.attn.project(x);
        for (row, &id) in token_ids.iter().enumerate() {
            cache.append(k.row(row), v.row(row), id);
        }
        let cache_ids: Vec<usize> = cache.token_ids().to_vec();
        let (attn_out, rec) = self.attn.attend(
            &q,
            cache.keys(),
            cache.values(),
            token_ids,
            &cache_ids,
            true,
            head_active,
        );
        (self.finish(x, attn_out), rec)
    }

    /// Generation-stage forward for one token against the cache.
    pub fn forward_step(
        &self,
        x_row: &Matrix,
        token_id: usize,
        cache: &mut KvCache,
        head_active: &[bool],
    ) -> (Matrix, AttentionRecord) {
        let (attn_out, rec) = self.attn.forward_step(x_row, token_id, cache, head_active);
        (self.finish(x_row, attn_out), rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn forward_preserves_shape() {
        let mut r = rng();
        let block = TransformerBlock::new_seeded(16, 4, 32, &mut r);
        let x = Matrix::randn(5, 16, 1.0, &mut r);
        let ids: Vec<usize> = (0..5).collect();
        let (y, rec) = block.forward(&x, &ids, false, &[true; 4]);
        assert_eq!((y.rows(), y.cols()), (5, 16));
        assert_eq!(rec.probs.len(), 4);
    }

    #[test]
    fn output_rows_are_layer_normalized() {
        let mut r = rng();
        let block = TransformerBlock::new_seeded(32, 4, 64, &mut r);
        let x = Matrix::randn(3, 32, 2.0, &mut r);
        let ids: Vec<usize> = (0..3).collect();
        let (y, _) = block.forward(&x, &ids, false, &[true; 4]);
        for row in 0..y.rows() {
            let mean: f32 = y.row(row).iter().sum::<f32>() / 32.0;
            assert!(mean.abs() < 1e-4, "row {row} mean {mean}");
        }
    }

    #[test]
    fn cached_batch_matches_stepwise_generation() {
        let mut r = rng();
        let block = TransformerBlock::new_seeded(12, 3, 24, &mut r);
        let x = Matrix::randn(4, 12, 1.0, &mut r);
        let ids: Vec<usize> = (0..4).collect();

        let mut cache_a = KvCache::new(12);
        let (batch, _) = block.forward_cached(&x, &ids, &mut cache_a, &[true; 3]);

        let mut cache_b = KvCache::new(12);
        for t in 0..4 {
            let xr = Matrix::from_vec(1, 12, x.row(t).to_vec());
            let (out, _) = block.forward_step(&xr, t, &mut cache_b, &[true; 3]);
            for c in 0..12 {
                assert!(
                    (batch.get(t, c) - out.get(0, c)).abs() < 1e-4,
                    "token {t} col {c}"
                );
            }
        }
        assert_eq!(cache_a.len(), cache_b.len());
    }

    #[test]
    fn head_mask_flows_through_block() {
        let mut r = rng();
        let block = TransformerBlock::new_seeded(16, 4, 32, &mut r);
        let x = Matrix::randn(3, 16, 1.0, &mut r);
        let ids: Vec<usize> = (0..3).collect();
        let (_, rec) = block.forward(&x, &ids, false, &[true, true, false, false]);
        assert_eq!(rec.head_ids, vec![0, 1]);
    }
}
