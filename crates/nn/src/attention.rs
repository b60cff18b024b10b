//! Multi-head attention (Algorithm 1 of the paper) with probability capture
//! and a KV cache for the generation stage.

use crate::matrix::Matrix;
use rand::rngs::StdRng;

/// What one multi-head attention invocation produced, before the output FC.
#[derive(Debug, Clone)]
pub struct AttentionRecord {
    /// Per active head: attention probabilities (`l0 × l1`).
    pub probs: Vec<Matrix>,
    /// Head index of each `probs` entry.
    pub head_ids: Vec<usize>,
    /// Per active head: `Σ |E[head]|` over the head's output chunk.
    pub head_abs_sums: Vec<f32>,
}

/// Cached keys/values of one layer during generation, with the original
/// token id of every cached row so cascade pruning can evict rows.
#[derive(Debug, Clone, PartialEq)]
pub struct KvCache {
    k: Matrix,
    v: Matrix,
    token_ids: Vec<usize>,
}

impl KvCache {
    /// An empty cache for keys/values of width `dim`.
    pub fn new(dim: usize) -> Self {
        Self {
            k: Matrix::zeros(0, dim),
            v: Matrix::zeros(0, dim),
            token_ids: Vec::new(),
        }
    }

    /// Number of cached rows.
    pub fn len(&self) -> usize {
        self.token_ids.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.token_ids.is_empty()
    }

    /// Cached keys.
    pub fn keys(&self) -> &Matrix {
        &self.k
    }

    /// Cached values.
    pub fn values(&self) -> &Matrix {
        &self.v
    }

    /// Original token ids of the cached rows.
    pub fn token_ids(&self) -> &[usize] {
        &self.token_ids
    }

    /// Appends one token's key/value rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows' widths disagree with the cache width.
    pub fn append(&mut self, k_row: &[f32], v_row: &[f32], token_id: usize) {
        assert_eq!(k_row.len(), self.k.cols(), "key width mismatch");
        assert_eq!(v_row.len(), self.v.cols(), "value width mismatch");
        self.k = self
            .k
            .vcat(&Matrix::from_vec(1, k_row.len(), k_row.to_vec()));
        self.v = self
            .v
            .vcat(&Matrix::from_vec(1, v_row.len(), v_row.to_vec()));
        self.token_ids.push(token_id);
    }

    /// Evicts every cached row whose token id fails `keep`.
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let survivors: Vec<usize> = self
            .token_ids
            .iter()
            .enumerate()
            .filter_map(|(row, &id)| keep(id).then_some(row))
            .collect();
        if survivors.len() == self.token_ids.len() {
            return;
        }
        self.k = self.k.select_rows(&survivors);
        self.v = self.v.select_rows(&survivors);
        self.token_ids = survivors.iter().map(|&r| self.token_ids[r]).collect();
    }
}

/// Multi-head attention weights for one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiHeadAttention {
    wq: Matrix,
    wk: Matrix,
    wv: Matrix,
    wo: Matrix,
    heads: usize,
}

impl MultiHeadAttention {
    /// Fresh seeded weights (`hidden × hidden` each, scaled init).
    pub fn new_seeded(hidden: usize, heads: usize, rng: &mut StdRng) -> Self {
        assert!(
            hidden.is_multiple_of(heads),
            "hidden must divide evenly into heads"
        );
        let std = 1.0 / (hidden as f32).sqrt();
        Self {
            wq: Matrix::randn(hidden, hidden, std, rng),
            wk: Matrix::randn(hidden, hidden, std, rng),
            wv: Matrix::randn(hidden, hidden, std, rng),
            wo: Matrix::randn(hidden, hidden, std, rng),
            heads,
        }
    }

    /// Per-head dimension.
    pub fn head_dim(&self) -> usize {
        self.wq.cols() / self.heads
    }

    /// Accessors for the projection weights (for the trainer).
    pub fn weights(&self) -> (&Matrix, &Matrix, &Matrix, &Matrix) {
        (&self.wq, &self.wk, &self.wv, &self.wo)
    }

    /// Mutable accessors for the projection weights (for the trainer).
    pub fn weights_mut(&mut self) -> (&mut Matrix, &mut Matrix, &mut Matrix, &mut Matrix) {
        (&mut self.wq, &mut self.wk, &mut self.wv, &mut self.wo)
    }

    /// Projects `x` to Q, K, V.
    pub fn project(&self, x: &Matrix) -> (Matrix, Matrix, Matrix) {
        (x.matmul(&self.wq), x.matmul(&self.wk), x.matmul(&self.wv))
    }

    /// Batch (summarization-stage) attention.
    ///
    /// `query_ids`/`key_ids` are the original token positions of the rows of
    /// Q and K/V; when `causal` is set, a query may only attend to keys with
    /// `key_id <= query_id` (this is id-based so it stays correct after
    /// cascade pruning compacts the token set). `head_active[h]` disables a
    /// head entirely: its output chunk is zero and no probabilities are
    /// recorded for it.
    ///
    /// Returns the attention output *after* the output projection, plus the
    /// record for the pruning engine.
    ///
    /// # Panics
    ///
    /// Panics if id slices disagree with the matrix shapes or
    /// `head_active.len() != heads`.
    pub fn forward(
        &self,
        x_q: &Matrix,
        x_kv: &Matrix,
        query_ids: &[usize],
        key_ids: &[usize],
        causal: bool,
        head_active: &[bool],
    ) -> (Matrix, AttentionRecord) {
        assert_eq!(query_ids.len(), x_q.rows(), "query id count mismatch");
        assert_eq!(key_ids.len(), x_kv.rows(), "key id count mismatch");
        assert_eq!(head_active.len(), self.heads, "head mask length mismatch");

        let q = x_q.matmul(&self.wq);
        let k = x_kv.matmul(&self.wk);
        let v = x_kv.matmul(&self.wv);
        self.attend(&q, &k, &v, query_ids, key_ids, causal, head_active)
    }

    /// Attention core on already-projected Q/K/V (used by the generation
    /// path, where K/V come from the cache).
    #[allow(clippy::too_many_arguments)] // mirrors the hardware interface
    pub fn attend(
        &self,
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        query_ids: &[usize],
        key_ids: &[usize],
        causal: bool,
        head_active: &[bool],
    ) -> (Matrix, AttentionRecord) {
        let d = self.head_dim();
        let scale = 1.0 / (d as f32).sqrt();
        let l0 = q.rows();
        let hidden = self.wq.cols();

        let mut concat = Matrix::zeros(l0, hidden);
        let mut record = AttentionRecord {
            probs: Vec::new(),
            head_ids: Vec::new(),
            head_abs_sums: Vec::new(),
        };

        for (h, &active) in head_active.iter().enumerate() {
            if !active {
                continue; // pruned head: chunk stays zero, no compute
            }
            let qh = q.slice_cols(h * d, d);
            let kh = k.slice_cols(h * d, d);
            let vh = v.slice_cols(h * d, d);

            let mut scores = qh.matmul_nt(&kh);
            scores.scale_assign(scale);
            if causal {
                for (r, &qid) in query_ids.iter().enumerate() {
                    for (c, &kid) in key_ids.iter().enumerate() {
                        if kid > qid {
                            scores.set(r, c, f32::NEG_INFINITY);
                        }
                    }
                }
            }
            crate::ops::softmax_rows(&mut scores, false, 0);

            let e = scores.matmul(&vh);
            record.head_abs_sums.push(e.abs_sum());
            concat.write_cols(h * d, &e);
            record.probs.push(scores);
            record.head_ids.push(h);
        }

        (concat.matmul(&self.wo), record)
    }

    /// One generation step: a single new token row against the cache.
    ///
    /// Projects the token, appends its K/V to `cache`, attends over the full
    /// cache (all cached ids precede the new token, so no mask is needed),
    /// and returns the output row plus the record.
    pub fn forward_step(
        &self,
        x_row: &Matrix,
        token_id: usize,
        cache: &mut KvCache,
        head_active: &[bool],
    ) -> (Matrix, AttentionRecord) {
        assert_eq!(x_row.rows(), 1, "generation step takes one token row");
        let (q, k, v) = self.project(x_row);
        cache.append(k.row(0), v.row(0), token_id);
        let ids: Vec<usize> = cache.token_ids().to_vec();
        self.attend(
            &q,
            cache.keys(),
            cache.values(),
            &[token_id],
            &ids,
            false,
            head_active,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    fn ids(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn probabilities_sum_to_one_per_row() {
        let mut r = rng();
        let mha = MultiHeadAttention::new_seeded(16, 4, &mut r);
        let x = Matrix::randn(6, 16, 1.0, &mut r);
        let (_, rec) = mha.forward(&x, &x, &ids(6), &ids(6), false, &[true; 4]);
        assert_eq!(rec.probs.len(), 4);
        for p in &rec.probs {
            for row in 0..p.rows() {
                let s: f32 = p.row(row).iter().sum();
                assert!((s - 1.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn causal_mask_respects_token_ids_after_compaction() {
        let mut r = rng();
        let mha = MultiHeadAttention::new_seeded(8, 2, &mut r);
        // Token ids 0,2,5 survive pruning; query with id 2 must not attend
        // to key with id 5.
        let x = Matrix::randn(3, 8, 1.0, &mut r);
        let tid = [0usize, 2, 5];
        let (_, rec) = mha.forward(&x, &x, &tid, &tid, true, &[true; 2]);
        for p in &rec.probs {
            assert_eq!(p.get(0, 1), 0.0);
            assert_eq!(p.get(0, 2), 0.0);
            assert_eq!(p.get(1, 2), 0.0);
            assert!(p.get(2, 0) >= 0.0);
        }
    }

    #[test]
    fn pruned_heads_produce_no_record_and_change_output() {
        let mut r = rng();
        let mha = MultiHeadAttention::new_seeded(16, 4, &mut r);
        let x = Matrix::randn(4, 16, 1.0, &mut r);
        let (full, rec_full) = mha.forward(&x, &x, &ids(4), &ids(4), false, &[true; 4]);
        let mask = [true, false, true, false];
        let (half, rec_half) = mha.forward(&x, &x, &ids(4), &ids(4), false, &mask);
        assert_eq!(rec_full.probs.len(), 4);
        assert_eq!(rec_half.probs.len(), 2);
        assert_eq!(rec_half.head_ids, vec![0, 2]);
        assert_ne!(full, half);
    }

    #[test]
    fn generation_steps_match_batch_causal_attention() {
        // Running tokens one by one through the KV cache must equal the
        // batch causal forward pass.
        let mut r = rng();
        let mha = MultiHeadAttention::new_seeded(12, 3, &mut r);
        let x = Matrix::randn(5, 12, 1.0, &mut r);
        let (batch, _) = mha.forward(&x, &x, &ids(5), &ids(5), true, &[true; 3]);

        let mut cache = KvCache::new(12);
        let mut rows = Vec::new();
        for t in 0..5 {
            let xr = Matrix::from_vec(1, 12, x.row(t).to_vec());
            let (out, _) = mha.forward_step(&xr, t, &mut cache, &[true; 3]);
            rows.push(out);
        }
        for (t, row) in rows.iter().enumerate() {
            for c in 0..12 {
                assert!(
                    (batch.get(t, c) - row.get(0, c)).abs() < 1e-4,
                    "mismatch at token {t} col {c}"
                );
            }
        }
    }

    #[test]
    fn cache_retain_evicts_pruned_tokens() {
        let mut cache = KvCache::new(4);
        for t in 0..4 {
            cache.append(&[t as f32; 4], &[t as f32; 4], t);
        }
        cache.retain(|id| id != 1 && id != 2);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.token_ids(), &[0, 3]);
        assert_eq!(cache.keys().row(1), &[3.0; 4]);
    }

    #[test]
    fn head_abs_sums_track_head_magnitude() {
        let mut r = rng();
        let mha = MultiHeadAttention::new_seeded(8, 2, &mut r);
        let x = Matrix::randn(3, 8, 1.0, &mut r);
        let (_, rec) = mha.forward(&x, &x, &ids(3), &ids(3), false, &[true; 2]);
        assert_eq!(rec.head_abs_sums.len(), 2);
        assert!(rec.head_abs_sums.iter().all(|&s| s > 0.0));
    }
}
