//! End-to-end models: embedding → blocks → classification / LM head, with
//! cascade-pruning hooks.
//!
//! The model compacts its working set after every layer: tokens pruned by
//! the [`AttentionObserver`] are physically dropped from the activation
//! matrix, so — exactly as on the SpAtten hardware — later layers do less
//! work for both attention *and* FFN.

use crate::attention::KvCache;
use crate::block::TransformerBlock;
use crate::config::{ModelConfig, ModelKind};
use crate::matrix::Matrix;
use crate::observer::{ActiveSet, AttentionObserver, LayerRecord};
use crate::ops::argmax;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Output of a summarization pass.
#[derive(Debug, Clone)]
pub struct ModelOutput {
    /// Task logits: classifier logits for BERT, next-token logits (over the
    /// instantiated vocabulary) for GPT-2.
    pub logits: Vec<f32>,
    /// Per-layer attention records (what the pruning engine saw).
    pub records: Vec<LayerRecord>,
    /// Original indices of the tokens that survived all layers.
    pub survivors: Vec<usize>,
    /// Final active set (tokens and heads).
    pub active: ActiveSet,
}

/// Output of a generation run.
#[derive(Debug, Clone)]
pub struct GenerationOutput {
    /// Generated token ids (greedy decoding), `steps` of them.
    pub generated: Vec<usize>,
    /// Per-layer records of every forward (prompt layers first, then
    /// `steps × layers` generation records).
    pub records: Vec<LayerRecord>,
    /// Final active set.
    pub active: ActiveSet,
}

/// A complete transformer model with seeded weights.
#[derive(Debug, Clone)]
pub struct Model {
    config: ModelConfig,
    max_len: usize,
    embed: Matrix,
    pos: Matrix,
    blocks: Vec<TransformerBlock>,
    classifier: Option<Matrix>,
    classifier_bias: Vec<f32>,
}

impl Model {
    /// Builds a seeded language model (LM head tied to the embedding).
    pub fn new_lm(config: ModelConfig, max_len: usize, seed: u64) -> Self {
        Self::build(config, max_len, None, seed)
    }

    /// Builds a seeded classifier with `n_classes` output classes.
    pub fn new_classifier(
        config: ModelConfig,
        max_len: usize,
        n_classes: usize,
        seed: u64,
    ) -> Self {
        Self::build(config, max_len, Some(n_classes), seed)
    }

    fn build(config: ModelConfig, max_len: usize, n_classes: Option<usize>, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let std = 0.02;
        let embed = Matrix::randn(config.vocab, config.hidden, std, &mut rng);
        let pos = Matrix::randn(max_len, config.hidden, std, &mut rng);
        let blocks = (0..config.layers)
            .map(|_| {
                TransformerBlock::new_seeded(config.hidden, config.heads, config.ffn, &mut rng)
            })
            .collect();
        let classifier = n_classes.map(|n| {
            Matrix::randn(
                config.hidden,
                n,
                1.0 / (config.hidden as f32).sqrt(),
                &mut rng,
            )
        });
        let n_cls = classifier.as_ref().map(|c| c.cols()).unwrap_or(0);
        Self {
            config,
            max_len,
            embed,
            pos,
            blocks,
            classifier,
            classifier_bias: vec![0.0; n_cls],
        }
    }

    /// The model's shape.
    pub fn config(&self) -> ModelConfig {
        self.config
    }

    /// The transformer blocks (read-only).
    pub fn blocks(&self) -> &[TransformerBlock] {
        &self.blocks
    }

    /// Mutable blocks (for the trainer).
    pub fn blocks_mut(&mut self) -> &mut [TransformerBlock] {
        &mut self.blocks
    }

    /// Mutable classifier weights, if this is a classifier model.
    pub fn classifier_mut(&mut self) -> Option<(&mut Matrix, &mut Vec<f32>)> {
        let bias = &mut self.classifier_bias;
        self.classifier.as_mut().map(|c| (c, &mut *bias))
    }

    /// Read-only classifier weights, if this is a classifier model.
    pub fn classifier_ref(&self) -> Option<(&Matrix, &Vec<f32>)> {
        self.classifier.as_ref().map(|c| (c, &self.classifier_bias))
    }

    /// Every trainable parameter in a fixed order, as two parallel lists
    /// (matrices, bias vectors). Order: embedding; per block `[wq wk wv wo
    /// w1 w2]` / `[b1 b2]`; classifier weight / bias last (if present).
    pub fn trainable_params_mut(&mut self) -> (Vec<&mut Matrix>, Vec<&mut Vec<f32>>) {
        let mut mats: Vec<&mut Matrix> = vec![&mut self.embed];
        let mut vecs: Vec<&mut Vec<f32>> = Vec::new();
        for block in &mut self.blocks {
            let (m, v) = block.trainable_params_mut();
            mats.extend(m);
            vecs.extend(v);
        }
        if let Some(c) = self.classifier.as_mut() {
            mats.push(c);
            vecs.push(&mut self.classifier_bias);
        }
        (mats, vecs)
    }

    /// Embeds tokens at their original positions.
    ///
    /// # Panics
    ///
    /// Panics if a token id exceeds the vocabulary or the sequence exceeds
    /// `max_len`.
    pub fn embed_tokens(&self, tokens: &[usize]) -> Matrix {
        assert!(tokens.len() <= self.max_len, "sequence exceeds max_len");
        let mut x = Matrix::zeros(tokens.len(), self.config.hidden);
        for (row, &t) in tokens.iter().enumerate() {
            assert!(t < self.config.vocab, "token id {t} out of vocabulary");
            let e = self.embed.row(t);
            let p = self.pos.row(row);
            for (c, v) in x.row_mut(row).iter_mut().enumerate() {
                *v = e[c] + p[c];
            }
        }
        x
    }

    fn head_mask(&self, active: &ActiveSet) -> Vec<bool> {
        (0..self.config.heads)
            .map(|h| active.is_head_active(h))
            .collect()
    }

    /// Summarization-stage forward pass with pruning hooks.
    ///
    /// After every block the observer may prune tokens/heads; pruned tokens
    /// are physically dropped before the next block (cascade semantics). The
    /// final representation is the mean over surviving tokens for
    /// classifiers, or the last surviving token for LMs.
    pub fn forward(&self, tokens: &[usize], observer: &mut dyn AttentionObserver) -> ModelOutput {
        let causal = self.config.kind == ModelKind::Gpt2;
        let mut active = ActiveSet::new(tokens.len(), self.config.heads);
        let mut ids: Vec<usize> = (0..tokens.len()).collect();
        let mut x = self.embed_tokens(tokens);
        let mut records = Vec::with_capacity(self.blocks.len());

        for (layer, block) in self.blocks.iter().enumerate() {
            let head_active = self.head_mask(&active);
            let (y, rec) = block.forward(&x, &ids, causal, &head_active);
            x = y;
            let record = LayerRecord {
                layer,
                probs: rec.probs,
                head_ids: rec.head_ids,
                key_token_ids: ids.clone(),
                query_token_ids: ids.clone(),
                head_abs_sums: rec.head_abs_sums,
            };
            observer.after_layer(&record, &mut active);
            records.push(record);

            // Compact: drop pruned token rows before the next layer.
            let keep: Vec<usize> = ids
                .iter()
                .enumerate()
                .filter_map(|(row, &id)| active.is_token_active(id).then_some(row))
                .collect();
            if keep.len() != ids.len() {
                x = x.select_rows(&keep);
                ids = keep.iter().map(|&r| ids[r]).collect();
            }
            assert!(!ids.is_empty(), "cascade pruning removed every token");
        }

        let logits = self.task_logits(&x, &ids);
        ModelOutput {
            logits,
            records,
            survivors: ids,
            active,
        }
    }

    fn task_logits(&self, x: &Matrix, _ids: &[usize]) -> Vec<f32> {
        match (&self.classifier, self.config.kind) {
            (Some(cls), _) => {
                // Mean-pool surviving tokens, then classify.
                let mut pooled = vec![0.0f32; x.cols()];
                for r in 0..x.rows() {
                    for (p, v) in pooled.iter_mut().zip(x.row(r)) {
                        *p += v;
                    }
                }
                for p in &mut pooled {
                    *p /= x.rows() as f32;
                }
                let h = Matrix::from_vec(1, x.cols(), pooled);
                let mut out = h.matmul(cls);
                out.add_bias_assign(&self.classifier_bias);
                out.row(0).to_vec()
            }
            (None, _) => {
                // Weight-tied LM head on the last surviving token.
                let last = Matrix::from_vec(1, x.cols(), x.row(x.rows() - 1).to_vec());
                last.matmul_nt(&self.embed).row(0).to_vec()
            }
        }
    }

    /// Full generative run: processes `prompt` in batch (filling KV caches),
    /// then greedily generates `steps` tokens, invoking the observer after
    /// every layer of every iteration, with pruned tokens evicted from the
    /// caches.
    ///
    /// # Panics
    ///
    /// Panics unless this is a GPT-2-kind LM model, or if
    /// `prompt.len() + steps` exceeds `max_len`.
    pub fn generate(
        &self,
        prompt: &[usize],
        steps: usize,
        observer: &mut dyn AttentionObserver,
    ) -> GenerationOutput {
        assert_eq!(
            self.config.kind,
            ModelKind::Gpt2,
            "generation needs GPT-2 kind"
        );
        assert!(self.classifier.is_none(), "generation needs an LM model");
        assert!(
            prompt.len() + steps <= self.max_len,
            "prompt + steps exceeds max_len"
        );

        let mut active = ActiveSet::new(prompt.len(), self.config.heads);
        let mut caches: Vec<KvCache> = (0..self.blocks.len())
            .map(|_| KvCache::new(self.config.hidden))
            .collect();
        let mut records = Vec::new();

        // --- Summarization over the prompt (batch, filling caches). ---
        let mut ids: Vec<usize> = (0..prompt.len()).collect();
        let mut x = self.embed_tokens(prompt);
        for (layer, block) in self.blocks.iter().enumerate() {
            let head_active = self.head_mask(&active);
            caches[layer].retain(|id| active.is_token_active(id));
            let (y, rec) = block.forward_cached(&x, &ids, &mut caches[layer], &head_active);
            x = y;
            let cache_ids = caches[layer].token_ids().to_vec();
            let record = LayerRecord {
                layer,
                probs: rec.probs,
                head_ids: rec.head_ids,
                key_token_ids: cache_ids,
                query_token_ids: ids.clone(),
                head_abs_sums: rec.head_abs_sums,
            };
            observer.after_layer(&record, &mut active);
            records.push(record);
            let keep: Vec<usize> = ids
                .iter()
                .enumerate()
                .filter_map(|(row, &id)| active.is_token_active(id).then_some(row))
                .collect();
            if keep.len() != ids.len() {
                x = x.select_rows(&keep);
                ids = keep.iter().map(|&r| ids[r]).collect();
            }
        }
        let mut last_hidden = Matrix::from_vec(1, self.config.hidden, x.row(x.rows() - 1).to_vec());

        // --- Generation loop. ---
        let mut generated = Vec::with_capacity(steps);
        for step in 0..steps {
            let logits = last_hidden.matmul_nt(&self.embed);
            let next = argmax(logits.row(0));
            generated.push(next);

            let pos_id = prompt.len() + step;
            let token_id = active.push_token();
            debug_assert_eq!(token_id, pos_id);
            let e = self.embed.row(next);
            let p = self.pos.row(pos_id);
            let row: Vec<f32> = e.iter().zip(p).map(|(a, b)| a + b).collect();
            let mut xr = Matrix::from_vec(1, self.config.hidden, row);

            for (layer, block) in self.blocks.iter().enumerate() {
                let head_active = self.head_mask(&active);
                caches[layer].retain(|id| active.is_token_active(id) || id == token_id);
                let (y, rec) = block.forward_step(&xr, token_id, &mut caches[layer], &head_active);
                let cache_ids = caches[layer].token_ids().to_vec();
                let record = LayerRecord {
                    layer,
                    probs: rec.probs,
                    head_ids: rec.head_ids,
                    key_token_ids: cache_ids,
                    query_token_ids: vec![token_id],
                    head_abs_sums: rec.head_abs_sums,
                };
                observer.after_layer(&record, &mut active);
                records.push(record);
                xr = y;
            }
            last_hidden = xr;
        }

        GenerationOutput {
            generated,
            records,
            active,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NoPruning;

    fn tiny_lm() -> Model {
        Model::new_lm(ModelConfig::tiny(ModelKind::Gpt2), 64, 3)
    }

    fn tiny_classifier() -> Model {
        Model::new_classifier(ModelConfig::tiny(ModelKind::Bert), 64, 2, 3)
    }

    #[test]
    fn classifier_forward_produces_logits_and_records() {
        let m = tiny_classifier();
        let out = m.forward(&[1, 2, 3, 4, 5], &mut NoPruning);
        assert_eq!(out.logits.len(), 2);
        assert_eq!(out.records.len(), 2);
        assert_eq!(out.survivors.len(), 5);
        assert!(out.logits.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn lm_forward_logits_cover_vocab() {
        let m = tiny_lm();
        let out = m.forward(&[0, 5, 9], &mut NoPruning);
        assert_eq!(out.logits.len(), m.config().vocab);
    }

    #[test]
    fn forward_is_deterministic() {
        let a = tiny_classifier().forward(&[3, 1, 4, 1, 5], &mut NoPruning);
        let b = tiny_classifier().forward(&[3, 1, 4, 1, 5], &mut NoPruning);
        assert_eq!(a.logits, b.logits);
    }

    #[test]
    fn generation_produces_requested_tokens() {
        let m = tiny_lm();
        let out = m.generate(&[1, 2, 3], 4, &mut NoPruning);
        assert_eq!(out.generated.len(), 4);
        assert!(out.generated.iter().all(|&t| t < m.config().vocab));
        // prompt layers + steps × layers records
        assert_eq!(out.records.len(), 2 + 4 * 2);
    }

    struct PruneFirstToken;
    impl AttentionObserver for PruneFirstToken {
        fn after_layer(&mut self, record: &LayerRecord, active: &mut ActiveSet) {
            if record.layer == 0 {
                active.prune_token(0);
            }
        }
    }

    #[test]
    fn pruned_token_disappears_from_later_layers() {
        let m = tiny_classifier();
        let out = m.forward(&[1, 2, 3, 4], &mut PruneFirstToken);
        assert_eq!(out.survivors, vec![1, 2, 3]);
        // layer 0 saw 4 key tokens; layer 1 saw 3
        assert_eq!(out.records[0].key_token_ids.len(), 4);
        assert_eq!(out.records[1].key_token_ids.len(), 3);
        assert_eq!(out.records[1].probs[0].cols(), 3);
    }

    struct PruneHeadZero;
    impl AttentionObserver for PruneHeadZero {
        fn after_layer(&mut self, record: &LayerRecord, active: &mut ActiveSet) {
            if record.layer == 0 {
                active.prune_head(0);
            }
        }
    }

    #[test]
    fn pruned_head_disappears_from_later_layers() {
        let m = tiny_classifier();
        let out = m.forward(&[1, 2, 3, 4], &mut PruneHeadZero);
        assert_eq!(out.records[0].head_ids, vec![0, 1]);
        assert_eq!(out.records[1].head_ids, vec![1]);
        assert_eq!(out.active.active_head_count(), 1);
    }

    #[test]
    fn pruning_changes_but_does_not_break_logits() {
        let m = tiny_classifier();
        let dense = m.forward(&[1, 2, 3, 4, 5, 6], &mut NoPruning);
        let pruned = m.forward(&[1, 2, 3, 4, 5, 6], &mut PruneFirstToken);
        assert_ne!(dense.logits, pruned.logits);
        assert!(pruned.logits.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn generation_with_pruning_keeps_caches_consistent() {
        struct PruneEarlyTokens;
        impl AttentionObserver for PruneEarlyTokens {
            fn after_layer(&mut self, record: &LayerRecord, active: &mut ActiveSet) {
                // prune token 0 once layer 1 of the prompt pass is done
                if record.layer == 1 && active.is_token_active(0) && active.token_capacity() == 4 {
                    active.prune_token(0);
                }
            }
        }
        let m = tiny_lm();
        let out = m.generate(&[1, 2, 3, 4], 3, &mut PruneEarlyTokens);
        assert_eq!(out.generated.len(), 3);
        assert!(!out.active.is_token_active(0));
    }

    #[test]
    #[should_panic(expected = "exceeds max_len")]
    fn overlong_sequence_panics() {
        let m = tiny_classifier();
        let tokens: Vec<usize> = (0..100).map(|i| i % 8).collect();
        let _ = m.forward(&tokens, &mut NoPruning);
    }
}
