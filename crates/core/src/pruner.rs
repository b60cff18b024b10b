//! The cascade pruner: SpAtten's on-the-fly token/head selection attached
//! to a real forward pass.
//!
//! After every layer the pruner accumulates importance (Algorithm 2),
//! consults the per-layer keep schedule (§V-A) and uses the top-k engine to
//! decide which tokens/heads survive into the next layer. Pruning is
//! cascade: survivors only shrink. Protected tokens (e.g. the final token
//! feeding the LM head, or a `[CLS]`-style anchor) are exempted by boosting
//! them past any threshold.

use crate::importance::ImportanceAccumulator;
use spatten_arch::TopkEngine;
use spatten_nn::{ActiveSet, AttentionObserver, LayerRecord};
use spatten_workloads::PruningSpec;

/// Cascade token + head pruning as an [`AttentionObserver`].
#[derive(Debug)]
pub struct CascadePruner {
    spec: PruningSpec,
    layers: usize,
    importance: ImportanceAccumulator,
    engine: TopkEngine,
    protected: Vec<usize>,
    original_len: usize,
}

impl CascadePruner {
    /// A pruner for a model with `layers` layers over `tokens` initial
    /// tokens and `heads` heads.
    pub fn new(spec: PruningSpec, layers: usize, tokens: usize, heads: usize) -> Self {
        Self {
            spec,
            layers,
            importance: ImportanceAccumulator::new(tokens, heads),
            engine: TopkEngine::new(16, 0x5EED),
            protected: Vec::new(),
            original_len: tokens,
        }
    }

    /// Marks a token as never prunable (LM-head query, `[CLS]` anchor, …).
    pub fn protect_token(&mut self, id: usize) {
        if !self.protected.contains(&id) {
            self.protected.push(id);
        }
    }

    /// The accumulated importance scores (for visualization).
    pub fn importance(&self) -> &ImportanceAccumulator {
        &self.importance
    }

    fn prune_tokens(&mut self, active: &mut ActiveSet, layer: usize) {
        let keep_frac = self.spec.token_keep_at(layer, self.layers);
        if keep_frac >= 1.0 {
            return;
        }
        let ids = active.active_tokens();
        // Keep counts are relative to the *original* sequence length, as in
        // the paper (ratios compound across layers only through the
        // schedule, not multiplicatively).
        let target =
            ((self.original_len.max(active.token_capacity()) as f64) * keep_frac).round() as usize;
        let target = target.clamp(self.protected.len().max(1), ids.len());
        if target >= ids.len() {
            return;
        }
        let mut scores = self.importance.token_scores_for(&ids);
        for (i, id) in ids.iter().enumerate() {
            if self.protected.contains(id) {
                scores[i] = f32::MAX; // survives any threshold
            }
        }
        let result = self.engine.select(&scores, target);
        let mut keep = vec![false; ids.len()];
        for &slot in &result.indices {
            keep[slot] = true;
        }
        for (slot, id) in ids.iter().enumerate() {
            if !keep[slot] {
                active.prune_token(*id);
            }
        }
    }

    fn prune_heads(&mut self, active: &mut ActiveSet, layer: usize) {
        let keep_frac = self.spec.head_keep_at(layer, self.layers);
        if keep_frac >= 1.0 {
            return;
        }
        let ids = active.active_heads();
        let total_heads = active.head_capacity();
        let target = ((total_heads as f64) * keep_frac).round().max(1.0) as usize;
        if target >= ids.len() {
            return;
        }
        let scores = self.importance.head_scores_for(&ids);
        let result = self.engine.select(&scores, target);
        let mut keep = vec![false; ids.len()];
        for &slot in &result.indices {
            keep[slot] = true;
        }
        for (slot, id) in ids.iter().enumerate() {
            if !keep[slot] {
                active.prune_head(*id);
            }
        }
    }
}

impl AttentionObserver for CascadePruner {
    fn after_layer(&mut self, record: &LayerRecord, active: &mut ActiveSet) {
        self.importance.ensure_tokens(active.token_capacity());
        self.importance.accumulate(record);
        self.prune_tokens(active, record.layer);
        self.prune_heads(active, record.layer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatten_nn::{Model, ModelConfig, ModelKind, NoPruning};
    use spatten_workloads::PruningSpec;

    fn model() -> Model {
        // 4 layers so the front-15% protection covers exactly layer 0.
        let cfg = ModelConfig {
            kind: ModelKind::Bert,
            layers: 4,
            heads: 4,
            hidden: 32,
            ffn: 64,
            vocab: 64,
        };
        Model::new_classifier(cfg, 64, 2, 5)
    }

    #[test]
    fn prunes_towards_schedule() {
        let m = model();
        let tokens: Vec<usize> = (0..20).map(|i| (i * 7) % 64).collect();
        let spec = PruningSpec::with_keeps(0.5, 0.75);
        let mut pruner = CascadePruner::new(spec, 4, tokens.len(), 4);
        let out = m.forward(&tokens, &mut pruner);
        // Final layer keep ≈ 0.5 − spread → well below the original 20.
        assert!(
            out.survivors.len() <= 12,
            "survivors: {}",
            out.survivors.len()
        );
        assert!(out.survivors.len() >= 5);
        // Heads pruned to ~3 of 4.
        assert!(out.active.active_head_count() <= 4);
        assert!(out.active.active_head_count() >= 2);
    }

    #[test]
    fn survivor_count_is_monotone_nonincreasing() {
        let m = model();
        let tokens: Vec<usize> = (0..24).map(|i| (i * 5) % 64).collect();
        let spec = PruningSpec::with_keeps(0.4, 1.0);
        let mut pruner = CascadePruner::new(spec, 4, tokens.len(), 4);
        let out = m.forward(&tokens, &mut pruner);
        let mut prev = usize::MAX;
        for rec in &out.records {
            assert!(rec.key_token_ids.len() <= prev, "cascade violated");
            prev = rec.key_token_ids.len();
        }
    }

    #[test]
    fn protected_tokens_always_survive() {
        let m = model();
        let tokens: Vec<usize> = (0..20).map(|i| (i * 3) % 64).collect();
        let spec = PruningSpec::with_keeps(0.3, 1.0);
        let mut pruner = CascadePruner::new(spec, 4, tokens.len(), 4);
        pruner.protect_token(0);
        pruner.protect_token(19);
        let out = m.forward(&tokens, &mut pruner);
        assert!(out.survivors.contains(&0));
        assert!(out.survivors.contains(&19));
    }

    #[test]
    fn dense_spec_prunes_nothing() {
        let m = model();
        let tokens: Vec<usize> = (0..16).collect();
        let mut pruner = CascadePruner::new(PruningSpec::dense(), 4, tokens.len(), 4);
        let out = m.forward(&tokens, &mut pruner);
        assert_eq!(out.survivors.len(), 16);
        assert_eq!(out.active.active_head_count(), 4);
        // And matches the NoPruning logits exactly.
        let dense = m.forward(&tokens, &mut NoPruning);
        assert_eq!(out.logits, dense.logits);
    }

    #[test]
    fn pruner_keeps_high_importance_tokens() {
        // Build importance by hand: feed a record where token 2 dominates,
        // then check the pruner's selection keeps it.
        let m = model();
        let tokens: Vec<usize> = (0..12).collect();
        let spec = PruningSpec::with_keeps(0.34, 1.0);
        let mut pruner = CascadePruner::new(spec, 4, tokens.len(), 4);
        let out = m.forward(&tokens, &mut pruner);
        // Survivors must be exactly the top-importance tokens.
        let scores = pruner.importance().token_scores();
        let mut surv_scores: Vec<f64> = out.survivors.iter().map(|&i| scores[i]).collect();
        surv_scores.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut pruned_scores: Vec<f64> = (0..12)
            .filter(|i| !out.survivors.contains(i))
            .map(|i| scores[i])
            .collect();
        pruned_scores.sort_by(|a, b| b.partial_cmp(a).unwrap());
        // Importance keeps accumulating after the last pruning decision, so
        // compare loosely: the median survivor should outscore the median
        // pruned token.
        assert!(
            surv_scores[surv_scores.len() / 2] >= pruned_scores[pruned_scores.len() / 2] * 0.8,
            "survivors {surv_scores:?} vs pruned {pruned_scores:?}"
        );
    }
}
