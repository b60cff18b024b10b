//! Interpretability: token-level pruning traces (paper Fig. 22/23).
//!
//! Cascade token pruning is *structured and interpretable*: the cumulative
//! importance scores say which tokens the model attended to, and the
//! per-layer survivor sets can be printed as progressively shortened
//! sentences. This module runs a real (small) model with a
//! [`CascadePruner`] and packages the trace for display.

use crate::pruner::CascadePruner;
use spatten_nn::Model;
use spatten_workloads::PruningSpec;

/// What happened to one token.
#[derive(Debug, Clone, PartialEq)]
pub struct TokenFate {
    /// Original position in the sentence.
    pub position: usize,
    /// The word (if a vocabulary was provided).
    pub word: Option<String>,
    /// The layer after which the token was pruned (`None` = survived).
    pub pruned_after_layer: Option<usize>,
    /// Final cumulative importance score.
    pub importance: f64,
}

/// A full pruning trace of one sentence.
#[derive(Debug, Clone, PartialEq)]
pub struct PruningTrace {
    /// Per-token fates, in sentence order.
    pub tokens: Vec<TokenFate>,
    /// Surviving token positions after each layer.
    pub survivors_per_layer: Vec<Vec<usize>>,
    /// Heads surviving after the last layer.
    pub final_heads: Vec<usize>,
}

impl PruningTrace {
    /// Runs `tokens` through `model` with cascade pruning per `spec` and
    /// records every pruning decision. `words` optionally labels tokens.
    ///
    /// # Panics
    ///
    /// Panics if `words` is provided with a different length than `tokens`.
    pub fn capture(
        model: &Model,
        tokens: &[usize],
        spec: PruningSpec,
        words: Option<&[&str]>,
    ) -> Self {
        if let Some(w) = words {
            assert_eq!(w.len(), tokens.len(), "word labels must match tokens");
        }
        let cfg = model.config();
        let mut pruner = CascadePruner::new(spec, cfg.layers, tokens.len(), cfg.heads);
        let out = model.forward(tokens, &mut pruner);

        // Reconstruct survivor sets per layer from the records: the keys a
        // layer saw are the survivors *entering* it; fates come from diffs.
        let mut survivors_per_layer: Vec<Vec<usize>> = Vec::with_capacity(out.records.len());
        for rec in out.records.iter().skip(1) {
            survivors_per_layer.push(rec.key_token_ids.clone());
        }
        survivors_per_layer.push(out.survivors.clone());

        let mut fates: Vec<TokenFate> = (0..tokens.len())
            .map(|position| TokenFate {
                position,
                word: words.map(|w| w[position].to_owned()),
                pruned_after_layer: None,
                importance: pruner.importance().token_scores()[position],
            })
            .collect();
        for (layer, survivors) in survivors_per_layer.iter().enumerate() {
            for fate in fates.iter_mut() {
                if fate.pruned_after_layer.is_none() && !survivors.contains(&fate.position) {
                    fate.pruned_after_layer = Some(layer);
                }
            }
        }

        Self {
            tokens: fates,
            survivors_per_layer,
            final_heads: out.active.active_heads(),
        }
    }

    /// The sentence as it survives after `layer` (words joined, pruned
    /// tokens dropped). Tokens without word labels render as `·`.
    pub fn render_layer(&self, layer: usize) -> String {
        let survivors = &self.survivors_per_layer[layer.min(self.survivors_per_layer.len() - 1)];
        self.tokens
            .iter()
            .filter(|t| survivors.contains(&t.position))
            .map(|t| t.word.clone().unwrap_or_else(|| "·".to_owned()))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Tokens that survived every layer.
    pub fn final_survivors(&self) -> Vec<&TokenFate> {
        self.tokens
            .iter()
            .filter(|t| t.pruned_after_layer.is_none())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatten_nn::{ModelConfig, ModelKind};

    fn model() -> Model {
        let cfg = ModelConfig {
            kind: ModelKind::Bert,
            layers: 4,
            heads: 2,
            hidden: 32,
            ffn: 64,
            vocab: 64,
        };
        Model::new_classifier(cfg, 64, 2, 17)
    }

    #[test]
    fn trace_accounts_for_every_token() {
        let m = model();
        let tokens: Vec<usize> = (0..16).map(|i| (i * 5) % 64).collect();
        let trace = PruningTrace::capture(&m, &tokens, PruningSpec::with_keeps(0.5, 1.0), None);
        assert_eq!(trace.tokens.len(), 16);
        let survived = trace.final_survivors().len();
        let pruned = trace
            .tokens
            .iter()
            .filter(|t| t.pruned_after_layer.is_some())
            .count();
        assert_eq!(survived + pruned, 16);
        assert!(pruned > 0, "schedule must prune something");
    }

    #[test]
    fn survivor_sets_shrink() {
        let m = model();
        let tokens: Vec<usize> = (0..20).map(|i| (i * 3) % 64).collect();
        let trace = PruningTrace::capture(&m, &tokens, PruningSpec::with_keeps(0.4, 1.0), None);
        for pair in trace.survivors_per_layer.windows(2) {
            assert!(pair[1].len() <= pair[0].len());
        }
    }

    #[test]
    fn render_uses_words() {
        let m = model();
        let words = ["the", "film", "is", "almost", "perfect", "."];
        let tokens: Vec<usize> = (0..6).collect();
        let trace = PruningTrace::capture(&m, &tokens, PruningSpec::dense(), Some(&words));
        let rendered = trace.render_layer(3);
        assert_eq!(rendered, "the film is almost perfect .");
    }

    #[test]
    fn pruned_tokens_have_layer_stamps() {
        let m = model();
        let tokens: Vec<usize> = (0..16).map(|i| (i * 7) % 64).collect();
        let trace = PruningTrace::capture(&m, &tokens, PruningSpec::with_keeps(0.3, 1.0), None);
        for t in &trace.tokens {
            if let Some(layer) = t.pruned_after_layer {
                assert!(layer < 4);
            }
        }
    }
}
