//! Beam-search decoding with shared cascade pruning.
//!
//! §V-B: "our techniques can also accelerate the Beam Search case because
//! when a token (and its K, V) is pruned, it will not be used by *any*
//! beams." This module implements beam search over a GPT-2-kind [`Model`]:
//! all beams share one [`ActiveSet`] (and therefore one importance
//! accumulator when a pruning observer is attached), so a token pruned by
//! the shared decision disappears from every beam's KV cache — exactly the
//! paper's argument for why cascade pruning composes with beam search.

use crate::attention::KvCache;
use crate::model::Model;
use crate::observer::{ActiveSet, AttentionObserver, LayerRecord};
use crate::ops::argmax;

/// One decoding hypothesis.
#[derive(Debug, Clone, PartialEq)]
pub struct Beam {
    /// Generated token ids (excluding the prompt).
    pub tokens: Vec<usize>,
    /// Sum of log-probabilities of the generated tokens.
    pub log_prob: f32,
}

/// Result of a beam-search run.
#[derive(Debug, Clone, PartialEq)]
pub struct BeamSearchOutput {
    /// Hypotheses, best first.
    pub beams: Vec<Beam>,
    /// Tokens still active in the shared pruning state at the end.
    pub active_tokens: usize,
    /// Total prompt+generated token capacity.
    pub token_capacity: usize,
}

/// Log-softmax of a logit row (stable).
fn log_softmax(logits: &[f32]) -> Vec<f32> {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let log_sum: f32 = logits.iter().map(|&l| (l - max).exp()).sum::<f32>().ln() + max;
    logits.iter().map(|&l| l - log_sum).collect()
}

/// Runs beam search of width `width` for `steps` tokens, with one shared
/// pruning observer across all beams.
///
/// The prompt is processed once (shared KV); each surviving hypothesis
/// keeps per-beam copies of the post-prompt cache rows. Pruning decisions
/// made by `observer` act on the *shared* active set: once a prompt token
/// is pruned it is evicted from every beam's caches.
///
/// # Panics
///
/// Panics unless the model is a GPT-2-kind LM, `width ≥ 1`, and
/// `prompt.len() + steps ≤ max_len`.
pub fn beam_search(
    model: &Model,
    prompt: &[usize],
    steps: usize,
    width: usize,
    observer: &mut dyn AttentionObserver,
) -> BeamSearchOutput {
    assert!(width >= 1, "beam width must be at least 1");
    assert!(
        prompt.len() + steps <= model.max_len(),
        "prompt + steps exceeds max_len"
    );
    let config = model.config();
    let layers = model.blocks().len();

    // --- Shared prompt pass (fills the shared caches). ---
    let mut active = ActiveSet::new(prompt.len(), config.heads);
    let mut caches: Vec<KvCache> = (0..layers).map(|_| KvCache::new(config.hidden)).collect();
    let mut ids: Vec<usize> = (0..prompt.len()).collect();
    let mut x = model.embed_tokens(prompt);
    for (layer, block) in model.blocks().iter().enumerate() {
        let head_active: Vec<bool> = (0..config.heads)
            .map(|h| active.is_head_active(h))
            .collect();
        let (y, rec) = block.forward_cached(&x, &ids, &mut caches[layer], &head_active);
        x = y;
        let record = LayerRecord {
            layer,
            probs: rec.probs,
            head_ids: rec.head_ids,
            key_token_ids: caches[layer].token_ids().to_vec(),
            query_token_ids: ids.clone(),
            head_abs_sums: rec.head_abs_sums,
        };
        observer.after_layer(&record, &mut active);
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

    // --- Beam state: per-beam caches (cloned from the shared prompt) and
    //     per-beam last hidden state. ---
    struct BeamState {
        beam: Beam,
        caches: Vec<KvCache>,
        last_hidden: crate::matrix::Matrix,
    }
    let last = crate::matrix::Matrix::from_vec(1, config.hidden, x.row(x.rows() - 1).to_vec());
    let mut states = vec![BeamState {
        beam: Beam {
            tokens: Vec::new(),
            log_prob: 0.0,
        },
        caches: caches.clone(),
        last_hidden: last,
    }];

    for step in 0..steps {
        let pos_id = prompt.len() + step;
        let token_id = active.push_token();
        debug_assert_eq!(token_id, pos_id);

        // Expand every beam with its top-`width` continuations.
        let mut candidates: Vec<(usize, usize, f32)> = Vec::new(); // (beam, token, lp)
        for (b, state) in states.iter().enumerate() {
            let logits = state.last_hidden.matmul_nt(model.embedding());
            let lp = log_softmax(logits.row(0));
            let mut order: Vec<usize> = (0..lp.len()).collect();
            order.sort_by(|&i, &j| {
                lp[j]
                    .partial_cmp(&lp[i])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            for &t in order.iter().take(width) {
                candidates.push((b, t, state.beam.log_prob + lp[t]));
            }
        }
        candidates.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
        candidates.truncate(width);

        // Advance the chosen candidates through the blocks.
        let mut next_states = Vec::with_capacity(candidates.len());
        for &(b, token, log_prob) in &candidates {
            let parent = &states[b];
            let mut caches = parent.caches.clone();
            let e = model.embedding().row(token);
            let p = model.positional().row(pos_id);
            let row: Vec<f32> = e.iter().zip(p).map(|(a, b)| a + b).collect();
            let mut xr = crate::matrix::Matrix::from_vec(1, config.hidden, row);
            for (layer, block) in model.blocks().iter().enumerate() {
                let head_active: Vec<bool> = (0..config.heads)
                    .map(|h| active.is_head_active(h))
                    .collect();
                // Shared pruning: evict tokens pruned by *any* beam's stats.
                caches[layer].retain(|id| active.is_token_active(id) || id == token_id);
                let (y, rec) = block.forward_step(&xr, token_id, &mut caches[layer], &head_active);
                let record = LayerRecord {
                    layer,
                    probs: rec.probs,
                    head_ids: rec.head_ids,
                    key_token_ids: caches[layer].token_ids().to_vec(),
                    query_token_ids: vec![token_id],
                    head_abs_sums: rec.head_abs_sums,
                };
                observer.after_layer(&record, &mut active);
                xr = y;
            }
            let mut beam = parent.beam.clone();
            beam.tokens.push(token);
            beam.log_prob = log_prob;
            next_states.push(BeamState {
                beam,
                caches,
                last_hidden: xr,
            });
        }
        states = next_states;
    }

    let mut beams: Vec<Beam> = states.into_iter().map(|s| s.beam).collect();
    beams.sort_by(|a, b| {
        b.log_prob
            .partial_cmp(&a.log_prob)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    BeamSearchOutput {
        beams,
        active_tokens: active.active_token_count(),
        token_capacity: active.token_capacity(),
    }
}

/// Greedy decoding expressed as width-1 beam search (for equivalence tests).
pub fn greedy_decode(
    model: &Model,
    prompt: &[usize],
    steps: usize,
    observer: &mut dyn AttentionObserver,
) -> Vec<usize> {
    let out = beam_search(model, prompt, steps, 1, observer);
    out.beams[0].tokens.clone()
}

/// Argmax helper re-exported for parity with `Model::generate` tests.
pub fn best_token(logits: &[f32]) -> usize {
    argmax(logits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelConfig, ModelKind};
    use crate::observer::NoPruning;

    fn lm() -> Model {
        Model::new_lm(ModelConfig::tiny(ModelKind::Gpt2), 64, 3)
    }

    #[test]
    fn width_one_matches_greedy_generation() {
        let m = lm();
        let prompt = [1usize, 5, 9, 2];
        let greedy = m.generate(&prompt, 5, &mut NoPruning).generated;
        let beam = greedy_decode(&m, &prompt, 5, &mut NoPruning);
        assert_eq!(greedy, beam);
    }

    #[test]
    fn wider_beams_never_have_lower_best_score() {
        let m = lm();
        let prompt = [2usize, 4, 8];
        let w1 = beam_search(&m, &prompt, 4, 1, &mut NoPruning);
        let w4 = beam_search(&m, &prompt, 4, 4, &mut NoPruning);
        assert!(w4.beams[0].log_prob >= w1.beams[0].log_prob - 1e-5);
        assert_eq!(w4.beams.len(), 4);
    }

    #[test]
    fn beams_are_sorted_by_score() {
        let m = lm();
        let out = beam_search(&m, &[3, 1, 4], 3, 4, &mut NoPruning);
        for pair in out.beams.windows(2) {
            assert!(pair[0].log_prob >= pair[1].log_prob);
        }
    }

    struct PrunePromptToken;
    impl AttentionObserver for PrunePromptToken {
        fn after_layer(&mut self, record: &LayerRecord, active: &mut ActiveSet) {
            if record.layer == 1 && active.is_token_active(0) {
                active.prune_token(0);
            }
        }
    }

    #[test]
    fn shared_pruning_evicts_from_every_beam() {
        let m = lm();
        let out = beam_search(&m, &[1, 2, 3, 4, 5], 3, 3, &mut PrunePromptToken);
        // Token 0 pruned once → absent from the shared active set; every
        // beam still decodes the requested number of tokens.
        assert!(out.active_tokens < out.token_capacity);
        for beam in &out.beams {
            assert_eq!(beam.tokens.len(), 3);
        }
    }

    #[test]
    fn log_softmax_normalizes() {
        let lp = log_softmax(&[1.0, 2.0, 3.0]);
        let sum: f32 = lp.iter().map(|l| l.exp()).sum();
        assert!((sum - 1.0).abs() < 1e-5);
    }
}
