//! Pruning hooks: how SpAtten's cascade pruning attaches to a forward pass.
//!
//! The accelerator decides *during* inference which tokens and heads survive
//! into the following layers (paper Fig. 4). The model therefore exposes an
//! [`AttentionObserver`] that is called after every layer with that layer's
//! attention probabilities and head magnitudes — exactly the signals
//! Algorithm 2 accumulates — and may deactivate tokens/heads in the shared
//! [`ActiveSet`]. Deactivation is *monotone*: once pruned, a token or head
//! never reappears ("cascade").

use crate::matrix::Matrix;

/// The surviving token and head sets, shared across layers of one forward
/// pass.
///
/// Token indices refer to *original* sequence positions; the model compacts
/// its working set internally but always reports original ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveSet {
    token_active: Vec<bool>,
    head_active: Vec<bool>,
}

impl ActiveSet {
    /// A fresh set with all `tokens` tokens and `heads` heads active.
    pub fn new(tokens: usize, heads: usize) -> Self {
        Self {
            token_active: vec![true; tokens],
            head_active: vec![true; heads],
        }
    }

    /// Number of token slots (active or not).
    pub fn token_capacity(&self) -> usize {
        self.token_active.len()
    }

    /// Number of head slots.
    pub fn head_capacity(&self) -> usize {
        self.head_active.len()
    }

    /// Grows the token set by one (a newly generated token), active.
    pub fn push_token(&mut self) -> usize {
        self.token_active.push(true);
        self.token_active.len() - 1
    }

    /// Whether token `i` is still active.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn is_token_active(&self, i: usize) -> bool {
        self.token_active[i]
    }

    /// Whether head `h` is still active.
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of bounds.
    pub fn is_head_active(&self, h: usize) -> bool {
        self.head_active[h]
    }

    /// Deactivates token `i` (idempotent; monotone).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn prune_token(&mut self, i: usize) {
        self.token_active[i] = false;
    }

    /// Deactivates head `h` (idempotent; monotone).
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of bounds.
    pub fn prune_head(&mut self, h: usize) {
        self.head_active[h] = false;
    }

    /// Original indices of all active tokens, ascending.
    pub fn active_tokens(&self) -> Vec<usize> {
        self.token_active
            .iter()
            .enumerate()
            .filter_map(|(i, &a)| a.then_some(i))
            .collect()
    }

    /// Indices of all active heads, ascending.
    pub fn active_heads(&self) -> Vec<usize> {
        self.head_active
            .iter()
            .enumerate()
            .filter_map(|(i, &a)| a.then_some(i))
            .collect()
    }

    /// Count of active tokens.
    pub fn active_token_count(&self) -> usize {
        self.token_active.iter().filter(|&&a| a).count()
    }

    /// Count of active heads.
    pub fn active_head_count(&self) -> usize {
        self.head_active.iter().filter(|&&a| a).count()
    }
}

/// What one attention layer produced, as visible to the pruning engine.
#[derive(Debug, Clone)]
pub struct LayerRecord {
    /// Layer index (0-based).
    pub layer: usize,
    /// Per *active* head: the attention-probability matrix. Rows are the
    /// active queries, columns the active keys.
    pub probs: Vec<Matrix>,
    /// Head index of each entry of `probs`.
    pub head_ids: Vec<usize>,
    /// Original token id of each probability column.
    pub key_token_ids: Vec<usize>,
    /// Original token id of each probability row.
    pub query_token_ids: Vec<usize>,
    /// Per active head: `Σ |E[head]|`, the head-importance statistic of
    /// Algorithm 2 (magnitude of the head's output chunk before the
    /// concatenating FC).
    pub head_abs_sums: Vec<f32>,
}

/// A hook invoked after every attention layer, allowed to prune.
pub trait AttentionObserver {
    /// Inspects the layer's record and may deactivate tokens/heads in
    /// `active`. Deactivations take effect from the *next* layer on.
    fn after_layer(&mut self, record: &LayerRecord, active: &mut ActiveSet);
}

/// The identity observer: no pruning (dense baseline).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoPruning;

impl AttentionObserver for NoPruning {
    fn after_layer(&mut self, _record: &LayerRecord, _active: &mut ActiveSet) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_set_is_fully_active() {
        let s = ActiveSet::new(5, 3);
        assert_eq!(s.active_token_count(), 5);
        assert_eq!(s.active_head_count(), 3);
        assert_eq!(s.active_tokens(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pruning_is_monotone_and_idempotent() {
        let mut s = ActiveSet::new(4, 2);
        s.prune_token(2);
        s.prune_token(2);
        s.prune_head(0);
        assert_eq!(s.active_tokens(), vec![0, 1, 3]);
        assert_eq!(s.active_heads(), vec![1]);
        assert!(!s.is_token_active(2));
        assert!(!s.is_head_active(0));
    }

    #[test]
    fn push_token_extends_active() {
        let mut s = ActiveSet::new(2, 1);
        s.prune_token(0);
        let id = s.push_token();
        assert_eq!(id, 2);
        assert_eq!(s.active_tokens(), vec![1, 2]);
    }
}
