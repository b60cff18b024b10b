//! Model shape presets and FLOP accounting.
//!
//! The paper evaluates four models: BERT-Base, BERT-Large (discriminative),
//! GPT-2-Small and GPT-2-Medium (generative). Their shapes determine every
//! performance number in the evaluation, so they live here together with the
//! FLOP accounting used by the accelerator model, the baselines and the
//! roofline analysis (Fig. 18, Table IV).

use std::fmt;

/// Discriminative (BERT-like) vs. generative (GPT-2-like) model family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Summarization stage only; bidirectional attention.
    Bert,
    /// Summarization + generation stages; causal attention with KV cache.
    Gpt2,
}

/// Which stage of Figure 3 a workload models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// All input tokens processed in a batch (`Q`, `K`, `V` all `L×D`).
    Summarization,
    /// One query token against a growing KV cache (`Q` is `1×D`).
    Generation,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stage::Summarization => write!(f, "summarization"),
            Stage::Generation => write!(f, "generation"),
        }
    }
}

/// Transformer shape description.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelConfig {
    /// Model family (attention masking + stages).
    pub kind: ModelKind,
    /// Number of transformer blocks.
    pub layers: usize,
    /// Attention heads per layer.
    pub heads: usize,
    /// Model (embedding) dimension `Din`.
    pub hidden: usize,
    /// Feed-forward inner dimension.
    pub ffn: usize,
    /// Vocabulary size (used for embedding/LM-head FLOPs; functional models
    /// may instantiate a smaller vocabulary).
    pub vocab: usize,
}

impl ModelConfig {
    /// BERT-Base: 12 layers, 12 heads, 768 hidden, 3072 FFN.
    pub const fn bert_base() -> Self {
        Self {
            kind: ModelKind::Bert,
            layers: 12,
            heads: 12,
            hidden: 768,
            ffn: 3072,
            vocab: 30522,
        }
    }

    /// BERT-Large: 24 layers, 16 heads, 1024 hidden, 4096 FFN.
    pub const fn bert_large() -> Self {
        Self {
            kind: ModelKind::Bert,
            layers: 24,
            heads: 16,
            hidden: 1024,
            ffn: 4096,
            vocab: 30522,
        }
    }

    /// GPT-2-Small: 12 layers, 12 heads, 768 hidden, 3072 FFN.
    pub const fn gpt2_small() -> Self {
        Self {
            kind: ModelKind::Gpt2,
            layers: 12,
            heads: 12,
            hidden: 768,
            ffn: 3072,
            vocab: 50257,
        }
    }

    /// GPT-2-Medium: 24 layers, 16 heads, 1024 hidden, 4096 FFN.
    pub const fn gpt2_medium() -> Self {
        Self {
            kind: ModelKind::Gpt2,
            layers: 24,
            heads: 16,
            hidden: 1024,
            ffn: 4096,
            vocab: 50257,
        }
    }

    /// A tiny functional model for tests and trained-accuracy experiments.
    pub const fn tiny(kind: ModelKind) -> Self {
        Self {
            kind,
            layers: 2,
            heads: 2,
            hidden: 32,
            ffn: 64,
            vocab: 64,
        }
    }

    /// Returns a copy with a different vocabulary (for functional
    /// instantiation of large shapes with a synthetic vocabulary).
    pub const fn with_vocab(mut self, vocab: usize) -> Self {
        self.vocab = vocab;
        self
    }

    /// Per-head feature dimension `D = hidden / heads`.
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is not divisible by `heads`.
    pub fn head_dim(&self) -> usize {
        assert!(
            self.hidden.is_multiple_of(self.heads),
            "hidden {} not divisible by heads {}",
            self.hidden,
            self.heads
        );
        self.hidden / self.heads
    }

    // ------------------------------------------------------------------
    // FLOP accounting (multiply + add = 2 FLOPs, matching the paper).
    // ------------------------------------------------------------------

    /// FLOPs of the Q/K/V projection FCs for `l` tokens in one layer.
    pub fn qkv_fc_flops(&self, l: usize) -> u64 {
        3 * 2 * l as u64 * (self.hidden as u64) * (self.hidden as u64)
    }

    /// FLOPs of the attention-output projection FC for `l` tokens.
    pub fn out_fc_flops(&self, l: usize) -> u64 {
        2 * l as u64 * (self.hidden as u64) * (self.hidden as u64)
    }

    /// FLOPs of the attention core (`Q·Kᵀ` and `prob·V` over all heads) for
    /// `l0` queries against `l1` keys, with `heads_active` surviving heads.
    pub fn attention_core_flops(&self, l0: usize, l1: usize, heads_active: usize) -> u64 {
        let d = self.head_dim() as u64;
        2 * 2 * heads_active as u64 * l0 as u64 * l1 as u64 * d
    }

    /// FLOPs of the feed-forward network for `l` tokens in one layer.
    pub fn ffn_flops(&self, l: usize) -> u64 {
        2 * 2 * l as u64 * (self.hidden as u64) * (self.ffn as u64)
    }

    /// FLOPs of the LM head (hidden → vocab) for one token.
    pub fn lm_head_flops(&self) -> u64 {
        2 * (self.hidden as u64) * (self.vocab as u64)
    }

    /// Total unpruned FLOPs of one summarization pass over `len` tokens.
    pub fn summarize_flops(&self, len: usize) -> u64 {
        (self.layers as u64)
            * (self.qkv_fc_flops(len)
                + self.attention_core_flops(len, len, self.heads)
                + self.out_fc_flops(len)
                + self.ffn_flops(len))
    }

    /// Total unpruned FLOPs of generating `steps` tokens from a context of
    /// `context` tokens (KV cache: each step is one query against a growing
    /// key set).
    pub fn generate_flops(&self, context: usize, steps: usize) -> u64 {
        let mut total = 0u64;
        for s in 0..steps {
            let l1 = context + s + 1;
            total += (self.layers as u64)
                * (self.qkv_fc_flops(1)
                    + self.attention_core_flops(1, l1, self.heads)
                    + self.out_fc_flops(1)
                    + self.ffn_flops(1));
            total += self.lm_head_flops();
        }
        total
    }

    /// Number of weight parameters in the FC parts of one block (QKV + out
    /// projection + FFN), used for weight-traffic accounting in SpAtten-e2e.
    pub fn block_fc_params(&self) -> u64 {
        let h = self.hidden as u64;
        let f = self.ffn as u64;
        4 * h * h + 2 * h * f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_shapes() {
        let b = ModelConfig::bert_base();
        assert_eq!((b.layers, b.heads, b.hidden, b.ffn), (12, 12, 768, 3072));
        assert_eq!(b.head_dim(), 64);
        let g = ModelConfig::gpt2_medium();
        assert_eq!((g.layers, g.heads, g.hidden, g.ffn), (24, 16, 1024, 4096));
        assert_eq!(g.head_dim(), 64);
    }

    #[test]
    fn attention_is_small_fraction_of_total_flops_short_seq() {
        // Paper §II-B: attention is ~10% of FLOPs for typical lengths.
        let cfg = ModelConfig::gpt2_small();
        let len = 320;
        let attn = cfg.layers as u64 * cfg.attention_core_flops(len, len, cfg.heads);
        let total = cfg.summarize_flops(len);
        let frac = attn as f64 / total as f64;
        assert!(frac > 0.02 && frac < 0.2, "attention fraction {frac}");
    }

    #[test]
    fn attention_fraction_grows_with_length() {
        let cfg = ModelConfig::gpt2_small();
        let frac = |len: usize| {
            let attn = cfg.layers as u64 * cfg.attention_core_flops(len, len, cfg.heads);
            attn as f64 / cfg.summarize_flops(len) as f64
        };
        assert!(frac(1024) > frac(128));
    }

    #[test]
    fn generation_flops_grow_with_context() {
        let cfg = ModelConfig::gpt2_small();
        assert!(cfg.generate_flops(992, 32) > cfg.generate_flops(128, 32));
    }

    #[test]
    fn gpt2_medium_table4_gflops_shape() {
        // Table IV: GPT-2-Medium, 992 context + 32 generated tokens:
        // FC ≈ 19.3 GFLOPs (85.6%), attention ≈ 3.3 GFLOPs (14.4%).
        let cfg = ModelConfig::gpt2_medium();
        let steps = 32;
        let context = 992;
        let mut attn = 0u64;
        for s in 0..steps {
            attn += cfg.layers as u64 * cfg.attention_core_flops(1, context + s + 1, cfg.heads);
        }
        let total = cfg.generate_flops(context, steps);
        let fc = total - attn;
        let fc_g = fc as f64 / 1e9;
        let attn_g = attn as f64 / 1e9;
        assert!(
            (15.0..25.0).contains(&fc_g),
            "FC GFLOPs {fc_g} (paper: 19.3)"
        );
        assert!(
            (2.0..5.0).contains(&attn_g),
            "attention GFLOPs {attn_g} (paper: 3.3)"
        );
    }

    #[test]
    fn pruned_heads_reduce_attention_flops_linearly() {
        let cfg = ModelConfig::bert_base();
        let full = cfg.attention_core_flops(64, 64, 12);
        let pruned = cfg.attention_core_flops(64, 64, 6);
        assert_eq!(full, pruned * 2);
    }
}
