//! Pure-Rust transformer substrate for the SpAtten reproduction.
//!
//! SpAtten is evaluated on attention layers of BERT (discriminative,
//! summarization stage only) and GPT-2 (generative, summarization +
//! generation stages). This crate implements that model family from scratch:
//!
//! * [`matrix`] — a minimal row-major `f32` matrix with the linear algebra
//!   the models need.
//! * [`ops`] — softmax rows, layer normalization, GELU, causal masking.
//! * [`config`] — model shape presets (BERT-Base/Large, GPT-2-Small/Medium
//!   and scaled-down functional variants) plus FLOP accounting.
//! * [`attention`] — multi-head attention (Algorithm 1 of the paper) with
//!   per-head attention-probability capture and a KV cache for the
//!   generation stage.
//! * [`block`] — the full transformer block (attention + residual + layer
//!   norm + feed-forward network).
//! * [`model`] — end-to-end models with embedding, blocks and
//!   classification/LM heads, supporting *pruned* execution: an
//!   `AttentionObserver` hooks may remove tokens
//!   and heads after every layer, exactly like SpAtten's cascade pruning.
//! * [`train`] — manual backprop + Adam for a tiny transformer, used to
//!   produce genuine accuracy-vs-pruning-ratio curves (paper Fig. 21).
//!
//! The crate is deterministic: all weight initialization is seeded.

pub mod attention;
pub mod block;
pub mod config;
pub mod matrix;
pub mod model;
pub mod observer;
pub mod ops;
pub mod train;

pub use attention::{AttentionRecord, KvCache, MultiHeadAttention};
pub use block::TransformerBlock;
pub use config::{ModelConfig, ModelKind, Stage};
pub use matrix::Matrix;
pub use model::{Model, ModelOutput};
pub use observer::{ActiveSet, AttentionObserver, LayerRecord, NoPruning};
