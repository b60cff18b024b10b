//! The SpAtten accelerator model — the paper's primary contribution.
//!
//! SpAtten (HPCA 2021) is an algorithm-architecture co-design for sparse,
//! quantized attention. This crate ties the substrates together into the
//! complete system:
//!
//! * [`importance`] — cumulative token/head importance scores (Algorithm 2).
//! * [`pruner`] — [`CascadePruner`], an
//!   [`AttentionObserver`](spatten_nn::AttentionObserver) implementing
//!   cascade token pruning, cascade head pruning and the per-layer keep
//!   schedule; drives real model forward passes for the accuracy and
//!   interpretability experiments.
//! * [`progressive`] — the progressive-quantization controller (MSB-first
//!   fetch, max-probability comparator, LSB refetch).
//! * [`perf`] — the cycle-level performance model: walks a workload layer
//!   by layer, head by head through the `spatten-arch` modules and the
//!   `spatten-hbm` memory system and produces a [`RunReport`].
//! * [`accelerator`] — [`Accelerator`] (configuration + entry points) and
//!   [`SpAttenConfig`] (Table I defaults, ablation switches, the 1/8-scale
//!   variant of Table III).
//! * [`e2e`] — SpAtten-e2e: the FFN/FC extension used for end-to-end
//!   GPT-2 comparisons (Fig. 15, Table IV).
//! * [`interpret`] — token-level pruning traces for the Fig. 22/23
//!   visualizations.
//! * [`ablation`] — the Fig. 20 technique-by-technique ladder as an API.
//! * [`roofline`] — operational-intensity analysis (Fig. 18).

pub mod ablation;
pub mod accelerator;
pub mod e2e;
pub mod importance;
pub mod interpret;
pub mod perf;
pub mod progressive;
pub mod pruner;
pub mod roofline;

pub use ablation::{ladder, run_rung, Rung};
pub use accelerator::{Accelerator, SpAttenConfig};
pub use e2e::{E2eReport, SpAttenE2e};
pub use importance::ImportanceAccumulator;
pub use interpret::{PruningTrace, TokenFate};
pub use perf::{
    decode_step_cost, decode_step_cost_heads, decode_step_cost_layers, prefill_cost,
    prefill_cost_heads, prefill_cost_layers, shard_heads, surviving_tokens, ModuleCycles,
    RunReport, StepCost,
};
pub use progressive::ProgressiveController;
pub use pruner::CascadePruner;
pub use roofline::RooflinePoint;
