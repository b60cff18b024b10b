//! Benchmark registry and synthetic workload generators.
//!
//! The paper evaluates 30 benchmarks: BERT-Base and BERT-Large on the nine
//! GLUE tasks plus SQuAD v1.1/v2.0 (22 discriminative), and GPT-2-Small and
//! GPT-2-Medium on WikiText-2, WikiText-103, Penn Tree Bank and the One
//! Billion Word corpus (8 generative). The real datasets are unavailable
//! here, but the accelerator's behaviour depends on the *shape* of each
//! benchmark — model dimensions, sequence length, pruning ratios,
//! quantization scheme — which this crate reproduces per task, together
//! with seeded synthetic token streams standing in for dataset text.
//!
//! * [`registry`] — the 30 [`Benchmark`]s with per-task parameters.
//! * [`spec`] — pruning/quantization policy descriptions
//!   ([`PruningSpec`], [`QuantPolicy`]) interpreted by `spatten-core`.
//! * [`synth`] — Zipfian token streams and controllable-peakedness
//!   attention-probability generators.
//! * [`text`] — small canned sentences (Fig. 22-style) with a toy
//!   word-level tokenizer for the interpretability demos.
//! * [`trace`] — serving traces: request classes, open-loop Poisson,
//!   bursty MMPP and closed-loop arrival processes, consumed by
//!   `spatten-serve`.
//! * [`fleet`] — fleet/topology descriptions ([`FleetSpec`]): chip
//!   classes and interconnect shape for cluster scenarios
//!   (`spatten-cluster`), plus the pool-role and link vocabulary that
//!   `spatten-serve`'s pool and elasticity specs build on.

pub mod fleet;
pub mod registry;
pub mod spec;
pub mod synth;
pub mod text;
pub mod trace;

pub use fleet::{ChipClass, FleetSpec, LinkSpec, PoolRole, TopologySpec};
pub use registry::{Benchmark, TaskKind};
pub use spec::{PruningSpec, QuantPolicy, Workload};
pub use synth::{synthetic_probs, zipf_tokens};
pub use text::{ExampleSentence, Vocabulary};
pub use trace::{ArrivalSpec, RequestClass, Trace, TraceRequest, TraceSpec};
