//! # spatten
//!
//! A from-scratch Rust reproduction of **SpAtten: Efficient Sparse Attention
//! Architecture with Cascade Token and Head Pruning** (Wang, Zhang & Han,
//! HPCA 2021).
//!
//! This facade crate re-exports the workspace crates so that examples and
//! downstream users can depend on a single crate:
//!
//! * [`quant`] — fixed-point arithmetic, linear symmetric quantization and
//!   the MSB/LSB bit-plane layout used by progressive quantization.
//! * [`nn`] — a pure-Rust transformer substrate (BERT/GPT-2 shapes, forward
//!   pass with attention-probability capture, KV cache, and a trainable tiny
//!   transformer for accuracy experiments).
//! * [`hbm`] — an HBM2 DRAM model (16 channels, row-buffer policy, energy).
//! * [`arch`] — cycle-level hardware modules: top-k engine, zero eliminator,
//!   multiplier arrays with reconfigurable adder trees, softmax pipeline,
//!   SRAMs, and pipeline timing with bounded FIFOs.
//! * [`energy`] — energy/area/power accounting.
//! * [`workloads`] — the 30-benchmark registry and synthetic text generators.
//! * [`core`] — the SpAtten accelerator model itself: cascade token/head
//!   pruning, local value pruning, progressive quantization control and the
//!   end-to-end (FFN-capable) variant.
//! * [`baselines`] — A3, MNNFast and analytic GPU/CPU device models.
//! * [`serve`] — the trace-driven multi-accelerator serving simulator:
//!   continuous batching, KV-aware scheduling and tail-latency reporting.
//! * [`cluster`] — sharded multi-chip execution: interconnect model,
//!   tensor/pipeline parallelism and heterogeneous-fleet placement.
//!
//! # Quick start
//!
//! ```
//! use spatten::core::{Accelerator, SpAttenConfig};
//! use spatten::workloads::Benchmark;
//!
//! let bench = Benchmark::bert_base_sst2();
//! let accel = Accelerator::new(SpAttenConfig::default());
//! let report = accel.run(&bench.workload());
//! assert!(report.total_cycles > 0);
//! ```

pub use spatten_arch as arch;
pub use spatten_baselines as baselines;
pub use spatten_cluster as cluster;
pub use spatten_core as core;
pub use spatten_energy as energy;
pub use spatten_hbm as hbm;
pub use spatten_nn as nn;
pub use spatten_quant as quant;
pub use spatten_serve as serve;
pub use spatten_workloads as workloads;
