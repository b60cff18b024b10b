//! Cycle-level hardware modules of the SpAtten accelerator (paper §IV).
//!
//! Each module mirrors one block of Figure 8 and carries both a *functional*
//! model (what data comes out) and a *timing* model (how many cycles it
//! takes at what parallelism):
//!
//! * [`zero_eliminator`] — the prefix-sum + log-stage shifter of Fig. 10.
//! * [`topk`] — the high-parallelism quick-select top-k engine of Fig. 9 /
//!   Algorithm 3, plus a Batcher sorting-network model it is compared
//!   against in §IV-B.
//! * [`mult_array`] — the 512-multiplier array with its reconfigurable
//!   adder tree (Fig. 11), shared by Q·Kᵀ and prob·V.
//! * [`softmax_unit`] — the dequantize → exp → normalize → requantize
//!   pipeline (Fig. 12) with Taylor-expansion exp.
//! * [`sram`] — K/V SRAMs with access counters for energy accounting.
//! * [`pipeline`] — composition of stage timings into end-to-end cycles for
//!   a fully pipelined datapath (elastic-buffer approximation).
//! * [`datapath`] — event-driven simulation of the same chain with
//!   *bounded* FIFOs and backpressure, validating the analytic model.
//! * [`sort_network`] — a functional Batcher odd–even merge network (the
//!   full-sorting baseline of §IV-B).

pub mod datapath;
pub mod mult_array;
pub mod pipeline;
pub mod softmax_unit;
pub mod sort_network;
pub mod sram;
pub mod topk;
pub mod zero_eliminator;

pub use datapath::{BufferedStage, EventDrivenPipeline, EventStats};
pub use mult_array::{AdderTreeConfig, MultArray};
pub use pipeline::{pipeline_cycles, StageTiming};
pub use softmax_unit::SoftmaxUnit;
pub use sort_network::OddEvenMergeNetwork;
pub use sram::Sram;
pub use topk::{BatcherSorter, TopkCost, TopkEngine, TopkResult};
pub use zero_eliminator::ZeroEliminator;
