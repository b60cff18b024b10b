//! SpAtten-e2e: the end-to-end extension with FC/FFN support (paper §V-B,
//! Fig. 15 and Table IV).
//!
//! SpAtten proper is an attention co-processor; for end-to-end comparisons
//! the paper extends it to run the FC parts of each block by *reusing the
//! multiplier arrays*, with weights linear-symmetrically quantized to 8 or
//! 12 bits in DRAM. In the generation stage every FC is a matrix-vector
//! product, so e2e performance is bounded by weight traffic — exactly the
//! regime Table IV reports (FC ≈ 92 % of SpAtten-e2e latency).

use crate::accelerator::{Accelerator, SpAttenConfig};
use crate::perf::{RunReport, StepCost};
use spatten_workloads::Workload;

/// End-to-end run results: attention + FC.
#[derive(Debug, Clone)]
pub struct E2eReport {
    /// The attention-only report.
    pub attention: RunReport,
    /// Cycles spent on FC work (QKV/out projections, FFN, LM head).
    pub fc_cycles: u64,
    /// DRAM bytes moved for FC weights.
    pub fc_bytes: u64,
    /// FLOPs performed by the FC parts.
    pub fc_flops: u64,
    /// FC weight bitwidth used (8 or 12).
    pub fc_weight_bits: u32,
}

impl E2eReport {
    /// Total end-to-end cycles (attention and FC time-multiplex the same
    /// arrays, so they serialize).
    pub fn total_cycles(&self) -> u64 {
        self.attention.total_cycles + self.fc_cycles
    }

    /// Wall-clock seconds.
    pub fn seconds(&self) -> f64 {
        self.total_cycles() as f64 / (self.attention.clock_ghz * 1e9)
    }

    /// Fraction of latency spent on FC (Table IV: ≈ 92 % on GPT-2-Medium).
    pub fn fc_latency_fraction(&self) -> f64 {
        self.fc_cycles as f64 / self.total_cycles() as f64
    }

    /// Fraction of FLOPs that are FC (Table IV: ≈ 95 %).
    pub fn fc_flop_fraction(&self) -> f64 {
        self.fc_flops as f64 / (self.fc_flops + self.attention.flops) as f64
    }
}

/// The end-to-end accelerator.
#[derive(Debug, Clone)]
pub struct SpAttenE2e {
    accel: Accelerator,
    fc_weight_bits: u32,
}

impl SpAttenE2e {
    /// An e2e accelerator with FC weights quantized to `fc_weight_bits`
    /// (the paper evaluates 8 and 12).
    ///
    /// # Panics
    ///
    /// Panics if the bitwidth is outside `4..=16`.
    pub fn new(config: SpAttenConfig, fc_weight_bits: u32) -> Self {
        assert!(
            (4..=16).contains(&fc_weight_bits),
            "FC weight bits must be in 4..=16"
        );
        Self {
            accel: Accelerator::new(config),
            fc_weight_bits,
        }
    }

    /// The underlying configuration.
    pub fn config(&self) -> SpAttenConfig {
        self.accel.config()
    }

    /// FC (QKV/out projection + FFN) cost of the summarization pass over
    /// `w.seq_len` tokens: weights fetched once per layer, reused across
    /// tokens. The serving layer adds this to the attention prefill cost
    /// for end-to-end per-job accounting.
    pub fn fc_prefill_cost(&self, w: &Workload) -> StepCost {
        self.fc_prefill(w).step
    }

    /// FC cost of generating one token: a matrix-vector product per layer
    /// (weights refetched every step — the memory-bound regime of Table IV)
    /// plus the LM head.
    pub fn fc_decode_cost(&self, w: &Workload) -> StepCost {
        self.fc_decode(w).step
    }

    /// FC cost of shard `way` of a `ways`-way tensor-parallel split of the
    /// summarization pass: FC/FFN weight matrices are column-split, so each
    /// shard streams and multiplies its share of the parameters. Shard
    /// parameter counts partition the unsharded totals exactly; the
    /// all-reduce that combines partial sums is charged by the interconnect
    /// model, not here.
    pub fn fc_prefill_cost_tp(&self, w: &Workload, way: usize, ways: usize) -> StepCost {
        let model = w.model;
        let mut total = FcCost::default();
        for _ in 0..model.layers {
            let params = split_share(model.block_fc_params(), way, ways);
            total.add(self.fc_unit(w.seq_len as u64 * params, params));
        }
        total.step
    }

    /// FC cost of shard `way` of a `ways`-way tensor-parallel split of one
    /// generated token (block FCs plus the vocabulary-split LM head).
    pub fn fc_decode_cost_tp(&self, w: &Workload, way: usize, ways: usize) -> StepCost {
        let model = w.model;
        let mut total = FcCost::default();
        for _ in 0..model.layers {
            let params = split_share(model.block_fc_params(), way, ways);
            total.add(self.fc_unit(params, params));
        }
        let lm = split_share((model.hidden as u64) * (model.vocab as u64), way, ways);
        total.add(self.fc_unit(lm, lm));
        total.step
    }

    /// FC cost of the pipeline stage owning `layers` during the
    /// summarization pass: each stage streams only its own layers' FC
    /// weights. Stage costs over a partition of `0..w.model.layers` sum to
    /// [`SpAttenE2e::fc_prefill_cost`] exactly.
    pub fn fc_prefill_cost_layers(&self, w: &Workload, layers: std::ops::Range<usize>) -> StepCost {
        let model = w.model;
        assert!(layers.end <= model.layers, "stage {layers:?} out of range");
        let mut total = FcCost::default();
        for _ in layers {
            total.add(self.fc_unit(
                w.seq_len as u64 * model.block_fc_params(),
                model.block_fc_params(),
            ));
        }
        total.step
    }

    /// FC cost of the pipeline stage owning `layers` for one generated
    /// token. The LM head belongs to the last stage (the one whose range
    /// ends at `w.model.layers`).
    pub fn fc_decode_cost_layers(&self, w: &Workload, layers: std::ops::Range<usize>) -> StepCost {
        let model = w.model;
        assert!(layers.end <= model.layers, "stage {layers:?} out of range");
        let last_stage = layers.end == model.layers;
        let mut total = FcCost::default();
        for _ in layers {
            total.add(self.fc_unit(model.block_fc_params(), model.block_fc_params()));
        }
        if last_stage {
            let lm_params = (model.hidden as u64) * (model.vocab as u64);
            total.add(self.fc_unit(lm_params, lm_params));
        }
        total.step
    }

    /// One FC unit: `macs` multiply-accumulates against `params` weight
    /// parameters streamed from DRAM at this accelerator's bandwidth.
    fn fc_unit(&self, macs: u64, params: u64) -> FcCost {
        let cfg = self.accel.config();
        let bits = u64::from(self.fc_weight_bits);
        let total_mults = 2 * cfg.multipliers_per_array as u64; // both arrays reused
        let bw_per_cycle = cfg.hbm.channels as u64 * cfg.hbm.bytes_per_cycle;
        let weight_bytes = (params * bits).div_ceil(8);
        let compute = macs.div_ceil(total_mults);
        let dram = weight_bytes.div_ceil(bw_per_cycle);
        FcCost {
            step: StepCost {
                compute_cycles: compute,
                dram_cycles: dram,
                weight_dram_cycles: dram,
                serial_cycles: compute.max(dram),
            },
            bytes: weight_bytes,
            flops: 2 * macs,
        }
    }

    /// All FC work of one summarization pass (every layer's block FCs).
    fn fc_prefill(&self, w: &Workload) -> FcCost {
        let model = w.model;
        let mut total = FcCost::default();
        for _ in 0..model.layers {
            total.add(self.fc_unit(
                w.seq_len as u64 * model.block_fc_params(),
                model.block_fc_params(),
            ));
        }
        total
    }

    /// All FC work of one generated token (matrix-vector block FCs in every
    /// layer, plus the LM head).
    fn fc_decode(&self, w: &Workload) -> FcCost {
        let model = w.model;
        let mut total = FcCost::default();
        for _ in 0..model.layers {
            total.add(self.fc_unit(model.block_fc_params(), model.block_fc_params()));
        }
        let lm_params = (model.hidden as u64) * (model.vocab as u64);
        total.add(self.fc_unit(lm_params, lm_params));
        total
    }

    /// Runs a workload end to end.
    pub fn run(&self, w: &Workload) -> E2eReport {
        let attention = self.accel.run(w);
        let mut fc = FcCost::default();

        // Summarization FCs: weights fetched once per layer, reused across
        // all tokens. Only measured for discriminative tasks — generative
        // benchmarks report the generation stage, as in the paper (§V-A).
        if w.gen_steps == 0 {
            fc.add(self.fc_prefill(w));
        }

        // Generation: matrix-vector FCs; weights refetched every step.
        for _ in 0..w.gen_steps {
            fc.add(self.fc_decode(w));
        }

        E2eReport {
            attention,
            fc_cycles: fc.step.serial_cycles,
            fc_bytes: fc.bytes,
            fc_flops: fc.flops,
            fc_weight_bits: self.fc_weight_bits,
        }
    }
}

/// Shard `way`'s share of `total` columns under a `ways`-way split —
/// [`crate::perf::shard_heads`]'s exact deal-out partition, at parameter
/// counts instead of head counts.
fn split_share(total: u64, way: usize, ways: usize) -> u64 {
    crate::perf::shard_heads(
        usize::try_from(total).expect("parameter count fits usize"),
        way,
        ways,
    ) as u64
}

/// FC cost with the byte/FLOP accounting `E2eReport` needs on top of the
/// serving layer's [`StepCost`].
#[derive(Debug, Clone, Copy, Default)]
struct FcCost {
    step: StepCost,
    bytes: u64,
    flops: u64,
}

impl FcCost {
    fn add(&mut self, other: FcCost) {
        self.step.add(other.step);
        self.bytes += other.bytes;
        self.flops += other.flops;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatten_workloads::Benchmark;

    fn e2e(bits: u32) -> SpAttenE2e {
        SpAttenE2e::new(SpAttenConfig::default(), bits)
    }

    #[test]
    fn fc_dominates_gpt2_generation_latency() {
        // Table IV: FC ≈ 92.4 % of SpAtten-e2e latency on GPT-2-Medium.
        let b = Benchmark::by_id("gpt2-medium-wikitext2").unwrap();
        let r = e2e(8).run(&b.workload());
        let frac = r.fc_latency_fraction();
        assert!((0.7..0.99).contains(&frac), "FC latency fraction {frac}");
    }

    #[test]
    fn fc_flop_share_matches_table4() {
        // Table IV: FC ≈ 95.5 % of FLOPs for SpAtten-e2e (pruned attention).
        let b = Benchmark::by_id("gpt2-medium-wikitext2").unwrap();
        let r = e2e(8).run(&b.workload());
        let frac = r.fc_flop_fraction();
        assert!((0.85..0.99).contains(&frac), "FC FLOP fraction {frac}");
    }

    #[test]
    fn eight_bit_weights_beat_twelve_bit() {
        // Fig. 15: 8-bit FC SpAtten-e2e is ~1.45× faster than 12-bit on
        // memory-bound generation.
        let b = Benchmark::by_id("gpt2-medium-ptb").unwrap();
        let w = b.workload();
        let r8 = e2e(8).run(&w);
        let r12 = e2e(12).run(&w);
        let ratio = r12.total_cycles() as f64 / r8.total_cycles() as f64;
        assert!(
            (1.15..1.6).contains(&ratio),
            "8-bit vs 12-bit ratio {ratio}"
        );
    }

    #[test]
    fn fc_gflops_match_table4_shape() {
        // Table IV: ~19.3 GFLOPs FC for GPT-2-Medium @ 992+32.
        let b = Benchmark::by_id("gpt2-medium-wikitext2").unwrap();
        let r = e2e(8).run(&b.workload());
        let g = r.fc_flops as f64 / 1e9;
        assert!((14.0..27.0).contains(&g), "FC GFLOPs {g}");
    }

    #[test]
    #[should_panic(expected = "FC weight bits")]
    fn silly_bitwidth_rejected() {
        let _ = SpAttenE2e::new(SpAttenConfig::default(), 2);
    }
}
