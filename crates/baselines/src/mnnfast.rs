//! The MNNFast accelerator model (Jang et al., ISCA 2019).
//!
//! MNNFast prunes V vectors whose attention probability falls under a
//! threshold — local value pruning only. Like A3 it must fetch everything
//! from DRAM before it can decide what to skip, so it cannot accelerate
//! memory-bounded generative models, and it does not touch the Q·K work at
//! all. The paper reproduces MNNFast on a simulator at matched resources
//! (Table III: 120 GOP/s effective at 128 multipliers / 64 GB/s; originally
//! a Zynq-7020 FPGA design, optimistically scaled to 1 W as an ASIC).

use crate::device::BaselineReport;
use spatten_workloads::Workload;

/// MNNFast at Table III resources.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MnnFastModel {
    /// MACs retired per cycle. MNNFast is a Zynq-7020 FPGA design projected
    /// to 1 GHz; the paper's reproduced simulator lands at 120 GOP/s
    /// effective, which at its V-pruning work saving corresponds to
    /// ≈ 48 MACs/cycle of sustained utilization on 128 multipliers.
    pub macs_per_cycle: u64,
    /// DRAM bandwidth in bytes per cycle.
    pub bytes_per_cycle: u64,
    /// Clock in GHz.
    pub clock_ghz: f64,
    /// Fraction of V rows kept after threshold pruning.
    pub v_keep_fraction: f64,
    /// Per-query pipeline bubble in cycles (threshold pass is not fully
    /// overlapped in the original design).
    pub per_query_bubble: u64,
    /// Dynamic power in watts (paper's optimistic ASIC estimate).
    pub dynamic_power_w: f64,
}

impl Default for MnnFastModel {
    fn default() -> Self {
        Self {
            macs_per_cycle: 48,
            bytes_per_cycle: 64,
            clock_ghz: 1.0,
            v_keep_fraction: 0.6,
            per_query_bubble: 8,
            dynamic_power_w: 1.0,
        }
    }
}

impl MnnFastModel {
    /// Attention latency, or `None` for generative workloads.
    pub fn attention_latency(&self, w: &Workload) -> Option<f64> {
        if w.gen_steps > 0 {
            return None;
        }
        let m = w.model;
        let d = m.head_dim() as u64;
        let l = w.seq_len as u64;
        let heads = m.heads as u64;
        let layers = m.layers as u64;

        let mut cycles = 0u64;
        for _ in 0..layers {
            // Full Q·K; V work reduced by the kept fraction.
            let qk_macs = l * l * d;
            let pv_macs = ((l * l * d) as f64 * self.v_keep_fraction).ceil() as u64;
            let compute = (qk_macs + pv_macs).div_ceil(self.macs_per_cycle);
            let bubbles = l * self.per_query_bubble;
            let dram = (3 * l * (m.hidden as u64) * 2).div_ceil(self.bytes_per_cycle);
            cycles += (heads * compute + bubbles).max(dram);
        }
        Some(cycles as f64 / (self.clock_ghz * 1e9))
    }

    /// Effective throughput in GOP/s (dense-equivalent ops / time).
    pub fn effective_gops(&self, w: &Workload) -> Option<f64> {
        let latency = self.attention_latency(w)?;
        let m = w.model;
        let dense_ops = (m.layers as u64) * m.attention_core_flops(w.seq_len, w.seq_len, m.heads);
        Some(dense_ops as f64 / latency / 1e9)
    }

    /// Baseline report (discriminative workloads only).
    pub fn run(&self, w: &Workload) -> Option<BaselineReport> {
        let latency_s = self.attention_latency(w)?;
        Some(BaselineReport {
            device: "MNNFast".into(),
            workload: w.name.clone(),
            latency_s,
            energy_j: latency_s * self.dynamic_power_w,
        })
    }

    /// Whether a workload is supported.
    pub fn supports(&self, w: &Workload) -> bool {
        w.gen_steps == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::a3::A3Model;
    use spatten_workloads::Benchmark;

    #[test]
    fn rejects_generative_workloads() {
        let w = Benchmark::gpt2_small_wikitext2().workload();
        assert!(MnnFastModel::default().attention_latency(&w).is_none());
    }

    #[test]
    fn slower_than_a3_on_long_inputs() {
        // Table III: A3 is 1.8× MNNFast in effective throughput.
        let w = Benchmark::by_id("bert-base-squad-v1").unwrap().workload();
        let mnn = MnnFastModel::default().effective_gops(&w).unwrap();
        let a3 = A3Model::default().effective_gops(&w).unwrap();
        let ratio = a3 / mnn;
        assert!((1.2..2.6).contains(&ratio), "A3/MNNFast ratio {ratio}");
    }

    #[test]
    fn effective_gops_near_table3() {
        // Table III: 120 GOP/s.
        let w = Benchmark::by_id("bert-base-squad-v1").unwrap().workload();
        let gops = MnnFastModel::default().effective_gops(&w).unwrap();
        assert!(
            (60.0..250.0).contains(&gops),
            "MNNFast effective {gops} GOP/s (paper: 120)"
        );
    }

    #[test]
    fn local_v_pruning_helps_vs_no_pruning() {
        let w = Benchmark::by_id("bert-base-mrpc").unwrap().workload();
        let pruned = MnnFastModel::default().attention_latency(&w).unwrap();
        let dense = MnnFastModel {
            v_keep_fraction: 1.0,
            ..MnnFastModel::default()
        }
        .attention_latency(&w)
        .unwrap();
        assert!(pruned < dense);
    }
}
