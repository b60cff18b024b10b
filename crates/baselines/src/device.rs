//! Analytic CPU/GPU device models.
//!
//! The paper measures attention latency with PyTorch + cuDNN/MKL on four
//! platforms. Those measurements are not reproducible here, so each device
//! is modelled by its *effective* throughput on attention workloads plus a
//! per-layer framework overhead, both calibrated against numbers the paper
//! itself reports:
//!
//! | device | peak | effective attention (disc / gen) | source |
//! |---|---|---|---|
//! | TITAN Xp | 12.1 TFLOPS | 0.020 / 0.010 TFLOPS | Fig. 18 roofline points |
//! | Xeon E5-2640 | 0.7 TFLOPS | 0.0093 / 0.0047 | Fig. 14: ≈ 2.1× slower than TITAN Xp |
//! | Jetson Nano | 0.47 TFLOPS | 0.0030 / 0.0015 | Fig. 14: ≈ 6.7× slower |
//! | Raspberry Pi | 0.024 TFLOPS | 0.00064 / 0.00032 | Fig. 14: ≈ 31× slower |
//!
//! Dynamic power values are chosen so the paper's energy-efficiency ratios
//! (1193× / 4059× / 406× / 1910× vs. SpAtten's 8.3 W) reproduce.

use spatten_workloads::Workload;

/// Latency/energy of a baseline run.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineReport {
    /// Device name.
    pub device: String,
    /// Workload name.
    pub workload: String,
    /// Attention latency in seconds.
    pub latency_s: f64,
    /// Energy in joules (dynamic power × latency).
    pub energy_j: f64,
}

/// An analytic device model.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceModel {
    /// Device name.
    pub name: String,
    /// Peak compute, FLOP/s (for the roofline plot).
    pub peak_flops: f64,
    /// Peak memory bandwidth, bytes/s.
    pub peak_bandwidth: f64,
    /// Effective attention throughput on discriminative (batched) work.
    pub attn_disc_flops: f64,
    /// Effective attention throughput on generative (vector) work.
    pub attn_gen_flops: f64,
    /// Effective FC throughput (for end-to-end splits, Fig. 2/Table IV).
    pub fc_flops: f64,
    /// Per-layer framework overhead in seconds (kernel launches, reshapes).
    pub per_layer_overhead_s: f64,
    /// Dynamic power in watts while running attention.
    pub dynamic_power_w: f64,
}

impl DeviceModel {
    /// NVIDIA TITAN Xp (server GPU).
    pub fn titan_xp() -> Self {
        Self {
            name: "TITAN Xp".into(),
            peak_flops: 12.15e12,
            peak_bandwidth: 547.6e9,
            attn_disc_flops: 0.020e12,
            attn_gen_flops: 0.010e12,
            fc_flops: 0.050e12,
            per_layer_overhead_s: 18e-6,
            dynamic_power_w: 61.0,
        }
    }

    /// Intel Xeon E5-2640 v4 (server CPU).
    pub fn xeon() -> Self {
        Self {
            name: "Xeon E5-2640".into(),
            peak_flops: 0.7e12,
            peak_bandwidth: 68e9,
            attn_disc_flops: 0.0093e12,
            attn_gen_flops: 0.0047e12,
            fc_flops: 0.025e12,
            per_layer_overhead_s: 40e-6,
            dynamic_power_w: 97.0,
        }
    }

    /// NVIDIA Jetson Nano (mobile GPU).
    pub fn nano() -> Self {
        Self {
            name: "Jetson Nano".into(),
            peak_flops: 0.472e12,
            peak_bandwidth: 25.6e9,
            attn_disc_flops: 0.0030e12,
            attn_gen_flops: 0.0015e12,
            fc_flops: 0.008e12,
            per_layer_overhead_s: 120e-6,
            dynamic_power_w: 3.1,
        }
    }

    /// Raspberry Pi 4 ARM A53 (mobile CPU).
    pub fn raspberry_pi() -> Self {
        Self {
            name: "Raspberry Pi ARM".into(),
            peak_flops: 0.024e12,
            peak_bandwidth: 4e9,
            attn_disc_flops: 0.00064e12,
            attn_gen_flops: 0.00032e12,
            fc_flops: 0.002e12,
            per_layer_overhead_s: 400e-6,
            dynamic_power_w: 3.1,
        }
    }

    /// The four baseline devices in the paper's comparison order.
    pub fn all() -> Vec<DeviceModel> {
        vec![
            Self::titan_xp(),
            Self::xeon(),
            Self::nano(),
            Self::raspberry_pi(),
        ]
    }

    /// Dense attention FLOPs of a workload (what the device must compute —
    /// baselines cannot prune).
    pub fn attention_flops(w: &Workload) -> u64 {
        let m = w.model;
        if w.gen_steps == 0 {
            (m.layers as u64) * m.attention_core_flops(w.seq_len, w.seq_len, m.heads)
        } else {
            let mut total = 0u64;
            for s in 0..w.gen_steps {
                total += (m.layers as u64) * m.attention_core_flops(1, w.seq_len + s + 1, m.heads);
            }
            total
        }
    }

    /// Attention latency of a workload on this device.
    pub fn attention_latency(&self, w: &Workload) -> f64 {
        let flops = Self::attention_flops(w) as f64;
        let eff = if w.gen_steps == 0 {
            self.attn_disc_flops
        } else {
            self.attn_gen_flops
        };
        let invocations = if w.gen_steps == 0 {
            w.model.layers as f64
        } else {
            (w.model.layers * w.gen_steps) as f64
        };
        flops / eff + invocations * self.per_layer_overhead_s
    }

    /// FC (QKV projections + FFN + LM head) latency of a workload.
    pub fn fc_latency(&self, w: &Workload) -> f64 {
        let m = w.model;
        let fc_flops = if w.gen_steps == 0 {
            (m.layers as u64)
                * (m.qkv_fc_flops(w.seq_len) + m.out_fc_flops(w.seq_len) + m.ffn_flops(w.seq_len))
        } else {
            let per_step = (m.layers as u64)
                * (m.qkv_fc_flops(1) + m.out_fc_flops(1) + m.ffn_flops(1))
                + m.lm_head_flops();
            per_step * w.gen_steps as u64
        };
        fc_flops as f64 / self.fc_flops
    }

    /// Full baseline report for a workload's attention layers.
    pub fn run(&self, w: &Workload) -> BaselineReport {
        let latency_s = self.attention_latency(w);
        BaselineReport {
            device: self.name.clone(),
            workload: w.name.clone(),
            latency_s,
            energy_j: latency_s * self.dynamic_power_w,
        }
    }

    /// End-to-end latency split `(attention_s, fc_s)` — the Fig. 2 /
    /// Table IV decomposition.
    pub fn end_to_end_split(&self, w: &Workload) -> (f64, f64) {
        (self.attention_latency(w), self.fc_latency(w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatten_workloads::Benchmark;

    #[test]
    fn attention_is_half_of_gpt2_end_to_end_on_gpu() {
        // Fig. 2: attention ≈ 50 % of end-to-end GPT-2 latency on TITAN Xp.
        let w = Benchmark::by_id("gpt2-medium-wikitext2")
            .unwrap()
            .workload();
        let gpu = DeviceModel::titan_xp();
        let (attn, fc) = gpu.end_to_end_split(&w);
        let share = attn / (attn + fc);
        assert!((0.35..0.65).contains(&share), "attention share {share}");
    }

    #[test]
    fn table4_gpu_fc_and_attention_latency_shape() {
        // Table IV (GPT-2-Medium, GPU): FC 388 ms, attention 367 ms.
        let w = Benchmark::by_id("gpt2-medium-wikitext2")
            .unwrap()
            .workload();
        let gpu = DeviceModel::titan_xp();
        let (attn, fc) = gpu.end_to_end_split(&w);
        assert!(
            (0.15..0.8).contains(&attn),
            "attention {attn} s (paper 0.367)"
        );
        assert!((0.15..0.8).contains(&fc), "FC {fc} s (paper 0.388)");
    }

    #[test]
    fn device_ordering_matches_fig14() {
        // GPU < Xeon < Nano < Pi on every benchmark.
        let w = Benchmark::bert_base_sst2().workload();
        let l: Vec<f64> = DeviceModel::all()
            .iter()
            .map(|d| d.attention_latency(&w))
            .collect();
        assert!(l[0] < l[1] && l[1] < l[2] && l[2] < l[3], "{l:?}");
    }

    #[test]
    fn generation_is_slower_per_flop_than_summarization() {
        let gpu = DeviceModel::titan_xp();
        let bert = Benchmark::bert_base_sst2().workload();
        let gpt2 = Benchmark::gpt2_small_wikitext2().workload();
        let bert_rate = DeviceModel::attention_flops(&bert) as f64 / gpu.attention_latency(&bert);
        let gpt2_rate = DeviceModel::attention_flops(&gpt2) as f64 / gpu.attention_latency(&gpt2);
        assert!(bert_rate > gpt2_rate);
    }

    #[test]
    fn gpt2_attention_latency_is_hundreds_of_ms_on_gpu() {
        // Paper: a 30-token GPT-2 generation takes ~370 ms end-to-end on
        // TITAN Xp, half of it attention.
        let w = Benchmark::gpt2_small_wikitext2().workload();
        let gpu = DeviceModel::titan_xp();
        let lat = gpu.attention_latency(&w);
        assert!((0.05..1.0).contains(&lat), "latency {lat} s");
    }

    #[test]
    fn energy_is_power_times_latency() {
        let w = Benchmark::bert_base_sst2().workload();
        let d = DeviceModel::xeon();
        let r = d.run(&w);
        assert!((r.energy_j - r.latency_s * 97.0).abs() < 1e-12);
    }
}
