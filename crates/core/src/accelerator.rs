//! The accelerator façade: configuration (Table I) and entry points.

use crate::perf::{simulate, RunReport};
use spatten_hbm::HbmConfig;
use spatten_workloads::Workload;

/// SpAtten hardware configuration.
///
/// Defaults reproduce Table I: two 512-multiplier arrays (Q·K and prob·V),
/// a 16-comparator top-k engine, softmax parallelism 8, 196 KB K/V SRAMs,
/// 16-channel HBM2 at 512 GB/s, 1 GHz core clock. The pruning switches
/// exist for the Fig. 20 ablation ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpAttenConfig {
    /// Multipliers in *each* of the Q·K and prob·V arrays.
    pub multipliers_per_array: usize,
    /// Comparators per array in the top-k engine.
    pub topk_parallelism: usize,
    /// Exponentials per cycle in the softmax unit.
    pub softmax_parallelism: usize,
    /// K (and V) SRAM size in bytes (double-buffered).
    pub kv_sram_bytes: u64,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// HBM configuration, expressed in *core-clock* cycles (32 B/cycle per
    /// channel at 1 GHz core ⇔ 32 GB/s per channel).
    pub hbm: HbmConfig,
    /// Cascade token pruning enabled.
    pub token_pruning: bool,
    /// Cascade head pruning enabled.
    pub head_pruning: bool,
    /// Local value pruning enabled.
    pub local_value_pruning: bool,
}

impl Default for SpAttenConfig {
    fn default() -> Self {
        Self {
            multipliers_per_array: 512,
            topk_parallelism: 16,
            softmax_parallelism: 8,
            kv_sram_bytes: 196 * 1024,
            clock_ghz: 1.0,
            hbm: HbmConfig {
                channels: 16,
                bytes_per_cycle: 32, // 32 GB/s per channel at 1 GHz core
                interleave_bytes: 32,
                row_bytes: 1024,
                activation_cycles: 14,
                clock_ghz: 1.0,
            },
            token_pruning: true,
            head_pruning: true,
            local_value_pruning: true,
        }
    }
}

impl SpAttenConfig {
    /// The 1/8-scale variant of Table III: 128 multipliers in total
    /// (64 per array) and 64 GB/s of DRAM bandwidth (two channels), for
    /// apples-to-apples comparison with A3 and MNNFast.
    pub fn eighth() -> Self {
        let base = Self::default();
        Self {
            multipliers_per_array: 64,
            hbm: spatten_hbm::HbmConfig {
                channels: 2,
                ..base.hbm
            },
            ..base
        }
    }

    /// Disables every SpAtten technique: the plain pipelined datapath used
    /// as the first rung of the Fig. 20 ablation ladder.
    pub fn datapath_only(mut self) -> Self {
        self.token_pruning = false;
        self.head_pruning = false;
        self.local_value_pruning = false;
        self
    }

    /// Peak compute throughput in FLOP/s (two arrays, 2 FLOPs per MAC).
    pub fn peak_flops(&self) -> f64 {
        2.0 * 2.0 * self.multipliers_per_array as f64 * self.clock_ghz * 1e9
    }

    /// Peak DRAM bandwidth in bytes/s.
    pub fn peak_bandwidth(&self) -> f64 {
        self.hbm.channels as f64 * self.hbm.bytes_per_cycle as f64 * self.clock_ghz * 1e9
    }
}

/// The SpAtten accelerator.
#[derive(Debug, Clone, Default)]
pub struct Accelerator {
    config: SpAttenConfig,
}

impl Accelerator {
    /// An accelerator with the given configuration.
    pub fn new(config: SpAttenConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> SpAttenConfig {
        self.config
    }

    /// Runs one workload through the cycle-level model.
    pub fn run(&self, workload: &Workload) -> RunReport {
        simulate(&self.config, workload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = SpAttenConfig::default();
        assert_eq!(c.multipliers_per_array, 512);
        assert_eq!(c.topk_parallelism, 16);
        assert_eq!(c.softmax_parallelism, 8);
        assert_eq!(c.kv_sram_bytes, 196 * 1024);
        assert!((c.peak_flops() - 2.048e12).abs() < 1e9); // 2 TFLOPS roof
        assert!((c.peak_bandwidth() - 512e9).abs() < 1e6); // 512 GB/s roof
    }

    #[test]
    fn eighth_scale_matches_table3_resources() {
        let c = SpAttenConfig::eighth();
        assert_eq!(2 * c.multipliers_per_array, 128); // 128 total
        assert!((c.peak_bandwidth() - 64e9).abs() < 1e6);
        assert!((c.peak_flops() - 256e9).abs() < 1e6);
    }

    #[test]
    fn datapath_only_disables_pruning() {
        let c = SpAttenConfig::default().datapath_only();
        assert!(!c.token_pruning && !c.head_pruning && !c.local_value_pruning);
    }
}
