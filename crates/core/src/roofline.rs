//! Roofline analysis (paper Fig. 18).
//!
//! SpAtten's computation roof is 2 TFLOPS (1024 multipliers at 1 GHz) and
//! its bandwidth roof 512 GB/s. BERT sits in the compute-bound region
//! (achieving 1.61 TFLOPS in the paper), GPT-2 generation in the
//! memory-bound region (0.43 TFLOPS).

use crate::accelerator::SpAttenConfig;
use crate::perf::RunReport;

/// One point on the roofline plot.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflinePoint {
    /// Workload name.
    pub name: String,
    /// Operational intensity (FLOPs / DRAM byte).
    pub intensity: f64,
    /// Achieved TFLOP/s.
    pub achieved_tflops: f64,
    /// The roof at this intensity, TFLOP/s.
    pub roof_tflops: f64,
}

impl RooflinePoint {
    /// Builds the point for a run under a configuration.
    pub fn from_report(cfg: &SpAttenConfig, report: &RunReport) -> Self {
        let intensity = report.operational_intensity();
        Self {
            name: report.workload.clone(),
            intensity,
            achieved_tflops: report.tflops(),
            roof_tflops: roof_tflops(cfg, intensity),
        }
    }

    /// Whether the workload sits in the memory-bound region (the bandwidth
    /// roof is below the computation roof at its intensity).
    pub fn is_memory_bound(&self, cfg: &SpAttenConfig) -> bool {
        self.intensity * cfg.peak_bandwidth() < cfg.peak_flops()
    }

    /// Fraction of the roof actually achieved.
    pub fn roof_utilization(&self) -> f64 {
        self.achieved_tflops / self.roof_tflops
    }
}

/// The roofline: `min(compute roof, bandwidth × intensity)` in TFLOP/s.
pub fn roof_tflops(cfg: &SpAttenConfig, intensity: f64) -> f64 {
    (cfg.peak_flops().min(cfg.peak_bandwidth() * intensity)) / 1e12
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accelerator::Accelerator;
    use spatten_workloads::Benchmark;

    #[test]
    fn roof_is_min_of_two_bounds() {
        let cfg = SpAttenConfig::default();
        // Very low intensity: bandwidth-limited.
        assert!((roof_tflops(&cfg, 0.5) - 0.256).abs() < 1e-6);
        // Very high intensity: compute-limited at 2.048 TFLOPS.
        assert!((roof_tflops(&cfg, 100.0) - 2.048).abs() < 1e-6);
    }

    #[test]
    fn bert_point_is_compute_bound_gpt2_memory_bound() {
        let cfg = SpAttenConfig::default();
        let accel = Accelerator::new(cfg);
        let bert =
            RooflinePoint::from_report(&cfg, &accel.run(&Benchmark::bert_base_sst2().workload()));
        let gpt2 = RooflinePoint::from_report(
            &cfg,
            &accel.run(&Benchmark::gpt2_small_wikitext2().workload()),
        );
        assert!(
            !bert.is_memory_bound(&cfg),
            "BERT intensity {}",
            bert.intensity
        );
        assert!(
            gpt2.is_memory_bound(&cfg),
            "GPT-2 intensity {}",
            gpt2.intensity
        );
    }

    #[test]
    fn achieved_never_exceeds_roof_by_much() {
        for cfg in [SpAttenConfig::default(), SpAttenConfig::eighth()] {
            let accel = Accelerator::new(cfg);
            for b in Benchmark::all() {
                let p = RooflinePoint::from_report(&cfg, &accel.run(&b.workload()));
                assert!(
                    p.roof_utilization() <= 1.0,
                    "{} exceeds its roof with {} multipliers per array: {}",
                    p.name,
                    cfg.multipliers_per_array,
                    p.roof_utilization()
                );
            }
        }
    }
}
