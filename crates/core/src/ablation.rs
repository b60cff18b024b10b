//! The Fig. 20 ablation ladder as a reusable API.
//!
//! Each rung adds one SpAtten technique on top of the previous
//! configuration: specialized datapath → cascade token pruning → cascade
//! head pruning → high-parallelism top-k engine → static quantization →
//! progressive quantization. The bench binary `fig20` prints the ladder;
//! this module owns the rung definitions so they can be tested and reused.

use crate::accelerator::{Accelerator, SpAttenConfig};
use crate::perf::RunReport;
use spatten_quant::BitwidthScheme;
use spatten_workloads::{QuantPolicy, Workload};

/// One rung: a configuration plus a quantization override.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Human-readable name.
    pub name: &'static str,
    /// Hardware configuration of this rung.
    pub config: SpAttenConfig,
    /// Quantization policy override applied to the workload.
    pub quant: QuantPolicy,
    /// The paper's cumulative speedup at this rung (over TITAN Xp,
    /// geomean of the GPT-2 benchmarks).
    pub paper_cumulative: f64,
}

/// The six-rung ladder of Fig. 20.
pub fn ladder() -> Vec<Rung> {
    let full12 = QuantPolicy::full_precision();
    let static8 = QuantPolicy::static_msb(BitwidthScheme::Msb8Lsb4);
    let progressive = QuantPolicy::progressive(BitwidthScheme::Msb6Lsb4);

    let mut datapath = SpAttenConfig::default().datapath_only();
    datapath.topk_parallelism = 1;
    let mut token = datapath;
    token.token_pruning = true;
    token.local_value_pruning = true;
    let mut head = token;
    head.head_pruning = true;
    let mut engine = head;
    engine.topk_parallelism = 16;

    vec![
        Rung {
            name: "specialized datapath",
            config: datapath,
            quant: full12,
            paper_cumulative: 22.1,
        },
        Rung {
            name: "+ cascade token pruning",
            config: token,
            quant: full12,
            paper_cumulative: 24.3,
        },
        Rung {
            name: "+ cascade head pruning",
            config: head,
            quant: full12,
            paper_cumulative: 26.7,
        },
        Rung {
            name: "+ parallel top-k engine",
            config: engine,
            quant: full12,
            paper_cumulative: 74.2,
        },
        Rung {
            name: "+ static quantization",
            config: engine,
            quant: static8,
            paper_cumulative: 122.1,
        },
        Rung {
            name: "+ progressive quantization",
            config: engine,
            quant: progressive,
            paper_cumulative: 209.0,
        },
    ]
}

/// Runs one rung on a workload (applying its quantization override).
pub fn run_rung(rung: &Rung, workload: &Workload) -> RunReport {
    let mut w = workload.clone();
    w.quant = rung.quant;
    Accelerator::new(rung.config).run(&w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatten_workloads::Benchmark;

    #[test]
    fn ladder_has_six_rungs_in_paper_order() {
        let l = ladder();
        assert_eq!(l.len(), 6);
        assert!(l
            .windows(2)
            .all(|w| w[0].paper_cumulative <= w[1].paper_cumulative));
        assert!(!l[0].config.token_pruning);
        assert!(l[1].config.token_pruning && !l[1].config.head_pruning);
        assert_eq!(l[3].config.topk_parallelism, 16);
        assert!(l[5].quant.progressive);
    }

    #[test]
    fn final_rung_is_fastest_on_gpt2() {
        let w = Benchmark::gpt2_small_wikitext2().workload();
        let l = ladder();
        let first = run_rung(&l[0], &w).total_cycles;
        let last = run_rung(&l[5], &w).total_cycles;
        assert!(
            first > 2 * last,
            "full SpAtten must beat the bare datapath: {first} vs {last}"
        );
    }

    #[test]
    fn parallel_engine_rung_delivers_about_3x() {
        // The paper's headline micro-claim: the high-parallelism engine is
        // worth ~3× once pruning is on.
        let w = Benchmark::gpt2_small_wikitext2().workload();
        let l = ladder();
        let serial = run_rung(&l[2], &w).total_cycles as f64;
        let parallel = run_rung(&l[3], &w).total_cycles as f64;
        let gain = serial / parallel;
        assert!((2.0..5.0).contains(&gain), "engine gain {gain} (paper: 3x)");
    }

    #[test]
    fn quantization_rungs_cut_dram_traffic() {
        let w = Benchmark::gpt2_small_wikitext2().workload();
        let l = ladder();
        let full = run_rung(&l[3], &w).dram_bytes;
        let static8 = run_rung(&l[4], &w).dram_bytes;
        let progressive = run_rung(&l[5], &w).dram_bytes;
        assert!(static8 < full, "8-bit must move less than 12-bit");
        assert!(
            progressive < static8,
            "6+4 progressive must move less than 8-bit"
        );
    }
}
