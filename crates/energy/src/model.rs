//! Per-event energy constants and the energy/power computation.

use crate::counters::EventCounts;

/// Per-event energy constants (picojoules), 40 nm class.
///
/// Sources for the defaults (all documented substitutions for the paper's
/// tool flow):
///
/// * 12-bit fixed multiply + accumulate ≈ 1.5 pJ — the raw 12-bit
///   multiplier is ~0.45 pJ (scaled from Horowitz ISSCC'14: 8-bit mult
///   0.2 pJ, 32-bit add 0.1 pJ), tripled to account for pipeline
///   registers, operand muxing and clock distribution, which synthesis
///   attributes to the datapath (and which the paper's Genus numbers
///   include).
/// * fp32 FMA ≈ 2.5 pJ, divide ≈ 5 pJ — Salehi et al. 45 nm FPU numbers,
///   used (as in the paper) as an upper bound for 40 nm.
/// * SRAM ≈ 0.30 pJ/bit — CACTI-class number for ~100 KB banks at 40 nm
///   including peripheral/decoder energy.
/// * FIFO ≈ 0.02 pJ/bit — small register files.
/// * DRAM ≈ 3.9 pJ/bit + 900 pJ/activation — HBM2 from O'Connor et al.
///   (MICRO'17), the paper's own DRAM-energy source.
/// * Comparator ≈ 0.05 pJ — 12-bit compare.
/// * Crossbar ≈ 1.2 pJ/request — 32×16 switch traversal.
/// * Static leakage 0.30 W — small for a 18.7 mm² 40 nm die.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// Fixed-point MAC energy (pJ).
    pub mac_pj: f64,
    /// Floating-point FMA energy (pJ).
    pub fma_pj: f64,
    /// Floating-point divide energy (pJ).
    pub div_pj: f64,
    /// Top-k comparator energy (pJ).
    pub comparator_pj: f64,
    /// SRAM access energy (pJ/bit).
    pub sram_pj_per_bit: f64,
    /// FIFO access energy (pJ/bit).
    pub fifo_pj_per_bit: f64,
    /// DRAM transfer energy (pJ/bit).
    pub dram_pj_per_bit: f64,
    /// DRAM row-activation energy (pJ).
    pub dram_activation_pj: f64,
    /// Crossbar traversal energy (pJ/request).
    pub xbar_pj_per_request: f64,
    /// Static (leakage) power in watts.
    pub leakage_w: f64,
}

impl Default for EnergyParams {
    fn default() -> Self {
        Self {
            mac_pj: 1.5,
            fma_pj: 2.5,
            div_pj: 5.0,
            comparator_pj: 0.05,
            sram_pj_per_bit: 0.30,
            fifo_pj_per_bit: 0.02,
            dram_pj_per_bit: 3.9,
            dram_activation_pj: 900.0,
            xbar_pj_per_request: 1.2,
            leakage_w: 0.30,
        }
    }
}

/// Energy of one window, split the way Table II reports power.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Computation logic (MACs, FMAs, divides, comparators, crossbars), pJ.
    pub compute_pj: f64,
    /// On-chip memory (SRAM + FIFO), pJ.
    pub sram_pj: f64,
    /// DRAM (transfers + activations), pJ.
    pub dram_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy in pJ.
    pub fn total_pj(&self) -> f64 {
        self.compute_pj + self.sram_pj + self.dram_pj
    }

    /// Total energy in joules.
    pub fn total_j(&self) -> f64 {
        self.total_pj() * 1e-12
    }
}

/// Power at a given runtime, Table II shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerReport {
    /// Computation-logic power (W).
    pub compute_w: f64,
    /// On-chip SRAM/FIFO power (W).
    pub sram_w: f64,
    /// DRAM power (W).
    pub dram_w: f64,
    /// Static leakage (W).
    pub leakage_w: f64,
}

impl PowerReport {
    /// Total power in watts.
    pub fn total_w(&self) -> f64 {
        self.compute_w + self.sram_w + self.dram_w + self.leakage_w
    }
}

/// Converts event counts into energy and power.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyModel {
    params: EnergyParams,
}

impl EnergyModel {
    /// A model with explicit constants.
    pub fn new(params: EnergyParams) -> Self {
        Self { params }
    }

    /// The constants in use.
    pub fn params(&self) -> EnergyParams {
        self.params
    }

    /// Energy of `counts`.
    pub fn energy(&self, counts: &EventCounts) -> EnergyBreakdown {
        let p = self.params;
        let compute_pj = counts.total_macs() as f64 * p.mac_pj
            + counts.softmax_fmas as f64 * p.fma_pj
            + counts.softmax_divs as f64 * p.div_pj
            + counts.topk_comparisons as f64 * p.comparator_pj
            + counts.xbar_requests as f64 * p.xbar_pj_per_request;
        let sram_pj = counts.sram_bits as f64 * p.sram_pj_per_bit
            + counts.fifo_bits as f64 * p.fifo_pj_per_bit;
        let dram_pj = (counts.dram_read_bits + counts.dram_write_bits) as f64 * p.dram_pj_per_bit
            + counts.dram_activations as f64 * p.dram_activation_pj;
        EnergyBreakdown {
            compute_pj,
            sram_pj,
            dram_pj,
        }
    }

    /// Power when `counts` happen over `cycles` at `clock_ghz`.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero.
    pub fn power(&self, counts: &EventCounts, cycles: u64, clock_ghz: f64) -> PowerReport {
        assert!(cycles > 0, "power needs a nonzero window");
        let seconds = cycles as f64 / (clock_ghz * 1e9);
        let e = self.energy(counts);
        PowerReport {
            compute_w: e.compute_pj * 1e-12 / seconds,
            sram_w: e.sram_pj * 1e-12 / seconds,
            dram_w: e.dram_pj * 1e-12 / seconds,
            leakage_w: self.params.leakage_w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> EnergyModel {
        EnergyModel::default()
    }

    #[test]
    fn energy_is_linear_in_counts() {
        let c = EventCounts {
            qk_macs: 1000,
            sram_bits: 8000,
            dram_read_bits: 64_000,
            ..EventCounts::new()
        };
        let double = c + c;
        let e1 = model().energy(&c);
        let e2 = model().energy(&double);
        assert!((e2.total_pj() - 2.0 * e1.total_pj()).abs() < 1e-6);
    }

    #[test]
    fn dram_dominates_for_memory_bound_mixes() {
        // The Table II shape: a memory-heavy event mix should put the
        // majority of energy in DRAM (paper: 5.71 W of 8.30 W ≈ 69 %).
        let c = EventCounts {
            qk_macs: 4_000_000,
            pv_macs: 4_000_000,
            softmax_fmas: 400_000,
            sram_bits: 60_000_000,
            dram_read_bits: 8_000_000,
            dram_activations: 2_000,
            ..EventCounts::new()
        };
        let e = model().energy(&c);
        let frac = e.dram_pj / e.total_pj();
        assert!(
            (0.5..0.95).contains(&frac),
            "DRAM fraction {frac} out of Table II range"
        );
    }

    #[test]
    fn power_scales_inversely_with_time() {
        let c = EventCounts {
            qk_macs: 1_000_000,
            ..EventCounts::new()
        };
        let fast = model().power(&c, 1000, 1.0);
        let slow = model().power(&c, 2000, 1.0);
        assert!(
            (fast.compute_w - 2.0 * slow.compute_w).abs() < 1e-9,
            "dynamic power must halve when time doubles"
        );
        assert_eq!(fast.leakage_w, slow.leakage_w);
    }

    #[test]
    fn power_total_sums_components() {
        let c = EventCounts {
            qk_macs: 10,
            sram_bits: 10,
            dram_read_bits: 10,
            ..EventCounts::new()
        };
        let p = model().power(&c, 10, 1.0);
        let sum = p.compute_w + p.sram_w + p.dram_w + p.leakage_w;
        assert!((p.total_w() - sum).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "nonzero window")]
    fn zero_cycle_power_rejected() {
        let _ = model().power(&EventCounts::new(), 0, 1.0);
    }
}
