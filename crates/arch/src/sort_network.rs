//! Batcher odd–even merge sorting network — functional implementation.
//!
//! §IV-B compares the top-k engine against "a regular full sorting unit (a
//! Batcher's Odd-Even Sorter to perform merge-sort)". [`crate::topk`]
//! carries its *timing* model; this module builds the actual
//! compare-exchange network, sorts with it, and exposes the structural
//! counts (stages, comparators) the timing model relies on — with tests
//! proving the network really sorts (the 0-1 principle is exercised over
//! exhaustive boolean inputs for small n).

/// A compare-exchange between lanes `(lo, hi)`.
pub type CompareExchange = (usize, usize);

/// A materialized Batcher odd–even merge network for `n = 2^k` lanes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OddEvenMergeNetwork {
    lanes: usize,
    /// Stages in execution order; each stage's comparators touch disjoint
    /// lanes and can run in one hardware cycle.
    stages: Vec<Vec<CompareExchange>>,
}

impl OddEvenMergeNetwork {
    /// Builds the network.
    ///
    /// # Panics
    ///
    /// Panics unless `lanes` is a power of two ≥ 2.
    pub fn new(lanes: usize) -> Self {
        assert!(
            lanes >= 2 && lanes.is_power_of_two(),
            "Batcher network needs a power-of-two lane count ≥ 2"
        );
        // Knuth's iterative formulation of Batcher's odd-even merge sort:
        // passes p = 1, 2, 4, …; within each pass, sub-passes k = p, p/2, …
        let mut stages = Vec::new();
        let mut p = 1usize;
        while p < lanes {
            let mut k = p;
            while k >= 1 {
                let mut stage = Vec::new();
                let mut j = k % p;
                while j + k < lanes {
                    for i in 0..k.min(lanes - j - k) {
                        if (i + j) / (2 * p) == (i + j + k) / (2 * p) {
                            stage.push((i + j, i + j + k));
                        }
                    }
                    j += 2 * k;
                }
                stages.push(stage);
                k /= 2;
            }
            p *= 2;
        }
        Self { lanes, stages }
    }

    /// Lane count.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of hardware stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Total compare-exchange operations.
    pub fn comparator_count(&self) -> usize {
        self.stages.iter().map(Vec::len).sum()
    }

    /// Sorts a slice ascending by executing the network.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != lanes`.
    pub fn sort<T: PartialOrd + Copy>(&self, data: &mut [T]) {
        assert_eq!(data.len(), self.lanes, "input width mismatch");
        for stage in &self.stages {
            for &(lo, hi) in stage {
                if data[lo] > data[hi] {
                    data.swap(lo, hi);
                }
            }
        }
    }

    /// Cycles to run the network with `width` physical comparators: each
    /// stage serializes into `⌈stage_size / width⌉` cycles.
    pub fn cycles(&self, width: usize) -> u64 {
        assert!(width > 0, "need at least one comparator");
        self.stages
            .iter()
            .map(|s| (s.len() as u64).div_ceil(width as u64).max(1))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_reversed_input() {
        let net = OddEvenMergeNetwork::new(16);
        let mut data: Vec<i32> = (0..16).rev().collect();
        net.sort(&mut data);
        assert_eq!(data, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn zero_one_principle_exhaustive_n8() {
        // A comparison network sorts all inputs iff it sorts all 0-1
        // inputs (Knuth). Exhaust all 256 boolean vectors for n = 8.
        let net = OddEvenMergeNetwork::new(8);
        for mask in 0u32..256 {
            let mut data: Vec<u32> = (0..8).map(|i| (mask >> i) & 1).collect();
            net.sort(&mut data);
            assert!(data.windows(2).all(|w| w[0] <= w[1]), "mask {mask:08b}");
        }
    }

    #[test]
    fn stage_count_matches_closed_form() {
        // s(s+1)/2 stages for n = 2^s.
        for (n, expect) in [(2usize, 1usize), (4, 3), (8, 6), (16, 10), (1024, 55)] {
            let net = OddEvenMergeNetwork::new(n);
            assert_eq!(net.stage_count(), expect, "n = {n}");
        }
    }

    #[test]
    fn stages_touch_disjoint_lanes() {
        let net = OddEvenMergeNetwork::new(32);
        for (i, stage) in net.stages.iter().enumerate() {
            let mut seen = [false; 32];
            for &(lo, hi) in stage {
                assert!(!seen[lo] && !seen[hi], "stage {i} reuses a lane");
                seen[lo] = true;
                seen[hi] = true;
            }
        }
    }

    #[test]
    fn cycle_model_agrees_with_topk_module() {
        // The BatcherSorter timing model in `topk` must be consistent with
        // the materialized network's stage structure.
        use crate::topk::BatcherSorter;
        let net = OddEvenMergeNetwork::new(1024);
        let stages_model = BatcherSorter::stages(1024);
        assert_eq!(net.stage_count() as u64, stages_model);
        // With very wide hardware (n/2 comparators) both models give one
        // cycle per stage.
        assert_eq!(net.cycles(512), stages_model);
    }

    #[test]
    fn sorts_floats_with_duplicates() {
        let net = OddEvenMergeNetwork::new(8);
        let mut data = [0.5f32, -1.0, 0.5, 3.0, -1.0, 2.0, 0.0, 0.5];
        net.sort(&mut data);
        assert!(data.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_rejected() {
        let _ = OddEvenMergeNetwork::new(12);
    }
}
