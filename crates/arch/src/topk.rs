//! The high-parallelism top-k engine (paper Fig. 9 / Algorithm 3) and the
//! Batcher sorting-network baseline it is compared against (§IV-B).
//!
//! The engine runs quick-select: a pivot partitions the live FIFO through
//! two comparator arrays (elements `< pivot` survive in the left array,
//! `> pivot` in the right; equal elements are only counted); zero
//! eliminators compact each side back into FIFO_L / FIFO_R. The control
//! logic of Algorithm 3 updates the residual target `k` until the pivot
//! *is* the k-th largest. A final filter pass over the (order-preserving)
//! input buffer emits the top-k elements in their original order — which is
//! what lets the datapath keep fetching K/V rows sequentially.
//!
//! Timing: each partition or filter pass over `m` live elements costs
//! `⌈m / parallelism⌉` cycles through the comparator arrays plus a small
//! constant for pivot selection / state transition; the zero eliminator is
//! pipelined and adds its latency once per pass.
//!
//! One quick-select core serves two queries: [`TopkEngine::select`] adds
//! the filter pass that names the winners, and [`TopkEngine::select_cost`]
//! returns only what the query costs. Both draw the same pivots and update
//! the same lifetime counters, so a cost model can price a query without
//! materialising its result. Only one side of a partition ever stays live,
//! so the core counts both sides first and then compacts just the side the
//! control logic keeps, in place, in a scratch buffer the engine reuses
//! across queries: no query allocates per pass.

use crate::zero_eliminator::ZeroEliminator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-pass constant overhead: pivot broadcast + FSM transition.
const PASS_OVERHEAD_CYCLES: u64 = 2;

/// Outcome of one top-k query.
#[derive(Debug, Clone, PartialEq)]
pub struct TopkResult {
    /// Indices of the selected elements in the *original* input order.
    pub indices: Vec<usize>,
    /// The selection threshold (the terminating pivot of Algorithm 3).
    /// Every selected element is `≥ threshold`; when the pivot splits the
    /// array at exactly `k`, this may be *smaller* than the k-th largest
    /// value — the filter output is identical either way.
    pub threshold: f32,
    /// Cycles the engine spent on this query.
    pub cycles: u64,
    /// Number of quick-select partition passes executed.
    pub passes: u32,
    /// Elements streamed through the comparator arrays during quick-select
    /// (excludes the filter pass, whose length is always `n`).
    pub visits: u64,
}

/// What one top-k query costs, without its result: the `cycles`,
/// `passes` and `visits` of the [`TopkResult`] the same query returns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TopkCost {
    /// Cycles the engine spent on this query.
    pub cycles: u64,
    /// Number of quick-select partition passes executed.
    pub passes: u32,
    /// Elements streamed through the comparator arrays during quick-select
    /// (excludes the filter pass, whose length is always `n`).
    pub visits: u64,
}

/// Configuration + statistics of the top-k engine.
#[derive(Debug, Clone)]
pub struct TopkEngine {
    parallelism: usize,
    rng: StdRngState,
    total_cycles: u64,
    total_queries: u64,
    /// The live FIFO of the running query, kept across queries so
    /// partition passes reuse its storage.
    live: Vec<f32>,
}

/// Seeded RNG wrapper so the engine stays deterministic: its state is a
/// seed and a draw count.
#[derive(Debug, Clone)]
struct StdRngState {
    seed: u64,
    draws: u64,
}

impl StdRngState {
    fn new(seed: u64) -> Self {
        Self { seed, draws: 0 }
    }

    fn next_index(&mut self, len: usize) -> usize {
        // Re-derive the stream position; draw counts stay tiny (O(passes)).
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(self.draws));
        self.draws += 1;
        rng.gen_range(0..len)
    }
}

impl TopkEngine {
    /// An engine with `parallelism` comparators per array (the paper uses
    /// 16) and a deterministic pivot-selection seed.
    ///
    /// # Panics
    ///
    /// Panics if `parallelism` is zero.
    pub fn new(parallelism: usize, seed: u64) -> Self {
        assert!(parallelism > 0, "parallelism must be positive");
        Self {
            parallelism,
            rng: StdRngState::new(seed),
            total_cycles: 0,
            total_queries: 0,
            live: Vec::new(),
        }
    }

    /// Comparators per array.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Lifetime cycles spent.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Lifetime queries served.
    pub fn total_queries(&self) -> u64 {
        self.total_queries
    }

    fn pass_cycles(&self, live: usize) -> u64 {
        (live as u64).div_ceil(self.parallelism as u64)
            + PASS_OVERHEAD_CYCLES
            + ZeroEliminator::new(self.parallelism).latency_cycles()
    }

    /// Selects the `k` largest of `values`, returning their original-order
    /// indices, the threshold, and the cycle cost.
    ///
    /// Ties at the threshold are broken by input order, matching the
    /// hardware filter (`num_eq_k_th_largest` counts how many equals pass).
    ///
    /// # Panics
    ///
    /// Panics if any value is NaN (scores are fixed-point on hardware).
    pub fn select(&mut self, values: &[f32], k: usize) -> TopkResult {
        let n = values.len();
        let (cost, split) = self.quickselect(values, k);
        let (indices, threshold) = match split {
            Some((threshold, num_eq_kth)) => {
                // Filter pass over the original buffer (order-preserving).
                let mut indices = Vec::with_capacity(k);
                let mut eq_left = num_eq_kth;
                for (i, &v) in values.iter().enumerate() {
                    if v > threshold {
                        indices.push(i);
                    } else if v == threshold && eq_left > 0 {
                        indices.push(i);
                        eq_left -= 1;
                    }
                }
                debug_assert_eq!(indices.len(), k, "filter must emit exactly k items");
                (indices, threshold)
            }
            None if k == 0 || n == 0 => (Vec::new(), f32::INFINITY),
            None => (
                (0..n).collect(),
                values.iter().copied().fold(f32::INFINITY, f32::min),
            ),
        };
        TopkResult {
            indices,
            threshold,
            cycles: cost.cycles,
            passes: cost.passes,
            visits: cost.visits,
        }
    }

    /// What [`TopkEngine::select`] would cost on the same input — the
    /// same pivot draws, cycles, passes, visits and lifetime counters —
    /// without the filter pass that materialises the winners.
    ///
    /// # Panics
    ///
    /// Panics if any value is NaN (scores are fixed-point on hardware).
    pub fn select_cost(&mut self, values: &[f32], k: usize) -> TopkCost {
        self.quickselect(values, k).0
    }

    /// Quick-select (Algorithm 3) shared by both queries: charges the
    /// query to the lifetime counters and returns its cost, plus the
    /// terminating pivot and how many elements equal to it the filter
    /// pass lets through — `None` when `k` is zero or covers the whole
    /// input, which needs no partition pass at all.
    fn quickselect(&mut self, values: &[f32], k: usize) -> (TopkCost, Option<(f32, usize)>) {
        // A non-short-circuiting fold vectorizes; `all` would not.
        assert!(
            !values.iter().fold(false, |nan, v| nan | v.is_nan()),
            "top-k input must not contain NaN"
        );
        self.total_queries += 1;
        let n = values.len();

        if k == 0 || n == 0 {
            self.total_cycles += PASS_OVERHEAD_CYCLES;
            let cost = TopkCost {
                cycles: PASS_OVERHEAD_CYCLES,
                passes: 0,
                visits: 0,
            };
            return (cost, None);
        }
        if k >= n {
            // Everything survives: one filter pass streams the buffer out.
            let cycles = self.pass_cycles(n);
            self.total_cycles += cycles;
            let cost = TopkCost {
                cycles,
                passes: 0,
                visits: n as u64,
            };
            return (cost, None);
        }

        // `live[..len]` is the set the last pass partitioned (at first the
        // whole input, which is all FIFO_L); `below` / `above` count its
        // FIFO_L / FIFO_R sides. The side the control logic keeps is
        // compacted in place just before its pivot is drawn.
        let mut live = std::mem::take(&mut self.live);
        live.clear();
        live.extend_from_slice(values);
        let mut len = n;
        let (mut below, mut above) = (n, 0usize);
        let mut target = k;
        let mut num_eq_pivot = 0usize;
        let mut pivot = f32::NAN; // set on the first pass
        let mut cost = TopkCost::default();

        let split = loop {
            // START state.
            if above + num_eq_pivot <= target {
                // Pivot too large: the whole right side + equals survive.
                target -= above + num_eq_pivot;
                if below == 0 {
                    // All remaining mass was consumed exactly; the previous
                    // pivot is the threshold and no equals remain to pick.
                    break (pivot, 0);
                }
                // Drop FIFO_R and the equals; before the first pass there
                // is nothing to drop.
                if below < len {
                    len = compact(&mut live[..len], |v| v < pivot);
                }
            } else if above > target {
                // Pivot too small: only the right side can matter.
                len = compact(&mut live[..len], |v| v > pivot);
            } else {
                // size(R) ≤ target < size(R) + num_eq_pivot: found it.
                break (pivot, target - above);
            }
            pivot = live[self.rng.next_index(len)];
            (below, above) = count_sides(&live[..len], pivot);
            num_eq_pivot = len - below - above;
            cost.cycles += self.pass_cycles(len);
            cost.passes += 1;
            cost.visits += len as u64;
        };

        // The filter pass over the original buffer.
        cost.cycles += self.pass_cycles(n);
        self.live = live;
        self.total_cycles += cost.cycles;
        (cost, Some(split))
    }

    /// Steady-state initiation interval of this query when queries stream
    /// back-to-back: the quick-select side processes `visits` elements at
    /// `parallelism` per cycle with one bubble per pass, while the filter
    /// side (its own FIFO + zero eliminator, Fig. 9 left) streams `n`
    /// elements concurrently. Pipeline fill latencies amortize away.
    pub fn steady_interval(&self, result: &TopkResult, n: usize) -> u64 {
        self.steady_interval_of(
            &TopkCost {
                cycles: result.cycles,
                passes: result.passes,
                visits: result.visits,
            },
            n,
        )
    }

    /// [`TopkEngine::steady_interval`] of a query priced by
    /// [`TopkEngine::select_cost`].
    pub fn steady_interval_of(&self, cost: &TopkCost, n: usize) -> u64 {
        let p = self.parallelism as u64;
        let select = cost.visits.div_ceil(p) + u64::from(cost.passes);
        let filter = (n as u64).div_ceil(p) + 1;
        select.max(filter).max(1)
    }
}

/// How many of `live` fall below and above `pivot` (the FIFO_L / FIFO_R
/// sizes of a partition pass; the rest equal it). Branch-free, with
/// 32-bit counters over bounded chunks so the loop vectorizes.
fn count_sides(live: &[f32], pivot: f32) -> (usize, usize) {
    let (mut below, mut above) = (0usize, 0usize);
    for chunk in live.chunks(1 << 16) {
        let (mut lo, mut hi) = (0u32, 0u32);
        for &v in chunk {
            lo += u32::from(v < pivot);
            hi += u32::from(v > pivot);
        }
        below += lo as usize;
        above += hi as usize;
    }
    (below, above)
}

/// Compacts the elements of `live` that satisfy `keep` to its front, in
/// order, and returns how many there are — the zero eliminator's job.
/// Every element is written and only the cursor moves conditionally, so
/// the loop has no data-dependent branch to mispredict.
fn compact(live: &mut [f32], keep: impl Fn(f32) -> bool) -> usize {
    let mut kept = 0usize;
    for i in 0..live.len() {
        let v = live[i];
        live[kept] = v;
        kept += usize::from(keep(v));
    }
    kept
}

/// Reference selection: indices of the `k` largest, original order, ties by
/// position — the specification the engine must match.
pub fn reference_topk(values: &[f32], k: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| {
        values[b]
            .partial_cmp(&values[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut chosen: Vec<usize> = order.into_iter().take(k).collect();
    chosen.sort_unstable();
    chosen
}

/// Timing model of a Batcher odd–even merge sorting network processed
/// `width` compare-exchanges per cycle — the "regular full sorting unit"
/// SpAtten's engine is compared against in §IV-B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatcherSorter {
    width: usize,
}

impl BatcherSorter {
    /// A sorter with `width` hardware comparators.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "width must be positive");
        Self { width }
    }

    /// Network stage count for `n` inputs: `s(s+1)/2` with `s = ⌈log₂ n⌉`.
    pub fn stages(n: usize) -> u64 {
        let s = u64::from(ZeroEliminator::stages(n));
        s * (s + 1) / 2
    }

    /// Cycles to fully sort `n` elements: every stage has `n/2`
    /// compare-exchanges, `width` of them per cycle.
    pub fn sort_cycles(&self, n: usize) -> u64 {
        if n <= 1 {
            return 1;
        }
        let per_stage = (n as u64 / 2).div_ceil(self.width as u64).max(1);
        Self::stages(n) * per_stage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> TopkEngine {
        TopkEngine::new(16, 0xC0FFEE)
    }

    #[test]
    fn selects_distinct_values_correctly() {
        let vals = [0.3f32, 1.2, -0.5, 0.9, 2.0, 0.1];
        let r = engine().select(&vals, 3);
        assert_eq!(r.indices, vec![1, 3, 4]);
        // The threshold separates: everything selected is ≥ it, everything
        // rejected is ≤ it.
        for (i, &v) in vals.iter().enumerate() {
            if r.indices.contains(&i) {
                assert!(v >= r.threshold);
            } else {
                assert!(v <= r.threshold);
            }
        }
    }

    #[test]
    fn paper_worked_example() {
        // Fig. 9: [0.6, 0.1, 0.5, 1.2, 0.6], k = 3 → {0.6, 1.2, 0.6}.
        let vals = [0.6f32, 0.1, 0.5, 1.2, 0.6];
        let r = engine().select(&vals, 3);
        assert_eq!(r.indices, vec![0, 3, 4]);
        assert!(r.threshold <= 0.6);
    }

    #[test]
    fn ties_broken_by_input_order() {
        let vals = [1.0f32, 1.0, 1.0, 1.0];
        let r = engine().select(&vals, 2);
        assert_eq!(r.indices, vec![0, 1]);
    }

    #[test]
    fn k_zero_and_k_full() {
        let vals = [5.0f32, 3.0, 4.0];
        assert!(engine().select(&vals, 0).indices.is_empty());
        assert_eq!(engine().select(&vals, 3).indices, vec![0, 1, 2]);
        assert_eq!(engine().select(&vals, 10).indices, vec![0, 1, 2]);
    }

    #[test]
    fn matches_reference_on_many_seeds() {
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..200);
            let vals: Vec<f32> = (0..n)
                .map(|_| (rng.gen_range(-100..100) as f32) / 8.0) // duplicates likely
                .collect();
            let k = rng.gen_range(0..=n);
            let mut eng = TopkEngine::new(16, seed);
            let got = eng.select(&vals, k);
            assert_eq!(got.indices, reference_topk(&vals, k), "seed {seed}");
        }
    }

    #[test]
    fn cycles_scale_inversely_with_parallelism() {
        let vals: Vec<f32> = (0..1024).map(|i| ((i * 37) % 1009) as f32).collect();
        let c1 = TopkEngine::new(1, 7).select(&vals, 512).cycles;
        let c16 = TopkEngine::new(16, 7).select(&vals, 512).cycles;
        assert!(
            c1 > c16 * 8,
            "parallelism should speed up: P1 {c1} vs P16 {c16}"
        );
    }

    #[test]
    fn expected_linear_time_in_input_size() {
        // Average cycles should grow roughly linearly (quick-select is
        // expected O(n)); allow generous slack over exact linearity.
        let cost = |n: usize| {
            let vals: Vec<f32> = (0..n).map(|i| ((i * 97) % 7919) as f32).collect();
            let mut total = 0u64;
            for seed in 0..10u64 {
                total += TopkEngine::new(16, seed).select(&vals, n / 2).cycles;
            }
            total / 10
        };
        let c256 = cost(256);
        let c1024 = cost(1024);
        assert!(
            c1024 < c256 * 12,
            "super-linear growth: 256→{c256}, 1024→{c1024}"
        );
    }

    #[test]
    fn engine_beats_full_sort_at_1024() {
        // §IV-B: 1.4× higher throughput than a Batcher sorter on the worst
        // case (median selection) at length 1024 with matched width.
        let vals: Vec<f32> = (0..1024).map(|i| ((i * 571) % 4093) as f32).collect();
        let mut worst = 0u64;
        for seed in 0..10u64 {
            worst = worst.max(TopkEngine::new(16, seed).select(&vals, 512).cycles);
        }
        let sorter = BatcherSorter::new(16).sort_cycles(1024);
        assert!(
            worst < sorter,
            "engine worst case {worst} vs full sort {sorter}"
        );
    }

    #[test]
    fn lifetime_stats_accumulate() {
        let mut eng = engine();
        let vals = [1.0f32, 2.0, 3.0];
        eng.select(&vals, 1);
        eng.select(&vals, 2);
        assert_eq!(eng.total_queries(), 2);
        assert!(eng.total_cycles() > 0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = engine().select(&[1.0, f32::NAN], 1);
    }

    #[test]
    fn batcher_stage_counts() {
        // n = 1024 → s = 10 → 55 stages.
        assert_eq!(BatcherSorter::stages(1024), 55);
        assert_eq!(BatcherSorter::stages(2), 1);
    }
}
