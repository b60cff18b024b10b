//! Property-based tests for the hardware modules.

use proptest::prelude::*;
use spatten_arch::topk::reference_topk;
use spatten_arch::{pipeline_cycles, StageTiming, TopkEngine, ZeroEliminator};

proptest! {
    #[test]
    fn topk_matches_sorted_reference(
        vals in prop::collection::vec(-1000i32..1000, 1..300),
        k_frac in 0.0f64..1.0,
        seed in 0u64..1000,
        parallelism in 1usize..33,
    ) {
        // Integer-derived values so duplicates are common.
        let vals: Vec<f32> = vals.iter().map(|&v| v as f32 / 4.0).collect();
        let k = ((vals.len() as f64) * k_frac) as usize;
        let mut eng = TopkEngine::new(parallelism, seed);
        let got = eng.select(&vals, k);
        prop_assert_eq!(got.indices, reference_topk(&vals, k));
    }

    #[test]
    fn topk_output_is_sorted_and_sized(
        vals in prop::collection::vec(-100.0f32..100.0, 1..100),
        k in 0usize..100,
    ) {
        let k = k.min(vals.len());
        let mut eng = TopkEngine::new(16, 1);
        let got = eng.select(&vals, k);
        prop_assert_eq!(got.indices.len(), k);
        // original order = strictly increasing indices
        prop_assert!(got.indices.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn topk_threshold_separates(
        vals in prop::collection::vec(-50i32..50, 2..120),
        k in 1usize..119,
    ) {
        let vals: Vec<f32> = vals.iter().map(|&v| v as f32).collect();
        let k = k.min(vals.len());
        let mut eng = TopkEngine::new(8, 3);
        let got = eng.select(&vals, k);
        for (i, &v) in vals.iter().enumerate() {
            if got.indices.contains(&i) {
                prop_assert!(v >= got.threshold);
            } else {
                prop_assert!(v <= got.threshold);
            }
        }
    }

    #[test]
    fn topk_cost_query_matches_select(
        vals in prop::collection::vec(-6i32..6, 0..300),
        k_pick in 0usize..100_000,
        seed in 0u64..1000,
        parallelism in 1usize..33,
    ) {
        // Heavy duplicates, and k anywhere in 0..=n+1.
        let vals: Vec<f32> = vals.iter().map(|&v| v as f32 / 2.0).collect();
        let n = vals.len();
        let k = k_pick % (n + 2);
        let mut full = TopkEngine::new(parallelism, seed);
        let mut cost_only = TopkEngine::new(parallelism, seed);
        let r = full.select(&vals, k);
        let c = cost_only.select_cost(&vals, k);
        prop_assert_eq!((c.cycles, c.passes, c.visits), (r.cycles, r.passes, r.visits));
        prop_assert_eq!(cost_only.steady_interval_of(&c, n), full.steady_interval(&r, n));
        prop_assert_eq!(cost_only.total_cycles(), full.total_cycles());
        prop_assert_eq!(cost_only.total_queries(), full.total_queries());
        // Both engines drew the same pivots, so they stay in step.
        let k2 = (k_pick / 7) % (n + 2);
        prop_assert_eq!(cost_only.select(&vals, k2), full.select(&vals, k2));
    }

    #[test]
    fn zero_eliminator_equals_filter(
        lanes in prop::collection::vec(prop::option::of(0u32..100), 0..64),
    ) {
        let ze = ZeroEliminator::new(64);
        let expect: Vec<u32> = lanes.iter().copied().flatten().collect();
        prop_assert_eq!(ze.eliminate(&lanes), expect);
    }

    #[test]
    fn pipeline_cycles_monotone_in_items(
        items in 1u64..10_000,
        ii in 1u64..8,
        latency in 0u64..32,
    ) {
        let stages = [StageTiming::new("s", ii, latency)];
        let a = pipeline_cycles(items, &stages);
        let b = pipeline_cycles(items + 1, &stages);
        prop_assert_eq!(b - a, ii);
    }

    #[test]
    fn higher_parallelism_comparator_time_never_slower(
        vals in prop::collection::vec(-100.0f32..100.0, 16..256),
        k_frac in 0.1f64..0.9,
    ) {
        // Same seed → same pivots → same pass structure. Wider comparator
        // arrays strictly reduce per-pass streaming time, but their zero
        // eliminator is log₂(P) stages deeper, so allow that per-pass
        // latency difference (the passes count is identical).
        let k = ((vals.len() as f64) * k_frac) as usize;
        let lo = TopkEngine::new(2, 9).select(&vals, k);
        let hi = TopkEngine::new(32, 9).select(&vals, k);
        prop_assert_eq!(lo.passes, hi.passes);
        let ze_diff = (ZeroEliminator::new(32).latency_cycles()
            - ZeroEliminator::new(2).latency_cycles())
            * u64::from(hi.passes + 1);
        prop_assert!(hi.cycles <= lo.cycles + ze_diff);
    }
}
