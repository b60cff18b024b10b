//! Event-driven pipeline simulation with bounded buffers and backpressure.
//!
//! The analytic model in [`crate::pipeline`] assumes infinitely elastic
//! buffers between stages; the real datapath has 64-deep FIFOs (Table I).
//! This module simulates a chain of pipelined stages at item granularity
//! with the classic bounded-buffer recurrence:
//!
//! * a stage can *start* item `i` once (a) its own previous item vacated
//!   the initiation interval, (b) the upstream stage *finished* item `i`,
//!   and (c) the downstream buffer has room — i.e. item `i − capacity` has
//!   already been started downstream.
//!
//! The simulator reports per-stage busy and stall cycles, which is how the
//! design-space exploration attributes bottlenecks, and it degenerates to
//! exactly the analytic `pipeline_cycles` when buffers are deep enough —
//! which a test asserts.

use crate::pipeline::StageTiming;

/// One stage of the event-driven pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferedStage {
    /// Timing (name, initiation interval, latency).
    pub timing: StageTiming,
    /// Capacity of the FIFO *in front of* this stage (items). The first
    /// stage's buffer models the input queue.
    pub input_capacity: usize,
}

impl BufferedStage {
    /// Convenience constructor.
    pub const fn new(timing: StageTiming, input_capacity: usize) -> Self {
        Self {
            timing,
            input_capacity,
        }
    }
}

/// What an event-driven run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventStats {
    /// Cycle at which the last item left the last stage.
    pub total_cycles: u64,
    /// Per-stage busy cycles (`items × II`).
    pub busy_cycles: Vec<u64>,
    /// Per-stage cycles spent blocked by downstream backpressure.
    pub stall_cycles: Vec<u64>,
}

impl EventStats {
    /// Index of the stage with the highest busy time.
    pub fn bottleneck(&self) -> usize {
        self.busy_cycles
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// A chain of buffered stages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventDrivenPipeline {
    stages: Vec<BufferedStage>,
}

impl EventDrivenPipeline {
    /// Builds a pipeline from stages.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty, any initiation interval is zero, or any
    /// buffer capacity is zero.
    pub fn new(stages: Vec<BufferedStage>) -> Self {
        assert!(!stages.is_empty(), "pipeline needs at least one stage");
        for s in &stages {
            assert!(
                s.timing.initiation_interval >= 1,
                "stage {} has zero II",
                s.timing.name
            );
            assert!(
                s.input_capacity >= 1,
                "stage {} has zero buffer",
                s.timing.name
            );
        }
        Self { stages }
    }

    /// The stages.
    pub fn stages(&self) -> &[BufferedStage] {
        &self.stages
    }

    /// Simulates `items` flowing through the chain.
    pub fn simulate(&self, items: u64) -> EventStats {
        let n_stages = self.stages.len();
        let n = items as usize;
        if n == 0 {
            return EventStats {
                total_cycles: 0,
                busy_cycles: vec![0; n_stages],
                stall_cycles: vec![0; n_stages],
            };
        }

        // start[s][i] / finish[s][i] for stage s, item i.
        let mut start = vec![vec![0u64; n]; n_stages];
        let mut finish = vec![vec![0u64; n]; n_stages];
        let mut stalls = vec![0u64; n_stages];

        for i in 0..n {
            for s in 0..n_stages {
                let ii = self.stages[s].timing.initiation_interval;
                let lat = self.stages[s].timing.latency;
                // (a) own previous issue slot
                let mut t = if i > 0 { start[s][i - 1] + ii } else { 0 };
                // (b) upstream completion
                if s > 0 {
                    t = t.max(finish[s - 1][i]);
                }
                let unconstrained = t;
                // (c) downstream buffer room: the buffer in front of stage
                // s+1 holds items that stage s finished but s+1 has not yet
                // started; it has `capacity` slots.
                if s + 1 < n_stages {
                    let cap = self.stages[s + 1].input_capacity;
                    if i >= cap {
                        t = t.max(start[s + 1][i - cap]);
                    }
                }
                stalls[s] += t - unconstrained;
                start[s][i] = t;
                finish[s][i] = t + ii + lat;
            }
        }

        let busy: Vec<u64> = self
            .stages
            .iter()
            .map(|s| items * s.timing.initiation_interval)
            .collect();
        EventStats {
            total_cycles: finish[n_stages - 1][n - 1],
            busy_cycles: busy,
            stall_cycles: stalls,
        }
    }
}

/// Builds the SpAtten critical-path pipeline (modules 6,7,8,10,11 of
/// Fig. 8) for a given per-query workload shape, with Table I's 64-deep
/// FIFOs.
pub fn spatten_critical_path(
    l1: usize,
    trees: usize,
    softmax_parallelism: usize,
    topk_interval: u64,
) -> EventDrivenPipeline {
    let qk_ii = (l1 as u64).div_ceil(trees as u64).max(1);
    let sm_ii = (l1 as u64).div_ceil(softmax_parallelism as u64).max(1) + 1;
    EventDrivenPipeline::new(vec![
        BufferedStage::new(StageTiming::new("fetch", 1, 4), 64),
        BufferedStage::new(StageTiming::new("qk", qk_ii, 3), 64),
        BufferedStage::new(StageTiming::new("softmax", sm_ii, 12), 128),
        BufferedStage::new(
            StageTiming::new("topk_local_v", topk_interval.max(1), 8),
            64,
        ),
        BufferedStage::new(StageTiming::new("pv", qk_ii, 3), 64),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::pipeline_cycles;

    fn timings() -> Vec<StageTiming> {
        vec![
            StageTiming::new("a", 1, 2),
            StageTiming::new("b", 3, 5),
            StageTiming::new("c", 2, 1),
        ]
    }

    #[test]
    fn deep_buffers_match_analytic_model() {
        let stages: Vec<BufferedStage> = timings()
            .into_iter()
            .map(|t| BufferedStage::new(t, 10_000))
            .collect();
        let pipe = EventDrivenPipeline::new(stages);
        for items in [1u64, 2, 10, 500] {
            let event = pipe.simulate(items).total_cycles;
            let analytic = pipeline_cycles(items, &timings());
            // The analytic model counts `fill + II·(n−1) + 1`; the event
            // model counts issue+II+latency per stage. They agree up to a
            // constant offset ≤ the per-stage II sum.
            let slack = timings().iter().map(|t| t.initiation_interval).sum::<u64>();
            assert!(
                event.abs_diff(analytic) <= slack,
                "items {items}: event {event} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn tiny_buffers_cause_stalls_and_slowdown() {
        let deep: Vec<BufferedStage> = timings()
            .into_iter()
            .map(|t| BufferedStage::new(t, 1000))
            .collect();
        let shallow: Vec<BufferedStage> = timings()
            .into_iter()
            .map(|t| BufferedStage::new(t, 1))
            .collect();
        let fast = EventDrivenPipeline::new(deep).simulate(200);
        let slow = EventDrivenPipeline::new(shallow).simulate(200);
        assert!(slow.total_cycles >= fast.total_cycles);
        assert!(
            slow.stall_cycles.iter().sum::<u64>() > 0,
            "1-deep buffers must stall"
        );
    }

    #[test]
    fn bottleneck_is_the_slowest_stage() {
        let stages: Vec<BufferedStage> = timings()
            .into_iter()
            .map(|t| BufferedStage::new(t, 64))
            .collect();
        let stats = EventDrivenPipeline::new(stages).simulate(100);
        assert_eq!(stats.bottleneck(), 1); // "b" with II=3
    }

    #[test]
    fn throughput_is_bottleneck_bound_in_steady_state() {
        let stages: Vec<BufferedStage> = timings()
            .into_iter()
            .map(|t| BufferedStage::new(t, 64))
            .collect();
        let pipe = EventDrivenPipeline::new(stages);
        let a = pipe.simulate(1000).total_cycles;
        let b = pipe.simulate(2000).total_cycles;
        assert_eq!(
            b - a,
            1000 * 3,
            "steady-state delta must be II_max per item"
        );
    }

    #[test]
    fn spatten_critical_path_shape() {
        // 1024 keys, 8-wide trees, softmax 8, top-k interval 128: the
        // Q·K stage (II 128) and top-k (II 128) tie; total for a single
        // query ≈ fill + one pass.
        let pipe = spatten_critical_path(1024, 8, 8, 128);
        let one = pipe.simulate(1).total_cycles;
        assert!(one > 128, "must include at least one II");
        // 16 queries back-to-back: steady II = 129 (softmax +1).
        let many = pipe.simulate(17).total_cycles;
        assert_eq!(many - one, 16 * 129);
    }

    #[test]
    fn zero_items_are_free() {
        let stages = vec![BufferedStage::new(StageTiming::new("x", 1, 1), 4)];
        assert_eq!(EventDrivenPipeline::new(stages).simulate(0).total_cycles, 0);
    }

    #[test]
    #[should_panic(expected = "zero buffer")]
    fn zero_capacity_rejected() {
        let _ = EventDrivenPipeline::new(vec![BufferedStage::new(StageTiming::new("x", 1, 0), 0)]);
    }
}
