//! Pipeline composition (paper §IV-A: "modules on the critical path
//! (6, 7, 8, 10, 11) are fully pipelined to maximize the throughput").
//!
//! A chain of pipelined stages each with an initiation interval (cycles per
//! item once full) and a fill latency processes `items` work units in
//! `Σ latency + max(II) · (items − 1) + 1` cycles: the slowest stage's
//! initiation interval bounds steady-state throughput and every stage's
//! latency is paid once while the pipeline fills.

/// One pipelined stage's timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageTiming {
    /// Stage name (for breakdown reports).
    pub name: &'static str,
    /// Cycles between consecutive items in steady state (≥ 1).
    pub initiation_interval: u64,
    /// One-time fill latency in cycles.
    pub latency: u64,
}

impl StageTiming {
    /// Convenience constructor.
    pub const fn new(name: &'static str, initiation_interval: u64, latency: u64) -> Self {
        Self {
            name,
            initiation_interval,
            latency,
        }
    }
}

/// Total cycles for `items` units flowing through `stages`.
///
/// Zero items cost nothing; an empty stage list is a wire.
///
/// # Panics
///
/// Panics if any stage has a zero initiation interval.
pub fn pipeline_cycles(items: u64, stages: &[StageTiming]) -> u64 {
    if items == 0 || stages.is_empty() {
        return 0;
    }
    let mut fill = 0u64;
    let mut bottleneck = 1u64;
    for s in stages {
        assert!(
            s.initiation_interval >= 1,
            "stage {} has zero initiation interval",
            s.name
        );
        fill += s.latency;
        bottleneck = bottleneck.max(s.initiation_interval);
    }
    fill + bottleneck * (items - 1) + 1
}

/// Identifies the bottleneck stage (largest initiation interval; first wins
/// ties). Returns `None` for an empty list.
pub fn bottleneck_stage(stages: &[StageTiming]) -> Option<&StageTiming> {
    stages.iter().max_by(|a, b| {
        a.initiation_interval
            .cmp(&b.initiation_interval)
            .then(std::cmp::Ordering::Greater) // keep the earlier on ties
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stages() -> Vec<StageTiming> {
        vec![
            StageTiming::new("fetch", 1, 4),
            StageTiming::new("qk", 2, 3),
            StageTiming::new("softmax", 1, 12),
            StageTiming::new("pv", 2, 3),
        ]
    }

    #[test]
    fn single_item_pays_only_latencies() {
        assert_eq!(pipeline_cycles(1, &stages()), 4 + 3 + 12 + 3 + 1);
    }

    #[test]
    fn steady_state_is_bottleneck_bound() {
        let many = pipeline_cycles(1001, &stages());
        let one = pipeline_cycles(1, &stages());
        // 1000 extra items at II = 2 each.
        assert_eq!(many - one, 1000 * 2);
    }

    #[test]
    fn zero_items_cost_nothing() {
        assert_eq!(pipeline_cycles(0, &stages()), 0);
        assert_eq!(pipeline_cycles(5, &[]), 0);
    }

    #[test]
    fn bottleneck_identified() {
        let s = stages();
        let b = bottleneck_stage(&s).unwrap();
        assert_eq!(b.initiation_interval, 2);
    }

    #[test]
    #[should_panic(expected = "zero initiation interval")]
    fn zero_ii_rejected() {
        let bad = [StageTiming::new("bad", 0, 0)];
        let _ = pipeline_cycles(1, &bad);
    }
}
