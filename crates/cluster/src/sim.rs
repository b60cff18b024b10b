//! Cluster simulation: sharded chip groups behind the serving event loop.
//!
//! [`cluster_engine`] is to groups what [`spatten_serve::fleet_engine`]
//! is to chips: it wires a [`ClusterCostModel`] into the one
//! discrete-event loop ([`spatten_serve::FleetEngine`]), so every
//! scheduler policy, the KV-footprint batcher, chunked prefill and the
//! metrics stack apply unchanged — one logical executor per group, link
//! time folded into each group's step costs. [`simulate_cluster`]
//! replays a trace through it.

use crate::group::{ClusterCostModel, GroupSpec};
use crate::place::{plan_with_costs, resolve_chip, shard_costs, PlaceError};
use crate::shard::ShardStrategy;
use spatten_serve::{
    fleet_engine_policy, ElasticSchedule, FleetReport, Policy, PolicyFleetEngine, PoolSpec,
    SchedKnobs,
};
use spatten_workloads::fleet::FleetSpec;
use spatten_workloads::{Trace, Workload};

/// A cluster of sharded chip groups plus serving parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The chip groups (each one logical executor).
    pub groups: Vec<GroupSpec>,
    /// Scheduling policy across groups.
    pub policy: Policy,
    /// Cap on jobs resident per group under continuous batching.
    pub max_batch: usize,
    /// FC weight bitwidth for end-to-end costs; `None` prices attention
    /// only.
    pub fc_weight_bits: Option<u32>,
    /// Policy tuning knobs (see `spatten_serve::SchedKnobs`).
    pub sched: SchedKnobs,
    /// Disaggregated prefill/decode pools over the *groups* (one role
    /// per group — a whole sharded group is a prefill or decode
    /// specialist). `None` is co-located serving.
    pub pools: Option<PoolSpec>,
    /// Elasticity schedule over the *groups*: every index is a group
    /// index, and a group-level leave drains (or revokes) the whole
    /// sharded group at once — a maintenance window takes all of a
    /// group's shards out together, never half a tensor-parallel slice.
    /// Groups listed as joins or reserve must already be in
    /// [`ClusterConfig::groups`] (they start cold and pay their
    /// weight-load delay — every shard streams its slice, priced by the
    /// slowest — when brought up). `None` is a fixed cluster.
    pub elastic: Option<ElasticSchedule>,
}

impl ClusterConfig {
    /// A cluster of `groups` under `policy` with the serving defaults of
    /// `spatten_serve::FleetConfig::new` (8-bit FC, batch 8).
    pub fn new(groups: Vec<GroupSpec>, policy: Policy) -> Self {
        Self {
            groups,
            policy,
            max_batch: 8,
            fc_weight_bits: Some(8),
            sched: SchedKnobs::default(),
            pools: None,
            elastic: None,
        }
    }

    /// Carves `fleet` into as many `strategy`-sharded groups as it can
    /// host, placing each group with the planner against the
    /// representative workload `w` (heaviest shards on the fastest
    /// remaining silicon). Chips left over when the fleet size isn't a
    /// multiple of the shard count stay idle.
    ///
    /// Returns an error if even one group cannot be placed.
    pub fn carve(
        fleet: &FleetSpec,
        strategy: &ShardStrategy,
        w: &Workload,
        policy: Policy,
    ) -> Result<Self, PlaceError> {
        let fc_bits = Some(8);
        let shards = strategy.shards();
        // Shard prices depend on (chip class, shard), not on which chips
        // remain — compute the table once for every group carved.
        let costs = shard_costs(&fleet.chips, strategy, w, fc_bits);
        let mut remaining = fleet.clone();
        let mut groups = Vec::new();
        while remaining.len() >= shards {
            let placement = plan_with_costs(&remaining, strategy, w, &costs)?;
            groups.push(GroupSpec {
                chips: placement.chips.clone(),
                strategy: strategy.clone(),
                topology: fleet.topology,
                link: fleet.link,
            });
            // Remove the consumed chips (highest index first).
            let mut used = placement.chip_indices.clone();
            used.sort_unstable_by(|a, b| b.cmp(a));
            for idx in used {
                remaining.chips.remove(idx);
            }
        }
        if groups.is_empty() {
            return Err(PlaceError::NotEnoughChips {
                shards,
                chips: fleet.len(),
            });
        }
        Ok(Self::new(groups, policy))
    }

    /// The shared core clock of every chip in the cluster.
    ///
    /// # Panics
    ///
    /// Panics if the cluster is empty or clocks differ (the event queue
    /// ticks in one clock domain).
    pub fn clock_ghz(&self) -> f64 {
        let clock = self.groups[0].chips[0].clock_ghz;
        assert!(
            self.groups
                .iter()
                .flat_map(|g| g.chips.iter())
                .all(|c| c.clock_ghz.to_bits() == clock.to_bits()),
            "cluster chips must share a core clock"
        );
        clock
    }
}

/// Simulates `trace` on the cluster: `cluster_engine(cfg).replay(trace)`.
/// Deterministic for fixed inputs.
///
/// # Panics
///
/// Panics if the cluster has no groups or inconsistent clocks.
pub fn simulate_cluster(cfg: &ClusterConfig, trace: &Trace) -> FleetReport {
    cluster_engine(cfg).replay(trace)
}

/// The cluster as a resumable [`FleetEngine`](spatten_serve::FleetEngine),
/// paused before the first event: one logical executor per sharded
/// group. Attach a `TokenSink`, inject live requests, and step virtual
/// time explicitly, or replay a whole trace ([`simulate_cluster`]).
///
/// # Panics
///
/// Panics if the cluster has no groups or inconsistent clocks.
pub fn cluster_engine(cfg: &ClusterConfig) -> PolicyFleetEngine<ClusterCostModel> {
    let clock = cfg.clock_ghz();
    let cost = ClusterCostModel::new(cfg.groups.clone(), cfg.fc_weight_bits);
    fleet_engine_policy(
        cost,
        cfg.groups.len(),
        cfg.policy,
        &cfg.sched,
        cfg.pools.clone(),
        cfg.elastic.clone(),
        cfg.max_batch,
        clock,
    )
}

/// Convenience: a cluster carved from a [`FleetSpec`] by resolving every
/// chip class, without sharding (one single-chip group per chip) — the
/// degenerate baseline sharded sweeps compare against.
pub fn unsharded_cluster(fleet: &FleetSpec, policy: Policy) -> ClusterConfig {
    let groups = fleet
        .chips
        .iter()
        .map(|&class| GroupSpec {
            chips: vec![resolve_chip(class)],
            strategy: ShardStrategy::tensor(1),
            topology: fleet.topology,
            link: fleet.link,
        })
        .collect();
    ClusterConfig::new(groups, policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatten_core::SpAttenConfig;
    use spatten_workloads::fleet::{LinkSpec, TopologySpec};
    use spatten_workloads::{ArrivalSpec, Benchmark, TraceSpec};

    fn decode_trace(requests: usize, rate: f64, seed: u64) -> Trace {
        TraceSpec::gpt2_decode(
            ArrivalSpec::OpenPoisson {
                rate_rps: rate,
                requests,
            },
            seed,
        )
        .generate()
    }

    fn tp_cluster(groups: usize, ways: usize) -> ClusterConfig {
        let group = GroupSpec::homogeneous(
            SpAttenConfig::default(),
            ShardStrategy::tensor(ways),
            TopologySpec::Ring,
            LinkSpec::default(),
        );
        ClusterConfig::new(vec![group; groups], Policy::ContinuousBatching)
    }

    #[test]
    fn sharded_cluster_completes_every_request() {
        let trace = decode_trace(120, 400.0, 3);
        let report = simulate_cluster(&tp_cluster(2, 4), &trace);
        assert_eq!(report.completed, 120);
        assert!(report.latency.p99 >= report.latency.p50);
        // Deterministic.
        let again = simulate_cluster(&tp_cluster(2, 4), &trace);
        assert_eq!(report.completions, again.completions);
    }

    #[test]
    fn cluster_engine_replay_matches_the_offline_entry_point() {
        use std::sync::{Arc, Mutex};

        struct CountingSink(Arc<Mutex<usize>>);
        impl spatten_serve::TokenSink for CountingSink {
            fn on_tokens(&mut self, ev: &spatten_serve::TokenEvent) {
                *self.0.lock().unwrap() += ev.count;
            }
        }

        let trace = decode_trace(80, 400.0, 5);
        let cfg = tp_cluster(2, 2);
        let offline = simulate_cluster(&cfg, &trace);
        let tokens = Arc::new(Mutex::new(0usize));
        let mut engine = cluster_engine(&cfg);
        engine.set_sink(Box::new(CountingSink(tokens.clone())));
        let Trace::Open { requests } = &trace else {
            unreachable!()
        };
        for r in requests {
            engine.inject(r);
        }
        let streamed = engine.drain();
        assert_eq!(streamed, offline);
        let generated: usize = offline.completions.iter().map(|c| c.generated_tokens).sum();
        assert_eq!(*tokens.lock().unwrap(), generated);
        assert!(generated > 0, "a decode trace generates tokens");
    }

    #[test]
    fn carve_builds_groups_and_leaves_remainder_idle() {
        let fleet = FleetSpec::ring_of(7);
        let w = Benchmark::gpt2_small_wikitext2().workload();
        let cfg = ClusterConfig::carve(
            &fleet,
            &ShardStrategy::tensor(2),
            &w,
            Policy::ContinuousBatching,
        )
        .unwrap();
        assert_eq!(cfg.groups.len(), 3, "7 chips carve into 3 pairs");
        assert!(cfg.groups.iter().all(|g| g.chips.len() == 2));
    }

    #[test]
    fn mixed_fleet_carve_pairs_like_with_like() {
        // 2 full + 2 eighth chips, 2-way TP: the planner puts the first
        // group on the two full chips, leaving the eighths to pair up.
        let fleet = FleetSpec::mixed(2, 2);
        let w = Benchmark::gpt2_small_wikitext2().workload();
        let cfg = ClusterConfig::carve(
            &fleet,
            &ShardStrategy::tensor(2),
            &w,
            Policy::ContinuousBatching,
        )
        .unwrap();
        assert_eq!(cfg.groups.len(), 2);
        let full = SpAttenConfig::default();
        assert!(cfg.groups[0].chips.iter().all(|c| *c == full));
        assert!(cfg.groups[1].chips.iter().all(|c| *c != full));
    }

    #[test]
    fn unsharded_cluster_matches_fleet_size() {
        let fleet = FleetSpec::mixed(1, 3);
        let cfg = unsharded_cluster(&fleet, Policy::Fifo);
        assert_eq!(cfg.groups.len(), 4);
        let trace = decode_trace(40, 200.0, 9);
        let report = simulate_cluster(&cfg, &trace);
        assert_eq!(report.completed, 40);
    }
}
