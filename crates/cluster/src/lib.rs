//! # spatten-cluster — sharded multi-chip SpAtten execution
//!
//! `spatten-serve` scales *out*: independent jobs over independent chips.
//! This crate scales *up*: one model executed **across** chips, which is
//! what the serving layer needs the moment a model (or its KV working
//! set, or its target latency) outgrows a single accelerator:
//!
//! * [`topology`] — the interconnect model: [`Topology`] (ring /
//!   fully-connected) and [`Interconnect`] — per-hop latency + bandwidth
//!   transfer costs, contention-aware link scheduling, and ring /
//!   all-to-all all-reduce collectives.
//! * [`shard`] — [`ShardStrategy`]: **tensor parallelism** (attention
//!   heads and FC columns split N-way, with per-layer all-reduces whose
//!   payload follows the *pruned* survivor set) and **pipeline
//!   parallelism** (contiguous layer ranges, micro-batched with explicit
//!   bubble accounting), built on the shardable cost queries of
//!   `spatten_core::perf` and `SpAttenE2e`.
//! * [`place`] — the placement planner: assigns shards to a heterogeneous
//!   [`FleetSpec`](spatten_workloads::fleet::FleetSpec) (Table-I chips
//!   mixed with 1/8-scale ones), heaviest shards on the fastest silicon,
//!   rejecting any plan that overflows a chip's K/V SRAMs.
//! * [`group`] — [`GroupSpec`] + [`ClusterCostModel`]: a sharded group as
//!   one logical executor implementing [`spatten_serve::FleetCost`], so
//!   the existing schedulers / batcher / metrics drive groups unchanged.
//! * [`sim`] — [`cluster_engine`] / [`simulate_cluster`]: the serving
//!   engine over groups, plus [`ClusterConfig::carve`] to split a fleet
//!   into planned groups.
//!
//! # Quick start
//!
//! ```
//! use spatten_cluster::{simulate_cluster, ClusterConfig, GroupSpec, ShardStrategy};
//! use spatten_core::SpAttenConfig;
//! use spatten_serve::Policy;
//! use spatten_workloads::fleet::{LinkSpec, TopologySpec};
//! use spatten_workloads::{ArrivalSpec, TraceSpec};
//!
//! // One 4-way tensor-parallel group on a ring.
//! let group = GroupSpec::homogeneous(
//!     SpAttenConfig::default(),
//!     ShardStrategy::tensor(4),
//!     TopologySpec::Ring,
//!     LinkSpec::default(),
//! );
//! let cluster = ClusterConfig::new(vec![group], Policy::ContinuousBatching);
//! let trace = TraceSpec::gpt2_decode(
//!     ArrivalSpec::OpenPoisson { rate_rps: 300.0, requests: 50 },
//!     7,
//! )
//! .generate();
//! let report = simulate_cluster(&cluster, &trace);
//! assert_eq!(report.completed, 50);
//! ```

pub mod group;
pub mod place;
pub mod shard;
pub mod sim;
pub mod topology;

pub use group::{ClusterCostModel, GroupSpec};
pub use place::{
    plan, plan_with_costs, plan_with_costs_kv, resolve_chip, shard_costs, shard_page_budget,
    PlaceError, Placement, ShardCosts,
};
pub use shard::{
    activation_bytes, prefill_survivors, shard_decode, shard_kv_footprint, shard_kv_peak,
    shard_prefill, ShardStrategy,
};
pub use sim::{cluster_engine, simulate_cluster, unsharded_cluster, ClusterConfig};
pub use topology::{Interconnect, Topology};

// The scheduling knobs a cluster run composes with, re-exported so
// cluster users configure routing / stealing / preemption without
// depending on `spatten-serve` directly (`ClusterConfig::sched` carries
// these into `spatten_serve::fleet_engine_policy`).
pub use spatten_serve::{KvSpec, Policy, PreemptSpec, RouteSpec, SchedKnobs, StealSpec};
