//! # spatten-serve — a trace-driven multi-accelerator serving simulator
//!
//! The crates below this one model *one* SpAtten chip running *one*
//! workload. Production inference doesn't look like that: traffic is a
//! stream of mixed requests (BERT summarization jobs next to GPT-2
//! generation jobs), served by a fleet of accelerators behind a scheduler,
//! and the numbers that matter are throughput, utilization and **tail
//! latency** — not single-run cycle counts. This crate wraps the
//! cycle-accurate perf model in exactly that harness:
//!
//! * [`cost`] — [`CostModel`]: memoized incremental cost queries
//!   (`prefill`, per-token `decode`, KV-cache SRAM footprints) against
//!   `spatten_core::perf`, optionally end-to-end with SpAtten-e2e FC
//!   weight streaming. Memo entries are keyed by chip configuration, so a
//!   heterogeneous fleet (Table-I chips next to 1/8-scale ones) never
//!   shares cached costs across hardware. The [`FleetCost`] trait is the
//!   chip-indexed interface the rest of the crate programs against —
//!   `spatten-cluster` implements it for sharded multi-chip groups.
//! * [`route`] — the **routing seam**: [`RoutingPolicy`] assigns each
//!   arriving job to a chip *at arrival time* — cost-model-probed
//!   fastest-chip (queued **and in-service** backlog), churn-aware,
//!   speed-weighted least-KV-loaded, hash-affinity — replacing the
//!   chip-agnostic shared queue on heterogeneous fleets. When routing
//!   still guesses wrong, the scheduler's work-stealing knob
//!   ([`StealSpec`]) lets idle chips pull work back out of backlogged
//!   private queues.
//! * [`scheduler`] — the **admission seam**: [`AdmissionPolicy`] decides
//!   who enters a chip's running batch under the KV budget. Bundled:
//!   FIFO, shortest-job-first, arrival-order continuous batching,
//!   priority-ordered admission, KV-footprint-aware reordering with an
//!   explicit starvation bound, and SLO-aware early rejection.
//! * [`batch`] — the **batching seam**: [`BatchPolicy`] decides how one
//!   iteration's budget splits between chunked prefill and decode steps.
//!   Bundled: run-to-completion, uniform iterations, and Sarathi-style
//!   decode-prioritized token budgets.
//! * [`preempt`] — the **preemption seam**: [`PreemptionPolicy`] may
//!   evict resident jobs at round boundaries for higher-priority queued
//!   work. Victims' KV state swaps through HBM (priced by
//!   [`FleetCost::swap_cycles_on`]) and their progress is preserved —
//!   preemption trades the victim's latency, never its work.
//! * [`chip`] — the per-chip event loop: queue wait, execution
//!   serialization, and HBM-bandwidth-aware co-scheduling (one job's
//!   compute overlaps another's KV/weight streaming; each resource
//!   serializes within itself).
//! * [`kv`] — the **paged KV allocator** ([`KvPager`], opt-in via
//!   `SchedKnobs::kv`): fixed-size blocks per chip, per-job page tables,
//!   refcounted copy-on-write sharing of per-class system-prompt
//!   prefixes with a scored persistent prefix cache, and pruning-aware
//!   mid-stream page reclaim as the cascade retires tokens. Fit checks
//!   price through [`PagedCost`]; preemption swaps unique pages only.
//! * [`disagg`] — the **disaggregation layer** ([`PoolSpec`], opt-in
//!   via fleet roles): prefill-specialist and decode-specialist pools,
//!   pool-aware arrival routing, and a priced prefill→decode KV handoff
//!   — bytes are the job's unique dirty pruned blocks (shared prefix
//!   blocks already warm on the target move for free), cycles are
//!   charged into both chips through
//!   [`FleetCost::handoff_cycles_on`].
//! * [`elastic`] — the **elasticity layer** ([`FleetEvents`], opt-in via
//!   `FleetConfig::elastic`): scheduled chip drains and spot-style
//!   revocations (residents migrate through the preemption machinery,
//!   losing no work), cold joins priced by weight streaming through
//!   [`FleetCost::weight_load_cycles_on`], resident-model tags that
//!   charge cross-model placements the weight-swap price, and the
//!   [`AutoscalePolicy`] seam with a threshold-hysteresis default
//!   against a reserve fleet.
//! * [`engine`] — the discrete-event fleet simulator, [`FleetEngine`]:
//!   the one event loop, generic over the five seams, so every policy
//!   runs through it. It is resumable — an explicit `inject` /
//!   `step_until` / `drain` step API, [`FleetEngine::replay`] for whole
//!   open-loop (Poisson, MMPP, diurnal) or closed-loop traces from
//!   `spatten_workloads::trace` — with a [`TokenSink`] seam that surfaces
//!   per-token completions ([`TokenEvent`]) as rounds retire. The
//!   `spatten-frontd` binary drives the same engine from live HTTP
//!   traffic over a virtual-time bridge.
//! * [`sim`] — [`FleetConfig`] and its one lowering, [`fleet_engine`];
//!   [`simulate_fleet`] is `fleet_engine(cfg).replay(trace)`. Custom
//!   seams skip the config and call [`FleetEngine::new`]; canonical
//!   policies over any [`FleetCost`] use [`fleet_engine_policy`].
//! * [`metrics`] — throughput (req/s, tokens/s), goodput, utilization,
//!   p50/p95/p99 latency / queue-wait / TTFT / time-between-tokens, and
//!   per-class SLO, priority and preemption accounting, with a JSON
//!   report writer.
//!
//! # Quick start
//!
//! ```
//! use spatten_serve::{simulate_fleet, FleetConfig, Policy};
//! use spatten_workloads::{ArrivalSpec, TraceSpec};
//!
//! let trace = TraceSpec::mixed(
//!     ArrivalSpec::OpenPoisson { rate_rps: 2000.0, requests: 100 },
//!     7,
//! )
//! .generate();
//! let report = simulate_fleet(&FleetConfig::new(4, Policy::ContinuousBatching), &trace);
//! assert_eq!(report.completed, 100);
//! assert!(report.latency.p99 >= report.latency.p50);
//! println!("{}", report.to_json());
//! ```

pub mod batch;
pub mod chip;
pub mod cost;
pub mod disagg;
pub mod elastic;
pub mod engine;
pub mod json;
pub mod kv;
pub mod metrics;
pub mod preempt;
pub mod request;
pub mod route;
pub mod scheduler;
pub mod sim;

pub use batch::{
    BatchPolicy, DecodePrioritizedBatch, IterationBatch, ResidentView, RoundStep, RunToCompletion,
};
pub use cost::{
    model_weight_bytes, representative, CfgKey, ClassKey, CostModel, FleetCost, CTX_BUCKET,
};
pub use disagg::{PoolAwareRouting, PoolSpec};
pub use elastic::{
    AutoscalePolicy, AutoscaleSpec, Availability, ChipJoin, ChipLeave, ElasticChipStats,
    ElasticSchedule, ElasticSpec, FleetEvents, FleetLoadView, LeaveMode, ThresholdHysteresis,
};
pub use engine::{
    fleet_engine_policy, ns_to_cycles, FleetEngine, PolicyFleetEngine, TokenEvent, TokenSink,
};
pub use kv::{JobKvNeed, KvPager, KvSpec, KvStats, PagedCost};
pub use metrics::{ChipStats, ClassStats, FleetReport, LiveSnapshot, Percentiles};
pub use preempt::{NoPreemption, PreemptionPolicy, PriorityPreemption, VictimView};
pub use request::{Completion, Job, Rejection, ResumeState};
pub use route::{
    ChipLoad, ChurnAwareRouting, FastestChipRouting, HashAffinityRouting, LeastKvLoadedRouting,
    RoutingPolicy, SharedQueueRouting,
};
pub use scheduler::{
    remaining_cycles_on, Admission, AdmissionPolicy, ArrivalOrderAdmission, ChipCapacity,
    FifoAdmission, KvAwareAdmission, PendingQueue, Policy, PreemptSpec, PriorityAdmission,
    QueuedJob, RouteSpec, SchedKnobs, Scheduler, SimMode, SjfAdmission, SloAwareAdmission,
    StealSpec,
};
pub use sim::{fleet_engine, simulate_fleet, FleetConfig};
