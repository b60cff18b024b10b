//! Pluggable admission policies: who enters a chip's running batch.
//!
//! Scheduling is split into four orthogonal policy seams the event loop
//! is generic over:
//!
//! * **Routing** ([`crate::route::RoutingPolicy`]) — which chip an
//!   arriving job is assigned to, *at arrival time*, before it ever
//!   queues: cost-model-probed fastest-chip, least-KV-loaded, or
//!   hash-affinity placement ahead of the chip-agnostic shared queue.
//! * **Admission** ([`AdmissionPolicy`], this module) — which queued jobs
//!   join a chip's resident set at a round boundary, under the chip's KV
//!   budget and batch-slot capacity.
//! * **Batching** ([`crate::batch::BatchPolicy`]) — how the admitted
//!   residents share one iteration: whole jobs, uniform chunked-prefill +
//!   decode interleaving, or decode-prioritized token budgets.
//! * **Preemption** ([`crate::preempt::PreemptionPolicy`]) — whether
//!   resident jobs can be evicted mid-decode for higher-priority queued
//!   work, with KV swap costs charged and progress preserved.
//!
//! A fifth, corrective seam rides on the scheduler itself: **work
//! stealing** ([`StealSpec`], [`SchedKnobs::steal`]) lets a chip that
//! goes idle with an empty private queue take the costliest-fit job from
//! the most backlogged peer's private queue, bounding the damage when a
//! routing decision turns out wrong.
//!
//! The bundled admission policies:
//!
//! * [`FifoAdmission`] — strict arrival order, one job per idle chip,
//!   run-to-completion. The baseline every serving system starts from, and
//!   the one whose p99 collapses first: a long generation job at the head
//!   of the queue blocks everything behind it for its entire lifetime.
//! * [`SjfAdmission`] — shortest predicted job first (by
//!   [`FleetCost::job_serial_on`]), run-to-completion. Fixes mean latency,
//!   still head-of-line blocks while a long job *executes*, and starves
//!   long jobs under pressure.
//! * [`ArrivalOrderAdmission`] — iteration-level admission in strict
//!   arrival order, bounded by KV footprint: the continuous-batching
//!   front-end. Stops at the first job that doesn't fit, so FIFO's
//!   no-starvation property is preserved.
//! * [`PriorityAdmission`] — iteration-level admission in priority order
//!   (higher [`crate::request::Job::priority`] first, oldest first within
//!   a tier), bounded by KV footprint. The front-end of preemptive
//!   priority scheduling: paired with
//!   [`crate::preempt::PriorityPreemption`], a
//!   latency-critical arrival both jumps the queue *and* can displace a
//!   resident batch job.
//! * [`KvAwareAdmission`] — KV-footprint-aware reordering: scans past
//!   jobs that don't fit the remaining budget and admits later ones that
//!   do, packing the SRAM tighter under mixed footprints. Every overtake
//!   increments the skipped job's counter; a job skipped `max_skip` times
//!   becomes a barrier no one may pass, so starvation is bounded by
//!   construction.
//! * [`SloAwareAdmission`] — arrival-order batching plus early rejection:
//!   a queued job whose deadline can no longer be met *even if it started
//!   immediately* is shed before it consumes any chip cycles, protecting
//!   goodput under overload instead of letting every request straggle.
//!
//! The [`Policy`] enum names the seven canonical (admission, batching)
//! pairings and builds boxed policy objects for runtime sweeps; routing,
//! stealing and preemption compose with *any* of them through
//! [`SchedKnobs::route`], [`SchedKnobs::steal`] and
//! [`SchedKnobs::preempt`]. The engine itself
//! ([`FleetEngine::new`](crate::engine::FleetEngine::new)) is generic and
//! accepts any trait implementation.

use crate::batch::{BatchPolicy, DecodePrioritizedBatch, IterationBatch, RunToCompletion};
use crate::cost::FleetCost;
use crate::kv::KvSpec;
use crate::preempt::{NoPreemption, PreemptionPolicy, PriorityPreemption};
use crate::request::Job;
use crate::route::{
    ChipLoad, ChurnAwareRouting, FastestChipRouting, HashAffinityRouting, LeastKvLoadedRouting,
    RoutingPolicy, SharedQueueRouting,
};
use serde::{Deserialize, Serialize};
use spatten_workloads::PoolRole;
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::fmt;

/// The seven canonical scheduling policies, as (admission, batching)
/// pairs. Routing and preemption are orthogonal: any policy composes
/// with any [`SchedKnobs::route`] / [`SchedKnobs::preempt`] setting.
///
/// ```
/// use spatten_serve::{Policy, SchedKnobs};
///
/// let knobs = SchedKnobs::default();
/// for policy in Policy::ALL {
///     // Every canonical policy builds a boxed (admission, batching) pair.
///     let _admission = policy.admission(&knobs);
///     let _batch = policy.batch(&knobs);
/// }
/// assert_eq!(Policy::DecodePrioritized.name(), "decode-prioritized");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Policy {
    /// First-in first-out, run-to-completion.
    Fifo,
    /// Shortest predicted job first, run-to-completion.
    Sjf,
    /// Continuous batching packed by KV-cache SRAM footprint, uniform
    /// chunked-prefill + decode iterations.
    ContinuousBatching,
    /// Continuous batching with Sarathi-style decode-prioritized
    /// iteration budgets: decode steps are reserved first, leftover
    /// budget is filled with chunked prefill.
    DecodePrioritized,
    /// KV-footprint-aware queue reordering with a per-job starvation
    /// bound ([`SchedKnobs::max_skip`]).
    KvAware,
    /// Continuous batching plus SLO-aware early rejection of jobs whose
    /// deadline is already unmeetable.
    SloAware,
    /// Priority-ordered continuous batching: the queue drains highest
    /// priority first (oldest first within a tier). Pair with
    /// [`PreemptSpec::Priority`] for fully preemptive priority
    /// scheduling.
    Priority,
}

impl Policy {
    /// All policies, in the order the bench report lists them.
    pub const ALL: [Policy; 7] = [
        Policy::Fifo,
        Policy::Sjf,
        Policy::ContinuousBatching,
        Policy::DecodePrioritized,
        Policy::KvAware,
        Policy::SloAware,
        Policy::Priority,
    ];

    /// Stable lowercase name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Fifo => "fifo",
            Policy::Sjf => "sjf",
            Policy::ContinuousBatching => "continuous-batching",
            Policy::DecodePrioritized => "decode-prioritized",
            Policy::KvAware => "kv-aware",
            Policy::SloAware => "slo-aware",
            Policy::Priority => "priority",
        }
    }

    /// Builds this policy's admission half.
    pub fn admission(&self, knobs: &SchedKnobs) -> Box<dyn AdmissionPolicy> {
        match self {
            Policy::Fifo => Box::new(FifoAdmission),
            Policy::Sjf => Box::new(SjfAdmission),
            Policy::ContinuousBatching | Policy::DecodePrioritized => {
                Box::new(ArrivalOrderAdmission)
            }
            Policy::KvAware => Box::new(KvAwareAdmission {
                max_skip: knobs.max_skip,
            }),
            Policy::SloAware => Box::new(SloAwareAdmission::default()),
            Policy::Priority => Box::new(PriorityAdmission),
        }
    }

    /// Builds this policy's batching half.
    pub fn batch(&self, knobs: &SchedKnobs) -> Box<dyn BatchPolicy> {
        match self {
            Policy::Fifo | Policy::Sjf => Box::new(RunToCompletion),
            Policy::ContinuousBatching | Policy::KvAware | Policy::SloAware | Policy::Priority => {
                Box::new(IterationBatch {
                    prefill_chunk_cycles: knobs.prefill_chunk_cycles,
                })
            }
            Policy::DecodePrioritized => Box::new(DecodePrioritizedBatch {
                prefill_chunk_cycles: knobs.prefill_chunk_cycles,
                prefill_budget_cycles: knobs.prefill_budget_cycles,
            }),
        }
    }
}

/// The canonical routing policies, as a serializable knob — any
/// [`Policy`] composes with any of them (see [`SchedKnobs::route`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RouteSpec {
    /// No routing: one shared queue any chip may drain (the default, and
    /// the work-conserving choice for homogeneous fleets).
    #[default]
    SharedQueue,
    /// Cost-model-probed: minimize queued + in-service backlog plus the
    /// job's own serial cycles on the target chip
    /// ([`crate::route::FastestChipRouting`]).
    FastestChip,
    /// Fastest-chip with queued backlog discounted on chips whose
    /// less-loaded peers can profitably steal from them — the router's
    /// estimate prices the [`StealSpec::CostliestFit`] drain it knows
    /// will happen
    /// ([`crate::route::FastestChipRouting::steal_aware`]).
    FastestStealAware,
    /// The fastest-chip estimate penalized by recent eviction churn, so
    /// preemptable work routes around preemption hotspots
    /// ([`crate::route::ChurnAwareRouting`]).
    ChurnAware,
    /// Lowest fractional KV pressure, weighted by the chip's probed
    /// serial cost ([`crate::route::LeastKvLoadedRouting`]).
    LeastKvLoaded,
    /// Deterministic client/request hash
    /// ([`crate::route::HashAffinityRouting`]).
    HashAffinity,
    /// Pool-targeted: fastest-chip restricted to the pool matching the
    /// job's phase — fresh arrivals to the prefill pool, decode-phase
    /// work to the decode pool ([`crate::disagg::PoolAwareRouting`]).
    /// On a role-free fleet it degrades to fastest-chip.
    PoolAware,
}

impl RouteSpec {
    /// Stable lowercase name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            RouteSpec::SharedQueue => "shared-queue",
            RouteSpec::FastestChip => "fastest-chip",
            RouteSpec::FastestStealAware => "fastest-chip-steal-aware",
            RouteSpec::ChurnAware => "churn-aware",
            RouteSpec::LeastKvLoaded => "least-kv-loaded",
            RouteSpec::HashAffinity => "hash-affinity",
            RouteSpec::PoolAware => "pool-aware",
        }
    }

    /// Builds the boxed routing policy this spec names.
    pub fn build(&self) -> Box<dyn RoutingPolicy> {
        match self {
            RouteSpec::SharedQueue => Box::new(SharedQueueRouting),
            RouteSpec::FastestChip => Box::new(FastestChipRouting::default()),
            RouteSpec::FastestStealAware => Box::new(FastestChipRouting::steal_aware()),
            RouteSpec::ChurnAware => Box::new(ChurnAwareRouting::default()),
            RouteSpec::LeastKvLoaded => Box::new(LeastKvLoadedRouting),
            RouteSpec::HashAffinity => Box::new(HashAffinityRouting),
            RouteSpec::PoolAware => Box::new(crate::disagg::PoolAwareRouting),
        }
    }
}

/// The work-stealing knob: whether a chip that goes idle with an empty
/// private queue may steal from a backlogged peer's private queue. Any
/// [`Policy`] and any [`RouteSpec`] compose with it (see
/// [`SchedKnobs::steal`]).
///
/// Routing decides placement once, at arrival, from an *estimate*; when
/// the estimate is wrong (hash affinity ignores load entirely; even a
/// cost-probed estimate drifts as residents run long) the mistake is
/// permanent — a fast chip idles while a slow chip's private queue
/// grows without bound. Stealing bounds that failure mode: the idle
/// chip takes the costliest-fit job from the most backlogged peer,
/// respecting the thief's KV budget, the queue's priority order, and
/// the pin on preempted-resumed jobs (their swapped KV prefix lives in
/// their own chip's HBM — they are never stolen).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum StealSpec {
    /// No stealing: routed jobs run where the router put them (the
    /// default, and the PR 4 behavior bit-for-bit).
    #[default]
    Off,
    /// An idle chip with an empty private queue steals the costliest job
    /// that fits its free KV budget (highest priority tier first) from
    /// the peer with the largest pending-cycle backlog.
    CostliestFit,
}

impl StealSpec {
    /// Stable lowercase name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            StealSpec::Off => "off",
            StealSpec::CostliestFit => "costliest-fit",
        }
    }
}

/// The canonical preemption policies, as a serializable knob — any
/// [`Policy`] composes with any of them (see [`SchedKnobs::preempt`]).
/// Note that run-to-completion policies ([`Policy::Fifo`] /
/// [`Policy::Sjf`]) never trigger eviction: their single resident
/// always leaves free batch slots, so no queued job ever looks blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PreemptSpec {
    /// No eviction: admitted jobs keep their slot to completion.
    #[default]
    None,
    /// Priority-driven eviction with the
    /// [`SchedKnobs::max_preemptions`] fairness bound
    /// ([`crate::preempt::PriorityPreemption`]).
    Priority,
}

impl PreemptSpec {
    /// Stable lowercase name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            PreemptSpec::None => "none",
            PreemptSpec::Priority => "priority",
        }
    }

    /// Builds the boxed preemption policy this spec names.
    pub fn build(&self, knobs: &SchedKnobs) -> Box<dyn PreemptionPolicy> {
        match self {
            PreemptSpec::None => Box::new(NoPreemption),
            PreemptSpec::Priority => Box::new(PriorityPreemption {
                fairness: knobs.max_preemptions,
            }),
        }
    }
}

/// Execution mode of the fleet simulator.
///
/// The event loop itself is inherently serial — its determinism contract
/// *is* the total order of `(time, seq)` keys — but the expensive part
/// of a large simulation is not the loop: it is the cycle-accurate cost
/// plane (every distinct `(chip config, class, context bucket)` price is
/// computed once by running the `spatten-core` perf model). Those
/// entries are pure functions of their key, so they can be computed on
/// worker threads in any order and merged deterministically before the
/// event loop starts.
///
/// [`SimMode::ParallelRounds`] does exactly that: the trace's class ×
/// context-length grid is pre-priced across `threads` scoped workers,
/// and the serial event loop then runs entirely on memo hits. The
/// resulting [`FleetReport`](crate::FleetReport) is **bit-for-bit
/// identical** to [`SimMode::Serial`] — by construction, since the memo
/// is semantically transparent — and independent of `threads`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SimMode {
    /// Everything on the calling thread (the default).
    #[default]
    Serial,
    /// Pre-price the cost plane on worker threads, then run the serial
    /// event loop on a warm memo.
    ParallelRounds {
        /// Worker threads for the pre-pricing pass; `0` = one per
        /// available CPU.
        threads: usize,
    },
}

impl SimMode {
    /// The worker-thread count this mode resolves to on this machine.
    pub fn threads(&self) -> usize {
        match self {
            SimMode::Serial => 1,
            SimMode::ParallelRounds { threads: 0 } => {
                std::thread::available_parallelism().map_or(1, |n| n.get())
            }
            SimMode::ParallelRounds { threads } => *threads,
        }
    }
}

/// Tuning knobs shared by the canonical policies. Defaults match the
/// Table-I serving configuration and reproduce the pre-routing,
/// non-preemptive behavior exactly.
///
/// ```
/// use spatten_serve::{PreemptSpec, RouteSpec, SchedKnobs};
///
/// // Preemptive priority scheduling with fastest-chip routing:
/// let knobs = SchedKnobs {
///     route: RouteSpec::FastestChip,
///     preempt: PreemptSpec::Priority,
///     ..SchedKnobs::default()
/// };
/// assert_eq!(knobs.route.build().name(), "fastest-chip");
/// assert_eq!(knobs.preempt.build(&knobs).name(), "priority");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchedKnobs {
    /// Chunked-prefill quantum: the most serial prefill work one job may
    /// contribute per iteration (≈ one GPT-2-Small end-to-end decode step
    /// at 1 GHz), so resident decode jobs never stall behind whole
    /// multi-millisecond prefill passes.
    pub prefill_chunk_cycles: u64,
    /// Decode-prioritized iteration budget for *total* prefill work per
    /// iteration (shared across all resident prefills, oldest first),
    /// once every resident decode job has its step reserved.
    pub prefill_budget_cycles: u64,
    /// KV-aware reordering starvation bound: the most times one queued
    /// job may be overtaken before it becomes an admission barrier.
    pub max_skip: u32,
    /// Admission-time routing across the fleet (default: the
    /// chip-agnostic shared queue).
    pub route: RouteSpec,
    /// Work-stealing between private queues when routing misestimates
    /// (default: off).
    pub steal: StealSpec,
    /// Preemption of resident jobs (default: none).
    pub preempt: PreemptSpec,
    /// Preemption fairness bound: the most times any one job may be
    /// evicted before it becomes immune.
    pub max_preemptions: u32,
    /// KV allocation model: contiguous per-job reservations (default,
    /// the historical behavior bit-for-bit) or the paged allocator with
    /// copy-on-write prefix sharing and pruning-aware reclaim
    /// ([`crate::kv::KvPager`]).
    pub kv: KvSpec,
    /// Simulator execution mode: serial (default) or parallel cost-plane
    /// pre-pricing with a bit-identical report ([`SimMode`]).
    pub mode: SimMode,
}

impl Default for SchedKnobs {
    fn default() -> Self {
        Self {
            prefill_chunk_cycles: 250_000,
            prefill_budget_cycles: 250_000,
            max_skip: 4,
            route: RouteSpec::SharedQueue,
            steal: StealSpec::Off,
            preempt: PreemptSpec::None,
            max_preemptions: 4,
            kv: KvSpec::Contiguous,
            mode: SimMode::Serial,
        }
    }
}

/// The serial cycles `job` still needs on `chip`: the whole job for a
/// fresh arrival, and the unexecuted prefill remainder plus the
/// undecoded steps for a job resuming from preemption
/// ([`crate::request::ResumeState`]). This is the one pricing function
/// behind all backlog bookkeeping — the scheduler's per-queue
/// `pending_cycles`, the chip's in-service estimate
/// ([`crate::chip::Chip::in_service_cycles`]), and the stealing
/// cost ranking — so queued and resident work stay comparable and the
/// estimates cannot drift apart.
pub fn remaining_cycles_on<C: FleetCost + ?Sized>(cost: &mut C, chip: usize, job: &Job) -> u64 {
    let w = &job.workload;
    let Some(r) = &job.resume else {
        return cost.job_serial_on(chip, w);
    };
    let mut total = if r.prefilled {
        0
    } else {
        cost.prefill_on(chip, w)
            .serial_cycles
            .saturating_sub(r.prefill_progress)
    };
    let done = if r.prefilled { r.steps_done } else { 0 };
    for step in done..w.gen_steps {
        total += cost.decode_on(chip, w, w.seq_len + step + 1).serial_cycles;
    }
    total
}

/// A chip's admission capacity, passed to [`AdmissionPolicy::admit`] and
/// [`PreemptionPolicy::victims`].
#[derive(Debug, Clone, Copy)]
pub struct ChipCapacity {
    /// Jobs currently resident on the chip.
    pub active: usize,
    /// Remaining KV-cache SRAM bytes.
    pub kv_free: u64,
    /// Remaining batch slots (`max_batch - active`).
    pub slots: usize,
}

/// One queued job plus its reordering bookkeeping.
#[derive(Debug)]
pub struct QueuedJob {
    /// The pending job.
    pub job: Job,
    /// Times a later arrival has been admitted past this job.
    pub skips: u32,
}

/// A pending queue in arrival order — the shared fleet-wide queue, or
/// one chip's private routed queue. Admission policies inspect it,
/// remove the jobs they admit or reject, and record overtakes on the
/// jobs they skip.
#[derive(Debug, Default)]
pub struct PendingQueue {
    jobs: VecDeque<QueuedJob>,
}

impl PendingQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an arrival (queue order is arrival order).
    pub fn push(&mut self, job: Job) {
        self.jobs.push_back(QueuedJob { job, skips: 0 });
    }

    /// Prepends a job — used to re-queue preempted jobs, which arrived
    /// before anything currently queued and must not lose their place.
    pub fn push_front(&mut self, job: Job) {
        self.jobs.push_front(QueuedJob { job, skips: 0 });
    }

    /// Jobs waiting.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The queued job at position `i` (0 = oldest).
    pub fn get(&self, i: usize) -> &QueuedJob {
        &self.jobs[i]
    }

    /// Removes and returns the job at position `i`.
    pub fn remove(&mut self, i: usize) -> Job {
        self.jobs.remove(i).expect("queue index in range").job
    }

    /// Records one overtake of the job at position `i`.
    pub fn add_skip(&mut self, i: usize) {
        self.jobs[i].skips += 1;
    }

    /// Iterates the queue in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &QueuedJob> {
        self.jobs.iter()
    }
}

/// What one admission call decided: jobs the chip should admit now, and
/// jobs shed from the queue (SLO-aware early rejection).
#[derive(Debug, Default)]
pub struct Admission {
    /// Jobs to admit into the calling chip's resident set.
    pub jobs: Vec<Job>,
    /// Jobs dropped from the queue without ever touching a chip.
    pub rejected: Vec<Job>,
}

/// The admission seam: which pending jobs enter the calling chip's
/// resident set at a round boundary. Implementations see the whole
/// queue, the chip's capacity, and the fleet cost oracle (priced against
/// the *calling* chip, so heterogeneous fleets pack each chip by its own
/// budget).
///
/// ```
/// use spatten_serve::{
///     Admission, AdmissionPolicy, ChipCapacity, FleetCost, PendingQueue,
/// };
///
/// /// Admit the newest arrival first (a toy LIFO policy).
/// #[derive(Debug)]
/// struct Lifo;
/// impl AdmissionPolicy for Lifo {
///     fn name(&self) -> &'static str {
///         "lifo"
///     }
///     fn admit(
///         &mut self,
///         queue: &mut PendingQueue,
///         _cost: &mut dyn FleetCost,
///         _chip: usize,
///         cap: ChipCapacity,
///         _now: u64,
///     ) -> Admission {
///         let mut out = Admission::default();
///         if cap.slots > 0 && !queue.is_empty() {
///             out.jobs.push(queue.remove(queue.len() - 1));
///         }
///         out
///     }
/// }
/// ```
pub trait AdmissionPolicy: fmt::Debug {
    /// Stable lowercase name for reports.
    fn name(&self) -> &'static str;

    /// Decides admissions (and rejections) for logical executor `chip`
    /// with capacity `cap` at time `now`.
    fn admit(
        &mut self,
        queue: &mut PendingQueue,
        cost: &mut dyn FleetCost,
        chip: usize,
        cap: ChipCapacity,
        now: u64,
    ) -> Admission;
}

impl AdmissionPolicy for Box<dyn AdmissionPolicy> {
    fn name(&self) -> &'static str {
        self.as_ref().name()
    }

    fn admit(
        &mut self,
        queue: &mut PendingQueue,
        cost: &mut dyn FleetCost,
        chip: usize,
        cap: ChipCapacity,
        now: u64,
    ) -> Admission {
        self.as_mut().admit(queue, cost, chip, cap, now)
    }
}

/// Strict arrival order, one job per idle chip, run-to-completion.
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoAdmission;

impl AdmissionPolicy for FifoAdmission {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn admit(
        &mut self,
        queue: &mut PendingQueue,
        _cost: &mut dyn FleetCost,
        _chip: usize,
        cap: ChipCapacity,
        _now: u64,
    ) -> Admission {
        let mut out = Admission::default();
        if cap.active == 0 && !queue.is_empty() {
            out.jobs.push(queue.remove(0));
        }
        out
    }
}

/// Shortest predicted job first, run-to-completion.
#[derive(Debug, Clone, Copy, Default)]
pub struct SjfAdmission;

impl AdmissionPolicy for SjfAdmission {
    fn name(&self) -> &'static str {
        "sjf"
    }

    fn admit(
        &mut self,
        queue: &mut PendingQueue,
        cost: &mut dyn FleetCost,
        chip: usize,
        cap: ChipCapacity,
        _now: u64,
    ) -> Admission {
        let mut out = Admission::default();
        if cap.active == 0 && !queue.is_empty() {
            let best = (0..queue.len())
                .min_by_key(|&i| (cost.job_serial_on(chip, &queue.get(i).job.workload), i))
                .expect("non-empty queue");
            out.jobs.push(queue.remove(best));
        }
        out
    }
}

/// Iteration-level admission in strict arrival order, bounded by KV
/// footprint — the continuous-batching front-end. Stops at the first job
/// that doesn't fit: skipping ahead would pack tighter but reintroduces
/// starvation, and the batcher's fairness guarantee matters more than the
/// last few SRAM bytes (that trade is [`KvAwareAdmission`]'s, with an
/// explicit bound).
#[derive(Debug, Clone, Copy, Default)]
pub struct ArrivalOrderAdmission;

impl AdmissionPolicy for ArrivalOrderAdmission {
    fn name(&self) -> &'static str {
        "continuous-batching"
    }

    fn admit(
        &mut self,
        queue: &mut PendingQueue,
        cost: &mut dyn FleetCost,
        chip: usize,
        cap: ChipCapacity,
        _now: u64,
    ) -> Admission {
        let mut out = Admission::default();
        let mut kv_free = cap.kv_free;
        let mut slots = cap.slots;
        while slots > 0 && !queue.is_empty() {
            let footprint = cost.job_footprint_on(chip, &queue.get(0).job);
            if footprint > kv_free {
                break;
            }
            kv_free -= footprint;
            slots -= 1;
            out.jobs.push(queue.remove(0));
        }
        out
    }
}

/// Iteration-level admission in **priority order**: the queue drains
/// highest-[`Job::priority`] first, oldest first within a tier, bounded
/// by KV footprint and batch slots. Stops at the first candidate that
/// doesn't fit (no skipping within or across tiers), so with uniform
/// priorities it degenerates exactly to [`ArrivalOrderAdmission`].
/// Low-priority starvation under a sustained high-priority flood is
/// inherent to strict priority queues; the preemption fairness bound
/// ([`SchedKnobs::max_preemptions`]) protects jobs that already made it
/// on chip, and the flood has to end before the backlog drains.
#[derive(Debug, Clone, Copy, Default)]
pub struct PriorityAdmission;

impl AdmissionPolicy for PriorityAdmission {
    fn name(&self) -> &'static str {
        "priority"
    }

    fn admit(
        &mut self,
        queue: &mut PendingQueue,
        cost: &mut dyn FleetCost,
        chip: usize,
        cap: ChipCapacity,
        _now: u64,
    ) -> Admission {
        let mut out = Admission::default();
        let mut kv_free = cap.kv_free;
        let mut slots = cap.slots;
        while slots > 0 && !queue.is_empty() {
            // Highest priority; the smallest index within a tier is the
            // oldest arrival (queue order is arrival order).
            let best = (0..queue.len())
                .max_by_key(|&i| (queue.get(i).job.priority, Reverse(i)))
                .expect("non-empty queue");
            let footprint = cost.job_footprint_on(chip, &queue.get(best).job);
            if footprint > kv_free {
                break;
            }
            kv_free -= footprint;
            slots -= 1;
            out.jobs.push(queue.remove(best));
        }
        out
    }
}

/// KV-footprint-aware reordering with an explicit starvation bound: the
/// scan admits any queued job that fits the remaining budget, jumping
/// over jobs that don't. Each jump increments the skipped job's counter;
/// once a job has been overtaken `max_skip` times it becomes a barrier —
/// nothing behind it is admitted until it fits — so no request waits for
/// more than `max_skip` queue-jumpers, ever.
#[derive(Debug, Clone, Copy)]
pub struct KvAwareAdmission {
    /// The most times one job may be overtaken.
    pub max_skip: u32,
}

impl AdmissionPolicy for KvAwareAdmission {
    fn name(&self) -> &'static str {
        "kv-aware"
    }

    fn admit(
        &mut self,
        queue: &mut PendingQueue,
        cost: &mut dyn FleetCost,
        chip: usize,
        cap: ChipCapacity,
        _now: u64,
    ) -> Admission {
        let mut out = Admission::default();
        let mut kv_free = cap.kv_free;
        let mut slots = cap.slots;
        // Queue positions scanned past because they didn't fit. They keep
        // their positions as later jobs are removed, because every removal
        // happens at a higher index.
        let mut passed: Vec<usize> = Vec::new();
        let mut i = 0;
        while slots > 0 && i < queue.len() {
            let q = queue.get(i);
            let footprint = cost.job_footprint_on(chip, &q.job);
            if footprint > kv_free {
                if q.skips >= self.max_skip {
                    break; // starvation barrier: nobody may pass this job
                }
                passed.push(i);
                i += 1;
                continue;
            }
            // Admitting past a job that has exhausted its skip allowance
            // would break the bound — stop instead.
            if passed.iter().any(|&p| queue.get(p).skips >= self.max_skip) {
                break;
            }
            for &p in &passed {
                queue.add_skip(p);
            }
            kv_free -= footprint;
            slots -= 1;
            out.jobs.push(queue.remove(i));
        }
        out
    }
}

/// Arrival-order batching plus SLO-aware early rejection: a queued job
/// is shed only when its deadline can no longer be met even by starting
/// *immediately* on the most favorable chip the fleet has shown this
/// policy (`now + serial > deadline` on every chip seen) — a guaranteed
/// loser, not merely a bad fit for the chip that happens to be asking.
/// Rejected work never consumes chip cycles, so the capacity it would
/// have wasted on a certain violation serves requests that can still
/// win.
#[derive(Debug, Clone, Default)]
pub struct SloAwareAdmission {
    /// Every chip index whose admission this policy has handled. All
    /// chips are polled on each arrival, so after the first event this
    /// covers the fleet; until a chip has introduced itself its speed is
    /// unknown and cannot condemn a job.
    chips_seen: Vec<usize>,
}

impl AdmissionPolicy for SloAwareAdmission {
    fn name(&self) -> &'static str {
        "slo-aware"
    }

    fn admit(
        &mut self,
        queue: &mut PendingQueue,
        cost: &mut dyn FleetCost,
        chip: usize,
        cap: ChipCapacity,
        now: u64,
    ) -> Admission {
        if !self.chips_seen.contains(&chip) {
            self.chips_seen.push(chip);
        }
        let mut out = Admission::default();
        // Shed hopeless jobs anywhere in the queue first: hopeless means
        // no known chip could finish the job by its deadline even if it
        // started this instant (heterogeneous fleets: a job too slow for
        // an eighth-scale chip may still win on a full one).
        let mut i = 0;
        while i < queue.len() {
            let job = &queue.get(i).job;
            let hopeless = job.deadline_cycles.is_some_and(|d| {
                self.chips_seen
                    .iter()
                    .all(|&c| now + cost.job_serial_on(c, &job.workload) > d)
            });
            if hopeless {
                out.rejected.push(queue.remove(i));
            } else {
                i += 1;
            }
        }
        // Then admit exactly like the arrival-order batcher.
        let batched = ArrivalOrderAdmission.admit(queue, cost, chip, cap, now);
        out.jobs = batched.jobs;
        out
    }
}

/// The fleet-wide pending queues plus the routing policy that splits
/// arrivals across them and the admission policy that drains them.
///
/// Without routing ([`SharedQueueRouting`], the default) every arrival
/// lands in one shared queue and behavior is identical to the
/// single-queue scheduler of PRs 1–3. With routing, each chip owns a
/// private queue the router fills at arrival time; admission drains a
/// chip's private queue first and the shared queue second, under the
/// same policy. Preempted jobs are always re-queued at the front of the
/// *evicting* chip's private queue: their KV prefix was drained into
/// that chip's HBM, so they are pinned there (the pin is asserted at
/// admission) and no other chip — by routing or by stealing — may pick
/// them up.
#[derive(Debug)]
pub struct Scheduler<A: AdmissionPolicy, R: RoutingPolicy = SharedQueueRouting> {
    policy: A,
    router: R,
    steal: StealSpec,
    shared: PendingQueue,
    routed: Vec<PendingQueue>,
    /// Serial-cycle backlog estimate per private queue (each routed job's
    /// remaining cost on its chip) — the load signal
    /// [`FastestChipRouting`] balances on and stealing drains.
    pending_cycles: Vec<u64>,
    /// KV footprint estimate per private queue.
    pending_kv: Vec<u64>,
    /// Jobs each chip has stolen from peers' private queues.
    steals: Vec<u64>,
    /// Victim-side serial cycles relieved by each chip's steals.
    stolen_cycles: Vec<u64>,
    /// Per-chip pool roles (all [`PoolRole::Flex`] on co-located
    /// fleets): a decode-specialist thief never steals — the only
    /// stealable jobs are fresh unprefilled arrivals, which need a
    /// prefill pass the specialist refuses to run.
    roles: Vec<PoolRole>,
    admitted: u64,
    /// Reusable steal-scan ranking buffer (peer indices by backlog),
    /// refilled per [`Scheduler::steal_into`] call instead of allocated
    /// — the scan runs on every idle kick at saturation.
    steal_scratch: Vec<usize>,
}

impl<A: AdmissionPolicy, R: RoutingPolicy> Scheduler<A, R> {
    /// An empty scheduler for `chips` executors, admitting with `policy`
    /// and routing with `router`. Stealing defaults to
    /// [`StealSpec::Off`]; enable it with [`Scheduler::with_steal`].
    pub fn new(policy: A, router: R, chips: usize) -> Self {
        Self {
            policy,
            router,
            steal: StealSpec::Off,
            shared: PendingQueue::new(),
            routed: (0..chips).map(|_| PendingQueue::new()).collect(),
            pending_cycles: vec![0; chips],
            pending_kv: vec![0; chips],
            steals: vec![0; chips],
            stolen_cycles: vec![0; chips],
            roles: vec![PoolRole::Flex; chips],
            admitted: 0,
            steal_scratch: Vec::with_capacity(chips),
        }
    }

    /// Sets the work-stealing knob.
    pub fn with_steal(mut self, steal: StealSpec) -> Self {
        self.steal = steal;
        self
    }

    /// Sets the per-chip pool roles (disaggregated fleets).
    ///
    /// # Panics
    ///
    /// Panics if `roles` doesn't cover every chip.
    pub fn with_roles(mut self, roles: Vec<PoolRole>) -> Self {
        assert_eq!(roles.len(), self.routed.len(), "one role per chip");
        self.roles = roles;
        self
    }

    /// Jobs waiting for a chip (shared + every private queue).
    pub fn pending(&self) -> usize {
        self.shared.len() + self.routed.iter().map(PendingQueue::len).sum::<usize>()
    }

    /// Jobs waiting in `chip`'s private queue.
    pub fn pending_on(&self, chip: usize) -> usize {
        self.routed[chip].len()
    }

    /// Serial-cycle backlog estimate of `chip`'s private queue.
    pub fn pending_cycles_on(&self, chip: usize) -> u64 {
        self.pending_cycles[chip]
    }

    /// KV footprint estimate of `chip`'s private queue.
    pub fn pending_kv_on(&self, chip: usize) -> u64 {
        self.pending_kv[chip]
    }

    /// Total jobs handed to chips so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Whether the routing policy ever places jobs (the event loop skips
    /// building load snapshots when it doesn't).
    pub fn routes(&self) -> bool {
        self.router.routes()
    }

    /// Enqueues an arrival, letting the router place it: into a chip's
    /// private queue, or the shared queue when the router abstains.
    pub fn on_arrival<C: FleetCost>(
        &mut self,
        job: Job,
        cost: &mut C,
        loads: &[ChipLoad],
        now: u64,
    ) {
        match self.router.route(&job, cost, loads, now) {
            Some(chip) => {
                self.charge(chip, &job, cost);
                self.routed[chip].push(job);
            }
            None => self.shared.push(job),
        }
    }

    /// Re-queues a preempted job at the front of the *evicting* chip's
    /// private queue — always, routing active or not. The victim's KV
    /// prefix was drained into that chip's HBM, so admitting it anywhere
    /// else would resume against swap state that isn't there (the pin is
    /// asserted at [`crate::chip::Chip::admit`]). Under shared-queue
    /// routing PR 4 parked victims at the shared queue's front instead,
    /// where *any* chip's admission could — and on multi-chip fleets did
    /// — migrate them; this is the fix. The front, because the victim
    /// arrived before anything still waiting. Priority consistency with
    /// the job it was evicted for is preserved by the event loop:
    /// admission runs while victims are off-queue, so the blocked job
    /// claims the freed capacity before the victim is back in line.
    pub fn requeue<C: FleetCost>(&mut self, chip: usize, job: Job, cost: &mut C) {
        debug_assert!(
            job.resume.is_none_or(|r| r.chip == chip),
            "requeue must target the pinned chip"
        );
        self.charge(chip, &job, cost);
        self.routed[chip].push_front(job);
    }

    /// The jobs `chip` could admit, in admission-scan order: its private
    /// queue first, then the shared queue, each oldest first.
    pub fn queued_for(&self, chip: usize) -> Vec<&Job> {
        self.routed[chip]
            .iter()
            .chain(self.shared.iter())
            .map(|q| &q.job)
            .collect()
    }

    fn charge<C: FleetCost>(&mut self, chip: usize, job: &Job, cost: &mut C) {
        self.pending_cycles[chip] += remaining_cycles_on(cost, chip, job);
        self.pending_kv[chip] += cost.footprint_on(chip, &job.workload);
    }

    fn discharge<C: FleetCost>(&mut self, chip: usize, job: &Job, cost: &mut C) {
        // Recomputed, not stored: the oracle memoizes and the job's
        // resume state is immutable while queued, so the value is
        // identical to what `charge` added.
        self.pending_cycles[chip] =
            self.pending_cycles[chip].saturating_sub(remaining_cycles_on(cost, chip, job));
        self.pending_kv[chip] =
            self.pending_kv[chip].saturating_sub(cost.footprint_on(chip, &job.workload));
    }

    /// Jobs `chip` has stolen from peers' private queues.
    pub fn steals_on(&self, chip: usize) -> u64 {
        self.steals[chip]
    }

    /// Victim-side serial cycles `chip`'s steals relieved.
    pub fn stolen_cycles_on(&self, chip: usize) -> u64 {
        self.stolen_cycles[chip]
    }

    /// Attempts one steal for idle chip `thief` under the configured
    /// [`StealSpec`]: walks peers in descending pending-cycle backlog
    /// and, from the first peer offering any eligible job, moves the
    /// costliest one (highest priority tier first, oldest within a tier
    /// on a cost tie) into `thief`'s private queue. Eligible means the
    /// job fits `cap` on the thief, is not a preempted-resumed job
    /// (those are pinned to the chip holding their swapped KV prefix and
    /// are never migrated), and — the profitability guard — would
    /// plausibly *finish sooner on the thief*: the thief's whole-job
    /// cost must beat the victim-side queue wait ahead of the job plus
    /// the job's own cost there. Without that guard a slow idle chip
    /// happily steals the longest job a fast chip would have turned
    /// around 8× sooner, and stealing degrades exactly the routing it
    /// exists to back up. (The guard is conservative: it ignores the
    /// victim's in-service backlog, which only makes staying look
    /// cheaper than it is.) Returns whether a job moved (the caller
    /// re-runs admission to claim it).
    pub fn steal_into<C: FleetCost>(
        &mut self,
        cost: &mut C,
        thief: usize,
        cap: ChipCapacity,
        _now: u64,
    ) -> bool {
        /// Most queue positions scanned per victim: bounds the per-kick
        /// cost at saturation, where private queues grow without bound
        /// and every arrival kicks every chip. Front positions are the
        /// oldest jobs — the ones a steal helps most.
        const STEAL_SCAN_CAP: usize = 32;
        if self.steal == StealSpec::Off || cap.slots == 0 {
            return false;
        }
        // A decode-specialist never steals: the only stealable jobs are
        // fresh unprefilled arrivals (resumed jobs are pinned), and those
        // need a prefill pass the specialist's pool exists to avoid.
        if self.roles[thief] == PoolRole::Decode {
            return false;
        }
        // Peers by backlog, most loaded first, ranked in a reusable
        // scratch buffer. The sort key carries the index as an explicit
        // tie-break, so the allocation-free unstable sort yields exactly
        // the order the old stable sort did.
        let mut peers = std::mem::take(&mut self.steal_scratch);
        peers.clear();
        peers.extend(
            (0..self.routed.len()).filter(|&c| {
                c != thief && self.pending_cycles[c] > 0 && !self.routed[c].is_empty()
            }),
        );
        peers.sort_unstable_by_key(|&c| (Reverse(self.pending_cycles[c]), c));
        let mut stole = false;
        for &victim in &peers {
            // The costliest eligible job, priced on the victim chip (the
            // backlog being relieved); top priority tier first so
            // stealing never inverts the order admission would use, and
            // oldest first on a full tie.
            let mut best: Option<((u8, u64), usize)> = None;
            // Victim-side cycles queued ahead of the current position —
            // the serial wait a job at that position faces if it stays.
            let mut ahead: u64 = 0;
            for i in 0..self.routed[victim].len().min(STEAL_SCAN_CAP) {
                let job = &self.routed[victim].get(i).job;
                let victim_cost = remaining_cycles_on(cost, victim, job);
                let stay_cost = ahead + victim_cost;
                ahead += victim_cost;
                if job.resume.is_some() {
                    continue; // pinned to its chip's swapped KV prefix
                }
                if cost.job_footprint_on(thief, job) > cap.kv_free {
                    continue;
                }
                if remaining_cycles_on(cost, thief, job) >= stay_cost {
                    continue; // staying put finishes sooner: don't steal
                }
                let key = (job.priority, victim_cost);
                if best.is_none_or(|(k, _)| key > k) {
                    best = Some((key, i));
                }
            }
            let Some((_, i)) = best else { continue };
            let job = self.routed[victim].remove(i);
            debug_assert!(job.resume.is_none(), "stolen jobs are never pinned");
            self.discharge(victim, &job, cost);
            self.steals[thief] += 1;
            self.stolen_cycles[thief] += remaining_cycles_on(cost, victim, &job);
            self.charge(thief, &job, cost);
            self.routed[thief].push(job);
            stole = true;
            break;
        }
        self.steal_scratch = peers;
        stole
    }

    /// Asks the policy what the calling chip should admit right now: its
    /// private queue first, then the shared queue against whatever
    /// capacity remains. Admitted and rejected jobs are removed from
    /// their queue; an empty decision means the chip stays as it is.
    pub fn take<C: FleetCost>(
        &mut self,
        cost: &mut C,
        chip: usize,
        cap: ChipCapacity,
        now: u64,
    ) -> Admission {
        let mut out = self
            .policy
            .admit(&mut self.routed[chip], cost, chip, cap, now);
        for job in out.jobs.iter().chain(out.rejected.iter()) {
            self.discharge(chip, job, cost);
        }
        let mut cap = cap;
        for job in &out.jobs {
            cap.active += 1;
            cap.slots = cap.slots.saturating_sub(1);
            cap.kv_free = cap.kv_free.saturating_sub(cost.job_footprint_on(chip, job));
        }
        let more = self.policy.admit(&mut self.shared, cost, chip, cap, now);
        out.jobs.extend(more.jobs);
        out.rejected.extend(more.rejected);
        self.admitted += out.jobs.len() as u64;
        out
    }

    /// Like [`Scheduler::take`], but against `chip`'s private queue
    /// only — the admission path of a *draining* chip
    /// ([`Availability::Draining`]): after [`Scheduler::drain_chip`]
    /// strips its unpinned jobs, the private queue holds only work whose
    /// KV prefix lives in this chip's HBM, which the chip must finish
    /// before departing; the shared queue belongs to the survivors.
    ///
    /// [`Availability::Draining`]: crate::elastic::Availability::Draining
    pub fn take_local<C: FleetCost>(
        &mut self,
        cost: &mut C,
        chip: usize,
        cap: ChipCapacity,
        now: u64,
    ) -> Admission {
        let out = self
            .policy
            .admit(&mut self.routed[chip], cost, chip, cap, now);
        for job in out.jobs.iter().chain(out.rejected.iter()) {
            self.discharge(chip, job, cost);
        }
        self.admitted += out.jobs.len() as u64;
        out
    }

    /// Empties `chip`'s private queue for an elastic departure and
    /// returns the removed jobs in queue order. With `include_pinned`
    /// false (a drain) only unpinned jobs leave — work pinned to the
    /// chip's HBM stays and finishes there; with it true (a revocation)
    /// everything goes, and the caller migrates the pinned jobs' KV.
    /// Ledgers are discharged per removed job, so the chip's backlog
    /// estimate ends exactly where re-charging the survivors elsewhere
    /// expects it.
    pub fn drain_chip<C: FleetCost>(
        &mut self,
        chip: usize,
        cost: &mut C,
        include_pinned: bool,
    ) -> Vec<Job> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.routed[chip].len() {
            if include_pinned || self.routed[chip].get(i).job.resume.is_none() {
                let job = self.routed[chip].remove(i);
                self.discharge(chip, &job, cost);
                out.push(job);
            } else {
                i += 1;
            }
        }
        out
    }

    /// Returns a job stripped from a draining chip's private queue to
    /// the *front* of the shared queue (it arrived before anything still
    /// waiting there). The caller iterates its drained batch in reverse
    /// so arrival order is preserved front-to-back.
    pub fn unroute_to_shared_front(&mut self, job: Job) {
        debug_assert!(
            job.resume.is_none(),
            "pinned jobs never return to the shared queue"
        );
        self.shared.push_front(job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use spatten_core::SpAttenConfig;
    use spatten_workloads::{Benchmark, Workload};

    fn job(id: u64, seq_len: usize, gen_steps: usize) -> Job {
        let mut workload: Workload = Benchmark::gpt2_small_wikitext2().workload();
        workload.seq_len = seq_len;
        workload.gen_steps = gen_steps;
        Job {
            id,
            class: 1,
            priority: 0,
            client: None,
            arrival_cycles: id * 10,
            deadline_cycles: None,
            preemptions: 0,
            resume: None,
            shared_prefix_tokens: 0,
            revoked: false,
            workload,
        }
    }

    fn cost() -> CostModel {
        CostModel::end_to_end(SpAttenConfig::default(), 8)
    }

    fn sched<A: AdmissionPolicy>(policy: A) -> Scheduler<A> {
        Scheduler::new(policy, SharedQueueRouting, 1)
    }

    fn idle_cap(slots: usize) -> ChipCapacity {
        ChipCapacity {
            active: 0,
            kv_free: u64::MAX,
            slots,
        }
    }

    #[test]
    fn fifo_hands_out_one_job_in_arrival_order() {
        let mut s = sched(FifoAdmission);
        let mut c = cost();
        for i in 0..3 {
            s.on_arrival(job(i, 64, 4), &mut c, &[], 0);
        }
        let got = s.take(&mut c, 0, idle_cap(8), 0);
        assert_eq!(got.jobs.len(), 1);
        assert_eq!(got.jobs[0].id, 0);
        // A busy chip gets nothing.
        let busy = ChipCapacity {
            active: 1,
            kv_free: u64::MAX,
            slots: 7,
        };
        assert!(s.take(&mut c, 0, busy, 0).jobs.is_empty());
        assert_eq!(s.pending(), 2);
    }

    #[test]
    fn sjf_prefers_the_short_job() {
        let mut s = sched(SjfAdmission);
        let mut c = cost();
        s.on_arrival(job(0, 512, 48), &mut c, &[], 0); // long
        s.on_arrival(job(1, 32, 2), &mut c, &[], 0); // short
        let got = s.take(&mut c, 0, idle_cap(8), 0);
        assert_eq!(got.jobs[0].id, 1);
    }

    #[test]
    fn batcher_fills_until_kv_budget() {
        let mut s = sched(ArrivalOrderAdmission);
        let mut c = cost();
        for i in 0..20 {
            s.on_arrival(job(i, 256, 16), &mut c, &[], 0);
        }
        let budget = c.kv_budget();
        let cap = ChipCapacity {
            active: 0,
            kv_free: budget,
            slots: 16,
        };
        let got = s.take(&mut c, 0, cap, 0).jobs;
        assert!(!got.is_empty());
        assert!(got.len() < 20, "budget must bound the batch");
        let used: u64 = got.iter().map(|j| c.kv_footprint_bytes(&j.workload)).sum();
        assert!(used <= budget, "batch footprint {used} > budget {budget}");
        // Arrival order preserved.
        let ids: Vec<u64> = got.iter().map(|j| j.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn batcher_respects_slots() {
        let mut s = sched(ArrivalOrderAdmission);
        let mut c = cost();
        for i in 0..5 {
            s.on_arrival(job(i, 32, 2), &mut c, &[], 0);
        }
        let cap = ChipCapacity {
            active: 2,
            kv_free: u64::MAX,
            slots: 2,
        };
        assert_eq!(s.take(&mut c, 0, cap, 0).jobs.len(), 2);
    }

    #[test]
    fn priority_admission_drains_highest_tier_oldest_first() {
        let mut s = sched(PriorityAdmission);
        let mut c = cost();
        let mut batch = job(0, 64, 4);
        batch.priority = 0;
        let mut inter_a = job(1, 64, 4);
        inter_a.priority = 2;
        let mut inter_b = job(2, 64, 4);
        inter_b.priority = 2;
        for j in [batch, inter_a, inter_b] {
            s.on_arrival(j, &mut c, &[], 0);
        }
        let got = s.take(&mut c, 0, idle_cap(8), 0).jobs;
        let ids: Vec<u64> = got.iter().map(|j| j.id).collect();
        assert_eq!(
            ids,
            vec![1, 2, 0],
            "priority tier first, oldest first within it"
        );
    }

    #[test]
    fn priority_admission_with_uniform_priorities_is_arrival_order() {
        let mut by_priority = sched(PriorityAdmission);
        let mut by_arrival = sched(ArrivalOrderAdmission);
        let mut c = cost();
        for i in 0..6 {
            by_priority.on_arrival(job(i, 96, 8), &mut c, &[], 0);
            by_arrival.on_arrival(job(i, 96, 8), &mut c, &[], 0);
        }
        let cap = ChipCapacity {
            active: 0,
            kv_free: c.kv_budget(),
            slots: 4,
        };
        let a: Vec<u64> = by_priority
            .take(&mut c, 0, cap, 0)
            .jobs
            .iter()
            .map(|j| j.id)
            .collect();
        let b: Vec<u64> = by_arrival
            .take(&mut c, 0, cap, 0)
            .jobs
            .iter()
            .map(|j| j.id)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn kv_aware_jumps_a_stuck_head_and_packs_tighter() {
        let mut c = cost();
        // A fat job at the head that won't fit the remaining budget,
        // followed by slim ones that will.
        let fat = job(0, 1024, 120);
        let slim = job(1, 48, 4);
        let fat_fp = c.kv_footprint_bytes(&fat.workload);
        let slim_fp = c.kv_footprint_bytes(&slim.workload);
        assert!(fat_fp > slim_fp);
        let cap = ChipCapacity {
            active: 1,
            kv_free: fat_fp - 1, // fat job doesn't fit, slim jobs do
            slots: 4,
        };
        let mut plain = sched(ArrivalOrderAdmission);
        let mut aware = sched(KvAwareAdmission { max_skip: 4 });
        for s in [&mut plain.shared, &mut aware.shared] {
            s.push(fat.clone());
            for i in 1..4 {
                s.push(job(i, 48, 4));
            }
        }
        assert!(plain.take(&mut c, 0, cap, 0).jobs.is_empty());
        let got = aware.take(&mut c, 0, cap, 0).jobs;
        assert_eq!(got.len(), 3, "kv-aware admits the slim jobs");
        assert!(got.iter().all(|j| j.id != 0));
        assert_eq!(aware.shared.get(0).skips, 3, "three overtakes recorded");
    }

    #[test]
    fn kv_aware_barrier_blocks_at_the_bound() {
        let mut c = cost();
        let fat = job(0, 1024, 120);
        let fat_fp = c.kv_footprint_bytes(&fat.workload);
        let cap = ChipCapacity {
            active: 1,
            kv_free: fat_fp - 1,
            slots: 2,
        };
        let mut s = sched(KvAwareAdmission { max_skip: 2 });
        s.on_arrival(fat, &mut c, &[], 0);
        for i in 1..8 {
            s.on_arrival(job(i, 48, 4), &mut c, &[], 0);
        }
        // First take admits 2 slim jobs (2 overtakes — the bound).
        assert_eq!(s.take(&mut c, 0, cap, 0).jobs.len(), 2);
        // The fat job is now a barrier: nothing more is admitted even
        // though slim jobs still fit.
        assert!(s.take(&mut c, 0, cap, 0).jobs.is_empty());
        assert_eq!(s.shared.get(0).skips, 2);
        // Once the fat job itself fits, the queue unblocks through it.
        let roomy = ChipCapacity {
            active: 0,
            kv_free: u64::MAX,
            slots: 8,
        };
        let got = s.take(&mut c, 0, roomy, 0).jobs;
        assert_eq!(got[0].id, 0, "barrier job admitted first");
    }

    #[test]
    fn slo_aware_sheds_hopeless_jobs_and_admits_the_rest() {
        let mut c = cost();
        let mut s = sched(SloAwareAdmission::default());
        let mut hopeless = job(0, 256, 32);
        hopeless.deadline_cycles = Some(10); // cannot finish by cycle 10
        let mut winnable = job(1, 64, 4);
        let serial = c.job_serial_cycles(&winnable.workload);
        winnable.deadline_cycles = Some(serial * 10);
        s.on_arrival(hopeless, &mut c, &[], 0);
        s.on_arrival(winnable, &mut c, &[], 0);
        s.on_arrival(job(2, 64, 4), &mut c, &[], 0); // best-effort, never shed
        let got = s.take(&mut c, 0, idle_cap(8), 0);
        assert_eq!(got.rejected.len(), 1);
        assert_eq!(got.rejected[0].id, 0);
        let ids: Vec<u64> = got.jobs.iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn routed_arrivals_fill_private_queues_and_drain_before_shared() {
        use crate::route::FastestChipRouting;
        let mut c = CostModel::heterogeneous(
            vec![SpAttenConfig::default(), SpAttenConfig::eighth()],
            Some(8),
        );
        let mut s = Scheduler::new(ArrivalOrderAdmission, FastestChipRouting::default(), 2);
        let loads = [
            ChipLoad {
                role: PoolRole::Flex,
                active: 0,
                kv_in_use: 0,
                kv_budget: c.budget_on(0),
                pending_jobs: 0,
                pending_cycles: 0,
                pending_kv: 0,
                in_service_cycles: 0,
                recent_evictions: 0.0,
                leaving: false,
            },
            ChipLoad {
                role: PoolRole::Flex,
                active: 0,
                kv_in_use: 0,
                kv_budget: c.budget_on(1),
                pending_jobs: 0,
                pending_cycles: 0,
                pending_kv: 0,
                in_service_cycles: 0,
                recent_evictions: 0.0,
                leaving: false,
            },
        ];
        // An idle heterogeneous pair: the full-size chip 0 wins the probe.
        s.on_arrival(job(0, 64, 4), &mut c, &loads, 0);
        assert_eq!(s.pending_on(0), 1);
        assert_eq!(s.pending_on(1), 0);
        assert!(s.pending_cycles_on(0) > 0);
        assert!(s.pending_kv_on(0) > 0);
        // Chip 1 finds nothing (its private queue and the shared queue are
        // both empty of admissible work it may claim — the routed job is
        // chip 0's).
        assert!(s.take(&mut c, 1, idle_cap(8), 0).jobs.is_empty());
        let got = s.take(&mut c, 0, idle_cap(8), 0).jobs;
        assert_eq!(got.len(), 1);
        assert_eq!(s.pending_cycles_on(0), 0, "backlog estimate drained");
        assert_eq!(s.pending_kv_on(0), 0);
    }

    #[test]
    fn requeued_jobs_take_the_front_of_their_chips_private_queue() {
        // Shared-queue routing: the victim still returns to the evicting
        // chip's *private* queue — its drained KV prefix lives in that
        // chip's HBM, so no other chip may admit it — and drains before
        // shared work.
        let mut c = cost();
        let mut s = sched(ArrivalOrderAdmission);
        s.on_arrival(job(5, 64, 4), &mut c, &[], 0);
        let mut evicted = job(1, 64, 4);
        evicted.preemptions = 1;
        s.requeue(0, evicted, &mut c);
        assert_eq!(s.pending_on(0), 1, "victim pinned to its chip's queue");
        assert!(s.pending_cycles_on(0) > 0);
        let got = s.take(&mut c, 0, idle_cap(8), 0).jobs;
        assert_eq!(got[0].id, 1);
        assert_eq!(got[1].id, 5);
        assert_eq!(s.pending_cycles_on(0), 0, "backlog estimate drained");

        // Active routing: same destination.
        use crate::route::FastestChipRouting;
        let mut s = Scheduler::new(ArrivalOrderAdmission, FastestChipRouting::default(), 2);
        let mut evicted = job(2, 64, 4);
        evicted.preemptions = 1;
        s.requeue(1, evicted, &mut c);
        assert_eq!(s.pending_on(1), 1);
        assert!(s.pending_cycles_on(1) > 0);
        let got = s.take(&mut c, 1, idle_cap(8), 0).jobs;
        assert_eq!(got[0].id, 2);
    }

    #[test]
    fn remaining_cycles_shrink_with_resume_progress() {
        let mut c = cost();
        let fresh = job(0, 128, 6);
        let full = remaining_cycles_on(&mut c, 0, &fresh);
        assert_eq!(full, c.job_serial_cycles(&fresh.workload));
        // Mid-prefill resume: the prefill remainder plus every decode.
        let mut mid = fresh.clone();
        mid.resume = Some(crate::request::ResumeState {
            chip: 0,
            prefill_progress: 1,
            prefilled: false,
            steps_done: 0,
            start_cycles: 0,
            first_token_cycles: None,
        });
        let resumed = remaining_cycles_on(&mut c, 0, &mid);
        assert_eq!(resumed, full - 1);
        // Mid-decode resume: only the undecoded steps remain.
        let mut deep = fresh.clone();
        deep.resume = Some(crate::request::ResumeState {
            chip: 0,
            prefill_progress: 0,
            prefilled: true,
            steps_done: 4,
            start_cycles: 0,
            first_token_cycles: None,
        });
        let late = remaining_cycles_on(&mut c, 0, &deep);
        assert!(late < resumed);
        // Fully-done resume: nothing left.
        let mut done = fresh.clone();
        done.resume = Some(crate::request::ResumeState {
            chip: 0,
            prefill_progress: 0,
            prefilled: true,
            steps_done: 6,
            start_cycles: 0,
            first_token_cycles: None,
        });
        assert_eq!(remaining_cycles_on(&mut c, 0, &done), 0);
    }

    #[test]
    fn stealing_takes_the_costliest_fit_from_the_most_backlogged_peer() {
        let mut c = cost();
        let mut s = Scheduler::new(ArrivalOrderAdmission, SharedQueueRouting, 3)
            .with_steal(StealSpec::CostliestFit);
        // Chip 1: one small job. Chip 2: a short job ahead of a long one
        // — the bigger backlog, so the thief raids it and takes the
        // costliest *profitable* job: the long job, whose wait behind
        // the short one makes the (equal-speed) thief strictly faster.
        let small = job(0, 32, 2);
        let long = job(1, 512, 48);
        let short = job(2, 48, 4);
        s.charge(1, &small, &mut c);
        s.routed[1].push(small);
        for j in [short, long] {
            s.charge(2, &j, &mut c);
            s.routed[2].push(j);
        }
        assert!(s.steal_into(&mut c, 0, idle_cap(8), 0));
        assert_eq!(s.pending_on(0), 1);
        assert_eq!(s.pending_on(2), 1, "stolen from the most backlogged peer");
        assert_eq!(s.routed[0].get(0).job.id, 1, "costliest job moves");
        assert_eq!(s.steals_on(0), 1);
        assert!(s.stolen_cycles_on(0) > 0);
        // The thief's admission claims it like any routed job.
        let got = s.take(&mut c, 0, idle_cap(8), 0).jobs;
        assert_eq!(got[0].id, 1);
        assert_eq!(s.pending_cycles_on(0), 0);
    }

    #[test]
    fn stealing_declines_when_staying_put_finishes_sooner() {
        // Profitability guard: a slow (eighth-scale) idle chip must NOT
        // steal a queue-head job a full-size chip would turn around 8×
        // sooner — that steal would delay the job, not rescue it.
        let mut c = CostModel::heterogeneous(
            vec![SpAttenConfig::default(), SpAttenConfig::eighth()],
            Some(8),
        );
        let mut s = Scheduler::new(ArrivalOrderAdmission, SharedQueueRouting, 2)
            .with_steal(StealSpec::CostliestFit);
        let j = job(0, 128, 8);
        s.charge(0, &j, &mut c);
        s.routed[0].push(j);
        assert!(
            !s.steal_into(&mut c, 1, idle_cap(8), 0),
            "slow thief must leave the fast chip's job alone"
        );
        assert_eq!(s.pending_on(0), 1);
        // The fast chip stealing from the slow one is the profitable
        // direction, and fires.
        let j = job(1, 128, 8);
        s.charge(1, &j, &mut c);
        s.routed[1].push(j);
        assert!(s.steal_into(&mut c, 0, idle_cap(8), 0));
        assert_eq!(s.routed[0].get(1).job.id, 1, "fast thief takes the job");
    }

    #[test]
    fn stealing_never_migrates_pinned_or_oversized_jobs() {
        let mut c = cost();
        let mut s = Scheduler::new(ArrivalOrderAdmission, SharedQueueRouting, 2)
            .with_steal(StealSpec::CostliestFit);
        // A preempted-resumed job in chip 1's queue: pinned, never stolen.
        let mut pinned = job(0, 128, 8);
        pinned.preemptions = 1;
        pinned.resume = Some(crate::request::ResumeState {
            chip: 1,
            prefill_progress: 0,
            prefilled: true,
            steps_done: 2,
            start_cycles: 0,
            first_token_cycles: None,
        });
        s.requeue(1, pinned, &mut c);
        assert!(!s.steal_into(&mut c, 0, idle_cap(8), 0));
        assert_eq!(s.pending_on(1), 1, "pinned job stays home");
        // A fresh job that doesn't fit the thief's free KV is skipped too.
        let fat = job(1, 1024, 64);
        s.charge(1, &fat, &mut c);
        s.routed[1].push(fat);
        let tight = ChipCapacity {
            active: 0,
            kv_free: 0,
            slots: 8,
        };
        assert!(!s.steal_into(&mut c, 0, tight, 0));
        // With stealing off nothing ever moves.
        let mut off = Scheduler::new(ArrivalOrderAdmission, SharedQueueRouting, 2);
        let j = job(2, 64, 4);
        off.charge(1, &j, &mut c);
        off.routed[1].push(j);
        assert!(!off.steal_into(&mut c, 0, idle_cap(8), 0));
    }

    #[test]
    fn steal_scan_order_survives_the_scratch_ranking() {
        // The scratch-buffer rewrite of the steal scan (reused ranking
        // Vec + unstable sort on a (backlog, index) key) must visit
        // victims in exactly the order the old allocating stable sort
        // did: descending backlog, ties broken by the lower chip index.
        let mut c = cost();
        let mut s = Scheduler::new(ArrivalOrderAdmission, SharedQueueRouting, 5)
            .with_steal(StealSpec::CostliestFit);
        // Chips 1..=4 backlogged, two jobs each so the second-in-line is
        // always profitable to steal; chips 3 and 4 carry identical
        // queues (a backlog tie), chip 2 is heaviest, chip 1 lightest.
        for (chip, seq) in [(1usize, 48usize), (2, 512), (3, 128), (4, 128)] {
            for copy in 0..2u64 {
                let j = job(chip as u64 * 10 + copy, seq, 8);
                s.charge(chip, &j, &mut c);
                s.routed[chip].push(j);
            }
        }
        assert_eq!(s.pending_cycles[3], s.pending_cycles[4], "tie premise");
        // The reference ranking: what the pre-scratch stable sort over
        // the same filter produced.
        let mut expect: Vec<usize> = (0..5)
            .filter(|&p| p != 0 && s.pending_cycles[p] > 0 && !s.routed[p].is_empty())
            .collect();
        expect.sort_by_key(|&p| (Reverse(s.pending_cycles[p]), p));
        assert_eq!(expect, vec![2, 3, 4, 1]);
        assert!(s.steal_into(&mut c, 0, idle_cap(8), 0));
        // The scratch buffer still holds the scan's ranking: identical
        // to the reference, and the job moved came from its head.
        assert_eq!(s.steal_scratch, expect, "steal scan order changed");
        assert_eq!(s.routed[0].get(0).job.id, 21, "stolen from ranking head");
        // Scratch reuse must not leak state into later scans: a second
        // steal re-ranks from live backlogs, walks past chip 2 (its lone
        // remaining head job fails the profitability guard) and raids
        // the tied pair lowest-index-first — chip 3's second-in-line.
        assert!(s.steal_into(&mut c, 0, idle_cap(8), 0));
        assert_eq!(s.routed[0].get(1).job.id, 31, "tie broken by index");
    }

    #[test]
    fn decode_specialist_thieves_never_steal_prefill_work() {
        let mut c = cost();
        // Chip 1 (a prefill specialist) is backlogged with fresh,
        // perfectly stealable jobs; chip 0 is an idle decode specialist.
        // The steal must not fire: the only stealable jobs are fresh
        // unprefilled arrivals, and moving one onto a decode-specialist
        // would run a prefill pass in the pool built to exclude them.
        let mut s = Scheduler::new(ArrivalOrderAdmission, SharedQueueRouting, 2)
            .with_steal(StealSpec::CostliestFit)
            .with_roles(vec![PoolRole::Decode, PoolRole::Prefill]);
        for i in 0..3 {
            let j = job(i, 256, 16);
            s.charge(1, &j, &mut c);
            s.routed[1].push(j);
        }
        assert!(
            !s.steal_into(&mut c, 0, idle_cap(8), 0),
            "decode-specialist thief must decline"
        );
        assert_eq!(s.pending_on(1), 3, "backlog untouched");
        assert_eq!(s.steals_on(0), 0);
        // The identical fleet with flex roles steals as usual.
        let mut flex = Scheduler::new(ArrivalOrderAdmission, SharedQueueRouting, 2)
            .with_steal(StealSpec::CostliestFit);
        for i in 0..3 {
            let j = job(i, 256, 16);
            flex.charge(1, &j, &mut c);
            flex.routed[1].push(j);
        }
        assert!(flex.steal_into(&mut c, 0, idle_cap(8), 0));
    }
}
