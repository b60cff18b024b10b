//! The fleet engine: the discrete-event serving loop as a resumable
//! state machine.
//!
//! Two event kinds drive the clock: request arrivals (injected for
//! open-loop traffic, completion-triggered for closed-loop clients) and
//! chip round boundaries. At every round boundary a chip retires
//! whatever its round finished, asks the admission policy for admissions
//! (and records anything the policy shed), and — if it holds any
//! resident jobs — starts the round its batch policy plans. Everything
//! is deterministic: the event queue breaks time ties by a monotonic
//! sequence number, chips are polled in index order, and every
//! stochastic draw happened at trace-generation time.
//!
//! Polling a chip (a *kick*: preemption, admission, stealing, then its
//! next round) is the engine's hot path, so each event polls only the
//! chips it can affect:
//!
//! * an arrival, a leave notice or a revocation cutoff — every chip;
//! * a round end — its own chip, plus the others only under
//!   [`StealSpec::CostliestFit`] (a victim re-queued at the front of
//!   this chip's queue can make stealing from it newly profitable);
//! * a KV handoff arrival — its target;
//! * a join — the joining chip.
//!
//! This is sound because of one invariant: an online chip with no round
//! in flight and no residents has nothing queued for it, neither in its
//! private queue nor in the shared queue. Without stealing, a round end
//! only adds to its own chip's queue and only takes from the shared
//! queue, so it gives no other chip anything new to do.
//!
//! The loop is generic over five seams: the cost oracle ([`FleetCost`]
//! — physical chips here, sharded groups in `spatten-cluster`), the
//! [`RoutingPolicy`] (arrival-time chip assignment), the
//! [`AdmissionPolicy`], the [`BatchPolicy`] and the
//! [`PreemptionPolicy`] (round-boundary eviction with KV swap costs).
//! Every policy, canonical or custom, runs through this one event loop —
//! there are no policy-specific simulators.
//!
//! [`FleetEngine`] is the only event-loop type, and it never owns its
//! traffic up front: a live front-end learns about requests one
//! wall-clock instant at a time and has to answer each one while the
//! clock is still running. The loop is therefore split into its
//! primitive transitions:
//!
//! * [`FleetEngine::inject`] — hand the engine one arrival (a
//!   [`TraceRequest`]), mapped to virtual cycles;
//! * [`FleetEngine::step_until`] — advance the event clock up to a
//!   virtual-time horizon, firing arrivals, round ends, KV handoffs and
//!   elastic membership events in `(time, seq)` order;
//! * [`FleetEngine::next_event_time`] — peek at the virtual time of the
//!   next event, so a live loop can sleep until the wall clock reaches
//!   it;
//! * [`FleetEngine::drain`] — run the clock dry and fold the run into a
//!   [`FleetReport`].
//!
//! [`FleetEngine::replay`] streams a whole trace through those
//! transitions; [`simulate_fleet`](crate::sim::simulate_fleet) is
//! `fleet_engine(cfg).replay(trace)`. Three constructors lead here:
//! [`FleetEngine::new`] takes any seam mix, [`fleet_engine_policy`]
//! builds the boxed seams of a canonical [`Policy`], and
//! [`fleet_engine`](crate::sim::fleet_engine) lowers a
//! [`FleetConfig`](crate::sim::FleetConfig).
//!
//! # The token seam
//!
//! The [`TokenSink`] trait surfaces per-token completions as they
//! happen: when a sink is installed ([`FleetEngine::set_sink`]) every
//! chip records a [`TokenEvent`] for each resident that emits decode
//! tokens (or retires) in a round, and the engine drains them to the
//! sink at that round's end — the hook `spatten-frontd` streams chunked
//! HTTP responses from. SLO-aware admission rejections reach the sink
//! too ([`TokenSink::on_rejection`]), so live admission control can
//! answer the client that was shed. With no sink installed the
//! recording branch never runs, allocation for allocation.
//!
//! # Virtual time
//!
//! The engine has no clock of its own — `step_until(vtime)` processes
//! every event with `time <= vtime` and stops. A live front-end owns
//! the mapping from wall instants to virtual cycles (`spatten-frontd`
//! uses `cycles = ns_to_cycles(clock_ghz, elapsed_ns × time_scale)`),
//! calls `inject` / `step_until` from its bridge loop, and sleeps until
//! the wall instant `next_event_time` maps to; an offline caller
//! just passes trace timestamps. Arrival times must be non-decreasing —
//! the engine clamps an early-looking arrival to the time already
//! reached, which is the identity on any sorted trace.
//!
//! ```
//! use spatten_serve::{fleet_engine, simulate_fleet, FleetConfig, Policy};
//! use spatten_workloads::{ArrivalSpec, Trace, TraceSpec};
//!
//! let trace = TraceSpec::mixed(
//!     ArrivalSpec::OpenPoisson { rate_rps: 4000.0, requests: 40 },
//!     11,
//! )
//! .generate();
//! let cfg = FleetConfig::new(2, Policy::ContinuousBatching);
//! let offline = simulate_fleet(&cfg, &trace);
//!
//! // The same trace pushed through the step API, one arrival at a time.
//! let mut engine = fleet_engine(&cfg);
//! let Trace::Open { requests } = &trace else { unreachable!() };
//! for req in requests {
//!     let at = engine.inject(req);
//!     engine.step_until(at);
//! }
//! assert_eq!(engine.drain(), offline);
//! ```

use std::collections::VecDeque;
use std::ops::Range;

use crate::batch::BatchPolicy;
use crate::chip::Chip;
use crate::cost::{CostModel, FleetCost};
use crate::disagg::PoolSpec;
use crate::elastic::{
    Availability, ElasticChipStats, ElasticSchedule, FleetLoadView, LeaveMode, ThresholdHysteresis,
};
use crate::kv::{ChipKv, KvSpec};
use crate::metrics::{ChipStats, FleetReport};
use crate::preempt::{PreemptionPolicy, VictimView};
use crate::request::{Completion, Job, Rejection};
use crate::route::{ChipLoad, RoutingPolicy};
use crate::scheduler::{
    Admission, AdmissionPolicy, ChipCapacity, Policy, PreemptSpec, SchedKnobs, Scheduler, SimMode,
    StealSpec,
};
use spatten_core::StepCost;
use spatten_workloads::fleet::LinkSpec;
use spatten_workloads::{PoolRole, Trace, TraceRequest, Workload};

/// One chip's token emission for one request in one round: `count`
/// decode tokens starting at zero-based token index `first`, visible at
/// `emit_cycles` (the round's end). A request's stream is the ordered
/// sequence of its events; `done` marks the last one. Discriminative
/// (zero-generation) requests emit a single `count == 0, done` event —
/// the stream's way of saying "finished, nothing to stream".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenEvent {
    /// Stable trace id of the emitting request.
    pub id: u64,
    /// Index into the trace spec's class list.
    pub class: usize,
    /// Chip that executed the round.
    pub chip: usize,
    /// Zero-based index of the first token this event carries.
    pub first: usize,
    /// Tokens emitted in this round (a decode burst may carry several).
    pub count: usize,
    /// Virtual time the tokens became visible (the round's end).
    pub emit_cycles: u64,
    /// Whether the request finished with this event.
    pub done: bool,
}

/// Receiver of live token emissions and admission rejections — the seam
/// a serving front-end hangs its response streams on. Installed via
/// [`FleetEngine::set_sink`]; called synchronously from event
/// dispatch, so implementations should buffer, not block.
pub trait TokenSink {
    /// A round retired `ev.count` tokens (or finished a request).
    fn on_tokens(&mut self, ev: &TokenEvent);

    /// Admission shed a request (SLO-aware early rejection, or any
    /// other policy that rejects). Default: ignore.
    fn on_rejection(&mut self, _r: &Rejection) {}
}

/// Converts nanoseconds to cycles of a `clock_ghz` clock, rounding to
/// the nearest cycle — the one rule every arrival, SLO, think time and
/// elastic event passes through, and what a live bridge must use to
/// step exactly to the cycle its next arrival maps to.
pub fn ns_to_cycles(clock_ghz: f64, ns: u64) -> u64 {
    (ns as f64 * clock_ghz).round() as u64
}

/// Empties `buf` and returns its allocation typed for another borrow.
/// The in-place `collect` keeps the buffer (the element layout does not
/// change), and the `map` never runs on an empty vector.
fn recycle<'b, T>(mut buf: Vec<&T>) -> Vec<&'b T> {
    buf.clear();
    buf.into_iter().map(|_| unreachable!()).collect()
}

fn job_from(req: &TraceRequest, client: Option<usize>, arrival_cycles: u64, clock_ghz: f64) -> Job {
    Job {
        id: req.id,
        class: req.class,
        priority: req.priority,
        client,
        arrival_cycles,
        deadline_cycles: req
            .slo_ns
            .map(|slo| arrival_cycles + ns_to_cycles(clock_ghz, slo)),
        preemptions: 0,
        resume: None,
        shared_prefix_tokens: req.shared_prefix_tokens,
        revoked: false,
        workload: req.workload.clone(),
        kv_need: Default::default(),
    }
}

/// The cost view the fit-pricing seams (admission, preemption, stealing)
/// see: every pricing query goes to `base`, except
/// [`FleetCost::job_footprint_on`], which asks the chip's KV store
/// ([`ChipKv::fit_bytes`]). The scheduler's pending-work ledgers keep
/// calling `footprint_on` through it, so charge and discharge stay
/// symmetric.
struct FitView<'a, C: FleetCost> {
    base: &'a mut C,
    chips: &'a [Chip],
}

impl<'a, C: FleetCost> FitView<'a, C> {
    fn new(base: &'a mut C, chips: &'a [Chip]) -> Self {
        Self { base, chips }
    }
}

impl<C: FleetCost> FleetCost for FitView<'_, C> {
    fn prefill_on(&mut self, chip: usize, w: &Workload) -> StepCost {
        self.base.prefill_on(chip, w)
    }

    fn decode_on(&mut self, chip: usize, w: &Workload, context: usize) -> StepCost {
        self.base.decode_on(chip, w, context)
    }

    fn decode_span_on(&mut self, chip: usize, w: &Workload, contexts: Range<usize>) -> u64 {
        self.base.decode_span_on(chip, w, contexts)
    }

    fn footprint_on(&mut self, chip: usize, w: &Workload) -> u64 {
        self.base.footprint_on(chip, w)
    }

    fn budget_on(&self, chip: usize) -> u64 {
        self.base.budget_on(chip)
    }

    fn swap_cycles_on(&mut self, chip: usize, w: &Workload, tokens: usize) -> u64 {
        self.base.swap_cycles_on(chip, w, tokens)
    }

    fn job_footprint_on(&mut self, chip: usize, job: &Job) -> u64 {
        self.chips[chip].kv().fit_bytes(self.base, chip, job)
    }

    fn raw_kv_bytes_on(&mut self, chip: usize, w: &Workload, tokens: usize) -> u64 {
        self.base.raw_kv_bytes_on(chip, w, tokens)
    }

    fn swap_bytes_cycles_on(&mut self, chip: usize, w: &Workload, bytes: u64) -> u64 {
        self.base.swap_bytes_cycles_on(chip, w, bytes)
    }

    fn weight_load_cycles_on(&mut self, chip: usize, w: &Workload) -> u64 {
        self.base.weight_load_cycles_on(chip, w)
    }

    fn handoff_cycles_on(
        &mut self,
        src: usize,
        dst: usize,
        w: &Workload,
        bytes: u64,
        hops: u64,
        link: &LinkSpec,
    ) -> u64 {
        self.base.handoff_cycles_on(src, dst, w, bytes, hops, link)
    }

    fn note_batch(&mut self, chip: usize, resident: usize) {
        self.base.note_batch(chip, resident);
    }

    fn job_serial_on(&mut self, chip: usize, w: &Workload) -> u64 {
        self.base.job_serial_on(chip, w)
    }

    fn first_token_on(&mut self, chip: usize, w: &Workload) -> u64 {
        self.base.first_token_on(chip, w)
    }
}

/// Handle into the engine's [`JobArena`]. Events carry these 4-byte
/// indices instead of boxed jobs, so the event queue moves small `Copy`
/// structs and job state never moves until the event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct JobId(u32);

/// Slab of event-owned jobs: deferred closed-loop arrivals and in-flight
/// handoff payloads. Slots freed by fired events go on a free list and
/// are reused, so steady-state simulation allocates no per-event job
/// storage at all.
#[derive(Debug, Default)]
struct JobArena {
    slots: Vec<Option<Job>>,
    free: Vec<u32>,
}

impl JobArena {
    fn insert(&mut self, job: Job) -> JobId {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(job);
                JobId(i)
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("more than 2^32 live jobs");
                self.slots.push(Some(job));
                JobId(i)
            }
        }
    }

    fn take(&mut self, id: JobId) -> Job {
        let job = self.slots[id.0 as usize]
            .take()
            .expect("event fired for a job no longer in the arena");
        self.free.push(id.0);
        job
    }

    /// Jobs currently owned by not-yet-fired events (deferred arrivals
    /// and in-flight handoff payloads) — part of the "is any work left"
    /// check that decides whether the autoscaler keeps ticking.
    fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

#[derive(Debug, Clone, Copy)]
enum EventKind {
    Arrival(JobId),
    RoundEnd(u32),
    /// A prefill→decode KV handoff landing on its target chip: the
    /// payload left its source `cycles` ago, and the job now re-enters
    /// admission pinned (via its [`crate::request::ResumeState`]) to
    /// `dst` — the chip that holds its KV from this moment on. While in
    /// flight the job is owned by the transfer: it is in no queue and on
    /// no chip, so preemption and stealing cannot touch it.
    HandoffArrive {
        job: JobId,
        dst: u32,
        cycles: u64,
    },
    /// An elastic departure notice ([`crate::elastic::ChipLeave`]): the
    /// chip stops accepting placements and starts draining; a
    /// [`LeaveMode::Revoke`] additionally schedules the hard cutoff.
    Leave(u32, LeaveMode),
    /// A revocation's grace cutoff: every remaining resident is evicted
    /// through the preemption machinery and re-routed to an online chip.
    /// A round already executing finishes first (its tokens are kept) —
    /// the cutoff then executes at that round's end.
    Revoke(u32),
    /// A cold chip starts its join: its model-load delay is priced now
    /// ([`FleetCost::weight_load_cycles_on`]) and [`EventKind::Online`]
    /// is scheduled after it.
    Join(u32),
    /// A joining chip's weight load finished: it enters service.
    Online(u32),
    /// Autoscaler observation window boundary: the policy sees fleet
    /// load and may bring reserve chips up or drain them.
    AutoscaleTick,
}

#[derive(Debug, Clone, Copy)]
struct Event {
    time: u64,
    seq: u64,
    kind: EventKind,
}

impl Event {
    #[inline]
    fn key(&self) -> (u64, u64) {
        (self.time, self.seq)
    }
}

/// Index-based binary min-heap over [`Event`]s, ordered by `(time,
/// seq)`. Hand-rolled rather than `BinaryHeap<Reverse<Event>>`: events
/// are small `Copy` values in one flat `Vec`, with no `Reverse` wrapper
/// and no boxed payload. A sift moves the event once: each step shifts
/// one neighbour into the hole, and the event lands where the hole
/// stops.
#[derive(Debug, Default)]
struct EventHeap {
    heap: Vec<Event>,
}

impl EventHeap {
    fn peek(&self) -> Option<&Event> {
        self.heap.first()
    }

    #[inline]
    fn push(&mut self, ev: Event) {
        let key = ev.key();
        let mut i = self.heap.len();
        self.heap.push(ev);
        while i > 0 {
            let parent = (i - 1) / 2;
            if key >= self.heap[parent].key() {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = ev;
    }

    #[inline]
    fn pop(&mut self) -> Option<Event> {
        let last = self.heap.pop()?;
        let Some(&top) = self.heap.first() else {
            return Some(last);
        };
        // Sift the old last event down from the root's hole.
        let key = last.key();
        let n = self.heap.len();
        let mut i = 0;
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let mut best = left;
            if right < n && self.heap[right].key() < self.heap[left].key() {
                best = right;
            }
            if self.heap[best].key() >= key {
                break;
            }
            self.heap[i] = self.heap[best];
            i = best;
        }
        self.heap[i] = last;
        Some(top)
    }
}

/// The event loop's view of an [`ElasticSchedule`]: per-chip membership
/// state, the autoscaler, and the elasticity counters. Always
/// materialized — a static schedule leaves every chip `Online` forever,
/// every guard on the hot path reduces to its pre-elasticity behavior,
/// and the run is bit-for-bit the fixed-fleet simulation.
struct ElasticState {
    /// Per-chip membership state.
    avail: Vec<Availability>,
    /// Roster indices the autoscaler manages (ascending). Scale-ups
    /// bring up the lowest-index offline entry, scale-downs drain the
    /// highest-index online one.
    reserve: Vec<usize>,
    /// Autoscaler: observation window in cycles, plus the policy.
    autoscale: Option<(u64, ThresholdHysteresis)>,
    /// Revocation cutoffs that fired while the chip's round was in
    /// flight; executed at that round's end (the in-flight tokens are
    /// kept — grace is generous, never clawed back).
    revoke_pending: Vec<bool>,
    /// Chips currently streaming weights in (join issued, not yet
    /// online).
    join_pending: Vec<bool>,
    /// In-flight KV handoffs targeting each chip. A drain waits for
    /// them; a revocation redirects them on arrival.
    inbound_handoffs: Vec<u32>,
    /// When each chip last came online (for `online_cycles` accounting).
    online_since: Vec<u64>,
    /// Per-chip elasticity counters, folded into the report.
    stats: Vec<ElasticChipStats>,
    /// Reference workload for pricing weight loads on joins, set from
    /// the first request the engine sees (every chip serves the same
    /// weight plane). `None` — no request yet — makes joins
    /// instantaneous.
    weight_ref: Option<Workload>,
}

impl ElasticState {
    fn new(schedule: &ElasticSchedule, chips: usize, clock_ghz: f64) -> Self {
        let mut avail = vec![Availability::Online; chips];
        for &(chip, _) in &schedule.joins {
            avail[chip] = Availability::Offline;
        }
        for &chip in &schedule.reserve {
            avail[chip] = Availability::Offline;
        }
        Self {
            avail,
            reserve: schedule.reserve.clone(),
            autoscale: schedule
                .autoscale
                .as_ref()
                .map(|spec| (ns_to_cycles(clock_ghz, spec.window_ns).max(1), spec.build())),
            revoke_pending: vec![false; chips],
            join_pending: vec![false; chips],
            inbound_handoffs: vec![0; chips],
            online_since: vec![0; chips],
            stats: vec![ElasticChipStats::default(); chips],
            weight_ref: None,
        }
    }

    /// Chips in (or warming up toward) service: the autoscaler's notion
    /// of provisioned capacity.
    fn online_count(&self) -> usize {
        (0..self.avail.len())
            .filter(|&c| self.avail[c] == Availability::Online || self.join_pending[c])
            .count()
    }
}

/// The discrete-event fleet simulator as a resumable state machine. See
/// the [module docs](self) for the lifecycle and the constructors.
pub struct FleetEngine<
    C: FleetCost,
    A: AdmissionPolicy,
    B: BatchPolicy,
    R: RoutingPolicy,
    P: PreemptionPolicy,
> {
    label: String,
    max_batch: usize,
    clock_ghz: f64,
    /// Whether [`FleetEngine::replay`] pre-warms the cost plane first
    /// ([`SimMode::ParallelRounds`]).
    mode: SimMode,
    cost: C,
    scheduler: Scheduler<A, R>,
    /// The work-stealing knob (also handed to the scheduler): whether a
    /// round end polls every chip or only its own.
    steal: StealSpec,
    batch: B,
    preempt: P,
    chips: Vec<Chip>,
    /// Disaggregation pool layout; `None` is co-located serving.
    pools: Option<PoolSpec>,
    /// Per-chip handoff counters. Sources count departures and payload
    /// bytes; transfer cycles accumulate at **both** endpoints (the
    /// drain leg at the source, the fill leg at the target).
    handoffs: Vec<u64>,
    handoff_bytes: Vec<u64>,
    handoff_cycles: Vec<u64>,
    /// Fleet-membership state ([`crate::elastic`]); inert (all chips
    /// `Online`, no events) on a static schedule.
    elastic: ElasticState,
    /// The elastic schedule's timed events, held back until
    /// [`FleetEngine::prime`]: closed-loop initial arrivals must take
    /// their sequence numbers first, so a same-cycle leave cannot
    /// outrun an initial arrival.
    schedule: ElasticSchedule,
    events: EventHeap,
    /// Jobs owned by not-yet-fired events, referenced by [`JobId`].
    jobs: JobArena,
    seq: u64,
    /// Injected arrivals not yet fired, in arrival order. Kept outside
    /// the event heap, so the heap holds only dynamic events (~one per
    /// chip) and an arrival beats any same-time heap event by
    /// construction.
    pending: VecDeque<(u64, Job)>,
    sim_events: u64,
    last_now: u64,
    primed: bool,
    completions: Vec<Completion>,
    rejections: Vec<Rejection>,
    /// Closed-loop state: per-client pending queues + think time.
    client_queues: Vec<Vec<TraceRequest>>,
    think_cycles: u64,
    /// Reusable routing-snapshot buffer (one slot per chip), refilled on
    /// each routed arrival instead of allocated.
    loads_scratch: Vec<ChipLoad>,
    /// Reusable round-completion buffer, swapped with the chip's
    /// finished list at each round end.
    finished_scratch: Vec<Completion>,
    /// Live token/rejection receiver ([`TokenSink`]); `None` — every
    /// offline simulation — skips recording entirely.
    sink: Option<Box<dyn TokenSink>>,
    /// Reusable buffer for draining chip token logs to the sink.
    token_scratch: Vec<TokenEvent>,
    /// Reusable preemption snapshot: the kicked chip's residents
    /// ([`Chip::victim_views`]) and the jobs queued for it
    /// ([`Scheduler::queued_for`]), refilled per check. The queue buffer
    /// is empty between checks; [`recycle`] re-types it for the borrow
    /// of each check.
    views_scratch: Vec<VictimView>,
    queued_scratch: Vec<&'static Job>,
    /// Whether an [`EventKind::AutoscaleTick`] is in the heap. The tick
    /// chain dies when the fleet goes idle; a live engine re-arms it on
    /// the next inject (unreachable during trace replay, where work
    /// always remains while arrivals are pending).
    autoscale_armed: bool,
}

impl<C: FleetCost, A: AdmissionPolicy, B: BatchPolicy, R: RoutingPolicy, P: PreemptionPolicy>
    FleetEngine<C, A, B, R, P>
{
    /// Builds an idle engine over `chips` executors priced by `cost`,
    /// under an arbitrary (admission, batching, routing, preemption)
    /// policy quadruple plus the [`StealSpec`] work-stealing knob.
    /// `label` names the policy in the report. The engine runs in
    /// [`SimMode::Serial`]: nothing is pre-priced before a replay.
    ///
    /// # Panics
    ///
    /// Panics if the fleet has zero chips, `max_batch` is zero, the
    /// elastic schedule references chips beyond the roster, or the pool
    /// spec's roles don't cover every chip.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cost: C,
        chips: usize,
        label: &str,
        admission: A,
        batch: B,
        routing: R,
        steal: StealSpec,
        preempt: P,
        kv: KvSpec,
        pools: Option<PoolSpec>,
        elastic: Option<ElasticSchedule>,
        max_batch: usize,
        clock_ghz: f64,
    ) -> Self {
        assert!(chips > 0, "fleet needs at least one chip");
        assert!(max_batch > 0, "max_batch must be positive");
        let schedule = elastic.unwrap_or_default();
        for leave in &schedule.leaves {
            assert!(
                leave.chip < chips,
                "leave targets chip {} of a {chips}-chip roster",
                leave.chip
            );
        }
        for &(chip, _) in &schedule.joins {
            assert!(
                chip < chips,
                "join targets chip {chip} of a {chips}-chip roster"
            );
        }
        for &chip in &schedule.reserve {
            assert!(
                chip < chips,
                "reserve chip {chip} beyond the {chips}-chip roster"
            );
        }
        if let Some(p) = &pools {
            assert_eq!(
                p.len(),
                chips,
                "pool spec declares {} roles for {} chips",
                p.len(),
                chips
            );
        }
        let mut scheduler = Scheduler::new(admission, routing, chips).with_steal(steal);
        if let Some(p) = &pools {
            scheduler = scheduler.with_roles(p.roles.clone());
        }
        let elastic = ElasticState::new(&schedule, chips, clock_ghz);
        // Each chip's KV store is sized to its own budget (heterogeneous
        // fleets get heterogeneous block counts). Cold chips (scheduled
        // joins and the reserve) start out of the fleet: their admission
        // path is armed to panic until their join's weight load
        // completes.
        let mut chip_vec: Vec<Chip> = (0..chips)
            .map(|c| Chip::new(c, ChipKv::new(kv, cost.budget_on(c))))
            .collect();
        for (chip, avail) in chip_vec.iter_mut().zip(&elastic.avail) {
            if *avail == Availability::Offline {
                chip.leave();
            }
        }
        Self {
            label: label.to_string(),
            max_batch,
            clock_ghz,
            mode: SimMode::Serial,
            cost,
            scheduler,
            steal,
            batch,
            preempt,
            chips: chip_vec,
            pools,
            handoffs: vec![0; chips],
            handoff_bytes: vec![0; chips],
            handoff_cycles: vec![0; chips],
            elastic,
            schedule,
            events: EventHeap::default(),
            jobs: JobArena::default(),
            seq: 0,
            pending: VecDeque::new(),
            sim_events: 0,
            last_now: 0,
            primed: false,
            completions: Vec::new(),
            rejections: Vec::new(),
            client_queues: Vec::new(),
            think_cycles: 0,
            loads_scratch: Vec::with_capacity(chips),
            finished_scratch: Vec::new(),
            sink: None,
            token_scratch: Vec::new(),
            views_scratch: Vec::new(),
            queued_scratch: Vec::new(),
            autoscale_armed: false,
        }
    }

    /// Installs a live [`TokenSink`] and arms per-token recording on
    /// every chip.
    pub fn set_sink(&mut self, sink: Box<dyn TokenSink>) {
        self.sink = Some(sink);
        for chip in &mut self.chips {
            chip.set_record_tokens(true);
        }
    }

    /// Sets the reference workload that prices elastic joins. Normally
    /// taken from the first injected request; a live front-end that
    /// knows its model up front calls this so a join firing before the
    /// first request is priced correctly.
    pub fn set_weight_ref(&mut self, workload: Workload) {
        self.elastic.weight_ref = Some(workload);
    }

    /// Pushes the deferred elastic schedule into the event heap. Runs
    /// once, on the first inject / load / step — *after* any closed-loop
    /// initial arrivals, so they own the lowest sequence numbers.
    fn prime(&mut self) {
        if self.primed {
            return;
        }
        self.primed = true;
        let clock = self.clock_ghz;
        let leaves = std::mem::take(&mut self.schedule.leaves);
        for leave in leaves {
            let at = ns_to_cycles(clock, leave.at_ns);
            self.push(at, EventKind::Leave(leave.chip as u32, leave.mode));
        }
        let joins = std::mem::take(&mut self.schedule.joins);
        for (chip, at_ns) in joins {
            self.push(ns_to_cycles(clock, at_ns), EventKind::Join(chip as u32));
        }
        if let Some((window, _)) = &self.elastic.autoscale {
            let first = *window;
            self.push(first, EventKind::AutoscaleTick);
        }
    }

    /// Injects one arrival at `req.arrival_ns` mapped to virtual cycles.
    /// Returns the arrival's virtual time. Arrivals must be injected in
    /// non-decreasing time order; an arrival earlier than virtual time
    /// already stepped past is clamped up to it (the live bridge's
    /// "arrived while I was stepping" case — a no-op on sorted traces).
    pub fn inject(&mut self, req: &TraceRequest) -> u64 {
        if self.elastic.weight_ref.is_none() {
            self.elastic.weight_ref = Some(req.workload.clone());
        }
        self.prime();
        let at = ns_to_cycles(self.clock_ghz, req.arrival_ns).max(self.last_now);
        if let Some(&(back, _)) = self.pending.back() {
            assert!(
                at >= back,
                "arrival injected out of order: {at} after {back}"
            );
        }
        let job = job_from(req, None, at, self.clock_ghz);
        self.pending.push_back((at, job));
        // A live fleet can go fully idle between requests, which lets
        // the autoscaler's tick chain die (it only keeps ticking while
        // work remains). Re-arm it so the new request's load is
        // observed. Unreachable during trace replay — work always
        // remains while arrivals are pending.
        if !self.autoscale_armed {
            if let Some((window, _)) = &self.elastic.autoscale {
                let tick = at + *window;
                self.push(tick, EventKind::AutoscaleTick);
            }
        }
        at
    }

    /// Loads a closed-loop client population: each client's first
    /// request enters the heap at t=0 and every later one is issued by
    /// the completion of its predecessor plus think time. Call once,
    /// before stepping.
    pub fn load_closed(&mut self, clients: &[Vec<TraceRequest>], think_ns: u64) {
        assert!(
            !self.primed && self.pending.is_empty() && self.sim_events == 0,
            "closed-loop clients must load into a fresh engine"
        );
        let clock = self.clock_ghz;
        self.think_cycles = ns_to_cycles(clock, think_ns);
        if self.elastic.weight_ref.is_none() {
            self.elastic.weight_ref = clients.iter().flatten().next().map(|r| r.workload.clone());
        }
        // Store queues reversed so pop() yields the next request.
        self.client_queues = clients
            .iter()
            .map(|q| q.iter().rev().cloned().collect())
            .collect();
        for client in 0..self.client_queues.len() {
            if let Some(first) = self.client_queues[client].pop() {
                let job = self.jobs.insert(job_from(&first, Some(client), 0, clock));
                self.push(0, EventKind::Arrival(job));
            }
        }
        self.prime();
    }

    /// The next event to fire: whether it is the front injected arrival
    /// (which beats any heap event at the same time), and its time.
    fn next_event(&self) -> Option<(bool, u64)> {
        let arrival = self.pending.front().map(|&(t, _)| t);
        let event = self.events.peek().map(|e| e.time);
        match (arrival, event) {
            (Some(a), Some(e)) => Some(if a <= e { (true, a) } else { (false, e) }),
            (Some(a), None) => Some((true, a)),
            (None, Some(e)) => Some((false, e)),
            (None, None) => None,
        }
    }

    /// The virtual time of the event [`step`](Self::step) fires next,
    /// or `None` when it would return `false`. Primes the engine first,
    /// as `step` does, so a scheduled leave or join is visible before
    /// any traffic arrives — a live loop sleeps until this time.
    pub fn next_event_time(&mut self) -> Option<u64> {
        self.prime();
        self.next_event().map(|(_, t)| t)
    }

    /// Fires the single next event (injected arrival or heap event),
    /// but only if its time is within `limit`. Returns whether an event
    /// fired.
    fn step_one(&mut self, limit: Option<u64>) -> bool {
        let Some((fire_arrival, t)) = self.next_event() else {
            return false;
        };
        if limit.is_some_and(|l| t > l) {
            return false;
        }
        self.sim_events += 1;
        self.last_now = t;
        if fire_arrival {
            let (now, job) = self.pending.pop_front().expect("arrival present");
            self.handle_arrival(job, now);
        } else {
            self.dispatch_next();
        }
        true
    }

    /// Fires the next event regardless of its time. Returns `false`
    /// when the engine is fully drained (no pending arrivals, empty
    /// heap).
    pub fn step(&mut self) -> bool {
        self.prime();
        self.step_one(None)
    }

    /// Advances the engine through every event with `time <= vtime`.
    /// Returns the number of events processed.
    pub fn step_until(&mut self, vtime: u64) -> u64 {
        self.prime();
        let mut n = 0;
        while self.step_one(Some(vtime)) {
            n += 1;
        }
        n
    }

    /// Replays a whole trace through the step API and drains. Under
    /// [`SimMode::ParallelRounds`] the cost plane is pre-priced for the
    /// trace's workloads first (a bit-identical report, by
    /// construction). Open-loop arrivals stream through a one-request
    /// lookahead window (the heap and the pending queue stay a handful
    /// of entries deep on million-request traces); closed-loop traces
    /// load their client population and run dry.
    pub fn replay(mut self, trace: &Trace) -> FleetReport {
        if self.mode != SimMode::Serial {
            let threads = self.mode.threads();
            match trace {
                Trace::Open { requests } => self
                    .cost
                    .prewarm(&mut requests.iter().map(|r| &r.workload), threads),
                Trace::Closed { clients, .. } => self
                    .cost
                    .prewarm(&mut clients.iter().flatten().map(|r| &r.workload), threads),
            }
        }
        match trace {
            Trace::Open { requests } => {
                assert!(
                    requests
                        .windows(2)
                        .all(|w| w[0].arrival_ns <= w[1].arrival_ns),
                    "open trace must be sorted by arrival time"
                );
                for req in requests {
                    self.inject(req);
                    // Keep exactly one arrival pending: enough lookahead
                    // that the autoscaler's "more arrivals?" probe stays
                    // truthful, little enough that memory stays flat.
                    while self.pending.len() > 1 && self.step_one(None) {}
                }
            }
            Trace::Closed { clients, think_ns } => self.load_closed(clients, *think_ns),
        }
        self.drain()
    }

    /// Runs the clock dry and folds the run into a [`FleetReport`],
    /// checking the conservation invariants on the way: nothing queued,
    /// every backlog-estimate ledger back at zero, every KV page freed.
    pub fn drain(mut self) -> FleetReport {
        self.prime();
        while self.step_one(None) {}
        assert_eq!(
            self.scheduler.pending(),
            0,
            "simulation drained with jobs still queued"
        );
        // Backlog-estimate consistency: every cycle charged into the
        // pending / in-service ledgers must have been discharged by the
        // matching transition (admit / complete / preempt / steal). Any
        // residue here means the estimates routing ranks by had drifted
        // from the scheduler's actual bookkeeping.
        for chip in 0..self.chips.len() {
            assert_eq!(
                self.scheduler.pending_cycles_on(chip),
                0,
                "chip {chip}: pending-cycle estimate drifted"
            );
            assert_eq!(
                self.scheduler.pending_kv_on(chip),
                0,
                "chip {chip}: pending-KV estimate drifted"
            );
            assert_eq!(
                self.chips[chip].est_drift, 0,
                "chip {chip}: in-service estimate drifted from executed work"
            );
        }
        // KV conservation: at drain every reservation is released —
        // paged, every block allocated was freed and every refcount hit
        // zero (the cache is flushed as part of the check).
        for chip in &mut self.chips {
            chip.assert_kv_drained();
        }
        // Chips still in service accrue online time up to the last event:
        // on a fixed fleet every chip is online for the whole makespan,
        // so the roster-summed `online_cycles` is the chip-cycle cost an
        // autoscaler economizes against.
        for c in 0..self.chips.len() {
            if self.elastic.avail[c] != Availability::Offline {
                self.elastic.stats[c].online_cycles +=
                    self.last_now.saturating_sub(self.elastic.online_since[c]);
            }
        }
        let preemption_inert = self.batch.run_to_completion() && self.preempt.may_preempt();
        let chip_stats: Vec<ChipStats> = self
            .chips
            .iter()
            .map(|c| ChipStats {
                id: c.id,
                busy_cycles: c.busy_cycles,
                rounds: c.rounds,
                mean_occupancy: if c.busy_cycles == 0 {
                    0.0
                } else {
                    c.occupancy_area as f64 / c.busy_cycles as f64
                },
                max_kv_in_use: c.max_kv_in_use,
                evictions: c.evictions,
                swap_cycles: c.swap_cycles,
                steals: self.scheduler.steals_on(c.id),
                stolen_cycles: self.scheduler.stolen_cycles_on(c.id),
                handoffs: self.handoffs[c.id],
                handoff_bytes: self.handoff_bytes[c.id],
                handoff_cycles: self.handoff_cycles[c.id],
                kv: c.kv().stats(),
                elastic: self.elastic.stats[c.id],
            })
            .collect();
        let chips = self.chips.len();
        let budget = (0..chips)
            .map(|c| self.cost.budget_on(c))
            .max()
            .unwrap_or(0);
        let mut report = FleetReport::new(
            &self.label,
            chips,
            self.clock_ghz,
            budget,
            self.completions,
            self.rejections,
            chip_stats,
        );
        report.preemption_inert = preemption_inert;
        report.sim_events = self.sim_events;
        report
    }

    /// The virtual time of the last processed event.
    pub fn now(&self) -> u64 {
        self.last_now
    }

    /// The fleet clock in GHz (the virtual-time unit).
    pub fn clock_ghz(&self) -> f64 {
        self.clock_ghz
    }

    /// Requests completed so far.
    pub fn completed(&self) -> usize {
        self.completions.len()
    }

    /// Requests shed by admission so far.
    pub fn rejected(&self) -> usize {
        self.rejections.len()
    }

    /// Roster size (including offline reserve/joining chips).
    pub fn chips(&self) -> usize {
        self.chips.len()
    }

    /// Chips currently in service.
    pub fn online_chips(&self) -> usize {
        self.elastic
            .avail
            .iter()
            .filter(|&&a| a == Availability::Online)
            .count()
    }

    /// Jobs queued (shared + private) but not yet resident, plus
    /// injected arrivals that have not fired yet — the live backlog a
    /// front-end reports.
    pub fn backlog(&self) -> usize {
        self.scheduler.pending() + self.pending.len()
    }

    /// Whether every injected request has fully drained: nothing
    /// pending, nothing queued, nothing resident, nothing in flight.
    pub fn idle(&self) -> bool {
        self.pending.is_empty()
            && self.events.peek().is_none()
            && self.scheduler.pending() == 0
            && self
                .chips
                .iter()
                .all(|c| c.active_jobs() == 0 && !c.is_in_flight())
    }

    fn push(&mut self, time: u64, kind: EventKind) {
        if matches!(kind, EventKind::AutoscaleTick) {
            self.autoscale_armed = true;
        }
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Event { time, seq, kind });
    }

    fn capacity(&self, chip_idx: usize) -> ChipCapacity {
        let chip = &self.chips[chip_idx];
        ChipCapacity {
            active: chip.active_jobs(),
            kv_free: chip.kv().free_bytes(),
            slots: self.max_batch.saturating_sub(chip.active_jobs()),
        }
    }

    /// Runs the admission policy for `chip_idx` against its current
    /// capacity, with fit checks priced by the chip's KV store. An online
    /// chip takes from its private queue, then the shared queue; a
    /// draining one only from its private queue — after
    /// [`Scheduler::drain_chip`] that holds just the work pinned to its
    /// HBM, and the shared queue belongs to the chips that stay.
    fn take_for(&mut self, chip_idx: usize, online: bool, now: u64) -> Admission {
        let cap = self.capacity(chip_idx);
        let mut cost = FitView::new(&mut self.cost, &self.chips);
        if online {
            self.scheduler.take(&mut cost, chip_idx, cap, now)
        } else {
            self.scheduler.take_local(&mut cost, chip_idx, cap, now)
        }
    }

    /// Applies one admission decision: sheds rejections, admits the rest
    /// onto the chip (mapping them into its KV store).
    fn admit_all(&mut self, chip_idx: usize, decision: Admission, now: u64) {
        for job in decision.rejected {
            self.on_rejection(job, now);
        }
        for job in decision.jobs {
            self.chips[chip_idx].admit(&mut self.cost, job, now);
        }
    }

    /// Refills the reusable per-chip load snapshot the routing policy
    /// sees at an arrival (`self.loads_scratch`), in place.
    fn fill_loads(&mut self, now: u64) {
        let mut loads = std::mem::take(&mut self.loads_scratch);
        loads.clear();
        for i in 0..self.chips.len() {
            let chip = &self.chips[i];
            loads.push(ChipLoad {
                role: self.pools.as_ref().map_or(PoolRole::Flex, |p| p.role(i)),
                active: chip.active_jobs(),
                kv_in_use: chip.kv().in_use(),
                kv_budget: self.cost.budget_on(i),
                pending_jobs: self.scheduler.pending_on(i),
                pending_cycles: self.scheduler.pending_cycles_on(i),
                pending_kv: self.scheduler.pending_kv_on(i),
                in_service_cycles: chip.in_service_cycles(),
                recent_evictions: chip.recent_evictions(now),
                leaving: self.elastic.avail[i] != Availability::Online,
            });
        }
        self.loads_scratch = loads;
    }

    /// Offers work to `chip` — possibly evicting residents for queued
    /// higher-priority work first — and starts its next round if it holds
    /// any. A draining chip is finishing its obligations, not taking on
    /// new ones: it admits from its private queue only, never preempts
    /// or steals, and leaves once it runs dry.
    fn kick(&mut self, chip_idx: usize, now: u64) {
        if self.chips[chip_idx].is_in_flight() {
            return;
        }
        let online = match self.elastic.avail[chip_idx] {
            Availability::Offline => return,
            // A revocation cutoff that fired mid-round executes now, at
            // the first quiescent moment: the finished round's tokens
            // are kept, nothing new starts.
            Availability::Draining if self.elastic.revoke_pending[chip_idx] => {
                self.execute_revoke(chip_idx, now);
                return;
            }
            Availability::Draining => false,
            Availability::Online => true,
        };
        // Preemption runs before admission: the policy sees the chip's
        // candidates (private + shared queue) and its resident set, and
        // may clear room. The snapshot is skipped outright when the
        // policy never evicts, or there is nothing to evict, or nothing
        // is queued for this chip (its private queue or the shared
        // queue) to evict for — this path runs on every kick. When it is
        // taken, it fills the engine's two reusable buffers.
        let victims = if online
            && self.preempt.may_preempt()
            && self.chips[chip_idx].active_jobs() > 0
            && self.scheduler.queued_len_for(chip_idx) > 0
        {
            let cap = self.capacity(chip_idx);
            let mut views = std::mem::take(&mut self.views_scratch);
            self.chips[chip_idx].victim_views(&mut views);
            let mut queued = recycle(std::mem::take(&mut self.queued_scratch));
            self.scheduler.queued_for(chip_idx, &mut queued);
            let mut cost = FitView::new(&mut self.cost, &self.chips);
            let victims = self
                .preempt
                .victims(&queued, &views, &mut cost, chip_idx, cap, now);
            self.queued_scratch = recycle(queued);
            self.views_scratch = views;
            victims
        } else {
            Vec::new()
        };
        let evicted = if victims.is_empty() {
            Vec::new()
        } else {
            self.chips[chip_idx].evict(&mut self.cost, &victims, now)
        };
        // Admission runs while the victims are OFF the queue: the first
        // claim on the freed capacity belongs to the blocked job
        // preemption served. Re-queueing the victims before this call
        // would hand the space straight back to them and the eviction
        // would be pure swap churn. A pass that would call the policy on
        // no queue is skipped: at steady state, most of them.
        let had_evictions = !evicted.is_empty();
        if self.scheduler.has_admission_work(chip_idx, online) {
            let decision = self.take_for(chip_idx, online, now);
            self.admit_all(chip_idx, decision, now);
        }
        if had_evictions {
            for job in evicted.into_iter().rev() {
                self.scheduler.requeue(chip_idx, job, &mut self.cost);
            }
            // Refill: whatever freed capacity the blocked job did not
            // claim goes back to the victims (or anyone else queued)
            // rather than idling for a round — and a chip that admitted
            // nothing must never strand re-queued work with no future
            // round to claim it. Capacity is recomputed after the first
            // wave's admissions, so the refill sees the true remainder.
            let refill = self.take_for(chip_idx, online, now);
            self.admit_all(chip_idx, refill, now);
        }
        // Work stealing: a chip that comes out of admission idle with an
        // empty private queue pulls the costliest-fit job from the most
        // backlogged peer's private queue — routing misestimates become
        // one extra queue hop instead of a permanently idle chip.
        if online
            && self.chips[chip_idx].active_jobs() == 0
            && self.scheduler.pending_on(chip_idx) == 0
        {
            let cap = self.capacity(chip_idx);
            let mut cost = FitView::new(&mut self.cost, &self.chips);
            if self.scheduler.steal_into(&mut cost, chip_idx, cap, now) {
                let stolen = self.take_for(chip_idx, online, now);
                self.admit_all(chip_idx, stolen, now);
            }
        }
        let chip = &mut self.chips[chip_idx];
        if let Some(cycles) = chip.start_round(&mut self.cost, &mut self.batch, now) {
            self.push(now + cycles, EventKind::RoundEnd(chip_idx as u32));
        } else if !online && self.drain_complete(chip_idx) {
            self.finish_leave(chip_idx, now);
        }
    }

    /// Whether a draining chip has discharged every obligation: no round
    /// in flight, no residents, nothing pinned in its private queue, and
    /// no KV handoff still flying toward it.
    fn drain_complete(&self, chip_idx: usize) -> bool {
        !self.chips[chip_idx].is_in_flight()
            && self.chips[chip_idx].active_jobs() == 0
            && self.scheduler.pending_on(chip_idx) == 0
            && self.elastic.inbound_handoffs[chip_idx] == 0
    }

    /// Final departure bookkeeping shared by completed drains and
    /// executed revocations: the chip goes [`Availability::Offline`],
    /// its admission path is armed to panic ([`Chip::leave`]), and its
    /// online time is booked.
    fn finish_leave(&mut self, chip_idx: usize, now: u64) {
        self.elastic.avail[chip_idx] = Availability::Offline;
        self.chips[chip_idx].leave();
        let since = self.elastic.online_since[chip_idx];
        self.elastic.stats[chip_idx].online_cycles += now.saturating_sub(since);
        self.elastic.stats[chip_idx].leaves += 1;
    }

    /// The online chip among `candidates` with the least queued +
    /// in-service backlog (the estimate routing ranks with), ties to the
    /// lowest index.
    fn least_backlogged(&self, candidates: impl Iterator<Item = usize>) -> Option<usize> {
        candidates
            .filter(|&c| self.elastic.avail[c] == Availability::Online)
            .min_by_key(|&c| {
                let backlog = self
                    .scheduler
                    .pending_cycles_on(c)
                    .saturating_add(self.chips[c].in_service_cycles());
                (backlog, c)
            })
    }

    /// The least-loaded online chip — where revoked work and orphaned
    /// handoffs re-route.
    fn best_online_chip(&self) -> usize {
        self.least_backlogged(0..self.chips.len())
            .expect("an elastic fleet keeps at least one chip online")
    }

    /// A departure notice: the chip stops accepting placements, its
    /// unpinned private-queue jobs return to the shared queue (they
    /// carry no state tying them to this chip), and — for a revocation —
    /// the hard cutoff is scheduled after the grace period.
    fn handle_leave(&mut self, chip_idx: usize, mode: LeaveMode, now: u64) {
        if self.elastic.avail[chip_idx] != Availability::Online {
            return; // already draining or gone (e.g. autoscaler raced a schedule)
        }
        self.elastic.avail[chip_idx] = Availability::Draining;
        let drained = self.scheduler.drain_chip(chip_idx, &mut self.cost, false);
        for job in drained.into_iter().rev() {
            self.scheduler.unroute_to_shared_front(job);
        }
        if let LeaveMode::Revoke { grace_ns } = mode {
            let cutoff = now + ns_to_cycles(self.clock_ghz, grace_ns);
            self.push(cutoff, EventKind::Revoke(chip_idx as u32));
        }
        // The returned jobs need new homes, and the drain may already be
        // complete (an idle chip leaves instantly) — poll everyone.
        for c in 0..self.chips.len() {
            self.kick(c, now);
        }
    }

    /// A revocation's grace cutoff. If a round is executing the cutoff
    /// is deferred to its end ([`ElasticState::revoke_pending`]) — the
    /// in-flight tokens are kept, never recomputed.
    fn handle_revoke(&mut self, chip_idx: usize, now: u64) {
        if self.elastic.avail[chip_idx] != Availability::Draining {
            return; // drain already completed before the cutoff
        }
        if self.chips[chip_idx].is_in_flight() {
            self.elastic.revoke_pending[chip_idx] = true;
            return;
        }
        self.execute_revoke(chip_idx, now);
    }

    /// Executes a revocation on a quiescent chip: every resident is
    /// evicted through the ordinary preemption machinery (KV swapped out
    /// at [`FleetCost::swap_cycles_on`] cost), every pinned queue job is
    /// stripped, and each displaced job is re-pinned and re-queued to
    /// the least-loaded online chip — which pays the swap-in on
    /// admission. Jobs carry [`Job::revoked`] from here on, so the
    /// conservation harness can tell exactly whose token stream a fault
    /// was allowed to perturb.
    fn execute_revoke(&mut self, chip_idx: usize, now: u64) {
        self.elastic.revoke_pending[chip_idx] = false;
        // Pinned queue jobs (preempted victims and landed handoffs whose
        // KV was since swapped out) leave the queue first...
        let mut displaced = self.scheduler.drain_chip(chip_idx, &mut self.cost, true);
        // ...then every resident is evicted. The victim list is "all of
        // them", so the preemption policy is not consulted — revocation
        // is not a policy decision.
        let residents = self.chips[chip_idx].active_jobs();
        if residents > 0 {
            let all: Vec<usize> = (0..residents).collect();
            displaced.extend(self.chips[chip_idx].evict(&mut self.cost, &all, now));
        }
        self.elastic.stats[chip_idx].revoked_jobs += displaced.len() as u64;
        for mut job in displaced.into_iter().rev() {
            job.revoked = true;
            match job.resume.as_mut() {
                Some(resume) => {
                    let dst = self.best_online_chip();
                    resume.chip = dst;
                    self.scheduler.requeue(dst, job, &mut self.cost);
                }
                // Nothing ties an unpinned job here; back to the shared
                // queue it goes (front: it arrived before anything still
                // waiting there).
                None => self.scheduler.unroute_to_shared_front(job),
            }
        }
        self.finish_leave(chip_idx, now);
        for c in 0..self.chips.len() {
            self.kick(c, now);
        }
    }

    /// A join notice: price the model-weight stream into HBM and
    /// schedule the chip's entry into service after it.
    fn handle_join(&mut self, chip_idx: usize, now: u64) {
        if self.elastic.avail[chip_idx] != Availability::Offline
            || self.elastic.join_pending[chip_idx]
        {
            return; // already up or already warming
        }
        let delay = match self.elastic.weight_ref.clone() {
            Some(w) => self.cost.weight_load_cycles_on(chip_idx, &w),
            None => 0,
        };
        self.elastic.stats[chip_idx].weight_load_cycles += delay;
        self.elastic.join_pending[chip_idx] = true;
        self.push(now + delay, EventKind::Online(chip_idx as u32));
    }

    /// A joining chip's weight load finished: it enters service and
    /// immediately offers to take work (shared queue, stealing).
    fn handle_online(&mut self, chip_idx: usize, now: u64) {
        self.elastic.join_pending[chip_idx] = false;
        self.elastic.avail[chip_idx] = Availability::Online;
        self.chips[chip_idx].rejoin();
        self.elastic.online_since[chip_idx] = now;
        self.elastic.stats[chip_idx].joins += 1;
        self.kick(chip_idx, now);
    }

    /// An autoscaler window boundary: the policy observes fleet load and
    /// the engine applies its target against the reserve — joining the
    /// lowest-index offline reserve chips or draining the highest-index
    /// online ones. The autoscaler never revokes and never touches
    /// scheduled (non-reserve) capacity. The tick rearms only while work
    /// remains (injected arrivals included), so an idle fleet's clock is
    /// not kept alive forever.
    fn handle_autoscale(&mut self, now: u64) {
        let Some((window, _)) = self.elastic.autoscale else {
            return;
        };
        self.fill_loads(now);
        let online = self.elastic.online_count();
        let reserve_up = self
            .elastic
            .reserve
            .iter()
            .filter(|&&c| {
                self.elastic.avail[c] == Availability::Online || self.elastic.join_pending[c]
            })
            .count();
        let min_online = online - reserve_up;
        let max_online = min_online + self.elastic.reserve.len();
        let routed: usize = (0..self.chips.len())
            .map(|c| self.scheduler.pending_on(c))
            .sum();
        let view = FleetLoadView {
            loads: &self.loads_scratch,
            shared_jobs: self.scheduler.pending() - routed,
            online,
            min_online,
            max_online,
        };
        let (_, policy) = self.elastic.autoscale.as_mut().expect("checked above");
        let target = policy.target_online(view).clamp(min_online, max_online);
        if target > online {
            let mut need = target - online;
            let reserve = self.elastic.reserve.clone();
            for &c in &reserve {
                if need == 0 {
                    break;
                }
                if self.elastic.avail[c] == Availability::Offline && !self.elastic.join_pending[c] {
                    self.handle_join(c, now);
                    need -= 1;
                }
            }
        } else if target < online {
            let mut shed = online - target;
            let reserve = self.elastic.reserve.clone();
            for &c in reserve.iter().rev() {
                if shed == 0 {
                    break;
                }
                if self.elastic.avail[c] == Availability::Online {
                    self.handle_leave(c, LeaveMode::Drain, now);
                    shed -= 1;
                }
            }
        }
        let work_remains = !self.pending.is_empty()
            || self.scheduler.pending() > 0
            || self.jobs.live() > 0
            || self.client_queues.iter().any(|q| !q.is_empty())
            || self
                .chips
                .iter()
                .any(|c| c.active_jobs() > 0 || c.is_in_flight());
        if work_remains {
            self.push(now + window, EventKind::AutoscaleTick);
        } else {
            self.autoscale_armed = false;
        }
    }

    /// The prefill→decode migration step: every resident on `src` whose
    /// last prefill chunk just retired leaves for the decode pool. Fires
    /// only on [`PoolRole::Prefill`] chips — `Flex` chips keep their
    /// jobs, so an all-`Flex` (or absent) pool spec is the co-located
    /// baseline bit-for-bit.
    ///
    /// Per migrant: the target is the least-loaded decode-capable chip
    /// (by the same queued + in-service backlog estimate routing ranks
    /// with, ties to the lowest index); the payload is the job's unique
    /// dirty blocks — the pruned survivor set — plus the slice of its
    /// shared prefix not already warm on the target (warm prefix blocks
    /// transfer for free; contiguous KV has no block ledger, so the
    /// whole footprint moves); the price comes from
    /// [`FleetCost::handoff_cycles_on`] over the pool wiring and is
    /// charged into the source's busy cycles now and the target's at
    /// delivery, when the job re-enters admission pinned to the target.
    ///
    /// Most round ends hand nothing off (a prefill chip's round ends
    /// with a graduate only when a prefill pass just finished), so this
    /// returns before touching the pool spec unless `src` is a prefill
    /// chip and [`Chip::has_prefill_graduates`].
    fn migrate_graduates(&mut self, src: usize, now: u64) {
        let is_prefill = self
            .pools
            .as_ref()
            .is_some_and(|p| p.role(src) == PoolRole::Prefill);
        if !is_prefill || !self.chips[src].has_prefill_graduates() {
            return;
        }
        // Taken (not cloned) for the duration of the walk — the spec is
        // restored below, and nothing on this path reads `self.pools`.
        let pools = self.pools.take().expect("a prefill chip has a pool spec");
        for (mut job, dirty_bytes) in self.chips[src].take_prefill_graduates(now) {
            // Only online chips receive handoffs: a payload sent to a
            // draining chip would extend its departure, one sent to an
            // offline chip would strand. If the whole decode pool is
            // leaving, fall back to the least-loaded online chip of any
            // role — work-conserving beats pool purity.
            let dst = self
                .least_backlogged(pools.decode_targets(src))
                .unwrap_or_else(|| self.best_online_chip());
            let bytes = dirty_bytes
                + self.chips[dst]
                    .kv()
                    .cold_prefix_bytes(&mut self.cost, dst, &job);
            let cycles = self.cost.handoff_cycles_on(
                src,
                dst,
                &job.workload,
                bytes,
                pools.hops(src, dst),
                &pools.link,
            );
            // The pin now answers "which chip holds my KV": the target.
            job.resume.as_mut().expect("graduate carries resume").chip = dst;
            self.chips[src].charge_transfer_cycles(cycles);
            self.handoffs[src] += 1;
            self.handoff_bytes[src] += bytes;
            self.handoff_cycles[src] += cycles;
            self.elastic.inbound_handoffs[dst] += 1;
            let job = self.jobs.insert(job);
            self.push(
                now + cycles,
                EventKind::HandoffArrive {
                    job,
                    dst: dst as u32,
                    cycles,
                },
            );
        }
        self.pools = Some(pools);
    }

    /// A client whose request left the system (completed or rejected)
    /// thinks, then issues its next request.
    fn next_client_request(&mut self, client: Option<usize>, freed_at: u64) {
        if let Some(client) = client {
            if let Some(next) = self.client_queues.get_mut(client).and_then(Vec::pop) {
                let t = freed_at + self.think_cycles;
                let job = job_from(&next, Some(client), t, self.clock_ghz);
                let job = self.jobs.insert(job);
                self.push(t, EventKind::Arrival(job));
            }
        }
    }

    fn on_completion(&mut self, done: Completion) {
        self.next_client_request(done.client, done.finish_cycles);
        self.completions.push(done);
    }

    fn on_rejection(&mut self, job: Job, now: u64) {
        self.next_client_request(job.client, now);
        self.rejections.push(Rejection {
            id: job.id,
            class: job.class,
            priority: job.priority,
            client: job.client,
            arrival_cycles: job.arrival_cycles,
            reject_cycles: now,
            deadline_cycles: job.deadline_cycles,
        });
        if let Some(sink) = self.sink.as_mut() {
            sink.on_rejection(self.rejections.last().expect("just recorded"));
        }
    }

    /// Drains the round's recorded token events into the live sink.
    /// Without a sink the chips never record, so this never touches them
    /// — the offline simulator pays a single branch for the seam.
    fn emit_tokens(&mut self, chip_idx: usize) {
        if self.sink.is_none() || !self.chips[chip_idx].has_tokens() {
            return;
        }
        let mut buf = std::mem::take(&mut self.token_scratch);
        self.chips[chip_idx].drain_tokens_into(&mut buf);
        if let Some(sink) = self.sink.as_mut() {
            for ev in buf.drain(..) {
                sink.on_tokens(&ev);
            }
        }
        self.token_scratch = buf;
    }

    fn handle_arrival(&mut self, job: Job, now: u64) {
        // The load snapshot exists for the router; the default shared
        // queue never reads it.
        if self.scheduler.routes() {
            self.fill_loads(now);
        } else {
            self.loads_scratch.clear();
        }
        self.scheduler
            .on_arrival(job, &mut self.cost, &self.loads_scratch, now);
        for chip_idx in 0..self.chips.len() {
            self.kick(chip_idx, now);
        }
    }

    /// Pops and dispatches the earliest heap event.
    fn dispatch_next(&mut self) {
        let ev = self.events.pop().expect("heap non-empty");
        let now = ev.time;
        match ev.kind {
            EventKind::Arrival(id) => {
                let job = self.jobs.take(id);
                self.handle_arrival(job, now);
            }
            EventKind::RoundEnd(chip_idx) => {
                let chip_idx = chip_idx as usize;
                let mut finished = std::mem::take(&mut self.finished_scratch);
                self.chips[chip_idx].end_round_into(&mut finished);
                for done in finished.drain(..) {
                    self.on_completion(done);
                }
                self.finished_scratch = finished;
                // Live streaming: the round's recorded token emissions
                // reach the sink now, at the round boundary they became
                // visible on.
                self.emit_tokens(chip_idx);
                // Disaggregation: residents whose last prefill chunk
                // just retired leave for the decode pool before this
                // chip can plan another round around them.
                self.migrate_graduates(chip_idx, now);
                self.kick(chip_idx, now);
                // Only stealing lets a round end change what a peer can
                // do: a victim preemption just pushed to the front of
                // this chip's queue can make stealing the jobs behind it
                // newly profitable. Without stealing, peers are left
                // alone — the freed KV and slots are this chip's, the
                // shared queue only shrank, and an idle online peer has
                // nothing queued for it.
                if self.steal != StealSpec::Off {
                    for other in 0..self.chips.len() {
                        if other != chip_idx {
                            self.kick(other, now);
                        }
                    }
                }
            }
            EventKind::HandoffArrive { job, dst, cycles } => {
                // The fill leg occupies the target's HBM just like
                // the drain occupied the source's: the same transfer
                // cycles extend the target's next round, so neither
                // pool's utilization hides the migration.
                let dst = dst as usize;
                self.elastic.inbound_handoffs[dst] -= 1;
                let mut job = self.jobs.take(job);
                // The target was revoked while the payload was in
                // flight (only revocation can do this — a drain
                // waits for inbound handoffs): redirect to the
                // least-loaded online chip, which pays the fill leg
                // instead.
                let dst = if self.elastic.avail[dst] == Availability::Offline {
                    let fallback = self.best_online_chip();
                    job.resume
                        .as_mut()
                        .expect("handoff payload carries resume state")
                        .chip = fallback;
                    job.revoked = true;
                    fallback
                } else {
                    dst
                };
                self.chips[dst].charge_transfer_cycles(cycles);
                self.handoff_cycles[dst] += cycles;
                self.scheduler.requeue(dst, job, &mut self.cost);
                self.kick(dst, now);
            }
            EventKind::Leave(chip, mode) => self.handle_leave(chip as usize, mode, now),
            EventKind::Revoke(chip) => self.handle_revoke(chip as usize, now),
            EventKind::Join(chip) => self.handle_join(chip as usize, now),
            EventKind::Online(chip) => self.handle_online(chip as usize, now),
            EventKind::AutoscaleTick => self.handle_autoscale(now),
        }
    }
}

/// The engine a canonical [`Policy`] builds: every policy seam boxed,
/// over any cost oracle (`CostModel` for physical chips, the cluster
/// crate's `ClusterCostModel` for sharded groups).
pub type PolicyFleetEngine<C = CostModel> = FleetEngine<
    C,
    Box<dyn AdmissionPolicy>,
    Box<dyn BatchPolicy>,
    Box<dyn RoutingPolicy>,
    Box<dyn PreemptionPolicy>,
>;

/// Builds a [`FleetEngine`] under one of the canonical [`Policy`]s:
/// the (admission, batching) pair comes from `policy`, routing, stealing,
/// preemption and KV layout from `knobs`, and the engine keeps
/// `knobs.mode`, so [`FleetEngine::replay`] pre-warms under
/// [`SimMode::ParallelRounds`]. Every config-driven path — offline,
/// cluster and live — is built here.
///
/// Asking for preemption under a run-to-completion policy
/// ([`Policy::Fifo`] / [`Policy::Sjf`]) is accepted but **inert**: a
/// solitary resident always leaves free batch slots, so the preemption
/// policy never sees a blocked job and silently evicts nothing. The
/// combination is flagged loudly — a warning on stderr here, and
/// [`FleetReport::preemption_inert`] in the report — instead of letting
/// a sweep quietly compare "preemptive" FIFO to itself.
#[allow(clippy::too_many_arguments)]
pub fn fleet_engine_policy<C: FleetCost>(
    cost: C,
    chips: usize,
    policy: Policy,
    knobs: &SchedKnobs,
    pools: Option<PoolSpec>,
    elastic: Option<ElasticSchedule>,
    max_batch: usize,
    clock_ghz: f64,
) -> PolicyFleetEngine<C> {
    if matches!(policy, Policy::Fifo | Policy::Sjf) && knobs.preempt != PreemptSpec::None {
        eprintln!(
            "warning: preemption ({}) is inert under run-to-completion policy {}: \
             a solitary resident never blocks a queued job, so nothing is ever \
             evicted (the report carries preemption_inert=true)",
            knobs.preempt.name(),
            policy.name()
        );
    }
    let mut engine = FleetEngine::new(
        cost,
        chips,
        policy.name(),
        policy.admission(knobs),
        policy.batch(knobs),
        knobs.route.build(),
        knobs.steal,
        knobs.preempt.build(knobs),
        knobs.kv,
        pools,
        elastic,
        max_batch,
        clock_ghz,
    );
    engine.mode = knobs.mode;
    engine
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::RouteSpec;
    use spatten_core::{SpAttenConfig, StepCost};
    use spatten_workloads::{ArrivalSpec, TraceSpec};
    use std::cell::Cell;
    use std::rc::Rc;

    /// A [`CostModel`] that counts the pre-warms it is asked for.
    struct CountingPrewarm {
        inner: CostModel,
        prewarms: Rc<Cell<usize>>,
    }

    impl FleetCost for CountingPrewarm {
        fn prefill_on(&mut self, chip: usize, w: &Workload) -> StepCost {
            self.inner.prefill_on(chip, w)
        }
        fn decode_on(&mut self, chip: usize, w: &Workload, context: usize) -> StepCost {
            self.inner.decode_on(chip, w, context)
        }
        fn footprint_on(&mut self, chip: usize, w: &Workload) -> u64 {
            self.inner.footprint_on(chip, w)
        }
        fn budget_on(&self, chip: usize) -> u64 {
            self.inner.budget_on(chip)
        }
        fn swap_cycles_on(&mut self, chip: usize, w: &Workload, tokens: usize) -> u64 {
            self.inner.swap_cycles_on(chip, w, tokens)
        }
        fn raw_kv_bytes_on(&mut self, chip: usize, w: &Workload, tokens: usize) -> u64 {
            self.inner.raw_kv_bytes_on(chip, w, tokens)
        }
        fn swap_bytes_cycles_on(&mut self, chip: usize, w: &Workload, bytes: u64) -> u64 {
            self.inner.swap_bytes_cycles_on(chip, w, bytes)
        }
        fn prewarm(&mut self, jobs: &mut dyn Iterator<Item = &Workload>, threads: usize) {
            self.prewarms.set(self.prewarms.get() + 1);
            self.inner.prewarm(jobs, threads);
        }
    }

    #[test]
    fn replay_prewarms_exactly_under_parallel_rounds() {
        let trace = TraceSpec::mixed(
            ArrivalSpec::OpenPoisson {
                rate_rps: 2000.0,
                requests: 30,
            },
            5,
        )
        .generate();
        for (mode, expected) in [
            (SimMode::Serial, 0),
            (SimMode::ParallelRounds { threads: 2 }, 1),
        ] {
            let prewarms = Rc::new(Cell::new(0));
            let cost = CountingPrewarm {
                inner: CostModel::end_to_end(SpAttenConfig::default(), 8),
                prewarms: prewarms.clone(),
            };
            let knobs = SchedKnobs {
                mode,
                ..SchedKnobs::default()
            };
            let engine = fleet_engine_policy(
                cost,
                2,
                Policy::ContinuousBatching,
                &knobs,
                None,
                None,
                8,
                1.0,
            );
            assert_eq!(engine.replay(&trace).completed, 30);
            assert_eq!(prewarms.get(), expected, "{mode:?}");
        }
    }

    #[test]
    fn recycle_keeps_the_allocation_and_empties_it() {
        let ids = [1u64, 2, 3];
        let mut buf: Vec<&u64> = Vec::with_capacity(8);
        buf.extend(&ids);
        let (ptr, cap) = (buf.as_ptr() as usize, buf.capacity());
        let parked: Vec<&'static u64> = recycle(buf);
        assert!(parked.is_empty());
        assert_eq!((parked.as_ptr() as usize, parked.capacity()), (ptr, cap));
    }

    /// The premise behind waking only the chip whose round ended: an
    /// online chip with no round in flight and no residents has nothing
    /// queued for it — neither in its private queue nor in the shared
    /// queue. If it had, a peer's round end would be the only thing
    /// left to wake it.
    fn assert_idle_chips_have_no_queued_work(engine: &PolicyFleetEngine, cell: &str) {
        for (c, chip) in engine.chips.iter().enumerate() {
            if engine.elastic.avail[c] == Availability::Online
                && !chip.is_in_flight()
                && chip.active_jobs() == 0
            {
                assert_eq!(
                    engine.scheduler.queued_len_for(c),
                    0,
                    "{cell}: idle online chip {c} has work queued for it at t={}",
                    engine.now()
                );
            }
        }
    }

    #[test]
    fn idle_online_chips_never_have_work_queued_for_them() {
        // Two tiers in each trace, so priority preemption has victims.
        let mut mixed = TraceSpec::mixed(
            ArrivalSpec::OpenPoisson {
                rate_rps: 4000.0,
                requests: 24,
            },
            3,
        );
        mixed.classes[0] = mixed.classes[0].clone().with_priority(3);
        let mut chat = TraceSpec::disagg_chat(
            ArrivalSpec::OpenPoisson {
                rate_rps: 2000.0,
                requests: 16,
            },
            4,
        );
        chat.classes[0] = chat.classes[0].clone().with_priority(2);
        let traces = [
            ("mixed", mixed.generate()),
            ("disagg_chat", chat.generate()),
        ];
        // Full and eighth-scale chips in each pool, so a job can fit one
        // idle chip and not another. One memo, priced once and cloned
        // into every cell (memo values are pure functions of their key).
        let full = SpAttenConfig::default();
        let roster = vec![full, SpAttenConfig::eighth(), full, SpAttenConfig::eighth()];
        let mut warm = CostModel::heterogeneous(roster, Some(8));
        for (_, trace) in &traces {
            let Trace::Open { requests } = trace else {
                unreachable!("open-loop traces")
            };
            warm.prewarm(&mut requests.iter().map(|r| &r.workload), 1);
        }
        let routes = [
            (RouteSpec::SharedQueue, None),
            (RouteSpec::FastestChip, None),
            (RouteSpec::PoolAware, Some(PoolSpec::split(2, 2))),
        ];
        let (mut preemptions, mut steals) = (0, 0);
        for (name, trace) in &traces {
            let Trace::Open { requests } = trace else {
                unreachable!("open-loop traces")
            };
            for policy in Policy::ALL {
                for (route, pools) in &routes {
                    for steal in [StealSpec::Off, StealSpec::CostliestFit] {
                        for preempt in [PreemptSpec::None, PreemptSpec::Priority] {
                            for kv in [KvSpec::Contiguous, KvSpec::paged()] {
                                let cell = format!(
                                    "{name} {} {} steal={} preempt={} kv={}",
                                    policy.name(),
                                    route.name(),
                                    steal.name(),
                                    preempt.name(),
                                    kv.name()
                                );
                                let knobs = SchedKnobs {
                                    route: *route,
                                    steal,
                                    preempt,
                                    kv,
                                    ..SchedKnobs::default()
                                };
                                let mut engine = fleet_engine_policy(
                                    warm.clone(),
                                    4,
                                    policy,
                                    &knobs,
                                    pools.clone(),
                                    None,
                                    8,
                                    full.clock_ghz,
                                );
                                for req in requests {
                                    engine.inject(req);
                                    while engine.pending.len() > 1 && engine.step() {
                                        assert_idle_chips_have_no_queued_work(&engine, &cell);
                                    }
                                }
                                while engine.step() {
                                    assert_idle_chips_have_no_queued_work(&engine, &cell);
                                }
                                let report = engine.drain();
                                assert_eq!(
                                    report.completed + report.rejected,
                                    requests.len(),
                                    "{cell}"
                                );
                                preemptions += report.preemptions;
                                steals += report.chip_stats.iter().map(|c| c.steals).sum::<u64>();
                            }
                        }
                    }
                }
            }
        }
        // The grid must reach the seams that move work between queues.
        assert!(preemptions > 0 && steals > 0, "{preemptions} / {steals}");
    }
}
