//! Pluggable routing policies: which chip a job is assigned to at
//! *arrival* time.
//!
//! The default serving front-end is one shared queue: every chip pulls
//! from it at its round boundaries, so jobs land wherever a chip happens
//! to free up. That is work-conserving but **chip-agnostic** — on a
//! heterogeneous fleet an eighth-scale chip will happily grab a job the
//! full-size chip next to it would have finished 8× sooner, and the tail
//! pays for it. A [`RoutingPolicy`] runs *ahead of admission*: the moment
//! a job arrives it is assigned to one chip's private queue (or left in
//! the shared queue), using the cost oracle and a live load snapshot of
//! every chip. Admission then drains a chip's private queue first, the
//! shared queue second, under the same [`AdmissionPolicy`] either way.
//!
//! Bundled policies:
//!
//! * [`SharedQueueRouting`] — no routing; every job stays in the shared
//!   queue (the PR 1–3 behavior, and the right choice for homogeneous
//!   fleets where work conservation beats placement).
//! * [`FastestChipRouting`] — probes the cost model: the job goes to the
//!   chip minimizing `queued backlog + in-service backlog + this job's
//!   serial cycles on that chip`. On a mixed full/eighth fleet this sends
//!   work to full-size chips until their backlog exceeds the speed
//!   differential — exactly the placement-aware balance a blind shared
//!   queue cannot express. Counting **in-service** work (the remaining
//!   cycles of resident jobs, [`ChipLoad::in_service_cycles`]) is what
//!   keeps the estimate honest at saturation: with queued-only backlog a
//!   chip packed with long resident generations looks idle the moment its
//!   private queue drains, and the router piles new work onto the most
//!   loaded silicon in the fleet.
//! * [`ChurnAwareRouting`] — the fastest-chip estimate, additionally
//!   penalized by the chip's recent eviction churn
//!   ([`ChipLoad::recent_evictions`]): work routes *around* preemption
//!   hotspots, so low-priority jobs stop volunteering for chips where
//!   they are likely to be evicted and pay swap costs.
//! * [`LeastKvLoadedRouting`] — the job goes to the chip with the lowest
//!   fractional KV pressure (resident + queued footprints over budget),
//!   weighted by the chip's probed serial cost for this job so a slow
//!   chip's empty SRAM never outbids a fast chip's half-full one. On
//!   homogeneous fleets the weight cancels and pure KV-fraction ordering
//!   is preserved.
//! * [`HashAffinityRouting`] — deterministic hash of the client (or the
//!   request id for open-loop traffic) onto the fleet: a session's
//!   requests always land on the same chip, the stateless-front-end
//!   baseline real serving tiers use for cache affinity. Also the
//!   adversarial baseline for work-stealing: it routes with no load
//!   feedback at all, so only stealing can unwedge the backlog it piles
//!   onto slow chips.
//!
//! [`AdmissionPolicy`]: crate::scheduler::AdmissionPolicy

use crate::cost::FleetCost;
use crate::request::Job;
use spatten_workloads::PoolRole;
use std::fmt;

/// A live load snapshot of one chip, assembled by the event loop at every
/// arrival and handed to [`RoutingPolicy::route`].
#[derive(Debug, Clone, Copy)]
pub struct ChipLoad {
    /// The chip's disaggregation pool role ([`PoolRole::Flex`] on fleets
    /// without pools). Phase-aware policies use it to keep prefill work
    /// off decode specialists and vice versa.
    pub role: PoolRole,
    /// Jobs currently resident (executing) on the chip.
    pub active: usize,
    /// KV SRAM bytes resident jobs currently pin.
    pub kv_in_use: u64,
    /// The chip's KV packing budget.
    pub kv_budget: u64,
    /// Jobs queued in the chip's private (routed) queue.
    pub pending_jobs: usize,
    /// Serial-cycle estimate of the chip's private queue (each routed
    /// job's remaining whole-job cost on this chip, summed).
    pub pending_cycles: u64,
    /// KV footprint estimate of the chip's private queue.
    pub pending_kv: u64,
    /// Remaining estimated serial cycles of the jobs currently *resident*
    /// on the chip, maintained incrementally by the chip event loop (work
    /// already dispatched into the in-flight round counts as done).
    /// Queued-only backlog ignores exactly this term, which is why the
    /// pre-fix `FastestChipRouting` mis-placed at saturation.
    pub in_service_cycles: u64,
    /// Decaying count of recent preemption evictions on this chip (half
    /// life [`crate::chip::CHURN_HALF_LIFE_CYCLES`]): the preemption-
    /// hotspot signal [`ChurnAwareRouting`] penalizes.
    pub recent_evictions: f64,
    /// Whether the chip is leaving the fleet (draining or already
    /// offline, [`crate::elastic::Availability`]). No policy may place
    /// new work here — a job routed to a leaving chip would strand when
    /// the chip goes away. Always `false` on a fixed fleet.
    pub leaving: bool,
}

impl ChipLoad {
    /// The chip's full backlog estimate: queued plus in-service cycles —
    /// the quantity an arriving job waits behind.
    pub fn backlog_cycles(&self) -> u64 {
        self.pending_cycles.saturating_add(self.in_service_cycles)
    }

    /// Whether this chip's pool role accepts a job in the given phase
    /// (`prefilled` = the job's prompt pass already ran and it only
    /// needs decode steps). `Flex` accepts everything; a specialist
    /// accepts only its own phase.
    pub fn suits_phase(&self, prefilled: bool) -> bool {
        match self.role {
            PoolRole::Flex => true,
            PoolRole::Prefill => !prefilled,
            PoolRole::Decode => prefilled,
        }
    }
}

/// The routing seam: assigns an arriving job to a chip, or leaves it in
/// the shared queue.
///
/// Routing happens once, at arrival; admission (who *enters the batch*,
/// and when) still happens at round boundaries under the
/// [`AdmissionPolicy`](crate::scheduler::AdmissionPolicy). Returning
/// `Some(c)` places the job in chip `c`'s private queue; `None` leaves it
/// in the shared queue that any chip may drain.
///
/// ```
/// use spatten_serve::{ChipLoad, CostModel, FleetCost, Job, RoutingPolicy};
/// use spatten_core::SpAttenConfig;
///
/// /// Route everything to the last chip (a toy policy).
/// #[derive(Debug)]
/// struct LastChip;
/// impl RoutingPolicy for LastChip {
///     fn name(&self) -> &'static str {
///         "last-chip"
///     }
///     fn route(
///         &mut self,
///         _job: &Job,
///         _cost: &mut dyn FleetCost,
///         loads: &[ChipLoad],
///         _now: u64,
///     ) -> Option<usize> {
///         Some(loads.len() - 1)
///     }
/// }
/// ```
pub trait RoutingPolicy: fmt::Debug {
    /// Stable lowercase name for reports.
    fn name(&self) -> &'static str;

    /// Whether this policy ever routes. The event loop skips building
    /// the per-arrival [`ChipLoad`] snapshot when this is `false`, so
    /// the default shared-queue configuration pays nothing for the
    /// seam. Override only for always-`None` policies.
    fn routes(&self) -> bool {
        true
    }

    /// Picks the chip for `job` at time `now`, given one [`ChipLoad`] per
    /// chip. `None` = shared queue.
    fn route(
        &mut self,
        job: &Job,
        cost: &mut dyn FleetCost,
        loads: &[ChipLoad],
        now: u64,
    ) -> Option<usize>;
}

impl RoutingPolicy for Box<dyn RoutingPolicy> {
    fn name(&self) -> &'static str {
        self.as_ref().name()
    }

    fn routes(&self) -> bool {
        self.as_ref().routes()
    }

    fn route(
        &mut self,
        job: &Job,
        cost: &mut dyn FleetCost,
        loads: &[ChipLoad],
        now: u64,
    ) -> Option<usize> {
        self.as_mut().route(job, cost, loads, now)
    }
}

/// No routing: every job waits in the shared queue and lands on whichever
/// chip's admission drains it first.
#[derive(Debug, Clone, Copy, Default)]
pub struct SharedQueueRouting;

impl RoutingPolicy for SharedQueueRouting {
    fn name(&self) -> &'static str {
        "shared-queue"
    }

    fn routes(&self) -> bool {
        false
    }

    fn route(
        &mut self,
        _job: &Job,
        _cost: &mut dyn FleetCost,
        _loads: &[ChipLoad],
        _now: u64,
    ) -> Option<usize> {
        None
    }
}

/// Cost-model-probed routing: the job goes to the chip that minimizes
/// `queued backlog + in-service backlog + the job's own serial cycles on
/// that chip` — an estimated-completion greedy that prices the *job on
/// the hardware*, not just the queue length. Fast chips absorb most of
/// the traffic; slow chips only receive work once the fast chips' total
/// backlog exceeds the hardware speed gap. Ties break toward the lower
/// chip index, so routing is deterministic.
///
/// The in-service term ([`ChipLoad::in_service_cycles`]) is the
/// saturation fix: chips drain their private queues into their resident
/// sets, so at high load `pending_cycles` alone says nothing about how
/// far behind a chip really is, and a queued-only estimate routes new
/// work onto exactly the chips whose residents will hold it hostage
/// longest.
///
/// The opt-in [`FastestChipRouting::steal_aware`] variant additionally
/// prices the scheduler's work stealing into the estimate: queued
/// backlog on a chip is not hostage to that chip alone — any
/// less-loaded peer that goes idle will pull from the most backlogged
/// private queue ([`crate::StealSpec::CostliestFit`]). A chip with `k`
/// such peers therefore drains its queue up to `k + 1` ways in the
/// steady state, so its *queued* cycles are discounted by that factor
/// (the in-service residents are not — stealing never touches a
/// resident). Without stealing enabled the discount routes slightly
/// optimistically; with it, it stops the router from dodging backlog
/// the thieves were about to erase.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastestChipRouting {
    /// Whether queued backlog is discounted by the chip's profitable
    /// thief count (see the type-level docs).
    pub steal_aware: bool,
}

impl FastestChipRouting {
    /// Plain estimated-completion routing (the default).
    pub fn new() -> Self {
        Self::default()
    }

    /// Estimated-completion routing with queued backlog discounted on
    /// chips whose peers can profitably steal from them.
    pub fn steal_aware() -> Self {
        Self { steal_aware: true }
    }
}

/// The estimated completion of `job` on chip `c`: queued + in-service
/// backlog plus the job's own serial cycles there. Shared by
/// [`FastestChipRouting`] and [`ChurnAwareRouting`].
fn completion_estimate(job: &Job, cost: &mut dyn FleetCost, loads: &[ChipLoad], c: usize) -> u64 {
    loads[c]
        .backlog_cycles()
        .saturating_add(cost.job_serial_on(c, &job.workload))
}

/// Chips that may receive new placements at all: everything not leaving
/// the fleet, falling back to the whole fleet only in the degenerate
/// all-leaving case (the event loop never routes arrivals then, but the
/// fallback keeps every policy total). Shared by every routing policy —
/// the leaving-chip guard lives here so no policy can strand a job on a
/// departing chip.
fn placeable(loads: &[ChipLoad]) -> Vec<usize> {
    let open: Vec<usize> = (0..loads.len()).filter(|&c| !loads[c].leaving).collect();
    if open.is_empty() {
        (0..loads.len()).collect()
    } else {
        open
    }
}

/// Chips whose pool role matches `job`'s phase, falling back to every
/// placeable chip when no specialist matches (work conservation beats
/// purity). On a role-free fleet every chip is `Flex` and this is
/// [`placeable`]. Shared by the cost-probing policies so none of them
/// routes a prefill onto a decode specialist — the routing half of the
/// pool blind spot.
fn phase_eligible(job: &Job, loads: &[ChipLoad]) -> Vec<usize> {
    let prefilled = job.resume.is_some_and(|r| r.prefilled);
    let open = placeable(loads);
    let eligible: Vec<usize> = open
        .iter()
        .copied()
        .filter(|&c| loads[c].suits_phase(prefilled))
        .collect();
    if eligible.is_empty() {
        open
    } else {
        eligible
    }
}

impl RoutingPolicy for FastestChipRouting {
    fn name(&self) -> &'static str {
        if self.steal_aware {
            "fastest-chip-steal-aware"
        } else {
            "fastest-chip"
        }
    }

    fn route(
        &mut self,
        job: &Job,
        cost: &mut dyn FleetCost,
        loads: &[ChipLoad],
        _now: u64,
    ) -> Option<usize> {
        if !self.steal_aware {
            return phase_eligible(job, loads)
                .into_iter()
                .min_by_key(|&c| (completion_estimate(job, cost, loads, c), c));
        }
        phase_eligible(job, loads).into_iter().min_by_key(|&c| {
            // Peers strictly less loaded than `c` are its prospective
            // thieves: when one of them runs dry it pulls from the most
            // backlogged private queue, and `c`'s queue is ahead of
            // theirs in that ranking. Leaving chips never steal.
            let backlog = loads[c].backlog_cycles();
            let thieves = loads
                .iter()
                .enumerate()
                .filter(|&(d, l)| d != c && !l.leaving && l.backlog_cycles() < backlog)
                .count() as u64;
            let queued = loads[c].pending_cycles / (1 + thieves);
            let score = loads[c]
                .in_service_cycles
                .saturating_add(queued)
                .saturating_add(cost.job_serial_on(c, &job.workload));
            (score, c)
        })
    }
}

/// Churn-aware routing: the fastest-chip completion estimate, inflated
/// by the target chip's recent eviction churn — `estimate × (1 +
/// recent_evictions)`, so one recent eviction doubles the chip's
/// apparent backlog. A chip that keeps preempting residents is a bad
/// home for work that can be preempted: every eviction costs two KV
/// swaps and a requeue, none of which the plain completion estimate
/// prices. Routing low-priority traffic around those hotspots leaves
/// them to the high-priority work that causes the churn (and is never
/// its victim). With no churn anywhere it is exactly
/// [`FastestChipRouting`]. Ties break toward the lower chip index.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChurnAwareRouting;

impl RoutingPolicy for ChurnAwareRouting {
    fn name(&self) -> &'static str {
        "churn-aware"
    }

    fn route(
        &mut self,
        job: &Job,
        cost: &mut dyn FleetCost,
        loads: &[ChipLoad],
        _now: u64,
    ) -> Option<usize> {
        // One score per eligible chip up front (the memoized probe is
        // cheap but not free, and min_by compares O(n log n) times).
        let eligible = phase_eligible(job, loads);
        let scores: Vec<f64> = eligible
            .iter()
            .map(|&c| {
                completion_estimate(job, cost, loads, c) as f64
                    * (1.0 + loads[c].recent_evictions.max(0.0))
            })
            .collect();
        (0..eligible.len())
            .min_by(|&a, &b| {
                scores[a]
                    .partial_cmp(&scores[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(eligible[a].cmp(&eligible[b]))
            })
            .map(|i| eligible[i])
    }
}

/// KV-pressure routing, weighted by chip speed: the job goes to the chip
/// minimizing `(1 + fractional KV load) × the job's serial cycles on
/// that chip`, where the fractional load is resident plus already-queued
/// footprints over that chip's own budget. The serial factor is what
/// keeps this policy honest on speed-heterogeneous fleets: pure
/// KV-fraction ordering routes every arrival to whichever chip has the
/// emptiest SRAM — on a mixed full/eighth fleet that is usually an
/// eighth-scale chip that will take 8× longer, which is how the
/// unweighted policy lost to the shared queue. On homogeneous fleets the
/// serial factor is a constant and pure fraction ordering is preserved.
/// Ties break toward the lower chip index.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastKvLoadedRouting;

impl RoutingPolicy for LeastKvLoadedRouting {
    fn name(&self) -> &'static str {
        "least-kv-loaded"
    }

    fn route(
        &mut self,
        job: &Job,
        cost: &mut dyn FleetCost,
        loads: &[ChipLoad],
        _now: u64,
    ) -> Option<usize> {
        // Compare `serial_c × (budget_c + used_c) / budget_c` exactly in
        // integers by cross-multiplying (budgets are nonzero for any chip
        // with SRAM): a/b < c/d  ⇔  a·d < c·b.
        let serial: Vec<u64> = (0..loads.len())
            .map(|c| cost.job_serial_on(c, &job.workload))
            .collect();
        placeable(loads).into_iter().min_by(|&a, &b| {
            let (la, lb) = (&loads[a], &loads[b]);
            let (ba, bb) = (la.kv_budget.max(1), lb.kv_budget.max(1));
            let fa = serial[a] as u128
                * (ba as u128 + la.kv_in_use as u128 + la.pending_kv as u128)
                * bb as u128;
            let fb = serial[b] as u128
                * (bb as u128 + lb.kv_in_use as u128 + lb.pending_kv as u128)
                * ba as u128;
            fa.cmp(&fb).then(a.cmp(&b))
        })
    }
}

/// Session-affinity routing: a deterministic hash of the issuing client
/// (or the request id, for open-loop traffic without client identity)
/// picks the chip. Requests from one session always land on the same
/// chip — no load feedback at all, the baseline that shows what routing
/// *without* a cost model costs.
#[derive(Debug, Clone, Copy, Default)]
pub struct HashAffinityRouting;

/// SplitMix64 — a tiny, well-mixed integer hash (deterministic across
/// runs, unlike `std`'s `RandomState`). The elastic layer's seeded fault
/// schedules draw from it too.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

impl RoutingPolicy for HashAffinityRouting {
    fn name(&self) -> &'static str {
        "hash-affinity"
    }

    fn route(
        &mut self,
        job: &Job,
        _cost: &mut dyn FleetCost,
        loads: &[ChipLoad],
        _now: u64,
    ) -> Option<usize> {
        if loads.is_empty() {
            return None;
        }
        let key = match job.client {
            Some(client) => client as u64 | 1 << 63,
            None => job.id,
        };
        // Hash over the placeable set, not the full roster: a session
        // whose home chip drains re-hashes onto the survivors (real
        // affinity tiers re-shard exactly the same way), and on a fixed
        // fleet the set is the identity so placement is unchanged.
        let open = placeable(loads);
        Some(open[(splitmix64(key) % open.len() as u64) as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use spatten_core::SpAttenConfig;
    use spatten_workloads::{Benchmark, Workload};

    fn job(id: u64, client: Option<usize>) -> Job {
        let workload: Workload = Benchmark::gpt2_small_wikitext2().workload();
        Job {
            id,
            class: 0,
            priority: 0,
            client,
            arrival_cycles: 0,
            deadline_cycles: None,
            preemptions: 0,
            resume: None,
            shared_prefix_tokens: 0,
            revoked: false,
            workload,
            kv_need: Default::default(),
        }
    }

    fn idle(kv_budget: u64) -> ChipLoad {
        ChipLoad {
            role: PoolRole::Flex,
            active: 0,
            kv_in_use: 0,
            kv_budget,
            pending_jobs: 0,
            pending_cycles: 0,
            pending_kv: 0,
            in_service_cycles: 0,
            recent_evictions: 0.0,
            leaving: false,
        }
    }

    #[test]
    fn fastest_chip_prefers_the_full_size_chip_until_backlog_balances() {
        let mut cost = CostModel::heterogeneous(
            vec![SpAttenConfig::default(), SpAttenConfig::eighth()],
            Some(8),
        );
        let mut r = FastestChipRouting::default();
        let mut loads = vec![idle(cost.budget_on(0)), idle(cost.budget_on(1))];
        // Idle fleet: the full chip wins outright.
        assert_eq!(r.route(&job(0, None), &mut cost, &loads, 0), Some(0));
        // Pile backlog onto the full chip until the eighth chip's raw
        // serial cost is the cheaper estimated completion.
        let eighth_serial = cost.job_serial_on(1, &job(0, None).workload);
        loads[0].pending_cycles = eighth_serial * 2;
        assert_eq!(r.route(&job(1, None), &mut cost, &loads, 0), Some(1));
    }

    #[test]
    fn fastest_chip_counts_in_service_work() {
        // The saturation bugfix: a chip whose private queue is empty but
        // whose residents hold a mountain of remaining work must not look
        // idle to the router.
        let mut cost = CostModel::heterogeneous(
            vec![SpAttenConfig::default(), SpAttenConfig::eighth()],
            Some(8),
        );
        let mut r = FastestChipRouting::default();
        let mut loads = vec![idle(cost.budget_on(0)), idle(cost.budget_on(1))];
        let eighth_serial = cost.job_serial_on(1, &job(0, None).workload);
        // Queued-only estimates would still pick the full chip; its
        // in-service backlog says otherwise.
        loads[0].in_service_cycles = eighth_serial * 2;
        assert_eq!(r.route(&job(0, None), &mut cost, &loads, 0), Some(1));
    }

    #[test]
    fn steal_aware_discount_keeps_work_on_the_stealable_fast_chip() {
        // Plain fastest-chip flips to the slow chip once the fast chip's
        // queued backlog exceeds the hardware speed gap. Steal-aware
        // routing knows an idle peer will pull from that queue, halves
        // the queued term, and keeps the job on the fast chip until the
        // *discounted* backlog crosses the gap.
        let mut cost = CostModel::heterogeneous(
            vec![SpAttenConfig::default(), SpAttenConfig::eighth()],
            Some(8),
        );
        let w = &job(0, None).workload;
        let gap = cost.job_serial_on(1, w) - cost.job_serial_on(0, w);
        let mut loads = vec![idle(cost.budget_on(0)), idle(cost.budget_on(1))];
        // Backlog between 1x and 2x the gap: plain routing dodges the
        // fast chip, the steal discount (one idle thief => /2) does not.
        loads[0].pending_cycles = gap + gap / 2;
        let mut plain = FastestChipRouting::new();
        let mut aware = FastestChipRouting::steal_aware();
        assert_eq!(plain.route(&job(0, None), &mut cost, &loads, 0), Some(1));
        assert_eq!(aware.route(&job(0, None), &mut cost, &loads, 0), Some(0));
        // Past 2x the gap even the discounted queue is too long.
        loads[0].pending_cycles = gap * 3;
        assert_eq!(aware.route(&job(1, None), &mut cost, &loads, 0), Some(1));
        // In-service cycles are never discounted: residents can't be
        // stolen, so the same load carried in-service flips both.
        loads[0].pending_cycles = 0;
        loads[0].in_service_cycles = gap + gap / 2;
        assert_eq!(aware.route(&job(2, None), &mut cost, &loads, 0), Some(1));
    }

    #[test]
    fn steal_aware_ignores_leaving_peers_as_thieves() {
        // A draining chip never steals, so it must not discount its
        // neighbours' backlog. Backlog between 2x and 3x the gap: one
        // real thief (/2) is not enough to keep the job on the fast
        // chip, but mistakenly counting the leaving chip (/3) would be.
        let mut cost = CostModel::heterogeneous(
            vec![
                SpAttenConfig::default(),
                SpAttenConfig::eighth(),
                SpAttenConfig::eighth(),
            ],
            Some(8),
        );
        let w = &job(0, None).workload;
        let gap = cost.job_serial_on(1, w) - cost.job_serial_on(0, w);
        let mut loads = vec![
            idle(cost.budget_on(0)),
            idle(cost.budget_on(1)),
            idle(cost.budget_on(2)),
        ];
        loads[0].pending_cycles = gap * 2 + gap / 2;
        loads[2].leaving = true;
        let mut aware = FastestChipRouting::steal_aware();
        assert_eq!(aware.route(&job(0, None), &mut cost, &loads, 0), Some(1));
    }

    #[test]
    fn cost_probing_routers_respect_pool_roles() {
        // The pool blind spot: an idle decode specialist must not win a
        // fresh (prefill-phase) arrival from a busy flex chip — but when
        // no chip suits the phase, work conservation takes over.
        let mut cost = CostModel::end_to_end(SpAttenConfig::default(), 8);
        let mut decode = idle(1000);
        decode.role = PoolRole::Decode;
        let mut flex = idle(1000);
        flex.pending_cycles = 1_000_000; // busy, but prefill-capable
        let loads = vec![decode, flex];
        assert_eq!(
            FastestChipRouting::default().route(&job(0, None), &mut cost, &loads, 0),
            Some(1)
        );
        assert_eq!(
            ChurnAwareRouting.route(&job(0, None), &mut cost, &loads, 0),
            Some(1)
        );
        // All-decode fleet: fall back to the plain fastest chip.
        let all_decode = vec![decode, decode];
        assert_eq!(
            FastestChipRouting::default().route(&job(0, None), &mut cost, &all_decode, 0),
            Some(0)
        );
    }

    #[test]
    fn churn_aware_routes_around_preemption_hotspots() {
        let mut cost = CostModel::end_to_end(SpAttenConfig::default(), 8);
        let mut r = ChurnAwareRouting;
        let mut loads = vec![idle(1000), idle(1000)];
        // Equal backlog: index tie-break picks chip 0...
        assert_eq!(r.route(&job(0, None), &mut cost, &loads, 0), Some(0));
        // ...until chip 0 shows eviction churn.
        loads[0].recent_evictions = 2.0;
        assert_eq!(r.route(&job(0, None), &mut cost, &loads, 0), Some(1));
        // With zero churn everywhere it agrees with fastest-chip.
        loads[0].recent_evictions = 0.0;
        loads[0].pending_cycles = 1;
        assert_eq!(
            r.route(&job(0, None), &mut cost, &loads, 0),
            FastestChipRouting::default().route(&job(0, None), &mut cost, &loads, 0)
        );
    }

    #[test]
    fn least_kv_loaded_balances_fractions_not_bytes() {
        let mut cost = CostModel::end_to_end(SpAttenConfig::default(), 8);
        let mut r = LeastKvLoadedRouting;
        // Homogeneous chips (equal serial cost): chip 0 half full of a
        // small budget, chip 1 a quarter full of a budget twice the size.
        // Chip 1 is the lower *fraction*.
        let mut a = idle(1000);
        a.kv_in_use = 500;
        let mut b = idle(2000);
        b.kv_in_use = 500;
        assert_eq!(r.route(&job(0, None), &mut cost, &[a, b], 0), Some(1));
    }

    #[test]
    fn least_kv_loaded_weighs_pressure_by_chip_speed() {
        // Speed-heterogeneity fix: an empty eighth-scale chip must not
        // outbid a moderately loaded full-size chip — the job would take
        // ~8× longer there, which no SRAM headroom buys back.
        let mut cost = CostModel::heterogeneous(
            vec![SpAttenConfig::default(), SpAttenConfig::eighth()],
            Some(8),
        );
        let mut r = LeastKvLoadedRouting;
        let mut full = idle(cost.budget_on(0));
        full.kv_in_use = cost.budget_on(0) / 2; // half full
        let eighth = idle(cost.budget_on(1)); // empty but slow
        assert_eq!(
            r.route(&job(0, None), &mut cost, &[full, eighth], 0),
            Some(0)
        );
        // Both empty: the fast chip wins the tie.
        let empty = [idle(cost.budget_on(0)), idle(cost.budget_on(1))];
        assert_eq!(r.route(&job(0, None), &mut cost, &empty, 0), Some(0));
    }

    #[test]
    fn hash_affinity_is_sticky_per_client_and_deterministic() {
        let mut cost = CostModel::end_to_end(SpAttenConfig::default(), 8);
        let mut r = HashAffinityRouting;
        let loads = vec![idle(1); 4];
        let first = r.route(&job(0, Some(7)), &mut cost, &loads, 0);
        for id in 1..20 {
            assert_eq!(r.route(&job(id, Some(7)), &mut cost, &loads, 0), first);
        }
        // Different clients spread across chips.
        let chips: std::collections::BTreeSet<_> = (0..64)
            .map(|c| r.route(&job(0, Some(c)), &mut cost, &loads, 0).unwrap())
            .collect();
        assert!(chips.len() > 1, "64 clients must not all hash to one chip");
    }

    #[test]
    fn every_policy_skips_leaving_chips() {
        // The stranding guard: a chip that is draining (or already
        // offline) must never win a placement, no matter how idle it
        // looks — work routed there would die with the chip.
        let mut cost = CostModel::end_to_end(SpAttenConfig::default(), 8);
        let mut loads = vec![idle(1000), idle(1000), idle(1000)];
        loads[0].leaving = true; // the index tie-break favorite
        loads[2].leaving = true;
        assert_eq!(
            FastestChipRouting::default().route(&job(0, None), &mut cost, &loads, 0),
            Some(1)
        );
        assert_eq!(
            ChurnAwareRouting.route(&job(0, None), &mut cost, &loads, 0),
            Some(1)
        );
        assert_eq!(
            LeastKvLoadedRouting.route(&job(0, None), &mut cost, &loads, 0),
            Some(1)
        );
        // Hash affinity re-hashes every key onto the lone survivor.
        let mut hash = HashAffinityRouting;
        for id in 0..32 {
            assert_eq!(
                hash.route(&job(id, Some(id as usize)), &mut cost, &loads, 0),
                Some(1)
            );
        }
        // A leaving decode specialist loses to an online one even when
        // phase filtering is in play.
        let mut decode_gone = idle(1000);
        decode_gone.role = PoolRole::Decode;
        decode_gone.leaving = true;
        let mut decode_up = idle(1000);
        decode_up.role = PoolRole::Decode;
        decode_up.pending_cycles = 1_000_000;
        let mut resumed = job(0, None);
        resumed.resume = Some(crate::request::ResumeState {
            chip: 1,
            prefill_progress: 0,
            prefilled: true,
            steps_done: 1,
            start_cycles: 0,
            first_token_cycles: Some(0),
        });
        assert_eq!(
            FastestChipRouting::default().route(&resumed, &mut cost, &[decode_gone, decode_up], 0),
            Some(1)
        );
    }

    #[test]
    fn shared_queue_routes_nothing() {
        let mut cost = CostModel::end_to_end(SpAttenConfig::default(), 8);
        let loads = vec![idle(1); 4];
        assert_eq!(
            SharedQueueRouting.route(&job(0, None), &mut cost, &loads, 0),
            None
        );
    }
}
