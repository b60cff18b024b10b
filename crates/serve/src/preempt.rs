//! Pluggable preemption policies: which resident jobs get evicted to
//! make room for higher-priority queued work.
//!
//! Admission ([`crate::scheduler::AdmissionPolicy`]) can only act on free
//! capacity; once a chip's batch is full of long low-priority
//! generations, a latency-critical arrival waits for one of them to
//! *finish* — exactly the head-of-line blocking tail latency dies of. A
//! [`PreemptionPolicy`] runs at every round boundary, *before*
//! admission: it sees the queue and the resident set and may evict
//! residents mid-decode. Eviction is not free and not destructive:
//!
//! * The victim's KV working set is **drained to HBM** and later
//!   **restored**, each direction priced by
//!   [`crate::cost::FleetCost::swap_cycles_on`]
//!   at the chip's DRAM bandwidth and charged to the chip's busy time.
//! * The victim is re-queued **with its progress intact**
//!   ([`crate::request::ResumeState`]): completed prefill cycles and
//!   decoded tokens are never recomputed, so preemption trades *latency*
//!   (the victim's) for latency (the high-priority job's) — it never
//!   throws work away.
//!
//! Bundled policies:
//!
//! * [`NoPreemption`] — the default: residents run to completion of
//!   their admission (the PR 1–3 behavior).
//! * [`PriorityPreemption`] — evicts strictly-lower-priority residents
//!   when the highest-priority queued job cannot fit, choosing victims by
//!   (lowest priority, largest KV freed, youngest arrival) and stopping
//!   as soon as the blocked job fits. A per-job `fairness` bound caps how
//!   often any one job may be evicted: once a job has been preempted
//!   `fairness` times it becomes immune, so adversarial high-priority
//!   floods cannot starve the batch tier.

use crate::cost::FleetCost;
use crate::request::Job;
use crate::scheduler::ChipCapacity;
use std::cmp::Reverse;
use std::fmt;

/// The event loop's view of one resident job, offered to
/// [`PreemptionPolicy::victims`] (in resident order, matching the
/// indices the policy returns).
#[derive(Debug, Clone, Copy)]
pub struct VictimView {
    /// Scheduling priority tier (higher outranks lower).
    pub priority: u8,
    /// Times this job has already been preempted.
    pub preemptions: u32,
    /// KV SRAM bytes the job pins (freed if evicted).
    pub kv_footprint: u64,
    /// Whether the prefill pass has fully executed.
    pub prefilled: bool,
    /// Decode steps completed so far.
    pub steps_done: usize,
    /// Decode steps the job wants in total.
    pub gen_steps: usize,
    /// Arrival time in cycles.
    pub arrival_cycles: u64,
}

/// The preemption seam: picks resident jobs to evict at a round
/// boundary, before admission runs.
///
/// Returns indices into `residents`; an empty vector means nobody moves.
/// The event loop evicts the victims (charging swap-out), re-queues them
/// with their [`ResumeState`](crate::request::ResumeState), and only then
/// runs admission against the enlarged capacity.
///
/// ```
/// use spatten_serve::{
///     ChipCapacity, FleetCost, Job, PreemptionPolicy, VictimView,
/// };
///
/// /// Evict every resident whenever anything is queued (a toy policy —
/// /// it thrashes, but it shows the seam).
/// #[derive(Debug)]
/// struct EvictAll;
/// impl PreemptionPolicy for EvictAll {
///     fn name(&self) -> &'static str {
///         "evict-all"
///     }
///     fn victims(
///         &mut self,
///         queued: &[&Job],
///         residents: &[VictimView],
///         _cost: &mut dyn FleetCost,
///         _chip: usize,
///         _cap: ChipCapacity,
///         _now: u64,
///     ) -> Vec<usize> {
///         if queued.is_empty() {
///             Vec::new()
///         } else {
///             (0..residents.len()).collect()
///         }
///     }
/// }
/// ```
pub trait PreemptionPolicy: fmt::Debug {
    /// Stable lowercase name for reports.
    fn name(&self) -> &'static str;

    /// Whether this policy can ever evict. The event loop skips the
    /// per-kick queue/resident snapshot entirely when this is `false`,
    /// so the default non-preemptive configuration pays nothing for the
    /// seam. Override only for always-empty policies.
    fn may_preempt(&self) -> bool {
        true
    }

    /// Picks victims among `residents` of chip `chip` at time `now`,
    /// given the jobs `queued` for it (its private queue first, then the
    /// shared queue, each in arrival order) and its free capacity `cap`.
    fn victims(
        &mut self,
        queued: &[&Job],
        residents: &[VictimView],
        cost: &mut dyn FleetCost,
        chip: usize,
        cap: ChipCapacity,
        now: u64,
    ) -> Vec<usize>;
}

impl PreemptionPolicy for Box<dyn PreemptionPolicy> {
    fn name(&self) -> &'static str {
        self.as_ref().name()
    }

    fn may_preempt(&self) -> bool {
        self.as_ref().may_preempt()
    }

    fn victims(
        &mut self,
        queued: &[&Job],
        residents: &[VictimView],
        cost: &mut dyn FleetCost,
        chip: usize,
        cap: ChipCapacity,
        now: u64,
    ) -> Vec<usize> {
        self.as_mut()
            .victims(queued, residents, cost, chip, cap, now)
    }
}

/// Never evicts: admitted jobs hold their batch slot to completion.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoPreemption;

impl PreemptionPolicy for NoPreemption {
    fn name(&self) -> &'static str {
        "none"
    }

    fn may_preempt(&self) -> bool {
        false
    }

    fn victims(
        &mut self,
        _queued: &[&Job],
        _residents: &[VictimView],
        _cost: &mut dyn FleetCost,
        _chip: usize,
        _cap: ChipCapacity,
        _now: u64,
    ) -> Vec<usize> {
        Vec::new()
    }
}

/// Priority-driven eviction with a per-job fairness bound.
///
/// At each round boundary the policy looks at the highest-priority
/// queued job (oldest first within a tier). If that job already fits the
/// chip's free capacity, admission will handle it and nobody is evicted.
/// If it doesn't fit, residents of *strictly lower* priority whose
/// preemption count is still below `fairness` are evicted — lowest
/// priority first, then largest KV footprint (fewest evictions per byte
/// freed), then youngest arrival — until the blocked job fits. If even
/// evicting every eligible victim would not make room, nothing is
/// evicted: pointless swaps are never charged.
///
/// Equal-priority work is never evicted (no mutual-eviction livelock),
/// and the `fairness` bound makes starvation impossible by construction:
/// a job can be preempted at most `fairness` times, after which it is
/// immune and runs to completion.
#[derive(Debug, Clone, Copy)]
pub struct PriorityPreemption {
    /// The most times any one job may be evicted.
    pub fairness: u32,
}

impl PreemptionPolicy for PriorityPreemption {
    fn name(&self) -> &'static str {
        "priority"
    }

    fn victims(
        &mut self,
        queued: &[&Job],
        residents: &[VictimView],
        cost: &mut dyn FleetCost,
        chip: usize,
        cap: ChipCapacity,
        _now: u64,
    ) -> Vec<usize> {
        // The job preemption would serve: highest priority, oldest first.
        let Some(blocked) = queued
            .iter()
            .max_by_key(|j| (j.priority, Reverse((j.arrival_cycles, j.id))))
        else {
            return Vec::new();
        };
        // Page-table-backed under paged KV allocation: a blocked job
        // whose class prefix is already resident needs far fewer free
        // blocks, so fewer victims move.
        let footprint = cost.job_footprint_on(chip, blocked);
        if cap.slots > 0 && footprint <= cap.kv_free {
            return Vec::new(); // fits as-is; admission will take it
        }
        // Eligible victims: strictly outranked and under the fairness
        // bound. Cheapest evictions first.
        let mut candidates: Vec<usize> = (0..residents.len())
            .filter(|&i| {
                residents[i].priority < blocked.priority && residents[i].preemptions < self.fairness
            })
            .collect();
        candidates.sort_by_key(|&i| {
            let r = &residents[i];
            (
                r.priority,
                Reverse(r.kv_footprint),
                Reverse(r.arrival_cycles),
            )
        });
        let mut kv_free = cap.kv_free;
        let mut slots = cap.slots;
        let mut victims = Vec::new();
        for i in candidates {
            if slots > 0 && footprint <= kv_free {
                break;
            }
            kv_free += residents[i].kv_footprint;
            slots += 1;
            victims.push(i);
        }
        if slots > 0 && footprint <= kv_free {
            victims
        } else {
            Vec::new() // even a full sweep wouldn't fit it — don't thrash
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use spatten_core::SpAttenConfig;
    use spatten_workloads::{Benchmark, Workload};

    fn job(id: u64, priority: u8, seq_len: usize) -> Job {
        let mut workload: Workload = Benchmark::gpt2_small_wikitext2().workload();
        workload.seq_len = seq_len;
        workload.gen_steps = 8;
        Job {
            id,
            class: 0,
            priority,
            client: None,
            arrival_cycles: id,
            deadline_cycles: None,
            preemptions: 0,
            resume: None,
            shared_prefix_tokens: 0,
            revoked: false,
            workload,
        }
    }

    fn resident(priority: u8, kv: u64, preemptions: u32) -> VictimView {
        VictimView {
            priority,
            preemptions,
            kv_footprint: kv,
            prefilled: true,
            steps_done: 2,
            gen_steps: 8,
            arrival_cycles: 0,
        }
    }

    fn full_cap() -> ChipCapacity {
        ChipCapacity {
            active: 2,
            kv_free: 0,
            slots: 0,
        }
    }

    #[test]
    fn evicts_lowest_priority_largest_kv_first() {
        let mut cost = CostModel::end_to_end(SpAttenConfig::default(), 8);
        let mut p = PriorityPreemption { fairness: 4 };
        let high = job(0, 3, 64);
        let need = cost.footprint_on(0, &high.workload);
        let residents = [
            resident(1, need / 2, 0),
            resident(0, need, 0), // lowest tier, biggest footprint: first out
            resident(2, need * 2, 0),
        ];
        let victims = p.victims(&[&high], &residents, &mut cost, 0, full_cap(), 0);
        assert_eq!(victims, vec![1], "one eviction frees enough");
    }

    #[test]
    fn never_evicts_equal_or_higher_priority() {
        let mut cost = CostModel::end_to_end(SpAttenConfig::default(), 8);
        let mut p = PriorityPreemption { fairness: 4 };
        let incoming = job(0, 1, 64);
        let residents = [resident(1, u64::MAX, 0), resident(2, u64::MAX, 0)];
        assert!(p
            .victims(&[&incoming], &residents, &mut cost, 0, full_cap(), 0)
            .is_empty());
    }

    #[test]
    fn fairness_bound_grants_immunity() {
        let mut cost = CostModel::end_to_end(SpAttenConfig::default(), 8);
        let mut p = PriorityPreemption { fairness: 2 };
        let high = job(0, 3, 64);
        let residents = [resident(0, u64::MAX, 2)]; // already at the bound
        assert!(p
            .victims(&[&high], &residents, &mut cost, 0, full_cap(), 0)
            .is_empty());
    }

    #[test]
    fn no_eviction_when_the_job_already_fits() {
        let mut cost = CostModel::end_to_end(SpAttenConfig::default(), 8);
        let mut p = PriorityPreemption { fairness: 4 };
        let high = job(0, 3, 64);
        let cap = ChipCapacity {
            active: 1,
            kv_free: u64::MAX,
            slots: 4,
        };
        let residents = [resident(0, 1000, 0)];
        assert!(p
            .victims(&[&high], &residents, &mut cost, 0, cap, 0)
            .is_empty());
    }

    #[test]
    fn no_eviction_when_even_a_full_sweep_cannot_fit_it() {
        let mut cost = CostModel::end_to_end(SpAttenConfig::default(), 8);
        let mut p = PriorityPreemption { fairness: 4 };
        let high = job(0, 3, 1024);
        // One tiny victim, and a capacity so small the big job can never
        // fit: evicting would be pure waste, so nobody moves.
        let residents = [resident(0, 1, 0)];
        assert!(p
            .victims(&[&high], &residents, &mut cost, 0, full_cap(), 0)
            .is_empty());
    }
}
