//! Request lifecycle types: a job waiting for or occupying a chip, the
//! resume state a preempted job carries back to the queue, the completion
//! record the metrics layer aggregates, and the rejection record
//! SLO-aware admission produces.

use crate::kv::KvNeedMemo;
use spatten_workloads::Workload;

/// A request inside the simulator: trace identity plus arrival timestamp in
/// fleet (core-clock) cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Stable trace id.
    pub id: u64,
    /// Index into the trace spec's class list.
    pub class: usize,
    /// Scheduling priority tier: higher outranks lower (see
    /// `spatten_workloads::RequestClass::with_priority`).
    pub priority: u8,
    /// Issuing client, for closed-loop traces.
    pub client: Option<usize>,
    /// Arrival time in cycles.
    pub arrival_cycles: u64,
    /// Absolute completion deadline in cycles (`None` = best-effort).
    pub deadline_cycles: Option<u64>,
    /// Times this job has been preempted off a chip so far.
    pub preemptions: u32,
    /// Progress preserved across preemption (`None` for a job that has
    /// never run). A re-admitted job resumes from here instead of
    /// recomputing its prefix — preemption never loses generated work.
    pub resume: Option<ResumeState>,
    /// Tokens at the head of the prompt shared with the request class's
    /// system prefix (clamped to `workload.seq_len` at trace
    /// generation). Under paged KV allocation
    /// ([`KvSpec::Paged`](crate::kv::KvSpec)) these tokens map to a
    /// refcounted per-class prefix charged once per chip; `0` (the
    /// default) shares nothing and reproduces contiguous accounting.
    pub shared_prefix_tokens: usize,
    /// Whether an elastic revocation ([`LeaveMode::Revoke`]) ever
    /// displaced this job off a departing chip. Revocation-touched jobs
    /// keep their generated work (the `resume` state migrates with
    /// them), but their timing is perturbed — the conservation harness
    /// uses this marker to separate them from jobs whose trajectory a
    /// fault-free twin must reproduce exactly.
    ///
    /// [`LeaveMode::Revoke`]: crate::elastic::LeaveMode::Revoke
    pub revoked: bool,
    /// The per-request workload.
    pub workload: Workload,
    /// The job's paged-KV demand curve
    /// ([`JobKvNeed`](crate::kv::JobKvNeed)) as last priced, and for
    /// which chip, so fit checks do not re-price it. While the job is
    /// resident under paging it is the curve the job was mapped with:
    /// half of its page table. Start it empty (`Default::default()`); it
    /// takes no part in `==`.
    pub kv_need: KvNeedMemo,
}

/// The execution progress a preempted job carries back to the queue: its
/// KV prefix lives in HBM (drained at eviction, restored at re-admission
/// — both charged through `FleetCost::swap_cycles_on`), and the chip
/// event loop resumes the job exactly where it stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeState {
    /// The chip holding this job's KV state. A resumed job is **pinned**
    /// to this chip: routing and work-stealing must never migrate it,
    /// and [`Chip::admit`](crate::chip::Chip::admit) asserts the pin.
    /// For a preemption victim that is the *evicting* chip (its HBM
    /// holds the drained prefix and the swap accounting lives there);
    /// for a disaggregation handoff
    /// ([`crate::disagg::PoolSpec`]) it is the *target decode* chip the
    /// KV pages were transferred to — the pin always answers "which
    /// chip holds my KV", not "which chip ran me last".
    pub chip: usize,
    /// Serial prefill cycles already executed.
    pub prefill_progress: u64,
    /// Whether the prefill pass had fully executed.
    pub prefilled: bool,
    /// Decode steps already completed.
    pub steps_done: usize,
    /// The job's *first* execution start, in cycles (queue-wait metrics
    /// measure to the first start, not the post-preemption restart).
    pub start_cycles: u64,
    /// Absolute time the first visible token was emitted, if it was.
    pub first_token_cycles: Option<u64>,
}

impl ResumeState {
    /// Context tokens whose KV state exists and must be swapped: the full
    /// prompt once prefill finished (plus one per decoded token), a
    /// proportional slice of it mid-prefill.
    pub fn kv_tokens(&self, w: &Workload, full_prefill_cycles: u64) -> usize {
        if self.prefilled {
            w.seq_len + self.steps_done
        } else {
            let frac = self.prefill_progress as f64 / full_prefill_cycles.max(1) as f64;
            (w.seq_len as f64 * frac) as usize
        }
    }
}

/// The record of one finished request.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// Stable trace id.
    pub id: u64,
    /// Index into the trace spec's class list.
    pub class: usize,
    /// Scheduling priority tier the job carried.
    pub priority: u8,
    /// Issuing client, for closed-loop traces.
    pub client: Option<usize>,
    /// Chip the job finished on.
    pub chip: usize,
    /// Arrival time in cycles.
    pub arrival_cycles: u64,
    /// Execution start (first admission to a chip) in cycles.
    pub start_cycles: u64,
    /// Completion time in cycles.
    pub finish_cycles: u64,
    /// Time the first visible token was ready, in cycles (prefill output
    /// for discriminative jobs, first generated token otherwise).
    pub first_token_cycles: u64,
    /// Absolute completion deadline in cycles (`None` = best-effort).
    pub deadline_cycles: Option<u64>,
    /// Times the job was preempted (evicted and later resumed) on its way
    /// to completion.
    pub preemptions: u32,
    /// Input tokens processed by the prefill pass.
    pub prefill_tokens: usize,
    /// Tokens generated by the decode stage (0 for BERT jobs).
    pub generated_tokens: usize,
    /// Whether an elastic revocation displaced this job mid-flight (see
    /// [`Job::revoked`]). Untouched jobs must match their fault-free
    /// twin token-for-token; revoked jobs keep their work but not their
    /// timing.
    pub revoked: bool,
}

impl Completion {
    /// End-to-end latency in cycles.
    pub fn latency_cycles(&self) -> u64 {
        self.finish_cycles - self.arrival_cycles
    }

    /// Queueing delay before execution started, in cycles.
    pub fn wait_cycles(&self) -> u64 {
        self.start_cycles - self.arrival_cycles
    }

    /// Time to first token, in cycles.
    pub fn ttft_cycles(&self) -> u64 {
        self.first_token_cycles - self.arrival_cycles
    }

    /// Cycles spent in the decode phase (first token to finish); zero for
    /// discriminative jobs.
    pub fn decode_cycles(&self) -> u64 {
        self.finish_cycles - self.first_token_cycles
    }

    /// Mean time between generated tokens, in cycles — the decode-latency
    /// statistic iteration-level scheduling optimizes. The span from
    /// first token to finish contains `generated_tokens - 1` inter-token
    /// gaps, so `None` for jobs generating fewer than two tokens (no gap
    /// exists to measure).
    pub fn tbt_cycles(&self) -> Option<u64> {
        (self.generated_tokens > 1)
            .then(|| self.decode_cycles() / (self.generated_tokens as u64 - 1))
    }

    /// Whether the completion met its deadline (best-effort always does).
    pub fn met_deadline(&self) -> bool {
        self.deadline_cycles.is_none_or(|d| self.finish_cycles <= d)
    }

    /// Tokens this request moved through the fleet (prefill + generated).
    pub fn tokens(&self) -> u64 {
        (self.prefill_tokens + self.generated_tokens) as u64
    }
}

/// The record of a request dropped by SLO-aware admission before it ever
/// touched a chip: the scheduler predicted the deadline was unmeetable and
/// shed the job instead of burning cycles on a guaranteed violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Rejection {
    /// Stable trace id.
    pub id: u64,
    /// Index into the trace spec's class list.
    pub class: usize,
    /// Scheduling priority tier the job carried.
    pub priority: u8,
    /// Issuing client, for closed-loop traces.
    pub client: Option<usize>,
    /// Arrival time in cycles.
    pub arrival_cycles: u64,
    /// Time the scheduler shed the job, in cycles.
    pub reject_cycles: u64,
    /// The deadline that was judged unmeetable.
    pub deadline_cycles: Option<u64>,
}
