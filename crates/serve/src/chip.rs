//! One simulated SpAtten accelerator inside the fleet.
//!
//! A chip executes *rounds*. What a round contains is the
//! [`BatchPolicy`]'s decision: under run-to-completion policies a round
//! is an entire job; under iteration-level policies a round is one
//! iteration in which each resident job executes the [`RoundStep`] the
//! policy planned for it — a chunk of its prefill pass, one decode token,
//! or nothing (decode-prioritized budgets may idle a prefill for a
//! round). The iteration's length is set by HBM-bandwidth-aware
//! co-scheduling:
//!
//! ```text
//! iteration_cycles = max( Σ compute_i , Σ dram_i ) + round_overhead
//! ```
//!
//! Each resource serializes within itself (one multiplier-array complex,
//! one HBM stack per chip), but one job's compute overlaps another job's
//! KV/weight streaming. On top of that, *model weights are shared*: every
//! resident job of the same model reads the same FC/FFN planes, so the
//! iteration streams them once per model, not once per job
//! ([`spatten_core::StepCost::weight_dram_cycles`]) — the batched-matvec →
//! matmul effect that makes batched decode profitable at all. Per-request
//! KV traffic stays private and still serializes across the batch.
//!
//! Chips are also **preemptible** at round boundaries: the event loop may
//! [`Chip::evict`] resident jobs (chosen by a
//! [`crate::preempt::PreemptionPolicy`]), draining their KV state to HBM,
//! and a later [`Chip::admit`] of the same job restores it. Both
//! directions are priced by [`FleetCost::swap_cycles_on`] and charged to
//! the *next* round the chip starts — swaps occupy the SRAM ports and
//! HBM channels just like real work, so they extend the chip's busy time
//! rather than happening for free between rounds.

use crate::batch::{BatchPolicy, ResidentView, RoundStep};
use crate::cost::FleetCost;
use crate::engine::TokenEvent;
use crate::kv::ChipKv;
use crate::preempt::VictimView;
use crate::request::{Completion, Job, ResumeState};
use crate::scheduler::remaining_cycles_on;
use spatten_core::StepCost;
use spatten_nn::ModelConfig;

/// Half life, in core cycles, of the per-chip eviction-churn counter
/// behind [`crate::route::ChipLoad::recent_evictions`] (10 ms at the
/// Table-I 1 GHz clock): long enough that a preemption storm is visible
/// to routing for many arrivals, short enough that a chip that stopped
/// evicting stops being penalized.
pub const CHURN_HALF_LIFE_CYCLES: u64 = 10_000_000;

/// A job resident on a chip.
#[derive(Debug, Clone)]
struct Active {
    job: Job,
    /// KV bytes the job holds here: its whole reservation, or paged, its
    /// unique pages — with the curve in [`Job::kv_need`], the job's page
    /// table.
    footprint: u64,
    start_cycles: u64,
    first_token_cycles: Option<u64>,
    /// Serial prefill cycles completed so far (chunked prefill: the pass
    /// advances one quantum per iteration so resident decode jobs never
    /// stall behind a whole multi-millisecond prefill).
    prefill_progress: u64,
    /// Whether the prefill pass has fully executed.
    prefilled: bool,
    /// Decode steps completed so far.
    steps_done: usize,
    /// Remaining estimated serial cycles of this job, charged at
    /// admission ([`remaining_cycles_on`]) and drawn down as each round
    /// dispatches its work — the per-resident term behind
    /// [`Chip::in_service_cycles`]. Exact by construction: admission and
    /// execution price steps through the same memoized oracle queries,
    /// so the estimate reaches 0 at completion ([`Chip::est_drift`]
    /// records any violation).
    est_remaining: u64,
    /// The last prefill chunk's `(priced pass, chunk cycles, slice)`.
    /// Every chunk but a job's last has the same length and the same
    /// priced pass, so the proportional slice is recomputed only when
    /// either changes (a batch-aware oracle may reprice the pass).
    chunk_slice: Option<(StepCost, u64, StepCost)>,
}

impl Active {
    /// Whether this resident has just finished its prefill pass and
    /// still wants decode tokens: prefilled, no decode step yet, a
    /// generative workload — a disaggregation graduate.
    fn is_prefill_graduate(&self) -> bool {
        self.prefilled && self.steps_done == 0 && self.job.workload.gen_steps > 0
    }
}

/// One accelerator's event-loop state.
#[derive(Debug)]
pub struct Chip {
    /// Chip index within the fleet.
    pub id: usize,
    active: Vec<Active>,
    /// The chip's KV store, contiguous or paged.
    kv: ChipKv,
    /// Completions produced by the in-flight round (drained when it ends).
    finished: Vec<Completion>,
    /// Whether a round is currently executing.
    in_flight: bool,
    /// Cycles this chip spent executing rounds.
    pub busy_cycles: u64,
    /// Rounds executed.
    pub rounds: u64,
    /// Σ (batch size × round cycles), for mean-occupancy reporting.
    pub occupancy_area: u128,
    /// High-water mark of KV SRAM bytes in use.
    pub max_kv_in_use: u64,
    /// Preemption evictions performed.
    pub evictions: u64,
    /// Cycles spent swapping KV state to and from HBM (subset of
    /// [`Chip::busy_cycles`]).
    pub swap_cycles: u64,
    /// Swap cycles accrued since the last round started; charged to the
    /// next round.
    pending_swap_cycles: u64,
    /// Accumulated mismatch between the in-service estimate charged at
    /// admission and the work actually executed, observed when jobs
    /// retire. The estimator is exact by construction, so any nonzero
    /// value is a bookkeeping bug — the simulator asserts it stays 0.
    pub est_drift: u64,
    /// Whether the chip has left the fleet (drained out or revoked, or a
    /// cold reserve/join chip that has not come up yet). A left chip
    /// admits nothing — [`Chip::admit`] asserts it.
    left: bool,
    /// Decayed eviction-churn counter (see [`CHURN_HALF_LIFE_CYCLES`]).
    churn: f64,
    /// Time the churn counter was last folded down.
    churn_seen: u64,
    /// Reusable per-round scratch (resident views handed to the batch
    /// policy; retire / first-token / shared-weight worklists built
    /// while planning an iteration). Rounds fire millions of times per
    /// trace — these buffers keep the hot loop allocation-free.
    views_scratch: Vec<ResidentView>,
    /// Each resident's next step as priced for its view this round: the
    /// whole prefill pass, or the next decode token. The iteration
    /// reuses these instead of asking the oracle again. Valid for one
    /// round only — a batch-aware oracle prices against the live depth
    /// ([`FleetCost::note_batch`]).
    priced_scratch: Vec<StepCost>,
    done_scratch: Vec<usize>,
    emitters_scratch: Vec<usize>,
    weights_scratch: Vec<(ModelConfig, u64)>,
    /// Whether rounds record per-resident [`TokenEvent`]s. Armed only
    /// when a live [`crate::TokenSink`] is installed; off — every
    /// offline simulation — the recording branches never run.
    record_tokens: bool,
    /// Token emissions of the in-flight round, drained to the sink at
    /// the round's end.
    token_log: Vec<TokenEvent>,
}

impl Chip {
    /// An idle chip holding its KV in `kv`.
    pub fn new(id: usize, kv: ChipKv) -> Self {
        Self {
            id,
            active: Vec::new(),
            kv,
            finished: Vec::new(),
            in_flight: false,
            busy_cycles: 0,
            rounds: 0,
            occupancy_area: 0,
            max_kv_in_use: 0,
            evictions: 0,
            swap_cycles: 0,
            pending_swap_cycles: 0,
            est_drift: 0,
            left: false,
            churn: 0.0,
            churn_seen: 0,
            views_scratch: Vec::new(),
            priced_scratch: Vec::new(),
            done_scratch: Vec::new(),
            emitters_scratch: Vec::new(),
            weights_scratch: Vec::new(),
            record_tokens: false,
            token_log: Vec::new(),
        }
    }

    /// Arms (or disarms) per-round [`TokenEvent`] recording.
    pub fn set_record_tokens(&mut self, on: bool) {
        self.record_tokens = on;
    }

    /// Whether the last round recorded any token emissions.
    pub fn has_tokens(&self) -> bool {
        !self.token_log.is_empty()
    }

    /// Drains the recorded token emissions into `out` (capacity kept on
    /// both sides, like [`Chip::end_round_into`]).
    pub fn drain_tokens_into(&mut self, out: &mut Vec<TokenEvent>) {
        out.append(&mut self.token_log);
    }

    /// Jobs currently resident.
    pub fn active_jobs(&self) -> usize {
        self.active.len()
    }

    /// The chip's KV store, for bytes in use, fit checks, free bytes and
    /// handoff pricing. Only the chip maps and unmaps through it.
    pub fn kv(&self) -> &ChipKv {
        &self.kv
    }

    /// End-of-run check that every KV reservation was released
    /// ([`ChipKv::assert_drained`]).
    ///
    /// # Panics
    ///
    /// Panics on any leak.
    pub fn assert_kv_drained(&mut self) {
        self.kv.assert_drained();
    }

    /// Remaining estimated serial cycles of the resident set — the
    /// in-service backlog [`crate::route::ChipLoad`] reports to routing.
    /// Summed on demand from the per-resident estimates, so it can never
    /// drift from them.
    pub fn in_service_cycles(&self) -> u64 {
        self.active.iter().map(|a| a.est_remaining).sum()
    }

    /// The eviction-churn counter decayed to time `now`: each eviction
    /// adds 1, and the total halves every [`CHURN_HALF_LIFE_CYCLES`].
    pub fn recent_evictions(&self, now: u64) -> f64 {
        let dt = now.saturating_sub(self.churn_seen);
        self.churn * 0.5f64.powf(dt as f64 / CHURN_HALF_LIFE_CYCLES as f64)
    }

    /// Whether a round is executing right now.
    pub fn is_in_flight(&self) -> bool {
        self.in_flight
    }

    /// Takes the chip out of the fleet: a completed drain, an executed
    /// revocation, or a cold chip that has not joined yet. Any swap work
    /// still pending against a future round (a revocation's final KV
    /// drain) is booked directly — the drain physically happens on this
    /// chip before it disappears, and no future round exists to absorb
    /// it. After this, [`Chip::admit`] panics until [`Chip::rejoin`].
    ///
    /// # Panics
    ///
    /// Panics if residents remain or a round is in flight — departures
    /// happen only once the chip is empty and quiescent.
    pub fn leave(&mut self) {
        assert!(
            self.active.is_empty() && !self.in_flight,
            "chip {} left the fleet with {} residents (in flight: {})",
            self.id,
            self.active.len(),
            self.in_flight
        );
        let final_drain = std::mem::take(&mut self.pending_swap_cycles);
        self.busy_cycles += final_drain;
        self.swap_cycles += final_drain;
        self.left = true;
    }

    /// Brings a left (or cold) chip back into service after its weight
    /// load completes.
    pub fn rejoin(&mut self) {
        self.left = false;
    }

    /// Admits a job into the resident set at time `now`. A job carrying
    /// [`Job::resume`] state (it was preempted earlier) restores its KV
    /// prefix from HBM — the swap-in is priced by
    /// [`FleetCost::swap_cycles_on`] and charged to the next round — and
    /// resumes exactly where it stopped.
    ///
    /// The job maps into the chip's [`ChipKv`]. Paged, shared prefix
    /// blocks are pinned copy-on-write (charged once per chip), the
    /// resident footprint is the job's *unique* bytes, and a resumed
    /// victim's swap-in moves only those unique pages — its shared prefix
    /// never left the chip. A **warm** prefix also skips the matching
    /// head of the prefill pass: the KV those tokens would compute
    /// already sits in SRAM, so prefill resumes at the suffix — the
    /// latency half of prefix caching, on top of the capacity half.
    ///
    /// # Panics
    ///
    /// Panics if called while a round is in flight (admission happens only
    /// at round boundaries), if the chip has left the fleet
    /// ([`Chip::leave`] — a departed chip must never receive work), or if
    /// `job` carries a [`ResumeState`] pinned to a *different* chip — its
    /// swapped-out KV prefix lives in that chip's HBM, so routing or
    /// work-stealing migrating it here would silently corrupt the swap
    /// accounting.
    pub fn admit<C: FleetCost>(&mut self, cost: &mut C, mut job: Job, now: u64) {
        assert!(!self.in_flight, "admission mid-round");
        assert!(
            !self.left,
            "job {} admitted to chip {}, which has left the fleet",
            job.id, self.id
        );
        let est_remaining = remaining_cycles_on(cost, self.id, &job);
        let (footprint, prefix_skip) = self.kv.map(cost, self.id, &job, now);
        self.max_kv_in_use = self.max_kv_in_use.max(self.kv.in_use());
        let active = match job.resume.take() {
            Some(r) => {
                assert_eq!(
                    r.chip, self.id,
                    "preempted job {} is pinned to chip {} (its KV prefix \
                     lives in that chip's HBM) but was admitted to chip {}",
                    job.id, r.chip, self.id
                );
                let w = &job.workload;
                self.pending_swap_cycles += self.kv.swap_cycles(cost, self.id, w, &r, footprint);
                // A victim resuming onto a still-warm prefix may land
                // ahead of where its own prefill stopped.
                let prefill_progress = if r.prefilled {
                    r.prefill_progress
                } else {
                    r.prefill_progress.max(prefix_skip)
                };
                Active {
                    footprint,
                    start_cycles: r.start_cycles,
                    first_token_cycles: r.first_token_cycles,
                    prefill_progress,
                    prefilled: r.prefilled,
                    steps_done: r.steps_done,
                    est_remaining: est_remaining
                        .saturating_sub(prefill_progress - r.prefill_progress),
                    chunk_slice: None,
                    job,
                }
            }
            None => Active {
                job,
                footprint,
                start_cycles: now,
                first_token_cycles: None,
                prefill_progress: prefix_skip,
                prefilled: false,
                steps_done: 0,
                est_remaining: est_remaining.saturating_sub(prefix_skip),
                chunk_slice: None,
            },
        };
        self.active.push(active);
    }

    /// Fills `out` with the preemption policy's view of the resident
    /// set, in resident order (the indices [`Chip::evict`] expects),
    /// replacing whatever it held — the event loop reuses one buffer for
    /// every chip's preemption checks.
    pub fn victim_views(&self, out: &mut Vec<VictimView>) {
        out.clear();
        out.extend(self.active.iter().map(|a| VictimView {
            priority: a.job.priority,
            preemptions: a.job.preemptions,
            kv_footprint: a.footprint,
            prefilled: a.prefilled,
            steps_done: a.steps_done,
            gen_steps: a.job.workload.gen_steps,
            arrival_cycles: a.job.arrival_cycles,
        }));
    }

    /// Evicts the residents at `victims` (indices into the resident set),
    /// returning them as re-queueable jobs carrying their
    /// [`ResumeState`]. Each victim's KV working set is drained to HBM:
    /// the swap-out is priced by [`FleetCost::swap_cycles_on`] and
    /// charged to the chip's next round.
    ///
    /// Under paged KV only the victim's **unique** pages drain — shared
    /// prefix blocks stay resident for the other sharers (or persist in
    /// the prefix cache), so a victim whose KV is mostly shared prefix
    /// swaps almost nothing.
    ///
    /// # Panics
    ///
    /// Panics if called while a round is in flight, or if an index is out
    /// of range.
    pub fn evict<C: FleetCost>(&mut self, cost: &mut C, victims: &[usize], now: u64) -> Vec<Job> {
        assert!(!self.in_flight, "eviction mid-round");
        let mut order: Vec<usize> = victims.to_vec();
        order.sort_unstable();
        order.dedup();
        if !order.is_empty() {
            // Fold the churn counter down to `now`, then count the storm.
            self.churn = self.recent_evictions(now) + order.len() as f64;
            self.churn_seen = now;
        }
        let mut out = Vec::new();
        // Highest index first keeps the remaining indices valid.
        for &i in order.iter().rev() {
            let a = self.active.remove(i);
            let resume = ResumeState {
                chip: self.id,
                prefill_progress: a.prefill_progress,
                prefilled: a.prefilled,
                steps_done: a.steps_done,
                start_cycles: a.start_cycles,
                first_token_cycles: a.first_token_cycles,
            };
            self.kv.unmap(self.id, &a.job, a.footprint, now);
            let w = &a.job.workload;
            self.pending_swap_cycles += self.kv.swap_cycles(cost, self.id, w, &resume, a.footprint);
            self.evictions += 1;
            let mut job = a.job;
            job.preemptions += 1;
            job.resume = Some(resume);
            out.push(job);
        }
        out.reverse(); // resident order, for stable re-queueing
        out
    }

    /// Whether any resident would leave in
    /// [`Chip::take_prefill_graduates`]. A read-only scan: most round
    /// ends of a prefill chip hand nothing off, and the event loop skips
    /// the handoff step for them.
    pub fn has_prefill_graduates(&self) -> bool {
        self.active.iter().any(Active::is_prefill_graduate)
    }

    /// Removes every resident that has just finished its prefill pass and
    /// still wants decode tokens (`prefilled`, zero decode steps, a
    /// generative workload) — the disaggregation migration set. Returns
    /// each job paired with the bytes its departure freed on this chip
    /// ([`ChipKv::unmap`]): under paged KV the job's **unique dirty
    /// blocks** (the pruned survivor set minus any shared prefix, which
    /// stays resident for other sharers), under contiguous KV its whole
    /// footprint.
    ///
    /// Unlike [`Chip::evict`] this is a *handoff*, not a preemption: no
    /// eviction or preemption counters tick, no churn is folded (routing
    /// should not read a planned migration as instability), and no swap
    /// is charged here — the event loop prices the transfer through
    /// [`FleetCost::handoff_cycles_on`]
    /// and charges both endpoints via [`Chip::charge_transfer_cycles`].
    /// Each job leaves carrying a [`ResumeState`] pinned to this chip;
    /// the event loop re-points the pin at the target decode chip once
    /// it picks one.
    ///
    /// # Panics
    ///
    /// Panics if called while a round is in flight.
    pub fn take_prefill_graduates(&mut self, now: u64) -> Vec<(Job, u64)> {
        assert!(!self.in_flight, "handoff extraction mid-round");
        let migrants: Vec<usize> = (0..self.active.len())
            .filter(|&i| self.active[i].is_prefill_graduate())
            .collect();
        let mut out = Vec::new();
        // Highest index first keeps the remaining indices valid.
        for &i in migrants.iter().rev() {
            let a = self.active.remove(i);
            let resume = ResumeState {
                chip: self.id,
                prefill_progress: a.prefill_progress,
                prefilled: true,
                steps_done: a.steps_done,
                start_cycles: a.start_cycles,
                first_token_cycles: a.first_token_cycles,
            };
            self.kv.unmap(self.id, &a.job, a.footprint, now);
            let mut job = a.job;
            job.resume = Some(resume);
            out.push((job, a.footprint));
        }
        out.reverse(); // resident order, for deterministic targeting
        out
    }

    /// Charges `cycles` of KV-transfer time (one endpoint's leg of a
    /// disaggregation handoff) to this chip: like preemption swaps, the
    /// transfer occupies the SRAM ports and HBM channels, so it executes
    /// at the head of the chip's next round and extends its busy time.
    pub fn charge_transfer_cycles(&mut self, cycles: u64) {
        self.pending_swap_cycles += cycles;
    }

    /// Starts the next round at time `now`, executing whatever `batch`
    /// plans for the resident set. Returns the round length in cycles, or
    /// `None` if the chip has no resident jobs. Completions are buffered
    /// and must be drained with [`Chip::end_round_into`] when the round
    /// ends.
    ///
    /// # Panics
    ///
    /// Panics if a round is already in flight, if the plan's length
    /// doesn't match the resident set, or if the plan advances no job (a
    /// zero-length round would stall the event loop).
    pub fn start_round<C: FleetCost, B: BatchPolicy>(
        &mut self,
        cost: &mut C,
        batch: &mut B,
        now: u64,
    ) -> Option<u64> {
        assert!(!self.in_flight, "round already in flight");
        if self.active.is_empty() {
            return None;
        }
        // Let batch-aware oracles (pipeline bubble amortization) see the
        // live depth before any of this round's steps are priced.
        cost.note_batch(self.id, self.active.len());
        // Capture the batch size before the round body retires finished
        // jobs, or occupancy would undercount every completing round.
        let batch_size = self.active.len();
        let id = self.id;
        let mut views = std::mem::take(&mut self.views_scratch);
        views.clear();
        self.priced_scratch.clear();
        for a in &self.active {
            let w = &a.job.workload;
            let (prefill_remaining, next_decode) = if a.prefilled {
                let step = cost.decode_on(id, w, w.seq_len + a.steps_done + 1);
                self.priced_scratch.push(step);
                (0, step.serial_cycles)
            } else {
                let total = cost.prefill_on(id, w);
                self.priced_scratch.push(total);
                (total.serial_cycles - a.prefill_progress, 0)
            };
            views.push(ResidentView {
                arrival_cycles: a.job.arrival_cycles,
                priority: a.job.priority,
                prefilled: a.prefilled,
                prefill_remaining_cycles: prefill_remaining,
                steps_done: a.steps_done,
                gen_steps: w.gen_steps,
                next_decode_cycles: next_decode,
            });
        }
        let plan = batch.plan(&views);
        assert_eq!(
            plan.len(),
            views.len(),
            "batch plan must cover every resident"
        );
        self.views_scratch = views;
        let cycles = if plan == [RoundStep::WholeJob] {
            self.start_whole_job(cost, now)
        } else {
            self.start_iteration(cost, &plan, now)
        };
        // KV swaps accrued since the last round (evictions, resumed
        // admissions) execute at the head of this one.
        let swap = std::mem::take(&mut self.pending_swap_cycles);
        self.swap_cycles += swap;
        let cycles = cycles + swap;
        self.in_flight = true;
        self.busy_cycles += cycles;
        self.rounds += 1;
        self.occupancy_area += batch_size as u128 * u128::from(cycles);
        // Residents hold their page tables, so only the chip can check
        // that they and the store agree — once a round, after its
        // reclaims and retirements and every map and unmap before it.
        if cfg!(debug_assertions) {
            self.kv
                .assert_balanced(self.active.iter().map(|a| a.footprint).sum());
        }
        Some(cycles)
    }

    /// Ends the in-flight round, appending the completions it produced to
    /// `out` (`out` and the chip's internal buffer both keep their
    /// capacity across rounds).
    ///
    /// # Panics
    ///
    /// Panics if no round is in flight.
    pub fn end_round_into(&mut self, out: &mut Vec<Completion>) {
        assert!(self.in_flight, "no round in flight");
        self.in_flight = false;
        out.append(&mut self.finished);
    }

    /// Run-to-completion round: exactly the whole job at the head of the
    /// resident set (run-to-completion chips hold at most one job).
    fn start_whole_job<C: FleetCost>(&mut self, cost: &mut C, now: u64) -> u64 {
        debug_assert_eq!(self.active.len(), 1, "run-to-completion holds one job");
        let mut a = self.active.pop().expect("resident job");
        let w = &a.job.workload;
        // A warm shared prefix already advanced `prefill_progress` at
        // admission (and came off `est_remaining` there): the whole-job
        // pass skips that head too, exactly like a chunked prefill.
        let total = cost.job_serial_on(self.id, w) - a.prefill_progress;
        let ttft = cost.first_token_on(self.id, w) - a.prefill_progress;
        if a.first_token_cycles.is_none() {
            a.first_token_cycles = Some(now + ttft);
        }
        // The whole job retires in one round: the in-service estimate
        // charged at admission must be spent exactly.
        self.est_drift += a.est_remaining.abs_diff(total);
        self.kv.unmap(self.id, &a.job, a.footprint, now + total);
        if self.record_tokens {
            self.token_log.push(TokenEvent {
                id: a.job.id,
                class: a.job.class,
                chip: self.id,
                first: 0,
                count: w.gen_steps,
                emit_cycles: now + total,
                done: true,
            });
        }
        self.finished
            .push(Self::completion(&a, self.id, now + total, w.gen_steps));
        total
    }

    /// One iteration: each resident job executes its planned
    /// [`RoundStep`]. Compute and DRAM each serialize across the batch
    /// but overlap one another, and weight streams are fetched once per
    /// distinct model.
    ///
    /// # Panics
    ///
    /// Panics if the plan contains [`RoundStep::WholeJob`] (multi-job
    /// rounds interleave; whole jobs are a solitary-resident plan) or
    /// advances no job at all.
    fn start_iteration<C: FleetCost>(&mut self, cost: &mut C, plan: &[RoundStep], now: u64) -> u64 {
        let mut compute = 0u64;
        let mut dram = 0u64;
        let mut overhead = 0u64;
        let mut advanced = 0usize;
        // Weight traffic per distinct model: charged once (the max of the
        // group, since per-job weight costs within a model are identical).
        // A flat (model, cycles) list beats a HashMap here — a batch
        // holds a handful of distinct models at most.
        let mut shared_weights = std::mem::take(&mut self.weights_scratch);
        shared_weights.clear();
        let mut done = std::mem::take(&mut self.done_scratch);
        done.clear();
        let mut first_emitters = std::mem::take(&mut self.emitters_scratch);
        first_emitters.clear();
        let priced = std::mem::take(&mut self.priced_scratch);
        let id = self.id;
        // Token events recorded this round; their emit time is the
        // round's end, patched in once the batch's cycles are known.
        let token_mark = self.token_log.len();
        for (i, (a, directive)) in self.active.iter_mut().zip(plan).enumerate() {
            let w = &a.job.workload;
            let steps_before = a.steps_done;
            // The serial quantum this directive consumes, drawn off the
            // job's in-service estimate (for prefill that is the chunk
            // itself — the proportional `StepCost` below rounds, the
            // chunk ledger doesn't).
            let spent: u64;
            let step: StepCost = match directive {
                RoundStep::Idle => continue,
                RoundStep::WholeJob => panic!("whole-job step inside a batched round"),
                RoundStep::Prefill { chunk_cycles } => {
                    assert!(!a.prefilled, "prefill step for a prefilled job");
                    let total = priced[i];
                    let remaining = total.serial_cycles - a.prefill_progress;
                    let chunk = remaining.min((*chunk_cycles).max(1));
                    a.prefill_progress += chunk;
                    if a.prefill_progress >= total.serial_cycles {
                        a.prefilled = true;
                    }
                    spent = chunk;
                    match a.chunk_slice {
                        Some((pass, c, slice)) if pass == total && c == chunk => slice,
                        _ => {
                            let slice = prefill_slice(total, chunk);
                            a.chunk_slice = Some((total, chunk, slice));
                            slice
                        }
                    }
                }
                RoundStep::Decode { steps } => {
                    assert!(a.prefilled, "decode step for an unprefilled job");
                    // Priority-weighted plans may bundle several tokens
                    // into one round; the burst is clamped to the tokens
                    // the job still wants. Each token prices at its own
                    // context length, so the in-service estimate charged
                    // at admission is spent exactly regardless of how
                    // tokens group into rounds.
                    let remaining = w.gen_steps.saturating_sub(a.steps_done);
                    let burst = (*steps).max(1).min(remaining.max(1));
                    let mut step = StepCost::default();
                    for t in 0..burst {
                        a.steps_done += 1;
                        // Cascade pruning retires tokens as decode
                        // proceeds: under paging, whole blocks return to
                        // the free pool while the job is still running.
                        a.footprint = self
                            .kv
                            .reclaim(id, &a.job, a.steps_done as u64, a.footprint);
                        // The burst's first token is the step the view
                        // priced.
                        let s = if t == 0 {
                            priced[i]
                        } else {
                            cost.decode_on(id, w, w.seq_len + a.steps_done)
                        };
                        step.compute_cycles += s.compute_cycles;
                        step.dram_cycles += s.dram_cycles;
                        step.weight_dram_cycles += s.weight_dram_cycles;
                        step.serial_cycles += s.serial_cycles;
                    }
                    spent = step.serial_cycles;
                    step
                }
            };
            // Work dispatched into this round counts as done for the
            // in-service estimate; underflow is drift, not free work.
            let over = spent.saturating_sub(a.est_remaining);
            self.est_drift += over;
            a.est_remaining = a.est_remaining.saturating_sub(spent);
            advanced += 1;
            compute += step.compute_cycles;
            dram += step.dram_cycles - step.weight_dram_cycles;
            match shared_weights.iter_mut().find(|(m, _)| *m == w.model) {
                Some((_, shared)) => *shared = (*shared).max(step.weight_dram_cycles),
                None => shared_weights.push((w.model, step.weight_dram_cycles)),
            }
            // Each job contributes its non-overlappable slack: pipeline
            // fill plus the cross-layer serialization the serial model
            // charges beyond max(Σcompute, Σdram) (a layer can't overlap
            // its own bottleneck). Conservative for batching — cross-job
            // overlap of this slack is deliberately not credited.
            overhead += step
                .serial_cycles
                .saturating_sub(step.compute_cycles.max(step.dram_cycles));
            let finished = if w.gen_steps == 0 {
                a.prefilled
            } else {
                a.prefilled && a.steps_done == w.gen_steps
            };
            let emits_token = a.prefilled && (w.gen_steps == 0 || a.steps_done >= 1);
            if emits_token && a.first_token_cycles.is_none() {
                first_emitters.push(i);
            }
            if finished {
                done.push(i);
            }
            if self.record_tokens {
                let count = a.steps_done - steps_before;
                if count > 0 || finished {
                    self.token_log.push(TokenEvent {
                        id: a.job.id,
                        class: a.job.class,
                        chip: id,
                        first: steps_before,
                        count,
                        emit_cycles: 0, // the round's end, patched below
                        done: finished,
                    });
                }
            }
        }
        assert!(advanced > 0, "batch plan advanced no job");
        dram += shared_weights.iter().map(|&(_, v)| v).sum::<u64>();
        let cycles = compute.max(dram) + overhead;
        let end = now + cycles;
        for ev in &mut self.token_log[token_mark..] {
            ev.emit_cycles = end;
        }
        for &i in &first_emitters {
            self.active[i].first_token_cycles = Some(end);
        }
        // Retire finished jobs (highest index first keeps indices valid).
        for &i in done.iter().rev() {
            let a = self.active.remove(i);
            // A retiring job must have spent its whole estimate.
            self.est_drift += a.est_remaining;
            self.kv.unmap(self.id, &a.job, a.footprint, end);
            let generated = a.job.workload.gen_steps;
            self.finished
                .push(Self::completion(&a, self.id, end, generated));
        }
        self.weights_scratch = shared_weights;
        self.done_scratch = done;
        self.emitters_scratch = first_emitters;
        self.priced_scratch = priced;
        cycles
    }

    fn completion(a: &Active, chip: usize, finish: u64, generated: usize) -> Completion {
        Completion {
            id: a.job.id,
            class: a.job.class,
            priority: a.job.priority,
            client: a.job.client,
            chip,
            arrival_cycles: a.job.arrival_cycles,
            start_cycles: a.start_cycles,
            finish_cycles: finish,
            first_token_cycles: a.first_token_cycles.unwrap_or(finish),
            deadline_cycles: a.job.deadline_cycles,
            preemptions: a.job.preemptions,
            prefill_tokens: a.job.workload.seq_len,
            generated_tokens: generated,
            revoked: a.job.revoked,
        }
    }
}

/// A `chunk`-cycle prefill chunk as a proportional slice of the whole
/// priced pass `total`.
fn prefill_slice(total: StepCost, chunk: u64) -> StepCost {
    let frac = chunk as f64 / total.serial_cycles.max(1) as f64;
    StepCost {
        compute_cycles: (total.compute_cycles as f64 * frac) as u64,
        dram_cycles: (total.dram_cycles as f64 * frac) as u64,
        weight_dram_cycles: (total.weight_dram_cycles as f64 * frac) as u64,
        serial_cycles: (total.serial_cycles as f64 * frac) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::IterationBatch;
    use crate::cost::CostModel;
    use crate::kv::KvSpec;
    use spatten_core::SpAttenConfig;
    use spatten_workloads::Benchmark;

    fn job(id: u64, seq_len: usize, gen_steps: usize) -> Job {
        let mut workload = Benchmark::gpt2_small_wikitext2().workload();
        workload.seq_len = seq_len;
        workload.gen_steps = gen_steps;
        Job {
            id,
            class: 0,
            priority: 0,
            client: None,
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

    /// An idle chip `id` with `kv`-layout KV over `cost`'s budget.
    fn chip_with(id: usize, kv: KvSpec, cost: &CostModel) -> Chip {
        Chip::new(id, ChipKv::new(kv, cost.budget_on(id)))
    }

    /// An idle chip `id` with contiguous KV.
    fn chip(id: usize, cost: &CostModel) -> Chip {
        chip_with(id, KvSpec::Contiguous, cost)
    }

    /// Starts and ends one round at `now`, returning its length.
    fn round(chip: &mut Chip, cost: &mut CostModel, batch: &mut IterationBatch, now: u64) -> u64 {
        let cycles = chip.start_round(cost, batch, now).expect("resident work");
        chip.end_round_into(&mut Vec::new());
        cycles
    }

    /// Runs `chip` through rounds from `now` until its resident set
    /// drains, appending completions to `done`; returns the end time.
    fn run_dry(
        chip: &mut Chip,
        cost: &mut CostModel,
        batch: &mut IterationBatch,
        mut now: u64,
        done: &mut Vec<Completion>,
    ) -> u64 {
        while let Some(cycles) = chip.start_round(cost, batch, now) {
            now += cycles;
            chip.end_round_into(done);
        }
        now
    }

    #[test]
    fn eviction_charges_swap_cycles_and_preserves_progress() {
        let mut cost = CostModel::end_to_end(SpAttenConfig::default(), 8);
        let mut batch = IterationBatch {
            prefill_chunk_cycles: u64::MAX, // whole prefill in one round
        };

        // Uninterrupted baseline.
        let mut plain = chip(0, &cost);
        plain.admit(&mut cost, job(0, 128, 6), 0);
        let baseline = run_dry(&mut plain, &mut cost, &mut batch, 0, &mut Vec::new());
        assert_eq!(plain.swap_cycles, 0);
        let plain_rounds = plain.rounds;

        // Same job, evicted after 2 decode steps and re-admitted.
        let mut chip = chip(0, &cost);
        chip.admit(&mut cost, job(0, 128, 6), 0);
        let mut now = 0;
        for _ in 0..3 {
            // prefill round + 2 decode rounds
            now += round(&mut chip, &mut cost, &mut batch, now);
        }
        let evicted = chip.evict(&mut cost, &[0], now);
        assert_eq!(evicted.len(), 1);
        assert_eq!(chip.active_jobs(), 0);
        assert_eq!(chip.kv().in_use(), 0, "eviction releases KV");
        let resume = evicted[0].resume.expect("resume state rides along");
        assert!(resume.prefilled);
        assert_eq!(resume.steps_done, 2);
        assert_eq!(evicted[0].preemptions, 1);

        chip.admit(&mut cost, evicted.into_iter().next().unwrap(), now);
        let mut done = Vec::new();
        run_dry(&mut chip, &mut cost, &mut batch, now, &mut done);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].generated_tokens, 6, "no decoded work lost");
        assert_eq!(done[0].preemptions, 1);
        // Work rounds match the baseline (progress resumed, not redone),
        // and the swap is charged on top of the baseline's cycles.
        assert_eq!(chip.rounds, plain_rounds);
        assert!(chip.swap_cycles > 0, "swap-out + swap-in must be priced");
        assert_eq!(
            chip.busy_cycles,
            baseline + chip.swap_cycles,
            "busy time = baseline work + swap cost, nothing redone"
        );
    }

    #[test]
    fn in_service_estimate_tracks_progress_without_drift() {
        let mut cost = CostModel::end_to_end(SpAttenConfig::default(), 8);
        let mut batch = IterationBatch {
            prefill_chunk_cycles: u64::MAX,
        };
        let mut chip = chip(0, &cost);
        assert_eq!(chip.in_service_cycles(), 0);
        let j = job(0, 128, 6);
        let total = cost.job_serial_on(0, &j.workload);
        chip.admit(&mut cost, j, 0);
        // Admission charges exactly the whole-job serial estimate.
        assert_eq!(chip.in_service_cycles(), total);
        // Each round draws the estimate down, strictly monotonically.
        let mut now = 0;
        let mut last = chip.in_service_cycles();
        while chip.active_jobs() > 0 {
            now += round(&mut chip, &mut cost, &mut batch, now);
            let remaining = chip.in_service_cycles();
            assert!(remaining < last, "estimate must shrink every round");
            last = remaining;
        }
        // ...and reaches exactly zero at completion: no drift.
        assert_eq!(chip.in_service_cycles(), 0);
        assert_eq!(chip.est_drift, 0);
    }

    #[test]
    fn eviction_and_resume_rebalance_the_in_service_estimate() {
        let mut cost = CostModel::end_to_end(SpAttenConfig::default(), 8);
        let mut batch = IterationBatch {
            prefill_chunk_cycles: u64::MAX,
        };
        let mut chip = chip(0, &cost);
        chip.admit(&mut cost, job(0, 128, 6), 0);
        let mut now = 0;
        for _ in 0..3 {
            now += round(&mut chip, &mut cost, &mut batch, now);
        }
        let before = chip.in_service_cycles();
        assert!(before > 0, "mid-generation job still holds estimate");
        // Eviction removes the job's whole remaining estimate...
        let evicted = chip.evict(&mut cost, &[0], now);
        assert_eq!(chip.in_service_cycles(), 0);
        // ...and re-admission restores exactly it (progress preserved).
        chip.admit(&mut cost, evicted.into_iter().next().unwrap(), now);
        assert_eq!(chip.in_service_cycles(), before);
        run_dry(&mut chip, &mut cost, &mut batch, now, &mut Vec::new());
        assert_eq!(chip.in_service_cycles(), 0);
        assert_eq!(chip.est_drift, 0, "admit/evict/resume must not drift");
    }

    #[test]
    fn eviction_churn_counts_and_decays() {
        let mut cost = CostModel::end_to_end(SpAttenConfig::default(), 8);
        let mut chip = chip(0, &cost);
        assert_eq!(chip.recent_evictions(0), 0.0);
        chip.admit(&mut cost, job(0, 64, 8), 0);
        chip.admit(&mut cost, job(1, 64, 8), 0);
        chip.evict(&mut cost, &[0, 1], 1000);
        let fresh = chip.recent_evictions(1000);
        assert!((fresh - 2.0).abs() < 1e-9, "two evictions counted: {fresh}");
        // One half-life later the counter has halved.
        let later = chip.recent_evictions(1000 + CHURN_HALF_LIFE_CYCLES);
        assert!((later - 1.0).abs() < 1e-9, "half-life decay: {later}");
        // Another eviction folds the decayed value down and adds one.
        chip.admit(&mut cost, job(2, 64, 8), 1000 + CHURN_HALF_LIFE_CYCLES);
        chip.evict(&mut cost, &[0], 1000 + CHURN_HALF_LIFE_CYCLES);
        let stacked = chip.recent_evictions(1000 + CHURN_HALF_LIFE_CYCLES);
        assert!((stacked - 2.0).abs() < 1e-9, "1 decayed + 1 new: {stacked}");
    }

    #[test]
    #[should_panic(expected = "pinned to chip")]
    fn admitting_a_job_pinned_elsewhere_panics() {
        let mut cost = CostModel::end_to_end(SpAttenConfig::default(), 8);
        // Evict from chip 1, then try to resume on chip 0: the job's
        // swapped KV prefix lives in chip 1's HBM, so this is a
        // migration bug the chip must catch.
        let mut home = chip(1, &cost);
        home.admit(&mut cost, job(0, 128, 6), 0);
        let mut batch = IterationBatch {
            prefill_chunk_cycles: u64::MAX,
        };
        let now = round(&mut home, &mut cost, &mut batch, 0);
        let evicted = home.evict(&mut cost, &[0], now);
        let mut wrong = chip(0, &cost);
        wrong.admit(&mut cost, evicted.into_iter().next().unwrap(), 0);
    }

    #[test]
    #[should_panic(expected = "has left the fleet")]
    fn admitting_to_a_departed_chip_panics() {
        // The guard the elastic event loop leans on: once a drain or
        // revocation completes, any placement path that still targets
        // the chip (routing, stealing, handoff) is a bug, not a quiet
        // re-admission.
        let mut cost = CostModel::end_to_end(SpAttenConfig::default(), 8);
        let mut chip = chip(0, &cost);
        chip.leave();
        chip.admit(&mut cost, job(0, 128, 4), 0);
    }

    #[test]
    fn leave_books_the_pending_final_swap_and_rejoin_rearms() {
        // An executed revocation's final KV drain has no future round to
        // absorb it: leave() books it straight into busy + swap cycles.
        let mut cost = CostModel::end_to_end(SpAttenConfig::default(), 8);
        let mut chip = chip(0, &cost);
        chip.admit(&mut cost, job(0, 256, 8), 0);
        let mut batch = IterationBatch {
            prefill_chunk_cycles: u64::MAX,
        };
        let now = round(&mut chip, &mut cost, &mut batch, 0);
        chip.evict(&mut cost, &[0], now);
        let busy_before = chip.busy_cycles;
        let swap_before = chip.swap_cycles;
        chip.leave();
        assert!(
            chip.busy_cycles > busy_before && chip.swap_cycles > swap_before,
            "the eviction's swap-out must be booked at departure"
        );
        // A rejoin re-arms admission without touching the ledgers.
        chip.rejoin();
        chip.admit(&mut cost, job(1, 64, 2), now);
        assert_eq!(chip.active_jobs(), 1);
    }

    #[test]
    fn fully_shared_prefix_victim_swaps_nothing() {
        let mut cost = CostModel::end_to_end(SpAttenConfig::default(), 8);
        let mut batch = IterationBatch {
            prefill_chunk_cycles: 10_000,
        };
        // A job whose whole prompt is the class prefix: every resident
        // prompt byte is shared, so preemption has nothing unique to
        // drain and resume nothing to restore. Evict only after prefill
        // completes — a mid-prefill victim has built almost no KV yet
        // and would swap ~nothing under either model.
        let mut shared = job(0, 256, 4);
        shared.shared_prefix_tokens = 256;
        let full = cost.prefill_on(0, &shared.workload).serial_cycles;
        let prefill_rounds = full.div_ceil(10_000);
        let mut chip = chip_with(0, KvSpec::paged(), &cost);
        chip.admit(&mut cost, shared, 0);
        let mut views = Vec::new();
        chip.victim_views(&mut views);
        assert_eq!(views[0].kv_footprint, 0, "nothing unique");
        let mut now = 0;
        for _ in 0..prefill_rounds {
            now += round(&mut chip, &mut cost, &mut batch, now);
        }
        let evicted = chip.evict(&mut cost, &[0], now);
        let resume = evicted[0].resume.expect("resume state");
        assert!(resume.prefilled, "victim must carry its full prompt KV");
        chip.admit(&mut cost, evicted.into_iter().next().unwrap(), now);
        run_dry(&mut chip, &mut cost, &mut batch, now, &mut Vec::new());
        assert_eq!(chip.evictions, 1);
        assert_eq!(
            chip.swap_cycles, 0,
            "a fully-shared victim's swap must be free"
        );
        chip.assert_kv_drained();

        // The identical eviction without sharing pays a real HBM drain.
        let mut contig = self::chip(0, &cost);
        contig.admit(&mut cost, job(1, 256, 4), 0);
        let mut t = 0;
        for _ in 0..prefill_rounds {
            t += round(&mut contig, &mut cost, &mut batch, t);
        }
        let ev = contig.evict(&mut cost, &[0], t);
        contig.admit(&mut cost, ev.into_iter().next().unwrap(), t);
        run_dry(&mut contig, &mut cost, &mut batch, t, &mut Vec::new());
        assert!(contig.swap_cycles > 0, "unshared KV must swap for real");
        contig.assert_kv_drained();
    }

    #[test]
    fn victim_views_refill_a_buffer_another_chip_filled() {
        let mut cost = CostModel::end_to_end(SpAttenConfig::default(), 8);
        let mut other = chip(0, &cost);
        for id in 0..3 {
            other.admit(&mut cost, job(id, 64, 4), 0);
        }
        let mut this = chip(1, &cost);
        let mut first = job(10, 128, 6);
        first.priority = 2;
        first.arrival_cycles = 5;
        let mut second = job(11, 64, 2);
        second.arrival_cycles = 3;
        this.admit(&mut cost, first, 5);
        this.admit(&mut cost, second, 5);
        let mut views = Vec::new();
        other.victim_views(&mut views);
        assert_eq!(views.len(), 3);
        // Exactly this chip's residents, in resident order.
        this.victim_views(&mut views);
        let seen: Vec<_> = views
            .iter()
            .map(|v| (v.priority, v.arrival_cycles, v.gen_steps, v.steps_done))
            .collect();
        assert_eq!(seen, [(2, 5, 6, 0), (0, 3, 2, 0)]);
        assert!(views.iter().all(|v| v.kv_footprint > 0 && !v.prefilled));
    }

    #[test]
    fn paged_decode_reclaims_blocks_mid_stream() {
        let mut cost = CostModel::end_to_end(SpAttenConfig::default(), 8);
        let mut batch = IterationBatch {
            prefill_chunk_cycles: u64::MAX,
        };
        let mut chip = chip_with(0, KvSpec::paged(), &cost);
        chip.admit(&mut cost, job(0, 256, 8), 0);
        let peak = chip.kv().in_use();
        let mut now = 0;
        let mut last = peak;
        while chip.active_jobs() > 0 {
            now += round(&mut chip, &mut cost, &mut batch, now);
            let held = chip.kv().in_use();
            assert!(held <= last, "paged footprint grew mid-stream");
            last = held;
        }
        assert_eq!(chip.kv().in_use(), 0);
        assert!(
            chip.kv().stats().blocks_reclaimed > 0,
            "the pruning ramp must return blocks while decoding"
        );
        chip.assert_kv_drained();
    }

    #[test]
    fn prefill_graduates_leave_without_preemption_accounting() {
        let mut cost = CostModel::end_to_end(SpAttenConfig::default(), 8);
        let mut batch = IterationBatch {
            prefill_chunk_cycles: u64::MAX,
        };
        let mut chip = chip(0, &cost);
        chip.admit(&mut cost, job(0, 128, 6), 0);
        // Mid-prefill there is nothing to hand off yet.
        assert!(!chip.has_prefill_graduates());
        assert!(chip.take_prefill_graduates(0).is_empty());
        let now = round(&mut chip, &mut cost, &mut batch, 0);
        assert!(chip.has_prefill_graduates());
        let grads = chip.take_prefill_graduates(now);
        assert_eq!(grads.len(), 1);
        let (j, dirty) = &grads[0];
        assert!(dirty > &0, "contiguous handoff ships the whole footprint");
        let resume = j.resume.expect("handoff carries resume state");
        assert!(resume.prefilled);
        assert_eq!(resume.steps_done, 0);
        assert_eq!(j.preemptions, 0, "a handoff is not a preemption");
        assert_eq!(chip.evictions, 0);
        assert_eq!(chip.kv().in_use(), 0, "departure releases the KV");
        assert_eq!(chip.active_jobs(), 0);
        assert_eq!(
            chip.recent_evictions(now),
            0.0,
            "handoffs must not register as churn"
        );

        // A job already decoding is not a graduate.
        let mut busy = self::chip(1, &cost);
        busy.admit(&mut cost, job(1, 128, 6), 0);
        let mut t = 0;
        for _ in 0..2 {
            // prefill + one decode round
            t += round(&mut busy, &mut cost, &mut batch, t);
        }
        assert!(!busy.has_prefill_graduates());
        assert!(busy.take_prefill_graduates(t).is_empty());
        assert_eq!(busy.active_jobs(), 1);
    }

    #[test]
    fn transfer_cycles_charge_into_the_next_round() {
        let mut cost = CostModel::end_to_end(SpAttenConfig::default(), 8);
        let mut batch = IterationBatch {
            prefill_chunk_cycles: u64::MAX,
        };
        let mut plain = chip(0, &cost);
        plain.admit(&mut cost, job(0, 128, 0), 0);
        let base = round(&mut plain, &mut cost, &mut batch, 0);

        let mut charged = chip(0, &cost);
        charged.admit(&mut cost, job(0, 128, 0), 0);
        charged.charge_transfer_cycles(12_345);
        let cycles = round(&mut charged, &mut cost, &mut batch, 0);
        assert_eq!(cycles, base + 12_345);
        assert_eq!(charged.swap_cycles, 12_345);
    }

    #[test]
    fn mid_prefill_eviction_keeps_prefill_progress() {
        let mut cost = CostModel::end_to_end(SpAttenConfig::default(), 8);
        let mut batch = IterationBatch {
            prefill_chunk_cycles: 10_000, // force many prefill rounds
        };
        let mut chip = chip(0, &cost);
        chip.admit(&mut cost, job(0, 256, 0), 0);
        let mut now = 0;
        for _ in 0..2 {
            now += round(&mut chip, &mut cost, &mut batch, now);
        }
        let evicted = chip.evict(&mut cost, &[0], now);
        let resume = evicted[0].resume.expect("resume state");
        assert!(!resume.prefilled);
        assert_eq!(resume.prefill_progress, 20_000);
        chip.admit(&mut cost, evicted.into_iter().next().unwrap(), now);
        // The resumed job finishes the remaining prefill only.
        let total = cost.prefill_on(0, &job(0, 256, 0).workload).serial_cycles;
        let mut remaining_rounds = 0;
        while chip.active_jobs() > 0 {
            now += round(&mut chip, &mut cost, &mut batch, now);
            remaining_rounds += 1;
        }
        assert_eq!(
            remaining_rounds,
            total.saturating_sub(20_000).div_ceil(10_000)
        );
    }

    /// A batch-aware stand-in: the prefill pass's compute is scaled by
    /// `compute_scale` (its serial cycles are not, so the in-service
    /// estimate stays exact); everything else is the model's price.
    struct Repricing {
        inner: CostModel,
        compute_scale: u64,
    }

    impl FleetCost for Repricing {
        fn prefill_on(&mut self, chip: usize, w: &spatten_workloads::Workload) -> StepCost {
            let mut pass = self.inner.prefill_on(chip, w);
            pass.compute_cycles *= self.compute_scale;
            pass
        }
        fn decode_on(
            &mut self,
            chip: usize,
            w: &spatten_workloads::Workload,
            context: usize,
        ) -> StepCost {
            self.inner.decode_on(chip, w, context)
        }
        fn footprint_on(&mut self, chip: usize, w: &spatten_workloads::Workload) -> u64 {
            self.inner.footprint_on(chip, w)
        }
        fn budget_on(&self, chip: usize) -> u64 {
            self.inner.budget_on(chip)
        }
        fn swap_cycles_on(
            &mut self,
            chip: usize,
            w: &spatten_workloads::Workload,
            tokens: usize,
        ) -> u64 {
            self.inner.swap_cycles_on(chip, w, tokens)
        }
        fn raw_kv_bytes_on(
            &mut self,
            chip: usize,
            w: &spatten_workloads::Workload,
            tokens: usize,
        ) -> u64 {
            self.inner.raw_kv_bytes_on(chip, w, tokens)
        }
        fn swap_bytes_cycles_on(
            &mut self,
            chip: usize,
            w: &spatten_workloads::Workload,
            bytes: u64,
        ) -> u64 {
            self.inner.swap_bytes_cycles_on(chip, w, bytes)
        }
    }

    #[test]
    fn a_repriced_pass_recomputes_its_chunk_slice() {
        let mut cost = Repricing {
            inner: CostModel::end_to_end(SpAttenConfig::default(), 8),
            compute_scale: 1,
        };
        let w = job(0, 512, 0).workload;
        let pass = cost.prefill_on(0, &w);
        let chunk = pass.serial_cycles / 5;
        let mut batch = IterationBatch {
            prefill_chunk_cycles: chunk,
        };
        let mut chip = Chip::new(0, ChipKv::new(KvSpec::Contiguous, cost.budget_on(0)));
        chip.admit(&mut cost, job(0, 512, 0), 0);
        let mut round = |chip: &mut Chip, cost: &mut Repricing| {
            let cycles = chip.start_round(cost, &mut batch, 0).expect("resident");
            chip.end_round_into(&mut Vec::new());
            cycles
        };
        // A lone resident's round lasts its slice's longest term.
        let lone = |s: StepCost| s.serial_cycles.max(s.compute_cycles).max(s.dram_cycles);
        let first = round(&mut chip, &mut cost);
        assert_eq!(first, lone(prefill_slice(pass, chunk)));
        assert_eq!(round(&mut chip, &mut cost), first, "the kept slice");
        // The oracle reprices the pass: the next chunk is sliced afresh.
        cost.compute_scale = 8;
        let fresh = lone(prefill_slice(cost.prefill_on(0, &w), chunk));
        assert!(fresh > first, "{fresh} vs {first}");
        assert_eq!(round(&mut chip, &mut cost), fresh);
        assert_eq!(chip.est_drift, 0);
    }
}
