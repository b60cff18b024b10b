//! Property-based tests for the serving simulator: conservation of
//! requests, FIFO ordering, KV-budget safety, and a deterministic
//! end-to-end smoke test.

use proptest::prelude::*;
use spatten_core::{SpAttenConfig, StepCost};
use spatten_serve::{
    fleet_engine_policy, simulate_fleet, CostModel, FleetConfig, FleetCost, FleetReport, KvSpec,
    Policy, PoolSpec, PreemptSpec, RouteSpec, SimMode, StealSpec,
};
use spatten_workloads::{ArrivalSpec, Trace, TraceSpec, Workload};

fn open_trace(requests: usize, rate_rps: f64, seed: u64) -> Trace {
    TraceSpec::mixed(ArrivalSpec::OpenPoisson { rate_rps, requests }, seed).generate()
}

/// A two-tier trace: the BERT class rides a high priority over the
/// low-priority GPT-2 batch tier.
fn tiered_trace(requests: usize, rate_rps: f64, seed: u64) -> Trace {
    let mut spec = TraceSpec::mixed(ArrivalSpec::OpenPoisson { rate_rps, requests }, seed);
    spec.classes[0] = spec.classes[0].clone().with_priority(3);
    spec.generate()
}

/// A pass-through oracle over [`CostModel`]: it forwards the methods the
/// model prices itself and leaves every composite method
/// (`decode_span_on`, `job_serial_on`, `first_token_on`,
/// `job_footprint_on`, `handoff_cycles_on`) on its trait default, as
/// perfbench's traced oracle does. A replay through it takes the
/// per-context default paths that the model's overrides must reproduce.
struct Defaults(CostModel);

impl FleetCost for Defaults {
    fn prefill_on(&mut self, chip: usize, w: &Workload) -> StepCost {
        self.0.prefill_on(chip, w)
    }
    fn decode_on(&mut self, chip: usize, w: &Workload, context: usize) -> StepCost {
        self.0.decode_on(chip, w, context)
    }
    fn footprint_on(&mut self, chip: usize, w: &Workload) -> u64 {
        self.0.footprint_on(chip, w)
    }
    fn budget_on(&self, chip: usize) -> u64 {
        self.0.budget_on(chip)
    }
    fn swap_cycles_on(&mut self, chip: usize, w: &Workload, tokens: usize) -> u64 {
        self.0.swap_cycles_on(chip, w, tokens)
    }
    fn raw_kv_bytes_on(&mut self, chip: usize, w: &Workload, tokens: usize) -> u64 {
        self.0.raw_kv_bytes_on(chip, w, tokens)
    }
    fn swap_bytes_cycles_on(&mut self, chip: usize, w: &Workload, bytes: u64) -> u64 {
        self.0.swap_bytes_cycles_on(chip, w, bytes)
    }
    fn weight_load_cycles_on(&mut self, chip: usize, w: &Workload) -> u64 {
        self.0.weight_load_cycles_on(chip, w)
    }
}

/// Replays `trace` on `cfg`'s fleet priced by `cost`.
fn replay_with<C: FleetCost>(cost: C, cfg: &FleetConfig, trace: &Trace) -> FleetReport {
    fleet_engine_policy(
        cost,
        cfg.chips,
        cfg.policy,
        &cfg.sched,
        cfg.pools.clone(),
        None,
        cfg.max_batch,
        cfg.accel.clock_ghz,
    )
    .replay(trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `CostModel`'s overrides of defaulted `FleetCost` methods (the
    /// per-bucket `decode_span_on`) change no simulated number:
    /// co-located, paged and disaggregated replays on a heterogeneous
    /// fleet under priority preemption, whose resumed jobs re-price
    /// their remaining decode steps, give the same `FleetReport` through
    /// the model and through the pass-through [`Defaults`].
    #[test]
    fn cost_model_overrides_match_the_trait_defaults(
        requests in 40usize..120,
        rate in 1000.0f64..6000.0,
        seed in 0u64..1000,
        shape in 0usize..3,
        shared_queue in 0usize..2,
    ) {
        let roster = vec![
            SpAttenConfig::default(),
            SpAttenConfig::default(),
            SpAttenConfig::eighth(),
        ];
        let mut cfg = FleetConfig::with_chips(roster.clone(), Policy::Priority);
        cfg.sched.preempt = PreemptSpec::Priority;
        cfg.sched.route = if shared_queue == 1 {
            RouteSpec::SharedQueue
        } else {
            RouteSpec::FastestChip
        };
        let arrivals = ArrivalSpec::OpenPoisson { rate_rps: rate, requests };
        let trace = match shape {
            0 => tiered_trace(requests, rate, seed),
            1 => {
                cfg.sched.kv = KvSpec::paged();
                TraceSpec::chat(arrivals, seed).generate()
            }
            _ => {
                cfg.sched.kv = KvSpec::paged();
                cfg.sched.route = RouteSpec::PoolAware;
                cfg.pools = Some(PoolSpec::split(1, 2));
                TraceSpec::chat(arrivals, seed).generate()
            }
        };
        let model = || CostModel::heterogeneous(roster.clone(), cfg.fc_weight_bits);
        let overridden = replay_with(model(), &cfg, &trace);
        let defaults = replay_with(Defaults(model()), &cfg, &trace);
        prop_assert_eq!(overridden.completed, requests);
        prop_assert!(overridden.preemptions > 0, "no job was preempted and resumed");
        prop_assert_eq!(&overridden, &defaults);
    }

    /// No request is ever lost or duplicated, under any policy, fleet
    /// size or offered load.
    #[test]
    fn no_request_lost_or_duplicated(
        requests in 20usize..100,
        chips in 1usize..6,
        rate in 50.0f64..2000.0,
        seed in 0u64..1000,
    ) {
        let trace = open_trace(requests, rate, seed);
        for policy in Policy::ALL {
            let report = simulate_fleet(&FleetConfig::new(chips, policy), &trace);
            prop_assert_eq!(report.completed, requests);
            let mut ids: Vec<u64> = report.completions.iter().map(|c| c.id).collect();
            ids.sort_unstable();
            let mut expect: Vec<u64> = (0..requests as u64).collect();
            expect.sort_unstable();
            prop_assert_eq!(ids, expect);
        }
    }

    /// FIFO starts jobs in arrival order: an earlier arrival never begins
    /// execution after a later one.
    #[test]
    fn fifo_preserves_arrival_order(
        requests in 20usize..80,
        chips in 1usize..5,
        rate in 100.0f64..1500.0,
        seed in 0u64..1000,
    ) {
        let trace = open_trace(requests, rate, seed);
        let report = simulate_fleet(&FleetConfig::new(chips, Policy::Fifo), &trace);
        let mut by_arrival: Vec<_> = report.completions.iter().collect();
        by_arrival.sort_by_key(|c| (c.arrival_cycles, c.id));
        for pair in by_arrival.windows(2) {
            prop_assert!(
                pair[0].start_cycles <= pair[1].start_cycles,
                "id {} (arrived {}) started at {} after id {} (arrived {}) at {}",
                pair[0].id, pair[0].arrival_cycles, pair[0].start_cycles,
                pair[1].id, pair[1].arrival_cycles, pair[1].start_cycles
            );
        }
    }

    /// The continuous batcher never packs more resident KV state than the
    /// chip's K/V SRAMs hold: the per-chip high-water mark respects the
    /// budget derived from `SpAttenConfig::kv_sram_bytes`.
    #[test]
    fn batcher_never_exceeds_kv_sram_budget(
        requests in 30usize..120,
        chips in 1usize..5,
        rate in 100.0f64..4000.0,
        seed in 0u64..1000,
    ) {
        let trace = open_trace(requests, rate, seed);
        let cfg = FleetConfig::new(chips, Policy::ContinuousBatching);
        let report = simulate_fleet(&cfg, &trace);
        prop_assert_eq!(report.kv_budget_bytes, 2 * cfg.accel.kv_sram_bytes);
        for chip in &report.chip_stats {
            prop_assert!(
                chip.max_kv_in_use <= report.kv_budget_bytes,
                "chip {} peaked at {} bytes against a {} byte budget",
                chip.id, chip.max_kv_in_use, report.kv_budget_bytes
            );
        }
    }

    /// The KV-aware reorderer's starvation bound holds end to end: no
    /// request is ever overtaken by more than `max_skip` later arrivals.
    /// An overtake is a job that arrived strictly later but started
    /// executing strictly earlier — exactly the events the policy's
    /// per-job skip counter charges, so the global bound must survive
    /// multi-chip admission races too.
    #[test]
    fn kv_aware_starvation_bound_is_never_exceeded(
        requests in 30usize..120,
        chips in 1usize..5,
        rate in 500.0f64..6000.0,
        seed in 0u64..1000,
        max_skip in 0u32..6,
    ) {
        let trace = open_trace(requests, rate, seed);
        let mut cfg = FleetConfig::new(chips, Policy::KvAware);
        cfg.sched.max_skip = max_skip;
        let report = simulate_fleet(&cfg, &trace);
        prop_assert_eq!(report.completed, requests);
        for c in &report.completions {
            let overtakes = report
                .completions
                .iter()
                .filter(|o| {
                    o.arrival_cycles > c.arrival_cycles && o.start_cycles < c.start_cycles
                })
                .count();
            prop_assert!(
                overtakes as u32 <= max_skip,
                "job {} was overtaken {} times against a bound of {}",
                c.id, overtakes, max_skip
            );
        }
    }

    /// SLO-rejected requests never consume chip cycles: every trace
    /// request either completes or is rejected (never both), and with an
    /// unmeetable SLO on every class the chips stay entirely idle.
    #[test]
    fn slo_rejections_never_consume_chip_cycles(
        requests in 20usize..80,
        chips in 1usize..4,
        rate in 200.0f64..3000.0,
        seed in 0u64..1000,
    ) {
        let spec = TraceSpec::mixed(
            ArrivalSpec::OpenPoisson { rate_rps: rate, requests },
            seed,
        );

        // Feasible-but-tight SLOs: completions and rejections partition
        // the trace, and no rejected id ever reaches a chip.
        let mut tight = spec.clone();
        for class in &mut tight.classes {
            *class = class.clone().with_slo(0.005);
        }
        let report = simulate_fleet(
            &FleetConfig::new(chips, Policy::SloAware),
            &tight.generate(),
        );
        prop_assert_eq!(report.completed + report.rejected, requests);
        let mut ids: Vec<u64> = report
            .completions
            .iter()
            .map(|c| c.id)
            .chain(report.rejections.iter().map(|r| r.id))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        // Equal lengths after dedup ⇒ no request both completed and was
        // rejected.
        prop_assert_eq!(ids.len(), requests);

        // Unmeetable SLOs: everything is shed at arrival and the fleet
        // never executes a single cycle.
        let mut hopeless = spec;
        for class in &mut hopeless.classes {
            *class = class.clone().with_slo(1e-9);
        }
        let report = simulate_fleet(
            &FleetConfig::new(chips, Policy::SloAware),
            &hopeless.generate(),
        );
        prop_assert_eq!(report.rejected, requests);
        prop_assert_eq!(report.completed, 0);
        for chip in &report.chip_stats {
            prop_assert_eq!(chip.busy_cycles, 0);
            prop_assert_eq!(chip.rounds, 0);
        }
    }

    /// Preemption never starves anyone: under an adversarial
    /// high-priority flood every evicted job still completes, and no job
    /// is ever evicted more often than the fairness bound allows.
    #[test]
    fn preempted_jobs_always_complete_within_the_fairness_bound(
        requests in 40usize..160,
        chips in 1usize..4,
        rate in 2000.0f64..8000.0,
        seed in 0u64..1000,
        fairness in 1u32..5,
    ) {
        let trace = tiered_trace(requests, rate, seed);
        let mut cfg = FleetConfig::new(chips, Policy::Priority);
        cfg.sched.preempt = PreemptSpec::Priority;
        cfg.sched.max_preemptions = fairness;
        let report = simulate_fleet(&cfg, &trace);
        prop_assert_eq!(report.completed, requests);
        for c in &report.completions {
            prop_assert!(
                c.preemptions <= fairness,
                "job {} evicted {} times against a bound of {}",
                c.id, c.preemptions, fairness
            );
        }
    }

    /// Preserved-prefix conservation: a preemptive run moves exactly the
    /// tokens a non-preemptive run moves — same completion set, same
    /// per-job generated counts — and whenever evictions occurred, the
    /// swap traffic was charged to chip busy time.
    #[test]
    fn preemption_conserves_tokens_and_charges_swaps(
        requests in 40usize..120,
        chips in 1usize..4,
        rate in 100.0f64..6000.0,
        seed in 0u64..1000,
    ) {
        let trace = tiered_trace(requests, rate, seed);
        let base = simulate_fleet(&FleetConfig::new(chips, Policy::Priority), &trace);
        let mut cfg = FleetConfig::new(chips, Policy::Priority);
        cfg.sched.preempt = PreemptSpec::Priority;
        let pre = simulate_fleet(&cfg, &trace);
        prop_assert_eq!(pre.completed, base.completed);
        let tokens = |r: &spatten_serve::FleetReport| -> Vec<(u64, usize)> {
            let mut t: Vec<(u64, usize)> = r
                .completions
                .iter()
                .map(|c| (c.id, c.prefill_tokens + c.generated_tokens))
                .collect();
            t.sort_unstable();
            t
        };
        prop_assert_eq!(tokens(&pre), tokens(&base));
        // Swap cycles are real work: every chip that evicted charged
        // nonzero swap time into its busy cycles, and chips that never
        // evicted charged none.
        prop_assert_eq!(
            pre.preemptions,
            pre.chip_stats.iter().map(|c| c.evictions).sum::<u64>()
        );
        for chip in &pre.chip_stats {
            prop_assert_eq!(chip.evictions > 0, chip.swap_cycles > 0);
            prop_assert!(chip.swap_cycles <= chip.busy_cycles);
        }
        for chip in &base.chip_stats {
            prop_assert_eq!(chip.evictions, 0);
            prop_assert_eq!(chip.swap_cycles, 0);
        }
    }

    /// The in-service backlog estimator is conservative-consistent: the
    /// simulator asserts at drain time that every cycle charged into the
    /// scheduler's pending ledgers and the chips' in-service estimates
    /// was discharged by the matching transition — admit, complete,
    /// preempt, or steal — so this property holds exactly when the run
    /// completes at all. Sweeping random traces through the full
    /// composition (in-service-aware routing × priority preemption ×
    /// work-stealing on a mixed 2-full + 2-eighth fleet) exercises every
    /// transition the estimate must survive; drift anywhere panics the
    /// event loop. Completion conservation and determinism ride along.
    #[test]
    fn in_service_estimator_never_drifts_across_transitions(
        requests in 40usize..140,
        rate in 100.0f64..4000.0,
        seed in 0u64..1000,
        route_pick in 0usize..4,
        steal_pick in 0usize..2,
    ) {
        let route = [
            RouteSpec::FastestChip,
            RouteSpec::ChurnAware,
            RouteSpec::LeastKvLoaded,
            RouteSpec::HashAffinity,
        ][route_pick];
        let steal = [StealSpec::Off, StealSpec::CostliestFit][steal_pick];
        let trace = tiered_trace(requests, rate, seed);
        let chips = vec![
            SpAttenConfig::default(),
            SpAttenConfig::default(),
            SpAttenConfig::eighth(),
            SpAttenConfig::eighth(),
        ];
        let mut cfg = FleetConfig::with_chips(chips, Policy::Priority);
        cfg.sched.route = route;
        cfg.sched.steal = steal;
        cfg.sched.preempt = PreemptSpec::Priority;
        let report = simulate_fleet(&cfg, &trace);
        prop_assert_eq!(report.completed, requests);
        let mut ids: Vec<u64> = report.completions.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), requests); // no request lost or duplicated
        let again = simulate_fleet(&cfg, &trace);
        prop_assert_eq!(report.completions, again.completions);
    }

    /// Work-stealing never migrates a preempted-resumed job: every
    /// completion that was preempted finishes on a chip that evicted at
    /// least once (its pin holds — the chip-level assert would panic on
    /// violation), and stealing with preemption still conserves tokens
    /// against the non-stealing run's totals.
    #[test]
    fn stealing_respects_preemption_pins(
        requests in 40usize..120,
        rate in 1000.0f64..6000.0,
        seed in 0u64..1000,
    ) {
        let trace = tiered_trace(requests, rate, seed);
        let chips = vec![
            SpAttenConfig::default(),
            SpAttenConfig::eighth(),
            SpAttenConfig::eighth(),
        ];
        let mut cfg = FleetConfig::with_chips(chips, Policy::Priority);
        cfg.sched.route = RouteSpec::HashAffinity;
        cfg.sched.steal = StealSpec::CostliestFit;
        cfg.sched.preempt = PreemptSpec::Priority;
        let report = simulate_fleet(&cfg, &trace);
        prop_assert_eq!(report.completed, requests);
        // Tokens moved are identical with stealing off: stealing
        // relocates work, never loses or duplicates it.
        let mut off = cfg.clone();
        off.sched.steal = StealSpec::Off;
        let base = simulate_fleet(&off, &trace);
        let tokens = |r: &spatten_serve::FleetReport| -> Vec<(u64, usize)> {
            let mut t: Vec<(u64, usize)> = r
                .completions
                .iter()
                .map(|c| (c.id, c.prefill_tokens + c.generated_tokens))
                .collect();
            t.sort_unstable();
            t
        };
        prop_assert_eq!(tokens(&report), tokens(&base));
    }

    /// Paged KV page accounting balances under the full scheduling
    /// composition: every canonical policy × routing × work-stealing ×
    /// priority preemption on a mixed 2-full + 2-eighth fleet, over the
    /// high-prefix-reuse chat mix (run-to-completion policies included:
    /// their whole-job rounds must skip a warm prefix head exactly as
    /// chunked prefill does, or the in-service estimate drifts). At
    /// drain every chip's pager returns every block it handed out
    /// (`blocks_allocated == blocks_freed`) — the pager itself
    /// asserts zero refcounts and an empty page-table map inside the
    /// event loop, so admission, eviction, resumption, stealing,
    /// mid-decode reclaim and cache eviction all have to conserve pages
    /// for the run to finish at all. The paged high-water mark never
    /// exceeds the chip budget, requests are conserved, and the run is
    /// deterministic.
    #[test]
    fn paged_pages_balance_across_route_steal_preempt(
        requests in 40usize..140,
        rate in 100.0f64..4000.0,
        seed in 0u64..1000,
        policy_pick in 0usize..Policy::ALL.len(),
        route_pick in 0usize..4,
        steal_pick in 0usize..2,
    ) {
        let policy = Policy::ALL[policy_pick];
        let route = [
            RouteSpec::FastestChip,
            RouteSpec::ChurnAware,
            RouteSpec::LeastKvLoaded,
            RouteSpec::HashAffinity,
        ][route_pick];
        let steal = [StealSpec::Off, StealSpec::CostliestFit][steal_pick];
        let mut spec = TraceSpec::chat(
            ArrivalSpec::OpenPoisson { rate_rps: rate, requests },
            seed,
        );
        spec.classes[0] = spec.classes[0].clone().with_priority(2);
        let trace = spec.generate();
        let chips = vec![
            SpAttenConfig::default(),
            SpAttenConfig::default(),
            SpAttenConfig::eighth(),
            SpAttenConfig::eighth(),
        ];
        let mut cfg = FleetConfig::with_chips(chips.clone(), policy);
        cfg.sched.route = route;
        cfg.sched.steal = steal;
        cfg.sched.preempt = PreemptSpec::Priority;
        cfg.sched.kv = KvSpec::paged();
        let report = simulate_fleet(&cfg, &trace);
        prop_assert_eq!(report.completed, requests);
        for (chip, stats) in chips.iter().zip(&report.chip_stats) {
            prop_assert!(
                stats.kv.blocks_allocated == stats.kv.blocks_freed,
                "chip {} leaked pages: {} allocated vs {} freed",
                stats.id, stats.kv.blocks_allocated, stats.kv.blocks_freed
            );
            prop_assert!(
                stats.max_kv_in_use <= 2 * chip.kv_sram_bytes,
                "chip {} overflowed its KV budget: {} > {}",
                stats.id, stats.max_kv_in_use, 2 * chip.kv_sram_bytes
            );
        }
        let mut ids: Vec<u64> = report.completions.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), requests);
        let again = simulate_fleet(&cfg, &trace);
        prop_assert_eq!(report.completions, again.completions);
    }

    /// With sharing disabled (`shared_prefix_tokens = 0` everywhere, the
    /// default for every non-chat trace), the paged allocator is pure
    /// mechanism: same completions as the contiguous model would admit
    /// block-rounding aside, zero shared hits, zero cache evictions, and
    /// the page ledger still balances.
    #[test]
    fn paged_without_prefixes_shares_nothing_and_balances(
        requests in 30usize..100,
        rate in 100.0f64..3000.0,
        seed in 0u64..1000,
    ) {
        let trace = tiered_trace(requests, rate, seed);
        let mut cfg = FleetConfig::new(2, Policy::Priority);
        cfg.sched.preempt = PreemptSpec::Priority;
        cfg.sched.kv = KvSpec::paged();
        let report = simulate_fleet(&cfg, &trace);
        prop_assert_eq!(report.completed, requests);
        for stats in &report.chip_stats {
            prop_assert_eq!(stats.kv.blocks_allocated, stats.kv.blocks_freed);
            prop_assert_eq!(stats.kv.shared_hits, 0);
            prop_assert_eq!(stats.kv.cache_evicted_blocks, 0);
        }
    }

    /// Handoff conservation: a disaggregated run moves exactly the
    /// tokens the co-located run moves — same completion set, same
    /// per-job prefill + generated counts — under every router, stealing
    /// mode and preemption setting. Migration relocates work, never
    /// loses or duplicates it, and no decode-phase job ever finishes on
    /// the prefill specialist. Determinism rides along.
    #[test]
    fn handoffs_conserve_tokens_across_route_steal_preempt(
        requests in 40usize..120,
        rate in 200.0f64..4000.0,
        seed in 0u64..1000,
        route_pick in 0usize..5,
        steal_pick in 0usize..2,
        preempt_pick in 0usize..2,
    ) {
        let route = [
            RouteSpec::FastestChip,
            RouteSpec::ChurnAware,
            RouteSpec::LeastKvLoaded,
            RouteSpec::HashAffinity,
            RouteSpec::PoolAware,
        ][route_pick];
        let steal = [StealSpec::Off, StealSpec::CostliestFit][steal_pick];
        let preempt = [PreemptSpec::None, PreemptSpec::Priority][preempt_pick];
        let trace = tiered_trace(requests, rate, seed);
        let mut cfg = FleetConfig::new(3, Policy::Priority);
        cfg.sched.route = route;
        cfg.sched.steal = steal;
        cfg.sched.preempt = preempt;
        let base = simulate_fleet(&cfg, &trace);
        let mut pooled = cfg.clone();
        pooled.pools = Some(PoolSpec::split(1, 2));
        let report = simulate_fleet(&pooled, &trace);
        prop_assert_eq!(report.completed, requests);
        let tokens = |r: &spatten_serve::FleetReport| -> Vec<(u64, usize)> {
            let mut t: Vec<(u64, usize)> = r
                .completions
                .iter()
                .map(|c| (c.id, c.prefill_tokens + c.generated_tokens))
                .collect();
            t.sort_unstable();
            t
        };
        prop_assert_eq!(tokens(&report), tokens(&base));
        for c in &report.completions {
            prop_assert!(
                c.generated_tokens == 0 || c.chip != 0,
                "decode-phase job {} finished on the prefill specialist",
                c.id
            );
        }
        let again = simulate_fleet(&pooled, &trace);
        prop_assert_eq!(report.completions, again.completions);
    }

    /// Both endpoints' pagers balance across a disaggregated run, and
    /// the transfer payload is pruning- and sharing-aware: with prefix
    /// sharing stripped every transferred byte is a whole unique block
    /// (`handoff_bytes` divides by the block size), prefix blocks
    /// already warm on the decode chip ride free (the shared-prefix run
    /// never moves more bytes than its stripped twin on the identical
    /// request stream), and the unpruned twin — same arrivals, same
    /// drawn lengths, dense KV — always moves strictly more.
    #[test]
    fn pooled_pagers_balance_and_warm_prefixes_ride_free(
        requests in 40usize..100,
        rate in 200.0f64..3000.0,
        seed in 0u64..1000,
        steal_pick in 0usize..2,
    ) {
        let steal = [StealSpec::Off, StealSpec::CostliestFit][steal_pick];
        let spec = TraceSpec::chat(
            ArrivalSpec::OpenPoisson { rate_rps: rate, requests },
            seed,
        );
        let mut stripped = spec.clone();
        for class in &mut stripped.classes {
            *class = class.clone().with_shared_prefix(0);
        }
        let mut cfg = FleetConfig::new(2, Policy::Priority);
        cfg.sched.route = RouteSpec::PoolAware;
        cfg.sched.steal = steal;
        cfg.sched.preempt = PreemptSpec::Priority;
        cfg.sched.kv = KvSpec::paged();
        cfg.pools = Some(PoolSpec::split(1, 1));
        let shared = simulate_fleet(&cfg, &spec.generate());
        let plain = simulate_fleet(&cfg, &stripped.generate());
        let dense = simulate_fleet(&cfg, &stripped.clone().unpruned().generate());
        let bytes = |r: &spatten_serve::FleetReport| -> u64 {
            r.chip_stats.iter().map(|c| c.handoff_bytes).sum()
        };
        for r in [&shared, &plain, &dense] {
            prop_assert_eq!(r.completed, requests);
            // Every chat job is generative, prefills on the specialist
            // and migrates exactly once.
            prop_assert_eq!(
                r.chip_stats.iter().map(|c| c.handoffs).sum::<u64>(),
                requests as u64
            );
            for stats in &r.chip_stats {
                prop_assert!(
                    stats.kv.blocks_allocated == stats.kv.blocks_freed,
                    "chip {} leaked pages across the handoff: {} allocated vs {} freed",
                    stats.id, stats.kv.blocks_allocated, stats.kv.blocks_freed
                );
            }
        }
        let bb = cfg.sched.kv.block_bytes().expect("paged spec has a block size");
        prop_assert_eq!(bytes(&plain) % bb, 0);
        prop_assert!(
            bytes(&shared) <= bytes(&plain),
            "warm shared prefixes must transfer free: {} > {}",
            bytes(&shared), bytes(&plain)
        );
        prop_assert!(
            bytes(&plain) < bytes(&dense),
            "pruned survivor sets must be cheaper to move: {} >= {}",
            bytes(&plain), bytes(&dense)
        );
    }

    /// [`SimMode::ParallelRounds`] is bit-identical to serial: the
    /// parallel cost-plane pre-warm prices the same pure functions the
    /// serial run would price lazily, so the full [`FleetReport`] — every
    /// completion timestamp, per-job token count, chip counter and the
    /// fired-event total — must match exactly, independent of thread
    /// count, across the whole routing × stealing × preemption × pooling
    /// scheduling surface.
    ///
    /// [`FleetReport`]: spatten_serve::FleetReport
    #[test]
    fn parallel_rounds_is_bit_identical_to_serial(
        requests in 40usize..120,
        rate in 200.0f64..4000.0,
        seed in 0u64..3,
        route_pick in 0usize..5,
        steal_pick in 0usize..2,
        preempt_pick in 0usize..2,
        pools_pick in 0usize..2,
        threads in 2usize..9,
    ) {
        let route = [
            RouteSpec::FastestChip,
            RouteSpec::ChurnAware,
            RouteSpec::LeastKvLoaded,
            RouteSpec::HashAffinity,
            RouteSpec::PoolAware,
        ][route_pick];
        let steal = [StealSpec::Off, StealSpec::CostliestFit][steal_pick];
        let preempt = [PreemptSpec::None, PreemptSpec::Priority][preempt_pick];
        let trace = tiered_trace(requests, rate, seed);
        let mut cfg = FleetConfig::new(3, Policy::Priority);
        cfg.sched.route = route;
        cfg.sched.steal = steal;
        cfg.sched.preempt = preempt;
        if pools_pick == 1 {
            cfg.pools = Some(PoolSpec::split(1, 2));
        }
        let serial = simulate_fleet(&cfg, &trace);
        let mut par = cfg.clone();
        par.sched.mode = SimMode::ParallelRounds { threads };
        let parallel = simulate_fleet(&par, &trace);
        // Per-job token vectors and the fired-event count first, for a
        // readable failure; then the whole report bit-for-bit.
        let tokens = |r: &spatten_serve::FleetReport| -> Vec<(u64, usize, usize)> {
            let mut t: Vec<(u64, usize, usize)> = r
                .completions
                .iter()
                .map(|c| (c.id, c.prefill_tokens, c.generated_tokens))
                .collect();
            t.sort_unstable();
            t
        };
        prop_assert_eq!(tokens(&parallel), tokens(&serial));
        prop_assert_eq!(parallel.sim_events, serial.sim_events);
        prop_assert_eq!(&parallel, &serial);
    }

    /// Timestamps are causally ordered for every completion, under every
    /// policy: arrival <= start <= first token <= finish.
    #[test]
    fn completion_timestamps_are_causal(
        requests in 20usize..80,
        chips in 1usize..5,
        seed in 0u64..1000,
    ) {
        let trace = open_trace(requests, 400.0, seed);
        for policy in Policy::ALL {
            let report = simulate_fleet(&FleetConfig::new(chips, policy), &trace);
            for c in &report.completions {
                prop_assert!(c.arrival_cycles <= c.start_cycles);
                prop_assert!(c.start_cycles < c.first_token_cycles);
                prop_assert!(c.first_token_cycles <= c.finish_cycles);
            }
        }
    }
}

/// Deterministic-seed end-to-end smoke test: a 4-chip fleet under every
/// policy completes the whole trace with nonzero throughput and a sane
/// latency distribution (p99 >= p50).
#[test]
fn end_to_end_smoke() {
    let trace = open_trace(300, 250.0, 20260726);
    for policy in Policy::ALL {
        let report = simulate_fleet(&FleetConfig::new(4, policy), &trace);
        assert_eq!(report.completed, 300, "{}", policy.name());
        assert!(report.throughput_rps > 0.0, "{}", policy.name());
        assert!(report.tokens_per_sec > 0.0, "{}", policy.name());
        assert!(report.utilization > 0.0, "{}", policy.name());
        assert!(
            report.latency.p99 >= report.latency.p50,
            "{}: p99 {} < p50 {}",
            policy.name(),
            report.latency.p99,
            report.latency.p50
        );
        assert!(
            report.latency.p95 >= report.latency.p50,
            "{}",
            policy.name()
        );
        assert!(
            report.latency.max >= report.latency.p99,
            "{}",
            policy.name()
        );
        // Rerunning the same seed reproduces the report bit-for-bit.
        let again = simulate_fleet(&FleetConfig::new(4, policy), &trace);
        assert_eq!(report.makespan_cycles, again.makespan_cycles);
        assert_eq!(report.completions, again.completions);
    }
}

/// Transferred bytes are exactly the unique dirty blocks at the
/// migration instant: with a single request, no prefix sharing and paged
/// KV, every block the prefill specialist ever allocated is dirty and
/// unique when the job graduates — so the handoff payload equals the
/// chip's entire allocation, and the unmap at departure returns every
/// one of those blocks.
#[test]
fn single_job_handoff_moves_exactly_its_dirty_blocks() {
    let trace = TraceSpec::gpt2_decode(
        ArrivalSpec::OpenPoisson {
            rate_rps: 100.0,
            requests: 1,
        },
        7,
    )
    .generate();
    let mut cfg = FleetConfig::new(2, Policy::ContinuousBatching);
    cfg.sched.route = RouteSpec::PoolAware;
    cfg.sched.kv = KvSpec::paged();
    cfg.pools = Some(PoolSpec::split(1, 1));
    let report = simulate_fleet(&cfg, &trace);
    assert_eq!(report.completed, 1);
    let bb = cfg
        .sched
        .kv
        .block_bytes()
        .expect("paged spec has a block size");
    let src = &report.chip_stats[0];
    assert_eq!(src.handoffs, 1);
    assert_eq!(src.handoff_bytes, src.kv.blocks_allocated * bb);
    assert_eq!(src.kv.blocks_allocated, src.kv.blocks_freed);
    assert_eq!(report.completions[0].chip, 1, "decode runs on the target");
}

/// The closed-loop arrival process also conserves requests end to end.
#[test]
fn closed_loop_smoke() {
    let trace = TraceSpec::mixed(
        ArrivalSpec::ClosedLoop {
            clients: 12,
            think_s: 0.001,
            requests: 120,
        },
        9,
    )
    .generate();
    let report = simulate_fleet(&FleetConfig::new(2, Policy::ContinuousBatching), &trace);
    assert_eq!(report.completed, 120);
    assert!(report.latency.p99 >= report.latency.p50);
}
