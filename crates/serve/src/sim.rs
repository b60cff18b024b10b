//! Fleet configuration and its lowering onto the engine.
//!
//! [`FleetConfig`] describes a fleet of SpAtten chips and how it is
//! scheduled. [`fleet_engine`] is its one lowering: it builds the cost
//! model over the chip roster (elastic joins and the reserve included),
//! resolves the elastic schedule to roster indices, and hands both to
//! [`fleet_engine_policy`]. [`simulate_fleet`] replays a trace through
//! that engine. The event loop itself lives in [`crate::engine`].

use crate::cost::CostModel;
use crate::disagg::PoolSpec;
use crate::elastic::ElasticSpec;
use crate::engine::{fleet_engine_policy, PolicyFleetEngine};
use crate::metrics::FleetReport;
use crate::scheduler::{Policy, SchedKnobs};
use spatten_core::SpAttenConfig;
use spatten_workloads::Trace;

/// Fleet-level configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of SpAtten chips.
    pub chips: usize,
    /// Per-chip accelerator configuration (Table I defaults). For a
    /// heterogeneous fleet, set [`FleetConfig::chip_configs`] instead;
    /// `accel` then only provides the fleet clock.
    pub accel: SpAttenConfig,
    /// Per-chip configurations for a heterogeneous fleet (length must
    /// equal `chips`); `None` means every chip is `accel`.
    pub chip_configs: Option<Vec<SpAttenConfig>>,
    /// Scheduling policy.
    pub policy: Policy,
    /// Cap on jobs resident per chip under continuous batching (protects
    /// iteration latency even when KV footprints are tiny).
    pub max_batch: usize,
    /// FC weight bitwidth for end-to-end job costs; `None` prices
    /// attention only.
    pub fc_weight_bits: Option<u32>,
    /// Policy tuning knobs (prefill chunk quantum, decode-prioritized
    /// prefill budget, KV-aware starvation bound).
    pub sched: SchedKnobs,
    /// Disaggregated prefill/decode pools ([`crate::disagg`]). `None` —
    /// the default — is co-located serving: every chip runs jobs
    /// end-to-end, bit-for-bit the pre-disaggregation behavior (an
    /// all-[`PoolRole::Flex`](spatten_workloads::PoolRole::Flex) spec is
    /// equivalent). When set, the roles must cover every chip; a job
    /// whose last prefill chunk retires on a `Prefill` chip hands its KV
    /// off to the decode pool over the spec's wiring, priced by
    /// [`FleetCost::handoff_cycles_on`](crate::cost::FleetCost::handoff_cycles_on).
    pub pools: Option<PoolSpec>,
    /// Elasticity scenario ([`crate::elastic`]): scheduled chip
    /// joins/leaves, an autoscaler-managed reserve, and optional
    /// resident-model tags. `None` — the default — is a fixed fleet,
    /// bit-for-bit the pre-elasticity behavior (an empty
    /// [`ElasticSpec`] is equivalent). Scheduled joins and the reserve
    /// extend the roster past `chips`; leave events index into that
    /// full roster.
    pub elastic: Option<ElasticSpec>,
}

impl FleetConfig {
    /// A fleet of `chips` Table-I accelerators under `policy`, pricing
    /// end-to-end jobs with 8-bit FC weights and batching up to 8 jobs.
    pub fn new(chips: usize, policy: Policy) -> Self {
        Self {
            chips,
            accel: SpAttenConfig::default(),
            chip_configs: None,
            policy,
            max_batch: 8,
            fc_weight_bits: Some(8),
            sched: SchedKnobs::default(),
            pools: None,
            elastic: None,
        }
    }

    /// A heterogeneous fleet: chip `i` runs `chip_configs[i]` (mix Table-I
    /// chips with [`SpAttenConfig::eighth`]-scale ones). All chips must
    /// share a core clock — the fleet event queue ticks in core cycles.
    pub fn with_chips(chip_configs: Vec<SpAttenConfig>, policy: Policy) -> Self {
        assert!(!chip_configs.is_empty(), "fleet needs at least one chip");
        Self {
            chips: chip_configs.len(),
            accel: chip_configs[0],
            chip_configs: Some(chip_configs),
            ..Self::new(1, policy)
        }
    }
}

/// Lowers `cfg` onto the engine it describes. The roster is
/// `chip_configs` (or `chips` copies of `accel`) followed by the elastic
/// spec's scheduled joins and reserve; the cost model prices it with
/// [`CostModel::heterogeneous`], whose memo is shared between identical
/// chips. The elastic schedule's events resolve to roster indices.
///
/// # Panics
///
/// Panics if the fleet has zero chips, `max_batch` is zero,
/// `chip_configs` does not list `chips` entries, or a chip's clock
/// differs from `accel`'s.
pub fn fleet_engine(cfg: &FleetConfig) -> PolicyFleetEngine {
    let mut roster = match &cfg.chip_configs {
        Some(cfgs) => {
            assert_eq!(
                cfgs.len(),
                cfg.chips,
                "chip_configs length must match the chip count"
            );
            cfgs.clone()
        }
        None => vec![cfg.accel; cfg.chips],
    };
    let elastic = cfg.elastic.as_ref().map(|spec| {
        roster.extend(spec.extra_configs());
        spec.lower(cfg.chips)
    });
    assert!(
        roster
            .iter()
            .all(|c| c.clock_ghz.to_bits() == cfg.accel.clock_ghz.to_bits()),
        "every chip must share the fleet's core clock"
    );
    let chips = roster.len();
    fleet_engine_policy(
        CostModel::heterogeneous(roster, cfg.fc_weight_bits),
        chips,
        cfg.policy,
        &cfg.sched,
        cfg.pools.clone(),
        elastic,
        cfg.max_batch,
        cfg.accel.clock_ghz,
    )
}

/// Simulates `trace` on the fleet described by `cfg` and returns the
/// aggregated report: `fleet_engine(cfg).replay(trace)`. Deterministic
/// for a fixed `(cfg, trace)`.
///
/// # Panics
///
/// As [`fleet_engine`].
pub fn simulate_fleet(cfg: &FleetConfig, trace: &Trace) -> FleetReport {
    fleet_engine(cfg).replay(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::KvSpec;
    use crate::scheduler::{PreemptSpec, RouteSpec, StealSpec};
    use spatten_workloads::{ArrivalSpec, PoolRole, TraceSpec};

    fn open_trace(n: usize, rate: f64, seed: u64) -> Trace {
        TraceSpec::mixed(
            ArrivalSpec::OpenPoisson {
                rate_rps: rate,
                requests: n,
            },
            seed,
        )
        .generate()
    }

    #[test]
    fn every_request_completes_exactly_once() {
        let trace = open_trace(200, 2000.0, 42);
        for policy in Policy::ALL {
            let report = simulate_fleet(&FleetConfig::new(2, policy), &trace);
            assert_eq!(report.completed, 200, "{}", policy.name());
            let mut ids: Vec<u64> = report.completions.iter().map(|c| c.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 200, "{} duplicated ids", policy.name());
        }
    }

    #[test]
    fn reports_are_deterministic() {
        let trace = open_trace(100, 1000.0, 7);
        for policy in [Policy::ContinuousBatching, Policy::DecodePrioritized] {
            let cfg = FleetConfig::new(4, policy);
            let a = simulate_fleet(&cfg, &trace);
            let b = simulate_fleet(&cfg, &trace);
            assert_eq!(a.makespan_cycles, b.makespan_cycles);
            assert_eq!(a.completions, b.completions);
        }
    }

    #[test]
    fn closed_loop_serializes_per_client() {
        let trace = TraceSpec::mixed(
            ArrivalSpec::ClosedLoop {
                clients: 4,
                think_s: 0.0001,
                requests: 40,
            },
            3,
        )
        .generate();
        let report = simulate_fleet(&FleetConfig::new(2, Policy::Fifo), &trace);
        assert_eq!(report.completed, 40);
        // A client's requests never overlap: sorted by arrival, each starts
        // at or after the previous one's finish + think.
        for client in 0..4 {
            let mut mine: Vec<_> = report
                .completions
                .iter()
                .filter(|c| c.client == Some(client))
                .collect();
            mine.sort_by_key(|c| c.arrival_cycles);
            for pair in mine.windows(2) {
                assert!(pair[1].arrival_cycles >= pair[0].finish_cycles);
            }
        }
    }

    #[test]
    fn utilization_and_throughput_are_sane() {
        let trace = open_trace(150, 3000.0, 9);
        let report = simulate_fleet(&FleetConfig::new(2, Policy::Fifo), &trace);
        assert!(report.throughput_rps > 0.0);
        assert!(report.tokens_per_sec > report.throughput_rps);
        assert!(report.utilization > 0.0 && report.utilization <= 1.0);
        assert!(report.latency.p99 >= report.latency.p50);
        assert!(report.latency.max >= report.latency.p99);
        // No SLOs in the trace: goodput equals throughput, nothing is
        // rejected or violated.
        assert_eq!(report.goodput_rps, report.throughput_rps);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.slo_violations, 0);
    }

    #[test]
    fn heterogeneous_fleet_completes_and_favors_the_fast_chip() {
        // One Table-I chip next to one 1/8-scale chip: everything still
        // completes, and the full-size chip carries more of the busy time
        // than the eighth under run-to-completion FIFO (it turns jobs
        // around ~8× faster, so it comes back for work more often).
        let trace = open_trace(200, 1500.0, 17);
        let cfg = FleetConfig::with_chips(
            vec![SpAttenConfig::default(), SpAttenConfig::eighth()],
            Policy::Fifo,
        );
        let report = simulate_fleet(&cfg, &trace);
        assert_eq!(report.completed, 200);
        let full: usize = report.completions.iter().filter(|c| c.chip == 0).count();
        let eighth = 200 - full;
        assert!(
            full > eighth,
            "full chip should finish more jobs: {full} vs {eighth}"
        );
    }

    #[test]
    fn kv_high_water_mark_respects_budget() {
        let trace = open_trace(300, 5000.0, 11);
        for policy in [Policy::ContinuousBatching, Policy::KvAware] {
            let cfg = FleetConfig::new(2, policy);
            let report = simulate_fleet(&cfg, &trace);
            for chip in &report.chip_stats {
                assert!(
                    chip.max_kv_in_use <= report.kv_budget_bytes,
                    "{}: chip {} used {} of {}",
                    policy.name(),
                    chip.id,
                    chip.max_kv_in_use,
                    report.kv_budget_bytes
                );
            }
        }
    }

    #[test]
    fn batching_runs_with_occupancy_above_one_under_load() {
        let trace = open_trace(300, 5000.0, 13);
        let cfg = FleetConfig::new(2, Policy::ContinuousBatching);
        let report = simulate_fleet(&cfg, &trace);
        assert!(
            report.mean_occupancy() > 1.1,
            "continuous batching should batch: occupancy {}",
            report.mean_occupancy()
        );
    }

    #[test]
    fn decode_prioritized_tightens_decode_cadence_under_prefill_pressure() {
        // A prefill-heavy mixed stream at high offered load: plain
        // continuous batching lets every resident prefill inject a full
        // chunk per iteration, stretching resident decode jobs' token
        // cadence; decode-prioritized budgets cap that.
        let trace = open_trace(400, 6000.0, 29);
        let cb = simulate_fleet(&FleetConfig::new(2, Policy::ContinuousBatching), &trace);
        let dp = simulate_fleet(&FleetConfig::new(2, Policy::DecodePrioritized), &trace);
        assert_eq!(dp.completed, 400);
        assert!(
            dp.tbt.p99 < cb.tbt.p99,
            "decode-prioritized tbt p99 {} should beat continuous batching's {}",
            dp.tbt.p99,
            cb.tbt.p99
        );
    }

    /// Two-tier spec: interactive high-priority traffic over a
    /// low-priority batch tier.
    fn tiered_spec(arrival: ArrivalSpec, seed: u64) -> TraceSpec {
        let mut spec = TraceSpec::mixed(arrival, seed);
        spec.classes[0] = spec.classes[0].clone().with_priority(2);
        spec
    }

    #[test]
    fn priority_preemption_evicts_and_still_completes_everything() {
        let trace = tiered_spec(
            ArrivalSpec::OpenPoisson {
                rate_rps: 6000.0,
                requests: 300,
            },
            41,
        )
        .generate();
        let mut cfg = FleetConfig::new(1, Policy::Priority);
        cfg.sched.preempt = PreemptSpec::Priority;
        let report = simulate_fleet(&cfg, &trace);
        assert_eq!(report.completed, 300, "preemption must not lose jobs");
        assert!(
            report.preemptions > 0,
            "an overloaded two-tier chip must evict at least once"
        );
        // The ledger is consistent: fleet preemptions = chip evictions =
        // per-class preemptions, and only the batch tier is ever evicted.
        let chip_evictions: u64 = report.chip_stats.iter().map(|c| c.evictions).sum();
        assert_eq!(report.preemptions, chip_evictions);
        assert_eq!(report.class_stats[0].preemptions, 0);
        assert_eq!(report.class_stats[1].preemptions, report.preemptions);
        // Swap time is charged wherever evictions happened.
        for chip in &report.chip_stats {
            assert_eq!(chip.evictions > 0, chip.swap_cycles > 0);
            assert!(chip.swap_cycles <= chip.busy_cycles);
        }
        // Determinism survives preemption.
        let again = simulate_fleet(&cfg, &trace);
        assert_eq!(report.completions, again.completions);
    }

    #[test]
    fn preemption_improves_high_priority_tail_latency() {
        let trace = tiered_spec(
            ArrivalSpec::OpenPoisson {
                rate_rps: 6000.0,
                requests: 400,
            },
            43,
        )
        .generate();
        let base = simulate_fleet(&FleetConfig::new(1, Policy::ContinuousBatching), &trace);
        let mut cfg = FleetConfig::new(1, Policy::Priority);
        cfg.sched.preempt = PreemptSpec::Priority;
        let pre = simulate_fleet(&cfg, &trace);
        assert!(pre.preemptions > 0);
        assert!(
            pre.class_stats[0].latency.p99 < base.class_stats[0].latency.p99,
            "high-priority p99 {} must beat non-preemptive {}",
            pre.class_stats[0].latency.p99,
            base.class_stats[0].latency.p99
        );
    }

    #[test]
    fn fastest_chip_routing_beats_the_shared_queue_on_a_mixed_fleet() {
        // 150 req/s keeps the mixed fleet in the loaded-but-not-saturated
        // band where placement matters; at saturation every queue grows
        // without bound and work conservation is all that counts.
        let trace = open_trace(400, 150.0, 47);
        let chips = vec![
            SpAttenConfig::default(),
            SpAttenConfig::default(),
            SpAttenConfig::eighth(),
            SpAttenConfig::eighth(),
        ];
        let shared = simulate_fleet(
            &FleetConfig::with_chips(chips.clone(), Policy::ContinuousBatching),
            &trace,
        );
        let mut routed_cfg = FleetConfig::with_chips(chips, Policy::ContinuousBatching);
        routed_cfg.sched.route = RouteSpec::FastestChip;
        let routed = simulate_fleet(&routed_cfg, &trace);
        assert_eq!(routed.completed, 400);
        assert!(
            routed.latency.p99 < shared.latency.p99,
            "routed p99 {} must beat the chip-agnostic shared queue's {}",
            routed.latency.p99,
            shared.latency.p99
        );
    }

    #[test]
    fn every_routing_policy_conserves_requests() {
        let trace = open_trace(200, 2000.0, 53);
        let chips = vec![SpAttenConfig::default(), SpAttenConfig::eighth()];
        for route in [
            RouteSpec::SharedQueue,
            RouteSpec::FastestChip,
            RouteSpec::FastestStealAware,
            RouteSpec::ChurnAware,
            RouteSpec::LeastKvLoaded,
            RouteSpec::HashAffinity,
        ] {
            for steal in [StealSpec::Off, StealSpec::CostliestFit] {
                let mut cfg = FleetConfig::with_chips(chips.clone(), Policy::ContinuousBatching);
                cfg.sched.route = route;
                cfg.sched.steal = steal;
                let report = simulate_fleet(&cfg, &trace);
                assert_eq!(report.completed, 200, "{}/{}", route.name(), steal.name());
                let a = simulate_fleet(&cfg, &trace);
                assert_eq!(
                    report.completions,
                    a.completions,
                    "{}/{}",
                    route.name(),
                    steal.name()
                );
            }
        }
    }

    #[test]
    fn preemption_inert_flags_run_to_completion_policies() {
        let trace = open_trace(60, 1000.0, 61);
        // FIFO runs jobs to completion: its solitary resident always
        // leaves free slots, so priority preemption can never fire — the
        // report must say so instead of silently doing nothing.
        let mut cfg = FleetConfig::new(2, Policy::Fifo);
        cfg.sched.preempt = PreemptSpec::Priority;
        let report = simulate_fleet(&cfg, &trace);
        assert!(report.preemption_inert, "fifo × preemption is inert");
        assert_eq!(report.preemptions, 0);
        let mut cfg = FleetConfig::new(2, Policy::Sjf);
        cfg.sched.preempt = PreemptSpec::Priority;
        assert!(simulate_fleet(&cfg, &trace).preemption_inert);
        // Iteration-level policies can genuinely preempt; plain FIFO
        // without preemption asked for nothing, so nothing is flagged.
        let mut cfg = FleetConfig::new(2, Policy::ContinuousBatching);
        cfg.sched.preempt = PreemptSpec::Priority;
        assert!(!simulate_fleet(&cfg, &trace).preemption_inert);
        assert!(!simulate_fleet(&FleetConfig::new(2, Policy::Fifo), &trace).preemption_inert);
    }

    /// The mixed 2-full + 2-eighth fleet the routing claims are made on.
    fn mixed_chips() -> Vec<SpAttenConfig> {
        vec![
            SpAttenConfig::default(),
            SpAttenConfig::default(),
            SpAttenConfig::eighth(),
            SpAttenConfig::eighth(),
        ]
    }

    #[test]
    fn fastest_chip_routing_no_longer_loses_at_saturation() {
        // The PR 4 defect: above capacity, private queues drain into
        // resident sets, the queued-only backlog estimate goes blind, and
        // fastest-chip routing *lost* to the shared queue. With
        // in-service-aware estimates it must stay at least competitive
        // (the shared queue is the work-conserving gold standard here —
        // routing can't beat it at saturation, but it must not lose).
        let trace = open_trace(250, 500.0, 67);
        let shared = simulate_fleet(
            &FleetConfig::with_chips(mixed_chips(), Policy::ContinuousBatching),
            &trace,
        );
        let mut routed_cfg = FleetConfig::with_chips(mixed_chips(), Policy::ContinuousBatching);
        routed_cfg.sched.route = RouteSpec::FastestChip;
        let routed = simulate_fleet(&routed_cfg, &trace);
        assert_eq!(routed.completed, 250);
        eprintln!(
            "saturation: routed p99 {} vs shared p99 {}",
            routed.latency.p99, shared.latency.p99
        );
        assert!(
            routed.latency.p99 <= shared.latency.p99 * 1.05,
            "in-service-aware routing must not lose to the shared queue at \
             saturation: routed p99 {} vs shared {}",
            routed.latency.p99,
            shared.latency.p99
        );
    }

    #[test]
    fn steal_aware_routing_holds_the_pr5_saturation_band() {
        // The steal-aware discount must not regress the PR 5 saturation
        // guarantee: with stealing on (the configuration the discount
        // prices), routing stays at least competitive with the
        // work-conserving shared queue, and with stealing off the
        // optimism must stay benign inside the same band.
        let trace = open_trace(250, 500.0, 67);
        let shared = simulate_fleet(
            &FleetConfig::with_chips(mixed_chips(), Policy::ContinuousBatching),
            &trace,
        );
        let mut cfg = FleetConfig::with_chips(mixed_chips(), Policy::ContinuousBatching);
        cfg.sched.route = RouteSpec::FastestStealAware;
        cfg.sched.steal = StealSpec::CostliestFit;
        let stealing = simulate_fleet(&cfg, &trace);
        assert_eq!(stealing.completed, 250);
        eprintln!(
            "steal-aware saturation: routed p99 {} vs shared p99 {}",
            stealing.latency.p99, shared.latency.p99
        );
        assert!(
            stealing.latency.p99 <= shared.latency.p99 * 1.05,
            "steal-aware routing + stealing must hold the saturation band: \
             routed p99 {} vs shared {}",
            stealing.latency.p99,
            shared.latency.p99
        );
        cfg.sched.steal = StealSpec::Off;
        let no_steal = simulate_fleet(&cfg, &trace);
        assert_eq!(no_steal.completed, 250);
        assert!(
            no_steal.latency.p99 <= shared.latency.p99 * 1.05,
            "the discount without thieves must stay benign at saturation: \
             routed p99 {} vs shared {}",
            no_steal.latency.p99,
            shared.latency.p99
        );
    }

    #[test]
    fn work_stealing_recovers_adversarial_hash_affinity_routing() {
        // Hash affinity ignores load and chip speed entirely: at
        // saturation the eighth-scale chips drown in their private
        // queues while full chips idle. Stealing must claw most of that
        // back.
        let trace = open_trace(250, 500.0, 71);
        let mut cfg = FleetConfig::with_chips(mixed_chips(), Policy::ContinuousBatching);
        cfg.sched.route = RouteSpec::HashAffinity;
        let stuck = simulate_fleet(&cfg, &trace);
        cfg.sched.steal = StealSpec::CostliestFit;
        let stolen = simulate_fleet(&cfg, &trace);
        assert_eq!(stolen.completed, 250);
        let steals: u64 = stolen.chip_stats.iter().map(|c| c.steals).sum();
        let stolen_cycles: u64 = stolen.chip_stats.iter().map(|c| c.stolen_cycles).sum();
        assert!(steals > 0, "an overloaded hash-routed fleet must steal");
        assert!(stolen_cycles > 0);
        assert_eq!(
            stuck.chip_stats.iter().map(|c| c.steals).sum::<u64>(),
            0,
            "stealing off must never steal"
        );
        eprintln!(
            "stealing: off p99 {} vs on p99 {} ({steals} steals)",
            stuck.latency.p99, stolen.latency.p99
        );
        assert!(
            stolen.latency.p99 * 1.5 <= stuck.latency.p99,
            "stealing must recover >= 1.5x of the adversarial-routing tail: \
             {} vs {}",
            stolen.latency.p99,
            stuck.latency.p99
        );
    }

    #[test]
    fn least_kv_routing_holds_up_on_speed_heterogeneous_fleets() {
        // The PR 4 known limit: KV-fraction-only routing kept sending
        // work to the emptiest SRAM — usually a slow eighth-scale chip —
        // and lost to the shared queue. Weighted by probed serial cost it
        // must at least break even in the placement band.
        let trace = open_trace(400, 150.0, 73);
        let shared = simulate_fleet(
            &FleetConfig::with_chips(mixed_chips(), Policy::ContinuousBatching),
            &trace,
        );
        let mut cfg = FleetConfig::with_chips(mixed_chips(), Policy::ContinuousBatching);
        cfg.sched.route = RouteSpec::LeastKvLoaded;
        let routed = simulate_fleet(&cfg, &trace);
        assert_eq!(routed.completed, 400);
        eprintln!(
            "least-kv: routed p99 {} vs shared p99 {}",
            routed.latency.p99, shared.latency.p99
        );
        assert!(
            routed.latency.p99 <= shared.latency.p99 * 1.05,
            "speed-weighted least-KV routing must not lose to the shared \
             queue: {} vs {}",
            routed.latency.p99,
            shared.latency.p99
        );
    }

    #[test]
    fn churn_aware_routing_completes_and_sees_evictions() {
        // Two-tier traffic with preemption on a mixed fleet: churn-aware
        // routing must conserve requests, stay deterministic, and still
        // let preemption fire (it routes around hotspots, it doesn't
        // disable them).
        let trace = tiered_spec(
            ArrivalSpec::OpenPoisson {
                rate_rps: 500.0,
                requests: 250,
            },
            79,
        )
        .generate();
        let mut cfg = FleetConfig::with_chips(mixed_chips(), Policy::Priority);
        cfg.sched.route = RouteSpec::ChurnAware;
        cfg.sched.preempt = PreemptSpec::Priority;
        let report = simulate_fleet(&cfg, &trace);
        assert_eq!(report.completed, 250);
        assert!(report.preemptions > 0, "contended two-tier fleet evicts");
        let again = simulate_fleet(&cfg, &trace);
        assert_eq!(report.completions, again.completions);
    }

    /// The high-prefix-reuse chat mix paged KV exists for.
    fn chat_trace(n: usize, rate: f64, seed: u64) -> Trace {
        TraceSpec::chat(
            ArrivalSpec::OpenPoisson {
                rate_rps: rate,
                requests: n,
            },
            seed,
        )
        .generate()
    }

    #[test]
    #[ignore = "measurement probe, not a regression test"]
    fn probe_batch_knee() {
        for kv in [KvSpec::Contiguous, KvSpec::paged()] {
            for clients in [2usize, 4, 8, 16, 32] {
                let trace = TraceSpec::chat(
                    ArrivalSpec::ClosedLoop {
                        clients,
                        think_s: 0.0,
                        requests: 200,
                    },
                    7,
                )
                .generate();
                let mut cfg = FleetConfig::new(1, Policy::ContinuousBatching);
                cfg.max_batch = 64;
                cfg.sched.kv = kv;
                let r = simulate_fleet(&cfg, &trace);
                eprintln!(
                    "{:<10} clients {clients:>3}  occ {:>6.2}  throughput {:>7.1} rps  tbt p99 {:>8.5}s  p99 {:>7.3}s",
                    kv.name(),
                    r.mean_occupancy(),
                    r.throughput_rps,
                    r.tbt.p99,
                    r.latency.p99
                );
            }
        }
    }

    #[test]
    fn warm_prefix_skips_the_shared_head_of_prefill() {
        // The latency half of prefix caching: after the first job of a
        // class materializes the prefix KV, every later sharer resumes
        // prefill at the suffix. Same trace, same chip, same budget —
        // the paged run finishes the chat mix strictly sooner because
        // it genuinely does less prefill work.
        let trace = chat_trace(120, 2000.0, 57);
        let mut contig = FleetConfig::new(1, Policy::ContinuousBatching);
        contig.max_batch = 16;
        let c = simulate_fleet(&contig, &trace);
        let mut paged_cfg = contig.clone();
        paged_cfg.sched.kv = KvSpec::paged();
        let p = simulate_fleet(&paged_cfg, &trace);
        assert_eq!(p.completed, 120);
        assert!(
            p.makespan_cycles < c.makespan_cycles,
            "warm-prefix prefill skip must shorten the makespan: paged {} vs contiguous {}",
            p.makespan_cycles,
            c.makespan_cycles
        );
        assert!(
            p.ttft.p99 < c.ttft.p99,
            "skipped prefill must show up in ttft p99: {} vs {}",
            p.ttft.p99,
            c.ttft.p99
        );
    }

    #[test]
    fn paged_chat_mix_completes_shares_and_drains() {
        // Paged allocation with priority preemption on an overloaded
        // chip: jobs map, share prefix blocks, get evicted (unique
        // pages only), resume, reclaim down the pruning ramp, and the
        // pager's drain invariant (allocated == freed, refcounts zero)
        // is asserted inside run(). Conservation and determinism must
        // survive all of it.
        let mut spec = TraceSpec::chat(
            ArrivalSpec::OpenPoisson {
                rate_rps: 6000.0,
                requests: 300,
            },
            83,
        );
        // Tier the assistant class so priority preemption has someone
        // to evict for.
        spec.classes[0] = spec.classes[0].clone().with_priority(2);
        let trace = spec.generate();
        let mut cfg = FleetConfig::new(1, Policy::Priority);
        cfg.sched.preempt = PreemptSpec::Priority;
        cfg.sched.kv = KvSpec::paged();
        let report = simulate_fleet(&cfg, &trace);
        assert_eq!(report.completed, 300, "paged serving must not lose jobs");
        assert!(report.preemptions > 0, "overloaded two-tier chip evicts");
        let hits: u64 = report.chip_stats.iter().map(|c| c.kv.shared_hits).sum();
        assert!(
            hits > 0,
            "a >=50% shared-prefix mix must hit the prefix cache"
        );
        let reclaimed: u64 = report
            .chip_stats
            .iter()
            .map(|c| c.kv.blocks_reclaimed)
            .sum();
        assert!(
            reclaimed > 0,
            "cascade pruning must return blocks mid-decode"
        );
        for chip in &report.chip_stats {
            assert_eq!(chip.kv.blocks_allocated, chip.kv.blocks_freed);
            assert!(chip.max_kv_in_use <= report.kv_budget_bytes);
        }
        let again = simulate_fleet(&cfg, &trace);
        assert_eq!(report.completions, again.completions);
    }

    #[test]
    fn paged_without_sharing_still_conserves_requests() {
        // No class declares a shared prefix: the pager runs pure paged
        // bookkeeping (no prefix entries, no cache) and must still
        // complete everything across routing and stealing.
        let trace = open_trace(200, 2000.0, 89);
        let mut cfg = FleetConfig::with_chips(mixed_chips(), Policy::ContinuousBatching);
        cfg.sched.route = RouteSpec::FastestChip;
        cfg.sched.steal = StealSpec::CostliestFit;
        cfg.sched.kv = KvSpec::paged();
        let report = simulate_fleet(&cfg, &trace);
        assert_eq!(report.completed, 200);
        let hits: u64 = report.chip_stats.iter().map(|c| c.kv.shared_hits).sum();
        assert_eq!(hits, 0, "nothing to share without declared prefixes");
    }

    #[test]
    fn contiguous_default_is_unchanged_by_the_kv_knob() {
        // KvSpec::Contiguous is the default and must be bit-for-bit the
        // pre-paging resource model: an explicit knob and the default
        // produce identical reports, and no page counters ever move.
        let trace = chat_trace(150, 3000.0, 97);
        let cfg = FleetConfig::new(2, Policy::ContinuousBatching);
        let default_run = simulate_fleet(&cfg, &trace);
        let mut explicit = FleetConfig::new(2, Policy::ContinuousBatching);
        explicit.sched.kv = KvSpec::Contiguous;
        let explicit_run = simulate_fleet(&explicit, &trace);
        assert_eq!(default_run.completions, explicit_run.completions);
        assert_eq!(default_run.makespan_cycles, explicit_run.makespan_cycles);
        for chip in &default_run.chip_stats {
            assert_eq!(chip.kv, crate::kv::KvStats::default());
        }
    }

    #[test]
    fn paged_sharing_admits_larger_batches_on_the_chat_mix() {
        // Shared prefix pages are charged once: with the batch-slot cap
        // lifted out of the way, KV capacity binds admission, and at
        // equal budget the paged fleet packs strictly more residents
        // than contiguous reservation (the sched_bench grid enforces
        // the end-to-end latency/goodput win; this guards capacity).
        let trace = chat_trace(300, 6000.0, 101);
        let mut cfg = FleetConfig::new(1, Policy::ContinuousBatching);
        cfg.max_batch = 64;
        let contig = simulate_fleet(&cfg, &trace);
        let mut paged_cfg = FleetConfig::new(1, Policy::ContinuousBatching);
        paged_cfg.max_batch = 64;
        paged_cfg.sched.kv = KvSpec::paged();
        let paged = simulate_fleet(&paged_cfg, &trace);
        assert_eq!(paged.completed, 300);
        eprintln!(
            "chat occupancy: paged {} vs contiguous {}",
            paged.mean_occupancy(),
            contig.mean_occupancy()
        );
        assert!(
            paged.mean_occupancy() > contig.mean_occupancy(),
            "prefix sharing must pack a larger resident set: {} vs {}",
            paged.mean_occupancy(),
            contig.mean_occupancy()
        );
    }

    #[test]
    fn poolless_and_all_flex_runs_are_bit_identical() {
        // The co-located baseline must be untouched by the disaggregation
        // subsystem: no pool spec and an all-Flex spec (roles that never
        // migrate) produce the same report bit-for-bit, with zero
        // handoffs and the same event count.
        use spatten_workloads::fleet::{LinkSpec, TopologySpec};
        let trace = chat_trace(150, 3000.0, 103);
        let cfg = FleetConfig::new(2, Policy::ContinuousBatching);
        let plain = simulate_fleet(&cfg, &trace);
        let mut flex = FleetConfig::new(2, Policy::ContinuousBatching);
        flex.pools = Some(PoolSpec::new(
            vec![PoolRole::Flex; 2],
            TopologySpec::FullyConnected,
            LinkSpec::default(),
        ));
        let pooled = simulate_fleet(&flex, &trace);
        assert_eq!(plain.completions, pooled.completions);
        assert_eq!(plain.makespan_cycles, pooled.makespan_cycles);
        assert_eq!(plain.sim_events, pooled.sim_events);
        assert!(plain.sim_events > 0);
        for chip in &pooled.chip_stats {
            assert_eq!(chip.handoffs, 0, "flex chips never migrate");
            assert_eq!(chip.handoff_cycles, 0);
        }
    }

    #[test]
    fn disaggregation_migrates_graduates_and_prices_both_endpoints() {
        // 1 prefill-specialist + 1 decode-specialist under pool-aware
        // routing: every generative job prefills on chip 0, hands its KV
        // off, and decodes to completion on chip 1. The transfer is
        // priced into both chips' busy cycles, the payload bytes are
        // counted at the source, and nothing is lost or duplicated.
        let trace = open_trace(200, 2000.0, 107);
        let mut cfg = FleetConfig::new(2, Policy::ContinuousBatching);
        cfg.pools = Some(PoolSpec::split(1, 1));
        cfg.sched.route = RouteSpec::PoolAware;
        let report = simulate_fleet(&cfg, &trace);
        assert_eq!(report.completed, 200);
        let src = &report.chip_stats[0];
        let dst = &report.chip_stats[1];
        assert!(src.handoffs > 0, "generative prefills must migrate");
        assert!(src.handoff_bytes > 0, "payloads are counted in bytes");
        assert!(src.handoff_cycles > 0, "the drain leg busies the source");
        assert!(dst.handoff_cycles > 0, "the fill leg busies the target");
        assert_eq!(dst.handoffs, 0, "the decode specialist never migrates");
        assert_eq!(dst.handoff_bytes, 0);
        for c in &report.completions {
            if c.generated_tokens > 0 {
                assert_eq!(c.chip, 1, "job {} decoded on the prefill specialist", c.id);
            }
        }
        let migrated = report
            .completions
            .iter()
            .filter(|c| c.generated_tokens > 0)
            .count() as u64;
        assert_eq!(src.handoffs, migrated, "one handoff per generative job");
        // Determinism survives migration.
        let again = simulate_fleet(&cfg, &trace);
        assert_eq!(report.completions, again.completions);
        assert_eq!(again.chip_stats[0].handoff_bytes, src.handoff_bytes);
    }

    #[test]
    fn pooled_grids_conserve_and_keep_decode_off_prefill_chips() {
        // The adversarial-routing grid: whatever the router and thief do
        // (hash routing happily targets the decode specialist, stealing
        // pulls from backlogged peers), no decode-phase job ever runs on
        // the prefill specialist, and every request completes exactly
        // once under both KV models.
        let trace = open_trace(150, 2000.0, 109);
        for route in [
            RouteSpec::SharedQueue,
            RouteSpec::FastestChip,
            RouteSpec::ChurnAware,
            RouteSpec::HashAffinity,
            RouteSpec::PoolAware,
        ] {
            for steal in [StealSpec::Off, StealSpec::CostliestFit] {
                for kv in [KvSpec::Contiguous, KvSpec::paged()] {
                    let mut cfg = FleetConfig::new(2, Policy::ContinuousBatching);
                    cfg.pools = Some(PoolSpec::split(1, 1));
                    cfg.sched.route = route;
                    cfg.sched.steal = steal;
                    cfg.sched.kv = kv;
                    let report = simulate_fleet(&cfg, &trace);
                    let tag = format!("{}/{}/{}", route.name(), steal.name(), kv.name());
                    assert_eq!(report.completed, 150, "{tag}");
                    for c in &report.completions {
                        assert!(
                            c.generated_tokens == 0 || c.chip != 0,
                            "{tag}: job {} decoded on the prefill specialist",
                            c.id
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn handoffs_compose_with_preemption_and_paging() {
        // Disaggregation under fire: a two-tier paged chat mix with
        // priority preemption on the decode side. Handoffs, evictions,
        // prefix sharing and pruning-aware reclaim all fire in one run,
        // and the drain ledgers (asserted inside run()) still close.
        let mut spec = TraceSpec::chat(
            ArrivalSpec::OpenPoisson {
                rate_rps: 4000.0,
                requests: 250,
            },
            113,
        );
        spec.classes[0] = spec.classes[0].clone().with_priority(2);
        let trace = spec.generate();
        let mut cfg = FleetConfig::new(3, Policy::Priority);
        cfg.pools = Some(PoolSpec::split(1, 2));
        cfg.sched.route = RouteSpec::PoolAware;
        cfg.sched.preempt = PreemptSpec::Priority;
        cfg.sched.kv = KvSpec::paged();
        let report = simulate_fleet(&cfg, &trace);
        assert_eq!(report.completed, 250, "migration must not lose jobs");
        let handoffs: u64 = report.chip_stats.iter().map(|c| c.handoffs).sum();
        assert!(handoffs > 0, "the chat mix is generative: prefills migrate");
        for chip in &report.chip_stats {
            assert_eq!(chip.kv.blocks_allocated, chip.kv.blocks_freed);
        }
        let again = simulate_fleet(&cfg, &trace);
        assert_eq!(report.completions, again.completions);
    }

    #[test]
    fn slo_rejections_free_capacity_and_are_accounted() {
        let mut spec = TraceSpec::mixed(
            ArrivalSpec::OpenPoisson {
                rate_rps: 4000.0,
                requests: 200,
            },
            31,
        );
        // Tight-but-feasible SLO on the BERT class: under overload some
        // queued jobs become hopeless and are shed.
        spec.classes[0] = spec.classes[0].clone().with_slo(0.002);
        let trace = spec.generate();
        let report = simulate_fleet(&FleetConfig::new(1, Policy::SloAware), &trace);
        assert_eq!(report.completed + report.rejected, 200);
        assert!(report.rejected > 0, "overload should shed something");
        // Rejected ids never completed.
        for r in &report.rejections {
            assert!(report.completions.iter().all(|c| c.id != r.id));
            assert_eq!(r.class, 0, "only the SLO class is shed");
        }
    }

    #[test]
    fn empty_elastic_schedule_is_bit_identical_to_a_fixed_fleet() {
        // The elasticity subsystem must be invisible when the schedule
        // changes nothing: `elastic: None` and an empty `ElasticSpec`
        // produce the same report bit-for-bit — same completions, same
        // makespan, same event count — and every chip is online for the
        // whole run with zero elastic event counters.
        let trace = chat_trace(150, 3000.0, 211);
        let cfg = FleetConfig::new(2, Policy::ContinuousBatching);
        let plain = simulate_fleet(&cfg, &trace);
        let mut elastic = FleetConfig::new(2, Policy::ContinuousBatching);
        elastic.elastic = Some(ElasticSpec::default());
        let scheduled = simulate_fleet(&elastic, &trace);
        assert_eq!(plain.completions, scheduled.completions);
        assert_eq!(plain.makespan_cycles, scheduled.makespan_cycles);
        assert_eq!(plain.sim_events, scheduled.sim_events);
        for chip in &scheduled.chip_stats {
            assert_eq!(chip.elastic.leaves, 0);
            assert_eq!(chip.elastic.joins, 0);
            assert_eq!(chip.elastic.revoked_jobs, 0);
            assert_eq!(chip.elastic.weight_load_cycles, 0);
            assert!(chip.elastic.online_cycles > 0, "chips are always online");
        }
    }

    #[test]
    fn drained_chip_finishes_residents_and_departs() {
        use crate::elastic::{ChipLeave, FleetEvents, LeaveMode};
        let trace = open_trace(200, 2000.0, 223);
        let mut cfg = FleetConfig::new(2, Policy::ContinuousBatching);
        cfg.sched.route = RouteSpec::FastestChip;
        cfg.elastic = Some(ElasticSpec {
            events: FleetEvents {
                leaves: vec![ChipLeave {
                    chip: 1,
                    at_ns: 30_000_000,
                    mode: LeaveMode::Drain,
                }],
                joins: Vec::new(),
            },
            ..ElasticSpec::default()
        });
        let report = simulate_fleet(&cfg, &trace);
        // Nothing is lost: a drain hands queued work back, residents
        // finish in place, and nothing is ever preempted for it.
        assert_eq!(report.completed, 200);
        let left = &report.chip_stats[1].elastic;
        assert_eq!(left.leaves, 1, "the drain completed");
        assert_eq!(left.revoked_jobs, 0, "a drain revokes nothing");
        assert!(report.completions.iter().all(|c| !c.revoked));
        // The survivor stays online for the whole run, the drained chip
        // departs early.
        let stayed = &report.chip_stats[0].elastic;
        assert_eq!(stayed.leaves, 0);
        assert!(left.online_cycles < stayed.online_cycles);
        // Determinism survives the departure.
        let again = simulate_fleet(&cfg, &trace);
        assert_eq!(report.completions, again.completions);
    }

    #[test]
    fn revocation_requeues_residents_and_loses_no_tokens() {
        use crate::elastic::{ChipLeave, FleetEvents, LeaveMode};
        let trace = open_trace(200, 3000.0, 227);
        let mut faulted = FleetConfig::new(3, Policy::ContinuousBatching);
        faulted.sched.route = RouteSpec::FastestChip;
        faulted.elastic = Some(ElasticSpec {
            events: FleetEvents {
                leaves: vec![ChipLeave {
                    chip: 2,
                    at_ns: 20_000_000,
                    mode: LeaveMode::Revoke {
                        grace_ns: 1_000_000,
                    },
                }],
                joins: Vec::new(),
            },
            ..ElasticSpec::default()
        });
        let report = simulate_fleet(&faulted, &trace);
        assert_eq!(report.completed, 200, "revocation must not lose jobs");
        let revoked = &report.chip_stats[2].elastic;
        assert_eq!(revoked.leaves, 1);
        assert!(
            revoked.revoked_jobs > 0,
            "under this load the chip holds work at the cutoff"
        );
        // Revoked jobs finish elsewhere; their generated work survives.
        let displaced: Vec<_> = report.completions.iter().filter(|c| c.revoked).collect();
        assert!(!displaced.is_empty());
        for c in &displaced {
            assert_ne!(c.chip, 2, "job {} completed on the revoked chip", c.id);
        }
        // Conservation against the fault-free twin: every job the fault
        // never touched produces the identical token vector.
        let mut twin_cfg = FleetConfig::new(3, Policy::ContinuousBatching);
        twin_cfg.sched.route = RouteSpec::FastestChip;
        let twin = simulate_fleet(&twin_cfg, &trace);
        for c in report.completions.iter().filter(|c| !c.revoked) {
            let t = twin
                .completions
                .iter()
                .find(|t| t.id == c.id)
                .expect("twin completed every job");
            assert_eq!(c.generated_tokens, t.generated_tokens, "job {}", c.id);
            assert_eq!(c.prefill_tokens, t.prefill_tokens, "job {}", c.id);
        }
    }

    #[test]
    fn scheduled_join_prices_the_weight_load_and_takes_work() {
        use crate::elastic::{ChipJoin, FleetEvents};
        // One chip starts alone under heavy load; a second joins early
        // and must pay its model-load delay before taking anything.
        let trace = open_trace(300, 6000.0, 229);
        let mut cfg = FleetConfig::new(1, Policy::ContinuousBatching);
        cfg.sched.route = RouteSpec::FastestChip;
        cfg.sched.steal = StealSpec::CostliestFit;
        cfg.elastic = Some(ElasticSpec {
            events: FleetEvents {
                leaves: Vec::new(),
                joins: vec![ChipJoin {
                    chip_config: SpAttenConfig::default(),
                    at_ns: 10_000,
                }],
            },
            ..ElasticSpec::default()
        });
        let report = simulate_fleet(&cfg, &trace);
        assert_eq!(report.completed, 300);
        assert_eq!(report.chips, 2, "the join extended the roster");
        let joined = &report.chip_stats[1].elastic;
        assert_eq!(joined.joins, 1);
        assert!(
            joined.weight_load_cycles > 0,
            "a cold chip streams its weights in"
        );
        let took: usize = report.completions.iter().filter(|c| c.chip == 1).count();
        assert!(took > 0, "the joined chip relieves the backlog");
        // The joined chip was cold at t=0: its online time excludes the
        // join delay, so it is strictly shorter than the founder's.
        assert!(joined.online_cycles < report.chip_stats[0].elastic.online_cycles);
    }

    #[test]
    fn autoscaler_brings_up_reserve_under_pressure_and_it_drains_when_idle() {
        use crate::elastic::AutoscaleSpec;
        // One base chip, two reserve chips, a hot open stream: the
        // threshold policy must bring reserve capacity up, and the run
        // still drains (the tick stops rearming once work is gone).
        let trace = open_trace(400, 8000.0, 233);
        let mut cfg = FleetConfig::new(1, Policy::ContinuousBatching);
        cfg.sched.route = RouteSpec::FastestChip;
        cfg.sched.steal = StealSpec::CostliestFit;
        cfg.elastic = Some(ElasticSpec {
            reserve: vec![SpAttenConfig::default(); 2],
            autoscale: Some(AutoscaleSpec {
                window_ns: 20_000,
                ..AutoscaleSpec::default()
            }),
            ..ElasticSpec::default()
        });
        let report = simulate_fleet(&cfg, &trace);
        assert_eq!(report.completed, 400);
        let ups: u64 = report.chip_stats[1..].iter().map(|c| c.elastic.joins).sum();
        assert!(ups > 0, "the backlog must trip the scale-up threshold");
        let reserve_work: usize = report.completions.iter().filter(|c| c.chip > 0).count();
        assert!(reserve_work > 0, "scaled-up capacity must do real work");
        // Deterministic, like everything else in the loop.
        let again = simulate_fleet(&cfg, &trace);
        assert_eq!(report.completions, again.completions);
    }

    #[test]
    fn parallel_rounds_reproduce_faulted_runs_across_thread_counts() {
        use crate::elastic::{ChipLeave, FleetEvents, LeaveMode};
        use crate::scheduler::SimMode;
        // The deterministic pre-warm contract survives elasticity: for a
        // faulted schedule, every thread count produces the serial
        // report bit-for-bit.
        let trace = chat_trace(150, 4000.0, 239);
        let schedule = FleetEvents {
            leaves: vec![
                ChipLeave {
                    chip: 1,
                    at_ns: 10_000_000,
                    mode: LeaveMode::Revoke {
                        grace_ns: 1_000_000,
                    },
                },
                ChipLeave {
                    chip: 2,
                    at_ns: 20_000_000,
                    mode: LeaveMode::Drain,
                },
            ],
            joins: Vec::new(),
        };
        let build = |mode: SimMode| {
            let mut cfg = FleetConfig::new(3, Policy::ContinuousBatching);
            cfg.sched.route = RouteSpec::FastestChip;
            cfg.sched.mode = mode;
            cfg.elastic = Some(ElasticSpec {
                events: schedule.clone(),
                ..ElasticSpec::default()
            });
            cfg
        };
        let serial = simulate_fleet(&build(SimMode::Serial), &trace);
        assert!(serial.completions.iter().any(|c| c.revoked));
        for threads in 2..9 {
            let parallel = simulate_fleet(&build(SimMode::ParallelRounds { threads }), &trace);
            assert_eq!(
                serial.completions, parallel.completions,
                "{threads} threads"
            );
            assert_eq!(serial.makespan_cycles, parallel.makespan_cycles);
            assert_eq!(serial.sim_events, parallel.sim_events);
            let busy: Vec<u64> = serial.chip_stats.iter().map(|c| c.busy_cycles).collect();
            let busy_p: Vec<u64> = parallel.chip_stats.iter().map(|c| c.busy_cycles).collect();
            assert_eq!(busy, busy_p, "{threads} threads");
        }
    }

    #[test]
    fn multi_model_placement_pays_the_swap_price_once_per_switch() {
        use spatten_nn::ModelKind;
        // Model tracking on a single-model trace with matching tags: no
        // swap ever fires, and the run is bit-identical to tracking off.
        // (The mixed trace carries two models — BERT and GPT-2 classes —
        // so a single-model decode trace is used here.)
        let trace = TraceSpec::gpt2_decode(
            ArrivalSpec::OpenPoisson {
                rate_rps: 1500.0,
                requests: 100,
            },
            241,
        )
        .generate();
        let model = match &trace {
            Trace::Open { requests } => requests[0].workload.model,
            Trace::Closed { .. } => unreachable!(),
        };
        let mut tagged = FleetConfig::new(2, Policy::ContinuousBatching);
        tagged.elastic = Some(ElasticSpec {
            models: Some(vec![model; 2]),
            ..ElasticSpec::default()
        });
        let matched = simulate_fleet(&tagged, &trace);
        let plain = simulate_fleet(&FleetConfig::new(2, Policy::ContinuousBatching), &trace);
        assert_eq!(matched.completions, plain.completions);
        for chip in &matched.chip_stats {
            assert_eq!(
                chip.elastic.model_swaps, 0,
                "resident model already matches"
            );
        }
        // Cold tags (a different resident model) pay exactly one weight
        // load per chip that serves work, then stay retagged.
        let mut cold = FleetConfig::new(2, Policy::ContinuousBatching);
        let mut other = model;
        other.kind = match model.kind {
            ModelKind::Gpt2 => ModelKind::Bert,
            ModelKind::Bert => ModelKind::Gpt2,
        };
        cold.elastic = Some(ElasticSpec {
            models: Some(vec![other; 2]),
            ..ElasticSpec::default()
        });
        let swapped = simulate_fleet(&cold, &trace);
        assert_eq!(swapped.completed, 100);
        for chip in &swapped.chip_stats {
            let served = swapped.completions.iter().any(|c| c.chip == chip.id);
            if served {
                assert_eq!(chip.elastic.model_swaps, 1, "chip {}", chip.id);
                assert!(chip.elastic.weight_load_cycles > 0);
            }
        }
        // The swap delay is real: busier chips, later makespan.
        assert!(swapped.makespan_cycles >= matched.makespan_cycles);
    }
}
