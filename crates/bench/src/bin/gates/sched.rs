//! `sched`: every scheduling policy through the one generic event loop on
//! a single chip and a planner-placed cluster, then the mixed-fleet
//! preemption × priority × routing × stealing grids, the paged-KV grid,
//! the disaggregation load ladder, the elasticity grid, and the step-API
//! replays. Every run records the `SchedKnobs` and trace seed it used, so
//! any row is reproducible from the report alone.

use crate::{closed_loop, conserved, per_sec, replay_trace, Args, Gate, Op, Suite};
use spatten_cluster::{ClusterConfig, ShardStrategy};
use spatten_core::SpAttenConfig;
use spatten_serve::json::{array, JsonObject};
use spatten_serve::{
    fleet_engine, simulate_fleet, AutoscaleSpec, ChipStats, ElasticSpec, FleetConfig, FleetEvents,
    FleetReport, KvSpec, KvStats, LeaveMode, Policy, PoolSpec, PreemptSpec, RouteSpec, SchedKnobs,
    StealSpec,
};
use spatten_workloads::fleet::{FleetSpec, LinkSpec, PoolRole, TopologySpec};
use spatten_workloads::{ArrivalSpec, Benchmark, Trace, TraceSpec};

/// The two sides of every sched gate.
#[derive(Default)]
pub struct Measured {
    pub requests: usize,
    pub cb_tbt_p99: f64,
    pub dp_tbt_p99: f64,
    pub cb_high_p99: f64,
    pub preempt_high_p99: f64,
    pub preemptions: u64,
    pub shared_p99: f64,
    pub fastest_p99: f64,
    pub sat_shared_p99: f64,
    pub sat_fastest_p99: f64,
    pub steal_recovery: f64,
    pub sat_steals: u64,
    pub contig_occupancy: f64,
    pub paged_occupancy: f64,
    pub contig_p99: f64,
    pub paged_p99: f64,
    pub contig_goodput: f64,
    pub paged_goodput: f64,
    pub shared_hits: u64,
    pub best_colo_tbt_p99: f64,
    pub disagg_tbt_p99: f64,
    pub handoffs: u64,
    pub pruned_bytes: u64,
    pub unpruned_bytes: u64,
    pub inversion: bool,
    pub under_goodput: f64,
    pub auto_goodput: f64,
    pub over_cost: u64,
    pub auto_cost: u64,
    pub bring_ups: u64,
    pub fault_completed: usize,
    pub revoked: usize,
    pub untouched_diverged: usize,
    pub flex_identical: bool,
    pub flex_handoff_bytes: u64,
    pub empty_elastic_identical: bool,
    pub step_api_identical: [bool; 3],
}

/// Sched's gates. The tbt, high-priority, routing and inversion claims
/// need full-size traces for a stable p99; the rest run in `--smoke` too
/// (p99s with tiny-trace slack), because means, cycle and byte counters
/// and token identities are stable at any trace size.
pub fn gates(m: &Measured, smoke: bool) -> Vec<Gate> {
    use Op::{Eq, Ge, Gt, Le, Lt};
    let slack = if smoke { 1.10 } else { 1.0 };
    let steal_floor = if smoke { 1.2 } else { 1.5 };
    let one = |b: bool| f64::from(u8::from(b));
    let n = |c: u64| c as f64;
    let mut gates = Vec::new();
    if !smoke {
        gates.extend([
            Gate::new("sched.dp_tbt_p99_beats_cb", m.dp_tbt_p99, Lt, m.cb_tbt_p99),
            Gate::new(
                "sched.preempt_high_p99_beats_cb",
                m.preempt_high_p99,
                Lt,
                m.cb_high_p99,
            ),
            Gate::new("sched.contention_preempts", n(m.preemptions), Gt, 0.0),
            Gate::new(
                "sched.fastest_p99_beats_shared",
                m.fastest_p99,
                Lt,
                m.shared_p99,
            ),
        ]);
    }
    gates.extend([
        Gate::new(
            "sched.saturation_fastest_p99",
            m.sat_fastest_p99,
            Le,
            m.sat_shared_p99 * slack,
        ),
        Gate::new("sched.steal_recovery", m.steal_recovery, Ge, steal_floor),
        Gate::new("sched.saturation_steals", n(m.sat_steals), Gt, 0.0),
        Gate::new(
            "sched.paged_occupancy",
            m.paged_occupancy,
            Gt,
            m.contig_occupancy,
        ),
        Gate::new("sched.paged_p99", m.paged_p99, Lt, m.contig_p99 * slack),
        Gate::new("sched.paged_goodput", m.paged_goodput, Gt, m.contig_goodput),
        Gate::new("sched.paged_shared_hits", n(m.shared_hits), Gt, 0.0),
        Gate::new(
            "sched.disagg_tbt_p99",
            m.disagg_tbt_p99,
            Lt,
            m.best_colo_tbt_p99 * slack,
        ),
        Gate::new("sched.disagg_handoffs", n(m.handoffs), Gt, 0.0),
        Gate::new(
            "sched.pruned_handoff_bytes",
            n(m.pruned_bytes),
            Lt,
            n(m.unpruned_bytes),
        ),
    ]);
    if !smoke {
        gates.push(Gate::new(
            "sched.colocation_inversion",
            one(m.inversion),
            Eq,
            1.0,
        ));
    }
    gates.extend([
        Gate::new(
            "sched.autoscale_goodput",
            m.auto_goodput,
            Gt,
            m.under_goodput,
        ),
        Gate::new(
            "sched.autoscale_online_cost",
            n(m.auto_cost),
            Lt,
            n(m.over_cost),
        ),
        Gate::new("sched.autoscale_bring_ups", n(m.bring_ups), Gt, 0.0),
        Gate::new(
            "sched.revocation_completed",
            m.fault_completed as f64,
            Eq,
            m.requests as f64,
        ),
        Gate::new("sched.revocation_displaces", m.revoked as f64, Gt, 0.0),
        Gate::new(
            "sched.revocation_untouched_diverged",
            m.untouched_diverged as f64,
            Eq,
            0.0,
        ),
        Gate::new("sched.flex_pools_identical", one(m.flex_identical), Eq, 1.0),
        Gate::new(
            "sched.flex_pools_handoff_bytes",
            n(m.flex_handoff_bytes),
            Eq,
            0.0,
        ),
        Gate::new(
            "sched.empty_elastic_identical",
            one(m.empty_elastic_identical),
            Eq,
            1.0,
        ),
        Gate::new(
            "sched.step_api_disagg",
            one(m.step_api_identical[0]),
            Eq,
            1.0,
        ),
        Gate::new(
            "sched.step_api_autoscale",
            one(m.step_api_identical[1]),
            Eq,
            1.0,
        ),
        Gate::new(
            "sched.step_api_revocation",
            one(m.step_api_identical[2]),
            Eq,
            1.0,
        ),
    ]);
    gates
}

/// The SLO-tagged mixed request classes: interactive summarization under
/// a tight deadline, generation under a loose one. Best-effort traffic
/// would make the SLO-aware policy a no-op, so every class carries one.
fn slo_spec(arrival: ArrivalSpec, seed: u64) -> TraceSpec {
    let mut spec = TraceSpec::mixed(arrival, seed);
    spec.classes[0] = spec.classes[0].clone().with_slo(0.030);
    spec.classes[1] = spec.classes[1].clone().with_slo(0.300);
    spec
}

/// One fleet under test: either a bare chip or a planner-placed cluster.
enum Fleet {
    SingleChip,
    /// Planner-placed 2-way tensor-parallel groups carved from a mixed
    /// (full + 1/8-scale) fleet — heaviest shards on the fastest silicon.
    /// Boxed: a `ClusterConfig` dwarfs the dataless variant.
    Cluster(Box<ClusterConfig>),
}

impl Fleet {
    fn name(&self) -> &'static str {
        match self {
            Fleet::SingleChip => "single-chip",
            Fleet::Cluster(_) => "planner-placed-cluster",
        }
    }

    fn simulate(&self, policy: Policy, trace: &Trace) -> FleetReport {
        match self {
            Fleet::SingleChip => simulate_fleet(&FleetConfig::new(1, policy), trace),
            Fleet::Cluster(cfg) => {
                let mut cfg = cfg.clone();
                cfg.policy = policy;
                spatten_cluster::simulate_cluster(&cfg, trace)
            }
        }
    }
}

/// Serializes the knobs a run used — the report alone reproduces the run.
fn knobs_json(k: &SchedKnobs) -> String {
    JsonObject::new()
        .u64("prefill_chunk_cycles", k.prefill_chunk_cycles)
        .u64("prefill_budget_cycles", k.prefill_budget_cycles)
        .u64("max_skip", u64::from(k.max_skip))
        .str("route", k.route.name())
        .str("steal", k.steal.name())
        .str("preempt", k.preempt.name())
        .u64("max_preemptions", u64::from(k.max_preemptions))
        .str("kv", k.kv.name())
        .build()
}

fn policy_json(r: &FleetReport) -> String {
    JsonObject::new()
        .str("policy", &r.policy)
        .u64("completed", r.completed as u64)
        .u64("rejected", r.rejected as u64)
        .u64("slo_violations", r.slo_violations as u64)
        .f64("throughput_rps", r.throughput_rps)
        .f64("goodput_rps", r.goodput_rps)
        .f64("p99_s", r.latency.p99)
        .f64("ttft_p99_s", r.ttft.p99)
        .f64("tbt_p99_s", r.tbt.p99)
        .f64("mean_batch_occupancy", r.mean_occupancy())
        .u64("sim_events", r.sim_events)
        .build()
}

struct Scenario {
    fleet: &'static str,
    arrival: &'static str,
    offered_rps: f64,
    seed: u64,
    reports: Vec<FleetReport>,
}

fn sweep(
    fleet: &Fleet,
    arrival_name: &'static str,
    trace: &Trace,
    offered_rps: f64,
    seed: u64,
) -> Scenario {
    eprintln!(
        "\n{} / {} arrivals: {} requests at {:.0} req/s offered",
        fleet.name(),
        arrival_name,
        trace.len(),
        offered_rps
    );
    let mut reports = Vec::new();
    for policy in Policy::ALL {
        let r = conserved(policy.name(), trace, true, fleet.simulate(policy, trace));
        eprintln!(
            "{:<20} p99 {:>9.3} ms   tbt p99 {:>7.4} ms   goodput {:>6.0} req/s   \
             viol {:>4}   shed {:>4}",
            r.policy,
            r.latency.p99 * 1e3,
            r.tbt.p99 * 1e3,
            r.goodput_rps,
            r.slo_violations,
            r.rejected
        );
        reports.push(r);
    }
    Scenario {
        fleet: fleet.name(),
        arrival: arrival_name,
        offered_rps,
        seed,
        reports,
    }
}

/// One cell of a mixed-fleet preemption × priority × routing × stealing
/// sweep.
struct GridRun {
    policy: Policy,
    knobs: SchedKnobs,
    report: FleetReport,
}

impl GridRun {
    fn label(&self) -> String {
        let k = &self.knobs;
        let mut label = format!(
            "{}+{}+{}",
            self.policy.name(),
            k.route.name(),
            k.preempt.name()
        );
        if k.steal != StealSpec::Off {
            label.push_str("+steal");
        }
        label
    }

    /// End-to-end p99 of the high-priority class (class 0 in the tiered
    /// spec).
    fn high_priority_p99(&self) -> f64 {
        self.report.class_stats[0].latency.p99
    }

    /// Jobs stolen across the fleet.
    fn steals(&self) -> u64 {
        chip_sum(&self.report, |c| c.steals)
    }
}

/// `f` summed over every chip of `report`.
fn chip_sum(report: &FleetReport, f: impl Fn(&ChipStats) -> u64) -> u64 {
    report.chip_stats.iter().map(f).sum()
}

/// Runs one (policy, route, preempt, steal) grid over the same trace and
/// fleet; the runs come back in `cells` order.
fn grid_sweep<const N: usize>(
    label: &str,
    chips: &[SpAttenConfig],
    cells: [(Policy, RouteSpec, PreemptSpec, StealSpec); N],
    trace: &Trace,
    offered_rps: f64,
) -> [GridRun; N] {
    eprintln!(
        "\nmixed-fleet {label} (2 full + 2 eighth chips): {} requests at {:.0} req/s offered",
        trace.len(),
        offered_rps
    );
    cells.map(|(policy, route, preempt, steal)| {
        let mut cfg = FleetConfig::with_chips(chips.to_vec(), policy);
        cfg.sched.route = route;
        cfg.sched.preempt = preempt;
        cfg.sched.steal = steal;
        let report = conserved(policy.name(), trace, true, simulate_fleet(&cfg, trace));
        let run = GridRun {
            policy,
            knobs: cfg.sched,
            report,
        };
        eprintln!(
            "{:<45} p99 {:>9.3} ms   hi-pri p99 {:>9.3} ms   preempt {:>4}   steals {:>4}   \
             goodput {:>5.0} req/s",
            run.label(),
            run.report.latency.p99 * 1e3,
            run.high_priority_p99() * 1e3,
            run.report.preemptions,
            run.steals(),
            run.report.goodput_rps
        );
        run
    })
}

/// Sched's fleets: a bare chip, and planner-placed 2-way tensor-parallel
/// groups carved from a mixed (full + 1/8-scale) fleet.
fn fleets() -> [Fleet; 2] {
    let w = Benchmark::gpt2_small_wikitext2().workload();
    [
        Fleet::SingleChip,
        Fleet::Cluster(Box::new(
            ClusterConfig::carve(
                &FleetSpec::mixed(2, 2),
                &ShardStrategy::tensor(2),
                &w,
                Policy::ContinuousBatching,
            )
            .expect("mixed fleet hosts two 2-way groups"),
        )),
    ]
}

fn scenarios_json(scenarios: &[Scenario]) -> String {
    array(scenarios.iter().map(|s| {
        JsonObject::new()
            .str("fleet", s.fleet)
            .str("arrival", s.arrival)
            .f64("offered_rps", s.offered_rps)
            .u64("seed", s.seed)
            .raw("sched_knobs", &knobs_json(&SchedKnobs::default()))
            .raw("policies", &array(s.reports.iter().map(policy_json)))
            .build()
    }))
}

/// Replay mode: every policy over the recorded log on each fleet, and no
/// gate — the synthetic grids assume trace mixes a production log does
/// not promise.
fn replay(path: &str, seed: u64) -> Suite {
    let wall = std::time::Instant::now();
    let (trace, rate) = replay_trace(path, slo_spec, seed);
    let scenarios: Vec<Scenario> = fleets()
        .iter()
        .map(|fleet| sweep(fleet, "replay", &trace, rate, seed))
        .collect();
    let json = JsonObject::new()
        .str("benchmark", "spatten-serve scheduling-policy comparison")
        .str("replay", path)
        .u64("requests", trace.len() as u64)
        .f64("recorded_rps", rate)
        .f64("wall_s", wall.elapsed().as_secs_f64())
        .raw("scenarios", &scenarios_json(&scenarios))
        .build();
    Suite {
        json,
        gates: Vec::new(),
        files: Vec::new(),
    }
}

pub fn run(args: &Args) -> Suite {
    let seed = args.seed.unwrap_or(20260726);
    if let Some(path) = &args.replay {
        return replay(path, seed);
    }
    let wall = std::time::Instant::now();
    let requests = args.requests(900, 90);
    let rate_frac = args.rate_frac.unwrap_or(0.95);
    let fleets = fleets();

    let mut scenarios: Vec<Scenario> = Vec::new();
    for fleet in &fleets {
        // Capacity probe: closed loop, saturating, continuous batching.
        let probe_trace = closed_loop(TraceSpec::mixed, 32, 256, seed);
        let capacity_rps = fleet
            .simulate(Policy::ContinuousBatching, &probe_trace)
            .throughput_rps;
        eprintln!(
            "{}: capacity probe sustains {:.0} req/s",
            fleet.name(),
            capacity_rps
        );
        let rate = capacity_rps * rate_frac;

        let poisson = slo_spec(
            ArrivalSpec::OpenPoisson {
                rate_rps: rate,
                requests,
            },
            seed,
        )
        .generate();
        scenarios.push(sweep(fleet, "poisson", &poisson, rate, seed));

        // MMPP at the same average offered load: calm at half the rate,
        // bursts at 4x, dwell-weighted back to `rate` on average.
        let mmpp = slo_spec(
            ArrivalSpec::OpenMmpp {
                calm_rps: rate * 0.5,
                burst_rps: rate * 4.0,
                mean_calm_s: 0.3,
                mean_burst_s: 0.05,
                requests,
            },
            seed ^ 0xBEEF,
        )
        .generate();
        scenarios.push(sweep(fleet, "mmpp", &mmpp, rate, seed ^ 0xBEEF));
    }

    // Mixed-fleet preemption × priority × routing grids: a two-tier
    // trace (interactive traffic at priority 2 over the batch tier) on
    // 2 full + 2 eighth-scale chips, at two load points.
    //
    // *Placement band* (~70 % of probed shared-queue capacity): chips are
    // loaded but queues stay finite, so where a job lands decides its
    // tail — the routing regime. *Contention band* (2× capacity,
    // batch-heavy 25/75 mix): every chip stays packed with long
    // low-priority generations, so whether an interactive arrival can
    // jump the queue and displace a resident decides its tail — the
    // priority + preemption regime. Past saturation placement stops
    // mattering (every queue grows without bound), which is exactly why
    // the two claims need two load points.
    let mixed_chips = vec![
        SpAttenConfig::default(),
        SpAttenConfig::default(),
        SpAttenConfig::eighth(),
        SpAttenConfig::eighth(),
    ];
    let probe_trace = closed_loop(TraceSpec::mixed, 32, 256.min(requests), seed);
    let mixed_capacity = simulate_fleet(
        &FleetConfig::with_chips(mixed_chips.clone(), Policy::ContinuousBatching),
        &probe_trace,
    )
    .throughput_rps;
    eprintln!("\nmixed fleet: capacity probe sustains {mixed_capacity:.0} req/s");
    let grid_rate = mixed_capacity * rate_frac * 0.7;
    let grid_seed = seed ^ 0xD00D;
    let mut tiered = slo_spec(
        ArrivalSpec::OpenPoisson {
            rate_rps: grid_rate,
            requests,
        },
        grid_seed,
    );
    tiered.classes[0] = tiered.classes[0].clone().with_priority(2);
    let grid = grid_sweep(
        "routing grid (placement band)",
        &mixed_chips,
        [
            (
                Policy::ContinuousBatching,
                RouteSpec::SharedQueue,
                PreemptSpec::None,
                StealSpec::Off,
            ),
            (
                Policy::ContinuousBatching,
                RouteSpec::FastestChip,
                PreemptSpec::None,
                StealSpec::Off,
            ),
            (
                Policy::ContinuousBatching,
                RouteSpec::LeastKvLoaded,
                PreemptSpec::None,
                StealSpec::Off,
            ),
            (
                Policy::ContinuousBatching,
                RouteSpec::HashAffinity,
                PreemptSpec::None,
                StealSpec::Off,
            ),
            (
                Policy::Priority,
                RouteSpec::SharedQueue,
                PreemptSpec::None,
                StealSpec::Off,
            ),
            (
                Policy::Priority,
                RouteSpec::SharedQueue,
                PreemptSpec::Priority,
                StealSpec::Off,
            ),
            (
                Policy::Priority,
                RouteSpec::FastestChip,
                PreemptSpec::Priority,
                StealSpec::Off,
            ),
        ],
        &tiered.generate(),
        grid_rate,
    );

    let burst_rate = mixed_capacity * 2.0;
    let burst_seed = seed ^ 0xF1EE;
    let mut contended = slo_spec(
        ArrivalSpec::OpenPoisson {
            rate_rps: burst_rate,
            requests,
        },
        burst_seed,
    );
    contended.classes[0] = contended.classes[0].clone().with_priority(2);
    contended.classes[0].weight = 0.25;
    contended.classes[1].weight = 0.75;
    let burst_grid = grid_sweep(
        "preemption grid (contention band)",
        &mixed_chips,
        [
            (
                Policy::ContinuousBatching,
                RouteSpec::SharedQueue,
                PreemptSpec::None,
                StealSpec::Off,
            ),
            (
                Policy::Priority,
                RouteSpec::SharedQueue,
                PreemptSpec::None,
                StealSpec::Off,
            ),
            (
                Policy::Priority,
                RouteSpec::SharedQueue,
                PreemptSpec::Priority,
                StealSpec::Off,
            ),
            (
                Policy::Priority,
                RouteSpec::FastestChip,
                PreemptSpec::Priority,
                StealSpec::Off,
            ),
            (
                Policy::Priority,
                RouteSpec::ChurnAware,
                PreemptSpec::Priority,
                StealSpec::Off,
            ),
        ],
        &contended.generate(),
        burst_rate,
    );

    // Saturation band: 1.5× probed capacity, uniform priorities — the
    // regime where a queued-only backlog estimate went blind and
    // fastest-chip routing *lost* to the shared queue. Two claims are
    // pinned here: (1) the in-service-aware estimator keeps fixed routing
    // at least even with the work-conserving shared queue, and (2)
    // work-stealing recovers most of the tail that deliberately
    // adversarial hash-affinity routing gives away. Both are enforced
    // even in --smoke (with slack — tiny-trace p99 is a near-max
    // statistic) so the regression this grid exists for can never
    // silently return.
    let sat_rate = mixed_capacity * 1.5;
    let sat_seed = seed ^ 0x5A77;
    let saturated = slo_spec(
        ArrivalSpec::OpenPoisson {
            rate_rps: sat_rate,
            requests,
        },
        sat_seed,
    );
    let sat_grid = grid_sweep(
        "saturation grid (1.5x capacity)",
        &mixed_chips,
        [
            (
                Policy::ContinuousBatching,
                RouteSpec::SharedQueue,
                PreemptSpec::None,
                StealSpec::Off,
            ),
            (
                Policy::ContinuousBatching,
                RouteSpec::FastestChip,
                PreemptSpec::None,
                StealSpec::Off,
            ),
            (
                Policy::ContinuousBatching,
                RouteSpec::FastestChip,
                PreemptSpec::None,
                StealSpec::CostliestFit,
            ),
            (
                Policy::ContinuousBatching,
                RouteSpec::FastestStealAware,
                PreemptSpec::None,
                StealSpec::CostliestFit,
            ),
            (
                Policy::ContinuousBatching,
                RouteSpec::LeastKvLoaded,
                PreemptSpec::None,
                StealSpec::Off,
            ),
            (
                Policy::ContinuousBatching,
                RouteSpec::HashAffinity,
                PreemptSpec::None,
                StealSpec::Off,
            ),
            (
                Policy::ContinuousBatching,
                RouteSpec::HashAffinity,
                PreemptSpec::None,
                StealSpec::CostliestFit,
            ),
        ],
        &saturated.generate(),
        sat_rate,
    );

    // Paged-KV grid: the high-prefix-reuse chat mix (each class opens
    // with a shared system prefix covering >= 50 % of the prompt) on two
    // full chips with the batch-slot cap lifted, so KV capacity is the
    // binding admission constraint. Paged allocation with copy-on-write
    // prefix sharing charges the prefix pages once per class; contiguous
    // reservation charges every job its full footprint. Equal
    // `kv_sram_bytes` on both sides — the win is purely allocator
    // policy, not provisioning.
    let kv_chips = vec![SpAttenConfig::default(), SpAttenConfig::default()];
    let kv_fleet = |kv: KvSpec| {
        let mut cfg = FleetConfig::with_chips(kv_chips.clone(), Policy::ContinuousBatching);
        cfg.max_batch = 64;
        cfg.sched.kv = kv;
        cfg
    };
    let chat_slo = |arrival: ArrivalSpec, seed: u64| {
        let mut spec = TraceSpec::chat(arrival, seed);
        spec.classes[0] = spec.classes[0].clone().with_slo(0.050);
        spec.classes[1] = spec.classes[1].clone().with_slo(0.500);
        spec
    };
    let kv_probe = closed_loop(chat_slo, 64, 256.min(requests.max(64)), seed);
    let chat_capacity = simulate_fleet(&kv_fleet(KvSpec::Contiguous), &kv_probe).throughput_rps;
    eprintln!("\npaged-KV chat fleet: capacity probe sustains {chat_capacity:.0} req/s");
    struct KvRun {
        knobs: SchedKnobs,
        report: FleetReport,
    }
    impl KvRun {
        fn kv_counter(&self, f: impl Fn(&KvStats) -> u64) -> u64 {
            chip_sum(&self.report, |c| f(&c.kv))
        }
    }
    let kv_bands: Vec<(&'static str, f64, u64, Vec<KvRun>)> = [
        (
            "placement-band",
            chat_capacity * rate_frac * 0.7,
            seed ^ 0xFACE,
        ),
        // 3× the *contiguous* probe: warm-prefix prefill skipping lets
        // the paged allocator sustain ~2.4× the contiguous throughput on
        // this mix, so the band must clear that for both sides to
        // saturate — the regime where the occupancy and drain-rate wins
        // show together.
        ("saturation-band", chat_capacity * 3.0, seed ^ 0xFEED),
    ]
    .into_iter()
    .map(|(band, rate, seed)| {
        let trace = chat_slo(
            ArrivalSpec::OpenPoisson {
                rate_rps: rate,
                requests,
            },
            seed,
        )
        .generate();
        eprintln!(
            "\npaged-KV grid ({band}, chat mix): {} requests at {rate:.0} req/s offered",
            trace.len()
        );
        let runs: Vec<KvRun> = [KvSpec::Contiguous, KvSpec::paged()]
            .into_iter()
            .map(|kv| {
                let cfg = kv_fleet(kv);
                let report = conserved(kv.name(), &trace, true, simulate_fleet(&cfg, &trace));
                let run = KvRun {
                    knobs: cfg.sched,
                    report,
                };
                eprintln!(
                    "{:<12} p99 {:>9.3} ms   occupancy {:>6.2}   goodput {:>6.0} req/s   \
                     shared hits {:>5}   reclaimed {:>5}",
                    run.knobs.kv.name(),
                    run.report.latency.p99 * 1e3,
                    run.report.mean_occupancy(),
                    run.report.goodput_rps,
                    run.kv_counter(|k| k.shared_hits),
                    run.kv_counter(|k| k.blocks_reclaimed),
                );
                run
            })
            .collect();
        (band, rate, seed, runs)
    })
    .collect();
    let kv_sat = &kv_bands.last().expect("bands simulated").3;
    let (kv_contig, kv_paged) = (&kv_sat[0], &kv_sat[1]);

    // Disaggregation grid: the long-prefill/short-decode chat mix
    // (prompts ~10× the generations, long shared system prefixes) on
    // four full chips, paged KV on both sides. Co-located serving runs
    // each job end-to-end wherever it lands, so every resident decode
    // stream pays its time-between-tokens tail to other jobs' prompt
    // passes — the strongest co-located baselines (decode-prioritized
    // batching, fastest-chip routing) only cap that interference.
    // Disaggregation (2 prefill specialists feeding 2 decode
    // specialists) removes it: decode chips run nothing but decode
    // steps, and each job migrates once, paying the priced KV handoff
    // (unique dirty blocks of the pruned survivor set; warm shared
    // prefix blocks ride free). The load ladder exposes the crossover:
    // at light load there is no interference to remove, so the handoff
    // tax and the halved prefill capacity let co-location win
    // end-to-end — the inversion point the JSON records.
    let disagg_chips = vec![SpAttenConfig::default(); 4];
    let disagg_cfg = |policy: Policy, route: RouteSpec, pools: Option<PoolSpec>| {
        let mut cfg = FleetConfig::with_chips(disagg_chips.clone(), policy);
        cfg.max_batch = 64;
        cfg.sched.kv = KvSpec::paged();
        cfg.sched.route = route;
        cfg.pools = pools;
        cfg
    };
    let split_cfg = disagg_cfg(
        Policy::ContinuousBatching,
        RouteSpec::PoolAware,
        Some(PoolSpec::split(2, 2)),
    );
    let disagg_probe = closed_loop(TraceSpec::disagg_chat, 64, 256.min(requests.max(64)), seed);
    let disagg_capacity = simulate_fleet(
        &disagg_cfg(Policy::ContinuousBatching, RouteSpec::SharedQueue, None),
        &disagg_probe,
    )
    .throughput_rps;
    eprintln!(
        "\ndisaggregation fleet (4 full chips): co-located capacity probe sustains \
         {disagg_capacity:.0} req/s on the long-prefill chat mix"
    );
    struct DisaggRun {
        label: String,
        disagg: bool,
        report: FleetReport,
    }
    let colo_cells = [
        (Policy::ContinuousBatching, RouteSpec::SharedQueue),
        (Policy::ContinuousBatching, RouteSpec::FastestChip),
        (Policy::DecodePrioritized, RouteSpec::SharedQueue),
        (Policy::DecodePrioritized, RouteSpec::FastestChip),
    ];
    let disagg_seed = seed ^ 0xD15A;
    let disagg_bands: Vec<(f64, f64, Vec<DisaggRun>)> = [0.3, 0.6, 0.9, 1.2]
        .into_iter()
        .map(|frac| {
            let rate = disagg_capacity * frac;
            let trace = TraceSpec::disagg_chat(
                ArrivalSpec::OpenPoisson {
                    rate_rps: rate,
                    requests,
                },
                disagg_seed,
            )
            .generate();
            eprintln!(
                "\ndisaggregation grid ({frac}x co-located capacity): {} requests at \
                 {rate:.0} req/s offered",
                trace.len()
            );
            let colocated = colo_cells.iter().map(|&(policy, route)| {
                let label = format!("colocated {}+{}", policy.name(), route.name());
                (label, disagg_cfg(policy, route, None))
            });
            let split = ("disagg 2 prefill + 2 decode".to_string(), split_cfg.clone());
            let runs: Vec<DisaggRun> = colocated
                .chain([split])
                .map(|(label, cfg)| {
                    let report = conserved(&label, &trace, true, simulate_fleet(&cfg, &trace));
                    eprintln!(
                        "{:<45} tbt p99 {:>7.4} ms   p99 {:>10.3} ms   handoffs {:>4} \
                         ({:>10} B, {:>9} cyc)",
                        label,
                        report.tbt.p99 * 1e3,
                        report.latency.p99 * 1e3,
                        chip_sum(&report, |c| c.handoffs),
                        chip_sum(&report, |c| c.handoff_bytes),
                        chip_sum(&report, |c| c.handoff_cycles)
                    );
                    DisaggRun {
                        label,
                        disagg: cfg.pools.is_some(),
                        report,
                    }
                })
                .collect();
            (frac, rate, runs)
        })
        .collect();
    let (_, head_rate, head_runs) = disagg_bands.last().expect("bands simulated");
    let disagg_head = head_runs.iter().find(|r| r.disagg).expect("disagg run");
    let best_colo = head_runs
        .iter()
        .filter(|r| !r.disagg)
        .min_by(|a, b| a.report.tbt.p99.total_cmp(&b.report.tbt.p99))
        .expect("co-located runs");
    // The unpruned twin: identical arrivals and drawn lengths (pruning
    // parameters add no random draws), dense KV — the control that
    // prices what cascade pruning saves the handoff.
    let unpruned_report = simulate_fleet(
        &split_cfg,
        &TraceSpec::disagg_chat(
            ArrivalSpec::OpenPoisson {
                rate_rps: *head_rate,
                requests,
            },
            disagg_seed,
        )
        .unpruned()
        .generate(),
    );
    let pruned_handoff_bytes = chip_sum(&disagg_head.report, |c| c.handoff_bytes);
    let unpruned_handoff_bytes = chip_sum(&unpruned_report, |c| c.handoff_bytes);
    eprintln!(
        "\ndisaggregation beats the best co-located policy ({}) {:.2}x on tbt p99 at \
         1.2x load; pruned handoffs move {} bytes vs {} unpruned ({:.1}% saved)",
        best_colo.label,
        best_colo.report.tbt.p99 / disagg_head.report.tbt.p99,
        pruned_handoff_bytes,
        unpruned_handoff_bytes,
        (1.0 - pruned_handoff_bytes as f64 / unpruned_handoff_bytes.max(1) as f64) * 100.0
    );
    // The inversion point: the lightest load band where the best
    // co-located end-to-end p99 beats disaggregation's — below the
    // interference regime the handoff tax and the halved prefill
    // capacity are pure cost.
    let inversion = disagg_bands.iter().find_map(|(_, rate, runs)| {
        let d = runs.iter().find(|r| r.disagg).expect("disagg run");
        let best = runs
            .iter()
            .filter(|r| !r.disagg)
            .map(|r| r.report.latency.p99)
            .fold(f64::INFINITY, f64::min);
        (best < d.report.latency.p99).then_some(*rate)
    });
    match inversion {
        Some(rate) => {
            eprintln!("co-location inverts (wins end-to-end p99) at {rate:.0} req/s offered");
        }
        None => eprintln!("co-location never won end-to-end p99 on this ladder"),
    }
    // Contiguous KV + no pools must reproduce the pre-disaggregation
    // event stream bit-for-bit, and an all-Flex pool spec must be
    // indistinguishable from declaring no pools at all.
    let legacy_cfg = FleetConfig::with_chips(disagg_chips.clone(), Policy::ContinuousBatching);
    let legacy = simulate_fleet(&legacy_cfg, &disagg_probe);
    let mut flex_cfg = legacy_cfg.clone();
    flex_cfg.pools = Some(PoolSpec::new(
        vec![PoolRole::Flex; disagg_chips.len()],
        TopologySpec::FullyConnected,
        LinkSpec::default(),
    ));
    let flex = simulate_fleet(&flex_cfg, &disagg_probe);
    let flex_identical = legacy.completions == flex.completions
        && legacy.makespan_cycles == flex.makespan_cycles
        && legacy.sim_events == flex.sim_events;

    // ── Elasticity grid ──────────────────────────────────────────────
    // A diurnal envelope over a small fleet: static under-provisioning
    // (trough-sized), static over-provisioning (peak-sized), and the
    // threshold-hysteresis autoscaler over the same reserve. The
    // autoscaler has to beat the under-provisioned fleet on SLO goodput
    // AND the over-provisioned one on total online chip-cycles — one
    // without the other is just picking a different static fleet.
    let elastic_seed = seed ^ 0xE1A5;
    let chip_probe = closed_loop(TraceSpec::mixed, 32, 256, elastic_seed);
    let chip_capacity = simulate_fleet(
        &FleetConfig::new(1, Policy::ContinuousBatching),
        &chip_probe,
    )
    .throughput_rps;
    let base_chips = 2usize;
    let reserve_chips = 2usize;
    // Mean load sized so the peak (base × 1.6) overwhelms the base fleet
    // while the trough (base × 0.4) idles half of it.
    let base_rps = chip_capacity * 2.0;
    let swing = 0.6;
    let elastic_span_s = requests as f64 / base_rps;
    let diurnal = slo_spec(
        ArrivalSpec::Diurnal {
            base_rps,
            swing,
            period_s: elastic_span_s / 2.0,
            requests,
        },
        elastic_seed,
    )
    .generate();
    eprintln!(
        "\nelasticity fleet ({base_chips} base + {reserve_chips} reserve full chips): diurnal \
         envelope at {base_rps:.0} req/s mean, swing {swing}, {:.3} s period",
        elastic_span_s / 2.0
    );
    let elastic_fleet = |chips: usize, elastic: Option<ElasticSpec>| {
        let mut cfg = FleetConfig::new(chips, Policy::ContinuousBatching);
        cfg.elastic = elastic;
        cfg
    };
    let under = simulate_fleet(&elastic_fleet(base_chips, None), &diurnal);
    let over = simulate_fleet(&elastic_fleet(base_chips + reserve_chips, None), &diurnal);
    let auto_cfg = elastic_fleet(
        base_chips,
        Some(ElasticSpec {
            events: FleetEvents::default(),
            reserve: vec![SpAttenConfig::default(); reserve_chips],
            autoscale: Some(AutoscaleSpec::default()),
        }),
    );
    let auto_run = simulate_fleet(&auto_cfg, &diurnal);
    let online_cost = |r: &FleetReport| chip_sum(r, |c| c.elastic.online_cycles);
    let auto_ups = chip_sum(&auto_run, |c| c.elastic.joins);
    eprintln!(
        "autoscaler goodput {:.0} req/s vs {:.0} static under-provisioned ({:.2}x); online cost \
         {} chip-cycles vs {} static over-provisioned ({:.1}% saved, {} reserve bring-ups)",
        auto_run.goodput_rps,
        under.goodput_rps,
        auto_run.goodput_rps / under.goodput_rps.max(f64::MIN_POSITIVE),
        online_cost(&auto_run),
        online_cost(&over),
        (1.0 - online_cost(&auto_run) as f64 / online_cost(&over).max(1) as f64) * 100.0,
        auto_ups
    );
    // An empty elasticity spec must be bit-identical to no spec at all
    // (the fixed-fleet fast path).
    let empty_elastic = simulate_fleet(
        &elastic_fleet(base_chips, Some(ElasticSpec::default())),
        &diurnal,
    );
    let empty_elastic_identical = under.completions == empty_elastic.completions
        && under.makespan_cycles == empty_elastic.makespan_cycles
        && under.sim_events == empty_elastic.sim_events;

    // Revocation-with-grace conservation: the first seed offset whose
    // drawn schedule actually revokes, against the fault-free twin on
    // the identical trace. Every request must still complete, and every
    // completion the revocations never displaced must move exactly the
    // twin's tokens.
    let fault_chips = 4usize;
    let fault_rate = chip_capacity * fault_chips as f64 * 0.9;
    let fault_trace = slo_spec(
        ArrivalSpec::OpenPoisson {
            rate_rps: fault_rate,
            requests,
        },
        elastic_seed ^ 0xFA11,
    )
    .generate();
    let fault_horizon_ns = (requests as f64 / fault_rate * 1e9) as u64;
    let fault_twin = simulate_fleet(&elastic_fleet(fault_chips, None), &fault_trace);
    // Seeded graces can span an eighth of the horizon — long enough for
    // every resident to finish politely, which tests nothing. Clamp them
    // tight so the cutoff lands mid-service, and scan seed offsets until
    // the drawn schedule actually displaces a job (deterministic in the
    // base seed; offset 0 almost always suffices).
    let (fault_events, faulted) = (0u64..64)
        .find_map(|i| {
            let mut events =
                FleetEvents::seeded(elastic_seed.wrapping_add(i), fault_chips, fault_horizon_ns);
            let mut revokes = false;
            for l in &mut events.leaves {
                if let LeaveMode::Revoke { grace_ns } = &mut l.mode {
                    *grace_ns = (*grace_ns).min(fault_horizon_ns / 256);
                    revokes = true;
                }
            }
            if !revokes {
                return None;
            }
            let report = simulate_fleet(
                &elastic_fleet(
                    fault_chips,
                    Some(ElasticSpec {
                        events: events.clone(),
                        ..ElasticSpec::default()
                    }),
                ),
                &fault_trace,
            );
            report
                .completions
                .iter()
                .any(|c| c.revoked)
                .then_some((events, report))
        })
        .expect("a seeded revoke schedule within 64 offsets displaces work");
    let twin_tokens: Vec<(u64, usize, usize)> = {
        let mut t: Vec<(u64, usize, usize)> = fault_twin
            .completions
            .iter()
            .map(|c| (c.id, c.prefill_tokens, c.generated_tokens))
            .collect();
        t.sort_unstable();
        t
    };
    let untouched_diverged = faulted
        .completions
        .iter()
        .filter(|c| !c.revoked)
        .filter(|c| {
            twin_tokens
                .binary_search(&(c.id, c.prefill_tokens, c.generated_tokens))
                .is_err()
        })
        .count();
    let revoked_completions = faulted.completions.iter().filter(|c| c.revoked).count();
    eprintln!(
        "revocation conservation: {} scheduled leaves displaced {} jobs; {} of {} untouched \
         completions diverged from the fault-free twin",
        fault_events.leaves.len(),
        revoked_completions,
        untouched_diverged,
        faulted.completions.len() - revoked_completions
    );

    let elastic_run_json = |label: &str, r: &FleetReport| {
        JsonObject::new()
            .str("config", label)
            .f64("goodput_rps", r.goodput_rps)
            .f64("p99_s", r.latency.p99)
            .u64("slo_violations", r.slo_violations as u64)
            .u64("online_chip_cycles", online_cost(r))
            .u64(
                "weight_load_cycles",
                chip_sum(r, |c| c.elastic.weight_load_cycles),
            )
            .u64("joins", chip_sum(r, |c| c.elastic.joins))
            .u64("leaves", chip_sum(r, |c| c.elastic.leaves))
            .u64("revoked_jobs", chip_sum(r, |c| c.elastic.revoked_jobs))
            .u64("sim_events", r.sim_events)
            .build()
    };
    let elastic_json = JsonObject::new()
        .str("benchmark", "spatten-serve elastic fleet membership")
        .str(
            "mix",
            "SLO-tagged mixed trace under a diurnal envelope (two load cycles)",
        )
        .u64("requests", requests as u64)
        .u64("seed", elastic_seed)
        .f64("chip_capacity_rps", chip_capacity)
        .f64("base_rps", base_rps)
        .f64("swing", swing)
        .u64("base_chips", base_chips as u64)
        .u64("reserve_chips", reserve_chips as u64)
        .f64(
            "goodput_gain_over_under_provisioned",
            auto_run.goodput_rps / under.goodput_rps.max(f64::MIN_POSITIVE),
        )
        .f64(
            "online_cost_saving_vs_over_provisioned_frac",
            1.0 - online_cost(&auto_run) as f64 / online_cost(&over).max(1) as f64,
        )
        .u64("reserve_bring_ups", auto_ups)
        .raw(
            "runs",
            &array(
                [
                    ("static under-provisioned (base only)", &under),
                    ("static over-provisioned (base + reserve)", &over),
                    ("threshold-hysteresis autoscaler", &auto_run),
                ]
                .into_iter()
                .map(|(label, r)| elastic_run_json(label, r)),
            ),
        )
        .raw(
            "revocation",
            &JsonObject::new()
                .f64("offered_rps", fault_rate)
                .u64("chips", fault_chips as u64)
                .u64("scheduled_leaves", fault_events.leaves.len() as u64)
                .u64("revoked_completions", revoked_completions as u64)
                .u64("untouched_diverged", untouched_diverged as u64)
                .bool("all_completed", faulted.completed == requests)
                .u64("sim_events", faulted.sim_events)
                .build(),
        )
        .build();

    // ── Engine bit-identity ──────────────────────────────────────────
    // The offline entry point is a thin replay wrapper over the
    // resumable `FleetEngine`; driving the same `FleetConfig` through
    // the live step API (inject / load_closed, then drain) must
    // reproduce the one-shot report bit-for-bit on this run's hardest
    // cells: the pooled disaggregation fleet (closed-loop handoffs), the
    // autoscaled diurnal fleet (reserve chips extend the roster, so the
    // heterogeneous lowering is on the line), and the mid-service
    // revocation schedule.
    let engine_replay = |cfg: &FleetConfig, trace: &Trace| -> FleetReport {
        let mut engine = fleet_engine(cfg);
        match trace {
            Trace::Open { requests } => {
                for r in requests {
                    engine.inject(r);
                }
            }
            Trace::Closed { clients, think_ns } => engine.load_closed(clients, *think_ns),
        }
        engine.drain()
    };
    let fault_cfg = elastic_fleet(
        fault_chips,
        Some(ElasticSpec {
            events: fault_events.clone(),
            ..ElasticSpec::default()
        }),
    );
    let step_api_identical = [
        engine_replay(&split_cfg, &disagg_probe) == simulate_fleet(&split_cfg, &disagg_probe),
        engine_replay(&auto_cfg, &diurnal) == auto_run,
        engine_replay(&fault_cfg, &fault_trace) == faulted,
    ];

    // Headliners: decode p99 on the single-chip Poisson sweep, then the
    // grid cells, in each grid's cell order.
    let tbt_p99 = |p: Policy| {
        scenarios[0]
            .reports
            .iter()
            .find(|r| r.policy == p.name())
            .map(|r| r.tbt.p99)
            .expect("policy simulated")
    };
    let [routed_base, routed, ..] = &grid;
    let [burst_base, _, preemptive, ..] = &burst_grid;
    let [sat_shared, sat_fastest, sat_fastest_steal, sat_steal_aware, _, sat_hash, sat_hash_steal] =
        &sat_grid;
    let m = Measured {
        requests,
        cb_tbt_p99: tbt_p99(Policy::ContinuousBatching),
        dp_tbt_p99: tbt_p99(Policy::DecodePrioritized),
        cb_high_p99: burst_base.high_priority_p99(),
        preempt_high_p99: preemptive.high_priority_p99(),
        preemptions: preemptive.report.preemptions,
        shared_p99: routed_base.report.latency.p99,
        fastest_p99: routed.report.latency.p99,
        sat_shared_p99: sat_shared.report.latency.p99,
        sat_fastest_p99: sat_fastest.report.latency.p99,
        steal_recovery: sat_hash.report.latency.p99 / sat_hash_steal.report.latency.p99,
        sat_steals: sat_hash_steal.steals(),
        contig_occupancy: kv_contig.report.mean_occupancy(),
        paged_occupancy: kv_paged.report.mean_occupancy(),
        contig_p99: kv_contig.report.latency.p99,
        paged_p99: kv_paged.report.latency.p99,
        contig_goodput: kv_contig.report.goodput_rps,
        paged_goodput: kv_paged.report.goodput_rps,
        shared_hits: kv_paged.kv_counter(|k| k.shared_hits),
        best_colo_tbt_p99: best_colo.report.tbt.p99,
        disagg_tbt_p99: disagg_head.report.tbt.p99,
        handoffs: chip_sum(&disagg_head.report, |c| c.handoffs),
        pruned_bytes: pruned_handoff_bytes,
        unpruned_bytes: unpruned_handoff_bytes,
        inversion: inversion.is_some(),
        under_goodput: under.goodput_rps,
        auto_goodput: auto_run.goodput_rps,
        over_cost: online_cost(&over),
        auto_cost: online_cost(&auto_run),
        bring_ups: auto_ups,
        fault_completed: faulted.completed,
        revoked: revoked_completions,
        untouched_diverged,
        flex_identical,
        flex_handoff_bytes: chip_sum(&flex, |c| c.handoff_bytes),
        empty_elastic_identical,
        step_api_identical,
    };
    eprintln!(
        "\nsteal-aware routing holds {:.2}x fleet p99 vs plain fastest-chip under \
         costliest-fit stealing at saturation ({} steals vs {})",
        sat_fastest_steal.report.latency.p99 / sat_steal_aware.report.latency.p99,
        sat_steal_aware.steals(),
        sat_fastest_steal.steals()
    );

    // The disaggregation grid serializes standalone so `--disagg-out`
    // can check it in as `BENCH_disagg.json` (the perf trajectory) while
    // the same object rides inside the main report.
    let disagg_json = JsonObject::new()
        .str(
            "benchmark",
            "spatten-serve disaggregated prefill/decode serving",
        )
        .str(
            "mix",
            "disagg-chat (long prefill, short decode, shared system prefixes)",
        )
        .u64("requests", requests as u64)
        .u64("seed", disagg_seed)
        .f64("colocated_capacity_rps", disagg_capacity)
        .str("best_colocated", &best_colo.label)
        .f64("best_colocated_tbt_p99_s", m.best_colo_tbt_p99)
        .f64("disagg_tbt_p99_s", m.disagg_tbt_p99)
        .f64(
            "tbt_p99_speedup_disagg_over_best_colocated",
            m.best_colo_tbt_p99 / m.disagg_tbt_p99,
        )
        .u64("handoffs", m.handoffs)
        .u64("handoff_bytes_pruned", m.pruned_bytes)
        .u64("handoff_bytes_unpruned", m.unpruned_bytes)
        .f64(
            "handoff_bytes_saved_by_pruning_frac",
            1.0 - m.pruned_bytes as f64 / m.unpruned_bytes.max(1) as f64,
        )
        .raw(
            "colocation_inversion_rps",
            &inversion.map_or_else(|| "null".to_string(), |r| format!("{r}")),
        )
        .raw(
            "bands",
            &array(disagg_bands.iter().map(|(frac, rate, runs)| {
                JsonObject::new()
                    .f64("load_frac_of_colocated_capacity", *frac)
                    .f64("offered_rps", *rate)
                    .u64("seed", disagg_seed)
                    .raw(
                        "runs",
                        &array(runs.iter().map(|r| {
                            JsonObject::new()
                                .str("config", &r.label)
                                .bool("disaggregated", r.disagg)
                                .f64("tbt_p99_s", r.report.tbt.p99)
                                .f64("ttft_p99_s", r.report.ttft.p99)
                                .f64("p99_s", r.report.latency.p99)
                                .f64("goodput_rps", r.report.goodput_rps)
                                .f64("mean_batch_occupancy", r.report.mean_occupancy())
                                .u64("handoffs", chip_sum(&r.report, |c| c.handoffs))
                                .u64("handoff_bytes", chip_sum(&r.report, |c| c.handoff_bytes))
                                .u64("handoff_cycles", chip_sum(&r.report, |c| c.handoff_cycles))
                                .u64("sim_events", r.report.sim_events)
                                .build()
                        })),
                    )
                    .build()
            })),
        )
        .build();

    // Simulated-event throughput over every recorded run (probes and
    // twins excluded): the groundwork metric for the perf trajectory.
    let sim_events_total: u64 = scenarios
        .iter()
        .flat_map(|s| &s.reports)
        .map(|r| r.sim_events)
        .chain(
            grid.iter()
                .chain(&burst_grid)
                .chain(&sat_grid)
                .map(|r| r.report.sim_events),
        )
        .chain(
            kv_bands
                .iter()
                .flat_map(|(_, _, _, runs)| runs)
                .map(|r| r.report.sim_events),
        )
        .chain(
            disagg_bands
                .iter()
                .flat_map(|(_, _, runs)| runs)
                .map(|r| r.report.sim_events),
        )
        .chain(
            [&under, &over, &auto_run, &fault_twin, &faulted]
                .into_iter()
                .map(|r| r.sim_events),
        )
        .sum();
    let wall_s = wall.elapsed().as_secs_f64();

    let json = JsonObject::new()
        .str("benchmark", "spatten-serve scheduling-policy comparison")
        .str(
            "paper",
            "SpAtten (HPCA 2021) — scheduling-layer extension (PRs 3-4)",
        )
        .u64("requests", requests as u64)
        .u64("seed", seed)
        .f64("rate_frac", rate_frac)
        .u64("sim_events", sim_events_total)
        .f64("wall_s", wall_s)
        .f64("sim_events_per_sec", per_sec(sim_events_total, wall_s))
        .f64("continuous_batching_tbt_p99_s", m.cb_tbt_p99)
        .f64("decode_prioritized_tbt_p99_s", m.dp_tbt_p99)
        .f64("tbt_p99_speedup_dp_over_cb", m.cb_tbt_p99 / m.dp_tbt_p99)
        .f64(
            "high_priority_p99_speedup_preempt_over_cb",
            m.cb_high_p99 / m.preempt_high_p99,
        )
        .f64(
            "fleet_p99_speedup_routed_over_shared",
            m.shared_p99 / m.fastest_p99,
        )
        .f64(
            "saturation_p99_ratio_shared_over_fastest",
            m.sat_shared_p99 / m.sat_fastest_p99,
        )
        .f64("saturation_p99_recovery_steal_over_hash", m.steal_recovery)
        .u64("saturation_steals", m.sat_steals)
        .f64(
            "paged_occupancy_gain_over_contiguous",
            m.paged_occupancy / m.contig_occupancy.max(f64::MIN_POSITIVE),
        )
        .f64(
            "paged_p99_speedup_over_contiguous",
            m.contig_p99 / m.paged_p99,
        )
        .f64(
            "paged_goodput_gain_over_contiguous",
            m.paged_goodput / m.contig_goodput.max(f64::MIN_POSITIVE),
        )
        .u64("paged_shared_hits", m.shared_hits)
        .u64(
            "paged_blocks_reclaimed",
            kv_paged.kv_counter(|k| k.blocks_reclaimed),
        )
        .raw("scenarios", &scenarios_json(&scenarios))
        .raw(
            "mixed_fleet_grids",
            &array(
                [
                    ("placement-band", grid_rate, grid_seed, &grid[..]),
                    ("contention-band", burst_rate, burst_seed, &burst_grid[..]),
                    ("saturation-band", sat_rate, sat_seed, &sat_grid[..]),
                ]
                .into_iter()
                .map(|(band, rate, seed, runs)| {
                    JsonObject::new()
                        .str("band", band)
                        .f64("capacity_rps", mixed_capacity)
                        .f64("offered_rps", rate)
                        .u64("seed", seed)
                        .raw(
                            "runs",
                            &array(runs.iter().map(|r| {
                                JsonObject::new()
                                    .str("policy", r.policy.name())
                                    .str("route", r.knobs.route.name())
                                    .str("preempt", r.knobs.preempt.name())
                                    .str("steal", r.knobs.steal.name())
                                    .u64("seed", seed)
                                    .raw("sched_knobs", &knobs_json(&r.knobs))
                                    .f64("p99_s", r.report.latency.p99)
                                    .f64("high_priority_p99_s", r.high_priority_p99())
                                    .f64("low_priority_p99_s", r.report.class_stats[1].latency.p99)
                                    .u64("preemptions", r.report.preemptions)
                                    .u64("steals", r.steals())
                                    .f64("goodput_rps", r.report.goodput_rps)
                                    .u64("swap_cycles", chip_sum(&r.report, |c| c.swap_cycles))
                                    .u64("stolen_cycles", chip_sum(&r.report, |c| c.stolen_cycles))
                                    .u64("sim_events", r.report.sim_events)
                                    .build()
                            })),
                        )
                        .build()
                }),
            ),
        )
        .raw(
            "paged_kv_grid",
            &array(kv_bands.iter().map(|(band, rate, seed, runs)| {
                JsonObject::new()
                    .str("band", band)
                    .f64("capacity_rps", chat_capacity)
                    .f64("offered_rps", *rate)
                    .u64("seed", *seed)
                    .raw(
                        "runs",
                        &array(runs.iter().map(|r| {
                            JsonObject::new()
                                .str("kv", r.knobs.kv.name())
                                .u64("seed", *seed)
                                .raw("sched_knobs", &knobs_json(&r.knobs))
                                .f64("p99_s", r.report.latency.p99)
                                .f64("ttft_p99_s", r.report.ttft.p99)
                                .f64("tbt_p99_s", r.report.tbt.p99)
                                .f64("goodput_rps", r.report.goodput_rps)
                                .f64("mean_batch_occupancy", r.report.mean_occupancy())
                                .u64("slo_violations", r.report.slo_violations as u64)
                                .u64("kv_blocks_allocated", r.kv_counter(|k| k.blocks_allocated))
                                .u64("kv_blocks_freed", r.kv_counter(|k| k.blocks_freed))
                                .u64("kv_blocks_reclaimed", r.kv_counter(|k| k.blocks_reclaimed))
                                .u64("kv_shared_hits", r.kv_counter(|k| k.shared_hits))
                                .u64(
                                    "kv_cache_evicted_blocks",
                                    r.kv_counter(|k| k.cache_evicted_blocks),
                                )
                                .u64("sim_events", r.report.sim_events)
                                .build()
                        })),
                    )
                    .build()
            })),
        )
        .raw("disagg", &disagg_json)
        .f64(
            "elastic_goodput_gain_over_under_provisioned",
            m.auto_goodput / m.under_goodput.max(f64::MIN_POSITIVE),
        )
        .f64(
            "elastic_online_cost_saving_vs_over_provisioned_frac",
            1.0 - m.auto_cost as f64 / m.over_cost.max(1) as f64,
        )
        .raw("elastic", &elastic_json)
        .build();
    let files = [
        (&args.disagg_out, disagg_json),
        (&args.elastic_out, elastic_json),
    ];
    Suite {
        json,
        gates: gates(&m, args.smoke),
        files: files
            .into_iter()
            .filter_map(|(path, body)| Some((path.clone()?, body)))
            .collect(),
    }
}
