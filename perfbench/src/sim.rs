//! The offline workloads: `sim-steady` replays one warm disaggregated
//! trace through the resumable engine again and again; `sim-sweep` runs
//! short cold cells across every canonical policy.

use std::time::{Duration, Instant};

use spatten_core::{decode_step_cost, prefill_cost, SpAttenConfig};
use spatten_serve::json::JsonObject;
use spatten_serve::{
    fleet_engine_policy, representative, simulate_fleet, AdmissionPolicy, BatchPolicy, CostModel,
    FleetConfig, FleetCost, FleetEngine, FleetReport, KvSpec, Policy, PoolSpec, PreemptSpec,
    PreemptionPolicy, RouteSpec, RoutingPolicy, SimMode, StealSpec,
};
use spatten_workloads::{ArrivalSpec, Trace, TraceSpec, Workload};

use crate::report::{rss_peak_mb, EndToEnd, Layers, Outcome};
use crate::stats::{median, min, p50, sorted, tail};
use crate::tracer::{within, Layer, Ledger, Method, SpanCost, Traced, Tracer, SAMPLE_EVERY};
use crate::Args;

/// Requests in one `sim-steady` replay.
const STEADY_REQUESTS: usize = 10_000;
/// Offered load as a share of the probed capacity.
const STEADY_LOAD: f64 = 0.9;
/// Seed of the capacity probe's trace. Capacity is a property of the
/// fleet and the request mix, so every run seed offers the same rate.
const PROBE_SEED: u64 = 0xCAFE;
/// Requests in one `sim-sweep` cell.
const SWEEP_REQUESTS: usize = 300;
/// Open-loop offered rate of the sweep's cells (the fleet sustains about
/// 120 req/s of the mix).
const SWEEP_RATE_RPS: f64 = 100.0;
/// Closed-loop population of the sweep's cells, and their think time.
const SWEEP_CLIENTS: usize = 16;
const SWEEP_THINK_S: f64 = 0.01;
/// `sim-steady` set-ups per run, spread over it; `setup_s` is the best.
const SETUP_REPS: usize = 8;
/// Repetitions a run makes at least, however long they take.
const MIN_REPS: usize = 3;

/// `sim_bench`'s `disagg` shape: 4 Table-I chips split 2 prefill + 2
/// decode, paged KV, pool-aware routing, 64 residents per chip — plus
/// priority preemption, so the preemption seam runs at every round
/// boundary. The chat tiers share one priority and equal priorities are
/// never evicted, so the simulation is the plain `disagg` one.
fn steady_fleet() -> FleetConfig {
    let mut cfg = FleetConfig::with_chips(
        vec![SpAttenConfig::default(); 4],
        Policy::ContinuousBatching,
    );
    cfg.max_batch = 64;
    cfg.sched.kv = KvSpec::paged();
    cfg.sched.route = RouteSpec::PoolAware;
    cfg.sched.preempt = PreemptSpec::Priority;
    cfg.pools = Some(PoolSpec::split(2, 2));
    cfg
}

/// The sweep's heterogeneous fleet: 2 Table-I chips and 2 eighth-scale
/// chips, cost-probed routing with work stealing, so both memo shards and
/// every routing seam are live. The priority cells also preempt.
fn sweep_fleet(policy: Policy) -> FleetConfig {
    let (full, eighth) = (SpAttenConfig::default(), SpAttenConfig::eighth());
    let mut cfg = FleetConfig::with_chips(vec![full, full, eighth, eighth], policy);
    cfg.sched.route = RouteSpec::FastestChip;
    cfg.sched.steal = StealSpec::CostliestFit;
    if policy == Policy::Priority {
        cfg.sched.preempt = PreemptSpec::Priority;
    }
    cfg
}

/// The sweep's request mix: `TraceSpec::mixed` with the GPT-2 tier one
/// priority above the BERT tier, so priority preemption has victims.
fn sweep_spec(arrival: ArrivalSpec, seed: u64) -> TraceSpec {
    let mut spec = TraceSpec::mixed(arrival, seed);
    spec.classes[1].priority = 1;
    spec
}

/// The cost oracle `simulate_fleet` builds for `cfg`.
fn cost_model(cfg: &FleetConfig) -> CostModel {
    let chips = cfg
        .chip_configs
        .clone()
        .expect("fleets here list their chips");
    CostModel::heterogeneous(chips, cfg.fc_weight_bits)
}

fn workloads(trace: &Trace) -> Box<dyn Iterator<Item = &Workload> + '_> {
    match trace {
        Trace::Open { requests } => Box::new(requests.iter().map(|r| &r.workload)),
        Trace::Closed { clients, .. } => Box::new(clients.iter().flatten().map(|r| &r.workload)),
    }
}

fn trace_ids(trace: &Trace) -> Vec<u64> {
    let mut ids: Vec<u64> = match trace {
        Trace::Open { requests } => requests.iter().map(|r| r.id).collect(),
        Trace::Closed { clients, .. } => clients.iter().flatten().map(|r| r.id).collect(),
    };
    ids.sort_unstable();
    ids
}

/// Conservation checks on one report: every request completed or was
/// rejected, and every trace id appears exactly once. Returns the number
/// of violated checks.
fn check(report: &FleetReport, trace: &Trace) -> u64 {
    let mut failed = 0;
    if report.completed + report.rejected != trace.len() {
        eprintln!(
            "check: {} completed + {} rejected != {} requests",
            report.completed,
            report.rejected,
            trace.len()
        );
        failed += 1;
    }
    let mut ids: Vec<u64> = report.completions.iter().map(|c| c.id).collect();
    ids.extend(report.rejections.iter().map(|r| r.id));
    ids.sort_unstable();
    if ids != trace_ids(trace) {
        eprintln!("check: report ids are not the trace ids, each once");
        failed += 1;
    }
    failed
}

/// Counts of simulated behaviour. A change to host speed alone leaves
/// every one of them identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub sim_events: u64,
    pub completed: u64,
    pub rejected: u64,
    pub kv_blocks_allocated: u64,
    pub kv_blocks_reclaimed: u64,
    pub kv_shared_hits: u64,
    pub handoffs: u64,
    pub handoff_bytes: u64,
    pub steals: u64,
    pub preemptions: u64,
}

impl Counts {
    fn of(r: &FleetReport) -> Self {
        let sum = |f: fn(&spatten_serve::ChipStats) -> u64| r.chip_stats.iter().map(f).sum();
        Self {
            sim_events: r.sim_events,
            completed: r.completed as u64,
            rejected: r.rejected as u64,
            kv_blocks_allocated: sum(|c| c.kv.blocks_allocated),
            kv_blocks_reclaimed: sum(|c| c.kv.blocks_reclaimed),
            kv_shared_hits: sum(|c| c.kv.shared_hits),
            handoffs: sum(|c| c.handoffs),
            handoff_bytes: sum(|c| c.handoff_bytes),
            steals: sum(|c| c.steals),
            preemptions: r.preemptions,
        }
    }

    fn add(&mut self, o: &Counts) {
        self.sim_events += o.sim_events;
        self.completed += o.completed;
        self.rejected += o.rejected;
        self.kv_blocks_allocated += o.kv_blocks_allocated;
        self.kv_blocks_reclaimed += o.kv_blocks_reclaimed;
        self.kv_shared_hits += o.kv_shared_hits;
        self.handoffs += o.handoffs;
        self.handoff_bytes += o.handoff_bytes;
        self.steals += o.steals;
        self.preemptions += o.preemptions;
    }

    fn json(&self, ledger: Option<&Ledger>) -> String {
        let mut o = JsonObject::new()
            .u64("sim_events", self.sim_events)
            .u64("completed", self.completed)
            .u64("rejected", self.rejected)
            .u64("kv_blocks_allocated", self.kv_blocks_allocated)
            .u64("kv_blocks_reclaimed", self.kv_blocks_reclaimed)
            .u64("kv_shared_hits", self.kv_shared_hits)
            .u64("handoffs", self.handoffs)
            .u64("handoff_bytes", self.handoff_bytes)
            .u64("steals", self.steals)
            .u64("preemptions", self.preemptions);
        if let Some(l) = ledger {
            for m in Method::ALL {
                o = o.u64(
                    &format!("cost_calls.{}", m.name()),
                    l.cost_calls[m as usize],
                );
            }
            o = o.u64("cost_cold_calls", l.cold_calls);
        }
        o.build()
    }

    fn fill(&self, layers: &mut Layers) {
        layers.kv_blocks_allocated = self.kv_blocks_allocated;
        layers.kv_blocks_reclaimed = self.kv_blocks_reclaimed;
        layers.kv_shared_hits = self.kv_shared_hits;
        layers.handoffs = self.handoffs;
        layers.handoff_bytes = self.handoff_bytes;
        layers.steals = self.steals;
        layers.preemptions = self.preemptions;
    }
}

/// One replay through the step API.
struct Replay {
    report: FleetReport,
    /// Host seconds from the first engine call until the report returned.
    wall_s: f64,
    /// Host nanoseconds to advance the engine past each open-loop arrival
    /// (`inject` plus the `step_until` that follows it).
    arrival_ns: Vec<f64>,
    /// Host nanoseconds from the last arrival until the report returned.
    drain_ns: f64,
}

/// Drives `engine` through `trace` with the public step API: each
/// open-loop arrival is injected, then every event strictly before it
/// fires, so an arrival always beats a same-time event exactly as in
/// `FleetEngine::replay`; closed-loop clients load up front. Once no
/// events remain, `drain` builds the report. Engine calls are spans of
/// [`Layer::Engine`] and `drain` of [`Layer::Report`] when tracing.
fn replay<C, A, B, R, P>(
    mut engine: FleetEngine<C, A, B, R, P>,
    trace: &Trace,
    tracer: Option<&Tracer>,
) -> Replay
where
    C: FleetCost,
    A: AdmissionPolicy,
    B: BatchPolicy,
    R: RoutingPolicy,
    P: PreemptionPolicy,
{
    let start = Instant::now();
    let mut arrival_ns = Vec::new();
    match trace {
        Trace::Open { requests } => {
            arrival_ns.reserve(requests.len());
            for req in requests {
                let t = Instant::now();
                let at = within(tracer, Layer::Engine, || engine.inject(req));
                if at > 0 {
                    within(tracer, Layer::Engine, || engine.step_until(at - 1));
                }
                arrival_ns.push(t.elapsed().as_nanos() as f64);
            }
        }
        Trace::Closed { clients, think_ns } => {
            within(tracer, Layer::Engine, || {
                engine.load_closed(clients, *think_ns)
            });
        }
    }
    let last_arrival = Instant::now();
    while within(tracer, Layer::Engine, || engine.step()) {}
    let report = within(tracer, Layer::Report, || engine.drain());
    Replay {
        report,
        wall_s: start.elapsed().as_secs_f64(),
        arrival_ns,
        drain_ns: last_arrival.elapsed().as_nanos() as f64,
    }
}

type TracedEngine = FleetEngine<
    Traced<CostModel>,
    Traced<Box<dyn AdmissionPolicy>>,
    Traced<Box<dyn BatchPolicy>>,
    Traced<Box<dyn RoutingPolicy>>,
    Traced<Box<dyn PreemptionPolicy>>,
>;

/// The engine `fleet_engine_policy` builds for `cfg`, with every seam
/// decorated on `tracer`.
fn traced_engine(cfg: &FleetConfig, cost: CostModel, tracer: &std::rc::Rc<Tracer>) -> TracedEngine {
    let k = &cfg.sched;
    FleetEngine::new(
        Traced::new(cost, tracer),
        cfg.chips,
        cfg.policy.name(),
        Traced::new(cfg.policy.admission(k), tracer),
        Traced::new(cfg.policy.batch(k), tracer),
        Traced::new(k.route.build(), tracer),
        k.steal,
        Traced::new(k.preempt.build(k), tracer),
        k.kv,
        cfg.pools.clone(),
        None,
        cfg.max_batch,
        cfg.accel.clock_ghz,
    )
}

/// Times `prefill_cost` and `decode_step_cost` — what one memo miss pays
/// the cycle model — on each class's representative shape at the middle
/// of its length ranges. Returns the class-averaged medians in µs.
pub fn cycle_model_us(spec: &TraceSpec) -> (f64, f64) {
    const CALLS: usize = 15;
    let cfg = SpAttenConfig::default();
    let (mut prefill, mut decode) = (0.0, 0.0);
    for class in &spec.classes {
        let len = (class.seq_len.0 + class.seq_len.1) / 2;
        let ctx = len + (class.gen_steps.0 + class.gen_steps.1) / 2;
        let rep = representative(&class.template, len);
        let time = |f: &dyn Fn()| {
            let samples: Vec<f64> = (0..CALLS)
                .map(|_| {
                    let t = Instant::now();
                    f();
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            median(&samples)
        };
        prefill += time(&|| {
            std::hint::black_box(prefill_cost(&cfg, std::hint::black_box(&rep)));
        });
        let rep = representative(&class.template, ctx);
        decode += time(&|| {
            std::hint::black_box(decode_step_cost(&cfg, std::hint::black_box(&rep), ctx));
        });
    }
    let n = spec.classes.len() as f64;
    (prefill / n, decode / n)
}

/// How the tracer samples, and what tracing was measured to cost.
fn tracer_json(cost: SpanCost) -> String {
    JsonObject::new()
        .u64("sample_every", SAMPLE_EVERY)
        .f64("span_inside_ns", cost.inside_ns)
        .f64("span_outside_ns", cost.outside_ns)
        .f64("span_untimed_ns", cost.untimed_ns)
        .build()
}

/// Fills the ledger-derived layers from one traced repetition's ledger.
fn fill_ledger(layers: &mut Layers, l: &Ledger, events: u64) {
    layers.engine_events = events;
    layers.engine_self_s = l.self_s(Layer::Engine);
    layers.engine_self_ns_per_event = layers.engine_self_s * 1e9 / events.max(1) as f64;
    layers.route = (l.calls(Layer::Route), l.self_s(Layer::Route));
    layers.admit = (l.calls(Layer::Admit), l.self_s(Layer::Admit));
    layers.batch = (l.calls(Layer::Batch), l.self_s(Layer::Batch));
    layers.preempt = (l.calls(Layer::Preempt), l.self_s(Layer::Preempt));
    layers.cost_calls = l.cost_calls;
    layers.cost_self_s = l.self_s(Layer::Cost);
    layers.cost_calls_per_event = l.calls(Layer::Cost) as f64 / events.max(1) as f64;
    layers.cost_cold_calls = l.cold_calls;
    layers.cost_cold_s = l.cold_ns * 1e-9;
    layers.cost_hit_ratio = 1.0 - l.cold_calls as f64 / l.memo_calls.max(1) as f64;
    layers.report_build_s = l.self_s(Layer::Report);
}

/// The traced repetitions of a run: the fastest one's ledger and span
/// cost, and how many repetitions disagreed with the first on any count.
#[derive(Default)]
struct Traces {
    first: Option<Ledger>,
    fastest: Option<(f64, Ledger, SpanCost)>,
    mismatches: u64,
}

impl Traces {
    fn add(&mut self, wall_s: f64, ledger: Ledger, cost: SpanCost) {
        match &self.first {
            None => self.first = Some(ledger.clone()),
            Some(f) if f.counts() != ledger.counts() => {
                eprintln!("check: a traced repetition's counts differ from the first's");
                self.mismatches += 1;
            }
            Some(_) => {}
        }
        if self.fastest.as_ref().is_none_or(|(w, ..)| wall_s < *w) {
            self.fastest = Some((wall_s, ledger, cost));
        }
    }
}

/// Counts a report that differs from the first of its kind.
fn check_repeat(first: &mut Option<FleetReport>, report: FleetReport, what: &str) -> u64 {
    match first {
        None => {
            *first = Some(report);
            0
        }
        Some(f) if *f != report => {
            eprintln!("check: a repetition of {what} differs from the first");
            1
        }
        Some(_) => 0,
    }
}

/// Requests per second the steady fleet completes under a saturating
/// closed loop, as `sim_bench` probes it.
fn probe_capacity(cfg: &FleetConfig) -> f64 {
    let probe = TraceSpec::disagg_chat(
        ArrivalSpec::ClosedLoop {
            clients: 64,
            think_s: 0.0,
            requests: 256,
        },
        PROBE_SEED,
    )
    .generate();
    let mut cfg = cfg.clone();
    cfg.sched.mode = SimMode::ParallelRounds { threads: 0 };
    simulate_fleet(&cfg, &probe).throughput_rps
}

/// What `sim-steady` sets up: the offered rate, the trace and its spec,
/// and a cost model pre-warmed for it, with the time each step took.
struct Steady {
    rate: f64,
    spec: TraceSpec,
    trace: Trace,
    cost: CostModel,
    setup_s: f64,
    generate_s: f64,
    prewarm_s: f64,
}

fn set_up_steady(cfg: &FleetConfig, seed: u64, threads: usize) -> Steady {
    let t = Instant::now();
    let rate = probe_capacity(cfg) * STEADY_LOAD;
    let spec = TraceSpec::disagg_chat(
        ArrivalSpec::OpenPoisson {
            rate_rps: rate,
            requests: STEADY_REQUESTS,
        },
        seed,
    );
    let g = Instant::now();
    let trace = spec.generate();
    let generate_s = g.elapsed().as_secs_f64();
    let p = Instant::now();
    let mut cost = cost_model(cfg);
    cost.prewarm(&mut workloads(&trace), threads);
    let prewarm_s = p.elapsed().as_secs_f64();
    Steady {
        rate,
        spec,
        trace,
        cost,
        setup_s: t.elapsed().as_secs_f64(),
        generate_s,
        prewarm_s,
    }
}

/// `sim-steady`: the disaggregated chat trace at 90% of probed capacity,
/// replayed again and again through `fleet_engine_policy` on a pre-warmed
/// cost model. Every figure is the best over the run's repetitions (see
/// `perfbench/README.md` on host noise); set-ups are spread over the run.
pub fn steady(args: &Args) -> Outcome {
    let cfg = steady_fleet();
    let threads = SimMode::ParallelRounds { threads: 0 }.threads();
    let s = set_up_steady(&cfg, args.seed, threads);
    let mut setups = vec![(s.setup_s, s.generate_s, s.prewarm_s)];
    let plain = || {
        fleet_engine_policy(
            s.cost.clone(),
            cfg.chips,
            cfg.policy,
            &cfg.sched,
            cfg.pools.clone(),
            None,
            cfg.max_batch,
            cfg.accel.clock_ghz,
        )
    };

    let window = Duration::from_secs_f64(args.seconds);
    let setup_every = window / SETUP_REPS as u32;
    let start = Instant::now();
    let (mut attempted, mut failed, mut reps) = (0, 0, 0);
    let mut first: Option<FleetReport> = None;
    let mut best_wall = f64::INFINITY;
    let mut best_arrival_ns: Vec<f64> = Vec::new();
    let mut best_drain_ns = f64::INFINITY;
    let mut traces = Traces::default();
    let mut best_to_json = f64::INFINITY;
    while reps < MIN_REPS || start.elapsed() < window {
        reps += 1;
        if setups.len() < SETUP_REPS && start.elapsed() >= setup_every * setups.len() as u32 {
            let again = set_up_steady(&cfg, args.seed, threads);
            setups.push((again.setup_s, again.generate_s, again.prewarm_s));
        }
        let run = replay(plain(), &s.trace, None);
        attempted += 1;
        failed += check(&run.report, &s.trace);
        best_wall = best_wall.min(run.wall_s);
        best_drain_ns = best_drain_ns.min(run.drain_ns);
        if best_arrival_ns.is_empty() {
            best_arrival_ns = run.arrival_ns;
        } else {
            for (best, ns) in best_arrival_ns.iter_mut().zip(run.arrival_ns) {
                *best = best.min(ns);
            }
        }
        if args.trace {
            let tracer = Tracer::new(cfg.chip_configs.as_deref().expect("listed chips"));
            tracer.mark_prewarmed(workloads(&s.trace));
            let engine = traced_engine(&cfg, s.cost.clone(), &tracer);
            let traced = replay(engine, &s.trace, Some(&tracer));
            attempted += 1;
            if traced.report != run.report {
                eprintln!("check: traced report differs from the untraced one");
                failed += 1;
            }
            traces.add(traced.wall_s, tracer.ledger(), tracer.span_cost());
            let t = Instant::now();
            std::hint::black_box(run.report.to_json());
            best_to_json = best_to_json.min(t.elapsed().as_secs_f64());
        }
        failed += check_repeat(&mut first, run.report, "the replay");
    }
    let report = first.expect("at least one repetition");
    let counts = Counts::of(&report);
    let best = |i: fn(&(f64, f64, f64)) -> f64| min(&setups.iter().map(i).collect::<Vec<_>>());
    let mut detail = JsonObject::new()
        .u64("requests", STEADY_REQUESTS as u64)
        .f64("offered_rps", s.rate)
        .u64("repetitions", reps as u64)
        .u64("setups", setups.len() as u64)
        .u64("prewarm_threads", threads as u64)
        .str(
            "throughput",
            "simulated events per host second, each step at its best over the replays",
        )
        .str(
            "latency",
            "host time to advance the engine past one arrival, best over the replays",
        );
    let metrics = if args.trace {
        let (traced_wall, ledger, span_cost) = traces.fastest.as_ref().expect("traced repetitions");
        failed += traces.mismatches;
        let mut layers = Layers::default();
        fill_ledger(&mut layers, ledger, report.sim_events);
        counts.fill(&mut layers);
        layers.generate_s = best(|s| s.1);
        layers.prewarm_s = best(|s| s.2);
        (layers.cycle_prefill_us, layers.cycle_decode_us) = cycle_model_us(&s.spec);
        layers.report_to_json_s = best_to_json;
        layers.tracing_overhead_frac = traced_wall / best_wall - 1.0;
        detail = detail
            .raw("fingerprint", &counts.json(Some(ledger)))
            .raw("tracer", &tracer_json(*span_cost));
        layers.metrics()
    } else {
        let arrivals = sorted(best_arrival_ns.iter().map(|ns| ns * 1e-6).collect());
        detail = detail.raw("fingerprint", &counts.json(None));
        // A replay is its arrival steps plus the final drain; each is
        // taken at its best, as each sweep cell is.
        let best_replay_ns = best_arrival_ns.iter().sum::<f64>() + best_drain_ns;
        EndToEnd {
            throughput_per_s: report.sim_events as f64 / (best_replay_ns * 1e-9),
            latency_p50_ms: p50(&arrivals),
            latency_tail_ms: tail(&arrivals),
            setup_s: best(|s| s.0),
            rss_peak_mb: rss_peak_mb(),
        }
        .metrics(&mut detail)
    };
    Outcome {
        attempted,
        failed,
        metrics,
        detail,
    }
}

/// One cell of the sweep.
struct Cell {
    policy: Policy,
    trace: usize,
}

/// `sim-sweep`: every canonical policy under an open-loop and a
/// closed-loop mix, each cell a fresh `simulate_fleet` on a cold oracle.
/// The sweep repeats for the whole run; each cell's figure is its best
/// time. Trace generation, this workload's set-up, is redone and timed
/// before every sweep.
pub fn sweep(args: &Args) -> Outcome {
    let arrivals = [
        ArrivalSpec::OpenPoisson {
            rate_rps: SWEEP_RATE_RPS,
            requests: SWEEP_REQUESTS,
        },
        ArrivalSpec::ClosedLoop {
            clients: SWEEP_CLIENTS,
            think_s: SWEEP_THINK_S,
            requests: SWEEP_REQUESTS,
        },
    ];
    let cells: Vec<Cell> = Policy::ALL
        .into_iter()
        .flat_map(|policy| (0..arrivals.len()).map(move |trace| Cell { policy, trace }))
        .collect();
    let configs: Vec<FleetConfig> = cells.iter().map(|c| sweep_fleet(c.policy)).collect();

    let window = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let (mut attempted, mut failed, mut sweeps) = (0, 0, 0);
    let mut setup = Vec::new();
    let mut firsts: Vec<Option<FleetReport>> = cells.iter().map(|_| None).collect();
    let mut best_cell_s = vec![f64::INFINITY; cells.len()];
    let mut traces = Traces::default();
    let (mut best_untraced, mut best_to_json) = (f64::INFINITY, f64::INFINITY);
    while sweeps < MIN_REPS || start.elapsed() < window {
        sweeps += 1;
        let t = Instant::now();
        let inputs: Vec<Trace> = arrivals
            .iter()
            .map(|&a| sweep_spec(a, args.seed).generate())
            .collect();
        setup.push(t.elapsed().as_secs_f64());
        let (mut untraced_s, mut traced_s, mut json_s) = (0.0, 0.0, 0.0);
        let mut ledger = Ledger::default();
        let mut span_cost = SpanCost::default();
        for (i, (cell, cfg)) in cells.iter().zip(&configs).enumerate() {
            let trace = &inputs[cell.trace];
            let t = Instant::now();
            let report = simulate_fleet(cfg, trace);
            let s = t.elapsed().as_secs_f64();
            untraced_s += s;
            best_cell_s[i] = best_cell_s[i].min(s);
            attempted += 1;
            failed += check(&report, trace);
            if args.trace {
                let tracer = Tracer::new(cfg.chip_configs.as_deref().expect("listed chips"));
                let engine = traced_engine(cfg, cost_model(cfg), &tracer);
                let traced = replay(engine, trace, Some(&tracer));
                attempted += 1;
                if traced.report != report {
                    eprintln!(
                        "check: traced {} cell differs from simulate_fleet",
                        cell.policy.name()
                    );
                    failed += 1;
                }
                traced_s += traced.wall_s;
                ledger.add(&tracer.ledger());
                span_cost = tracer.span_cost();
                let t = Instant::now();
                std::hint::black_box(report.to_json());
                json_s += t.elapsed().as_secs_f64();
            }
            failed += check_repeat(&mut firsts[i], report, cell.policy.name());
        }
        best_untraced = best_untraced.min(untraced_s);
        if args.trace {
            best_to_json = best_to_json.min(json_s);
            traces.add(traced_s, ledger, span_cost);
        }
    }
    let firsts: Vec<FleetReport> = firsts.into_iter().flatten().collect();
    let mut counts = Counts::default();
    for r in &firsts {
        counts.add(&Counts::of(r));
    }
    let mut detail = JsonObject::new()
        .u64("cells", cells.len() as u64)
        .u64("requests_per_cell", SWEEP_REQUESTS as u64)
        .u64("sweeps", sweeps as u64)
        .str(
            "throughput",
            "cells per host second, each cell at its best time",
        )
        .str("latency", "host time of one cell, best of the sweeps")
        .raw(
            "cell_sim_events",
            &spatten_serve::json::array(firsts.iter().map(|r| r.sim_events.to_string())),
        );
    let metrics = if args.trace {
        let (traced_s, ledger, span_cost) = traces.fastest.as_ref().expect("traced sweeps");
        failed += traces.mismatches;
        let mut layers = Layers::default();
        fill_ledger(&mut layers, ledger, counts.sim_events);
        counts.fill(&mut layers);
        layers.generate_s = min(&setup);
        (layers.cycle_prefill_us, layers.cycle_decode_us) =
            cycle_model_us(&sweep_spec(arrivals[0], args.seed));
        layers.report_to_json_s = best_to_json;
        layers.tracing_overhead_frac = traced_s / best_untraced - 1.0;
        detail = detail
            .raw("fingerprint", &counts.json(Some(ledger)))
            .raw("tracer", &tracer_json(*span_cost));
        layers.metrics()
    } else {
        let cell_ms = sorted(best_cell_s.iter().map(|s| s * 1e3).collect());
        detail = detail.raw("fingerprint", &counts.json(None));
        EndToEnd {
            throughput_per_s: cells.len() as f64 / best_cell_s.iter().sum::<f64>(),
            latency_p50_ms: p50(&cell_ms),
            latency_tail_ms: tail(&cell_ms),
            setup_s: min(&setup),
            rss_peak_mb: rss_peak_mb(),
        }
        .metrics(&mut detail)
    };
    Outcome {
        attempted,
        failed,
        metrics,
        detail,
    }
}
