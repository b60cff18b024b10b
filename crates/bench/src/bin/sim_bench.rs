//! Raw simulator-throughput benchmark: how many discrete events per
//! second does the serving core sustain on large traces?
//!
//! Every other serving bench (`sched_bench`, `serve_bench`) measures
//! *policy quality* — tail latency, goodput, handoff bytes — on ~1k
//! request traces. This bench measures the *simulator itself*: wall-clock
//! throughput in simulated events per second, on 10k/100k/1M-request
//! traces, across three representative fleet shapes:
//!
//! * **colo** — 4 full chips, continuous batching, contiguous KV, the
//!   mixed BERT + GPT-2 trace. The cheapest per-event path (no pager, no
//!   pools): an upper bound on raw event-loop speed.
//! * **paged** — 2 full chips, batch-slot cap lifted, paged KV with
//!   copy-on-write prefix sharing, the chat mix. Exercises the pager on
//!   every admission, round and completion.
//! * **disagg** — 4 full chips split 2 prefill + 2 decode, paged KV,
//!   pool-aware routing, the long-prefill/short-decode chat mix.
//!   Exercises routing snapshots, graduate migration and the priced
//!   handoff path.
//!
//! Each (config, size) cell reports `sim_events`, simulation wall time
//! (trace generation is timed separately and excluded) and the derived
//! `sim_events_per_sec` — the figure of merit `BENCH_sim.json` tracks
//! across revisions, RZBENCH-style: the checked-in baseline is the first
//! point of the trajectory, and the enforced floor keeps future PRs from
//! silently regressing it.
//!
//! After the grid, the largest disagg cell is re-run under
//! [`SimMode::ParallelRounds`] and the two [`FleetReport`]s compared with
//! `assert_eq!` — the parallel mode's bit-identical-or-bust contract is
//! enforced on every bench run, and the serial/parallel wall-clock ratio
//! is recorded.
//!
//! Before the grid, a kernel-level point times one cycle-model memo miss
//! — `decode_step_cost` (GPT-2 small, context 1,024) and `prefill_cost`
//! (256 tokens) on the Table-I chip, best of [`KERNEL_CALLS`] — and
//! writes both under `cycle_model`. Full runs must beat the checked-in
//! baselines by [`KERNEL_FLOOR_X`]; smoke runs must be no slower than
//! them.
//!
//! Usage:
//!
//! ```text
//! sim_bench [--smoke] [--max-requests N] [--seed S] [--out FILE]
//!           [--shapes A,B] [--replay FILE]
//! ```
//!
//! `--smoke` caps every cell at 2k requests and relaxes the floor —
//! shared CI runners are noisy — while still enforcing that the
//! simulator clears a conservative events/sec bar. `--out FILE` writes
//! the JSON report to FILE as well as stdout. `--replay FILE` replays a
//! recorded `arrival_ns,class,prefill_tokens,decode_tokens` CSV log
//! (see [`TraceSpec::replay`]) through each selected shape instead of
//! generating Poisson traces; floors are not enforced on replays, whose
//! offered load is whatever the log says it was.

use spatten_core::{decode_step_cost, prefill_cost, SpAttenConfig};
use spatten_serve::json::{array, JsonObject};
use spatten_serve::{
    simulate_fleet, FleetConfig, FleetReport, KvSpec, Policy, PoolSpec, RouteSpec, SimMode,
};
use spatten_workloads::{ArrivalSpec, Benchmark, Trace, TraceSpec, Workload};
use std::hint::black_box;

/// Aggregate events/sec the pre-optimization revision sustained on the
/// 10k/100k cells of this grid (the first point of the
/// `BENCH_sim.json` trajectory, measured on the reference builder; the
/// 1M cells were impractical to run at that revision, which is rather
/// the point).
const BASELINE_EPS: f64 = 574_312.0;
/// Full runs must beat the baseline by this factor.
const FULL_FLOOR_X: f64 = 3.0;
/// Smoke runs (2k-request cells on noisy shared CI runners, where
/// fixed costs dominate) must clear this absolute events/sec bar.
const SMOKE_FLOOR_EPS: f64 = 100_000.0;
/// Best-of-`KERNEL_CALLS` µs of one `decode_step_cost` call (GPT-2 small,
/// context 1,024, Table I) before the HBM stripe accumulator and the
/// allocation-free top-k cost query: the median of 11 runs on a 2-vCPU
/// x86-64 VM (min 918, quartiles 997–1,477 µs).
const BASELINE_DECODE_US: f64 = 1_436.0;
/// Best-of-`KERNEL_CALLS` µs of one `prefill_cost` call (GPT-2 small,
/// 256 tokens, Table I) at the same revision, runs and host (min 542,
/// quartiles 558–975 µs).
const BASELINE_PREFILL_US: f64 = 915.0;
/// Full runs must beat both kernel baselines by this factor; smoke runs
/// must merely not be slower than them.
const KERNEL_FLOOR_X: f64 = 2.0;
/// Calls per kernel point; the fastest one is reported.
const KERNEL_CALLS: usize = 31;

struct Args {
    smoke: bool,
    max_requests: usize,
    seed: u64,
    out: Option<String>,
    /// Shape-name filter (`--shapes colo,disagg`); empty runs all.
    shapes: Vec<String>,
    /// Replay CSV path; `Some` switches the grid to replay mode.
    replay: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        max_requests: usize::MAX,
        seed: 20260808,
        out: None,
        shapes: Vec::new(),
        replay: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--smoke" => args.smoke = true,
            "--max-requests" => args.max_requests = value().parse().expect("--max-requests N"),
            "--seed" => args.seed = value().parse().expect("--seed S"),
            "--out" => args.out = Some(value()),
            "--shapes" => args.shapes = value().split(',').map(str::to_string).collect(),
            "--replay" => args.replay = Some(value()),
            other => panic!("unknown flag {other} (see sim_bench doc comment)"),
        }
    }
    if args.smoke {
        args.max_requests = args.max_requests.min(2_000);
    }
    args
}

/// One fleet shape under test.
struct Shape {
    name: &'static str,
    cfg: FleetConfig,
    /// Builds the request mix for this shape.
    spec: fn(ArrivalSpec, u64) -> TraceSpec,
}

fn shapes() -> Vec<Shape> {
    let colo = FleetConfig::with_chips(
        vec![SpAttenConfig::default(); 4],
        Policy::ContinuousBatching,
    );
    let mut paged = FleetConfig::with_chips(
        vec![SpAttenConfig::default(); 2],
        Policy::ContinuousBatching,
    );
    paged.max_batch = 64;
    paged.sched.kv = KvSpec::paged();
    let mut disagg = FleetConfig::with_chips(
        vec![SpAttenConfig::default(); 4],
        Policy::ContinuousBatching,
    );
    disagg.max_batch = 64;
    disagg.sched.kv = KvSpec::paged();
    disagg.sched.route = RouteSpec::PoolAware;
    disagg.pools = Some(PoolSpec::split(2, 2));
    vec![
        Shape {
            name: "colo",
            cfg: colo,
            spec: TraceSpec::mixed,
        },
        Shape {
            name: "paged",
            cfg: paged,
            spec: TraceSpec::chat,
        },
        Shape {
            name: "disagg",
            cfg: disagg,
            spec: TraceSpec::disagg_chat,
        },
    ]
}

/// One measured cell of the (shape × size) grid.
struct Cell {
    shape: &'static str,
    requests: usize,
    offered_rps: f64,
    seed: u64,
    gen_wall_s: f64,
    sim_wall_s: f64,
    report: FleetReport,
}

impl Cell {
    fn events_per_sec(&self) -> f64 {
        self.report.sim_events as f64 / self.sim_wall_s.max(f64::MIN_POSITIVE)
    }

    fn json(&self) -> String {
        JsonObject::new()
            .str("config", self.shape)
            .u64("requests", self.requests as u64)
            .f64("offered_rps", self.offered_rps)
            .u64("seed", self.seed)
            .u64("sim_events", self.report.sim_events)
            .f64("gen_wall_s", self.gen_wall_s)
            .f64("sim_wall_s", self.sim_wall_s)
            .f64("sim_events_per_sec", self.events_per_sec())
            .u64("completed", self.report.completed as u64)
            .u64("rejected", self.report.rejected as u64)
            .build()
    }
}

fn probe_capacity(cfg: &FleetConfig, spec: fn(ArrivalSpec, u64) -> TraceSpec, seed: u64) -> f64 {
    let probe = spec(
        ArrivalSpec::ClosedLoop {
            clients: 64,
            think_s: 0.0,
            requests: 256,
        },
        seed ^ 0xCAFE,
    )
    .generate();
    simulate_fleet(cfg, &probe).throughput_rps
}

fn run_cell(shape: &Shape, requests: usize, rate: f64, seed: u64) -> Cell {
    let gen_t = std::time::Instant::now();
    let trace = (shape.spec)(
        ArrivalSpec::OpenPoisson {
            rate_rps: rate,
            requests,
        },
        seed,
    )
    .generate();
    let gen_wall_s = gen_t.elapsed().as_secs_f64();
    run_trace_cell(shape, &trace, rate, seed, gen_wall_s)
}

fn run_trace_cell(shape: &Shape, trace: &Trace, rate: f64, seed: u64, gen_wall_s: f64) -> Cell {
    let requests = trace.len();
    let sim_t = std::time::Instant::now();
    let report = simulate_fleet(&shape.cfg, trace);
    let sim_wall_s = sim_t.elapsed().as_secs_f64();
    assert_eq!(
        report.completed + report.rejected,
        trace.len(),
        "{}: lost requests",
        shape.name
    );
    let cell = Cell {
        shape: shape.name,
        requests,
        offered_rps: rate,
        seed,
        gen_wall_s,
        sim_wall_s,
        report,
    };
    eprintln!(
        "{:<8} {:>9} req   {:>12} events   sim {:>8.3} s   gen {:>7.3} s   {:>12.0} events/s",
        cell.shape,
        cell.requests,
        cell.report.sim_events,
        cell.sim_wall_s,
        cell.gen_wall_s,
        cell.events_per_sec()
    );
    cell
}

/// GPT-2 small at `len` tokens with no generation stage — the shape a
/// serving memo miss prices.
fn gpt2_at(len: usize) -> Workload {
    Workload {
        seq_len: len,
        gen_steps: 0,
        ..Benchmark::gpt2_small_wikitext2().workload()
    }
}

/// Fastest of [`KERNEL_CALLS`] timed calls of `f`, in µs.
fn best_us(f: impl Fn()) -> f64 {
    (0..KERNEL_CALLS)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .fold(f64::INFINITY, f64::min)
}

/// Times one cycle-model memo miss per kind on the Table-I chip:
/// `(decode µs, prefill µs)`.
fn time_cycle_model() -> (f64, f64) {
    let cfg = SpAttenConfig::default();
    let decode_w = gpt2_at(1024);
    let prefill_w = gpt2_at(256);
    let decode_us = best_us(|| {
        black_box(decode_step_cost(&cfg, black_box(&decode_w), 1024));
    });
    let prefill_us = best_us(|| {
        black_box(prefill_cost(&cfg, black_box(&prefill_w)));
    });
    (decode_us, prefill_us)
}

fn main() {
    let wall = std::time::Instant::now();
    let args = parse_args();
    let (decode_us, prefill_us) = time_cycle_model();
    let kernel_floor_x = if args.smoke { 1.0 } else { KERNEL_FLOOR_X };
    eprintln!(
        "cycle model: decode@1024 {decode_us:.0} µs ({:.2}x), prefill@256 {prefill_us:.0} µs \
         ({:.2}x) vs baselines {BASELINE_DECODE_US:.0} / {BASELINE_PREFILL_US:.0} µs",
        BASELINE_DECODE_US / decode_us,
        BASELINE_PREFILL_US / prefill_us
    );
    let sizes: Vec<usize> = [10_000usize, 100_000, 1_000_000]
        .into_iter()
        .map(|s| s.min(args.max_requests))
        .collect::<Vec<_>>()
        .into_iter()
        .scan(0usize, |prev, s| {
            // Capping can collapse sizes onto each other; run each once.
            let keep = s != *prev;
            *prev = s;
            Some((keep, s))
        })
        .filter_map(|(keep, s)| keep.then_some(s))
        .collect();

    let replay_csv = args
        .replay
        .as_ref()
        .map(|p| std::fs::read_to_string(p).unwrap_or_else(|e| panic!("--replay {p}: {e}")));
    if let Some(p) = &args.replay {
        eprintln!(
            "sim_bench: replaying {p}, seed {} (grid disabled)",
            args.seed
        );
    } else {
        eprintln!("sim_bench: sizes {sizes:?}, seed {}", args.seed);
    }
    let mut cells: Vec<Cell> = Vec::new();
    let mut parallel: Option<JsonObject> = None;
    for shape in shapes() {
        if !args.shapes.is_empty() && !args.shapes.iter().any(|s| s == shape.name) {
            continue;
        }
        if let Some(csv) = &replay_csv {
            // Replay mode: the recorded log through this shape, offered
            // load derived from the log's own span.
            let gen_t = std::time::Instant::now();
            let spec = (shape.spec)(
                ArrivalSpec::OpenPoisson {
                    rate_rps: 1.0,
                    requests: 1,
                },
                args.seed,
            );
            let trace = spec.replay(csv);
            let gen_wall_s = gen_t.elapsed().as_secs_f64();
            let span_s = match &trace {
                Trace::Open { requests } => {
                    requests.last().map_or(0.0, |r| r.arrival_ns as f64 / 1e9)
                }
                Trace::Closed { .. } => unreachable!("replay traces are open-loop"),
            };
            let rate = trace.len() as f64 / span_s.max(f64::MIN_POSITIVE);
            cells.push(run_trace_cell(&shape, &trace, rate, args.seed, gen_wall_s));
            continue;
        }
        // Offered load at 90% of probed capacity: loaded enough that
        // batches stay full (the hot path this bench exists to time),
        // bounded enough that queues do not grow without limit.
        let capacity = probe_capacity(&shape.cfg, shape.spec, args.seed);
        let rate = capacity * 0.9;
        eprintln!(
            "\n{}: capacity probe sustains {capacity:.0} req/s, offering {rate:.0} req/s",
            shape.name
        );
        for &requests in &sizes {
            cells.push(run_cell(&shape, requests, rate, args.seed));
        }
        // Parallel-mode checkpoint on the disagg shape's largest cell:
        // rerun it under ParallelRounds and demand the report match the
        // serial run bit for bit, recording the wall-clock ratio.
        if shape.name == "disagg" {
            let serial = cells.last().expect("disagg cell just ran");
            let trace = (shape.spec)(
                ArrivalSpec::OpenPoisson {
                    rate_rps: rate,
                    requests: serial.requests,
                },
                args.seed,
            )
            .generate();
            let mut cfg = shape.cfg.clone();
            cfg.sched.mode = SimMode::ParallelRounds { threads: 0 };
            let threads = cfg.sched.mode.threads();
            let par_t = std::time::Instant::now();
            let par_report = simulate_fleet(&cfg, &trace);
            let par_wall_s = par_t.elapsed().as_secs_f64();
            assert_eq!(
                par_report, serial.report,
                "ParallelRounds diverged from the serial report"
            );
            let speedup = serial.sim_wall_s / par_wall_s.max(f64::MIN_POSITIVE);
            eprintln!(
                "disagg parallel ({threads} threads): sim {par_wall_s:>8.3} s vs serial \
                 {:.3} s ({speedup:.2}x), report bit-identical",
                serial.sim_wall_s
            );
            parallel = Some(
                JsonObject::new()
                    .str("config", "disagg")
                    .u64("requests", serial.requests as u64)
                    .u64("threads", threads as u64)
                    .f64("serial_sim_wall_s", serial.sim_wall_s)
                    .f64("parallel_sim_wall_s", par_wall_s)
                    .f64("speedup", speedup)
                    .bool("report_identical", true),
            );
        }
    }

    // Fleet-wide figure of merit: total events over total simulation
    // wall — the number the BENCH_sim.json trajectory tracks.
    let total_events: u64 = cells.iter().map(|c| c.report.sim_events).sum();
    let total_sim_wall: f64 = cells.iter().map(|c| c.sim_wall_s).sum();
    let aggregate_eps = total_events as f64 / total_sim_wall.max(f64::MIN_POSITIVE);
    let wall_s = wall.elapsed().as_secs_f64();
    eprintln!(
        "\naggregate: {total_events} events in {total_sim_wall:.3} s of simulation \
         ({aggregate_eps:.0} events/s); whole bench took {wall_s:.1} s"
    );

    let mut json = JsonObject::new()
        .str("benchmark", "spatten-serve raw simulator throughput")
        .u64("seed", args.seed)
        .bool("smoke", args.smoke)
        .bool("replay", args.replay.is_some())
        .f64("baseline_events_per_sec", BASELINE_EPS)
        .u64("sim_events", total_events)
        .f64("wall_s", wall_s)
        .f64("sim_wall_s", total_sim_wall)
        .f64("sim_events_per_sec", aggregate_eps)
        .f64("speedup_vs_baseline", aggregate_eps / BASELINE_EPS)
        .raw(
            "cycle_model",
            &JsonObject::new()
                .u64("calls", KERNEL_CALLS as u64)
                .f64("decode_us", decode_us)
                .f64("prefill_us", prefill_us)
                .f64("baseline_decode_us", BASELINE_DECODE_US)
                .f64("baseline_prefill_us", BASELINE_PREFILL_US)
                .f64("speedup_decode", BASELINE_DECODE_US / decode_us)
                .f64("speedup_prefill", BASELINE_PREFILL_US / prefill_us)
                .f64("floor_x", kernel_floor_x)
                .build(),
        )
        .raw("cells", &array(cells.iter().map(Cell::json)));
    if let Some(p) = parallel {
        json = json.raw("parallel", &p.build());
    }
    let json = json.build();
    println!("{json}");

    // The enforced floor: full runs must clear FULL_FLOOR_X over the
    // checked-in baseline, smoke runs a conservative absolute bar.
    // Replays carry whatever load the log recorded, so no floor applies.
    if args.replay.is_none() {
        let floor = if args.smoke {
            SMOKE_FLOOR_EPS
        } else {
            BASELINE_EPS * FULL_FLOOR_X
        };
        assert!(
            aggregate_eps >= floor,
            "simulator throughput regressed: {aggregate_eps:.0} events/s is under the \
             {floor:.0} events/s floor ({}; baseline {BASELINE_EPS:.0} events/s)",
            if args.smoke {
                "smoke bar"
            } else {
                "3x the checked-in baseline"
            }
        );
        eprintln!("floor check: {aggregate_eps:.0} events/s >= {floor:.0} events/s — ok");
    }
    // The kernel floor: full runs must beat both cycle-model baselines by
    // KERNEL_FLOOR_X, smoke runs must not be slower than them.
    for (name, us, base) in [
        ("decode", decode_us, BASELINE_DECODE_US),
        ("prefill", prefill_us, BASELINE_PREFILL_US),
    ] {
        assert!(
            us * kernel_floor_x <= base,
            "cycle-model {name} regressed: {us:.0} µs is over the {:.0} µs floor \
             ({kernel_floor_x}x under the {base:.0} µs baseline)",
            base / kernel_floor_x
        );
    }
    eprintln!("kernel floor check: {kernel_floor_x}x under the cycle-model baselines — ok");
    if let Some(path) = &args.out {
        std::fs::write(path, format!("{json}\n")).expect("write --out");
        eprintln!("wrote report to {path}");
    }
}
