//! `serve`: a mixed BERT/GPT-2 trace across a multi-chip fleet under every
//! scheduling policy, at one offered load sized by a capacity probe.

use crate::{closed_loop, conserved, per_sec, Args, Gate, Op, Suite};
use spatten_serve::json::{array, JsonObject};
use spatten_serve::{simulate_fleet, FleetConfig, FleetReport, Policy};
use spatten_workloads::{ArrivalSpec, TraceSpec};

/// The two sides of serve's gate.
#[derive(Default)]
pub struct Measured {
    pub fifo_p99: f64,
    pub cb_p99: f64,
}

/// At the default scale (4 chips, ≥ 1,000 requests) continuous batching
/// wins with a 2–4× margin; a smoke trace's p99 is a near-max statistic.
pub fn gates(m: &Measured, smoke: bool) -> Vec<Gate> {
    if smoke {
        return Vec::new();
    }
    vec![Gate::new(
        "serve.cb_p99_beats_fifo",
        m.cb_p99,
        Op::Lt,
        m.fifo_p99,
    )]
}

pub fn run(args: &Args) -> Suite {
    let wall = std::time::Instant::now();
    let requests = args.requests(1200, 100);
    let chips = args.chips.unwrap_or(4);
    let rate_frac = args.rate_frac.unwrap_or(0.95);
    let seed = args.seed.unwrap_or(20260726);

    // Capacity probe: closed loop, saturating, continuous batching.
    let probe_trace = closed_loop(TraceSpec::mixed, chips * 16, 256.max(chips * 32), seed);
    let probe = simulate_fleet(
        &FleetConfig::new(chips, Policy::ContinuousBatching),
        &probe_trace,
    );
    let capacity_rps = probe.throughput_rps;
    eprintln!(
        "capacity probe: {chips} chips sustain {capacity_rps:.0} req/s ({:.0} tokens/s, \
         occupancy {:.2})",
        probe.tokens_per_sec,
        probe.mean_occupancy()
    );

    // Open-loop comparison at equal offered load.
    let rate_rps = capacity_rps * rate_frac;
    let trace = TraceSpec::mixed(ArrivalSpec::OpenPoisson { rate_rps, requests }, seed).generate();
    eprintln!(
        "open loop: {requests} requests at {rate_rps:.0} req/s offered ({}% of capacity)",
        (rate_frac * 100.0).round()
    );
    let reports: Vec<(Policy, FleetReport)> = Policy::ALL
        .into_iter()
        .map(|policy| {
            let cfg = FleetConfig::new(chips, policy);
            let report = conserved(policy.name(), &trace, false, simulate_fleet(&cfg, &trace));
            eprintln!(
                "{:<20} p50 {:>9.3} ms   p95 {:>9.3} ms   p99 {:>9.3} ms   thru {:>7.0} req/s   \
                 util {:>5.1}%",
                policy.name(),
                report.latency.p50 * 1e3,
                report.latency.p95 * 1e3,
                report.latency.p99 * 1e3,
                report.throughput_rps,
                report.utilization * 100.0
            );
            (policy, report)
        })
        .collect();
    let p99 = |p: Policy| {
        reports
            .iter()
            .find(|(q, _)| *q == p)
            .map(|(_, r)| r.latency.p99)
            .expect("policy simulated")
    };
    let m = Measured {
        fifo_p99: p99(Policy::Fifo),
        cb_p99: p99(Policy::ContinuousBatching),
    };

    // Simulated events over the probe and every policy run (each
    // per-policy report also carries its own `sim_events`).
    let sim_events_total: u64 =
        probe.sim_events + reports.iter().map(|(_, r)| r.sim_events).sum::<u64>();
    let wall_s = wall.elapsed().as_secs_f64();
    let json = JsonObject::new()
        .str("benchmark", "spatten-serve fleet comparison")
        .str("paper", "SpAtten (HPCA 2021) — serving-layer extension")
        .u64("requests", requests as u64)
        .u64("chips", chips as u64)
        .u64("seed", seed)
        .u64("sim_events", sim_events_total)
        .f64("wall_s", wall_s)
        .f64("sim_events_per_sec", per_sec(sim_events_total, wall_s))
        .f64("capacity_probe_rps", capacity_rps)
        .f64("capacity_probe_tokens_per_sec", probe.tokens_per_sec)
        .f64("offered_rps", rate_rps)
        .f64("rate_frac", rate_frac)
        .f64("fifo_p99_s", m.fifo_p99)
        .f64("continuous_batching_p99_s", m.cb_p99)
        .f64("p99_speedup_cb_over_fifo", m.fifo_p99 / m.cb_p99)
        .raw(
            "policies",
            &array(reports.iter().map(|(_, r)| {
                JsonObject::new()
                    .f64("offered_rps", rate_rps)
                    .raw("report", &r.to_json())
                    .build()
            })),
        )
        .build();
    Suite {
        json,
        gates: gates(&m, args.smoke),
        files: Vec::new(),
    }
}
