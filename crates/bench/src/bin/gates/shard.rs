//! `shard`: tensor- vs pipeline-parallel GPT-2 decode across 1/2/4/8-way
//! chip groups, then tail latency under continuous batching at equal
//! fleet size and on a planner-placed heterogeneous fleet.

use crate::{closed_loop, conserved, per_sec, Args, Gate, Op, Suite};
use spatten_cluster::{
    shard_kv_footprint, simulate_cluster, ClusterConfig, ClusterCostModel, GroupSpec, ShardStrategy,
};
use spatten_core::SpAttenConfig;
use spatten_serve::json::{array, JsonObject};
use spatten_serve::{FleetCost, FleetReport, Policy};
use spatten_workloads::fleet::{FleetSpec, LinkSpec, TopologySpec};
use spatten_workloads::{ArrivalSpec, Benchmark, TraceSpec, Workload};

/// The two sides of shard's gates.
#[derive(Default)]
pub struct Measured {
    pub tp4_speedup: f64,
    /// The largest per-shard KV working set over the whole TP sweep.
    pub kv_per_shard: u64,
    pub kv_budget: u64,
}

/// The cluster layer's acceptance floor.
pub fn gates(m: &Measured, _smoke: bool) -> Vec<Gate> {
    vec![
        Gate::new("shard.tp4_decode_speedup", m.tp4_speedup, Op::Ge, 1.6),
        Gate::new(
            "shard.kv_per_shard_fits",
            m.kv_per_shard as f64,
            Op::Le,
            m.kv_budget as f64,
        ),
    ]
}

/// The decode workload the sweep prices: a chat-sized GPT-2-Small stream.
fn decode_workload() -> Workload {
    let mut w = Benchmark::gpt2_small_wikitext2().workload();
    w.seq_len = 256;
    w.gen_steps = 64;
    w
}

fn group(strategy: ShardStrategy) -> GroupSpec {
    GroupSpec::homogeneous(
        SpAttenConfig::default(),
        strategy,
        TopologySpec::Ring,
        LinkSpec::default(),
    )
}

/// `chips`-chip homogeneous cluster carved into `chips / ways` TP groups.
fn tp_cluster(chips: usize, ways: usize) -> ClusterConfig {
    ClusterConfig::new(
        vec![group(ShardStrategy::tensor(ways)); chips / ways],
        Policy::ContinuousBatching,
    )
}

struct SweepPoint {
    ways: usize,
    tp_tokens_per_s: f64,
    pp_tokens_per_s: f64,
    kv_per_shard_bytes: u64,
}

pub fn run(args: &Args) -> Suite {
    let wall = std::time::Instant::now();
    let requests = args.requests(800, 60);
    let rate_frac = args.rate_frac.unwrap_or(0.85);
    let seed = args.seed.unwrap_or(20260726);
    let w = decode_workload();
    let ctx = w.seq_len + w.gen_steps / 2; // mid-generation context
    let clock_hz = SpAttenConfig::default().clock_ghz * 1e9;
    let sweep: &[usize] = if args.smoke {
        &[1, 2, 4]
    } else {
        &[1, 2, 4, 8]
    };

    // --- 1. Single-stream decode scaling curve. ---
    let tokens_per_s = |group: GroupSpec| -> f64 {
        let mut m = ClusterCostModel::new(vec![group], Some(8));
        clock_hz / m.decode_on(0, &w, ctx).serial_cycles as f64
    };
    let base_tps = tokens_per_s(group(ShardStrategy::tensor(1)));
    let budget = 2 * SpAttenConfig::default().kv_sram_bytes;
    eprintln!("single-stream GPT-2 decode (ctx {ctx}), ring interconnect:");
    eprintln!(
        "{:>5} {:>14} {:>10} {:>14} {:>10} {:>16}",
        "ways", "TP tokens/s", "TP x", "PP tokens/s", "PP x", "KV/shard"
    );
    let curve: Vec<SweepPoint> = sweep
        .iter()
        .map(|&ways| {
            let p = SweepPoint {
                ways,
                tp_tokens_per_s: tokens_per_s(group(ShardStrategy::tensor(ways))),
                pp_tokens_per_s: tokens_per_s(group(ShardStrategy::pipeline_even(
                    w.model.layers,
                    ways,
                    8,
                ))),
                kv_per_shard_bytes: (0..ways)
                    .map(|s| {
                        let strategy = ShardStrategy::tensor(ways);
                        shard_kv_footprint(&SpAttenConfig::default(), &w, &strategy, s)
                    })
                    .max()
                    .expect("nonzero ways"),
            };
            eprintln!(
                "{:>5} {:>14.0} {:>9.2}x {:>14.0} {:>9.2}x {:>10} B ({:>4.1}%)",
                ways,
                p.tp_tokens_per_s,
                p.tp_tokens_per_s / base_tps,
                p.pp_tokens_per_s,
                p.pp_tokens_per_s / base_tps,
                p.kv_per_shard_bytes,
                p.kv_per_shard_bytes as f64 / budget as f64 * 100.0
            );
            p
        })
        .collect();
    let m = Measured {
        tp4_speedup: curve
            .iter()
            .find(|p| p.ways == 4)
            .map(|p| p.tp_tokens_per_s / base_tps)
            .expect("sweep includes 4-way"),
        kv_per_shard: curve
            .iter()
            .map(|p| p.kv_per_shard_bytes)
            .max()
            .unwrap_or(0),
        kv_budget: budget,
    };

    // --- 2. Serving comparison at equal fleet size (8 chips). ---
    let chips = 8;
    let probe_requests = if args.smoke { 48 } else { 192 };
    let probe_trace = closed_loop(TraceSpec::gpt2_decode, chips * 8, probe_requests, seed);
    let probe = simulate_cluster(&tp_cluster(chips, 1), &probe_trace);
    let rate = probe.throughput_rps * rate_frac;
    eprintln!(
        "\ncapacity probe: {chips}x1 sustains {:.0} req/s; offering {rate:.0} req/s \
         as a bursty MMPP stream ({requests} requests)",
        probe.throughput_rps
    );
    // Two-state MMPP averaging `rate`: calm at 0.5x for 200 ms, bursting
    // at 3x for 50 ms (dwell-weighted mean = 1.0x).
    let trace = TraceSpec::gpt2_decode(
        ArrivalSpec::OpenMmpp {
            calm_rps: 0.5 * rate,
            burst_rps: 3.0 * rate,
            mean_calm_s: 0.2,
            mean_burst_s: 0.05,
            requests,
        },
        seed,
    )
    .generate();
    let serving: Vec<(String, usize, FleetReport)> = sweep
        .iter()
        .filter(|&&ways| chips % ways == 0)
        .map(|&ways| {
            let name = format!("{}x tp{}", chips / ways, ways);
            let report = simulate_cluster(&tp_cluster(chips, ways), &trace);
            let report = conserved(&name, &trace, false, report);
            eprintln!(
                "{:<8} p50 {:>9.3} ms   p99 {:>9.3} ms   ttft p99 {:>9.3} ms   thru {:>7.0} req/s",
                name,
                report.latency.p50 * 1e3,
                report.latency.p99 * 1e3,
                report.ttft.p99 * 1e3,
                report.throughput_rps
            );
            (name, ways, report)
        })
        .collect();

    // --- 3. Heterogeneous placement: mixed fleet, planned 2-way groups. ---
    let het = ClusterConfig::carve(
        &FleetSpec::mixed(4, 4),
        &ShardStrategy::tensor(2),
        &w,
        Policy::ContinuousBatching,
    )
    .expect("mixed fleet places 2-way groups");
    let het_report = conserved(
        "heterogeneous",
        &trace,
        false,
        simulate_cluster(&het, &trace),
    );
    eprintln!(
        "{:<8} p50 {:>9.3} ms   p99 {:>9.3} ms   (4 full + 4 eighth chips, planner-placed 2-way TP)",
        "mixed",
        het_report.latency.p50 * 1e3,
        het_report.latency.p99 * 1e3,
    );

    let curve_json = array(curve.iter().map(|p| {
        JsonObject::new()
            .u64("ways", p.ways as u64)
            .f64("tp_tokens_per_s", p.tp_tokens_per_s)
            .f64("tp_speedup", p.tp_tokens_per_s / base_tps)
            .f64("pp_tokens_per_s", p.pp_tokens_per_s)
            .f64("pp_speedup", p.pp_tokens_per_s / base_tps)
            .u64("kv_per_shard_bytes", p.kv_per_shard_bytes)
            .u64("kv_budget_bytes", budget)
            .build()
    }));
    let serving_json = array(serving.iter().map(|(name, ways, r)| {
        JsonObject::new()
            .str("config", name)
            .u64("tp_ways", *ways as u64)
            .raw("report", &r.to_json())
            .build()
    }));
    // Simulated events over the probe and every serving run (each serving
    // report also carries its own `sim_events`).
    let sim_events_total: u64 = probe.sim_events
        + het_report.sim_events
        + serving.iter().map(|(_, _, r)| r.sim_events).sum::<u64>();
    let wall_s = wall.elapsed().as_secs_f64();
    let json = JsonObject::new()
        .str("benchmark", "spatten-cluster sharding sweep")
        .str(
            "paper",
            "SpAtten (HPCA 2021) — cluster-layer extension (TP/PP sharding)",
        )
        .u64("requests", requests as u64)
        .u64("seed", seed)
        .u64("chips", chips as u64)
        .u64("sim_events", sim_events_total)
        .f64("wall_s", wall_s)
        .f64("sim_events_per_sec", per_sec(sim_events_total, wall_s))
        .f64("offered_rps", rate)
        .f64("tp4_decode_speedup", m.tp4_speedup)
        .raw("scaling_curve", &curve_json)
        .raw("serving", &serving_json)
        .raw("heterogeneous", &het_report.to_json())
        .build();
    Suite {
        json,
        gates: gates(&m, args.smoke),
        files: Vec::new(),
    }
}
