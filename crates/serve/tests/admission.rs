//! The admission seam's call pattern, pinned end to end: a chip's first
//! admission pass calls the policy even on an empty private queue, so a
//! stateful policy learns of every chip the engine kicks. Later passes
//! over an empty queue skip the call.

use spatten_core::SpAttenConfig;
use spatten_serve::{ns_to_cycles, simulate_fleet, CostModel, FleetConfig, FleetCost, Policy};
use spatten_workloads::{Benchmark, Trace, TraceRequest};

/// A GPT-2 request `id` arriving at `arrival_ns` with latency SLO
/// `slo_ns`.
fn request(id: u64, arrival_ns: u64, slo_ns: Option<u64>) -> TraceRequest {
    let mut workload = Benchmark::gpt2_small_wikitext2().workload();
    workload.seq_len = 256;
    workload.gen_steps = 16;
    TraceRequest {
        id,
        class: 0,
        arrival_ns,
        slo_ns,
        priority: 0,
        shared_prefix_tokens: 0,
        workload,
    }
}

/// On an eighth-scale chip 0 and a Table-I chip 1 sharing one queue,
/// request 0 runs on chip 0 while chip 1 only ever sees empty queues.
/// Request 1 arrives once the fleet is idle again with an SLO only
/// chip 1 can meet. `SloAwareAdmission` sheds a job only when no chip it
/// has seen could meet its deadline, so it must have seen chip 1: chip
/// 1's first pass, over an empty queue, is what introduces it.
#[test]
fn slo_aware_admission_sees_a_chip_that_only_ever_found_empty_queues() {
    let cfg = FleetConfig::with_chips(
        vec![SpAttenConfig::eighth(), SpAttenConfig::default()],
        Policy::SloAware,
    );
    let mut cost = CostModel::heterogeneous(
        vec![SpAttenConfig::eighth(), SpAttenConfig::default()],
        cfg.fc_weight_bits,
    );
    let w = request(0, 0, None).workload;
    let slow = cost.job_serial_on(0, &w);
    let fast = cost.job_serial_on(1, &w);
    assert!(fast < slow, "Table-I {fast} vs eighth-scale {slow} cycles");
    let clock = cfg.accel.clock_ghz;
    let slo_ns = ((fast + slow) / 2) as f64 / clock;
    let slo_cycles = ns_to_cycles(clock, slo_ns as u64);
    assert!(fast < slo_cycles && slo_cycles < slow);
    // Long after request 0 has finished on chip 0.
    let later_ns = (10 * slow) as f64 / clock;
    let trace = Trace::Open {
        requests: vec![
            request(0, 0, None),
            request(1, later_ns as u64, Some(slo_ns as u64)),
        ],
    };
    let report = simulate_fleet(&cfg, &trace);
    assert_eq!(report.completions[0].chip, 0, "request 0 runs on chip 0");
    assert_eq!(report.completed, 2);
    assert_eq!(
        report.rejected, 0,
        "chip 1 could still meet request 1's SLO"
    );
}
