//! Preemptive, priority-aware scheduling on a heterogeneous fleet.
//!
//! A mixed fleet (2 Table-I chips + 2 eighth-scale chips) serves two
//! tiers of traffic at ~2× its sustainable rate: latency-sensitive BERT
//! summarization requests at priority 2 riding over a heavy tier of
//! low-priority GPT-2 batch generations. Three schedulers compete on the
//! same trace:
//!
//! 1. **continuous batching** — the chip-agnostic baseline: a shared
//!    queue in arrival order, no priorities. Interactive requests wait
//!    behind every batch generation that arrived first.
//! 2. **priority admission** — the queue drains highest-priority first,
//!    but residents are never disturbed: an interactive request still
//!    waits for a *full* chip to free a slot.
//! 3. **priority admission + preemption** — resident batch jobs can be
//!    evicted mid-decode (KV state swapped through HBM at DRAM
//!    bandwidth, progress preserved — the victim resumes later, nothing
//!    is recomputed), so an interactive arrival claims a packed chip
//!    immediately instead of waiting out a multi-second generation.
//!
//! (Admission-time *routing* — `RouteSpec::FastestChip` — is the
//! complementary tool for the loaded-but-not-saturated regime, where
//! placement rather than contention decides the tail; the `gates` bin's
//! sched suite sweeps both bands.)
//!
//! Run with: `cargo run --release --example preemption`

use spatten::core::SpAttenConfig;
use spatten::serve::{simulate_fleet, FleetConfig, FleetReport, Policy, PreemptSpec};
use spatten::workloads::{ArrivalSpec, TraceSpec};

fn per_class(report: &FleetReport) {
    for class in &report.class_stats {
        let name = if class.priority > 0 {
            "interactive (hi-pri)"
        } else {
            "batch      (lo-pri)"
        };
        println!(
            "    {name}: p50 {:>8.1} ms   p99 {:>8.1} ms   preempted {} jobs ({} evictions)",
            class.latency.p50 * 1e3,
            class.latency.p99 * 1e3,
            class.preempted,
            class.preemptions,
        );
    }
}

fn main() {
    // 2 full-size chips next to 2 eighth-scale ones.
    let chips = vec![
        SpAttenConfig::default(),
        SpAttenConfig::default(),
        SpAttenConfig::eighth(),
        SpAttenConfig::eighth(),
    ];

    // Two-tier traffic at ~2x fleet capacity: 25 % interactive
    // summarization (priority 2), 75 % long batch generations.
    let mut spec = TraceSpec::mixed(
        ArrivalSpec::OpenPoisson {
            rate_rps: 150.0,
            requests: 600,
        },
        20260726,
    );
    spec.classes[0] = spec.classes[0].clone().with_priority(2);
    spec.classes[0].weight = 0.25;
    spec.classes[1].weight = 0.75;
    let trace = spec.generate();
    println!(
        "trace: {} requests at 150 req/s — 25% interactive (priority 2), 75% batch generations",
        trace.len()
    );
    println!("fleet: 2 Table-I chips + 2 eighth-scale chips, overloaded ~2x\n");

    // 1. Chip-agnostic continuous batching (no priorities, no eviction).
    let baseline = simulate_fleet(
        &FleetConfig::with_chips(chips.clone(), Policy::ContinuousBatching),
        &trace,
    );
    println!("continuous batching (shared queue, no preemption):");
    per_class(&baseline);

    // 2. Priority admission only: queue jumping without eviction.
    let admission_only = simulate_fleet(
        &FleetConfig::with_chips(chips.clone(), Policy::Priority),
        &trace,
    );
    println!("\npriority admission (no preemption):");
    per_class(&admission_only);

    // 3. Fully preemptive: priority admission + eviction.
    let mut cfg = FleetConfig::with_chips(chips, Policy::Priority);
    cfg.sched.preempt = PreemptSpec::Priority;
    cfg.sched.max_preemptions = 4; // fairness: a job is evicted at most 4 times
    let preemptive = simulate_fleet(&cfg, &trace);
    println!("\npriority admission + priority preemption:");
    per_class(&preemptive);

    let swap: u64 = preemptive.chip_stats.iter().map(|c| c.swap_cycles).sum();
    println!(
        "\n{} evictions, {:.2} ms of KV swap traffic charged to chip busy time",
        preemptive.preemptions,
        swap as f64 / (preemptive.clock_ghz * 1e6),
    );
    println!(
        "high-priority p99: {:.1} ms -> {:.1} ms ({:.1}x better than continuous batching)",
        baseline.class_stats[0].latency.p99 * 1e3,
        preemptive.class_stats[0].latency.p99 * 1e3,
        baseline.class_stats[0].latency.p99 / preemptive.class_stats[0].latency.p99,
    );
    println!(
        "every batch job still completes: {} + {} = {} of {}",
        preemptive.class_stats[0].completed,
        preemptive.class_stats[1].completed,
        preemptive.completed,
        trace.len(),
    );
}
