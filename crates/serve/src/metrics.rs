//! Metrics aggregation: throughput, utilization, latency percentiles,
//! and per-class SLO accounting (goodput, violations, rejections).

use crate::elastic::ElasticChipStats;
use crate::json::{array, JsonObject};
use crate::kv::KvStats;
use crate::request::{Completion, Rejection};

/// Latency distribution summary in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Maximum.
    pub max: f64,
}

impl Percentiles {
    /// Nearest-rank percentiles of `samples` (cycles), scaled to seconds at
    /// `clock_ghz`. Returns zeros for an empty sample set.
    pub fn from_cycles(samples: &[u64], clock_ghz: f64) -> Self {
        if samples.is_empty() {
            return Self {
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
                mean: 0.0,
                max: 0.0,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let scale = 1.0 / (clock_ghz * 1e9);
        let rank = |p: f64| -> f64 {
            let idx = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
            sorted[idx.clamp(1, sorted.len()) - 1] as f64 * scale
        };
        let mean = sorted.iter().map(|&c| c as f64).sum::<f64>() / sorted.len() as f64 * scale;
        Self {
            p50: rank(50.0),
            p95: rank(95.0),
            p99: rank(99.0),
            mean,
            max: *sorted.last().expect("non-empty") as f64 * scale,
        }
    }

    fn to_json(self) -> String {
        JsonObject::new()
            .f64("p50_s", self.p50)
            .f64("p95_s", self.p95)
            .f64("p99_s", self.p99)
            .f64("mean_s", self.mean)
            .f64("max_s", self.max)
            .build()
    }
}

/// Per-chip accounting carried into the report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipStats {
    /// Chip index.
    pub id: usize,
    /// Cycles spent executing rounds.
    pub busy_cycles: u64,
    /// Rounds executed.
    pub rounds: u64,
    /// Mean resident jobs over busy time.
    pub mean_occupancy: f64,
    /// High-water mark of KV SRAM bytes in use.
    pub max_kv_in_use: u64,
    /// Preemption evictions this chip performed.
    pub evictions: u64,
    /// Cycles spent swapping preempted KV state to and from HBM (a
    /// subset of `busy_cycles`).
    pub swap_cycles: u64,
    /// Jobs this chip stole from backlogged peers' private queues.
    pub steals: u64,
    /// Victim-side serial-cycle backlog those steals relieved.
    pub stolen_cycles: u64,
    /// Prefill→decode handoffs this chip *originated* (disaggregation;
    /// zero on co-located fleets).
    pub handoffs: u64,
    /// Payload bytes those handoffs shipped: unique dirty blocks plus
    /// cold prefix blocks, after pruning and warm-prefix discounts.
    pub handoff_bytes: u64,
    /// Transfer cycles charged to this chip's rounds for handoffs it
    /// participated in, as source or target (a subset of `busy_cycles`
    /// once the charged round runs).
    pub handoff_cycles: u64,
    /// Page-accounting counters from the chip's [`crate::kv::KvPager`];
    /// all-zero under the contiguous KV model.
    pub kv: KvStats,
    /// Elasticity counters (online time, weight loads, joins/leaves);
    /// on a fixed fleet every chip is online for the whole makespan and
    /// the event counters are zero.
    pub elastic: ElasticChipStats,
}

/// Per-request-class accounting: latency, decode cadence, and the SLO
/// ledger (goodput = deadline-meeting completions per second; rejections
/// are requests SLO-aware admission shed before they touched a chip).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassStats {
    /// Index into the trace spec's class list.
    pub class: usize,
    /// The scheduling priority tier the class's requests carried.
    pub priority: u8,
    /// Requests of this class that completed.
    pub completed: usize,
    /// Requests shed by SLO-aware early rejection.
    pub rejected: usize,
    /// Completions that finished past their deadline.
    pub violations: usize,
    /// Completions that were preempted at least once on the way.
    pub preempted: usize,
    /// Total preemption events the class's requests absorbed.
    pub preemptions: u64,
    /// Deadline-meeting completions per second of simulated time (equals
    /// the class's throughput when it carries no SLO).
    pub goodput_rps: f64,
    /// End-to-end latency distribution.
    pub latency: Percentiles,
    /// Time-between-tokens distribution (decode cadence; zeros for
    /// discriminative classes).
    pub tbt: Percentiles,
}

impl ClassStats {
    fn to_json(&self) -> String {
        JsonObject::new()
            .u64("class", self.class as u64)
            .u64("priority", u64::from(self.priority))
            .u64("completed", self.completed as u64)
            .u64("rejected", self.rejected as u64)
            .u64("violations", self.violations as u64)
            .u64("preempted", self.preempted as u64)
            .u64("preemptions", self.preemptions)
            .f64("goodput_rps", self.goodput_rps)
            .raw("latency", &self.latency.to_json())
            .raw("tbt", &self.tbt.to_json())
            .build()
    }
}

/// Everything one fleet simulation produced.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Scheduling policy name.
    pub policy: String,
    /// Number of chips.
    pub chips: usize,
    /// Core clock, GHz.
    pub clock_ghz: f64,
    /// Requests completed (every trace request not shed by admission).
    pub completed: usize,
    /// Requests shed by SLO-aware early rejection (never ran).
    pub rejected: usize,
    /// Completions that finished past their deadline.
    pub slo_violations: usize,
    /// Preemption eviction events across the fleet.
    pub preemptions: u64,
    /// Whether preemption was requested but structurally could not fire:
    /// a run-to-completion batch policy holds one resident per chip, so
    /// free slots always remain and the preemption policy never sees a
    /// blocked job. When this is `true` the run's "preemptive" numbers
    /// are identical to the non-preemptive ones by construction — a
    /// sweep comparing them is comparing a policy to itself.
    pub preemption_inert: bool,
    /// Discrete events the simulator processed (arrivals, round ends,
    /// handoff deliveries) — the denominator behind events-per-second
    /// wall-clock throughput in bench reports. Set by the event loop
    /// after construction; 0 for hand-built reports.
    pub sim_events: u64,
    /// Simulated makespan in cycles (last completion).
    pub makespan_cycles: u64,
    /// Completed requests per second of simulated time.
    pub throughput_rps: f64,
    /// Deadline-meeting completions per second of simulated time.
    pub goodput_rps: f64,
    /// Tokens (prefill + generated) per second of simulated time.
    pub tokens_per_sec: f64,
    /// Mean fraction of makespan chips spent busy.
    pub utilization: f64,
    /// End-to-end latency distribution.
    pub latency: Percentiles,
    /// Queueing-delay distribution.
    pub queue_wait: Percentiles,
    /// Time-to-first-token distribution.
    pub ttft: Percentiles,
    /// Time-between-tokens distribution over generative completions (the
    /// decode-latency statistic decode-prioritized batching optimizes).
    pub tbt: Percentiles,
    /// KV packing budget (bytes) the batcher filled against.
    pub kv_budget_bytes: u64,
    /// Per-class accounting.
    pub class_stats: Vec<ClassStats>,
    /// Per-chip stats.
    pub chip_stats: Vec<ChipStats>,
    /// The raw completion records.
    pub completions: Vec<Completion>,
    /// The raw rejection records.
    pub rejections: Vec<Rejection>,
}

impl FleetReport {
    /// Builds the report from raw completions, rejections and chip
    /// accounting.
    pub fn new(
        policy: &str,
        chips: usize,
        clock_ghz: f64,
        kv_budget_bytes: u64,
        completions: Vec<Completion>,
        rejections: Vec<Rejection>,
        chip_stats: Vec<ChipStats>,
    ) -> Self {
        let makespan_cycles = completions
            .iter()
            .map(|c| c.finish_cycles)
            .max()
            .unwrap_or(0);
        let seconds = makespan_cycles as f64 / (clock_ghz * 1e9);
        let total_tokens: u64 = completions.iter().map(Completion::tokens).sum();
        let latencies: Vec<u64> = completions.iter().map(Completion::latency_cycles).collect();
        let waits: Vec<u64> = completions.iter().map(Completion::wait_cycles).collect();
        let ttfts: Vec<u64> = completions.iter().map(Completion::ttft_cycles).collect();
        let tbts: Vec<u64> = completions
            .iter()
            .filter_map(Completion::tbt_cycles)
            .collect();
        let in_slo = completions.iter().filter(|c| c.met_deadline()).count();
        let preemptions: u64 = completions.iter().map(|c| u64::from(c.preemptions)).sum();
        let busy: u64 = chip_stats.iter().map(|c| c.busy_cycles).sum();
        let utilization = if makespan_cycles == 0 {
            0.0
        } else {
            busy as f64 / (makespan_cycles as f64 * chips as f64)
        };
        let per_sec = |n: usize| {
            if seconds > 0.0 {
                n as f64 / seconds
            } else {
                0.0
            }
        };
        let class_stats = Self::class_stats(&completions, &rejections, clock_ghz, seconds);
        Self {
            policy: policy.to_string(),
            chips,
            clock_ghz,
            completed: completions.len(),
            rejected: rejections.len(),
            slo_violations: completions.len() - in_slo,
            preemptions,
            preemption_inert: false,
            sim_events: 0,
            makespan_cycles,
            throughput_rps: per_sec(completions.len()),
            goodput_rps: per_sec(in_slo),
            tokens_per_sec: if seconds > 0.0 {
                total_tokens as f64 / seconds
            } else {
                0.0
            },
            utilization,
            latency: Percentiles::from_cycles(&latencies, clock_ghz),
            queue_wait: Percentiles::from_cycles(&waits, clock_ghz),
            ttft: Percentiles::from_cycles(&ttfts, clock_ghz),
            tbt: Percentiles::from_cycles(&tbts, clock_ghz),
            kv_budget_bytes,
            class_stats,
            chip_stats,
            completions,
            rejections,
        }
    }

    fn class_stats(
        completions: &[Completion],
        rejections: &[Rejection],
        clock_ghz: f64,
        seconds: f64,
    ) -> Vec<ClassStats> {
        let classes = completions
            .iter()
            .map(|c| c.class + 1)
            .chain(rejections.iter().map(|r| r.class + 1))
            .max()
            .unwrap_or(0);
        (0..classes)
            .map(|class| {
                let mine: Vec<&Completion> =
                    completions.iter().filter(|c| c.class == class).collect();
                let rejected = rejections.iter().filter(|r| r.class == class).count();
                let in_slo = mine.iter().filter(|c| c.met_deadline()).count();
                let latencies: Vec<u64> = mine.iter().map(|c| c.latency_cycles()).collect();
                let tbts: Vec<u64> = mine.iter().filter_map(|c| c.tbt_cycles()).collect();
                let priority = mine
                    .first()
                    .map(|c| c.priority)
                    .or_else(|| {
                        rejections
                            .iter()
                            .find(|r| r.class == class)
                            .map(|r| r.priority)
                    })
                    .unwrap_or(0);
                ClassStats {
                    class,
                    priority,
                    completed: mine.len(),
                    rejected,
                    violations: mine.len() - in_slo,
                    preempted: mine.iter().filter(|c| c.preemptions > 0).count(),
                    preemptions: mine.iter().map(|c| u64::from(c.preemptions)).sum(),
                    goodput_rps: if seconds > 0.0 {
                        in_slo as f64 / seconds
                    } else {
                        0.0
                    },
                    latency: Percentiles::from_cycles(&latencies, clock_ghz),
                    tbt: Percentiles::from_cycles(&tbts, clock_ghz),
                }
            })
            .collect()
    }

    /// Mean batch occupancy across chips, weighted by busy time.
    pub fn mean_occupancy(&self) -> f64 {
        let busy: u64 = self.chip_stats.iter().map(|c| c.busy_cycles).sum();
        if busy == 0 {
            return 0.0;
        }
        self.chip_stats
            .iter()
            .map(|c| c.mean_occupancy * c.busy_cycles as f64)
            .sum::<f64>()
            / busy as f64
    }

    /// Serializes the report (without raw completions) as a JSON object.
    pub fn to_json(&self) -> String {
        let chips = array(self.chip_stats.iter().map(|c| {
            JsonObject::new()
                .u64("id", c.id as u64)
                .u64("busy_cycles", c.busy_cycles)
                .u64("rounds", c.rounds)
                .f64("mean_occupancy", c.mean_occupancy)
                .u64("max_kv_in_use_bytes", c.max_kv_in_use)
                .u64("evictions", c.evictions)
                .u64("swap_cycles", c.swap_cycles)
                .u64("steals", c.steals)
                .u64("stolen_cycles", c.stolen_cycles)
                .u64("handoffs", c.handoffs)
                .u64("handoff_bytes", c.handoff_bytes)
                .u64("handoff_cycles", c.handoff_cycles)
                .u64("kv_blocks_allocated", c.kv.blocks_allocated)
                .u64("kv_blocks_freed", c.kv.blocks_freed)
                .u64("kv_blocks_reclaimed", c.kv.blocks_reclaimed)
                .u64("kv_shared_hits", c.kv.shared_hits)
                .u64("kv_cache_evicted_blocks", c.kv.cache_evicted_blocks)
                .u64("online_cycles", c.elastic.online_cycles)
                .u64("weight_load_cycles", c.elastic.weight_load_cycles)
                .u64("leaves", c.elastic.leaves)
                .u64("revoked_jobs", c.elastic.revoked_jobs)
                .u64("joins", c.elastic.joins)
                .build()
        }));
        let classes = array(self.class_stats.iter().map(ClassStats::to_json));
        JsonObject::new()
            .str("policy", &self.policy)
            .u64("chips", self.chips as u64)
            .f64("clock_ghz", self.clock_ghz)
            .u64("completed", self.completed as u64)
            .u64("rejected", self.rejected as u64)
            .u64("slo_violations", self.slo_violations as u64)
            .u64("preemptions", self.preemptions)
            .bool("preemption_inert", self.preemption_inert)
            .u64("sim_events", self.sim_events)
            .u64("handoffs", self.chip_stats.iter().map(|c| c.handoffs).sum())
            .u64(
                "handoff_bytes",
                self.chip_stats.iter().map(|c| c.handoff_bytes).sum(),
            )
            .u64(
                "online_chip_cycles",
                self.chip_stats
                    .iter()
                    .map(|c| c.elastic.online_cycles)
                    .sum(),
            )
            .u64(
                "weight_load_cycles",
                self.chip_stats
                    .iter()
                    .map(|c| c.elastic.weight_load_cycles)
                    .sum(),
            )
            .u64(
                "revoked_jobs",
                self.chip_stats.iter().map(|c| c.elastic.revoked_jobs).sum(),
            )
            .u64("makespan_cycles", self.makespan_cycles)
            .f64(
                "makespan_s",
                self.makespan_cycles as f64 / (self.clock_ghz * 1e9),
            )
            .f64("throughput_rps", self.throughput_rps)
            .f64("goodput_rps", self.goodput_rps)
            .f64("tokens_per_sec", self.tokens_per_sec)
            .f64("utilization", self.utilization)
            .f64("mean_batch_occupancy", self.mean_occupancy())
            .u64("kv_budget_bytes", self.kv_budget_bytes)
            .raw("latency", &self.latency.to_json())
            .raw("queue_wait", &self.queue_wait.to_json())
            .raw("ttft", &self.ttft.to_json())
            .raw("tbt", &self.tbt.to_json())
            .raw("per_class", &classes)
            .raw("per_chip", &chips)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        let p = Percentiles::from_cycles(&samples, 1.0);
        assert!((p.p50 - 50e-9).abs() < 1e-15);
        assert!((p.p95 - 95e-9).abs() < 1e-15);
        assert!((p.p99 - 99e-9).abs() < 1e-15);
        assert!((p.max - 100e-9).abs() < 1e-15);
        assert!(p.p50 <= p.p95 && p.p95 <= p.p99 && p.p99 <= p.max);
    }

    #[test]
    fn empty_samples_are_zero() {
        let p = Percentiles::from_cycles(&[], 1.0);
        assert_eq!(p.p99, 0.0);
        assert_eq!(p.mean, 0.0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let p = Percentiles::from_cycles(&[1_000_000_000], 1.0);
        assert!((p.p50 - 1.0).abs() < 1e-12);
        assert!((p.p99 - 1.0).abs() < 1e-12);
    }

    fn completion(
        class: usize,
        finish: u64,
        deadline: Option<u64>,
        generated: usize,
    ) -> Completion {
        Completion {
            id: finish,
            class,
            priority: class as u8,
            client: None,
            chip: 0,
            arrival_cycles: 0,
            start_cycles: 10,
            finish_cycles: finish,
            first_token_cycles: finish.min(1000),
            deadline_cycles: deadline,
            preemptions: if class == 1 { 2 } else { 0 },
            prefill_tokens: 64,
            generated_tokens: generated,
            revoked: false,
        }
    }

    #[test]
    fn slo_ledger_counts_violations_goodput_and_rejections() {
        let completions = vec![
            completion(0, 1_000_000, Some(2_000_000), 0), // met
            completion(0, 3_000_000, Some(2_000_000), 0), // violated
            completion(1, 2_000_000, None, 10),           // best-effort
        ];
        let rejections = vec![Rejection {
            id: 99,
            class: 0,
            priority: 0,
            client: None,
            arrival_cycles: 0,
            reject_cycles: 500,
            deadline_cycles: Some(100),
        }];
        let r = FleetReport::new("test", 1, 1.0, 0, completions, rejections, vec![]);
        assert_eq!(r.completed, 3);
        assert_eq!(r.rejected, 1);
        assert_eq!(r.slo_violations, 1);
        assert!(r.goodput_rps < r.throughput_rps);
        assert_eq!(r.class_stats.len(), 2);
        assert_eq!(r.class_stats[0].completed, 2);
        assert_eq!(r.class_stats[0].rejected, 1);
        assert_eq!(r.class_stats[0].violations, 1);
        assert_eq!(r.class_stats[1].violations, 0);
        // Only the generative class has a decode cadence.
        assert_eq!(r.class_stats[0].tbt.p99, 0.0);
        assert!(r.class_stats[1].tbt.p99 > 0.0);
        assert!(r.tbt.p99 > 0.0);
        // Priority and the preemption ledger ride per class.
        assert_eq!(r.class_stats[0].priority, 0);
        assert_eq!(r.class_stats[1].priority, 1);
        assert_eq!(r.class_stats[1].preempted, 1);
        assert_eq!(r.class_stats[1].preemptions, 2);
        assert_eq!(r.preemptions, 2);
    }
}
