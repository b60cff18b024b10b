//! The metrics a run reports, by name and unit, and the result line.

use spatten_serve::json::JsonObject;

use crate::stats::Tail;
use crate::tracer::Method;

/// End-to-end metrics, reported by every workload in an untraced run.
/// Each workload defines its operation (see `perfbench/README.md`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_per_s", "1/s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.tail", "ms"),
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
];

/// Per-layer metrics, reported by every workload in a traced run; a
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("workloads.generate_s", "s"),
    ("cost.prewarm_s", "s"),
    ("engine.events", "count"),
    ("engine.self_s", "s"),
    ("engine.self_ns_per_event", "ns"),
    ("route.calls", "count"),
    ("route.self_s", "s"),
    ("admit.calls", "count"),
    ("admit.self_s", "s"),
    ("batch.calls", "count"),
    ("batch.self_s", "s"),
    ("preempt.calls", "count"),
    ("preempt.self_s", "s"),
    ("cost.calls.prefill_on", "count"),
    ("cost.calls.decode_on", "count"),
    ("cost.calls.footprint_on", "count"),
    ("cost.calls.budget_on", "count"),
    ("cost.calls.swap_cycles_on", "count"),
    ("cost.calls.raw_kv_bytes_on", "count"),
    ("cost.calls.swap_bytes_cycles_on", "count"),
    ("cost.calls.weight_load_cycles_on", "count"),
    ("cost.calls.note_batch", "count"),
    ("cost.self_s", "s"),
    ("cost.calls_per_event", "1/event"),
    ("cost.cold_calls", "count"),
    ("cost.cold_s", "s"),
    ("cost.hit_ratio", "frac"),
    ("cycle_model.prefill_us", "us"),
    ("cycle_model.decode_us", "us"),
    ("report.build_s", "s"),
    ("report.to_json_s", "s"),
    ("kv.blocks_allocated", "count"),
    ("kv.blocks_reclaimed", "count"),
    ("kv.shared_hits", "count"),
    ("disagg.handoffs", "count"),
    ("disagg.handoff_bytes", "B"),
    ("sched.steals", "count"),
    ("sched.preemptions", "count"),
    ("frontd.ingress_lag_ms", "ms"),
    ("frontd.egress_lag_ms", "ms"),
    ("frontd.egress_done_lag_ms", "ms"),
    ("frontd.model_ttft_ms", "ms"),
    ("frontd.model_queue_ms", "ms"),
    ("frontd.tpot_ms.p50", "ms"),
    ("frontd.tpot_ms.tail", "ms"),
    ("frontd.slo_ok_frac", "frac"),
    ("frontd.scrape_ms.p50", "ms"),
    ("loadgen.late_ms.tail", "ms"),
    ("tracing.overhead_frac", "frac"),
];

/// What one run measured.
pub struct Outcome {
    /// Operations attempted: replays, cells, or requests and scrapes.
    pub attempted: u64,
    /// Attempted operations, or correctness checks, that failed.
    pub failed: u64,
    /// Every metric of [`END_TO_END`] or of [`PER_LAYER`], by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Everything else worth keeping: fingerprints, tail percentiles,
    /// per-request spans.
    pub detail: JsonObject,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// of `names` with its unit.
    pub fn result_line(&self, names: &[(&str, &str)]) -> String {
        assert_eq!(names.len(), self.metrics.len(), "one value per metric");
        let mut metrics = JsonObject::new();
        for &(name, unit) in names {
            let (_, value) = self
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("no value for {name}"));
            let m = JsonObject::new().f64("value", *value).str("unit", unit);
            metrics = metrics.raw(name, &m.build());
        }
        JsonObject::new()
            .bool("correct", self.failed == 0)
            .u64("attempted", self.attempted)
            .u64("failed", self.failed)
            .raw("metrics", &metrics.build())
            .build()
    }
}

/// The end-to-end figures of one untraced run.
pub struct EndToEnd {
    pub throughput_per_s: f64,
    pub latency_p50_ms: f64,
    pub latency_tail_ms: Tail,
    pub setup_s: f64,
    pub rss_peak_mb: f64,
}

impl EndToEnd {
    /// The [`END_TO_END`] values; names the tail percentile and its
    /// sample count in `detail`.
    pub fn metrics(self, detail: &mut JsonObject) -> Vec<(&'static str, f64)> {
        let t = self.latency_tail_ms;
        let tail = JsonObject::new()
            .f64("percentile", t.percentile)
            .u64("samples", t.samples as u64)
            .u64("beyond", t.beyond as u64);
        *detail = std::mem::take(detail).raw("latency_tail", &tail.build());
        vec![
            ("throughput_per_s", self.throughput_per_s),
            ("latency_ms.p50", self.latency_p50_ms),
            ("latency_ms.tail", t.value),
            ("setup_s", self.setup_s),
            ("rss_peak_mb", self.rss_peak_mb),
        ]
    }
}

/// The per-layer figures of one traced run; zero where the workload does
/// not reach the layer.
#[derive(Debug, Default)]
pub struct Layers {
    pub generate_s: f64,
    pub prewarm_s: f64,
    pub engine_events: u64,
    pub engine_self_s: f64,
    pub engine_self_ns_per_event: f64,
    /// (calls, self seconds) of each scheduler seam.
    pub route: (u64, f64),
    pub admit: (u64, f64),
    pub batch: (u64, f64),
    pub preempt: (u64, f64),
    pub cost_calls: [u64; 9],
    pub cost_self_s: f64,
    pub cost_calls_per_event: f64,
    pub cost_cold_calls: u64,
    pub cost_cold_s: f64,
    pub cost_hit_ratio: f64,
    pub cycle_prefill_us: f64,
    pub cycle_decode_us: f64,
    pub report_build_s: f64,
    pub report_to_json_s: f64,
    pub kv_blocks_allocated: u64,
    pub kv_blocks_reclaimed: u64,
    pub kv_shared_hits: u64,
    pub handoffs: u64,
    pub handoff_bytes: u64,
    pub steals: u64,
    pub preemptions: u64,
    pub ingress_lag_ms: f64,
    pub egress_lag_ms: f64,
    pub egress_done_lag_ms: f64,
    pub model_ttft_ms: f64,
    pub model_queue_ms: f64,
    pub tpot_p50_ms: f64,
    pub tpot_tail_ms: f64,
    pub slo_ok_frac: f64,
    pub scrape_p50_ms: f64,
    pub late_tail_ms: f64,
    pub tracing_overhead_frac: f64,
}

impl Layers {
    /// The [`PER_LAYER`] values.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let mut v = vec![
            ("workloads.generate_s", self.generate_s),
            ("cost.prewarm_s", self.prewarm_s),
            ("engine.events", self.engine_events as f64),
            ("engine.self_s", self.engine_self_s),
            ("engine.self_ns_per_event", self.engine_self_ns_per_event),
            ("route.calls", self.route.0 as f64),
            ("route.self_s", self.route.1),
            ("admit.calls", self.admit.0 as f64),
            ("admit.self_s", self.admit.1),
            ("batch.calls", self.batch.0 as f64),
            ("batch.self_s", self.batch.1),
            ("preempt.calls", self.preempt.0 as f64),
            ("preempt.self_s", self.preempt.1),
        ];
        for (m, name) in Method::ALL.into_iter().zip(COST_CALLS) {
            v.push((name, self.cost_calls[m as usize] as f64));
        }
        v.extend([
            ("cost.self_s", self.cost_self_s),
            ("cost.calls_per_event", self.cost_calls_per_event),
            ("cost.cold_calls", self.cost_cold_calls as f64),
            ("cost.cold_s", self.cost_cold_s),
            ("cost.hit_ratio", self.cost_hit_ratio),
            ("cycle_model.prefill_us", self.cycle_prefill_us),
            ("cycle_model.decode_us", self.cycle_decode_us),
            ("report.build_s", self.report_build_s),
            ("report.to_json_s", self.report_to_json_s),
            ("kv.blocks_allocated", self.kv_blocks_allocated as f64),
            ("kv.blocks_reclaimed", self.kv_blocks_reclaimed as f64),
            ("kv.shared_hits", self.kv_shared_hits as f64),
            ("disagg.handoffs", self.handoffs as f64),
            ("disagg.handoff_bytes", self.handoff_bytes as f64),
            ("sched.steals", self.steals as f64),
            ("sched.preemptions", self.preemptions as f64),
            ("frontd.ingress_lag_ms", self.ingress_lag_ms),
            ("frontd.egress_lag_ms", self.egress_lag_ms),
            ("frontd.egress_done_lag_ms", self.egress_done_lag_ms),
            ("frontd.model_ttft_ms", self.model_ttft_ms),
            ("frontd.model_queue_ms", self.model_queue_ms),
            ("frontd.tpot_ms.p50", self.tpot_p50_ms),
            ("frontd.tpot_ms.tail", self.tpot_tail_ms),
            ("frontd.slo_ok_frac", self.slo_ok_frac),
            ("frontd.scrape_ms.p50", self.scrape_p50_ms),
            ("loadgen.late_ms.tail", self.late_tail_ms),
            ("tracing.overhead_frac", self.tracing_overhead_frac),
        ]);
        v
    }
}

/// `cost.calls.<method>` names, in [`Method::ALL`] order.
const COST_CALLS: [&str; 9] = [
    "cost.calls.prefill_on",
    "cost.calls.decode_on",
    "cost.calls.footprint_on",
    "cost.calls.budget_on",
    "cost.calls.swap_cycles_on",
    "cost.calls.raw_kv_bytes_on",
    "cost.calls.swap_bytes_cycles_on",
    "cost.calls.weight_load_cycles_on",
    "cost.calls.note_batch",
];

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatten_serve::json::{self, JsonValue};

    fn benchmark_json() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
        let Some(JsonValue::Array(items)) = doc.get(key) else {
            panic!("{key} is a list");
        };
        items
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let doc = benchmark_json();
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn cost_call_names_follow_the_methods() {
        for (m, name) in Method::ALL.into_iter().zip(COST_CALLS) {
            assert_eq!(name, format!("cost.calls.{}", m.name()));
        }
    }

    #[test]
    fn every_listed_metric_gets_its_value() {
        // Panics on a listed name without a value.
        Outcome {
            attempted: 1,
            failed: 0,
            metrics: Layers::default().metrics(),
            detail: JsonObject::new(),
        }
        .result_line(&PER_LAYER);
        let mut detail = JsonObject::new();
        let e2e = EndToEnd {
            throughput_per_s: 2.0,
            latency_p50_ms: 1.0,
            latency_tail_ms: crate::stats::tail(&[1.0; 20]),
            setup_s: 1.5,
            rss_peak_mb: 3.0,
        };
        let line = Outcome {
            attempted: 1,
            failed: 0,
            metrics: e2e.metrics(&mut detail),
            detail,
        }
        .result_line(&END_TO_END);
        let v = json::parse(&line).expect("result line parses");
        assert_eq!(v.get("correct").and_then(JsonValue::as_bool), Some(true));
        let m = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(m.get("value").and_then(JsonValue::as_f64), Some(1.5));
        assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some("s"));
    }
}
