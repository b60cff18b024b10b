//! The serving layer's gates: one bin runs four suites of scenarios over
//! SpAtten's cycle model and the fleet simulator, prints one JSON document
//! on stdout (a human summary goes to stderr), and exits 1 if any gate
//! fails.
//!
//! * `serve`: a mixed BERT/GPT-2 trace at `--rate-frac` (0.95) of the
//!   probed capacity of a `--chips` (4) fleet, under every scheduling
//!   policy.
//! * `shard`: tensor- vs pipeline-parallel GPT-2 decode on 1/2/4/8-way
//!   ring groups; then the same 8 chips carved four ways, and a
//!   planner-placed full + eighth-scale fleet, serving one bursty MMPP
//!   decode trace at `--rate-frac` (0.85) of the 8×TP1 capacity.
//! * `sched`: every policy on a single chip and on a planner-placed
//!   cluster (Poisson, then MMPP bursts) at `--rate-frac` (0.95); the
//!   mixed-fleet routing, preemption and saturation grids; paged vs
//!   contiguous KV on the chat mix; the disaggregation load ladder with
//!   its unpruned twin; the diurnal elasticity grid and a seeded
//!   revocation schedule; and the resumable step API replayed against
//!   the offline entry point.
//! * `sim`: the simulator's own speed. `sim.cycle_model` times one
//!   cycle-model memo miss per kind (GPT-2 small decode at context
//!   1,024, prefill at 256 tokens, Table-I chip, best of 31);
//!   `sim.colo`, `sim.paged` and `sim.disagg` time 10k/100k/1M-request
//!   Poisson cells at 90% of each shape's probed capacity, and the
//!   largest disagg cell is re-run under `SimMode::ParallelRounds`.
//!
//! ```text
//! gates [--smoke] [--only NAMES] [--requests N] [--chips N] [--rate-frac F]
//!       [--seed S] [--max-requests N] [--replay FILE]
//!       [--disagg-out FILE] [--elastic-out FILE] [--sim-out FILE]
//! ```
//!
//! * `--smoke` caps the traces (serve 100 requests, shard 60, sched 90,
//!   sim cells 2,000) and runs only the gates marked `both` below.
//! * `--only` takes comma-separated suite names or `sim.*` scenario
//!   names; the default runs everything.
//! * `--requests` (serve 1,200, shard 800, sched 900), `--rate-frac` and
//!   `--seed` (20260726; sim 20260808) override every suite's default;
//!   `--chips` sizes serve's fleet and `--max-requests` caps sim's cells.
//! * `--replay FILE` sweeps sched's policies and sim's shapes over a
//!   recorded `arrival_ns,class,prefill_tokens,decode_tokens` CSV log
//!   (see `TraceSpec::replay`) instead of generated traces; serve, shard
//!   and every trace gate are skipped, since a log carries whatever mix
//!   and load it carries. The cycle-model kernel point still runs.
//! * `--disagg-out` and `--elastic-out` write sched's disaggregation and
//!   elasticity grids (`BENCH_disagg.json`, `BENCH_elastic.json`);
//!   `--sim-out` writes the sim object (`BENCH_sim.json`).
//!
//! The document is `{"serve":…,"shard":…,"sched":…,"sim":…,"gates":[…]}`
//! with one object per suite that ran and one `{name, value, op,
//! threshold, pass}` row per gate. Every file is written and the document
//! printed before any gate is judged.
//!
//! # Gates
//!
//! A gate passes when `value op threshold` holds. `both` gates run with
//! and without `--smoke`, `full` gates only without it. Smoke slack
//! (×1.10 on three p99 thresholds, 1.2 instead of 1.5 on steal recovery,
//! a kernel floor of 1 instead of 5) covers near-max p99s of tiny traces
//! and noisy shared runners.
//!
//! | name | value | op | threshold | mode |
//! |---|---|---|---|---|
//! | `serve.cb_p99_beats_fifo` | continuous-batching p99 | `<` | FIFO p99 | full |
//! | `shard.tp4_decode_speedup` | 4-way TP decode tokens/s over one chip | `>=` | 1.6 | both |
//! | `shard.kv_per_shard_fits` | largest TP shard's KV bytes over the sweep | `<=` | 2 × `kv_sram_bytes` | both |
//! | `sched.dp_tbt_p99_beats_cb` | decode-prioritized TBT p99 (single chip, Poisson) | `<` | continuous-batching TBT p99 | full |
//! | `sched.preempt_high_p99_beats_cb` | preemptive-priority high-priority p99 (contention band) | `<` | continuous-batching high-priority p99 | full |
//! | `sched.contention_preempts` | preemptions in that preemptive run | `>` | 0 | full |
//! | `sched.fastest_p99_beats_shared` | fastest-chip fleet p99 (placement band) | `<` | shared-queue p99 | full |
//! | `sched.saturation_fastest_p99` | fastest-chip p99 at 1.5× capacity | `<=` | shared-queue p99 (×1.10 smoke) | both |
//! | `sched.steal_recovery` | hash-affinity p99 over hash-affinity + stealing p99 | `>=` | 1.5 (1.2 smoke) | both |
//! | `sched.saturation_steals` | steals in the stealing run | `>` | 0 | both |
//! | `sched.paged_occupancy` | paged mean batch at saturation (chat mix) | `>` | contiguous mean batch | both |
//! | `sched.paged_p99` | paged p99 | `<` | contiguous p99 (×1.10 smoke) | both |
//! | `sched.paged_goodput` | paged goodput | `>` | contiguous goodput | both |
//! | `sched.paged_shared_hits` | paged shared-prefix hits | `>` | 0 | both |
//! | `sched.disagg_tbt_p99` | disaggregated TBT p99 at 1.2× co-located capacity | `<` | best co-located TBT p99 (×1.10 smoke) | both |
//! | `sched.disagg_handoffs` | KV handoffs in that run | `>` | 0 | both |
//! | `sched.pruned_handoff_bytes` | handoff bytes with cascade pruning | `<` | the unpruned twin's | both |
//! | `sched.colocation_inversion` | 1 if some ladder band has co-location winning end-to-end p99 | `==` | 1 | full |
//! | `sched.autoscale_goodput` | autoscaler goodput on the diurnal trace | `>` | static base-only goodput | both |
//! | `sched.autoscale_online_cost` | autoscaler online chip-cycles | `<` | static base + reserve chip-cycles | both |
//! | `sched.autoscale_bring_ups` | reserve joins | `>` | 0 | both |
//! | `sched.revocation_completed` | completions under the revocation schedule | `==` | requests | both |
//! | `sched.revocation_displaces` | revoked completions | `>` | 0 | both |
//! | `sched.revocation_untouched_diverged` | undisplaced completions whose tokens differ from the fault-free twin | `==` | 0 | both |
//! | `sched.flex_pools_identical` | 1 if all-`Flex` pools give no-pool completions, makespan and events | `==` | 1 | both |
//! | `sched.flex_pools_handoff_bytes` | handoff bytes with all-`Flex` pools | `==` | 0 | both |
//! | `sched.empty_elastic_identical` | 1 if an empty `ElasticSpec` gives the fixed fleet's completions, makespan and events | `==` | 1 | both |
//! | `sched.step_api_disagg` | 1 if the step API replays the pooled disaggregation fleet's report | `==` | 1 | both |
//! | `sched.step_api_autoscale` | same, autoscaled diurnal fleet | `==` | 1 | both |
//! | `sched.step_api_revocation` | same, mid-service revocation | `==` | 1 | both |
//! | `sim.cycle_model.decode` | decode µs × kernel floor (5, smoke 1) | `<=` | 1,436 µs baseline | both |
//! | `sim.cycle_model.prefill` | prefill µs × kernel floor | `<=` | 915 µs baseline | both |
//! | `sim.events_per_sec` | events over simulation wall, all cells | `>=` | 3 × 574,312 (smoke 100,000) | both, no replay |
//! | `sim.parallel_identical` | 1 if `ParallelRounds` reproduces the serial disagg report | `==` | 1 | both, no replay |
//!
//! Conservation (no request lost by any simulated run) stays an assert.

mod sched;
mod serve;
mod shard;
mod sim;

use spatten_serve::json::{array, JsonObject};
use spatten_serve::FleetReport;
use spatten_workloads::{ArrivalSpec, Trace, TraceSpec};

/// The comparison a gate's value must pass against its threshold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
}

impl Op {
    fn symbol(self) -> &'static str {
        match self {
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Gt => ">",
            Op::Ge => ">=",
            Op::Eq => "==",
        }
    }

    fn holds(self, value: f64, threshold: f64) -> bool {
        match self {
            Op::Lt => value < threshold,
            Op::Le => value <= threshold,
            Op::Gt => value > threshold,
            Op::Ge => value >= threshold,
            Op::Eq => value == threshold,
        }
    }
}

/// One enforced claim: `value op threshold` must hold.
#[derive(Clone, Debug)]
struct Gate {
    name: &'static str,
    value: f64,
    op: Op,
    threshold: f64,
}

impl Gate {
    fn new(name: &'static str, value: f64, op: Op, threshold: f64) -> Self {
        Gate {
            name,
            value,
            op,
            threshold,
        }
    }

    fn pass(&self) -> bool {
        self.op.holds(self.value, self.threshold)
    }

    fn json(&self) -> String {
        JsonObject::new()
            .str("name", self.name)
            .f64("value", self.value)
            .str("op", self.op.symbol())
            .f64("threshold", self.threshold)
            .bool("pass", self.pass())
            .build()
    }
}

/// 1 if any gate fails, else 0.
fn exit_code(gates: &[Gate]) -> i32 {
    i32::from(gates.iter().any(|g| !g.pass()))
}

/// What one suite hands back: its JSON object, its gates, and the
/// `(path, body)` files it was asked to write.
struct Suite {
    json: String,
    gates: Vec<Gate>,
    files: Vec<(String, String)>,
}

const SUITES: [&str; 4] = ["serve", "shard", "sched", "sim"];

/// The flags; a `None` takes each suite's own default.
#[derive(Default)]
struct Args {
    smoke: bool,
    only: Vec<String>,
    requests: Option<usize>,
    chips: Option<usize>,
    rate_frac: Option<f64>,
    seed: Option<u64>,
    max_requests: Option<usize>,
    replay: Option<String>,
    disagg_out: Option<String>,
    elastic_out: Option<String>,
    sim_out: Option<String>,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Args {
        let mut args = Args::default();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .unwrap_or_else(|| panic!("missing value for {flag}"))
            };
            match flag.as_str() {
                "--smoke" => args.smoke = true,
                "--only" => args.only = value().split(',').map(str::to_string).collect(),
                "--requests" => args.requests = Some(value().parse().expect("--requests N")),
                "--chips" => args.chips = Some(value().parse().expect("--chips N")),
                "--rate-frac" => args.rate_frac = Some(value().parse().expect("--rate-frac F")),
                "--seed" => args.seed = Some(value().parse().expect("--seed S")),
                "--max-requests" => {
                    args.max_requests = Some(value().parse().expect("--max-requests N"))
                }
                "--replay" => args.replay = Some(value()),
                "--disagg-out" => args.disagg_out = Some(value()),
                "--elastic-out" => args.elastic_out = Some(value()),
                "--sim-out" => args.sim_out = Some(value()),
                other => panic!("unknown flag {other} (see the gates doc comment)"),
            }
        }
        for name in &args.only {
            assert!(
                SUITES.contains(&name.as_str()) || sim::SCENARIOS.contains(&name.as_str()),
                "--only {name}: not one of {SUITES:?} or {:?}",
                sim::SCENARIOS
            );
        }
        assert!(
            args.disagg_out.is_none() && args.elastic_out.is_none()
                || args.runs("sched") && args.replay.is_none(),
            "--disagg-out and --elastic-out need the sched suite and no --replay"
        );
        assert!(
            args.sim_out.is_none() || args.runs("sim"),
            "--sim-out needs the sim suite"
        );
        assert!(args.requests != Some(0), "need at least one request");
        assert!(args.chips != Some(0), "need at least one chip");
        if let Some(f) = args.rate_frac {
            assert!(
                f > 0.0 && f <= 1.5,
                "rate fraction {f} out of the sensible (0, 1.5] band"
            );
        }
        args
    }

    /// Whether `--only` selects `name`: a suite runs when it or any of its
    /// scenarios is named, a scenario when it or its suite is.
    fn runs(&self, name: &str) -> bool {
        self.only.is_empty()
            || self.only.iter().any(|o| {
                o == name
                    || name.starts_with(&format!("{o}."))
                    || o.starts_with(&format!("{name}."))
            })
    }

    /// `--requests`, else the suite's `default`; `--smoke` caps it.
    fn requests(&self, default: usize, smoke_cap: usize) -> usize {
        let n = self.requests.unwrap_or(default);
        if self.smoke {
            n.min(smoke_cap)
        } else {
            n
        }
    }
}

/// A saturating closed-loop trace (`clients` callers, zero think time)
/// drawn from `spec` under seed `seed ^ 0xCAFE`: the capacity probe
/// every suite sizes its offered load by.
fn closed_loop(
    spec: impl FnOnce(ArrivalSpec, u64) -> TraceSpec,
    clients: usize,
    requests: usize,
    seed: u64,
) -> Trace {
    spec(
        ArrivalSpec::ClosedLoop {
            clients,
            think_s: 0.0,
            requests,
        },
        seed ^ 0xCAFE,
    )
    .generate()
}

/// `report` after asserting that it accounts for every request of
/// `trace`: each one completed, or (where `may_shed`) shed by admission.
fn conserved(label: &str, trace: &Trace, may_shed: bool, report: FleetReport) -> FleetReport {
    let shed = if may_shed { report.rejected } else { 0 };
    assert_eq!(
        report.completed + shed,
        trace.len(),
        "{label}: lost requests"
    );
    report
}

/// The `--replay` log read through `spec`'s request classes, and the
/// offered load it recorded (requests over its arrival span, req/s).
fn replay_trace(
    path: &str,
    spec: impl FnOnce(ArrivalSpec, u64) -> TraceSpec,
    seed: u64,
) -> (Trace, f64) {
    let csv = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("--replay {path}: {e}"));
    let one = ArrivalSpec::OpenPoisson {
        rate_rps: 1.0,
        requests: 1,
    };
    let trace = spec(one, seed).replay(&csv);
    let span_s = match &trace {
        Trace::Open { requests } => requests.last().map_or(0.0, |r| r.arrival_ns as f64 / 1e9),
        Trace::Closed { .. } => unreachable!("replay traces are open-loop"),
    };
    let rate = trace.len() as f64 / span_s.max(f64::MIN_POSITIVE);
    eprintln!(
        "replaying {path}: {} requests over {span_s:.3} s ({rate:.0} req/s recorded)",
        trace.len()
    );
    (trace, rate)
}

/// `events` per second of `wall_s`.
fn per_sec(events: u64, wall_s: f64) -> f64 {
    events as f64 / wall_s.max(f64::MIN_POSITIVE)
}

fn main() {
    let args = Args::parse(std::env::args().skip(1));
    let mut doc = JsonObject::new();
    let mut gates: Vec<Gate> = Vec::new();
    let mut files: Vec<(String, String)> = Vec::new();
    let runs: [fn(&Args) -> Suite; 4] = [serve::run, shard::run, sched::run, sim::run];
    for (name, run) in SUITES.into_iter().zip(runs) {
        if !args.runs(name) {
            continue;
        }
        if args.replay.is_some() && matches!(name, "serve" | "shard") {
            eprintln!("{name}: no replay mode, skipped");
            continue;
        }
        eprintln!("\n=== {name} ===");
        let suite = run(&args);
        doc = doc.raw(name, &suite.json);
        gates.extend(suite.gates);
        files.extend(suite.files);
    }
    for (path, body) in &files {
        std::fs::write(path, format!("{body}\n")).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
    }
    println!(
        "{}",
        doc.raw("gates", &array(gates.iter().map(Gate::json)))
            .build()
    );

    eprintln!();
    for g in &gates {
        eprintln!(
            "{} {}: {} {} {}",
            if g.pass() { "ok  " } else { "FAIL" },
            g.name,
            g.value,
            g.op.symbol(),
            g.threshold
        );
    }
    let failed: Vec<&str> = gates.iter().filter(|g| !g.pass()).map(|g| g.name).collect();
    if !failed.is_empty() {
        eprintln!(
            "error: {} gate(s) failed: {}",
            failed.len(),
            failed.join(", ")
        );
    }
    std::process::exit(exit_code(&gates));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_at_the_boundary() {
        for (op, pass) in [
            (Op::Lt, false),
            (Op::Le, true),
            (Op::Gt, false),
            (Op::Ge, true),
            (Op::Eq, true),
        ] {
            assert_eq!(Gate::new("g", 1.5, op, 1.5).pass(), pass, "{op:?}");
        }
    }

    /// Every gate the suites can emit in one mode.
    fn every_gate(smoke: bool) -> Vec<Gate> {
        let sim = sim::Measured {
            cycle_model: Some((1.0, 1.0)),
            events_per_sec: Some(1.0),
            parallel_identical: Some(true),
        };
        [
            serve::gates(&Default::default(), smoke),
            shard::gates(&Default::default(), smoke),
            sched::gates(&Default::default(), smoke),
            sim::gates(&sim, smoke),
        ]
        .concat()
    }

    #[test]
    fn gate_names_are_unique_across_suites() {
        let full: Vec<&str> = every_gate(false).iter().map(|g| g.name).collect();
        let mut unique = full.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!((full.len(), unique.len()), (34, 34), "duplicate gate name");
        let suite = |n: &str| SUITES.iter().any(|s| n.starts_with(&format!("{s}.")));
        assert!(full.iter().all(|n| suite(n)), "a gate names no suite");
        // --smoke runs a subset of the full gates.
        let smoke = every_gate(true);
        assert_eq!(smoke.len(), 28);
        assert!(smoke.iter().all(|g| full.contains(&g.name)));
    }

    #[test]
    fn exit_code_is_one_exactly_when_a_gate_fails() {
        let pass = Gate::new("p", 1.0, Op::Le, 1.0);
        let fail = Gate::new("f", 1.0, Op::Lt, 1.0);
        for (gates, code) in [
            (vec![], 0),
            (vec![pass.clone()], 0),
            (vec![pass.clone(), pass.clone()], 0),
            (vec![fail.clone()], 1),
            (vec![pass.clone(), fail.clone()], 1),
            (vec![fail.clone(), pass.clone(), fail], 1),
        ] {
            assert_eq!(exit_code(&gates), code, "{gates:?}");
        }
    }

    #[test]
    fn only_selects_suites_and_scenarios() {
        let args = |only: &str| Args::parse(["--only".to_string(), only.to_string()].into_iter());
        let a = args("sim.cycle_model");
        assert!(a.runs("sim") && a.runs("sim.cycle_model"));
        assert!(!a.runs("sim.colo") && !a.runs("sched"));
        let a = args("sim,serve");
        assert!(a.runs("sim.disagg") && a.runs("serve") && !a.runs("shard"));
        assert!(Args::parse(std::iter::empty()).runs("sched"));
    }

    #[test]
    #[should_panic(expected = "--only shapes")]
    fn only_rejects_unknown_names() {
        let _ = Args::parse(["--only".to_string(), "shapes".to_string()].into_iter());
    }
}
