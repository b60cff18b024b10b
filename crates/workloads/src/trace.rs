//! Serving traces: request classes, arrival processes and trace generation.
//!
//! The serving simulator (`spatten-serve`) consumes a [`Trace`]: a stream of
//! inference requests with per-request sequence lengths, drawn from a
//! weighted mix of [`RequestClass`]es (BERT summarization-stage jobs, GPT-2
//! generation-stage jobs) under one of two arrival disciplines:
//!
//! * **Open loop** ([`ArrivalSpec::OpenPoisson`]) — arrivals follow a
//!   Poisson process at a fixed offered rate, independent of completions.
//!   This is the discipline that exposes tail-latency collapse under
//!   overload (queues grow without bound once offered load exceeds
//!   capacity).
//! * **Bursty open loop** ([`ArrivalSpec::OpenMmpp`]) — a two-state
//!   Markov-modulated Poisson process: the arrival rate switches between a
//!   calm and a burst level with exponentially distributed dwell times.
//!   Production traffic is over-dispersed relative to Poisson (diurnal
//!   swings, retry storms, thundering herds), and MMPP is the standard
//!   minimal model of that burstiness — it stresses tail latency at an
//!   average offered load a plain Poisson trace would absorb.
//! * **Diurnal open loop** ([`ArrivalSpec::Diurnal`]) — Poisson arrivals
//!   under a sinusoidal rate envelope (generated by seeded thinning), the
//!   compressed-day load curve capacity planning sweeps against.
//! * **Closed loop** ([`ArrivalSpec::ClosedLoop`]) — a fixed population of
//!   clients, each issuing its next request a think time after its previous
//!   one completes. Offered load self-throttles to fleet capacity.
//!
//! A spec may also carry the *hardware side* of the scenario — a
//! [`FleetSpec`] naming chip classes and interconnect topology — so one
//! spec describes a whole cluster experiment.
//!
//! Generation is fully deterministic for a fixed [`TraceSpec`] (seeded
//! inter-arrival draws, state dwells, class picks and length draws), so
//! serving reports are bit-reproducible.

use crate::fleet::FleetSpec;
use crate::registry::Benchmark;
use crate::spec::{PruningSpec, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One class of serving request: a workload template plus per-request
/// length ranges. Each generated request clones the template and draws its
/// own `seq_len` (and, for generative templates, `gen_steps`).
#[derive(Debug, Clone, PartialEq)]
pub struct RequestClass {
    /// Template carrying model shape, pruning spec and quantization policy.
    pub template: Workload,
    /// Inclusive range of per-request input lengths.
    pub seq_len: (usize, usize),
    /// Inclusive range of generated tokens (ignored — forced to 0 — when
    /// the template itself is discriminative).
    pub gen_steps: (usize, usize),
    /// Relative weight in the traffic mix.
    pub weight: f64,
    /// End-to-end latency SLO in seconds, measured from arrival. `None`
    /// means best-effort: the class has no deadline, every completion
    /// counts toward goodput, and SLO-aware scheduling never rejects it.
    pub slo_latency_s: Option<f64>,
    /// Scheduling priority class: higher values outrank lower ones.
    /// Priority-aware admission orders the queue by it, and priority
    /// preemption may evict a resident lower-priority job to make room
    /// for a higher-priority arrival. `0` (the default) is the
    /// lowest-priority, batch-traffic tier.
    pub priority: u8,
    /// Tokens at the head of every request's prompt shared with the
    /// class's common system prefix (clamped per request to its drawn
    /// `seq_len`). Paged KV serving maps these tokens to one refcounted
    /// per-class prefix per chip instead of charging them per job. `0`
    /// (the default) shares nothing — existing traces reproduce
    /// bit-for-bit, since the field adds no random draws.
    pub shared_prefix_tokens: usize,
}

impl RequestClass {
    /// A BERT summarization-stage class built from a registry benchmark,
    /// with per-request input lengths in `seq_len`.
    pub fn bert(bench: &Benchmark, seq_len: (usize, usize), weight: f64) -> Self {
        Self {
            template: bench.workload(),
            seq_len,
            gen_steps: (0, 0),
            weight,
            slo_latency_s: None,
            priority: 0,
            shared_prefix_tokens: 0,
        }
    }

    /// A GPT-2 generation-stage class built from a registry benchmark, with
    /// per-request context lengths in `seq_len` and generation lengths in
    /// `gen_steps`.
    pub fn gpt2(
        bench: &Benchmark,
        seq_len: (usize, usize),
        gen_steps: (usize, usize),
        weight: f64,
    ) -> Self {
        Self {
            template: bench.workload(),
            seq_len,
            gen_steps,
            weight,
            slo_latency_s: None,
            priority: 0,
            shared_prefix_tokens: 0,
        }
    }

    /// Attaches an end-to-end latency SLO (seconds from arrival).
    ///
    /// # Panics
    ///
    /// Panics if `slo_latency_s` is not positive.
    pub fn with_slo(mut self, slo_latency_s: f64) -> Self {
        assert!(slo_latency_s > 0.0, "SLO must be positive");
        self.slo_latency_s = Some(slo_latency_s);
        self
    }

    /// Sets the scheduling priority tier (higher outranks lower; the
    /// default is `0`, the batch tier). See [`RequestClass::priority`].
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Declares the first `tokens` of every request's prompt shared with
    /// the class's system prefix (see
    /// [`RequestClass::shared_prefix_tokens`]). Metadata only: it adds no
    /// random draws, so traces differing only in this field have
    /// identical arrivals and workloads.
    pub fn with_shared_prefix(mut self, tokens: usize) -> Self {
        self.shared_prefix_tokens = tokens;
        self
    }

    /// Request `id`, of this class (index `class` in its spec), arriving
    /// at `arrival_ns` with `workload`.
    fn request(&self, id: u64, class: usize, arrival_ns: u64, workload: Workload) -> TraceRequest {
        TraceRequest {
            id,
            class,
            arrival_ns,
            slo_ns: self.slo_latency_s.map(|s| (s * 1e9) as u64),
            priority: self.priority,
            shared_prefix_tokens: self.shared_prefix_tokens.min(workload.seq_len),
            workload,
        }
    }

    fn instantiate(&self, rng: &mut StdRng, id: u64) -> Workload {
        let (lo, hi) = self.seq_len;
        assert!(lo >= 1 && lo <= hi, "seq_len range {lo}..={hi}");
        let seq_len = rng.gen_range(lo..=hi);
        let gen_steps = if self.template.gen_steps == 0 {
            0
        } else {
            // A zero lower bound is allowed: such a request degenerates to
            // a prefill-only job, which the serving layer handles fine.
            let (glo, ghi) = self.gen_steps;
            assert!(glo <= ghi, "gen_steps range {glo}..={ghi}");
            rng.gen_range(glo..=ghi)
        };
        Workload {
            seq_len,
            gen_steps,
            seed: self.template.seed ^ id.wrapping_mul(0x9E3779B97F4A7C15),
            ..self.template.clone()
        }
    }
}

/// The arrival discipline of a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalSpec {
    /// Open-loop Poisson arrivals at `rate_rps` requests/second for
    /// `requests` total requests.
    OpenPoisson {
        /// Offered load in requests per second.
        rate_rps: f64,
        /// Total requests in the trace.
        requests: usize,
    },
    /// Open-loop two-state Markov-modulated Poisson arrivals: the process
    /// alternates between a calm state (rate `calm_rps`) and a burst state
    /// (rate `burst_rps`), dwelling in each for an exponentially
    /// distributed time. Long-run average rate is the dwell-weighted mean
    /// of the two levels; count dispersion exceeds Poisson's whenever
    /// `burst_rps > calm_rps`.
    OpenMmpp {
        /// Arrival rate in the calm state, requests per second.
        calm_rps: f64,
        /// Arrival rate in the burst state, requests per second.
        burst_rps: f64,
        /// Mean dwell time in the calm state, seconds.
        mean_calm_s: f64,
        /// Mean dwell time in the burst state, seconds.
        mean_burst_s: f64,
        /// Total requests in the trace.
        requests: usize,
    },
    /// Open-loop Poisson arrivals under a sinusoidal (diurnal) rate
    /// envelope: the instantaneous rate is
    /// `base_rps * (1 + swing * sin(2π t / period_s))`, generated by
    /// seeded thinning against the peak rate — exact for an
    /// inhomogeneous Poisson process, and fully deterministic. A day of
    /// traffic compressed into `period_s` seconds: peaks at a quarter
    /// period, troughs at three quarters.
    Diurnal {
        /// Mean arrival rate, requests per second.
        base_rps: f64,
        /// Relative swing of the envelope, in `[0, 1]`: 0 degenerates to
        /// plain Poisson, 1 silences the trough completely.
        swing: f64,
        /// Period of one load cycle, seconds.
        period_s: f64,
        /// Total requests in the trace.
        requests: usize,
    },
    /// Closed loop: `clients` concurrent clients, each thinking
    /// `think_s` seconds between its previous completion and its next
    /// request, until `requests` total requests have been issued.
    ClosedLoop {
        /// Concurrent client population.
        clients: usize,
        /// Per-client think time in seconds.
        think_s: f64,
        /// Total requests across all clients.
        requests: usize,
    },
}

/// Everything needed to generate a [`Trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpec {
    /// Weighted request-class mix (must be non-empty).
    pub classes: Vec<RequestClass>,
    /// Arrival discipline.
    pub arrival: ArrivalSpec,
    /// Seed for all stochastic draws.
    pub seed: u64,
    /// The hardware side of the scenario (chip inventory + interconnect
    /// topology), when the trace targets a specific cluster. `None` for
    /// fleet-agnostic traces.
    pub fleet: Option<FleetSpec>,
}

impl TraceSpec {
    /// A representative mixed trace: BERT SST-2-shaped summarization jobs
    /// alongside GPT-2 WikiText-2-shaped generation jobs (chat-style
    /// contexts and generation lengths), 60/40 by count.
    pub fn mixed(arrival: ArrivalSpec, seed: u64) -> Self {
        Self {
            classes: vec![
                RequestClass::bert(&Benchmark::bert_base_sst2(), (16, 128), 0.6),
                RequestClass::gpt2(
                    &Benchmark::gpt2_small_wikitext2(),
                    (64, 384),
                    (16, 128),
                    0.4,
                ),
            ],
            arrival,
            seed,
            fleet: None,
        }
    }

    /// A generation-only trace: GPT-2 WikiText-2-shaped decode jobs with
    /// chat-style contexts. This is the workload sharding studies sweep —
    /// decode is the memory-bound regime where tensor parallelism pays.
    pub fn gpt2_decode(arrival: ArrivalSpec, seed: u64) -> Self {
        Self {
            classes: vec![RequestClass::gpt2(
                &Benchmark::gpt2_small_wikitext2(),
                (64, 384),
                (16, 128),
                1.0,
            )],
            arrival,
            seed,
            fleet: None,
        }
    }

    /// A chat-style trace: every request is a GPT-2 generation job whose
    /// prompt opens with a long per-class system prefix — the
    /// high-prefix-reuse traffic paged KV serving with copy-on-write
    /// prefix sharing exists for. Two tiers (assistant chat over a
    /// batch summarizer tier) so priority/preemption studies compose;
    /// both carry prefixes covering well over half of every prompt
    /// (208/\[240,320\] and 192/\[224,288\] tokens respectively).
    pub fn chat(arrival: ArrivalSpec, seed: u64) -> Self {
        Self {
            classes: vec![
                RequestClass::gpt2(
                    &Benchmark::gpt2_small_wikitext2(),
                    (240, 320),
                    (32, 96),
                    0.6,
                )
                .with_shared_prefix(208)
                .with_priority(2),
                RequestClass::gpt2(
                    &Benchmark::gpt2_small_wikitext2(),
                    (224, 288),
                    (16, 64),
                    0.4,
                )
                .with_shared_prefix(192),
            ],
            arrival,
            seed,
            fleet: None,
        }
    }

    /// The long-prefill/short-decode chat mix disaggregated serving is
    /// measured on: prompts an order of magnitude longer than
    /// generations, so on a co-located fleet every resident decode
    /// stream pays its time-between-tokens tail to other jobs' prompt
    /// passes — exactly the interference a prefill pool absorbs. Both
    /// classes open with a long shared system prefix, so paged KV
    /// handoffs can skip prefix blocks already warm on the decode chip.
    pub fn disagg_chat(arrival: ArrivalSpec, seed: u64) -> Self {
        Self {
            classes: vec![
                RequestClass::gpt2(
                    &Benchmark::gpt2_small_wikitext2(),
                    (768, 1024),
                    (8, 24),
                    0.7,
                )
                .with_shared_prefix(512),
                RequestClass::gpt2(
                    &Benchmark::gpt2_small_wikitext2(),
                    (512, 768),
                    (16, 48),
                    0.3,
                )
                .with_shared_prefix(384),
            ],
            arrival,
            seed,
            fleet: None,
        }
    }

    /// The unpruned twin of this spec: every class template's cascade
    /// pruning is replaced by the dense (keep-everything) spec. Pruning
    /// parameters add no random draws, so the twin's arrivals and drawn
    /// lengths are bit-identical — only per-token KV cost changes. This
    /// is the control for the priced-handoff claim: migrating the full
    /// unpruned KV must be measurably more expensive than migrating the
    /// pruned survivor set on the same request stream.
    pub fn unpruned(mut self) -> Self {
        for class in &mut self.classes {
            class.template.pruning = PruningSpec::dense();
        }
        self
    }

    /// Attaches the hardware side of the scenario.
    pub fn with_fleet(mut self, fleet: FleetSpec) -> Self {
        self.fleet = Some(fleet);
        self
    }

    /// Generates the deterministic trace this spec describes.
    ///
    /// # Panics
    ///
    /// Panics if the class list is empty, weights are non-positive, the
    /// arrival spec is degenerate (zero rate / zero clients / zero
    /// requests / MMPP burst rate below the calm rate / non-positive MMPP
    /// dwell times), or a class carries an invalid length range (`seq_len`
    /// must satisfy `1 <= lo <= hi`; `gen_steps` must satisfy `lo <= hi`).
    pub fn generate(&self) -> Trace {
        assert!(!self.classes.is_empty(), "trace needs at least one class");
        let total_weight: f64 = self.classes.iter().map(|c| c.weight).sum();
        assert!(
            total_weight > 0.0 && self.classes.iter().all(|c| c.weight > 0.0),
            "class weights must be positive"
        );
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xC0FFEE);

        // Request `id` arriving at `arrival_ns`: a class pick, then the
        // class's length draws. Every arrival process draws its
        // inter-arrival time first, so that order holds trace-wide.
        let draw = |rng: &mut StdRng, id: u64, arrival_ns: u64| -> TraceRequest {
            let mut x = rng.gen::<f64>() * total_weight;
            let class = self
                .classes
                .iter()
                .position(|c| {
                    x -= c.weight;
                    x <= 0.0
                })
                .unwrap_or(self.classes.len() - 1);
            let c = &self.classes[class];
            c.request(id, class, arrival_ns, c.instantiate(rng, id))
        };

        match self.arrival {
            ArrivalSpec::OpenPoisson { rate_rps, requests } => {
                assert!(rate_rps > 0.0, "open-loop rate must be positive");
                assert!(requests > 0, "trace needs at least one request");
                let mut t_ns = 0.0f64;
                let mut reqs = Vec::with_capacity(requests);
                for id in 0..requests as u64 {
                    // Exponential inter-arrival via inverse CDF.
                    let u: f64 = rng.gen::<f64>().max(1e-12);
                    t_ns += -u.ln() / rate_rps * 1e9;
                    reqs.push(draw(&mut rng, id, t_ns as u64));
                }
                Trace::Open { requests: reqs }
            }
            ArrivalSpec::OpenMmpp {
                calm_rps,
                burst_rps,
                mean_calm_s,
                mean_burst_s,
                requests,
            } => {
                assert!(calm_rps > 0.0, "calm rate must be positive");
                assert!(
                    burst_rps >= calm_rps,
                    "burst rate {burst_rps} must be >= calm rate {calm_rps}"
                );
                assert!(
                    mean_calm_s > 0.0 && mean_burst_s > 0.0,
                    "state dwell times must be positive"
                );
                assert!(requests > 0, "trace needs at least one request");
                let exp_ns = |rng: &mut StdRng, mean_s: f64| -> f64 {
                    -rng.gen::<f64>().max(1e-12).ln() * mean_s * 1e9
                };
                let mut t_ns = 0.0f64;
                let mut bursting = false;
                let mut state_end_ns = exp_ns(&mut rng, mean_calm_s);
                let mut reqs = Vec::with_capacity(requests);
                let mut id = 0u64;
                while (id as usize) < requests {
                    let rate = if bursting { burst_rps } else { calm_rps };
                    let gap_ns = exp_ns(&mut rng, 1.0 / rate);
                    if t_ns + gap_ns > state_end_ns {
                        // The draw crosses a state switch: advance to the
                        // boundary and redraw — exact, because exponential
                        // inter-arrivals are memoryless.
                        t_ns = state_end_ns;
                        bursting = !bursting;
                        let mean = if bursting { mean_burst_s } else { mean_calm_s };
                        state_end_ns = t_ns + exp_ns(&mut rng, mean);
                        continue;
                    }
                    t_ns += gap_ns;
                    reqs.push(draw(&mut rng, id, t_ns as u64));
                    id += 1;
                }
                Trace::Open { requests: reqs }
            }
            ArrivalSpec::Diurnal {
                base_rps,
                swing,
                period_s,
                requests,
            } => {
                assert!(base_rps > 0.0, "base rate must be positive");
                assert!(
                    (0.0..=1.0).contains(&swing),
                    "swing {swing} must lie in [0, 1]"
                );
                assert!(period_s > 0.0, "period must be positive");
                assert!(requests > 0, "trace needs at least one request");
                // Thinning (Lewis–Shedler): draw candidates from a
                // homogeneous Poisson process at the peak rate, accept each
                // with probability rate(t)/peak. Exact for any bounded
                // rate envelope, and every draw comes from the seeded rng.
                let peak = base_rps * (1.0 + swing);
                let mut t_ns = 0.0f64;
                let mut reqs = Vec::with_capacity(requests);
                let mut id = 0u64;
                while (id as usize) < requests {
                    let u: f64 = rng.gen::<f64>().max(1e-12);
                    t_ns += -u.ln() / peak * 1e9;
                    let t_s = t_ns / 1e9;
                    let rate = base_rps
                        * (1.0 + swing * (2.0 * std::f64::consts::PI * t_s / period_s).sin());
                    if rng.gen::<f64>() * peak > rate {
                        continue;
                    }
                    reqs.push(draw(&mut rng, id, t_ns as u64));
                    id += 1;
                }
                Trace::Open { requests: reqs }
            }
            ArrivalSpec::ClosedLoop {
                clients,
                think_s,
                requests,
            } => {
                assert!(clients > 0, "closed loop needs at least one client");
                assert!(think_s >= 0.0, "think time must be non-negative");
                assert!(requests > 0, "trace needs at least one request");
                // Round-robin the request budget over clients; each client's
                // queue is issued sequentially by the simulator.
                let mut per_client: Vec<Vec<TraceRequest>> =
                    (0..clients).map(|_| Vec::new()).collect();
                for id in 0..requests as u64 {
                    // Arrival times are assigned live by the simulator.
                    per_client[(id as usize) % clients].push(draw(&mut rng, id, 0));
                }
                Trace::Closed {
                    clients: per_client,
                    think_ns: (think_s * 1e9) as u64,
                }
            }
        }
    }

    /// Builds an open-loop [`Trace`] by replaying a recorded request log
    /// instead of drawing arrivals and lengths from the spec's random
    /// processes — the path for feeding *production* traces through the
    /// simulator. Only the spec's [`classes`](Self::classes) are used
    /// (templates, SLOs, priorities, shared prefixes); the spec's
    /// [`arrival`](Self::arrival) and [`seed`](Self::seed) are ignored.
    ///
    /// `csv` holds one request per line, comma-separated:
    ///
    /// ```text
    /// arrival_ns,class,prefill_tokens,decode_tokens
    /// ```
    ///
    /// * `arrival_ns` — absolute arrival time in nanoseconds.
    /// * `class` — index into this spec's class list.
    /// * `prefill_tokens` — the request's input length (`seq_len ≥ 1`).
    /// * `decode_tokens` — generated tokens; forced to `0` when the
    ///   class template is discriminative, mirroring
    ///   [`TraceSpec::generate`].
    ///
    /// Blank lines, `#` comments and a leading `arrival_ns,...` header
    /// are skipped. Requests may appear out of order — they are stably
    /// sorted by arrival and re-numbered in arrival order, so the
    /// resulting trace satisfies the simulator's sorted-open-trace
    /// contract. Per-request workload seeds are derived exactly as in
    /// [`TraceSpec::generate`], so a replayed request prices identically
    /// to a generated one with the same class and lengths.
    ///
    /// # Panics
    ///
    /// Panics on malformed lines, out-of-range class indices, zero
    /// `prefill_tokens`, or an empty log.
    pub fn replay(&self, csv: &str) -> Trace {
        assert!(!self.classes.is_empty(), "trace needs at least one class");
        let mut rows: Vec<(u64, usize, usize, usize)> = Vec::new();
        for (lineno, line) in csv.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if lineno == 0 && line.starts_with("arrival_ns") {
                continue; // header
            }
            let mut fields = line.split(',').map(str::trim);
            let mut field = |name: &str| -> &str {
                fields
                    .next()
                    .unwrap_or_else(|| panic!("replay line {}: missing {name}", lineno + 1))
            };
            let arrival_ns: u64 = field("arrival_ns")
                .parse()
                .unwrap_or_else(|e| panic!("replay line {}: bad arrival_ns: {e}", lineno + 1));
            let class: usize = field("class")
                .parse()
                .unwrap_or_else(|e| panic!("replay line {}: bad class: {e}", lineno + 1));
            let prefill: usize = field("prefill_tokens")
                .parse()
                .unwrap_or_else(|e| panic!("replay line {}: bad prefill_tokens: {e}", lineno + 1));
            let decode: usize = field("decode_tokens")
                .parse()
                .unwrap_or_else(|e| panic!("replay line {}: bad decode_tokens: {e}", lineno + 1));
            assert!(
                class < self.classes.len(),
                "replay line {}: class {class} out of range ({} classes)",
                lineno + 1,
                self.classes.len()
            );
            assert!(
                prefill >= 1,
                "replay line {}: prefill_tokens must be >= 1",
                lineno + 1
            );
            rows.push((arrival_ns, class, prefill, decode));
        }
        assert!(!rows.is_empty(), "replay log holds no requests");
        rows.sort_by_key(|r| r.0);
        let requests = rows
            .into_iter()
            .enumerate()
            .map(|(id, (arrival_ns, class, seq_len, decode))| {
                let c = &self.classes[class];
                let gen_steps = if c.template.gen_steps == 0 { 0 } else { decode };
                let workload = Workload {
                    seq_len,
                    gen_steps,
                    seed: c.template.seed ^ (id as u64).wrapping_mul(0x9E3779B97F4A7C15),
                    ..c.template.clone()
                };
                c.request(id as u64, class, arrival_ns, workload)
            })
            .collect();
        Trace::Open { requests }
    }
}

/// One request in a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRequest {
    /// Stable id (generation order).
    pub id: u64,
    /// Index into the spec's class list.
    pub class: usize,
    /// Absolute arrival time in nanoseconds (open-loop traces; closed-loop
    /// arrival times are determined by completions during simulation).
    pub arrival_ns: u64,
    /// End-to-end latency SLO relative to arrival, nanoseconds (`None` =
    /// best-effort). Relative — not absolute — so closed-loop requests,
    /// whose arrival times are assigned live, carry their deadline too.
    pub slo_ns: Option<u64>,
    /// Scheduling priority tier (see [`RequestClass::priority`]).
    pub priority: u8,
    /// Prompt-head tokens shared with the class's system prefix, already
    /// clamped to this request's drawn `seq_len` (see
    /// [`RequestClass::shared_prefix_tokens`]).
    pub shared_prefix_tokens: usize,
    /// The per-request workload (template + drawn lengths + unique seed).
    pub workload: Workload,
}

/// A generated request stream, ready for `spatten-serve`.
#[derive(Debug, Clone, PartialEq)]
pub enum Trace {
    /// Open loop: requests with pre-drawn absolute arrival times,
    /// non-decreasing in `arrival_ns`.
    Open {
        /// The request stream, sorted by arrival.
        requests: Vec<TraceRequest>,
    },
    /// Closed loop: one pending queue per client; client `c` issues
    /// `clients[c][i+1]` a think time after `clients[c][i]` completes.
    Closed {
        /// Per-client request queues.
        clients: Vec<Vec<TraceRequest>>,
        /// Think time between a completion and the next issue, nanoseconds.
        think_ns: u64,
    },
}

impl Trace {
    /// Total requests in the trace.
    pub fn len(&self) -> usize {
        match self {
            Trace::Open { requests } => requests.len(),
            Trace::Closed { clients, .. } => clients.iter().map(Vec::len).sum(),
        }
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open_spec(n: usize, seed: u64) -> TraceSpec {
        TraceSpec::mixed(
            ArrivalSpec::OpenPoisson {
                rate_rps: 100.0,
                requests: n,
            },
            seed,
        )
    }

    #[test]
    fn open_trace_is_sorted_and_sized() {
        let t = open_spec(500, 1).generate();
        assert_eq!(t.len(), 500);
        let Trace::Open { requests } = &t else {
            panic!("open spec must make an open trace");
        };
        assert!(requests
            .windows(2)
            .all(|w| w[0].arrival_ns <= w[1].arrival_ns));
        // Mean inter-arrival should sit near 1/rate = 10 ms.
        let span_s = requests.last().unwrap().arrival_ns as f64 / 1e9;
        let mean_gap_ms = span_s * 1000.0 / 500.0;
        assert!(
            (5.0..20.0).contains(&mean_gap_ms),
            "mean gap {mean_gap_ms} ms"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = open_spec(200, 7).generate();
        let b = open_spec(200, 7).generate();
        assert_eq!(a, b);
        let c = open_spec(200, 8).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn mix_contains_both_classes_with_roughly_spec_weights() {
        let t = open_spec(1000, 3).generate();
        let Trace::Open { requests } = &t else {
            unreachable!()
        };
        let bert = requests.iter().filter(|r| r.class == 0).count();
        assert!((550..850).contains(&bert), "BERT share {bert}/1000");
        // BERT jobs never generate; GPT-2 jobs always do.
        for r in requests {
            if r.class == 0 {
                assert_eq!(r.workload.gen_steps, 0);
            } else {
                assert!(r.workload.gen_steps >= 8);
                assert!((64..=384).contains(&r.workload.seq_len));
            }
        }
    }

    #[test]
    fn per_request_seeds_are_distinct() {
        let t = open_spec(100, 5).generate();
        let Trace::Open { requests } = &t else {
            unreachable!()
        };
        let mut seeds: Vec<u64> = requests.iter().map(|r| r.workload.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 100);
    }

    #[test]
    fn replay_parses_sorts_and_respects_class_templates() {
        let spec = open_spec(1, 0);
        let csv = "arrival_ns,class,prefill_tokens,decode_tokens\n\
                   # bert row, decode column must be forced to zero\n\
                   2000,0,64,99\n\
                   \n\
                   1000,1,128,32\n\
                   3000,1,256,0\n";
        let Trace::Open { requests } = spec.replay(csv) else {
            panic!("replay must make an open trace");
        };
        assert_eq!(requests.len(), 3);
        // Stably sorted by arrival, re-numbered in arrival order.
        assert_eq!(
            requests
                .iter()
                .map(|r| (r.id, r.arrival_ns, r.class))
                .collect::<Vec<_>>(),
            vec![(0, 1000, 1), (1, 2000, 0), (2, 3000, 1)]
        );
        // Lengths come from the log; a discriminative template zeroes the
        // decode column; a generative one takes it verbatim (even 0).
        assert_eq!(requests[0].workload.seq_len, 128);
        assert_eq!(requests[0].workload.gen_steps, 32);
        assert_eq!(requests[1].workload.seq_len, 64);
        assert_eq!(requests[1].workload.gen_steps, 0);
        assert_eq!(requests[2].workload.gen_steps, 0);
        // Seeds follow the generate() derivation: distinct per request.
        assert_ne!(requests[0].workload.seed, requests[2].workload.seed);
        // Replay is deterministic.
        assert_eq!(spec.replay(csv), spec.replay(csv));
    }

    #[test]
    #[should_panic(expected = "class 7 out of range")]
    fn replay_rejects_out_of_range_class() {
        open_spec(1, 0).replay("0,7,64,0\n");
    }

    #[test]
    fn closed_loop_round_robins_clients() {
        let spec = TraceSpec::mixed(
            ArrivalSpec::ClosedLoop {
                clients: 8,
                think_s: 0.01,
                requests: 100,
            },
            11,
        );
        let t = spec.generate();
        assert_eq!(t.len(), 100);
        let Trace::Closed { clients, think_ns } = &t else {
            panic!("closed spec must make a closed trace");
        };
        assert_eq!(clients.len(), 8);
        assert_eq!(*think_ns, 10_000_000);
        assert!(clients.iter().all(|q| (12..=13).contains(&q.len())));
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn empty_class_list_rejected() {
        let spec = TraceSpec {
            classes: vec![],
            arrival: ArrivalSpec::OpenPoisson {
                rate_rps: 1.0,
                requests: 1,
            },
            seed: 0,
            fleet: None,
        };
        let _ = spec.generate();
    }

    fn mmpp_spec(seed: u64) -> TraceSpec {
        TraceSpec::mixed(
            ArrivalSpec::OpenMmpp {
                calm_rps: 50.0,
                burst_rps: 2000.0,
                mean_calm_s: 0.5,
                mean_burst_s: 0.05,
                requests: 800,
            },
            seed,
        )
    }

    #[test]
    fn mmpp_trace_is_sorted_deterministic_and_sized() {
        let a = mmpp_spec(21).generate();
        assert_eq!(a.len(), 800);
        let Trace::Open { requests } = &a else {
            panic!("MMPP must make an open trace");
        };
        assert!(requests
            .windows(2)
            .all(|w| w[0].arrival_ns <= w[1].arrival_ns));
        assert_eq!(a, mmpp_spec(21).generate());
        assert_ne!(a, mmpp_spec(22).generate());
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        // Index of dispersion of windowed arrival counts: 1 for Poisson,
        // > 1 for any two-state MMPP with distinct rates. Compare the two
        // processes at matched request counts.
        let dispersion = |requests: &[TraceRequest]| -> f64 {
            let window_ns = 100_000_000u64; // 100 ms
            let horizon = requests.last().unwrap().arrival_ns;
            let bins = (horizon / window_ns + 1) as usize;
            let mut counts = vec![0.0f64; bins];
            for r in requests {
                counts[(r.arrival_ns / window_ns) as usize] += 1.0;
            }
            let mean = counts.iter().sum::<f64>() / counts.len() as f64;
            let var = counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / counts.len() as f64;
            var / mean
        };
        let Trace::Open { requests: mmpp } = mmpp_spec(5).generate() else {
            unreachable!()
        };
        let Trace::Open { requests: poisson } = open_spec(800, 5).generate() else {
            unreachable!()
        };
        let m = dispersion(&mmpp);
        let p = dispersion(&poisson);
        assert!(
            m > 2.0 * p.max(0.5),
            "MMPP dispersion {m} should dwarf Poisson's {p}"
        );
    }

    fn diurnal_spec(seed: u64) -> TraceSpec {
        TraceSpec::mixed(
            ArrivalSpec::Diurnal {
                base_rps: 200.0,
                swing: 0.9,
                period_s: 2.0,
                requests: 2000,
            },
            seed,
        )
    }

    #[test]
    fn diurnal_trace_is_sorted_deterministic_and_sized() {
        let a = diurnal_spec(33).generate();
        assert_eq!(a.len(), 2000);
        let Trace::Open { requests } = &a else {
            panic!("diurnal must make an open trace");
        };
        assert!(requests
            .windows(2)
            .all(|w| w[0].arrival_ns <= w[1].arrival_ns));
        assert_eq!(a, diurnal_spec(33).generate());
        assert_ne!(a, diurnal_spec(34).generate());
    }

    #[test]
    fn diurnal_peaks_dwarf_troughs() {
        // The sin-positive half of each period must carry far more
        // arrivals than the sin-negative half: the half-period integrals
        // of the envelope are 1 ± 2·swing/π, a 3.7x ratio at swing 0.9.
        let Trace::Open { requests } = diurnal_spec(5).generate() else {
            unreachable!()
        };
        let period_ns = 2.0e9;
        let (mut peak, mut trough) = (0usize, 0usize);
        for r in &requests[..] {
            let phase = (r.arrival_ns as f64 % period_ns) / period_ns;
            if phase < 0.5 {
                peak += 1;
            } else {
                trough += 1;
            }
        }
        assert!(
            peak as f64 > 2.0 * trough as f64,
            "peak half {peak} vs trough half {trough}"
        );
    }

    #[test]
    fn slo_rides_on_generated_requests() {
        let mut spec = open_spec(50, 3);
        spec.classes[0] = spec.classes[0].clone().with_slo(0.025);
        let Trace::Open { requests } = spec.generate() else {
            unreachable!()
        };
        for r in &requests {
            match r.class {
                0 => assert_eq!(r.slo_ns, Some(25_000_000)),
                _ => assert_eq!(r.slo_ns, None),
            }
        }
        // SLO metadata never perturbs arrivals or workloads.
        let Trace::Open { requests: plain } = open_spec(50, 3).generate() else {
            unreachable!()
        };
        for (a, b) in requests.iter().zip(&plain) {
            assert_eq!(a.arrival_ns, b.arrival_ns);
            assert_eq!(a.workload, b.workload);
        }
    }

    #[test]
    fn shared_prefix_rides_along_without_perturbing_draws() {
        let mut spec = open_spec(60, 3);
        spec.classes[1] = spec.classes[1].clone().with_shared_prefix(96);
        let Trace::Open { requests } = spec.generate() else {
            unreachable!()
        };
        for r in &requests {
            match r.class {
                1 => assert_eq!(r.shared_prefix_tokens, 96.min(r.workload.seq_len)),
                _ => assert_eq!(r.shared_prefix_tokens, 0),
            }
        }
        // Prefix metadata adds no random draws: arrivals and workloads
        // are bit-identical to the prefix-free trace (the contiguous
        // reproducibility guarantee rides on this).
        let Trace::Open { requests: plain } = open_spec(60, 3).generate() else {
            unreachable!()
        };
        for (a, b) in requests.iter().zip(&plain) {
            assert_eq!(a.arrival_ns, b.arrival_ns);
            assert_eq!(a.workload, b.workload);
        }
    }

    #[test]
    fn chat_trace_is_mostly_shared_prefix() {
        let spec = TraceSpec::chat(
            ArrivalSpec::OpenPoisson {
                rate_rps: 200.0,
                requests: 300,
            },
            9,
        );
        let Trace::Open { requests } = spec.generate() else {
            unreachable!()
        };
        let (shared, prompt): (usize, usize) = requests.iter().fold((0, 0), |(s, p), r| {
            (s + r.shared_prefix_tokens, p + r.workload.seq_len)
        });
        assert!(
            shared * 2 >= prompt,
            "chat mix must share >= 50% of prompt tokens ({shared}/{prompt})"
        );
        assert!(requests.iter().all(|r| r.workload.gen_steps > 0));
    }

    #[test]
    fn disagg_chat_is_long_prefill_short_decode() {
        let spec = TraceSpec::disagg_chat(
            ArrivalSpec::OpenPoisson {
                rate_rps: 200.0,
                requests: 300,
            },
            11,
        );
        let Trace::Open { requests } = spec.generate() else {
            unreachable!()
        };
        assert_eq!(requests.len(), 300);
        for r in &requests {
            assert!(r.workload.gen_steps > 0, "every request decodes");
            assert!(
                r.workload.seq_len >= 10 * r.workload.gen_steps,
                "prompts dominate generations ({} vs {})",
                r.workload.seq_len,
                r.workload.gen_steps
            );
            assert!(r.shared_prefix_tokens >= 384.min(r.workload.seq_len));
        }
    }

    #[test]
    fn unpruned_twin_keeps_arrivals_and_lengths_bit_identical() {
        let arrival = ArrivalSpec::OpenPoisson {
            rate_rps: 300.0,
            requests: 120,
        };
        let Trace::Open { requests: pruned } = TraceSpec::disagg_chat(arrival, 13).generate()
        else {
            unreachable!()
        };
        let Trace::Open { requests: dense } =
            TraceSpec::disagg_chat(arrival, 13).unpruned().generate()
        else {
            unreachable!()
        };
        assert_eq!(pruned.len(), dense.len());
        for (a, b) in pruned.iter().zip(&dense) {
            // Same stream: pruning parameters add no random draws.
            assert_eq!(a.arrival_ns, b.arrival_ns);
            assert_eq!(a.workload.seq_len, b.workload.seq_len);
            assert_eq!(a.workload.gen_steps, b.workload.gen_steps);
            // But the twin keeps everything.
            assert!(a.workload.pruning.token_avg_keep < 1.0);
            assert_eq!(b.workload.pruning, PruningSpec::dense());
        }
    }

    #[test]
    fn fleet_spec_rides_along() {
        use crate::fleet::{ChipClass, FleetSpec};
        let spec = open_spec(10, 1).with_fleet(FleetSpec::mixed(2, 2));
        let fleet = spec.fleet.as_ref().expect("fleet attached");
        assert_eq!(fleet.len(), 4);
        assert_eq!(
            fleet
                .chips
                .iter()
                .filter(|&&c| c == ChipClass::Full)
                .count(),
            2
        );
        // Fleet metadata never perturbs the generated request stream.
        assert_eq!(spec.generate(), open_spec(10, 1).generate());
    }
}
