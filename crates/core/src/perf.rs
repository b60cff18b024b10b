//! The cycle-level performance model.
//!
//! Walks a workload layer by layer (and, for generative tasks, generation
//! step by step) through the SpAtten datapath of Fig. 8:
//!
//! * Per-layer survivor counts come from the pruning schedule (§V-A) — the
//!   *identities* of pruned tokens don't change timing, only their count
//!   and memory scatter, both of which are modelled.
//! * Compute is beat-accurate: each module's initiation interval per query
//!   is derived from its `spatten-arch` model (multiplier-array packing,
//!   softmax parallelism, top-k engine steady-state intervals measured on
//!   sampled score vectors), and the fully-pipelined layer time is the
//!   maximum of the module busy totals (§IV-A).
//! * DRAM traffic goes through the `spatten-hbm` channel model with the
//!   real scatter pattern cascade pruning produces (pruned survivors are
//!   spread over the original address range → fewer row hits).
//! * Progressive quantization fetches MSB planes eagerly; a calibrated
//!   fraction of queries (paper: ≈ 5.9 %) trips the max-probability
//!   comparator and pays the LSB refetch + recompute.

use crate::accelerator::SpAttenConfig;
use crate::progressive::ProgressiveController;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spatten_arch::{MultArray, Sram, TopkEngine};
use spatten_energy::{EnergyBreakdown, EnergyModel, EventCounts, PowerReport};
use spatten_hbm::{Hbm, Plane, RequestKind};
use spatten_workloads::{synth, Workload};

/// Fraction of generation queries whose attention-probability distribution
/// is flat enough to need LSBs (paper §III-D: "on average, only 5.9 % of
/// input samples require LSB"). Used as the calibrated flat-row probability
/// of the synthetic score streams.
const FLAT_QUERY_FRACTION: f64 = 0.059;

/// Compute/DRAM cost split of one serving-granularity unit of work — a
/// whole summarization (prefill) pass or a single generated token.
///
/// This is the incremental cost query the serving layer (`spatten-serve`)
/// builds on: a fleet scheduler needs per-token costs, not just whole-run
/// totals, and it needs the compute/memory split separately so it can model
/// HBM-bandwidth-aware co-scheduling (one job's multiplier-array work
/// overlapping another job's KV streaming).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepCost {
    /// Busy cycles of the bottleneck compute module, summed over layers.
    pub compute_cycles: u64,
    /// Slowest-channel DRAM busy cycles, summed over layers.
    pub dram_cycles: u64,
    /// The portion of `dram_cycles` that streams *model weights* (FC/FFN
    /// planes) rather than per-request KV state. Weights are identical for
    /// every request of the same model, so a batching scheduler fetches
    /// them once per iteration and shares them across the whole batch —
    /// the fundamental throughput lever of batched decode. Always
    /// `<= dram_cycles`; zero for attention-only costs.
    pub weight_dram_cycles: u64,
    /// End-to-end cycles exactly as [`simulate`] would charge: per layer,
    /// `max(compute, dram)` plus the pipeline-fill constant.
    pub serial_cycles: u64,
}

impl StepCost {
    /// Accumulates another step into this one (layer-by-layer addition).
    pub fn add(&mut self, other: StepCost) {
        self.compute_cycles += other.compute_cycles;
        self.dram_cycles += other.dram_cycles;
        self.weight_dram_cycles += other.weight_dram_cycles;
        self.serial_cycles += other.serial_cycles;
    }
}

/// Busy-cycle totals per module (for bottleneck and breakdown reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModuleCycles {
    /// Q·K multiplier array.
    pub qk: u64,
    /// Softmax pipeline.
    pub softmax: u64,
    /// Top-k engines (token/head + local-V).
    pub topk: u64,
    /// prob·V multiplier array.
    pub pv: u64,
    /// DRAM (slowest-channel busy time).
    pub dram: u64,
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// End-to-end cycles.
    pub total_cycles: u64,
    /// Core clock used, GHz.
    pub clock_ghz: f64,
    /// Per-module busy totals.
    pub modules: ModuleCycles,
    /// Event counts for energy accounting.
    pub counts: EventCounts,
    /// DRAM bytes actually moved.
    pub dram_bytes: u64,
    /// DRAM bytes an unpruned full-precision (fp32) run would move — the
    /// traffic a GPU-style baseline pays, which is the reference the
    /// paper's 10× DRAM-reduction headline uses (3.8× token × 1.1× head ×
    /// 5.1× quantization only multiplies out from a 32-bit baseline).
    pub dense_dram_bytes: u64,
    /// FLOPs actually performed.
    pub flops: u64,
    /// FLOPs an unpruned run would perform (attention core only).
    pub dense_flops: u64,
    /// Fraction of queries that refetched LSBs.
    pub lsb_fraction: f64,
    /// `(layer, tokens kept, heads kept)` at the end of summarization.
    pub survivors: Vec<(usize, usize, usize)>,
}

impl RunReport {
    /// Wall-clock seconds.
    pub fn seconds(&self) -> f64 {
        self.total_cycles as f64 / (self.clock_ghz * 1e9)
    }

    /// Achieved TFLOP/s.
    pub fn tflops(&self) -> f64 {
        self.flops as f64 / self.seconds() / 1e12
    }

    /// DRAM-access reduction vs. the dense 12-bit run.
    pub fn dram_reduction(&self) -> f64 {
        self.dense_dram_bytes as f64 / self.dram_bytes.max(1) as f64
    }

    /// Computation reduction vs. the dense run.
    pub fn computation_reduction(&self) -> f64 {
        self.dense_flops as f64 / self.flops.max(1) as f64
    }

    /// Operational intensity in FLOPs per DRAM byte (roofline x-axis).
    pub fn operational_intensity(&self) -> f64 {
        self.flops as f64 / self.dram_bytes.max(1) as f64
    }

    /// Energy under an [`EnergyModel`].
    pub fn energy(&self, model: &EnergyModel) -> EnergyBreakdown {
        model.energy(&self.counts)
    }

    /// Power under an [`EnergyModel`].
    pub fn power(&self, model: &EnergyModel) -> PowerReport {
        model.power(&self.counts, self.total_cycles, self.clock_ghz)
    }
}

/// One layer's worth of per-module work, accumulated into the report.
struct LayerTally {
    qk: u64,
    softmax: u64,
    topk: u64,
    pv: u64,
}

struct Sim<'a> {
    cfg: &'a SpAttenConfig,
    w: &'a Workload,
    hbm: Hbm,
    engine: TopkEngine,
    controller: ProgressiveController,
    rng: StdRng,
    counts: EventCounts,
    modules: ModuleCycles,
    total_cycles: u64,
    dram_bytes: u64,
    flops: u64,
    survivors: Vec<(usize, usize, usize)>,
    k_sram: Sram,
    addr_cursor: u64,
    /// `(way, ways)` of a tensor-parallel head split, if this instance
    /// models one shard. Splits the once-per-layer token-pruning top-k
    /// into a hierarchical selection over the shard's slice of candidate
    /// tokens (each shard ranks its share, the merge rides the all-reduce).
    shard: Option<(usize, usize)>,
}

/// Pipeline-fill constant per layer (module latencies paid once).
const LAYER_FILL_CYCLES: u64 = 64;

impl<'a> Sim<'a> {
    fn new(cfg: &'a SpAttenConfig, w: &'a Workload) -> Self {
        Self {
            cfg,
            w,
            hbm: Hbm::new(cfg.hbm),
            engine: TopkEngine::new(cfg.topk_parallelism, w.seed),
            controller: ProgressiveController::new(w.quant),
            rng: StdRng::seed_from_u64(w.seed ^ 0x9E3779B97F4A7C15),
            counts: EventCounts::new(),
            modules: ModuleCycles::default(),
            total_cycles: 0,
            dram_bytes: 0,
            flops: 0,
            survivors: Vec::new(),
            k_sram: Sram::new("key", cfg.kv_sram_bytes, 768, true),
            addr_cursor: 0,
            shard: None,
        }
    }

    fn trees(&self) -> u64 {
        (self.cfg.multipliers_per_array / self.w.model.head_dim()).max(1) as u64
    }

    fn tokens_kept(&self, layer: usize, current_len: usize) -> usize {
        surviving_tokens(self.cfg, self.w, layer, current_len)
    }

    fn heads_kept(&self, layer: usize) -> usize {
        if !self.cfg.head_pruning {
            return self.w.model.heads;
        }
        let keep = self.w.pruning.head_keep_at(layer, self.w.model.layers);
        ((self.w.model.heads as f64) * keep).round().max(1.0) as usize
    }

    /// Enqueues `tokens` scattered token-rows of `bytes_per_token` each,
    /// spread over an original range of `span` tokens (pruning scatter):
    /// token `i` at original slot `⌊i·span / tokens⌋`.
    fn enqueue_scattered(&mut self, tokens: usize, span: usize, bytes_per_token: u64) {
        let span = span.max(tokens).max(1) as u64;
        self.hbm.enqueue(Plane {
            base: self.addr_cursor,
            rows: tokens as u64,
            span,
            row_bytes: bytes_per_token,
            kind: RequestKind::Read,
        });
        self.counts.xbar_requests += tokens as u64;
        self.addr_cursor += span * bytes_per_token;
    }

    fn drain_dram(&mut self) -> u64 {
        let stats = self.hbm.drain();
        self.counts.dram_read_bits += stats.read_bytes * 8;
        self.counts.dram_write_bits += stats.write_bytes * 8;
        self.counts.dram_activations += stats.activations;
        self.counts.fifo_bits += (stats.read_bytes + stats.write_bytes) * 8;
        self.dram_bytes += stats.read_bytes + stats.write_bytes;
        stats.cycles
    }

    /// Steady-state interval of the local-V top-k on rows of length `l1`,
    /// measured on a sampled synthetic score vector (two samples averaged).
    fn local_topk_interval(&mut self, l1: usize, keep: usize) -> (u64, u64) {
        let mut total = 0u64;
        let mut comparisons = 0u64;
        for s in 0..2u64 {
            let scores = synth::synthetic_scores(l1, &[], 0.0, self.w.seed ^ (l1 as u64) ^ s);
            let cost = self.engine.select_cost(&scores, keep);
            total += self.engine.steady_interval_of(&cost, l1);
            comparisons += cost.visits + l1 as u64;
        }
        (total / 2, comparisons / 2)
    }

    /// Simulates one attention layer: `l0` queries against `l1` keys with
    /// `heads` active heads. `kv_in_sram` distinguishes summarization
    /// (K/V prefetched and reused) from generation (K/V streamed from DRAM
    /// every iteration). `out_cols` is the width (in elements) of the
    /// activation slice this datapath instance owns — the full model
    /// hidden size on a single chip, or `head_dim × shard heads` for a
    /// tensor-parallel shard, which scales the new-token Q/K/V fetch and
    /// the attention-out writeback so that shard costs sum to the
    /// unsharded cost. Returns the layer's compute-bottleneck and DRAM
    /// busy cycles; pipelined modules overlap, so the layer's serial time
    /// is `max(compute, dram) + LAYER_FILL_CYCLES`.
    fn attention_layer(
        &mut self,
        l0: usize,
        l1: usize,
        heads: usize,
        kv_in_sram: bool,
        out_cols: usize,
    ) -> (u64, u64) {
        let d = self.w.model.head_dim();
        let trees = self.trees();
        let sm_par = self.cfg.softmax_parallelism as u64;
        let msb_bits = u64::from(self.controller.eager_bits());
        let lsb_bits = u64::from(self.w.quant.scheme.lsb_bits());
        let hidden_active = (d * heads) as u64;

        // --- Local value pruning target. ---
        let local_keep = if self.cfg.local_value_pruning {
            ((l1 as f64) * self.w.pruning.local_value_keep).ceil() as usize
        } else {
            l1
        };

        // --- DRAM traffic. ---
        let bytes_per_token_plane = |bits: u64| (hidden_active * bits).div_ceil(8);
        if kv_in_sram {
            // Summarization: Q, K, V fetched once per layer; K/V reused
            // across queries from SRAM. If the K buffer can't hold all of
            // one head's keys, K/V are re-streamed per overflow factor.
            let tokens_fit = self.k_sram.token_capacity((d as u64) * 12) as usize;
            let refetch = l1.div_ceil(tokens_fit.max(1)) as u64;
            for _ in 0..refetch {
                self.enqueue_scattered(l1, self.original_span(l1), bytes_per_token_plane(msb_bits));
                self.enqueue_scattered(l1, self.original_span(l1), bytes_per_token_plane(msb_bits));
            }
            // Q plane + attention-out writeback at on-chip precision.
            self.enqueue_scattered(l0, self.original_span(l0), bytes_per_token_plane(msb_bits));
            self.hbm.enqueue(Plane::range(
                self.addr_cursor,
                l0 as u64 * (out_cols as u64 * 12).div_ceil(8),
                RequestKind::Write,
            ));
            self.addr_cursor += (l0 * out_cols * 2) as u64;
            // SRAM fills.
            self.counts.sram_bits += 2 * l1 as u64 * hidden_active * 12;
        } else {
            // Generation: K streamed for every query; V only for the
            // locally-unpruned rows; plus the new token's own Q/K/V.
            self.enqueue_scattered(l1, self.original_span(l1), bytes_per_token_plane(msb_bits));
            self.enqueue_scattered(
                local_keep,
                self.original_span(l1),
                bytes_per_token_plane(msb_bits),
            );
            self.hbm.enqueue(Plane::range(
                self.addr_cursor,
                3 * (out_cols as u64 * msb_bits).div_ceil(8),
                RequestKind::Read,
            ));
            self.addr_cursor += (3 * out_cols * 2) as u64;
            self.hbm.enqueue(Plane::range(
                self.addr_cursor,
                (out_cols as u64 * 12).div_ceil(8),
                RequestKind::Write,
            ));
            self.addr_cursor += (out_cols * 2) as u64;
        }

        // --- Compute: per-query module intervals, summed over queries and
        //     heads (heads processed sequentially, queries pipelined). ---
        let qk_ii = (l1 as u64).div_ceil(trees);
        let sm_ii = (l1 as u64).div_ceil(sm_par) + 1;
        let pv_ii = (local_keep as u64).div_ceil(trees);
        let (tk_ii, tk_cmps) = if self.cfg.local_value_pruning {
            self.local_topk_interval(l1, local_keep)
        } else {
            (0, 0)
        };

        // Progressive quantization: some queries refetch LSBs + recompute.
        let mut lsb_queries = 0u64;
        if self.controller.policy().progressive {
            for _ in 0..l0 {
                let max_prob = if self.rng.gen::<f64>() < FLAT_QUERY_FRACTION {
                    0.02 // flat row
                } else {
                    0.6 // dominated row
                };
                if self.controller.decide(max_prob) {
                    lsb_queries += 1;
                }
            }
            if lsb_queries > 0 {
                // K LSB planes for the flagged queries.
                self.enqueue_scattered(
                    l1,
                    self.original_span(l1),
                    (hidden_active * lsb_bits).div_ceil(8),
                );
            }
        } else {
            // Static quantization: decisions still counted for stats.
            for _ in 0..l0 {
                self.controller.decide(1.0);
            }
        }

        let queries = l0 as u64;
        let recompute = lsb_queries; // extra QK+softmax evaluations
        let mut tally = LayerTally {
            qk: queries * qk_ii * heads as u64 + recompute * qk_ii * heads as u64,
            softmax: queries * sm_ii * heads as u64 + recompute * sm_ii * heads as u64,
            topk: queries * tk_ii * heads as u64,
            pv: queries * pv_ii * heads as u64,
        };

        // Token-pruning + head-pruning top-k: once per layer on the
        // cumulative scores (reusing the same engine, §IV-B). A
        // tensor-parallel shard ranks only its slice of the candidate set.
        let tp_l1 = match self.shard {
            Some((way, ways)) => shard_heads(l1, way, ways),
            None => l1,
        };
        if self.cfg.token_pruning && tp_l1 > 2 {
            let scores =
                synth::synthetic_scores(tp_l1, &[], 0.0, self.w.seed ^ 0xABCD ^ tp_l1 as u64);
            let cost = self.engine.select_cost(&scores, (tp_l1 * 3) / 4);
            tally.topk += cost.cycles;
            self.counts.topk_comparisons += cost.visits + tp_l1 as u64;
        }
        if self.cfg.head_pruning {
            tally.topk += 4; // h ≤ 16: single-beat selection
        }

        // --- Event counts. ---
        let hq = heads as u64 * queries;
        self.counts.qk_macs += hq * (l1 * d) as u64 + recompute * heads as u64 * (l1 * d) as u64;
        self.counts.pv_macs += hq * (local_keep * d) as u64;
        self.counts.softmax_fmas += hq * l1 as u64 * 6;
        self.counts.softmax_divs += hq * l1 as u64;
        self.counts.topk_comparisons += hq * tk_cmps;
        // K rows re-read from SRAM for every query during summarization.
        if kv_in_sram {
            self.counts.sram_bits += hq * ((l1 + local_keep) * d) as u64 * 12;
        }
        self.flops += 2 * (hq * (l1 * d) as u64 + hq * (local_keep * d) as u64)
            + recompute * heads as u64 * 2 * (l1 * d) as u64;

        // --- Layer time: pipelined modules overlap; DRAM overlaps too. ---
        let dram_cycles = self.drain_dram();
        self.modules.qk += tally.qk;
        self.modules.softmax += tally.softmax;
        self.modules.topk += tally.topk;
        self.modules.pv += tally.pv;
        self.modules.dram += dram_cycles;

        let compute = tally.qk.max(tally.softmax).max(tally.topk).max(tally.pv);
        (compute, dram_cycles)
    }

    /// Serial cycles of one layer given its compute/DRAM split.
    fn layer_serial(compute: u64, dram: u64) -> u64 {
        compute.max(dram) + LAYER_FILL_CYCLES
    }

    /// The original-token span that `kept` survivors are scattered over.
    fn original_span(&self, kept: usize) -> usize {
        let orig = self.w.seq_len + self.w.gen_steps;
        orig.max(kept)
    }

    fn run(mut self) -> RunReport {
        let layers = self.w.model.layers;
        let full_heads = self.w.model.heads;

        // --- Summarization stage. ---
        //
        // Measurement protocol follows the paper (§V-A): discriminative
        // tasks measure the summarization pass; generative tasks measure
        // *the latency of generating `gen_steps` tokens* from the initial
        // context — the prompt pass is not part of the reported latency.
        if self.w.gen_steps == 0 {
            let mut len = self.w.seq_len;
            for layer in 0..layers {
                let heads = self.heads_kept(layer);
                let kept = self.tokens_kept(layer, self.w.seq_len).min(len);
                // Cascade: the layer computes on the *incoming* token set,
                // the pruning decision takes effect for the next layer.
                let hidden = self.w.model.hidden;
                let (compute, dram) = self.attention_layer(len, len, heads, true, hidden);
                self.total_cycles += Self::layer_serial(compute, dram);
                self.survivors.push((layer, kept, heads));
                len = kept;
            }
        } else {
            // Record the survivor schedule the generation stage inherits.
            for layer in 0..layers {
                self.survivors.push((
                    layer,
                    self.tokens_kept(layer, self.w.seq_len),
                    self.heads_kept(layer),
                ));
            }
        }

        // --- Generation stage. ---
        for step in 0..self.w.gen_steps {
            let ctx = self.w.seq_len + step + 1;
            for layer in 0..layers {
                let heads = self.heads_kept(layer);
                let kept = self.tokens_kept(layer, ctx);
                let hidden = self.w.model.hidden;
                let (compute, dram) = self.attention_layer(1, kept, heads, false, hidden);
                self.total_cycles += Self::layer_serial(compute, dram);
            }
        }

        // --- Dense baselines for the reduction factors. ---
        let model = self.w.model;
        let mut dense_flops = 0u64;
        let mut dense_bytes = 0u64;
        let hidden = model.hidden as u64;
        const DENSE_BITS: u64 = 32; // fp32 GPU-style baseline traffic
        if self.w.gen_steps == 0 {
            for _ in 0..layers {
                dense_flops +=
                    model.attention_core_flops(self.w.seq_len, self.w.seq_len, full_heads);
                dense_bytes += (3 * self.w.seq_len as u64 * hidden * DENSE_BITS).div_ceil(8)
                    + (self.w.seq_len as u64 * hidden * DENSE_BITS).div_ceil(8);
            }
        }
        for step in 0..self.w.gen_steps {
            let ctx = self.w.seq_len + step + 1;
            dense_flops += (layers as u64) * model.attention_core_flops(1, ctx, full_heads);
            dense_bytes += (layers as u64)
                * ((2 * ctx as u64 * hidden * DENSE_BITS).div_ceil(8)
                    + (4 * hidden * DENSE_BITS).div_ceil(8));
        }

        RunReport {
            workload: self.w.name.clone(),
            total_cycles: self.total_cycles,
            clock_ghz: self.cfg.clock_ghz,
            modules: self.modules,
            counts: self.counts,
            dram_bytes: self.dram_bytes,
            dense_dram_bytes: dense_bytes,
            flops: self.flops,
            dense_flops,
            lsb_fraction: self.controller.stats().lsb_fraction(),
            survivors: self.survivors,
        }
    }
}

/// Runs the cycle-level model for one workload.
pub fn simulate(cfg: &SpAttenConfig, workload: &Workload) -> RunReport {
    let _ = MultArray::new(cfg.multipliers_per_array); // validate config
    Sim::new(cfg, workload).run()
}

/// The number of heads out of `total` owned by shard `way` of a `ways`-way
/// tensor-parallel split: heads are dealt out one at a time, so the shard
/// counts partition `total` exactly (`Σ_way shard_heads = total`) for any
/// `ways`, including when `total` doesn't divide evenly.
///
/// # Panics
///
/// Panics if `ways` is zero or `way >= ways`.
pub fn shard_heads(total: usize, way: usize, ways: usize) -> usize {
    assert!(ways > 0, "tensor-parallel split needs at least one way");
    assert!(way < ways, "shard {way} out of {ways} ways");
    total / ways + usize::from(way < total % ways)
}

/// The attention slice one shard executes: a contiguous layer range (the
/// whole model for tensor parallelism, one pipeline stage otherwise) and an
/// optional `(way, ways)` head split within those layers.
fn slice_cost(
    cfg: &SpAttenConfig,
    w: &Workload,
    layers: std::ops::Range<usize>,
    context: Option<usize>,
    split: Option<(usize, usize)>,
) -> StepCost {
    let _ = MultArray::new(cfg.multipliers_per_array); // validate config
    assert!(
        layers.end <= w.model.layers,
        "layer range {layers:?} out of {} layers",
        w.model.layers
    );
    let d = w.model.head_dim();
    let mut sim = Sim::new(cfg, w);
    sim.shard = split;
    let mut total = StepCost::default();
    let mut len = w.seq_len;
    for layer in 0..layers.end {
        let heads = sim.heads_kept(layer);
        let kept = sim.tokens_kept(layer, context.unwrap_or(w.seq_len).max(1));
        let in_range = layer >= layers.start;
        if in_range {
            let (shard, out_cols) = match split {
                Some((way, ways)) => {
                    let s = shard_heads(heads, way, ways);
                    (s, s * d)
                }
                None => (heads, w.model.hidden),
            };
            // A shard that drew zero heads at this layer (more ways than
            // surviving heads) contributes nothing and waits at the
            // all-reduce — its peers' costs carry the layer.
            if shard > 0 {
                let (compute, dram) = match context {
                    Some(_) => sim.attention_layer(1, kept, shard, false, out_cols),
                    None => sim.attention_layer(len, len, shard, true, out_cols),
                };
                total.add(StepCost {
                    compute_cycles: compute,
                    dram_cycles: dram,
                    weight_dram_cycles: 0,
                    serial_cycles: Sim::layer_serial(compute, dram),
                });
            }
        }
        // Prefill length cascade: chain survivor counts even through the
        // layers before the range so a pipeline stage sees the token set
        // its upstream stages hand it.
        len = sim.tokens_kept(layer, w.seq_len).min(len);
    }
    total
}

/// Cost of the summarization (prefill) pass over `w.seq_len` tokens,
/// independent of `w.gen_steps`.
///
/// For discriminative workloads this is the whole job; for generative ones
/// it is the context pass a serving system must execute before the first
/// token can be emitted (the paper's own latency protocol excludes it, but
/// a fleet simulator cannot). Deterministic for a fixed `(cfg, w)`.
pub fn prefill_cost(cfg: &SpAttenConfig, w: &Workload) -> StepCost {
    // Normalize away the generation stage so the advertised independence
    // from `gen_steps` actually holds (`Sim::original_span` would
    // otherwise scatter prefill reads over the final context).
    let w = Workload {
        gen_steps: 0,
        ..w.clone()
    };
    slice_cost(cfg, &w, 0..w.model.layers, None, None)
}

/// Cost of generating *one* token with a KV context of `context` tokens
/// (pre-pruning), walking all layers with the workload's pruning schedule —
/// the incremental query a continuous-batching scheduler issues per
/// iteration. Deterministic for a fixed `(cfg, w, context)`.
pub fn decode_step_cost(cfg: &SpAttenConfig, w: &Workload, context: usize) -> StepCost {
    slice_cost(cfg, w, 0..w.model.layers, Some(context), None)
}

/// Prefill cost of shard `way` of a `ways`-way tensor-parallel split:
/// every layer, but only this shard's share of the surviving heads (and
/// the matching slice of Q/K/V traffic and attention-out writeback).
/// Shard costs partition the unsharded [`prefill_cost`] up to HBM scatter
/// effects; the per-layer all-reduce that stitches the shards back
/// together is the interconnect's to charge, not this function's.
pub fn prefill_cost_heads(cfg: &SpAttenConfig, w: &Workload, way: usize, ways: usize) -> StepCost {
    let w = Workload {
        gen_steps: 0,
        ..w.clone()
    };
    slice_cost(cfg, &w, 0..w.model.layers, None, Some((way, ways)))
}

/// Decode-step cost of shard `way` of a `ways`-way tensor-parallel split
/// at a (pre-pruning) KV context of `context` tokens. See
/// [`prefill_cost_heads`] for the sharding semantics.
pub fn decode_step_cost_heads(
    cfg: &SpAttenConfig,
    w: &Workload,
    context: usize,
    way: usize,
    ways: usize,
) -> StepCost {
    slice_cost(cfg, w, 0..w.model.layers, Some(context), Some((way, ways)))
}

/// Prefill cost of the pipeline stage owning `layers`: all heads, that
/// layer range only. The incoming token set is the survivor cascade of the
/// layers upstream of the range, so stage costs over a partition of
/// `0..w.model.layers` sum to the unsharded [`prefill_cost`] (up to HBM
/// scatter effects).
pub fn prefill_cost_layers(
    cfg: &SpAttenConfig,
    w: &Workload,
    layers: std::ops::Range<usize>,
) -> StepCost {
    let w = Workload {
        gen_steps: 0,
        ..w.clone()
    };
    slice_cost(cfg, &w, layers, None, None)
}

/// Decode-step cost of the pipeline stage owning `layers` at a
/// (pre-pruning) KV context of `context` tokens.
pub fn decode_step_cost_layers(
    cfg: &SpAttenConfig,
    w: &Workload,
    context: usize,
    layers: std::ops::Range<usize>,
) -> StepCost {
    slice_cost(cfg, w, layers, Some(context), None)
}

/// Tokens surviving cascade pruning at `layer` out of an incoming set of
/// `len`, under `cfg`'s pruning switches and `w`'s keep schedule. Layer
/// `w.model.layers - 1` is the deepest (smallest) survivor set — the KV
/// working set a serving scheduler packs into SRAM.
pub fn surviving_tokens(cfg: &SpAttenConfig, w: &Workload, layer: usize, len: usize) -> usize {
    if !cfg.token_pruning {
        return len;
    }
    let keep = w.pruning.token_keep_at(layer, w.model.layers);
    ((len as f64) * keep).round().max(2.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatten_workloads::Benchmark;

    fn run(id: &str) -> RunReport {
        let b = Benchmark::by_id(id).expect("benchmark exists");
        Accel().run(&b.workload())
    }

    #[allow(non_snake_case)]
    fn Accel() -> crate::accelerator::Accelerator {
        crate::accelerator::Accelerator::new(SpAttenConfig::default())
    }

    #[test]
    fn bert_is_compute_bound() {
        let r = run("bert-base-sst-2");
        assert!(
            r.modules.qk.max(r.modules.softmax).max(r.modules.topk) > r.modules.dram,
            "BERT should be compute-bound: {:?}",
            r.modules
        );
        // Paper: 1.61 TFLOPS on BERT (computation roof 2.048). Accept a
        // generous band around that.
        let t = r.tflops();
        assert!((0.4..2.1).contains(&t), "BERT TFLOPS {t}");
    }

    #[test]
    fn gpt2_is_memory_bound() {
        let r = run("gpt2-small-wikitext2");
        assert!(
            r.modules.dram > r.modules.qk,
            "GPT-2 generation should be memory-bound: {:?}",
            r.modules
        );
        // Paper: 0.43 TFLOPS on GPT-2.
        let t = r.tflops();
        assert!((0.05..1.0).contains(&t), "GPT-2 TFLOPS {t}");
    }

    #[test]
    fn pruning_reduces_dram_traffic_substantially() {
        let b = Benchmark::gpt2_small_wikitext2();
        let r = Accel().run(&b.workload());
        // Paper: ~21× on GPT-2 from a GPU-precision baseline (3.8× token ×
        // 1.1× head × 5.1× quantization).
        let red = r.dram_reduction();
        assert!((8.0..35.0).contains(&red), "DRAM reduction {red}");
    }

    #[test]
    fn dense_config_moves_more_data() {
        let b = Benchmark::gpt2_small_wikitext2();
        let mut w = b.workload();
        w.quant = spatten_workloads::QuantPolicy::full_precision();
        w.pruning = spatten_workloads::PruningSpec::dense();
        let dense = Accel().run(&w);
        let pruned = Accel().run(&b.workload());
        assert!(dense.dram_bytes > 3 * pruned.dram_bytes);
        assert!(dense.total_cycles > pruned.total_cycles);
    }

    #[test]
    fn lsb_fraction_matches_calibration() {
        let r = run("gpt2-small-wikitext2");
        assert!(
            (0.01..0.15).contains(&r.lsb_fraction),
            "LSB fraction {} should sit near the paper's 5.9 %",
            r.lsb_fraction
        );
    }

    #[test]
    fn bert_uses_no_lsb() {
        let r = run("bert-base-cola");
        assert_eq!(r.lsb_fraction, 0.0);
    }

    #[test]
    fn survivors_shrink_monotonically() {
        let r = run("bert-base-squad-v1");
        let mut prev = usize::MAX;
        for &(_, tokens, _) in &r.survivors {
            assert!(tokens <= prev);
            prev = tokens;
        }
        let first = r.survivors.first().unwrap().1;
        let last = r.survivors.last().unwrap().1;
        assert!(last < first, "deep layers must hold fewer tokens");
    }

    #[test]
    fn disabling_token_pruning_increases_cycles() {
        let b = Benchmark::gpt2_small_wikitext2();
        let w = b.workload();
        let cfg = SpAttenConfig::default();
        let on = Accelerator_run(&cfg, &w);
        let cfg = SpAttenConfig {
            token_pruning: false,
            ..cfg
        };
        let off = Accelerator_run(&cfg, &w);
        assert!(
            off.total_cycles as f64 > on.total_cycles as f64 * 1.5,
            "token pruning should matter: on {} off {}",
            on.total_cycles,
            off.total_cycles
        );
    }

    #[allow(non_snake_case)]
    fn Accelerator_run(cfg: &SpAttenConfig, w: &spatten_workloads::Workload) -> RunReport {
        crate::accelerator::Accelerator::new(*cfg).run(w)
    }

    #[test]
    fn serial_topk_slows_the_pipeline() {
        // Fig. 20: the high-parallelism engine is worth ~3× on GPT-2 —
        // without it top-k becomes the bottleneck. Compare P=1 vs P=16 on a
        // compute-bound BERT task where top-k is on the critical path.
        let b = Benchmark::by_id("bert-base-squad-v1").unwrap();
        let w = b.workload();
        let slow_cfg = SpAttenConfig {
            topk_parallelism: 1,
            ..SpAttenConfig::default()
        };
        let slow = Accelerator_run(&slow_cfg, &w);
        let fast_cfg = SpAttenConfig {
            topk_parallelism: 16,
            ..slow_cfg
        };
        let fast = Accelerator_run(&fast_cfg, &w);
        assert!(
            slow.total_cycles as f64 > 2.0 * fast.total_cycles as f64,
            "P=1 {} vs P=16 {}",
            slow.total_cycles,
            fast.total_cycles
        );
    }

    #[test]
    fn reports_are_deterministic() {
        let b = Benchmark::bert_base_sst2();
        let a = Accel().run(&b.workload());
        let c = Accel().run(&b.workload());
        assert_eq!(a.total_cycles, c.total_cycles);
        assert_eq!(a.dram_bytes, c.dram_bytes);
    }

    #[test]
    fn shard_heads_partition_total() {
        for total in [1usize, 3, 12, 16] {
            for ways in 1..=8usize {
                let sum: usize = (0..ways).map(|way| shard_heads(total, way, ways)).sum();
                assert_eq!(sum, total, "total {total} ways {ways}");
            }
        }
    }

    #[test]
    fn tensor_parallel_decode_shards_sum_near_unsharded() {
        let cfg = SpAttenConfig::default();
        let w = Benchmark::gpt2_small_wikitext2().workload();
        let whole = decode_step_cost(&cfg, &w, 512);
        for ways in [2usize, 4] {
            let mut sum = StepCost::default();
            for way in 0..ways {
                sum.add(decode_step_cost_heads(&cfg, &w, 512, way, ways));
            }
            let rel = |a: u64, b: u64| (a as f64 - b as f64).abs() / b.max(1) as f64;
            assert!(
                rel(sum.compute_cycles, whole.compute_cycles) < 0.25,
                "{ways}-way compute {} vs {}",
                sum.compute_cycles,
                whole.compute_cycles
            );
            assert!(
                rel(sum.dram_cycles, whole.dram_cycles) < 0.25,
                "{ways}-way dram {} vs {}",
                sum.dram_cycles,
                whole.dram_cycles
            );
        }
    }

    #[test]
    fn tensor_parallel_shard_is_cheaper_than_whole() {
        let cfg = SpAttenConfig::default();
        let w = Benchmark::gpt2_small_wikitext2().workload();
        let whole = decode_step_cost(&cfg, &w, 256);
        let shard = decode_step_cost_heads(&cfg, &w, 256, 0, 4);
        assert!(shard.serial_cycles < whole.serial_cycles);
        assert!(shard.dram_cycles < whole.dram_cycles);
    }

    #[test]
    fn pipeline_stages_sum_to_whole_prefill() {
        let cfg = SpAttenConfig::default();
        let mut w = Benchmark::bert_base_sst2().workload();
        w.seq_len = 128;
        let whole = prefill_cost(&cfg, &w);
        let layers = w.model.layers;
        let mut sum = StepCost::default();
        for range in [0..layers / 2, layers / 2..layers] {
            sum.add(prefill_cost_layers(&cfg, &w, range));
        }
        let rel = (sum.serial_cycles as f64 - whole.serial_cycles as f64).abs()
            / whole.serial_cycles as f64;
        assert!(
            rel < 0.05,
            "stage sum {} vs whole {}",
            sum.serial_cycles,
            whole.serial_cycles
        );
    }

    #[test]
    fn decode_layer_ranges_partition_the_step() {
        let cfg = SpAttenConfig::default();
        let w = Benchmark::gpt2_small_wikitext2().workload();
        let whole = decode_step_cost(&cfg, &w, 300);
        let layers = w.model.layers;
        let mut sum = StepCost::default();
        for range in [0..3, 3..7, 7..layers] {
            sum.add(decode_step_cost_layers(&cfg, &w, 300, range));
        }
        let rel = (sum.compute_cycles as f64 - whole.compute_cycles as f64).abs()
            / whole.compute_cycles as f64;
        assert!(
            rel < 0.10,
            "stage sum {} vs whole {}",
            sum.compute_cycles,
            whole.compute_cycles
        );
    }

    #[test]
    fn operational_intensity_separates_bert_from_gpt2() {
        let bert = run("bert-base-sst-2");
        let gpt2 = run("gpt2-small-wikitext2");
        assert!(
            bert.operational_intensity() > gpt2.operational_intensity(),
            "BERT {} vs GPT-2 {}",
            bert.operational_intensity(),
            gpt2.operational_intensity()
        );
    }
}
