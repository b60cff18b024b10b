//! The per-job cost oracle: memoized incremental queries against the
//! cycle-accurate `spatten-core` perf model.
//!
//! A fleet simulation issues on the order of 10⁵ per-token cost queries;
//! running the cycle-level model for each would dominate wall time. Costs
//! depend only on (chip configuration, workload class, sequence length) —
//! the per-request seed jitters synthetic score streams, not
//! timing-relevant shape — so the oracle memoizes by chip config, class
//! and (bucketed) context length, computing each bucket once on a
//! seed-normalized representative workload.
//!
//! Fleets may be *heterogeneous* (Table-I chips next to
//! [`SpAttenConfig::eighth`]-scale ones), so every memo key carries a
//! [`CfgKey`] fingerprint of the chip configuration — two chips only share
//! cached costs when their hardware is identical. The [`FleetCost`] trait
//! is the chip-indexed interface the event loop and schedulers program
//! against; `spatten-cluster` implements it for sharded chip *groups*.
//!
//! Optionally the oracle folds in the FC costs of SpAtten-e2e
//! (`fc_weight_bits`), so serving numbers reflect end-to-end jobs rather
//! than attention-only kernels. FC and attention time-multiplex the same
//! multiplier arrays, so their costs serialize within a job.

use crate::request::Job;
use spatten_core::{
    decode_step_cost, prefill_cost, surviving_tokens, SpAttenConfig, SpAttenE2e, StepCost,
};
use spatten_nn::ModelConfig;
use spatten_workloads::fleet::LinkSpec;
use spatten_workloads::spec::BitwidthScheme;
use spatten_workloads::{PruningSpec, QuantPolicy, Workload};
use std::ops::Range;

/// Decode context lengths are bucketed to this granularity for memoization
/// (a 16-token context difference moves a decode step's cost by well under
/// the scheduling noise floor). Public so other cost oracles
/// (`spatten-cluster`) bucket identically and stay comparable.
pub const CTX_BUCKET: usize = 16;

/// A seed-normalized representative of `w` at length `len` for memoized
/// cost computation: fixed seed (costs must not depend on per-request
/// score jitter), no generation stage. Shared by every cost oracle so
/// sharded and single-chip prices stay apples-to-apples.
pub fn representative(w: &Workload, len: usize) -> Workload {
    Workload {
        seq_len: len,
        gen_steps: 0,
        seed: 0x5EED ^ (len as u64) << 1,
        ..w.clone()
    }
}

/// Memo key: every timing-relevant field of a workload *except* lengths
/// and seed. The benchmark name is left out too: no price reads it (only
/// the cycle model's run-report label does), so two classes that differ
/// only by name share their prices. Float policy fields are keyed by bit
/// pattern (exact equality is the right notion for "same class").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ClassKey {
    model: ModelConfig,
    token_avg_keep: u64,
    head_avg_keep: u64,
    token_front_frac: u64,
    head_front_frac: u64,
    local_value_keep: u64,
    scheme: BitwidthScheme,
    progressive: bool,
    lsb_threshold: u32,
}

impl ClassKey {
    /// The class fingerprint of `w`. Destructures `Workload`,
    /// `PruningSpec` and `QuantPolicy` without a rest pattern on purpose,
    /// naming the name, length and seed fields it leaves out: adding a
    /// field to any of them must fail to compile here (and in
    /// `ClassKey::matches`), not silently price one class as another.
    pub fn of(w: &Workload) -> Self {
        let Workload {
            name: _,
            model,
            seq_len: _,
            gen_steps: _,
            pruning,
            quant,
            seed: _,
        } = w;
        let PruningSpec {
            token_avg_keep,
            head_avg_keep,
            token_front_frac,
            head_front_frac,
            local_value_keep,
        } = pruning;
        let QuantPolicy {
            scheme,
            progressive,
            lsb_threshold,
        } = quant;
        Self {
            model: *model,
            token_avg_keep: token_avg_keep.to_bits(),
            head_avg_keep: head_avg_keep.to_bits(),
            token_front_frac: token_front_frac.to_bits(),
            head_front_frac: head_front_frac.to_bits(),
            local_value_keep: local_value_keep.to_bits(),
            scheme: *scheme,
            progressive: *progressive,
            lsb_threshold: lsb_threshold.to_bits(),
        }
    }

    /// Whether `w` belongs to this class — `ClassKey::of(w) == *self`
    /// without building the key, ordered most-discriminating first
    /// (pruning policy separates a trace's classes from their unpruned
    /// twins).
    fn matches(&self, w: &Workload) -> bool {
        let Workload {
            name: _,
            model,
            seq_len: _,
            gen_steps: _,
            pruning,
            quant,
            seed: _,
        } = w;
        let PruningSpec {
            token_avg_keep,
            head_avg_keep,
            token_front_frac,
            head_front_frac,
            local_value_keep,
        } = pruning;
        let QuantPolicy {
            scheme,
            progressive,
            lsb_threshold,
        } = quant;
        self.token_avg_keep == token_avg_keep.to_bits()
            && self.head_avg_keep == head_avg_keep.to_bits()
            && self.token_front_frac == token_front_frac.to_bits()
            && self.head_front_frac == head_front_frac.to_bits()
            && self.local_value_keep == local_value_keep.to_bits()
            && self.scheme == *scheme
            && self.progressive == *progressive
            && self.lsb_threshold == lsb_threshold.to_bits()
            && self.model == *model
    }
}

/// Interns workload classes to dense small ids. A serving trace holds a
/// handful of classes but issues millions of cost queries, so the id
/// lookup must not allocate: a sticky last-hit slot answers runs of
/// queries for the same class, and a linear scan over the interned keys
/// (allocation-free field compares) answers the rest. Only a genuinely
/// new class pays `ClassKey::of`.
#[derive(Debug, Default, Clone)]
struct ClassIntern {
    keys: Vec<ClassKey>,
    last: usize,
}

impl ClassIntern {
    fn id(&mut self, w: &Workload) -> usize {
        if let Some(k) = self.keys.get(self.last) {
            if k.matches(w) {
                return self.last;
            }
        }
        if let Some(i) = self.keys.iter().position(|k| k.matches(w)) {
            self.last = i;
            return i;
        }
        self.keys.push(ClassKey::of(w));
        self.last = self.keys.len() - 1;
        self.last
    }
}

/// Memo key: every timing-relevant field of a chip configuration. A
/// heterogeneous fleet prices the same request class differently on a
/// Table-I chip and a 1/8-scale chip, so cached costs must never cross
/// config boundaries (float fields keyed by bit pattern).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CfgKey {
    multipliers_per_array: usize,
    topk_parallelism: usize,
    softmax_parallelism: usize,
    kv_sram_bytes: u64,
    clock_ghz: u64,
    hbm_channels: usize,
    hbm_bytes_per_cycle: u64,
    hbm_interleave_bytes: u64,
    hbm_row_bytes: u64,
    hbm_activation_cycles: u64,
    hbm_clock_ghz: u64,
    token_pruning: bool,
    head_pruning: bool,
    local_value_pruning: bool,
}

impl CfgKey {
    /// The hardware fingerprint of `cfg`. Destructures without a rest
    /// pattern on purpose: adding a field to `SpAttenConfig` (or its HBM
    /// config) must fail to compile here, not silently alias distinct
    /// chips in the memo.
    pub fn of(cfg: &SpAttenConfig) -> Self {
        let SpAttenConfig {
            multipliers_per_array,
            topk_parallelism,
            softmax_parallelism,
            kv_sram_bytes,
            clock_ghz,
            hbm,
            token_pruning,
            head_pruning,
            local_value_pruning,
        } = *cfg;
        let spatten_hbm::HbmConfig {
            channels,
            bytes_per_cycle,
            interleave_bytes,
            row_bytes,
            activation_cycles,
            clock_ghz: hbm_clock,
        } = hbm;
        Self {
            multipliers_per_array,
            topk_parallelism,
            softmax_parallelism,
            kv_sram_bytes,
            clock_ghz: clock_ghz.to_bits(),
            hbm_channels: channels,
            hbm_bytes_per_cycle: bytes_per_cycle,
            hbm_interleave_bytes: interleave_bytes,
            hbm_row_bytes: row_bytes,
            hbm_activation_cycles: activation_cycles,
            hbm_clock_ghz: hbm_clock.to_bits(),
            token_pruning,
            head_pruning,
            local_value_pruning,
        }
    }
}

/// The chip-indexed cost interface the fleet event loop and schedulers
/// program against. `chip` is the index of the *logical* executor — a
/// physical chip for [`CostModel`], a sharded chip group for
/// `spatten-cluster` — so heterogeneous fleets can price the same job
/// differently per executor.
///
/// ```
/// use spatten_core::SpAttenConfig;
/// use spatten_serve::{CostModel, FleetCost};
/// use spatten_workloads::Benchmark;
///
/// // A full-size chip next to an eighth-scale one: same job, two prices.
/// let mut cost = CostModel::heterogeneous(
///     vec![SpAttenConfig::default(), SpAttenConfig::eighth()],
///     Some(8),
/// );
/// let w = Benchmark::gpt2_small_wikitext2().workload();
/// assert!(cost.job_serial_on(1, &w) > cost.job_serial_on(0, &w));
/// assert!(cost.footprint_on(0, &w) <= cost.budget_on(0));
/// // Preemption swap: moving less KV costs fewer cycles.
/// assert!(cost.swap_cycles_on(0, &w, 64) <= cost.swap_cycles_on(0, &w, 512));
/// ```
pub trait FleetCost {
    /// Cost of `w`'s summarization/prefill pass on `chip`.
    fn prefill_on(&mut self, chip: usize, w: &Workload) -> StepCost;

    /// Cost of generating one token of `w` on `chip` at a (pre-pruning) KV
    /// context of `context` tokens.
    fn decode_on(&mut self, chip: usize, w: &Workload, context: usize) -> StepCost;

    /// KV-cache SRAM bytes the job pins while resident on `chip`: the
    /// *deepest-layer* survivor set of its maximum context (cascade
    /// pruning's end state — the working set SpAtten keeps hot across
    /// generation steps), K and V planes at the workload's MSB storage
    /// precision (the plane SpAtten streams during generation; LSB refetch
    /// is rare enough — ≈ 5.9 % of queries — not to be provisioned for).
    ///
    /// Clamped to [`FleetCost::budget_on`]: an oversized job (one whose
    /// working set alone exceeds the SRAMs) is still servable — the perf
    /// model charges it SRAM-overflow re-streaming — but it can never
    /// share a chip, so its effective reservation is the whole budget.
    fn footprint_on(&mut self, chip: usize, w: &Workload) -> u64;

    /// The KV packing budget of `chip`.
    fn budget_on(&self, chip: usize) -> u64;

    /// Cycles to move the KV state of a `tokens`-token context of `w`
    /// through `chip`'s HBM **one way** — the price preemption pays per
    /// direction: a swap-out at eviction (KV drained from the SRAMs to
    /// HBM) and a swap-in at re-admission (restored). Charged at the
    /// chip's aggregate DRAM bandwidth; the bytes follow the same
    /// deepest-layer-survivors-at-MSB-precision convention as
    /// [`FleetCost::footprint_on`], so a job swaps exactly the working
    /// set it pins.
    fn swap_cycles_on(&mut self, chip: usize, w: &Workload, tokens: usize) -> u64;

    /// KV bytes `job` must reserve to be admitted on `chip`. The default
    /// is the plain per-workload working set ([`FleetCost::footprint_on`]).
    /// Fit checks (admission, stealing, preemption) go through this, and
    /// the engine hands those seams a view that answers it from the
    /// chip's KV store ([`ChipKv::fit_bytes`](crate::kv::ChipKv::fit_bytes)):
    /// the working set under contiguous KV; under paged KV a page-table
    /// charge, with shared prefix pages priced once per chip and resumed
    /// jobs at their current position on the pruning curve. The
    /// scheduler's pending-work ledgers stay on `footprint_on` so charge
    /// and discharge remain symmetric.
    fn job_footprint_on(&mut self, chip: usize, job: &Job) -> u64 {
        self.footprint_on(chip, &job.workload)
    }

    /// KV bytes a `tokens`-token context of `w` transiently holds on
    /// `chip` at its planning peak — the largest survivor set any
    /// *pruned* cascade stage keeps ([`peak_survivors`]), bigger than the
    /// deepest-layer [`FleetCost::footprint_on`] working set that decode
    /// steps retire it down to. The paged allocator sizes a job's peak
    /// page count from this.
    fn raw_kv_bytes_on(&mut self, chip: usize, w: &Workload, tokens: usize) -> u64;

    /// Cycles to move `bytes` of KV state through `chip`'s HBM **one
    /// way**, for callers that already know the byte count: the paged
    /// allocator charges a preemption victim's *unique* (non-shared)
    /// pages through this instead of repricing the whole working set.
    fn swap_bytes_cycles_on(&mut self, chip: usize, w: &Workload, bytes: u64) -> u64;

    /// Cycles to stream `w`'s model weights into `chip`'s HBM before it
    /// can serve: the price of bringing a cold chip online (the
    /// [`ChipJoin`](crate::elastic::ChipJoin) model-load delay). The
    /// default prices [`model_weight_bytes`] at 8-bit storage through
    /// [`FleetCost::swap_bytes_cycles_on`], so any oracle with a real
    /// HBM drain model inherits a consistent weight-stream rate;
    /// `CostModel` overrides with its quantized FC width and a memo,
    /// and `ClusterCostModel` composes shards via its slowest-shard
    /// swap pricing for free.
    fn weight_load_cycles_on(&mut self, chip: usize, w: &Workload) -> u64 {
        let bytes = model_weight_bytes(&w.model, 8);
        self.swap_bytes_cycles_on(chip, w, bytes)
    }

    /// Cycles a prefill→decode KV handoff of `bytes` occupies **each** of
    /// `src` and `dst`: the source drains the job's unique dirty blocks
    /// from its SRAMs through HBM, the wire carries them `hops` hops over
    /// `link`, and the destination fills its own KV store — three
    /// pipelined stages, so the transfer runs at the slowest stage's rate
    /// plus the per-hop propagation latency. The caller (the disaggregation
    /// layer) supplies `hops` and `link` from its [`PoolSpec`]. Every
    /// oracle, `spatten-cluster`'s included, prices the handoff this way,
    /// through its own [`FleetCost::swap_bytes_cycles_on`].
    ///
    /// [`PoolSpec`]: crate::disagg::PoolSpec
    fn handoff_cycles_on(
        &mut self,
        src: usize,
        dst: usize,
        w: &Workload,
        bytes: u64,
        hops: u64,
        link: &LinkSpec,
    ) -> u64 {
        let wire = bytes.div_ceil(link.bytes_per_cycle.max(1));
        let drain = self.swap_bytes_cycles_on(src, w, bytes);
        let fill = self.swap_bytes_cycles_on(dst, w, bytes);
        hops.saturating_mul(link.latency_cycles) + wire.max(drain).max(fill)
    }

    /// Hints the oracle at the live resident-batch size on `chip` before a
    /// round is priced. The chip event loop calls this at every round
    /// start; batch-aware oracles (pipeline bubble amortization in
    /// `spatten-cluster`) fold the depth into subsequent step costs, while
    /// single-chip models ignore it. The hint is sticky until the next
    /// call for the same chip.
    fn note_batch(&mut self, _chip: usize, _resident: usize) {}

    /// Serial cycles of one decode step of `w` on `chip` at every context
    /// in `contexts`, summed: the decode half of every backlog estimate
    /// ([`FleetCost::job_serial_on`],
    /// [`remaining_cycles_on`](crate::scheduler::remaining_cycles_on)).
    /// The default asks [`FleetCost::decode_on`] once per context, in
    /// ascending order. An oracle whose decode price is constant across a
    /// run of contexts may price the run once and multiply: the sum is of
    /// `u64`s, so that is exact, not an approximation.
    fn decode_span_on(&mut self, chip: usize, w: &Workload, contexts: Range<usize>) -> u64 {
        contexts
            .map(|context| self.decode_on(chip, w, context).serial_cycles)
            .sum()
    }

    /// Serialized cycles of the whole job on `chip`: prefill plus every
    /// decode step. This is what a run-to-completion scheduler charges, and
    /// what shortest-job-first sorts by.
    fn job_serial_on(&mut self, chip: usize, w: &Workload) -> u64 {
        let prefill = self.prefill_on(chip, w).serial_cycles;
        prefill + self.decode_span_on(chip, w, w.seq_len + 1..w.seq_len + w.gen_steps + 1)
    }

    /// Cycles from job start until its first visible token on `chip`: the
    /// prefill pass, plus one decode step for generative jobs.
    fn first_token_on(&mut self, chip: usize, w: &Workload) -> u64 {
        let mut total = self.prefill_on(chip, w).serial_cycles;
        if w.gen_steps > 0 {
            total += self.decode_on(chip, w, w.seq_len + 1).serial_cycles;
        }
        total
    }

    /// Pre-prices the cost plane for `jobs` on `threads` worker threads
    /// before a simulation starts ([`SimMode::ParallelRounds`]). Memo
    /// entries are pure functions of `(chip config, class, length)`, so
    /// any schedule of workers produces the same oracle state — the
    /// simulation that follows is bit-for-bit identical to a cold
    /// serial run, just faster through its miss phase. The default is a
    /// no-op: oracles without a memo have nothing to warm.
    ///
    /// [`SimMode::ParallelRounds`]: crate::scheduler::SimMode
    fn prewarm(&mut self, jobs: &mut dyn Iterator<Item = &Workload>, threads: usize) {
        let _ = (jobs, threads);
    }
}

/// Weight-plane bytes of model `m` at `bits`-bit storage: the attention
/// projections (Q/K/V/O, `4·hidden²` per layer) plus the FFN up/down
/// pair at the canonical 4× expansion (`8·hidden²` per layer). This is
/// the byte count a cold chip must stream through HBM before it can
/// serve its first request — the price [`FleetCost::weight_load_cycles_on`]
/// charges a [`ChipJoin`](crate::elastic::ChipJoin).
pub fn model_weight_bytes(m: &ModelConfig, bits: u32) -> u64 {
    (m.layers as u64)
        .saturating_mul(12)
        .saturating_mul((m.hidden as u64).saturating_mul(m.hidden as u64))
        .saturating_mul(u64::from(bits))
        .div_ceil(8)
}

/// Core cycles to stream `bytes` through `cfg`'s HBM at its aggregate
/// bandwidth: `channels × bytes_per_cycle` per HBM cycle, rescaled across
/// the clock domains the way the fleet event queue ticks (core cycles).
/// Every swap, handoff and weight-load price, sharded ones included,
/// drains through this.
pub fn hbm_stream_cycles(cfg: &SpAttenConfig, bytes: u64) -> u64 {
    let per_hbm_cycle = (cfg.hbm.channels as u64 * cfg.hbm.bytes_per_cycle).max(1);
    let hbm_cycles = bytes.div_ceil(per_hbm_cycle);
    (hbm_cycles as f64 * cfg.clock_ghz / cfg.hbm.clock_ghz).ceil() as u64
}

/// Bytes of the K and V planes of `tokens` token rows `cols` columns
/// wide, at `w`'s MSB storage precision (the plane SpAtten streams during
/// generation). `cols` is the model's hidden width, or a tensor-parallel
/// shard's slice of it.
pub fn kv_plane_bytes(w: &Workload, tokens: usize, cols: u64) -> u64 {
    let bits = u64::from(w.quant.scheme.msb_bits());
    tokens as u64 * 2 * (cols * bits).div_ceil(8)
}

/// The largest survivor set any *pruned* cascade stage in `layers` holds
/// for a `tokens`-token context — the transient planning peak a paged
/// allocator sizes page tables from. Entry stages that have not pruned
/// yet stream through scratch and never land in the paged pool, so they
/// don't count; if nothing in the range prunes (cascade off), the full
/// token count stands.
pub fn peak_survivors(
    cfg: &SpAttenConfig,
    w: &Workload,
    layers: Range<usize>,
    tokens: usize,
) -> usize {
    layers
        .map(|l| surviving_tokens(cfg, w, l, tokens))
        .filter(|&s| s < tokens)
        .max()
        .unwrap_or(tokens)
}

/// KV-cache bytes of a `tokens`-token context of `w` on `cfg`: the
/// deepest-layer survivor set, K and V planes at the workload's MSB
/// storage precision. The single working-set convention
/// [`FleetCost::footprint_on`] (clamped to the budget) and
/// [`FleetCost::swap_cycles_on`] (unclamped) share — change it here and
/// both stay consistent.
fn kv_working_set_bytes(cfg: &SpAttenConfig, w: &Workload, tokens: usize) -> u64 {
    let deepest = surviving_tokens(cfg, w, w.model.layers - 1, tokens.max(1));
    kv_plane_bytes(w, deepest, w.model.hidden as u64)
}

/// One distinct chip configuration's memo tables, densely indexed by
/// (interned class id, length index). Lengths are bucketed by the caller
/// (decode/swap) or small enough to index directly (prefill by `seq_len`,
/// footprint by max context), so a hit is two bounds-checked loads — no
/// hashing, no key construction, no allocation.
#[derive(Debug, Default, Clone)]
struct MemoShard {
    prefill: Vec<Vec<Option<StepCost>>>,
    decode: Vec<Vec<Option<StepCost>>>,
    footprint: Vec<Vec<Option<u64>>>,
    swap: Vec<Vec<Option<u64>>>,
    raw: Vec<Vec<Option<u64>>>,
    weight_load: Vec<Vec<Option<u64>>>,
}

/// The dense-table hit path: `None` both when the class row or the length
/// slot has never been filled.
fn memo_get<T: Copy>(table: &[Vec<Option<T>>], class: usize, idx: usize) -> Option<T> {
    *table.get(class)?.get(idx)?
}

/// The miss path: grows the class row and length slot on demand.
fn memo_put<T: Copy>(table: &mut Vec<Vec<Option<T>>>, class: usize, idx: usize, value: T) {
    if table.len() <= class {
        table.resize_with(class + 1, Vec::new);
    }
    let row = &mut table[class];
    if row.len() <= idx {
        row.resize(idx + 1, None);
    }
    row[idx] = Some(value);
}

/// Memoized cost oracle for a fleet of (possibly heterogeneous) chips.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Per-chip configurations; a single entry prices every chip
    /// (homogeneous fleet).
    chip_cfgs: Vec<SpAttenConfig>,
    /// Configuration slot → memo shard: chips with identical
    /// configurations share one shard, so a heterogeneous constructor
    /// listing the same chip twice still computes each cost once.
    slot_shards: Vec<usize>,
    fc_weight_bits: Option<u32>,
    /// One lazily built e2e FC model per shard.
    e2e: Vec<Option<SpAttenE2e>>,
    classes: ClassIntern,
    shards: Vec<MemoShard>,
}

impl CostModel {
    fn build(chip_cfgs: Vec<SpAttenConfig>, fc_weight_bits: Option<u32>) -> Self {
        assert!(!chip_cfgs.is_empty(), "cost model needs at least one chip");
        let chip_keys: Vec<CfgKey> = chip_cfgs.iter().map(CfgKey::of).collect();
        let mut slot_shards = Vec::with_capacity(chip_keys.len());
        let mut shard_keys: Vec<CfgKey> = Vec::new();
        for key in &chip_keys {
            let shard = shard_keys.iter().position(|k| k == key).unwrap_or_else(|| {
                shard_keys.push(*key);
                shard_keys.len() - 1
            });
            slot_shards.push(shard);
        }
        Self {
            chip_cfgs,
            slot_shards,
            fc_weight_bits,
            e2e: vec![None; shard_keys.len()],
            classes: ClassIntern::default(),
            shards: vec![MemoShard::default(); shard_keys.len()],
        }
    }

    /// An end-to-end oracle for a homogeneous fleet: attention from the
    /// cycle-level model plus FC weight streaming at `fc_weight_bits`
    /// (SpAtten-e2e, Table IV).
    pub fn end_to_end(cfg: SpAttenConfig, fc_weight_bits: u32) -> Self {
        Self::build(vec![cfg], Some(fc_weight_bits))
    }

    /// An oracle for a heterogeneous fleet: chip `i` is priced against
    /// `chip_cfgs[i]`, and memoized costs are shared only between chips
    /// with identical configurations.
    pub fn heterogeneous(chip_cfgs: Vec<SpAttenConfig>, fc_weight_bits: Option<u32>) -> Self {
        Self::build(chip_cfgs, fc_weight_bits)
    }

    /// Maps a chip index onto its configuration slot: a single-config
    /// oracle prices every chip, so any index resolves to slot 0.
    fn slot(&self, chip: usize) -> usize {
        if self.chip_cfgs.len() == 1 {
            0
        } else {
            assert!(
                chip < self.chip_cfgs.len(),
                "chip {chip} out of {} configured",
                self.chip_cfgs.len()
            );
            chip
        }
    }

    /// One decode step of class `class` (`w`'s interned id) on slot
    /// `slot` at bucket index `idx` (context `idx * CTX_BUCKET`): a memo
    /// hit, or the cycle model on a seed-normalized representative.
    fn decode_bucket(&mut self, slot: usize, class: usize, w: &Workload, idx: usize) -> StepCost {
        let shard = self.slot_shards[slot];
        if let Some(c) = memo_get(&self.shards[shard].decode, class, idx) {
            return c;
        }
        let cost = self.miss(slot, w, Miss::Decode(idx));
        memo_put(&mut self.shards[shard].decode, class, idx, cost);
        cost
    }

    /// Builds the e2e FC model of `slot`'s shard on first use (end-to-end
    /// oracles only).
    fn build_e2e(&mut self, slot: usize) {
        let shard = self.slot_shards[slot];
        if let (Some(bits), None) = (self.fc_weight_bits, &self.e2e[shard]) {
            self.e2e[shard] = Some(SpAttenE2e::new(self.chip_cfgs[slot], bits));
        }
    }

    /// Prices a memo miss of `kind` for `w` on `slot`.
    fn miss(&mut self, slot: usize, w: &Workload, kind: Miss) -> StepCost {
        self.build_e2e(slot);
        let e2e = self.e2e[self.slot_shards[slot]].as_ref();
        price_miss(&self.chip_cfgs[slot], e2e, w, kind)
    }
}

/// Which step cost a memo miss (or a pre-pricing work item) computes.
#[derive(Clone, Copy)]
enum Miss {
    /// `prefill_on` at the workload's own `seq_len`.
    Prefill,
    /// `decode_on` at bucket index `idx` (context `idx * CTX_BUCKET`).
    Decode(usize),
}

/// The one cycle-model evaluation behind every memoized step cost: the
/// core model on a seed-normalized representative, plus the e2e FC cost
/// when the oracle is end-to-end. The lazy miss path and the pre-warm
/// both price through this, so a pre-priced entry is indistinguishable
/// from one the simulation would have computed on demand.
fn price_miss(cfg: &SpAttenConfig, e2e: Option<&SpAttenE2e>, w: &Workload, kind: Miss) -> StepCost {
    match kind {
        Miss::Prefill => {
            let rep = representative(w, w.seq_len);
            let mut cost = prefill_cost(cfg, &rep);
            if let Some(e) = e2e {
                cost.add(e.fc_prefill_cost(&rep));
            }
            cost
        }
        Miss::Decode(idx) => {
            let bucket = idx * CTX_BUCKET;
            let rep = representative(w, bucket);
            let mut cost = decode_step_cost(cfg, &rep, bucket);
            if let Some(e) = e2e {
                cost.add(e.fc_decode_cost(&rep));
            }
            cost
        }
    }
}

/// The pre-warm work grid: for every shard's representative slot in
/// `slots`, every exemplar's prefill plus every decode bucket its
/// generation range touches, as `(slot, exemplar, miss)` in the order
/// first named. Serving prices decode from context `seq_len + 1` on
/// (`Chip::start_round`, `first_token_on`, `remaining_cycles_on`), so a
/// job's buckets are those of contexts `seq_len + 1 ..= seq_len +
/// gen_steps`. Each `(shard, class, length)` is named once, deduped the
/// way the memo collapses them (prefill by exact length, decode by
/// bucket) in dense tables like the memo's own.
fn work_grid(
    exemplars: &[Workload],
    exemplar_class: &[usize],
    slots: &[usize],
    classes: usize,
) -> Vec<(usize, usize, Miss)> {
    /// Marks `idx` in `row`, and says whether it was unmarked.
    fn first_visit(row: &mut Vec<bool>, idx: usize) -> bool {
        if row.len() <= idx {
            row.resize(idx + 1, false);
        }
        !std::mem::replace(&mut row[idx], true)
    }
    let mut prefill_seen = vec![Vec::new(); slots.len() * classes];
    let mut decode_seen = prefill_seen.clone();
    let mut items = Vec::new();
    for (ex, w) in exemplars.iter().enumerate() {
        for (shard, &slot) in slots.iter().enumerate() {
            let row = shard * classes + exemplar_class[ex];
            if first_visit(&mut prefill_seen[row], w.seq_len) {
                items.push((slot, ex, Miss::Prefill));
            }
            if w.gen_steps == 0 {
                continue;
            }
            let first = (w.seq_len + 1).div_ceil(CTX_BUCKET);
            for idx in first..=(w.seq_len + w.gen_steps).div_ceil(CTX_BUCKET) {
                if first_visit(&mut decode_seen[row], idx) {
                    items.push((slot, ex, Miss::Decode(idx)));
                }
            }
        }
    }
    items
}

impl FleetCost for CostModel {
    fn prefill_on(&mut self, chip: usize, w: &Workload) -> StepCost {
        let slot = self.slot(chip);
        let shard = self.slot_shards[slot];
        let class = self.classes.id(w);
        if let Some(c) = memo_get(&self.shards[shard].prefill, class, w.seq_len) {
            return c;
        }
        let cost = self.miss(slot, w, Miss::Prefill);
        memo_put(&mut self.shards[shard].prefill, class, w.seq_len, cost);
        cost
    }

    fn decode_on(&mut self, chip: usize, w: &Workload, context: usize) -> StepCost {
        let slot = self.slot(chip);
        let class = self.classes.id(w);
        self.decode_bucket(slot, class, w, context.max(1).div_ceil(CTX_BUCKET))
    }

    /// Interns the class once and prices each [`CTX_BUCKET`] the run
    /// touches once, as `contexts in the bucket × serial_cycles`. Buckets
    /// are visited in ascending order, so misses fill the memo exactly as
    /// the per-context default would.
    fn decode_span_on(&mut self, chip: usize, w: &Workload, contexts: Range<usize>) -> u64 {
        if contexts.is_empty() {
            return 0;
        }
        let slot = self.slot(chip);
        let class = self.classes.id(w);
        let mut total = 0;
        let mut context = contexts.start;
        while context < contexts.end {
            let idx = context.max(1).div_ceil(CTX_BUCKET);
            // Contexts `(idx - 1) * CTX_BUCKET + 1 ..= idx * CTX_BUCKET`
            // (and context 0) share bucket `idx`.
            let next = (idx * CTX_BUCKET + 1).min(contexts.end);
            let step = self.decode_bucket(slot, class, w, idx).serial_cycles;
            total += (next - context) as u64 * step;
            context = next;
        }
        total
    }

    fn footprint_on(&mut self, chip: usize, w: &Workload) -> u64 {
        let slot = self.slot(chip);
        let shard = self.slot_shards[slot];
        let class = self.classes.id(w);
        let max_ctx = w.seq_len + w.gen_steps;
        if let Some(b) = memo_get(&self.shards[shard].footprint, class, max_ctx) {
            return b;
        }
        let cfg = &self.chip_cfgs[slot];
        let bytes = kv_working_set_bytes(cfg, w, max_ctx).min(self.budget_on(chip));
        memo_put(&mut self.shards[shard].footprint, class, max_ctx, bytes);
        bytes
    }

    fn budget_on(&self, chip: usize) -> u64 {
        2 * self.chip_cfgs[self.slot(chip)].kv_sram_bytes
    }

    fn swap_cycles_on(&mut self, chip: usize, w: &Workload, tokens: usize) -> u64 {
        if tokens == 0 {
            return 0;
        }
        let slot = self.slot(chip);
        let shard = self.slot_shards[slot];
        let class = self.classes.id(w);
        // Bucket like decode costs: swap prices move well under the
        // scheduling noise floor within a bucket, and preemption storms
        // would otherwise fill the memo with per-token entries.
        let idx = tokens.div_ceil(CTX_BUCKET);
        if let Some(c) = memo_get(&self.shards[shard].swap, class, idx) {
            return c;
        }
        let bucket = idx * CTX_BUCKET;
        let cfg = &self.chip_cfgs[slot];
        // Same working-set convention as `footprint_on`, at the *present*
        // context rather than the maximum one (a job evicted mid-run has
        // only built the KV it has seen), and unclamped: an oversized job
        // streams its whole working set through HBM even though it only
        // ever holds a budget's worth resident.
        let cycles = hbm_stream_cycles(cfg, kv_working_set_bytes(cfg, w, bucket));
        memo_put(&mut self.shards[shard].swap, class, idx, cycles);
        cycles
    }

    fn raw_kv_bytes_on(&mut self, chip: usize, w: &Workload, tokens: usize) -> u64 {
        if tokens == 0 {
            return 0;
        }
        let slot = self.slot(chip);
        let shard = self.slot_shards[slot];
        let class = self.classes.id(w);
        if let Some(b) = memo_get(&self.shards[shard].raw, class, tokens) {
            return b;
        }
        let peak = peak_survivors(&self.chip_cfgs[slot], w, 0..w.model.layers, tokens);
        let bytes = kv_plane_bytes(w, peak, w.model.hidden as u64);
        memo_put(&mut self.shards[shard].raw, class, tokens, bytes);
        bytes
    }

    fn swap_bytes_cycles_on(&mut self, chip: usize, _w: &Workload, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        hbm_stream_cycles(&self.chip_cfgs[self.slot(chip)], bytes)
    }

    fn weight_load_cycles_on(&mut self, chip: usize, w: &Workload) -> u64 {
        let slot = self.slot(chip);
        let shard = self.slot_shards[slot];
        let class = self.classes.id(w);
        if let Some(c) = memo_get(&self.shards[shard].weight_load, class, 0) {
            return c;
        }
        // Weights stream at the chip's quantized FC width when the oracle
        // is end-to-end (the same bits `SpAttenE2e` streams per decode
        // step), at 8-bit storage for attention-only oracles.
        let bits = self.fc_weight_bits.unwrap_or(8);
        let bytes = model_weight_bytes(&w.model, bits);
        let cycles = self.swap_bytes_cycles_on(chip, w, bytes);
        memo_put(&mut self.shards[shard].weight_load, class, 0, cycles);
        cycles
    }

    fn prewarm(&mut self, jobs: &mut dyn Iterator<Item = &Workload>, threads: usize) {
        use std::collections::HashSet;
        // Pass 1: collapse the (possibly million-entry) job stream to
        // its distinct (class, seq_len, gen_steps) exemplars with the
        // allocation-free intern matcher.
        let mut intern = ClassIntern::default();
        let mut seen: HashSet<(usize, usize, usize)> = HashSet::new();
        let mut exemplars: Vec<Workload> = Vec::new();
        let mut exemplar_class: Vec<usize> = Vec::new();
        for w in jobs {
            let class = intern.id(w);
            if seen.insert((class, w.seq_len, w.gen_steps)) {
                exemplars.push(w.clone());
                exemplar_class.push(class);
            }
        }
        // Pass 2: the work grid.
        let rep_slots: Vec<usize> = (0..self.shards.len())
            .map(|shard| {
                self.slot_shards
                    .iter()
                    .position(|&s| s == shard)
                    .expect("every shard has a slot")
            })
            .collect();
        let items = work_grid(&exemplars, &exemplar_class, &rep_slots, intern.keys.len());
        // Pass 3: price the grid. Worker `t` takes every `threads`-th
        // item from `t`, inline when there is one worker and on scoped
        // threads otherwise; all share the oracle's e2e FC models.
        // Results are keyed by item index, so the merge below is
        // independent of worker scheduling — and the values are pure
        // functions of the key, so even a different item partition
        // yields the same memo.
        for &slot in &rep_slots {
            self.build_e2e(slot);
        }
        let threads = threads.max(1).min(items.len().max(1));
        let (items, exemplars) = (&items, &exemplars);
        let (chip_cfgs, slot_shards, e2e) = (&self.chip_cfgs, &self.slot_shards, &self.e2e);
        let worker = move |t: usize| -> Vec<(usize, StepCost)> {
            (t..items.len())
                .step_by(threads)
                .map(|i| {
                    let (slot, ex, kind) = items[i];
                    let e2e = e2e[slot_shards[slot]].as_ref();
                    (i, price_miss(&chip_cfgs[slot], e2e, &exemplars[ex], kind))
                })
                .collect()
        };
        let results: Vec<(usize, StepCost)> = if threads == 1 {
            worker(0)
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| scope.spawn(move || worker(t)))
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("prewarm worker panicked"))
                    .collect()
            })
        };
        // Deterministic merge: intern the exemplar classes in discovery
        // order (exactly what a serial run's first arrivals would do),
        // then land every priced entry in its memo slot.
        for (i, cost) in results {
            let (slot, ex, kind) = items[i];
            let shard = self.slot_shards[slot];
            let class = self.classes.id(&exemplars[ex]);
            match kind {
                Miss::Prefill => memo_put(
                    &mut self.shards[shard].prefill,
                    class,
                    exemplars[ex].seq_len,
                    cost,
                ),
                Miss::Decode(idx) => memo_put(&mut self.shards[shard].decode, class, idx, cost),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatten_workloads::Benchmark;

    fn model() -> CostModel {
        CostModel::end_to_end(SpAttenConfig::default(), 8)
    }

    #[test]
    fn prewarm_grid_names_exactly_the_lengths_serving_prices() {
        // Lengths on and off bucket edges, jobs with no generation steps,
        // a second class, and a repeated job.
        let gpt2 = Benchmark::gpt2_small_wikitext2().workload();
        let bert = Benchmark::bert_base_sst2().workload();
        let jobs = [
            (&gpt2, 0, 16, 1),
            (&gpt2, 0, 32, 16),
            (&gpt2, 0, 33, 15),
            (&gpt2, 0, 47, 2),
            (&gpt2, 0, 48, 0),
            (&gpt2, 0, 16, 1),
            (&bert, 1, 64, 0),
            (&bert, 1, 128, 32),
        ];
        let exemplars: Vec<Workload> = jobs
            .iter()
            .map(|&(w, _, seq_len, gen_steps)| Workload {
                seq_len,
                gen_steps,
                ..w.clone()
            })
            .collect();
        let classes: Vec<usize> = jobs.iter().map(|j| j.1).collect();
        let slots = [0, 3];
        let grid = work_grid(&exemplars, &classes, &slots, 2);
        let named: std::collections::HashSet<_> = grid
            .iter()
            .map(|&(slot, ex, miss)| match miss {
                Miss::Prefill => (slot, classes[ex], false, exemplars[ex].seq_len),
                Miss::Decode(idx) => (slot, classes[ex], true, idx),
            })
            .collect();
        assert_eq!(named.len(), grid.len(), "an item is named twice");
        // The reference walks every context serving decodes at.
        let mut want = std::collections::HashSet::new();
        for (w, &class) in exemplars.iter().zip(&classes) {
            for &slot in &slots {
                want.insert((slot, class, false, w.seq_len));
                for context in w.seq_len + 1..=w.seq_len + w.gen_steps {
                    want.insert((slot, class, true, context.div_ceil(CTX_BUCKET)));
                }
            }
        }
        assert_eq!(named, want);
    }

    #[test]
    fn decode_cost_grows_with_context() {
        let mut m = model();
        let w = Benchmark::gpt2_small_wikitext2().workload();
        let near = m.decode_on(0, &w, 64).serial_cycles;
        let far = m.decode_on(0, &w, 1024).serial_cycles;
        assert!(far > near, "decode at ctx 1024 ({far}) vs 64 ({near})");
    }

    #[test]
    fn prefill_cost_grows_with_length() {
        let mut m = model();
        let mut w = Benchmark::bert_base_sst2().workload();
        w.seq_len = 32;
        let short = m.prefill_on(0, &w).serial_cycles;
        w.seq_len = 256;
        let long = m.prefill_on(0, &w).serial_cycles;
        assert!(long > 4 * short, "prefill 256 ({long}) vs 32 ({short})");
    }

    #[test]
    fn memoization_is_stable() {
        let mut m = model();
        let w = Benchmark::gpt2_small_wikitext2().workload();
        let a = m.decode_on(0, &w, 100);
        let b = m.decode_on(0, &w, 100);
        assert_eq!(a, b);
        // Same bucket → same memo entry.
        let c = m.decode_on(0, &w, 97);
        assert_eq!(a, c);
    }

    #[test]
    fn heterogeneous_chips_do_not_share_cached_costs() {
        // A full Table-I chip and a 1/8-scale chip price the same decode
        // step differently; the memo must keep them apart.
        let mut m = CostModel::heterogeneous(
            vec![SpAttenConfig::default(), SpAttenConfig::eighth()],
            Some(8),
        );
        let w = Benchmark::gpt2_small_wikitext2().workload();
        let full = m.decode_on(0, &w, 256);
        let eighth = m.decode_on(1, &w, 256);
        assert!(
            eighth.serial_cycles > full.serial_cycles,
            "eighth-scale chip must be slower: {} vs {}",
            eighth.serial_cycles,
            full.serial_cycles
        );
        // Re-querying returns the per-chip cached values unchanged.
        assert_eq!(m.decode_on(0, &w, 256), full);
        assert_eq!(m.decode_on(1, &w, 256), eighth);
    }

    #[test]
    fn identical_configs_share_one_memo_entry() {
        let mut m = CostModel::heterogeneous(
            vec![SpAttenConfig::default(), SpAttenConfig::default()],
            None,
        );
        let w = Benchmark::gpt2_small_wikitext2().workload();
        let a = m.decode_on(0, &w, 128);
        let b = m.decode_on(1, &w, 128);
        assert_eq!(a, b);
        assert_eq!(m.shards.len(), 1, "same config must share one shard");
        let cached: usize = m.shards[0]
            .decode
            .iter()
            .map(|row| row.iter().filter(|c| c.is_some()).count())
            .sum();
        assert_eq!(cached, 1, "same config must share the cache entry");
    }

    #[test]
    fn distinct_configs_get_distinct_shards() {
        let m = CostModel::heterogeneous(
            vec![
                SpAttenConfig::default(),
                SpAttenConfig::eighth(),
                SpAttenConfig::default(),
            ],
            None,
        );
        assert_eq!(m.shards.len(), 2, "two distinct configs, two shards");
        assert_eq!(m.slot_shards, vec![0, 1, 0]);
    }

    #[test]
    fn class_intern_is_allocation_free_on_hits_and_distinguishes_twins() {
        let mut m = model();
        let w = Benchmark::gpt2_small_wikitext2().workload();
        let mut dense = w.clone();
        dense.pruning = spatten_workloads::spec::PruningSpec::dense();
        // Interleaved queries across a class and its unpruned twin must
        // resolve to distinct ids (distinct prices) without ever
        // colliding, regardless of last-hit state.
        let pruned_cost = m.decode_on(0, &w, 256);
        let dense_cost = m.decode_on(0, &dense, 256);
        assert_ne!(pruned_cost, dense_cost, "twins must not share a price");
        for _ in 0..4 {
            assert_eq!(m.decode_on(0, &w, 256), pruned_cost);
            assert_eq!(m.decode_on(0, &dense, 256), dense_cost);
        }
        assert_eq!(m.classes.keys.len(), 2, "exactly two interned classes");
    }

    #[test]
    fn job_serial_matches_piecewise_sum() {
        let mut m = model();
        let mut w = Benchmark::gpt2_small_wikitext2().workload();
        w.seq_len = 128;
        w.gen_steps = 4;
        let total = m.job_serial_on(0, &w);
        let mut expect = m.prefill_on(0, &w).serial_cycles;
        for s in 0..4 {
            expect += m.decode_on(0, &w, 128 + s + 1).serial_cycles;
        }
        assert_eq!(total, expect);
        assert!(m.first_token_on(0, &w) < total);
    }

    #[test]
    fn decode_span_equals_the_per_context_sum() {
        let fleet = || {
            CostModel::heterogeneous(
                vec![SpAttenConfig::default(), SpAttenConfig::eighth()],
                Some(8),
            )
        };
        // The span oracle prices runs; the reference asks `decode_on`
        // once per context, as the trait default does.
        let (mut spans, mut tokens) = (fleet(), fleet());
        let w = Benchmark::gpt2_small_wikitext2().workload();
        let table = [
            0..0,     // empty
            40..40,   // empty, mid-bucket
            0..1,     // context 0 alone (bucket 1)
            0..17,    // from 0 through the end of bucket 1
            1..2,     // one context
            1..17,    // exactly bucket 1
            1..18,    // bucket 1 plus the head of bucket 2
            3..9,     // inside one bucket
            16..49,   // a bucket's last context through the next two
            17..33,   // exactly bucket 2
            100..260, // across ten buckets, ragged at both ends
        ];
        // Cold: every bucket is a miss the first time either oracle
        // sees it. Warm: the same queries again, all hits.
        for pass in ["cold", "warm"] {
            for chip in 0..2 {
                for contexts in table.clone() {
                    let per_context: u64 = contexts
                        .clone()
                        .map(|c| tokens.decode_on(chip, &w, c).serial_cycles)
                        .sum();
                    assert_eq!(
                        spans.decode_span_on(chip, &w, contexts.clone()),
                        per_context,
                        "{pass} chip {chip} contexts {contexts:?}"
                    );
                }
            }
            // The span fills the memo exactly as the per-context walk.
            for (a, b) in spans.shards.iter().zip(&tokens.shards) {
                assert_eq!(a.decode, b.decode, "{pass}: decode memo differs");
            }
        }
        assert_eq!(spans.shards.len(), 2, "both shards priced");
    }

    #[test]
    fn footprint_respects_budget_and_scales_with_context() {
        let mut m = model();
        let mut w = Benchmark::gpt2_small_wikitext2().workload();
        w.seq_len = 64;
        w.gen_steps = 8;
        let small = m.footprint_on(0, &w);
        w.seq_len = 512;
        let big = m.footprint_on(0, &w);
        assert!(small > 0);
        assert!(big > small);
        assert!(big <= m.budget_on(0));
    }

    #[test]
    fn raw_bytes_dominate_the_pruned_working_set() {
        let mut m = model();
        let w = Benchmark::gpt2_small_wikitext2().workload();
        let max_ctx = w.seq_len + w.gen_steps;
        // The cascade's entry stage keeps strictly more tokens than the
        // deepest schedule, so the planning peak is never smaller than
        // the resident working set the footprint convention prices —
        // and never bigger than the fully unpruned context.
        let peak = m.raw_kv_bytes_on(0, &w, max_ctx);
        assert!(peak >= m.footprint_on(0, &w));
        let bits = u64::from(w.quant.scheme.msb_bits());
        let unpruned = max_ctx as u64 * 2 * (w.model.hidden as u64 * bits).div_ceil(8);
        assert!(peak <= unpruned, "{peak} vs unpruned {unpruned}");
        assert_eq!(m.raw_kv_bytes_on(0, &w, 0), 0);
        // Monotone in tokens: a longer context never plans fewer bytes.
        assert!(m.raw_kv_bytes_on(0, &w, 64) <= m.raw_kv_bytes_on(0, &w, 128));
    }

    #[test]
    fn swap_bytes_pricing_is_monotone_and_zero_at_zero() {
        let mut m = model();
        let w = Benchmark::gpt2_small_wikitext2().workload();
        assert_eq!(m.swap_bytes_cycles_on(0, &w, 0), 0);
        let small = m.swap_bytes_cycles_on(0, &w, 4 << 10);
        let big = m.swap_bytes_cycles_on(0, &w, 4 << 20);
        assert!(small > 0, "nonzero bytes cost nonzero cycles");
        assert!(big > small, "{big} vs {small}");
    }

    #[test]
    fn handoff_is_bottlenecked_by_its_slowest_stage_plus_hop_latency() {
        let mut m = model();
        let w = Benchmark::gpt2_small_wikitext2().workload();
        let link = spatten_workloads::LinkSpec::default();
        let bytes = 4 << 20;
        let wire = bytes / link.bytes_per_cycle;
        let hbm = m.swap_bytes_cycles_on(0, &w, bytes);
        let c = m.handoff_cycles_on(0, 1, &w, bytes, 2, &link);
        assert_eq!(c, 2 * link.latency_cycles + wire.max(hbm));
        // The default board link is an order of magnitude below HBM, so
        // the wire stage dominates and pruning the payload pays off 1:1.
        assert!(wire > hbm, "wire {wire} vs hbm {hbm}");
        // Zero bytes still pay propagation latency; fewer hops cost less.
        assert_eq!(m.handoff_cycles_on(0, 1, &w, 0, 3, &link), 1500);
        assert!(
            m.handoff_cycles_on(0, 1, &w, bytes, 1, &link)
                < m.handoff_cycles_on(0, 1, &w, bytes, 4, &link)
        );
    }

    #[test]
    fn weight_load_scales_with_the_weight_plane_and_is_memoized() {
        let mut m = model();
        let w = Benchmark::gpt2_small_wikitext2().workload();
        let small = m.weight_load_cycles_on(0, &w);
        assert!(small > 0, "a cold chip pays for its weights");
        // Twice the layers is twice the bytes — and at least (HBM
        // pricing rounds) proportionally more cycles.
        let mut deep = w.clone();
        deep.model.layers *= 2;
        let big = m.weight_load_cycles_on(0, &deep);
        assert_eq!(
            model_weight_bytes(&deep.model, 8),
            2 * model_weight_bytes(&w.model, 8)
        );
        assert!(big > small, "{big} vs {small}");
        // The price is a pure function of (chip config, model): the memo
        // hit returns the identical value, and the table actually holds
        // it (no silent recompute).
        assert_eq!(m.weight_load_cycles_on(0, &w), small);
        assert!(
            m.shards[0].weight_load.iter().flatten().flatten().count() >= 2,
            "weight-load prices are memoized per class"
        );
        // Bit width scales bytes linearly.
        assert_eq!(
            model_weight_bytes(&w.model, 16),
            2 * model_weight_bytes(&w.model, 8)
        );
    }

    #[test]
    fn weight_load_is_cheaper_on_the_bigger_hbm_chip() {
        // A heterogeneous pair: the eighth-scale chip has an eighth the
        // HBM bandwidth, so streaming the same weight plane takes
        // longer there — the join delay the autoscaler pays depends on
        // which reserve chip it brings up.
        let mut m = CostModel::heterogeneous(
            vec![SpAttenConfig::default(), SpAttenConfig::eighth()],
            Some(8),
        );
        let w = Benchmark::gpt2_small_wikitext2().workload();
        let full = m.weight_load_cycles_on(0, &w);
        let eighth = m.weight_load_cycles_on(1, &w);
        assert!(
            eighth > full,
            "eighth-scale chip must load slower: {eighth} vs {full}"
        );
    }

    #[test]
    fn decode_is_memory_bound_with_fc() {
        // Table IV regime: generation is dominated by weight/KV streaming.
        let mut m = model();
        let w = Benchmark::gpt2_small_wikitext2().workload();
        let c = m.decode_on(0, &w, 512);
        assert!(c.dram_cycles > c.compute_cycles, "{c:?}");
    }

    #[test]
    fn prefill_is_compute_bound() {
        let mut m = model();
        let mut w = Benchmark::bert_base_sst2().workload();
        w.seq_len = 128;
        let c = m.prefill_on(0, &w);
        assert!(c.compute_cycles > c.dram_cycles, "{c:?}");
    }
}
