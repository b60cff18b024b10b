//! Sharded chip groups as logical executors for the serving event loop.
//!
//! A [`GroupSpec`] is one model-parallel unit: the chips hosting each
//! shard, the sharding strategy, and the interconnect wiring them. The
//! [`ClusterCostModel`] prices jobs *per group* and implements
//! [`spatten_serve::FleetCost`], so the existing discrete-event simulator,
//! schedulers and metrics drive sharded groups exactly as they drive
//! single chips — the scheduler dispatches a job onto a group, and the
//! group's cost already folds in shard parallelism and link time.
//!
//! Cost composition per step:
//!
//! * **Tensor parallel** — shards run in lockstep, so a step's
//!   compute/DRAM split is the *slowest shard's* (they overlap), and the
//!   serial time adds two all-reduces per layer whose payload is the
//!   pruned survivor activation set ([`crate::shard::prefill_survivors`])
//!   — for decode, a single token row.
//! * **Pipeline parallel** — in steady state the pipeline emits one
//!   result per bottleneck-stage time; the serial time charges the
//!   bottleneck stage plus the fill/drain bubble (all other stages' work
//!   and the boundary hops) amortized over the configured micro-batch
//!   depth. Prefill micro-batches the sequence itself; decode amortizes
//!   over in-flight tokens of the resident batch.
//!
//! Link time uses the interconnect's *idle-link* analytic costs
//! ([`Interconnect::all_reduce_cycles`] / transfer cycles): within one
//! job's step the collective's internal serialization is already in the
//! formula, and across jobs the iteration model serializes each job's
//! collectives (they sit in the non-overlappable `serial_cycles`
//! residue), which conservatively stands in for cross-job link
//! contention.
//!
//! KV accounting: the serving layer admits against one scalar (footprint,
//! budget) pair per group, so per-shard budgets are folded in by
//! *normalizing*: a group's budget is its smallest per-shard budget
//! `B_min`, and a job's footprint is `max_s footprint_s × B_min /
//! budget_s` — each shard's footprint expressed as a fraction of *its
//! own chip's* budget, rescaled to `B_min` bytes. A batch that fits the
//! scalar budget therefore fits every shard individually (the per-job
//! max and conservative rounding keep it safe), but a big-SRAM shard is
//! no longer charged as if it had the small shard's budget — the
//! max-shard-footprint-vs-min-shard-budget approximation this replaces
//! rejected perfectly feasible batches on heterogeneous groups. On
//! homogeneous groups the two formulations coincide exactly. Tensor
//! parallelism divides per-shard footprints ≈ N-way, which is exactly
//! how sharding fits models (and batches) a single chip cannot hold.

use crate::shard::{
    activation_bytes, prefill_survivors, shard_decode, shard_kv_footprint, shard_kv_peak,
    shard_prefill, ShardStrategy,
};
use crate::topology::{Interconnect, Topology};
use spatten_core::{SpAttenConfig, StepCost};
use spatten_serve::{hbm_stream_cycles, representative, ClassKey, FleetCost, CTX_BUCKET};
use spatten_workloads::fleet::{LinkSpec, TopologySpec};
use spatten_workloads::Workload;
use std::collections::HashMap;

/// One sharded chip group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSpec {
    /// Per-shard chip configurations (index `s` hosts shard `s`).
    pub chips: Vec<SpAttenConfig>,
    /// How the model splits across the chips.
    pub strategy: ShardStrategy,
    /// Intra-group wiring shape.
    pub topology: TopologySpec,
    /// Intra-group link timing.
    pub link: LinkSpec,
}

impl GroupSpec {
    /// A homogeneous group: `strategy.shards()` chips of configuration
    /// `cfg` on `topology` with `link` timing.
    pub fn homogeneous(
        cfg: SpAttenConfig,
        strategy: ShardStrategy,
        topology: TopologySpec,
        link: LinkSpec,
    ) -> Self {
        let chips = vec![cfg; strategy.shards()];
        Self {
            chips,
            strategy,
            topology,
            link,
        }
    }

    /// The group's interconnect.
    pub fn interconnect(&self) -> Interconnect {
        Interconnect::new(
            Topology::new(self.topology, self.chips.len().max(1)),
            self.link,
        )
    }

    fn validate(&self) {
        assert_eq!(
            self.chips.len(),
            self.strategy.shards(),
            "group has {} chips for {} shards",
            self.chips.len(),
            self.strategy.shards()
        );
    }
}

/// Memoized per-group cost oracle driving [`spatten_serve::FleetCost`].
#[derive(Debug)]
pub struct ClusterCostModel {
    groups: Vec<GroupSpec>,
    /// `slots[i]` is the index of the first group identical to group `i`
    /// — identical groups share memo entries (the cluster analogue of
    /// `serve::CfgKey`: re-running the cycle model once per duplicate
    /// group would dominate wall time in uniform clusters).
    slots: Vec<usize>,
    fc_weight_bits: Option<u32>,
    /// Live resident-batch size per group, fed by
    /// [`FleetCost::note_batch`] from the chip event loop; `0` = no hint
    /// yet (fall back to the strategy's configured micro-batch depth).
    /// Pipeline bubble amortization divides by the *actual* in-flight
    /// depth, so a lone decode stream pays the full fill/drain bubble
    /// instead of borrowing amortization from micro-batches that don't
    /// exist.
    live_batch: Vec<usize>,
    prefill_memo: HashMap<(usize, ClassKey, usize), StepCost>,
    decode_memo: HashMap<(usize, ClassKey, usize, u64), StepCost>,
    footprint_memo: HashMap<(usize, ClassKey, usize), u64>,
    swap_memo: HashMap<(usize, ClassKey, usize), u64>,
    raw_memo: HashMap<(usize, ClassKey, usize), u64>,
}

impl ClusterCostModel {
    /// An oracle over `groups`, pricing FC work at `fc_weight_bits`
    /// (attention-only when `None`).
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty or any group's chip count doesn't
    /// match its strategy's shard count.
    pub fn new(groups: Vec<GroupSpec>, fc_weight_bits: Option<u32>) -> Self {
        assert!(!groups.is_empty(), "cluster needs at least one group");
        for g in &groups {
            g.validate();
        }
        let slots = (0..groups.len())
            .map(|i| {
                groups[..i]
                    .iter()
                    .position(|h| *h == groups[i])
                    .unwrap_or(i)
            })
            .collect();
        let live_batch = vec![0; groups.len()];
        Self {
            groups,
            slots,
            fc_weight_bits,
            live_batch,
            prefill_memo: HashMap::new(),
            decode_memo: HashMap::new(),
            footprint_memo: HashMap::new(),
            swap_memo: HashMap::new(),
            raw_memo: HashMap::new(),
        }
    }

    /// The groups.
    pub fn groups(&self) -> &[GroupSpec] {
        &self.groups
    }

    /// Effective pipeline micro-batch depth of `group` for decode: the
    /// live resident-batch size (each resident decode stream is one
    /// in-flight token), clamped to the strategy's configured depth —
    /// the pipeline's buffering capacity. Without a live hint the
    /// configured depth stands, so direct cost queries (planning,
    /// scaling sweeps) are unchanged.
    fn decode_micro_batches(&self, group: usize) -> u64 {
        let configured = match &self.groups[group].strategy {
            ShardStrategy::PipelineParallel { micro_batches, .. } => (*micro_batches).max(1) as u64,
            ShardStrategy::TensorParallel { .. } => return 1,
        };
        match self.live_batch[group] {
            0 => configured,
            live => (live as u64).min(configured),
        }
    }

    /// Slowest-shard composition: shards run concurrently, so the group
    /// pays the max of each cost component; per-component maxima keep the
    /// compute/DRAM co-scheduling split meaningful at the group level.
    fn lockstep_max(costs: impl Iterator<Item = StepCost>) -> StepCost {
        costs.fold(StepCost::default(), |acc, c| StepCost {
            compute_cycles: acc.compute_cycles.max(c.compute_cycles),
            dram_cycles: acc.dram_cycles.max(c.dram_cycles),
            weight_dram_cycles: acc.weight_dram_cycles.max(c.weight_dram_cycles),
            serial_cycles: acc.serial_cycles.max(c.serial_cycles),
        })
    }

    /// Group cost of one prefill pass of `w`.
    fn group_prefill(&self, group: usize, w: &Workload) -> StepCost {
        let g = &self.groups[group];
        let fc = self.fc_weight_bits;
        let shards = g.strategy.shards();
        let ic = g.interconnect();
        match &g.strategy {
            ShardStrategy::TensorParallel { .. } => {
                let mut cost = Self::lockstep_max(
                    (0..shards).map(|s| shard_prefill(&g.chips[s], fc, w, &g.strategy, s)),
                );
                // Two all-reduces per layer (attention out-projection +
                // FFN) on the *incoming* token set — the cascade
                // convention of the cycle model: a layer computes on the
                // tokens it received, its pruning takes effect one layer
                // later.
                let mut incoming = w.seq_len;
                let link: u64 = prefill_survivors(&g.chips[0], w)
                    .into_iter()
                    .map(|after| {
                        let cycles = 2 * ic.all_reduce_cycles(activation_bytes(w, incoming));
                        incoming = after;
                        cycles
                    })
                    .sum();
                cost.serial_cycles += link;
                cost
            }
            ShardStrategy::PipelineParallel {
                stages,
                micro_batches,
            } => {
                let m = (*micro_batches).max(1) as u64;
                let costs: Vec<StepCost> = (0..shards)
                    .map(|s| shard_prefill(&g.chips[s], fc, w, &g.strategy, s))
                    .collect();
                let bottleneck = Self::lockstep_max(costs.iter().copied());
                let total_serial: u64 = costs.iter().map(|c| c.serial_cycles).sum();
                // Micro-batched pipeline: the bottleneck stage streams all
                // M micro-batches; every other stage's work plus the
                // boundary hops contribute one fill/drain pass.
                let boundary_tokens = prefill_survivors(&g.chips[0], w);
                let hops: u64 = (0..stages.len().saturating_sub(1))
                    .map(|b| {
                        let tokens = boundary_tokens[stages[b].1 - 1].div_ceil(m as usize);
                        ic.transfer_cycles(b, b + 1, activation_bytes(w, tokens))
                    })
                    .sum();
                StepCost {
                    serial_cycles: bottleneck.serial_cycles
                        + (total_serial - bottleneck.serial_cycles) / m
                        + hops,
                    ..bottleneck
                }
            }
        }
    }

    /// Group cost of one decode step of `w` at context `context`.
    fn group_decode(&self, group: usize, w: &Workload, context: usize) -> StepCost {
        let g = &self.groups[group];
        let fc = self.fc_weight_bits;
        let shards = g.strategy.shards();
        let ic = g.interconnect();
        match &g.strategy {
            ShardStrategy::TensorParallel { .. } => {
                let mut cost = Self::lockstep_max(
                    (0..shards).map(|s| shard_decode(&g.chips[s], fc, w, context, &g.strategy, s)),
                );
                let bytes = activation_bytes(w, 1);
                cost.serial_cycles += 2 * w.model.layers as u64 * ic.all_reduce_cycles(bytes);
                cost
            }
            ShardStrategy::PipelineParallel { stages, .. } => {
                let m = self.decode_micro_batches(group);
                let costs: Vec<StepCost> = (0..shards)
                    .map(|s| shard_decode(&g.chips[s], fc, w, context, &g.strategy, s))
                    .collect();
                let bottleneck = Self::lockstep_max(costs.iter().copied());
                let total_serial: u64 = costs.iter().map(|c| c.serial_cycles).sum();
                let hops: u64 = (0..stages.len().saturating_sub(1))
                    .map(|b| ic.transfer_cycles(b, b + 1, activation_bytes(w, 1)))
                    .sum();
                // Steady state emits one token per bottleneck-stage time;
                // the fill bubble (other stages + hops) amortizes over the
                // in-flight micro-batch depth — the *live* resident batch
                // when the event loop is driving (each resident decode
                // stream contributes one in-flight token), the configured
                // depth for direct queries.
                StepCost {
                    serial_cycles: bottleneck.serial_cycles
                        + (total_serial - bottleneck.serial_cycles + hops) / m,
                    ..bottleneck
                }
            }
        }
    }
}

impl FleetCost for ClusterCostModel {
    fn prefill_on(&mut self, chip: usize, w: &Workload) -> StepCost {
        let key = (self.slots[chip], ClassKey::of(w), w.seq_len);
        if let Some(&c) = self.prefill_memo.get(&key) {
            return c;
        }
        let rep = representative(w, w.seq_len);
        let cost = self.group_prefill(chip, &rep);
        self.prefill_memo.insert(key, cost);
        cost
    }

    fn decode_on(&mut self, chip: usize, w: &Workload, context: usize) -> StepCost {
        let bucket = context.max(1).div_ceil(CTX_BUCKET) * CTX_BUCKET;
        // The effective micro-batch depth is part of the price, so it is
        // part of the key — otherwise a deep-batch iteration would reuse
        // a shallow batch's bubble charge (or vice versa).
        let key = (
            self.slots[chip],
            ClassKey::of(w),
            bucket,
            self.decode_micro_batches(chip),
        );
        if let Some(&c) = self.decode_memo.get(&key) {
            return c;
        }
        let rep = representative(w, bucket);
        let cost = self.group_decode(chip, &rep, bucket);
        self.decode_memo.insert(key, cost);
        cost
    }

    fn footprint_on(&mut self, chip: usize, w: &Workload) -> u64 {
        let max_ctx = w.seq_len + w.gen_steps;
        let key = (self.slots[chip], ClassKey::of(w), max_ctx);
        if let Some(&b) = self.footprint_memo.get(&key) {
            return b;
        }
        let g = &self.groups[chip];
        let budget_min = self.budget_on(chip);
        // Each shard's footprint, checked against its *own* chip's budget
        // by rescaling to the common `budget_min` denominator (conservative
        // ceiling rounding). The per-job max keeps the scalar admission
        // check sufficient for every shard at once.
        let fp = (0..g.strategy.shards())
            .map(|s| {
                let fp_s = shard_kv_footprint(&g.chips[s], w, &g.strategy, s);
                let budget_s = 2 * g.chips[s].kv_sram_bytes;
                if budget_s == 0 {
                    return budget_min;
                }
                fp_s.saturating_mul(budget_min).div_ceil(budget_s)
            })
            .max()
            .unwrap_or(0)
            .min(budget_min);
        self.footprint_memo.insert(key, fp);
        fp
    }

    fn budget_on(&self, chip: usize) -> u64 {
        self.groups[chip]
            .chips
            .iter()
            .map(|c| 2 * c.kv_sram_bytes)
            .min()
            .unwrap_or(0)
    }

    fn swap_cycles_on(&mut self, chip: usize, w: &Workload, tokens: usize) -> u64 {
        if tokens == 0 {
            return 0;
        }
        let bucket = tokens.div_ceil(CTX_BUCKET) * CTX_BUCKET;
        let key = (self.slots[chip], ClassKey::of(w), bucket);
        if let Some(&c) = self.swap_memo.get(&key) {
            return c;
        }
        // Each shard drains its own KV slice through its own chip's HBM
        // concurrently, so the group pays the slowest shard. The
        // representative at the *present* context sizes the slice (a
        // preempted job has only built the KV it has seen).
        let rep = representative(w, bucket);
        let g = &self.groups[chip];
        let cycles = (0..g.strategy.shards())
            .map(|s| {
                let cfg = &g.chips[s];
                hbm_stream_cycles(cfg, shard_kv_footprint(cfg, &rep, &g.strategy, s))
            })
            .max()
            .unwrap_or(0);
        self.swap_memo.insert(key, cycles);
        cycles
    }

    fn raw_kv_bytes_on(&mut self, chip: usize, w: &Workload, tokens: usize) -> u64 {
        if tokens == 0 {
            return 0;
        }
        let key = (self.slots[chip], ClassKey::of(w), tokens);
        if let Some(&b) = self.raw_memo.get(&key) {
            return b;
        }
        // Per-shard planning peak ([`shard_kv_peak`]), rescaled to the
        // common `budget_min` denominator exactly like `footprint_on` —
        // the per-job max keeps the scalar page charge sufficient for
        // every shard at once. Unclamped: a job's transient pages have
        // to exist somewhere even when it can never be co-resident.
        let g = &self.groups[chip];
        let budget_min = self.budget_on(chip);
        let raw = (0..g.strategy.shards())
            .map(|s| {
                let peak_s = shard_kv_peak(&g.chips[s], w, &g.strategy, s, tokens);
                let budget_s = 2 * g.chips[s].kv_sram_bytes;
                if budget_s == 0 {
                    return budget_min;
                }
                peak_s.saturating_mul(budget_min).div_ceil(budget_s)
            })
            .max()
            .unwrap_or(0);
        self.raw_memo.insert(key, raw);
        raw
    }

    fn swap_bytes_cycles_on(&mut self, chip: usize, _w: &Workload, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        // A victim's unique pages drain as concurrent per-shard slices
        // (even split of the group-normalized byte count); the group
        // pays the slowest shard's HBM, same as `swap_cycles_on`.
        let g = &self.groups[chip];
        let slice = bytes.div_ceil(g.strategy.shards().max(1) as u64);
        g.chips
            .iter()
            .map(|cfg| hbm_stream_cycles(cfg, slice))
            .max()
            .unwrap_or(0)
    }

    fn note_batch(&mut self, chip: usize, resident: usize) {
        self.live_batch[chip] = resident;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatten_workloads::Benchmark;

    fn gpt2(seq: usize, steps: usize) -> Workload {
        let mut w = Benchmark::gpt2_small_wikitext2().workload();
        w.seq_len = seq;
        w.gen_steps = steps;
        w
    }

    fn tp_group(ways: usize) -> GroupSpec {
        GroupSpec::homogeneous(
            SpAttenConfig::default(),
            ShardStrategy::tensor(ways),
            TopologySpec::Ring,
            LinkSpec::default(),
        )
    }

    fn pp_group(stages: usize) -> GroupSpec {
        GroupSpec::homogeneous(
            SpAttenConfig::default(),
            ShardStrategy::pipeline_even(12, stages, 4),
            TopologySpec::Ring,
            LinkSpec::default(),
        )
    }

    #[test]
    fn tensor_parallel_decode_scales() {
        let mut m = ClusterCostModel::new(vec![tp_group(1), tp_group(4)], Some(8));
        let w = gpt2(256, 32);
        let single = m.decode_on(0, &w, 288).serial_cycles;
        let quad = m.decode_on(1, &w, 288).serial_cycles;
        let speedup = single as f64 / quad as f64;
        assert!(
            speedup >= 1.6,
            "4-way TP decode speedup {speedup:.2} below the 1.6x floor \
             (single {single}, quad {quad})"
        );
    }

    #[test]
    fn tp_footprint_shrinks_with_ways() {
        let mut m = ClusterCostModel::new(vec![tp_group(1), tp_group(4)], Some(8));
        let w = gpt2(512, 64);
        let whole = m.footprint_on(0, &w);
        let sharded = m.footprint_on(1, &w);
        assert!(
            sharded * 3 < whole,
            "4-way shard footprint {sharded} vs whole {whole}"
        );
    }

    #[test]
    fn pipeline_decode_beats_single_chip_throughput_with_depth() {
        let mut m = ClusterCostModel::new(vec![tp_group(1), pp_group(4)], Some(8));
        let w = gpt2(256, 32);
        let single = m.decode_on(0, &w, 288);
        let piped = m.decode_on(1, &w, 288);
        // Steady-state marginal cost (the compute/DRAM split the iteration
        // scheduler packs by) is the bottleneck stage — the last one,
        // which owns its layer range *plus* the LM head, so it lands near
        // half the whole model's weight stream rather than a quarter.
        assert!(
            piped.dram_cycles * 2 < single.dram_cycles,
            "pipeline stage dram {} vs whole {}",
            piped.dram_cycles,
            single.dram_cycles
        );
        // Per-token latency still pays the fill bubble, so it must NOT
        // beat the single chip by anything like 4x.
        assert!(piped.serial_cycles * 2 > single.serial_cycles);
    }

    #[test]
    fn all_reduce_cost_makes_tp8_sublinear() {
        let mut m = ClusterCostModel::new(vec![tp_group(4), tp_group(8)], Some(8));
        let w = gpt2(256, 32);
        let quad = m.decode_on(0, &w, 288).serial_cycles;
        let oct = m.decode_on(1, &w, 288).serial_cycles;
        let marginal = quad as f64 / oct as f64;
        assert!(
            marginal < 2.0,
            "4->8 way speedup {marginal:.2} should be sublinear"
        );
    }

    #[test]
    fn heterogeneous_group_checks_each_shard_against_its_own_budget() {
        // Two pipeline stages on unlike silicon: the early stage (large
        // survivor set) on a full Table-I chip, the late stage (pruned
        // survivor set) on a chip with a quarter of the KV SRAM. The old
        // rule charged the early stage's footprint against the small
        // chip's budget; the per-shard normalization charges each stage
        // to its own SRAM.
        let full = SpAttenConfig::default();
        let small = SpAttenConfig {
            kv_sram_bytes: full.kv_sram_bytes / 4,
            ..full
        };
        let strategy = ShardStrategy::pipeline_even(12, 2, 4);
        let group = GroupSpec {
            chips: vec![full, small],
            strategy: strategy.clone(),
            topology: TopologySpec::Ring,
            link: LinkSpec::default(),
        };
        let mut m = ClusterCostModel::new(vec![group.clone()], Some(8));
        let w = gpt2(512, 64);
        let fp = m.footprint_on(0, &w);
        let budget = m.budget_on(0);
        let old_rule: u64 = (0..2)
            .map(|s| shard_kv_footprint(&group.chips[s], &w, &strategy, s))
            .max()
            .unwrap()
            .min(budget);
        assert!(
            fp < old_rule,
            "normalized footprint {fp} should beat the max-vs-min rule {old_rule}"
        );
        // Safety: a batch that fills the scalar budget fits every shard.
        let batch = (budget / fp.max(1)) as usize;
        assert!(batch >= 1);
        for s in 0..2 {
            let fp_s = shard_kv_footprint(&group.chips[s], &w, &strategy, s);
            let budget_s = 2 * group.chips[s].kv_sram_bytes;
            assert!(
                batch as u64 * fp_s <= budget_s,
                "shard {s}: {batch} jobs × {fp_s} bytes exceed {budget_s}"
            );
        }
    }

    #[test]
    fn homogeneous_group_footprint_is_unchanged_by_normalization() {
        let group = tp_group(4);
        let mut m = ClusterCostModel::new(vec![group.clone()], Some(8));
        let w = gpt2(256, 32);
        let expect = (0..4)
            .map(|s| shard_kv_footprint(&group.chips[s], &w, &group.strategy, s))
            .max()
            .unwrap()
            .min(m.budget_on(0));
        assert_eq!(m.footprint_on(0, &w), expect);
    }

    #[test]
    fn pipeline_bubble_tracks_the_live_batch() {
        let mut m = ClusterCostModel::new(vec![pp_group(4)], Some(8));
        let w = gpt2(256, 32);
        // No hint: the configured micro-batch depth (4) stands, so
        // direct queries (planning, scaling sweeps) are unchanged.
        let static_cost = m.decode_on(0, &w, 288);
        // A lone resident decode stream cannot fill the pipeline: it
        // pays the whole fill/drain bubble.
        m.note_batch(0, 1);
        let solo = m.decode_on(0, &w, 288);
        // A resident batch at the configured depth reproduces the static
        // charge exactly.
        m.note_batch(0, 4);
        let full = m.decode_on(0, &w, 288);
        assert!(
            solo.serial_cycles > full.serial_cycles,
            "solo {} should pay more bubble than a full batch {}",
            solo.serial_cycles,
            full.serial_cycles
        );
        assert_eq!(full, static_cost);
        // Depth is capped at the configured in-flight capacity.
        m.note_batch(0, 16);
        assert_eq!(m.decode_on(0, &w, 288), full);
        // Tensor-parallel groups are depth-independent.
        let mut tp = ClusterCostModel::new(vec![tp_group(4)], Some(8));
        let a = tp.decode_on(0, &w, 288);
        tp.note_batch(0, 7);
        assert_eq!(tp.decode_on(0, &w, 288), a);
    }

    #[test]
    fn raw_planning_peak_brackets_the_footprint() {
        let mut m = ClusterCostModel::new(vec![tp_group(1), tp_group(4)], Some(8));
        let w = gpt2(256, 32);
        for g in 0..2 {
            let raw = m.raw_kv_bytes_on(g, &w, w.seq_len);
            let fp = m.footprint_on(g, &w);
            let per_token = m.raw_kv_bytes_on(g, &w, 1);
            assert!(raw >= fp, "group {g}: raw {raw} below footprint {fp}");
            assert!(
                raw <= w.seq_len as u64 * per_token,
                "group {g}: raw {raw} above the unpruned slice"
            );
            assert_eq!(m.raw_kv_bytes_on(g, &w, 0), 0);
            // Memoized: a second query is identical.
            assert_eq!(raw, m.raw_kv_bytes_on(g, &w, w.seq_len));
        }
        // Sharding shrinks the peak roughly with the head split.
        let whole = m.raw_kv_bytes_on(0, &w, w.seq_len);
        let sharded = m.raw_kv_bytes_on(1, &w, w.seq_len);
        assert!(sharded * 3 < whole, "4-way raw {sharded} vs whole {whole}");
    }

    #[test]
    fn swap_traffic_splits_across_shards() {
        let mut m = ClusterCostModel::new(vec![tp_group(1), tp_group(4)], Some(8));
        let w = gpt2(256, 32);
        assert_eq!(m.swap_bytes_cycles_on(0, &w, 0), 0);
        let bytes = 1 << 20;
        let c1 = m.swap_bytes_cycles_on(0, &w, bytes);
        let c4 = m.swap_bytes_cycles_on(1, &w, bytes);
        assert!(c1 > 0 && c4 > 0);
        assert!(
            c4 < c1,
            "4 HBM channels draining slices in parallel ({c4}) should beat one ({c1})"
        );
    }

    #[test]
    fn memoization_is_stable_per_group() {
        let mut m = ClusterCostModel::new(vec![tp_group(2), tp_group(4)], Some(8));
        let w = gpt2(128, 16);
        let a = m.decode_on(0, &w, 100);
        assert_eq!(a, m.decode_on(0, &w, 100));
        assert_ne!(a, m.decode_on(1, &w, 100), "groups must not share memos");
    }

    #[test]
    fn handoff_pricing_inherits_the_shard_parallel_hbm_drain() {
        // `FleetCost::handoff_cycles_on` has no cluster override on
        // purpose: the trait default dispatches its drain and fill
        // stages through `self.swap_bytes_cycles_on`, so the sharded
        // override above prices them shard-parallel automatically. This
        // pins that composition: a disaggregation handoff between 4-way
        // TP groups is HBM-cheaper than between single-chip groups, and
        // the wire stage stays on the `Interconnect` convention.
        use crate::topology::{Interconnect, Topology};
        let w = gpt2(256, 32);
        let bytes = 1 << 22; // 4 MiB survivor set
                             // A fat link (4 KiB/cycle) pushes the bottleneck onto the HBM
                             // drain/fill legs, where sharding pays off.
        let fat = LinkSpec {
            latency_cycles: 500,
            bytes_per_cycle: 4096,
        };
        let mut solo = ClusterCostModel::new(vec![tp_group(1), tp_group(1)], Some(8));
        let mut tp4 = ClusterCostModel::new(vec![tp_group(4), tp_group(4)], Some(8));
        let one = solo.handoff_cycles_on(0, 1, &w, bytes, 1, &fat);
        let four = tp4.handoff_cycles_on(0, 1, &w, bytes, 1, &fat);
        assert!(
            four < one,
            "4 HBM stacks drain the payload in parallel: {four} vs {one}"
        );
        // The default is exactly hop latency + max(wire, drain, fill),
        // with the drain/fill legs priced by the sharded override.
        let wire = bytes.div_ceil(fat.bytes_per_cycle);
        let drain = tp4.swap_bytes_cycles_on(0, &w, bytes);
        let fill = tp4.swap_bytes_cycles_on(1, &w, bytes);
        assert_eq!(four, fat.latency_cycles + wire.max(drain).max(fill));
        // On the default (thin, 32 B/cycle) link the wire is the
        // bottleneck, and the handoff price collapses onto the
        // interconnect's own transfer convention — a serve-side pool
        // spec and a cluster-side fabric agree on the same cycles.
        let thin = LinkSpec::default();
        let fabric = Interconnect::new(Topology::new(TopologySpec::FullyConnected, 2), thin);
        assert_eq!(
            solo.handoff_cycles_on(0, 1, &w, bytes, 1, &thin),
            fabric.transfer_cycles(0, 1, bytes)
        );
    }

    #[test]
    fn weight_load_inherits_the_shard_parallel_hbm_drain() {
        // Like the handoff above, `FleetCost::weight_load_cycles_on` has
        // no cluster override: the trait default streams the weight
        // plane through `self.swap_bytes_cycles_on`, so a cold TP group
        // joining the fleet pays an even per-shard slice priced by the
        // slowest shard — 4 HBM stacks load a model faster than one.
        use spatten_serve::model_weight_bytes;
        let w = gpt2(256, 32);
        let mut solo = ClusterCostModel::new(vec![tp_group(1)], Some(8));
        let mut tp4 = ClusterCostModel::new(vec![tp_group(4)], Some(8));
        let one = solo.weight_load_cycles_on(0, &w);
        let four = tp4.weight_load_cycles_on(0, &w);
        assert!(one > 0 && four > 0);
        assert!(
            four < one,
            "4 HBM stacks stream weight slices in parallel: {four} vs {one}"
        );
        // The default composes exactly through the sharded swap plane at
        // the cluster's configured FC bitwidth.
        let bytes = model_weight_bytes(&w.model, 8);
        assert_eq!(four, tp4.swap_bytes_cycles_on(0, &w, bytes));
    }
}
