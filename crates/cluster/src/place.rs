//! The placement planner: shards onto a heterogeneous fleet.
//!
//! Given a [`FleetSpec`] (full Table-I chips mixed with 1/8-scale ones), a
//! [`ShardStrategy`] and a representative workload, the planner picks
//! which physical chip hosts which shard. The objective is the bottleneck
//! shard time — a sharded step ends when its *slowest* shard does — so the
//! planner runs longest-processing-time-first: shards are costed on every
//! chip class via the cycle model, walked heaviest-first, and each takes
//! the chip that minimizes its own cost (ties to the lowest index, for
//! determinism). For tensor parallelism all shards are near-equal and
//! this degenerates to "use the fastest chips"; for pipeline parallelism
//! it puts the longest stages on the fastest silicon.
//!
//! Placement is also where the KV budget is enforced: a plan in which any
//! shard's KV working set exceeds its chip's K/V SRAMs is rejected, so
//! every accepted plan is executable without overflow by construction
//! (the property tests lean on this).

use crate::shard::{shard_decode, shard_kv_footprint, shard_prefill, ShardStrategy};
use crate::topology::{Interconnect, Topology};
use spatten_core::SpAttenConfig;
use spatten_workloads::fleet::{ChipClass, FleetSpec};
use spatten_workloads::Workload;
use std::collections::HashMap;

/// Resolves a descriptive chip class to a concrete configuration.
pub fn resolve_chip(class: ChipClass) -> SpAttenConfig {
    match class {
        ChipClass::Full => SpAttenConfig::default(),
        ChipClass::Eighth => SpAttenConfig::eighth(),
    }
}

/// A planned assignment of one group's shards onto fleet chips.
#[derive(Debug, Clone)]
pub struct Placement {
    /// `chip_indices[s]` is the fleet chip hosting shard `s`.
    pub chip_indices: Vec<usize>,
    /// The hosting chips' configurations, in shard order.
    pub chips: Vec<SpAttenConfig>,
    /// Representative per-shard serial cycles (one decode step at the
    /// workload's maximum context for generative jobs, the prefill pass
    /// otherwise) on the assigned chip.
    pub per_shard_serial: Vec<u64>,
    /// The slowest shard's representative serial cycles — the quantity
    /// the planner minimizes.
    pub bottleneck_serial: u64,
    /// Representative interconnect cycles per step (all-reduces for
    /// tensor parallelism, boundary hops for pipelines), assuming idle
    /// links.
    pub link_cycles: u64,
}

/// Why a placement was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaceError {
    /// The fleet has fewer chips than the strategy has shards.
    NotEnoughChips {
        /// Shards required.
        shards: usize,
        /// Chips available.
        chips: usize,
    },
    /// A shard's KV working set exceeds its best available chip's SRAMs.
    KvBudgetExceeded {
        /// The offending shard.
        shard: usize,
        /// Its KV footprint in bytes.
        footprint: u64,
        /// The chip budget it failed against.
        budget: u64,
    },
}

impl std::fmt::Display for PlaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlaceError::NotEnoughChips { shards, chips } => {
                write!(f, "{shards} shards need {shards} chips, fleet has {chips}")
            }
            PlaceError::KvBudgetExceeded {
                shard,
                footprint,
                budget,
            } => write!(
                f,
                "shard {shard} pins {footprint} KV bytes against a {budget}-byte budget"
            ),
        }
    }
}

/// Representative per-shard serial cycles on each chip class, keyed
/// `(class, shard)` — the table [`plan_with_costs`] assigns from.
pub type ShardCosts = HashMap<(ChipClass, usize), u64>;

/// Prices every shard of `strategy` on each chip class in `classes`
/// (plus `ChipClass::Full`, the LPT size proxy), once — the cycle model
/// is far too expensive to re-run inside an assignment loop's argmin, or
/// once per group when carving a fleet.
pub fn shard_costs(
    classes: &[ChipClass],
    strategy: &ShardStrategy,
    w: &Workload,
    fc_weight_bits: Option<u32>,
) -> ShardCosts {
    strategy.validate(w.model.layers);
    let shards = strategy.shards();
    let max_ctx = w.seq_len + w.gen_steps;
    let mut table = ShardCosts::new();
    for class in [ChipClass::Full, ChipClass::Eighth] {
        if class != ChipClass::Full && !classes.contains(&class) {
            continue;
        }
        let cfg = resolve_chip(class);
        for shard in 0..shards {
            let cost = if w.gen_steps > 0 {
                shard_decode(&cfg, fc_weight_bits, w, max_ctx, strategy, shard).serial_cycles
            } else {
                shard_prefill(&cfg, fc_weight_bits, w, strategy, shard).serial_cycles
            };
            table.insert((class, shard), cost);
        }
    }
    table
}

/// Plans one group: assigns every shard of `strategy` to a distinct chip
/// of `fleet`, minimizing the bottleneck shard's representative step time
/// and rejecting any assignment that overflows a chip's K/V SRAMs.
///
/// Deterministic for fixed inputs.
pub fn plan(
    fleet: &FleetSpec,
    strategy: &ShardStrategy,
    w: &Workload,
    fc_weight_bits: Option<u32>,
) -> Result<Placement, PlaceError> {
    let costs = shard_costs(&fleet.chips, strategy, w, fc_weight_bits);
    plan_with_costs(fleet, strategy, w, &costs)
}

/// [`plan`] against a precomputed [`ShardCosts`] table (must cover every
/// chip class in `fleet` — see [`shard_costs`]). Lets a caller carving
/// one fleet into many groups price the shards once.
pub fn plan_with_costs(
    fleet: &FleetSpec,
    strategy: &ShardStrategy,
    w: &Workload,
    costs: &ShardCosts,
) -> Result<Placement, PlaceError> {
    strategy.validate(w.model.layers);
    let shards = strategy.shards();
    if fleet.len() < shards {
        return Err(PlaceError::NotEnoughChips {
            shards,
            chips: fleet.len(),
        });
    }
    let cost_on = |class: ChipClass, shard: usize| -> u64 { costs[&(class, shard)] };

    // Heaviest shard first (cost on a full chip as the size proxy), each
    // taking the free chip where it personally runs fastest.
    let mut order: Vec<usize> = (0..shards).collect();
    order.sort_by_key(|&s| (std::cmp::Reverse(cost_on(ChipClass::Full, s)), s));

    let mut free: Vec<usize> = (0..fleet.len()).collect();
    let mut chip_indices = vec![usize::MAX; shards];
    let mut per_shard_serial = vec![0u64; shards];
    for &s in &order {
        let (slot, &chip) = free
            .iter()
            .enumerate()
            .min_by_key(|&(_, &c)| (cost_on(fleet.chips[c], s), c))
            .expect("free chip remains");
        let cfg = resolve_chip(fleet.chips[chip]);
        let footprint = shard_kv_footprint(&cfg, w, strategy, s);
        let budget = 2 * cfg.kv_sram_bytes;
        if footprint > budget {
            return Err(PlaceError::KvBudgetExceeded {
                shard: s,
                footprint,
                budget,
            });
        }
        per_shard_serial[s] = cost_on(fleet.chips[chip], s);
        chip_indices[s] = chip;
        free.remove(slot);
    }

    let chips: Vec<SpAttenConfig> = chip_indices
        .iter()
        .map(|&c| resolve_chip(fleet.chips[c]))
        .collect();
    let bottleneck_serial = per_shard_serial.iter().copied().max().unwrap_or(0);
    let link_cycles = representative_link_cycles(fleet, strategy, w);
    Ok(Placement {
        chip_indices,
        chips,
        per_shard_serial,
        bottleneck_serial,
        link_cycles,
    })
}

/// Idle-link interconnect cycles of one representative step: per-layer
/// all-reduces on a single token's activations for tensor parallelism,
/// stage-boundary hops for a pipeline.
fn representative_link_cycles(fleet: &FleetSpec, strategy: &ShardStrategy, w: &Workload) -> u64 {
    let shards = strategy.shards();
    let ic = Interconnect::new(Topology::new(fleet.topology, shards.max(1)), fleet.link);
    match strategy {
        ShardStrategy::TensorParallel { .. } => {
            let bytes = crate::shard::activation_bytes(w, 1);
            2 * w.model.layers as u64 * ic.all_reduce_cycles(bytes)
        }
        ShardStrategy::PipelineParallel { stages, .. } => {
            let bytes = crate::shard::activation_bytes(w, 1);
            (0..stages.len().saturating_sub(1))
                .map(|b| ic.transfer_cycles(b, b + 1, bytes))
                .sum()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatten_workloads::Benchmark;

    fn gpt2() -> Workload {
        let mut w = Benchmark::gpt2_small_wikitext2().workload();
        w.seq_len = 256;
        w.gen_steps = 32;
        w
    }

    #[test]
    fn plan_prefers_full_chips_in_a_mixed_fleet() {
        let fleet = FleetSpec::mixed(4, 4);
        let placement = plan(&fleet, &ShardStrategy::tensor(4), &gpt2(), Some(8)).unwrap();
        // The four full chips are indices 0..4 in FleetSpec::mixed.
        for &chip in &placement.chip_indices {
            assert!(chip < 4, "shard landed on eighth-scale chip {chip}");
        }
        assert!(placement.bottleneck_serial > 0);
        assert!(placement.link_cycles > 0);
    }

    #[test]
    fn plan_spills_to_eighth_chips_only_when_forced() {
        let fleet = FleetSpec::mixed(2, 6);
        let placement = plan(&fleet, &ShardStrategy::tensor(4), &gpt2(), Some(8)).unwrap();
        let on_full = placement.chip_indices.iter().filter(|&&c| c < 2).count();
        assert_eq!(on_full, 2, "both full chips must be used");
    }

    #[test]
    fn plan_rejects_undersized_fleets() {
        let fleet = FleetSpec::ring_of(2);
        let err = plan(&fleet, &ShardStrategy::tensor(4), &gpt2(), None).unwrap_err();
        assert_eq!(
            err,
            PlaceError::NotEnoughChips {
                shards: 4,
                chips: 2
            }
        );
    }

    #[test]
    fn pipeline_heavy_stage_gets_a_full_chip() {
        // A deliberately unbalanced pipeline: stage 0 owns 10 layers,
        // stage 1 owns 2. With one full and one eighth chip, the heavy
        // stage must land on the full one.
        let strategy = ShardStrategy::PipelineParallel {
            stages: vec![(0, 10), (10, 12)],
            micro_batches: 4,
        };
        let fleet = FleetSpec::mixed(1, 1);
        let placement = plan(&fleet, &strategy, &gpt2(), Some(8)).unwrap();
        assert_eq!(placement.chip_indices[0], 0, "heavy stage on the full chip");
        assert_eq!(placement.chip_indices[1], 1);
    }

    #[test]
    fn every_accepted_plan_fits_kv_budgets() {
        let fleet = FleetSpec::mixed(4, 4);
        let w = gpt2();
        for ways in [1usize, 2, 4, 8] {
            let strategy = ShardStrategy::tensor(ways);
            if let Ok(p) = plan(&fleet, &strategy, &w, Some(8)) {
                for (s, cfg) in p.chips.iter().enumerate() {
                    let fp = shard_kv_footprint(cfg, &w, &strategy, s);
                    assert!(fp <= 2 * cfg.kv_sram_bytes);
                }
            }
        }
    }
}
