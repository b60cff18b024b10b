//! A 4-chip tensor-parallel GPT-2 decode, with the per-chip breakdown.
//!
//! Plans a 4-way tensor-parallel split of GPT-2-Small onto a ring of four
//! Table-I chips, prints each chip's share of a decode step (compute /
//! DRAM / serial cycles plus its pinned KV working set), the per-layer
//! all-reduce the interconnect charges, and the resulting single-stream
//! decode speedup over one chip.
//!
//! Run with: `cargo run --release --example sharding`

use spatten::cluster::{
    plan, shard_decode, shard_kv_footprint, ClusterCostModel, GroupSpec, Interconnect,
    ShardStrategy, Topology,
};
use spatten::core::SpAttenConfig;
use spatten::serve::FleetCost;
use spatten::workloads::fleet::{FleetSpec, LinkSpec, TopologySpec};
use spatten::workloads::Benchmark;

fn main() {
    let ways = 4;
    let mut w = Benchmark::gpt2_small_wikitext2().workload();
    w.seq_len = 256;
    w.gen_steps = 64;
    let ctx = w.seq_len + w.gen_steps / 2;
    let strategy = ShardStrategy::tensor(ways);
    let fleet = FleetSpec::ring_of(ways);

    let placement = plan(&fleet, &strategy, &w, Some(8)).expect("4 chips place 4 shards");
    println!("GPT-2-Small decode, {ways}-way tensor parallel on a ring of {ways} Table-I chips");
    println!("context {ctx} tokens (mid-generation), 8-bit FC weights\n");

    println!(
        "{:<8} {:>6} {:>12} {:>12} {:>12} {:>12}",
        "shard", "chip", "compute cyc", "dram cyc", "serial cyc", "KV bytes"
    );
    let budget = 2 * SpAttenConfig::default().kv_sram_bytes;
    for s in 0..ways {
        let cfg = &placement.chips[s];
        let cost = shard_decode(cfg, Some(8), &w, ctx, &strategy, s);
        let kv = shard_kv_footprint(cfg, &w, &strategy, s);
        println!(
            "{:<8} {:>6} {:>12} {:>12} {:>12} {:>12}",
            format!("tp{s}"),
            placement.chip_indices[s],
            cost.compute_cycles,
            cost.dram_cycles,
            cost.serial_cycles,
            format!("{kv} ({:.1}%)", kv as f64 / budget as f64 * 100.0),
        );
    }

    let ic = Interconnect::new(Topology::new(TopologySpec::Ring, ways), LinkSpec::default());
    let act = spatten::cluster::activation_bytes(&w, 1);
    let per_layer = 2 * ic.all_reduce_cycles(act);
    println!(
        "\nall-reduce: {act} B activations, {} cycles x 2 per layer x {} layers = {} cycles/step",
        ic.all_reduce_cycles(act),
        w.model.layers,
        per_layer * w.model.layers as u64
    );

    let group = GroupSpec {
        chips: placement.chips.clone(),
        strategy,
        topology: TopologySpec::Ring,
        link: LinkSpec::default(),
    };
    let mut sharded = ClusterCostModel::new(vec![group], Some(8));
    let group_step = sharded.decode_on(0, &w, ctx).serial_cycles;
    let single_step = {
        let mut single = spatten::serve::CostModel::end_to_end(SpAttenConfig::default(), 8);
        single.decode_on(0, &w, ctx).serial_cycles
    };
    let clock_hz = SpAttenConfig::default().clock_ghz * 1e9;
    println!(
        "\nsingle chip: {single_step} cycles/token ({:.0} tokens/s)",
        clock_hz / single_step as f64
    );
    println!(
        "{ways}-way TP:   {group_step} cycles/token ({:.0} tokens/s) — {:.2}x speedup",
        clock_hz / group_step as f64,
        single_step as f64 / group_step as f64
    );
}
