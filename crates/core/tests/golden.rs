//! Golden `StepCost` table: the cycle model's exact output on a fixed
//! grid, checked against `golden_step_costs.txt` line for line.
//!
//! Every serving price comes from `prefill_cost` / `decode_step_cost`, so
//! a host-speed change to `core::perf`, `arch` or `hbm` must leave every
//! number here untouched. The grid covers four chip configs (Table I,
//! the 1/8 chip, the plain datapath, and an HBM whose channel count, beat,
//! interleave and row size are not powers of two) × the registry's ten
//! distinct (model, pruning, quantization) classes × a ladder of lengths,
//! plus one tensor-parallel (`_heads`) and one pipeline (`_layers`) point
//! per config and each class's whole-run totals on Table I.
//!
//! Only a deliberate model change may regenerate the table. On a mismatch
//! the test writes the table it computed to
//! `<target>/tmp/golden_step_costs.txt`; copy that over the checked-in
//! file and say so in the change log.

use spatten_core::{
    decode_step_cost, decode_step_cost_heads, prefill_cost, prefill_cost_layers, Accelerator,
    SpAttenConfig, StepCost,
};
use spatten_hbm::HbmConfig;
use spatten_workloads::{Benchmark, Workload};
use std::fmt::Write;

const LENGTHS: [usize; 5] = [1, 7, 64, 333, 1024];

fn configs() -> Vec<(&'static str, SpAttenConfig)> {
    let table1 = SpAttenConfig::default();
    let odd_hbm = SpAttenConfig {
        hbm: HbmConfig {
            channels: 12,
            bytes_per_cycle: 10,
            interleave_bytes: 24,
            row_bytes: 120,
            ..table1.hbm
        },
        ..table1
    };
    vec![
        ("table1", table1),
        ("eighth", SpAttenConfig::eighth()),
        ("datapath", table1.datapath_only()),
        ("odd-hbm", odd_hbm),
    ]
}

/// The first benchmark of each distinct (model, pruning, quantization)
/// class, in registry order.
fn classes() -> Vec<Benchmark> {
    let mut seen: Vec<Benchmark> = Vec::new();
    for b in Benchmark::all() {
        if !seen
            .iter()
            .any(|s| s.model == b.model && s.pruning == b.pruning && s.quant == b.quant)
        {
            seen.push(b);
        }
    }
    seen
}

/// The class at `len` tokens with no generation stage — the shape the
/// serving layer prices.
fn at_len(b: &Benchmark, len: usize) -> Workload {
    Workload {
        seq_len: len,
        gen_steps: 0,
        ..b.workload()
    }
}

fn row(out: &mut String, cfg: &str, class: &str, op: &str, c: StepCost) {
    writeln!(
        out,
        "{cfg} {class} {op} compute={} dram={} weight={} serial={}",
        c.compute_cycles, c.dram_cycles, c.weight_dram_cycles, c.serial_cycles
    )
    .unwrap();
}

fn table() -> String {
    let classes = classes();
    assert_eq!(classes.len(), 10, "registry class count changed");
    let mut out = String::new();
    for (name, cfg) in configs() {
        for b in &classes {
            for len in LENGTHS {
                let w = at_len(b, len);
                let c = prefill_cost(&cfg, &w);
                row(&mut out, name, &b.id, &format!("prefill@{len}"), c);
                let c = decode_step_cost(&cfg, &w, len);
                row(&mut out, name, &b.id, &format!("decode@{len}"), c);
            }
        }
        let gpt2 = Benchmark::gpt2_small_wikitext2();
        let w = at_len(&gpt2, 333);
        let c = decode_step_cost_heads(&cfg, &w, 333, 1, 3);
        row(&mut out, name, &gpt2.id, "decode_heads@333/1of3", c);
        let c = prefill_cost_layers(&cfg, &w, 2..7);
        row(&mut out, name, &gpt2.id, "prefill_layers@333/2..7", c);
    }
    let accel = Accelerator::new(SpAttenConfig::default());
    for b in &classes {
        let r = accel.run(&b.workload());
        writeln!(
            out,
            "table1 {} run total={} dram_bytes={} flops={} lsb={:?} modules={:?} counts={:?}",
            b.id, r.total_cycles, r.dram_bytes, r.flops, r.lsb_fraction, r.modules, r.counts
        )
        .unwrap();
    }
    out
}

#[test]
fn step_costs_match_golden_table() {
    let got = table();
    let want = include_str!("golden_step_costs.txt");
    if got != want {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_step_costs.txt");
        std::fs::write(&path, &got).expect("write the computed table");
        let first = got
            .lines()
            .zip(want.lines())
            .find(|(g, w)| g != w)
            .map(|(g, w)| format!("want {w}\n got {g}"))
            .unwrap_or_else(|| "tables differ in length".into());
        panic!(
            "cycle model output moved off the golden table; first difference:\n{first}\n\
             computed table written to {}",
            path.display()
        );
    }
}
