//! Event counters produced by the simulator and consumed by the energy
//! model.

use std::ops::{Add, AddAssign};

/// Raw event counts of one simulation window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Fixed-point multiply-accumulates in the Q·K array.
    pub qk_macs: u64,
    /// Fixed-point multiply-accumulates in the prob·V array.
    pub pv_macs: u64,
    /// Fixed-point multiply-accumulates spent on FC/FFN work (SpAtten-e2e).
    pub fc_macs: u64,
    /// Floating-point FMA operations (softmax exp Taylor terms).
    pub softmax_fmas: u64,
    /// Floating-point divides (softmax normalization).
    pub softmax_divs: u64,
    /// Comparator operations in the top-k engines.
    pub topk_comparisons: u64,
    /// Bits moved through on-chip SRAM (reads + writes).
    pub sram_bits: u64,
    /// Bits moved through FIFOs.
    pub fifo_bits: u64,
    /// Bits read from DRAM.
    pub dram_read_bits: u64,
    /// Bits written to DRAM.
    pub dram_write_bits: u64,
    /// DRAM row activations.
    pub dram_activations: u64,
    /// Requests routed through the crossbars.
    pub xbar_requests: u64,
}

impl EventCounts {
    /// All-zero counts.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total fixed-point MACs.
    pub fn total_macs(&self) -> u64 {
        self.qk_macs + self.pv_macs + self.fc_macs
    }

    /// Total DRAM traffic in bytes.
    pub fn dram_bytes(&self) -> u64 {
        (self.dram_read_bits + self.dram_write_bits) / 8
    }

    /// FLOPs represented by the counted arithmetic (2 per MAC, 2 per FMA,
    /// 1 per divide), for throughput reporting.
    pub fn flops(&self) -> u64 {
        2 * self.total_macs() + 2 * self.softmax_fmas + self.softmax_divs
    }
}

impl Add for EventCounts {
    type Output = EventCounts;

    fn add(mut self, rhs: EventCounts) -> EventCounts {
        self += rhs;
        self
    }
}

impl AddAssign for EventCounts {
    fn add_assign(&mut self, rhs: EventCounts) {
        self.qk_macs += rhs.qk_macs;
        self.pv_macs += rhs.pv_macs;
        self.fc_macs += rhs.fc_macs;
        self.softmax_fmas += rhs.softmax_fmas;
        self.softmax_divs += rhs.softmax_divs;
        self.topk_comparisons += rhs.topk_comparisons;
        self.sram_bits += rhs.sram_bits;
        self.fifo_bits += rhs.fifo_bits;
        self.dram_read_bits += rhs.dram_read_bits;
        self.dram_write_bits += rhs.dram_write_bits;
        self.dram_activations += rhs.dram_activations;
        self.xbar_requests += rhs.xbar_requests;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addition_is_componentwise() {
        let a = EventCounts {
            qk_macs: 10,
            dram_read_bits: 100,
            ..EventCounts::new()
        };
        let b = EventCounts {
            qk_macs: 5,
            dram_activations: 3,
            ..EventCounts::new()
        };
        let c = a + b;
        assert_eq!(c.qk_macs, 15);
        assert_eq!(c.dram_read_bits, 100);
        assert_eq!(c.dram_activations, 3);
    }

    #[test]
    fn derived_totals() {
        let c = EventCounts {
            qk_macs: 4,
            pv_macs: 6,
            fc_macs: 10,
            softmax_fmas: 3,
            softmax_divs: 2,
            dram_read_bits: 64,
            dram_write_bits: 16,
            ..EventCounts::new()
        };
        assert_eq!(c.total_macs(), 20);
        assert_eq!(c.dram_bytes(), 10);
        assert_eq!(c.flops(), 40 + 6 + 2);
    }
}
