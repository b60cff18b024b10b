//! The inter-chip interconnect model.
//!
//! One chip's HBM moves 512 bytes per core cycle (Table I); a board-level
//! link moves a few tens. That gap is what separates a per-chip roofline
//! from a believable cluster number: every sharding strategy buys its
//! compute/DRAM scaling by paying transfer time on links an order of
//! magnitude slower than local memory. The model here is deliberately at
//! the same altitude as the rest of the perf stack — cycle-denominated
//! analytic costs over idle links, not a flit-level NoC:
//!
//! * a [`Topology`] gives hop counts (ring with shortest-arc routing, or
//!   fully connected);
//! * an [`Interconnect`] prices point-to-point transfers at `hops ×
//!   latency + bytes / bandwidth` (cut-through: the payload pipelines
//!   behind the first hop's header);
//! * collectives use the standard ring all-reduce decomposition
//!   (reduce-scatter + all-gather: `2·(n−1)` steps of `bytes/n` chunks)
//!   with a two-phase all-to-all variant on fully-connected fleets.

pub use spatten_workloads::fleet::{LinkSpec, TopologySpec};

/// Inter-chip wiring shape plus size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Wiring shape.
    pub shape: TopologySpec,
    /// Number of chips wired together.
    pub chips: usize,
}

impl Topology {
    /// A `shape` topology over `chips` chips.
    ///
    /// # Panics
    ///
    /// Panics if `chips` is zero.
    pub fn new(shape: TopologySpec, chips: usize) -> Self {
        assert!(chips > 0, "topology needs at least one chip");
        Self { shape, chips }
    }

    /// Link hops between `src` and `dst` (0 for `src == dst`).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn hops(&self, src: usize, dst: usize) -> u64 {
        assert!(
            src < self.chips && dst < self.chips,
            "endpoint out of range"
        );
        if src == dst {
            return 0;
        }
        match self.shape {
            TopologySpec::FullyConnected => 1,
            TopologySpec::Ring => {
                let d = src.abs_diff(dst);
                d.min(self.chips - d) as u64
            }
        }
    }
}

/// The interconnect of one chip group: topology and link timing.
#[derive(Debug, Clone, Copy)]
pub struct Interconnect {
    topology: Topology,
    link: LinkSpec,
}

impl Interconnect {
    /// The interconnect wiring `topology` with `link` timing.
    pub fn new(topology: Topology, link: LinkSpec) -> Self {
        assert!(link.bytes_per_cycle > 0, "link needs nonzero bandwidth");
        Self { topology, link }
    }

    /// The topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Idle-link cycles to move `bytes` from `src` to `dst`:
    /// cut-through routing pays every hop's header latency up front, then
    /// the payload streams at link bandwidth.
    pub fn transfer_cycles(&self, src: usize, dst: usize, bytes: u64) -> u64 {
        let hops = self.topology.hops(src, dst);
        if hops == 0 {
            return 0;
        }
        hops * self.link.latency_cycles + bytes.div_ceil(self.link.bytes_per_cycle)
    }

    /// Analytic cycles for an all-reduce of `bytes` across all chips in
    /// the topology, assuming otherwise-idle links (the per-layer
    /// collective of tensor parallelism, where every shard participates
    /// and the links are dedicated to the group).
    ///
    /// Ring: reduce-scatter + all-gather — `2·(n−1)` steps, each moving a
    /// `bytes/n` chunk one hop. Fully connected: two all-to-all phases,
    /// each chip exchanging `bytes/n` chunks with its `n−1` peers over
    /// dedicated pair links in parallel.
    pub fn all_reduce_cycles(&self, bytes: u64) -> u64 {
        let n = self.topology.chips as u64;
        if n <= 1 {
            return 0;
        }
        let chunk = bytes.div_ceil(n);
        let chunk_cycles = chunk.div_ceil(self.link.bytes_per_cycle);
        match self.topology.shape {
            TopologySpec::Ring => 2 * (n - 1) * (self.link.latency_cycles + chunk_cycles),
            TopologySpec::FullyConnected => {
                // Each phase: n−1 chunks leave every chip on its own pair
                // links simultaneously; the phase lasts one latency plus
                // one chunk serialization per peer on the busiest NIC.
                2 * (self.link.latency_cycles + (n - 1) * chunk_cycles)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> Interconnect {
        Interconnect::new(Topology::new(TopologySpec::Ring, n), LinkSpec::default())
    }

    #[test]
    fn ring_hops_take_the_short_arc() {
        let t = Topology::new(TopologySpec::Ring, 8);
        assert_eq!(t.hops(0, 1), 1);
        assert_eq!(t.hops(0, 7), 1);
        assert_eq!(t.hops(0, 4), 4);
        assert_eq!(t.hops(6, 1), 3);
        assert_eq!(t.hops(3, 3), 0);
        let fc = Topology::new(TopologySpec::FullyConnected, 8);
        assert_eq!(fc.hops(0, 5), 1);
    }

    #[test]
    fn transfer_cost_scales_with_hops_and_bytes() {
        let ic = ring(8);
        let near = ic.transfer_cycles(0, 1, 4096);
        let far = ic.transfer_cycles(0, 4, 4096);
        assert!(far > near, "4 hops ({far}) vs 1 hop ({near})");
        let big = ic.transfer_cycles(0, 1, 1 << 20);
        assert!(big > 4 * near, "1 MiB ({big}) vs 4 KiB ({near})");
    }

    #[test]
    fn all_reduce_grows_with_group_size_on_a_ring() {
        let bytes = 1 << 20;
        let r2 = ring(2).all_reduce_cycles(bytes);
        let r8 = ring(8).all_reduce_cycles(bytes);
        assert!(r8 > r2, "8-ring {r8} vs 2-ring {r2}");
        assert_eq!(ring(1).all_reduce_cycles(bytes), 0);
    }

    #[test]
    fn fully_connected_all_reduce_beats_the_ring() {
        let bytes = 1 << 20;
        let fc = Interconnect::new(
            Topology::new(TopologySpec::FullyConnected, 8),
            LinkSpec::default(),
        );
        assert!(fc.all_reduce_cycles(bytes) < ring(8).all_reduce_cycles(bytes));
    }
}
