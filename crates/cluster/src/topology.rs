//! The inter-chip interconnect model.
//!
//! One chip's HBM moves 512 bytes per core cycle (Table I); a board-level
//! link moves a few tens. That gap is what separates a per-chip roofline
//! from a believable cluster number: every sharding strategy buys its
//! compute/DRAM scaling by paying transfer time on links an order of
//! magnitude slower than local memory. The model here is deliberately at
//! the same altitude as the rest of the perf stack — cycle-denominated
//! analytic costs with explicit contention state, not a flit-level NoC:
//!
//! * a [`Topology`] gives hop counts (ring with shortest-arc routing, or
//!   fully connected);
//! * point-to-point transfers pay `hops × latency + bytes / bandwidth`
//!   (cut-through: the payload pipelines behind the first hop's header);
//! * an [`Interconnect`] additionally tracks per-directed-link busy time,
//!   so concurrent transfers that share a link serialize
//!   (contention-aware), while disjoint paths proceed in parallel;
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

/// The interconnect of one chip group: topology, link timing, and
/// per-directed-link contention state.
#[derive(Debug, Clone)]
pub struct Interconnect {
    topology: Topology,
    link: LinkSpec,
    /// Cycle until which each directed ring link (`2 × chips`: clockwise
    /// then counter-clockwise) or fully-connected pair link is busy.
    busy_until: Vec<u64>,
}

impl Interconnect {
    /// An idle interconnect.
    pub fn new(topology: Topology, link: LinkSpec) -> Self {
        assert!(link.bytes_per_cycle > 0, "link needs nonzero bandwidth");
        let links = match topology.shape {
            TopologySpec::Ring => 2 * topology.chips,
            TopologySpec::FullyConnected => topology.chips * topology.chips,
        };
        Self {
            topology,
            link,
            busy_until: vec![0; links],
        }
    }

    /// The topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Contention-free cycles to move `bytes` from `src` to `dst`:
    /// cut-through routing pays every hop's header latency up front, then
    /// the payload streams at link bandwidth.
    pub fn transfer_cycles(&self, src: usize, dst: usize, bytes: u64) -> u64 {
        let hops = self.topology.hops(src, dst);
        if hops == 0 {
            return 0;
        }
        hops * self.link.latency_cycles + bytes.div_ceil(self.link.bytes_per_cycle)
    }

    /// Directed-link ids along the route from `src` to `dst` (ring:
    /// shortest arc, ties broken clockwise; fully connected: the pair
    /// link).
    fn route(&self, src: usize, dst: usize) -> Vec<usize> {
        let n = self.topology.chips;
        match self.topology.shape {
            TopologySpec::FullyConnected => vec![src * n + dst],
            TopologySpec::Ring => {
                let clockwise = (dst + n - src) % n <= n / 2;
                let mut links = Vec::new();
                let mut at = src;
                while at != dst {
                    if clockwise {
                        links.push(at); // clockwise link out of `at`
                        at = (at + 1) % n;
                    } else {
                        links.push(n + at); // counter-clockwise link
                        at = (at + n - 1) % n;
                    }
                }
                links
            }
        }
    }

    /// Schedules a transfer of `bytes` from `src` to `dst` starting no
    /// earlier than `now`, serializing on any busy link along the route.
    /// Returns the completion cycle and marks the route busy until then.
    pub fn transfer(&mut self, src: usize, dst: usize, bytes: u64, now: u64) -> u64 {
        if src == dst {
            return now;
        }
        let route = self.route(src, dst);
        // Cut-through: the whole route must be claimed for the message's
        // duration; it starts when the most-contended link frees up.
        let start = route
            .iter()
            .map(|&l| self.busy_until[l])
            .fold(now, u64::max);
        let finish = start + self.transfer_cycles(src, dst, bytes);
        for l in route {
            self.busy_until[l] = finish;
        }
        finish
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
    fn contention_serializes_shared_links() {
        let mut ic = ring(4);
        // Two transfers over the same clockwise 0→1 link: the second waits.
        let first = ic.transfer(0, 1, 1 << 16, 0);
        let second = ic.transfer(0, 1, 1 << 16, 0);
        assert!(second >= 2 * first, "second {second} vs first {first}");
        // A disjoint route (2→3) is unaffected.
        let disjoint = ic.transfer(2, 3, 1 << 16, 0);
        assert_eq!(disjoint, first);
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
