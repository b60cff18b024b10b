//! The 32×16 address and 16×32 data crossbars (paper §IV-D).
//!
//! The Q-K-V fetcher emits up to 32 read requests per cycle; the address
//! crossbar routes them to 16 HBM channels. "There is no memory access
//! conflict because the crossbar generates at most one memory request for
//! each channel at a time" — so the timing model serializes per *output
//! port*: a batch of requests takes as many cycles as the most-subscribed
//! destination needs.

/// A master×slave crossbar timing/routing model.
#[derive(Debug, Clone)]
pub struct Crossbar {
    masters: usize,
    slaves: usize,
    total_grants: u64,
    total_cycles: u64,
}

impl Crossbar {
    /// A crossbar with `masters` input and `slaves` output ports.
    ///
    /// # Panics
    ///
    /// Panics if either port count is zero.
    pub fn new(masters: usize, slaves: usize) -> Self {
        assert!(masters > 0 && slaves > 0, "port counts must be positive");
        Self {
            masters,
            slaves,
            total_grants: 0,
            total_cycles: 0,
        }
    }

    /// Input port count.
    pub fn masters(&self) -> usize {
        self.masters
    }

    /// Output port count.
    pub fn slaves(&self) -> usize {
        self.slaves
    }

    /// Routes one batch of requests (`destinations[i]` is the slave port of
    /// request `i`). Returns the cycles needed: each slave accepts one
    /// request per cycle and each master issues at most one per cycle.
    ///
    /// # Panics
    ///
    /// Panics if a destination is out of range.
    pub fn route(&mut self, destinations: &[usize]) -> u64 {
        let mut per_slave = vec![0u64; self.slaves];
        for &d in destinations {
            assert!(d < self.slaves, "destination {d} out of range");
            per_slave[d] += 1;
        }
        let slave_bound = per_slave.iter().copied().max().unwrap_or(0);
        let master_bound = (destinations.len() as u64).div_ceil(self.masters as u64);
        let cycles = slave_bound.max(master_bound);
        self.total_grants += destinations.len() as u64;
        self.total_cycles += cycles;
        cycles
    }

    /// Lifetime requests routed.
    pub fn total_grants(&self) -> u64 {
        self.total_grants
    }

    /// Lifetime cycles spent routing.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_batch_is_single_cycle_per_wave() {
        let mut xbar = Crossbar::new(32, 16);
        // 16 requests, one per channel: one cycle.
        let dests: Vec<usize> = (0..16).collect();
        assert_eq!(xbar.route(&dests), 1);
    }

    #[test]
    fn hotspot_serializes_on_the_slave() {
        let mut xbar = Crossbar::new(32, 16);
        let dests = vec![3usize; 10];
        assert_eq!(xbar.route(&dests), 10);
    }

    #[test]
    fn master_width_bounds_issue_rate() {
        let mut xbar = Crossbar::new(32, 16);
        // 64 perfectly balanced requests: 4 per slave, but also 2 waves of
        // 32 masters → slave bound (4) dominates.
        let dests: Vec<usize> = (0..64).map(|i| i % 16).collect();
        assert_eq!(xbar.route(&dests), 4);
        // 48 requests to 16 slaves = 3 each; master bound 48/32 = 2 → 3.
        let dests: Vec<usize> = (0..48).map(|i| i % 16).collect();
        assert_eq!(xbar.route(&dests), 3);
    }

    #[test]
    fn empty_batch_is_free() {
        let mut xbar = Crossbar::new(32, 16);
        assert_eq!(xbar.route(&[]), 0);
    }

    #[test]
    fn stats_accumulate() {
        let mut xbar = Crossbar::new(4, 2);
        xbar.route(&[0, 1]);
        xbar.route(&[1, 1, 1]);
        assert_eq!(xbar.total_grants(), 5);
        assert_eq!(xbar.total_cycles(), 1 + 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_destination_panics() {
        let mut xbar = Crossbar::new(4, 2);
        xbar.route(&[2]);
    }
}
