//! Fleet and interconnect topology descriptions for cluster-level serving.
//!
//! A [`FleetSpec`] describes the *hardware side* of a cluster scenario:
//! which chips exist (full Table-I parts next to 1/8-scale ones) and how
//! they are wired. It is deliberately descriptive — plain chip classes
//! rather than `SpAttenConfig` values — so this crate stays independent
//! of the accelerator model; the cluster layer (`spatten-cluster`)
//! resolves classes to concrete configurations. Pool roles and fleet
//! elasticity are described once, by the serving layer
//! (`spatten-serve`'s `PoolSpec` and `ElasticSpec`); [`PoolRole`],
//! [`TopologySpec`] and [`LinkSpec`] live here so that both layers share
//! them.

/// A chip class in a (possibly heterogeneous) fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChipClass {
    /// The full Table-I configuration.
    Full,
    /// The 1/8-scale variant of Table III (`SpAttenConfig::eighth`).
    Eighth,
}

/// A chip's role in a disaggregated serving fleet.
///
/// Disaggregation splits the fleet into a prefill pool (arrivals land
/// here, run their prompt pass, then migrate away) and a decode pool
/// (receives migrated KV and runs generation). `Flex` chips opt out:
/// they serve jobs end-to-end exactly as every chip did before pools
/// existed, so an all-`Flex` fleet is the co-located baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PoolRole {
    /// Prefill specialist: arrivals target this pool; generative jobs
    /// migrate off it once their last prefill chunk retires.
    Prefill,
    /// Decode specialist: receives migrated KV; routing and stealing
    /// never place an unprefilled job here.
    Decode,
    /// Serves jobs end-to-end (the co-located default).
    #[default]
    Flex,
}

impl PoolRole {
    /// Report label.
    pub fn name(&self) -> &'static str {
        match self {
            PoolRole::Prefill => "prefill",
            PoolRole::Decode => "decode",
            PoolRole::Flex => "flex",
        }
    }
}

/// Inter-chip wiring shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySpec {
    /// A bidirectional ring; messages take the shorter arc.
    Ring,
    /// Every chip pair shares a dedicated link.
    FullyConnected,
}

/// One link's timing: per-hop latency plus serialization bandwidth, in
/// core-clock terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Cycles a message spends per hop before its first byte arrives.
    pub latency_cycles: u64,
    /// Payload bytes a link moves per core cycle.
    pub bytes_per_cycle: u64,
}

impl Default for LinkSpec {
    /// A serdes-class board link: 0.5 µs per hop at 1 GHz and 32 GB/s —
    /// an order of magnitude below the on-package HBM bandwidth, which is
    /// what makes sharding a trade-off rather than free.
    fn default() -> Self {
        Self {
            latency_cycles: 500,
            bytes_per_cycle: 32,
        }
    }
}

/// The hardware side of a cluster serving scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Chip inventory, by class.
    pub chips: Vec<ChipClass>,
    /// How the chips are wired.
    pub topology: TopologySpec,
    /// Link timing.
    pub link: LinkSpec,
}

impl FleetSpec {
    /// `n` full Table-I chips on a ring with default links.
    pub fn ring_of(n: usize) -> Self {
        Self {
            chips: vec![ChipClass::Full; n],
            topology: TopologySpec::Ring,
            link: LinkSpec::default(),
        }
    }

    /// `full` Table-I chips plus `eighth` 1/8-scale chips, fully
    /// connected with default links.
    pub fn mixed(full: usize, eighth: usize) -> Self {
        let mut chips = vec![ChipClass::Full; full];
        chips.extend(std::iter::repeat_n(ChipClass::Eighth, eighth));
        Self {
            chips,
            topology: TopologySpec::FullyConnected,
            link: LinkSpec::default(),
        }
    }

    /// Chips in the fleet.
    pub fn len(&self) -> usize {
        self.chips.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.chips.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_shape_the_fleet() {
        let ring = FleetSpec::ring_of(4);
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.topology, TopologySpec::Ring);
        assert!(ring.chips.iter().all(|&c| c == ChipClass::Full));

        let mixed = FleetSpec::mixed(2, 6);
        assert_eq!(mixed.len(), 8);
        assert_eq!(
            mixed
                .chips
                .iter()
                .filter(|&&c| c == ChipClass::Eighth)
                .count(),
            6
        );
        assert!(!mixed.is_empty());
    }

    #[test]
    fn default_link_is_slower_than_hbm() {
        // Table I HBM: 16 channels × 32 B/cycle = 512 B/cycle.
        let link = LinkSpec::default();
        assert!(link.bytes_per_cycle < 512);
        assert!(link.latency_cycles > 0);
    }
}
