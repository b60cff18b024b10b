//! Disaggregated prefill/decode serving: pool roles, pool-aware routing,
//! and the priced KV handoff that moves a job between pools.
//!
//! Co-located serving runs every job end-to-end on one chip, so long
//! prefill passes and latency-critical decode steps fight for the same
//! iteration budget — a chat mix with long prompts and short generations
//! pays its time-between-tokens tail to other jobs' prompt processing.
//! Disaggregation splits the fleet: *prefill specialists* absorb
//! arrivals and run prompt passes back-to-back, *decode specialists*
//! run nothing but generation steps, and the job's KV state is handed
//! off between them the moment its last prefill chunk retires.
//!
//! The handoff is the price of admission, and this simulator prices it
//! honestly through three existing seams:
//!
//! * **bytes** — under paged KV ([`KvPager`](crate::kv::KvPager)) the
//!   payload is the job's *unique dirty blocks* at the migration
//!   instant: the pruned survivor set, minus whatever slice of its
//!   class's shared prefix is already warm on the target chip (those
//!   blocks transfer for free). Cascade pruning therefore directly
//!   shrinks migration cost — the paper's novel claim for making
//!   disaggregation cheap.
//! * **cycles** — [`FleetCost::handoff_cycles_on`] prices the transfer
//!   as a three-stage pipeline (source HBM drain → wire → target HBM
//!   fill) bottlenecked by its slowest stage plus per-hop propagation,
//!   and the event loop charges the result into **both** chips' busy
//!   cycles, so neither pool's utilization lies.
//! * **placement** — the migrated job's [`ResumeState`] pin is
//!   re-pointed at the target chip ("the chip holding my KV"), which
//!   makes it unstealable in flight for free: work stealing already
//!   refuses pinned jobs.
//!
//! A [`PoolSpec`] is pure description (roles + wiring); the event loop
//! in [`engine`](crate::engine) owns the migration mechanics. Chips with role
//! [`PoolRole::Flex`] opt out of migration entirely — an all-`Flex`
//! spec (or no spec at all) is the co-located baseline, bit-for-bit.
//!
//! [`FleetCost::handoff_cycles_on`]: crate::cost::FleetCost::handoff_cycles_on
//! [`ResumeState`]: crate::request::ResumeState

use crate::cost::FleetCost;
use crate::request::Job;
use crate::route::{ChipLoad, RoutingPolicy};
use spatten_workloads::fleet::{FleetSpec, LinkSpec, PoolRole, TopologySpec};
use spatten_workloads::{Trace, Workload};

/// Which chips belong to which pool, and how the pools are wired.
///
/// The wiring ([`TopologySpec`] + [`LinkSpec`]) mirrors
/// `cluster::topology::Interconnect`: handoff distance is the hop count
/// on the same shapes, so a serve-level pool spec and a cluster-level
/// interconnect price the same fabric identically.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolSpec {
    /// Per-chip roles, indexed by chip id.
    pub roles: Vec<PoolRole>,
    /// Inter-pool wiring shape.
    pub topology: TopologySpec,
    /// Link timing for the handoff path.
    pub link: LinkSpec,
}

impl PoolSpec {
    /// A pool layout over `roles` chips wired as `topology` with `link`
    /// timing.
    ///
    /// # Panics
    ///
    /// Panics if `roles` is empty, or if it declares a prefill pool with
    /// nowhere to send finished prefills (no `Decode` or `Flex` chip).
    pub fn new(roles: Vec<PoolRole>, topology: TopologySpec, link: LinkSpec) -> Self {
        assert!(!roles.is_empty(), "a pool spec needs at least one chip");
        let has_prefill = roles.contains(&PoolRole::Prefill);
        let has_decode_capable = roles
            .iter()
            .any(|r| matches!(r, PoolRole::Decode | PoolRole::Flex));
        assert!(
            !has_prefill || has_decode_capable,
            "prefill pool has no decode-capable chip to hand off to"
        );
        Self {
            roles,
            topology,
            link,
        }
    }

    /// `prefill` prefill-specialists feeding `decode` decode-specialists
    /// over a fully connected fabric with default links.
    pub fn split(prefill: usize, decode: usize) -> Self {
        let mut roles = vec![PoolRole::Prefill; prefill];
        roles.extend(std::iter::repeat_n(PoolRole::Decode, decode));
        Self::new(roles, TopologySpec::FullyConnected, LinkSpec::default())
    }

    /// Picks the prefill/decode split for a `chips`-chip fleet from the
    /// observed prefill:decode cycle ratio of `trace`, priced through
    /// `cost` (chip 0 is the probe — pool sizing assumes the pools run
    /// on comparable hardware). A long-prompt/short-generation chat mix
    /// is prefill-heavy and gets most of the fleet as prefill
    /// specialists; a generation-heavy mix tilts the other way. Both
    /// pools always keep at least one chip, so the spec is valid for
    /// any non-degenerate trace; an empty trace splits evenly.
    ///
    /// # Panics
    ///
    /// Panics if `chips < 2` — a split needs a chip for each pool.
    pub fn auto_split<C: FleetCost>(cost: &mut C, trace: &Trace, chips: usize) -> Self {
        assert!(chips >= 2, "auto_split needs at least two chips");
        let mut prefill_cycles: u128 = 0;
        let mut decode_cycles: u128 = 0;
        let mut tally = |cost: &mut C, w: &Workload| {
            let prefill = cost.prefill_on(0, w).serial_cycles;
            let total = cost.job_serial_on(0, w);
            prefill_cycles += u128::from(prefill);
            decode_cycles += u128::from(total.saturating_sub(prefill));
        };
        match trace {
            Trace::Open { requests } => {
                for r in requests {
                    tally(cost, &r.workload);
                }
            }
            Trace::Closed { clients, .. } => {
                for r in clients.iter().flatten() {
                    tally(cost, &r.workload);
                }
            }
        }
        let total = prefill_cycles + decode_cycles;
        let frac = if total == 0 {
            0.5
        } else {
            prefill_cycles as f64 / total as f64
        };
        let prefill = ((chips as f64 * frac).round() as usize).clamp(1, chips - 1);
        Self::split(prefill, chips - prefill)
    }

    /// The pool layout a [`FleetSpec`] declares, `None` when it declares
    /// no roles (co-located).
    pub fn from_fleet(fleet: &FleetSpec) -> Option<Self> {
        let roles = fleet.roles.clone()?;
        assert_eq!(
            roles.len(),
            fleet.chips.len(),
            "fleet declares {} roles for {} chips",
            roles.len(),
            fleet.chips.len()
        );
        Some(Self::new(roles, fleet.topology, fleet.link))
    }

    /// Chips in the spec.
    pub fn len(&self) -> usize {
        self.roles.len()
    }

    /// Whether the spec is empty (never true for a constructed spec).
    pub fn is_empty(&self) -> bool {
        self.roles.is_empty()
    }

    /// Chip `c`'s role.
    pub fn role(&self, c: usize) -> PoolRole {
        self.roles[c]
    }

    /// Whether this spec actually splits the fleet: at least one
    /// prefill-specialist to migrate *from* (all-`Flex` and all-`Decode`
    /// layouts never fire a handoff).
    pub fn migrates(&self) -> bool {
        self.roles.contains(&PoolRole::Prefill)
    }

    /// The decode pool: chips a finished prefill may migrate to
    /// (`Decode` and `Flex`), excluding `src` — staying put is not a
    /// migration.
    pub fn decode_targets(&self, src: usize) -> impl Iterator<Item = usize> + '_ {
        self.roles
            .iter()
            .enumerate()
            .filter(move |(c, r)| *c != src && matches!(r, PoolRole::Decode | PoolRole::Flex))
            .map(|(c, _)| c)
    }

    /// Hop count from `src` to `dst` on this wiring — the same distance
    /// convention as `cluster::topology::Topology::hops`: a ring routes
    /// the shorter arc, a fully connected fabric is always one hop.
    pub fn hops(&self, src: usize, dst: usize) -> u64 {
        if src == dst {
            return 0;
        }
        match self.topology {
            TopologySpec::FullyConnected => 1,
            TopologySpec::Ring => {
                let n = self.roles.len();
                let d = src.abs_diff(dst);
                d.min(n - d) as u64
            }
        }
    }
}

/// Pool-targeted routing: arrivals go to the least-loaded chip of the
/// pool that matches their phase.
///
/// A fresh arrival needs a prompt pass, so it targets the prefill pool
/// (`Prefill` ∪ `Flex`), minimizing the same estimated-completion score
/// as [`FastestChipRouting`](crate::route::FastestChipRouting) but only
/// over prefill-capable chips. A decode-phase job (an already-prefilled
/// resume — only possible if an upstream queue re-routes migrated work)
/// symmetrically targets the decode pool. If the matching pool is empty
/// the policy degrades to fastest-chip over the whole fleet, so it is
/// always work-conserving; on a role-free fleet (all `Flex`) it *is*
/// fastest-chip.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolAwareRouting;

impl RoutingPolicy for PoolAwareRouting {
    fn name(&self) -> &'static str {
        "pool-aware"
    }

    fn route(
        &mut self,
        job: &Job,
        cost: &mut dyn FleetCost,
        loads: &[ChipLoad],
        _now: u64,
    ) -> Option<usize> {
        let prefilled = job.resume.is_some_and(|r| r.prefilled);
        let estimate = |cost: &mut dyn FleetCost, c: usize| {
            loads[c]
                .backlog_cycles()
                .saturating_add(cost.job_serial_on(c, &job.workload))
        };
        // Leaving (draining/offline) chips are never placement targets,
        // in the pooled pass or the work-conserving fallback — a job
        // routed there would strand when the chip departs.
        let open = |c: &usize| !loads[*c].leaving;
        let pooled = (0..loads.len())
            .filter(open)
            .filter(|&c| loads[c].suits_phase(prefilled))
            .min_by_key(|&c| (estimate(cost, c), c));
        pooled
            .or_else(|| {
                (0..loads.len())
                    .filter(open)
                    .min_by_key(|&c| (estimate(cost, c), c))
            })
            .or_else(|| (0..loads.len()).min_by_key(|&c| (estimate(cost, c), c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hops_follow_the_interconnect_convention() {
        let ring = PoolSpec::new(
            vec![PoolRole::Flex; 6],
            TopologySpec::Ring,
            LinkSpec::default(),
        );
        assert_eq!(ring.hops(0, 0), 0);
        assert_eq!(ring.hops(0, 1), 1);
        assert_eq!(ring.hops(0, 5), 1); // shorter arc wraps
        assert_eq!(ring.hops(0, 3), 3);
        assert_eq!(ring.hops(1, 4), 3);
        let full = PoolSpec::split(2, 4);
        assert_eq!(full.hops(0, 5), 1);
        assert_eq!(full.hops(3, 3), 0);
    }

    #[test]
    fn decode_targets_exclude_the_source_and_prefill_pool() {
        let spec = PoolSpec::new(
            vec![
                PoolRole::Prefill,
                PoolRole::Decode,
                PoolRole::Flex,
                PoolRole::Prefill,
            ],
            TopologySpec::FullyConnected,
            LinkSpec::default(),
        );
        let targets: Vec<usize> = spec.decode_targets(0).collect();
        assert_eq!(targets, vec![1, 2]);
        let from_flex: Vec<usize> = spec.decode_targets(2).collect();
        assert_eq!(from_flex, vec![1]);
        assert!(spec.migrates());
        assert!(!PoolSpec::new(
            vec![PoolRole::Flex; 3],
            TopologySpec::Ring,
            LinkSpec::default()
        )
        .migrates());
    }

    #[test]
    #[should_panic(expected = "no decode-capable chip")]
    fn all_prefill_pool_is_rejected() {
        PoolSpec::new(
            vec![PoolRole::Prefill; 4],
            TopologySpec::Ring,
            LinkSpec::default(),
        );
    }

    #[test]
    fn auto_split_follows_the_observed_phase_ratio() {
        use crate::cost::CostModel;
        use spatten_core::SpAttenConfig;
        use spatten_workloads::{ArrivalSpec, Benchmark, RequestClass, Trace, TraceSpec};
        let mut cost = CostModel::end_to_end(SpAttenConfig::default(), 8);
        // The disagg chat mix (long prompts, short generations) is
        // prefill-heavy: most of the fleet goes to the prefill pool.
        let arrival = ArrivalSpec::OpenPoisson {
            rate_rps: 2000.0,
            requests: 64,
        };
        let chat = TraceSpec::disagg_chat(arrival, 17).generate();
        let spec = PoolSpec::auto_split(&mut cost, &chat, 6);
        assert_eq!(spec.len(), 6);
        let prefill = spec
            .roles
            .iter()
            .filter(|r| **r == PoolRole::Prefill)
            .count();
        let decode = spec
            .roles
            .iter()
            .filter(|r| **r == PoolRole::Decode)
            .count();
        assert_eq!(prefill + decode, 6, "auto_split emits specialists only");
        assert!(
            prefill > decode,
            "long-prompt/short-generation mix must be prefill-heavy, got {prefill}p/{decode}d"
        );
        // A generation-heavy mix tilts the other way — and however
        // extreme the ratio, both pools keep at least one chip.
        let gen_heavy = TraceSpec {
            classes: vec![RequestClass::gpt2(
                &Benchmark::gpt2_small_wikitext2(),
                (16, 32),
                (384, 512),
                1.0,
            )],
            arrival,
            seed: 17,
            fleet: None,
        }
        .generate();
        let spec = PoolSpec::auto_split(&mut cost, &gen_heavy, 6);
        let prefill = spec
            .roles
            .iter()
            .filter(|r| **r == PoolRole::Prefill)
            .count();
        assert_eq!(
            prefill, 1,
            "generation-heavy mix keeps exactly the floor prefill chip"
        );
        // An empty trace has no observed ratio: split evenly.
        let spec = PoolSpec::auto_split(&mut cost, &Trace::Open { requests: vec![] }, 6);
        let prefill = spec
            .roles
            .iter()
            .filter(|r| **r == PoolRole::Prefill)
            .count();
        assert_eq!(prefill, 3);
    }

    #[test]
    fn from_fleet_mirrors_declared_roles() {
        let mut fleet = spatten_workloads::FleetSpec::ring_of(4);
        assert!(PoolSpec::from_fleet(&fleet).is_none());
        fleet.roles = Some(vec![
            PoolRole::Prefill,
            PoolRole::Prefill,
            PoolRole::Decode,
            PoolRole::Decode,
        ]);
        let spec = PoolSpec::from_fleet(&fleet).expect("roles declared");
        assert_eq!(spec.len(), 4);
        assert_eq!(spec.role(2), PoolRole::Decode);
        assert_eq!(spec.topology, TopologySpec::Ring);
    }
}
