//! Elastic fleets: scheduled chip joins/leaves, priced model swaps, and
//! the autoscaler seam.
//!
//! A serving fleet is not fixed hardware: chips drain for maintenance,
//! spot capacity is revoked on short notice, and cold chips join after
//! streaming their model weights into HBM. This module describes those
//! events ([`FleetEvents`]) and the policy seam that emits them at run
//! time ([`AutoscalePolicy`]); the engine (`crate::engine`) injects them
//! into its event heap as first-class events, after the arrival stream's
//! sequence numbers so an empty schedule is bit-for-bit identical to a
//! fixed-fleet run.
//!
//! Lifecycle of a chip, as the simulator tracks it ([`Availability`]):
//!
//! ```text
//!              ChipLeave{Drain}            residents finished
//!   Online ───────────────────▶ Draining ─────────────────────▶ Offline
//!     ▲                            │                               │
//!     │                            │ grace expires                 │
//!     │                            ▼ (Revoke: evict + re-route)    │
//!     │                         Offline ◀──────────────────────────┘
//!     │                                                            │
//!     └──────────── weight-load delay after ChipJoin ──────────────┘
//! ```
//!
//! Draining chips accept no new placements — routing, stealing, and
//! handoff targeting all skip them — but still serve the jobs whose KV
//! lives in their HBM (including previously preempted jobs pinned to
//! them). Revocation drains the queue immediately and, at the grace
//! cutoff, evicts every resident through the ordinary preemption
//! machinery: KV swapped out at [`FleetCost::swap_cycles_on`] cost,
//! `ResumeState` re-pinned to the least-loaded online chip, job requeued
//! there. No generated token is ever recomputed. A join prices its
//! model-load delay through [`FleetCost::weight_load_cycles_on`].
//!
//! [`FleetCost::swap_cycles_on`]: crate::cost::FleetCost::swap_cycles_on
//! [`FleetCost::weight_load_cycles_on`]: crate::cost::FleetCost::weight_load_cycles_on

use serde::{Deserialize, Serialize};
use spatten_core::SpAttenConfig;
use spatten_nn::ModelConfig;
use spatten_workloads::fleet::{ChipClass, ElasticitySpec, LeaveKind};

use crate::route::ChipLoad;

/// How a [`ChipLeave`] takes its chip out of service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaveMode {
    /// Maintenance drain: stop admission, routing, and stealing to the
    /// chip; residents (and queued jobs pinned to its HBM) finish in
    /// place before the chip goes offline.
    Drain,
    /// Spot-style revocation: like a drain, but after `grace_ns` of
    /// notice every remaining resident is preempted — KV swapped out,
    /// `ResumeState` migrated to an online chip — and the chip goes
    /// offline immediately.
    Revoke {
        /// Nanoseconds between the leave notice and the hard cutoff. A
        /// round already executing at the cutoff finishes (its tokens
        /// are kept, never recomputed); no new round starts.
        grace_ns: u64,
    },
}

/// A scheduled departure of one roster chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChipLeave {
    /// Roster index of the departing chip.
    pub chip: usize,
    /// Departure time, nanoseconds from simulation start.
    pub at_ns: u64,
    /// Drain or revoke.
    pub mode: LeaveMode,
}

/// A scheduled cold join: a chip of `chip_config` is appended to the
/// roster, starts offline, and comes up at `at_ns` plus its weight-load
/// delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipJoin {
    /// Configuration of the joining chip.
    pub chip_config: SpAttenConfig,
    /// Join time, nanoseconds from simulation start.
    pub at_ns: u64,
}

/// A seeded schedule of fleet-membership events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetEvents {
    /// Scheduled departures.
    pub leaves: Vec<ChipLeave>,
    /// Scheduled cold joins.
    pub joins: Vec<ChipJoin>,
}

/// `splitmix64` output step — the same stateless generator the routing
/// layer hashes with, chained here into a tiny schedule RNG so the serve
/// crate stays free of a `rand` dependency.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FleetEvents {
    /// Whether the schedule contains no events.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty() && self.joins.is_empty()
    }

    /// A seeded random fault schedule over a `chips`-chip fleet within
    /// `horizon_ns`: each chip except chip 0 (the fleet always keeps a
    /// survivor) leaves with probability one half, drains or revokes
    /// with equal odds, and revocations carry a grace of up to an
    /// eighth of the horizon. Deterministic in `seed` — the property
    /// harness replays the same schedule against its fault-free twin.
    pub fn seeded(seed: u64, chips: usize, horizon_ns: u64) -> Self {
        let mut state = splitmix64(seed ^ 0x000E_1A57_1C0F_1EE7_u64);
        let mut draw = |bound: u64| {
            state = splitmix64(state);
            state % bound.max(1)
        };
        let mut leaves = Vec::new();
        for chip in 1..chips {
            if draw(2) == 0 {
                continue;
            }
            let at_ns = horizon_ns / 8 + draw(horizon_ns.saturating_sub(horizon_ns / 8));
            let mode = if draw(2) == 0 {
                LeaveMode::Drain
            } else {
                LeaveMode::Revoke {
                    grace_ns: draw(horizon_ns / 8 + 1),
                }
            };
            leaves.push(ChipLeave { chip, at_ns, mode });
        }
        Self {
            leaves,
            joins: Vec::new(),
        }
    }
}

/// A chip's membership state in the fleet, as the simulator tracks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Availability {
    /// In service: admits, routes, steals, and hosts handoffs.
    Online,
    /// Departing: serves only jobs already pinned to its HBM; no new
    /// placements of any kind.
    Draining,
    /// Out of service (never joined, drained out, or revoked).
    Offline,
}

/// The full elasticity scenario a [`FleetConfig`] carries: scheduled
/// events, an autoscaler-managed reserve, and optional resident-model
/// tags for the multi-model dimension.
///
/// [`FleetConfig`]: crate::sim::FleetConfig
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ElasticSpec {
    /// Scheduled joins and leaves.
    pub events: FleetEvents,
    /// Reserve chips the autoscaler may bring up and drain. Appended to
    /// the roster after the base chips and scheduled joins; they start
    /// offline and cost nothing until brought up.
    pub reserve: Vec<SpAttenConfig>,
    /// Autoscaler configuration (`None` = no autoscaler; the reserve,
    /// if any, stays cold).
    pub autoscale: Option<AutoscaleSpec>,
    /// Resident model per *base* chip, enabling the multi-model
    /// dimension: admitting a job whose `workload.model` differs from
    /// the chip's resident model first streams the new weight plane in
    /// at [`FleetCost::weight_load_cycles_on`] cost and retags the
    /// chip. `None` (the default) disables model tracking entirely —
    /// admission is priced exactly as in a fixed single-model fleet.
    ///
    /// [`FleetCost::weight_load_cycles_on`]: crate::cost::FleetCost::weight_load_cycles_on
    pub models: Option<Vec<ModelConfig>>,
}

fn resolve_class(class: ChipClass) -> SpAttenConfig {
    match class {
        ChipClass::Full => SpAttenConfig::default(),
        ChipClass::Eighth => SpAttenConfig::eighth(),
    }
}

impl ElasticSpec {
    /// Resolves a descriptive trace-side scenario
    /// ([`spatten_workloads::ElasticitySpec`]) into concrete chip
    /// configurations and event modes.
    pub fn from_fleet(spec: &ElasticitySpec) -> Self {
        let leaves = spec
            .leaves
            .iter()
            .map(|l| ChipLeave {
                chip: l.chip,
                at_ns: l.at_ns,
                mode: match l.kind {
                    LeaveKind::Drain => LeaveMode::Drain,
                    LeaveKind::Revoke { grace_ns } => LeaveMode::Revoke { grace_ns },
                },
            })
            .collect();
        let joins = spec
            .joins
            .iter()
            .map(|j| ChipJoin {
                chip_config: resolve_class(j.chip_class),
                at_ns: j.at_ns,
            })
            .collect();
        Self {
            events: FleetEvents { leaves, joins },
            reserve: spec.reserve.iter().map(|&c| resolve_class(c)).collect(),
            autoscale: spec.autoscale_window_ns.map(|window_ns| AutoscaleSpec {
                window_ns,
                ..AutoscaleSpec::default()
            }),
            models: None,
        }
    }

    /// Extra roster configurations this scenario appends after the
    /// `base` chips: scheduled joins first, then the reserve.
    pub fn extra_configs(&self) -> Vec<SpAttenConfig> {
        let mut extra: Vec<SpAttenConfig> =
            self.events.joins.iter().map(|j| j.chip_config).collect();
        extra.extend(self.reserve.iter().copied());
        extra
    }

    /// Lowers the scenario onto a roster of `base` pre-existing chips:
    /// joins become roster indices `base..`, the reserve follows them,
    /// and model tags are extended with cold (`None`) entries for every
    /// appended chip.
    pub fn lower(&self, base: usize) -> ElasticSchedule {
        for leave in &self.events.leaves {
            assert!(
                leave.chip < base + self.events.joins.len() + self.reserve.len(),
                "leave targets chip {} beyond the {}-chip roster",
                leave.chip,
                base + self.events.joins.len() + self.reserve.len()
            );
        }
        if let Some(models) = &self.models {
            assert_eq!(
                models.len(),
                base,
                "model tags cover the base roster: {} tags for {base} chips",
                models.len()
            );
        }
        let joins = self
            .events
            .joins
            .iter()
            .enumerate()
            .map(|(i, j)| (base + i, j.at_ns))
            .collect();
        let reserve = (0..self.reserve.len())
            .map(|i| base + self.events.joins.len() + i)
            .collect();
        let models = self.models.as_ref().map(|tags| {
            let mut per_chip: Vec<Option<ModelConfig>> = tags.iter().copied().map(Some).collect();
            per_chip.resize(base + self.events.joins.len() + self.reserve.len(), None);
            per_chip
        });
        ElasticSchedule {
            leaves: self.events.leaves.clone(),
            joins,
            reserve,
            autoscale: self.autoscale,
            models,
        }
    }
}

/// An [`ElasticSpec`] resolved against a concrete roster: every event
/// and reserve entry is a chip index, so the simulator (and the cluster
/// layer, whose "chips" are whole groups) consumes it without knowing
/// chip configurations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ElasticSchedule {
    /// Scheduled departures, by roster index.
    pub leaves: Vec<ChipLeave>,
    /// Scheduled cold joins: `(roster index, at_ns)`. The chip starts
    /// offline and comes up at `at_ns` plus its weight-load delay.
    pub joins: Vec<(usize, u64)>,
    /// Roster indices of autoscaler-managed reserve chips (start
    /// offline; only the autoscaler brings them up or drains them).
    pub reserve: Vec<usize>,
    /// Autoscaler configuration.
    pub autoscale: Option<AutoscaleSpec>,
    /// Initial resident model per roster chip (`None` entries = cold
    /// chip, first admission loads weights if tracking is on). `None`
    /// disables model tracking entirely.
    pub models: Option<Vec<Option<ModelConfig>>>,
}

impl ElasticSchedule {
    /// Whether the schedule changes nothing: no events, no reserve, no
    /// autoscaler, no model tracking. A static schedule reproduces the
    /// fixed-fleet simulation bit for bit.
    pub fn is_static(&self) -> bool {
        self.leaves.is_empty()
            && self.joins.is_empty()
            && self.reserve.is_empty()
            && self.autoscale.is_none()
            && self.models.is_none()
    }
}

/// Threshold-hysteresis autoscaler configuration (serializable; feeds
/// [`ThresholdHysteresis`], the default [`AutoscalePolicy`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutoscaleSpec {
    /// Observation window, nanoseconds: the policy sees fleet load and
    /// may emit one action per window.
    pub window_ns: u64,
    /// Mean queued cycles per online chip above which the policy brings
    /// one reserve chip up.
    pub high_backlog_cycles: u64,
    /// Mean queued cycles per online chip below which a window counts
    /// toward scale-down.
    pub low_backlog_cycles: u64,
    /// Consecutive low windows required before draining a reserve chip
    /// — the hysteresis that keeps a square-wave load from flapping.
    pub scale_down_windows: u32,
    /// Windows the policy holds still after any action, letting the
    /// fleet absorb the change before re-evaluating.
    pub cooldown_windows: u32,
}

impl Default for AutoscaleSpec {
    /// A 1 ms window with scale-up at 20 ms and scale-down below 2 ms
    /// of queued work per chip (core cycles at ~1 GHz), three
    /// consecutive low windows to scale down, and a two-window
    /// cooldown.
    fn default() -> Self {
        Self {
            window_ns: 1_000_000,
            high_backlog_cycles: 20_000_000,
            low_backlog_cycles: 2_000_000,
            scale_down_windows: 3,
            cooldown_windows: 2,
        }
    }
}

impl AutoscaleSpec {
    /// The default threshold-hysteresis policy over this configuration.
    pub fn build(&self) -> ThresholdHysteresis {
        ThresholdHysteresis {
            spec: *self,
            cooldown: 0,
            low_streak: 0,
        }
    }
}

/// What an [`AutoscalePolicy`] observes each window: per-chip loads (the
/// same [`ChipLoad`] view routing sees), the shared-queue depth, and the
/// actionable bounds.
#[derive(Debug, Clone, Copy)]
pub struct FleetLoadView<'a> {
    /// Per-chip load snapshot for the whole roster; entries with
    /// [`ChipLoad::leaving`] set are draining or offline.
    pub loads: &'a [ChipLoad],
    /// Jobs waiting in the shared (unrouted) queue.
    pub shared_jobs: usize,
    /// Chips currently online, counting joins already in their
    /// weight-load delay (the policy must not re-order capacity that is
    /// already warming up).
    pub online: usize,
    /// Smallest online count the policy may target (the non-reserve
    /// roster — the autoscaler never drains scheduled capacity).
    pub min_online: usize,
    /// Largest online count the policy may target (non-reserve roster
    /// plus the full reserve).
    pub max_online: usize,
}

/// The autoscaler seam: observes fleet load once per window and returns
/// the online chip count it wants. The simulator applies the delta
/// against the reserve — bringing up the lowest-index offline reserve
/// chips (each paying its weight-load delay) or draining the
/// highest-index online ones. Policies are deterministic functions of
/// their observations, so autoscaled runs replay bit-for-bit.
pub trait AutoscalePolicy: std::fmt::Debug {
    /// Report label.
    fn name(&self) -> &'static str;

    /// Desired online chip count for the next window, clamped by the
    /// caller to `[view.min_online, view.max_online]`.
    fn target_online(&mut self, now: u64, view: FleetLoadView<'_>) -> usize;
}

/// The default [`AutoscalePolicy`]: scale up one chip when mean backlog
/// per online chip crosses the high threshold (or the shared queue runs
/// deeper than four jobs per chip), scale down one chip only after
/// [`AutoscaleSpec::scale_down_windows`] consecutive low windows, and
/// hold still for [`AutoscaleSpec::cooldown_windows`] after any action.
/// The asymmetry — eager up, reluctant down — is the hysteresis that
/// keeps an oscillating load from flapping the reserve.
#[derive(Debug, Clone)]
pub struct ThresholdHysteresis {
    spec: AutoscaleSpec,
    cooldown: u32,
    low_streak: u32,
}

impl AutoscalePolicy for ThresholdHysteresis {
    fn name(&self) -> &'static str {
        "threshold-hysteresis"
    }

    fn target_online(&mut self, _now: u64, view: FleetLoadView<'_>) -> usize {
        let online = view.online.max(view.min_online).max(1);
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return online;
        }
        let backlog: u64 = view
            .loads
            .iter()
            .filter(|l| !l.leaving)
            .map(|l| l.backlog_cycles())
            .sum();
        let pressure = backlog / online as u64;
        let high = pressure > self.spec.high_backlog_cycles || view.shared_jobs > 4 * online;
        let low = pressure < self.spec.low_backlog_cycles && view.shared_jobs <= online;
        if high {
            self.low_streak = 0;
            if online < view.max_online {
                self.cooldown = self.spec.cooldown_windows;
                return online + 1;
            }
            return online;
        }
        if low {
            self.low_streak += 1;
            if self.low_streak >= self.spec.scale_down_windows && online > view.min_online {
                self.low_streak = 0;
                self.cooldown = self.spec.cooldown_windows;
                return online - 1;
            }
            return online;
        }
        self.low_streak = 0;
        online
    }
}

/// Per-chip elasticity counters, folded into
/// [`ChipStats`](crate::metrics::ChipStats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ElasticChipStats {
    /// Cycles the chip spent online (in service or draining). A fixed
    /// fleet accrues the whole makespan on every chip; summed over the
    /// roster this is the chip-cycle cost an autoscaler economizes.
    pub online_cycles: u64,
    /// Cycles spent streaming model weights into HBM: join model-load
    /// delays plus cross-model placement swaps.
    pub weight_load_cycles: u64,
    /// Cross-model placements that had to swap the resident weight
    /// plane.
    pub model_swaps: u64,
    /// Completed departures (drains finished plus revocations executed).
    pub leaves: u64,
    /// Jobs an executed revocation displaced off this chip (residents
    /// evicted plus pinned queue entries migrated).
    pub revoked_jobs: u64,
    /// Times the chip came online from cold (scheduled joins plus
    /// autoscaler scale-ups).
    pub joins: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(backlog_cycles: u64) -> ChipLoad {
        ChipLoad {
            role: spatten_workloads::PoolRole::Flex,
            active: 0,
            kv_in_use: 0,
            kv_budget: 1 << 30,
            pending_jobs: if backlog_cycles > 0 { 1 } else { 0 },
            pending_cycles: backlog_cycles,
            pending_kv: 0,
            in_service_cycles: 0,
            recent_evictions: 0.0,
            leaving: false,
        }
    }

    fn view(loads: &[ChipLoad], online: usize, max: usize) -> FleetLoadView<'_> {
        FleetLoadView {
            loads,
            shared_jobs: 0,
            online,
            min_online: 1,
            max_online: max,
        }
    }

    #[test]
    fn seeded_schedules_are_deterministic_and_spare_chip_zero() {
        let a = FleetEvents::seeded(7, 8, 10_000_000);
        let b = FleetEvents::seeded(7, 8, 10_000_000);
        assert_eq!(a, b);
        assert!(a.leaves.iter().all(|l| l.chip != 0));
        assert!(a.leaves.iter().all(|l| l.at_ns < 10_000_000));
        // Different seeds give different schedules (with 7 coin flips
        // plus times, a collision would be astronomically unlucky).
        let c = FleetEvents::seeded(8, 8, 10_000_000);
        assert_ne!(a, c);
    }

    #[test]
    fn lowering_resolves_joins_and_reserve_after_the_base_roster() {
        let spec = ElasticSpec {
            events: FleetEvents {
                leaves: vec![ChipLeave {
                    chip: 1,
                    at_ns: 5,
                    mode: LeaveMode::Drain,
                }],
                joins: vec![ChipJoin {
                    chip_config: SpAttenConfig::default(),
                    at_ns: 9,
                }],
            },
            reserve: vec![SpAttenConfig::eighth(); 2],
            autoscale: Some(AutoscaleSpec::default()),
            models: None,
        };
        let sched = spec.lower(4);
        assert_eq!(sched.joins, vec![(4, 9)]);
        assert_eq!(sched.reserve, vec![5, 6]);
        assert_eq!(spec.extra_configs().len(), 3);
        assert!(!sched.is_static());
        assert!(ElasticSchedule::default().is_static());
    }

    #[test]
    fn hysteresis_scales_up_eagerly_and_down_reluctantly() {
        let spec = AutoscaleSpec::default();
        let mut policy = spec.build();
        // One hot window scales up immediately...
        let hot = vec![load(spec.high_backlog_cycles * 2); 2];
        assert_eq!(policy.target_online(0, view(&hot, 2, 4)), 3);
        // ...then cooldown holds even under continued heat.
        assert_eq!(policy.target_online(1, view(&hot, 3, 4)), 3);
        assert_eq!(policy.target_online(2, view(&hot, 3, 4)), 3);
        // Quiet windows must persist for scale_down_windows before one
        // chip drains.
        let quiet = vec![load(0); 3];
        for _ in 0..spec.scale_down_windows - 1 {
            assert_eq!(policy.target_online(3, view(&quiet, 3, 4)), 3);
        }
        assert_eq!(policy.target_online(4, view(&quiet, 3, 4)), 2);
    }

    #[test]
    fn hysteresis_does_not_flap_on_a_square_wave() {
        let spec = AutoscaleSpec::default();
        let mut policy = spec.build();
        let hot = vec![load(spec.high_backlog_cycles * 2); 4];
        let quiet = vec![load(0); 4];
        let mut online = 1;
        let mut targets = Vec::new();
        // A square wave alternating hot/quiet each window: scale-down
        // needs consecutive quiet windows, so the target never drops —
        // it ratchets up to the ceiling and stays.
        for tick in 0..20 {
            let loads = if tick % 2 == 0 { &hot } else { &quiet };
            online = policy.target_online(tick, view(loads, online, 4));
            targets.push(online);
        }
        assert!(targets.windows(2).all(|w| w[1] >= w[0]), "{targets:?}");
        assert_eq!(*targets.last().unwrap(), 4);
    }
}
