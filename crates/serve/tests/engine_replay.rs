//! Property harness for the resumable engine: any seeded trace replayed
//! through the [`FleetEngine`] step API — inject-everything-then-drain
//! *and* interleaved inject/`step_until` — must reproduce the offline
//! `simulate_fleet` report bit-for-bit, swept across the routing ×
//! stealing × preemption × pooling × elasticity scheduling surface.
//! A tallying [`TokenSink`] rides along on every run: attaching a sink
//! must not perturb the simulation, and the per-token events it sees
//! must conserve exactly the report's completed tokens and rejections.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use spatten_serve::{
    fleet_engine, ns_to_cycles, simulate_fleet, ChipLeave, ElasticSpec, FleetConfig, FleetEvents,
    LeaveMode, PolicyFleetEngine, PoolSpec, PreemptSpec, Rejection, RouteSpec, StealSpec,
    TokenEvent, TokenSink,
};
use spatten_workloads::{ArrivalSpec, Trace, TraceSpec};

/// The public constructor under test: [`fleet_engine`] performs the same
/// [`FleetConfig`] lowering as `simulate_fleet` (scheduled joins and the
/// reserve extend the roster past the base fleet), so a replayed trace
/// must be bit-identical to the offline entry point.
fn engine_for(cfg: &FleetConfig) -> PolicyFleetEngine {
    fleet_engine(cfg)
}

/// What a [`TokenSink`] saw over one run.
#[derive(Default)]
struct Tally {
    tokens: usize,
    done: usize,
    rejections: usize,
}

/// A sink that counts tokens, stream terminations and rejections into a
/// shared tally — the live front-end's consumption pattern, minus HTTP.
struct TallySink(Arc<Mutex<Tally>>);

impl TokenSink for TallySink {
    fn on_tokens(&mut self, ev: &TokenEvent) {
        let mut t = self.0.lock().unwrap();
        t.tokens += ev.count;
        t.done += usize::from(ev.done);
    }

    fn on_rejection(&mut self, _r: &Rejection) {
        self.0.lock().unwrap().rejections += 1;
    }
}

/// The two-tier mixed trace the elastic property harness uses.
fn tiered_trace(requests: usize, rate_rps: f64, seed: u64) -> Trace {
    let mut spec = TraceSpec::mixed(ArrivalSpec::OpenPoisson { rate_rps, requests }, seed);
    spec.classes[0] = spec.classes[0].clone().with_priority(3);
    spec.generate()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Replaying a seeded open trace through the step API — all requests
    /// injected up front, or each injected and stepped past in turn — is
    /// bit-identical to the offline wrapper across every router,
    /// stealing mode, preemption setting, pooling layout and seeded
    /// fault schedule; and the token seam conserves the report exactly.
    #[test]
    fn step_api_replay_is_bit_identical_to_the_offline_wrapper(
        requests in 40usize..120,
        rate in 500.0f64..4000.0,
        seed in 0u64..1000,
        fault_seed in 0u64..1000,
        route_pick in 0usize..6,
        steal_pick in 0usize..2,
        preempt_pick in 0usize..2,
        pools_pick in 0usize..2,
        elastic_pick in 0usize..2,
    ) {
        let route = [
            RouteSpec::FastestChip,
            RouteSpec::FastestStealAware,
            RouteSpec::ChurnAware,
            RouteSpec::LeastKvLoaded,
            RouteSpec::HashAffinity,
            RouteSpec::PoolAware,
        ][route_pick];
        let trace = tiered_trace(requests, rate, seed);
        let chips = 4;
        let mut cfg = FleetConfig::new(chips, spatten_serve::Policy::Priority);
        cfg.sched.route = route;
        cfg.sched.steal = [StealSpec::Off, StealSpec::CostliestFit][steal_pick];
        cfg.sched.preempt = [PreemptSpec::None, PreemptSpec::Priority][preempt_pick];
        if pools_pick == 1 {
            cfg.pools = Some(PoolSpec::split(1, 3));
        }
        if elastic_pick == 1 {
            let horizon_ns = (requests as f64 / rate * 1e9) as u64;
            cfg.elastic = Some(ElasticSpec {
                events: FleetEvents::seeded(fault_seed, chips, horizon_ns),
                ..ElasticSpec::default()
            });
        }
        let offline = simulate_fleet(&cfg, &trace);
        let Trace::Open { requests: reqs } = &trace else {
            unreachable!("tiered_trace is open-loop")
        };

        // Inject everything, then drain — with a tallying sink attached,
        // which must not perturb the simulation.
        let tally = Arc::new(Mutex::new(Tally::default()));
        let mut engine = engine_for(&cfg);
        engine.set_sink(Box::new(TallySink(tally.clone())));
        for r in reqs {
            engine.inject(r);
        }
        let all_at_once = engine.drain();
        prop_assert_eq!(&all_at_once, &offline);

        // Token-seam conservation: the sink saw every generated token
        // exactly once, one terminal event per completion, and every
        // rejection.
        let generated: usize = offline.completions.iter().map(|c| c.generated_tokens).sum();
        {
            let t = tally.lock().unwrap();
            prop_assert_eq!(t.tokens, generated);
            prop_assert_eq!(t.done, offline.completions.len());
            prop_assert_eq!(t.rejections, offline.rejections.len());
        }

        // Interleaved: inject each arrival, then step the engine up to
        // (but not past) it before offering the next — the live
        // front-end's pattern, where traffic and simulation advance in
        // lockstep.
        let mut engine = engine_for(&cfg);
        for r in reqs {
            let at = engine.inject(r);
            engine.step_until(at.saturating_sub(1));
        }
        let interleaved = engine.drain();
        prop_assert_eq!(&interleaved, &offline);
    }
}

/// Closed-loop traces flow through [`FleetEngine::load_closed`]: loading
/// the client population and draining must reproduce the offline report
/// bit-for-bit, and the engine must report itself idle afterwards only
/// via a fresh instance (drain consumes it).
#[test]
fn closed_loop_load_then_drain_matches_the_offline_wrapper() {
    let trace = TraceSpec::mixed(
        ArrivalSpec::ClosedLoop {
            clients: 6,
            think_s: 0.005,
            requests: 90,
        },
        29,
    )
    .generate();
    let mut cfg = FleetConfig::new(3, spatten_serve::Policy::ContinuousBatching);
    cfg.sched.route = RouteSpec::FastestChip;
    cfg.sched.steal = StealSpec::CostliestFit;
    let offline = simulate_fleet(&cfg, &trace);
    let Trace::Closed { clients, think_ns } = &trace else {
        unreachable!("closed-loop spec generates a closed trace")
    };
    let mut engine = engine_for(&cfg);
    engine.load_closed(clients, *think_ns);
    assert!(!engine.idle(), "a loaded engine has work pending");
    let report = engine.drain();
    assert_eq!(report, offline);
    assert_eq!(report.completed, 90);
}

/// Partial stepping is resumable: stepping an engine halfway through the
/// virtual timeline, observing its backlog, then draining the rest must
/// land on the identical report — pausing costs nothing.
#[test]
fn pausing_mid_run_does_not_perturb_the_timeline() {
    let trace = tiered_trace(80, 2000.0, 31);
    let mut cfg = FleetConfig::new(2, spatten_serve::Policy::Priority);
    cfg.sched.preempt = PreemptSpec::Priority;
    let offline = simulate_fleet(&cfg, &trace);
    let Trace::Open { requests: reqs } = &trace else {
        unreachable!()
    };
    let mut engine = engine_for(&cfg);
    let mut last = 0;
    for r in reqs {
        last = engine.inject(r);
    }
    // Step in uneven chunks across the arrival span, peeking at the
    // backlog between pauses (observation must be free).
    let mut upto = 0;
    while upto < last {
        upto += 1 + (last - upto) / 3;
        engine.step_until(upto);
        let _ = engine.backlog();
    }
    assert_eq!(engine.drain(), offline);
}

/// Steps `engine` dry, checking before every [`step`] that
/// [`next_event_time`] names exactly the time that step fires (read back
/// as [`now`]), and is `None` exactly when the step fires nothing.
/// Returns the number of events fired.
///
/// [`step`]: spatten_serve::FleetEngine::step
/// [`next_event_time`]: spatten_serve::FleetEngine::next_event_time
/// [`now`]: spatten_serve::FleetEngine::now
fn step_dry_checking_the_peek(engine: &mut PolicyFleetEngine) -> u64 {
    let mut fired = 0;
    loop {
        let peek = engine.next_event_time();
        let stepped = engine.step();
        assert_eq!(
            peek.is_some(),
            stepped,
            "peek {peek:?} after {fired} events"
        );
        if !stepped {
            return fired;
        }
        assert_eq!(peek, Some(engine.now()), "event {fired}");
        fired += 1;
    }
}

/// The peek a live loop sleeps on agrees with `step` on every event: an
/// open trace injected whole, a closed-loop trace (whose arrivals come
/// from completions), and an engine holding only an elastic leave, which
/// must be visible before anything is injected.
#[test]
fn next_event_time_names_the_event_step_fires() {
    let trace = tiered_trace(60, 3000.0, 41);
    let mut cfg = FleetConfig::new(3, spatten_serve::Policy::ContinuousBatching);
    cfg.sched.steal = StealSpec::CostliestFit;
    cfg.elastic = Some(ElasticSpec {
        events: FleetEvents::seeded(5, 3, 20_000_000),
        ..ElasticSpec::default()
    });
    let Trace::Open { requests } = &trace else {
        unreachable!("tiered_trace is open-loop")
    };
    let mut engine = engine_for(&cfg);
    for r in requests {
        engine.inject(r);
    }
    let fired = step_dry_checking_the_peek(&mut engine);
    assert_eq!(engine.drain(), simulate_fleet(&cfg, &trace));
    assert!(fired > requests.len() as u64, "{fired} events");

    let closed = TraceSpec::mixed(
        ArrivalSpec::ClosedLoop {
            clients: 4,
            think_s: 0.002,
            requests: 40,
        },
        43,
    )
    .generate();
    let cfg = FleetConfig::new(2, spatten_serve::Policy::ContinuousBatching);
    let Trace::Closed { clients, think_ns } = &closed else {
        unreachable!("closed-loop spec generates a closed trace")
    };
    let mut engine = engine_for(&cfg);
    engine.load_closed(clients, *think_ns);
    step_dry_checking_the_peek(&mut engine);
    assert_eq!(engine.drain(), simulate_fleet(&cfg, &closed));

    let mut cfg = FleetConfig::new(3, spatten_serve::Policy::SloAware);
    cfg.elastic = Some(ElasticSpec {
        events: FleetEvents {
            leaves: vec![ChipLeave {
                chip: 2,
                at_ns: 50_000_000,
                mode: LeaveMode::Drain,
            }],
            joins: vec![],
        },
        ..ElasticSpec::default()
    });
    let mut engine = engine_for(&cfg);
    let leave_at = ns_to_cycles(cfg.accel.clock_ghz, 50_000_000);
    assert_eq!(engine.next_event_time(), Some(leave_at));
    assert_eq!(step_dry_checking_the_peek(&mut engine), 1);
    assert_eq!(engine.online_chips(), 2);
}
