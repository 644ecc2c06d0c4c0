//! Cross-core equivalence property tests for the server plane.
//!
//! The event-driven core ([`SimCore::EventDriven`]) is a pure wall-clock
//! optimization: steady leaves satisfy their measurement windows through
//! the `ColoRunner` fast path instead of re-simulating them, and a wake
//! scheduler attributes why each woken leaf stepped.  None of that may
//! change a single bit of the simulation's output — the stepped core is
//! kept as the oracle, and these tests pin the contract:
//!
//! * bit-identical `FleetResult`s (steps, jobs, events) across every
//!   placement policy and both load balancers,
//! * bit-identical results and scale-event logs under the elastic
//!   controller (drains, migrations, retirements all re-wake leaves),
//! * on a held-demand steady scenario the event core actually quiesces:
//!   fast-forwarded windows and quiescent leaf-steps are nonzero, while
//!   the stepped oracle reports every window as full.

use heracles::colo::ColoConfig;
use heracles::fleet::{
    BalancerKind, FleetConfig, FleetResult, FleetSim, JobStreamConfig, PhaseProfile, PolicyKind,
    SimCore,
};
use heracles::hw::ServerConfig;

fn base(balancer: BalancerKind, core: SimCore) -> FleetConfig {
    FleetConfig {
        servers: 5,
        steps: 12,
        windows_per_step: 2,
        balancer,
        sim_core: core,
        demand_hold_steps: 5,
        colo: ColoConfig { requests_per_window: 500, ..ColoConfig::fast_test() },
        jobs: JobStreamConfig { arrivals_per_step: 1.0, ..JobStreamConfig::default() },
        ..FleetConfig::fast_test()
    }
}

fn run_static(
    policy: PolicyKind,
    balancer: BalancerKind,
    core: SimCore,
) -> (FleetResult, PhaseProfile) {
    let cfg = base(balancer, core);
    let steps = cfg.steps;
    let mut sim = FleetSim::new(cfg, ServerConfig::default_haswell(), policy);
    for _ in 0..steps {
        sim.step_once();
    }
    let profile = *sim.profile();
    (sim.into_result(), profile)
}

fn assert_results_identical(a: &FleetResult, b: &FleetResult, label: &str) {
    assert_eq!(a.server_cores, b.server_cores, "{label}: server cores diverged");
    assert_eq!(a.steps, b.steps, "{label}: step records diverged");
    assert_eq!(a.jobs, b.jobs, "{label}: job ledgers diverged");
    assert_eq!(a.events, b.events, "{label}: event logs diverged");
}

#[test]
fn event_core_matches_stepped_oracle_across_policies_and_balancers() {
    let policies = [
        PolicyKind::Random,
        PolicyKind::FirstFit,
        PolicyKind::LeastLoaded,
        PolicyKind::InterferenceAware,
    ];
    let balancers = [BalancerKind::CapacityWeighted, BalancerKind::SlackAware];
    for policy in policies {
        for balancer in balancers {
            let (stepped, stepped_profile) = run_static(policy, balancer, SimCore::Stepped);
            let (event, event_profile) = run_static(policy, balancer, SimCore::EventDriven);
            let label = format!("{policy:?}/{balancer:?}");
            assert_results_identical(&stepped, &event, &label);
            // The oracle never fast-forwards; the event core never loses a
            // window — every window is accounted full or fast, and the
            // totals agree.
            assert_eq!(stepped_profile.fast_windows, 0, "{label}: oracle fast-forwarded");
            assert_eq!(
                stepped_profile.full_windows,
                event_profile.full_windows + event_profile.fast_windows,
                "{label}: the cores disagree on total windows simulated"
            );
        }
    }
}

#[test]
fn event_core_matches_stepped_oracle_under_elasticity() {
    use heracles::autoscale::{AutoscaleConfig, AutoscaleKind, ElasticFleet};

    let run = |core: SimCore| {
        let fleet =
            FleetConfig { steps: 14, demand_hold_steps: 3, ..base(BalancerKind::SlackAware, core) };
        let cfg = AutoscaleConfig::diurnal(fleet);
        let steps = cfg.fleet.steps;
        let mut elastic = ElasticFleet::new(
            cfg,
            ServerConfig::default_haswell(),
            PolicyKind::LeastLoaded,
            AutoscaleKind::Reactive,
        );
        for _ in 0..steps {
            elastic.step_once();
        }
        let profile = *elastic.sim().profile();
        (elastic.finish(), profile)
    };

    let (stepped, stepped_profile) = run(SimCore::Stepped);
    let (event, event_profile) = run(SimCore::EventDriven);
    assert_results_identical(&stepped.fleet, &event.fleet, "elastic reactive");
    assert_eq!(stepped.events, event.events, "elastic reactive: scale-event logs diverged");
    assert_eq!(stepped_profile.fast_windows, 0, "oracle fast-forwarded under elasticity");
    assert_eq!(
        stepped_profile.full_windows,
        event_profile.full_windows + event_profile.fast_windows,
        "the cores disagree on total windows under elasticity"
    );
}

#[test]
fn a_held_steady_fleet_actually_quiesces_on_the_event_core() {
    // Pure LC leaves under one held demand sample for the whole run: after
    // the SLO deque warms and the controller settles (which takes ~30
    // steps — the leaf controller keeps nudging allocations while it
    // converges, and every nudge is a legitimate wake), every remaining
    // window is provably unchanged and must go through the fast path.
    let quiet = |core: SimCore| FleetConfig {
        steps: 48,
        demand_hold_steps: 48,
        jobs: JobStreamConfig { arrivals_per_step: 0.0, ..JobStreamConfig::default() },
        ..base(BalancerKind::CapacityWeighted, core)
    };
    let run = |core: SimCore| {
        let cfg = quiet(core);
        let steps = cfg.steps;
        let mut sim = FleetSim::new(cfg, ServerConfig::default_haswell(), PolicyKind::FirstFit);
        for _ in 0..steps {
            sim.step_once();
        }
        let profile = *sim.profile();
        (sim.into_result(), profile)
    };

    let (stepped, stepped_profile) = run(SimCore::Stepped);
    let (event, event_profile) = run(SimCore::EventDriven);
    assert_results_identical(&stepped, &event, "quiet fleet");

    assert_eq!(event_profile.steps, 48);
    assert!(event_profile.fast_windows > 0, "no window was ever fast-forwarded");
    assert!(
        event_profile.quiescent_leaf_steps > 0,
        "no leaf-step ever quiesced: {event_profile:?}"
    );
    assert!(event_profile.woken_per_step() < 5.0, "every leaf woke every step: {event_profile:?}");
    // The oracle simulated everything in full, and both cores agree on the
    // total amount of simulated time.
    assert_eq!(stepped_profile.fast_windows, 0);
    assert_eq!(stepped_profile.quiescent_leaf_steps, 0);
    assert_eq!(
        stepped_profile.full_windows,
        event_profile.full_windows + event_profile.fast_windows
    );
}
