//! The benchmark's named workloads and the one fleet handle that drives
//! them through the public simulator APIs.
//!
//! Every workload is a closed loop with one caller: `step_once` back to back
//! from a single process, on the event-driven core.  The simulator fans
//! each step out over its own `parallel_map_mut` workers; the benchmark
//! adds no threads.  A workload run is an *episode*: build the fleet, run a
//! fixed number of steps, finish.  The first `warmup` steps are excluded
//! from every step-time statistic.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use heracles_autoscale::{
    AutoscaleConfig, AutoscaleKind, AutoscalePolicy, ElasticFleet, ScaleAction, ScaleSignals,
};
use heracles_colo::ColoConfig;
use heracles_fleet::{
    BalancerKind, ControlPlaneProfile, EnergyConfig, FleetConfig, FleetResult, FleetSim,
    Generation, GenerationMix, JobStreamConfig, PolicyKind, ServerPlaneProfile, SimCore,
    TelemetryConfig,
};
use heracles_hw::ServerConfig;
use heracles_workloads::ServiceMix;

/// The benchmark's workloads, in reporting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The realistic elastic scenario at test-fidelity request counts: every
    /// leaf wakes every step, so the window kernel dominates.
    ElasticDiurnal,
    /// A static fleet under one held demand sample: the event core's best
    /// case, dominated by per-leaf orchestration once quiescent.
    SteadyFleet,
    /// The elastic loop at 40 requests per window with a heavy job stream,
    /// interference-aware placement, every shadow plane and a binding power
    /// cap: control plane and shadow planes beside a cheap kernel.
    ObservedChurn,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] =
        [Workload::ElasticDiurnal, Workload::SteadyFleet, Workload::ObservedChurn];

    /// The workload's name on the command line and in every output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ElasticDiurnal => "elastic_diurnal",
            Workload::SteadyFleet => "steady_fleet",
            Workload::ObservedChurn => "observed_churn",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL.into_iter().find(|w| w.name() == name).ok_or_else(|| {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload {name:?} (expected one of {})", names.join(", "))
        })
    }

    /// The episode shape at full (benchmark) or tiny (self-test) size.
    pub fn size(self, tiny: bool) -> Size {
        match (self, tiny) {
            (Workload::ElasticDiurnal, false) => {
                Size { servers: 256, steps: 48, warmup: 8, requests: 1_500 }
            }
            (Workload::SteadyFleet, false) => {
                Size { servers: 3_000, steps: 140, warmup: 50, requests: 40 }
            }
            (Workload::ObservedChurn, false) => {
                Size { servers: 1_500, steps: 48, warmup: 8, requests: 40 }
            }
            (Workload::ElasticDiurnal, true) => {
                Size { servers: 12, steps: 10, warmup: 2, requests: 300 }
            }
            (Workload::SteadyFleet, true) => {
                Size { servers: 24, steps: 44, warmup: 40, requests: 40 }
            }
            (Workload::ObservedChurn, true) => {
                Size { servers: 24, steps: 10, warmup: 2, requests: 40 }
            }
        }
    }

    /// True when the workload's own configuration runs the shadow planes
    /// (trace recorder, metrics, health, energy metering).
    pub fn shadows_by_default(self) -> bool {
        self == Workload::ObservedChurn
    }
}

/// One episode's shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Initial fleet size (the autoscaler may grow or shrink it).
    pub servers: usize,
    /// Steps per episode, warm-up included.
    pub steps: usize,
    /// Leading steps excluded from step-time statistics.
    pub warmup: usize,
    /// LC requests simulated per leaf window.
    pub requests: usize,
}

/// How one episode of a workload is built: the workload's own
/// configuration, optionally on the stepped oracle core, with the shadow
/// planes flipped, or with a timing decorator around the autoscaler.
#[derive(Clone, Default)]
pub struct Arm {
    /// Run the stepped oracle core instead of the event-driven core.
    pub stepped: bool,
    /// Flip the shadow planes relative to the workload's own setting.
    pub flip_shadows: bool,
    /// When set, the autoscaling policy is wrapped in a decorator that
    /// charges its `decide` calls here.
    pub decide_timer: Option<Arc<Mutex<DecideStats>>>,
}

/// Wall time and action counts of the autoscaler's `decide` calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct DecideStats {
    /// Calls observed.
    pub calls: u64,
    /// Total wall time inside `decide`.
    pub busy: Duration,
    /// Calls that returned anything but `Hold`.
    pub actions: u64,
}

/// An autoscaling policy decorator that times `decide`.
struct TimedAutoscaler {
    inner: Box<dyn AutoscalePolicy>,
    stats: Arc<Mutex<DecideStats>>,
}

impl AutoscalePolicy for TimedAutoscaler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, signals: &ScaleSignals) -> ScaleAction {
        let started = Instant::now();
        let action = self.inner.decide(signals);
        let busy = started.elapsed();
        let mut stats = self.stats.lock().expect("timer lock");
        stats.calls += 1;
        stats.busy += busy;
        stats.actions += u64::from(action != ScaleAction::Hold);
        action
    }
}

/// Package power budget of the `observed_churn` cap, as a fraction of the
/// initial fleet's summed TDP: tight enough that the coordinator assigns
/// per-leaf caps but loose enough that BE admission stays open (the
/// coordinator throttles it below 0.7).
const POWER_CAP_FRACTION: f64 = 0.85;

/// Job arrivals per step per initial server on `observed_churn` (the
/// diurnal scenario's own rate is 0.06).
const CHURN_ARRIVALS_PER_SERVER: f64 = 0.25;

impl Workload {
    /// The fleet configuration of one episode.
    fn fleet_config(self, seed: u64, size: Size, arm: &Arm) -> FleetConfig {
        let shadows = self.shadows_by_default() != arm.flip_shadows;
        let base = FleetConfig {
            servers: size.servers,
            steps: size.steps,
            windows_per_step: 2,
            seed,
            services: ServiceMix::mixed_frontend(),
            mix: GenerationMix::mixed_datacenter(),
            sim_core: if arm.stepped { SimCore::Stepped } else { SimCore::EventDriven },
            colo: ColoConfig { requests_per_window: size.requests, ..ColoConfig::fast_test() },
            telemetry: if shadows {
                TelemetryConfig::with_health()
            } else {
                TelemetryConfig::default()
            },
            energy: EnergyConfig { metering: shadows, ..EnergyConfig::default() },
            ..FleetConfig::default()
        };
        match self {
            Workload::ElasticDiurnal => FleetConfig { balancer: BalancerKind::SlackAware, ..base },
            Workload::SteadyFleet => FleetConfig {
                balancer: BalancerKind::CapacityWeighted,
                demand_hold_steps: size.steps,
                jobs: JobStreamConfig { arrivals_per_step: 0.0, ..JobStreamConfig::default() },
                ..base
            },
            Workload::ObservedChurn => {
                let baseline = ServerConfig::default_haswell();
                let tdp_w: f64 = base
                    .mix
                    .assignments(size.servers)
                    .into_iter()
                    .map(|g: Generation| g.server_config(&baseline).tdp_w())
                    .sum();
                FleetConfig {
                    balancer: BalancerKind::SlackAware,
                    energy: EnergyConfig {
                        power_cap_w: Some(POWER_CAP_FRACTION * tdp_w),
                        ..base.energy
                    },
                    ..base
                }
            }
        }
    }

    /// Builds one episode's fleet (the set-up the `setup_s` metric times).
    pub fn build(self, seed: u64, size: Size, arm: &Arm) -> Fleet {
        let config = self.fleet_config(seed, size, arm);
        let server = ServerConfig::default_haswell();
        let elastic = |config: FleetConfig, placement: PolicyKind, arrivals: Option<f64>| {
            let mut scenario = AutoscaleConfig::diurnal(config);
            if let Some(per_server) = arrivals {
                scenario.fleet.jobs.arrivals_per_step = per_server * size.servers as f64;
            }
            let mut fleet =
                ElasticFleet::new(scenario, server.clone(), placement, AutoscaleKind::Reactive);
            if let Some(stats) = &arm.decide_timer {
                fleet = fleet.with_autoscaler(Box::new(TimedAutoscaler {
                    inner: AutoscaleKind::Reactive.build(),
                    stats: Arc::clone(stats),
                }));
            }
            Fleet::Elastic(Box::new(fleet))
        };
        match self {
            Workload::ElasticDiurnal => elastic(config, PolicyKind::LeastLoaded, None),
            Workload::ObservedChurn => {
                elastic(config, PolicyKind::InterferenceAware, Some(CHURN_ARRIVALS_PER_SERVER))
            }
            Workload::SteadyFleet => {
                Fleet::Static(Box::new(FleetSim::new(config, server, PolicyKind::LeastLoaded)))
            }
        }
    }
}

/// A fleet under test: a static [`FleetSim`] or an autoscaled
/// [`ElasticFleet`].
pub enum Fleet {
    /// A fixed fleet.
    Static(Box<FleetSim>),
    /// A fleet under the elastic controller.
    Elastic(Box<ElasticFleet>),
}

impl Fleet {
    /// Runs one closed-loop step.
    pub fn step(&mut self) {
        match self {
            Fleet::Static(sim) => {
                sim.step_once();
            }
            Fleet::Elastic(fleet) => fleet.step_once(),
        }
    }

    /// The simulator (read-only).
    pub fn sim(&self) -> &FleetSim {
        match self {
            Fleet::Static(sim) => sim,
            Fleet::Elastic(fleet) => fleet.sim(),
        }
    }

    /// Cumulative control-plane wall time (routing, dispatch, signals).
    pub fn control_plane(&self) -> ControlPlaneProfile {
        *self.sim().control_plane_profile()
    }

    /// Cumulative server-plane wall time and window counters.
    pub fn server_plane(&self) -> ServerPlaneProfile {
        *self.sim().server_plane_profile()
    }

    /// Consumes the fleet into its result.
    pub fn finish(self) -> FleetResult {
        match self {
            Fleet::Static(sim) => sim.into_result(),
            Fleet::Elastic(fleet) => fleet.finish().fleet,
        }
    }
}
