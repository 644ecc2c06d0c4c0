//! Fleet scheduler: cluster-wide BE job placement over per-server Heracles
//! controllers.
//!
//! The paper's cluster experiment (§5.3) hard-wires one BE task per leaf;
//! this crate asks the fleet-level question Heracles enables: given a stream
//! of best-effort jobs and a diurnally loaded LC fleet, where should the
//! work go, and how much machine utilization does the fleet recover?
//!
//! The subsystem follows the placement-store-plus-scheduler shape of cluster
//! managers:
//!
//! * [`job`] — the BE job model and the seeded arrival [`JobQueue`]: Poisson
//!   arrivals, bounded-Pareto core·second demands, workloads drawn from the
//!   paper's production or evaluation set,
//! * [`generation`] — hardware [`Generation`]s and the fleet's
//!   [`GenerationMix`]: real datacenters mix server generations, so
//!   placement has to reason about per-server capacity,
//! * [`traffic`] — the [`TrafficPlane`]: each LC service's aggregate
//!   diurnal demand (from a `ServiceCatalog`) is routed onto the
//!   in-service leaves every step by a pluggable [`LoadBalancer`]
//!   (capacity-weighted or slack-aware), conserving demand exactly — a
//!   retired leaf's share lands on the survivors as added load instead of
//!   silently evaporating,
//! * [`store`] — the [`PlacementStore`]: per-server capacity (cores, DRAM
//!   bandwidth, BE slots derived from core count, the (generation ×
//!   service) cell and its peak QPS) and BE slot occupancy plus the live
//!   signals the per-server Heracles controllers expose (LC load, latency
//!   slack, admission verdict, recent EMU),
//! * [`policy`] — pluggable [`PlacementPolicy`] implementations: Random,
//!   FirstFit, LeastLoaded and InterferenceAware (which consults the §3.2
//!   interference characterization, measured per (hardware generation, LC
//!   service) cell, to keep hostile antagonists away from near-knee LC
//!   services — iperf-like jobs off memkeyval leaves — and DRAM-hungry
//!   jobs on high-bandwidth boxes),
//! * [`fleet`] — the [`FleetSim`] discrete-time simulator: dispatch,
//!   parallel per-server stepping, job completion and preemption/requeue
//!   when a leaf's controller disables BE,
//! * `observe` — the shadow-plane observer: telemetry, the health plane
//!   and the energy meter watch each step phase through read-only views,
//! * [`metrics`] — [`FleetResult`]: BE throughput, queueing delay (with
//!   censored-job accounting), core-weighted fleet EMU, SLO violation rate
//!   and throughput/TCO via the paper's TCO model, plus the always-on
//!   [`PhaseProfile`] of each step's wall time.
//!
//! # Example
//!
//! ```
//! use heracles_fleet::{FleetConfig, FleetSim, PolicyKind};
//! use heracles_hw::ServerConfig;
//!
//! let config = FleetConfig {
//!     servers: 4,
//!     steps: 6,
//!     ..FleetConfig::fast_test()
//! };
//! let result = FleetSim::new(config, ServerConfig::default_haswell(), PolicyKind::FirstFit).run();
//! assert_eq!(result.steps.len(), 6);
//! assert!(result.mean_fleet_emu() >= result.mean_lc_load());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fleet;
pub mod generation;
pub mod job;
pub mod metrics;
mod observe;
pub mod policy;
pub mod store;
pub mod traffic;

pub use fleet::{single_server_baseline_violations, FleetConfig, FleetSim, SimCore};
pub use generation::{Generation, GenerationMix};
pub use heracles_energy::{
    hour_of_day, joules_to_dollars, CapPlan, EnergyConfig, EnergyLedger, EnergyMeter,
    EnergyPriceSchedule, PowerCapCoordinator,
};
pub use heracles_telemetry::{Telemetry, TelemetryConfig};
pub use job::{BeJob, JobId, JobMix, JobQueue, JobStreamConfig};
pub use metrics::{
    core_weighted_mean, server_step_tco_dollars, ControlPlaneProfile, FleetEvent, FleetEventKind,
    FleetResult, FleetStep, PhaseProfile, QueueingDelaySummary, ServerPlaneProfile,
    PLATFORM_COST_FLOOR, SECONDS_PER_YEAR,
};
pub use policy::{
    marginal_headroom_cores, FirstFit, InterferenceAware, InterferenceModel, LeastLoaded,
    PlacementPolicy, PolicyKind, RandomPlacement,
};
pub use store::{PlacementStore, PoolShard, ServerCapacity, ServerEntry, ServerId, ServerState};
pub use traffic::{
    BalancerKind, CapacityWeighted, LeafView, LoadBalancer, RoutingStep, SlackAware, TrafficPlane,
};
