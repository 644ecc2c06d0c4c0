//! One episode: build a workload's fleet, step it to its horizon, finish,
//! and keep the timings, counters and digest the metrics are made from.

use std::time::Instant;

use heracles_fleet::FleetEventKind;
use heracles_workloads::{BeWorkload, LcKind};

use crate::digest::digest;
use crate::workload::{Arm, Fleet, Size, Workload};

/// Wall time and counters summed over an episode's measured steps.
#[derive(Debug, Default, Clone, Copy)]
pub struct Phases {
    /// Host seconds inside `step_once`.
    pub step_s: f64,
    /// Traffic-plane routing seconds.
    pub routing_s: f64,
    /// Dispatch seconds.
    pub dispatch_s: f64,
    /// Autoscaler signal-assembly seconds.
    pub signals_s: f64,
    /// Server-plane (parallel leaf stepping) seconds.
    pub servers_s: f64,
    /// Leaf-steps that ran at least one full window.
    pub woken: u64,
    /// Leaf-steps satisfied entirely by the fast path.
    pub quiescent: u64,
    /// Windows simulated in full.
    pub full: u64,
    /// Windows replayed by the fast path.
    pub fast: u64,
}

/// A leaf picked from a running fleet to drive the kernel arms: its cell,
/// its routed load and the BE job it hosts, if any.
#[derive(Debug, Clone)]
pub struct LeafSample {
    /// Hardware generation index.
    pub generation: usize,
    /// The LC service it serves.
    pub service: LcKind,
    /// Routed LC load.
    pub load: f64,
    /// The workload of its first resident BE job.
    pub be: Option<BeWorkload>,
}

/// Everything one episode leaves behind.
#[derive(Debug, Default)]
pub struct Episode {
    /// Host ms of each measured (post-warm-up) step.
    pub step_ms: Vec<f64>,
    /// Leaf-windows (full + fast) of each measured step.
    pub step_windows: Vec<u64>,
    /// Sums over the measured steps (control-plane split included only
    /// when the episode was traced).
    pub phases: Phases,
    /// Steps run.
    pub steps: usize,
    /// Digest of the finished result.
    pub digest: String,
    /// Mean fleet EMU of the result.
    pub fleet_emu: f64,
    /// SLO-violating server-steps of the result.
    pub violation_server_steps: usize,
    /// BE core-seconds served.
    pub be_core_s: f64,
    /// Jobs placed during the measured steps.
    pub placements: usize,
    /// Flight-recorder `(len, dropped)` when telemetry ran.
    pub recorder: Option<(usize, u64)>,
    /// Leaves sampled right after warm-up (when asked for).
    pub leaves: Vec<LeafSample>,
    /// In-service leaves right after warm-up.
    pub in_service: usize,
}

/// How many leaves the kernel arms sample from a fleet.
const LEAF_SAMPLES: usize = 16;

/// Runs one episode.  `traced` reads the control-plane profile around every
/// step for the phase split; `sample` records leaves for the kernel arms.
pub fn run(
    workload: Workload,
    seed: u64,
    size: Size,
    arm: &Arm,
    traced: bool,
    sample: bool,
) -> Episode {
    let mut fleet = workload.build(seed, size, arm);
    let mut ep = Episode::default();
    for i in 0..size.steps {
        let measured = i >= size.warmup;
        if i == size.warmup {
            ep.in_service = fleet.sim().store().servers().iter().filter(|s| s.in_service()).count();
            if sample {
                ep.leaves = sample_leaves(&fleet);
            }
        }
        let server_before = fleet.server_plane();
        let control_before = if traced { Some(fleet.control_plane()) } else { None };
        let t = Instant::now();
        fleet.step();
        let dt = t.elapsed().as_secs_f64();
        ep.steps += 1;
        if !measured {
            continue;
        }
        let server = fleet.server_plane();
        let p = &mut ep.phases;
        p.step_s += dt;
        p.servers_s += server.servers_s - server_before.servers_s;
        p.woken += server.woken_leaf_steps - server_before.woken_leaf_steps;
        p.quiescent += server.quiescent_leaf_steps - server_before.quiescent_leaf_steps;
        let full = server.full_windows - server_before.full_windows;
        let fast = server.fast_windows - server_before.fast_windows;
        p.full += full;
        p.fast += fast;
        if let Some(before) = control_before {
            let after = fleet.control_plane();
            p.routing_s += after.routing_s - before.routing_s;
            p.dispatch_s += after.dispatch_s - before.dispatch_s;
            p.signals_s += after.signals_s - before.signals_s;
        }
        ep.step_ms.push(dt * 1e3);
        ep.step_windows.push(full + fast);
    }
    ep.recorder = fleet.sim().telemetry().map(|t| (t.recorder.len(), t.recorder.dropped()));
    let result = fleet.finish();
    ep.digest = digest(&result);
    ep.fleet_emu = result.mean_fleet_emu();
    ep.violation_server_steps = result.violation_server_steps();
    ep.be_core_s = result.be_core_s_served();
    ep.placements = result
        .events
        .iter()
        .filter(|e| e.step >= size.warmup && e.kind == FleetEventKind::Placed)
        .count();
    ep
}

/// Up to [`LEAF_SAMPLES`] in-service leaves, evenly spaced by id.
fn sample_leaves(fleet: &Fleet) -> Vec<LeafSample> {
    let sim = fleet.sim();
    let live: Vec<_> = sim.store().servers().iter().filter(|s| s.in_service()).collect();
    let stride = live.len().div_ceil(LEAF_SAMPLES).max(1);
    live.iter()
        .step_by(stride)
        .map(|s| LeafSample {
            generation: s.generation,
            service: s.service,
            load: s.lc_load,
            be: s.resident.first().map(|&job| sim.job(job).workload.clone()),
        })
        .collect()
}
