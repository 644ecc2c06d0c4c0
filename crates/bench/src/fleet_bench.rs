//! The tracked fleet-size benchmark behind `BENCH_fleet.json`: per-step
//! cost and control-plane split of the sharded store + batched dispatch
//! scheduler, and per-step *server-plane* cost of the event-driven core
//! against the stepped oracle, swept over fleet sizes.
//!
//! The control-plane arm runs an elastic scenario — compressed-diurnal
//! mixed-service demand over a mixed-generation fleet with a Poisson job
//! stream scaled to fleet size, driven by the reactive autoscaler.  The
//! server-plane arms run a *steady* scenario (one held demand sample, no
//! job stream) where the event-driven core can actually quiesce leaves,
//! timed only after the controllers settle.  Every pair asserts its
//! [`FleetResult`]s are identical step for step, so every published
//! speedup is also an equivalence check.  The control-plane split and the
//! wake counts come from the fleet's one [`PhaseProfile`].
//!
//! Each point also carries an energy-metering overhead pair: the identical
//! elastic scenario with the [`heracles_fleet::EnergyMeter`] ledgers
//! installed vs off (best-of-three each arm, results asserted
//! bit-identical — the meter is a read-only shadow).  Full-mode artifacts
//! must hold the metered / unmetered ratio at or under
//! [`METERING_OVERHEAD_GATE`] at every sweep size.
//!
//! The report is hand-formatted JSON (the workspace deliberately vendors no
//! JSON serializer) with a matching [`validate_bench_json`] used by the CI
//! smoke step, so a malformed artifact fails fast instead of silently
//! drifting.

use std::time::Instant;

use heracles_autoscale::{AutoscaleConfig, AutoscaleKind, ElasticFleet};
use heracles_colo::ColoConfig;
use heracles_fleet::{
    BalancerKind, EnergyConfig, FleetConfig, FleetResult, FleetSim, GenerationMix, JobStreamConfig,
    PhaseProfile, PolicyKind, SimCore,
};
use heracles_hw::ServerConfig;
use heracles_workloads::ServiceMix;

/// Schema tag stamped into (and required from) every bench report.
pub const BENCH_SCHEMA: &str = "heracles-fleet-bench/v4";

/// The headline gate CI holds the committed artifact to: at the largest
/// full-mode sweep point, the event-driven server plane must step a steady
/// fleet at least this many times faster than the stepped oracle.
pub const SERVER_PLANE_SPEEDUP_GATE: f64 = 5.0;

/// Ceiling on the energy-metering overhead ratio (metered step wall time
/// over unmetered) a full-mode artifact may report at any sweep size: the
/// meter's ledgers must cost no more than 5% of the step.
pub const METERING_OVERHEAD_GATE: f64 = 1.05;

/// One measured sweep point: per-step wall-clock milliseconds of the
/// elastic scenario with its control-plane split, the steady-fleet server
/// plane on both sim cores, and the energy-metering overhead pair.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FleetSizePoint {
    /// Initial fleet size (the autoscaler may grow or shrink it mid-run).
    pub servers: usize,
    /// Steps each arm was driven for.
    pub steps: usize,
    /// Whole-step wall time of the elastic scenario, ms per step.
    pub step_ms: f64,
    /// Traffic-plane routing share of the step, ms.
    pub routing_ms: f64,
    /// Dispatch (queue take + round plan + placement) share, ms.
    pub dispatch_ms: f64,
    /// Autoscaler signal-assembly share, ms.
    pub signals_ms: f64,
    /// Routing + dispatch + signals, ms per step.
    pub control_plane_ms: f64,
    /// Server-plane (parallel leaf stepping) wall time of the event-driven
    /// core on the steady scenario, ms per measured step.
    pub server_plane_ms: f64,
    /// The stepped oracle's server-plane wall time on the identical steady
    /// scenario, ms per measured step.
    pub stepped_server_plane_ms: f64,
    /// `stepped_server_plane_ms / server_plane_ms`.
    pub server_plane_speedup: f64,
    /// Mean leaves woken (ran at least one full window) per measured step
    /// on the event-driven core.
    pub woken_leaves_per_step: f64,
    /// Whole-step wall time with the energy meter installed, ms per step
    /// (best of three runs).
    pub metered_step_ms: f64,
    /// Whole-step wall time of the identical scenario with metering off,
    /// ms per step (best of three runs).
    pub unmetered_step_ms: f64,
    /// `metered_step_ms / unmetered_step_ms` — the ratio
    /// [`METERING_OVERHEAD_GATE`] caps in full mode.
    pub metering_overhead: f64,
}

/// Builds the benchmark's elastic scenario: compressed-diurnal demand at
/// the given fleet size, with the energy meter's ledgers installed or not.
///
/// The colo plane is kept at a small request sample on purpose: this
/// benchmark tracks *scheduler* cost, and the per-leaf queueing simulation
/// would otherwise dominate wall time without exercising the control plane
/// at all.
pub fn bench_fleet(servers: usize, steps: usize, metering: bool) -> ElasticFleet {
    let base = FleetConfig {
        servers,
        steps,
        windows_per_step: 2,
        seed: 7,
        services: ServiceMix::mixed_frontend(),
        balancer: BalancerKind::SlackAware,
        mix: GenerationMix::mixed_datacenter(),
        energy: if metering { EnergyConfig::metered() } else { EnergyConfig::default() },
        colo: ColoConfig { requests_per_window: 40, ..ColoConfig::fast_test() },
        ..FleetConfig::default()
    };
    let config = AutoscaleConfig::diurnal(base);
    ElasticFleet::new(
        config,
        ServerConfig::default_haswell(),
        PolicyKind::LeastLoaded,
        AutoscaleKind::Reactive,
    )
}

/// Drives the unmetered elastic scenario to its horizon and returns its
/// phase profile and total wall seconds.
fn run_elastic(servers: usize, steps: usize) -> (PhaseProfile, f64) {
    let mut fleet = bench_fleet(servers, steps, false);
    let started = Instant::now();
    for _ in 0..steps {
        fleet.step_once();
    }
    (*fleet.sim().profile(), started.elapsed().as_secs_f64())
}

/// Measures the energy-metering overhead pair at one size: best-of-three
/// whole-run wall seconds for metered and unmetered arms on the identical
/// scenario, asserting bit-identical results (the meter is a read-only
/// shadow — any divergence is a correctness bug, not an overhead).
/// Returns `(metered_ms_per_step, unmetered_ms_per_step)`.
pub fn measure_metering_overhead(servers: usize, steps: usize) -> (f64, f64) {
    let mut walls = [f64::INFINITY; 2];
    let mut results: [Option<FleetResult>; 2] = [None, None];
    for _ in 0..3 {
        for (arm, metering) in [true, false].into_iter().enumerate() {
            let mut fleet = bench_fleet(servers, steps, metering);
            let started = Instant::now();
            for _ in 0..steps {
                fleet.step_once();
            }
            walls[arm] = walls[arm].min(started.elapsed().as_secs_f64());
            results[arm] = Some(fleet.finish().fleet);
        }
    }
    let metered = results[0].take().expect("three rounds ran");
    let unmetered = results[1].take().expect("three rounds ran");
    assert_eq!(
        metered.steps, unmetered.steps,
        "the energy meter perturbed the simulation (per-step metrics)"
    );
    assert_eq!(
        metered.jobs, unmetered.jobs,
        "the energy meter perturbed the simulation (job ledger)"
    );
    let per_step_ms = |seconds: f64| seconds * 1e3 / steps as f64;
    (per_step_ms(walls[0]), per_step_ms(walls[1]))
}

/// Warmup steps before the timed server-plane segment: the per-leaf
/// controllers keep nudging allocations for ~35 steps while they converge
/// on the held demand, and every nudge is a legitimate wake.  The timed
/// segment starts only after the fleet has provably gone quiescent.
const SERVER_PLANE_WARMUP: usize = 40;
/// Timed steps of the server-plane measurement.
const SERVER_PLANE_MEASURE: usize = 8;

/// Builds one server-plane benchmark arm: a static fleet under one held
/// demand sample (no BE job stream), so after the controllers settle every
/// leaf is provably steady and the event-driven core can quiesce it.  The
/// capacity-weighted balancer keeps per-leaf loads bit-constant across
/// steps, which is what makes the scenario a pure measurement of the two
/// cores' stepping cost rather than of re-certification churn.
fn server_plane_fleet(servers: usize, core: SimCore) -> FleetSim {
    let steps = SERVER_PLANE_WARMUP + SERVER_PLANE_MEASURE;
    let config = FleetConfig {
        servers,
        steps,
        windows_per_step: 2,
        seed: 7,
        services: ServiceMix::mixed_frontend(),
        balancer: BalancerKind::CapacityWeighted,
        mix: GenerationMix::mixed_datacenter(),
        sim_core: core,
        demand_hold_steps: steps,
        jobs: JobStreamConfig { arrivals_per_step: 0.0, ..JobStreamConfig::default() },
        colo: ColoConfig { requests_per_window: 40, ..ColoConfig::fast_test() },
        ..FleetConfig::default()
    };
    FleetSim::new(config, ServerConfig::default_haswell(), PolicyKind::LeastLoaded)
}

/// Server-plane cost of one core on the steady scenario: `(ms per measured
/// step, woken leaves per measured step, result)`.  Only the post-warmup
/// segment is timed.
fn run_server_plane_arm(servers: usize, core: SimCore) -> (f64, f64, FleetResult) {
    let mut sim = server_plane_fleet(servers, core);
    for _ in 0..SERVER_PLANE_WARMUP {
        sim.step_once();
    }
    let warm = *sim.profile();
    let started = Instant::now();
    for _ in 0..SERVER_PLANE_MEASURE {
        sim.step_once();
    }
    let wall_s = started.elapsed().as_secs_f64();
    let profile = *sim.profile();
    let woken =
        (profile.woken_leaf_steps - warm.woken_leaf_steps) as f64 / SERVER_PLANE_MEASURE as f64;
    (wall_s * 1e3 / SERVER_PLANE_MEASURE as f64, woken, sim.into_result())
}

/// Measures the steady-fleet server-plane pair at one size: the
/// event-driven core against the stepped oracle on the identical scenario,
/// asserting bit-identical results.  Returns `(event_ms, stepped_ms,
/// woken_leaves_per_step)`.
pub fn measure_server_plane(servers: usize) -> (f64, f64, f64) {
    let (event_ms, woken, event_result) = run_server_plane_arm(servers, SimCore::EventDriven);
    let (stepped_ms, _, stepped_result) = run_server_plane_arm(servers, SimCore::Stepped);
    assert_eq!(
        event_result.steps, stepped_result.steps,
        "event-driven core diverged from the stepped oracle (per-step metrics)"
    );
    assert_eq!(
        event_result.jobs, stepped_result.jobs,
        "event-driven core diverged from the stepped oracle (job ledger)"
    );
    (event_ms, stepped_ms, woken)
}

/// Measures one sweep point: runs the elastic scenario, then the steady
/// server-plane pair (event-driven vs stepped) and the metering pair at the
/// same size, and returns all per-step costs.
///
/// # Panics
///
/// Panics if any arm pair diverges — a regression in the equivalences the
/// property tests pin would surface here too, on fleets far larger than
/// proptest can afford.
pub fn measure_fleet_size(servers: usize, steps: usize) -> FleetSizePoint {
    let (profile, wall_s) = run_elastic(servers, steps);
    let (server_plane_ms, stepped_server_plane_ms, woken_leaves_per_step) =
        measure_server_plane(servers);
    let (metered_step_ms, unmetered_step_ms) = measure_metering_overhead(servers, steps);
    let per_step_ms = |seconds: f64| seconds * 1e3 / steps as f64;
    FleetSizePoint {
        servers,
        steps,
        step_ms: per_step_ms(wall_s),
        routing_ms: per_step_ms(profile.routing_s),
        dispatch_ms: per_step_ms(profile.dispatch_s),
        signals_ms: per_step_ms(profile.signals_s),
        control_plane_ms: per_step_ms(profile.routing_s + profile.dispatch_s + profile.signals_s),
        server_plane_ms,
        stepped_server_plane_ms,
        server_plane_speedup: stepped_server_plane_ms / server_plane_ms.max(1e-12),
        woken_leaves_per_step,
        metered_step_ms,
        unmetered_step_ms,
        metering_overhead: metered_step_ms / unmetered_step_ms.max(1e-12),
    }
}

impl FleetSizePoint {
    /// The point's report fields as `(key, value, decimals)`, in report
    /// order — the one list the writer and the validator share.
    fn fields(&self) -> [(&'static str, f64, usize); 14] {
        [
            ("servers", self.servers as f64, 0),
            ("steps", self.steps as f64, 0),
            ("step_ms", self.step_ms, 6),
            ("routing_ms", self.routing_ms, 6),
            ("dispatch_ms", self.dispatch_ms, 6),
            ("signals_ms", self.signals_ms, 6),
            ("control_plane_ms", self.control_plane_ms, 6),
            ("server_plane_ms", self.server_plane_ms, 6),
            ("stepped_server_plane_ms", self.stepped_server_plane_ms, 6),
            ("server_plane_speedup", self.server_plane_speedup, 3),
            ("woken_leaves_per_step", self.woken_leaves_per_step, 3),
            ("metered_step_ms", self.metered_step_ms, 6),
            ("unmetered_step_ms", self.unmetered_step_ms, 6),
            ("metering_overhead", self.metering_overhead, 3),
        ]
    }
}

/// Formats a sweep as the `BENCH_fleet.json` document.
pub fn bench_report_json(mode: &str, points: &[FleetSizePoint]) -> String {
    let mut out = format!(
        "{{\n  \"schema\": \"{BENCH_SCHEMA}\",\n  \"mode\": \"{mode}\",\n  \
         \"policy\": \"least-loaded\",\n  \"autoscaler\": \"reactive\",\n  \"results\": [\n"
    );
    for (i, p) in points.iter().enumerate() {
        let fields: Vec<String> = p
            .fields()
            .iter()
            .map(|(key, value, decimals)| format!("      \"{key}\": {value:.decimals$}"))
            .collect();
        let sep = if i + 1 == points.len() { "" } else { "," };
        out.push_str(&format!("    {{\n{}\n    }}{sep}\n", fields.join(",\n")));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Validates a `BENCH_fleet.json` document against the current schema: the
/// schema tag, a mode, at least one result entry, and every entry carrying
/// each required key with a parseable numeric value.  Hand-rolled because
/// the workspace vendors no JSON parser; the format is equally hand-rolled
/// ([`bench_report_json`]), so substring checks are exact, not heuristic.
pub fn validate_bench_json(doc: &str) -> Result<(), String> {
    if !doc.contains(&format!("\"schema\": \"{BENCH_SCHEMA}\"")) {
        return Err(format!("missing schema tag {BENCH_SCHEMA:?}"));
    }
    if !doc.contains("\"mode\": \"") {
        return Err("missing \"mode\" field".into());
    }
    let entries = doc.matches("\"servers\":").count();
    if entries == 0 {
        return Err("no result entries".into());
    }
    for (key, _, _) in FleetSizePoint::default().fields() {
        let found = scan_values(doc, key)?.len();
        if found != entries {
            return Err(format!("expected {entries} {key:?} entries, found {found}"));
        }
    }
    Ok(())
}

/// One numeric key's values across a bench document, in entry order.
fn scan_values(doc: &str, key: &str) -> Result<Vec<f64>, String> {
    let needle = format!("\"{key}\":");
    doc.match_indices(&needle)
        .map(|(pos, _)| {
            let rest = &doc[pos + needle.len()..];
            let value = rest[..rest.find([',', '}', '\n']).unwrap_or(rest.len())].trim();
            value.parse().map_err(|_| format!("key {key:?} has non-numeric value {value:?}"))
        })
        .collect()
}

/// The CI performance gate on a *full-mode* bench document: the largest
/// sweep point must report an event-driven server-plane speedup of at
/// least [`SERVER_PLANE_SPEEDUP_GATE`].  Fast/smoke documents pass
/// unconditionally — undersized sweeps on CI-grade machines measure noise,
/// and the gate exists to keep the *committed* full-mode artifact honest.
pub fn check_server_plane_gate(doc: &str) -> Result<(), String> {
    if !doc.contains("\"mode\": \"full\"") {
        return Ok(());
    }
    let servers = scan_values(doc, "servers")?;
    let speedups = scan_values(doc, "server_plane_speedup")?;
    if servers.len() != speedups.len() || servers.is_empty() {
        return Err("malformed document: servers/server_plane_speedup mismatch".into());
    }
    let (largest, speedup) = servers
        .iter()
        .zip(&speedups)
        .max_by(|a, b| a.0.total_cmp(b.0))
        .map(|(s, v)| (*s, *v))
        .expect("nonempty");
    if speedup < SERVER_PLANE_SPEEDUP_GATE {
        return Err(format!(
            "server-plane speedup gate failed: {speedup:.3}x at {largest} servers, \
             need >= {SERVER_PLANE_SPEEDUP_GATE}x"
        ));
    }
    Ok(())
}

/// The CI energy gate on a *full-mode* bench document: every sweep point
/// must report a metering overhead ratio at or under
/// [`METERING_OVERHEAD_GATE`] — the meter's ledgers may not cost more than
/// 5% of the step at any fleet size.  Fast/smoke documents pass
/// unconditionally, for the same reason as
/// [`check_server_plane_gate`].
pub fn check_metering_overhead_gate(doc: &str) -> Result<(), String> {
    if !doc.contains("\"mode\": \"full\"") {
        return Ok(());
    }
    let servers = scan_values(doc, "servers")?;
    let overheads = scan_values(doc, "metering_overhead")?;
    if servers.len() != overheads.len() || servers.is_empty() {
        return Err("malformed document: servers/metering_overhead mismatch".into());
    }
    for (s, o) in servers.iter().zip(&overheads) {
        if *o > METERING_OVERHEAD_GATE {
            return Err(format!(
                "metering overhead gate failed: {o:.3}x at {s} servers, \
                 need <= {METERING_OVERHEAD_GATE}x"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_point(servers: usize) -> FleetSizePoint {
        FleetSizePoint {
            servers,
            steps: 4,
            step_ms: 1.5,
            routing_ms: 0.2,
            dispatch_ms: 0.3,
            signals_ms: 0.1,
            control_plane_ms: 0.6,
            server_plane_ms: 0.4,
            stepped_server_plane_ms: 2.8,
            server_plane_speedup: 7.0,
            woken_leaves_per_step: 1.5,
            metered_step_ms: 1.52,
            unmetered_step_ms: 1.5,
            metering_overhead: 1.013,
        }
    }

    #[test]
    fn report_round_trips_the_validator() {
        let doc = bench_report_json("full", &[fake_point(100), fake_point(1_000)]);
        validate_bench_json(&doc).expect("generated report must validate");
        assert_eq!(doc.matches("\"servers\":").count(), 2);
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_bench_json("{}").is_err());
        let doc = bench_report_json("full", &[fake_point(100)]);
        assert!(validate_bench_json(&doc.replace("heracles-fleet-bench/v4", "v0")).is_err());
        assert!(validate_bench_json(&doc.replace("\"dispatch_ms\":", "\"elided\":")).is_err());
        assert!(validate_bench_json(&doc.replace("\"step_ms\": 1.500000", "\"step_ms\": oops"))
            .is_err());
        assert!(
            validate_bench_json(&doc.replace("\"server_plane_speedup\":", "\"gone\":")).is_err(),
            "a v1-shaped document without the server-plane keys must be rejected"
        );
        assert!(
            validate_bench_json(&doc.replace("\"metering_overhead\":", "\"gone\":")).is_err(),
            "a v2-shaped document without the energy keys must be rejected"
        );
    }

    #[test]
    fn metering_gate_caps_every_full_mode_entry() {
        let mut costly = fake_point(1_000);
        costly.metering_overhead = 1.09;
        let doc = bench_report_json("full", &[fake_point(100), costly, fake_point(10_000)]);
        assert!(
            check_metering_overhead_gate(&doc).is_err(),
            "1.09x at any size must fail the 1.05x gate"
        );
        let doc = bench_report_json("full", &[fake_point(100), fake_point(10_000)]);
        check_metering_overhead_gate(&doc).expect("1.013x everywhere passes");
        // Fast/smoke documents are exempt.
        let mut smoke = fake_point(32);
        smoke.metering_overhead = 2.0;
        let doc = bench_report_json("smoke", &[smoke]);
        check_metering_overhead_gate(&doc).expect("smoke sweeps are not gated");
    }

    #[test]
    fn server_plane_gate_holds_full_mode_to_the_headline() {
        let mut slow = fake_point(10_000);
        slow.server_plane_speedup = 3.0;
        let fast100 = fake_point(100);
        // Full mode: the *largest* entry decides, regardless of order.
        let doc = bench_report_json("full", &[fast100, slow]);
        assert!(check_server_plane_gate(&doc).is_err(), "3x at 10k must fail the 5x gate");
        let mut quick = fake_point(10_000);
        quick.server_plane_speedup = 6.2;
        let doc = bench_report_json("full", &[fast100, quick]);
        check_server_plane_gate(&doc).expect("6.2x at 10k passes");
        // Fast/smoke documents are exempt.
        let mut smoke = fake_point(32);
        smoke.server_plane_speedup = 0.9;
        let doc = bench_report_json("smoke", &[smoke]);
        check_server_plane_gate(&doc).expect("smoke sweeps are not gated");
    }

    #[test]
    fn tiny_sweep_measures_and_stays_equivalent() {
        // measure_fleet_size asserts event == stepped and metered ==
        // unmetered internally; a tiny fleet keeps this a unit test rather
        // than a benchmark.
        let point = measure_fleet_size(24, 3);
        assert_eq!(point.servers, 24);
        assert!(point.step_ms > 0.0);
        assert!(point.control_plane_ms > 0.0);
        assert!(point.server_plane_ms > 0.0);
        assert!(point.stepped_server_plane_ms > 0.0);
        assert!(
            point.woken_leaves_per_step < 24.0,
            "the settled steady fleet never quiesced a single leaf: {point:?}"
        );
        assert!(point.metered_step_ms > 0.0);
        assert!(point.unmetered_step_ms > 0.0);
        assert!(point.metering_overhead > 0.0);
        let doc = bench_report_json("smoke", &[point]);
        validate_bench_json(&doc).expect("smoke report must validate");
    }
}
