//! Fleet-scale policy sweep: all four BE placement policies on the same
//! seeded job stream over a diurnally loaded websearch fleet, each server
//! defended by its own Heracles controller.
//!
//! By default the sweep runs twice — once over the homogeneous Haswell
//! fleet and once over a mixed-generation datacenter (Sandy-Bridge-class,
//! Haswell and Skylake-class boxes) — so the capacity-aware policies can be
//! compared on both; `--mix` pins a single blend instead.
//!
//! Reports per policy: core-weighted fleet EMU (mean/min), SLO violation
//! rate, jobs completed, BE core·seconds served, mean queueing delay (plus
//! the count of jobs still stranded in the queue at the end of the run —
//! survivors-only means flatter overloaded configs), preemptions and the
//! throughput/TCO gain over the uncolocated fleet — plus the single-server
//! Heracles baseline's violation rate as the bar the fleet must not
//! regress.
//!
//! With `--autoscale <static|reactive|predictive|energy-aware|all>` the
//! binary instead compares elastic fleets against the static baseline on
//! the same compressed-diurnal scenario and job stream: per autoscaler it
//! reports the time-varying fleet size, purchases/drains/migrations,
//! completed BE core·seconds, SLO-violation server-steps, queue-wait
//! percentiles, the amortized TCO bill and — the headline — TCO per
//! completed core·second relative to the static fleet.
//!
//! With `--energy` the fleet's energy plane meters per-leaf package power
//! into joule/dollar ledgers (a read-only shadow: results are bit-identical
//! with it off) and each row gains an energy line — fleet megajoules, the
//! energy bill at the configured tariff, the peak instantaneous watts and
//! joules per completed BE core·second.  `--power-cap W` additionally runs
//! the cluster under a package watt budget (per-leaf RAPL-style caps, BE
//! admission throttled first — a behavioral knob, not a shadow), and
//! `--energy-price <flat|peak|carbon|$/kWh>` picks the tariff curve the
//! joules are billed at (a bare number means a flat price at that $/kWh).
//!
//! With `--services websearch:0.5,memkeyval:0.3,ml_cluster:0.2` the fleet
//! serves a mixed LC catalog: each service owns an aggregate diurnal
//! demand curve (phase-spread across the cycle) that the traffic plane's
//! balancer (`--balancer capacity-weighted|slack-aware`) routes across its
//! leaves every step, conserving demand exactly — the per-service
//! routed-vs-offered audit is printed per row.
//!
//! With `--trace <path>` the binary instead runs a *single* policy (default
//! least-loaded, `--policy` to change; `--autoscale <kind>` for an elastic
//! run) with the telemetry plane enabled and writes the flight-recorder
//! trace as schema-validated JSONL; `--metrics <path>` also writes the
//! metrics-registry JSON.  `--health` additionally turns on the online
//! health plane (quantile sketches + burn-rate alerts — feed the
//! artifacts to `fleet_doctor`), `--recorder-capacity N` sizes the
//! flight-recorder ring (a loud warning is printed whenever the ring
//! overflowed and the trace is therefore partial).  `--telemetry-gate
//! <pct>` re-runs the same configuration untraced and fails (exit 1) if
//! tracing inflates per-step wall time by more than `pct` percent — the
//! zero-cost-when-disabled and cheap-when-enabled regression gate CI
//! runs.
//!
//! With `--sim-core <stepped|event>` the run is pinned to one server-plane
//! core: the stepped oracle simulates every leaf's every window in full,
//! the event-driven core fast-forwards provably steady leaves.
//! `--sim-core both` instead runs the same single-policy fleet on both
//! cores, prints their server-plane profiles and exits nonzero if any bit
//! of the results differs — the CI smoke for cross-core equivalence.
//! `--demand-hold N` holds each demand sample for N steps so fleets can
//! actually go steady between re-routes.
//!
//! Run with: `cargo run --release -p heracles_bench --bin fleet_scale --
//! [--fast] [--servers N] [--steps N] [--seed N] [--slots N]
//! [--mix homogeneous|mixed|O:N] [--services SPEC] [--balancer KIND]
//! [--autoscale POLICY] [--csv] [--trace PATH] [--metrics PATH]
//! [--health] [--recorder-capacity N] [--policy KIND]
//! [--telemetry-gate PCT] [--sim-core stepped|event|both]
//! [--demand-hold N] [--energy] [--power-cap W] [--energy-price KIND]`

use heracles_autoscale::{AutoscaleConfig, AutoscaleKind, ElasticFleet, GenerationMarket};
use heracles_bench::cli::Args;
use heracles_cluster::TcoModel;
use heracles_fleet::{
    single_server_baseline_violations, EnergyConfig, EnergyPriceSchedule, FleetConfig, FleetResult,
    FleetSim, GenerationMix, InterferenceModel, PhaseProfile, PolicyKind, SimCore, Telemetry,
    TelemetryConfig,
};
use heracles_hw::ServerConfig;
use heracles_telemetry::{validate_metrics_json, validate_trace_jsonl};
use heracles_workloads::ServiceMix;

/// The per-row energy line printed when the energy plane is metering:
/// fleet joules, the tariff bill, the peak instantaneous draw (against the
/// cap, when one is set) and the efficiency headline — joules per
/// completed BE core·second.
fn print_energy_line(result: &FleetResult, energy: &EnergyConfig) {
    let cap_note = energy.power_cap_w.map(|w| format!(" (cap {w:.0} W)")).unwrap_or_default();
    let per_core_s = result.joules_per_be_core_s();
    let efficiency =
        if per_core_s.is_finite() { format!(", {per_core_s:.1} J/core·s") } else { String::new() };
    println!(
        "  {:>18} energy: {:.2} MJ (${:.2} at PUE {:.1}), peak {:.0} W{cap_note}{efficiency}",
        "",
        result.total_energy_joules() / 1e6,
        result.total_energy_dollars(),
        energy.pue,
        result.max_peak_power_w(),
    );
}

fn sweep(config: FleetConfig, server: &ServerConfig, tco: &TcoModel, csv: bool) {
    let counts = config.mix.counts(config.servers);
    println!(
        "fleet mix: {} (sandy-bridge: {}, haswell: {}, skylake: {})",
        config.mix, counts[0], counts[1], counts[2]
    );
    println!("services: {} via {} balancing", config.services, config.balancer.name());
    println!(
        "{:<20} {:>8} {:>8} {:>7} {:>6} {:>10} {:>9} {:>8} {:>9} {:>9}",
        "policy",
        "EMU",
        "min EMU",
        "viol%",
        "jobs",
        "core.s",
        "delay s",
        "queued",
        "preempts",
        "TCO gain"
    );

    let mut mean_lc_load = 0.0;
    let mut total_cores = 0;
    for kind in PolicyKind::all() {
        let result = FleetSim::new(config, server.clone(), kind).run();
        mean_lc_load = result.mean_lc_load();
        total_cores = result.total_cores();
        let delay = result.queueing_delay();
        println!(
            "{:<20} {:>7.1}% {:>7.1}% {:>6.1}% {:>6} {:>10.0} {:>9.0} {:>8} {:>9} {:>8.1}%",
            result.policy,
            result.mean_fleet_emu() * 100.0,
            result.min_fleet_emu() * 100.0,
            result.slo_violation_fraction() * 100.0,
            result.jobs_completed(),
            result.be_core_s_served(),
            delay.mean_started_s,
            delay.censored,
            result.preemptions(),
            result.tco_improvement(tco) * 100.0
        );
        if config.energy.metering {
            print_energy_line(&result, &config.energy);
        }
        if config.services.active_services() > 1 {
            let by = result.violation_server_steps_by_service();
            println!(
                "  {:>18} routed==offered (max imbalance {:.2e}); violation server-steps: \
                 websearch {}, ml_cluster {}, memkeyval {}",
                "",
                result.max_routing_imbalance(),
                by[0],
                by[1],
                by[2]
            );
        }
        if csv {
            println!();
            print!("{}", result.to_csv());
            println!();
            // The job ledger includes censored jobs (still queued at the
            // end of the run) with their accrued wait — the step CSV alone
            // would hide the stranded tail.
            print!("{}", result.jobs_to_csv());
            println!();
        }
    }
    println!(
        "  ({} fleet cores; mean LC load without colocation: {:.1}%, core-weighted)",
        total_cores,
        mean_lc_load * 100.0
    );
    println!();
}

/// The elastic comparison: autoscaled fleets vs the static baseline on the
/// canonical compressed-diurnal scenario, judged in TCO per completed BE
/// core·second.
fn autoscale_sweep(config: FleetConfig, server: &ServerConfig, which: &str, csv: bool) {
    let kinds: Vec<AutoscaleKind> = if which == "all" {
        AutoscaleKind::all().to_vec()
    } else {
        match which.parse() {
            Ok(kind) => vec![kind],
            Err(e) => {
                eprintln!("invalid --autoscale value: {e} (or \"all\")");
                std::process::exit(2);
            }
        }
    };
    let scenario = AutoscaleConfig::diurnal(config);
    println!(
        "elastic scenario: {} servers initially ({}..={} allowed), {} steps compressed onto one \
         12 h diurnal cycle, migration cost {} core·s",
        scenario.fleet.servers,
        scenario.min_servers,
        scenario.max_servers,
        scenario.fleet.steps,
        scenario.migration_cost_core_s
    );
    println!(
        "{:<12} {:>8} {:>6} {:>7} {:>8} {:>8} {:>6} {:>10} {:>9} {:>9} {:>8} {:>11}",
        "autoscaler",
        "servers",
        "bought",
        "drained",
        "migrated",
        "requeued",
        "viol",
        "core.s",
        "p99 wait",
        "TCO $",
        "$/kcs",
        "vs static"
    );

    // The static baseline always runs first so the relative column has its
    // denominator.
    let mut static_tco_per = None;
    let baseline = AutoscaleKind::Static;
    for kind in std::iter::once(baseline).chain(kinds.iter().copied().filter(|&k| k != baseline)) {
        // Least-loaded placement: the elastic comparison is about *fleet
        // sizing*, and least-loaded's occupancy penalty spreads residents
        // across servers — which is also what makes consolidation drains
        // (migrate, retire) do real work in the valley.
        let mut elastic =
            ElasticFleet::new(scenario, server.clone(), PolicyKind::LeastLoaded, kind);
        if scenario.fleet.energy.metering {
            // Price the market's energy bill at the same tariff the meter
            // bills at, so "which generation?" and the joule ledgers agree.
            elastic = elastic.with_market(
                GenerationMarket::new(&scenario.fleet, server, InterferenceModel::from_scores([]))
                    .with_energy_config(&scenario.fleet.energy),
            );
        }
        let result = elastic.run();
        let fleet = &result.fleet;
        let per_kcs = fleet.tco_per_be_core_s() * 1_000.0;
        if kind == baseline {
            static_tco_per = Some(per_kcs);
        }
        let delta = static_tco_per
            .map(|s| format!("{:+.1}%", (per_kcs / s - 1.0) * 100.0))
            .unwrap_or_default();
        println!(
            "{:<12} {:>8.1} {:>6} {:>7} {:>8} {:>8} {:>6} {:>10.0} {:>8.0}s {:>9.2} {:>8.3} {:>11}",
            result.autoscaler,
            fleet.mean_in_service_servers(),
            result.scale_outs(),
            result.scale_ins(),
            result.drain_migrations(),
            result.drain_requeues(),
            fleet.violation_server_steps(),
            fleet.be_core_s_served(),
            fleet.queueing_delay().p99_started_s,
            fleet.total_tco_dollars(),
            per_kcs,
            delta
        );
        if scenario.fleet.energy.metering {
            print_energy_line(fleet, &scenario.fleet.energy);
        }
        if csv {
            println!();
            print!("{}", fleet.to_csv());
            println!();
        }
    }
    println!();
    println!("(identical seeded job stream per row; $/kcs is amortized TCO per 1000 completed");
    println!(" BE core·seconds — the autoscaler's whole mandate is the last two columns.)");
}

/// Runs `config` once under `policy` (elastically when `autoscale` names a
/// kind), returning the wall seconds the run took and, when traced, its
/// telemetry bundle with the run's phase profile.
fn timed_run(
    config: FleetConfig,
    server: &ServerConfig,
    policy: PolicyKind,
    autoscale: &str,
) -> (f64, Option<(Telemetry, PhaseProfile)>) {
    let started = std::time::Instant::now();
    let observed = if autoscale.is_empty() {
        let mut sim = FleetSim::new(config, server.clone(), policy);
        for _ in 0..config.steps {
            sim.step_once();
        }
        sim.emit_health_summary();
        sim.emit_energy_summary();
        sim.take_telemetry().map(|t| (t, *sim.profile()))
    } else {
        let kind: AutoscaleKind = autoscale.parse().unwrap_or_else(|e| {
            eprintln!("invalid --autoscale value for a traced run: {e}");
            std::process::exit(2);
        });
        let scenario = AutoscaleConfig::diurnal(config);
        let mut fleet = ElasticFleet::new(scenario, server.clone(), policy, kind);
        for _ in 0..scenario.fleet.steps {
            fleet.step_once();
        }
        fleet.emit_health_summary();
        fleet.emit_energy_summary();
        fleet.take_telemetry().map(|t| (t, *fleet.sim().profile()))
    };
    (started.elapsed().as_secs_f64(), observed)
}

/// The traced single-run mode behind `--trace`: runs once with the
/// telemetry plane on, schema-validates the artifacts, writes them to
/// disk, and optionally gates the tracing overhead against an untraced
/// run of the identical configuration.
#[allow(clippy::too_many_arguments)]
fn traced_run(
    config: FleetConfig,
    server: &ServerConfig,
    policy: PolicyKind,
    autoscale: &str,
    telemetry_cfg: TelemetryConfig,
    trace_path: &str,
    metrics_path: &str,
    gate_pct: f64,
) {
    let traced_cfg = FleetConfig { telemetry: telemetry_cfg, ..config };
    let (traced_wall, observed) = timed_run(traced_cfg, server, policy, autoscale);
    let (telemetry, profile) = observed.expect("telemetry was enabled");

    let mut header = vec![
        ("policy", policy.name().to_string()),
        ("balancer", config.balancer.name().to_string()),
        ("seed", config.seed.to_string()),
        ("servers", config.servers.to_string()),
        ("steps", config.steps.to_string()),
    ];
    if !autoscale.is_empty() {
        header.push(("autoscaler", autoscale.to_string()));
    }
    if telemetry_cfg.health {
        header.push(("health", "on".to_string()));
    }
    let trace_doc = telemetry.trace_jsonl(&header);
    if let Err(e) = validate_trace_jsonl(&trace_doc) {
        eprintln!("trace failed schema validation before writing: {e}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(trace_path, &trace_doc) {
        eprintln!("cannot write {trace_path}: {e}");
        std::process::exit(2);
    }
    println!(
        "trace: {} events ({} dropped) -> {trace_path}",
        telemetry.recorder.len(),
        telemetry.recorder.dropped()
    );
    if telemetry.recorder.dropped() > 0 {
        eprintln!(
            "WARNING: the flight recorder dropped {} events — the trace covers only the last \
             {} events of the run.  trace_report and fleet_doctor will mark event-derived \
             sections [PARTIAL]; re-run with a larger --recorder-capacity (currently {}) for \
             a lossless trace.",
            telemetry.recorder.dropped(),
            telemetry.recorder.len(),
            telemetry.recorder.capacity()
        );
    }
    if !metrics_path.is_empty() {
        let metrics_doc = telemetry.metrics_json_with_phases(&profile.phases(), profile.steps);
        if let Err(e) = validate_metrics_json(&metrics_doc) {
            eprintln!("metrics failed schema validation before writing: {e}");
            std::process::exit(1);
        }
        if let Err(e) = std::fs::write(metrics_path, &metrics_doc) {
            eprintln!("cannot write {metrics_path}: {e}");
            std::process::exit(2);
        }
        println!(
            "metrics: {} jobs placed, {} violation server-steps -> {metrics_path}",
            telemetry.metrics.counter("fleet.jobs_placed"),
            telemetry.metrics.counter("fleet.violation_server_steps"),
        );
    }

    if gate_pct > 0.0 {
        // Best-of-3 on each side to shave scheduler noise off the gate.
        let best = |cfg: FleetConfig| {
            (0..3)
                .map(|_| timed_run(cfg, server, policy, autoscale).0)
                .fold(f64::INFINITY, f64::min)
        };
        let traced_best = best(traced_cfg).min(traced_wall);
        let untraced_best = best(config);
        let overhead_pct = (traced_best / untraced_best - 1.0) * 100.0;
        println!(
            "telemetry overhead: traced {:.3}s vs untraced {:.3}s per run ({overhead_pct:+.1}%, \
             gate {gate_pct}%)",
            traced_best, untraced_best
        );
        if overhead_pct > gate_pct {
            eprintln!("telemetry overhead gate failed: {overhead_pct:.1}% > {gate_pct}%");
            std::process::exit(1);
        }
    }
}

/// The `--sim-core both` mode: runs the identical single-policy fleet on
/// the stepped oracle and the event-driven core, prints each core's
/// server-plane numbers, and exits nonzero if a single bit of the results
/// diverged — the CLI-grade version of the cross-core property tests, for
/// CI smoke on arbitrary flag combinations.
fn sim_core_diff(config: FleetConfig, server: &ServerConfig, policy: PolicyKind) {
    let run = |core: SimCore| {
        let cfg = FleetConfig { sim_core: core, ..config };
        let mut sim = FleetSim::new(cfg, server.clone(), policy);
        for _ in 0..cfg.steps {
            sim.step_once();
        }
        let profile = *sim.profile();
        (sim.into_result(), profile)
    };
    let (stepped, stepped_profile) = run(SimCore::Stepped);
    let (event, event_profile) = run(SimCore::EventDriven);
    for (core, p) in [("stepped", &stepped_profile), ("event", &event_profile)] {
        println!(
            "{core:>8}: server plane {:.3} ms/step, {} full + {} fast windows, \
             {:.1} leaves woken/step",
            p.per_step_ms(p.servers_s),
            p.full_windows,
            p.fast_windows,
            p.woken_per_step()
        );
    }
    let mut diffs = Vec::new();
    if stepped.steps != event.steps {
        diffs.push("per-step metrics");
    }
    if stepped.jobs != event.jobs {
        diffs.push("job ledger");
    }
    if stepped.events != event.events {
        diffs.push("event log");
    }
    if stepped.server_cores != event.server_cores {
        diffs.push("server core counts");
    }
    if stepped_profile.full_windows != event_profile.full_windows + event_profile.fast_windows {
        diffs.push("total windows simulated");
    }
    if diffs.is_empty() {
        println!(
            "sim-core diff: identical results across {} steps x {} servers",
            config.steps, config.servers
        );
    } else {
        eprintln!("sim-core diff FAILED: cores diverged on {}", diffs.join(", "));
        std::process::exit(1);
    }
}

fn main() {
    let args = Args::from_env();
    let base = if args.flag("--fast") { FleetConfig::fast_test() } else { FleetConfig::default() };
    // A multi-service catalog needs the run compressed onto the diurnal
    // cycle (service phases are the whole point); `fast_services` carries
    // the right compression for the fast shape.
    let base = if args.value("--services", ServiceMix::websearch_only()).active_services() > 1
        && args.flag("--fast")
    {
        FleetConfig::fast_services()
    } else {
        base
    };
    let sim_core_arg = args.value("--sim-core", String::new());
    // The energy-plane knobs: `--energy` turns on the metering shadow,
    // `--power-cap` (implies metering) runs under a cluster watt budget,
    // `--energy-price` picks the tariff (a named curve or a flat $/kWh).
    let energy = {
        let mut energy = base.energy;
        if args.flag("--energy") {
            energy.metering = true;
        }
        let cap_w = args.value("--power-cap", 0.0f64);
        if cap_w > 0.0 {
            energy.metering = true;
            energy.power_cap_w = Some(cap_w);
        }
        let price = args.value("--energy-price", String::new());
        match price.as_str() {
            "" | "flat" => {}
            "peak" => energy.price = EnergyPriceSchedule::business_peak(),
            "carbon" => {
                energy.price =
                    EnergyPriceSchedule::CarbonAware { base_per_kwh: 0.05, premium_per_kwh: 0.10 }
            }
            other => match other.parse::<f64>() {
                Ok(per_kwh) if per_kwh > 0.0 && per_kwh.is_finite() => {
                    energy.price = EnergyPriceSchedule::Flat { per_kwh }
                }
                _ => {
                    eprintln!(
                        "invalid --energy-price {other:?} (expected flat, peak, carbon or a \
                         positive $/kWh number)"
                    );
                    std::process::exit(2);
                }
            },
        }
        energy
    };
    let config = FleetConfig {
        energy,
        servers: args.value("--servers", base.servers),
        steps: args.value("--steps", base.steps),
        seed: args.value("--seed", base.seed),
        be_slots_per_server: args.value("--slots", base.be_slots_per_server),
        services: args.value("--services", base.services),
        balancer: args.value("--balancer", base.balancer),
        demand_hold_steps: args.value("--demand-hold", base.demand_hold_steps),
        sim_core: match sim_core_arg.as_str() {
            // `both` runs the diff mode below; everything else pins the core.
            "" | "both" => base.sim_core,
            other => other.parse::<SimCore>().unwrap_or_else(|e| {
                eprintln!("invalid --sim-core value: {e} (or \"both\")");
                std::process::exit(2);
            }),
        },
        ..base
    };
    if let Err(e) = config.validate() {
        eprintln!("invalid configuration: {e}");
        std::process::exit(2);
    }
    let server = ServerConfig::default_haswell();
    let tco = TcoModel::paper_case_study();

    if sim_core_arg == "both" {
        let config = FleetConfig { mix: args.value("--mix", config.mix), ..config };
        sim_core_diff(config, &server, args.value("--policy", PolicyKind::LeastLoaded));
        return;
    }

    let autoscale = args.value("--autoscale", String::new());
    let trace_path = args.value("--trace", String::new());
    let health = args.flag("--health");
    if health && trace_path.is_empty() {
        eprintln!("--health requires --trace (the health plane reports through the recorder)");
        std::process::exit(2);
    }
    if !trace_path.is_empty() {
        let config = FleetConfig { mix: args.value("--mix", config.mix), ..config };
        let telemetry_cfg = TelemetryConfig {
            enabled: true,
            health,
            trace_capacity: args
                .value("--recorder-capacity", TelemetryConfig::default().trace_capacity),
        };
        if let Err(e) = telemetry_cfg.validate() {
            eprintln!("invalid telemetry configuration: {e}");
            std::process::exit(2);
        }
        traced_run(
            config,
            &server,
            args.value("--policy", PolicyKind::LeastLoaded),
            &autoscale,
            telemetry_cfg,
            &trace_path,
            &args.value("--metrics", String::new()),
            args.value("--telemetry-gate", 0.0f64),
        );
        return;
    }
    if !autoscale.is_empty() {
        let config = FleetConfig { mix: args.value("--mix", config.mix), ..config };
        println!("Elastic fleet: autoscalers over per-server Heracles controllers");
        autoscale_sweep(config, &server, &autoscale, args.flag("--csv"));
        return;
    }

    println!("Fleet scheduler: BE job placement over per-server Heracles controllers");
    println!(
        "  servers: {}, BE slots/reference server: {}, steps: {}, windows/step: {}, seed: {}",
        config.servers,
        config.be_slots_per_server,
        config.steps,
        config.windows_per_step,
        config.seed
    );
    let baseline = single_server_baseline_violations(&config, &server);
    println!(
        "  single-server Heracles baseline: SLO violations in {:.1}% of steps",
        baseline * 100.0
    );
    println!();

    // With no --mix, sweep homogeneous and mixed back-to-back; with one,
    // run exactly the requested blend.
    let mixes: Vec<GenerationMix> =
        if args.flag("--mix") || !args.value("--mix", String::new()).is_empty() {
            vec![args.value("--mix", GenerationMix::homogeneous())]
        } else {
            vec![GenerationMix::homogeneous(), GenerationMix::mixed_datacenter()]
        };
    for mix in mixes {
        sweep(FleetConfig { mix, ..config }, &server, &tco, args.flag("--csv"));
    }
    println!("(every policy schedules the identical seeded job stream within a mix,");
    println!(" so rows are directly comparable; EMU and TCO are core-weighted.)");
}
