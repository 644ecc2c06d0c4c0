//! The benchmark's self-test: every workload at tiny size, end-to-end and
//! traced, checked against `BENCHMARK.json` and against itself.
//!
//! Run with `cargo test --release --manifest-path fleetbench/Cargo.toml`.

use std::collections::BTreeSet;
use std::time::Instant;

use fleetbench::bench::{end_to_end, per_layer, Options, Outcome, SetupProbe};
use fleetbench::report::Json;
use fleetbench::workload::{Arm, Workload};
use fleetbench::DEV_SEED;

/// The metric names `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(items)) = doc.get(section) else { panic!("{section} is not a list") };
    items
        .iter()
        .map(|m| m.get("name").and_then(Json::str).expect("every metric has a name").to_string())
        .collect()
}

fn names(outcome: &Outcome) -> BTreeSet<String> {
    outcome.metrics.iter().map(|m| m.name.clone()).collect()
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome.metrics.iter().find(|m| m.name == name).unwrap_or_else(|| panic!("no {name}")).value
}

fn tiny(workload: Workload, seed: u64) -> Options {
    Options { workload, seed, seconds: 0.0, tiny: true, setup: SetupProbe::InProcess }
}

#[test]
fn every_workload_reports_the_declared_metrics_and_stays_deterministic() {
    let end_to_end_names = declared("end_to_end");
    let per_layer_names = declared("per_layer");
    let workloads: BTreeSet<String> = {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Some(Json::Arr(items)) = doc.get("workloads") else { panic!("no workloads") };
        items.iter().map(|w| w.get("name").and_then(Json::str).unwrap().to_string()).collect()
    };
    let ours: BTreeSet<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours, "BENCHMARK.json workloads");

    for workload in Workload::ALL {
        let e2e = end_to_end(&tiny(workload, DEV_SEED));
        assert!(e2e.correct(), "{}: {:?}", workload.name(), e2e.checks);
        assert_eq!(names(&e2e), end_to_end_names, "{} end-to-end names", workload.name());
        for m in &e2e.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {} = {}",
                workload.name(),
                m.name,
                m.value
            );
        }

        let traced = per_layer(&tiny(workload, DEV_SEED));
        assert!(traced.correct(), "{}: {:?}", workload.name(), traced.checks);
        assert_eq!(names(&traced), per_layer_names, "{} per-layer names", workload.name());
        for m in &traced.metrics {
            assert!(m.value.is_finite(), "{}: {} = {}", workload.name(), m.name, m.value);
        }

        // The named phases plus the remainder are the traced step, and no
        // named phase is negative or longer than the step: a phase charged
        // twice, or overlapping another, drives the remainder below zero.
        let step = value(&traced, "fleet.step_ms");
        let named =
            ["fleet.routing_ms", "fleet.dispatch_ms", "fleet.servers_ms", "autoscale.signals_ms"];
        for n in named {
            let v = value(&traced, n);
            assert!((0.0..=step).contains(&v), "{}: {n} = {v} vs step {step}", workload.name());
        }
        let rest = value(&traced, "fleet.rest_ms");
        assert!(rest >= 0.0, "{}: fleet.rest_ms = {rest}", workload.name());
        let parts = named.iter().map(|n| value(&traced, n)).sum::<f64>() + rest;
        assert!(
            (parts - step).abs() <= 1e-9 * step.max(1e-9),
            "{}: {parts} != {step}",
            workload.name()
        );

        // Same seed, same digest: across processes' worth of episodes, the
        // traced run, the flipped shadow planes and the stepped oracle.
        assert_eq!(e2e.digest, traced.digest, "{} digest", workload.name());
        let again = end_to_end(&tiny(workload, DEV_SEED));
        assert_eq!(again.digest, e2e.digest, "{} digest on a repeat", workload.name());
        let other = end_to_end(&tiny(workload, DEV_SEED + 1));
        assert!(other.correct());
        assert_ne!(other.digest, e2e.digest, "{}: the digest ignores the seed", workload.name());
    }
}

/// The split is checked one step at a time too: each step's profile deltas
/// against that step's own wall time, so a phase that double-charges or
/// overlaps another on any single step fails here even if the means hide it.
#[test]
fn each_steps_named_phases_fit_inside_its_wall_time() {
    for workload in Workload::ALL {
        let size = workload.size(true);
        let mut fleet = workload.build(DEV_SEED, size, &Arm::default());
        for step in 0..size.steps {
            let (control, server) = (fleet.control_plane(), fleet.server_plane());
            let t = Instant::now();
            fleet.step();
            let wall = t.elapsed().as_secs_f64();
            let (c, s) = (fleet.control_plane(), fleet.server_plane());
            let phases = [
                ("routing", c.routing_s - control.routing_s),
                ("dispatch", c.dispatch_s - control.dispatch_s),
                ("signals", c.signals_s - control.signals_s),
                ("servers", s.servers_s - server.servers_s),
            ];
            for (name, dt) in phases {
                assert!(dt >= 0.0, "{} step {step}: {name} = {dt} s", workload.name());
            }
            let named: f64 = phases.iter().map(|(_, dt)| dt).sum();
            assert!(
                named <= wall + 1e-9,
                "{} step {step}: named phases {named} s exceed the step's {wall} s ({phases:?})",
                workload.name()
            );
        }
    }
}
