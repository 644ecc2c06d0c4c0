//! Fuzzing the artifact parsers: `trace_report` and `fleet_doctor` read
//! trace and metrics documents from disk, so hostile or damaged artifacts
//! must come back as errors or reports — never as panics.
//!
//! The seed artifacts are a real `fleet_scale --fast --health --energy
//! --steps 12` run rendered in memory (a short run keeps thousands of
//! trials cheap; it emits every event kind a full-length run does).  Each trial applies one mutation — substituting
//! a value (`NaN`, `inf`, `-1`, `1e400`, a string), truncating a line,
//! dropping a line — to either document, then feeds the pair to
//! `TraceReport::from_jsonl` and `DoctorReport::from_artifacts`, and
//! renders and cross-checks whatever parses.

use std::sync::OnceLock;

use proptest::prelude::*;

use heracles::bench::fleet_doctor::DoctorReport;
use heracles::bench::trace_report::TraceReport;
use heracles::fleet::{EnergyConfig, FleetConfig, FleetSim, PolicyKind, TelemetryConfig};
use heracles::hw::ServerConfig;

/// The substitute values a mutation writes over a field's value.
const SUBSTITUTES: [&str; 8] = ["NaN", "inf", "-inf", "-1", "1e400", "\"x\"", "", "0"];

/// The seed artifacts: (trace JSONL, metrics JSON) of a short health- and
/// energy-metered fast run, built once per test binary.
fn artifacts() -> &'static (String, String) {
    static ARTIFACTS: OnceLock<(String, String)> = OnceLock::new();
    ARTIFACTS.get_or_init(|| {
        let config = FleetConfig {
            telemetry: TelemetryConfig::with_health(),
            energy: EnergyConfig::metered(),
            steps: 12,
            ..FleetConfig::fast_test()
        };
        let policy = PolicyKind::LeastLoaded;
        let mut sim = FleetSim::new(config, ServerConfig::default_haswell(), policy);
        for _ in 0..config.steps {
            sim.step_once();
        }
        sim.emit_health_summary();
        sim.emit_energy_summary();
        let metrics = sim.metrics_json().expect("telemetry was enabled");
        let header = [
            ("policy", policy.name().to_string()),
            ("balancer", config.balancer.name().to_string()),
            ("seed", config.seed.to_string()),
            ("servers", config.servers.to_string()),
            ("steps", config.steps.to_string()),
            ("health", "on".to_string()),
        ];
        let trace = sim.take_telemetry().expect("telemetry was enabled").trace_jsonl(&header);
        (trace, metrics)
    })
}

/// One mutation: which document (0 = trace, 1 = metrics), what to do
/// (0–1 substitute a value, 2 truncate a line, 3 drop a line), where (a
/// fraction of the document's values or lines, and of the line's length),
/// and which substitute to write.
type Mutation = (usize, usize, f64, f64, usize);

/// `doc` with `mutation` applied.
fn mutate(doc: &str, (_, op, at, cut, value): Mutation) -> String {
    if op < 2 {
        // Substitute the value after one of the document's `:` separators,
        // chosen uniformly across the whole document so the many-field
        // lines (histograms, step events) are hit in proportion.
        let colons: Vec<usize> = doc.match_indices(':').map(|(i, _)| i + 1).collect();
        let Some(&start) = colons.get((at * colons.len() as f64) as usize) else {
            return doc.to_string();
        };
        let rest = &doc[start..];
        let end = start + rest.find([',', '}', '\n']).unwrap_or(rest.len());
        let value = SUBSTITUTES[value % SUBSTITUTES.len()];
        return format!("{} {value}{}", &doc[..start], &doc[end..]);
    }
    let mut lines: Vec<&str> = doc.lines().collect();
    if lines.is_empty() {
        return String::new();
    }
    let line = ((at * lines.len() as f64) as usize).min(lines.len() - 1);
    let truncated: String;
    if op == 2 {
        let chars = lines[line].chars().count();
        truncated = lines[line].chars().take((cut * chars as f64) as usize).collect();
        lines[line] = &truncated;
    } else {
        lines.remove(line);
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// Feeds one pair of documents through every report entry point.
fn exercise(trace: &str, metrics: &str) {
    if let Ok(report) = TraceReport::from_jsonl(trace) {
        let _ = report.render();
    }
    for metrics in [Some(metrics), None] {
        if let Ok(report) = DoctorReport::from_artifacts(trace, metrics) {
            let _ = report.render();
            let _ = report.cross_checks();
            let _ = report.energy_conservation();
        }
    }
}

proptest! {
    /// No mutation of the seed artifacts makes a parser, renderer or
    /// cross-check panic.  Each case runs its mutations as independent
    /// trials, each mutating one seed document once.
    #[test]
    fn mutated_artifacts_never_panic_the_report_tools(
        mutations in proptest::collection::vec(
            (0usize..2, 0usize..4, 0.0f64..1.0, 0.0f64..1.0, 0usize..8),
            16..32,
        ),
    ) {
        let (trace, metrics) = artifacts();
        for &m in &mutations {
            if m.0 == 0 {
                exercise(&mutate(trace, m), metrics);
            } else {
                exercise(trace, &mutate(metrics, m));
            }
        }
    }
}

/// The unmutated seed artifacts parse into complete reports — the fuzz
/// cases start from documents the tools accept.
#[test]
fn seed_artifacts_parse_cleanly() {
    let (trace, metrics) = artifacts();
    TraceReport::from_jsonl(trace).expect("the seed trace parses");
    let report = DoctorReport::from_artifacts(trace, Some(metrics)).expect("the seed parses");
    assert!(report.histogram.is_some() && report.phases.is_some());
    assert!(report.energy_conservation().is_some());
    assert!(report.cross_checks_ok() && report.energy_ok());
}
