//! The fleet triage report behind the `fleet_doctor` binary.
//!
//! A doctor report answers "is this fleet healthy, and if not, where does
//! it hurt?" from the health plane's own artifacts.  It renders four
//! sections:
//!
//! * **SLO attainment by service** — the per-step `health`/`attainment`
//!   series as a sparkline per service, with mean and worst-step
//!   attainment,
//! * **alert timeline** — every `alert`/`firing` and `alert`/`resolved`
//!   transition the burn-rate engine emitted, in simulated-time order,
//! * **unhealthiest leaves** — the health plane's top-k leaves ranked by
//!   latency-sketch p99, from the end-of-run `health`/`leaf` summary,
//! * **sketch-vs-exact cross-check** — the per-step worst normalized
//!   latencies (available exactly, one per `fleet`/`step` event) replayed
//!   into a fresh [`QuantileSketch`] and compared against sorted
//!   exact quantiles; every estimate must land within the sketch's
//!   documented relative-error bound or the check (and the binary) fails.
//!   When a metrics document is present the `fleet.normalized_latency`
//!   histogram's interpolated quantiles are printed alongside as the
//!   coarser per-leaf view,
//! * **energy plane** (when the trace carries energy columns) — a
//!   per-generation package-watts sparkline, the top-k energy-hungriest
//!   leaves from the meter's end-of-run summary, and the
//!   joules-vs-∫watts conservation cross-check: each step's fleet joules
//!   must equal its per-generation watts decomposition integrated over
//!   the step, and (on a lossless trace) the meter's fleet ledger must
//!   equal the step column's sum.  A broken conservation identity fails
//!   the binary the same way a broken sketch bound does,
//! * **where step time went** (when a metrics document is present) — the
//!   document's `"phases"` section as milliseconds per step and each
//!   phase's share of the charged time, answering "why was this step
//!   slow?" from the artifacts alone.
//!
//! The report reads either artifacts on disk (`--trace`, `--metrics`) or a
//! live run: [`live_report`] runs a fleet with the health plane enabled,
//! renders its artifacts in memory and feeds them through the *same*
//! parser, so the two modes cannot drift apart.
//!
//! Like `trace_report`, a lossy trace (recorder drops > 0) renders its
//! event-derived sections explicitly as `[PARTIAL]` rather than presenting
//! a truncated view as the whole story.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use heracles_fleet::{FleetConfig, FleetSim, PolicyKind, TelemetryConfig};
use heracles_hw::ServerConfig;
use heracles_telemetry::{
    validate_trace_jsonl, Histogram, QuantileSketch, HISTOGRAM_BUCKET_BOUNDS, RELATIVE_ERROR,
};

use crate::trace_report::{field_f64, field_raw, field_str, field_u64};

/// One row of the unhealthiest-leaves table (a parsed `health`/`leaf`
/// summary event).
#[derive(Debug, Clone, PartialEq)]
pub struct LeafHealth {
    /// Placement-store server id.
    pub leaf: u64,
    /// Leaf-steps the sketches observed.
    pub count: u64,
    /// Median worst normalized window latency.
    pub lat_p50: f64,
    /// p99 worst normalized window latency — the ranking key.
    pub lat_p99: f64,
    /// p95 of full (not fast-forwarded) windows per step.
    pub wakes_p95: f64,
}

/// One quantile of the sketch-vs-exact cross-check.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileCheck {
    /// Display label ("p50", "p95", "p99").
    pub label: &'static str,
    /// The exact nearest-rank quantile from the sorted stream.
    pub exact: f64,
    /// The sketch's estimate for the same rank.
    pub sketch: f64,
    /// The matching interpolated quantile of the per-leaf
    /// `fleet.normalized_latency` histogram, when a metrics document was
    /// available.
    pub histogram: Option<f64>,
}

impl QuantileCheck {
    /// Relative error of the sketch estimate against the exact quantile.
    pub fn relative_error(&self) -> f64 {
        if self.exact == 0.0 {
            self.sketch.abs()
        } else {
            (self.sketch - self.exact).abs() / self.exact.abs()
        }
    }

    /// Whether the estimate honors the sketch's documented bound.
    pub fn ok(&self) -> bool {
        // A hair of slack over RELATIVE_ERROR covers the float rounding in
        // the bucket-index/representative round trip at bucket edges.
        self.relative_error() <= RELATIVE_ERROR * 1.01 + 1e-12
    }
}

/// Everything `fleet_doctor` parses out of one run's artifacts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DoctorReport {
    /// Where the artifacts came from ("trace artifacts" or "live run").
    pub source: String,
    /// Selected run metadata from the trace header, in display order.
    pub header: Vec<(String, String)>,
    /// Events the flight recorder evicted — nonzero makes event-derived
    /// sections `[PARTIAL]`.
    pub dropped: u64,
    /// Events retained in the trace.
    pub events: u64,
    /// Per-service SLO attainment series, time-ordered (one sample per
    /// step the service had in-service leaves).
    pub attainment: BTreeMap<String, Vec<f64>>,
    /// Alert transitions as `(sim seconds, rendered row)`.
    pub alerts: Vec<(f64, String)>,
    /// `alert`/`firing` transitions seen.
    pub alerts_fired: u64,
    /// `alert`/`resolved` transitions seen.
    pub alerts_resolved: u64,
    /// Top-k unhealthiest leaves from the latest `health`/`leaf` summary.
    pub leaves: Vec<LeafHealth>,
    /// Worst normalized latency per `fleet`/`step` event, in step order —
    /// the exactly-known stream the cross-check replays.
    pub step_latencies: Vec<f64>,
    /// The `fleet.normalized_latency` histogram from the metrics document.
    pub histogram: Option<Histogram>,
    /// Fleet joules per `fleet`/`step` event carrying energy columns, in
    /// step order.
    pub step_energy_j: Vec<f64>,
    /// Per-generation package watts per step event (same order and length
    /// as [`step_energy_j`](Self::step_energy_j)), indexed by generation.
    pub gen_watts: [Vec<f64>; 3],
    /// Sim timestamps of the energy-carrying step events (the ∫watts·dt
    /// step width is their common difference).
    pub step_times: Vec<f64>,
    /// Represented seconds each energy-carrying step averaged its watts
    /// over (`step_represented_s`), when the trace carries it: a
    /// time-compressed run's watts integrate over represented time, not
    /// over the raw sim timestamps.
    pub step_dt_s: Vec<f64>,
    /// The meter's end-of-run fleet ledger from the `energy`/`summary`
    /// event: (joules, dollars, conservation residual in joules).
    pub energy_summary: Option<(f64, f64, f64)>,
    /// Top-k energy-hungriest leaves from the latest `energy`/`top_leaf`
    /// snapshot: (server id, joules, dollars).
    pub energy_leaves: Vec<(u64, f64, f64)>,
    /// The metrics document's phase profile, when one was available.
    pub phases: Option<PhaseSection>,
}

/// The `"phases"` section of a metrics document: wall seconds per named
/// step phase, summed over `steps` steps.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseSection {
    /// `(phase, seconds)` in document order (the `_s` suffix stripped).
    pub phases: Vec<(String, f64)>,
    /// Steps the profile covers.
    pub steps: u64,
}

/// A metrics-document histogram the doctor refuses to read.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramError {
    /// The histogram's metric id.
    pub histogram: String,
    /// What is wrong with it.
    pub problem: String,
}

impl std::fmt::Display for HistogramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "histogram {}: {}", self.histogram, self.problem)
    }
}

impl std::error::Error for HistogramError {}

/// The joules-vs-∫watts conservation cross-check of the energy section.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyConservation {
    /// Worst per-step relative error between the fleet joules column and
    /// the per-generation watts decomposition integrated over the step.
    pub worst_step_rel_err: f64,
    /// Relative error between the meter's end-of-run fleet joules and the
    /// sum of the step column — `None` on a partial trace (evicted steps
    /// make the sum a suffix) or when no meter summary was emitted.
    pub meter_rel_err: Option<f64>,
    /// The meter's own fleet-vs-pools-vs-leaves residual, in joules,
    /// relative to the fleet total.
    pub ledger_residual_rel: Option<f64>,
}

impl EnergyConservation {
    /// The identities are exact up to float summation order and the trace's
    /// six-decimal field rounding; anything past this bound is a real
    /// conservation break.
    pub const BOUND: f64 = 1e-6;

    /// Whether every available identity holds within [`BOUND`](Self::BOUND).
    pub fn ok(&self) -> bool {
        self.worst_step_rel_err <= Self::BOUND
            && self.meter_rel_err.is_none_or(|e| e <= Self::BOUND)
            && self.ledger_residual_rel.is_none_or(|e| e <= Self::BOUND)
    }
}

impl DoctorReport {
    /// Parses a report from a trace document and an optional metrics
    /// document (both as written by `fleet_scale --trace/--metrics`).
    pub fn from_artifacts(trace: &str, metrics: Option<&str>) -> Result<DoctorReport, String> {
        validate_trace_jsonl(trace)?;
        let mut report = DoctorReport { source: "trace artifacts".into(), ..Default::default() };
        let mut lines = trace.lines();
        let header = lines.next().ok_or("empty trace document")?;
        report.dropped = field_u64(header, "dropped").ok_or("header lacks \"dropped\"")?;
        report.events = field_u64(header, "events").ok_or("header lacks \"events\"")?;
        for key in ["policy", "balancer", "autoscaler", "seed", "servers", "steps", "health"] {
            if let Some(value) = field_str(header, key) {
                report.header.push((key.to_string(), value));
            }
        }

        // The end-of-run summaries may be emitted more than once on resumed
        // runs; keep only the latest snapshot's leaf rows.
        let mut leaf_rows: Vec<(f64, LeafHealth)> = Vec::new();
        let mut energy_leaf_rows: Vec<(f64, (u64, f64, f64))> = Vec::new();
        for line in lines {
            let (Some(scope), Some(kind)) = (field_raw(line, "scope"), field_raw(line, "kind"))
            else {
                return Err(format!("trace line lacks scope/kind: {line}"));
            };
            let t = field_f64(line, "t").ok_or_else(|| format!("trace line lacks t: {line}"))?;
            match (scope, kind) {
                ("health", "attainment") => {
                    let service = field_str(line, "service")
                        .ok_or_else(|| format!("attainment event lacks service: {line}"))?;
                    let value = field_f64(line, "attainment")
                        .ok_or_else(|| format!("attainment event lacks attainment: {line}"))?;
                    report.attainment.entry(service).or_default().push(value);
                }
                ("alert", "firing") => {
                    report.alerts_fired += 1;
                    let alert = field_str(line, "alert").unwrap_or_default();
                    let cause = field_str(line, "cause").unwrap_or_default();
                    let fast = field_f64(line, "fast").unwrap_or(f64::NAN);
                    let slow = field_f64(line, "slow").unwrap_or(f64::NAN);
                    report.alerts.push((
                        t,
                        format!("FIRING   {alert} (fast {fast:.3}, slow {slow:.3}) — {cause}"),
                    ));
                }
                ("alert", "resolved") => {
                    report.alerts_resolved += 1;
                    let alert = field_str(line, "alert").unwrap_or_default();
                    let for_steps = field_u64(line, "for_steps").unwrap_or(0);
                    report.alerts.push((t, format!("resolved {alert} (after {for_steps} steps)")));
                }
                ("health", "leaf") => {
                    leaf_rows.push((
                        t,
                        LeafHealth {
                            leaf: field_u64(line, "leaf")
                                .ok_or_else(|| format!("leaf event lacks leaf: {line}"))?,
                            count: field_u64(line, "count").unwrap_or(0),
                            lat_p50: field_f64(line, "lat_p50").unwrap_or(0.0),
                            lat_p99: field_f64(line, "lat_p99").unwrap_or(0.0),
                            wakes_p95: field_f64(line, "wakes_p95").unwrap_or(0.0),
                        },
                    ));
                }
                ("fleet", "step") => {
                    if let Some(worst) = field_f64(line, "worst_normalized_latency") {
                        report.step_latencies.push(worst);
                    }
                    // Energy columns arrive together or not at all (older
                    // traces predate them); only a complete set keeps the
                    // per-step series aligned.
                    if let (Some(joules), Some(sb), Some(hw), Some(sk)) = (
                        field_f64(line, "energy_joules"),
                        field_f64(line, "watts_sandy_bridge"),
                        field_f64(line, "watts_haswell"),
                        field_f64(line, "watts_skylake"),
                    ) {
                        report.step_energy_j.push(joules);
                        report.gen_watts[0].push(sb);
                        report.gen_watts[1].push(hw);
                        report.gen_watts[2].push(sk);
                        report.step_times.push(t);
                        if let Some(dt) = field_f64(line, "step_represented_s") {
                            report.step_dt_s.push(dt);
                        }
                    }
                }
                ("energy", "summary") => {
                    report.energy_summary = Some((
                        field_f64(line, "fleet_joules")
                            .ok_or_else(|| format!("energy summary lacks fleet_joules: {line}"))?,
                        field_f64(line, "fleet_dollars").unwrap_or(0.0),
                        field_f64(line, "conservation_error_j").unwrap_or(0.0),
                    ));
                }
                ("energy", "top_leaf") => {
                    energy_leaf_rows.push((
                        t,
                        (
                            field_u64(line, "server")
                                .ok_or_else(|| format!("top_leaf event lacks server: {line}"))?,
                            field_f64(line, "joules").unwrap_or(0.0),
                            field_f64(line, "dollars").unwrap_or(0.0),
                        ),
                    ));
                }
                _ => {}
            }
        }
        let latest = leaf_rows.iter().map(|(t, _)| *t).fold(f64::NEG_INFINITY, f64::max);
        report.leaves =
            leaf_rows.into_iter().filter(|(t, _)| *t == latest).map(|(_, l)| l).collect();
        let latest_energy =
            energy_leaf_rows.iter().map(|(t, _)| *t).fold(f64::NEG_INFINITY, f64::max);
        report.energy_leaves = energy_leaf_rows
            .into_iter()
            .filter(|(t, _)| *t == latest_energy)
            .map(|(_, l)| l)
            .collect();

        if let Some(doc) = metrics {
            report.histogram =
                parse_histogram(doc, "fleet.normalized_latency").map_err(|e| e.to_string())?;
            report.phases = parse_phases(doc)?;
        }
        Ok(report)
    }

    /// Runs `config` under `policy` with the health plane enabled, renders
    /// the run's artifacts in memory and parses them through
    /// [`DoctorReport::from_artifacts`] — live mode exercises the exact
    /// artifact path, it is not a separate code path that can drift.
    pub fn live(
        config: FleetConfig,
        server: &ServerConfig,
        policy: PolicyKind,
    ) -> Result<DoctorReport, String> {
        let cfg = FleetConfig {
            telemetry: TelemetryConfig { enabled: true, health: true, ..config.telemetry },
            // Metering is a read-only shadow, so the live doctor always
            // turns it on: the energy section costs nothing but ledgers.
            energy: heracles_fleet::EnergyConfig { metering: true, ..config.energy },
            ..config
        };
        let mut sim = FleetSim::new(cfg, server.clone(), policy);
        for _ in 0..cfg.steps {
            sim.step_once();
        }
        sim.emit_health_summary();
        sim.emit_energy_summary();
        let metrics = sim.metrics_json().expect("telemetry was enabled");
        let telemetry = sim.take_telemetry().expect("telemetry was enabled");
        let header = [
            ("policy", policy.name().to_string()),
            ("balancer", cfg.balancer.name().to_string()),
            ("seed", cfg.seed.to_string()),
            ("servers", cfg.servers.to_string()),
            ("steps", cfg.steps.to_string()),
            ("health", "on".to_string()),
        ];
        let trace = telemetry.trace_jsonl(&header);
        let mut report = DoctorReport::from_artifacts(&trace, Some(&metrics))?;
        report.source = "live run".into();
        Ok(report)
    }

    /// True when the recorder evicted events and the event-derived
    /// sections therefore cover only a suffix of the run.
    pub fn is_partial(&self) -> bool {
        self.dropped > 0
    }

    fn partial_marker(&self) -> &'static str {
        if self.is_partial() {
            " [PARTIAL]"
        } else {
            ""
        }
    }

    /// The sketch-vs-exact cross-check rows for p50/p95/p99 of the
    /// per-step worst-latency stream.  Empty when the trace retained no
    /// step events.
    pub fn cross_checks(&self) -> Vec<QuantileCheck> {
        if self.step_latencies.is_empty() {
            return Vec::new();
        }
        let mut sketch = QuantileSketch::new();
        for &v in &self.step_latencies {
            sketch.observe(v);
        }
        let mut sorted = self.step_latencies.clone();
        sorted.sort_by(f64::total_cmp);
        [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)]
            .into_iter()
            .map(|(label, q)| {
                // The same nearest-rank definition the sketch documents.
                let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                QuantileCheck {
                    label,
                    exact: sorted[rank - 1],
                    sketch: sketch.quantile(q),
                    histogram: self.histogram.as_ref().map(|h| h.quantile(q)),
                }
            })
            .collect()
    }

    /// Whether every cross-check row honors the sketch's error bound.
    pub fn cross_checks_ok(&self) -> bool {
        self.cross_checks().iter().all(QuantileCheck::ok)
    }

    /// The energy-conservation cross-check, or `None` when the trace
    /// carries no energy columns.
    pub fn energy_conservation(&self) -> Option<EnergyConservation> {
        if self.step_energy_j.is_empty() {
            return None;
        }
        // Steps are uniform, so the step width is the common difference of
        // the step-event timestamps (a single retained step event sits at
        // the end of the run's first retained step).  Traces that carry
        // `step_represented_s` override this per step: a time-compressed
        // run's watts average over represented seconds, which the raw sim
        // timestamps undercount by the compression factor.
        let fallback_dt = if self.step_times.len() >= 2 {
            self.step_times[1] - self.step_times[0]
        } else {
            self.step_times[0]
        };
        let dt_at = |i: usize| {
            if self.step_dt_s.len() == self.step_energy_j.len() {
                self.step_dt_s[i]
            } else {
                fallback_dt
            }
        };
        let rel = |a: f64, b: f64| {
            if b.abs() > 0.0 {
                (a - b).abs() / b.abs()
            } else {
                a.abs()
            }
        };
        let worst_step_rel_err = (0..self.step_energy_j.len())
            .map(|i| {
                let integrated = self.gen_watts.iter().map(|w| w[i]).sum::<f64>() * dt_at(i);
                rel(integrated, self.step_energy_j[i])
            })
            .fold(0.0, f64::max);
        let meter_rel_err = match self.energy_summary {
            Some((joules, _, _)) if !self.is_partial() => {
                Some(rel(self.step_energy_j.iter().sum::<f64>(), joules))
            }
            _ => None,
        };
        let ledger_residual_rel =
            self.energy_summary.map(|(joules, _, residual)| rel(joules + residual, joules));
        Some(EnergyConservation { worst_step_rel_err, meter_rel_err, ledger_residual_rel })
    }

    /// Whether the energy section's conservation identities hold (trivially
    /// true when the trace has no energy columns).
    pub fn energy_ok(&self) -> bool {
        self.energy_conservation().is_none_or(|c| c.ok())
    }

    /// Renders the four-section triage report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "fleet_doctor triage report ({})", self.source);
        let meta: Vec<String> = self.header.iter().map(|(k, v)| format!("{k} {v}")).collect();
        let _ = writeln!(out, "  {} events retained, {}", self.events, meta.join(", "));
        if self.is_partial() {
            let _ = writeln!(
                out,
                "\nWARNING: the flight recorder dropped {} events (ring capacity exceeded).\n\
                 Event-derived sections below are marked [PARTIAL]; re-run with a larger\n\
                 --recorder-capacity for a lossless report.",
                self.dropped
            );
        }

        let marker = self.partial_marker();
        let _ = writeln!(out, "\nslo attainment by service{marker}");
        if self.attainment.is_empty() {
            let _ = writeln!(
                out,
                "  (no attainment events in the trace — was the run traced with --health?)"
            );
        }
        for (service, series) in &self.attainment {
            let mean = series.iter().sum::<f64>() / series.len() as f64;
            let worst = series.iter().copied().fold(f64::INFINITY, f64::min);
            let _ = writeln!(
                out,
                "  {service:<12} mean {:>6.2}%  worst-step {:>6.2}%  {}  ({} samples)",
                mean * 100.0,
                worst * 100.0,
                sparkline(series),
                series.len()
            );
        }

        let _ = writeln!(
            out,
            "\nalert timeline ({} fired, {} resolved){marker}",
            self.alerts_fired, self.alerts_resolved
        );
        if self.alerts.is_empty() {
            let _ = writeln!(out, "  (no alert transitions — every burn rate stayed in band)");
        }
        for (t, row) in &self.alerts {
            let _ = writeln!(out, "  t={t:>10.1}s  {row}");
        }

        let _ = writeln!(
            out,
            "\nunhealthiest leaves (top-{} by latency p99){marker}",
            self.leaves.len()
        );
        if self.leaves.is_empty() {
            let _ =
                writeln!(out, "  (no leaf summary in the trace — was emit_health_summary called?)");
        } else {
            let _ = writeln!(
                out,
                "  {:>6} {:>10} {:>9} {:>9} {:>10}",
                "leaf", "leaf-steps", "lat p50", "lat p99", "wakes p95"
            );
            for l in &self.leaves {
                let _ = writeln!(
                    out,
                    "  {:>6} {:>10} {:>9.3} {:>9.3} {:>10.1}",
                    l.leaf, l.count, l.lat_p50, l.lat_p99, l.wakes_p95
                );
            }
        }

        let checks = self.cross_checks();
        let _ = writeln!(
            out,
            "\nsketch-vs-exact cross-check (per-step worst normalized latency, {} steps){marker}",
            self.step_latencies.len()
        );
        if checks.is_empty() {
            let _ = writeln!(out, "  (no step events retained — nothing to cross-check)");
        } else {
            let _ = writeln!(
                out,
                "  {:>4} {:>10} {:>10} {:>8} {:>8}   verdict",
                "q", "exact", "sketch", "rel err", "bound"
            );
            for c in &checks {
                let _ = writeln!(
                    out,
                    "  {:>4} {:>10.4} {:>10.4} {:>7.3}% {:>7.1}%   {}",
                    c.label,
                    c.exact,
                    c.sketch,
                    c.relative_error() * 100.0,
                    RELATIVE_ERROR * 100.0,
                    if c.ok() { "ok" } else { "FAIL" }
                );
            }
            if let Some(h) = &self.histogram {
                let qs: Vec<String> = checks
                    .iter()
                    .filter_map(|c| c.histogram.map(|v| format!("{} {:.3}", c.label, v)))
                    .collect();
                let _ = writeln!(
                    out,
                    "  per-leaf histogram fleet.normalized_latency ({} obs): {}\n  \
                     (bucket-interpolated — error bounded by the 1-2-5 bucket width, not by {:.0}%)",
                    h.count,
                    qs.join(", "),
                    RELATIVE_ERROR * 100.0
                );
            }
        }

        let _ = writeln!(out, "\nenergy plane{marker}");
        match self.energy_conservation() {
            None => {
                let _ = writeln!(
                    out,
                    "  (no energy columns in the trace — run fleet_scale with --energy)"
                );
            }
            Some(conservation) => {
                if let Some((joules, dollars, residual)) = self.energy_summary {
                    let _ = writeln!(
                        out,
                        "  fleet energy: {:.2} MJ (${dollars:.2}), meter residual {residual:.3} J",
                        joules / 1e6
                    );
                }
                let _ = writeln!(out, "  package watts by generation:");
                for (name, series) in
                    ["sandy-bridge", "haswell", "skylake"].iter().zip(&self.gen_watts)
                {
                    let mean = series.iter().sum::<f64>() / series.len() as f64;
                    let _ =
                        writeln!(out, "    {name:<12} mean {mean:>8.0} W  {}", sparkline(series));
                }
                if !self.energy_leaves.is_empty() {
                    let _ = writeln!(
                        out,
                        "  energy-hungriest leaves (top-{}):",
                        self.energy_leaves.len()
                    );
                    let _ = writeln!(out, "    {:>6} {:>14} {:>10}", "leaf", "joules", "dollars");
                    for (leaf, joules, dollars) in &self.energy_leaves {
                        let _ = writeln!(out, "    {leaf:>6} {joules:>14.1} {dollars:>10.6}");
                    }
                }
                let meter_note = match conservation.meter_rel_err {
                    Some(e) => format!(", meter-vs-steps {e:.2e}"),
                    None => String::new(),
                };
                let _ = writeln!(
                    out,
                    "  joules-vs-∫watts cross-check: worst step rel err {:.2e}{meter_note} \
                     (bound {:.0e})   {}",
                    conservation.worst_step_rel_err,
                    EnergyConservation::BOUND,
                    if conservation.ok() { "ok" } else { "FAIL" }
                );
            }
        }

        let _ = writeln!(out, "\nwhere step time went");
        match &self.phases {
            None => {
                out.push_str("  (no metrics document — pass --metrics for the phase profile)\n")
            }
            Some(p) if p.steps == 0 => out.push_str("  (the profile covers no steps)\n"),
            Some(p) => {
                let total: f64 = p.phases.iter().map(|(_, s)| s).sum();
                let steps = p.steps as f64;
                let _ = writeln!(
                    out,
                    "  {} steps, {:.3} ms/step charged",
                    p.steps,
                    total * 1e3 / steps
                );
                for (name, seconds) in &p.phases {
                    let share = if total > 0.0 { seconds / total * 100.0 } else { 0.0 };
                    let ms = seconds * 1e3 / steps;
                    let _ = writeln!(out, "  {name:<10} {ms:>10.4} ms/step {share:>6.1}%");
                }
            }
        }
        out
    }
}

/// Renders a series as an 8-level sparkline, chunk-averaged down to at
/// most 60 glyphs, scaled to the series' own [min, max] (a flat series
/// renders mid-scale).
pub fn sparkline(series: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if series.is_empty() {
        return String::new();
    }
    let chunks = series.len().min(60);
    let lo = series.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = series.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (0..chunks)
        .map(|i| {
            let start = i * series.len() / chunks;
            let end = ((i + 1) * series.len() / chunks).max(start + 1);
            let mean = series[start..end].iter().sum::<f64>() / (end - start) as f64;
            if hi > lo {
                GLYPHS[(((mean - lo) / (hi - lo)) * 7.0).round() as usize]
            } else {
                GLYPHS[3]
            }
        })
        .collect()
}

/// Extracts the named histogram from a metrics JSON document (the
/// registry's one-line-per-histogram rendering), or `None` when the
/// document has no such histogram.  A histogram whose count is not a
/// non-negative integer, whose bounds are NaN or inverted, or whose
/// buckets do not sum to its count is rejected: its quantiles would be
/// meaningless (or, for bad bounds, panic).
pub fn parse_histogram(doc: &str, id: &str) -> Result<Option<Histogram>, HistogramError> {
    let needle = format!("\"{id}\":");
    let Some(line) = doc.lines().find(|l| l.trim_start().starts_with(&needle)) else {
        return Ok(None);
    };
    let reject = |problem: String| HistogramError { histogram: id.into(), problem };
    let raw = |key: &str| -> Result<&str, HistogramError> {
        let needle = format!("\"{key}\": ");
        let start =
            line.find(&needle).ok_or_else(|| reject(format!("lacks \"{key}\"")))? + needle.len();
        let rest = &line[start..];
        Ok(rest[..rest.find([',', '}']).unwrap_or(rest.len())].trim())
    };
    let num = |key: &str| -> Result<f64, HistogramError> {
        raw(key)?.parse().map_err(|e| reject(format!("{key}: {e}")))
    };
    let count_raw = raw("count")?;
    let count: u64 = count_raw
        .parse()
        .map_err(|_| reject(format!("count {count_raw:?} is not a non-negative integer")))?;
    let (min, max) = (num("min")?, num("max")?);
    if min.is_nan() || max.is_nan() || max < min {
        return Err(reject(format!("bounds min {min} / max {max} are not ordered numbers")));
    }
    let open = line.find("\"buckets\": [").ok_or_else(|| reject("lacks buckets".into()))?
        + "\"buckets\": [".len();
    let close = line[open..].find(']').ok_or_else(|| reject("buckets unterminated".into()))?;
    let mut buckets = [0u64; HISTOGRAM_BUCKET_BOUNDS.len() + 1];
    let mut n = 0;
    for part in line[open..open + close].split(',') {
        if n >= buckets.len() {
            return Err(reject("has too many buckets".into()));
        }
        buckets[n] = part.trim().parse().map_err(|e| reject(format!("bucket {n}: {e}")))?;
        n += 1;
    }
    if n != buckets.len() {
        return Err(reject(format!("has {n} buckets, expected {}", buckets.len())));
    }
    if buckets.iter().try_fold(0u64, |acc, &b| acc.checked_add(b)) != Some(count) {
        return Err(reject(format!("buckets do not sum to count {count}")));
    }
    Ok(Some(Histogram { count, sum: num("sum")?, min, max, buckets }))
}

/// Extracts the `"phases"` section of a metrics JSON document: every
/// `"<phase>_s": seconds` row and the `"steps"` count.  `None` when the
/// document has no such section; an error when a row is not a finite,
/// non-negative number of seconds or the step count is not an integer.
pub fn parse_phases(doc: &str) -> Result<Option<PhaseSection>, String> {
    let Some(start) = doc.find("\"phases\": {") else { return Ok(None) };
    let body = &doc[start + "\"phases\": {".len()..];
    let body = &body[..body.find('}').ok_or("metrics phases section unterminated")?];
    let (mut section, mut steps) = (PhaseSection::default(), None);
    for row in body.split(',').map(str::trim).filter(|r| !r.is_empty()) {
        let bad = || format!("metrics phases row {row:?} is neither a phase's seconds nor steps");
        let (key, value) = row.split_once(':').ok_or_else(bad)?;
        let (key, value) = (key.trim().trim_matches('"'), value.trim());
        if key == "steps" {
            steps = Some(value.parse::<u64>().map_err(|_| bad())?);
        } else {
            let phase = key.strip_suffix("_s").ok_or_else(bad)?;
            let seconds = value.parse::<f64>().ok().filter(|s| s.is_finite() && *s >= 0.0);
            section.phases.push((phase.to_string(), seconds.ok_or_else(bad)?));
        }
    }
    section.steps = steps.ok_or("metrics phases section lacks \"steps\"")?;
    Ok(Some(section))
}

#[cfg(test)]
mod tests {
    use super::*;
    use heracles_colo::ColoConfig;
    use heracles_workloads::ServiceMix;

    fn doctor_config() -> FleetConfig {
        FleetConfig {
            servers: 4,
            steps: 16,
            windows_per_step: 2,
            services: ServiceMix::websearch_only(),
            colo: ColoConfig { requests_per_window: 400, ..ColoConfig::fast_test() },
            ..FleetConfig::fast_test()
        }
    }

    #[test]
    fn live_report_covers_all_four_sections() {
        let report = DoctorReport::live(
            doctor_config(),
            &ServerConfig::default_haswell(),
            PolicyKind::LeastLoaded,
        )
        .expect("live run parses its own artifacts");
        assert_eq!(report.source, "live run");
        assert!(!report.attainment.is_empty(), "no attainment series");
        assert!(!report.leaves.is_empty(), "no leaf summary");
        assert_eq!(report.step_latencies.len(), 16);
        assert!(report.histogram.is_some(), "metrics histogram missing");
        let rendered = report.render();
        for section in [
            "slo attainment by service",
            "alert timeline",
            "unhealthiest leaves",
            "sketch-vs-exact cross-check",
        ] {
            assert!(rendered.contains(section), "missing section {section:?}:\n{rendered}");
        }
        assert!(!rendered.contains("[PARTIAL]"), "lossless run rendered partial");
    }

    #[test]
    fn cross_check_honors_the_sketch_bound_on_a_real_run() {
        let report = DoctorReport::live(
            doctor_config(),
            &ServerConfig::default_haswell(),
            PolicyKind::LeastLoaded,
        )
        .unwrap();
        let checks = report.cross_checks();
        assert_eq!(checks.len(), 3);
        for c in &checks {
            assert!(
                c.ok(),
                "{}: sketch {} vs exact {} (rel err {:.4}%)",
                c.label,
                c.sketch,
                c.exact,
                c.relative_error() * 100.0
            );
        }
        assert!(report.cross_checks_ok());
    }

    #[test]
    fn lossy_trace_marks_sections_partial() {
        let trace = "{\"schema\":\"heracles-trace/v1\",\"events\":1,\"dropped\":5,\"policy\":\"least-loaded\"}\n\
                     {\"t\":1.000000,\"scope\":\"fleet\",\"kind\":\"step\",\"step\":0,\"worst_normalized_latency\":0.900000}\n";
        let report = DoctorReport::from_artifacts(trace, None).unwrap();
        assert!(report.is_partial());
        let rendered = report.render();
        assert!(rendered.contains("WARNING: the flight recorder dropped 5 events"));
        assert!(rendered.contains("[PARTIAL]"));
    }

    #[test]
    fn histogram_round_trips_through_the_metrics_document() {
        let mut h = Histogram::default();
        for i in 1..=500 {
            h.observe(i as f64 * 0.01);
        }
        let mut m = heracles_telemetry::MetricsRegistry::new();
        for i in 1..=500 {
            m.observe("fleet.normalized_latency", i as f64 * 0.01);
        }
        let mut tel = heracles_telemetry::Telemetry::new(TelemetryConfig::enabled()).unwrap();
        tel.metrics = m;
        let doc = tel.metrics_json();
        let parsed = parse_histogram(&doc, "fleet.normalized_latency").unwrap().unwrap();
        assert_eq!(parsed.count, h.count);
        assert_eq!(parsed.buckets, h.buckets);
        assert!((parsed.quantile(0.95) - h.quantile(0.95)).abs() < 1e-9);
        assert_eq!(parse_histogram(&doc, "no.such.histogram").unwrap(), None);
    }

    /// A metrics document whose latency histogram holds 0.5, 1.0, 1.5 and
    /// whose phase profile covers four steps.
    fn small_metrics_doc() -> String {
        let mut tel = heracles_telemetry::Telemetry::new(TelemetryConfig::enabled()).unwrap();
        for v in [0.5, 1.0, 1.5] {
            tel.metrics.observe("fleet.normalized_latency", v);
        }
        tel.metrics_json_with_phases(&[("routing", 0.001), ("servers", 0.003)], 4)
    }

    fn parse_latency(doc: &str) -> Result<Option<Histogram>, HistogramError> {
        parse_histogram(doc, "fleet.normalized_latency")
    }

    #[test]
    fn histogram_with_a_nan_bound_is_rejected() {
        let doc = small_metrics_doc();
        assert!(parse_latency(&doc).unwrap().is_some());
        for bad in [
            doc.replace("\"min\": 0.500000", "\"min\": NaN"),
            doc.replace("\"max\": 1.500000", "\"max\": NaN"),
        ] {
            let err = parse_latency(&bad).unwrap_err();
            assert_eq!(err.histogram, "fleet.normalized_latency");
            assert!(err.problem.contains("not ordered numbers"), "{err}");
        }
    }

    #[test]
    fn histogram_with_max_below_min_is_rejected() {
        let bad = small_metrics_doc().replace("\"max\": 1.500000", "\"max\": 0.250000");
        let err = parse_latency(&bad).unwrap_err();
        assert_eq!(
            err.to_string(),
            "histogram fleet.normalized_latency: bounds min 0.5 / max 0.25 are not ordered numbers"
        );
        assert!(DoctorReport::from_artifacts(&minimal_trace(), Some(&bad)).is_err());
    }

    #[test]
    fn histogram_count_must_be_a_non_negative_integer() {
        let doc = small_metrics_doc();
        for value in ["2.5", "-1", "1e400", "NaN", "three"] {
            let bad = doc.replace("\"count\": 3", &format!("\"count\": {value}"));
            let err = parse_latency(&bad).unwrap_err();
            assert_eq!(err.histogram, "fleet.normalized_latency");
            assert!(err.problem.contains("not a non-negative integer"), "{value}: {err}");
        }
        let bad = doc.replace("\"count\": 3", "\"count\": 4");
        assert!(parse_latency(&bad).unwrap_err().problem.contains("do not sum to count 4"));
    }

    fn minimal_trace() -> String {
        "{\"schema\":\"heracles-trace/v1\",\"events\":1,\"dropped\":0}\n\
         {\"t\":1.000000,\"scope\":\"fleet\",\"kind\":\"step\",\"step\":0,\"worst_normalized_latency\":0.900000}\n"
            .to_string()
    }

    #[test]
    fn phase_section_shows_where_step_time_went() {
        let report = DoctorReport::from_artifacts(&minimal_trace(), Some(&small_metrics_doc()))
            .expect("artifacts parse");
        let phases = report.phases.as_ref().expect("phases parsed");
        assert_eq!(phases.steps, 4);
        assert_eq!(phases.phases, vec![("routing".into(), 0.001), ("servers".into(), 0.003)]);
        let rendered = report.render();
        assert!(rendered.contains("where step time went\n  4 steps, 1.000 ms/step charged"));
        assert!(rendered.contains("servers        0.7500 ms/step   75.0%"), "{rendered}");
        let doc = small_metrics_doc();
        for (from, to) in [
            ("\"servers_s\": 0.003000000", "\"servers_s\": NaN"),
            ("\"servers_s\": 0.003000000", "\"servers_s\": -1"),
            ("\"steps\": 4", "\"steps\": x"),
        ] {
            assert!(parse_phases(&doc.replace(from, to)).is_err(), "{to} accepted");
        }
        // Without a metrics document the section says where to get one.
        let bare = DoctorReport::from_artifacts(&minimal_trace(), None).unwrap();
        assert!(bare.render().contains("pass --metrics"));
    }

    #[test]
    fn live_report_profiles_every_step() {
        let report = DoctorReport::live(
            doctor_config(),
            &ServerConfig::default_haswell(),
            PolicyKind::LeastLoaded,
        )
        .unwrap();
        let phases = report.phases.expect("the live report carries the phase profile");
        assert_eq!(phases.steps, 16);
        assert!(phases.phases.iter().any(|(_, s)| *s > 0.0));
    }

    #[test]
    fn sparkline_is_bounded_and_scaled() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[1.0, 1.0, 1.0]).chars().count(), 3);
        let long: Vec<f64> = (0..500).map(|i| i as f64).collect();
        let s = sparkline(&long);
        assert_eq!(s.chars().count(), 60);
        assert!(s.starts_with('▁') && s.ends_with('█'));
    }
}
