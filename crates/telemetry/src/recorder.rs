//! The bounded flight recorder and the per-run telemetry bundle.

use std::collections::VecDeque;
use std::fmt::Write as _;

use crate::config::TelemetryConfig;
use crate::health::HealthPlane;
use crate::metrics::MetricsRegistry;
use crate::trace::{json_escape, TraceEvent};
use crate::validate::{METRICS_SCHEMA, TRACE_SCHEMA};

/// A bounded ring buffer of [`TraceEvent`]s.
///
/// Like an aircraft flight recorder it keeps the *most recent* history:
/// when full, the oldest event is dropped and counted, so a long run's
/// trace ends at the interesting end (the crash) rather than the take-off.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecorder {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events (at least one).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            events: VecDeque::with_capacity(capacity.min(1 << 12)),
            dropped: 0,
        }
    }

    /// Appends one event, evicting the oldest if the ring is full.
    pub fn record(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Appends every event from `iter` in order.
    pub fn extend(&mut self, iter: impl IntoIterator<Item = TraceEvent>) {
        for event in iter {
            self.record(event);
        }
    }

    /// The retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no event has been retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Renders the trace as a JSONL document: a schema/metadata header line
    /// followed by one line per retained event.  `header` carries run
    /// metadata (seed, policy, balancer), each rendered as a string field.
    pub fn to_jsonl(&self, header: &[(&'static str, String)]) -> String {
        let mut out = String::with_capacity(96 * (self.events.len() + 1));
        let _ = write!(
            out,
            "{{\"schema\":\"{TRACE_SCHEMA}\",\"events\":{},\"dropped\":{}",
            self.events.len(),
            self.dropped
        );
        for (key, value) in header {
            let _ = write!(out, ",\"{}\":\"{}\"", json_escape(key), json_escape(value));
        }
        out.push_str("}\n");
        for event in &self.events {
            out.push_str(&event.jsonl());
            out.push('\n');
        }
        out
    }

    /// Renders the trace as a CSV document (`time_s,scope,kind,fields`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time_s,scope,kind,fields\n");
        for event in &self.events {
            event.push_csv_row(&mut out);
        }
        out
    }
}

/// Everything one traced run collects: the flight recorder, the metrics
/// registry and the optional health plane.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Telemetry {
    /// The bounded decision-event ring.
    pub recorder: FlightRecorder,
    /// Counters, gauges, histograms.
    pub metrics: MetricsRegistry,
    /// The online health plane (sketches + alert engine), present only
    /// when [`TelemetryConfig::health`] asked for it.
    pub health: Option<HealthPlane>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(TelemetryConfig::default().trace_capacity)
    }
}

impl Telemetry {
    /// Builds the bundle for `config`, or `None` when telemetry is off.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`TelemetryConfig::validate`].
    pub fn new(config: TelemetryConfig) -> Option<Telemetry> {
        if let Err(e) = config.validate() {
            panic!("invalid telemetry configuration: {e}");
        }
        if !config.enabled {
            return None;
        }
        Some(Telemetry {
            recorder: FlightRecorder::new(config.trace_capacity),
            metrics: MetricsRegistry::new(),
            health: config.health.then(HealthPlane::new),
        })
    }

    /// The run's trace as a JSONL document (see [`FlightRecorder::to_jsonl`]).
    pub fn trace_jsonl(&self, header: &[(&'static str, String)]) -> String {
        self.recorder.to_jsonl(header)
    }

    /// The run's metrics as a JSON document with an empty `"phases"`
    /// section (see [`metrics_json_with_phases`](Self::metrics_json_with_phases)).
    pub fn metrics_json(&self) -> String {
        self.metrics_json_with_phases(&[], 0)
    }

    /// The run's metrics as a JSON document: sorted counters/gauges/
    /// histograms, the wall seconds of each named step phase over `steps`
    /// steps, and the recorder's retention stats.  Wall time is a
    /// diagnostic, never a result: it appears only in the `"phases"`
    /// section, which is exempt from the byte-identity guarantee.
    pub fn metrics_json_with_phases(&self, phases: &[(&str, f64)], steps: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{\n  \"schema\": \"{METRICS_SCHEMA}\",");
        out.push_str(&self.metrics.to_json_sections());
        out.push_str("  \"phases\": {");
        for (name, seconds) in phases {
            let _ = write!(out, "\n    \"{name}_s\": {seconds:.9},");
        }
        let _ = writeln!(out, "\n    \"steps\": {steps}\n  }},");
        let _ = writeln!(out, "  \"trace_events\": {},", self.recorder.len());
        let _ = writeln!(out, "  \"trace_dropped\": {}", self.recorder.dropped());
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{validate_metrics_json, validate_trace_jsonl};
    use heracles_sim::SimTime;

    fn event(secs: u64) -> TraceEvent {
        TraceEvent::new(SimTime::from_secs(secs), "test", "tick").u64("n", secs)
    }

    #[test]
    fn ring_keeps_the_most_recent_events() {
        let mut rec = FlightRecorder::new(3);
        rec.extend((0..5).map(event));
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.dropped(), 2);
        let first = rec.iter().next().unwrap();
        assert_eq!(first.time(), SimTime::from_secs(2));
    }

    #[test]
    fn capacity_is_clamped_to_at_least_one() {
        let rec = FlightRecorder::new(0);
        assert_eq!(rec.capacity(), 1);
    }

    #[test]
    fn disabled_config_builds_no_bundle() {
        assert!(Telemetry::new(TelemetryConfig::default()).is_none());
        assert!(Telemetry::new(TelemetryConfig::enabled()).is_some());
    }

    #[test]
    #[should_panic(expected = "invalid telemetry configuration")]
    fn invalid_config_is_rejected() {
        Telemetry::new(TelemetryConfig {
            enabled: true,
            trace_capacity: 0,
            ..TelemetryConfig::default()
        });
    }

    #[test]
    fn jsonl_and_metrics_documents_validate() {
        let mut tel = Telemetry::new(TelemetryConfig::enabled()).unwrap();
        tel.recorder.extend((0..4).map(event));
        tel.metrics.inc("test.ticks");
        tel.metrics.observe("test.n", 2.0);
        let trace = tel.trace_jsonl(&[("seed", "7".into())]);
        validate_trace_jsonl(&trace).unwrap();
        assert!(trace.starts_with(&format!("{{\"schema\":\"{TRACE_SCHEMA}\"")));
        assert!(trace.contains("\"seed\":\"7\""));
        assert_eq!(trace.lines().count(), 5);
        let metrics = tel.metrics_json_with_phases(&[("routing", 0.001)], 1);
        validate_metrics_json(&metrics).unwrap();
        assert!(metrics.contains("\"test.ticks\": 1"));
        assert!(metrics.contains("\"routing_s\": 0.001000000,"));
        assert!(metrics.contains("\"steps\": 1\n"));
        validate_metrics_json(&tel.metrics_json()).unwrap();
    }

    #[test]
    fn csv_sink_renders_one_row_per_event() {
        let mut rec = FlightRecorder::new(8);
        rec.extend((0..2).map(event));
        let csv = rec.to_csv();
        assert!(csv.starts_with("time_s,scope,kind,fields\n"));
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.contains("test,tick,n=1"));
    }
}
