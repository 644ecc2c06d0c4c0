//! Deterministic telemetry plane for the Heracles reproduction.
//!
//! Every layer of the stack makes decisions worth auditing — the per-server
//! controller's Algorithm 1 transitions, the placement store's admission
//! verdicts, the traffic plane's diverts, the elastic controller's buys and
//! drains — but the workspace's determinism contract forbids folding any
//! diagnostic state into the bit-compared result types.  This crate is the
//! shared answer:
//!
//! * [`TraceEvent`] — a structured, *sim-time-stamped* decision record.
//!   Events never carry wall-clock values, so two runs with the same seed
//!   produce byte-identical trace files.
//! * [`TraceLog`] — the cheap per-component buffer a subsystem owns while a
//!   run is traced.  Components hold an `Option<TraceLog>`; when it is
//!   `None` (the default) no event is even constructed, which is what makes
//!   telemetry zero-cost when disabled.
//! * [`FlightRecorder`] — a bounded ring buffer the fleet drains component
//!   logs into in deterministic order, with JSONL and CSV sinks.  The JSON
//!   is hand-rolled (the workspace deliberately vendors no JSON serializer)
//!   with a matching substring-exact validator, following the
//!   `BENCH_fleet.json` precedent.
//! * [`MetricsRegistry`] — named counters/gauges/histograms keyed by static
//!   metric ids, iterated in sorted order so the export is deterministic.
//!
//! Wall time is a diagnostic, not a result: the fleet's phase profile is
//! exported in its own `"phases"` section of the metrics document and never
//! appears in a trace file.
//!
//! # Example
//!
//! ```
//! use heracles_sim::SimTime;
//! use heracles_telemetry::{TelemetryConfig, Telemetry, TraceEvent};
//!
//! let mut tel = Telemetry::new(TelemetryConfig::enabled()).expect("enabled");
//! tel.recorder.record(
//!     TraceEvent::new(SimTime::from_secs(15), "core", "be_state")
//!         .str("from", "disabled")
//!         .str("to", "enabled")
//!         .f64("slack", 0.42),
//! );
//! tel.metrics.inc("core.be_state_transitions");
//! let doc = tel.trace_jsonl(&[("seed", "7".into())]);
//! heracles_telemetry::validate_trace_jsonl(&doc).unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod health;
mod metrics;
mod recorder;
mod sketch;
mod trace;
mod validate;

pub use config::TelemetryConfig;
pub use health::{
    AlertEngine, AlertKind, BurnRatePolicy, CellSketches, HealthPlane, LeafSketches, TOP_K_LEAVES,
};
pub use metrics::{Histogram, MetricsRegistry, HISTOGRAM_BUCKET_BOUNDS};
pub use recorder::{FlightRecorder, Telemetry};
pub use sketch::{QuantileSketch, MIN_TRACKED, RELATIVE_ERROR};
pub use trace::{json_escape, TraceEvent, TraceLog, TraceValue};
pub use validate::{validate_metrics_json, validate_trace_jsonl, METRICS_SCHEMA, TRACE_SCHEMA};
