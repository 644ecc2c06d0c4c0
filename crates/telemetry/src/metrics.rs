//! The metrics registry: counters, gauges and histograms keyed by static
//! metric ids.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::json_escape;

/// Histogram bucket upper bounds: a 1–2–5 sequence spanning nine decades
/// (1e-4 … 5e4), wide enough for normalized latencies, loads, queue waits in
/// seconds and core·second quantities alike.  Observations above the last
/// bound land in the overflow bucket.
pub const HISTOGRAM_BUCKET_BOUNDS: [f64; 27] = [
    1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1, 2e-1, 5e-1, 1.0, 2.0, 5.0, 1e1,
    2e1, 5e1, 1e2, 2e2, 5e2, 1e3, 2e3, 5e3, 1e4, 2e4, 5e4,
];

/// A fixed-bucket histogram with streaming min/max/sum.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// One count per [`HISTOGRAM_BUCKET_BOUNDS`] entry plus the overflow
    /// bucket at the end.
    pub buckets: [u64; HISTOGRAM_BUCKET_BOUNDS.len() + 1],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            buckets: [0; HISTOGRAM_BUCKET_BOUNDS.len() + 1],
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        let idx = HISTOGRAM_BUCKET_BOUNDS
            .iter()
            .position(|&bound| value <= bound)
            .unwrap_or(HISTOGRAM_BUCKET_BOUNDS.len());
        self.buckets[idx] += 1;
    }

    /// Mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The estimated `q`-quantile (`q` clamped to `[0, 1]`; 0 when empty).
    ///
    /// Locates the bucket holding rank `ceil(q * count)` (the nearest-rank
    /// definition) and interpolates linearly inside it, so the error is
    /// bounded by the width of the containing bucket: with the 1–2–5
    /// bounds that is at most 60% of the exact value for in-range
    /// observations, and exact at the extremes (the first and last ranks
    /// answer `min` and `max`).  Overflow-bucket ranks interpolate between
    /// the last bound and `max`; estimates are clamped to `[min, max]`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 {
            return self.min;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank == self.count {
            return self.max;
        }
        let mut cumulative = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if cumulative + n >= rank {
                // The bucket's value range, tightened by the observed
                // extremes so sparse tails don't widen the estimate.
                let lo = if idx == 0 {
                    self.min.min(HISTOGRAM_BUCKET_BOUNDS[0])
                } else {
                    HISTOGRAM_BUCKET_BOUNDS[idx - 1]
                };
                let hi = if idx < HISTOGRAM_BUCKET_BOUNDS.len() {
                    HISTOGRAM_BUCKET_BOUNDS[idx]
                } else {
                    self.max.max(*HISTOGRAM_BUCKET_BOUNDS.last().unwrap())
                };
                let within = (rank - cumulative) as f64 / n as f64;
                return (lo + (hi - lo) * within).clamp(self.min, self.max);
            }
            cumulative += n;
        }
        self.max
    }
}

/// Named counters, gauges and histograms.
///
/// Ids are `&'static str` (e.g. `"fleet.jobs_placed"`) so emitters cannot
/// fabricate names at runtime, and storage is a `BTreeMap` so exports
/// iterate in sorted order — a traced run's metrics document is as
/// deterministic as its trace (wall time lives only in the document's
/// `"phases"` section, never here).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    /// Display units of gauges registered through
    /// [`set_gauge_with_unit`](Self::set_gauge_with_unit) — e.g. power
    /// gauges carry `"W"` so reports render `"290.0 W"` instead of a bare
    /// float.
    gauge_units: BTreeMap<&'static str, &'static str>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Increments a counter by one.
    pub fn inc(&mut self, id: &'static str) {
        self.add(id, 1);
    }

    /// Increments a counter by `n`.
    pub fn add(&mut self, id: &'static str, n: u64) {
        *self.counters.entry(id).or_insert(0) += n;
    }

    /// Sets a gauge to its latest value.
    pub fn set_gauge(&mut self, id: &'static str, value: f64) {
        self.gauges.insert(id, value);
    }

    /// Sets a gauge and registers its display unit (e.g. `"W"` for power
    /// gauges), so exports and reports can render the value with its unit
    /// instead of a bare float.
    pub fn set_gauge_with_unit(&mut self, id: &'static str, value: f64, unit: &'static str) {
        self.gauges.insert(id, value);
        self.gauge_units.insert(id, unit);
    }

    /// The display unit registered for a gauge, if any.
    pub fn gauge_unit(&self, id: &str) -> Option<&'static str> {
        self.gauge_units.get(id).copied()
    }

    /// Records one histogram observation.
    pub fn observe(&mut self, id: &'static str, value: f64) {
        self.histograms.entry(id).or_default().observe(value);
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, id: &str) -> u64 {
        self.counters.get(id).copied().unwrap_or(0)
    }

    /// Current value of a gauge.
    pub fn gauge(&self, id: &str) -> Option<f64> {
        self.gauges.get(id).copied()
    }

    /// The named histogram, if it has observations.
    pub fn histogram(&self, id: &str) -> Option<&Histogram> {
        self.histograms.get(id)
    }

    /// Renders the three metric families as the body sections of the
    /// metrics document (used by
    /// [`Telemetry::metrics_json_with_phases`](crate::Telemetry::metrics_json_with_phases)).
    pub(crate) fn to_json_sections(&self) -> String {
        let mut out = String::new();
        out.push_str("  \"counters\": {");
        for (i, (id, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(out, "{sep}    \"{}\": {v}", json_escape(id));
        }
        out.push_str(if self.counters.is_empty() { "},\n" } else { "\n  },\n" });
        out.push_str("  \"gauges\": {");
        for (i, (id, v)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(out, "{sep}    \"{}\": {v:.6}", json_escape(id));
        }
        out.push_str(if self.gauges.is_empty() { "},\n" } else { "\n  },\n" });
        out.push_str("  \"gauge_units\": {");
        for (i, (id, unit)) in self.gauge_units.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(out, "{sep}    \"{}\": \"{}\"", json_escape(id), json_escape(unit));
        }
        out.push_str(if self.gauge_units.is_empty() { "},\n" } else { "\n  },\n" });
        out.push_str("  \"histograms\": {");
        for (i, (id, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}    \"{}\": {{\"count\": {}, \"sum\": {:.6}, \"min\": {:.6}, \
                 \"max\": {:.6}, \"mean\": {:.6}, \"buckets\": [",
                json_escape(id),
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean()
            );
            for (j, b) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("]}");
        }
        out.push_str(if self.histograms.is_empty() { "},\n" } else { "\n  },\n" });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut m = MetricsRegistry::new();
        m.inc("a.b");
        m.add("a.b", 4);
        assert_eq!(m.counter("a.b"), 5);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn gauges_keep_the_latest_value() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.gauge("g"), None);
        m.set_gauge("g", 1.0);
        m.set_gauge("g", 2.5);
        assert_eq!(m.gauge("g"), Some(2.5));
    }

    #[test]
    fn histogram_tracks_moments_and_buckets() {
        let mut h = Histogram::default();
        h.observe(0.15);
        h.observe(0.05);
        h.observe(1e9); // overflow
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 0.05);
        assert_eq!(h.max, 1e9);
        assert_eq!(*h.buckets.last().unwrap(), 1);
        // 0.15 <= 0.2 → the 2e-1 bucket; 0.05 <= 0.05 → the 5e-2 bucket.
        assert_eq!(h.buckets[10], 1);
        assert_eq!(h.buckets[8], 1);
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn quantiles_match_exact_values_within_the_bucket_width() {
        // Uniform 1..=1000: exact q-quantile is ~1000q.  Every value lies
        // in buckets whose width is at most 60% of the exact value, so the
        // interpolated estimate must be within that bound.
        let mut h = Histogram::default();
        let values: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        for &v in &values {
            h.observe(v);
        }
        for q in [0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1];
            let est = h.quantile(q);
            assert!((est - exact).abs() <= 0.6 * exact, "q={q}: estimate {est} vs exact {exact}");
        }
    }

    #[test]
    fn quantile_extremes_answer_min_and_max() {
        let mut h = Histogram::default();
        for v in [0.3, 0.7, 1.4, 2.2, 4.9] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.0), 0.3);
        assert_eq!(h.quantile(1.0), 4.9);
    }

    #[test]
    fn overflow_bucket_interpolates_toward_max() {
        let mut h = Histogram::default();
        h.observe(1.0);
        h.observe(8e4); // beyond the last bound (5e4)
        let p100 = h.quantile(1.0);
        assert!(p100 > 5e4 && p100 <= 8e4, "overflow estimate {p100}");
    }

    #[test]
    fn single_bucket_cluster_is_interpolated_inside_the_bucket() {
        // All mass in the (0.5, 1.0] bucket: every quantile must land there.
        let mut h = Histogram::default();
        for i in 0..100 {
            h.observe(0.6 + 0.3 * (i as f64 / 99.0));
        }
        for q in [0.1, 0.5, 0.9] {
            let est = h.quantile(q);
            assert!((0.5..=1.0).contains(&est), "q={q} escaped the bucket: {est}");
        }
    }

    #[test]
    fn gauges_with_units_render_their_unit_in_the_export() {
        let mut m = MetricsRegistry::new();
        m.set_gauge_with_unit("fleet.peak_power_w", 290.5, "W");
        m.set_gauge("fleet.queue_depth", 3.0);
        assert_eq!(m.gauge_unit("fleet.peak_power_w"), Some("W"));
        assert_eq!(m.gauge_unit("fleet.queue_depth"), None);
        let doc = m.to_json_sections();
        assert!(doc.contains("\"gauge_units\""));
        assert!(doc.contains("\"fleet.peak_power_w\": \"W\""));
        assert!(doc.contains("\"fleet.peak_power_w\": 290.500000"));
    }

    #[test]
    fn json_sections_are_sorted_and_escaped() {
        let mut m = MetricsRegistry::new();
        m.inc("z.last");
        m.inc("a.first");
        m.set_gauge("g", 0.5);
        m.observe("h", 1.0);
        let doc = m.to_json_sections();
        let a = doc.find("a.first").unwrap();
        let z = doc.find("z.last").unwrap();
        assert!(a < z, "counters must iterate sorted");
        assert!(doc.contains("\"g\": 0.500000"));
        assert!(doc.contains("\"count\": 1"));
    }
}
