//! Latency recording and summary statistics.
//!
//! Heracles consumes tail latency (e.g. the 99th percentile over a 15-second
//! window) as its primary control input.  [`LatencyRecorder`] collects the
//! per-request latencies produced by the queueing simulation and reports exact
//! empirical percentiles; [`SloTail`] merges the latest windows into one SLO
//! measurement; [`StreamingStats`] tracks running moments for
//! resource-utilization series.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

/// Exact empirical latency distribution over a measurement window.
///
/// Stores every sample (windows are tens of thousands of requests at most) so
/// quantiles are exact rather than approximated.
///
/// # Example
///
/// ```
/// use heracles_sim::LatencyRecorder;
/// let mut rec = LatencyRecorder::new();
/// for i in 1..=100 {
///     rec.record(i as f64 / 1000.0);
/// }
/// assert_eq!(rec.quantile(0.99), 0.099);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LatencyRecorder {
    /// Finite, non-negative samples, never −0.0: on such values
    /// [`f64::total_cmp`] is the numeric order, which is what lets
    /// [`quantile`](Self::quantile) select with it.
    samples: Vec<f64>,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        LatencyRecorder { samples: Vec::new() }
    }

    /// Creates an empty recorder with capacity for `n` samples.
    pub fn with_capacity(n: usize) -> Self {
        LatencyRecorder { samples: Vec::with_capacity(n) }
    }

    /// Records one latency sample in seconds.
    ///
    /// Non-finite or negative samples are ignored, and −0.0 is stored as
    /// +0.0.
    pub fn record(&mut self, latency_s: f64) {
        if latency_s.is_finite() && latency_s >= 0.0 {
            // `abs` only clears the sign of −0.0; every other accepted
            // sample is already positive or +0.0.
            self.samples.push(latency_s.abs());
        }
    }

    /// Absorbs all samples from another recorder.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The raw samples, in no particular order: [`quantile`](Self::quantile)
    /// partially reorders them.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The empirical quantile `q` in `[0, 1]`, or zero if empty.
    ///
    /// Uses the nearest-rank method (see [`nearest_rank`]), which is what
    /// production latency monitoring systems report.  Selects the order
    /// statistic in linear time, leaving the samples partially reordered.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let rank = nearest_rank(q, self.samples.len());
        *self.samples.select_nth_unstable_by(rank - 1, f64::total_cmp).1
    }

    /// The mean latency, or zero if empty.  Sums in storage order, which
    /// [`quantile`](Self::quantile) changes.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// The maximum latency, or zero if empty.
    pub fn max(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max)
    }

    /// Removes all samples.
    pub fn clear(&mut self) {
        self.samples.clear();
    }
}

/// The 1-based nearest rank of quantile `q` (clamped to `[0, 1]`) among
/// `n >= 1` samples: `ceil(q·n)`, at least 1.
///
/// # Example
///
/// ```
/// use heracles_sim::stats::nearest_rank;
/// assert_eq!(nearest_rank(0.99, 1500), 1485);
/// assert_eq!(nearest_rank(0.0, 10), 1);
/// ```
pub fn nearest_rank(q: f64, n: usize) -> usize {
    ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of a window's largest samples decide the nearest-rank quantile
/// `q` of any merge of windows holding at most `max_samples` samples in
/// total: an upper bound on `n − nearest_rank(q, n) + 1` over `1 ≤ n ≤
/// max_samples`.
///
/// The rank-`r` sample of `n` is the `(n − r + 1)`-th largest, and every
/// sample that large is among its own window's `n − r + 1` largest, so
/// windows trimmed to this many samples merge to the exact quantile.
///
/// The bound is closed-form: with `u = 2⁻⁵³`, the product `q·n` rounds to
/// at least `q·n − n·u`, so `n − nearest_rank(q, n) + 1 ≤ (1 − q)·n + 1 +
/// n·u`, which grows with `n`.  The `1e-6` slack covers that `n·u` and the
/// rounding of the expression below for any `max_samples < 2³⁰`; it can
/// only make the bound one sample larger than necessary, never smaller.
///
/// # Panics
///
/// Panics if `max_samples >= 2³⁰`.
fn tail_sample_bound(q: f64, max_samples: usize) -> usize {
    assert!(max_samples < 1 << 30, "tail_sample_bound: {max_samples} samples is too many");
    let n = max_samples as f64;
    let bound = ((1.0 - q.clamp(0.0, 1.0)) * n + 1.0 + 1e-6).floor() as usize;
    bound.min(max_samples)
}

/// One window's share of an [`SloTail`]: its sample count and its largest
/// samples.
#[derive(Debug)]
struct WindowTop {
    phase: u64,
    count: usize,
    top: Vec<f64>,
}

/// The nearest-rank quantile over the most recent measurement windows — the
/// paper's multi-second SLO measurement, merged from per-window samples —
/// kept exactly from each window's largest samples only.
///
/// A window holding at most `max_window_samples` samples keeps only as many
/// of its largest samples as the merged quantile can reach (61 of 1500 for a
/// p99 over four windows); the merged quantile selects among those,
/// and equals the nearest-rank quantile of all the windows' samples
/// concatenated.  Each window carries an opaque `phase` tag for its owner
/// (the colocation runner stores the window's RNG phase there).
///
/// # Example
///
/// ```
/// use heracles_sim::{LatencyRecorder, SloTail};
/// let mut tail = SloTail::new(0.99, 2, 100);
/// for phase in 0..3 {
///     let mut window = LatencyRecorder::new();
///     for i in 1..=100 {
///         window.record((phase * 100 + i) as f64);
///     }
///     tail.push(phase, window);
/// }
/// // Windows 1 and 2 (samples 101..=300) remain; their p99 is rank 198.
/// assert_eq!(tail.quantile(), 298.0);
/// ```
#[derive(Debug)]
pub struct SloTail {
    percentile: f64,
    windows: usize,
    max_window_samples: usize,
    keep: usize,
    recent: VecDeque<WindowTop>,
    /// Reused merge buffer, so a merge allocates nothing.
    candidates: Vec<f64>,
}

impl SloTail {
    /// An empty tail at `percentile` over the last `windows` windows of at
    /// most `max_window_samples` samples each.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is zero.
    pub fn new(percentile: f64, windows: usize, max_window_samples: usize) -> Self {
        assert!(windows > 0, "an SLO tail needs at least one window");
        SloTail {
            percentile,
            windows,
            max_window_samples,
            keep: tail_sample_bound(percentile, windows * max_window_samples),
            recent: VecDeque::new(),
            candidates: Vec::new(),
        }
    }

    /// Number of windows held (at most the `windows` it was created with).
    pub fn len(&self) -> usize {
        self.recent.len()
    }

    /// True if no window has been pushed.
    pub fn is_empty(&self) -> bool {
        self.recent.is_empty()
    }

    /// The phase tag of the oldest window held.
    pub fn front_phase(&self) -> Option<u64> {
        self.recent.front().map(|w| w.phase)
    }

    /// Adds the newest window, dropping the oldest once more than `windows`
    /// are held.  Only the window's largest samples are kept.
    ///
    /// # Panics
    ///
    /// Panics if the window holds more than `max_window_samples` samples.
    pub fn push(&mut self, phase: u64, mut window: LatencyRecorder) {
        let count = window.len();
        assert!(
            count <= self.max_window_samples,
            "SloTail::push: a window of {count} samples exceeds the bound of {}",
            self.max_window_samples
        );
        let keep = self.keep.min(count);
        if keep < count {
            window.samples.select_nth_unstable_by(count - keep, f64::total_cmp);
        }
        let mut top = if self.recent.len() == self.windows {
            self.recent.pop_front().expect("a full tail has an oldest window").top
        } else {
            Vec::with_capacity(self.keep)
        };
        top.clear();
        top.extend_from_slice(&window.samples[count - keep..]);
        self.recent.push_back(WindowTop { phase, count, top });
    }

    /// Moves the oldest window to the newest position.  The merged samples
    /// do not change, so neither does [`quantile`](Self::quantile).
    pub fn rotate(&mut self) {
        if let Some(oldest) = self.recent.pop_front() {
            self.recent.push_back(oldest);
        }
    }

    /// The nearest-rank quantile at `percentile` of all samples of the
    /// windows held, or zero if they hold none.
    pub fn quantile(&mut self) -> f64 {
        let total: usize = self.recent.iter().map(|w| w.count).sum();
        if total == 0 {
            return 0.0;
        }
        let from_top = total - nearest_rank(self.percentile, total) + 1;
        assert!(from_top <= self.keep, "tail_sample_bound undercounts the merged tail");
        self.candidates.clear();
        for window in &self.recent {
            self.candidates.extend_from_slice(&window.top);
        }
        let index = self.candidates.len() - from_top;
        *self.candidates.select_nth_unstable_by(index, f64::total_cmp).1
    }
}

/// Running mean / min / max / variance over a stream of values
/// (Welford's algorithm).
///
/// # Example
///
/// ```
/// use heracles_sim::StreamingStats;
/// let mut s = StreamingStats::new();
/// for v in [1.0, 2.0, 3.0] {
///     s.push(v);
/// }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.max(), 3.0);
/// ```
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct StreamingStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl StreamingStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        StreamingStats { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds a value to the stream. Non-finite values are ignored.
    pub fn push(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of values pushed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The running mean, or zero if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// The population variance, or zero if fewer than two values.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// The population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// The minimum value, or zero if empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// The maximum value, or zero if empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &StreamingStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        self.m2 += other.m2 + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.mean = new_mean;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_nearest_rank() {
        let mut rec = LatencyRecorder::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            rec.record(v);
        }
        assert_eq!(rec.quantile(0.5), 3.0);
        assert_eq!(rec.quantile(1.0), 5.0);
        assert_eq!(rec.quantile(0.0), 1.0);
    }

    #[test]
    fn quantile_of_empty_is_zero() {
        let mut rec = LatencyRecorder::new();
        assert_eq!(rec.quantile(0.99), 0.0);
        assert_eq!(rec.mean(), 0.0);
        assert_eq!(rec.max(), 0.0);
    }

    #[test]
    fn invalid_samples_ignored() {
        let mut rec = LatencyRecorder::new();
        rec.record(f64::NAN);
        rec.record(-1.0);
        rec.record(f64::INFINITY);
        assert!(rec.is_empty());
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = LatencyRecorder::new();
        let mut b = LatencyRecorder::new();
        a.record(1.0);
        b.record(2.0);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.quantile(1.0), 2.0);
    }

    #[test]
    fn tail_sample_bound_covers_every_merge_size() {
        for q in [0.0, 0.3, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            for windows in 1..=6 {
                for requests in [1, 40, 1500, 3000] {
                    let max = windows * requests;
                    let bound = tail_sample_bound(q, max);
                    let needed = (1..=max).map(|n| n - nearest_rank(q, n) + 1).max().unwrap();
                    assert!(needed <= bound, "q {q}, {max} samples: need {needed}, bound {bound}");
                    assert!(bound <= needed + 1, "q {q}, {max} samples: bound {bound} is loose");
                }
            }
        }
    }

    #[test]
    fn slo_tail_of_empty_windows_is_zero() {
        let mut tail = SloTail::new(0.99, 3, 100);
        assert_eq!(tail.quantile(), 0.0);
        tail.push(0, LatencyRecorder::new());
        assert_eq!(tail.quantile(), 0.0);
    }

    #[test]
    fn streaming_stats_moments() {
        let mut s = StreamingStats::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(v);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn streaming_merge_equals_single_pass() {
        let values: Vec<f64> = (0..100).map(|i| (i as f64).sin() + 2.0).collect();
        let mut whole = StreamingStats::new();
        for &v in &values {
            whole.push(v);
        }
        let mut left = StreamingStats::new();
        let mut right = StreamingStats::new();
        for &v in &values[..37] {
            left.push(v);
        }
        for &v in &values[37..] {
            right.push(v);
        }
        left.merge(&right);
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(left.count(), whole.count());
    }

    #[test]
    fn streaming_ignores_non_finite() {
        let mut s = StreamingStats::new();
        s.push(f64::NAN);
        s.push(1.0);
        assert_eq!(s.count(), 1);
    }
}
