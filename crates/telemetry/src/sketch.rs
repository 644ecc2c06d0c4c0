//! A log-bucketed streaming quantile sketch with a fixed relative-error
//! guarantee.
//!
//! The health plane needs percentiles *online* — at any sim time, over
//! streams it cannot afford to retain (10k leaves × thousands of steps).
//! [`QuantileSketch`] is the DDSketch-style answer: values map to
//! geometrically spaced buckets, so the sketch answers any quantile in
//! O(buckets) memory with a bounded *relative* error, and two shard
//! sketches merge by adding bucket counts.
//!
//! Determinism is load-bearing here.  Every piece of sketch state is
//! either a `u64` count (exact, order-independent) or an `f64` reduced
//! only through `min`/`max` (order-independent for finite values): there
//! is no floating-point *accumulation*, so observing a stream in any
//! order — or sharding it and merging — produces the identical sketch,
//! bit for bit.  That is what lets the alert engine's decisions, and the
//! trace events they emit, stay byte-identical across runs of the same
//! seed.
//!
//! Buckets are stored densely, one count per index between the lowest and
//! the highest occupied bucket, so an observation is an index computation
//! and an array increment.  `crates/telemetry/tests/sketch_oracle.rs` pins
//! the sketch bit for bit to a sparse ordered-map reference.

/// The sketch's relative-error guarantee: for any quantile `q`, the
/// estimate `e` and the exact value `x` (of the same rank) satisfy
/// `|e - x| <= RELATIVE_ERROR * x`, provided `x >= MIN_TRACKED`.
pub const RELATIVE_ERROR: f64 = 0.01;

/// Values at or below this threshold are indistinguishable from zero: they
/// share one underflow bucket whose representative is the stream's minimum.
/// Below the threshold the guarantee degrades from relative to absolute
/// (error at most `MIN_TRACKED`).
pub const MIN_TRACKED: f64 = 1e-9;

/// Geometric bucket ratio: bucket `i` covers `(GAMMA^(i-1), GAMMA^i]`.
const GAMMA: f64 = (1.0 + RELATIVE_ERROR) / (1.0 - RELATIVE_ERROR);

/// `GAMMA.ln()`, written out because `ln` is not a `const fn`; a unit test
/// pins it to the runtime value bit for bit.
const LN_GAMMA: f64 = 0.020000666706669435;

/// The bucket index of a tracked (`> MIN_TRACKED`, finite) value.
fn bucket_index(value: f64) -> i32 {
    // ceil(log_gamma(value)); the same value always maps to the same
    // bucket — `ln` is a pure function — so bucketing is order-free.
    (value.ln() / LN_GAMMA).ceil() as i32
}

/// The representative value of bucket `i`: the multiplicative midpoint
/// `gamma^i * (1 - alpha)`, within `RELATIVE_ERROR` of every value in the
/// bucket.
fn representative(index: i32) -> f64 {
    GAMMA.powi(index) * (1.0 - RELATIVE_ERROR)
}

/// A mergeable streaming quantile sketch over non-negative values.
///
/// # Example
///
/// ```
/// use heracles_telemetry::QuantileSketch;
///
/// let mut s = QuantileSketch::new();
/// for i in 1..=1000 {
///     s.observe(i as f64);
/// }
/// let p50 = s.quantile(0.5);
/// assert!((p50 - 500.0).abs() <= 500.0 * 0.011);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    /// Count per log bucket, for the indices `offset ..` in ascending
    /// order (so quantile walks are deterministic).  The first and last
    /// counts are never zero, which keeps equal sketches equal field by
    /// field; empty until the first tracked value.
    buckets: Vec<u64>,
    /// The bucket index of `buckets[0]` (0 while `buckets` is empty).
    offset: i32,
    /// Values at or below [`MIN_TRACKED`] (plus any non-finite stray, which
    /// no healthy emitter produces).
    underflow: u64,
    /// Total observations.
    count: u64,
    /// Smallest finite observation (`+inf` until one arrives, so `min`
    /// folds order-free without a seen-flag).
    min: f64,
    /// Largest finite observation (`-inf` until one arrives).
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch {
            buckets: Vec::new(),
            offset: 0,
            underflow: 0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl QuantileSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        QuantileSketch::default()
    }

    /// Records one observation.  Negative and sub-[`MIN_TRACKED`] values
    /// land in the underflow bucket; non-finite values are counted there
    /// too (they carry no magnitude to bucket).
    pub fn observe(&mut self, value: f64) {
        // Normalize -0.0 so min/max state is bit-identical however zeros
        // are signed.
        let value = if value == 0.0 { 0.0 } else { value };
        self.count += 1;
        if value.is_finite() {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        if !value.is_finite() || value <= MIN_TRACKED {
            self.underflow += 1;
        } else {
            let index = bucket_index(value);
            self.cover(index, index);
            self.buckets[(index - self.offset) as usize] += 1;
        }
    }

    /// Extends the dense bucket range to include indices `lo..=hi`.
    fn cover(&mut self, lo: i32, hi: i32) {
        if self.buckets.is_empty() {
            self.offset = lo;
        } else if lo < self.offset {
            let grow = (self.offset - lo) as usize;
            self.buckets.splice(0..0, std::iter::repeat_n(0, grow));
            self.offset = lo;
        }
        let len = (hi - self.offset) as usize + 1;
        if self.buckets.len() < len {
            self.buckets.resize(len, 0);
        }
    }

    /// Folds `other` into `self`.  Merging shard sketches produces the
    /// *identical* sketch (bitwise) to observing the concatenated stream:
    /// bucket counts add exactly and min/max reduce order-free.
    pub fn merge(&mut self, other: &QuantileSketch) {
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.underflow += other.underflow;
        if other.buckets.is_empty() {
            return;
        }
        self.cover(other.offset, other.offset + other.buckets.len() as i32 - 1);
        let start = (other.offset - self.offset) as usize;
        for (mine, &n) in self.buckets[start..].iter_mut().zip(&other.buckets) {
            *mine += n;
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Observations in the underflow bucket: at or below [`MIN_TRACKED`],
    /// negative or non-finite.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// True when nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest finite observation (0 when none has arrived).
    pub fn min(&self) -> f64 {
        if self.min.is_finite() {
            self.min
        } else {
            0.0
        }
    }

    /// Largest finite observation (0 when none has arrived).
    pub fn max(&self) -> f64 {
        if self.max.is_finite() {
            self.max
        } else {
            0.0
        }
    }

    /// Number of occupied buckets.  Memory is one word per bucket index
    /// between the lowest and highest occupied bucket — independent of the
    /// stream length.
    pub fn bucket_count(&self) -> usize {
        self.buckets.iter().filter(|&&n| n > 0).count() + usize::from(self.underflow > 0)
    }

    /// The estimated `q`-quantile (`q` clamped to `[0, 1]`; 0 when empty).
    ///
    /// The exact value of the same rank (`ceil(q * count)`, matching the
    /// nearest-rank definition) differs from the estimate by at most
    /// [`RELATIVE_ERROR`] relatively, or [`MIN_TRACKED`] absolutely for
    /// underflow-bucket ranks.  The estimate is clamped into the observed
    /// `[min, max]`, which can only tighten it.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank <= self.underflow {
            // Underflow values are within MIN_TRACKED of the stream min.
            return self.min.clamp(0.0, MIN_TRACKED);
        }
        // Empty buckets leave `cumulative` unchanged, and it starts below
        // `rank`, so the walk stops on an occupied bucket.
        let mut cumulative = self.underflow;
        for (index, &n) in (self.offset..).zip(&self.buckets) {
            cumulative += n;
            if cumulative >= rank {
                return representative(index).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The median estimate.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// The 95th-percentile estimate.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// The 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact nearest-rank quantile, the reference the sketch's bound is
    /// stated against.
    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn hoisted_log_gamma_matches_the_runtime_value() {
        let gamma = std::hint::black_box((1.0 + RELATIVE_ERROR) / (1.0 - RELATIVE_ERROR));
        assert_eq!(GAMMA.to_bits(), gamma.to_bits());
        assert_eq!(LN_GAMMA.to_bits(), gamma.ln().to_bits());
    }

    #[test]
    fn empty_sketch_answers_zero() {
        let s = QuantileSketch::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn estimates_hold_the_relative_error_bound() {
        // A deliberately skewed deterministic stream spanning five decades.
        let mut values: Vec<f64> =
            (1..=2000).map(|i| (i as f64 * 0.01).exp() % 9.7e4 + 1e-3).collect();
        let mut s = QuantileSketch::new();
        for &v in &values {
            s.observe(v);
        }
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let exact = exact_quantile(&values, q);
            let est = s.quantile(q);
            assert!(
                (est - exact).abs() <= RELATIVE_ERROR * exact * 1.0001 + 1e-12,
                "q={q}: estimate {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn merge_equals_the_concatenated_stream() {
        let stream: Vec<f64> =
            (0..500).map(|i| ((i * 2654435761u64 as usize) % 9973) as f64 / 7.0 + 1e-4).collect();
        let mut whole = QuantileSketch::new();
        for &v in &stream {
            whole.observe(v);
        }
        let mut left = QuantileSketch::new();
        let mut right = QuantileSketch::new();
        for (i, &v) in stream.iter().enumerate() {
            if i % 3 == 0 {
                left.observe(v);
            } else {
                right.observe(v);
            }
        }
        let mut merged = left.clone();
        merged.merge(&right);
        assert_eq!(merged, whole, "merged shards must equal the concatenated stream");
    }

    #[test]
    fn underflow_values_share_the_zero_bucket() {
        let mut s = QuantileSketch::new();
        s.observe(0.0);
        s.observe(-3.0);
        s.observe(1e-12);
        s.observe(f64::NAN);
        assert_eq!(s.count(), 4);
        assert!(s.quantile(0.5) <= MIN_TRACKED);
        assert_eq!(s.bucket_count(), 1);
    }

    #[test]
    fn memory_stays_bounded_by_buckets_not_stream_length() {
        let mut s = QuantileSketch::new();
        for i in 0..100_000 {
            s.observe(1.0 + (i % 100) as f64 / 100.0);
        }
        // Values span [1, 2): about ln(2)/ln(gamma) ~ 35 buckets.
        assert!(s.bucket_count() < 64, "{} buckets", s.bucket_count());
        assert_eq!(s.count(), 100_000);
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let mut s = QuantileSketch::new();
        for i in 1..=300 {
            s.observe(i as f64 * 0.01);
        }
        let mut last = 0.0;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = s.quantile(q);
            assert!(v >= last, "quantile regressed at q={q}");
            last = v;
        }
    }
}
