//! The quantile sketch pinned bit for bit to its reference implementation.
//!
//! The reference below is the sketch as it was first written, kept here as
//! a test-only oracle: sparse buckets in an ordered map, and `ln(gamma)`
//! recomputed for every observation.  The production sketch (dense bucket
//! array plus offset, hoisted `ln(gamma)`) must agree on the count, the
//! underflow count, the occupied buckets, `min`/`max` and every quantile of
//! a q-grid by `to_bits()`, for any stream — zeros of either sign, values
//! one ulp either side of [`MIN_TRACKED`], subnormals, NaN, infinities and
//! 1e300 included — and after merging shards of the stream in any split
//! and any order.
//!
//! The property runs the vendored proptest's fixed case count; the ignored
//! sweep runs 2,000 deterministic cases:
//!
//! ```sh
//! cargo test --release -p heracles_telemetry --test sketch_oracle -- --include-ignored
//! ```

use heracles_telemetry::{QuantileSketch, MIN_TRACKED};
use proptest::prelude::*;

/// The reference sketch.
mod reference {
    use heracles_telemetry::{MIN_TRACKED, RELATIVE_ERROR};
    use std::collections::BTreeMap;

    fn gamma() -> f64 {
        (1.0 + RELATIVE_ERROR) / (1.0 - RELATIVE_ERROR)
    }

    pub fn ln_gamma() -> f64 {
        gamma().ln()
    }

    fn bucket_index(value: f64) -> i32 {
        (value.ln() / gamma().ln()).ceil() as i32
    }

    fn representative(index: i32) -> f64 {
        gamma().powi(index) * (1.0 - RELATIVE_ERROR)
    }

    /// Sparse log buckets, an underflow count and the finite extremes.
    #[derive(Clone)]
    pub struct Sketch {
        buckets: BTreeMap<i32, u64>,
        pub underflow: u64,
        pub count: u64,
        min: f64,
        max: f64,
    }

    impl Sketch {
        pub fn new() -> Self {
            Sketch {
                buckets: BTreeMap::new(),
                underflow: 0,
                count: 0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
            }
        }

        pub fn observe(&mut self, value: f64) {
            let value = if value == 0.0 { 0.0 } else { value };
            self.count += 1;
            if value.is_finite() {
                self.min = self.min.min(value);
                self.max = self.max.max(value);
            }
            if !value.is_finite() || value <= MIN_TRACKED {
                self.underflow += 1;
            } else {
                *self.buckets.entry(bucket_index(value)).or_insert(0) += 1;
            }
        }

        pub fn merge(&mut self, other: &Sketch) {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
            self.count += other.count;
            self.underflow += other.underflow;
            for (&idx, &n) in &other.buckets {
                *self.buckets.entry(idx).or_insert(0) += n;
            }
        }

        pub fn min(&self) -> f64 {
            if self.min.is_finite() {
                self.min
            } else {
                0.0
            }
        }

        pub fn max(&self) -> f64 {
            if self.max.is_finite() {
                self.max
            } else {
                0.0
            }
        }

        pub fn bucket_count(&self) -> usize {
            self.buckets.len() + usize::from(self.underflow > 0)
        }

        pub fn quantile(&self, q: f64) -> f64 {
            if self.count == 0 {
                return 0.0;
            }
            let q = q.clamp(0.0, 1.0);
            let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
            if rank <= self.underflow {
                return self.min.clamp(0.0, MIN_TRACKED);
            }
            let mut cumulative = self.underflow;
            for (&idx, &n) in &self.buckets {
                cumulative += n;
                if cumulative >= rank {
                    return representative(idx).clamp(self.min, self.max);
                }
            }
            self.max
        }
    }
}

/// Values on the sketch's edges, drawn often.
const EDGES: [f64; 14] = [
    0.0,
    -0.0,
    MIN_TRACKED,
    MIN_TRACKED.next_up(),
    MIN_TRACKED.next_down(),
    f64::MIN_POSITIVE,
    5e-324,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1e300,
    -2.5,
    1.0,
    f64::MAX,
];

/// Quantiles compared on every sketch: both ends, the percentiles the
/// health plane reports, and points between.
const Q_GRID: [f64; 13] =
    [0.0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0, 1.5];

/// One input value from two random words: an edge value one time in six,
/// a bucket boundary `gamma^k` nudged by up to two ulps one time in six,
/// otherwise log-uniform over 1e-12 .. 1e6 (about 1,900 buckets wide).
fn value(pick: u64, bits: u64) -> f64 {
    match pick % 6 {
        0 => EDGES[(bits % EDGES.len() as u64) as usize],
        1 => {
            let k = (bits % 2_400) as i32 - 1_200;
            let boundary = (f64::from(k) * reference::ln_gamma()).exp();
            let nudge = |v: f64| if bits & (1 << 20) == 0 { v.next_up() } else { v.next_down() };
            (0..(bits >> 40) % 3).fold(boundary, |v, _| nudge(v))
        }
        _ => {
            let unit = (bits >> 11) as f64 / (1u64 << 53) as f64;
            10f64.powf(-12.0 + 18.0 * unit)
        }
    }
}

/// Asserts the two sketches agree on everything observable, bit for bit.
fn assert_same(sketch: &QuantileSketch, oracle: &reference::Sketch, what: &str) {
    assert_eq!(sketch.count(), oracle.count, "{what}: count");
    assert_eq!(sketch.underflow(), oracle.underflow, "{what}: underflow");
    assert_eq!(sketch.bucket_count(), oracle.bucket_count(), "{what}: buckets");
    assert_eq!(sketch.min().to_bits(), oracle.min().to_bits(), "{what}: min");
    assert_eq!(sketch.max().to_bits(), oracle.max().to_bits(), "{what}: max");
    for q in Q_GRID {
        assert_eq!(
            sketch.quantile(q).to_bits(),
            oracle.quantile(q).to_bits(),
            "{what}: quantile({q})"
        );
    }
}

/// Observes `values` whole and in `shards` shards (value `i` goes to shard
/// `assign[i] % shards`), merges the shards in `order`, and checks both
/// sketches against the reference at every stage.
fn check(values: &[f64], shards: usize, assign: &[usize], order: &[usize]) {
    let mut whole = QuantileSketch::new();
    let mut whole_oracle = reference::Sketch::new();
    let mut parts = vec![QuantileSketch::new(); shards];
    let mut part_oracles = vec![reference::Sketch::new(); shards];
    for (i, &v) in values.iter().enumerate() {
        whole.observe(v);
        whole_oracle.observe(v);
        let shard = assign.get(i).copied().unwrap_or(i) % shards;
        parts[shard].observe(v);
        part_oracles[shard].observe(v);
    }
    assert_same(&whole, &whole_oracle, "whole stream");
    for (shard, (part, oracle)) in parts.iter().zip(&part_oracles).enumerate() {
        assert_same(part, oracle, &format!("shard {shard}"));
    }

    // Merge every shard into the one `order` names first, in `order`.
    let mut remaining: Vec<usize> = (0..shards).collect();
    let mut sequence = Vec::with_capacity(shards);
    for &o in order.iter().chain(std::iter::repeat(&0)).take(shards) {
        sequence.push(remaining.remove(o % remaining.len()));
    }
    let mut merged = parts[sequence[0]].clone();
    let mut merged_oracle = part_oracles[sequence[0]].clone();
    for &shard in &sequence[1..] {
        merged.merge(&parts[shard]);
        merged_oracle.merge(&part_oracles[shard]);
        assert_same(&merged, &merged_oracle, &format!("merged through shard {shard}"));
    }
    assert_same(&merged, &whole_oracle, "all shards merged");
    assert_eq!(merged, whole, "merged shards differ from the whole stream");
}

proptest! {
    #[test]
    fn sketch_matches_the_reference_bitwise(
        words in proptest::collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 0..300),
        shards in 1usize..6,
        assign in proptest::collection::vec(0usize..6, 0..300),
        order in proptest::collection::vec(0usize..6, 0..6),
    ) {
        let values: Vec<f64> = words.iter().map(|&(pick, bits)| value(pick, bits)).collect();
        check(&values, shards, &assign, &order);
    }
}

/// SplitMix64, for the sweep's case stream.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
#[ignore = "2,000-case sweep; run in release with --include-ignored"]
fn sketch_matches_the_reference_over_2000_cases() {
    let mut state = 0x5EED_5CE7_C4A1_0001;
    for i in 0..2_000u64 {
        // Every eighth case is empty or holds only edge values.
        let len = match i % 8 {
            0 => 0,
            1 => 1 + next(&mut state) % 16,
            _ => next(&mut state) % 2_000,
        };
        let values: Vec<f64> = (0..len)
            .map(|_| {
                let pick = if i % 8 == 1 { 0 } else { next(&mut state) };
                value(pick, next(&mut state))
            })
            .collect();
        let shards = 1 + (next(&mut state) % 8) as usize;
        let assign: Vec<usize> = (0..len).map(|_| next(&mut state) as usize).collect();
        let order: Vec<usize> = (0..shards).map(|_| next(&mut state) as usize).collect();
        check(&values, shards, &assign, &order);
    }
}

#[test]
fn edge_values_land_where_the_reference_puts_them() {
    let assign: Vec<usize> = (0..EDGES.len()).collect();
    check(&EDGES, 3, &assign, &[2, 0, 1]);
    check(&[MIN_TRACKED.next_up(), 1e300, MIN_TRACKED.next_up()], 2, &[0, 1, 1], &[1]);
}
