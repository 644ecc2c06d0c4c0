//! The window kernel pinned bit for bit to its reference implementation.
//!
//! The reference below is the kernel as it was first written, kept here as
//! a test-only oracle: the FCFS queue scans every server for the earliest
//! free time, each request recomputes its log-normal law, a window's tail
//! comes from a full sort, and the SLO tail clones the last `K` windows,
//! concatenates and re-sorts them.  The production kernel (heap-ordered
//! queue, hoisted [`LogNormal`], selection, [`SloTail`]'s top-sample merge)
//! must reproduce every sample, every per-window tail and every merged tail
//! by `to_bits()`.
//!
//! `total_cmp` (production) and `partial_cmp` (reference) order finite
//! non-negative values identically except for −0.0 against +0.0, and
//! [`LatencyRecorder::record`] stores −0.0 as +0.0.
//!
//! The property runs the vendored proptest's fixed case count; the ignored
//! sweep runs 2,000 deterministic cases:
//!
//! ```sh
//! cargo test --release -p heracles_sim --test kernel_oracle -- --include-ignored
//! ```

use heracles_sim::{LatencyRecorder, LogNormal, MultiServerQueue, SimRng, SloTail};
use proptest::prelude::*;

/// The reference kernel.
mod reference {
    use heracles_sim::SimRng;

    /// The FCFS queue with a linear scan for the earliest free server and a
    /// per-request log-normal law.
    pub fn run(
        servers: usize,
        rng: &mut SimRng,
        arrival_rate_hz: f64,
        requests: usize,
        mean: f64,
        cov: f64,
    ) -> Vec<f64> {
        let mut latencies = Vec::with_capacity(requests);
        if arrival_rate_hz <= 0.0 || requests == 0 {
            return latencies;
        }
        let mean_interarrival = 1.0 / arrival_rate_hz;
        let mut free_at = vec![0.0_f64; servers];
        let mut now = 0.0_f64;
        for _ in 0..requests {
            now += rng.exp(mean_interarrival);
            let (idx, earliest) = free_at
                .iter()
                .copied()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite times"))
                .expect("at least one server");
            let start = now.max(earliest);
            let wait = start - now;
            let service_time = rng.lognormal(mean, cov).max(0.0);
            free_at[idx] = start + service_time;
            let latency = wait + service_time;
            if latency.is_finite() && latency >= 0.0 {
                latencies.push(latency);
            }
        }
        latencies
    }

    /// Nearest-rank quantile by a full sort.
    pub fn quantile(samples: &[f64], q: f64) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// The SLO tail: the last `k` windows cloned, concatenated and sorted.
    pub fn merged_quantile(windows: &[Vec<f64>], k: usize, q: f64) -> f64 {
        let mut merged = Vec::new();
        for window in &windows[windows.len().saturating_sub(k)..] {
            merged.extend_from_slice(window);
        }
        quantile(&merged, q)
    }
}

/// One oracle case: a sequence of windows through one SLO tail.
#[derive(Debug, Clone, Copy)]
struct Case {
    seed: u64,
    servers: usize,
    load: f64,
    requests: usize,
    cov: f64,
    percentile: f64,
    slo_windows: usize,
}

const COVS: [f64; 3] = [0.0, 0.2, 0.55];
const PERCENTILES: [f64; 4] = [0.5, 0.95, 0.99, 1.0];
/// Mean service time of the case's first window, in seconds.
const MEAN_SERVICE_S: f64 = 0.004;

/// Runs `case` through both kernels and asserts they agree bit for bit.
///
/// The sequence is `slo_windows + 2` windows long, so the tail drops its
/// oldest window at least twice.  Each window draws from its own fork of
/// the seed, and load, service time and request count vary across it, so
/// the merged windows differ in shape and size.
fn check(case: Case) {
    let queue = MultiServerQueue::new(case.servers);
    let mut tail = SloTail::new(case.percentile, case.slo_windows, case.requests);
    let mut history: Vec<Vec<f64>> = Vec::new();
    for w in 0..case.slo_windows + 2 {
        let load = case.load * (1.0 + 0.25 * (w % 3) as f64) / 1.5;
        let mean = MEAN_SERVICE_S * (1.0 + 0.1 * w as f64);
        let requests = case.requests - case.requests * (w % 4) / 7;
        let rate = load * case.servers as f64 / mean;

        let mut rng = SimRng::new(case.seed).fork(w as u64);
        let expected = reference::run(case.servers, &mut rng, rate, requests, mean, case.cov);
        let law = LogNormal::new(mean, case.cov);
        let mut rng = SimRng::new(case.seed).fork(w as u64);
        let mut window = queue.run(&mut rng, rate, requests, |r| law.sample(r));

        let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(window.samples()), bits(&expected), "samples differ: {case:?}, window {w}");
        assert_eq!(
            window.quantile(case.percentile).to_bits(),
            reference::quantile(&expected, case.percentile).to_bits(),
            "window tail differs: {case:?}, window {w}"
        );

        history.push(expected);
        tail.push(w as u64, window);
        assert_eq!(tail.len(), history.len().min(case.slo_windows));
        assert_eq!(
            tail.quantile().to_bits(),
            reference::merged_quantile(&history, case.slo_windows, case.percentile).to_bits(),
            "merged tail differs: {case:?}, after window {w}"
        );
    }
}

proptest! {
    #[test]
    fn window_kernel_matches_the_reference_bitwise(
        seed in 0u64..1_000_000,
        servers in 1usize..49,
        load in 0.0f64..4.0,
        requests in 0usize..3001,
        cov in 0usize..3,
        percentile in 0usize..4,
        slo_windows in 1usize..7,
    ) {
        check(Case {
            seed,
            servers,
            load,
            requests,
            cov: COVS[cov],
            percentile: PERCENTILES[percentile],
            slo_windows,
        });
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
fn window_kernel_matches_the_reference_over_2000_cases() {
    let mut state = 0x0AC1_E5EE_D5EE_D5EE;
    for i in 0..2_000u64 {
        let mut pick = |n: u64| (next(&mut state) % n) as usize;
        let seed = pick(u64::MAX) as u64;
        // Every eighth case sits on an edge: no load, overload, a single
        // server, an empty or one-request window.
        let load = match i % 8 {
            0 => 0.0,
            1 => 4.0,
            _ => pick(4_001) as f64 / 1_000.0,
        };
        let servers = if i % 8 == 2 { 1 } else { 1 + pick(48) };
        let requests = match i % 8 {
            3 => 0,
            4 => 1,
            _ => pick(3_001),
        };
        check(Case {
            seed,
            servers,
            load,
            requests,
            cov: COVS[pick(3)],
            percentile: PERCENTILES[pick(4)],
            slo_windows: 1 + pick(6),
        });
    }
}

#[test]
fn negative_zero_is_recorded_as_positive_zero() {
    let mut rec = LatencyRecorder::new();
    rec.record(-0.0);
    rec.record(0.0);
    assert!(rec.samples().iter().all(|s| s.to_bits() == 0.0f64.to_bits()));
    assert_eq!(rec.quantile(0.5).to_bits(), 0.0f64.to_bits());
}

#[test]
fn slo_tail_rotation_keeps_the_tail_and_cycles_phases() {
    let mut tail = SloTail::new(0.9, 3, 10);
    for phase in 0..3u64 {
        let mut window = LatencyRecorder::new();
        for i in 0..10 {
            window.record((phase * 10 + i) as f64);
        }
        tail.push(phase, window);
    }
    let before = tail.quantile();
    for expected_front in [1, 2, 0] {
        tail.rotate();
        assert_eq!(tail.front_phase(), Some(expected_front));
        assert_eq!(tail.quantile().to_bits(), before.to_bits());
    }
}

#[test]
#[should_panic(expected = "exceeds the bound of 10")]
fn slo_tail_rejects_an_oversized_window() {
    let mut tail = SloTail::new(0.99, 2, 10);
    let mut window = LatencyRecorder::new();
    for i in 0..11 {
        window.record(i as f64);
    }
    tail.push(0, window);
}
