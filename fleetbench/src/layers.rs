//! The kernel arms: each layer under a leaf window, timed through its public
//! API at the workload's own request count and on leaves sampled from the
//! workload's own fleet (their service, hardware generation, routed load and
//! resident BE job), so the arms see the workload's load mix.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use heracles_colo::{ColoConfig, ColoRunner};
use heracles_core::{ColocationPolicy, Heracles, HeraclesConfig, Measurements, OfflineDramModel};
use heracles_fleet::Generation;
use heracles_hw::{ResourceDemand, Server, ServerConfig};
use heracles_sim::{parallel_map_mut, LatencyRecorder, MultiServerQueue, SimRng, SimTime};
use heracles_telemetry::TraceEvent;
use heracles_workloads::{LcKind, LcWorkload};

use crate::episode::LeafSample;
use crate::report::Metric;
use crate::stats::{heap_growth, median};

/// Per-request service-time coefficient of variation of each LC profile.
/// The profiles keep it private; these mirror the values in
/// `heracles_workloads::lc` so the queue arm draws the same distribution.
fn service_cov(kind: LcKind) -> f64 {
    match kind {
        LcKind::Websearch => 0.20,
        LcKind::MlCluster => 0.25,
        LcKind::Memkeyval => 0.55,
    }
}

/// Wall time the decorated controller spent in `tick`.
#[derive(Default)]
struct TickStats {
    calls: u64,
    busy: Duration,
}

/// A colocation-policy decorator that times `tick` and forwards the rest.
struct TimedPolicy {
    inner: Box<dyn ColocationPolicy>,
    stats: Arc<Mutex<TickStats>>,
}

impl ColocationPolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn init(&mut self, server: &mut Server) {
        self.inner.init(server);
    }

    fn tick(&mut self, now: SimTime, server: &mut Server, measurements: &Measurements) {
        let started = Instant::now();
        self.inner.tick(now, server, measurements);
        let busy = started.elapsed();
        let mut stats = self.stats.lock().expect("tick lock");
        stats.calls += 1;
        stats.busy += busy;
    }

    fn be_enabled(&self) -> bool {
        self.inner.be_enabled()
    }

    fn set_trace(&mut self, enabled: bool) {
        self.inner.set_trace(enabled);
    }

    fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.inner.take_trace()
    }
}

/// Median wall time of `reps` calls of `f`, in microseconds.
fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Per-leaf kernel timings, in microseconds.
#[derive(Default)]
struct LeafTimes {
    queue_run: f64,
    window_quantile: f64,
    slo_merge: f64,
    simulate_window: f64,
    evaluate: f64,
    tick: f64,
    full_window: f64,
    fast_window: Option<f64>,
}

/// Windows a sampled leaf runs before it is timed, so its controller has
/// moved off the initial allocation the way the fleet's leaves have.
const WARM_WINDOWS: usize = 24;

/// Windows a leaf may run looking for a fast-path (steady) window.
const STEADY_SEARCH_WINDOWS: usize = 200;

/// Runs every kernel arm and returns the per-layer metrics.
///
/// `leaves` come from the workload's fleet right after warm-up; `requests`
/// is its per-window request count and `fleet_leaves` its in-service leaf
/// count (the width of one step's `parallel_map_mut`).
pub fn measure(
    leaves: &[LeafSample],
    requests: usize,
    fleet_leaves: usize,
    seed: u64,
) -> Vec<Metric> {
    let reps = (60_000 / requests.max(1)).clamp(20, 400);
    let baseline = ServerConfig::default_haswell();
    let colo = ColoConfig { requests_per_window: requests, ..ColoConfig::fast_test() };
    let mut dram_models: HashMap<(usize, usize), OfflineDramModel> = HashMap::new();
    let mut times = Vec::new();
    let mut heap_per_window = 0.0;
    for (i, leaf) in leaves.iter().enumerate() {
        let generation = Generation::all()[leaf.generation];
        let config = generation.server_config(&baseline);
        let ratio = config.total_cores() as f64 / baseline.total_cores() as f64;
        let base = LcWorkload::of_kind(leaf.service);
        let lc =
            if generation == Generation::Haswell { base } else { base.scaled_to_capacity(ratio) };
        let dram = dram_models
            .entry((leaf.generation, leaf.service.index()))
            .or_insert_with(|| OfflineDramModel::profile(&lc, &config))
            .clone();
        let stats = Arc::new(Mutex::new(TickStats::default()));
        let policy = TimedPolicy {
            inner: Box::new(Heracles::new(HeraclesConfig::fast(), lc.slo(), dram)),
            stats: Arc::clone(&stats),
        };
        let leaf_seed = seed ^ (0xBE7C_0000 + i as u64);
        let mut runner = ColoRunner::new(
            config.clone(),
            lc.clone(),
            leaf.be.clone(),
            Box::new(policy),
            colo.with_seed(leaf_seed),
        );
        runner.advance(leaf.load, WARM_WINDOWS, false);
        times.push(time_leaf(&mut runner, &lc, leaf, &colo, reps, leaf_seed, &stats));
        if i == 0 {
            heap_per_window = heap_growth_per_window(&mut runner, leaf.load);
        }
    }
    let mean = |f: &dyn Fn(&LeafTimes) -> f64| {
        times.iter().map(f).sum::<f64>() / times.len().max(1) as f64
    };
    let queue_run = mean(&|t| t.queue_run);
    let simulate_window = mean(&|t| t.simulate_window);
    let evaluate = mean(&|t| t.evaluate);
    let tick = mean(&|t| t.tick);
    let full_window = mean(&|t| t.full_window);
    let fast: Vec<f64> = times.iter().filter_map(|t| t.fast_window).collect();
    let fast_window =
        if fast.is_empty() { 0.0 } else { fast.iter().sum::<f64>() / fast.len() as f64 };

    let mut items = vec![0u64; fleet_leaves.max(1)];
    let parallel_map = time_us(reps, || {
        parallel_map_mut(&mut items, |x| {
            *x = x.wrapping_add(1);
            *x
        });
    });

    vec![
        Metric::new("sim.queue_run_us", queue_run, "us"),
        Metric::new("sim.queue_requests_per_s", requests as f64 / (queue_run * 1e-6), "1/s"),
        Metric::new("sim.window_quantile_us", mean(&|t| t.window_quantile), "us"),
        Metric::new("sim.slo_merge_us", mean(&|t| t.slo_merge), "us"),
        Metric::new("sim.parallel_map_us", parallel_map, "us"),
        Metric::new("workloads.simulate_window_us", simulate_window, "us"),
        Metric::new("hw.evaluate_us", evaluate, "us"),
        Metric::new("core.tick_us", tick, "us"),
        Metric::new("colo.full_window_us", full_window, "us"),
        Metric::new("colo.fast_window_us", fast_window, "us"),
        Metric::new(
            "colo.window_residual_us",
            full_window - simulate_window - tick - evaluate,
            "us",
        ),
        Metric::new("colo.rss_bytes_per_window", heap_per_window, "B"),
    ]
}

/// Times every arm on one warmed-up leaf.
fn time_leaf(
    runner: &mut ColoRunner,
    lc: &LcWorkload,
    leaf: &LeafSample,
    colo: &ColoConfig,
    reps: usize,
    seed: u64,
    stats: &Mutex<TickStats>,
) -> LeafTimes {
    let load = leaf.load.clamp(0.0, 4.0);
    let requests = colo.requests_per_window;
    let mut out = LeafTimes::default();

    // The whole window, and the controller tick inside it.
    *stats.lock().expect("tick lock") = TickStats::default();
    out.full_window = time_us(reps, || {
        runner.advance(load, 1, false);
    });
    {
        let s = stats.lock().expect("tick lock");
        out.tick = s.busy.as_secs_f64() * 1e6 / s.calls.max(1) as f64;
    }

    // The leaf's state as the next full window would see it.
    let config = runner.server().config().clone();
    let alloc = runner.server().allocations().clone();
    let outcome = runner.last_record().expect("warm leaves have history").outcome;
    let lc_cores = alloc.lc_cores();
    let mut rng = SimRng::new(seed).fork(0x4B45_524E);

    // The window kernel: queue simulation plus per-window tail.
    let slo_windows = colo.slo_window_count.max(1);
    let mut windows: Vec<LatencyRecorder> = Vec::new();
    out.simulate_window = time_us(reps, || {
        let w = lc.simulate_window(&mut rng, load, lc_cores, &outcome, &config, requests, None);
        if windows.len() < slo_windows {
            windows.push(w.latencies);
        }
    });

    // The bare FCFS queue at the same arrival rate and service law.
    let mean_service = lc.service_time_s(load, &outcome, &config);
    let cov = service_cov(leaf.service);
    let queue = MultiServerQueue::new(lc_cores.max(1));
    let mut raw = LatencyRecorder::new();
    out.queue_run = time_us(reps, || {
        raw = queue.run(&mut rng, lc.qps(load), requests, |r| r.lognormal(mean_service, cov));
    });

    // One window's percentile, and the SLO cycle's merge + percentile.
    let percentile = lc.slo().percentile;
    let mut unsorted: Vec<LatencyRecorder> = (0..reps).map(|_| raw.clone()).collect();
    let mut k = 0;
    out.window_quantile = time_us(reps, || {
        unsorted[k].quantile(percentile);
        k += 1;
    });
    out.slo_merge = time_us(reps, || {
        let mut merged = LatencyRecorder::new();
        for w in &windows {
            merged.merge(w);
        }
        merged.quantile(percentile);
    });

    // The contention model: the demand the window offers, evaluated.
    let server = runner.server();
    let be_running = runner.be().is_some()
        && runner.be_enabled()
        && (alloc.be_cores() > 0 || alloc.be_shares_lc_cores());
    let be_footprint = match (be_running, runner.be()) {
        (true, Some(be)) => be.contention_footprint_mb(),
        _ => 0.0,
    };
    let cache = server.cache_split(lc.footprint_mb(load, &config), be_footprint);
    let mut demand: ResourceDemand = lc.demand(load, lc_cores, cache.lc_mb, &config);
    if let (true, Some(be)) = (be_running, runner.be()) {
        let be_demand = be.demand(alloc.be_cores(), cache.be_mb);
        demand.be_active_cores = be_demand.be_active_cores;
        demand.be_compute_activity = be_demand.be_compute_activity;
        demand.be_dram_gbps_per_core = be_demand.be_dram_gbps_per_core;
        demand.be_llc_footprint_mb = be_demand.be_llc_footprint_mb;
        demand.be_net_offered_gbps = be_demand.be_net_offered_gbps;
        demand.smt_antagonist_intensity = be_demand.smt_antagonist_intensity;
    }
    const EVALUATE_BATCH: usize = 64;
    out.evaluate = time_us(reps, || {
        for _ in 0..EVALUATE_BATCH {
            let outcome = server.evaluate(std::hint::black_box(&demand));
            std::hint::black_box(server.counters(&outcome));
        }
    }) / EVALUATE_BATCH as f64;

    // The fast path, once (if) the leaf goes steady at this load.
    let mut fast = Vec::new();
    for _ in 0..STEADY_SEARCH_WINDOWS {
        let t = Instant::now();
        let step = runner.advance(load, 1, true);
        let us = t.elapsed().as_secs_f64() * 1e6;
        if step.fast_windows == 1 {
            fast.push(us);
            if fast.len() >= reps {
                break;
            }
        }
    }
    out.fast_window = (!fast.is_empty()).then(|| median(&fast));
    out
}

/// Heap bytes one runner retains per window (its record history and
/// whatever else grows with run length), over enough windows to amortise
/// the history vector's doubling.
fn heap_growth_per_window(runner: &mut ColoRunner, load: f64) -> f64 {
    const WINDOWS: usize = 4_096;
    heap_growth(|| {
        runner.advance(load, WINDOWS, true);
    }) / WINDOWS as f64
}
