//! One benchmark invocation: a workload at a seed, measured for a time
//! budget, untraced (end-to-end metrics) or traced (per-layer metrics),
//! with every episode's digest checked against the others and against one
//! stepped-core oracle episode.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::Command;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::episode::{self, Episode};
use crate::layers;
use crate::report::Metric;
use crate::stats::{median, peak_rss_mb, quantile};
use crate::workload::{Arm, DecideStats, Workload};

/// Episodes an invocation runs at least, whatever the time budget, so every
/// run repeats its seed at least once.
const MIN_EPISODES: usize = 2;

/// Fleet constructions timed per invocation; `setup_s` is their median.
const SETUP_REPS: usize = 21;

/// Where set-up is timed.  A construction's cost depends on the allocator's
/// state (repeated builds in one process get faster as freed memory is
/// reused), so the benchmark times each one as the first construction of a
/// fresh process — the cost a user pays — by re-running its own binary.
#[derive(Debug, Clone)]
pub enum SetupProbe {
    /// Build in this process (the self-test, which has no such binary).
    InProcess,
    /// Run `<binary> --setup-probe` once per sample (always the benchmark
    /// size: the binary has no tiny size).
    FreshProcess(PathBuf),
}

/// What an invocation asks for.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Self-test size instead of benchmark size (the self-test sets it,
    /// with [`SetupProbe::InProcess`]).
    pub tiny: bool,
    /// How set-up is timed.
    pub setup: SetupProbe,
}

/// Host seconds of one fleet construction in this process.
pub fn time_setup(workload: Workload, seed: u64, tiny: bool) -> f64 {
    let t = Instant::now();
    drop(workload.build(seed, workload.size(tiny), &Arm::default()));
    t.elapsed().as_secs_f64()
}

/// One set-up sample as `opts.setup` asks.
fn setup_sample(opts: &Options) -> Result<f64, String> {
    let exe = match &opts.setup {
        SetupProbe::InProcess => return Ok(time_setup(opts.workload, opts.seed, opts.tiny)),
        SetupProbe::FreshProcess(exe) => exe,
    };
    let out = Command::new(exe)
        .args(["--setup-probe", "--workload", opts.workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .output()
        .map_err(|e| format!("cannot run the set-up probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.trim().parse().ok())
        .filter(|_| out.status.success())
        .ok_or_else(|| {
            format!("set-up probe failed: {}", String::from_utf8_lossy(&out.stderr).trim())
        })
}

/// What an invocation measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The metrics `BENCHMARK.json` lists for this mode.
    pub metrics: Vec<Metric>,
    /// Further measurements printed for people, not gated.
    pub info: Vec<Metric>,
    /// Steps attempted.
    pub attempted: u64,
    /// Steps that panicked or belong to a run that failed a digest check.
    pub failed: u64,
    /// The digest every run of this seed must reproduce.
    pub digest: String,
    /// One line per correctness check.
    pub checks: Vec<String>,
}

impl Outcome {
    /// True when nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Runs one episode, catching panics and checking its digest against
    /// the invocation's reference (the first successful event-core
    /// episode).  Failed steps are charged here.
    fn episode(
        &mut self,
        label: &str,
        steps: usize,
        f: impl FnOnce() -> Episode,
    ) -> Option<Episode> {
        self.attempted += steps as u64;
        match catch_unwind(AssertUnwindSafe(f)) {
            Err(_) => {
                self.failed += steps as u64;
                self.checks.push(format!("{label}: PANICKED"));
                None
            }
            Ok(ep) => {
                if self.digest.is_empty() {
                    self.digest = ep.digest.clone();
                } else if ep.digest != self.digest {
                    self.failed += steps as u64;
                    self.checks
                        .push(format!("{label}: digest {} != {} MISMATCH", ep.digest, self.digest));
                    return Some(ep);
                }
                self.checks.push(format!(
                    "{label}: digest {} ok, {} steps, p50 {:.4} ms",
                    ep.digest,
                    ep.steps,
                    median(&ep.step_ms)
                ));
                Some(ep)
            }
        }
    }

    /// The stepped-core oracle: one episode that must reproduce the
    /// event-core digest.  On a mismatch neither core can be trusted, so
    /// every step of the invocation counts as failed.
    fn oracle(&mut self, opts: &Options) {
        let size = opts.workload.size(opts.tiny);
        let arm = Arm { stepped: true, ..Arm::default() };
        let before = self.failed;
        self.episode("stepped oracle", size.steps, || {
            episode::run(opts.workload, opts.seed, size, &arm, false, false)
        });
        if self.failed != before {
            self.failed = self.attempted;
        }
    }
}

/// Pooled step statistics of a set of episodes.
struct Steps {
    ms: Vec<f64>,
    windows_per_s: Vec<f64>,
}

impl Steps {
    fn of<'a>(episodes: impl IntoIterator<Item = &'a Episode>) -> Steps {
        let mut steps = Steps { ms: Vec::new(), windows_per_s: Vec::new() };
        for ep in episodes {
            for (&ms, &w) in ep.step_ms.iter().zip(&ep.step_windows) {
                steps.ms.push(ms);
                steps.windows_per_s.push(w as f64 / (ms * 1e-3));
            }
        }
        steps
    }
}

/// Runs the untraced (end-to-end) invocation.
pub fn end_to_end(opts: &Options) -> Outcome {
    let size = opts.workload.size(opts.tiny);
    let plain = Arm::default();
    let mut out = Outcome::default();
    let setups = match (0..SETUP_REPS).map(|_| setup_sample(opts)).collect::<Result<Vec<f64>, _>>()
    {
        Ok(setups) => setups,
        Err(e) => {
            out.checks.push(format!("set-up: {e}"));
            out.attempted = 1;
            out.failed = 1;
            return out;
        }
    };
    let budget = Duration::from_secs_f64(opts.seconds);
    let started = Instant::now();
    let mut episodes: Vec<Episode> = Vec::new();
    let mut peak_rss = 0.0;
    while episodes.len() < MIN_EPISODES || started.elapsed() < budget {
        let label = format!("episode {}", episodes.len() + 1);
        match out.episode(&label, size.steps, || {
            episode::run(opts.workload, opts.seed, size, &plain, false, false)
        }) {
            Some(ep) => episodes.push(ep),
            None => break,
        }
        // The high-water mark of one episode in a fresh process: later
        // episodes can only add allocator fragmentation, and how many run
        // depends on the host's speed.
        if episodes.len() == 1 {
            peak_rss = peak_rss_mb();
        }
    }
    out.oracle(opts);

    let Some(first) = episodes.first() else { return out };
    let steps = Steps::of(&episodes);
    out.metrics = vec![
        Metric::new("leaf_windows_per_s", median(&steps.windows_per_s), "1/s"),
        Metric::new("step_ms_p50", median(&steps.ms), "ms"),
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("peak_rss_mb", peak_rss, "MiB"),
        Metric::new("fleet_emu", first.fleet_emu, "ratio"),
    ];
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.info = vec![
        Metric::new("slo_violation_server_steps", first.violation_server_steps as f64, "count"),
        Metric::new("be_core_s_served", first.be_core_s, "core*s"),
        Metric::new("failed_op_frac", failed_frac, "ratio"),
        Metric::new("step_samples", steps.ms.len() as f64, "count"),
        Metric::new("episodes", episodes.len() as f64, "count"),
        Metric::new("setup_samples", setups.len() as f64, "count"),
        Metric::new("step_ms_q1", quantile(&steps.ms, 0.25), "ms"),
        Metric::new("step_ms_q3", quantile(&steps.ms, 0.75), "ms"),
    ];
    if let Some(q) = crate::stats::tail_quantile(steps.ms.len()) {
        let name = format!("step_ms_p{}", (q * 100.0).round());
        out.info.push(Metric::new(&name, quantile(&steps.ms, q), "ms"));
    }
    out
}

/// Runs the traced (per-layer) invocation: rounds of a traced episode, an
/// untraced one and one with the shadow planes flipped, then the kernel
/// arms on leaves sampled from the traced fleet, then the oracle.
pub fn per_layer(opts: &Options) -> Outcome {
    let w = opts.workload;
    let size = w.size(opts.tiny);
    let decide = Arc::new(Mutex::new(DecideStats::default()));
    let traced = Arm { decide_timer: Some(Arc::clone(&decide)), ..Arm::default() };
    let plain = Arm::default();
    let flipped = Arm { flip_shadows: true, ..Arm::default() };
    let mut out = Outcome::default();
    let budget = Duration::from_secs_f64(opts.seconds);
    let started = Instant::now();
    let shadows = if w.shadows_by_default() { "shadow planes off" } else { "shadow planes on" };
    let arms: [(&str, &Arm, bool); 3] =
        [("traced", &traced, true), ("untraced", &plain, false), (shadows, &flipped, false)];
    let mut eps: [Vec<Episode>; 3] = Default::default();
    let mut actions_per_episode = 0;
    'rounds: while eps[0].is_empty() || started.elapsed() < budget {
        let round = eps[0].len();
        // Rotate which arm runs first, so no arm always runs cold.
        for k in 0..arms.len() {
            let a = (round + k) % arms.len();
            let (label, arm, is_traced) = arms[a];
            let actions_before = decide.lock().expect("timer lock").actions;
            let label = format!("{label} episode {}", round + 1);
            let Some(ep) = out.episode(&label, size.steps, || {
                episode::run(w, opts.seed, size, arm, is_traced, is_traced && round == 0)
            }) else {
                break 'rounds;
            };
            if is_traced {
                actions_per_episode = decide.lock().expect("timer lock").actions - actions_before;
            }
            eps[a].push(ep);
        }
    }
    let [t_eps, u_eps, s_eps] = eps;
    if t_eps.is_empty() || u_eps.len() != t_eps.len() || s_eps.len() != t_eps.len() {
        out.oracle(opts);
        return out;
    }
    let decide = *decide.lock().expect("timer lock");
    let kernel = layers::measure(&t_eps[0].leaves, size.requests, t_eps[0].in_service, opts.seed);
    out.oracle(opts);

    let traced_steps = Steps::of(&t_eps);
    let untraced_p50 = median(&Steps::of(&u_eps).ms);
    let flipped_p50 = median(&Steps::of(&s_eps).ms);
    let (on_p50, off_p50) = if w.shadows_by_default() {
        (untraced_p50, flipped_p50)
    } else {
        (flipped_p50, untraced_p50)
    };
    let shadow_eps = if w.shadows_by_default() { &u_eps } else { &s_eps };
    let (recorded, dropped) = shadow_eps[0].recorder.unwrap_or((0, 0));

    let mut p = episode::Phases::default();
    for ep in &t_eps {
        let q = ep.phases;
        p.step_s += q.step_s;
        p.routing_s += q.routing_s;
        p.dispatch_s += q.dispatch_s;
        p.signals_s += q.signals_s;
        p.servers_s += q.servers_s;
        p.woken += q.woken;
        p.quiescent += q.quiescent;
        p.full += q.full;
        p.fast += q.fast;
    }
    let n = traced_steps.ms.len().max(1) as f64;
    let per_step_ms = |s: f64| s * 1e3 / n;
    let step_ms = per_step_ms(p.step_s);
    let named_ms = per_step_ms(p.routing_s + p.dispatch_s + p.signals_s + p.servers_s);
    let leaf_steps = (p.woken + p.quiescent).max(1) as f64;
    let windows = (p.full + p.fast).max(1) as f64;
    let placements: usize = t_eps.iter().map(|e| e.placements).sum();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut metrics = kernel;
    metrics.extend([
        Metric::new("fleet.step_ms", step_ms, "ms"),
        Metric::new("fleet.step_ms_p90", quantile(&traced_steps.ms, 0.9), "ms"),
        Metric::new("fleet.routing_ms", per_step_ms(p.routing_s), "ms"),
        Metric::new("fleet.dispatch_ms", per_step_ms(p.dispatch_s), "ms"),
        Metric::new("fleet.servers_ms", per_step_ms(p.servers_s), "ms"),
        Metric::new("fleet.rest_ms", step_ms - named_ms, "ms"),
        Metric::new("fleet.named_share", ratio(named_ms, step_ms), "ratio"),
        Metric::new("fleet.woken_leaf_frac", p.woken as f64 / leaf_steps, "ratio"),
        Metric::new("fleet.fast_window_frac", p.fast as f64 / windows, "ratio"),
        Metric::new("fleet.full_windows_per_step", p.full as f64 / n, "count"),
        Metric::new(
            "fleet.servers_us_per_full_window",
            ratio(p.servers_s * 1e6, p.full as f64),
            "us",
        ),
        Metric::new("fleet.servers_us_per_leaf", p.servers_s * 1e6 / leaf_steps, "us"),
        Metric::new(
            "fleet.dispatch_us_per_job",
            ratio(p.dispatch_s * 1e6, placements as f64),
            "us",
        ),
        Metric::new("autoscale.signals_ms", per_step_ms(p.signals_s), "ms"),
        Metric::new(
            "autoscale.decide_us",
            ratio(decide.busy.as_secs_f64() * 1e6, decide.calls as f64),
            "us",
        ),
        Metric::new("autoscale.scale_actions", actions_per_episode as f64, "count"),
        Metric::new("telemetry.shadow_overhead", ratio(on_p50, off_p50), "ratio"),
        Metric::new("telemetry.events_recorded", recorded as f64, "count"),
        Metric::new("telemetry.events_dropped", dropped as f64, "count"),
        Metric::new("bench.trace_overhead", ratio(median(&traced_steps.ms), untraced_p50), "ratio"),
    ]);
    out.metrics = metrics;
    out.info = vec![
        Metric::new("traced_step_samples", traced_steps.ms.len() as f64, "count"),
        Metric::new("rounds", t_eps.len() as f64, "count"),
        Metric::new("sampled_leaves", t_eps[0].leaves.len() as f64, "count"),
        Metric::new("in_service_leaves", t_eps[0].in_service as f64, "count"),
        Metric::new("placements", placements as f64, "count"),
        Metric::new("step_ms_p50_traced", median(&traced_steps.ms), "ms"),
        Metric::new("step_ms_p50_untraced", untraced_p50, "ms"),
        Metric::new("step_ms_p50_shadows_on", on_p50, "ms"),
        Metric::new("step_ms_p50_shadows_off", off_p50, "ms"),
    ];
    out
}
