//! Fleet-size benchmark: per-step cost and control-plane split of the
//! sharded store + batched dispatch scheduler, and per-step server-plane
//! cost of the event-driven core vs the stepped oracle on a steady fleet,
//! swept over 100 / 1 000 / 10 000-leaf fleets.
//! Results land in `BENCH_fleet.json` at the workspace root so the numbers
//! are tracked in version control alongside the code that produced them.
//! Full-mode sweeps (and `--check` on the committed artifact) must hold
//! the server-plane speedup gate at the largest point.
//!
//! Modes:
//!
//! * default (`cargo bench -p heracles_bench --bench fleet_size`) — the
//!   full 100/1k/10k sweep; writes `BENCH_fleet.json`,
//! * `-- --fast` — the same sizes with fewer steps per point, for CI-grade
//!   machines; also writes `BENCH_fleet.json`,
//! * `-- --smoke` (or the `--test` flag `cargo test` passes to bench
//!   targets) — a tiny sweep validated against the schema in memory,
//!   nothing written,
//! * `-- --check` — validates the committed `BENCH_fleet.json` against the
//!   schema without running anything (the CI guard against artifact drift).
//!
//! Every sweep point runs both sim cores (and metering on and off) on the
//! identical scenario and asserts the results match, so the benchmark
//! doubles as a large-fleet equivalence check on top of the property tests.

use criterion::Criterion;
use heracles_bench::fleet_bench::{
    bench_fleet, bench_report_json, check_metering_overhead_gate, check_server_plane_gate,
    measure_fleet_size, validate_bench_json, FleetSizePoint,
};

/// `(initial servers, steps per arm)` sweep points.
const FULL_SWEEP: [(usize, usize); 3] = [(100, 24), (1_000, 10), (10_000, 4)];
const FAST_SWEEP: [(usize, usize); 3] = [(100, 8), (1_000, 4), (10_000, 2)];

fn print_point(p: &FleetSizePoint) {
    println!(
        "{:>6} servers ({} steps): step {:.3} ms, control plane {:.3} ms \
         (routing {:.3} + dispatch {:.3} + signals {:.3})",
        p.servers,
        p.steps,
        p.step_ms,
        p.control_plane_ms,
        p.routing_ms,
        p.dispatch_ms,
        p.signals_ms,
    );
    println!(
        "{:>6} server plane (steady): event {:.3} ms vs stepped {:.3} ms per step — \
         speedup {:.1}x, {:.1} leaves woken/step",
        "",
        p.server_plane_ms,
        p.stepped_server_plane_ms,
        p.server_plane_speedup,
        p.woken_leaves_per_step,
    );
    println!(
        "{:>6} energy meter: {:.3} ms metered vs {:.3} ms unmetered per step — {:.3}x overhead",
        "", p.metered_step_ms, p.unmetered_step_ms, p.metering_overhead,
    );
}

const ARTIFACT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let smoke = has("--test") || has("--smoke");
    let fast = has("--fast");

    if has("--check") {
        let doc = std::fs::read_to_string(ARTIFACT).expect("BENCH_fleet.json must exist");
        validate_bench_json(&doc).expect("committed BENCH_fleet.json must match the schema");
        check_server_plane_gate(&doc)
            .expect("committed BENCH_fleet.json must hold the server-plane speedup gate");
        check_metering_overhead_gate(&doc)
            .expect("committed BENCH_fleet.json must hold the metering overhead gate");
        println!("{ARTIFACT}: schema ok, server-plane gate ok, metering gate ok");
        return;
    }

    // A conventional criterion timing of one whole fleet step at the
    // smallest sweep size (the fleet persists across iterations, so later
    // samples step a later point of the diurnal curve — same as production).
    let mut criterion = Criterion::default().sample_size(10);
    let mut fleet = bench_fleet(100, 32, false);
    criterion.bench_function("fleet_step/100_servers", |b| b.iter(|| fleet.step_once()));

    if smoke {
        let points = vec![measure_fleet_size(32, 3)];
        let doc = bench_report_json("smoke", &points);
        validate_bench_json(&doc).expect("smoke bench report must validate");
        println!("fleet_size sweep: ok (smoke)");
        return;
    }

    let (mode, sweep) = if fast { ("fast", FAST_SWEEP) } else { ("full", FULL_SWEEP) };
    let mut points = Vec::new();
    for (servers, steps) in sweep {
        let point = measure_fleet_size(servers, steps);
        print_point(&point);
        points.push(point);
    }
    let doc = bench_report_json(mode, &points);
    validate_bench_json(&doc).expect("bench report must validate");
    std::fs::write(ARTIFACT, &doc).expect("BENCH_fleet.json must be writable");
    println!("wrote {ARTIFACT} ({mode} mode)");
    // The artifact is written first so a failed gate still leaves the
    // numbers on disk for diagnosis.
    check_server_plane_gate(&doc).expect("full-mode sweep must hold the server-plane gate");
    check_metering_overhead_gate(&doc).expect("full-mode sweep must hold the metering gate");
}
