//! `fleetbench`: the fleet simulator's benchmark.
//!
//! ```text
//! fleetbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! fleetbench --check [--seconds S] [--trace 0|1]
//! fleetbench --compare <output-a> <output-b>
//! ```
//!
//! (`--setup-probe` is internal: it times one fleet construction and exits,
//! so `setup_s` can be sampled in fresh processes.)
//!
//! A run prints its checks and metrics for people, then a `report` line
//! (the full record, host fingerprint included), then, as the last line, a
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.  It
//! exits non-zero when any step panicked or any digest disagreed.  See
//! `README.md` beside this crate for the workloads and the metric table.

use std::process::{Command, ExitCode};

use fleetbench::report::{fingerprint, metrics_object, number, quote, Json};
use fleetbench::workload::Workload;
use fleetbench::{bench, DEV_SEED, HELD_OUT_SEED};

/// Default measurement budget per invocation, in seconds.
const DEFAULT_SECONDS: f64 = 20.0;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    setup_probe: bool,
    compare: Option<(String, String)>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEV_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        check: false,
        setup_probe: false,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds.is_finite() && cli.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--check" => cli.check = true,
            "--setup-probe" => cli.setup_probe = true,
            "--compare" => cli.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("fleetbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &cli.compare {
        return compare(a, b);
    }
    if cli.check {
        return run_all(&cli, HELD_OUT_SEED);
    }
    match cli.workload.as_deref() {
        None => {
            eprintln!("fleetbench: --workload <name|all>, --check or --compare is required");
            ExitCode::from(2)
        }
        Some("all") => run_all(&cli, cli.seed),
        Some(name) => match Workload::parse(name) {
            Ok(workload) if cli.setup_probe => {
                println!("setup_s {}", bench::time_setup(workload, cli.seed, false));
                ExitCode::SUCCESS
            }
            Ok(workload) => run_one(&cli, workload),
            Err(e) => {
                eprintln!("fleetbench: {e}");
                ExitCode::from(2)
            }
        },
    }
}

/// Runs one workload in this process and prints its result.
fn run_one(cli: &Cli, workload: Workload) -> ExitCode {
    let opts = bench::Options {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        tiny: false,
        setup: match std::env::current_exe() {
            Ok(exe) => bench::SetupProbe::FreshProcess(exe),
            Err(_) => bench::SetupProbe::InProcess,
        },
    };
    let size = workload.size(false);
    println!(
        "fleetbench {} seed={} trace={} seconds={} servers={} steps={} warmup={} requests={}",
        workload.name(),
        cli.seed,
        u8::from(cli.trace),
        cli.seconds,
        size.servers,
        size.steps,
        size.warmup,
        size.requests,
    );
    let print = fingerprint();
    let fp: Vec<String> = print.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("fingerprint: {}", fp.join(" "));
    let outcome = if cli.trace { bench::per_layer(&opts) } else { bench::end_to_end(&opts) };
    for check in &outcome.checks {
        println!("check: {check}");
    }
    for m in outcome.metrics.iter().chain(&outcome.info) {
        println!("  {:<36} {:>18} {}", m.name, format!("{:.6}", m.value), m.unit);
    }
    let fp_json: Vec<String> =
        print.iter().map(|(k, v)| format!("{}: {}", quote(k), quote(v))).collect();
    println!(
        "report {{\"schema\": \"fleetbench/v1\", \"workload\": {}, \"seed\": {}, \"trace\": {}, \
         \"fingerprint\": {{{}}}, \"digest\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
         \"metrics\": {}, \"info\": {}}}",
        quote(workload.name()),
        cli.seed,
        u8::from(cli.trace),
        fp_json.join(", "),
        quote(&outcome.digest),
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics_object(&outcome.metrics),
        metrics_object(&outcome.info),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics_object(&outcome.metrics),
    );
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in a fresh process (so `peak_rss_mb` is each
/// workload's own), echoes their output and prints a summary table.
fn run_all(cli: &Cli, seed: u64) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("fleetbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut rows: Vec<(Workload, Option<Json>)> = Vec::new();
    for workload in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload.name(), "--seed", &seed.to_string()]).args([
            "--seconds",
            &cli.seconds.to_string(),
            "--trace",
            if cli.trace { "1" } else { "0" },
        ]);
        let output = match cmd.output() {
            Ok(output) => output,
            Err(e) => {
                eprintln!("fleetbench: cannot run {}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        ok &= output.status.success();
        rows.push((workload, find_report(&stdout)));
    }
    println!("\nsummary (seed {seed}, trace {}):", u8::from(cli.trace));
    for (workload, report) in &rows {
        let Some(report) = report else {
            println!("  {:<16} NO RESULT", workload.name());
            continue;
        };
        println!(
            "  {:<16} correct={} digest={}",
            workload.name(),
            matches!(report.get("correct"), Some(Json::Bool(true))),
            report.get("digest").and_then(Json::str).unwrap_or("?"),
        );
        for section in ["metrics", "info"] {
            if let Some(Json::Obj(metrics)) = report.get(section) {
                for (name, m) in metrics {
                    let value = m.get("value").and_then(Json::num).unwrap_or(f64::NAN);
                    let unit = m.get("unit").and_then(Json::str).unwrap_or("");
                    println!("      {name:<34} {value:>18.6} {unit}");
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `report` record in a run's output.
fn find_report(output: &str) -> Option<Json> {
    output.lines().filter_map(|l| l.strip_prefix("report ")).find_map(|r| Json::parse(r).ok())
}

/// Every `report` record in a saved output file.
fn reports_in(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let reports: Vec<Json> = text
        .lines()
        .filter_map(|l| l.strip_prefix("report "))
        .map(Json::parse)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{path}: malformed report line: {e}"))?;
    if reports.is_empty() {
        return Err(format!("{path}: no report lines"));
    }
    Ok(reports)
}

/// Compares two saved outputs workload by workload.  Refused (exit 2) when
/// the host fingerprints differ: numbers from different machines,
/// compilers or profiles are not comparable.  Fails (exit 1) when two runs
/// of the same seed have different digests: the change altered what the
/// simulation computes, however little its modelled metrics moved.
fn compare(a: &str, b: &str) -> ExitCode {
    let (ra, rb) = match (reports_in(a), reports_in(b)) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("fleetbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut refused = false;
    let mut drifted = false;
    let mut pairs = 0;
    for x in &ra {
        let key = |r: &Json| (r.get("workload").cloned(), r.get("trace").cloned());
        let Some(y) = rb.iter().find(|y| key(y) == key(x)) else { continue };
        pairs += 1;
        let name = x.get("workload").and_then(Json::str).unwrap_or("?");
        let host_keys = ["nproc", "cpu", "rustc", "profile"];
        let differ: Vec<&str> = host_keys
            .into_iter()
            .filter(|k| {
                x.get("fingerprint").and_then(|f| f.get(k))
                    != y.get("fingerprint").and_then(|f| f.get(k))
            })
            .collect();
        if !differ.is_empty() {
            eprintln!(
                "fleetbench: refusing to compare {name}: fingerprints differ in {}",
                differ.join(", ")
            );
            refused = true;
            continue;
        }
        let seed = |r: &Json| r.get("seed").and_then(Json::num).map_or("?".into(), number);
        let digest = |r: &Json| r.get("digest").and_then(Json::str).map(str::to_owned);
        let digests = if seed(x) != seed(y) {
            "not comparable across seeds"
        } else if digest(x) == digest(y) {
            "equal"
        } else {
            drifted = true;
            "DIFFER"
        };
        println!("{name}: seed {} vs {}; digests {digests}", seed(x), seed(y));
        println!("  {:<36} {:>18} {:>18} {:>9}", "metric", "a", "b", "b/a");
        if let (Some(Json::Obj(ma)), Some(Json::Obj(mb))) = (x.get("metrics"), y.get("metrics")) {
            for (metric, va) in ma {
                let va = va.get("value").and_then(Json::num).unwrap_or(f64::NAN);
                let vb = mb
                    .get(metric)
                    .and_then(|m| m.get("value"))
                    .and_then(Json::num)
                    .unwrap_or(f64::NAN);
                let ratio = if va != 0.0 { vb / va } else { f64::NAN };
                println!(
                    "  {metric:<36} {:>18} {:>18} {:>9}",
                    number(va),
                    number(vb),
                    format!("{ratio:.4}")
                );
            }
        }
    }
    if refused {
        return ExitCode::from(2);
    }
    if pairs == 0 {
        eprintln!("fleetbench: the two outputs share no workload");
        return ExitCode::from(2);
    }
    if drifted {
        eprintln!("fleetbench: same-seed digests differ: the simulation's results changed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
