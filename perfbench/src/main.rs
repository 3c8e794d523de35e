//! The iPrism benchmark: end-to-end metrics of three workloads, and a
//! traced run that splits them into per-layer numbers.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <nhtsa_sweep|contested_crowd|smc_train|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones, and the recorded spans are written to
//! `perfbench/out/spans-<workload>-seed<seed>.jsonl`.
//! The exit code is 0 only when every unit passed its checks. See
//! `perfbench/README.md` for the workloads and what each metric means.

mod crowd;
mod smc;
mod spans;
mod stats;
mod sti;

use std::path::PathBuf;
use std::time::Instant;

use spans::SpanRecorder;
use stats::LatencySummary;

/// Set-ups per run; `setup_s` reports their median.
const SETUP_REPS: usize = 3;
/// The SMC planning period that a decision should fit in (ms).
const PLANNING_BUDGET_MS: f64 = 100.0;

/// Every per-layer metric with its unit. A traced run reports all of them;
/// a layer the workload never calls reads 0.
const PER_LAYER: [(&str, &str); 20] = [
    ("reach.slice_cache_ms", "ms"),
    ("reach.traced_build_ms", "ms"),
    ("reach.empty_build_ms", "ms"),
    ("reach.patch_ms", "ms"),
    ("reach.patches", "count"),
    ("reach.patch_blamed_ratio", "ratio"),
    ("reach.factual_states", "count"),
    ("risk.evaluate_ms", "ms"),
    ("risk.fanout_gain", "ratio"),
    ("risk.memo_hit_ratio", "ratio"),
    ("risk.memo_entries", "count"),
    ("core.env_step_ms", "ms"),
    ("core.env_reset_ms", "ms"),
    ("rl.learner_ms", "ms"),
    ("rl.env_steps", "count"),
    ("sim.episode_ms", "ms"),
    ("trace.untraced_units_per_s", "1/s"),
    ("trace.traced_units_per_s", "1/s"),
    ("trace.spans", "count"),
    ("trace.oracle_checks", "count"),
];

const WORKLOADS: [&str; 3] = ["nhtsa_sweep", "contested_crowd", "smc_train"];

/// Units attempted and failed in a timed region, with their latencies.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Units run.
    pub attempted: usize,
    /// Units that panicked, returned an out-of-range STI, or failed an
    /// oracle check.
    pub failed: usize,
    /// Length of the timed region (s).
    pub elapsed_s: f64,
    /// Per-unit latency (s); empty for traced runs.
    pub latencies_s: Vec<f64>,
    /// Units (or training runs) compared against the reference oracle.
    pub oracle_checks: usize,
}

/// Named metrics with units, in report order.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }
    /// A time in milliseconds.
    pub fn time_ms(&mut self, name: &str, value: f64) {
        self.push(name, value, "ms");
    }
    /// A count of work items.
    pub fn count(&mut self, name: &str, value: f64) {
        self.push(name, value, "count");
    }
    /// A dimensionless ratio.
    pub fn ratio(&mut self, name: &str, value: f64) {
        self.push(name, value, "ratio");
    }
    /// A rate per second.
    pub fn rate(&mut self, name: &str, value: f64) {
        self.push(name, value, "1/s");
    }
    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, ..)| n == name)
            .map(|&(_, v, _)| v)
    }
}

/// Arithmetic mean, 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A prepared workload of either kind.
enum Prepared {
    Sti(sti::StiWorkload),
    Smc(smc::SmcWorkload),
}

impl Prepared {
    fn new(workload: &str, seed: u64) -> Prepared {
        match workload {
            "nhtsa_sweep" => Prepared::Sti(sti::StiWorkload::nhtsa(seed)),
            "contested_crowd" => Prepared::Sti(sti::StiWorkload::contested(seed)),
            "smc_train" => Prepared::Smc(smc::SmcWorkload::new(seed)),
            other => unreachable!("unknown workload {other}"),
        }
    }

    fn describe(&self) -> String {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        match self {
            Prepared::Sti(w) => {
                let census = w.census.map_or(String::new(), |c| {
                    format!(
                        ", {} of {} interacting actors blamed",
                        c.blamed, c.interacting
                    )
                });
                format!(
                    "{} scenes, {} STI thread(s), nproc {nproc}{census}",
                    w.scene_count(),
                    w.threads()
                )
            }
            Prepared::Smc(w) => format!(
                "{} templates, 1 caller, STI at the evaluator's automatic thread count, nproc {nproc}",
                w.template_count()
            ),
        }
    }

    fn run(&self, seconds: f64) -> Outcome {
        match self {
            Prepared::Sti(w) => w.run(seconds),
            Prepared::Smc(w) => w.run(seconds),
        }
    }

    fn run_traced(&self, seconds: f64, rec: &mut SpanRecorder) -> (Outcome, Report) {
        match self {
            Prepared::Sti(w) => w.run_traced(seconds, rec),
            Prepared::Smc(w) => w.run_traced(seconds, rec),
        }
    }
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => args.workload.clone_from(value),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                args.seconds = value.parse().unwrap_or_else(|_| usage("bad --seconds"));
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                };
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        usage("--workload is required");
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    args
}

/// One workload's result: its metrics and unit counts.
struct WorkloadResult {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: usize,
    failed: usize,
}

/// Sets the workload up `SETUP_REPS` times and returns the last set-up with
/// the median set-up time.
fn set_up(workload: &str, seed: u64) -> (Prepared, f64, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        drop(prepared.take());
        let start = Instant::now();
        prepared = Some(Prepared::new(workload, seed));
        times.push(start.elapsed().as_secs_f64());
    }
    let prepared = prepared.unwrap_or_else(|| unreachable!("SETUP_REPS > 0"));
    (prepared, stats::median(&times), times)
}

fn run_end_to_end(workload: &str, seed: u64, seconds: f64) -> WorkloadResult {
    let (prepared, setup_s, setup_times) = set_up(workload, seed);
    println!("{workload}: {}", prepared.describe());
    let sched_before = stats::thread_sched_s();
    let run_start = Instant::now();
    let outcome = prepared.run(seconds);
    if let (Some((cpu0, wait0)), Some((cpu1, wait1))) = (sched_before, stats::thread_sched_s()) {
        // Host-speed noise shows as slower units at full on-CPU time;
        // scheduling noise would show as run-queue wait.
        println!(
            "{workload}: main thread on CPU {:.3} s, run-queue wait {:.3} s, of {:.3} s wall (timed region and checks)",
            cpu1 - cpu0,
            wait1 - wait0,
            run_start.elapsed().as_secs_f64()
        );
    }
    let lat: LatencySummary = stats::summarize(&outcome.latencies_s);
    let units_per_s = outcome.attempted as f64 / outcome.elapsed_s;
    let rss = stats::peak_rss_mb();
    let budget = if workload == "smc_train" {
        format!(", planning budget {PLANNING_BUDGET_MS} ms")
    } else {
        String::new()
    };
    println!(
        "{workload}/units_per_s = {units_per_s:.3} 1/s ({} units in {:.3} s)",
        outcome.attempted, outcome.elapsed_s
    );
    println!(
        "{workload}/unit_p50_ms = {:.4} ms (n = {})",
        lat.p50_ms, lat.n
    );
    println!(
        "{workload}/unit_p99_ms = {:.4} ms (n = {}, {} beyond{budget})",
        lat.p99_ms, lat.n, lat.beyond_p99
    );
    if lat.beyond_p99 < 10 {
        eprintln!("warning: only {} samples beyond p99", lat.beyond_p99);
    }
    println!("{workload}/peak_rss_mb = {rss:.2} MB");
    let reps: Vec<String> = setup_times.iter().map(|t| format!("{t:.3}")).collect();
    println!(
        "{workload}/setup_s = {setup_s:.4} s (median of {SETUP_REPS}: {})",
        reps.join(", ")
    );
    println!(
        "{workload}: {} attempted, {} failed, {} oracle checks",
        outcome.attempted, outcome.failed, outcome.oracle_checks
    );
    WorkloadResult {
        metrics: vec![
            ("units_per_s".into(), units_per_s, "1/s"),
            ("unit_p50_ms".into(), lat.p50_ms, "ms"),
            ("unit_p99_ms".into(), lat.p99_ms, "ms"),
            ("peak_rss_mb".into(), rss, "MB"),
            ("setup_s".into(), setup_s, "s"),
        ],
        attempted: outcome.attempted,
        failed: outcome.failed,
    }
}

fn run_traced(workload: &str, seed: u64, seconds: f64) -> WorkloadResult {
    let (prepared, ..) = set_up(workload, seed);
    println!("{workload} (traced): {}", prepared.describe());
    let mut rec = SpanRecorder::with_capacity(1 << 16);
    let (outcome, mut report) = prepared.run_traced(seconds, &mut rec);
    report.count("trace.spans", rec.spans().len() as f64);
    report.count("trace.oracle_checks", outcome.oracle_checks as f64);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-seed{seed}.jsonl"));
    match rec.write_jsonl(&path) {
        Ok(()) => println!(
            "{workload}: {} spans written to {}",
            rec.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("warning: could not write spans to {}: {e}", path.display()),
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = report.get(name);
            let note = if value.is_none() {
                " (layer not on this workload's path)"
            } else {
                ""
            };
            let value = value.unwrap_or(0.0);
            println!("{workload}/{name} = {value:.4} {unit}{note}");
            (name.to_string(), value, unit)
        })
        .collect();
    println!(
        "{workload} (traced): {} attempted, {} failed",
        outcome.attempted, outcome.failed
    );
    WorkloadResult {
        metrics,
        attempted: outcome.attempted,
        failed: outcome.failed,
    }
}

/// A JSON number; non-finite values have no JSON form and become null.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = parse_args();
    // The benchmark must time real training, never a policy snapshot.
    std::env::set_var(iprism_core::POLICY_CACHE_ENV, "0");
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let prefix = names.len() > 1;
    let mut attempted = 0;
    let mut failed = 0;
    let mut entries = Vec::new();
    for name in &names {
        let result = if args.trace {
            run_traced(name, args.seed, args.seconds)
        } else {
            run_end_to_end(name, args.seed, args.seconds)
        };
        attempted += result.attempted;
        failed += result.failed;
        for (metric, value, unit) in result.metrics {
            let key = if prefix {
                format!("{name}/{metric}")
            } else {
                metric
            };
            entries.push(format!(
                "\"{key}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
    }
    let correct = failed == 0 && attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        entries.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
