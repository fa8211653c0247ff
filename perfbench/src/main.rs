//! The repository benchmark.
//!
//! Runs one named workload through the public `ScenarioRunner` API and
//! checks every run's output. With `--trace 0` it repeats the
//! workload's public call for `--seconds` (and at least three times)
//! and reports the end-to-end metrics; with `--trace 1` it makes one
//! traced run that times the benchmark's own calls into each crate and
//! reports the per-layer metrics. Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet64-tuned --seed 2203 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Any failed check
//! makes the exit code 1.

mod layers;
mod probe;
mod workloads;

use probe::{batch_times, median, report_digest};
use sleepscale_scenario::{ScenarioReport, ScenarioRunner};
use std::error::Error;
use std::time::Instant;
use workloads::Workload;

/// End-to-end metrics, `(name, unit)`, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 5] = [
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("energy_j", "J"),
    ("p95_response_s", "s"),
];

/// The untraced run makes at least this many calls, however long they
/// take, so its median is never one call or the mean of two.
const MIN_CALLS: usize = 3;

/// Set-up timing: windows of at least [`SETUP_BATCHES`] batches of up
/// to [`SETUP_BATCH`] constructions and at least [`SETUP_SECONDS`]`.0`
/// seconds, cut at [`SETUP_SECONDS`]`.1` seconds. The untraced run
/// opens one window before its first call and one after every call, so
/// a burst of host noise skews few of the batches whose median is
/// reported.
const SETUP_BATCH: usize = 32;
const SETUP_BATCHES: usize = 64;
const SETUP_SECONDS: (f64, f64) = (0.02, 0.5);

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0_f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workloads::find(&value).ok_or_else(|| {
                    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload '{value}' (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds {seconds} must be positive"));
    }
    Ok(Args { workload, seed: seed.unwrap_or(workload.default_seed), seconds, trace })
}

/// The correctness ledger: every checked operation is attempted once
/// and fails if any of its checks fails.
struct Checks {
    expected_jobs: Option<usize>,
    digest: Option<u64>,
    attempted: u64,
    failed: u64,
}

/// The checkable facts of one report, taken before the report is
/// dropped.
#[derive(Debug, Clone, Copy)]
struct Outcome {
    jobs: usize,
    qos_ok: bool,
    digest: u64,
}

impl Outcome {
    /// Reads the report's job count and QoS verdict, then digests it.
    fn of(report: ScenarioReport) -> Outcome {
        Outcome {
            jobs: report.total_jobs(),
            qos_ok: report.qos_ok(),
            digest: report_digest(report),
        }
    }
}

impl Checks {
    fn new() -> Checks {
        Checks { expected_jobs: None, digest: None, attempted: 0, failed: 0 }
    }

    /// Sets the number of jobs the workload materializes.
    fn expect_jobs(&mut self, jobs: usize) {
        self.expected_jobs = Some(jobs);
    }

    /// Checks one run: every materialized job served, QoS met, and the
    /// digest equal to the first checked run's.
    fn check(&mut self, label: &str, outcome: Outcome) {
        let mut problems = Vec::new();
        match self.expected_jobs {
            Some(expected) if expected != outcome.jobs => {
                problems.push(format!("served {} of {expected} jobs", outcome.jobs))
            }
            None => problems.push("job count never materialized".to_string()),
            _ => {}
        }
        if !outcome.qos_ok {
            problems.push("qos_ok() is false".to_string());
        }
        let reference = *self.digest.get_or_insert(outcome.digest);
        if reference != outcome.digest {
            problems.push(format!("digest {:016x} != {reference:016x}", outcome.digest));
        }
        self.attempted += 1;
        if problems.is_empty() {
            println!("check {label}: ok (jobs {}, digest {:016x})", outcome.jobs, outcome.digest);
        } else {
            self.failed += 1;
            println!("check {label}: FAILED: {}", problems.join("; "));
        }
    }

    /// Records an operation that could not complete.
    fn error(&mut self, label: &str, error: &dyn Error) {
        self.attempted += 1;
        self.failed += 1;
        println!("check {label}: FAILED: {error}");
    }

    /// Checks that two values that must be identical are.
    fn same(&mut self, label: &str, got: u64, want: u64) {
        self.attempted += 1;
        if got == want {
            println!("check {label}: ok ({got:016x})");
        } else {
            self.failed += 1;
            println!("check {label}: FAILED: {got:016x} != {want:016x}");
        }
    }
}

/// One window of the set-up under test: building the workload's
/// scenario and validating it into a runner. Appends the window's batch
/// times to `samples`.
fn setup(
    w: &Workload,
    seed: u64,
    threads: usize,
    samples: &mut Vec<f64>,
) -> Result<ScenarioRunner, Box<dyn Error>> {
    let (times, runner) = batch_times(
        SETUP_BATCH,
        SETUP_BATCHES,
        SETUP_SECONDS,
        || (),
        |()| ScenarioRunner::new(w.scenario(seed, threads)),
    );
    samples.extend(times);
    Ok(runner?)
}

/// The untraced run: the workload's public call, repeated for
/// `seconds` and at least [`MIN_CALLS`] times, every call checked.
/// `peak_rss_mb` is read after the first call, so allocator reuse
/// across repetitions cannot inflate it.
fn end_to_end(
    args: &Args,
    threads: usize,
    checks: &mut Checks,
) -> Result<Vec<f64>, Box<dyn Error>> {
    let w = args.workload;
    let mut setup_samples = Vec::new();
    let runner = setup(w, args.seed, threads, &mut setup_samples)?;
    checks.expect_jobs(runner.inputs()?.2.len());
    let scratch = probe::scratch_dir();
    if w.kill_after_epoch.is_some() {
        // The uninterrupted run every resumed report must equal.
        checks.check("plain run", Outcome::of(runner.run()?));
    }
    let (mut rates, mut peak_rss_mb, mut modelled) = (Vec::new(), 0.0, (0.0, 0.0));
    let start = Instant::now();
    while rates.len() < MIN_CALLS || start.elapsed().as_secs_f64() < args.seconds {
        let label = format!("call {}", rates.len() + 1);
        let call = match w.call(&runner, &scratch) {
            Ok(call) => call,
            Err(e) => {
                checks.error(&label, e.as_ref());
                break;
            }
        };
        rates.push(call.report.total_jobs() as f64 / call.wall_s);
        println!("{label}: {:.3} s, {:.0} jobs/s", call.wall_s, rates[rates.len() - 1]);
        if rates.len() == 1 {
            peak_rss_mb = probe::peak_rss_mb()?;
        }
        modelled = (call.report.energy_joules(), call.report.p95_response_seconds());
        checks.check(&label, Outcome::of(call.report));
        setup(w, args.seed, threads, &mut setup_samples)?;
    }
    Ok(vec![median(&rates), median(&setup_samples), peak_rss_mb, modelled.0, modelled.1])
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checkout's commit, read from `.git` when the working directory
/// is a git checkout ("unknown" otherwise).
fn commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|id| id.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A finite number as JSON (Rust's shortest round-trip form, every
/// digit kept).
fn json_number(value: f64) -> String {
    assert!(value.is_finite(), "metric value {value} is not a finite number");
    format!("{value}")
}

fn run(args: &Args) -> Result<bool, Box<dyn Error>> {
    let threads = hardware_threads();
    println!(
        "perfbench workload={} seed={} trace={} hardware_threads={threads} scenario_threads={threads} \
         rustc=\"{}\" commit={}",
        args.workload.name,
        args.seed,
        u8::from(args.trace),
        env!("PERFBENCH_RUSTC_VERSION"),
        commit(),
    );
    let mut checks = Checks::new();
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let values = layers::traced(args.workload, args.seed, threads, &mut checks)?;
        layers::PER_LAYER.iter().zip(values).map(|(&(name, unit), v)| (name, v, unit)).collect()
    } else {
        let values = end_to_end(args, threads, &mut checks)?;
        END_TO_END.iter().zip(values).map(|(&(name, unit), v)| (name, v, unit)).collect()
    };
    for (name, value, unit) in &metrics {
        println!("metric {name} = {value} {unit}");
    }
    let correct = checks.failed == 0 && checks.attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
    Ok(correct)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_with_seed_defaults() {
        let a = args(&["--workload", "mega-day", "--seconds", "3", "--trace", "1"]).unwrap();
        assert_eq!((a.workload.name, a.seed, a.seconds, a.trace), ("mega-day", 100_000, 3.0, true));
        let a = args(&["--workload", "fleet64-resume", "--seed", "5", "--trace", "0"]).unwrap();
        assert_eq!((a.seed, a.trace), (5, false));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "mega-day", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "mega-day", "--seconds", "0"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }

    #[test]
    fn checks_count_every_failed_condition_once() {
        let ok = Outcome { jobs: 10, qos_ok: true, digest: 7 };
        let mut checks = Checks::new();
        checks.check("before materializing", ok);
        assert_eq!((checks.attempted, checks.failed), (1, 1));
        checks.expect_jobs(10);
        checks.check("same", ok);
        checks.check("short", Outcome { jobs: 9, ..ok });
        checks.check("qos", Outcome { qos_ok: false, ..ok });
        checks.check("digest", Outcome { digest: 8, ..ok });
        checks.check("all three", Outcome { jobs: 1, qos_ok: false, digest: 9 });
        checks.same("equal", 3, 3);
        checks.same("unequal", 3, 4);
        assert_eq!((checks.attempted, checks.failed), (8, 6));
    }

    #[test]
    fn benchmark_json_lists_every_metric_and_workload() {
        let spec = include_str!("../../BENCHMARK.json");
        let names = END_TO_END.iter().chain(layers::PER_LAYER.iter()).map(|(name, _)| *name);
        for name in names.chain(workloads::WORKLOADS.iter().map(|w| w.name)) {
            assert!(spec.contains(&format!("\"name\": \"{name}\"")), "{name} missing");
        }
        let map = include_str!("../layer_map.json");
        for (name, _) in layers::PER_LAYER {
            assert!(map.contains(&format!("\"{name}\"")), "{name} missing from layer_map.json");
        }
    }

    #[test]
    fn json_numbers_keep_every_digit() {
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(2.0), "2");
        assert!(std::panic::catch_unwind(|| json_number(f64::NAN)).is_err());
    }
}
