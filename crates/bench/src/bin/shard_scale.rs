//! Gates the sharded mega-fleet engine (PR 7).
//!
//! Two checks:
//!
//! 1. **Byte parity.** The catalog's 64-server `fleet64` day (reduced
//!    under `--quick`), with the dispatcher switched to seeded-hash
//!    routing, must produce a byte-identical `ClusterReport` from
//!    `Cluster::run_sharded` for every shard count in {1, 2, 4, 7} —
//!    and from the central engine with a `SplitUniform` dispatcher
//!    over the same seed. One shard *is* today's engine; more shards
//!    change wall-clock only.
//! 2. **Mega-fleet throughput** (full mode only). A 100 000-server
//!    race-to-halt fleet over a 10-minute constant-ρ window (~46 M
//!    jobs) must dispatch at ≥ 10 M jobs/sec aggregate on ≥ 4 hardware
//!    threads; on smaller machines the bar scales linearly
//!    (`10 M × min(cores, 4) / 4` — 2.5 M jobs/sec on one core), since
//!    shard concurrency cannot manufacture cores.
//!
//! Run with `cargo run --release -p sleepscale-bench --bin shard_scale`
//! (`--quick` for parity-only on the reduced fleet). Emits
//! `results/shard_scale.csv` and the machine-readable
//! `results/bench_shard_scale.json` — in full mode it also records the
//! process's peak resident set after the mega run as
//! `mega_peak_rss_mb` (0 under `--quick` or where `/proc` is
//! unreadable); exits non-zero on any parity break or a missed
//! throughput bar.

use rand::SeedableRng;
use sleepscale::{QosConstraint, RuntimeConfig, StrategySpec};
use sleepscale_bench::{require_io, write_csv, GateSummary, JsonValue};
use sleepscale_cluster::{Cluster, ClusterConfig, ClusterReport, ServerGroup, SplitUniform};
use sleepscale_scenario::{catalog, DispatcherSpec, ScenarioRunner};
use sleepscale_sim::StreamSplit;
use sleepscale_workloads::{
    replay_trace, ReplayConfig, UtilizationTrace, WorkloadDistributions, WorkloadSpec,
};
use std::time::Instant;

/// The split seed the parity fleet routes under (arbitrary, pinned).
const SPLIT_SEED: u64 = 64;

struct ParityRun {
    shards: usize,
    wall_ms: f64,
    jobs_per_sec: f64,
    identical: bool,
}

/// Runs the parity fleet centrally (`SplitUniform`) and sharded for
/// every count in `shard_counts`, returning per-count timings and
/// whether each report matched the central bytes.
fn parity(quick: bool, shard_counts: &[usize]) -> (usize, usize, usize, Vec<ParityRun>) {
    let mut scenario = catalog::fleet64();
    scenario.dispatcher = DispatcherSpec::SplitUniform { seed: SPLIT_SEED };
    if quick {
        scenario = scenario.quick();
    }
    let n_servers = scenario.total_servers();
    let minutes = scenario.load.minutes();
    let runner = ScenarioRunner::new(scenario.clone()).expect("catalog scenario is valid");
    let (spec, trace, jobs) = runner.inputs().expect("inputs materialize");
    let base = runner.base_runtime(&spec).expect("valid runtime config");
    let config = ClusterConfig::new(&base, scenario.fleet.clone()).expect("valid fleet");

    println!(
        "== shard_scale parity: {n_servers}-server fleet64 day, {minutes} min, {} jobs ==",
        jobs.len()
    );
    let reference = {
        let mut cluster = Cluster::new(config.clone());
        cluster.run(&trace, &jobs, &mut SplitUniform::new(SPLIT_SEED)).expect("central run")
    };
    let runs = shard_counts
        .iter()
        .map(|&shards| {
            let mut cluster = Cluster::new(config.clone());
            let t0 = Instant::now();
            let report = cluster
                .run_sharded(&trace, &jobs, StreamSplit::new(SPLIT_SEED), shards)
                .expect("sharded run");
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            let identical = identical_reports(&report, &reference);
            println!(
                "shards={shards:<4} wall={wall_ms:>8.0} ms  jobs/sec={:>9.0}  parity: {}",
                jobs.len() as f64 / (wall_ms / 1e3),
                if identical { "identical" } else { "BROKEN" }
            );
            ParityRun {
                shards,
                wall_ms,
                jobs_per_sec: jobs.len() as f64 / (wall_ms / 1e3),
                identical,
            }
        })
        .collect();
    (n_servers, minutes, jobs.len(), runs)
}

/// Byte-level report comparison: structural equality plus bit equality
/// on the aggregate floats (PartialEq alone would accept -0.0 == 0.0).
fn identical_reports(a: &ClusterReport, b: &ClusterReport) -> bool {
    a == b
        && a.mean_response_seconds().to_bits() == b.mean_response_seconds().to_bits()
        && a.p95_response_seconds().to_bits() == b.p95_response_seconds().to_bits()
        && a.total_energy_joules().to_bits() == b.total_energy_joules().to_bits()
        && a.active_energy_joules().to_bits() == b.active_energy_joules().to_bits()
        && a.servers().len() == b.servers().len()
        && a.servers()
            .iter()
            .zip(b.servers())
            .all(|(x, y)| x.energy_joules.to_bits() == y.energy_joules.to_bits())
}

/// Shard sizing for the mega run: ~64 servers per shard keeps each
/// shard's slot working set cache-resident (the dominant cost at this
/// scale is memory traffic, not arithmetic), floored so every
/// hardware thread has plenty of shards to pick up. Determinism is
/// shard-count invariant, so this is purely a throughput choice.
fn mega_shards(n_servers: usize, cores: usize) -> usize {
    (n_servers / 64).max(cores * 64).clamp(1, n_servers)
}

/// The mega-fleet throughput run: `n_servers` race-to-halt servers
/// (no characterization, no record buffers) over a constant-ρ window.
/// Job materialization is excluded from the timed region — the gate
/// measures the dispatch engine, not the RNG.
fn mega(n_servers: usize, cores: usize) -> (usize, f64, f64) {
    let spec = WorkloadSpec::dns();
    let minutes = 10;
    let rho = 0.15;
    let runtime = RuntimeConfig::builder(spec.service_mean())
        .qos(QosConstraint::mean_response(0.8).expect("valid qos"))
        .epoch_minutes(5)
        .eval_jobs(50)
        .build()
        .expect("valid runtime");
    let groups = vec![ServerGroup::new("race", n_servers, StrategySpec::race_to_halt_c6())];
    let config = ClusterConfig::new(&runtime, groups).expect("valid fleet");
    let mut rng = rand::rngs::StdRng::seed_from_u64(100_000);
    let dists = WorkloadDistributions::empirical(&spec, 8_000, &mut rng).expect("tables fit");
    let trace = UtilizationTrace::constant(rho, minutes).expect("valid trace");
    println!("\n== shard_scale mega: materializing the {n_servers}-server stream... ==");
    let jobs = replay_trace(&trace, &dists, &ReplayConfig::for_fleet(n_servers), &mut rng)
        .expect("valid replay");
    let shards = mega_shards(n_servers, cores);
    println!(
        "{} jobs over {n_servers} servers, {shards} shards, {cores} hardware threads",
        jobs.len()
    );
    let mut cluster = Cluster::new(config);
    let t0 = Instant::now();
    let report = cluster
        .run_sharded(&trace, &jobs, StreamSplit::new(SPLIT_SEED), shards)
        .expect("mega run succeeds");
    let wall_s = t0.elapsed().as_secs_f64();
    assert_eq!(report.total_jobs(), jobs.len(), "the fleet must serve every job");
    let jobs_per_sec = jobs.len() as f64 / wall_s;
    println!("mega day: {:.1} s wall, {jobs_per_sec:.0} jobs/sec aggregate", wall_s);
    (jobs.len(), wall_s * 1e3, jobs_per_sec)
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status`
/// text, in MiB.
fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// This process's peak resident set in MiB, or 0 where `/proc` is
/// unreadable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| parse_vm_hwm_mb(&status))
        .unwrap_or(0.0)
}

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut summary = GateSummary::start("shard_scale", quick);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let shard_counts = [1usize, 2, 4, 7];
    let (n_servers, minutes, parity_jobs, runs) = parity(quick, &shard_counts);
    let parity_ok = runs.iter().all(|r| r.identical);

    let mut rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                "parity".into(),
                n_servers.to_string(),
                r.shards.to_string(),
                minutes.to_string(),
                parity_jobs.to_string(),
                format!("{:.1}", r.wall_ms),
                format!("{:.0}", r.jobs_per_sec),
                r.identical.to_string(),
                cores.to_string(),
            ]
        })
        .collect();

    // Throughput: full mode runs the 100k-server day; the bar scales
    // with the hardware actually present (the >=10M jobs/sec target
    // assumes >=4 threads).
    let mega_servers = 100_000usize;
    let bar = 10e6 * cores.min(4) as f64 / 4.0;
    let (mega_jobs, mega_wall_ms, mega_jobs_per_sec) =
        if quick { (0, 0.0, 0.0) } else { mega(mega_servers, cores) };
    let mega_peak_rss_mb = if quick { 0.0 } else { peak_rss_mb() };
    if !quick {
        println!("peak resident set after the mega run: {mega_peak_rss_mb:.1} MiB");
        rows.push(vec![
            "mega".into(),
            mega_servers.to_string(),
            mega_shards(mega_servers, cores).to_string(),
            "10".into(),
            mega_jobs.to_string(),
            format!("{mega_wall_ms:.1}"),
            format!("{mega_jobs_per_sec:.0}"),
            parity_ok.to_string(),
            cores.to_string(),
        ]);
    }
    let path = require_io(
        "writing shard_scale.csv",
        write_csv(
            "shard_scale",
            &[
                "phase",
                "n_servers",
                "shards",
                "minutes",
                "jobs",
                "wall_ms",
                "jobs_per_sec",
                "parity_ok",
                "hardware_threads",
            ],
            &rows,
        ),
    );
    println!("wrote {}", path.display());

    let throughput_ok = quick || mega_jobs_per_sec >= bar;
    summary.field("parity_n_servers", JsonValue::Int(n_servers as u64));
    summary.field(
        "parity_shard_counts",
        JsonValue::Str(shard_counts.iter().map(|s| s.to_string()).collect::<Vec<_>>().join(",")),
    );
    summary.field("parity_ok", JsonValue::Bool(parity_ok));
    summary.field("mega_servers", JsonValue::Int(if quick { 0 } else { mega_servers as u64 }));
    summary.field("mega_jobs", JsonValue::Int(mega_jobs as u64));
    summary.field("mega_jobs_per_sec", JsonValue::Num(mega_jobs_per_sec));
    summary.field("mega_peak_rss_mb", JsonValue::Num(mega_peak_rss_mb));
    summary.field("bar_jobs_per_sec", JsonValue::Num(if quick { 0.0 } else { bar }));
    let total_jobs = (parity_jobs * (shard_counts.len() + 1) + mega_jobs) as u64;
    summary.finish(parity_ok && throughput_ok, total_jobs);

    if !parity_ok {
        eprintln!("PARITY FAILED: sharded reports diverged from the central SplitUniform engine");
        std::process::exit(1);
    }
    if quick {
        println!("(quick mode: parity only — the mega-fleet throughput bar is not enforced)");
        return Ok(());
    }
    if mega_jobs_per_sec < bar {
        eprintln!(
            "ACCEPTANCE FAILED: need >={bar:.0} jobs/sec aggregate on {cores} hardware threads \
             (10M scaled by min(cores,4)/4), got {mega_jobs_per_sec:.0}"
        );
        std::process::exit(1);
    }
    println!(
        "acceptance: byte-identical for shards {{1,2,4,7}} and {mega_jobs_per_sec:.0} jobs/sec \
         >= {bar:.0} on {cores} hardware threads — OK"
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parses_in_mib() {
        let status = "Name:\tshard_scale\nVmPeak:\t 9999 kB\nVmHWM:\t  2048 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t 12 MB\n"), None);
    }
}
