//! The traced run: per-layer numbers taken from outside the program.
//!
//! Each layer is measured by timing the benchmark's own calls into the
//! crate's public functions, or read from counts the public reports
//! already expose; nothing inside the program is instrumented. Every
//! run made here is checked against the workload's public call (same
//! report digest), so a layer measured on the wrong inputs fails the
//! run instead of reporting a number. A metric whose layer does no
//! work on the workload reads 0; `layer_map.json` says which
//! workloads each metric is meant for.

use crate::probe::{
    batch_times, cpu_seconds, debug_digest, median, net_ns_per_call, scaling, scratch_dir,
    time_median, timer_cost_ns, ScratchFile,
};
use crate::workloads::Workload;
use crate::{Checks, Outcome, SETUP_BATCH, SETUP_BATCHES, SETUP_SECONDS};
use rand::SeedableRng;
use sleepscale::{CandidateSpec, PolicyManager, SearchMode, StrategySpec};
use sleepscale_cluster::{
    ActiveSet, Cluster, ClusterConfig, DispatchIndex, Dispatcher, RouteDecision,
};
use sleepscale_journal::{
    fnv1a64, ByteReader, ByteWriter, CodecError, Journal, JournalMeta, FRAME_LEN, HEADER_LEN,
};
use sleepscale_power::{presets, Policy, SystemState};
use sleepscale_scenario::{
    Scenario, ScenarioRunner, TelemetrySpec, WorkloadSource, JOURNAL_SCHEMA_VERSION,
};
use sleepscale_sim::{simulate_summary, Job, JobStream, StreamSplit};
use sleepscale_telemetry::{events_to_jsonl, TraceEvent};
use sleepscale_traffic::replay_traffic;
use sleepscale_workloads::{
    replay_trace, ReplayConfig, UtilizationTrace, WorkloadDistributions, WorkloadSpec,
};
use std::error::Error;
use std::hint::black_box;
use std::time::Instant;

/// Per-layer metrics, `(name, unit)`, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("scenario.new_s", "s"),
    ("workloads.tables_s", "s"),
    ("workloads.replay_s", "s"),
    ("workloads.jobs", "count"),
    ("traffic.tables_s", "s"),
    ("traffic.replay_s", "s"),
    ("core.characterizations", "count"),
    ("core.cache_hit_rate", "ratio"),
    ("core.warm_rate", "ratio"),
    ("core.policies_evaluated", "count"),
    ("core.select_ns_per_policy_job", "ns"),
    ("sim.ns_per_job", "ns"),
    ("sim.split_ns_per_job", "ns"),
    ("cluster.engine_s", "s"),
    ("cluster.route_ns_per_job", "ns"),
    ("cluster.cpu_util", "ratio"),
    ("cluster.parallel_efficiency", "ratio"),
    ("cluster.serial_fraction", "ratio"),
    ("journal.bytes_per_epoch", "bytes"),
    ("journal.overhead_s", "s"),
    ("journal.append_s", "s"),
    ("journal.open_resume_s", "s"),
    ("telemetry.events", "count"),
    ("telemetry.event_bytes", "bytes"),
    ("telemetry.overhead_s", "s"),
    ("telemetry.jsonl_ns_per_event", "ns"),
    ("autoscale.parked_server_s", "s"),
    ("autoscale.park_events", "count"),
    ("trace.overhead_s", "s"),
];

/// Jobs in the single-server stream `sim.ns_per_job` simulates.
const SIM_JOBS: usize = 500_000;

/// `eval_jobs`-long slices `core.select_ns_per_policy_job` selects over.
const SELECT_SLICES: usize = 64;

struct Layers([f64; PER_LAYER.len()]);

impl Layers {
    fn set(&mut self, name: &str, value: f64) {
        let i = PER_LAYER
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not declared in PER_LAYER"));
        self.0[i] = value;
    }
}

/// Makes the traced run of `w` and returns one value per [`PER_LAYER`]
/// entry.
///
/// # Errors
///
/// Propagates runner, journal and I/O errors (check failures are
/// recorded in `checks` instead).
pub fn traced(
    w: &Workload,
    seed: u64,
    threads: usize,
    checks: &mut Checks,
) -> Result<Vec<f64>, Box<dyn Error>> {
    let started = Instant::now();
    let mut m = Layers([0.0; PER_LAYER.len()]);
    let scenario = w.scenario(seed, threads);
    m.set("scenario.new_s", runner_new_s(&scenario));
    let runner = ScenarioRunner::new(scenario.clone())?;
    let scratch = scratch_dir();

    // The workload's public call, exactly as the end-to-end run makes it.
    let call = w.call(&runner, &scratch)?;
    let report = call.report;
    let cache = report.cache_stats();
    m.set("core.characterizations", cache.misses as f64);
    m.set("core.cache_hit_rate", cache.hit_rate());
    m.set("core.warm_rate", report.warm_start_stats().warm_rate());
    m.set("autoscale.parked_server_s", report.parked_server_seconds());
    if let Some(telemetry) = report.telemetry() {
        let events = &telemetry.events;
        let (jsonl_s, jsonl) = time_median(3, 0.0, || events_to_jsonl(events));
        m.set("telemetry.events", events.len() as f64);
        m.set("telemetry.event_bytes", jsonl.len() as f64);
        m.set("telemetry.jsonl_ns_per_event", jsonl_s * 1e9 / events.len().max(1) as f64);
        let parks = events.iter().filter(|e| matches!(e, TraceEvent::Park { .. })).count();
        m.set("autoscale.park_events", parks as f64);
        m.set("core.policies_evaluated", policies_evaluated(events));
    }
    let cluster_digest = report.cluster_report().map(debug_digest);
    let public = Outcome::of(report);

    let (spec, trace, jobs) = materialize(&mut m, &scenario)?;
    m.set("workloads.jobs", jobs.len() as f64);
    checks.expect_jobs(jobs.len());
    checks.check("public call", public);

    // The engine alone, at the scenario's thread count and at one.
    let cpu_before = cpu_seconds()?;
    let t = Instant::now();
    let report = runner.run_with_inputs(&spec, &trace, &jobs)?;
    let engine_s = t.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds()? - cpu_before;
    checks.check(&format!("engine, {threads} threads"), Outcome::of(report));
    let serial = ScenarioRunner::new(w.scenario(seed, 1))?;
    let t = Instant::now();
    let report = serial.run_with_inputs(&spec, &trace, &jobs)?;
    let serial_s = t.elapsed().as_secs_f64();
    checks.check("engine, 1 thread", Outcome::of(report));
    let s = scaling(serial_s, engine_s, threads);
    m.set("cluster.engine_s", engine_s);
    m.set("cluster.cpu_util", cpu_s / (engine_s * threads as f64));
    m.set("cluster.parallel_efficiency", s.efficiency);
    m.set("cluster.serial_fraction", s.serial_fraction);

    // The same scenario untraced and unjournaled, through run().
    if scenario.telemetry.is_some() || w.kill_after_epoch.is_some() {
        let plain = ScenarioRunner::new(Scenario { telemetry: None, ..scenario.clone() })?;
        let t = Instant::now();
        let report = plain.run()?;
        let overhead = call.wall_s - t.elapsed().as_secs_f64();
        checks.check("untraced run()", Outcome::of(report));
        if scenario.telemetry.is_some() {
            m.set("telemetry.overhead_s", overhead);
        } else {
            m.set("journal.overhead_s", overhead);
        }
    }

    // Characterization work, counted from a telemetry-armed copy when
    // the public call carried no trace (race-to-halt fleets never
    // characterize, so they skip the copy and its event volume).
    let managed = scenario.fleet.iter().any(|g| g.strategy.is_managed());
    if scenario.telemetry.is_none() && managed {
        let armed = Scenario {
            telemetry: Some(TelemetrySpec { trace_events: true, metrics: false }),
            ..scenario.clone()
        };
        let report = ScenarioRunner::new(armed)?.run_with_inputs(&spec, &trace, &jobs)?;
        let events = report.telemetry().map_or(&[][..], |t| &t.events[..]);
        m.set("core.policies_evaluated", policies_evaluated(events));
        checks.check("telemetry-armed copy", Outcome::of(report));
    }

    if let Some(want) = cluster_digest {
        let config = ClusterConfig::new(&runner.base_runtime(&spec)?, scenario.fleet.clone())?;
        let mut cluster = Cluster::new(config).with_threads(threads);
        if let Some(autoscaler) = &scenario.autoscaler {
            cluster = cluster.with_autoscaler(autoscaler.clone());
        }
        let mut timed = TimedDispatcher::new(scenario.dispatcher.build(&scenario.fleet));
        let report = cluster.run(&trace, &jobs, &mut timed)?;
        checks.same("timed-dispatcher ClusterReport", debug_digest(&report), want);
        let route_ns = net_ns_per_call(timed.nanos, timed.calls, timer_cost_ns());
        m.set("cluster.route_ns_per_job", route_ns);
    }

    let servers = scenario.total_servers();
    m.set("sim.ns_per_job", sim_ns_per_job(&scenario, &jobs, servers)?);
    let split = StreamSplit::new(scenario.dispatcher.split_seed().unwrap_or(0));
    let split_s = time_median(3, 0.3, || split.partition(jobs.jobs(), servers)).0;
    m.set("sim.split_ns_per_job", split_s * 1e9 / jobs.len() as f64);
    m.set("core.select_ns_per_policy_job", select_ns_per_policy_job(&scenario, &spec, &jobs)?);

    if w.kill_after_epoch.is_some() {
        let epochs = (scenario.load.minutes() / scenario.epoch_minutes) as u64;
        m.set("journal.bytes_per_epoch", call.journal_bytes as f64 / epochs as f64);
        let payload_len = (call.journal_bytes - HEADER_LEN) / epochs - FRAME_LEN;
        let payload: Vec<u8> = (0..payload_len).map(|i| (i % 251) as u8).collect();
        let meta = JournalMeta {
            schema_version: JOURNAL_SCHEMA_VERSION,
            seed,
            config_fingerprint: runner.config_fingerprint(),
        };
        let file = ScratchFile::new(&scratch, "journal-layer")?;
        let t = Instant::now();
        let mut journal = Journal::create(file.path(), &meta)?;
        for _ in 0..epochs {
            journal.append(&payload)?;
        }
        drop(journal);
        m.set("journal.append_s", t.elapsed().as_secs_f64());
        let t = Instant::now();
        let (_, last) = Journal::open_resume(file.path(), &meta)?;
        m.set("journal.open_resume_s", t.elapsed().as_secs_f64());
        let last = last.map_or(0, |p| fnv1a64(&p));
        checks.same("journal read-back", last, fnv1a64(&payload));
    }

    m.set("trace.overhead_s", started.elapsed().as_secs_f64() - call.wall_s);
    Ok(m.0.to_vec())
}

/// Median seconds of `ScenarioRunner::new` alone (the scenario clone
/// it consumes is made outside the timed region).
fn runner_new_s(scenario: &Scenario) -> f64 {
    let clone = || scenario.clone();
    median(&batch_times(SETUP_BATCH, SETUP_BATCHES, SETUP_SECONDS, clone, ScenarioRunner::new).0)
}

/// The runner's input materialization, split into its table-synthesis
/// and replay calls and timed per layer (`workloads` for untagged
/// sources, `traffic` for tagged ones). Consumes the RNG exactly as
/// `ScenarioRunner::inputs` does; the engine runs that follow check it
/// by digest.
fn materialize(
    m: &mut Layers,
    scenario: &Scenario,
) -> Result<(WorkloadSpec, UtilizationTrace, JobStream), Box<dyn Error>> {
    let spec = scenario.workload.resolve()?;
    let trace = scenario.load.build(scenario.arrival_scale)?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(scenario.seed);
    let replay = ReplayConfig::for_fleet(scenario.total_servers());
    let jobs = if let WorkloadSource::Tagged(model) = &scenario.workload {
        let t = Instant::now();
        let tables = model.empirical_tables(scenario.dist_samples, &mut rng)?;
        m.set("traffic.tables_s", t.elapsed().as_secs_f64());
        let t = Instant::now();
        let jobs = replay_traffic(&trace, model, &tables, &replay, &mut rng)?;
        m.set("traffic.replay_s", t.elapsed().as_secs_f64());
        jobs
    } else {
        let t = Instant::now();
        let dists = WorkloadDistributions::empirical(&spec, scenario.dist_samples, &mut rng)?;
        m.set("workloads.tables_s", t.elapsed().as_secs_f64());
        let t = Instant::now();
        let jobs = replay_trace(&trace, &dists, &replay, &mut rng)?;
        m.set("workloads.replay_s", t.elapsed().as_secs_f64());
        jobs
    };
    Ok((spec, trace, jobs))
}

/// Candidate policies simulated, summed over the trace's epoch
/// decisions.
fn policies_evaluated(events: &[TraceEvent]) -> f64 {
    events
        .iter()
        .map(|e| match e {
            TraceEvent::EpochDecision { evaluated, .. } => f64::from(*evaluated),
            _ => 0.0,
        })
        .sum()
}

/// A run of the fleet stream as one of its servers would see it: the
/// jobs of `slice` with inter-arrivals stretched by the fleet size.
fn per_server(slice: &[Job], servers: usize) -> Result<JobStream, Box<dyn Error>> {
    Ok(JobStream::new(slice.to_vec())?.with_interarrivals_scaled(servers as f64)?)
}

/// `simulate_summary` ns per job over the head of the workload's
/// stream at per-server load, under race-to-halt into C6 on the lead
/// group's machine.
fn sim_ns_per_job(
    scenario: &Scenario,
    jobs: &JobStream,
    servers: usize,
) -> Result<f64, Box<dyn Error>> {
    let n = jobs.len().min(SIM_JOBS);
    let stream = per_server(&jobs.jobs()[..n], servers)?;
    let policy = Policy::race_to_halt(presets::immediate_stage(SystemState::C6_S0I));
    let env = &scenario.fleet[0].env;
    let (s, _) = time_median(3, 0.3, || simulate_summary(&stream, &policy, env));
    Ok(s * 1e9 / n as f64)
}

/// `PolicyManager::select_from_stream` ns per (policy evaluated × job),
/// over `eval_jobs`-long slices spread evenly through the workload's
/// stream at per-server load, with the lead group's candidates and
/// search mode (the standard set for unmanaged groups).
fn select_ns_per_policy_job(
    scenario: &Scenario,
    spec: &WorkloadSpec,
    jobs: &JobStream,
) -> Result<f64, Box<dyn Error>> {
    let group = &scenario.fleet[0];
    let (candidates, search) = match &group.strategy {
        StrategySpec::SleepScale { candidates, search, .. } => (candidates.build(), *search),
        _ => (CandidateSpec::Standard.build(), SearchMode::CoarseToFine),
    };
    let manager = PolicyManager::new(
        group.env.clone(),
        group.qos,
        candidates,
        spec.service_mean(),
        scenario.eval_jobs,
    )?
    .with_search_mode(search);
    let len = scenario.eval_jobs.min(jobs.len());
    let room = jobs.len() - len;
    let (mut nanos, mut policy_jobs) = (0u128, 0u64);
    for k in 0..SELECT_SLICES {
        let start = room * k / (SELECT_SLICES - 1);
        let stream = per_server(&jobs.jobs()[start..start + len], scenario.total_servers())?;
        let rho = stream.offered_utilization().clamp(0.01, 0.95);
        let t = Instant::now();
        let selection = black_box(manager.select_from_stream(&stream, rho));
        nanos += t.elapsed().as_nanos();
        policy_jobs += (selection.evaluated * len) as u64;
    }
    Ok(nanos as f64 / policy_jobs.max(1) as f64)
}

/// Wraps the workload's dispatcher and times each routing call; the
/// wrapped run must reproduce the unwrapped report exactly, so every
/// trait method delegates.
#[derive(Debug)]
struct TimedDispatcher {
    inner: Box<dyn Dispatcher>,
    calls: u64,
    nanos: u128,
}

impl TimedDispatcher {
    fn new(inner: Box<dyn Dispatcher>) -> TimedDispatcher {
        TimedDispatcher { inner, calls: 0, nanos: 0 }
    }
}

impl Dispatcher for TimedDispatcher {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn last_route(&self) -> RouteDecision {
        self.inner.last_route()
    }

    fn route(&mut self, job: &Job, index: &DispatchIndex) -> usize {
        let t = Instant::now();
        let server = self.inner.route(job, index);
        self.nanos += t.elapsed().as_nanos();
        self.calls += 1;
        server
    }

    fn route_active(&mut self, job: &Job, index: &DispatchIndex, active: &ActiveSet<'_>) -> usize {
        let t = Instant::now();
        let server = self.inner.route_active(job, index, active);
        self.nanos += t.elapsed().as_nanos();
        self.calls += 1;
        server
    }

    fn snapshot_state(&self, w: &mut ByteWriter) {
        self.inner.snapshot_state(w);
    }

    fn restore_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.inner.restore_state(r)
    }
}
