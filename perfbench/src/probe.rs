//! Measurement helpers the benchmark keeps to itself: `/proc` readers,
//! the report digest, order statistics, Amdahl arithmetic, timer
//! calibration, and the scratch-file guard that keeps journals from
//! outliving a run.

use sleepscale_scenario::ScenarioReport;
use std::fmt::{self, Write as _};
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = parse_vm_hwm_kb(&status)
        .ok_or_else(|| io::Error::other("no VmHWM line in /proc/self/status"))?;
    Ok(kb as f64 / 1024.0)
}

/// The `VmHWM` figure of a `/proc/<pid>/status` text, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Ticks per second of the CPU-time fields in `/proc/<pid>/stat`
/// (`USER_HZ`, fixed at 100 by the Linux user-space ABI).
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system, all threads) this process has used.
pub fn cpu_seconds() -> io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    parse_stat_cpu_seconds(&stat).ok_or_else(|| io::Error::other("malformed /proc/self/stat"))
}

/// `utime + stime` of a `/proc/<pid>/stat` line, in seconds.
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    // The command name (field 2) is parenthesized and may itself hold
    // spaces or parentheses, so fields are counted from the last ')':
    // what follows starts at field 3, putting utime (14) at index 11.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// FNV-1a 64 fed incrementally from formatted text: equal to
/// `sleepscale_journal::fnv1a64` of the formatted bytes, without
/// building the string (a 100 000-server report's `Debug` form runs to
/// tens of megabytes).
struct Fnv1a64(u64);

impl fmt::Write for Fnv1a64 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Ok(())
    }
}

/// `fnv1a64` of a value's `Debug` form.
pub fn debug_digest<T: fmt::Debug + ?Sized>(value: &T) -> u64 {
    let mut hash = Fnv1a64(0xcbf2_9ce4_8422_2325);
    write!(hash, "{value:?}").expect("hashing into a u64 cannot fail");
    hash.0
}

/// The report digest every correctness comparison uses: `fnv1a64` of
/// the `Debug` form of `report.without_telemetry()`, so traced and
/// untraced runs of one scenario compare equal.
pub fn report_digest(report: ScenarioReport) -> u64 {
    debug_digest(&report.without_telemetry())
}

/// The median of `values` (the mean of the middle pair for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Times `f` in batches, each call on an argument `input` builds
/// outside the timed region. Batches start at one call and double
/// while a batch takes under [`BATCH_TARGET_S`], up to `max_batch`, so
/// sub-microsecond calls are timed in bulk and slow ones singly. Stops
/// after `min_batches` batches and `min_total_s` seconds, or after
/// `max_total_s` seconds whatever the count. Returns each batch's mean
/// seconds per call and the last call's result; results drop untimed.
pub fn batch_times<I, T>(
    max_batch: usize,
    min_batches: usize,
    (min_total_s, max_total_s): (f64, f64),
    mut input: impl FnMut() -> I,
    mut f: impl FnMut(I) -> T,
) -> (Vec<f64>, T) {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut batch = 1;
    loop {
        let inputs: Vec<I> = (0..batch).map(|_| input()).collect();
        let mut outputs = Vec::with_capacity(batch);
        let t = Instant::now();
        for i in inputs {
            outputs.push(black_box(f(i)));
        }
        let batch_s = t.elapsed().as_secs_f64();
        samples.push(batch_s / batch as f64);
        let total = start.elapsed().as_secs_f64();
        if (samples.len() >= min_batches && total >= min_total_s) || total >= max_total_s {
            let last = outputs.pop().expect("a batch holds at least one call");
            return (samples, last);
        }
        if batch_s < BATCH_TARGET_S {
            batch = (batch * 2).min(max_batch.max(1));
        }
    }
}

/// The batch duration [`batch_times`] grows its batches towards.
const BATCH_TARGET_S: f64 = 20e-6;

/// Calls `f` singly, at least `min_reps` times and for at least
/// `min_total_s` seconds; returns the median seconds per call and the
/// last result.
pub fn time_median<T>(min_reps: usize, min_total_s: f64, mut f: impl FnMut() -> T) -> (f64, T) {
    let (samples, last) = batch_times(1, min_reps, (min_total_s, f64::INFINITY), || (), |()| f());
    (median(&samples), last)
}

/// Parallel scaling of one workload from its 1-thread and `n`-thread
/// walls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scaling {
    /// Speed-up over one thread, divided by `n`.
    pub efficiency: f64,
    /// The Karp–Flatt serial fraction: the share of the 1-thread work
    /// that Amdahl's law would need to be serial to explain the
    /// measured speed-up.
    pub serial_fraction: f64,
}

/// Amdahl arithmetic over a 1-thread wall `t1` and an `n`-thread wall
/// `tn`. With `n = 1` there is no parallel measurement: the efficiency
/// is the plain wall ratio and the whole run counts as serial.
pub fn scaling(t1: f64, tn: f64, n: usize) -> Scaling {
    let speedup = t1 / tn;
    if n <= 1 {
        return Scaling { efficiency: speedup, serial_fraction: 1.0 };
    }
    let n = n as f64;
    Scaling {
        efficiency: speedup / n,
        serial_fraction: (1.0 / speedup - 1.0 / n) / (1.0 - 1.0 / n),
    }
}

/// Mean nanoseconds one `Instant::now()` + `elapsed()` pair adds
/// around an empty region — what a per-call timer adds to each call it
/// measures.
pub fn timer_cost_ns() -> f64 {
    const PAIRS: u32 = 200_000;
    let mut total = 0u128;
    for _ in 0..PAIRS {
        let t = Instant::now();
        black_box(());
        total += t.elapsed().as_nanos();
    }
    total as f64 / f64::from(PAIRS)
}

/// Nanoseconds per call net of the timer: the measured mean minus the
/// calibrated timer cost, floored at 0 (0 when nothing was called).
pub fn net_ns_per_call(total_ns: u128, calls: u64, timer_ns: f64) -> f64 {
    if calls == 0 {
        return 0.0;
    }
    (total_ns as f64 / calls as f64 - timer_ns).max(0.0)
}

/// Where scratch files go: under the build directory (`CARGO_TARGET_DIR`
/// when set, relative to the working directory, else this package's
/// `target/`), so a run writes nothing outside its checkout.
pub fn scratch_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"))
        .join("perfbench-scratch")
}

/// A scratch file owned by this process, removed when the guard drops —
/// on success, on an early error return, and on unwind — so a failing
/// checkpointed run cannot leave its journal (over a gigabyte for
/// `fleet64-resume`) behind. Creating one also removes files that
/// processes no longer alive left after being killed outright.
#[derive(Debug)]
pub struct ScratchFile {
    path: PathBuf,
}

impl ScratchFile {
    /// Reserves `<dir>/<stem>-<pid>.journal` (the file itself is left
    /// for the caller to create).
    pub fn new(dir: &Path, stem: &str) -> io::Result<ScratchFile> {
        std::fs::create_dir_all(dir)?;
        remove_orphans(dir)?;
        let path = dir.join(format!("{stem}-{}.journal", std::process::id()));
        remove_if_present(&path)?;
        Ok(ScratchFile { path })
    }

    /// The reserved path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

fn remove_if_present(path: &Path) -> io::Result<()> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// Removes `*-<pid>.journal` files in `dir` whose process has exited.
fn remove_orphans(dir: &Path) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let pid = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_suffix(".journal"))
            .and_then(|n| n.rsplit_once('-'))
            .and_then(|(_, pid)| pid.parse::<u32>().ok());
        if let Some(pid) = pid {
            if !Path::new(&format!("/proc/{pid}")).exists() {
                remove_if_present(&path)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parses_from_status_text() {
        let status = "Name:\tperfbench\nVmPeak:\t  999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
        assert!(peak_rss_mb().unwrap() > 0.0, "this process has resident pages");
    }

    #[test]
    fn cpu_time_parses_past_a_hostile_command_name() {
        // Fields 3..=13 are filler; utime = 250 ticks, stime = 50 ticks.
        let stat = "4242 (a) b (c) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 1 0";
        assert_eq!(parse_stat_cpu_seconds(stat), Some(3.0));
        assert_eq!(parse_stat_cpu_seconds("4242 (x) S 1 2"), None);
        let before = cpu_seconds().unwrap();
        let spin = Instant::now();
        let mut x = 0u64;
        while spin.elapsed().as_secs_f64() < 0.05 {
            x = black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds().unwrap() >= before);
    }

    #[test]
    fn digest_matches_the_journal_fnv_of_the_debug_text() {
        let value = (vec![1.5_f64, -0.0, f64::MIN_POSITIVE], "ünïcode", Some(42u64));
        let text = format!("{value:?}");
        assert_eq!(debug_digest(&value), sleepscale_journal::fnv1a64(text.as_bytes()));
        assert_ne!(debug_digest(&1.0_f64), debug_digest(&1.0000000000000002_f64));
    }

    #[test]
    fn report_digest_ignores_telemetry_only() {
        use sleepscale_scenario::prelude::*;
        let mut scenario = Scenario::new(
            "digest",
            WorkloadSource::Dns,
            LoadSchedule::Constant { rho: 0.2, minutes: 10 },
        );
        scenario.fleet = vec![ServerGroup::new("fleet", 2, StrategySpec::race_to_halt_c6())];
        scenario.dist_samples = 1_000;
        let plain = ScenarioRunner::new(scenario.clone()).unwrap().run().unwrap();
        scenario.telemetry = Some(TelemetrySpec::full());
        let traced = ScenarioRunner::new(scenario.clone()).unwrap().run().unwrap();
        assert!(traced.telemetry().is_some());
        assert_eq!(report_digest(traced), report_digest(plain.clone()));
        scenario.seed += 1;
        let reseeded = ScenarioRunner::new(scenario).unwrap().run().unwrap();
        assert_ne!(report_digest(reseeded), report_digest(plain));
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn batch_times_grows_batches_and_respects_both_stops() {
        let (mut built, mut called) = (0, 0);
        let (samples, last) = batch_times(
            4,
            5,
            (0.0, 60.0),
            || {
                built += 1;
                built
            },
            |i| {
                called += 1;
                i * 10
            },
        );
        // Batches of 1, 2, 4, 4, 4 calls.
        assert_eq!((samples.len(), built, called, last), (5, 15, 15, 150));
        // A slow call is timed singly and the time cap ends the window.
        let slow = || std::thread::sleep(std::time::Duration::from_millis(30));
        let (samples, ()) = batch_times(32, 1_000, (0.0, 0.05), || (), |()| slow());
        assert!((1..=2).contains(&samples.len()), "{samples:?}");
        assert!(samples.iter().all(|&s| s >= 0.03), "{samples:?}");
    }

    #[test]
    fn scaling_follows_amdahl() {
        // Perfect scaling: no serial work.
        let s = scaling(10.0, 5.0, 2);
        assert!((s.efficiency - 1.0).abs() < 1e-12);
        assert!(s.serial_fraction.abs() < 1e-12);
        // No speed-up at all: everything serial.
        let s = scaling(8.0, 8.0, 4);
        assert!((s.efficiency - 0.25).abs() < 1e-12);
        assert!((s.serial_fraction - 1.0).abs() < 1e-12);
        // Amdahl with serial share f = 0.2 on 4 threads: T4 = 0.2 + 0.8/4.
        let s = scaling(1.0, 0.4, 4);
        assert!((s.serial_fraction - 0.2).abs() < 1e-12);
        assert!((s.efficiency - 0.625).abs() < 1e-12);
        // One thread: nothing to infer.
        assert_eq!(scaling(3.0, 3.0, 1), Scaling { efficiency: 1.0, serial_fraction: 1.0 });
    }

    #[test]
    fn timer_cost_is_subtracted_and_floored() {
        assert_eq!(net_ns_per_call(1_000, 10, 30.0), 70.0);
        assert_eq!(net_ns_per_call(1_000, 10, 150.0), 0.0);
        assert_eq!(net_ns_per_call(0, 0, 30.0), 0.0);
        let cost = timer_cost_ns();
        assert!(cost > 0.0 && cost < 10_000.0, "timer pair cost {cost} ns");
    }

    #[test]
    fn time_median_honours_both_minimums() {
        let mut calls = 0;
        let (per_call, last) = time_median(5, 0.0, || {
            calls += 1;
            calls
        });
        assert_eq!((calls, last), (5, 5));
        assert!(per_call >= 0.0);
    }

    #[test]
    fn scratch_file_is_removed_on_drop_and_unwind_and_orphans_are_reaped() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("perfbench-test-{}", std::process::id()));
        let orphan = dir.join("fleet64-resume-4294967295.journal");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&orphan, b"left by a killed run").unwrap();
        let path = {
            let file = ScratchFile::new(&dir, "drop").unwrap();
            std::fs::write(file.path(), b"journal").unwrap();
            file.path().to_path_buf()
        };
        assert!(!path.exists(), "dropped guard removes its file");
        assert!(!orphan.exists(), "a dead process's journal is reaped");
        let unwound = std::panic::catch_unwind(|| {
            let file = ScratchFile::new(&dir, "unwind").unwrap();
            std::fs::write(file.path(), b"journal").unwrap();
            panic!("run failed mid-way: {}", file.path().display());
        });
        assert!(unwound.is_err());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "unwinding removes the file");
        std::fs::remove_dir(&dir).unwrap();
    }
}
