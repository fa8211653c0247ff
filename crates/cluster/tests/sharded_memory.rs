//! The sharded engine runs in bounded memory: a multi-worker
//! `Cluster::run_sharded` buckets each epoch's arrivals into reusable
//! per-shard lanes instead of copying the whole stream, so its peak
//! live heap above the pre-run level stays a fraction of the stream it
//! reads.
//!
//! The bound is measured, not assumed: this test binary installs a
//! counting allocator that tracks live bytes across every thread and
//! the high-water mark they reach. The binary holds a single test so
//! no concurrent test can move the counters.

use rand::SeedableRng;
use sleepscale::{QosConstraint, RuntimeConfig, StrategySpec};
use sleepscale_cluster::{Cluster, ClusterConfig, ServerGroup};
use sleepscale_sim::{Job, StreamSplit};
use sleepscale_workloads::{
    replay_trace, ReplayConfig, UtilizationTrace, WorkloadDistributions, WorkloadSpec,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct PeakLive;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call forwards unchanged to the system allocator; the
// only addition is a pair of atomic counters that never allocate.
unsafe impl GlobalAlloc for PeakLive {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: PeakLive = PeakLive;

#[test]
fn multi_worker_sharded_run_never_holds_a_second_copy_of_the_stream() {
    let n = 16;
    let minutes = 120; // 24 five-minute epochs
    let spec = WorkloadSpec::dns();
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let dists = WorkloadDistributions::empirical(&spec, 4_000, &mut rng).expect("spec fits");
    let trace = UtilizationTrace::constant(0.5, minutes).expect("valid trace");
    let jobs =
        replay_trace(&trace, &dists, &ReplayConfig::for_fleet(n), &mut rng).expect("valid replay");
    let runtime = RuntimeConfig::builder(spec.service_mean())
        .qos(QosConstraint::mean_response(0.8).expect("valid"))
        .epoch_minutes(5)
        .eval_jobs(50)
        .build()
        .expect("valid config");
    let groups = vec![ServerGroup::new("race", n, StrategySpec::race_to_halt_c6())];
    let config = ClusterConfig::new(&runtime, groups).expect("valid fleet");
    let stream_bytes = jobs.len() * std::mem::size_of::<Job>();

    let mut cluster = Cluster::new(config).with_threads(2);
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let report = cluster.run_sharded(&trace, &jobs, StreamSplit::new(7), 4).expect("run succeeds");
    let peak_above = PEAK.load(Ordering::Relaxed).saturating_sub(before);

    assert_eq!(report.total_jobs(), jobs.len(), "the fleet must serve every job");
    assert!(
        peak_above < stream_bytes / 2,
        "a {n}-server sharded run over a {stream_bytes}-byte stream ({} jobs) peaked at {peak_above} \
         live bytes above its starting heap — at least half a stream copy",
        jobs.len()
    );
}
