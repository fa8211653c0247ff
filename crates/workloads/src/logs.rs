//! The runtime's job log (Section 5.2.1): a bounded window of recent
//! arrival/service observations that the policy manager replays instead
//! of building explicit distribution histograms.

use crate::error::WorkloadError;
use serde::{Deserialize, Serialize};
use sleepscale_sim::{ClassId, JobRecord, JobStream};
use std::collections::VecDeque;

/// A bounded log of `(inter-arrival gap, full-speed size)` observations.
///
/// "The logs we collect detail the arrival and service times of each job
/// … average behavior from the past several epochs will suffice." The
/// log keeps the newest `capacity` observations; the policy manager
/// replays them (rescaled to the predicted utilization) through the
/// simulator to characterize candidate policies.
///
/// ```
/// use sleepscale_workloads::JobLog;
/// let mut log = JobLog::new(4);
/// for (gap, size) in [(1.0, 0.2), (2.0, 0.3), (0.5, 0.1)] {
///     log.push(gap, size);
/// }
/// assert_eq!(log.len(), 3);
/// assert!((log.mean_size() - 0.2).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobLog {
    capacity: usize,
    interarrivals: VecDeque<f64>,
    sizes: VecDeque<f64>,
    classes: VecDeque<u16>,
    last_arrival: Option<f64>,
}

impl JobLog {
    /// A log keeping at most `capacity` observations (clamped to ≥ 1).
    pub fn new(capacity: usize) -> JobLog {
        let capacity = capacity.max(1);
        JobLog {
            capacity,
            interarrivals: VecDeque::with_capacity(capacity),
            sizes: VecDeque::with_capacity(capacity),
            classes: VecDeque::with_capacity(capacity),
            last_arrival: None,
        }
    }

    /// Records one observation directly (default traffic class).
    pub fn push(&mut self, interarrival: f64, size: f64) {
        self.push_tagged(interarrival, size, ClassId::DEFAULT);
    }

    /// Records one class-tagged observation. The tag rides along so a
    /// replay of a mixed log preserves each job's population identity
    /// (sizes are stored per job, so the replay was already
    /// per-class-correct at the sample level — the tag keeps *who* each
    /// sample was).
    pub fn push_tagged(&mut self, interarrival: f64, size: f64, class: ClassId) {
        if !interarrival.is_finite() || interarrival < 0.0 || !size.is_finite() || size <= 0.0 {
            return; // Ignore degenerate observations rather than poison the log.
        }
        if self.interarrivals.len() == self.capacity {
            self.interarrivals.pop_front();
            self.sizes.pop_front();
            self.classes.pop_front();
        }
        self.interarrivals.push_back(interarrival);
        self.sizes.push_back(size);
        self.classes.push_back(class.0);
    }

    /// Ingests an epoch's completed-job records, deriving inter-arrival
    /// gaps from consecutive arrivals (carrying the last arrival across
    /// epochs). Class tags are taken from the records' ids.
    pub fn extend_from_records(&mut self, records: &[JobRecord]) {
        for r in records {
            let gap = match self.last_arrival {
                Some(prev) => (r.arrival - prev).max(0.0),
                None => 0.0,
            };
            self.last_arrival = Some(r.arrival);
            if gap > 0.0 {
                self.push_tagged(gap, r.size, r.class());
            }
        }
    }

    /// Number of stored observations.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// True when no observations are stored.
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Mean logged inter-arrival gap (0 when empty).
    pub fn mean_interarrival(&self) -> f64 {
        if self.interarrivals.is_empty() {
            0.0
        } else {
            self.interarrivals.iter().sum::<f64>() / self.interarrivals.len() as f64
        }
    }

    /// Mean logged full-speed size (0 when empty).
    pub fn mean_size(&self) -> f64 {
        if self.sizes.is_empty() {
            0.0
        } else {
            self.sizes.iter().sum::<f64>() / self.sizes.len() as f64
        }
    }

    /// The utilization implied by the raw log,
    /// `mean_size / mean_interarrival`.
    pub fn implied_utilization(&self) -> f64 {
        let ia = self.mean_interarrival();
        if ia == 0.0 {
            0.0
        } else {
            self.mean_size() / ia
        }
    }

    /// Builds a replay stream of up to `n` jobs whose inter-arrival gaps
    /// are rescaled so the stream's offered utilization equals
    /// `target_rho` (Section 5.2.2's log adjustment). Observations are
    /// cycled if the log holds fewer than `n`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidTrace`] when the log is empty or
    /// `target_rho` is not in `(0, 1)`.
    pub fn replay(&self, n: usize, target_rho: f64) -> Result<JobStream, WorkloadError> {
        let mut stream = JobStream::default();
        self.replay_into(n, target_rho, &mut stream)?;
        Ok(stream)
    }

    /// [`JobLog::replay`] into a caller-owned stream, reusing its
    /// allocation — the policy manager replays the log every epoch, so
    /// a single long-lived buffer replaces one `Vec` allocation per
    /// selection.
    ///
    /// # Errors
    ///
    /// Same as [`JobLog::replay`]; on error `out` is left empty.
    pub fn replay_into(
        &self,
        n: usize,
        target_rho: f64,
        out: &mut JobStream,
    ) -> Result<(), WorkloadError> {
        if self.is_empty() {
            return Err(WorkloadError::InvalidTrace { reason: "job log is empty".into() });
        }
        if !(target_rho > 0.0 && target_rho < 1.0) {
            return Err(WorkloadError::InvalidTrace {
                reason: format!("target utilization {target_rho} must be in (0, 1)"),
            });
        }
        // Scale against the means of the entries actually replayed:
        // cycling `n` jobs over a shorter log double-weights the early
        // entries, so whole-log means would miss the target.
        let len = self.sizes.len();
        let (mut ia_sum, mut size_sum) = (0.0, 0.0);
        for i in 0..n {
            let idx = i % len;
            ia_sum += self.interarrivals[idx];
            size_sum += self.sizes[idx];
        }
        if ia_sum == 0.0 || size_sum == 0.0 {
            return Err(WorkloadError::InvalidTrace {
                reason: "log has zero implied utilization".into(),
            });
        }
        let replay_implied = size_sum / ia_sum;
        let scale = replay_implied / target_rho;
        let mut t = 0.0;
        let triples = (0..n).map(|i| {
            let idx = i % len;
            t += self.interarrivals[idx] * scale;
            (t, self.sizes[idx], ClassId(self.classes[idx]))
        });
        // An all-default-class log produces exactly the ids the untagged
        // refill would have assigned, so tagging is invisible to
        // single-population replay.
        out.refill_from_tagged_log(triples).map_err(WorkloadError::from)
    }

    /// A coarse fingerprint of the log's replay-relevant statistics:
    /// the mean full-speed size (~5% relative buckets) and the shape of
    /// both distributions (coefficients of variation, ~25% buckets —
    /// shape drifts far more slowly than sample noise), plus the
    /// occupancy order of magnitude.
    ///
    /// The inter-arrival *level* is deliberately excluded: replay
    /// rescales gaps to the target utilization
    /// ([`JobLog::replay_into`]), so two logs that differ only in
    /// arrival rate produce statistically identical replay streams.
    /// Two logs with equal signatures are therefore interchangeable for
    /// characterization, which is what lets the policy manager's cache
    /// key on this rather than on exact log contents — the ring buffer
    /// shifts every epoch, and homogeneous servers behind a balanced
    /// dispatcher log different jobs, but under the diurnal-similarity
    /// assumption the summary statistics sit in the same buckets for
    /// hours at a time.
    pub fn coarse_signature(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};

        // Relative (geometric) buckets; non-positive maps to a sentinel.
        fn bucket(x: f64, relative: f64) -> i64 {
            if x > 0.0 {
                (x.ln() / relative).round() as i64
            } else {
                i64::MIN
            }
        }
        fn cv(values: &VecDeque<f64>, mean: f64) -> f64 {
            if values.len() < 2 || mean == 0.0 {
                return 0.0;
            }
            let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>()
                / (values.len() - 1) as f64;
            var.sqrt() / mean
        }

        let mean_size = self.mean_size();
        let mut hasher = DefaultHasher::new();
        bucket(mean_size, 0.05).hash(&mut hasher);
        bucket(1.0 + cv(&self.interarrivals, self.mean_interarrival()), 0.25).hash(&mut hasher);
        bucket(1.0 + cv(&self.sizes, mean_size), 0.25).hash(&mut hasher);
        // Occupancy matters only in tiers: replay cycles the log, so
        // 10k vs 11k observations are interchangeable while 10 vs 10k
        // are not. Three tiers (cold / warming / warm) keep the
        // signature from churning every epoch while the ring fills.
        let occupancy_tier: u8 = match self.len() {
            0..=255 => 0,
            256..=4095 => 1,
            _ => 2,
        };
        occupancy_tier.hash(&mut hasher);
        hasher.finish()
    }
}

impl sleepscale_journal::Snapshot for JobLog {
    fn snapshot(&self, w: &mut sleepscale_journal::ByteWriter) {
        // Column by column, slice by slice: the same bytes as the
        // element-wise `VecDeque` encoding, read back in bulk.
        w.put_usize(self.capacity);
        for column in [&self.interarrivals, &self.sizes] {
            let (front, back) = column.as_slices();
            w.put_usize(column.len());
            w.put_f64s(front);
            w.put_f64s(back);
        }
        let (front, back) = self.classes.as_slices();
        w.put_usize(self.classes.len());
        w.put_u16s(front);
        w.put_u16s(back);
        self.last_arrival.snapshot(w);
    }

    fn restore(
        r: &mut sleepscale_journal::ByteReader<'_>,
    ) -> Result<JobLog, sleepscale_journal::CodecError> {
        let capacity = r.get_usize()?.max(1);
        let n = r.get_usize()?;
        let interarrivals = VecDeque::from(r.get_f64s(n)?);
        let n = r.get_usize()?;
        let sizes = VecDeque::from(r.get_f64s(n)?);
        let n = r.get_usize()?;
        let classes = VecDeque::from(r.get_u16s(n)?);
        if interarrivals.len() != sizes.len()
            || classes.len() != sizes.len()
            || sizes.len() > capacity
        {
            return Err(sleepscale_journal::CodecError::Invalid(
                "job log columns disagree in length".into(),
            ));
        }
        Ok(JobLog { capacity, interarrivals, sizes, classes, last_arrival: Option::restore(r)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(arrival: f64, size: f64) -> JobRecord {
        JobRecord {
            id: 0,
            arrival,
            start: arrival,
            departure: arrival + size,
            size,
            service: size,
            wake: 0.0,
        }
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut log = JobLog::new(2);
        log.push(1.0, 0.1);
        log.push(2.0, 0.2);
        log.push(3.0, 0.3);
        assert_eq!(log.len(), 2);
        assert!((log.mean_interarrival() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn ignores_degenerate_observations() {
        let mut log = JobLog::new(4);
        log.push(f64::NAN, 0.1);
        log.push(1.0, -0.1);
        log.push(1.0, 0.0);
        assert!(log.is_empty());
    }

    #[test]
    fn extend_from_records_derives_gaps() {
        let mut log = JobLog::new(10);
        log.extend_from_records(&[record(1.0, 0.2), record(2.5, 0.3), record(3.0, 0.1)]);
        // First record sets the clock; two gaps recorded.
        assert_eq!(log.len(), 2);
        assert!((log.mean_interarrival() - 1.0).abs() < 1e-12);
        // Next epoch carries the last arrival.
        log.extend_from_records(&[record(4.0, 0.2)]);
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn replay_hits_target_utilization() {
        let mut log = JobLog::new(100);
        for i in 0..50 {
            log.push(1.0 + 0.01 * (i % 5) as f64, 0.2);
        }
        let stream = log.replay(500, 0.5).unwrap();
        assert_eq!(stream.len(), 500);
        assert!((stream.offered_utilization() - 0.5).abs() < 0.02);
        let stream = log.replay(500, 0.1).unwrap();
        assert!((stream.offered_utilization() - 0.1).abs() < 0.01);
    }

    #[test]
    fn replay_cycles_short_logs() {
        let mut log = JobLog::new(4);
        log.push(1.0, 0.3);
        let stream = log.replay(10, 0.3).unwrap();
        assert_eq!(stream.len(), 10);
        assert!((stream.mean_size() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn replay_into_reuses_buffer_and_matches_replay() {
        let mut log = JobLog::new(100);
        for i in 0..60 {
            log.push(0.9 + 0.01 * (i % 7) as f64, 0.15 + 0.01 * (i % 3) as f64);
        }
        let fresh = log.replay(300, 0.4).unwrap();
        let mut reused = JobStream::default();
        log.replay_into(300, 0.4, &mut reused).unwrap();
        assert_eq!(reused, fresh);
        // Refill with a different target reuses the same stream object.
        log.replay_into(300, 0.2, &mut reused).unwrap();
        assert!((reused.offered_utilization() - 0.2).abs() < 0.02);
    }

    #[test]
    fn coarse_signature_is_stable_under_content_churn() {
        let mut a = JobLog::new(64);
        let mut b = JobLog::new(64);
        for i in 0..64 {
            a.push(1.0 + 0.001 * (i % 5) as f64, 0.2);
            // Same distributional shape, different entry order/phase.
            b.push(1.0 + 0.001 * ((i + 3) % 5) as f64, 0.2);
        }
        assert_eq!(a.coarse_signature(), b.coarse_signature());
        // A different arrival *rate* alone does not change the
        // signature — replay rescales it away.
        let mut faster = JobLog::new(64);
        for i in 0..64 {
            faster.push(0.5 + 0.0005 * (i % 5) as f64, 0.2);
        }
        assert_eq!(a.coarse_signature(), faster.coarse_signature());
        // A materially different service size does.
        let mut c = JobLog::new(64);
        for i in 0..64 {
            c.push(1.0 + 0.001 * (i % 5) as f64, 0.4);
        }
        assert_ne!(a.coarse_signature(), c.coarse_signature());
        // Occupancy tier matters, fine count does not.
        let mut d = JobLog::new(8192);
        for i in 0..5000 {
            d.push(1.0 + 0.001 * (i % 5) as f64, 0.2);
        }
        assert_ne!(a.coarse_signature(), d.coarse_signature());
    }

    #[test]
    fn tagged_log_replays_class_identity() {
        let mut log = JobLog::new(16);
        for i in 0..8 {
            let class = if i % 2 == 0 { ClassId(1) } else { ClassId(2) };
            log.push_tagged(1.0, if class == ClassId(1) { 0.3 } else { 0.1 }, class);
        }
        let stream = log.replay(16, 0.2).unwrap();
        assert!(stream.is_tagged());
        for (i, job) in stream.jobs().iter().enumerate() {
            let expect = if i % 2 == 0 { ClassId(1) } else { ClassId(2) };
            assert_eq!(job.class(), expect, "replay cycles tags with the observations");
            assert_eq!(job.sequence(), i as u64);
        }
        // Class tags flow from record ids into the log.
        let mut from_records = JobLog::new(8);
        let mut r1 = record(1.0, 0.2);
        r1.id = sleepscale_sim::pack_id(0, ClassId(3));
        let mut r2 = record(2.0, 0.2);
        r2.id = sleepscale_sim::pack_id(1, ClassId(5));
        from_records.extend_from_records(&[r1, r2]);
        assert_eq!(from_records.len(), 1); // first record only sets the clock
        let replayed = from_records.replay(2, 0.1).unwrap();
        assert!(replayed.jobs().iter().all(|j| j.class() == ClassId(5)));
    }

    #[test]
    fn untagged_log_replay_is_byte_identical_to_before_tags() {
        // `push` (untagged) must produce replay streams whose ids are
        // plain sequence numbers — the characterization hot path sees
        // the exact bytes it saw before class tags existed.
        let mut log = JobLog::new(32);
        for i in 0..20 {
            log.push(1.0 + 0.01 * (i % 5) as f64, 0.2);
        }
        let stream = log.replay(50, 0.4).unwrap();
        assert!(!stream.is_tagged());
        assert!(stream.jobs().iter().enumerate().all(|(i, j)| j.id == i as u64));
    }

    #[test]
    fn snapshot_of_a_wrapped_ring_matches_the_element_wise_encoding() {
        use sleepscale_journal::{ByteReader, ByteWriter, Snapshot};
        let mut log = JobLog::new(5);
        for i in 0..13u16 {
            log.push_tagged(0.1 * f64::from(i + 1), 0.01 * f64::from(i + 1), ClassId(i % 3));
        }
        assert!(!log.sizes.as_slices().1.is_empty(), "the ring must wrap for this test");
        let mut bulk = ByteWriter::new();
        log.snapshot(&mut bulk);
        let mut each = ByteWriter::new();
        each.put_usize(log.capacity);
        log.interarrivals.snapshot(&mut each);
        log.sizes.snapshot(&mut each);
        log.classes.snapshot(&mut each);
        log.last_arrival.snapshot(&mut each);
        assert_eq!(bulk.as_bytes(), each.as_bytes());
        let back = JobLog::restore(&mut ByteReader::new(bulk.as_bytes())).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn replay_validation() {
        let log = JobLog::new(4);
        assert!(log.replay(10, 0.5).is_err());
        let mut log = JobLog::new(4);
        log.push(1.0, 0.2);
        assert!(log.replay(10, 0.0).is_err());
        assert!(log.replay(10, 1.0).is_err());
    }
}
