//! Analytic queue model of the NVM device, calibrated to the paper's
//! Figure 2 measurements (4 KB random reads at queue depths 1–8 on a 375 GB
//! device).
//!
//! The paper reports, for queue depth (QD) 1 through 8:
//!
//! | QD | mean latency | P99 latency | bandwidth |
//! |----|--------------|-------------|-----------|
//! | 1  | ~10 µs       | ~20 µs      | ~0.4 GB/s |
//! | 2  | ~11 µs       | ~30 µs      | ~0.75 GB/s|
//! | 4  | ~13 µs       | ~45 µs      | ~1.25 GB/s|
//! | 8  | ~14 µs       | ~75 µs      | ~2.3 GB/s |
//!
//! Two regimes govern the closed-loop behaviour: below saturation latency is
//! dominated by a base service time plus a small per-outstanding-request
//! contention term; at saturation Little's law pins latency to
//! `qd * block_size / max_bandwidth`.
//!
//! [`QueueDepthTracker`] turns the model into a bounded-depth submission
//! queue a serving shard charges its block reads through. A batch is
//! submitted up front and reaped read by read: the tracker's schedule gives
//! every read a *completion offset* — seconds from the batch's submission
//! to that read's retirement — so the host can touch each block when it
//! arrives and do its CPU work under the reads still in flight, paying
//! about max(software, device) per batch rather than their sum.

use serde::{Deserialize, Serialize};

/// Closed-loop latency/bandwidth model for a block NVM device.
///
/// # Example
///
/// ```
/// use nvm_sim::QueueModel;
///
/// let model = QueueModel::optane();
/// let qd8 = model.closed_loop(8);
/// // Bandwidth saturates near 2.3 GB/s as measured in the paper.
/// assert!((qd8.bandwidth_bytes_per_sec / 1e9 - 2.3).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueueModel {
    /// Service time of a single 4 KB read with no contention, in seconds.
    pub base_latency_s: f64,
    /// Additional mean latency per extra outstanding request, in seconds.
    pub contention_s: f64,
    /// Device read bandwidth ceiling in bytes per second.
    pub max_bandwidth_bps: f64,
    /// Block size in bytes.
    pub block_size: usize,
    /// P99/mean latency ratio at queue depth 1.
    pub tail_base: f64,
    /// Additional P99/mean ratio per extra outstanding request.
    pub tail_slope: f64,
}

/// One point of the closed-loop model: the steady-state behaviour at a fixed
/// queue depth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClosedLoopPoint {
    /// Queue depth that produced this point.
    pub queue_depth: u32,
    /// Mean request latency in seconds.
    pub mean_latency_s: f64,
    /// 99th-percentile request latency in seconds.
    pub p99_latency_s: f64,
    /// Sustained device read bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
}

impl QueueModel {
    /// Model calibrated to the 375 GB device measured in the paper (§2.2).
    pub fn optane() -> Self {
        QueueModel {
            base_latency_s: 10e-6,
            contention_s: 0.5e-6,
            max_bandwidth_bps: 2.3e9,
            block_size: 4096,
            tail_base: 2.0,
            tail_slope: 0.45,
        }
    }

    /// Mean latency at a given closed-loop queue depth, in seconds.
    ///
    /// Takes the max of the contention regime and the Little's-law bound at
    /// the bandwidth ceiling.
    pub fn mean_latency(&self, queue_depth: u32) -> f64 {
        assert!(queue_depth >= 1, "queue depth must be at least 1");
        let qd = queue_depth as f64;
        let contended = self.base_latency_s + self.contention_s * (qd - 1.0);
        let littles = qd * self.block_size as f64 / self.max_bandwidth_bps;
        contended.max(littles)
    }

    /// P99 latency at a given closed-loop queue depth, in seconds.
    pub fn p99_latency(&self, queue_depth: u32) -> f64 {
        let qd = queue_depth as f64;
        self.mean_latency(queue_depth) * (self.tail_base + self.tail_slope * (qd - 1.0))
    }

    /// Sustained bandwidth at a given closed-loop queue depth (Little's law).
    pub fn bandwidth(&self, queue_depth: u32) -> f64 {
        let qd = queue_depth as f64;
        (qd * self.block_size as f64 / self.mean_latency(queue_depth)).min(self.max_bandwidth_bps)
    }

    /// The full closed-loop operating point at a queue depth.
    pub fn closed_loop(&self, queue_depth: u32) -> ClosedLoopPoint {
        ClosedLoopPoint {
            queue_depth,
            mean_latency_s: self.mean_latency(queue_depth),
            p99_latency_s: self.p99_latency(queue_depth),
            bandwidth_bytes_per_sec: self.bandwidth(queue_depth),
        }
    }

    /// Mean latency under *open-loop* (arrival-rate-driven) load, in seconds.
    ///
    /// `offered_bps` is the offered device throughput in bytes/second. As
    /// utilization approaches 1 the queueing term diverges, reproducing the
    /// latency spike of the paper's Figure 5; beyond saturation the model
    /// returns an effectively unbounded latency (clamped at `cap` below).
    pub fn open_loop_mean_latency(&self, offered_bps: f64) -> f64 {
        assert!(offered_bps >= 0.0, "offered load must be non-negative");
        let rho = (offered_bps / self.max_bandwidth_bps).min(0.999);
        // M/D/1-flavoured waiting time: service/2 * rho/(1-rho), plus service.
        let service = self.base_latency_s;
        let wait = service / 2.0 * rho / (1.0 - rho);
        let cap = 100.0 * self.base_latency_s;
        (service + wait).min(cap)
    }

    /// P99 latency under open-loop load, in seconds.
    pub fn open_loop_p99_latency(&self, offered_bps: f64) -> f64 {
        let rho = (offered_bps / self.max_bandwidth_bps).min(0.999);
        // Tail amplification grows faster than the mean near saturation.
        let amplification = self.tail_base + 6.0 * rho * rho;
        let cap = 400.0 * self.base_latency_s;
        (self.open_loop_mean_latency(offered_bps) * amplification).min(cap)
    }

    /// Number of service channels implied by the model: how many requests the
    /// device can serve concurrently at the bandwidth ceiling.
    pub fn implied_channels(&self) -> f64 {
        self.max_bandwidth_bps * self.base_latency_s / self.block_size as f64
    }
}

impl Default for QueueModel {
    fn default() -> Self {
        QueueModel::optane()
    }
}

/// Cumulative accounting exposed by a [`QueueDepthTracker`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DepthStats {
    /// Reads submitted to the device.
    pub submitted: u64,
    /// Reads completed by the device.
    pub completed: u64,
    /// Highest queue depth ever observed.
    pub peak_depth: u32,
    /// Sum over completed reads of the depth they completed at (divide by
    /// `completed` for the mean depth a read experienced).
    pub depth_weight: u64,
    /// Total simulated device-busy time in seconds.
    pub busy_s: f64,
}

impl DepthStats {
    /// Mean queue depth experienced by completed reads (`0.0` when none).
    pub fn mean_depth(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.depth_weight as f64 / self.completed as f64
        }
    }

    /// Folds another tracker's accounting into this one (peak takes the
    /// max, everything else adds).
    pub fn merge(&mut self, other: &DepthStats) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.peak_depth = self.peak_depth.max(other.peak_depth);
        self.depth_weight += other.depth_weight;
        self.busy_s += other.busy_s;
    }
}

/// Stateful io_uring-style submission accounting over a [`QueueModel`].
///
/// A serving shard submits block reads in batches with a bounded number in
/// flight; the tracker advances a virtual device clock as reads complete,
/// charging each completion `mean_latency(d) / d` seconds at the live
/// outstanding depth `d` (Little's-law throughput at that depth, including
/// the bandwidth ceiling). The depth can never go negative: completions on
/// an idle device are ignored.
///
/// # Completion offsets
///
/// A batch is submitted at one instant and its reads retire one by one,
/// oldest first. The **completion offset** of a read is the virtual clock
/// at its retirement, in seconds from the batch's submission: the sum of
/// every completion step up to and including its own. Offsets are
/// therefore non-decreasing and the last one is the batch's whole device
/// time — [`QueueDepthTracker::charge_batch`] returns exactly that, and
/// [`QueueDepthTracker::schedule_batch`] additionally hands every offset
/// to the caller, who can then reap each read when the model says it
/// arrived and keep working while the later ones are still in flight.
///
/// # Example
///
/// ```
/// use nvm_sim::{QueueDepthTracker, QueueModel};
///
/// let mut t = QueueDepthTracker::new(QueueModel::optane(), 4);
/// // One isolated read costs exactly the QD1 service time.
/// let s = t.charge_batch(1);
/// assert!((s - 10e-6).abs() < 1e-9);
/// // A deep batch is served faster per read than QD1...
/// let batch = t.charge_batch(64);
/// assert!(batch < 64.0 * s);
/// assert_eq!(t.depth(), 0);
/// assert_eq!(t.stats().peak_depth, 4);
/// // ...and its reads arrive one by one, the last at the batch total.
/// let mut done_at = Vec::new();
/// let total = t.schedule_batch(64, &mut done_at);
/// assert_eq!(done_at.len(), 64);
/// assert_eq!(done_at.last(), Some(&total));
/// assert!(done_at[0] < total / 16.0);
/// ```
#[derive(Debug, Clone)]
pub struct QueueDepthTracker {
    model: QueueModel,
    max_inflight: u32,
    inflight: u32,
    stats: DepthStats,
}

impl QueueDepthTracker {
    /// Creates a tracker bounding the device at `max_inflight` outstanding
    /// reads.
    ///
    /// # Panics
    ///
    /// Panics if `max_inflight` is zero.
    pub fn new(model: QueueModel, max_inflight: u32) -> Self {
        assert!(max_inflight >= 1, "need at least one in-flight slot");
        QueueDepthTracker { model, max_inflight, inflight: 0, stats: DepthStats::default() }
    }

    /// The model the tracker charges through.
    pub fn model(&self) -> &QueueModel {
        &self.model
    }

    /// The in-flight bound.
    pub fn max_inflight(&self) -> u32 {
        self.max_inflight
    }

    /// Current outstanding-read depth (never negative, never above the
    /// bound).
    pub fn depth(&self) -> u32 {
        self.inflight
    }

    /// Cumulative accounting since creation.
    pub fn stats(&self) -> DepthStats {
        self.stats
    }

    /// Submits one read, first completing the oldest outstanding read if
    /// the device is at its in-flight bound. Returns the simulated seconds
    /// spent waiting for that forced completion (zero when a slot was
    /// free).
    pub fn submit(&mut self) -> f64 {
        let mut waited = 0.0;
        if self.inflight >= self.max_inflight {
            waited = self.complete();
        }
        self.inflight += 1;
        self.stats.submitted += 1;
        self.stats.peak_depth = self.stats.peak_depth.max(self.inflight);
        waited
    }

    /// Completes the oldest outstanding read, returning the simulated
    /// seconds it occupied the device at the current depth. A completion
    /// with nothing outstanding is a no-op returning `0.0` — the depth
    /// saturates at zero instead of going negative.
    pub fn complete(&mut self) -> f64 {
        if self.inflight == 0 {
            return 0.0;
        }
        let d = self.inflight;
        // At steady depth d the device retires one read every
        // mean_latency(d)/d seconds (Little's law; the mean latency already
        // folds in the bandwidth ceiling).
        let step = self.model.mean_latency(d) / f64::from(d);
        self.inflight -= 1;
        self.stats.completed += 1;
        self.stats.depth_weight += u64::from(d);
        self.stats.busy_s += step;
        step
    }

    /// Completes every outstanding read, returning the simulated seconds.
    pub fn drain(&mut self) -> f64 {
        let mut total = 0.0;
        while self.inflight > 0 {
            total += self.complete();
        }
        total
    }

    /// Charges a whole batch of reads: submits each read (completing the
    /// oldest when the in-flight bound is hit) and then drains, returning
    /// the total simulated device seconds the batch took — the completion
    /// offset of its last read.
    pub fn charge_batch(&mut self, reads: u64) -> f64 {
        self.run_batch(reads, |_| {})
    }

    /// [`QueueDepthTracker::charge_batch`] that also reports *when* each
    /// read completes: `done_at` is cleared and filled with one completion
    /// offset per read retired, oldest first (see the type docs). On an
    /// idle tracker — the only state a batch call leaves behind — that is
    /// exactly `reads` entries, and the return value is the last of them
    /// (`0.0` for an empty batch). Accounting is identical to
    /// `charge_batch(reads)`; the caller owns the buffer so a warmed one
    /// makes the call allocation-free.
    pub fn schedule_batch(&mut self, reads: u64, done_at: &mut Vec<f64>) -> f64 {
        done_at.clear();
        self.run_batch(reads, |at| done_at.push(at))
    }

    /// The one submit/complete loop behind both batch forms: `retired` sees
    /// the virtual clock at every completion.
    fn run_batch(&mut self, reads: u64, mut retired: impl FnMut(f64)) -> f64 {
        let mut clock = 0.0;
        for _ in 0..reads {
            if self.inflight >= self.max_inflight {
                clock += self.complete();
                retired(clock);
            }
            self.submit();
        }
        while self.inflight > 0 {
            clock += self.complete();
            retired(clock);
        }
        clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_matches_paper_figure2() {
        let m = QueueModel::optane();
        // QD1: ~10 µs, ~0.4 GB/s.
        let p1 = m.closed_loop(1);
        assert!((p1.mean_latency_s * 1e6 - 10.0).abs() < 0.5, "{:?}", p1);
        assert!((p1.bandwidth_bytes_per_sec / 1e9 - 0.41).abs() < 0.05, "{:?}", p1);
        // QD8: bandwidth saturates near 2.3 GB/s.
        let p8 = m.closed_loop(8);
        assert!((p8.bandwidth_bytes_per_sec / 1e9 - 2.3).abs() < 0.05, "{:?}", p8);
        assert!(p8.mean_latency_s > p1.mean_latency_s);
        // P99 at QD8 lands in the 60-90 µs band of the figure.
        assert!(p8.p99_latency_s * 1e6 > 60.0 && p8.p99_latency_s * 1e6 < 90.0, "{:?}", p8);
    }

    #[test]
    fn latency_monotone_in_queue_depth() {
        let m = QueueModel::optane();
        let mut prev = 0.0;
        for qd in 1..=64 {
            let lat = m.mean_latency(qd);
            assert!(lat >= prev, "latency decreased at qd {qd}");
            prev = lat;
        }
    }

    #[test]
    fn bandwidth_monotone_and_bounded() {
        let m = QueueModel::optane();
        let mut prev = 0.0;
        for qd in 1..=64 {
            let bw = m.bandwidth(qd);
            assert!(bw + 1e-6 >= prev, "bandwidth decreased at qd {qd}");
            assert!(bw <= m.max_bandwidth_bps + 1e-6);
            prev = bw;
        }
    }

    #[test]
    fn open_loop_latency_spikes_near_saturation() {
        let m = QueueModel::optane();
        let low = m.open_loop_mean_latency(0.1 * m.max_bandwidth_bps);
        let high = m.open_loop_mean_latency(0.99 * m.max_bandwidth_bps);
        assert!(high > 3.0 * low, "expected spike: low={low}, high={high}");
        // Past saturation the latency is clamped, not NaN/negative.
        let over = m.open_loop_mean_latency(2.0 * m.max_bandwidth_bps);
        assert!(over.is_finite() && over >= high);
    }

    #[test]
    fn p99_exceeds_mean_everywhere() {
        let m = QueueModel::optane();
        for qd in 1..=16 {
            assert!(m.p99_latency(qd) > m.mean_latency(qd));
        }
        for frac in [0.1, 0.5, 0.9] {
            let offered = frac * m.max_bandwidth_bps;
            assert!(m.open_loop_p99_latency(offered) > m.open_loop_mean_latency(offered));
        }
    }

    #[test]
    #[should_panic(expected = "queue depth must be at least 1")]
    fn zero_queue_depth_rejected() {
        QueueModel::optane().mean_latency(0);
    }

    #[test]
    fn implied_channels_reasonable() {
        // 2.3 GB/s * 10 µs / 4 KB ≈ 5.6 concurrent requests.
        let c = QueueModel::optane().implied_channels();
        assert!(c > 4.0 && c < 8.0, "channels {c}");
    }

    #[test]
    fn tracker_depth_is_bounded_and_never_negative() {
        let mut t = QueueDepthTracker::new(QueueModel::optane(), 3);
        // Completions on an idle device are no-ops.
        assert_eq!(t.complete(), 0.0);
        assert_eq!(t.depth(), 0);
        for _ in 0..10 {
            t.submit();
            assert!(t.depth() <= 3, "depth {} exceeded the bound", t.depth());
        }
        t.drain();
        assert_eq!(t.depth(), 0);
        assert_eq!(t.complete(), 0.0);
        let s = t.stats();
        assert_eq!(s.submitted, 10);
        assert_eq!(s.completed, 10);
        assert_eq!(s.peak_depth, 3);
    }

    #[test]
    fn tracker_depth1_charges_exactly_the_qd1_latency() {
        let m = QueueModel::optane();
        let mut t = QueueDepthTracker::new(m, 1);
        let total = t.charge_batch(7);
        assert!((total - 7.0 * m.mean_latency(1)).abs() < 1e-12, "total {total}");
        assert_eq!(t.stats().peak_depth, 1);
        assert!((t.stats().mean_depth() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deeper_bound_serves_batches_faster_until_saturation() {
        let m = QueueModel::optane();
        let mut prev = f64::INFINITY;
        for bound in [1u32, 2, 4, 8] {
            let mut t = QueueDepthTracker::new(m, bound);
            let total = t.charge_batch(256);
            assert!(
                total <= prev + 1e-12,
                "batch time grew from {prev} to {total} at bound {bound}"
            );
            prev = total;
        }
        // But never faster than the bandwidth ceiling allows.
        let floor = 256.0 * m.block_size as f64 / m.max_bandwidth_bps;
        assert!(prev >= floor - 1e-12, "batch beat the bandwidth ceiling: {prev} < {floor}");
    }

    #[test]
    fn tracker_stats_merge_adds_and_maxes() {
        let m = QueueModel::optane();
        let mut a = QueueDepthTracker::new(m, 2);
        let mut b = QueueDepthTracker::new(m, 8);
        a.charge_batch(10);
        b.charge_batch(20);
        let mut merged = a.stats();
        merged.merge(&b.stats());
        assert_eq!(merged.submitted, 30);
        assert_eq!(merged.completed, 30);
        assert_eq!(merged.peak_depth, 8);
        assert!((merged.busy_s - (a.stats().busy_s + b.stats().busy_s)).abs() < 1e-12);
    }

    #[test]
    fn schedule_is_charge_batch_with_the_completion_times_written_down() {
        let m = QueueModel::optane();
        for depth in 1..=8u32 {
            // Twins carry their accounting across batch sizes, so the
            // cumulative stats are compared too, not just per-call totals.
            let mut charged = QueueDepthTracker::new(m, depth);
            let mut scheduled = QueueDepthTracker::new(m, depth);
            let mut done_at = vec![f64::NAN; 3]; // stale contents must go
            for n in 0..=300u64 {
                let total = charged.charge_batch(n);
                let last = scheduled.schedule_batch(n, &mut done_at);
                assert_eq!(last.to_bits(), total.to_bits(), "depth {depth} n {n}");
                assert_eq!(done_at.len() as u64, n, "depth {depth} n {n}");
                assert_eq!(done_at.last().copied().unwrap_or(0.0).to_bits(), total.to_bits());
                assert!(done_at.windows(2).all(|w| w[0] <= w[1]), "depth {depth} n {n}");
                assert!(done_at.first().is_none_or(|&first| first > 0.0));
                assert_eq!(scheduled.stats(), charged.stats(), "depth {depth} n {n}");
                assert_eq!(scheduled.depth(), 0);
            }
        }
    }

    #[test]
    fn schedule_retires_the_first_reads_long_before_the_last() {
        // Depth 4, 131 reads (the nvm_bound batch shape): the first block
        // is there after one depth-4 completion step, not after the whole
        // batch — the window the host's CPU work hides in.
        let m = QueueModel::optane();
        let mut t = QueueDepthTracker::new(m, 4);
        let mut done_at = Vec::new();
        let total = t.schedule_batch(131, &mut done_at);
        assert!((done_at[0] - m.mean_latency(4) / 4.0).abs() < 1e-15);
        assert!(done_at[0] < total / 100.0, "first {} of total {total}", done_at[0]);
        // The tail drains at falling depth: the last step is a QD1 read.
        assert!((done_at[130] - done_at[129] - m.mean_latency(1)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one in-flight slot")]
    fn tracker_rejects_zero_bound() {
        QueueDepthTracker::new(QueueModel::optane(), 0);
    }
}
