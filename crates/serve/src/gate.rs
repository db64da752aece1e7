//! The device gate: where a shard worker's wall clock meets the simulated
//! device's virtual one.
//!
//! A micro-batch's block reads are all submitted to the
//! [`QueueDepthTracker`] at one instant; the tracker answers with a
//! completion offset per read (seconds from submission, oldest first). The
//! gate pins that schedule to the wall clock — read `k` has arrived once
//! `submitted + done_at[k]` has passed — and the worker calls
//! [`DeviceGate::await_next`] ahead of every block it touches. Whatever CPU
//! work sits between two calls (payload copies, cache admission, scatter)
//! runs while the later reads are still in flight, so a batch costs about
//! max(software, device) of wall time and the gate only ever *stalls* for
//! the part of the device time the software did not cover. That stalled
//! time is reported, so "device-bound" (stall ≈ busy) and "CPU-bound"
//! (stall ≈ 0) can be told apart from the exported series alone.
//!
//! A real NVM read blocks the issuing context without burning CPU, so a
//! stalled worker gives its core away. Reads complete microseconds apart,
//! well below what a sleep can resolve, so the gate sleeps at most once
//! per batch rather than once per read: the batch's first wait that finds
//! its read not yet due plans the one wake-up. [`plan_wake`] picks the
//! latest instant the worker can wake and still
//! reap the reads left before the batch's last one lands — that last
//! completion, less the reads left times the worker's measured software
//! time per read, less the *wake margin*, the amount by which a sleep
//! overruns what it asked for. The margin is calibrated when a shard
//! worker starts ([`DeviceGate::calibrate`]) and updated from every sleep
//! after. The worker sleeps only when that instant is more than a margin
//! away; from there (and in a batch too short to sleep at all) it yields
//! the core until each read is due, as it always did. So a batch ends when
//! it would have had the worker yielded throughout, while the core is free
//! for peer shards, submitters and the metrics bus for most of the wait.
//!
//! The stall is reported split into its slept and yielded parts
//! ([`GateStats`]), with the sleeps that woke later than their plan
//! needed: those are the ones that can have delayed a batch.
//!
//! With no device queue configured nothing is submitted, the schedule is
//! empty and every wait is a no-op.

use nvm_sim::QueueDepthTracker;
use std::time::{Duration, Instant};

/// Sleep overshoots the margin is the fence of: one window of recent ones.
const OVERSHOOTS: usize = 16;

/// What each calibration sleep asks for; the overshoot barely depends on it.
const CALIBRATION_SLEEP: Duration = Duration::from_micros(50);

/// Gaps behind the running estimate of software time per reaped read.
const COST_MEMORY: u32 = 16;

/// What one shard worker's device gate has done since the worker started.
/// The gate sleeps through the part of a batch's device wait that the
/// worker's remaining software cannot cover, then yields the core until
/// each read is due; a real read would block without burning CPU.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GateStats {
    /// Wall seconds stalled in planned sleeps.
    pub sleep_s: f64,
    /// Wall seconds stalled yielding the core until a read was due.
    pub yield_s: f64,
    /// Sleeps taken: the base of `late_wakes`.
    pub sleeps: u64,
    /// Sleeps that returned after the instant the worker had to resume by
    /// to reap its remaining reads before the batch's last one landed —
    /// for a wait on that last read, after it was due.
    pub late_wakes: u64,
    /// How far ahead of that instant a sleep is asked to end: the upper
    /// fence (Q3 + 1.5 IQR) of the last 16 sleeps' overshoots, less the
    /// largest ones batches that could not sleep have since dropped. Zero
    /// for a gate that never calibrated; across shards, the largest.
    pub wake_margin_s: f64,
}

impl GateStats {
    /// Wall seconds stalled at the gate in all: slept plus yielded, exactly.
    pub fn stall_s(&self) -> f64 {
        self.sleep_s + self.yield_s
    }

    /// Folds another shard's gate into this total.
    pub fn merge(&mut self, other: &GateStats) {
        self.sleep_s += other.sleep_s;
        self.yield_s += other.yield_s;
        self.sleeps += other.sleeps;
        self.late_wakes += other.late_wakes;
        self.wake_margin_s = self.wake_margin_s.max(other.wake_margin_s);
    }
}

/// The wake-up for a wait on read `next` of a batch whose reads complete
/// at `done_at` (seconds from submission), taken at `now` (same clock):
/// the instant to sleep until, or `None` when no sleep fits. The worker
/// must be back by the last completion less `block_cost` seconds of
/// software per read still to reap (read `next` included); the wake is
/// that, less `margin` for the sleep's overshoot, and is planned only
/// when it lies more than `margin` after `now`.
pub(crate) fn plan_wake(
    now: f64,
    done_at: &[f64],
    next: usize,
    block_cost: f64,
    margin: f64,
) -> Option<f64> {
    let &last = done_at.last()?;
    let left = done_at.len().saturating_sub(next) as f64;
    let wake = last - left * block_cost - margin;
    (wake - now > margin).then_some(wake)
}

/// How one wait spent its wall time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Waited {
    /// Inside `thread::sleep`.
    pub slept: Duration,
    /// Yielding the core after that, until the deadline passed.
    pub yielded: Duration,
    /// When the wait returned.
    pub end: Instant,
}

/// Lets simulated device time actually elapse: sleeps for `sleep` (none
/// when zero), then yields the core until `deadline` has passed. A read's
/// wait is µs-scale, below what a sleep resolves, so the caller plans any
/// sleep per batch ([`plan_wake`]) and the yield covers whatever of the
/// wait is left after it; the yield gives the core to whatever else is
/// ready — peer shards, the submitters, the metrics bus — instead of
/// spinning (on a single-core host a spinning worker would starve exactly
/// the control loop that is supposed to observe this congestion). Never
/// returns before `deadline`; `slept + yielded` is the whole wait, to the
/// nanosecond.
pub(crate) fn wait_until(deadline: Instant, sleep: Duration) -> Waited {
    let start = Instant::now();
    let woke = if sleep.is_zero() {
        start
    } else {
        std::thread::sleep(sleep);
        Instant::now()
    };
    let mut now = woke;
    while now < deadline {
        std::thread::yield_now();
        now = Instant::now();
    }
    Waited { slept: woke - start, yielded: now - woke, end: now }
}

/// One shard worker's view of the reads it has in flight (see the
/// [module docs](self)). Reused across micro-batches so the schedule
/// buffer is allocated once, and so its estimates carry from batch to
/// batch.
#[derive(Debug)]
pub(crate) struct DeviceGate {
    /// Completion offset of each read of the batch in flight.
    done_at: Vec<f64>,
    /// When that batch was submitted.
    submitted: Instant,
    /// The read the next [`DeviceGate::await_next`] waits for.
    next: usize,
    /// Wall time spent waiting on this batch so far.
    stalled: Duration,
    /// Whether this batch has planned its wake-up yet.
    planned: bool,
    /// When the worker last left the gate (or submitted): the start of the
    /// software gap the next wait measures.
    left_gate: Instant,
    /// Running mean of those gaps — software seconds per reaped read.
    block_cost: f64,
    /// Gaps folded into `block_cost`, up to [`COST_MEMORY`]; no sleep is
    /// planned before it gets there.
    gaps: u32,
    /// The last [`OVERSHOOTS`] sleeps' overshoots, in seconds, oldest
    /// overwritten first.
    overshoots: [f64; OVERSHOOTS],
    /// Where the next overshoot goes.
    overshoot_at: usize,
    /// The wake margin: `None` until [`DeviceGate::calibrate`] ran, and no
    /// sleep is planned before then.
    margin: Option<f64>,
    /// The window's median overshoot.
    typical_overshoot: f64,
    /// Batches only the margin kept from sleeping, modulo [`OVERSHOOTS`].
    declined: u32,
    /// Cumulative wall time slept and yielded, sleeps, and late wake-ups.
    slept: Duration,
    yielded: Duration,
    sleeps: u64,
    late_wakes: u64,
}

impl DeviceGate {
    pub(crate) fn new() -> Self {
        let now = Instant::now();
        DeviceGate {
            done_at: Vec::new(),
            submitted: now,
            next: 0,
            stalled: Duration::ZERO,
            planned: false,
            left_gate: now,
            block_cost: 0.0,
            gaps: 0,
            overshoots: [0.0; OVERSHOOTS],
            overshoot_at: 0,
            margin: None,
            typical_overshoot: 0.0,
            declined: 0,
            slept: Duration::ZERO,
            yielded: Duration::ZERO,
            sleeps: 0,
            late_wakes: 0,
        }
    }

    /// Measures how far this thread's sleeps overrun before any batch
    /// relies on it: one window of short sleeps, about a millisecond and
    /// a half in all.
    pub(crate) fn calibrate(&mut self) {
        for _ in 0..OVERSHOOTS {
            let start = Instant::now();
            std::thread::sleep(CALIBRATION_SLEEP);
            self.note_overshoot(start.elapsed().saturating_sub(CALIBRATION_SLEEP));
        }
    }

    /// The gate's counters so far.
    pub(crate) fn stats(&self) -> GateStats {
        GateStats {
            sleep_s: self.slept.as_secs_f64(),
            yield_s: self.yielded.as_secs_f64(),
            sleeps: self.sleeps,
            late_wakes: self.late_wakes,
            wake_margin_s: self.margin.unwrap_or(0.0),
        }
    }

    /// Submits a batch of `reads` block reads now and returns the simulated
    /// device seconds the whole batch is charged — the last read's
    /// completion offset. Without a tracker (no device queue configured)
    /// nothing is charged and nothing will be waited for.
    pub(crate) fn submit(&mut self, tracker: Option<&mut QueueDepthTracker>, reads: u64) -> f64 {
        self.done_at.clear();
        self.next = 0;
        self.stalled = Duration::ZERO;
        self.planned = false;
        let device_s = match tracker {
            Some(tracker) => tracker.schedule_batch(reads, &mut self.done_at),
            None => 0.0,
        };
        self.submitted = Instant::now();
        self.left_gate = self.submitted;
        device_s
    }

    /// Waits until the next read in submission order has completed.
    pub(crate) fn await_next(&mut self) {
        if let Some(&at) = self.done_at.get(self.next) {
            let now = Instant::now();
            self.note_gap(now - self.left_gate);
            self.left_gate = self.wait(now, at);
        }
        self.next += 1;
    }

    /// Moves on to read `index` without waiting for the ones before it: a
    /// table whose fill failed leaves reads it never reaped, and the tables
    /// after it must still wait for *their* reads, not for its leftovers.
    pub(crate) fn skip_to(&mut self, index: usize) {
        self.next = index;
    }

    /// Waits until the whole batch's charged device time has elapsed — a
    /// no-op when the last read was already awaited — and returns the wall
    /// time this batch spent stalled at the gate in total.
    pub(crate) fn await_all(&mut self) -> Duration {
        if let Some(&last) = self.done_at.last() {
            self.wait(Instant::now(), last);
        }
        self.stalled
    }

    /// Waits from `now` until the read due `at` seconds after submission
    /// has completed, sleeping first when this is the batch's first such
    /// wait and [`plan_wake`] finds room, and returns when the wait ended.
    fn wait(&mut self, now: Instant, at: f64) -> Instant {
        let due = self.submitted + Duration::from_secs_f64(at);
        if now >= due {
            return now;
        }
        let since = (now - self.submitted).as_secs_f64();
        let wake = if std::mem::replace(&mut self.planned, true) { None } else { self.plan(since) };
        let asked = wake.map_or(Duration::ZERO, |wake| Duration::from_secs_f64(wake - since));
        let waited = wait_until(due, asked);
        if let (Some(wake), Some(margin)) = (wake, self.margin) {
            self.sleeps += 1;
            let woke = waited.end - waited.yielded;
            if woke > self.submitted + Duration::from_secs_f64(wake + margin) {
                self.late_wakes += 1;
            }
            self.note_overshoot(waited.slept.saturating_sub(asked));
        }
        self.stalled += waited.slept + waited.yielded;
        self.slept += waited.slept;
        self.yielded += waited.yielded;
        waited.end
    }

    /// The wake-up for a wait that starts `since` seconds after submission.
    /// A spell of slow wake-ups can push the margin past every batch's
    /// slack, and then no sleep would ever refresh it; so every
    /// [`OVERSHOOTS`]th batch that only the margin kept awake — one that
    /// would sleep on the typical overshoot — makes the window forget its
    /// largest overshoot. The gate sleeps again some tens of batches after
    /// the spell ends, and if it has not ended, those sleeps measure it
    /// again; while batches do sleep, the forgetting is too rare to wear
    /// down the tail they measure.
    fn plan(&mut self, since: f64) -> Option<f64> {
        let margin = self.margin.filter(|_| self.gaps >= COST_MEMORY)?;
        let plan = |margin| plan_wake(since, &self.done_at, self.next, self.block_cost, margin);
        let wake = plan(margin);
        if wake.is_some() || plan(self.typical_overshoot).is_none() {
            return wake;
        }
        self.declined = (self.declined + 1) % OVERSHOOTS as u32;
        if self.declined == 0 {
            let (largest, _) = self
                .overshoots
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .expect("the window is not empty");
            self.overshoots[largest] = self.typical_overshoot;
            self.refit();
        }
        None
    }

    /// Folds one software gap between two waits into the per-read cost: a
    /// plain mean over the first [`COST_MEMORY`] gaps, an exponential one
    /// with that memory after.
    fn note_gap(&mut self, gap: Duration) {
        self.gaps = (self.gaps + 1).min(COST_MEMORY);
        self.block_cost += (gap.as_secs_f64() - self.block_cost) / f64::from(self.gaps);
    }

    /// Records one sleep's overshoot and refits the margin to the window:
    /// a fence that a few slow wake-ups cannot move.
    fn note_overshoot(&mut self, overshoot: Duration) {
        self.overshoots[self.overshoot_at] = overshoot.as_secs_f64();
        self.overshoot_at = (self.overshoot_at + 1) % OVERSHOOTS;
        self.refit();
    }

    /// Sets the margin to the window's upper fence, Q3 + 1.5 IQR, and
    /// notes its median.
    fn refit(&mut self) {
        let mut sorted = self.overshoots;
        sorted.sort_unstable_by(f64::total_cmp);
        let (q1, q3) = (sorted[OVERSHOOTS / 4 - 1], sorted[OVERSHOOTS * 3 / 4 - 1]);
        self.margin = Some(q3 + 1.5 * (q3 - q1));
        self.typical_overshoot = sorted[OVERSHOOTS / 2 - 1];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bandana_cache::AdmissionPolicy;
    use bandana_core::{BatchScratch, TableStore};
    use bandana_partition::{AccessFrequency, BlockLayout};
    use bandana_trace::{spec::TableSpec, EmbeddingTable, TopicModel};
    use nvm_sim::{
        BlockBufPool, BlockDevice, IoCounters, NvmConfig, NvmDevice, NvmError, QueueModel,
    };

    /// A device that notes when each read was issued.
    struct StampedReads {
        inner: NvmDevice,
        issued: Vec<Instant>,
    }

    impl BlockDevice for StampedReads {
        fn block_size(&self) -> usize {
            self.inner.block_size()
        }
        fn capacity_blocks(&self) -> u64 {
            self.inner.capacity_blocks()
        }
        fn read_block(&mut self, block: u64) -> Result<Vec<u8>, NvmError> {
            self.issued.push(Instant::now());
            self.inner.read_block(block)
        }
        fn read_block_into(&mut self, block: u64, buf: &mut [u8]) -> Result<(), NvmError> {
            self.issued.push(Instant::now());
            self.inner.read_block_into(block, buf)
        }
        fn write_block(&mut self, block: u64, data: &[u8]) -> Result<(), NvmError> {
            self.inner.write_block(block, data)
        }
        fn counters(&self) -> IoCounters {
            self.inner.counters()
        }
        fn reset_counters(&mut self) {
            self.inner.reset_counters()
        }
    }

    /// A cold 512-vector table, 8 vectors to a block, on a stamping device.
    fn cold_table() -> (TableStore, StampedReads) {
        let spec = TableSpec::test_small(512);
        let emb = EmbeddingTable::synthesize(512, 8, &TopicModel::new(&spec, 1), 2);
        let layout = BlockLayout::identity(512, 8);
        let mut inner = NvmDevice::new(
            NvmConfig::optane_375gb().with_capacity_blocks(layout.num_blocks() as u64),
        );
        let freq = AccessFrequency::zeros(512);
        let mut table = TableStore::new(0, layout, freq, AdmissionPolicy::None, 64, 1.5, 0, 32);
        table.write_embeddings(&mut inner, &emb).expect("write table");
        (table, StampedReads { inner, issued: Vec::new() })
    }

    #[test]
    fn wait_until_a_past_instant_returns_at_once() {
        let waited = wait_until(Instant::now(), Duration::ZERO);
        assert_eq!(waited.slept + waited.yielded, Duration::ZERO);
        let deadline = Instant::now() + Duration::from_micros(300);
        let waited = wait_until(deadline, Duration::ZERO);
        assert!(waited.end >= deadline && Instant::now() >= deadline);
        assert_eq!(waited.slept, Duration::ZERO);
        assert!(waited.yielded > Duration::ZERO);
    }

    #[test]
    fn a_planned_sleep_is_taken_and_the_wait_still_ends_past_its_deadline() {
        let start = Instant::now();
        let deadline = start + Duration::from_millis(3);
        let wake = plan_wake(0.0, &[0.003], 1, 0.0, 100e-6).expect("3 ms leaves room to sleep");
        assert_eq!(wake, 0.003 - 100e-6);
        let asked = Duration::from_secs_f64(wake);
        let waited = wait_until(deadline, asked);
        assert!(waited.slept >= asked, "slept {:?} of {asked:?}", waited.slept);
        assert!(waited.end >= deadline && Instant::now() >= deadline);
        assert!(waited.end - start >= waited.slept + waited.yielded);
    }

    #[test]
    fn no_sleep_is_planned_within_two_margins_of_the_wake() {
        // Powers of two keep the arithmetic exact. The last of three reads
        // lands at 2⁻¹⁰ s (~977 µs); each read left costs 2⁻¹⁷ s (~7.6 µs)
        // of software and the margin is 2⁻¹³ s (~122 µs).
        let (last, cost, margin) = (2f64.powi(-10), 2f64.powi(-17), 2f64.powi(-13));
        let done_at = [last / 4.0, last / 2.0, last];
        let plan = |now: f64, next: usize| plan_wake(now, &done_at, next, cost, margin);
        let wake = last - 3.0 * cost - margin;
        assert_eq!(plan(0.0, 0), Some(wake));
        assert_eq!(plan(wake - margin - cost, 0), Some(wake));
        // A slack of exactly one margin, or less: no sleep.
        assert_eq!(plan(wake - margin, 0), None);
        assert_eq!(plan(wake - margin / 2.0, 0), None);
        assert_eq!(plan(wake + cost, 0), None);
        // Fewer reads left, later wake.
        assert_eq!(plan(0.0, 2), Some(last - cost - margin));
        // A margin half as long as the whole wait never sleeps.
        assert_eq!(plan_wake(0.0, &done_at, 0, 0.0, last / 2.0), None);
    }

    #[test]
    fn the_planned_wake_leaves_room_for_every_read_left_and_the_margin() {
        let done_at: Vec<f64> = (1..=200).map(|k| k as f64 * 3e-6).collect();
        let last = done_at[199];
        for next in [0, 1, 50, 199, 200, 250] {
            for cost in [0.0, 0.5e-6, 1e-6, 4e-6] {
                for margin in [0.0, 20e-6, 60e-6, 101e-6] {
                    let left = 200usize.saturating_sub(next) as f64;
                    if let Some(wake) = plan_wake(0.0, &done_at, next, cost, margin) {
                        assert!(wake <= last - left * cost - margin);
                        assert!(wake > margin);
                    }
                }
            }
        }
        // Past the schedule nothing is left to reap: wake a margin before the end.
        assert_eq!(plan_wake(0.0, &done_at, 250, 1e-6, 60e-6), Some(last - 60e-6));
    }

    #[test]
    fn an_empty_schedule_plans_nothing_and_waits_for_nothing() {
        assert_eq!(plan_wake(0.0, &[], 0, 1e-6, 60e-6), None);
        let mut gate = DeviceGate::new();
        gate.calibrate();
        let mut tracker = QueueDepthTracker::new(QueueModel::optane(), 4);
        assert_eq!(gate.submit(Some(&mut tracker), 0), 0.0);
        gate.await_next();
        assert_eq!(gate.await_all(), Duration::ZERO);
        assert_eq!((gate.stats().sleep_s, gate.stats().yield_s), (0.0, 0.0));
    }

    #[test]
    fn slept_plus_yielded_is_the_stall_to_the_nanosecond() {
        let mut tracker = QueueDepthTracker::new(QueueModel::optane(), 4);
        let mut gate = DeviceGate::new();
        gate.calibrate();
        assert!(gate.stats().wake_margin_s >= 0.0);
        let mut stalled = Duration::ZERO;
        // The first batch seeds the per-read cost; later ones may sleep.
        for _ in 0..3 {
            let device_s = gate.submit(Some(&mut tracker), 200);
            let t0 = gate.submitted;
            for _ in 0..200 {
                gate.await_next();
            }
            stalled += gate.await_all();
            assert!(Instant::now() >= t0 + Duration::from_secs_f64(device_s));
        }
        assert_eq!(gate.slept + gate.yielded, stalled);
        let stats = gate.stats();
        assert_eq!(stats.stall_s(), stats.sleep_s + stats.yield_s);
        // One wake-up is planned per batch at most.
        assert!(stats.late_wakes <= stats.sleeps && stats.sleeps <= 3);
    }

    #[test]
    fn no_read_is_issued_before_its_completion_offset_and_none_is_charged_twice() {
        let model = QueueModel::optane();
        let mut tracker = QueueDepthTracker::new(model, 4);
        let mut twin = tracker.clone();
        let mut gate = DeviceGate::new();
        let (mut table, mut device) = cold_table();
        let (mut scratch, mut pool) = (BatchScratch::new(), BlockBufPool::default());
        // 40 cold blocks, one id each.
        let ids: Vec<u32> = (0..40u32).map(|b| b * 8).collect();

        let planned = table.plan_batch(&ids, &mut scratch).expect("plan");
        assert_eq!(planned, 40);
        let device_s = gate.submit(Some(&mut tracker), planned as u64);
        let t0 = gate.submitted;
        table
            .fill_batch(&mut device, &ids, &mut scratch, &mut pool, || gate.await_next())
            .expect("fill");
        let stalled = gate.await_all();
        let finished = Instant::now();

        let mut offsets = Vec::new();
        assert_eq!(twin.schedule_batch(40, &mut offsets).to_bits(), device_s.to_bits());
        assert_eq!(tracker.stats(), twin.stats(), "gating changes no accounting");
        assert_eq!(device.issued.len(), 40);
        for (k, (&issued, &at)) in device.issued.iter().zip(&offsets).enumerate() {
            assert!(
                issued >= t0 + Duration::from_secs_f64(at),
                "read {k} issued {:?} after submission, due at {at}s",
                issued - t0
            );
        }
        assert!(finished >= t0 + Duration::from_secs_f64(device_s));
        // The gate stalled for at most the wall time there was.
        assert!(stalled <= finished - t0, "{stalled:?} of {:?}", finished - t0);
        assert_eq!(gate.next, 40);
    }

    #[test]
    fn skipped_reads_are_still_paid_for_by_the_end_of_the_batch() {
        let mut tracker = QueueDepthTracker::new(QueueModel::optane(), 2);
        let mut gate = DeviceGate::new();
        let device_s = gate.submit(Some(&mut tracker), 50);
        let t0 = gate.submitted;
        gate.await_next();
        gate.skip_to(50); // a failed fill abandons the other 49
        gate.await_next(); // past the schedule: nothing to wait for
        gate.await_all();
        assert!(Instant::now() >= t0 + Duration::from_secs_f64(device_s));
    }

    #[test]
    fn without_a_tracker_nothing_is_charged_or_awaited() {
        let mut gate = DeviceGate::new();
        assert_eq!(gate.submit(None, 1_000_000), 0.0);
        gate.await_next();
        assert_eq!(gate.await_all(), Duration::ZERO);
        assert_eq!(gate.stats(), GateStats::default());
    }

    #[test]
    fn a_spell_of_slow_wakes_stops_the_sleeps_only_until_batches_forget_it() {
        let mut gate = DeviceGate::new();
        gate.done_at = vec![0.001];
        gate.gaps = COST_MEMORY;
        // Eleven typical 60 µs overshoots and a spell of five 600 µs ones
        // fence the margin past the batch's 1 ms of slack.
        for k in 0..OVERSHOOTS {
            let us = if k < 5 { 600 } else { 60 };
            gate.note_overshoot(Duration::from_micros(us));
        }
        assert!(gate.margin.expect("fitted") > 0.0005);
        // Every sixteenth batch that would sleep on the typical overshoot
        // forgets one slow wake-up; the next batch sleeps on the refitted
        // margin.
        for _ in 1..OVERSHOOTS {
            assert_eq!(gate.plan(0.0), None);
            assert!(gate.margin.expect("fitted") > 0.0005);
        }
        assert_eq!(gate.plan(0.0), None);
        let margin = gate.margin.expect("fitted");
        assert!((margin - 60e-6).abs() < 1e-9, "{margin}");
        assert_eq!(gate.plan(0.0), Some(0.001 - margin));
        // A batch too short for even the typical overshoot forgets nothing.
        gate.done_at = vec![100e-6];
        let before = gate.overshoots;
        assert_eq!(gate.plan(0.0), None);
        assert_eq!(gate.overshoots, before);
    }

    #[test]
    fn gate_stats_merge_sums_the_stall_and_keeps_the_widest_margin() {
        let a = GateStats {
            sleep_s: 0.5,
            yield_s: 0.25,
            sleeps: 7,
            late_wakes: 2,
            wake_margin_s: 60e-6,
        };
        let b = GateStats {
            sleep_s: 0.125,
            yield_s: 0.0625,
            sleeps: 4,
            late_wakes: 1,
            wake_margin_s: 90e-6,
        };
        let mut total = GateStats::default();
        total.merge(&a);
        total.merge(&b);
        assert_eq!(total.stall_s(), 0.9375);
        assert_eq!((total.sleeps, total.late_wakes, total.wake_margin_s), (11, 3, 90e-6));
    }
}
