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
//! With no device queue configured nothing is submitted, the schedule is
//! empty and every wait is a no-op.

use nvm_sim::QueueDepthTracker;
use std::time::{Duration, Instant};

/// Lets simulated device time actually elapse: returns once `deadline` has
/// passed and reports how long that took (zero when it already had).
/// Coarse sleep while far out, fine-wait close in (charged times are
/// µs-scale, well below sleep granularity). The fine wait yields the core
/// instead of spinning: a real NVM read blocks the issuing context without
/// burning CPU, so while a shard "waits on the device" the other threads —
/// peer shards, the submitters, the metrics bus — must be able to run. (On
/// a single-core host a spinning worker would starve exactly the control
/// loop that is supposed to observe this congestion.)
pub(crate) fn wait_until(deadline: Instant) -> Duration {
    let start = Instant::now();
    let mut now = start;
    while now < deadline {
        let left = deadline - now;
        if left > Duration::from_millis(2) {
            std::thread::sleep(left - Duration::from_millis(1));
        } else {
            std::thread::yield_now();
        }
        now = Instant::now();
    }
    now - start
}

/// One shard worker's view of the reads it has in flight (see the
/// [module docs](self)). Reused across micro-batches so the schedule
/// buffer is allocated once.
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
}

impl DeviceGate {
    pub(crate) fn new() -> Self {
        DeviceGate {
            done_at: Vec::new(),
            submitted: Instant::now(),
            next: 0,
            stalled: Duration::ZERO,
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
        let device_s = match tracker {
            Some(tracker) => tracker.schedule_batch(reads, &mut self.done_at),
            None => 0.0,
        };
        self.submitted = Instant::now();
        device_s
    }

    /// Waits until the next read in submission order has completed.
    pub(crate) fn await_next(&mut self) {
        if let Some(&at) = self.done_at.get(self.next) {
            self.stalled += wait_until(self.submitted + Duration::from_secs_f64(at));
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
            self.stalled += wait_until(self.submitted + Duration::from_secs_f64(last));
        }
        self.stalled
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
        assert_eq!(wait_until(Instant::now()), Duration::ZERO);
        let deadline = Instant::now() + Duration::from_micros(300);
        let waited = wait_until(deadline);
        assert!(Instant::now() >= deadline);
        assert!(waited > Duration::ZERO);
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
    }
}
