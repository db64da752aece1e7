//! A freelist of block-sized read buffers for an allocation-free miss path.
//!
//! Bandana's hot loop is the NVM miss read: fetch one 4 KB block, copy the
//! requested vectors out of it, and let the block go. The naive
//! implementation heap-allocates a fresh `Vec<u8>` per read. A
//! [`BlockBufPool`] recycles those buffers instead: a reader acquires one,
//! fills it from the device, copies what it needs, and hands it back, so
//! steady-state reads cycle through a handful of always-free buffers and
//! never touch the allocator.
//!
//! # Ownership rules
//!
//! * Block buffers are **scoped to one read**. Nothing long-lived may alias
//!   one: the table store copies each payload it keeps into its own cache
//!   arena and each payload it returns into the caller's output buffer
//!   before the block is recycled.
//! * [`BlockBufPool::acquire`] returns a [`PooledBlock`] with *exclusive*
//!   ownership: `as_mut_slice` is always available and the caller may fill
//!   the buffer (e.g. via
//!   [`BlockDevice::read_block_into`](crate::BlockDevice::read_block_into)).
//! * [`PooledBlock::recycle`] hands the buffer straight back; the next
//!   `acquire` reuses it. This is how the lookup paths end every read.
//! * [`PooledBlock::freeze`] is for a reader that wants a shared read-only
//!   handle instead: the pool keeps one reference, the caller gets the
//!   `Arc<Vec<u8>>`, and the buffer is reused once the handle is dropped.
//!   `acquire` inspects only the oldest retained buffer; if a handle still
//!   pins it the pool lets that buffer go (the handle owns it from then on)
//!   and allocates, so every acquire is O(1) however many handles are
//!   outstanding. Drop the handle before the next read to keep the reuse.
//! * A [`PooledBlock`] dropped without `recycle` or `freeze` is simply
//!   freed.
//!
//! The pool is deliberately not thread-safe: each shard worker (or each
//! lock-guarded device) owns its own pool, mirroring how per-core io_uring
//! buffer rings work.

use std::collections::VecDeque;
use std::sync::Arc;

/// Default number of returned buffers a pool keeps around for reuse.
///
/// Reads hold one buffer at a time, so this is headroom for callers that
/// keep a few [`PooledBlock::freeze`] handles alive; 32 × 4 KB = 128 KB
/// per pool.
pub const DEFAULT_RETAINED: usize = 32;

/// Reuse accounting for one [`BlockBufPool`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PoolStats {
    /// Buffers handed out by [`BlockBufPool::acquire`].
    pub acquires: u64,
    /// Acquires served by recycling a retained buffer (no allocation).
    pub reuses: u64,
    /// Acquires that had to allocate a fresh buffer.
    pub allocs: u64,
    /// Buffers currently retained by the pool (reusable, or still pinned by
    /// a [`PooledBlock::freeze`] handle).
    pub retained: u64,
}

impl PoolStats {
    /// Fraction of acquires served without allocating (`0.0` before the
    /// first acquire).
    pub fn reuse_rate(&self) -> f64 {
        if self.acquires == 0 {
            0.0
        } else {
            self.reuses as f64 / self.acquires as f64
        }
    }

    /// Folds another pool's counters into this one (`retained` adds; use
    /// for cross-shard aggregation).
    pub fn merge(&mut self, other: &PoolStats) {
        self.acquires += other.acquires;
        self.reuses += other.reuses;
        self.allocs += other.allocs;
        self.retained += other.retained;
    }
}

/// A recycling pool of block-sized `Arc<Vec<u8>>` read buffers.
///
/// # Example
///
/// ```
/// use nvm_sim::{BlockBufPool, BlockDevice, NvmConfig, NvmDevice};
///
/// # fn main() -> Result<(), nvm_sim::NvmError> {
/// let mut dev = NvmDevice::new(NvmConfig::optane_375gb().with_capacity_blocks(4));
/// let mut pool = BlockBufPool::default();
///
/// let mut buf = pool.acquire(dev.block_size());
/// dev.read_block_into(2, buf.as_mut_slice())?;
/// let first_byte = buf.as_slice()[0]; // copy out what the read was for...
/// buf.recycle(&mut pool); // ...and hand the buffer back
///
/// let _again = pool.acquire(dev.block_size());
/// assert_eq!(pool.stats().reuses, 1);
/// # let _ = first_byte;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BlockBufPool {
    /// Returned buffers, oldest first; `acquire` takes from the front.
    retained: VecDeque<Arc<Vec<u8>>>,
    max_retained: usize,
    stats: PoolStats,
}

impl BlockBufPool {
    /// Creates a pool that retains at most `max_retained` buffers.
    ///
    /// # Panics
    ///
    /// Panics if `max_retained` is zero (a pool that can retain nothing can
    /// never reuse anything).
    pub fn new(max_retained: usize) -> Self {
        assert!(max_retained > 0, "pool must retain at least one buffer");
        BlockBufPool { retained: VecDeque::new(), max_retained, stats: PoolStats::default() }
    }

    /// The default pool. Block buffers are scoped to one read and never
    /// pinned by cache entries, so a pool needs no sizing against the cache
    /// in front of it; this constructor exists for callers (the repo
    /// benchmark among them) that ask for a pool by cache size.
    pub fn for_cache(_entries: usize) -> Self {
        BlockBufPool::default()
    }

    /// Acquire/reuse/allocation counters and the current retained size.
    pub fn stats(&self) -> PoolStats {
        let mut s = self.stats;
        s.retained = self.retained.len() as u64;
        s
    }

    /// Hands out an exclusively-owned buffer of exactly `block_size` bytes:
    /// the oldest retained buffer if it is free, a fresh allocation
    /// otherwise. O(1) — one buffer is inspected, never the whole pool.
    ///
    /// The contents are unspecified (stale bytes from an earlier read);
    /// callers overwrite the whole buffer before reading it.
    pub fn acquire(&mut self, block_size: usize) -> PooledBlock {
        self.stats.acquires += 1;
        if let Some(mut arc) = self.retained.pop_front() {
            // `get_mut` succeeds only at refcount one: no frozen handle is
            // alive and nothing observes a resize.
            if let Some(buf) = Arc::get_mut(&mut arc) {
                if buf.len() != block_size {
                    buf.clear();
                    buf.resize(block_size, 0);
                }
                self.stats.reuses += 1;
                return PooledBlock { buf: arc };
            }
            // Still pinned by a frozen handle: the handle keeps the memory
            // alive and the pool forgets it, so a long-lived handle costs
            // one allocation in total, not one inspection per acquire.
        }
        self.stats.allocs += 1;
        PooledBlock { buf: Arc::new(vec![0u8; block_size]) }
    }

    /// Retains `buf` for future reuse, evicting the oldest retained buffer
    /// when full (the pool reference is dropped; the memory itself lives
    /// until its outside references go).
    fn retire(&mut self, buf: Arc<Vec<u8>>) {
        if self.retained.len() >= self.max_retained {
            self.retained.pop_front();
        }
        self.retained.push_back(buf);
    }
}

impl Default for BlockBufPool {
    fn default() -> Self {
        BlockBufPool::new(DEFAULT_RETAINED)
    }
}

/// An exclusively-owned block buffer checked out of a [`BlockBufPool`].
///
/// See the [module docs](self) for the ownership rules.
#[derive(Debug)]
pub struct PooledBlock {
    buf: Arc<Vec<u8>>,
}

impl PooledBlock {
    /// The buffer, for filling (exactly one block long).
    ///
    /// # Panics
    ///
    /// Never panics in practice: exclusivity is an invariant of
    /// [`BlockBufPool::acquire`].
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        Arc::get_mut(&mut self.buf).expect("pooled block is exclusively owned").as_mut_slice()
    }

    /// Read access to the filled buffer.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Ends the exclusive phase: the pool retains one reference for future
    /// recycling and the caller gets a shared read-only handle; the buffer
    /// is reusable once that handle is dropped.
    pub fn freeze(self, pool: &mut BlockBufPool) -> Arc<Vec<u8>> {
        pool.retire(Arc::clone(&self.buf));
        self.buf
    }

    /// Returns the buffer to the pool so the next acquire reuses it — the
    /// end of every read on the lookup paths.
    pub fn recycle(self, pool: &mut BlockBufPool) {
        pool.retire(self.buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freeze_then_drop_enables_reuse() {
        let mut pool = BlockBufPool::new(4);
        let mut b = pool.acquire(64);
        b.as_mut_slice()[0] = 9;
        let shared = b.freeze(&mut pool);
        assert_eq!(shared[0], 9);
        drop(shared);
        // Unpinned: reuse, and the old contents are still there until
        // overwritten.
        let b2 = pool.acquire(64);
        assert_eq!(pool.stats().reuses, 1);
        assert_eq!(b2.as_slice()[0], 9, "reused buffer keeps stale bytes");
    }

    #[test]
    fn a_pinned_buffer_costs_one_allocation_not_a_sweep() {
        // One long-lived handle among recycled buffers: the pool lets the
        // pinned buffer go the first time it comes up and every later read
        // is served by the free ones.
        let mut pool = BlockBufPool::new(8);
        let pinned = pool.acquire(16).freeze(&mut pool);
        pool.acquire(16).recycle(&mut pool);
        assert_eq!(pool.stats().allocs, 2, "the pinned buffer is not handed out");
        for _ in 0..100 {
            pool.acquire(16).recycle(&mut pool);
        }
        let stats = pool.stats();
        assert_eq!((stats.allocs, stats.reuses, stats.retained), (2, 100, 1));
        assert_eq!(pinned.len(), 16, "the handle keeps its buffer");
    }

    #[test]
    fn size_changes_are_handled_on_reuse() {
        let mut pool = BlockBufPool::new(2);
        pool.acquire(16).freeze(&mut pool);
        let mut b = pool.acquire(32);
        assert_eq!(pool.stats().reuses, 1);
        assert_eq!(b.as_mut_slice().len(), 32);
    }

    #[test]
    fn retention_is_bounded() {
        let mut pool = BlockBufPool::new(2);
        let out: Vec<_> = (0..5).map(|_| pool.acquire(8)).collect();
        out.into_iter().for_each(|b| b.recycle(&mut pool));
        assert_eq!(pool.stats().retained, 2);
        assert_eq!(pool.acquire(8).as_slice().len(), 8);
        assert_eq!(pool.stats().reuses, 1);
    }

    #[test]
    fn recycle_returns_buffer_without_freeze() {
        let mut pool = BlockBufPool::new(2);
        pool.acquire(8).recycle(&mut pool);
        pool.acquire(8);
        let s = pool.stats();
        assert_eq!((s.acquires, s.reuses, s.allocs), (2, 1, 1));
    }

    #[test]
    fn stats_merge_and_rate() {
        let mut a = PoolStats { acquires: 4, reuses: 3, allocs: 1, retained: 2 };
        let b = PoolStats { acquires: 6, reuses: 0, allocs: 6, retained: 1 };
        a.merge(&b);
        assert_eq!(a, PoolStats { acquires: 10, reuses: 3, allocs: 7, retained: 3 });
        assert!((a.reuse_rate() - 0.3).abs() < 1e-12);
        assert_eq!(PoolStats::default().reuse_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "retain at least one")]
    fn zero_retention_rejected() {
        let _ = BlockBufPool::new(0);
    }
}
