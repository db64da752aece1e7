//! Reusable scratch state for the batched lookup hot path.
//!
//! Every [`TableStore::lookup_batch`](crate::TableStore::lookup_batch)
//! needs a miss plan (which positions missed into which block), a place to
//! put the payloads, and a requested-slot set for the prefetch sweep.
//! Building those from scratch per call puts the allocator on the hottest
//! path in the system; a [`BatchScratch`] owns them instead, so after the
//! first few calls at a given batch shape every structure is at capacity
//! and a steady-state batch allocates nothing.
//!
//! # Ownership rules
//!
//! * A scratch belongs to **one batch at a time**, and a batch has two
//!   halves: [`plan_batch`](crate::TableStore::plan_batch) resets the
//!   scratch, copies every cache hit into the output (hits are served from
//!   DRAM there and then, before any read is submitted) and leaves the
//!   sorted miss plan behind; [`fill_batch`](crate::TableStore::fill_batch)
//!   consumes that plan block by block. Between the two the scratch *is*
//!   the batch — nothing else may use it.
//!   [`lookup_batch_with`](crate::TableStore::lookup_batch_with) runs both
//!   halves back to back.
//! * Between batches a scratch carries nothing but capacity, so whole
//!   calls may share one freely *across* tables. A caller that plans
//!   several tables before filling any (a `bandana-serve` shard worker
//!   submits a micro-batch's reads for all its tables at once) needs one
//!   scratch per table in flight.
//! * The output is one flat byte buffer the lookup **copies** every payload
//!   into — hits from the table's cache arena, misses from the block just
//!   read — so nothing in it aliases cache or device memory.
//!   [`BatchScratch::out`] and [`BatchScratch::payload`] borrow the results
//!   of the **most recent** batch and are valid until the next plan reuses
//!   the buffer; copy what must outlive that. After a plan alone only the
//!   hit positions hold payloads.
//! * Dropping a scratch is always safe; it owns no device or cache
//!   resources.

use bytes::Bytes;

/// Reusable working memory for a batched lookup —
/// [`TableStore::lookup_batch_with`](crate::TableStore::lookup_batch_with)
/// or its plan/fill halves (miss plan, flat output buffer, requested-slot
/// bitset).
///
/// See the [module docs](self) for the ownership rules.
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// The miss plan: one `(block, position-in-ids)` pair per missed
    /// lookup, sorted by block (then position) by the plan half and walked
    /// by the fill half.
    pub(crate) misses: Vec<(u32, u32)>,
    /// The payloads of the last call, back to back in `ids` order:
    /// `vector_bytes` bytes per id.
    pub(crate) out: Vec<u8>,
    /// Payload size of the table the last call served.
    vector_bytes: usize,
    /// Bitset over a block's vector slots marking which were demanded by
    /// the current batch, so the prefetch sweep skips them in O(1).
    pub(crate) requested_slots: Vec<u64>,
}

impl BatchScratch {
    /// Creates an empty scratch; buffers grow to the observed batch shape
    /// on first use and are reused afterwards.
    pub fn new() -> Self {
        BatchScratch::default()
    }

    /// The payloads produced by the most recent successful
    /// [`lookup_batch_with`](crate::TableStore::lookup_batch_with), back to
    /// back in the order of the `ids` it was called with (`ids.len()` ×
    /// the table's vector size bytes). Overwritten by the next call.
    pub fn out(&self) -> &[u8] {
        &self.out
    }

    /// The payload of the `i`-th id of the most recent call.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a position of that call's `ids`.
    pub fn payload(&self, i: usize) -> &[u8] {
        &self.out[i * self.vector_bytes..(i + 1) * self.vector_bytes]
    }

    /// The last call's payloads as owned [`Bytes`], one per id — the
    /// compatibility path behind
    /// [`TableStore::lookup_batch`](crate::TableStore::lookup_batch),
    /// which must return owned results. One copy of the flat buffer backs
    /// every returned view; steady-state callers read
    /// [`BatchScratch::out`] in place instead.
    pub fn to_bytes(&self) -> Vec<Bytes> {
        let all = Bytes::copy_from_slice(&self.out);
        (0..self.out.len() / self.vector_bytes.max(1))
            .map(|i| all.slice(i * self.vector_bytes..(i + 1) * self.vector_bytes))
            .collect()
    }

    /// Resets the per-call state for a batch of `len` ids of
    /// `vector_bytes` bytes each. Capacity is retained; only lengths move
    /// (bytes left over from an earlier call are overwritten by the lookup,
    /// never read).
    pub(crate) fn begin(&mut self, len: usize, vector_bytes: usize) {
        self.misses.clear();
        self.vector_bytes = vector_bytes;
        self.out.resize(len * vector_bytes, 0);
    }

    /// The output bytes of position `i`, for the lookup to fill.
    pub(crate) fn payload_mut(&mut self, i: usize) -> &mut [u8] {
        &mut self.out[i * self.vector_bytes..(i + 1) * self.vector_bytes]
    }

    /// Clears the requested-slot bitset for a block holding
    /// `vectors_per_block` slots, growing the word buffer on first use.
    pub(crate) fn reset_requested(&mut self, vectors_per_block: usize) {
        let words = vectors_per_block.div_ceil(64);
        if self.requested_slots.len() < words {
            self.requested_slots.resize(words, 0);
        }
        self.requested_slots[..words].iter_mut().for_each(|w| *w = 0);
    }

    /// Marks block slot `slot` as demanded by the current batch.
    pub(crate) fn mark_requested(&mut self, slot: usize) {
        self.requested_slots[slot / 64] |= 1u64 << (slot % 64);
    }

    /// Whether block slot `slot` was demanded by the current batch.
    pub(crate) fn is_requested(&self, slot: usize) -> bool {
        self.requested_slots[slot / 64] & (1u64 << (slot % 64)) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_resets_lengths_but_keeps_capacity() {
        let mut s = BatchScratch::new();
        s.begin(8, 16);
        s.misses.push((3, 1));
        assert_eq!(s.out().len(), 8 * 16);
        let out_cap = s.out.capacity();
        s.begin(4, 16);
        assert_eq!(s.out().len(), 4 * 16);
        assert!(s.misses.is_empty());
        assert_eq!(s.out.capacity(), out_cap);
    }

    #[test]
    fn requested_bitset_tracks_slots_across_resets() {
        let mut s = BatchScratch::new();
        s.reset_requested(130);
        s.mark_requested(0);
        s.mark_requested(63);
        s.mark_requested(64);
        s.mark_requested(129);
        for slot in [0usize, 63, 64, 129] {
            assert!(s.is_requested(slot), "slot {slot}");
        }
        assert!(!s.is_requested(1));
        s.reset_requested(130);
        for slot in [0usize, 63, 64, 129] {
            assert!(!s.is_requested(slot), "slot {slot} survived reset");
        }
    }

    #[test]
    fn to_bytes_copies_one_view_per_payload() {
        let mut s = BatchScratch::new();
        s.begin(3, 2);
        for i in 0..3 {
            s.payload_mut(i).copy_from_slice(&[i as u8, 10 + i as u8]);
        }
        assert_eq!(s.payload(1), &[1, 11]);
        let owned = s.to_bytes();
        s.begin(3, 2);
        s.out.fill(0xFF); // the next call reuses the buffer...
        let got: Vec<&[u8]> = owned.iter().map(|b| b.as_ref()).collect();
        assert_eq!(got, [&[0u8, 10][..], &[1, 11], &[2, 12]], "...the copies do not see it");
        assert!(BatchScratch::new().to_bytes().is_empty());
    }
}
