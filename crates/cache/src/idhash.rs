//! The hasher behind every id-keyed map on the read path.
//!
//! Vector ids are small integers, probed several times per lookup — the
//! LRU index, the cross-request merge, the per-query dedup. SipHash (the
//! standard library's default) spends more on hashing such a key than the
//! probe itself costs; [`IdHasher`] is one multiply and one fold.
//!
//! What is given up is SipHash's random per-process key: the function is
//! public, so a client can pick ids that share a bucket. The damage is
//! bounded because every id is range-checked against its table before it
//! reaches a map — a bucket can hold at most `num_vectors / buckets` chosen
//! ids — but a map keyed by unbounded outside input should keep the
//! default hasher.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// 2⁶⁴ / φ, the usual odd multiplier for multiplicative hashing.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// A multiply-and-fold hasher for integer keys.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn mix(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(GOLDEN);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // The multiply leaves its entropy in the high bits; the table picks
        // buckets from the low bits and control bytes from the high ones,
        // so fold the halves together.
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.mix(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.mix(x);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.mix(x as u64);
    }
}

/// A `HashMap` keyed by vector (or other small integer) ids.
pub type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash(x: u64) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(x)
    }

    #[test]
    fn strided_ids_spread_over_buckets_and_control_bytes() {
        // Ids that share their low bits (a stride of 4096) must still land
        // in different buckets (low bits) with varied control bytes (top 7).
        let hashes: Vec<u64> = (0..1024u64).map(|i| hash(i * 4096)).collect();
        let buckets: std::collections::HashSet<u64> = hashes.iter().map(|h| h & 1023).collect();
        let controls: std::collections::HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert!(buckets.len() > 600, "only {} of 1024 buckets used", buckets.len());
        assert_eq!(controls.len(), 128);
    }

    #[test]
    fn map_round_trips_u32_and_u64_keys() {
        let mut small: IdHashMap<u32, usize> = IdHashMap::default();
        let mut wide: IdHashMap<u64, usize> = IdHashMap::default();
        for i in 0..1000usize {
            small.insert(i as u32 * 7, i);
            wide.insert((i as u64) << 33, i);
        }
        for i in 0..1000usize {
            assert_eq!(small.get(&(i as u32 * 7)), Some(&i));
            assert_eq!(wide.get(&((i as u64) << 33)), Some(&i));
        }
        assert_eq!(small.len(), 1000);
    }
}
