//! Prefetch admission policies (paper §4.3.1–§4.3.2).
//!
//! When a 4 KB block is read from NVM to serve one vector, the other vectors
//! in the block are prefetch *candidates*. The policy decides whether each
//! candidate enters the DRAM cache and at which queue position. The paper
//! evaluates, in order: admit-all at the queue top (Figure 10), admit-all at
//! a lower position (Figure 11a), shadow-cache filtering (Figure 11b), the
//! combination (Figure 11c), and frequency-threshold filtering (Figure 12),
//! which wins and is what the paper ships with.
//!
//! [`AdmissionPolicy::Set`] goes one step further: a fixed set of vectors,
//! chosen at build time for the block reads it avoids
//! (`bandana_core::tuner::block_aware_sets`), gates demanded vectors and
//! prefetch candidates alike. The set itself is an [`AdmissionSet`] held
//! beside the policy, since the policy is `Copy`.

use serde::{Deserialize, Serialize};

/// Decides whether a prefetched vector is admitted and where it is inserted.
///
/// The *requested* vector is always cached at the queue top; these policies
/// only govern the other vectors of a fetched block. The exception is
/// [`AdmissionPolicy::Set`], which gates the requested vector too.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum AdmissionPolicy {
    /// Never admit prefetched vectors (the single-vector baseline policy).
    None,
    /// Admit every prefetched vector at queue fraction `position`
    /// (0.0 = top). `position: 0.0` reproduces Figure 10; other values,
    /// Figure 11a.
    All {
        /// Queue insertion fraction (0.0 = MRU, towards 1.0 = LRU end).
        position: f64,
    },
    /// Admit only vectors present in the shadow cache, at the queue top
    /// (Figure 11b).
    Shadow,
    /// Shadow hits go to the queue top; shadow misses are still admitted,
    /// but at `position` (Figure 11c).
    ShadowPosition {
        /// Queue insertion fraction for shadow misses.
        position: f64,
    },
    /// Admit only vectors whose SHP-training access count is strictly
    /// greater than `t`, at the queue top (Figure 12, the shipping policy).
    Threshold {
        /// Minimum training-time access count (exclusive).
        t: u32,
    },
    /// Admit a vector — demanded or prefetched — only if it is a member of
    /// the table's [`AdmissionSet`], at the queue top. The set is no larger
    /// than the cache, so once it is resident the queue never evicts. This
    /// arm is a marker: whoever runs it holds the set, and
    /// [`AdmissionPolicy::admit`] answers for members only.
    Set,
}

impl AdmissionPolicy {
    /// Decides admission for one prefetch candidate.
    ///
    /// * `freq` — the candidate's access count during the SHP training run;
    /// * `shadow_hit` — whether the candidate is in the shadow cache.
    ///
    /// Returns the queue insertion fraction, or `None` to drop the
    /// candidate.
    pub fn admit(&self, freq: u32, shadow_hit: bool) -> Option<f64> {
        match *self {
            AdmissionPolicy::None => None,
            AdmissionPolicy::All { position } => Some(position),
            AdmissionPolicy::Shadow => shadow_hit.then_some(0.0),
            AdmissionPolicy::ShadowPosition { position } => {
                Some(if shadow_hit { 0.0 } else { position })
            }
            AdmissionPolicy::Threshold { t } => (freq > t).then_some(0.0),
            AdmissionPolicy::Set => Some(0.0),
        }
    }

    /// Whether this policy is [`AdmissionPolicy::Set`], whose holder must
    /// check membership before it admits anything.
    pub fn is_set(&self) -> bool {
        matches!(self, AdmissionPolicy::Set)
    }

    /// Whether this policy consults the shadow cache (so the simulator knows
    /// to maintain one).
    pub fn needs_shadow(&self) -> bool {
        matches!(self, AdmissionPolicy::Shadow | AdmissionPolicy::ShadowPosition { .. })
    }

    /// Whether this policy prefetches at all.
    pub fn prefetches(&self) -> bool {
        !matches!(self, AdmissionPolicy::None)
    }

    /// Whether [`AdmissionPolicy::admit`] can return a queue position below
    /// the top. Only such a policy needs a segmented eviction queue: under
    /// inserts and promotions at the top alone, a one-segment
    /// [`SegmentedLru`](crate::SegmentedLru) keeps the same order and
    /// evicts the same entries as a segmented one, at a fraction of the
    /// work per operation.
    pub fn inserts_below_top(&self) -> bool {
        match *self {
            AdmissionPolicy::All { position } | AdmissionPolicy::ShadowPosition { position } => {
                position > 0.0
            }
            AdmissionPolicy::None
            | AdmissionPolicy::Shadow
            | AdmissionPolicy::Threshold { .. }
            | AdmissionPolicy::Set => false,
        }
    }
}

/// The members of an [`AdmissionPolicy::Set`]: one bit per vector id of a
/// table.
///
/// # Example
///
/// ```
/// use bandana_cache::AdmissionSet;
///
/// let set = AdmissionSet::from_ids(100, [3, 64, 3]);
/// assert!(set.contains(64) && !set.contains(4) && !set.contains(1000));
/// assert_eq!(set.len(), 2);
/// assert_eq!(set.iter().collect::<Vec<_>>(), [3, 64]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AdmissionSet {
    words: Vec<u64>,
    len: usize,
}

impl AdmissionSet {
    /// An empty set over ids `0..num_vectors`.
    pub fn new(num_vectors: u32) -> Self {
        AdmissionSet { words: vec![0; (num_vectors as usize).div_ceil(64)], len: 0 }
    }

    /// The set of `ids` over `0..num_vectors`; repeats are ignored.
    ///
    /// # Panics
    ///
    /// Panics if an id is not below `num_vectors`.
    pub fn from_ids(num_vectors: u32, ids: impl IntoIterator<Item = u32>) -> Self {
        let mut set = AdmissionSet::new(num_vectors);
        for v in ids {
            assert!(v < num_vectors, "id {v} outside a set over {num_vectors} vectors");
            set.insert(v);
        }
        set
    }

    fn insert(&mut self, v: u32) {
        let (word, bit) = (v as usize / 64, 1u64 << (v % 64));
        if self.words[word] & bit == 0 {
            self.words[word] |= bit;
            self.len += 1;
        }
    }

    /// Whether `v` is a member; ids past the end are not.
    #[inline]
    pub fn contains(&self, v: u32) -> bool {
        self.words.get(v as usize / 64).is_some_and(|w| w & (1u64 << (v % 64)) != 0)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            (0..64u32).filter(move |b| w & (1u64 << b) != 0).map(move |b| i as u32 * 64 + b)
        })
    }
}

impl Default for AdmissionPolicy {
    /// The paper's shipping default: threshold admission with `t = 10`
    /// (mid-range of the Figure 12 sweep).
    fn default() -> Self {
        AdmissionPolicy::Threshold { t: 10 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_admits() {
        let p = AdmissionPolicy::None;
        assert_eq!(p.admit(1000, true), None);
        assert!(!p.prefetches());
        assert!(!p.needs_shadow());
    }

    #[test]
    fn all_admits_at_position() {
        let p = AdmissionPolicy::All { position: 0.7 };
        assert_eq!(p.admit(0, false), Some(0.7));
        assert!(p.prefetches());
    }

    #[test]
    fn shadow_requires_hit() {
        let p = AdmissionPolicy::Shadow;
        assert_eq!(p.admit(0, true), Some(0.0));
        assert_eq!(p.admit(1000, false), None);
        assert!(p.needs_shadow());
    }

    #[test]
    fn shadow_position_splits_by_hit() {
        let p = AdmissionPolicy::ShadowPosition { position: 0.5 };
        assert_eq!(p.admit(0, true), Some(0.0));
        assert_eq!(p.admit(0, false), Some(0.5));
        assert!(p.needs_shadow());
    }

    #[test]
    fn threshold_is_strict() {
        let p = AdmissionPolicy::Threshold { t: 10 };
        assert_eq!(p.admit(10, false), None);
        assert_eq!(p.admit(11, false), Some(0.0));
        assert!(!p.needs_shadow());
    }

    #[test]
    fn only_fractional_positions_insert_below_the_top() {
        for (policy, below) in [
            (AdmissionPolicy::None, false),
            (AdmissionPolicy::All { position: 0.0 }, false),
            (AdmissionPolicy::All { position: 0.7 }, true),
            (AdmissionPolicy::Shadow, false),
            (AdmissionPolicy::ShadowPosition { position: 0.0 }, false),
            (AdmissionPolicy::ShadowPosition { position: 0.5 }, true),
            (AdmissionPolicy::Threshold { t: 10 }, false),
            (AdmissionPolicy::Set, false),
        ] {
            assert_eq!(policy.inserts_below_top(), below, "{policy:?}");
        }
    }

    #[test]
    fn set_admits_members_at_the_top() {
        let p = AdmissionPolicy::Set;
        assert_eq!(p.admit(0, false), Some(0.0));
        assert!(p.is_set() && p.prefetches() && !p.needs_shadow());
        assert!(!AdmissionPolicy::Threshold { t: 1 }.is_set());
        let set = AdmissionSet::from_ids(130, [0, 63, 64, 129]);
        assert_eq!(set.iter().collect::<Vec<_>>(), [0, 63, 64, 129]);
        assert!((1..63).all(|v| !set.contains(v)));
        assert!(AdmissionSet::new(10).is_empty());
    }

    #[test]
    fn default_is_threshold() {
        assert_eq!(AdmissionPolicy::default(), AdmissionPolicy::Threshold { t: 10 });
    }
}
