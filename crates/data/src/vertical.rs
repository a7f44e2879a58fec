//! Vertical dataset layout: tid-sets, Diffsets (§4.2.2 of the paper) and
//! packed bitsets.
//!
//! The permutation approach mines frequent patterns only once, stores the
//! *record id list* (tid-set) of every frequent pattern, and recomputes rule
//! supports on each permutation from the tid-sets and the shuffled class
//! labels.  Tid-sets can be long, so the paper adopts the Diffsets technique
//! of Zaki & Gouda: when a child pattern's support is more than half of its
//! parent's, store only the *difference* between the parent's and the child's
//! tid-sets.
//!
//! On top of the id-list representations this module provides a packed
//! [`Bitmap`] (one bit per record, 64 records per machine word), whose
//! intersection and difference cardinalities are word-wise `AND` +
//! `count_ones` sweeps.
//!
//! * [`TidSet`] — a sorted list of record ids with intersection/difference.
//! * [`Cover`] — either a full tid-set or a diffset relative to a parent.
//! * [`Bitmap`] — packed record-id set with popcount counting.
//! * [`ClassBitmaps`] — one bitmap per class built from a label vector.
//! * [`VerticalDataset`] — per-item tid-sets plus the class label vector.
//!
//! All popcount sweeps route through [`crate::kernel`], which dispatches to
//! explicit SIMD implementations at runtime.  The permutation engine counts
//! stored id lists against label words instead
//! ([`kernel::positional_count`]).

use crate::dataset::Dataset;
use crate::item::{ClassId, ItemId};
use crate::kernel;
use serde::{Deserialize, Serialize};

/// The length ratio from which [`TidSet::intersect`] gallops through the
/// longer set instead of merging.  Measured on the holdout re-score: pure
/// galloping lost about a fifth on dense attribute rows, where covers and
/// item lists have similar lengths, and pure merging lost about a fifth on
/// sparse baskets.
const GALLOP_RATIO: usize = 8;

/// A sorted set of record ids (tids).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TidSet {
    tids: Vec<u32>,
}

impl TidSet {
    /// Creates a tid-set from any iterator of record ids; sorts and
    /// de-duplicates.
    pub fn from_tids(tids: impl IntoIterator<Item = u32>) -> Self {
        let mut tids: Vec<u32> = tids.into_iter().collect();
        tids.sort_unstable();
        tids.dedup();
        TidSet { tids }
    }

    /// Creates an empty tid-set.
    pub fn empty() -> Self {
        TidSet { tids: Vec::new() }
    }

    /// The full tid-set `{0, 1, ..., n-1}`.
    pub fn full(n: usize) -> Self {
        TidSet {
            tids: (0..n as u32).collect(),
        }
    }

    /// The record ids, sorted ascending.
    pub fn tids(&self) -> &[u32] {
        &self.tids
    }

    /// Cardinality of the set (the support of the pattern it covers).
    pub fn len(&self) -> usize {
        self.tids.len()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.tids.is_empty()
    }

    /// True when the set contains the record id.
    pub fn contains(&self, tid: u32) -> bool {
        self.tids.binary_search(&tid).is_ok()
    }

    /// Set intersection `self ∩ other`.
    ///
    /// When one set is at least eight times longer than the other, walks the
    /// shorter set and gallops through the longer one (exponential then
    /// binary search from the last position), as
    /// [`is_subset`](TidSet::is_subset) does: `O(|short| log |long|)` instead
    /// of `O(|short| + |long|)`.  Closer sizes take the branch-free merge of
    /// [`intersect_min`](TidSet::intersect_min), which is faster there.
    pub fn intersect(&self, other: &TidSet) -> TidSet {
        let (short, long) = if self.len() <= other.len() {
            (&self.tids, &other.tids)
        } else {
            (&other.tids, &self.tids)
        };
        if long.len() < GALLOP_RATIO * short.len() {
            return self
                .intersect_min(other, 0)
                .expect("every intersection holds at least 0 ids");
        }
        let mut out = Vec::with_capacity(short.len());
        let mut rest = long.as_slice();
        for &t in short {
            let mut step = 1;
            while step < rest.len() && rest[step] < t {
                step *= 2;
            }
            let window = &rest[..rest.len().min(step + 1)];
            match window.binary_search(&t) {
                Ok(pos) => {
                    out.push(t);
                    rest = &rest[pos + 1..];
                }
                Err(pos) => rest = &rest[pos..],
            }
            if rest.is_empty() {
                break;
            }
        }
        TidSet { tids: out }
    }

    /// `self ∩ other` when it holds at least `min_len` ids, else `None`.
    ///
    /// A branch-free merge (each step advances both sides by comparison
    /// results instead of a data-dependent jump) that gives up as soon as the
    /// ids left on the shorter side can no longer reach `min_len`.
    pub fn intersect_min(&self, other: &TidSet, min_len: usize) -> Option<TidSet> {
        let (a, b) = (self.tids.as_slice(), other.tids.as_slice());
        if a.len().min(b.len()) < min_len {
            return None;
        }
        let mut out = Vec::with_capacity(a.len().min(b.len()));
        let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
        while i < a.len() && j < b.len() {
            if k + (a.len() - i).min(b.len() - j) < min_len {
                return None;
            }
            let (x, y) = (a[i], b[j]);
            // Write every candidate and keep it only when both sides hold it.
            // Pushing into reserved capacity, not indexing a zero-filled
            // buffer, leaves the unused capacity's pages untouched.
            out.truncate(k);
            out.push(x);
            k += usize::from(x == y);
            i += usize::from(x <= y);
            j += usize::from(y <= x);
        }
        if k < min_len {
            return None;
        }
        out.truncate(k);
        Some(TidSet { tids: out })
    }

    /// True when every id of `self` is in `other`.
    ///
    /// Rejects on the sizes and the endpoints first, then gallops through
    /// `other` (exponential then binary search from the last match), so a
    /// short set is tested against a long one in `O(|self| log |other|)`.
    pub fn is_subset(&self, other: &TidSet) -> bool {
        let (sub, sup) = (self.tids.as_slice(), other.tids.as_slice());
        let (Some(&first), Some(&last)) = (sub.first(), sub.last()) else {
            return true;
        };
        if sub.len() > sup.len() || first < sup[0] || last > sup[sup.len() - 1] {
            return false;
        }
        let mut rest = sup;
        for &t in sub {
            let mut step = 1;
            while step < rest.len() && rest[step] < t {
                step *= 2;
            }
            let window = &rest[..rest.len().min(step + 1)];
            match window.binary_search(&t) {
                Ok(pos) => rest = &rest[pos + 1..],
                Err(_) => return false,
            }
        }
        true
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &TidSet) -> TidSet {
        let mut out = Vec::new();
        let (mut a, mut b) = (0usize, 0usize);
        while a < self.tids.len() {
            if b >= other.tids.len() {
                out.extend_from_slice(&self.tids[a..]);
                break;
            }
            match self.tids[a].cmp(&other.tids[b]) {
                std::cmp::Ordering::Less => {
                    out.push(self.tids[a]);
                    a += 1;
                }
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    a += 1;
                    b += 1;
                }
            }
        }
        TidSet { tids: out }
    }

    /// Set union `self ∪ other`.
    pub fn union(&self, other: &TidSet) -> TidSet {
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (mut a, mut b) = (0usize, 0usize);
        while a < self.tids.len() && b < other.tids.len() {
            match self.tids[a].cmp(&other.tids[b]) {
                std::cmp::Ordering::Less => {
                    out.push(self.tids[a]);
                    a += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.tids[b]);
                    b += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.tids[a]);
                    a += 1;
                    b += 1;
                }
            }
        }
        out.extend_from_slice(&self.tids[a..]);
        out.extend_from_slice(&other.tids[b..]);
        TidSet { tids: out }
    }

    /// Counts how many records in the set carry class `c`, given the label
    /// vector of the dataset (indexed by tid).  This is the operation the
    /// permutation engine performs for every rule on every permutation.
    pub fn count_class(&self, labels: &[ClassId], class: ClassId) -> usize {
        self.tids
            .iter()
            .filter(|&&t| labels[t as usize] == class)
            .count()
    }

    /// Memory footprint of the tid list in bytes (used to report the Diffsets
    /// savings in the ablation benchmarks).
    pub fn size_bytes(&self) -> usize {
        self.tids.len() * std::mem::size_of::<u32>()
    }
}

impl FromIterator<u32> for TidSet {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        TidSet::from_tids(iter)
    }
}

/// A packed bitset over record ids: bit `t` is set when record `t` is in the
/// set.  Sixty-four records per machine word, so intersection cardinality is
/// a word-wise `AND` + `count_ones` sweep.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Bitmap {
    words: Vec<u64>,
    n_bits: usize,
}

impl Bitmap {
    /// An all-zero bitmap over `n_bits` record ids.
    pub fn zeros(n_bits: usize) -> Self {
        Bitmap {
            words: vec![0u64; n_bits.div_ceil(64)],
            n_bits,
        }
    }

    /// Packs a sorted tid-set into a bitmap over `n_bits` record ids.
    ///
    /// # Panics
    ///
    /// Panics if a tid is `≥ n_bits`.
    pub fn from_tids(tids: &TidSet, n_bits: usize) -> Self {
        let mut bitmap = Bitmap::zeros(n_bits);
        for &t in tids.tids() {
            bitmap.set(t);
        }
        bitmap
    }

    /// Number of record ids the bitmap covers (bits, not set bits).
    pub fn n_bits(&self) -> usize {
        self.n_bits
    }

    /// Sets bit `t`.
    #[inline]
    pub fn set(&mut self, t: u32) {
        let t = t as usize;
        assert!(t < self.n_bits, "tid {t} out of range 0..{}", self.n_bits);
        self.words[t / 64] |= 1u64 << (t % 64);
    }

    /// True when bit `t` is set.
    #[inline]
    pub fn contains(&self, t: u32) -> bool {
        let t = t as usize;
        t < self.n_bits && self.words[t / 64] & (1u64 << (t % 64)) != 0
    }

    /// Clears every bit, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of set bits (the cardinality of the record set).
    pub fn count_ones(&self) -> usize {
        kernel::count_ones(&self.words)
    }

    /// Cardinality of the intersection `self ∩ other`: the word-wise
    /// `AND` + popcount kernel of the bitmap permutation engine.  Debug
    /// builds assert matching sizes; the kernel itself only sweeps the
    /// common word prefix.
    #[inline]
    pub fn and_count(&self, other: &Bitmap) -> usize {
        debug_assert_eq!(self.n_bits, other.n_bits, "bitmap sizes differ");
        kernel::and_count(&self.words, &other.words)
    }

    /// Cardinality of the difference `self \ other` (`AND NOT` + popcount):
    /// the complement-cover primitive negative rules build on.
    #[inline]
    pub fn andnot_count(&self, other: &Bitmap) -> usize {
        debug_assert_eq!(self.n_bits, other.n_bits, "bitmap sizes differ");
        kernel::andnot_count(&self.words, &other.words)
    }

    /// The packed words, low record ids first.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Memory footprint of the packed words in bytes.
    pub fn size_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }
}

/// One [`Bitmap`] per class, built from a label vector (the original labels'
/// class covers, kept by the shared dataset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassBitmaps {
    bitmaps: Vec<Bitmap>,
}

impl ClassBitmaps {
    /// Creates empty per-class bitmaps for `n_classes` classes over
    /// `n_records` records.
    pub fn new(n_classes: usize, n_records: usize) -> Self {
        ClassBitmaps {
            bitmaps: (0..n_classes).map(|_| Bitmap::zeros(n_records)).collect(),
        }
    }

    /// Builds per-class bitmaps directly from a label vector.
    pub fn from_labels(labels: &[ClassId], n_classes: usize) -> Self {
        let mut bitmaps = ClassBitmaps::new(n_classes, labels.len());
        bitmaps.fill(labels);
        bitmaps
    }

    /// Re-fills the bitmaps from a (shuffled) label vector, reusing the
    /// allocations.
    ///
    /// # Panics
    ///
    /// Panics if the label vector length or a class id does not match the
    /// dimensions the bitmaps were created with.
    pub fn fill(&mut self, labels: &[ClassId]) {
        for bitmap in &mut self.bitmaps {
            assert_eq!(
                bitmap.n_bits(),
                labels.len(),
                "label vector length mismatch"
            );
            bitmap.clear();
        }
        for (t, &c) in labels.iter().enumerate() {
            self.bitmaps[c as usize].words[t / 64] |= 1u64 << (t % 64);
        }
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.bitmaps.len()
    }

    /// The bitmap of one class.
    pub fn class(&self, class: ClassId) -> &Bitmap {
        &self.bitmaps[class as usize]
    }
}

/// The cover of a pattern in the set-enumeration tree: either the full
/// tid-set, or — when the pattern's support is close to its parent's — the
/// diffset `tids(parent) \ tids(pattern)` (§4.2.2).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Cover {
    /// The pattern's full record id list.
    Tids(TidSet),
    /// The ids of records that contain the parent but not this pattern.
    Diffset(TidSet),
}

impl Cover {
    /// Chooses the representation the paper prescribes: store the full
    /// tid-set if `supp(X) ≤ supp(parent)/2`, otherwise store the diffset.
    pub fn choose(parent_tids: &TidSet, own_tids: TidSet) -> Cover {
        if own_tids.len() * 2 <= parent_tids.len() {
            Cover::Tids(own_tids)
        } else {
            Cover::Diffset(parent_tids.difference(&own_tids))
        }
    }

    /// True when the diffset representation is in use.
    pub fn is_diffset(&self) -> bool {
        matches!(self, Cover::Diffset(_))
    }

    /// Support of the pattern, given its parent's support.
    pub fn support(&self, parent_support: usize) -> usize {
        match self {
            Cover::Tids(t) => t.len(),
            Cover::Diffset(d) => parent_support - d.len(),
        }
    }

    /// Reconstructs the full tid-set, given the parent's tid-set.
    pub fn materialize(&self, parent_tids: &TidSet) -> TidSet {
        match self {
            Cover::Tids(t) => t.clone(),
            Cover::Diffset(d) => parent_tids.difference(d),
        }
    }

    /// Rule support (`supp(X ⇒ c)`) given the parent's rule support for the
    /// same class and the label vector.
    ///
    /// With a full tid-set the class members are counted directly; with a
    /// diffset the paper's identity is used:
    /// `supp(X ⇒ c) = supp(parent ⇒ c) − |{t ∈ Diffset(X) : label(t) = c}|`.
    pub fn rule_support(
        &self,
        parent_rule_support: usize,
        labels: &[ClassId],
        class: ClassId,
    ) -> usize {
        match self {
            Cover::Tids(t) => t.count_class(labels, class),
            Cover::Diffset(d) => parent_rule_support - d.count_class(labels, class),
        }
    }

    /// The stored id list itself — the full tid-set or the diffset,
    /// whichever representation is in use.
    pub fn stored_tids(&self) -> &TidSet {
        match self {
            Cover::Tids(t) => t,
            Cover::Diffset(d) => d,
        }
    }

    /// Number of ids in the stored list (what a counting pass has to touch
    /// per permutation chunk).
    pub fn stored_len(&self) -> usize {
        self.stored_tids().len()
    }

    /// Bytes used by the stored id list.
    pub fn size_bytes(&self) -> usize {
        match self {
            Cover::Tids(t) => t.size_bytes(),
            Cover::Diffset(d) => d.size_bytes(),
        }
    }
}

/// Vertical view of a dataset: one tid-set per item plus the class label
/// vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerticalDataset {
    n_records: usize,
    n_classes: usize,
    item_tids: Vec<TidSet>,
    labels: Vec<ClassId>,
}

impl VerticalDataset {
    /// Builds the vertical layout from a horizontal dataset in one pass.
    /// Works for any item source — attribute rows and baskets alike — because
    /// the bitmap columns are sized by the dataset's
    /// [`ItemSpace`](crate::itemspace::ItemSpace), not by schema columns.
    pub fn from_dataset(dataset: &Dataset) -> Self {
        let n_items = dataset.n_items();
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); n_items];
        for (tid, record) in dataset.records().iter().enumerate() {
            for &item in record.items() {
                buckets[item as usize].push(tid as u32);
            }
        }
        let item_tids = buckets
            .into_iter()
            .map(|tids| TidSet { tids }) // already sorted: tids pushed in increasing order
            .collect();
        VerticalDataset {
            n_records: dataset.n_records(),
            n_classes: dataset.n_classes(),
            item_tids,
            labels: dataset.class_labels(),
        }
    }

    /// Number of records.
    pub fn n_records(&self) -> usize {
        self.n_records
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Number of distinct items.
    pub fn n_items(&self) -> usize {
        self.item_tids.len()
    }

    /// The tid-set of an item.
    pub fn item_tids(&self, item: ItemId) -> &TidSet {
        &self.item_tids[item as usize]
    }

    /// Support of an item.
    pub fn item_support(&self, item: ItemId) -> usize {
        self.item_tids[item as usize].len()
    }

    /// The class label of every record, indexed by tid.
    pub fn labels(&self) -> &[ClassId] {
        &self.labels
    }

    /// Per-class record counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes];
        for &c in &self.labels {
            counts[c as usize] += 1;
        }
        counts
    }

    /// Replaces the label vector (used by the permutation engine; the
    /// structural part of the vertical layout is shared untouched).
    pub fn with_labels(&self, labels: Vec<ClassId>) -> VerticalDataset {
        assert_eq!(labels.len(), self.n_records, "label vector length mismatch");
        VerticalDataset {
            n_records: self.n_records,
            n_classes: self.n_classes,
            item_tids: self.item_tids.clone(),
            labels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Pattern;
    use crate::record::Record;
    use crate::schema::Schema;

    fn toy() -> Dataset {
        let schema = Schema::synthetic(&[2, 2], 2).unwrap();
        // items: A0: {0,1}, A1: {2,3}
        let records = vec![
            Record::new(vec![0, 2], 0),
            Record::new(vec![0, 3], 0),
            Record::new(vec![1, 2], 1),
            Record::new(vec![0, 2], 1),
            Record::new(vec![1, 3], 0),
        ];
        Dataset::new(schema, records).unwrap()
    }

    #[test]
    fn tidset_construction_and_queries() {
        let t = TidSet::from_tids([5, 1, 3, 1]);
        assert_eq!(t.tids(), &[1, 3, 5]);
        assert_eq!(t.len(), 3);
        assert!(t.contains(3));
        assert!(!t.contains(2));
        assert!(TidSet::empty().is_empty());
        assert_eq!(TidSet::full(4).tids(), &[0, 1, 2, 3]);
    }

    #[test]
    fn tidset_set_operations() {
        let a = TidSet::from_tids([1, 2, 3, 5, 8]);
        let b = TidSet::from_tids([2, 3, 4, 8, 9]);
        assert_eq!(a.intersect(&b).tids(), &[2, 3, 8]);
        assert_eq!(a.difference(&b).tids(), &[1, 5]);
        assert_eq!(b.difference(&a).tids(), &[4, 9]);
        assert_eq!(a.union(&b).tids(), &[1, 2, 3, 4, 5, 8, 9]);
        // identities
        assert_eq!(a.intersect(&TidSet::empty()).len(), 0);
        assert_eq!(a.difference(&TidSet::empty()), a);
        assert_eq!(a.union(&TidSet::empty()), a);
    }

    #[test]
    fn tidset_count_class() {
        let labels = vec![0u32, 1, 0, 1, 1];
        let t = TidSet::from_tids([0, 1, 3]);
        assert_eq!(t.count_class(&labels, 1), 2);
        assert_eq!(t.count_class(&labels, 0), 1);
    }

    #[test]
    fn cover_chooses_representation_per_paper_rule() {
        let parent = TidSet::from_tids(0..10);
        // small child: supp 4 <= 10/2 → tids
        let small = TidSet::from_tids([0, 1, 2, 3]);
        let c = Cover::choose(&parent, small.clone());
        assert!(!c.is_diffset());
        assert_eq!(c.support(parent.len()), 4);
        assert_eq!(c.materialize(&parent), small);

        // large child: supp 8 > 5 → diffset of size 2
        let large = TidSet::from_tids([0, 1, 2, 3, 4, 5, 6, 7]);
        let c = Cover::choose(&parent, large.clone());
        assert!(c.is_diffset());
        assert_eq!(c.support(parent.len()), 8);
        assert_eq!(c.size_bytes(), 2 * 4);
        assert_eq!(c.materialize(&parent), large);
    }

    #[test]
    fn cover_rule_support_identities() {
        let labels = vec![0u32, 0, 1, 1, 0, 1, 0, 0, 1, 0];
        let parent = TidSet::from_tids(0..10);
        let parent_rule_support = parent.count_class(&labels, 0); // 6
        let child = TidSet::from_tids([0, 1, 2, 3, 4, 5, 6]); // supp 7 → diffset
        let expected = child.count_class(&labels, 0);
        let c = Cover::choose(&parent, child.clone());
        assert!(c.is_diffset());
        assert_eq!(c.rule_support(parent_rule_support, &labels, 0), expected);

        let small_child = TidSet::from_tids([2, 3, 5]);
        let c = Cover::choose(&parent, small_child.clone());
        assert!(!c.is_diffset());
        assert_eq!(
            c.rule_support(parent_rule_support, &labels, 1),
            small_child.count_class(&labels, 1)
        );
    }

    #[test]
    fn vertical_matches_horizontal_supports() {
        let d = toy();
        let v = VerticalDataset::from_dataset(&d);
        assert_eq!(v.n_records(), 5);
        assert_eq!(v.n_items(), 4);
        for item in 0..4u32 {
            assert_eq!(v.item_support(item), d.item_support(item), "item {item}");
        }
        // pattern {0,2} via tidset intersection
        let t = v.item_tids(0).intersect(v.item_tids(2));
        assert_eq!(t.len(), d.support(&Pattern::from_items([0, 2])));
        // rule support via count_class
        assert_eq!(
            t.count_class(v.labels(), 1),
            d.rule_support(&Pattern::from_items([0, 2]), 1)
        );
    }

    #[test]
    fn bitmap_andnot_count_is_set_difference() {
        let a = Bitmap::from_tids(&TidSet::from_tids([0, 3, 64, 65, 100]), 130);
        let b = Bitmap::from_tids(&TidSet::from_tids([3, 65, 129]), 130);
        assert_eq!(a.andnot_count(&b), 3); // {0, 64, 100}
        assert_eq!(b.andnot_count(&a), 1); // {129}
    }

    #[test]
    fn with_labels_swaps_labels_only() {
        let d = toy();
        let v = VerticalDataset::from_dataset(&d);
        let new_labels = vec![1u32, 1, 1, 0, 0];
        let v2 = v.with_labels(new_labels.clone());
        assert_eq!(v2.labels(), new_labels.as_slice());
        assert_eq!(v2.item_tids(0), v.item_tids(0));
        assert_eq!(v2.class_counts(), vec![2, 3]);
    }
}
