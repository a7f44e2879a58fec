//! P-value buffering (§4.2.3 of the paper).
//!
//! The permutation-based approach evaluates `N_t · (N + 1)` Fisher exact
//! p-values (one per rule per permutation, plus the original dataset).  The
//! key observation of the paper is that the *coverage* of a rule does not
//! change across permutations — only its support does — so all p-values a rule
//! can ever take are determined by its coverage and can be computed once and
//! cached:
//!
//! * [`PValueBuffer`] is the per-coverage buffer `B_supp(X)` of Figure 2: for a
//!   fixed `(n, n_c, supp(X))` it stores the two-tailed p-value for every
//!   possible support value `k ∈ [L, U]`, built with the two-ends-inward
//!   summation described in the paper.
//! * [`PValueCache`] is the static + dynamic buffer arrangement: coverages up
//!   to `max_sup` (determined by a byte budget) live permanently in the static
//!   buffer; larger coverages share a single dynamic slot that is overwritten
//!   whenever a rule with a different large coverage is evaluated.
//!
//! [`PValueCache`] fills lazily behind `&mut self`, which forces every
//! permutation worker to own a full cache.  The parallel engine instead uses
//! the split arrangement:
//!
//! * [`SharedPValueTable`] — the static buffer built **once, up front**, for
//!   exactly the distinct coverages the mined rules use (coverages never
//!   change across permutations), then shared immutably (`&self`, `Sync`)
//!   by every worker thread.  Each entry ([`RankedBuffer`]) also stores every
//!   p-value's insertion rank among the observed p-values, so a permuted
//!   rule is scored with one lookup; the byte budget counts the p-values and
//!   ranks of those coverages only, not the worst case over every coverage;
//! * [`DynamicBuffer`] — the per-worker single-slot dynamic buffer for
//!   coverages the byte budget excluded from the static table.

use crate::fisher::two_tailed_from_pmf;
use crate::hypergeom::Hypergeometric;
use crate::logfact::LogFactorialTable;

/// The p-value buffer `B_supp(X)` for one coverage value: two-tailed Fisher
/// exact p-values for every possible support `k ∈ [L, U]`.
#[derive(Debug, Clone)]
pub struct PValueBuffer {
    /// Coverage (`supp(X)`) this buffer was built for.
    coverage: usize,
    /// Lower bound `L = max(0, n_c + supp(X) − n)` of the support range.
    lower: usize,
    /// `values[k − L]` is the p-value of a rule with support `k`.
    values: Vec<f64>,
}

impl PValueBuffer {
    /// Builds the buffer for a rule with coverage `supp_x` on a dataset with
    /// `n` records of which `n_c` carry the class label.
    ///
    /// Runs in `O(U − L + 1)` time (plus the same for the pmf evaluation),
    /// exactly as §4.2.3 claims.
    pub fn build(n: usize, n_c: usize, supp_x: usize, logs: &LogFactorialTable) -> Self {
        let dist = Hypergeometric::new(n, n_c, supp_x)
            .expect("coverage and class count must not exceed the dataset size");
        let pmf = dist.pmf_vector(logs);
        let values = two_tailed_from_pmf(&pmf);
        PValueBuffer {
            coverage: supp_x,
            lower: dist.lower(),
            values,
        }
    }

    /// Coverage this buffer corresponds to.
    pub fn coverage(&self) -> usize {
        self.coverage
    }

    /// Lower bound of the support range.
    pub fn lower(&self) -> usize {
        self.lower
    }

    /// Upper bound of the support range.
    pub fn upper(&self) -> usize {
        self.lower + self.values.len() - 1
    }

    /// Number of entries in the buffer.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the buffer holds no entries (cannot happen for valid margins,
    /// but required for a well-behaved `len`/`is_empty` pair).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// P-value of a rule with support `supp_r`.
    ///
    /// # Panics
    ///
    /// Panics if `supp_r` is outside `[L, U]` — a support outside the valid
    /// range means the caller's counts are inconsistent.
    #[inline]
    pub fn p_value(&self, supp_r: usize) -> f64 {
        assert!(
            supp_r >= self.lower && supp_r <= self.upper(),
            "support {supp_r} outside the valid range [{}, {}] for coverage {}",
            self.lower,
            self.upper(),
            self.coverage
        );
        self.values[supp_r - self.lower]
    }

    /// The smallest p-value any rule with this coverage can achieve (attained
    /// at one of the two ends of the support range).
    pub fn min_p_value(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Approximate memory footprint in bytes (used by the static buffer's
    /// byte budget).
    pub fn size_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<f64>() + std::mem::size_of::<Self>()
    }
}

/// Statistics describing how a [`PValueCache`] was used; useful for the
/// ablation benchmarks that reproduce Figure 4.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the static buffer.
    pub static_hits: u64,
    /// Lookups answered from the dynamic buffer without rebuilding it.
    pub dynamic_hits: u64,
    /// Buffers built and inserted into the static buffer.
    pub static_builds: u64,
    /// Buffers built into the dynamic slot (evicting the previous one).
    pub dynamic_builds: u64,
}

impl CacheStats {
    /// Total number of lookups served.
    pub fn lookups(&self) -> u64 {
        self.static_hits + self.dynamic_hits + self.static_builds + self.dynamic_builds
    }
}

/// The static + dynamic p-value buffer cache of §4.2.3.
///
/// * Coverages `min_sup ..= max_sup` are cached permanently ("static buffer");
///   `max_sup` is derived from a byte budget (16 MB in the paper's best
///   configuration).
/// * Coverages above `max_sup` share one "dynamic buffer" slot remembered by
///   coverage value (`sup_d` in the paper), rebuilt whenever a different large
///   coverage is requested.
///
/// # Examples
///
/// ```
/// use sigrule_stats::{LogFactorialTable, PValueCache};
///
/// let logs = LogFactorialTable::new(1000);
/// let mut cache = PValueCache::new(1000, 500, 16 * 1024 * 1024, 10);
/// let p = cache.p_value(100, 80, &logs); // coverage 100, support 80
/// assert!(p < 1e-8);
/// // Second lookup with the same coverage is a cache hit.
/// let p2 = cache.p_value(100, 60, &logs);
/// assert!(p2 > p);
/// ```
#[derive(Debug, Clone)]
pub struct PValueCache {
    n: usize,
    n_c: usize,
    /// Smallest coverage that will ever be requested (the minimum support
    /// threshold); used only to size the static buffer index.
    min_sup: usize,
    /// Largest coverage stored in the static buffer.
    max_sup: usize,
    /// `static_buffers[cov − min_sup]`, present once that coverage was seen.
    static_buffers: Vec<Option<PValueBuffer>>,
    /// The single dynamic slot for coverages above `max_sup`.
    dynamic: Option<PValueBuffer>,
    stats: CacheStats,
}

impl PValueCache {
    /// Creates a cache for a dataset with `n` records, `n_c` of the class of
    /// interest, a static-buffer byte budget and the minimum support
    /// threshold used for mining.
    ///
    /// The largest coverage kept in the static buffer (`max_sup`) is chosen so
    /// that the worst-case total size of all buffers between `min_sup` and
    /// `max_sup` stays within `budget_bytes`, mirroring the paper's "the value
    /// of max_sup is decided by the size of the static buffer".
    pub fn new(n: usize, n_c: usize, budget_bytes: usize, min_sup: usize) -> Self {
        let min_sup = min_sup.max(1).min(n);
        let max_sup = static_max_coverage(n, n_c, budget_bytes, min_sup);
        let slots = if max_sup >= min_sup {
            max_sup - min_sup + 1
        } else {
            0
        };
        PValueCache {
            n,
            n_c,
            min_sup,
            max_sup,
            static_buffers: vec![None; slots],
            dynamic: None,
            stats: CacheStats::default(),
        }
    }

    /// Creates a cache with no static buffer at all: every coverage goes
    /// through the single dynamic slot.  This is the paper's "dynamic buffer"
    /// configuration in Figure 4.
    pub fn dynamic_only(n: usize, n_c: usize) -> Self {
        PValueCache {
            n,
            n_c,
            min_sup: 1,
            max_sup: 0,
            static_buffers: Vec::new(),
            dynamic: None,
            stats: CacheStats::default(),
        }
    }

    /// Number of records the cache was built for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Class count the cache was built for.
    pub fn n_c(&self) -> usize {
        self.n_c
    }

    /// Largest coverage held in the static buffer (0 when there is none).
    pub fn max_static_coverage(&self) -> usize {
        self.max_sup
    }

    /// Usage counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Returns the p-value of a rule with the given coverage and support,
    /// building and caching the per-coverage buffer if necessary.
    pub fn p_value(&mut self, supp_x: usize, supp_r: usize, logs: &LogFactorialTable) -> f64 {
        self.buffer_for(supp_x, logs).p_value(supp_r)
    }

    /// Returns the smallest p-value achievable at the given coverage; used by
    /// pruning heuristics (a rule whose best-case p-value is above the cut-off
    /// can be skipped entirely).
    pub fn min_p_value(&mut self, supp_x: usize, logs: &LogFactorialTable) -> f64 {
        self.buffer_for(supp_x, logs).min_p_value()
    }

    /// Borrows (building if necessary) the buffer for a coverage value.
    pub fn buffer_for(&mut self, supp_x: usize, logs: &LogFactorialTable) -> &PValueBuffer {
        assert!(
            supp_x <= self.n,
            "coverage {supp_x} exceeds dataset size {}",
            self.n
        );
        if supp_x >= self.min_sup && supp_x <= self.max_sup {
            let idx = supp_x - self.min_sup;
            if self.static_buffers[idx].is_none() {
                self.stats.static_builds += 1;
                self.static_buffers[idx] =
                    Some(PValueBuffer::build(self.n, self.n_c, supp_x, logs));
            } else {
                self.stats.static_hits += 1;
            }
            self.static_buffers[idx].as_ref().expect("just inserted")
        } else {
            let rebuild = match &self.dynamic {
                Some(buf) => buf.coverage() != supp_x,
                None => true,
            };
            if rebuild {
                self.stats.dynamic_builds += 1;
                self.dynamic = Some(PValueBuffer::build(self.n, self.n_c, supp_x, logs));
            } else {
                self.stats.dynamic_hits += 1;
            }
            self.dynamic.as_ref().expect("just inserted")
        }
    }

    /// Total bytes currently held by cached buffers.
    pub fn resident_bytes(&self) -> usize {
        let stat: usize = self
            .static_buffers
            .iter()
            .flatten()
            .map(PValueBuffer::size_bytes)
            .sum();
        stat + self.dynamic.as_ref().map_or(0, PValueBuffer::size_bytes)
    }
}

/// The largest coverage whose buffer still fits a byte budget when every
/// coverage from `min_sup` up is stored: the paper's "the value of max_sup is
/// decided by the size of the static buffer" rule for the lazily filled
/// [`PValueCache`], which cannot know in advance which coverages it will see.
fn static_max_coverage(n: usize, n_c: usize, budget_bytes: usize, min_sup: usize) -> usize {
    let mut max_sup = min_sup.saturating_sub(1);
    let mut used = 0usize;
    for cov in min_sup..=n {
        // Worst-case buffer length for this coverage.
        let lower = (n_c + cov).saturating_sub(n);
        let upper = n_c.min(cov);
        let entry = (upper - lower + 1) * std::mem::size_of::<f64>() + 64;
        if used + entry > budget_bytes {
            break;
        }
        used += entry;
        max_sup = cov;
    }
    max_sup
}

/// One entry of a [`SharedPValueTable`]: the p-value buffer of one coverage
/// plus, for every support `k ∈ [L, U]`, the **insertion rank** of that
/// p-value among the rule set's observed p-values — the number of observed
/// p-values strictly below it.  The permutation engine's pooled-null
/// histogram is keyed by exactly that rank, so a permuted rule is scored with
/// one lookup instead of a lookup plus a binary search.
///
/// The ranks are a parallel `u32` vector, so the p-values are stored once.
#[derive(Debug, Clone)]
pub struct RankedBuffer {
    buffer: PValueBuffer,
    /// `ranks[k − L]` = `sorted_observed.partition_point(|x| x < p(k))`.
    ranks: Vec<u32>,
}

impl RankedBuffer {
    /// Builds the buffer of coverage `supp_x` and ranks each of its p-values
    /// against `sorted_observed` (ascending).
    fn build(
        n: usize,
        n_c: usize,
        supp_x: usize,
        sorted_observed: &[f64],
        logs: &LogFactorialTable,
    ) -> Self {
        let buffer = PValueBuffer::build(n, n_c, supp_x, logs);
        let ranks = buffer
            .values
            .iter()
            .map(|&p| {
                u32::try_from(sorted_observed.partition_point(|&x| x < p))
                    .expect("fewer than 2^32 observed p-values")
            })
            .collect();
        RankedBuffer { buffer, ranks }
    }

    /// The p-value buffer this entry ranks.
    pub fn buffer(&self) -> &PValueBuffer {
        &self.buffer
    }

    /// The insertion ranks, parallel to the buffer's supports `L..=U`.
    pub fn ranks(&self) -> &[u32] {
        &self.ranks
    }

    /// P-value and insertion rank of a rule with support `supp_r`.
    ///
    /// # Panics
    ///
    /// Panics if `supp_r` is outside `[L, U]`.
    #[inline]
    pub fn lookup(&self, supp_r: usize) -> (f64, usize) {
        let i = supp_r.wrapping_sub(self.buffer.lower);
        (self.buffer.values[i], self.ranks[i] as usize)
    }

    /// Memory footprint in bytes: the p-values, their ranks and the entry
    /// itself.
    pub fn size_bytes(&self) -> usize {
        ranked_entry_bytes(self.ranks.len())
    }
}

/// Bytes of a [`RankedBuffer`] with `len` supports: one `f64` and one `u32`
/// per support plus the fixed header.  Both the budget of
/// [`SharedPValueTable::build`] and [`RankedBuffer::size_bytes`] use it, so
/// the budget counts exactly the bytes the table keeps.
fn ranked_entry_bytes(len: usize) -> usize {
    len * (std::mem::size_of::<f64>() + std::mem::size_of::<u32>())
        + std::mem::size_of::<RankedBuffer>()
}

/// Marks a coverage the table does not hold in [`SharedPValueTable`]'s index.
const ABSENT: u32 = u32::MAX;

/// The static half of §4.2.3 rebuilt for parallel permutation workers: a
/// [`RankedBuffer`] for every **distinct rule coverage** within the byte
/// budget, built once up front and then only read (`&self`), so a single
/// table is shared by every worker thread.
///
/// The budget is spent on the coverages the rules actually use, in ascending
/// order, counting the bytes each entry stores (p-values plus ranks); the
/// first coverage that no longer fits and every larger one
/// (above [`SharedPValueTable::max_static_coverage`]) are served by each
/// worker's own [`DynamicBuffer`].
#[derive(Debug, Clone)]
pub struct SharedPValueTable {
    n: usize,
    n_c: usize,
    /// Smallest held coverage (0 when the table is empty).
    first: usize,
    /// `index[cov − first]` = position of `cov` in `entries`, or [`ABSENT`].
    index: Vec<u32>,
    /// The held entries, in ascending coverage order.
    entries: Vec<RankedBuffer>,
}

impl SharedPValueTable {
    /// Builds the table for a dataset with `n` records of which `n_c` carry
    /// the class: one [`RankedBuffer`] per distinct value in `coverages`,
    /// smallest first, while the stored bytes fit `budget_bytes`.  Ranks are
    /// taken against `sorted_observed`, the rule set's observed p-values in
    /// ascending order.
    pub fn build(
        n: usize,
        n_c: usize,
        budget_bytes: usize,
        coverages: impl IntoIterator<Item = usize>,
        sorted_observed: &[f64],
        logs: &LogFactorialTable,
    ) -> Self {
        let mut wanted: Vec<usize> = coverages.into_iter().collect();
        wanted.sort_unstable();
        wanted.dedup();
        let mut entries = Vec::new();
        let mut used = 0usize;
        for cov in wanted {
            // Buffer length for this coverage: U − L + 1.
            let len = n_c.min(cov) - (n_c + cov).saturating_sub(n) + 1;
            let bytes = ranked_entry_bytes(len);
            if used + bytes > budget_bytes {
                break;
            }
            used += bytes;
            entries.push(RankedBuffer::build(n, n_c, cov, sorted_observed, logs));
        }
        let (first, index) = match (entries.first(), entries.last()) {
            (Some(lo), Some(hi)) => {
                let first = lo.buffer.coverage;
                let mut index = vec![ABSENT; hi.buffer.coverage - first + 1];
                for (i, entry) in entries.iter().enumerate() {
                    index[entry.buffer.coverage - first] = i as u32;
                }
                (first, index)
            }
            _ => (0, Vec::new()),
        };
        SharedPValueTable {
            n,
            n_c,
            first,
            index,
            entries,
        }
    }

    /// The entry for a coverage, if the table holds it.  Immutable — safe to
    /// call from any number of threads at once.
    #[inline]
    pub fn get(&self, supp_x: usize) -> Option<&RankedBuffer> {
        match self.index.get(supp_x.wrapping_sub(self.first)) {
            Some(&i) if i != ABSENT => Some(&self.entries[i as usize]),
            _ => None,
        }
    }

    /// Largest coverage the table holds (0 when it holds none).  Every
    /// requested coverage up to it is held.
    pub fn max_static_coverage(&self) -> usize {
        self.entries.last().map_or(0, |e| e.buffer.coverage)
    }

    /// Number of records the table was built for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Class count the table was built for.
    pub fn n_c(&self) -> usize {
        self.n_c
    }

    /// Number of coverages resident in the table.
    pub fn n_buffers(&self) -> usize {
        self.entries.len()
    }

    /// Total bytes held by the resident entries (p-values and ranks) and
    /// the coverage index.
    pub fn resident_bytes(&self) -> usize {
        self.entries
            .iter()
            .map(RankedBuffer::size_bytes)
            .sum::<usize>()
            + self.index.len() * std::mem::size_of::<u32>()
    }
}

/// A full static-buffer arrangement for one mined rule set — one
/// [`SharedPValueTable`] per class slot — behind an [`Arc`](std::sync::Arc)
/// so a resident engine can build the tables **once** and reuse them across
/// any number of requests (different permutation counts, seeds, or α) instead
/// of rebuilding them per run.
///
/// The tables are immutable after construction, so cloning a set is a
/// reference-count bump and sharing one across worker threads is free.
#[derive(Debug, Clone)]
pub struct SharedTableSet {
    tables: std::sync::Arc<Vec<SharedPValueTable>>,
}

impl SharedTableSet {
    /// Wraps per-class-slot tables (in the caller's slot order) for sharing.
    pub fn new(tables: Vec<SharedPValueTable>) -> Self {
        SharedTableSet {
            tables: std::sync::Arc::new(tables),
        }
    }

    /// The table of a class slot.
    pub fn slot(&self, slot: usize) -> &SharedPValueTable {
        &self.tables[slot]
    }

    /// All tables, in slot order.
    pub fn tables(&self) -> &[SharedPValueTable] {
        &self.tables
    }

    /// Number of class slots.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when the set holds no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Total bytes held by every resident buffer across the slots.
    pub fn resident_bytes(&self) -> usize {
        self.tables
            .iter()
            .map(SharedPValueTable::resident_bytes)
            .sum()
    }

    /// True when `other` is the same underlying allocation (i.e. a clone of
    /// this set, not merely an equal rebuild).
    pub fn same_allocation(&self, other: &SharedTableSet) -> bool {
        std::sync::Arc::ptr_eq(&self.tables, &other.tables)
    }
}

/// A single-slot per-coverage buffer owned by one permutation worker: the
/// dynamic half of §4.2.3, rebuilt whenever a different (large) coverage is
/// requested.  Unlike [`PValueCache`] it carries no static part, so one
/// exists per thread while the static table is shared.
#[derive(Debug, Clone)]
pub struct DynamicBuffer {
    n: usize,
    n_c: usize,
    slot: Option<PValueBuffer>,
    builds: u64,
    hits: u64,
}

impl DynamicBuffer {
    /// Creates an empty buffer for a dataset with `n` records, `n_c` of the
    /// class of interest.
    pub fn new(n: usize, n_c: usize) -> Self {
        DynamicBuffer {
            n,
            n_c,
            slot: None,
            builds: 0,
            hits: 0,
        }
    }

    /// P-value of a rule with the given coverage and support, rebuilding the
    /// slot if it holds a different coverage.
    #[inline]
    pub fn p_value(&mut self, supp_x: usize, supp_r: usize, logs: &LogFactorialTable) -> f64 {
        let rebuild = match &self.slot {
            Some(buf) => buf.coverage() != supp_x,
            None => true,
        };
        if rebuild {
            self.builds += 1;
            self.slot = Some(PValueBuffer::build(self.n, self.n_c, supp_x, logs));
        } else {
            self.hits += 1;
        }
        self.slot.as_ref().expect("just built").p_value(supp_r)
    }

    /// Number of buffer (re)builds.
    pub fn builds(&self) -> u64 {
        self.builds
    }

    /// Number of lookups served without a rebuild.
    pub fn hits(&self) -> u64 {
        self.hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fisher::{FisherTest, RuleCounts, Tail};

    #[test]
    fn buffer_matches_figure2() {
        let logs = LogFactorialTable::new(20);
        let buf = PValueBuffer::build(20, 11, 6, &logs);
        assert_eq!(buf.lower(), 0);
        assert_eq!(buf.upper(), 6);
        assert_eq!(buf.len(), 7);
        let expected = [
            0.0021672, 0.049845, 0.33591, 1.0000, 0.64241, 0.15712, 0.014087,
        ];
        for (k, want) in expected.iter().enumerate() {
            let got = buf.p_value(k);
            assert!((got - want).abs() / want < 1e-3, "k={k}");
        }
    }

    #[test]
    fn buffer_agrees_with_direct_fisher() {
        let logs = LogFactorialTable::new(500);
        let test = FisherTest::with_table(logs.clone());
        for &(n, n_c, supp_x) in &[(500usize, 200usize, 60usize), (300, 150, 31), (100, 30, 25)] {
            let buf = PValueBuffer::build(n, n_c, supp_x, &logs);
            for k in buf.lower()..=buf.upper() {
                let counts = RuleCounts::new(n, n_c, supp_x, k).unwrap();
                let direct = test.p_value(&counts, Tail::TwoSided);
                assert!(
                    (buf.p_value(k) - direct).abs() < 1e-9,
                    "n={n} n_c={n_c} supp_x={supp_x} k={k}"
                );
            }
        }
    }

    #[test]
    fn min_p_value_at_extremes() {
        let logs = LogFactorialTable::new(1000);
        let buf = PValueBuffer::build(1000, 500, 100, &logs);
        let min = buf.min_p_value();
        let at_l = buf.p_value(buf.lower());
        let at_u = buf.p_value(buf.upper());
        assert!((min - at_l.min(at_u)).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "outside the valid range")]
    fn buffer_panics_outside_range() {
        let logs = LogFactorialTable::new(10);
        let buf = PValueBuffer::build(10, 8, 7, &logs);
        // lower bound is 5, so asking for 0 is invalid
        let _ = buf.p_value(0);
    }

    #[test]
    fn cache_static_and_dynamic_paths() {
        let logs = LogFactorialTable::new(200);
        // Tiny budget so only a few coverages fit in the static buffer.
        let mut cache = PValueCache::new(200, 100, 4000, 10);
        let max_static = cache.max_static_coverage();
        assert!(
            max_static >= 10,
            "budget should admit at least one coverage"
        );

        // A static-range coverage: first call builds, second hits.
        let p1 = cache.p_value(10, 9, &logs);
        let p2 = cache.p_value(10, 9, &logs);
        assert_eq!(p1, p2);
        assert_eq!(cache.stats().static_builds, 1);
        assert_eq!(cache.stats().static_hits, 1);

        // A coverage above max_sup exercises the dynamic slot.
        let big = max_static + 20;
        let _ = cache.p_value(big, big / 2, &logs);
        let _ = cache.p_value(big, big / 2 + 1, &logs);
        assert_eq!(cache.stats().dynamic_builds, 1);
        assert_eq!(cache.stats().dynamic_hits, 1);

        // A different large coverage evicts the dynamic buffer.
        let _ = cache.p_value(big + 5, big / 2, &logs);
        assert_eq!(cache.stats().dynamic_builds, 2);
    }

    #[test]
    fn dynamic_only_cache_always_uses_dynamic_slot() {
        let logs = LogFactorialTable::new(100);
        let mut cache = PValueCache::dynamic_only(100, 50);
        assert_eq!(cache.max_static_coverage(), 0);
        let _ = cache.p_value(20, 15, &logs);
        let _ = cache.p_value(20, 10, &logs);
        let _ = cache.p_value(30, 10, &logs);
        let s = cache.stats();
        assert_eq!(s.static_builds, 0);
        assert_eq!(s.static_hits, 0);
        assert_eq!(s.dynamic_builds, 2);
        assert_eq!(s.dynamic_hits, 1);
    }

    #[test]
    fn cache_values_agree_with_uncached_fisher() {
        let logs = LogFactorialTable::new(400);
        let test = FisherTest::with_table(logs.clone());
        let mut cache = PValueCache::new(400, 170, 1 << 20, 5);
        for (supp_x, supp_r) in [(5, 5), (40, 30), (170, 120), (399, 169)] {
            let cached = cache.p_value(supp_x, supp_r, &logs);
            let counts = RuleCounts::new(400, 170, supp_x, supp_r).unwrap();
            let direct = test.p_value(&counts, Tail::TwoSided);
            assert!(
                (cached - direct).abs() < 1e-9,
                "supp_x={supp_x} supp_r={supp_r}"
            );
        }
    }

    #[test]
    fn resident_bytes_grows_with_usage() {
        let logs = LogFactorialTable::new(300);
        let mut cache = PValueCache::new(300, 150, 1 << 20, 10);
        let before = cache.resident_bytes();
        let _ = cache.p_value(50, 30, &logs);
        let _ = cache.p_value(60, 30, &logs);
        assert!(cache.resident_bytes() > before);
    }

    #[test]
    fn shared_table_matches_cache_and_is_prebuilt() {
        let logs = LogFactorialTable::new(300);
        let coverages = [20usize, 45, 45, 90];
        let observed = [1e-6, 0.01, 0.01, 0.2, 0.5];
        let table = SharedPValueTable::build(300, 120, 1 << 20, coverages, &observed, &logs);
        assert_eq!(table.n(), 300);
        assert_eq!(table.n_c(), 120);
        // Every requested coverage is resident, once.
        assert_eq!(table.n_buffers(), 3);
        assert_eq!(table.max_static_coverage(), 90);
        assert!(table.resident_bytes() > 0);
        let mut cache = PValueCache::new(300, 120, 1 << 20, 10);
        for cov in [20usize, 45, 90] {
            let entry = table.get(cov).expect("coverage was requested up front");
            let buf = entry.buffer();
            assert_eq!(buf.coverage(), cov);
            assert_eq!(entry.ranks().len(), buf.len());
            for k in buf.lower()..=buf.upper() {
                let p = cache.p_value(cov, k, &logs);
                assert_eq!(buf.p_value(k), p, "cov={cov} k={k}");
                let rank = observed.partition_point(|&x| x < p);
                assert_eq!(entry.lookup(k), (p, rank), "cov={cov} k={k}");
            }
        }
        // A coverage that was never requested is absent, not built on demand,
        // whether it lies between held coverages or outside them.
        assert!(table.get(30).is_none());
        assert!(table.get(5).is_none());
        assert!(table.get(91).is_none());
    }

    #[test]
    fn shared_table_budget_counts_stored_bytes() {
        let logs = LogFactorialTable::new(200);
        let budget = 4000;
        let table = SharedPValueTable::build(200, 100, budget, 10..=200, &[0.5], &logs);
        let max = table.max_static_coverage();
        assert!(max >= 10, "the budget admits at least one coverage");
        // Every coverage up to the cut-off is held, none above it.
        for cov in 10..=200 {
            assert_eq!(table.get(cov).is_some(), cov <= max, "cov={cov}");
        }
        // The held entries' p-values and ranks fit the budget, and the next
        // coverage would not have.
        let held: usize = (10..=max).map(|c| table.get(c).unwrap().size_bytes()).sum();
        assert!(held <= budget);
        let next = PValueBuffer::build(200, 100, max + 1, &logs).len();
        assert!(held + ranked_entry_bytes(next) > budget);
        assert_eq!(table.resident_bytes(), held + (max - 10 + 1) * 4);
        // Only the coverages the rules use are paid for: a sparse rule set
        // reaches far past the worst-case cut-off of the lazy cache.
        let cache = PValueCache::new(200, 100, budget, 10);
        let sparse = SharedPValueTable::build(200, 100, budget, [10, 150, 190], &[0.5], &logs);
        assert!(cache.max_static_coverage() < 150);
        assert_eq!(sparse.max_static_coverage(), 190);
        assert_eq!(sparse.n_buffers(), 3);
    }

    #[test]
    fn shared_table_set_is_one_allocation() {
        let logs = LogFactorialTable::new(200);
        let build = |n_c: usize| {
            SharedPValueTable::build(200, n_c, 1 << 20, [10usize, 20], &[0.01, 0.3], &logs)
        };
        let set = SharedTableSet::new(vec![build(80), build(120)]);
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        assert!(set.resident_bytes() > 0);
        // The ranks are counted: one u32 per support of every entry.
        let ranks: usize = set
            .tables()
            .iter()
            .flat_map(|t| [10usize, 20].map(|c| t.get(c).unwrap().ranks().len()))
            .sum();
        let values: usize = set
            .tables()
            .iter()
            .flat_map(|t| [10usize, 20].map(|c| t.get(c).unwrap().buffer().len()))
            .sum();
        assert!(set.resident_bytes() >= values * 8 + ranks * 4);
        let clone = set.clone();
        assert!(set.same_allocation(&clone));
        // A rebuild with identical inputs is equal in content but distinct in
        // allocation — reuse is observable.
        let rebuilt = SharedTableSet::new(vec![build(80), build(120)]);
        assert!(!set.same_allocation(&rebuilt));
        assert_eq!(set.slot(0).n_c(), 80);
        assert_eq!(set.tables().len(), 2);
    }

    #[test]
    fn dynamic_buffer_rebuilds_per_coverage() {
        let logs = LogFactorialTable::new(100);
        let mut dynamic = DynamicBuffer::new(100, 50);
        let test = FisherTest::with_table(logs.clone());
        let p = dynamic.p_value(20, 15, &logs);
        let direct = test.p_value(&RuleCounts::new(100, 50, 20, 15).unwrap(), Tail::TwoSided);
        assert!((p - direct).abs() < 1e-9);
        let _ = dynamic.p_value(20, 10, &logs);
        assert_eq!(dynamic.builds(), 1);
        assert_eq!(dynamic.hits(), 1);
        let _ = dynamic.p_value(30, 10, &logs);
        assert_eq!(dynamic.builds(), 2);
    }

    #[test]
    fn cache_stats_lookups_totals() {
        let logs = LogFactorialTable::new(100);
        let mut cache = PValueCache::new(100, 40, 1 << 20, 5);
        for _ in 0..3 {
            let _ = cache.p_value(10, 5, &logs);
        }
        assert_eq!(cache.stats().lookups(), 3);
    }
}
