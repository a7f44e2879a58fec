//! P-value buffering (§4.2.3 of the paper).
//!
//! The permutation-based approach evaluates `N_t · (N + 1)` Fisher exact
//! p-values (one per rule per permutation, plus the original dataset).  The
//! key observation of the paper is that the *coverage* of a rule does not
//! change across permutations — only its support does — so all p-values a rule
//! can ever take are determined by its coverage and can be computed once:
//!
//! * [`PValueBuffer`] is the per-coverage buffer `B_supp(X)` of Figure 2: for a
//!   fixed `(n, n_c, supp(X))` it stores the two-tailed p-value for every
//!   possible support value `k ∈ [L, U]`, built with the two-ends-inward
//!   summation described in the paper.
//! * [`PValueTable`] is the static buffer of one class: the buffers of the
//!   distinct coverages a rule set uses, smallest first, for as long as their
//!   bytes fit a budget.  Mining builds one per class slot while it scores
//!   the observed rules, and keeps it with the rule set, so every buffer is
//!   built exactly once.
//! * [`SharedPValueTable`] is what the permutation null reads: a prefix of
//!   one slot's [`PValueTable`], shared behind an [`Arc`] rather than copied,
//!   plus every p-value's insertion rank among the observed p-values
//!   ([`RankedBuffer`]), so a permuted rule is scored with one lookup.  It is
//!   immutable (`&self`, `Sync`), so one table serves every worker thread.
//! * [`DynamicBuffer`] is the dynamic half of §4.2.3: one single-slot buffer
//!   per permutation worker for the coverages past the budget, rebuilt
//!   whenever a different coverage is requested.
//!
//! Both budgets count the bytes the null's table stores per coverage
//! (p-values plus ranks), so under equal budgets the null's table holds the
//! whole mined table.

use crate::fisher::two_tailed_from_pmf;
use crate::hypergeom::Hypergeometric;
use crate::logfact::LogFactorialTable;
use std::sync::Arc;

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

    /// Memory footprint in bytes: the p-values and the buffer header.
    pub fn size_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<f64>() + std::mem::size_of::<Self>()
    }
}

/// Bytes the null's table stores for one coverage with `len` supports: one
/// `f64` p-value and one `u32` rank per support, plus the buffer header and
/// the rank vector header.  [`PValueTable::offer`],
/// [`SharedPValueTable::build`] and [`RankedBuffer::size_bytes`] all use it,
/// so a budget counts exactly the bytes kept.
fn ranked_entry_bytes(len: usize) -> usize {
    len * (std::mem::size_of::<f64>() + std::mem::size_of::<u32>())
        + std::mem::size_of::<PValueBuffer>()
        + std::mem::size_of::<Vec<u32>>()
}

/// The static buffer of one class (§4.2.3): the [`PValueBuffer`] of each
/// distinct coverage a rule set uses, in ascending coverage order, for as
/// long as their bytes fit a budget.
///
/// Mining offers every coverage of a class slot, smallest first, and scores
/// that coverage's rules from the buffer it just built; the table keeps the
/// buffers up to the first one that no longer fits and drops that one and
/// every larger one, so it always holds a prefix of the slot's coverages.
/// The rule set keeps the table behind an [`Arc`] and the permutation null
/// ranks it in place ([`SharedPValueTable`]).
///
/// # Examples
///
/// ```
/// use sigrule_stats::{LogFactorialTable, PValueBuffer, PValueTable};
///
/// let logs = LogFactorialTable::new(1000);
/// let mut table = PValueTable::new(1000, 500, 16 * 1024 * 1024);
/// for coverage in [40, 100] {
///     let buffer = PValueBuffer::build(1000, 500, coverage, &logs);
///     assert!(table.offer(buffer));
/// }
/// // Coverage 100, support 80: far above the expected 50.
/// assert!(table.buffers()[1].p_value(80) < 1e-8);
/// ```
#[derive(Debug, Clone)]
pub struct PValueTable {
    n: usize,
    n_c: usize,
    /// Bytes the budget still admits; `None` once a buffer was dropped, so
    /// every larger coverage is dropped too.
    room: Option<usize>,
    /// The kept buffers, in ascending coverage order.
    buffers: Vec<PValueBuffer>,
}

impl PValueTable {
    /// An empty table for a dataset with `n` records of which `n_c` carry
    /// the class, admitting buffers while their stored bytes (p-values plus
    /// the null's ranks) fit `budget_bytes`.
    pub fn new(n: usize, n_c: usize, budget_bytes: usize) -> Self {
        PValueTable {
            n,
            n_c,
            room: Some(budget_bytes),
            buffers: Vec::new(),
        }
    }

    /// Offers the buffer of the next larger coverage.  Returns whether the
    /// table kept it: it does while the buffer's bytes fit what is left of
    /// the budget, and never again once one did not.
    ///
    /// # Panics
    ///
    /// Panics when the coverage is not larger than the last one offered and
    /// kept — the table is indexed by ascending coverage.
    pub fn offer(&mut self, buffer: PValueBuffer) -> bool {
        if let Some(last) = self.buffers.last() {
            assert!(
                buffer.coverage > last.coverage,
                "coverage {} offered after coverage {}",
                buffer.coverage,
                last.coverage
            );
        }
        let bytes = ranked_entry_bytes(buffer.len());
        match self.room {
            Some(room) if bytes <= room => {
                self.room = Some(room - bytes);
                self.buffers.push(buffer);
                true
            }
            _ => {
                self.room = None;
                false
            }
        }
    }

    /// The kept buffers, in ascending coverage order.
    pub fn buffers(&self) -> &[PValueBuffer] {
        &self.buffers
    }

    /// Number of records the table was built for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Class count the table was built for.
    pub fn n_c(&self) -> usize {
        self.n_c
    }

    /// Bytes held by the kept buffers (their p-values and headers).
    pub fn resident_bytes(&self) -> usize {
        self.buffers.iter().map(PValueBuffer::size_bytes).sum()
    }
}

/// One entry of a [`SharedPValueTable`], borrowed from it: the p-value
/// buffer of one coverage plus, for every support `k ∈ [L, U]`, the
/// **insertion rank** of that p-value among the rule set's observed p-values
/// — the number of observed p-values strictly below it.  The permutation
/// engine's pooled-null histogram is keyed by exactly that rank, so a
/// permuted rule is scored with one lookup instead of a lookup plus a binary
/// search.
#[derive(Debug, Clone, Copy)]
pub struct RankedBuffer<'a> {
    buffer: &'a PValueBuffer,
    /// `ranks[k − L]` = `sorted_observed.partition_point(|x| x < p(k))`.
    ranks: &'a [u32],
}

impl<'a> RankedBuffer<'a> {
    /// The p-value buffer this entry ranks.
    pub fn buffer(&self) -> &'a PValueBuffer {
        self.buffer
    }

    /// The insertion ranks, parallel to the buffer's supports `L..=U`.
    pub fn ranks(&self) -> &'a [u32] {
        self.ranks
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

    /// Bytes the entry stores: its p-values, their ranks and both headers.
    pub fn size_bytes(&self) -> usize {
        ranked_entry_bytes(self.ranks.len())
    }
}

/// Marks a coverage the table does not hold in [`SharedPValueTable`]'s index.
const ABSENT: u32 = u32::MAX;

/// The static half of §4.2.3 as the parallel permutation workers read it:
/// the longest prefix of one class slot's [`PValueTable`] that fits the
/// null's byte budget, with every p-value's insertion rank, behind a dense
/// coverage index.  Built once and then only read (`&self`), so a single
/// table is shared by every worker thread.
///
/// The p-values are the mined rule set's own allocation (an [`Arc`] clone);
/// this table adds only the ranks and the index.  A coverage past the prefix
/// (above [`SharedPValueTable::max_static_coverage`]) is served by each
/// worker's own [`DynamicBuffer`].
#[derive(Debug, Clone)]
pub struct SharedPValueTable {
    p_values: Arc<PValueTable>,
    /// Smallest held coverage (0 when the table is empty).
    first: usize,
    /// `index[cov − first]` = position of `cov` in the held prefix, or
    /// [`ABSENT`].
    index: Vec<u32>,
    /// `ranks[i]` ranks `p_values.buffers()[i]`; one vector per held buffer.
    ranks: Vec<Vec<u32>>,
}

impl SharedPValueTable {
    /// Ranks the longest prefix of `p_values` whose stored bytes (p-values
    /// plus ranks) fit `budget_bytes` against `sorted_observed`, the rule
    /// set's observed p-values in ascending order.  The p-values are shared,
    /// not copied.
    pub fn build(
        p_values: &Arc<PValueTable>,
        budget_bytes: usize,
        sorted_observed: &[f64],
    ) -> Self {
        let mut used = 0usize;
        let ranks: Vec<Vec<u32>> = p_values
            .buffers
            .iter()
            .map_while(|buffer| {
                used += ranked_entry_bytes(buffer.len());
                (used <= budget_bytes).then(|| {
                    buffer
                        .values
                        .iter()
                        .map(|&p| {
                            u32::try_from(sorted_observed.partition_point(|&x| x < p))
                                .expect("fewer than 2^32 observed p-values")
                        })
                        .collect()
                })
            })
            .collect();
        let held = &p_values.buffers[..ranks.len()];
        let (first, index) = match (held.first(), held.last()) {
            (Some(lo), Some(hi)) => {
                let mut index = vec![ABSENT; hi.coverage - lo.coverage + 1];
                for (i, buffer) in held.iter().enumerate() {
                    index[buffer.coverage - lo.coverage] = i as u32;
                }
                (lo.coverage, index)
            }
            _ => (0, Vec::new()),
        };
        SharedPValueTable {
            p_values: Arc::clone(p_values),
            first,
            index,
            ranks,
        }
    }

    /// The entry for a coverage, if the table holds it.  Immutable — safe to
    /// call from any number of threads at once.
    #[inline]
    pub fn get(&self, supp_x: usize) -> Option<RankedBuffer<'_>> {
        match self.index.get(supp_x.wrapping_sub(self.first)) {
            Some(&i) if i != ABSENT => Some(RankedBuffer {
                buffer: &self.p_values.buffers[i as usize],
                ranks: &self.ranks[i as usize],
            }),
            _ => None,
        }
    }

    /// The p-value table this one ranks (the rule set's allocation).
    pub fn p_values(&self) -> &Arc<PValueTable> {
        &self.p_values
    }

    /// Largest coverage the table holds (0 when it holds none).  Every
    /// requested coverage up to it is held.
    pub fn max_static_coverage(&self) -> usize {
        match self.ranks.len() {
            0 => 0,
            held => self.p_values.buffers[held - 1].coverage,
        }
    }

    /// Number of records the table was built for.
    pub fn n(&self) -> usize {
        self.p_values.n
    }

    /// Class count the table was built for.
    pub fn n_c(&self) -> usize {
        self.p_values.n_c
    }

    /// Number of coverages resident in the table.
    pub fn n_buffers(&self) -> usize {
        self.ranks.len()
    }

    /// Bytes this table adds to the p-values it shares: the ranks (with
    /// their vector headers) and the coverage index.  The p-values are
    /// counted with the rule set that owns them
    /// ([`PValueTable::resident_bytes`]).
    pub fn resident_bytes(&self) -> usize {
        self.ranks
            .iter()
            .map(|r| std::mem::size_of_val(r.as_slice()) + std::mem::size_of::<Vec<u32>>())
            .sum::<usize>()
            + self.index.len() * std::mem::size_of::<u32>()
    }
}

/// A full static-buffer arrangement for one mined rule set — one
/// [`SharedPValueTable`] per class slot — behind an [`Arc`] so a resident
/// engine can rank the tables **once** and reuse them across any number of
/// requests (different permutation counts, seeds, or α) instead of
/// re-ranking them per run.
///
/// The tables are immutable after construction, so cloning a set is a
/// reference-count bump and sharing one across worker threads is free.
#[derive(Debug, Clone)]
pub struct SharedTableSet {
    tables: Arc<Vec<SharedPValueTable>>,
}

impl SharedTableSet {
    /// Wraps per-class-slot tables (in the caller's slot order) for sharing.
    pub fn new(tables: Vec<SharedPValueTable>) -> Self {
        SharedTableSet {
            tables: Arc::new(tables),
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

    /// Bytes the slots add to the shared p-values: ranks and indexes
    /// ([`SharedPValueTable::resident_bytes`]).
    pub fn resident_bytes(&self) -> usize {
        self.tables
            .iter()
            .map(SharedPValueTable::resident_bytes)
            .sum()
    }

    /// True when `other` is the same underlying allocation (i.e. a clone of
    /// this set, not merely an equal rebuild).
    pub fn same_allocation(&self, other: &SharedTableSet) -> bool {
        Arc::ptr_eq(&self.tables, &other.tables)
    }
}

/// A single-slot per-coverage buffer owned by one permutation worker: the
/// dynamic half of §4.2.3, rebuilt whenever a different (large) coverage is
/// requested.  It carries no static part, so one exists per thread while the
/// static table is shared.
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

    /// A table of `coverages` (ascending) under `budget`, as mining builds
    /// one.
    fn mined_table(
        n: usize,
        n_c: usize,
        budget: usize,
        coverages: impl IntoIterator<Item = usize>,
        logs: &LogFactorialTable,
    ) -> Arc<PValueTable> {
        let mut table = PValueTable::new(n, n_c, budget);
        for cov in coverages {
            table.offer(PValueBuffer::build(n, n_c, cov, logs));
        }
        Arc::new(table)
    }

    #[test]
    fn cache_values_agree_with_uncached_fisher() {
        let logs = LogFactorialTable::new(400);
        let test = FisherTest::with_table(logs.clone());
        let table = mined_table(400, 170, 1 << 20, [5, 40, 170, 399], &logs);
        assert_eq!(table.buffers().len(), 4);
        for (buffer, supp_r) in table.buffers().iter().zip([5, 30, 120, 169]) {
            let supp_x = buffer.coverage();
            let counts = RuleCounts::new(400, 170, supp_x, supp_r).unwrap();
            let direct = test.p_value(&counts, Tail::TwoSided);
            assert!(
                (buffer.p_value(supp_r) - direct).abs() < 1e-9,
                "supp_x={supp_x} supp_r={supp_r}"
            );
        }
    }

    #[test]
    fn resident_bytes_grows_with_usage() {
        let logs = LogFactorialTable::new(200);
        let budget = 4000;
        let mut table = PValueTable::new(200, 100, budget);
        assert_eq!(table.resident_bytes(), 0);
        // Each kept buffer adds its p-values; the budget counts the ranks
        // the null adds too.
        let mut cov = 10;
        while table.offer(PValueBuffer::build(200, 100, cov, &logs)) {
            assert_eq!(table.resident_bytes() % 8, 0);
            cov += 1;
        }
        let kept = table.buffers().len();
        assert!(kept >= 1, "the budget admits at least one coverage");
        assert_eq!(table.buffers().last().unwrap().coverage(), cov - 1);
        let values: usize = table.buffers().iter().map(PValueBuffer::len).sum();
        assert_eq!(
            table.resident_bytes(),
            values * 8 + std::mem::size_of_val(table.buffers())
        );
        // Once a coverage is dropped, every larger one is dropped too, even
        // one whose buffer is short enough to fit what is left.
        assert!(!table.offer(PValueBuffer::build(200, 100, 199, &logs)));
        assert_eq!(table.buffers().len(), kept);
    }

    #[test]
    #[should_panic(expected = "offered after coverage")]
    fn table_rejects_coverages_out_of_order() {
        let logs = LogFactorialTable::new(100);
        let mut table = PValueTable::new(100, 50, 1 << 20);
        table.offer(PValueBuffer::build(100, 50, 20, &logs));
        table.offer(PValueBuffer::build(100, 50, 20, &logs));
    }

    #[test]
    fn shared_table_matches_buffers_and_is_prebuilt() {
        let logs = LogFactorialTable::new(300);
        let observed = [1e-6, 0.01, 0.01, 0.2, 0.5];
        let p_values = mined_table(300, 120, 1 << 20, [20, 45, 90], &logs);
        let table = SharedPValueTable::build(&p_values, 1 << 20, &observed);
        assert_eq!(table.n(), 300);
        assert_eq!(table.n_c(), 120);
        // Every coverage of the p-value table is ranked, and the p-values
        // are the table's own allocation.
        assert_eq!(table.n_buffers(), 3);
        assert_eq!(table.max_static_coverage(), 90);
        assert!(table.resident_bytes() > 0);
        assert!(Arc::ptr_eq(table.p_values(), &p_values));
        for cov in [20usize, 45, 90] {
            let entry = table.get(cov).expect("coverage was requested up front");
            let buf = entry.buffer();
            assert_eq!(buf.coverage(), cov);
            assert_eq!(entry.ranks().len(), buf.len());
            let reference = PValueBuffer::build(300, 120, cov, &logs);
            for k in buf.lower()..=buf.upper() {
                let p = reference.p_value(k);
                assert_eq!(buf.p_value(k).to_bits(), p.to_bits(), "cov={cov} k={k}");
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
        let mined = mined_table(200, 100, budget, 10..=200, &logs);
        let table = SharedPValueTable::build(&mined, budget, &[0.5]);
        let max = table.max_static_coverage();
        assert!(max >= 10, "the budget admits at least one coverage");
        // The null ranks every coverage the mined table kept under the same
        // budget, and none above it.
        assert_eq!(table.n_buffers(), mined.buffers().len());
        for cov in 10..=200 {
            assert_eq!(table.get(cov).is_some(), cov <= max, "cov={cov}");
        }
        // The held entries' p-values and ranks fit the budget, and the next
        // coverage would not have.
        let held: usize = (10..=max).map(|c| table.get(c).unwrap().size_bytes()).sum();
        assert!(held <= budget);
        let next = PValueBuffer::build(200, 100, max + 1, &logs).len();
        assert!(held + ranked_entry_bytes(next) > budget);
        // The p-values belong to the mined table; the ranked table adds the
        // ranks and the index, and together they are the stored bytes.
        assert_eq!(
            table.resident_bytes(),
            held - mined.resident_bytes() + (max - 10 + 1) * 4
        );
        // A smaller budget ranks a prefix of the same allocation.
        let half = SharedPValueTable::build(&mined, budget / 2, &[0.5]);
        assert!(half.n_buffers() < table.n_buffers());
        assert!(half.max_static_coverage() < max);
        assert!(Arc::ptr_eq(half.p_values(), table.p_values()));
        // Only the coverages the rules use are paid for: a sparse rule set
        // reaches coverages far past the dense cut-off.
        let sparse = SharedPValueTable::build(
            &mined_table(200, 100, budget, [10, 150, 190], &logs),
            budget,
            &[0.5],
        );
        assert!(max < 150);
        assert_eq!(sparse.max_static_coverage(), 190);
        assert_eq!(sparse.n_buffers(), 3);
    }

    #[test]
    fn shared_table_set_is_one_allocation() {
        let logs = LogFactorialTable::new(200);
        let p_values = |n_c: usize| mined_table(200, n_c, 1 << 20, [10usize, 20], &logs);
        let (p80, p120) = (p_values(80), p_values(120));
        let build = |p: &Arc<PValueTable>| SharedPValueTable::build(p, 1 << 20, &[0.01, 0.3]);
        let set = SharedTableSet::new(vec![build(&p80), build(&p120)]);
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        // The set counts the ranks (one u32 per support of every entry) and
        // the index, not the shared p-values.
        let ranks: usize = set
            .tables()
            .iter()
            .flat_map(|t| [10usize, 20].map(|c| t.get(c).unwrap().ranks().len()))
            .sum();
        let index = 2 * (20 - 10 + 1);
        assert_eq!(
            set.resident_bytes(),
            ranks * 4 + 4 * std::mem::size_of::<Vec<u32>>() + index * 4
        );
        let clone = set.clone();
        assert!(set.same_allocation(&clone));
        // A rebuild with identical inputs is equal in content but distinct in
        // allocation — reuse is observable — while the p-values stay shared.
        let rebuilt = SharedTableSet::new(vec![build(&p80), build(&p120)]);
        assert!(!set.same_allocation(&rebuilt));
        assert!(Arc::ptr_eq(rebuilt.slot(0).p_values(), &p80));
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
}
