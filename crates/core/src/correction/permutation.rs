//! The permutation-based approach (§4.2 of the paper), as a parallel
//! bitset-vectorised engine.
//!
//! Class labels are shuffled `N` times; on each permutation every mined rule
//! is re-scored, which approximates the null distribution in which patterns
//! and class labels are independent while preserving the correlation
//! structure among the patterns themselves.
//!
//! # The paper's three optimisations (§4.2)
//!
//! 1. **Mine once** — the pattern forest (and therefore every rule's
//!    coverage) is computed on the original dataset only; permutations only
//!    re-count rule supports from the stored covers.
//! 2. **Diffsets** — when the rule set was mined with
//!    [`RuleMiningConfig::use_diffsets`](crate::config::RuleMiningConfig::use_diffsets)
//!    (the default), re-counting a rule's support touches only the diffset
//!    against its parent instead of the full record id list.
//! 3. **P-value buffering** — the p-values a rule can take depend only on its
//!    coverage, so they are computed once per coverage and looked up per
//!    permutation; [`BufferStrategy`] selects between no buffering, the
//!    dynamic buffer only, and the static + dynamic arrangement (16 MB static
//!    buffer by default, as in the paper's best configuration).
//!
//! # The parallel bit-sliced engine
//!
//! On top of the paper's optimisations this implementation adds two machine-
//! level ones:
//!
//! * **Rayon fan-out across permutations.**  Permutations are grouped into
//!   fixed chunks of [`PERMS_PER_CHUNK`] = 64 (the chunking does *not*
//!   depend on the worker count) and the chunks are mapped over a rayon
//!   worker pool; run the engine under [`rayon_pool`]`(n).install(..)` to
//!   pin it to `n` threads (one thread runs every chunk inline on the
//!   caller).  Each permutation is fully independent: its labels are a
//!   fresh copy of the original label vector shuffled by an RNG seeded from
//!   `seed` and the permutation index alone.  Workers reduce their chunk
//!   into a per-chunk minimum-p-value list and insertion-point histogram,
//!   merged into the run's totals as soon as the chunk finishes (so only the
//!   chunks in flight hold a histogram).  Minima are keyed by permutation
//!   index and histogram merging is integer addition, so the collected
//!   [`PermutationStats`] are **bit-identical** at any thread count, in any
//!   completion order and whatever the chunk width.
//!
//! * **Bit-sliced label counting.**  A chunk's 64 permutations share one
//!   `u64` *label word* per record and class: bit `j` of `words[t]` is set
//!   when record `t` carries the class under the chunk's permutation `j`.
//!   Each lane shuffles one reused copy of the labels under its own seed and
//!   ORs its bit in, so no per-lane label vector is kept.  A rule support on
//!   every permutation of the chunk is then one walk over the node's stored
//!   ids — tid list or diffset alike — summing the bits of each id's word
//!   into 64 per-lane counts
//!   ([`kernel::positional_count`],
//!   scalar SWAR or AVX2, pinned by `SIGRULE_KERNEL`): one word load per id
//!   per 64 permutations.  A root's per-lane class total is the class's
//!   record count, which a permutation keeps.  Sparse diffsets keep their
//!   §4.2.2 advantage, since only stored ids are touched.  The label words,
//!   the label copy and the node-major support rows are per-worker buffers
//!   reused from chunk to chunk.
//!
//! The p-value buffers are split to match the fan-out: the static buffer is
//! built **once**, by mining, for the distinct coverages the rules actually
//! use ([`MinedRuleSet::p_value_tables`]), ranked once up front and shared
//! immutably by every worker ([`SharedPValueTable`]); only the small
//! single-slot dynamic buffer ([`DynamicBuffer`]) is per-worker state.  A
//! class → rules index built once maps each distinct class to the rules
//! testing it, so the inner loop never scans for its support vector.
//!
//! Two more savings keep the per-rule work to one table load:
//!
//! * **Ranked tables.**  Each static-table entry
//!   ([`RankedBuffer`](sigrule_stats::RankedBuffer)) stores, next to every
//!   p-value, its insertion rank among the sorted observed p-values — the
//!   histogram cell the pooled null needs.  The rank is computed once per
//!   entry when the table is built, so a permuted rule is scored without a
//!   binary search.  The byte budget is spent on the rule set's distinct
//!   coverages in ascending order (p-values plus ranks); a coverage past it
//!   falls to the per-worker dynamic buffer and a binary search.  The
//!   p-values are the mined rule set's own buffers; the table adds only the
//!   ranks.
//! * **One sweep fewer.**  Every record carries exactly one class, so
//!   `supp(X ⇒ c_last) = supp(X) − Σ supp(X ⇒ c)` over the other classes.
//!   When every class of the dataset has rules, each chunk sweeps the forest
//!   for all classes but the last and derives the last from the coverages —
//!   one sweep instead of two on two-class data.
//!
//! Supports stay exact integers and every p-value is the same table `f64`,
//! so neither saving changes a statistic.

use crate::cancel::{CancelToken, Cancelled};
use crate::correction::{CorrectionResult, ErrorMetric};
use crate::miner::{MinedRuleSet, DEFAULT_STATIC_BUFFER_BYTES};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;
use sigrule_data::kernel::{self, LANES};
use sigrule_data::ClassId;
/// The retired support-backend selection, kept as a name for callers that
/// still pass `SupportBackend::Auto`.
pub use sigrule_mining::SupportBackend;
use sigrule_stats::{
    benjamini_hochberg_threshold, DynamicBuffer, EmpiricalNull, FisherTest, LogFactorialTable,
    RuleCounts, SharedPValueTable, SharedTableSet, Tail,
};
use std::sync::Mutex;

/// How permutation-time p-values are computed (the ablation axis of
/// Figure 4, together with the Diffsets flag of the mining step).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferStrategy {
    /// No buffering: every p-value is recomputed from the hypergeometric
    /// distribution ("no optimization" in Figure 4, modulo mine-once).
    None,
    /// A single dynamic buffer holding the p-value table of the most recently
    /// seen coverage ("dynamic buf").  One buffer per worker thread.
    DynamicOnly,
    /// Static buffer for coverages up to the byte budget plus the dynamic
    /// buffer for the rest ("16M static buf+…").  The static buffer is the
    /// p-value table mining built, ranked once up front and shared read-only
    /// across worker threads.
    StaticAndDynamic,
}

/// Configuration of the permutation-based correction.
#[derive(Debug, Clone, PartialEq)]
pub struct PermutationCorrection {
    /// Number of permutations `N` (1000 in all of the paper's experiments).
    pub n_permutations: usize,
    /// Seed of the label shuffler; permutation `i` uses a deterministic
    /// stream derived from `seed` and `i` alone, so results do not depend on
    /// scheduling.
    pub seed: u64,
    /// P-value buffering strategy.
    pub buffer: BufferStrategy,
    /// Byte budget of each class slot's static table (only used by
    /// [`BufferStrategy::StaticAndDynamic`]): the null ranks the longest
    /// prefix of the mined p-value table that fits it.  Mining keeps at most
    /// [`DEFAULT_STATIC_BUFFER_BYTES`] per slot, so a larger value holds no
    /// more coverages than the default.
    pub static_buffer_bytes: usize,
}

impl Default for PermutationCorrection {
    fn default() -> Self {
        PermutationCorrection {
            n_permutations: 1000,
            seed: 0x5eed_cafe,
            buffer: BufferStrategy::StaticAndDynamic,
            static_buffer_bytes: DEFAULT_STATIC_BUFFER_BYTES,
        }
    }
}

/// The per-permutation statistics collected in a single pass: the minimum
/// p-value of every permutation (for FWER) and, for every observed rule, how
/// many permutation p-values are at most its own (for FDR).
#[derive(Debug, Clone, PartialEq)]
pub struct PermutationStats {
    /// Minimum p-value of each permutation, indexed by permutation number.
    pub minima: Vec<f64>,
    /// For each rule (in mined order), the number of pooled permutation
    /// p-values `≤` the rule's observed p-value.
    pub pool_counts_leq: Vec<u64>,
    /// Total pool size, `N · N_t`.
    pub pool_size: u64,
}

/// Bytes of the canonical encoded form of a null's payload: the minima (one
/// `f64` bit pattern each), the pooled counts (one `u64` each) and the pool
/// size.  This **one helper** backs both [`PermutationStats::resident_bytes`]
/// (cache accounting) and the serialized shard form
/// ([`PartialPermutationStats::to_bytes`]), so the wire encoding and the
/// byte accounting cannot drift apart silently.
pub fn encoded_stats_bytes(n_minima: usize, n_counts: usize) -> usize {
    (n_minima + n_counts + 1) * std::mem::size_of::<u64>()
}

/// Appends the canonical stats payload — minima as `f64::to_bits`
/// little-endian words, counts, then the pool size — to `out`.  Exactly
/// [`encoded_stats_bytes`] bytes are written.  Bit patterns (not decimal
/// renderings) go on the wire, so a decoded value is the *identical* `f64`,
/// which is what the merged-null bit-identity guarantee rests on.
fn encode_stats_payload(minima: &[f64], counts: &[u64], pool_size: u64, out: &mut Vec<u8>) {
    out.reserve(encoded_stats_bytes(minima.len(), counts.len()));
    for &m in minima {
        out.extend_from_slice(&m.to_bits().to_le_bytes());
    }
    for &c in counts {
        out.extend_from_slice(&c.to_le_bytes());
    }
    out.extend_from_slice(&pool_size.to_le_bytes());
}

/// Reads one little-endian `u64` word at word index `i`.
fn read_word(bytes: &[u8], i: usize) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[i * 8..i * 8 + 8]);
    u64::from_le_bytes(word)
}

impl PermutationStats {
    /// Approximate resident bytes of the collected null distribution (the
    /// per-permutation minima plus the pooled counts).  Used by the
    /// byte-budget cache eviction of the engine and registry layers; defined
    /// as the length of the canonical encoding ([`encoded_stats_bytes`]) so
    /// accounting and wire form agree by construction.
    pub fn resident_bytes(&self) -> usize {
        encoded_stats_bytes(self.minima.len(), self.pool_counts_leq.len())
    }

    /// Reassembles the full null from partial nulls collected over disjoint
    /// permutation ranges, **order-independently**: the partials may arrive
    /// in any order (and with duplicates for a range already merged — the
    /// first occurrence wins, later ones are ignored, which is what makes a
    /// straggler re-dispatch idempotent).  The surviving set must tile
    /// `0..N` contiguously.
    ///
    /// Bit-identity with a single-process
    /// [`collect_stats`](PermutationCorrection::collect_stats) run holds by
    /// construction: minima are keyed by absolute permutation index (so
    /// concatenation in range order reproduces the full run's vector
    /// exactly), and the pooled counts are exact integer sums over disjoint
    /// permutation subsets (`u64` addition is associative and commutative).
    pub fn merge(partials: &[PartialPermutationStats]) -> Result<PermutationStats, MergeError> {
        if partials.is_empty() {
            return Err(MergeError("no partial stats to merge".into()));
        }
        let n_rules = partials[0].pool_counts_leq.len();
        let mut by_start: Vec<&PartialPermutationStats> = Vec::with_capacity(partials.len());
        for p in partials {
            if p.pool_counts_leq.len() != n_rules {
                return Err(MergeError(format!(
                    "partial for {}..{} scores {} rules, expected {}",
                    p.start,
                    p.end,
                    p.pool_counts_leq.len(),
                    n_rules
                )));
            }
            if !by_start
                .iter()
                .any(|q| q.start == p.start && q.end == p.end)
            {
                by_start.push(p);
            }
        }
        by_start.sort_by_key(|p| p.start);

        let mut expected_start = 0usize;
        let mut minima = Vec::new();
        let mut pool_counts_leq = vec![0u64; n_rules];
        let mut pool_size = 0u64;
        for p in &by_start {
            if p.start != expected_start {
                return Err(MergeError(format!(
                    "ranges do not tile the permutations: expected a partial \
                     starting at {}, got {}..{}",
                    expected_start, p.start, p.end
                )));
            }
            expected_start = p.end;
            minima.extend_from_slice(&p.minima);
            for (total, &c) in pool_counts_leq.iter_mut().zip(p.pool_counts_leq.iter()) {
                *total += c;
            }
            pool_size += p.pool_size;
        }
        Ok(PermutationStats {
            minima,
            pool_counts_leq,
            pool_size,
        })
    }
}

/// A partial null taken as a whole: the partial of a `0..N` range run *is*
/// the full null (which is how [`PermutationCorrection::collect_stats`] and
/// every cancellable caller of
/// [`collect_stats_range`](PermutationCorrection::collect_stats_range) get
/// their [`PermutationStats`]).
impl From<PartialPermutationStats> for PermutationStats {
    fn from(partial: PartialPermutationStats) -> Self {
        PermutationStats {
            minima: partial.minima,
            pool_counts_leq: partial.pool_counts_leq,
            pool_size: partial.pool_size,
        }
    }
}

/// A merge over partial nulls failed: the partials do not tile the
/// permutation range, or score inconsistent rule sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeError(pub String);

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot merge partial permutation stats: {}", self.0)
    }
}

impl std::error::Error for MergeError {}

/// The null statistics of one contiguous permutation range `[start, end)`:
/// what a distributed shard computes and ships back for
/// [`PermutationStats::merge`].
///
/// Everything in here is additive or index-keyed: `minima` are the range's
/// per-permutation minima in permutation order, `pool_counts_leq` is the
/// range's contribution to every rule's pooled count (an exact integer,
/// summable across disjoint ranges), and `pool_size` is the range's share of
/// `N · N_t`.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialPermutationStats {
    /// First permutation index of the range (inclusive).
    start: usize,
    /// One past the last permutation index of the range.
    end: usize,
    /// Minimum p-value of each permutation in `start..end`, in permutation
    /// order (empty when the rule set is empty).
    minima: Vec<f64>,
    /// Per rule (in mined order), how many of this range's pooled p-values
    /// are `≤` the rule's observed p-value.
    pool_counts_leq: Vec<u64>,
    /// This range's share of the pool, `(end - start) · N_t`.
    pool_size: u64,
}

impl PartialPermutationStats {
    /// First permutation index of the range.
    pub fn start(&self) -> usize {
        self.start
    }

    /// One past the last permutation index of the range.
    pub fn end(&self) -> usize {
        self.end
    }

    /// Number of rules this partial scores.
    pub fn n_rules(&self) -> usize {
        self.pool_counts_leq.len()
    }

    /// Serializes to the canonical byte form: a four-word header
    /// (`start`, `end`, minima count, rule count) followed by the shared
    /// stats payload (`encode_stats_payload` — the same layout
    /// [`PermutationStats::resident_bytes`] accounts for).  `f64` minima
    /// travel as bit patterns, so decode → merge is bit-identical to an
    /// in-process merge.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            4 * std::mem::size_of::<u64>()
                + encoded_stats_bytes(self.minima.len(), self.pool_counts_leq.len()),
        );
        out.extend_from_slice(&(self.start as u64).to_le_bytes());
        out.extend_from_slice(&(self.end as u64).to_le_bytes());
        out.extend_from_slice(&(self.minima.len() as u64).to_le_bytes());
        out.extend_from_slice(&(self.pool_counts_leq.len() as u64).to_le_bytes());
        encode_stats_payload(
            &self.minima,
            &self.pool_counts_leq,
            self.pool_size,
            &mut out,
        );
        out
    }

    /// Decodes the [`to_bytes`](Self::to_bytes) form, validating the header
    /// against the byte length and the range invariants so a truncated or
    /// corrupted shard is rejected instead of silently corrupting a merge.
    pub fn from_bytes(bytes: &[u8]) -> Result<PartialPermutationStats, MergeError> {
        const HEADER_WORDS: usize = 4;
        if !bytes.len().is_multiple_of(8) || bytes.len() < HEADER_WORDS * 8 {
            return Err(MergeError(format!(
                "encoded shard has invalid length {}",
                bytes.len()
            )));
        }
        let start = read_word(bytes, 0) as usize;
        let end = read_word(bytes, 1) as usize;
        let n_minima = read_word(bytes, 2) as usize;
        let n_rules = read_word(bytes, 3) as usize;
        // The counts come off the wire: sum them with checked arithmetic, so
        // a hostile header cannot wrap the implied length into a match.
        let expected = n_minima
            .checked_add(n_rules)
            .and_then(|words| words.checked_add(HEADER_WORDS + 1))
            .and_then(|words| words.checked_mul(8));
        if expected != Some(bytes.len()) {
            return Err(MergeError(format!(
                "encoded shard is {} bytes, header implies {}",
                bytes.len(),
                expected.map_or("more than fits".to_string(), |n| n.to_string())
            )));
        }
        if start > end || (n_minima != end - start && !(n_rules == 0 && n_minima == 0)) {
            return Err(MergeError(format!(
                "encoded shard header is inconsistent: range {start}..{end} \
                 with {n_minima} minima over {n_rules} rules"
            )));
        }
        let minima: Vec<f64> = (0..n_minima)
            .map(|i| f64::from_bits(read_word(bytes, HEADER_WORDS + i)))
            .collect();
        let pool_counts_leq: Vec<u64> = (0..n_rules)
            .map(|i| read_word(bytes, HEADER_WORDS + n_minima + i))
            .collect();
        let pool_size = read_word(bytes, HEADER_WORDS + n_minima + n_rules);
        Ok(PartialPermutationStats {
            start,
            end,
            minima,
            pool_counts_leq,
            pool_size,
        })
    }
}

/// Builds a rayon pool with the given worker count; running the engine under
/// [`install`](rayon::ThreadPool::install) pins its parallelism.  A one-thread
/// pool runs every chunk inline on the calling thread — the serial engine.
/// Used by the equivalence tests to prove thread-count invariance, by the
/// single-threaded Figure 4/5 timings, and by embedders that bound the
/// engine's CPU share:
///
/// ```ignore
/// let pool = rayon_pool(4)?;
/// let stats = pool.install(|| correction.collect_stats(&mined));
/// ```
pub fn rayon_pool(threads: usize) -> Result<rayon::ThreadPool, rayon::ThreadPoolBuildError> {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build()
}

/// Permutations per work chunk: one per bit of a label word.  Chunking is
/// fixed — independent of the worker count — so a chunk's permutations are
/// the same whatever parallelism the host offers (the statistics would not
/// change under any other width either: minima are kept by index and the
/// histogram adds integers).  Public so distributed coordinators can
/// partition the permutation indices into chunk-aligned ranges (see
/// [`PermutationCorrection::collect_stats_range`]).
pub const PERMS_PER_CHUNK: usize = LANES;

/// What one chunk of permutations reduces to.
struct ChunkStats {
    /// Minimum p-value per permutation of the chunk, in permutation order.
    minima: Vec<f64>,
    /// `cnt[i]` = pool values whose insertion point among the sorted observed
    /// p-values is `i`.
    cnt: Vec<u64>,
}

/// A worker's buffers, reused from chunk to chunk: taken from the run's free
/// list when a chunk starts and returned when it ends.
#[derive(Default)]
struct ChunkScratch {
    /// One shuffled copy of the labels, reused by every lane.
    labels: Vec<ClassId>,
    /// Label words, class-major: bit `j` of `words[c * n + t]` is set when
    /// record `t` carries class `c` under the chunk's permutation `j`.
    words: Vec<u64>,
    /// Node-major support rows of the class being scored
    /// (`supports[node * LANES + lane]`).
    supports: Vec<u32>,
    /// Σ of the swept classes' support rows, node-major like `supports`;
    /// read by a derived last class when more than one class is swept.
    swept_sum: Vec<u32>,
}

/// Everything the permutation loop needs that is built once and then only
/// read: the class → rules index and the shared static p-value tables.
struct ScoringPlan<'a> {
    mined: &'a MinedRuleSet,
    /// Distinct rule classes, ascending.
    classes: Vec<ClassId>,
    /// `class_rules[slot]` = indices of the rules testing `classes[slot]`.
    class_rules: Vec<Vec<usize>>,
    /// The last class slot when every class of the dataset has rules: its
    /// supports are derived from the coverages instead of swept.
    derived_slot: Option<usize>,
    /// Observed p-values sorted ascending (for pooled-null insertion points).
    sorted_observed: Vec<f64>,
    /// Shared static p-value tables, one per class slot
    /// ([`BufferStrategy::StaticAndDynamic`] only).  Cheaply cloned from a
    /// caller-provided [`SharedTableSet`] when one is supplied, so a resident
    /// engine builds the tables once per mined rule set, not once per run.
    static_tables: Option<SharedTableSet>,
    logs: LogFactorialTable,
    fisher: FisherTest,
}

/// The observed p-values of a mined rule set, sorted ascending: the
/// reference every pooled permutation p-value is ranked against.
fn sorted_observed(mined: &MinedRuleSet) -> Vec<f64> {
    let mut sorted = mined.p_values();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    sorted
}

/// Builds the class → rules index of a mined rule set: the distinct rule
/// classes (ascending) and, per class slot, the indices of the rules testing
/// that class.
fn class_index(mined: &MinedRuleSet) -> (Vec<ClassId>, Vec<Vec<usize>>) {
    let rules = mined.rules();
    let mut classes: Vec<ClassId> = rules.iter().map(|r| r.class).collect();
    classes.sort_unstable();
    classes.dedup();
    let mut class_rules: Vec<Vec<usize>> = vec![Vec::new(); classes.len()];
    for (i, rule) in rules.iter().enumerate() {
        let slot = classes
            .binary_search(&rule.class)
            .expect("every rule class is in the distinct-class list");
        class_rules[slot].push(i);
    }
    (classes, class_rules)
}

impl PermutationCorrection {
    /// Creates a correction with the given number of permutations and the
    /// default optimisations.
    pub fn new(n_permutations: usize) -> Self {
        PermutationCorrection {
            n_permutations,
            ..PermutationCorrection::default()
        }
    }

    /// Overrides the shuffling seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the buffering strategy.
    pub fn with_buffer(mut self, buffer: BufferStrategy) -> Self {
        self.buffer = buffer;
        self
    }

    /// Caps the static table's byte budget per class slot.  The cap takes
    /// effect up to mining's own budget, [`DEFAULT_STATIC_BUFFER_BYTES`]:
    /// the null ranks a prefix of the table mining kept, so a smaller value
    /// sends the largest coverages to the per-worker dynamic buffer and a
    /// larger one changes nothing.
    pub fn with_static_buffer_bytes(mut self, bytes: usize) -> Self {
        self.static_buffer_bytes = bytes;
        self
    }

    /// Controls FWER at `alpha`: the cut-off is the `⌊α·N⌋`-th smallest
    /// per-permutation minimum p-value ("Perm_FWER" in Table 3).
    pub fn control_fwer(&self, mined: &MinedRuleSet, alpha: f64) -> CorrectionResult {
        let stats = self.collect_stats(mined);
        self.fwer_from_stats(mined, &stats, alpha)
    }

    /// Derives the FWER decision from already-collected permutation
    /// statistics: the resident engine caches [`PermutationStats`] per
    /// (mining config, permutation count, seed) and re-answers any α through
    /// this method without re-permuting.  `control_fwer` is exactly
    /// [`collect_stats`](Self::collect_stats) followed by this, so cached and
    /// fresh answers are bit-identical by construction.
    pub fn fwer_from_stats(
        &self,
        mined: &MinedRuleSet,
        stats: &PermutationStats,
        alpha: f64,
    ) -> CorrectionResult {
        let cutoff = if stats.minima.is_empty() {
            0.0
        } else {
            EmpiricalNull::from_minima(stats.minima.clone())
                .expect("permutation minima are valid probabilities")
                .fwer_threshold(alpha)
        };
        let significant = mined.rules().iter().map(|r| r.p_value <= cutoff).collect();
        CorrectionResult {
            method: "Perm_FWER".to_string(),
            metric: ErrorMetric::Fwer,
            alpha,
            significant,
            rules: mined.rules().to_vec(),
            p_value_cutoff: Some(cutoff),
            n_tests: mined.n_tests(),
        }
    }

    /// Controls FDR at `alpha`: every rule's p-value is replaced by its rank
    /// in the pooled permutation null, then Benjamini–Hochberg is applied to
    /// the recomputed p-values ("Perm_FDR" in Table 3).
    pub fn control_fdr(&self, mined: &MinedRuleSet, alpha: f64) -> CorrectionResult {
        let stats = self.collect_stats(mined);
        self.fdr_from_stats(mined, &stats, alpha)
    }

    /// Derives the FDR decision from already-collected permutation
    /// statistics; the cached counterpart of `control_fdr` (see
    /// [`fwer_from_stats`](Self::fwer_from_stats)).
    pub fn fdr_from_stats(
        &self,
        mined: &MinedRuleSet,
        stats: &PermutationStats,
        alpha: f64,
    ) -> CorrectionResult {
        let significant = if mined.rules().is_empty() || stats.pool_size == 0 {
            vec![false; mined.rules().len()]
        } else {
            let empirical: Vec<f64> = stats
                .pool_counts_leq
                .iter()
                .map(|&c| c as f64 / stats.pool_size as f64)
                .collect();
            let threshold = benjamini_hochberg_threshold(&empirical, alpha, None)
                .expect("empirical p-values are valid probabilities");
            empirical.iter().map(|&e| e <= threshold).collect()
        };
        CorrectionResult {
            method: "Perm_FDR".to_string(),
            metric: ErrorMetric::Fdr,
            alpha,
            significant,
            rules: mined.rules().to_vec(),
            p_value_cutoff: None,
            n_tests: mined.n_tests(),
        }
    }

    /// Runs all `N` permutations and collects the statistics both error
    /// metrics need: the full-range convenience over
    /// [`collect_stats_range`](Self::collect_stats_range)`(.., 0, N)`, with
    /// the static tables built internally and no cancellation.
    pub fn collect_stats(&self, mined: &MinedRuleSet) -> PermutationStats {
        self.collect_stats_range(mined, None, &CancelToken::none(), 0, self.n_permutations)
            .expect("the never-firing token cannot cancel")
            .into()
    }

    /// Runs only permutations `start..end` and returns their partial null:
    /// the one engine entry point.  Every chunk derives permutation `i`'s
    /// RNG from `(seed, i)` alone, so a range run is a *subsequence* of the
    /// full run by construction, and disjoint ranges merged with
    /// [`PermutationStats::merge`] are bit-identical to one `0..N` run.
    ///
    /// `tables` are caller-provided static p-value tables (see
    /// [`build_shared_tables`](Self::build_shared_tables)); they are
    /// deterministic functions of the mined rule set, so passing a prebuilt
    /// set changes only the build cost, never a statistic.  `cancel` is
    /// checked before each fixed-size permutation chunk, so a fired token
    /// aborts within one chunk's worth of work; cancellation only ever drops
    /// chunk results on the floor, so a later uncancelled run over the same
    /// inputs is bit-identical to one that was never cancelled.
    ///
    /// Ranges must be chunk-aligned so the fixed chunking is preserved:
    /// `start` and `end` must be multiples of [`PERMS_PER_CHUNK`], except
    /// that `end` may equal `n_permutations` (the tail chunk may be short,
    /// exactly as in a full run).
    ///
    /// # Panics
    ///
    /// Panics when the range is out of bounds or not chunk-aligned — a
    /// coordinator bug, not a data error; remote inputs are validated before
    /// this is reached.
    pub fn collect_stats_range(
        &self,
        mined: &MinedRuleSet,
        tables: Option<&SharedTableSet>,
        cancel: &CancelToken,
        start: usize,
        end: usize,
    ) -> Result<PartialPermutationStats, Cancelled> {
        assert!(
            start <= end && end <= self.n_permutations,
            "range {start}..{end} out of bounds for {} permutations",
            self.n_permutations
        );
        assert!(
            start.is_multiple_of(PERMS_PER_CHUNK),
            "range start {start} is not chunk-aligned"
        );
        assert!(
            end.is_multiple_of(PERMS_PER_CHUNK) || end == self.n_permutations,
            "range end {end} is neither chunk-aligned nor the final permutation"
        );
        cancel.check()?;
        let n_rules = mined.rules().len();
        if n_rules == 0 || start == end {
            return Ok(PartialPermutationStats {
                start,
                end,
                minima: Vec::new(),
                pool_counts_leq: vec![0; n_rules],
                pool_size: ((end - start) as u64) * (n_rules as u64),
            });
        }

        let plan = self.build_plan(mined, tables);

        // Fixed-size chunks over the permutation indices; the chunk list is
        // independent of the worker count.  Each chunk re-checks the token
        // before running, so a fired token turns every not-yet-started chunk
        // into a cheap early return rather than tearing threads down.
        //
        // Each finished chunk is merged at once, so only the chunks in flight
        // hold a histogram.  The merge is order-free: minima land at their
        // permutation index and histogram cells add exactly.
        let totals = Mutex::new((vec![f64::INFINITY; end - start], vec![0u64; n_rules + 1]));
        let scratch = Mutex::new(Vec::<ChunkScratch>::new());
        let chunk_starts: Vec<usize> = (start..end).step_by(PERMS_PER_CHUNK).collect();
        chunk_starts
            .into_par_iter()
            .map(|chunk_start| {
                cancel.check()?;
                let mut buffers = scratch
                    .lock()
                    .expect("scratch lock")
                    .pop()
                    .unwrap_or_default();
                let chunk = self.run_chunk(&plan, chunk_start, &mut buffers);
                scratch.lock().expect("scratch lock").push(buffers);
                let mut totals = totals.lock().expect("chunk merge lock");
                let (minima, cnt) = &mut *totals;
                let at = chunk_start - start;
                minima[at..at + chunk.minima.len()].copy_from_slice(&chunk.minima);
                for (total, c) in cnt.iter_mut().zip(&chunk.cnt) {
                    *total += c;
                }
                Ok(())
            })
            .collect::<Vec<Result<(), Cancelled>>>()
            .into_iter()
            .collect::<Result<(), Cancelled>>()?;
        let (minima, cnt) = totals.into_inner().expect("chunk merge lock");

        // Prefix-sum the insertion-point counts and map back to rule order.
        let mut counts_sorted = vec![0u64; n_rules];
        let mut acc = 0u64;
        for i in 0..n_rules {
            acc += cnt[i];
            counts_sorted[i] = acc;
        }
        let pool_counts_leq = mined
            .p_values()
            .iter()
            .map(|&p| {
                // Index of the last sorted observed value equal to p.
                let idx = plan.sorted_observed.partition_point(|&x| x <= p);
                if idx == 0 {
                    0
                } else {
                    counts_sorted[idx - 1]
                }
            })
            .collect();

        Ok(PartialPermutationStats {
            start,
            end,
            minima,
            pool_counts_leq,
            pool_size: ((end - start) as u64) * (n_rules as u64),
        })
    }

    /// Builds the static p-value tables (one [`SharedPValueTable`] per class
    /// slot) for a mined rule set, exactly as a
    /// [`BufferStrategy::StaticAndDynamic`] run would build them internally.
    /// Each slot ranks the longest prefix of the mined set's own p-value
    /// table ([`MinedRuleSet::p_value_tables`]) that fits
    /// [`static_buffer_bytes`](Self::static_buffer_bytes); the p-values are
    /// shared, not rebuilt.  A resident engine calls this once per mined
    /// rule set, keeps the returned [`SharedTableSet`], and passes it to
    /// [`collect_stats_range`](Self::collect_stats_range) on every subsequent
    /// request.
    pub fn build_shared_tables(&self, mined: &MinedRuleSet) -> SharedTableSet {
        let sorted_observed = sorted_observed(mined);
        SharedTableSet::new(
            mined
                .p_value_tables()
                .iter()
                .map(|p_values| {
                    SharedPValueTable::build(p_values, self.static_buffer_bytes, &sorted_observed)
                })
                .collect(),
        )
    }

    /// Builds the read-only state every worker shares: class → rules index,
    /// sorted observed p-values, and the up-front static p-value tables
    /// (reused from `tables` when the caller already holds a prebuilt set).
    fn build_plan<'a>(
        &self,
        mined: &'a MinedRuleSet,
        tables: Option<&SharedTableSet>,
    ) -> ScoringPlan<'a> {
        let n = mined.n_records();
        let logs = LogFactorialTable::new(n);
        let fisher = FisherTest::with_table(logs.clone());

        // Distinct classes actually used by rules, and the index of the
        // rules testing each, so the permutation loop runs one forest pass
        // per used class and never scans for a rule's support vector.
        let (classes, class_rules) = class_index(mined);

        let derived_slot =
            (classes.len() >= 2 && classes.len() == mined.n_classes()).then(|| classes.len() - 1);

        // The coverages a class's rules use never change across permutations,
        // so the static buffer can be built once, exactly, and shared — or
        // cloned for free from a set a resident engine built earlier.
        let static_tables = match self.buffer {
            BufferStrategy::StaticAndDynamic => Some(match tables {
                Some(prebuilt) => prebuilt.clone(),
                None => self.build_shared_tables(mined),
            }),
            _ => None,
        };

        ScoringPlan {
            mined,
            classes,
            class_rules,
            derived_slot,
            sorted_observed: sorted_observed(mined),
            static_tables,
            logs,
            fisher,
        }
    }

    /// Runs permutations `start .. start + PERMS_PER_CHUNK` (clamped to `N`)
    /// and reduces them to a [`ChunkStats`]: each lane shuffles the labels
    /// under its own `(seed, index)` stream and ORs its bit into the label
    /// words, and every rule cover is then counted against all permutations
    /// of the chunk at once — once per class slot, except a derived last
    /// slot (`ScoringPlan::derived_slot`), whose supports are the coverages
    /// less the swept slots' sum.  Mutable state is the worker's reused
    /// `scratch` plus chunk-local reductions; everything shared is behind `&`.
    ///
    /// Every support is an exact integer and every p-value a deterministic
    /// function of `(coverage, support)`, and the chunk reductions —
    /// per-lane minima and the additive insertion-point histogram — do not
    /// depend on the order rules and permutations are visited in, so the
    /// chunk's statistics equal a literal one-permutation-at-a-time recount
    /// (`tests/null_oracle.rs`).
    fn run_chunk(
        &self,
        plan: &ScoringPlan<'_>,
        start: usize,
        scratch: &mut ChunkScratch,
    ) -> ChunkStats {
        crate::fault::point("perm.chunk");
        let mined = plan.mined;
        let rules = mined.rules();
        let n = mined.n_records();
        let end = (start + PERMS_PER_CHUNK).min(self.n_permutations);
        let lanes = end - start;
        let ChunkScratch {
            labels,
            words,
            supports,
            swept_sum,
        } = scratch;

        // Permutation i's labels depend on (seed, i) only, never on which
        // permutations ran before or where: each lane shuffles a fresh copy
        // of the original labels.
        words.clear();
        words.resize(mined.n_classes() * n, 0);
        for (lane, perm) in (start..end).enumerate() {
            labels.clear();
            labels.extend_from_slice(mined.labels());
            let mut rng = StdRng::seed_from_u64(
                self.seed ^ (perm as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            );
            labels.shuffle(&mut rng);
            let bit = 1u64 << lane;
            for (t, &c) in labels.iter().enumerate() {
                words[c as usize * n + t] |= bit;
            }
        }

        let mut dynamics: Vec<DynamicBuffer> = match self.buffer {
            BufferStrategy::None => Vec::new(),
            _ => plan
                .classes
                .iter()
                .map(|&c| DynamicBuffer::new(n, mined.class_counts()[c as usize]))
                .collect(),
        };

        let mut perm_min = vec![f64::INFINITY; lanes];
        let mut cnt = vec![0u64; rules.len() + 1];
        let mut lane_supports = [0u32; LANES];
        // With one swept slot its own rows are the sum the derived slot
        // reads; only more swept slots need a separate running sum.
        let n_swept = plan.classes.len() - usize::from(plan.derived_slot.is_some());

        for (slot, &class) in plan.classes.iter().enumerate() {
            let derived = plan.derived_slot == Some(slot);
            if !derived {
                let c = class as usize;
                mined.forest().rule_supports_lanes(
                    &words[c * n..(c + 1) * n],
                    mined.class_counts()[c],
                    supports,
                );
            }
            let table = plan.static_tables.as_ref().map(|t| t.slot(slot));
            for &ri in &plan.class_rules[slot] {
                let coverage = rules[ri].coverage;
                let row = mined.rule_node(ri) * LANES;
                let supp = &mut lane_supports[..lanes];
                if derived {
                    let sums = if n_swept == 1 {
                        &*supports
                    } else {
                        &*swept_sum
                    };
                    for (s, &swept) in supp.iter_mut().zip(&sums[row..row + lanes]) {
                        *s = coverage as u32 - swept;
                    }
                } else {
                    supp.copy_from_slice(&supports[row..row + lanes]);
                }
                match table.and_then(|t| t.get(coverage)) {
                    Some(entry) => {
                        for (&s, min) in supp.iter().zip(perm_min.iter_mut()) {
                            let (p, rank) = entry.lookup(s as usize);
                            *min = min.min(p);
                            cnt[rank] += 1;
                        }
                    }
                    None => {
                        for (&s, min) in supp.iter().zip(perm_min.iter_mut()) {
                            let p = self.rule_p_value(
                                plan,
                                slot,
                                class,
                                coverage,
                                s as usize,
                                &mut dynamics,
                            );
                            *min = min.min(p);
                            cnt[plan.sorted_observed.partition_point(|&x| x < p)] += 1;
                        }
                    }
                }
            }
            if plan.derived_slot.is_some() && !derived && n_swept > 1 {
                // The swept slots precede the derived one.
                if slot == 0 {
                    swept_sum.clone_from(supports);
                } else {
                    for (total, &s) in swept_sum.iter_mut().zip(supports.iter()) {
                        *total += s;
                    }
                }
            }
        }
        kernel::note_batched_sweeps(n_swept as u64);

        ChunkStats {
            minima: perm_min,
            cnt,
        }
    }

    /// The permutation-time p-value of one rule given its permuted support,
    /// when the static table does not hold its coverage: recomputed under
    /// [`BufferStrategy::None`], otherwise from the worker's dynamic buffer.
    /// A pure function of `(coverage, support)` for fixed margins — the
    /// dynamic buffer is only a cache, so visit order never changes a value.
    #[inline]
    fn rule_p_value(
        &self,
        plan: &ScoringPlan<'_>,
        slot: usize,
        class: ClassId,
        coverage: usize,
        supp_r: usize,
        dynamics: &mut [DynamicBuffer],
    ) -> f64 {
        let mined = plan.mined;
        match self.buffer {
            BufferStrategy::None => {
                let counts = RuleCounts::new(
                    mined.n_records(),
                    mined.class_counts()[class as usize],
                    coverage,
                    supp_r,
                )
                .expect("permuted support stays within the margins");
                plan.fisher.p_value(&counts, Tail::TwoSided)
            }
            BufferStrategy::DynamicOnly | BufferStrategy::StaticAndDynamic => {
                dynamics[slot].p_value(coverage, supp_r, &plan.logs)
            }
        }
    }
}

/// Why a shard dispatch failed.
///
/// The distinction matters to a coordinator: a [`Cancelled`](ShardError::Cancelled)
/// shard means the whole run's token fired (deadline or explicit cancel) and
/// nothing should be re-dispatched, while a [`Failed`](ShardError::Failed)
/// shard is an executor-local casualty — a dead worker, a protocol error —
/// whose range can be handed to any surviving executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// The run's cancellation token fired; the run is over.
    Cancelled(Cancelled),
    /// The executor failed; the range is intact and re-dispatchable.
    Failed(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Cancelled(c) => write!(f, "shard cancelled: {c}"),
            ShardError::Failed(msg) => write!(f, "shard failed: {msg}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<Cancelled> for ShardError {
    fn from(c: Cancelled) -> Self {
        ShardError::Cancelled(c)
    }
}

/// One executor a null-collection coordinator can scatter permutation ranges
/// to.  The contract is narrow on purpose: given a chunk-aligned range and a
/// token, either produce that range's *exact* partial null or fail with a
/// [`ShardError`] that tells the coordinator whether to re-dispatch.  The
/// in-process implementation is [`LocalExecutor`]; the remote one (a
/// `sigrule serve` worker driven over the line protocol) lives in the server
/// crate.
pub trait NullExecutor: Send + Sync {
    /// A short human-readable label for logs, warnings, and counters
    /// (`"local"`, `"tcp:host:port"`, …).
    fn label(&self) -> String;

    /// True for executors that cross a process boundary — drives the
    /// remote-vs-local split of the shard counters.  Defaults to local.
    fn is_remote(&self) -> bool {
        false
    }

    /// Collects the partial null for permutations `start..end`.
    fn run_range(
        &self,
        start: usize,
        end: usize,
        cancel: &CancelToken,
    ) -> Result<PartialPermutationStats, ShardError>;
}

/// The in-process [`NullExecutor`]: runs ranges through
/// [`PermutationCorrection::collect_stats_range`] on this process's CPU.  A
/// coordinator always holds one — it is the transparent fallback that makes
/// remote workers an optimisation, never a dependency (a dead fleet costs
/// time, not answers).
///
/// A `LocalExecutor` optionally owns its own rayon pool: coordinators drive
/// executors from plain `std::thread` workers, where the ambient
/// [`rayon::ThreadPool::install`] pinning of the *caller* does not reach, so
/// the pool must travel with the executor to keep its parallelism bounded.
pub struct LocalExecutor<'a> {
    correction: PermutationCorrection,
    mined: &'a MinedRuleSet,
    tables: Option<&'a SharedTableSet>,
    pool: Option<rayon::ThreadPool>,
}

impl<'a> LocalExecutor<'a> {
    /// Creates a local executor over an already-mined rule set, reusing
    /// prebuilt static p-value tables when the caller holds them.
    pub fn new(
        correction: PermutationCorrection,
        mined: &'a MinedRuleSet,
        tables: Option<&'a SharedTableSet>,
    ) -> Self {
        LocalExecutor {
            correction,
            mined,
            tables,
            pool: None,
        }
    }

    /// Pins this executor's rayon parallelism to `threads` workers (`0`
    /// keeps the ambient default).
    pub fn with_threads(mut self, threads: usize) -> Result<Self, rayon::ThreadPoolBuildError> {
        self.pool = if threads == 0 {
            None
        } else {
            Some(rayon_pool(threads)?)
        };
        Ok(self)
    }
}

impl NullExecutor for LocalExecutor<'_> {
    fn label(&self) -> String {
        "local".to_string()
    }

    fn run_range(
        &self,
        start: usize,
        end: usize,
        cancel: &CancelToken,
    ) -> Result<PartialPermutationStats, ShardError> {
        let collect = || {
            self.correction
                .collect_stats_range(self.mined, self.tables, cancel, start, end)
        };
        let out = match &self.pool {
            Some(pool) => pool.install(collect),
            None => collect(),
        };
        out.map_err(ShardError::from)
    }
}

/// Process-wide distributed-shard counters, the companions of the
/// support-kernel counters in `sigrule_data::kernel`: relaxed atomics bumped
/// by coordinators as shards complete, read by `registry_stats` and the eval
/// human footer, and rendered as-is by the metrics registry
/// ([`crate::obs_metrics::expose_process_counters`]).  All zero unless a
/// distributed null ran in this process.
pub mod shard_counters {
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    use std::sync::{Arc, LazyLock};

    /// Ranges completed by the in-process executor.
    pub static SHARDS_LOCAL: LazyLock<Arc<AtomicU64>> = LazyLock::new(Arc::default);
    /// Ranges completed by remote `sigrule serve` workers.
    pub static SHARDS_REMOTE: LazyLock<Arc<AtomicU64>> = LazyLock::new(Arc::default);
    /// Ranges dispatched more than once (stragglers + failures).
    pub static SHARD_RETRIES: LazyLock<Arc<AtomicU64>> = LazyLock::new(Arc::default);
    /// Milliseconds spent waiting on remote shard responses.
    pub static REMOTE_MS: LazyLock<Arc<AtomicU64>> = LazyLock::new(Arc::default);

    /// Records `n` permutation ranges completed by the in-process executor.
    pub fn note_local_shards(n: u64) {
        SHARDS_LOCAL.fetch_add(n, Relaxed);
    }

    /// Records `n` permutation ranges completed by remote workers, plus the
    /// wall-clock milliseconds spent waiting on their responses.
    pub fn note_remote_shards(n: u64, ms: u64) {
        SHARDS_REMOTE.fetch_add(n, Relaxed);
        REMOTE_MS.fetch_add(ms, Relaxed);
    }

    /// Records `n` range re-dispatches (straggler steals and dead-worker
    /// recoveries alike).
    pub fn note_retries(n: u64) {
        SHARD_RETRIES.fetch_add(n, Relaxed);
    }

    /// A point-in-time snapshot of the shard counters.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ShardCounters {
        /// Ranges completed by the in-process executor.
        pub shards_local: u64,
        /// Ranges completed by remote `sigrule serve` workers.
        pub shards_remote: u64,
        /// Ranges dispatched more than once (stragglers + failures).
        pub shard_retries: u64,
        /// Total milliseconds spent waiting on remote shard responses.
        pub remote_ms: u64,
    }

    impl ShardCounters {
        /// True when any distributed work has been recorded.
        pub fn distribution_active(&self) -> bool {
            self.shards_remote > 0 || self.shard_retries > 0
        }
    }

    /// Snapshots the process-wide counters.
    pub fn counters() -> ShardCounters {
        ShardCounters {
            shards_local: SHARDS_LOCAL.load(Relaxed),
            shards_remote: SHARDS_REMOTE.load(Relaxed),
            shard_retries: SHARD_RETRIES.load(Relaxed),
            remote_ms: REMOTE_MS.load(Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuleMiningConfig;
    use crate::correction::direct;
    use crate::miner::mine_rules;
    use sigrule_synth::{SyntheticGenerator, SyntheticParams};

    fn mined_with_rule(confidence: f64, seed: u64) -> MinedRuleSet {
        let params = SyntheticParams::default()
            .with_records(500)
            .with_attributes(12)
            .with_rules(1)
            .with_coverage(100, 100)
            .with_confidence(confidence, confidence);
        let (d, _) = SyntheticGenerator::new(params).unwrap().generate(seed);
        mine_rules(&d, &RuleMiningConfig::new(50))
    }

    fn mined_random(seed: u64) -> MinedRuleSet {
        let params = SyntheticParams::default()
            .with_records(500)
            .with_attributes(12);
        let (d, _) = SyntheticGenerator::new(params).unwrap().generate(seed);
        mine_rules(&d, &RuleMiningConfig::new(50))
    }

    fn perm(n: usize) -> PermutationCorrection {
        PermutationCorrection::new(n).with_seed(99)
    }

    #[test]
    fn stats_shape_is_consistent() {
        let m = mined_with_rule(0.9, 1);
        let stats = perm(50).collect_stats(&m);
        assert_eq!(stats.minima.len(), 50);
        assert_eq!(stats.pool_counts_leq.len(), m.rules().len());
        assert_eq!(stats.pool_size, 50 * m.rules().len() as u64);
        for &c in &stats.pool_counts_leq {
            assert!(c <= stats.pool_size);
        }
        for &min in &stats.minima {
            assert!((0.0..=1.0).contains(&min));
        }
    }

    #[test]
    fn buffer_strategies_agree_exactly() {
        let m = mined_with_rule(0.85, 2);
        let a = perm(30).with_buffer(BufferStrategy::None).collect_stats(&m);
        let b = perm(30)
            .with_buffer(BufferStrategy::DynamicOnly)
            .collect_stats(&m);
        let c = perm(30)
            .with_buffer(BufferStrategy::StaticAndDynamic)
            .collect_stats(&m);
        for ((x, y), z) in a.minima.iter().zip(b.minima.iter()).zip(c.minima.iter()) {
            assert!((x - y).abs() < 1e-9);
            assert!((y - z).abs() < 1e-9);
        }
        assert_eq!(a.pool_counts_leq, b.pool_counts_leq);
        assert_eq!(b.pool_counts_leq, c.pool_counts_leq);
    }

    #[test]
    fn diffsets_do_not_change_the_statistics() {
        let params = SyntheticParams::default()
            .with_records(400)
            .with_attributes(10)
            .with_rules(1)
            .with_coverage(80, 80)
            .with_confidence(0.9, 0.9);
        let (d, _) = SyntheticGenerator::new(params).unwrap().generate(4);
        let with = mine_rules(&d, &RuleMiningConfig::new(40));
        let without = mine_rules(&d, &RuleMiningConfig::new(40).with_diffsets(false));
        let sa = perm(25).collect_stats(&with);
        let sb = perm(25).collect_stats(&without);
        assert_eq!(sa.pool_counts_leq, sb.pool_counts_leq);
        for (x, y) in sa.minima.iter().zip(sb.minima.iter()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn serial_and_parallel_are_bit_identical() {
        // A one-thread pool runs every chunk inline: the serial reference.
        let m = mined_with_rule(0.9, 3);
        let serial = rayon_pool(1)
            .expect("pool builds")
            .install(|| perm(40).collect_stats(&m));
        for threads in [2usize, 3, 8] {
            let pool = rayon_pool(threads).expect("pool builds");
            let parallel = pool.install(|| perm(40).collect_stats(&m));
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn backends_are_bit_identical() {
        // The scalar and SIMD positional-count kernels count the same sets.
        let m = mined_with_rule(0.85, 12);
        let mut kinds = vec![kernel::KernelKind::Scalar];
        kinds.extend(kernel::simd_kind());
        let runs: Vec<PermutationStats> = kinds
            .into_iter()
            .map(|kind| {
                kernel::force(Some(kind));
                perm(130).collect_stats(&m)
            })
            .collect();
        kernel::force(None);
        for stats in &runs {
            assert_eq!(stats, &runs[0]);
        }
    }

    #[test]
    fn permutations_are_independent_of_ordering() {
        // Permutation i's contribution depends on (seed, i) only: running a
        // prefix of the permutations yields exactly the minima the full run
        // assigns to those indices (the seed's in-place shuffle chained
        // permutation i's input to permutation i−1's output, breaking this).
        let m = mined_with_rule(0.9, 13);
        let full = perm(150).collect_stats(&m);
        let prefix = perm(70).collect_stats(&m);
        assert_eq!(prefix.minima.as_slice(), &full.minima[..70]);
    }

    #[test]
    fn prebuilt_tables_do_not_change_the_statistics() {
        let m = mined_with_rule(0.9, 14);
        let c = perm(30);
        let tables = c.build_shared_tables(&m);
        let none = CancelToken::none();
        let reuse = || -> PermutationStats {
            c.collect_stats_range(&m, Some(&tables), &none, 0, 30)
                .unwrap()
                .into()
        };
        let fresh = c.collect_stats(&m);
        assert_eq!(fresh, reuse());
        // Re-using the same set again is still identical (the tables are
        // read-only).
        assert_eq!(fresh, reuse());
    }

    #[test]
    fn from_stats_matches_the_one_shot_controls() {
        let m = mined_with_rule(0.9, 15);
        let c = perm(60);
        let stats = c.collect_stats(&m);
        for alpha in [0.01, 0.05, 0.2] {
            assert_eq!(
                c.control_fwer(&m, alpha),
                c.fwer_from_stats(&m, &stats, alpha)
            );
            assert_eq!(
                c.control_fdr(&m, alpha),
                c.fdr_from_stats(&m, &stats, alpha)
            );
        }
    }

    #[test]
    fn strong_rule_survives_permutation_fwer() {
        let m = mined_with_rule(0.95, 5);
        let r = perm(200).control_fwer(&m, 0.05);
        assert_eq!(r.method, "Perm_FWER");
        assert!(
            r.n_significant() > 0,
            "the embedded rule should be detected"
        );
        // and the cut-off is a valid probability
        let cutoff = r.p_value_cutoff.unwrap();
        assert!((0.0..=1.0).contains(&cutoff));
    }

    #[test]
    fn permutation_fwer_is_no_more_conservative_than_bonferroni_here() {
        // The permutation cut-off adapts to the correlation between rules, so
        // it should detect at least as much as Bonferroni on correlated data.
        let m = mined_with_rule(0.9, 6);
        let bc = direct::bonferroni(&m, 0.05);
        let pf = perm(300).control_fwer(&m, 0.05);
        assert!(pf.n_significant() >= bc.n_significant());
    }

    #[test]
    fn random_data_mostly_stays_insignificant() {
        let mut total = 0usize;
        for seed in 0..3u64 {
            let m = mined_random(seed + 10);
            total += perm(100).control_fwer(&m, 0.05).n_significant();
        }
        assert!(
            total <= 3,
            "random data should rarely produce significant rules, got {total}"
        );
    }

    #[test]
    fn fdr_control_detects_embedded_rule() {
        let m = mined_with_rule(0.95, 8);
        let r = perm(200).control_fdr(&m, 0.05);
        assert_eq!(r.method, "Perm_FDR");
        assert!(r.n_significant() > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let m = mined_with_rule(0.9, 9);
        let a = perm(40).control_fwer(&m, 0.05);
        let b = perm(40).control_fwer(&m, 0.05);
        assert_eq!(a.significant, b.significant);
        let c = PermutationCorrection::new(40)
            .with_seed(1234)
            .control_fwer(&m, 0.05);
        // a different seed may change the cut-off but the shapes stay valid
        assert_eq!(c.significant.len(), a.significant.len());
    }

    #[test]
    fn empty_rule_set_yields_empty_stats() {
        let params = SyntheticParams::default()
            .with_records(120)
            .with_attributes(6);
        let (d, _) = SyntheticGenerator::new(params).unwrap().generate(21);
        // An impossibly high support threshold leaves no rules.
        let m = mine_rules(&d, &RuleMiningConfig::new(121));
        assert!(m.rules().is_empty());
        let stats = perm(10).collect_stats(&m);
        assert!(stats.minima.is_empty());
        assert!(stats.pool_counts_leq.is_empty());
        assert_eq!(stats.pool_size, 0);
        let r = perm(10).control_fwer(&m, 0.05);
        assert_eq!(r.n_significant(), 0);
    }

    #[test]
    fn range_runs_merge_bit_identically() {
        // Any chunk-aligned tiling of 0..N, merged in any order — with
        // duplicate deliveries thrown in — reproduces the single-pass null
        // bit for bit.
        let m = mined_with_rule(0.9, 31);
        let none = CancelToken::none();
        let c = perm(150);
        let full = c.collect_stats(&m);
        let ranges = [(64usize, 128usize), (0, 64), (128, 150)];
        let mut partials: Vec<PartialPermutationStats> = ranges
            .iter()
            .map(|&(s, e)| c.collect_stats_range(&m, None, &none, s, e).unwrap())
            .collect();
        // A straggler re-dispatch delivers one range twice.
        partials.push(partials[0].clone());
        let merged = PermutationStats::merge(&partials).unwrap();
        assert_eq!(merged, full);
    }

    #[test]
    fn range_run_of_empty_rule_set_merges() {
        let params = SyntheticParams::default()
            .with_records(120)
            .with_attributes(6);
        let (d, _) = SyntheticGenerator::new(params).unwrap().generate(21);
        let m = mine_rules(&d, &RuleMiningConfig::new(121));
        assert!(m.rules().is_empty());
        let c = perm(128);
        let none = CancelToken::none();
        let partials: Vec<_> = [(0usize, 64usize), (64, 128)]
            .iter()
            .map(|&(s, e)| c.collect_stats_range(&m, None, &none, s, e).unwrap())
            .collect();
        let merged = PermutationStats::merge(&partials).unwrap();
        assert_eq!(merged, c.collect_stats(&m));
    }

    #[test]
    fn merge_rejects_gaps_and_inconsistent_shapes() {
        let m = mined_with_rule(0.9, 32);
        let c = perm(192);
        let none = CancelToken::none();
        let a = c.collect_stats_range(&m, None, &none, 0, 64).unwrap();
        let b = c.collect_stats_range(&m, None, &none, 128, 192).unwrap();
        // 64..128 missing: the tiling has a gap.
        assert!(PermutationStats::merge(&[a.clone(), b]).is_err());
        // Nothing at all.
        assert!(PermutationStats::merge(&[]).is_err());
        // Not starting at zero.
        let tail = c.collect_stats_range(&m, None, &none, 64, 192).unwrap();
        assert!(PermutationStats::merge(&[tail]).is_err());
        // Inconsistent rule counts across partials.
        let other = mined_with_rule(0.9, 33);
        if other.rules().len() != m.rules().len() {
            let foreign = c.collect_stats_range(&other, None, &none, 64, 192).unwrap();
            assert!(PermutationStats::merge(&[a, foreign]).is_err());
        }
    }

    #[test]
    #[should_panic(expected = "chunk-aligned")]
    fn range_rejects_unaligned_start() {
        let m = mined_with_rule(0.9, 34);
        // Aligned to 8 but not to the 64-permutation chunk.
        let _ = perm(96).collect_stats_range(&m, None, &CancelToken::none(), 8, 96);
    }

    #[test]
    fn shard_encoding_round_trips_bit_exactly() {
        // Satellite: the wire form and `resident_bytes` share one encoding
        // helper, and decode(encode(x)) == x bit for bit — proto drift would
        // break this test before it could corrupt a merged null.
        let m = mined_with_rule(0.9, 35);
        let c = perm(150);
        let none = CancelToken::none();
        for (s, e) in [(0usize, 64usize), (64, 128), (128, 150)] {
            let partial = c.collect_stats_range(&m, None, &none, s, e).unwrap();
            let bytes = partial.to_bytes();
            // Header (4 words) + the same canonical payload the cache
            // accounts for.
            assert_eq!(
                bytes.len(),
                32 + encoded_stats_bytes(partial.minima.len(), partial.pool_counts_leq.len())
            );
            let decoded = PartialPermutationStats::from_bytes(&bytes).unwrap();
            assert_eq!(decoded, partial);
        }
        // The full stats' resident accounting is that same helper.
        let full = c.collect_stats(&m);
        assert_eq!(
            full.resident_bytes(),
            encoded_stats_bytes(full.minima.len(), full.pool_counts_leq.len())
        );
        // Corruption is rejected, not absorbed.
        let partial = c.collect_stats_range(&m, None, &none, 0, 64).unwrap();
        let bytes = partial.to_bytes();
        assert!(PartialPermutationStats::from_bytes(&bytes[..bytes.len() - 8]).is_err());
        assert!(PartialPermutationStats::from_bytes(&bytes[..13]).is_err());
        let mut header_lies = bytes.clone();
        header_lies[16] ^= 0xff; // minima count no longer matches the length
        assert!(PartialPermutationStats::from_bytes(&header_lies).is_err());
    }

    #[test]
    fn hostile_shard_header_is_rejected_not_a_panic() {
        // start=0, end=u64::MAX, n_minima=u64::MAX, n_rules=0: unchecked,
        // 32 + (u64::MAX + 0 + 1) * 8 wraps to exactly these 32 bytes.
        let mut header = Vec::new();
        for word in [0, u64::MAX, u64::MAX, 0] {
            header.extend_from_slice(&word.to_le_bytes());
        }
        assert!(PartialPermutationStats::from_bytes(&header).is_err());
        // Counts that overflow only once multiplied into bytes, too.
        let mut header = Vec::new();
        for word in [0, 0, u64::MAX / 8, u64::MAX / 8] {
            header.extend_from_slice(&word.to_le_bytes());
        }
        assert!(PartialPermutationStats::from_bytes(&header).is_err());
    }

    #[test]
    fn local_executor_matches_direct_range_runs() {
        let m = mined_with_rule(0.9, 36);
        let c = perm(192);
        let none = CancelToken::none();
        let tables = c.build_shared_tables(&m);
        let exec = LocalExecutor::new(c.clone(), &m, Some(&tables))
            .with_threads(2)
            .unwrap();
        assert_eq!(exec.label(), "local");
        let via_exec = exec.run_range(64, 128, &none).unwrap();
        let direct = c.collect_stats_range(&m, None, &none, 64, 128).unwrap();
        assert_eq!(via_exec, direct);
        // Cancellation surfaces as ShardError::Cancelled, not Failed.
        let fired = CancelToken::new();
        fired.cancel();
        match exec.run_range(0, 64, &fired) {
            Err(ShardError::Cancelled(_)) => {}
            other => panic!("expected cancelled, got {other:?}"),
        }
    }
}
