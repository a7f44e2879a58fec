//! The session-oriented engine: load a dataset once, answer many queries.
//!
//! The paper's workflow is one loop: mine the rules once, then apply one
//! correction to them (§4).  This module is that loop, in three explicit
//! stages: [`Loader`] is the **load** stage (file/text → dataset +
//! warnings), [`Engine`] is the **index + cache** stage, and
//! [`Query`]/[`QueryOutcome`] are the **query** stage.  A one-shot run is
//! `Loader` → `Engine` → `Query`; a resident `sigrule serve` process keeps
//! the engine and answers many queries, so both paths run the same code and
//! warm answers are bit-identical to cold ones — the engine is a caching
//! layer, never a semantics change.  A query decides with one `match` on its
//! [`CorrectionApproach`], calling the function in
//! [`correction`](crate::correction) that implements that approach over the
//! artifacts the engine has cached.
//!
//! Most of what a query builds is reusable across queries that only vary the
//! significance level, error metric, or correction approach:
//!
//! * the loaded dataset and its vertical (tid-set) index — shared via
//!   [`SharedDataset`], built lazily, once;
//! * mined rule sets — cached per mining configuration ([`MiningKey`]);
//! * the static p-value tables of the permutation engine — the p-values
//!   are built by mining and kept with the rule set, their ranks are added
//!   once per mined rule set and shared across runs ([`SharedTableSet`]);
//! * permutation null distributions ([`PermutationStats`]) — cached per
//!   (mining configuration, permutation count, seed), so a warm query at a
//!   new α never re-permutes;
//! * evaluated random-holdout splits ([`HoldoutEvaluation`]) — cached per
//!   seed inside the mined rule set's entry, so the FWER and FDR holdout
//!   rows, and any later α, split and mine the exploratory half once.
//!
//! ```
//! use sigrule::engine::{Loader, Query};
//! use sigrule::{CorrectionApproach, ErrorMetric, RuleMiningConfig};
//!
//! let csv = "\
//! weather,ground,grass
//! rain,wet,green
//! rain,wet,green
//! rain,wet,green
//! sun,dry,brown
//! sun,dry,brown
//! sun,dry,green
//! ";
//! let engine = Loader::default().load_csv_str(csv).unwrap().into_engine();
//! let query = Query::new(RuleMiningConfig::new(2))
//!     .with_correction(CorrectionApproach::Permutation, ErrorMetric::Fwer)
//!     .with_permutations(50);
//!
//! let cold = engine.query(&query).unwrap();
//! assert!(!cold.mined_cached);
//! assert!(cold.mined.rules().len() > 0);
//!
//! // Same mining config and null model, different α: everything is cached.
//! let warm = engine.query(&query.clone().with_alpha(0.01)).unwrap();
//! assert!(warm.mined_cached);
//! assert_eq!(warm.null_cached, Some(true));
//! ```

use crate::cancel::{CancelToken, Cancelled};
use crate::config::RuleMiningConfig;
use crate::correction::holdout::HoldoutEvaluation;
use crate::correction::permutation::{
    rayon_pool, PermutationCorrection, PermutationStats, MAX_PERMUTATIONS,
};
use crate::correction::{
    direct, no_correction, CorrectionApproach, CorrectionResult, ErrorMetric, RandomHoldout,
};
use crate::miner::{mine_rules_cancellable, MinedRuleSet};
use sigrule_data::loader::{
    detect_format_with, load_baskets_file, load_baskets_str, load_csv_file, load_csv_str,
    BasketOptions, InputFormat, LoadOptions, LoadWarning,
};
use sigrule_data::{DataError, Dataset, SharedDataset};
use sigrule_stats::SharedTableSet;
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// An error raised while loading a dataset or answering a [`Query`].
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// Loading or validating the dataset failed.
    Data(DataError),
    /// The query itself is invalid.
    Config(String),
    /// The query's [`CancelToken`] fired — deadline or explicit cancel —
    /// before the work finished.  The engine cache is left cold (never
    /// partial); an identical retry redoes the work and stays bit-identical.
    Cancelled(Cancelled),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Data(e) => write!(f, "{e}"),
            PipelineError::Config(reason) => write!(f, "invalid configuration: {reason}"),
            PipelineError::Cancelled(c) => write!(f, "{c}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Data(e) => Some(e),
            PipelineError::Config(_) => None,
            PipelineError::Cancelled(_) => None,
        }
    }
}

impl From<DataError> for PipelineError {
    fn from(e: DataError) -> Self {
        PipelineError::Data(e)
    }
}

impl From<Cancelled> for PipelineError {
    fn from(c: Cancelled) -> Self {
        PipelineError::Cancelled(c)
    }
}

/// The load stage: turns a file or text into a dataset plus loader warnings,
/// in a fixed or auto-detected input format.  Shared by the one-shot CLI
/// commands and the `sigrule serve` process.
#[derive(Debug, Clone, Default)]
pub struct Loader {
    /// CSV/TSV parsing and discretization options.
    pub load: LoadOptions,
    /// Basket (transaction) parsing options.
    pub basket: BasketOptions,
    /// The input format to assume; `None` auto-detects per file.
    pub input_format: Option<InputFormat>,
}

/// What the load stage produced: the dataset, any non-fatal warnings, the
/// effective input format and the wall-clock load time.
#[derive(Debug, Clone)]
pub struct LoadedSource {
    /// The loaded dataset.
    pub dataset: Dataset,
    /// Non-fatal loader warnings (basket inputs only today).
    pub warnings: Vec<LoadWarning>,
    /// The format the input was actually parsed as.
    pub format: InputFormat,
    /// Wall-clock time spent loading.
    pub elapsed: Duration,
}

impl LoadedSource {
    /// Promotes the loaded source to a resident [`Engine`], carrying the
    /// warnings and load time along.
    pub fn into_engine(self) -> Engine {
        let mut engine = Engine::new(self.dataset);
        engine.load_time = self.elapsed;
        engine.warnings = self.warnings;
        engine
    }
}

impl Loader {
    /// Loads a file in the configured (or auto-detected) input format.
    pub fn load_file(&self, path: impl AsRef<Path>) -> Result<LoadedSource, PipelineError> {
        let path = path.as_ref();
        let format = match self.input_format {
            Some(format) => format,
            None => detect_format_with(path, &self.basket)?,
        };
        let start = Instant::now();
        match format {
            InputFormat::Rows => {
                let dataset = load_csv_file(path, &self.load)?;
                Ok(LoadedSource {
                    dataset,
                    warnings: Vec::new(),
                    format,
                    elapsed: start.elapsed(),
                })
            }
            InputFormat::Basket => {
                let load = load_baskets_file(path, &self.basket)?;
                Ok(LoadedSource {
                    dataset: load.dataset,
                    warnings: load.warnings,
                    format,
                    elapsed: start.elapsed(),
                })
            }
        }
    }

    /// Parses CSV/TSV text.
    pub fn load_csv_str(&self, text: &str) -> Result<LoadedSource, PipelineError> {
        let start = Instant::now();
        let dataset = load_csv_str(text, &self.load)?;
        Ok(LoadedSource {
            dataset,
            warnings: Vec::new(),
            format: InputFormat::Rows,
            elapsed: start.elapsed(),
        })
    }

    /// Parses basket (transaction) text.
    pub fn load_baskets_str(&self, text: &str) -> Result<LoadedSource, PipelineError> {
        let start = Instant::now();
        let load = load_baskets_str(text, &self.basket)?;
        Ok(LoadedSource {
            dataset: load.dataset,
            warnings: load.warnings,
            format: InputFormat::Basket,
            elapsed: start.elapsed(),
        })
    }
}

/// Hashable identity of a [`RuleMiningConfig`] (the float `min_conf` is keyed
/// by its bit pattern, so two configs compare equal exactly when every mining
/// parameter is identical).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MiningKey {
    min_sup: usize,
    min_conf_bits: u64,
    max_length: Option<usize>,
    closed_only: bool,
    use_diffsets: bool,
}

impl From<&RuleMiningConfig> for MiningKey {
    fn from(config: &RuleMiningConfig) -> Self {
        MiningKey {
            min_sup: config.min_sup,
            min_conf_bits: config.min_conf.to_bits(),
            max_length: config.max_length,
            closed_only: config.closed_only,
            use_diffsets: config.use_diffsets,
        }
    }
}

/// Cache key of a permutation null distribution: the mined rule set identity
/// plus the permutation count and seed (the only engine parameters the null
/// depends on — α and the error metric are applied after the fact).
type NullKey = (MiningKey, usize, u64);

/// One resident mined rule set plus its lazily built static p-value tables
/// and evaluated holdout splits.
#[derive(Debug)]
struct MineEntry {
    mined: Arc<MinedRuleSet>,
    /// Built on the first permutation null against this rule set, then
    /// reused by every later one (see [`MineEntry::tables`]).
    tables: OnceLock<SharedTableSet>,
    /// One evaluated random-holdout split per seed, filled by the first
    /// holdout query with that seed.  Evicted with the rule set.
    holdouts: Mutex<HashMap<u64, Arc<FillCell<HoldoutEntry>>>>,
    /// Approximate bytes of `mined`, computed once at fill time: the rule
    /// set is immutable, and recomputing would walk every forest node on
    /// every stats/eviction pass.
    mined_bytes: usize,
    /// Approximate bytes of `tables`, computed once after their build (the
    /// static tables are immutable too).
    table_bytes: OnceLock<usize>,
    /// LRU stamp: the engine clock value of the last query that touched this
    /// entry.
    last_used: AtomicU64,
}

impl MineEntry {
    /// The rule set's static p-value tables, ranked on first use over the
    /// rule set's own p-value buffers.  They depend only on the rules and
    /// the static buffer budget, whose default is the same for every
    /// permutation count and seed, so every null and shard against this rule
    /// set shares one build.
    fn tables(&self) -> &SharedTableSet {
        self.tables
            .get_or_init(|| PermutationCorrection::default().build_shared_tables(&self.mined))
    }

    /// Approximate bytes the built static tables add to the rule set's
    /// p-values — ranks and index (zero until they exist).
    fn tables_bytes(&self) -> usize {
        match self.tables.get() {
            Some(tables) => *self.table_bytes.get_or_init(|| tables.resident_bytes()),
            None => 0,
        }
    }

    /// Approximate resident bytes of the filled holdout evaluations.
    fn holdout_bytes(&self) -> usize {
        self.holdouts
            .lock()
            .expect("holdout cache lock")
            .values()
            .filter_map(|cell| cell.get())
            .map(|h| h.bytes)
            .sum()
    }

    /// Approximate resident bytes: the rule set plus its static p-value
    /// tables and holdout evaluations (when built).
    fn bytes(&self) -> usize {
        self.mined_bytes + self.tables_bytes() + self.holdout_bytes()
    }
}

/// One resident evaluated holdout split, with its byte size computed once
/// at fill time (the evaluation is immutable).
#[derive(Debug)]
struct HoldoutEntry {
    evaluation: HoldoutEvaluation,
    bytes: usize,
}

/// One resident permutation null distribution.
#[derive(Debug)]
struct NullEntry {
    stats: Arc<PermutationStats>,
    /// LRU stamp: the engine clock value of the last query that touched this
    /// entry.
    last_used: AtomicU64,
}

/// What a null-cache lookup returned: the stats, whether the cache already
/// held them, and the time spent collecting them (zero on a hit).
struct NullLookup {
    stats: Arc<PermutationStats>,
    cached: bool,
    elapsed: Duration,
}

/// Runs one decision after a last cancellation check, and times it.
fn timed(
    cancel: &CancelToken,
    decide: impl FnOnce() -> Result<CorrectionResult, Cancelled>,
) -> Result<(CorrectionResult, Duration), Cancelled> {
    cancel.check()?;
    let start = Instant::now();
    let result = decide()?;
    Ok((result, start.elapsed()))
}

/// The state of a [`FillCell`]: never filled, being filled by one thread, or
/// filled for good.
#[derive(Debug)]
enum FillState<T> {
    Empty,
    Filling,
    Full(Arc<T>),
}

/// A cache slot that is filled at most once per *successful* fill attempt.
/// Concurrent requesters of the same key block on the filling thread instead
/// of duplicating the work, so two identical queries racing on a cold cache
/// still permute (or mine) only once.
///
/// Unlike a `OnceLock`, a fill here is **fallible and abortable**: if the
/// filling closure errors (a cancelled query), or panics (an injected
/// fault), the cell reverts to empty — never a partial entry — and one of
/// the blocked waiters takes the fill over.  The next identical query redoes
/// the work from scratch and stays bit-identical; cancellation can change
/// cost, never answers.
#[derive(Debug)]
struct FillCell<T> {
    state: Mutex<FillState<T>>,
    ready: Condvar,
}

impl<T> Default for FillCell<T> {
    fn default() -> Self {
        FillCell {
            state: Mutex::new(FillState::Empty),
            ready: Condvar::new(),
        }
    }
}

/// Resets an aborted fill (error or panic) back to empty and wakes the
/// waiters so one of them can take over.
struct FillAbortGuard<'a, T> {
    cell: &'a FillCell<T>,
    armed: bool,
}

impl<T> Drop for FillAbortGuard<'_, T> {
    fn drop(&mut self) {
        if self.armed {
            *self.cell.lock() = FillState::Empty;
            self.cell.ready.notify_all();
        }
    }
}

impl<T> FillCell<T> {
    /// The state lock, recovering from poisoning: the abort guard keeps the
    /// state machine consistent even when a filling thread panics, so a
    /// poisoned mutex carries no broken invariant.
    fn lock(&self) -> MutexGuard<'_, FillState<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The filled value, if any (never blocks on a fill in progress).
    fn get(&self) -> Option<Arc<T>> {
        match &*self.lock() {
            FillState::Full(value) => Some(value.clone()),
            _ => None,
        }
    }

    /// Returns the filled value, filling it with `fill` when the cell is
    /// empty.  The second tuple field is `true` when the value was already
    /// resident (a cache hit).  While one thread fills, concurrent callers
    /// block; if the fill errors or panics, the cell reverts to empty and a
    /// blocked caller retries the fill itself.
    fn get_or_fill<E>(&self, fill: impl FnOnce() -> Result<T, E>) -> Result<(Arc<T>, bool), E> {
        let mut state = self.lock();
        loop {
            match &*state {
                FillState::Full(value) => return Ok((value.clone(), true)),
                FillState::Filling => {
                    state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
                }
                FillState::Empty => break,
            }
        }
        *state = FillState::Filling;
        drop(state);
        let mut guard = FillAbortGuard {
            cell: self,
            armed: true,
        };
        let value = Arc::new(fill()?);
        guard.armed = false;
        *self.lock() = FillState::Full(value.clone());
        self.ready.notify_all();
        Ok((value, false))
    }
}

/// One query against a resident [`Engine`]: which rules to mine and how to
/// correct them.  Everything a run configures except the input source (the
/// engine already holds the dataset).
#[derive(Debug, Clone)]
pub struct Query {
    /// Rule-mining configuration (cache key of the mined rule set).
    pub mining: RuleMiningConfig,
    /// The correction approach to apply.
    pub approach: CorrectionApproach,
    /// The error metric the correction targets.
    pub metric: ErrorMetric,
    /// Significance level α.
    pub alpha: f64,
    /// Permutation count (permutation approach only).
    pub n_permutations: usize,
    /// Seed of the permutation shuffler / holdout partitioner.
    pub seed: u64,
    /// Worker-thread count for the whole query: mining, the permutation
    /// null and the holdout re-score (`None`: rayon's default pool).  One
    /// thread runs them all on the calling thread.
    pub threads: Option<usize>,
    /// Cancellation token checked between permutation chunks and mining
    /// phases; deliberately **not** part of any cache key (a cancelled and a
    /// clean query are the same query).  Defaults to the never-firing token.
    pub cancel: CancelToken,
}

impl Query {
    /// A query with the paper's defaults (Bonferroni at α = 0.05, seed 17,
    /// 1000 permutations) and the given mining configuration.
    pub fn new(mining: RuleMiningConfig) -> Self {
        Query {
            mining,
            approach: CorrectionApproach::Direct,
            metric: ErrorMetric::Fwer,
            alpha: 0.05,
            n_permutations: 1000,
            seed: 17,
            threads: None,
            cancel: CancelToken::none(),
        }
    }

    /// Selects the correction approach and error metric.
    pub fn with_correction(mut self, approach: CorrectionApproach, metric: ErrorMetric) -> Self {
        self.approach = approach;
        self.metric = metric;
        self
    }

    /// Sets the significance level α.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the permutation count.
    pub fn with_permutations(mut self, n: usize) -> Self {
        self.n_permutations = n;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Pins the query (mining, null and holdout) to `n` worker threads.
    pub fn with_threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// Attaches a cancellation token: the query aborts (with
    /// [`PipelineError::Cancelled`]) at the next chunk or phase boundary
    /// after the token fires, leaving the engine caches cold or complete —
    /// never partial.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Checks the query for contradictions before running.
    pub fn validate(&self) -> Result<(), PipelineError> {
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err(PipelineError::Config(format!(
                "alpha must be in (0, 1], got {}",
                self.alpha
            )));
        }
        self.mining.validate().map_err(PipelineError::Config)?;
        if self.approach == CorrectionApproach::Permutation
            && !(1..=MAX_PERMUTATIONS).contains(&self.n_permutations)
        {
            return Err(PipelineError::Config(format!(
                "the permutation approach needs 1 to {MAX_PERMUTATIONS} permutations, got {}",
                self.n_permutations
            )));
        }
        if self.threads == Some(0) {
            return Err(PipelineError::Config(
                "thread count must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// Wall-clock timings of one engine query, split by stage.  A warm query
/// shows zero (well, nanosecond-scale lookup) `mine` and `null` times.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryTimings {
    /// Mining the rule set (zero-ish on a mine-cache hit).
    pub mine: Duration,
    /// Collecting the permutation null (zero for non-permutation approaches
    /// and on a null-cache hit).
    pub null: Duration,
    /// Deriving the significance decision.
    pub correct: Duration,
}

impl QueryTimings {
    /// Total time across the stages.
    pub fn total(&self) -> Duration {
        self.mine + self.null + self.correct
    }
}

/// The outcome of one engine query: the (shared) mined rule set, the
/// correction result, per-stage timings and which caches answered.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The mined rule set the query ran against (shared with the engine's
    /// cache — cloning the `Arc` is free).
    pub mined: Arc<MinedRuleSet>,
    /// The correction outcome.
    pub result: CorrectionResult,
    /// Per-stage wall-clock timings.
    pub timings: QueryTimings,
    /// True when the mined rule set came from the cache.
    pub mined_cached: bool,
    /// Whether the permutation null came from the cache (`None` for
    /// approaches without a cacheable null).
    pub null_cached: Option<bool>,
}

/// A snapshot of the engine's cache state and hit counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Queries answered.
    pub queries: u64,
    /// Mined-rule-set cache hits / misses.
    pub mine_hits: u64,
    /// Mined-rule-set cache misses (rule sets mined).
    pub mine_misses: u64,
    /// Permutation-null cache hits / misses.
    pub null_hits: u64,
    /// Permutation-null cache misses (nulls collected).
    pub null_misses: u64,
    /// Holdout-evaluation cache hits.
    pub holdout_hits: u64,
    /// Holdout-evaluation cache misses (splits mined and re-scored).
    pub holdout_misses: u64,
    /// Queries aborted by their cancellation token (deadline or explicit
    /// cancel) before finishing.
    pub cancelled_queries: u64,
    /// Rule sets currently resident.
    pub cached_rule_sets: usize,
    /// Null distributions currently resident.
    pub cached_nulls: usize,
    /// Bytes the resident permutation nulls' static tables add to the
    /// mined p-values: one rank per p-value plus a coverage index.  The
    /// p-values themselves are the rule sets' (`rule_set_bytes`).
    pub table_bytes: usize,
    /// Approximate bytes held by the resident mined rule sets: forests,
    /// rules, labels and the p-value tables mining scored the rules from
    /// (which a null's static tables share rather than copy).
    pub rule_set_bytes: usize,
    /// Approximate bytes held by the resident permutation nulls.
    pub null_bytes: usize,
    /// Approximate bytes held by the resident holdout evaluations.
    pub holdout_bytes: usize,
    /// Rule sets evicted so far (byte-budget eviction).
    pub evicted_rule_sets: u64,
    /// Null distributions evicted so far (byte-budget eviction).
    pub evicted_nulls: u64,
}

impl EngineStats {
    /// Total approximate resident cache bytes (rule sets + p-value tables +
    /// permutation nulls + holdout evaluations) — the quantity a byte budget
    /// bounds.
    pub fn resident_bytes(&self) -> usize {
        self.rule_set_bytes + self.table_bytes + self.null_bytes + self.holdout_bytes
    }
}

/// The kind of an evictable engine cache entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheEntryKind {
    /// A mined rule set (plus its static p-value tables and holdout
    /// evaluations).
    RuleSet,
    /// A permutation null distribution.
    Null,
}

/// One evictable cache entry, as seen by an eviction policy: what it is, how
/// big it approximately is, and when it was last touched (engine clock
/// stamps; higher = more recent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheEntry {
    /// Entry kind.
    pub kind: CacheEntryKind,
    /// Approximate resident bytes.
    pub bytes: usize,
    /// LRU stamp of the last query that touched the entry.
    pub last_used: u64,
}

/// The engine's event counters.  Each is the one store of its count: bumped
/// at one site, read by [`Engine::stats`], and rendered as-is by the metrics
/// registry once [`Engine::set_label`] exposes it.  Counting never depends on
/// the registry, so `SIGRULE_METRICS=off` leaves every `stats` answer intact.
#[derive(Debug, Default)]
struct Counters {
    queries: Arc<AtomicU64>,
    mine_hits: Arc<AtomicU64>,
    mine_misses: Arc<AtomicU64>,
    null_hits: Arc<AtomicU64>,
    null_misses: Arc<AtomicU64>,
    holdout_hits: Arc<AtomicU64>,
    holdout_misses: Arc<AtomicU64>,
    cancelled_queries: Arc<AtomicU64>,
    evicted_rule_sets: Arc<AtomicU64>,
    evicted_nulls: Arc<AtomicU64>,
}

/// A dataset-resident query engine: owns one loaded dataset (shared, with a
/// lazily built vertical index) and answers repeated [`Query`]s, caching
/// mined rule sets, permutation null distributions and holdout evaluations.
/// See the [module docs](self) for the cache structure.
///
/// All methods take `&self`; the engine is `Sync` and is designed to be put
/// behind an [`Arc`] and queried from many threads at once (`sigrule serve`
/// does exactly that).
#[derive(Debug)]
pub struct Engine {
    shared: SharedDataset,
    load_time: Duration,
    warnings: Vec<LoadWarning>,
    /// The `dataset` label this engine's metrics and log events carry
    /// (`"local"` for one-shot runs; a registry overwrites it with the
    /// served dataset name).  Observation only — never part of a cache key.
    label: String,
    mined: Mutex<HashMap<MiningKey, Arc<FillCell<MineEntry>>>>,
    nulls: Mutex<HashMap<NullKey, Arc<FillCell<NullEntry>>>>,
    counters: Counters,
    /// Monotonic LRU clock; every cache touch stamps the entry with the next
    /// tick.  Shareable across engines (see [`Engine::set_clock`]) so a
    /// registry can run one least-recently-used order over many engines.
    clock: Arc<AtomicU64>,
}

impl Engine {
    /// Creates an engine resident over a dataset.
    pub fn new(dataset: Dataset) -> Self {
        Engine::from_shared(SharedDataset::new(dataset))
    }

    /// Creates an engine over an already-shared dataset (the views built so
    /// far are reused, not rebuilt).
    pub fn from_shared(shared: SharedDataset) -> Self {
        Engine {
            shared,
            load_time: Duration::ZERO,
            warnings: Vec::new(),
            label: "local".to_string(),
            mined: Mutex::new(HashMap::new()),
            nulls: Mutex::new(HashMap::new()),
            counters: Counters::default(),
            clock: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Replaces the engine's LRU clock with a shared one.  A registry holding
    /// many engines points them all at one clock, so "least recently used"
    /// is well-defined across engines; stamps only ever come from
    /// `fetch_add`, so sharing is race-free.
    pub fn set_clock(&mut self, clock: Arc<AtomicU64>) {
        self.clock = clock;
    }

    /// Sets the `dataset` label carried by this engine's metrics and log
    /// events, and exposes the engine's counters (plus empty phase
    /// histograms) under it, replacing whatever engine held the label
    /// before.  Purely observational: answers and cache keys are untouched.
    pub fn set_label(&mut self, label: impl Into<String>) {
        use crate::obs_metrics as m;
        self.label = label.into();
        let (dataset, c) = (self.label.as_str(), &self.counters);
        m::queries_total(dataset, &c.queries);
        m::queries_cancelled_total(dataset, &c.cancelled_queries);
        m::cache_hits_total(dataset, "mine", &c.mine_hits);
        m::cache_misses_total(dataset, "mine", &c.mine_misses);
        m::cache_hits_total(dataset, "null", &c.null_hits);
        m::cache_misses_total(dataset, "null", &c.null_misses);
        m::cache_hits_total(dataset, "holdout", &c.holdout_hits);
        m::cache_misses_total(dataset, "holdout", &c.holdout_misses);
        m::cache_evictions_total(dataset, "rule_set", &c.evicted_rule_sets);
        m::cache_evictions_total(dataset, "null", &c.evicted_nulls);
        for phase in ["mine", "null", "correct"] {
            let _ = m::query_phase_seconds(dataset, phase);
        }
    }

    /// The `dataset` label carried by this engine's metrics and log events.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Stamps the next LRU tick.
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Relaxed)
    }

    /// The resident dataset.
    pub fn dataset(&self) -> &Arc<Dataset> {
        self.shared.dataset()
    }

    /// The shared dataset handle (dataset + lazily built views).
    pub fn shared(&self) -> &SharedDataset {
        &self.shared
    }

    /// Warnings raised while loading the resident dataset.
    pub fn warnings(&self) -> &[LoadWarning] {
        &self.warnings
    }

    /// Wall-clock time the load stage took (zero when the engine was built
    /// from an in-memory dataset).
    pub fn load_time(&self) -> Duration {
        self.load_time
    }

    /// Mines (or fetches the cached) rule set for a mining configuration.
    /// Returns the rule set, the time spent mining (zero on a hit) and
    /// whether the cache answered.
    pub fn mine(&self, config: &RuleMiningConfig) -> (Arc<MinedRuleSet>, Duration, bool) {
        self.mine_cancellable(config, &CancelToken::none())
            .expect("mining with the never-firing token cannot be cancelled")
    }

    /// [`mine`](Engine::mine) with a cancellation token, checked between
    /// mining phases.  On cancellation the mine cache is left cold — the
    /// next identical call redoes the work, bit-identically.
    pub fn mine_cancellable(
        &self,
        config: &RuleMiningConfig,
        cancel: &CancelToken,
    ) -> Result<(Arc<MinedRuleSet>, Duration, bool), Cancelled> {
        let (entry, elapsed, cached) = self.mine_entry(config, cancel)?;
        Ok((entry.mined.clone(), elapsed, cached))
    }

    fn mine_entry(
        &self,
        config: &RuleMiningConfig,
        cancel: &CancelToken,
    ) -> Result<(Arc<MineEntry>, Duration, bool), Cancelled> {
        let key = MiningKey::from(config);
        // Take (or insert) the cell under the lock, then fill it outside the
        // lock: the cell blocks concurrent requesters of the same key on the
        // one thread actually mining, while other keys proceed in parallel.
        let cell = self
            .mined
            .lock()
            .expect("mine cache lock")
            .entry(key)
            .or_default()
            .clone();
        let start = Instant::now();
        let (entry, cached) = cell.get_or_fill(|| {
            cancel.check()?;
            let vertical = self.shared.vertical();
            let mined = Arc::new(mine_rules_cancellable(
                self.shared.dataset(),
                &vertical,
                config,
                cancel,
            )?);
            let mined_bytes = mined.approx_bytes();
            Ok(MineEntry {
                mined,
                tables: OnceLock::new(),
                holdouts: Mutex::default(),
                mined_bytes,
                table_bytes: OnceLock::new(),
                last_used: AtomicU64::new(0),
            })
        })?;
        entry.last_used.store(self.tick(), Relaxed);
        if cached {
            self.counters.mine_hits.fetch_add(1, Relaxed);
            Ok((entry, Duration::ZERO, true))
        } else {
            self.counters.mine_misses.fetch_add(1, Relaxed);
            Ok((entry, start.elapsed(), false))
        }
    }

    /// Mines (via the cache) and returns the rule set together with its
    /// shared static p-value tables, building them on first use and caching
    /// them thereafter — what a `perm_shard` request needs to run one
    /// permutation range without rebuilding the tables per shard.  The
    /// tables are a deterministic function of the mined rule set, so reuse
    /// changes only cost, never a statistic.
    pub fn mined_with_tables(
        &self,
        config: &RuleMiningConfig,
        cancel: &CancelToken,
    ) -> Result<(Arc<MinedRuleSet>, SharedTableSet), Cancelled> {
        let (entry, _elapsed, _cached) = self.mine_entry(config, cancel)?;
        Ok((entry.mined.clone(), entry.tables().clone()))
    }

    /// Fills (or fetches) the permutation-null cache entry for
    /// `(mining, n_permutations, seed)` using a caller-supplied collector —
    /// the entry point a **distributed coordinator** uses to pour a
    /// scatter/merge null into the same cache slot a local query would fill.
    ///
    /// The collector runs inside the same abortable fill cell as a local
    /// collection: concurrent identical queries block on it instead of
    /// duplicating the work, and if it errors or panics the cell reverts to
    /// empty — the cache is **cold or complete, never partial**, whatever a
    /// worker fleet does.  Mining and, on a miss, the shared static p-value
    /// tables are resolved through the usual caches, so the collector
    /// receives exactly the inputs a local run would.
    ///
    /// The caller contracts that the collector's output is bit-identical to
    /// [`collect_stats`](crate::correction::permutation::PermutationCorrection::collect_stats)
    /// for the same parameters (the distributed merge guarantees this by
    /// construction); the cache trusts it the way it trusts a local fill.
    /// Returns the resident stats and whether the cache already held them
    /// (in which case the collector was never called).
    pub fn fill_null_with<F>(
        &self,
        mining: &RuleMiningConfig,
        n_permutations: usize,
        seed: u64,
        cancel: &CancelToken,
        collect: F,
    ) -> Result<(Arc<PermutationStats>, bool), Cancelled>
    where
        F: FnOnce(
            &MinedRuleSet,
            &SharedTableSet,
            &CancelToken,
        ) -> Result<PermutationStats, Cancelled>,
    {
        let (entry, _mine_time, _mined_cached) = self.mine_entry(mining, cancel)?;
        let key: NullKey = (MiningKey::from(mining), n_permutations, seed);
        let null = self.null_stats(&entry, key, cancel, |tables| {
            collect(&entry.mined, tables, cancel)
        })?;
        Ok((null.stats, null.cached))
    }

    /// The one copy of the null-cache protocol: looks the null of `key` up
    /// and, on a miss, builds the rule set's static tables and fills the
    /// cell with `collect`.  The fill cell blocks concurrent identical
    /// requests on the one collector and reverts to empty if `collect`
    /// errors or panics.  Bumps the hit/miss counters and the LRU stamp.
    fn null_stats<E: From<Cancelled>>(
        &self,
        entry: &MineEntry,
        key: NullKey,
        cancel: &CancelToken,
        collect: impl FnOnce(&SharedTableSet) -> Result<PermutationStats, E>,
    ) -> Result<NullLookup, E> {
        let cell = self
            .nulls
            .lock()
            .expect("null cache lock")
            .entry(key)
            .or_default()
            .clone();
        let (null_entry, cached, elapsed) = match cell.get() {
            Some(resident) => (resident, true, Duration::ZERO),
            None => {
                cancel.check()?;
                let tables = entry.tables();
                let start = Instant::now();
                let (filled, cached) = cell.get_or_fill(|| -> Result<NullEntry, E> {
                    cancel.check()?;
                    Ok(NullEntry {
                        stats: Arc::new(collect(tables)?),
                        last_used: AtomicU64::new(0),
                    })
                })?;
                let elapsed = if cached {
                    Duration::ZERO
                } else {
                    start.elapsed()
                };
                (filled, cached, elapsed)
            }
        };
        let counter = if cached {
            &self.counters.null_hits
        } else {
            &self.counters.null_misses
        };
        counter.fetch_add(1, Relaxed);
        null_entry.last_used.store(self.tick(), Relaxed);
        Ok(NullLookup {
            stats: null_entry.stats.clone(),
            cached,
            elapsed,
        })
    }

    /// Answers one query, consulting and populating the caches.  Warm results
    /// are bit-identical to cold ones (and to a fresh engine's answer to the
    /// same query).
    ///
    /// The query's [`CancelToken`] is checked between permutation chunks and
    /// mining phases; once it fires the query returns
    /// [`PipelineError::Cancelled`] promptly, and whatever cache fill it was
    /// driving reverts to cold — the next identical query redoes the work
    /// and answers bit-identically.
    pub fn query(&self, query: &Query) -> Result<QueryOutcome, PipelineError> {
        query.validate()?;
        self.counters.queries.fetch_add(1, Relaxed);
        // One pool around the whole query: mining, the null and the holdout
        // re-score all run on the query's threads.
        let outcome = match query.threads {
            Some(n) => rayon_pool(n)
                .map_err(|e| PipelineError::Config(format!("thread pool: {e}")))
                .and_then(|pool| pool.install(|| self.query_inner(query))),
            None => self.query_inner(query),
        };
        if matches!(outcome, Err(PipelineError::Cancelled(_))) {
            self.counters.cancelled_queries.fetch_add(1, Relaxed);
        }
        self.observe_query(&outcome);
        outcome
    }

    /// Records phase latencies and span events for a finished query (the
    /// counters were bumped where their events happened).  Observation
    /// only, after the answer exists — it can never change one.
    fn observe_query(&self, outcome: &Result<QueryOutcome, PipelineError>) {
        let dataset = self.label.as_str();
        match outcome {
            Ok(outcome) => {
                for (phase, elapsed) in [
                    ("mine", outcome.timings.mine),
                    ("null", outcome.timings.null),
                    ("correct", outcome.timings.correct),
                ] {
                    crate::obs_metrics::query_phase_seconds(dataset, phase)
                        .observe(elapsed.as_secs_f64());
                    sigrule_obs::trace::span_ms(
                        "sigrule::engine",
                        phase,
                        elapsed.as_secs_f64() * 1e3,
                        &[("dataset", dataset.into())],
                    );
                }
            }
            Err(PipelineError::Cancelled(cancelled)) => {
                sigrule_obs::log::debug(
                    "sigrule::engine",
                    "query cancelled",
                    &[
                        ("dataset", dataset.into()),
                        ("reason", format!("{:?}", cancelled.reason).into()),
                    ],
                );
            }
            Err(_) => {}
        }
    }

    /// Answers a batch of queries against this engine, in order, stopping at
    /// the first failure.
    ///
    /// This is the evaluation entry point: a sweep harness prepares all the
    /// (correction, α) combinations it wants on one dataset and submits them
    /// together, so queries that share a mining configuration reuse the mined
    /// rule set and queries that share a `(mining, n_permutations, seed)`
    /// triple reuse the permutation null — the per-query
    /// [`QueryOutcome::mined_cached`] / [`QueryOutcome::null_cached`] flags
    /// report exactly which reuse happened.
    pub fn query_many(&self, queries: &[Query]) -> Result<Vec<QueryOutcome>, PipelineError> {
        queries.iter().map(|q| self.query(q)).collect()
    }

    fn query_inner(&self, query: &Query) -> Result<QueryOutcome, PipelineError> {
        let cancel = &query.cancel;
        cancel.check()?;
        let (entry, mine_time, mined_cached) = self.mine_entry(&query.mining, cancel)?;
        let mined = &entry.mined;
        let (metric, alpha) = (query.metric, query.alpha);

        // One decision per approach.  The permutation null is looked up (and
        // collected on a miss) first; every decision is cheap and never
        // cached, since it depends on α and the metric.  A holdout query
        // looks its evaluated split up inside the decision, so the fill
        // counts towards the decision time.
        let mut null = None;
        let (result, correct_time) = match query.approach {
            CorrectionApproach::None => timed(cancel, || Ok(no_correction(mined, alpha)))?,
            CorrectionApproach::Direct => timed(cancel, || {
                Ok(match metric {
                    ErrorMetric::Fwer => direct::bonferroni(mined, alpha),
                    ErrorMetric::Fdr => direct::benjamini_hochberg(mined, alpha),
                })
            })?,
            CorrectionApproach::Permutation => {
                let n = query.n_permutations;
                let correction = PermutationCorrection::new(n).with_seed(query.seed);
                let key = (MiningKey::from(&query.mining), n, query.seed);
                let lookup = self.null_stats(&entry, key, cancel, |tables| {
                    correction
                        .collect_stats_range(mined, Some(tables), cancel, 0, n)
                        .map(PermutationStats::from)
                })?;
                let stats = &null.insert(lookup).stats;
                timed(cancel, || {
                    Ok(match metric {
                        ErrorMetric::Fwer => correction.fwer_from_stats(mined, stats, alpha),
                        ErrorMetric::Fdr => correction.fdr_from_stats(mined, stats, alpha),
                    })
                })?
            }
            CorrectionApproach::Holdout => timed(cancel, || {
                let holdout = self.holdout_entry(&entry, query)?;
                Ok(holdout.evaluation.decide(metric, alpha, "RH"))
            })?,
        };

        Ok(QueryOutcome {
            mined: entry.mined.clone(),
            result,
            timings: QueryTimings {
                mine: mine_time,
                null: null.as_ref().map_or(Duration::ZERO, |n| n.elapsed),
                correct: correct_time,
            },
            mined_cached,
            null_cached: null.map(|n| n.cached),
        })
    }

    /// Fetches (or evaluates and caches) the random-holdout split of
    /// `query.seed` inside the rule set's entry.  The fill cell blocks
    /// concurrent identical queries on one evaluation and reverts to empty
    /// when the query is cancelled mid-fill.
    fn holdout_entry(
        &self,
        entry: &MineEntry,
        query: &Query,
    ) -> Result<Arc<HoldoutEntry>, Cancelled> {
        let cell = entry
            .holdouts
            .lock()
            .expect("holdout cache lock")
            .entry(query.seed)
            .or_default()
            .clone();
        let (holdout, cached) = cell.get_or_fill(|| {
            let evaluation = RandomHoldout::from_mining(query.seed, &query.mining)
                .evaluate(self.shared.dataset(), &query.cancel)?;
            let bytes = evaluation.resident_bytes();
            Ok(HoldoutEntry { evaluation, bytes })
        })?;
        let counter = if cached {
            &self.counters.holdout_hits
        } else {
            &self.counters.holdout_misses
        };
        counter.fetch_add(1, Relaxed);
        Ok(holdout)
    }

    /// A snapshot of the cache state and hit counters.
    pub fn stats(&self) -> EngineStats {
        let mined = self.mined.lock().expect("mine cache lock");
        let table_bytes = mined
            .values()
            .filter_map(|cell| cell.get())
            .map(|e| e.tables_bytes())
            .sum();
        let rule_set_bytes = mined
            .values()
            .filter_map(|cell| cell.get())
            .map(|e| e.mined_bytes)
            .sum();
        let holdout_bytes = mined
            .values()
            .filter_map(|cell| cell.get())
            .map(|e| e.holdout_bytes())
            .sum();
        let nulls = self.nulls.lock().expect("null cache lock");
        let null_bytes = nulls
            .values()
            .filter_map(|cell| cell.get())
            .map(|e| e.stats.resident_bytes())
            .sum();
        EngineStats {
            queries: self.counters.queries.load(Relaxed),
            mine_hits: self.counters.mine_hits.load(Relaxed),
            mine_misses: self.counters.mine_misses.load(Relaxed),
            null_hits: self.counters.null_hits.load(Relaxed),
            null_misses: self.counters.null_misses.load(Relaxed),
            holdout_hits: self.counters.holdout_hits.load(Relaxed),
            holdout_misses: self.counters.holdout_misses.load(Relaxed),
            cancelled_queries: self.counters.cancelled_queries.load(Relaxed),
            cached_rule_sets: mined.len(),
            cached_nulls: nulls.len(),
            table_bytes,
            rule_set_bytes,
            null_bytes,
            holdout_bytes,
            evicted_rule_sets: self.counters.evicted_rule_sets.load(Relaxed),
            evicted_nulls: self.counters.evicted_nulls.load(Relaxed),
        }
    }

    /// Total approximate resident cache bytes (rule sets + tables + nulls +
    /// holdout evaluations) — what a byte-budget eviction policy bounds.
    /// Entries still being filled by a concurrent query are not counted
    /// (their size is unknown until the fill completes).
    pub fn cache_bytes(&self) -> usize {
        self.stats().resident_bytes()
    }

    /// The filled, evictable cache entries: kind, approximate bytes, and LRU
    /// stamp each.  Entries still being filled are skipped.
    pub fn cache_entries(&self) -> Vec<CacheEntry> {
        let mut entries = Vec::new();
        for cell in self.mined.lock().expect("mine cache lock").values() {
            if let Some(e) = cell.get() {
                entries.push(CacheEntry {
                    kind: CacheEntryKind::RuleSet,
                    bytes: e.bytes(),
                    last_used: e.last_used.load(Relaxed),
                });
            }
        }
        for cell in self.nulls.lock().expect("null cache lock").values() {
            if let Some(e) = cell.get() {
                entries.push(CacheEntry {
                    kind: CacheEntryKind::Null,
                    bytes: e.stats.resident_bytes(),
                    last_used: e.last_used.load(Relaxed),
                });
            }
        }
        entries
    }

    /// The LRU stamp of the least-recently-used filled cache entry, or
    /// `None` when nothing is evictable.
    pub fn lru_stamp(&self) -> Option<u64> {
        self.cache_entries().iter().map(|e| e.last_used).min()
    }

    /// Evicts the least-recently-used filled cache entry (a mined rule set —
    /// with its tables and holdout evaluations — or a permutation null) and
    /// returns what was dropped.  Queries holding an `Arc` to the evicted
    /// artifact keep it alive until they finish; a later identical query
    /// recomputes it, bit-identically (the caches never change semantics,
    /// only cost).
    pub fn evict_lru(&self) -> Option<CacheEntry> {
        // Decide between the LRU rule set and the LRU null under both locks,
        // so a concurrent toucher cannot slip between the choice and the
        // removal.
        let mut mined = self.mined.lock().expect("mine cache lock");
        let mut nulls = self.nulls.lock().expect("null cache lock");
        let lru_mine = mined
            .iter()
            .filter_map(|(k, cell)| cell.get().map(|e| (*k, e.last_used.load(Relaxed))))
            .min_by_key(|&(_, stamp)| stamp);
        let lru_null = nulls
            .iter()
            .filter_map(|(k, cell)| cell.get().map(|e| (*k, e.last_used.load(Relaxed))))
            .min_by_key(|&(_, stamp)| stamp);
        let mine_is_lru = match (lru_mine, lru_null) {
            (None, None) => return None,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some((_, m)), Some((_, n))) => m <= n,
        };
        let evicted = if mine_is_lru {
            let (key, stamp) = lru_mine.expect("checked above");
            let cell = mined.remove(&key).expect("key taken under the lock");
            let entry = cell.get().expect("filtered to filled cells");
            self.counters.evicted_rule_sets.fetch_add(1, Relaxed);
            CacheEntry {
                kind: CacheEntryKind::RuleSet,
                bytes: entry.bytes(),
                last_used: stamp,
            }
        } else {
            let (key, stamp) = lru_null.expect("checked above");
            let cell = nulls.remove(&key).expect("key taken under the lock");
            let entry = cell.get().expect("filtered to filled cells");
            self.counters.evicted_nulls.fetch_add(1, Relaxed);
            CacheEntry {
                kind: CacheEntryKind::Null,
                bytes: entry.stats.resident_bytes(),
                last_used: stamp,
            }
        };
        let kind = match evicted.kind {
            CacheEntryKind::RuleSet => "rule_set",
            CacheEntryKind::Null => "null",
        };
        sigrule_obs::log::debug(
            "sigrule::engine",
            "cache entry evicted",
            &[
                ("dataset", self.label.as_str().into()),
                ("kind", kind.into()),
                ("bytes", (evicted.bytes as u64).into()),
            ],
        );
        Some(evicted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigrule_synth::{SyntheticGenerator, SyntheticParams};

    fn synth(seed: u64) -> Dataset {
        let params = SyntheticParams::default()
            .with_records(300)
            .with_attributes(8)
            .with_rules(1)
            .with_coverage(80, 80)
            .with_confidence(0.9, 0.9);
        SyntheticGenerator::new(params).unwrap().generate(seed).0
    }

    fn perm_query(min_sup: usize) -> Query {
        Query::new(RuleMiningConfig::new(min_sup))
            .with_correction(CorrectionApproach::Permutation, ErrorMetric::Fwer)
            .with_permutations(40)
            .with_seed(11)
    }

    #[test]
    fn warm_queries_hit_every_cache() {
        let engine = Engine::new(synth(1));
        let cold = engine.query(&perm_query(30)).unwrap();
        assert!(!cold.mined_cached);
        assert_eq!(cold.null_cached, Some(false));

        // Different α: mined rules and null both cached.
        let warm = engine.query(&perm_query(30).with_alpha(0.01)).unwrap();
        assert!(warm.mined_cached);
        assert_eq!(warm.null_cached, Some(true));
        assert_eq!(warm.timings.mine, Duration::ZERO);
        assert_eq!(warm.timings.null, Duration::ZERO);

        // Different metric: still fully cached (one pass serves both).
        let fdr = engine
            .query(
                &perm_query(30).with_correction(CorrectionApproach::Permutation, ErrorMetric::Fdr),
            )
            .unwrap();
        assert_eq!(fdr.null_cached, Some(true));

        // Different seed: the null must be re-collected, the mine cache holds.
        let reseeded = engine.query(&perm_query(30).with_seed(99)).unwrap();
        assert!(reseeded.mined_cached);
        assert_eq!(reseeded.null_cached, Some(false));

        // Different mining config: everything cold again.
        let other = engine.query(&perm_query(40)).unwrap();
        assert!(!other.mined_cached);
        assert_eq!(other.null_cached, Some(false));

        let stats = engine.stats();
        assert_eq!(stats.queries, 5);
        assert_eq!(stats.cached_rule_sets, 2);
        assert_eq!(stats.cached_nulls, 3);
        assert_eq!(stats.mine_hits, 3);
        assert_eq!(stats.mine_misses, 2);
        assert_eq!(stats.null_hits, 2);
        assert_eq!(stats.null_misses, 3);
        assert!(stats.table_bytes > 0);
    }

    #[test]
    fn warm_results_are_bit_identical_to_pipeline_runs() {
        let dataset = synth(2);
        let engine = Engine::new(dataset.clone());
        for (approach, metric) in [
            (CorrectionApproach::None, ErrorMetric::Fwer),
            (CorrectionApproach::Direct, ErrorMetric::Fwer),
            (CorrectionApproach::Direct, ErrorMetric::Fdr),
            (CorrectionApproach::Permutation, ErrorMetric::Fwer),
            (CorrectionApproach::Permutation, ErrorMetric::Fdr),
            (CorrectionApproach::Holdout, ErrorMetric::Fwer),
            (CorrectionApproach::Holdout, ErrorMetric::Fdr),
        ] {
            for alpha in [0.05, 0.01] {
                let query = Query::new(RuleMiningConfig::new(30))
                    .with_correction(approach, metric)
                    .with_permutations(40)
                    .with_seed(7)
                    .with_alpha(alpha);
                let warm = engine.query(&query).unwrap();
                // The one-shot run: a fresh engine answering one query.
                let one_shot = Engine::new(dataset.clone()).query(&query).unwrap();
                assert_eq!(
                    warm.result, one_shot.result,
                    "{approach:?}/{metric:?}@{alpha}"
                );
            }
        }
    }

    #[test]
    fn pinned_threads_match_default_pool_through_the_cache() {
        let engine = Engine::new(synth(3));
        let default_pool = engine.query(&perm_query(30)).unwrap();
        // Fresh engine so the second run is cold too, but pinned.
        let pinned_engine = Engine::new(synth(3));
        let pinned = pinned_engine
            .query(&perm_query(30).with_threads(2))
            .unwrap();
        assert_eq!(default_pool.result, pinned.result);
    }

    #[test]
    fn invalid_queries_are_rejected() {
        let engine = Engine::new(synth(4));
        let mut threadless = Query::new(RuleMiningConfig::new(10));
        threadless.threads = Some(0);
        for invalid in [
            Query::new(RuleMiningConfig::new(0)),
            Query::new(RuleMiningConfig::new(10)).with_alpha(0.0),
            Query::new(RuleMiningConfig::new(10)).with_alpha(1.5),
            perm_query(10).with_permutations(0),
            perm_query(10).with_permutations(MAX_PERMUTATIONS + 1),
            perm_query(10).with_permutations(usize::MAX),
            threadless,
        ] {
            assert!(matches!(invalid.validate(), Err(PipelineError::Config(_))));
            assert!(matches!(
                engine.query(&invalid),
                Err(PipelineError::Config(_))
            ));
        }
        assert_eq!(engine.stats().queries, 0, "rejected before counting");
        // The bound itself is a valid count (validated only, never run).
        assert!(perm_query(10)
            .with_permutations(MAX_PERMUTATIONS)
            .validate()
            .is_ok());
        // A count is only bounded where a null is collected.
        assert!(Query::new(RuleMiningConfig::new(10))
            .with_permutations(usize::MAX)
            .validate()
            .is_ok());
    }

    #[test]
    fn lru_eviction_drops_entries_and_requeries_recompute_bit_identically() {
        let engine = Engine::new(synth(7));
        let first = engine.query(&perm_query(30)).unwrap();
        engine.query(&perm_query(40)).unwrap();
        // Touch the min_sup=30 entries again so min_sup=40 is the LRU pair.
        engine.query(&perm_query(30).with_alpha(0.01)).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.cached_rule_sets, 2);
        assert_eq!(stats.cached_nulls, 2);
        assert!(stats.rule_set_bytes > 0);
        assert!(stats.null_bytes > 0);
        assert!(stats.resident_bytes() >= stats.table_bytes + stats.null_bytes);

        // Strict LRU: the min_sup=40 rule set (stamped before its null) goes
        // first, then the min_sup=40 null; the warm entries survive.
        let evicted = engine.evict_lru().expect("something to evict");
        assert_eq!(evicted.kind, CacheEntryKind::RuleSet);
        assert!(evicted.bytes > 0);
        let evicted = engine.evict_lru().expect("something to evict");
        assert_eq!(evicted.kind, CacheEntryKind::Null);
        let warm = engine.query(&perm_query(30)).unwrap();
        assert!(warm.mined_cached);
        assert_eq!(warm.null_cached, Some(true));

        // Drain the rest; the caches empty out and account zero bytes.
        while engine.evict_lru().is_some() {}
        let empty = engine.stats();
        assert_eq!(empty.cached_rule_sets, 0);
        assert_eq!(empty.cached_nulls, 0);
        assert_eq!(empty.resident_bytes(), 0);
        assert_eq!(empty.evicted_rule_sets, 2);
        assert_eq!(empty.evicted_nulls, 2);

        // A re-query after total eviction recomputes, bit-identically.
        let recomputed = engine.query(&perm_query(30)).unwrap();
        assert!(!recomputed.mined_cached);
        assert_eq!(recomputed.null_cached, Some(false));
        assert_eq!(recomputed.result, first.result);
    }

    #[test]
    fn shared_clock_orders_entries_across_engines() {
        let clock = Arc::new(AtomicU64::new(0));
        let mut a = Engine::new(synth(8));
        let mut b = Engine::new(synth(9));
        a.set_clock(clock.clone());
        b.set_clock(clock.clone());
        a.query(&perm_query(30)).unwrap();
        b.query(&perm_query(30)).unwrap();
        // Every stamp came from the one shared clock, so the cross-engine
        // LRU order is total: all of a's stamps precede b's.
        let max_a = a.cache_entries().iter().map(|e| e.last_used).max();
        let min_b = b.lru_stamp();
        assert!(max_a.unwrap() < min_b.unwrap());
    }

    #[test]
    fn loader_round_trips_formats() {
        let dataset = synth(5);
        let csv = sigrule_data::loader::dataset_to_csv(&dataset);
        let loaded = Loader::default().load_csv_str(&csv).unwrap();
        assert_eq!(loaded.format, InputFormat::Rows);
        assert_eq!(loaded.dataset.n_records(), dataset.n_records());
        let engine = loaded.into_engine();
        assert!(engine.load_time() > Duration::ZERO);
        assert!(engine.warnings().is_empty());
    }

    #[test]
    fn from_shared_matches_new_without_copying() {
        let dataset = synth(6);
        let shared = SharedDataset::new(dataset.clone());
        let query = perm_query(30).with_seed(9);
        let from_shared = Engine::from_shared(shared.clone()).query(&query).unwrap();
        let from_dataset = Engine::new(dataset).query(&query).unwrap();
        assert_eq!(from_shared.result, from_dataset.result);
        // The shared handle's lazily built vertical view was used (and is
        // reusable by the next engine).
        assert!(shared.vertical_is_built());
        assert!(Arc::ptr_eq(
            Engine::from_shared(shared.clone()).dataset(),
            shared.dataset()
        ));
    }

    #[test]
    fn cancelled_cold_query_leaves_caches_cold_and_retry_is_bit_identical() {
        use crate::cancel::{CancelReason, CancelToken};
        let reference = Engine::new(synth(10)).query(&perm_query(30)).unwrap();

        // An already-expired deadline aborts before any cache fill.
        let engine = Engine::new(synth(10));
        let expired = perm_query(30).with_cancel(CancelToken::with_deadline(Duration::ZERO));
        match engine.query(&expired) {
            Err(PipelineError::Cancelled(c)) => {
                assert_eq!(c.reason, CancelReason::DeadlineExceeded)
            }
            other => panic!("expected cancellation, got {other:?}"),
        }
        let stats = engine.stats();
        assert_eq!(stats.queries, 1);
        assert_eq!(stats.cancelled_queries, 1);
        assert_eq!(stats.resident_bytes(), 0, "aborted fill left residue");

        // An explicitly pre-cancelled token aborts the same way.
        let token = CancelToken::new();
        token.cancel();
        match engine.query(&perm_query(30).with_cancel(token)) {
            Err(PipelineError::Cancelled(c)) => {
                assert_eq!(c.reason, CancelReason::Cancelled)
            }
            other => panic!("expected cancellation, got {other:?}"),
        }

        // The retry is cold (the caches stayed cold) and bit-identical.
        let retry = engine.query(&perm_query(30)).unwrap();
        assert!(!retry.mined_cached);
        assert_eq!(retry.null_cached, Some(false));
        assert_eq!(retry.result, reference.result);
        assert_eq!(engine.stats().cancelled_queries, 2);
    }

    #[test]
    fn fill_cell_aborted_fills_revert_to_empty() {
        let cell = FillCell::<usize>::default();
        // An erroring fill leaves the cell empty.
        assert!(cell
            .get_or_fill(|| -> Result<usize, &'static str> { Err("cancelled") })
            .is_err());
        assert!(cell.get().is_none());
        // A panicking fill (an injected fault) leaves the cell empty too.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cell.get_or_fill(|| -> Result<usize, &'static str> { panic!("boom") });
        }));
        assert!(panicked.is_err());
        assert!(cell.get().is_none());
        // A later fill succeeds and sticks.
        let (v, cached) = cell
            .get_or_fill(|| -> Result<usize, &'static str> { Ok(7) })
            .unwrap();
        assert_eq!((*v, cached), (7, false));
        let (v, cached) = cell
            .get_or_fill(|| -> Result<usize, &'static str> { Ok(9) })
            .unwrap();
        assert_eq!((*v, cached), (7, true), "second fill is a hit");
    }

    #[test]
    fn fill_cell_waiter_takes_over_an_aborted_fill() {
        let cell = Arc::new(FillCell::<usize>::default());
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (abort_tx, abort_rx) = std::sync::mpsc::channel::<()>();
        let aborter = {
            let cell = cell.clone();
            std::thread::spawn(move || {
                cell.get_or_fill(|| -> Result<usize, &'static str> {
                    started_tx.send(()).unwrap();
                    abort_rx.recv().unwrap();
                    Err("cancelled")
                })
            })
        };
        started_rx.recv().unwrap();
        let waiter = {
            let cell = cell.clone();
            std::thread::spawn(move || {
                cell.get_or_fill(|| -> Result<usize, &'static str> { Ok(42) })
            })
        };
        // Let the waiter block on the in-progress fill, then abort it.
        std::thread::sleep(Duration::from_millis(20));
        abort_tx.send(()).unwrap();
        assert!(aborter.join().unwrap().is_err());
        let (v, cached) = waiter.join().unwrap().unwrap();
        assert_eq!((*v, cached), (42, false), "waiter took the fill over");
    }

    #[test]
    fn fill_null_with_primes_the_cache_a_query_then_hits() {
        use crate::correction::permutation::{PermutationCorrection, PermutationStats};
        let engine = Engine::new(synth(11));
        let mining = RuleMiningConfig::new(30);
        // Pour a scatter/merge null (two ranges, merged out of order) into
        // the cache slot the equivalent query would fill.
        let (_stats, cached) = engine
            .fill_null_with(
                &mining,
                150,
                11,
                &CancelToken::none(),
                |mined, tables, cancel| {
                    let c = PermutationCorrection::new(150).with_seed(11);
                    let head = c.collect_stats_range(mined, Some(tables), cancel, 0, 128)?;
                    let tail = c.collect_stats_range(mined, Some(tables), cancel, 128, 150)?;
                    Ok(PermutationStats::merge(&[tail, head]).expect("complete tiling"))
                },
            )
            .unwrap();
        assert!(!cached);

        // The matching query hits the primed null and answers exactly what a
        // purely local engine answers.
        let query = perm_query(30).with_permutations(150);
        let warm = engine.query(&query).unwrap();
        assert_eq!(warm.null_cached, Some(true));
        let reference = Engine::new(synth(11)).query(&query).unwrap();
        assert_eq!(warm.result, reference.result);

        // A second fill is a hit: the collector must not run.
        let (_, cached) = engine
            .fill_null_with(&mining, 150, 11, &CancelToken::none(), |_, _, _| {
                panic!("collector must not run on a cache hit")
            })
            .unwrap();
        assert!(cached);
    }

    #[test]
    fn concurrent_queries_share_one_engine() {
        let engine = Arc::new(Engine::new(synth(6)));
        let reference = engine.query(&perm_query(30)).unwrap();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let engine = engine.clone();
                std::thread::spawn(move || {
                    engine
                        .query(&perm_query(30).with_alpha(0.01 + 0.01 * i as f64))
                        .unwrap()
                })
            })
            .collect();
        for h in handles {
            let outcome = h.join().unwrap();
            assert!(outcome.mined_cached);
            assert_eq!(outcome.null_cached, Some(true));
            assert_eq!(outcome.result.n_tests, reference.result.n_tests);
        }
    }
}
