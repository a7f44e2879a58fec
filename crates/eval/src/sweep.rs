//! The `sigrule eval` sweep harness: planted-truth benchmarking over a
//! parameter grid (the paper's Table 2 story, automated).
//!
//! A [`SweepGrid`] describes a cartesian product of dataset axes
//! (rows × noise × planted-rule count × planted coverage) and query axes
//! (correction approach × α), replicated `reps` times with deterministic
//! per-cell seeds.  A [`SweepRunner`] generates each dataset once, wraps it
//! in a resident [`Engine`], submits every (correction, α) combination as a
//! query batch — so combinations sharing a mining configuration reuse the
//! mined rule set and permutation corrections sharing a seed reuse the null —
//! and scores each outcome against the planted [`EmbeddedRule`] ground truth
//! with [`score_result`].
//!
//! Determinism: per-dataset seeds are a pure function of the base seed and
//! the dataset axes (the correction and α deliberately do **not** enter, so
//! every query on a cell sees the same dataset), rep fan-out preserves order,
//! and the permutation engine is bit-identical across thread counts; the
//! rendered [`Table`] therefore never changes across `--threads` values or
//! warm/cold cache states.

use crate::ground_truth::{resolve_truth, score_result};
use crate::metrics::{AggregateMetrics, DatasetMetrics};
use crate::report::{fmt_float, Table};
use rayon::prelude::*;
use sigrule::correction::permutation::MAX_PERMUTATIONS;
use sigrule::engine::{Engine, Query};
use sigrule::{CorrectionApproach, ErrorMetric, PipelineError, RuleMiningConfig};
use sigrule_synth::{
    BasketGenerator, BasketParams, EmbeddedRule, SyntheticGenerator, SyntheticParams,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Which synthetic workload the sweep generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Workload {
    /// Attribute/value rows (the paper's Table 1 generator).
    #[default]
    Rows,
    /// Market-basket transactions with a Zipf item distribution.
    Basket,
}

impl Workload {
    /// CLI-facing name.
    pub fn label(&self) -> &'static str {
        match self {
            Workload::Rows => "rows",
            Workload::Basket => "basket",
        }
    }

    /// Parses a CLI workload name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        match name.to_ascii_lowercase().as_str() {
            "rows" => Ok(Workload::Rows),
            "basket" => Ok(Workload::Basket),
            other => Err(format!("workload must be rows or basket (got {other:?})")),
        }
    }
}

/// One correction approach + error metric combination on the query axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorrectionSpec {
    /// The correction approach.
    pub approach: CorrectionApproach,
    /// The error metric it targets.
    pub metric: ErrorMetric,
}

impl CorrectionSpec {
    /// Parses `name` or `name:metric` (e.g. `direct:fdr`) through the shared
    /// front-end rules ([`CorrectionApproach::resolve`]).
    pub fn parse(spec: &str) -> Result<CorrectionSpec, String> {
        let (name, metric) = match spec.split_once(':') {
            Some((n, m)) => (n, Some(m)),
            None => (spec, None),
        };
        let (approach, metric) = CorrectionApproach::resolve(Some(name), metric)?;
        Ok(CorrectionSpec { approach, metric })
    }

    /// Parses a comma-separated list of correction specs.
    pub fn parse_list(list: &str) -> Result<Vec<CorrectionSpec>, String> {
        let specs: Vec<CorrectionSpec> = list
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|s| CorrectionSpec::parse(s.trim()))
            .collect::<Result<_, _>>()?;
        if specs.is_empty() {
            return Err("the correction list is empty".into());
        }
        Ok(specs)
    }

    /// Display label, e.g. `direct` or `direct:fdr`.
    pub fn label(&self) -> String {
        self.approach.label().to_string()
    }
}

/// The full parameter grid of one sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    /// Synthetic workload to generate.
    pub workload: Workload,
    /// Dataset sizes (records / transactions).
    pub rows: Vec<usize>,
    /// Noise levels in `[0, 1]`; planted rules get confidence `1 − noise`.
    pub noise: Vec<f64>,
    /// Planted-rule counts (0 = pure noise).
    pub rules: Vec<usize>,
    /// Planted-rule coverage as a fraction of the rows.
    pub coverage: Vec<f64>,
    /// Significance levels α.
    pub alphas: Vec<f64>,
    /// Correction approaches to compare.
    pub corrections: Vec<CorrectionSpec>,
    /// Replicates per cell (each with its own seeded dataset).
    pub reps: usize,
    /// Base seed every per-cell seed is derived from.
    pub seed: u64,
    /// Permutation count for permutation corrections.
    pub permutations: usize,
    /// Attribute count of the rows workload.
    pub attributes: usize,
    /// Item-catalogue size of the basket workload.
    pub items: usize,
    /// Minimum support as a fraction of the rows.
    pub min_sup_frac: f64,
}

impl Default for SweepGrid {
    fn default() -> Self {
        SweepGrid {
            workload: Workload::Rows,
            rows: vec![1000],
            noise: vec![0.2],
            rules: vec![2],
            coverage: vec![0.15],
            alphas: vec![0.05],
            corrections: vec![
                CorrectionSpec {
                    approach: CorrectionApproach::None,
                    metric: ErrorMetric::Fwer,
                },
                CorrectionSpec {
                    approach: CorrectionApproach::Direct,
                    metric: ErrorMetric::Fwer,
                },
                CorrectionSpec {
                    approach: CorrectionApproach::Permutation,
                    metric: ErrorMetric::Fwer,
                },
            ],
            reps: 3,
            seed: 42,
            permutations: 300,
            attributes: 12,
            items: 60,
            min_sup_frac: 0.05,
        }
    }
}

impl SweepGrid {
    /// Applies one `key=v1,v2,...` axis specification (the `--grid` syntax).
    /// Axes: `rows`, `noise`, `rules`, `coverage`, `alpha`.
    pub fn apply_axis(&mut self, spec: &str) -> Result<(), String> {
        let (key, values) = spec
            .split_once('=')
            .ok_or_else(|| format!("grid axis {spec:?} is not of the form key=v1,v2,..."))?;
        fn list<T: std::str::FromStr>(key: &str, values: &str) -> Result<Vec<T>, String> {
            let parsed: Vec<T> = values
                .split(',')
                .filter(|v| !v.trim().is_empty())
                .map(|v| {
                    v.trim()
                        .parse::<T>()
                        .map_err(|_| format!("grid axis {key}: cannot parse {v:?}"))
                })
                .collect::<Result<_, _>>()?;
            if parsed.is_empty() {
                return Err(format!("grid axis {key} has no values"));
            }
            Ok(parsed)
        }
        match key.trim() {
            "rows" => self.rows = list(key, values)?,
            "noise" => self.noise = list(key, values)?,
            "rules" => self.rules = list(key, values)?,
            "coverage" => self.coverage = list(key, values)?,
            "alpha" => self.alphas = list(key, values)?,
            other => {
                return Err(format!(
                    "unknown grid axis {other:?} (expected rows, noise, rules, coverage or alpha)"
                ))
            }
        }
        Ok(())
    }

    /// Checks the grid for contradictions before running.
    pub fn validate(&self) -> Result<(), String> {
        if self.rows.is_empty()
            || self.noise.is_empty()
            || self.rules.is_empty()
            || self.coverage.is_empty()
            || self.alphas.is_empty()
            || self.corrections.is_empty()
        {
            return Err("every grid axis needs at least one value".into());
        }
        if self.reps == 0 {
            return Err("reps must be at least 1".into());
        }
        if let Some(r) = self.rows.iter().find(|&&r| r < 20) {
            return Err(format!("rows={r} is too small (need at least 20)"));
        }
        if let Some(x) = self.noise.iter().find(|x| !(0.0..=1.0).contains(*x)) {
            return Err(format!("noise={x} must be in [0, 1]"));
        }
        if let Some(x) = self.coverage.iter().find(|x| !(0.0..=1.0).contains(*x)) {
            return Err(format!("coverage={x} must be in (0, 1]"));
        }
        if let Some(a) = self.alphas.iter().find(|a| !(0.0..=1.0).contains(*a)) {
            return Err(format!("alpha={a} must be in (0, 1]"));
        }
        if !(0.0 < self.min_sup_frac && self.min_sup_frac < 1.0) {
            return Err(format!(
                "min_sup_frac={} must be in (0, 1)",
                self.min_sup_frac
            ));
        }
        let plants_rules = self.rules.iter().any(|&n| n > 0);
        if plants_rules {
            if let Some(c) = self.coverage.iter().find(|&&c| c < self.min_sup_frac) {
                return Err(format!(
                    "planted coverage {c} is below min_sup_frac {}: the planted rules \
                     could never be mined",
                    self.min_sup_frac
                ));
            }
        }
        let needs_null = self
            .corrections
            .iter()
            .any(|c| c.approach == CorrectionApproach::Permutation);
        if needs_null && !(1..=MAX_PERMUTATIONS).contains(&self.permutations) {
            return Err(format!(
                "the permutation approach needs 1 to {MAX_PERMUTATIONS} permutations"
            ));
        }
        Ok(())
    }

    /// Number of result cells (dataset-axis combinations × corrections × α).
    pub fn n_cells(&self) -> usize {
        self.rows.len()
            * self.noise.len()
            * self.rules.len()
            * self.coverage.len()
            * self.corrections.len()
            * self.alphas.len()
    }

    /// Number of datasets generated (dataset-axis combinations × reps).
    pub fn n_datasets(&self) -> usize {
        self.rows.len() * self.noise.len() * self.rules.len() * self.coverage.len() * self.reps
    }

    /// Number of engine queries submitted.
    pub fn n_queries(&self) -> usize {
        self.n_datasets() * self.corrections.len() * self.alphas.len()
    }

    /// The effective minimum support for a dataset of `rows` records.
    fn min_sup(&self, rows: usize) -> usize {
        ((self.min_sup_frac * rows as f64).round() as usize).max(2)
    }

    /// The dataset-axis combinations, in deterministic sweep order.
    fn dataset_axes(&self) -> Vec<DatasetAxes> {
        let mut axes = Vec::new();
        for &rows in &self.rows {
            for &noise in &self.noise {
                for &n_rules in &self.rules {
                    for &coverage in &self.coverage {
                        axes.push(DatasetAxes {
                            rows,
                            noise,
                            n_rules,
                            coverage,
                        });
                    }
                }
            }
        }
        axes
    }
}

/// One combination of the dataset axes (α and the correction excluded: they
/// never change the dataset).
#[derive(Debug, Clone, Copy, PartialEq)]
struct DatasetAxes {
    rows: usize,
    noise: f64,
    n_rules: usize,
    coverage: f64,
}

impl DatasetAxes {
    /// The deterministic seed of replicate `rep` of this cell: a splitmix64
    /// chain over the base seed and the dataset axes.  The correction and α
    /// are deliberately excluded so every query on the cell shares one
    /// dataset (and therefore one engine, one mined rule set and one
    /// permutation null).
    fn seed(&self, workload: Workload, base: u64, rep: usize) -> u64 {
        let mut s = base;
        for component in [
            workload as u64,
            self.rows as u64,
            self.noise.to_bits(),
            self.n_rules as u64,
            self.coverage.to_bits(),
            rep as u64,
        ] {
            s = splitmix(s ^ component);
        }
        s
    }

    /// Planted coverage in records.
    fn coverage_records(&self) -> usize {
        ((self.coverage * self.rows as f64).round() as usize).clamp(1, self.rows)
    }
}

/// The splitmix64 finalizer: a cheap, well-mixed hash for seed derivation.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// A sweep failure: a bad grid, a generator rejection, or a pipeline error.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// The grid or a generator parameter set is invalid.
    Grid(String),
    /// A query against the engine failed.
    Pipeline(PipelineError),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Grid(msg) => write!(f, "{msg}"),
            SweepError::Pipeline(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// One result cell: a dataset-axis combination × correction × α, aggregated
/// over the replicates.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Dataset size.
    pub rows: usize,
    /// Noise level (planted confidence = `1 − noise`).
    pub noise: f64,
    /// Planted-rule count.
    pub n_rules: usize,
    /// Planted coverage fraction.
    pub coverage: f64,
    /// The correction approach + metric.
    pub correction: CorrectionSpec,
    /// Significance level α.
    pub alpha: f64,
    /// Per-replicate metrics, in rep order.
    pub rep_metrics: Vec<DatasetMetrics>,
    /// Aggregate over the replicates (FWER = fraction of replicates with ≥ 1
    /// false positive; power = planted-rule recall).
    pub metrics: AggregateMetrics,
}

impl SweepCell {
    /// Planted-rule recall: mean fraction of planted rules detected.
    pub fn recall(&self) -> f64 {
        self.metrics.power
    }

    /// Total false positives across the replicates.
    pub fn total_false_positives(&self) -> usize {
        self.rep_metrics.iter().map(|m| m.n_false_positives).sum()
    }
}

/// How often the engine caches answered during a sweep.  Informational only:
/// deliberately **not** part of the rendered table, because a warm rerun must
/// stay bit-identical to a cold one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheReuse {
    /// Queries answered.
    pub queries: usize,
    /// Queries whose mined rule set came from the cache.
    pub mined_hits: usize,
    /// Queries whose permutation null came from the cache.
    pub null_hits: usize,
    /// Wall-clock time spent collecting permutation nulls (zero on cache
    /// hits), summed over all queries of the sweep.
    pub null_time: std::time::Duration,
}

/// The outcome of one sweep: every cell in deterministic grid order
/// (rows → noise → rules → coverage → correction → α).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// The workload that was generated.
    pub workload: Workload,
    /// Result cells.
    pub cells: Vec<SweepCell>,
    /// Replicates per cell.
    pub reps: usize,
    /// Engine cache reuse during this run (not rendered).
    pub cache: CacheReuse,
}

impl SweepReport {
    /// Renders the cells as a [`Table`] (deterministic: fixed column set,
    /// fixed float formatting, no timings or cache counters).
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(
            "sigrule eval: planted-truth sweep (recall / false positives / empirical error)",
            vec![
                "workload",
                "rows",
                "noise",
                "rules",
                "coverage",
                "correction",
                "metric",
                "alpha",
                "reps",
                "mean_significant",
                "mean_fp",
                "recall",
                "fwer",
                "fdr",
            ],
        );
        for cell in &self.cells {
            table.push_row(vec![
                self.workload.label().to_string(),
                cell.rows.to_string(),
                cell.noise.to_string(),
                cell.n_rules.to_string(),
                cell.coverage.to_string(),
                cell.correction.label(),
                cell.correction.metric.label().to_string(),
                cell.alpha.to_string(),
                self.reps.to_string(),
                fmt_float(cell.metrics.mean_significant),
                fmt_float(cell.metrics.mean_false_positives),
                fmt_float(cell.recall()),
                fmt_float(cell.metrics.fwer),
                fmt_float(cell.metrics.fdr),
            ]);
        }
        table
    }
}

/// Per-dataset result inside a sweep: one metrics entry per (correction, α)
/// query, plus the cache flags of the outcomes.
struct DatasetRun {
    metrics: Vec<DatasetMetrics>,
    mined_hits: usize,
    null_hits: usize,
    null_time: std::time::Duration,
}

/// A resident engine and the ground truth of the dataset it serves.
type EngineEntry = (Arc<Engine>, Arc<Vec<EmbeddedRule>>);

/// Runs sweeps, keeping one resident [`Engine`] per generated dataset so a
/// rerun of the same grid (or an overlapping one) is warm.
#[derive(Default)]
pub struct SweepRunner {
    engines: Mutex<HashMap<EngineKey, EngineEntry>>,
}

/// Identity of a generated dataset: workload + dataset axes + seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct EngineKey {
    workload: Workload,
    rows: usize,
    noise_bits: u64,
    n_rules: usize,
    coverage_bits: u64,
    seed: u64,
}

impl SweepRunner {
    /// Creates a runner with an empty engine cache.
    pub fn new() -> Self {
        SweepRunner::default()
    }

    /// Number of resident engines (generated datasets) held.
    pub fn n_engines(&self) -> usize {
        self.engines.lock().expect("engine cache lock").len()
    }

    /// Runs one sweep, fanning the datasets out over the current rayon pool.
    /// The result is bit-identical regardless of thread count and of how warm
    /// this runner's engines are.
    pub fn run(&self, grid: &SweepGrid) -> Result<SweepReport, SweepError> {
        grid.validate().map_err(SweepError::Grid)?;
        let axes = grid.dataset_axes();
        let specs: Vec<(DatasetAxes, usize)> = axes
            .iter()
            .flat_map(|&a| (0..grid.reps).map(move |rep| (a, rep)))
            .collect();

        let runs: Vec<Result<DatasetRun, SweepError>> = specs
            .par_iter()
            .map(|&(a, rep)| self.run_dataset(grid, a, rep))
            .collect();
        let mut per_dataset = Vec::with_capacity(runs.len());
        let mut cache = CacheReuse::default();
        for run in runs {
            let run = run?;
            cache.queries += run.metrics.len();
            cache.mined_hits += run.mined_hits;
            cache.null_hits += run.null_hits;
            cache.null_time += run.null_time;
            per_dataset.push(run.metrics);
        }

        let n_queries = grid.corrections.len() * grid.alphas.len();
        let mut cells = Vec::with_capacity(grid.n_cells());
        for (axis_idx, a) in axes.iter().enumerate() {
            for (query_idx, (correction, &alpha)) in grid
                .corrections
                .iter()
                .flat_map(|c| grid.alphas.iter().map(move |alpha| (c, alpha)))
                .enumerate()
            {
                let rep_metrics: Vec<DatasetMetrics> = (0..grid.reps)
                    .map(|rep| per_dataset[axis_idx * grid.reps + rep][query_idx])
                    .collect();
                let metrics = AggregateMetrics::from_datasets(&rep_metrics);
                cells.push(SweepCell {
                    rows: a.rows,
                    noise: a.noise,
                    n_rules: a.n_rules,
                    coverage: a.coverage,
                    correction: *correction,
                    alpha,
                    rep_metrics,
                    metrics,
                });
            }
            debug_assert_eq!(n_queries, cells.len() - axis_idx * n_queries);
        }

        Ok(SweepReport {
            workload: grid.workload,
            cells,
            reps: grid.reps,
            cache,
        })
    }

    /// Runs every (correction, α) query on one generated dataset.
    fn run_dataset(
        &self,
        grid: &SweepGrid,
        axes: DatasetAxes,
        rep: usize,
    ) -> Result<DatasetRun, SweepError> {
        let (engine, truth) = self.engine_for(grid, axes, rep)?;
        let mining = RuleMiningConfig::new(grid.min_sup(axes.rows));
        let seed = axes.seed(grid.workload, grid.seed, rep);
        let queries: Vec<Query> = grid
            .corrections
            .iter()
            .flat_map(|c| {
                let mining = mining.clone();
                grid.alphas.iter().map(move |&alpha| {
                    Query::new(mining.clone())
                        .with_correction(c.approach, c.metric)
                        .with_alpha(alpha)
                        .with_permutations(grid.permutations)
                        .with_seed(seed)
                })
            })
            .collect();
        let outcomes = engine.query_many(&queries).map_err(SweepError::Pipeline)?;
        let metrics = outcomes
            .iter()
            .map(|o| score_result(engine.dataset(), &truth, &o.result))
            .collect();
        Ok(DatasetRun {
            metrics,
            mined_hits: outcomes.iter().filter(|o| o.mined_cached).count(),
            null_hits: outcomes
                .iter()
                .filter(|o| o.null_cached == Some(true))
                .count(),
            null_time: outcomes.iter().map(|o| o.timings.null).sum(),
        })
    }

    /// The resident engine + resolved ground truth of one dataset cell,
    /// generating it on first use.
    fn engine_for(
        &self,
        grid: &SweepGrid,
        axes: DatasetAxes,
        rep: usize,
    ) -> Result<(Arc<Engine>, Arc<Vec<EmbeddedRule>>), SweepError> {
        let seed = axes.seed(grid.workload, grid.seed, rep);
        let key = EngineKey {
            workload: grid.workload,
            rows: axes.rows,
            noise_bits: axes.noise.to_bits(),
            n_rules: axes.n_rules,
            coverage_bits: axes.coverage.to_bits(),
            seed,
        };
        if let Some(found) = self.engines.lock().expect("engine cache lock").get(&key) {
            return Ok(found.clone());
        }
        // Generate outside the lock: cells are distinct, so no work is
        // duplicated within one run.
        let (dataset, truth) = generate(grid, axes, seed)?;
        let truth = resolve_truth(dataset.item_space(), dataset.item_space(), &truth)
            .map_err(|e| SweepError::Grid(e.to_string()))?;
        let entry = (Arc::new(Engine::new(dataset)), Arc::new(truth));
        Ok(self
            .engines
            .lock()
            .expect("engine cache lock")
            .entry(key)
            .or_insert(entry)
            .clone())
    }
}

/// Generates one dataset cell.  Noise maps to planted confidence `1 − noise`
/// (for 0-rule cells the data is pure noise regardless of the level).
fn generate(
    grid: &SweepGrid,
    axes: DatasetAxes,
    seed: u64,
) -> Result<(sigrule_data::Dataset, Vec<EmbeddedRule>), SweepError> {
    let confidence = (1.0 - axes.noise).clamp(0.0, 1.0);
    let coverage = axes.coverage_records();
    match grid.workload {
        Workload::Rows => {
            let mut params = SyntheticParams::default()
                .with_records(axes.rows)
                .with_attributes(grid.attributes)
                .with_rules(axes.n_rules)
                .with_coverage(coverage, coverage)
                .with_confidence(confidence, confidence);
            // Short planted rules: their closures stay minable and the §5.2
            // by-product accounting stays well-behaved.
            params.min_length = 2;
            params.max_length = 3;
            SyntheticGenerator::new(params)
                .map_err(SweepError::Grid)
                .map(|g| g.generate(seed))
        }
        Workload::Basket => {
            let params = BasketParams::default()
                .with_transactions(axes.rows)
                .with_items(grid.items)
                .with_rules(axes.n_rules)
                .with_coverage(coverage, coverage)
                .with_confidence(confidence, confidence);
            BasketGenerator::new(params)
                .map_err(SweepError::Grid)
                .map(|g| g.generate(seed))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_grid() -> SweepGrid {
        SweepGrid {
            rows: vec![200],
            noise: vec![0.1],
            rules: vec![1],
            coverage: vec![0.25],
            alphas: vec![0.05],
            corrections: vec![
                CorrectionSpec {
                    approach: CorrectionApproach::None,
                    metric: ErrorMetric::Fwer,
                },
                CorrectionSpec {
                    approach: CorrectionApproach::Permutation,
                    metric: ErrorMetric::Fwer,
                },
            ],
            reps: 2,
            seed: 7,
            permutations: 30,
            attributes: 8,
            min_sup_frac: 0.08,
            ..SweepGrid::default()
        }
    }

    #[test]
    fn grid_axis_parsing() {
        let mut grid = SweepGrid::default();
        grid.apply_axis("rows=500,2000").unwrap();
        assert_eq!(grid.rows, vec![500, 2000]);
        grid.apply_axis("noise=0.1, 0.3").unwrap();
        assert_eq!(grid.noise, vec![0.1, 0.3]);
        grid.apply_axis("alpha=0.01,0.05").unwrap();
        assert_eq!(grid.alphas, vec![0.01, 0.05]);
        assert!(grid.apply_axis("bogus=1").is_err());
        assert!(grid.apply_axis("rows").is_err());
        assert!(grid.apply_axis("rows=abc").is_err());
        // rows × noise × rules × coverage × corrections × alphas
        assert_eq!(grid.n_cells(), 2 * 2 * 3 * 2);
    }

    #[test]
    fn grid_validation_catches_contradictions() {
        let grid = SweepGrid {
            noise: vec![1.5],
            ..SweepGrid::default()
        };
        assert!(grid.validate().is_err());
        let grid = SweepGrid {
            reps: 0,
            ..SweepGrid::default()
        };
        assert!(grid.validate().is_err());
        let mut grid = SweepGrid {
            coverage: vec![0.01], // below min_sup_frac with planted rules
            ..SweepGrid::default()
        };
        assert!(grid.validate().is_err());
        grid.rules = vec![0]; // ...but fine when nothing is planted
        assert!(grid.validate().is_ok());
        let grid = SweepGrid {
            permutations: 0,
            ..SweepGrid::default()
        };
        assert!(grid.validate().is_err());
    }

    #[test]
    fn correction_spec_parsing() {
        let specs = CorrectionSpec::parse_list("none,direct,permutation").unwrap();
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[0].approach, CorrectionApproach::None);
        assert_eq!(specs[1].metric, ErrorMetric::Fwer);
        let spec = CorrectionSpec::parse("bh").unwrap();
        assert_eq!(spec.approach, CorrectionApproach::Direct);
        assert_eq!(spec.metric, ErrorMetric::Fdr);
        let spec = CorrectionSpec::parse("direct:fdr").unwrap();
        assert_eq!(spec.metric, ErrorMetric::Fdr);
        assert!(CorrectionSpec::parse("bonferroni:fdr").is_err());
        assert!(CorrectionSpec::parse_list("").is_err());
    }

    #[test]
    fn sweep_runs_and_orders_cells_deterministically() {
        let grid = small_grid();
        let runner = SweepRunner::new();
        let report = runner.run(&grid).unwrap();
        assert_eq!(report.cells.len(), grid.n_cells());
        assert_eq!(runner.n_engines(), grid.n_datasets());
        // none before permutation, per the grid's correction order.
        assert_eq!(
            report.cells[0].correction.approach,
            CorrectionApproach::None
        );
        assert_eq!(
            report.cells[1].correction.approach,
            CorrectionApproach::Permutation
        );
        // The planted rule is strong (confidence 0.9): the uncorrected run
        // must detect it.
        assert_eq!(report.cells[0].metrics.n_datasets, 2);
        assert!(report.cells[0].recall() > 0.0);
    }

    #[test]
    fn warm_rerun_is_bit_identical_and_reuses_caches() {
        let grid = small_grid();
        let runner = SweepRunner::new();
        let cold = runner.run(&grid).unwrap();
        let warm = runner.run(&grid).unwrap();
        assert_eq!(cold.cells, warm.cells);
        assert_eq!(
            cold.to_table().to_json(),
            warm.to_table().to_json(),
            "rendered output must be bit-identical warm vs cold"
        );
        // The warm run answered every query from the caches.
        assert_eq!(warm.cache.mined_hits, warm.cache.queries);
        assert!(warm.cache.null_hits > cold.cache.null_hits);
        // A fresh runner (fully cold) also reproduces the same cells.
        let fresh = SweepRunner::new().run(&grid).unwrap();
        assert_eq!(fresh.cells, cold.cells);
    }

    #[test]
    fn thread_count_does_not_change_the_report() {
        let grid = small_grid();
        let run_with = |threads: usize| {
            let pool = sigrule::correction::permutation::rayon_pool(threads).unwrap();
            pool.install(|| SweepRunner::new().run(&grid).unwrap())
        };
        let one = run_with(1);
        let four = run_with(4);
        assert_eq!(one.cells, four.cells);
        assert_eq!(one.to_table().to_json(), four.to_table().to_json());
    }

    #[test]
    fn queries_on_one_dataset_share_the_mined_rule_set() {
        let grid = small_grid();
        let report = SweepRunner::new().run(&grid).unwrap();
        // Per dataset: the first query mines, the second reuses — so half the
        // queries hit the mine cache even on a cold run.
        assert_eq!(report.cache.queries, grid.n_queries());
        assert_eq!(report.cache.mined_hits, report.cache.queries / 2);
    }

    #[test]
    fn basket_workload_sweeps_too() {
        let mut grid = small_grid();
        grid.workload = Workload::Basket;
        grid.rows = vec![150];
        grid.items = 40;
        grid.corrections = vec![CorrectionSpec {
            approach: CorrectionApproach::Direct,
            metric: ErrorMetric::Fwer,
        }];
        let report = SweepRunner::new().run(&grid).unwrap();
        assert_eq!(report.cells.len(), 1);
        assert_eq!(report.workload, Workload::Basket);
        let table = report.to_table();
        assert_eq!(table.rows[0][0], "basket");
    }
}
