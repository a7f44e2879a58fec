//! The `mine`, `correct` and `bench` subcommands.

use crate::args::{parse_correction, ArgMap, CommonOpts, UsageError};
use crate::output::{method_summary_row, significant_rules_table, Report};
use sigrule::cancel::CancelToken;
use sigrule::correction::permutation::rayon_pool;
use sigrule::engine::{Engine, Loader, Query};
use sigrule::{CorrectionApproach, ErrorMetric, MinedRuleSet, PipelineError, RuleMiningConfig};
use sigrule_data::{Dataset, InputFormat};
use sigrule_eval::report::Table;
use sigrule_server::coordinate::{self, DistributedNull, ShardSpec};
use sigrule_server::json::ObjectBuilder;
use sigrule_synth::{SyntheticGenerator, SyntheticParams};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A failed command: either a bad invocation (exit 2) or a runtime error
/// (exit 1).
#[derive(Debug)]
pub enum CliError {
    /// Malformed command line.
    Usage(UsageError),
    /// The command itself failed (missing file, malformed data, ...).
    Runtime(String),
}

impl From<UsageError> for CliError {
    fn from(e: UsageError) -> Self {
        CliError::Usage(e)
    }
}

impl From<PipelineError> for CliError {
    fn from(e: PipelineError) -> Self {
        CliError::Runtime(e.to_string())
    }
}

impl From<sigrule_data::DataError> for CliError {
    fn from(e: sigrule_data::DataError) -> Self {
        CliError::Runtime(e.to_string())
    }
}

fn millis(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Builds the engine query a [`CommonOpts`] set describes for `n_records`
/// records.
fn query_for(
    opts: &CommonOpts,
    n_records: usize,
    approach: CorrectionApproach,
    metric: ErrorMetric,
) -> Result<Query, UsageError> {
    Ok(Query {
        mining: opts.mining_config(n_records)?,
        approach,
        metric,
        alpha: opts.alpha,
        n_permutations: opts.permutations,
        seed: opts.seed,
        threads: opts.threads,
        cancel: CancelToken::none(),
    })
}

/// Mines (via the engine's cache) on `--threads` threads, as the queries
/// that follow do: one thread mines on the calling thread.
fn mine_on_threads(
    engine: &Engine,
    opts: &CommonOpts,
    mining: &RuleMiningConfig,
) -> Result<(Arc<MinedRuleSet>, Duration), CliError> {
    let mine = || engine.mine(mining);
    let (mined, elapsed, _cached) = match opts.threads {
        Some(n) => rayon_pool(n)
            .map_err(|e| CliError::Runtime(format!("thread pool: {e}")))?
            .install(mine),
        None => mine(),
    };
    Ok((mined, elapsed))
}

/// Fails the command when `--strict` was given and the loader produced
/// warnings: strict mode turns blank lines, empty transactions and other
/// dedupe noise into a nonzero exit instead of stderr-only messages.
fn enforce_strict(opts: &CommonOpts, warnings: &[String]) -> Result<(), CliError> {
    if opts.strict && !warnings.is_empty() {
        return Err(CliError::Runtime(format!(
            "--strict: input produced {} loader warning(s):\n  {}",
            warnings.len(),
            warnings.join("\n  ")
        )));
    }
    Ok(())
}

/// Loads the dataset named by `--input` (required here) through the shared
/// load stage ([`Loader`]), in the requested or auto-detected input format.
/// Returns the dataset, any loader warnings (rendered on stderr by the
/// caller), the effective format and the load time.
fn load_input(opts: &CommonOpts) -> Result<(Dataset, Vec<String>, InputFormat, f64), CliError> {
    let Some(path) = &opts.input else {
        return Err(CliError::Usage(UsageError(
            "--input <file> is required".into(),
        )));
    };
    let loader = Loader {
        load: opts.load_options(),
        basket: opts.basket_options(),
        input_format: opts.input_format,
    };
    let loaded = loader
        .load_file(path)
        .map_err(|e| CliError::Runtime(format!("{}: {e}", path.display())))?;
    let warnings: Vec<String> = loaded
        .warnings
        .iter()
        .map(|w| format!("{}: {w}", path.display()))
        .collect();
    enforce_strict(opts, &warnings)?;
    Ok((
        loaded.dataset,
        warnings,
        loaded.format,
        millis(loaded.elapsed),
    ))
}

fn dataset_summary(report: &mut Report, opts: &CommonOpts, dataset: &Dataset, format: InputFormat) {
    if let Some(path) = &opts.input {
        report.add("input", path.display());
        report.add("input_format", format.label());
    }
    report.add("records", dataset.n_records());
    report.add(
        "columns",
        dataset
            .n_columns()
            .map(|n| n.to_string())
            .unwrap_or_else(|| "- (basket data)".to_string()),
    );
    report.add("items", dataset.n_items());
    report.add(
        "classes",
        format!(
            "{} ({})",
            dataset.n_classes(),
            dataset.item_space().classes().join(", ")
        ),
    );
    report.add("min_sup", opts.effective_min_sup(dataset.n_records()));
}

/// `sigrule mine`: load → mine → one correction → significant rules.
pub fn mine(args: &ArgMap) -> Result<Report, CliError> {
    let mut known = CommonOpts::VALUE_FLAGS.to_vec();
    known.extend(["correction", "metric"]);
    args.reject_unknown(&known)?;
    let opts = CommonOpts::from_args(args)?;
    let (approach, metric) = parse_correction(args)?;

    let (dataset, warnings, format, load_ms) = load_input(&opts)?;
    let query = query_for(&opts, dataset.n_records(), approach, metric)?;
    let engine = Engine::new(dataset);
    let run = engine.query(&query)?;

    let mut report = Report::new("mine");
    report.warnings = warnings;
    dataset_summary(&mut report, &opts, engine.dataset(), format);
    report.add("rules_mined", run.mined.rules().len());
    report.add("hypothesis_tests", run.mined.n_tests());
    report.add("correction", run.result.method.clone());
    report.add("metric", run.result.metric.label());
    report.add("alpha", opts.alpha);
    if approach == CorrectionApproach::Permutation {
        report.add("permutations", opts.permutations);
        report.add("seed", opts.seed);
    }
    if let Some(cutoff) = run.result.p_value_cutoff {
        report.add("p_value_cutoff", format!("{cutoff:.6e}"));
    }
    report.add("significant", run.result.n_significant());
    report.add("load_ms", format!("{load_ms:.1}"));
    report.add("mine_ms", format!("{:.1}", millis(run.timings.mine)));
    report.add(
        "correct_ms",
        format!("{:.1}", millis(run.timings.null + run.timings.correct)),
    );
    report.tables.push(significant_rules_table(&run, opts.top));
    Ok(report)
}

/// The method roster `sigrule correct` and `sigrule bench` iterate:
/// every approach × metric combination of the paper that runs on a single
/// whole dataset.
fn method_roster() -> Vec<(CorrectionApproach, ErrorMetric)> {
    vec![
        (CorrectionApproach::None, ErrorMetric::Fwer),
        (CorrectionApproach::Direct, ErrorMetric::Fwer),
        (CorrectionApproach::Direct, ErrorMetric::Fdr),
        (CorrectionApproach::Permutation, ErrorMetric::Fwer),
        (CorrectionApproach::Permutation, ErrorMetric::Fdr),
        (CorrectionApproach::Holdout, ErrorMetric::Fwer),
        (CorrectionApproach::Holdout, ErrorMetric::Fdr),
    ]
}

/// The `load` request line `--workers` sharding replays on each worker so
/// the dataset resolves there under the same name with the same loader
/// options.  Workers must see the same file path — a shared filesystem or
/// an identical layout.
fn worker_load_line(opts: &CommonOpts, name: &str) -> Option<String> {
    let path = opts.input.as_ref()?;
    let mut line = ObjectBuilder::new();
    line.string("cmd", "load")
        .string("path", &path.display().to_string())
        .string("name", name);
    if let Some(format) = opts.input_format {
        line.string("format", format.label());
    }
    if let Some(class) = &opts.class {
        line.string("class", class);
    }
    if opts.separator != ',' {
        line.string("separator", &opts.separator.to_string());
    }
    if opts.no_header {
        line.boolean("no_header", true);
    }
    if let Some(class) = &opts.default_class {
        line.string("default_class", class);
    }
    Some(line.finish())
}

/// Scatters the cold permutation null across the `--workers` fleet (plus
/// this process, on `--threads`) before the method roster runs, so the
/// permutation rows hit a warm cache whose statistics are bit-identical to
/// a local collection.  Unreachable or dying workers degrade to warnings —
/// this process runs their ranges — and the returned warnings go to
/// stderr, never into the report body, so machine output stays identical
/// to an undistributed run.
fn distribute_null(
    engine: &Engine,
    opts: &CommonOpts,
    workers_spec: &str,
) -> Result<Vec<String>, CliError> {
    let workers = coordinate::parse_worker_list(workers_spec)
        .map_err(|e| CliError::Usage(UsageError(format!("--workers: {e}"))))?;
    if workers.is_empty() {
        return Ok(Vec::new());
    }
    let n_records = engine.dataset().n_records();
    let name = match &opts.input {
        Some(path) => format!("cli:{}", path.display()),
        None => "cli:synthetic".to_string(),
    };
    let mut spec = ShardSpec::new(
        &name,
        &opts.mining_config(n_records)?,
        opts.permutations,
        opts.seed,
    );
    spec.threads = opts.threads;
    let plan = DistributedNull {
        workers,
        load_line: worker_load_line(opts, &name),
        spec,
    };
    let fill = coordinate::fill_engine_null(engine, &plan, &CancelToken::none())
        .map_err(|c| CliError::Runtime(c.to_string()))?;
    Ok(fill.warnings)
}

/// `sigrule correct`: load → mine once → every correction approach →
/// comparison table (the CLI's version of the paper's Table 3 axes).
/// With `--workers`, the cold permutation null is scattered across remote
/// `sigrule serve` processes first — same statistics, shared wall-clock.
pub fn correct(args: &ArgMap) -> Result<Report, CliError> {
    let mut known = CommonOpts::VALUE_FLAGS.to_vec();
    known.push("workers");
    args.reject_unknown(&known)?;
    let opts = CommonOpts::from_args(args)?;

    let (dataset, mut warnings, format, load_ms) = load_input(&opts)?;
    let n_records = dataset.n_records();
    let roster = method_roster()
        .into_iter()
        .map(|(approach, metric)| query_for(&opts, n_records, approach, metric))
        .collect::<Result<Vec<_>, _>>()?;
    // Before mining or any scatter: an invalid row fails the command first.
    for query in &roster {
        query.validate()?;
    }
    // One resident engine for the whole roster: the rule set is mined once
    // and the permutation null is collected once, shared by the FWER and FDR
    // permutation rows (the engine's null cache keys on (mining, N, seed),
    // not on the metric).
    let engine = Engine::new(dataset);
    let (mined, mine_time) = mine_on_threads(&engine, &opts, &opts.mining_config(n_records)?)?;
    let mine_ms = millis(mine_time);
    if let Some(workers_spec) = args.get("workers") {
        warnings.extend(distribute_null(&engine, &opts, workers_spec)?);
    }

    let mut table = Table::new(
        format!("correction comparison at alpha = {}", opts.alpha),
        vec![
            "method",
            "metric",
            "alpha",
            "n_tests",
            "significant",
            "p_value_cutoff",
            "time_ms",
        ],
    );
    for query in &roster {
        let outcome = engine.query(query)?;
        table.push_row(method_summary_row(
            &outcome.result,
            millis(outcome.timings.null + outcome.timings.correct),
        ));
    }

    let mut report = Report::new("correct");
    report.warnings = warnings;
    dataset_summary(&mut report, &opts, engine.dataset(), format);
    report.add("rules_mined", mined.rules().len());
    report.add("hypothesis_tests", mined.n_tests());
    report.add("permutations", opts.permutations);
    report.add("seed", opts.seed);
    report.add("load_ms", format!("{load_ms:.1}"));
    report.add("mine_ms", format!("{mine_ms:.1}"));
    report.tables.push(table);
    Ok(report)
}

/// `sigrule bench`: time every pipeline stage on a real file (`--input`) or
/// on a synthetic dataset (`--records` / `--attributes` / `--rules`).
pub fn bench(args: &ArgMap) -> Result<Report, CliError> {
    let mut known = CommonOpts::VALUE_FLAGS.to_vec();
    known.extend(["records", "attributes", "rules"]);
    args.reject_unknown(&known)?;
    let opts = CommonOpts::from_args(args)?;

    let mut report = Report::new("bench");
    let mut format = InputFormat::Rows;
    let (dataset, source, load_ms) = if opts.input.is_some() {
        let (dataset, warnings, input_format, load_ms) = load_input(&opts)?;
        report.warnings = warnings;
        format = input_format;
        (dataset, "file", load_ms)
    } else {
        let records: usize = args.get_parsed("records")?.unwrap_or(2000);
        let attributes: usize = args.get_parsed("attributes")?.unwrap_or(20);
        let rules: usize = args.get_parsed("rules")?.unwrap_or(2);
        // Scale embedded-rule coverage with the dataset so any --records
        // value yields valid generator parameters.
        let params = SyntheticParams::default()
            .with_records(records)
            .with_attributes(attributes)
            .with_rules(rules)
            .with_coverage((records / 10).max(1), (records / 8).max(1))
            .with_confidence(0.8, 0.9);
        let start = Instant::now();
        let (dataset, _) = SyntheticGenerator::new(params)
            .map_err(CliError::Runtime)?
            .generate(opts.seed);
        (dataset, "synthetic", millis(start.elapsed()))
    };
    report.add("source", source);
    let n_records = dataset.n_records();
    let engine = Engine::new(dataset);
    dataset_summary(&mut report, &opts, engine.dataset(), format);
    report.add("permutations", opts.permutations);
    report.add("seed", opts.seed);

    let mut table = Table::new(
        "pipeline stage timings",
        vec!["stage", "detail", "time_ms", "result"],
    );
    table.push_row(vec![
        "load".into(),
        source.into(),
        format!("{load_ms:.1}"),
        format!("{n_records} records"),
    ]);

    let mining = opts.mining_config(n_records)?;
    let (mined, mine_time) = mine_on_threads(&engine, &opts, &mining)?;
    table.push_row(vec![
        "mine".into(),
        format!("min_sup {}", mining.min_sup),
        format!("{:.1}", millis(mine_time)),
        format!("{} rules, {} tests", mined.rules().len(), mined.n_tests()),
    ]);

    for (approach, metric) in method_roster() {
        if approach == CorrectionApproach::None {
            continue;
        }
        let outcome = engine.query(&query_for(&opts, n_records, approach, metric)?)?;
        table.push_row(vec![
            "correct".into(),
            format!("{} ({})", outcome.result.method, metric.label()),
            format!(
                "{:.1}",
                millis(outcome.timings.null + outcome.timings.correct)
            ),
            format!("{} significant", outcome.result.n_significant()),
        ]);
    }
    report.tables.push(table);
    Ok(report)
}
