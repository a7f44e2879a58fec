//! The JSON-lines request protocol over a multi-dataset [`EngineRegistry`].
//!
//! One JSON object per line in, one JSON object per line out.  Every request
//! may carry an `"id"` field (any JSON value), echoed verbatim in the
//! response so concurrent responses can be matched to requests.  Requests:
//!
//! * `{"cmd":"load","path":"...","name":"..."}` — load a dataset file and
//!   register it under `name` (default `"default"`, replacing any engine of
//!   that name).  Optional: `"format"` (`rows`/`basket`/`auto`), `"class"`,
//!   `"separator"`, `"tsv"`, `"no_header"`, `"default_class"`, `"strict"`.
//! * `{"cmd":"mine","dataset":"..."}` — mine (and cache) a rule set on the
//!   named dataset (default `"default"`).  Optional: `"min_sup"` (default 1%
//!   of records, at least 2), `"min_conf"`, `"max_length"`, `"all_patterns"`.
//! * `{"cmd":"correct","dataset":"..."}` — mine (via the cache) and apply
//!   one correction.  The mine fields above, plus `"correction"`
//!   (`none`/`bonferroni`/`bh`/`permutation`/`holdout`, default
//!   `bonferroni`), `"metric"` (`fwer`/`fdr`), `"alpha"` (default 0.05),
//!   `"permutations"` (default 1000), `"seed"` (default 17), `"threads"`,
//!   `"top"` (significant rules listed in the response; default 20, 0 =
//!   all).
//! * `{"cmd":"stats","dataset":"..."}` — engine/cache statistics of the
//!   named dataset, entry counts and approximate resident bytes included.
//! * `{"cmd":"registry_stats"}` — every registered dataset's cache/size
//!   accounting, the registry totals, the byte budget and the eviction
//!   count.
//! * `{"cmd":"metrics"}` — the process-wide metrics registry as Prometheus
//!   text exposition (`"format":"json"` for the structured form); see
//!   docs/OBSERVABILITY.md for the metric catalog.
//! * `{"cmd":"shutdown"}` — acknowledge and exit (the transports drain
//!   in-flight work first; see [`transport`](crate::transport)).
//!
//! Responses carry `"ok":true` plus command-specific fields, or
//! `"ok":false` and an `"error"` message.  Requests are handled strictly in
//! order per connection by default; a `mine`, `correct` or `stats` request
//! carrying `"async":true` is handed to a worker thread over the shared
//! registry — match responses by `"id"`.  Warm answers are bit-identical to
//! cold ones, whichever transport and whichever connection asked.
//!
//! Every request may also carry a `"trace_id"` (32 hex digits).  The server
//! adopts it — or mints one — for the duration of the request, so every
//! structured log event the request produces is correlated; a coordinator
//! stamps its trace id onto the `perm_shard` requests it scatters, joining
//! remote workers' events to its own trace.  Supplied trace ids are echoed
//! in the response; minted ones appear only in the logs.

use crate::error::{ErrorCode, ServerError};
use crate::json::{Json, JsonError, ObjectBuilder};
use crate::registry::EngineRegistry;
use sigrule::cancel::CancelToken;
use sigrule::correction::permutation::{PermutationCorrection, PERMS_PER_CHUNK};
use sigrule::engine::{Engine, Loader, Query, QueryOutcome};
use sigrule::rule::sort_by_significance;
use sigrule::{ClassRule, CorrectionApproach, RuleMiningConfig};
use sigrule_data::loader::{BasketOptions, LoadOptions};
use sigrule_data::InputFormat;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The dataset name `load` registers under — and requests query — when none
/// is given, keeping single-dataset sessions identical to the pre-registry
/// protocol.
pub const DEFAULT_DATASET: &str = "default";

/// Server-level options shared by every transport.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerOptions {
    /// Byte budget over the registry's resident caches (`None` =
    /// unbounded); enforced after every cache-filling request.
    pub cache_budget_bytes: Option<usize>,
    /// Log a structured warn-level slow-query record (with the per-phase
    /// span breakdown) for any `mine`/`correct` request slower than this
    /// many milliseconds (`None` = never).
    pub slow_query_ms: Option<u64>,
}

/// The serve process state: the engine registry and the session start time.
/// Shared (behind an `Arc`) by every connection of a socket server.
pub struct ServerState {
    registry: EngineRegistry,
    started: Instant,
    /// For each loaded dataset, the `load` request that produced it (minus
    /// per-request fields), so a `correct` request carrying `"workers"` can
    /// replay the load on each worker.  Workers therefore must see the same
    /// file path — a shared filesystem or identical layout.
    sources: Mutex<HashMap<String, String>>,
    /// Slow-query log threshold (see [`ServerOptions::slow_query_ms`]).
    slow_query_ms: Option<u64>,
}

impl Default for ServerState {
    fn default() -> Self {
        ServerState::with_options(ServerOptions::default())
    }
}

impl ServerState {
    /// A state with no dataset loaded and no cache budget.
    pub fn new() -> Self {
        ServerState::default()
    }

    /// A state with no dataset loaded and the given options.
    pub fn with_options(options: ServerOptions) -> Self {
        sigrule::obs_metrics::expose_process_counters();
        ServerState {
            registry: EngineRegistry::with_budget(options.cache_budget_bytes),
            started: Instant::now(),
            sources: Mutex::new(HashMap::new()),
            slow_query_ms: options.slow_query_ms,
        }
    }

    /// The replayable `load` request line for a loaded dataset, if any.
    pub fn load_line_for(&self, name: &str) -> Option<String> {
        self.sources
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(name)
            .cloned()
    }

    /// The engine registry.
    pub fn registry(&self) -> &EngineRegistry {
        &self.registry
    }

    /// The engine a request routes to: its `"dataset"` field, defaulting to
    /// [`DEFAULT_DATASET`].
    fn engine_for(&self, req: &Json) -> Result<(String, Arc<Engine>), ServerError> {
        let name = get_str(req, "dataset")?.unwrap_or_else(|| DEFAULT_DATASET.to_string());
        match self.registry.get(&name) {
            Some(engine) => Ok((name, engine)),
            None if self.registry.is_empty() => Err(ServerError::new(
                ErrorCode::NotFound,
                "no dataset loaded; send a load request first",
            )),
            None => Err(ServerError::new(
                ErrorCode::NotFound,
                format!(
                    "unknown dataset {name:?}; loaded: {}",
                    self.registry.names().join(", ")
                ),
            )),
        }
    }
}

fn millis(d: Duration) -> f64 {
    // Round to 3 decimals so the JSON stays compact and stable to read.
    (d.as_secs_f64() * 1e3 * 1e3).round() / 1e3
}

fn get_str(req: &Json, key: &str) -> Result<Option<String>, String> {
    match req.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| format!("{key:?} must be a string")),
    }
}

fn get_bool(req: &Json, key: &str) -> Result<bool, String> {
    match req.get(key) {
        None | Some(Json::Null) => Ok(false),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| format!("{key:?} must be a boolean")),
    }
}

fn get_usize(req: &Json, key: &str) -> Result<Option<usize>, String> {
    match req.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(|n| Some(n as usize))
            .ok_or_else(|| format!("{key:?} must be a non-negative integer")),
    }
}

/// The `"threads"` field, capped at this host's available parallelism.
/// Answers are bit-identical at any thread count, and the rayon pool starts
/// up to one OS thread per requested worker for every parallel operation, so
/// a larger value buys nothing and a huge one would start that many threads.
fn get_threads(req: &Json) -> Result<Option<usize>, String> {
    let cap = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(get_usize(req, "threads")?.map(|threads| threads.min(cap)))
}

fn get_u64(req: &Json, key: &str) -> Result<Option<u64>, String> {
    match req.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("{key:?} must be a non-negative integer")),
    }
}

fn get_f64(req: &Json, key: &str) -> Result<Option<f64>, String> {
    match req.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("{key:?} must be a number")),
    }
}

/// Fields every request may carry regardless of command.
const COMMON_FIELDS: &[&str] = &["id", "cmd", "async", "timeout_ms", "trace_id"];
/// Mining-configuration fields shared by `mine` and `correct`.
const MINE_FIELDS: &[&str] = &[
    "dataset",
    "min_sup",
    "min_conf",
    "max_length",
    "all_patterns",
];

/// Rejects misspelled or unknown request fields, mirroring the CLI's
/// `reject_unknown` flag check: a typo'd parameter must error, not silently
/// run with defaults.
fn reject_unknown_fields(req: &Json, allowed: &[&str]) -> Result<(), String> {
    if let Json::Object(fields) = req {
        for (key, _) in fields {
            if !COMMON_FIELDS.contains(&key.as_str()) && !allowed.contains(&key.as_str()) {
                return Err(format!(
                    "unknown field {key:?} (expected one of: {})",
                    allowed.join(", ")
                ));
            }
        }
    }
    Ok(())
}

/// The mining configuration a request describes, with the CLI's defaults
/// (min_sup: 1% of records, at least 2).
fn mining_config(req: &Json, n_records: usize) -> Result<RuleMiningConfig, String> {
    let min_sup = get_usize(req, "min_sup")?.unwrap_or_else(|| (n_records / 100).max(2));
    let mut config = RuleMiningConfig::new(min_sup)
        .with_min_conf(get_f64(req, "min_conf")?.unwrap_or(0.0))
        .with_closed_only(!get_bool(req, "all_patterns")?);
    if let Some(len) = get_usize(req, "max_length")? {
        config = config.with_max_length(len);
    }
    config.validate()?;
    Ok(config)
}

fn handle_load(state: &ServerState, req: &Json) -> Result<ObjectBuilder, ServerError> {
    reject_unknown_fields(
        req,
        &[
            "path",
            "name",
            "format",
            "class",
            "separator",
            "tsv",
            "no_header",
            "default_class",
            "strict",
        ],
    )?;
    let Some(path) = get_str(req, "path")? else {
        return Err("\"path\" is required".to_string().into());
    };
    let name = get_str(req, "name")?.unwrap_or_else(|| DEFAULT_DATASET.to_string());
    if name.is_empty() {
        return Err("\"name\" must not be empty".to_string().into());
    }
    let input_format = match get_str(req, "format")?.as_deref() {
        None | Some("auto") => None,
        Some(fmt) => Some(
            InputFormat::parse(fmt)
                .ok_or_else(|| format!("\"format\" must be rows, basket or auto (got {fmt:?})"))?,
        ),
    };
    let separator = match (get_str(req, "separator")?, get_bool(req, "tsv")?) {
        (Some(_), true) => {
            return Err("\"separator\" and \"tsv\" are exclusive".to_string().into())
        }
        (Some(s), false) => {
            let mut chars = s.chars();
            match (chars.next(), chars.next()) {
                (Some(c), None) => c,
                _ => {
                    return Err(
                        format!("\"separator\" must be a single character (got {s:?})").into(),
                    )
                }
            }
        }
        (None, true) => '\t',
        (None, false) => ',',
    };
    let mut load = LoadOptions {
        separator,
        has_header: !get_bool(req, "no_header")?,
        ..LoadOptions::default()
    };
    if let Some(class) = get_str(req, "class")? {
        match class.parse::<usize>() {
            Ok(index) => load.class_column = Some(index),
            Err(_) => load.class_column_name = Some(class),
        }
    }
    let mut basket = BasketOptions::default();
    if let Some(class) = get_str(req, "default_class")? {
        basket.default_class = Some(class);
    }

    let loader = Loader {
        load,
        basket,
        input_format,
    };
    sigrule::fault::io_point("load.read")
        .map_err(|e| ServerError::new(ErrorCode::Io, format!("{path}: {e}")))?;
    let loaded = loader.load_file(&path).map_err(|e| {
        let mut mapped = ServerError::from(e);
        mapped.message = format!("{path}: {}", mapped.message);
        mapped
    })?;
    let warnings: Vec<String> = loaded
        .warnings
        .iter()
        .map(|w| format!("{path}: {w}"))
        .collect();
    if get_bool(req, "strict")? && !warnings.is_empty() {
        return Err(format!(
            "strict: input produced {} loader warning(s): {}",
            warnings.len(),
            warnings.join("; ")
        )
        .into());
    }

    let format = loaded.format;
    let engine = state.registry.insert(&name, loaded.into_engine());
    state
        .sources
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .insert(name.clone(), render_forward_load(req));
    let mut resp = ObjectBuilder::new();
    resp.string("path", &path)
        .string("name", &name)
        .string("format", format.label())
        .number("records", engine.dataset().n_records() as f64)
        .raw(
            "columns",
            engine
                .dataset()
                .n_columns()
                .map(|n| n.to_string())
                .unwrap_or_else(|| "null".to_string()),
        )
        .number("items", engine.dataset().n_items() as f64)
        .number("classes", engine.dataset().n_classes() as f64)
        .number("load_ms", millis(engine.load_time()))
        .strings("warnings", &warnings);
    Ok(resp)
}

/// Re-renders a successful `load` request as the line a shard worker should
/// replay: the same dataset-shaping fields, with the per-request plumbing
/// (`id`, `async`, `timeout_ms`) stripped.
fn render_forward_load(req: &Json) -> String {
    let mut out = ObjectBuilder::new();
    out.string("cmd", "load");
    if let Json::Object(fields) = req {
        for (key, value) in fields {
            if key != "cmd" && !COMMON_FIELDS.contains(&key.as_str()) {
                out.json(key, value);
            }
        }
    }
    out.finish()
}

/// Emits the structured slow-query record (warn level, target
/// `sigrule::serve::slow`) when a request ran longer than the configured
/// `--slow-query-ms` threshold, with the per-phase span breakdown.
fn note_slow_query(
    state: &ServerState,
    cmd: &str,
    dataset: &str,
    began: Instant,
    phases: &[(&str, f64)],
) {
    let Some(threshold) = state.slow_query_ms else {
        return;
    };
    let total = millis(began.elapsed());
    if total < threshold as f64 {
        return;
    }
    let mut fields: Vec<(&str, sigrule_obs::log::Value)> = vec![
        ("cmd", cmd.into()),
        ("dataset", dataset.to_string().into()),
        ("total_ms", total.into()),
        ("threshold_ms", threshold.into()),
    ];
    for &(phase, ms) in phases {
        fields.push((phase, ms.into()));
    }
    sigrule_obs::log::warn("sigrule::serve::slow", "slow query", &fields);
}

fn handle_mine(
    state: &ServerState,
    req: &Json,
    cancel: &CancelToken,
) -> Result<ObjectBuilder, ServerError> {
    reject_unknown_fields(req, MINE_FIELDS)?;
    let began = Instant::now();
    let (name, engine) = state.engine_for(req)?;
    let config = mining_config(req, engine.dataset().n_records())?;
    sigrule::fault::point("req.mine");
    // Enforce the budget on the error path too: a cancelled request may
    // still have filled a cache before aborting.
    let mine_outcome = engine.mine_cancellable(&config, cancel);
    state.registry.enforce_budget();
    let (mined, elapsed, cached) = mine_outcome?;
    note_slow_query(state, "mine", &name, began, &[("mine_ms", millis(elapsed))]);
    let mut resp = ObjectBuilder::new();
    resp.string("dataset", &name)
        .number("min_sup", config.min_sup as f64)
        .number("rules_mined", mined.rules().len() as f64)
        .number("hypothesis_tests", mined.n_tests() as f64)
        .number("mine_ms", millis(elapsed))
        .boolean("mined_cached", cached);
    Ok(resp)
}

/// Renders the significant rules of a query outcome, most significant first,
/// capped at `top` (0 = all).
fn rules_array(outcome: &QueryOutcome, top: usize) -> String {
    let mut rules: Vec<ClassRule> = outcome
        .result
        .significant_rules()
        .into_iter()
        .cloned()
        .collect();
    sort_by_significance(&mut rules);
    let shown = if top == 0 {
        rules.len()
    } else {
        top.min(rules.len())
    };
    let space = outcome.mined.item_space();
    let rendered: Vec<String> = rules
        .iter()
        .take(shown)
        .map(|rule| {
            let lhs: Vec<String> = rule
                .pattern
                .items()
                .iter()
                .map(|&i| space.describe_item(i))
                .collect();
            let mut obj = ObjectBuilder::new();
            obj.string("rule", &lhs.join(" AND "))
                .string("class", space.class_name(rule.class).unwrap_or("?"))
                .number("coverage", rule.coverage as f64)
                .number("support", rule.support as f64)
                .number("confidence", rule.confidence())
                .raw("p_value", format!("{:e}", rule.p_value));
            obj.finish()
        })
        .collect();
    format!("[{}]", rendered.join(","))
}

fn handle_correct(
    state: &ServerState,
    req: &Json,
    cancel: &CancelToken,
) -> Result<ObjectBuilder, ServerError> {
    let mut allowed = MINE_FIELDS.to_vec();
    allowed.extend([
        "correction",
        "metric",
        "alpha",
        "permutations",
        "seed",
        "threads",
        "top",
        "workers",
    ]);
    reject_unknown_fields(req, &allowed)?;
    let began = Instant::now();
    let (name, engine) = state.engine_for(req)?;
    let mining = mining_config(req, engine.dataset().n_records())?;

    let (approach, metric) = CorrectionApproach::resolve(
        get_str(req, "correction")?.as_deref(),
        get_str(req, "metric")?.as_deref(),
    )?;

    let mut query = Query::new(mining)
        .with_correction(approach, metric)
        .with_alpha(get_f64(req, "alpha")?.unwrap_or(0.05))
        .with_permutations(get_usize(req, "permutations")?.unwrap_or(1000))
        .with_seed(get_u64(req, "seed")?.unwrap_or(17))
        .with_cancel(cancel.clone());
    if let Some(threads) = get_threads(req)? {
        query = query.with_threads(threads);
    }
    let top = get_usize(req, "top")?.unwrap_or(20);
    let workers = match get_str(req, "workers")? {
        Some(spec) => crate::coordinate::parse_worker_list(&spec)
            .map_err(|e| ServerError::new(ErrorCode::InvalidRequest, e))?,
        None => Vec::new(),
    };

    sigrule::fault::point("req.correct");

    // A permutation request naming workers scatters its cold null across
    // them first; the query below then hits the warm cache.  The answer is
    // bit-identical to a local run by the merge contract, so the only
    // response-visible difference is `null_cached` (and the `stats` shard
    // counters).
    if !workers.is_empty()
        && approach == CorrectionApproach::Permutation
        && query.n_permutations > 0
    {
        let spec = crate::coordinate::ShardSpec {
            dataset: name.clone(),
            mining: query.mining.clone(),
            n_permutations: query.n_permutations,
            seed: query.seed,
            threads: get_threads(req)?,
            timeout_ms: None,
        };
        let plan = crate::coordinate::DistributedNull {
            workers,
            load_line: state.load_line_for(&name),
            spec,
        };
        // A cold mine inside the fill runs on the query's threads, as the
        // query itself does.
        let fill = || crate::coordinate::fill_engine_null(&engine, &plan, cancel);
        let filled = match query.threads {
            Some(threads) => sigrule::correction::permutation::rayon_pool(threads)
                .map_err(|e| format!("could not build a {threads}-thread pool: {e}"))?
                .install(fill),
            None => fill(),
        };
        state.registry.enforce_budget();
        filled?;
    }
    // Enforce the budget on the error path too: a query aborted mid-null
    // may still have filled the mine cache before the deadline fired.
    let queried = engine.query(&query);
    state.registry.enforce_budget();
    let outcome = queried?;
    note_slow_query(
        state,
        "correct",
        &name,
        began,
        &[
            ("mine_ms", millis(outcome.timings.mine)),
            ("null_ms", millis(outcome.timings.null)),
            ("correct_ms", millis(outcome.timings.correct)),
        ],
    );
    let mut resp = ObjectBuilder::new();
    resp.string("dataset", &name)
        .string("method", &outcome.result.method)
        .string("metric", outcome.result.metric.label())
        .number("alpha", outcome.result.alpha)
        .number("min_sup", query.mining.min_sup as f64)
        .number("rules_mined", outcome.mined.rules().len() as f64)
        .number("hypothesis_tests", outcome.result.n_tests as f64)
        .number("significant", outcome.result.n_significant() as f64);
    match outcome.result.p_value_cutoff {
        Some(cutoff) => resp.raw("p_value_cutoff", format!("{cutoff:e}")),
        None => resp.raw("p_value_cutoff", "null"),
    };
    if approach == CorrectionApproach::Permutation {
        resp.number("permutations", query.n_permutations as f64)
            .integer("seed", query.seed);
    }
    resp.number("mine_ms", millis(outcome.timings.mine))
        .number("null_ms", millis(outcome.timings.null))
        .number("correct_ms", millis(outcome.timings.correct))
        .boolean("mined_cached", outcome.mined_cached);
    match outcome.null_cached {
        Some(cached) => resp.boolean("null_cached", cached),
        None => resp.raw("null_cached", "null"),
    };
    resp.raw("rules", rules_array(&outcome, top));
    Ok(resp)
}

/// Handles a `perm_shard` request: run permutations `start..end` of a null
/// and return the partial statistics, hex-encoded in the shared shard wire
/// form, for a coordinator to merge.  This is the worker half of the
/// distributed null — the dataset must already be loaded (coordinators
/// replay the `load` first), and the range must be chunk-aligned so the
/// merged null stays bit-identical to a single-process run.
fn handle_perm_shard(
    state: &ServerState,
    req: &Json,
    cancel: &CancelToken,
) -> Result<ObjectBuilder, ServerError> {
    let mut allowed = MINE_FIELDS.to_vec();
    allowed.extend(["permutations", "seed", "start", "end", "threads"]);
    reject_unknown_fields(req, &allowed)?;
    let (name, engine) = state.engine_for(req)?;
    let mining = mining_config(req, engine.dataset().n_records())?;
    let n_permutations = get_usize(req, "permutations")?.unwrap_or(1000);
    let seed = get_u64(req, "seed")?.unwrap_or(17);
    let Some(start) = get_usize(req, "start")? else {
        return Err("\"start\" is required".to_string().into());
    };
    let Some(end) = get_usize(req, "end")? else {
        return Err("\"end\" is required".to_string().into());
    };
    if start > end || end > n_permutations {
        return Err(format!(
            "shard range {start}..{end} out of bounds for {n_permutations} permutations"
        )
        .into());
    }
    if start % PERMS_PER_CHUNK != 0 || (end % PERMS_PER_CHUNK != 0 && end != n_permutations) {
        return Err(format!(
            "shard range {start}..{end} is not aligned to the {PERMS_PER_CHUNK}-permutation chunk"
        )
        .into());
    }

    sigrule::fault::point("shard.run");
    let began = Instant::now();
    let correction = PermutationCorrection::new(n_permutations).with_seed(seed);
    // The mine (on a cache miss) and the range run on the shard's threads.
    let run = || -> Result<_, ServerError> {
        // Enforce the budget on the error path too: a cancelled shard may
        // still have filled the mine cache before aborting.
        let mine_outcome = engine.mined_with_tables(&mining, cancel);
        state.registry.enforce_budget();
        let (mined, tables) = mine_outcome?;
        Ok(correction.collect_stats_range(&mined, Some(&tables), cancel, start, end)?)
    };
    let partial = match get_threads(req)? {
        Some(threads) if threads > 0 => sigrule::correction::permutation::rayon_pool(threads)
            .map_err(|e| format!("could not build a {threads}-thread pool: {e}"))?
            .install(run),
        _ => run(),
    }?;

    let mut resp = ObjectBuilder::new();
    resp.string("dataset", &name)
        .number("permutations", n_permutations as f64)
        .integer("seed", seed)
        .number("start", partial.start() as f64)
        .number("end", partial.end() as f64)
        .number("n_rules", partial.n_rules() as f64)
        .string(
            "payload",
            &crate::coordinate::encode_hex(&partial.to_bytes()),
        )
        .number("shard_ms", millis(began.elapsed()));
    Ok(resp)
}

/// Appends one engine's dataset shape, counters and cache/size accounting.
fn engine_stats_fields(resp: &mut ObjectBuilder, engine: &Engine) {
    let stats = engine.stats();
    resp.number("records", engine.dataset().n_records() as f64)
        .number("items", engine.dataset().n_items() as f64)
        .number("classes", engine.dataset().n_classes() as f64)
        .number("queries", stats.queries as f64)
        .number("cancelled_queries", stats.cancelled_queries as f64)
        .number("mine_hits", stats.mine_hits as f64)
        .number("mine_misses", stats.mine_misses as f64)
        .number("null_hits", stats.null_hits as f64)
        .number("null_misses", stats.null_misses as f64)
        .number("holdout_hits", stats.holdout_hits as f64)
        .number("holdout_misses", stats.holdout_misses as f64)
        .number("cached_rule_sets", stats.cached_rule_sets as f64)
        .number("cached_nulls", stats.cached_nulls as f64)
        .number("rule_set_bytes", stats.rule_set_bytes as f64)
        .number("table_bytes", stats.table_bytes as f64)
        .number("null_bytes", stats.null_bytes as f64)
        .number("holdout_bytes", stats.holdout_bytes as f64)
        .number("resident_bytes", stats.resident_bytes() as f64)
        .number("evicted_rule_sets", stats.evicted_rule_sets as f64)
        .number("evicted_nulls", stats.evicted_nulls as f64);
}

fn handle_stats(state: &ServerState, req: &Json) -> Result<ObjectBuilder, ServerError> {
    reject_unknown_fields(req, &["dataset"])?;
    let mut resp = ObjectBuilder::new();
    resp.number("uptime_ms", millis(state.started.elapsed()));
    let name = get_str(req, "dataset")?.unwrap_or_else(|| DEFAULT_DATASET.to_string());
    match state.registry.get(&name) {
        None => {
            resp.boolean("loaded", false);
        }
        Some(engine) => {
            resp.boolean("loaded", true).string("dataset", &name);
            engine_stats_fields(&mut resp, &engine);
        }
    }
    Ok(resp)
}

fn handle_registry_stats(state: &ServerState, req: &Json) -> Result<ObjectBuilder, ServerError> {
    reject_unknown_fields(req, &[])?;
    let registry = &state.registry;
    let mut total = 0usize;
    let mut evicted_rule_sets = 0u64;
    let mut evicted_nulls = 0u64;
    let datasets: Vec<String> = registry
        .snapshot()
        .iter()
        .map(|snap| {
            total += snap.stats.resident_bytes();
            evicted_rule_sets += snap.stats.evicted_rule_sets;
            evicted_nulls += snap.stats.evicted_nulls;
            let mut obj = ObjectBuilder::new();
            obj.string("name", &snap.name);
            engine_stats_fields(&mut obj, &snap.engine);
            obj.finish()
        })
        .collect();
    let mut resp = ObjectBuilder::new();
    resp.number("uptime_ms", millis(state.started.elapsed()))
        .number("datasets_loaded", datasets.len() as f64)
        .raw("datasets", format!("[{}]", datasets.join(",")))
        .number("resident_bytes", total as f64);
    match registry.budget_bytes() {
        Some(budget) => resp.number("budget_bytes", budget as f64),
        None => resp.raw("budget_bytes", "null"),
    };
    resp.number("evictions", (evicted_rule_sets + evicted_nulls) as f64)
        .number("evicted_rule_sets", evicted_rule_sets as f64)
        .number("evicted_nulls", evicted_nulls as f64);
    // The process-wide kernel and shard counters live at the registry level,
    // where a fleet operator looks for them: they are not per-dataset.
    let kernel = sigrule_data::kernel::counters();
    let shard = sigrule::correction::permutation::shard_counters::counters();
    resp.string("kernel", kernel.kernel)
        .number("batched_sweeps", kernel.batched_sweeps as f64)
        .number("shards_local", shard.shards_local as f64)
        .number("shards_remote", shard.shards_remote as f64)
        .number("shard_retries", shard.shard_retries as f64)
        .number("remote_ms", shard.remote_ms as f64);
    Ok(resp)
}

fn handle_metrics(state: &ServerState, req: &Json) -> Result<ObjectBuilder, ServerError> {
    reject_unknown_fields(req, &["format"])?;
    // Every counter is rendered from its one atomic; only the resident-bytes
    // gauge is computed, by walking the caches, so it is refreshed here.
    for snap in state.registry.snapshot() {
        sigrule::obs_metrics::cache_resident_bytes(&snap.name)
            .set(snap.stats.resident_bytes() as f64);
    }
    let format = get_str(req, "format")?.unwrap_or_else(|| "prometheus".to_string());
    let mut resp = ObjectBuilder::new();
    match format.as_str() {
        "prometheus" => {
            resp.string("format", "prometheus")
                .string("body", &sigrule_obs::metrics::render_prometheus());
        }
        "json" => {
            resp.string("format", "json")
                .raw("metrics", sigrule_obs::metrics::render_json());
        }
        other => {
            return Err(format!("\"format\" must be prometheus or json (got {other:?})").into())
        }
    }
    Ok(resp)
}

/// Handles one request line; returns the response line (no trailing newline)
/// and whether the session should shut down.
pub fn handle_line(state: &ServerState, line: &str) -> (String, bool) {
    handle_parsed(state, Json::parse(line), &CancelToken::none())
}

/// Renders a bare error response line: the echoed `id` (when known), then
/// `"ok":false` and the structured error fields.
pub(crate) fn error_line(id: Option<&Json>, error: &ServerError) -> String {
    let mut resp = ObjectBuilder::new();
    if let Some(id) = id {
        resp.json("id", id);
    }
    resp.boolean("ok", false);
    error.render_into(&mut resp);
    resp.finish()
}

/// [`handle_line`] for an already-parsed request (the transports parse each
/// line exactly once, for routing, and hand the result here).
///
/// `cancel` is the connection's lifecycle token; a request carrying
/// `"timeout_ms"` runs under a child token that adds that deadline, so the
/// request is bounded by whichever fires first — its own deadline or the
/// connection going away.
pub(crate) fn handle_parsed(
    state: &ServerState,
    parsed: Result<Json, JsonError>,
    cancel: &CancelToken,
) -> (String, bool) {
    let req = match parsed {
        Ok(req @ Json::Object(_)) => req,
        Ok(_) => {
            let error =
                ServerError::new(ErrorCode::InvalidRequest, "request must be a JSON object");
            return (error_line(None, &error), false);
        }
        Err(e) => {
            let error = ServerError::new(ErrorCode::InvalidRequest, e.to_string());
            return (error_line(None, &error), false);
        }
    };

    let mut resp = ObjectBuilder::new();
    if let Some(id) = req.get("id") {
        resp.json("id", id);
    }
    let cmd = match req.get("cmd").and_then(Json::as_str) {
        Some(cmd) => cmd.to_string(),
        None => {
            let error = ServerError::new(ErrorCode::InvalidRequest, "missing \"cmd\" field");
            return (error_line(req.get("id"), &error), false);
        }
    };
    resp.string("cmd", &cmd);

    // Adopt the supplied trace id (echoed back) or mint one (logs only);
    // the guard correlates every structured log event this request emits,
    // on this thread, until the response is rendered.
    let supplied_trace = match get_str(&req, "trace_id") {
        Ok(value) => value,
        Err(message) => {
            let error = ServerError::new(ErrorCode::InvalidRequest, message);
            return (error_line(req.get("id"), &error), false);
        }
    };
    let trace = match &supplied_trace {
        Some(hex) => match sigrule_obs::trace::TraceId::parse(hex) {
            Some(id) => id,
            None => {
                let error = ServerError::new(
                    ErrorCode::InvalidRequest,
                    "\"trace_id\" must be 32 hex digits",
                );
                return (error_line(req.get("id"), &error), false);
            }
        },
        None => sigrule_obs::trace::TraceId::mint(),
    };
    let _trace_guard = sigrule_obs::trace::enter(trace);
    if supplied_trace.is_some() {
        resp.string("trace_id", &trace.to_string());
    }

    if cmd == "shutdown" {
        resp.boolean("ok", true);
        return (resp.finish(), true);
    }
    let began = Instant::now();
    let handled = request_token(&req, cancel).and_then(|request_cancel| match cmd.as_str() {
        "load" => handle_load(state, &req),
        "mine" => handle_mine(state, &req, &request_cancel),
        "correct" => handle_correct(state, &req, &request_cancel),
        "perm_shard" => handle_perm_shard(state, &req, &request_cancel),
        "stats" => handle_stats(state, &req),
        "registry_stats" => handle_registry_stats(state, &req),
        "metrics" => handle_metrics(state, &req),
        other => Err(ServerError::new(
            ErrorCode::InvalidRequest,
            format!(
                "unknown cmd {other:?} (expected load, mine, correct, perm_shard, stats, \
                 registry_stats, metrics or shutdown)"
            ),
        )),
    });
    sigrule_obs::log::info(
        "sigrule::serve",
        "request handled",
        &[
            ("cmd", cmd.as_str().into()),
            ("ok", handled.is_ok().into()),
            ("ms", millis(began.elapsed()).into()),
        ],
    );
    match handled {
        Ok(fields) => {
            resp.boolean("ok", true).raw_fields(fields);
        }
        Err(error) => {
            resp.boolean("ok", false);
            error.render_into(&mut resp);
        }
    }
    (resp.finish(), false)
}

/// The token a request's work runs under: the connection token, narrowed by
/// the request's own `"timeout_ms"` deadline when present.
fn request_token(req: &Json, cancel: &CancelToken) -> Result<CancelToken, ServerError> {
    match get_u64(req, "timeout_ms")? {
        Some(ms) => Ok(cancel.child_with_deadline(Duration::from_millis(ms))),
        None => Ok(cancel.clone()),
    }
}

/// True when a request opted into concurrent handling: a `mine`, `correct`,
/// `perm_shard` or `stats` request carrying `"async":true` runs on a worker
/// thread over
/// the shared registry, without blocking its connection's reader.
/// Everything else — including `load` (which swaps a registered engine),
/// `registry_stats` and `shutdown` — is handled in request order, after
/// every in-flight worker of the connection has finished, so the default
/// flow has deterministic cache semantics (a repeat of the previous request
/// is always warm).
pub(crate) fn runs_async(parsed: &Result<Json, JsonError>) -> bool {
    match parsed {
        Ok(req) => {
            matches!(
                req.get("cmd").and_then(Json::as_str),
                Some("mine") | Some("correct") | Some("perm_shard") | Some("stats")
            ) && req.get("async").and_then(Json::as_bool) == Some(true)
        }
        Err(_) => false,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
pub(crate) mod tests {
    use super::*;
    use sigrule::engine::{Loader, Query};
    use sigrule::{ErrorMetric, RuleMiningConfig};
    use sigrule_data::loader::dataset_to_baskets;
    use sigrule_synth::{BasketGenerator, BasketParams};

    pub(crate) fn fixture_path() -> String {
        // Prefer the checked-in fixture; fall back to a generated file so the
        // unit test does not depend on the repository layout.
        let checked_in = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures/retail_toy.basket");
        if checked_in.exists() {
            return checked_in.to_string_lossy().into_owned();
        }
        let params = BasketParams::default()
            .with_transactions(200)
            .with_items(25)
            .with_rules(1)
            .with_coverage(50, 50)
            .with_confidence(0.9, 0.9);
        let (dataset, _) = BasketGenerator::new(params).unwrap().generate(42);
        let path =
            std::env::temp_dir().join(format!("sigrule_proto_unit_{}.basket", std::process::id()));
        std::fs::write(&path, dataset_to_baskets(&dataset)).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn ok(resp: &str) -> Json {
        let parsed = Json::parse(resp).expect("responses are valid JSON");
        assert_eq!(
            parsed.get("ok").and_then(Json::as_bool),
            Some(true),
            "expected ok response, got {resp}"
        );
        parsed
    }

    fn err(resp: &str) -> String {
        let parsed = Json::parse(resp).expect("responses are valid JSON");
        assert_eq!(
            parsed.get("ok").and_then(Json::as_bool),
            Some(false),
            "expected error response, got {resp}"
        );
        parsed
            .get("error")
            .and_then(Json::as_str)
            .expect("error message")
            .to_string()
    }

    #[test]
    fn session_loads_mines_and_corrects_with_cache_reuse() {
        let state = ServerState::new();
        let path = fixture_path();

        let (resp, _) = handle_line(&state, &format!(r#"{{"cmd":"load","path":"{path}"}}"#));
        let load = ok(&resp);
        assert_eq!(
            load.get("name").and_then(Json::as_str),
            Some(DEFAULT_DATASET)
        );
        let n_records = load.get("records").and_then(Json::as_u64).unwrap();
        assert!(n_records > 0);

        let correct = r#"{"cmd":"correct","min_sup":10,"correction":"permutation","permutations":50,"seed":7,"id":1}"#;
        let (resp, _) = handle_line(&state, correct);
        let cold = ok(&resp);
        assert_eq!(cold.get("id").and_then(Json::as_u64), Some(1));
        assert_eq!(
            cold.get("mined_cached").and_then(Json::as_bool),
            Some(false)
        );
        assert_eq!(cold.get("null_cached").and_then(Json::as_bool), Some(false));

        let (resp, _) = handle_line(&state, correct);
        let warm = ok(&resp);
        assert_eq!(warm.get("mined_cached").and_then(Json::as_bool), Some(true));
        assert_eq!(warm.get("null_cached").and_then(Json::as_bool), Some(true));
        assert_eq!(warm.get("mine_ms").and_then(Json::as_f64), Some(0.0));
        assert_eq!(warm.get("null_ms").and_then(Json::as_f64), Some(0.0));
        // Identical parameters → identical decisions and rule lists.
        assert_eq!(warm.get("significant"), cold.get("significant"));
        assert_eq!(warm.get("p_value_cutoff"), cold.get("p_value_cutoff"));
        assert_eq!(warm.get("rules"), cold.get("rules"));

        // The warm answers match a one-shot run bit for bit.
        let query = Query::new(RuleMiningConfig::new(10))
            .with_correction(CorrectionApproach::Permutation, ErrorMetric::Fwer)
            .with_permutations(50)
            .with_seed(7);
        let one_shot = Loader::default()
            .load_file(&path)
            .unwrap()
            .into_engine()
            .query(&query)
            .unwrap();
        assert_eq!(
            warm.get("significant").and_then(Json::as_u64),
            Some(one_shot.result.n_significant() as u64)
        );

        let (resp, _) = handle_line(&state, r#"{"cmd":"stats"}"#);
        let stats = ok(&resp);
        assert_eq!(stats.get("loaded").and_then(Json::as_bool), Some(true));
        assert_eq!(stats.get("queries").and_then(Json::as_u64), Some(2));
        assert_eq!(stats.get("null_hits").and_then(Json::as_u64), Some(1));
        assert!(stats.get("resident_bytes").and_then(Json::as_u64).unwrap() > 0);
        assert!(stats.get("rule_set_bytes").and_then(Json::as_u64).unwrap() > 0);
        assert!(stats.get("null_bytes").and_then(Json::as_u64).unwrap() > 0);

        let (resp, shutdown) = handle_line(&state, r#"{"cmd":"shutdown"}"#);
        assert!(shutdown);
        ok(&resp);
    }

    #[test]
    fn named_datasets_route_requests_and_report_registry_stats() {
        let state = ServerState::new();
        let path = fixture_path();
        let (resp, _) = handle_line(
            &state,
            &format!(r#"{{"cmd":"load","path":"{path}","name":"a"}}"#),
        );
        assert_eq!(ok(&resp).get("name").and_then(Json::as_str), Some("a"));
        let (resp, _) = handle_line(
            &state,
            &format!(r#"{{"cmd":"load","path":"{path}","name":"b"}}"#),
        );
        ok(&resp);

        // Queries route by dataset; the other engine's caches stay cold.
        let (resp, _) = handle_line(&state, r#"{"cmd":"mine","dataset":"a","min_sup":10}"#);
        let mine = ok(&resp);
        assert_eq!(mine.get("dataset").and_then(Json::as_str), Some("a"));
        let (resp, _) = handle_line(&state, r#"{"cmd":"stats","dataset":"b"}"#);
        assert_eq!(ok(&resp).get("queries").and_then(Json::as_u64), Some(0));

        // The default name is not loaded in this session.
        let (resp, _) = handle_line(&state, r#"{"cmd":"mine","min_sup":10}"#);
        assert!(err(&resp).contains("unknown dataset"));
        let (resp, _) = handle_line(&state, r#"{"cmd":"mine","dataset":"c","min_sup":10}"#);
        let message = err(&resp);
        assert!(
            message.contains("\"c\"") && message.contains("a, b"),
            "{message}"
        );

        // registry_stats lists both engines with their size accounting.
        let (resp, _) = handle_line(&state, r#"{"cmd":"registry_stats"}"#);
        let stats = ok(&resp);
        assert_eq!(stats.get("datasets_loaded").and_then(Json::as_u64), Some(2));
        assert_eq!(stats.get("budget_bytes"), Some(&Json::Null));
        assert_eq!(stats.get("evictions").and_then(Json::as_u64), Some(0));
        let datasets = match stats.get("datasets") {
            Some(Json::Array(items)) => items,
            other => panic!("datasets should be an array, got {other:?}"),
        };
        assert_eq!(datasets.len(), 2);
        assert_eq!(datasets[0].get("name").and_then(Json::as_str), Some("a"));
        assert!(
            datasets[0]
                .get("resident_bytes")
                .and_then(Json::as_u64)
                .unwrap()
                > 0
        );
        assert_eq!(
            datasets[1].get("resident_bytes").and_then(Json::as_u64),
            Some(0)
        );
    }

    #[test]
    fn byte_budget_evicts_and_requeries_stay_bit_identical() {
        // Learn the warm size of one dataset's caches, unbounded.
        let path = fixture_path();
        let correct = r#"{"cmd":"correct","min_sup":10,"correction":"permutation","permutations":40,"seed":5,"top":0}"#;
        let unbounded = ServerState::new();
        let (resp, _) = handle_line(&unbounded, &format!(r#"{{"cmd":"load","path":"{path}"}}"#));
        ok(&resp);
        let (resp, _) = handle_line(&unbounded, correct);
        let reference = ok(&resp);
        let full = unbounded.registry().resident_bytes();
        assert!(full > 0);

        // A budget below one warm cache set forces eviction after every
        // correct; answers must stay bit-identical while bytes stay bounded.
        let budget = full / 2;
        let state = ServerState::with_options(ServerOptions {
            cache_budget_bytes: Some(budget),
            slow_query_ms: None,
        });
        let (resp, _) = handle_line(&state, &format!(r#"{{"cmd":"load","path":"{path}"}}"#));
        ok(&resp);
        for round in 0..3 {
            let (resp, _) = handle_line(&state, correct);
            let got = ok(&resp);
            for field in ["significant", "p_value_cutoff", "hypothesis_tests", "rules"] {
                assert_eq!(
                    got.get(field),
                    reference.get(field),
                    "round {round}: {field}"
                );
            }
            assert!(
                state.registry().resident_bytes() <= budget,
                "round {round}: over budget"
            );
        }
        assert!(state.registry().evictions() > 0);
        let (resp, _) = handle_line(&state, r#"{"cmd":"registry_stats"}"#);
        let stats = ok(&resp);
        assert_eq!(
            stats.get("budget_bytes").and_then(Json::as_u64),
            Some(budget as u64)
        );
        assert!(stats.get("evictions").and_then(Json::as_u64).unwrap() > 0);
        assert!(stats.get("resident_bytes").and_then(Json::as_u64).unwrap() <= budget as u64);
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let state = ServerState::new();
        let (resp, shutdown) = handle_line(&state, "not json");
        assert!(!shutdown);
        err(&resp);

        let (resp, _) = handle_line(&state, r#"{"cmd":"mine"}"#);
        assert!(err(&resp).contains("no dataset loaded"));

        let (resp, _) = handle_line(&state, r#"{"cmd":"transmogrify"}"#);
        assert!(err(&resp).contains("registry_stats"));

        // A misspelled field errors instead of silently running with
        // defaults (parity with the CLI's unknown-flag rejection).
        let (resp, _) = handle_line(&state, r#"{"cmd":"correct","min_supp":5}"#);
        assert!(err(&resp).contains("min_supp"));

        let (resp, _) = handle_line(&state, r#"{"cmd":"load"}"#);
        assert!(err(&resp).contains("path"));

        // An unknown correction name surfaces the FromStr error listing the
        // valid values.
        let path = fixture_path();
        let (_, _) = handle_line(&state, &format!(r#"{{"cmd":"load","path":"{path}"}}"#));
        let (resp, _) = handle_line(&state, r#"{"cmd":"correct","correction":"nope"}"#);
        let message = err(&resp);
        assert!(message.contains("permutation"), "got {message}");
        assert!(message.contains("holdout"), "got {message}");

        // min_sup 0 is rejected consistently by mine and correct.
        for cmd in ["mine", "correct"] {
            let (resp, _) = handle_line(&state, &format!(r#"{{"cmd":"{cmd}","min_sup":0}}"#));
            assert!(err(&resp).contains("min_sup"), "{cmd}");
        }

        // So are an out-of-range min_conf and a zero max_length, by every
        // command that mines, as invalid requests.
        for cmd in ["mine", "correct", "perm_shard"] {
            for (field, value) in [("min_conf", "1.5"), ("min_conf", "-3"), ("max_length", "0")] {
                let line = format!(
                    r#"{{"cmd":"{cmd}","{field}":{value},"permutations":8,"start":0,"end":8}}"#
                );
                let (resp, _) = handle_line(&state, &line);
                assert!(err(&resp).contains(field), "{line}");
                let code = Json::parse(&resp)
                    .unwrap()
                    .get("code")
                    .and_then(Json::as_str)
                    .map(str::to_string);
                assert_eq!(code.as_deref(), Some("invalid_request"), "{line}");
            }
        }

        // A shard range aligned to 8 but not to the 64-permutation chunk is
        // an invalid request, at either end.
        for (start, end) in [(8, 64), (0, 8), (64, 72)] {
            let line =
                format!(r#"{{"cmd":"perm_shard","permutations":200,"start":{start},"end":{end}}}"#);
            let (resp, _) = handle_line(&state, &line);
            assert!(err(&resp).contains("64-permutation chunk"), "{line}");
            let code = Json::parse(&resp)
                .unwrap()
                .get("code")
                .and_then(Json::as_str)
                .map(str::to_string);
            assert_eq!(code.as_deref(), Some("invalid_request"), "{line}");
        }

        // An empty dataset name on load is rejected.
        let (resp, _) = handle_line(
            &state,
            &format!(r#"{{"cmd":"load","path":"{path}","name":""}}"#),
        );
        assert!(err(&resp).contains("name"));
    }

    /// Golden check on the `metrics` exposition: well-formed Prometheus
    /// text (HELP/TYPE once per family, no duplicate families, cumulative
    /// histogram buckets ending at +Inf == count) covering the required
    /// families after one cold query.
    #[test]
    fn metrics_request_returns_valid_prometheus_exposition() {
        let state = ServerState::new();
        let path = fixture_path();
        let (resp, _) = handle_line(
            &state,
            &format!(r#"{{"cmd":"load","path":"{path}","name":"expo"}}"#),
        );
        ok(&resp);
        let (resp, _) = handle_line(
            &state,
            r#"{"cmd":"correct","dataset":"expo","min_sup":10,"correction":"permutation","permutations":40,"seed":3}"#,
        );
        ok(&resp);

        let (resp, _) = handle_line(&state, r#"{"cmd":"metrics"}"#);
        let metrics = ok(&resp);
        assert_eq!(
            metrics.get("format").and_then(Json::as_str),
            Some("prometheus")
        );
        let body = metrics.get("body").and_then(Json::as_str).unwrap();

        // Structure: every family announced by exactly one HELP + one TYPE
        // line, in that order, before its samples; no duplicates.
        let mut seen: Vec<String> = Vec::new();
        let mut current: Option<(String, String)> = None; // (family, type)
        let mut bucket_run: Vec<(f64, u64)> = Vec::new();
        let mut bucket_counts: std::collections::HashMap<String, u64> =
            std::collections::HashMap::new();
        for line in body.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let family = rest.split(' ').next().unwrap().to_string();
                assert!(
                    !seen.contains(&family),
                    "duplicate family {family} in exposition"
                );
                seen.push(family.clone());
                current = Some((family, String::new()));
                bucket_run.clear();
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split(' ');
                let family = parts.next().unwrap();
                let kind = parts.next().unwrap();
                let (announced, slot) = current.as_mut().expect("TYPE follows HELP");
                assert_eq!(announced.as_str(), family, "TYPE names the HELP family");
                assert!(
                    matches!(kind, "counter" | "gauge" | "histogram"),
                    "unknown TYPE {kind}"
                );
                *slot = kind.to_string();
            } else if !line.is_empty() {
                let (family, kind) = current.as_ref().expect("samples follow HELP/TYPE");
                let (name_labels, value) = line.rsplit_once(' ').unwrap();
                assert!(
                    name_labels.starts_with(family.as_str()),
                    "sample {name_labels} outside family {family}"
                );
                if kind == "histogram" && name_labels.contains("_bucket") {
                    let le = name_labels
                        .split("le=\"")
                        .nth(1)
                        .and_then(|s| s.split('"').next())
                        .unwrap();
                    let le: f64 = if le == "+Inf" {
                        f64::INFINITY
                    } else {
                        le.parse().unwrap()
                    };
                    let count: u64 = value.parse().unwrap();
                    if let Some(&(prev_le, prev_count)) = bucket_run.last() {
                        if le > prev_le {
                            assert!(
                                count >= prev_count,
                                "bucket counts must be cumulative: {line}"
                            );
                        } else {
                            bucket_run.clear(); // a new series began
                        }
                    }
                    bucket_run.push((le, count));
                    if le.is_infinite() {
                        let series = name_labels.replace("_bucket", "_count");
                        let series = series.split("le=\"").next().unwrap().to_string();
                        bucket_counts.insert(series, count);
                    }
                }
            }
        }
        for family in [
            "sigrule_queries_total",
            "sigrule_cache_hits_total",
            "sigrule_cache_misses_total",
            "sigrule_cache_evictions_total",
            "sigrule_query_phase_seconds",
            "sigrule_cache_resident_bytes",
            "sigrule_shards_total",
            "sigrule_kernel_sweeps_total",
        ] {
            assert!(seen.iter().any(|f| f == family), "missing family {family}");
        }
        // The exposition equals the engine's own accounting.
        let (resp, _) = handle_line(&state, r#"{"cmd":"stats","dataset":"expo"}"#);
        let stats = ok(&resp);
        let queries = stats.get("queries").and_then(Json::as_u64).unwrap();
        assert!(
            body.contains(&format!(
                "sigrule_queries_total{{dataset=\"expo\"}} {queries}"
            )),
            "exposition must carry the engine's query count:\n{body}"
        );

        // JSON format renders the same registry as structured data.
        let (resp, _) = handle_line(&state, r#"{"cmd":"metrics","format":"json"}"#);
        let as_json = ok(&resp);
        assert_eq!(as_json.get("format").and_then(Json::as_str), Some("json"));
        assert!(as_json.get("metrics").is_some(), "json body present");

        // An unknown format is rejected.
        let (resp, _) = handle_line(&state, r#"{"cmd":"metrics","format":"xml"}"#);
        assert!(err(&resp).contains("prometheus"));
    }

    /// A supplied trace id is validated and echoed; absent ids are minted
    /// for the logs only and never change the response surface.
    #[test]
    fn trace_ids_echo_only_when_supplied() {
        let state = ServerState::new();
        let id = "00112233445566778899aabbccddeeff";
        let (resp, _) = handle_line(
            &state,
            &format!(r#"{{"cmd":"registry_stats","trace_id":"{id}"}}"#),
        );
        let echoed = ok(&resp);
        assert_eq!(echoed.get("trace_id").and_then(Json::as_str), Some(id));

        let (resp, _) = handle_line(&state, r#"{"cmd":"registry_stats"}"#);
        let minted = ok(&resp);
        assert!(
            minted.get("trace_id").is_none(),
            "minted ids are logs-only: {resp}"
        );

        let (resp, _) = handle_line(&state, r#"{"cmd":"registry_stats","trace_id":"zz"}"#);
        assert!(err(&resp).contains("32 hex digits"));
    }

    /// `registry_stats` surfaces the per-engine eviction split and the
    /// process-wide kernel and shard counters.
    #[test]
    fn registry_stats_carries_eviction_and_shard_counters() {
        let state = ServerState::new();
        let (resp, _) = handle_line(&state, r#"{"cmd":"registry_stats"}"#);
        let stats = ok(&resp);
        assert!(
            stats.get("kernel").and_then(Json::as_str).is_some(),
            "missing kernel: {resp}"
        );
        for field in [
            "evicted_rule_sets",
            "evicted_nulls",
            "batched_sweeps",
            "shards_local",
            "shards_remote",
            "shard_retries",
            "remote_ms",
        ] {
            assert!(
                stats.get(field).and_then(Json::as_u64).is_some(),
                "missing {field}: {resp}"
            );
        }
    }

    /// Process-wide counters are reported once, at the registry level, and
    /// the scrape renders the very atomic `registry_stats` reads: a
    /// per-dataset `stats` answer carries no kernel or shard field, however
    /// busy another dataset's engine was.
    #[test]
    fn process_wide_counters_leave_per_dataset_stats() {
        let state = ServerState::new();
        let path = fixture_path();
        for name in ["pw_a", "pw_b"] {
            let (resp, _) = handle_line(
                &state,
                &format!(r#"{{"cmd":"load","path":"{path}","name":"{name}"}}"#),
            );
            ok(&resp);
        }
        let (resp, _) = handle_line(
            &state,
            r#"{"cmd":"correct","dataset":"pw_a","min_sup":10,"correction":"permutation","permutations":40,"seed":3}"#,
        );
        ok(&resp);

        let (resp, _) = handle_line(&state, r#"{"cmd":"stats","dataset":"pw_b"}"#);
        let stats = ok(&resp);
        assert_eq!(stats.get("queries").and_then(Json::as_u64), Some(0));
        for field in [
            "kernel",
            "batched_sweeps",
            "shards_local",
            "shards_remote",
            "shard_retries",
            "remote_ms",
        ] {
            assert!(stats.get(field).is_none(), "per-dataset {field}: {resp}");
        }

        // Other tests sweep the same process-wide atomic concurrently, so
        // compare inside a window where two scrapes agree (the counter is
        // monotone: a quiet window pins its value).
        let scraped = |state: &ServerState| -> u64 {
            let (resp, _) = handle_line(state, r#"{"cmd":"metrics"}"#);
            let body = ok(&resp)
                .get("body")
                .and_then(Json::as_str)
                .unwrap()
                .to_string();
            let line = body
                .lines()
                .find(|l| l.starts_with("sigrule_kernel_sweeps_total{mode=\"batched\"} "))
                .unwrap_or_else(|| panic!("no batched sweep series:\n{body}"));
            line.rsplit(' ').next().unwrap().parse().unwrap()
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut compared = false;
        while !compared && Instant::now() < deadline {
            let before = scraped(&state);
            let (resp, _) = handle_line(&state, r#"{"cmd":"registry_stats"}"#);
            let reported = ok(&resp)
                .get("batched_sweeps")
                .and_then(Json::as_u64)
                .unwrap();
            let after = scraped(&state);
            assert!(before > 0, "the permutation correct swept the kernel");
            assert!(before <= reported && reported <= after);
            if before == after {
                assert_eq!(
                    reported, before,
                    "registry_stats and the scrape read one store"
                );
                compared = true;
            }
        }
        assert!(compared, "no quiet window in which to compare");
    }

    /// The slow-query threshold gates the structured record; at 0 ms every
    /// query is slow, and the record carries the per-phase breakdown.
    #[test]
    fn slow_query_threshold_is_wired_through_options() {
        let state = ServerState::with_options(ServerOptions {
            cache_budget_bytes: None,
            slow_query_ms: Some(0),
        });
        let path = fixture_path();
        let (resp, _) = handle_line(&state, &format!(r#"{{"cmd":"load","path":"{path}"}}"#));
        ok(&resp);
        // The record goes to stderr (not capturable here without process
        // isolation); this test pins that the option threads through and
        // the request still answers normally.  The e2e suite asserts the
        // record's contents from a spawned process.
        let (resp, _) = handle_line(
            &state,
            r#"{"cmd":"correct","min_sup":10,"correction":"bonferroni"}"#,
        );
        ok(&resp);
    }

    /// A served `"threads"` is capped at the host's parallelism; smaller
    /// values, 0 (the ambient default) and an absent field pass unchanged.
    /// Only parsed, never run: a huge value must not start threads here.
    #[test]
    fn served_thread_counts_are_capped_at_the_host() {
        let cap = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = |line: &str| get_threads(&Json::parse(line).unwrap());
        assert_eq!(
            threads(r#"{"cmd":"correct","threads":100000}"#),
            Ok(Some(cap))
        );
        assert_eq!(
            threads(r#"{"cmd":"perm_shard","threads":9007199254740992}"#),
            Ok(Some(cap))
        );
        assert_eq!(threads(r#"{"cmd":"correct","threads":1}"#), Ok(Some(1)));
        assert_eq!(threads(r#"{"cmd":"correct","threads":0}"#), Ok(Some(0)));
        assert_eq!(threads(r#"{"cmd":"correct"}"#), Ok(None));
        assert!(threads(r#"{"cmd":"correct","threads":-2}"#).is_err());
    }
}
