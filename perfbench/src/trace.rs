//! The traced run: each layer's public call, timed from outside under a
//! span, on the same inputs the end-to-end run uses.  Spans live in memory
//! and are written to the work directory when the run ends.
//!
//! The in-process calls follow the cold pipeline in order — load, index,
//! mine, static tables, permutation null, decisions, random holdout — and
//! `d2k-shard` adds the distributed scatter and the merge.  Each traced
//! pass is followed by one untraced cold sample: the end-to-end time the
//! pass's layer self times are subtracted from.  Then come the engine's
//! warm query and the served warm cycle for the rest of the budget.

use crate::host;
use crate::report;
use crate::stats::{self, Span};
use crate::workload::{self, Answer, Ctx, Decision, Reference, Rig, Schedule, Warm, Workload};
use crate::{metric, numbers, Metric, Outcome};
use sigrule::cancel::CancelToken;
use sigrule::correction::permutation::{
    rayon_pool, PermutationCorrection, PermutationStats, SupportBackend,
};
use sigrule::correction::{direct, holdout, RandomHoldout};
use sigrule::engine::{Engine, Loader};
use sigrule::{mine_rules_with_vertical, ErrorMetric, MinedRuleSet};
use sigrule_data::{kernel, SharedDataset};
use sigrule_server::coordinate::{self, DistributedNull, ShardReport, ShardSpec};
use sigrule_server::json::{Json, ObjectBuilder};
use sigrule_server::ListenAddr;
use std::time::{Duration, Instant};

/// Traced pipeline passes, each followed by one untraced cold sample; every
/// pipeline metric is the median over the passes.
const PASSES: u64 = 3;
/// Warm in-process engine queries timed for `engine.warm_query_ms`.
const ENGINE_QUERIES: usize = 50;

/// Every per-layer metric, in the order they are printed.
pub const PER_LAYER: [&str; 33] = [
    "data.load_ms",
    "data.index_ms",
    "mining.mine_ms",
    "mining.forest_nodes",
    "mining.rules",
    "mining.us_per_node",
    "stats.tables_ms",
    "perm.null_ms",
    "perm.ns_per_rule_perm",
    "perm.cpu_util",
    "perm.bitmap_nodes",
    "perm.batched_sweeps",
    "perm.per_perm_sweeps",
    "decide.fwer_ms",
    "decide.fdr_ms",
    "decide.direct_ms",
    "holdout.rh_ms",
    "holdout.candidates",
    "engine.warm_query_ms",
    "engine.null_hit_ratio",
    "engine.resident_mb",
    "front.warm_ms",
    "front.small_ms",
    "json.parse_us",
    "json.response_bytes",
    "coord.scatter_ms",
    "coord.merge_ms",
    "coord.shards_local",
    "coord.shards_remote",
    "coord.shard_retries",
    "coord.remote_wait_ms",
    "proc.cpu_s",
    "trace.unattributed_ms",
];

/// In-memory span recorder for one trace.
struct Tracer {
    origin: Instant,
    trace_id: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new(seed: u64) -> Tracer {
        let mut state = seed;
        let (hi, lo) = (
            workload::splitmix(&mut state),
            workload::splitmix(&mut state),
        );
        Tracer {
            origin: Instant::now(),
            trace_id: format!("{hi:016x}{lo:016x}"),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span, child of the innermost open one.
    fn begin(&mut self, name: &str) {
        self.spans.push(Span {
            name: name.to_string(),
            start_us: self.now_us(),
            end_us: f64::NAN,
            parent: self.open.last().copied(),
            trace_id: self.trace_id.clone(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    fn end(&mut self) {
        let index = self.open.pop().expect("end() matches a begin()");
        self.spans[index].end_us = self.now_us();
    }

    /// Runs `f` inside a span named `name`.
    fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Durations of the spans named `name` from span `first` on, in ms.
    fn durations_ms(&self, first: usize, name: &str) -> Vec<f64> {
        self.spans[first..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_us() / 1e3)
            .collect()
    }

    /// Total duration of the spans named `name` from span `first` on, in ms.
    fn ms(&self, first: usize, name: &str) -> f64 {
        self.durations_ms(first, name).iter().sum()
    }

    /// Sum of the self times of every span from span `first` on with one of
    /// `names`, in ms.
    fn self_ms(&self, first: usize, names: &[&str]) -> f64 {
        (first..self.spans.len())
            .filter(|&i| names.contains(&self.spans[i].name.as_str()))
            .map(|i| stats::self_time_us(&self.spans, i) / 1e3)
            .sum()
    }

    /// The spans as a JSON array, one span per line, with their self times.
    fn to_json(&self) -> String {
        let lines: Vec<String> = (0..self.spans.len())
            .map(|i| {
                let s = &self.spans[i];
                let mut o = ObjectBuilder::new();
                o.string("name", &s.name)
                    .number("start_us", s.start_us)
                    .number("end_us", s.end_us)
                    .raw("parent", s.parent.map_or("null".into(), |p| p.to_string()))
                    .string("trace_id", &s.trace_id)
                    .number("self_us", stats::self_time_us(&self.spans, i));
                o.finish()
            })
            .collect();
        format!("[\n{}\n]\n", lines.join(",\n"))
    }
}

/// Counts the traced run's checked operations and failures.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn record(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: traced run: {what} failed its check");
        }
    }
}

/// The traced run: set up once, then [`PASSES`] traced pipeline passes,
/// the warm engine queries and the served cycle for the rest of `budget`.
pub fn run(ctx: &Ctx, budget: Duration) -> Result<Outcome, String> {
    let mut rig = workload::set_up(ctx)?;
    let start = Instant::now();
    let mut tracer = Tracer::new(ctx.seed);
    let mut tally = Tally::default();
    let primary = rig.primary.clone();
    let seed = ctx.query_seed();
    let mut reference = Reference::new(&primary)?;
    let expected_report = match ctx.workload.cold_is_process() {
        true => Some(report::normalize(&rig.warmup.output)?),
        false => None,
    };

    let mut passes = Vec::new();
    let mut unattributed_ms = Vec::new();
    let mut cold_ms = Vec::new();
    let mut cold_cpu = Vec::new();
    for pass in 1..=PASSES {
        let first = tracer.spans.len();
        tracer.begin("pipeline");
        let mut metrics = Vec::new();
        let local = pipeline(ctx, &rig, &mut tracer, &mut tally, &mut metrics)?;
        tracer.end();
        passes.push(metrics);
        tally.record(
            reference.answer(Decision::COLD, seed)? == local,
            "the in-process pipeline's FWER answer",
        );

        // An untraced cold sample: the end-to-end time the pass's layers
        // should add up to.
        let sample = workload::cold_sample(ctx, &mut rig.server, pass)?;
        let ok = sample.ok
            && match &expected_report {
                Some(expected) => report::normalize(&sample.output).as_ref() == Ok(expected),
                None => {
                    workload::served_answer(&sample.output)
                        == Some(reference.answer(Decision::COLD, sample.seed)?)
                }
            };
        tally.record(ok, "a cold sample");
        unattributed_ms.push(sample.wall_ms - tracer.self_ms(first, cold_path(ctx.workload)));
        cold_ms.push(sample.wall_ms);
        cold_cpu.push(sample.cpu_s);
    }
    let mut metrics = median_over(&passes);

    // The engine's warm query, with the served parameters.
    let first = tracer.spans.len();
    let mut schedule = Schedule::new(ctx.seed, 1);
    for _ in 0..ENGINE_QUERIES {
        let query = schedule.next_decision().query(&primary, seed);
        let engine: &Engine = reference.engine();
        let outcome = tracer.span("engine.warm_query", || engine.query(&query));
        tally.record(outcome.is_ok(), "an in-process warm query");
    }
    metrics.push(metric(
        "engine.warm_query_ms",
        stats::median(&tracer.durations_ms(first, "engine.warm_query")).unwrap_or(0.0),
        "ms",
    ));

    served(
        ctx,
        &mut rig,
        &mut reference,
        budget.saturating_sub(start.elapsed()),
        &mut tally,
        &mut metrics,
    )?;
    metrics.push(metric(
        "proc.cpu_s",
        stats::median(&cold_cpu).unwrap_or(0.0),
        "s",
    ));
    metrics.push(metric(
        "trace.unattributed_ms",
        stats::median(&unattributed_ms).unwrap_or(0.0),
        "ms",
    ));

    let registry = rig.server.request_ok(r#"{"cmd":"registry_stats"}"#)?;
    let total = |field: &str| -> f64 {
        match registry.get("datasets") {
            Some(Json::Array(datasets)) => datasets
                .iter()
                .filter_map(|d| d.get(field).and_then(Json::as_f64))
                .sum(),
            _ => 0.0,
        }
    };
    metrics.push(metric(
        "engine.null_hit_ratio",
        total("null_hits") / total("queries").max(1.0),
        "ratio",
    ));
    metrics.push(metric(
        "engine.resident_mb",
        registry
            .get("resident_bytes")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            / (1024.0 * 1024.0),
        "MB",
    ));
    rig.server.shutdown()?;

    let spans_file = ctx.work.join("spans.json");
    std::fs::write(&spans_file, tracer.to_json()).map_err(|e| format!("writing spans: {e}"))?;
    metrics.sort_by_key(|m| PER_LAYER.iter().position(|&n| n == m.name));
    let mut context = ObjectBuilder::new();
    context
        .string("trace_id", &tracer.trace_id)
        .number("spans", tracer.spans.len() as f64)
        .string("spans_file", &spans_file.display().to_string())
        .number("passes", PASSES as f64)
        .json("untraced_cold_ms", &numbers(&cold_ms))
        .json("unattributed_ms", &numbers(&unattributed_ms));
    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        context,
    })
}

/// Each metric's median over `passes`, which all report the same metrics
/// in the same order.
fn median_over(passes: &[Vec<Metric>]) -> Vec<Metric> {
    passes[0]
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = passes.iter().map(|pass| pass[i].value).collect();
            metric(m.name, stats::median(&values).unwrap_or(m.value), m.unit)
        })
        .collect()
}

/// The layer spans a cold sample of `workload` passes through.
fn cold_path(workload: Workload) -> &'static [&'static str] {
    match workload {
        // A served cold request finds the rule set and tables cached.
        Workload::ServeMixed => &["perm.null", "decide.fwer"],
        // The scatter builds the tables and collects the null.
        Workload::D2kShard => &[
            "data.load",
            "data.index",
            "mining.mine",
            "coord.scatter",
            "decide.fwer",
            "decide.fdr",
            "decide.direct",
            "holdout.rh",
        ],
        Workload::D2kCold | Workload::BasketCold => &[
            "data.load",
            "data.index",
            "mining.mine",
            "stats.tables",
            "perm.null",
            "decide.fwer",
            "decide.fdr",
            "decide.direct",
            "holdout.rh",
        ],
    }
}

/// The cold pipeline, one public call per layer, in order.  Returns the
/// permutation FWER answer at α = 0.05 for the reference check.
fn pipeline(
    ctx: &Ctx,
    rig: &Rig,
    t: &mut Tracer,
    tally: &mut Tally,
    metrics: &mut Vec<Metric>,
) -> Result<Answer, String> {
    let primary = &rig.primary;
    let (seed, n, mining) = (ctx.query_seed(), primary.permutations, primary.mining());
    let first = t.spans.len();

    let loaded = t
        .span("data.load", || Loader::default().load_file(&primary.path))
        .map_err(|e| format!("loading {}: {e}", primary.path.display()))?;
    let shared = SharedDataset::new(loaded.dataset);
    t.span("data.index", || {
        shared.vertical();
        shared.class_bitmaps();
    });
    let mined = t.span("mining.mine", || {
        mine_rules_with_vertical(shared.dataset(), &shared.vertical(), &mining)
    });
    let correction = PermutationCorrection::new(n).with_seed(seed);
    let tables = t.span("stats.tables", || correction.build_shared_tables(&mined));
    let pool =
        rayon_pool(workload::threads()).map_err(|e| format!("building the thread pool: {e:?}"))?;
    let sweeps_before = kernel::counters();
    let cpu_before = host::self_cpu_s();
    let partial = t
        .span("perm.null", || {
            pool.install(|| {
                correction.collect_stats_range(&mined, Some(&tables), &CancelToken::none(), 0, n)
            })
        })
        .map_err(|_| "the permutation null was cancelled".to_string())?;
    let null_cpu_s = host::self_cpu_s() - cpu_before;
    let sweeps_after = kernel::counters();
    let null = PermutationStats::merge(std::slice::from_ref(&partial))
        .map_err(|e| format!("wrapping the null: {e}"))?;
    let fwer = t.span("decide.fwer", || {
        correction.fwer_from_stats(&mined, &null, 0.05)
    });
    t.span("decide.fdr", || {
        correction.fdr_from_stats(&mined, &null, 0.05)
    });
    t.span("decide.direct", || {
        direct::bonferroni(&mined, 0.05);
        direct::benjamini_hochberg(&mined, 0.05);
    });
    // The exploratory half is mined at half the support, as the engine does.
    let exploratory = RandomHoldout::from_mining(seed, &mining).exploratory;
    let mut candidates = 0;
    for metric in [ErrorMetric::Fwer, ErrorMetric::Fdr] {
        let result = t.span("holdout.rh", || {
            holdout::random_holdout(shared.dataset(), seed, &exploratory, metric, 0.05)
        });
        candidates = result.n_tests;
    }
    // The coordinator's counters stay zero where nothing is scattered.
    let coord = if ctx.workload == Workload::D2kShard {
        scatter(t, tally, rig, seed, &shared, &mined, &null)?
    } else {
        ShardReport::default()
    };

    let forest_nodes = mined.forest().len() as f64;
    let rules = mined.rules().len() as f64;
    let null_ms = t.ms(first, "perm.null");
    metrics.extend([
        metric("data.load_ms", t.ms(first, "data.load"), "ms"),
        metric("data.index_ms", t.ms(first, "data.index"), "ms"),
        metric("mining.mine_ms", t.ms(first, "mining.mine"), "ms"),
        metric("mining.forest_nodes", forest_nodes, "count"),
        metric("mining.rules", rules, "count"),
        metric(
            "mining.us_per_node",
            t.ms(first, "mining.mine") * 1e3 / forest_nodes,
            "us",
        ),
        metric("stats.tables_ms", t.ms(first, "stats.tables"), "ms"),
        metric("perm.null_ms", null_ms, "ms"),
        metric(
            "perm.ns_per_rule_perm",
            null_ms * 1e6 / (rules * n as f64),
            "ns",
        ),
        metric(
            "perm.cpu_util",
            null_cpu_s * 1e3 / (null_ms * workload::threads() as f64),
            "ratio",
        ),
        metric(
            "perm.bitmap_nodes",
            mined
                .forest()
                .support_plan(SupportBackend::Auto)
                .n_bitmap_nodes() as f64,
            "count",
        ),
        metric(
            "perm.batched_sweeps",
            (sweeps_after.batched_sweeps - sweeps_before.batched_sweeps) as f64,
            "count",
        ),
        metric(
            "perm.per_perm_sweeps",
            (sweeps_after.per_perm_sweeps - sweeps_before.per_perm_sweeps) as f64,
            "count",
        ),
        metric("decide.fwer_ms", t.ms(first, "decide.fwer"), "ms"),
        metric("decide.fdr_ms", t.ms(first, "decide.fdr"), "ms"),
        metric("decide.direct_ms", t.ms(first, "decide.direct"), "ms"),
        metric("holdout.rh_ms", t.ms(first, "holdout.rh") / 2.0, "ms"),
        metric("holdout.candidates", candidates as f64, "count"),
        metric("coord.scatter_ms", t.ms(first, "coord.scatter"), "ms"),
        metric("coord.merge_ms", t.ms(first, "coord.merge"), "ms"),
        metric("coord.shards_local", coord.shards_local as f64, "count"),
        metric("coord.shards_remote", coord.shards_remote as f64, "count"),
        metric("coord.shard_retries", coord.retries as f64, "count"),
        metric("coord.remote_wait_ms", coord.remote_ms as f64, "ms"),
    ]);
    Ok((
        fwer.n_significant() as u64,
        fwer.p_value_cutoff.map(f64::to_bits),
    ))
}

/// Scatters the null across the local executor (one thread) and the
/// resident server, as `sigrule correct --threads 1 --workers` does, then
/// times the merge of a two-executor partition.  Both must agree with the
/// local null.
fn scatter(
    t: &mut Tracer,
    tally: &mut Tally,
    rig: &Rig,
    seed: u64,
    shared: &SharedDataset,
    mined: &MinedRuleSet,
    local: &PermutationStats,
) -> Result<ShardReport, String> {
    let primary = &rig.primary;
    let mining = primary.mining();
    let correction = PermutationCorrection::new(primary.permutations).with_seed(seed);
    let engine = Engine::from_shared(shared.clone());
    // Mined outside the span: the scatter times the null alone.
    engine.mine(&mining);
    let name = format!("perfbench:{}", primary.path.display());
    let mut spec = ShardSpec::new(&name, &mining, primary.permutations, seed);
    spec.threads = Some(1);
    let plan = DistributedNull {
        workers: vec![ListenAddr::Tcp(rig.server.addr().to_string())],
        load_line: Some(format!(
            r#"{{"cmd":"load","path":"{}","name":"{name}"}}"#,
            primary.path.display()
        )),
        spec,
    };
    let fill = t
        .span("coord.scatter", || {
            coordinate::fill_engine_null(&engine, &plan, &CancelToken::none())
        })
        .map_err(|_| "the scatter was cancelled".to_string())?;
    for warning in &fill.warnings {
        eprintln!("perfbench: scatter: {warning}");
    }
    let warm = engine
        .query(&Decision::COLD.query(primary, seed))
        .map_err(|e| format!("querying the scattered null: {e}"))?;
    let local_fwer = correction.fwer_from_stats(mined, local, Decision::COLD.alpha);
    tally.record(
        warm.null_cached == Some(true)
            && warm.result.p_value_cutoff.map(f64::to_bits)
                == local_fwer.p_value_cutoff.map(f64::to_bits),
        "the scattered null",
    );

    let partials = coordinate::partition_ranges(primary.permutations, 2)
        .into_iter()
        .map(|(start, end)| {
            correction.collect_stats_range(mined, None, &CancelToken::none(), start, end)
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|_| "a partial null was cancelled".to_string())?;
    let merged = t
        .span("coord.merge", || PermutationStats::merge(&partials))
        .map_err(|e| format!("merging partial nulls: {e}"))?;
    tally.record(merged == *local, "the merged null");
    Ok(fill.report)
}

/// Replays warm cycles against the resident server for the budget and
/// derives the front-end metrics: client round trip minus the server's own
/// stage timings, and the cost of parsing what came back.
fn served(
    ctx: &Ctx,
    rig: &mut Rig,
    reference: &mut Reference,
    budget: Duration,
    tally: &mut Tally,
    metrics: &mut Vec<Metric>,
) -> Result<(), String> {
    let seed = ctx.query_seed();
    let mut retail = Reference::new(&rig.retail)?;
    let mut warm_schedule = Schedule::new(ctx.seed, 1);
    let mut small_schedule = Schedule::new(ctx.seed, 2);
    let mut warm = Vec::new();
    let mut small = Vec::new();
    let (warm_count, small_count) = ctx.workload.warm_per_cycle();
    let start = Instant::now();
    while warm.len() < 100 || start.elapsed() < budget {
        let server = &mut rig.server;
        let primary = &rig.primary;
        workload::send_warm(
            server,
            primary,
            &mut warm_schedule,
            warm_count,
            seed,
            &mut warm,
        )?;
        let retail = &rig.retail;
        workload::send_warm(
            server,
            retail,
            &mut small_schedule,
            small_count,
            seed,
            &mut small,
        )?;
    }
    let mut front = |requests: &[Warm], reference: &mut Reference| {
        let mut outside_ms = Vec::with_capacity(requests.len());
        for request in requests {
            let json = Json::parse(&request.response).ok();
            let server_ms: f64 = ["mine_ms", "null_ms", "correct_ms"]
                .iter()
                .filter_map(|f| json.as_ref()?.get(f)?.as_f64())
                .sum();
            outside_ms.push(request.ms - server_ms);
            let expected = reference.answer(request.decision, seed)?;
            tally.record(
                workload::served_answer(&request.response) == Some(expected),
                "a served warm answer",
            );
        }
        Ok::<f64, String>(stats::median(&outside_ms).unwrap_or(0.0))
    };
    let front_warm = front(&warm, reference)?;
    let front_small = front(&small, &mut retail)?;

    let mut parse_us = Vec::with_capacity(warm.len());
    for request in &warm {
        let start = Instant::now();
        let parsed = std::hint::black_box(Json::parse(std::hint::black_box(&request.response)));
        parse_us.push(start.elapsed().as_secs_f64() * 1e6);
        drop(parsed);
    }
    // Over the first 100 responses only, so the figure repeats exactly.
    let first = &warm[..100];
    let bytes: usize = first.iter().map(|w| w.response.len() + 1).sum();
    metrics.extend([
        metric("front.warm_ms", front_warm, "ms"),
        metric("front.small_ms", front_small, "ms"),
        metric(
            "json.parse_us",
            stats::median(&parse_us).unwrap_or(0.0),
            "us",
        ),
        metric(
            "json.response_bytes",
            bytes as f64 / first.len() as f64,
            "bytes",
        ),
    ]);
    Ok(())
}
