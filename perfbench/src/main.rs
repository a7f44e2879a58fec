//! The sigrule performance ledger.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload d2k-cold --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Run from the repository root.  It builds the release `sigrule` binary,
//! generates the workload's inputs from the seed, and prints one JSON
//! object as the last line of stdout: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of the traced run with `--trace 1`.
//! A line before it records the host context.  See `perfbench/README.md`.

mod binary;
mod host;
mod report;
mod stats;
mod trace;
mod workload;

use sigrule_server::json::{Json, ObjectBuilder};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Ctx, Workload};

/// Times the set-up is repeated in one run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!(
            "unknown workload {name:?}; expected one of {}",
            names.join(", ")
        )
    })?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        trace,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// Sample counts and other facts recorded next to the metrics.
    pub context: ObjectBuilder,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Builds, runs the workload and renders the result line; the host
/// context goes to stdout just before it and to the work directory.
fn run(args: &Args) -> Result<String, String> {
    let load_start = host::load_average();
    let steal_start = host::steal_s();
    let bin = binary::build()?;
    let work = PathBuf::from(".bench_work").join(args.workload.name());
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        bin,
        work,
    };
    let budget = Duration::from_secs(args.seconds);
    let outcome = if args.trace {
        trace::run(&ctx, budget)?
    } else {
        end_to_end(&ctx, budget)?
    };

    let mut context = ObjectBuilder::new();
    context
        .string("workload", ctx.workload.name())
        .number("seed", ctx.seed as f64)
        .number("query_seed", ctx.query_seed() as f64)
        .number("nproc", host::nproc() as f64)
        .number("threads", workload::threads() as f64)
        .string("kernel", sigrule_data::kernel::counters().kernel)
        .string("loadavg_start", &load_start)
        .string("loadavg_end", &host::load_average())
        .raw(
            "steal_s",
            match (steal_start, host::steal_s()) {
                (Some(start), Some(end)) => format!("{:.2}", end - start),
                _ => "null".into(),
            },
        )
        .string("commit", &host::commit())
        .string("source_digest", &host::source_digest())
        .boolean("trace", args.trace)
        .raw_fields(outcome.context);
    let context = context.finish();
    std::fs::write(
        ctx.work.join(if args.trace {
            "context-trace.json"
        } else {
            "context.json"
        }),
        &context,
    )
    .map_err(|e| format!("writing context: {e}"))?;
    println!("{{\"context\":{context}}}");

    let mut metrics = ObjectBuilder::new();
    for m in &outcome.metrics {
        let mut entry = ObjectBuilder::new();
        entry.number("value", m.value).string("unit", m.unit);
        metrics.raw(m.name, entry.finish());
    }
    let mut line = ObjectBuilder::new();
    line.boolean("correct", outcome.correct)
        .number("attempted", outcome.attempted as f64)
        .number("failed", outcome.failed as f64)
        .raw("metrics", metrics.finish());
    Ok(line.finish())
}

/// A JSON array of numbers.
pub fn numbers(values: &[f64]) -> Json {
    Json::Array(values.iter().map(|&v| Json::Number(v)).collect())
}

/// The untraced run: set up [`SETUP_REPEATS`] times, measure for the
/// budget, check every answer, report the end-to-end metrics.
fn end_to_end(ctx: &Ctx, budget: Duration) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut rig: Option<workload::Rig> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = rig.take() {
            previous.server.shutdown()?;
        }
        let start = Instant::now();
        rig = Some(workload::set_up(ctx)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("set up at least once");
    let ledger = workload::measure(ctx, &mut rig, budget)?;
    let server_rss_mb = host::peak_rss_mb(rig.server.pid())?;
    let verdict = workload::check(ctx, &rig, &ledger)?;
    rig.server.shutdown()?;
    for problem in &verdict.problems {
        eprintln!("perfbench: {problem}");
    }

    let cold_ms: Vec<f64> = ledger.cold.iter().map(|s| s.wall_ms).collect();
    let warm_ms: Vec<f64> = ledger.warm.iter().map(|w| w.ms).collect();
    let small_ms: Vec<f64> = ledger.small.iter().map(|w| w.ms).collect();
    let process_rss: Vec<f64> = ledger.cold.iter().filter_map(|s| s.peak_rss_mb).collect();
    let median = |samples: &[f64]| stats::median(samples).unwrap_or(0.0);
    // Warm and small round trips are summarised per sample cycle (p50 and
    // p90 of the cycle's requests), and the median over cycles goes to the
    // context only: sub-millisecond round trips follow the hypervisor's
    // stolen time so closely that no bound holds them (see README.md).
    let (warm_window, small_window) = ctx.workload.warm_per_cycle();
    let (warm_p50, warm_p90, small_p50, small_p90) = (
        stats::per_window(&warm_ms, warm_window, 0.5),
        stats::per_window(&warm_ms, warm_window, 0.9),
        stats::per_window(&small_ms, small_window, 0.5),
        stats::per_window(&small_ms, small_window, 0.9),
    );
    let over_cycles = |name: &str, cycles: &[f64]| {
        stats::median(cycles).ok_or_else(|| format!("{name}: no whole sample cycle was measured"))
    };
    let metrics = vec![
        metric("setup_s", median(&setup_s), "s"),
        metric("cold_p50_ms", median(&cold_ms), "ms"),
        metric(
            "peak_rss_mb",
            server_rss_mb + stats::median(&process_rss).unwrap_or(0.0),
            "MB",
        ),
        metric(
            "ok_ratio",
            1.0 - verdict.failed as f64 / verdict.attempted as f64,
            "ratio",
        ),
    ];
    let mut context = ObjectBuilder::new();
    context
        .number("setup_runs", setup_s.len() as f64)
        .number("cold_samples", cold_ms.len() as f64)
        .number("warm_samples", warm_ms.len() as f64)
        .number("small_samples", small_ms.len() as f64)
        .number("warm_p50_ms", over_cycles("warm_p50_ms", &warm_p50)?)
        .number("warm_p90_ms", over_cycles("warm_p90_ms", &warm_p90)?)
        .number("small_p50_ms", over_cycles("small_p50_ms", &small_p50)?)
        .number("small_p90_ms", over_cycles("small_p90_ms", &small_p90)?)
        .json("setup_s", &numbers(&setup_s))
        .json("cold_ms", &numbers(&cold_ms))
        .json("warm_cycle_p50_ms", &numbers(&warm_p50))
        .json("warm_cycle_p90_ms", &numbers(&warm_p90))
        .json("small_cycle_p50_ms", &numbers(&small_p50))
        .json("small_cycle_p90_ms", &numbers(&small_p90));
    Ok(Outcome {
        correct: verdict.failed == 0,
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics,
        context,
    })
}
