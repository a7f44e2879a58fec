//! The `sigrule eval` subcommand: planted-truth benchmark sweeps.
//!
//! Thin argument-parsing shell around [`sigrule_eval::sweep`]: build a
//! [`SweepGrid`] from `--grid` axes and flags, run it (under a pinned rayon
//! pool when `--threads` is given), and render the cells as a [`Report`].
//!
//! The machine-readable output (`--format json|csv`) contains no timings or
//! cache counters, so it is bit-identical across thread counts and warm/cold
//! engine caches — the determinism tests compare the rendered bytes
//! directly.  The human format appends one footer line with the null
//! collection wall-clock and the active support-kernel counters, so kernel
//! regressions show up in the harness users already run.

use crate::args::{ArgMap, Format, UsageError};
use crate::output::Report;
use crate::RunOutcome;
use sigrule_eval::sweep::{CorrectionSpec, SweepGrid, SweepRunner, Workload};

/// Value-taking flags `eval` accepts (besides the repeatable `--grid`).
const VALUE_FLAGS: &[&str] = &[
    "grid",
    "corrections",
    "workload",
    "reps",
    "seed",
    "permutations",
    "alpha",
    "threads",
    "format",
    "attributes",
    "items",
    "min-sup-frac",
];

/// Runs `sigrule eval` with the arguments after the subcommand name.
pub fn run_eval(argv: &[String]) -> RunOutcome {
    // `--grid rows=500,2000 noise=0.1,0.3` carries bare `key=v1,v2` tokens
    // after the flag; collect them before the strict flag parser (which
    // rejects positionals) sees them.
    let mut axes: Vec<String> = Vec::new();
    let mut rest: Vec<String> = Vec::new();
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        if arg == "--grid" || arg.starts_with("--grid=") {
            let mut got_axis = false;
            if let Some(inline) = arg.strip_prefix("--grid=") {
                axes.push(inline.to_string());
                got_axis = true;
            }
            while let Some(next) = it.peek() {
                if next.starts_with("--") {
                    break;
                }
                axes.push((*next).clone());
                it.next();
                got_axis = true;
            }
            if !got_axis {
                return RunOutcome::usage_error("--grid needs at least one key=v1,v2,... axis");
            }
        } else {
            rest.push(arg.clone());
        }
    }
    let parsed = match ArgMap::parse(&rest, &["help"]) {
        Ok(parsed) => parsed,
        Err(e) => return RunOutcome::usage_error(&e.0),
    };
    if parsed.has("help") {
        return RunOutcome::ok(crate::USAGE.to_string());
    }
    if let Err(e) = parsed.reject_unknown(VALUE_FLAGS) {
        return RunOutcome::usage_error(&e.0);
    }
    let (grid, threads, format) = match build_grid(&parsed, &axes) {
        Ok(built) => built,
        Err(e) => return RunOutcome::usage_error(&e.0),
    };

    let runner = SweepRunner::new();
    let sweep = {
        let run = || runner.run(&grid);
        match threads {
            Some(n) => {
                let pool = match sigrule::correction::permutation::rayon_pool(n) {
                    Ok(pool) => pool,
                    Err(e) => return RunOutcome::runtime_error(&format!("thread pool: {e}")),
                };
                pool.install(run)
            }
            None => run(),
        }
    };
    let sweep = match sweep {
        Ok(sweep) => sweep,
        Err(sigrule_eval::SweepError::Grid(msg)) => return RunOutcome::usage_error(&msg),
        Err(e) => return RunOutcome::runtime_error(&e.to_string()),
    };

    let mut report = Report::new("eval");
    report.add("workload", grid.workload.label());
    report.add("rows", join(&grid.rows));
    report.add("noise", join(&grid.noise));
    report.add("rules", join(&grid.rules));
    report.add("coverage", join(&grid.coverage));
    report.add("alpha", join(&grid.alphas));
    report.add(
        "corrections",
        grid.corrections
            .iter()
            .map(correction_label)
            .collect::<Vec<_>>()
            .join(","),
    );
    report.add("reps", grid.reps);
    report.add("seed", grid.seed);
    report.add("permutations", grid.permutations);
    report.add("min_sup_frac", grid.min_sup_frac);
    report.add("datasets", grid.n_datasets());
    report.add("cells", sweep.cells.len());
    report.tables.push(sweep.to_table());
    let mut rendered = report.render(format);
    if format == Format::Human {
        // Timings and kernel counters live only in the human footer: the
        // machine-readable formats stay bit-identical across kernels, thread
        // counts and cache states.
        let counters = sigrule_data::kernel::counters();
        rendered.push_str(&format!(
            "null_ms={:.1} kernel={} batched_sweeps={} (human-format footer; not in json/csv)\n",
            sweep.cache.null_time.as_secs_f64() * 1e3,
            counters.kernel,
            counters.batched_sweeps,
        ));
        // A second footer line only when a distributed null ran in this
        // process: how the shards landed and how often ranges were
        // re-dispatched.  Same convention — human format only, so json/csv
        // stay bit-identical whether or not work was scattered.
        let shards = sigrule::correction::permutation::shard_counters::counters();
        if shards.distribution_active() {
            rendered.push_str(&format!(
                "shards_local={} shards_remote={} shard_retries={} remote_ms={} (distributed null; human-format footer)\n",
                shards.shards_local,
                shards.shards_remote,
                shards.shard_retries,
                shards.remote_ms,
            ));
        }
    }
    // The same counters, as a structured event for every format — the
    // human footer stays human, json/csv stay byte-identical, and machine
    // consumers read the numbers off stderr under SIGRULE_LOG=debug.
    {
        let counters = sigrule_data::kernel::counters();
        let shards = sigrule::correction::permutation::shard_counters::counters();
        sigrule_obs::log::debug(
            "sigrule::eval",
            "sweep complete",
            &[
                ("cells", (sweep.cells.len() as u64).into()),
                (
                    "null_ms",
                    (sweep.cache.null_time.as_secs_f64() * 1e3).into(),
                ),
                ("batched_sweeps", counters.batched_sweeps.into()),
                ("shards_local", shards.shards_local.into()),
                ("shards_remote", shards.shards_remote.into()),
                ("shard_retries", shards.shard_retries.into()),
            ],
        );
    }
    RunOutcome::ok(rendered)
}

/// Builds the grid (defaults → flags → `--grid` axes, later wins) plus the
/// thread pin and output format.
fn build_grid(
    parsed: &ArgMap,
    axes: &[String],
) -> Result<(SweepGrid, Option<usize>, Format), UsageError> {
    let mut grid = SweepGrid::default();
    if let Some(name) = parsed.get("workload") {
        grid.workload = Workload::parse(name).map_err(UsageError)?;
    }
    if let Some(list) = parsed.get("corrections") {
        grid.corrections = CorrectionSpec::parse_list(list)
            .map_err(|e| UsageError(format!("--corrections: {e}")))?;
    }
    if let Some(reps) = parsed.get_parsed("reps")? {
        grid.reps = reps;
    }
    if let Some(seed) = parsed.get_parsed("seed")? {
        grid.seed = seed;
    }
    if let Some(n) = parsed.get_parsed("permutations")? {
        grid.permutations = n;
    }
    if let Some(alpha) = parsed.get_parsed::<f64>("alpha")? {
        grid.alphas = vec![alpha];
    }
    if let Some(n) = parsed.get_parsed("attributes")? {
        grid.attributes = n;
    }
    if let Some(n) = parsed.get_parsed("items")? {
        grid.items = n;
    }
    if let Some(f) = parsed.get_parsed("min-sup-frac")? {
        grid.min_sup_frac = f;
    }
    for axis in axes {
        grid.apply_axis(axis)
            .map_err(|e| UsageError(format!("--grid: {e}")))?;
    }
    grid.validate().map_err(UsageError)?;
    let threads = parsed.get_parsed::<usize>("threads")?;
    if threads == Some(0) {
        return Err(UsageError("--threads must be at least 1".into()));
    }
    let format = match parsed.get("format") {
        Some(name) => Format::parse(name)?,
        None => Format::Human,
    };
    Ok((grid, threads, format))
}

/// `approach:metric` summary label, e.g. `permutation:fwer`.
fn correction_label(spec: &CorrectionSpec) -> String {
    format!(
        "{}:{}",
        spec.label(),
        spec.metric.label().to_ascii_lowercase()
    )
}

/// Comma-joins axis values with their `Display` form.
fn join<T: std::fmt::Display>(values: &[T]) -> String {
    values
        .iter()
        .map(T::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn grid_flag_consumes_bare_axis_tokens() {
        let outcome = run_eval(&argv(&[
            "--grid",
            "rows=120",
            "noise=0.1",
            "--corrections",
            "none",
            "--reps",
            "1",
            "--permutations",
            "10",
            "--attributes",
            "6",
            "--format",
            "json",
        ]));
        assert_eq!(outcome.exit_code, 0, "stderr: {}", outcome.stderr);
        assert!(outcome.stdout.contains("\"command\":\"eval\""));
        assert!(outcome.stdout.contains("\"rows\":\"120\""));
    }

    #[test]
    fn human_footer_reports_kernel_counters_but_json_stays_clean() {
        let args = [
            "--grid",
            "rows=120",
            "noise=0.1",
            "--corrections",
            "none",
            "--reps",
            "1",
            "--permutations",
            "10",
            "--attributes",
            "6",
        ];
        let human = run_eval(&argv(&args));
        assert_eq!(human.exit_code, 0, "stderr: {}", human.stderr);
        assert!(human.stdout.contains("null_ms="), "human footer missing");
        assert!(human.stdout.contains("kernel="), "kernel kind missing");
        let mut json_args: Vec<&str> = args.to_vec();
        json_args.extend(["--format", "json"]);
        let json = run_eval(&argv(&json_args));
        assert_eq!(json.exit_code, 0);
        assert!(
            !json.stdout.contains("null_ms"),
            "timings must stay out of machine-readable output"
        );
    }

    #[test]
    fn human_footer_adds_shard_counters_when_distribution_ran() {
        // The counters are process-wide and additive, so simulating a
        // scattered null here is safe for every other test: they only ever
        // assert presence, not exact values.
        sigrule::correction::permutation::shard_counters::note_local_shards(3);
        sigrule::correction::permutation::shard_counters::note_remote_shards(2, 40);
        sigrule::correction::permutation::shard_counters::note_retries(1);
        let args = [
            "--grid",
            "rows=120",
            "noise=0.1",
            "--corrections",
            "none",
            "--reps",
            "1",
            "--permutations",
            "10",
            "--attributes",
            "6",
        ];
        let human = run_eval(&argv(&args));
        assert_eq!(human.exit_code, 0, "stderr: {}", human.stderr);
        assert!(
            human.stdout.contains("shards_remote="),
            "shard footer missing: {}",
            human.stdout
        );
        assert!(human.stdout.contains("shard_retries="));
        let mut json_args: Vec<&str> = args.to_vec();
        json_args.extend(["--format", "json"]);
        let json = run_eval(&argv(&json_args));
        assert_eq!(json.exit_code, 0);
        assert!(
            !json.stdout.contains("shards_"),
            "shard counters must stay out of machine-readable output"
        );
    }

    #[test]
    fn empty_grid_flag_is_a_usage_error() {
        let outcome = run_eval(&argv(&["--grid", "--reps", "1"]));
        assert_eq!(outcome.exit_code, 2);
        assert!(outcome.stderr.contains("--grid"));
    }

    #[test]
    fn bad_axis_and_bad_correction_are_usage_errors() {
        let outcome = run_eval(&argv(&["--grid", "bogus=1"]));
        assert_eq!(outcome.exit_code, 2);
        assert!(outcome.stderr.contains("unknown grid axis"));
        let outcome = run_eval(&argv(&["--corrections", "what"]));
        assert_eq!(outcome.exit_code, 2);
        assert!(outcome.stderr.contains("--corrections"));
        let outcome = run_eval(&argv(&["--threads", "0"]));
        assert_eq!(outcome.exit_code, 2);
    }
}
