//! Implementation of the `sigrule` command-line tool.
//!
//! The binary is a thin wrapper around [`run`]; the logic lives in a library
//! crate so the end-to-end tests can build the expected output through
//! exactly the same code paths the binary uses.
//!
//! Three subcommands cover the workflow of the paper (*Controlling False
//! Positives in Association Rule Mining*, Liu, Zhang, Wong, PVLDB 2011):
//!
//! * `sigrule mine` — load a CSV/TSV or market-basket dataset, mine class
//!   association rules, apply one correction approach, report the
//!   significant rules;
//! * `sigrule correct` — mine once, run **every** correction approach, and
//!   print a comparison table;
//! * `sigrule bench` — time each pipeline stage on a file or on synthetic
//!   data;
//! * `sigrule eval` — planted-truth benchmark sweeps: synthetic datasets ×
//!   corrections × α, scored against the embedded rules (see [`eval`]);
//! * `sigrule serve` — a resident engine process answering JSON-line
//!   requests over a dataset loaded once (see [`serve`]).
//!
//! ```
//! use sigrule_cli::{run, RunOutcome};
//!
//! // A malformed invocation is reported on stderr with exit code 2.
//! let outcome = run(&["mine".to_string(), "--bogus".to_string(), "1".to_string()]);
//! assert_eq!(outcome.exit_code, 2);
//! assert!(outcome.stderr.contains("unknown option"));
//!
//! // `help` prints the usage text.
//! let outcome = run(&["help".to_string()]);
//! assert_eq!(outcome.exit_code, 0);
//! assert!(outcome.stdout.contains("sigrule mine"));
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod args;
pub mod commands;
pub mod eval;
pub mod output;
pub mod serve;

use args::{ArgMap, CommonOpts};
use commands::CliError;

/// The usage text printed by `sigrule help` and on usage errors.
pub const USAGE: &str = "\
sigrule — statistically sound class association rule mining
(reproduction of Liu, Zhang, Wong: Controlling False Positives in
Association Rule Mining, PVLDB 2011)

USAGE:
  sigrule mine    --input <file> [options]   mine + one correction approach
  sigrule correct --input <file> [options]   compare all correction approaches
  sigrule bench   [--input <file>] [options] time every pipeline stage
  sigrule eval    [--grid k=v1,v2 ...]       planted-truth benchmark sweep:
                                             seeded synthetic datasets ×
                                             corrections × α, scored against
                                             the planted rules (docs/EVAL.md)
  sigrule serve   [--listen <addr>]          resident multi-dataset engine:
                                             JSON lines on stdin/stdout, or a
                                             concurrent TCP/unix socket server
                                             (see sigrule serve --help and
                                             docs/SERVE.md)
  sigrule client  --connect <addr>           pipe stdin JSON lines to a served
                                             process (tcp:HOST:PORT|unix:PATH)
  sigrule help                               print this text

INPUT (format auto-detected by default):
  --input <file>        dataset file to load
  --input-format <f>    rows | basket | auto (default auto: extension, then
                        content sniffing)
  --class <name|index>  rows: class column (default: the last column)
  --separator <char>    rows: column separator (default ,)
  --tsv                 rows: tab-separated input
  --no-header           rows: first row is data; columns are named A0, A1, ...
  --default-class <c>   basket: class for transactions without a label: token
  --strict              treat loader warnings (blank lines, empty
                        transactions) as errors: nonzero exit instead of
                        stderr-only messages

  Basket files carry one transaction per line: item tokens separated by
  whitespace and/or commas, plus an optional `label:<class>` token.

MINING:
  --min-sup <n>         minimum support (default: 1% of records, at least 2)
  --min-conf <f>        minimum confidence filter (default 0, as in the paper)
  --max-length <n>      cap on rule length
  --all-patterns        test all frequent patterns, not only closed ones

CORRECTION (mine only):
  --correction <name>   none | bonferroni | bh | permutation | holdout
                        (default bonferroni)
  --metric <name>       fwer | fdr (default fwer; implied by bonferroni/bh)

SHARED:
  --alpha <f>           significance level (default 0.05)
  --permutations <n>    permutation count (default 1000)
  --seed <n>            RNG seed for permutation/holdout (default 17)
  --threads <n>         worker threads for mining, the permutation null and
                        the holdout re-score (1: all on the calling thread)
  --workers <list>      correct: scatter the cold permutation null across
                        remote `sigrule serve` processes (comma list of
                        tcp:HOST:PORT|unix:PATH); statistics stay
                        bit-identical, lost workers cost time, never answers
  --format <name>       human | json | csv (default human)
  --top <n>             rules shown in reports (default 20; 0 = all)

BENCH (synthetic input when --input is omitted):
  --records <n>         synthetic records (default 2000)
  --attributes <n>      synthetic attributes (default 20)
  --rules <n>           embedded rules (default 2)

EVAL (all flags optional; sweep semantics in docs/EVAL.md):
  --grid k=v1,v2 ...    grid axes: rows, noise, rules, coverage, alpha
                        (defaults rows=1000 noise=0.2 rules=2 coverage=0.15)
  --corrections <list>  comma list of none | bonferroni | bh | direct[:m] |
                        permutation | holdout (default none,direct,permutation)
  --workload <name>     rows | basket (default rows)
  --reps <n>            seeded replicates per cell (default 3)
  --attributes <n>      rows workload: attribute count (default 12)
  --items <n>           basket workload: catalogue size (default 60)
  --min-sup-frac <f>    minimum support as a fraction of rows (default 0.05)
  (--alpha, --seed, --permutations, --threads, --format as in SHARED;
   eval's --permutations defaults to 300)

Exit codes: 0 success, 1 runtime error (e.g. malformed input file), 2 usage.
";

/// What one invocation produced: the streams to print and the exit code.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Text for stdout.
    pub stdout: String,
    /// Text for stderr.
    pub stderr: String,
    /// Process exit code (0 ok, 1 runtime error, 2 usage error).
    pub exit_code: i32,
}

impl RunOutcome {
    fn ok(stdout: String) -> Self {
        RunOutcome {
            stdout,
            stderr: String::new(),
            exit_code: 0,
        }
    }

    fn usage_error(message: &str) -> Self {
        RunOutcome {
            stdout: String::new(),
            stderr: format!("sigrule: error: {message}\n\n{USAGE}"),
            exit_code: 2,
        }
    }

    fn runtime_error(message: &str) -> Self {
        RunOutcome {
            stdout: String::new(),
            stderr: format!("sigrule: error: {message}\n"),
            exit_code: 1,
        }
    }
}

/// Runs one invocation; `argv` excludes the program name.
pub fn run(argv: &[String]) -> RunOutcome {
    let Some(command) = argv.first().map(String::as_str) else {
        return RunOutcome::usage_error("no subcommand given");
    };
    if matches!(command, "help" | "--help" | "-h") {
        return RunOutcome::ok(USAGE.to_string());
    }
    let rest = &argv[1..];
    // `eval` parses its own arguments: `--grid` consumes bare axis tokens
    // that the strict flag parser below would reject as positionals.
    if command == "eval" {
        return eval::run_eval(rest);
    }
    let parsed = match ArgMap::parse(rest, CommonOpts::SWITCHES) {
        Ok(parsed) => parsed,
        Err(e) => return RunOutcome::usage_error(&e.0),
    };
    if parsed.has("help") {
        return RunOutcome::ok(USAGE.to_string());
    }
    let result = match command {
        "mine" => commands::mine(&parsed),
        "correct" => commands::correct(&parsed),
        "bench" => commands::bench(&parsed),
        "serve" => {
            return RunOutcome::usage_error(
                "serve is interactive: it reads JSON-line requests on stdin or a socket, \
                 so it only runs from the sigrule binary (see docs/SERVE.md)",
            )
        }
        "client" => {
            return RunOutcome::usage_error(
                "client is interactive: it pipes stdin to a served process, so it only \
                 runs from the sigrule binary (see docs/SERVE.md)",
            )
        }
        other => {
            return RunOutcome::usage_error(&format!(
                "unknown subcommand {other:?} (expected mine, correct, bench, eval, \
                 serve, client or help)"
            ))
        }
    };
    match result {
        Ok(report) => {
            let format = match CommonOpts::from_args(&parsed) {
                Ok(opts) => opts.format,
                Err(_) => args::Format::Human,
            };
            let mut outcome = RunOutcome::ok(report.render(format));
            // Warnings are structured JSON-line log events (not bare
            // `sigrule: warning:` prose), rendered unconditionally — they
            // were always shown, so the SIGRULE_LOG filter does not gate
            // them.  Stdout stays byte-identical either way.
            outcome.stderr = report
                .warnings
                .iter()
                .map(|w| {
                    let mut line = sigrule_obs::log::render_event(
                        sigrule_obs::log::Level::Warn,
                        "sigrule::cli",
                        "warning",
                        &[("detail", w.as_str().into())],
                    );
                    line.push('\n');
                    line
                })
                .collect();
            outcome
        }
        Err(CliError::Usage(e)) => RunOutcome::usage_error(&e.0),
        Err(CliError::Runtime(message)) => RunOutcome::runtime_error(&message),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn no_subcommand_is_a_usage_error() {
        let outcome = run(&[]);
        assert_eq!(outcome.exit_code, 2);
        assert!(outcome.stderr.contains("no subcommand"));
    }

    #[test]
    fn unknown_subcommand_is_a_usage_error() {
        let outcome = run(&argv(&["transmogrify"]));
        assert_eq!(outcome.exit_code, 2);
        assert!(outcome.stderr.contains("transmogrify"));
    }

    #[test]
    fn missing_input_is_a_usage_error() {
        let outcome = run(&argv(&["mine"]));
        assert_eq!(outcome.exit_code, 2);
        assert!(outcome.stderr.contains("--input"));
    }

    #[test]
    fn missing_file_is_a_runtime_error() {
        let outcome = run(&argv(&["mine", "--input", "/nonexistent/x.csv"]));
        assert_eq!(outcome.exit_code, 1);
        assert!(outcome.stderr.contains("/nonexistent/x.csv"));
    }

    #[test]
    fn bench_runs_on_synthetic_data() {
        let outcome = run(&argv(&[
            "bench",
            "--records",
            "200",
            "--attributes",
            "6",
            "--permutations",
            "20",
            "--format",
            "json",
        ]));
        assert_eq!(outcome.exit_code, 0, "stderr: {}", outcome.stderr);
        assert!(outcome.stdout.contains("\"command\":\"bench\""));
        assert!(outcome.stdout.contains("Perm_FWER"));
    }
}
