//! A small dependency-free `--flag value` / `--flag=value` argument parser
//! and the option set shared by every subcommand.

use sigrule::CorrectionApproach;
use sigrule::{ErrorMetric, RuleMiningConfig};
use sigrule_data::loader::{BasketOptions, LoadOptions};
use sigrule_data::InputFormat;
use std::path::PathBuf;

/// A malformed invocation (unknown flag, missing value, unparsable number).
/// Reported on stderr together with the usage text; exit code 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Parsed command line: flag → value pairs plus boolean switches.
#[derive(Debug, Default)]
pub struct ArgMap {
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl ArgMap {
    /// Parses `argv` (without the program and subcommand names).  Flags named
    /// in `switch_names` take no value; every other flag takes exactly one
    /// (either `--flag value` or `--flag=value`).  Positional arguments are
    /// rejected.
    pub fn parse(argv: &[String], switch_names: &[&str]) -> Result<ArgMap, UsageError> {
        let mut map = ArgMap::default();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            let Some(stripped) = arg.strip_prefix("--") else {
                return Err(UsageError(format!(
                    "unexpected positional argument {arg:?}"
                )));
            };
            let (name, inline_value) = match stripped.split_once('=') {
                Some((n, v)) => (n.to_string(), Some(v.to_string())),
                None => (stripped.to_string(), None),
            };
            if switch_names.contains(&name.as_str()) {
                if let Some(v) = inline_value {
                    return Err(UsageError(format!(
                        "--{name} is a switch and takes no value (got {v:?})"
                    )));
                }
                map.switches.push(name);
            } else {
                let value = match inline_value {
                    Some(v) => v,
                    None => it
                        .next()
                        .cloned()
                        .ok_or_else(|| UsageError(format!("--{name} needs a value")))?,
                };
                map.values.push((name, value));
            }
        }
        Ok(map)
    }

    /// The raw string value of a flag, if given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// True when the switch was given.
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Typed flag lookup.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, UsageError> {
        match self.get(name) {
            None => Ok(None),
            Some(raw) => raw
                .parse::<T>()
                .map(Some)
                .map_err(|_| UsageError(format!("--{name}: cannot parse {raw:?}"))),
        }
    }

    /// Errors on any flag not in `known` (switches are checked by the caller
    /// during parsing).
    pub fn reject_unknown(&self, known: &[&str]) -> Result<(), UsageError> {
        for (name, _) in &self.values {
            if !known.contains(&name.as_str()) {
                return Err(UsageError(format!("unknown option --{name}")));
            }
        }
        Ok(())
    }
}

/// Output format of every subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// Aligned plain-text tables (default).
    #[default]
    Human,
    /// One JSON document on stdout.
    Json,
    /// CSV, one table after another.
    Csv,
}

impl Format {
    pub(crate) fn parse(name: &str) -> Result<Format, UsageError> {
        match name.to_ascii_lowercase().as_str() {
            "human" | "text" => Ok(Format::Human),
            "json" => Ok(Format::Json),
            "csv" => Ok(Format::Csv),
            other => Err(UsageError(format!(
                "--format must be human, json or csv (got {other:?})"
            ))),
        }
    }
}

/// The option surface shared by `mine`, `correct` and `bench`.
#[derive(Debug, Clone)]
pub struct CommonOpts {
    /// Input file (`None` only for `bench`, which then generates synthetic
    /// data).
    pub input: Option<PathBuf>,
    /// Input format (`--input-format rows|basket`); `None` auto-detects from
    /// the file extension and content.
    pub input_format: Option<InputFormat>,
    /// Class assigned to basket transactions without a `label:` token.
    pub default_class: Option<String>,
    /// Class column: a header name or a 0-based index.
    pub class: Option<String>,
    /// Column separator (`--separator` / `--tsv`).
    pub separator: char,
    /// First row is data, not a header.
    pub no_header: bool,
    /// Minimum support; `None` means 1% of the records (at least 2).
    pub min_sup: Option<usize>,
    /// Minimum confidence filter (default 0, as in the paper).
    pub min_conf: f64,
    /// Maximum rule length.
    pub max_length: Option<usize>,
    /// Test all frequent patterns instead of closed ones only.
    pub all_patterns: bool,
    /// Significance level α.
    pub alpha: f64,
    /// Seed for the permutation shuffler / holdout partitioner.
    pub seed: u64,
    /// Permutation count for the permutation approach.
    pub permutations: usize,
    /// Worker threads for mining, the permutation null and the holdout
    /// re-score.
    pub threads: Option<usize>,
    /// Output format.
    pub format: Format,
    /// Rules shown in reports (0 = all).
    pub top: usize,
    /// Treat loader warnings as fatal (`--strict`): any
    /// [`LoadWarning`](sigrule_data::loader::LoadWarning) aborts the command
    /// with a nonzero exit instead of stderr-only noise.
    pub strict: bool,
}

impl CommonOpts {
    /// Flag names consumed here (subcommands append their own).
    pub const VALUE_FLAGS: &'static [&'static str] = &[
        "input",
        "input-format",
        "default-class",
        "class",
        "separator",
        "min-sup",
        "min-conf",
        "max-length",
        "alpha",
        "seed",
        "permutations",
        "threads",
        "format",
        "top",
    ];
    /// Switch names consumed here.
    pub const SWITCHES: &'static [&'static str] =
        &["tsv", "no-header", "all-patterns", "strict", "help"];

    /// Extracts the common options from a parsed argument map.
    pub fn from_args(args: &ArgMap) -> Result<CommonOpts, UsageError> {
        let separator = match (args.get("separator"), args.has("tsv")) {
            (Some(_), true) => {
                return Err(UsageError("--separator and --tsv are exclusive".into()))
            }
            (Some(s), false) => {
                let mut chars = s.chars();
                match (chars.next(), chars.next()) {
                    (Some(c), None) => c,
                    _ => {
                        return Err(UsageError(format!(
                            "--separator must be a single character (got {s:?})"
                        )))
                    }
                }
            }
            (None, true) => '\t',
            (None, false) => ',',
        };
        let input_format = match args.get("input-format") {
            None | Some("auto") => None,
            Some(name) => Some(InputFormat::parse(name).ok_or_else(|| {
                UsageError(format!(
                    "--input-format must be rows, basket or auto (got {name:?})"
                ))
            })?),
        };
        let opts = CommonOpts {
            input: args.get("input").map(PathBuf::from),
            input_format,
            default_class: args.get("default-class").map(String::from),
            class: args.get("class").map(String::from),
            separator,
            no_header: args.has("no-header"),
            min_sup: args.get_parsed("min-sup")?,
            min_conf: args.get_parsed("min-conf")?.unwrap_or(0.0),
            max_length: args.get_parsed("max-length")?,
            all_patterns: args.has("all-patterns"),
            alpha: args.get_parsed("alpha")?.unwrap_or(0.05),
            seed: args.get_parsed("seed")?.unwrap_or(17),
            permutations: args.get_parsed("permutations")?.unwrap_or(1000),
            threads: args.get_parsed("threads")?,
            format: match args.get("format") {
                Some(f) => Format::parse(f)?,
                None => Format::Human,
            },
            top: args.get_parsed("top")?.unwrap_or(20),
            strict: args.has("strict"),
        };
        Ok(opts)
    }

    /// The loader options these flags describe.
    pub fn load_options(&self) -> LoadOptions {
        let mut load = LoadOptions {
            separator: self.separator,
            has_header: !self.no_header,
            ..LoadOptions::default()
        };
        if let Some(class) = &self.class {
            // A bare integer selects by index; anything else by header name.
            match class.parse::<usize>() {
                Ok(index) => load.class_column = Some(index),
                Err(_) => load.class_column_name = Some(class.clone()),
            }
        }
        load
    }

    /// The basket-reader options these flags describe.
    pub fn basket_options(&self) -> BasketOptions {
        let mut basket = BasketOptions::default();
        if let Some(class) = &self.default_class {
            basket.default_class = Some(class.clone());
        }
        basket
    }

    /// The effective minimum support for a dataset of `n_records` records:
    /// the explicit flag, or 1% of the records (at least 2).
    pub fn effective_min_sup(&self, n_records: usize) -> usize {
        self.min_sup.unwrap_or_else(|| (n_records / 100).max(2))
    }

    /// The mining configuration these flags describe, rejected as a usage
    /// error when a threshold is out of range
    /// ([`RuleMiningConfig::validate`]).
    pub fn mining_config(&self, n_records: usize) -> Result<RuleMiningConfig, UsageError> {
        let mut config = RuleMiningConfig::new(self.effective_min_sup(n_records))
            .with_min_conf(self.min_conf)
            .with_closed_only(!self.all_patterns);
        if let Some(len) = self.max_length {
            config = config.with_max_length(len);
        }
        config.validate().map_err(UsageError)?;
        Ok(config)
    }
}

/// Parses `--correction` / `--metric` into an approach + metric pair through
/// the shared front-end rules ([`CorrectionApproach::resolve`]): bonferroni/bh
/// imply their metric, contradictions error, and an unknown approach name
/// surfaces the library error — which lists every accepted value — as a
/// usage error (exit code 2).
pub fn parse_correction(args: &ArgMap) -> Result<(CorrectionApproach, ErrorMetric), UsageError> {
    CorrectionApproach::resolve(args.get("correction"), args.get("metric"))
        .map_err(|e| UsageError(format!("--correction/--metric: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_values_switches_and_inline_forms() {
        let args = ArgMap::parse(
            &argv(&["--input", "a.csv", "--min-sup=30", "--tsv"]),
            CommonOpts::SWITCHES,
        )
        .unwrap();
        assert_eq!(args.get("input"), Some("a.csv"));
        assert_eq!(args.get("min-sup"), Some("30"));
        assert!(args.has("tsv"));
        let opts = CommonOpts::from_args(&args).unwrap();
        assert_eq!(opts.separator, '\t');
        assert_eq!(opts.min_sup, Some(30));
        assert_eq!(opts.alpha, 0.05);
    }

    #[test]
    fn rejects_bad_invocations() {
        assert!(ArgMap::parse(&argv(&["positional"]), &[]).is_err());
        assert!(ArgMap::parse(&argv(&["--input"]), &[]).is_err());
        assert!(ArgMap::parse(&argv(&["--tsv=1"]), CommonOpts::SWITCHES).is_err());
        let args = ArgMap::parse(&argv(&["--min-sup", "abc"]), &[]).unwrap();
        assert!(CommonOpts::from_args(&args).is_err());
        let args = ArgMap::parse(&argv(&["--separator", ";;"]), &[]).unwrap();
        assert!(CommonOpts::from_args(&args).is_err());
        let args = ArgMap::parse(&argv(&["--bogus", "1"]), &[]).unwrap();
        assert!(args.reject_unknown(CommonOpts::VALUE_FLAGS).is_err());
    }

    #[test]
    fn class_selector_resolves_index_or_name() {
        let args = ArgMap::parse(&argv(&["--class", "0"]), &[]).unwrap();
        let opts = CommonOpts::from_args(&args).unwrap();
        assert_eq!(opts.load_options().class_column, Some(0));
        let args = ArgMap::parse(&argv(&["--class", "outcome"]), &[]).unwrap();
        let opts = CommonOpts::from_args(&args).unwrap();
        assert_eq!(
            opts.load_options().class_column_name.as_deref(),
            Some("outcome")
        );
    }

    #[test]
    fn correction_and_metric_flags() {
        let args = ArgMap::parse(&argv(&["--correction", "permutation"]), &[]).unwrap();
        let (approach, metric) = parse_correction(&args).unwrap();
        assert_eq!(approach, CorrectionApproach::Permutation);
        assert_eq!(metric, ErrorMetric::Fwer);

        let args = ArgMap::parse(&argv(&["--correction", "bh"]), &[]).unwrap();
        let (approach, metric) = parse_correction(&args).unwrap();
        assert_eq!(approach, CorrectionApproach::Direct);
        assert_eq!(metric, ErrorMetric::Fdr);

        let args = ArgMap::parse(&argv(&["--correction", "bh", "--metric", "fwer"]), &[]).unwrap();
        assert!(parse_correction(&args).is_err());

        let args = ArgMap::parse(&argv(&["--correction", "what"]), &[]).unwrap();
        assert!(parse_correction(&args).is_err());
    }

    #[test]
    fn min_sup_defaults_to_one_percent() {
        let opts = CommonOpts::from_args(&ArgMap::default()).unwrap();
        assert_eq!(opts.effective_min_sup(5000), 50);
        assert_eq!(opts.effective_min_sup(50), 2);
        assert_eq!(opts.mining_config(5000).unwrap().min_sup, 50);
        assert!(opts.mining_config(5000).unwrap().closed_only);
    }
}
