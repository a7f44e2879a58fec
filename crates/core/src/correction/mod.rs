//! The three multiple-testing correction approaches (§4 of the paper), plus
//! the uncorrected baseline.
//!
//! * [`direct`] — Bonferroni (FWER) and Benjamini–Hochberg (FDR) applied to
//!   the raw p-values with the number of tests as the correction factor.
//! * [`permutation`] — class-label permutation with the paper's three
//!   optimisations (mine once, Diffsets, p-value buffering).
//! * [`holdout`] — Webb's exploratory/evaluation split.
//!
//! Every approach produces a [`CorrectionResult`]: per-rule significance
//! decisions plus the effective cut-off, so the evaluation crate can score
//! power, FWER and FDR uniformly.
//!
//! The free functions are the one implementation of each decision; the
//! session-oriented [`Engine`](crate::engine::Engine) matches on a query's
//! [`CorrectionApproach`] and calls them over the artifacts it has cached.

pub mod direct;
pub mod holdout;
pub mod permutation;

use crate::cancel::{CancelToken, Cancelled};
use crate::config::RuleMiningConfig;
use crate::miner::MinedRuleSet;
use crate::rule::ClassRule;
use holdout::HoldoutEvaluation;
use serde::{Deserialize, Serialize};
use sigrule_data::Dataset;
use std::fmt;
use std::str::FromStr;

/// Which error rate a correction controls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ErrorMetric {
    /// Family-wise error rate: probability of reporting ≥ 1 false positive.
    Fwer,
    /// False discovery rate: expected fraction of false positives among the
    /// reported rules.
    Fdr,
}

impl ErrorMetric {
    /// Short label used in reports ("FWER" / "FDR").
    pub fn label(&self) -> &'static str {
        match self {
            ErrorMetric::Fwer => "FWER",
            ErrorMetric::Fdr => "FDR",
        }
    }
}

/// Which of the paper's correction approaches a query applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CorrectionApproach {
    /// Raw p-values at α ("No correction").
    None,
    /// Direct adjustment (§4.1): Bonferroni for FWER, Benjamini–Hochberg for
    /// FDR.
    #[default]
    Direct,
    /// Permutation-based (§4.2), using the parallel bitset engine.
    Permutation,
    /// Random holdout (§4.3): split, discover on one half, validate on the
    /// other.
    Holdout,
}

/// An unrecognised correction-approach name; the message lists the accepted
/// spellings so a CLI can surface it verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCorrectionApproachError {
    /// The name that failed to parse.
    pub input: String,
}

impl fmt::Display for ParseCorrectionApproachError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown correction approach {:?}: expected one of none, direct, \
             bonferroni (bc), bh (benjamini-hochberg), permutation (perm), \
             or holdout (random-holdout)",
            self.input
        )
    }
}

impl std::error::Error for ParseCorrectionApproachError {}

impl FromStr for CorrectionApproach {
    type Err = ParseCorrectionApproachError;

    /// Parses a CLI-style name (`none`, `direct` / `bonferroni` / `bh`,
    /// `permutation`, `holdout`); the error names every accepted value.
    fn from_str(name: &str) -> Result<Self, Self::Err> {
        CorrectionApproach::parse_with_metric(name).map(|(approach, _)| approach)
    }
}

impl CorrectionApproach {
    /// Parses a CLI-style name together with the error metric it implies
    /// (`bonferroni` implies FWER, `bh` implies FDR; the other names imply
    /// nothing).
    pub fn parse_with_metric(
        name: &str,
    ) -> Result<(CorrectionApproach, Option<ErrorMetric>), ParseCorrectionApproachError> {
        match name.to_ascii_lowercase().as_str() {
            "none" => Ok((CorrectionApproach::None, None)),
            "direct" => Ok((CorrectionApproach::Direct, None)),
            "bonferroni" | "bc" => Ok((CorrectionApproach::Direct, Some(ErrorMetric::Fwer))),
            "bh" | "benjamini-hochberg" => Ok((CorrectionApproach::Direct, Some(ErrorMetric::Fdr))),
            "permutation" | "perm" => Ok((CorrectionApproach::Permutation, None)),
            "holdout" | "random-holdout" => Ok((CorrectionApproach::Holdout, None)),
            _ => Err(ParseCorrectionApproachError {
                input: name.to_string(),
            }),
        }
    }

    /// Resolves a user-supplied correction name and metric name pair into an
    /// approach + metric, applying the defaults and the implied-metric rules
    /// every front end shares (`bonferroni` implies FWER, `bh` implies FDR;
    /// no correction defaults to `direct`, no metric to FWER; naming both a
    /// metric-implying correction and a *different* metric is an error).
    /// Both the CLI flags and the serve protocol go through this, so the two
    /// surfaces cannot drift.
    pub fn resolve(
        correction: Option<&str>,
        metric: Option<&str>,
    ) -> Result<(CorrectionApproach, ErrorMetric), String> {
        let (approach, implied) = match correction {
            None => (CorrectionApproach::Direct, None),
            Some(name) => CorrectionApproach::parse_with_metric(name).map_err(|e| e.to_string())?,
        };
        let metric = match metric {
            None => implied.unwrap_or(ErrorMetric::Fwer),
            Some(name) => {
                let requested = match name.to_ascii_lowercase().as_str() {
                    "fwer" => ErrorMetric::Fwer,
                    "fdr" => ErrorMetric::Fdr,
                    other => return Err(format!("metric must be fwer or fdr (got {other:?})")),
                };
                if let Some(implied) = implied {
                    if implied != requested {
                        return Err(format!(
                            "correction {} controls {} and contradicts metric {name}",
                            correction.unwrap_or_default(),
                            implied.label(),
                        ));
                    }
                }
                requested
            }
        };
        Ok((approach, metric))
    }

    /// CLI-facing name of the approach.
    pub fn label(&self) -> &'static str {
        match self {
            CorrectionApproach::None => "none",
            CorrectionApproach::Direct => "direct",
            CorrectionApproach::Permutation => "permutation",
            CorrectionApproach::Holdout => "holdout",
        }
    }
}

/// The outcome of running one correction approach on a mined rule set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorrectionResult {
    /// Name of the method, matching Table 3 of the paper where applicable
    /// (e.g. `"BC"`, `"BH"`, `"Perm_FWER"`, `"HD_BC"`).
    pub method: String,
    /// The error metric the method controls.
    pub metric: ErrorMetric,
    /// The significance level the method was run at.
    pub alpha: f64,
    /// Per-rule significance decision, aligned with the rules it was scored
    /// against (see `rules`).
    pub significant: Vec<bool>,
    /// The rules that were scored (for whole-dataset methods these are the
    /// mined rules; for the holdout they are the candidate rules from the
    /// exploratory dataset with statistics re-computed on the evaluation
    /// dataset).
    pub rules: Vec<ClassRule>,
    /// The raw p-value cut-off the method effectively applied, when the
    /// method is threshold-based (`None` for step-up procedures evaluated per
    /// rule).
    pub p_value_cutoff: Option<f64>,
    /// Number of hypothesis tests the correction accounted for.
    pub n_tests: usize,
}

impl CorrectionResult {
    /// Number of rules declared significant.
    pub fn n_significant(&self) -> usize {
        self.significant.iter().filter(|&&s| s).count()
    }

    /// The significant rules themselves.
    pub fn significant_rules(&self) -> Vec<&ClassRule> {
        self.rules
            .iter()
            .zip(self.significant.iter())
            .filter(|(_, &s)| s)
            .map(|(r, _)| r)
            .collect()
    }

    /// True when no rule was declared significant.
    pub fn is_empty(&self) -> bool {
        self.n_significant() == 0
    }
}

/// The random holdout (§4.3): the split seed and the exploratory half's
/// mining configuration.
#[derive(Debug, Clone)]
pub struct RandomHoldout {
    /// Seed of the random split.
    pub seed: u64,
    /// Mining configuration used on the exploratory half.
    pub exploratory: RuleMiningConfig,
}

impl RandomHoldout {
    /// The paper's parameterisation: the exploratory half is mined at half
    /// the whole-dataset minimum support (at least 1).
    pub fn from_mining(seed: u64, mining: &RuleMiningConfig) -> Self {
        RandomHoldout {
            seed,
            exploratory: RuleMiningConfig {
                min_sup: (mining.min_sup / 2).max(1),
                ..mining.clone()
            },
        }
    }

    /// Splits `dataset`, mines the exploratory half and re-scores every
    /// exploratory rule on the evaluation half: the α- and
    /// metric-independent artefact a resident engine caches.
    pub fn evaluate(
        &self,
        dataset: &Dataset,
        cancel: &CancelToken,
    ) -> Result<HoldoutEvaluation, Cancelled> {
        let (exploratory, evaluation) = holdout::random_split(dataset, self.seed);
        HoldoutEvaluation::evaluate(&exploratory, &evaluation, &self.exploratory, cancel)
    }
}

/// The uncorrected baseline ("No correction" in the paper's figures): every
/// rule with a raw p-value at most `alpha` is declared significant.
pub fn no_correction(mined: &MinedRuleSet, alpha: f64) -> CorrectionResult {
    let significant: Vec<bool> = mined.rules().iter().map(|r| r.p_value <= alpha).collect();
    CorrectionResult {
        method: "No correction".to_string(),
        metric: ErrorMetric::Fwer,
        alpha,
        significant,
        rules: mined.rules().to_vec(),
        p_value_cutoff: Some(alpha),
        n_tests: mined.n_tests(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuleMiningConfig;
    use crate::miner::mine_rules;
    use sigrule_synth::{SyntheticGenerator, SyntheticParams};

    fn mined() -> MinedRuleSet {
        let params = SyntheticParams::default()
            .with_records(400)
            .with_attributes(10)
            .with_rules(1)
            .with_coverage(80, 80)
            .with_confidence(0.9, 0.9);
        let (d, _) = SyntheticGenerator::new(params).unwrap().generate(5);
        mine_rules(&d, &RuleMiningConfig::new(40))
    }

    #[test]
    fn no_correction_uses_raw_alpha() {
        let m = mined();
        let r = no_correction(&m, 0.05);
        assert_eq!(r.method, "No correction");
        assert_eq!(r.significant.len(), m.rules().len());
        assert_eq!(r.p_value_cutoff, Some(0.05));
        for (rule, &sig) in m.rules().iter().zip(r.significant.iter()) {
            assert_eq!(sig, rule.p_value <= 0.05);
        }
        assert_eq!(r.n_significant(), r.significant_rules().len());
    }

    #[test]
    fn metric_labels() {
        assert_eq!(ErrorMetric::Fwer.label(), "FWER");
        assert_eq!(ErrorMetric::Fdr.label(), "FDR");
    }

    #[test]
    fn random_holdout_mines_the_exploratory_half_at_half_min_sup() {
        let m = mined();
        let hd = RandomHoldout::from_mining(11, m.config());
        assert_eq!(hd.seed, 11);
        assert_eq!(m.config().min_sup, 40);
        assert_eq!(hd.exploratory.min_sup, 20);
        assert_eq!(
            RandomHoldout::from_mining(11, &RuleMiningConfig::new(1))
                .exploratory
                .min_sup,
            1
        );
    }

    #[test]
    fn empty_result_detection() {
        let m = mined();
        let strict = no_correction(&m, 0.0);
        assert!(strict.is_empty() || strict.n_significant() > 0);
        let lax = no_correction(&m, 1.0);
        assert_eq!(lax.n_significant(), m.rules().len());
    }

    #[test]
    fn approach_names_parse() {
        assert_eq!(
            "permutation".parse::<CorrectionApproach>(),
            Ok(CorrectionApproach::Permutation)
        );
        assert_eq!(
            CorrectionApproach::parse_with_metric("BC"),
            Ok((CorrectionApproach::Direct, Some(ErrorMetric::Fwer)))
        );
        assert_eq!(
            CorrectionApproach::parse_with_metric("bh"),
            Ok((CorrectionApproach::Direct, Some(ErrorMetric::Fdr)))
        );
        // The shared front-end resolution rules.
        assert_eq!(
            CorrectionApproach::resolve(None, None),
            Ok((CorrectionApproach::Direct, ErrorMetric::Fwer))
        );
        assert_eq!(
            CorrectionApproach::resolve(Some("bh"), None),
            Ok((CorrectionApproach::Direct, ErrorMetric::Fdr))
        );
        assert_eq!(
            CorrectionApproach::resolve(Some("permutation"), Some("FDR")),
            Ok((CorrectionApproach::Permutation, ErrorMetric::Fdr))
        );
        assert!(CorrectionApproach::resolve(Some("bh"), Some("fwer")).is_err());
        assert!(CorrectionApproach::resolve(None, Some("neither")).is_err());
        let err = "nope".parse::<CorrectionApproach>().unwrap_err();
        let message = err.to_string();
        for name in [
            "none",
            "direct",
            "bonferroni",
            "bh",
            "permutation",
            "holdout",
        ] {
            assert!(
                message.contains(name),
                "error should name {name}: {message}"
            );
        }
        assert!(message.contains("nope"));
        assert_eq!(CorrectionApproach::Holdout.label(), "holdout");
    }
}
