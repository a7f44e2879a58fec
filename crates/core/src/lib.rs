//! Statistically sound class association rule mining.
//!
//! This crate is the reproduction of the paper's primary contribution
//! (*Controlling False Positives in Association Rule Mining*, Liu, Zhang,
//! Wong, PVLDB 5(2), 2011): mine class association rules, attach a two-tailed
//! Fisher exact p-value to each, and control false positives with one of
//! three multiple-testing correction approaches:
//!
//! 1. **Direct adjustment** ([`correction::direct`]): Bonferroni for FWER,
//!    Benjamini–Hochberg for FDR, dividing by the number of rules tested.
//! 2. **Permutation-based** ([`correction::permutation`]): shuffle the class
//!    labels, re-score every rule on every permutation, and derive the cut-off
//!    from the empirical null — with the paper's three optimisations (mine
//!    once, Diffsets, p-value buffering) so 1000 permutations stay tractable.
//! 3. **Holdout** ([`correction::holdout`]): split the data, discover on the
//!    exploratory half, validate on the evaluation half with Bonferroni/BH
//!    over the (much smaller) candidate set.
//!
//! # Quick start
//!
//! ```
//! use sigrule::{mine_rules, RuleMiningConfig};
//! use sigrule::correction::direct;
//! use sigrule_synth::{SyntheticGenerator, SyntheticParams};
//!
//! // A small synthetic dataset with one strong embedded rule.
//! let params = SyntheticParams::default()
//!     .with_records(500)
//!     .with_attributes(12)
//!     .with_rules(1)
//!     .with_coverage(100, 100)
//!     .with_confidence(0.9, 0.9);
//! let (dataset, _truth) = SyntheticGenerator::new(params).unwrap().generate(1);
//!
//! // Mine rules with min_sup = 40 and attach p-values.
//! let mined = mine_rules(&dataset, &RuleMiningConfig::new(40));
//! assert!(mined.n_tests() > 0);
//!
//! // Control FWER at 5% with Bonferroni.
//! let result = direct::bonferroni(&mined, 0.05);
//! let n_significant = result.n_significant();
//! assert!(n_significant <= mined.rules().len());
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod cancel;
pub mod config;
pub mod correction;
pub mod engine;
pub mod fault;
pub mod miner;
pub mod obs_metrics;
#[cfg(any(test, doctest))]
mod pipeline;
pub mod rule;

pub use cancel::{CancelReason, CancelToken, Cancelled};
pub use config::RuleMiningConfig;
pub use correction::{CorrectionApproach, CorrectionResult, ErrorMetric};
pub use engine::{
    CacheEntry, CacheEntryKind, Engine, EngineStats, Loader, PipelineError, Query, QueryOutcome,
};
pub use miner::{mine_rules, mine_rules_cancellable, mine_rules_with_vertical, MinedRuleSet};
pub use rule::ClassRule;
