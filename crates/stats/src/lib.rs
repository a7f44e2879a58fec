//! Statistical machinery for statistically sound association rule mining.
//!
//! This crate implements every piece of statistics used by the paper
//! *Controlling False Positives in Association Rule Mining* (Liu, Zhang, Wong,
//! PVLDB 5(2), 2011):
//!
//! * a log-factorial table ([`LogFactorialTable`]) used to evaluate
//!   hypergeometric probabilities without overflow (§4.2.3 of the paper),
//! * the hypergeometric distribution ([`hypergeom`]),
//! * the two-tailed Fisher exact test ([`fisher`]) that assigns a p-value to a
//!   class association rule `X ⇒ c` (§2.2),
//! * Pearson's χ² test of independence ([`chisq`]) as the alternative test
//!   mentioned in the paper's related work,
//! * the per-coverage p-value buffers, the per-class static tables built
//!   from them and the per-worker dynamic buffer ([`buffer`]) that make
//!   permutation testing tractable (§4.2.3),
//! * classical multiple-testing corrections ([`adjust`]): Bonferroni, Šidák,
//!   Holm, Benjamini–Hochberg and Benjamini–Yekutieli,
//! * permutation-based (empirical-null) corrections ([`empirical`]):
//!   Westfall–Young style min-p FWER thresholds and pooled empirical FDR
//!   adjustment (§4.2).
//!
//! The crate is intentionally free of any mining-specific types: everything is
//! expressed in terms of counts (`n`, `n_c`, `supp(X)`, `supp(R)`) and raw
//! p-values, so it can be reused by any hypothesis-testing pipeline.
//!
//! # Example: score one rule and correct over many
//!
//! ```
//! use sigrule_stats::{bonferroni_threshold, FisherTest, RuleCounts, Tail};
//!
//! // A rule covering 40 of 1000 records, 35 of them in a class of 500:
//! // strongly positively associated.
//! let counts = RuleCounts::new(1000, 500, 40, 35).unwrap();
//! let p = FisherTest::new(1000).p_value(&counts, Tail::TwoSided);
//! assert!(p < 1e-5);
//!
//! // Bonferroni over 2000 hypothesis tests at alpha = 0.05.
//! let cutoff = bonferroni_threshold(0.05, 2000);
//! assert!((cutoff - 2.5e-5).abs() < 1e-12);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod adjust;
pub mod buffer;
pub mod chisq;
pub mod empirical;
pub mod error;
pub mod fisher;
pub mod hypergeom;
pub mod logfact;

pub use adjust::{
    adjusted_p_values, benjamini_hochberg, benjamini_hochberg_threshold, benjamini_yekutieli,
    bonferroni, bonferroni_threshold, holm, sidak, AdjustMethod,
};
pub use buffer::{
    DynamicBuffer, PValueBuffer, PValueTable, RankedBuffer, SharedPValueTable, SharedTableSet,
};
pub use chisq::{chi_square_independence, chi_square_p_value, ChiSquareResult};
pub use empirical::{empirical_fdr_adjust, min_p_threshold, EmpiricalNull, PooledNull};
pub use error::StatsError;
pub use fisher::{fisher_exact_two_tailed, FisherTest, RuleCounts, Tail};
pub use hypergeom::Hypergeometric;
pub use logfact::LogFactorialTable;

/// Conventional single-test significance level (0.05) referenced throughout
/// the paper as the uncorrected cut-off.
pub const CONVENTIONAL_ALPHA: f64 = 0.05;
