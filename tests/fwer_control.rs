//! Statistical regression test for the paper's core claim (§5.4, Table 2):
//! on pure-noise data the permutation correction keeps the family-wise error
//! rate at or below α, while reporting rules uncorrected produces strictly
//! more false positives.
//!
//! Everything is seeded, so the empirical rates below are deterministic: the
//! slack absorbs the Monte-Carlo error of 20 replicates, not run-to-run
//! variation.

use sigrule::{CorrectionApproach, ErrorMetric};
use sigrule_eval::sweep::{CorrectionSpec, SweepGrid, SweepRunner};

const ALPHA: f64 = 0.05;
const REPS: usize = 20;
/// Monte-Carlo slack on the empirical FWER of 20 replicates.
const SLACK: f64 = 0.15;

fn pure_noise_grid() -> SweepGrid {
    SweepGrid {
        rows: vec![300],
        noise: vec![0.5], // irrelevant with 0 planted rules
        rules: vec![0],
        coverage: vec![0.2],
        alphas: vec![ALPHA],
        corrections: vec![
            CorrectionSpec {
                approach: CorrectionApproach::None,
                metric: ErrorMetric::Fwer,
            },
            CorrectionSpec {
                approach: CorrectionApproach::Permutation,
                metric: ErrorMetric::Fwer,
            },
        ],
        reps: REPS,
        seed: 42,
        permutations: 120,
        attributes: 10,
        min_sup_frac: 0.08,
        ..SweepGrid::default()
    }
}

#[test]
fn permutation_controls_fwer_on_pure_noise_and_uncorrected_does_not() {
    let report = SweepRunner::new().run(&pure_noise_grid()).unwrap();
    assert_eq!(report.cells.len(), 2);
    let uncorrected = &report.cells[0];
    let permutation = &report.cells[1];
    assert_eq!(uncorrected.correction.approach, CorrectionApproach::None);
    assert_eq!(
        permutation.correction.approach,
        CorrectionApproach::Permutation
    );
    assert_eq!(uncorrected.rep_metrics.len(), REPS);

    // With no planted rules every significant rule is a false positive, so
    // recall is undefined (0) and FP counts are the whole story.
    for cell in &report.cells {
        assert_eq!(cell.recall(), 0.0);
        for m in &cell.rep_metrics {
            assert_eq!(m.n_false_positives, m.n_significant);
        }
    }

    // The paper's claim: the permutation approach holds the FWER at α.
    assert!(
        permutation.metrics.fwer <= ALPHA + SLACK,
        "permutation empirical FWER {} exceeds α {} + slack {}",
        permutation.metrics.fwer,
        ALPHA,
        SLACK
    );

    // Uncorrected testing produces strictly more false positives — on the
    // FWER (fraction of replicates contaminated), on the per-replicate mean,
    // and in total.
    assert!(
        uncorrected.metrics.fwer > permutation.metrics.fwer,
        "uncorrected FWER {} should exceed permutation FWER {}",
        uncorrected.metrics.fwer,
        permutation.metrics.fwer
    );
    assert!(uncorrected.metrics.mean_false_positives > permutation.metrics.mean_false_positives);
    assert!(
        uncorrected.total_false_positives() > permutation.total_false_positives(),
        "uncorrected total {} vs permutation total {}",
        uncorrected.total_false_positives(),
        permutation.total_false_positives()
    );
    // And not marginally so: uncorrected testing at α = 0.05 contaminates
    // most noise replicates.
    assert!(
        uncorrected.metrics.fwer >= 0.5,
        "uncorrected FWER {} unexpectedly low",
        uncorrected.metrics.fwer
    );
}
