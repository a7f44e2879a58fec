//! Statistical regression test for the FDR side of the paper's claim (§5.4;
//! the framing of Hanhijärvi et al.): on planted-truth data the FDR-targeting
//! corrections — the permutation approach (Perm_FDR), Benjamini–Hochberg
//! (BH) and the random holdout (RH_BH) — keep the empirical false discovery
//! rate at or below α, while reporting rules uncorrected does not.
//!
//! The counterpart of `tests/fwer_control.rs`.  False positives follow the
//! paper's §5.2 definition, so rules whose significance the planted rule
//! explains are not counted.  Everything is seeded, so the rates are
//! deterministic: the slack absorbs the Monte-Carlo error of 20 replicates,
//! not run-to-run variation.  Every cell runs through the sweep's resident
//! engines, so the holdout cell decides from the engine's cached split.

use sigrule::{CorrectionApproach, ErrorMetric};
use sigrule_eval::sweep::{CorrectionSpec, SweepGrid, SweepRunner};

const ALPHA: f64 = 0.05;
const REPS: usize = 20;
/// Monte-Carlo slack on the empirical FDR of 20 replicates.
const SLACK: f64 = 0.10;

/// One weak-ish planted rule among many noise patterns: 16 attributes mined
/// at 5% support give the uncorrected run plenty of chances to be wrong.
fn planted_grid() -> SweepGrid {
    let spec = |approach, metric| CorrectionSpec { approach, metric };
    SweepGrid {
        rows: vec![600],
        noise: vec![0.15],
        rules: vec![1],
        coverage: vec![0.1],
        alphas: vec![ALPHA],
        corrections: vec![
            spec(CorrectionApproach::None, ErrorMetric::Fwer),
            spec(CorrectionApproach::Permutation, ErrorMetric::Fdr),
            spec(CorrectionApproach::Direct, ErrorMetric::Fdr),
            spec(CorrectionApproach::Holdout, ErrorMetric::Fdr),
        ],
        reps: REPS,
        seed: 42,
        permutations: 120,
        attributes: 16,
        min_sup_frac: 0.05,
        ..SweepGrid::default()
    }
}

#[test]
fn fdr_corrections_control_fdr_on_planted_truth_and_uncorrected_does_not() {
    let report = SweepRunner::new().run(&planted_grid()).unwrap();
    assert_eq!(report.cells.len(), 4);
    let uncorrected = &report.cells[0];
    assert_eq!(uncorrected.correction.approach, CorrectionApproach::None);
    assert_eq!(uncorrected.rep_metrics.len(), REPS);

    for cell in &report.cells[1..] {
        let label = cell.correction.label();
        assert_eq!(cell.correction.metric, ErrorMetric::Fdr, "{label}");
        assert!(
            cell.metrics.fdr <= ALPHA + SLACK,
            "{label}: empirical FDR {} exceeds α {ALPHA} + slack {SLACK}",
            cell.metrics.fdr
        );
        // Not vacuously: each method finds the planted rule most of the time.
        assert!(
            cell.recall() >= 0.5,
            "{label}: recall {} too low for the FDR to mean anything",
            cell.recall()
        );
    }

    // Uncorrected testing reports many rules the planted one does not
    // explain: its FDR is beyond what the slack forgives.
    assert!(
        uncorrected.metrics.fdr > ALPHA + SLACK,
        "uncorrected FDR {} should exceed α {ALPHA} + slack {SLACK}",
        uncorrected.metrics.fdr
    );
    for cell in &report.cells[1..] {
        assert!(uncorrected.total_false_positives() > cell.total_false_positives());
    }
}
