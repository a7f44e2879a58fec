//! Literal oracle for the holdout approach (§4.3 of the paper; Webb 2007).
//!
//! The library evaluates a holdout split once — tid-list re-scoring on the
//! evaluation half's vertical view — and decides from that evaluation at any
//! α.  The oracle below is the procedure as the paper states it, written
//! with nothing but row scans: split, mine the exploratory half, keep the
//! rules with a raw p-value at most α, re-count each candidate's coverage
//! and support by scanning every evaluation record, re-test it with Fisher's
//! exact test, then correct over the candidates.  Every entry point —
//! `holdout_from_parts`, `random_holdout`, and a cold and a warm
//! `Engine::query` on the default pool and at one, two and three threads —
//! must return a result equal to the oracle's, with every float compared by
//! its bits, on closed, all-pattern and length-capped forests alike.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sigrule_repro::prelude::*;
use sigrule_repro::stats::{benjamini_hochberg_threshold, bonferroni_threshold};

/// The paper's holdout on an existing split, re-scoring by row scans.
fn oracle_from_parts(
    exploratory: &Dataset,
    evaluation: &Dataset,
    mining: &RuleMiningConfig,
    metric: ErrorMetric,
    alpha: f64,
    label_prefix: &str,
) -> CorrectionResult {
    let mined = mine_rules(exploratory, mining);
    let n_eval = evaluation.n_records();
    let class_counts = evaluation.class_counts();
    let fisher = FisherTest::new(n_eval);
    let rules: Vec<ClassRule> = mined
        .rules()
        .iter()
        .filter(|r| r.p_value <= alpha)
        .map(|candidate| {
            let coverage = evaluation.support(&candidate.pattern);
            let support = evaluation.rule_support(&candidate.pattern, candidate.class);
            let p_value = if n_eval == 0 {
                1.0
            } else {
                let n_c = class_counts.count(candidate.class);
                let counts = RuleCounts::new(n_eval, n_c, coverage, support).unwrap();
                fisher.p_value(&counts, Tail::TwoSided)
            };
            ClassRule {
                pattern: candidate.pattern.clone(),
                class: candidate.class,
                coverage,
                support,
                p_value,
            }
        })
        .collect();
    let m = rules.len();
    let p_values: Vec<f64> = rules.iter().map(|r| r.p_value).collect();
    let (method, significant, cutoff) = match metric {
        ErrorMetric::Fwer => {
            let cutoff = bonferroni_threshold(alpha, m.max(1));
            let significant = p_values.iter().map(|&p| p <= cutoff).collect();
            (format!("{label_prefix}_BC"), significant, Some(cutoff))
        }
        ErrorMetric::Fdr if m == 0 => (format!("{label_prefix}_BH"), Vec::new(), None),
        ErrorMetric::Fdr => {
            let threshold = benjamini_hochberg_threshold(&p_values, alpha, None).unwrap();
            let significant = p_values.iter().map(|&p| p <= threshold).collect();
            (format!("{label_prefix}_BH"), significant, None)
        }
    };
    CorrectionResult {
        method,
        metric,
        alpha,
        significant,
        rules,
        p_value_cutoff: cutoff,
        n_tests: m,
    }
}

/// The random split: a seeded shuffle puts `⌊n/2⌋` records in the
/// exploratory half; each half keeps the records' order.
fn oracle_split(whole: &Dataset, seed: u64) -> (Dataset, Dataset) {
    let n = whole.n_records();
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut exploratory = vec![false; n];
    for &i in &order[..n / 2] {
        exploratory[i] = true;
    }
    whole.split_by_mask(&exploratory).unwrap()
}

/// Asserts two results are equal field by field, floats by their bits.
fn assert_bits_eq(got: &CorrectionResult, want: &CorrectionResult, what: &str) {
    assert_eq!(got.method, want.method, "{what}: method");
    assert_eq!(got.metric, want.metric, "{what}: metric");
    assert_eq!(got.alpha.to_bits(), want.alpha.to_bits(), "{what}: alpha");
    assert_eq!(got.n_tests, want.n_tests, "{what}: n_tests");
    assert_eq!(got.significant, want.significant, "{what}: decisions");
    assert_eq!(
        got.p_value_cutoff.map(f64::to_bits),
        want.p_value_cutoff.map(f64::to_bits),
        "{what}: cutoff"
    );
    assert_eq!(got.rules.len(), want.rules.len(), "{what}: rule count");
    for (i, (g, w)) in got.rules.iter().zip(&want.rules).enumerate() {
        assert_eq!(g.pattern, w.pattern, "{what}: rule {i} pattern");
        assert_eq!(g.class, w.class, "{what}: rule {i} class");
        assert_eq!(g.coverage, w.coverage, "{what}: rule {i} coverage");
        assert_eq!(g.support, w.support, "{what}: rule {i} support");
        assert_eq!(
            g.p_value.to_bits(),
            w.p_value.to_bits(),
            "{what}: rule {i} p-value"
        );
    }
}

/// Attribute rows with one planted rule.
fn rows(seed: u64, records: usize) -> Dataset {
    let params = SyntheticParams::default()
        .with_records(records)
        .with_attributes(8)
        .with_rules(1)
        .with_coverage(records / 5, records / 4)
        .with_confidence(0.8, 0.95);
    SyntheticGenerator::new(params).unwrap().generate(seed).0
}

/// Market baskets.  `wide` spreads a few items per basket over a large
/// catalogue, so many rule items are rare on the evaluation half.
fn baskets(seed: u64, classes: usize, wide: bool) -> Dataset {
    let mut params = BasketParams::default()
        .with_transactions(600)
        .with_rules(2)
        .with_coverage(60, 90);
    if wide {
        params = params.with_items(300).with_basket_size(2, 6).with_zipf(0.6);
    }
    params.n_classes = classes;
    BasketGenerator::new(params).unwrap().generate(seed).0
}

/// Checks every entry point against the oracle on one dataset, for both
/// metrics at `alpha`.
fn check_all_entry_points(data: &Dataset, min_sup: usize, split_seed: u64, alpha: f64) {
    check_mining(data, &RuleMiningConfig::new(min_sup), split_seed, alpha);
}

/// [`check_all_entry_points`] under any mining configuration.  The engine
/// is queried on the default pool and pinned to one, two and three
/// threads, a fresh engine each, so every thread count mines and re-scores
/// its own split.  Returns the number of candidates.
fn check_mining(data: &Dataset, mining: &RuleMiningConfig, split_seed: u64, alpha: f64) -> usize {
    let explore = RandomHoldout::from_mining(split_seed, mining).exploratory;
    let (exploratory, evaluation) = oracle_split(data, split_seed);
    let wants: Vec<(ErrorMetric, CorrectionResult)> = [ErrorMetric::Fwer, ErrorMetric::Fdr]
        .into_iter()
        .map(|metric| {
            let want = oracle_from_parts(&exploratory, &evaluation, &explore, metric, alpha, "RH");
            (metric, want)
        })
        .collect();
    for (metric, want) in &wants {
        let parts = holdout_from_parts(&exploratory, &evaluation, &explore, *metric, alpha, "RH");
        assert_bits_eq(&parts, want, "holdout_from_parts");
        let random = random_holdout(data, split_seed, &explore, *metric, alpha);
        assert_bits_eq(&random, want, "random_holdout");
    }
    for threads in [None, Some(1), Some(2), Some(3)] {
        let engine = Engine::new(data.clone());
        for (metric, want) in &wants {
            let mut query = Query::new(mining.clone())
                .with_correction(CorrectionApproach::Holdout, *metric)
                .with_seed(split_seed)
                .with_alpha(alpha);
            query.threads = threads;
            // The first query fills the cache; every other one hits.
            for pass in ["first", "repeat"] {
                let outcome = engine.query(&query).unwrap();
                let what = format!("engine {metric:?} {pass} threads {threads:?}");
                assert_bits_eq(&outcome.result, want, &what);
            }
        }
        let stats = engine.stats();
        assert_eq!((stats.holdout_misses, stats.holdout_hits), (1, 3));
    }
    wants[0].1.n_tests
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_entry_point_matches_the_row_scan_oracle(
        seed in 0u64..1_000,
        source in 0usize..4,
        alpha_idx in 0usize..3,
        split_seed in 0u64..1_000,
    ) {
        let alpha = [0.05, 0.3, 1e-12][alpha_idx];
        let (data, min_sup) = match source {
            0 => (rows(seed, 240), 30),
            1 => (baskets(seed, 2, false), 40),
            2 => (baskets(seed, 3, false), 40),
            _ => (baskets(seed, 2, true), 8),
        };
        check_all_entry_points(&data, min_sup, split_seed, alpha);
    }
}

#[test]
fn wide_sparse_baskets_with_three_classes_match_the_oracle() {
    for seed in 0..3 {
        check_all_entry_points(&baskets(seed, 3, true), 8, 100 + seed, 0.2);
    }
}

/// Forests whose parents are not LCM prefixes: the full Eclat forest
/// (every frequent pattern, parented on its set-enumeration parent) and a
/// length-capped forest compacted onto its closed ancestors.
#[test]
fn all_pattern_and_length_capped_forests_match_the_oracle() {
    for seed in 0..2 {
        for (data, min_sup) in [(rows(seed, 240), 30), (baskets(seed, 3, true), 8)] {
            let mining = RuleMiningConfig::new(min_sup);
            let all = mining.clone().with_closed_only(false);
            assert!(check_mining(&data, &all, 40 + seed, 0.3) > 0);
            for cap in [1, 2] {
                let capped = mining.clone().with_max_length(cap);
                assert!(check_mining(&data, &capped, 50 + seed, 0.3) > 0);
            }
        }
    }
}

#[test]
fn an_empty_evaluation_half_scores_every_candidate_at_p_one() {
    let data = rows(5, 200);
    let (exploratory, empty) = data.split_at(data.n_records());
    assert_eq!(empty.n_records(), 0);
    let mining = RuleMiningConfig::new(25);
    for metric in [ErrorMetric::Fwer, ErrorMetric::Fdr] {
        let want = oracle_from_parts(&exploratory, &empty, &mining, metric, 0.05, "HD");
        assert!(want.n_tests > 0, "the exploratory half yields candidates");
        assert!(want
            .rules
            .iter()
            .all(|r| r.p_value == 1.0 && r.coverage == 0));
        let got = holdout_from_parts(&exploratory, &empty, &mining, metric, 0.05, "HD");
        assert_bits_eq(&got, &want, "empty evaluation half");
    }
}

#[test]
fn a_tiny_alpha_leaves_no_candidates() {
    let data = rows(9, 240);
    let mining = RuleMiningConfig::new(15);
    for metric in [ErrorMetric::Fwer, ErrorMetric::Fdr] {
        let want = {
            let (exploratory, evaluation) = oracle_split(&data, 3);
            oracle_from_parts(&exploratory, &evaluation, &mining, metric, 1e-12, "RH")
        };
        assert_eq!(want.n_tests, 0);
        let got = random_holdout(&data, 3, &mining, metric, 1e-12);
        assert_bits_eq(&got, &want, "alpha 1e-12");
    }
}
