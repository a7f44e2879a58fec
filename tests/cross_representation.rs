//! Cross-representation equivalence: an attribute-valued dataset re-encoded
//! as market-basket transactions must yield *rule-for-rule identical*
//! permutation-corrected output.
//!
//! This is the acceptance test of the ItemSpace refactor.  The paper's
//! statistics are functions of supports and class labels only, so nothing
//! may change when the very same records reach the miner through the basket
//! reader instead of the columnar schema: the same patterns (modulo item-id
//! renumbering), the same Fisher p-values bit-for-bit, the same permutation
//! null (the label shuffles depend only on the seed and the record order),
//! the same cut-off and the same significance decisions.

use sigrule_repro::prelude::*;
use std::collections::BTreeMap;

/// One rule in representation-independent form: item names (sorted) and the
/// class name.
type RuleKey = (Vec<String>, String);

/// Per-rule outcome indexed by [`RuleKey`]: coverage, support, p-value,
/// significance decision.
type RuleOutcomes = BTreeMap<RuleKey, (usize, usize, f64, bool)>;

fn rule_key(rule: &ClassRule, space: &ItemSpace) -> RuleKey {
    let mut names: Vec<String> = rule
        .pattern
        .items()
        .iter()
        .map(|&i| space.describe_item(i))
        .collect();
    names.sort();
    let class = space
        .class_name(rule.class)
        .expect("rule classes are valid")
        .to_string();
    (names, class)
}

/// Runs mine + permutation correction and indexes the outcome by
/// representation-independent rule key.
fn corrected(
    dataset: &Dataset,
    min_sup: usize,
    metric: ErrorMetric,
) -> (CorrectionResult, RuleOutcomes) {
    let mined = mine_rules(dataset, &RuleMiningConfig::new(min_sup));
    let result = match metric {
        ErrorMetric::Fwer => PermutationCorrection::new(300)
            .with_seed(5)
            .control_fwer(&mined, 0.05),
        ErrorMetric::Fdr => PermutationCorrection::new(300)
            .with_seed(5)
            .control_fdr(&mined, 0.05),
    };
    let mut by_key = BTreeMap::new();
    for (rule, &significant) in result.rules.iter().zip(result.significant.iter()) {
        let previous = by_key.insert(
            rule_key(rule, mined.item_space()),
            (rule.coverage, rule.support, rule.p_value, significant),
        );
        assert!(previous.is_none(), "rule keys are unique");
    }
    (result, by_key)
}

/// Re-encodes an attribute dataset as basket text and loads it back.
fn as_baskets(dataset: &Dataset) -> Dataset {
    let text = dataset_to_baskets(dataset);
    load_baskets_str(&text, &BasketOptions::default())
        .expect("attribute item names are separator-free")
        .dataset
}

#[test]
fn rows_and_baskets_give_identical_permutation_corrected_rules() {
    let params = SyntheticParams::default()
        .with_records(400)
        .with_attributes(8)
        .with_rules(2)
        .with_coverage(80, 110)
        .with_confidence(0.85, 0.95);
    let (rows, _) = SyntheticGenerator::new(params).unwrap().generate(29);
    let baskets = as_baskets(&rows);

    // Same records, different representation.
    assert_eq!(baskets.n_records(), rows.n_records());
    assert!(rows.schema().is_some());
    assert!(baskets.schema().is_none());

    for metric in [ErrorMetric::Fwer, ErrorMetric::Fdr] {
        let (rows_result, rows_rules) = corrected(&rows, 40, metric);
        let (baskets_result, baskets_rules) = corrected(&baskets, 40, metric);

        // Rule-for-rule: same keys, identical statistics and decisions.
        assert_eq!(rows_rules.len(), baskets_rules.len());
        for (key, &(coverage, support, p_value, significant)) in &rows_rules {
            let &(b_coverage, b_support, b_p_value, b_significant) = baskets_rules
                .get(key)
                .unwrap_or_else(|| panic!("rule {key:?} missing from the basket run"));
            assert_eq!(coverage, b_coverage, "coverage of {key:?}");
            assert_eq!(support, b_support, "support of {key:?}");
            assert_eq!(
                p_value.to_bits(),
                b_p_value.to_bits(),
                "p-value of {key:?} must be bit-identical ({p_value} vs {b_p_value})"
            );
            assert_eq!(significant, b_significant, "decision for {key:?}");
        }

        // The permutation machinery itself agrees: same test count, same
        // number of discoveries, bit-identical empirical cut-off.
        assert_eq!(rows_result.n_tests, baskets_result.n_tests);
        assert_eq!(rows_result.n_significant(), baskets_result.n_significant());
        assert!(
            rows_result.n_significant() > 0,
            "the embedded rules should be discovered ({metric:?})"
        );
        match (rows_result.p_value_cutoff, baskets_result.p_value_cutoff) {
            (Some(a), Some(b)) => assert_eq!(a.to_bits(), b.to_bits(), "cut-off differs"),
            (a, b) => assert_eq!(a, b),
        }
    }
}

#[test]
fn rows_and_baskets_agree_across_thread_counts() {
    // The parallel permutation engine is bit-identical across thread counts;
    // that property must also hold through the basket representation.
    let params = SyntheticParams::default()
        .with_records(300)
        .with_attributes(6)
        .with_rules(1)
        .with_coverage(70, 70)
        .with_confidence(0.9, 0.9);
    let (rows, _) = SyntheticGenerator::new(params).unwrap().generate(13);
    let baskets = as_baskets(&rows);

    let run = |dataset: &Dataset, threads: usize| {
        let query = Query::new(RuleMiningConfig::new(40))
            .with_correction(CorrectionApproach::Permutation, ErrorMetric::Fwer)
            .with_permutations(120)
            .with_seed(3)
            .with_threads(threads);
        Engine::new(dataset.clone()).query(&query).unwrap()
    };
    let rows_1 = run(&rows, 1);
    let rows_4 = run(&rows, 4);
    let baskets_1 = run(&baskets, 1);
    let baskets_4 = run(&baskets, 4);

    assert_eq!(rows_1.result, rows_4.result);
    assert_eq!(baskets_1.result, baskets_4.result);
    assert_eq!(
        rows_1.result.n_significant(),
        baskets_1.result.n_significant()
    );
    assert_eq!(
        rows_1.result.p_value_cutoff,
        baskets_1.result.p_value_cutoff
    );
}
