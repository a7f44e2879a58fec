//! A literal reference for the permutation null (§4.2 of the paper).
//!
//! For each permutation the oracle shuffles a fresh copy of the labels under
//! the public `(seed, i)` derivation, recounts every rule's support by
//! scanning the raw records, and scores the rule with the two-tailed Fisher
//! exact test.  It uses no forest, support plan, diffset, class index,
//! p-value buffer or chunking, so it shares none of the engine's machinery
//! beyond the shuffle and the Fisher test it restates.  The engine must
//! reproduce it: bit for bit with unbuffered p-values, and with the p-value
//! buffers to within the float tolerance the buffers are allowed.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sigrule_repro::data::{ClassId, Dataset};
use sigrule_repro::prelude::*;
use sigrule_repro::stats::{FisherTest, RuleCounts, SharedTableSet, Tail};

/// The permutation null of `mined` (mined from `dataset`), computed the
/// slow, obvious way.
fn oracle(dataset: &Dataset, mined: &MinedRuleSet, n_perms: usize, seed: u64) -> PermutationStats {
    let rules = mined.rules();
    let n = dataset.n_records();
    let fisher = FisherTest::new(n);
    let mut minima = Vec::new();
    let mut pool = Vec::with_capacity(n_perms * rules.len());
    for i in 0..n_perms {
        let mut labels = mined.labels().to_vec();
        let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        labels.shuffle(&mut rng);

        let mut perm_min = f64::INFINITY;
        for rule in rules {
            let (mut coverage, mut support) = (0usize, 0usize);
            for (record, &label) in dataset.records().iter().zip(&labels) {
                if record.contains_pattern(&rule.pattern) {
                    coverage += 1;
                    support += usize::from(label == rule.class);
                }
            }
            assert_eq!(coverage, rule.coverage, "a shuffle never moves a cover");
            let class_count = labels.iter().filter(|&&c| c == rule.class).count();
            let counts = RuleCounts::new(n, class_count, coverage, support)
                .expect("counts come from one labelled dataset");
            let p = fisher.p_value(&counts, Tail::TwoSided);
            perm_min = perm_min.min(p);
            pool.push(p);
        }
        if !rules.is_empty() {
            minima.push(perm_min);
        }
    }

    pool.sort_by(|a, b| a.partial_cmp(b).expect("p-values are never NaN"));
    let pool_counts_leq = rules
        .iter()
        .map(|rule| pool.partition_point(|&p| p <= rule.p_value) as u64)
        .collect();
    PermutationStats {
        minima,
        pool_counts_leq,
        pool_size: pool.len() as u64,
    }
}

/// Strategy: a small synthetic dataset with one embedded rule, its mined
/// rule set, a permutation count (short tail chunks included) and a shuffle
/// seed.
fn oracle_case() -> impl Strategy<Value = (Dataset, MinedRuleSet, usize, u64)> {
    (
        120usize..=240,
        5usize..=8,
        0u64..500,
        70u64..95,
        1usize..=20,
        0u64..10_000,
    )
        .prop_map(
            |(records, attrs, data_seed, conf_pct, n_perms, shuffle_seed)| {
                let params = SyntheticParams::default()
                    .with_records(records)
                    .with_attributes(attrs)
                    .with_rules(1)
                    .with_coverage(records / 5, records / 5)
                    .with_confidence(conf_pct as f64 / 100.0, conf_pct as f64 / 100.0);
                let (dataset, _) = SyntheticGenerator::new(params)
                    .expect("valid parameters")
                    .generate(data_seed);
                let mined = mine_rules(&dataset, &RuleMiningConfig::new(records / 8));
                (dataset, mined, n_perms, shuffle_seed)
            },
        )
}

/// Strategy: a small three-class basket dataset mined with `min_conf = 0`,
/// so every pattern yields a rule for every class and the engine derives the
/// last class's supports from the coverages instead of sweeping it.
fn three_class_case() -> impl Strategy<Value = (Dataset, MinedRuleSet, usize, u64)> {
    (150usize..=240, 0u64..500, 1usize..=20, 0u64..10_000).prop_map(
        |(records, data_seed, n_perms, shuffle_seed)| {
            let dataset = three_class_baskets(records, data_seed);
            let mined = mine_rules(&dataset, &RuleMiningConfig::new(records / 10));
            (dataset, mined, n_perms, shuffle_seed)
        },
    )
}

/// A three-class basket dataset with one planted rule.
fn three_class_baskets(records: usize, seed: u64) -> Dataset {
    let mut params = BasketParams::default()
        .with_transactions(records)
        .with_items(14)
        .with_basket_size(2, 6)
        .with_rules(1)
        .with_coverage(records / 5, records / 4)
        .with_confidence(0.8, 0.9);
    params.n_classes = 3;
    let (dataset, _) = BasketGenerator::new(params)
        .expect("valid parameters")
        .generate(seed);
    dataset
}

/// Strategy: the three-class data of [`three_class_case`] relabelled so
/// class 2 holds only three records, mined with `min_conf = 0.25`.  Every
/// rule covers at least `min_sup ≥ 15` records, so no class-2 rule reaches
/// that confidence: class 2 has no rules and nothing is derived.
fn rule_less_class_case() -> impl Strategy<Value = (Dataset, MinedRuleSet, usize, u64)> {
    (150usize..=240, 0u64..500, 1usize..=20, 0u64..10_000).prop_map(
        |(records, data_seed, n_perms, shuffle_seed)| {
            let base = three_class_baskets(records, data_seed);
            let labels: Vec<ClassId> = base
                .class_labels()
                .iter()
                .enumerate()
                .map(|(t, &c)| match (t, c) {
                    (0..=2, _) => 2,
                    (_, 2) => (t % 2) as ClassId,
                    (_, c) => c,
                })
                .collect();
            let dataset = base.with_class_labels(&labels).expect("three classes");
            let mined = mine_rules(
                &dataset,
                &RuleMiningConfig::new(records / 10).with_min_conf(0.25),
            );
            (dataset, mined, n_perms, shuffle_seed)
        },
    )
}

/// The classes that have at least one rule.
fn classes_with_rules(mined: &MinedRuleSet) -> Vec<ClassId> {
    let mut classes: Vec<ClassId> = mined.rules().iter().map(|r| r.class).collect();
    classes.sort_unstable();
    classes.dedup();
    classes
}

/// Checks the engine against the oracle for one correction: exactly when
/// unbuffered, and with the buffers to within the float tolerance they are
/// allowed (pool counts exact, minima within 1e-9), on one thread and two.
fn check_against_oracle(
    expected: &PermutationStats,
    correction: &PermutationCorrection,
    mined: &MinedRuleSet,
) -> Result<(), String> {
    for threads in [1usize, 2] {
        let stats = run(correction, mined, threads);
        let case = format!(
            "buffer={:?} backend={:?} threads={threads}",
            correction.buffer, correction.backend
        );
        if correction.buffer == BufferStrategy::None {
            prop_assert_eq!(expected, &stats, "{}", case);
            continue;
        }
        prop_assert_eq!(
            &expected.pool_counts_leq,
            &stats.pool_counts_leq,
            "{}",
            case
        );
        prop_assert_eq!(expected.pool_size, stats.pool_size);
        prop_assert_eq!(expected.minima.len(), stats.minima.len());
        for (a, b) in expected.minima.iter().zip(&stats.minima) {
            prop_assert!((a - b).abs() < 1e-9, "{}: minima {} vs {}", case, a, b);
        }
    }
    Ok(())
}

/// Runs `correction` on a pool of `threads` workers.
fn run(
    correction: &PermutationCorrection,
    mined: &MinedRuleSet,
    threads: usize,
) -> PermutationStats {
    rayon_pool(threads)
        .expect("pool builds")
        .install(|| correction.collect_stats(mined))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Unbuffered p-values are the oracle's Fisher test exactly, so the
    /// whole null matches bit for bit — for the tid-list and density-auto
    /// backends, on one thread and on two.
    #[test]
    fn unbuffered_engine_equals_the_oracle((dataset, mined, n_perms, seed) in oracle_case()) {
        let expected = oracle(&dataset, &mined, n_perms, seed);
        for backend in [SupportBackend::TidLists, SupportBackend::Auto] {
            let correction = PermutationCorrection::new(n_perms)
                .with_seed(seed)
                .with_buffer(BufferStrategy::None)
                .with_backend(backend);
            check_against_oracle(&expected, &correction, &mined)?;
        }
    }

    /// The p-value buffers may move a p-value by float rounding only: pool
    /// counts match the oracle exactly and minima to within 1e-9.
    #[test]
    fn buffered_engine_matches_the_oracle((dataset, mined, n_perms, seed) in oracle_case()) {
        let expected = oracle(&dataset, &mined, n_perms, seed);
        for buffer in [BufferStrategy::DynamicOnly, BufferStrategy::StaticAndDynamic] {
            let correction = PermutationCorrection::new(n_perms).with_seed(seed).with_buffer(buffer);
            check_against_oracle(&expected, &correction, &mined)?;
        }
    }

    /// Three classes, all with rules: the last class's supports are derived
    /// as `supp(X) − Σ` of the swept classes, for every buffer strategy.
    #[test]
    fn derived_class_engine_matches_the_oracle((dataset, mined, n_perms, seed) in three_class_case()) {
        prop_assert_eq!(mined.n_classes(), 3);
        prop_assert_eq!(classes_with_rules(&mined), vec![0, 1, 2]);
        let expected = oracle(&dataset, &mined, n_perms, seed);
        for buffer in [BufferStrategy::None, BufferStrategy::DynamicOnly, BufferStrategy::StaticAndDynamic] {
            let correction = PermutationCorrection::new(n_perms).with_seed(seed).with_buffer(buffer);
            check_against_oracle(&expected, &correction, &mined)?;
        }
    }

    /// A class without rules: every class with rules is swept, none derived.
    #[test]
    fn rule_less_class_engine_matches_the_oracle((dataset, mined, n_perms, seed) in rule_less_class_case()) {
        prop_assert_eq!(mined.n_classes(), 3);
        prop_assert_eq!(classes_with_rules(&mined), vec![0, 1]);
        let expected = oracle(&dataset, &mined, n_perms, seed);
        for buffer in [BufferStrategy::None, BufferStrategy::StaticAndDynamic] {
            let correction = PermutationCorrection::new(n_perms).with_seed(seed).with_buffer(buffer);
            check_against_oracle(&expected, &correction, &mined)?;
        }
    }

    /// A static budget of half the first class slot's table: its largest
    /// coverages fall to the per-worker dynamic buffer and are ranked by
    /// binary search, the rest by the table's stored ranks.
    #[test]
    fn small_static_budget_matches_the_oracle((dataset, mined, n_perms, seed) in oracle_case()) {
        let full = PermutationCorrection::new(n_perms).build_shared_tables(&mined);
        if full.is_empty() {
            return Ok(());
        }
        let correction = PermutationCorrection::new(n_perms)
            .with_seed(seed)
            .with_static_buffer_bytes(full.slot(0).resident_bytes() / 2);
        let small = correction.build_shared_tables(&mined);
        let held = |set: &SharedTableSet| set.tables().iter().map(|t| t.n_buffers()).sum::<usize>();
        prop_assert!(held(&small) < held(&full), "the budget must drop a coverage");
        let expected = oracle(&dataset, &mined, n_perms, seed);
        check_against_oracle(&expected, &correction, &mined)?;
    }
}
