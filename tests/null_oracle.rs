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
use sigrule_repro::data::Dataset;
use sigrule_repro::prelude::*;
use sigrule_repro::stats::{FisherTest, RuleCounts, Tail};

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
            for threads in [1usize, 2] {
                let stats = run(&correction, &mined, threads);
                prop_assert_eq!(&expected, &stats, "backend={:?} threads={}", backend, threads);
            }
        }
    }

    /// The p-value buffers may move a p-value by float rounding only: pool
    /// counts match the oracle exactly and minima to within 1e-9.
    #[test]
    fn buffered_engine_matches_the_oracle((dataset, mined, n_perms, seed) in oracle_case()) {
        let expected = oracle(&dataset, &mined, n_perms, seed);
        for buffer in [BufferStrategy::DynamicOnly, BufferStrategy::StaticAndDynamic] {
            let correction = PermutationCorrection::new(n_perms).with_seed(seed).with_buffer(buffer);
            for threads in [1usize, 2] {
                let stats = run(&correction, &mined, threads);
                prop_assert_eq!(&expected.pool_counts_leq, &stats.pool_counts_leq, "buffer={:?}", buffer);
                prop_assert_eq!(expected.pool_size, stats.pool_size);
                prop_assert_eq!(expected.minima.len(), stats.minima.len());
                for (a, b) in expected.minima.iter().zip(&stats.minima) {
                    prop_assert!((a - b).abs() < 1e-9, "buffer={:?}: minima {} vs {}", buffer, a, b);
                }
            }
        }
    }
}
