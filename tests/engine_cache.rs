//! Property test for the resident engine's query caching (ISSUE 4): warm
//! queries — a second request against the same engine at a different α,
//! error metric, or correction approach — must be **bit-identical** to a
//! fresh one-shot run (a new [`Engine`] answering one [`Query`]) with the
//! same parameters, at any thread count, and to the free function that
//! implements the query's approach.  The engine is a caching layer, never a
//! semantics change.

use proptest::prelude::*;
use sigrule_repro::prelude::*;

/// One shared synthetic dataset shape; the seed varies per case.
fn dataset(seed: u64, records: usize, attributes: usize) -> Dataset {
    let params = SyntheticParams::default()
        .with_records(records)
        .with_attributes(attributes)
        .with_rules(1)
        .with_coverage(records / 5, records / 4)
        .with_confidence(0.85, 0.95);
    SyntheticGenerator::new(params).unwrap().generate(seed).0
}

fn base_query(min_sup: usize, approach: CorrectionApproach, metric: ErrorMetric) -> Query {
    Query::new(RuleMiningConfig::new(min_sup))
        .with_correction(approach, metric)
        .with_permutations(30)
        .with_seed(23)
}

fn one_shot(dataset: &Dataset, query: &Query) -> CorrectionResult {
    Engine::new(dataset.clone()).query(query).unwrap().result
}

/// Every (approach, metric) pair a query can name.
const PAIRS: [(CorrectionApproach, ErrorMetric); 8] = [
    (CorrectionApproach::None, ErrorMetric::Fwer),
    (CorrectionApproach::None, ErrorMetric::Fdr),
    (CorrectionApproach::Direct, ErrorMetric::Fwer),
    (CorrectionApproach::Direct, ErrorMetric::Fdr),
    (CorrectionApproach::Permutation, ErrorMetric::Fwer),
    (CorrectionApproach::Permutation, ErrorMetric::Fdr),
    (CorrectionApproach::Holdout, ErrorMetric::Fwer),
    (CorrectionApproach::Holdout, ErrorMetric::Fdr),
];

/// The query decided by the free function that implements its approach,
/// on a rule set mined here: no engine, no cache.
fn free_function(dataset: &Dataset, mined: &MinedRuleSet, query: &Query) -> CorrectionResult {
    let (metric, alpha) = (query.metric, query.alpha);
    match query.approach {
        CorrectionApproach::None => no_correction(mined, alpha),
        CorrectionApproach::Direct => match metric {
            ErrorMetric::Fwer => direct::bonferroni(mined, alpha),
            ErrorMetric::Fdr => direct::benjamini_hochberg(mined, alpha),
        },
        CorrectionApproach::Permutation => {
            let correction = PermutationCorrection::new(query.n_permutations).with_seed(query.seed);
            match metric {
                ErrorMetric::Fwer => correction.control_fwer(mined, alpha),
                ErrorMetric::Fdr => correction.control_fdr(mined, alpha),
            }
        }
        CorrectionApproach::Holdout => random_holdout(
            dataset,
            query.seed,
            &RandomHoldout::from_mining(query.seed, &query.mining).exploratory,
            metric,
            alpha,
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A cold query populates the caches; every (approach, metric) pair at
    /// two α must then answer warm, and match both a fresh one-shot engine
    /// run and the free function of its approach bit for bit.
    #[test]
    fn warm_queries_match_fresh_pipeline_runs(
        seed in 0u64..200,
        records in 150usize..300,
        attributes in 6usize..10,
        alpha_millis in 1usize..200,
    ) {
        let data = dataset(seed, records, attributes);
        let engine = Engine::new(data.clone());
        let min_sup = records / 6;
        let alpha = alpha_millis as f64 / 1000.0;
        let mined = mine_rules(&data, &RuleMiningConfig::new(min_sup));

        // Cold: permutation FWER at the default α.
        let cold = engine
            .query(&base_query(min_sup, CorrectionApproach::Permutation, ErrorMetric::Fwer))
            .unwrap();
        prop_assert!(!cold.mined_cached);
        prop_assert_eq!(cold.null_cached, Some(false));

        // Warm variations: α, metric, and approach all change; the mined
        // rule set (and, for permutation, the null) must come from the cache.
        for alpha in [0.05, alpha] {
            for (approach, metric) in PAIRS {
                let query = base_query(min_sup, approach, metric).with_alpha(alpha);
                let warm = engine.query(&query).unwrap();
                prop_assert!(warm.mined_cached, "{:?} should hit the mine cache", approach);
                if approach == CorrectionApproach::Permutation {
                    prop_assert_eq!(warm.null_cached, Some(true));
                }
                let fresh = one_shot(&data, &query);
                prop_assert_eq!(
                    &warm.result,
                    &fresh,
                    "warm and one-shot answers disagree for {:?}/{:?} at alpha {}",
                    approach,
                    metric,
                    alpha
                );
                prop_assert_eq!(
                    &fresh,
                    &free_function(&data, &mined, &query),
                    "the engine and the free function disagree for {:?}/{:?} at alpha {}",
                    approach,
                    metric,
                    alpha
                );
            }
        }
    }

    /// Thread-count invariance through the cache: a null collected under a
    /// pinned pool of any size answers warm queries identically, and matches
    /// one-shot runs pinned to *different* thread counts.
    #[test]
    fn warm_cache_is_thread_count_invariant(
        seed in 0u64..100,
        collect_threads in 1usize..5,
    ) {
        let data = dataset(seed, 200, 8);
        let engine = Engine::new(data.clone());
        let cold_query = base_query(30, CorrectionApproach::Permutation, ErrorMetric::Fwer)
            .with_threads(collect_threads);
        let cold = engine.query(&cold_query).unwrap();
        prop_assert_eq!(cold.null_cached, Some(false));

        for query_threads in [1usize, 2, 4] {
            let warm_query = base_query(30, CorrectionApproach::Permutation, ErrorMetric::Fwer)
                .with_alpha(0.02)
                .with_threads(query_threads);
            let warm = engine.query(&warm_query).unwrap();
            prop_assert_eq!(warm.null_cached, Some(true), "same (N, seed) null is reused");
            let fresh = one_shot(&data, &warm_query);
            prop_assert_eq!(&warm.result, &fresh, "threads {} vs {}", collect_threads, query_threads);
        }
    }
}

/// Non-property smoke check: the engine's own stats agree with the cache
/// behaviour the property tests rely on.
#[test]
fn engine_stats_reflect_cache_traffic() {
    let data = dataset(7, 200, 8);
    let engine = Engine::new(data);
    let q = base_query(30, CorrectionApproach::Permutation, ErrorMetric::Fwer);
    engine.query(&q).unwrap();
    engine.query(&q.clone().with_alpha(0.01)).unwrap();
    engine.query(&q.clone().with_alpha(0.2)).unwrap();
    let stats = engine.stats();
    assert_eq!(stats.queries, 3);
    assert_eq!(stats.mine_misses, 1);
    assert_eq!(stats.mine_hits, 2);
    assert_eq!(stats.null_misses, 1);
    assert_eq!(stats.null_hits, 2);
    assert_eq!(stats.cached_rule_sets, 1);
    assert_eq!(stats.cached_nulls, 1);
}

/// The holdout rows share one evaluated split per (mining, seed): a cold
/// FWER query fills it, and the FDR query and queries at new α values hit
/// it, each answering exactly what the free `random_holdout` answers.  A new
/// seed is a new split and misses.
#[test]
fn holdout_queries_share_one_evaluated_split_per_seed() {
    let data = dataset(11, 240, 8);
    let engine = Engine::new(data.clone());
    let mining = RuleMiningConfig::new(40);
    let explore = |seed| RandomHoldout::from_mining(seed, &mining).exploratory;
    let query = |metric, alpha, seed| {
        base_query(40, CorrectionApproach::Holdout, metric)
            .with_alpha(alpha)
            .with_seed(seed)
    };
    let cases = [
        (ErrorMetric::Fwer, 0.05, 23),
        (ErrorMetric::Fdr, 0.05, 23),
        (ErrorMetric::Fwer, 0.01, 23),
        (ErrorMetric::Fdr, 0.2, 23),
        (ErrorMetric::Fwer, 0.05, 24),
    ];
    let mut hits_misses = Vec::new();
    for (metric, alpha, seed) in cases {
        let outcome = engine.query(&query(metric, alpha, seed)).unwrap();
        let free = random_holdout(&data, seed, &explore(seed), metric, alpha);
        assert_eq!(outcome.result, free, "{metric:?} at {alpha}, seed {seed}");
        let stats = engine.stats();
        hits_misses.push((stats.holdout_hits, stats.holdout_misses));
    }
    assert_eq!(hits_misses, [(0, 1), (1, 1), (2, 1), (3, 1), (3, 2)]);
    let stats = engine.stats();
    assert_eq!(stats.mine_misses, 1, "one whole-dataset rule set");
    assert!(stats.holdout_bytes > 0);
    assert!(stats.resident_bytes() >= stats.rule_set_bytes + stats.holdout_bytes);
}
