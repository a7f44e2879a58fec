//! Property test for cooperative cancellation (ISSUE 6): a query cancelled
//! at an *arbitrary* point — by a deadline landing anywhere in the cold
//! work, or by another thread firing the token mid-flight — must leave the
//! engine's caches **cold or complete, never partial**.  The observable
//! contract: a subsequent identical query succeeds and is bit-identical to
//! a fresh one-shot run (a new [`Engine`] answering the same [`Query`]), as
//! if the aborted attempt had never happened.

use proptest::prelude::*;
use sigrule_repro::prelude::*;
use std::time::Duration;

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

fn perm_query(min_sup: usize) -> Query {
    Query::new(RuleMiningConfig::new(min_sup))
        .with_correction(CorrectionApproach::Permutation, ErrorMetric::Fwer)
        .with_permutations(30)
        .with_seed(23)
}

/// The clean reference: a fresh engine answering the query with the
/// never-firing token.
fn one_shot(dataset: &Dataset, query: &Query) -> CorrectionResult {
    let clean = query.clone().with_cancel(CancelToken::none());
    Engine::new(dataset.clone()).query(&clean).unwrap().result
}

/// After a possibly-aborted attempt, the engine must serve the identical
/// query as if nothing happened: same bits as the clean one-shot run, and a
/// further repeat fully warm — the caches were cold or complete.
fn assert_recovers(engine: &Engine, query: &Query, reference: &CorrectionResult) {
    let retry = engine.query(query).expect("un-cancelled retry succeeds");
    assert_eq!(
        &retry.result, reference,
        "retry after abort diverges from the clean one-shot run"
    );
    let warm = engine.query(query).expect("warm repeat succeeds");
    assert!(warm.mined_cached, "successful fill should be complete");
    assert_eq!(warm.null_cached, Some(true));
    assert_eq!(&warm.result, reference);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A deadline landing anywhere — before mining, between permutation
    /// chunks, or after everything finished — either aborts with
    /// `deadline_exceeded` or returns the exact clean answer; either way
    /// the next identical query is bit-identical to a fresh one-shot run.
    #[test]
    fn deadline_at_arbitrary_point_leaves_cache_cold_or_complete(
        seed in 0u64..100,
        deadline_us in 0u64..5_000,
    ) {
        let data = dataset(seed, 200, 8);
        let query = perm_query(30);
        let reference = one_shot(&data, &query);

        let engine = Engine::new(data);
        let token = CancelToken::new().child_with_deadline(Duration::from_micros(deadline_us));
        match engine.query(&query.clone().with_cancel(token)) {
            Err(PipelineError::Cancelled(cancelled)) => {
                prop_assert_eq!(cancelled.reason, CancelReason::DeadlineExceeded);
                prop_assert_eq!(engine.stats().cancelled_queries, 1);
            }
            Ok(outcome) => {
                // The deadline fell after the last check: a complete,
                // correct answer is the other legal outcome.
                prop_assert_eq!(&outcome.result, &reference);
                prop_assert_eq!(engine.stats().cancelled_queries, 0);
            }
            Err(other) => prop_assert!(false, "unexpected error: {other:?}"),
        }
        assert_recovers(&engine, &query, &reference);
    }

    /// An explicit cancel fired from another thread at an arbitrary moment
    /// mid-query: same contract, `Cancelled` reason instead of a deadline.
    #[test]
    fn explicit_cancel_mid_flight_leaves_cache_cold_or_complete(
        seed in 0u64..100,
        fire_after_us in 0u64..5_000,
    ) {
        let data = dataset(seed, 200, 8);
        let query = perm_query(30);
        let reference = one_shot(&data, &query);

        let engine = Engine::new(data);
        let token = CancelToken::new();
        let trigger = token.clone();
        let firer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_micros(fire_after_us));
            trigger.cancel();
        });
        let raced = engine.query(&query.clone().with_cancel(token));
        firer.join().expect("firer joins");
        match raced {
            Err(PipelineError::Cancelled(cancelled)) => {
                prop_assert_eq!(cancelled.reason, CancelReason::Cancelled);
                prop_assert_eq!(engine.stats().cancelled_queries, 1);
            }
            Ok(outcome) => {
                prop_assert_eq!(&outcome.result, &reference);
            }
            Err(other) => prop_assert!(false, "unexpected error: {other:?}"),
        }
        assert_recovers(&engine, &query, &reference);
    }
}

/// A holdout query cancelled while its split is being evaluated leaves the
/// holdout cell empty (no hit, no miss, no bytes), and the retry evaluates
/// afresh and answers bit-identically to the free `random_holdout`.
#[test]
fn cancelled_cold_holdout_leaves_the_cell_empty_and_the_retry_is_bit_identical() {
    let data = dataset(3, 1500, 10);
    let query = Query::new(RuleMiningConfig::new(60))
        .with_correction(CorrectionApproach::Holdout, ErrorMetric::Fdr)
        .with_seed(31);
    let explore = RandomHoldout::from_mining(31, &query.mining).exploratory;
    let reference = random_holdout(&data, 31, &explore, ErrorMetric::Fdr, query.alpha);
    let engine = Engine::new(data);
    // Mine the whole dataset first: the holdout query then finds its rule
    // set cached, and a short deadline fires inside the holdout fill.
    engine.query(&perm_query(60)).unwrap();
    let before = engine.stats();

    // Deadlines double from well inside the fill until one lets it finish.
    let mut cancelled = 0;
    let mut deadline_us = 300;
    let first = loop {
        let token = CancelToken::new().child_with_deadline(Duration::from_micros(deadline_us));
        match engine.query(&query.clone().with_cancel(token)) {
            Err(PipelineError::Cancelled(c)) => {
                assert_eq!(c.reason, CancelReason::DeadlineExceeded);
                cancelled += 1;
                let stats = engine.stats();
                assert_eq!((stats.holdout_hits, stats.holdout_misses), (0, 0));
                assert_eq!(stats.holdout_bytes, 0, "an aborted fill left residue");
                assert_eq!(stats.resident_bytes(), before.resident_bytes());
            }
            Ok(outcome) => break outcome,
            Err(other) => panic!("unexpected error: {other:?}"),
        }
        deadline_us *= 2;
    };
    assert!(
        cancelled > 0,
        "the first deadline should land inside the fill"
    );
    assert_eq!(first.result, reference);
    let stats = engine.stats();
    assert_eq!((stats.holdout_hits, stats.holdout_misses), (0, 1));
    assert!(stats.holdout_bytes > 0);

    // Warm: a new α decides from the cached split.
    let warm = engine.query(&query.clone().with_alpha(0.01)).unwrap();
    assert_eq!(engine.stats().holdout_hits, 1);
    let free = random_holdout(engine.dataset(), 31, &explore, ErrorMetric::Fdr, 0.01);
    assert_eq!(warm.result, free);
}
