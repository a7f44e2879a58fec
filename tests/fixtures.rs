//! Guards for the checked-in test fixtures under `tests/fixtures/`.
//!
//! The basket fixture is the deterministic output of the seeded
//! [`BasketGenerator`], so it can be regenerated at any time with
//! `cargo test --test fixtures -- --ignored regenerate` and a drift between
//! the file and the generator fails loudly here instead of silently changing
//! what the CLI acceptance tests mine.

use sigrule_repro::prelude::*;
use std::path::PathBuf;

/// The generator configuration behind `tests/fixtures/retail_toy.basket`.
fn fixture_generator() -> BasketGenerator {
    let params = BasketParams::default()
        .with_transactions(120)
        .with_items(24)
        .with_basket_size(2, 6)
        .with_zipf(0.8)
        .with_rules(1)
        .with_coverage(30, 30)
        .with_confidence(0.95, 0.95);
    BasketGenerator::new(params).expect("valid fixture parameters")
}

const FIXTURE_SEED: u64 = 42;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/retail_toy.basket")
}

fn fixture_text() -> String {
    let (dataset, _) = fixture_generator().generate(FIXTURE_SEED);
    dataset_to_baskets(&dataset)
}

/// Regenerates the checked-in fixture (run with `-- --ignored`).
#[test]
#[ignore = "writes tests/fixtures/retail_toy.basket; run explicitly to regenerate"]
fn regenerate_basket_fixture() {
    std::fs::create_dir_all(fixture_path().parent().unwrap()).unwrap();
    std::fs::write(fixture_path(), fixture_text()).unwrap();
}

#[test]
fn basket_fixture_matches_the_seeded_generator() {
    let on_disk = std::fs::read_to_string(fixture_path())
        .expect("tests/fixtures/retail_toy.basket is checked in");
    assert_eq!(
        on_disk,
        fixture_text(),
        "fixture drifted from BasketGenerator seed {FIXTURE_SEED}; \
         regenerate with `cargo test --test fixtures -- --ignored`"
    );
}

#[test]
fn basket_fixture_loads_and_mines_significant_rules() {
    let load = load_baskets_file(fixture_path(), &BasketOptions::default()).unwrap();
    assert!(load.warnings.is_empty());
    let dataset = &load.dataset;
    assert_eq!(dataset.n_records(), 120);
    assert!(dataset.item_space().is_basket());

    let query = Query::new(RuleMiningConfig::new(12))
        .with_correction(CorrectionApproach::Permutation, ErrorMetric::Fwer)
        .with_permutations(200);
    let run = Engine::new(dataset.clone()).query(&query).unwrap();
    assert!(
        run.result.n_significant() >= 1,
        "the planted itemset must survive permutation-based FWER control"
    );
}
