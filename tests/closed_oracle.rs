//! A literal reference for closed-pattern mining (§3 of the paper) and for
//! the closed-only pattern forest the permutation null sweeps (§4.2).
//!
//! The oracle enumerates frequent patterns by scanning records, groups them
//! by the exact set of records containing them, and calls a pattern closed
//! when it is the unique longest of its group — with no length cap, exactly
//! the patterns equal to the intersection of the records containing them.
//! It uses no tid-set hash, forest, diffset or label word.  The mined rule
//! set must reproduce it, and every node of the compacted forest must count
//! the same rule supports as a record scan under any labelling, in the
//! one-permutation pass and in the 64-lane batched pass.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sigrule_repro::data::VerticalDataset;
use sigrule_repro::mining::{mine_closed_forest, EclatMiner, MinerConfig};
use sigrule_repro::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Every pattern of at most `max_length` items contained in at least
/// `min_sup` records, with the ids of those records.
fn frequent_patterns(
    dataset: &Dataset,
    min_sup: usize,
    max_length: Option<usize>,
) -> Vec<(Pattern, Vec<usize>)> {
    fn extend(
        dataset: &Dataset,
        min_sup: usize,
        max_length: usize,
        items: &[u32],
        prefix: &[u32],
        rows: &[usize],
        out: &mut Vec<(Pattern, Vec<usize>)>,
    ) {
        if prefix.len() == max_length {
            return;
        }
        for (pos, &item) in items.iter().enumerate() {
            let rows: Vec<usize> = rows
                .iter()
                .copied()
                .filter(|&r| dataset.records()[r].items().contains(&item))
                .collect();
            if rows.len() < min_sup {
                continue;
            }
            let mut pattern = prefix.to_vec();
            pattern.push(item);
            out.push((Pattern::from_items(pattern.iter().copied()), rows.clone()));
            extend(
                dataset,
                min_sup,
                max_length,
                &items[pos + 1..],
                &pattern,
                &rows,
                out,
            );
        }
    }
    let items: Vec<u32> = (0..dataset.n_items() as u32).collect();
    let all: Vec<usize> = (0..dataset.n_records()).collect();
    let mut out = Vec::new();
    let cap = max_length.unwrap_or(usize::MAX);
    extend(dataset, min_sup.max(1), cap, &items, &[], &all, &mut out);
    out
}

/// The closed patterns among `frequent`: the member of each same-records
/// group that contains every other member.
fn closed_by_groups(frequent: &[(Pattern, Vec<usize>)]) -> BTreeSet<Vec<u32>> {
    let mut groups: BTreeMap<&[usize], Vec<&Pattern>> = BTreeMap::new();
    for (pattern, rows) in frequent {
        groups.entry(rows.as_slice()).or_default().push(pattern);
    }
    groups
        .values()
        .filter_map(|members| {
            let union = members.iter().fold(Pattern::empty(), |u, p| u.union(p));
            members
                .iter()
                .any(|p| **p == union)
                .then(|| union.items().to_vec())
        })
        .collect()
}

/// The frequent patterns equal to the intersection of the records
/// containing them.
fn closed_by_intersection(
    dataset: &Dataset,
    frequent: &[(Pattern, Vec<usize>)],
) -> BTreeSet<Vec<u32>> {
    frequent
        .iter()
        .filter(|(pattern, rows)| {
            let closure: BTreeSet<u32> = (0..dataset.n_items() as u32)
                .filter(|item| {
                    rows.iter()
                        .all(|&r| dataset.records()[r].items().contains(item))
                })
                .collect();
            closure.into_iter().eq(pattern.items().iter().copied())
        })
        .map(|(pattern, _)| pattern.items().to_vec())
        .collect()
}

/// Strategy: a small attribute-row or market-basket dataset, a minimum
/// support and an optional length cap.
fn mining_case() -> impl Strategy<Value = (Dataset, usize, Option<usize>)> {
    (
        0u8..2,
        60usize..=140,
        4usize..=7,
        0u64..1_000,
        3usize..=20,
        0usize..=5,
    )
        .prop_map(|(kind, records, width, data_seed, sup_pct, cap)| {
            let dataset = if kind == 0 {
                // Few values per attribute and two planted rules: dense
                // rows where many frequent patterns are not closed.
                let mut params = SyntheticParams::default()
                    .with_records(records)
                    .with_attributes(width)
                    .with_rules(2)
                    .with_coverage(records / 5, records / 3)
                    .with_confidence(0.8, 0.9);
                params.max_values = 3;
                SyntheticGenerator::new(params)
                    .expect("valid parameters")
                    .generate(data_seed)
                    .0
            } else {
                let params = BasketParams::default()
                    .with_transactions(records)
                    .with_items(width * 3)
                    .with_basket_size(2, width)
                    .with_zipf(0.8)
                    .with_rules(2)
                    .with_coverage(records / 6, records / 4);
                BasketGenerator::new(params)
                    .expect("valid parameters")
                    .generate(data_seed)
                    .0
            };
            let min_sup = (records * sup_pct / 100).max(2);
            // One to three caps the pattern length; anything else is no cap.
            (dataset, min_sup, (1..=3).contains(&cap).then_some(cap))
        })
}

fn mining_config(min_sup: usize, max_length: Option<usize>) -> RuleMiningConfig {
    let config = RuleMiningConfig::new(min_sup);
    match max_length {
        Some(len) => config.with_max_length(len),
        None => config,
    }
}

/// `n` label vectors: the dataset's own labels, then seeded shuffles.
fn label_vectors(dataset: &Dataset, n: usize, seed: u64) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = vec![dataset.class_labels()];
    for _ in 1..n {
        let mut labels = dataset.class_labels();
        labels.shuffle(&mut rng);
        out.push(labels);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) The rule patterns, and the nodes of the compacted forest, are
    /// exactly the oracle's closed patterns.
    #[test]
    fn mined_patterns_are_the_brute_force_closed_set(
        (dataset, min_sup, max_length) in mining_case()
    ) {
        let frequent = frequent_patterns(&dataset, min_sup, max_length);
        let expected = closed_by_groups(&frequent);
        if max_length.is_none() {
            prop_assert_eq!(&expected, &closed_by_intersection(&dataset, &frequent));
        } else {
            // A truly closed pattern within the cap is always kept.
            let truly = closed_by_intersection(&dataset, &frequent);
            prop_assert!(truly.is_subset(&expected));
        }

        let mined = mine_rules(&dataset, &mining_config(min_sup, max_length));
        let nodes: BTreeSet<Vec<u32>> = mined
            .forest()
            .nodes()
            .iter()
            .map(|n| n.pattern.items().to_vec())
            .collect();
        prop_assert_eq!(nodes.len(), mined.forest().len(), "forest patterns are distinct");
        prop_assert_eq!(&nodes, &expected);
        let rules: BTreeSet<Vec<u32>> = mined
            .rules()
            .iter()
            .map(|r| r.pattern.items().to_vec())
            .collect();
        prop_assert_eq!(&rules, &expected);
        let per_pattern = if dataset.n_classes() == 2 { 1 } else { dataset.n_classes() };
        prop_assert_eq!(mined.n_tests(), expected.len() * per_pattern);
    }

    /// (b) Under any labelling, every compacted node's rule support — from
    /// the one-permutation pass and from the 64-lane batched pass — is the
    /// record-scan count.
    #[test]
    fn compacted_supports_equal_record_scans(
        (dataset, min_sup, max_length) in mining_case(),
        label_seed in 0u64..10_000,
        use_diffsets in 0u8..2,
    ) {
        let config = mining_config(min_sup, max_length).with_diffsets(use_diffsets == 1);
        let mined = mine_rules(&dataset, &config);
        let forest = mined.forest();
        let n_classes = dataset.n_classes();
        let labellings = label_vectors(&dataset, 3, label_seed);

        let mut scans = Vec::new();
        for labels in &labellings {
            let relabelled = dataset.with_class_labels(labels).expect("one label per record");
            let per_class: Vec<Vec<usize>> = (0..n_classes as u32)
                .map(|c| {
                    forest
                        .nodes()
                        .iter()
                        .map(|node| relabelled.rule_support(&node.pattern, c))
                        .collect()
                })
                .collect();
            for (c, want) in per_class.iter().enumerate() {
                prop_assert_eq!(&forest.rule_supports(labels, c as u32), want, "class {}", c);
            }
            scans.push(per_class);
        }

        let mut out = Vec::new();
        for c in 0..n_classes {
            let words: Vec<u64> = (0..dataset.n_records())
                .map(|t| {
                    labellings
                        .iter()
                        .enumerate()
                        .filter(|(_, labels)| labels[t] == c as u32)
                        .fold(0, |w, (lane, _)| w | 1 << lane)
                })
                .collect();
            let total = labellings[0].iter().filter(|&&l| l == c as u32).count();
            forest.rule_supports_lanes(&words, total, &mut out);
            prop_assert_eq!(out.len(), forest.len() * 64);
            for (lane, scan) in scans.iter().enumerate() {
                for (node, &want) in scan[c].iter().enumerate() {
                    prop_assert_eq!(
                        out[node * 64 + lane] as usize,
                        want,
                        "class {} lane {} node {}", c, lane, node
                    );
                }
            }
        }
    }

    /// (c) `--all-patterns` keeps the full Eclat forest, its closed rules are
    /// exactly the closed-only rules, and turning diffsets off changes no
    /// rule (only the stored covers).
    #[test]
    fn all_patterns_and_no_diffsets_are_unchanged(
        (dataset, min_sup, max_length) in mining_case()
    ) {
        let closed = mine_rules(&dataset, &mining_config(min_sup, max_length));
        let all = mine_rules(
            &dataset,
            &mining_config(min_sup, max_length).with_closed_only(false),
        );
        let mut miner_config = MinerConfig::new(min_sup);
        if let Some(len) = max_length {
            miner_config = miner_config.with_max_length(len);
        }
        let eclat = EclatMiner::default().mine_forest(&dataset, &miner_config);
        prop_assert_eq!(all.forest(), &eclat);

        let closed_patterns: HashSet<&Pattern> =
            closed.rules().iter().map(|r| &r.pattern).collect();
        let kept: Vec<&ClassRule> = all
            .rules()
            .iter()
            .filter(|r| closed_patterns.contains(&r.pattern))
            .collect();
        let closed_rules: Vec<&ClassRule> = closed.rules().iter().collect();
        prop_assert_eq!(kept, closed_rules);

        let tid_lists = mine_rules(
            &dataset,
            &mining_config(min_sup, max_length).with_diffsets(false),
        );
        prop_assert_eq!(tid_lists.rules(), closed.rules());
        prop_assert_eq!(tid_lists.forest().n_diffsets(), 0);
        prop_assert_eq!(tid_lists.forest().len(), closed.forest().len());
    }

    /// (d) Without a length cap, the directly mined closed forest is the
    /// Eclat forest compacted to its closed nodes, node for node: same
    /// order, patterns, supports, parents, covers and tid hashes.
    #[test]
    fn direct_closed_forest_equals_the_compacted_eclat_forest(
        (dataset, min_sup, _) in mining_case(),
        use_diffsets in 0u8..2,
    ) {
        let use_diffsets = use_diffsets == 1;
        let vertical = VerticalDataset::from_dataset(&dataset);
        let eclat = EclatMiner { use_diffsets }
            .mine_forest_vertical(&vertical, &MinerConfig::new(min_sup));
        let closed = eclat.closed_indices();
        let compacted = eclat.into_closed(&closed, use_diffsets);
        let direct = mine_closed_forest(&vertical, min_sup, use_diffsets);
        prop_assert_eq!(&direct, &compacted);
        let mined =
            mine_rules(&dataset, &RuleMiningConfig::new(min_sup).with_diffsets(use_diffsets));
        prop_assert_eq!(mined.forest(), &direct);
    }

    /// (e) The rule miner mines the direct forest's top-level subtrees on
    /// its thread pool: under one-, two- and three-thread pools the forest
    /// is still the compacted Eclat forest, node for node.
    #[test]
    fn direct_closed_forest_is_the_same_at_every_thread_count(
        (dataset, min_sup, _) in mining_case(),
        use_diffsets in 0u8..2,
    ) {
        let use_diffsets = use_diffsets == 1;
        let vertical = VerticalDataset::from_dataset(&dataset);
        let eclat = EclatMiner { use_diffsets }
            .mine_forest_vertical(&vertical, &MinerConfig::new(min_sup));
        let closed = eclat.closed_indices();
        let compacted = eclat.into_closed(&closed, use_diffsets);
        let config = RuleMiningConfig::new(min_sup).with_diffsets(use_diffsets);
        for threads in 1..=3 {
            let mined = rayon_pool(threads)
                .unwrap()
                .install(|| mine_rules(&dataset, &config));
            prop_assert_eq!(mined.forest(), &compacted, "threads {}", threads);
        }
    }
}
