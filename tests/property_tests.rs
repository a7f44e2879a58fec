//! Property-based tests over the core invariants of the reproduction:
//! miner agreement, support anti-monotonicity, Diffset/tid-set equivalence,
//! p-value validity and monotonicity of the multiple-testing procedures.

use proptest::prelude::*;
use sigrule_repro::data::TidSet;
use sigrule_repro::mining::{
    closed_flags, AprioriMiner, EclatMiner, FrequentPatternMiner, MinerConfig,
};
use sigrule_repro::prelude::*;
use sigrule_repro::stats::{adjusted_p_values, benjamini_hochberg, AdjustMethod};
use std::collections::BTreeSet;

/// Strategy: a small random class-labelled dataset (records over `n_attrs`
/// binary/ternary attributes), plus a minimum support.
fn small_dataset_strategy() -> impl Strategy<Value = (Dataset, usize)> {
    (2usize..=4, 8usize..=30, 1usize..=4).prop_flat_map(|(n_attrs, n_records, min_sup)| {
        let cardinalities: Vec<usize> = (0..n_attrs).map(|i| 2 + (i % 2)).collect();
        let schema = Schema::synthetic(&cardinalities, 2).expect("valid schema");
        let n_items: Vec<usize> = cardinalities.clone();
        let record_strategy = {
            let schema = schema.clone();
            prop::collection::vec(
                (prop::collection::vec(0usize..3, n_attrs), 0u32..2u32),
                n_records,
            )
            .prop_map(move |rows| {
                let records: Vec<Record> = rows
                    .into_iter()
                    .map(|(values, class)| {
                        let items: Vec<u32> = values
                            .iter()
                            .enumerate()
                            .map(|(a, &v)| schema.item_id(a, v % n_items[a]).unwrap())
                            .collect();
                        Record::new(items, class)
                    })
                    .collect();
                Dataset::new_unchecked(schema.clone(), records)
            })
        };
        (record_strategy, Just(min_sup))
    })
}

/// Strategy: two sorted tid lists over a small id range, shaped as
/// unrelated, interleaved-disjoint, identical, a subset of the first, or the
/// first minus one interior id; plus a length floor.  Lists may be empty.
fn tid_pair_strategy() -> impl Strategy<Value = (TidSet, TidSet, usize)> {
    (
        prop::collection::vec(0u32..80, 0..=40),
        prop::collection::vec(0u32..80, 0..=40),
        0u8..5,
        0usize..=45,
    )
        .prop_map(|(a, b, shape, min_len)| {
            let (a, b): (Vec<u32>, Vec<u32>) = match shape {
                0 => (a, b),
                1 => (
                    a.iter().map(|t| 2 * t).collect(),
                    b.iter().map(|t| 2 * t + 1).collect(),
                ),
                2 => (a.clone(), a),
                3 => {
                    let sub = a.iter().copied().filter(|t| b.contains(t)).collect();
                    (a, sub)
                }
                _ => {
                    let a = TidSet::from_tids(a).tids().to_vec();
                    let mut b = a.clone();
                    if !b.is_empty() {
                        b.remove(b.len() / 2);
                    }
                    (a, b)
                }
            };
            (TidSet::from_tids(a), TidSet::from_tids(b), min_len)
        })
}

/// The textbook two-pointer merge: the reference both intersections must
/// equal.
fn plain_intersection(a: &TidSet, b: &TidSet) -> TidSet {
    let (a, b) = (a.tids(), b.tids());
    let (mut i, mut j, mut out) = (0, 0, Vec::new());
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    TidSet::from_tids(out)
}

/// `TidSet::intersect` merges sets of similar length and gallops from the
/// shorter into a much longer one; both paths equal the plain merge on
/// empty, disjoint, equal and 1:1000-skewed sets, either way round.
#[test]
fn galloping_intersect_matches_a_plain_merge() {
    let long = TidSet::from_tids((0..20_000).map(|t| 3 * t + 1));
    let cases = [
        (TidSet::empty(), TidSet::empty()),
        (TidSet::empty(), long.clone()),
        (
            TidSet::from_tids((0..500).map(|t| 2 * t)),
            TidSet::from_tids((0..500).map(|t| 2 * t + 1)),
        ),
        // Disjoint and skewed: the gallop runs off the end.
        (TidSet::from_tids([0, 2, 3]), long.clone()),
        (TidSet::from_tids([70_000, 80_000]), long.clone()),
        (long.clone(), long.clone()),
        // 1:1000 skew: 20 ids, some present (3t + 1), some not, one at each
        // end of the long set.
        (
            TidSet::from_tids((0..20).map(|k| 3_000 * k + 1 + (k % 2)).chain([59_998])),
            long.clone(),
        ),
        // Just below and at the gallop threshold.
        (
            TidSet::from_tids((0..2_600).map(|t| 23 * t + 1)),
            long.clone(),
        ),
        (
            TidSet::from_tids((0..2_400).map(|t| 25 * t + 1)),
            long.clone(),
        ),
    ];
    for (a, b) in &cases {
        let want = plain_intersection(a, b);
        assert_eq!(a.intersect(b), want, "|a| {} |b| {}", a.len(), b.len());
        assert_eq!(b.intersect(a), want, "|b| {} |a| {}", b.len(), a.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The early-exit branch-free merge returns exactly the plain
    /// intersection when it is long enough, and `None` otherwise.
    #[test]
    fn intersect_min_is_intersect_filtered_by_length((a, b, min_len) in tid_pair_strategy()) {
        let empty = TidSet::empty();
        for (x, y) in [(&a, &b), (&b, &a), (&a, &a), (&a, &empty), (&empty, &b)] {
            let full = plain_intersection(x, y);
            let want = (full.len() >= min_len).then_some(full);
            prop_assert_eq!(x.intersect_min(y, min_len), want);
        }
    }

    /// `TidSet::intersect` equals the plain merge, a short list against a
    /// long one included (the galloping path).
    #[test]
    fn intersect_matches_a_plain_merge(
        (a, b, _) in tid_pair_strategy(),
        long in prop::collection::vec(0u32..2_000, 0..=1_500),
    ) {
        let long = TidSet::from_tids(long);
        for (x, y) in [(&a, &b), (&a, &long), (&long, &b), (&long, &long)] {
            prop_assert_eq!(x.intersect(y), plain_intersection(x, y));
        }
    }

    /// The galloping subset test agrees with `BTreeSet::is_subset`.
    #[test]
    fn galloping_subset_matches_btreeset((a, b, _) in tid_pair_strategy()) {
        let empty = TidSet::empty();
        for (x, y) in [(&a, &b), (&b, &a), (&a, &a), (&a, &empty), (&empty, &b)] {
            let xs: BTreeSet<u32> = x.tids().iter().copied().collect();
            let ys: BTreeSet<u32> = y.tids().iter().copied().collect();
            prop_assert_eq!(x.is_subset(y), xs.is_subset(&ys));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Eclat enumerates exactly Apriori's frequent patterns with the same
    /// supports.
    #[test]
    fn miners_agree((dataset, min_sup) in small_dataset_strategy()) {
        let config = MinerConfig::new(min_sup);
        let canon = |mut v: Vec<sigrule_repro::mining::FrequentPattern>| {
            v.sort_by(|a, b| a.pattern.items().cmp(b.pattern.items()));
            v
        };
        let apriori = canon(AprioriMiner.mine(&dataset, &config));
        let eclat = canon(EclatMiner::default().mine(&dataset, &config));
        prop_assert_eq!(&apriori, &eclat);
    }

    /// Support is anti-monotone: every sub-pattern of a frequent pattern has
    /// at least its support, and reported supports match brute force.
    #[test]
    fn support_is_antimonotone((dataset, min_sup) in small_dataset_strategy()) {
        let patterns = EclatMiner::default().mine(&dataset, &MinerConfig::new(min_sup));
        for fp in &patterns {
            prop_assert_eq!(fp.support, dataset.support(&fp.pattern));
            prop_assert!(fp.support >= min_sup);
            for &drop in fp.pattern.items() {
                let sub: Pattern = fp
                    .pattern
                    .items()
                    .iter()
                    .copied()
                    .filter(|&i| i != drop)
                    .collect();
                prop_assert!(dataset.support(&sub) >= fp.support);
            }
        }
    }

    /// Closed-pattern marking is consistent: every non-closed pattern has a
    /// closed super-pattern with the same support in the result.
    #[test]
    fn closure_is_witnessed((dataset, min_sup) in small_dataset_strategy()) {
        let patterns = EclatMiner::default().mine(&dataset, &MinerConfig::new(min_sup));
        let flags = closed_flags(&patterns);
        for (fp, &is_closed) in patterns.iter().zip(flags.iter()) {
            if !is_closed {
                let witness = patterns.iter().zip(flags.iter()).any(|(other, &other_closed)| {
                    other_closed
                        && other.support == fp.support
                        && fp.pattern.is_subset_of(&other.pattern)
                        && fp.pattern != other.pattern
                });
                prop_assert!(witness, "non-closed pattern without a closed witness");
            }
        }
    }

    /// Rule supports recomputed from the forest under an arbitrary relabelling
    /// agree with brute-force counting — this is the correctness core of the
    /// permutation engine (Diffsets included).
    #[test]
    fn forest_rule_supports_match_brute_force(
        (dataset, min_sup) in small_dataset_strategy(),
        label_seed in 0u64..1000,
    ) {
        let forest = EclatMiner::default().mine_forest(&dataset, &MinerConfig::new(min_sup));
        // Deterministic pseudo-random relabelling.
        let labels: Vec<u32> = (0..dataset.n_records())
            .map(|i| (((i as u64).wrapping_mul(6364136223846793005).wrapping_add(label_seed) >> 33) % 2) as u32)
            .collect();
        let relabelled = dataset.with_class_labels(&labels).unwrap();
        for class in 0..2u32 {
            let supports = forest.rule_supports(&labels, class);
            for (node, &s) in forest.nodes().iter().zip(supports.iter()) {
                prop_assert_eq!(s, relabelled.rule_support(&node.pattern, class));
            }
        }
    }

    /// Mined rule p-values are valid probabilities and equal the Fisher test
    /// evaluated on the rule's counts.
    #[test]
    fn rule_p_values_are_valid((dataset, min_sup) in small_dataset_strategy()) {
        let mined = mine_rules(&dataset, &RuleMiningConfig::new(min_sup));
        let fisher = FisherTest::new(dataset.n_records());
        for rule in mined.rules() {
            prop_assert!(rule.p_value > 0.0 && rule.p_value <= 1.0 + 1e-12);
            let counts = RuleCounts::new(
                dataset.n_records(),
                dataset.class_counts().count(rule.class),
                rule.coverage,
                rule.support,
            ).unwrap();
            let expected = fisher.p_value(&counts, Tail::TwoSided);
            prop_assert!((rule.p_value - expected).abs() < 1e-9);
        }
    }

    /// Benjamini–Hochberg never rejects fewer hypotheses at a higher α, and
    /// adjusted p-values are monotone in the raw p-values.
    #[test]
    fn bh_is_monotone_in_alpha(
        p_values in prop::collection::vec(0.0f64..=1.0, 1..40),
        alpha_low in 0.01f64..0.2,
        delta in 0.0f64..0.5,
    ) {
        let alpha_high = (alpha_low + delta).min(0.99);
        let low = benjamini_hochberg(&p_values, alpha_low).unwrap();
        let high = benjamini_hochberg(&p_values, alpha_high).unwrap();
        let n_low = low.iter().filter(|&&b| b).count();
        let n_high = high.iter().filter(|&&b| b).count();
        prop_assert!(n_high >= n_low);

        let adjusted = adjusted_p_values(&p_values, AdjustMethod::BenjaminiHochberg).unwrap();
        let mut order: Vec<usize> = (0..p_values.len()).collect();
        order.sort_by(|&a, &b| p_values[a].partial_cmp(&p_values[b]).unwrap());
        for w in order.windows(2) {
            prop_assert!(adjusted[w[0]] <= adjusted[w[1]] + 1e-12);
        }
    }

    /// Splitting a dataset for the holdout preserves every record exactly once.
    #[test]
    fn holdout_split_preserves_records((dataset, _min_sup) in small_dataset_strategy(), seed in 0u64..100) {
        let n = dataset.n_records();
        let mask: Vec<bool> = (0..n).map(|i| (i as u64 + seed).is_multiple_of(2)).collect();
        let (a, b) = dataset.split_by_mask(&mask).unwrap();
        prop_assert_eq!(a.n_records() + b.n_records(), n);
        let recombined = a.concat(&b).unwrap();
        // Same multiset of records (order may differ): compare class counts
        // and per-item supports.
        let recombined_counts = recombined.class_counts();
        let original_counts = dataset.class_counts();
        prop_assert_eq!(recombined_counts.as_slice(), original_counts.as_slice());
        for item in 0..dataset.n_items() as u32 {
            prop_assert_eq!(recombined.item_support(item), dataset.item_support(item));
        }
    }
}
