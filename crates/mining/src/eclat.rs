//! Eclat / dEclat: vertical depth-first frequent pattern mining over the
//! set-enumeration tree.
//!
//! This is the miner the correction pipeline uses, because its depth-first
//! exploration of the set-enumeration tree (Rymon 1992) produces exactly the
//! parent-before-child [`PatternForest`] the permutation engine needs, and
//! because the Diffsets storage rule of §4.2.2 falls out of it naturally.

use crate::forest::{hash_tids, PatternForest, PatternNode};
use crate::miner::{FrequentPattern, FrequentPatternMiner, MinerConfig};
use sigrule_data::{Cover, Dataset, ItemId, Pattern, TidSet, VerticalDataset};

/// Vertical set-enumeration miner.
#[derive(Debug, Clone)]
pub struct EclatMiner {
    /// When true (the default), node covers follow the paper's Diffsets rule;
    /// when false every node stores its full tid-set.  The flag only affects
    /// the *stored* representation (and therefore the permutation-engine
    /// cost); the set of mined patterns is identical.
    pub use_diffsets: bool,
}

impl Default for EclatMiner {
    fn default() -> Self {
        EclatMiner { use_diffsets: true }
    }
}

/// The frequent items of `vertical` in the order the depth-first miners
/// extend patterns: ascending support (the standard Eclat heuristic that
/// keeps intermediate tid-sets small), ties by item id.
///
/// Both [`EclatMiner`] and [`mine_closed_forest`](crate::closed::mine_closed_forest)
/// enumerate in this order, and the closed miner's forest equals Eclat's
/// compacted one only because they share it.
pub(crate) fn ranked_items(vertical: &VerticalDataset, min_sup: usize) -> Vec<ItemId> {
    let mut items: Vec<ItemId> = (0..vertical.n_items() as ItemId)
        .filter(|&i| vertical.item_support(i) >= min_sup)
        .collect();
    items.sort_by_key(|&i| (vertical.item_support(i), i));
    items
}

impl EclatMiner {
    /// A miner that stores full tid-sets everywhere (the "no Diffsets"
    /// configuration of Figure 4).
    pub fn without_diffsets() -> Self {
        EclatMiner {
            use_diffsets: false,
        }
    }

    /// Mines the dataset into a [`PatternForest`].
    pub fn mine_forest(&self, dataset: &Dataset, config: &MinerConfig) -> PatternForest {
        let vertical = VerticalDataset::from_dataset(dataset);
        self.mine_forest_vertical(&vertical, config)
    }

    /// Mines a pre-built vertical dataset into a [`PatternForest`].
    pub fn mine_forest_vertical(
        &self,
        vertical: &VerticalDataset,
        config: &MinerConfig,
    ) -> PatternForest {
        let min_sup = config.effective_min_sup();
        let n_records = vertical.n_records();

        // Frequent level-1 items.
        let items: Vec<(ItemId, TidSet)> = ranked_items(vertical, min_sup)
            .into_iter()
            .map(|i| (i, vertical.item_tids(i).clone()))
            .collect();

        let mut nodes: Vec<PatternNode> = Vec::new();
        let full = TidSet::full(n_records);

        // Depth-first expansion.  `candidates` holds, for the current prefix,
        // the items that can still extend it together with the tid-set of
        // (prefix ∪ item).
        struct Frame {
            pattern: Pattern,
            tids: TidSet,
            node_index: Option<usize>,
        }

        // Recursive helper implemented iteratively-by-recursion for clarity;
        // the recursion depth is bounded by the number of attributes.
        fn expand(
            miner: &EclatMiner,
            config: &MinerConfig,
            nodes: &mut Vec<PatternNode>,
            prefix: &Frame,
            candidates: &[(ItemId, TidSet)],
        ) {
            let min_sup = config.effective_min_sup();
            for (pos, (item, tids)) in candidates.iter().enumerate() {
                let pattern = prefix.pattern.with_item(*item);
                if config.exceeds_max_length(pattern.len()) {
                    continue;
                }
                let support = tids.len();
                debug_assert!(support >= min_sup);

                let cover = if miner.use_diffsets {
                    Cover::choose(&prefix.tids, tids.clone())
                } else {
                    Cover::Tids(tids.clone())
                };
                let node = PatternNode {
                    pattern: pattern.clone(),
                    support,
                    parent: prefix.node_index,
                    cover,
                    tid_hash: hash_tids(tids),
                };
                nodes.push(node);
                let node_index = nodes.len() - 1;

                // Build the candidate list for the new prefix from the items
                // that follow `item` in the current candidate order.
                let mut next_candidates: Vec<(ItemId, TidSet)> = Vec::new();
                for (other, other_tids) in &candidates[pos + 1..] {
                    let joined = tids.intersect(other_tids);
                    if joined.len() >= min_sup {
                        next_candidates.push((*other, joined));
                    }
                }
                if !next_candidates.is_empty() {
                    let frame = Frame {
                        pattern,
                        tids: tids.clone(),
                        node_index: Some(node_index),
                    };
                    expand(miner, config, nodes, &frame, &next_candidates);
                }
            }
        }

        let root = Frame {
            pattern: Pattern::empty(),
            tids: full,
            node_index: None,
        };
        expand(self, config, &mut nodes, &root, &items);
        PatternForest::new(nodes, n_records)
    }
}

impl FrequentPatternMiner for EclatMiner {
    fn mine(&self, dataset: &Dataset, config: &MinerConfig) -> Vec<FrequentPattern> {
        self.mine_forest(dataset, config)
            .nodes()
            .iter()
            .map(|n| FrequentPattern::new(n.pattern.clone(), n.support))
            .collect()
    }

    fn name(&self) -> &'static str {
        if self.use_diffsets {
            "eclat(diffsets)"
        } else {
            "eclat(tidsets)"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::canonicalize;
    use sigrule_data::{Record, Schema};

    /// 5 records over two binary attributes (items 0..4), as in the data
    /// crate's toy dataset.
    fn toy() -> Dataset {
        let schema = Schema::synthetic(&[2, 2], 2).unwrap();
        let records = vec![
            Record::new(vec![0, 2], 0),
            Record::new(vec![0, 3], 0),
            Record::new(vec![1, 2], 1),
            Record::new(vec![0, 2], 1),
            Record::new(vec![1, 3], 0),
        ];
        Dataset::new(schema, records).unwrap()
    }

    #[test]
    fn mines_all_frequent_patterns_at_min_sup_2() {
        let d = toy();
        let patterns = EclatMiner::default().mine(&d, &MinerConfig::new(2));
        let got = canonicalize(patterns);
        // expected: {0}:3 {1}:2 {2}:3 {3}:2 {0,2}:2
        let expected = canonicalize(vec![
            FrequentPattern::new(Pattern::from_items([0]), 3),
            FrequentPattern::new(Pattern::from_items([1]), 2),
            FrequentPattern::new(Pattern::from_items([2]), 3),
            FrequentPattern::new(Pattern::from_items([3]), 2),
            FrequentPattern::new(Pattern::from_items([0, 2]), 2),
        ]);
        assert_eq!(got, expected);
    }

    #[test]
    fn forest_supports_match_brute_force() {
        let d = toy();
        let forest = EclatMiner::default().mine_forest(&d, &MinerConfig::new(1));
        for node in forest.nodes() {
            assert_eq!(
                node.support,
                d.support(&node.pattern),
                "pattern {:?}",
                node.pattern
            );
        }
        // every node's materialised tids agree with brute force
        for (i, node) in forest.nodes().iter().enumerate() {
            assert_eq!(forest.tids(i).tids(), d.tids_of(&node.pattern).as_slice());
        }
    }

    #[test]
    fn rule_supports_match_brute_force_on_forest() {
        let d = toy();
        let forest = EclatMiner::default().mine_forest(&d, &MinerConfig::new(1));
        let labels = d.class_labels();
        for class in 0..d.n_classes() as u32 {
            let rs = forest.rule_supports(&labels, class);
            for (node, &s) in forest.nodes().iter().zip(rs.iter()) {
                assert_eq!(s, d.rule_support(&node.pattern, class));
            }
        }
    }

    #[test]
    fn diffsets_and_tidsets_variants_mine_identical_patterns() {
        let d = toy();
        let a = canonicalize(EclatMiner::default().mine(&d, &MinerConfig::new(1)));
        let b = canonicalize(EclatMiner::without_diffsets().mine(&d, &MinerConfig::new(1)));
        assert_eq!(a, b);
    }

    #[test]
    fn diffsets_variant_uses_less_cover_memory_on_dense_data() {
        // A dense dataset where most supports exceed half the parent support.
        let schema = Schema::synthetic(&[2, 2, 2, 2], 2).unwrap();
        let mut records = Vec::new();
        for i in 0..40 {
            // items 0,2,4,6 almost always; a little noise
            let a = if i % 10 == 0 { 1 } else { 0 };
            let b = if i % 7 == 0 { 3 } else { 2 };
            records.push(Record::new(vec![a, b, 4, 6], (i % 2) as u32));
        }
        let d = Dataset::new(schema, records).unwrap();
        let with = EclatMiner::default().mine_forest(&d, &MinerConfig::new(5));
        let without = EclatMiner::without_diffsets().mine_forest(&d, &MinerConfig::new(5));
        assert_eq!(with.len(), without.len());
        assert!(with.n_diffsets() > 0);
        assert!(
            with.cover_bytes() < without.cover_bytes(),
            "diffsets should shrink the stored covers: {} vs {}",
            with.cover_bytes(),
            without.cover_bytes()
        );
    }

    #[test]
    fn max_length_caps_pattern_length() {
        let d = toy();
        let patterns = EclatMiner::default().mine(&d, &MinerConfig::new(1).with_max_length(1));
        assert!(patterns.iter().all(|p| p.pattern.len() == 1));
        assert_eq!(patterns.len(), 4);
    }

    #[test]
    fn items_rank_by_ascending_support_then_item_id() {
        // supports: item 0 → 3, 1 → 2, 2 → 3, 3 → 2
        let vertical = VerticalDataset::from_dataset(&toy());
        assert_eq!(ranked_items(&vertical, 1), vec![1, 3, 0, 2]);
        assert_eq!(ranked_items(&vertical, 3), vec![0, 2]);
    }

    #[test]
    fn high_min_sup_yields_nothing() {
        let d = toy();
        let patterns = EclatMiner::default().mine(&d, &MinerConfig::new(10));
        assert!(patterns.is_empty());
    }
}
