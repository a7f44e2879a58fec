//! The Apriori algorithm (Agrawal & Srikant): level-wise candidate generation
//! with horizontal support counting.
//!
//! Kept as the reference baseline: it is the simplest correct miner, so the
//! property tests use it as an oracle against Eclat, and the
//! miner-comparison benchmark measures how much the vertical miner gains.

use crate::miner::{FrequentPattern, FrequentPatternMiner, MinerConfig};
use sigrule_data::{Dataset, ItemId, Pattern};
use std::collections::{HashMap, HashSet};

/// Level-wise Apriori miner.
#[derive(Debug, Clone, Default)]
pub struct AprioriMiner;

impl AprioriMiner {
    /// Generates level-(k+1) candidates from frequent level-k patterns by
    /// joining patterns that share their first k−1 items, then prunes
    /// candidates with an infrequent k-subset.
    fn generate_candidates(frequent: &[Pattern]) -> Vec<Pattern> {
        let frequent_set: HashSet<&Pattern> = frequent.iter().collect();
        let mut candidates = Vec::new();
        for i in 0..frequent.len() {
            for j in (i + 1)..frequent.len() {
                let a = frequent[i].items();
                let b = frequent[j].items();
                let k = a.len();
                // join condition: identical prefix of length k-1
                if a[..k - 1] != b[..k - 1] {
                    continue;
                }
                let candidate = frequent[i].union(&frequent[j]);
                if candidate.len() != k + 1 {
                    continue;
                }
                // prune: every k-subset must be frequent
                let all_subsets_frequent = (0..candidate.len()).all(|drop| {
                    let subset: Pattern = candidate
                        .items()
                        .iter()
                        .enumerate()
                        .filter(|&(idx, _)| idx != drop)
                        .map(|(_, &item)| item)
                        .collect();
                    frequent_set.contains(&subset)
                });
                if all_subsets_frequent {
                    candidates.push(candidate);
                }
            }
        }
        candidates.sort_by(|a, b| a.items().cmp(b.items()));
        candidates.dedup();
        candidates
    }

    /// Counts the support of each candidate with one pass over the records.
    fn count_supports(dataset: &Dataset, candidates: &[Pattern]) -> Vec<usize> {
        let mut counts = vec![0usize; candidates.len()];
        for record in dataset.records() {
            for (i, candidate) in candidates.iter().enumerate() {
                if record.contains_pattern(candidate) {
                    counts[i] += 1;
                }
            }
        }
        counts
    }
}

impl FrequentPatternMiner for AprioriMiner {
    fn mine(&self, dataset: &Dataset, config: &MinerConfig) -> Vec<FrequentPattern> {
        let min_sup = config.effective_min_sup();
        let mut result: Vec<FrequentPattern> = Vec::new();

        // Level 1: count single items.
        let mut item_counts: HashMap<ItemId, usize> = HashMap::new();
        for record in dataset.records() {
            for &item in record.items() {
                *item_counts.entry(item).or_default() += 1;
            }
        }
        let mut current: Vec<Pattern> = item_counts
            .iter()
            .filter(|(_, &count)| count >= min_sup)
            .map(|(&item, _)| Pattern::singleton(item))
            .collect();
        current.sort_by(|a, b| a.items().cmp(b.items()));
        for p in &current {
            let support = item_counts[&p.items()[0]];
            result.push(FrequentPattern::new(p.clone(), support));
        }

        let mut level = 1usize;
        while !current.is_empty() {
            level += 1;
            if config.exceeds_max_length(level) {
                break;
            }
            let candidates = Self::generate_candidates(&current);
            if candidates.is_empty() {
                break;
            }
            let counts = Self::count_supports(dataset, &candidates);
            let mut next = Vec::new();
            for (candidate, count) in candidates.into_iter().zip(counts) {
                if count >= min_sup {
                    result.push(FrequentPattern::new(candidate.clone(), count));
                    next.push(candidate);
                }
            }
            current = next;
        }
        result
    }

    fn name(&self) -> &'static str {
        "apriori"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::canonicalize;
    use sigrule_data::{Record, Schema};

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
    fn matches_expected_patterns_at_min_sup_2() {
        let d = toy();
        let got = canonicalize(AprioriMiner.mine(&d, &MinerConfig::new(2)));
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
    fn supports_are_correct_at_min_sup_1() {
        let d = toy();
        let patterns = AprioriMiner.mine(&d, &MinerConfig::new(1));
        for fp in &patterns {
            assert_eq!(fp.support, d.support(&fp.pattern), "{:?}", fp.pattern);
        }
        // All 4 singletons, 4 pairs with support>=1 ({0,2},{0,3},{1,2},{1,3}): 8 total.
        assert_eq!(patterns.len(), 8);
    }

    #[test]
    fn candidate_generation_requires_shared_prefix() {
        let frequent = vec![
            Pattern::from_items([0, 1]),
            Pattern::from_items([0, 2]),
            Pattern::from_items([1, 2]),
        ];
        let candidates = AprioriMiner::generate_candidates(&frequent);
        // join {0,1} and {0,2} → {0,1,2}; its subsets {0,1},{0,2},{1,2} are all frequent
        assert_eq!(candidates, vec![Pattern::from_items([0, 1, 2])]);
    }

    #[test]
    fn candidate_pruning_removes_unsupported_subsets() {
        let frequent = vec![Pattern::from_items([0, 1]), Pattern::from_items([0, 2])];
        // {1,2} is not frequent, so {0,1,2} must be pruned
        let candidates = AprioriMiner::generate_candidates(&frequent);
        assert!(candidates.is_empty());
    }

    #[test]
    fn max_length_respected() {
        let d = toy();
        let patterns = AprioriMiner.mine(&d, &MinerConfig::new(1).with_max_length(1));
        assert!(patterns.iter().all(|p| p.pattern.len() <= 1));
    }

    #[test]
    fn empty_result_at_impossible_support() {
        let d = toy();
        assert!(AprioriMiner.mine(&d, &MinerConfig::new(100)).is_empty());
    }
}
