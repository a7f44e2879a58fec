//! The rule-mining driver (§3 of the paper): mine frequent (closed) patterns
//! once, turn each into class association rules, and attach two-tailed Fisher
//! exact p-values.

use crate::cancel::{CancelToken, Cancelled};
use crate::config::RuleMiningConfig;
use crate::rule::ClassRule;
use rayon::prelude::*;
use sigrule_data::{ClassId, Dataset, ItemSpace, VerticalDataset};
use sigrule_mining::{ClosedSplit, EclatMiner, MinerConfig, PatternForest};
use sigrule_stats::{LogFactorialTable, PValueBuffer, PValueTable};
use std::sync::Arc;

/// Byte budget of each class slot's static p-value table (the paper's best
/// configuration uses a 16 MB static buffer, §5.3).  Mining keeps every
/// slot's buffers while their p-values plus the ranks the permutation null
/// adds fit it; the null ranks that table in place under a budget no larger
/// than this one.
pub const DEFAULT_STATIC_BUFFER_BYTES: usize = 16 * 1024 * 1024;

/// The outcome of the rule-mining step: the rules tested on the original
/// dataset plus everything the correction approaches need to re-score them
/// (the pattern forest, the label vector, the class counts and the p-value
/// tables the rules were scored from).
#[derive(Debug, Clone)]
pub struct MinedRuleSet {
    rules: Vec<ClassRule>,
    /// Forest node index backing each rule (parallel to `rules`).
    rule_nodes: Vec<usize>,
    /// One static p-value table per class slot: the distinct rule classes in
    /// ascending order.
    p_tables: Vec<Arc<PValueTable>>,
    forest: PatternForest,
    labels: Vec<ClassId>,
    class_counts: Vec<usize>,
    item_space: ItemSpace,
    n_tests: usize,
    config: RuleMiningConfig,
}

impl MinedRuleSet {
    /// The mined rules, with their statistics on the original dataset.
    pub fn rules(&self) -> &[ClassRule] {
        &self.rules
    }

    /// The raw p-values of the rules, in rule order.
    pub fn p_values(&self) -> Vec<f64> {
        self.rules.iter().map(|r| r.p_value).collect()
    }

    /// The number of hypothesis tests performed, `m · N_FP` (§4.1): the
    /// number of patterns tested times the number of classes (1 when there
    /// are exactly two classes, because `X ⇒ c` and `X ⇒ ¬c` are the same
    /// test).
    pub fn n_tests(&self) -> usize {
        self.n_tests
    }

    /// The pattern forest the rules were generated from (mined once; reused
    /// by every permutation).  Every node is a tested pattern: with
    /// `closed_only` (the default) the forest holds only the closed nodes,
    /// each parented on its nearest closed ancestor, mined directly by
    /// [`mine_closed_forest`](sigrule_mining::mine_closed_forest) (or, under
    /// a length cap, Eclat's forest
    /// compacted by [`PatternForest::into_closed`]); otherwise it is the
    /// full Eclat forest.
    pub fn forest(&self) -> &PatternForest {
        &self.forest
    }

    /// Forest node index backing rule `i`.
    pub fn rule_node(&self, i: usize) -> usize {
        self.rule_nodes[i]
    }

    /// The class label of every record of the original dataset.
    pub fn labels(&self) -> &[ClassId] {
        &self.labels
    }

    /// Per-class record counts of the original dataset.
    pub fn class_counts(&self) -> &[usize] {
        &self.class_counts
    }

    /// Number of records of the original dataset.
    pub fn n_records(&self) -> usize {
        self.labels.len()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.class_counts.len()
    }

    /// The item space of the mined dataset (for pretty-printing rules,
    /// whatever the source — attribute rows or baskets).
    pub fn item_space(&self) -> &ItemSpace {
        &self.item_space
    }

    /// The mining configuration that produced this rule set.
    pub fn config(&self) -> &RuleMiningConfig {
        &self.config
    }

    /// The static p-value tables the rules were scored from, one per class
    /// slot: the distinct rule classes in ascending order.  Slot `s` holds
    /// the [`PValueBuffer`] of each distinct coverage of that class's rules,
    /// smallest first, up to [`DEFAULT_STATIC_BUFFER_BYTES`] (none for the
    /// holdout's exploratory half).  The permutation null ranks these same
    /// allocations.
    pub fn p_value_tables(&self) -> &[Arc<PValueTable>] {
        &self.p_tables
    }

    /// Approximate resident bytes of the rule set: rules (with their pattern
    /// items), the backing forest, the label vector, the class counts and
    /// the p-value tables.  An estimate (allocator overhead is not counted)
    /// used by the byte-budget cache eviction of the engine and registry
    /// layers.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let rules = self.rules.len() * size_of::<ClassRule>()
            + self
                .rules
                .iter()
                .map(|r| std::mem::size_of_val(r.pattern.items()))
                .sum::<usize>();
        rules
            + self.rule_nodes.len() * size_of::<usize>()
            + self.forest.approx_bytes()
            + self.labels.len() * size_of::<ClassId>()
            + self.class_counts.len() * size_of::<usize>()
            + self
                .p_tables
                .iter()
                .map(|t| t.resident_bytes())
                .sum::<usize>()
    }
}

/// Mines class association rules from a dataset and attaches p-values.
///
/// Follows §3 of the paper: patterns are mined once, only closed patterns are
/// kept as rule left-hand sides (unless configured otherwise, when Eclat
/// mines every frequent pattern), and every pattern yields one rule for
/// two-class data (the class it is positively associated with) or one rule per
/// class otherwise.
pub fn mine_rules(dataset: &Dataset, config: &RuleMiningConfig) -> MinedRuleSet {
    let vertical = VerticalDataset::from_dataset(dataset);
    mine_rules_with_vertical(dataset, &vertical, config)
}

/// [`mine_rules`] against a pre-built vertical (tid-set) view of the same
/// dataset.  The resident [`Engine`](crate::engine::Engine) builds the view
/// once and reuses it across every mining configuration; the mined rules are
/// identical to [`mine_rules`]'s, which simply builds the view on the fly.
pub fn mine_rules_with_vertical(
    dataset: &Dataset,
    vertical: &VerticalDataset,
    config: &RuleMiningConfig,
) -> MinedRuleSet {
    mine_rules_cancellable(dataset, vertical, config, &CancelToken::none())
        .expect("the never-firing token cannot cancel")
}

/// [`mine_rules_with_vertical`] with a cooperative [`CancelToken`].
///
/// With `closed_only` set the forest holds closed nodes only, so the rule
/// set, the engine cache and every permutation sweep hold rule nodes only.
/// Without a length cap the closed patterns are mined directly
/// ([`mine_closed_forest`](sigrule_mining::mine_closed_forest), LCM), one
/// top-level subtree per item of the current rayon pool's work queue (a
/// one-thread pool mines on the calling thread); with `max_length` the full
/// Eclat forest is mined and then compacted
/// ([`PatternForest::into_closed`]) unless every node is already closed.  Both give the same forest when the cap never
/// binds.  `--all-patterns` (`closed_only` off) keeps the full Eclat forest.
/// The main mine, the holdout's exploratory mine (keeping no p-value
/// tables) and remote shard workers all mine through here.
///
/// Rules are scored from one static p-value table per class slot
/// ([`MinedRuleSet::p_value_tables`]), each buffer built once.
///
/// The token is checked between the mining phases (pattern forest, closed
/// compaction, per-class supports, and p-value scoring), so a fired token
/// aborts before the next phase starts.  Mining is a pure function of
/// `(dataset, config)`; an abort produces no partial rule set, and a
/// subsequent uncancelled call over the same inputs is bit-identical to one
/// that was never cancelled.
pub fn mine_rules_cancellable(
    dataset: &Dataset,
    vertical: &VerticalDataset,
    config: &RuleMiningConfig,
    cancel: &CancelToken,
) -> Result<MinedRuleSet, Cancelled> {
    mine_rules_keeping(
        dataset,
        vertical,
        config,
        cancel,
        DEFAULT_STATIC_BUFFER_BYTES,
    )
}

/// [`mine_rules_cancellable`] keeping each class slot's p-value buffers only
/// while their bytes fit `table_bytes`.  The holdout's exploratory half,
/// which no permutation null reads, keeps none (`0`): every buffer scores its
/// rules and is dropped, with the same p-values.
pub(crate) fn mine_rules_keeping(
    dataset: &Dataset,
    vertical: &VerticalDataset,
    config: &RuleMiningConfig,
    cancel: &CancelToken,
    table_bytes: usize,
) -> Result<MinedRuleSet, Cancelled> {
    cancel.check()?;
    // Every node of the forest is a rule LHS.  Closed sets without a length
    // cap are mined directly; under a cap, Eclat's full forest is compacted.
    let forest = if config.closed_only && config.max_length.is_none() {
        // The top-level LCM subtrees are independent: mine them on the
        // current pool and assemble them in position order, which gives
        // `mine_closed_forest`'s forest node for node.
        let split = ClosedSplit::new(vertical, config.min_sup, config.use_diffsets);
        let subtrees = (0..split.len())
            .into_par_iter()
            .map(|pos| split.subtree(pos))
            .collect();
        split.assemble(subtrees)
    } else {
        let miner = EclatMiner {
            use_diffsets: config.use_diffsets,
        };
        let mut miner_config = MinerConfig::new(config.min_sup);
        if let Some(max_len) = config.max_length {
            miner_config = miner_config.with_max_length(max_len);
        }
        let forest = miner.mine_forest_vertical(vertical, &miner_config);
        cancel.check()?;
        match config.closed_only.then(|| forest.closed_indices()) {
            Some(closed) if closed.len() < forest.len() => {
                forest.into_closed(&closed, config.use_diffsets)
            }
            _ => forest,
        }
    };
    cancel.check()?;

    let labels = dataset.class_labels();
    let class_counts: Vec<usize> = dataset.class_counts().as_slice().to_vec();
    let n = dataset.n_records();
    let n_classes = class_counts.len();

    // Rule supports for every class, computed once on the original labels.
    let mut per_class_supports: Vec<Vec<usize>> = Vec::with_capacity(n_classes);
    for c in 0..n_classes {
        cancel.check()?;
        per_class_supports.push(forest.rule_supports(&labels, c as ClassId));
    }
    cancel.check()?;

    // Each pattern's rules, in forest order: the class the pattern is
    // positively associated with on two-class data, every class otherwise.
    // Confidence needs no p-value, so `min_conf` filters first.
    let mut rules = Vec::new();
    let mut rule_nodes = Vec::new();
    for (node_idx, node) in forest.nodes().iter().enumerate() {
        let coverage = node.support;
        let classes = if n_classes == 2 {
            // Observed support at or above its expectation.
            let expected0 = coverage as f64 * class_counts[0] as f64 / n as f64;
            let support0 = per_class_supports[0][node_idx];
            let class: ClassId = if (support0 as f64) >= expected0 { 0 } else { 1 };
            class..class + 1
        } else {
            0..n_classes as ClassId
        };
        for class in classes {
            let rule = ClassRule {
                pattern: node.pattern.clone(),
                class,
                coverage,
                support: per_class_supports[class as usize][node_idx],
                p_value: f64::NAN,
            };
            if rule.confidence() >= config.min_conf {
                rules.push(rule);
                rule_nodes.push(node_idx);
            }
        }
    }
    cancel.check()?;
    let p_tables = score_rules(&mut rules, n, &class_counts, table_bytes);

    let tests_per_pattern = if n_classes == 2 { 1 } else { n_classes };
    let n_tests = forest.len() * tests_per_pattern;

    Ok(MinedRuleSet {
        rules,
        rule_nodes,
        p_tables,
        forest,
        labels,
        class_counts,
        item_space: dataset.item_space().clone(),
        n_tests,
        config: config.clone(),
    })
}

/// Sets every rule's two-tailed Fisher p-value and returns the static
/// p-value table of each class slot (the distinct rule classes, ascending).
///
/// Each slot walks its distinct rule coverages in ascending order: it builds
/// the coverage's [`PValueBuffer`] once, scores that coverage's rules from
/// it, and offers it to the slot's table, which keeps it while the bytes the
/// permutation null would store fit `budget_bytes`.  Past that cut-off the
/// buffer scores its rules and is dropped.  Rules keep their order.
fn score_rules(
    rules: &mut [ClassRule],
    n: usize,
    class_counts: &[usize],
    budget_bytes: usize,
) -> Vec<Arc<PValueTable>> {
    let logs = LogFactorialTable::new(n);
    let keys: Vec<(ClassId, usize)> = rules.iter().map(|r| (r.class, r.coverage)).collect();
    let mut order: Vec<usize> = (0..rules.len()).collect();
    order.sort_by_key(|&i| keys[i]);
    order
        .chunk_by(|&a, &b| keys[a].0 == keys[b].0)
        .map(|slot| {
            let n_c = class_counts[keys[slot[0]].0 as usize];
            let mut table = PValueTable::new(n, n_c, budget_bytes);
            for same in slot.chunk_by(|&a, &b| keys[a] == keys[b]) {
                let buffer = PValueBuffer::build(n, n_c, keys[same[0]].1, &logs);
                for &i in same {
                    rules[i].p_value = buffer.p_value(rules[i].support);
                }
                table.offer(buffer);
            }
            Arc::new(table)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigrule_stats::{FisherTest, RuleCounts, Tail};
    use sigrule_synth::{SyntheticGenerator, SyntheticParams};

    fn one_rule_dataset(confidence: f64, seed: u64) -> (Dataset, sigrule_synth::EmbeddedRule) {
        let params = SyntheticParams::default()
            .with_records(600)
            .with_attributes(15)
            .with_rules(1)
            .with_coverage(120, 120)
            .with_confidence(confidence, confidence);
        let (d, mut rules) = SyntheticGenerator::new(params).unwrap().generate(seed);
        (d, rules.remove(0))
    }

    /// Asserts every rule's p-value is bit-equal to a freshly built buffer's.
    fn assert_bit_equal_to_buffers(mined: &MinedRuleSet, rules: &[ClassRule]) {
        let n = mined.n_records();
        let logs = LogFactorialTable::new(n);
        for rule in rules {
            let n_c = mined.class_counts()[rule.class as usize];
            let p = PValueBuffer::build(n, n_c, rule.coverage, &logs).p_value(rule.support);
            assert_eq!(
                rule.p_value.to_bits(),
                p.to_bits(),
                "rule {:?}",
                rule.pattern
            );
        }
    }

    #[test]
    fn rules_are_scored_bit_equal_from_their_slot_tables() {
        let (two, _) = one_rule_dataset(0.8, 29);
        let mut params = sigrule_synth::BasketParams::default()
            .with_transactions(400)
            .with_items(14)
            .with_basket_size(2, 6)
            .with_rules(1)
            .with_coverage(80, 100)
            .with_confidence(0.8, 0.9);
        params.n_classes = 3;
        let (three, _) = sigrule_synth::BasketGenerator::new(params)
            .unwrap()
            .generate(5);
        assert_eq!(three.n_classes(), 3);
        for (dataset, min_sup) in [(&two, 60), (&three, 20)] {
            for min_conf in [0.0, 0.6] {
                let mined = mine_rules(
                    dataset,
                    &RuleMiningConfig::new(min_sup).with_min_conf(min_conf),
                );
                assert!(!mined.rules().is_empty());
                assert_bit_equal_to_buffers(&mined, mined.rules());

                // One table per rule class, ascending, holding every distinct
                // coverage of that class's rules (they fit the default budget).
                let mut classes: Vec<ClassId> = mined.rules().iter().map(|r| r.class).collect();
                classes.sort_unstable();
                classes.dedup();
                assert_eq!(mined.p_value_tables().len(), classes.len());
                for (table, &class) in mined.p_value_tables().iter().zip(&classes) {
                    assert_eq!(table.n_c(), mined.class_counts()[class as usize]);
                    let mut coverages: Vec<usize> = mined
                        .rules()
                        .iter()
                        .filter(|r| r.class == class)
                        .map(|r| r.coverage)
                        .collect();
                    coverages.sort_unstable();
                    coverages.dedup();
                    let held: Vec<usize> = table.buffers().iter().map(|b| b.coverage()).collect();
                    assert_eq!(held, coverages);
                }

                // A budget of a few buffers or none: the larger coverages are
                // scored by buffers that are then dropped, with the same bits.
                for budget in [0, 1500] {
                    let mut rules = mined.rules().to_vec();
                    for rule in &mut rules {
                        rule.p_value = f64::NAN;
                    }
                    let tables =
                        score_rules(&mut rules, mined.n_records(), mined.class_counts(), budget);
                    assert_bit_equal_to_buffers(&mined, &rules);
                    for (small, full) in tables.iter().zip(mined.p_value_tables()) {
                        assert!(small.buffers().len() < full.buffers().len());
                        assert_eq!(small.buffers().is_empty(), budget == 0);
                    }
                }
            }
        }
    }

    #[test]
    fn mined_rule_statistics_match_brute_force() {
        let (d, _) = one_rule_dataset(0.8, 3);
        let mined = mine_rules(&d, &RuleMiningConfig::new(60));
        assert!(!mined.rules().is_empty());
        let test = FisherTest::new(d.n_records());
        for rule in mined.rules() {
            assert_eq!(rule.coverage, d.support(&rule.pattern));
            assert_eq!(rule.support, d.rule_support(&rule.pattern, rule.class));
            let counts = RuleCounts::new(
                d.n_records(),
                d.class_counts().count(rule.class),
                rule.coverage,
                rule.support,
            )
            .unwrap();
            let expected_p = test.p_value(&counts, Tail::TwoSided);
            assert!(
                (rule.p_value - expected_p).abs() < 1e-9,
                "rule {:?}: {} vs {}",
                rule.pattern,
                rule.p_value,
                expected_p
            );
        }
    }

    #[test]
    fn strong_embedded_rule_is_among_the_most_significant() {
        let (d, truth) = one_rule_dataset(0.95, 7);
        let mined = mine_rules(&d, &RuleMiningConfig::new(60));
        // Some mined rule whose pattern is the embedded pattern (or a
        // super-pattern covering the same records) must have a tiny p-value.
        let best_matching = mined
            .rules()
            .iter()
            .filter(|r| {
                truth.pattern.is_subset_of(&r.pattern) || r.pattern.is_subset_of(&truth.pattern)
            })
            .map(|r| r.p_value)
            .fold(f64::INFINITY, f64::min);
        assert!(
            best_matching < 1e-6,
            "embedded rule should be highly significant, best p = {best_matching}"
        );
    }

    #[test]
    fn two_class_data_yields_one_rule_per_pattern() {
        let (d, _) = one_rule_dataset(0.8, 11);
        let mined = mine_rules(&d, &RuleMiningConfig::new(60));
        assert_eq!(mined.rules().len(), mined.n_tests());
        // every rule's class is the positively associated one: confidence is
        // at least the class prior
        for rule in mined.rules() {
            let prior = mined.class_counts()[rule.class as usize] as f64 / d.n_records() as f64;
            assert!(rule.confidence() >= prior - 1e-9);
        }
    }

    #[test]
    fn closed_only_reduces_or_preserves_rule_count() {
        let (d, _) = one_rule_dataset(0.8, 13);
        let closed = mine_rules(&d, &RuleMiningConfig::new(60));
        let all = mine_rules(&d, &RuleMiningConfig::new(60).with_closed_only(false));
        assert!(closed.n_tests() <= all.n_tests());
        assert!(!closed.rules().is_empty());
    }

    #[test]
    fn min_conf_filters_rules_but_not_test_count() {
        let (d, _) = one_rule_dataset(0.8, 17);
        let unfiltered = mine_rules(&d, &RuleMiningConfig::new(60));
        let filtered = mine_rules(&d, &RuleMiningConfig::new(60).with_min_conf(0.75));
        assert!(filtered.rules().len() <= unfiltered.rules().len());
        assert_eq!(filtered.n_tests(), unfiltered.n_tests());
    }

    #[test]
    fn diffsets_flag_does_not_change_rules() {
        let (d, _) = one_rule_dataset(0.8, 19);
        let with = mine_rules(&d, &RuleMiningConfig::new(80));
        let without = mine_rules(&d, &RuleMiningConfig::new(80).with_diffsets(false));
        assert_eq!(with.rules(), without.rules());
    }

    #[test]
    fn accessors_are_consistent() {
        let (d, _) = one_rule_dataset(0.8, 23);
        let mined = mine_rules(&d, &RuleMiningConfig::new(80));
        assert_eq!(mined.n_records(), 600);
        assert_eq!(mined.n_classes(), 2);
        assert_eq!(mined.labels().len(), 600);
        assert_eq!(mined.p_values().len(), mined.rules().len());
        assert_eq!(mined.class_counts().iter().sum::<usize>(), 600);
        for i in 0..mined.rules().len() {
            let node = mined.rule_node(i);
            assert_eq!(
                mined.forest().nodes()[node].pattern,
                mined.rules()[i].pattern
            );
        }
        let tables = mined.p_value_tables();
        assert!(!tables.is_empty() && tables.len() <= 2);
        for table in tables {
            assert_eq!(table.n(), 600);
        }
        let tables_bytes: usize = tables.iter().map(|t| t.resident_bytes()).sum();
        assert!(tables_bytes > 0);
        assert!(mined.approx_bytes() > tables_bytes);
    }
}
