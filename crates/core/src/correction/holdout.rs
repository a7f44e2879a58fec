//! The holdout approach (§4.3 of the paper; Webb 2007).
//!
//! The dataset is divided into an *exploratory* and an *evaluation* part.
//! Rules are mined on the exploratory part; those with a raw p-value at most
//! `α` become candidates and are re-tested on the evaluation part, where the
//! multiple-testing correction only has to account for the (much smaller)
//! number of candidates:
//!
//! * FWER: Bonferroni with `m = #candidates` ("HD_BC" / "RH_BC"),
//! * FDR: Benjamini–Hochberg over the candidates ("HD_BH" / "RH_BH").
//!
//! The procedure runs in two steps, the way the permutation approach
//! collects a null once and decides from it at any α:
//!
//! 1. [`HoldoutEvaluation::evaluate`] mines the exploratory part and
//!    re-scores **every** exploratory rule on the evaluation part, keeping
//!    its exploratory p-value beside its evaluation coverage, support and
//!    two-sided Fisher p-value.  This is the expensive, α-independent
//!    artefact a resident [`Engine`](crate::engine::Engine) caches per
//!    (mining configuration, seed).  The re-score walks the exploratory
//!    forest depth-first on the evaluation part's vertical view: a node's
//!    evaluation cover is its parent's cover intersected with the tid lists
//!    of the items it adds, and each node is scored once (its coverage and
//!    per-class supports) for every rule it backs.  Root subtrees are
//!    independent and run on the current rayon pool.  A rule's Fisher
//!    p-value depends only on its `(class, coverage, support)` triple, and
//!    many rules repeat one, so each distinct triple is tested once.
//! 2. [`HoldoutEvaluation::decide`] screens the rules at `α` (in mined
//!    order) and applies Bonferroni or Benjamini–Hochberg over the
//!    candidates.  It is cheap and exact for any α and either metric.
//!
//! Two partitioning schemes are provided, matching the paper's experiments:
//! [`holdout_from_parts`] takes a pre-existing split (the paper's
//! "holdout", which pairs two independently generated sub-datasets), and
//! [`random_holdout`] splits a single dataset at random ("random holdout").
//! Each is one evaluation followed by one decision.

use crate::cancel::{CancelToken, Cancelled};
use crate::config::RuleMiningConfig;
use crate::correction::{CorrectionResult, ErrorMetric};
use crate::miner::{mine_rules, mine_rules_keeping, MinedRuleSet};
use crate::rule::ClassRule;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;
use sigrule_data::{ClassId, Dataset, TidSet, VerticalDataset};
use sigrule_stats::{
    benjamini_hochberg_threshold, bonferroni_threshold, FisherTest, RuleCounts, Tail,
};

/// Every rule mined on an exploratory part, re-scored on the evaluation
/// part: the α-independent half of the holdout procedure.  Rules keep their
/// mined order; [`decide`](HoldoutEvaluation::decide) turns the evaluation
/// into a [`CorrectionResult`] at any α and either metric.
#[derive(Debug, Clone, PartialEq)]
pub struct HoldoutEvaluation {
    /// Each rule's p-value on the exploratory part (parallel to `rules`).
    exploratory_p: Vec<f64>,
    /// Each rule with its coverage, support and p-value on the evaluation
    /// part.
    rules: Vec<ClassRule>,
}

impl HoldoutEvaluation {
    /// Mines `exploratory` with `mining` and re-scores every mined rule on
    /// `evaluation`.  `cancel` is checked between the mining phases and
    /// before the re-scoring; a fired token aborts with [`Cancelled`].
    ///
    /// `mining` is the configuration used on the **exploratory** dataset;
    /// the paper sets its `min_sup` to half of the value used on the whole
    /// dataset.
    pub fn evaluate(
        exploratory: &Dataset,
        evaluation: &Dataset,
        mining: &RuleMiningConfig,
        cancel: &CancelToken,
    ) -> Result<HoldoutEvaluation, Cancelled> {
        cancel.check()?;
        let vertical = VerticalDataset::from_dataset(exploratory);
        // No permutation null reads the exploratory rule set, so it keeps
        // no p-value tables.
        let mined = mine_rules_keeping(exploratory, &vertical, mining, cancel, 0)?;
        cancel.check()?;

        let rules = Rescore::new(&mined, &VerticalDataset::from_dataset(evaluation)).run();
        Ok(HoldoutEvaluation {
            exploratory_p: mined.rules().iter().map(|r| r.p_value).collect(),
            rules,
        })
    }

    /// Decides significance at `alpha`: the rules whose exploratory p-value
    /// is at most `alpha` become the candidates (in mined order), and the
    /// correction accounts for the candidates only.  `label_prefix`
    /// distinguishes the paper's two partitioning schemes in reports
    /// (`"HD"` for the paired construction, `"RH"` for random splits).
    pub fn decide(&self, metric: ErrorMetric, alpha: f64, label_prefix: &str) -> CorrectionResult {
        let evaluated: Vec<ClassRule> = self
            .rules
            .iter()
            .zip(&self.exploratory_p)
            .filter(|(_, &p)| p <= alpha)
            .map(|(rule, _)| rule.clone())
            .collect();

        let n_candidates = evaluated.len();
        let (method, significant, cutoff) = match metric {
            ErrorMetric::Fwer => {
                let cutoff = bonferroni_threshold(alpha, n_candidates.max(1));
                let significant: Vec<bool> =
                    evaluated.iter().map(|r| r.p_value <= cutoff).collect();
                (format!("{label_prefix}_BC"), significant, Some(cutoff))
            }
            ErrorMetric::Fdr => {
                if evaluated.is_empty() {
                    (format!("{label_prefix}_BH"), Vec::new(), None)
                } else {
                    let p_values: Vec<f64> = evaluated.iter().map(|r| r.p_value).collect();
                    let threshold = benjamini_hochberg_threshold(&p_values, alpha, None)
                        .expect("validated p-values");
                    let significant: Vec<bool> = p_values.iter().map(|&p| p <= threshold).collect();
                    (format!("{label_prefix}_BH"), significant, None)
                }
            }
        };

        CorrectionResult {
            method,
            metric,
            alpha,
            significant,
            rules: evaluated,
            p_value_cutoff: cutoff,
            n_tests: n_candidates,
        }
    }

    /// Approximate resident bytes (rules with their pattern items, plus the
    /// exploratory p-values), for the engine's byte-budget eviction.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.rules.len() * (size_of::<ClassRule>() + size_of::<f64>())
            + self
                .rules
                .iter()
                .map(|r| std::mem::size_of_val(r.pattern.items()))
                .sum::<usize>()
    }
}

/// The re-scoring of an exploratory rule set on the evaluation part, by a
/// depth-first walk of the exploratory forest.
struct Rescore<'a> {
    mined: &'a MinedRuleSet,
    evaluation: &'a VerticalDataset,
    /// The forest nodes without a parent, in node order.
    roots: Vec<usize>,
    /// The children of each forest node, in node order.
    children: Vec<Vec<usize>>,
    /// The rules (indices into `mined.rules()`) each forest node backs.
    node_rules: Vec<Vec<usize>>,
    class_counts: Vec<usize>,
    fisher: FisherTest,
    /// Stands in for the tid list of an item outside the evaluation part's
    /// item space (parts loaded separately): it covers no record.
    absent: TidSet,
}

impl<'a> Rescore<'a> {
    fn new(mined: &'a MinedRuleSet, evaluation: &'a VerticalDataset) -> Self {
        let nodes = mined.forest().nodes();
        let mut roots = Vec::new();
        let mut children = vec![Vec::new(); nodes.len()];
        for (i, node) in nodes.iter().enumerate() {
            match node.parent {
                Some(parent) => children[parent].push(i),
                None => roots.push(i),
            }
        }
        let mut node_rules = vec![Vec::new(); nodes.len()];
        for i in 0..mined.rules().len() {
            node_rules[mined.rule_node(i)].push(i);
        }
        Rescore {
            mined,
            evaluation,
            roots,
            children,
            node_rules,
            class_counts: evaluation.class_counts(),
            fisher: FisherTest::new(evaluation.n_records()),
            absent: TidSet::empty(),
        }
    }

    /// Every rule re-scored on the evaluation part, in mined order.  Root
    /// subtrees run on the current rayon pool; results land by rule index.
    fn run(&self) -> Vec<ClassRule> {
        let scored: Vec<Vec<(usize, ClassRule)>> = self
            .roots
            .par_iter()
            .map(|&root| {
                let mut out = Vec::new();
                self.walk(root, None, &mut out);
                out
            })
            .collect();
        let mut rules: Vec<Option<ClassRule>> = vec![None; self.mined.rules().len()];
        for (i, rule) in scored.into_iter().flatten() {
            rules[i] = Some(rule);
        }
        let mut rules: Vec<ClassRule> = rules
            .into_iter()
            .map(|rule| rule.expect("every rule's node lies in some root subtree"))
            .collect();
        self.fill_p_values(&mut rules);
        rules
    }

    /// Sets every rule's two-sided Fisher p-value on the evaluation part,
    /// testing each distinct `(class, coverage, support)` triple once: the
    /// p-value depends on nothing else.  The distinct triples are tested on
    /// the current rayon pool.
    fn fill_p_values(&self, rules: &mut [ClassRule]) {
        let triple = |r: &ClassRule| (r.class, r.coverage, r.support);
        let mut triples: Vec<(ClassId, usize, usize)> = rules.iter().map(triple).collect();
        triples.sort_unstable();
        triples.dedup();
        let n_eval = self.evaluation.n_records();
        let p_values: Vec<f64> = triples
            .par_iter()
            .map(|&(class, coverage, support)| {
                if n_eval == 0 {
                    return 1.0;
                }
                let n_c = self.class_counts[class as usize];
                let counts = RuleCounts::new(n_eval, n_c, coverage, support)
                    .expect("counts measured on the evaluation dataset are consistent");
                self.fisher.p_value(&counts, Tail::TwoSided)
            })
            .collect();
        for rule in rules {
            let at = triples
                .binary_search(&triple(rule))
                .expect("every rule's triple is listed");
            rule.p_value = p_values[at];
        }
    }

    /// Scores `node` and its subtree, given its parent's evaluation cover
    /// (`None` for a root: every record).  Only the covers of the open path
    /// are alive at any time.
    fn walk(&self, node: usize, parent: Option<&TidSet>, out: &mut Vec<(usize, ClassRule)>) {
        let cover = self.cover(node, parent);
        self.score(node, &cover, out);
        for &child in &self.children[node] {
            self.walk(child, Some(&cover), out);
        }
    }

    /// The evaluation records `node` covers: its parent's cover intersected
    /// with the tid lists of the items the node adds, smallest first.
    fn cover(&self, node: usize, parent: Option<&TidSet>) -> TidSet {
        let nodes = self.mined.forest().nodes();
        let pattern = &nodes[node].pattern;
        let parent_pattern = nodes[node].parent.map(|p| &nodes[p].pattern);
        let mut lists: Vec<&TidSet> = pattern
            .items()
            .iter()
            .filter(|&&item| parent_pattern.is_none_or(|p| !p.contains(item)))
            .map(|&item| {
                if (item as usize) < self.evaluation.n_items() {
                    self.evaluation.item_tids(item)
                } else {
                    &self.absent
                }
            })
            .chain(parent)
            .collect();
        lists.sort_by_key(|tids| tids.len());
        let mut lists = lists.into_iter();
        let first = lists
            .next()
            .expect("a node adds an item or has a parent cover");
        let mut cover = match lists.next() {
            Some(second) => first.intersect(second),
            None => first.clone(),
        };
        for tids in lists {
            if cover.is_empty() {
                break;
            }
            cover = cover.intersect(tids);
        }
        cover
    }

    /// Appends every rule `node` backs with its coverage and support on the
    /// evaluation `cover`; [`fill_p_values`](Self::fill_p_values) sets the
    /// p-values once every rule is counted.
    fn score(&self, node: usize, cover: &TidSet, out: &mut Vec<(usize, ClassRule)>) {
        let rules = &self.node_rules[node];
        if rules.is_empty() {
            return;
        }
        let labels = self.evaluation.labels();
        let mut supports = vec![0usize; self.class_counts.len()];
        for &t in cover.tids() {
            supports[labels[t as usize] as usize] += 1;
        }
        for &i in rules {
            let rule = &self.mined.rules()[i];
            out.push((
                i,
                ClassRule {
                    pattern: rule.pattern.clone(),
                    class: rule.class,
                    coverage: cover.len(),
                    support: supports[rule.class as usize],
                    p_value: f64::NAN,
                },
            ));
        }
    }
}

/// Runs the holdout procedure on an existing exploratory/evaluation split:
/// one [`HoldoutEvaluation::evaluate`] followed by one
/// [`HoldoutEvaluation::decide`].
///
/// `mining` is the configuration used on the **exploratory** dataset; the
/// paper sets its `min_sup` to half of the value used on the whole dataset.
/// `label_prefix` distinguishes the paper's two partitioning schemes in
/// reports (`"HD"` for the paired construction, `"RH"` for random splits).
pub fn holdout_from_parts(
    exploratory: &Dataset,
    evaluation: &Dataset,
    mining: &RuleMiningConfig,
    metric: ErrorMetric,
    alpha: f64,
    label_prefix: &str,
) -> CorrectionResult {
    HoldoutEvaluation::evaluate(exploratory, evaluation, mining, &CancelToken::none())
        .expect("the never-firing token cannot cancel")
        .decide(metric, alpha, label_prefix)
}

/// Splits `whole` into two random halves: the first (exploratory) half
/// holds `⌊n/2⌋` records chosen by a `seed`ed shuffle, the second the rest.
/// Record order is preserved within each half.
pub(crate) fn random_split(whole: &Dataset, seed: u64) -> (Dataset, Dataset) {
    let n = whole.n_records();
    let mut indices: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    indices.shuffle(&mut rng);
    let half = n / 2;
    let mut mask = vec![false; n];
    for &i in indices.iter().take(half) {
        mask[i] = true;
    }
    whole
        .split_by_mask(&mask)
        .expect("mask has exactly one entry per record")
}

/// Splits `whole` into two random halves and runs the holdout procedure
/// ("random holdout" in the paper).  The first half is the exploratory
/// dataset.
pub fn random_holdout(
    whole: &Dataset,
    seed: u64,
    mining: &RuleMiningConfig,
    metric: ErrorMetric,
    alpha: f64,
) -> CorrectionResult {
    let (exploratory, evaluation) = random_split(whole, seed);
    holdout_from_parts(&exploratory, &evaluation, mining, metric, alpha, "RH")
}

/// Number of candidate rules that pass the exploratory screen at `alpha`
/// (used by the experiments that report "#rules tested" on the exploratory
/// and evaluation datasets, Figures 7 and 11).
pub fn count_exploratory_candidates(
    exploratory: &Dataset,
    mining: &RuleMiningConfig,
    alpha: f64,
) -> (usize, usize) {
    let mined = mine_rules(exploratory, mining);
    let candidates = mined.rules().iter().filter(|r| r.p_value <= alpha).count();
    (mined.n_tests(), candidates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigrule_synth::{SyntheticGenerator, SyntheticParams};

    fn paired(confidence: f64, seed: u64) -> sigrule_synth::PairedSynthetic {
        let params = SyntheticParams::default()
            .with_records(600)
            .with_attributes(12)
            .with_rules(1)
            .with_coverage(160, 160)
            .with_confidence(confidence, confidence);
        SyntheticGenerator::new(params)
            .unwrap()
            .generate_paired(seed)
    }

    #[test]
    fn items_outside_the_evaluation_item_space_cover_no_record() {
        use sigrule_data::loader::{load_baskets_str, BasketOptions};
        // Two separately loaded parts: the evaluation file never mentions
        // `c` or `d`, so its item space is smaller than the exploratory one.
        let mut explore_text = String::new();
        let mut eval_text = String::new();
        for i in 0..40 {
            let class = if i % 4 == 0 { "no" } else { "yes" };
            explore_text.push_str(&format!("a b c d label:{class}\n"));
            eval_text.push_str(&format!("a b label:{class}\n"));
        }
        let options = BasketOptions::default();
        let exploratory = load_baskets_str(&explore_text, &options).unwrap().dataset;
        let evaluation = load_baskets_str(&eval_text, &options).unwrap().dataset;
        assert!(exploratory.n_items() > evaluation.n_items());

        let r = holdout_from_parts(
            &exploratory,
            &evaluation,
            &RuleMiningConfig::new(5),
            ErrorMetric::Fwer,
            1.0,
            "HD",
        );
        assert!(r.rules.iter().any(|rule| rule
            .pattern
            .items()
            .iter()
            .any(|&i| i as usize >= evaluation.n_items())));
        for rule in &r.rules {
            assert_eq!(rule.coverage, evaluation.support(&rule.pattern));
            assert_eq!(
                rule.support,
                evaluation.rule_support(&rule.pattern, rule.class)
            );
        }
    }

    #[test]
    fn strong_rule_survives_holdout_fwer() {
        let p = paired(0.95, 1);
        let r = holdout_from_parts(
            &p.exploratory,
            &p.evaluation,
            &RuleMiningConfig::new(40),
            ErrorMetric::Fwer,
            0.05,
            "HD",
        );
        assert_eq!(r.method, "HD_BC");
        assert!(r.n_significant() > 0, "confidence-0.95 rule should survive");
        // Every reported rule carries evaluation-dataset statistics.
        for rule in r.significant_rules() {
            assert!(rule.coverage <= p.evaluation.n_records());
        }
    }

    #[test]
    fn weak_rule_is_often_lost_by_holdout() {
        // A moderately confident rule is harder to detect at half coverage:
        // the holdout should report (weakly) fewer significant rules than a
        // whole-dataset Bonferroni.
        let p = paired(0.62, 2);
        let hd = holdout_from_parts(
            &p.exploratory,
            &p.evaluation,
            &RuleMiningConfig::new(40),
            ErrorMetric::Fwer,
            0.05,
            "HD",
        );
        let mined_whole = mine_rules(&p.whole, &RuleMiningConfig::new(80));
        let bc = crate::correction::direct::bonferroni(&mined_whole, 0.05);
        assert!(
            hd.n_significant() <= bc.n_significant() + 1,
            "holdout ({}) should not report far more rules than BC ({})",
            hd.n_significant(),
            bc.n_significant()
        );
    }

    #[test]
    fn candidate_counting_matches_the_screen() {
        let p = paired(0.9, 3);
        let (n_tests, candidates) =
            count_exploratory_candidates(&p.exploratory, &RuleMiningConfig::new(40), 0.05);
        assert!(candidates <= n_tests);
        let r = holdout_from_parts(
            &p.exploratory,
            &p.evaluation,
            &RuleMiningConfig::new(40),
            ErrorMetric::Fwer,
            0.05,
            "HD",
        );
        assert_eq!(r.n_tests, candidates);
        assert_eq!(r.rules.len(), candidates);
    }

    #[test]
    fn fdr_variant_reports_at_least_as_much_as_fwer() {
        let p = paired(0.85, 4);
        let mining = RuleMiningConfig::new(40);
        let fwer = holdout_from_parts(
            &p.exploratory,
            &p.evaluation,
            &mining,
            ErrorMetric::Fwer,
            0.05,
            "HD",
        );
        let fdr = holdout_from_parts(
            &p.exploratory,
            &p.evaluation,
            &mining,
            ErrorMetric::Fdr,
            0.05,
            "HD",
        );
        assert_eq!(fdr.method, "HD_BH");
        assert!(fdr.n_significant() >= fwer.n_significant());
    }

    #[test]
    fn random_holdout_runs_and_is_deterministic_per_seed() {
        let p = paired(0.9, 5);
        let a = random_holdout(
            &p.whole,
            7,
            &RuleMiningConfig::new(40),
            ErrorMetric::Fwer,
            0.05,
        );
        let b = random_holdout(
            &p.whole,
            7,
            &RuleMiningConfig::new(40),
            ErrorMetric::Fwer,
            0.05,
        );
        assert_eq!(a.method, "RH_BC");
        assert_eq!(a.n_significant(), b.n_significant());
        assert_eq!(a.rules.len(), b.rules.len());
    }

    #[test]
    fn empty_candidate_set_yields_empty_result() {
        // Random data with a very strict exploratory screen: no candidates.
        let params = SyntheticParams::default()
            .with_records(200)
            .with_attributes(8);
        let (d, _) = SyntheticGenerator::new(params).unwrap().generate(6);
        let (explore, eval) = d.split_at(100);
        let r = holdout_from_parts(
            &explore,
            &eval,
            &RuleMiningConfig::new(30),
            ErrorMetric::Fdr,
            1e-12,
            "HD",
        );
        assert_eq!(r.n_significant(), 0);
        assert!(r.rules.is_empty() || r.rules.iter().all(|x| x.p_value > 0.0));
    }
}
