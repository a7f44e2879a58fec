//! Closed frequent patterns (Pasquier et al., ICDT 1999).
//!
//! §3 of the paper: "To reduce the number of rules generated, we use only
//! closed frequent patterns as the left-hand side of rules.  A closed frequent
//! pattern is the longest pattern among those patterns that occur in the same
//! set of records as it, and it is unique."
//!
//! Two routes build the closed-only forest the rule miner tests:
//!
//! * [`mine_closed_forest`] mines the closed patterns directly, by LCM's
//!   prefix-preserving closure extension (Uno, Kiyomi & Arimura, FIMI 2004),
//!   and never visits a pattern that is not closed.  The rule miner uses it
//!   whenever patterns have no length cap, through [`ClosedSplit`], which
//!   lets it mine the independent top-level subtrees on its thread pool.
//!   This goes beyond the paper, which mines every frequent pattern first.
//! * Eclat's full forest compacted by
//!   [`PatternForest::closed_indices`](crate::forest::PatternForest::closed_indices)
//!   and [`PatternForest::into_closed`](crate::forest::PatternForest::into_closed),
//!   which identify closed patterns by tid-set hash.  The rule miner takes
//!   this route under a length cap, where "closed" means the unique longest
//!   pattern within the cap, which is not a closure property.
//!
//! Both routes yield the same forest when there is no cap.  Separately,
//! [`closed_flags`] works on a plain list of frequent patterns (with
//! supports only) and cross-checks the forest-based result: when the list
//! contains *all* frequent patterns, a pattern is closed iff no proper
//! super-pattern in the list has the same support.

use crate::eclat::ranked_items;
use crate::forest::{hash_tids, PatternForest, PatternNode};
use crate::miner::FrequentPattern;
use sigrule_data::{Cover, ItemId, Pattern, TidSet, VerticalDataset};
use std::collections::HashMap;

/// Mines the closed frequent patterns of `vertical` (support at least
/// `min_sup`, no length cap) straight into their closed-only forest, on the
/// calling thread.
///
/// The result equals, node for node, Eclat's forest compacted to its closed
/// nodes: `EclatMiner { use_diffsets }.mine_forest_vertical(..)` followed by
/// `into_closed(&closed_indices(), use_diffsets)`.  That fixes the layout:
///
/// * a closed set's position in Eclat's depth-first order is the
///   lexicographic order of its items' rank sequence (ranks from Eclat's item
///   order, ascending support then item id), so the closed sets are sorted by
///   rank sequence;
/// * its nearest closed Eclat ancestor is its longest proper rank-prefix that
///   is closed, so that prefix is its parent;
/// * its cover is [`Cover::choose`] against the parent's tid-set (every
///   record for a root), or the full tid-set when `use_diffsets` is off.
///
/// The closed sets themselves come from LCM: starting from the closure of
/// the empty pattern, each closed set `P` is extended by every later-ranked
/// item `i` whose tid-set `T = tids(P ∪ {i})` is frequent and passes the
/// prefix-preservation test (no earlier-ranked item outside `P` occurs in
/// every record of `T`).  The extension's closure `Q` adds the later items
/// that do.  Every closed set is reached exactly once, from the closed set
/// its prefix below `i` closes to.
///
/// `Q`'s parent is known when it is found.  Its rank-prefixes that reach `i`
/// close to `Q`, and those that reach `P`'s own extension item close to `P`,
/// so `Q`'s longest closed proper prefix is `P` when `P` has no item ranked
/// above `i`, and otherwise `P`'s parent.  Each node therefore gets its final
/// cover at once and no full tid-set outlives the walk.
///
/// The subtree below each top-level extension reads nothing but the
/// immutable candidate list, so the walk splits there: this function is
/// [`ClosedSplit`]'s subtrees mined one after another.  The rule miner runs
/// the same subtrees on its thread pool and assembles the same forest.
pub fn mine_closed_forest(
    vertical: &VerticalDataset,
    min_sup: usize,
    use_diffsets: bool,
) -> PatternForest {
    let split = ClosedSplit::new(vertical, min_sup, use_diffsets);
    let subtrees = (0..split.len()).map(|pos| split.subtree(pos)).collect();
    split.assemble(subtrees)
}

/// [`mine_closed_forest`] cut at its top level: the closure of the empty
/// pattern and the top-level extension candidates, from which the subtree
/// of every candidate position can be mined independently (on any thread)
/// and the forest assembled from the subtrees in position order.
#[derive(Debug)]
pub struct ClosedSplit<'v> {
    /// Item id of each rank.
    items: Vec<ItemId>,
    min_sup: usize,
    use_diffsets: bool,
    n_records: usize,
    /// Every record: the tid-set of the empty pattern.
    full: TidSet,
    /// The closure of the empty pattern: the ranks of the items in every
    /// record.
    root: Vec<u32>,
    /// Each other frequent item's rank and tid-set, in ascending rank order.
    candidates: Vec<(u32, &'v TidSet)>,
}

/// The closed sets of one top-level subtree of a [`ClosedSplit`], in mining
/// order.
#[derive(Debug)]
pub struct ClosedSubtree {
    ranks: Vec<u32>,
    rank_ends: Vec<usize>,
    nodes: Vec<PatternNode>,
}

/// The index a subtree's nodes use for the closure of the empty pattern,
/// which [`ClosedSplit::assemble`] puts first.
const ROOT_CLOSURE: usize = usize::MAX;

impl<'v> ClosedSplit<'v> {
    /// Ranks the frequent items of `vertical` and closes the empty pattern.
    pub fn new(vertical: &'v VerticalDataset, min_sup: usize, use_diffsets: bool) -> Self {
        let min_sup = min_sup.max(1);
        let n_records = vertical.n_records();
        let items = ranked_items(vertical, min_sup);
        let root: Vec<u32> = (0..items.len() as u32)
            .filter(|&r| vertical.item_support(items[r as usize]) == n_records)
            .collect();
        let candidates = (0..items.len() as u32)
            .filter(|r| !root.contains(r))
            .map(|r| (r, vertical.item_tids(items[r as usize])))
            .collect();
        ClosedSplit {
            items,
            min_sup,
            use_diffsets,
            n_records,
            full: TidSet::full(n_records),
            root,
            candidates,
        }
    }

    /// The number of top-level subtrees (candidate positions).
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// True when there is no top-level subtree.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    fn walk(&self) -> ClosedWalk<'_> {
        ClosedWalk {
            items: &self.items,
            min_sup: self.min_sup,
            use_diffsets: self.use_diffsets,
            full: &self.full,
            ranks: Vec::new(),
            rank_ends: Vec::new(),
            nodes: Vec::new(),
        }
    }

    /// Mines the subtree of top-level candidate position `pos`.
    pub fn subtree(&self, pos: usize) -> ClosedSubtree {
        let mut walk = self.walk();
        let this = (!self.root.is_empty()).then_some((ROOT_CLOSURE, &self.full));
        walk.extend_at(pos, &self.root, this, None, &self.candidates, &[]);
        ClosedSubtree {
            ranks: walk.ranks,
            rank_ends: walk.rank_ends,
            nodes: walk.nodes,
        }
    }

    /// The forest from every position's subtree, given in position order:
    /// the root closure first, then the subtrees concatenated (which is the
    /// serial walk's mining order), sorted by rank sequence.
    ///
    /// # Panics
    ///
    /// Panics if `subtrees` does not hold one subtree per position.
    pub fn assemble(self, subtrees: Vec<ClosedSubtree>) -> PatternForest {
        assert_eq!(subtrees.len(), self.len(), "one subtree per position");
        let mut walk = self.walk();
        if !self.root.is_empty() {
            walk.push(&self.root, &self.full, None);
        }
        for subtree in subtrees {
            let offset = walk.nodes.len();
            let rank_offset = walk.ranks.len();
            walk.ranks.extend_from_slice(&subtree.ranks);
            walk.rank_ends
                .extend(subtree.rank_ends.iter().map(|end| end + rank_offset));
            walk.nodes.extend(subtree.nodes.into_iter().map(|mut node| {
                node.parent = node
                    .parent
                    .map(|p| if p == ROOT_CLOSURE { 0 } else { p + offset });
                node
            }));
        }

        // Into depth-first order, in place: parents precede children, since a
        // prefix sorts before its extensions.
        let mut order: Vec<usize> = (0..walk.nodes.len()).collect();
        order.sort_unstable_by(|&a, &b| walk.ranks_of(a).cmp(walk.ranks_of(b)));
        let mut nodes = walk.nodes;
        let mut position = vec![0; order.len()];
        for (pos, &mined) in order.iter().enumerate() {
            position[mined] = pos;
        }
        for node in &mut nodes {
            node.parent = node.parent.map(|p| position[p]);
        }
        for i in 0..nodes.len() {
            while position[i] != i {
                let j = position[i];
                nodes.swap(i, j);
                position.swap(i, j);
            }
        }
        PatternForest::new(nodes, self.n_records)
    }
}

/// A closed set found by [`ClosedWalk`]: its index in mining order and its
/// tid-set; `None` is the empty pattern (every record, no node).
type Found<'t> = Option<(usize, &'t TidSet)>;

/// One run of the closed-pattern walk of [`mine_closed_forest`].
struct ClosedWalk<'a> {
    /// Item id of each rank.
    items: &'a [ItemId],
    min_sup: usize,
    use_diffsets: bool,
    /// Every record: the tid-set a root's cover is taken against.
    full: &'a TidSet,
    /// The ascending ranks of every closed set, back to back in mining
    /// order; set `i`'s end at `rank_ends[i]`.
    ranks: Vec<u32>,
    rank_ends: Vec<usize>,
    /// The node of each closed set, in mining order; parents are
    /// mining-order indices.
    nodes: Vec<PatternNode>,
}

impl ClosedWalk<'_> {
    /// The ascending ranks of closed set `i` (mining order).
    fn ranks_of(&self, i: usize) -> &[u32] {
        let start = if i == 0 { 0 } else { self.rank_ends[i - 1] };
        &self.ranks[start..self.rank_ends[i]]
    }

    /// Records the closed set `ranks` with tid-set `tids` under `parent`, and
    /// returns its index in mining order.
    fn push(&mut self, ranks: &[u32], tids: &TidSet, parent: Found) -> usize {
        let parent_tids = parent.map_or(self.full, |(_, t)| t);
        let node = PatternNode {
            pattern: Pattern::from_items(ranks.iter().map(|&r| self.items[r as usize])),
            support: tids.len(),
            parent: parent.map(|(index, _)| index),
            cover: if self.use_diffsets {
                Cover::choose(parent_tids, tids.clone())
            } else {
                Cover::Tids(tids.clone())
            },
            tid_hash: hash_tids(tids),
        };
        self.ranks.extend_from_slice(ranks);
        self.rank_ends.push(self.ranks.len());
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Records every closed set reached from the closed set `pattern`
    /// (ascending ranks; `this` is its own entry, `parent` its parent's) by a
    /// prefix-preserving extension.
    ///
    /// `candidates` holds each later-ranked item outside `pattern` that is
    /// frequent together with it, with that joint tid-set, in ascending rank
    /// order.  `earlier` holds, for each earlier-ranked item outside `pattern`
    /// that could still occur in every record of an extension, its tid-set
    /// intersected with some ancestor's: enough for the subset test, since
    /// every extension's tid-set lies inside that ancestor's.
    fn extend<'t>(
        &mut self,
        pattern: &[u32],
        this: Found<'t>,
        parent: Found<'t>,
        candidates: &[(u32, &'t TidSet)],
        earlier: &[&'t TidSet],
    ) {
        for pos in 0..candidates.len() {
            self.extend_at(pos, pattern, this, parent, candidates, earlier);
        }
    }

    /// The part of [`extend`](ClosedWalk::extend) that extends `pattern` by
    /// `candidates[pos]`: that closed set, if the extension preserves the
    /// prefix, and everything reached from it.
    fn extend_at<'t>(
        &mut self,
        pos: usize,
        pattern: &[u32],
        this: Found<'t>,
        parent: Found<'t>,
        candidates: &[(u32, &'t TidSet)],
        earlier: &[&'t TidSet],
    ) {
        let (item, tids) = candidates[pos];
        let mut before = earlier
            .iter()
            .chain(candidates[..pos].iter().map(|(_, t)| t));
        if before.any(|t| tids.is_subset(t)) {
            return;
        }
        let mut closed = pattern.to_vec();
        closed.push(item);
        let mut next = Vec::new();
        for &(other, other_tids) in &candidates[pos + 1..] {
            match tids.intersect_min(other_tids, self.min_sup) {
                Some(joined) if joined.len() == tids.len() => closed.push(other),
                Some(joined) => next.push((other, joined)),
                None => {}
            }
        }
        closed.sort_unstable();
        let up = if pattern.last().is_none_or(|&r| r < item) {
            this
        } else {
            parent
        };
        let index = self.push(&closed, tids, up);
        if !next.is_empty() {
            let next: Vec<(u32, &TidSet)> = next.iter().map(|(r, t)| (*r, t)).collect();
            let mut earlier_next = earlier.to_vec();
            earlier_next.extend(candidates[..pos].iter().map(|&(_, t)| t));
            self.extend(&closed, Some((index, tids)), up, &next, &earlier_next);
        }
    }
}

/// Marks which of the given frequent patterns are closed.
///
/// Correct only when `patterns` contains **every** frequent pattern of the
/// dataset at the mining threshold (which is what all miners in this crate
/// return): if a super-pattern with equal support existed but were missing
/// from the list, a non-closed pattern would be mislabelled as closed.
pub fn closed_flags(patterns: &[FrequentPattern]) -> Vec<bool> {
    // Group pattern indices by support; only patterns with equal support can
    // witness each other's non-closedness.
    let mut by_support: HashMap<usize, Vec<usize>> = HashMap::new();
    for (i, fp) in patterns.iter().enumerate() {
        by_support.entry(fp.support).or_default().push(i);
    }
    let mut closed = vec![true; patterns.len()];
    for indices in by_support.values() {
        for &i in indices {
            for &j in indices {
                if i == j {
                    continue;
                }
                let a = &patterns[i].pattern;
                let b = &patterns[j].pattern;
                if a.len() < b.len() && a.is_subset_of(b) {
                    closed[i] = false;
                    break;
                }
            }
        }
    }
    closed
}

/// Returns only the closed patterns from a list of frequent patterns.
pub fn closed_patterns(patterns: &[FrequentPattern]) -> Vec<FrequentPattern> {
    closed_flags(patterns)
        .into_iter()
        .zip(patterns.iter())
        .filter(|(is_closed, _)| *is_closed)
        .map(|(_, fp)| fp.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eclat::EclatMiner;
    use crate::miner::{FrequentPatternMiner, MinerConfig};
    use sigrule_data::{Dataset, Record, Schema};

    #[test]
    fn simple_closure_example() {
        // {0} support 3, {0,1} support 3 → {0} is not closed, {0,1} is.
        // {2} support 2 is closed (no equal-support superset).
        let patterns = vec![
            FrequentPattern::new(Pattern::from_items([0]), 3),
            FrequentPattern::new(Pattern::from_items([0, 1]), 3),
            FrequentPattern::new(Pattern::from_items([1]), 4),
            FrequentPattern::new(Pattern::from_items([2]), 2),
        ];
        assert_eq!(closed_flags(&patterns), vec![false, true, true, true]);
        let closed = closed_patterns(&patterns);
        assert_eq!(closed.len(), 3);
    }

    #[test]
    fn equal_support_but_not_subset_stays_closed() {
        let patterns = vec![
            FrequentPattern::new(Pattern::from_items([0]), 3),
            FrequentPattern::new(Pattern::from_items([1]), 3),
        ];
        assert_eq!(closed_flags(&patterns), vec![true, true]);
    }

    #[test]
    fn agrees_with_forest_closed_indices() {
        // A dataset with deliberate redundancy: attribute 1 mirrors attribute 0.
        let schema = Schema::synthetic(&[2, 2, 2], 2).unwrap();
        let mut records = Vec::new();
        for i in 0..30 {
            let a = usize::from(i % 3 == 0);
            let b = a; // mirrored
            let c = usize::from(i % 2 == 0);
            records.push(Record::new(
                vec![
                    schema.item_id(0, a).unwrap(),
                    schema.item_id(1, b).unwrap(),
                    schema.item_id(2, c).unwrap(),
                ],
                (i % 2) as u32,
            ));
        }
        let d = Dataset::new(schema, records).unwrap();
        let miner = EclatMiner::default();
        let config = MinerConfig::new(3);
        let forest = miner.mine_forest(&d, &config);
        let from_forest: std::collections::HashSet<Pattern> = forest
            .closed_indices()
            .into_iter()
            .map(|i| forest.nodes()[i].pattern.clone())
            .collect();

        let flat = miner.mine(&d, &config);
        let from_flags: std::collections::HashSet<Pattern> = closed_patterns(&flat)
            .into_iter()
            .map(|fp| fp.pattern)
            .collect();
        assert_eq!(from_forest, from_flags);
        // Redundancy means strictly fewer closed patterns than frequent ones.
        assert!(from_forest.len() < flat.len());
    }

    #[test]
    fn empty_input() {
        assert!(closed_flags(&[]).is_empty());
        assert!(closed_patterns(&[]).is_empty());
    }

    /// Attribute rows: `rows[r][a]` is the value of attribute `a` in record
    /// `r`; classes alternate.
    fn rows(cardinalities: &[usize], rows: &[&[usize]]) -> Dataset {
        let schema = Schema::synthetic(cardinalities, 2).unwrap();
        let records = rows
            .iter()
            .enumerate()
            .map(|(r, values)| {
                let items = values
                    .iter()
                    .enumerate()
                    .map(|(a, &v)| schema.item_id(a, v).unwrap())
                    .collect();
                Record::new(items, (r % 2) as u32)
            })
            .collect();
        Dataset::new(schema, records).unwrap()
    }

    /// The direct forest, after checking it against Eclat's compacted forest
    /// with and without diffsets.
    fn direct_checked(d: &Dataset, min_sup: usize) -> PatternForest {
        let vertical = VerticalDataset::from_dataset(d);
        for use_diffsets in [false, true] {
            let eclat = EclatMiner { use_diffsets }
                .mine_forest_vertical(&vertical, &MinerConfig::new(min_sup));
            let closed = eclat.closed_indices();
            let compacted = eclat.into_closed(&closed, use_diffsets);
            let direct = mine_closed_forest(&vertical, min_sup, use_diffsets);
            assert_eq!(direct, compacted, "use_diffsets {use_diffsets}");
        }
        mine_closed_forest(&vertical, min_sup, true)
    }

    #[test]
    fn an_item_in_every_record_closes_the_empty_pattern_into_a_root() {
        // Attribute 0 has one value: item 0 is in all six records.
        let d = rows(
            &[1, 2, 2],
            &[
                &[0, 0, 0],
                &[0, 0, 1],
                &[0, 1, 0],
                &[0, 0, 0],
                &[0, 1, 1],
                &[0, 0, 1],
            ],
        );
        let forest = direct_checked(&d, 1);
        let root = forest
            .nodes()
            .iter()
            .find(|n| n.pattern.items() == [0])
            .expect("the closure of the empty pattern is a node");
        assert_eq!((root.support, root.parent), (6, None));
        assert!(forest.nodes().iter().all(|n| n.pattern.contains(0)));
        for (i, node) in forest.nodes().iter().enumerate() {
            assert_eq!(forest.tids(i).tids(), d.tids_of(&node.pattern).as_slice());
        }
    }

    #[test]
    fn tied_item_supports_follow_item_ids() {
        // Every item has support 2 or 3, with several ties at each.
        let d = rows(
            &[2, 2, 2],
            &[&[0, 0, 1], &[0, 1, 0], &[1, 0, 1], &[1, 1, 0], &[0, 0, 0]],
        );
        let forest = direct_checked(&d, 1);
        // The first node extends the lowest-ranked item: the smallest id
        // among the least frequent.
        assert_eq!(forest.nodes()[0].pattern.items()[0], 1);
        let forest = direct_checked(&d, 2);
        assert!(!forest.is_empty());
    }

    #[test]
    fn min_sup_zero_counts_as_one_and_above_the_record_count_mines_nothing() {
        let d = rows(&[2, 3], &[&[0, 0], &[0, 1], &[1, 2], &[0, 0]]);
        let vertical = VerticalDataset::from_dataset(&d);
        assert_eq!(
            direct_checked(&d, 0),
            mine_closed_forest(&vertical, 1, true)
        );
        let none = direct_checked(&d, 5);
        assert!(none.is_empty());
        assert_eq!(none.n_records(), 4);
    }

    #[test]
    fn one_record_is_one_root_node() {
        let d = rows(&[2, 3], &[&[1, 2]]);
        let forest = direct_checked(&d, 1);
        assert_eq!(forest.len(), 1);
        let node = &forest.nodes()[0];
        assert_eq!(
            node.pattern,
            Pattern::from_items(d.records()[0].items().iter().copied())
        );
        assert_eq!((node.support, node.parent), (1, None));
    }

    #[test]
    fn no_records_mine_nothing() {
        let d = rows(&[2, 2], &[]);
        let forest = direct_checked(&d, 1);
        assert!(forest.is_empty());
        assert_eq!(forest.n_records(), 0);
    }
}
