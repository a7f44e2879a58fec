//! The pattern forest: frequent patterns arranged in their set-enumeration
//! tree, with Diffset-encoded covers and parent links.
//!
//! This is the structure §4.2.1–4.2.2 of the paper builds once on the
//! original dataset and then reuses on every permutation:
//!
//! * patterns are mined **once**; their record id lists (tid-sets) never
//!   change across permutations because only class labels are shuffled;
//! * each node stores either its full tid-set or its Diffset relative to its
//!   parent, whichever is smaller (the `supp(X) ≤ supp(parent)/2` rule);
//! * the support of a rule `X ⇒ c` on a permutation is recomputed from the
//!   parent's rule support and the node's cover in a single pass over the
//!   forest in depth-first (parent-before-child) order.
//!
//! Eclat builds the forest over every frequent pattern, each node's parent
//! being its set-enumeration parent.  When only closed patterns become rules
//! the forest holds closed nodes only, each parented on its nearest closed
//! ancestor with its Diffset taken against that ancestor.  Without a length
//! cap [`mine_closed_forest`](crate::closed::mine_closed_forest) builds it
//! directly; under a cap, [`PatternForest::into_closed`] compacts Eclat's
//! forest to the nodes [`PatternForest::closed_indices`] keeps.  This goes
//! beyond the paper and is exact because an ancestor's tid-set contains its
//! descendant's, so `supp_c(X) = supp_c(Y) − |diff(Y, X) ∩ c|` holds for any
//! ancestor `Y`.
//!
//! [`PatternForest::rule_supports`] is the plain single-permutation pass: it
//! loads one label per stored id.  The permutation engine instead counts a
//! whole chunk of permutations at once
//! ([`PatternForest::rule_supports_planned_block`]) against transposed
//! per-class label lane blocks, with two kernels.  The bitset kernel packs
//! each cover into a [`Bitmap`] **once** (covers never change across
//! permutations) and counts `AND` + popcount against every lane; the
//! tid-list kernel gathers each stored id's bit across the lanes.  A
//! [`SupportPlan`] decides per node which kernel to use
//! ([`SupportBackend::Auto`] picks the bitmap whenever the stored list is
//! denser than one id per 64 records, the point where the word sweep touches
//! less memory than the id walk) and caches the packed bitmaps.

use sigrule_data::{Bitmap, ClassId, ClassLaneBlocks, Cover, LaneBlock, Pattern, TidSet};

/// One frequent pattern in the forest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternNode {
    /// The pattern.
    pub pattern: Pattern,
    /// Its support (`supp(X)`), i.e. its coverage when used as a rule LHS.
    pub support: usize,
    /// Index of the parent node in the forest, or `None` when the parent is
    /// the (virtual) empty pattern covering every record.  The parent is a
    /// sub-pattern covering a superset of the node's records: the
    /// set-enumeration parent in a mined forest, the nearest closed ancestor
    /// in a closed-only one.
    pub parent: Option<usize>,
    /// The stored cover: full tid-set or Diffset relative to the parent.
    pub cover: Cover,
    /// Hash of the pattern's tid-set; two nodes with equal support and equal
    /// hash almost surely cover the same records (the grouping key of
    /// [`PatternForest::closed_indices`], which resolves collisions exactly).
    pub tid_hash: u64,
}

/// Frequent patterns arranged in parent-before-child order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternForest {
    nodes: Vec<PatternNode>,
    n_records: usize,
}

impl PatternForest {
    /// Assembles a forest from nodes already in parent-before-child order.
    ///
    /// # Panics
    ///
    /// Panics if a node references a parent at or after its own position.
    pub fn new(nodes: Vec<PatternNode>, n_records: usize) -> Self {
        for (i, node) in nodes.iter().enumerate() {
            if let Some(p) = node.parent {
                assert!(
                    p < i,
                    "node {i} references parent {p} that does not precede it"
                );
            }
        }
        PatternForest { nodes, n_records }
    }

    /// The nodes, in parent-before-child order.
    pub fn nodes(&self) -> &[PatternNode] {
        &self.nodes
    }

    /// Number of patterns in the forest.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the forest holds no patterns.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of records of the dataset the forest was mined from.
    pub fn n_records(&self) -> usize {
        self.n_records
    }

    /// Materialises the full tid-set of a node from its ancestors' covers.
    pub fn tids(&self, index: usize) -> TidSet {
        self.materialize(&[index])[index]
            .take()
            .expect("the target is materialised")
    }

    /// Computes `supp(X ⇒ c)` for **every** node in one pass, given the class
    /// label of every record (indexed by tid) and the class of interest.
    ///
    /// This is the inner loop of the permutation approach: `labels` changes on
    /// every permutation, the forest does not.
    pub fn rule_supports(&self, labels: &[ClassId], class: ClassId) -> Vec<usize> {
        assert_eq!(
            labels.len(),
            self.n_records,
            "label vector length must match the mined dataset"
        );
        let class_total = labels.iter().filter(|&&c| c == class).count();
        let mut out = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let parent_rule_support = match node.parent {
                Some(p) => out[p],
                None => class_total,
            };
            out.push(node.cover.rule_support(parent_rule_support, labels, class));
        }
        out
    }

    /// Computes `supp(X ⇒ c)` for every node and every permutation *lane* of
    /// a transposed class block in one batched pass: the lane-blocked
    /// counterpart of calling
    /// [`rule_supports`](PatternForest::rule_supports) once per permutation.
    ///
    /// `class_block` holds one label bitmap per permutation lane for a single
    /// class (see [`ClassLaneBlocks`]).  Bitmap-kernel nodes sweep their
    /// packed cover against all lanes at once
    /// ([`LaneBlock::and_count_per_lane`]); tid-list nodes count membership
    /// of their stored ids across all lanes
    /// ([`LaneBlock::tid_hits_per_lane`]) — no per-permutation label-array
    /// walks at all.  Results land node-major in `out`
    /// (`out[node * lanes + lane]`), cleared and resized first.
    ///
    /// Every count is an exact integer computed from the same sets as the
    /// per-permutation pass, so each lane of the output is bit-identical to
    /// [`rule_supports`](PatternForest::rule_supports) on that permutation's
    /// labels, whatever kernel the plan selected.
    ///
    /// # Panics
    ///
    /// Panics if the plan or block dimensions do not match the forest.
    pub fn rule_supports_planned_block(
        &self,
        plan: &SupportPlan,
        class_block: &LaneBlock,
        out: &mut Vec<u32>,
    ) {
        assert_eq!(
            plan.bitmaps.len(),
            self.nodes.len(),
            "support plan was built for a different forest"
        );
        assert_eq!(
            class_block.n_bits(),
            self.n_records,
            "class block must cover the mined dataset's records"
        );
        let lanes = class_block.lanes();
        out.clear();
        out.resize(self.nodes.len() * lanes, 0);
        if lanes == 0 {
            return;
        }
        let mut class_total = vec![0u32; lanes];
        class_block.count_ones_per_lane(&mut class_total);
        let mut hits = vec![0u32; lanes];
        for (i, (node, stored_bits)) in self.nodes.iter().zip(plan.bitmaps.iter()).enumerate() {
            match stored_bits {
                Some(bits) => class_block.and_count_per_lane(bits, &mut hits),
                None => class_block.tid_hits_per_lane(node.cover.stored_tids().tids(), &mut hits),
            }
            let diffset = node.cover.is_diffset();
            for lane in 0..lanes {
                let parent_rule_support = match node.parent {
                    Some(p) => out[p * lanes + lane],
                    None => class_total[lane],
                };
                out[i * lanes + lane] = if diffset {
                    parent_rule_support - hits[lane]
                } else {
                    hits[lane]
                };
            }
        }
    }

    /// Builds the per-node counting plan for the permutation engine: packs
    /// the covers selected by `backend` into bitmaps (a one-off cost reused
    /// by every permutation) and leaves the rest on the tid-list kernel.
    pub fn support_plan(&self, backend: SupportBackend) -> SupportPlan {
        let bitmaps = self
            .nodes
            .iter()
            .map(|node| {
                let use_bitmap = match backend {
                    SupportBackend::TidLists => false,
                    SupportBackend::Bitmaps => true,
                    // Break-even: the bitmap sweep reads n/64 words, the
                    // tid-list walk reads stored_len labels.
                    SupportBackend::Auto => node.cover.stored_len() * 64 >= self.n_records,
                };
                use_bitmap.then(|| node.cover.stored_bitmap(self.n_records))
            })
            .collect();
        SupportPlan {
            bitmaps,
            n_records: self.n_records,
        }
    }

    /// The supports (`supp(X)`) of all nodes, in forest order.
    pub fn supports(&self) -> Vec<usize> {
        self.nodes.iter().map(|n| n.support).collect()
    }

    /// Total bytes used by the stored covers — the quantity the Diffsets
    /// technique reduces (§4.2.2).
    pub fn cover_bytes(&self) -> usize {
        self.nodes.iter().map(|n| n.cover.size_bytes()).sum()
    }

    /// Number of nodes whose cover is stored as a Diffset.
    pub fn n_diffsets(&self) -> usize {
        self.nodes.iter().filter(|n| n.cover.is_diffset()).count()
    }

    /// Approximate resident bytes of the forest: the node array plus every
    /// node's pattern items and stored cover.  An estimate (allocator
    /// overhead and capacity slack are not counted) used by the byte-budget
    /// cache accounting of the engine/registry layers.
    pub fn approx_bytes(&self) -> usize {
        let nodes = self.nodes.len() * std::mem::size_of::<PatternNode>();
        let heap: usize = self
            .nodes
            .iter()
            .map(|n| std::mem::size_of_val(n.pattern.items()) + n.cover.size_bytes())
            .sum();
        nodes + heap
    }

    /// Indices of the nodes whose pattern is *closed*: the unique longest
    /// pattern in the forest among those covering exactly the same records
    /// (§3 of the paper; Pasquier et al.).
    ///
    /// Nodes are grouped by `(support, tid_hash)`, and a node is closed iff
    /// its pattern equals the union `U` of its group's patterns.  When some
    /// member equals `U` the answer is exact without comparing tid-sets:
    /// every member is a subset of `U` with `U`'s support, so by
    /// anti-monotonicity each covers `U`'s records.  When no member equals
    /// `U`, either the hash merged different record sets or a length cap cut
    /// the closure off; the group is then split by materialised tid-set and
    /// the union rule applied to each part.
    pub fn closed_indices(&self) -> Vec<usize> {
        use std::collections::HashMap;
        let mut groups: HashMap<(usize, u64), Vec<usize>> = HashMap::new();
        for (i, node) in self.nodes.iter().enumerate() {
            groups
                .entry((node.support, node.tid_hash))
                .or_default()
                .push(i);
        }
        let mut closed = Vec::new();
        let mut unresolved = Vec::new();
        for indices in groups.values() {
            match self.union_member(indices) {
                Some(i) => closed.push(i),
                None => unresolved.push(indices),
            }
        }
        if !unresolved.is_empty() {
            let targets: Vec<usize> = unresolved.iter().flat_map(|g| g.iter().copied()).collect();
            let tids = self.materialize(&targets);
            for group in unresolved {
                let mut parts: Vec<(&TidSet, Vec<usize>)> = Vec::new();
                for &i in group {
                    let own = tids[i].as_ref().expect("every target is materialised");
                    match parts.iter_mut().find(|(t, _)| *t == own) {
                        Some((_, members)) => members.push(i),
                        None => parts.push((own, vec![i])),
                    }
                }
                closed.extend(
                    parts
                        .iter()
                        .filter_map(|(_, members)| self.union_member(members)),
                );
            }
        }
        closed.sort_unstable();
        closed
    }

    /// The member of `indices` whose pattern is the union of all of theirs.
    fn union_member(&self, indices: &[usize]) -> Option<usize> {
        let union = indices
            .iter()
            .fold(Pattern::empty(), |u, &i| u.union(&self.nodes[i].pattern));
        indices
            .iter()
            .copied()
            .find(|&i| self.nodes[i].pattern == union)
    }

    /// Flags every node that has one of `targets` strictly below it: the
    /// nodes a depth-first pass must materialise to reach the targets.
    fn ancestors_of(&self, targets: &[usize]) -> Vec<bool> {
        let mut above = vec![false; self.nodes.len()];
        for &i in targets {
            if let Some(p) = self.nodes[i].parent {
                above[p] = true;
            }
        }
        // Parents precede children, so one backward sweep propagates.
        for (i, node) in self.nodes.iter().enumerate().rev() {
            if let (true, Some(p)) = (above[i], node.parent) {
                above[p] = true;
            }
        }
        above
    }

    /// The tid-sets of `targets` (indexed by node; `None` elsewhere), in one
    /// depth-first pass that materialises only the targets and their
    /// ancestors.
    fn materialize(&self, targets: &[usize]) -> Vec<Option<TidSet>> {
        let above = self.ancestors_of(targets);
        let mut wanted = vec![false; self.nodes.len()];
        for &i in targets {
            wanted[i] = true;
        }
        let mut out = vec![None; self.nodes.len()];
        let full = TidSet::full(self.n_records);
        let mut path: Vec<(usize, TidSet)> = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if !wanted[i] && !above[i] {
                continue;
            }
            while path.last().is_some_and(|&(p, _)| Some(p) != node.parent) {
                path.pop();
            }
            let tids = node
                .cover
                .materialize(path.last().map_or(&full, |(_, t)| t));
            if wanted[i] {
                out[i] = Some(tids.clone());
            }
            if above[i] {
                path.push((i, tids));
            }
        }
        out
    }

    /// Compacts the forest to the nodes in `keep` (ascending forest indices,
    /// typically [`closed_indices`](PatternForest::closed_indices)), in one
    /// depth-first pass that consumes `self` and frees each dropped cover as
    /// it goes.
    ///
    /// Each kept node moves over with its pattern, support and tid hash, and
    /// its parent becomes its nearest kept ancestor (or `None`).  A node whose
    /// parent is kept keeps its cover as mined.  A node whose parent is
    /// dropped is re-parented: it gets [`Cover::choose`] against its new
    /// parent's tid-set, or its full tid-set when `use_diffsets` is off (pass
    /// the miner's setting).  Only re-parented nodes and their ancestors are
    /// materialised.  Every rule support computed on the compacted forest
    /// equals the one computed on the full forest, because an ancestor's
    /// tid-set contains its descendant's.
    pub fn into_closed(self, keep: &[usize], use_diffsets: bool) -> PatternForest {
        assert!(
            keep.windows(2).all(|w| w[0] < w[1])
                && keep.last().is_none_or(|&i| i < self.nodes.len()),
            "keep must hold ascending indices into the forest"
        );
        let new_index = |old: usize| keep.binary_search(&old).ok();
        let reparented: Vec<usize> = keep
            .iter()
            .copied()
            .filter(|&i| self.nodes[i].parent.is_some_and(|p| new_index(p).is_none()))
            .collect();
        let above = self.ancestors_of(&reparented);
        let full = TidSet::full(self.n_records);
        let mut kept = keep.iter().copied().peekable();
        let mut reparented = reparented.into_iter().peekable();
        let mut nodes = Vec::with_capacity(keep.len());
        // The materialised root-to-node path of the nodes above a re-parented
        // one.
        let mut path: Vec<(usize, TidSet)> = Vec::new();
        for (i, node) in self.nodes.into_iter().enumerate() {
            let is_kept = kept.next_if_eq(&i).is_some();
            let is_reparented = reparented.next_if_eq(&i).is_some();
            let mut tids = (is_reparented || above[i]).then(|| {
                while path.last().is_some_and(|&(p, _)| Some(p) != node.parent) {
                    path.pop();
                }
                node.cover
                    .materialize(path.last().map_or(&full, |(_, t)| t))
            });
            if is_kept {
                let (parent, cover) = if is_reparented {
                    let (parent, ancestor_tids) = path
                        .iter()
                        .rev()
                        .find_map(|(old, t)| new_index(*old).map(|n| (Some(n), t)))
                        .unwrap_or((None, &full));
                    let own = if above[i] { tids.clone() } else { tids.take() }
                        .expect("a re-parented node is materialised");
                    let cover = if use_diffsets {
                        Cover::choose(ancestor_tids, own)
                    } else {
                        Cover::Tids(own)
                    };
                    (parent, cover)
                } else {
                    (node.parent.and_then(new_index), node.cover)
                };
                nodes.push(PatternNode {
                    pattern: node.pattern,
                    support: node.support,
                    parent,
                    cover,
                    tid_hash: node.tid_hash,
                });
            }
            if let Some(tids) = tids.filter(|_| above[i]) {
                path.push((i, tids));
            }
        }
        PatternForest::new(nodes, self.n_records)
    }
}

/// Which counting kernel the permutation engine uses per forest node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SupportBackend {
    /// Pick per node by density: bitmap when the stored id list has more
    /// than one id per 64 records, tid-list below that.
    #[default]
    Auto,
    /// Tid-list walking for every node (the paper's §4.2.2 layout; the
    /// baseline axis of the engine ablation).
    TidLists,
    /// Packed bitmaps for every node.
    Bitmaps,
}

/// The per-node kernel selection of [`PatternForest::support_plan`] plus the
/// packed cover bitmaps it chose to build.  Built once per mined forest;
/// immutable and shareable across permutation workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupportPlan {
    /// `Some(bitmap of the stored id list)` for bitmap-kernel nodes.
    bitmaps: Vec<Option<Bitmap>>,
    n_records: usize,
}

impl SupportPlan {
    /// Number of nodes counted with the bitmap kernel.
    pub fn n_bitmap_nodes(&self) -> usize {
        self.bitmaps.iter().filter(|b| b.is_some()).count()
    }

    /// Bytes held by the packed cover bitmaps.
    pub fn bitmap_bytes(&self) -> usize {
        self.bitmaps.iter().flatten().map(Bitmap::size_bytes).sum()
    }

    /// Allocates the per-class lane blocks the batched counting pass uses
    /// (one lane per permutation of a chunk); the permutation engine keeps
    /// one set per worker and re-fills it per chunk.
    pub fn make_class_lane_blocks(&self, n_classes: usize, lanes: usize) -> ClassLaneBlocks {
        ClassLaneBlocks::new(n_classes, lanes, self.n_records)
    }
}

/// Hashes a tid-set with FxHash-style mixing.  Collisions at equal support
/// are astronomically unlikely; [`PatternForest::closed_indices`] detects and
/// resolves them by tid-set comparison, so they never change which patterns
/// are closed.
pub fn hash_tids(tids: &TidSet) -> u64 {
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
    for &t in tids.tids() {
        h ^= t as u64;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
    }
    h ^= tids.len() as u64;
    h.wrapping_mul(0xc4ce_b9fe_1a85_ec53)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-built forest over a 6-record dataset.
    ///
    /// labels: [0, 0, 1, 1, 0, 1]
    /// item a covers {0,1,2,3}   (support 4)
    /// item b covers {2,3,4,5}   (support 4)
    /// {a,b} covers {2,3}        (support 2)
    fn toy_forest() -> (PatternForest, Vec<ClassId>) {
        let labels = vec![0, 0, 1, 1, 0, 1];
        let a_tids = TidSet::from_tids([0, 1, 2, 3]);
        let b_tids = TidSet::from_tids([2, 3, 4, 5]);
        let ab_tids = TidSet::from_tids([2, 3]);
        let full = TidSet::full(6);
        let nodes = vec![
            PatternNode {
                pattern: Pattern::from_items([0]),
                support: 4,
                parent: None,
                cover: Cover::choose(&full, a_tids.clone()),
                tid_hash: hash_tids(&a_tids),
            },
            PatternNode {
                pattern: Pattern::from_items([0, 1]),
                support: 2,
                parent: Some(0),
                cover: Cover::choose(&a_tids, ab_tids.clone()),
                tid_hash: hash_tids(&ab_tids),
            },
            PatternNode {
                pattern: Pattern::from_items([1]),
                support: 4,
                parent: None,
                cover: Cover::choose(&full, b_tids.clone()),
                tid_hash: hash_tids(&b_tids),
            },
        ];
        (PatternForest::new(nodes, 6), labels)
    }

    #[test]
    fn rule_supports_match_direct_counting() {
        let (forest, labels) = toy_forest();
        // class 1 appears in records {2,3,5}
        let rs = forest.rule_supports(&labels, 1);
        assert_eq!(rs, vec![2, 2, 3]);
        let rs0 = forest.rule_supports(&labels, 0);
        assert_eq!(rs0, vec![2, 0, 1]);
    }

    #[test]
    fn batched_block_counting_matches_per_perm_for_every_backend() {
        let (forest, labels) = toy_forest();
        // Three "permutations": the original labels plus two rotations.
        let lanes = 3;
        let n = labels.len();
        let mut flat: Vec<ClassId> = Vec::with_capacity(lanes * n);
        for lane in 0..lanes {
            for t in 0..n {
                flat.push(labels[(t + lane) % n]);
            }
        }
        for backend in [
            SupportBackend::TidLists,
            SupportBackend::Bitmaps,
            SupportBackend::Auto,
        ] {
            let plan = forest.support_plan(backend);
            match backend {
                SupportBackend::TidLists => {
                    assert_eq!(plan.n_bitmap_nodes(), 0);
                    assert_eq!(plan.bitmap_bytes(), 0);
                }
                SupportBackend::Bitmaps => {
                    assert_eq!(plan.n_bitmap_nodes(), forest.len());
                    assert!(plan.bitmap_bytes() > 0);
                }
                SupportBackend::Auto => {}
            }
            let mut blocks = plan.make_class_lane_blocks(2, lanes);
            blocks.fill(&flat);
            let mut block_out = Vec::new();
            for class in 0..2u32 {
                forest.rule_supports_planned_block(&plan, blocks.class(class), &mut block_out);
                assert_eq!(block_out.len(), forest.len() * lanes);
                for lane in 0..lanes {
                    // The plain one-permutation pass over this lane's labels.
                    let expected = forest.rule_supports(&flat[lane * n..(lane + 1) * n], class);
                    for (node, &want) in expected.iter().enumerate() {
                        assert_eq!(
                            block_out[node * lanes + lane] as usize,
                            want,
                            "backend {backend:?} class {class} lane {lane} node {node}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tids_materialisation() {
        let (forest, _) = toy_forest();
        assert_eq!(forest.tids(0).tids(), &[0, 1, 2, 3]);
        assert_eq!(forest.tids(1).tids(), &[2, 3]);
        assert_eq!(forest.tids(2).tids(), &[2, 3, 4, 5]);
    }

    #[test]
    fn diffset_chosen_when_support_is_large() {
        let (forest, _) = toy_forest();
        // item a: support 4 > 6/2 = 3 → diffset; {a,b}: support 2 <= 4/2 → tids
        assert!(forest.nodes()[0].cover.is_diffset());
        assert!(!forest.nodes()[1].cover.is_diffset());
        assert_eq!(forest.n_diffsets(), 2);
        assert!(forest.cover_bytes() > 0);
    }

    #[test]
    fn closed_indices_on_toy_forest() {
        let (forest, _) = toy_forest();
        // All three patterns cover distinct record sets, so all are closed.
        assert_eq!(forest.closed_indices(), vec![0, 1, 2]);
    }

    #[test]
    fn closed_indices_collapse_equal_covers() {
        // Two patterns with identical tid-sets: only the longer is closed.
        let tids = TidSet::from_tids([0, 1, 2]);
        let full = TidSet::full(5);
        let nodes = vec![
            PatternNode {
                pattern: Pattern::from_items([0]),
                support: 3,
                parent: None,
                cover: Cover::choose(&full, tids.clone()),
                tid_hash: hash_tids(&tids),
            },
            PatternNode {
                pattern: Pattern::from_items([0, 1]),
                support: 3,
                parent: Some(0),
                cover: Cover::choose(&tids, tids.clone()),
                tid_hash: hash_tids(&tids),
            },
        ];
        let forest = PatternForest::new(nodes, 5);
        assert_eq!(forest.closed_indices(), vec![1]);
    }

    #[test]
    fn closed_indices_survive_a_forged_hash_collision() {
        // {0} and {0,2} cover {0,1}; {1} covers {2,3}.  All three share one
        // forged hash at equal support, so the group's union {0,1,2} is no
        // member's pattern: the closed {0,2} and {1} must still be found.
        let a = TidSet::from_tids([0, 1]);
        let b = TidSet::from_tids([2, 3]);
        let full = TidSet::full(4);
        let forged = |pattern: Pattern, parent, cover| PatternNode {
            pattern,
            support: 2,
            parent,
            cover,
            tid_hash: 42,
        };
        let nodes = vec![
            forged(
                Pattern::from_items([0]),
                None,
                Cover::choose(&full, a.clone()),
            ),
            forged(
                Pattern::from_items([0, 2]),
                Some(0),
                Cover::choose(&a, a.clone()),
            ),
            forged(
                Pattern::from_items([1]),
                None,
                Cover::choose(&full, b.clone()),
            ),
        ];
        let forest = PatternForest::new(nodes, 4);
        assert_eq!(forest.closed_indices(), vec![1, 2]);
    }

    /// A forest over 24 records where attribute 1 mirrors attribute 0, so
    /// many frequent patterns are not closed.
    fn redundant_forest(use_diffsets: bool) -> (PatternForest, Vec<ClassId>) {
        use crate::eclat::EclatMiner;
        use crate::miner::MinerConfig;
        use sigrule_data::{Dataset, Record, Schema};
        let schema = Schema::synthetic(&[2, 2, 2, 3], 2).unwrap();
        let records: Vec<Record> = (0..24)
            .map(|i| {
                let a = usize::from(i % 3 == 0);
                let items = vec![
                    schema.item_id(0, a).unwrap(),
                    schema.item_id(1, a).unwrap(),
                    schema.item_id(2, usize::from(i % 2 == 0)).unwrap(),
                    schema.item_id(3, i % 5 % 3).unwrap(),
                ];
                Record::new(items, u32::from(i % 4 == 1))
            })
            .collect();
        let d = Dataset::new(schema, records).unwrap();
        let miner = if use_diffsets {
            EclatMiner::default()
        } else {
            EclatMiner::without_diffsets()
        };
        (
            miner.mine_forest(&d, &MinerConfig::new(2)),
            d.class_labels(),
        )
    }

    #[test]
    fn into_closed_keeps_rule_nodes_with_identical_supports() {
        for use_diffsets in [true, false] {
            let (forest, labels) = redundant_forest(use_diffsets);
            let keep = forest.closed_indices();
            assert!(keep.len() < forest.len());
            let before: Vec<Vec<usize>> =
                (0..2).map(|c| forest.rule_supports(&labels, c)).collect();
            let old_tids: Vec<TidSet> = keep.iter().map(|&i| forest.tids(i)).collect();
            let old_nodes: Vec<PatternNode> =
                keep.iter().map(|&i| forest.nodes()[i].clone()).collect();
            let closed = forest.into_closed(&keep, use_diffsets);
            assert_eq!(closed.len(), keep.len());
            assert_eq!(closed.closed_indices(), (0..keep.len()).collect::<Vec<_>>());
            if !use_diffsets {
                assert_eq!(closed.n_diffsets(), 0);
            }
            let full = TidSet::full(closed.n_records());
            let mut reparented = 0;
            for (i, node) in closed.nodes().iter().enumerate() {
                assert_eq!(node.pattern, old_nodes[i].pattern);
                assert_eq!(node.support, old_nodes[i].support);
                assert_eq!(node.tid_hash, old_nodes[i].tid_hash);
                assert_eq!(closed.tids(i), old_tids[i]);
                // Kept or re-taken, every cover is the paper's choice
                // against the node's (new) parent.
                let parent_tids = node.parent.map_or(full.clone(), |p| closed.tids(p));
                let want = if use_diffsets {
                    Cover::choose(&parent_tids, old_tids[i].clone())
                } else {
                    Cover::Tids(old_tids[i].clone())
                };
                assert_eq!(node.cover, want);
                let parent_len = node.parent.map_or(0, |p| closed.nodes()[p].pattern.len());
                if let Some(p) = node.parent {
                    assert!(closed.nodes()[p].pattern.is_subset_of(&node.pattern));
                }
                reparented += usize::from(parent_len + 1 < node.pattern.len());
            }
            assert!(reparented > 0, "some kept node lost its Eclat parent");
            for (class, want) in before.iter().enumerate() {
                let got = closed.rule_supports(&labels, class as ClassId);
                let want: Vec<usize> = keep.iter().map(|&i| want[i]).collect();
                assert_eq!(got, want, "diffsets {use_diffsets} class {class}");
            }
        }
    }

    #[test]
    fn into_closed_with_every_node_kept_is_the_identity() {
        let (forest, _) = toy_forest();
        let keep: Vec<usize> = (0..forest.len()).collect();
        assert_eq!(forest.clone().into_closed(&keep, true), forest);
    }

    #[test]
    #[should_panic(expected = "ascending indices")]
    fn into_closed_rejects_unsorted_keep() {
        let (forest, _) = toy_forest();
        let _ = forest.into_closed(&[2, 0], true);
    }

    #[test]
    #[should_panic(expected = "does not precede")]
    fn forward_parent_reference_panics() {
        let tids = TidSet::from_tids([0]);
        let node = PatternNode {
            pattern: Pattern::from_items([0]),
            support: 1,
            parent: Some(5),
            cover: Cover::Tids(tids.clone()),
            tid_hash: hash_tids(&tids),
        };
        let _ = PatternForest::new(vec![node], 3);
    }

    #[test]
    fn hash_tids_discriminates() {
        let a = TidSet::from_tids([1, 2, 3]);
        let b = TidSet::from_tids([1, 2, 4]);
        let c = TidSet::from_tids([1, 2, 3]);
        assert_eq!(hash_tids(&a), hash_tids(&c));
        assert_ne!(hash_tids(&a), hash_tids(&b));
        assert_ne!(hash_tids(&TidSet::empty()), hash_tids(&a));
    }

    #[test]
    fn empty_forest() {
        let f = PatternForest::new(vec![], 10);
        assert!(f.is_empty());
        assert_eq!(f.len(), 0);
        assert_eq!(f.rule_supports(&[0; 10], 0), Vec::<usize>::new());
        assert_eq!(f.closed_indices(), Vec::<usize>::new());
    }
}
