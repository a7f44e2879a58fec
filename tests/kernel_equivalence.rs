//! Property tests for the SIMD support kernels: the scalar baseline, the
//! runtime-dispatched SIMD path and a naive reference must produce
//! **identical** counts for any input — word vectors whose lengths are not a
//! multiple of the 4-word unroll, where the explicit tail handling does the
//! work, and id lists around the positional count's 255-id accumulator
//! blocks with any number of live lanes.  This is the contract that lets
//! `SIGRULE_KERNEL` change only the speed of a run, never a statistic.

use proptest::prelude::*;
use sigrule_repro::data::kernel::{self, KernelKind, LANES};
use sigrule_repro::data::{Bitmap, ClassBitmaps, ClassId, TidSet};
use sigrule_repro::prelude::*;

/// Runs `f` once per kernel kind this machine supports (always scalar;
/// plus the SIMD path when available), forcing the dispatch each time and
/// restoring auto-resolution afterwards.  Returns one result per kind.
fn per_kernel<T>(mut f: impl FnMut() -> T) -> Vec<(KernelKind, T)> {
    let mut kinds = vec![KernelKind::Scalar];
    kinds.extend(kernel::simd_kind());
    let out = kinds
        .into_iter()
        .map(|k| {
            kernel::force(Some(k));
            (k, f())
        })
        .collect();
    kernel::force(None);
    out
}

/// Deterministic word stream (splitmix64) from a proptest-supplied seed.
fn splitmix(mut x: u64) -> impl FnMut() -> u64 {
    move || {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The naive positional count: one bit test per id per lane.
fn naive_positional(ids: &[u32], words: &[u64]) -> [u32; LANES] {
    let mut acc = [0u32; LANES];
    for &t in ids {
        for (lane, sum) in acc.iter_mut().enumerate() {
            *sum += ((words[t as usize] >> lane) & 1) as u32;
        }
    }
    acc
}

/// Strategy: two word vectors of the same random length (0..=67 covers the
/// empty case, sub-unroll lengths, and every tail residue of the 4-word
/// unroll on both scalar and 256-bit paths).
fn word_pair() -> impl Strategy<Value = (Vec<u64>, Vec<u64>)> {
    (0usize..=67).prop_flat_map(|n| {
        (
            prop::collection::vec(0u64..u64::MAX, n),
            prop::collection::vec(0u64..u64::MAX, n),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// and_count / andnot_count / count_ones agree with the naive per-word
    /// reference under every kernel kind, at every tail length.
    #[test]
    fn flat_kernels_match_reference((a, b) in word_pair()) {
        let and_ref: usize = a.iter().zip(&b).map(|(&x, &y)| (x & y).count_ones() as usize).sum();
        let andnot_ref: usize = a.iter().zip(&b).map(|(&x, &y)| (x & !y).count_ones() as usize).sum();
        let ones_ref: usize = a.iter().map(|&x| x.count_ones() as usize).sum();
        for (kind, got) in per_kernel(|| {
            (kernel::and_count(&a, &b), kernel::andnot_count(&a, &b), kernel::count_ones(&a))
        }) {
            prop_assert_eq!(got, (and_ref, andnot_ref, ones_ref), "kernel {:?}", kind);
        }
    }

    /// The positional count equals the naive bit loop under every kernel
    /// kind: 0, 1, 254, 255, 256 and 511 ids (around the 255-id byte
    /// blocks), with every lane live or only the low `live` lanes.
    #[test]
    fn batched_kernels_match_per_lane(
        live in 1usize..=LANES,
        word_seed in 0u64..u64::MAX,
    ) {
        let n = 700;
        let mask = if live == LANES { u64::MAX } else { (1u64 << live) - 1 };
        let mut next = splitmix(word_seed);
        let words: Vec<u64> = (0..n).map(|_| next() & mask).collect();
        for n_ids in [0usize, 1, 254, 255, 256, 511] {
            let ids: Vec<u32> = (0..n_ids).map(|_| (next() % n as u64) as u32).collect();
            let want = naive_positional(&ids, &words);
            for (kind, got) in per_kernel(|| {
                let mut acc = [0u32; LANES];
                kernel::positional_count(&ids, &words, &mut acc);
                acc
            }) {
                prop_assert_eq!(got, want, "kernel {:?} ids {} live {}", kind, n_ids, live);
                prop_assert!(got[live..].iter().all(|&c| c == 0), "dead lanes count 0");
            }
        }
    }

    /// Over sorted id lists of any length and density (what a forest node
    /// stores), the positional count equals per-lane bit tests under every
    /// kind.
    #[test]
    fn gather_kernel_matches_bit_tests(
        n_bits in 1usize..=1200,
        keep_one_in in 1u64..=4,
        tid_seed in 0u64..u64::MAX,
    ) {
        let mut next = splitmix(tid_seed);
        let tids: Vec<u32> = (0..n_bits as u32).filter(|_| next().is_multiple_of(keep_one_in)).collect();
        let words: Vec<u64> = (0..n_bits).map(|_| next()).collect();
        for (kind, acc) in per_kernel(|| {
            let mut acc = [0u32; LANES];
            kernel::positional_count(&tids, &words, &mut acc);
            acc
        }) {
            for (lane, &count) in acc.iter().enumerate() {
                let expect = tids
                    .iter()
                    .filter(|&&t| (words[t as usize] >> lane) & 1 == 1)
                    .count();
                prop_assert_eq!(count as usize, expect, "kernel {:?} lane {}", kind, lane);
            }
        }
    }

    /// One positional count over a cover's ids against a chunk's label
    /// words equals, lane by lane, the single `Bitmap::and_count` of the
    /// cover against that permutation's class bitmap, under every kind.
    #[test]
    fn bitmap_batched_matches_singles(
        n_bits in 1usize..=400,
        lanes in 1usize..=LANES,
        seed in 0u64..u64::MAX,
    ) {
        let n_classes = 3;
        let mut next = splitmix(seed);
        let cover_ids = TidSet::from_tids((0..n_bits as u32).filter(|_| next().is_multiple_of(2)));
        let cover = Bitmap::from_tids(&cover_ids, n_bits);
        let lane_labels: Vec<Vec<ClassId>> = (0..lanes)
            .map(|_| (0..n_bits).map(|_| (next() % n_classes) as ClassId).collect())
            .collect();
        for class in 0..n_classes as ClassId {
            let words: Vec<u64> = (0..n_bits)
                .map(|t| {
                    (0..lanes)
                        .filter(|&lane| lane_labels[lane][t] == class)
                        .fold(0, |w, lane| w | 1 << lane)
                })
                .collect();
            for (kind, batched) in per_kernel(|| {
                let mut acc = [0u32; LANES];
                kernel::positional_count(cover_ids.tids(), &words, &mut acc);
                acc
            }) {
                for (lane, labels) in lane_labels.iter().enumerate() {
                    let single = cover.and_count(
                        ClassBitmaps::from_labels(labels, n_classes as usize).class(class),
                    );
                    prop_assert_eq!(batched[lane] as usize, single, "kernel {:?} lane {}", kind, lane);
                }
            }
        }
    }
}

/// A full engine run forced onto each kernel kind yields bit-identical
/// `PermutationStats` — the end-to-end version of the flat-kernel properties,
/// and the in-process counterpart of CI's `SIGRULE_KERNEL` matrix.
#[test]
fn engine_stats_are_kernel_invariant() {
    let params = SyntheticParams::default()
        .with_records(300)
        .with_attributes(8)
        .with_rules(1)
        .with_coverage(60, 60)
        .with_confidence(0.9, 0.9);
    let (dataset, _) = SyntheticGenerator::new(params)
        .expect("valid parameters")
        .generate(7);
    let mined = mine_rules(&dataset, &RuleMiningConfig::new(40));
    // 200 permutations: three full 64-lane chunks and a ragged chunk of 8.
    let correction = PermutationCorrection::new(200).with_seed(123);
    let runs = per_kernel(|| correction.collect_stats(&mined));
    let (_, reference) = &runs[0];
    for (kind, stats) in &runs {
        assert_eq!(stats, reference, "kernel {kind:?} diverged");
    }
}

/// A forest's lane counts under each forced kernel kind equal the plain
/// one-permutation pass on every live lane of a ragged chunk.
#[test]
fn lane_counts_are_kernel_invariant() {
    let params = SyntheticParams::default()
        .with_records(300)
        .with_attributes(8);
    let (dataset, _) = SyntheticGenerator::new(params)
        .expect("valid parameters")
        .generate(5);
    let mined = mine_rules(&dataset, &RuleMiningConfig::new(30));
    let forest = mined.forest();
    let n = dataset.n_records();
    let lanes = 37;
    let lane_labels: Vec<Vec<ClassId>> = (0..lanes)
        .map(|lane| (0..n).map(|t| mined.labels()[(t * 7 + lane) % n]).collect())
        .collect();
    for class in 0..mined.n_classes() as ClassId {
        let words: Vec<u64> = (0..n)
            .map(|t| {
                (0..lanes)
                    .filter(|&lane| lane_labels[lane][t] == class)
                    .fold(0, |w, lane| w | 1 << lane)
            })
            .collect();
        let total = mined.class_counts()[class as usize];
        for (kind, out) in per_kernel(|| {
            let mut out = Vec::new();
            forest.rule_supports_lanes(&words, total, &mut out);
            out
        }) {
            for (lane, labels) in lane_labels.iter().enumerate() {
                let want = forest.rule_supports(labels, class);
                for (node, &w) in want.iter().enumerate() {
                    assert_eq!(
                        out[node * LANES + lane] as usize,
                        w,
                        "kernel {kind:?} class {class} lane {lane} node {node}"
                    );
                }
            }
        }
    }
}
