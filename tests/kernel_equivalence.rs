//! Property tests for the SIMD support kernels: the scalar baseline, the
//! runtime-dispatched SIMD path and the batched lane-blocked kernels must
//! produce **identical** counts for any word vector — including lengths that
//! are not a multiple of the 4-word unroll, where the explicit tail handling
//! does the work.  This is the contract that lets `SIGRULE_KERNEL` change
//! only the speed of a run, never a statistic.

use proptest::prelude::*;
use sigrule_repro::data::kernel::{self, KernelKind};
use sigrule_repro::data::{Bitmap, ClassLaneBlocks, LaneBlock, TidSet};
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

    /// The batched lane-block kernels equal one flat kernel call per lane,
    /// for lane counts around and off the 4-lane SIMD groups.
    #[test]
    fn batched_kernels_match_per_lane(
        (cover, _) in word_pair(),
        lanes in 1usize..=9,
        lane_seed in 0u64..u64::MAX,
    ) {
        let words_per_lane = cover.len();
        // Deterministic per-lane words derived from the seed (splitmix64).
        let mut x = lane_seed;
        let mut next = || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut block = vec![0u64; words_per_lane * lanes];
        for word in block.iter_mut() {
            *word = next();
        }
        for (kind, (and_many, ones_many)) in per_kernel(|| {
            let mut and_acc = vec![0u32; lanes];
            kernel::and_count_many(&cover, &block, lanes, &mut and_acc);
            let mut ones_acc = vec![0u32; lanes];
            kernel::count_ones_many(&block, lanes, &mut ones_acc);
            (and_acc, ones_acc)
        }) {
            for lane in 0..lanes {
                let lane_words: Vec<u64> =
                    (0..words_per_lane).map(|w| block[w * lanes + lane]).collect();
                let and_ref: usize = cover
                    .iter()
                    .zip(&lane_words)
                    .map(|(&c, &w)| (c & w).count_ones() as usize)
                    .sum();
                let ones_ref: usize =
                    lane_words.iter().map(|&w| w.count_ones() as usize).sum();
                prop_assert_eq!(and_many[lane] as usize, and_ref, "kernel {:?} lane {}", kind, lane);
                prop_assert_eq!(ones_many[lane] as usize, ones_ref, "kernel {:?} lane {}", kind, lane);
            }
        }
    }

    /// The sparse gather kernel equals per-lane bit tests under every kind.
    #[test]
    fn gather_kernel_matches_bit_tests(
        n_bits in 1usize..=300,
        lanes in 1usize..=9,
        tid_seed in 0u64..u64::MAX,
    ) {
        let mut x = tid_seed;
        let mut next = || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let tids: Vec<u32> = {
            let mut t: Vec<u32> = (0..n_bits as u32).filter(|_| next() % 3 == 0).collect();
            t.dedup();
            t
        };
        let words_per_lane = n_bits.div_ceil(64);
        let mut block = vec![0u64; words_per_lane * lanes];
        for word in block.iter_mut() {
            *word = next();
        }
        for (kind, acc) in per_kernel(|| {
            let mut acc = vec![0u32; lanes];
            kernel::gather_count_many(&tids, &block, lanes, &mut acc);
            acc
        }) {
            for lane in 0..lanes {
                let expect = tids
                    .iter()
                    .filter(|&&t| (block[(t as usize / 64) * lanes + lane] >> (t % 64)) & 1 == 1)
                    .count();
                prop_assert_eq!(acc[lane] as usize, expect, "kernel {:?} lane {}", kind, lane);
            }
        }
    }

    /// Bitmap::and_count_many ≡ mapping Bitmap::and_count, under every
    /// kernel kind, for random bitmap widths (incl. partial last words).
    #[test]
    fn bitmap_batched_matches_singles(
        n_bits in 1usize..=400,
        n_others in 0usize..=6,
        seed in 0u64..u64::MAX,
    ) {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^ (z >> 31)
        };
        let random_bitmap = |next: &mut dyn FnMut() -> u64| {
            let tids: Vec<u32> = (0..n_bits as u32)
                .filter(|_| next().is_multiple_of(2))
                .collect();
            Bitmap::from_tids(&TidSet::from_tids(tids), n_bits)
        };
        let cover = random_bitmap(&mut next);
        let others: Vec<Bitmap> = (0..n_others).map(|_| random_bitmap(&mut next)).collect();
        for (kind, batched) in per_kernel(|| cover.and_count_many(&others)) {
            let singles: Vec<usize> = others.iter().map(|o| cover.and_count(o)).collect();
            prop_assert_eq!(&batched, &singles, "kernel {:?}", kind);
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
    let correction = PermutationCorrection::new(24).with_seed(123);
    // Every backend, so both the lane-block popcount and the tid-list gather
    // kernels run under each forced kind.
    let runs = per_kernel(|| {
        [
            SupportBackend::TidLists,
            SupportBackend::Bitmaps,
            SupportBackend::Auto,
        ]
        .map(|backend| {
            correction
                .clone()
                .with_backend(backend)
                .collect_stats(&mined)
        })
    });
    let (_, reference) = &runs[0];
    for (kind, stats) in &runs {
        assert_eq!(stats, reference, "kernel {kind:?} diverged");
    }
}

/// `LaneBlock` / `ClassLaneBlocks` fills agree with per-permutation
/// `ClassBitmaps` under forced kernels (guards the transposed fill itself).
#[test]
fn lane_block_fill_is_kernel_invariant() {
    let n = 130;
    let n_classes = 3;
    let lanes = 5;
    let mut flat = Vec::with_capacity(lanes * n);
    for lane in 0..lanes {
        for t in 0..n {
            flat.push(((t * 11 + lane * 7) % n_classes) as u32);
        }
    }
    let cover = Bitmap::from_tids(&TidSet::from_tids((0..n as u32).step_by(3)), n);
    let runs = per_kernel(|| {
        let mut blocks = ClassLaneBlocks::new(n_classes, lanes, n);
        blocks.fill(&flat);
        let mut acc = vec![0u32; lanes];
        let mut out = Vec::new();
        for c in 0..n_classes as u32 {
            blocks.class(c).and_count_per_lane(&cover, &mut acc);
            out.extend_from_slice(&acc);
        }
        out
    });
    let (_, reference) = &runs[0];
    for (kind, counts) in &runs {
        assert_eq!(counts, reference, "kernel {kind:?} diverged");
    }
    // Also pin the block against a directly packed LaneBlock.
    let mut manual = LaneBlock::zeros(lanes, n);
    for lane in 0..lanes {
        for t in 0..n as u32 {
            if flat[lane * n + t as usize] == 0 {
                manual.set(lane, t);
            }
        }
    }
    let mut acc = vec![0u32; lanes];
    manual.and_count_per_lane(&cover, &mut acc);
    assert_eq!(&reference[..lanes], &acc[..]);
}
