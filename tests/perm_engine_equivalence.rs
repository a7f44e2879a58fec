//! Property tests for the parallel bit-sliced permutation engine: whatever
//! the worker count (a one-thread pool is the serial engine), counting
//! kernel (scalar vs. SIMD positional count), range partition or buffer
//! strategy, `collect_stats` must produce **identical**
//! `PermutationStats` for the same seed.  This is the contract that makes
//! the engine's parallelism and vectorisation invisible to the statistics of
//! the paper; `tests/null_oracle.rs` checks the statistics themselves.

use proptest::prelude::*;
use sigrule_repro::core::correction::permutation::PERMS_PER_CHUNK;
use sigrule_repro::data::kernel::{self, KernelKind};
use sigrule_repro::prelude::*;
use std::sync::Arc;

/// Strategy: a small synthetic dataset spec (records, attributes, embedded-
/// rule confidence, generator seed) plus a permutation count and shuffle
/// seed — small enough that every case runs the engine a dozen ways.
fn engine_case() -> impl Strategy<Value = (MinedRuleSet, usize, u64)> {
    engine_case_with(4usize..=20)
}

/// [`engine_case`] over runs of at least three chunks, most ending ragged:
/// range partitions split mid-run.
fn multi_chunk_case() -> impl Strategy<Value = (MinedRuleSet, usize, u64)> {
    engine_case_with(2 * PERMS_PER_CHUNK + 1..=4 * PERMS_PER_CHUNK + 7)
}

fn engine_case_with(
    n_perms: std::ops::RangeInclusive<usize>,
) -> impl Strategy<Value = (MinedRuleSet, usize, u64)> {
    (
        150usize..=350,
        6usize..=10,
        0u64..500,
        70u64..95,
        n_perms,
        0u64..10_000,
    )
        .prop_map(
            |(records, attrs, data_seed, conf_pct, n_perms, shuffle_seed)| {
                let params = SyntheticParams::default()
                    .with_records(records)
                    .with_attributes(attrs)
                    .with_rules(1)
                    .with_coverage(records / 5, records / 5)
                    .with_confidence(conf_pct as f64 / 100.0, conf_pct as f64 / 100.0);
                let (dataset, _) = SyntheticGenerator::new(params)
                    .expect("valid parameters")
                    .generate(data_seed);
                let mined = mine_rules(&dataset, &RuleMiningConfig::new(records / 8));
                (mined, n_perms, shuffle_seed)
            },
        )
}

fn engine(n_perms: usize, seed: u64) -> PermutationCorrection {
    PermutationCorrection::new(n_perms).with_seed(seed)
}

/// Runs `correction` on a one-thread pool: every chunk inline on the caller.
fn serial(correction: &PermutationCorrection, mined: &MinedRuleSet) -> PermutationStats {
    rayon_pool(1)
        .expect("pool builds")
        .install(|| correction.collect_stats(mined))
}

/// A random chunk-aligned partition of `0..n_perms`, returned in a shuffled
/// merge order.  Driven by a tiny xorshift so the partition is a pure
/// function of the proptest-supplied seed (which must be nonzero).
fn random_partition(n_perms: usize, mut state: u64) -> Vec<(usize, usize)> {
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut ranges = Vec::new();
    let mut start = 0usize;
    while start < n_perms {
        let step = ((next() % 3) as usize + 1) * PERMS_PER_CHUNK;
        let end = (start + step).min(n_perms);
        ranges.push((start, end));
        start = end;
    }
    for i in (1..ranges.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        ranges.swap(i, j);
    }
    ranges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A one-thread pool and the rayon fan-out agree bit for bit at every
    /// worker count, including more workers than chunks.
    #[test]
    fn serial_vs_parallel_any_thread_count((mined, n_perms, seed) in engine_case()) {
        let reference = serial(&engine(n_perms, seed), &mined);
        for threads in [2usize, 4, 16] {
            let pool = rayon_pool(threads).expect("pool builds");
            let parallel = pool.install(|| engine(n_perms, seed).collect_stats(&mined));
            prop_assert_eq!(&reference, &parallel, "threads={}", threads);
        }
    }

    /// The scalar and SIMD positional-count kernels count identical sets,
    /// so the statistics match exactly — on one thread and on the default
    /// pool.
    #[test]
    fn backends_agree_bitwise((mined, n_perms, seed) in engine_case()) {
        let correction = engine(n_perms, seed);
        kernel::force(Some(KernelKind::Scalar));
        let reference = serial(&correction, &mined);
        let mut kinds = vec![KernelKind::Scalar];
        kinds.extend(kernel::simd_kind());
        for kind in kinds {
            kernel::force(Some(kind));
            prop_assert_eq!(&reference, &serial(&correction, &mined), "kernel={:?}", kind);
            prop_assert_eq!(&reference, &correction.collect_stats(&mined), "kernel={:?}", kind);
        }
        kernel::force(None);
    }

    /// Buffer strategies change only *how* p-values are obtained, never their
    /// values: pooled counts match exactly and minima to float tolerance, on
    /// one thread and on the default pool.
    #[test]
    fn buffer_strategies_agree((mined, n_perms, seed) in engine_case()) {
        let reference = serial(&engine(n_perms, seed).with_buffer(BufferStrategy::None), &mined);
        for buffer in [BufferStrategy::DynamicOnly, BufferStrategy::StaticAndDynamic] {
            let correction = engine(n_perms, seed).with_buffer(buffer);
            for stats in [serial(&correction, &mined), correction.collect_stats(&mined)] {
                prop_assert_eq!(&reference.pool_counts_leq, &stats.pool_counts_leq);
                prop_assert_eq!(reference.minima.len(), stats.minima.len());
                for (a, b) in reference.minima.iter().zip(stats.minima.iter()) {
                    prop_assert!((a - b).abs() < 1e-9, "minima diverge: {} vs {}", a, b);
                }
            }
        }
    }

    /// Any chunk-aligned partition of 0..N, with the partial statistics
    /// merged in any order, is bit-identical to one single-threaded
    /// `collect_stats` pass (and, via the CI kernel matrix, under both
    /// SIGRULE_KERNEL settings).  This is the contract the distributed
    /// null-collection coordinator rests on: scattering ranges across
    /// processes can never change a statistic.
    #[test]
    fn chunk_aligned_partitions_merge_bit_identically(
        ((mined, n_perms, seed), part_seed) in (multi_chunk_case(), 1u64..u64::MAX)
    ) {
        use sigrule_repro::core::correction::permutation::PartialPermutationStats;

        let ranges = random_partition(n_perms, part_seed | 1);
        let cancel = CancelToken::none();
        let correction = engine(n_perms, seed);
        let reference = serial(&correction, &mined);
        // Range runs use the default pool, so the partition equivalence also
        // crosses the one-thread/many-thread boundary.
        let partials: Vec<PartialPermutationStats> = ranges
            .iter()
            .map(|&(start, end)| {
                correction
                    .collect_stats_range(&mined, None, &cancel, start, end)
                    .expect("token never fires")
            })
            .collect();
        let merged = PermutationStats::merge(&partials).expect("partition tiles 0..N");
        prop_assert_eq!(&reference, &merged, "ranges={:?}", &ranges);
    }

    /// Permutation i depends on (seed, i) alone: prefixes of the permutation
    /// stream are stable, and different seeds genuinely differ.
    #[test]
    fn permutation_stream_is_indexed_by_seed((mined, n_perms, seed) in engine_case()) {
        let full = engine(n_perms, seed).collect_stats(&mined);
        let prefix_len = (n_perms / 2).max(1);
        let prefix = engine(prefix_len, seed).collect_stats(&mined);
        prop_assert_eq!(prefix.minima.as_slice(), &full.minima[..prefix_len]);
        let other = engine(n_perms, seed ^ 0xdead_beef).collect_stats(&mined);
        prop_assert_eq!(other.minima.len(), full.minima.len());
    }
}

/// A word a corrupted or hostile shard might carry: small counts, the
/// extremes, values whose byte length wraps a `usize`, or noise.
fn wire_word() -> impl Strategy<Value = u64> {
    (0usize..6, 0u64..u64::MAX).prop_map(|(kind, noise)| match kind {
        0 => noise % 64,
        1 => u64::MAX,
        2 => u64::MAX / 8,
        3 => u64::MAX - noise % 64,
        4 => 1 << 61,
        _ => noise,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Decoding a shard — the bytes a remote worker sends back — never
    /// panics, whatever the bytes; whatever it accepts re-encodes to exactly
    /// those bytes.
    #[test]
    fn shard_decoding_never_panics_on_arbitrary_bytes(
        noise in prop::collection::vec(0u8..=255, 0..160),
        header in prop::collection::vec(wire_word(), 4),
    ) {
        use sigrule_repro::core::correction::permutation::PartialPermutationStats;

        let mut framed: Vec<u8> = header.iter().flat_map(|w| w.to_le_bytes()).collect();
        framed.extend_from_slice(&noise[..noise.len() / 8 * 8]);
        for bytes in [&noise, &framed] {
            if let Ok(decoded) = PartialPermutationStats::from_bytes(bytes) {
                prop_assert_eq!(&decoded.to_bytes(), bytes);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A valid shard round-trips bit for bit, and overwriting any one of its
    /// words — half the cases hit the four header words — never panics the
    /// decoder.
    #[test]
    fn shard_encoding_round_trips_and_survives_word_mutations(
        ((mined, n_perms, seed), at, word) in (engine_case(), 0usize..1024, wire_word())
    ) {
        use sigrule_repro::core::correction::permutation::PartialPermutationStats;

        let partial = engine(n_perms, seed)
            .collect_stats_range(&mined, None, &CancelToken::none(), 0, n_perms)
            .expect("token never fires");
        let bytes = partial.to_bytes();
        prop_assert_eq!(&PartialPermutationStats::from_bytes(&bytes).unwrap(), &partial);

        let n_words = bytes.len() / 8;
        let i = if at % 2 == 0 { (at / 2) % 4 } else { (at / 2) % n_words };
        let mut mutated = bytes.clone();
        mutated[i * 8..i * 8 + 8].copy_from_slice(&word.to_le_bytes());
        if let Ok(decoded) = PartialPermutationStats::from_bytes(&mutated) {
            prop_assert_eq!(decoded.to_bytes(), mutated);
        }
    }
}

/// The shared static table holds exactly the coverages the rules use, so
/// parallel workers never mutate shared cache state, and its p-values are
/// the mined rule set's own buffers: the null only adds ranks.  Its budget
/// counts the bytes it stores (p-values plus ranks) for those coverages
/// only: every coverage is held whenever their total fits, and one byte
/// less drops exactly the largest coverage to the dynamic buffer.
#[test]
fn shared_static_table_covers_all_rule_coverages() {
    let params = SyntheticParams::default()
        .with_records(400)
        .with_attributes(10)
        .with_rules(1)
        .with_coverage(80, 80)
        .with_confidence(0.9, 0.9);
    let (dataset, _) = SyntheticGenerator::new(params).unwrap().generate(11);
    for min_conf in [0.0, 0.6] {
        let mined = mine_rules(&dataset, &RuleMiningConfig::new(40).with_min_conf(min_conf));
        assert!(!mined.rules().is_empty());
        let mut sorted_observed = mined.p_values();
        sorted_observed.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let build = |budget: usize| {
            PermutationCorrection::default()
                .with_static_buffer_bytes(budget)
                .build_shared_tables(&mined)
        };
        let tables = build(16 * 1024 * 1024);
        let mut classes: Vec<_> = mined.rules().iter().map(|r| r.class).collect();
        classes.sort_unstable();
        classes.dedup();
        assert_eq!(tables.len(), classes.len());
        for (slot, &class) in classes.iter().enumerate() {
            let mut coverages: Vec<usize> = mined
                .rules()
                .iter()
                .filter(|r| r.class == class)
                .map(|r| r.coverage)
                .collect();
            coverages.sort_unstable();
            coverages.dedup();
            let table = tables.slot(slot);
            assert_eq!(table.n_c(), mined.class_counts()[class as usize]);
            assert_eq!(table.n_buffers(), coverages.len());
            assert_eq!(table.max_static_coverage(), *coverages.last().unwrap());
            // The p-value entries are the mined set's allocation.
            assert!(Arc::ptr_eq(table.p_values(), &mined.p_value_tables()[slot]));
            let stored: usize = coverages
                .iter()
                .map(|&cov| {
                    let entry = table.get(cov).expect("every rule coverage is held");
                    assert_eq!(entry.ranks().len(), entry.buffer().len());
                    for k in entry.buffer().lower()..=entry.buffer().upper() {
                        let p = entry.buffer().p_value(k);
                        let rank = sorted_observed.partition_point(|&x| x < p);
                        assert_eq!(entry.lookup(k), (p, rank), "cov={cov} k={k}");
                    }
                    entry.size_bytes()
                })
                .sum();
            assert!(stored <= 16 * 1024 * 1024);

            // A budget of exactly the stored bytes still holds every coverage.
            let exact = build(stored);
            assert_eq!(exact.slot(slot).n_buffers(), coverages.len());
            for &cov in &coverages {
                assert!(
                    exact.slot(slot).get(cov).is_some(),
                    "coverage {cov} not held"
                );
            }
            // One byte less drops the largest coverage, and only it.
            let short = build(stored - 1);
            let (largest, rest) = coverages.split_last().unwrap();
            assert!(short.slot(slot).get(*largest).is_none());
            for &cov in rest {
                assert!(
                    short.slot(slot).get(cov).is_some(),
                    "coverage {cov} not held"
                );
            }
            assert!(Arc::ptr_eq(short.slot(slot).p_values(), table.p_values()));
        }
    }
}
