//! Figure 4 as a Criterion benchmark: the permutation approach at the four
//! optimisation levels (mine-once only, + dynamic buffer, + Diffsets, + 16 MB
//! static buffer) on the D2kA20R5 synthetic dataset — extended with the
//! engine axis this reproduction adds on top of the paper: one thread vs.
//! the rayon fan-out over every core.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sigrule::correction::permutation::{rayon_pool, BufferStrategy, PermutationCorrection};
use sigrule::{mine_rules, MinedRuleSet, RuleMiningConfig};
use sigrule_synth::{SyntheticGenerator, SyntheticParams};

fn d2k_a20_r5_mined(min_sup: usize, diffsets: bool) -> MinedRuleSet {
    let (dataset, _) = SyntheticGenerator::new(SyntheticParams::d2k_a20_r5())
        .unwrap()
        .generate(7);
    mine_rules(
        &dataset,
        &RuleMiningConfig::new(min_sup).with_diffsets(diffsets),
    )
}

/// The paper's Figure 4 ablation: buffering levels on the engine pinned to
/// one thread (the configuration the paper describes).
fn bench_optimization_levels(c: &mut Criterion) {
    let min_sup = 100;
    let n_permutations = 50;
    let levels: Vec<(&str, bool, BufferStrategy)> = vec![
        ("no_optimization", false, BufferStrategy::None),
        ("dynamic_buffer", false, BufferStrategy::DynamicOnly),
        ("diffsets_dynamic", true, BufferStrategy::DynamicOnly),
        (
            "static_diffsets_dynamic",
            true,
            BufferStrategy::StaticAndDynamic,
        ),
    ];
    let one_thread = rayon_pool(1).expect("a one-thread pool builds");
    let mut group = c.benchmark_group("figure4_perm_optimizations_D2kA20R5");
    group.sample_size(10);
    for (label, diffsets, buffer) in levels {
        let mined = d2k_a20_r5_mined(min_sup, diffsets);
        group.bench_with_input(BenchmarkId::from_parameter(label), &mined, |b, mined| {
            b.iter(|| {
                let correction = PermutationCorrection::new(n_permutations)
                    .with_seed(3)
                    .with_buffer(buffer);
                black_box(one_thread.install(|| correction.collect_stats(mined)))
            })
        });
    }
    group.finish();
}

/// The engine axis beyond the paper: thread count at the paper's best
/// buffer configuration (Diffsets + 16 MB static buffer).  `serial` runs a
/// one-thread pool, `parallel` the default pool.
fn bench_engine_axes(c: &mut Criterion) {
    let min_sup = 100;
    let n_permutations = 50;
    let mined = d2k_a20_r5_mined(min_sup, true);
    // Thread count 0 keeps the default pool (every available core).
    let axes: Vec<(&str, usize)> = vec![("serial", 1), ("parallel", 0)];
    let mut group = c.benchmark_group("engine_axes_D2kA20R5");
    group.sample_size(10);
    for (label, threads) in axes {
        let pool = rayon_pool(threads).expect("the pool builds");
        group.bench_with_input(BenchmarkId::from_parameter(label), &mined, |b, mined| {
            b.iter(|| {
                let correction = PermutationCorrection::new(n_permutations).with_seed(3);
                black_box(pool.install(|| correction.collect_stats(mined)))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_optimization_levels, bench_engine_axes);
criterion_main!(benches);
