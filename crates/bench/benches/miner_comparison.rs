//! Ablation: Apriori vs Eclat on the same synthetic dataset.
//! (The paper only needs *a* frequent pattern miner; this bench documents why
//! the vertical miner is the default.)

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sigrule_mining::{FrequentPatternMiner, MinerConfig, MinerKind};
use sigrule_synth::{SyntheticGenerator, SyntheticParams};

fn bench_miners(c: &mut Criterion) {
    let (dataset, _) = SyntheticGenerator::new(SyntheticParams::d8h_a20_r0())
        .unwrap()
        .generate(13);
    let config = MinerConfig::new(20);
    let mut group = c.benchmark_group("miner_comparison_D8hA20R0");
    group.sample_size(10);
    for kind in MinerKind::all() {
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.name()),
            &kind,
            |b, kind| b.iter(|| black_box(kind.mine(&dataset, &config))),
        );
    }
    // The forest-producing variant used by the correction pipeline.
    group.bench_function("eclat_forest_diffsets", |b| {
        let miner = sigrule_mining::EclatMiner::default();
        b.iter(|| black_box(miner.mine_forest(&dataset, &config)))
    });
    let _ = sigrule_mining::EclatMiner::default().name();
    group.finish();
}

criterion_group!(benches, bench_miners);
criterion_main!(benches);
