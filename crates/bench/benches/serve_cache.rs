//! Cold-vs-warm engine query latency (ISSUE 4): the resident
//! [`Engine`](sigrule::engine::Engine) caches mined rule sets and permutation
//! null distributions, so a warm `correct` query (same mining config and null
//! model, any α/metric) costs a lookup plus the decision pass.  This bench
//! measures the gap the `sigrule serve` process rides on; BENCH_serve.json
//! records the results.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sigrule::engine::{Engine, Query};
use sigrule::{CorrectionApproach, ErrorMetric, RuleMiningConfig};
use sigrule_data::Dataset;
use sigrule_synth::{SyntheticGenerator, SyntheticParams};

const MIN_SUP: usize = 100;
const N_PERMUTATIONS: usize = 200;

/// The paper's D2kA20R5 shape: 2000 records × 20 attributes.
fn dataset() -> Dataset {
    let (dataset, _) = SyntheticGenerator::new(SyntheticParams::d2k_a20_r5())
        .unwrap()
        .generate(7);
    dataset
}

fn perm_query(alpha: f64) -> Query {
    Query::new(RuleMiningConfig::new(MIN_SUP))
        .with_correction(CorrectionApproach::Permutation, ErrorMetric::Fwer)
        .with_permutations(N_PERMUTATIONS)
        .with_seed(7)
        .with_alpha(alpha)
}

/// Cold path: a fresh engine per iteration mines and permutes from scratch
/// (the cost every one-shot `sigrule mine` invocation pays).
fn bench_cold(c: &mut Criterion) {
    let data = dataset();
    let mut group = c.benchmark_group("serve_cache");
    group.sample_size(10);
    group.bench_function("cold_query", |b| {
        b.iter(|| {
            let engine = Engine::new(data.clone());
            black_box(engine.query(&perm_query(0.05)).unwrap())
        })
    });
    group.finish();
}

/// Warm path: one resident engine, pre-warmed; each iteration answers at a
/// different α from the caches (the `sigrule serve` steady state).
fn bench_warm(c: &mut Criterion) {
    let data = dataset();
    let engine = Engine::new(data);
    engine.query(&perm_query(0.05)).unwrap();

    let mut group = c.benchmark_group("serve_cache");
    group.sample_size(20);
    let mut step = 0usize;
    group.bench_function("warm_query_new_alpha", |b| {
        b.iter(|| {
            step += 1;
            let alpha = 0.001 + (step % 500) as f64 * 0.0001;
            black_box(engine.query(&perm_query(alpha)).unwrap())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_cold, bench_warm);
criterion_main!(benches);
