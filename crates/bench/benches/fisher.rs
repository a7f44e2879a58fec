//! Micro-benchmarks of the statistical kernel behind Figure 1: Fisher exact
//! p-values, with and without the p-value buffer.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sigrule_stats::{
    FisherTest, LogFactorialTable, PValueBuffer, PValueTable, RuleCounts, SharedPValueTable, Tail,
};
use std::sync::Arc;

fn bench_fisher_direct(c: &mut Criterion) {
    let test = FisherTest::new(2000);
    c.bench_function("fisher_exact_direct_n2000_cov400", |b| {
        b.iter(|| {
            let counts = RuleCounts::new(2000, 1000, 400, black_box(260)).unwrap();
            black_box(test.p_value(&counts, Tail::TwoSided))
        })
    });
}

fn bench_pvalue_buffer_build(c: &mut Criterion) {
    let logs = LogFactorialTable::new(2000);
    c.bench_function("pvalue_buffer_build_n2000_cov400", |b| {
        b.iter(|| black_box(PValueBuffer::build(2000, 1000, black_box(400), &logs)))
    });
}

fn bench_pvalue_table_lookup(c: &mut Criterion) {
    let logs = LogFactorialTable::new(2000);
    // A static table holding coverage 400, ranked against a few observed
    // p-values: the lookup path of §4.2.3 a permuted rule takes.
    let mut p_values = PValueTable::new(2000, 1000, 16 << 20);
    p_values.offer(PValueBuffer::build(2000, 1000, 400, &logs));
    let table = SharedPValueTable::build(&Arc::new(p_values), 16 << 20, &[1e-9, 1e-3, 0.5]);
    c.bench_function("pvalue_table_lookup", |b| {
        b.iter(|| black_box(table.get(black_box(400)).unwrap().lookup(black_box(260))))
    });
}

fn bench_log_factorial_table(c: &mut Criterion) {
    c.bench_function("log_factorial_table_n32561", |b| {
        b.iter(|| black_box(LogFactorialTable::new(black_box(32_561))))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_fisher_direct, bench_pvalue_buffer_build, bench_pvalue_table_lookup, bench_log_factorial_table
}
criterion_main!(benches);
