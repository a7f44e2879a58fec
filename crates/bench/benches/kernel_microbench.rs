//! Support-kernel microbenchmarks: `and_count` across bitmap widths and
//! densities, and the positional count the permutation engine runs per
//! forest node across id-list lengths, pinned to each kernel implementation
//! (scalar baseline vs. the runtime-dispatched SIMD path).
//!
//! Forcing a kernel kind is safe here because every kind computes identical
//! counts (tests/kernel_equivalence.rs) — the force hook exists exactly for
//! this A/B use.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sigrule_data::kernel::{self, KernelKind};
use sigrule_data::{Bitmap, TidSet};

/// Deterministic bitmap with roughly one set bit per `stride` records.
fn striped_bitmap(n_bits: usize, stride: usize, phase: usize) -> Bitmap {
    let tids = TidSet::from_tids((phase as u32..n_bits as u32).step_by(stride));
    Bitmap::from_tids(&tids, n_bits)
}

/// The kernel kinds this machine can run: always scalar, plus the detected
/// SIMD path.
fn kinds() -> Vec<KernelKind> {
    let mut kinds = vec![KernelKind::Scalar];
    kinds.extend(kernel::simd_kind());
    kinds
}

fn bench_and_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("and_count");
    for &n_bits in &[2_000usize, 16_384, 131_072] {
        // Half-dense covers: the regime the bitmap kernel is selected for.
        let a = striped_bitmap(n_bits, 2, 0);
        let b = striped_bitmap(n_bits, 3, 1);
        for kind in kinds() {
            kernel::force(Some(kind));
            group.bench_with_input(
                BenchmarkId::new(kind.name(), n_bits),
                &n_bits,
                |bench, _| bench.iter(|| black_box(a.and_count(black_box(&b)))),
            );
        }
        kernel::force(None);
    }
    group.finish();
}

fn bench_positional_count(c: &mut Criterion) {
    // One class's label words over 10k records, every lane live, counted
    // over stored id lists of growing length.
    let n_records = 10_000usize;
    let words: Vec<u64> = (0..n_records as u64)
        .map(|t| t.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let mut group = c.benchmark_group("positional_count");
    for &n_ids in &[16usize, 256, 4_096] {
        let ids: Vec<u32> = (0..n_records as u32)
            .step_by(n_records / n_ids)
            .take(n_ids)
            .collect();
        let mut acc = [0u32; kernel::LANES];
        for kind in kinds() {
            kernel::force(Some(kind));
            group.bench_with_input(BenchmarkId::new(kind.name(), n_ids), &n_ids, |bench, _| {
                bench.iter(|| {
                    kernel::positional_count(black_box(&ids), &words, &mut acc);
                    black_box(acc[kernel::LANES - 1])
                })
            });
        }
        kernel::force(None);
    }
    group.finish();
}

fn bench_density_sweep(c: &mut Criterion) {
    // Density axis at fixed width: how the kernels scale as covers thin out
    // toward the tid-list break-even (1 id per 64 records).
    let n_bits = 16_384usize;
    let mut group = c.benchmark_group("and_count_density");
    for &stride in &[2usize, 8, 32, 64] {
        let a = striped_bitmap(n_bits, stride, 0);
        let b = striped_bitmap(n_bits, 3, 1);
        for kind in kinds() {
            kernel::force(Some(kind));
            group.bench_with_input(
                BenchmarkId::new(kind.name(), format!("1per{stride}")),
                &stride,
                |bench, _| bench.iter(|| black_box(a.and_count(black_box(&b)))),
            );
        }
        kernel::force(None);
    }
    group.finish();
}

criterion_group!(
    kernels,
    bench_and_count,
    bench_positional_count,
    bench_density_sweep
);
criterion_main!(kernels);
