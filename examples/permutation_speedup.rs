//! The cost of permutation testing, and what the paper's optimisations —
//! plus this reproduction's parallel bitset engine — buy.
//!
//! Re-scoring every rule on a thousand shuffled copies of the data is the
//! most statistically powerful of the three approaches but also by far the
//! most expensive (§4.2, Figures 4 and 5).  This example times the four
//! optimisation levels of Figure 4 on the paper's `D2kA20R5` synthetic
//! dataset, then the engine axes added on top of the paper: bitmap
//! (popcount) support counting, the rayon fan-out across permutations, and
//! the support-kernel axis (scalar vs. runtime-dispatched SIMD).  Every
//! level runs the same batched engine; the thread count is set with a
//! `rayon_pool`.
//!
//! Run with: `cargo run --release --example permutation_speedup`

use sigrule_repro::data::kernel::{self, KernelKind};
use sigrule_repro::prelude::*;
use std::time::Instant;

fn main() {
    let (dataset, _) = SyntheticGenerator::new(SyntheticParams::d2k_a20_r5())
        .expect("valid parameters")
        .generate(1);
    let min_sup = 100;
    let n_permutations: usize = std::env::var("SIGRULE_PERMUTATIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);

    println!(
        "dataset D2kA20R5: {} records, {} attributes; min_sup={min_sup}, N={n_permutations} \
         permutations; {} core(s) available\n",
        dataset.n_records(),
        dataset.schema().unwrap().n_attributes(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    // ---- Figure 4: the paper's optimisation levels (1 thread, tid-lists) ----
    let one_thread = rayon_pool(1).expect("a one-thread pool builds");
    println!("Figure 4 ablation (one thread, tid-list counting):");
    let levels: [(&str, bool, BufferStrategy); 4] = [
        (
            "mine-once only (no further optimisation)",
            false,
            BufferStrategy::None,
        ),
        (
            "+ dynamic p-value buffer",
            false,
            BufferStrategy::DynamicOnly,
        ),
        ("+ Diffsets", true, BufferStrategy::DynamicOnly),
        (
            "+ 16 MB static buffer",
            true,
            BufferStrategy::StaticAndDynamic,
        ),
    ];
    let mut baseline = None;
    for (label, use_diffsets, buffer) in levels {
        let start = Instant::now();
        let mined = mine_rules(
            &dataset,
            &RuleMiningConfig::new(min_sup).with_diffsets(use_diffsets),
        );
        let correction = PermutationCorrection::new(n_permutations)
            .with_buffer(buffer)
            .with_backend(SupportBackend::TidLists);
        let result = one_thread.install(|| correction.control_fwer(&mined, 0.05));
        let elapsed = start.elapsed().as_secs_f64();
        let baseline_time = *baseline.get_or_insert(elapsed);
        println!(
            "  {label:<45} {elapsed:>8.3}s  (x{:>5.1} speedup)  {} significant rules",
            baseline_time / elapsed,
            result.n_significant()
        );
    }

    // ---- Engine axes: bitmap counting and the rayon fan-out ----
    println!("\nEngine axes (Diffsets + 16 MB static buffer throughout):");
    let mined = mine_rules(&dataset, &RuleMiningConfig::new(min_sup));
    // Thread count 0 keeps the default: every available core.
    let axes: [(&str, usize, SupportBackend); 4] = [
        (
            "1 thread, tid-list counting (paper's layout)",
            1,
            SupportBackend::TidLists,
        ),
        ("1 thread, bitmap counting", 1, SupportBackend::Bitmaps),
        ("1 thread, density auto-selection", 1, SupportBackend::Auto),
        (
            "all cores, density auto-selection (default)",
            0,
            SupportBackend::Auto,
        ),
    ];
    let mut reference = None;
    for (label, threads, backend) in axes {
        let pool = rayon_pool(threads).expect("the pool builds");
        let correction = PermutationCorrection::new(n_permutations).with_backend(backend);
        let start = Instant::now();
        let stats = pool.install(|| correction.collect_stats(&mined));
        let elapsed = start.elapsed().as_secs_f64();
        let reference_time = *reference.get_or_insert(elapsed);
        println!(
            "  {label:<45} {elapsed:>8.3}s  (x{:>5.1} speedup)  {} minima",
            reference_time / elapsed,
            stats.minima.len()
        );
    }

    // ---- Kernel axis: scalar vs SIMD ----
    println!("\nKernel axis (all cores, density auto-selection throughout):");
    let mut kernel_kinds: Vec<(&str, Option<KernelKind>)> =
        vec![("scalar kernels", Some(KernelKind::Scalar))];
    if let Some(simd) = kernel::simd_kind() {
        kernel_kinds.push(("simd kernels", Some(simd)));
    }
    kernel_kinds.push(("auto-dispatched kernels", None));
    let mut kernel_reference = None;
    for (label, kind) in kernel_kinds {
        kernel::force(kind);
        let start = Instant::now();
        let stats = PermutationCorrection::new(n_permutations).collect_stats(&mined);
        let elapsed = start.elapsed().as_secs_f64();
        kernel::force(None);
        let reference_time = *kernel_reference.get_or_insert(elapsed);
        println!(
            "  {label:<45} {elapsed:>8.3}s  (x{:>5.1} speedup)  {} minima",
            reference_time / elapsed,
            stats.minima.len()
        );
    }

    println!(
        "\nThe exact factors depend on the machine, but the ordering matches Figure 4:\n\
         p-value buffering is worth an order of magnitude, Diffsets add more, bitmap\n\
         counting accelerates dense covers, the rayon fan-out scales the whole pass\n\
         with the core count, and SIMD kernels squeeze the remaining popcount loop\n\
         (statistics stay bit-identical throughout)."
    );
}
