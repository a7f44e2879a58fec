//! Export the paper's D2kA20R5 synthetic dataset (Table 1: 2000 records ×
//! 20 attributes, 5 embedded rules) as CSV on stdout — the workload the
//! `BENCH_*.json` benchmarks run on, materialised as a file so CLI runs
//! (`sigrule correct --input`, `--workers` included) can read it.
//!
//! Run with: `cargo run --release --example export_d2k > d2k_a20_r5.csv`
//!
//! A single optional argument overrides the generator seed (default 7,
//! matching `BENCH_serve.json`).

use sigrule_repro::prelude::*;

fn main() {
    let seed = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(7);
    let (dataset, _rules) = SyntheticGenerator::new(SyntheticParams::d2k_a20_r5())
        .expect("paper parameters are valid")
        .generate(seed);
    print!("{}", dataset_to_csv(&dataset));
}
