//! Figures 4 and 5: running time of the permutation optimisations and of the
//! three correction approaches.
//!
//! These are wall-clock experiments; the Criterion benchmarks in the
//! `sigrule-bench` crate measure the same configurations with statistical
//! rigour, while the functions here produce quick single-shot tables for the
//! `repro_fig04` / `repro_fig05` binaries.

use crate::experiments::ExperimentContext;
use crate::report::{fmt_float, Table};
use sigrule::correction::holdout::holdout_from_parts;
use sigrule::correction::permutation::{rayon_pool, BufferStrategy, PermutationCorrection};
use sigrule::correction::{direct, ErrorMetric};
use sigrule::{mine_rules, RuleMiningConfig};
use sigrule_data::uci::UciDataset;
use sigrule_data::Dataset;
use sigrule_synth::{SyntheticGenerator, SyntheticParams};
use std::time::Instant;

/// The six datasets of the running-time experiments: the four (emulated) UCI
/// datasets plus the two synthetic ones (`D8hA20R0`, `D2kA20R5`), together
/// with the minimum-support sweep the paper uses for each.
pub fn timing_datasets(seed: u64) -> Vec<(String, Dataset, Vec<usize>)> {
    let mut out = Vec::new();
    for ds in UciDataset::all() {
        out.push((
            ds.name().to_string(),
            ds.generate(),
            ds.paper_min_sup_sweep(),
        ));
    }
    let d8h = SyntheticGenerator::new(SyntheticParams::d8h_a20_r0())
        .expect("valid parameters")
        .generate(seed)
        .0;
    out.push(("D8hA20R0".to_string(), d8h, vec![5, 10, 15, 20, 25, 30, 35]));
    let d2k = SyntheticGenerator::new(SyntheticParams::d2k_a20_r5())
        .expect("valid parameters")
        .generate(seed + 1)
        .0;
    out.push(("D2kA20R5".to_string(), d2k, vec![40, 60, 80, 100, 120, 140]));
    out
}

/// The four optimisation levels of Figure 4, from slowest to fastest.
pub fn optimization_levels() -> Vec<(&'static str, bool, BufferStrategy)> {
    vec![
        ("no optimization", false, BufferStrategy::None),
        ("dynamic buf", false, BufferStrategy::DynamicOnly),
        ("Diffsets+dynamic buf", true, BufferStrategy::DynamicOnly),
        (
            "16M static buf+Diffsets+dynamic buf",
            true,
            BufferStrategy::StaticAndDynamic,
        ),
    ]
}

/// Figure 4 for one dataset: permutation-approach running time (seconds) per
/// optimisation level per minimum support.  The reported time includes
/// frequent pattern mining, exactly as in the paper.
///
/// The engine runs on one thread (a one-thread [`rayon_pool`]), so the
/// table isolates the §4.2 optimisations; the parallel axis this
/// reproduction adds on top is measured separately
/// (`examples/permutation_speedup.rs` and the `engine_axes` Criterion
/// bench).
pub fn figure4_for_dataset(
    ctx: &ExperimentContext,
    name: &str,
    dataset: &Dataset,
    min_sups: &[usize],
) -> Table {
    let levels = optimization_levels();
    let mut columns = vec!["min_sup".to_string()];
    columns.extend(levels.iter().map(|(label, _, _)| label.to_string()));
    let mut table = Table {
        title: format!(
            "Figure 4 ({name}): permutation running time in seconds, N={} permutations",
            ctx.n_permutations
        ),
        columns,
        rows: Vec::new(),
    };
    let one_thread = rayon_pool(1).expect("a one-thread pool builds");
    for &min_sup in min_sups {
        let mut row = vec![min_sup.to_string()];
        for (_, use_diffsets, buffer) in &levels {
            let start = Instant::now();
            let mined = mine_rules(
                dataset,
                &RuleMiningConfig::new(min_sup).with_diffsets(*use_diffsets),
            );
            let correction = PermutationCorrection::new(ctx.n_permutations)
                .with_seed(ctx.seed)
                .with_buffer(*buffer);
            let _ = one_thread.install(|| correction.control_fwer(&mined, ctx.alpha));
            row.push(fmt_float(start.elapsed().as_secs_f64()));
        }
        table.rows.push(row);
    }
    table
}

/// Figure 5 for one dataset: running time (seconds) of the three correction
/// approaches (permutation with all of the paper's optimisations, holdout,
/// direct adjustment) per minimum support.
///
/// Like [`figure4_for_dataset`], the permutation column runs the engine on
/// one thread: holdout and direct adjustment are serial
/// single-pass methods, so letting the permutation column fan out over the
/// machine's cores would distort the three-way comparison the figure makes.
pub fn figure5_for_dataset(
    ctx: &ExperimentContext,
    name: &str,
    dataset: &Dataset,
    min_sups: &[usize],
) -> Table {
    let mut table = Table::new(
        format!(
            "Figure 5 ({name}): running time in seconds, N={} permutations",
            ctx.n_permutations
        ),
        vec!["min_sup", "permutation", "holdout", "direct adjustment"],
    );
    let one_thread = rayon_pool(1).expect("a one-thread pool builds");
    let half = dataset.n_records() / 2;
    let (exploratory, evaluation) = dataset.split_at(half);
    for &min_sup in min_sups {
        // Permutation (with every optimisation of the paper).
        let start = Instant::now();
        let mined = mine_rules(dataset, &RuleMiningConfig::new(min_sup));
        let correction = PermutationCorrection::new(ctx.n_permutations).with_seed(ctx.seed);
        let _ = one_thread.install(|| correction.control_fwer(&mined, ctx.alpha));
        let t_perm = start.elapsed().as_secs_f64();

        // Holdout.
        let start = Instant::now();
        let _ = holdout_from_parts(
            &exploratory,
            &evaluation,
            &RuleMiningConfig::new((min_sup / 2).max(1)),
            ErrorMetric::Fwer,
            ctx.alpha,
            "HD",
        );
        let t_holdout = start.elapsed().as_secs_f64();

        // Direct adjustment.
        let start = Instant::now();
        let mined = mine_rules(dataset, &RuleMiningConfig::new(min_sup));
        let _ = direct::bonferroni(&mined, ctx.alpha);
        let t_direct = start.elapsed().as_secs_f64();

        table.push_row(vec![
            min_sup.to_string(),
            fmt_float(t_perm),
            fmt_float(t_holdout),
            fmt_float(t_direct),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_roster_matches_the_paper() {
        let datasets = timing_datasets(1);
        assert_eq!(datasets.len(), 6);
        let names: Vec<&str> = datasets.iter().map(|(n, _, _)| n.as_str()).collect();
        assert!(names.contains(&"adult"));
        assert!(names.contains(&"D8hA20R0"));
        assert!(names.contains(&"D2kA20R5"));
        for (_, _, sweep) in &datasets {
            assert!(!sweep.is_empty());
        }
    }

    #[test]
    fn optimisations_do_not_slow_the_permutation_approach_down() {
        // A tiny single-shot run on the small synthetic dataset: the fully
        // optimised configuration should not be slower than the unoptimised
        // one (it is usually much faster; on tiny inputs we only assert the
        // direction loosely to keep the test robust).
        let ctx = ExperimentContext::quick(1, 60);
        let d = SyntheticGenerator::new(SyntheticParams::d8h_a20_r0())
            .unwrap()
            .generate(3)
            .0;
        let t = figure4_for_dataset(&ctx, "D8hA20R0", &d, &[20]);
        assert_eq!(t.n_rows(), 1);
        let row = &t.rows[0];
        let unoptimised: f64 = row[1].parse().unwrap();
        let optimised: f64 = row[4].parse().unwrap();
        assert!(
            optimised <= unoptimised * 1.5,
            "optimised {optimised}s should not be much slower than unoptimised {unoptimised}s"
        );
    }

    #[test]
    fn figure5_orders_direct_fastest() {
        let ctx = ExperimentContext::quick(1, 60);
        let d = SyntheticGenerator::new(SyntheticParams::d8h_a20_r0())
            .unwrap()
            .generate(4)
            .0;
        let t = figure5_for_dataset(&ctx, "D8hA20R0", &d, &[20]);
        let row = &t.rows[0];
        let perm: f64 = row[1].parse().unwrap();
        let direct: f64 = row[3].parse().unwrap();
        assert!(
            direct <= perm,
            "direct adjustment ({direct}s) must not cost more than permutation ({perm}s)"
        );
    }
}
