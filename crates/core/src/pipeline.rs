//! One-shot runs: load → discretize → mine → correct in a single pass.
//!
//! There is no pipeline type: a one-shot run is
//! [`Loader`](crate::engine::Loader) → [`Engine`](crate::engine::Engine) →
//! [`Query`](crate::engine::Query), the same code a resident `sigrule serve`
//! engine runs, so a one-shot answer and a served answer with the same
//! parameters are bit-identical by construction.  This module holds the worked example and
//! the tests of that path from text or file input to a corrected result.
//!
//! ```
//! use sigrule::engine::{Loader, Query};
//! use sigrule::{CorrectionApproach, ErrorMetric, RuleMiningConfig};
//!
//! let csv = "\
//! weather,ground,grass
//! rain,wet,green
//! rain,wet,green
//! rain,wet,green
//! sun,dry,brown
//! sun,dry,brown
//! sun,dry,green
//! ";
//! let engine = Loader::default()
//!     .load_csv_str(csv)
//!     .expect("well-formed CSV")
//!     .into_engine();
//! let run = engine
//!     .query(
//!         &Query::new(RuleMiningConfig::new(2))
//!             .with_correction(CorrectionApproach::None, ErrorMetric::Fwer),
//!     )
//!     .unwrap();
//! assert_eq!(engine.dataset().n_records(), 6);
//! assert!(run.mined.rules().len() > 0);
//! assert_eq!(run.result.significant.len(), run.result.rules.len());
//! ```

#[cfg(test)]
mod tests {
    use crate::config::RuleMiningConfig;
    use crate::correction::{CorrectionApproach, ErrorMetric};
    use crate::engine::{Engine, Loader, PipelineError, Query, QueryOutcome};
    use sigrule_data::loader::dataset_to_csv;
    use sigrule_data::{DataError, Dataset, InputFormat};
    use sigrule_synth::{SyntheticGenerator, SyntheticParams};

    fn synth_csv(seed: u64) -> (Dataset, String) {
        let params = SyntheticParams::default()
            .with_records(300)
            .with_attributes(8)
            .with_rules(1)
            .with_coverage(80, 80)
            .with_confidence(0.9, 0.9);
        let (d, _) = SyntheticGenerator::new(params).unwrap().generate(seed);
        let csv = dataset_to_csv(&d);
        (d, csv)
    }

    #[test]
    fn csv_run_matches_direct_library_use() {
        let (dataset, csv) = synth_csv(3);
        let query = Query::new(RuleMiningConfig::new(30));
        let engine = Loader::default().load_csv_str(&csv).unwrap().into_engine();
        assert_eq!(engine.dataset().n_records(), dataset.n_records());
        assert_eq!(engine.dataset().n_columns(), Some(8));
        let from_csv = engine.query(&query).unwrap();
        let from_data = Engine::new(dataset).query(&query).unwrap();
        assert_eq!(from_csv.mined.rules().len(), from_data.mined.rules().len());
        assert_eq!(
            from_csv.result.n_significant(),
            from_data.result.n_significant()
        );
    }

    #[test]
    fn basket_run_matches_direct_library_use() {
        use sigrule_synth::{BasketGenerator, BasketParams};
        let params = BasketParams::default()
            .with_transactions(300)
            .with_items(30)
            .with_rules(1)
            .with_coverage(80, 80)
            .with_confidence(0.9, 0.9);
        let (dataset, _) = BasketGenerator::new(params).unwrap().generate(7);
        let text = sigrule_data::loader::dataset_to_baskets(&dataset);
        let query = Query::new(RuleMiningConfig::new(30))
            .with_correction(CorrectionApproach::Permutation, ErrorMetric::Fwer)
            .with_permutations(50);
        let loaded = Loader::default().load_baskets_str(&text).unwrap();
        assert_eq!(loaded.format, InputFormat::Basket);
        assert_eq!(loaded.dataset.n_records(), 300);
        assert_eq!(loaded.dataset.n_columns(), None);
        assert!(loaded.warnings.is_empty());
        let from_text = loaded.into_engine().query(&query).unwrap();
        let from_data = Engine::new(dataset).query(&query).unwrap();
        // The text round-trip renumbers item ids (tokens intern in first-seen
        // order), which permutes both the rule order and the item order
        // within a pattern; canonicalised by name, the rule set and its
        // per-rule decisions must still match exactly.
        let render = |run: &QueryOutcome| -> Vec<(Vec<String>, String, usize, usize, f64, bool)> {
            let space = run.mined.item_space();
            let mut rows: Vec<_> = run
                .result
                .rules
                .iter()
                .zip(run.result.significant.iter())
                .map(|(r, &s)| {
                    let mut names: Vec<String> = r
                        .pattern
                        .items()
                        .iter()
                        .map(|&i| space.describe_item(i))
                        .collect();
                    names.sort();
                    let class = space.class_name(r.class).unwrap_or("?").to_string();
                    (names, class, r.coverage, r.support, r.p_value, s)
                })
                .collect();
            rows.sort_by(|a, b| a.partial_cmp(b).unwrap());
            rows
        };
        assert_eq!(render(&from_text), render(&from_data));
    }

    #[test]
    fn run_file_auto_detects_baskets() {
        let text = "\
a b label:x
a b label:x
a b label:x
a c label:y
b c label:y
c d label:y
";
        let path = std::env::temp_dir().join(format!(
            "sigrule_pipeline_auto_{}.basket",
            std::process::id()
        ));
        std::fs::write(&path, text).unwrap();
        let loaded = Loader::default().load_file(&path).unwrap();
        assert_eq!(loaded.format, InputFormat::Basket);
        assert_eq!(loaded.dataset.n_records(), 6);
        assert_eq!(loaded.dataset.n_columns(), None);
        let run = loaded
            .into_engine()
            .query(
                &Query::new(RuleMiningConfig::new(2))
                    .with_correction(CorrectionApproach::None, ErrorMetric::Fwer),
            )
            .unwrap();
        assert_eq!(run.result.significant.len(), run.result.rules.len());
        // pinning the wrong format fails loudly instead of misparsing
        let rows = Loader {
            input_format: Some(InputFormat::Rows),
            ..Loader::default()
        };
        assert!(matches!(rows.load_file(&path), Err(PipelineError::Data(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn all_approaches_run() {
        let (dataset, _) = synth_csv(4);
        for (approach, metric) in [
            (CorrectionApproach::None, ErrorMetric::Fwer),
            (CorrectionApproach::Direct, ErrorMetric::Fwer),
            (CorrectionApproach::Direct, ErrorMetric::Fdr),
            (CorrectionApproach::Permutation, ErrorMetric::Fwer),
            (CorrectionApproach::Permutation, ErrorMetric::Fdr),
            (CorrectionApproach::Holdout, ErrorMetric::Fwer),
            (CorrectionApproach::Holdout, ErrorMetric::Fdr),
        ] {
            let query = Query::new(RuleMiningConfig::new(30))
                .with_correction(approach, metric)
                .with_permutations(50);
            let run = Engine::new(dataset.clone()).query(&query).unwrap();
            assert_eq!(run.result.metric, metric);
            assert_eq!(run.result.significant.len(), run.result.rules.len());
        }
    }

    #[test]
    fn pinned_threads_match_default_pool() {
        let (dataset, _) = synth_csv(5);
        let base = Query::new(RuleMiningConfig::new(30))
            .with_correction(CorrectionApproach::Permutation, ErrorMetric::Fwer)
            .with_permutations(60)
            .with_seed(11);
        let default_pool = Engine::new(dataset.clone()).query(&base).unwrap();
        let pinned = Engine::new(dataset)
            .query(&base.clone().with_threads(2))
            .unwrap();
        assert_eq!(default_pool.result, pinned.result);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let engine = Loader::default()
            .load_csv_str("a,cls\n1,x\n2,y\n")
            .unwrap()
            .into_engine();
        assert!(matches!(
            engine.query(&Query::new(RuleMiningConfig::new(0))),
            Err(PipelineError::Config(_))
        ));
        let q = Query::new(RuleMiningConfig::new(10)).with_alpha(0.0);
        assert!(q.validate().is_err());
        let q = Query::new(RuleMiningConfig::new(10)).with_alpha(1.5);
        assert!(q.validate().is_err());
        let q = Query::new(RuleMiningConfig::new(10))
            .with_correction(CorrectionApproach::Permutation, ErrorMetric::Fwer)
            .with_permutations(0);
        assert!(q.validate().is_err());
        let mut q = Query::new(RuleMiningConfig::new(10));
        q.threads = Some(0);
        assert!(q.validate().is_err());
    }

    #[test]
    fn malformed_csv_surfaces_the_data_error() {
        match Loader::default().load_csv_str("a,b,cls\n1,2,x\n3,y\n") {
            Err(PipelineError::Data(DataError::Parse { line, .. })) => assert_eq!(line, 3),
            other => panic!("expected a parse error, got {other:?}"),
        }
        let csv = Loader {
            input_format: Some(InputFormat::Rows),
            ..Loader::default()
        };
        assert!(matches!(
            csv.load_file("/nonexistent/input.csv"),
            Err(PipelineError::Data(DataError::Io { .. }))
        ));
    }
}
