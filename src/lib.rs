//! Umbrella crate for the reproduction of *Controlling False Positives in
//! Association Rule Mining* (Liu, Zhang, Wong, PVLDB 5(2), 2011).
//!
//! This crate only re-exports the workspace members so the examples and the
//! cross-crate integration tests have a single dependency to pull in.  The
//! functionality lives in:
//!
//! * [`stats`] — Fisher's exact test, multiple-testing corrections, p-value
//!   buffering;
//! * [`data`] — datasets, vertical layouts, discretization, UCI emulators;
//! * [`mining`] — Apriori, Eclat/dEclat, direct closed-pattern mining (LCM);
//! * [`synth`] — the Table 1 synthetic data generator;
//! * [`core`] — class association rules and the three correction approaches;
//! * [`eval`] — the paper's evaluation methodology, every figure/table, and
//!   the `sigrule eval` planted-truth sweep harness;
//! * [`server`] — the multi-dataset engine registry (byte-budget LRU cache
//!   eviction) and the concurrent stdin/TCP/Unix-socket serve transports;
//! * [`obs`] — the unified observability layer: metrics registry with
//!   Prometheus/JSON exposition, structured JSON-lines logging, and
//!   cross-worker trace propagation (docs/OBSERVABILITY.md).

#![deny(missing_docs)]

pub use sigrule as core;
pub use sigrule_data as data;
pub use sigrule_eval as eval;
pub use sigrule_mining as mining;
pub use sigrule_obs as obs;
pub use sigrule_server as server;
pub use sigrule_stats as stats;
pub use sigrule_synth as synth;

/// Frequently used items, for `use sigrule_repro::prelude::*`.
pub mod prelude {
    pub use sigrule::correction::holdout::{holdout_from_parts, random_holdout};
    pub use sigrule::correction::permutation::{
        rayon_pool, BufferStrategy, PermutationCorrection, PermutationStats,
    };
    pub use sigrule::correction::{
        direct, no_correction, CorrectionApproach, CorrectionResult, ErrorMetric, RandomHoldout,
    };
    pub use sigrule::engine::{
        CacheEntry, CacheEntryKind, Engine, EngineStats, LoadedSource, Loader, PipelineError,
        Query, QueryOutcome, QueryTimings,
    };
    pub use sigrule::{
        mine_rules, mine_rules_with_vertical, CancelReason, CancelToken, Cancelled, ClassRule,
        MinedRuleSet, RuleMiningConfig,
    };
    pub use sigrule_data::kernel::{KernelCounters, KernelKind};
    pub use sigrule_data::loader::{
        dataset_to_baskets, dataset_to_csv, detect_format, detect_format_with, load_baskets_file,
        load_baskets_str, load_csv_file, load_csv_str, BasketLoad, BasketOptions, LoadOptions,
    };
    pub use sigrule_data::{
        Dataset, InputFormat, ItemProvenance, ItemSpace, Pattern, Record, Schema,
    };
    pub use sigrule_eval::{
        evaluate, resolve_truth, score_result, Method, MethodRunner, PreparedDataset, SweepGrid,
        SweepReport, SweepRunner,
    };
    pub use sigrule_server::{
        ClientStream, EngineRegistry, ListenAddr, RegistrySnapshot, ServerConfig, ServerState,
    };
    pub use sigrule_stats::{FisherTest, RuleCounts, Tail};
    pub use sigrule_synth::{BasketGenerator, BasketParams, SyntheticGenerator, SyntheticParams};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_is_importable() {
        use crate::prelude::*;
        let params = SyntheticParams::default()
            .with_records(100)
            .with_attributes(5);
        let (d, _) = SyntheticGenerator::new(params).unwrap().generate(1);
        let mined = mine_rules(&d, &RuleMiningConfig::new(20));
        let _ = no_correction(&mined, 0.05);
    }
}
