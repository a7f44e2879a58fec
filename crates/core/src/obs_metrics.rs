//! The core crate's metric catalog: every family name, type, and help
//! string in one place, as thin functions over the process-wide
//! [`sigrule_obs::metrics`] registry.
//!
//! Call sites name a family semantically (`queries_total("mushroom", ..)`)
//! instead of repeating string literals, so the Prometheus exposition, the
//! docs catalog (docs/OBSERVABILITY.md), and the CI validator
//! (`scripts/check_metrics.sh`) stay in lockstep with the code.
//!
//! Counters are owned by what they count — an engine's atomics, the
//! kernel's sweep count, the coordinator's shard counts — and each counter
//! entry here *exposes* the owner's atomic as its series
//! ([`metrics::expose_counter`]), so the scrape renders the one store the
//! `stats` surfaces read, and nothing is ever copied into the registry.
//! Histograms and gauges are registry handles.  The permutation hot loop
//! touches no registry at all.

use sigrule_obs::metrics::{self, Counter, Gauge, Histogram};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Engine queries answered, by dataset.
pub fn queries_total(dataset: &str, cell: &Arc<AtomicU64>) {
    metrics::expose_counter(
        "sigrule_queries_total",
        "Engine queries answered.",
        &[("dataset", dataset)],
        cell,
    );
}

/// Queries aborted by their cancellation token, by dataset.
pub fn queries_cancelled_total(dataset: &str, cell: &Arc<AtomicU64>) {
    metrics::expose_counter(
        "sigrule_queries_cancelled_total",
        "Engine queries aborted by a cancellation token (deadline or explicit cancel).",
        &[("dataset", dataset)],
        cell,
    );
}

/// Cache hits by dataset and cache (`mine`, `null` or `holdout`).
pub fn cache_hits_total(dataset: &str, cache: &str, cell: &Arc<AtomicU64>) {
    metrics::expose_counter(
        "sigrule_cache_hits_total",
        "Engine cache hits, by cache (mine = rule sets, null = permutation nulls, holdout = evaluated holdout splits).",
        &[("dataset", dataset), ("cache", cache)],
        cell,
    );
}

/// Cache misses by dataset and cache (`mine`, `null` or `holdout`).
pub fn cache_misses_total(dataset: &str, cache: &str, cell: &Arc<AtomicU64>) {
    metrics::expose_counter(
        "sigrule_cache_misses_total",
        "Engine cache misses (the artifact was computed), by cache.",
        &[("dataset", dataset), ("cache", cache)],
        cell,
    );
}

/// Cache evictions by dataset and entry kind (`rule_set` or `null`).
pub fn cache_evictions_total(dataset: &str, kind: &str, cell: &Arc<AtomicU64>) {
    metrics::expose_counter(
        "sigrule_cache_evictions_total",
        "Engine cache entries evicted by the byte-budget LRU policy, by kind.",
        &[("dataset", dataset), ("kind", kind)],
        cell,
    );
}

/// Per-phase query latency histogram (`phase` is `mine`, `null`, or
/// `correct`), by dataset.
pub fn query_phase_seconds(dataset: &str, phase: &str) -> Histogram {
    metrics::histogram(
        "sigrule_query_phase_seconds",
        "Engine query latency by phase (mine, null, correct), log-bucketed.",
        &[("dataset", dataset), ("phase", phase)],
    )
}

/// Approximate resident cache bytes gauge, by dataset.
pub fn cache_resident_bytes(dataset: &str) -> Gauge {
    metrics::gauge(
        "sigrule_cache_resident_bytes",
        "Approximate bytes held by the engine caches (rule sets + tables + nulls).",
        &[("dataset", dataset)],
    )
}

/// Exposes the process-wide counters — the kernel's batched sweeps and
/// the distributed-null shard counts — as themselves.  Idempotent (the same
/// statics every time); a serving process calls it once at startup so a
/// scrape shows these families before any query runs.
pub fn expose_process_counters() {
    use crate::correction::permutation::shard_counters as shard;
    metrics::expose_counter(
        "sigrule_kernel_sweeps_total",
        "Forest sweeps through the support-counting kernel, by mode.",
        &[("mode", "batched")],
        &sigrule_data::kernel::BATCHED_SWEEPS,
    );
    for (executor, cell) in [
        ("local", &shard::SHARDS_LOCAL),
        ("remote", &shard::SHARDS_REMOTE),
    ] {
        metrics::expose_counter(
            "sigrule_shards_total",
            "Distributed-null permutation ranges completed, by executor.",
            &[("executor", executor)],
            cell,
        );
    }
    metrics::expose_counter(
        "sigrule_shard_retries_total",
        "Permutation ranges re-dispatched after the worker holding them failed.",
        &[],
        &shard::SHARD_RETRIES,
    );
    metrics::expose_counter(
        "sigrule_shard_remote_wait_ms_total",
        "Total milliseconds spent waiting on remote shard responses.",
        &[],
        &shard::REMOTE_MS,
    );
}

/// Injected fault firings, by site (chaos builds only).  The one counter
/// kept as a registry handle: its registry series is its only store.
pub fn faults_injected_total(site: &str) -> Counter {
    metrics::counter(
        "sigrule_faults_injected_total",
        "Injected fault-point firings (faults feature builds only), by site.",
        &[("site", site)],
    )
}
