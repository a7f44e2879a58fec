//! The core crate's metric catalog: every family name, type, and help
//! string in one place, as thin constructors over the process-wide
//! [`sigrule_obs::metrics`] registry.
//!
//! Call sites ask for a handle by semantic name (`queries_total("mushroom")`)
//! instead of repeating string literals, so the Prometheus exposition, the
//! docs catalog (docs/OBSERVABILITY.md), and the CI validator
//! (`scripts/check_metrics.sh`) stay in lockstep with the code.  Handles
//! are relaxed-atomic and may be fetched per event everywhere except the
//! permutation hot loop, which touches no registry at all — the kernel and
//! shard counters it feeds are mirrored in at recording boundaries
//! ([`crate::correction::permutation::shard_counters`]) or at scrape time.

use sigrule_obs::metrics::{self, Counter, Gauge, Histogram};

/// Engine queries answered, by dataset.
pub fn queries_total(dataset: &str) -> Counter {
    metrics::counter(
        "sigrule_queries_total",
        "Engine queries answered.",
        &[("dataset", dataset)],
    )
}

/// Queries aborted by their cancellation token, by dataset.
pub fn queries_cancelled_total(dataset: &str) -> Counter {
    metrics::counter(
        "sigrule_queries_cancelled_total",
        "Engine queries aborted by a cancellation token (deadline or explicit cancel).",
        &[("dataset", dataset)],
    )
}

/// Cache hits by dataset and cache (`mine` or `null`).
pub fn cache_hits_total(dataset: &str, cache: &str) -> Counter {
    metrics::counter(
        "sigrule_cache_hits_total",
        "Engine cache hits, by cache (mine = rule sets, null = permutation nulls).",
        &[("dataset", dataset), ("cache", cache)],
    )
}

/// Cache misses by dataset and cache (`mine` or `null`).
pub fn cache_misses_total(dataset: &str, cache: &str) -> Counter {
    metrics::counter(
        "sigrule_cache_misses_total",
        "Engine cache misses (the artifact was computed), by cache.",
        &[("dataset", dataset), ("cache", cache)],
    )
}

/// Cache evictions by dataset and entry kind (`rule_set` or `null`).
pub fn cache_evictions_total(dataset: &str, kind: &str) -> Counter {
    metrics::counter(
        "sigrule_cache_evictions_total",
        "Engine cache entries evicted by the byte-budget LRU policy, by kind.",
        &[("dataset", dataset), ("kind", kind)],
    )
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

/// Distributed permutation ranges completed, by executor (`local` or
/// `remote`).  Mirrors [`crate::correction::permutation::shard_counters`].
pub fn shards_total(executor: &str) -> Counter {
    metrics::counter(
        "sigrule_shards_total",
        "Distributed-null permutation ranges completed, by executor.",
        &[("executor", executor)],
    )
}

/// Permutation ranges dispatched more than once (steals + re-dispatches).
pub fn shard_retries_total() -> Counter {
    metrics::counter(
        "sigrule_shard_retries_total",
        "Permutation ranges dispatched more than once (straggler steals and dead-worker re-dispatches).",
        &[],
    )
}

/// Milliseconds spent waiting on remote shard responses.
pub fn shard_remote_wait_ms() -> Counter {
    metrics::counter(
        "sigrule_shard_remote_wait_ms_total",
        "Total milliseconds spent waiting on remote shard responses.",
        &[],
    )
}

/// Forest sweeps through the support kernel, by mode (only `batched`).
/// Mirrored from `sigrule_data::kernel` at scrape time.
pub fn kernel_sweeps_total(mode: &str) -> Counter {
    metrics::counter(
        "sigrule_kernel_sweeps_total",
        "Forest sweeps through the support-counting kernel, by mode.",
        &[("mode", mode)],
    )
}

/// Injected fault firings, by site (chaos builds only).
pub fn faults_injected_total(site: &str) -> Counter {
    metrics::counter(
        "sigrule_faults_injected_total",
        "Injected fault-point firings (faults feature builds only), by site.",
        &[("site", site)],
    )
}
