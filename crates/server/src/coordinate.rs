//! The null-collection coordinator: scatter permutation ranges across
//! remote workers, merge the partial statistics bit-identically.
//!
//! The permutation engine derives every permutation's RNG from
//! `(seed, absolute index)`, so any chunk-aligned range runs a
//! *subsequence* of the full run by construction.  This module cashes that
//! in: [`partition_ranges`] splits the `N` permutations of a cold null into
//! contiguous chunk-aligned ranges, [`scatter_collect`] runs them on the
//! calling thread (the local share) and on any number of
//! [`RemoteExecutor`]s driving `sigrule serve` workers over the line
//! protocol, and [`PermutationStats::merge`] reassembles the partials into
//! *exactly* the statistics one `collect_stats` pass would have produced, at
//! any worker count, partition, or failure schedule.
//!
//! Scheduling is one pull queue, not a static assignment: each remote gets
//! its first range before its coordinator thread starts, and every party
//! takes the next range when it finishes one, so a fast worker naturally
//! takes more ranges than a slow one (this *is* the worker sizing — no
//! weights to tune).  A remote that fails puts its range back and retires;
//! once the remote threads have joined, the calling thread runs whatever is
//! still queued.  The local share cannot fail (it only cancels), so a lost
//! worker costs time, never correctness or a partial cache fill.  The answer
//! waits for the last range a remote holds; the connection's read timeout
//! bounds how long a hung worker can hold one.

use crate::client::ClientStream;
use crate::json::{Json, ObjectBuilder};
use crate::transport::ListenAddr;
use sigrule::cancel::{CancelToken, Cancelled};
use sigrule::correction::permutation::{
    rayon_pool, shard_counters, PartialPermutationStats, PermutationCorrection, PermutationStats,
    PERMS_PER_CHUNK,
};
use sigrule::engine::Engine;
use sigrule::RuleMiningConfig;
use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Read timeout on worker connections when the shard spec carries no
/// `timeout_ms` of its own: generous, because a cold shard of a large null
/// is legitimately slow.  It is what bounds how long the answer waits on a
/// hung worker: the read fails, the range goes back to the queue and the
/// calling thread runs it.
const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(600);

/// Extra read-timeout slack over an explicit per-shard `timeout_ms`, so the
/// worker's own deadline error (which rides the request token) arrives
/// before the client-side read gives up.
const READ_TIMEOUT_GRACE: Duration = Duration::from_secs(10);

fn lock<'a, T>(mutex: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Hex-encodes a shard payload for the line protocol (JSON numbers cannot
/// carry `f64` bit patterns or full-width `u64`s, so the wire form travels
/// as a string).
pub fn encode_hex(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(HEX[(b >> 4) as usize] as char);
        out.push(HEX[(b & 0xf) as usize] as char);
    }
    out
}

/// Decodes [`encode_hex`] output; rejects odd lengths and non-hex bytes.
pub fn decode_hex(text: &str) -> Result<Vec<u8>, String> {
    fn nibble(c: u8) -> Result<u8, String> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            _ => Err(format!("invalid hex character {:?}", c as char)),
        }
    }
    if !text.len().is_multiple_of(2) {
        return Err(format!("hex payload has odd length {}", text.len()));
    }
    let raw = text.as_bytes();
    let mut out = Vec::with_capacity(raw.len() / 2);
    for pair in raw.chunks_exact(2) {
        out.push((nibble(pair[0])? << 4) | nibble(pair[1])?);
    }
    Ok(out)
}

/// Parses a comma-separated worker list (`tcp:h1:p1,tcp:h2:p2,unix:/s`),
/// the form both `--workers` and the serve-side `"workers"` field take.
pub fn parse_worker_list(spec: &str) -> Result<Vec<ListenAddr>, String> {
    spec.split(',')
        .map(str::trim)
        .filter(|part| !part.is_empty())
        .map(ListenAddr::parse)
        .collect()
}

/// Everything a `perm_shard` request needs besides the range itself: which
/// dataset and mining key to run, the null's size and seed, and the
/// per-shard limits.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// The dataset name on the workers (coordinators replay the `load`
    /// under the same name first).
    pub dataset: String,
    /// The mining configuration — must match the front-end query exactly or
    /// the shards would describe a different rule set.
    pub mining: RuleMiningConfig,
    /// Total permutations in the null being assembled.
    pub n_permutations: usize,
    /// The null's base seed; every executor derives per-permutation RNG
    /// from it identically.
    pub seed: u64,
    /// Rayon parallelism per shard on the worker (`None` = worker default).
    pub threads: Option<usize>,
    /// Per-shard deadline, riding the worker's request cancellation token.
    pub timeout_ms: Option<u64>,
}

impl ShardSpec {
    /// A spec with no per-shard limits.
    pub fn new(
        dataset: &str,
        mining: &RuleMiningConfig,
        n_permutations: usize,
        seed: u64,
    ) -> ShardSpec {
        ShardSpec {
            dataset: dataset.to_string(),
            mining: mining.clone(),
            n_permutations,
            seed,
            threads: None,
            timeout_ms: None,
        }
    }

    /// Renders the `perm_shard` request line for one range.  `min_conf`
    /// survives the trip exactly: the JSON layer prints floats in Rust's
    /// shortest round-trip form.  When the calling thread is inside a trace
    /// span the trace id rides along as `"trace_id"`, so the worker's
    /// structured log joins the coordinator's trace.
    pub fn shard_line(&self, start: usize, end: usize) -> String {
        let mut out = ObjectBuilder::new();
        if let Some(trace) = sigrule_obs::trace::current() {
            out.string("trace_id", &trace.to_string());
        }
        out.string("cmd", "perm_shard")
            .string("dataset", &self.dataset)
            .number("min_sup", self.mining.min_sup as f64)
            .number("min_conf", self.mining.min_conf)
            .boolean("all_patterns", !self.mining.closed_only)
            .number("permutations", self.n_permutations as f64)
            .integer("seed", self.seed)
            .number("start", start as f64)
            .number("end", end as f64);
        if let Some(len) = self.mining.max_length {
            out.number("max_length", len as f64);
        }
        if let Some(threads) = self.threads {
            out.number("threads", threads as f64);
        }
        if let Some(ms) = self.timeout_ms {
            out.number("timeout_ms", ms as f64);
        }
        out.finish()
    }
}

/// Why a remote range failed.
///
/// A [`Cancelled`](ShardError::Cancelled) range means the whole run's token
/// fired (deadline or explicit cancel) and the scatter is over, while a
/// [`Failed`](ShardError::Failed) range is a worker-local casualty — a dead
/// worker, a protocol error — whose range goes back to the queue.
#[derive(Debug)]
pub enum ShardError {
    /// The run's cancellation token fired; the run is over.
    Cancelled(Cancelled),
    /// The worker failed; the range is intact and re-dispatchable.
    Failed(String),
}

/// A worker the coordinator scatters permutation ranges to.  Given a
/// chunk-aligned range and a token, it either produces that range's *exact*
/// partial null or fails with a [`ShardError`] that tells the coordinator
/// whether to re-dispatch.  [`RemoteExecutor`] is the implementation; the
/// trait is the seam the scatter's failure tests use.
pub trait NullExecutor: Send + Sync {
    /// A short human-readable label for logs and warnings (`"tcp:host:port"`).
    fn label(&self) -> String;

    /// Collects the partial null for permutations `start..end`.
    fn run_range(
        &self,
        start: usize,
        end: usize,
        cancel: &CancelToken,
    ) -> Result<PartialPermutationStats, ShardError>;
}

/// A [`NullExecutor`] that runs ranges on a remote `sigrule serve` worker
/// via `perm_shard` requests over one [`ClientStream`].
///
/// Any failure — connect, I/O, an error response, or a malformed or
/// mismatched payload — surfaces as [`ShardError::Failed`], which the
/// scatter loop treats as "this worker is dead": the range goes back to the
/// queue and the executor is retired.  Cheap and safe, because the local
/// share runs whatever the workers leave.
pub struct RemoteExecutor {
    label: String,
    spec: ShardSpec,
    expected_rules: usize,
    stream: Mutex<ClientStream>,
}

impl RemoteExecutor {
    /// Connects to a worker and primes it: replays `load_line` when given
    /// (the worker must see the same file path — shared filesystem or
    /// identical layout).  The connect + load round-trip doubles as a
    /// health probe; unreachable or failing workers are reported here,
    /// *before* any range is entrusted to them.
    pub fn connect(
        addr: &ListenAddr,
        spec: ShardSpec,
        load_line: Option<&str>,
        expected_rules: usize,
    ) -> Result<RemoteExecutor, String> {
        let mut stream = ClientStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let read_timeout = match spec.timeout_ms {
            Some(ms) => Duration::from_millis(ms).saturating_add(READ_TIMEOUT_GRACE),
            None => DEFAULT_READ_TIMEOUT,
        };
        stream
            .set_read_timeout(Some(read_timeout))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        if let Some(line) = load_line {
            let resp = stream.request(line).map_err(|e| format!("load: {e}"))?;
            if resp.get("ok").and_then(Json::as_bool) != Some(true) {
                let detail = resp
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("load rejected")
                    .to_string();
                return Err(format!("load: {detail}"));
            }
        }
        Ok(RemoteExecutor {
            label: addr.to_string(),
            spec,
            expected_rules,
            stream: Mutex::new(stream),
        })
    }
}

impl NullExecutor for RemoteExecutor {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn run_range(
        &self,
        start: usize,
        end: usize,
        cancel: &CancelToken,
    ) -> Result<PartialPermutationStats, ShardError> {
        cancel.check().map_err(ShardError::Cancelled)?;
        let line = self.spec.shard_line(start, end);
        let mut stream = lock(&self.stream);
        let resp = stream
            .request(&line)
            .map_err(|e| ShardError::Failed(format!("request: {e}")))?;
        if resp.get("ok").and_then(Json::as_bool) != Some(true) {
            let detail = resp
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown error")
                .to_string();
            return Err(ShardError::Failed(detail));
        }
        let payload = resp
            .get("payload")
            .and_then(Json::as_str)
            .ok_or_else(|| ShardError::Failed("response is missing \"payload\"".to_string()))?;
        let bytes = decode_hex(payload).map_err(ShardError::Failed)?;
        let partial =
            PartialPermutationStats::from_bytes(&bytes).map_err(|e| ShardError::Failed(e.0))?;
        if partial.start() != start || partial.end() != end {
            return Err(ShardError::Failed(format!(
                "worker answered range {}..{} for request {start}..{end}",
                partial.start(),
                partial.end()
            )));
        }
        if partial.n_rules() != self.expected_rules {
            return Err(ShardError::Failed(format!(
                "worker mined {} rules where the coordinator mined {} — \
                 dataset or mining key mismatch",
                partial.n_rules(),
                self.expected_rules
            )));
        }
        Ok(partial)
    }
}

/// Splits `0..n_permutations` into contiguous ranges whose starts are
/// multiples of [`PERMS_PER_CHUNK`] (only the final end may be ragged),
/// about four per executor so the pull queue can load-balance without
/// drowning in per-range overhead.  Returns ranges in ascending order;
/// empty only when `n_permutations == 0`.
pub fn partition_ranges(n_permutations: usize, n_executors: usize) -> Vec<(usize, usize)> {
    if n_permutations == 0 {
        return Vec::new();
    }
    let n_chunks = n_permutations.div_ceil(PERMS_PER_CHUNK);
    let target = n_chunks.min(n_executors.max(1).saturating_mul(4)).max(1);
    let step = n_chunks.div_ceil(target) * PERMS_PER_CHUNK;
    let mut ranges = Vec::with_capacity(target);
    let mut start = 0;
    while start < n_permutations {
        ranges.push((start, (start + step).min(n_permutations)));
        start += step;
    }
    ranges
}

/// What a scatter did: how the ranges landed and which workers were lost.
/// Feeds the process-wide [`shard_counters`] and user-facing warnings.
#[derive(Debug, Clone, Default)]
pub struct ShardReport {
    /// Ranges completed by the local share on the calling thread.
    pub shards_local: u64,
    /// Ranges completed by remote workers.
    pub shards_remote: u64,
    /// Ranges re-dispatched because the worker holding them failed.
    pub retries: u64,
    /// Milliseconds spent waiting on remote shard responses (summed across
    /// workers, so it can exceed wall clock).
    pub remote_ms: u64,
    /// Labels (and failure detail) of workers that died mid-scatter.
    pub lost_workers: Vec<String>,
}

/// The state the calling thread and the remote threads share.
struct Scatter {
    queue: VecDeque<(usize, usize)>,
    done: Vec<PartialPermutationStats>,
    report: ShardReport,
}

/// Takes the next queued range, releasing the lock before it is run.
fn pop(state: &Mutex<Scatter>) -> Option<(usize, usize)> {
    lock(state).queue.pop_front()
}

/// Runs queued ranges through the local share until the queue is empty.
fn run_local(
    state: &Mutex<Scatter>,
    local: &impl Fn(usize, usize) -> Result<PartialPermutationStats, Cancelled>,
) -> Result<(), Cancelled> {
    while let Some((start, end)) = pop(state) {
        let partial = local(start, end)?;
        let mut scatter = lock(state);
        scatter.report.shards_local += 1;
        scatter.done.push(partial);
    }
    Ok(())
}

/// Runs `first`, then queued ranges, on one remote until the queue is empty
/// or the remote fails (its range goes back to the queue).
fn run_remote(
    state: &Mutex<Scatter>,
    remote: &dyn NullExecutor,
    first: (usize, usize),
    cancel: &CancelToken,
) -> Result<(), Cancelled> {
    let mut next = Some(first);
    while let Some((start, end)) = next {
        sigrule_obs::log::debug(
            "sigrule::coordinate",
            "range dispatched",
            &[
                ("executor", remote.label().into()),
                ("start", (start as u64).into()),
                ("end", (end as u64).into()),
            ],
        );
        let began = Instant::now();
        let outcome = remote.run_range(start, end, cancel);
        let elapsed_ms = began.elapsed().as_millis() as u64;
        let mut scatter = lock(state);
        match outcome {
            Ok(partial) => {
                scatter.report.shards_remote += 1;
                scatter.report.remote_ms += elapsed_ms;
                scatter.done.push(partial);
            }
            Err(ShardError::Cancelled(cause)) => return Err(cause),
            Err(ShardError::Failed(detail)) => {
                scatter.queue.push_back((start, end));
                scatter.report.retries += 1;
                sigrule_obs::log::warn(
                    "sigrule::coordinate",
                    "worker lost mid-shard",
                    &[
                        ("worker", remote.label().into()),
                        ("detail", detail.clone().into()),
                        ("start", (start as u64).into()),
                        ("end", (end as u64).into()),
                    ],
                );
                let lost = format!("{}: {detail}", remote.label());
                scatter.report.lost_workers.push(lost);
                return Ok(());
            }
        }
        next = scatter.queue.pop_front();
    }
    Ok(())
}

/// Scatters `0..n_permutations` over the local share and `remotes`, and
/// merges the partials into the same [`PermutationStats`] a single
/// [`collect_stats`](PermutationCorrection::collect_stats) pass produces —
/// bit-identical at any remote count, partition, or failure schedule.
///
/// `local(start, end)` runs one range on the calling thread.  A remote that
/// returns [`ShardError::Failed`] is retired and its range re-queued; once
/// the remote threads have joined, the calling thread runs any range still
/// queued.  A [`Cancelled`] from the local share or from a remote aborts the
/// whole scatter, leaving no partial result behind.
///
/// # Panics
///
/// Panics when `n_permutations` is zero.
pub fn scatter_collect(
    remotes: &[&dyn NullExecutor],
    n_permutations: usize,
    cancel: &CancelToken,
    local: impl Fn(usize, usize) -> Result<PartialPermutationStats, Cancelled>,
) -> Result<(PermutationStats, ShardReport), Cancelled> {
    let ranges = partition_ranges(n_permutations, remotes.len() + 1);
    assert!(!ranges.is_empty(), "scatter_collect needs permutations");
    let mut queue: VecDeque<(usize, usize)> = ranges.into_iter().collect();
    // Every remote gets its first range before any thread starts, so the
    // local share cannot drain the queue before a remote claims at all.
    let firsts: Vec<((usize, usize), &dyn NullExecutor)> = remotes
        .iter()
        .map_while(|&remote| Some((queue.pop_front()?, remote)))
        .collect();
    let state = Mutex::new(Scatter {
        queue,
        done: Vec::new(),
        report: ShardReport::default(),
    });
    // Thread-local trace context does not cross thread boundaries on its
    // own; capture the caller's span and re-enter it on every remote thread
    // so shard requests and log events stay on one trace.
    let trace = sigrule_obs::trace::current();

    std::thread::scope(|scope| {
        let threads: Vec<_> = firsts
            .into_iter()
            .map(|(first, remote)| {
                let state = &state;
                scope.spawn(move || {
                    let _trace = trace.map(sigrule_obs::trace::enter);
                    run_remote(state, remote, first, cancel)
                })
            })
            .collect();
        let local_outcome = run_local(&state, &local);
        threads
            .into_iter()
            .map(|thread| {
                thread
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p))
            })
            .fold(local_outcome, Result::and)
    })?;
    // Ranges a remote gave back after the local share had emptied the queue.
    run_local(&state, &local)?;

    let scatter = state.into_inner().unwrap_or_else(PoisonError::into_inner);
    let stats = PermutationStats::merge(&scatter.done)
        .expect("scattered ranges tile 0..N and share one rule set; merge cannot fail");
    Ok((stats, scatter.report))
}

/// A distributed null-fill plan: which workers to use and what to run.
#[derive(Debug, Clone)]
pub struct DistributedNull {
    /// Remote `sigrule serve` workers; may be empty (the fill then runs on
    /// the calling thread alone, still through the scatter path).
    pub workers: Vec<ListenAddr>,
    /// A `load` request line replayed on each worker before sharding, so
    /// the dataset name resolves there too.  `None` assumes the workers
    /// already have it loaded.
    pub load_line: Option<String>,
    /// The shard parameters (dataset, mining key, N, seed, limits).
    pub spec: ShardSpec,
}

/// What [`fill_engine_null`] did.
#[derive(Debug)]
pub struct DistributedFill {
    /// True when the engine already had this null resident — nothing was
    /// scattered and `report`/`warnings` are empty.
    pub cached: bool,
    /// The scatter outcome (zeroed when `cached`).
    pub report: ShardReport,
    /// Human-readable notes: unreachable workers, workers lost mid-shard.
    /// Never fatal — the local share covered for them.
    pub warnings: Vec<String>,
}

/// Fills `engine`'s permutation-null cache for the plan's mining key by
/// scattering the permutations across the plan's workers plus the calling
/// thread (pinned to `spec.threads` when given), exactly as
/// [`Engine::fill_null_with`] demands: the merged statistics are
/// bit-identical to the engine's own `collect_stats`, so every later query
/// against the cache entry answers as if the null had been computed
/// locally.  Unreachable or dying workers degrade to warnings, never
/// errors; cancellation aborts the fill and leaves the cache cold.
pub fn fill_engine_null(
    engine: &Engine,
    plan: &DistributedNull,
    cancel: &CancelToken,
) -> Result<DistributedFill, Cancelled> {
    let spec = &plan.spec;
    let mut warnings: Vec<String> = Vec::new();
    let mut report = ShardReport::default();
    let (_stats, cached) = engine.fill_null_with(
        &spec.mining,
        spec.n_permutations,
        spec.seed,
        cancel,
        |mined, tables, cancel| {
            let correction = PermutationCorrection::new(spec.n_permutations).with_seed(spec.seed);
            let local = |start, end| {
                correction.collect_stats_range(mined, Some(tables), cancel, start, end)
            };
            // Nothing to scatter: an empty null or an empty rule set is
            // cheaper to compute than to ship.
            if spec.n_permutations == 0 || mined.rules().is_empty() {
                return local(0, spec.n_permutations).map(PermutationStats::from);
            }
            let mut remotes: Vec<RemoteExecutor> = Vec::new();
            for addr in &plan.workers {
                match RemoteExecutor::connect(
                    addr,
                    spec.clone(),
                    plan.load_line.as_deref(),
                    mined.rules().len(),
                ) {
                    Ok(remote) => remotes.push(remote),
                    Err(detail) => {
                        sigrule_obs::log::warn(
                            "sigrule::coordinate",
                            "worker skipped",
                            &[
                                ("worker", addr.to_string().into()),
                                ("detail", detail.clone().into()),
                            ],
                        );
                        warnings.push(format!(
                            "worker {addr} skipped ({detail}); continuing without it"
                        ));
                    }
                }
            }
            let remotes: Vec<&dyn NullExecutor> =
                remotes.iter().map(|r| r as &dyn NullExecutor).collect();
            let scatter = || scatter_collect(&remotes, spec.n_permutations, cancel, local);
            let (stats, scatter_report) = match spec.threads {
                Some(threads) => rayon_pool(threads)
                    .expect("building a rayon pool cannot fail")
                    .install(scatter),
                None => scatter(),
            }?;
            report = scatter_report;
            Ok(stats)
        },
    )?;

    shard_counters::note_local_shards(report.shards_local);
    shard_counters::note_remote_shards(report.shards_remote, report.remote_ms);
    shard_counters::note_retries(report.retries);
    if !cached {
        sigrule_obs::log::debug(
            "sigrule::coordinate",
            "scatter complete",
            &[
                ("dataset", spec.dataset.clone().into()),
                ("permutations", (spec.n_permutations as u64).into()),
                ("shards_local", report.shards_local.into()),
                ("shards_remote", report.shards_remote.into()),
                ("retries", report.retries.into()),
                ("remote_ms", report.remote_ms.into()),
                ("lost_workers", (report.lost_workers.len() as u64).into()),
            ],
        );
    }
    for lost in &report.lost_workers {
        warnings.push(format!(
            "worker lost mid-shard, range re-dispatched: {lost}"
        ));
    }
    Ok(DistributedFill {
        cached,
        report,
        warnings,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::proto::{handle_line, tests::fixture_path, ServerState};
    use crate::transport::{serve_listener, ServerConfig};
    use sigrule::engine::{Loader, Query};
    use sigrule::{CancelReason, CorrectionApproach, ErrorMetric};
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        let bytes: Vec<u8> = (0..=255).collect();
        let text = encode_hex(&bytes);
        assert_eq!(decode_hex(&text).unwrap(), bytes);
        assert!(decode_hex("abc").unwrap_err().contains("odd length"));
        assert!(decode_hex("zz").unwrap_err().contains("invalid hex"));
        assert_eq!(decode_hex("").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn worker_lists_parse_and_reject() {
        let list = parse_worker_list("tcp:a:1, tcp:b:2 ,unix:/tmp/w.sock,").unwrap();
        assert_eq!(
            list,
            vec![
                ListenAddr::Tcp("a:1".to_string()),
                ListenAddr::Tcp("b:2".to_string()),
                ListenAddr::Unix("/tmp/w.sock".into()),
            ]
        );
        assert!(parse_worker_list("http://nope").is_err());
    }

    #[test]
    fn partitions_tile_the_permutations_chunk_aligned() {
        for (n, executors) in [
            (1, 1),
            (64, 1),
            (150, 2),
            (1000, 2),
            (1000, 3),
            (640, 16),
            (7, 5),
        ] {
            let ranges = partition_ranges(n, executors);
            assert!(!ranges.is_empty());
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges.last().unwrap().1, n);
            for window in ranges.windows(2) {
                assert_eq!(window[0].1, window[1].0, "ranges must tile contiguously");
            }
            for &(start, end) in &ranges {
                assert!(start < end);
                assert_eq!(start % PERMS_PER_CHUNK, 0);
                assert!(end % PERMS_PER_CHUNK == 0 || end == n);
            }
        }
        assert!(partition_ranges(0, 4).is_empty());
        // 1,000 permutations over two executors: 8 ranges of 128, the last
        // ragged.
        let ranges = partition_ranges(1000, 2);
        assert_eq!(ranges.len(), 8);
        assert_eq!((ranges[0], ranges[7]), ((0, 128), (896, 1000)));
    }

    fn toy_mined() -> sigrule::MinedRuleSet {
        let loaded = Loader::default().load_file(fixture_path()).unwrap();
        sigrule::mine_rules(
            &loaded.dataset,
            &RuleMiningConfig::new(4).with_min_conf(0.5),
        )
    }

    #[test]
    fn local_share_alone_reproduces_the_serial_null() {
        let mined = toy_mined();
        let correction = PermutationCorrection::new(300).with_seed(9);
        let tables = correction.build_shared_tables(&mined);
        let serial = correction.collect_stats(&mined);
        let none = CancelToken::none();
        let local =
            |start, end| correction.collect_stats_range(&mined, Some(&tables), &none, start, end);
        for threads in [1, 2] {
            let (merged, report) = rayon_pool(threads)
                .unwrap()
                .install(|| scatter_collect(&[], 300, &none, local))
                .unwrap();
            assert_eq!(merged, serial, "{threads} threads");
            assert_eq!(report.shards_local, partition_ranges(300, 1).len() as u64);
            assert_eq!((report.shards_remote, report.retries), (0, 0));
            assert!(report.lost_workers.is_empty());
        }
    }

    /// Holds its first range until the local share has run every other
    /// range (so the queue is empty), then a moment later fails it.
    struct LateFail<'a> {
        local_runs: &'a AtomicUsize,
        wait_for: usize,
    }

    impl NullExecutor for LateFail<'_> {
        fn label(&self) -> String {
            "tcp:dead:1".to_string()
        }
        fn run_range(
            &self,
            _start: usize,
            _end: usize,
            _cancel: &CancelToken,
        ) -> Result<PartialPermutationStats, ShardError> {
            while self.local_runs.load(Ordering::SeqCst) < self.wait_for {
                std::thread::sleep(Duration::from_millis(1));
            }
            // The queue is already empty.  The pause lets the local share
            // see that and wait at the join, so the range is normally
            // re-run after the join; the assertions hold in either order.
            std::thread::sleep(Duration::from_millis(20));
            Err(ShardError::Failed("connection reset".to_string()))
        }
    }

    #[test]
    fn dead_worker_costs_time_never_correctness() {
        let mined = toy_mined();
        let correction = PermutationCorrection::new(200).with_seed(5);
        let tables = correction.build_shared_tables(&mined);
        let serial = correction.collect_stats(&mined);
        let ranges = partition_ranges(200, 2);
        let none = CancelToken::none();

        let local_runs = AtomicUsize::new(0);
        let local_starts = Mutex::new(Vec::new());
        let local = |start, end| {
            let partial = correction.collect_stats_range(&mined, Some(&tables), &none, start, end);
            lock(&local_starts).push(start);
            local_runs.fetch_add(1, Ordering::SeqCst);
            partial
        };
        let failer = LateFail {
            local_runs: &local_runs,
            wait_for: ranges.len() - 1,
        };
        let (merged, report) = scatter_collect(&[&failer], 200, &none, local).unwrap();
        assert_eq!(merged, serial, "a lost worker must not change the null");
        assert_eq!(
            report.shards_local + report.shards_remote,
            ranges.len() as u64
        );
        assert_eq!((report.shards_remote, report.retries), (0, 1));
        assert_eq!(report.lost_workers.len(), 1);
        assert!(report.lost_workers[0].contains("tcp:dead:1"));
        // The remote's range came back after every other range had run, and
        // the calling thread ran it last.
        let starts = local_starts.into_inner().unwrap();
        assert_eq!(starts.len(), ranges.len());
        assert_eq!(starts.last(), Some(&ranges[0].0));
    }

    /// Boots a real `serve_listener` worker on an ephemeral port and
    /// returns its address (the listener thread exits on `shutdown`).
    fn spawn_worker() -> ListenAddr {
        let (ready_tx, ready_rx) = mpsc::channel();
        std::thread::spawn(move || {
            let addr = ListenAddr::Tcp("127.0.0.1:0".to_string());
            serve_listener(&addr, &ServerConfig::default(), move |ready| {
                ready_tx.send(ready.to_string()).unwrap();
            })
            .unwrap();
        });
        ListenAddr::parse(&ready_rx.recv().unwrap()).unwrap()
    }

    fn shutdown_worker(addr: &ListenAddr) {
        let mut stream = ClientStream::connect(addr).unwrap();
        stream.request(r#"{"cmd":"shutdown"}"#).unwrap();
    }

    #[test]
    fn remote_executor_matches_the_local_one_bit_for_bit() {
        let path = fixture_path();
        let addr = spawn_worker();

        let mined = toy_mined();
        let spec = ShardSpec::new("toy", &RuleMiningConfig::new(4).with_min_conf(0.5), 150, 13);
        let load_line = format!(r#"{{"cmd":"load","path":"{path}","name":"toy"}}"#);
        let remote =
            RemoteExecutor::connect(&addr, spec, Some(&load_line), mined.rules().len()).unwrap();

        let correction = PermutationCorrection::new(150).with_seed(13);
        let tables = correction.build_shared_tables(&mined);
        for (start, end) in [(0, 64), (64, 128), (128, 150)] {
            let ours = correction
                .collect_stats_range(&mined, Some(&tables), &CancelToken::none(), start, end)
                .unwrap();
            let theirs = remote.run_range(start, end, &CancelToken::none()).unwrap();
            assert_eq!(theirs.to_bytes(), ours.to_bytes(), "range {start}..{end}");
        }

        // A mining-key mismatch is detected, not merged.
        let narrower = ShardSpec::new(
            "toy",
            &RuleMiningConfig::new(40).with_min_conf(0.99),
            150,
            13,
        );
        let strict = RemoteExecutor::connect(&addr, narrower, None, mined.rules().len()).unwrap();
        match strict.run_range(0, 64, &CancelToken::none()) {
            Err(ShardError::Failed(detail)) => {
                assert!(detail.contains("mismatch"), "got {detail}")
            }
            other => panic!("expected a mismatch failure, got {other:?}"),
        }
        shutdown_worker(&addr);
    }

    #[test]
    fn distributed_fill_primes_the_cache_bit_identically() {
        let path = fixture_path();
        let addr = spawn_worker();

        let loaded = Loader::default().load_file(&path).unwrap();
        let engine = loaded.into_engine();
        let mining = RuleMiningConfig::new(4).with_min_conf(0.5);
        let plan = DistributedNull {
            workers: vec![addr.clone(), ListenAddr::Tcp("127.0.0.1:1".to_string())],
            load_line: Some(format!(r#"{{"cmd":"load","path":"{path}","name":"dist"}}"#)),
            spec: ShardSpec::new("dist", &mining, 448, 21),
        };
        let fill = fill_engine_null(&engine, &plan, &CancelToken::none()).unwrap();
        assert!(!fill.cached);
        assert!(
            fill.report.shards_remote > 0,
            "the live worker should have taken at least one range: {:?}",
            fill.report
        );
        // One local share plus the one reachable worker; every range ran
        // exactly once.
        assert_eq!(
            fill.report.shards_local + fill.report.shards_remote,
            partition_ranges(448, 2).len() as u64
        );
        assert_eq!(fill.report.retries, 0);
        assert!(fill.report.lost_workers.is_empty());
        // Port 1 is reserved (nothing listens): skipped with a warning.
        assert!(
            fill.warnings.iter().any(|w| w.contains("skipped")),
            "unreachable worker should warn: {:?}",
            fill.warnings
        );

        // The primed cache answers a query exactly like an undistributed
        // engine does.
        let again = fill_engine_null(&engine, &plan, &CancelToken::none()).unwrap();
        assert!(again.cached, "second fill must hit the cache");
        let query = permutation_query(&mining, 448, 21);
        let warm = engine.query(&query).unwrap();
        assert_eq!(warm.null_cached, Some(true));
        let fresh = Loader::default().load_file(&path).unwrap().into_engine();
        assert_eq!(warm.result, fresh.query(&query).unwrap().result);
        shutdown_worker(&addr);
    }

    fn permutation_query(mining: &RuleMiningConfig, n: usize, seed: u64) -> Query {
        Query::new(mining.clone())
            .with_correction(CorrectionApproach::Permutation, ErrorMetric::Fwer)
            .with_permutations(n)
            .with_seed(seed)
    }

    #[test]
    fn cancelled_scatter_leaves_the_null_cold_and_the_retry_bit_identical() {
        let path = fixture_path();
        let token = CancelToken::new();
        // A worker that fires the run's token as soon as a range reaches it,
        // then hangs up: the scatter cannot finish without that range.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = ListenAddr::Tcp(listener.local_addr().unwrap().to_string());
        let canceller = token.clone();
        let worker = std::thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            let mut line = String::new();
            BufReader::new(&conn).read_line(&mut line).unwrap();
            canceller.cancel();
            line
        });

        let engine = Loader::default().load_file(&path).unwrap().into_engine();
        let mining = RuleMiningConfig::new(4).with_min_conf(0.5);
        let plan = DistributedNull {
            workers: vec![addr],
            load_line: None,
            spec: ShardSpec::new("toy", &mining, 448, 21),
        };
        match fill_engine_null(&engine, &plan, &token) {
            Err(cause) => assert_eq!(cause.reason, CancelReason::Cancelled),
            Ok(fill) => panic!("expected cancellation, got {fill:?}"),
        }
        assert!(worker.join().unwrap().contains("perm_shard"));

        let query = permutation_query(&mining, 448, 21);
        let retry = engine.query(&query).unwrap();
        assert_eq!(
            retry.null_cached,
            Some(false),
            "the aborted fill left a null"
        );
        let fresh = Loader::default().load_file(&path).unwrap().into_engine();
        assert_eq!(retry.result, fresh.query(&query).unwrap().result);
    }

    /// A `"workers"` request that fails validation is answered before any
    /// null is scattered or collected, locally or remotely.
    #[test]
    fn serve_side_workers_request_is_validated_before_scattering() {
        let path = fixture_path();
        let nowhere = std::env::temp_dir().join("sigrule-no-such-worker.sock");
        let state = ServerState::new();
        let (resp, _) = handle_line(&state, &format!(r#"{{"cmd":"load","path":"{path}"}}"#));
        assert!(resp.contains(r#""ok":true"#), "{resp}");
        let too_many = sigrule::correction::permutation::MAX_PERMUTATIONS + 1;
        for invalid in [
            r#""alpha":2"#.to_string(),
            format!(r#""permutations":{too_many}"#),
        ] {
            let (resp, _) = handle_line(
                &state,
                &format!(
                    r#"{{"cmd":"correct","min_sup":4,"correction":"permutation",{invalid},"workers":"unix:{}"}}"#,
                    nowhere.display()
                ),
            );
            assert!(resp.contains(r#""code":"invalid_request""#), "{resp}");
        }
        let (resp, _) = handle_line(&state, r#"{"cmd":"stats"}"#);
        let stats = Json::parse(&resp).unwrap();
        for counter in ["mine_misses", "null_misses"] {
            assert_eq!(
                stats.get(counter).and_then(Json::as_u64),
                Some(0),
                "{counter}"
            );
        }
    }

    #[test]
    fn serve_side_workers_field_round_trips() {
        let path = fixture_path();
        let worker = spawn_worker();

        let state = ServerState::new();
        let (resp, _) = handle_line(&state, &format!(r#"{{"cmd":"load","path":"{path}"}}"#));
        assert!(resp.contains(r#""ok":true"#), "{resp}");
        let (resp, _) = handle_line(
            &state,
            &format!(
                r#"{{"cmd":"correct","min_sup":4,"min_conf":0.5,"correction":"permutation","permutations":48,"seed":3,"workers":"{worker}"}}"#
            ),
        );
        assert!(resp.contains(r#""ok":true"#), "{resp}");
        let distributed = Json::parse(&resp).unwrap();

        // The same request without workers, on a fresh state, answers with
        // identical statistics (timings aside).
        let state2 = ServerState::new();
        let (_, _) = handle_line(&state2, &format!(r#"{{"cmd":"load","path":"{path}"}}"#));
        let (resp2, _) = handle_line(
            &state2,
            r#"{"cmd":"correct","min_sup":4,"min_conf":0.5,"correction":"permutation","permutations":48,"seed":3}"#,
        );
        let plain = Json::parse(&resp2).unwrap();
        for field in [
            "significant",
            "p_value_cutoff",
            "rules_mined",
            "hypothesis_tests",
            "rules",
        ] {
            assert_eq!(
                distributed.get(field).map(Json::render),
                plain.get(field).map(Json::render),
                "field {field} must not depend on distribution"
            );
        }
        shutdown_worker(&worker);
    }
}
