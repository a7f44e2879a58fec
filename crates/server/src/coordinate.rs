//! The null-collection coordinator: scatter permutation ranges across
//! executors, merge the partial statistics bit-identically.
//!
//! PR 1 fixed the permutation engine's chunking and derived every
//! permutation's RNG from `(seed, absolute index)`, which makes any
//! chunk-aligned range run a *subsequence* of the full run by construction.
//! This module cashes that in: [`partition_ranges`] splits the `N`
//! permutations of a cold null into contiguous chunk-aligned ranges,
//! [`scatter_collect`] hands them to a pool of
//! [`NullExecutor`]s — the in-process
//! [`LocalExecutor`] plus any number of [`RemoteExecutor`]s driving
//! `sigrule serve` workers over the line protocol — and
//! [`PermutationStats::merge`] reassembles the partials into *exactly* the
//! statistics one `collect_stats` pass would have produced, at any worker
//! count, partition, or failure schedule.
//!
//! Scheduling is a pull queue, not a static assignment: each executor runs
//! on its own coordinator thread and takes the next pending range when it
//! finishes one, so a fast worker naturally takes more ranges than a slow
//! one (this *is* the worker sizing — no weights to tune).  When the queue
//! drains, idle executors **steal** ranges that are still in flight
//! elsewhere (straggler re-dispatch; the first completion wins and the
//! per-range merge is idempotent), and a worker that dies mid-range has its
//! range returned to the queue.  Because the coordinator always holds a
//! local executor and [`LocalExecutor`] cannot fail (it only cancels), a
//! lost worker costs time, never correctness or a partial cache fill.

use crate::client::ClientStream;
use crate::json::{Json, ObjectBuilder};
use crate::transport::ListenAddr;
use sigrule::cancel::{CancelToken, Cancelled};
use sigrule::correction::permutation::{
    shard_counters, LocalExecutor, NullExecutor, PartialPermutationStats, PermutationCorrection,
    PermutationStats, ShardError, PERMS_PER_CHUNK,
};
use sigrule::engine::Engine;
use sigrule::RuleMiningConfig;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Read timeout on worker connections when the shard spec carries no
/// `timeout_ms` of its own: generous, because a cold shard of a large null
/// is legitimately slow — the straggler steal already bounds how long the
/// *answer* waits on any one worker.
const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(600);

/// Extra read-timeout slack over an explicit per-shard `timeout_ms`, so the
/// worker's own deadline error (which rides the request token) arrives
/// before the client-side read gives up.
const READ_TIMEOUT_GRACE: Duration = Duration::from_secs(10);

/// How often a parked coordinator thread re-checks the cancel token while
/// waiting for work to steal.
const STEAL_POLL: Duration = Duration::from_millis(25);

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

/// A [`NullExecutor`] that runs ranges on a remote `sigrule serve` worker
/// via `perm_shard` requests over one [`ClientStream`].
///
/// Any failure — connect, I/O, an error response, or a malformed or
/// mismatched payload — surfaces as [`ShardError::Failed`], which the
/// scatter loop treats as "this worker is dead": the range goes back to the
/// queue and the executor is retired.  Cheap and safe, because the local
/// executor guarantees completion regardless.
pub struct RemoteExecutor {
    label: String,
    spec: ShardSpec,
    expected_rules: usize,
    stream: Mutex<ClientStream>,
    probe_ms: u64,
}

impl RemoteExecutor {
    /// Connects to a worker and primes it: replays `load_line` when given
    /// (the worker must see the same file path — shared filesystem or
    /// identical layout).  The connect + load round-trip doubles as a
    /// latency/health probe; unreachable or failing workers are reported
    /// here, *before* any range is entrusted to them.
    pub fn connect(
        addr: &ListenAddr,
        spec: ShardSpec,
        load_line: Option<&str>,
        expected_rules: usize,
    ) -> Result<RemoteExecutor, String> {
        let began = Instant::now();
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
            probe_ms: began.elapsed().as_millis() as u64,
        })
    }

    /// Milliseconds the connect (+ load replay) round-trip took — a crude
    /// worker-latency probe, recorded for observability.  The pull queue
    /// already sizes work dynamically, so this number steers nothing.
    pub fn probe_ms(&self) -> u64 {
        self.probe_ms
    }
}

impl NullExecutor for RemoteExecutor {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn is_remote(&self) -> bool {
        true
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
    /// Ranges completed by the in-process executor.
    pub shards_local: u64,
    /// Ranges completed by remote workers.
    pub shards_remote: u64,
    /// Ranges dispatched more than once (straggler steals + dead-worker
    /// re-queues).  First completion wins; duplicates merge idempotently.
    pub retries: u64,
    /// Milliseconds spent waiting on remote shard responses (summed across
    /// workers, so it can exceed wall clock).
    pub remote_ms: u64,
    /// Labels (and failure detail) of executors that died mid-scatter.
    pub lost_workers: Vec<String>,
}

struct SchedState {
    pending: VecDeque<(usize, usize)>,
    /// `(start, end, executor index)` of every claimed, unfinished range.
    /// One range may appear under several executors after a steal.
    inflight: Vec<(usize, usize, usize)>,
    done: BTreeMap<usize, PartialPermutationStats>,
    total: usize,
    report: ShardReport,
    fatal: Option<Cancelled>,
}

/// Scatters `0..n_permutations` over `executors` and merges the partials
/// into the same [`PermutationStats`] a single
/// [`collect_stats`](PermutationCorrection::collect_stats) pass produces —
/// bit-identical at any executor count, partition, or failure schedule.
///
/// Executors that return [`ShardError::Failed`] are retired and their
/// ranges re-queued; [`ShardError::Cancelled`] aborts the whole scatter
/// with the underlying [`Cancelled`], leaving no partial result behind.
///
/// # Panics
///
/// Panics when `executors` is empty, `n_permutations` is zero, or *every*
/// executor dies before the ranges are covered.  Callers must include an
/// infallible executor — in practice a [`LocalExecutor`], which only ever
/// cancels — so completion is guaranteed; [`fill_engine_null`] does.
pub fn scatter_collect(
    executors: &[&dyn NullExecutor],
    n_permutations: usize,
    cancel: &CancelToken,
) -> Result<(PermutationStats, ShardReport), Cancelled> {
    assert!(!executors.is_empty(), "scatter_collect needs an executor");
    let ranges = partition_ranges(n_permutations, executors.len());
    assert!(!ranges.is_empty(), "scatter_collect needs permutations");
    let total = ranges.len();
    let mut pending: VecDeque<(usize, usize)> = ranges.into_iter().collect();
    // Every executor gets its first range before any thread starts, so a
    // fast executor cannot drain `pending` before a slow one claims at all.
    let first: Vec<Option<(usize, usize)>> =
        executors.iter().map(|_| pending.pop_front()).collect();
    let inflight = first
        .iter()
        .enumerate()
        .filter_map(|(index, range)| range.map(|(start, end)| (start, end, index)))
        .collect();
    let state = Mutex::new(SchedState {
        pending,
        inflight,
        done: BTreeMap::new(),
        total,
        report: ShardReport::default(),
        fatal: None,
    });
    let wake = Condvar::new();
    // Thread-local trace context does not cross thread boundaries on its
    // own; capture the caller's span and re-enter it on every coordinator
    // thread so shard requests and log events stay on one trace.
    let trace = sigrule_obs::trace::current();

    std::thread::scope(|scope| {
        for (index, executor) in executors.iter().enumerate() {
            let state = &state;
            let wake = &wake;
            let mut first = first[index];
            scope.spawn(move || {
                let _trace = trace.map(sigrule_obs::trace::enter);
                loop {
                    // Claim a range: the seeded one, then pending, then
                    // steal a straggler.
                    let claimed = if let Some((start, end)) = first.take() {
                        Some((start, end, false))
                    } else {
                        let mut sched = lock(state);
                        loop {
                            if sched.fatal.is_some() || sched.done.len() == sched.total {
                                break None;
                            }
                            if let Err(cause) = cancel.check() {
                                sched.fatal = Some(cause);
                                wake.notify_all();
                                break None;
                            }
                            if let Some(range) = sched.pending.pop_front() {
                                sched.inflight.push((range.0, range.1, index));
                                break Some((range.0, range.1, false));
                            }
                            let steal = sched
                                .inflight
                                .iter()
                                .find(|&&(start, _, owner)| {
                                    owner != index && !sched.done.contains_key(&start)
                                })
                                .map(|&(start, end, _)| (start, end));
                            if let Some((start, end)) = steal {
                                sched.report.retries += 1;
                                sched.inflight.push((start, end, index));
                                break Some((start, end, true));
                            }
                            // Nothing to do yet: park until a completion (or
                            // the poll interval, to notice cancellation).
                            sched = wake
                                .wait_timeout(sched, STEAL_POLL)
                                .unwrap_or_else(PoisonError::into_inner)
                                .0;
                        }
                    };
                    let Some((start, end, stolen)) = claimed else {
                        return;
                    };
                    sigrule_obs::log::debug(
                        "sigrule::coordinate",
                        if stolen {
                            "range stolen"
                        } else {
                            "range dispatched"
                        },
                        &[
                            ("executor", executor.label().into()),
                            ("start", (start as u64).into()),
                            ("end", (end as u64).into()),
                        ],
                    );

                    let began = Instant::now();
                    let outcome = executor.run_range(start, end, cancel);
                    let elapsed_ms = began.elapsed().as_millis() as u64;

                    let mut sched = lock(state);
                    if let Some(position) = sched
                        .inflight
                        .iter()
                        .position(|&(s, _, owner)| s == start && owner == index)
                    {
                        sched.inflight.remove(position);
                    }
                    match outcome {
                        Ok(partial) => {
                            if executor.is_remote() {
                                sched.report.shards_remote += 1;
                                sched.report.remote_ms += elapsed_ms;
                            } else {
                                sched.report.shards_local += 1;
                            }
                            // First completion of a range wins; a stolen
                            // duplicate arriving later merges into nothing.
                            sched.done.entry(start).or_insert(partial);
                            wake.notify_all();
                        }
                        Err(ShardError::Cancelled(cause)) => {
                            if sched.fatal.is_none() {
                                sched.fatal = Some(cause);
                            }
                            wake.notify_all();
                            return;
                        }
                        Err(ShardError::Failed(detail)) => {
                            // The executor is dead.  Put its range back unless
                            // someone else already has (or had) it covered.
                            let covered = sched.done.contains_key(&start)
                                || sched.pending.iter().any(|&(s, _)| s == start)
                                || sched.inflight.iter().any(|&(s, _, _)| s == start);
                            if !covered {
                                sched.pending.push_back((start, end));
                                sched.report.retries += 1;
                            }
                            let label = executor.label();
                            sigrule_obs::log::warn(
                                "sigrule::coordinate",
                                "worker lost mid-shard",
                                &[
                                    ("worker", label.clone().into()),
                                    ("detail", detail.clone().into()),
                                    ("start", (start as u64).into()),
                                    ("end", (end as u64).into()),
                                    ("redispatched", (!covered).into()),
                                ],
                            );
                            sched.report.lost_workers.push(format!("{label}: {detail}"));
                            wake.notify_all();
                            return;
                        }
                    }
                }
            });
        }
    });

    let sched = state.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Some(cause) = sched.fatal {
        return Err(cause);
    }
    assert!(
        sched.done.len() == sched.total,
        "every executor died before the scatter completed \
         (callers must include an infallible local executor)"
    );
    let partials: Vec<PartialPermutationStats> = sched.done.into_values().collect();
    let stats = PermutationStats::merge(&partials)
        .expect("scattered ranges tile 0..N and share one rule set; merge cannot fail");
    Ok((stats, sched.report))
}

/// A distributed null-fill plan: which workers to use and what to run.
#[derive(Debug, Clone)]
pub struct DistributedNull {
    /// Remote `sigrule serve` workers; may be empty (the fill then runs on
    /// the local executor alone, still through the scatter path).
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
    /// Never fatal — the local executor covered for them.
    pub warnings: Vec<String>,
}

/// Fills `engine`'s permutation-null cache for the plan's mining key by
/// scattering the permutations across the plan's workers plus the local
/// executor, exactly as
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
            // Nothing to scatter: an empty null or an empty rule set is
            // cheaper to compute than to ship.
            if spec.n_permutations == 0 || mined.rules().is_empty() {
                return correction
                    .collect_stats_range(mined, Some(tables), cancel, 0, spec.n_permutations)
                    .map(PermutationStats::from);
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
            let local = LocalExecutor::new(correction.clone(), mined, Some(tables));
            let local = match spec.threads {
                Some(threads) if threads > 0 => match local.with_threads(threads) {
                    Ok(pinned) => pinned,
                    Err(e) => {
                        warnings.push(format!(
                            "could not pin the local executor to {threads} threads ({e}); \
                             using the ambient pool"
                        ));
                        LocalExecutor::new(correction.clone(), mined, Some(tables))
                    }
                },
                _ => local,
            };
            let executors: Vec<&dyn NullExecutor> = std::iter::once(&local as &dyn NullExecutor)
                .chain(remotes.iter().map(|r| r as &dyn NullExecutor))
                .collect();
            let (stats, scatter_report) = scatter_collect(&executors, spec.n_permutations, cancel)?;
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
    use sigrule::engine::Loader;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Arc};

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
    fn two_local_executors_reproduce_the_serial_null() {
        let mined = toy_mined();
        let correction = PermutationCorrection::new(300).with_seed(9);
        let tables = correction.build_shared_tables(&mined);
        let serial = correction.collect_stats(&mined);

        let a = LocalExecutor::new(correction.clone(), &mined, Some(&tables));
        let b = LocalExecutor::new(correction.clone(), &mined, Some(&tables))
            .with_threads(2)
            .unwrap();
        let executors: Vec<&dyn NullExecutor> = vec![&a, &b];
        let (merged, report) = scatter_collect(&executors, 300, &CancelToken::none()).unwrap();
        assert_eq!(merged, serial);
        assert_eq!(
            report.shards_local,
            partition_ranges(300, 2).len() as u64 + report.retries
        );
        assert_eq!(report.shards_remote, 0);
        assert!(report.lost_workers.is_empty());
    }

    /// Fails its first (and only) range after raising a flag the gated
    /// local executor waits on — so the dead-worker path runs
    /// deterministically: the failer always claims and loses a range.
    struct FailFirst {
        failed: Arc<AtomicBool>,
    }

    impl NullExecutor for FailFirst {
        fn label(&self) -> String {
            "tcp:dead:1".to_string()
        }
        fn is_remote(&self) -> bool {
            true
        }
        fn run_range(
            &self,
            _start: usize,
            _end: usize,
            _cancel: &CancelToken,
        ) -> Result<PartialPermutationStats, ShardError> {
            self.failed.store(true, Ordering::SeqCst);
            Err(ShardError::Failed("connection reset".to_string()))
        }
    }

    struct GatedLocal<'a> {
        inner: LocalExecutor<'a>,
        gate: Arc<AtomicBool>,
    }

    impl NullExecutor for GatedLocal<'_> {
        fn label(&self) -> String {
            self.inner.label()
        }
        fn run_range(
            &self,
            start: usize,
            end: usize,
            cancel: &CancelToken,
        ) -> Result<PartialPermutationStats, ShardError> {
            while !self.gate.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            self.inner.run_range(start, end, cancel)
        }
    }

    #[test]
    fn dead_worker_costs_time_never_correctness() {
        let mined = toy_mined();
        let correction = PermutationCorrection::new(200).with_seed(5);
        let tables = correction.build_shared_tables(&mined);
        let serial = correction.collect_stats(&mined);

        let gate = Arc::new(AtomicBool::new(false));
        let local = GatedLocal {
            inner: LocalExecutor::new(correction.clone(), &mined, Some(&tables)),
            gate: gate.clone(),
        };
        let failer = FailFirst { failed: gate };
        let executors: Vec<&dyn NullExecutor> = vec![&local, &failer];
        let (merged, report) = scatter_collect(&executors, 200, &CancelToken::none()).unwrap();
        assert_eq!(merged, serial, "a lost worker must not change the null");
        assert_eq!(report.lost_workers.len(), 1);
        assert!(report.lost_workers[0].contains("tcp:dead:1"));
        assert!(report.retries >= 1, "the failed range was re-dispatched");
        assert_eq!(report.shards_remote, 0);
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
        let local = LocalExecutor::new(correction.clone(), &mined, Some(&tables));
        for (start, end) in [(0, 64), (64, 128), (128, 150)] {
            let ours = local.run_range(start, end, &CancelToken::none()).unwrap();
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
        assert_eq!(
            fill.report.shards_local + fill.report.shards_remote,
            partition_ranges(448, 3).len() as u64 + fill.report.retries
        );
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
        shutdown_worker(&addr);
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
