//! Chaos end-to-end suite (ISSUE 6 acceptance): spawn the real `sigrule`
//! binary — compiled with `--features faults` — with a `SIGRULE_FAULTS`
//! plan in its environment, torment it over TCP, and assert the fault
//! contract:
//!
//! * the server may answer a tormented request with a structured error
//!   (`code` + `error_kind` per the taxonomy in `docs/SERVE.md`), but
//!   every *successful* answer is bit-identical to a clean one-shot
//!   `Loader` → `Engine` → `Query` run;
//! * an aborted cache fill leaves the once-cell cold, never partial — a
//!   retry redoes the work and matches bit for bit;
//! * the server never hangs or leaks workers: every test ends in an
//!   acknowledged `shutdown` and a clean process exit.
//!
//! This whole file is compiled out without the `faults` feature; the CI
//! chaos step runs `cargo test -p sigrule_cli --features faults` under a
//! hard `timeout`, so a hang fails instead of stalling the pipeline.
#![cfg(feature = "faults")]

use sigrule::engine::{Loader, Query};
use sigrule::{CorrectionApproach, ErrorMetric, RuleMiningConfig};
use sigrule_server::json::Json;
use sigrule_server::transport::ListenAddr;
use sigrule_server::{ClientStream, RetryPolicy};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Per-read client timeout: far above the slowest tormented query on the
/// toy fixture, far below any CI job timeout.
const READ_TIMEOUT: Duration = Duration::from_secs(120);

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/retail_toy.basket")
}

/// A spawned `sigrule serve` process with a fault plan in its environment;
/// killed on drop so a failing test never leaks a listener.
struct TormentedProcess {
    child: Child,
    addr: ListenAddr,
}

impl TormentedProcess {
    fn spawn(faults: &str) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_sigrule"))
            .args(["serve", "--listen", "tcp:127.0.0.1:0"])
            .env("SIGRULE_FAULTS", faults)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        let stdout = child.stdout.as_mut().expect("stdout piped");
        let mut ready = String::new();
        BufReader::new(stdout)
            .read_line(&mut ready)
            .expect("ready line");
        let ready = Json::parse(ready.trim()).expect("ready line is JSON");
        assert_eq!(ready.get("ok").and_then(Json::as_bool), Some(true));
        let bound = ready
            .get("listening")
            .and_then(Json::as_str)
            .expect("ready line carries the bound address");
        let addr = ListenAddr::parse(bound).expect("bound address parses");
        TormentedProcess { child, addr }
    }

    fn connect(&self) -> ClientStream {
        let mut client = ClientStream::connect(&self.addr).expect("connect");
        client
            .set_read_timeout(Some(READ_TIMEOUT))
            .expect("read timeout");
        client
    }

    fn assert_clean_exit(mut self) {
        let status = self.child.wait().expect("serve exits");
        assert!(status.success(), "serve exited with {status:?}");
        std::mem::forget(self);
    }
}

impl Drop for TormentedProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn assert_ok(resp: &Json) -> &Json {
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(true),
        "expected ok: {}",
        resp.render()
    );
    resp
}

/// Asserts a structured `ok:false` answer with the given taxonomy fields.
fn assert_error(resp: &Json, code: &str, kind: &str, context: &str) {
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(false),
        "{context}: expected an error, got {}",
        resp.render()
    );
    assert_eq!(
        resp.get("code").and_then(Json::as_str),
        Some(code),
        "{context}: code in {}",
        resp.render()
    );
    assert_eq!(
        resp.get("error_kind").and_then(Json::as_str),
        Some(kind),
        "{context}: error_kind in {}",
        resp.render()
    );
}

/// The clean one-shot reference every successful tormented answer must
/// match bit for bit.  The test process carries no `SIGRULE_FAULTS`, so
/// its in-process fault points are unarmed.
struct Reference {
    significant: u64,
    n_tests: u64,
    cutoff_bits: u64,
    p_value_bits: Vec<u64>,
}

fn reference(min_sup: usize, permutations: usize, seed: u64) -> Reference {
    let query = Query::new(RuleMiningConfig::new(min_sup))
        .with_correction(CorrectionApproach::Permutation, ErrorMetric::Fwer)
        .with_permutations(permutations)
        .with_seed(seed);
    let one_shot = Loader::default()
        .load_file(fixture())
        .unwrap()
        .into_engine()
        .query(&query)
        .unwrap();
    let mut rules: Vec<_> = one_shot
        .result
        .significant_rules()
        .into_iter()
        .cloned()
        .collect();
    sigrule::rule::sort_by_significance(&mut rules);
    Reference {
        significant: one_shot.result.n_significant() as u64,
        n_tests: one_shot.result.n_tests as u64,
        cutoff_bits: one_shot.result.p_value_cutoff.unwrap().to_bits(),
        p_value_bits: rules.iter().map(|r| r.p_value.to_bits()).collect(),
    }
}

fn assert_matches_reference(resp: &Json, reference: &Reference, context: &str) {
    assert_eq!(
        resp.get("significant").and_then(Json::as_u64),
        Some(reference.significant),
        "{context}: significant"
    );
    assert_eq!(
        resp.get("hypothesis_tests").and_then(Json::as_u64),
        Some(reference.n_tests),
        "{context}: hypothesis_tests"
    );
    let cutoff = resp
        .get("p_value_cutoff")
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{context}: cutoff missing in {}", resp.render()));
    assert_eq!(
        cutoff.to_bits(),
        reference.cutoff_bits,
        "{context}: cutoff bits"
    );
    let rules = match resp.get("rules") {
        Some(Json::Array(rules)) => rules,
        other => panic!("{context}: rules should be an array, got {other:?}"),
    };
    assert_eq!(
        rules.len(),
        reference.p_value_bits.len(),
        "{context}: rule count"
    );
    for (i, (rule, expected)) in rules.iter().zip(&reference.p_value_bits).enumerate() {
        let p = rule.get("p_value").and_then(Json::as_f64).unwrap();
        assert_eq!(p.to_bits(), *expected, "{context}: rule {i} p-value bits");
    }
}

fn load_line(path: &std::path::Path) -> String {
    format!(r#"{{"cmd":"load","path":"{}"}}"#, path.to_str().unwrap())
}

fn correct_line(id: &str, extra_fields: &str) -> String {
    format!(
        r#"{{"id":"{id}","cmd":"correct",{extra_fields}"min_sup":8,"correction":"permutation","metric":"fwer","permutations":100,"seed":17,"alpha":0.05,"top":0}}"#
    )
}

/// A handler panic (injected at `req.correct`, first hit only) is trapped
/// into a structured `internal`/`transient` answer on the same
/// connection; the same request sent again succeeds and is bit-identical
/// to the clean one-shot run — the aborted attempt left no partial state.
#[test]
fn injected_panic_is_trapped_as_transient_internal_and_clean_on_retry() {
    let served = TormentedProcess::spawn("req.correct=panic@1");
    let mut client = served.connect();
    assert_ok(&client.request(&load_line(&fixture())).unwrap());

    let tormented = client.request(&correct_line("boom", "")).unwrap();
    assert_error(&tormented, "internal", "transient", "first (panicking) hit");

    // Same connection, same line: hit 2 of the plan is a no-op, and the
    // panic happened before any cache fill — the retry does the cold work.
    let retried = client.request(&correct_line("again", "")).unwrap();
    assert_ok(&retried);
    assert_eq!(
        retried.get("null_cached").and_then(Json::as_bool),
        Some(false),
        "the panicked attempt must not have left a cached null"
    );
    assert_matches_reference(&retried, &reference(8, 100, 17), "retry after panic");

    let bye = client.request(r#"{"cmd":"shutdown"}"#).unwrap();
    assert_ok(&bye);
    served.assert_clean_exit();
}

/// `sigrule client --retries N` absorbs an injected transient fault: the
/// scripted session sees only successes, and the corrected answer is
/// bit-identical to the clean one-shot run.
#[test]
fn client_subcommand_retries_absorb_injected_transient_panic() {
    let served = TormentedProcess::spawn("req.correct=panic@1");
    let script = format!(
        "{}\n{}\n{}\n",
        load_line(&fixture()),
        correct_line("q", ""),
        r#"{"id":"bye","cmd":"shutdown"}"#,
    );
    let mut client = Command::new(env!("CARGO_BIN_EXE_sigrule"))
        .args([
            "client",
            "--connect",
            &served.addr.to_string(),
            "--retries",
            "2",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("client runs");
    client
        .stdin
        .take()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let output = client.wait_with_output().expect("client exits");
    assert!(
        output.status.success(),
        "client failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let responses: Vec<Json> = String::from_utf8(output.stdout)
        .unwrap()
        .lines()
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("bad response {l:?}: {e}")))
        .collect();
    assert_eq!(responses.len(), 3, "one (post-retry) response per request");
    for resp in &responses {
        assert_ok(resp);
    }
    assert_matches_reference(
        &responses[1],
        &reference(8, 100, 17),
        "retried client answer",
    );
    served.assert_clean_exit();
}

/// Slow permutation chunks plus a short `timeout_ms` return a prompt
/// `deadline_exceeded`; the aborted fill leaves the null cell cold, so an
/// un-deadlined retry redoes the work and matches the clean run bit for
/// bit, and a further repeat is served warm.
#[test]
fn short_deadline_over_slow_chunks_aborts_promptly_and_leaves_cache_cold() {
    let served = TormentedProcess::spawn("perm.chunk=delay:150");
    let mut client = served.connect();
    assert_ok(&client.request(&load_line(&fixture())).unwrap());

    let started = Instant::now();
    // One thread: the 100 permutations are two 64-permutation chunks, and
    // on more threads both would start before the deadline fires and the
    // fill would complete.  On one, the second chunk's cancellation check
    // comes after the first chunk's 150ms sleep.
    let tormented = client
        .request(&correct_line("rushed", r#""timeout_ms":30,"threads":1,"#))
        .unwrap();
    let elapsed = started.elapsed();
    assert_error(&tormented, "deadline_exceeded", "transient", "rushed query");
    // Prompt: chunks between cancellation checks sleep 150ms each, so an
    // abort must come after one chunk and beat the full two-chunk run by a
    // wide margin.  (The generous bound keeps slow CI machines green.)
    assert!(elapsed < Duration::from_secs(10), "abort took {elapsed:?}");

    // The engine counted the cancellation, and the null cell is cold: the
    // retry recomputes (null_cached:false) and matches bit for bit.
    let stats = client.request(r#"{"cmd":"stats"}"#).unwrap();
    assert_ok(&stats);
    assert!(
        stats
            .get("cancelled_queries")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            >= 1,
        "cancelled_queries should tick: {}",
        stats.render()
    );
    let retried = client.request(&correct_line("patient", "")).unwrap();
    assert_ok(&retried);
    assert_eq!(
        retried.get("null_cached").and_then(Json::as_bool),
        Some(false),
        "aborted fill must leave the null cell cold, not partial"
    );
    let reference = reference(8, 100, 17);
    assert_matches_reference(&retried, &reference, "retry after deadline");

    // And the successful fill is complete: a repeat is warm and identical.
    let warm = client.request(&correct_line("warm", "")).unwrap();
    assert_ok(&warm);
    assert_eq!(warm.get("null_cached").and_then(Json::as_bool), Some(true));
    assert_matches_reference(&warm, &reference, "warm repeat after deadline");

    let bye = client.request(r#"{"cmd":"shutdown"}"#).unwrap();
    assert_ok(&bye);
    served.assert_clean_exit();
}

/// Drops wall-clock fields (summary `load_ms`/`mine_ms`, the comparison
/// table's `time_ms` column) so a distributed and a single-process
/// `correct` report compare bit for bit on everything that matters.
fn strip_timings(json: &mut Json) {
    match json {
        Json::Object(fields) => {
            fields.retain(|(key, _)| key != "load_ms" && key != "mine_ms");
            let time_col = fields
                .iter()
                .find_map(|(key, value)| match (key.as_str(), value) {
                    ("columns", Json::Array(cols)) => {
                        cols.iter().position(|c| c.as_str() == Some("time_ms"))
                    }
                    _ => None,
                });
            for (key, value) in fields.iter_mut() {
                match (key.as_str(), value, time_col) {
                    ("columns", Json::Array(cols), Some(idx)) => {
                        cols.remove(idx);
                    }
                    ("rows", Json::Array(rows), Some(idx)) => {
                        for row in rows {
                            if let Json::Array(cells) = row {
                                cells.remove(idx);
                            }
                        }
                    }
                    (_, value, _) => strip_timings(value),
                }
            }
        }
        Json::Array(items) => {
            for item in items {
                strip_timings(item);
            }
        }
        _ => {}
    }
}

/// A worker that dies mid-shard (injected panic at `shard.run`, first hit
/// only — by then the coordinator has already handed it a range) costs
/// time, never answers: the range is re-dispatched, the merged report is
/// bit-identical to a single-process run, and both workers still drain to
/// a clean `shutdown`.
#[test]
fn worker_killed_mid_shard_redispatches_and_matches_the_clean_run() {
    let dying = TormentedProcess::spawn("shard.run=panic@1");
    let clean = TormentedProcess::spawn("");
    let workers = format!("{},{}", dying.addr, clean.addr);
    let input = fixture();
    let base = [
        "correct",
        "--input",
        input.to_str().unwrap(),
        "--min-sup",
        "8",
        "--permutations",
        "100",
        "--seed",
        "17",
        "--format",
        "json",
    ];
    // The driver runs in-process: this test carries no SIGRULE_FAULTS, so
    // only the spawned workers are tormented.
    let mut argv: Vec<String> = base.iter().map(|s| s.to_string()).collect();
    argv.extend(["--workers".to_string(), workers]);
    let distributed = sigrule_cli::run(&argv);
    assert_eq!(
        distributed.exit_code, 0,
        "distributed run failed: {}",
        distributed.stderr
    );
    assert!(
        distributed.stderr.contains("re-dispatched"),
        "the dying worker's range should be re-dispatched (stderr: {})",
        distributed.stderr
    );

    let plain = sigrule_cli::run(&base.map(String::from));
    assert_eq!(plain.exit_code, 0, "plain run failed: {}", plain.stderr);

    let mut got = Json::parse(distributed.stdout.trim()).expect("distributed report is JSON");
    let mut want = Json::parse(plain.stdout.trim()).expect("plain report is JSON");
    strip_timings(&mut got);
    strip_timings(&mut want);
    assert_eq!(
        got.render(),
        want.render(),
        "distributed answer must be bit-identical to the single-process run"
    );

    for served in [dying, clean] {
        let mut client = served.connect();
        assert_ok(&client.request(r#"{"cmd":"shutdown"}"#).unwrap());
        served.assert_clean_exit();
    }
}

/// An injected read failure surfaces as a *permanent* `io` error — which
/// the retry machinery must NOT retry (a retry would succeed here, since
/// the fault fires on the first hit only, so an `ok` answer means the
/// client retried a permanent error).  A later explicit load succeeds and
/// serves bit-identical answers.
#[test]
fn injected_io_fault_is_permanent_not_retried_and_recoverable() {
    let served = TormentedProcess::spawn("load.read=io@1");
    let mut client = served.connect();

    let tormented = client
        .request_with_retry(&load_line(&fixture()), &RetryPolicy::with_max_retries(3))
        .unwrap();
    assert_error(&tormented, "io", "permanent", "first load");
    assert!(
        tormented
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("")
            .contains("injected IO fault"),
        "error message names the fault: {}",
        tormented.render()
    );

    // The operator fixes the file (here: the plan only fires once) and
    // loads again; everything downstream is clean.
    assert_ok(&client.request(&load_line(&fixture())).unwrap());
    let resp = client.request(&correct_line("q", "")).unwrap();
    assert_ok(&resp);
    assert_matches_reference(&resp, &reference(8, 100, 17), "load after io fault");

    let bye = client.request(r#"{"cmd":"shutdown"}"#).unwrap();
    assert_ok(&bye);
    served.assert_clean_exit();
}
