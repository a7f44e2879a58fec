//! End-to-end tests for the unified observability layer:
//!
//! * **Bit-identity guard** — `sigrule correct` output bytes are identical
//!   with `SIGRULE_LOG=debug` vs unset and with metrics enabled vs
//!   `SIGRULE_METRICS=off`.  Observability must never change answers.
//! * **Trace propagation** — a coordinator's trace id rides `perm_shard`
//!   requests over real TCP and shows up in the remote worker's structured
//!   log, joining both processes on one trace.
//! * **Metrics scrape** — a spawned `sigrule serve` answers a `metrics`
//!   request with a Prometheus exposition covering the required families
//!   (the same contract `scripts/check_metrics.sh` validates in CI).
//! * **Slow-query log** — `--slow-query-ms 0` makes every query emit one
//!   structured slow-query record with the per-phase breakdown on stderr.
//! * **Counting without obs** — under `SIGRULE_METRICS=off` the `stats`
//!   counters still tick and the scrape is empty.

use sigrule_server::json::Json;
use sigrule_server::transport::ListenAddr;
use sigrule_server::ClientStream;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const READ_TIMEOUT: Duration = Duration::from_secs(120);

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/retail_toy.basket")
}

/// A spawned `sigrule serve --listen ...` process with env overrides;
/// killed on drop so a failing test never leaks a listener.
struct ServedProcess {
    child: Child,
    addr: ListenAddr,
}

impl ServedProcess {
    fn spawn(extra_flags: &[&str], env: &[(&str, &str)]) -> Self {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_sigrule"));
        cmd.args(["serve", "--listen", "tcp:127.0.0.1:0"])
            .args(extra_flags)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        for (key, value) in env {
            cmd.env(key, value);
        }
        let mut child = cmd.spawn().expect("binary runs");
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
            .expect("bound address");
        let addr = ListenAddr::parse(bound).expect("bound address parses");
        ServedProcess { child, addr }
    }

    fn connect(&self) -> ClientStream {
        let mut client = ClientStream::connect(&self.addr).expect("connect");
        client
            .set_read_timeout(Some(READ_TIMEOUT))
            .expect("read timeout");
        client
    }

    /// Shuts the server down via a request and returns everything it wrote
    /// to stderr (the structured log).
    fn shutdown_and_read_stderr(mut self) -> String {
        let mut client = self.connect();
        let bye = client.request(r#"{"cmd":"shutdown"}"#).expect("shutdown");
        assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true));
        let status = self.child.wait().expect("serve exits");
        assert!(status.success(), "serve exited with {status:?}");
        let mut stderr = String::new();
        self.child
            .stderr
            .take()
            .expect("stderr piped")
            .read_to_string(&mut stderr)
            .expect("stderr reads");
        std::mem::forget(self);
        stderr
    }
}

impl Drop for ServedProcess {
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

/// Runs `sigrule correct` once with the given env overrides and returns
/// raw stdout bytes.
fn correct_stdout(env: &[(&str, &str)]) -> Vec<u8> {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sigrule"));
    cmd.args([
        "correct",
        "--input",
        fixture().to_str().unwrap(),
        "--min-sup",
        "8",
        "--permutations",
        "60",
        "--seed",
        "17",
        "--format",
        "json",
    ])
    .stdin(Stdio::null())
    .stdout(Stdio::piped())
    .stderr(Stdio::piped());
    for (key, value) in env {
        cmd.env(key, value);
    }
    let output = cmd.output().expect("correct runs");
    assert!(
        output.status.success(),
        "correct failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    output.stdout
}

/// Blanks the wall-clock timing values (`*_ms":"…"` summary fields and the
/// numeric `time_ms` column closing each table row), which jitter between
/// *any* two runs.  Everything else — decisions, counts, p-value cutoffs —
/// must be bit-identical.
fn normalize_timings(raw: &[u8]) -> String {
    let text = String::from_utf8(raw.to_vec()).expect("stdout is UTF-8");
    // Pass 1: `"load_ms":"0.7"` → `"load_ms":"T"`, same for every *_ms key.
    let mut pass1 = String::with_capacity(text.len());
    let mut rest = text.as_str();
    while let Some(pos) = rest.find("_ms\":\"") {
        let after = pos + "_ms\":\"".len();
        pass1.push_str(&rest[..after]);
        pass1.push('T');
        let tail = &rest[after..];
        rest = &tail[tail.find('"').unwrap_or(tail.len())..];
    }
    pass1.push_str(rest);
    // Pass 2: a numeric string ending a JSON row array (`,"2.9"]`) is the
    // table's trailing time_ms column → `,"T"]`.
    let bytes = pass1.as_bytes();
    let mut out = String::with_capacity(pass1.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b',' && bytes.get(i + 1) == Some(&b'"') {
            let mut j = i + 2;
            while j < bytes.len() && (bytes[j].is_ascii_digit() || bytes[j] == b'.') {
                j += 1;
            }
            if j > i + 2 && bytes.get(j) == Some(&b'"') && bytes.get(j + 1) == Some(&b']') {
                out.push_str(",\"T\"]");
                i = j + 2;
                continue;
            }
        }
        out.push(bytes[i] as char);
        i += 1;
    }
    out
}

/// The acceptance-tested invariant: observability never changes answers.
/// Identical output bits (timing jitter aside) across SIGRULE_LOG
/// debug/unset × metrics on/off.
#[test]
fn correct_output_bytes_are_identical_across_observability_settings() {
    let baseline = normalize_timings(&correct_stdout(&[]));
    assert!(!baseline.is_empty());
    for (label, env) in [
        ("SIGRULE_LOG=debug", vec![("SIGRULE_LOG", "debug")]),
        ("SIGRULE_METRICS=off", vec![("SIGRULE_METRICS", "off")]),
        (
            "debug log + metrics off",
            vec![("SIGRULE_LOG", "debug"), ("SIGRULE_METRICS", "off")],
        ),
        ("SIGRULE_LOG=error", vec![("SIGRULE_LOG", "error")]),
    ] {
        let got = normalize_timings(&correct_stdout(&env));
        assert_eq!(
            got, baseline,
            "{label}: stdout bytes must not depend on observability settings"
        );
    }
}

/// A coordinator's trace id propagates over the wire: the remote worker's
/// structured log carries the same 32-hex id the coordinating server was
/// given, for both the shard requests and its own request-handled events.
#[test]
fn trace_id_propagates_to_a_remote_shard_worker() {
    let trace = "cafef00dcafef00dcafef00dcafef00d";
    let path = fixture();
    let path_str = path.to_str().unwrap();

    // The worker logs request milestones (info) as structured JSON.
    let worker = ServedProcess::spawn(&[], &[("SIGRULE_LOG", "info")]);
    let worker_addr = worker.addr.to_string();

    // The coordinator is a second served process; it receives the traced
    // request and scatters shards to the worker.
    let coordinator = ServedProcess::spawn(&[], &[("SIGRULE_LOG", "info")]);
    let mut client = coordinator.connect();
    let resp = client
        .request(&format!(r#"{{"cmd":"load","path":"{path_str}"}}"#))
        .unwrap();
    assert_ok(&resp);
    let resp = client
        .request(&format!(
            r#"{{"cmd":"correct","trace_id":"{trace}","min_sup":8,"correction":"permutation","permutations":100,"seed":17,"workers":"{worker_addr}"}}"#
        ))
        .unwrap();
    assert_ok(&resp);
    // The supplied trace id is echoed in the response.
    assert_eq!(resp.get("trace_id").and_then(Json::as_str), Some(trace));
    // The scatter actually used the worker (the process-wide shard
    // counters tick on the coordinating process).
    let stats = client.request(r#"{"cmd":"registry_stats"}"#).unwrap();
    assert_ok(&stats);
    assert!(
        stats
            .get("shards_remote")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            > 0,
        "the worker should have taken at least one range: {}",
        stats.render()
    );

    let worker_log = worker.shutdown_and_read_stderr();
    let coordinator_log = coordinator.shutdown_and_read_stderr();
    assert!(
        coordinator_log.contains(trace),
        "coordinator log should carry the trace id:\n{coordinator_log}"
    );
    let traced_shards: Vec<&str> = worker_log
        .lines()
        .filter(|l| l.contains(trace) && l.contains("perm_shard"))
        .collect();
    assert!(
        !traced_shards.is_empty(),
        "worker log should show perm_shard events on the coordinator's trace:\n{worker_log}"
    );
    // Structured, not prose: each matching line parses as a JSON event
    // with the trace_id field.
    for line in traced_shards {
        let event = Json::parse(line).unwrap_or_else(|e| panic!("bad log line {line:?}: {e}"));
        assert_eq!(event.get("trace_id").and_then(Json::as_str), Some(trace));
        assert!(event.get("level").and_then(Json::as_str).is_some());
    }
}

/// A spawned server's `metrics` scrape covers the families the CI
/// validator requires, and `--slow-query-ms 0` logs one structured record
/// per query with the phase breakdown.
#[test]
fn served_metrics_scrape_and_slow_query_log() {
    let path = fixture();
    let path_str = path.to_str().unwrap();
    let served = ServedProcess::spawn(&["--slow-query-ms", "0"], &[("SIGRULE_LOG", "warn")]);

    let mut client = served.connect();
    let resp = client
        .request(&format!(r#"{{"cmd":"load","path":"{path_str}"}}"#))
        .unwrap();
    assert_ok(&resp);
    let resp = client
        .request(
            r#"{"cmd":"correct","min_sup":8,"correction":"permutation","permutations":60,"seed":17}"#,
        )
        .unwrap();
    assert_ok(&resp);

    let scrape = client.request(r#"{"cmd":"metrics"}"#).unwrap();
    assert_ok(&scrape);
    let body = scrape.get("body").and_then(Json::as_str).unwrap();
    for family in [
        "sigrule_queries_total",
        "sigrule_cache_hits_total",
        "sigrule_cache_misses_total",
        "sigrule_cache_evictions_total",
        "sigrule_query_phase_seconds",
        "sigrule_cache_resident_bytes",
        "sigrule_shards_total",
        "sigrule_kernel_sweeps_total",
    ] {
        assert!(
            body.contains(&format!("# HELP {family} ")),
            "scrape missing family {family}:\n{body}"
        );
    }

    let stderr = served.shutdown_and_read_stderr();
    let slow: Vec<&str> = stderr
        .lines()
        .filter(|l| l.contains("\"msg\":\"slow query\""))
        .collect();
    assert!(
        !slow.is_empty(),
        "slow-query record expected at a 0 ms threshold:\n{stderr}"
    );
    let record = Json::parse(slow[0]).expect("slow-query record is JSON");
    assert_eq!(
        record.get("target").and_then(Json::as_str),
        Some("sigrule::serve::slow")
    );
    for field in ["cmd", "total_ms", "threshold_ms"] {
        assert!(record.get(field).is_some(), "missing {field}: {}", slow[0]);
    }
}

/// Counting does not depend on obs: with the registry switched off, the
/// engine still counts every event (`stats` reads the engine's own
/// atomics), while the scrape answers with no families at all.
#[test]
fn stats_count_with_metrics_off() {
    let path = fixture();
    let path_str = path.to_str().unwrap();
    let served = ServedProcess::spawn(&[], &[("SIGRULE_METRICS", "off")]);

    let mut client = served.connect();
    let resp = client
        .request(&format!(r#"{{"cmd":"load","path":"{path_str}"}}"#))
        .unwrap();
    assert_ok(&resp);
    let resp = client
        .request(
            r#"{"cmd":"correct","min_sup":8,"correction":"permutation","permutations":60,"seed":17}"#,
        )
        .unwrap();
    assert_ok(&resp);

    let stats = client.request(r#"{"cmd":"stats"}"#).unwrap();
    assert_ok(&stats);
    for (field, want) in [("queries", 1), ("mine_misses", 1), ("null_misses", 1)] {
        assert_eq!(
            stats.get(field).and_then(Json::as_u64),
            Some(want),
            "{field}: {}",
            stats.render()
        );
    }

    let scrape = client.request(r#"{"cmd":"metrics"}"#).unwrap();
    assert_ok(&scrape);
    let body = scrape.get("body").and_then(Json::as_str).unwrap();
    assert!(
        !body.contains("# HELP"),
        "metrics off must expose no family:\n{body}"
    );
    served.shutdown_and_read_stderr();
}

/// `sigrule client` forwards request lines as-is, so a trace id supplied on
/// stdin comes back on the matching response line.
#[test]
fn client_subcommand_round_trips_a_trace_id() {
    let trace = "0123456789abcdef0123456789abcdef";
    let served = ServedProcess::spawn(&[], &[]);
    let script = format!(
        "{}\n{}\n",
        format_args!(r#"{{"id":"s","cmd":"registry_stats","trace_id":"{trace}"}}"#),
        r#"{"id":"bye","cmd":"shutdown"}"#,
    );
    let mut client = Command::new(env!("CARGO_BIN_EXE_sigrule"))
        .args(["client", "--connect", &served.addr.to_string()])
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
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    let traced = stdout
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .find(|r| r.get("id").and_then(Json::as_str) == Some("s"))
        .expect("stats response present");
    assert_eq!(traced.get("trace_id").and_then(Json::as_str), Some(trace));
    // The server process exits on its own after the shutdown request.
    std::mem::forget(served);
}
