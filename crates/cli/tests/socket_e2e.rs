//! End-to-end tests for the socket transports (ISSUE 5 acceptance): spawn
//! the real `sigrule` binary with `serve --listen ...`, drive it over TCP
//! and Unix sockets with many concurrent clients, and assert that
//!
//! * warm and cold answers — whichever client asked — are bit-identical to
//!   a fresh one-shot `Loader` → `Engine` → `Query` run (cutoff and
//!   per-rule p-values);
//! * a byte budget that forces eviction changes costs, never answers, and
//!   registry resident bytes stay under the budget;
//! * `shutdown` drains in-flight async workers on *other* connections
//!   before the process exits (the drain regression test);
//! * the `sigrule client` subcommand pipes a whole session;
//! * a request line over the 1 MiB cap is answered with `invalid_request`
//!   and skipped, without closing the connection;
//! * a long multi-byte string line is parsed in linear time, while other
//!   connections keep answering;
//! * a seed of `u64::MAX` crosses the socket and the worker wire exactly.
//!
//! Every client read carries a hard timeout, so a hung accept loop or a
//! lost response fails the test in seconds instead of stalling CI (the CI
//! job additionally wraps this test binary in a `timeout`).

use sigrule::engine::{Loader, Query};
use sigrule::{CorrectionApproach, ErrorMetric, RuleMiningConfig};
use sigrule_server::json::Json;
use sigrule_server::transport::ListenAddr;
use sigrule_server::ClientStream;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Per-read client timeout: far above the slowest cold query on the toy
/// fixture, far below any CI job timeout.
const READ_TIMEOUT: Duration = Duration::from_secs(120);

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/retail_toy.basket")
}

/// A spawned `sigrule serve --listen ...` process; killed on drop so a
/// failing test never leaks a listener.
struct ServedProcess {
    child: Child,
    addr: ListenAddr,
}

impl ServedProcess {
    fn spawn(listen: &str, extra_flags: &[&str]) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_sigrule"))
            .args(["serve", "--listen", listen])
            .args(extra_flags)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        // The first stdout line is the ready line with the bound address.
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
        ServedProcess { child, addr }
    }

    fn connect(&self) -> ClientStream {
        let mut client = ClientStream::connect(&self.addr).expect("connect");
        client
            .set_read_timeout(Some(READ_TIMEOUT))
            .expect("read timeout");
        client
    }

    /// Waits for the process to exit (after a shutdown request) and asserts
    /// a clean exit code.
    fn assert_clean_exit(mut self) {
        let status = self.child.wait().expect("serve exits");
        assert!(status.success(), "serve exited with {status:?}");
        // Forget the child so Drop does not try to kill a reaped process.
        std::mem::forget(self);
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

/// The reference answer every served response must match bit for bit.
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

fn correct_line(id: &str, dataset: &str, alpha: f64, asynchronous: bool) -> String {
    let async_field = if asynchronous { r#""async":true,"# } else { "" };
    format!(
        r#"{{"id":"{id}","cmd":"correct",{async_field}"dataset":"{dataset}","min_sup":8,"correction":"permutation","metric":"fwer","permutations":100,"seed":17,"alpha":{alpha},"top":0}}"#
    )
}

/// N clients over TCP race warm and cold permutation queries on two named
/// datasets; every response is bit-identical to a fresh one-shot pipeline.
#[test]
fn tcp_multi_client_queries_are_bit_identical_to_one_shot_runs() {
    let served = ServedProcess::spawn("tcp:127.0.0.1:0", &[]);
    let path = fixture();
    let path_str = path.to_str().unwrap();

    // One admin connection loads the same fixture under two names.
    let mut admin = served.connect();
    for name in ["a", "b"] {
        let resp = admin
            .request(&format!(
                r#"{{"cmd":"load","path":"{path_str}","name":"{name}"}}"#
            ))
            .unwrap();
        assert_ok(&resp);
    }

    let reference = reference(8, 100, 17);
    // Four clients race: two per dataset, same query — the engine's
    // once-cells make one of each pair cold and the other warm, whatever
    // the interleaving; answers must be identical either way.
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let dataset = if i % 2 == 0 { "a" } else { "b" };
            let served = &served;
            let line = correct_line("q", dataset, 0.05, false);
            let mut client = served.connect();
            std::thread::spawn(move || {
                let resp = client.request(&line).unwrap();
                (resp, i)
            })
        })
        .collect();
    let mut cold = 0;
    for handle in handles {
        let (resp, i) = handle.join().unwrap();
        assert_ok(&resp);
        assert_matches_reference(&resp, &reference, &format!("racing client {i}"));
        if resp.get("null_cached").and_then(Json::as_bool) == Some(false) {
            cold += 1;
        }
    }
    // Exactly one client per dataset collected the null.
    assert_eq!(cold, 2, "one cold null per dataset");

    // A warm repeat over yet another connection: fully cached, still
    // bit-identical.
    let mut late = served.connect();
    let resp = late
        .request(&correct_line("warm", "a", 0.05, false))
        .unwrap();
    assert_ok(&resp);
    assert_eq!(resp.get("mined_cached").and_then(Json::as_bool), Some(true));
    assert_eq!(resp.get("null_cached").and_then(Json::as_bool), Some(true));
    assert_matches_reference(&resp, &reference, "warm repeat");

    // registry_stats sees both datasets and their resident bytes.
    let stats = late.request(r#"{"cmd":"registry_stats"}"#).unwrap();
    assert_ok(&stats);
    assert_eq!(stats.get("datasets_loaded").and_then(Json::as_u64), Some(2));
    assert!(stats.get("resident_bytes").and_then(Json::as_u64).unwrap() > 0);

    let bye = admin.request(r#"{"cmd":"shutdown"}"#).unwrap();
    assert_ok(&bye);
    served.assert_clean_exit();
}

/// The same workload over a Unix socket, with a byte budget that forces
/// eviction after every request: re-queried datasets recompute and still
/// match bit-identically, while resident bytes stay under the budget.
#[cfg(unix)]
#[test]
fn unix_socket_eviction_recomputes_bit_identically_under_budget() {
    let sock = std::env::temp_dir().join(format!("sigrule_e2e_{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    // A 0 MiB budget is the harshest policy: every cache entry is evicted
    // as soon as the request that filled it completes.
    let served = ServedProcess::spawn(
        &format!("unix:{}", sock.display()),
        &["--cache-budget-mb", "0"],
    );
    let path = fixture();
    let path_str = path.to_str().unwrap();

    let mut client = served.connect();
    for name in ["a", "b"] {
        let resp = client
            .request(&format!(
                r#"{{"cmd":"load","path":"{path_str}","name":"{name}"}}"#
            ))
            .unwrap();
        assert_ok(&resp);
    }

    let reference = reference(8, 100, 17);
    // Alternate datasets for three rounds: with everything evicted between
    // requests, every query is a recompute — and every answer identical.
    for round in 0..3 {
        for dataset in ["a", "b"] {
            let resp = client
                .request(&correct_line("q", dataset, 0.05, false))
                .unwrap();
            assert_ok(&resp);
            assert_eq!(
                resp.get("null_cached").and_then(Json::as_bool),
                Some(false),
                "round {round}/{dataset}: eviction forces a recompute"
            );
            assert_matches_reference(&resp, &reference, &format!("round {round}/{dataset}"));
        }
    }

    let stats = client.request(r#"{"cmd":"registry_stats"}"#).unwrap();
    assert_ok(&stats);
    let resident = stats.get("resident_bytes").and_then(Json::as_u64).unwrap();
    let budget = stats.get("budget_bytes").and_then(Json::as_u64).unwrap();
    assert!(
        resident <= budget,
        "resident {resident} exceeds budget {budget}"
    );
    assert!(
        stats.get("evictions").and_then(Json::as_u64).unwrap() >= 6,
        "every round evicted"
    );

    let bye = client.request(r#"{"cmd":"shutdown"}"#).unwrap();
    assert_ok(&bye);
    served.assert_clean_exit();
    assert!(!sock.exists(), "socket file removed on graceful exit");
}

/// Regression test for the shutdown drain: an async worker still running on
/// one connection when another connection requests shutdown must deliver
/// its response before the process exits.
#[test]
fn shutdown_drains_async_workers_on_other_connections() {
    let served = ServedProcess::spawn("tcp:127.0.0.1:0", &[]);
    let path = fixture();
    let path_str = path.to_str().unwrap();

    let mut admin = served.connect();
    let resp = admin
        .request(&format!(r#"{{"cmd":"load","path":"{path_str}"}}"#))
        .unwrap();
    assert_ok(&resp);

    // The worker connection fires an async (cold, slow) query and does NOT
    // read; the admin connection requests shutdown as soon as the query is
    // in flight (the engine's query counter ticks at query start — the
    // drain guarantee covers accepted work, not bytes still in a socket
    // buffer).
    let mut worker = served.connect();
    worker
        .send(&correct_line("slow", "default", 0.05, true))
        .unwrap();
    loop {
        let stats = admin.request(r#"{"cmd":"stats"}"#).unwrap();
        if stats.get("queries").and_then(Json::as_u64).unwrap_or(0) >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let bye = admin.request(r#"{"id":"bye","cmd":"shutdown"}"#).unwrap();
    assert_ok(&bye);

    // The drain wrote the worker's full answer before the exit.
    let slow = worker.read_response().unwrap();
    assert_eq!(slow.get("id").and_then(Json::as_str), Some("slow"));
    assert_ok(&slow);
    assert_matches_reference(&slow, &reference(8, 100, 17), "drained worker");
    served.assert_clean_exit();
}

/// A TCP client that vanishes right after firing a cold async `correct`
/// must not leak its worker or stall anyone else: other connections keep
/// answering (bit-identically), and shutdown still drains and exits
/// cleanly.
#[test]
fn dropped_client_mid_cold_query_does_not_stall_other_connections() {
    let served = ServedProcess::spawn("tcp:127.0.0.1:0", &[]);
    let path = fixture();
    let path_str = path.to_str().unwrap();

    let mut admin = served.connect();
    let resp = admin
        .request(&format!(r#"{{"cmd":"load","path":"{path_str}"}}"#))
        .unwrap();
    assert_ok(&resp);

    // The doomed connection fires a cold async query, never reads, and is
    // dropped as soon as the engine has accepted the work.
    {
        let mut doomed = served.connect();
        doomed
            .send(&correct_line("doomed", "default", 0.05, true))
            .unwrap();
        loop {
            let stats = admin.request(r#"{"cmd":"stats"}"#).unwrap();
            if stats.get("queries").and_then(Json::as_u64).unwrap_or(0) >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    } // <- socket closed here, mid-flight

    // Other connections are not stalled: a fresh client runs the same
    // query and gets the full, bit-identical answer (whether it shares
    // the doomed worker's fill or redoes the work itself).
    let mut survivor = served.connect();
    let resp = survivor
        .request(&correct_line("live", "default", 0.05, false))
        .unwrap();
    assert_ok(&resp);
    assert_matches_reference(&resp, &reference(8, 100, 17), "survivor after drop");

    // Shutdown drains whatever is left of the doomed worker and exits
    // cleanly — a leaked worker would hang the drain (and trip the CI
    // timeout wrapping this binary).
    let bye = survivor.request(r#"{"cmd":"shutdown"}"#).unwrap();
    assert_ok(&bye);
    served.assert_clean_exit();
}

/// The per-line byte cap of the socket transport (1 MiB): a client that
/// never sends a newline gets one structured `invalid_request` as soon as it
/// crosses the cap, the rest of its line is skipped, and the same
/// connection keeps serving — while other connections are never affected.
#[test]
fn oversized_line_is_rejected_before_its_newline_and_the_connection_survives() {
    const CAP: usize = 1 << 20;
    let served = ServedProcess::spawn("tcp:127.0.0.1:0", &[]);
    let ListenAddr::Tcp(addr) = &served.addr else {
        panic!("tcp listener expected");
    };
    let mut hostile = std::net::TcpStream::connect(addr.as_str()).expect("connect");
    hostile
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    hostile
        .write_all(&vec![b'x'; CAP + 1])
        .expect("send cap+1 bytes");
    let mut reader = BufReader::new(hostile.try_clone().expect("clone"));
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("the error arrives before any newline is sent");
    let resp = Json::parse(line.trim()).expect("error line is JSON");
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(false),
        "{line}"
    );
    assert_eq!(
        resp.get("code").and_then(Json::as_str),
        Some("invalid_request"),
        "{line}"
    );

    // Another connection is served meanwhile.
    let mut other = served.connect();
    assert_ok(&other.request(r#"{"cmd":"registry_stats"}"#).unwrap());

    // More of the oversized line is skipped; the next line is served.
    hostile.write_all(&[b'y'; 4096]).unwrap();
    hostile.write_all(b"\n{\"cmd\":\"stats\"}\n").unwrap();
    line.clear();
    reader.read_line(&mut line).expect("stats answer");
    let resp = Json::parse(line.trim()).expect("stats answer is JSON");
    assert_ok(&resp);
    assert_eq!(resp.get("cmd").and_then(Json::as_str), Some("stats"));

    assert_ok(&other.request(r#"{"cmd":"shutdown"}"#).unwrap());
    served.assert_clean_exit();
}

/// A line just under the 1 MiB cap whose string field is all two-byte
/// characters: the connection that sent it is answered within seconds (a
/// structured rejection of the unknown field), and another connection's
/// `stats` is answered meanwhile.  A JSON parser that rescans the rest of
/// the line per character would pin a core for minutes on this line.
#[test]
fn long_multibyte_string_line_is_answered_promptly() {
    const PROMPT: Duration = Duration::from_secs(30);
    let served = ServedProcess::spawn("tcp:127.0.0.1:0", &[]);
    let mut hostile = served.connect();
    hostile.set_read_timeout(Some(PROMPT)).unwrap();
    let payload = "é".repeat(500_000);
    hostile
        .send(&format!(r#"{{"cmd":"stats","x":"{payload}"}}"#))
        .unwrap();

    let mut other = served.connect();
    other.set_read_timeout(Some(PROMPT)).unwrap();
    let resp = other.request(r#"{"cmd":"stats"}"#).unwrap();
    assert_eq!(resp.get("cmd").and_then(Json::as_str), Some("stats"));
    assert_ok(&resp);

    let answer = hostile
        .read_response()
        .expect("the long line is answered promptly");
    assert_eq!(answer.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        answer.get("code").and_then(Json::as_str),
        Some("invalid_request")
    );

    assert_ok(&other.request(r#"{"cmd":"shutdown"}"#).unwrap());
    served.assert_clean_exit();
}

/// `sigrule client` pipes a scripted session into a served process.
#[cfg(unix)]
#[test]
fn client_subcommand_pipes_a_session() {
    let sock = std::env::temp_dir().join(format!("sigrule_cli_e2e_{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let served = ServedProcess::spawn(&format!("unix:{}", sock.display()), &[]);
    let path = fixture();

    let load_line = format!(
        r#"{{"id":"load","cmd":"load","path":"{}"}}"#,
        path.to_str().unwrap()
    );
    let script = format!(
        "{load_line}\n{}\n{}\n{}\n",
        r#"{"id":"q","cmd":"correct","min_sup":8,"correction":"bonferroni"}"#,
        r#"{"id":"r","cmd":"registry_stats"}"#,
        r#"{"id":"bye","cmd":"shutdown"}"#,
    );
    let mut client = Command::new(env!("CARGO_BIN_EXE_sigrule"))
        .args(["client", "--connect", &format!("unix:{}", sock.display())])
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
    assert_eq!(responses.len(), 4, "one response per request");
    for resp in &responses {
        assert_ok(resp);
    }
    let ids: Vec<&str> = responses
        .iter()
        .map(|r| r.get("id").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(ids, vec!["load", "q", "r", "bye"]);
    served.assert_clean_exit();
}

/// `sigrule correct --format json` run in-process; the report's rows by
/// method name.
fn cli_rows(extra: &[&str]) -> (Json, String) {
    let input = fixture();
    let mut argv: Vec<String> = [
        "correct",
        "--input",
        input.to_str().unwrap(),
        "--min-sup",
        "8",
        "--permutations",
        "400",
        "--seed",
        "18446744073709551615",
        "--threads",
        "1",
        "--format",
        "json",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    argv.extend(extra.iter().map(|s| s.to_string()));
    let run = sigrule_cli::run(&argv);
    assert_eq!(run.exit_code, 0, "correct failed: {}", run.stderr);
    let report = Json::parse(run.stdout.trim()).expect("report is JSON");
    let rows = match report.get("tables") {
        Some(Json::Array(tables)) => tables[0].get("rows").cloned().unwrap(),
        other => panic!("no tables: {other:?}"),
    };
    (rows, run.stderr)
}

/// A seed above 2^53 (here `u64::MAX`) is exact end to end: served, it
/// gives the one-shot CLI's permutation rows and is echoed back exactly;
/// as a `--workers` run it reaches the worker's `perm_shard` intact, so
/// the worker runs shards instead of refusing the seed.
#[test]
fn u64_max_seed_is_exact_over_the_socket_and_the_worker_wire() {
    let served = ServedProcess::spawn("tcp:127.0.0.1:0", &[]);
    let mut client = served.connect();
    let path = fixture();
    assert_ok(
        &client
            .request(&format!(
                r#"{{"cmd":"load","path":"{}"}}"#,
                path.to_str().unwrap()
            ))
            .unwrap(),
    );

    let (plain, _) = cli_rows(&[]);
    let Json::Array(rows) = plain.clone() else {
        panic!("rows should be an array")
    };
    for (metric, method) in [("fwer", "Perm_FWER"), ("fdr", "Perm_FDR")] {
        let resp = client
            .request(&format!(
                r#"{{"cmd":"correct","min_sup":8,"correction":"permutation","metric":"{metric}","permutations":400,"seed":18446744073709551615,"threads":1,"top":0}}"#
            ))
            .unwrap();
        assert_ok(&resp);
        assert_eq!(resp.get("seed").and_then(Json::as_u64), Some(u64::MAX));
        let row = rows
            .iter()
            .find(|row| matches!(row, Json::Array(cells) if cells[0].as_str() == Some(method)))
            .unwrap_or_else(|| panic!("no {method} row"));
        let Json::Array(cells) = row else {
            unreachable!()
        };
        assert_eq!(
            cells[4].as_str().map(str::to_string),
            resp.get("significant")
                .and_then(Json::as_u64)
                .map(|n| n.to_string()),
            "{method}: significant"
        );
        let cutoff = match resp.get("p_value_cutoff") {
            Some(Json::Null) => "-".to_string(),
            Some(value) => format!("{:.6e}", value.as_f64().unwrap()),
            None => panic!("{method}: no cutoff"),
        };
        assert_eq!(cells[5].as_str(), Some(cutoff.as_str()), "{method}: cutoff");
    }

    // The same seed scattered to the served process as a worker.
    let (distributed, stderr) = cli_rows(&["--workers", &served.addr.to_string()]);
    let drop_time = |rows: Json| match rows {
        Json::Array(rows) => rows
            .into_iter()
            .map(|row| match row {
                Json::Array(mut cells) => {
                    cells.pop();
                    Json::Array(cells)
                }
                other => other,
            })
            .collect::<Vec<_>>(),
        other => panic!("rows should be an array, got {other:?}"),
    };
    assert_eq!(drop_time(distributed), drop_time(plain));
    assert!(
        !stderr.contains("lost") && !stderr.contains("skipped"),
        "the worker must accept the seed: {stderr}"
    );
    let stats = client.request(r#"{"cmd":"registry_stats"}"#).unwrap();
    let Some(Json::Array(datasets)) = stats.get("datasets") else {
        panic!("registry_stats lists datasets: {}", stats.render())
    };
    let shard_mines: u64 = datasets
        .iter()
        .filter(|d| {
            d.get("name")
                .and_then(Json::as_str)
                .is_some_and(|n| n.starts_with("cli:"))
        })
        .filter_map(|d| d.get("mine_misses").and_then(Json::as_u64))
        .sum();
    assert!(
        shard_mines >= 1,
        "no shard ran on the worker: {}",
        stats.render()
    );

    assert_ok(&client.request(r#"{"cmd":"shutdown"}"#).unwrap());
    served.assert_clean_exit();
}
