//! End-to-end smoke test for `sigrule serve` (ISSUE 4 acceptance): spawn the
//! binary, pipe a load + mine + correct + correct + stats + shutdown session
//! over stdin, and assert the JSON responses — the second (warm) permutation
//! correction must be answered without re-mining or re-permuting (the stage
//! timings prove it), and both responses must be bit-identical to a one-shot
//! `Loader` → `Engine` → `Query` run with the same seed.

use sigrule::engine::{Loader, Query};
use sigrule::{CorrectionApproach, ErrorMetric, RuleMiningConfig};
use sigrule_server::json::Json;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/retail_toy.basket")
}

/// Runs one serve session over the script and returns the response lines.
fn serve_session(script: &str) -> Vec<Json> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sigrule"))
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(script.as_bytes())
        .expect("script written");
    let output = child.wait_with_output().expect("serve exits");
    assert!(
        output.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout)
        .expect("responses are UTF-8")
        .lines()
        .map(|line| Json::parse(line).unwrap_or_else(|e| panic!("bad response {line:?}: {e}")))
        .collect()
}

fn by_id<'a>(responses: &'a [Json], id: &str) -> &'a Json {
    responses
        .iter()
        .find(|r| r.get("id").and_then(Json::as_str) == Some(id))
        .unwrap_or_else(|| panic!("no response with id {id:?}"))
}

fn assert_ok(resp: &Json) {
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(true),
        "expected ok: {}",
        resp.render()
    );
}

#[test]
fn warm_serve_answers_match_one_shot_pipeline_bit_for_bit() {
    let path = fixture();
    assert!(path.exists(), "fixture missing: {}", path.display());
    let path_str = path.to_str().unwrap();

    let correct = r#""cmd":"correct","min_sup":8,"correction":"permutation","metric":"fwer","alpha":0.05,"permutations":200,"seed":17,"top":0"#;
    let load_line = format!(r#"{{"id":"load","cmd":"load","path":"{path_str}"}}"#);
    let cold_line = format!(r#"{{"id":"cold",{correct}}}"#);
    let warm_line = format!(r#"{{"id":"warm",{correct}}}"#);
    let script = format!(
        "{}\n{}\n{}\n{}\n{}\n{}\n",
        load_line,
        r#"{"id":"mine","cmd":"mine","min_sup":8}"#,
        cold_line,
        warm_line,
        r#"{"id":"stats","cmd":"stats"}"#,
        r#"{"id":"bye","cmd":"shutdown"}"#,
    );
    let responses = serve_session(&script);
    assert_eq!(responses.len(), 6, "one response per request");
    for resp in &responses {
        assert_ok(resp);
    }

    let load = by_id(&responses, "load");
    let n_records = load.get("records").and_then(Json::as_u64).unwrap();
    assert!(n_records > 0);
    assert_eq!(load.get("format").and_then(Json::as_str), Some("basket"));

    // The explicit mine populated the cache, so the first correct already
    // reuses the rule set; its null is still cold.
    let mine = by_id(&responses, "mine");
    assert_eq!(
        mine.get("mined_cached").and_then(Json::as_bool),
        Some(false)
    );
    let rules_mined = mine.get("rules_mined").and_then(Json::as_u64).unwrap();
    assert!(rules_mined > 0);

    let cold = by_id(&responses, "cold");
    assert_eq!(cold.get("mined_cached").and_then(Json::as_bool), Some(true));
    assert_eq!(cold.get("null_cached").and_then(Json::as_bool), Some(false));

    // The warm request re-mined nothing and re-permuted nothing: both cache
    // flags are set and the mine/null stage timings are exactly zero.
    let warm = by_id(&responses, "warm");
    assert_eq!(warm.get("mined_cached").and_then(Json::as_bool), Some(true));
    assert_eq!(warm.get("null_cached").and_then(Json::as_bool), Some(true));
    assert_eq!(warm.get("mine_ms").and_then(Json::as_f64), Some(0.0));
    assert_eq!(warm.get("null_ms").and_then(Json::as_f64), Some(0.0));
    assert!(
        cold.get("null_ms").and_then(Json::as_f64).unwrap() > 0.0,
        "the cold request actually permuted"
    );

    // Cold and warm answers are identical in every decision-bearing field.
    for field in [
        "method",
        "significant",
        "p_value_cutoff",
        "hypothesis_tests",
        "rules_mined",
        "rules",
    ] {
        assert_eq!(cold.get(field), warm.get(field), "field {field}");
    }

    // ... and bit-identical to a one-shot run with the same seed.
    let query = Query::new(RuleMiningConfig::new(8))
        .with_correction(CorrectionApproach::Permutation, ErrorMetric::Fwer)
        .with_permutations(200)
        .with_seed(17);
    let one_shot = Loader::default()
        .load_file(&path)
        .unwrap()
        .into_engine()
        .query(&query)
        .unwrap();
    assert_eq!(
        warm.get("significant").and_then(Json::as_u64),
        Some(one_shot.result.n_significant() as u64)
    );
    assert_eq!(
        warm.get("hypothesis_tests").and_then(Json::as_u64),
        Some(one_shot.result.n_tests as u64)
    );
    let cutoff = one_shot.result.p_value_cutoff.unwrap();
    // `{:e}` prints the shortest round-trippable representation, so parsing
    // the served number back yields the exact bits the library computed.
    let served_cutoff: f64 = warm.get("p_value_cutoff").and_then(Json::as_f64).unwrap();
    assert_eq!(
        served_cutoff.to_bits(),
        cutoff.to_bits(),
        "cutoff is bit-identical"
    );
    // Every served significant rule matches the library's, p-values included.
    let served_rules = match warm.get("rules") {
        Some(Json::Array(rules)) => rules,
        other => panic!("rules should be an array, got {other:?}"),
    };
    let mut expected: Vec<_> = one_shot
        .result
        .significant_rules()
        .into_iter()
        .cloned()
        .collect();
    sigrule::rule::sort_by_significance(&mut expected);
    assert_eq!(served_rules.len(), expected.len());
    let space = one_shot.mined.item_space();
    for (served, rule) in served_rules.iter().zip(expected.iter()) {
        let p_served: f64 = served.get("p_value").and_then(Json::as_f64).unwrap();
        assert_eq!(p_served.to_bits(), rule.p_value.to_bits());
        assert_eq!(
            served.get("class").and_then(Json::as_str),
            space.class_name(rule.class).ok()
        );
        assert_eq!(
            served.get("coverage").and_then(Json::as_u64),
            Some(rule.coverage as u64)
        );
        assert_eq!(
            served.get("support").and_then(Json::as_u64),
            Some(rule.support as u64)
        );
    }

    let stats = by_id(&responses, "stats");
    assert_eq!(stats.get("loaded").and_then(Json::as_bool), Some(true));
    assert_eq!(
        stats.get("cached_rule_sets").and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(stats.get("cached_nulls").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("null_hits").and_then(Json::as_u64), Some(1));
}

#[test]
fn async_queries_run_concurrently_and_permute_once() {
    let path = fixture();
    let correct = |id: &str, alpha: f64| {
        format!(
            r#"{{"id":"{id}","cmd":"correct","async":true,"min_sup":8,"correction":"permutation","permutations":100,"seed":3,"alpha":{alpha}}}"#
        )
    };
    let load_line = format!(
        r#"{{"id":"load","cmd":"load","path":"{}"}}"#,
        path.to_str().unwrap()
    );
    let script = format!(
        "{}\n{}\n{}\n{}\n{}\n{}\n",
        load_line,
        correct("q1", 0.05),
        correct("q2", 0.01),
        correct("q3", 0.1),
        correct("q4", 0.2),
        r#"{"id":"bye","cmd":"shutdown"}"#,
    );
    let responses = serve_session(&script);
    assert_eq!(responses.len(), 6);
    for resp in &responses {
        assert_ok(resp);
    }
    // However the four concurrent queries interleave, the once-cell caches
    // guarantee the rule set was mined once and the null collected once.
    let cold_nulls = ["q1", "q2", "q3", "q4"]
        .iter()
        .filter(|id| {
            by_id(&responses, id)
                .get("null_cached")
                .and_then(Json::as_bool)
                == Some(false)
        })
        .count();
    assert_eq!(cold_nulls, 1, "exactly one query collects the null");
    let cold_mines = ["q1", "q2", "q3", "q4"]
        .iter()
        .filter(|id| {
            by_id(&responses, id)
                .get("mined_cached")
                .and_then(Json::as_bool)
                == Some(false)
        })
        .count();
    assert_eq!(cold_mines, 1, "exactly one query mines");
    // All four agree on the hypothesis count (same rule set underneath).
    let tests: Vec<_> = ["q1", "q2", "q3", "q4"]
        .iter()
        .map(|id| {
            by_id(&responses, id)
                .get("hypothesis_tests")
                .and_then(Json::as_u64)
        })
        .collect();
    assert!(tests.windows(2).all(|w| w[0] == w[1]), "{tests:?}");
}

#[test]
fn serve_reports_errors_and_keeps_running() {
    let path = fixture();
    let load_line = format!(
        r#"{{"id":"ok","cmd":"load","path":"{}"}}"#,
        path.to_str().unwrap()
    );
    let script = format!(
        "{}\n{}\n{}\n{}\n",
        r#"{"id":"e1","cmd":"correct"}"#,
        r#"{"id":"e2","cmd":"correct","correction":"nope"}"#,
        load_line,
        r#"{"id":"bye","cmd":"shutdown"}"#,
    );
    let responses = serve_session(&script);
    assert_eq!(responses.len(), 4);
    let e1 = by_id(&responses, "e1");
    assert_eq!(e1.get("ok").and_then(Json::as_bool), Some(false));
    assert!(e1
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("no dataset loaded"));
    // e2 errors because no dataset is loaded yet (requests before the load
    // barrier); the message still proves errors do not kill the session.
    let e2 = by_id(&responses, "e2");
    assert_eq!(e2.get("ok").and_then(Json::as_bool), Some(false));
    assert_ok(by_id(&responses, "ok"));
    assert_ok(by_id(&responses, "bye"));
}

#[test]
fn deeply_nested_line_is_rejected_and_the_session_survives() {
    // One line of 500k `[`: an uncapped recursive parser overflows the
    // stack on it, which aborts the whole process.
    let path = fixture();
    let script = format!(
        "{}\n{}\n{}\n",
        "[".repeat(500_000),
        format_args!(
            r#"{{"id":"ok","cmd":"load","path":"{}"}}"#,
            path.to_str().unwrap()
        ),
        r#"{"id":"bye","cmd":"shutdown"}"#,
    );
    // `serve_session` also asserts the process exits 0.
    let responses = serve_session(&script);
    assert_eq!(responses.len(), 3, "one response per line");
    let hostile = &responses[0];
    assert_eq!(hostile.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        hostile.get("code").and_then(Json::as_str),
        Some("invalid_request"),
        "{}",
        hostile.render()
    );
    assert_ok(by_id(&responses, "ok"));
    assert_ok(by_id(&responses, "bye"));
}

#[test]
fn serve_subcommand_via_run_points_at_the_binary() {
    // The buffered library entry point cannot stream; it must explain that
    // rather than misbehave.
    let outcome = sigrule_cli::run(&["serve".to_string()]);
    assert_eq!(outcome.exit_code, 2);
    assert!(outcome.stderr.contains("interactive"));
}
