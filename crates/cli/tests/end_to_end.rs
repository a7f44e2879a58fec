//! End-to-end acceptance tests for the `sigrule` binary (ISSUE 2):
//! `sigrule mine --correction permutation --format json` on a CSV exported
//! from the synthetic generator must report exactly the significant rule set
//! the library API produces with the same seed.

use sigrule::correction::permutation::PermutationCorrection;
use sigrule::{mine_rules, RuleMiningConfig};
use sigrule_data::loader::{dataset_to_csv, load_csv_file, LoadOptions};
use sigrule_synth::{SyntheticGenerator, SyntheticParams};
use std::path::PathBuf;
use std::process::Command;

/// Writes a synthetic dataset with embedded rules to a temp CSV and returns
/// its path.
fn exported_csv(name: &str, seed: u64) -> PathBuf {
    let params = SyntheticParams::default()
        .with_records(400)
        .with_attributes(8)
        .with_rules(2)
        .with_coverage(80, 100)
        .with_confidence(0.85, 0.95);
    let (dataset, _) = SyntheticGenerator::new(params).unwrap().generate(seed);
    let path = std::env::temp_dir().join(format!("sigrule_e2e_{name}_{}.csv", std::process::id()));
    std::fs::write(&path, dataset_to_csv(&dataset)).unwrap();
    path
}

fn sigrule(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_sigrule"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn mine_permutation_json_matches_library_api() {
    let csv = exported_csv("mine", 42);
    let csv_str = csv.to_str().unwrap();
    let seed = 17; // the CLI default, passed explicitly on the library side

    let output = sigrule(&[
        "mine",
        "--input",
        csv_str,
        "--class",
        "class",
        "--correction",
        "permutation",
        "--permutations",
        "1000",
        "--format",
        "json",
        "--top",
        "0",
    ]);
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).unwrap();

    // The same pipeline through the library API: load with the loader the
    // CLI uses, mine with the CLI's default config (min_sup = 1% of records),
    // correct with the permutation engine at the CLI's default seed.
    let dataset = load_csv_file(&csv, &LoadOptions::default().with_class_name("class")).unwrap();
    let min_sup = (dataset.n_records() / 100).max(2);
    let mined = mine_rules(&dataset, &RuleMiningConfig::new(min_sup));
    let result = PermutationCorrection::new(1000)
        .with_seed(seed)
        .control_fwer(&mined, 0.05);

    assert!(
        result.n_significant() > 0,
        "the embedded rules should survive permutation-based FWER control"
    );
    assert!(stdout.contains(&format!("\"significant\":\"{}\"", result.n_significant())));

    // Every significant rule the library reports must appear in the CLI's
    // JSON rule table with identical statistics.
    let space = mined.item_space();
    for rule in result.significant_rules() {
        let lhs: Vec<String> = rule
            .pattern
            .items()
            .iter()
            .map(|&i| space.describe_item(i))
            .collect();
        let expected_row = format!(
            "[\"{}\",\"{}\",\"{}\",\"{}\",\"{:.4}\",\"{:.6e}\"]",
            lhs.join(" AND "),
            space.class_name(rule.class).unwrap(),
            rule.coverage,
            rule.support,
            rule.confidence(),
            rule.p_value
        );
        assert!(
            stdout.contains(&expected_row),
            "missing rule row {expected_row} in CLI output"
        );
    }

    std::fs::remove_file(&csv).ok();
}

#[test]
fn seed_and_threads_flags_are_deterministic() {
    let csv = exported_csv("seed", 7);
    let csv_str = csv.to_str().unwrap();
    let base = [
        "mine",
        "--input",
        csv_str,
        "--correction",
        "permutation",
        "--permutations",
        "200",
        "--seed",
        "5",
        "--format",
        "json",
    ];

    let default_pool = sigrule(&base);
    assert!(default_pool.status.success());
    let mut pinned_args: Vec<&str> = base.to_vec();
    pinned_args.extend(["--threads", "2"]);
    let pinned = sigrule(&pinned_args);
    assert!(pinned.status.success());
    // The permutation statistics are bit-identical at any thread count, so
    // the whole report matches once the wall-clock fields are stripped.
    let strip_timings = |raw: &[u8]| {
        let text = String::from_utf8(raw.to_vec()).unwrap();
        let head = text.split("\"load_ms\"").next().unwrap().to_string();
        let tables = text.split("\"tables\"").nth(1).unwrap().to_string();
        (head, tables)
    };
    assert_eq!(
        strip_timings(&default_pool.stdout),
        strip_timings(&pinned.stdout)
    );

    std::fs::remove_file(&csv).ok();
}

#[test]
fn malformed_input_exits_nonzero_with_line_number() {
    let path = std::env::temp_dir().join(format!("sigrule_e2e_bad_{}.csv", std::process::id()));
    std::fs::write(&path, "a,b,cls\n1,2,x\n3,y\n4,5,x\n").unwrap();
    let output = sigrule(&["mine", "--input", path.to_str().unwrap()]);
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("line 3"), "stderr: {stderr}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn unknown_class_column_names_the_candidates() {
    let path = std::env::temp_dir().join(format!("sigrule_e2e_cls_{}.csv", std::process::id()));
    std::fs::write(&path, "a,b,cls\n1,2,x\n3,4,y\n").unwrap();
    let output = sigrule(&[
        "mine",
        "--input",
        path.to_str().unwrap(),
        "--class",
        "label",
    ]);
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("label") && stderr.contains("cls"),
        "stderr: {stderr}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn usage_errors_exit_2() {
    let output = sigrule(&["mine", "--frobnicate", "1"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown option"));

    let output = sigrule(&["definitely-not-a-subcommand"]);
    assert_eq!(output.status.code(), Some(2));
}

/// Out-of-range mining thresholds are usage errors on every mining
/// subcommand, not a silent run with no rules.
#[test]
fn out_of_range_mining_thresholds_exit_2() {
    let fixture = basket_fixture();
    for (flag, value, field) in [
        ("--min-conf", "1.5", "min_conf"),
        ("--min-conf", "-3", "min_conf"),
        ("--min-conf", "NaN", "min_conf"),
        ("--max-length", "0", "max_length"),
        ("--min-sup", "0", "min_sup"),
    ] {
        for command in ["correct", "mine"] {
            let output = sigrule(&[
                command,
                "--input",
                fixture.to_str().unwrap(),
                "--permutations",
                "10",
                flag,
                value,
            ]);
            assert_eq!(output.status.code(), Some(2), "{command} {flag} {value}");
            assert!(output.stdout.is_empty(), "{command} {flag} {value}");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(stderr.contains(field), "{command} {flag} {value}: {stderr}");
        }
    }
}

/// The checked-in basket fixture (see `tests/fixtures.rs` at the workspace
/// root, which guards it against drift).
fn basket_fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/retail_toy.basket")
}

#[test]
fn mine_basket_fixture_with_permutation_correction() {
    let fixture = basket_fixture();
    let output = sigrule(&[
        "mine",
        "--input",
        fixture.to_str().unwrap(),
        "--input-format",
        "basket",
        "--min-sup",
        "12",
        "--correction",
        "permutation",
        "--permutations",
        "200",
        "--format",
        "json",
        "--top",
        "0",
    ]);
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.contains("\"input_format\":\"basket\""));
    assert!(stdout.contains("\"columns\":\"- (basket data)\""));

    // The same pipeline through the library API must agree rule-for-rule.
    let load = sigrule_data::loader::load_baskets_file(
        &fixture,
        &sigrule_data::loader::BasketOptions::default(),
    )
    .unwrap();
    let mined = mine_rules(&load.dataset, &RuleMiningConfig::new(12));
    let result = PermutationCorrection::new(200)
        .with_seed(17)
        .control_fwer(&mined, 0.05);
    assert!(
        result.n_significant() > 0,
        "the fixture's planted itemset should survive FWER control"
    );
    assert!(stdout.contains(&format!("\"significant\":\"{}\"", result.n_significant())));
    let space = mined.item_space();
    for rule in result.significant_rules() {
        let lhs: Vec<String> = rule
            .pattern
            .items()
            .iter()
            .map(|&i| space.describe_item(i))
            .collect();
        let expected_row = format!(
            "[\"{}\",\"{}\",\"{}\",\"{}\",\"{:.4}\",\"{:.6e}\"]",
            lhs.join(" AND "),
            space.class_name(rule.class).unwrap(),
            rule.coverage,
            rule.support,
            rule.confidence(),
            rule.p_value
        );
        assert!(
            stdout.contains(&expected_row),
            "missing rule row {expected_row} in CLI output"
        );
    }

    // Auto-detection picks the basket reader from the .basket extension.
    let auto = sigrule(&[
        "mine",
        "--input",
        fixture.to_str().unwrap(),
        "--min-sup",
        "12",
        "--format",
        "json",
    ]);
    assert!(auto.status.success());
    assert!(String::from_utf8_lossy(&auto.stdout).contains("\"input_format\":\"basket\""));
}

#[test]
fn basket_warnings_reach_stderr_without_breaking_json() {
    let path = std::env::temp_dir().join(format!("sigrule_e2e_warn_{}.basket", std::process::id()));
    std::fs::write(
        &path,
        "a b label:x\n\na c label:x\nb c label:y\nc d label:y\n",
    )
    .unwrap();
    let output = sigrule(&[
        "mine",
        "--input",
        path.to_str().unwrap(),
        "--min-sup",
        "1",
        "--format",
        "json",
    ]);
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("warning") && stderr.contains("line 2"),
        "stderr: {stderr}"
    );
    // stdout is still one clean JSON document
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.starts_with("{\"command\":\"mine\""));
    assert!(!stdout.contains("warning"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn strict_turns_loader_warnings_into_a_nonzero_exit() {
    let path =
        std::env::temp_dir().join(format!("sigrule_e2e_strict_{}.basket", std::process::id()));
    std::fs::write(
        &path,
        "a b label:x\n\na c label:x\nb c label:y\nc d label:y\n",
    )
    .unwrap();
    // Without --strict the blank line is a warning and the run succeeds
    // (covered above); with --strict it is fatal.
    let output = sigrule(&[
        "mine",
        "--input",
        path.to_str().unwrap(),
        "--min-sup",
        "1",
        "--strict",
    ]);
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("--strict") && stderr.contains("line 2"),
        "stderr: {stderr}"
    );
    assert!(output.stdout.is_empty(), "no report on a strict failure");
    std::fs::remove_file(&path).ok();
}

#[test]
fn unknown_correction_name_exits_2_naming_the_valid_values() {
    let csv = exported_csv("badcorr", 31);
    let output = sigrule(&[
        "mine",
        "--input",
        csv.to_str().unwrap(),
        "--correction",
        "bogus",
    ]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    for name in [
        "none",
        "bonferroni",
        "bh",
        "permutation",
        "holdout",
        "bogus",
    ] {
        assert!(
            stderr.contains(name),
            "stderr should mention {name}: {stderr}"
        );
    }
    std::fs::remove_file(&csv).ok();
}

#[test]
fn csv_format_emits_the_rule_table() {
    let csv = exported_csv("csvfmt", 9);
    let output = sigrule(&[
        "mine",
        "--input",
        csv.to_str().unwrap(),
        "--correction",
        "bonferroni",
        "--format",
        "csv",
    ]);
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.starts_with("rule,class,coverage,support,confidence,p_value\n"));
    std::fs::remove_file(&csv).ok();
}
