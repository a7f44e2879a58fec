//! Rendering a command's result in the three output formats.
//!
//! Every subcommand produces a [`Report`]: a summary (ordered key → value
//! pairs) plus one or more [`Table`]s.  `--format human` prints the summary
//! followed by aligned tables, `--format json` emits one JSON document, and
//! `--format csv` concatenates the tables as CSV.

use crate::args::Format;
use sigrule::rule::sort_by_significance;
use sigrule::{ClassRule, QueryOutcome};
use sigrule_eval::report::{fmt_float, json_string, Table};

/// A subcommand's printable result.
#[derive(Debug, Clone)]
pub struct Report {
    /// The subcommand that produced the report (`mine`, `correct`, `bench`).
    pub command: String,
    /// Ordered key → value summary pairs.
    pub summary: Vec<(String, String)>,
    /// Result tables.
    pub tables: Vec<Table>,
    /// Non-fatal warnings, printed to stderr (never into the formatted
    /// output, so JSON/CSV stay machine-readable).
    pub warnings: Vec<String>,
}

impl Report {
    /// Creates an empty report for a subcommand.
    pub fn new(command: &str) -> Self {
        Report {
            command: command.to_string(),
            summary: Vec::new(),
            tables: Vec::new(),
            warnings: Vec::new(),
        }
    }

    /// Appends a summary pair.
    pub fn add(&mut self, key: &str, value: impl ToString) {
        self.summary.push((key.to_string(), value.to_string()));
    }

    /// Renders the report in the requested format.
    pub fn render(&self, format: Format) -> String {
        match format {
            Format::Human => self.render_human(),
            Format::Json => self.render_json(),
            Format::Csv => self.render_csv(),
        }
    }

    fn render_human(&self) -> String {
        let mut out = String::new();
        let key_width = self.summary.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        for (key, value) in &self.summary {
            out.push_str(&format!("{key:<key_width$}  {value}\n"));
        }
        for table in &self.tables {
            out.push('\n');
            out.push_str(&table.render());
        }
        out
    }

    fn render_json(&self) -> String {
        let summary: Vec<String> = self
            .summary
            .iter()
            .map(|(k, v)| format!("{}:{}", json_string(k), json_string(v)))
            .collect();
        let tables: Vec<String> = self.tables.iter().map(Table::to_json).collect();
        format!(
            "{{\"command\":{},\"summary\":{{{}}},\"tables\":[{}]}}\n",
            json_string(&self.command),
            summary.join(","),
            tables.join(",")
        )
    }

    fn render_csv(&self) -> String {
        let mut out = String::new();
        for (i, table) in self.tables.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(&table.to_csv());
        }
        out
    }
}

/// Builds the significant-rules table of a query's outcome: rules sorted by
/// ascending p-value, capped at `top` rows (0 = no cap).
///
/// This is the table the end-to-end tests compare against the library API,
/// so the CLI binary and the test build it through the same code.
pub fn significant_rules_table(run: &QueryOutcome, top: usize) -> Table {
    let mut rules: Vec<ClassRule> = run
        .result
        .significant_rules()
        .into_iter()
        .cloned()
        .collect();
    sort_by_significance(&mut rules);
    let shown = if top == 0 {
        rules.len()
    } else {
        top.min(rules.len())
    };
    let mut table = Table::new(
        format!(
            "{} significant rules ({} shown), method {}",
            rules.len(),
            shown,
            run.result.method
        ),
        vec![
            "rule",
            "class",
            "coverage",
            "support",
            "confidence",
            "p_value",
        ],
    );
    let space = run.mined.item_space();
    for rule in rules.iter().take(shown) {
        let lhs: Vec<String> = rule
            .pattern
            .items()
            .iter()
            .map(|&i| space.describe_item(i))
            .collect();
        table.push_row(vec![
            lhs.join(" AND "),
            space.class_name(rule.class).unwrap_or("?").to_string(),
            rule.coverage.to_string(),
            rule.support.to_string(),
            format!("{:.4}", rule.confidence()),
            format!("{:.6e}", rule.p_value),
        ]);
    }
    table
}

/// Builds the one-row-per-method comparison table used by `sigrule correct`.
pub fn method_summary_row(result: &sigrule::CorrectionResult, millis: f64) -> Vec<String> {
    vec![
        result.method.clone(),
        result.metric.label().to_string(),
        fmt_float(result.alpha),
        result.n_tests.to_string(),
        result.n_significant().to_string(),
        result
            .p_value_cutoff
            .map(|c| format!("{c:.6e}"))
            .unwrap_or_else(|| "-".to_string()),
        format!("{millis:.1}"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_formats() {
        let mut report = Report::new("mine");
        report.add("records", 10);
        report.add("alpha", "0.05");
        let mut t = Table::new("demo", vec!["a"]);
        t.push_row(vec!["1".into()]);
        report.tables.push(t);

        let human = report.render(Format::Human);
        assert!(human.contains("records  10"));
        assert!(human.contains("# demo"));

        let json = report.render(Format::Json);
        assert!(json.starts_with("{\"command\":\"mine\""));
        assert!(json.contains("\"summary\":{\"records\":\"10\",\"alpha\":\"0.05\"}"));
        assert!(json.contains("\"tables\":[{\"title\":\"demo\""));

        let csv = report.render(Format::Csv);
        assert!(csv.starts_with("a\n1\n"));
    }
}
