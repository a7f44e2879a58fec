//! The answer check's view of a `sigrule correct --format json` report:
//! the same document with every timing field removed, so two runs of the
//! same command compare byte for byte.

use sigrule_server::json::Json;

/// Whether a summary key or table column carries a wall-clock timing.
fn is_timing(name: &str) -> bool {
    name.ends_with("_ms")
}

/// Drops timing keys from the report's `summary` object and timing columns
/// from each of its `tables`, then renders the rest compactly.  Errors when
/// the text is not a JSON report.
pub fn normalize(report: &str) -> Result<String, String> {
    let json = Json::parse(report.trim()).map_err(|e| format!("report is not JSON: {e}"))?;
    let Json::Object(fields) = json else {
        return Err("report is not a JSON object".into());
    };
    let fields = fields
        .into_iter()
        .map(|(key, value)| {
            let value = match (key.as_str(), value) {
                ("summary", Json::Object(summary)) => {
                    Json::Object(summary.into_iter().filter(|(k, _)| !is_timing(k)).collect())
                }
                ("tables", Json::Array(tables)) => {
                    Json::Array(tables.into_iter().map(strip_timing_columns).collect())
                }
                (_, other) => other,
            };
            (key, value)
        })
        .collect();
    Ok(Json::Object(fields).render())
}

/// Removes the timing columns (and their cells) from one rendered table.
fn strip_timing_columns(table: Json) -> Json {
    let Json::Object(fields) = table else {
        return table;
    };
    let keep: Vec<bool> = match fields.iter().find(|(k, _)| k == "columns") {
        Some((_, Json::Array(columns))) => columns
            .iter()
            .map(|c| !c.as_str().is_some_and(is_timing))
            .collect(),
        _ => return Json::Object(fields),
    };
    let filter = |cells: Vec<Json>| -> Vec<Json> {
        cells
            .into_iter()
            .zip(keep.iter().chain(std::iter::repeat(&true)))
            .filter_map(|(cell, &kept)| kept.then_some(cell))
            .collect()
    };
    Json::Object(
        fields
            .into_iter()
            .map(|(key, value)| {
                let value = match (key.as_str(), value) {
                    ("columns", Json::Array(columns)) => Json::Array(filter(columns)),
                    ("rows", Json::Array(rows)) => Json::Array(
                        rows.into_iter()
                            .map(|row| match row {
                                Json::Array(cells) => Json::Array(filter(cells)),
                                other => other,
                            })
                            .collect(),
                    ),
                    (_, other) => other,
                };
                (key, value)
            })
            .collect(),
    )
}

/// One row of a report's correction table, keyed by method name: the
/// fields the answer check compares against the in-process engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodRow {
    pub method: String,
    pub n_tests: String,
    pub significant: String,
    pub p_value_cutoff: String,
}

/// The correction-comparison rows of a `sigrule correct` report.
pub fn method_rows(report: &str) -> Result<Vec<MethodRow>, String> {
    let json = Json::parse(report.trim()).map_err(|e| format!("report is not JSON: {e}"))?;
    let table = match json.get("tables") {
        Some(Json::Array(tables)) if !tables.is_empty() => &tables[0],
        _ => return Err("report has no table".into()),
    };
    let column = |name: &str| -> Result<usize, String> {
        match table.get("columns") {
            Some(Json::Array(columns)) => columns
                .iter()
                .position(|c| c.as_str() == Some(name))
                .ok_or_else(|| format!("report table has no {name} column")),
            _ => Err("report table has no columns".into()),
        }
    };
    let (method, n_tests, significant, cutoff) = (
        column("method")?,
        column("n_tests")?,
        column("significant")?,
        column("p_value_cutoff")?,
    );
    let Some(Json::Array(rows)) = table.get("rows") else {
        return Err("report table has no rows".into());
    };
    rows.iter()
        .map(|row| {
            let cell = |i: usize| match row {
                Json::Array(cells) => cells
                    .get(i)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("report row lacks cell {i}")),
                _ => Err("report row is not an array".to_string()),
            };
            Ok(MethodRow {
                method: cell(method)?,
                n_tests: cell(n_tests)?,
                significant: cell(significant)?,
                p_value_cutoff: cell(cutoff)?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = r#"{"command":"correct","summary":{"input":"d.csv","rules_mined":"12","load_ms":"1.5","mine_ms":"20.0"},"tables":[{"title":"t","columns":["method","metric","n_tests","significant","p_value_cutoff","time_ms"],"rows":[["BC","FWER","12","3","4.166667e-3","0.7"],["Perm_FDR","FDR","12","5","-","1.9"]]}]}"#;

    #[test]
    fn normalize_drops_timings_only() {
        let normalized = normalize(REPORT).unwrap();
        assert_eq!(
            normalized,
            r#"{"command":"correct","summary":{"input":"d.csv","rules_mined":"12"},"tables":[{"title":"t","columns":["method","metric","n_tests","significant","p_value_cutoff"],"rows":[["BC","FWER","12","3","4.166667e-3"],["Perm_FDR","FDR","12","5","-"]]}]}"#
        );
        let retimed = REPORT
            .replace("\"1.5\"", "\"9.9\"")
            .replace("\"0.7\"", "\"12.0\"");
        assert_eq!(normalize(&retimed).unwrap(), normalized);
        let changed = REPORT.replace("\"3\"", "\"4\"");
        assert_ne!(normalize(&changed).unwrap(), normalized);
        assert!(normalize("not json").is_err());
    }

    #[test]
    fn method_rows_reads_the_compared_cells() {
        let rows = method_rows(REPORT).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0],
            MethodRow {
                method: "BC".into(),
                n_tests: "12".into(),
                significant: "3".into(),
                p_value_cutoff: "4.166667e-3".into(),
            }
        );
        assert_eq!(rows[1].p_value_cutoff, "-");
    }
}
