//! Structured leveled logging: JSON lines on stderr behind a `SIGRULE_LOG`
//! environment filter.
//!
//! The filter is parsed once per process from
//! `SIGRULE_LOG=error|warn|info|debug[,target=level,...]`, e.g.
//!
//! ```text
//! SIGRULE_LOG=info,sigrule::coordinate=debug
//! ```
//!
//! Target overrides match by prefix, longest prefix wins, so
//! `sigrule::serve=debug` also covers `sigrule::serve::slow`.  The default
//! level when `SIGRULE_LOG` is unset is `warn` — warnings still reach an
//! operator, routine chatter does not.
//!
//! Every event is one JSON object per line on stderr:
//!
//! ```text
//! {"ts":1754731496.123,"level":"warn","target":"sigrule::coordinate",
//!  "msg":"worker lost mid-shard","trace_id":"…","addr":"tcp:…"}
//! ```
//!
//! `trace_id` appears automatically whenever the calling thread is inside
//! a [`crate::trace::enter`] guard.  Logging never touches stdout and
//! never changes answers.

use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::OnceLock;
use std::time::{SystemTime, UNIX_EPOCH};

/// Event severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The operation failed.
    Error,
    /// Something is off but the answer is still correct (lost worker,
    /// loader warning, slow query).
    Warn,
    /// Request-level milestones.
    Info,
    /// Phase spans, scatter events, cache traffic.
    Debug,
}

impl Level {
    fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    fn parse(s: &str) -> Option<Level> {
        match s.trim() {
            "error" => Some(Level::Error),
            "warn" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }
}

/// A typed field value attached to a log event.
#[derive(Debug, Clone)]
pub enum Value {
    /// A string field (JSON-escaped on output).
    Str(String),
    /// An unsigned integer field.
    U64(u64),
    /// A float field.
    F64(f64),
    /// A boolean field.
    Bool(bool),
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

struct Filter {
    default: Level,
    /// `(target_prefix, level)` overrides; longest matching prefix wins.
    overrides: Vec<(String, Level)>,
}

impl Filter {
    fn parse(spec: &str) -> Filter {
        let mut default = Level::Warn;
        let mut overrides = Vec::new();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            match part.split_once('=') {
                Some((target, level)) => {
                    if let Some(level) = Level::parse(level) {
                        overrides.push((target.trim().to_string(), level));
                    }
                }
                None => {
                    if let Some(level) = Level::parse(part) {
                        default = level;
                    }
                }
            }
        }
        // Longest prefix first, so the first match below is the winner.
        overrides.sort_by_key(|(t, _)| std::cmp::Reverse(t.len()));
        Filter { default, overrides }
    }

    fn level_for(&self, target: &str) -> Level {
        self.overrides
            .iter()
            .find(|(prefix, _)| target.starts_with(prefix.as_str()))
            .map(|&(_, level)| level)
            .unwrap_or(self.default)
    }
}

fn filter() -> &'static Filter {
    static FILTER: OnceLock<Filter> = OnceLock::new();
    FILTER.get_or_init(|| Filter::parse(&std::env::var("SIGRULE_LOG").unwrap_or_default()))
}

/// Whether an event at `level` for `target` would be emitted — use to skip
/// building expensive fields for filtered-out events.
pub fn enabled(level: Level, target: &str) -> bool {
    level <= filter().level_for(target)
}

fn json_escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Renders one event as a JSON line (without the trailing newline).
/// Public so tests can golden-check the schema without capturing stderr.
pub fn render_event(level: Level, target: &str, msg: &str, fields: &[(&str, Value)]) -> String {
    let ts = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0);
    let mut out = String::with_capacity(96 + msg.len());
    let _ = write!(out, "{{\"ts\":{ts:.3},\"level\":\"{}\"", level.as_str());
    out.push_str(",\"target\":\"");
    json_escape_into(&mut out, target);
    out.push_str("\",\"msg\":\"");
    json_escape_into(&mut out, msg);
    out.push('"');
    if let Some(trace) = crate::trace::current() {
        let _ = write!(out, ",\"trace_id\":\"{trace}\"");
    }
    for (key, value) in fields {
        out.push_str(",\"");
        json_escape_into(&mut out, key);
        out.push_str("\":");
        match value {
            Value::Str(s) => {
                out.push('"');
                json_escape_into(&mut out, s);
                out.push('"');
            }
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Bool(v) => {
                let _ = write!(out, "{v}");
            }
        }
    }
    out.push('}');
    out
}

/// Emits one structured event if the filter allows it.  One `write_all`
/// per event keeps concurrent writers from interleaving mid-line.
pub fn log(level: Level, target: &str, msg: &str, fields: &[(&str, Value)]) {
    if !enabled(level, target) {
        return;
    }
    let mut line = render_event(level, target, msg, fields);
    line.push('\n');
    let stderr = std::io::stderr();
    let mut handle = stderr.lock();
    let _ = handle.write_all(line.as_bytes());
}

/// Logs at error level.
pub fn error(target: &str, msg: &str, fields: &[(&str, Value)]) {
    log(Level::Error, target, msg, fields);
}

/// Logs at warn level.
pub fn warn(target: &str, msg: &str, fields: &[(&str, Value)]) {
    log(Level::Warn, target, msg, fields);
}

/// Logs at info level.
pub fn info(target: &str, msg: &str, fields: &[(&str, Value)]) {
    log(Level::Info, target, msg, fields);
}

/// Logs at debug level.
pub fn debug(target: &str, msg: &str, fields: &[(&str, Value)]) {
    log(Level::Debug, target, msg, fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_defaults_to_warn() {
        let f = Filter::parse("");
        assert_eq!(f.level_for("sigrule::anything"), Level::Warn);
    }

    #[test]
    fn filter_parses_default_and_overrides() {
        let f = Filter::parse("info,sigrule::coordinate=debug,sigrule::serve=error");
        assert_eq!(f.level_for("sigrule::engine"), Level::Info);
        assert_eq!(f.level_for("sigrule::coordinate"), Level::Debug);
        assert_eq!(f.level_for("sigrule::serve::slow"), Level::Error);
    }

    #[test]
    fn longest_prefix_override_wins() {
        let f = Filter::parse("warn,sigrule=info,sigrule::serve=debug");
        assert_eq!(f.level_for("sigrule::serve::slow"), Level::Debug);
        assert_eq!(f.level_for("sigrule::engine"), Level::Info);
        assert_eq!(f.level_for("other"), Level::Warn);
    }

    #[test]
    fn malformed_filter_parts_are_ignored() {
        let f = Filter::parse("bogus,sigrule=shout,debug");
        assert_eq!(f.level_for("sigrule"), Level::Debug);
    }

    #[test]
    fn rendered_event_is_one_json_object() {
        let line = render_event(
            Level::Warn,
            "sigrule::test",
            "hello \"world\"\n",
            &[
                ("count", Value::U64(3)),
                ("ratio", Value::F64(0.5)),
                ("ok", Value::Bool(true)),
                ("who", Value::Str("a\\b".to_string())),
            ],
        );
        assert!(line.starts_with("{\"ts\":"));
        assert!(line.contains("\"level\":\"warn\""));
        assert!(line.contains("\"target\":\"sigrule::test\""));
        assert!(line.contains("\"msg\":\"hello \\\"world\\\"\\n\""));
        assert!(line.contains("\"count\":3"));
        assert!(line.contains("\"ratio\":0.5"));
        assert!(line.contains("\"ok\":true"));
        assert!(line.contains("\"who\":\"a\\\\b\""));
        assert!(line.ends_with('}'));
        assert!(!line.contains('\n'), "events must stay on one line");
    }

    #[test]
    fn trace_id_is_attached_inside_a_guard() {
        let id = crate::trace::TraceId::mint();
        let _guard = crate::trace::enter(id);
        let line = render_event(Level::Info, "sigrule::test", "traced", &[]);
        assert!(line.contains(&format!("\"trace_id\":\"{id}\"")));
    }
}
