//! Process-wide metrics registry: counters, gauges, log-bucketed latency
//! histograms, and Prometheus / JSON exposition.
//!
//! Handles returned by [`counter`], [`gauge`], and [`histogram`] are cheap
//! `Arc` clones around relaxed atomics: registration takes the registry
//! lock once, after which updates are lock-free and allocation-free — safe
//! to call from the permutation hot path.  Series are keyed by metric name
//! plus a sorted label set, so two call sites asking for the same
//! `(name, labels)` share one underlying atomic.  A component that owns
//! its counters (an engine's cache hits, the kernel's sweep count) hands
//! its atomic to [`expose_counter`] instead, and the registry renders that
//! atomic directly — one store per count, whatever reads it.
//!
//! Setting `SIGRULE_METRICS=off` (or `0`, `false`, `no`) turns every
//! handle into a no-op and empties the exposition; answers are identical
//! either way — metrics observe, they never steer.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Histogram bucket upper bounds in seconds: log-spaced powers of two from
/// 100 µs to ~26 s, plus an implicit `+Inf` bucket.  One shared scale keeps
/// every latency histogram comparable and the observe path branch-light.
pub const BUCKET_BOUNDS: [f64; 19] = [
    0.0001, 0.0002, 0.0004, 0.0008, 0.0016, 0.0032, 0.0064, 0.0128, 0.0256, 0.0512, 0.1024, 0.2048,
    0.4096, 0.8192, 1.6384, 3.2768, 6.5536, 13.1072, 26.2144,
];

/// What a metric family measures; fixed at first registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonically increasing event count.
    Counter,
    /// A value that can go up and down (bytes resident, entries cached).
    Gauge,
    /// A log-bucketed latency distribution.
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// A monotonically increasing counter handle.
#[derive(Clone)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds one (relaxed; lock-free).
    pub fn inc(&self) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A gauge handle; stores an `f64` behind an atomic bit pattern.
#[derive(Clone)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Sets the gauge (relaxed; lock-free).
    pub fn set(&self, v: f64) {
        if let Some(cell) = &self.0 {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }
}

struct HistogramCore {
    /// Per-bucket (non-cumulative) observation counts; the last slot is
    /// the `+Inf` bucket.  Rendered cumulatively at exposition time.
    buckets: [AtomicU64; BUCKET_BOUNDS.len() + 1],
    sum_nanos: AtomicU64,
    count: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_nanos: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// A log-bucketed latency histogram handle.
#[derive(Clone)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// Records one observation in seconds (relaxed atomics only; no lock,
    /// no allocation — hot-path safe).
    pub fn observe(&self, seconds: f64) {
        let Some(core) = &self.0 else { return };
        let v = if seconds.is_finite() && seconds > 0.0 {
            seconds
        } else {
            0.0
        };
        let idx = BUCKET_BOUNDS
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(BUCKET_BOUNDS.len());
        core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        let nanos = (v * 1e9).min(u64::MAX as f64) as u64;
        core.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
    }
}

#[derive(Clone)]
enum Series {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCore>),
}

struct Family {
    kind: Kind,
    help: String,
    /// Keyed by the rendered, key-sorted label set (`dataset="x",phase="mine"`).
    series: BTreeMap<String, Series>,
}

struct Registry {
    families: BTreeMap<String, Family>,
}

fn enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        !matches!(
            std::env::var("SIGRULE_METRICS").as_deref(),
            Ok("off" | "0" | "false" | "no")
        )
    })
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            families: BTreeMap::new(),
        })
    })
}

fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Renders a label set in key-sorted order, so a call site's label order
/// never creates a duplicate series.
fn label_key(labels: &[(&str, &str)]) -> String {
    let mut sorted: Vec<_> = labels.to_vec();
    sorted.sort_by_key(|&(k, _)| k);
    let mut out = String::new();
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    out
}

/// Runs `f` on the `name` family under the registry lock, registering the
/// family on first use; every constructor goes through it, so a name can
/// never change kind.
fn with_family<R>(name: &str, help: &str, kind: Kind, f: impl FnOnce(&mut Family) -> R) -> R {
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    let family = reg
        .families
        .entry(name.to_string())
        .or_insert_with(|| Family {
            kind,
            help: help.to_string(),
            series: BTreeMap::new(),
        });
    assert!(
        family.kind == kind,
        "metric {name:?} registered as {} but requested as {}",
        family.kind.as_str(),
        kind.as_str()
    );
    f(family)
}

/// Finds (or registers) the `(name, labels)` series of `kind` and returns
/// a share of it; `None` when metrics are disabled.
fn series(name: &str, help: &str, labels: &[(&str, &str)], kind: Kind) -> Option<Series> {
    if !enabled() {
        return None;
    }
    with_family(name, help, kind, |family| {
        let fresh = || match kind {
            Kind::Counter => Series::Counter(Arc::default()),
            Kind::Gauge => Series::Gauge(Arc::default()),
            Kind::Histogram => Series::Histogram(Arc::new(HistogramCore::new())),
        };
        Some(
            family
                .series
                .entry(label_key(labels))
                .or_insert_with(fresh)
                .clone(),
        )
    })
}

/// Registers (or finds) a counter series and returns a lock-free handle.
pub fn counter(name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
    match series(name, help, labels, Kind::Counter) {
        Some(Series::Counter(cell)) => Counter(Some(cell)),
        _ => Counter(None),
    }
}

/// Exposes a caller-owned atomic as the counter series for `(name, labels)`.
/// The registry renders `cell` itself, so the owner's atomic stays the one
/// store of the count and the registry never holds a copy.  Exposing a key
/// again replaces its series (a reloaded dataset's new engine takes over
/// the label).  A no-op when metrics are disabled: the owner keeps
/// counting either way.
pub fn expose_counter(name: &str, help: &str, labels: &[(&str, &str)], cell: &Arc<AtomicU64>) {
    if !enabled() {
        return;
    }
    with_family(name, help, Kind::Counter, |family| {
        family
            .series
            .insert(label_key(labels), Series::Counter(Arc::clone(cell)));
    });
}

/// Registers (or finds) a gauge series and returns a lock-free handle.
pub fn gauge(name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
    match series(name, help, labels, Kind::Gauge) {
        Some(Series::Gauge(cell)) => Gauge(Some(cell)),
        _ => Gauge(None),
    }
}

/// Registers (or finds) a histogram series and returns a lock-free handle.
pub fn histogram(name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
    match series(name, help, labels, Kind::Histogram) {
        Some(Series::Histogram(core)) => Histogram(Some(core)),
        _ => Histogram(None),
    }
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Renders every registered family as Prometheus text exposition
/// (`# HELP` / `# TYPE` lines, cumulative histogram buckets with a
/// trailing `+Inf`, `_sum` in seconds, `_count`).  Families and series
/// render in sorted order, so the output is deterministic.
pub fn render_prometheus() -> String {
    let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    let mut out = String::new();
    for (name, family) in &reg.families {
        let _ = writeln!(out, "# HELP {name} {}", family.help.replace('\n', " "));
        let _ = writeln!(out, "# TYPE {name} {}", family.kind.as_str());
        for (labels, series) in &family.series {
            let braced = |extra: &str| -> String {
                match (labels.is_empty(), extra.is_empty()) {
                    (true, true) => String::new(),
                    (true, false) => format!("{{{extra}}}"),
                    (false, true) => format!("{{{labels}}}"),
                    (false, false) => format!("{{{labels},{extra}}}"),
                }
            };
            match series {
                Series::Counter(cell) => {
                    let _ = writeln!(out, "{name}{} {}", braced(""), cell.load(Ordering::Relaxed));
                }
                Series::Gauge(cell) => {
                    let v = f64::from_bits(cell.load(Ordering::Relaxed));
                    let _ = writeln!(out, "{name}{} {}", braced(""), fmt_f64(v));
                }
                Series::Histogram(core) => {
                    let mut cumulative = 0u64;
                    for (i, bound) in BUCKET_BOUNDS.iter().enumerate() {
                        cumulative += core.buckets[i].load(Ordering::Relaxed);
                        let le = braced(&format!("le=\"{bound}\""));
                        let _ = writeln!(out, "{name}_bucket{le} {cumulative}");
                    }
                    cumulative += core.buckets[BUCKET_BOUNDS.len()].load(Ordering::Relaxed);
                    let le = braced("le=\"+Inf\"");
                    let _ = writeln!(out, "{name}_bucket{le} {cumulative}");
                    let sum = core.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9;
                    let _ = writeln!(out, "{name}_sum{} {}", braced(""), fmt_f64(sum));
                    let _ = writeln!(
                        out,
                        "{name}_count{} {}",
                        braced(""),
                        core.count.load(Ordering::Relaxed)
                    );
                }
            }
        }
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

fn labels_to_json(labels: &str) -> String {
    // `labels` is the rendered key (`a="x",b="y"`); re-parse into a JSON
    // object.  Values were escaped with Prometheus rules, which are a
    // subset of JSON string escapes, so they pass through unchanged.
    if labels.is_empty() {
        return "{}".to_string();
    }
    let mut out = String::from("{");
    let mut first = true;
    let mut rest = labels;
    while !rest.is_empty() {
        let Some(eq) = rest.find("=\"") else { break };
        let key = &rest[..eq];
        let mut end = eq + 2;
        let bytes = rest.as_bytes();
        while end < rest.len() {
            if bytes[end] == b'"' && bytes[end - 1] != b'\\' {
                break;
            }
            end += 1;
        }
        let value = &rest[eq + 2..end];
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\"{}\":\"{value}\"", json_escape(key));
        rest = rest.get(end + 1..).unwrap_or("").trim_start_matches(',');
    }
    out.push('}');
    out
}

/// Renders every registered family as a JSON object (`{"families":[...]}`),
/// for the serve `metrics` request's `"format":"json"` mode.
pub fn render_json() -> String {
    let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    let mut out = String::from("{\"families\":[");
    let mut first_family = true;
    for (name, family) in &reg.families {
        if !first_family {
            out.push(',');
        }
        first_family = false;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"kind\":\"{}\",\"help\":\"{}\",\"series\":[",
            json_escape(name),
            family.kind.as_str(),
            json_escape(&family.help)
        );
        let mut first_series = true;
        for (labels, series) in &family.series {
            if !first_series {
                out.push(',');
            }
            first_series = false;
            let labels_json = labels_to_json(labels);
            match series {
                Series::Counter(cell) => {
                    let _ = write!(
                        out,
                        "{{\"labels\":{labels_json},\"value\":{}}}",
                        cell.load(Ordering::Relaxed)
                    );
                }
                Series::Gauge(cell) => {
                    let v = f64::from_bits(cell.load(Ordering::Relaxed));
                    let _ = write!(out, "{{\"labels\":{labels_json},\"value\":{}}}", fmt_f64(v));
                }
                Series::Histogram(core) => {
                    let _ = write!(
                        out,
                        "{{\"labels\":{labels_json},\"count\":{},\"sum\":{},\"buckets\":[",
                        core.count.load(Ordering::Relaxed),
                        fmt_f64(core.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9)
                    );
                    let mut cumulative = 0u64;
                    for (i, bound) in BUCKET_BOUNDS.iter().enumerate() {
                        cumulative += core.buckets[i].load(Ordering::Relaxed);
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{{\"le\":{bound},\"count\":{cumulative}}}");
                    }
                    cumulative += core.buckets[BUCKET_BOUNDS.len()].load(Ordering::Relaxed);
                    let _ = write!(out, ",{{\"le\":\"+Inf\",\"count\":{cumulative}}}]}}");
                }
            }
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_series_share_one_atomic() {
        let a = counter("t_shared_total", "Shared.", &[("k", "v")]);
        let b = counter("t_shared_total", "Shared.", &[("k", "v")]);
        a.inc();
        b.inc();
        b.inc();
        assert!(render_prometheus().contains("t_shared_total{k=\"v\"} 3"));
    }

    #[test]
    fn exposed_atomic_is_the_series_and_reexposing_replaces_it() {
        let first = Arc::new(AtomicU64::new(0));
        expose_counter("t_exposed_total", "Exposed.", &[("dataset", "d")], &first);
        first.fetch_add(4, Ordering::Relaxed);
        assert!(render_prometheus().contains("t_exposed_total{dataset=\"d\"} 4"));
        let second = Arc::new(AtomicU64::new(1));
        expose_counter("t_exposed_total", "Exposed.", &[("dataset", "d")], &second);
        assert!(render_prometheus().contains("t_exposed_total{dataset=\"d\"} 1"));
        counter("t_exposed_total", "Exposed.", &[("dataset", "d")]).inc();
        assert_eq!(
            second.load(Ordering::Relaxed),
            2,
            "handles share the exposed atomic"
        );
    }

    #[test]
    fn label_order_does_not_split_series() {
        let a = counter("t_order_total", "Order.", &[("a", "1"), ("b", "2")]);
        let b = counter("t_order_total", "Order.", &[("b", "2"), ("a", "1")]);
        a.inc();
        b.inc();
        assert!(render_prometheus().contains("t_order_total{a=\"1\",b=\"2\"} 2"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_monotone() {
        let h = histogram("t_lat_seconds", "Latency.", &[]);
        h.observe(0.00005); // below first bound
        h.observe(0.003);
        h.observe(100.0); // above last bound -> +Inf only
        let text = render_prometheus();
        let mut last = 0u64;
        let mut bucket_lines = 0;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("t_lat_seconds_bucket{le=\"") {
                let count: u64 = rest
                    .split("\"} ")
                    .nth(1)
                    .expect("bucket line shape")
                    .parse()
                    .expect("bucket count");
                assert!(count >= last, "buckets must be cumulative: {line}");
                last = count;
                bucket_lines += 1;
            }
        }
        assert_eq!(bucket_lines, BUCKET_BOUNDS.len() + 1);
        assert_eq!(last, 3, "+Inf bucket equals total count");
        assert!(text.contains("t_lat_seconds_count 3"));
    }

    #[test]
    fn exposition_has_help_type_and_no_duplicate_names() {
        counter("t_expo_total", "Expo counter.", &[("dataset", "d1")]);
        gauge("t_expo_bytes", "Expo gauge.", &[]);
        let text = render_prometheus();
        assert!(text.contains("# HELP t_expo_total Expo counter."));
        assert!(text.contains("# TYPE t_expo_total counter"));
        assert!(text.contains("# TYPE t_expo_bytes gauge"));
        let mut seen = std::collections::HashSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split(' ').next().expect("family name");
                assert!(seen.insert(name.to_string()), "duplicate family {name}");
            }
        }
    }

    #[test]
    fn json_exposition_parses_label_sets() {
        counter("t_json_total", "Json.", &[("data set", "a\"b")]);
        let json = render_json();
        assert!(json.starts_with("{\"families\":["));
        assert!(json.contains("\"name\":\"t_json_total\""));
        assert!(json.contains("\"data set\":\"a\\\"b\""));
    }
}
