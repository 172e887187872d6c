//! Snapshot and export: JSON and Prometheus text exposition.
//!
//! A [`MetricsSnapshot`] is a plain-data, point-in-time copy of a
//! [`super::MetricsRegistry`]. It renders itself to JSON (hand-rolled, no
//! JSON library in the export path) and to the Prometheus text
//! exposition format (version 0.0.4: `# HELP`/`# TYPE` headers, cumulative
//! `_bucket{le="…"}` series, `_sum` and `_count`).
//!
//! Metric keys may embed labels in Prometheus syntax
//! (`base{k="v",…}` — see [`super::metric_name`]); the exporters split the
//! key back into base name and label set so histograms can splice in their
//! `le` label.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use super::histogram::Histogram;

/// Point-in-time copy of one histogram, with pre-computed quantiles and
/// cumulative bucket counts (non-empty buckets only, plus the `+Inf`
/// terminator).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Exact largest observed value.
    pub max: u64,
    /// Median estimate (bucket upper bound).
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// Cumulative counts at each non-empty bucket bound, ascending, ending
    /// with the `+Inf` bucket (`le: None`, cumulative = `count`).
    pub buckets: Vec<BucketCount>,
}

/// One cumulative histogram bucket: observations `<= le`. `le: None` means
/// `+Inf`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BucketCount {
    /// Inclusive upper bound, or `None` for `+Inf`.
    pub le: Option<u64>,
    /// Number of observations at or below the bound.
    pub cumulative: u64,
}

impl HistogramSnapshot {
    /// Capture `h` as it is right now.
    pub fn of(h: &Histogram) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut cumulative = 0u64;
        h.for_each_bucket(|le, c| {
            cumulative += c;
            if le.is_some() {
                buckets.push(BucketCount { le, cumulative });
            }
        });
        let count = h.count();
        buckets.push(BucketCount {
            le: None,
            cumulative: count,
        });
        HistogramSnapshot {
            count,
            sum: h.sum(),
            max: h.max(),
            p50: h.p50(),
            p90: h.p90(),
            p99: h.p99(),
            buckets,
        }
    }
}

/// Point-in-time copy of a whole registry; `BTreeMap`s keep export output
/// deterministic.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter name (possibly label-embedded) → value.
    pub counters: BTreeMap<String, u64>,
    /// Histogram name (possibly label-embedded) → snapshot.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// True when there is nothing to export.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Render as a pretty-printed JSON document with `counters` and
    /// `histograms` objects. Histogram buckets appear as
    /// `{"le": <bound or "+Inf">, "cumulative": n}` entries.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {}: {}", json_string(name), value);
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {}: {{\n      \"count\": {},\n      \"sum\": {},\n      \"max\": {},\n      \"p50\": {},\n      \"p90\": {},\n      \"p99\": {},\n      \"buckets\": [",
                json_string(name),
                h.count,
                h.sum,
                h.max,
                h.p50,
                h.p90,
                h.p99
            );
            for (j, b) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                match b.le {
                    Some(le) => {
                        let _ = write!(
                            out,
                            "\n        {{\"le\": {}, \"cumulative\": {}}}",
                            le, b.cumulative
                        );
                    }
                    None => {
                        let _ = write!(
                            out,
                            "\n        {{\"le\": \"+Inf\", \"cumulative\": {}}}",
                            b.cumulative
                        );
                    }
                }
            }
            if !h.buckets.is_empty() {
                out.push_str("\n      ");
            }
            out.push_str("]\n    }");
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Render in the Prometheus text exposition format. Counters come first,
    /// then histograms; `# HELP`/`# TYPE` headers are emitted once per base
    /// metric name, and each histogram expands into cumulative
    /// `<base>_bucket{…,le="…"}` series plus `<base>_sum` and
    /// `<base>_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_base = String::new();
        for (key, value) in &self.counters {
            let (base, labels) = split_labels(key);
            let base = sanitize_name(base);
            if base != last_base {
                let _ = writeln!(out, "# HELP {} {}", base, help_text(&base));
                let _ = writeln!(out, "# TYPE {base} counter");
                last_base = base.clone();
            }
            let _ = writeln!(out, "{}{} {}", base, render_labels(labels, None), value);
        }
        let mut last_base = String::new();
        for (key, h) in &self.histograms {
            let (base, labels) = split_labels(key);
            let base = sanitize_name(base);
            if base != last_base {
                let _ = writeln!(out, "# HELP {} {}", base, help_text(&base));
                let _ = writeln!(out, "# TYPE {base} histogram");
                last_base = base.clone();
            }
            for b in &h.buckets {
                let le = match b.le {
                    Some(v) => v.to_string(),
                    None => "+Inf".to_string(),
                };
                let _ = writeln!(
                    out,
                    "{}_bucket{} {}",
                    base,
                    render_labels(labels, Some(&le)),
                    b.cumulative
                );
            }
            let _ = writeln!(out, "{}_sum{} {}", base, render_labels(labels, None), h.sum);
            let _ = writeln!(
                out,
                "{}_count{} {}",
                base,
                render_labels(labels, None),
                h.count
            );
        }
        out
    }
}

/// Split `base{k="v",…}` into `("base", Some("k=\"v\",…"))`; keys without
/// labels return `(key, None)`.
fn split_labels(key: &str) -> (&str, Option<&str>) {
    match key.split_once('{') {
        Some((base, rest)) => (base, Some(rest.trim_end_matches('}'))),
        None => (key, None),
    }
}

/// Re-render a label set, optionally splicing in a trailing `le` label.
fn render_labels(labels: Option<&str>, le: Option<&str>) -> String {
    match (labels, le) {
        (None, None) => String::new(),
        (Some(l), None) => format!("{{{l}}}"),
        (None, Some(le)) => format!("{{le=\"{le}\"}}"),
        (Some(l), Some(le)) => format!("{{{l},le=\"{le}\"}}"),
    }
}

/// Clamp a metric base name to the Prometheus charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*` by replacing every invalid byte with `_`.
fn sanitize_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// One-line `# HELP` text for a base metric name.
fn help_text(base: &str) -> &'static str {
    if base.ends_with("_phase_ns") {
        "Per-phase query latency in nanoseconds."
    } else if base.ends_with("_total_ns") || base.ends_with("_wall_ns") {
        "End-to-end latency in nanoseconds."
    } else if base.ends_with("_queries_total") {
        "Number of queries observed."
    } else if base.ends_with("_total") {
        "Monotonic event counter."
    } else {
        "gqr metric."
    }
}

/// Minimal JSON string encoder (quotes, backslashes, control chars).
/// Shared with the trace exporters — the metrics crate hand-rolls all of
/// its JSON rather than taking a JSON library dependency.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
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
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::super::registry::{metric_name, MetricsRegistry};
    use super::*;

    fn golden_registry() -> MetricsRegistry {
        let m = MetricsRegistry::enabled();
        let counter = metric_name("gqr_query_queries_total", &[("strategy", "GQR")]);
        m.add(&counter, 2);
        let hist = metric_name(
            "gqr_query_phase_ns",
            &[("phase", "evaluate"), ("strategy", "GQR")],
        );
        for v in [6u64, 7, 8] {
            m.record(&hist, v);
        }
        m
    }

    #[test]
    fn prometheus_golden_output() {
        let snap = golden_registry().snapshot();
        let expected = "\
# HELP gqr_query_phase_ns Per-phase query latency in nanoseconds.
# TYPE gqr_query_phase_ns histogram
gqr_query_phase_ns_bucket{phase=\"evaluate\",strategy=\"GQR\",le=\"6\"} 1
gqr_query_phase_ns_bucket{phase=\"evaluate\",strategy=\"GQR\",le=\"8\"} 3
gqr_query_phase_ns_bucket{phase=\"evaluate\",strategy=\"GQR\",le=\"+Inf\"} 3
gqr_query_phase_ns_sum{phase=\"evaluate\",strategy=\"GQR\"} 21
gqr_query_phase_ns_count{phase=\"evaluate\",strategy=\"GQR\"} 3
";
        let counters_expected = "\
# HELP gqr_query_queries_total Number of queries observed.
# TYPE gqr_query_queries_total counter
gqr_query_queries_total{strategy=\"GQR\"} 2
";
        let got = snap.to_prometheus();
        assert_eq!(got, format!("{counters_expected}{expected}"));
    }

    #[test]
    fn json_golden_output() {
        let snap = golden_registry().snapshot();
        let got = snap.to_json();
        let expected = "{
  \"counters\": {
    \"gqr_query_queries_total{strategy=\\\"GQR\\\"}\": 2
  },
  \"histograms\": {
    \"gqr_query_phase_ns{phase=\\\"evaluate\\\",strategy=\\\"GQR\\\"}\": {
      \"count\": 3,
      \"sum\": 21,
      \"max\": 8,
      \"p50\": 8,
      \"p90\": 8,
      \"p99\": 8,
      \"buckets\": [
        {\"le\": 6, \"cumulative\": 1},
        {\"le\": 8, \"cumulative\": 3},
        {\"le\": \"+Inf\", \"cumulative\": 3}
      ]
    }
  }
}
";
        assert_eq!(got, expected);
    }

    #[test]
    fn empty_snapshot_renders_valid_documents() {
        let snap = MetricsSnapshot::default();
        assert!(snap.is_empty());
        assert_eq!(
            snap.to_json(),
            "{\n  \"counters\": {},\n  \"histograms\": {}\n}\n"
        );
        assert_eq!(snap.to_prometheus(), "");
    }

    #[test]
    fn unlabelled_metrics_render_without_braces() {
        let m = MetricsRegistry::enabled();
        m.add("plain_total", 7);
        let prom = m.snapshot().to_prometheus();
        assert!(prom.contains("plain_total 7\n"), "{prom}");
    }

    #[test]
    fn base_names_are_sanitized() {
        assert_eq!(sanitize_name("ok_name:x9"), "ok_name:x9");
        assert_eq!(sanitize_name("bad name-1"), "bad_name_1");
        assert_eq!(sanitize_name("9lead"), "_9lead");
    }

    #[test]
    fn histogram_snapshot_ends_with_inf_bucket() {
        let h = Histogram::new();
        h.record(5);
        h.record(500);
        let s = HistogramSnapshot::of(&h);
        let last = s.buckets.last().unwrap();
        assert_eq!(last.le, None);
        assert_eq!(last.cumulative, 2);
        assert!(s
            .buckets
            .windows(2)
            .all(|w| w[0].cumulative <= w[1].cumulative));
    }
}
