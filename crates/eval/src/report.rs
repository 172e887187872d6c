//! Result emission: CSV files, Markdown tables, and metrics exports under
//! a results directory. Every experiment binary routes its output through
//! these helpers so EXPERIMENTS.md entries are regenerable byte-for-byte.

use crate::curve::RecallCurve;
use gqr_core::metrics::MetricsRegistry;
use std::borrow::Cow;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Quote a CSV field per RFC 4180: fields containing commas, double quotes,
/// or line breaks are wrapped in double quotes, with embedded quotes
/// doubled. Plain fields pass through unchanged (so existing output stays
/// byte-identical).
fn csv_field(field: &str) -> Cow<'_, str> {
    if field.contains(['"', ',', '\n', '\r']) {
        Cow::Owned(format!("\"{}\"", field.replace('"', "\"\"")))
    } else {
        Cow::Borrowed(field)
    }
}

fn csv_row<S: AsRef<str>>(fields: &[S]) -> String {
    fields
        .iter()
        .map(|f| csv_field(f.as_ref()))
        .collect::<Vec<_>>()
        .join(",")
}

/// A results directory (created on demand).
pub struct Reporter {
    dir: PathBuf,
}

impl Reporter {
    /// Reporter rooted at `dir` (e.g. `results/`).
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Reporter> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Reporter { dir })
    }

    /// Root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Write rows as CSV with the given header. Fields are quoted per
    /// RFC 4180 when they contain commas, quotes, or line breaks.
    pub fn write_csv(
        &self,
        name: &str,
        header: &[&str],
        rows: &[Vec<String>],
    ) -> io::Result<PathBuf> {
        let path = self.dir.join(name);
        let mut w = BufWriter::new(File::create(&path)?);
        writeln!(w, "{}", csv_row(header))?;
        for row in rows {
            debug_assert_eq!(row.len(), header.len(), "row width must match header");
            writeln!(w, "{}", csv_row(row))?;
        }
        w.flush()?;
        Ok(path)
    }

    /// Write a set of curves (one figure panel) as long-format CSV:
    /// `label,budget,recall,total_time_s,mean_items,mean_buckets`.
    pub fn write_curves(&self, name: &str, curves: &[RecallCurve]) -> io::Result<PathBuf> {
        let rows: Vec<Vec<String>> = curves
            .iter()
            .flat_map(|c| {
                c.points.iter().map(move |p| {
                    vec![
                        c.label.clone(),
                        p.budget.to_string(),
                        format!("{:.6}", p.recall),
                        format!("{:.6}", p.total_time_s),
                        format!("{:.1}", p.mean_items),
                        format!("{:.1}", p.mean_buckets),
                    ]
                })
            })
            .collect();
        self.write_csv(
            name,
            &[
                "label",
                "budget",
                "recall",
                "total_time_s",
                "mean_items",
                "mean_buckets",
            ],
            &rows,
        )
    }

    /// Export a metrics registry as `metrics_<experiment>.json` and
    /// `metrics_<experiment>.prom` (Prometheus text exposition) under the
    /// results directory. Returns both paths `(json, prom)`. Writes empty
    /// (but valid) documents when the registry is disabled or has recorded
    /// nothing.
    pub fn write_metrics(
        &self,
        experiment: &str,
        metrics: &MetricsRegistry,
    ) -> io::Result<(PathBuf, PathBuf)> {
        let snap = metrics.snapshot();
        let json_path = self.dir.join(format!("metrics_{experiment}.json"));
        fs::write(&json_path, snap.to_json())?;
        let prom_path = self.dir.join(format!("metrics_{experiment}.prom"));
        fs::write(&prom_path, snap.to_prometheus())?;
        Ok((json_path, prom_path))
    }

    /// Export the registry's captured traces as `trace_<experiment>.jsonl`
    /// (one JSON object per trace), `trace_<experiment>.chrome.json`
    /// (Chrome trace-event format — load in Perfetto or chrome://tracing),
    /// and `trace_<experiment>_slow.log` (the human-readable slow-query
    /// log). Returns the three paths. No-op (returns `None`) when the
    /// registry never had tracing enabled.
    pub fn write_traces(
        &self,
        experiment: &str,
        metrics: &MetricsRegistry,
    ) -> io::Result<Option<(PathBuf, PathBuf, PathBuf)>> {
        let Some(tracing) = metrics.tracing() else {
            return Ok(None);
        };
        let store = tracing.store();
        let jsonl_path = self.dir.join(format!("trace_{experiment}.jsonl"));
        fs::write(&jsonl_path, store.to_json_lines())?;
        let chrome_path = self.dir.join(format!("trace_{experiment}.chrome.json"));
        fs::write(
            &chrome_path,
            gqr_core::metrics::to_chrome_trace(&store.all()),
        )?;
        let slow_path = self.dir.join(format!("trace_{experiment}_slow.log"));
        fs::write(&slow_path, store.slow_log())?;
        Ok(Some((jsonl_path, chrome_path, slow_path)))
    }
}

/// Render rows as a GitHub-flavoured Markdown table.
pub fn markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str("| ");
    out.push_str(&header.join(" | "));
    out.push_str(" |\n|");
    for _ in header {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push_str("| ");
        out.push_str(&row.join(" | "));
        out.push_str(" |\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::CurvePoint;

    fn tmp() -> PathBuf {
        // One directory per call: the tests run concurrently, and a shared
        // one would be wiped under a sibling's feet.
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("gqr_report_{}_{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn csv_roundtrip() {
        let r = Reporter::new(tmp()).unwrap();
        let path = r
            .write_csv(
                "t.csv",
                &["a", "b"],
                &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
            )
            .unwrap();
        let text = fs::read_to_string(path).unwrap();
        assert_eq!(text, "a,b\n1,2\n3,4\n");
    }

    #[test]
    fn csv_quotes_special_fields_per_rfc4180() {
        let r = Reporter::new(tmp()).unwrap();
        let path = r
            .write_csv(
                "quoted.csv",
                &["label", "note"],
                &[
                    vec!["cifar, 60k".into(), "says \"hi\"".into()],
                    vec!["plain".into(), "line\nbreak".into()],
                ],
            )
            .unwrap();
        let text = fs::read_to_string(path).unwrap();
        assert_eq!(
            text,
            "label,note\n\"cifar, 60k\",\"says \"\"hi\"\"\"\nplain,\"line\nbreak\"\n"
        );
    }

    #[test]
    fn metrics_files_written_for_enabled_and_disabled() {
        let r = Reporter::new(tmp()).unwrap();
        let m = MetricsRegistry::enabled();
        m.add("demo_total", 3);
        let (json, prom) = r.write_metrics("unit", &m).unwrap();
        assert!(json.ends_with("metrics_unit.json"));
        assert!(prom.ends_with("metrics_unit.prom"));
        assert!(fs::read_to_string(&prom).unwrap().contains("demo_total 3"));
        assert!(fs::read_to_string(&json)
            .unwrap()
            .contains("\"demo_total\": 3"));
        let (json, prom) = r
            .write_metrics("off", &MetricsRegistry::disabled())
            .unwrap();
        assert_eq!(fs::read_to_string(&prom).unwrap(), "");
        assert!(fs::read_to_string(&json)
            .unwrap()
            .contains("\"counters\": {}"));
    }

    #[test]
    fn trace_files_written_when_tracing_enabled() {
        use gqr_core::metrics::TraceConfig;
        let r = Reporter::new(tmp()).unwrap();
        let m = MetricsRegistry::enabled();
        // No tracing enabled: write_traces is a no-op.
        assert!(r.write_traces("off", &m).unwrap().is_none());
        m.enable_tracing(TraceConfig {
            sample_every: 1,
            ..TraceConfig::default()
        });
        let ctx = m.trace_begin("unit", true);
        let span = ctx.begin(gqr_core::metrics::SpanId::ROOT, "work");
        ctx.end(span);
        m.trace_finish(ctx, false);
        let (jsonl, chrome, slow) = r.write_traces("unit", &m).unwrap().unwrap();
        assert!(jsonl.ends_with("trace_unit.jsonl"));
        assert!(chrome.ends_with("trace_unit.chrome.json"));
        assert!(slow.ends_with("trace_unit_slow.log"));
        let lines = fs::read_to_string(&jsonl).unwrap();
        assert!(lines.contains("\"name\":\"unit\""), "{lines}");
        let chrome_text = fs::read_to_string(&chrome).unwrap();
        assert!(chrome_text.contains("\"traceEvents\""), "{chrome_text}");
        assert!(chrome_text.contains("\"work\""), "{chrome_text}");
    }

    #[test]
    fn curves_csv_long_format() {
        let r = Reporter::new(tmp()).unwrap();
        let curve = RecallCurve {
            label: "GQR".into(),
            points: vec![CurvePoint {
                budget: 10,
                recall: 0.5,
                total_time_s: 0.25,
                mean_items: 10.0,
                mean_buckets: 3.0,
            }],
        };
        let path = r.write_curves("c.csv", &[curve]).unwrap();
        let text = fs::read_to_string(path).unwrap();
        assert!(text.starts_with("label,budget,recall"));
        assert!(text.contains("GQR,10,0.500000,0.250000,10.0,3.0"));
    }

    #[test]
    fn markdown_table_shape() {
        let t = markdown_table(&["x", "y"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(t, "| x | y |\n|---|---|\n| 1 | 2 |\n");
    }
}
