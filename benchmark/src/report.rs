//! Output: the per-run report, the machine it came from, and the
//! all-workloads mode (`run.sh` without `--workload`) with `--repeat` and
//! `--check`.
//!
//! Documents are written with `gqr_serve::json::Json`; the vendored
//! `serde_json` stand-in cannot parse `1`.

use crate::layers::{LayerMetrics, PER_LAYER, TRACED};
use crate::stats::{median, quartiles};
use crate::window::{Rates, Schedule};
use crate::workload::Workload;
use crate::{END_TO_END, OUT_DIR};
use gqr::prelude::Scale;
use gqr::serve::json::{self, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn text(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

/// The machine and build a number came from; carried by every document so
/// a number is never separated from them.
pub struct Env(Vec<(String, Json)>);

impl Env {
    pub fn capture() -> Env {
        let run = |program: &str, args: &[&str]| -> String {
            Command::new(program)
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .unwrap_or_else(|| "unknown".into())
        };
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |key: &str| -> String {
            cpuinfo
                .lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_once(':'))
                .map_or("unknown".into(), |(_, v)| v.trim().to_string())
        };
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Env(vec![
            ("commit".into(), text(run("git", &["rev-parse", "HEAD"]))),
            ("rustc".into(), text(run("rustc", &["-V"]))),
            ("nproc".into(), num(nproc as f64)),
            ("cpu_model".into(), text(field("model name"))),
            ("cpu_flags".into(), text(field("flags"))),
            ("kernel".into(), text(gqr::linalg::kernels::kernel_name())),
        ])
    }
}

/// Everything one run of one workload measured.
pub struct RunReport {
    pub workload: &'static str,
    pub seed: u64,
    pub scale: Scale,
    pub schedule: Schedule,
    pub clients: usize,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// In `END_TO_END` order.
    pub end_to_end: Vec<f64>,
    pub setup_runs_s: Vec<f64>,
    /// Per-slice `(program, reference)`.
    pub slices: Vec<(Rates, Rates)>,
    /// The window's raw numbers (`layers::window_rows`).
    pub raw: [(&'static str, f64); 8],
    pub per_layer: Option<LayerMetrics>,
}

impl RunReport {
    fn end_to_end_rows(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        END_TO_END
            .iter()
            .zip(&self.end_to_end)
            .map(|(&(name, unit), &value)| (name, unit, value))
    }

    /// Every metric as `workload name unit value`, and the slice quartiles
    /// beside the medians.
    pub fn print_lines(&self) {
        let w = self.workload;
        for (name, unit, value) in self.end_to_end_rows() {
            println!("{w} {name} {unit} {value}");
        }
        let ratio = |f: fn(&Rates) -> f64| -> Vec<f64> {
            self.slices.iter().map(|(p, r)| f(&p.over(r))).collect()
        };
        for (name, values) in [
            ("qps_vs_ref", ratio(|r| r.qps)),
            ("latency_p50_vs_ref", ratio(|r| r.p50_ms)),
            ("latency_p99_vs_ref", ratio(|r| r.p99_ms)),
        ] {
            let (q1, q3) = quartiles(&values);
            println!("{w} {name}.slice_q1_q3 x {q1} {q3}");
        }
        println!(
            "{w} error_rate ratio {}",
            self.failed as f64 / self.attempted.max(1) as f64
        );
        match &self.per_layer {
            Some(layers) => {
                for (name, unit, value) in layers.rows() {
                    println!("{w} {name} {unit} {value}");
                }
            }
            None => {
                for (name, value) in self.raw {
                    println!("{w} {name} - {value}");
                }
            }
        }
    }

    /// `{name: {"value": v, "unit": u}, …}`.
    fn metrics_json(rows: impl Iterator<Item = (&'static str, &'static str, f64)>) -> Json {
        Json::Obj(
            rows.map(|(name, unit, value)| {
                let metric = vec![("value".into(), num(value)), ("unit".into(), text(unit))];
                (name.to_string(), Json::Obj(metric))
            })
            .collect(),
        )
    }

    /// The contract's result line: end-to-end metrics untraced, per-layer
    /// metrics traced.
    pub fn result_line(&self, traced: bool) -> Json {
        let metrics = match (&self.per_layer, traced) {
            (Some(layers), true) => Self::metrics_json(layers.rows()),
            _ => Self::metrics_json(self.end_to_end_rows()),
        };
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), num(self.attempted as f64)),
            ("failed".into(), num(self.failed as f64)),
            ("metrics".into(), metrics),
        ])
    }

    /// The full document of this run.
    pub fn document(&self, env: &Env) -> Json {
        let scale = match self.scale {
            Scale::Smoke => "smoke",
            Scale::Default => "default",
            Scale::Paper => "paper",
        };
        let mut doc = vec![
            ("workload".to_string(), text(self.workload)),
            ("environment".into(), Json::Obj(env.0.clone())),
            ("seed".into(), num(self.seed as f64)),
            ("scale".into(), text(scale)),
            ("warmup_s".into(), num(self.schedule.warmup.as_secs_f64())),
            ("window_s".into(), num(self.schedule.window.as_secs_f64())),
            ("slice_s".into(), num(self.schedule.slice.as_secs_f64())),
            ("period_s".into(), num(self.schedule.period.as_secs_f64())),
            (
                "program_share_s".into(),
                num(self.schedule.program_share.as_secs_f64()),
            ),
            ("clients".into(), num(self.clients as f64)),
            ("traced_requests".into(), num(TRACED as f64)),
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), num(self.attempted as f64)),
            ("failed".into(), num(self.failed as f64)),
            (
                "end_to_end".into(),
                Self::metrics_json(self.end_to_end_rows()),
            ),
            (
                "setup_runs_s".into(),
                Json::Arr(self.setup_runs_s.iter().map(|&s| num(s)).collect()),
            ),
            (
                "slices".into(),
                Json::Arr(
                    self.slices
                        .iter()
                        .map(|(program, reference)| {
                            let side = |r: &Rates| {
                                Json::Obj(vec![
                                    ("qps".into(), num(r.qps)),
                                    ("latency_p50_ms".into(), num(r.p50_ms)),
                                    ("latency_p99_ms".into(), num(r.p99_ms)),
                                ])
                            };
                            Json::Obj(vec![
                                ("program".into(), side(program)),
                                ("reference".into(), side(reference)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(layers) = &self.per_layer {
            doc.push(("per_layer".into(), Self::metrics_json(layers.rows())));
        }
        Json::Obj(doc)
    }
}

/// Run one workload in a child process (its own address space, so
/// `peak_rss_mb` is that workload's alone) and read back its document.
fn run_child(
    workload: Workload,
    seed: u64,
    seconds: u64,
    scale: &str,
) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let report = PathBuf::from(OUT_DIR).join(format!("report-{}.json", workload.name()));
    let status = Command::new(exe)
        .args([
            "--workload",
            workload.name(),
            "--trace",
            "1",
            "--scale",
            scale,
        ])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .arg("--report")
        .arg(&report)
        .status()
        .map_err(|e| format!("spawn: {e}"))?;
    let bytes = std::fs::read(&report)
        .map_err(|e| format!("{} did not leave a report: {e}", workload.name()))?;
    let doc = json::parse(&bytes).map_err(|e| format!("{}: {e}", report.display()))?;
    Ok((doc, status.success()))
}

fn value_of(doc: &Json, group: &str, name: &str) -> Option<f64> {
    doc.get(group)?.get(name)?.get("value")?.as_f64()
}

/// `--check`: every metric `BENCHMARK.json` names is present in the run's
/// document, finite, and carries the unit `BENCHMARK.json` gives it.
fn check_against_manifest(manifest: &Json, doc: &Json, workload: &str) -> Vec<String> {
    let mut problems = Vec::new();
    for group in ["end_to_end", "per_layer"] {
        let listed = manifest.get(group).and_then(Json::as_array).unwrap_or(&[]);
        if listed.is_empty() {
            problems.push(format!("BENCHMARK.json lists no {group} metrics"));
        }
        for entry in listed {
            let name = entry.get("name").and_then(Json::as_str).unwrap_or("?");
            let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("?");
            let got = doc.get(group).and_then(|g| g.get(name));
            let value = got.and_then(|m| m.get("value")).and_then(Json::as_f64);
            let got_unit = got.and_then(|m| m.get("unit")).and_then(Json::as_str);
            match value {
                Some(v) if v.is_finite() && got_unit == Some(unit) => {}
                Some(v) if !v.is_finite() => {
                    problems.push(format!("{workload} {name}: not finite"))
                }
                Some(_) => {
                    problems.push(format!("{workload} {name}: unit {got_unit:?}, want {unit}"))
                }
                None => problems.push(format!("{workload} {name}: missing")),
            }
        }
    }
    let known = |group: &str, table: &[(&str, &str)]| {
        let listed = manifest.get(group).and_then(Json::as_array).unwrap_or(&[]);
        table.len() == listed.len()
    };
    if !known("end_to_end", END_TO_END) || !known("per_layer", PER_LAYER) {
        problems
            .push("BENCHMARK.json and the benchmark disagree on how many metrics there are".into());
    }
    problems
}

/// All four workloads, `repeat` times; prints every metric, the spread of
/// each end-to-end metric against its bound when repeated, and one final
/// JSON document. `Ok(false)` on any failed check.
pub fn run_all(seed: u64, seconds: u64, repeat: usize, check: bool) -> Result<bool, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let manifest = std::fs::read(Path::new("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|b| json::parse(&b).map_err(|e| format!("BENCHMARK.json: {e}")))?;
    let (scale, seconds) = if check {
        ("smoke", 2)
    } else {
        ("default", seconds)
    };
    let mut ok = true;
    let mut runs: Vec<Vec<Json>> = Vec::new();
    for _ in 0..repeat {
        let mut docs = Vec::new();
        for workload in Workload::ALL {
            let (doc, passed) = run_child(workload, seed, seconds, scale)?;
            ok &= passed;
            if check {
                for problem in check_against_manifest(&manifest, &doc, workload.name()) {
                    eprintln!("check: {problem}");
                    ok = false;
                }
            }
            docs.push(doc);
        }
        runs.push(docs);
    }

    // Median (and, when repeated, quartiles and spread) of every metric.
    let bounds = manifest
        .get("end_to_end")
        .and_then(Json::as_array)
        .unwrap_or(&[]);
    let mut summary = Vec::new();
    if repeat > 1 {
        println!("# workload metric median q1 q3 spread bound");
    }
    for (w, workload) in Workload::ALL.iter().enumerate() {
        let mut groups = Vec::new();
        for (group, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let mut rows = Vec::new();
            for &(name, unit) in table {
                let values: Vec<f64> = runs
                    .iter()
                    .filter_map(|docs| value_of(&docs[w], group, name))
                    .collect();
                let mut row = vec![
                    ("median".to_string(), num(median(&values))),
                    ("unit".into(), text(unit)),
                ];
                if values.len() > 1 {
                    let (q1, q3) = quartiles(&values);
                    let spread = (q3 - q1) / median(&values);
                    row.extend([("q1".into(), num(q1)), ("q3".into(), num(q3))]);
                    let bound = bounds
                        .iter()
                        .find(|b| b.get("name").and_then(Json::as_str) == Some(name))
                        .and_then(|b| b.get("bound"))
                        .and_then(Json::as_f64);
                    if let Some(bound) = bound.filter(|_| group == "end_to_end") {
                        let flag = if spread > bound {
                            "  SPREAD EXCEEDS BOUND"
                        } else {
                            ""
                        };
                        println!(
                            "{} {name} {} {q1} {q3} {spread:.4} {bound}{flag}",
                            workload.name(),
                            median(&values)
                        );
                    }
                }
                rows.push((name.to_string(), Json::Obj(row)));
            }
            groups.push((group.to_string(), Json::Obj(rows)));
        }
        summary.push((workload.name().to_string(), Json::Obj(groups)));
    }
    let document = Json::Obj(vec![
        ("benchmark".into(), text("gqr-benchmark")),
        ("passed".into(), Json::Bool(ok)),
        ("summary".into(), Json::Obj(summary)),
        (
            "runs".into(),
            Json::Arr(runs.into_iter().map(Json::Arr).collect()),
        ),
    ]);
    println!("{document}");
    Ok(ok)
}
