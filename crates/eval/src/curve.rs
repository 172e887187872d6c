//! Recall–time and recall–items curve runners.
//!
//! The paper's primary performance indicator (§2.3) is the recall–time
//! curve: run every query, checkpoint the running top-k at a ladder of
//! candidate budgets, average recall per budget, and sum wall time per
//! budget. Because the engine's evaluation is incremental, one pass per
//! query yields the whole curve — including the probers' upfront pass over
//! every occupied bucket, so QR/HR's slow start shows up exactly where the
//! paper says it does.

use crate::metrics::recall;
use gqr_core::engine::Checkpoint;

/// One point of a performance curve at a fixed candidate budget.
#[derive(Clone, Debug)]
pub struct CurvePoint {
    /// Candidate budget `N` at this checkpoint.
    pub budget: usize,
    /// Mean recall@k across queries.
    pub recall: f64,
    /// Total wall-clock seconds across queries to reach this budget (the
    /// paper reports total time for the query batch).
    pub total_time_s: f64,
    /// Mean items evaluated per query.
    pub mean_items: f64,
    /// Mean buckets probed per query.
    pub mean_buckets: f64,
}

/// A labeled performance curve (one line of a paper figure).
#[derive(Clone, Debug)]
pub struct RecallCurve {
    /// Legend label, e.g. `"GQR"` or `"GHR (10 tables)"`.
    pub label: String,
    /// Points in ascending budget order.
    pub points: Vec<CurvePoint>,
}

/// Run the checkpointed search `run(query, budgets)` for every query and
/// average against ground truth. `truth[i]` holds the true k-NN ids of
/// `queries[i]`; recall is measured against its first `k` entries, where `k`
/// is the length of the engine's returned top-k (the checkpoint's
/// `top_ids`).
pub fn recall_time_curve<F>(
    label: impl Into<String>,
    queries: &[Vec<f32>],
    truth: &[Vec<u32>],
    budgets: &[usize],
    mut run: F,
) -> RecallCurve
where
    F: FnMut(&[f32], &[usize]) -> Vec<Checkpoint>,
{
    assert_eq!(queries.len(), truth.len(), "one truth list per query");
    assert!(!budgets.is_empty(), "need at least one budget");
    let mut agg: Vec<CurvePoint> = budgets
        .iter()
        .map(|&b| CurvePoint {
            budget: b,
            recall: 0.0,
            total_time_s: 0.0,
            mean_items: 0.0,
            mean_buckets: 0.0,
        })
        .collect();

    for (q, t) in queries.iter().zip(truth) {
        let cps = run(q, budgets);
        assert_eq!(
            cps.len(),
            budgets.len(),
            "runner must return one checkpoint per budget"
        );
        for (point, cp) in agg.iter_mut().zip(&cps) {
            // `t` holds exactly the k true neighbors the caller wants
            // measured; a not-yet-full top-k simply scores lower.
            point.recall += recall(&cp.top_ids, t);
            point.total_time_s += cp.elapsed.as_secs_f64();
            point.mean_items += cp.items_evaluated as f64;
            point.mean_buckets += cp.buckets_probed as f64;
        }
    }
    let n = queries.len().max(1) as f64;
    for p in &mut agg {
        p.recall /= n;
        p.mean_items /= n;
        p.mean_buckets /= n;
    }
    RecallCurve {
        label: label.into(),
        points: agg,
    }
}

/// Same measurement, but the x-axis of interest is retrieved items
/// (paper Fig 8) — identical data, provided for naming clarity at call
/// sites.
pub fn recall_items_curve<F>(
    label: impl Into<String>,
    queries: &[Vec<f32>],
    truth: &[Vec<u32>],
    budgets: &[usize],
    run: F,
) -> RecallCurve
where
    F: FnMut(&[f32], &[usize]) -> Vec<Checkpoint>,
{
    recall_time_curve(label, queries, truth, budgets, run)
}

/// Total time (seconds) at which `curve` first reaches `target` recall,
/// linearly interpolated between checkpoints; `None` if never reached.
/// This is the quantity behind the paper's time-at-recall bar charts
/// (Figs 9, 14, 16) and speedup plots (Fig 11).
pub fn time_to_recall(curve: &RecallCurve, target: f64) -> Option<f64> {
    let mut prev: Option<&CurvePoint> = None;
    for p in &curve.points {
        if p.recall >= target {
            return match prev {
                None => Some(p.total_time_s),
                Some(lo) => {
                    let dr = p.recall - lo.recall;
                    if dr <= 1e-12 {
                        Some(p.total_time_s)
                    } else {
                        let frac = (target - lo.recall) / dr;
                        Some(lo.total_time_s + frac * (p.total_time_s - lo.total_time_s))
                    }
                }
            };
        }
        prev = Some(p);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn cp(budget: usize, ids: &[u32], ms: u64) -> Checkpoint {
        Checkpoint {
            budget,
            items_evaluated: budget,
            buckets_probed: budget / 2,
            elapsed: Duration::from_millis(ms),
            top_ids: ids.to_vec(),
        }
    }

    #[test]
    fn curve_averages_across_queries() {
        let queries = vec![vec![0.0f32], vec![1.0f32]];
        let truth = vec![vec![1u32, 2], vec![3u32, 4]];
        let budgets = [10usize, 20];
        let curve = recall_time_curve("t", &queries, &truth, &budgets, |q, _b| {
            if q[0] == 0.0 {
                vec![cp(10, &[1], 1), cp(20, &[1, 2], 2)]
            } else {
                vec![cp(10, &[9], 1), cp(20, &[3], 3)]
            }
        });
        // Budget 10: recalls 0.5 and 0.0 → 0.25; budget 20: 1.0 and 0.5 → 0.75.
        assert!((curve.points[0].recall - 0.25).abs() < 1e-12);
        assert!((curve.points[1].recall - 0.75).abs() < 1e-12);
        assert!((curve.points[0].total_time_s - 0.002).abs() < 1e-9);
        assert!((curve.points[1].total_time_s - 0.005).abs() < 1e-9);
        assert!((curve.points[1].mean_buckets - 10.0).abs() < 1e-12);
    }

    #[test]
    fn time_to_recall_interpolates() {
        let curve = RecallCurve {
            label: "x".into(),
            points: vec![
                CurvePoint {
                    budget: 1,
                    recall: 0.2,
                    total_time_s: 1.0,
                    mean_items: 0.0,
                    mean_buckets: 0.0,
                },
                CurvePoint {
                    budget: 2,
                    recall: 0.8,
                    total_time_s: 3.0,
                    mean_items: 0.0,
                    mean_buckets: 0.0,
                },
            ],
        };
        // Halfway between 0.2 and 0.8 → halfway between 1.0 and 3.0.
        let t = time_to_recall(&curve, 0.5).unwrap();
        assert!((t - 2.0).abs() < 1e-12);
        assert_eq!(time_to_recall(&curve, 0.9), None);
        assert!((time_to_recall(&curve, 0.1).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn flat_recall_segment_does_not_divide_by_zero() {
        let curve = RecallCurve {
            label: "flat".into(),
            points: vec![
                CurvePoint {
                    budget: 1,
                    recall: 0.5,
                    total_time_s: 1.0,
                    mean_items: 0.0,
                    mean_buckets: 0.0,
                },
                CurvePoint {
                    budget: 2,
                    recall: 0.5,
                    total_time_s: 2.0,
                    mean_items: 0.0,
                    mean_buckets: 0.0,
                },
            ],
        };
        assert!((time_to_recall(&curve, 0.5).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one checkpoint per budget")]
    fn runner_must_match_budgets() {
        let queries = vec![vec![0.0f32]];
        let truth = vec![vec![1u32]];
        let _ = recall_time_curve("bad", &queries, &truth, &[1, 2], |_q, _b| {
            vec![cp(1, &[1], 1)]
        });
    }
}
