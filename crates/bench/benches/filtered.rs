//! Filtered-search benchmark: the selectivity-aware planner vs the closure
//! post-filter escape hatch.
//!
//! Headline number for the attribute-filtering feature: across a
//! selectivity sweep (0.001 → 0.9) the planner must never lose recall
//! against the trivially-correct closure post-filter, and at selectivity
//! ≤ 0.01 — where the planner switches to brute-force over the posting
//! bitmap instead of probing the whole code space — it must be at least
//! 5x faster at equal recall@10.
//!
//! The program prints one line per selectivity and exits non-zero when the
//! 5x low-selectivity gate fails. Run with
//! `cargo bench -p gqr-bench --bench filtered`; set `GQR_BENCH_SMOKE=1` to
//! shrink the dataset for CI smoke runs.

use gqr_core::attrs::{AttributeStore, Predicate};
use gqr_core::engine::{ProbeStrategy, QueryEngine, SearchParams};
use gqr_core::request::SearchRequest;
use gqr_core::table::HashTable;
use gqr_l2h::lsh::Lsh;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::Instant;

const DIM: usize = 8;
const K: usize = 10;
const M: usize = 16;
/// `pct` values are uniform in `0..PCT_BINS`, so a range predicate
/// `pct <= hi` has selectivity `(hi+1)/PCT_BINS` (kept under the postings
/// cap so every sweep point gets an exact bitmap).
const PCT_BINS: i64 = 1000;
const SELECTIVITIES: [f64; 5] = [0.001, 0.01, 0.1, 0.5, 0.9];
/// The issue's gate: at selectivity ≤ 0.01 the planner must win ≥ 5x.
const GATE_MAX_SELECTIVITY: f64 = 0.01;
const GATE_SPEEDUP: f64 = 5.0;

fn smoke() -> bool {
    std::env::var_os("GQR_BENCH_SMOKE").is_some()
}

fn filtered_ground_truth(data: &[f32], q: &[f32], mask: &[bool], k: usize) -> Vec<u32> {
    let mut all: Vec<(u32, f64)> = data
        .chunks_exact(DIM)
        .enumerate()
        .filter(|(i, _)| mask[*i])
        .map(|(i, row)| {
            let d: f64 = row
                .iter()
                .zip(q)
                .map(|(a, b)| {
                    let diff = (*a - *b) as f64;
                    diff * diff
                })
                .sum();
            (i as u32, d)
        })
        .collect();
    all.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
    all.truncate(k);
    all.into_iter().map(|(i, _)| i).collect()
}

/// (mean recall@K, mean latency µs) for one arm over all queries.
fn measure(
    engine: &QueryEngine<'_, Lsh, u64>,
    queries: &[f32],
    gt: &[Vec<u32>],
    params: SearchParams,
    mut arm: impl FnMut(&QueryEngine<'_, Lsh, u64>, &[f32], SearchParams) -> Vec<u32>,
) -> (f64, f64) {
    let mut recall_sum = 0.0f64;
    let t = Instant::now();
    for (q, truth) in queries.chunks_exact(DIM).zip(gt) {
        let ids = black_box(arm(engine, q, params));
        let denom = truth.len().clamp(1, K);
        let hits = ids.iter().filter(|id| truth.contains(id)).count();
        recall_sum += hits as f64 / denom as f64;
    }
    let us = t.elapsed().as_micros() as f64;
    let n = gt.len() as f64;
    (recall_sum / n, us / n)
}

fn main() {
    let (n_items, n_queries) = if smoke() { (15_000, 30) } else { (60_000, 100) };
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let data: Vec<f32> = (0..n_items * DIM)
        .map(|_| rng.gen::<f32>() * 10.0)
        .collect();
    let queries: Vec<f32> = (0..n_queries * DIM)
        .map(|_| rng.gen::<f32>() * 10.0)
        .collect();
    let pct: Vec<i64> = (0..n_items)
        .map(|_| (rng.gen::<u64>() % PCT_BINS as u64) as i64)
        .collect();
    let attrs = AttributeStore::builder(n_items)
        .int_column("pct", pct.clone())
        .unwrap()
        .build();

    let model = Lsh::train(&data, DIM, M, 7).unwrap();
    let table: HashTable = HashTable::build(&model, &data, DIM);
    let engine = QueryEngine::new(&model, &table, &data, DIM).with_attrs(&attrs);
    // Exhaustive budget on both arms: the closure baseline walks the whole
    // probe sequence, so it reaches the filtered-recall ceiling, and the
    // planner keeps every arm exact — recall@10 is equal by construction
    // and the comparison is pure latency.
    let params = SearchParams {
        k: K,
        n_candidates: usize::MAX,
        strategy: ProbeStrategy::GenerateQdRanking,
        ..Default::default()
    };
    let brute_budget = 4096usize.max(16 * K); // the engine's usize::MAX rule

    let mut gate_pass = true;
    let mut gate_rows = 0usize;
    for target in SELECTIVITIES {
        let hi = ((target * PCT_BINS as f64).ceil() as i64 - 1).max(0);
        let pred = Predicate::range("pct", None, Some(hi)).unwrap();
        let mask: Vec<bool> = pct.iter().map(|&v| v <= hi).collect();
        let survivors = mask.iter().filter(|&&m| m).count();
        let actual = survivors as f64 / n_items as f64;
        let plan = attrs.plan(&pred, brute_budget).plan.name();

        let gt: Vec<Vec<u32>> = queries
            .chunks_exact(DIM)
            .map(|q| filtered_ground_truth(&data, q, &mask, K))
            .collect();

        let (plan_recall, plan_us) = measure(&engine, &queries, &gt, params, |e, q, p| {
            e.run(SearchRequest::new(q).params(p).predicate(pred.clone()))
                .ids
        });
        let (post_recall, post_us) = measure(&engine, &queries, &gt, params, |e, q, p| {
            e.run(
                SearchRequest::new(q)
                    .params(p)
                    .filter(|id| mask[id as usize]),
            )
            .ids
        });
        let speedup = post_us / plan_us.max(1e-9);

        let gated = target <= GATE_MAX_SELECTIVITY;
        if gated {
            gate_rows += 1;
            if speedup < GATE_SPEEDUP || plan_recall + 1e-9 < post_recall {
                gate_pass = false;
            }
        }
        println!(
            "filtered: selectivity={actual:.4} ({survivors} rows) plan={plan} \
             planner={plan_us:.0}us recall={plan_recall:.3} \
             closure={post_us:.0}us recall={post_recall:.3} speedup={speedup:.1}x{}",
            if gated { " [gated]" } else { "" }
        );
    }
    if gate_rows == 0 {
        gate_pass = false; // the sweep must actually exercise the gate
    }
    println!("filtered: gate_pass={gate_pass} ({gate_rows} gated rows)");
    assert!(
        gate_pass,
        "filtered planner gate FAILED: need >= {GATE_SPEEDUP}x over the closure post-filter \
         at selectivity <= {GATE_MAX_SELECTIVITY} with no recall loss"
    );
}
