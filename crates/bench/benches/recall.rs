//! Adaptive recall controller benchmark: probe savings at a fixed SLA.
//!
//! Headline number for the recall-target feature: on a clustered dataset
//! (heterogeneous query difficulty — the regime adaptive stopping exists
//! for), a calibrated engine asked for `recall_target(0.9)` must reach
//! measured recall@10 ≥ 0.9 while probing ≥ 25% fewer buckets per query
//! (mean across strategies) than the smallest fixed `n_candidates` budget
//! that reaches the same recall.
//!
//! The program prints one line per strategy and a summary line, and exits
//! non-zero when the gate fails. Run with
//! `cargo bench -p gqr-bench --bench recall`; set `GQR_BENCH_SMOKE=1` to
//! shrink the dataset for CI smoke runs. Bucket counts are
//! kernel-independent, so the gate holds identically under
//! `GQR_FORCE_SCALAR=1`.

use gqr_core::engine::{ProbeStrategy, QueryEngine, SearchParams};
use gqr_core::recall::Calibrator;
use gqr_core::table::HashTable;
use gqr_l2h::lsh::Lsh;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::Instant;

const DIM: usize = 8;
const K: usize = 10;
const M: usize = 64;
const MIH_BLOCKS: usize = 4;
const TARGET: f32 = 0.9;
/// The gate: mean probe reduction against the fixed-budget baseline.
const GATE_REDUCTION: f64 = 0.25;
const BUCKET_CAP: usize = 768;
const LADDER: [usize; 6] = [50, 100, 200, 400, 800, 1600];

fn smoke() -> bool {
    std::env::var_os("GQR_BENCH_SMOKE").is_some()
}

struct Fixture {
    data: Vec<f32>,
    calib: Vec<f32>,
    eval: Vec<f32>,
}

/// Gaussian-mixture data: well-separated centers, per-cluster sizes varying
/// so query difficulty is heterogeneous (σ chosen as in the SLA conformance
/// suite: small enough that every strategy's recall ceiling clears the
/// target, large enough that cluster-boundary queries need a deeper walk).
fn clustered(n_clusters: usize, calib_per: usize, eval_per: usize) -> Fixture {
    let sigma = 0.045f32;
    let mut rng = ChaCha8Rng::seed_from_u64(43);
    let centers: Vec<f32> = (0..n_clusters * DIM)
        .map(|_| rng.gen::<f32>() * 10.0)
        .collect();
    let gauss = |rng: &mut ChaCha8Rng| -> f32 {
        let sum: f32 = (0..6).map(|_| rng.gen::<f32>()).sum();
        (sum - 3.0) * (12.0f32 / 6.0).sqrt()
    };
    let mut data = Vec::new();
    for c in 0..n_clusters {
        let size = 24 + (rng.gen::<u32>() % 32) as usize;
        for _ in 0..size {
            for d in 0..DIM {
                data.push(centers[c * DIM + d] + sigma * gauss(&mut rng));
            }
        }
    }
    let mut jittered = |n_per: usize| -> Vec<f32> {
        let mut out = Vec::new();
        for c in 0..n_clusters {
            for _ in 0..n_per {
                for d in 0..DIM {
                    out.push(centers[c * DIM + d] + sigma * gauss(&mut rng));
                }
            }
        }
        out
    };
    let calib = jittered(calib_per);
    let eval = jittered(eval_per);
    Fixture { data, calib, eval }
}

fn brute_force(data: &[f32], q: &[f32], k: usize) -> Vec<u32> {
    let mut all: Vec<(u32, f64)> = data
        .chunks_exact(DIM)
        .enumerate()
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

/// (mean recall@K, mean buckets probed, mean latency µs) over `queries`.
fn run_queries(
    engine: &QueryEngine<'_, Lsh, u64>,
    queries: &[f32],
    gt: &[Vec<u32>],
    params: &SearchParams,
) -> (f64, f64, f64) {
    let mut recall_sum = 0.0f64;
    let mut bucket_sum = 0usize;
    let t = Instant::now();
    for (q, truth) in queries.chunks_exact(DIM).zip(gt) {
        let resp = black_box(engine.search(q, params));
        let hits = resp.ids.iter().filter(|id| truth.contains(id)).count();
        recall_sum += hits as f64 / K as f64;
        bucket_sum += resp.stats.buckets_probed;
    }
    let us = t.elapsed().as_micros() as f64;
    let n = gt.len() as f64;
    (recall_sum / n, bucket_sum as f64 / n, us / n)
}

fn main() {
    let (n_clusters, calib_per, eval_per) = if smoke() { (30, 2, 2) } else { (80, 4, 4) };
    let fx = clustered(n_clusters, calib_per, eval_per);
    let model = Lsh::train(&fx.data, DIM, M, 7).unwrap();
    let table: HashTable = HashTable::build(&model, &fx.data, DIM);
    let mut engine = QueryEngine::new(&model, &table, &fx.data, DIM);
    engine.enable_mih(MIH_BLOCKS);

    let strategies = [
        ProbeStrategy::HammingRanking,
        ProbeStrategy::GenerateHammingRanking,
        ProbeStrategy::QdRanking,
        ProbeStrategy::GenerateQdRanking,
        ProbeStrategy::MultiIndexHashing { blocks: MIH_BLOCKS },
    ];

    let calib_gt: Vec<Vec<u32>> = fx
        .calib
        .chunks_exact(DIM)
        .map(|q| brute_force(&fx.data, q, K))
        .collect();
    let t = Instant::now();
    let mut cal = Calibrator::new(K).bucket_cap(BUCKET_CAP);
    for strat in strategies {
        cal.observe(&engine, strat, &fx.calib, &calib_gt);
    }
    let recall_model = cal.finalize();
    let calib_ms = t.elapsed().as_millis();
    engine.set_recall_model(&recall_model);

    let eval_gt: Vec<Vec<u32>> = fx
        .eval
        .chunks_exact(DIM)
        .map(|q| brute_force(&fx.data, q, K))
        .collect();

    let mut reductions = Vec::new();
    let mut min_achieved = f64::INFINITY;
    for strat in strategies {
        let adaptive = SearchParams::for_k(K)
            .strategy(strat)
            .recall_target(TARGET)
            .max_buckets(BUCKET_CAP)
            .build()
            .unwrap();
        let (achieved, buckets, us) = run_queries(&engine, &fx.eval, &eval_gt, &adaptive);

        // Baseline: the smallest fixed candidate budget whose measured
        // recall reaches what the controller achieved.
        let mut baseline = None;
        for &n in &LADDER {
            let params = SearchParams::for_k(K)
                .strategy(strat)
                .candidates(n)
                .max_buckets(BUCKET_CAP)
                .build()
                .unwrap();
            let (r, b, fus) = run_queries(&engine, &fx.eval, &eval_gt, &params);
            if r >= achieved || n == *LADDER.last().unwrap() {
                baseline = Some((n, r, b, fus));
                break;
            }
        }
        let (base_n, base_recall, base_buckets, base_us) = baseline.unwrap();
        let reduction = 1.0 - buckets / base_buckets;
        reductions.push(reduction);
        min_achieved = min_achieved.min(achieved);
        println!(
            "recall: {} adaptive recall={achieved:.3} buckets/query={buckets:.1} \
             ({us:.0}us) vs fixed n={base_n} recall={base_recall:.3} \
             buckets/query={base_buckets:.1} ({base_us:.0}us) reduction={:.1}%",
            strat.name(),
            reduction * 100.0
        );
    }

    let mean_reduction = reductions.iter().sum::<f64>() / reductions.len() as f64;
    let gate_pass = min_achieved >= TARGET as f64 && mean_reduction >= GATE_REDUCTION;
    println!(
        "recall: mean probe reduction {:.1}% at min achieved recall {min_achieved:.3} \
         (calibration took {calib_ms}ms) gate_pass={gate_pass}",
        mean_reduction * 100.0
    );
    assert!(
        gate_pass,
        "recall controller gate FAILED: need recall@{K} >= {TARGET} with a mean probe \
         reduction >= {GATE_REDUCTION}"
    );
}
