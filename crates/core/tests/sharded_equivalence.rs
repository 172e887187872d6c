//! Sharding is an execution plan, not an approximation: for every probe
//! strategy and shard count, [`ShardedIndex`] searches every shard as one
//! index, so it must return *bit-identical* neighbors (ids and distances)
//! to the single unsharded engine over the same data at every budget, down
//! to the probe counters, the stop reason and the recall prediction.
//!
//! Written as plain `#[test]` loops over shard counts, strategies, and
//! queries rather than a property-test macro so every combination runs on
//! every `cargo test`.

use gqr_core::engine::{ProbeStrategy, QueryEngine, SearchParams};
use gqr_core::recall::{Calibrator, RecallModel};
use gqr_core::request::SearchRequest;
use gqr_core::shard::ShardedIndex;
use gqr_core::table::HashTable;
use gqr_l2h::pcah::Pcah;

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];
const STRATEGIES: [ProbeStrategy; 5] = [
    ProbeStrategy::HammingRanking,
    ProbeStrategy::GenerateHammingRanking,
    ProbeStrategy::QdRanking,
    ProbeStrategy::GenerateQdRanking,
    ProbeStrategy::MultiIndexHashing { blocks: 2 },
];
/// `k` of every request here, and the budgets a search is held to.
const K: usize = 10;
const BUDGETS: [usize; 4] = [K, 50, 200, usize::MAX];

/// 403 4-D rows (indivisible by every shard count above) with deterministic
/// jitter so exact distances are informative.
fn dataset() -> (Vec<f32>, usize) {
    let mut data = Vec::new();
    for i in 0..403u32 {
        data.push((i % 20) as f32 + 0.001 * ((i * 7) % 13) as f32);
        data.push((i / 20) as f32);
        data.push(((i * 3) % 11) as f32 * 0.5);
        data.push(((i * 5) % 17) as f32 * 0.25);
    }
    (data, 4)
}

fn queries() -> Vec<Vec<f32>> {
    (0..12)
        .map(|i| {
            vec![
                (i % 19) as f32 + 0.37,
                (i % 15) as f32 + 0.11,
                (i % 9) as f32 * 0.5 + 0.2,
                (i % 13) as f32 * 0.25 + 0.05,
            ]
        })
        .collect()
}

fn exhaustive(strategy: ProbeStrategy) -> SearchParams {
    budgeted(strategy, usize::MAX)
}

fn budgeted(strategy: ProbeStrategy, n_candidates: usize) -> SearchParams {
    SearchParams {
        k: K,
        n_candidates,
        strategy,
        early_stop: false,
        ..Default::default()
    }
}

/// A recall model calibrated on `engine` for every strategy, with the
/// first 60 rows as queries against exact truth.
fn calibrate(engine: &QueryEngine<'_, Pcah>, data: &[f32], dim: usize) -> RecallModel {
    let queries = &data[..60 * dim];
    let truth: Vec<Vec<u32>> = queries
        .chunks_exact(dim)
        .map(|q| {
            let mut by_dist: Vec<(f32, u32)> = data
                .chunks_exact(dim)
                .enumerate()
                .map(|(i, row)| {
                    let d = row.iter().zip(q).map(|(a, b)| (a - b) * (a - b)).sum();
                    (d, i as u32)
                })
                .collect();
            by_dist.sort_by(|a, b| a.partial_cmp(b).unwrap());
            by_dist[..K].iter().map(|&(_, id)| id).collect()
        })
        .collect();
    let mut calibrator = Calibrator::new(K).min_count(1);
    for strategy in &STRATEGIES {
        calibrator.observe(engine, *strategy, queries, &truth);
    }
    calibrator.finalize()
}

#[test]
fn sharded_matches_unsharded_for_all_strategies_and_shard_counts() {
    let (data, dim) = dataset();
    let model = Pcah::train(&data, dim, 4).unwrap();
    let table: HashTable = HashTable::build(&model, &data, dim);
    let mut reference = QueryEngine::new(&model, &table, &data, dim);
    reference.enable_mih(2);

    for s in SHARD_COUNTS {
        let mut index = ShardedIndex::build(&model, &data, dim, s);
        index.enable_mih(2);
        assert_eq!(index.n_shards(), s);
        assert_eq!(index.n_items(), 403);
        for strategy in STRATEGIES {
            let params = exhaustive(strategy);
            for q in queries() {
                let want = reference.search(&q, &params);
                let got = index.search(&q, &params);
                assert_eq!(
                    got.ranked(),
                    want.ranked(),
                    "S={s} strategy={} q={q:?}",
                    strategy.name()
                );
                assert_eq!(
                    got.stats.items_evaluated, 403,
                    "exhaustive probing evaluates every item across shards"
                );
            }
        }
    }
}

#[test]
fn filtered_sharded_matches_filtered_engine() {
    let (data, dim) = dataset();
    let model = Pcah::train(&data, dim, 4).unwrap();
    let table: HashTable = HashTable::build(&model, &data, dim);
    let mut reference = QueryEngine::new(&model, &table, &data, dim);
    reference.enable_mih(2);
    let accept = |id: u32| id.is_multiple_of(3);

    for s in SHARD_COUNTS {
        let mut index = ShardedIndex::build(&model, &data, dim, s);
        index.enable_mih(2);
        for strategy in &STRATEGIES {
            let params = exhaustive(*strategy);
            for q in queries().into_iter().take(4) {
                let want = reference.run(SearchRequest::new(&q).params(params).filter(accept));
                let got = index.run(SearchRequest::new(&q).params(params).filter(accept));
                assert_eq!(
                    got.ranked(),
                    want.ranked(),
                    "S={s} strategy={}",
                    strategy.name()
                );
                assert!(got.ids.iter().all(|&id| accept(id)));
            }
        }
    }
}

#[test]
fn sharded_matches_unsharded_engine_at_every_budget() {
    // One search over every shard is one search over one table: the same
    // units in the same order under the same budget, so everything the
    // engine reports must agree — not just the neighbors.
    let (data, dim) = dataset();
    let model = Pcah::train(&data, dim, 4).unwrap();
    let table: HashTable = HashTable::build(&model, &data, dim);
    let mut engine = QueryEngine::new(&model, &table, &data, dim);
    engine.enable_mih(2);
    let recall = calibrate(&engine, &data, dim);
    let reference = engine.with_recall_model(&recall);

    let mut requests = Vec::new();
    for strategy in &STRATEGIES {
        for budget in BUDGETS {
            for early_stop in [false, true] {
                let params = budgeted(*strategy, budget);
                requests.push(SearchParams {
                    early_stop,
                    ..params
                });
            }
        }
        let adaptive = SearchParams::for_k(K)
            .strategy(*strategy)
            .recall_target(0.9);
        requests.push(adaptive.build().unwrap());
    }
    let (mut early_stops, mut predictions, mut mih_cut) = (0, 0, 0);
    for s in SHARD_COUNTS {
        let mut index = ShardedIndex::build(&model, &data, dim, s).with_recall_model(&recall);
        index.enable_mih(2);
        for params in &requests {
            for q in queries() {
                let want = reference.search(&q, params);
                let got = index.search(&q, params);
                let at = format!(
                    "S={s} {} budget={} early_stop={} target={:?}",
                    params.strategy.name(),
                    params.n_candidates,
                    params.early_stop,
                    params.recall_target.map(|t| t.target)
                );
                assert_eq!(got.ranked(), want.ranked(), "{at}");
                assert_eq!(got.stats, want.stats, "{at}");
                assert_eq!(got.stop_reason, want.stop_reason, "{at}");
                assert_eq!(
                    got.predicted_recall.map(f32::to_bits),
                    want.predicted_recall.map(f32::to_bits),
                    "{at}"
                );
                early_stops += usize::from(got.stop_reason == gqr_core::StopReason::EarlyStop);
                predictions += usize::from(got.predicted_recall.is_some());
                let mih = matches!(params.strategy, ProbeStrategy::MultiIndexHashing { .. });
                mih_cut += usize::from(mih && got.stop_reason != gqr_core::StopReason::Exhausted);
            }
        }
    }
    assert!(
        early_stops > 0,
        "the fixture must exercise the Theorem-2 stop"
    );
    assert!(
        predictions > 0,
        "the fixture must exercise the recall target"
    );
    assert!(mih_cut > 0, "the fixture must cut an MIH search short");
}
