//! The four stopping criteria of §4.2 compose: candidate budget, bucket
//! budget, wall-clock deadline, and the Theorem-2 early stop.

use gqr_core::engine::{ProbeStrategy, QueryEngine, SearchParams};
use gqr_core::table::HashTable;
use gqr_l2h::lsh::Lsh;
use std::time::Duration;

fn fixture() -> (Vec<f32>, Lsh, HashTable) {
    let mut data = Vec::new();
    for i in 0..3000u32 {
        data.push((i % 50) as f32 + 0.001 * (i % 7) as f32);
        data.push((i / 50) as f32);
    }
    let model = Lsh::train(&data, 2, 10, 3).unwrap();
    let table: HashTable = HashTable::build(&model, &data, 2);
    (data, model, table)
}

#[test]
fn max_buckets_caps_probing() {
    let (data, model, table) = fixture();
    let engine = QueryEngine::new(&model, &table, &data, 2);
    for cap in [1usize, 5, 50] {
        let params = SearchParams {
            k: 5,
            n_candidates: usize::MAX,
            strategy: ProbeStrategy::GenerateQdRanking,
            max_buckets: Some(cap),
            ..Default::default()
        };
        let res = engine.search(&[25.0, 30.0], &params);
        assert!(
            res.stats.buckets_probed <= cap,
            "cap {cap}: probed {}",
            res.stats.buckets_probed
        );
    }
}

#[test]
fn time_limit_zero_stops_after_at_most_one_bucket() {
    let (data, model, table) = fixture();
    let engine = QueryEngine::new(&model, &table, &data, 2);
    let params = SearchParams {
        k: 5,
        n_candidates: usize::MAX,
        strategy: ProbeStrategy::GenerateQdRanking,
        time_limit: Some(Duration::ZERO),
        ..Default::default()
    };
    let res = engine.search(&[25.0, 30.0], &params);
    // The deadline is checked before each bucket; with a zero deadline the
    // loop exits immediately.
    assert_eq!(res.stats.buckets_probed, 0);
    assert!(res.is_empty());
}

#[test]
fn generous_limits_do_not_change_results() {
    let (data, model, table) = fixture();
    let engine = QueryEngine::new(&model, &table, &data, 2);
    let base = SearchParams {
        k: 5,
        n_candidates: 500,
        strategy: ProbeStrategy::GenerateQdRanking,
        ..Default::default()
    };
    let limited = SearchParams {
        max_buckets: Some(usize::MAX),
        time_limit: Some(Duration::from_secs(3600)),
        ..base
    };
    let q = [10.0f32, 12.0];
    assert_eq!(
        engine.search(&q, &base).ranked(),
        engine.search(&q, &limited).ranked()
    );
}

#[test]
fn whichever_criterion_fires_first_wins() {
    let (data, model, table) = fixture();
    let engine = QueryEngine::new(&model, &table, &data, 2);
    // Bucket cap far tighter than candidate budget.
    let params = SearchParams {
        k: 5,
        n_candidates: 10_000,
        strategy: ProbeStrategy::GenerateHammingRanking,
        max_buckets: Some(3),
        ..Default::default()
    };
    let res = engine.search(&[0.0, 0.0], &params);
    assert!(res.stats.buckets_probed <= 3);
    assert!(res.stats.items_evaluated < 10_000);
}

/// Which [`BucketSource`](gqr_core::probe_loop) answers a case.
#[derive(Clone, Copy, Debug)]
enum Source {
    /// The single-table engine under this strategy (table or MIH source).
    Engine(ProbeStrategy),
    /// The same, over a 2-bit PCAH table: orthonormal projections make the
    /// Theorem-2 bound tight enough to fire (under the 10-bit LSH fixture
    /// it stays below the k-th distance until the table is exhausted).
    Pca(ProbeStrategy),
    /// The engine's planner picking brute force over a small survivor set.
    Brute,
    /// A two-table `MultiTableIndex` (merged-tables source) under GQR.
    TwoTables,
}

#[test]
fn every_source_reports_why_it_stopped() {
    use gqr_core::attrs::{AttributeStore, Predicate};
    use gqr_core::metrics::MetricsRegistry;
    use gqr_core::multi_table::MultiTableIndex;
    use gqr_core::recall::Calibrator;
    use gqr_core::request::SearchRequest;
    use gqr_core::StopReason::{self, *};
    use gqr_l2h::pcah::Pcah;
    use gqr_l2h::HashModel;
    use ProbeStrategy::*;

    let (data, model, table) = fixture();
    let q = [25.0f32, 30.0];
    let metrics = MetricsRegistry::enabled();
    let mut engine = QueryEngine::new(&model, &table, &data, 2).with_metrics(metrics.clone());
    engine.enable_mih(2);
    let mih = MultiIndexHashing { blocks: 2 };
    let ranking = [
        HammingRanking,
        GenerateHammingRanking,
        QdRanking,
        GenerateQdRanking,
    ];

    // A recall model calibrated on the query itself, against exact truth.
    let mut truth: Vec<(f32, u32)> = data
        .chunks_exact(2)
        .enumerate()
        .map(|(i, r)| ((r[0] - q[0]).powi(2) + (r[1] - q[1]).powi(2), i as u32))
        .collect();
    truth.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let truth = vec![truth[..5].iter().map(|&(_, id)| id).collect::<Vec<u32>>()];
    let mut calibrator = Calibrator::new(5).min_count(1);
    for strategy in ranking.into_iter().chain([mih]) {
        calibrator.observe(&engine, strategy, &q, &truth);
    }
    let recall = calibrator.finalize();
    // 30 of 3000 rows carry tag 7: far under any budget here, so brute.
    let tags: Vec<i64> = (0..3000).map(|i| i % 100).collect();
    let attrs = AttributeStore::builder(3000)
        .int_column("tag", tags)
        .unwrap()
        .build();
    let engine = engine.with_recall_model(&recall).with_attrs(&attrs);
    let pca = Pcah::train(&data, 2, 2).unwrap();
    let pca_table: HashTable = HashTable::build(&pca, &data, 2);
    let pca_engine = QueryEngine::new(&pca, &pca_table, &data, 2).with_metrics(metrics.clone());
    let model2 = Lsh::train(&data, 2, 10, 9).unwrap();
    let models: Vec<&dyn HashModel> = vec![&model, &model2];
    let two_tables = MultiTableIndex::build(models, &data, 2).with_metrics(metrics.clone());

    let all = SearchParams {
        k: 5,
        n_candidates: usize::MAX,
        ..Default::default()
    };
    let budget = SearchParams {
        n_candidates: 40,
        ..all
    };
    let capped = SearchParams {
        max_buckets: Some(3),
        ..all
    };
    let timed_out = SearchParams {
        time_limit: Some(Duration::ZERO),
        ..all
    };
    let early = SearchParams {
        early_stop: true,
        ..all
    };
    let sla = SearchParams::for_k(5).recall_target(0.6).build().unwrap();

    let mut cases: Vec<(Source, SearchParams, StopReason)> = Vec::new();
    for strategy in ranking.into_iter().chain([mih]) {
        for (params, reason) in [
            (all, Exhausted),
            (sla, RecallTarget),
            (budget, Budget),
            (capped, BucketCap),
            (timed_out, Deadline),
        ] {
            cases.push((Source::Engine(strategy), params, reason));
        }
    }
    // Theorem 2 needs quantization distances: the QD strategies only.
    cases.push((Source::Pca(QdRanking), early, EarlyStop));
    cases.push((Source::Pca(GenerateQdRanking), early, EarlyStop));
    cases.push((Source::Brute, budget, Exhausted));
    cases.push((Source::Brute, timed_out, Deadline));
    for (params, reason) in [
        (all, Exhausted),
        (budget, Budget),
        (capped, BucketCap),
        (timed_out, Deadline),
    ] {
        cases.push((Source::TwoTables, params, reason));
    }

    for (source, mut params, reason) in cases {
        if let Source::Engine(strategy) | Source::Pca(strategy) = source {
            params.strategy = strategy;
        }
        let counter = format!(
            "gqr_stop_total{{reason=\"{}\",strategy=\"{}\"}}",
            reason.as_str(),
            params.strategy.name()
        );
        let before = metrics.counter_value(&counter).unwrap_or(0);
        let req = SearchRequest::new(&q).params(params);
        let res = match source {
            Source::Engine(_) => engine.run(req),
            // Deep inside one quadrant, far from both hyperplanes.
            Source::Pca(_) => pca_engine.run(SearchRequest::new(&[10.0, 12.0]).params(params)),
            Source::Brute => engine.run(req.predicate(Predicate::eq("tag", 7i64))),
            Source::TwoTables => two_tables.run(req),
        };
        assert_eq!(res.stop_reason, reason, "{source:?} {params:?}");
        let after = metrics.counter_value(&counter).unwrap_or(0);
        assert_eq!(after, before + 1, "{counter} after {source:?}");
        if matches!(source, Source::Brute) {
            assert_eq!(res.stats.buckets_probed, 0, "brute arm probes no bucket");
        }
    }
}
