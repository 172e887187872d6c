//! End-to-end tracing integration: a sampled query on every execution
//! surface must produce a well-formed span tree covering the five query
//! phases, a sharded query must be one search (no lanes) under every
//! strategy, QD trajectories must be present, and the Chrome trace-event
//! export must match the golden schema (hand-checked structure: the
//! workspace has no general-purpose JSON parser beyond the serving crate's).

use gqr::core::engine::{ProbeStrategy, QueryEngine, SearchParams};
use gqr::core::metrics::{to_chrome_trace, EventData, MetricsRegistry, Trace, TraceConfig};
use gqr::core::request::SearchRequest;
use gqr::core::shard::ShardedIndex;
use gqr::core::table::HashTable;
use gqr::prelude::*;

fn fixture() -> (Dataset, SearchParams) {
    let ds = DatasetSpec::cifar60k().scale(Scale::Smoke).generate(17);
    let params = SearchParams {
        k: 10,
        n_candidates: 300,
        strategy: ProbeStrategy::GenerateQdRanking,
        ..Default::default()
    };
    (ds, params)
}

/// The fixture's parameters under MIH.
fn mih(params: SearchParams) -> SearchParams {
    SearchParams {
        strategy: ProbeStrategy::MultiIndexHashing { blocks: 2 },
        ..params
    }
}

fn traced_metrics() -> MetricsRegistry {
    let metrics = MetricsRegistry::enabled();
    metrics.enable_tracing(TraceConfig {
        sample_every: 1,
        ..TraceConfig::default()
    });
    metrics
}

fn span_names(t: &Trace) -> Vec<&'static str> {
    t.events
        .iter()
        .filter_map(|e| match e.data {
            EventData::Begin { name, .. } => Some(name),
            _ => None,
        })
        .collect()
}

#[test]
fn single_engine_trace_covers_all_phases_with_qd_trajectory() {
    let (ds, params) = fixture();
    let model = Itq::train(ds.as_slice(), ds.dim(), 10).unwrap();
    let table: HashTable = HashTable::build(&model, ds.as_slice(), ds.dim());
    let metrics = traced_metrics();
    let engine =
        QueryEngine::new(&model, &table, ds.as_slice(), ds.dim()).with_metrics(metrics.clone());
    let q = ds.sample_queries(1, 5).remove(0);
    engine.search(&q, &params);

    let tracing = metrics.tracing().unwrap();
    let traces = tracing.store().recent();
    assert_eq!(traces.len(), 1);
    let t = &traces[0];
    t.check_well_formed().unwrap();
    assert_eq!(t.name, "GQR");
    let names = span_names(t);
    for phase in [
        "hash_query",
        "probe_generate",
        "bucket_lookup",
        "evaluate",
        "rerank",
    ] {
        assert!(
            names.contains(&phase),
            "missing phase span {phase}: {names:?}"
        );
    }
    // The QD trajectory: ranks ascend from 0, QD is monotone non-decreasing
    // (GQR probes buckets in quantization-distance order).
    let mut steps = 0u32;
    let mut last_qd = f64::NEG_INFINITY;
    for e in &t.events {
        if let EventData::QdStep {
            bucket_rank, qd, ..
        } = e.data
        {
            assert_eq!(bucket_rank, steps, "ranks must be contiguous from 0");
            assert!(qd >= last_qd, "QD order violated: {qd} after {last_qd}");
            last_qd = qd;
            steps += 1;
        }
    }
    assert!(steps > 0, "sampled query must record its QD trajectory");
}

#[test]
fn sharded_table_strategy_trace_is_one_search() {
    let (ds, params) = fixture();
    let model = Itq::train(ds.as_slice(), ds.dim(), 10).unwrap();
    let metrics = traced_metrics();
    let mut index =
        ShardedIndex::build(&model, ds.as_slice(), ds.dim(), 3).with_metrics(metrics.clone());
    index.enable_mih(2);
    let q = ds.sample_queries(1, 5).remove(0);
    for params in [params, mih(params)] {
        index.run(SearchRequest::new(&q).params(params));
    }

    let tracing = metrics.tracing().unwrap();
    let traces = tracing.store().recent();
    assert_eq!(traces.len(), 2);
    for t in &traces {
        t.check_well_formed().unwrap();
        assert_eq!(t.name, "sharded");
        let names = span_names(t);
        for lane in ["fanout", "shard", "merge"] {
            assert!(
                !names.contains(&lane),
                "one search has no {lane}: {names:?}"
            );
        }
        // One set of phase spans, all on the parent's track.
        assert_eq!(names.iter().filter(|n| **n == "hash_query").count(), 1);
        assert!(names.contains(&"evaluate"), "{names:?}");
        assert!(t.events.iter().all(|e| match e.data {
            EventData::Begin { track, .. } => track == 0,
            _ => true,
        }));
    }
}

#[test]
fn chrome_export_matches_golden_schema() {
    let (ds, params) = fixture();
    let model = Itq::train(ds.as_slice(), ds.dim(), 10).unwrap();
    let metrics = traced_metrics();
    let mut index =
        ShardedIndex::build(&model, ds.as_slice(), ds.dim(), 2).with_metrics(metrics.clone());
    index.enable_mih(2);
    let q = ds.sample_queries(1, 5).remove(0);
    index.run(SearchRequest::new(&q).params(mih(params)));

    let tracing = metrics.tracing().unwrap();
    let doc = to_chrome_trace(&tracing.store().all());
    // Golden schema (chrome://tracing "JSON object format"): a traceEvents
    // array, process/thread name metadata, B/E span pairs with numeric
    // pid/tid/ts, and X-less strict pairing (every B has an E).
    assert!(doc.starts_with("{\"traceEvents\":["), "{doc}");
    assert!(doc.trim_end().ends_with("]}"), "{doc}");
    assert!(doc.contains("\"name\":\"process_name\""), "{doc}");
    assert!(doc.contains("\"name\":\"thread_name\""), "{doc}");
    assert!(doc.contains("\"ph\":\"M\""), "{doc}");
    assert!(doc.contains("\"ph\":\"B\""), "{doc}");
    assert!(doc.contains("\"ph\":\"E\""), "{doc}");
    assert_eq!(
        doc.matches("\"ph\":\"B\"").count(),
        doc.matches("\"ph\":\"E\"").count(),
        "every span must open and close"
    );
    // QD steps and markers export as counter/instant events.
    assert!(
        doc.contains("\"ph\":\"C\"") || doc.contains("\"ph\":\"i\""),
        "{doc}"
    );
    // Balanced braces/brackets: structurally parseable JSON.
    assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    assert_eq!(doc.matches('[').count(), doc.matches(']').count());
}

#[test]
fn slow_log_reports_forced_slow_queries() {
    let (ds, params) = fixture();
    let model = Itq::train(ds.as_slice(), ds.dim(), 10).unwrap();
    let table: HashTable = HashTable::build(&model, ds.as_slice(), ds.dim());
    let metrics = MetricsRegistry::enabled();
    metrics.enable_tracing(TraceConfig {
        sample_every: 1,
        slow_threshold: std::time::Duration::ZERO, // everything is "slow"
        ..TraceConfig::default()
    });
    let engine =
        QueryEngine::new(&model, &table, ds.as_slice(), ds.dim()).with_metrics(metrics.clone());
    let q = ds.sample_queries(1, 5).remove(0);
    engine.search(&q, &params);

    let tracing = metrics.tracing().unwrap();
    let log = tracing.store().slow_log();
    assert!(log.contains("GQR"), "{log}");
    assert!(log.contains("qd trajectory"), "{log}");
}
