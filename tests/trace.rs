//! End-to-end tracing integration: a sampled query on every execution
//! surface must produce a well-formed span tree covering the five query
//! phases, a sharded table-strategy query must be one search (no lanes),
//! sharded MIH must add fanout/shard/queue-wait/run lanes, QD trajectories
//! must be present, and the Chrome trace-event export must match the golden
//! schema (hand-checked structure: the workspace has no general-purpose JSON
//! parser beyond the serving crate's).

use gqr::core::engine::{ProbeStrategy, QueryEngine, SearchParams};
use gqr::core::executor::Executor;
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

/// The fixture's parameters under MIH, the one sharded strategy that fans
/// out per shard.
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
    let index =
        ShardedIndex::build(&model, ds.as_slice(), ds.dim(), 3).with_metrics(metrics.clone());
    let q = ds.sample_queries(1, 5).remove(0);
    index.run(SearchRequest::new(&q).params(params));

    let tracing = metrics.tracing().unwrap();
    let traces = tracing.store().recent();
    assert_eq!(traces.len(), 1);
    let t = &traces[0];
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

#[test]
fn sharded_trace_has_fanout_and_per_shard_lanes() {
    let (ds, params) = fixture();
    let model = Itq::train(ds.as_slice(), ds.dim(), 10).unwrap();
    let metrics = traced_metrics();
    let mut index =
        ShardedIndex::build(&model, ds.as_slice(), ds.dim(), 3).with_metrics(metrics.clone());
    index.enable_mih(2);
    let q = ds.sample_queries(1, 5).remove(0);
    index.run(SearchRequest::new(&q).params(mih(params)));

    let tracing = metrics.tracing().unwrap();
    let traces = tracing.store().recent();
    assert_eq!(traces.len(), 1);
    let t = &traces[0];
    t.check_well_formed().unwrap();
    assert_eq!(t.name, "sharded");
    let names = span_names(t);
    assert!(names.contains(&"fanout"), "{names:?}");
    assert!(names.contains(&"merge"), "{names:?}");
    assert_eq!(
        names.iter().filter(|n| **n == "shard").count(),
        3,
        "one shard span per shard: {names:?}"
    );
    // Every shard runs the full phase set under its own span, on its own
    // display track (lane 0 is the parent).
    assert_eq!(names.iter().filter(|n| **n == "hash_query").count(), 3);
    let tracks: std::collections::BTreeSet<u32> = t
        .events
        .iter()
        .filter_map(|e| match e.data {
            EventData::Begin {
                name: "shard",
                track,
                ..
            } => Some(track),
            _ => None,
        })
        .collect();
    assert_eq!(tracks, [1u32, 2, 3].into_iter().collect());
}

#[test]
fn executor_sharded_trace_records_queue_wait_and_worker() {
    let (ds, params) = fixture();
    let model = Itq::train(ds.as_slice(), ds.dim(), 10).unwrap();
    let metrics = traced_metrics();
    let mut index =
        ShardedIndex::build(&model, ds.as_slice(), ds.dim(), 2).with_metrics(metrics.clone());
    index.enable_mih(2);
    let exec = Executor::builder().workers(2).build();
    let q = ds.sample_queries(1, 5).remove(0);
    index.run_on(&exec, SearchRequest::new(&q).params(mih(params)));

    let tracing = metrics.tracing().unwrap();
    let traces = tracing.store().recent();
    assert_eq!(traces.len(), 1);
    let t = &traces[0];
    t.check_well_formed().unwrap();
    let names = span_names(t);
    assert_eq!(names.iter().filter(|n| **n == "queue_wait").count(), 2);
    assert_eq!(names.iter().filter(|n| **n == "run").count(), 2);
    // `run` spans carry the 1-based worker index (0 = ran off-pool); with a
    // 2-worker pool every observed id must be 1 or 2.
    for e in &t.events {
        if let EventData::Begin {
            name: "run", arg, ..
        } = e.data
        {
            assert!(arg <= 2, "worker id {arg} out of range for 2 workers");
        }
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
    // MIH's shard lanes become named threads.
    assert!(doc.contains("\"shard 0\""), "{doc}");
    assert!(doc.contains("\"shard 1\""), "{doc}");
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
