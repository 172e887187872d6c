//! A miniature query service over a sharded index.
//!
//! Wires the serving layer together the way a retrieval service would run
//! it in-process:
//!
//! 1. partition the catalog across shards ([`ShardedIndex`]), each with its
//!    own hash table;
//! 2. drive a query stream with per-request deadlines through the single
//!    front door ([`SearchRequest`]): every request is one search over
//!    every shard's table at one global budget;
//! 3. read the serving metrics (shard spans, deadline misses) off the
//!    shared [`MetricsRegistry`].
//!
//! The results are bit-identical to an unsharded engine over the same
//! data — sharding changes the execution plan, never the answer.
//!
//! ```sh
//! cargo run --release --example sharded_service
//! ```

use gqr::prelude::*;
use std::time::{Duration, Instant};

fn main() {
    // -- Catalog and model ------------------------------------------------
    let ds = DatasetSpec::cifar60k().scale(Scale::Smoke).generate(42);
    println!("catalog: {} items × {} dims", ds.n(), ds.dim());

    let model = Itq::train(ds.as_slice(), ds.dim(), 12).expect("training");

    // -- Serving state: shards + metrics ----------------------------------
    let metrics = MetricsRegistry::enabled();
    let n_shards = 4;
    let t0 = Instant::now();
    let index = ShardedIndexBuilder::new()
        .shards(n_shards)
        .metrics(metrics.clone())
        .build(&model, ds.as_slice(), ds.dim())
        .expect("valid shard configuration");
    println!(
        "built {} shards in {:?} (sizes {:?})",
        index.n_shards(),
        t0.elapsed(),
        index.shard_sizes()
    );

    // -- Serve a query stream ---------------------------------------------
    let queries = ds.sample_queries(200, 7);
    let params = SearchParams::for_k(10)
        .candidates(500)
        .strategy(ProbeStrategy::GenerateQdRanking)
        .build()
        .expect("valid search params");

    let t0 = Instant::now();
    let mut latencies = Vec::with_capacity(queries.len());
    let mut misses = 0usize;
    for q in &queries {
        // Every request carries an absolute deadline; a late finish is
        // counted under gqr_request_deadline_missed_total.
        let deadline = Instant::now() + Duration::from_millis(50);
        let start = Instant::now();
        let res = index.run(SearchRequest::new(q).params(params).deadline(deadline));
        latencies.push(start.elapsed());
        assert_eq!(res.len(), 10);
        if Instant::now() > deadline {
            misses += 1;
        }
    }
    let wall = t0.elapsed();
    latencies.sort();
    println!(
        "\nserved {} queries in {:?} ({:.0} qps)",
        queries.len(),
        wall,
        queries.len() as f64 / wall.as_secs_f64()
    );
    println!(
        "latency p50 {:?}  p99 {:?}  deadline misses {}",
        latencies[latencies.len() / 2],
        latencies[latencies.len() * 99 / 100],
        misses
    );

    // -- One filtered request (e.g. a tenant/visibility predicate) --------
    // Filters speak global ids, like the neighbor lists.
    let res = index.run(
        SearchRequest::new(&queries[0])
            .params(params)
            .filter(|id| id % 2 == 0),
    );
    assert!(res.ids.iter().all(|&id| id % 2 == 0));
    println!("filtered request returned {} even-id neighbors", res.len());

    // -- The operator's view ----------------------------------------------
    let snap = metrics.snapshot();
    println!("\nserving metrics (excerpt):");
    if let Some(v) = metrics.counter_value("gqr_sharded_queries_total") {
        println!("  gqr_sharded_queries_total = {v}");
    }
    let prom = snap.to_prometheus();
    let shard_lines = prom
        .lines()
        .filter(|l| l.starts_with("gqr_shard_total_ns") && l.contains("_count"))
        .count();
    println!("  shard span series (gqr_shard_total_ns *_count lines): {shard_lines}");
}
