//! Mutation-layer throughput: insert rate into the delta segment, query
//! latency while the index is fragmented (delta + tombstones), the cost of
//! one compaction, and query latency after it. Baselines are recorded to
//! `results/BENCH_mutation.json` (hand-formatted; the workspace takes no
//! JSON dependency).
//!
//! Set `GQR_BENCH_SMOKE=1` to shrink the workload for CI smoke runs.

use criterion::{criterion_group, criterion_main, Criterion};
use gqr_core::engine::SearchParams;
use gqr_core::live::MutableIndex;
use gqr_core::request::SearchRequest;
use gqr_dataset::{DatasetSpec, Scale};
use gqr_l2h::itq::Itq;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn smoke() -> bool {
    std::env::var_os("GQR_BENCH_SMOKE").is_some()
}

/// Self-timed churn workload. Runs in every environment (the criterion
/// harness may be stubbed in offline CI; this section only needs `std`).
fn bench_mutation_churn(c: &mut Criterion) {
    c.bench_function("mutation_churn_record", |b| b.iter(|| 0));

    let ds = DatasetSpec::audio50k().scale(Scale::Smoke).generate(91);
    let bits = 10;
    let (n_inserts, n_deletes, n_queries) = if smoke() {
        (1_000, 300, 50)
    } else {
        (10_000, 3_000, 200)
    };

    let model = Itq::train(ds.as_slice(), ds.dim(), bits).unwrap();
    let index: MutableIndex<_> = MutableIndex::builder(Arc::new(model))
        .compaction_threshold(usize::MAX) // compaction timed explicitly below
        .build(ds.as_slice(), ds.dim());
    let writer = index.writer();
    let base_n = index.n_items();

    // Insert throughput: fresh rows landing in the delta segment.
    let rows: Vec<Vec<f32>> = (0..n_inserts)
        .map(|i| {
            let src = (i * 17) % base_n;
            let mut row = ds.as_slice()[src * ds.dim()..(src + 1) * ds.dim()].to_vec();
            row[0] += 0.125;
            row
        })
        .collect();
    let t = Instant::now();
    for row in &rows {
        black_box(writer.insert(row));
    }
    let insert_s = t.elapsed().as_secs_f64();
    let inserts_per_s = n_inserts as f64 / insert_s;

    // Delete throughput: tombstone the oldest third of the inserts.
    let t = Instant::now();
    for id in 0..n_deletes as u32 {
        black_box(writer.delete(base_n as u32 + id));
    }
    let delete_s = t.elapsed().as_secs_f64();
    let deletes_per_s = n_deletes as f64 / delete_s;

    // Query latency while fragmented: delta + tombstones both live.
    let params = SearchParams::for_k(10).candidates(2_000).build().unwrap();
    let queries: Vec<&[f32]> = (0..n_queries)
        .map(|i| &ds.as_slice()[(i * 31 % base_n) * ds.dim()..(i * 31 % base_n + 1) * ds.dim()])
        .collect();
    let t = Instant::now();
    for q in &queries {
        black_box(index.run(SearchRequest::new(q).params(params)));
    }
    let frag_query_us = t.elapsed().as_secs_f64() / n_queries as f64 * 1e6;

    // One explicit compaction, then the same queries against the clean base.
    let t = Instant::now();
    index.compact();
    let compact_s = t.elapsed().as_secs_f64();
    let gen = index.pin();
    assert_eq!(gen.delta_rows(), 0);
    assert_eq!(gen.n_tombstones(), 0);

    let t = Instant::now();
    for q in &queries {
        black_box(index.run(SearchRequest::new(q).params(params)));
    }
    let compacted_query_us = t.elapsed().as_secs_f64() / n_queries as f64 * 1e6;

    println!(
        "mutation: n={base_n} dim={} inserts/s={inserts_per_s:.0} deletes/s={deletes_per_s:.0} \
         fragmented_query={frag_query_us:.1}us compact={compact_s:.4}s \
         compacted_query={compacted_query_us:.1}us",
        ds.dim()
    );

    let json = format!(
        "{{\n  \"bench\": \"mutation\",\n  \"dataset\": \"audio50k_smoke\",\n  \
         \"base_rows\": {base_n},\n  \"dim\": {},\n  \"bits\": {bits},\n  \
         \"inserts\": {n_inserts},\n  \"deletes\": {n_deletes},\n  \
         \"inserts_per_second\": {inserts_per_s:.1},\n  \
         \"deletes_per_second\": {deletes_per_s:.1},\n  \
         \"fragmented_query_us\": {frag_query_us:.2},\n  \
         \"compaction_seconds\": {compact_s:.6},\n  \
         \"compacted_query_us\": {compacted_query_us:.2}\n}}\n",
        ds.dim()
    );
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    if std::fs::create_dir_all(&out_dir).is_ok() {
        let out = out_dir.join("BENCH_mutation.json");
        if let Err(e) = std::fs::write(&out, json) {
            eprintln!("mutation: could not write {}: {e}", out.display());
        } else {
            println!("mutation: baseline recorded to {}", out.display());
        }
    }
}

criterion_group!(benches, bench_mutation_churn);
criterion_main!(benches);
