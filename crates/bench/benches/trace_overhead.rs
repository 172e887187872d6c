//! Tracing tax: single-query latency with tracing off (the default), with
//! tracing enabled but the query unsampled (the steady-state serving
//! configuration — one atomic fetch-add at admission, every span call a
//! branch), and with every query sampled (`sample_every = 1`, full span
//! tree + QD trajectory recorded). The disabled and unsampled modes must
//! stay within a few percent of each other; the gate (`gate_pass` in
//! `results/BENCH_trace.json`) enforces unsampled overhead ≤ 2%.
//!
//! Self-timed with min-of-repeats (the criterion harness may be stubbed in
//! offline CI; this section only needs `std`). JSON is hand-formatted; the
//! workspace takes no JSON dependency.
//!
//! Set `GQR_BENCH_SMOKE=1` to shrink the workload for CI smoke runs.

use criterion::{criterion_group, criterion_main, Criterion};
use gqr_bench::models::ModelKind;
use gqr_core::engine::{ProbeStrategy, QueryEngine, SearchParams};
use gqr_core::metrics::{MetricsRegistry, TraceConfig};
use gqr_core::table::HashTable;
use gqr_dataset::{DatasetSpec, Scale};
use std::hint::black_box;
use std::time::Instant;

fn smoke() -> bool {
    std::env::var_os("GQR_BENCH_SMOKE").is_some()
}

/// Mean per-query microseconds over one pass of the batch.
fn pass_us<M: gqr_l2h::HashModel + ?Sized>(
    engine: &QueryEngine<'_, M>,
    queries: &[Vec<f32>],
    params: &SearchParams,
) -> f64 {
    let t = Instant::now();
    for q in queries {
        black_box(engine.search(black_box(q), params));
    }
    t.elapsed().as_secs_f64() / queries.len() as f64 * 1e6
}

/// Mean per-query microseconds of each engine, best of `repeats` passes
/// (min is robust to scheduler noise in a way the mean is not). The
/// engines take turns pass by pass, so drift of the machine over the run
/// lands on every mode alike instead of reading as one mode's overhead.
fn best_pass_us<M: gqr_l2h::HashModel + ?Sized, const N: usize>(
    engines: [&QueryEngine<'_, M>; N],
    queries: &[Vec<f32>],
    params: &SearchParams,
    repeats: usize,
) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    for _ in 0..repeats {
        for (engine, best) in engines.iter().zip(&mut best) {
            *best = best.min(pass_us(engine, queries, params));
        }
    }
    best
}

fn bench_trace_overhead(c: &mut Criterion) {
    c.bench_function("trace_overhead_record", |b| b.iter(|| 0));

    let ds = DatasetSpec::cifar60k().scale(Scale::Smoke).generate(51);
    let model = ModelKind::Itq.train(ds.as_slice(), ds.dim(), 10, 0);
    let table: HashTable = HashTable::build(model.as_ref(), ds.as_slice(), ds.dim());
    let (n_queries, repeats) = if smoke() { (100, 5) } else { (400, 9) };
    let queries = ds.sample_queries(n_queries, 9);
    let params = SearchParams::for_k(20)
        .candidates(200)
        .strategy(ProbeStrategy::GenerateQdRanking)
        .build()
        .expect("valid search params");

    // Tracing off: the registry records aggregates, every trace_begin
    // returns the disabled context, span calls are a single branch.
    let metrics_off = MetricsRegistry::enabled();
    let engine_off = QueryEngine::new(model.as_ref(), &table, ds.as_slice(), ds.dim())
        .with_metrics(metrics_off.clone());

    // Tracing enabled, queries unsampled: one fetch-add per query at
    // admission decides "not sampled"; everything downstream stays
    // branch-only. Query ordinal 0 is always sampled (0 is a multiple of
    // every period), so burn it before timing.
    let metrics_unsampled = MetricsRegistry::enabled();
    metrics_unsampled.enable_tracing(TraceConfig {
        sample_every: u64::MAX,
        ..TraceConfig::default()
    });
    let engine_unsampled = QueryEngine::new(model.as_ref(), &table, ds.as_slice(), ds.dim())
        .with_metrics(metrics_unsampled.clone());
    black_box(engine_unsampled.search(&queries[0], &params));

    // The gated pair is timed in alternation, off first in every round.
    let pair = [&engine_off, &engine_unsampled];
    best_pass_us(pair, &queries, &params, 2); // warm-up
    let [off_us, unsampled_us] = best_pass_us(pair, &queries, &params, repeats);

    // Every query sampled: full span tree, per-probe QD steps, ring push.
    let metrics_sampled = MetricsRegistry::enabled();
    metrics_sampled.enable_tracing(TraceConfig {
        sample_every: 1,
        ..TraceConfig::default()
    });
    let engine = QueryEngine::new(model.as_ref(), &table, ds.as_slice(), ds.dim())
        .with_metrics(metrics_sampled.clone());
    best_pass_us([&engine], &queries, &params, 2); // warm-up
    let [sampled_us] = best_pass_us([&engine], &queries, &params, repeats);

    let pct = |mode_us: f64| ((mode_us - off_us) / off_us * 100.0).max(0.0);
    let unsampled_pct = pct(unsampled_us);
    let sampled_pct = pct(sampled_us);
    let gate_pass = unsampled_pct <= 2.0;

    println!(
        "trace_overhead: off={off_us:.2}us unsampled={unsampled_us:.2}us (+{unsampled_pct:.2}%) \
         sampled={sampled_us:.2}us (+{sampled_pct:.2}%) gate_pass={gate_pass}"
    );
    assert!(
        metrics_sampled
            .tracing()
            .expect("tracing enabled")
            .store()
            .pushed()
            > 0,
        "sampled mode must actually record traces"
    );

    let json = format!(
        "{{\n  \"bench\": \"trace_overhead\",\n  \"dataset\": \"cifar60k_smoke\",\n  \
         \"queries\": {n_queries},\n  \"repeats\": {repeats},\n  \
         \"tracing_off_us\": {off_us:.3},\n  \
         \"tracing_unsampled_us\": {unsampled_us:.3},\n  \
         \"tracing_sampled_us\": {sampled_us:.3},\n  \
         \"unsampled_overhead_pct\": {unsampled_pct:.3},\n  \
         \"sampled_overhead_pct\": {sampled_pct:.3},\n  \
         \"gate_threshold_pct\": 2.0,\n  \"gate_pass\": {gate_pass}\n}}\n"
    );
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    if std::fs::create_dir_all(&out_dir).is_ok() {
        let out = out_dir.join("BENCH_trace.json");
        if let Err(e) = std::fs::write(&out, json) {
            eprintln!("trace_overhead: could not write {}: {e}", out.display());
        } else {
            println!("trace_overhead: baseline recorded to {}", out.display());
        }
    }
}

criterion_group!(benches, bench_trace_overhead);
criterion_main!(benches);
