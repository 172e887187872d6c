//! The exact re-rank kernel: squared Euclidean distance at descriptor
//! dimensionalities (Table 1's 128/384/512/960), plus scalar-vs-dispatched
//! comparisons for the runtime-dispatched kernel layer and the blocked tile
//! kernel behind `ScoreBlock`.
//!
//! Set `GQR_BENCH_SMOKE=1` to shrink iteration counts for CI smoke runs;
//! the kernel comparison additionally self-times both paths and records a
//! `results/BENCH_kernels.json` baseline (plain `std` formatting — no JSON
//! dependency) with the measured tile speedup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gqr_linalg::kernels::{self, scalar, sq_dist_batch};
use gqr_linalg::vecops::sq_dist_f32;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::Instant;

fn smoke() -> bool {
    std::env::var_os("GQR_BENCH_SMOKE").is_some()
}

fn bench_sq_dist(c: &mut Criterion) {
    let mut group = c.benchmark_group("sq_dist_f32");
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    for &dim in &[32usize, 128, 384, 960] {
        let a: Vec<f32> = (0..dim).map(|_| rng.gen()).collect();
        let b_: Vec<f32> = (0..dim).map(|_| rng.gen()).collect();
        group.throughput(Throughput::Elements(dim as u64));
        group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |bench, _| {
            bench.iter(|| black_box(sq_dist_f32(black_box(&a), black_box(&b_))))
        });
    }
    group.finish();
}

fn bench_rerank_batch(c: &mut Criterion) {
    // Re-ranking one bucket's worth of items (the EP = 10 expectation) plus
    // a large candidate batch.
    let mut group = c.benchmark_group("rerank");
    group.sample_size(30);
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let dim = 128;
    let q: Vec<f32> = (0..dim).map(|_| rng.gen()).collect();
    for &batch in &[10usize, 1000] {
        let items: Vec<f32> = (0..batch * dim).map(|_| rng.gen()).collect();
        group.throughput(Throughput::Elements(batch as u64));
        group.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |bench, _| {
            bench.iter(|| {
                let mut topk = gqr_core::topk::TopK::new(20);
                for (i, row) in items.chunks_exact(dim).enumerate() {
                    topk.push(sq_dist_f32(&q, row), i as u32);
                }
                black_box(topk.kth_dist())
            })
        });
    }
    group.finish();
}

/// Scalar reference vs the dispatched kernel, row-at-a-time and as a
/// contiguous tile, at the paper's SIFT (128) and GIST (960)
/// dimensionalities.
fn bench_kernel_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel");
    group.sample_size(30);
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let rows_n = if smoke() { 64 } else { 1024 };
    for &dim in &[128usize, 960] {
        let q: Vec<f32> = (0..dim).map(|_| rng.gen()).collect();
        let rows: Vec<f32> = (0..rows_n * dim).map(|_| rng.gen()).collect();
        let mut out = vec![0.0f32; rows_n];
        group.throughput(Throughput::Elements((rows_n * dim) as u64));
        group.bench_with_input(BenchmarkId::new("scalar_rows", dim), &dim, |bench, _| {
            bench.iter(|| {
                let mut acc = 0.0f32;
                for row in rows.chunks_exact(dim) {
                    acc += scalar::sq_dist(black_box(&q), black_box(row));
                }
                black_box(acc)
            })
        });
        group.bench_with_input(
            BenchmarkId::new("dispatched_rows", dim),
            &dim,
            |bench, _| {
                bench.iter(|| {
                    let mut acc = 0.0f32;
                    for row in rows.chunks_exact(dim) {
                        acc += sq_dist_f32(black_box(&q), black_box(row));
                    }
                    black_box(acc)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("dispatched_tile", dim),
            &dim,
            |bench, _| {
                bench.iter(|| {
                    sq_dist_batch(black_box(&q), black_box(&rows), &mut out);
                    black_box(out[0])
                })
            },
        );
    }
    group.finish();
}

/// Self-timed scalar-vs-tile baseline, recorded to
/// `results/BENCH_kernels.json`. Runs in every environment (the criterion
/// harness may be stubbed in offline CI; this section only needs `std`).
fn bench_kernel_baseline(c: &mut Criterion) {
    c.bench_function("kernel_baseline_record", |b| b.iter(|| 0));

    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let rows_n = if smoke() { 256 } else { 2048 };
    let reps = if smoke() { 20 } else { 200 };
    let mut lines = Vec::new();
    for &dim in &[128usize, 960] {
        let q: Vec<f32> = (0..dim).map(|_| rng.gen()).collect();
        let rows: Vec<f32> = (0..rows_n * dim).map(|_| rng.gen()).collect();
        let mut out = vec![0.0f32; rows_n];

        // Warm both paths, then time scalar row scan vs dispatched tile.
        let mut sink = 0.0f32;
        for row in rows.chunks_exact(dim) {
            sink += scalar::sq_dist(&q, row);
        }
        sq_dist_batch(&q, &rows, &mut out);
        let t = Instant::now();
        for _ in 0..reps {
            for row in rows.chunks_exact(dim) {
                sink += scalar::sq_dist(black_box(&q), black_box(row));
            }
        }
        let scalar_ns = t.elapsed().as_nanos() as f64 / (reps * rows_n) as f64;
        let t = Instant::now();
        for _ in 0..reps {
            sq_dist_batch(black_box(&q), black_box(&rows), &mut out);
            sink += out[0];
        }
        let tile_ns = t.elapsed().as_nanos() as f64 / (reps * rows_n) as f64;
        black_box(sink);
        let speedup = scalar_ns / tile_ns;
        println!(
            "kernels: d={dim} kernel={} scalar_row={scalar_ns:.1}ns/row \
             dispatched_tile={tile_ns:.1}ns/row speedup={speedup:.2}x",
            kernels::kernel_name()
        );
        lines.push(format!(
            "    {{\"dim\": {dim}, \"rows\": {rows_n}, \"scalar_row_ns\": {scalar_ns:.2}, \
             \"dispatched_tile_ns\": {tile_ns:.2}, \"speedup\": {speedup:.3}}}"
        ));
    }

    // Hand-formatted JSON: this tiny record does not justify a dependency.
    let json = format!(
        "{{\n  \"bench\": \"kernels\",\n  \"kernel\": \"{}\",\n  \"measurements\": [\n{}\n  ]\n}}\n",
        kernels::kernel_name(),
        lines.join(",\n")
    );
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join("BENCH_kernels.json");
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("kernels: could not write {}: {e}", path.display());
        } else {
            println!("kernels: baseline recorded to {}", path.display());
        }
    }
}

criterion_group!(
    benches,
    bench_sq_dist,
    bench_rerank_batch,
    bench_kernel_dispatch,
    bench_kernel_baseline
);
criterion_main!(benches);
