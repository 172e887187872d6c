//! Popcount-kernel benchmark across the generic code widths: scalar
//! reference vs the dispatched Hamming batch kernel at m ∈ {32, 64, 128,
//! 256} (1-, 1-, 2-, and 4-block codes), plus a wide-code end-to-end query
//! latency row over a 128-bit table.
//!
//! The program self-times both paths, prints one line per width, and exits
//! non-zero unless the dispatched kernel is ≥ 1.5x the scalar path at
//! m = 128 when the AVX2 popcount is active; on scalar-only hardware or
//! under `GQR_FORCE_SCALAR=1` the gate is waived (both paths are the same
//! code, so there is no speedup to demand). Run with
//! `cargo bench -p gqr-bench --bench hamming`; set `GQR_BENCH_SMOKE=1` to
//! shrink iteration counts for CI smoke runs.

use gqr_core::engine::{QueryEngine, SearchParams};
use gqr_core::table::HashTable;
use gqr_l2h::lsh::Lsh;
use gqr_linalg::kernels::{self, active_kernel, hamming_batch, scalar, KernelKind};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::Instant;

/// The gate: the dispatched kernel at m = 128 is at least this many times
/// the scalar path when AVX2 is active.
const GATE_SPEEDUP: f64 = 1.5;

fn smoke() -> bool {
    std::env::var_os("GQR_BENCH_SMOKE").is_some()
}

/// Blocks backing an m-bit code (m = 32 still occupies one u64 block).
fn blocks_for(m: usize) -> usize {
    m.div_ceil(64).max(1)
}

fn random_codes(rng: &mut ChaCha8Rng, n: usize, m: usize) -> Vec<u64> {
    let blocks = blocks_for(m);
    let top_mask = if m.is_multiple_of(64) {
        u64::MAX
    } else {
        (1u64 << (m % 64)) - 1
    };
    (0..n * blocks)
        .map(|i| {
            let word: u64 = rng.gen();
            // Zero the bits above m in the last block of each code, as the
            // encoders do.
            if i % blocks == blocks - 1 {
                word & top_mask
            } else {
                word
            }
        })
        .collect()
}

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let rows_n = if smoke() { 2048 } else { 16384 };
    let reps = if smoke() { 50 } else { 400 };
    let mut speedup_128 = 0.0f64;
    for &m in &[32usize, 64, 128, 256] {
        let blocks = blocks_for(m);
        let q = random_codes(&mut rng, 1, m);
        let codes = random_codes(&mut rng, rows_n, m);
        let mut out = vec![0u32; rows_n];

        // Warm both paths, then time scalar row scan vs dispatched batch.
        let mut sink = 0u64;
        for row in codes.chunks_exact(blocks) {
            sink += u64::from(scalar::hamming_row(&q, row));
        }
        hamming_batch(&q, &codes, &mut out);
        let t = Instant::now();
        for _ in 0..reps {
            for row in codes.chunks_exact(blocks) {
                sink += u64::from(scalar::hamming_row(black_box(&q), black_box(row)));
            }
        }
        let scalar_ns = t.elapsed().as_nanos() as f64 / (reps * rows_n) as f64;
        let t = Instant::now();
        for _ in 0..reps {
            hamming_batch(black_box(&q), black_box(&codes), &mut out);
            sink += u64::from(out[0]);
        }
        let batch_ns = t.elapsed().as_nanos() as f64 / (reps * rows_n) as f64;
        black_box(sink);
        let speedup = scalar_ns / batch_ns;
        if m == 128 {
            speedup_128 = speedup;
        }
        println!(
            "hamming: m={m} kernel={} scalar_row={scalar_ns:.2}ns/row \
             dispatched_batch={batch_ns:.2}ns/row speedup={speedup:.2}x",
            kernels::kernel_name()
        );
    }

    // Wide-code end-to-end latency: Hamming-ranking search over a 128-bit
    // table, the path a `serve --snapshot wide.gqr` deployment exercises.
    let (n, dim, m, n_queries) = if smoke() {
        (2000usize, 16usize, 128usize, 20usize)
    } else {
        (20_000, 32, 128, 100)
    };
    let data: Vec<f32> = (0..n * dim).map(|_| rng.gen()).collect();
    let model = Lsh::train(&data, dim, m, 41).unwrap();
    let table: HashTable<u128> = HashTable::build(&model, &data, dim);
    let engine = QueryEngine::new(&model, &table, &data, dim);
    let params = SearchParams::for_k(10)
        .candidates(200)
        .max_buckets(SearchParams::DEFAULT_BUCKET_CAP)
        .strategy(gqr_core::engine::ProbeStrategy::HammingRanking)
        .build()
        .unwrap();
    let queries: Vec<Vec<f32>> = (0..n_queries)
        .map(|_| (0..dim).map(|_| rng.gen()).collect())
        .collect();
    for q in &queries {
        black_box(engine.search(q, &params));
    }
    let t = Instant::now();
    for q in &queries {
        black_box(engine.search(q, &params));
    }
    let query_us = t.elapsed().as_micros() as f64 / n_queries as f64;
    println!(
        "hamming: wide query m={m} n={n} kernel={} hr_latency={query_us:.1}us/query",
        kernels::kernel_name()
    );

    // Gate: demand the SIMD speedup only where SIMD is actually running.
    let simd_active = active_kernel() == KernelKind::Avx2Fma;
    let gate_pass = !simd_active || speedup_128 >= GATE_SPEEDUP;
    println!("hamming: speedup at m=128 {speedup_128:.2}x simd_active={simd_active} gate_pass={gate_pass}");
    assert!(
        gate_pass,
        "popcount gate FAILED: dispatched kernel must be >= {GATE_SPEEDUP}x scalar at m=128, \
         measured {speedup_128:.2}x"
    );
}
