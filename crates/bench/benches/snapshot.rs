//! Cold-start cost: training + building an index from scratch vs loading a
//! binary snapshot of the same index. The program prints one line of
//! measurements and exits non-zero unless snapshot loads are ≥10x faster
//! than retrain-and-build on the audio50k smoke fixture.
//!
//! Run with `cargo bench -p gqr-bench --bench snapshot`; set
//! `GQR_BENCH_SMOKE=1` to shrink repetition counts for CI smoke runs.

use gqr_core::engine::QueryEngine;
use gqr_core::persist::{load_index, LoadedIndex};
use gqr_core::table::HashTable;
use gqr_dataset::{DatasetSpec, Scale};
use gqr_l2h::itq::Itq;
use std::hint::black_box;
use std::time::Instant;

/// The gate: snapshot loads at least this many times faster than
/// retrain-and-build.
const GATE_SPEEDUP: f64 = 10.0;

fn smoke() -> bool {
    std::env::var_os("GQR_BENCH_SMOKE").is_some()
}

fn main() {
    let ds = DatasetSpec::audio50k().scale(Scale::Smoke).generate(77);
    let bits = 10;
    let reps = if smoke() { 2 } else { 5 };
    let dir = std::env::temp_dir().join(format!("gqr_bench_snapshot_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("index.gqr");

    // Warm: one full train+build, persisted for the load side.
    let model = Itq::train(ds.as_slice(), ds.dim(), bits).unwrap();
    let table: HashTable = HashTable::build(&model, ds.as_slice(), ds.dim());
    let mut engine = QueryEngine::new(&model, &table, ds.as_slice(), ds.dim());
    engine.enable_mih(2);
    let bytes = engine.save_snapshot(&path).unwrap();

    // Cold-start path A: retrain + rebuild every time.
    let t = Instant::now();
    for _ in 0..reps {
        let model = Itq::train(ds.as_slice(), ds.dim(), bits).unwrap();
        let table: HashTable = HashTable::build(&model, ds.as_slice(), ds.dim());
        let mut engine = QueryEngine::new(&model, &table, ds.as_slice(), ds.dim());
        engine.enable_mih(2);
        black_box(engine.table().n_items());
    }
    let train_s = t.elapsed().as_secs_f64() / reps as f64;

    // Cold-start path B: load the snapshot and borrow an engine from it.
    let t = Instant::now();
    for _ in 0..reps {
        let loaded: LoadedIndex = load_index(&path).unwrap();
        let engine = QueryEngine::from_snapshot(&loaded).unwrap();
        black_box(engine.table().n_items());
    }
    let load_s = t.elapsed().as_secs_f64() / reps as f64;

    let speedup = train_s / load_s;
    println!(
        "snapshot: n={} dim={} bits={bits} train_build={train_s:.4}s \
         snapshot_load={load_s:.4}s bytes={bytes} speedup={speedup:.1}x",
        ds.n(),
        ds.dim()
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        speedup >= GATE_SPEEDUP,
        "snapshot cold-start gate FAILED: load must be >={GATE_SPEEDUP}x faster than retraining, \
         measured {speedup:.1}x"
    );
}
