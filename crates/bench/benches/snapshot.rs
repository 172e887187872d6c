//! Cold-start cost: training + building an index from scratch vs loading a
//! binary snapshot of the same index. The acceptance bar is a ≥10x
//! speedup for snapshot loads on the audio50k smoke fixture; the measured
//! ratio is recorded to `results/BENCH_snapshot.json` (hand-formatted; the
//! workspace takes no JSON dependency).
//!
//! Set `GQR_BENCH_SMOKE=1` to shrink repetition counts for CI smoke runs.

use criterion::{criterion_group, criterion_main, Criterion};
use gqr_core::engine::QueryEngine;
use gqr_core::persist::{load_index, LoadedIndex};
use gqr_core::table::HashTable;
use gqr_dataset::{DatasetSpec, Scale};
use gqr_l2h::itq::Itq;
use std::hint::black_box;
use std::time::Instant;

fn smoke() -> bool {
    std::env::var_os("GQR_BENCH_SMOKE").is_some()
}

/// Self-timed train+build vs snapshot-load baseline. Runs in every
/// environment (the criterion harness may be stubbed in offline CI; this
/// section only needs `std`).
fn bench_snapshot_cold_start(c: &mut Criterion) {
    c.bench_function("snapshot_cold_start_record", |b| b.iter(|| 0));

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
    assert!(
        speedup >= 10.0,
        "snapshot cold-start must be >=10x faster than retraining, measured {speedup:.1}x"
    );

    let json = format!(
        "{{\n  \"bench\": \"snapshot\",\n  \"dataset\": \"audio50k_smoke\",\n  \
         \"rows\": {},\n  \"dim\": {},\n  \"bits\": {bits},\n  \"snapshot_bytes\": {bytes},\n  \
         \"train_build_seconds\": {train_s:.6},\n  \"snapshot_load_seconds\": {load_s:.6},\n  \
         \"speedup\": {speedup:.2}\n}}\n",
        ds.n(),
        ds.dim()
    );
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    if std::fs::create_dir_all(&out_dir).is_ok() {
        let out = out_dir.join("BENCH_snapshot.json");
        if let Err(e) = std::fs::write(&out, json) {
            eprintln!("snapshot: could not write {}: {e}", out.display());
        } else {
            println!("snapshot: baseline recorded to {}", out.display());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_snapshot_cold_start);
criterion_main!(benches);
