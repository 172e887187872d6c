//! Concurrent mutation stress: one writer churns the index through many
//! epoch swaps (including threshold-triggered compactions) while reader
//! threads continuously pin a generation and query it. Every result must be
//! internally consistent with the *pinned* generation — a reader never sees
//! an id that was dead at its pinned epoch, even while the writer publishes
//! newer epochs underneath it.
//!
//! Iteration count is bounded so CI stays fast; set `GQR_STRESS_ITERS` to
//! run longer locally.

use gqr_core::engine::SearchParams;
use gqr_core::live::MutableIndex;
use gqr_core::request::SearchRequest;
use gqr_l2h::lsh::Lsh;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

fn iters() -> usize {
    std::env::var("GQR_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(400)
}

#[test]
fn readers_see_consistent_pinned_generations_during_churn() {
    let mut data = Vec::new();
    for i in 0..600u32 {
        data.push((i % 30) as f32 + 0.001 * ((i * 7) % 13) as f32);
        data.push((i / 30) as f32);
    }
    let model = Arc::new(Lsh::train(&data, 2, 9, 5).unwrap());
    // A small threshold so the stress run crosses several compactions;
    // keep compaction on the writer thread so the test is deterministic in
    // its thread count.
    let index: MutableIndex<_> = MutableIndex::builder(model)
        .compaction_threshold(64)
        .build(&data, 2);

    let stop = Arc::new(AtomicBool::new(false));
    let params = SearchParams {
        k: 8,
        n_candidates: usize::MAX,
        early_stop: false,
        ..Default::default()
    };

    // Per-reader progress counters: the writer keeps the index alive until
    // every reader has completed at least one query, so a slow-to-schedule
    // reader thread cannot race the (fast, in-memory) mutation loop.
    let progress: Vec<Arc<AtomicUsize>> = (0..3).map(|_| Arc::new(AtomicUsize::new(0))).collect();
    let readers: Vec<_> = (0..3)
        .map(|r| {
            let index = index.clone();
            let stop = Arc::clone(&stop);
            let progress = Arc::clone(&progress[r]);
            std::thread::spawn(move || {
                let mut queries = 0usize;
                let mut epochs_seen = HashSet::new();
                let q = [7.0 + r as f32, 9.0 - r as f32];
                // One reader on a tight budget: the global candidate budget
                // is spent across base and delta under churn too.
                let params = SearchParams {
                    n_candidates: if r == 0 { 20 } else { usize::MAX },
                    ..params
                };
                while !stop.load(Ordering::Relaxed) {
                    let gen = index.pin();
                    epochs_seen.insert(gen.epoch());
                    let live: HashSet<u32> = gen.live_ids().into_iter().collect();
                    let res = index.run_pinned(&gen, SearchRequest::new(&q).params(params));
                    assert_eq!(res.len(), 8.min(live.len()));
                    for &id in &res.ids {
                        assert!(
                            live.contains(&id),
                            "reader {r} got id {id} that is dead at epoch {}",
                            gen.epoch()
                        );
                    }
                    queries += 1;
                    progress.store(queries, Ordering::Relaxed);
                }
                (queries, epochs_seen.len())
            })
        })
        .collect();

    let writer = index.writer();
    let mut inserted = Vec::new();
    for i in 0..iters() as u32 {
        match i % 4 {
            // Inserts dominate so the live set keeps growing past the
            // compaction threshold.
            0 | 1 => inserted.push(writer.insert(&[(i % 30) as f32 + 0.3, (i % 20) as f32 + 0.7])),
            2 => {
                if let Some(id) = inserted.pop() {
                    assert!(writer.delete(id));
                }
            }
            _ => {
                writer.upsert(i % 600, &[(i % 30) as f32 + 0.9, (i % 20) as f32 + 0.1]);
            }
        }
    }
    let final_epoch = index.epoch();
    assert!(
        final_epoch >= iters() as u64,
        "every mutation publishes a new epoch"
    );
    while progress.iter().any(|p| p.load(Ordering::Relaxed) == 0) {
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);

    for reader in readers {
        let (queries, distinct_epochs) = reader.join().unwrap();
        assert!(queries > 0, "every reader made progress");
        assert!(distinct_epochs >= 1);
    }

    // The writer crossed the compaction threshold at least once.
    let gen = index.pin();
    assert!(
        gen.delta_rows() < iters(),
        "threshold compaction folded the delta at least once ({} delta rows)",
        gen.delta_rows()
    );
}
