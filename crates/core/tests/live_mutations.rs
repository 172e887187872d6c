//! The mutation-layer contract, end to end: interleaved inserts, deletes,
//! and queries return only live ids; compaction never changes an answer —
//! at every epoch and every candidate budget a fragmented index answers
//! like a fresh rebuild over its live rows (bit-identical across the probe
//! strategies); and a snapshot round-trips the delta segment and tombstone
//! set exactly.

use gqr_core::engine::{ProbeStrategy, SearchParams};
use gqr_core::live::MutableIndex;
use gqr_core::metrics::MetricsRegistry;
use gqr_core::request::SearchRequest;
use gqr_l2h::lsh::Lsh;
use gqr_linalg::vecops::sq_dist_f32;
use std::collections::HashMap;
use std::sync::Arc;

const STRATEGIES: [ProbeStrategy; 5] = [
    ProbeStrategy::HammingRanking,
    ProbeStrategy::GenerateHammingRanking,
    ProbeStrategy::QdRanking,
    ProbeStrategy::GenerateQdRanking,
    ProbeStrategy::MultiIndexHashing { blocks: 3 },
];

fn grid(n: u32) -> Vec<f32> {
    let mut data = Vec::new();
    for i in 0..n {
        data.push((i % 25) as f32 + 0.001 * ((i * 7) % 13) as f32);
        data.push((i / 25) as f32);
    }
    data
}

fn model(data: &[f32]) -> Lsh {
    Lsh::train(data, 2, 9, 5).unwrap()
}

fn exhaustive(k: usize, strategy: ProbeStrategy) -> SearchParams {
    SearchParams {
        k,
        n_candidates: usize::MAX,
        strategy,
        early_stop: false,
        ..Default::default()
    }
}

/// Deterministic churn in three stages: delete every 3rd initial row,
/// insert replacements near the deleted positions, upsert a handful.
/// `live` follows the surviving `id -> row` map for brute-force
/// verification.
fn churn_stage(index: &MutableIndex<Lsh>, n: u32, stage: usize, live: &mut HashMap<u32, Vec<f32>>) {
    let writer = index.writer();
    match stage {
        0 => {
            for id in (0..n).step_by(3) {
                assert!(writer.delete(id));
                live.remove(&id);
            }
        }
        1 => {
            for j in 0..40u32 {
                let row = vec![(j % 25) as f32 + 0.5, (j / 25) as f32 + 0.5];
                let id = writer.insert(&row);
                assert!(id >= n, "fresh ids never collide with the initial rows");
                live.insert(id, row);
            }
        }
        _ => {
            for id in [1u32, 4, 7, 10] {
                let row = vec![(id % 25) as f32 + 0.25, 30.0 + id as f32];
                assert!(writer.upsert(id, &row));
                live.insert(id, row);
            }
        }
    }
}

fn initial_rows(data: &[f32]) -> HashMap<u32, Vec<f32>> {
    let rows = data.chunks_exact(2).enumerate();
    rows.map(|(i, row)| (i as u32, row.to_vec())).collect()
}

/// All three churn stages; returns the surviving `id -> row` map.
fn churn(index: &MutableIndex<Lsh>, data: &[f32]) -> HashMap<u32, Vec<f32>> {
    let mut live = initial_rows(data);
    let n = live.len() as u32;
    for stage in 0..3 {
        churn_stage(index, n, stage, &mut live);
    }
    live
}

fn brute_force(live: &HashMap<u32, Vec<f32>>, q: &[f32], k: usize) -> Vec<(u32, f32)> {
    let mut all: Vec<(u32, f32)> = live
        .iter()
        .map(|(&id, row)| (id, sq_dist_f32(q, row)))
        .collect();
    all.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

fn queries() -> Vec<Vec<f32>> {
    (0..8)
        .map(|i| vec![(i * 3 % 23) as f32 + 0.4, (i % 12) as f32 + 0.6])
        .collect()
}

#[test]
fn churned_index_returns_only_live_ids_and_exact_neighbors() {
    let data = grid(500);
    let model = Arc::new(model(&data));
    let index: MutableIndex<_> = MutableIndex::builder(Arc::clone(&model))
        .mih_blocks(3)
        .compaction_threshold(usize::MAX)
        .build(&data, 2);
    let live = churn(&index, &data);
    assert_eq!(index.n_items(), live.len());

    for strategy in STRATEGIES {
        let params = exhaustive(10, strategy);
        for q in queries() {
            let res = index.run(SearchRequest::new(&q).params(params));
            assert_eq!(
                res.ranked(),
                brute_force(&live, &q, 10),
                "strategy={} q={q:?}",
                strategy.name()
            );
            assert!(res.ids.iter().all(|&id| live.contains_key(&id)));
        }
    }
}

#[test]
fn compaction_is_invisible_to_queries_for_every_strategy() {
    let data = grid(500);
    let model = Arc::new(model(&data));
    // Same churn on two indexes; one is compacted after every stage, the
    // other stays fragmented throughout.
    let build = || {
        MutableIndex::builder(Arc::clone(&model))
            .mih_blocks(3)
            .compaction_threshold(usize::MAX)
            .build(&data, 2)
    };
    let (fragmented, compacted) = (build(), build());
    let (mut live, mut live2) = (initial_rows(&data), initial_rows(&data));
    let k = 10;

    for stage in 0..3 {
        churn_stage(&fragmented, 500, stage, &mut live);
        churn_stage(&compacted, 500, stage, &mut live2);
        assert_eq!(
            live.keys().collect::<std::collections::BTreeSet<_>>(),
            live2.keys().collect::<std::collections::BTreeSet<_>>()
        );
        compacted.compact();
        let gen = compacted.pin();
        assert_eq!(gen.delta_rows(), 0, "compaction folds the delta away");
        assert_eq!(gen.n_tombstones(), 0, "compaction drops the tombstones");
        assert_eq!(compacted.n_items(), fragmented.n_items());
        let gen = fragmented.pin();
        assert!(
            gen.delta_rows() + gen.n_tombstones() > 0,
            "still fragmented"
        );

        // One probe sequence, one global budget, filtered rows spend none
        // of it: a fragmented index answers like a rebuild over its live
        // rows at every budget, not only the exhaustive one.
        for strategy in STRATEGIES {
            let generated = matches!(
                strategy,
                ProbeStrategy::GenerateHammingRanking | ProbeStrategy::GenerateQdRanking
            );
            for budget in [k, 50, 200, usize::MAX] {
                let params = SearchParams {
                    n_candidates: budget,
                    ..exhaustive(k, strategy)
                };
                for q in queries() {
                    let before = fragmented.run(SearchRequest::new(&q).params(params));
                    let after = compacted.run(SearchRequest::new(&q).params(params));
                    let at = format!(
                        "stage={stage} strategy={} budget={budget} q={q:?}",
                        strategy.name()
                    );
                    assert_eq!(after.ranked(), before.ranked(), "{at}");
                    assert_eq!(
                        after.stats.items_evaluated, before.stats.items_evaluated,
                        "{at}"
                    );
                    assert_eq!(after.stop_reason, before.stop_reason, "{at}");
                    if generated {
                        // HR/QR also rank buckets whose rows are all dead,
                        // and MIH may keep looking for dead rows.
                        assert_eq!(
                            after.stats.buckets_probed, before.stats.buckets_probed,
                            "{at}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn filter_composes_with_tombstones() {
    let data = grid(500);
    let model = Arc::new(model(&data));
    let index: MutableIndex<_> = MutableIndex::builder(Arc::clone(&model))
        .compaction_threshold(usize::MAX)
        .build(&data, 2);
    let live = churn(&index, &data);

    let accept = |id: u32| id.is_multiple_of(2);
    let want: Vec<(u32, f32)> = {
        let subset: HashMap<u32, Vec<f32>> = live
            .iter()
            .filter(|(&id, _)| accept(id))
            .map(|(&id, row)| (id, row.clone()))
            .collect();
        brute_force(&subset, &[7.3, 9.1], 10)
    };
    let params = exhaustive(10, ProbeStrategy::GenerateQdRanking);
    let res = index.run(
        SearchRequest::new(&[7.3, 9.1])
            .params(params)
            .filter(accept),
    );
    assert_eq!(res.ranked(), want);
}

#[test]
fn snapshot_round_trips_delta_and_tombstones() {
    let dir = std::env::temp_dir().join(format!("gqr-live-roundtrip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("churned.gqr");

    let data = grid(400);
    let model = Arc::new(model(&data));
    let index: MutableIndex<_> = MutableIndex::builder(Arc::clone(&model))
        .compaction_threshold(usize::MAX)
        .build(&data, 2);
    let live = churn(&index, &data);
    let gen = index.pin();
    assert!(gen.delta_rows() > 0 && gen.n_tombstones() > 0);

    index.save_snapshot(&path).unwrap();
    let loaded: MutableIndex = MutableIndex::from_snapshot(&path).unwrap();
    let lgen = loaded.pin();
    assert_eq!(lgen.epoch(), gen.epoch());
    assert_eq!(lgen.delta_rows(), gen.delta_rows());
    assert_eq!(lgen.n_tombstones(), gen.n_tombstones());
    assert_eq!(loaded.n_items(), live.len());

    let params = exhaustive(10, ProbeStrategy::GenerateQdRanking);
    for q in queries() {
        let want = index.run(SearchRequest::new(&q).params(params));
        let got = loaded.run(SearchRequest::new(&q).params(params));
        assert_eq!(got.ranked(), want.ranked(), "q={q:?}");
    }

    // The loaded writer keeps allocating fresh ids, never recycling.
    let next = loaded.writer().insert(&[0.5, 0.5]);
    assert!(live.keys().all(|&id| id != next));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mutation_metrics_use_pinned_names() {
    let data = grid(200);
    let model = Arc::new(model(&data));
    let metrics = MetricsRegistry::enabled();
    let index: MutableIndex<_> = MutableIndex::builder(Arc::clone(&model))
        .metrics(metrics.clone())
        .compaction_threshold(usize::MAX)
        .build(&data, 2);
    let writer = index.writer();
    writer.insert(&[1.0, 1.0]);
    writer.delete(0);
    writer.upsert(3, &[2.0, 2.0]);
    index.compact();
    let _ = index.run(SearchRequest::new(&[1.0, 1.0]));

    let prom = metrics.snapshot().to_prometheus();
    for name in [
        "gqr_mutations_total",
        "gqr_live_epoch",
        "gqr_delta_items",
        "gqr_tombstones",
        "gqr_compaction_total",
        "gqr_compaction_ns",
        "gqr_live_total_ns",
        "gqr_live_queries_total",
    ] {
        assert!(prom.contains(name), "Prometheus export is missing {name}");
    }
    assert_eq!(
        metrics.counter_value("gqr_mutations_total{op=\"insert\"}"),
        Some(1)
    );
    assert_eq!(
        metrics.counter_value("gqr_mutations_total{op=\"delete\"}"),
        Some(1)
    );
    assert_eq!(
        metrics.counter_value("gqr_mutations_total{op=\"upsert\"}"),
        Some(1)
    );
}

#[test]
fn mutations_and_compaction_record_traces_with_markers() {
    use gqr_core::metrics::{EventData, MarkerKind, TraceConfig};
    let data = grid(40);
    let model = Arc::new(model(&data));
    let metrics = MetricsRegistry::enabled();
    metrics.enable_tracing(TraceConfig {
        sample_every: 1,
        ..TraceConfig::default()
    });
    let index: MutableIndex<_> = MutableIndex::builder(Arc::clone(&model))
        .metrics(metrics.clone())
        .compaction_threshold(usize::MAX)
        .build(&data, 2);
    let writer = index.writer();
    writer.insert(&[1.0, 1.0]);
    writer.delete(0);
    index.compact();

    let tracing = metrics.tracing().unwrap();
    let traces = tracing.store().all();
    let marker_of = |name: &str| {
        traces
            .iter()
            .filter(|t| t.name == name)
            .flat_map(|t| t.events.iter())
            .filter_map(|e| match e.data {
                EventData::Marker { kind, .. } => Some(kind),
                _ => None,
            })
            .collect::<Vec<_>>()
    };
    let mutation_markers = marker_of("mutation");
    assert!(
        mutation_markers.contains(&MarkerKind::DeltaAppend),
        "insert must mark a delta append: {mutation_markers:?}"
    );
    assert!(
        mutation_markers.contains(&MarkerKind::Tombstone),
        "delete must mark a tombstone: {mutation_markers:?}"
    );
    let compaction_markers = marker_of("compaction");
    assert!(compaction_markers.contains(&MarkerKind::CompactionBegin));
    assert!(compaction_markers.contains(&MarkerKind::CompactionEnd));
    for t in &traces {
        t.check_well_formed().unwrap();
    }
    // The compaction succeeded: the failure counter stayed untouched.
    assert_eq!(metrics.counter_value("gqr_compaction_failures_total"), None);
}
