//! Behavioral round-trip coverage for binary snapshots: an index loaded
//! from disk must return *bit-identical* top-k results to the in-memory
//! original, for every probe strategy, the sharded index, and MPLSH.

mod common;

use common::{fixture, tmpdir};
use gqr::mplsh::{MpLshIndex, MpLshParams};
use gqr::persist::{load_mplsh, save_mplsh};
use gqr::prelude::*;

const ALL_STRATEGIES: [ProbeStrategy; 5] = [
    ProbeStrategy::HammingRanking,
    ProbeStrategy::GenerateHammingRanking,
    ProbeStrategy::QdRanking,
    ProbeStrategy::GenerateQdRanking,
    ProbeStrategy::MultiIndexHashing { blocks: 2 },
];

fn params_for(strat: ProbeStrategy) -> SearchParams {
    SearchParams::for_k(10)
        .candidates(400)
        .strategy(strat)
        .build()
        .unwrap()
}

#[test]
fn engine_roundtrip_is_bit_identical_for_every_strategy() {
    let ds = fixture();
    let model = Itq::train(ds.as_slice(), ds.dim(), 10).unwrap();
    let table: HashTable = HashTable::build(&model, ds.as_slice(), ds.dim());
    let mut engine = QueryEngine::new(&model, &table, ds.as_slice(), ds.dim());
    engine.enable_mih(2);

    let path = tmpdir("engine_rt").join("engine.gqr");
    engine.save_snapshot(&path).unwrap();
    let loaded: LoadedIndex = load_index(&path).unwrap();
    let engine2 = QueryEngine::from_snapshot(&loaded);

    let queries = ds.sample_queries(20, 9);
    for strat in ALL_STRATEGIES {
        let params = params_for(strat);
        for q in &queries {
            let a = engine.search(q, &params);
            let b = engine2.search(q, &params);
            assert_eq!(
                a.ranked(),
                b.ranked(),
                "{} diverged after snapshot round-trip",
                strat.name()
            );
        }
    }
}

#[test]
fn sharded_roundtrip_is_bit_identical_for_every_strategy() {
    let ds = fixture();
    let model = Pcah::train(ds.as_slice(), ds.dim(), 10).unwrap();
    let mut index = ShardedIndex::build(&model, ds.as_slice(), ds.dim(), 3);
    index.enable_mih(2);

    let path = tmpdir("shard_rt").join("sharded.gqr");
    index.save_snapshot(&path).unwrap();
    let loaded: LoadedIndex = load_index(&path).unwrap();
    assert_eq!(loaded.shards().len(), 3);
    assert_eq!(loaded.n_items(), ds.n());
    let index2 = ShardedIndex::from_snapshot(&loaded);
    assert_eq!(index2.n_shards(), 3);
    assert_eq!(index2.shard_sizes(), index.shard_sizes());

    let queries = ds.sample_queries(20, 11);
    for strat in ALL_STRATEGIES {
        let params = params_for(strat);
        for q in &queries {
            let a = index.search(q, &params);
            let b = index2.search(q, &params);
            assert_eq!(
                a.ranked(),
                b.ranked(),
                "sharded {} diverged after snapshot round-trip",
                strat.name()
            );
        }
    }
}

#[test]
fn sharded_snapshot_loads_as_an_engine_of_its_shards() {
    let ds = fixture();
    let model = Pcah::train(ds.as_slice(), ds.dim(), 8).unwrap();
    let index = ShardedIndex::build(&model, ds.as_slice(), ds.dim(), 2);
    let path = tmpdir("shard_engine").join("sharded.gqr");
    index.save_snapshot(&path).unwrap();
    let loaded: LoadedIndex = load_index(&path).unwrap();
    let engine = QueryEngine::from_snapshot(&loaded);
    assert_eq!(engine.n_shards(), 2);
    assert_eq!(engine.n_items(), ds.n());
    let params = params_for(ProbeStrategy::GenerateQdRanking);
    for q in &ds.sample_queries(10, 13) {
        assert_eq!(
            engine.search(q, &params).ranked(),
            index.search(q, &params).ranked()
        );
    }
}

#[test]
fn mplsh_roundtrip_is_bit_identical() {
    let ds = fixture();
    let params = MpLshParams {
        tables: 4,
        hashes_per_table: 8,
        bucket_width: MpLshIndex::suggest_width(ds.as_slice(), ds.dim()),
        seed: 3,
    };
    let index = MpLshIndex::build(ds.as_slice(), ds.dim(), &params);

    let path = tmpdir("mplsh_rt").join("mplsh.gqr");
    save_mplsh(&path, &index).unwrap();
    let index2 = load_mplsh(&path).unwrap();
    assert_eq!(index2.n_tables(), index.n_tables());
    assert_eq!(index2.n_items(), index.n_items());
    assert_eq!(index2.n_buckets(), index.n_buckets());

    for q in ds.sample_queries(20, 13) {
        let (a, _) = index.search(&q, ds.as_slice(), 10, 400, 16);
        let (b, _) = index2.search(&q, ds.as_slice(), 10, 400, 16);
        assert_eq!(a, b, "MPLSH diverged after snapshot round-trip");
    }
}

/// Strategies for the wide-code round-trips. MIH substrings are kept at
/// 16 bits (96 / 6): with random-ish codes a wider substring space would
/// make the searcher enumerate masks far past anything occupied.
const WIDE_STRATEGIES: [ProbeStrategy; 5] = [
    ProbeStrategy::HammingRanking,
    ProbeStrategy::GenerateHammingRanking,
    ProbeStrategy::QdRanking,
    ProbeStrategy::GenerateQdRanking,
    ProbeStrategy::MultiIndexHashing { blocks: 6 },
];

/// Wide params bound bucket generation so the generate-to-probe strategies
/// stay cheap in a 2^96 code space; both sides of each comparison run with
/// identical caps, so bit-identity is unaffected.
fn wide_params_for(strat: ProbeStrategy) -> SearchParams {
    SearchParams::for_k(10)
        .candidates(400)
        .max_buckets(20_000)
        .strategy(strat)
        .build()
        .unwrap()
}

#[test]
fn wide_engine_roundtrip_is_bit_identical_for_every_strategy() {
    // 96-bit codes: the table, MIH index, and snapshot codec all run on
    // u128 words, and the v3 header carries the width.
    let ds = fixture();
    let model = Lsh::train(ds.as_slice(), ds.dim(), 96, 17).unwrap();
    let table: HashTable<u128> = HashTable::build(&model, ds.as_slice(), ds.dim());
    let mut engine = QueryEngine::new(&model, &table, ds.as_slice(), ds.dim());
    engine.enable_mih(6);

    let path = tmpdir("wide_engine_rt").join("engine96.gqr");
    engine.save_snapshot(&path).unwrap();
    let loaded: LoadedIndex<u128> = load_index(&path).unwrap();
    assert_eq!(
        loaded.code_width(),
        128,
        "96-bit codes pack into u128 words"
    );
    let engine2 = QueryEngine::from_snapshot(&loaded);

    let queries = ds.sample_queries(20, 21);
    for strat in WIDE_STRATEGIES {
        let params = wide_params_for(strat);
        for q in &queries {
            let a = engine.search(q, &params);
            let b = engine2.search(q, &params);
            assert_eq!(
                a.ranked(),
                b.ranked(),
                "wide {} diverged after snapshot round-trip",
                strat.name()
            );
        }
    }
}

#[test]
fn wide_live_roundtrip_preserves_results_and_membership() {
    use std::sync::Arc;
    let ds = fixture();
    let model = Lsh::train(ds.as_slice(), ds.dim(), 96, 23).unwrap();
    let index: MutableIndex<_, u128> =
        MutableIndex::builder(Arc::new(model)).build(ds.as_slice(), ds.dim());

    // Mutate: a few arrivals and a few retirements, so the snapshot has a
    // non-empty delta segment and tombstone set at a wide width.
    let writer = index.writer();
    let extra = ds.sample_queries(5, 29);
    for v in &extra {
        writer.insert(v);
    }
    for id in [3u32, 11, 19] {
        assert!(writer.delete(id));
    }

    let path = tmpdir("wide_live_rt").join("live96.gqr");
    index.save_snapshot(&path).unwrap();
    let index2: MutableIndex<dyn HashModel, u128> = MutableIndex::from_snapshot(&path).unwrap();
    assert_eq!(index2.n_items(), index.n_items());

    let params = wide_params_for(ProbeStrategy::HammingRanking);
    for q in ds.sample_queries(15, 31) {
        let a = index.run(SearchRequest::new(&q).params(params));
        let b = index2.run(SearchRequest::new(&q).params(params));
        assert_eq!(a.ids, b.ids, "live wide index diverged after round-trip");
        assert!(
            !a.ids.iter().any(|id| [3u32, 11, 19].contains(id)),
            "tombstoned ids resurfaced"
        );
    }
}

#[test]
fn metered_load_records_snapshot_metrics() {
    let ds = fixture();
    let model = Itq::train(ds.as_slice(), ds.dim(), 8).unwrap();
    let table: HashTable = HashTable::build(&model, ds.as_slice(), ds.dim());
    let engine = QueryEngine::new(&model, &table, ds.as_slice(), ds.dim());
    let path = tmpdir("metered").join("engine.gqr");
    let saved_bytes = engine.save_snapshot(&path).unwrap();

    let metrics = MetricsRegistry::enabled();
    let loaded: LoadedIndex = gqr::persist::load_index_metered(&path, &metrics).unwrap();
    assert_eq!(loaded.n_items(), ds.n());
    let snap = metrics.snapshot();
    assert_eq!(
        snap.counters.get("gqr_snapshot_bytes"),
        Some(&saved_bytes),
        "gqr_snapshot_bytes must record the file size"
    );
    let hist = snap
        .histograms
        .get("gqr_snapshot_load_seconds")
        .expect("load latency histogram must be recorded");
    assert_eq!(hist.count, 1);
}

/// Calibrate a small recall model for `engine` over every strategy.
fn calibrate_small(engine: &QueryEngine<'_, Itq, u64>, ds: &Dataset) -> RecallModel {
    let sample = ds.sample_queries(24, 5);
    let queries: Vec<f32> = sample.iter().flat_map(|q| q.iter().copied()).collect();
    let gt: Vec<Vec<u32>> = sample
        .iter()
        .map(|q| gqr::eval::exact_knn(ds.as_slice(), ds.dim(), q, 10))
        .collect();
    let mut cal = Calibrator::new(10).bucket_cap(256);
    for strat in ALL_STRATEGIES {
        cal.observe(engine, strat, &queries, &gt);
    }
    cal.finalize()
}

/// Attribute columns for `ds`: a 2-symbol tag and a low-cardinality int.
fn attrs_for(ds: &Dataset) -> AttributeStore {
    let n = ds.n();
    let parity: Vec<&str> = (0..n)
        .map(|i| if i % 2 == 0 { "even" } else { "odd" })
        .collect();
    let group: Vec<i64> = (0..n).map(|i| (i % 7) as i64).collect();
    AttributeStore::builder(n)
        .tag_column("parity", parity)
        .unwrap()
        .int_column("group", group)
        .unwrap()
        .build()
}

#[test]
fn attrs_roundtrip_is_bit_identical() {
    let ds = fixture();
    let model = Itq::train(ds.as_slice(), ds.dim(), 10).unwrap();
    let table: HashTable = HashTable::build(&model, ds.as_slice(), ds.dim());
    let attrs = attrs_for(&ds);
    let mut engine = QueryEngine::new(&model, &table, ds.as_slice(), ds.dim());
    engine.enable_mih(2);
    engine.set_attrs(&attrs);

    let dir = tmpdir("attrs_rt");
    let path = dir.join("attrs.gqr");
    engine.save_snapshot(&path).unwrap();
    let loaded: LoadedIndex = load_index(&path).unwrap();

    // The decoded store answers every predicate row-for-row like the
    // original (postings and blooms are rebuilt, not deserialized, so this
    // checks the rebuild too).
    let back = loaded.attrs().expect("attribute section present");
    assert_eq!(back.n_items(), attrs.n_items());
    assert_eq!(back.n_columns(), attrs.n_columns());
    let preds = [
        Predicate::eq("parity", AttrValue::Str("even".into())),
        Predicate::range("group", Some(2), Some(5)).unwrap(),
    ];
    for pred in &preds {
        back.validate(pred).unwrap();
        for id in 0..ds.n() as u32 {
            assert_eq!(back.matches(pred, id), attrs.matches(pred, id));
        }
    }

    // save -> load -> save is byte-identical: the attrs wire form is
    // canonical.
    let engine2 = QueryEngine::from_snapshot(&loaded);
    assert!(engine2.attrs().is_some(), "loaded engine must attach attrs");
    let path2 = dir.join("resaved.gqr");
    engine2.save_snapshot(&path2).unwrap();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        std::fs::read(&path2).unwrap(),
        "save -> load -> save must be byte-identical"
    );

    // Filtered searches agree bit-for-bit across the round trip.
    for strat in ALL_STRATEGIES {
        let params = params_for(strat);
        for q in ds.sample_queries(10, 17) {
            for pred in &preds {
                let a = engine.run(
                    SearchRequest::new(&q)
                        .params(params)
                        .predicate(pred.clone()),
                );
                let b = engine2.run(
                    SearchRequest::new(&q)
                        .params(params)
                        .predicate(pred.clone()),
                );
                assert_eq!(
                    a.ranked(),
                    b.ranked(),
                    "filtered {} diverged after snapshot round-trip",
                    strat.name()
                );
            }
        }
    }
}

#[test]
fn sharded_attrs_roundtrip_preserves_filtering() {
    let ds = fixture();
    let model = Pcah::train(ds.as_slice(), ds.dim(), 10).unwrap();
    let attrs = attrs_for(&ds);
    let index = ShardedIndex::build(&model, ds.as_slice(), ds.dim(), 3).with_attrs(&attrs);

    let path = tmpdir("shard_attrs_rt").join("sharded.gqr");
    index.save_snapshot(&path).unwrap();
    let loaded: LoadedIndex = load_index(&path).unwrap();
    assert!(
        loaded.attrs().is_some(),
        "sharded snapshot must carry attrs"
    );
    let index2 = ShardedIndex::from_snapshot(&loaded);

    let pred = Predicate::eq("parity", AttrValue::Str("odd".into()));
    let params = params_for(ProbeStrategy::GenerateQdRanking);
    for q in ds.sample_queries(10, 19) {
        let a = index.run(
            SearchRequest::new(&q)
                .params(params)
                .predicate(pred.clone()),
        );
        let b = index2.run(
            SearchRequest::new(&q)
                .params(params)
                .predicate(pred.clone()),
        );
        assert_eq!(a.ranked(), b.ranked(), "sharded filtered search diverged");
        assert!(a.ids.iter().all(|&id| id % 2 == 1), "predicate leaked");
    }
}

/// A snapshot-loaded 2-shard index carrying an attribute store and a recall
/// model answers like the unsharded engine holding the same store and
/// model: the response shapes of a mixed serving load — a recall target,
/// HR and QR at a budget, a common and a rare predicate — agree down to the
/// probe counters, the stop reason and the recall prediction.
#[test]
fn sharded_snapshot_answers_like_the_engine() {
    use ProbeStrategy::{GenerateQdRanking as Gqr, HammingRanking as Hr, QdRanking as Qr};
    let ds = fixture();
    let (data, dim, n) = (ds.as_slice(), ds.dim(), ds.n());
    let model = Itq::train(data, dim, 10).unwrap();
    let table: HashTable = HashTable::build(&model, data, dim);
    let tenant: Vec<i64> = (0..n).map(|i| (i * 37 % 100) as i64).collect();
    let color: Vec<&str> = (0..n)
        .map(|i| ["red", "green", "blue"][i * 7 % 3])
        .collect();
    let attrs = AttributeStore::builder(n)
        .int_column("tenant", tenant)
        .unwrap()
        .tag_column("color", color)
        .unwrap()
        .build();
    let mut engine = QueryEngine::new(&model, &table, data, dim);
    engine.enable_mih(2);
    let recall = calibrate_small(&engine, &ds);
    let engine = engine.with_recall_model(&recall).with_attrs(&attrs);
    let index = ShardedIndexBuilder::new()
        .shards(2)
        .mih_blocks(2)
        .build(&model, data, dim)
        .unwrap()
        .with_recall_model(&recall)
        .with_attrs(&attrs);
    let path = tmpdir("shard_like_engine").join("sharded.gqr");
    index.save_snapshot(&path).unwrap();
    let loaded: LoadedIndex = load_index(&path).unwrap();
    let index = ShardedIndex::from_snapshot(&loaded);
    assert_eq!(index.n_shards(), 2);

    let budget = |strategy, n| {
        let params = SearchParams::for_k(10).strategy(strategy);
        params.candidates(n).build().unwrap()
    };
    let adaptive = SearchParams::for_k(10).strategy(Gqr).recall_target(0.9);
    let shapes = [
        ("gqr-rt", adaptive.build().unwrap(), None),
        ("hr", budget(Hr, 400), None),
        ("qr", budget(Qr, 200), None),
        ("f33", budget(Gqr, 200), Some(Predicate::eq("color", "red"))),
        ("f01", budget(Gqr, 200), Some(Predicate::eq("tenant", 7i64))),
    ];
    for q in ds.sample_queries(10, 41) {
        for (label, params, pred) in &shapes {
            let req = || {
                let req = SearchRequest::new(&q).params(*params);
                match pred {
                    Some(pred) => req.predicate(pred.clone()),
                    None => req,
                }
            };
            let want = engine.run(req());
            let got = index.run(req());
            assert_eq!(got.ranked(), want.ranked(), "{label}");
            assert_eq!(got.stats, want.stats, "{label}");
            assert_eq!(got.stop_reason, want.stop_reason, "{label}");
            assert_eq!(
                got.predicted_recall.map(f32::to_bits),
                want.predicted_recall.map(f32::to_bits),
                "{label}"
            );
        }
    }
}

#[test]
fn oversized_attrs_are_rejected_at_load() {
    // A snapshot whose attribute store covers more rows than the vectors
    // section is inconsistent — assemble_index must refuse it.
    use gqr::persist::{SectionKind, SnapshotFile, SnapshotWriter};
    let ds = fixture();
    let model = Itq::train(ds.as_slice(), ds.dim(), 8).unwrap();
    let table: HashTable = HashTable::build(&model, ds.as_slice(), ds.dim());
    let engine = QueryEngine::new(&model, &table, ds.as_slice(), ds.dim());
    let dir = tmpdir("attrs_oversized");
    let path = dir.join("base.gqr");
    engine.save_snapshot(&path).unwrap();

    let oversized = AttributeStore::builder(ds.n() + 1)
        .int_column("x", vec![0i64; ds.n() + 1])
        .unwrap()
        .build();
    let base = SnapshotFile::read(&path).unwrap();
    let mut w = SnapshotWriter::new();
    for kind in [
        SectionKind::Model,
        SectionKind::ShardManifest,
        SectionKind::Vectors,
        SectionKind::HashTable,
    ] {
        w.add_section(kind, base.section(kind).unwrap().to_vec());
    }
    w.add_attrs(&oversized);
    let bad = dir.join("oversized.gqr");
    w.write(&bad).unwrap();
    let err = load_index::<u64>(&bad).expect_err("must be rejected");
    assert!(
        err.to_string().contains("attribute store"),
        "error must name the inconsistency: {err}"
    );
}

#[test]
fn recall_model_roundtrip_is_bit_identical() {
    let ds = fixture();
    let model = Itq::train(ds.as_slice(), ds.dim(), 10).unwrap();
    let table: HashTable = HashTable::build(&model, ds.as_slice(), ds.dim());
    let mut engine = QueryEngine::new(&model, &table, ds.as_slice(), ds.dim());
    engine.enable_mih(2);
    let recall = calibrate_small(&engine, &ds);
    engine.set_recall_model(&recall);

    let dir = tmpdir("recall_rt");
    let path = dir.join("calibrated.gqr");
    engine.save_snapshot(&path).unwrap();
    let loaded: LoadedIndex = load_index(&path).unwrap();

    // Structural equality of the decoded section.
    let back = loaded.recall_model().expect("recall model section present");
    assert_eq!(back, &recall, "decoded model differs from the saved one");

    // Saving the loaded engine again must produce the identical file:
    // the recall section (like every other) is a pure function of state.
    let engine2 = QueryEngine::from_snapshot(&loaded);
    assert!(
        engine2.recall_model().is_some(),
        "loaded engine must attach the model"
    );
    let path2 = dir.join("resaved.gqr");
    engine2.save_snapshot(&path2).unwrap();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        std::fs::read(&path2).unwrap(),
        "save -> load -> save must be byte-identical"
    );

    // Behavioral equivalence: adaptive searches agree bit-for-bit,
    // including the predicted recall the controller reports.
    for strat in ALL_STRATEGIES {
        let params = SearchParams::for_k(10)
            .strategy(strat)
            .recall_target(0.9)
            .build()
            .unwrap();
        for q in ds.sample_queries(10, 13) {
            let a = engine.search(&q, &params);
            let b = engine2.search(&q, &params);
            assert_eq!(a.ranked(), b.ranked(), "{} diverged", strat.name());
            assert_eq!(
                a.predicted_recall.map(f32::to_bits),
                b.predicted_recall.map(f32::to_bits),
                "{} predicted recall diverged",
                strat.name()
            );
        }
    }
}

/// Load `original` as a frozen index of `C` words and save it again.
fn resave_frozen<C: gqr::core::code::CodeWord>(original: &std::path::Path) -> Vec<u8> {
    let loaded: LoadedIndex<C> = load_index(original).unwrap();
    let again = original.with_extension("again");
    QueryEngine::from_snapshot(&loaded)
        .save_snapshot(&again)
        .unwrap();
    std::fs::read(again).unwrap()
}

#[test]
fn a_reloaded_snapshot_saves_to_its_own_bytes() {
    use std::sync::Arc;
    let ds = fixture();
    let (data, dim) = (ds.as_slice(), ds.dim());
    let dir = tmpdir("resave");
    let bytes = |path: &std::path::Path| std::fs::read(path).unwrap();

    let model = Itq::train(data, dim, 10).unwrap();
    let table: HashTable = HashTable::build(&model, data, dim);
    let one = dir.join("one.gqr");
    QueryEngine::new(&model, &table, data, dim)
        .save_snapshot(&one)
        .unwrap();
    assert_eq!(resave_frozen::<u64>(&one), bytes(&one), "one shard");

    let mut two_shards = ShardedIndex::build(&model, data, dim, 2);
    two_shards.enable_mih(2);
    let two = dir.join("two.gqr");
    two_shards.save_snapshot(&two).unwrap();
    assert_eq!(resave_frozen::<u64>(&two), bytes(&two), "two shards, MIH");

    let lsh = Lsh::train(data, dim, 96, 17).unwrap();
    let table: HashTable<u128> = HashTable::build(&lsh, data, dim);
    let wide = dir.join("wide.gqr");
    QueryEngine::new(&lsh, &table, data, dim)
        .save_snapshot(&wide)
        .unwrap();
    assert_eq!(resave_frozen::<u128>(&wide), bytes(&wide), "u128 words");

    let index: MutableIndex<_> = MutableIndex::builder(Arc::new(model))
        .mih_blocks(2)
        .build(data, dim);
    let writer = index.writer();
    for v in &ds.sample_queries(5, 41) {
        writer.insert(v);
    }
    for id in [2u32, 7, 401] {
        assert!(writer.delete(id));
    }
    let live = dir.join("live.gqr");
    index.save_snapshot(&live).unwrap();
    let reloaded: MutableIndex<dyn HashModel> = MutableIndex::from_snapshot(&live).unwrap();
    let again = dir.join("live.again");
    reloaded.save_snapshot(&again).unwrap();
    assert_eq!(bytes(&again), bytes(&live), "live");
}
