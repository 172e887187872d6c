//! Serialization round-trips through the binary snapshot format: a trained
//! index must behave identically after save/load (the deployment path of a
//! real retrieval service).

mod common;

use common::{fixture, tmpdir};
use gqr::l2h::persist::{decode_model, encode_model};
use gqr::linalg::wire::{ByteReader, ByteWriter};
use gqr::prelude::*;
use gqr::vq::imi::{ImiOptions, InvertedMultiIndex};
use gqr::vq::kmeans::KMeansOptions;
use gqr::vq::opq::{Opq, OpqOptions};
use gqr::vq::pq::PqOptions;

/// Encode through the model save hook, decode through the registry.
fn model_roundtrip(model: &dyn HashModel) -> Box<dyn HashModel> {
    let bytes = encode_model(model).expect("model supports snapshotting");
    decode_model(&bytes).expect("decode what we encoded")
}

/// The decoded model must hash and flip-cost exactly like the original.
fn assert_same_behavior(a: &dyn HashModel, b: &dyn HashModel, queries: &[Vec<f32>]) {
    assert_eq!(a.dim(), b.dim());
    assert_eq!(a.code_length(), b.code_length());
    assert_eq!(a.name(), b.name());
    for q in queries {
        assert_eq!(a.encode(q), b.encode(q), "{} codes differ", a.name());
        let ea = a.encode_query(q);
        let eb = b.encode_query(q);
        assert_eq!(ea.code, eb.code, "{} query codes differ", a.name());
        assert_eq!(
            ea.flip_costs,
            eb.flip_costs,
            "{} flip costs differ",
            a.name()
        );
    }
}

#[test]
fn linear_models_roundtrip() {
    let ds = fixture();
    let queries = ds.sample_queries(10, 1);

    let itq = Itq::train(ds.as_slice(), ds.dim(), 8).unwrap();
    assert_same_behavior(&itq, model_roundtrip(&itq).as_ref(), &queries);
    let pcah = Pcah::train(ds.as_slice(), ds.dim(), 8).unwrap();
    assert_same_behavior(&pcah, model_roundtrip(&pcah).as_ref(), &queries);
    let lsh = Lsh::train(ds.as_slice(), ds.dim(), 8, 3).unwrap();
    assert_same_behavior(&lsh, model_roundtrip(&lsh).as_ref(), &queries);
    let isoh = IsoHash::train(ds.as_slice(), ds.dim(), 8).unwrap();
    assert_same_behavior(&isoh, model_roundtrip(&isoh).as_ref(), &queries);
}

#[test]
fn nonlinear_models_roundtrip() {
    let ds = fixture();
    let queries = ds.sample_queries(10, 2);

    let sh = SpectralHashing::train(ds.as_slice(), ds.dim(), 10).unwrap();
    assert_same_behavior(&sh, model_roundtrip(&sh).as_ref(), &queries);
    let kmh = KmeansHashing::train(ds.as_slice(), ds.dim(), 8).unwrap();
    assert_same_behavior(&kmh, model_roundtrip(&kmh).as_ref(), &queries);
}

#[test]
fn hash_table_roundtrip_preserves_search_results() {
    let ds = fixture();
    let model = Itq::train(ds.as_slice(), ds.dim(), 8).unwrap();
    let table: HashTable = HashTable::build(&model, ds.as_slice(), ds.dim());
    let engine1 = QueryEngine::new(&model, &table, ds.as_slice(), ds.dim());

    let path = tmpdir("table_rt").join("snap.gqr");
    engine1.save_snapshot(&path).unwrap();
    let loaded: LoadedIndex = load_index(&path).unwrap();
    assert_eq!(loaded.n_items(), table.n_items());
    let engine2 = QueryEngine::from_snapshot(&loaded);
    assert_eq!(engine2.table().n_items(), table.n_items());
    assert_eq!(engine2.table().n_buckets(), table.n_buckets());

    let params = SearchParams {
        k: 5,
        n_candidates: 200,
        ..Default::default()
    };
    for q in ds.sample_queries(10, 3) {
        assert_eq!(
            engine1.search(&q, &params).ranked(),
            engine2.search(&q, &params).ranked()
        );
    }
}

#[test]
fn vq_models_roundtrip() {
    let ds = fixture();
    let pq_opts = PqOptions {
        ks: 8,
        kmeans: KMeansOptions {
            seed: 5,
            ..Default::default()
        },
    };
    let opq = Opq::train(
        ds.as_slice(),
        ds.dim(),
        2,
        &OpqOptions {
            rounds: 2,
            pq: pq_opts.clone(),
        },
    );
    let mut w = ByteWriter::new();
    opq.wire_write(&mut w);
    let bytes = w.into_bytes();
    let opq2 = Opq::wire_read(&mut ByteReader::new(&bytes)).unwrap();

    let imi = InvertedMultiIndex::build(
        ds.as_slice(),
        ds.dim(),
        &ImiOptions {
            k: 8,
            kmeans: KMeansOptions {
                seed: 6,
                ..Default::default()
            },
        },
    );
    let mut w = ByteWriter::new();
    imi.wire_write(&mut w);
    let bytes = w.into_bytes();
    let imi2 = InvertedMultiIndex::wire_read(&mut ByteReader::new(&bytes)).unwrap();

    for q in ds.sample_queries(5, 4) {
        assert_eq!(opq.encode(&q), opq2.encode(&q));
        let c1: Vec<(usize, usize)> = imi.traverse(&q).map(|(u, v, _)| (u, v)).take(8).collect();
        let c2: Vec<(usize, usize)> = imi2.traverse(&q).map(|(u, v, _)| (u, v)).take(8).collect();
        assert_eq!(c1, c2);
    }
}
