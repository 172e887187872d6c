//! The cold-start path — training, bulk encoding, table and index builds —
//! pinned bit for bit. The digests were captured before PCA, ITQ's
//! alternating minimization and row encoding were tiled and split over
//! threads, so any change to a single trained weight, code or bucket order
//! shows up here. The fixture is large enough that every threaded path
//! (PCA scatter, ITQ alternation, bulk encoding) runs on more than one
//! thread when the machine has them.

mod common;

use common::tmpdir;
use gqr::l2h::itq::ItqOptions;
use gqr::prelude::*;
use std::sync::Arc;

const DIM: usize = 16;
const ROWS: usize = 20_000;
const BITS: usize = 12;

/// FNV-1a over a byte stream.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Clustered rows from a splitmix64 stream, with every seventh coordinate
/// an integer so that centred values hit exact zeros.
fn rows() -> Vec<f32> {
    let mut state = 0x5eed_u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    };
    let centres: Vec<f32> = (0..12 * DIM).map(|_| 6.0 * next()).collect();
    (0..ROWS * DIM)
        .map(|i| {
            let c = centres[(i / DIM) % 12 * DIM + i % DIM];
            if i % 7 == 0 {
                c.round()
            } else {
                c + next()
            }
        })
        .collect()
}

fn itq(data: &[f32]) -> Itq {
    let opts = ItqOptions {
        iterations: 10,
        seed: 3,
        ..ItqOptions::default()
    };
    Itq::train_with(data, DIM, BITS, &opts).unwrap()
}

fn model_digest(model: &dyn HashModel) -> u64 {
    fnv(&model.snapshot().expect("model persists").bytes)
}

#[test]
fn trained_models_match_the_pre_threading_golden() {
    let data = rows();
    let models: [(Box<dyn HashModel>, u64); 4] = [
        (Box::new(itq(&data)), 0x8613_4ccf_395f_b72e),
        (
            Box::new(Pcah::train(&data, DIM, BITS).unwrap()),
            0xa05b_0637_39f8_3fa3,
        ),
        (
            Box::new(IsoHash::train(&data, DIM, BITS).unwrap()),
            0x237e_2157_0de8_525f,
        ),
        (
            Box::new(SpectralHashing::train(&data, DIM, BITS).unwrap()),
            0x57ad_bb08_0d79_22ba,
        ),
    ];
    for (model, golden) in &models {
        let got = model_digest(model.as_ref());
        assert_eq!(got, *golden, "{}: {got:#018x}", model.name());
    }
}

#[test]
fn built_indexes_match_the_pre_threading_golden() {
    let data = rows();
    let model = itq(&data);
    let dir = tmpdir("build_golden");

    let sharded = ShardedIndexBuilder::new()
        .shards(2)
        .mih_blocks(2)
        .build(&model, &data, DIM)
        .unwrap();
    let path = dir.join("sharded.gqr");
    sharded.save_snapshot(&path).unwrap();
    let sharded = fnv(&std::fs::read(&path).unwrap());

    let table: HashTable<u128> = HashTable::build(&model, &data, DIM);
    let engine = QueryEngine::new(&model, &table, &data, DIM);
    let path = dir.join("engine.gqr");
    engine.save_snapshot(&path).unwrap();
    let engine = fnv(&std::fs::read(&path).unwrap());

    let live: MutableIndex<_> = MutableIndex::builder(Arc::new(model.clone()))
        .mih_blocks(2)
        .build(&data, DIM);
    let path = dir.join("live.gqr");
    live.save_snapshot(&path).unwrap();
    let live = fnv(&std::fs::read(&path).unwrap());
    let _ = std::fs::remove_dir_all(&dir);

    let got = [sharded, engine, live];
    let golden = [
        0x7ff6_4e54_8341_0d1f,
        0xaa63_2401_f1e1_6de5,
        0xc49b_f383_7754_2395,
    ];
    assert_eq!(got, golden, "{got:#018x?}");
}
