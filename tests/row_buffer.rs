//! A reloaded snapshot scores from the index's own row buffer: the rows an
//! engine or a sharded index reads after `load_index` are cache-line
//! aligned (huge-page aligned once they span a huge page), bit-equal to
//! the rows saved, and answer bit for bit like the in-memory index.

mod common;

use common::tmpdir;
use gqr::linalg::row_buffer::{HUGE_PAGE, LINE_BYTES};
use gqr::prelude::*;

/// `n × dim` deterministic rows in `[-2, 2)`, with NaN-free special values
/// (±0.0, large magnitudes) mixed in so the bit comparison sees them.
fn rows(n: usize, dim: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (0..n * dim)
        .map(|i| {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            match i % 97 {
                0 => -0.0,
                1 => 1e30,
                _ => (z >> 40) as f32 / (1u64 << 22) as f32 - 2.0,
            }
        })
        .collect()
}

/// `got` is placed as a row buffer places rows, and holds `saved` bit for
/// bit.
fn assert_placed(got: &[f32], saved: &[f32], what: &str) {
    let addr = got.as_ptr() as usize;
    assert_eq!(addr % LINE_BYTES, 0, "{what}: rows not line aligned");
    if std::mem::size_of_val(got) >= HUGE_PAGE {
        assert_eq!(addr % HUGE_PAGE, 0, "{what}: rows not huge-page aligned");
    }
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(got),
        bits(saved),
        "{what}: rows differ from the saved ones"
    );
}

fn answers(index: &dyn Index, queries: &[f32], dim: usize) -> Vec<(Vec<u32>, Vec<u32>, usize)> {
    let mut out = Vec::new();
    for strategy in [
        ProbeStrategy::GenerateQdRanking,
        ProbeStrategy::QdRanking,
        ProbeStrategy::HammingRanking,
    ] {
        let params = SearchParams::for_k(10)
            .candidates(300)
            .strategy(strategy)
            .build()
            .unwrap();
        for q in queries.chunks_exact(dim) {
            let r = index.run(SearchRequest::new(q).params(params));
            let bits = r.distances.iter().map(|d| d.to_bits()).collect();
            out.push((r.ids, bits, r.stats.items_evaluated));
        }
    }
    out
}

/// Shapes on both sides of the huge-page boundary, and no rows at all.
const SHAPES: [(usize, usize); 5] = [
    (17, 0),
    (17, 200),
    (17, HUGE_PAGE / (4 * 17) + 9),
    (96, 150),
    (96, HUGE_PAGE / (4 * 96) + 9),
];

#[test]
fn a_reloaded_engine_scores_from_placed_rows() {
    let dir = tmpdir("row_buffer_engine");
    for (dim, n) in SHAPES {
        let what = format!("engine, {n} × {dim}");
        let data = rows(n, dim, n as u64);
        let model = Lsh::train(&rows(64, dim, 1), dim, 10, 7).unwrap();
        let table: HashTable = HashTable::build(&model, &data, dim);
        let engine = QueryEngine::new(&model, &table, &data, dim);
        let path = dir.join(format!("engine-{dim}-{n}.gqr"));
        engine.save_snapshot(&path).unwrap();
        let loaded = load_index::<u64>(&path).unwrap();
        let reloaded = QueryEngine::from_snapshot(&loaded);
        assert_placed(reloaded.data(), &data, &what);
        let queries = rows(8, dim, 99);
        assert_eq!(
            answers(&reloaded, &queries, dim),
            answers(&engine, &queries, dim),
            "{what}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reloaded_shards_score_from_placed_rows() {
    let dir = tmpdir("row_buffer_shards");
    for (dim, n) in SHAPES.into_iter().filter(|&(_, n)| n > 0) {
        let what = format!("2 shards, {n} × {dim}");
        let data = rows(n, dim, n as u64 + 1);
        let model = Lsh::train(&rows(64, dim, 2), dim, 10, 7).unwrap();
        let sharded = ShardedIndex::build(&model, &data, dim, 2);
        let path = dir.join(format!("shards-{dim}-{n}.gqr"));
        sharded.save_snapshot(&path).unwrap();
        let loaded = load_index::<u64>(&path).unwrap();
        assert_eq!(loaded.shards().len(), 2, "{what}");
        assert_placed(loaded.data(), &data, &what);
        let reloaded = ShardedIndex::from_snapshot(&loaded);
        let queries = rows(8, dim, 98);
        assert_eq!(
            answers(&reloaded, &queries, dim),
            answers(&sharded, &queries, dim),
            "{what}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
