//! Edge tests for in-place candidate evaluation: filtered search, buckets
//! of a few items, dimensions that are not a multiple of the SIMD width,
//! repeated runs, and rows abandoned by the k-th-distance bound. Results
//! must be *bit-identical* to a brute force through the dispatched row
//! kernel: a bounded row is summed exactly as the row kernel sums it, and a
//! row abandoned early would have lost to the k-th anyway, ties by id
//! included. The tie test drives the engine, a sharded index and a
//! fragmented live index through the same ordering.

use gqr_core::engine::{ProbeStrategy, QueryEngine, SearchParams, SearchResponse};
use gqr_core::live::MutableIndex;
use gqr_core::request::SearchRequest;
use gqr_core::shard::ShardedIndex;
use gqr_core::table::HashTable;
use gqr_l2h::pcah::Pcah;
use gqr_l2h::{HashModel, QueryEncoding};
use gqr_linalg::vecops::sq_dist_f32;
use std::sync::Arc;

/// Deterministic splitmix64 stream in `[-1, 1)`.
struct Gen(u64);

impl Gen {
    fn next_f32(&mut self) -> f32 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }
}

fn dataset(n: usize, dim: usize, seed: u64) -> Vec<f32> {
    let mut g = Gen(seed);
    (0..n * dim).map(|_| 3.0 * g.next_f32()).collect()
}

fn bucket_strategies() -> [ProbeStrategy; 4] {
    [
        ProbeStrategy::HammingRanking,
        ProbeStrategy::QdRanking,
        ProbeStrategy::GenerateHammingRanking,
        ProbeStrategy::GenerateQdRanking,
    ]
}

/// Exact reference through the same dispatched *row* kernel (so equality
/// with the engine's blocked evaluation is bitwise, not approximate).
fn brute_force(data: &[f32], dim: usize, q: &[f32], k: usize) -> Vec<(u32, f32)> {
    let mut d: Vec<(f32, u32)> = data
        .chunks_exact(dim)
        .enumerate()
        .map(|(i, row)| (sq_dist_f32(q, row), i as u32))
        .collect();
    d.sort_by(|a, b| a.partial_cmp(b).unwrap());
    d.truncate(k);
    d.into_iter().map(|(dist, id)| (id, dist)).collect()
}

/// Dimensions off the SIMD widths (d = 7, 13: below one 8-lane vector, and
/// between one and two) with full budget must match brute force bitwise for
/// every bucket strategy.
#[test]
fn odd_dims_match_brute_force_bitwise() {
    for dim in [7usize, 13] {
        let data = dataset(150, dim, dim as u64);
        let model = Pcah::train(&data, dim, 6).unwrap();
        let table: HashTable = HashTable::build(&model, &data, dim);
        let engine = QueryEngine::new(&model, &table, &data, dim);
        let q: Vec<f32> = data[..dim].iter().map(|&x| x + 0.05).collect();
        let expect = brute_force(&data, dim, &q, 5);
        for strategy in bucket_strategies() {
            let params = SearchParams {
                k: 5,
                n_candidates: usize::MAX,
                strategy,
                early_stop: false,
                ..Default::default()
            };
            let res = engine.search(&q, &params);
            assert_eq!(
                res.ranked(),
                expect,
                "dim {dim}, {} disagrees with the row kernel",
                strategy.name()
            );
        }
    }
}

/// A budget-capped search repeats bit-for-bit through both entry points:
/// [`QueryEngine::search`] and [`QueryEngine::run`] give the same
/// neighbors and the same evaluation accounting, and the budget is spent.
#[test]
fn scratch_capacity_does_not_change_results() {
    let dim = 13;
    let data = dataset(200, dim, 9);
    let model = Pcah::train(&data, dim, 6).unwrap();
    let table: HashTable = HashTable::build(&model, &data, dim);
    let mut engine = QueryEngine::new(&model, &table, &data, dim);
    engine.enable_mih(2);
    let q: Vec<f32> = data[dim..2 * dim].iter().map(|&x| x + 0.02).collect();

    let all: Vec<ProbeStrategy> = bucket_strategies()
        .into_iter()
        .chain([ProbeStrategy::MultiIndexHashing { blocks: 2 }])
        .collect();
    for strategy in all {
        let params = SearchParams {
            k: 7,
            n_candidates: 120,
            strategy,
            early_stop: false,
            ..Default::default()
        };
        let baseline = engine.search(&q, &params);
        let res = engine.run(SearchRequest::new(&q).params(params));
        assert_eq!(
            res.ranked(),
            baseline.ranked(),
            "{} changed the neighbors from run to run",
            strategy.name()
        );
        assert_eq!(
            res.stats.items_evaluated,
            baseline.stats.items_evaluated,
            "{} changed evaluation accounting from run to run",
            strategy.name()
        );
        assert!(res.stats.items_evaluated >= 120, "{}", strategy.name());
    }
}

/// Filtered search: rejected ids are skipped before any distance is
/// computed. Sparse and dense filters must match a filtered brute force
/// bitwise.
#[test]
fn filtered_ragged_tiles_match_reference() {
    let dim = 7;
    let data = dataset(180, dim, 3);
    let model = Pcah::train(&data, dim, 6).unwrap();
    let table: HashTable = HashTable::build(&model, &data, dim);
    let engine = QueryEngine::new(&model, &table, &data, dim);
    let q: Vec<f32> = data[..dim].iter().map(|&x| x + 0.01).collect();

    // Sparse (1 in 7 ids survive), modulo (1 in 3), and nearly-dense.
    #[allow(clippy::type_complexity)]
    let filters: [(&str, fn(u32) -> bool); 3] = [
        ("sparse", |id| id % 7 == 0),
        ("thirds", |id| id % 3 != 1),
        ("dense", |id| id != 4),
    ];
    for (label, accept) in filters {
        let mut expect: Vec<(u32, f32)> = data
            .chunks_exact(dim)
            .enumerate()
            .filter(|(i, _)| accept(*i as u32))
            .map(|(i, row)| (i as u32, sq_dist_f32(&q, row)))
            .collect();
        expect.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        expect.truncate(5);

        for strategy in bucket_strategies() {
            let params = SearchParams {
                k: 5,
                n_candidates: usize::MAX,
                strategy,
                early_stop: false,
                ..Default::default()
            };
            let res = engine.run(SearchRequest::new(&q).params(params).filter(accept));
            let mut got = res.ranked();
            got.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
            assert_eq!(
                got,
                expect,
                "{} filter '{label}' disagrees",
                strategy.name()
            );
            for (id, _) in res.neighbors() {
                assert!(accept(id), "filtered-out id {id} leaked into results");
            }
        }
    }
}

/// Buckets of one or two items (n = 9 items over many buckets): every item
/// must still be evaluated, and the answer match brute force.
#[test]
fn buckets_smaller_than_a_tile() {
    let dim = 5;
    let data = dataset(9, dim, 17);
    let model = Pcah::train(&data, dim, 4).unwrap();
    let table: HashTable = HashTable::build(&model, &data, dim);
    let engine = QueryEngine::new(&model, &table, &data, dim);
    let q = vec![0.1f32; dim];
    let expect = brute_force(&data, dim, &q, 4);
    for strategy in bucket_strategies() {
        let params = SearchParams {
            k: 4,
            n_candidates: usize::MAX,
            strategy,
            early_stop: false,
            ..Default::default()
        };
        let res = engine.search(&q, &params);
        assert_eq!(res.ranked(), expect, "{}", strategy.name());
        assert_eq!(res.stats.items_evaluated, 9, "{}", strategy.name());
    }
}

/// Bit `j` of a code is `x[j] ≥ 0.5`, for the first `bits` dimensions.
/// Every flip costs 1, so QD ranking orders buckets like Hamming ranking:
/// a row whose first `h` code dimensions lie below 0.5 sits in the bucket
/// probed at level `h` from a query of all 0.5.
struct LevelModel {
    dim: usize,
    bits: usize,
}

impl HashModel for LevelModel {
    fn dim(&self) -> usize {
        self.dim
    }

    fn code_length(&self) -> usize {
        self.bits
    }

    fn encode(&self, x: &[f32]) -> u64 {
        let set = (0..self.bits).filter(|&j| x[j] >= 0.5);
        set.fold(0, |code, j| code | 1 << j)
    }

    fn encode_query(&self, q: &[f32]) -> QueryEncoding {
        let (code, flip_costs) = (self.encode(q), vec![1.0; self.bits]);
        QueryEncoding { code, flip_costs }
    }

    fn name(&self) -> &'static str {
        "level"
    }
}

const TIE_DIM: usize = 48;

/// A row of the tie fixture at probe level `level`: dimensions `0..level`
/// sit `offset` below the query's 0.5, the rest of `0..32` sit `offset`
/// above it, and `32..48` sit `tail` above it. Every term is exact, so the
/// distance is `32·offset² + 16·tail²` bit-for-bit under either kernel, and
/// the partial sum after 32 dimensions is `32·offset²`.
fn level_row(level: usize, offset: f32, tail: f32) -> Vec<f32> {
    let head = (0..32).map(|j| {
        if j < level {
            0.5 - offset
        } else {
            0.5 + offset
        }
    });
    head.chain((32..TIE_DIM).map(|_| 0.5 + tail)).collect()
}

/// Thirteen rows whose bucket order from the all-0.5 query is fixed. Tie
/// rows 4..=10 all lie at 2.0 and arrive in descending id order (id 10 at
/// level 0, id 4 at level 6), so each displaces the k-th by id alone.
/// Decoys 0 and 1 arrive last with a partial sum of exactly 2.0 after 32
/// dimensions and a final distance of 3.0: only a strict abandon check
/// scores them in full. Far rows 11 and 12 (12.0, but 8.0 after 32
/// dimensions) are abandoned once the top-k is full, and must still count
/// as evaluated.
fn tie_fixture() -> Vec<f32> {
    let mut rows = vec![level_row(8, 0.25, 0.25), level_row(7, 0.25, 0.25)];
    let near: Vec<f32> = (0..TIE_DIM)
        .map(|j| if j < 16 { 0.75 } else { 0.5 })
        .collect();
    rows.extend([near.clone(), near]);
    rows.extend((4..=10).map(|id| level_row(10 - id, 0.25, 0.0)));
    rows.extend([level_row(5, 0.5, 0.5), level_row(8, 0.5, 0.5)]);
    rows.concat()
}

/// At least k + 3 candidates share the k-th distance, arriving in
/// descending id order, with decoys and abandoned rows behind them: the
/// engine, a 2-shard index and a fragmented live index must each return the
/// brute-force ranking under (distance, id), and count every row as
/// evaluated.
#[test]
fn ties_at_the_kth_distance_match_brute_force_on_every_read_path() {
    let (dim, k) = (TIE_DIM, 4);
    let data = tie_fixture();
    let n = data.len() / dim;
    let q = vec![0.5f32; dim];
    let mut expect: Vec<(u32, f32)> = data
        .chunks_exact(dim)
        .enumerate()
        .map(|(i, row)| (i as u32, sq_dist_f32(&q, row)))
        .collect();
    expect.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
    let ties = expect.iter().filter(|p| p.1 == expect[k - 1].1).count();
    assert!(ties >= k + 3, "the fixture needs k + 3 ties, has {ties}");
    expect.truncate(k);
    assert_eq!(expect, [(2, 1.0), (3, 1.0), (4, 2.0), (5, 2.0)]);

    let model = LevelModel { dim, bits: 8 };
    let table: HashTable = HashTable::build(&model, &data, dim);
    let engine = QueryEngine::new(&model, &table, &data, dim);
    let sharded = ShardedIndex::build(&model, &data, dim, 2);
    let live: MutableIndex<_> = MutableIndex::builder(Arc::new(LevelModel { dim, bits: 8 }))
        .compaction_threshold(usize::MAX)
        .build(&data[..7 * dim], dim);
    let writer = live.writer();
    for (id, row) in data.chunks_exact(dim).enumerate().skip(7) {
        assert_eq!(writer.insert(row), id as u32, "delta ids follow the base");
    }
    // A tombstoned exact match: gated before it is scored or counted.
    assert!(writer.delete(writer.insert(&q)));

    for strategy in bucket_strategies() {
        let params = SearchParams {
            k,
            n_candidates: usize::MAX,
            strategy,
            early_stop: false,
            ..Default::default()
        };
        let req = || SearchRequest::new(&q).params(params);
        let paths: [(&str, SearchResponse); 3] = [
            ("engine", engine.run(req())),
            ("sharded", sharded.run(req())),
            ("live", live.run(req())),
        ];
        for (path, res) in paths {
            let at = format!("{path}, {}", strategy.name());
            assert_eq!(res.ranked(), expect, "{at}");
            assert_eq!(res.stats.items_evaluated, n, "{at}: every row counts");
        }
    }
}
