//! Brute-force exact k-NN oracle with `f64` accumulation.
//!
//! Deliberately independent of the query-path distance kernels in
//! `gqr-linalg`: distances are accumulated in `f64` over a plain loop, so
//! this oracle does not move when the SIMD kernel layer changes. The
//! exact-oracle golden tests pin engine recall against it to guard
//! end-to-end result stability across kernel swaps.
//!
//! # One scan per query tile
//!
//! Queries are answered 8 at a time. The tile is transposed to `f64`
//! (`qt[j][q]`) and every data row is read once for the whole tile, into
//! one accumulator per query. Each accumulator still sums its query's
//! squared differences over `j` in coordinate order, with a separate
//! multiply and add, so every distance is bit-identical to a one-query
//! loop; the compiler vectorizes across the tile's queries instead of
//! waiting on one add chain per row. Each query keeps its top-k in a
//! sorted buffer of at most `k` entries, so nothing n-sized is allocated
//! or sorted. Tiles are split into contiguous runs over
//! [`std::thread::available_parallelism`] scoped threads, and results come
//! back in query order. [`exact_knn`], [`exact_knn_batch`] and
//! [`calibrate_with_oracle`](crate::calibrate::calibrate_with_oracle) all
//! go through this one scan.
//!
//! # Order
//!
//! Ascending distance, ties broken by ascending id. A NaN distance (a NaN
//! coordinate in the row or the query) ranks after every non-NaN one,
//! whatever its sign bit, and NaNs tie with each other, so the order is
//! total and a NaN row never displaces a real neighbour.

use std::cmp::Ordering;

/// Queries scored per pass over `data`.
const TILE: usize = 8;

/// The oracle's distance order: numeric, every NaN after every non-NaN
/// value, all NaNs equal.
fn dist_order(a: f64, b: f64) -> Ordering {
    a.is_nan()
        .cmp(&b.is_nan())
        .then(a.partial_cmp(&b).unwrap_or(Ordering::Equal))
}

/// One query's running top-k: at most `k` `(distance, id)` pairs, sorted
/// by [`dist_order`] then id.
struct Nearest {
    k: usize,
    best: Vec<(f64, u32)>,
}

impl Nearest {
    fn new(k: usize, n: usize) -> Nearest {
        Nearest {
            k,
            best: Vec::with_capacity(k.min(n)),
        }
    }

    /// Offer row `id`. Rows arrive in ascending id order, so a row that
    /// ties the worst kept distance loses the tiebreak and is dropped, and
    /// an inserted row goes after every kept row at its distance.
    fn offer(&mut self, dist: f64, id: u32) {
        if self.best.len() == self.k {
            match self.best.last() {
                Some(&(worst, _)) if dist_order(dist, worst) == Ordering::Less => {
                    self.best.pop();
                }
                _ => return,
            }
        }
        let at = self
            .best
            .partition_point(|&(d, _)| dist_order(d, dist) != Ordering::Greater);
        self.best.insert(at, (dist, id));
    }

    fn into_ids(self) -> Vec<u32> {
        self.best.into_iter().map(|(_, id)| id).collect()
    }
}

/// Exact top-`k` of each query in `tile` (at most [`TILE`]) into `out`, in
/// one pass over `data`.
fn scan_tile(data: &[f32], dim: usize, tile: &[&[f32]], k: usize, out: &mut [Vec<u32>]) {
    let mut qt = vec![[0.0f64; TILE]; dim];
    for (q, query) in tile.iter().enumerate() {
        for (lane, &x) in qt.iter_mut().zip(query.iter()) {
            lane[q] = x as f64;
        }
    }
    let n = data.len() / dim;
    let mut nearest: Vec<Nearest> = tile.iter().map(|_| Nearest::new(k, n)).collect();
    for (id, row) in data.chunks_exact(dim).enumerate() {
        // Lanes past the tile's queries score zeros and are never offered.
        let mut acc = [0.0f64; TILE];
        for (lane, &y) in qt.iter().zip(row) {
            let y = y as f64;
            for (a, &x) in acc.iter_mut().zip(lane) {
                let d = x - y;
                *a += d * d;
            }
        }
        for (best, &dist) in nearest.iter_mut().zip(&acc) {
            best.offer(dist, id as u32);
        }
    }
    for (slot, best) in out.iter_mut().zip(nearest) {
        *slot = best.into_ids();
    }
}

/// [`scan_tile`] over consecutive tiles of `queries`.
fn scan_run(data: &[f32], dim: usize, queries: &[&[f32]], k: usize, out: &mut [Vec<u32>]) {
    for (tile, tile_out) in queries.chunks(TILE).zip(out.chunks_mut(TILE)) {
        scan_tile(data, dim, tile, k, tile_out);
    }
}

/// Exact top-`k` of every query, in query order. Tiles are dealt to at
/// most `threads` scoped threads in contiguous runs; the calling thread
/// takes the first run, so one run spawns nothing.
fn knn_tiled(
    data: &[f32],
    dim: usize,
    queries: &[&[f32]],
    k: usize,
    threads: usize,
) -> Vec<Vec<u32>> {
    assert!(
        dim > 0 && data.len().is_multiple_of(dim),
        "data must be n×dim"
    );
    for query in queries {
        assert_eq!(query.len(), dim, "query dimensionality mismatch");
    }
    let mut out = vec![Vec::new(); queries.len()];
    if queries.is_empty() {
        return out;
    }
    let tiles = queries.len().div_ceil(TILE);
    let run = tiles.div_ceil(threads.clamp(1, tiles)) * TILE;
    std::thread::scope(|s| {
        let mut runs = queries.chunks(run).zip(out.chunks_mut(run));
        let first = runs.next();
        for (qs, slots) in runs {
            s.spawn(move || scan_run(data, dim, qs, k, slots));
        }
        if let Some((qs, slots)) = first {
            scan_run(data, dim, qs, k, slots);
        }
    });
    out
}

fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Exact k-nearest-neighbour ids of `query` in row-major `data`, sorted by
/// ascending `f64` squared Euclidean distance with ascending-id tiebreak
/// (NaN distances last; see the module docs).
pub fn exact_knn(data: &[f32], dim: usize, query: &[f32], k: usize) -> Vec<u32> {
    knn_tiled(data, dim, &[query], k, 1)
        .pop()
        .expect("one query in, one list out")
}

/// [`exact_knn`] for a batch of queries, in query order.
pub fn exact_knn_batch(data: &[f32], dim: usize, queries: &[Vec<f32>], k: usize) -> Vec<Vec<u32>> {
    let rows: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
    knn_tiled(data, dim, &rows, k, available_threads())
}

/// [`exact_knn`] for every row of the row-major query buffer `queries`.
pub(crate) fn exact_knn_rows(data: &[f32], dim: usize, queries: &[f32], k: usize) -> Vec<Vec<u32>> {
    assert!(
        dim > 0 && queries.len().is_multiple_of(dim),
        "queries must be n×dim"
    );
    let rows: Vec<&[f32]> = queries.chunks_exact(dim).collect();
    knn_tiled(data, dim, &rows, k, available_threads())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-query full-sort oracle the tiled scan replaced, kept as the
    /// reference it must match bit for bit on NaN-free data.
    fn full_sort_knn(data: &[f32], dim: usize, query: &[f32], k: usize) -> Vec<u32> {
        let sq_dist = |row: &[f32]| -> f64 {
            query
                .iter()
                .zip(row)
                .map(|(&x, &y)| {
                    let d = x as f64 - y as f64;
                    d * d
                })
                .sum()
        };
        let mut d: Vec<(f64, u32)> = data
            .chunks_exact(dim)
            .enumerate()
            .map(|(i, row)| (sq_dist(row), i as u32))
            .collect();
        d.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        d.truncate(k);
        d.into_iter().map(|(_, i)| i).collect()
    }

    /// xorshift64 stream.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn unit(&mut self) -> f32 {
            (self.next() >> 40) as f32 / (1u64 << 24) as f32 - 0.5
        }
    }

    /// `n` rows: the first half on a small integer grid (many exact
    /// distance ties), the rest random, and the last quarter copies of
    /// earlier rows (duplicates).
    fn tie_heavy_rows(g: &mut Gen, n: usize, dim: usize) -> Vec<f32> {
        let mut data = Vec::with_capacity(n * dim);
        for i in 0..n {
            if i >= n - n / 4 {
                let src = (g.next() as usize % (n - n / 4)) * dim;
                data.extend_from_within(src..src + dim);
            } else if i < n / 2 {
                data.extend((0..dim).map(|_| (g.next() % 5) as f32 - 2.0));
            } else {
                data.extend((0..dim).map(|_| g.unit()));
            }
        }
        data
    }

    #[test]
    fn tiled_scan_equals_the_full_sort_oracle() {
        const N: usize = 40;
        let mut g = Gen(0x2545_f491_4f6c_dd1d);
        for dim in [1, 2, 3, 96, 97] {
            let data = tie_heavy_rows(&mut g, N, dim);
            for n_queries in [0, 1, 7, 8, 9, 17, 33] {
                // Even queries are held-in rows (distance 0 to themselves
                // and to their duplicates); odd ones are perturbed rows.
                let queries: Vec<Vec<f32>> = (0..n_queries)
                    .map(|i| {
                        let row = &data[(i * 7 % N) * dim..(i * 7 % N + 1) * dim];
                        if i % 2 == 0 {
                            row.to_vec()
                        } else {
                            row.iter().map(|&x| x + 0.25 * g.unit()).collect()
                        }
                    })
                    .collect();
                let flat: Vec<f32> = queries.concat();
                for k in [1, 10, N, N + 5] {
                    let want: Vec<Vec<u32>> = queries
                        .iter()
                        .map(|q| full_sort_knn(&data, dim, q, k))
                        .collect();
                    let case = format!("dim {dim}, {n_queries} queries, k {k}");
                    assert_eq!(exact_knn_batch(&data, dim, &queries, k), want, "{case}");
                    assert_eq!(exact_knn_rows(&data, dim, &flat, k), want, "{case}");
                    for threads in [1, 2, 3, 5] {
                        let rows: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
                        let got = knn_tiled(&data, dim, &rows, k, threads);
                        assert_eq!(got, want, "{case}, {threads} threads");
                    }
                    for (q, w) in queries.iter().zip(&want).take(3) {
                        assert_eq!(&exact_knn(&data, dim, q, k), w, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn nan_rows_rank_last_by_id() {
        // 200 random rows × 2, every 7th NaN with alternating sign bits:
        // the old comparator was not a total order here and the full sort
        // panicked.
        let mut g = Gen(0x9e37_79b9_7f4a_7c15);
        let data: Vec<f32> = (0..200)
            .flat_map(|i| match i % 14 {
                0 => [f32::NAN, 0.0],
                7 => [-f32::NAN, g.unit()],
                _ => [g.unit(), g.unit()],
            })
            .collect();
        let query = [g.unit(), g.unit()];
        let mut finite: Vec<(f64, u32)> = data
            .chunks_exact(2)
            .zip(0..)
            .filter(|&(_, i)| i % 7 != 0)
            .map(|(row, i)| {
                let d: Vec<f64> = (0..2).map(|j| query[j] as f64 - row[j] as f64).collect();
                (d[0] * d[0] + d[1] * d[1], i)
            })
            .collect();
        finite.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let nans = (0..200).filter(|i| i % 7 == 0);
        let want: Vec<u32> = finite.iter().map(|&(_, i)| i).chain(nans).collect();
        for k in [1, 10, 171, 172, 200, 205] {
            let got = exact_knn(&data, 2, &query, k);
            assert_eq!(got, want[..k.min(200)], "k {k}");
        }
        // A NaN query ranks every row equally: ids in order.
        let got = exact_knn(&data, 2, &[f32::NAN, 0.0], 5);
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn finds_the_line_neighbours() {
        // 1-D points 0..10 embedded in 2-D.
        let data: Vec<f32> = (0..10).flat_map(|i| [i as f32, 0.0]).collect();
        assert_eq!(exact_knn(&data, 2, &[3.2, 0.0], 3), vec![3, 4, 2]);
    }

    #[test]
    fn ties_break_by_id() {
        let data = [0.0f32, 0.0, 2.0, 0.0]; // both at distance 1 from x=1
        assert_eq!(exact_knn(&data, 2, &[1.0, 0.0], 2), vec![0, 1]);
    }

    #[test]
    fn batch_matches_single() {
        let data: Vec<f32> = (0..8).flat_map(|i| [i as f32, 1.0]).collect();
        let queries = vec![vec![0.1, 1.0], vec![6.9, 1.0]];
        let batch = exact_knn_batch(&data, 2, &queries, 2);
        assert_eq!(batch[0], exact_knn(&data, 2, &queries[0], 2));
        assert_eq!(batch[1], exact_knn(&data, 2, &queries[1], 2));
    }
}
