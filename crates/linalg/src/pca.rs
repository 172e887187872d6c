//! Principal component analysis over `f32` row-major datasets.

use crate::eigen::symmetric_eigen;
use crate::matrix::{Matrix, LANES};
use crate::vecops::mean_rows;

/// Rows centred per pass of the scatter loop: 64 rows of a few hundred
/// `f64` stay in L1/L2 while every tile streams over them.
const SCATTER_CHUNK: usize = 64;
/// Covariance rows per scatter tile.
const TILE_I: usize = 4;
/// Covariance columns per scatter tile (a multiple of [`TILE_I`]).
const TILE_J: usize = 8;
/// One scatter tile's running sums: 32 `f64`, held in registers while a
/// chunk of rows streams past.
type Tile = [[f64; TILE_J]; TILE_I];
/// Below this many multiply-adds (`n·d²`) the scatter runs on one thread.
const SCATTER_PARALLEL_MIN: usize = 1 << 22;

/// Fitted PCA model: dataset mean plus the top-`k` principal directions.
///
/// Directions are stored as rows of `components` (`k×d`), sorted by
/// explained variance (descending). Projection of an item `x` is
/// `components · (x − mean)`.
#[derive(Clone, Debug)]
pub struct Pca {
    /// Dataset mean (`d`).
    pub mean: Vec<f64>,
    /// Principal directions as rows (`k×d`).
    pub components: Matrix,
    /// Variance captured by each component, descending (`k`).
    pub explained_variance: Vec<f64>,
}

impl Pca {
    /// Fit PCA on `n` rows of dimension `dim` stored contiguously in `data`,
    /// keeping the top `k ≤ dim` components.
    ///
    /// Cost is `O(n·d²)` for the covariance plus a `d×d` Jacobi solve — fine
    /// for the descriptor dimensionalities (`d ≤ ~1000`) used here. The
    /// covariance pass is tiled and split over
    /// [`training_threads`](crate::training_threads), and every entry is
    /// still summed over the rows in order, so the result is bit-identical
    /// whatever the thread count. Panics if `k > dim` or `data` is not a
    /// multiple of `dim`.
    pub fn fit(data: &[f32], dim: usize, k: usize) -> Pca {
        assert!(dim > 0 && k > 0 && k <= dim, "need 0 < k <= dim");
        assert!(
            data.len().is_multiple_of(dim),
            "data length must be a multiple of dim"
        );
        let n = data.len() / dim;
        assert!(n > 1, "PCA needs at least two rows");

        let mean = mean_rows(data, dim);
        // Covariance C = (1/(n-1)) Σ (x−µ)(x−µ)ᵀ, accumulated in f64: the
        // upper triangle, mirrored below.
        let threads = if n * dim * dim < SCATTER_PARALLEL_MIN {
            1
        } else {
            crate::training_threads()
        };
        let mut cov = scatter_upper(data, dim, &mean, threads);
        let scale = 1.0 / (n as f64 - 1.0);
        for i in 0..dim {
            for j in i..dim {
                let v = cov[(i, j)] * scale;
                cov[(i, j)] = v;
                cov[(j, i)] = v;
            }
        }

        let eig = symmetric_eigen(&cov);
        let mut components = Matrix::zeros(k, dim);
        for c in 0..k {
            for r in 0..dim {
                components[(c, r)] = eig.vectors[(r, c)];
            }
        }
        Pca {
            mean,
            components,
            explained_variance: eig.values[..k].to_vec(),
        }
    }

    /// Project one item onto the principal directions.
    pub fn project(&self, x: &[f32]) -> Vec<f64> {
        assert_eq!(x.len(), self.mean.len());
        let centered: Vec<f64> = x
            .iter()
            .zip(&self.mean)
            .map(|(&xi, m)| xi as f64 - m)
            .collect();
        self.components.matvec(&centered)
    }

    /// Project every row of a dataset; returns an `n×k` matrix.
    pub fn project_all(&self, data: &[f32], dim: usize) -> Matrix {
        assert_eq!(dim, self.mean.len());
        let rows: Vec<&[f32]> = data.chunks_exact(dim).collect();
        self.project_rows(&rows)
    }

    /// Project the given rows; row `i` of the `rows.len()×k` result has
    /// exactly the bits of `self.project(rows[i])`. Rows go through
    /// [`Matrix::lane_products`] [`LANES`] at a time, each lane summing from
    /// `-0.0` as `Iterator::sum` does.
    pub fn project_rows(&self, rows: &[&[f32]]) -> Matrix {
        let mut out = Matrix::zeros(rows.len(), self.k());
        project_into(&self.components, &self.mean, rows, &mut out);
        out
    }

    /// Number of retained components.
    pub fn k(&self) -> usize {
        self.components.rows()
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }
}

crate::lane_kernel! {
    /// [`Pca::project_rows`] into a preallocated `rows.len()×k` matrix.
    fn project_into(components: &Matrix, mean: &[f64], rows: &[&[f32]], out: &mut Matrix) {
        let d = mean.len();
        let mut xt = vec![0.0f64; d * LANES];
        let mut p = vec![[0.0f64; LANES]; components.rows()];
        for (b, block) in rows.chunks(LANES).enumerate() {
            for (l, row) in block.iter().enumerate() {
                assert_eq!(row.len(), d, "row dimensionality mismatch");
                for (j, (&x, m)) in row.iter().zip(mean).enumerate() {
                    xt[j * LANES + l] = x as f64 - m;
                }
            }
            // Lanes past a short last block hold stale rows; their outputs
            // are never copied out.
            components.lane_products(&xt, -0.0, &mut p);
            for l in 0..block.len() {
                for (o, p) in out.row_mut(b * LANES + l).iter_mut().zip(&p) {
                    *o = p[l];
                }
            }
        }
    }
}

/// The upper triangle (`j ≥ i`) of the scatter matrix `Σ (x−µ)(x−µ)ᵀ` over
/// the rows of `data`, split over `threads`; entries below the diagonal are
/// unspecified.
///
/// The triangle is cut into [`TILE_I`]×[`TILE_J`] tiles, dealt round-robin
/// to the threads. Each thread centres [`SCATTER_CHUNK`] rows at a time and
/// streams them past each of its tiles, whose 32 sums stay in registers.
/// Every entry is one sum over the rows in ascending order, with a separate
/// multiply and add, and no thread shares an entry, so the result does not
/// depend on the thread count.
///
/// A zero `xᵢ − µᵢ` adds a `±0` product, which leaves a finite sum
/// unchanged: a sum that starts at `+0.0` is never `−0.0`, since
/// round-to-nearest gives `+0.0` for an exact cancellation. So skipping
/// such rows, as a one-row-at-a-time loop may, gives the same bits. (Data
/// with a NaN or an infinity makes the covariance NaN, and [`Pca::fit`]
/// panics in the eigen solver.)
pub(crate) fn scatter_upper(data: &[f32], dim: usize, mean: &[f64], threads: usize) -> Matrix {
    // Centred rows are padded with zero columns to whole tiles; padded
    // outputs are dropped.
    let width = dim.next_multiple_of(TILE_J);
    let tiles: Vec<(usize, usize)> = (0..dim)
        .step_by(TILE_I)
        .flat_map(|i0| {
            (i0 / TILE_J * TILE_J..dim)
                .step_by(TILE_J)
                .map(move |j0| (i0, j0))
        })
        .collect();
    let threads = threads.clamp(1, tiles.len().max(1));
    let parts: Vec<Vec<(usize, usize)>> = (0..threads)
        .map(|t| tiles.iter().copied().skip(t).step_by(threads).collect())
        .collect();
    let sums = crate::scoped_map(parts.iter().collect(), |part| {
        scatter_tiles(data, dim, width, mean, part)
    });

    let mut cov = Matrix::zeros(dim, dim);
    for (part, sums) in parts.iter().zip(&sums) {
        for (&(i0, j0), tile) in part.iter().zip(sums) {
            for (i, row) in (i0..dim.min(i0 + TILE_I)).zip(tile) {
                for (j, &s) in (j0..dim.min(j0 + TILE_J)).zip(row) {
                    if j >= i {
                        cov[(i, j)] = s;
                    }
                }
            }
        }
    }
    cov
}

crate::lane_kernel! {
    /// One thread's share of [`scatter_upper`]: the sums of `tiles` over
    /// every row of `data`.
    fn scatter_tiles(
        data: &[f32],
        dim: usize,
        width: usize,
        mean: &[f64],
        tiles: &[(usize, usize)],
    ) -> Vec<Tile> {
        let mut sums = vec![[[0.0f64; TILE_J]; TILE_I]; tiles.len()];
        let mut centred = vec![0.0f64; SCATTER_CHUNK * width];
        for chunk in data.chunks(SCATTER_CHUNK * dim) {
            let rows = chunk.len() / dim;
            for (c, row) in centred.chunks_exact_mut(width).zip(chunk.chunks_exact(dim)) {
                for ((c, &x), m) in c.iter_mut().zip(row).zip(mean) {
                    *c = x as f64 - m;
                }
            }
            let centred = &centred[..rows * width];
            for (&(i0, j0), tile) in tiles.iter().zip(&mut sums) {
                scatter_tile(centred, width, i0, j0, tile);
            }
        }
        sums
    }
}

/// Add one chunk of centred rows (`width` apart) into the tile at
/// `(i0, j0)`.
#[inline(always)]
fn scatter_tile(centred: &[f64], width: usize, i0: usize, j0: usize, tile: &mut Tile) {
    let mut t = *tile;
    for c in centred.chunks_exact(width) {
        let cj: &[f64; TILE_J] = c[j0..j0 + TILE_J].try_into().expect("tile inside the row");
        for (t, &ci) in t.iter_mut().zip(&c[i0..i0 + TILE_I]) {
            for (t, &cj) in t.iter_mut().zip(cj) {
                *t += ci * cj;
            }
        }
    }
    *tile = t;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2-D data stretched along the (1,1) diagonal: first component must align
    /// with the diagonal and capture most of the variance.
    #[test]
    fn recovers_dominant_direction() {
        let mut data = Vec::new();
        for i in 0..200 {
            let t = (i as f32 / 100.0) - 1.0; // [-1, 1)
            let noise = ((i * 37) % 17) as f32 / 170.0 - 0.05;
            data.push(10.0 * t + noise);
            data.push(10.0 * t - noise);
        }
        let pca = Pca::fit(&data, 2, 2);
        let c0 = pca.components.row(0);
        let cos = (c0[0] + c0[1]).abs() / (2.0f64).sqrt();
        assert!(cos > 0.999, "first PC not aligned with diagonal: {c0:?}");
        assert!(pca.explained_variance[0] > 50.0 * pca.explained_variance[1]);
    }

    #[test]
    fn projection_is_mean_centered() {
        let data = vec![1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0]; // 3 rows, dim 2
        let pca = Pca::fit(&data, 2, 1);
        // Projections of the three points must sum to ~0 (mean removed).
        let s: f64 = data.chunks_exact(2).map(|r| pca.project(r)[0]).sum();
        assert!(s.abs() < 1e-9);
    }

    #[test]
    fn components_are_orthonormal() {
        let mut data = Vec::new();
        for i in 0..50 {
            for j in 0..4 {
                data.push(((i * (j + 3) + j * j) % 23) as f32 - 11.0);
            }
        }
        let pca = Pca::fit(&data, 4, 3);
        let ct = pca.components.transpose(); // d×k
        assert!(ct.is_orthonormal(1e-8));
    }

    #[test]
    fn explained_variance_descending() {
        let mut data = Vec::new();
        for i in 0..100 {
            data.push(i as f32);
            data.push((i % 7) as f32);
            data.push((i % 3) as f32);
        }
        let pca = Pca::fit(&data, 3, 3);
        assert!(pca.explained_variance[0] >= pca.explained_variance[1]);
        assert!(pca.explained_variance[1] >= pca.explained_variance[2]);
    }

    /// The covariance loop `scatter_upper` replaced: one row at a time,
    /// upper triangle, zero coordinates skipped.
    fn scatter_reference(data: &[f32], dim: usize, mean: &[f64]) -> Matrix {
        let mut cov = Matrix::zeros(dim, dim);
        let mut centered = vec![0.0f64; dim];
        for row in data.chunks_exact(dim) {
            for ((c, &x), m) in centered.iter_mut().zip(row).zip(mean) {
                *c = x as f64 - m;
            }
            for i in 0..dim {
                let ci = centered[i];
                if ci == 0.0 {
                    continue;
                }
                let cov_row = cov.row_mut(i);
                for j in i..dim {
                    cov_row[j] += ci * centered[j];
                }
            }
        }
        cov
    }

    /// Rows mixing a constant first column (exact zeros once centred),
    /// repeated integers (exact ties) and irregular fractions.
    fn mixed_rows(n: usize, dim: usize) -> Vec<f32> {
        (0..n * dim)
            .map(|i| match (i % dim, i % 3) {
                (0, _) => 2.5,
                (_, 0) => ((i / 3) % 4) as f32,
                _ => ((i * 7919) % 1013) as f32 / 97.0 - 5.0,
            })
            .collect()
    }

    #[test]
    fn tiled_scatter_matches_the_row_at_a_time_loop() {
        // Dims straddle the 4×8 tiles, row counts the 64-row chunks.
        for dim in [1usize, 2, 3, 4, 7, 8, 9, 17, 33] {
            for n in [2usize, 3, 63, 64, 65, 130] {
                let data = mixed_rows(n, dim);
                let mean = mean_rows(&data, dim);
                let want = scatter_reference(&data, dim, &mean);
                for threads in [1, 2, 3, 5] {
                    let got = scatter_upper(&data, dim, &mean, threads);
                    for i in 0..dim {
                        for j in i..dim {
                            assert_eq!(
                                got[(i, j)].to_bits(),
                                want[(i, j)].to_bits(),
                                "dim {dim}, n {n}, {threads} threads, ({i}, {j})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn project_rows_matches_project_bits() {
        let dim = 9;
        let data = mixed_rows(40, dim);
        let pca = Pca::fit(&data, dim, 5);
        for n in [0usize, 1, 15, 16, 17, 40] {
            let rows: Vec<&[f32]> = data.chunks_exact(dim).take(n).collect();
            let got = pca.project_rows(&rows);
            assert_eq!(got.shape(), (n, 5));
            for (i, row) in rows.iter().enumerate() {
                let want: Vec<u64> = pca.project(row).iter().map(|x| x.to_bits()).collect();
                let got: Vec<u64> = got.row(i).iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want, "{n} rows, row {i}");
            }
        }
    }

    #[test]
    fn project_all_matches_project() {
        let data = vec![1.0f32, 0.0, 0.0, 1.0, 1.0, 1.0, -1.0, 0.5];
        let pca = Pca::fit(&data, 2, 2);
        let all = pca.project_all(&data, 2);
        for (i, row) in data.chunks_exact(2).enumerate() {
            let p = pca.project(row);
            assert!((all[(i, 0)] - p[0]).abs() < 1e-12);
            assert!((all[(i, 1)] - p[1]).abs() < 1e-12);
        }
    }
}
