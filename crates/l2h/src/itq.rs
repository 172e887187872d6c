//! Iterative quantization (ITQ, Gong & Lazebnik CVPR 2011): PCA followed by a
//! rotation learned to minimize binary quantization error.

use crate::{check_training_input, HashModel, LinearHasher, QueryEncoding, TrainError};
use gqr_linalg::matrix::LANES;
use gqr_linalg::svd::svd;
use gqr_linalg::{random_rotation, training_threads, Matrix, Pca};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Training options for [`Itq::train`].
#[derive(Clone, Debug)]
pub struct ItqOptions {
    /// Alternating-minimization iterations (the reference implementation
    /// uses 50).
    pub iterations: usize,
    /// RNG seed for the initial random rotation.
    pub seed: u64,
    /// Cap on rows used for the rotation refinement (the PCA still sees all
    /// rows). `0` disables subsampling. ITQ's per-iteration cost is
    /// `O(n·m²)`, so large datasets train on a sample, like the reference
    /// MATLAB code's common usage.
    pub max_train_rows: usize,
}

impl Default for ItqOptions {
    fn default() -> Self {
        ItqOptions {
            iterations: 50,
            seed: 0,
            max_train_rows: 20_000,
        }
    }
}

/// Iterative quantization: hash matrix `W = Rᵀ·P` where `P` holds the top-`m`
/// principal directions and `R` is the learned `m×m` rotation.
#[derive(Clone, Debug)]
pub struct Itq {
    hasher: LinearHasher,
    final_quant_error: f64,
}

impl Itq {
    /// Train with default options.
    pub fn train(data: &[f32], dim: usize, m: usize) -> Result<Itq, TrainError> {
        Self::train_with(data, dim, m, &ItqOptions::default())
    }

    /// Train with explicit options. The PCA scatter and the alternating
    /// minimization run on [`training_threads`]; the model is bit-identical
    /// whatever the thread count.
    pub fn train_with(
        data: &[f32],
        dim: usize,
        m: usize,
        opts: &ItqOptions,
    ) -> Result<Itq, TrainError> {
        let cap = match opts.max_train_rows {
            0 => usize::MAX,
            cap => cap,
        };
        let rows = (data.len() / dim.max(1)).min(cap);
        let threads = if rows * m * m < ALTERNATION_PARALLEL_MIN {
            1
        } else {
            training_threads()
        };
        Self::train_threaded(data, dim, m, opts, threads)
    }

    /// [`Itq::train_with`] with the alternating minimization split over
    /// `threads`.
    fn train_threaded(
        data: &[f32],
        dim: usize,
        m: usize,
        opts: &ItqOptions,
        threads: usize,
    ) -> Result<Itq, TrainError> {
        let n = check_training_input(data, dim, m, dim, 2)?;
        let pca = Pca::fit(data, dim, m);

        // Rows used for rotation refinement (deterministic stride subsample).
        let train_rows: Vec<&[f32]> = if opts.max_train_rows > 0 && n > opts.max_train_rows {
            let stride = n as f64 / opts.max_train_rows as f64;
            (0..opts.max_train_rows)
                .map(|i| (i as f64 * stride) as usize)
                .map(|row| &data[row * dim..(row + 1) * dim])
                .collect()
        } else {
            data.chunks_exact(dim).collect()
        };
        // V: projected (mean-centered) training rows, t×m.
        let mut alternation = Alternation::new(&pca.project_rows(&train_rows), threads);

        let mut rng = ChaCha8Rng::seed_from_u64(opts.seed ^ 0x17_c0de);
        let mut r = random_rotation(m, &mut rng);
        let mut quant_error = f64::INFINITY;

        let iterations = opts.iterations.max(1);
        for iteration in 1..=iterations {
            // Fix R: B = sgn(V·R). Fix B: maximize tr(Rᵀ·VᵀB) ⇒ R = polar
            // factor of VᵀB.
            let vtb = alternation.vtb(&r);
            if iteration == iterations {
                quant_error = alternation.error(&r) / alternation.rows() as f64;
            }
            let s = svd(&vtb);
            // tr(Rᵀ·M) with M = VᵀB is maximized at R = U·Vᵀ of M's SVD.
            r = s.u.matmul(&s.v.transpose());
        }

        // Final hash matrix: p(x) = Rᵀ·P·(x − µ) ⇒ W = Rᵀ·P, bias = −W·µ.
        let w = r.transpose().matmul(&pca.components);
        let bias: Vec<f64> = (0..m)
            .map(|row| {
                -w.row(row)
                    .iter()
                    .zip(&pca.mean)
                    .map(|(wi, mu)| wi * mu)
                    .sum::<f64>()
            })
            .collect();
        Ok(Itq {
            hasher: LinearHasher::new(w, bias),
            final_quant_error: quant_error,
        })
    }

    /// Mean squared quantization error `‖sgn(VR) − VR‖²/n` at the last
    /// iteration (training diagnostic; decreases across iterations).
    pub fn quantization_error(&self) -> f64 {
        self.final_quant_error
    }

    /// The underlying linear hasher.
    pub fn hasher(&self) -> &LinearHasher {
        &self.hasher
    }
}

/// `B` columns per `VᵀB` tile: `B` is held row-major, zero-padded to whole
/// groups of `COLS` `f64`.
const COLS: usize = 8;
/// `VᵀB` rows per tile; a tile's `VTB_ROWS × COLS` sums stay in registers.
const VTB_ROWS: usize = 4;
/// Lane blocks (of [`LANES`] rows) streamed past every `VᵀB` tile per pass,
/// so the pass stays cache-resident.
const VTB_BLOCKS: usize = 16;
/// Below this many multiply-adds per step (`t·m²`) the alternation runs on
/// one thread: spawning would cost more than it saves.
const ALTERNATION_PARALLEL_MIN: usize = 1 << 18;

type VtbTile = [[f64; COLS]; VTB_ROWS];

/// ITQ's alternating minimization over the fixed projected rows `V` (t×m).
///
/// `V` is held in lane blocks of [`LANES`] rows, transposed, so a step
/// computes `V·R` for sixteen rows at once through
/// [`Matrix::lane_products`] and writes `B = sgn(V·R)` row-major, with the
/// blocks split over the threads. It then sums `VᵀB` in `VTB_ROWS × COLS`
/// tiles dealt round-robin to the threads. Every `V·R` entry sums `k` in
/// ascending order from `0.0` and every `VᵀB` entry sums the rows in
/// ascending order, each multiply and add separate, so the model does not
/// depend on the thread count and equals what [`Matrix::matmul`] and a
/// row-at-a-time `VᵀB` give.
///
/// `Matrix::matmul` skips a zero `V` entry; here it adds a `±0` product,
/// which leaves the sum unchanged: `R` is finite (the trainer rejects
/// non-finite data), and a sum that starts at `+0.0` is never `−0.0`.
struct Alternation {
    m: usize,
    rows: usize,
    /// Floats per lane block: `m` rounded up to whole tiles, times `LANES`.
    block: usize,
    /// `V` in lane blocks: entry `k` of the block's row `l` at `k·LANES + l`,
    /// zero-padded past `m` and past the last row.
    v: Vec<f64>,
    /// `m` rounded up to whole [`COLS`] groups: the row stride of `b`.
    width: usize,
    /// `B = sgn(V·R)` of the last step (±1), row-major.
    b: Vec<f64>,
    threads: usize,
}

impl Alternation {
    fn new(v: &Matrix, threads: usize) -> Alternation {
        let (rows, m) = v.shape();
        let block = m.next_multiple_of(VTB_ROWS) * LANES;
        let mut lanes = vec![0.0f64; rows.div_ceil(LANES) * block];
        for (r, row) in v.as_slice().chunks_exact(m).enumerate() {
            let (at, l) = (r / LANES * block, r % LANES);
            for (k, &x) in row.iter().enumerate() {
                lanes[at + k * LANES + l] = x;
            }
        }
        let width = m.next_multiple_of(COLS);
        Alternation {
            m,
            rows,
            block,
            v: lanes,
            width,
            b: vec![0.0; rows * width],
            threads: threads.max(1),
        }
    }

    fn rows(&self) -> usize {
        self.rows
    }

    /// `VᵀB` for `B = sgn(V·R)` (±1).
    fn vtb(&mut self, r: &Matrix) -> Matrix {
        let (m, block, width) = (self.m, self.block, self.width);
        let rt = r.transpose();
        let part = self.rows.div_ceil(LANES).div_ceil(self.threads).max(1);
        let parts: Vec<_> = self
            .v
            .chunks(part * block)
            .zip(self.b.chunks_mut(part * LANES * width))
            .collect();
        gqr_linalg::scoped_map(parts, |(v, b)| sign_blocks(v, &rt, block, width, b));

        let tiles: Vec<(usize, usize)> = (0..m)
            .step_by(VTB_ROWS)
            .flat_map(|i0| (0..m).step_by(COLS).map(move |j0| (i0, j0)))
            .collect();
        let threads = self.threads.min(tiles.len());
        let parts: Vec<Vec<(usize, usize)>> = (0..threads)
            .map(|t| tiles.iter().copied().skip(t).step_by(threads).collect())
            .collect();
        let (v, b) = (&self.v[..], &self.b[..]);
        let sums = gqr_linalg::scoped_map(parts.iter().collect(), |part| {
            vtb_tiles(v, b, block, width, part)
        });

        let mut vtb = Matrix::zeros(m, m);
        for (part, sums) in parts.iter().zip(&sums) {
            for (&(i0, j0), tile) in part.iter().zip(sums) {
                for (i, row) in (i0..m.min(i0 + VTB_ROWS)).zip(tile) {
                    for (j, &s) in (j0..m.min(j0 + COLS)).zip(row) {
                        vtb[(i, j)] = s;
                    }
                }
            }
        }
        vtb
    }

    /// The summed squared quantization error `‖V·R − sgn(V·R)‖²`, one chain
    /// over the entries in row-major order (only the last step's is kept).
    fn error(&self, r: &Matrix) -> f64 {
        let rt = r.transpose();
        let mut p = vec![[0.0f64; LANES]; self.m];
        let mut err = 0.0f64;
        for (first, v) in self.v.chunks(self.block).enumerate() {
            rt.lane_products(&v[..self.m * LANES], 0.0, &mut p);
            for l in 0..LANES.min(self.rows - first * LANES) {
                for p in &p {
                    let b = if p[l] >= 0.0 { 1.0 } else { -1.0 };
                    err += (p[l] - b) * (p[l] - b);
                }
            }
        }
        err
    }
}

gqr_linalg::lane_kernel! {
    /// `B = sgn(V·R)` (±1) for a run of lane blocks, written row-major.
    fn sign_blocks(v: &[f64], rt: &Matrix, block: usize, width: usize, b: &mut [f64]) {
        let m = rt.rows();
        let mut p = vec![[0.0f64; LANES]; m];
        for (v, b) in v.chunks(block).zip(b.chunks_mut(LANES * width)) {
            rt.lane_products(&v[..m * LANES], 0.0, &mut p);
            for (l, b) in b.chunks_exact_mut(width).enumerate() {
                for (b, p) in b.iter_mut().zip(&p) {
                    *b = if p[l] >= 0.0 { 1.0 } else { -1.0 };
                }
            }
        }
    }
}

gqr_linalg::lane_kernel! {
    /// One thread's `VᵀB` tiles: the tile at `(i0, j0)` sums
    /// `V[row][i0 + ii] · B[row][j0 + jj]` over every row, in order.
    fn vtb_tiles(v: &[f64], b: &[f64], block: usize, width: usize, tiles: &[(usize, usize)]) -> Vec<VtbTile> {
        let mut sums = vec![[[0.0f64; COLS]; VTB_ROWS]; tiles.len()];
        let rows = LANES * width;
        for (v, b) in v.chunks(VTB_BLOCKS * block).zip(b.chunks(VTB_BLOCKS * rows)) {
            for (&(i0, j0), sum) in tiles.iter().zip(&mut sums) {
                let mut s = *sum;
                for (v, b) in v.chunks(block).zip(b.chunks(rows)) {
                    let v = &v[i0 * LANES..(i0 + VTB_ROWS) * LANES];
                    for (l, b) in b.chunks_exact(width).enumerate() {
                        let b: &[f64; COLS] = b[j0..j0 + COLS].try_into().expect("padded row");
                        for (ii, s) in s.iter_mut().enumerate() {
                            let vi = v[ii * LANES + l];
                            for (s, &b) in s.iter_mut().zip(b) {
                                *s += vi * b;
                            }
                        }
                    }
                }
                *sum = s;
            }
        }
        sums
    }
}

impl HashModel for Itq {
    fn dim(&self) -> usize {
        self.hasher.dim()
    }

    fn code_length(&self) -> usize {
        self.hasher.code_length()
    }

    fn encode(&self, x: &[f32]) -> u64 {
        self.hasher.encode(x)
    }

    fn encode_query(&self, q: &[f32]) -> QueryEncoding {
        self.hasher.encode_query(q)
    }

    fn encode_wide(&self, x: &[f32]) -> crate::CodeBlocks {
        self.hasher.encode_wide(x)
    }

    fn encode_rows(&self, rows: &[f32], out: &mut [crate::CodeBlocks]) {
        self.hasher.encode_rows(rows, out)
    }

    fn encode_query_wide(&self, q: &[f32]) -> crate::WideQueryEncoding {
        self.hasher.encode_query_wide(q)
    }

    fn spectral_norm(&self) -> Option<f64> {
        Some(self.hasher.spectral_norm())
    }

    fn name(&self) -> &'static str {
        "ITQ"
    }

    fn snapshot(&self) -> Option<crate::persist::ModelSnapshot> {
        let mut w = gqr_linalg::wire::ByteWriter::new();
        crate::persist::write_hasher(&mut w, &self.hasher);
        w.put_f64(self.final_quant_error);
        Some(crate::persist::ModelSnapshot {
            kind: crate::persist::ModelKind::Itq,
            bytes: w.into_bytes(),
        })
    }
}

impl Itq {
    /// Decode a snapshot payload (see `crate::persist`).
    pub(crate) fn wire_read(
        r: &mut gqr_linalg::wire::ByteReader<'_>,
    ) -> Result<Itq, gqr_linalg::wire::WireError> {
        Ok(Itq {
            hasher: crate::persist::read_hasher(r)?,
            final_quant_error: r.get_f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Clustered 4-D data: four Gaussian-ish blobs at square corners in the
    /// first two dims.
    fn blobs() -> Vec<f32> {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let corners = [[-4.0f32, -4.0], [-4.0, 4.0], [4.0, -4.0], [4.0, 4.0]];
        let mut data = Vec::new();
        for i in 0..400 {
            let c = corners[i % 4];
            data.push(c[0] + rng.gen::<f32>() - 0.5);
            data.push(c[1] + rng.gen::<f32>() - 0.5);
            data.push(rng.gen::<f32>() * 0.1);
            data.push(rng.gen::<f32>() * 0.1);
        }
        data
    }

    /// ITQ training as it ran one row at a time, before the alternation was
    /// tiled and threaded: per-row projection, `Matrix::matmul`, and an
    /// element-at-a-time `VᵀB` with the error summed on every iteration.
    fn train_reference(data: &[f32], dim: usize, m: usize, opts: &ItqOptions) -> Itq {
        let n = data.len() / dim;
        let pca = Pca::fit(data, dim, m);
        let train_rows: Vec<usize> = if opts.max_train_rows > 0 && n > opts.max_train_rows {
            let stride = n as f64 / opts.max_train_rows as f64;
            (0..opts.max_train_rows)
                .map(|i| (i as f64 * stride) as usize)
                .collect()
        } else {
            (0..n).collect()
        };
        let mut v = Matrix::zeros(train_rows.len(), m);
        for (vi, &row) in train_rows.iter().enumerate() {
            let p = pca.project(&data[row * dim..(row + 1) * dim]);
            v.row_mut(vi).copy_from_slice(&p);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(opts.seed ^ 0x17_c0de);
        let mut r = random_rotation(m, &mut rng);
        let mut quant_error = f64::INFINITY;
        for _ in 0..opts.iterations.max(1) {
            let vr = v.matmul(&r);
            let mut vtb = Matrix::zeros(m, m);
            let mut err = 0.0f64;
            for row in 0..vr.rows() {
                let (vr_row, v_row) = (vr.row(row), v.row(row));
                for j in 0..m {
                    let b = if vr_row[j] >= 0.0 { 1.0 } else { -1.0 };
                    err += (vr_row[j] - b) * (vr_row[j] - b);
                    for i in 0..m {
                        vtb[(i, j)] += v_row[i] * b;
                    }
                }
            }
            quant_error = err / vr.rows().max(1) as f64;
            let s = svd(&vtb);
            r = s.u.matmul(&s.v.transpose());
        }
        let w = r.transpose().matmul(&pca.components);
        let bias: Vec<f64> = (0..m)
            .map(|row| {
                -w.row(row)
                    .iter()
                    .zip(&pca.mean)
                    .map(|(wi, mu)| wi * mu)
                    .sum::<f64>()
            })
            .collect();
        Itq {
            hasher: LinearHasher::new(w, bias),
            final_quant_error: quant_error,
        }
    }

    fn model_bits(itq: &Itq) -> Vec<u64> {
        let all = itq.hasher.w.as_slice().iter().chain(&itq.hasher.bias);
        all.chain([&itq.final_quant_error])
            .map(|x| x.to_bits())
            .collect()
    }

    #[test]
    fn alternation_step_matches_matmul_with_zero_entries() {
        // `Matrix::matmul` skips zero V entries, the lane products add
        // them; row counts straddle the 16-row lane blocks and the 256-row
        // passes.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for (rows, m) in [(1usize, 1usize), (17, 3), (40, 8), (300, 13), (33, 17)] {
            let mut v = Matrix::zeros(rows, m);
            for (i, x) in v.as_mut_slice().iter_mut().enumerate() {
                *x = if i % 11 == 3 {
                    0.0
                } else {
                    rng.gen::<f64>() - 0.5
                };
            }
            let r = random_rotation(m, &mut rng);
            let vr = v.matmul(&r);
            let mut want = Matrix::zeros(m, m);
            let mut err = 0.0f64;
            for row in 0..rows {
                for j in 0..m {
                    let x = vr[(row, j)];
                    let b = if x >= 0.0 { 1.0 } else { -1.0 };
                    err += (x - b) * (x - b);
                    for i in 0..m {
                        want[(i, j)] += v[(row, i)] * b;
                    }
                }
            }
            for threads in [1, 2, 3] {
                let mut alternation = Alternation::new(&v, threads);
                let got = alternation.vtb(&r);
                let bits =
                    |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{rows}×{m}, {threads} threads");
                assert_eq!(alternation.error(&r).to_bits(), err.to_bits());
            }
        }
    }

    #[test]
    fn tiled_threaded_training_matches_the_row_at_a_time_loop() {
        let mut rng = ChaCha8Rng::seed_from_u64(2024);
        let mut wide: Vec<f32> = (0..2_000 * 32)
            .map(|i| rng.gen::<f32>() * (1 + i % 32) as f32 - 0.3 * (i % 7) as f32)
            .collect();
        // Exact zeros in the input and a repeated block (exact ties).
        for x in wide.iter_mut().step_by(13) {
            *x = 0.0;
        }
        wide.copy_within(0..320, 640);
        let grid: Vec<f32> = (0..300 * 3).map(|i| ((i * 7) % 5) as f32).collect();
        let cases: [(&[f32], usize, &[usize]); 3] = [
            (&blobs(), 4, &[1, 2, 3, 4]),
            (&wide, 32, &[1, 7, 8, 9, 13, 16, 17, 32]),
            (&grid, 3, &[1, 2, 3]),
        ];
        for (data, dim, ms) in cases {
            for &m in ms {
                for opts in [
                    ItqOptions {
                        iterations: 7,
                        ..Default::default()
                    },
                    ItqOptions {
                        iterations: 3,
                        seed: 9,
                        max_train_rows: 37,
                    },
                ] {
                    let want = model_bits(&train_reference(data, dim, m, &opts));
                    for threads in [1, 2, 3] {
                        let got = Itq::train_threaded(data, dim, m, &opts, threads).unwrap();
                        assert_eq!(
                            model_bits(&got),
                            want,
                            "dim {dim}, m {m}, {threads} threads"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn iterations_reduce_quantization_error() {
        let data = blobs();
        let short = Itq::train_with(
            &data,
            4,
            2,
            &ItqOptions {
                iterations: 1,
                seed: 7,
                max_train_rows: 0,
            },
        )
        .unwrap();
        let long = Itq::train_with(
            &data,
            4,
            2,
            &ItqOptions {
                iterations: 50,
                seed: 7,
                max_train_rows: 0,
            },
        )
        .unwrap();
        assert!(
            long.quantization_error() <= short.quantization_error() + 1e-9,
            "long {} vs short {}",
            long.quantization_error(),
            short.quantization_error()
        );
    }

    #[test]
    fn rotation_preserves_spectral_norm_of_pca() {
        // W = Rᵀ·P with R orthogonal and P orthonormal rows ⇒ σ_max(W) = 1.
        let data = blobs();
        let itq = Itq::train(&data, 4, 2).unwrap();
        assert!((itq.spectral_norm().unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn codes_separate_the_four_blobs() {
        let data = blobs();
        let itq = Itq::train(&data, 4, 2).unwrap();
        // Each corner must map to a distinct 2-bit code.
        let codes: std::collections::HashSet<u64> = [
            [-4.0f32, -4.0, 0.0, 0.0],
            [-4.0, 4.0, 0.0, 0.0],
            [4.0, -4.0, 0.0, 0.0],
            [4.0, 4.0, 0.0, 0.0],
        ]
        .iter()
        .map(|c| itq.encode(c))
        .collect();
        assert_eq!(
            codes.len(),
            4,
            "2-bit ITQ must give all four corners distinct codes"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let data = blobs();
        let a = Itq::train_with(
            &data,
            4,
            3,
            &ItqOptions {
                seed: 5,
                ..Default::default()
            },
        )
        .unwrap();
        let b = Itq::train_with(
            &data,
            4,
            3,
            &ItqOptions {
                seed: 5,
                ..Default::default()
            },
        )
        .unwrap();
        for row in data.chunks_exact(4).take(20) {
            assert_eq!(a.encode(row), b.encode(row));
        }
    }

    #[test]
    fn subsampled_training_still_reasonable() {
        let data = blobs();
        let sub = Itq::train_with(
            &data,
            4,
            2,
            &ItqOptions {
                max_train_rows: 50,
                ..Default::default()
            },
        )
        .unwrap();
        let codes: std::collections::HashSet<u64> =
            data.chunks_exact(4).map(|r| sub.encode(r)).collect();
        assert!(codes.len() >= 3, "subsampled ITQ still separates blobs");
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(
            Itq::train(&[1.0, 2.0, 3.0], 2, 2),
            Err(TrainError::RaggedData)
        ));
        let data = blobs();
        assert!(matches!(
            Itq::train(&data, 4, 5),
            Err(TrainError::BadCodeLength { .. })
        ));
    }
}
