//! Iterative quantization (ITQ, Gong & Lazebnik CVPR 2011): PCA followed by a
//! rotation learned to minimize binary quantization error.

use crate::{check_training_input, HashModel, LinearHasher, QueryEncoding, TrainError};
use gqr_linalg::svd::svd;
use gqr_linalg::{random_rotation, Matrix, Pca};
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
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Itq {
    hasher: LinearHasher,
    final_quant_error: f64,
}

impl Itq {
    /// Train with default options.
    pub fn train(data: &[f32], dim: usize, m: usize) -> Result<Itq, TrainError> {
        Self::train_with(data, dim, m, &ItqOptions::default())
    }

    /// Train with explicit options.
    pub fn train_with(
        data: &[f32],
        dim: usize,
        m: usize,
        opts: &ItqOptions,
    ) -> Result<Itq, TrainError> {
        Self::train_accumulating(data, dim, m, opts, accumulate_vtb)
    }

    /// [`Itq::train_with`] over a given `(V, VR) → (VᵀB, error)` step, so the
    /// bit-identity test can train through the loop this module used to run.
    fn train_accumulating(
        data: &[f32],
        dim: usize,
        m: usize,
        opts: &ItqOptions,
        accumulate: impl Fn(&Matrix, &Matrix) -> (Matrix, f64),
    ) -> Result<Itq, TrainError> {
        let n = check_training_input(data, dim, m, dim, 2)?;
        let pca = Pca::fit(data, dim, m);

        // Rows used for rotation refinement (deterministic stride subsample).
        let train_rows: Vec<usize> = if opts.max_train_rows > 0 && n > opts.max_train_rows {
            let stride = n as f64 / opts.max_train_rows as f64;
            (0..opts.max_train_rows)
                .map(|i| (i as f64 * stride) as usize)
                .collect()
        } else {
            (0..n).collect()
        };

        // V: projected (mean-centered) training rows, t×m.
        let mut v = Matrix::zeros(train_rows.len(), m);
        for (vi, &row) in train_rows.iter().enumerate() {
            let p = pca.project(&data[row * dim..(row + 1) * dim]);
            v.row_mut(vi).copy_from_slice(&p);
        }

        let mut rng = ChaCha8Rng::seed_from_u64(opts.seed ^ 0x17_c0de);
        let mut r = random_rotation(m, &mut rng);
        let mut quant_error = f64::INFINITY;

        for _ in 0..opts.iterations.max(1) {
            // Fix R: B = sgn(V·R), encoded ±1.
            let vr = v.matmul(&r);
            // Fix B: maximize tr(Rᵀ·VᵀB) ⇒ R = polar factor of VᵀB.
            let (vtb, err) = accumulate(&v, &vr);
            quant_error = err / vr.rows().max(1) as f64;
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

/// `VᵀB` for `B = sgn(VR)` (±1) and the summed squared quantization error
/// `‖VR − B‖²`. The sign vector of a row is computed once, then every
/// accumulator row is updated over contiguous `j`; each `vtb[(i, j)]` still
/// sums its rows in ascending order with a separate multiply and add, so the
/// result is bit-identical to the element-at-a-time loop it replaces.
fn accumulate_vtb(v: &Matrix, vr: &Matrix) -> (Matrix, f64) {
    let m = vr.cols();
    let mut vtb = Matrix::zeros(m, m);
    let mut signs = vec![0.0f64; m];
    let mut err = 0.0f64;
    for row in 0..vr.rows() {
        for (b, &x) in signs.iter_mut().zip(vr.row(row)) {
            *b = if x >= 0.0 { 1.0 } else { -1.0 };
            err += (x - *b) * (x - *b);
        }
        for (i, &vi) in v.row(row).iter().enumerate() {
            for (acc, &b) in vtb.row_mut(i).iter_mut().zip(&signs) {
                *acc += vi * b;
            }
        }
    }
    (vtb, err)
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

    /// The element-at-a-time accumulation `accumulate_vtb` replaced: j-outer,
    /// i-inner, stride-`m` writes through `Index`.
    fn accumulate_vtb_reference(v: &Matrix, vr: &Matrix) -> (Matrix, f64) {
        let m = vr.cols();
        let mut vtb = Matrix::zeros(m, m);
        let mut err = 0.0f64;
        for row in 0..vr.rows() {
            let vr_row = vr.row(row);
            let v_row = v.row(row);
            for j in 0..m {
                let b = if vr_row[j] >= 0.0 { 1.0 } else { -1.0 };
                err += (vr_row[j] - b) * (vr_row[j] - b);
                for i in 0..m {
                    vtb[(i, j)] += v_row[i] * b;
                }
            }
        }
        (vtb, err)
    }

    #[test]
    fn vtb_accumulate_matches_reference_bits() {
        let mut rng = ChaCha8Rng::seed_from_u64(2024);
        let wide: Vec<f32> = (0..2_000 * 32)
            .map(|i| rng.gen::<f32>() * (1 + i % 32) as f32 - 0.3 * (i % 7) as f32)
            .collect();
        for (data, dim, m) in [(blobs(), 4, 3), (wide, 32, 16)] {
            let opts = ItqOptions::default();
            let new = Itq::train_with(&data, dim, m, &opts).unwrap();
            let old =
                Itq::train_accumulating(&data, dim, m, &opts, accumulate_vtb_reference).unwrap();
            let bits = |itq: &Itq| -> Vec<u64> {
                let all = itq.hasher.w.as_slice().iter().chain(&itq.hasher.bias);
                all.chain([&itq.final_quant_error])
                    .map(|x| x.to_bits())
                    .collect()
            };
            assert_eq!(bits(&new), bits(&old), "dim {dim}, m {m}");
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
