//! Isotropic hashing (IsoHash, Kong & Li, NIPS 2012).
//!
//! PCAH's weakness is that its bits carry wildly different variances — the
//! first principal direction dominates, so its bit is far more informative
//! than the last. IsoHash learns an orthogonal rotation `Q` of the PCA
//! projections that makes all projected variances *equal*
//! (`diag(Q·Λ·Qᵀ) = ā·I`), using the Lift-and-Projection iteration:
//!
//! * **Lift**: project the current symmetric iterate onto the manifold
//!   `{Q·Λ·Qᵀ}` by replacing its eigenvalues with `Λ`'s (keeping its
//!   eigenvectors).
//! * **Projection**: force the diagonal to the target mean variance `ā`.
//!
//! The result is a linear sign-threshold model, so quantization-distance
//! ranking applies unchanged — one more point for the paper's generality
//! claim, and a model whose flipping costs are better calibrated across
//! bits than PCAH's.

use crate::{check_training_input, HashModel, LinearHasher, QueryEncoding, TrainError};
use gqr_linalg::{random_rotation, symmetric_eigen, Matrix, Pca};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Options for [`IsoHash::train_with`].
#[derive(Clone, Debug)]
pub struct IsoHashOptions {
    /// Lift-and-Projection iterations (converges quickly; 50 is generous).
    pub iterations: usize,
    /// Seed for the random orthogonal start (the iteration has a degenerate
    /// fixed point at the identity, so it must not start there).
    pub seed: u64,
}

impl Default for IsoHashOptions {
    fn default() -> Self {
        IsoHashOptions {
            iterations: 50,
            seed: 0,
        }
    }
}

/// A trained IsoHash model (linear, sign-threshold).
#[derive(Clone, Debug)]
pub struct IsoHash {
    hasher: LinearHasher,
    /// Per-bit projected variances after rotation (diagnostic; ideally all
    /// equal to the mean PCA eigenvalue).
    bit_variances: Vec<f64>,
}

impl IsoHash {
    /// Train with default options.
    pub fn train(data: &[f32], dim: usize, m: usize) -> Result<IsoHash, TrainError> {
        Self::train_with(data, dim, m, &IsoHashOptions::default())
    }

    /// Fit PCA to `m` directions, then rotate to isotropic bit variances.
    pub fn train_with(
        data: &[f32],
        dim: usize,
        m: usize,
        opts: &IsoHashOptions,
    ) -> Result<IsoHash, TrainError> {
        check_training_input(data, dim, m, dim, 2)?;
        let pca = Pca::fit(data, dim, m);
        let lambda = &pca.explained_variance;
        let target: f64 = lambda.iter().sum::<f64>() / m as f64;

        // Lift-and-Projection on the m×m symmetric iterate. Start from a
        // *random* rotation of Λ: starting at Λ itself (or any diagonal
        // matrix) is a degenerate fixed point where the eigenvectors stay
        // axis-aligned and no rotation is ever produced.
        let mut rng = ChaCha8Rng::seed_from_u64(opts.seed ^ 0x150_4a57);
        let q0 = random_rotation(m, &mut rng);
        let mut t = Matrix::zeros(m, m);
        for a in 0..m {
            for b in 0..m {
                let mut acc = 0.0;
                for r in 0..m {
                    acc += q0[(a, r)] * lambda[r] * q0[(b, r)];
                }
                t[(a, b)] = acc;
            }
        }
        for i in 0..m {
            t[(i, i)] = target;
        }
        let mut q = q0;
        for _ in 0..opts.iterations.max(1) {
            // Lift: T's eigenvectors with Λ's eigenvalues.
            let e = symmetric_eigen(&t);
            q = e.vectors.clone(); // columns: eigenvectors, descending order
            let mut z = Matrix::zeros(m, m);
            for a in 0..m {
                for b in 0..m {
                    let mut acc = 0.0;
                    for r in 0..m {
                        acc += q[(a, r)] * lambda[r] * q[(b, r)];
                    }
                    z[(a, b)] = acc;
                }
            }
            // Projection: pin the diagonal to the target.
            t = z;
            for i in 0..m {
                t[(i, i)] = target;
            }
        }

        // Final rotation from the last lift: rotated projections are
        // y = Q·p(x), whose covariance is the lifted matrix Q·Λ·Qᵀ — the
        // one whose diagonal the projection step drove to ā.
        let w = q.matmul(&pca.components);
        let bias: Vec<f64> = (0..m)
            .map(|r| {
                -w.row(r)
                    .iter()
                    .zip(&pca.mean)
                    .map(|(wi, mu)| wi * mu)
                    .sum::<f64>()
            })
            .collect();
        let hasher = LinearHasher::new(w, bias);

        // Diagnostic variances: diag(Q·Λ·Qᵀ).
        let bit_variances: Vec<f64> = (0..m)
            .map(|i| (0..m).map(|r| q[(i, r)] * q[(i, r)] * lambda[r]).sum())
            .collect();
        Ok(IsoHash {
            hasher,
            bit_variances,
        })
    }

    /// Per-bit projected variances after the rotation (all ≈ equal when the
    /// iteration converged).
    pub fn bit_variances(&self) -> &[f64] {
        &self.bit_variances
    }

    /// The underlying linear hasher.
    pub fn hasher(&self) -> &LinearHasher {
        &self.hasher
    }
}

impl HashModel for IsoHash {
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
        "IsoHash"
    }

    fn snapshot(&self) -> Option<crate::persist::ModelSnapshot> {
        let mut w = gqr_linalg::wire::ByteWriter::new();
        crate::persist::write_hasher(&mut w, &self.hasher);
        w.put_f64_slice(&self.bit_variances);
        Some(crate::persist::ModelSnapshot {
            kind: crate::persist::ModelKind::IsoHash,
            bytes: w.into_bytes(),
        })
    }
}

impl IsoHash {
    /// Decode a snapshot payload (see `crate::persist`).
    pub(crate) fn wire_read(
        r: &mut gqr_linalg::wire::ByteReader<'_>,
    ) -> Result<IsoHash, gqr_linalg::wire::WireError> {
        Ok(IsoHash {
            hasher: crate::persist::read_hasher(r)?,
            bit_variances: r.get_f64_vec()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Strongly anisotropic data: variances ≈ (100, 9, 1, 0.04).
    fn aniso() -> Vec<f32> {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let scales = [10.0f32, 3.0, 1.0, 0.2];
        let mut data = Vec::new();
        for _ in 0..800 {
            for &s in &scales {
                data.push(s * (rng.gen::<f32>() - 0.5) * 3.46); // var ≈ s²
            }
        }
        data
    }

    fn empirical_bit_variances(model: &IsoHash, data: &[f32], dim: usize) -> Vec<f64> {
        let m = model.code_length();
        let n = data.len() / dim;
        let mut sums = vec![0.0f64; m];
        let mut sq = vec![0.0f64; m];
        for row in data.chunks_exact(dim) {
            let p = model.hasher().project(row);
            for (i, &v) in p.iter().enumerate() {
                sums[i] += v;
                sq[i] += v * v;
            }
        }
        (0..m)
            .map(|i| sq[i] / n as f64 - (sums[i] / n as f64).powi(2))
            .collect()
    }

    #[test]
    fn bit_variances_are_equalized() {
        let data = aniso();
        let iso = IsoHash::train(&data, 4, 4).unwrap();
        let vars = empirical_bit_variances(&iso, &data, 4);
        let mean = vars.iter().sum::<f64>() / 4.0;
        for &v in &vars {
            assert!(
                (v - mean).abs() < 0.15 * mean,
                "bit variances not isotropic: {vars:?}"
            );
        }

        // Contrast: PCAH's variances differ by orders of magnitude here.
        let pcah = crate::pcah::Pcah::train(&data, 4, 4).unwrap();
        let ev = pcah.explained_variance();
        assert!(ev[0] > 20.0 * ev[3], "fixture must be anisotropic: {ev:?}");
    }

    #[test]
    fn rotation_keeps_spectral_norm_of_pca() {
        let data = aniso();
        let iso = IsoHash::train(&data, 4, 3).unwrap();
        assert!((iso.spectral_norm().unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn reported_variances_match_empirical() {
        let data = aniso();
        let iso = IsoHash::train(&data, 4, 4).unwrap();
        let emp = empirical_bit_variances(&iso, &data, 4);
        for (a, b) in iso.bit_variances().iter().zip(&emp) {
            assert!(
                (a - b).abs() < 0.05 * a.max(1.0),
                "reported {a} vs empirical {b}"
            );
        }
    }

    #[test]
    fn flip_costs_are_comparable_across_bits() {
        // The point of IsoHash for QD ranking: |p_i(q)| magnitudes live on
        // the same scale for every bit, unlike PCAH's.
        let data = aniso();
        let iso = IsoHash::train(&data, 4, 4).unwrap();
        let mut mean_costs = vec![0.0f64; 4];
        for row in data.chunks_exact(4).take(200) {
            for (c, m) in iso
                .encode_query(row)
                .flip_costs
                .iter()
                .zip(mean_costs.iter_mut())
            {
                *m += c;
            }
        }
        let lo = mean_costs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = mean_costs.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            hi / lo < 2.0,
            "mean flip costs should be same-scale: {mean_costs:?}"
        );
    }

    #[test]
    fn contract_basics() {
        let data = aniso();
        let iso = IsoHash::train(&data, 4, 2).unwrap();
        assert_eq!(iso.code_length(), 2);
        assert_eq!(iso.dim(), 4);
        let qe = iso.encode_query(&data[..4]);
        assert_eq!(qe.code, iso.encode(&data[..4]));
        assert!(matches!(
            IsoHash::train(&data, 4, 9),
            Err(TrainError::BadCodeLength { .. })
        ));
    }
}
