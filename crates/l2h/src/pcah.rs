//! PCA hashing (PCAH): threshold the top-`m` principal components.

use crate::{check_training_input, HashModel, LinearHasher, QueryEncoding, TrainError};
use gqr_linalg::Pca;

/// PCA hashing: hash functions are the top-`m` eigenvectors of the data
/// covariance matrix; items are sign-thresholded in the mean-centered PCA
/// space.
///
/// The simplest learned model in the paper — §6.5 shows that PCAH *plus GQR*
/// matches far more expensive pipelines, which is the headline result.
#[derive(Clone, Debug)]
pub struct Pcah {
    hasher: LinearHasher,
    explained_variance: Vec<f64>,
}

impl Pcah {
    /// Fit on `n × dim` row-major data, producing `m ≤ dim` hash functions.
    pub fn train(data: &[f32], dim: usize, m: usize) -> Result<Pcah, TrainError> {
        check_training_input(data, dim, m, dim, 2)?;
        let pca = Pca::fit(data, dim, m);
        Ok(Pcah::from_pca(pca))
    }

    /// Build from an already-fitted PCA (used by ITQ and spectral hashing to
    /// share the PCA step).
    pub fn from_pca(pca: Pca) -> Pcah {
        // p(x) = C·(x − µ) = C·x − C·µ.
        let bias: Vec<f64> = (0..pca.k())
            .map(|r| {
                -pca.components
                    .row(r)
                    .iter()
                    .zip(&pca.mean)
                    .map(|(c, m)| c * m)
                    .sum::<f64>()
            })
            .collect();
        Pcah {
            hasher: LinearHasher::new(pca.components.clone(), bias),
            explained_variance: pca.explained_variance,
        }
    }

    /// Variance captured by each hash direction (descending).
    pub fn explained_variance(&self) -> &[f64] {
        &self.explained_variance
    }

    /// The underlying linear hasher.
    pub fn hasher(&self) -> &LinearHasher {
        &self.hasher
    }
}

impl HashModel for Pcah {
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
        "PCAH"
    }

    fn snapshot(&self) -> Option<crate::persist::ModelSnapshot> {
        let mut w = gqr_linalg::wire::ByteWriter::new();
        crate::persist::write_hasher(&mut w, &self.hasher);
        w.put_f64_slice(&self.explained_variance);
        Some(crate::persist::ModelSnapshot {
            kind: crate::persist::ModelKind::Pcah,
            bytes: w.into_bytes(),
        })
    }
}

impl Pcah {
    /// Decode a snapshot payload (see `crate::persist`).
    pub(crate) fn wire_read(
        r: &mut gqr_linalg::wire::ByteReader<'_>,
    ) -> Result<Pcah, gqr_linalg::wire::WireError> {
        Ok(Pcah {
            hasher: crate::persist::read_hasher(r)?,
            explained_variance: r.get_f64_vec()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two elongated blobs along the x-axis: the first PCA bit must separate
    /// them.
    fn two_blobs() -> Vec<f32> {
        let mut data = Vec::new();
        for i in 0..100 {
            let jitter = (i % 10) as f32 * 0.01;
            data.extend_from_slice(&[-5.0 + jitter, jitter]);
            data.extend_from_slice(&[5.0 - jitter, -jitter]);
        }
        data
    }

    #[test]
    fn first_bit_separates_blobs() {
        let data = two_blobs();
        let model = Pcah::train(&data, 2, 1).unwrap();
        let left = model.encode(&[-5.0, 0.0]);
        let right = model.encode(&[5.0, 0.0]);
        assert_ne!(left & 1, right & 1);
    }

    #[test]
    fn bits_are_balanced_on_symmetric_data() {
        let data = two_blobs();
        let model = Pcah::train(&data, 2, 2).unwrap();
        let ones = data
            .chunks_exact(2)
            .filter(|r| model.encode(r) & 1 != 0)
            .count();
        assert_eq!(ones, 100, "symmetric data splits evenly on the first PC");
    }

    #[test]
    fn flip_cost_is_abs_projection() {
        let data = two_blobs();
        let model = Pcah::train(&data, 2, 2).unwrap();
        let qe = model.encode_query(&[1.0, 2.0]);
        let p = model.hasher().project(&[1.0, 2.0]);
        for (c, pi) in qe.flip_costs.iter().zip(&p) {
            assert!((c - pi.abs()).abs() < 1e-12);
        }
    }

    #[test]
    fn explained_variance_descending() {
        let data = two_blobs();
        let model = Pcah::train(&data, 2, 2).unwrap();
        assert!(model.explained_variance()[0] >= model.explained_variance()[1]);
    }

    #[test]
    fn rejects_code_longer_than_dim() {
        let data = two_blobs();
        assert!(matches!(
            Pcah::train(&data, 2, 3),
            Err(TrainError::BadCodeLength { .. })
        ));
    }

    #[test]
    fn spectral_norm_close_to_one_for_orthonormal_rows() {
        // PCA components are orthonormal rows, so σ_max(W) = 1.
        let data = two_blobs();
        let model = Pcah::train(&data, 2, 2).unwrap();
        assert!((model.spectral_norm().unwrap() - 1.0).abs() < 1e-6);
    }
}
