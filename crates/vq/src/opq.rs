//! Optimized product quantization (Ge et al., CVPR 2013), non-parametric
//! variant: alternately optimize a global rotation `R` and the PQ codebooks.

use crate::pq::{PqOptions, ProductQuantizer};
use gqr_linalg::{svd::svd, Matrix};

/// A trained OPQ model: an orthogonal rotation followed by a product
/// quantizer in the rotated space.
#[derive(Clone, Debug)]
pub struct Opq {
    /// Orthogonal `d×d` rotation applied before quantization.
    rotation: Matrix,
    /// Product quantizer trained on rotated data.
    pq: ProductQuantizer,
}

/// Training options for [`Opq::train`].
#[derive(Clone, Debug)]
pub struct OpqOptions {
    /// Alternating optimization rounds (rotation ↔ codebooks).
    pub rounds: usize,
    /// PQ settings used in each round.
    pub pq: PqOptions,
}

impl Default for OpqOptions {
    fn default() -> Self {
        OpqOptions {
            rounds: 8,
            pq: PqOptions::default(),
        }
    }
}

impl Opq {
    /// Train OPQ with `m` subspaces.
    ///
    /// Non-parametric OPQ: start from the identity rotation, then repeat
    /// (1) rotate data, (2) train/refresh PQ codebooks, (3) re-solve the
    /// rotation as the orthogonal Procrustes alignment between the data and
    /// its reconstruction. Quantization error is non-increasing across
    /// rounds up to k-means restarts.
    pub fn train(data: &[f32], dim: usize, m: usize, opts: &OpqOptions) -> Opq {
        assert!(
            dim > 0 && data.len().is_multiple_of(dim),
            "data must be n×dim"
        );
        let n = data.len() / dim;
        assert!(n > 0, "empty training set");

        let mut rotation = Matrix::identity(dim);
        let mut rotated = vec![0.0f32; data.len()];
        let mut pq = None;

        for round in 0..opts.rounds.max(1) {
            rotate_all(&rotation, data, dim, &mut rotated);
            let mut pq_opts = opts.pq.clone();
            pq_opts.kmeans.seed = pq_opts.kmeans.seed.wrapping_add(round as u64 * 131);
            let trained = ProductQuantizer::train(&rotated, dim, m, &pq_opts);

            if round + 1 < opts.rounds {
                // Solve R ← argmin_R Σ ‖R·x − decode(encode(R_old·x))‖², the
                // orthogonal Procrustes problem: R = U·Vᵀ of svd(Xᵀ·Y) where
                // X are the original rows, Y their reconstructions.
                let mut cross = Matrix::zeros(dim, dim);
                for (row, rot_row) in data.chunks_exact(dim).zip(rotated.chunks_exact(dim)) {
                    let rec = trained.decode(&trained.encode(rot_row));
                    for (i, &xi) in row.iter().enumerate() {
                        let xi = xi as f64;
                        if xi == 0.0 {
                            continue;
                        }
                        let cr = cross.row_mut(i);
                        for (c, &y) in cr.iter_mut().zip(&rec) {
                            *c += xi * y as f64;
                        }
                    }
                }
                let s = svd(&cross);
                // Minimizing Σ‖R·x − ŷ‖² over orthogonal R is maximizing
                // tr(R·M) with M = Σ x·ŷᵀ (accumulated above); the optimum is
                // R = V·Uᵀ for M = U·Σ·Vᵀ.
                rotation = s.v.matmul(&s.u.transpose());
            }
            pq = Some(trained);
        }
        rotate_all(&rotation, data, dim, &mut rotated);
        let pq = pq.expect("at least one round");
        Opq { rotation, pq }
    }

    /// The learned rotation.
    pub fn rotation(&self) -> &Matrix {
        &self.rotation
    }

    /// The product quantizer over rotated space.
    pub fn pq(&self) -> &ProductQuantizer {
        &self.pq
    }

    /// Rotate a vector into codebook space.
    pub fn rotate(&self, x: &[f32]) -> Vec<f32> {
        let xf: Vec<f64> = x.iter().map(|&v| v as f64).collect();
        self.rotation
            .matvec(&xf)
            .into_iter()
            .map(|v| v as f32)
            .collect()
    }

    /// Encode one vector (rotate + PQ-encode).
    pub fn encode(&self, x: &[f32]) -> Vec<u8> {
        self.pq.encode(&self.rotate(x))
    }

    /// Reconstruction in *original* space: rotate back the PQ decode.
    pub fn decode(&self, code: &[u8]) -> Vec<f32> {
        let rec = self.pq.decode(code);
        let rf: Vec<f64> = rec.iter().map(|&v| v as f64).collect();
        self.rotation
            .matvec_t(&rf)
            .into_iter()
            .map(|v| v as f32)
            .collect()
    }

    /// Mean squared reconstruction error in original space.
    pub fn quantization_error(&self, data: &[f32]) -> f64 {
        let dim = self.pq.dim();
        let n = data.len() / dim;
        if n == 0 {
            return 0.0;
        }
        let mut total = 0.0f64;
        for row in data.chunks_exact(dim) {
            let rec = self.decode(&self.encode(row));
            total += gqr_linalg::vecops::sq_dist_f32(row, &rec) as f64;
        }
        total / n as f64
    }

    /// Approximate model size in bytes (codebooks + rotation), for Table 2.
    pub fn model_bytes(&self) -> usize {
        let dim = self.pq.dim();
        let rot = dim * dim * std::mem::size_of::<f64>();
        let mut cb = 0;
        for s in 0..self.pq.n_subspaces() {
            cb += std::mem::size_of_val(self.pq.codebook(s));
        }
        rot + cb
    }

    /// Serialize rotation + codebooks for a binary snapshot (see
    /// `gqr-core::persist`).
    pub fn wire_write(&self, w: &mut gqr_linalg::wire::ByteWriter) {
        w.put_matrix(&self.rotation);
        self.pq.wire_write(w);
    }

    /// Decode a model written by [`Opq::wire_write`].
    pub fn wire_read(
        r: &mut gqr_linalg::wire::ByteReader<'_>,
    ) -> Result<Opq, gqr_linalg::wire::WireError> {
        use gqr_linalg::wire::WireError;
        let rotation = r.get_matrix()?;
        let pq = ProductQuantizer::wire_read(r)?;
        if rotation.rows() != rotation.cols() || rotation.rows() != pq.dim() {
            return Err(WireError::Malformed("OPQ rotation shape mismatch"));
        }
        Ok(Opq { rotation, pq })
    }
}

/// Rotate every row: `out_row = R · row` (accumulated in f64).
fn rotate_all(rotation: &Matrix, data: &[f32], dim: usize, out: &mut [f32]) {
    debug_assert_eq!(data.len(), out.len());
    let mut xf = vec![0.0f64; dim];
    for (row, out_row) in data.chunks_exact(dim).zip(out.chunks_exact_mut(dim)) {
        for (x, &v) in xf.iter_mut().zip(row) {
            *x = v as f64;
        }
        let y = rotation.matvec(&xf);
        for (o, v) in out_row.iter_mut().zip(y) {
            *o = v as f32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::KMeansOptions;

    fn opts(ks: usize, rounds: usize) -> OpqOptions {
        OpqOptions {
            rounds,
            pq: PqOptions {
                ks,
                kmeans: KMeansOptions {
                    seed: 21,
                    ..Default::default()
                },
            },
        }
    }

    /// Data correlated across the subspace split: dims (0,2) equal, (1,3)
    /// equal. Plain PQ on halves (0,1)/(2,3) wastes codewords; a rotation can
    /// decorrelate. OPQ must end with error no worse than round-0 PQ.
    fn correlated_data() -> Vec<f32> {
        let mut data = Vec::new();
        for i in 0..300 {
            let a = ((i * 17) % 23) as f32 - 11.0;
            let b = ((i * 5) % 19) as f32 - 9.0;
            data.extend_from_slice(&[a, b, a + 0.01 * b, b - 0.01 * a]);
        }
        data
    }

    #[test]
    fn rotation_stays_orthogonal() {
        let data = correlated_data();
        let opq = Opq::train(&data, 4, 2, &opts(8, 4));
        assert!(opq.rotation().is_orthonormal(1e-6));
    }

    #[test]
    fn opq_error_not_worse_than_single_round() {
        let data = correlated_data();
        let single = Opq::train(&data, 4, 2, &opts(8, 1));
        let multi = Opq::train(&data, 4, 2, &opts(8, 6));
        assert!(
            multi.quantization_error(&data) <= single.quantization_error(&data) * 1.05,
            "multi {} vs single {}",
            multi.quantization_error(&data),
            single.quantization_error(&data)
        );
    }

    #[test]
    fn encode_decode_roundtrip_shape() {
        let data = correlated_data();
        let opq = Opq::train(&data, 4, 2, &opts(4, 2));
        let code = opq.encode(&data[..4]);
        assert_eq!(code.len(), 2);
        assert_eq!(opq.decode(&code).len(), 4);
    }

    #[test]
    fn rotate_preserves_norm() {
        let data = correlated_data();
        let opq = Opq::train(&data, 4, 2, &opts(4, 3));
        let x = [1.0f32, -2.0, 3.0, 0.5];
        let y = opq.rotate(&x);
        let nx: f32 = x.iter().map(|v| v * v).sum();
        let ny: f32 = y.iter().map(|v| v * v).sum();
        assert!((nx - ny).abs() < 1e-3);
    }

    #[test]
    fn model_bytes_positive() {
        let data = correlated_data();
        let opq = Opq::train(&data, 4, 2, &opts(4, 1));
        assert!(opq.model_bytes() > 0);
    }
}
