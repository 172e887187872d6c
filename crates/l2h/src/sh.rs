//! Spectral hashing (Weiss, Torralba & Fergus, NIPS 2008).
//!
//! SH assumes a (separable) uniform distribution along the principal
//! directions of the data and uses the analytic eigenfunctions of the 1-D
//! Laplacian on each direction's range: for direction `j` with projected
//! range `[a_j, b_j]`, the `k`-th eigenfunction is
//! `Φ_{k,j}(x) = sin(π/2 + k·π/(b_j − a_j)·(x − a_j))` with eigenvalue
//! proportional to `(k/(b_j − a_j))²`. The `m` candidate (direction, `k`)
//! pairs with the smallest eigenvalues become the hash functions; bits are
//! the signs of the eigenfunction values.
//!
//! SH is *non-linear* (sinusoid of a linear projection), which is exactly
//! why it matters here: it shows QD ranking works beyond linear hashing —
//! the flipping cost of bit `i` is still `|Φ_i(q)|`, the magnitude of the
//! pre-threshold response.

use crate::{check_training_input, sign_code, HashModel, QueryEncoding, TrainError};
use gqr_linalg::Pca;

/// One hash function: the `k`-th sinusoidal eigenfunction along PCA
/// direction `dir`.
#[derive(Clone, Copy, Debug, PartialEq)]
struct EigenFunction {
    /// PCA direction index.
    dir: usize,
    /// Mode number `k ≥ 1`.
    mode: usize,
    /// Range start `a` of the projected data along `dir`.
    a: f64,
    /// Angular frequency `k·π/(b − a)`.
    omega: f64,
}

impl EigenFunction {
    #[inline]
    fn eval(&self, projected: f64) -> f64 {
        (std::f64::consts::FRAC_PI_2 + self.omega * (projected - self.a)).sin()
    }
}

/// A trained spectral-hashing model.
#[derive(Clone, Debug)]
pub struct SpectralHashing {
    pca: Pca,
    functions: Vec<EigenFunction>,
}

impl SpectralHashing {
    /// Fit on `n × dim` row-major data, producing `m` hash bits.
    ///
    /// Follows the reference pipeline: PCA to `min(m, dim)` directions,
    /// per-direction range estimation, analytic eigenvalue ranking over all
    /// (direction, mode) candidates, smallest-`m` selected.
    pub fn train(data: &[f32], dim: usize, m: usize) -> Result<SpectralHashing, TrainError> {
        let _n = check_training_input(data, dim, m, crate::MAX_NARROW_CODE_LENGTH, 2)?;
        let n_dirs = m.min(dim);
        let pca = Pca::fit(data, dim, n_dirs);

        // Projected ranges per direction.
        let mut lo = vec![f64::INFINITY; n_dirs];
        let mut hi = vec![f64::NEG_INFINITY; n_dirs];
        for row in data.chunks_exact(dim) {
            let p = pca.project(row);
            for (j, &v) in p.iter().enumerate() {
                lo[j] = lo[j].min(v);
                hi[j] = hi[j].max(v);
            }
        }

        // Enumerate candidate eigenfunctions: modes 1..=m per direction is
        // always enough to pick the smallest m overall.
        let mut candidates: Vec<(f64, EigenFunction)> = Vec::with_capacity(n_dirs * m);
        for j in 0..n_dirs {
            let span = (hi[j] - lo[j]).max(1e-9);
            for k in 1..=m {
                let omega = k as f64 * std::f64::consts::PI / span;
                // Analytic eigenvalue ∝ ω²; ranking by ω is equivalent.
                candidates.push((
                    omega,
                    EigenFunction {
                        dir: j,
                        mode: k,
                        a: lo[j],
                        omega,
                    },
                ));
            }
        }
        candidates.sort_by(|x, y| {
            x.0.partial_cmp(&y.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| (x.1.dir, x.1.mode).cmp(&(y.1.dir, y.1.mode)))
        });
        let functions: Vec<EigenFunction> =
            candidates.into_iter().take(m).map(|(_, f)| f).collect();
        debug_assert_eq!(functions.len(), m);
        Ok(SpectralHashing { pca, functions })
    }

    /// Pre-threshold responses `Φ_i(x)` for all `m` functions.
    pub fn responses(&self, x: &[f32]) -> Vec<f64> {
        let p = self.pca.project(x);
        self.functions.iter().map(|f| f.eval(p[f.dir])).collect()
    }

    /// How many distinct PCA directions are in use.
    pub fn directions_used(&self) -> usize {
        let mut dirs: Vec<usize> = self.functions.iter().map(|f| f.dir).collect();
        dirs.sort_unstable();
        dirs.dedup();
        dirs.len()
    }
}

impl HashModel for SpectralHashing {
    fn dim(&self) -> usize {
        self.pca.dim()
    }

    fn code_length(&self) -> usize {
        self.functions.len()
    }

    fn encode(&self, x: &[f32]) -> u64 {
        sign_code(&self.responses(x))
    }

    fn encode_query(&self, q: &[f32]) -> QueryEncoding {
        let r = self.responses(q);
        QueryEncoding {
            code: sign_code(&r),
            flip_costs: r.into_iter().map(f64::abs).collect(),
        }
    }

    // Non-linear: no hashing matrix, no Theorem-1 spectral norm.

    fn name(&self) -> &'static str {
        "SH"
    }

    fn snapshot(&self) -> Option<crate::persist::ModelSnapshot> {
        let mut w = gqr_linalg::wire::ByteWriter::new();
        w.put_pca(&self.pca);
        w.put_usize(self.functions.len());
        for f in &self.functions {
            w.put_usize(f.dir);
            w.put_usize(f.mode);
            w.put_f64(f.a);
            w.put_f64(f.omega);
        }
        Some(crate::persist::ModelSnapshot {
            kind: crate::persist::ModelKind::Sh,
            bytes: w.into_bytes(),
        })
    }
}

impl SpectralHashing {
    /// Decode a snapshot payload (see `crate::persist`).
    pub(crate) fn wire_read(
        r: &mut gqr_linalg::wire::ByteReader<'_>,
    ) -> Result<SpectralHashing, gqr_linalg::wire::WireError> {
        use gqr_linalg::wire::WireError;
        let pca = r.get_pca()?;
        let n = r.get_usize()?;
        if n == 0 || n > crate::MAX_NARROW_CODE_LENGTH {
            return Err(WireError::Malformed("SH function count out of range"));
        }
        let mut functions = Vec::with_capacity(n);
        for _ in 0..n {
            let f = EigenFunction {
                dir: r.get_usize()?,
                mode: r.get_usize()?,
                a: r.get_f64()?,
                omega: r.get_f64()?,
            };
            if f.dir >= pca.k() {
                return Err(WireError::Malformed(
                    "SH eigenfunction direction out of range",
                ));
            }
            functions.push(f);
        }
        Ok(SpectralHashing { pca, functions })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Anisotropic data: dim 0 spans [-8, 8], dim 1 spans [-1, 1].
    fn aniso(n: usize) -> Vec<f32> {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let mut data = Vec::with_capacity(n * 2);
        for _ in 0..n {
            data.push(rng.gen_range(-8.0f32..8.0));
            data.push(rng.gen_range(-1.0f32..1.0));
        }
        data
    }

    #[test]
    fn low_modes_on_long_direction_first() {
        // With m = 3 on strongly anisotropic data, the long direction gets
        // multiple modes before the short direction gets any: eigenvalues
        // scale with (k/span)².
        let data = aniso(600);
        let sh = SpectralHashing::train(&data, 2, 3).unwrap();
        let dir0 = sh.functions.iter().filter(|f| f.dir == 0).count();
        assert!(dir0 >= 2, "long direction should dominate, got {dir0} of 3");
    }

    #[test]
    fn mode_one_splits_range_in_half() {
        // Mode 1: Φ = sin(π/2 + π·t/span), positive for t < span/2, negative
        // after — the bit is a midpoint threshold.
        let data = aniso(600);
        let sh = SpectralHashing::train(&data, 2, 1).unwrap();
        let left = sh.encode(&[-7.0, 0.0]);
        let right = sh.encode(&[7.0, 0.0]);
        assert_ne!(left & 1, right & 1);
    }

    #[test]
    fn responses_bounded_by_one() {
        let data = aniso(300);
        let sh = SpectralHashing::train(&data, 2, 4).unwrap();
        for row in data.chunks_exact(2).take(50) {
            for r in sh.responses(row) {
                assert!(r.abs() <= 1.0 + 1e-12);
            }
        }
        let qe = sh.encode_query(&data[..2]);
        assert!(qe
            .flip_costs
            .iter()
            .all(|&c| (0.0..=1.0 + 1e-12).contains(&c)));
    }

    #[test]
    fn code_length_can_exceed_dim() {
        // Unlike PCAH/ITQ, SH reuses directions with higher modes.
        let data = aniso(300);
        let sh = SpectralHashing::train(&data, 2, 6).unwrap();
        assert_eq!(sh.code_length(), 6);
        assert!(sh.directions_used() <= 2);
    }

    #[test]
    fn higher_modes_oscillate_faster() {
        // With 2 bits on 1-D-ish data, bit 0 is mode 1 and bit 1 is mode 2;
        // crossing a quarter of the range must flip the mode-2 bit while the
        // mode-1 bit may persist.
        let data = aniso(600);
        let sh = SpectralHashing::train(&data, 2, 2).unwrap();
        let c1 = sh.encode(&[-7.0, 0.0]);
        let c2 = sh.encode(&[-2.0, 0.0]);
        assert_ne!(c1, c2, "moving a quarter span must change some bit");
    }

    #[test]
    fn no_spectral_norm_for_nonlinear_model() {
        let data = aniso(100);
        let sh = SpectralHashing::train(&data, 2, 2).unwrap();
        assert!(sh.spectral_norm().is_none());
    }
}
