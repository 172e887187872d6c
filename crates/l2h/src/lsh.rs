//! Sign random projections — the data-independent LSH baseline.

use crate::{check_training_input, HashModel, LinearHasher, QueryEncoding, TrainError};
use gqr_linalg::qr::gaussian;
use gqr_linalg::vecops::mean_rows;
use gqr_linalg::Matrix;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Sign-random-projection hashing: `m` iid Gaussian hyperplanes through the
/// data mean.
///
/// Unlike the learned models this ignores the data distribution (beyond
/// mean-centering, which keeps buckets balanced); it is the baseline L2H is
/// compared against in the paper's introduction.
#[derive(Clone, Debug)]
pub struct Lsh {
    hasher: LinearHasher,
}

impl Lsh {
    /// Draw `m` Gaussian hyperplanes seeded by `seed`, centered on the mean
    /// of `data` (pass an empty slice to skip centering).
    pub fn train(data: &[f32], dim: usize, m: usize, seed: u64) -> Result<Lsh, TrainError> {
        if !data.is_empty() {
            check_training_input(data, dim, m, crate::MAX_CODE_LENGTH, 1)?;
        } else if m == 0 || m > crate::MAX_CODE_LENGTH {
            return Err(TrainError::BadCodeLength {
                requested: m,
                max: crate::MAX_CODE_LENGTH,
            });
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x15_4a5d);
        let mut w = Matrix::zeros(m, dim);
        for r in 0..m {
            for c in 0..dim {
                w[(r, c)] = gaussian(&mut rng);
            }
        }
        let mean = if data.is_empty() {
            vec![0.0; dim]
        } else {
            mean_rows(data, dim)
        };
        let bias: Vec<f64> = (0..m)
            .map(|r| {
                -w.row(r)
                    .iter()
                    .zip(&mean)
                    .map(|(wi, mi)| wi * mi)
                    .sum::<f64>()
            })
            .collect();
        Ok(Lsh {
            hasher: LinearHasher::new(w, bias),
        })
    }

    /// The underlying linear hasher.
    pub fn hasher(&self) -> &LinearHasher {
        &self.hasher
    }
}

impl HashModel for Lsh {
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
        "LSH"
    }

    fn snapshot(&self) -> Option<crate::persist::ModelSnapshot> {
        let mut w = gqr_linalg::wire::ByteWriter::new();
        crate::persist::write_hasher(&mut w, &self.hasher);
        Some(crate::persist::ModelSnapshot {
            kind: crate::persist::ModelKind::Lsh,
            bytes: w.into_bytes(),
        })
    }
}

impl Lsh {
    /// Decode a snapshot payload (see `crate::persist`).
    pub(crate) fn wire_read(
        r: &mut gqr_linalg::wire::ByteReader<'_>,
    ) -> Result<Lsh, gqr_linalg::wire::WireError> {
        Ok(Lsh {
            hasher: crate::persist::read_hasher(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_data(n: usize, dim: usize) -> Vec<f32> {
        let mut data = Vec::with_capacity(n * dim);
        for i in 0..n {
            for d in 0..dim {
                data.push(((i * (d + 2) * 7919) % 199) as f32 / 100.0 - 1.0 + 5.0);
            }
        }
        data
    }

    #[test]
    fn deterministic_per_seed() {
        let data = ring_data(100, 4);
        let a = Lsh::train(&data, 4, 8, 3).unwrap();
        let b = Lsh::train(&data, 4, 8, 3).unwrap();
        let c = Lsh::train(&data, 4, 8, 4).unwrap();
        let x = &data[..4];
        assert_eq!(a.encode(x), b.encode(x));
        // Different seeds give different hyperplanes (almost surely different
        // codes somewhere).
        let differs = data
            .chunks_exact(4)
            .any(|row| a.encode(row) != c.encode(row));
        assert!(differs);
    }

    #[test]
    fn mean_centering_balances_bits() {
        // Data offset far from the origin: without centering every sign bit
        // would be constant; with centering each bit must split the data.
        let data = ring_data(500, 4);
        let lsh = Lsh::train(&data, 4, 6, 1).unwrap();
        for bit in 0..6 {
            let ones = data
                .chunks_exact(4)
                .filter(|row| lsh.encode(row) & (1 << bit) != 0)
                .count();
            assert!(ones > 50 && ones < 450, "bit {bit} unbalanced: {ones}/500");
        }
    }

    #[test]
    fn similar_items_share_more_bits_than_distant_ones() {
        // LSH is probabilistic: any single draw of hyperplanes can order one
        // (near, far) pair wrong. Aggregate over several seeds so the test
        // asserts the *property* (closer points collide more) rather than
        // the luck of one draw — this also keeps it robust under simplified
        // RNG implementations in offline CI images.
        let data = ring_data(10, 8);
        let a = [1.0f32; 8];
        let mut near = [1.0f32; 8];
        near[0] = 1.05;
        let far: [f32; 8] = [-1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0];
        let ham = |x: u64, y: u64| (x ^ y).count_ones();
        let (mut near_total, mut far_total) = (0u32, 0u32);
        for seed in 1..=9 {
            let lsh = Lsh::train(&data, 8, 32, seed).unwrap();
            near_total += ham(lsh.encode(&a), lsh.encode(&near));
            far_total += ham(lsh.encode(&a), lsh.encode(&far));
        }
        assert!(
            near_total < far_total,
            "near point must share more bits on aggregate: near {near_total}, far {far_total}"
        );
    }

    #[test]
    fn rejects_bad_code_length() {
        let data = ring_data(10, 4);
        assert!(matches!(
            Lsh::train(&data, 4, 0, 1),
            Err(TrainError::BadCodeLength { .. })
        ));
        assert!(matches!(
            Lsh::train(&data, 4, 257, 1),
            Err(TrainError::BadCodeLength { .. })
        ));
        // 65 sat beyond the old u64 ceiling; wide code words made it legal.
        assert!(Lsh::train(&data, 4, 65, 1).is_ok());
    }

    #[test]
    fn trains_without_data() {
        let lsh = Lsh::train(&[], 4, 8, 1).unwrap();
        assert_eq!(lsh.code_length(), 8);
        assert_eq!(lsh.dim(), 4);
    }
}
