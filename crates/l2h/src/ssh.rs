//! Semi-supervised hashing (SSH, Wang, Kumar & Chang, CVPR 2010).
//!
//! The paper lists SSH among the L2H algorithms its querying method is
//! compatible with (§1, §7); this implementation is the relaxed
//! eigen-solution: hash directions are the top eigenvectors of the
//! *adjusted covariance*
//!
//! `M = X_l·S·X_lᵀ + η·Cov(X)`
//!
//! where `S` encodes pairwise supervision (+1 must-link, −1 cannot-link)
//! over the labeled subset and `η` weights the unsupervised variance
//! regularizer. The result is a linear sign-threshold model, so QD ranking
//! applies unchanged.

use crate::{check_training_input, HashModel, LinearHasher, QueryEncoding, TrainError};
use gqr_linalg::vecops::mean_rows;
use gqr_linalg::{symmetric_eigen, Matrix};

/// A pairwise supervision constraint between two item ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pair {
    /// First item id.
    pub a: u32,
    /// Second item id.
    pub b: u32,
    /// `true` = must-link (semantically similar), `false` = cannot-link.
    pub similar: bool,
}

impl Pair {
    /// Must-link pair.
    pub fn similar(a: u32, b: u32) -> Pair {
        Pair {
            a,
            b,
            similar: true,
        }
    }

    /// Cannot-link pair.
    pub fn dissimilar(a: u32, b: u32) -> Pair {
        Pair {
            a,
            b,
            similar: false,
        }
    }
}

/// Options for [`Ssh::train_with`].
#[derive(Clone, Debug)]
pub struct SshOptions {
    /// Weight of the unsupervised variance term (`η`); larger values pull
    /// the solution toward plain PCAH.
    pub eta: f64,
}

impl Default for SshOptions {
    fn default() -> Self {
        SshOptions { eta: 1.0 }
    }
}

/// A trained semi-supervised hashing model (linear, sign-threshold).
#[derive(Clone, Debug)]
pub struct Ssh {
    hasher: LinearHasher,
}

impl Ssh {
    /// Train with default options.
    pub fn train(data: &[f32], dim: usize, m: usize, pairs: &[Pair]) -> Result<Ssh, TrainError> {
        Self::train_with(data, dim, m, pairs, &SshOptions::default())
    }

    /// Train on row-major data with pairwise supervision.
    ///
    /// Pair ids must index rows of `data`. With an empty pair set the model
    /// degenerates to PCAH (pure variance maximization), which is also the
    /// correct limit of the objective.
    pub fn train_with(
        data: &[f32],
        dim: usize,
        m: usize,
        pairs: &[Pair],
        opts: &SshOptions,
    ) -> Result<Ssh, TrainError> {
        let n = check_training_input(data, dim, m, dim, 2)?;
        for p in pairs {
            if p.a as usize >= n || p.b as usize >= n {
                return Err(TrainError::NotEnoughData {
                    needed: p.a.max(p.b) as usize + 1,
                    got: n,
                });
            }
        }
        let mean = mean_rows(data, dim);
        let centered = |id: u32| -> Vec<f64> {
            data[id as usize * dim..(id as usize + 1) * dim]
                .iter()
                .zip(&mean)
                .map(|(&x, mu)| x as f64 - mu)
                .collect()
        };

        // Supervised term: Σ s_ij·(x_i x_jᵀ + x_j x_iᵀ)/2, mean-centered.
        // Must-link and cannot-link sums are normalized *separately* so an
        // imbalanced pair set (e.g. many more must-links) cannot drown out
        // the other side — the balanced variant of SSH's objective.
        let mut must = Matrix::zeros(dim, dim);
        let mut cannot = Matrix::zeros(dim, dim);
        let (mut n_must, mut n_cannot) = (0usize, 0usize);
        for p in pairs {
            let xi = centered(p.a);
            let xj = centered(p.b);
            let target = if p.similar {
                n_must += 1;
                &mut must
            } else {
                n_cannot += 1;
                &mut cannot
            };
            for r in 0..dim {
                let row = target.row_mut(r);
                let xir = xi[r];
                let xjr = xj[r];
                for (c, val) in row.iter_mut().enumerate() {
                    *val += 0.5 * (xir * xj[c] + xjr * xi[c]);
                }
            }
        }
        let mut adjusted = Matrix::zeros(dim, dim);
        if n_must > 0 {
            adjusted = &adjusted + &must.scale(1.0 / n_must as f64);
        }
        if n_cannot > 0 {
            adjusted = &adjusted - &cannot.scale(1.0 / n_cannot as f64);
        }

        // Unsupervised regularizer: η·Cov(X).
        let mut cov = Matrix::zeros(dim, dim);
        let mut c_buf = vec![0.0f64; dim];
        for row in data.chunks_exact(dim) {
            for ((c, &x), mu) in c_buf.iter_mut().zip(row).zip(&mean) {
                *c = x as f64 - mu;
            }
            for r in 0..dim {
                let cr = c_buf[r];
                if cr == 0.0 {
                    continue;
                }
                let out = cov.row_mut(r);
                for (o, &cc) in out.iter_mut().zip(&c_buf) {
                    *o += cr * cc;
                }
            }
        }
        cov = cov.scale(1.0 / (n as f64 - 1.0));
        let objective = &adjusted + &cov.scale(opts.eta);

        let eig = symmetric_eigen(&objective);
        let mut w = Matrix::zeros(m, dim);
        for r in 0..m {
            for c in 0..dim {
                w[(r, c)] = eig.vectors[(c, r)];
            }
        }
        let bias: Vec<f64> = (0..m)
            .map(|r| {
                -w.row(r)
                    .iter()
                    .zip(&mean)
                    .map(|(wi, mu)| wi * mu)
                    .sum::<f64>()
            })
            .collect();
        Ok(Ssh {
            hasher: LinearHasher::new(w, bias),
        })
    }

    /// The underlying linear hasher.
    pub fn hasher(&self) -> &LinearHasher {
        &self.hasher
    }

    /// Fraction of supervision pairs the codes respect: must-link pairs in
    /// the same bucket-half per bit, cannot-link pairs split. A training
    /// diagnostic in [0, 1].
    pub fn supervision_agreement(&self, data: &[f32], pairs: &[Pair]) -> f64 {
        if pairs.is_empty() {
            return 1.0;
        }
        let dim = self.dim();
        let m = self.code_length() as u32;
        let mut agree = 0.0f64;
        for p in pairs {
            let ca = self.encode(&data[p.a as usize * dim..(p.a as usize + 1) * dim]);
            let cb = self.encode(&data[p.b as usize * dim..(p.b as usize + 1) * dim]);
            let same_bits = m - (ca ^ cb).count_ones();
            let frac_same = same_bits as f64 / m as f64;
            agree += if p.similar {
                frac_same
            } else {
                1.0 - frac_same
            };
        }
        agree / pairs.len() as f64
    }
}

impl HashModel for Ssh {
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
        "SSH"
    }

    fn snapshot(&self) -> Option<crate::persist::ModelSnapshot> {
        let mut w = gqr_linalg::wire::ByteWriter::new();
        crate::persist::write_hasher(&mut w, &self.hasher);
        Some(crate::persist::ModelSnapshot {
            kind: crate::persist::ModelKind::Ssh,
            bytes: w.into_bytes(),
        })
    }
}

impl Ssh {
    /// Decode a snapshot payload (see `crate::persist`).
    pub(crate) fn wire_read(
        r: &mut gqr_linalg::wire::ByteReader<'_>,
    ) -> Result<Ssh, gqr_linalg::wire::WireError> {
        Ok(Ssh {
            hasher: crate::persist::read_hasher(r)?,
        })
    }
}

/// Build supervision pairs from class labels: sample `per_class` must-link
/// pairs within each class and as many cannot-link pairs across classes,
/// deterministically.
pub fn pairs_from_labels(labels: &[u32], per_class: usize) -> Vec<Pair> {
    use std::collections::HashMap;
    let mut by_class: HashMap<u32, Vec<u32>> = HashMap::new();
    for (i, &l) in labels.iter().enumerate() {
        by_class.entry(l).or_default().push(i as u32);
    }
    let mut classes: Vec<&Vec<u32>> = by_class.values().collect();
    classes.sort_by_key(|v| v[0]);

    let mut pairs = Vec::new();
    for members in &classes {
        for t in 0..per_class.min(members.len().saturating_sub(1)) {
            pairs.push(Pair::similar(members[t], members[t + 1]));
        }
    }
    for w in classes.windows(2) {
        for (&a, &b) in w[0].iter().zip(w[1].iter()).take(per_class) {
            pairs.push(Pair::dissimilar(a, b));
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two interleaved stripes that PCA cannot separate on its first
    /// direction, but supervision can: variance is dominated by the y-axis,
    /// labels split along x.
    fn striped() -> (Vec<f32>, Vec<u32>) {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..200 {
            let y = (i as f32 / 10.0) - 10.0; // big spread
            let x = if i % 2 == 0 { -1.0 } else { 1.0 }; // label signal
            data.extend_from_slice(&[x, y]);
            labels.push((i % 2) as u32);
        }
        (data, labels)
    }

    #[test]
    fn supervision_beats_pca_on_label_signal() {
        let (data, labels) = striped();
        let pairs = pairs_from_labels(&labels, 40);
        // Strong supervision, weak regularizer.
        let ssh = Ssh::train_with(&data, 2, 1, &pairs, &SshOptions { eta: 0.01 }).unwrap();
        let agree = ssh.supervision_agreement(&data, &pairs);
        assert!(
            agree > 0.9,
            "SSH should respect supervision, agreement {agree}"
        );

        // PCAH's first bit follows the y-spread and ignores the labels.
        let pcah = crate::pcah::Pcah::train(&data, 2, 1).unwrap();
        let mut pcah_agree = 0.0;
        for p in &pairs {
            let ca = pcah.encode(&data[p.a as usize * 2..p.a as usize * 2 + 2]);
            let cb = pcah.encode(&data[p.b as usize * 2..p.b as usize * 2 + 2]);
            let same = (ca ^ cb).count_ones() == 0;
            pcah_agree += f64::from(same == p.similar);
        }
        pcah_agree /= pairs.len() as f64;
        assert!(
            agree > pcah_agree,
            "SSH ({agree}) must beat PCAH ({pcah_agree}) on supervision"
        );
    }

    #[test]
    fn empty_pairs_degenerates_to_pca_direction() {
        let (data, _) = striped();
        let ssh = Ssh::train(&data, 2, 1, &[]).unwrap();
        let pcah = crate::pcah::Pcah::train(&data, 2, 1).unwrap();
        // Same first direction up to sign: encodings equal or fully flipped.
        let codes_ssh: Vec<u64> = data.chunks_exact(2).map(|r| ssh.encode(r)).collect();
        let codes_pcah: Vec<u64> = data.chunks_exact(2).map(|r| pcah.encode(r)).collect();
        let same = codes_ssh
            .iter()
            .zip(&codes_pcah)
            .filter(|(a, b)| a == b)
            .count();
        assert!(
            same == 0 || same == codes_ssh.len(),
            "{same} of {}",
            codes_ssh.len()
        );
    }

    #[test]
    fn rejects_out_of_range_pairs() {
        let (data, _) = striped();
        let bad = [Pair::similar(0, 9_999)];
        assert!(matches!(
            Ssh::train(&data, 2, 1, &bad),
            Err(TrainError::NotEnoughData { .. })
        ));
    }

    #[test]
    fn pairs_from_labels_generates_both_kinds() {
        let labels = [0u32, 0, 0, 1, 1, 1];
        let pairs = pairs_from_labels(&labels, 2);
        assert!(pairs.iter().any(|p| p.similar));
        assert!(pairs.iter().any(|p| !p.similar));
        for p in &pairs {
            if p.similar {
                assert_eq!(labels[p.a as usize], labels[p.b as usize]);
            } else {
                assert_ne!(labels[p.a as usize], labels[p.b as usize]);
            }
        }
    }

    #[test]
    fn works_with_gqr_query_encoding() {
        let (data, labels) = striped();
        let pairs = pairs_from_labels(&labels, 20);
        let ssh = Ssh::train(&data, 2, 2, &pairs).unwrap();
        let qe = ssh.encode_query(&[0.5, 1.0]);
        assert_eq!(qe.flip_costs.len(), 2);
        assert!(qe.flip_costs.iter().all(|&c| c >= 0.0));
        assert!(ssh.spectral_norm().is_some());
    }
}
