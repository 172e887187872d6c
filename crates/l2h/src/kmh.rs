//! K-means hashing (He, Wen & Sun, CVPR 2013), simplified.
//!
//! KMH quantizes each subspace with k-means codewords *indexed by binary
//! codes*, chosen so that codeword distances track the Hamming distances of
//! their indices (affinity preservation). Unlike the sign-threshold models
//! there is no projected vector; the paper's appendix defines the flipping
//! cost of bit `i` as `dist(q, c_{q'}) − dist(q, c_q)` where `c_{q'}` is the
//! codeword whose index differs from the query's codeword only in bit `i`.
//! Because `c_q` is the *nearest* codeword, this cost is non-negative, so
//! GQR runs on it unchanged (Fig 20 of the paper).
//!
//! Simplification vs. the original: we train plain k-means per subspace and
//! then optimize the code↔codeword assignment by local search on the
//! affinity objective, instead of jointly refining codeword positions. The
//! mechanism GQR consumes — per-bit codeword-distance flipping costs — is
//! identical; DESIGN.md records the substitution.

use crate::{check_training_input, HashModel, QueryEncoding, TrainError};
use gqr_linalg::vecops::sq_dist_f32;
use gqr_vq::kmeans::{kmeans, KMeansOptions};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Training options for [`KmeansHashing::train_with`].
#[derive(Clone, Debug)]
pub struct KmhOptions {
    /// Bits per subspace (`b`); each subspace trains `2^b` codewords.
    pub bits_per_subspace: usize,
    /// k-means settings per subspace.
    pub kmeans: KMeansOptions,
    /// Local-search steps for the affinity-preserving index assignment.
    pub assignment_steps: usize,
    /// Joint codeword-refinement iterations (the original KMH's
    /// affinity-preserving update); `0` keeps the plain k-means codewords.
    pub refine_iters: usize,
    /// Weight `λ` of the affinity term in the codeword update.
    pub lambda: f64,
    /// Seed for the assignment local search.
    pub seed: u64,
}

impl Default for KmhOptions {
    fn default() -> Self {
        KmhOptions {
            bits_per_subspace: 4,
            kmeans: KMeansOptions::default(),
            assignment_steps: 400,
            refine_iters: 10,
            lambda: 1.0,
            seed: 0,
        }
    }
}

/// One subspace: a contiguous dimension range and `2^bits` codewords stored
/// *by code* (codeword of code `c` is row `c`).
#[derive(Clone, Debug)]
struct Subspace {
    lo: usize,
    hi: usize,
    bits: usize,
    /// Row-major `2^bits × (hi-lo)`, row index == binary code.
    codewords: Vec<f32>,
}

impl Subspace {
    #[inline]
    fn sub_dim(&self) -> usize {
        self.hi - self.lo
    }

    /// Nearest codeword and all squared distances for a query subvector.
    fn distances(&self, q_sub: &[f32]) -> Vec<f32> {
        self.codewords
            .chunks_exact(self.sub_dim())
            .map(|cw| sq_dist_f32(q_sub, cw))
            .collect()
    }

    fn nearest(&self, q_sub: &[f32]) -> usize {
        let mut best = (0usize, f32::INFINITY);
        for (c, cw) in self.codewords.chunks_exact(self.sub_dim()).enumerate() {
            let d = sq_dist_f32(q_sub, cw);
            if d < best.1 {
                best = (c, d);
            }
        }
        best.0
    }
}

/// A trained K-means-hashing model.
#[derive(Clone, Debug)]
pub struct KmeansHashing {
    dim: usize,
    m: usize,
    subspaces: Vec<Subspace>,
    affinity_error: f64,
}

impl KmeansHashing {
    /// Train with default options.
    pub fn train(data: &[f32], dim: usize, m: usize) -> Result<KmeansHashing, TrainError> {
        Self::train_with(data, dim, m, &KmhOptions::default())
    }

    /// Train with explicit options. The code length `m` is split into
    /// subspaces of `bits_per_subspace` bits (the last subspace takes the
    /// remainder); dimensions are split evenly across subspaces.
    pub fn train_with(
        data: &[f32],
        dim: usize,
        m: usize,
        opts: &KmhOptions,
    ) -> Result<KmeansHashing, TrainError> {
        let b = opts.bits_per_subspace.clamp(1, 8);
        let n_sub = m.div_ceil(b);
        if n_sub > dim {
            return Err(TrainError::BadCodeLength {
                requested: m,
                max: dim * b,
            });
        }
        let min_rows = 1usize << b;
        let n = check_training_input(data, dim, m, crate::MAX_NARROW_CODE_LENGTH, min_rows)?;

        // Even dimension split.
        let base = dim / n_sub;
        let extra = dim % n_sub;
        let mut bounds = vec![0usize];
        for s in 0..n_sub {
            bounds.push(bounds[s] + base + usize::from(s < extra));
        }

        let mut rng = ChaCha8Rng::seed_from_u64(opts.seed ^ 0x006b_6d68);
        let mut subspaces = Vec::with_capacity(n_sub);
        let mut total_affinity = 0.0f64;
        let mut sub_buf = Vec::new();
        for s in 0..n_sub {
            let (lo, hi) = (bounds[s], bounds[s + 1]);
            let sub_dim = hi - lo;
            let bits = if s + 1 == n_sub {
                m - b * (n_sub - 1)
            } else {
                b
            };
            let k = 1usize << bits;

            sub_buf.clear();
            sub_buf.reserve(n * sub_dim);
            for row in data.chunks_exact(dim) {
                sub_buf.extend_from_slice(&row[lo..hi]);
            }
            let mut km_opts = opts.kmeans.clone();
            km_opts.seed = km_opts.seed.wrapping_add(s as u64 * 977);
            let km = kmeans(&sub_buf, sub_dim, k.min(n), &km_opts);

            // If n < k we pad by duplicating the last centroid (degenerate
            // but well-defined); normal configurations never hit this.
            let mut cents = km.centroids.clone();
            while cents.len() < k * sub_dim {
                let last = cents.len() - sub_dim;
                let dup = cents[last..].to_vec();
                cents.extend_from_slice(&dup);
            }

            let (perm, err) =
                optimize_assignment(&cents, sub_dim, bits, opts.assignment_steps, &mut rng);
            total_affinity += err;

            // Store codewords indexed by code: codeword(code) = centroid i
            // with perm[i] == code.
            let mut codewords = vec![0.0f32; k * sub_dim];
            for (i, &code) in perm.iter().enumerate() {
                codewords[code * sub_dim..(code + 1) * sub_dim]
                    .copy_from_slice(&cents[i * sub_dim..(i + 1) * sub_dim]);
            }
            if opts.refine_iters > 0 && k > 1 {
                refine_codewords(
                    &mut codewords,
                    sub_dim,
                    bits,
                    &sub_buf,
                    opts.refine_iters,
                    opts.lambda,
                );
            }
            subspaces.push(Subspace {
                lo,
                hi,
                bits,
                codewords,
            });
        }
        Ok(KmeansHashing {
            dim,
            m,
            subspaces,
            affinity_error: total_affinity,
        })
    }

    /// Total affinity error after index assignment (training diagnostic).
    pub fn affinity_error(&self) -> f64 {
        self.affinity_error
    }

    /// Number of subspaces.
    pub fn n_subspaces(&self) -> usize {
        self.subspaces.len()
    }
}

/// Affinity objective for one assignment: Σ_{i<j} (d(cᵢ,cⱼ) − s·h(πᵢ,πⱼ))²
/// with the scale `s` fitted in closed form. Returns the error.
fn affinity_error(dists: &[f64], perm: &[usize], k: usize) -> f64 {
    // Fit s = Σ d·h / Σ h².
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for i in 0..k {
        for j in (i + 1)..k {
            let h = ((perm[i] ^ perm[j]).count_ones()) as f64;
            let d = dists[i * k + j];
            num += d * h;
            den += h * h;
        }
    }
    let s = if den > 0.0 { (num / den).max(0.0) } else { 0.0 };
    let mut err = 0.0f64;
    for i in 0..k {
        for j in (i + 1)..k {
            let h = ((perm[i] ^ perm[j]).count_ones()) as f64;
            let d = dists[i * k + j];
            err += (d - s * h) * (d - s * h);
        }
    }
    err
}

/// Local-search assignment of binary codes to centroids: start from the
/// identity, try random swaps, keep improvements. Returns (perm, error)
/// where `perm[i]` is the code of centroid `i`.
fn optimize_assignment(
    centroids: &[f32],
    sub_dim: usize,
    bits: usize,
    steps: usize,
    rng: &mut ChaCha8Rng,
) -> (Vec<usize>, f64) {
    let k = 1usize << bits;
    // Pairwise codeword *Euclidean* distances (the original paper matches
    // Euclidean distance against Hamming distance).
    let mut dists = vec![0.0f64; k * k];
    for i in 0..k {
        for j in (i + 1)..k {
            let d = sq_dist_f32(
                &centroids[i * sub_dim..(i + 1) * sub_dim],
                &centroids[j * sub_dim..(j + 1) * sub_dim],
            )
            .sqrt() as f64;
            dists[i * k + j] = d;
            dists[j * k + i] = d;
        }
    }

    let mut perm: Vec<usize> = (0..k).collect();
    let mut best = affinity_error(&dists, &perm, k);
    if k <= 2 {
        return (perm, best);
    }
    for _ in 0..steps {
        let a = rng.gen_range(0..k);
        let mut b = rng.gen_range(0..k);
        if a == b {
            b = (b + 1) % k;
        }
        perm.swap(a, b);
        let err = affinity_error(&dists, &perm, k);
        if err < best {
            best = err;
        } else {
            perm.swap(a, b);
        }
    }
    (perm, best)
}

/// The original KMH's joint optimization (He et al. §3.2, simplified): pull
/// each codeword toward (a) the mean of its assigned points (quantization
/// term) and (b) per-peer target positions at Euclidean distance `s·√h`
/// along the current inter-codeword directions (affinity term), where `h`
/// is the Hamming distance of the codewords' indices and `s` is refitted
/// each round. Codeword *indices* stay fixed, so the binary codes of
/// indexed items only change through reassignment to the moved codewords.
fn refine_codewords(
    codewords: &mut [f32],
    sub_dim: usize,
    bits: usize,
    points: &[f32],
    iters: usize,
    lambda: f64,
) {
    let k = 1usize << bits;
    let n = points.len() / sub_dim;
    if n == 0 {
        return;
    }
    let mut counts = vec![0usize; k];
    let mut sums = vec![0.0f64; k * sub_dim];

    for _ in 0..iters {
        // Assignment + per-cell sums.
        counts.iter_mut().for_each(|c| *c = 0);
        sums.iter_mut().for_each(|s| *s = 0.0);
        for row in points.chunks_exact(sub_dim) {
            let (mut best, mut best_d) = (0usize, f32::INFINITY);
            for (c, cw) in codewords.chunks_exact(sub_dim).enumerate() {
                let d = sq_dist_f32(row, cw);
                if d < best_d {
                    best = c;
                    best_d = d;
                }
            }
            counts[best] += 1;
            for (acc, &x) in sums[best * sub_dim..(best + 1) * sub_dim]
                .iter_mut()
                .zip(row)
            {
                *acc += x as f64;
            }
        }

        // Refit the hypercube scale s: min Σ wᵢⱼ (dᵢⱼ − s·√hᵢⱼ)².
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for i in 0..k {
            for j in (i + 1)..k {
                let d = (sq_dist_f32(
                    &codewords[i * sub_dim..(i + 1) * sub_dim],
                    &codewords[j * sub_dim..(j + 1) * sub_dim],
                ) as f64)
                    .sqrt();
                let rh = (((i ^ j).count_ones()) as f64).sqrt();
                let w = (counts[i] * counts[j]) as f64 + 1.0;
                num += w * d * rh;
                den += w * rh * rh;
            }
        }
        let s = if den > 0.0 {
            (num / den).max(1e-12)
        } else {
            1.0
        };

        // Codeword update: data mean + λ-weighted affinity targets.
        let mean_count = (n as f64 / k as f64).max(1.0);
        let snapshot = codewords.to_vec();
        for j in 0..k {
            let mut acc: Vec<f64> = sums[j * sub_dim..(j + 1) * sub_dim].to_vec();
            let mut weight = counts[j] as f64;
            let cj = &snapshot[j * sub_dim..(j + 1) * sub_dim];
            for i in 0..k {
                if i == j {
                    continue;
                }
                let ci = &snapshot[i * sub_dim..(i + 1) * sub_dim];
                let d = (sq_dist_f32(ci, cj) as f64).sqrt();
                if d <= 1e-12 {
                    continue;
                }
                let target = s * (((i ^ j).count_ones()) as f64).sqrt();
                // Pull strength scales with both cells' population.
                let w = lambda * ((counts[i] * counts[j]) as f64 + 1.0) / (mean_count * mean_count)
                    * mean_count
                    / k as f64;
                let ratio = target / d;
                for ((a, &cjv), &civ) in acc.iter_mut().zip(cj).zip(ci) {
                    let hat = civ as f64 + (cjv as f64 - civ as f64) * ratio;
                    *a += w * hat;
                }
                weight += w;
            }
            if weight > 0.0 {
                for (out, a) in codewords[j * sub_dim..(j + 1) * sub_dim]
                    .iter_mut()
                    .zip(&acc)
                {
                    *out = (a / weight) as f32;
                }
            }
        }
    }
}

impl HashModel for KmeansHashing {
    fn dim(&self) -> usize {
        self.dim
    }

    fn code_length(&self) -> usize {
        self.m
    }

    fn encode(&self, x: &[f32]) -> u64 {
        assert_eq!(x.len(), self.dim, "input dimensionality mismatch");
        let mut code = 0u64;
        let mut shift = 0;
        for s in &self.subspaces {
            let c = s.nearest(&x[s.lo..s.hi]);
            code |= (c as u64) << shift;
            shift += s.bits;
        }
        code
    }

    fn encode_query(&self, q: &[f32]) -> QueryEncoding {
        assert_eq!(q.len(), self.dim, "query dimensionality mismatch");
        let mut code = 0u64;
        let mut flip_costs = Vec::with_capacity(self.m);
        let mut shift = 0;
        for s in &self.subspaces {
            let d = s.distances(&q[s.lo..s.hi]);
            let (mut best, mut best_d) = (0usize, f32::INFINITY);
            for (c, &dc) in d.iter().enumerate() {
                if dc < best_d {
                    best = c;
                    best_d = dc;
                }
            }
            code |= (best as u64) << shift;
            // Per-bit cost: distance increase when only that bit flips.
            // Compare √distances so costs add like the L1 QD of the linear
            // models; clamp for safety against float noise.
            let base = (best_d as f64).sqrt();
            for t in 0..s.bits {
                let alt = best ^ (1 << t);
                let cost = (d[alt] as f64).sqrt() - base;
                flip_costs.push(cost.max(0.0));
            }
            shift += s.bits;
        }
        QueryEncoding { code, flip_costs }
    }

    fn name(&self) -> &'static str {
        "KMH"
    }

    fn snapshot(&self) -> Option<crate::persist::ModelSnapshot> {
        let mut w = gqr_linalg::wire::ByteWriter::new();
        w.put_usize(self.dim);
        w.put_usize(self.m);
        w.put_f64(self.affinity_error);
        w.put_usize(self.subspaces.len());
        for s in &self.subspaces {
            w.put_usize(s.lo);
            w.put_usize(s.hi);
            w.put_usize(s.bits);
            w.put_f32_slice(&s.codewords);
        }
        Some(crate::persist::ModelSnapshot {
            kind: crate::persist::ModelKind::Kmh,
            bytes: w.into_bytes(),
        })
    }
}

impl KmeansHashing {
    /// Decode a snapshot payload (see `crate::persist`).
    pub(crate) fn wire_read(
        r: &mut gqr_linalg::wire::ByteReader<'_>,
    ) -> Result<KmeansHashing, gqr_linalg::wire::WireError> {
        use gqr_linalg::wire::WireError;
        let dim = r.get_usize()?;
        let m = r.get_usize()?;
        let affinity_error = r.get_f64()?;
        if m == 0 || m > crate::MAX_NARROW_CODE_LENGTH {
            return Err(WireError::Malformed("KMH code length out of range"));
        }
        let n_sub = r.get_usize()?;
        if n_sub == 0 || n_sub > dim {
            return Err(WireError::Malformed("KMH subspace count out of range"));
        }
        let mut subspaces = Vec::with_capacity(n_sub);
        for _ in 0..n_sub {
            let lo = r.get_usize()?;
            let hi = r.get_usize()?;
            let bits = r.get_usize()?;
            let codewords = r.get_f32_vec()?;
            if lo >= hi || hi > dim || bits == 0 || bits > 8 {
                return Err(WireError::Malformed("KMH subspace shape out of range"));
            }
            if codewords.len() != (1usize << bits) * (hi - lo) {
                return Err(WireError::Malformed("KMH codeword buffer size mismatch"));
            }
            subspaces.push(Subspace {
                lo,
                hi,
                bits,
                codewords,
            });
        }
        Ok(KmeansHashing {
            dim,
            m,
            subspaces,
            affinity_error,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four tight blobs on a line: ideal for 2-bit KMH on one subspace.
    fn line_blobs() -> Vec<f32> {
        let mut data = Vec::new();
        for i in 0..200 {
            let c = (i % 4) as f32 * 10.0;
            let j = (i / 4) as f32 * 0.001;
            data.extend_from_slice(&[c + j, -c - j]);
        }
        data
    }

    fn opts(b: usize) -> KmhOptions {
        KmhOptions {
            bits_per_subspace: b,
            kmeans: KMeansOptions {
                seed: 13,
                ..Default::default()
            },
            assignment_steps: 400,
            seed: 13,
            ..Default::default()
        }
    }

    #[test]
    fn four_blobs_get_four_codes() {
        let data = line_blobs();
        let kmh = KmeansHashing::train_with(&data, 2, 2, &opts(2)).unwrap();
        let codes: std::collections::HashSet<u64> =
            data.chunks_exact(2).map(|r| kmh.encode(r)).collect();
        assert_eq!(codes.len(), 4);
    }

    #[test]
    fn adjacent_blobs_have_closer_codes_than_distant_ones() {
        // Affinity preservation: Hamming(code(blob0), code(blob1)) should not
        // exceed Hamming(code(blob0), code(blob3)).
        let data = line_blobs();
        let kmh = KmeansHashing::train_with(&data, 2, 2, &opts(2)).unwrap();
        let c: Vec<u64> = (0..4)
            .map(|i| kmh.encode(&[i as f32 * 10.0, -(i as f32) * 10.0]))
            .collect();
        let h = |a: u64, b: u64| (a ^ b).count_ones();
        assert!(h(c[0], c[1]) <= h(c[0], c[3]), "affinity violated: {:?}", c);
    }

    #[test]
    fn query_flip_costs_nonnegative_and_sized() {
        let data = line_blobs();
        let kmh = KmeansHashing::train_with(&data, 2, 2, &opts(2)).unwrap();
        let qe = kmh.encode_query(&[5.0, -5.0]);
        assert_eq!(qe.flip_costs.len(), 2);
        assert!(qe.flip_costs.iter().all(|&c| c >= 0.0));
    }

    #[test]
    fn flip_cost_reflects_codeword_geometry() {
        // Query on top of blob 0: flipping to the adjacent blob's code must
        // cost less than flipping to a distant blob's code... at minimum, the
        // query's own code has zero-distance base and all flips cost > 0.
        let data = line_blobs();
        let kmh = KmeansHashing::train_with(&data, 2, 2, &opts(2)).unwrap();
        let qe = kmh.encode_query(&[0.0, 0.0]);
        assert!(
            qe.flip_costs.iter().all(|&c| c > 0.0),
            "all flips leave the nearest codeword"
        );
    }

    #[test]
    fn multi_subspace_split() {
        let mut data = Vec::new();
        for i in 0..300 {
            data.extend_from_slice(&[
                (i % 4) as f32 * 5.0,
                ((i / 4) % 4) as f32 * 5.0,
                (i % 3) as f32,
                (i % 5) as f32,
            ]);
        }
        let kmh = KmeansHashing::train_with(&data, 4, 4, &opts(2)).unwrap();
        assert_eq!(kmh.n_subspaces(), 2);
        assert_eq!(kmh.code_length(), 4);
        let qe = kmh.encode_query(&data[..4]);
        assert_eq!(qe.flip_costs.len(), 4);
    }

    #[test]
    fn refinement_changes_codewords_but_keeps_the_contract() {
        let data = line_blobs();
        let plain = KmeansHashing::train_with(
            &data,
            2,
            2,
            &KmhOptions {
                refine_iters: 0,
                ..opts(2)
            },
        )
        .unwrap();
        let refined = KmeansHashing::train_with(
            &data,
            2,
            2,
            &KmhOptions {
                refine_iters: 10,
                lambda: 1.0,
                ..opts(2)
            },
        )
        .unwrap();
        // The affinity pull must actually move codewords: some item changes
        // bucket or the query costs differ.
        let differs = data.chunks_exact(2).take(50).any(|row| {
            plain.encode(row) != refined.encode(row)
                || plain.encode_query(row).flip_costs != refined.encode_query(row).flip_costs
        });
        assert!(differs, "refinement must have an effect");
        // Contract still holds.
        for row in data.chunks_exact(2).take(20) {
            let qe = refined.encode_query(row);
            assert_eq!(qe.code, refined.encode(row));
            assert!(qe.flip_costs.iter().all(|&c| c >= 0.0 && c.is_finite()));
        }
    }

    #[test]
    fn rejects_more_subspaces_than_dims() {
        let data = line_blobs();
        // m=8, b=1 → 8 subspaces > 2 dims.
        assert!(matches!(
            KmeansHashing::train_with(&data, 2, 8, &opts(1)),
            Err(TrainError::BadCodeLength { .. })
        ));
    }

    #[test]
    fn encode_matches_nearest_codeword_semantics() {
        let data = line_blobs();
        let kmh = KmeansHashing::train_with(&data, 2, 2, &opts(2)).unwrap();
        // encode_query's code must equal encode's code.
        for row in data.chunks_exact(2).take(20) {
            assert_eq!(kmh.encode(row), kmh.encode_query(row).code);
        }
    }
}
