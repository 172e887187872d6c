//! Product quantization (Jégou et al., TPAMI 2011).

use crate::kmeans::{kmeans, nearest_centroid, KMeansOptions};

/// A trained product quantizer: `m` subspaces, each with its own `ks`-entry
/// codebook. An item is encoded as `m` centroid indices.
#[derive(Clone, Debug)]
pub struct ProductQuantizer {
    dim: usize,
    /// Number of subspaces.
    m: usize,
    /// Codebook size per subspace.
    ks: usize,
    /// Subspace boundaries: subspace `s` covers dims `bounds[s]..bounds[s+1]`.
    bounds: Vec<usize>,
    /// Per-subspace codebooks, each row-major `ks × sub_dim(s)`.
    codebooks: Vec<Vec<f32>>,
}

/// Training options for [`ProductQuantizer::train`].
#[derive(Clone, Debug)]
pub struct PqOptions {
    /// Codebook size per subspace (≤ 256 so codes fit in a byte).
    pub ks: usize,
    /// k-means settings used per subspace.
    pub kmeans: KMeansOptions,
}

impl Default for PqOptions {
    fn default() -> Self {
        PqOptions {
            ks: 256,
            kmeans: KMeansOptions::default(),
        }
    }
}

impl ProductQuantizer {
    /// Train a product quantizer with `m` subspaces on row-major data.
    ///
    /// Dimensions are split as evenly as possible (first `dim % m` subspaces
    /// get one extra). Panics if `m == 0`, `m > dim`, or `ks > n` or
    /// `ks > 256`.
    pub fn train(data: &[f32], dim: usize, m: usize, opts: &PqOptions) -> ProductQuantizer {
        assert!(
            dim > 0 && data.len().is_multiple_of(dim),
            "data must be n×dim"
        );
        let n = data.len() / dim;
        assert!(m > 0 && m <= dim, "need 0 < m <= dim");
        assert!(
            opts.ks > 0 && opts.ks <= 256,
            "codebook size must be in 1..=256"
        );
        assert!(opts.ks <= n, "need at least ks training rows");

        let bounds = split_bounds(dim, m);
        let mut codebooks = Vec::with_capacity(m);
        let mut sub_buf = Vec::new();
        for s in 0..m {
            let (lo, hi) = (bounds[s], bounds[s + 1]);
            let sub_dim = hi - lo;
            sub_buf.clear();
            sub_buf.reserve(n * sub_dim);
            for row in data.chunks_exact(dim) {
                sub_buf.extend_from_slice(&row[lo..hi]);
            }
            let mut km_opts = opts.kmeans.clone();
            km_opts.seed = km_opts.seed.wrapping_add(s as u64);
            let km = kmeans(&sub_buf, sub_dim, opts.ks, &km_opts);
            codebooks.push(km.centroids);
        }
        ProductQuantizer {
            dim,
            m,
            ks: opts.ks,
            bounds,
            codebooks,
        }
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of subspaces.
    pub fn n_subspaces(&self) -> usize {
        self.m
    }

    /// Codebook size per subspace.
    pub fn ks(&self) -> usize {
        self.ks
    }

    /// Sub-dimension range of subspace `s`.
    pub fn subspace_range(&self, s: usize) -> (usize, usize) {
        (self.bounds[s], self.bounds[s + 1])
    }

    /// Borrow the codebook of subspace `s` (row-major `ks × sub_dim`).
    pub fn codebook(&self, s: usize) -> &[f32] {
        &self.codebooks[s]
    }

    /// Encode one vector into `m` centroid indices.
    pub fn encode(&self, x: &[f32]) -> Vec<u8> {
        assert_eq!(x.len(), self.dim);
        (0..self.m)
            .map(|s| {
                let (lo, hi) = (self.bounds[s], self.bounds[s + 1]);
                nearest_centroid(&self.codebooks[s], hi - lo, &x[lo..hi]).0 as u8
            })
            .collect()
    }

    /// Decode a code back to its reconstruction.
    pub fn decode(&self, code: &[u8]) -> Vec<f32> {
        assert_eq!(code.len(), self.m);
        let mut out = Vec::with_capacity(self.dim);
        for (s, &c) in code.iter().enumerate() {
            let (lo, hi) = (self.bounds[s], self.bounds[s + 1]);
            let sub_dim = hi - lo;
            let cent = &self.codebooks[s][c as usize * sub_dim..(c as usize + 1) * sub_dim];
            out.extend_from_slice(cent);
        }
        out
    }

    /// Asymmetric distance lookup table for a query: `table[s][c]` is the
    /// squared distance between the query's subvector `s` and centroid `c`.
    /// `adc(code) = Σ_s table[s][code[s]]` approximates `‖q − decode(code)‖²`.
    pub fn distance_table(&self, q: &[f32]) -> Vec<Vec<f32>> {
        assert_eq!(q.len(), self.dim);
        (0..self.m)
            .map(|s| {
                let (lo, hi) = (self.bounds[s], self.bounds[s + 1]);
                let sub_dim = hi - lo;
                let qs = &q[lo..hi];
                // The codebook is already a contiguous k×sub_dim tile, so the
                // blocked batch kernel scans it with no gather step.
                let k = self.codebooks[s].len() / sub_dim;
                let mut dists = vec![0.0f32; k];
                gqr_linalg::kernels::sq_dist_batch(qs, &self.codebooks[s], &mut dists);
                dists
            })
            .collect()
    }

    /// Asymmetric distance of one code given a precomputed table.
    #[inline]
    pub fn adc(table: &[Vec<f32>], code: &[u8]) -> f32 {
        code.iter().zip(table).map(|(&c, t)| t[c as usize]).sum()
    }

    /// Mean squared reconstruction error over a dataset (training metric).
    pub fn quantization_error(&self, data: &[f32]) -> f64 {
        let n = data.len() / self.dim;
        if n == 0 {
            return 0.0;
        }
        let mut total = 0.0f64;
        for row in data.chunks_exact(self.dim) {
            let rec = self.decode(&self.encode(row));
            total += gqr_linalg::vecops::sq_dist_f32(row, &rec) as f64;
        }
        total / n as f64
    }

    /// Serialize the codebooks for a binary snapshot (see
    /// `gqr-core::persist`).
    pub fn wire_write(&self, w: &mut gqr_linalg::wire::ByteWriter) {
        w.put_usize(self.dim);
        w.put_usize(self.m);
        w.put_usize(self.ks);
        w.put_usize(self.bounds.len());
        for &b in &self.bounds {
            w.put_usize(b);
        }
        for cb in &self.codebooks {
            w.put_f32_slice(cb);
        }
    }

    /// Decode a quantizer written by [`ProductQuantizer::wire_write`].
    pub fn wire_read(
        r: &mut gqr_linalg::wire::ByteReader<'_>,
    ) -> Result<ProductQuantizer, gqr_linalg::wire::WireError> {
        use gqr_linalg::wire::WireError;
        let dim = r.get_usize()?;
        let m = r.get_usize()?;
        let ks = r.get_usize()?;
        if m == 0 || ks == 0 || ks > 256 {
            return Err(WireError::Malformed("PQ shape out of range"));
        }
        let n_bounds = r.get_usize()?;
        if n_bounds != m + 1 {
            return Err(WireError::Malformed("PQ bounds length mismatch"));
        }
        let mut bounds = Vec::with_capacity(n_bounds);
        for _ in 0..n_bounds {
            bounds.push(r.get_usize()?);
        }
        if bounds[0] != 0 || bounds[m] != dim || bounds.windows(2).any(|w| w[0] >= w[1]) {
            return Err(WireError::Malformed("PQ bounds are not a partition"));
        }
        let mut codebooks = Vec::with_capacity(m);
        for s in 0..m {
            let cb = r.get_f32_vec()?;
            if cb.len() != ks * (bounds[s + 1] - bounds[s]) {
                return Err(WireError::Malformed("PQ codebook size mismatch"));
            }
            codebooks.push(cb);
        }
        Ok(ProductQuantizer {
            dim,
            m,
            ks,
            bounds,
            codebooks,
        })
    }
}

/// Split `dim` dimensions into `m` contiguous, nearly-equal ranges.
fn split_bounds(dim: usize, m: usize) -> Vec<usize> {
    let base = dim / m;
    let extra = dim % m;
    let mut bounds = Vec::with_capacity(m + 1);
    let mut acc = 0;
    bounds.push(0);
    for s in 0..m {
        acc += base + usize::from(s < extra);
        bounds.push(acc);
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_data() -> Vec<f32> {
        // 4-D data where dims (0,1) and (2,3) each take one of 4 corners.
        let corners = [[0.0f32, 0.0], [0.0, 8.0], [8.0, 0.0], [8.0, 8.0]];
        let mut data = Vec::new();
        for i in 0..64 {
            let a = corners[i % 4];
            let b = corners[(i / 4) % 4];
            data.extend_from_slice(&[a[0], a[1], b[0], b[1]]);
        }
        data
    }

    fn pq_opts(ks: usize) -> PqOptions {
        PqOptions {
            ks,
            kmeans: KMeansOptions {
                seed: 11,
                ..Default::default()
            },
        }
    }

    #[test]
    fn split_bounds_even_and_uneven() {
        assert_eq!(split_bounds(8, 2), vec![0, 4, 8]);
        assert_eq!(split_bounds(7, 3), vec![0, 3, 5, 7]);
    }

    #[test]
    fn perfect_reconstruction_on_grid() {
        let data = grid_data();
        let pq = ProductQuantizer::train(&data, 4, 2, &pq_opts(4));
        // 4 codewords per half exactly cover the 4 corners.
        assert!(pq.quantization_error(&data) < 1e-6);
        for row in data.chunks_exact(4) {
            let rec = pq.decode(&pq.encode(row));
            assert!(gqr_linalg::vecops::sq_dist_f32(row, &rec) < 1e-6);
        }
    }

    #[test]
    fn adc_matches_exact_distance_to_reconstruction() {
        let data = grid_data();
        let pq = ProductQuantizer::train(&data, 4, 2, &pq_opts(4));
        let q = [1.0f32, 2.0, 3.0, 4.0];
        let table = pq.distance_table(&q);
        for row in data.chunks_exact(4) {
            let code = pq.encode(row);
            let rec = pq.decode(&code);
            let exact = gqr_linalg::vecops::sq_dist_f32(&q, &rec);
            let adc = ProductQuantizer::adc(&table, &code);
            assert!((exact - adc).abs() < 1e-4, "{exact} vs {adc}");
        }
    }

    #[test]
    fn more_codewords_reduce_error() {
        // Noisy data: bigger codebooks must not increase quantization error.
        let mut data = Vec::new();
        for i in 0..400 {
            data.push(((i * 13) % 101) as f32 / 10.0);
            data.push(((i * 7) % 89) as f32 / 10.0);
        }
        let small = ProductQuantizer::train(&data, 2, 1, &pq_opts(4));
        let large = ProductQuantizer::train(&data, 2, 1, &pq_opts(32));
        assert!(large.quantization_error(&data) <= small.quantization_error(&data));
    }

    #[test]
    fn encode_length_and_range() {
        let data = grid_data();
        let pq = ProductQuantizer::train(&data, 4, 2, &pq_opts(3));
        let code = pq.encode(&data[..4]);
        assert_eq!(code.len(), 2);
        assert!(code.iter().all(|&c| (c as usize) < 3));
    }
}
