//! Learning-to-hash trainers for the `gqr` workspace.
//!
//! The paper's querying methods (QR/GQR in `gqr-core`) are *general*: they
//! work with any L2H algorithm that maps an item to a projected real vector
//! and quantizes it to a binary code. This crate provides the learners the
//! paper evaluates with:
//!
//! * [`lsh::Lsh`] — sign random projections (data-independent baseline),
//! * [`pcah::Pcah`] — PCA hashing,
//! * [`itq::Itq`] — iterative quantization (PCA + learned rotation),
//! * [`sh::SpectralHashing`] — spectral hashing (analytic Laplacian
//!   eigenfunctions along principal directions),
//! * [`kmh::KmeansHashing`] — K-means hashing (appendix experiment), whose
//!   flipping costs come from codeword distances instead of `|pᵢ(q)|`,
//! * [`ssh::Ssh`] — semi-supervised hashing (extension; the paper lists SSH
//!   among compatible learners),
//! * [`isoh::IsoHash`] — isotropic hashing (extension): equalizes per-bit
//!   variances so QD flipping costs are comparable across bits.
//!
//! All models implement [`HashModel`]: `encode` produces the `m`-bit bucket
//! code of an item, and `encode_query` additionally produces the per-bit
//! **flipping costs** that drive quantization-distance ranking. For
//! sign-threshold models the flipping cost of bit `i` is `|pᵢ(q)|`, exactly
//! the paper's Definition 1.
//!
//! # Example
//!
//! ```
//! use gqr_l2h::{HashModel, pcah::Pcah};
//!
//! // Tiny 2-D dataset, 2-bit codes.
//! let data = vec![1.0f32, 0.0, -1.0, 0.0, 0.0, 1.5, 0.0, -1.5];
//! let model = Pcah::train(&data, 2, 2).unwrap();
//! let q = model.encode_query(&[1.0, 0.2]);
//! assert_eq!(q.flip_costs.len(), 2);
//! ```

#![warn(missing_docs)]
pub mod isoh;
pub mod itq;
pub mod kmh;
pub mod lsh;
pub mod pcah;
pub mod persist;
pub mod sh;
pub mod ssh;

use gqr_linalg::matrix::LANES;
use gqr_linalg::Matrix;

/// Maximum supported code length: codes are packed into up to
/// [`CODE_BLOCKS`] 64-bit blocks.
pub const MAX_CODE_LENGTH: usize = 256;

/// Widest code a single `u64` holds — the ceiling for the narrow
/// [`HashModel::encode`]/[`sign_code`] path. Models with longer codes go
/// through [`HashModel::encode_wide`].
pub const MAX_NARROW_CODE_LENGTH: usize = 64;

/// Number of 64-bit blocks backing [`CodeBlocks`] (`MAX_CODE_LENGTH / 64`).
pub const CODE_BLOCKS: usize = MAX_CODE_LENGTH / 64;

/// A width-agnostic binary code: up to [`MAX_CODE_LENGTH`] bits packed
/// little-endian into `u64` blocks (bit `i` lives in block `i / 64` at
/// position `i % 64`).
///
/// This is the currency between hash models (which know the code length at
/// runtime) and `gqr-core`'s monomorphized `CodeWord` widths: models emit
/// `CodeBlocks`, the engine converts them to the narrowest word that fits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CodeBlocks {
    blocks: [u64; CODE_BLOCKS],
    len: usize,
}

impl CodeBlocks {
    /// The all-zeros code of `len` bits. Panics if `len` exceeds
    /// [`MAX_CODE_LENGTH`].
    pub fn zero(len: usize) -> CodeBlocks {
        assert!(
            len <= MAX_CODE_LENGTH,
            "code length {len} exceeds {MAX_CODE_LENGTH}"
        );
        CodeBlocks {
            blocks: [0; CODE_BLOCKS],
            len,
        }
    }

    /// Wrap a narrow (≤ 64-bit) code.
    pub fn from_u64(code: u64, len: usize) -> CodeBlocks {
        assert!(
            len <= MAX_NARROW_CODE_LENGTH,
            "narrow code length {len} exceeds 64"
        );
        let mut c = CodeBlocks::zero(len);
        c.blocks[0] = code;
        c
    }

    /// Build from explicit blocks (low block first); `blocks` may be
    /// shorter than [`CODE_BLOCKS`].
    pub fn from_blocks(blocks: &[u64], len: usize) -> CodeBlocks {
        let mut c = CodeBlocks::zero(len);
        assert!(blocks.len() <= CODE_BLOCKS, "too many code blocks");
        c.blocks[..blocks.len()].copy_from_slice(blocks);
        c
    }

    /// Code length in bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the code has zero bits of length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set bit `i` (panics if `i ≥ len`).
    #[inline]
    pub fn set_bit(&mut self, i: usize) {
        assert!(
            i < self.len,
            "bit {i} out of range for {}-bit code",
            self.len
        );
        self.blocks[i / 64] |= 1u64 << (i % 64);
    }

    /// Read bit `i` (panics if `i ≥ len`).
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit {i} out of range for {}-bit code",
            self.len
        );
        (self.blocks[i / 64] >> (i % 64)) & 1 == 1
    }

    /// The occupied blocks, low block first (`ceil(len / 64)` of them).
    pub fn blocks(&self) -> &[u64] {
        &self.blocks[..self.n_blocks()]
    }

    /// Number of occupied 64-bit blocks.
    pub fn n_blocks(&self) -> usize {
        self.len.div_ceil(64).max(1)
    }

    /// The low 64 bits — the whole code when `len ≤ 64`.
    pub fn low_u64(&self) -> u64 {
        self.blocks[0]
    }
}

/// Errors produced by trainers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// Fewer training rows than the algorithm needs.
    NotEnoughData {
        /// Rows required.
        needed: usize,
        /// Rows provided.
        got: usize,
    },
    /// Requested code length is zero, exceeds [`MAX_CODE_LENGTH`], or exceeds
    /// what the trainer can produce for this dimensionality.
    BadCodeLength {
        /// Requested length.
        requested: usize,
        /// Maximum supported for this configuration.
        max: usize,
    },
    /// Input buffer is not `n × dim`.
    RaggedData,
    /// A training row holds a NaN or an infinity; covariance, eigen and
    /// k-means steps have no meaning on it.
    NonFiniteData {
        /// The first such row.
        row: usize,
    },
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::NotEnoughData { needed, got } => {
                write!(f, "not enough training rows: need {needed}, got {got}")
            }
            TrainError::BadCodeLength { requested, max } => {
                write!(f, "bad code length {requested} (max {max})")
            }
            TrainError::RaggedData => write!(f, "training buffer is not a multiple of dim"),
            TrainError::NonFiniteData { row } => {
                write!(f, "training row {row} holds a NaN or an infinity")
            }
        }
    }
}

impl std::error::Error for TrainError {}

/// A query's code plus the information QD ranking needs: per-bit flipping
/// costs (for sign-threshold models, `|pᵢ(q)|`).
///
/// Generic over the code representation: `u64` (the default, for codes up
/// to 64 bits), [`CodeBlocks`] on the model side of the wide path, or any
/// `gqr-core` `CodeWord` width once the engine has picked one.
#[derive(Clone, Debug)]
pub struct QueryEncoding<C = u64> {
    /// The query's own bucket code (bit `i` in position `i`).
    pub code: C,
    /// Cost of flipping bit `i` of the code — the paper's `|pᵢ(q)|` term in
    /// Definition 1 (or the codeword-distance delta for K-means hashing).
    /// Always non-negative, `flip_costs.len() == code_length`.
    pub flip_costs: Vec<f64>,
}

/// The width-agnostic query encoding wide models emit.
pub type WideQueryEncoding = QueryEncoding<CodeBlocks>;

/// A trained hashing model: items → `m`-bit codes, queries → codes +
/// flipping costs.
///
/// Implementations must be deterministic and thread-safe; the query engine
/// encodes items and queries from multiple threads.
pub trait HashModel: Send + Sync {
    /// Input dimensionality `d`.
    fn dim(&self) -> usize;

    /// Code length `m` (≤ [`MAX_CODE_LENGTH`]).
    fn code_length(&self) -> usize;

    /// Bucket code of an item (indexing path). Only defined for
    /// `code_length ≤ 64`; wide models panic here and serve
    /// [`encode_wide`](HashModel::encode_wide) instead.
    fn encode(&self, x: &[f32]) -> u64;

    /// Code and per-bit flipping costs of a query (search path). Narrow
    /// (≤ 64-bit) counterpart of
    /// [`encode_query_wide`](HashModel::encode_query_wide).
    fn encode_query(&self, q: &[f32]) -> QueryEncoding;

    /// Width-agnostic bucket code of an item. The default delegates to
    /// [`encode`](HashModel::encode), which is correct for every model with
    /// `code_length ≤ 64`; models supporting longer codes must override.
    fn encode_wide(&self, x: &[f32]) -> CodeBlocks {
        CodeBlocks::from_u64(self.encode(x), self.code_length())
    }

    /// Codes of consecutive rows (`rows` is row-major with
    /// [`dim`](HashModel::dim) columns), one per entry of `out`: the bulk
    /// indexing path. It must equal [`encode_wide`](HashModel::encode_wide)
    /// on each row, code for code. The default does exactly that; linear
    /// models override it with [`LinearHasher::encode_rows`]. Panics unless
    /// `rows` holds `out.len()` rows.
    fn encode_rows(&self, rows: &[f32], out: &mut [CodeBlocks]) {
        assert_eq!(rows.len(), out.len() * self.dim(), "one code per row");
        for (row, code) in rows.chunks_exact(self.dim()).zip(out) {
            *code = self.encode_wide(row);
        }
    }

    /// Width-agnostic query encoding. Same default/override contract as
    /// [`encode_wide`](HashModel::encode_wide).
    fn encode_query_wide(&self, q: &[f32]) -> WideQueryEncoding {
        let qe = self.encode_query(q);
        QueryEncoding {
            code: CodeBlocks::from_u64(qe.code, self.code_length()),
            flip_costs: qe.flip_costs,
        }
    }

    /// The spectral norm `σ_max(H)` of the hashing matrix, when the model is
    /// linear (Theorem 1). Used to materialize the Theorem-2 lower bound
    /// `‖o − q‖ ≥ dist(q, b) / (σ_max·√m)` for early stopping; `None` for
    /// non-linear models (SH, KMH).
    fn spectral_norm(&self) -> Option<f64> {
        None
    }

    /// Short algorithm name for reports ("ITQ", "PCAH", …).
    fn name(&self) -> &'static str;

    /// Save hook for binary snapshots: the model's kind tag plus its wire
    /// payload (see [`persist`]). `None` (the default) means the model does
    /// not support persistence, and snapshot writers fail with a typed
    /// error instead of producing a partial file.
    fn snapshot(&self) -> Option<persist::ModelSnapshot> {
        None
    }
}

/// Quantize a projected vector by sign thresholding: bit `i` is 1 iff
/// `p[i] ≥ 0` (the paper's §2.1 quantization rule). Narrow path: panics on
/// projections longer than 64 (use [`sign_code_blocks`]).
#[inline]
pub fn sign_code(projection: &[f64]) -> u64 {
    assert!(
        projection.len() <= MAX_NARROW_CODE_LENGTH,
        "sign_code packs into a u64: {} bits exceed 64 (use sign_code_blocks)",
        projection.len()
    );
    let mut code = 0u64;
    for (i, &p) in projection.iter().enumerate() {
        if p >= 0.0 {
            code |= 1u64 << i;
        }
    }
    code
}

/// Width-agnostic sign thresholding: the same quantization rule as
/// [`sign_code`] for projections up to [`MAX_CODE_LENGTH`] bits.
pub fn sign_code_blocks(projection: &[f64]) -> CodeBlocks {
    let mut code = CodeBlocks::zero(projection.len());
    for (i, &p) in projection.iter().enumerate() {
        if p >= 0.0 {
            code.set_bit(i);
        }
    }
    code
}

/// Shared plumbing for linear models (`LSH`, `PCAH`, `ITQ`): a hashing matrix
/// `W` (`m×d`) and a bias so that `p(q) = W·q + bias`.
#[derive(Clone, Debug)]
pub struct LinearHasher {
    w: Matrix,
    bias: Vec<f64>,
    spectral_norm: f64,
}

impl LinearHasher {
    /// Build from a hashing matrix and bias; precomputes `σ_max(W)`.
    pub fn new(w: Matrix, bias: Vec<f64>) -> LinearHasher {
        assert_eq!(w.rows(), bias.len(), "one bias per hash function");
        assert!(
            w.rows() <= MAX_CODE_LENGTH,
            "code length exceeds {MAX_CODE_LENGTH}-bit packing"
        );
        let spectral_norm = w.spectral_norm();
        LinearHasher {
            w,
            bias,
            spectral_norm,
        }
    }

    /// Code length `m`.
    #[inline]
    pub fn code_length(&self) -> usize {
        self.w.rows()
    }

    /// Input dimensionality `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.w.cols()
    }

    /// The hashing matrix `W`.
    pub fn matrix(&self) -> &Matrix {
        &self.w
    }

    /// `σ_max(W)` (Theorem 1's constant `M`).
    pub fn spectral_norm(&self) -> f64 {
        self.spectral_norm
    }

    /// Projected vector `p(x) = W·x + bias`.
    pub fn project(&self, x: &[f32]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim(), "input dimensionality mismatch");
        let mut out = self.bias.clone();
        for (r, o) in out.iter_mut().enumerate() {
            let row = self.w.row(r);
            let mut acc = 0.0f64;
            for (&wi, &xi) in row.iter().zip(x) {
                acc += wi * xi as f64;
            }
            *o += acc;
        }
        out
    }

    /// Item encoding: sign-threshold the projection (narrow path; panics
    /// when `code_length > 64` — use [`LinearHasher::encode_wide`]).
    pub fn encode(&self, x: &[f32]) -> u64 {
        sign_code(&self.project(x))
    }

    /// Query encoding: code plus `|pᵢ(q)|` flipping costs (narrow path).
    pub fn encode_query(&self, q: &[f32]) -> QueryEncoding {
        let p = self.project(q);
        let code = sign_code(&p);
        let flip_costs = p.into_iter().map(f64::abs).collect();
        QueryEncoding { code, flip_costs }
    }

    /// Width-agnostic item encoding: works for any `code_length` up to
    /// [`MAX_CODE_LENGTH`].
    pub fn encode_wide(&self, x: &[f32]) -> CodeBlocks {
        sign_code_blocks(&self.project(x))
    }

    /// Width-agnostic query encoding.
    pub fn encode_query_wide(&self, q: &[f32]) -> WideQueryEncoding {
        let p = self.project(q);
        let code = sign_code_blocks(&p);
        let flip_costs = p.into_iter().map(f64::abs).collect();
        QueryEncoding { code, flip_costs }
    }

    /// Item codes of consecutive rows, one per entry of `out`; code for code
    /// equal to [`LinearHasher::encode_wide`] on each row. Rows go through
    /// [`Matrix::lane_products`] [`LANES`] at a time, so each projection is
    /// the same `0.0`-started sum over the input in order, plus the bias,
    /// but sixteen rows' sums run side by side instead of one latency-bound
    /// chain. Panics unless `rows` holds `out.len()` rows.
    pub fn encode_rows(&self, rows: &[f32], out: &mut [CodeBlocks]) {
        assert_eq!(rows.len(), out.len() * self.dim(), "one code per row");
        encode_lanes(&self.w, &self.bias, rows, out);
    }
}

gqr_linalg::lane_kernel! {
    /// [`LinearHasher::encode_rows`] over `W` and the bias.
    fn encode_lanes(w: &Matrix, bias: &[f64], rows: &[f32], out: &mut [CodeBlocks]) {
        let (m, d) = w.shape();
        let mut xt = vec![0.0f64; d * LANES];
        let mut p = vec![[0.0f64; LANES]; m];
        for (block, codes) in rows.chunks(d * LANES).zip(out.chunks_mut(LANES)) {
            for (l, row) in block.chunks_exact(d).enumerate() {
                for (j, &x) in row.iter().enumerate() {
                    xt[j * LANES + l] = x as f64;
                }
            }
            // Lanes past a short last block hold stale rows; their codes
            // are never written.
            w.lane_products(&xt, 0.0, &mut p);
            for (l, code) in codes.iter_mut().enumerate() {
                let mut c = CodeBlocks::zero(m);
                for (i, (p, b)) in p.iter().zip(bias).enumerate() {
                    if b + p[l] >= 0.0 {
                        c.set_bit(i);
                    }
                }
                *code = c;
            }
        }
    }
}

/// Validate an `n×dim` training buffer of finite values and a code length;
/// returns `n`.
pub(crate) fn check_training_input(
    data: &[f32],
    dim: usize,
    m: usize,
    max_m: usize,
    min_rows: usize,
) -> Result<usize, TrainError> {
    if dim == 0 || !data.len().is_multiple_of(dim) {
        return Err(TrainError::RaggedData);
    }
    if m == 0 || m > max_m.min(MAX_CODE_LENGTH) {
        return Err(TrainError::BadCodeLength {
            requested: m,
            max: max_m.min(MAX_CODE_LENGTH),
        });
    }
    let n = data.len() / dim;
    if n < min_rows {
        return Err(TrainError::NotEnoughData {
            needed: min_rows,
            got: n,
        });
    }
    // One branch-free pass per block (it vectorizes); the row is located
    // only on failure.
    let finite = |block: &[f32]| block.iter().fold(true, |ok, x| ok & x.is_finite());
    if !data.chunks(4096).all(finite) {
        let at = data.iter().position(|x| !x.is_finite()).unwrap_or(0);
        return Err(TrainError::NonFiniteData { row: at / dim });
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_code_thresholds_at_zero() {
        assert_eq!(sign_code(&[1.0, -1.0, 0.0, -0.5]), 0b0101);
        assert_eq!(sign_code(&[]), 0);
        assert_eq!(sign_code(&[-1.0; 8]), 0);
        assert_eq!(sign_code(&[1.0; 8]), 0xFF);
    }

    #[test]
    fn linear_hasher_projection_and_code() {
        // W = [[1,0],[0,-1]], bias = [0, 0.5]: p(x) = (x0, 0.5 − x1).
        let w = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, -1.0]]);
        let h = LinearHasher::new(w, vec![0.0, 0.5]);
        let p = h.project(&[2.0, 3.0]);
        assert!((p[0] - 2.0).abs() < 1e-12);
        assert!((p[1] + 2.5).abs() < 1e-12);
        assert_eq!(h.encode(&[2.0, 3.0]), 0b01);
        let qe = h.encode_query(&[2.0, 3.0]);
        assert_eq!(qe.code, 0b01);
        assert!((qe.flip_costs[0] - 2.0).abs() < 1e-12);
        assert!((qe.flip_costs[1] - 2.5).abs() < 1e-12);
    }

    #[test]
    fn linear_hasher_spectral_norm() {
        let w = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        let h = LinearHasher::new(w, vec![0.0, 0.0]);
        assert!((h.spectral_norm() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn check_training_input_errors() {
        assert_eq!(
            check_training_input(&[1.0, 2.0, 3.0], 2, 2, 8, 1),
            Err(TrainError::RaggedData)
        );
        assert_eq!(
            check_training_input(&[1.0, 2.0], 2, 0, 8, 1),
            Err(TrainError::BadCodeLength {
                requested: 0,
                max: 8
            })
        );
        assert_eq!(
            check_training_input(&[1.0, 2.0], 2, 2, 8, 5),
            Err(TrainError::NotEnoughData { needed: 5, got: 1 })
        );
        assert_eq!(
            check_training_input(&[1.0, 2.0, 3.0, 4.0], 2, 2, 8, 2),
            Ok(2)
        );
        assert_eq!(
            check_training_input(&[1.0, 2.0, 3.0, f32::NEG_INFINITY], 2, 2, 8, 2),
            Err(TrainError::NonFiniteData { row: 1 })
        );
    }

    #[test]
    fn linear_bulk_encoding_equals_per_row_encoding() {
        // Lane blocks are 16 rows: counts straddle one and two blocks, and
        // code lengths cross the one-, two- and four-block widths.
        let dim = 5;
        let data: Vec<f32> = (0..40 * dim)
            .map(|i| ((i * 37) % 23) as f32 * 0.25 - 2.5)
            .collect();
        for m in [1usize, 13, 64, 65, 130, 256] {
            let w = Matrix::from_vec(
                m,
                dim,
                (0..m * dim)
                    .map(|i| ((i * 11) % 17) as f64 / 8.0 - 1.0)
                    .collect(),
            );
            let bias = (0..m).map(|i| (i % 5) as f64 * 0.5 - 1.0).collect();
            let h = LinearHasher::new(w, bias);
            for n in [0usize, 1, 15, 16, 17, 33, 40] {
                let rows = &data[..n * dim];
                let mut got = vec![CodeBlocks::zero(m); n];
                h.encode_rows(rows, &mut got);
                let want: Vec<CodeBlocks> =
                    rows.chunks_exact(dim).map(|r| h.encode_wide(r)).collect();
                assert_eq!(got, want, "m {m}, {n} rows");
            }
        }
    }

    #[test]
    fn train_error_display() {
        let e = TrainError::NotEnoughData { needed: 5, got: 1 };
        assert!(e.to_string().contains("need 5"));
        let e = TrainError::BadCodeLength {
            requested: 99,
            max: 64,
        };
        assert!(e.to_string().contains("99"));
        assert!(TrainError::RaggedData
            .to_string()
            .contains("multiple of dim"));
    }
}
