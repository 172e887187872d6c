//! Dense row-major matrix with the operations the trainers need.

use std::fmt;
use std::ops::{Add, Mul, Sub};

/// Vectors per block of [`Matrix::lane_products`]: sixteen `f64` lanes are
/// eight SSE2 or four AVX2 registers per output, enough independent add
/// chains to hide add latency.
pub const LANES: usize = 16;

/// Dense row-major `f64` matrix.
///
/// Sized for training-time math: covariance matrices (`d×d`), rotation
/// matrices (`m×m`), and projection matrices (`m×d`). Element access is
/// by `(row, col)` via indexing or [`Matrix::get`]/[`Matrix::set`].
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of shape `rows × cols`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a flat row-major buffer. Panics if `data.len() != rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length must equal rows*cols"
        );
        Matrix { rows, cols, data }
    }

    /// Build from row slices. Panics on ragged input.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Set element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy of column `c`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Flat row-major view of the backing buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat row-major mutable view of the backing buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`. Panics on shape mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            rhs.rows,
            "matmul shape mismatch: {:?} * {:?}",
            self.shape(),
            rhs.shape()
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // ikj loop order: stream over rhs rows for cache friendliness.
        for i in 0..self.rows {
            let a_row = self.row(i);
            for (k, &aik) in a_row.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let b_row = rhs.row(k);
                let o_row = out.row_mut(i);
                for (o, &b) in o_row.iter_mut().zip(b_row) {
                    *o += aik * b;
                }
            }
        }
        out
    }

    /// Matrix–vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "matvec shape mismatch");
        (0..self.rows)
            .map(|r| self.row(r).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// `self` times a block of [`LANES`] vectors stored transposed
    /// (`xt[j·LANES + l]` is entry `j` of vector `l`):
    /// `out[o][l] = init + self[(o, 0)]·xt[l] + self[(o, 1)]·xt[LANES + l] + …`,
    /// summed over `j` in ascending order with a separate multiply and add.
    ///
    /// Lane `l` thus gets exactly the bits of a one-vector dot-product loop
    /// whose accumulator starts at `init`: `0.0` for an explicit loop,
    /// `-0.0` for `Iterator::sum` (as in [`Matrix::matvec`]). The lanes are
    /// independent add chains, so the loop vectorizes and is not bound by
    /// add latency the way one dot product is.
    #[inline(always)]
    pub fn lane_products(&self, xt: &[f64], init: f64, out: &mut [[f64; LANES]]) {
        assert_eq!(
            xt.len(),
            self.cols * LANES,
            "one LANES-wide column per input entry"
        );
        assert_eq!(out.len(), self.rows, "one output block per matrix row");
        for (o, acc) in out.iter_mut().enumerate() {
            let mut a = [init; LANES];
            for (&w, x) in self.row(o).iter().zip(xt.chunks_exact(LANES)) {
                let x: &[f64; LANES] = x.try_into().expect("exact chunk");
                for (a, &x) in a.iter_mut().zip(x) {
                    *a += w * x;
                }
            }
            *acc = a;
        }
    }

    /// `selfᵀ * v` without materializing the transpose.
    pub fn matvec_t(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.rows, v.len(), "matvec_t shape mismatch");
        let mut out = vec![0.0; self.cols];
        for (r, &vr) in v.iter().enumerate() {
            for (o, &a) in out.iter_mut().zip(self.row(r)) {
                *o += a * vr;
            }
        }
        out
    }

    /// Scale every element by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * s).collect(),
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Max absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, x| m.max(x.abs()))
    }

    /// Trace (sum of diagonal). Panics if not square.
    pub fn trace(&self) -> f64 {
        assert_eq!(self.rows, self.cols, "trace needs a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// `‖self − rhs‖_F`.
    pub fn distance(&self, rhs: &Matrix) -> f64 {
        assert_eq!(self.shape(), rhs.shape());
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// True when `selfᵀ·self ≈ I` within `tol` (columns orthonormal).
    pub fn is_orthonormal(&self, tol: f64) -> bool {
        let gram = self.transpose().matmul(self);
        gram.distance(&Matrix::identity(self.cols)) < tol
    }

    /// Copy rows `lo..hi` into a new matrix.
    pub fn slice_rows(&self, lo: usize, hi: usize) -> Matrix {
        assert!(lo <= hi && hi <= self.rows);
        Matrix {
            rows: hi - lo,
            cols: self.cols,
            data: self.data[lo * self.cols..hi * self.cols].to_vec(),
        }
    }

    /// Keep the first `k` columns.
    pub fn take_cols(&self, k: usize) -> Matrix {
        assert!(k <= self.cols);
        let mut out = Matrix::zeros(self.rows, k);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[..k]);
        }
        out
    }

    /// Largest singular value, estimated by power iteration on `AᵀA`.
    ///
    /// This is the constant `M = σ_max(H)` of the paper's Theorem 1; the QD
    /// lower bound (Theorem 2) uses `µ = 1/(M·√m)`.
    pub fn spectral_norm(&self) -> f64 {
        let n = self.cols;
        if n == 0 || self.rows == 0 {
            return 0.0;
        }
        // Deterministic start vector avoids seeding concerns; perturb if
        // orthogonal to the top singular vector by bad luck (retry with ramp).
        let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64) * 1e-3).collect();
        let norm = |x: &[f64]| x.iter().map(|a| a * a).sum::<f64>().sqrt();
        let nv = norm(&v);
        for x in &mut v {
            *x /= nv;
        }
        let mut lambda = 0.0f64;
        for _ in 0..200 {
            let av = self.matvec(&v);
            let atav = self.matvec_t(&av);
            let n2 = norm(&atav);
            if n2 == 0.0 {
                return 0.0;
            }
            let next_lambda = n2;
            for (x, y) in v.iter_mut().zip(&atav) {
                *x = y / n2;
            }
            if (next_lambda - lambda).abs() <= 1e-12 * next_lambda.max(1.0) {
                lambda = next_lambda;
                break;
            }
            lambda = next_lambda;
        }
        lambda.sqrt()
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape());
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape());
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>10.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c[(0, 0)], 58.0);
        assert_eq!(c[(0, 1)], 64.0);
        assert_eq!(c[(1, 0)], 139.0);
        assert_eq!(c[(1, 1)], 154.0);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn matvec_and_matvec_t_agree_with_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, -2.0, 0.5], &[0.0, 3.0, 1.0]]);
        let v2 = vec![2.0, -1.0];
        let lhs = a.matvec_t(&v2);
        let rhs = a.transpose().matvec(&v2);
        for (x, y) in lhs.iter().zip(&rhs) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn frobenius_and_trace() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[4.0, 1.0]]);
        assert!((a.frobenius_norm() - (26.0f64).sqrt()).abs() < 1e-12);
        assert_eq!(a.trace(), 4.0);
    }

    #[test]
    fn spectral_norm_of_diagonal() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, -7.0]]);
        assert!((a.spectral_norm() - 7.0).abs() < 1e-6);
    }

    #[test]
    fn spectral_norm_of_rectangular() {
        // A = [[1,0,0],[0,2,0]] has σ_max = 2.
        let a = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 2.0, 0.0]]);
        assert!((a.spectral_norm() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn slice_and_take() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]);
        let s = a.slice_rows(1, 3);
        assert_eq!(s.shape(), (2, 3));
        assert_eq!(s[(0, 0)], 4.0);
        let t = a.take_cols(2);
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 8.0);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[0.5, -1.0], &[2.0, 0.0]]);
        let c = &(&a + &b) - &b;
        assert!(c.distance(&a) < 1e-12);
    }
}
