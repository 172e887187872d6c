//! Vector kernels shared across the workspace (f64 training math).

/// Dot product.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm.
#[inline]
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `y += alpha * x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Scale in place.
#[inline]
pub fn scale(a: &mut [f64], s: f64) {
    for x in a {
        *x *= s;
    }
}

/// Normalize to unit length; returns the original norm. Zero vectors are
/// left untouched and return 0.
pub fn normalize(a: &mut [f64]) -> f64 {
    let n = norm(a);
    if n > 0.0 {
        scale(a, 1.0 / n);
    }
    n
}

/// Squared Euclidean distance.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Squared Euclidean distance for the `f32` item vectors used at query time.
///
/// Accumulates in `f32`; this is the hot exact re-rank kernel and matches how
/// ANN systems (FAISS, the paper's C++ release) evaluate candidates. Since
/// the kernel-layer refactor this dispatches at runtime to the best
/// implementation for the host CPU — see [`crate::kernels`] for the
/// dispatch rules, the batch variants, and the `GQR_FORCE_SCALAR` override.
pub use crate::kernels::sq_dist_f32;

/// Dot product over `f32` rows, runtime-dispatched (see [`crate::kernels`]).
pub use crate::kernels::dot_f32;

/// Distance metric used for exact candidate evaluation and ground truth.
///
/// The paper analyzes QD for Euclidean distance and notes (§4) that "other
/// similarity metrics such as angular distance can also be adapted": the
/// probing order still comes from QD over the projections; only the re-rank
/// kernel changes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Metric {
    /// Squared Euclidean distance (the paper's setting).
    #[default]
    SquaredEuclidean,
    /// Angular distance `1 − cos(a, b)` (zero vectors are treated as
    /// orthogonal to everything: distance 1).
    Angular,
}

impl Metric {
    /// Evaluate the metric between two vectors.
    #[inline]
    pub fn eval(&self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            Metric::SquaredEuclidean => sq_dist_f32(a, b),
            Metric::Angular => angular_dist_f32(a, b),
        }
    }

    /// Evaluate the metric between one query and a tile of contiguous rows
    /// (`rows.len() == q.len() * out.len()`). Bit-identical to calling
    /// [`Metric::eval`] per row under the same dispatched kernel.
    #[inline]
    pub fn eval_batch(&self, q: &[f32], rows: &[f32], out: &mut [f32]) {
        match self {
            Metric::SquaredEuclidean => crate::kernels::sq_dist_batch(q, rows, out),
            Metric::Angular => crate::kernels::angular_dist_batch(q, rows, out),
        }
    }
}

/// Angular distance `1 − cos(a, b)`, in `[0, 2]`. Zero-norm inputs yield 1.
/// Runtime-dispatched (see [`crate::kernels`]).
pub use crate::kernels::angular_dist_f32;

/// Mean of a set of rows, each of dimension `dim`.
pub fn mean_rows(rows: &[f32], dim: usize) -> Vec<f64> {
    assert!(dim > 0 && rows.len().is_multiple_of(dim));
    let n = rows.len() / dim;
    let mut mean = vec![0.0f64; dim];
    for row in rows.chunks_exact(dim) {
        for (m, &x) in mean.iter_mut().zip(row) {
            *m += x as f64;
        }
    }
    if n > 0 {
        scale(&mut mean, 1.0 / n as f64);
    }
    mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, -1.0], &mut y);
        assert_eq!(y, vec![7.0, -1.0]);
    }

    #[test]
    fn normalize_unit_and_zero() {
        let mut v = vec![0.0, 3.0, 4.0];
        let n = normalize(&mut v);
        assert!((n - 5.0).abs() < 1e-12);
        assert!((norm(&v) - 1.0).abs() < 1e-12);
        let mut z = vec![0.0, 0.0];
        assert_eq!(normalize(&mut z), 0.0);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn sq_dist_f32_matches_naive_on_odd_lengths() {
        for len in [1usize, 3, 4, 5, 7, 8, 13] {
            let a: Vec<f32> = (0..len).map(|i| i as f32 * 0.5).collect();
            let b: Vec<f32> = (0..len).map(|i| (len - i) as f32 * -0.25).collect();
            let naive: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
            assert!((sq_dist_f32(&a, &b) - naive).abs() < 1e-3, "len {len}");
        }
    }

    #[test]
    fn angular_distance_basics() {
        let e1 = [1.0f32, 0.0];
        let e2 = [0.0f32, 1.0];
        assert!((angular_dist_f32(&e1, &e1)).abs() < 1e-6);
        assert!((angular_dist_f32(&e1, &e2) - 1.0).abs() < 1e-6);
        assert!((angular_dist_f32(&e1, &[-2.0, 0.0]) - 2.0).abs() < 1e-6);
        // Scale invariance.
        assert!(
            (angular_dist_f32(&e1, &[5.0, 5.0]) - angular_dist_f32(&e1, &[0.1, 0.1])).abs() < 1e-6
        );
        // Zero vector convention.
        assert_eq!(angular_dist_f32(&e1, &[0.0, 0.0]), 1.0);
    }

    #[test]
    fn metric_dispatch() {
        let a = [1.0f32, 2.0];
        let b = [3.0f32, 4.0];
        assert_eq!(Metric::SquaredEuclidean.eval(&a, &b), sq_dist_f32(&a, &b));
        assert_eq!(Metric::Angular.eval(&a, &b), angular_dist_f32(&a, &b));
        assert_eq!(Metric::default(), Metric::SquaredEuclidean);
    }

    #[test]
    fn mean_rows_simple() {
        let rows = [1.0f32, 2.0, 3.0, 4.0]; // two rows of dim 2
        let m = mean_rows(&rows, 2);
        assert_eq!(m, vec![2.0, 3.0]);
    }
}
