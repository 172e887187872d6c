//! Symmetric eigendecomposition via cyclic Jacobi rotations.

use crate::matrix::Matrix;

/// Result of a symmetric eigendecomposition `A = V · diag(values) · Vᵀ`.
///
/// Eigenvalues are sorted in **descending** order; `vectors` holds the
/// corresponding eigenvectors as **columns**.
#[derive(Clone, Debug)]
pub struct Eigen {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// Eigenvectors as columns, same order as `values`.
    pub vectors: Matrix,
}

/// Eigendecomposition of a symmetric matrix using the cyclic Jacobi method.
///
/// Jacobi is quadratic-cost per sweep but unconditionally convergent and
/// backward-stable, which is exactly right for the small covariance and Gram
/// matrices (`n ≤ ~1000`) this workspace produces. Panics if `a` is not
/// square; symmetry is enforced by averaging `a` with its transpose, so tiny
/// asymmetries from accumulation order are tolerated.
pub fn symmetric_eigen(a: &Matrix) -> Eigen {
    assert_eq!(a.rows(), a.cols(), "symmetric_eigen needs a square matrix");
    let n = a.rows();
    // Work on a symmetrized copy.
    let mut m = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            m[(i, j)] = 0.5 * (a[(i, j)] + a[(j, i)]);
        }
    }
    // Eigenvectors accumulate transposed (`vt` row p is column p of V), so
    // each rotation updates two contiguous rows instead of two strided
    // columns; the arithmetic per entry is unchanged.
    let mut vt = Matrix::identity(n);

    let off = |m: &Matrix| -> f64 {
        let mut s = 0.0;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    s += m[(i, j)] * m[(i, j)];
                }
            }
        }
        s.sqrt()
    };

    let scale = m.frobenius_norm().max(1e-300);
    let tol = 1e-14 * scale;
    let max_sweeps = 64;
    for _ in 0..max_sweeps {
        if off(&m) <= tol {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() <= 1e-300 {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                // Stable rotation computation (Golub & Van Loan, Alg. 8.4.1).
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // Apply rotation J(p,q,θ): M ← Jᵀ M J, updating rows/cols p,q.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                let (head, tail) = m.as_mut_slice().split_at_mut(q * n);
                for (mpk, mqk) in head[p * n..(p + 1) * n].iter_mut().zip(&mut tail[..n]) {
                    let (pk, qk) = (*mpk, *mqk);
                    *mpk = c * pk - s * qk;
                    *mqk = s * pk + c * qk;
                }
                // Accumulate eigenvectors: V ← V J.
                let (head, tail) = vt.as_mut_slice().split_at_mut(q * n);
                let vp = &mut head[p * n..(p + 1) * n];
                for (vkp, vkq) in vp.iter_mut().zip(&mut tail[..n]) {
                    let (kp, kq) = (*vkp, *vkq);
                    *vkp = c * kp - s * kq;
                    *vkq = s * kp + c * kq;
                }
            }
        }
    }

    // Extract and sort descending.
    let mut order: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
    order.sort_by(|&i, &j| {
        diag[j]
            .partial_cmp(&diag[i])
            .expect("eigenvalues are finite")
    });

    let values: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (new_c, &old_c) in order.iter().enumerate() {
        for r in 0..n {
            vectors[(r, new_c)] = vt[(old_c, r)];
        }
    }
    Eigen { values, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct(e: &Eigen) -> Matrix {
        let n = e.values.len();
        let mut lam = Matrix::zeros(n, n);
        for i in 0..n {
            lam[(i, i)] = e.values[i];
        }
        e.vectors.matmul(&lam).matmul(&e.vectors.transpose())
    }

    /// The eigenvector accumulation before `V` was kept transposed: two
    /// strided columns per rotation, through `Index`.
    fn eigen_reference(a: &Matrix) -> Eigen {
        let n = a.rows();
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = 0.5 * (a[(i, j)] + a[(j, i)]);
            }
        }
        let mut v = Matrix::identity(n);
        let off = |m: &Matrix| -> f64 {
            let mut s = 0.0;
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        s += m[(i, j)] * m[(i, j)];
                    }
                }
            }
            s.sqrt()
        };
        let tol = 1e-14 * m.frobenius_norm().max(1e-300);
        for _ in 0..64 {
            if off(&m) <= tol {
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = m[(p, q)];
                    if apq.abs() <= 1e-300 {
                        continue;
                    }
                    let (app, aqq) = (m[(p, p)], m[(q, q)]);
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        1.0 / (theta - (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;
                    for k in 0..n {
                        let (mkp, mkq) = (m[(k, p)], m[(k, q)]);
                        m[(k, p)] = c * mkp - s * mkq;
                        m[(k, q)] = s * mkp + c * mkq;
                    }
                    for k in 0..n {
                        let (mpk, mqk) = (m[(p, k)], m[(q, k)]);
                        m[(p, k)] = c * mpk - s * mqk;
                        m[(q, k)] = s * mpk + c * mqk;
                    }
                    for k in 0..n {
                        let (vkp, vkq) = (v[(k, p)], v[(k, q)]);
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }
        let mut order: Vec<usize> = (0..n).collect();
        let diag: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
        order.sort_by(|&i, &j| diag[j].partial_cmp(&diag[i]).unwrap());
        let mut vectors = Matrix::zeros(n, n);
        for (new_c, &old_c) in order.iter().enumerate() {
            for r in 0..n {
                vectors[(r, new_c)] = v[(r, old_c)];
            }
        }
        Eigen {
            values: order.iter().map(|&i| diag[i]).collect(),
            vectors,
        }
    }

    #[test]
    fn transposed_accumulation_matches_the_column_loop() {
        for n in [1usize, 2, 3, 5, 8, 13, 24] {
            let mut a = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    let (lo, hi) = (i.min(j), i.max(j));
                    a[(i, j)] = ((lo * 31 + hi * 17) % 11) as f64 / 3.0 - 1.5;
                }
            }
            let (got, want) = (symmetric_eigen(&a), eigen_reference(&a));
            let bits = |e: &Eigen| -> Vec<u64> {
                e.values
                    .iter()
                    .chain(e.vectors.as_slice())
                    .map(|x| x.to_bits())
                    .collect()
            };
            assert_eq!(bits(&got), bits(&want), "n {n}");
        }
    }

    #[test]
    fn diagonal_matrix_eigenvalues_sorted() {
        let a = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 5.0, 0.0], &[0.0, 0.0, 3.0]]);
        let e = symmetric_eigen(&a);
        assert!((e.values[0] - 5.0).abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
        assert!((e.values[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_by_two_known() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let e = symmetric_eigen(&a);
        assert!((e.values[0] - 3.0).abs() < 1e-12);
        assert!((e.values[1] - 1.0).abs() < 1e-12);
        // Eigenvector for λ=3 is ±(1,1)/√2.
        let v0 = e.vectors.col(0);
        assert!((v0[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-10);
        assert!((v0[0] - v0[1]).abs() < 1e-10);
    }

    #[test]
    fn reconstruction_and_orthonormality() {
        // A mildly ill-conditioned symmetric matrix.
        let mut a = Matrix::zeros(6, 6);
        for i in 0..6 {
            for j in 0..6 {
                a[(i, j)] = 1.0 / (1.0 + i as f64 + j as f64); // Hilbert-like
            }
        }
        let e = symmetric_eigen(&a);
        assert!(e.vectors.is_orthonormal(1e-9));
        assert!(reconstruct(&e).distance(&a) < 1e-9);
    }

    #[test]
    fn negative_eigenvalues_handled() {
        let a = Matrix::from_rows(&[&[0.0, 2.0], &[2.0, 0.0]]);
        let e = symmetric_eigen(&a);
        assert!((e.values[0] - 2.0).abs() < 1e-12);
        assert!((e.values[1] + 2.0).abs() < 1e-12);
    }

    #[test]
    fn one_by_one() {
        let a = Matrix::from_rows(&[&[42.0]]);
        let e = symmetric_eigen(&a);
        assert_eq!(e.values, vec![42.0]);
        assert_eq!(e.vectors[(0, 0)], 1.0);
    }

    #[test]
    fn asymmetry_is_symmetrized() {
        let a = Matrix::from_rows(&[&[2.0, 1.0 + 1e-13], &[1.0 - 1e-13, 2.0]]);
        let e = symmetric_eigen(&a);
        assert!((e.values[0] - 3.0).abs() < 1e-9);
    }
}
