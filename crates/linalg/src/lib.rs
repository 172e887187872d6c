//! Small dense linear algebra for the `gqr` workspace.
//!
//! Learning-to-hash trainers (PCAH, ITQ, SH) and the OPQ comparator need a
//! handful of dense kernels over small matrices: covariance eigendecomposition
//! (`d×d`, `d ≤ ~1000`), SVD of `m×m` correlation matrices (`m ≤ 64`), QR for
//! random rotations, and PCA. This crate implements exactly that subset with
//! `f64` accumulation; it is not a general-purpose BLAS.
//!
//! All matrices are dense and row-major ([`Matrix`]). Decompositions:
//!
//! * [`eigen::symmetric_eigen`] — cyclic Jacobi for symmetric matrices
//!   (unconditionally convergent, exact enough for covariance spectra).
//! * [`svd::svd`] — thin SVD built from the Jacobi eigendecomposition of the
//!   Gram matrix, with sign/orientation fix-ups.
//! * [`qr::qr`] — modified Gram–Schmidt with re-orthogonalization.
//! * [`pca::Pca`] — mean-centering + top-k principal directions.
//!
//! # Example
//!
//! ```
//! use gqr_linalg::{Matrix, symmetric_eigen};
//!
//! let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
//! let e = symmetric_eigen(&a);
//! assert!((e.values[0] - 3.0).abs() < 1e-10);
//! assert!((e.values[1] - 1.0).abs() < 1e-10);
//! ```

#![warn(missing_docs)]
pub mod eigen;
pub mod kernels;
pub mod matrix;
pub mod pca;
pub mod qr;
pub mod row_buffer;
pub mod svd;
pub mod vecops;
pub mod wire;

pub use eigen::{symmetric_eigen, Eigen};
pub use kernels::{
    angular_dist_batch, dot_batch, kernel_name, sq_dist_batch, ScoreBlock, TILE_ROWS,
};
pub use matrix::Matrix;
pub use pca::Pca;
pub use qr::{qr, random_orthonormal, random_rotation};
pub use row_buffer::RowBuffer;
pub use svd::{svd, Svd};
pub use wire::{crc32, ByteReader, ByteWriter, WireError};

/// Threads a one-off training pass (PCA scatter, ITQ's alternating
/// minimization) splits its work over: the machine's parallelism, capped at
/// two. Each pass is a few milliseconds, and a PCA thread streams the whole
/// dataset, so beyond two the spawn and memory traffic outgrow the gain.
/// The split never changes a result: threads own disjoint outputs, and each
/// output is summed in the single-threaded order.
pub fn training_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// `work` applied to every item, the first on the calling thread and each
/// other on its own scoped thread; results come back in item order. A
/// worker's panic resumes on the caller.
pub fn scoped_map<I: Send, T: Send>(items: Vec<I>, work: impl Fn(I) -> T + Sync) -> Vec<T> {
    let mut items = items.into_iter();
    let Some(first) = items.next() else {
        return Vec::new();
    };
    let work = &work;
    std::thread::scope(|s| {
        let spawned: Vec<_> = items.map(|item| s.spawn(move || work(item))).collect();
        let mut out = Vec::with_capacity(spawned.len() + 1);
        out.push(work(first));
        for handle in spawned {
            out.push(
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        out
    })
}
