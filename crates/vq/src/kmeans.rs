//! Lloyd's k-means with k-means++ seeding.

use gqr_linalg::vecops::sq_dist_f32;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Salt so a zero seed doesn't collide with other zero-seeded RNGs in the
/// workspace ("kmeans" in ASCII).
const KMEANS_SEED_SALT: u64 = 0x6b6d_6561_6e73;

/// Tuning knobs for [`kmeans`].
#[derive(Clone, Debug)]
pub struct KMeansOptions {
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Stop when relative inertia improvement falls below this.
    pub tol: f64,
    /// RNG seed (k-means++ and empty-cluster reseeding).
    pub seed: u64,
    /// Worker threads for the assignment step (`0` = all cores).
    pub threads: usize,
}

impl Default for KMeansOptions {
    fn default() -> Self {
        KMeansOptions {
            max_iters: 25,
            tol: 1e-4,
            seed: 0,
            threads: 1,
        }
    }
}

/// Result of a k-means run.
#[derive(Clone, Debug)]
pub struct KMeans {
    /// Centroids, row-major `k × dim`.
    pub centroids: Vec<f32>,
    /// Per-item nearest-centroid index.
    pub assignments: Vec<u32>,
    /// Final sum of squared distances to assigned centroids.
    pub inertia: f64,
    /// Dimensionality.
    pub dim: usize,
    /// Number of clusters.
    pub k: usize,
    /// Lloyd iterations actually executed.
    pub iterations: usize,
}

impl KMeans {
    /// Borrow centroid `c`.
    #[inline]
    pub fn centroid(&self, c: usize) -> &[f32] {
        &self.centroids[c * self.dim..(c + 1) * self.dim]
    }

    /// Index of the centroid nearest to `x`.
    pub fn nearest(&self, x: &[f32]) -> u32 {
        nearest_centroid(&self.centroids, self.dim, x).0
    }
}

/// Index and squared distance of the centroid (row-major `k×dim`) nearest to
/// `x`.
pub fn nearest_centroid(centroids: &[f32], dim: usize, x: &[f32]) -> (u32, f32) {
    debug_assert_eq!(x.len(), dim);
    let mut best = (0u32, f32::INFINITY);
    for (c, cent) in centroids.chunks_exact(dim).enumerate() {
        let d = sq_dist_f32(x, cent);
        if d < best.1 {
            best = (c as u32, d);
        }
    }
    best
}

/// Run k-means on `n` rows of dimension `dim` stored contiguously.
///
/// k-means++ seeding, Lloyd updates, empty clusters reseeded to the point
/// farthest from its centroid. Deterministic for a fixed seed regardless of
/// thread count. Panics if `k == 0` or `k > n`.
pub fn kmeans(data: &[f32], dim: usize, k: usize, opts: &KMeansOptions) -> KMeans {
    assert!(
        dim > 0 && data.len().is_multiple_of(dim),
        "data must be n×dim"
    );
    let n = data.len() / dim;
    assert!(k > 0 && k <= n, "need 0 < k <= n (k={k}, n={n})");

    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed.wrapping_add(KMEANS_SEED_SALT));
    let mut centroids = plus_plus_init(data, dim, k, &mut rng);
    let mut assignments = vec![0u32; n];
    let mut inertia = f64::INFINITY;
    let mut iterations = 0;

    for iter in 0..opts.max_iters.max(1) {
        iterations = iter + 1;
        let new_inertia = assign(data, dim, &centroids, &mut assignments, opts.threads);

        // Update step.
        let mut sums = vec![0.0f64; k * dim];
        let mut counts = vec![0usize; k];
        for (row, &a) in data.chunks_exact(dim).zip(&assignments) {
            counts[a as usize] += 1;
            let s = &mut sums[a as usize * dim..(a as usize + 1) * dim];
            for (acc, &x) in s.iter_mut().zip(row) {
                *acc += x as f64;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                // Reseed an empty cluster at the point currently farthest
                // from its assigned centroid.
                let far = farthest_point(data, dim, &centroids, &assignments);
                centroids[c * dim..(c + 1) * dim]
                    .copy_from_slice(&data[far * dim..(far + 1) * dim]);
            } else {
                let inv = 1.0 / counts[c] as f64;
                for d in 0..dim {
                    centroids[c * dim + d] = (sums[c * dim + d] * inv) as f32;
                }
            }
        }

        let improved =
            inertia.is_infinite() || (inertia - new_inertia) > opts.tol * inertia.abs().max(1e-12);
        inertia = new_inertia;
        if !improved {
            break;
        }
    }
    // Final assignment so assignments/inertia match the returned centroids.
    let final_inertia = assign(data, dim, &centroids, &mut assignments, opts.threads);
    KMeans {
        centroids,
        assignments,
        inertia: final_inertia,
        dim,
        k,
        iterations,
    }
}

/// k-means++ seeding (Arthur & Vassilvitskii 2007).
fn plus_plus_init(data: &[f32], dim: usize, k: usize, rng: &mut ChaCha8Rng) -> Vec<f32> {
    let n = data.len() / dim;
    let mut centroids = Vec::with_capacity(k * dim);
    let first = rng.gen_range(0..n);
    centroids.extend_from_slice(&data[first * dim..(first + 1) * dim]);

    let mut dists: Vec<f64> = data
        .chunks_exact(dim)
        .map(|row| sq_dist_f32(row, &centroids[..dim]) as f64)
        .collect();

    while centroids.len() < k * dim {
        let total: f64 = dists.iter().sum();
        let pick = if total <= 0.0 {
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut idx = n - 1;
            for (i, &d) in dists.iter().enumerate() {
                if target < d {
                    idx = i;
                    break;
                }
                target -= d;
            }
            idx
        };
        let new_c: Vec<f32> = data[pick * dim..(pick + 1) * dim].to_vec();
        for (d, row) in dists.iter_mut().zip(data.chunks_exact(dim)) {
            let nd = sq_dist_f32(row, &new_c) as f64;
            if nd < *d {
                *d = nd;
            }
        }
        centroids.extend_from_slice(&new_c);
    }
    centroids
}

/// Assignment step; returns inertia. Parallel over disjoint item chunks, so
/// the result is identical to the serial pass.
fn assign(
    data: &[f32],
    dim: usize,
    centroids: &[f32],
    assignments: &mut [u32],
    threads: usize,
) -> f64 {
    let n = assignments.len();
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        threads
    };
    if threads <= 1 || n < 4096 {
        let mut inertia = 0.0f64;
        for (row, a) in data.chunks_exact(dim).zip(assignments.iter_mut()) {
            let (c, d) = nearest_centroid(centroids, dim, row);
            *a = c;
            inertia += d as f64;
        }
        return inertia;
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (ci, a_chunk) in assignments.chunks_mut(chunk).enumerate() {
            let start = ci * chunk;
            let rows = &data[start * dim..(start + a_chunk.len()) * dim];
            handles.push(scope.spawn(move || {
                let mut inertia = 0.0f64;
                for (row, a) in rows.chunks_exact(dim).zip(a_chunk.iter_mut()) {
                    let (c, d) = nearest_centroid(centroids, dim, row);
                    *a = c;
                    inertia += d as f64;
                }
                inertia
            }));
        }
        // Summed in chunk order, so the total does not depend on which
        // worker finishes first.
        handles
            .into_iter()
            .map(|h| h.join().expect("kmeans worker panicked"))
            .sum()
    })
}

/// Item farthest from its assigned centroid (for empty-cluster reseeding).
fn farthest_point(data: &[f32], dim: usize, centroids: &[f32], assignments: &[u32]) -> usize {
    let mut best = (0usize, -1.0f32);
    for (i, (row, &a)) in data.chunks_exact(dim).zip(assignments).enumerate() {
        let d = sq_dist_f32(row, &centroids[a as usize * dim..(a as usize + 1) * dim]);
        if d > best.1 {
            best = (i, d);
        }
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> Vec<f32> {
        let mut data = Vec::new();
        for i in 0..50 {
            let j = i as f32 * 0.01;
            data.extend_from_slice(&[j, -j]); // blob near origin
            data.extend_from_slice(&[10.0 + j, 10.0 - j]); // blob near (10,10)
        }
        data
    }

    #[test]
    fn separates_two_blobs() {
        let data = two_blobs();
        let km = kmeans(
            &data,
            2,
            2,
            &KMeansOptions {
                seed: 3,
                ..Default::default()
            },
        );
        let a0 = km.assignments[0];
        let a1 = km.assignments[1];
        assert_ne!(a0, a1);
        for i in 0..100 {
            assert_eq!(km.assignments[i], if i % 2 == 0 { a0 } else { a1 });
        }
        assert!(km.inertia < 10.0, "tight blobs: inertia {}", km.inertia);
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let data = vec![0.0f32, 0.0, 5.0, 5.0, -3.0, 1.0];
        let km = kmeans(
            &data,
            2,
            3,
            &KMeansOptions {
                seed: 1,
                ..Default::default()
            },
        );
        assert!(km.inertia < 1e-10);
    }

    #[test]
    fn deterministic_under_seed() {
        let data = two_blobs();
        let a = kmeans(
            &data,
            2,
            4,
            &KMeansOptions {
                seed: 9,
                ..Default::default()
            },
        );
        let b = kmeans(
            &data,
            2,
            4,
            &KMeansOptions {
                seed: 9,
                ..Default::default()
            },
        );
        assert_eq!(a.centroids, b.centroids);
        assert_eq!(a.assignments, b.assignments);
    }

    #[test]
    fn parallel_assignment_matches_serial() {
        let data: Vec<f32> = (0..10_000).map(|i| ((i * 31 % 97) as f32) / 7.0).collect();
        let serial = kmeans(
            &data,
            4,
            8,
            &KMeansOptions {
                seed: 5,
                threads: 1,
                ..Default::default()
            },
        );
        let par = kmeans(
            &data,
            4,
            8,
            &KMeansOptions {
                seed: 5,
                threads: 4,
                ..Default::default()
            },
        );
        assert_eq!(serial.assignments, par.assignments);
        assert!((serial.inertia - par.inertia).abs() < 1e-6 * serial.inertia.max(1.0));
    }

    #[test]
    fn nearest_matches_assignment() {
        let data = two_blobs();
        let km = kmeans(
            &data,
            2,
            2,
            &KMeansOptions {
                seed: 2,
                ..Default::default()
            },
        );
        for (i, row) in data.chunks_exact(2).enumerate() {
            assert_eq!(km.nearest(row), km.assignments[i]);
        }
    }

    #[test]
    fn inertia_never_increases_across_longer_runs() {
        let data = two_blobs();
        let short = kmeans(
            &data,
            2,
            4,
            &KMeansOptions {
                seed: 7,
                max_iters: 1,
                ..Default::default()
            },
        );
        let long = kmeans(
            &data,
            2,
            4,
            &KMeansOptions {
                seed: 7,
                max_iters: 20,
                ..Default::default()
            },
        );
        assert!(long.inertia <= short.inertia + 1e-9);
    }

    #[test]
    #[should_panic(expected = "need 0 < k <= n")]
    fn k_larger_than_n_panics() {
        let data = vec![0.0f32, 0.0];
        let _ = kmeans(&data, 2, 5, &KMeansOptions::default());
    }
}
