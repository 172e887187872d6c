//! Parallel brute-force exact k-nearest-neighbour ground truth.

use crate::Dataset;
use gqr_linalg::vecops::Metric;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Exact k-NN results, one `Vec<u32>` of item ids per query, sorted by
/// ascending distance.
pub type GroundTruth = Vec<Vec<u32>>;

/// A (distance, id) candidate ordered so that `BinaryHeap` is a max-heap on
/// distance — the heap root is the *worst* of the current top-k.
#[derive(Copy, Clone, PartialEq)]
struct Candidate {
    dist: f32,
    id: u32,
}

impl Eq for Candidate {}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Metric distances are finite; total order via
        // partial_cmp with id tiebreak keeps results deterministic.
        self.dist
            .partial_cmp(&other.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.id.cmp(&other.id))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Exact k-NN of every query against `data`, brute force, parallelized over
/// queries with `threads` OS threads (use `0` for "all available cores").
///
/// This is the ground truth against which recall is measured, and also the
/// "linear search" baseline timed in Table 1.
pub fn brute_force_knn(
    data: &Dataset,
    queries: &[Vec<f32>],
    k: usize,
    threads: usize,
) -> GroundTruth {
    brute_force_knn_metric(data, queries, k, threads, Metric::SquaredEuclidean)
}

/// [`brute_force_knn`] under an explicit metric.
pub fn brute_force_knn_metric(
    data: &Dataset,
    queries: &[Vec<f32>],
    k: usize,
    threads: usize,
    metric: Metric,
) -> GroundTruth {
    assert!(k > 0, "k must be positive");
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        threads
    };
    let mut results: Vec<Vec<u32>> = vec![Vec::new(); queries.len()];
    if queries.is_empty() {
        return results;
    }

    let chunk = queries.len().div_ceil(threads);
    // A worker panic re-raises here when the scope joins it.
    std::thread::scope(|scope| {
        for (qs, out) in queries.chunks(chunk).zip(results.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (q, slot) in qs.iter().zip(out.iter_mut()) {
                    *slot = knn_single_metric(data, q, k, metric);
                }
            });
        }
    });
    results
}

/// Exact k-NN for one query (ascending distance, id tiebreak).
pub fn knn_single(data: &Dataset, query: &[f32], k: usize) -> Vec<u32> {
    knn_single_metric(data, query, k, Metric::SquaredEuclidean)
}

/// Exact k-NN for one query under an explicit metric.
///
/// The dataset is already one contiguous row-major tile, so the scan runs
/// through the blocked batch kernel [`Metric::eval_batch`] (bit-identical to
/// per-row evaluation under the same dispatched kernel).
pub fn knn_single_metric(data: &Dataset, query: &[f32], k: usize, metric: Metric) -> Vec<u32> {
    assert_eq!(query.len(), data.dim(), "query dimensionality mismatch");
    let k = k.min(data.n());
    let dim = data.dim();
    let mut heap: BinaryHeap<Candidate> = BinaryHeap::with_capacity(k + 1);
    let mut dists = [0.0f32; gqr_linalg::TILE_ROWS];
    let mut id = 0u32;
    for tile in data.as_slice().chunks(gqr_linalg::TILE_ROWS * dim) {
        let out = &mut dists[..tile.len() / dim];
        metric.eval_batch(query, tile, out);
        for &dist in out.iter() {
            if heap.len() < k {
                heap.push(Candidate { dist, id });
            } else if let Some(top) = heap.peek() {
                if dist < top.dist || (dist == top.dist && id < top.id) {
                    heap.pop();
                    heap.push(Candidate { dist, id });
                }
            }
            id += 1;
        }
    }
    let mut sorted = heap.into_vec();
    sorted.sort();
    sorted.into_iter().map(|c| c.id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_dataset(n: usize) -> Dataset {
        // 1-D points at 0, 1, 2, …, embedded in 2-D.
        let mut data = Vec::with_capacity(n * 2);
        for i in 0..n {
            data.push(i as f32);
            data.push(0.0);
        }
        Dataset::new("line", 2, data)
    }

    #[test]
    fn knn_on_a_line() {
        let ds = line_dataset(10);
        let nn = knn_single(&ds, &[3.2, 0.0], 3);
        assert_eq!(nn, vec![3, 4, 2]);
    }

    #[test]
    fn knn_k_larger_than_n() {
        let ds = line_dataset(3);
        let nn = knn_single(&ds, &[0.0, 0.0], 10);
        assert_eq!(nn, vec![0, 1, 2]);
    }

    #[test]
    fn ties_break_by_id() {
        // Points 0 and 2 are equidistant from query at 1.
        let ds = line_dataset(3);
        let nn = knn_single(&ds, &[1.0, 0.0], 3);
        assert_eq!(nn[0], 1);
        assert_eq!(&nn[1..], &[0, 2], "equidistant neighbours ordered by id");
    }

    #[test]
    fn parallel_matches_serial() {
        let ds = line_dataset(100);
        let queries: Vec<Vec<f32>> = (0..17).map(|i| vec![i as f32 * 5.5, 0.1]).collect();
        let serial = brute_force_knn(&ds, &queries, 4, 1);
        let parallel = brute_force_knn(&ds, &queries, 4, 4);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_queries_ok() {
        let ds = line_dataset(5);
        assert!(brute_force_knn(&ds, &[], 3, 2).is_empty());
    }
}
