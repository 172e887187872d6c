//! The inverted multi-index (Babenko & Lempitsky, CVPR 2012) with the
//! multi-sequence cell traversal algorithm.
//!
//! Two codebooks `U`, `V` quantize the two halves of each vector; an item
//! lives in cell `(u, v)`. A query ranks all `K²` cells by
//! `d_U(q₁, u) + d_V(q₂, v)` and visits them in ascending order using a
//! min-heap that only ever holds `O(K)` frontier cells — the multi-sequence
//! algorithm. Combined with an OPQ rotation this is the `OPQ+IMI` comparator
//! of the paper's §6.5.

use crate::kmeans::{kmeans, KMeansOptions};
use gqr_metrics::{MetricsRegistry, Phase, PhaseSpans};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

/// A built inverted multi-index over a dataset.
#[derive(Clone, Debug)]
pub struct InvertedMultiIndex {
    dim: usize,
    split: usize,
    k: usize,
    /// First-half codebook, row-major `k × split`.
    codebook_u: Vec<f32>,
    /// Second-half codebook, row-major `k × (dim - split)`.
    codebook_v: Vec<f32>,
    /// Item ids per cell, indexed `u * k + v`.
    cells: Vec<Vec<u32>>,
}

/// Options for [`InvertedMultiIndex::build`].
#[derive(Clone, Debug)]
pub struct ImiOptions {
    /// Codebook size per half (`K`); the index has `K²` cells.
    pub k: usize,
    /// k-means settings for the two codebooks.
    pub kmeans: KMeansOptions,
}

impl Default for ImiOptions {
    fn default() -> Self {
        ImiOptions {
            k: 64,
            kmeans: KMeansOptions::default(),
        }
    }
}

impl InvertedMultiIndex {
    /// Build the index: train the two half-space codebooks and assign every
    /// item to its cell.
    pub fn build(data: &[f32], dim: usize, opts: &ImiOptions) -> InvertedMultiIndex {
        assert!(dim >= 2, "IMI needs at least two dimensions");
        assert!(data.len().is_multiple_of(dim), "data must be n×dim");
        let n = data.len() / dim;
        assert!(opts.k > 0 && opts.k <= n, "need 0 < k <= n");
        let split = dim / 2;

        let mut first = Vec::with_capacity(n * split);
        let mut second = Vec::with_capacity(n * (dim - split));
        for row in data.chunks_exact(dim) {
            first.extend_from_slice(&row[..split]);
            second.extend_from_slice(&row[split..]);
        }
        let mut ko = opts.kmeans.clone();
        let km_u = kmeans(&first, split, opts.k, &ko);
        ko.seed = ko.seed.wrapping_add(1);
        let km_v = kmeans(&second, dim - split, opts.k, &ko);

        let mut cells = vec![Vec::new(); opts.k * opts.k];
        for (i, (&u, &v)) in km_u.assignments.iter().zip(&km_v.assignments).enumerate() {
            cells[u as usize * opts.k + v as usize].push(i as u32);
        }
        InvertedMultiIndex {
            dim,
            split,
            k: opts.k,
            codebook_u: km_u.centroids,
            codebook_v: km_v.centroids,
            cells,
        }
    }

    /// Codebook size per half.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Items in cell `(u, v)`.
    pub fn cell(&self, u: usize, v: usize) -> &[u32] {
        &self.cells[u * self.k + v]
    }

    /// Number of non-empty cells.
    pub fn occupied_cells(&self) -> usize {
        self.cells.iter().filter(|c| !c.is_empty()).count()
    }

    /// Serialize codebooks + cell lists for a binary snapshot (see
    /// `gqr-core::persist`). Cell id order is preserved, so a reloaded
    /// index yields candidates in the exact order of the original.
    pub fn wire_write(&self, w: &mut gqr_linalg::wire::ByteWriter) {
        w.put_usize(self.dim);
        w.put_usize(self.split);
        w.put_usize(self.k);
        w.put_f32_slice(&self.codebook_u);
        w.put_f32_slice(&self.codebook_v);
        for cell in &self.cells {
            w.put_u32_slice(cell);
        }
    }

    /// Decode an index written by [`InvertedMultiIndex::wire_write`].
    pub fn wire_read(
        r: &mut gqr_linalg::wire::ByteReader<'_>,
    ) -> Result<InvertedMultiIndex, gqr_linalg::wire::WireError> {
        use gqr_linalg::wire::WireError;
        let dim = r.get_usize()?;
        let split = r.get_usize()?;
        let k = r.get_usize()?;
        if k == 0 || split == 0 || split >= dim {
            return Err(WireError::Malformed("IMI shape out of range"));
        }
        let codebook_u = r.get_f32_vec()?;
        let codebook_v = r.get_f32_vec()?;
        if codebook_u.len() != k * split || codebook_v.len() != k * (dim - split) {
            return Err(WireError::Malformed("IMI codebook size mismatch"));
        }
        let n_cells = k
            .checked_mul(k)
            .ok_or(WireError::Malformed("IMI cell count overflows"))?;
        let mut cells = Vec::with_capacity(n_cells);
        for _ in 0..n_cells {
            cells.push(r.get_u32_vec()?);
        }
        Ok(InvertedMultiIndex {
            dim,
            split,
            k,
            codebook_u,
            codebook_v,
            cells,
        })
    }

    /// Start the multi-sequence traversal for a query: returns an iterator
    /// yielding cells `(u, v, score)` in non-decreasing score order, where
    /// `score = ‖q₁ − U_u‖² + ‖q₂ − V_v‖²`.
    pub fn traverse<'a>(&'a self, query: &[f32]) -> MultiSequence<'a> {
        assert_eq!(query.len(), self.dim);
        let du = sorted_half_distances(&self.codebook_u, self.split, &query[..self.split]);
        let dv = sorted_half_distances(
            &self.codebook_v,
            self.dim - self.split,
            &query[self.split..],
        );
        let mut heap = BinaryHeap::new();
        let mut pushed = vec![false; self.k * self.k];
        heap.push(CellEntry {
            score: du[0].1 + dv[0].1,
            i: 0,
            j: 0,
        });
        pushed[0] = true;
        MultiSequence {
            index: self,
            du,
            dv,
            heap,
            pushed,
        }
    }

    /// Collect candidate item ids by traversing cells until at least
    /// `n_candidates` items are gathered (or all cells are visited).
    pub fn collect_candidates(&self, query: &[f32], n_candidates: usize) -> Vec<u32> {
        self.collect_candidates_metered(query, n_candidates, &MetricsRegistry::disabled())
    }

    /// [`InvertedMultiIndex::collect_candidates`] with query-path
    /// observability: with an enabled registry, phase spans are recorded
    /// under the `gqr_imi_*` family with `strategy="IMI"` — `hash_query` is
    /// the per-half codebook distance tables, `probe_generate` the
    /// multi-sequence heap traversal, `bucket_lookup` the cell gathers. The
    /// `evaluate`/`rerank` phases belong to the caller (this index only
    /// generates candidates) and record nothing here.
    pub fn collect_candidates_metered(
        &self,
        query: &[f32],
        n_candidates: usize,
        metrics: &MetricsRegistry,
    ) -> Vec<u32> {
        let start = Instant::now();
        let mut spans = PhaseSpans::new(metrics);
        let t = spans.begin();
        let mut traversal = self.traverse(query);
        spans.end(Phase::HashQuery, t);
        let mut out = Vec::with_capacity(n_candidates.min(self.cells.iter().map(Vec::len).sum()));
        loop {
            let t = spans.begin();
            let next = traversal.next();
            spans.end(Phase::ProbeGenerate, t);
            let Some((u, v, _)) = next else { break };
            let t = spans.begin();
            out.extend_from_slice(self.cell(u, v));
            spans.end(Phase::BucketLookup, t);
            if out.len() >= n_candidates {
                break;
            }
        }
        spans.flush(metrics, "gqr_imi", "IMI", start.elapsed());
        out
    }
}

/// Per-half sorted `(centroid_index, sq_distance)` list.
fn sorted_half_distances(codebook: &[f32], sub_dim: usize, q: &[f32]) -> Vec<(u32, f32)> {
    // The codebook is a contiguous k×sub_dim tile: score it in one blocked
    // batch-kernel call, then attach centroid indices for the sort.
    let k = codebook.len() / sub_dim;
    let mut dists = vec![0.0f32; k];
    gqr_linalg::kernels::sq_dist_batch(q, &codebook[..k * sub_dim], &mut dists);
    let mut d: Vec<(u32, f32)> = dists
        .into_iter()
        .enumerate()
        .map(|(c, dist)| (c as u32, dist))
        .collect();
    d.sort_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .unwrap_or(Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    d
}

/// Heap entry over *rank* pairs `(i, j)` into the two sorted distance lists.
#[derive(Copy, Clone, PartialEq)]
struct CellEntry {
    score: f32,
    i: usize,
    j: usize,
}

impl Eq for CellEntry {}

impl Ord for CellEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we need min-score first.
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| (other.i, other.j).cmp(&(self.i, self.j)))
    }
}

impl PartialOrd for CellEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Iterator over cells in non-decreasing score order (the multi-sequence
/// algorithm). Yields `(u, v, score)` with `u`/`v` the *original* centroid
/// indices.
pub struct MultiSequence<'a> {
    index: &'a InvertedMultiIndex,
    du: Vec<(u32, f32)>,
    dv: Vec<(u32, f32)>,
    heap: BinaryHeap<CellEntry>,
    pushed: Vec<bool>,
}

impl Iterator for MultiSequence<'_> {
    type Item = (usize, usize, f32);

    fn next(&mut self) -> Option<Self::Item> {
        let k = self.index.k;
        let top = self.heap.pop()?;
        // Push the two successors in rank space; `pushed` prevents the
        // classic double-insertion of (i+1, j+1).
        for (ni, nj) in [(top.i + 1, top.j), (top.i, top.j + 1)] {
            if ni < k && nj < k && !self.pushed[ni * k + nj] {
                self.pushed[ni * k + nj] = true;
                self.heap.push(CellEntry {
                    score: self.du[ni].1 + self.dv[nj].1,
                    i: ni,
                    j: nj,
                });
            }
        }
        let u = self.du[top.i].0 as usize;
        let v = self.dv[top.j].0 as usize;
        Some((u, v, top.score))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_toy(k: usize) -> (Vec<f32>, InvertedMultiIndex) {
        // 4-D points on a k×k grid in (dims 0-1) × (dims 2-3) corner space.
        let mut data = Vec::new();
        for i in 0..k {
            for j in 0..k {
                for _ in 0..3 {
                    data.extend_from_slice(&[i as f32 * 10.0, 0.0, j as f32 * 10.0, 0.0]);
                }
            }
        }
        let imi = InvertedMultiIndex::build(
            &data,
            4,
            &ImiOptions {
                k,
                kmeans: KMeansOptions {
                    seed: 17,
                    ..Default::default()
                },
            },
        );
        (data, imi)
    }

    #[test]
    fn traversal_scores_nondecreasing_and_complete() {
        let (_, imi) = build_toy(4);
        let q = [5.0f32, 0.0, 25.0, 0.0];
        let mut last = f32::NEG_INFINITY;
        let mut count = 0;
        let mut seen = std::collections::HashSet::new();
        for (u, v, score) in imi.traverse(&q) {
            assert!(score >= last - 1e-6, "scores must be non-decreasing");
            last = score;
            assert!(seen.insert((u, v)), "cell visited twice: ({u},{v})");
            count += 1;
        }
        assert_eq!(count, 16, "all K² cells visited exactly once");
    }

    #[test]
    fn nearest_cell_first() {
        let (_, imi) = build_toy(3);
        // Query exactly at grid point (1,2): its cell must come first.
        let q = [10.0f32, 0.0, 20.0, 0.0];
        let (u, v, score) = imi.traverse(&q).next().unwrap();
        assert!(score < 1e-6);
        let ids = imi.cell(u, v);
        assert_eq!(ids.len(), 3, "three duplicates of the grid point");
    }

    #[test]
    fn collect_candidates_gathers_enough() {
        let (data, imi) = build_toy(4);
        let n = data.len() / 4;
        let q = [0.0f32, 0.0, 0.0, 0.0];
        let c = imi.collect_candidates(&q, 7);
        assert!(c.len() >= 7);
        let all = imi.collect_candidates(&q, usize::MAX);
        assert_eq!(all.len(), n, "traversing everything returns every item");
    }

    #[test]
    fn metered_candidates_match_plain_and_record_spans() {
        let (_, imi) = build_toy(4);
        let q = [5.0f32, 0.0, 15.0, 0.0];
        let m = MetricsRegistry::enabled();
        let metered = imi.collect_candidates_metered(&q, 9, &m);
        let plain = imi.collect_candidates(&q, 9);
        assert_eq!(metered, plain, "metering must not change candidates");
        assert_eq!(
            m.counter_value("gqr_imi_queries_total{strategy=\"IMI\"}"),
            Some(1)
        );
        let total = m.histogram("gqr_imi_total_ns{strategy=\"IMI\"}").unwrap();
        assert_eq!(total.count(), 1);
    }

    #[test]
    fn every_item_in_exactly_one_cell() {
        let (data, imi) = build_toy(4);
        let n = data.len() / 4;
        let mut seen = vec![false; n];
        for u in 0..imi.k() {
            for v in 0..imi.k() {
                for &id in imi.cell(u, v) {
                    assert!(!seen[id as usize], "item {id} in two cells");
                    seen[id as usize] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn occupied_cells_counted() {
        let (_, imi) = build_toy(4);
        assert!(imi.occupied_cells() > 0);
        assert!(imi.occupied_cells() <= 16);
    }
}
