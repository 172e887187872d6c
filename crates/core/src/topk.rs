//! Bounded top-k neighbor collection (max-heap on distance).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A `(squared distance, item id)` pair ordered as a max-heap element: the
/// heap root is the *worst* neighbor currently kept.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Neighbor {
    /// Squared Euclidean distance to the query.
    pub dist: f32,
    /// Item id.
    pub id: u32,
}

impl Eq for Neighbor {}

impl Ord for Neighbor {
    fn cmp(&self, other: &Self) -> Ordering {
        // NaN sorts after every number (so it never displaces one) and ties
        // another NaN; id tiebreak for determinism.
        self.dist
            .partial_cmp(&other.dist)
            .unwrap_or_else(|| self.dist.is_nan().cmp(&other.dist.is_nan()))
            .then_with(|| self.id.cmp(&other.id))
    }
}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Keeps the `k` nearest `(dist, id)` pairs seen so far.
#[derive(Clone, Debug)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<Neighbor>,
}

impl TopK {
    /// Collector for the best `k` items. Panics if `k == 0`.
    pub fn new(k: usize) -> TopK {
        assert!(k > 0, "k must be positive");
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// Offer a candidate; kept only if it beats the current worst (or the
    /// collector is not yet full).
    #[inline]
    pub fn push(&mut self, dist: f32, id: u32) {
        if self.heap.len() < self.k {
            self.heap.push(Neighbor { dist, id });
        } else if let Some(top) = self.heap.peek() {
            let cand = Neighbor { dist, id };
            if cand < *top {
                self.heap.pop();
                self.heap.push(cand);
            }
        }
    }

    /// The current worst kept distance, or `None` until `k` items arrived.
    /// This is the `d_k` of the paper's early-stop rule.
    #[inline]
    pub fn kth_dist(&self) -> Option<f32> {
        (self.heap.len() == self.k).then(|| self.heap.peek().expect("non-empty").dist)
    }

    /// Number of items currently kept (≤ k).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing has been offered yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Capacity `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Unordered ids of the current top-k (recall checkpointing).
    pub fn ids_unordered(&self) -> impl Iterator<Item = u32> + '_ {
        self.heap.iter().map(|n| n.id)
    }

    /// Drain into a vector sorted by ascending distance.
    pub fn into_sorted(self) -> Vec<(u32, f32)> {
        let mut v = self.heap.into_vec();
        v.sort();
        v.into_iter().map(|n| (n.id, n.dist)).collect()
    }

    /// Clear for reuse.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_only_the_best_k() {
        let mut t = TopK::new(3);
        for (d, i) in [(5.0, 0), (1.0, 1), (4.0, 2), (2.0, 3), (3.0, 4)] {
            t.push(d, i);
        }
        let out = t.into_sorted();
        assert_eq!(out, vec![(1, 1.0), (3, 2.0), (4, 3.0)]);
    }

    #[test]
    fn kth_dist_only_when_full() {
        let mut t = TopK::new(2);
        assert_eq!(t.kth_dist(), None);
        t.push(1.0, 0);
        assert_eq!(t.kth_dist(), None);
        t.push(3.0, 1);
        assert_eq!(t.kth_dist(), Some(3.0));
        t.push(2.0, 2);
        assert_eq!(t.kth_dist(), Some(2.0), "worse item displaced");
    }

    #[test]
    fn ties_break_by_id() {
        let mut t = TopK::new(2);
        t.push(1.0, 7);
        t.push(1.0, 3);
        t.push(1.0, 5);
        let out = t.into_sorted();
        assert_eq!(out, vec![(3, 1.0), (5, 1.0)], "smaller ids win exact ties");
    }

    #[test]
    fn nan_sorts_last_and_never_displaces_a_number() {
        let mut t = TopK::new(2);
        t.push(1.0, 5);
        t.push(2.0, 6);
        t.push(f32::NAN, 0);
        assert_eq!(t.into_sorted(), vec![(5, 1.0), (6, 2.0)]);

        let mut t = TopK::new(3);
        t.push(f32::NAN, 4);
        t.push(f32::NAN, 1);
        t.push(3.0, 9);
        let out = t.into_sorted();
        assert_eq!(out[0], (9, 3.0));
        assert!(out[1..].iter().all(|(_, d)| d.is_nan()));
        let nan_ids: Vec<u32> = out[1..].iter().map(|&(id, _)| id).collect();
        assert_eq!(nan_ids, vec![1, 4], "NaNs tie and break by id");
    }

    #[test]
    fn signed_zeros_tie_by_id() {
        let mut t = TopK::new(2);
        t.push(0.0, 8);
        t.push(-0.0, 9);
        t.push(0.0, 2);
        let ids: Vec<u32> = t.into_sorted().into_iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![2, 8]);
    }

    #[test]
    fn fewer_candidates_than_k() {
        let mut t = TopK::new(10);
        t.push(2.0, 1);
        t.push(1.0, 0);
        assert_eq!(t.len(), 2);
        assert_eq!(t.into_sorted(), vec![(0, 1.0), (1, 2.0)]);
    }

    #[test]
    fn clear_resets() {
        let mut t = TopK::new(2);
        t.push(1.0, 0);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.k(), 2);
    }
}
