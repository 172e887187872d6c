//! QD ranking (QR, Algorithm 1): compute the quantization distance of every
//! occupied bucket, sort, and probe in ascending order.
//!
//! QR probes exactly the same buckets in exactly the same order as GQR; the
//! difference is *when* the work happens. QR's upfront `O(B log B)` sort is
//! the slow-start cost that motivates GQR (paper §4.2/§5).

use super::{for_each_union_code, Prober};
use crate::code::{quantization_distance, CodeWord};
use crate::table::HashTable;
use gqr_l2h::QueryEncoding;

/// Upfront-sorting quantization-distance prober over one table's occupied
/// buckets (or the union of several row-disjoint tables of one model).
pub struct QdRanking<'t, C: CodeWord = u64> {
    tables: Vec<&'t HashTable<C>>,
    /// `(qd, code)` for every occupied bucket, ascending.
    sorted: Vec<(f64, C)>,
    cursor: usize,
}

impl<'t, C: CodeWord> QdRanking<'t, C> {
    /// Prober over `table`'s occupied buckets.
    pub fn new(table: &'t HashTable<C>) -> QdRanking<'t, C> {
        Self::over(vec![table])
    }

    /// Prober over the union of the occupied buckets of `tables`. The
    /// `(qd, code)` sort makes the order that of one table holding all
    /// their rows.
    pub(crate) fn over(tables: Vec<&'t HashTable<C>>) -> QdRanking<'t, C> {
        QdRanking {
            tables,
            sorted: Vec::new(),
            cursor: 0,
        }
    }
}

impl<C: CodeWord> Prober<C> for QdRanking<'_, C> {
    fn reset(&mut self, query: &QueryEncoding<C>) {
        self.sorted.clear();
        let occupied = self.tables.iter().map(|t| t.n_buckets()).sum();
        self.sorted.reserve(occupied);
        let sorted = &mut self.sorted;
        for_each_union_code(&self.tables, |code| {
            sorted.push((quantization_distance(query, code), code));
        });
        // Code tiebreak keeps the order deterministic when QDs tie.
        self.sorted.sort_unstable_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        self.cursor = 0;
    }

    fn peek_cost(&mut self) -> Option<f64> {
        self.sorted.get(self.cursor).map(|&(qd, _)| qd)
    }

    fn next_bucket(&mut self) -> Option<C> {
        let &(_, code) = self.sorted.get(self.cursor)?;
        self.cursor += 1;
        Some(code)
    }

    fn name(&self) -> &'static str {
        "QR"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::test_support::{drain, qe};

    #[test]
    fn paper_figure3_order() {
        // Occupied: all four 2-bit buckets. p(q1) = (−0.2, −0.8):
        // QD order must be (0,0), (1,0), (0,1), (1,1) — bucket (1,0) is the
        // *low* bit flipped (bit index 0 holds c₁).
        let t = HashTable::from_codes(2, &[0b00, 0b01, 0b10, 0b11]);
        let mut p = QdRanking::new(&t);
        let q = qe(0b00, &[0.2, 0.8]);
        let buckets = drain(&mut p, &q);
        assert_eq!(buckets, vec![0b00, 0b01, 0b10, 0b11]);
    }

    #[test]
    fn qd_order_beats_hamming_ties() {
        // Buckets 0b01 and 0b10 tie on Hamming distance from 0b00 but not on
        // QD when costs differ; the cheap flip must come first even if its
        // code is numerically larger.
        let t = HashTable::from_codes(2, &[0b01, 0b10]);
        let mut p = QdRanking::new(&t);
        let q = qe(0b00, &[0.9, 0.1]);
        let buckets = drain(&mut p, &q);
        assert_eq!(buckets, vec![0b10, 0b01], "bit 1 is cheaper to flip");
    }

    #[test]
    fn skips_unoccupied_buckets() {
        let t = HashTable::from_codes(3, &[0b111]);
        let mut p = QdRanking::new(&t);
        let buckets = drain(&mut p, &qe(0b000, &[1.0, 1.0, 1.0]));
        assert_eq!(buckets, vec![0b111]);
    }

    #[test]
    fn peek_is_nondecreasing() {
        let t = HashTable::from_codes(3, &[0, 1, 2, 3, 4, 5, 6, 7]);
        let mut p = QdRanking::new(&t);
        p.reset(&qe(0b101, &[0.3, 0.7, 0.1]));
        let mut last = f64::NEG_INFINITY;
        while let Some(qd) = p.peek_cost() {
            assert!(qd >= last);
            last = qd;
            p.next_bucket();
        }
    }
}
