//! Hamming ranking (HR): the incumbent querying method. Computes the Hamming
//! distance of *every occupied bucket* to the query code before probing —
//! paying the paper's "slow start" cost up front — and orders the buckets
//! within a radius only when the probe reaches that radius.

use super::{for_each_union_code, Prober};
use crate::code::CodeWord;
use crate::table::HashTable;
use gqr_l2h::QueryEncoding;

/// Upfront-sorting Hamming prober over one table's occupied buckets (or
/// the union of several row-disjoint tables of one model).
///
/// Sorting is a bucket sort into `m + 1` radius levels (`O(B)`), exactly the
/// "efficient bucket sort" the paper credits HR with. The distance pass is
/// routed through the batched popcount kernel in `gqr-linalg` (runtime
/// scalar/AVX2 dispatch); ties within a level probe in ascending numeric
/// code order so the emission order is identical for every code width wide
/// enough to hold `m`. A level is put in that order when the probe enters
/// it, so levels a query never reaches are never sorted.
pub struct HammingRanking<'t, C: CodeWord = u64> {
    tables: Vec<&'t HashTable<C>>,
    /// Bucket codes grouped by radius; `levels[r]` holds codes at Hamming
    /// distance `r` from the query, ascending once the probe has entered
    /// level `r`.
    levels: Vec<Vec<C>>,
    /// Scratch: occupied codes in table order (kernel input mirror).
    codes: Vec<C>,
    /// Scratch: the same codes as contiguous little-endian u64 blocks.
    blocks: Vec<u64>,
    /// Scratch: kernel output, one distance per occupied code.
    dists: Vec<u32>,
    radius: usize,
    cursor: usize,
}

impl<'t, C: CodeWord> HammingRanking<'t, C> {
    /// Prober over `table`'s occupied buckets.
    pub fn new(table: &'t HashTable<C>) -> HammingRanking<'t, C> {
        Self::over(vec![table])
    }

    /// Prober over the union of the occupied buckets of `tables` (at least
    /// one). The in-level code sort makes the order that of one table
    /// holding all their rows.
    pub(crate) fn over(tables: Vec<&'t HashTable<C>>) -> HammingRanking<'t, C> {
        let m = tables[0].code_length();
        HammingRanking {
            tables,
            levels: vec![Vec::new(); m + 1],
            codes: Vec::new(),
            blocks: Vec::new(),
            dists: Vec::new(),
            radius: 0,
            cursor: 0,
        }
    }

    /// Move past used-up levels; a level the probe enters is put in
    /// ascending code order (level 0 holds at most the query's own code).
    fn skip_empty_levels(&mut self) {
        while self.radius < self.levels.len() && self.cursor >= self.levels[self.radius].len() {
            self.radius += 1;
            self.cursor = 0;
            self.sort_level();
        }
    }

    /// Numeric tiebreak within the current level: width-independent probe
    /// order. Out of line, so the per-bucket path stays small: with the
    /// sort inlined there, an exhaustive walk of 6 564 buckets measured
    /// about 8 % slower.
    #[cold]
    #[inline(never)]
    fn sort_level(&mut self) {
        if let Some(level) = self.levels.get_mut(self.radius) {
            level.sort_unstable();
        }
    }
}

impl<C: CodeWord> Prober<C> for HammingRanking<'_, C> {
    fn reset(&mut self, query: &QueryEncoding<C>) {
        for level in &mut self.levels {
            level.clear();
        }
        // The upfront O(B) pass over every occupied bucket — the cost QR/HR
        // pay before the first probe — batched through the popcount kernel.
        self.codes.clear();
        self.blocks.clear();
        let (codes, blocks) = (&mut self.codes, &mut self.blocks);
        for_each_union_code(&self.tables, |code| {
            codes.push(code);
            for b in 0..C::BLOCKS {
                blocks.push(code.block(b));
            }
        });
        let mut qblocks = [0u64; crate::code::MAX_BLOCKS];
        query.code.write_blocks(&mut qblocks);
        self.dists.resize(self.codes.len(), 0);
        gqr_linalg::kernels::hamming_batch(&qblocks[..C::BLOCKS], &self.blocks, &mut self.dists);
        for (i, &code) in self.codes.iter().enumerate() {
            self.levels[self.dists[i] as usize].push(code);
        }
        self.radius = 0;
        self.cursor = 0;
    }

    fn peek_cost(&mut self) -> Option<f64> {
        self.skip_empty_levels();
        (self.radius < self.levels.len()).then_some(self.radius as f64)
    }

    fn next_bucket(&mut self) -> Option<C> {
        self.skip_empty_levels();
        if self.radius >= self.levels.len() {
            return None;
        }
        let code = self.levels[self.radius][self.cursor];
        self.cursor += 1;
        Some(code)
    }

    fn name(&self) -> &'static str {
        "HR"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::U256;
    use crate::probe::test_support::{
        assert_emits, drain, drain_peeking, overlapping_tables, qe, random_code,
    };

    #[test]
    fn lazy_levels_equal_one_full_sort_of_the_union() {
        fn check<C: CodeWord>(m: usize, rng: &mut u64) {
            for n in [1, 63, 64, 65, 129, 5000] {
                for n_tables in 1..=3 {
                    let (codes, tables) = overlapping_tables::<C>(m, n, n_tables, rng);
                    let query = QueryEncoding {
                        code: random_code::<C>(m, rng),
                        flip_costs: vec![1.0; m],
                    };
                    let mut want: Vec<(f64, C)> = codes
                        .iter()
                        .map(|&c| (c.hamming(query.code) as f64, c))
                        .collect();
                    want.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                    let mut p = HammingRanking::over(tables.iter().collect());
                    p.reset(&query);
                    let got = drain_peeking(&mut p);
                    let case = format!("m = {m}, {n} buckets, {n_tables} tables");
                    assert_emits(&got, &want, &case);
                }
            }
        }
        let mut rng = 0x4a_11e1;
        check::<u64>(13, &mut rng);
        check::<u128>(128, &mut rng);
        check::<U256>(128, &mut rng);
    }

    fn table() -> HashTable {
        // Occupied buckets: 0b0000, 0b0011, 0b0111, 0b1111.
        HashTable::from_codes(4, &[0b0000, 0b0011, 0b0011, 0b0111, 0b1111])
    }

    #[test]
    fn probes_occupied_buckets_in_radius_order() {
        let t = table();
        let mut p = HammingRanking::new(&t);
        let buckets = drain(&mut p, &qe(0b0000, &[1.0; 4]));
        assert_eq!(buckets, vec![0b0000, 0b0011, 0b0111, 0b1111]);
    }

    #[test]
    fn only_occupied_buckets_are_emitted() {
        let t = table();
        let mut p = HammingRanking::new(&t);
        let buckets = drain(&mut p, &qe(0b1000, &[1.0; 4]));
        assert_eq!(buckets.len(), 4, "exactly the occupied buckets");
        for b in buckets {
            assert!(t.contains(b));
        }
    }

    #[test]
    fn peek_reports_radius() {
        let t = table();
        let mut p = HammingRanking::new(&t);
        let q = qe(0b0000, &[1.0; 4]);
        p.reset(&q);
        assert_eq!(p.peek_cost(), Some(0.0));
        p.next_bucket();
        assert_eq!(p.peek_cost(), Some(2.0));
    }

    #[test]
    fn reset_between_queries() {
        let t = table();
        let mut p = HammingRanking::new(&t);
        let a = drain(&mut p, &qe(0b0000, &[1.0; 4]));
        let b = drain(&mut p, &qe(0b1111, &[1.0; 4]));
        assert_eq!(a.first(), Some(&0b0000));
        assert_eq!(b.first(), Some(&0b1111));
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn empty_table_yields_nothing() {
        let t = HashTable::from_codes(4, &[]);
        let mut p = HammingRanking::new(&t);
        p.reset(&qe(0, &[1.0; 4]));
        assert!(p.peek_cost().is_none());
        assert!(p.next_bucket().is_none());
    }
}
