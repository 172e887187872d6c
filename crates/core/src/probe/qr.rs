//! QD ranking (QR, Algorithm 1): compute the quantization distance of every
//! occupied bucket, then probe in ascending order.
//!
//! QR probes exactly the same buckets in exactly the same order as GQR; the
//! difference is *when* the work happens. QR's upfront `O(B)` QD pass over
//! every occupied bucket is the slow-start cost that motivates GQR (paper
//! §4.2/§5). The ordering itself is lazy: buckets are sorted a chunk at a
//! time as the probe reaches them, so a query that stops after a few
//! hundred buckets does not sort the other thousands.

use super::{for_each_union_code, Prober};
use crate::code::{quantization_distance, CodeWord};
use crate::table::HashTable;
use gqr_l2h::QueryEncoding;
use std::cmp::Ordering;

/// Size of the first sorted chunk; each later chunk is [`CHUNK_GROWTH`]
/// times the last. One selection over `B` buckets costs about as much as
/// sorting a sixth of them, so the first chunk is sized for a typical query
/// (a few hundred buckets at a 2 000-candidate budget) to need one.
const FIRST_CHUNK: usize = 256;

/// Growth factor between chunks: few selections even for a long walk.
const CHUNK_GROWTH: usize = 4;

/// The probe order, as a comparator: ascending QD, the code breaking ties.
/// A total order for finite QDs over distinct codes, so sorting lazily in
/// chunks yields the same sequence as one full sort. The reference the
/// integer sort key ([`qd_key`]) is checked against.
fn by_qd_then_code<C: CodeWord>(a: &(f64, C), b: &(f64, C)) -> Ordering {
    a.0.partial_cmp(&b.0)
        .unwrap_or(Ordering::Equal)
        .then(a.1.cmp(&b.1))
}

/// The sort key of a bucket: its QD's bits, then its code. A QD is a sum
/// of non-negative flip costs, and the bits of non-negative floats order
/// like their values, so for every finite query the keys sort exactly as
/// [`by_qd_then_code`] does, without a float compare. A NaN QD — only a
/// non-finite query yields one — sorts after every number.
#[inline]
fn qd_key<C: CodeWord>(qd: f64, code: C) -> (u64, C) {
    debug_assert!(qd.is_sign_positive(), "QDs are non-negative: {qd}");
    (qd.to_bits(), code)
}

/// Lazily sorting quantization-distance prober over one table's occupied
/// buckets (or the union of several row-disjoint tables of one model).
pub struct QdRanking<'t, C: CodeWord = u64> {
    tables: Vec<&'t HashTable<C>>,
    /// [`qd_key`] of every occupied bucket. `ranked[..settled]` is in probe
    /// order; the rest is unordered, and none of it precedes the sorted
    /// prefix.
    ranked: Vec<(u64, C)>,
    settled: usize,
    /// Size of the next chunk to settle.
    chunk: usize,
    cursor: usize,
    /// Scratch: QD of every flip mask over the code's low 8 bits.
    low_byte_qd: Box<[f64; 256]>,
}

impl<'t, C: CodeWord> QdRanking<'t, C> {
    /// Prober over `table`'s occupied buckets.
    pub fn new(table: &'t HashTable<C>) -> QdRanking<'t, C> {
        Self::over(vec![table])
    }

    /// Prober over the union of the occupied buckets of `tables`. The
    /// `(qd, code)` order makes the sequence that of one table holding all
    /// their rows.
    pub(crate) fn over(tables: Vec<&'t HashTable<C>>) -> QdRanking<'t, C> {
        QdRanking {
            tables,
            ranked: Vec::new(),
            settled: 0,
            chunk: FIRST_CHUNK,
            cursor: 0,
            low_byte_qd: Box::new([0.0; 256]),
        }
    }

    /// Sort the next chunk of `ranked` into place once the cursor has used
    /// up the sorted prefix: select the chunk's last bucket, then sort the
    /// ones before it. A chunk that would cover half the rest or more
    /// sorts all of it instead, which saves a selection on long walks.
    #[inline]
    fn settle(&mut self) {
        if self.cursor < self.settled || self.settled == self.ranked.len() {
            return;
        }
        let rest = &mut self.ranked[self.settled..];
        let n = if 2 * self.chunk < rest.len() {
            rest.select_nth_unstable(self.chunk - 1);
            rest[..self.chunk - 1].sort_unstable();
            self.chunk
        } else {
            rest.sort_unstable();
            rest.len()
        };
        let qd = |&(bits, code): &(u64, C)| (f64::from_bits(bits), code);
        debug_assert!(
            self.ranked[self.settled.saturating_sub(1)..self.settled + n]
                .windows(2)
                .map(|w| (qd(&w[0]), qd(&w[1])))
                .all(|(a, b)| b.0.is_nan() || (!a.0.is_nan() && by_qd_then_code(&a, &b).is_le())),
            "the integer key orders QDs as the comparator does, NaN last"
        );
        self.settled += n;
        self.chunk *= CHUNK_GROWTH;
    }
}

/// Fill `table[x]` with the QD of flip mask `x` over bits `0..8`, summed in
/// ascending bit order exactly as [`quantization_distance`] sums it: for
/// the top set bit `t` of `x`, `table[x] = table[x ^ (1 << t)] + flip_costs[t]`.
fn fill_low_byte_qd(flip_costs: &[f64], table: &mut [f64; 256]) {
    let masks = 1usize << flip_costs.len().min(8);
    table[0] = 0.0;
    for x in 1..masks {
        let top = x.ilog2() as usize;
        table[x] = table[x ^ (1 << top)] + flip_costs[top];
    }
}

/// [`quantization_distance`] with the low byte's sum read from `low_byte_qd`
/// (see [`fill_low_byte_qd`]): the same additions in the same order, so the
/// same bits.
#[inline]
fn table_qd<C: CodeWord>(query: &QueryEncoding<C>, low_byte_qd: &[f64; 256], bucket: C) -> f64 {
    let diff = query.code.xor(bucket);
    let mut qd = low_byte_qd[(diff.block(0) & 0xff) as usize];
    let mut rest = diff.shr(8);
    while !rest.is_zero() {
        qd += query.flip_costs[8 + rest.trailing_zeros() as usize];
        rest = rest.clear_lowest_set_bit();
    }
    debug_assert_eq!(qd.to_bits(), quantization_distance(query, bucket).to_bits());
    qd
}

impl<C: CodeWord> Prober<C> for QdRanking<'_, C> {
    fn reset(&mut self, query: &QueryEncoding<C>) {
        fill_low_byte_qd(&query.flip_costs, &mut self.low_byte_qd);
        self.ranked.clear();
        let occupied = self.tables.iter().map(|t| t.n_buckets()).sum();
        self.ranked.reserve(occupied);
        let (ranked, low_byte_qd) = (&mut self.ranked, &*self.low_byte_qd);
        for_each_union_code(&self.tables, |code| {
            ranked.push(qd_key(table_qd(query, low_byte_qd, code), code));
        });
        self.settled = 0;
        self.chunk = FIRST_CHUNK;
        self.cursor = 0;
    }

    fn peek_cost(&mut self) -> Option<f64> {
        self.settle();
        self.ranked
            .get(self.cursor)
            .map(|&(bits, _)| f64::from_bits(bits))
    }

    fn next_bucket(&mut self) -> Option<C> {
        self.settle();
        let &(_, code) = self.ranked.get(self.cursor)?;
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
    use crate::code::U256;
    use crate::probe::test_support::{
        assert_emits, drain, drain_peeking, overlapping_tables, qe, random_code, splitmix,
    };

    /// Bucket counts on both sides of the chunk boundaries, and one long
    /// walk that crosses several.
    const COUNTS: [usize; 10] = [
        1,
        63,
        64,
        65,
        129,
        FIRST_CHUNK - 1,
        FIRST_CHUNK,
        FIRST_CHUNK + 1,
        2 * FIRST_CHUNK + 1,
        5000,
    ];

    #[test]
    fn lazy_order_equals_one_full_sort_of_the_union() {
        let mut rng = 0x51ed_2701;
        for n in COUNTS {
            for n_tables in 1..=3 {
                let m = 13;
                let (codes, tables) = overlapping_tables::<u64>(m, n, n_tables, &mut rng);
                // Costs from {0.25, 0.5, 1.0}: QDs are exact sums, so many
                // buckets tie and ties straddle the chunk boundaries.
                let query = QueryEncoding {
                    code: random_code::<u64>(m, &mut rng),
                    flip_costs: (0..m)
                        .map(|_| [0.25, 0.5, 1.0][(splitmix(&mut rng) % 3) as usize])
                        .collect(),
                };
                let mut want: Vec<(f64, u64)> = codes
                    .iter()
                    .map(|&c| (quantization_distance(&query, c), c))
                    .collect();
                want.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                let mut p = QdRanking::over(tables.iter().collect());
                p.reset(&query);
                let got = drain_peeking(&mut p);
                assert_emits(&got, &want, &format!("{n} buckets, {n_tables} tables"));
            }
        }
    }

    #[test]
    fn integer_key_sorts_like_the_comparator_and_nan_last() {
        let mut rng = 0x6b_e7a1;
        // Exact ties, zero, subnormals, large values and infinity.
        let values = [
            0.0,
            0.25,
            0.5,
            1.0,
            1.5,
            f64::MIN_POSITIVE / 4.0,
            1e300,
            f64::INFINITY,
        ];
        let pairs: Vec<(f64, u64)> = (0..2000)
            .map(|_| {
                let qd = values[(splitmix(&mut rng) % values.len() as u64) as usize];
                (qd, splitmix(&mut rng) % 512)
            })
            .collect();
        let mut want = pairs.clone();
        want.sort_by(by_qd_then_code);
        let mut got: Vec<(u64, u64)> = pairs.iter().map(|&(qd, c)| qd_key(qd, c)).collect();
        got.sort_unstable();
        let got: Vec<(f64, u64)> = got.iter().map(|&(b, c)| (f64::from_bits(b), c)).collect();
        assert_eq!(got, want);

        let mut keys = [
            qd_key(f64::NAN, 0u64),
            qd_key(f64::INFINITY, 1),
            qd_key(0.0, 2),
        ];
        keys.sort_unstable();
        assert_eq!(keys.map(|(_, code)| code), [2, 1, 0], "NaN sorts last");
    }

    #[test]
    fn byte_table_qd_is_bit_identical_to_quantization_distance() {
        fn check<C: CodeWord>(m: usize, rng: &mut u64) {
            let query = QueryEncoding {
                code: random_code::<C>(m, rng),
                // Not dyadic, so a different summation order shows.
                flip_costs: (0..m)
                    .map(|_| (splitmix(rng) % 1_000_000) as f64 / 7919.0)
                    .collect(),
            };
            let mut table = [f64::NAN; 256];
            fill_low_byte_qd(&query.flip_costs, &mut table);
            for _ in 0..500 {
                let code = random_code::<C>(m, rng);
                let (got, want) = (
                    table_qd(&query, &table, code),
                    quantization_distance(&query, code),
                );
                assert_eq!(got.to_bits(), want.to_bits(), "m = {m}, bucket {code:?}");
            }
        }
        let mut rng = 0x9d_0b17;
        for m in [1, 7, 8, 9, 13, 64] {
            check::<u64>(m, &mut rng);
        }
        check::<u128>(128, &mut rng);
        check::<U256>(256, &mut rng);
    }

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
