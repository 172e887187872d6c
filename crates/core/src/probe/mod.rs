//! Probing strategies: the order in which buckets are examined.
//!
//! A [`Prober`] emits bucket codes in the order its strategy dictates. The
//! four paper strategies:
//!
//! | | ranks every occupied bucket upfront | generates on demand |
//! |---|---|---|
//! | **Hamming distance** | [`HammingRanking`] (HR) | [`GenerateHammingRanking`] (GHR / hash lookup) |
//! | **Quantization distance** | [`QdRanking`] (QR) | [`GenerateQdRanking`] (GQR) |
//!
//! HR/QR compute the distance of all `B` occupied buckets before the first
//! bucket is probed — an `O(B)` pass, the paper's *slow start* problem —
//! and then order only the buckets the probe reaches; GHR/GQR produce the
//! `i`-th bucket in `O(log i)` (GQR) or amortized `O(1)` (GHR) when asked.
//! Multi-index hashing lives in [`mih`] because it retrieves items, not
//! whole-code buckets.

pub mod ghr;
pub mod gqr;
pub mod hr;
pub mod mih;
pub mod qr;

pub use ghr::GenerateHammingRanking;
pub use gqr::GenerateQdRanking;
pub use hr::HammingRanking;
pub use qr::QdRanking;

use crate::code::CodeWord;
use crate::engine::ProbeStrategy;
use crate::table::HashTable;
use gqr_l2h::QueryEncoding;

/// A source of bucket codes in strategy order for one query.
///
/// Implementations are reset per query via [`Prober::reset`] so heaps and
/// scratch buffers are reused across a query batch (no per-probe
/// allocation on the hot path). Generic over the code width `C`
/// (default `u64`): a prober emits bucket codes of the same width as the
/// table it probes.
pub trait Prober<C: CodeWord = u64> {
    /// Prepare for a new query.
    fn reset(&mut self, query: &QueryEncoding<C>);

    /// Cost indicator of the bucket that [`Prober::next_bucket`] would
    /// return: QD for the QD probers, Hamming distance for the Hamming
    /// probers. `None` when exhausted. Multi-table search uses this to merge
    /// probers across tables.
    fn peek_cost(&mut self) -> Option<f64>;

    /// Next bucket code to probe, or `None` when the code space (or the
    /// occupied-bucket list) is exhausted.
    fn next_bucket(&mut self) -> Option<C>;

    /// Strategy name for reports.
    fn name(&self) -> &'static str;
}

/// The four bucket-ranking probers behind one statically dispatched type:
/// the query loop holds one of these per table instead of boxing a
/// `dyn Prober` per query.
pub(crate) enum AnyProber<'t, C: CodeWord = u64> {
    Hr(HammingRanking<'t, C>),
    Ghr(GenerateHammingRanking<C>),
    Qr(QdRanking<'t, C>),
    Gqr(GenerateQdRanking<C>),
}

macro_rules! each_prober {
    ($self:ident, $p:ident => $e:expr) => {
        match $self {
            AnyProber::Hr($p) => $e,
            AnyProber::Ghr($p) => $e,
            AnyProber::Qr($p) => $e,
            AnyProber::Gqr($p) => $e,
        }
    };
}

/// Hand `f` every occupied bucket code of the union of `tables`
/// (row-disjoint tables of one hash model), each code once, in ascending
/// order: a merge of their sorted codes. One table is the plain walk over
/// its codes.
pub(crate) fn for_each_union_code<C: CodeWord>(tables: &[&HashTable<C>], mut f: impl FnMut(C)) {
    if let [table] = tables {
        return table.sorted_codes().iter().for_each(|&code| f(code));
    }
    let mut rests: Vec<&[C]> = tables.iter().map(|t| t.sorted_codes()).collect();
    while let Some(&code) = rests.iter().filter_map(|rest| rest.first()).min() {
        for rest in &mut rests {
            if rest.first() == Some(&code) {
                *rest = &rest[1..];
            }
        }
        f(code);
    }
}

impl<'t, C: CodeWord> AnyProber<'t, C> {
    /// The prober `strategy` names, reset for `query`, over the union of
    /// `tables` — one table, or the row-disjoint segments of one index,
    /// which share a hash model and therefore a probe order. Panics on
    /// MIH, which retrieves items through its own side index rather than
    /// whole-code buckets.
    pub(crate) fn for_strategy(
        strategy: ProbeStrategy,
        tables: impl IntoIterator<Item = &'t HashTable<C>>,
        query: &QueryEncoding<C>,
    ) -> Self {
        let mut tables = tables.into_iter().peekable();
        let m = tables.peek().expect("at least one table").code_length();
        let mut prober = match strategy {
            ProbeStrategy::HammingRanking => AnyProber::Hr(HammingRanking::over(tables.collect())),
            ProbeStrategy::GenerateHammingRanking => AnyProber::Ghr(GenerateHammingRanking::new(m)),
            ProbeStrategy::QdRanking => AnyProber::Qr(QdRanking::over(tables.collect())),
            ProbeStrategy::GenerateQdRanking => AnyProber::Gqr(GenerateQdRanking::new(m)),
            ProbeStrategy::MultiIndexHashing { .. } => panic!("MIH has no bucket-code prober"),
        };
        let reset = &mut prober;
        each_prober!(reset, p => p.reset(query));
        prober
    }

    /// See [`Prober::peek_cost`].
    #[inline]
    pub(crate) fn peek_cost(&mut self) -> Option<f64> {
        each_prober!(self, p => p.peek_cost())
    }

    /// See [`Prober::next_bucket`].
    #[inline]
    pub(crate) fn next_bucket(&mut self) -> Option<C> {
        each_prober!(self, p => p.next_bucket())
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use crate::code::CodeWord;
    use crate::table::HashTable;
    use gqr_l2h::QueryEncoding;
    use std::collections::BTreeSet;

    /// Query encoding with explicit costs for prober tests.
    pub fn qe(code: u64, costs: &[f64]) -> QueryEncoding {
        QueryEncoding {
            code,
            flip_costs: costs.to_vec(),
        }
    }

    /// Collect all buckets a prober emits after a reset.
    pub fn drain<C: CodeWord>(p: &mut dyn super::Prober<C>, q: &QueryEncoding<C>) -> Vec<C> {
        p.reset(q);
        let mut out = Vec::new();
        while let Some(b) = p.next_bucket() {
            out.push(b);
        }
        out
    }

    /// SplitMix64: a seeded stream for the randomised prober fences.
    pub fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform `m`-bit code of width `C`.
    pub fn random_code<C: CodeWord>(m: usize, state: &mut u64) -> C {
        let blocks: Vec<u64> = (0..C::BLOCKS).map(|_| splitmix(state)).collect();
        C::from_blocks(&blocks).and(C::low_mask(m))
    }

    /// `n` distinct `m`-bit codes, ascending, dealt to `n_tables` tables:
    /// each code lands in a random non-empty subset of them, so the tables
    /// overlap the way row-disjoint segments of one index do.
    pub fn overlapping_tables<C: CodeWord>(
        m: usize,
        n: usize,
        n_tables: usize,
        state: &mut u64,
    ) -> (Vec<C>, Vec<HashTable<C>>) {
        let mut codes = BTreeSet::new();
        while codes.len() < n {
            codes.insert(random_code::<C>(m, state));
        }
        let mut dealt = vec![Vec::new(); n_tables];
        for &code in &codes {
            let subset = 1 + splitmix(state) % ((1 << n_tables) - 1);
            for (t, rows) in dealt.iter_mut().enumerate() {
                if subset >> t & 1 == 1 {
                    rows.push(code);
                }
            }
        }
        let tables = dealt
            .iter()
            .map(|rows| HashTable::from_codes(m, rows))
            .collect();
        (codes.into_iter().collect(), tables)
    }

    /// Drain a reset prober to exhaustion, calling `peek_cost` zero, one or
    /// two times before each `next_bucket` in turn. Returns each emitted
    /// code with the cost peeked for it, if any; two peeks must agree.
    pub fn drain_peeking<C: CodeWord>(p: &mut dyn super::Prober<C>) -> Vec<(Option<f64>, C)> {
        let mut out = Vec::new();
        loop {
            let mut cost = None;
            for _ in 0..out.len() % 3 {
                let peeked = p.peek_cost();
                if let Some(first) = cost {
                    assert_eq!(peeked, first, "a second peek moved the prober");
                }
                cost = Some(peeked);
            }
            match p.next_bucket() {
                Some(code) => out.push((cost.map(|c| c.expect("peek saw a bucket")), code)),
                None => {
                    assert!(
                        matches!(cost, None | Some(None)),
                        "peek saw a bucket next did not emit"
                    );
                    break;
                }
            }
        }
        assert!(p.peek_cost().is_none() && p.next_bucket().is_none());
        out
    }

    /// Assert that `got` (from [`drain_peeking`]) emits exactly the codes of
    /// `want`, in order, and that every peeked cost equals its bucket's.
    pub fn assert_emits<C: CodeWord>(got: &[(Option<f64>, C)], want: &[(f64, C)], case: &str) {
        let got_codes: Vec<C> = got.iter().map(|&(_, c)| c).collect();
        let want_codes: Vec<C> = want.iter().map(|&(_, c)| c).collect();
        assert_eq!(got_codes, want_codes, "{case}: bucket sequence");
        for (i, (&(peeked, _), &(cost, _))) in got.iter().zip(want).enumerate() {
            if let Some(peeked) = peeked {
                assert_eq!(
                    peeked.to_bits(),
                    cost.to_bits(),
                    "{case}: cost of bucket {i}"
                );
            }
        }
    }
}
