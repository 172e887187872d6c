//! Binary-code primitives: the [`CodeWord`] width abstraction, Hamming
//! distance, quantization distance, and combinatorics over packed codes.
//!
//! Codes were historically hardwired to `u64` (m ≤ 64). [`CodeWord`]
//! breaks that ceiling: it abstracts the handful of bit operations the
//! probing machinery needs (xor/popcount for Hamming distance, bit
//! extraction for MIH block slicing, carry-propagating add and shifts for
//! Gosper's hack, wire-stable block export) over `u32`, `u64`, `u128`, and
//! the multi-word [`U64x`] widths (192 and 256 bits). Every function in
//! this module is generic over it, defaulting to `u64` so narrow call
//! sites read exactly as before.

use gqr_l2h::QueryEncoding;

/// Maximum number of 64-bit blocks any [`CodeWord`] impl uses (256 bits).
/// Sized scratch buffers (e.g. kernel query blocks) can be stack arrays of
/// this length.
pub const MAX_BLOCKS: usize = 4;

/// A fixed-width binary code word.
///
/// Implementations are plain bit-bags: bit `i` of the code is bit `i % 64`
/// of 64-bit block `i / 64` (little-endian block order). `Ord` must be
/// **numeric** (most-significant block first for multi-word impls) — probe
/// strategies use code comparisons as deterministic tiebreaks, and the
/// cross-width equivalence suite relies on every width ordering codes the
/// same way.
pub trait CodeWord:
    Copy + Eq + Ord + std::hash::Hash + std::fmt::Debug + Send + Sync + 'static
{
    /// Storage width in bits.
    const BITS: usize;

    /// Number of 64-bit blocks backing the word.
    const BLOCKS: usize = Self::BITS.div_ceil(64);

    /// The all-zeros word.
    fn zero() -> Self;

    /// The word whose low 64 bits are `v` (upper bits zero). Panics if `v`
    /// does not fit (e.g. `u32` with a value above `u32::MAX`).
    fn from_u64(v: u64) -> Self;

    /// Build from little-endian 64-bit blocks; missing high blocks are
    /// zero. Panics if a non-zero block lies beyond the word's capacity.
    fn from_blocks(blocks: &[u64]) -> Self;

    /// Block `i` (little-endian); `i ≥ BLOCKS` yields 0.
    fn block(self, i: usize) -> u64;

    /// Bitwise complement (within the storage width).
    fn not(self) -> Self;

    /// Bitwise AND.
    fn and(self, other: Self) -> Self;

    /// Bitwise OR.
    fn or(self, other: Self) -> Self;

    /// Bitwise XOR.
    fn xor(self, other: Self) -> Self;

    /// Left shift by `n` bits; `n ≥ BITS` yields zero.
    fn shl(self, n: usize) -> Self;

    /// Logical right shift by `n` bits; `n ≥ BITS` yields zero.
    fn shr(self, n: usize) -> Self;

    /// Wrapping addition (carries propagate across blocks and drop off the
    /// top) — the `v + c` step of Gosper's hack.
    fn wrapping_add(self, other: Self) -> Self;

    /// Wrapping two's-complement negation.
    fn wrapping_neg(self) -> Self;

    // ---- derived operations -------------------------------------------

    /// Number of set bits.
    #[inline]
    fn popcount(self) -> u32 {
        (0..Self::BLOCKS).map(|i| self.block(i).count_ones()).sum()
    }

    /// Whether the word is all zeros.
    #[inline]
    fn is_zero(self) -> bool {
        (0..Self::BLOCKS).all(|i| self.block(i) == 0)
    }

    /// Trailing zeros (`BITS` for the zero word).
    #[inline]
    fn trailing_zeros(self) -> u32 {
        let mut total = 0u32;
        for i in 0..Self::BLOCKS {
            let b = self.block(i);
            if b != 0 {
                return total + b.trailing_zeros();
            }
            total += 64;
        }
        Self::BITS as u32
    }

    /// Index of the most-significant set bit, or `None` for zero.
    #[inline]
    fn top_set_bit(self) -> Option<usize> {
        for i in (0..Self::BLOCKS).rev() {
            let b = self.block(i);
            if b != 0 {
                return Some(i * 64 + 63 - b.leading_zeros() as usize);
            }
        }
        None
    }

    /// Bit `i` (panics if `i ≥ BITS`).
    #[inline]
    fn bit(self, i: usize) -> bool {
        assert!(i < Self::BITS, "bit index out of range");
        (self.block(i / 64) >> (i % 64)) & 1 == 1
    }

    /// A copy with bit `i` set.
    #[inline]
    fn with_bit(self, i: usize) -> Self {
        assert!(i < Self::BITS, "bit index out of range");
        self.or(Self::from_u64(1).shl(i))
    }

    /// A copy with bit `i` cleared.
    #[inline]
    fn without_bit(self, i: usize) -> Self {
        assert!(i < Self::BITS, "bit index out of range");
        self.and(Self::from_u64(1).shl(i).not())
    }

    /// The lowest set bit in isolation (`v & −v`; zero for zero).
    #[inline]
    fn lowest_set_bit(self) -> Self {
        self.and(self.wrapping_neg())
    }

    /// A copy with the lowest set bit cleared (`v & (v − 1)`).
    #[inline]
    fn clear_lowest_set_bit(self) -> Self {
        self.xor(self.lowest_set_bit())
    }

    /// Hamming distance to `other`.
    #[inline]
    fn hamming(self, other: Self) -> u32 {
        self.xor(other).popcount()
    }

    /// The mask with the low `m` bits set (`m ≤ BITS`).
    fn low_mask(m: usize) -> Self {
        assert!(m <= Self::BITS, "mask width exceeds word width");
        let mut blocks = [0u64; 4];
        for (i, b) in blocks.iter_mut().enumerate().take(Self::BLOCKS) {
            let lo = i * 64;
            *b = if m >= lo + 64 {
                u64::MAX
            } else if m > lo {
                (1u64 << (m - lo)) - 1
            } else {
                0
            };
        }
        Self::from_blocks(&blocks[..Self::BLOCKS])
    }

    /// Extract `width ≤ 64` bits starting at bit `lo` as a `u64` — the MIH
    /// substring slice.
    #[inline]
    fn extract(self, lo: usize, width: usize) -> u64 {
        assert!(width <= 64, "extract width exceeds 64");
        assert!(lo + width <= Self::BITS, "extract range exceeds word width");
        if width == 0 {
            return 0;
        }
        let block = lo / 64;
        let off = lo % 64;
        let mut v = self.block(block) >> off;
        if off + width > 64 {
            v |= self.block(block + 1) << (64 - off);
        }
        if width < 64 {
            v &= (1u64 << width) - 1;
        }
        v
    }

    /// The low 64 bits — the whole code for narrow widths.
    #[inline]
    fn low_u64(self) -> u64 {
        self.block(0)
    }

    /// Write the word's `BLOCKS` little-endian blocks into `out`.
    #[inline]
    fn write_blocks(self, out: &mut [u64]) {
        assert!(out.len() >= Self::BLOCKS, "block buffer too small");
        for (i, o) in out.iter_mut().enumerate().take(Self::BLOCKS) {
            *o = self.block(i);
        }
    }
}

macro_rules! impl_codeword_prim {
    ($ty:ty, $bits:expr) => {
        impl CodeWord for $ty {
            const BITS: usize = $bits;

            #[inline]
            fn zero() -> Self {
                0
            }

            #[inline]
            fn from_u64(v: u64) -> Self {
                assert!(
                    $bits >= 64 || v <= (Self::MAX as u64),
                    "value does not fit a {}-bit code",
                    $bits
                );
                v as $ty
            }

            #[inline]
            fn from_blocks(blocks: &[u64]) -> Self {
                let mut acc: Self = 0;
                for (i, &b) in blocks.iter().enumerate() {
                    if 64 * i < $bits {
                        if $bits - 64 * i < 64 {
                            assert!(
                                b < (1u64 << ($bits - 64 * i)),
                                "block does not fit a {}-bit code",
                                $bits
                            );
                        }
                        acc |= (b as Self) << (64 * i);
                    } else {
                        assert!(b == 0, "non-zero block beyond a {}-bit code", $bits);
                    }
                }
                acc
            }

            #[inline]
            fn block(self, i: usize) -> u64 {
                if 64 * i >= $bits {
                    0
                } else {
                    (self >> (64 * i)) as u64
                }
            }

            #[inline]
            fn not(self) -> Self {
                !self
            }

            #[inline]
            fn and(self, other: Self) -> Self {
                self & other
            }

            #[inline]
            fn or(self, other: Self) -> Self {
                self | other
            }

            #[inline]
            fn xor(self, other: Self) -> Self {
                self ^ other
            }

            #[inline]
            fn shl(self, n: usize) -> Self {
                if n >= $bits {
                    0
                } else {
                    self << n
                }
            }

            #[inline]
            fn shr(self, n: usize) -> Self {
                if n >= $bits {
                    0
                } else {
                    self >> n
                }
            }

            #[inline]
            fn wrapping_add(self, other: Self) -> Self {
                <$ty>::wrapping_add(self, other)
            }

            #[inline]
            fn wrapping_neg(self) -> Self {
                <$ty>::wrapping_neg(self)
            }

            #[inline]
            fn popcount(self) -> u32 {
                self.count_ones()
            }

            #[inline]
            fn is_zero(self) -> bool {
                self == 0
            }

            #[inline]
            fn trailing_zeros(self) -> u32 {
                <$ty>::trailing_zeros(self)
            }
        }
    };
}

impl_codeword_prim!(u32, 32);
impl_codeword_prim!(u64, 64);
impl_codeword_prim!(u128, 128);

/// A multi-word code: `N` little-endian 64-bit blocks (`N = 3` → 192 bits,
/// `N = 4` → 256 bits).
///
/// `Ord` compares numerically (most-significant block first), matching the
/// primitive widths so tiebreaks agree across widths. `Hash` feeds blocks
/// low-to-high through `write_u64`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct U64x<const N: usize>(pub [u64; N]);

/// A 192-bit code word.
pub type U192 = U64x<3>;

/// A 256-bit code word.
pub type U256 = U64x<4>;

impl<const N: usize> std::hash::Hash for U64x<N> {
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        for &b in &self.0 {
            state.write_u64(b);
        }
    }
}

impl<const N: usize> Ord for U64x<N> {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        for i in (0..N).rev() {
            match self.0[i].cmp(&other.0[i]) {
                std::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        std::cmp::Ordering::Equal
    }
}

impl<const N: usize> PartialOrd for U64x<N> {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<const N: usize> CodeWord for U64x<N> {
    const BITS: usize = N * 64;

    #[inline]
    fn zero() -> Self {
        U64x([0; N])
    }

    #[inline]
    fn from_u64(v: u64) -> Self {
        let mut blocks = [0u64; N];
        blocks[0] = v;
        U64x(blocks)
    }

    #[inline]
    fn from_blocks(blocks: &[u64]) -> Self {
        let mut out = [0u64; N];
        for (i, &b) in blocks.iter().enumerate() {
            if i < N {
                out[i] = b;
            } else {
                assert!(b == 0, "non-zero block beyond a {}-bit code", N * 64);
            }
        }
        U64x(out)
    }

    #[inline]
    fn block(self, i: usize) -> u64 {
        if i < N {
            self.0[i]
        } else {
            0
        }
    }

    #[inline]
    fn not(self) -> Self {
        let mut out = self.0;
        for b in &mut out {
            *b = !*b;
        }
        U64x(out)
    }

    #[inline]
    fn and(self, other: Self) -> Self {
        let mut out = self.0;
        for (b, o) in out.iter_mut().zip(&other.0) {
            *b &= o;
        }
        U64x(out)
    }

    #[inline]
    fn or(self, other: Self) -> Self {
        let mut out = self.0;
        for (b, o) in out.iter_mut().zip(&other.0) {
            *b |= o;
        }
        U64x(out)
    }

    #[inline]
    fn xor(self, other: Self) -> Self {
        let mut out = self.0;
        for (b, o) in out.iter_mut().zip(&other.0) {
            *b ^= o;
        }
        U64x(out)
    }

    #[inline]
    fn shl(self, n: usize) -> Self {
        if n >= N * 64 {
            return Self::zero();
        }
        let (word, bit) = (n / 64, n % 64);
        let mut out = [0u64; N];
        for i in (word..N).rev() {
            let mut v = self.0[i - word] << bit;
            if bit > 0 && i > word {
                v |= self.0[i - word - 1] >> (64 - bit);
            }
            out[i] = v;
        }
        U64x(out)
    }

    #[inline]
    fn shr(self, n: usize) -> Self {
        if n >= N * 64 {
            return Self::zero();
        }
        let (word, bit) = (n / 64, n % 64);
        let mut out = [0u64; N];
        for (i, slot) in out.iter_mut().enumerate().take(N - word) {
            let mut v = self.0[i + word] >> bit;
            if bit > 0 && i + word + 1 < N {
                v |= self.0[i + word + 1] << (64 - bit);
            }
            *slot = v;
        }
        U64x(out)
    }

    #[inline]
    fn wrapping_add(self, other: Self) -> Self {
        let mut out = [0u64; N];
        let mut carry = 0u64;
        for (i, slot) in out.iter_mut().enumerate() {
            let (s1, c1) = self.0[i].overflowing_add(other.0[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            *slot = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        U64x(out)
    }

    #[inline]
    fn wrapping_neg(self) -> Self {
        self.not().wrapping_add(Self::from_u64(1))
    }
}

/// Hamming distance between two `m`-bit codes (bits above `m` must be
/// zero). Generic over the code width; defaults to `u64`.
#[inline]
pub fn hamming<C: CodeWord>(a: C, b: C) -> u32 {
    a.hamming(b)
}

/// Convert a model's width-agnostic [`WideQueryEncoding`] into the typed
/// encoding a monomorphized prober consumes. Panics if the code does not
/// fit `C` — callers pick `C` from the model's code length first. The flip
/// costs move, so the conversion is allocation-free.
///
/// [`WideQueryEncoding`]: gqr_l2h::WideQueryEncoding
#[inline]
pub fn typed_encoding<C: CodeWord>(wide: gqr_l2h::WideQueryEncoding) -> QueryEncoding<C> {
    QueryEncoding {
        code: C::from_blocks(wide.code.blocks()),
        flip_costs: wide.flip_costs,
    }
}

/// Quantization distance (paper Definition 1):
/// `dist(q, b) = Σᵢ (cᵢ(q) ⊕ bᵢ) · costᵢ`, where `costᵢ` is the query's
/// per-bit flipping cost (`|pᵢ(q)|` for sign-threshold models).
///
/// Iterates only over the set bits of the XOR, so the cost is proportional
/// to the Hamming distance rather than `m`. Set bits are visited low to
/// high for every width, so the f64 summation order — and therefore the
/// result, bit for bit — is width-independent.
#[inline]
pub fn quantization_distance<C: CodeWord>(query: &QueryEncoding<C>, bucket: C) -> f64 {
    let mut diff = query.code.xor(bucket);
    let mut qd = 0.0;
    while !diff.is_zero() {
        let i = diff.trailing_zeros() as usize;
        qd += query.flip_costs[i];
        diff = diff.clear_lowest_set_bit();
    }
    qd
}

/// Number of `m`-bit codes at Hamming distance exactly `r` from any code:
/// the binomial coefficient `C(m, r)` (paper Fig 2).
pub fn codes_at_distance(m: usize, r: usize) -> u128 {
    if r > m {
        return 0;
    }
    let r = r.min(m - r);
    let mut acc: u128 = 1;
    for i in 0..r {
        acc = acc * (m - i) as u128 / (i + 1) as u128;
    }
    acc
}

/// Iterator over all `m`-bit masks with exactly `k` set bits, in increasing
/// numeric order (Gosper's hack). Used by generate-to-probe Hamming ranking
/// to enumerate flip masks radius by radius without any allocation.
#[derive(Clone, Debug)]
pub struct FixedWeightMasks<C: CodeWord = u64> {
    next: Option<C>,
    limit: C,
}

impl<C: CodeWord> FixedWeightMasks<C> {
    /// Masks of weight `k` within `m` bits. `k == 0` yields exactly `0`.
    /// Panics if `m > C::BITS` or `k > m`.
    pub fn new(m: usize, k: usize) -> FixedWeightMasks<C> {
        assert!(m <= C::BITS, "mask width exceeds code width");
        assert!(k <= m, "weight cannot exceed width");
        let limit = C::low_mask(m);
        let first = C::low_mask(k);
        FixedWeightMasks {
            next: Some(first),
            limit,
        }
    }
}

impl<C: CodeWord> Iterator for FixedWeightMasks<C> {
    type Item = C;

    fn next(&mut self) -> Option<C> {
        let v = self.next?;
        if v > self.limit {
            self.next = None;
            return None;
        }
        // Gosper's hack: next integer with the same popcount. The division
        // by the lowest set bit becomes a shift by its index.
        self.next = if v.is_zero() {
            None
        } else {
            let c = v.lowest_set_bit();
            let r = v.wrapping_add(c);
            if r.is_zero() {
                None // overflowed the word: no more masks
            } else {
                Some(r.xor(v).shr(2 + v.trailing_zeros() as usize).or(r))
            }
        };
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qe(code: u64, costs: &[f64]) -> QueryEncoding {
        QueryEncoding {
            code,
            flip_costs: costs.to_vec(),
        }
    }

    #[test]
    fn hamming_basic() {
        assert_eq!(hamming(0b1010u64, 0b1010), 0);
        assert_eq!(hamming(0b1010u64, 0b0101), 4);
        assert_eq!(hamming(0u64, u64::MAX), 64);
    }

    #[test]
    fn hamming_wide_widths() {
        assert_eq!(hamming(0u128, u128::MAX), 128);
        assert_eq!(hamming(0b1010u32, 0b0101), 4);
        let a = U64x([u64::MAX; 4]);
        assert_eq!(hamming(U256::zero(), a), 256);
        let b = U64x([0, u64::MAX, 0]);
        assert_eq!(hamming(U192::zero(), b), 64);
        assert_eq!(b.trailing_zeros(), 64);
    }

    #[test]
    fn qd_matches_paper_example() {
        // Paper Fig 3: p(q1) = (−0.2, −0.8) ⇒ c(q1) = (0,0), costs (0.2, 0.8).
        // QD: (0,0)→0, (1,0)→0.2, (0,1)→0.8, (1,1)→1.0.
        let q = qe(0b00, &[0.2, 0.8]);
        assert!((quantization_distance(&q, 0b00) - 0.0).abs() < 1e-12);
        assert!((quantization_distance(&q, 0b01) - 0.2).abs() < 1e-12);
        assert!((quantization_distance(&q, 0b10) - 0.8).abs() < 1e-12);
        assert!((quantization_distance(&q, 0b11) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn qd_distinguishes_equal_hamming_buckets() {
        let q = qe(0b00, &[0.2, 0.8]);
        let b1 = 0b01; // flip cheap bit
        let b2 = 0b10; // flip expensive bit
        assert_eq!(hamming(q.code, b1), hamming(q.code, b2));
        assert!(quantization_distance(&q, b1) < quantization_distance(&q, b2));
    }

    #[test]
    fn qd_is_width_independent_bitwise() {
        let costs: Vec<f64> = (0..24).map(|i| 0.1 + 0.03 * i as f64).collect();
        let code = 0x00A5_5A3Cu64;
        let bucket = 0x0013_37FFu64;
        let narrow = quantization_distance(
            &QueryEncoding {
                code,
                flip_costs: costs.clone(),
            },
            bucket,
        );
        let wide128 = quantization_distance(
            &QueryEncoding {
                code: code as u128,
                flip_costs: costs.clone(),
            },
            bucket as u128,
        );
        let wide256 = quantization_distance(
            &QueryEncoding {
                code: U256::from_u64(code),
                flip_costs: costs.clone(),
            },
            U256::from_u64(bucket),
        );
        assert_eq!(narrow.to_bits(), wide128.to_bits());
        assert_eq!(narrow.to_bits(), wide256.to_bits());
    }

    #[test]
    fn codes_at_distance_binomials() {
        assert_eq!(codes_at_distance(20, 0), 1);
        assert_eq!(codes_at_distance(20, 1), 20);
        assert_eq!(codes_at_distance(20, 10), 184_756);
        assert_eq!(codes_at_distance(20, 20), 1);
        assert_eq!(codes_at_distance(20, 21), 0);
        // Fig 2's shape: the count peaks at r = m/2.
        assert!(codes_at_distance(20, 10) > codes_at_distance(20, 4));
    }

    #[test]
    fn fixed_weight_masks_enumerate_exactly_once() {
        for m in [1usize, 4, 6] {
            for k in 0..=m {
                let masks: Vec<u64> = FixedWeightMasks::new(m, k).collect();
                assert_eq!(masks.len() as u128, codes_at_distance(m, k), "m={m} k={k}");
                let set: std::collections::HashSet<u64> = masks.iter().copied().collect();
                assert_eq!(set.len(), masks.len(), "duplicates for m={m} k={k}");
                for &mask in &masks {
                    assert_eq!(mask.count_ones() as usize, k);
                    assert!(mask < (1u64 << m));
                }
                // Increasing numeric order.
                assert!(masks.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn fixed_weight_masks_full_width() {
        // k == m: single mask of all ones.
        let masks: Vec<u64> = FixedWeightMasks::new(8, 8).collect();
        assert_eq!(masks, vec![0xFF]);
        // m = 64 edge: weight-1 masks are all powers of two (64 of them).
        let count = FixedWeightMasks::<u64>::new(64, 1).count();
        assert_eq!(count, 64);
    }

    #[test]
    fn fixed_weight_masks_agree_across_widths() {
        for m in [6usize, 20] {
            for k in 0..=4 {
                let narrow: Vec<u64> = FixedWeightMasks::new(m, k).collect();
                let wide: Vec<u128> = FixedWeightMasks::new(m, k).collect();
                let multi: Vec<U192> = FixedWeightMasks::new(m, k).collect();
                assert_eq!(narrow.len(), wide.len());
                assert_eq!(narrow.len(), multi.len());
                for ((&n, &w), &x) in narrow.iter().zip(&wide).zip(&multi) {
                    assert_eq!(n as u128, w, "m={m} k={k}");
                    assert_eq!(U192::from_u64(n), x, "m={m} k={k}");
                }
            }
        }
    }

    #[test]
    fn fixed_weight_masks_span_blocks() {
        // m = 130 crosses two block boundaries; weight-1 masks must place a
        // single bit at every position, in ascending numeric order.
        let masks: Vec<U256> = FixedWeightMasks::new(130, 1).collect();
        assert_eq!(masks.len(), 130);
        for (i, &mask) in masks.iter().enumerate() {
            assert_eq!(mask, U256::from_u64(1).shl(i));
        }
        assert!(masks.windows(2).all(|w| w[0] < w[1]));
        // Weight-2 count over 130 bits: C(130, 2).
        let count = FixedWeightMasks::<U256>::new(130, 2).count();
        assert_eq!(count as u128, codes_at_distance(130, 2));
    }

    #[test]
    fn qd_zero_cost_bits_are_free() {
        let q = qe(0b000, &[0.0, 0.5, 0.0]);
        assert_eq!(quantization_distance(&q, 0b101), 0.0);
        assert!((quantization_distance(&q, 0b111) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn u64x_ord_is_numeric() {
        let lo = U64x([u64::MAX, 0, 0]);
        let hi = U64x([0, 1, 0]);
        assert!(lo < hi, "high blocks dominate the comparison");
        assert!(U192::zero() < lo);
        assert_eq!(hi.cmp(&hi), std::cmp::Ordering::Equal);
    }

    #[test]
    fn codeword_bit_ops_roundtrip() {
        fn check<C: CodeWord>() {
            let m = C::BITS.min(200);
            let mut v = C::zero();
            for i in (0..m).step_by(7) {
                v = v.with_bit(i);
                assert!(v.bit(i));
            }
            let pop = v.popcount();
            let cleared = v.without_bit(0);
            assert_eq!(cleared.popcount(), pop - 1);
            assert_eq!(v.trailing_zeros(), 0);
            assert_eq!(cleared.trailing_zeros(), 7);
            assert_eq!(v.top_set_bit(), Some(((m - 1) / 7) * 7));
            // Block export/import round-trips.
            let mut blocks = [0u64; 4];
            v.write_blocks(&mut blocks);
            assert_eq!(C::from_blocks(&blocks[..C::BLOCKS]), v);
        }
        check::<u32>();
        check::<u64>();
        check::<u128>();
        check::<U192>();
        check::<U256>();
    }

    #[test]
    fn codeword_extract_spans_blocks() {
        // Bits 60..76 of a 128-bit word straddle the block boundary.
        let v = u128::from_blocks(&[0xF000_0000_0000_0000, 0x0000_0000_0000_0ABC]);
        assert_eq!(v.extract(60, 16), 0xABCF);
        assert_eq!(v.extract(0, 64), 0xF000_0000_0000_0000);
        assert_eq!(v.extract(64, 64), 0x0000_0000_0000_0ABC);
        let w = U64x([1, 2, 3, 4]);
        assert_eq!(w.extract(64, 8), 2);
        assert_eq!(w.extract(192, 64), 4);
        // Bits 63..66 straddle blocks 0 and 1: bit 65 (block 1's bit 1) lands
        // in result position 2.
        assert_eq!(w.extract(63, 3), 0b100);
    }

    #[test]
    fn codeword_low_mask_edges() {
        assert_eq!(u32::low_mask(32), u32::MAX);
        assert_eq!(u64::low_mask(0), 0);
        assert_eq!(u128::low_mask(128), u128::MAX);
        assert_eq!(U256::low_mask(256), U64x([u64::MAX; 4]));
        assert_eq!(U256::low_mask(65), U64x([u64::MAX, 1, 0, 0]));
        assert_eq!(U192::low_mask(64), U64x([u64::MAX, 0, 0]));
    }

    #[test]
    fn u64x_arithmetic_carries() {
        let max = U64x([u64::MAX, u64::MAX, u64::MAX]);
        assert_eq!(max.wrapping_add(U192::from_u64(1)), U192::zero());
        let v = U64x([u64::MAX, 0, 0]);
        assert_eq!(v.wrapping_add(U192::from_u64(1)), U64x([0, 1, 0]));
        assert_eq!(U192::from_u64(1).wrapping_neg(), max);
        assert_eq!(v.shl(64), U64x([0, u64::MAX, 0]));
        assert_eq!(v.shl(1), U64x([u64::MAX - 1, 1, 0]));
        assert_eq!(U64x([0, 1, 0]).shr(1), U64x([1u64 << 63, 0, 0]));
        assert_eq!(max.shr(191), U192::from_u64(1));
        assert_eq!(max.shr(192), U192::zero());
    }
}
