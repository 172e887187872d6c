//! The hash table: bucket code → item ids, as three flat arrays.
//!
//! A [`HashTable`] holds `codes`, the occupied bucket codes in ascending
//! order; `ids`, every item id, bucket after bucket in code order and
//! ascending within a bucket; and `offsets`, the bucket bounds in `ids`.
//! There is no per-bucket allocation and no hashing.
//!
//! **Lookup rule.** When the code space is small next to the row count —
//! `2^m ≤ 2·n_items` — `offsets` is indexed by code: bucket `c` is
//! `ids[offsets[c]..offsets[c + 1]]`, one load and no compare (a 13-bit
//! table over 100 000 rows spends 32 KB on it). Otherwise `offsets` is
//! indexed by a bucket's rank in `codes`, and a lookup first finds the
//! code's rank: a small index over the sorted codes (`prefix`, one entry per
//! value of the code's top `⌊log2 B⌋ + 1` bits, fewer than `2B + 2`
//! entries) narrows it to the codes that share those bits — none or one,
//! mostly — and a scan among them decides. The rule reads only the table.
//!
//! Both regimes of learning-to-hash querying read these arrays: table
//! lookup (GHR, GQR, the range search) goes through [`HashTable::bucket`];
//! code ranking (HR, QR) walks [`HashTable::codes`]. Row-disjoint tables of
//! one hash model merge into one in a single pass over their sorted codes
//! ([`HashTable::union`]): that is how an engine of several parts probes
//! one table.

use crate::code::CodeWord;
use gqr_l2h::{CodeBlocks, HashModel};

/// Rows per [`HashModel::encode_rows`] call inside [`encode_rows`]: bounds
/// the `CodeBlocks` scratch (40 bytes a row) to 40 KiB per thread.
const ENCODE_CHUNK: usize = 1024;
/// Below this many rows [`encode_rows`] stays on the calling thread.
const ENCODE_PARALLEL_MIN: usize = 1 << 14;

/// The code of every row of `data` (row-major, `dim` columns) at width `C`:
/// the one bulk encoder behind every table build ([`HashTable::build`],
/// the sharded build, the live base segment).
///
/// The rows are split into contiguous runs, one per
/// `available_parallelism` scoped thread (small inputs stay on the calling
/// thread), and each run goes through the model's
/// [`HashModel::encode_rows`]. So `codes[i]` is exactly
/// `C::from_blocks(model.encode_wide(row_i).blocks())`, whatever the split.
/// Panics if the dimensionality or the code width does not fit.
pub fn encode_rows<C: CodeWord, M: HashModel + ?Sized>(
    model: &M,
    data: &[f32],
    dim: usize,
) -> Vec<C> {
    assert_eq!(model.dim(), dim, "model and data dimensionality differ");
    assert!(data.len().is_multiple_of(dim), "data must be n×dim");
    assert!(
        model.code_length() <= C::BITS,
        "model code length {} exceeds the {}-bit code width",
        model.code_length(),
        C::BITS
    );
    let threads = if data.len() / dim < ENCODE_PARALLEL_MIN {
        1
    } else {
        std::thread::available_parallelism().map_or(1, |t| t.get())
    };
    encode_runs(model, data, dim, threads)
}

/// [`encode_rows`] split into `threads` contiguous runs.
fn encode_runs<C: CodeWord, M: HashModel + ?Sized>(
    model: &M,
    data: &[f32],
    dim: usize,
    threads: usize,
) -> Vec<C> {
    let n = data.len() / dim;
    let run = n.div_ceil(threads.max(1)).max(1);
    let mut codes = vec![C::zero(); n];
    let runs: Vec<(&[f32], &mut [C])> = data.chunks(run * dim).zip(codes.chunks_mut(run)).collect();
    gqr_linalg::scoped_map(runs, |(rows, codes)| {
        let mut scratch =
            vec![CodeBlocks::zero(model.code_length()); ENCODE_CHUNK.min(codes.len())];
        for (rows, codes) in rows
            .chunks(ENCODE_CHUNK * dim)
            .zip(codes.chunks_mut(ENCODE_CHUNK))
        {
            let scratch = &mut scratch[..codes.len()];
            model.encode_rows(rows, scratch);
            for (code, blocks) in codes.iter_mut().zip(scratch.iter()) {
                *code = C::from_blocks(blocks.blocks());
            }
        }
    });
    codes
}

/// The lookup rule (see the module docs): whether a table of `n_items`
/// rows over `code_length`-bit codes indexes `offsets` by code.
fn indexed_by_code(code_length: usize, n_items: usize) -> bool {
    code_length < 64 && 1u64 << code_length <= 2 * n_items as u64
}

/// `len` entries; entry `x` holds the value of the first key ≥ `x` among
/// `keys` (ascending), and `fill` past the last key. Both code-indexed
/// offsets and the prefix index are laid out this way.
fn spread(keys: impl Iterator<Item = (usize, u32)>, len: usize, fill: u32) -> Vec<u32> {
    let mut out = Vec::with_capacity(len);
    for (key, value) in keys {
        out.resize(key + 1, value);
    }
    out.resize(len, fill);
    out
}

/// A single hash table: every item is stored in the bucket of its binary
/// code. Item payloads (the vectors) stay outside; buckets hold `u32` ids.
/// Generic over the code width (default `u64`, the narrow path).
#[derive(Clone, Debug)]
pub struct HashTable<C: CodeWord = u64> {
    code_length: usize,
    /// Occupied bucket codes, ascending.
    codes: Vec<C>,
    /// Bucket bounds in `ids`: indexed by code when `by_code`, else by rank
    /// in `codes`; one entry more than there are codes or ranks.
    offsets: Vec<u32>,
    /// Item ids, bucket-major in code order, ascending within a bucket.
    ids: Vec<u32>,
    /// The lookup rule's verdict for this table.
    by_code: bool,
    /// Unless `by_code`: the ranks in `codes` of the codes whose top
    /// `⌊log2 B⌋ + 1` bits (the code shifted right by `prefix_shift`) are
    /// `h` start at `prefix[h]` and end at `prefix[h + 1]`. Empty when
    /// `by_code`.
    prefix: Vec<u32>,
    prefix_shift: usize,
    /// Largest item id, if any; the engine checks its data buffer covers
    /// this.
    max_id: Option<u32>,
}

impl<C: CodeWord> HashTable<C> {
    /// Hash every row of `data` (row-major, `dim` columns) with `model`,
    /// through [`encode_rows`]. Panics if the model's code length exceeds
    /// the table's code width.
    pub fn build<M: HashModel + ?Sized>(model: &M, data: &[f32], dim: usize) -> HashTable<C> {
        HashTable::from_codes(model.code_length(), &encode_rows(model, data, dim))
    }

    /// Build from precomputed codes (one per item, item `i` getting id `i`).
    pub fn from_codes(code_length: usize, codes: &[C]) -> HashTable<C> {
        assert!(
            codes.len() <= u32::MAX as usize,
            "id space is u32; {} codes",
            codes.len()
        );
        debug_assert!(codes
            .iter()
            .all(|c| c.and(C::low_mask(code_length).not()).is_zero()));
        let max_id = codes.len().checked_sub(1).map(|i| i as u32);
        if indexed_by_code(code_length, codes.len()) {
            return HashTable::count_codes(code_length, codes, max_id);
        }
        let mut pairs: Vec<(C, u32)> = codes.iter().copied().zip(0..).collect();
        // Ids are distinct, so the unstable sort is deterministic and
        // leaves each bucket's ids ascending.
        pairs.sort_unstable();
        let (mut occupied, mut bounds) = (Vec::new(), Vec::new());
        let mut ids = Vec::with_capacity(pairs.len());
        for (code, id) in pairs {
            if occupied.last() != Some(&code) {
                occupied.push(code);
                bounds.push(ids.len() as u32);
            }
            ids.push(id);
        }
        bounds.push(ids.len() as u32);
        HashTable::from_ranked(code_length, occupied, bounds, ids, max_id)
    }

    /// [`HashTable::from_codes`] for a table indexed by code: a counting
    /// sort, `O(n + 2^m)`, with the code as the index.
    fn count_codes(code_length: usize, codes: &[C], max_id: Option<u32>) -> HashTable<C> {
        let space = 1usize << code_length;
        let mut offsets = vec![0u32; space + 1];
        for code in codes {
            offsets[code.low_u64() as usize + 1] += 1;
        }
        for c in 1..=space {
            offsets[c] += offsets[c - 1];
        }
        // Scatter with `offsets[c]` as bucket `c`'s cursor: afterwards it
        // holds the bucket's end, so one shift restores the starts.
        let mut ids = vec![0u32; codes.len()];
        for (id, code) in (0..).zip(codes) {
            let cursor = &mut offsets[code.low_u64() as usize];
            ids[*cursor as usize] = id;
            *cursor += 1;
        }
        offsets.rotate_right(1);
        offsets[0] = 0;
        let occupied = (0..space).filter(|&c| offsets[c] < offsets[c + 1]);
        HashTable {
            code_length,
            codes: occupied.map(|c| C::from_u64(c as u64)).collect(),
            offsets,
            ids,
            by_code: true,
            prefix: Vec::new(),
            prefix_shift: 0,
            max_id,
        }
    }

    /// One table over the rows of row-disjoint `parts` of one hash model,
    /// each given with the global id of its local id 0, in ascending first
    /// id. Bucket `c` is every part's bucket `c` shifted to global ids, in
    /// part order: for parts that tile `0..n`, exactly the table
    /// [`HashTable::from_codes`] builds over their codes in order. One merge
    /// of the parts' sorted codes; nothing is hashed or sorted.
    ///
    /// # Panics
    ///
    /// Panics when `parts` is empty or the parts' code lengths differ.
    pub fn union(parts: &[(&HashTable<C>, u32)]) -> HashTable<C> {
        let code_length = parts.first().expect("at least one part").0.code_length;
        assert!(
            parts.iter().all(|(t, _)| t.code_length == code_length),
            "parts disagree on code length"
        );
        let n = parts.iter().map(|(t, _)| t.n_items()).sum();
        let (mut codes, mut bounds) = (Vec::new(), Vec::new());
        let mut ids = Vec::with_capacity(n);
        let mut ranks = vec![0usize; parts.len()];
        let heads = |ranks: &[usize]| {
            let heads = parts.iter().zip(ranks).map(|((t, _), &r)| t.codes.get(r));
            heads.flatten().min().copied()
        };
        while let Some(code) = heads(&ranks) {
            codes.push(code);
            bounds.push(ids.len() as u32);
            for ((table, first_id), r) in parts.iter().zip(&mut ranks) {
                if table.codes.get(*r) == Some(&code) {
                    let bucket = table.ids_at(table.slot_of_rank(*r));
                    ids.extend(bucket.iter().map(|&local| first_id + local));
                    *r += 1;
                }
            }
        }
        bounds.push(ids.len() as u32);
        let max_ids = parts
            .iter()
            .filter_map(|(t, first_id)| Some(first_id + t.max_id?));
        HashTable::from_ranked(code_length, codes, bounds, ids, max_ids.max())
    }

    /// Lay out buckets given by rank — bucket `codes[r]` is
    /// `ids[bounds[r]..bounds[r + 1]]`, `codes` ascending — under the
    /// lookup rule.
    fn from_ranked(
        code_length: usize,
        codes: Vec<C>,
        bounds: Vec<u32>,
        ids: Vec<u32>,
        max_id: Option<u32>,
    ) -> HashTable<C> {
        debug_assert!(codes.windows(2).all(|w| w[0] < w[1]));
        debug_assert_eq!(bounds.len(), codes.len() + 1);
        let by_code = indexed_by_code(code_length, ids.len());
        let (offsets, prefix, prefix_shift) = if by_code {
            let keys = codes.iter().map(|c| c.low_u64() as usize).zip(bounds);
            let offsets = spread(keys, (1 << code_length) + 1, ids.len() as u32);
            (offsets, Vec::new(), 0)
        } else {
            let bits = codes.len().checked_ilog2().map_or(0, |b| b as usize + 1);
            let shift = code_length - bits.min(code_length);
            let keys = codes
                .iter()
                .map(|c| c.shr(shift).low_u64() as usize)
                .zip(0..);
            let prefix = spread(keys, (1 << (code_length - shift)) + 1, codes.len() as u32);
            (bounds, prefix, shift)
        };
        HashTable {
            code_length,
            codes,
            offsets,
            ids,
            by_code,
            prefix,
            prefix_shift,
            max_id,
        }
    }

    /// Code length `m`.
    #[inline]
    pub fn code_length(&self) -> usize {
        self.code_length
    }

    /// Number of indexed items.
    #[inline]
    pub fn n_items(&self) -> usize {
        self.ids.len()
    }

    /// Largest indexed item id, if any.
    #[inline]
    pub fn max_id(&self) -> Option<u32> {
        self.max_id
    }

    /// Number of occupied buckets (`B` in the paper's complexity analysis).
    #[inline]
    pub fn n_buckets(&self) -> usize {
        self.codes.len()
    }

    /// Where bucket `code` lies in `offsets`, when it can hold items.
    #[inline]
    fn slot(&self, code: C) -> Option<usize> {
        if self.by_code {
            let slot = code.low_u64() as usize;
            let in_space =
                slot < self.offsets.len() - 1 && (1..C::BLOCKS).all(|b| code.block(b) == 0);
            in_space.then_some(slot)
        } else {
            let top = code.shr(self.prefix_shift).low_u64() as usize;
            if top >= self.prefix.len() - 1 {
                return None;
            }
            let (lo, hi) = (self.prefix[top] as usize, self.prefix[top + 1] as usize);
            // A short run is scanned; a long one (top bits that barely vary)
            // is searched.
            let run = &self.codes[lo..hi];
            let rank = match run.len() <= 8 {
                true => run.iter().position(|&c| c == code),
                false => run.binary_search(&code).ok(),
            };
            Some(lo + rank?)
        }
    }

    /// Where the bucket of `codes[rank]` lies in `offsets`.
    #[inline]
    fn slot_of_rank(&self, rank: usize) -> usize {
        if self.by_code {
            self.codes[rank].low_u64() as usize
        } else {
            rank
        }
    }

    /// The ids between the bounds at `slot` and `slot + 1`.
    #[inline]
    fn ids_at(&self, slot: usize) -> &[u32] {
        &self.ids[self.offsets[slot] as usize..self.offsets[slot + 1] as usize]
    }

    /// Item ids in bucket `code`, or an empty slice.
    #[inline]
    pub fn bucket(&self, code: C) -> &[u32] {
        self.slot(code).map_or(&[], |slot| self.ids_at(slot))
    }

    /// Whether bucket `code` holds any items.
    #[inline]
    pub fn contains(&self, code: C) -> bool {
        self.slot(code)
            .is_some_and(|s| self.offsets[s] < self.offsets[s + 1])
    }

    /// Iterate over `(code, items)` pairs of occupied buckets, in ascending
    /// code order.
    pub fn occupied(&self) -> impl Iterator<Item = (C, &[u32])> + '_ {
        let slots = (0..self.codes.len()).map(|r| self.slot_of_rank(r));
        self.codes
            .iter()
            .zip(slots)
            .map(|(&c, s)| (c, self.ids_at(s)))
    }

    /// All occupied bucket codes, in ascending order.
    pub fn codes(&self) -> impl Iterator<Item = C> + '_ {
        self.codes.iter().copied()
    }

    /// The occupied bucket codes as the ascending array they are stored in.
    pub(crate) fn sorted_codes(&self) -> &[C] {
        &self.codes
    }

    /// Per-item codes recovered from the buckets: `codes[id]` is the bucket
    /// code of item `id`. Requires a dense id space `0..n_items` (true for
    /// any table built with [`HashTable::build`], [`HashTable::from_codes`]
    /// or the union of parts that tile their ids); paths like MIH
    /// construction consume this instead of re-encoding every vector.
    /// Panics when ids have holes.
    pub fn dense_codes(&self) -> Vec<C> {
        assert_eq!(
            self.max_id.map_or(0, |m| m as usize + 1),
            self.n_items(),
            "dense_codes requires a dense id space 0..n_items"
        );
        let mut codes = vec![C::zero(); self.n_items()];
        for (code, items) in self.occupied() {
            for &id in items {
                codes[id as usize] = code;
            }
        }
        codes
    }

    /// Expected items per bucket over occupied buckets (the paper targets
    /// `EP = 10` when choosing `m`).
    pub fn mean_bucket_size(&self) -> f64 {
        if self.codes.is_empty() {
            0.0
        } else {
            self.n_items() as f64 / self.codes.len() as f64
        }
    }

    /// Insert an item id under its code (incremental indexing). The caller
    /// owns id assignment; inserting an id twice creates two entries, and
    /// the id goes last in its bucket.
    ///
    /// The arrays are rewritten: `O(n_items + n_buckets)` per call, plus
    /// the code space when the table is indexed by code. For bulk loads use
    /// [`HashTable::from_codes`].
    pub fn insert(&mut self, code: C, id: u32) {
        debug_assert!(code.and(C::low_mask(self.code_length).not()).is_zero());
        let mut bounds: Vec<u32> = match self.by_code {
            true => (0..self.codes.len())
                .map(|r| self.offsets[self.slot_of_rank(r)])
                .chain([self.ids.len() as u32])
                .collect(),
            false => std::mem::take(&mut self.offsets),
        };
        let rank = self.codes.binary_search(&code).unwrap_or_else(|rank| {
            // A new, empty bucket where the code sorts.
            self.codes.insert(rank, code);
            bounds.insert(rank, bounds[rank]);
            rank
        });
        self.ids.insert(bounds[rank + 1] as usize, id);
        for bound in &mut bounds[rank + 1..] {
            *bound += 1;
        }
        let (codes, ids) = (
            std::mem::take(&mut self.codes),
            std::mem::take(&mut self.ids),
        );
        let max_id = Some(self.max_id.map_or(id, |m| m.max(id)));
        *self = HashTable::from_ranked(self.code_length, codes, bounds, ids, max_id);
    }

    /// Hash and insert one item vector (see [`HashTable::insert`]).
    pub fn insert_item<M: HashModel + ?Sized>(&mut self, model: &M, item: &[f32], id: u32) {
        assert_eq!(
            model.code_length(),
            self.code_length,
            "model/table code length mismatch"
        );
        self.insert(C::from_blocks(model.encode_wide(item).blocks()), id);
    }

    /// Heap size of the table in bytes: its arrays (and the prefix index
    /// of a table not indexed by code).
    pub fn approx_bytes(&self) -> usize {
        self.codes.len() * std::mem::size_of::<C>()
            + (self.offsets.len() + self.ids.len() + self.prefix.len()) * std::mem::size_of::<u32>()
    }

    /// Serialize the table for a binary snapshot (see [`crate::persist`]):
    /// the buckets in ascending code order, each with its ids in stored
    /// order, which is what makes a reloaded table return bit-identical
    /// search results (candidates are evaluated in bucket order).
    pub(crate) fn wire_write(&self, w: &mut gqr_linalg::wire::ByteWriter) {
        w.put_usize(self.code_length);
        w.put_usize(self.n_items());
        match self.max_id {
            Some(id) => {
                w.put_u8(1);
                w.put_u32(id);
            }
            None => {
                w.put_u8(0);
                w.put_u32(0);
            }
        }
        w.put_usize(self.codes.len());
        for (code, items) in self.occupied() {
            for b in 0..C::BLOCKS {
                w.put_u64(code.block(b));
            }
            w.put_u32_slice(items);
        }
    }

    /// Decode a table written by [`HashTable::wire_write`], re-validating
    /// every structural invariant so a wrong-but-checksummed payload is
    /// rejected instead of panicking later in the engine. Bucket codes must
    /// come strictly ascending, as the writer puts them: codes out of order
    /// (or repeated) are rejected, not sorted.
    pub(crate) fn wire_read(
        r: &mut gqr_linalg::wire::ByteReader<'_>,
    ) -> Result<HashTable<C>, gqr_linalg::wire::WireError> {
        use gqr_linalg::wire::WireError;
        let code_length = r.get_usize()?;
        if code_length == 0 || code_length > C::BITS {
            return Err(WireError::Malformed("table code length out of range"));
        }
        let n_items = r.get_usize()?;
        if n_items > u32::MAX as usize {
            return Err(WireError::Malformed("table holds more than 2^32 items"));
        }
        let has_max = r.get_u8()?;
        let max_raw = r.get_u32()?;
        let max_id = match has_max {
            0 => None,
            1 => Some(max_raw),
            _ => return Err(WireError::Malformed("table max_id flag out of range")),
        };
        let n_buckets = r.get_usize()?;
        let (mut codes, mut bounds) = (Vec::new(), Vec::new());
        codes.reserve(n_buckets.min(r.remaining() / (8 * C::BLOCKS)));
        bounds.reserve(codes.capacity() + 1);
        let mut ids = Vec::with_capacity(n_items.min(r.remaining() / 4));
        let mut blocks = [0u64; 4];
        for _ in 0..n_buckets {
            for (i, b) in blocks.iter_mut().enumerate().take(C::BLOCKS) {
                *b = r.get_u64()?;
                // Bits beyond the storage width must be clear before
                // from_blocks (which would panic instead of erroring).
                let width_here = C::BITS.saturating_sub(i * 64).min(64);
                if width_here < 64 && *b >> width_here != 0 {
                    return Err(WireError::Malformed("bucket code exceeds code width"));
                }
            }
            let code = C::from_blocks(&blocks[..C::BLOCKS]);
            if !code.and(C::low_mask(code_length).not()).is_zero() {
                return Err(WireError::Malformed("bucket code exceeds code length"));
            }
            if codes.last().is_some_and(|&last| last >= code) {
                return Err(WireError::Malformed(
                    "bucket codes out of ascending order in table",
                ));
            }
            let len = r.get_len(4)?;
            if len == 0 {
                return Err(WireError::Malformed("empty bucket in table payload"));
            }
            if ids.len() + len > n_items {
                return Err(WireError::Malformed(
                    "bucket contents disagree with n_items",
                ));
            }
            codes.push(code);
            bounds.push(ids.len() as u32);
            for _ in 0..len {
                let id = r.get_u32()?;
                if Some(id) > max_id {
                    return Err(WireError::Malformed("bucket id exceeds table max_id"));
                }
                ids.push(id);
            }
        }
        if ids.len() != n_items {
            return Err(WireError::Malformed(
                "bucket contents disagree with n_items",
            ));
        }
        bounds.push(ids.len() as u32);
        Ok(HashTable::from_ranked(
            code_length,
            codes,
            bounds,
            ids,
            max_id,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqr_l2h::pcah::Pcah;
    use std::collections::HashMap;

    #[test]
    fn insert_appends_to_a_bucket_or_opens_one() {
        let mut table = HashTable::from_codes(4, &[0b0001u64, 0b0010]);
        table.insert(0b0001, 7);
        assert_eq!(table.n_items(), 3);
        assert_eq!(table.bucket(0b0001), &[0, 7]);
        table.insert(0b0000, 9);
        assert_eq!(table.codes().collect::<Vec<_>>(), [0b0000, 0b0001, 0b0010]);
        assert_eq!(table.bucket(0b0000), &[9]);
        assert_eq!(table.bucket(0b0010), &[1]);
        assert_eq!(table.max_id(), Some(9));
        // Growing past 2^(m-1) rows switches the lookup to the code index;
        // the buckets stay as they were.
        for id in 10..20 {
            table.insert(0b1111, id);
        }
        assert!(table.by_code);
        assert_eq!(table.bucket(0b0001), &[0, 7]);
        assert_eq!(table.bucket(0b1111), &(10..20).collect::<Vec<_>>()[..]);
        assert_eq!(table.n_buckets(), 4);
    }

    #[test]
    fn insert_item_uses_model_encoding() {
        let data = grid_data();
        let model = Pcah::train(&data, 2, 2).unwrap();
        let mut table: HashTable = HashTable::build(&model, &data, 2);
        let new_item = [3.0f32, -1.0];
        table.insert_item(&model, &new_item, 100);
        let code = model.encode(&new_item);
        assert!(table.bucket(code).contains(&100));
        assert_eq!(table.n_items(), 101);
    }

    fn grid_data() -> Vec<f32> {
        let mut data = Vec::new();
        for i in 0..100u32 {
            data.push((i % 10) as f32 - 4.5);
            data.push((i / 10) as f32 - 4.5);
        }
        data
    }

    #[test]
    fn bulk_encoding_equals_per_row_encoding_at_every_split() {
        use crate::code::U256;
        use gqr_l2h::lsh::Lsh;
        use gqr_l2h::sh::SpectralHashing;
        // More rows than one encode chunk, so runs split mid-chunk too.
        let dim = 3;
        let data: Vec<f32> = (0..2_100 * dim)
            .map(|i| ((i * 7919) % 613) as f32 / 61.0 - 5.0)
            .collect();
        let pcah = Pcah::train(&data, dim, 3).unwrap();
        let sh = SpectralHashing::train(&data, dim, 9).unwrap();
        let lsh = Lsh::train(&data, dim, 200, 5).unwrap();
        let rows = || data.chunks_exact(dim);
        for threads in [1, 2, 3, 7] {
            for model in [&pcah as &dyn HashModel, &sh] {
                let got: Vec<u64> = encode_runs(model, &data, dim, threads);
                let want: Vec<u64> = rows().map(|r| model.encode(r)).collect();
                assert_eq!(got, want, "{}, {threads} threads", model.name());
                let got: Vec<u128> = encode_runs(model, &data, dim, threads);
                assert!(got.iter().zip(&want).all(|(&g, &w)| g == u128::from(w)));
            }
            let got: Vec<U256> = encode_runs(&lsh, &data, dim, threads);
            let want: Vec<U256> = rows()
                .map(|r| U256::from_blocks(lsh.encode_wide(r).blocks()))
                .collect();
            assert_eq!(got, want, "wide LSH, {threads} threads");
        }
        // The table holds each bucket's ids in ascending order, as when rows
        // were inserted one at a time.
        let table: HashTable = HashTable::build(&pcah, &data, dim);
        let mut reference: HashMap<u64, Vec<u32>> = HashMap::new();
        for (i, row) in rows().enumerate() {
            reference
                .entry(pcah.encode(row))
                .or_default()
                .push(i as u32);
        }
        assert_eq!(table.n_buckets(), reference.len());
        for (code, ids) in &reference {
            assert_eq!(table.bucket(*code), &ids[..]);
        }
    }

    #[test]
    fn every_item_lands_in_exactly_one_bucket() {
        let data = grid_data();
        let model = Pcah::train(&data, 2, 2).unwrap();
        let table: HashTable = HashTable::build(&model, &data, 2);
        assert_eq!(table.n_items(), 100);
        let total: usize = table.occupied().map(|(_, items)| items.len()).sum();
        assert_eq!(total, 100);
        let mut seen = [false; 100];
        for (_, items) in table.occupied() {
            for &i in items {
                assert!(!seen[i as usize]);
                seen[i as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn bucket_lookup_matches_encoding() {
        let data = grid_data();
        let model = Pcah::train(&data, 2, 2).unwrap();
        let table: HashTable = HashTable::build(&model, &data, 2);
        for (i, row) in data.chunks_exact(2).enumerate() {
            let code = model.encode(row);
            assert!(table.bucket(code).contains(&(i as u32)));
        }
    }

    #[test]
    fn missing_bucket_is_empty() {
        let table = HashTable::from_codes(4, &[0b0001u64, 0b0001, 0b1000]);
        assert_eq!(table.bucket(0b0001), &[0, 1]);
        assert_eq!(table.bucket(0b0010), &[] as &[u32]);
        assert!(!table.contains(0b0010));
        assert_eq!(table.n_buckets(), 2);
        assert!((table.mean_bucket_size() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn from_codes_roundtrip_through_codes_iter() {
        let codes = [1u64, 5, 5, 9, 1];
        let table = HashTable::from_codes(4, &codes);
        let mut occupied: Vec<u64> = table.codes().collect();
        occupied.sort_unstable();
        assert_eq!(occupied, vec![1, 5, 9]);
    }

    #[test]
    fn dense_codes_recovers_per_item_codes() {
        let codes = [1u64, 5, 5, 9, 1];
        let table = HashTable::from_codes(4, &codes);
        assert_eq!(table.dense_codes(), codes);
        let data = grid_data();
        let model = Pcah::train(&data, 2, 2).unwrap();
        let built: HashTable = HashTable::build(&model, &data, 2);
        let dense = built.dense_codes();
        for (i, row) in data.chunks_exact(2).enumerate() {
            assert_eq!(dense[i], model.encode(row));
        }
    }

    #[test]
    #[should_panic(expected = "dense id space")]
    fn dense_codes_rejects_holes() {
        let mut table = HashTable::from_codes(4, &[1u64, 5, 9]);
        table.insert(5, 10);
        let _ = table.dense_codes();
    }

    #[test]
    fn approx_bytes_scales_with_content() {
        let small = HashTable::from_codes(4, &[1u64, 2]);
        let big = HashTable::from_codes(4, &(0..1000u64).map(|i| i % 16).collect::<Vec<_>>());
        assert!(big.approx_bytes() > small.approx_bytes());
    }
}
