//! The hash table: bucket code → item ids.

use crate::code::CodeWord;
use gqr_l2h::{CodeBlocks, HashModel};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Identity-style hasher for bucket codes. Codes are short (≤ 256 bits) and
/// already well-mixed by the hash functions, so hashing them again with
/// SipHash wastes the hot lookup path; a multiply-fold is enough. Wide
/// codes feed one `write_u64` per block; the fold chains them, and a
/// single-block (u64) code hashes exactly as it always has.
#[derive(Default)]
pub struct CodeHasher(u64);

impl Hasher for CodeHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("CodeHasher only hashes bucket code blocks");
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        // Fibonacci multiply to spread low-entropy codes across buckets;
        // the XOR chains multi-block codes (a no-op on the first block).
        self.0 = (self.0 ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.write_u64(v as u64);
        self.write_u64((v >> 64) as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }
}

type CodeMap<C, V> = HashMap<C, V, BuildHasherDefault<CodeHasher>>;

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

/// A single hash table: every item is stored in the bucket of its binary
/// code. Item payloads (the vectors) stay outside; buckets hold `u32` ids.
/// Generic over the code width (default `u64`, the narrow path).
#[derive(Clone, Debug)]
pub struct HashTable<C: CodeWord = u64> {
    code_length: usize,
    buckets: CodeMap<C, Vec<u32>>,
    n_items: usize,
    /// Largest item id ever inserted (not lowered on remove); the engine
    /// checks its data buffer covers this.
    max_id: Option<u32>,
}

impl<C: CodeWord> HashTable<C> {
    /// Hash every row of `data` (row-major, `dim` columns) with `model`,
    /// through [`encode_rows`]. Panics if the model's code length exceeds
    /// the table's code width.
    pub fn build<M: HashModel + ?Sized>(model: &M, data: &[f32], dim: usize) -> HashTable<C> {
        HashTable::from_codes(model.code_length(), &encode_rows(model, data, dim))
    }

    /// Build from precomputed codes (one per item).
    pub fn from_codes(code_length: usize, codes: &[C]) -> HashTable<C> {
        let mut buckets: CodeMap<C, Vec<u32>> = HashMap::default();
        for (i, &c) in codes.iter().enumerate() {
            debug_assert!(c.and(C::low_mask(code_length).not()).is_zero());
            buckets.entry(c).or_default().push(i as u32);
        }
        let max_id = codes.len().checked_sub(1).map(|i| i as u32);
        HashTable {
            code_length,
            buckets,
            n_items: codes.len(),
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
        self.n_items
    }

    /// Largest item id ever inserted, if any (not lowered by removals).
    #[inline]
    pub fn max_id(&self) -> Option<u32> {
        self.max_id
    }

    /// Number of occupied buckets (`B` in the paper's complexity analysis).
    #[inline]
    pub fn n_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Item ids in bucket `code`, or an empty slice.
    #[inline]
    pub fn bucket(&self, code: C) -> &[u32] {
        self.buckets.get(&code).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether bucket `code` holds any items.
    #[inline]
    pub fn contains(&self, code: C) -> bool {
        self.buckets.contains_key(&code)
    }

    /// Iterate over `(code, items)` pairs of occupied buckets (arbitrary
    /// order).
    pub fn occupied(&self) -> impl Iterator<Item = (C, &[u32])> + '_ {
        self.buckets.iter().map(|(&c, v)| (c, v.as_slice()))
    }

    /// All occupied bucket codes (arbitrary order).
    pub fn codes(&self) -> impl Iterator<Item = C> + '_ {
        self.buckets.keys().copied()
    }

    /// Per-item codes recovered from the buckets: `codes[id]` is the bucket
    /// code of item `id`. Requires a dense id space `0..n_items` (true for
    /// any table built with [`HashTable::build`] / [`HashTable::from_codes`]
    /// and not mutated); paths like MIH construction consume this instead of
    /// re-encoding every vector. Panics when ids have holes (e.g. after
    /// removals).
    pub fn dense_codes(&self) -> Vec<C> {
        assert_eq!(
            self.max_id.map_or(0, |m| m as usize + 1),
            self.n_items,
            "dense_codes requires a dense id space 0..n_items"
        );
        let mut codes = vec![C::zero(); self.n_items];
        let mut filled = 0usize;
        for (&code, items) in &self.buckets {
            for &id in items {
                codes[id as usize] = code;
                filled += 1;
            }
        }
        assert_eq!(
            filled, self.n_items,
            "bucket contents disagree with n_items"
        );
        codes
    }

    /// Expected items per bucket over occupied buckets (the paper targets
    /// `EP = 10` when choosing `m`).
    pub fn mean_bucket_size(&self) -> f64 {
        if self.buckets.is_empty() {
            0.0
        } else {
            self.n_items as f64 / self.buckets.len() as f64
        }
    }

    /// Insert an item id under its code (incremental indexing). The caller
    /// owns id assignment; inserting an id twice creates two entries.
    pub fn insert(&mut self, code: C, id: u32) {
        debug_assert!(code.and(C::low_mask(self.code_length).not()).is_zero());
        self.buckets.entry(code).or_default().push(id);
        self.n_items += 1;
        self.max_id = Some(self.max_id.map_or(id, |m| m.max(id)));
    }

    /// Hash and insert one item vector.
    pub fn insert_item<M: HashModel + ?Sized>(&mut self, model: &M, item: &[f32], id: u32) {
        assert_eq!(
            model.code_length(),
            self.code_length,
            "model/table code length mismatch"
        );
        self.insert(C::from_blocks(model.encode_wide(item).blocks()), id);
    }

    /// Remove one occurrence of `id` from bucket `code`. Returns whether the
    /// id was present. An emptied bucket is dropped so `n_buckets()` /
    /// [`HashTable::occupied`] never report ghosts, and the bucket map's
    /// capacity is released once deletions empty most of it (a
    /// delete-heavy workload would otherwise hold peak-size allocations
    /// forever).
    pub fn remove(&mut self, code: C, id: u32) -> bool {
        let Some(items) = self.buckets.get_mut(&code) else {
            return false;
        };
        let Some(pos) = items.iter().position(|&x| x == id) else {
            return false;
        };
        items.swap_remove(pos);
        if items.is_empty() {
            self.buckets.remove(&code);
            // Shrink only on a 4x surplus (and never below 64 slots) so
            // insert/remove churn around a size boundary cannot thrash
            // reallocation.
            if self.buckets.capacity() > 64 && self.buckets.len() * 4 < self.buckets.capacity() {
                self.buckets.shrink_to(self.buckets.len() * 2);
            }
        }
        self.n_items -= 1;
        true
    }

    /// Approximate heap size of the table in bytes (keys + id payload), used
    /// by the memory-consumption comparisons (Fig 12 discussion).
    pub fn approx_bytes(&self) -> usize {
        let per_bucket = std::mem::size_of::<C>() + std::mem::size_of::<Vec<u32>>();
        self.buckets.len() * per_bucket + self.n_items * std::mem::size_of::<u32>()
    }

    /// Serialize the table for a binary snapshot (see [`crate::persist`]).
    /// Buckets are written sorted by code so the byte stream is
    /// deterministic; the id order *within* each bucket is preserved, which
    /// is what makes a reloaded table return bit-identical search results
    /// (candidates are evaluated in bucket order).
    pub(crate) fn wire_write(&self, w: &mut gqr_linalg::wire::ByteWriter) {
        w.put_usize(self.code_length);
        w.put_usize(self.n_items);
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
        let mut codes: Vec<C> = self.buckets.keys().copied().collect();
        codes.sort_unstable();
        w.put_usize(codes.len());
        for code in codes {
            for b in 0..C::BLOCKS {
                w.put_u64(code.block(b));
            }
            w.put_u32_slice(&self.buckets[&code]);
        }
    }

    /// Decode a table written by [`HashTable::wire_write`], re-validating
    /// every structural invariant so a wrong-but-checksummed payload is
    /// rejected instead of panicking later in the engine.
    pub(crate) fn wire_read(
        r: &mut gqr_linalg::wire::ByteReader<'_>,
    ) -> Result<HashTable<C>, gqr_linalg::wire::WireError> {
        use gqr_linalg::wire::WireError;
        let code_length = r.get_usize()?;
        if code_length == 0 || code_length > C::BITS {
            return Err(WireError::Malformed("table code length out of range"));
        }
        let n_items = r.get_usize()?;
        let has_max = r.get_u8()?;
        let max_raw = r.get_u32()?;
        let max_id = match has_max {
            0 => None,
            1 => Some(max_raw),
            _ => return Err(WireError::Malformed("table max_id flag out of range")),
        };
        let n_buckets = r.get_usize()?;
        let mut buckets: CodeMap<C, Vec<u32>> = HashMap::default();
        buckets.reserve(n_buckets.min(n_items));
        let mut total = 0usize;
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
            let ids = r.get_u32_vec()?;
            if ids.is_empty() {
                return Err(WireError::Malformed("empty bucket in table payload"));
            }
            if ids.iter().any(|&id| Some(id) > max_id) {
                return Err(WireError::Malformed("bucket id exceeds table max_id"));
            }
            total += ids.len();
            if buckets.insert(code, ids).is_some() {
                return Err(WireError::Malformed("duplicate bucket code in table"));
            }
        }
        if total != n_items {
            return Err(WireError::Malformed(
                "bucket contents disagree with n_items",
            ));
        }
        Ok(HashTable {
            code_length,
            buckets,
            n_items,
            max_id,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqr_l2h::pcah::Pcah;

    #[test]
    fn insert_and_remove_roundtrip() {
        let mut table = HashTable::from_codes(4, &[0b0001u64, 0b0010]);
        table.insert(0b0001, 7);
        assert_eq!(table.n_items(), 3);
        assert_eq!(table.bucket(0b0001), &[0, 7]);

        assert!(table.remove(0b0001, 0));
        assert_eq!(table.bucket(0b0001), &[7]);
        assert!(!table.remove(0b0001, 99), "absent id");
        assert!(!table.remove(0b1111, 7), "absent bucket");

        assert!(table.remove(0b0001, 7));
        assert!(!table.contains(0b0001), "emptied bucket is dropped");
        assert_eq!(table.n_items(), 1);
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
        table.remove(5, 1);
        let _ = table.dense_codes();
    }

    #[test]
    fn draining_the_table_leaves_no_ghost_buckets() {
        // One item per bucket: deleting everything must take n_buckets()
        // and occupied() to zero, not leave ghost entries behind.
        let codes: Vec<u64> = (0..4096u64).collect();
        let mut table = HashTable::from_codes(64, &codes);
        assert_eq!(table.n_buckets(), 4096);
        let peak_capacity = table.buckets.capacity();
        for (id, &code) in codes.iter().enumerate() {
            assert!(table.remove(code, id as u32));
        }
        assert_eq!(table.n_items(), 0);
        assert_eq!(table.n_buckets(), 0, "no ghost buckets after deletes");
        assert_eq!(table.occupied().count(), 0);
        assert!(
            table.buckets.capacity() < peak_capacity / 2,
            "bucket map released its peak allocation ({} -> {})",
            peak_capacity,
            table.buckets.capacity()
        );
        // The drained table keeps working.
        table.insert(17, 9);
        assert_eq!(table.bucket(17), &[9]);
    }

    #[test]
    fn partial_deletes_keep_shared_buckets_alive() {
        let codes = [3u64, 3, 3, 8];
        let mut table = HashTable::from_codes(4, &codes);
        assert!(table.remove(3, 1));
        assert_eq!(table.n_buckets(), 2, "bucket 3 still holds items");
        assert_eq!(table.bucket(3).len(), 2);
        assert!(table.remove(8, 3));
        assert_eq!(table.n_buckets(), 1, "emptied bucket 8 dropped");
    }

    #[test]
    fn approx_bytes_scales_with_content() {
        let small = HashTable::from_codes(4, &[1u64, 2]);
        let big = HashTable::from_codes(4, &(0..1000u64).map(|i| i % 16).collect::<Vec<_>>());
        assert!(big.approx_bytes() > small.approx_bytes());
    }
}
