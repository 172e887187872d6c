//! Multi-index hashing (Norouzi, Punjani & Fleet, CVPR 2012/TPAMI 2014) —
//! the appendix baseline (paper Figs 18–19).
//!
//! The `m`-bit code is chopped into `s` substrings, each indexed in its own
//! hash table. By pigeonhole, an item whose full code is within Hamming
//! distance `d` of the query matches at least one substring within
//! `⌊d/s⌋`; so probing every substring table out to radius `r'` finds *all*
//! items with full distance `≤ s·(r'+1) − 1`. Candidates are de-duplicated
//! and filtered by their full-code distance — the overhead that makes MIH
//! slightly slower than plain hash lookup at the short code lengths used for
//! bucket indexes (the appendix's observation).

use crate::code::{hamming, CodeWord, FixedWeightMasks};
use std::collections::HashMap;

/// One substring block: bit range and substring hash table.
///
/// A substring is at most 64 bits wide regardless of the full code width,
/// so substring keys and flip masks stay plain `u64`s — only the full codes
/// are width-generic.
#[derive(Clone, Debug)]
struct Block {
    /// First bit of the substring in the full code.
    lo: usize,
    /// Substring width in bits (≤ 64).
    bits: usize,
    /// substring code → item ids.
    table: HashMap<u64, Vec<u32>>,
}

impl Block {
    #[inline]
    fn extract<C: CodeWord>(&self, code: C) -> u64 {
        code.extract(self.lo, self.bits)
    }
}

/// A built multi-index-hashing index over one table's codes.
#[derive(Clone, Debug)]
pub struct MihIndex<C: CodeWord = u64> {
    m: usize,
    blocks: Vec<Block>,
    /// Full code per item, for the filtering step.
    codes: Vec<C>,
}

impl<C: CodeWord> MihIndex<C> {
    /// Build with `s` substring blocks over per-item `codes` of length
    /// `code_length`. Panics unless `1 ≤ s ≤ code_length ≤ C::BITS` and
    /// every block fits in 64 bits (`s ≥ ⌈m/64⌉`).
    pub fn build(code_length: usize, codes: &[C], s: usize) -> MihIndex<C> {
        assert!(
            (1..=C::BITS).contains(&code_length),
            "code length must be in 1..={}",
            C::BITS
        );
        assert!(s >= 1 && s <= code_length, "need 1 <= s <= m");
        assert!(
            code_length.div_ceil(s) <= 64,
            "substring blocks must fit in 64 bits (need s >= m/64)"
        );
        let base = code_length / s;
        let extra = code_length % s;
        let mut blocks = Vec::with_capacity(s);
        let mut lo = 0;
        for b in 0..s {
            let bits = base + usize::from(b < extra);
            let mut table: HashMap<u64, Vec<u32>> = HashMap::new();
            for (i, &code) in codes.iter().enumerate() {
                let sub = code.extract(lo, bits);
                table.entry(sub).or_default().push(i as u32);
            }
            blocks.push(Block { lo, bits, table });
            lo += bits;
        }
        MihIndex {
            m: code_length,
            blocks,
            codes: codes.to_vec(),
        }
    }

    /// Number of substring blocks.
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Code length `m`.
    pub fn code_length(&self) -> usize {
        self.m
    }

    /// Serialize the prebuilt block tables for a binary snapshot (see
    /// [`crate::persist`]). Substring buckets are written sorted by key for
    /// a deterministic byte stream; per-bucket id order is preserved so a
    /// reloaded index visits candidates in the exact order of the original.
    pub(crate) fn wire_write(&self, w: &mut gqr_linalg::wire::ByteWriter) {
        w.put_usize(self.m);
        let mut code_blocks = Vec::with_capacity(self.codes.len() * C::BLOCKS);
        for code in &self.codes {
            for b in 0..C::BLOCKS {
                code_blocks.push(code.block(b));
            }
        }
        w.put_u64_slice(&code_blocks);
        w.put_usize(self.blocks.len());
        for block in &self.blocks {
            w.put_usize(block.lo);
            w.put_usize(block.bits);
            let mut keys: Vec<u64> = block.table.keys().copied().collect();
            keys.sort_unstable();
            w.put_usize(keys.len());
            for key in keys {
                // Substring keys are `u32` on the wire when the block fits in
                // 32 bits — byte-identical to the v2 stream — and `u64` for
                // the wider blocks only wide codes produce.
                if block.bits <= 32 {
                    w.put_u32(key as u32);
                } else {
                    w.put_u64(key);
                }
                w.put_u32_slice(&block.table[&key]);
            }
        }
    }

    /// Decode an index written by [`MihIndex::wire_write`], re-validating
    /// the block partition and substring tables.
    pub(crate) fn wire_read(
        r: &mut gqr_linalg::wire::ByteReader<'_>,
    ) -> Result<MihIndex<C>, gqr_linalg::wire::WireError> {
        use gqr_linalg::wire::WireError;
        let m = r.get_usize()?;
        if !(1..=C::BITS).contains(&m) {
            return Err(WireError::Malformed("MIH code length out of range"));
        }
        let raw = r.get_u64_vec()?;
        if raw.len() % C::BLOCKS != 0 {
            return Err(WireError::Malformed("MIH code payload not block-aligned"));
        }
        let mut codes = Vec::with_capacity(raw.len() / C::BLOCKS);
        for chunk in raw.chunks_exact(C::BLOCKS) {
            for (i, &b) in chunk.iter().enumerate() {
                let width_here = C::BITS.saturating_sub(i * 64).min(64);
                if width_here < 64 && b >> width_here != 0 {
                    return Err(WireError::Malformed("MIH code exceeds code width"));
                }
            }
            codes.push(C::from_blocks(chunk));
        }
        let n_blocks = r.get_usize()?;
        if n_blocks == 0 || n_blocks > m {
            return Err(WireError::Malformed("MIH block count out of range"));
        }
        let mut blocks = Vec::with_capacity(n_blocks);
        let mut next_lo = 0usize;
        for _ in 0..n_blocks {
            let lo = r.get_usize()?;
            let bits = r.get_usize()?;
            if lo != next_lo || bits == 0 || bits > 64 || lo + bits > m {
                return Err(WireError::Malformed("MIH blocks are not a bit partition"));
            }
            next_lo = lo + bits;
            let n_keys = r.get_usize()?;
            let mut table: HashMap<u64, Vec<u32>> = HashMap::with_capacity(n_keys);
            let mut total = 0usize;
            for _ in 0..n_keys {
                let key = if bits <= 32 {
                    r.get_u32()? as u64
                } else {
                    r.get_u64()?
                };
                if bits < 64 && key >= (1u64 << bits) {
                    return Err(WireError::Malformed("MIH substring key exceeds width"));
                }
                let ids = r.get_u32_vec()?;
                if ids.iter().any(|&id| id as usize >= codes.len()) {
                    return Err(WireError::Malformed("MIH bucket id out of range"));
                }
                total += ids.len();
                if table.insert(key, ids).is_some() {
                    return Err(WireError::Malformed("MIH duplicate substring key"));
                }
            }
            if total != codes.len() {
                return Err(WireError::Malformed(
                    "MIH block contents disagree with item count",
                ));
            }
            blocks.push(Block { lo, bits, table });
        }
        if next_lo != m {
            return Err(WireError::Malformed("MIH blocks do not cover the code"));
        }
        Ok(MihIndex { m, blocks, codes })
    }

    /// Start a search for `query_code`; the searcher yields item-id batches
    /// in ascending *full* Hamming distance.
    pub fn search(&self, query_code: C) -> MihSearcher<'_, C> {
        MihSearcher::over(vec![(self, 0)], query_code)
    }
}

/// Progressive MIH search state for one query.
pub struct MihSearcher<'a, C: CodeWord = u64> {
    /// Row-disjoint indexes searched as one, each with the global id of its
    /// local id 0. They share one block partition.
    parts: Vec<(&'a MihIndex<C>, u32)>,
    /// Code length.
    m: usize,
    query: C,
    /// Next per-block substring radius to expand.
    radius: usize,
    /// Items found so far (global ids), grouped by full Hamming distance.
    levels: Vec<Vec<u32>>,
    /// Levels `< emitted_level` have already been handed out.
    emitted_level: usize,
    visited: Vec<bool>,
    remaining: usize,
    lookups: usize,
    /// Lookups that hit no substring bucket (the MIH analogue of an empty
    /// generated bucket).
    misses: usize,
    /// Stop expanding once this many substring-bucket lookups have run.
    lookup_cap: usize,
    /// Set when the cap fired mid-expansion; already-found items are then
    /// flushed in ascending full distance and the search ends.
    capped: bool,
    duplicates: usize,
}

impl<'a, C: CodeWord> MihSearcher<'a, C> {
    /// Search row-disjoint `parts` — each index with the global id of its
    /// local id 0 — as one index over all their rows. One substring lookup
    /// is the concatenation of every part's bucket, shifted to global ids,
    /// and misses only when every part misses; `visited` and the levels
    /// speak global ids. Parts listed in ascending first id therefore yield
    /// the units and counters of one index built over all the rows in that
    /// order (the argument of `SegmentedTables`).
    ///
    /// # Panics
    ///
    /// Panics unless every part has the same code length and block
    /// partition.
    pub(crate) fn over(parts: Vec<(&'a MihIndex<C>, u32)>, query: C) -> Self {
        let m = parts.first().map_or(0, |(mih, _)| mih.m);
        let partition = |mih: &MihIndex<C>| mih.blocks.iter().map(|b| (b.lo, b.bits)).collect();
        let first: Vec<_> = parts.first().map_or(Vec::new(), |(mih, _)| partition(mih));
        assert!(
            parts.iter().all(|(mih, _)| partition(mih) == first),
            "MIH parts must share one block partition"
        );
        let rows = |(mih, first): &(&MihIndex<C>, u32)| *first as usize + mih.codes.len();
        let universe = parts.iter().map(rows).max().unwrap_or(0);
        let remaining = parts.iter().map(|(mih, _)| mih.codes.len()).sum();
        MihSearcher {
            parts,
            m,
            query,
            radius: 0,
            levels: vec![Vec::new(); m + 1],
            emitted_level: 0,
            visited: vec![false; universe],
            remaining,
            lookups: 0,
            misses: 0,
            lookup_cap: usize::MAX,
            capped: false,
            duplicates: 0,
        }
    }

    /// Bound the number of substring-bucket lookups. A single radius
    /// expansion enumerates `C(bits, r)` masks per block — exponential in
    /// the substring width — so budget-limited callers must cap *inside*
    /// the expansion, not between batches. Once the cap fires, items found
    /// so far are still emitted (in ascending full distance); no further
    /// buckets are probed.
    pub fn set_lookup_cap(&mut self, cap: usize) {
        self.lookup_cap = cap;
    }
    /// Append the next confirmed batch of item ids (one full-distance level)
    /// to `out`. Returns the level's Hamming distance, or `None` when every
    /// indexed item has been emitted. Batches arrive in strictly ascending
    /// full distance; empty levels are skipped.
    pub fn next_batch(&mut self, out: &mut Vec<u32>) -> Option<u32> {
        loop {
            // Confirmed bound: after expanding substring radius r' in every
            // block, all items with full distance ≤ s·(r'+1) − 1 are found.
            // `self.radius` counts radii already expanded, so the bound is
            // s·radius − 1 (−1 before the first expansion: nothing is safe).
            let &(first, _) = self.parts.first()?;
            let s = first.blocks.len();
            let confirmed = (s * self.radius) as isize - 1;

            // Emit the next non-empty confirmed level, if any.
            while (self.emitted_level as isize) <= confirmed.min(self.m as isize) {
                let level = &mut self.levels[self.emitted_level];
                let dist = self.emitted_level as u32;
                self.emitted_level += 1;
                if !level.is_empty() {
                    out.append(level);
                    return Some(dist);
                }
            }

            if self.remaining == 0 || self.capped {
                // Every indexed item has been found (or the lookup cap
                // fired); flush unemitted levels without waiting for the
                // pigeonhole bound to catch up.
                while self.emitted_level <= self.m {
                    let dist = self.emitted_level as u32;
                    let level = &mut self.levels[self.emitted_level];
                    self.emitted_level += 1;
                    if !level.is_empty() {
                        out.append(level);
                        return Some(dist);
                    }
                }
                return None;
            }
            if self.emitted_level > self.m {
                return None;
            }

            // Expand one more substring radius across all blocks.
            let r = self.radius;
            self.radius += 1;
            'expand: for (b, block) in first.blocks.iter().enumerate() {
                if r > block.bits {
                    continue;
                }
                let q_sub = block.extract(self.query);
                for mask in FixedWeightMasks::<u64>::new(block.bits, r) {
                    if self.lookups >= self.lookup_cap {
                        self.capped = true;
                        break 'expand;
                    }
                    self.lookups += 1;
                    let probe = q_sub ^ mask;
                    let mut hit = false;
                    for &(part, first_id) in &self.parts {
                        let Some(items) = part.blocks[b].table.get(&probe) else {
                            continue;
                        };
                        hit = true;
                        for &local in items {
                            let id = first_id + local;
                            let v = &mut self.visited[id as usize];
                            if *v {
                                self.duplicates += 1;
                                continue;
                            }
                            *v = true;
                            self.remaining -= 1;
                            let full = hamming(part.codes[local as usize], self.query) as usize;
                            self.levels[full].push(id);
                        }
                    }
                    self.misses += usize::from(!hit);
                }
            }
        }
    }

    /// Substring-bucket lookups performed so far.
    pub fn lookups(&self) -> usize {
        self.lookups
    }

    /// Lookups so far that hit no substring bucket. Reported as
    /// `ProbeStats::empty_buckets` so MIH probing cost reads like the
    /// bucket-ranking strategies: probe units issued vs probe units that
    /// found nothing.
    pub fn empty_lookups(&self) -> usize {
        self.misses
    }

    /// Whether the lookup cap cut an expansion short (as opposed to the
    /// search running dry).
    pub fn hit_lookup_cap(&self) -> bool {
        self.capped
    }

    /// Duplicate candidate hits suppressed so far (MIH's extra cost).
    pub fn duplicates(&self) -> usize {
        self.duplicates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_codes() -> Vec<u64> {
        vec![0b000000, 0b000001, 0b000011, 0b111000, 0b111111, 0b101010]
    }

    #[test]
    fn batches_ascend_in_full_distance_and_cover_everything() {
        let codes = toy_codes();
        let mih = MihIndex::build(6, &codes, 2);
        let mut s = mih.search(0b000000);
        let mut out = Vec::new();
        let mut last = -1i64;
        let mut all = Vec::new();
        while let Some(d) = s.next_batch(&mut out) {
            assert!((d as i64) > last, "levels strictly ascending");
            last = d as i64;
            for &id in &out {
                assert_eq!(hamming(codes[id as usize], 0), d, "item in wrong level");
            }
            all.extend_from_slice(&out);
            out.clear();
        }
        all.sort_unstable();
        assert_eq!(
            all,
            vec![0, 1, 2, 3, 4, 5],
            "every item emitted exactly once"
        );
    }

    #[test]
    fn first_batch_is_exact_match_bucket() {
        let codes = toy_codes();
        let mih = MihIndex::build(6, &codes, 3);
        let mut s = mih.search(0b111111);
        let mut out = Vec::new();
        let d = s.next_batch(&mut out).unwrap();
        assert_eq!(d, 0);
        assert_eq!(out, vec![4]);
    }

    #[test]
    fn duplicates_are_counted_not_emitted() {
        // Item 0b000000 matches the query substring in *both* blocks at
        // radius 0 when query == item ⇒ second hit is a duplicate.
        let codes = vec![0b0000u64, 0b0000];
        let mih = MihIndex::build(4, &codes, 2);
        let mut s = mih.search(0b0000);
        let mut out = Vec::new();
        assert_eq!(s.next_batch(&mut out), Some(0));
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1]);
        assert!(
            s.duplicates() >= 2,
            "each item hit again via the second block"
        );
    }

    #[test]
    fn agrees_with_brute_force_order() {
        // Random-ish codes; MIH emission order must equal sorting by
        // Hamming distance (levels, any order inside a level).
        let codes: Vec<u64> = (0..64u64).map(|i| (i * 2654435761) % 256).collect();
        let mih = MihIndex::build(8, &codes, 2);
        let q = 0b1010_0101u64;
        let mut s = mih.search(q);
        let mut out = Vec::new();
        let mut emitted = Vec::new();
        while s.next_batch(&mut out).is_some() {
            emitted.extend_from_slice(&out);
            out.clear();
        }
        assert_eq!(emitted.len(), 64);
        let dists: Vec<u32> = emitted
            .iter()
            .map(|&i| hamming(codes[i as usize], q))
            .collect();
        assert!(dists.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn parts_search_like_one_index_over_all_rows() {
        let codes: Vec<u64> = (0..90u64).map(|i| (i * 2654435761) % 1024).collect();
        let whole = MihIndex::build(10, &codes, 3);
        // Every batch and counter, with the lookup cap firing or not.
        let drain = |mut s: MihSearcher<'_, u64>, cap: usize| {
            s.set_lookup_cap(cap);
            let (mut out, mut batches) = (Vec::new(), Vec::new());
            while let Some(d) = s.next_batch(&mut out) {
                batches.push((d, std::mem::take(&mut out)));
            }
            let counters = (
                s.lookups(),
                s.empty_lookups(),
                s.duplicates(),
                s.hit_lookup_cap(),
            );
            (batches, counters)
        };
        for split in [0, 1, 37, 89, 90] {
            let (head, tail) = codes.split_at(split);
            let (a, b) = (MihIndex::build(10, head, 3), MihIndex::build(10, tail, 3));
            for q in [0u64, 0b1011001110, 1023] {
                for cap in [usize::MAX, 40] {
                    let parts = vec![(&a, 0), (&b, split as u32)];
                    assert_eq!(
                        drain(MihSearcher::over(parts, q), cap),
                        drain(whole.search(q), cap),
                        "split {split}, q {q:#b}, cap {cap}"
                    );
                }
            }
        }
        assert_eq!(drain(MihSearcher::over(Vec::new(), 5), 9).0, vec![]);
    }

    #[test]
    fn uneven_block_split() {
        // m = 7, s = 2 → blocks of 4 and 3 bits.
        let codes = vec![0b0000000u64, 0b1111111];
        let mih = MihIndex::build(7, &codes, 2);
        assert_eq!(mih.n_blocks(), 2);
        let mut s = mih.search(0);
        let mut out = Vec::new();
        let mut total = 0;
        while s.next_batch(&mut out).is_some() {
            total += out.len();
            out.clear();
        }
        assert_eq!(total, 2);
    }

    #[test]
    fn lookups_grow_with_radius() {
        let codes = vec![0b111111u64]; // only a far item forces deep radii
        let mih = MihIndex::build(6, &codes, 2);
        let mut s = mih.search(0);
        let mut out = Vec::new();
        assert!(s.next_batch(&mut out).is_some());
        assert!(s.lookups() > 2, "must have expanded past radius 0");
    }

    #[test]
    fn empty_lookups_count_missed_substring_buckets() {
        // One far item: most generated substring probes hit nothing.
        let codes = vec![0b111111u64];
        let mih = MihIndex::build(6, &codes, 2);
        let mut s = mih.search(0);
        let mut out = Vec::new();
        while s.next_batch(&mut out).is_some() {
            out.clear();
        }
        assert!(s.empty_lookups() > 0, "missed probes must be counted");
        assert!(
            s.empty_lookups() < s.lookups(),
            "at least one probe hit the occupied bucket"
        );
    }

    #[test]
    fn lookup_cap_stops_mid_expansion_and_flushes_found_items() {
        // Wide substrings (32 bits per block): radius 2 alone costs
        // 2·C(32,2) = 992 lookups, so the cap must bite *inside* an
        // expansion, not between radius batches. Item 0 sits in the query's
        // own bucket; item 1 has substring distance 3 in both blocks and is
        // only reachable at radius 3 (> 10k cumulative lookups).
        let codes = vec![0u64, 0b111 | (0b111 << 32)];
        let mih = MihIndex::build(64, &codes, 2);
        let mut s = mih.search(0);
        s.set_lookup_cap(100);
        let mut out = Vec::new();
        let mut found = Vec::new();
        while s.next_batch(&mut out).is_some() {
            found.append(&mut out);
        }
        assert!(s.lookups() <= 100, "cap exceeded: {}", s.lookups());
        assert_eq!(found, vec![0], "near item flushed, deep item not probed");
        // The uncapped search keeps expanding until it reaches the deep
        // item — far past where the cap stopped.
        let mut unbounded = mih.search(0);
        let mut all = Vec::new();
        while unbounded.next_batch(&mut out).is_some() {
            all.append(&mut out);
        }
        assert!(unbounded.lookups() > 100);
        all.sort_unstable();
        assert_eq!(all, vec![0, 1]);
    }
}
