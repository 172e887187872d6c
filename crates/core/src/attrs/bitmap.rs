//! Compressed bitmap over the `u32` id space (roaring-style).
//!
//! Posting lists in the attribute store must answer three questions fast —
//! membership (`contains`), cardinality (`len`), and set algebra
//! (`and`/`or`/`and_not`) — while staying small for both sparse tags
//! (a handful of ids) and dense ones (most of the corpus). A flat sorted
//! `Vec<u32>` wins the first case and loses the second; a plain bit vector
//! the reverse. The classic answer is the two-level *roaring* layout: ids
//! are split into a high 16-bit *key* and a low 16-bit offset, and each key
//! owns a container that is either a sorted `u16` array (sparse) or a
//! 65536-bit block (dense). Containers promote to bits above
//! [`ARRAY_MAX`] entries and demote back below it, so the representation
//! is canonical: two bitmaps holding the same set are byte-identical,
//! which the snapshot round-trip tests rely on.

use gqr_linalg::wire::{ByteReader, ByteWriter, WireError};

/// Above this many entries an array container is promoted to a bit
/// container (the break-even point: 4096 × 2 bytes = the 8 KiB block).
const ARRAY_MAX: usize = 4096;
/// `u64` words in one bit container (65536 bits).
const BITS_WORDS: usize = 1024;

#[derive(Clone, Debug, PartialEq, Eq)]
enum Container {
    /// Sorted, deduplicated low-16-bit offsets.
    Array(Vec<u16>),
    /// 65536-bit block plus its popcount.
    Bits {
        words: Box<[u64; BITS_WORDS]>,
        len: u32,
    },
}

impl Container {
    fn len(&self) -> u64 {
        match self {
            Container::Array(v) => v.len() as u64,
            Container::Bits { len, .. } => *len as u64,
        }
    }

    fn contains(&self, low: u16) -> bool {
        match self {
            Container::Array(v) => v.binary_search(&low).is_ok(),
            Container::Bits { words, .. } => words[low as usize >> 6] & (1u64 << (low & 63)) != 0,
        }
    }

    /// Canonicalize: promote oversized arrays, demote undersized blocks.
    fn normalize(self) -> Container {
        match self {
            Container::Array(v) if v.len() > ARRAY_MAX => {
                let mut words = Box::new([0u64; BITS_WORDS]);
                for &low in &v {
                    words[low as usize >> 6] |= 1u64 << (low & 63);
                }
                Container::Bits {
                    words,
                    len: v.len() as u32,
                }
            }
            Container::Bits { words, len } if (len as usize) <= ARRAY_MAX => {
                let mut v = Vec::with_capacity(len as usize);
                for (w, &word) in words.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let b = bits.trailing_zeros();
                        v.push(((w as u32) << 6 | b) as u16);
                        bits &= bits - 1;
                    }
                }
                Container::Array(v)
            }
            c => c,
        }
    }

    fn iter(&self) -> Vec<u16> {
        match self {
            Container::Array(v) => v.clone(),
            Container::Bits { words, len } => {
                let mut v = Vec::with_capacity(*len as usize);
                for (w, &word) in words.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let b = bits.trailing_zeros();
                        v.push(((w as u32) << 6 | b) as u16);
                        bits &= bits - 1;
                    }
                }
                v
            }
        }
    }
}

/// A compressed set of `u32` ids: the posting-list representation of the
/// attribute store, and the survivor set the filter planner hands to the
/// pre-filter and brute-force arms.
///
/// ```
/// use gqr_core::attrs::Bitmap;
///
/// let a = Bitmap::from_sorted(&[1, 5, 70_000]).unwrap();
/// let b = Bitmap::from_sorted(&[5, 70_000, 70_001]).unwrap();
/// let both = a.and(&b);
/// assert_eq!(both.iter().collect::<Vec<_>>(), vec![5, 70_000]);
/// assert_eq!(a.or(&b).len(), 4);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Bitmap {
    /// `(high 16 bits, container)`, sorted by key; empty containers are
    /// never stored.
    containers: Vec<(u16, Container)>,
}

impl Bitmap {
    /// The empty set.
    pub fn new() -> Bitmap {
        Bitmap::default()
    }

    /// Build from strictly ascending ids; rejects unsorted or duplicate
    /// input (posting lists are built from one pass over the column, so a
    /// violation is a bug, not data).
    pub fn from_sorted(ids: &[u32]) -> Result<Bitmap, &'static str> {
        let mut containers: Vec<(u16, Container)> = Vec::new();
        let mut prev: Option<u32> = None;
        for &id in ids {
            if prev.is_some_and(|p| p >= id) {
                return Err("ids must be strictly ascending");
            }
            prev = Some(id);
            let (key, low) = ((id >> 16) as u16, id as u16);
            match containers.last_mut() {
                Some((k, Container::Array(v))) if *k == key => v.push(low),
                _ => containers.push((key, Container::Array(vec![low]))),
            }
        }
        let containers = containers
            .into_iter()
            .map(|(k, c)| (k, c.normalize()))
            .collect();
        Ok(Bitmap { containers })
    }

    /// The full range `[0, n)`.
    pub fn full(n: u32) -> Bitmap {
        // Dense by construction: build per-key bit containers directly.
        let mut containers = Vec::new();
        let mut start = 0u32;
        while start < n {
            let key = (start >> 16) as u16;
            let in_block = (n - start).min(1 << 16);
            if in_block as usize <= ARRAY_MAX {
                containers.push((key, Container::Array((0..in_block as u16).collect())));
            } else {
                let mut words = Box::new([0u64; BITS_WORDS]);
                let full_words = in_block as usize / 64;
                for w in words.iter_mut().take(full_words) {
                    *w = u64::MAX;
                }
                let rem = in_block as usize % 64;
                if rem != 0 {
                    words[full_words] = (1u64 << rem) - 1;
                }
                containers.push((
                    key,
                    Container::Bits {
                        words,
                        len: in_block,
                    },
                ));
            }
            start = start.saturating_add(1 << 16);
            if start == 0 {
                break; // n spanned the whole u32 space
            }
        }
        Bitmap { containers }
    }

    /// Number of ids in the set.
    pub fn len(&self) -> u64 {
        self.containers.iter().map(|(_, c)| c.len()).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.containers.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, id: u32) -> bool {
        let key = (id >> 16) as u16;
        match self.containers.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => self.containers[i].1.contains(id as u16),
            Err(_) => false,
        }
    }

    /// Ascending iterator over the ids.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.containers.iter().flat_map(|(key, c)| {
            let base = (*key as u32) << 16;
            c.iter().into_iter().map(move |low| base | low as u32)
        })
    }

    /// Set intersection.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        self.merge(other, |a, b| a && b)
    }

    /// Set union.
    pub fn or(&self, other: &Bitmap) -> Bitmap {
        self.merge(other, |a, b| a || b)
    }

    /// Set difference (`self \ other`).
    pub fn and_not(&self, other: &Bitmap) -> Bitmap {
        self.merge(other, |a, b| a && !b)
    }

    /// Union of every bitmap in `parts`, in one pass: the same set, in the
    /// same canonical representation, as folding [`Bitmap::or`] over them,
    /// without building each intermediate union. Each key's containers are
    /// OR-ed into one 65536-bit block, then demoted if small; a lone part
    /// is cloned.
    pub fn union_all<'a>(parts: impl IntoIterator<Item = &'a Bitmap>) -> Bitmap {
        let parts: Vec<&Bitmap> = parts.into_iter().collect();
        if let [one] = parts[..] {
            return one.clone();
        }
        let mut blocks: Vec<(u16, Box<[u64; BITS_WORDS]>)> = Vec::new();
        for part in parts {
            for (key, container) in &part.containers {
                let i = match blocks.binary_search_by_key(key, |&(k, _)| k) {
                    Ok(i) => i,
                    Err(i) => {
                        blocks.insert(i, (*key, Box::new([0; BITS_WORDS])));
                        i
                    }
                };
                let words = &mut blocks[i].1;
                match container {
                    Container::Array(v) => {
                        for &low in v {
                            words[low as usize >> 6] |= 1u64 << (low & 63);
                        }
                    }
                    Container::Bits { words: other, .. } => {
                        for (w, o) in words.iter_mut().zip(other.iter()) {
                            *w |= o;
                        }
                    }
                }
            }
        }
        let containers = blocks
            .into_iter()
            .map(|(key, words)| {
                let len = words.iter().map(|w| w.count_ones()).sum();
                (key, Container::Bits { words, len }.normalize())
            })
            .collect();
        Bitmap { containers }
    }

    /// Complement within the universe `[0, n)`.
    pub fn complement(&self, n: u32) -> Bitmap {
        Bitmap::full(n).and_not(self)
    }

    /// Generic merge via sorted-id walk. Not the fastest formulation (the
    /// per-container word-wise ops would be), but every caller runs it once
    /// per query on posting lists, and one canonical code path keeps the
    /// representation invariant easy to audit.
    fn merge(&self, other: &Bitmap, keep: impl Fn(bool, bool) -> bool) -> Bitmap {
        let mut out = Vec::new();
        let (mut a, mut b) = (self.iter().peekable(), other.iter().peekable());
        loop {
            match (a.peek().copied(), b.peek().copied()) {
                (Some(x), Some(y)) if x == y => {
                    if keep(true, true) {
                        out.push(x);
                    }
                    a.next();
                    b.next();
                }
                (Some(x), Some(y)) if x < y => {
                    if keep(true, false) {
                        out.push(x);
                    }
                    a.next();
                }
                (Some(_), Some(y)) => {
                    if keep(false, true) {
                        out.push(y);
                    }
                    b.next();
                }
                (Some(x), None) => {
                    if keep(true, false) {
                        out.push(x);
                    }
                    a.next();
                }
                (None, Some(y)) => {
                    if keep(false, true) {
                        out.push(y);
                    }
                    b.next();
                }
                (None, None) => break,
            }
        }
        Bitmap::from_sorted(&out).expect("merge output is sorted")
    }

    /// Serialize: container count, then per container key, tag, payload.
    /// The encoding is canonical — re-encoding a decoded bitmap is
    /// byte-identical.
    pub fn wire_write(&self, w: &mut ByteWriter) {
        w.put_usize(self.containers.len());
        for (key, c) in &self.containers {
            w.put_u16(*key);
            match c {
                Container::Array(v) => {
                    w.put_u8(0);
                    w.put_usize(v.len());
                    for &low in v {
                        w.put_u16(low);
                    }
                }
                Container::Bits { words, len } => {
                    w.put_u8(1);
                    w.put_u32(*len);
                    w.put_u64_slice(&words[..]);
                }
            }
        }
    }

    /// Deserialize with full structural validation: keys ascending,
    /// containers canonical (no empty, no oversized array, no undersized
    /// bits), popcounts honest.
    pub fn wire_read(r: &mut ByteReader<'_>) -> Result<Bitmap, WireError> {
        let n = r.get_len(4)?; // each container is ≥ 4 bytes on the wire
        let mut containers = Vec::with_capacity(n);
        let mut prev_key: Option<u16> = None;
        for _ in 0..n {
            let key = r.get_u16()?;
            if prev_key.is_some_and(|p| p >= key) {
                return Err(WireError::Malformed("bitmap keys not ascending"));
            }
            prev_key = Some(key);
            let container = match r.get_u8()? {
                0 => {
                    let len = r.get_len(2)?;
                    if len == 0 || len > ARRAY_MAX {
                        return Err(WireError::Malformed("array container size out of range"));
                    }
                    let mut v = Vec::with_capacity(len);
                    let mut prev: Option<u16> = None;
                    for _ in 0..len {
                        let low = r.get_u16()?;
                        if prev.is_some_and(|p| p >= low) {
                            return Err(WireError::Malformed("array container not ascending"));
                        }
                        prev = Some(low);
                        v.push(low);
                    }
                    Container::Array(v)
                }
                1 => {
                    let len = r.get_u32()?;
                    let words_vec = r.get_u64_vec()?;
                    let words: Box<[u64; BITS_WORDS]> = words_vec
                        .try_into()
                        .map_err(|_| WireError::Malformed("bit container is not 1024 words"))?;
                    let pop: u32 = words.iter().map(|w| w.count_ones()).sum();
                    if pop != len {
                        return Err(WireError::Malformed("bit container popcount mismatch"));
                    }
                    if (len as usize) <= ARRAY_MAX {
                        return Err(WireError::Malformed(
                            "bit container below promotion threshold",
                        ));
                    }
                    Container::Bits { words, len }
                }
                _ => return Err(WireError::Malformed("unknown bitmap container tag")),
            };
            containers.push((key, container));
        }
        Ok(Bitmap { containers })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_all_equals_the_or_chain() {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut ids = |n: usize, span: u32| -> Bitmap {
            let mut v: Vec<u32> = (0..n)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state % span as u64) as u32
                })
                .collect();
            v.sort_unstable();
            v.dedup();
            Bitmap::from_sorted(&v).unwrap()
        };
        let parts = [
            ids(40, 200_000),   // sparse over four keys
            ids(3_000, 65_536), // arrays in key 0 that promote only together
            ids(3_000, 65_536),
            Bitmap::new(),
            ids(6_000, 140_000),  // dense blocks
            ids(10, 70_000),      // overlaps the others
            Bitmap::full(70_000), // covers key 0 outright
            ids(100, 4_000_000),  // keys no other part has
        ];
        for k in 0..=parts.len() {
            let chain = parts[..k].iter().fold(Bitmap::new(), |acc, p| acc.or(p));
            assert_eq!(Bitmap::union_all(&parts[..k]), chain, "first {k} parts");
        }
    }

    #[test]
    fn sparse_and_dense_round_through_ops() {
        let sparse = Bitmap::from_sorted(&[0, 3, 65_535, 65_536, 200_000]).unwrap();
        assert_eq!(sparse.len(), 5);
        assert!(sparse.contains(65_536));
        assert!(!sparse.contains(4));

        let dense_ids: Vec<u32> = (0..10_000).collect();
        let dense = Bitmap::from_sorted(&dense_ids).unwrap();
        assert_eq!(dense.len(), 10_000);
        assert!(dense.contains(9_999));
        assert!(!dense.contains(10_000));

        let both = sparse.and(&dense);
        assert_eq!(both.iter().collect::<Vec<_>>(), vec![0, 3]);
        assert_eq!(sparse.or(&dense).len(), 10_003);
        assert_eq!(dense.and_not(&sparse).len(), 9_998);
    }

    #[test]
    fn complement_is_exact() {
        let bm = Bitmap::from_sorted(&[1, 3]).unwrap();
        let not = bm.complement(5);
        assert_eq!(not.iter().collect::<Vec<_>>(), vec![0, 2, 4]);
        assert_eq!(Bitmap::new().complement(3).len(), 3);
    }

    #[test]
    fn full_covers_block_boundaries() {
        for n in [0u32, 1, 4096, 4097, 65_536, 65_537, 70_000] {
            let bm = Bitmap::full(n);
            assert_eq!(bm.len(), n as u64, "n={n}");
            if n > 0 {
                assert!(bm.contains(n - 1));
            }
            assert!(!bm.contains(n));
        }
    }

    #[test]
    fn from_sorted_rejects_disorder() {
        assert!(Bitmap::from_sorted(&[2, 1]).is_err());
        assert!(Bitmap::from_sorted(&[1, 1]).is_err());
    }

    #[test]
    fn wire_roundtrip_is_identical() {
        let ids: Vec<u32> = (0..6_000)
            .map(|i| i * 3)
            .chain([1 << 20, 1 << 21])
            .collect();
        let bm = Bitmap::from_sorted(&ids).unwrap();
        let mut w = ByteWriter::new();
        bm.wire_write(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = Bitmap::wire_read(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(bm, back);
        // Canonical representation ⇒ re-encoding is byte-identical.
        let mut w2 = ByteWriter::new();
        back.wire_write(&mut w2);
        assert_eq!(bytes, w2.into_bytes());
    }

    #[test]
    fn wire_read_rejects_corruption() {
        let bm = Bitmap::from_sorted(&[1, 2, 3]).unwrap();
        let mut w = ByteWriter::new();
        bm.wire_write(&mut w);
        let mut bytes = w.into_bytes();
        // Swap the two sorted entries → "not ascending".
        let n = bytes.len();
        bytes.swap(n - 2, n - 4);
        bytes.swap(n - 1, n - 3);
        let mut r = ByteReader::new(&bytes);
        assert!(Bitmap::wire_read(&mut r).is_err());
    }
}
