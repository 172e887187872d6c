//! The flat bucket arrays against a `BTreeMap<code, ids>` reference: every
//! accessor of `HashTable`, on both sides of the lookup rule (offsets
//! indexed by code when `2^m ≤ 2·n_items`, a search of the sorted codes
//! otherwise), at three code widths; the union of row-disjoint parts; and
//! the snapshot reader's answer to codes out of order.

use gqr_core::code::{CodeWord, U256};
use gqr_core::persist::{PersistError, SectionKind, SnapshotFile, SnapshotWriter};
use gqr_core::table::HashTable;
use gqr_linalg::wire::{ByteWriter, WireError};
use std::collections::BTreeMap;

/// SplitMix64: a seeded stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform `m`-bit code.
fn random_code<C: CodeWord>(m: usize, state: &mut u64) -> C {
    let blocks: Vec<u64> = (0..C::BLOCKS).map(|_| splitmix(state)).collect();
    C::from_blocks(&blocks).and(C::low_mask(m))
}

/// `n` codes drawn from a pool of `distinct` random `m`-bit codes, so
/// buckets hold several ids.
fn clustered_codes<C: CodeWord>(m: usize, n: usize, distinct: usize, state: &mut u64) -> Vec<C> {
    let pool: Vec<C> = (0..distinct.max(1))
        .map(|_| random_code(m, state))
        .collect();
    (0..n)
        .map(|_| pool[(splitmix(state) % pool.len() as u64) as usize])
        .collect()
}

/// Whether the lookup rule indexes `offsets` by code.
fn by_code(m: usize, n: usize) -> bool {
    m < 64 && 1u64 << m <= 2 * n as u64
}

/// Every accessor of `table` against the reference over `codes`.
fn check_table<C: CodeWord>(m: usize, codes: &[C], table: &HashTable<C>, case: &str) {
    let mut reference: BTreeMap<C, Vec<u32>> = BTreeMap::new();
    for (id, &code) in codes.iter().enumerate() {
        reference.entry(code).or_default().push(id as u32);
    }
    assert_eq!(table.code_length(), m, "{case}");
    assert_eq!(table.n_items(), codes.len(), "{case}");
    assert_eq!(table.n_buckets(), reference.len(), "{case}");
    let max_id = codes.len().checked_sub(1).map(|i| i as u32);
    assert_eq!(table.max_id(), max_id, "{case}");
    let want: Vec<(C, Vec<u32>)> = reference.clone().into_iter().collect();
    let occupied: Vec<(C, Vec<u32>)> = table.occupied().map(|(c, ids)| (c, ids.to_vec())).collect();
    assert_eq!(occupied, want, "{case}: occupied, ascending");
    let listed: Vec<C> = table.codes().collect();
    let keys: Vec<C> = reference.keys().copied().collect();
    assert_eq!(listed, keys, "{case}: each code once, ascending");
    for (&code, ids) in &reference {
        assert_eq!(table.bucket(code), &ids[..], "{case}: bucket {code:?}");
        assert!(table.contains(code), "{case}: contains {code:?}");
    }
    // Absent codes: random ones, the neighbours of every occupied code
    // (one past the largest among them), and the ends of the code space.
    let one = C::from_u64(1);
    let mut absent = vec![C::zero(), C::low_mask(m), C::low_mask(m).wrapping_add(one)];
    for &code in reference.keys() {
        absent.push(code.wrapping_add(one));
        absent.push(code.wrapping_add(one.wrapping_neg()));
    }
    let mut state = codes.len() as u64 ^ m as u64;
    absent.extend((0..200).map(|_| random_code::<C>(m, &mut state)));
    for code in absent {
        if !reference.contains_key(&code) {
            assert_eq!(table.bucket(code), &[] as &[u32], "{case}: absent {code:?}");
            assert!(!table.contains(code), "{case}: absent {code:?}");
        }
    }
    assert_eq!(table.dense_codes(), codes, "{case}: dense codes");
    // The arrays' real size: codes, ids, and offsets per code, or per
    // bucket plus the prefix index over the top ⌊log2 B⌋ + 1 bits.
    let b = reference.len();
    let prefix_bits = b.checked_ilog2().map_or(0, |l| l as usize + 1).min(m);
    let index = match by_code(m, codes.len()) {
        true => (1usize << m) + 1,
        false => b + 1 + (1usize << prefix_bits) + 1,
    };
    let bytes = b * std::mem::size_of::<C>() + (index + codes.len()) * 4;
    assert_eq!(table.approx_bytes(), bytes, "{case}: approx_bytes");
}

/// Tables at `m` bits: empty, a few rows, both sides of the lookup rule
/// where the code space allows it, and every code occupied for small `m`.
fn check_width<C: CodeWord>(m: usize, state: &mut u64) {
    let mut sizes = vec![(0, 1), (1, 1), (7, 3), (300, 40), (300, 300)];
    if m <= 17 {
        let half = 1usize << (m - 1).min(16);
        // Just below and exactly at `2^m = 2·n`.
        sizes.extend([(half - 1, half / 2 + 1), (half, half / 2 + 1), (half, half)]);
    }
    for (n, distinct) in sizes {
        let codes: Vec<C> = clustered_codes(m, n, distinct, state);
        let case = format!("{}-bit word, m = {m}, n = {n}", C::BITS);
        check_table(m, &codes, &HashTable::from_codes(m, &codes), &case);
    }
    if m <= 13 {
        // Every code occupied, shuffled, and some twice.
        let mut codes: Vec<C> = (0..1u64 << m).map(C::from_u64).collect();
        codes.extend(clustered_codes::<C>(m, 1 << (m - 1), 5, state));
        for i in (1..codes.len()).rev() {
            codes.swap(i, (splitmix(state) % (i as u64 + 1)) as usize);
        }
        let case = format!("{}-bit word, m = {m}, every code", C::BITS);
        let table = HashTable::from_codes(m, &codes);
        assert_eq!(table.n_buckets(), 1 << m, "{case}");
        check_table(m, &codes, &table, &case);
    }
}

#[test]
fn arrays_match_a_btreemap_at_every_width() {
    let mut state = 0x007a_b1e5;
    for m in [1, 8, 13, 16, 17, 21, 64, 100, 256] {
        if m <= 64 {
            check_width::<u64>(m, &mut state);
        }
        if m <= 128 {
            check_width::<u128>(m, &mut state);
        }
        check_width::<U256>(m, &mut state);
    }
}

/// The union of `codes` cut into `s` contiguous parts (some empty) is the
/// table over all of them, bucket by bucket and in global id order.
fn check_union<C: CodeWord>(m: usize, codes: &[C], s: usize, state: &mut u64) {
    let n = codes.len();
    let mut cuts: Vec<usize> = (1..s)
        .map(|_| (splitmix(state) % (n as u64 + 1)) as usize)
        .collect();
    // From three parts on, the first and the last are empty.
    if s > 2 {
        cuts[0] = 0;
        cuts[s - 2] = n;
    }
    cuts.push(0);
    cuts.push(n);
    cuts.sort_unstable();
    let tables: Vec<HashTable<C>> = cuts
        .windows(2)
        .map(|w| HashTable::from_codes(m, &codes[w[0]..w[1]]))
        .collect();
    let parts: Vec<(&HashTable<C>, u32)> =
        tables.iter().zip(cuts.iter().map(|&c| c as u32)).collect();
    let union = HashTable::union(&parts);
    let case = format!(
        "{}-bit word, m = {m}, n = {n}, S = {s}, cuts {cuts:?}",
        C::BITS
    );
    check_table(m, codes, &union, &case);
}

#[test]
fn the_union_of_parts_is_the_table_over_all_their_codes() {
    let mut state = 0x00c0_ffee;
    for s in [1, 2, 3, 7] {
        for (m, n, distinct) in [
            (8, 0, 1),
            (8, 5, 2),
            (13, 900, 200),
            (13, 10_000, 3000),
            (21, 600, 400),
        ] {
            let codes: Vec<u64> = clustered_codes(m, n, distinct, &mut state);
            check_union(m, &codes, s, &mut state);
        }
        let codes: Vec<u128> = clustered_codes(100, 500, 100, &mut state);
        check_union(100, &codes, s, &mut state);
        let codes: Vec<U256> = clustered_codes(256, 500, 100, &mut state);
        check_union(256, &codes, s, &mut state);
    }
}

/// A CRC-valid table section whose bucket codes are `codes`, in that
/// order, one id each.
fn table_section(codes: &[u64]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_usize(8);
    w.put_usize(codes.len());
    w.put_u8(1);
    w.put_u32(codes.len() as u32 - 1);
    w.put_usize(codes.len());
    for (id, &code) in codes.iter().enumerate() {
        w.put_u64(code);
        w.put_u32_slice(&[id as u32]);
    }
    w.into_bytes()
}

fn read_tables(section: Vec<u8>) -> Result<Vec<HashTable<u64>>, PersistError> {
    let dir = std::env::temp_dir().join(format!("gqr-table-arrays-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("table.gqr");
    let mut w = SnapshotWriter::new();
    w.add_section(SectionKind::HashTable, section);
    w.write(&path).unwrap();
    let file = SnapshotFile::read(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    file.tables()
}

#[test]
fn codes_out_of_order_are_rejected_on_load() {
    let tables = read_tables(table_section(&[1, 4, 9])).unwrap();
    assert_eq!(tables[0].bucket(4), &[1]);
    for codes in [[4, 1, 9], [1, 9, 4], [1, 4, 4]] {
        match read_tables(table_section(&codes)) {
            Err(PersistError::Corrupt {
                section: "hash table",
                detail: WireError::Malformed(why),
            }) => assert!(why.contains("out of ascending order"), "{codes:?}: {why}"),
            other => panic!("{codes:?}: {other:?}"),
        }
    }
}
