//! Corruption harness for binary snapshots: flip any byte or truncate at
//! any offset and the loader must return a typed `Err` — never panic, and
//! for payload damage the error must name the corrupted section.
//!
//! A small deterministic dataset keeps the snapshot a few tens of KB, so
//! the deterministic sweeps below cover *every* header/TOC byte and a
//! dense sample of payload bytes; the proptest cases re-cover the same
//! space with random offsets (the proptest stub on offline CI reduces
//! those to no-ops, which is why the deterministic sweeps exist).

mod common;

use common::tmpdir;
use gqr::persist::{
    load_index, save_mplsh, PersistError, SectionKind, SnapshotFile, SnapshotWriter, FORMAT_VERSION,
};
use gqr::prelude::*;
use gqr::vq::imi::{ImiOptions, InvertedMultiIndex};
use gqr::vq::kmeans::KMeansOptions;
use gqr::vq::opq::{Opq, OpqOptions};
use gqr::vq::pq::PqOptions;
use proptest::prelude::*;

// v3 header: magic(8) version(2) count(2) width(2) reserved(2) crc(4).
const HEADER_BYTES: usize = 20;
const TOC_ENTRY_BYTES: usize = 24;
const WIDTH_OFFSET: usize = 12;

/// 300 rows × 8 dims, fully deterministic (no RNG, so no stub drift).
fn tiny_data() -> (Vec<f32>, usize) {
    let dim = 8;
    let mut data = Vec::with_capacity(300 * dim);
    for i in 0..300usize {
        for d in 0..dim {
            data.push(((i * 31 + d * 7) % 97) as f32 * 0.1 + (i % 5) as f32);
        }
    }
    (data, dim)
}

/// The snapshot built by [`full_snapshot_bytes`], constructed once and
/// shared by every test and proptest case.
fn full_snapshot() -> &'static [u8] {
    static SNAP: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    SNAP.get_or_init(full_snapshot_bytes)
}

/// A snapshot exercising every section kind in one file: model, manifest,
/// vectors, hash table, MIH, OPQ, IMI, PQ codes, and MPLSH.
fn full_snapshot_bytes() -> Vec<u8> {
    let (data, dim) = tiny_data();
    let model = Pcah::train(&data, dim, 8).unwrap();
    let table: HashTable = HashTable::build(&model, &data, dim);
    let n = data.len() / dim;
    let attrs = AttributeStore::builder(n)
        .tag_column(
            "parity",
            (0..n)
                .map(|i| if i % 2 == 0 { "even" } else { "odd" })
                .collect(),
        )
        .unwrap()
        .int_column("group", (0..n).map(|i| (i % 5) as i64).collect())
        .unwrap()
        .build();
    let mut engine = QueryEngine::new(&model, &table, &data, dim);
    engine.enable_mih(2);
    engine.set_attrs(&attrs);

    // A small calibrated recall model, so the sweep covers its section too.
    let queries: Vec<f32> = data[..16 * dim].to_vec();
    let gt: Vec<Vec<u32>> = queries
        .chunks_exact(dim)
        .map(|q| gqr::eval::exact_knn(&data, dim, q, 5))
        .collect();
    let mut cal = Calibrator::new(5).bucket_cap(128);
    cal.observe(&engine, ProbeStrategy::GenerateQdRanking, &queries, &gt);
    let recall = cal.finalize();
    engine.set_recall_model(&recall);

    let dir = tmpdir("corrupt_base");
    let path = dir.join("full.gqr");
    engine.save_snapshot(&path).unwrap();
    // Extend the engine snapshot with the comparator sections so the
    // corruption sweep sees every kind. Rebuild through SnapshotWriter so
    // the result is still one valid file.
    let base = SnapshotFile::read(&path).unwrap();
    let mut w = SnapshotWriter::new();
    for kind in [
        SectionKind::Model,
        SectionKind::ShardManifest,
        SectionKind::Vectors,
        SectionKind::HashTable,
        SectionKind::MihIndex,
        SectionKind::RecallModel,
        SectionKind::Attributes,
    ] {
        w.add_section(kind, base.section(kind).unwrap().to_vec());
    }
    let kopts = KMeansOptions {
        seed: 1,
        max_iters: 5,
        ..Default::default()
    };
    let opq = Opq::train(
        &data,
        dim,
        2,
        &OpqOptions {
            rounds: 1,
            pq: PqOptions {
                ks: 8,
                kmeans: kopts.clone(),
            },
        },
    );
    w.add_opq(&opq);
    let imi = InvertedMultiIndex::build(
        &data,
        dim,
        &ImiOptions {
            k: 4,
            kmeans: kopts,
        },
    );
    w.add_imi(&imi);
    w.add_section(SectionKind::PqCodes, vec![0u8; 64]);
    let mplsh_path = dir.join("mplsh.gqr");
    let mplsh = gqr::mplsh::MpLshIndex::build(
        &data,
        dim,
        &gqr::mplsh::MpLshParams {
            tables: 2,
            hashes_per_table: 4,
            bucket_width: 2.0,
            seed: 1,
        },
    );
    save_mplsh(&mplsh_path, &mplsh).unwrap();
    let mplsh_file = SnapshotFile::read(&mplsh_path).unwrap();
    w.add_section(
        SectionKind::Mplsh,
        mplsh_file.section(SectionKind::Mplsh).unwrap().to_vec(),
    );
    let out = dir.join("all.gqr");
    w.write(&out).unwrap();
    std::fs::read(&out).unwrap()
}

/// Parse the TOC of a *valid* snapshot: (kind tag, offset, len) per entry.
fn toc_entries(bytes: &[u8]) -> Vec<(u16, usize, usize)> {
    let n = u16::from_le_bytes([bytes[10], bytes[11]]) as usize;
    (0..n)
        .map(|i| {
            let e = HEADER_BYTES + i * TOC_ENTRY_BYTES;
            let kind = u16::from_le_bytes([bytes[e], bytes[e + 1]]);
            let off = u64::from_le_bytes(bytes[e + 4..e + 12].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(bytes[e + 12..e + 20].try_into().unwrap()) as usize;
            (kind, off, len)
        })
        .collect()
}

/// The section name a flip at `offset` must be attributed to, if the
/// offset lands inside a payload.
fn expected_section(toc: &[(u16, usize, usize)], offset: usize) -> Option<&'static str> {
    for &(kind, off, len) in toc {
        if offset >= off && offset < off + len {
            return Some(match kind {
                1 => "model",
                2 => "hash table",
                3 => "MIH index",
                4 => "vectors",
                5 => "shard manifest",
                6 => "OPQ codebooks",
                7 => "IMI index",
                8 => "PQ codes",
                9 => "MPLSH index",
                12 => "recall model",
                13 => "attribute store",
                _ => panic!("valid snapshot has an unknown section kind {kind}"),
            });
        }
    }
    None
}

/// One corruption probe: parsing must fail, and a payload flip must be
/// blamed on the section that actually holds the flipped byte.
fn assert_flip_detected(bytes: &[u8], toc: &[(u16, usize, usize)], offset: usize, mask: u8) {
    let mut corrupted = bytes.to_vec();
    corrupted[offset] ^= mask;
    let err = SnapshotFile::parse(&corrupted)
        .err()
        .unwrap_or_else(|| panic!("flip at {offset} (mask {mask:#04x}) went undetected"));
    if let Some(expected) = expected_section(toc, offset) {
        match &err {
            PersistError::ChecksumMismatch { section } => assert_eq!(
                *section, expected,
                "flip at {offset} blamed on the wrong section"
            ),
            other => panic!("payload flip at {offset} gave {other:?}, not a checksum mismatch"),
        }
    }
}

#[test]
fn every_header_and_toc_byte_flip_is_detected() {
    let bytes = full_snapshot();
    let toc = toc_entries(bytes);
    let toc_end = HEADER_BYTES + toc.len() * TOC_ENTRY_BYTES;
    for offset in 0..toc_end {
        assert_flip_detected(bytes, &toc, offset, 0x01);
        assert_flip_detected(bytes, &toc, offset, 0x80);
    }
}

#[test]
fn sampled_payload_byte_flips_are_detected_and_named() {
    let bytes = full_snapshot();
    let toc = toc_entries(bytes);
    // Dense deterministic sample across the payload region, plus both
    // boundary bytes of every section.
    let toc_end = HEADER_BYTES + toc.len() * TOC_ENTRY_BYTES;
    let step = ((bytes.len() - toc_end) / 500).max(1);
    for offset in (toc_end..bytes.len()).step_by(step) {
        assert_flip_detected(bytes, &toc, offset, 0x10);
    }
    for &(_, off, len) in &toc {
        if len > 0 {
            assert_flip_detected(bytes, &toc, off, 0xff);
            assert_flip_detected(bytes, &toc, off + len - 1, 0xff);
        }
    }
}

#[test]
fn width_field_byte_flips_are_rejected() {
    // The header CRC covers the code-width field, so any flip there must
    // surface as a typed parse error rather than a misdispatched load.
    let bytes = full_snapshot();
    let toc = toc_entries(bytes);
    for offset in [WIDTH_OFFSET, WIDTH_OFFSET + 1] {
        for mask in [0x01u8, 0x10, 0x80, 0xff] {
            assert_flip_detected(bytes, &toc, offset, mask);
        }
    }
}

#[test]
fn bogus_width_with_valid_crc_is_a_typed_error() {
    // Forge a header that passes the CRC but declares a width with no
    // CodeWord implementation: the parser must name the width, not panic
    // or fall back to 64-bit.
    use gqr::linalg::wire::crc32;
    let bytes = full_snapshot();
    let toc = toc_entries(bytes);
    let toc_end = HEADER_BYTES + toc.len() * TOC_ENTRY_BYTES;
    let mut forged = bytes.to_vec();
    forged[WIDTH_OFFSET..WIDTH_OFFSET + 2].copy_from_slice(&48u16.to_le_bytes());
    let mut crc_input = forged[..16].to_vec();
    crc_input.extend_from_slice(&forged[HEADER_BYTES..toc_end]);
    forged[16..20].copy_from_slice(&crc32(&crc_input).to_le_bytes());
    match SnapshotFile::parse(&forged) {
        Err(PersistError::UnsupportedWidth { found }) => assert_eq!(found, 48),
        other => panic!("expected UnsupportedWidth, got {other:?}"),
    }
}

#[test]
fn every_truncation_length_fails_cleanly() {
    let bytes = full_snapshot();
    // Every prefix of the header/TOC region, then a dense sample beyond.
    let toc = toc_entries(bytes);
    let toc_end = HEADER_BYTES + toc.len() * TOC_ENTRY_BYTES;
    let step = ((bytes.len() - toc_end) / 300).max(1);
    let lengths = (0..toc_end).chain((toc_end..bytes.len()).step_by(step));
    for len in lengths {
        assert!(
            SnapshotFile::parse(&bytes[..len]).is_err(),
            "truncation to {len} bytes parsed successfully"
        );
    }
}

#[test]
fn version_skew_is_rejected_with_a_clear_error() {
    let bytes = full_snapshot();
    let dir = tmpdir("verskew");
    let path = dir.join("skewed.gqr");
    // Older layouts (v2's 16-byte header, v3 and v4 before the recall and
    // attribute sections) are refused like a newer one: readers accept
    // exactly FORMAT_VERSION.
    for version in [2u16, 3, 4, FORMAT_VERSION + 1] {
        let mut skewed = bytes.to_vec();
        skewed[8..10].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&path, &skewed).unwrap();
        match load_index::<u64>(&path) {
            Err(PersistError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, version);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("v{version}: expected UnsupportedVersion, got {other:?}"),
        }
    }
}

#[test]
fn end_to_end_load_rejects_corrupted_file() {
    let (data, dim) = tiny_data();
    let model = Pcah::train(&data, dim, 8).unwrap();
    let table: HashTable = HashTable::build(&model, &data, dim);
    let engine = QueryEngine::new(&model, &table, &data, dim);
    let dir = tmpdir("e2e_corrupt");
    let path = dir.join("engine.gqr");
    engine.save_snapshot(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    assert!(
        load_index::<u64>(&path).is_err(),
        "corrupted snapshot loaded"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_single_byte_flip_never_loads(offset in 0usize..100_000, mask in 1u8..=255) {
        let bytes = full_snapshot();
        let toc = toc_entries(bytes);
        let offset = offset % bytes.len();
        assert_flip_detected(bytes, &toc, offset, mask);
    }

    #[test]
    fn random_truncation_never_loads(len in 0usize..100_000) {
        let bytes = full_snapshot();
        let len = len % bytes.len();
        prop_assert!(SnapshotFile::parse(&bytes[..len]).is_err());
    }
}
