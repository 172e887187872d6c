//! Checksummed binary index snapshots with crash-safe save/load.
//!
//! A snapshot is a single file holding everything a query service needs to
//! start serving without retraining: the hash model (via the
//! [`HashModel::snapshot`] save hook), per-shard hash tables and prebuilt
//! MIH block tables, the raw vectors, OPQ/IMI codebooks for the
//! vector-quantization comparator, and a manifest tying the shards
//! together.
//!
//! # File layout
//!
//! All integers are little-endian. The file is a fixed header, a table of
//! contents, and the concatenated section payloads:
//!
//! ```text
//! offset  size  field
//! 0       8     magic "GQRSNAP\0"
//! 8       2     format version (u16, currently 5)
//! 10      2     section count (u16)
//! 12      2     code width in bits (u16: 32, 64, 128, 192, or 256)
//! 14      2     reserved (zero)
//! 16      4     CRC32 over bytes 0..16 and the whole TOC
//! 20      24×n  TOC entries: kind u16, reserved u16, offset u64, len u64,
//!               crc32 u32 (one per section, payload CRC)
//! ...           section payloads at their TOC offsets
//! ```
//!
//! Version 2 files use a 16-byte header without the width field (the CRC
//! sits at offset 12); they are still accepted and read as 64-bit codes.
//!
//! Every byte of the file is covered by a check: the magic and version by
//! direct comparison, the header+TOC by the header CRC, and each payload by
//! its TOC entry's CRC. Loads validate all of that *before* decoding any
//! payload and return a typed [`PersistError`] naming the failing section —
//! they never panic on truncation, bit flips, or version skew.
//!
//! # Compatibility policy
//!
//! See [`FORMAT_VERSION`]. Section kinds and payload schemas are
//! append-only; a reader rejects any file whose version differs from its
//! own rather than guessing at half-compatible layouts.
//!
//! # Crash safety
//!
//! [`SnapshotWriter::write`] writes to a temporary file in the target
//! directory, `fsync`s it, atomically renames it over the destination, and
//! `fsync`s the directory. A crash at any point leaves either the old file
//! or the new file, never a torn mixture.

use crate::code::CodeWord;
use crate::engine::QueryEngine;
use crate::metrics::MetricsRegistry;
use crate::probe::mih::MihIndex;
use crate::table::HashTable;
use gqr_l2h::{persist as l2h_persist, HashModel};
use gqr_linalg::vecops::Metric;
use gqr_linalg::wire::{crc32, ByteReader, ByteWriter, WireError};
use gqr_vq::imi::InvertedMultiIndex;
use gqr_vq::opq::Opq;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// First eight bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"GQRSNAP\0";

/// On-disk format version.
///
/// Compatibility policy: the version is bumped on **any** change to the
/// header, TOC, section kinds, or payload schemas, and readers only accept
/// files whose version matches exactly. There is no in-place migration —
/// an old snapshot is regenerated from the raw vectors (training is
/// deterministic given the seed). Section kind values and model kind tags
/// are append-only so a future multi-version reader can be written without
/// re-interpreting old numbers.
///
/// History: v1 was the initial frozen-index layout; v2 added the live
/// mutation sections ([`SectionKind::DeltaSegment`],
/// [`SectionKind::LiveState`]) written by
/// [`crate::live::MutableIndex::save_snapshot`]; v3 widened the header by
/// four bytes to carry the code width (bits per hash code), enabling
/// [`CodeWord`] widths beyond `u64`; v4 added the optional
/// [`SectionKind::RecallModel`] section holding the adaptive recall
/// controller's calibration tables (header layout unchanged from v3); v5
/// added the optional [`SectionKind::Attributes`] section holding the typed
/// attribute store behind structured predicate filtering (header layout
/// again unchanged). Readers accept v5 only.
pub const FORMAT_VERSION: u16 = 5;

/// Size of the fixed header preceding the TOC.
const HEADER_BYTES: usize = 20;

/// Code widths a snapshot may declare, in bits. Exactly the widths with a
/// [`CodeWord`] implementation.
pub const VALID_CODE_WIDTHS: [u16; 5] = [32, 64, 128, 192, 256];
/// Size of one TOC entry.
const TOC_ENTRY_BYTES: usize = 24;

/// What a section holds. Values are stable on-disk identifiers —
/// append-only, never renumbered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum SectionKind {
    /// A hash model serialized through [`HashModel::snapshot`].
    Model = 1,
    /// One [`HashTable`] (repeated per shard, in shard order).
    HashTable = 2,
    /// One prebuilt [`MihIndex`] (repeated per shard that has one).
    MihIndex = 3,
    /// The raw vectors: dim, rows, then row-major `f32`s.
    Vectors = 4,
    /// Shard manifest: metric, shard count, per-shard row counts and MIH
    /// flags. Present in every index snapshot; `n_shards == 1` is the
    /// single-engine layout.
    ShardManifest = 5,
    /// OPQ rotation + PQ codebooks (vector-quantization comparator).
    Opq = 6,
    /// Inverted multi-index codebooks and cells.
    Imi = 7,
    /// PQ codes plus rerank configuration for the OPQ+IMI engine.
    PqCodes = 8,
    /// A serialized MPLSH index (`gqr-mplsh` provides the payload codec).
    Mplsh = 9,
    /// A mutable index's append-only delta segment: ids, codes, vectors.
    DeltaSegment = 10,
    /// A mutable index's overlay state: id allocator, epoch, compaction
    /// config, base-slot external ids, and tombstoned slots.
    LiveState = 11,
    /// Calibrated recall-controller tables ([`crate::recall::RecallModel`]):
    /// the per-strategy binned trajectory → recall mapping behind
    /// recall-target SLAs. Optional; at most one per snapshot.
    RecallModel = 12,
    /// The typed attribute store ([`crate::attrs::AttributeStore`]): column
    /// schemas, row values, and the bitmap/bloom pre-filter structures
    /// behind structured predicates. Optional; at most one per snapshot.
    Attributes = 13,
}

impl SectionKind {
    /// Human-readable section name, used in error messages.
    pub fn name(&self) -> &'static str {
        match self {
            SectionKind::Model => "model",
            SectionKind::HashTable => "hash table",
            SectionKind::MihIndex => "MIH index",
            SectionKind::Vectors => "vectors",
            SectionKind::ShardManifest => "shard manifest",
            SectionKind::Opq => "OPQ codebooks",
            SectionKind::Imi => "IMI index",
            SectionKind::PqCodes => "PQ codes",
            SectionKind::Mplsh => "MPLSH index",
            SectionKind::DeltaSegment => "delta segment",
            SectionKind::LiveState => "live state",
            SectionKind::RecallModel => "recall model",
            SectionKind::Attributes => "attribute store",
        }
    }

    fn from_tag(tag: u16) -> Option<SectionKind> {
        Some(match tag {
            1 => SectionKind::Model,
            2 => SectionKind::HashTable,
            3 => SectionKind::MihIndex,
            4 => SectionKind::Vectors,
            5 => SectionKind::ShardManifest,
            6 => SectionKind::Opq,
            7 => SectionKind::Imi,
            8 => SectionKind::PqCodes,
            9 => SectionKind::Mplsh,
            10 => SectionKind::DeltaSegment,
            11 => SectionKind::LiveState,
            12 => SectionKind::RecallModel,
            13 => SectionKind::Attributes,
            _ => return None,
        })
    }
}

/// Why a snapshot could not be written or read.
#[derive(Debug)]
pub enum PersistError {
    /// The underlying filesystem operation failed.
    Io {
        /// File the operation touched.
        path: PathBuf,
        /// The OS error.
        source: std::io::Error,
    },
    /// The file does not start with the snapshot magic.
    NotASnapshot,
    /// The file's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion {
        /// Version found in the file.
        found: u16,
        /// The only version this reader accepts.
        supported: u16,
    },
    /// The file ended before the named structure was complete.
    Truncated {
        /// Which structure was cut off ("table of contents", a section
        /// name, …).
        what: &'static str,
    },
    /// A CRC32 check failed — the named structure holds flipped bits.
    ChecksumMismatch {
        /// Which structure failed its checksum.
        section: &'static str,
    },
    /// A payload passed its CRC but decoded to an impossible value.
    Corrupt {
        /// Which section failed to decode.
        section: &'static str,
        /// Decoder detail.
        detail: WireError,
    },
    /// A required section is absent.
    MissingSection {
        /// Which section was expected.
        section: &'static str,
    },
    /// Sections decoded individually but disagree with each other (e.g.
    /// the manifest's row counts vs. the vectors section).
    Inconsistent {
        /// What disagreed.
        detail: &'static str,
    },
    /// Save-side: the model does not implement the snapshot hook.
    ModelNotSupported {
        /// The model's reported name.
        model: String,
    },
    /// The snapshot holds a different shard count than the constructor
    /// requires (e.g. [`QueryEngine::from_snapshot`] needs exactly one).
    WrongShardCount {
        /// Shards in the snapshot.
        found: usize,
        /// Shards the caller can accept.
        expected: usize,
    },
    /// The header's code-width field is not one of [`VALID_CODE_WIDTHS`].
    UnsupportedWidth {
        /// Width found in the file, in bits.
        found: u16,
    },
    /// The snapshot's code width differs from the [`CodeWord`] type the
    /// caller asked to load it as. Use the width-dispatch layer
    /// ([`crate::dispatch`]) to load a snapshot of unknown width.
    WidthMismatch {
        /// Width declared by the file, in bits.
        found: usize,
        /// Width of the requested `CodeWord` type, in bits.
        expected: usize,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io { path, source } => {
                write!(f, "snapshot I/O failed on {}: {source}", path.display())
            }
            PersistError::NotASnapshot => write!(f, "not a GQR snapshot (bad magic)"),
            PersistError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot version {found} (this build reads version {supported})"
            ),
            PersistError::Truncated { what } => write!(f, "snapshot truncated in {what}"),
            PersistError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in {section} section")
            }
            PersistError::Corrupt { section, detail } => {
                write!(f, "corrupt {section} section: {detail}")
            }
            PersistError::MissingSection { section } => {
                write!(f, "snapshot is missing the {section} section")
            }
            PersistError::Inconsistent { detail } => {
                write!(f, "snapshot sections are inconsistent: {detail}")
            }
            PersistError::ModelNotSupported { model } => {
                write!(f, "model {model} does not support snapshotting")
            }
            PersistError::WrongShardCount { found, expected } => {
                write!(f, "snapshot holds {found} shard(s), expected {expected}")
            }
            PersistError::UnsupportedWidth { found } => {
                write!(f, "unsupported code width {found} bits in snapshot header")
            }
            PersistError::WidthMismatch { found, expected } => write!(
                f,
                "snapshot holds {found}-bit codes, caller expected {expected}-bit"
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io { source, .. } => Some(source),
            PersistError::Corrupt { detail, .. } => Some(detail),
            _ => None,
        }
    }
}

fn io_err(path: &Path) -> impl FnOnce(std::io::Error) -> PersistError + '_ {
    move |source| PersistError::Io {
        path: path.to_path_buf(),
        source,
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Builds a snapshot section by section, then writes it crash-safely.
pub struct SnapshotWriter {
    sections: Vec<(SectionKind, Vec<u8>)>,
    code_width: u16,
}

impl Default for SnapshotWriter {
    fn default() -> SnapshotWriter {
        SnapshotWriter {
            sections: Vec::new(),
            code_width: 64,
        }
    }
}

impl SnapshotWriter {
    /// Empty snapshot (code width defaults to 64 bits).
    pub fn new() -> SnapshotWriter {
        SnapshotWriter::default()
    }

    /// Declare the code width recorded in the header. Must be one of
    /// [`VALID_CODE_WIDTHS`].
    pub fn set_code_width(&mut self, bits: usize) {
        assert!(
            VALID_CODE_WIDTHS.contains(&(bits as u16)),
            "code width {bits} has no CodeWord implementation"
        );
        self.code_width = bits as u16;
    }

    /// Append a raw section. Sections are written (and read back) in
    /// insertion order; repeated kinds are allowed (one hash table per
    /// shard).
    pub fn add_section(&mut self, kind: SectionKind, bytes: Vec<u8>) {
        self.sections.push((kind, bytes));
    }

    /// Append the model section via the [`HashModel::snapshot`] save hook.
    pub fn add_model<M: HashModel + ?Sized>(&mut self, model: &M) -> Result<(), PersistError> {
        let snap = model
            .snapshot()
            .ok_or_else(|| PersistError::ModelNotSupported {
                model: model.name().to_string(),
            })?;
        let mut w = ByteWriter::new();
        w.put_u8(snap.kind as u8);
        w.put_bytes(&snap.bytes);
        self.add_section(SectionKind::Model, w.into_bytes());
        Ok(())
    }

    /// Append one hash-table section.
    pub fn add_table<C: CodeWord>(&mut self, table: &HashTable<C>) {
        let mut w = ByteWriter::new();
        table.wire_write(&mut w);
        self.add_section(SectionKind::HashTable, w.into_bytes());
    }

    /// Append one prebuilt-MIH section.
    pub fn add_mih<C: CodeWord>(&mut self, mih: &MihIndex<C>) {
        let mut w = ByteWriter::new();
        mih.wire_write(&mut w);
        self.add_section(SectionKind::MihIndex, w.into_bytes());
    }

    /// Append the raw vectors (row-major, `dim` columns).
    pub fn add_vectors(&mut self, data: &[f32], dim: usize) {
        assert!(
            dim > 0 && data.len().is_multiple_of(dim),
            "data must be n×dim"
        );
        let mut w = ByteWriter::new();
        w.put_usize(dim);
        w.put_usize(data.len() / dim);
        w.put_f32_slice(data);
        self.add_section(SectionKind::Vectors, w.into_bytes());
    }

    /// Append the shard manifest. `shards` lists, in shard order, each
    /// shard's row count and whether a MIH section follows for it.
    pub fn add_manifest(&mut self, metric: Metric, shards: &[(usize, bool)]) {
        let mut w = ByteWriter::new();
        w.put_u8(match metric {
            Metric::SquaredEuclidean => 0,
            Metric::Angular => 1,
        });
        w.put_usize(shards.len());
        for &(rows, has_mih) in shards {
            w.put_usize(rows);
            w.put_u8(u8::from(has_mih));
        }
        self.add_section(SectionKind::ShardManifest, w.into_bytes());
    }

    /// Append the OPQ codebooks section.
    pub fn add_opq(&mut self, opq: &Opq) {
        let mut w = ByteWriter::new();
        opq.wire_write(&mut w);
        self.add_section(SectionKind::Opq, w.into_bytes());
    }

    /// Append the inverted-multi-index section.
    pub fn add_imi(&mut self, imi: &InvertedMultiIndex) {
        let mut w = ByteWriter::new();
        imi.wire_write(&mut w);
        self.add_section(SectionKind::Imi, w.into_bytes());
    }

    /// Append the calibrated recall-controller tables.
    pub fn add_recall_model(&mut self, model: &crate::recall::RecallModel) {
        let mut w = ByteWriter::new();
        model.wire_write(&mut w);
        self.add_section(SectionKind::RecallModel, w.into_bytes());
    }

    /// Append the typed attribute store (structured-predicate filtering).
    pub fn add_attrs(&mut self, attrs: &crate::attrs::AttributeStore) {
        let mut w = ByteWriter::new();
        attrs.wire_write(&mut w);
        self.add_section(SectionKind::Attributes, w.into_bytes());
    }

    /// Serialize header + TOC + payloads into one buffer.
    fn encode(&self) -> Vec<u8> {
        let toc_len = self.sections.len() * TOC_ENTRY_BYTES;
        let mut payload_offset = HEADER_BYTES + toc_len;

        let mut toc = ByteWriter::new();
        for (kind, bytes) in &self.sections {
            toc.put_u16(*kind as u16);
            toc.put_u16(0); // reserved
            toc.put_u64(payload_offset as u64);
            toc.put_u64(bytes.len() as u64);
            toc.put_u32(crc32(bytes));
            payload_offset += bytes.len();
        }
        let toc = toc.into_bytes();

        let mut head = ByteWriter::new();
        head.put_bytes(&MAGIC);
        head.put_u16(FORMAT_VERSION);
        head.put_u16(self.sections.len() as u16);
        head.put_u16(self.code_width);
        head.put_u16(0); // reserved
        let head_partial = head.into_bytes();

        // Header CRC covers bytes 0..16 plus the entire TOC.
        let mut crc_input = head_partial.clone();
        crc_input.extend_from_slice(&toc);
        let header_crc = crc32(&crc_input);

        let mut out = Vec::with_capacity(payload_offset);
        out.extend_from_slice(&head_partial);
        out.extend_from_slice(&header_crc.to_le_bytes());
        out.extend_from_slice(&toc);
        for (_, bytes) in &self.sections {
            out.extend_from_slice(bytes);
        }
        out
    }

    /// Write the snapshot crash-safely: temp file in the destination
    /// directory → `fsync` → atomic rename → directory `fsync`. Returns the
    /// number of bytes written.
    pub fn write(&self, path: &Path) -> Result<u64, PersistError> {
        assert!(
            self.sections.len() <= u16::MAX as usize,
            "section count exceeds u16"
        );
        let encoded = self.encode();
        let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let res = (|| {
            let mut f = fs::File::create(&tmp).map_err(io_err(&tmp))?;
            f.write_all(&encoded).map_err(io_err(&tmp))?;
            f.sync_all().map_err(io_err(&tmp))?;
            drop(f);
            fs::rename(&tmp, path).map_err(io_err(path))?;
            // Persist the rename itself; ignore platforms where opening a
            // directory for sync is not supported.
            if let Some(dir) = dir {
                if let Ok(d) = fs::File::open(dir) {
                    let _ = d.sync_all();
                }
            }
            Ok(encoded.len() as u64)
        })();
        if res.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        res
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A snapshot read from disk, with every CRC already verified.
#[derive(Debug)]
pub struct SnapshotFile {
    sections: Vec<(SectionKind, Vec<u8>)>,
    /// Code width declared by the header, in bits.
    code_width: u16,
    /// Total file size in bytes.
    pub file_bytes: u64,
}

impl SnapshotFile {
    /// Read and validate `path`: magic, version, header CRC, section
    /// bounds, and every section CRC. No payload is decoded yet.
    pub fn read(path: &Path) -> Result<SnapshotFile, PersistError> {
        let bytes = fs::read(path).map_err(io_err(path))?;
        Self::parse(&bytes)
    }

    /// Validate and slice an in-memory snapshot image of exactly
    /// [`FORMAT_VERSION`].
    pub fn parse(bytes: &[u8]) -> Result<SnapshotFile, PersistError> {
        if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
            return Err(PersistError::NotASnapshot);
        }
        if bytes.len() < HEADER_BYTES {
            return Err(PersistError::Truncated { what: "header" });
        }
        let version = u16::from_le_bytes([bytes[8], bytes[9]]);
        if version != FORMAT_VERSION {
            return Err(PersistError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let n_sections = u16::from_le_bytes([bytes[10], bytes[11]]) as usize;
        // Width u16 at 12, reserved u16 at 14, CRC at 16. The CRC covers
        // everything before the CRC field plus the TOC.
        let code_width = u16::from_le_bytes([bytes[12], bytes[13]]);
        let crc_at = 16;
        let header_crc = u32::from_le_bytes(
            bytes[crc_at..crc_at + 4]
                .try_into()
                .expect("length checked"),
        );
        let toc_end = HEADER_BYTES + n_sections * TOC_ENTRY_BYTES;
        if bytes.len() < toc_end {
            return Err(PersistError::Truncated {
                what: "table of contents",
            });
        }
        let mut crc_input = Vec::with_capacity(crc_at + toc_end - HEADER_BYTES);
        crc_input.extend_from_slice(&bytes[..crc_at]);
        crc_input.extend_from_slice(&bytes[HEADER_BYTES..toc_end]);
        if crc32(&crc_input) != header_crc {
            return Err(PersistError::ChecksumMismatch {
                section: "table of contents",
            });
        }
        if !VALID_CODE_WIDTHS.contains(&code_width) {
            return Err(PersistError::UnsupportedWidth { found: code_width });
        }

        let mut sections = Vec::with_capacity(n_sections);
        let mut r = ByteReader::new(&bytes[HEADER_BYTES..toc_end]);
        for _ in 0..n_sections {
            let tag = r.get_u16().expect("TOC length checked");
            let _reserved = r.get_u16().expect("TOC length checked");
            let offset = r.get_u64().expect("TOC length checked") as usize;
            let len = r.get_u64().expect("TOC length checked") as usize;
            let crc = r.get_u32().expect("TOC length checked");
            let kind = SectionKind::from_tag(tag).ok_or(PersistError::Corrupt {
                section: "table of contents",
                detail: WireError::Malformed("unknown section kind"),
            })?;
            let end = offset.checked_add(len).filter(|&e| e <= bytes.len());
            let Some(end) = end else {
                return Err(PersistError::Truncated { what: kind.name() });
            };
            let payload = &bytes[offset..end];
            if crc32(payload) != crc {
                return Err(PersistError::ChecksumMismatch {
                    section: kind.name(),
                });
            }
            sections.push((kind, payload.to_vec()));
        }
        Ok(SnapshotFile {
            sections,
            code_width,
            file_bytes: bytes.len() as u64,
        })
    }

    /// Code width declared by the header, in bits.
    pub fn code_width(&self) -> usize {
        self.code_width as usize
    }

    /// All sections of `kind`, in file order.
    pub fn sections_of(&self, kind: SectionKind) -> impl Iterator<Item = &[u8]> + '_ {
        self.sections
            .iter()
            .filter(move |(k, _)| *k == kind)
            .map(|(_, b)| b.as_slice())
    }

    /// The single section of `kind`; [`PersistError::MissingSection`] when
    /// absent.
    pub fn section(&self, kind: SectionKind) -> Result<&[u8], PersistError> {
        self.sections_of(kind)
            .next()
            .ok_or(PersistError::MissingSection {
                section: kind.name(),
            })
    }

    /// Decode the model section through the l2h model registry.
    pub fn model(&self) -> Result<Box<dyn HashModel>, PersistError> {
        let bytes = self.section(SectionKind::Model)?;
        l2h_persist::decode_model(bytes).map_err(corrupt(SectionKind::Model))
    }

    /// Decode the vectors section into `(data, dim)`.
    pub fn vectors(&self) -> Result<(Vec<f32>, usize), PersistError> {
        let bytes = self.section(SectionKind::Vectors)?;
        let mut r = ByteReader::new(bytes);
        let decode = |r: &mut ByteReader<'_>| -> Result<(Vec<f32>, usize), WireError> {
            let dim = r.get_usize()?;
            let rows = r.get_usize()?;
            let data = r.get_f32_vec()?;
            if dim == 0
                || data.len()
                    != rows
                        .checked_mul(dim)
                        .ok_or(WireError::Malformed("vector shape overflows"))?
            {
                return Err(WireError::Malformed("vector buffer is not rows×dim"));
            }
            if rows > u32::MAX as usize {
                return Err(WireError::Malformed("row count exceeds the u32 id space"));
            }
            r.expect_end()?;
            Ok((data, dim))
        };
        decode(&mut r).map_err(corrupt(SectionKind::Vectors))
    }

    /// Decode the shard manifest into `(metric, per-shard (rows, has_mih))`.
    pub fn manifest(&self) -> Result<(Metric, Vec<(usize, bool)>), PersistError> {
        let bytes = self.section(SectionKind::ShardManifest)?;
        let mut r = ByteReader::new(bytes);
        let decode = |r: &mut ByteReader<'_>| -> Result<(Metric, Vec<(usize, bool)>), WireError> {
            let metric = match r.get_u8()? {
                0 => Metric::SquaredEuclidean,
                1 => Metric::Angular,
                _ => return Err(WireError::Malformed("unknown metric tag")),
            };
            let n = r.get_usize()?;
            if n == 0 || n > u16::MAX as usize {
                return Err(WireError::Malformed("shard count out of range"));
            }
            let mut shards = Vec::with_capacity(n);
            for _ in 0..n {
                let rows = r.get_usize()?;
                let has_mih = match r.get_u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::Malformed("MIH flag out of range")),
                };
                shards.push((rows, has_mih));
            }
            r.expect_end()?;
            Ok((metric, shards))
        };
        decode(&mut r).map_err(corrupt(SectionKind::ShardManifest))
    }

    /// Decode every hash-table section, in shard order.
    pub fn tables<C: CodeWord>(&self) -> Result<Vec<HashTable<C>>, PersistError> {
        self.sections_of(SectionKind::HashTable)
            .map(|bytes| {
                let mut r = ByteReader::new(bytes);
                let t = HashTable::wire_read(&mut r)?;
                r.expect_end()?;
                Ok(t)
            })
            .collect::<Result<_, _>>()
            .map_err(corrupt(SectionKind::HashTable))
    }

    /// Decode every MIH section, in shard order.
    pub fn mihs<C: CodeWord>(&self) -> Result<Vec<MihIndex<C>>, PersistError> {
        self.sections_of(SectionKind::MihIndex)
            .map(|bytes| {
                let mut r = ByteReader::new(bytes);
                let m = MihIndex::wire_read(&mut r)?;
                r.expect_end()?;
                Ok(m)
            })
            .collect::<Result<_, _>>()
            .map_err(corrupt(SectionKind::MihIndex))
    }

    /// Decode the OPQ codebooks section.
    pub fn opq(&self) -> Result<Opq, PersistError> {
        let bytes = self.section(SectionKind::Opq)?;
        let mut r = ByteReader::new(bytes);
        let decode = |r: &mut ByteReader<'_>| -> Result<Opq, WireError> {
            let opq = Opq::wire_read(r)?;
            r.expect_end()?;
            Ok(opq)
        };
        decode(&mut r).map_err(corrupt(SectionKind::Opq))
    }

    /// Decode the recall-model section, when present (`Ok(None)` for
    /// snapshots saved before calibration or by older writers).
    pub fn recall_model(&self) -> Result<Option<crate::recall::RecallModel>, PersistError> {
        let Some(bytes) = self.sections_of(SectionKind::RecallModel).next() else {
            return Ok(None);
        };
        let mut r = ByteReader::new(bytes);
        let decode = |r: &mut ByteReader<'_>| -> Result<crate::recall::RecallModel, WireError> {
            let m = crate::recall::RecallModel::wire_read(r)?;
            r.expect_end()?;
            Ok(m)
        };
        decode(&mut r)
            .map(Some)
            .map_err(corrupt(SectionKind::RecallModel))
    }

    /// Decode the attribute-store section, when present (`Ok(None)` for
    /// snapshots saved without attributes or by older writers).
    pub fn attrs(&self) -> Result<Option<crate::attrs::AttributeStore>, PersistError> {
        let Some(bytes) = self.sections_of(SectionKind::Attributes).next() else {
            return Ok(None);
        };
        let mut r = ByteReader::new(bytes);
        let decode = |r: &mut ByteReader<'_>| -> Result<crate::attrs::AttributeStore, WireError> {
            let a = crate::attrs::AttributeStore::wire_read(r)?;
            r.expect_end()?;
            Ok(a)
        };
        decode(&mut r)
            .map(Some)
            .map_err(corrupt(SectionKind::Attributes))
    }

    /// Decode the inverted-multi-index section.
    pub fn imi(&self) -> Result<InvertedMultiIndex, PersistError> {
        let bytes = self.section(SectionKind::Imi)?;
        let mut r = ByteReader::new(bytes);
        let decode = |r: &mut ByteReader<'_>| -> Result<InvertedMultiIndex, WireError> {
            let imi = InvertedMultiIndex::wire_read(r)?;
            r.expect_end()?;
            Ok(imi)
        };
        decode(&mut r).map_err(corrupt(SectionKind::Imi))
    }
}

/// Map a [`WireError`] into [`PersistError::Corrupt`] for `kind`.
pub fn corrupt(kind: SectionKind) -> impl Fn(WireError) -> PersistError {
    move |detail| PersistError::Corrupt {
        section: kind.name(),
        detail,
    }
}

// ---------------------------------------------------------------------------
// Index-level save/load
// ---------------------------------------------------------------------------

/// One shard reconstructed from a snapshot.
pub struct LoadedShard<C: CodeWord = u64> {
    /// The shard's hash table.
    pub table: HashTable<C>,
    /// Prebuilt MIH side index, when the snapshot carried one.
    pub mih: Option<MihIndex<C>>,
    /// Global id of the shard's first row.
    pub offset: u32,
    /// Rows in this shard.
    pub rows: usize,
}

/// A fully reconstructed index: the owning container that
/// [`QueryEngine::from_snapshot`] and
/// [`ShardedIndex::from_snapshot`](crate::shard::ShardedIndex::from_snapshot)
/// borrow from.
pub struct LoadedIndex<C: CodeWord = u64> {
    model: Box<dyn HashModel>,
    data: Vec<f32>,
    dim: usize,
    metric: Metric,
    shards: Vec<LoadedShard<C>>,
    recall: Option<crate::recall::RecallModel>,
    attrs: Option<crate::attrs::AttributeStore>,
}

impl<C: CodeWord> std::fmt::Debug for LoadedIndex<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoadedIndex")
            .field("model", &self.model.name())
            .field("dim", &self.dim)
            .field("metric", &self.metric)
            .field("n_items", &self.n_items())
            .field("n_shards", &self.shards.len())
            .finish()
    }
}

impl<C: CodeWord> LoadedIndex<C> {
    /// Code width of the index, in bits.
    pub fn code_width(&self) -> usize {
        C::BITS
    }

    /// The reconstructed hash model.
    pub fn model(&self) -> &dyn HashModel {
        self.model.as_ref()
    }

    /// The raw vectors (row-major, [`LoadedIndex::dim`] columns).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The exact-evaluation metric the index was saved with.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Shards in offset order (`len() == 1` for single-engine snapshots).
    pub fn shards(&self) -> &[LoadedShard<C>] {
        &self.shards
    }

    /// Total indexed rows.
    pub fn n_items(&self) -> usize {
        self.shards.iter().map(|s| s.rows).sum()
    }

    /// The calibrated recall model, when the snapshot carried one.
    pub fn recall_model(&self) -> Option<&crate::recall::RecallModel> {
        self.recall.as_ref()
    }

    /// The typed attribute store, when the snapshot carried one. Keyed by
    /// global ids (the same id space the neighbor lists use).
    pub fn attrs(&self) -> Option<&crate::attrs::AttributeStore> {
        self.attrs.as_ref()
    }
}

/// Save a single-engine index (one table, optional MIH) as a one-shard
/// snapshot. Returns the bytes written. Prefer
/// [`QueryEngine::save_snapshot`] when an engine is already constructed.
#[allow(clippy::too_many_arguments)]
pub fn save_index<M: HashModel + ?Sized, C: CodeWord>(
    path: &Path,
    model: &M,
    table: &HashTable<C>,
    data: &[f32],
    dim: usize,
    mih: Option<&MihIndex<C>>,
    metric: Metric,
    recall: Option<&crate::recall::RecallModel>,
    attrs: Option<&crate::attrs::AttributeStore>,
) -> Result<u64, PersistError> {
    let mut w = SnapshotWriter::new();
    w.set_code_width(C::BITS);
    w.add_model(model)?;
    w.add_manifest(metric, &[(data.len() / dim.max(1), mih.is_some())]);
    w.add_vectors(data, dim);
    w.add_table(table);
    if let Some(mih) = mih {
        w.add_mih(mih);
    }
    if let Some(recall) = recall {
        w.add_recall_model(recall);
    }
    if let Some(attrs) = attrs {
        w.add_attrs(attrs);
    }
    w.write(path)
}

/// Load an index snapshot, validating checksums and cross-section
/// consistency before constructing anything.
pub fn load_index<C: CodeWord>(path: &Path) -> Result<LoadedIndex<C>, PersistError> {
    load_index_metered(path, &MetricsRegistry::disabled())
}

/// [`load_index`] with observability: records the load latency under
/// `gqr_snapshot_load_seconds` (nanosecond values, like every duration
/// histogram in the registry) and the file size under `gqr_snapshot_bytes`.
pub fn load_index_metered<C: CodeWord>(
    path: &Path,
    metrics: &MetricsRegistry,
) -> Result<LoadedIndex<C>, PersistError> {
    let started = std::time::Instant::now();
    let file = SnapshotFile::read(path)?;
    let loaded = assemble_index(&file)?;
    metrics.set("gqr_snapshot_bytes", file.file_bytes);
    metrics.record_duration("gqr_snapshot_load_seconds", started.elapsed());
    Ok(loaded)
}

/// Cross-validate the sections of an already-read index snapshot and
/// assemble the owning [`LoadedIndex`] at code width `C`, which must match
/// the width the header declares ([`SnapshotFile::code_width`]). This is
/// [`load_index`] for a caller that read the file itself, e.g. to branch
/// on its width or on whether it holds live mutation state.
pub fn assemble_index<C: CodeWord>(file: &SnapshotFile) -> Result<LoadedIndex<C>, PersistError> {
    if file.sections_of(SectionKind::LiveState).next().is_some() {
        return Err(PersistError::Inconsistent {
            detail: "snapshot holds live mutation state; load it with MutableIndex::from_snapshot",
        });
    }
    if file.code_width() != C::BITS {
        return Err(PersistError::WidthMismatch {
            found: file.code_width(),
            expected: C::BITS,
        });
    }
    let model = file.model()?;
    let (data, dim) = file.vectors()?;
    let (metric, manifest) = file.manifest()?;
    let tables = file.tables()?;
    let mut mihs = file.mihs()?.into_iter();

    if model.dim() != dim {
        return Err(PersistError::Inconsistent {
            detail: "model and vectors disagree on dimensionality",
        });
    }
    if tables.len() != manifest.len() {
        return Err(PersistError::Inconsistent {
            detail: "manifest shard count does not match hash-table sections",
        });
    }
    let total_rows: usize = manifest.iter().map(|&(rows, _)| rows).sum();
    if total_rows != data.len() / dim {
        return Err(PersistError::Inconsistent {
            detail: "manifest row counts do not match the vectors section",
        });
    }

    let mut shards = Vec::with_capacity(manifest.len());
    let mut offset = 0usize;
    for ((rows, has_mih), table) in manifest.into_iter().zip(tables) {
        if table.code_length() != model.code_length() {
            return Err(PersistError::Inconsistent {
                detail: "table and model disagree on code length",
            });
        }
        if table.max_id().is_some_and(|id| id as usize >= rows) {
            return Err(PersistError::Inconsistent {
                detail: "table references ids beyond its shard's rows",
            });
        }
        let mih = if has_mih {
            let mih = mihs.next().ok_or(PersistError::Inconsistent {
                detail: "manifest promises more MIH sections than the file holds",
            })?;
            if mih.code_length() != table.code_length() {
                return Err(PersistError::Inconsistent {
                    detail: "MIH index and table disagree on code length",
                });
            }
            Some(mih)
        } else {
            None
        };
        shards.push(LoadedShard {
            table,
            mih,
            offset: offset as u32,
            rows,
        });
        offset += rows;
    }
    if mihs.next().is_some() {
        return Err(PersistError::Inconsistent {
            detail: "file holds more MIH sections than the manifest promises",
        });
    }
    let recall = file.recall_model()?;
    let attrs = file.attrs()?;
    if let Some(a) = &attrs {
        if a.n_items() > total_rows {
            return Err(PersistError::Inconsistent {
                detail: "attribute store covers more rows than the vectors section",
            });
        }
    }
    Ok(LoadedIndex {
        model,
        data,
        dim,
        metric,
        shards,
        recall,
        attrs,
    })
}

impl<'a, C: CodeWord> QueryEngine<'a, dyn HashModel + 'a, C> {
    /// Engine borrowing a loaded single-shard snapshot; fails with
    /// [`PersistError::WrongShardCount`] on sharded snapshots (use
    /// [`ShardedIndex::from_snapshot`](crate::shard::ShardedIndex::from_snapshot)
    /// for those).
    pub fn from_snapshot(snap: &'a LoadedIndex<C>) -> Result<Self, PersistError> {
        if snap.shards().len() != 1 {
            return Err(PersistError::WrongShardCount {
                found: snap.shards().len(),
                expected: 1,
            });
        }
        let shard = &snap.shards()[0];
        let mut engine = QueryEngine::new(snap.model(), &shard.table, snap.data(), snap.dim())
            .with_metric(snap.metric());
        if let Some(mih) = &shard.mih {
            engine = engine.with_mih(mih);
        }
        if let Some(recall) = snap.recall_model() {
            engine = engine.with_recall_model(recall);
        }
        if let Some(attrs) = snap.attrs() {
            engine = engine.with_attrs(attrs);
        }
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_file_is_not_a_snapshot() {
        assert!(matches!(
            SnapshotFile::parse(&[]),
            Err(PersistError::NotASnapshot)
        ));
    }

    #[test]
    fn magic_only_is_truncated() {
        assert!(matches!(
            SnapshotFile::parse(&MAGIC),
            Err(PersistError::Truncated { what: "header" })
        ));
    }

    #[test]
    fn version_skew_is_rejected_with_a_clear_error() {
        let mut w = SnapshotWriter::new();
        w.add_section(SectionKind::Vectors, vec![1, 2, 3]);
        let mut bytes = w.encode();
        bytes[8] = FORMAT_VERSION as u8 + 1; // bump the version byte
        let err = SnapshotFile::parse(&bytes).unwrap_err();
        match err {
            PersistError::UnsupportedVersion { found, supported } => {
                assert_eq!(found, FORMAT_VERSION + 1);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        assert!(err.to_string().contains("unsupported snapshot version"));
    }

    #[test]
    fn payload_bit_flip_names_the_section() {
        let mut w = SnapshotWriter::new();
        w.add_section(SectionKind::Opq, vec![7u8; 64]);
        let mut bytes = w.encode();
        let payload_start = bytes.len() - 64;
        bytes[payload_start + 10] ^= 0x20;
        match SnapshotFile::parse(&bytes).unwrap_err() {
            PersistError::ChecksumMismatch { section } => {
                assert_eq!(section, "OPQ codebooks");
            }
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }

    #[test]
    fn toc_bit_flip_is_detected() {
        let mut w = SnapshotWriter::new();
        w.add_section(SectionKind::Vectors, vec![1u8; 16]);
        let mut bytes = w.encode();
        bytes[HEADER_BYTES + 4] ^= 0x01; // flip inside the TOC offset field
        assert!(matches!(
            SnapshotFile::parse(&bytes),
            Err(PersistError::ChecksumMismatch {
                section: "table of contents"
            })
        ));
    }

    #[test]
    fn sections_roundtrip_in_order() {
        let mut w = SnapshotWriter::new();
        w.add_section(SectionKind::HashTable, vec![1]);
        w.add_section(SectionKind::HashTable, vec![2]);
        w.add_section(SectionKind::MihIndex, vec![3]);
        let bytes = w.encode();
        let file = SnapshotFile::parse(&bytes).unwrap();
        let tables: Vec<&[u8]> = file.sections_of(SectionKind::HashTable).collect();
        assert_eq!(tables, vec![&[1u8][..], &[2u8][..]]);
        assert_eq!(file.section(SectionKind::MihIndex).unwrap(), &[3]);
        assert!(matches!(
            file.section(SectionKind::Opq),
            Err(PersistError::MissingSection {
                section: "OPQ codebooks"
            })
        ));
    }

    #[test]
    fn crash_safe_write_replaces_atomically_and_cleans_tmp() {
        let dir = std::env::temp_dir().join(format!("gqr-persist-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.gqr");
        let mut w = SnapshotWriter::new();
        w.add_section(SectionKind::Vectors, vec![9u8; 8]);
        let n = w.write(&path).unwrap();
        assert_eq!(n, fs::metadata(&path).unwrap().len());
        // Overwrite with different content; old file must be replaced.
        let mut w2 = SnapshotWriter::new();
        w2.add_section(SectionKind::Vectors, vec![1u8; 32]);
        w2.write(&path).unwrap();
        let file = SnapshotFile::read(&path).unwrap();
        assert_eq!(file.section(SectionKind::Vectors).unwrap().len(), 32);
        // No stray temp files left behind.
        let stray: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .collect();
        assert!(stray.is_empty(), "leftover temp files: {stray:?}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
