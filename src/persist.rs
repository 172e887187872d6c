//! Snapshot save/load for every index family in the workspace.
//!
//! Re-exports [`gqr_core::persist`] — the checksummed sectioned snapshot
//! container (format spec, crash-safe writer, validated reader, and
//! [`LoadedIndex`]) — and adds the file-level glue for
//! [`MpLshIndex`], which lives below `gqr-core` in
//! the crate graph and therefore cannot host it itself.

pub use gqr_core::persist::{
    assemble_index, load_index, load_index_metered, save_index, LoadedIndex, LoadedShard,
    PersistError, SectionKind, SnapshotFile, SnapshotWriter, FORMAT_VERSION, MAGIC,
};
use gqr_linalg::wire::{ByteReader, ByteWriter};
use gqr_mplsh::MpLshIndex;
use std::path::Path;

/// Save a multi-probe LSH index as a single-section snapshot at `path`
/// (crash-safe, CRC-checked like every snapshot). Returns the bytes
/// written.
pub fn save_mplsh(path: &Path, index: &MpLshIndex) -> Result<u64, PersistError> {
    let mut w = ByteWriter::new();
    index.wire_write(&mut w);
    let mut snap = SnapshotWriter::new();
    snap.add_section(SectionKind::Mplsh, w.into_bytes());
    snap.write(path)
}

/// Load a multi-probe LSH index saved by [`save_mplsh`], validating the
/// checksums and the payload before constructing anything.
pub fn load_mplsh(path: &Path) -> Result<MpLshIndex, PersistError> {
    let file = SnapshotFile::read(path)?;
    let bytes = file.section(SectionKind::Mplsh)?;
    let mut r = ByteReader::new(bytes);
    let decode = |r: &mut ByteReader<'_>| {
        let index = MpLshIndex::wire_read(r)?;
        r.expect_end()?;
        Ok(index)
    };
    decode(&mut r).map_err(gqr_core::persist::corrupt(SectionKind::Mplsh))
}
