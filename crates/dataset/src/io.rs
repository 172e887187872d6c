//! `fvecs` / `ivecs` IO — the TEXMEX formats used by GIST1M/SIFT1M et al.
//!
//! Each record is a little-endian `i32` count `d` followed by `d` payload
//! entries (`f32` for fvecs, `i32` for ivecs). Provided so users with the
//! real benchmark files can swap them in for the synthetic stand-ins.

use crate::Dataset;
use gqr_linalg::wire::ByteReader;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Read an `.fvecs` file into a [`Dataset`].
///
/// Fails with `InvalidData` on ragged dimensions, non-positive dimension
/// headers, or truncated records.
pub fn read_fvecs(path: impl AsRef<Path>, name: impl Into<String>) -> io::Result<Dataset> {
    let mut reader = BufReader::new(File::open(path)?);
    let mut raw = Vec::new();
    reader.read_to_end(&mut raw)?;
    parse_fvecs(&raw, name)
}

/// Parse fvecs-format bytes.
pub fn parse_fvecs(raw: &[u8], name: impl Into<String>) -> io::Result<Dataset> {
    let mut r = ByteReader::new(raw);
    let mut dim: Option<usize> = None;
    let mut data = Vec::new();
    while !r.is_empty() {
        let d = record_header(&mut r)?;
        if d <= 0 {
            return Err(invalid("non-positive vector dimension"));
        }
        let d = d as usize;
        match dim {
            None => dim = Some(d),
            Some(expect) if expect != d => return Err(invalid("ragged vector dimensions")),
            _ => {}
        }
        let payload = r
            .get_bytes(4 * d)
            .map_err(|_| invalid("truncated vector payload"))?;
        data.extend(le_words(payload).map(f32::from_le_bytes));
    }
    let dim = dim.ok_or_else(|| invalid("empty fvecs file"))?;
    Ok(Dataset::new(name, dim, data))
}

/// Write a [`Dataset`] in fvecs format.
pub fn write_fvecs(path: impl AsRef<Path>, ds: &Dataset) -> io::Result<()> {
    let mut writer = BufWriter::new(File::create(path)?);
    for row in ds.rows() {
        writer.write_all(&(ds.dim() as i32).to_le_bytes())?;
        for &x in row {
            writer.write_all(&x.to_le_bytes())?;
        }
    }
    writer.flush()
}

/// Read an `.ivecs` file (e.g. TEXMEX ground-truth id lists).
pub fn read_ivecs(path: impl AsRef<Path>) -> io::Result<Vec<Vec<i32>>> {
    let mut reader = BufReader::new(File::open(path)?);
    let mut raw = Vec::new();
    reader.read_to_end(&mut raw)?;
    parse_ivecs(&raw)
}

/// Parse ivecs-format bytes.
pub fn parse_ivecs(raw: &[u8]) -> io::Result<Vec<Vec<i32>>> {
    let mut r = ByteReader::new(raw);
    let mut out = Vec::new();
    while !r.is_empty() {
        let d = record_header(&mut r)?;
        if d < 0 {
            return Err(invalid("negative record length"));
        }
        let payload = r
            .get_bytes(4 * d as usize)
            .map_err(|_| invalid("truncated record payload"))?;
        out.push(le_words(payload).map(i32::from_le_bytes).collect());
    }
    Ok(out)
}

/// Write id lists in ivecs format.
pub fn write_ivecs(path: impl AsRef<Path>, records: &[Vec<i32>]) -> io::Result<()> {
    let mut writer = BufWriter::new(File::create(path)?);
    for rec in records {
        writer.write_all(&(rec.len() as i32).to_le_bytes())?;
        for &x in rec {
            writer.write_all(&x.to_le_bytes())?;
        }
    }
    writer.flush()
}

/// The little-endian `i32` that opens every record.
fn record_header(r: &mut ByteReader<'_>) -> io::Result<i32> {
    r.get_u32()
        .map(|w| w as i32)
        .map_err(|_| invalid("truncated dimension header"))
}

/// `payload` as 4-byte words (its length is a multiple of 4).
fn le_words(payload: &[u8]) -> impl Iterator<Item = [u8; 4]> + '_ {
    payload.chunks_exact(4).map(|w| [w[0], w[1], w[2], w[3]])
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fvecs_roundtrip() {
        let ds = Dataset::new("toy", 3, vec![1.0, -2.5, 0.0, 4.0, 5.0, 6.5]);
        let dir = std::env::temp_dir().join("gqr_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.fvecs");
        write_fvecs(&path, &ds).unwrap();
        let back = read_fvecs(&path, "toy").unwrap();
        assert_eq!(back.dim(), 3);
        assert_eq!(back.as_slice(), ds.as_slice());
    }

    #[test]
    fn ivecs_roundtrip() {
        let recs = vec![vec![1, 2, 3], vec![], vec![7]];
        let dir = std::env::temp_dir().join("gqr_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.ivecs");
        write_ivecs(&path, &recs).unwrap();
        assert_eq!(read_ivecs(&path).unwrap(), recs);
    }

    /// fvecs bytes: each record is a dimension header, then its floats.
    fn fvecs_bytes(records: &[(i32, &[f32])]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for &(d, xs) in records {
            bytes.extend_from_slice(&d.to_le_bytes());
            for x in xs {
                bytes.extend_from_slice(&x.to_le_bytes());
            }
        }
        bytes
    }

    #[test]
    fn parse_rejects_ragged() {
        // The second record has a different dimension.
        let bytes = fvecs_bytes(&[(2, &[1.0, 2.0]), (3, &[1.0, 2.0, 3.0])]);
        let err = parse_fvecs(&bytes, "bad").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn parse_rejects_truncation() {
        // Only one of four floats.
        let bytes = fvecs_bytes(&[(4, &[1.0])]);
        let err = parse_fvecs(&bytes, "bad").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let err = parse_fvecs(&bytes[..2], "bad").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let err = parse_ivecs(&fvecs_bytes(&[(2, &[1.0])])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn parse_rejects_empty_and_nonpositive_dim() {
        assert!(parse_fvecs(&[], "bad").is_err());
        assert!(parse_fvecs(&fvecs_bytes(&[(0, &[])]), "bad").is_err());
        assert!(parse_ivecs(&fvecs_bytes(&[(-1, &[])])).is_err());
    }
}
