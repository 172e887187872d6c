//! Little-endian byte codec and CRC32 shared by the binary snapshot format.
//!
//! Every crate that persists a trained artifact (hash models in `gqr-l2h`,
//! PQ/OPQ/IMI codebooks in `gqr-vq`, MPLSH tables in `gqr-mplsh`, hash tables
//! and MIH blocks in `gqr-core`) encodes its payload with [`ByteWriter`] /
//! [`ByteReader`] and lets `gqr-core::persist` wrap the payloads in a
//! checksummed, sectioned container. This module sits at the bottom of the
//! workspace dependency graph so all of them can share one codec.
//!
//! Encoding rules: all integers and floats are little-endian; slices are
//! length-prefixed with a `u64` element count. Readers never panic on
//! malformed input — every decode returns a [`WireError`], and slice lengths
//! are validated against the remaining buffer *before* allocating, so a
//! corrupt length cannot trigger an out-of-memory abort.

use crate::matrix::Matrix;
use crate::pca::Pca;
use crate::row_buffer::RowBuffer;

/// Errors produced when decoding a byte payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value could be read.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that were left.
        have: usize,
    },
    /// The bytes decoded but described an impossible value (bad tag,
    /// inconsistent lengths, arithmetic overflow in a size field).
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(f, "payload truncated: needed {needed} bytes, have {have}")
            }
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// CRC32
// ---------------------------------------------------------------------------

/// Reflected IEEE 802.3 polynomial (the one used by zip/png/ethernet).
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Bytes consumed per step of the sliced loop in [`crc32`].
const CRC32_SLICES: usize = 16;

/// Slicing-by-16 tables. `[0]` is the classic byte-at-a-time table;
/// `[s][b]` is the CRC register after byte `b` is followed by `s` zero
/// bytes, so the sixteen lookups of one step can be XORed independently.
const fn crc32_tables() -> [[u32; 256]; CRC32_SLICES] {
    let mut tables = [[0u32; 256]; CRC32_SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC32_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut s = 1;
    while s < CRC32_SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[s - 1][i];
            tables[s][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        s += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; CRC32_SLICES] = crc32_tables();

/// Table-driven CRC32 (IEEE, reflected) over `bytes`: sixteen bytes per
/// step through the slicing tables, then byte at a time for the tail. The
/// value equals the plain byte-wise loop's.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let (blocks, tail) = bytes.as_chunks::<CRC32_SLICES>();
    for block in blocks {
        let head = crc ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
        crc = t[15][(head & 0xFF) as usize]
            ^ t[14][((head >> 8) & 0xFF) as usize]
            ^ t[13][((head >> 16) & 0xFF) as usize]
            ^ t[12][(head >> 24) as usize];
        for (s, &b) in block[4..].iter().enumerate() {
            crc ^= t[11 - s][b as usize];
        }
    }
    for &b in tail {
        let idx = ((crc ^ b as u32) & 0xFF) as usize;
        crc = (crc >> 8) ^ t[0][idx];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Append-only little-endian byte sink.
#[derive(Default, Debug)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Consume the writer and return the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append raw bytes (no length prefix).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a little-endian `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append a little-endian IEEE-754 `f32`.
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian IEEE-754 `f64`.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`-length-prefixed `u32` slice.
    pub fn put_u32_slice(&mut self, v: &[u32]) {
        self.put_usize(v.len());
        for &x in v {
            self.put_u32(x);
        }
    }

    /// Append a `u64`-length-prefixed `u64` slice.
    pub fn put_u64_slice(&mut self, v: &[u64]) {
        self.put_usize(v.len());
        for &x in v {
            self.put_u64(x);
        }
    }

    /// Append a `u64`-length-prefixed `i32` slice.
    pub fn put_i32_slice(&mut self, v: &[i32]) {
        self.put_usize(v.len());
        for &x in v {
            self.put_u32(x as u32);
        }
    }

    /// Append a `u64`-length-prefixed `f32` slice.
    pub fn put_f32_slice(&mut self, v: &[f32]) {
        self.put_usize(v.len());
        for &x in v {
            self.put_f32(x);
        }
    }

    /// Append a `u64`-length-prefixed `f64` slice.
    pub fn put_f64_slice(&mut self, v: &[f64]) {
        self.put_usize(v.len());
        for &x in v {
            self.put_f64(x);
        }
    }

    /// Append a matrix: rows, cols, then `rows*cols` row-major `f64`s.
    pub fn put_matrix(&mut self, m: &Matrix) {
        self.put_usize(m.rows());
        self.put_usize(m.cols());
        for v in m.as_slice() {
            self.put_f64(*v);
        }
    }

    /// Append a PCA basis (mean, components, explained variance).
    pub fn put_pca(&mut self, pca: &Pca) {
        self.put_f64_slice(&pca.mean);
        self.put_matrix(&pca.components);
        self.put_f64_slice(&pca.explained_variance);
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Cursor over an encoded byte payload. All reads are checked.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the whole buffer has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Fail unless every byte has been consumed (guards against payloads
    /// with trailing garbage that a shorter schema would silently accept).
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after payload"))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Read a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a `u64` and convert to `usize`, rejecting values that do not fit.
    pub fn get_usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.get_u64()?).map_err(|_| WireError::Malformed("size exceeds usize"))
    }

    /// Read a little-endian `f32`.
    pub fn get_f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `f64`.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a length prefix for elements of `elem_size` bytes, validating it
    /// against the remaining buffer before any allocation happens.
    pub fn get_len(&mut self, elem_size: usize) -> Result<usize, WireError> {
        let len = self.get_usize()?;
        let bytes = len
            .checked_mul(elem_size)
            .ok_or(WireError::Malformed("slice length overflows"))?;
        if bytes > self.remaining() {
            return Err(WireError::Truncated {
                needed: bytes,
                have: self.remaining(),
            });
        }
        Ok(len)
    }

    /// Read a length-prefixed `u32` slice.
    pub fn get_u32_vec(&mut self) -> Result<Vec<u32>, WireError> {
        let len = self.get_len(4)?;
        (0..len).map(|_| self.get_u32()).collect()
    }

    /// Read a length-prefixed `u64` slice.
    pub fn get_u64_vec(&mut self) -> Result<Vec<u64>, WireError> {
        let len = self.get_len(8)?;
        (0..len).map(|_| self.get_u64()).collect()
    }

    /// Read a length-prefixed `i32` slice.
    pub fn get_i32_vec(&mut self) -> Result<Vec<i32>, WireError> {
        let len = self.get_len(4)?;
        (0..len).map(|_| self.get_u32().map(|v| v as i32)).collect()
    }

    /// Read a length-prefixed `f32` slice.
    pub fn get_f32_vec(&mut self) -> Result<Vec<f32>, WireError> {
        let len = self.get_len(4)?;
        (0..len).map(|_| self.get_f32()).collect()
    }

    /// Read a length-prefixed `f32` slice straight into a [`RowBuffer`]:
    /// the one copy of a snapshot's rows, with no `Vec` beside it.
    pub fn get_f32_rows(&mut self) -> Result<RowBuffer, WireError> {
        let len = self.get_len(4)?;
        let bytes = self.take(len * 4)?;
        let mut rows = RowBuffer::with_capacity(len);
        rows.extend_from_le_bytes(bytes);
        Ok(rows)
    }

    /// Read a length-prefixed `f64` slice.
    pub fn get_f64_vec(&mut self) -> Result<Vec<f64>, WireError> {
        let len = self.get_len(8)?;
        (0..len).map(|_| self.get_f64()).collect()
    }

    /// Read a matrix written by [`ByteWriter::put_matrix`].
    pub fn get_matrix(&mut self) -> Result<Matrix, WireError> {
        let rows = self.get_usize()?;
        let cols = self.get_usize()?;
        let n = rows
            .checked_mul(cols)
            .ok_or(WireError::Malformed("matrix dimensions overflow"))?;
        let bytes = n
            .checked_mul(8)
            .ok_or(WireError::Malformed("matrix dimensions overflow"))?;
        if bytes > self.remaining() {
            return Err(WireError::Truncated {
                needed: bytes,
                have: self.remaining(),
            });
        }
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(self.get_f64()?);
        }
        Ok(Matrix::from_vec(rows, cols, data))
    }

    /// Read a PCA basis written by [`ByteWriter::put_pca`].
    pub fn get_pca(&mut self) -> Result<Pca, WireError> {
        let mean = self.get_f64_vec()?;
        let components = self.get_matrix()?;
        let explained_variance = self.get_f64_vec()?;
        if components.cols() != mean.len() {
            return Err(WireError::Malformed("PCA mean/components shape mismatch"));
        }
        if components.rows() != explained_variance.len() {
            return Err(WireError::Malformed(
                "PCA variance/components shape mismatch",
            ));
        }
        Ok(Pca {
            mean,
            components,
            explained_variance,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// The classic one-table loop the sliced [`crc32`] must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn sliced_crc32_equals_bytewise_at_every_length_and_offset() {
        // xorshift bytes: every table lane sees varied input.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..257 + 16)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        for start in 0..16 {
            for len in 0..=257 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn primitives_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f32(1.5);
        w.put_f64(-2.25);
        w.put_u32_slice(&[1, 2, 3]);
        w.put_u64_slice(&[9]);
        w.put_i32_slice(&[-4, 5]);
        w.put_f32_slice(&[0.5, -0.5]);
        w.put_f32_slice(&[1.25, f32::MAX]);
        w.put_f64_slice(&[]);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 0xBEEF);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f32().unwrap(), 1.5);
        assert_eq!(r.get_f64().unwrap(), -2.25);
        assert_eq!(r.get_u32_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_u64_vec().unwrap(), vec![9]);
        assert_eq!(r.get_i32_vec().unwrap(), vec![-4, 5]);
        assert_eq!(r.get_f32_vec().unwrap(), vec![0.5, -0.5]);
        assert_eq!(&r.get_f32_rows().unwrap()[..], &[1.25, f32::MAX]);
        assert_eq!(r.get_f64_vec().unwrap(), Vec::<f64>::new());
        r.expect_end().unwrap();
    }

    #[test]
    fn truncated_reads_error() {
        let mut w = ByteWriter::new();
        w.put_u64(42);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..5]);
        assert!(matches!(
            r.get_u64(),
            Err(WireError::Truncated { needed: 8, have: 5 })
        ));
    }

    #[test]
    fn corrupt_length_prefix_is_rejected_before_allocation() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX); // absurd element count
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_f64_vec().is_err());
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_f32_rows().is_err());
    }

    #[test]
    fn matrix_and_pca_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let pca = Pca {
            mean: vec![0.5, -0.5],
            components: Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]),
            explained_variance: vec![2.0, 1.0],
        };
        let mut w = ByteWriter::new();
        w.put_matrix(&m);
        w.put_pca(&pca);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        let m2 = r.get_matrix().unwrap();
        assert_eq!(m2.rows(), 3);
        assert_eq!(m2.cols(), 2);
        assert_eq!(m2.as_slice(), m.as_slice());
        let p2 = r.get_pca().unwrap();
        assert_eq!(p2.mean, pca.mean);
        assert_eq!(p2.components.as_slice(), pca.components.as_slice());
        assert_eq!(p2.explained_variance, pca.explained_variance);
        r.expect_end().unwrap();
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = ByteWriter::new();
        w.put_u32(1);
        w.put_u8(0);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        r.get_u32().unwrap();
        assert!(r.expect_end().is_err());
    }
}
