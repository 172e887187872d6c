//! An owned, growable `f32` row array laid out for scattered row reads.
//!
//! Scoring candidates in place reads one row per candidate from anywhere in
//! the index's row array, so the array's placement in memory shows in every
//! query. A `Vec<f32>` gives no placement: a large one typically starts
//! 16 bytes past a page boundary, so a 384-byte row spans seven cache lines
//! instead of six, and each row read on a cold 4 KiB page costs a TLB miss.
//! [`RowBuffer`] fixes both:
//!
//! * its base is 64-byte (cache-line) aligned, so a row whose byte length
//!   is a multiple of 64 spans exactly that many lines;
//! * once it spans [`HUGE_PAGE`] bytes its base is [`HUGE_PAGE`] aligned,
//!   and on Linux (x86-64, aarch64) it asks the kernel to back it with
//!   transparent huge pages (`madvise(MADV_HUGEPAGE)`) before the first
//!   write. The advice is best effort: it needs the system's THP mode to be
//!   `madvise` or `always`, and otherwise the buffer quietly keeps 4 KiB
//!   pages. Alignment and contents never depend on it.
//!
//! Only memory the buffer allocates itself is ever advised; a caller's
//! slice is never touched.

use std::alloc::{self, Layout};
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// Alignment of every buffer's base: one cache line.
pub const LINE_BYTES: usize = 64;

/// Size of a transparent huge page (x86-64 and aarch64 with 4 KiB base
/// pages). A buffer this large or larger is aligned to it and advised.
pub const HUGE_PAGE: usize = 2 << 20;

/// Owned, growable, row-major `f32` storage with a cache-line-aligned base,
/// huge-page-aligned and advised once it spans [`HUGE_PAGE`] bytes.
/// Dereferences to `[f32]`.
pub struct RowBuffer {
    /// Base of the allocation (a dangling, line-aligned address while
    /// `cap == 0`).
    ptr: NonNull<f32>,
    /// Initialized elements: `ptr[..len]`.
    len: usize,
    /// Allocated elements; `len <= cap`.
    cap: usize,
}

// SAFETY: a `RowBuffer` owns its allocation exclusively, like `Vec<f32>`:
// `ptr` is never shared with another value, and `f32` is `Send` and `Sync`.
// Moving it to another thread moves that ownership; `&RowBuffer` only
// allows reads.
unsafe impl Send for RowBuffer {}
// SAFETY: see `Send`; shared references hand out `&[f32]` only.
unsafe impl Sync for RowBuffer {}

/// The layout of a `cap`-element allocation: line aligned, huge-page
/// aligned once it spans a huge page.
fn layout(cap: usize) -> Layout {
    let bytes = cap
        .checked_mul(size_of::<f32>())
        .expect("row buffer size overflows usize");
    let align = if bytes >= HUGE_PAGE {
        HUGE_PAGE
    } else {
        LINE_BYTES
    };
    Layout::from_size_align(bytes, align).expect("row buffer size overflows isize")
}

/// Ask the kernel to back `bytes` bytes at `base` with transparent huge
/// pages. Best effort: the return value is ignored.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn advise_huge_pages(base: *mut u8, bytes: usize) {
    use std::ffi::{c_int, c_void};
    /// `MADV_HUGEPAGE` of Linux's generic `mman-common.h`.
    const MADV_HUGEPAGE: c_int = 14;
    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    // SAFETY: `base..base + bytes` is one live allocation of this buffer,
    // and `base` is huge-page aligned, hence page aligned. `MADV_HUGEPAGE`
    // only sets a flag on the mapping; it neither frees nor moves memory,
    // and a failure (THP compiled out, mode `never`) changes nothing.
    let _ = unsafe { madvise(base.cast::<c_void>(), bytes, MADV_HUGEPAGE) };
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn advise_huge_pages(_base: *mut u8, _bytes: usize) {}

impl RowBuffer {
    /// An empty buffer; allocates nothing.
    pub fn new() -> RowBuffer {
        let dangling = std::ptr::without_provenance_mut::<f32>(LINE_BYTES);
        RowBuffer {
            ptr: NonNull::new(dangling).expect("LINE_BYTES is non-zero"),
            len: 0,
            cap: 0,
        }
    }

    /// An empty buffer with room for `cap` elements.
    pub fn with_capacity(cap: usize) -> RowBuffer {
        let mut buf = RowBuffer::new();
        buf.reserve(cap);
        buf
    }

    /// A buffer holding a copy of `data`, with no spare room.
    pub fn from_slice(data: &[f32]) -> RowBuffer {
        let mut buf = RowBuffer::with_capacity(data.len());
        buf.extend_from_slice(data);
        buf
    }

    /// Elements the buffer holds without reallocating.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Make room for at least `additional` more elements. Growth at least
    /// doubles the capacity, so appending row by row is amortized O(1).
    pub fn reserve(&mut self, additional: usize) {
        let need = self
            .len
            .checked_add(additional)
            .expect("row buffer size overflows usize");
        if need <= self.cap {
            return;
        }
        let cap = need.max(2 * self.cap);
        let new = layout(cap);
        // SAFETY: `cap >= need > 0`, so the layout has a non-zero size.
        let raw = unsafe { alloc::alloc(new) };
        let Some(base) = NonNull::new(raw.cast::<f32>()) else {
            alloc::handle_alloc_error(new);
        };
        if new.align() == HUGE_PAGE {
            // Before the first write, so the first touch faults huge pages.
            advise_huge_pages(raw, new.size());
        }
        // SAFETY: the old allocation holds `len` initialized elements, the
        // new one has room for `cap >= len`, and the two are distinct.
        unsafe { std::ptr::copy_nonoverlapping(self.ptr.as_ptr(), base.as_ptr(), self.len) };
        self.free();
        self.ptr = base;
        self.cap = cap;
    }

    /// Append `data`.
    pub fn extend_from_slice(&mut self, data: &[f32]) {
        self.reserve(data.len());
        // SAFETY: `reserve` left room for `data.len()` elements after
        // `len`; `data` cannot alias them, since `&mut self` excludes any
        // borrow of this buffer's contents.
        unsafe {
            let dst = self.ptr.as_ptr().add(self.len);
            std::ptr::copy_nonoverlapping(data.as_ptr(), dst, data.len());
        }
        self.len += data.len();
    }

    /// Append the little-endian `f32`s encoded in `bytes`, whose length
    /// must be a multiple of 4.
    pub fn extend_from_le_bytes(&mut self, bytes: &[u8]) {
        assert!(
            bytes.len().is_multiple_of(size_of::<f32>()),
            "f32 bytes come in fours"
        );
        let n = bytes.len() / size_of::<f32>();
        self.reserve(n);
        let dst = self.ptr.as_ptr().wrapping_add(self.len);
        #[cfg(target_endian = "little")]
        // SAFETY: `reserve` left room for `n` elements (`bytes.len()`
        // bytes) after `len`; `bytes` cannot alias them (see
        // `extend_from_slice`). Every bit pattern is a valid `f32`, and on
        // a little-endian target the encoding is the in-memory layout.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), dst.cast::<u8>(), bytes.len());
        }
        #[cfg(not(target_endian = "little"))]
        for (i, b) in bytes.chunks_exact(4).enumerate() {
            let v = f32::from_le_bytes(b.try_into().expect("chunks of four"));
            // SAFETY: `i < n`, and `reserve` left room for `n` elements.
            unsafe { dst.add(i).write(v) };
        }
        self.len += n;
    }

    /// Release the allocation, if any.
    fn free(&mut self) {
        if self.cap > 0 {
            // SAFETY: `ptr` was allocated by `reserve` with `layout(cap)`.
            unsafe { alloc::dealloc(self.ptr.as_ptr().cast::<u8>(), layout(self.cap)) };
        }
    }
}

impl Default for RowBuffer {
    fn default() -> RowBuffer {
        RowBuffer::new()
    }
}

impl Drop for RowBuffer {
    fn drop(&mut self) {
        self.free();
    }
}

impl Clone for RowBuffer {
    fn clone(&self) -> RowBuffer {
        RowBuffer::from_slice(self)
    }
}

impl Deref for RowBuffer {
    type Target = [f32];

    #[inline]
    fn deref(&self) -> &[f32] {
        // SAFETY: `ptr[..len]` is initialized and owned by `self` (for
        // `len == 0`, `ptr` is a non-null, aligned dangling pointer).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl DerefMut for RowBuffer {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f32] {
        // SAFETY: as in `deref`, and `&mut self` makes the borrow unique.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl std::fmt::Debug for RowBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowBuffer")
            .field("len", &self.len)
            .field("capacity", &self.cap)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f32> {
        (0..n).map(|i| i as f32 * 0.5 - 3.0).collect()
    }

    fn assert_placed(buf: &RowBuffer) {
        let addr = buf.as_ptr() as usize;
        assert_eq!(addr % LINE_BYTES, 0, "base not line aligned: {buf:?}");
        if buf.capacity() * 4 >= HUGE_PAGE {
            assert_eq!(addr % HUGE_PAGE, 0, "base not huge-page aligned: {buf:?}");
        }
    }

    #[test]
    fn empty_buffer_is_aligned_and_allocates_nothing() {
        let buf = RowBuffer::new();
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), 0);
        assert_placed(&buf);
        assert_placed(&RowBuffer::from_slice(&[]));
        assert_placed(&buf.clone());
    }

    #[test]
    fn contents_equal_the_appended_rows_through_growth() {
        // 17 and 96 columns; enough rows to cross the huge-page boundary.
        for dim in [17usize, 96] {
            let rows = HUGE_PAGE / 4 / dim + 3;
            let data = ramp(rows * dim);
            let mut buf = RowBuffer::new();
            let mut crossed = false;
            for row in data.chunks_exact(dim) {
                buf.extend_from_slice(row);
                assert_placed(&buf);
                crossed |= buf.capacity() * 4 >= HUGE_PAGE;
            }
            assert!(crossed, "dim {dim}: never grew past a huge page");
            assert_eq!(&buf[..], &data[..], "dim {dim}");
            let copy = buf.clone();
            assert_placed(&copy);
            assert_eq!(&copy[..], &data[..]);
            drop(buf);
            assert_eq!(&copy[..], &data[..], "a clone outlives its source");
        }
    }

    #[test]
    fn le_bytes_decode_bit_for_bit() {
        let data = [0.0f32, -0.0, 1.5, f32::NAN, f32::MAX, -f32::MIN_POSITIVE];
        let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut buf = RowBuffer::from_slice(&[7.0]);
        buf.extend_from_le_bytes(&bytes);
        let got: Vec<u32> = buf.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = [7.0].iter().chain(&data).map(|v| v.to_bits()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn a_huge_buffer_is_huge_page_aligned() {
        let buf = RowBuffer::from_slice(&ramp(HUGE_PAGE / 4));
        assert_eq!(buf.as_ptr() as usize % HUGE_PAGE, 0);
        let small = RowBuffer::from_slice(&ramp(HUGE_PAGE / 4 - 1));
        assert_eq!(small.as_ptr() as usize % LINE_BYTES, 0);
    }
}
