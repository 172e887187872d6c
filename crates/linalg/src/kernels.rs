//! Runtime-dispatched SIMD distance kernels and blocked tile evaluation.
//!
//! The exact re-rank loop is where ANN query time goes once probing has
//! ordered the buckets (the paper's §6 timings are dominated by it on
//! GIST-960). This module supplies that hot path:
//!
//! * **Row kernels** — [`sq_dist_f32`], [`dot_f32`], [`angular_dist_f32`]:
//!   one query row against one item row, dispatched at runtime to an
//!   AVX2+FMA implementation when the CPU supports it (checked once via
//!   `is_x86_feature_detected!`), falling back to the unrolled scalar code
//!   otherwise. Setting `GQR_FORCE_SCALAR=1` in the environment pins the
//!   scalar path regardless of CPU features.
//! * **The four-row kernel** — [`sq_dist_rows4`]: one query against four
//!   rows that lie anywhere, with one shared query load per chunk and
//!   independent accumulator chains per row (register blocking), which is
//!   what actually saturates the FMA ports — a single row's accumulation is
//!   latency-bound. It is the register-blocked inner loop of the engine's
//!   Evaluate phase, which scores candidates in place, where they lie in
//!   the index's row array.
//! * **The bounded row kernel** — [`sq_dist_bounded`]: [`sq_dist_f32`] that
//!   stops summing once a partial sum exceeds a bound (the running k-th
//!   distance), for the Evaluate phase's rows that do not fill a block of
//!   four, and [`prefetch_row`], which asks for a row's cache lines ahead
//!   of use.
//! * **Batch kernels** — [`sq_dist_batch`], [`dot_batch`],
//!   [`angular_dist_batch`]: one query against a *contiguous row-major tile*
//!   of items; the AVX2 squared-distance path blocks four rows the same
//!   way.
//! * **[`ScoreBlock`]** — a reusable gather-then-score scratch tile:
//!   consumers copy candidates (possibly ragged, after filtering) into the
//!   block and flush it through the batch kernels, amortizing bounds checks
//!   and per-row call overhead.
//!
//! # Determinism contract
//!
//! Within one kernel (scalar *or* AVX2), the batch kernels and
//! [`sq_dist_rows4`] are **bit identical** to the corresponding row kernel
//! applied row by row: the four-row register-blocked loop gives every row
//! the same accumulator count, chunk order, horizontal-reduction sequence,
//! and scalar tail as the single-row kernel. Equivalence between the scalar
//! and AVX2 kernels is only approximate (float addition is reassociated
//! across lanes); the kernel-equivalence test suite bounds the difference
//! by a dimension-scaled epsilon.
//!
//! [`sq_dist_bounded`]`(q, row, bound)` runs the row kernel's own
//! accumulation. Whenever [`sq_dist_f32`]`(q, row) ≤ bound` it returns
//! exactly those bits; otherwise it returns some value `> bound`. It may
//! stop early because every partial sum is a lower bound of the final one:
//! each accumulator only ever grows (`d·d ≥ 0`, and a rounded `fma` or add
//! of a non-negative term never decreases it), and rounded addition is
//! monotone, so the same reduction applied to earlier accumulator values
//! cannot exceed the final sum. A `NaN` partial never compares greater than
//! the bound, so such a row is summed in full; a row that only turns `NaN`
//! after a partial sum passed the bound returns that partial sum (a `NaN`
//! row distance is never `≤ bound`, and top-k ranking orders finite
//! distances only).

use crate::vecops::Metric;
use std::sync::OnceLock;

/// Which kernel implementation the dispatcher selected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelKind {
    /// AVX2 + FMA intrinsics (x86-64, runtime-detected).
    Avx2Fma,
    /// Portable unrolled scalar code.
    Scalar,
}

impl KernelKind {
    /// Stable label used in metrics and logs.
    pub fn name(&self) -> &'static str {
        match self {
            KernelKind::Avx2Fma => "avx2_fma",
            KernelKind::Scalar => "scalar",
        }
    }
}

/// The kernel selected for this process: AVX2+FMA when the CPU supports
/// both and `GQR_FORCE_SCALAR` is unset (or set to `0`/empty), scalar
/// otherwise. Decided once on first use and cached.
pub fn active_kernel() -> KernelKind {
    static KIND: OnceLock<KernelKind> = OnceLock::new();
    *KIND.get_or_init(|| {
        if force_scalar_requested() {
            return KernelKind::Scalar;
        }
        detect_simd()
    })
}

/// Whether the environment asks for the scalar fallback
/// (`GQR_FORCE_SCALAR` set to anything but `0` or the empty string).
pub fn force_scalar_requested() -> bool {
    match std::env::var("GQR_FORCE_SCALAR") {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    }
}

/// CPU capability check, independent of the environment override.
#[cfg(target_arch = "x86_64")]
fn detect_simd() -> KernelKind {
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        KernelKind::Avx2Fma
    } else {
        KernelKind::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_simd() -> KernelKind {
    KernelKind::Scalar
}

/// Stable label of the active kernel (`"avx2_fma"` or `"scalar"`), for the
/// `gqr_kernel_dispatch` info metric.
pub fn kernel_name() -> &'static str {
    active_kernel().name()
}

// ---------------------------------------------------------------------------
// Dispatched row kernels
// ---------------------------------------------------------------------------

/// Squared Euclidean distance between two `f32` rows (dispatched).
#[inline]
pub fn sq_dist_f32(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2Fma => unsafe { avx2::sq_dist(a, b) },
        _ => scalar::sq_dist(a, b),
    }
}

/// Dot product of two `f32` rows (dispatched).
#[inline]
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2Fma => unsafe { avx2::dot(a, b) },
        _ => scalar::dot(a, b),
    }
}

/// Squared Euclidean distance from `q` to `row` that gives up once it
/// provably exceeds `bound` (dispatched). At every 16-dimension chunk
/// boundary from 32 dimensions on, with dimensions left to sum, the partial
/// sum is reduced exactly as the final one would be and compared with
/// `bound`.
///
/// Whenever [`sq_dist_f32`]`(q, row) ≤ bound` the result is bit-for-bit
/// that value; otherwise it is some value `> bound` (see the module's
/// determinism contract). A top-k re-rank passes its current k-th distance:
/// a row abandoned that way would have been rejected anyway.
#[inline]
pub fn sq_dist_bounded(q: &[f32], row: &[f32], bound: f32) -> f32 {
    debug_assert_eq!(q.len(), row.len());
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2Fma => unsafe { avx2::sq_dist_bounded(q, row, bound) },
        _ => scalar::sq_dist_bounded(q, row, bound),
    }
}

/// Squared Euclidean distance from `q` to each of four rows (dispatched):
/// one shared query load per chunk and independent accumulator chains per
/// row (register blocking), which keeps the FMA ports busy where one row's
/// accumulation is latency-bound. The register-blocked inner loop of the
/// Evaluate phase. `out[r]` is bit-for-bit [`sq_dist_f32`]`(q, rows[r])`
/// under either dispatched body.
#[inline]
pub fn sq_dist_rows4(q: &[f32], rows: [&[f32]; 4]) -> [f32; 4] {
    for row in rows {
        assert_eq!(row.len(), q.len(), "row dimensionality mismatch");
    }
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active_kernel` reports AVX2+FMA only after runtime
        // detection found both, and every row holds `q.len()` elements.
        KernelKind::Avx2Fma => unsafe {
            avx2::sq_dist_rows4(q.as_ptr(), rows.map(<[f32]>::as_ptr), q.len())
        },
        _ => rows.map(|row| scalar::sq_dist(q, row)),
    }
}

/// Ask the CPU to bring every cache line of `row` into L1 ahead of use
/// (`prefetcht0` on x86-64, nothing elsewhere). A hint: it never faults and
/// changes no result. Scoring candidates in place reads rows scattered over
/// the whole index, so each one is a cache miss unless fetched early.
#[inline]
pub fn prefetch_row(row: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        const LINE: usize = 64;
        let start = row.as_ptr().cast::<i8>();
        let end = std::mem::size_of_val(row) as isize;
        // One prefetch per line, from the line holding the first byte.
        let mut offset = -((start as usize % LINE) as isize);
        while offset < end {
            // SAFETY: SSE is part of the x86-64 baseline, and a prefetch
            // is only a hint: it never faults.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(start.wrapping_offset(offset)) };
            offset += LINE as isize;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = row;
}

/// Angular distance `1 − cos(a, b)` in `[0, 2]` (dispatched). Zero-norm
/// inputs yield 1 (treated as orthogonal to everything).
#[inline]
pub fn angular_dist_f32(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let (dot, na, nb) = match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2Fma => unsafe { avx2::angular_parts(a, b) },
        _ => scalar::angular_parts(a, b),
    };
    angular_from_parts(dot, na, nb)
}

/// Final angular combine, shared by every path so row and batch kernels
/// agree bitwise.
#[inline]
fn angular_from_parts(dot: f32, na: f32, nb: f32) -> f32 {
    let denom = (na * nb).sqrt();
    if denom <= 0.0 {
        return 1.0;
    }
    1.0 - dot / denom
}

// ---------------------------------------------------------------------------
// Dispatched batch kernels (contiguous row-major tiles)
// ---------------------------------------------------------------------------

/// Squared Euclidean distance from `q` to every row of a contiguous
/// row-major tile. `rows.len()` must equal `q.len() * out.len()`; `out[i]`
/// receives the distance to row `i`. Bit-identical to calling
/// [`sq_dist_f32`] per row under the same dispatched kernel.
pub fn sq_dist_batch(q: &[f32], rows: &[f32], out: &mut [f32]) {
    assert_eq!(rows.len(), q.len() * out.len(), "tile must be n×dim");
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2Fma => unsafe { avx2::sq_dist_batch(q, rows, out) },
        _ => {
            for (row, d) in rows.chunks_exact(q.len()).zip(out.iter_mut()) {
                *d = scalar::sq_dist(q, row);
            }
        }
    }
}

/// Dot product of `q` with every row of a contiguous tile (see
/// [`sq_dist_batch`] for the layout contract).
pub fn dot_batch(q: &[f32], rows: &[f32], out: &mut [f32]) {
    assert_eq!(rows.len(), q.len() * out.len(), "tile must be n×dim");
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2Fma => unsafe { avx2::dot_batch(q, rows, out) },
        _ => {
            for (row, d) in rows.chunks_exact(q.len()).zip(out.iter_mut()) {
                *d = scalar::dot(q, row);
            }
        }
    }
}

/// Angular distance from `q` to every row of a contiguous tile. The query
/// norm is reduced once and reused — the reduction sequence matches the row
/// kernel's, so results stay bit-identical to per-row [`angular_dist_f32`].
pub fn angular_dist_batch(q: &[f32], rows: &[f32], out: &mut [f32]) {
    assert_eq!(rows.len(), q.len() * out.len(), "tile must be n×dim");
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2Fma => unsafe { avx2::angular_batch(q, rows, out) },
        _ => {
            let na = scalar::norm_sq(q);
            for (row, d) in rows.chunks_exact(q.len()).zip(out.iter_mut()) {
                let (dot, nb) = scalar::dot_and_norm_sq(q, row);
                *d = angular_from_parts(dot, na, nb);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatched popcount Hamming kernels (block-packed binary codes)
// ---------------------------------------------------------------------------

/// Hamming distance between two codes packed as little-endian `u64` blocks
/// (dispatched row kernel). Both slices must have the same length.
#[inline]
pub fn hamming_row(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    scalar::hamming_row(a, b)
}

/// Hamming distance from one query code to every code in a contiguous
/// block-packed tile: `codes` holds `out.len()` codes of `query.len()`
/// blocks each. `out[i]` receives `popcount(query ⊕ codes[i])`.
///
/// Dispatched like the distance kernels: an AVX2 nibble-lookup (vpshufb)
/// popcount when the CPU supports it, the scalar per-block `count_ones`
/// loop otherwise; `GQR_FORCE_SCALAR=1` pins the scalar path. Both paths
/// are **bit-identical** (integer arithmetic), unlike the float kernels.
/// This is the bucket-rank hot path of Hamming ranking: one call scores
/// every occupied bucket of a table.
pub fn hamming_batch(query: &[u64], codes: &[u64], out: &mut [u32]) {
    assert_eq!(
        codes.len(),
        query.len() * out.len(),
        "tile must be n×blocks"
    );
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2Fma => unsafe { avx2::hamming_batch(query, codes, out) },
        _ => {
            for (row, d) in codes.chunks_exact(query.len().max(1)).zip(out.iter_mut()) {
                *d = scalar::hamming_row(query, row);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// ScoreBlock: gather-then-score scratch tile
// ---------------------------------------------------------------------------

/// Default tile height (rows gathered before a flush). 32 rows of GIST-960
/// is ~120 KiB — streamed once, scored while cache-hot.
pub const TILE_ROWS: usize = 32;

/// A reusable gather-then-score tile.
///
/// Consumers (MPLSH candidate evaluation, the OPQ+IMI re-rank) copy
/// candidate rows into the block — possibly skipping filtered ids, so tiles
/// may be ragged — and [`flush`] scores the whole tile through the
/// dispatched batch kernel. The buffers are reused across buckets and (via
/// the batch path) across queries, so steady-state evaluation performs no
/// allocation.
///
/// [`flush`]: ScoreBlock::flush
#[derive(Clone, Debug)]
pub struct ScoreBlock {
    dim: usize,
    max_rows: usize,
    ids: Vec<u32>,
    rows: Vec<f32>,
    dists: Vec<f32>,
}

impl ScoreBlock {
    /// A block for `dim`-dimensional rows with the default tile height.
    pub fn new(dim: usize) -> ScoreBlock {
        ScoreBlock::with_rows(dim, TILE_ROWS)
    }

    /// A block holding up to `max_rows` rows per tile.
    pub fn with_rows(dim: usize, max_rows: usize) -> ScoreBlock {
        assert!(dim > 0, "rows must have at least one dimension");
        assert!(max_rows > 0, "tile must hold at least one row");
        ScoreBlock {
            dim,
            max_rows,
            ids: Vec::with_capacity(max_rows),
            rows: Vec::with_capacity(max_rows * dim),
            dists: vec![0.0; max_rows],
        }
    }

    /// Row dimensionality this block was built for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Rows currently gathered.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the tile is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Whether the tile is full (a push would overflow — flush first).
    pub fn is_full(&self) -> bool {
        self.ids.len() == self.max_rows
    }

    /// Maximum rows per tile.
    pub fn capacity(&self) -> usize {
        self.max_rows
    }

    /// Re-target the block to a different dimensionality, clearing any
    /// gathered rows. No-op (beyond the clear) when `dim` already matches;
    /// lets one scratch block serve engines over different datasets.
    pub fn ensure_dim(&mut self, dim: usize) {
        assert!(dim > 0, "rows must have at least one dimension");
        self.clear();
        if self.dim != dim {
            self.dim = dim;
            self.rows.clear();
            self.rows.reserve(self.max_rows * dim);
        }
    }

    /// Drop gathered rows without scoring them.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.rows.clear();
    }

    /// Gather one candidate row. Panics if the tile is full (callers flush
    /// on [`ScoreBlock::is_full`]) or the row has the wrong dimensionality.
    #[inline]
    pub fn push(&mut self, id: u32, row: &[f32]) {
        assert!(!self.is_full(), "tile full: flush before pushing");
        assert_eq!(row.len(), self.dim, "row dimensionality mismatch");
        self.ids.push(id);
        self.rows.extend_from_slice(row);
    }

    /// Score every gathered row against `query` under `metric`, invoke
    /// `sink(id, distance)` in push order, clear the tile, and return the
    /// number of rows scored.
    pub fn flush(
        &mut self,
        query: &[f32],
        metric: Metric,
        mut sink: impl FnMut(u32, f32),
    ) -> usize {
        let n = self.ids.len();
        if n == 0 {
            return 0;
        }
        assert_eq!(query.len(), self.dim, "query dimensionality mismatch");
        let out = &mut self.dists[..n];
        match metric {
            Metric::SquaredEuclidean => sq_dist_batch(query, &self.rows, out),
            Metric::Angular => angular_dist_batch(query, &self.rows, out),
        }
        for (&id, &d) in self.ids.iter().zip(out.iter()) {
            sink(id, d);
        }
        self.clear();
        n
    }
}

// ---------------------------------------------------------------------------
// Scalar kernels (the fallback, and the reference for equivalence tests)
// ---------------------------------------------------------------------------

/// Portable scalar implementations. Public so the kernel-equivalence suite
/// can compare the dispatched kernels against this reference in the same
/// process, independent of `GQR_FORCE_SCALAR`.
pub mod scalar {
    /// Hamming distance between two block-packed codes: per-block XOR +
    /// `count_ones`. The reference the AVX2 popcount kernel must match
    /// bit-for-bit.
    #[inline]
    pub fn hamming_row(a: &[u64], b: &[u64]) -> u32 {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = 0u32;
        for (&x, &y) in a.iter().zip(b) {
            acc += (x ^ y).count_ones();
        }
        acc
    }

    /// Squared Euclidean distance, unrolled over four independent
    /// accumulators (the pre-SIMD hot kernel, kept bit-for-bit).
    #[inline]
    pub fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
        sq_dist_until::<false>(a, b, f32::INFINITY)
    }

    /// [`sq_dist`] that returns early, with the partial sum, once that sum
    /// exceeds `bound` — checked after every 16 dimensions from 32 on, while
    /// dimensions are left. The contract of [`super::sq_dist_bounded`].
    #[inline]
    pub fn sq_dist_bounded(a: &[f32], b: &[f32], bound: f32) -> f32 {
        sq_dist_until::<true>(a, b, bound)
    }

    /// The one accumulation behind [`sq_dist`] and [`sq_dist_bounded`]; the
    /// partial sums only read the accumulators.
    #[inline(always)]
    fn sq_dist_until<const BOUNDED: bool>(a: &[f32], b: &[f32], bound: f32) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let mut acc0 = 0.0f32;
        let mut acc1 = 0.0f32;
        let mut acc2 = 0.0f32;
        let mut acc3 = 0.0f32;
        let mut chunks_a = a.chunks_exact(4);
        let mut chunks_b = b.chunks_exact(4);
        for (i, (ca, cb)) in (&mut chunks_a).zip(&mut chunks_b).enumerate() {
            let d0 = ca[0] - cb[0];
            let d1 = ca[1] - cb[1];
            let d2 = ca[2] - cb[2];
            let d3 = ca[3] - cb[3];
            acc0 += d0 * d0;
            acc1 += d1 * d1;
            acc2 += d2 * d2;
            acc3 += d3 * d3;
            let done = 4 * (i + 1);
            if BOUNDED && done % 16 == 0 && done >= 32 && done < a.len() {
                let partial = acc0 + acc1 + acc2 + acc3;
                if partial > bound {
                    return partial;
                }
            }
        }
        let mut tail = 0.0f32;
        for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
            let d = x - y;
            tail += d * d;
        }
        acc0 + acc1 + acc2 + acc3 + tail
    }

    /// Dot product, unrolled over four independent accumulators.
    #[inline]
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let mut acc0 = 0.0f32;
        let mut acc1 = 0.0f32;
        let mut acc2 = 0.0f32;
        let mut acc3 = 0.0f32;
        let mut chunks_a = a.chunks_exact(4);
        let mut chunks_b = b.chunks_exact(4);
        for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
            acc0 += ca[0] * cb[0];
            acc1 += ca[1] * cb[1];
            acc2 += ca[2] * cb[2];
            acc3 += ca[3] * cb[3];
        }
        let mut tail = 0.0f32;
        for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
            tail += x * y;
        }
        acc0 + acc1 + acc2 + acc3 + tail
    }

    /// The three angular reductions in one pass: `(a·b, ‖a‖², ‖b‖²)`
    /// (single accumulator each — the pre-SIMD angular kernel, kept
    /// bit-for-bit).
    #[inline]
    pub fn angular_parts(a: &[f32], b: &[f32]) -> (f32, f32, f32) {
        debug_assert_eq!(a.len(), b.len());
        let mut dot = 0.0f32;
        let mut na = 0.0f32;
        let mut nb = 0.0f32;
        for (&x, &y) in a.iter().zip(b) {
            dot += x * y;
            na += x * x;
            nb += y * y;
        }
        (dot, na, nb)
    }

    /// Angular distance from the scalar reductions.
    #[inline]
    pub fn angular_dist(a: &[f32], b: &[f32]) -> f32 {
        let (dot, na, nb) = angular_parts(a, b);
        super::angular_from_parts(dot, na, nb)
    }

    /// `‖a‖²` with the same accumulation sequence `angular_parts` uses for
    /// its `na` reduction, so batch callers can hoist the query norm
    /// without changing results.
    #[inline]
    pub(super) fn norm_sq(a: &[f32]) -> f32 {
        let mut na = 0.0f32;
        for &x in a {
            na += x * x;
        }
        na
    }

    /// `(a·b, ‖b‖²)` with the sequences `angular_parts` uses for `dot` and
    /// `nb`.
    #[inline]
    pub(super) fn dot_and_norm_sq(a: &[f32], b: &[f32]) -> (f32, f32) {
        let mut dot = 0.0f32;
        let mut nb = 0.0f32;
        for (&x, &y) in a.iter().zip(b) {
            dot += x * y;
            nb += y * y;
        }
        (dot, nb)
    }
}

// ---------------------------------------------------------------------------
// Lane-width dispatch for portable build-time loops
// ---------------------------------------------------------------------------

/// Define a function whose portable loop body is compiled twice: as
/// written, and inside an AVX2-enabled copy that runs when
/// [`active_kernel`] picked the SIMD path. The lane loops of the build-time
/// kernels (PCA scatter, ITQ's alternating minimization, bulk row encoding)
/// then vectorize four `f64` lanes wide instead of SSE2's two.
///
/// Only the width changes. FMA stays disabled and Rust never contracts a
/// multiply and an add, so every lane does the same separate multiply and
/// add in the same order on either path: results are bit-identical with and
/// without `GQR_FORCE_SCALAR=1`. The function may not be generic or take
/// `self`.
#[macro_export]
macro_rules! lane_kernel {
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? $body:block
    ) => {
        $(#[$meta])*
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            #[inline(always)]
            fn portable($($arg: $ty),*) $(-> $ret)? $body

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            unsafe fn avx2($($arg: $ty),*) $(-> $ret)? {
                portable($($arg),*)
            }

            #[cfg(target_arch = "x86_64")]
            if $crate::kernels::active_kernel() == $crate::kernels::KernelKind::Avx2Fma {
                // SAFETY: `active_kernel` reports AVX2 only after runtime
                // detection found it.
                return unsafe { avx2($($arg),*) };
            }
            portable($($arg),*)
        }
    };
}

// ---------------------------------------------------------------------------
// AVX2 + FMA kernels
// ---------------------------------------------------------------------------

/// AVX2+FMA implementations. Safety: every function is
/// `#[target_feature(enable = "avx2", enable = "fma")]` and must only be
/// called after `is_x86_feature_detected!` confirmed both features (the
/// dispatcher guarantees this).
///
/// Layout of every reduction: two 8-lane accumulators over 16-element
/// chunks, then one 8-lane chunk if ≥8 elements remain, then a scalar tail
/// — the *same* sequence in the row kernels and the four-row blocked
/// kernels, which is what makes batch results bit-identical to row-by-row
/// calls.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// Horizontal sum of one 256-bit accumulator, fixed reduction order.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn hsum(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let s = _mm_add_ps(lo, hi);
        let shuf = _mm_movehdup_ps(s);
        let sums = _mm_add_ps(s, shuf);
        let shuf = _mm_movehl_ps(shuf, sums);
        let sums = _mm_add_ss(sums, shuf);
        _mm_cvtss_f32(sums)
    }

    /// One row's squared-distance accumulation: vector part into two
    /// accumulators plus the 8-lane overflow chunk, scalar tail appended
    /// after the horizontal reduction.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn sq_dist_row(a: *const f32, b: *const f32, n: usize) -> f32 {
        sq_dist_row_until::<false>(a, b, n, f32::INFINITY)
    }

    /// The one accumulation behind [`sq_dist_row`] and
    /// [`sq_dist_bounded`]: with `BOUNDED`, after every 16-lane chunk from
    /// 32 dimensions on (while dimensions are left) the accumulators are
    /// reduced as the final sum is, and a partial sum above `bound` is
    /// returned at once. The check only reads the accumulators.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn sq_dist_row_until<const BOUNDED: bool>(
        a: *const f32,
        b: *const f32,
        n: usize,
        bound: f32,
    ) -> f32 {
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let chunks = n / 16;
        for i in 0..chunks {
            let o = i * 16;
            let d0 = _mm256_sub_ps(_mm256_loadu_ps(a.add(o)), _mm256_loadu_ps(b.add(o)));
            let d1 = _mm256_sub_ps(_mm256_loadu_ps(a.add(o + 8)), _mm256_loadu_ps(b.add(o + 8)));
            acc0 = _mm256_fmadd_ps(d0, d0, acc0);
            acc1 = _mm256_fmadd_ps(d1, d1, acc1);
            if BOUNDED && o + 16 >= 32 && o + 16 < n {
                let partial = hsum(_mm256_add_ps(acc0, acc1));
                if partial > bound {
                    return partial;
                }
            }
        }
        let mut done = chunks * 16;
        if n - done >= 8 {
            let d = _mm256_sub_ps(_mm256_loadu_ps(a.add(done)), _mm256_loadu_ps(b.add(done)));
            acc0 = _mm256_fmadd_ps(d, d, acc0);
            done += 8;
        }
        let mut sum = hsum(_mm256_add_ps(acc0, acc1));
        for i in done..n {
            let d = *a.add(i) - *b.add(i);
            sum = d.mul_add(d, sum);
        }
        sum
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
        sq_dist_row(a.as_ptr(), b.as_ptr(), a.len())
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn sq_dist_bounded(a: &[f32], b: &[f32], bound: f32) -> f32 {
        sq_dist_row_until::<true>(a.as_ptr(), b.as_ptr(), a.len(), bound)
    }

    /// Four rows against one query: one shared query load per chunk, eight
    /// independent accumulator chains (two per row), and per row exactly
    /// [`sq_dist_row`]'s chunk order, reduction and tail.
    ///
    /// # Safety
    ///
    /// AVX2 and FMA are available, and `q` and every row point to `n`
    /// readable `f32`s.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn sq_dist_rows4(q: *const f32, rows: [*const f32; 4], n: usize) -> [f32; 4] {
        let mut acc0 = [_mm256_setzero_ps(); 4];
        let mut acc1 = [_mm256_setzero_ps(); 4];
        let chunks = n / 16;
        for i in 0..chunks {
            let o = i * 16;
            let q0 = _mm256_loadu_ps(q.add(o));
            let q1 = _mm256_loadu_ps(q.add(o + 8));
            for (r, &row) in rows.iter().enumerate() {
                let d0 = _mm256_sub_ps(q0, _mm256_loadu_ps(row.add(o)));
                let d1 = _mm256_sub_ps(q1, _mm256_loadu_ps(row.add(o + 8)));
                acc0[r] = _mm256_fmadd_ps(d0, d0, acc0[r]);
                acc1[r] = _mm256_fmadd_ps(d1, d1, acc1[r]);
            }
        }
        let mut done = chunks * 16;
        if n - done >= 8 {
            let q0 = _mm256_loadu_ps(q.add(done));
            for (r, &row) in rows.iter().enumerate() {
                let d = _mm256_sub_ps(q0, _mm256_loadu_ps(row.add(done)));
                acc0[r] = _mm256_fmadd_ps(d, d, acc0[r]);
            }
            done += 8;
        }
        let mut out = [0.0f32; 4];
        for (r, &row) in rows.iter().enumerate() {
            let mut sum = hsum(_mm256_add_ps(acc0[r], acc1[r]));
            for i in done..n {
                let d = *q.add(i) - *row.add(i);
                sum = d.mul_add(d, sum);
            }
            out[r] = sum;
        }
        out
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn sq_dist_batch(q: &[f32], rows: &[f32], out: &mut [f32]) {
        let n = q.len();
        let qp = q.as_ptr();
        let rp = rows.as_ptr();
        let blocks = out.len() / 4;
        for blk in 0..blocks {
            let b = blk * 4;
            let rows = [b, b + 1, b + 2, b + 3].map(|r| rp.add(r * n));
            out[b..b + 4].copy_from_slice(&sq_dist_rows4(qp, rows, n));
        }
        for (r, o) in out.iter_mut().enumerate().skip(blocks * 4) {
            *o = sq_dist_row(qp, rp.add(r * n), n);
        }
    }

    /// One row's dot-product accumulation (same chunking as
    /// [`sq_dist_row`]).
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn dot_row(a: *const f32, b: *const f32, n: usize) -> f32 {
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let chunks = n / 16;
        for i in 0..chunks {
            let o = i * 16;
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a.add(o)), _mm256_loadu_ps(b.add(o)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(a.add(o + 8)),
                _mm256_loadu_ps(b.add(o + 8)),
                acc1,
            );
        }
        let mut done = chunks * 16;
        if n - done >= 8 {
            acc0 = _mm256_fmadd_ps(
                _mm256_loadu_ps(a.add(done)),
                _mm256_loadu_ps(b.add(done)),
                acc0,
            );
            done += 8;
        }
        let mut sum = hsum(_mm256_add_ps(acc0, acc1));
        for i in done..n {
            sum = (*a.add(i)).mul_add(*b.add(i), sum);
        }
        sum
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        dot_row(a.as_ptr(), b.as_ptr(), a.len())
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_batch(q: &[f32], rows: &[f32], out: &mut [f32]) {
        let n = q.len();
        for (r, d) in out.iter_mut().enumerate() {
            *d = dot_row(q.as_ptr(), rows.as_ptr().add(r * n), n);
        }
    }

    /// The three angular reductions `(a·b, ‖a‖², ‖b‖²)`, each with its own
    /// accumulator pair over the shared chunk order.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn angular_parts(a: &[f32], b: &[f32]) -> (f32, f32, f32) {
        let n = a.len();
        let (dot, nb) = dot_and_norm_sq_row(a.as_ptr(), b.as_ptr(), n);
        let na = norm_sq_row(a.as_ptr(), n);
        (dot, na, nb)
    }

    /// `‖a‖²` (single row; own accumulator pair, shared chunk order).
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn norm_sq_row(a: *const f32, n: usize) -> f32 {
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let chunks = n / 16;
        for i in 0..chunks {
            let o = i * 16;
            let x0 = _mm256_loadu_ps(a.add(o));
            let x1 = _mm256_loadu_ps(a.add(o + 8));
            acc0 = _mm256_fmadd_ps(x0, x0, acc0);
            acc1 = _mm256_fmadd_ps(x1, x1, acc1);
        }
        let mut done = chunks * 16;
        if n - done >= 8 {
            let x = _mm256_loadu_ps(a.add(done));
            acc0 = _mm256_fmadd_ps(x, x, acc0);
            done += 8;
        }
        let mut sum = hsum(_mm256_add_ps(acc0, acc1));
        for i in done..n {
            sum = (*a.add(i)).mul_add(*a.add(i), sum);
        }
        sum
    }

    /// `(a·b, ‖b‖²)` in one pass (shared loads of `b`).
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn dot_and_norm_sq_row(a: *const f32, b: *const f32, n: usize) -> (f32, f32) {
        let mut d0 = _mm256_setzero_ps();
        let mut d1 = _mm256_setzero_ps();
        let mut n0 = _mm256_setzero_ps();
        let mut n1 = _mm256_setzero_ps();
        let chunks = n / 16;
        for i in 0..chunks {
            let o = i * 16;
            let a0 = _mm256_loadu_ps(a.add(o));
            let a1 = _mm256_loadu_ps(a.add(o + 8));
            let b0 = _mm256_loadu_ps(b.add(o));
            let b1 = _mm256_loadu_ps(b.add(o + 8));
            d0 = _mm256_fmadd_ps(a0, b0, d0);
            d1 = _mm256_fmadd_ps(a1, b1, d1);
            n0 = _mm256_fmadd_ps(b0, b0, n0);
            n1 = _mm256_fmadd_ps(b1, b1, n1);
        }
        let mut done = chunks * 16;
        if n - done >= 8 {
            let a0 = _mm256_loadu_ps(a.add(done));
            let b0 = _mm256_loadu_ps(b.add(done));
            d0 = _mm256_fmadd_ps(a0, b0, d0);
            n0 = _mm256_fmadd_ps(b0, b0, n0);
            done += 8;
        }
        let mut dot = hsum(_mm256_add_ps(d0, d1));
        let mut nb = hsum(_mm256_add_ps(n0, n1));
        for i in done..n {
            dot = (*a.add(i)).mul_add(*b.add(i), dot);
            nb = (*b.add(i)).mul_add(*b.add(i), nb);
        }
        (dot, nb)
    }

    /// Per-64-bit-lane popcounts of one 256-bit vector via the nibble
    /// lookup (vpshufb) + byte-sum (vpsadbw) technique: each of the four
    /// `u64` lanes of the result holds the popcount of the corresponding
    /// input lane.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn popcnt_lanes(v: __m256i) -> __m256i {
        #[rustfmt::skip]
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
        let cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        _mm256_sad_epu8(cnt, _mm256_setzero_si256())
    }

    /// Batch popcount Hamming over a block-packed code tile. The 1-, 2-,
    /// and 4-block layouts (m ≤ 64, 128, 256) each map a whole 256-bit
    /// vector to 4/2/1 codes; other block counts take the scalar row loop.
    /// Integer arithmetic, so every path is bit-identical to
    /// `scalar::hamming_row`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn hamming_batch(query: &[u64], codes: &[u64], out: &mut [u32]) {
        let blocks = query.len();
        let mut lanes = [0u64; 4];
        match blocks {
            1 => {
                let q = _mm256_set1_epi64x(query[0] as i64);
                let vecs = out.len() / 4;
                for i in 0..vecs {
                    let v = _mm256_loadu_si256(codes.as_ptr().add(i * 4) as *const __m256i);
                    let p = popcnt_lanes(_mm256_xor_si256(q, v));
                    _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, p);
                    for l in 0..4 {
                        out[i * 4 + l] = lanes[l] as u32;
                    }
                }
                for r in vecs * 4..out.len() {
                    out[r] = (query[0] ^ codes[r]).count_ones();
                }
            }
            2 => {
                let q = _mm256_setr_epi64x(
                    query[0] as i64,
                    query[1] as i64,
                    query[0] as i64,
                    query[1] as i64,
                );
                let vecs = out.len() / 2;
                for i in 0..vecs {
                    let v = _mm256_loadu_si256(codes.as_ptr().add(i * 4) as *const __m256i);
                    let p = popcnt_lanes(_mm256_xor_si256(q, v));
                    _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, p);
                    out[i * 2] = (lanes[0] + lanes[1]) as u32;
                    out[i * 2 + 1] = (lanes[2] + lanes[3]) as u32;
                }
                if out.len() % 2 == 1 {
                    let r = out.len() - 1;
                    out[r] = super::scalar::hamming_row(query, &codes[r * 2..r * 2 + 2]);
                }
            }
            4 => {
                let q = _mm256_loadu_si256(query.as_ptr() as *const __m256i);
                for (i, o) in out.iter_mut().enumerate() {
                    let v = _mm256_loadu_si256(codes.as_ptr().add(i * 4) as *const __m256i);
                    let p = popcnt_lanes(_mm256_xor_si256(q, v));
                    _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, p);
                    *o = (lanes[0] + lanes[1] + lanes[2] + lanes[3]) as u32;
                }
            }
            _ => {
                for (row, d) in codes.chunks_exact(blocks.max(1)).zip(out.iter_mut()) {
                    *d = super::scalar::hamming_row(query, row);
                }
            }
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn angular_batch(q: &[f32], rows: &[f32], out: &mut [f32]) {
        let n = q.len();
        let na = norm_sq_row(q.as_ptr(), n);
        for (r, d) in out.iter_mut().enumerate() {
            let (dot, nb) = dot_and_norm_sq_row(q.as_ptr(), rows.as_ptr().add(r * n), n);
            *d = super::angular_from_parts(dot, na, nb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(len: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
        // Deterministic splitmix64-derived values in [-2, 2).
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = move || {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            (z >> 40) as f32 / (1u64 << 22) as f32 - 2.0
        };
        let a: Vec<f32> = (0..len).map(|_| next()).collect();
        let b: Vec<f32> = (0..len).map(|_| next()).collect();
        (a, b)
    }

    #[test]
    fn dispatch_is_stable_and_named() {
        let k = active_kernel();
        assert_eq!(k, active_kernel(), "dispatch must be cached");
        assert!(matches!(k.name(), "avx2_fma" | "scalar"));
        assert_eq!(kernel_name(), k.name());
        if force_scalar_requested() {
            assert_eq!(k, KernelKind::Scalar);
        }
    }

    #[test]
    fn dispatched_matches_scalar_closely() {
        for len in [1usize, 3, 7, 8, 15, 16, 17, 31, 64, 127, 960] {
            let (a, b) = vecs(len, len as u64);
            let tol = (len as f32 + 8.0) * f32::EPSILON * 64.0;
            let s = scalar::sq_dist(&a, &b);
            assert!(
                (sq_dist_f32(&a, &b) - s).abs() <= tol * s.max(1.0),
                "sq_dist len {len}"
            );
            let sd = scalar::dot(&a, &b);
            assert!(
                (dot_f32(&a, &b) - sd).abs() <= tol * sd.abs().max(1.0),
                "dot len {len}"
            );
            let sa = scalar::angular_dist(&a, &b);
            assert!(
                (angular_dist_f32(&a, &b) - sa).abs() <= 1e-4,
                "angular len {len}"
            );
        }
    }

    #[test]
    fn batch_bit_identical_to_row_kernel() {
        for len in [1usize, 5, 8, 16, 23, 128, 960] {
            let (q, _) = vecs(len, 7);
            let n_rows = 9; // exercises the 4-row blocks and the remainder
            let mut rows = Vec::with_capacity(n_rows * len);
            for r in 0..n_rows {
                rows.extend_from_slice(&vecs(len, 100 + r as u64).0);
            }
            let mut out = vec![0.0f32; n_rows];
            sq_dist_batch(&q, &rows, &mut out);
            for (r, row) in rows.chunks_exact(len).enumerate() {
                assert_eq!(
                    out[r].to_bits(),
                    sq_dist_f32(&q, row).to_bits(),
                    "sq_dist row {r} len {len}"
                );
            }
            dot_batch(&q, &rows, &mut out);
            for (r, row) in rows.chunks_exact(len).enumerate() {
                assert_eq!(
                    out[r].to_bits(),
                    dot_f32(&q, row).to_bits(),
                    "dot row {r} len {len}"
                );
            }
            angular_dist_batch(&q, &rows, &mut out);
            for (r, row) in rows.chunks_exact(len).enumerate() {
                assert_eq!(
                    out[r].to_bits(),
                    angular_dist_f32(&q, row).to_bits(),
                    "angular row {r} len {len}"
                );
            }
        }
    }

    #[test]
    fn score_block_gathers_and_scores_in_push_order() {
        let dim = 13;
        let (q, _) = vecs(dim, 1);
        let mut block = ScoreBlock::with_rows(dim, 4);
        assert!(block.is_empty());
        let rows: Vec<Vec<f32>> = (0..6).map(|r| vecs(dim, 50 + r).0).collect();
        let mut got = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            if block.is_full() {
                block.flush(&q, Metric::SquaredEuclidean, |id, d| got.push((id, d)));
            }
            block.push(10 * i as u32, row);
        }
        let flushed = block.flush(&q, Metric::SquaredEuclidean, |id, d| got.push((id, d)));
        assert_eq!(flushed, 2, "ragged final tile");
        assert!(block.is_empty());
        assert_eq!(got.len(), 6);
        for (i, (id, d)) in got.iter().enumerate() {
            assert_eq!(*id, 10 * i as u32);
            assert_eq!(d.to_bits(), sq_dist_f32(&q, &rows[i]).to_bits());
        }
    }

    #[test]
    fn score_block_ensure_dim_retargets() {
        let mut block = ScoreBlock::new(8);
        block.push(1, &[0.0; 8]);
        block.ensure_dim(3);
        assert!(block.is_empty());
        assert_eq!(block.dim(), 3);
        block.push(2, &[1.0, 2.0, 3.0]);
        let mut n = 0;
        block.flush(&[0.0, 0.0, 0.0], Metric::SquaredEuclidean, |id, d| {
            assert_eq!(id, 2);
            assert_eq!(d, 14.0);
            n += 1;
        });
        assert_eq!(n, 1);
    }

    #[test]
    fn empty_flush_is_noop() {
        let mut block = ScoreBlock::new(4);
        let n = block.flush(&[0.0; 4], Metric::SquaredEuclidean, |_, _| {
            panic!("no rows to score")
        });
        assert_eq!(n, 0);
    }

    #[test]
    fn angular_batch_zero_norm_convention() {
        let q = [0.0f32, 0.0];
        let rows = [1.0f32, 2.0, 0.0, 0.0];
        let mut out = [0.0f32; 2];
        angular_dist_batch(&q, &rows, &mut out);
        assert_eq!(out, [1.0, 1.0], "zero query is orthogonal to everything");
    }
}
