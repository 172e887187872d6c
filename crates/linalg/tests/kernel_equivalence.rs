//! Kernel-equivalence suite: the runtime-dispatched SIMD kernels must agree
//! with the scalar reference (and an `f64` oracle) within a dimension-scaled
//! error bound, for every remainder-lane case and for special values — and
//! the batch kernels must be *bit-identical* to the row kernels.
//!
//! Run under both auto dispatch and `GQR_FORCE_SCALAR=1` (scripts/ci.sh does
//! both); the assertions themselves are dispatch-agnostic.

use gqr_linalg::kernels::{
    self, active_kernel, angular_dist_batch, angular_dist_f32, dot_batch, dot_f32,
    force_scalar_requested, prefetch_row, scalar, sq_dist_batch, sq_dist_bounded, sq_dist_f32,
    sq_dist_rows4, KernelKind,
};
use proptest::prelude::*;

/// Deterministic splitmix64-derived values in `[-2, 2)`.
fn gen_vec(len: usize, seed: u64) -> Vec<f32> {
    let mut s = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(0x1234);
    (0..len)
        .map(|_| {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            (z >> 40) as f32 / (1u64 << 22) as f32 - 2.0
        })
        .collect()
}

fn sq_dist_f64(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = x as f64 - y as f64;
            d * d
        })
        .sum()
}

fn dot_f64(a: &[f32], b: &[f32]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum()
}

fn angular_f64(a: &[f32], b: &[f32]) -> f64 {
    let na: f64 = a.iter().map(|&x| x as f64 * x as f64).sum();
    let nb: f64 = b.iter().map(|&y| y as f64 * y as f64).sum();
    let denom = (na * nb).sqrt();
    if denom <= 0.0 {
        return 1.0;
    }
    1.0 - dot_f64(a, b) / denom
}

/// `got` within a dimension-scaled multiple of f32 epsilon of `want`,
/// relative to `scale` (the sum of absolute accumulated terms — the
/// condition of the reduction).
fn close(got: f32, want: f64, len: usize, scale: f64) -> bool {
    let tol = (len as f64 + 16.0) * (f32::EPSILON as f64) * 8.0 * scale.max(1.0);
    (got as f64 - want).abs() <= tol
}

/// Every dimension 1..=1024: covers all 16-lane chunk counts, the 8-lane
/// overflow chunk, and every scalar-tail length, for all three kernels, for
/// both the dispatched and the explicit-scalar path against the f64 oracle.
#[test]
fn all_dims_agree_with_oracle() {
    for len in 1..=1024usize {
        let a = gen_vec(len, len as u64);
        let b = gen_vec(len, 7_000 + len as u64);

        let want = sq_dist_f64(&a, &b);
        assert!(
            close(sq_dist_f32(&a, &b), want, len, want),
            "sq_dist dispatched, len {len}: {} vs {want}",
            sq_dist_f32(&a, &b)
        );
        assert!(
            close(scalar::sq_dist(&a, &b), want, len, want),
            "sq_dist scalar, len {len}"
        );

        let want = dot_f64(&a, &b);
        let cond: f64 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| (x as f64 * y as f64).abs())
            .sum();
        assert!(
            close(dot_f32(&a, &b), want, len, cond),
            "dot dispatched, len {len}"
        );
        assert!(
            close(scalar::dot(&a, &b), want, len, cond),
            "dot scalar, len {len}"
        );

        let want = angular_f64(&a, &b);
        assert!(
            close(angular_dist_f32(&a, &b), want, len, 1.0),
            "angular dispatched, len {len}: {} vs {want}",
            angular_dist_f32(&a, &b)
        );
    }
}

/// Special values: signed zeros, subnormals, and large magnitudes must not
/// diverge between the scalar and dispatched kernels (beyond reassociation
/// error) or produce non-finite garbage.
#[test]
fn special_values_stay_finite_and_consistent() {
    let specials: [f32; 8] = [
        0.0,
        -0.0,
        f32::MIN_POSITIVE,        // smallest normal
        f32::MIN_POSITIVE / 8.0,  // subnormal
        -f32::MIN_POSITIVE / 4.0, // negative subnormal
        1.0e15,
        -1.0e15,
        3.25,
    ];
    for len in [1usize, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100] {
        // Cycle the special values through every lane position.
        let a: Vec<f32> = (0..len).map(|i| specials[i % specials.len()]).collect();
        let b: Vec<f32> = (0..len)
            .map(|i| specials[(i + 3) % specials.len()])
            .collect();

        let d = sq_dist_f32(&a, &b);
        let want = sq_dist_f64(&a, &b);
        assert!(d.is_finite(), "sq_dist len {len} not finite: {d}");
        assert!(
            close(d, want, len, want),
            "sq_dist specials len {len}: {d} vs {want}"
        );

        let p = dot_f32(&a, &b);
        let want = dot_f64(&a, &b);
        let cond: f64 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| (x as f64 * y as f64).abs())
            .sum();
        assert!(p.is_finite(), "dot len {len} not finite: {p}");
        assert!(
            close(p, want, len, cond),
            "dot specials len {len}: {p} vs {want}"
        );

        // Angular over special values squares magnitudes up to 1e30 — the
        // reductions must stay finite and within [0, 2] numerics.
        let ang = angular_dist_f32(&a, &b);
        assert!(ang.is_finite(), "angular len {len} not finite: {ang}");
        assert!(
            (-1e-3..=2.0 + 1e-3).contains(&ang),
            "angular len {len} out of range: {ang}"
        );
    }

    // All-zero rows: distances collapse to 0 and the angular convention is 1.
    let z = vec![0.0f32; 24];
    assert_eq!(sq_dist_f32(&z, &z), 0.0);
    assert_eq!(dot_f32(&z, &z), 0.0);
    assert_eq!(angular_dist_f32(&z, &z), 1.0);

    // Signed zero must behave exactly like zero.
    let nz = vec![-0.0f32; 24];
    assert_eq!(sq_dist_f32(&z, &nz), 0.0);
    assert_eq!(angular_dist_f32(&nz, &nz), 1.0);
}

/// Batch kernels are bit-identical to row kernels across tile shapes: row
/// counts around the 4-row register block (1..=9) and the default tile
/// height, dims around the SIMD widths.
#[test]
fn batch_bit_identical_across_tile_shapes() {
    for &len in &[1usize, 3, 8, 13, 16, 17, 960] {
        for &n_rows in &[1usize, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33] {
            let q = gen_vec(len, 11);
            let mut rows = Vec::with_capacity(n_rows * len);
            for r in 0..n_rows {
                rows.extend_from_slice(&gen_vec(len, 500 + r as u64));
            }
            let mut out = vec![0.0f32; n_rows];

            sq_dist_batch(&q, &rows, &mut out);
            for (r, row) in rows.chunks_exact(len).enumerate() {
                assert_eq!(
                    out[r].to_bits(),
                    sq_dist_f32(&q, row).to_bits(),
                    "sq_dist len {len} rows {n_rows} row {r}"
                );
            }
            dot_batch(&q, &rows, &mut out);
            for (r, row) in rows.chunks_exact(len).enumerate() {
                assert_eq!(
                    out[r].to_bits(),
                    dot_f32(&q, row).to_bits(),
                    "dot len {len} rows {n_rows} row {r}"
                );
            }
            angular_dist_batch(&q, &rows, &mut out);
            for (r, row) in rows.chunks_exact(len).enumerate() {
                assert_eq!(
                    out[r].to_bits(),
                    angular_dist_f32(&q, row).to_bits(),
                    "angular len {len} rows {n_rows} row {r}"
                );
            }
        }
    }
}

/// The four-row kernel the evaluator scores survivors with gives every row
/// exactly the row kernel's bits, on whichever body dispatch picked (this
/// suite runs under AVX2 and under `GQR_FORCE_SCALAR=1`). Dims straddle the
/// 8- and 16-lane chunks and their tails; each row starts at its own
/// offset off a cache line; rows (and, last, the query) mix in `NaN`, ±0.0
/// and ±`f32::MAX`/2, whose squares overflow to `+∞`.
#[test]
fn four_row_kernel_is_bit_identical_to_the_row_kernel() {
    let specials = [f32::NAN, 0.0, -0.0, f32::MAX / 2.0, -f32::MAX / 2.0];
    let with_specials = |mut v: Vec<f32>, salt: usize| {
        for (i, x) in v
            .iter_mut()
            .enumerate()
            .filter(|(i, _)| (i + salt).is_multiple_of(5))
        {
            *x = specials[(i / 5 + salt) % specials.len()];
        }
        v
    };
    for dim in [1usize, 7, 8, 15, 16, 17, 31, 32, 33, 96, 100, 960] {
        // 0: plain; 1: specials in row 2; 2: in every row; 3: in the query.
        for case in 0..4 {
            let mut q = gen_vec(dim, 3);
            if case == 3 {
                q = with_specials(q, 1);
            }
            let rows: Vec<Vec<f32>> = (0..4)
                .map(|r| {
                    let row = gen_vec(dim, 100 + r as u64);
                    match case {
                        1 if r == 2 => with_specials(row, r),
                        2 => with_specials(row, r),
                        _ => row,
                    }
                })
                .collect();
            // Row `r` starts 4·(1 + 3r) bytes past a cache line.
            let stride = dim + 32;
            let mut buf = vec![0.0f32; 4 * stride];
            let base = buf.as_ptr() as usize;
            let starts: [usize; 4] = std::array::from_fn(|r| {
                let region = r * stride;
                (region..region + 16)
                    .find(|&i| (base + 4 * i) % 64 == 4 * (1 + 3 * r))
                    .expect("a float-aligned offset within 16 floats")
            });
            for (&start, row) in starts.iter().zip(&rows) {
                buf[start..start + dim].copy_from_slice(row);
            }
            let placed = starts.map(|start| &buf[start..start + dim]);
            let got = sq_dist_rows4(&q, placed);
            for (r, row) in placed.iter().enumerate() {
                let at = format!("dim {dim} case {case} row {r}");
                assert_eq!(got[r].to_bits(), sq_dist_f32(&q, row).to_bits(), "{at}");
                if active_kernel() == KernelKind::Scalar {
                    assert_eq!(got[r].to_bits(), scalar::sq_dist(&q, row).to_bits(), "{at}");
                }
            }
        }
    }
}

/// `bound` one ulp up or down (toward ±∞; `±∞` and `NaN` stay put).
fn ulp(bound: f32, up: bool) -> f32 {
    if !bound.is_finite() {
        return bound;
    }
    match (bound == 0.0, up == (bound > 0.0)) {
        (true, _) if up => f32::from_bits(1),
        (true, _) => -f32::from_bits(1),
        (false, true) => f32::from_bits(bound.to_bits() + 1),
        (false, false) => f32::from_bits(bound.to_bits() - 1),
    }
}

/// The bounded kernel's contract, for the dispatched and the scalar body:
/// whenever the row kernel's distance `d` is `≤ bound` the bounded kernel
/// returns exactly its bits, and otherwise a value `> bound` — or, when `d`
/// is `NaN` and no partial sum passed the bound, `d` itself. Dims cover
/// rows too short to check (below 32), the first check (33, 48), the
/// 8-lane overflow and scalar tails; bounds sit at 0, one ulp either side
/// of `d`, `d` itself, the partial sum after 32 dimensions and `+∞`; rows
/// mix ±0, subnormals, ±∞ and `NaN` into ordinary values. `prefetch_row`
/// rides along: it must accept every row and change nothing.
#[test]
fn bounded_kernel_keeps_the_row_kernels_bits_up_to_its_bound() {
    let specials = [
        0.0,
        -0.0,
        f32::MIN_POSITIVE / 8.0,
        -f32::MIN_POSITIVE / 4.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ];
    type Kernel = fn(&[f32], &[f32]) -> f32;
    type Bounded = fn(&[f32], &[f32], f32) -> f32;
    let bodies: [(&str, Kernel, Bounded); 2] = [
        ("dispatched", sq_dist_f32, sq_dist_bounded),
        ("scalar", scalar::sq_dist, scalar::sq_dist_bounded),
    ];
    let dims = [1usize, 7, 8, 13, 16, 31, 32, 33, 48, 96, 97, 130];
    for dim in dims {
        let q = gen_vec(dim, 1_000 + dim as u64);
        let mut rows = vec![gen_vec(dim, 2_000 + dim as u64), q.clone()];
        for (s, &special) in specials.iter().enumerate() {
            // The special value early, late, and in every lane of a row.
            for at in [0, dim / 2, dim - 1] {
                let mut row = gen_vec(dim, 3_000 + (s * dim + at) as u64);
                row[at] = special;
                rows.push(row);
            }
            rows.push(vec![special; dim]);
        }
        for row in &rows {
            prefetch_row(row);
            for (body, kernel, bounded) in bodies {
                let d = kernel(&q, row);
                let head = kernel(&q[..dim.min(32)], &row[..dim.min(32)]);
                let bounds = [0.0, ulp(d, false), d, ulp(d, true), head, f32::INFINITY];
                for bound in bounds {
                    let got = bounded(&q, row, bound);
                    let at = format!("{body}, dim {dim}, d {d}, bound {bound}, got {got}");
                    let whole = got.to_bits() == d.to_bits();
                    if d <= bound || bound.is_nan() {
                        assert!(whole, "{at}");
                    } else {
                        assert!(got > bound || (d.is_nan() && whole), "{at}");
                    }
                }
            }
        }
    }
    prefetch_row(&[]);
}

/// A bound the row clears only in its last dimensions: the kernel may stop
/// at the first check it fails, and a row exactly at the bound is summed in
/// full.
#[test]
fn bounded_kernel_stops_only_past_the_bound() {
    for dim in [48usize, 96, 97, 130] {
        let q = vec![0.0f32; dim];
        // 0.25² = 0.0625 per dimension over the first 32: exactly 2.0.
        let mut row: Vec<f32> = (0..dim).map(|j| if j < 32 { 0.25 } else { 0.0 }).collect();
        for (body, bounded) in [
            (
                "dispatched",
                sq_dist_bounded as fn(&[f32], &[f32], f32) -> f32,
            ),
            ("scalar", scalar::sq_dist_bounded),
        ] {
            assert_eq!(
                bounded(&q, &row, 2.0),
                2.0,
                "{body} dim {dim}: at the bound"
            );
            row[dim - 1] = 1.0;
            assert_eq!(
                bounded(&q, &row, 3.0),
                3.0,
                "{body} dim {dim}: under the bound"
            );
            let got = bounded(&q, &row, 2.0);
            assert!(
                got > 2.0,
                "{body} dim {dim}: a partial at the bound, got {got}"
            );
            let got = bounded(&q, &row, 1.5);
            assert!(got == 2.0 || got == 3.0, "{body} dim {dim}: got {got}");
            row[dim - 1] = 0.0;
        }
    }
}

/// The `GQR_FORCE_SCALAR` override pins the scalar kernel; under it the
/// dispatched kernels must be bit-identical to the scalar reference.
#[test]
fn force_scalar_override_is_honored() {
    if force_scalar_requested() {
        assert_eq!(active_kernel(), KernelKind::Scalar);
        for len in [1usize, 9, 960] {
            let a = gen_vec(len, 2);
            let b = gen_vec(len, 3);
            assert_eq!(
                sq_dist_f32(&a, &b).to_bits(),
                scalar::sq_dist(&a, &b).to_bits()
            );
            assert_eq!(dot_f32(&a, &b).to_bits(), scalar::dot(&a, &b).to_bits());
            assert_eq!(
                angular_dist_f32(&a, &b).to_bits(),
                scalar::angular_dist(&a, &b).to_bits()
            );
        }
    } else {
        // Auto dispatch: the selected kernel is stable and well-named, and
        // on AVX2 hardware the SIMD path must actually be selected.
        let k = active_kernel();
        assert_eq!(k, active_kernel());
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            assert_eq!(
                k,
                KernelKind::Avx2Fma,
                "AVX2+FMA hardware must select the SIMD kernel"
            );
        }
    }
    assert!(matches!(kernels::kernel_name(), "avx2_fma" | "scalar"));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    /// Random vectors of random dimension: dispatched kernels track the f64
    /// oracle within the dimension-scaled bound.
    #[test]
    fn dispatched_tracks_oracle(
        len in 1usize..=256,
        seed in 0u64..1_000_000,
    ) {
        let a = gen_vec(len, seed);
        let b = gen_vec(len, seed ^ 0xdead_beef);
        let want = sq_dist_f64(&a, &b);
        prop_assert!(close(sq_dist_f32(&a, &b), want, len, want));
        let want = dot_f64(&a, &b);
        let cond: f64 = a.iter().zip(&b).map(|(&x, &y)| (x as f64 * y as f64).abs()).sum();
        prop_assert!(close(dot_f32(&a, &b), want, len, cond));
        prop_assert!(close(angular_dist_f32(&a, &b), angular_f64(&a, &b), len, 1.0));
    }

    /// Random tile shapes: batch output is bit-identical to row kernels.
    #[test]
    fn batch_matches_rows_bitwise(
        len in 1usize..=128,
        n_rows in 1usize..=12,
        seed in 0u64..1_000_000,
    ) {
        let q = gen_vec(len, seed);
        let mut rows = Vec::with_capacity(n_rows * len);
        for r in 0..n_rows {
            rows.extend_from_slice(&gen_vec(len, seed.wrapping_add(1 + r as u64)));
        }
        let mut out = vec![0.0f32; n_rows];
        sq_dist_batch(&q, &rows, &mut out);
        for (r, row) in rows.chunks_exact(len).enumerate() {
            prop_assert_eq!(out[r].to_bits(), sq_dist_f32(&q, row).to_bits());
        }
    }
}
