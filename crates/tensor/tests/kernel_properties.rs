//! Property-based tests of the tensor kernels: the algebraic identities
//! that make backpropagation correct must hold for arbitrary geometries,
//! not just the hand-picked unit-test shapes — every convolution entry
//! point must reproduce, bit for bit, the im2col → matrix product →
//! col2im lowering kept here as the oracle, and every elementwise sweep
//! the per-element expression kept here beside it.

use std::sync::Mutex;

use proptest::prelude::*;

use rte_tensor::conv::{
    conv2d, conv2d_backward, conv2d_backward_params_with, conv2d_backward_with, conv2d_with,
    conv_transpose2d, conv_transpose2d_backward, max_pool2d, max_pool2d_backward, Conv2dSpec,
};
use rte_tensor::linalg::matmul;
use rte_tensor::parallel::{self, Parallelism};
use rte_tensor::rng::Xoshiro256;
use rte_tensor::simd::{self, reduce8, AdamStep, SimdBackend, LANES};
use rte_tensor::{Tensor, TensorError};

fn rand_tensor(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = Xoshiro256::seed_from(seed);
    Tensor::from_fn(dims, |_| rng.normal())
}

fn inner(a: &Tensor, b: &Tensor) -> f64 {
    a.data()
        .iter()
        .zip(b.data().iter())
        .map(|(&x, &y)| x as f64 * y as f64)
        .sum()
}

/// Serializes the tests that switch the process-global SIMD arm or
/// thread budget.
static GLOBAL_ARM: Mutex<()> = Mutex::new(());

// ---------------------------------------------------------------------
// The oracle: a convolution lowered to matrix products over an explicit
// column matrix, each product in the accumulation order the implicit
// kernels' contract (rule 5) states.
// ---------------------------------------------------------------------

/// The output positions `oj ∈ [lo, hi)` whose source column
/// `jj = oj*stride + jj0` lies inside `[0, w)` — everything outside is
/// zero padding.
fn valid_col_range(jj0: isize, stride: usize, w: usize, ow: usize) -> (usize, usize) {
    let s = stride as isize;
    let lo = if jj0 >= 0 { 0 } else { (-jj0 + s - 1) / s }.clamp(0, ow as isize) as usize;
    let limit = w as isize - jj0; // jj < w  ⇔  oj < ceil(limit / s)
    let hi = if limit <= 0 {
        0
    } else {
        ((limit + s - 1) / s).clamp(lo as isize, ow as isize) as usize
    };
    (lo, hi.max(lo))
}

/// Unfolds one image (`c × h × w`) into a column matrix
/// (`c*kh*kw × oh*ow`) for the given convolution spec.
fn im2col(
    img: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: Conv2dSpec,
    col: &mut [f32],
) {
    let oh = spec.out_extent(h, kh);
    let ow = spec.out_extent(w, kw);
    assert_eq!(col.len(), c * kh * kw * oh * ow, "im2col: col buffer size");
    let mut row = 0usize;
    for ci in 0..c {
        let img_c = &img[ci * h * w..(ci + 1) * h * w];
        for ki in 0..kh {
            for kj in 0..kw {
                let base = row * oh * ow;
                row += 1;
                let jj0 = (kj * spec.dilation) as isize - spec.padding as isize;
                let (lo, hi) = valid_col_range(jj0, spec.stride, w, ow);
                for oi in 0..oh {
                    let ii =
                        (oi * spec.stride + ki * spec.dilation) as isize - spec.padding as isize;
                    let out_row = &mut col[base + oi * ow..base + (oi + 1) * ow];
                    out_row.iter_mut().for_each(|x| *x = 0.0);
                    if ii < 0 || ii >= h as isize || lo >= hi {
                        continue;
                    }
                    let src = &img_c[ii as usize * w..(ii as usize + 1) * w];
                    let mut jj = (jj0 + (lo * spec.stride) as isize) as usize;
                    for o in out_row[lo..hi].iter_mut() {
                        *o = src[jj];
                        jj += spec.stride;
                    }
                }
            }
        }
    }
}

/// Folds a column matrix back into an image, accumulating overlapping
/// contributions in ascending row order (the adjoint of [`im2col`]).
/// `img` is zeroed first.
fn col2im(
    col: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: Conv2dSpec,
    img: &mut [f32],
) {
    let oh = spec.out_extent(h, kh);
    let ow = spec.out_extent(w, kw);
    assert_eq!(col.len(), c * kh * kw * oh * ow, "col2im: col buffer size");
    assert_eq!(img.len(), c * h * w, "col2im: img buffer size");
    img.iter_mut().for_each(|x| *x = 0.0);
    let mut row = 0usize;
    for ci in 0..c {
        let img_c = &mut img[ci * h * w..(ci + 1) * h * w];
        for ki in 0..kh {
            for kj in 0..kw {
                let base = row * oh * ow;
                row += 1;
                let jj0 = (kj * spec.dilation) as isize - spec.padding as isize;
                let (lo, hi) = valid_col_range(jj0, spec.stride, w, ow);
                if lo >= hi {
                    continue;
                }
                for oi in 0..oh {
                    let ii =
                        (oi * spec.stride + ki * spec.dilation) as isize - spec.padding as isize;
                    if ii < 0 || ii >= h as isize {
                        continue;
                    }
                    let src = &col[base + oi * ow..base + (oi + 1) * ow];
                    let mut jj = ii as usize * w + (jj0 + (lo * spec.stride) as isize) as usize;
                    for &v in src[lo..hi].iter() {
                        img_c[jj] += v;
                        jj += spec.stride;
                    }
                }
            }
        }
    }
}

/// `out = Aᵀ @ B` (`A` stored `k×m`): each element adds its `k` products
/// from `0.0` in ascending order, like [`matmul`].
fn matmul_tn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    out.iter_mut().for_each(|x| *x = 0.0);
    for p in 0..k {
        for i in 0..m {
            let a_pi = a[p * m + i];
            for (o, &b_pj) in out[i * n..(i + 1) * n]
                .iter_mut()
                .zip(&b[p * n..(p + 1) * n])
            {
                *o += a_pi * b_pj;
            }
        }
    }
}

/// `out += A @ Bᵀ` (`A` is `m×k`, `B` is `n×k`): each element an 8-lane
/// dot product — element `p` into lane `p % 8` in ascending `p`, the
/// lanes combined by [`reduce8`] — added once.
fn matmul_nt_acc(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    for i in 0..m {
        for j in 0..n {
            let mut lanes = [0.0f32; LANES];
            for (p, (&x, &y)) in a[i * k..(i + 1) * k]
                .iter()
                .zip(&b[j * k..(j + 1) * k])
                .enumerate()
            {
                lanes[p % LANES] += x * y;
            }
            out[i * n + j] += reduce8(&lanes);
        }
    }
}

/// The lowered convolution: `(y, dx, dw, db)` of `x` by `w` with `bias`
/// and output gradient `dy`, in the orders the kernels must reproduce.
fn lowered_reference(
    x: &Tensor,
    w: &Tensor,
    bias: &Tensor,
    dy: &Tensor,
    spec: Conv2dSpec,
) -> (Tensor, Tensor, Tensor, Tensor) {
    let (n, c_in, h, wd) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
    let (c_out, kh, kw) = (w.dim(0), w.dim(2), w.dim(3));
    let (oh, ow) = (dy.dim(2), dy.dim(3));
    let (ckk, ohw, chw) = (c_in * kh * kw, oh * ow, c_in * h * wd);
    let mut y = Tensor::zeros(&[n, c_out, oh, ow]);
    let mut dx = Tensor::zeros(&[n, c_in, h, wd]);
    let mut dw = Tensor::zeros(&[c_out, c_in, kh, kw]);
    let mut db = Tensor::zeros(&[c_out]);
    let mut col = vec![0.0f32; ckk * ohw];
    let mut dcol = vec![0.0f32; ckk * ohw];
    for ni in 0..n {
        let x_n = &x.data()[ni * chw..(ni + 1) * chw];
        let dy_n = &dy.data()[ni * c_out * ohw..(ni + 1) * c_out * ohw];
        im2col(x_n, c_in, h, wd, kh, kw, spec, &mut col);
        let y_n = &mut y.data_mut()[ni * c_out * ohw..(ni + 1) * c_out * ohw];
        matmul(w.data(), &col, c_out, ckk, ohw, y_n);
        for (y_co, &b) in y_n.chunks_exact_mut(ohw).zip(bias.data()) {
            y_co.iter_mut().for_each(|v| *v += b);
        }
        matmul_tn(w.data(), dy_n, ckk, c_out, ohw, &mut dcol);
        let dx_n = &mut dx.data_mut()[ni * chw..(ni + 1) * chw];
        col2im(&dcol, c_in, h, wd, kh, kw, spec, dx_n);
        matmul_nt_acc(dy_n, &col, c_out, ohw, ckk, dw.data_mut());
        for (acc, dy_co) in db.data_mut().iter_mut().zip(dy_n.chunks_exact(ohw)) {
            *acc += simd::sum_with(SimdBackend::Scalar, dy_co);
        }
    }
    (y, dx, dw, db)
}

/// The lowered transposed convolution of `x` by `w` (`(C_in, C_out, KH,
/// KW)`) with `bias` and output gradient `dy`: `y` is `col2im(Wᵀ·x)`,
/// `dx` is `W·im2col(dy)`, `dw` sums `x·im2col(dy)ᵀ` over the batch.
/// Returns `(y, dx, dw, db)`.
fn lowered_transpose_reference(
    x: &Tensor,
    w: &Tensor,
    bias: &Tensor,
    dy: &Tensor,
    spec: Conv2dSpec,
) -> (Tensor, Tensor, Tensor, Tensor) {
    let (n, c_in, h, wd) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
    let (c_out, kh, kw) = (w.dim(1), w.dim(2), w.dim(3));
    let (oh, ow) = (dy.dim(2), dy.dim(3));
    let (ckk, hw, ohw) = (c_out * kh * kw, h * wd, oh * ow);
    let mut y = Tensor::zeros(&[n, c_out, oh, ow]);
    let mut dx = Tensor::zeros(&[n, c_in, h, wd]);
    let mut dw = Tensor::zeros(&[c_in, c_out, kh, kw]);
    let mut db = Tensor::zeros(&[c_out]);
    let mut col = vec![0.0f32; ckk * hw];
    for ni in 0..n {
        let x_n = &x.data()[ni * c_in * hw..(ni + 1) * c_in * hw];
        let dy_n = &dy.data()[ni * c_out * ohw..(ni + 1) * c_out * ohw];
        matmul_tn(w.data(), x_n, ckk, c_in, hw, &mut col);
        let y_n = &mut y.data_mut()[ni * c_out * ohw..(ni + 1) * c_out * ohw];
        col2im(&col, c_out, oh, ow, kh, kw, spec, y_n);
        for (y_co, &b) in y_n.chunks_exact_mut(ohw).zip(bias.data()) {
            y_co.iter_mut().for_each(|v| *v += b);
        }
        im2col(dy_n, c_out, oh, ow, kh, kw, spec, &mut col);
        let dx_n = &mut dx.data_mut()[ni * c_in * hw..(ni + 1) * c_in * hw];
        matmul(w.data(), &col, c_in, ckk, hw, dx_n);
        matmul_nt_acc(x_n, &col, c_in, hw, ckk, dw.data_mut());
        for (acc, dy_co) in db.data_mut().iter_mut().zip(dy_n.chunks_exact(ohw)) {
            *acc += simd::sum_with(SimdBackend::Scalar, dy_co);
        }
    }
    (y, dx, dw, db)
}

/// The oracle's unfold against the per-element definition of a column
/// matrix, on the geometries where a kernel column lies entirely in
/// padding (w = 1 under kw = 6 with padding 3, and the like) and a split
/// row's bounds could wrap.
#[test]
fn im2col_matches_its_per_element_definition() {
    for (h, w, kh, kw, stride, padding, dilation) in [
        (1usize, 1usize, 6usize, 6usize, 1usize, 3usize, 1usize),
        (4, 1, 3, 6, 1, 3, 1),
        (1, 2, 5, 7, 2, 4, 1),
        (3, 1, 3, 5, 1, 4, 2),
        (7, 9, 3, 4, 3, 2, 2),
    ] {
        let spec = Conv2dSpec {
            stride,
            padding,
            dilation,
        };
        let (oh, ow, c) = (spec.out_extent(h, kh), spec.out_extent(w, kw), 2);
        let x = rand_tensor(&[c, h, w], 97);
        let mut got = vec![f32::NAN; c * kh * kw * oh * ow];
        im2col(x.data(), c, h, w, kh, kw, spec, &mut got);
        let mut at = 0;
        for ci in 0..c {
            for ki in 0..kh {
                for kj in 0..kw {
                    for oi in 0..oh {
                        for oj in 0..ow {
                            let ii = (oi * stride + ki * dilation) as isize - padding as isize;
                            let jj = (oj * stride + kj * dilation) as isize - padding as isize;
                            let inside =
                                (0..h as isize).contains(&ii) && (0..w as isize).contains(&jj);
                            let want = if inside {
                                x.at(&[ci, ii as usize, jj as usize])
                            } else {
                                0.0
                            };
                            assert_eq!(got[at], want, "{spec:?} k{kh}x{kw} at {at}");
                            at += 1;
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn matmul_tn_matches_explicit_transpose() {
    // A is k×m = 3×2; compute Aᵀ@B with B k×n = 3×2.
    let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // rows: [1 2],[3 4],[5 6]
    let b = [7.0, 8.0, 9.0, 10.0, 11.0, 12.0];
    let mut got = [0.0; 4];
    matmul_tn(&a, &b, 2, 3, 2, &mut got);
    // Aᵀ = [1 3 5; 2 4 6]
    let at = [1.0, 3.0, 5.0, 2.0, 4.0, 6.0];
    let mut want = [0.0; 4];
    matmul(&at, &b, 2, 3, 2, &mut want);
    assert_eq!(got, want);
}

#[test]
fn matmul_nt_acc_matches_and_accumulates() {
    // A m×k = 2×3, B n×k = 2×3 → A@Bᵀ is 2×2.
    let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
    let b = [1.0, 1.0, 1.0, 0.0, 1.0, 0.0];
    let mut out = [10.0, 0.0, 0.0, 0.0];
    matmul_nt_acc(&a, &b, 2, 3, 2, &mut out);
    // A@Bᵀ = [[6, 2], [15, 5]]; first entry accumulates onto 10.
    assert_eq!(out, [16.0, 2.0, 15.0, 5.0]);
}

/// Bitwise equality, except that any NaN equals any NaN: the kernels
/// agree on *which* elements are NaN, but a NaN's payload follows the
/// operand order the compiler picked for a commutative `mulss`/`addss`,
/// which the contract does not (and cannot) pin.
fn assert_same_bits(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}[{i}]: {g} vs {w}"
        );
    }
}

/// Asserts that the convolution entry points, on `arm` (the
/// process-global one) and at 1, 2 and 4 threads, reproduce
/// [`lowered_reference`]: forward, the full backward, and the
/// params-only backward.
fn assert_conv_matches_lowered(
    arm: SimdBackend,
    x: &Tensor,
    w: &Tensor,
    bias: &Tensor,
    dy: &Tensor,
    spec: Conv2dSpec,
) {
    let (y, dx, dw, db) = lowered_reference(x, w, bias, dy, spec);
    for threads in [1, 2, 4] {
        let par = Parallelism::new(threads);
        let tag = format!(
            "[{arm}, {threads} threads, x {}, w {}]",
            x.shape(),
            w.shape()
        );
        let got_y = conv2d_with(x, w, Some(bias), spec, par).unwrap();
        assert_same_bits(&got_y, &y, &format!("y {tag}"));
        let full = conv2d_backward_with(x, w, dy, spec, par).unwrap();
        assert_same_bits(&full.dx, &dx, &format!("dx {tag}"));
        assert_same_bits(&full.dw, &dw, &format!("dw {tag}"));
        assert_same_bits(&full.db, &db, &format!("db {tag}"));
        let params = conv2d_backward_params_with(x, w, dy, spec, par).unwrap();
        assert_same_bits(&params.dw, &dw, &format!("params dw {tag}"));
        assert_same_bits(&params.db, &db, &format!("params db {tag}"));
    }
}

/// Overwrites a few elements of `t` with NaN, ±inf and −0.0.
fn seed_specials(t: &mut Tensor, rng: &mut Xoshiro256) {
    let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
    let len = t.numel();
    for &v in &specials {
        if rng.bernoulli(0.5) {
            t.data_mut()[(rng.next_u64() % len as u64) as usize] = v;
        }
    }
}

/// `local` cases, or as many as `PROPTEST_CASES` asks for: CI's release
/// matrix raises it so that the register tiles' overhang, stride and
/// finite-gate draws below are made in every `RTE_THREADS` × `RTE_SIMD`
/// cell.
fn cases(local: u32) -> ProptestConfig {
    let asked = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok());
    ProptestConfig::with_cases(asked.unwrap_or(local))
}

proptest! {
    #![proptest_config(cases(64))]

    /// Contract rule 5, convolutions: every spec runs the implicit
    /// kernels, and forward, `dx`, `dw` and `db` — from the full backward
    /// and from the params-only one — equal the im2col lowering bit for
    /// bit, on both arms and at every thread count. Strides are 1–3,
    /// channels include 1, extents straddle multiples of 8 and 16 and go
    /// below the kernel's reach, and the data carries NaN, ±inf and −0.0.
    #[test]
    fn implicit_conv_matches_lowered_reference_bitwise(
        seed in 0u64..1_000_000,
        n in 1usize..6,
        c_in in 1usize..10,
        c_out in 1usize..10,
        h in 1usize..21,
        wd in 1usize..21,
        half_k in 0usize..5,
        stride in 1usize..4,
        dilation in 1usize..4,
        pad_sel in 0usize..10,
        specials in 0u32..3,
    ) {
        let k = 2 * half_k + 1;
        let spec = Conv2dSpec { stride, padding: pad_sel % (k + 1), dilation };
        let eff = spec.effective_kernel(k);
        prop_assume!(h + 2 * spec.padding >= eff && wd + 2 * spec.padding >= eff);
        let mut rng = Xoshiro256::seed_from(seed);
        let mut x = Tensor::from_fn(&[n, c_in, h, wd], |_| rng.normal());
        let mut w = Tensor::from_fn(&[c_out, c_in, k, k], |_| rng.normal());
        let bias = Tensor::from_fn(&[c_out], |_| rng.normal());
        let (oh, ow) = (spec.out_extent(h, k), spec.out_extent(wd, k));
        let mut dy = Tensor::from_fn(&[n, c_out, oh, ow], |_| rng.normal());
        if specials > 0 {
            seed_specials(&mut x, &mut rng);
            seed_specials(&mut w, &mut rng);
            seed_specials(&mut dy, &mut rng);
        }
        let _guard = GLOBAL_ARM.lock().unwrap_or_else(|e| e.into_inner());
        let before = simd::global();
        for arm in [SimdBackend::Scalar, SimdBackend::detect()] {
            simd::set_global(arm);
            assert_conv_matches_lowered(arm, &x, &w, &bias, &dy, spec);
        }
        simd::set_global(before);
    }
}

/// Runs [`assert_conv_matches_lowered`] on both arms.
fn assert_both_arms_match_lowered(
    x: &Tensor,
    w: &Tensor,
    bias: &Tensor,
    dy: &Tensor,
    spec: Conv2dSpec,
) {
    let _guard = GLOBAL_ARM.lock().unwrap_or_else(|e| e.into_inner());
    let before = simd::global();
    for arm in [SimdBackend::Scalar, SimdBackend::detect()] {
        simd::set_global(arm);
        assert_conv_matches_lowered(arm, x, w, bias, dy, spec);
    }
    simd::set_global(before);
}

proptest! {
    #![proptest_config(cases(40))]

    /// Contract rule 5 on the shapes the register tiles special-case and
    /// at the edge of the "skip only a product known to be ±0.0" rule.
    /// Shapes: a single output channel under up to 64 input channels
    /// (the gather `dx` with no chain to carry, the 1 × 8 tiles), 8×8
    /// maps under 7×7 and 9×9 kernels (most kernel rows meet padding),
    /// channel and tap counts that are not multiples of a tile, batch 1.
    /// Then exactly one NaN, +inf, −inf or −0.0 goes where leaving a
    /// padding row out would hide it: a first- or last-row weight (which
    /// the top or bottom output rows multiply only by padding — and which
    /// `dx` must keep away from the pixels whose tap falls outside
    /// `dy`), a first- or last-row `dy` element, or a corner pixel. Each
    /// family is drawn at stride 1, 2 and 3.
    #[test]
    fn tiled_and_gated_conv_matches_lowered_reference_bitwise(
        seed in 0u64..1_000_000,
        family in 0usize..3,
        n in 1usize..3,
        channels in 0usize..64,
        small in 1usize..8,
        wide in 0usize..2,
        stride in 1usize..4,
        dilation in 1usize..3,
        special in 0usize..5,
        operand in 0usize..3,
        far in 0usize..2,
    ) {
        let (c_in, c_out, h, wd, k) = match family {
            0 => (channels + 1, 1, 8 + 8 * wide, 8 + 8 * (seed as usize % 2), [5, 9][seed as usize % 2]),
            1 => (small + 2, channels % 9 + 1, 8, 8, [7, 9][wide]),
            _ => ([1, 3, 5][channels % 3], small, 8 * (1 + wide), 16, [1, 3, 5][seed as usize % 3]),
        };
        let dilation = if family == 1 { 1 } else { dilation };
        let spec = Conv2dSpec { stride, ..Conv2dSpec::same_dilated(k, dilation) };
        let (oh, ow) = (spec.out_extent(h, k), spec.out_extent(wd, k));
        let mut rng = Xoshiro256::seed_from(seed);
        let mut x = Tensor::from_fn(&[n, c_in, h, wd], |_| rng.normal());
        let mut w = Tensor::from_fn(&[c_out, c_in, k, k], |_| rng.normal());
        let bias = Tensor::from_fn(&[c_out], |_| rng.normal());
        let mut dy = Tensor::from_fn(&[n, c_out, oh, ow], |_| rng.normal());
        if special > 0 {
            let value = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0][special - 1];
            let mut pick = |extent: usize| (rng.next_u64() % extent as u64) as usize;
            match operand {
                0 => w.set(&[pick(c_out), pick(c_in), far * (k - 1), pick(k)], value),
                1 => dy.set(&[pick(n), pick(c_out), far * (oh - 1), pick(ow)], value),
                _ => x.set(&[pick(n), pick(c_in), far * (h - 1), far * (wd - 1)], value),
            }
        }
        assert_both_arms_match_lowered(&x, &w, &bias, &dy, spec);
    }
}

proptest! {
    #![proptest_config(cases(40))]

    /// Contract rule 5 where the weight gradient changes form and where
    /// it leaves padding *columns* out: maps one, two and three vectors
    /// wide and of any height (one vector wide, with eight output channels
    /// or more and whole tiles of eight input channels, is the
    /// channels-in-the-lanes form; the rest are the tile), up to 40 output
    /// channels (whole groups of 8 and 16 beside a remainder, and runs of
    /// them split over threads), 1–20 input channels or — every other
    /// case — 8, 16 or 24, dilation 1–2, and padding from none to more
    /// than half the kernel. Then exactly one
    /// NaN, +inf, −inf or −0.0 goes where leaving a padding row or column
    /// out would hide it: a `dy` element or a weight on the first or last
    /// row or column, which the taps (or outputs) on that side multiply
    /// by padding only. Strides are 1–3, the image as small as gives
    /// those outputs.
    #[test]
    fn lane_form_and_column_gate_match_lowered_reference_bitwise(
        seed in 0u64..1_000_000,
        n in 1usize..3,
        c_in in 1usize..21,
        whole_tiles in 0usize..2,
        c_out in 1usize..41,
        oh in 1usize..13,
        ow_blocks in 1usize..4,
        half_k in 0usize..5,
        stride in 1usize..4,
        dilation in 1usize..3,
        padding in 0usize..5,
        special in 0usize..5,
        in_w in 0usize..2,
        edge in 0usize..4,
    ) {
        let (k, ow) = (2 * half_k + 1, 8 * ow_blocks);
        let c_in = if whole_tiles == 1 { 8 * (1 + c_in % 3) } else { c_in };
        let spec = Conv2dSpec { stride, padding, dilation };
        // The padded extent whose last window starts at `(o − 1)·stride`.
        let span = |o: usize| (o - 1) * stride + dilation * (k - 1) + 1;
        prop_assume!(span(oh) > 2 * padding && span(ow) > 2 * padding);
        let (h, wd) = (span(oh) - 2 * padding, span(ow) - 2 * padding);
        let mut rng = Xoshiro256::seed_from(seed);
        let x = Tensor::from_fn(&[n, c_in, h, wd], |_| rng.normal());
        let mut w = Tensor::from_fn(&[c_out, c_in, k, k], |_| rng.normal());
        let bias = Tensor::from_fn(&[c_out], |_| rng.normal());
        let mut dy = Tensor::from_fn(&[n, c_out, oh, ow], |_| rng.normal());
        if special > 0 {
            let value = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0][special - 1];
            let mut pick = |extent: usize| (rng.next_u64() % extent as u64) as usize;
            // Along the first or last row (edges 0, 1) or column (2, 3).
            let mut on_edge = |rows: usize, cols: usize| match edge {
                0 | 1 => (edge * (rows - 1), pick(cols)),
                _ => (pick(rows), (edge - 2) * (cols - 1)),
            };
            if in_w == 1 {
                let (ki, kj) = on_edge(k, k);
                w.set(&[pick(c_out), pick(c_in), ki, kj], value);
            } else {
                let (oi, oj) = on_edge(oh, ow);
                dy.set(&[pick(n), pick(c_out), oi, oj], value);
            }
        }
        assert_both_arms_match_lowered(&x, &w, &bias, &dy, spec);
    }
}

/// A convolution above `rte_tensor::conv`'s fan-out threshold (2²²
/// multiply-adds a call), so that the thread counts of
/// [`assert_conv_matches_lowered`] really run on worker threads: eight
/// channels either side, so every tile of every kernel is a full one.
#[test]
fn implicit_conv_matches_lowered_reference_above_the_fan_out_gate() {
    let (x, w) = (
        rand_tensor(&[4, 8, 16, 16], 17),
        rand_tensor(&[8, 8, 9, 9], 18),
    );
    let (bias, dy) = (rand_tensor(&[8], 19), rand_tensor(&[4, 8, 16, 16], 20));
    assert_both_arms_match_lowered(&x, &w, &bias, &dy, Conv2dSpec::same(9));
}

/// The same comparison on shapes big enough that `conv2d_with` really
/// fans out (the proptest's small items mostly run inline): FLNet's two
/// layers, RouteNet's two 8×8 layers at the paper's widths (whole tiles
/// of eight input channels, four and eight groups of output channels), a
/// dilated PROS-style block, PROS's stride-2 `down_conv`, and an
/// odd-width map whose output rows rotate through the 8 lanes.
#[test]
fn implicit_conv_matches_lowered_reference_on_parallel_shapes() {
    let _guard = GLOBAL_ARM.lock().unwrap_or_else(|e| e.into_inner());
    for (n, c_in, c_out, h, wd, k, spec) in [
        (4, 6, 16, 16, 16, 9, Conv2dSpec::same(9)),
        (5, 16, 1, 16, 16, 9, Conv2dSpec::same(9)),
        (2, 32, 64, 8, 8, 7, Conv2dSpec::same(7)),
        (2, 64, 32, 8, 8, 9, Conv2dSpec::same(9)),
        (3, 16, 16, 8, 8, 3, Conv2dSpec::same_dilated(3, 2)),
        (
            4,
            32,
            64,
            16,
            16,
            3,
            Conv2dSpec {
                stride: 2,
                padding: 1,
                dilation: 1,
            },
        ),
        (
            3,
            5,
            7,
            13,
            11,
            5,
            Conv2dSpec {
                stride: 1,
                padding: 3,
                dilation: 2,
            },
        ),
    ] {
        let x = rand_tensor(&[n, c_in, h, wd], 7);
        let w = rand_tensor(&[c_out, c_in, k, k], 8);
        let bias = rand_tensor(&[c_out], 9);
        let (oh, ow) = (spec.out_extent(h, k), spec.out_extent(wd, k));
        let dy = rand_tensor(&[n, c_out, oh, ow], 10);
        assert_conv_matches_lowered(simd::global(), &x, &w, &bias, &dy, spec);
    }
}

/// Asserts that `conv_transpose2d` and its backward pass, on `arm` (the
/// process-global one) and at 1, 2 and 4 threads (the process-global
/// budget), reproduce [`lowered_transpose_reference`]. The caller holds
/// [`GLOBAL_ARM`].
fn assert_transpose_matches_lowered(
    arm: SimdBackend,
    x: &Tensor,
    w: &Tensor,
    bias: &Tensor,
    dy: &Tensor,
    spec: Conv2dSpec,
) {
    let (y, dx, dw, db) = lowered_transpose_reference(x, w, bias, dy, spec);
    let before = parallel::global();
    for threads in [1, 2, 4] {
        parallel::set_global(Parallelism::new(threads));
        let tag = format!(
            "[transposed, {arm}, {threads} threads, x {}, w {}, {spec:?}]",
            x.shape(),
            w.shape()
        );
        let got_y = conv_transpose2d(x, w, Some(bias), spec).unwrap();
        assert_same_bits(&got_y, &y, &format!("y {tag}"));
        let grads = conv_transpose2d_backward(x, w, dy, spec).unwrap();
        assert_same_bits(&grads.dx, &dx, &format!("dx {tag}"));
        assert_same_bits(&grads.dw, &dw, &format!("dw {tag}"));
        assert_same_bits(&grads.db, &db, &format!("db {tag}"));
    }
    parallel::set_global(before);
}

/// Runs [`assert_transpose_matches_lowered`] on both arms.
fn assert_both_arms_match_lowered_transpose(
    x: &Tensor,
    w: &Tensor,
    bias: &Tensor,
    dy: &Tensor,
    spec: Conv2dSpec,
) {
    let _guard = GLOBAL_ARM.lock().unwrap_or_else(|e| e.into_inner());
    let before = simd::global();
    for arm in [SimdBackend::Scalar, SimdBackend::detect()] {
        simd::set_global(arm);
        assert_transpose_matches_lowered(arm, x, w, bias, dy, spec);
    }
    simd::set_global(before);
}

proptest! {
    #![proptest_config(cases(48))]

    /// Contract rule 5, transposed convolutions: they run on the
    /// convolution's own kernels with the operands swapped, and forward,
    /// `dx`, `dw` and `db` equal the lowering — `col2im(Wᵀ·x)` forward,
    /// `W·im2col(dy)` and `x·im2col(dy)ᵀ` backward — bit for bit, on both
    /// arms and at every thread count. Strides are 1–3, kernels 1–5 wide
    /// (even ones too), dilation 1–2, padding up to what leaves an output;
    /// every other case has eight-wide inputs and whole tiles of eight
    /// channels (the weight gradient's channels-in-the-lanes form), and
    /// the data carries NaN, ±inf and −0.0.
    #[test]
    fn conv_transpose2d_matches_lowered_reference_bitwise(
        seed in 0u64..1_000_000,
        n in 1usize..4,
        c_in in 1usize..10,
        c_out in 1usize..10,
        h in 1usize..10,
        wd in 1usize..10,
        k in 1usize..6,
        stride in 1usize..4,
        dilation in 1usize..3,
        pad_sel in 0usize..10,
        lanes in 0usize..2,
        specials in 0u32..3,
    ) {
        let reach = dilation * (k - 1);
        let spec = Conv2dSpec { stride, padding: pad_sel % (reach / 2 + 1), dilation };
        let (c_in, c_out, wd) = if lanes == 1 {
            (8 * (1 + c_in % 2), 8 * (1 + c_out % 2), 8)
        } else {
            (c_in, c_out, wd)
        };
        let (oh, ow) = (spec.transpose_out_extent(h, k), spec.transpose_out_extent(wd, k));
        let mut rng = Xoshiro256::seed_from(seed);
        let mut x = Tensor::from_fn(&[n, c_in, h, wd], |_| rng.normal());
        let mut w = Tensor::from_fn(&[c_in, c_out, k, k], |_| rng.normal());
        let bias = Tensor::from_fn(&[c_out], |_| rng.normal());
        let mut dy = Tensor::from_fn(&[n, c_out, oh, ow], |_| rng.normal());
        if specials > 0 {
            seed_specials(&mut x, &mut rng);
            seed_specials(&mut w, &mut rng);
            seed_specials(&mut dy, &mut rng);
        }
        assert_both_arms_match_lowered_transpose(&x, &w, &bias, &dy, spec);
    }
}

/// RouteNet's `upconv` at the paper's widths and batch 4 — k4 s2 p1,
/// 32 → 32 channels, 8×8 → 16×16 — above the fan-out gate.
#[test]
fn conv_transpose2d_matches_lowered_reference_at_routenet_upconv() {
    let spec = Conv2dSpec {
        stride: 2,
        padding: 1,
        dilation: 1,
    };
    let (x, w) = (
        rand_tensor(&[4, 32, 8, 8], 31),
        rand_tensor(&[32, 32, 4, 4], 32),
    );
    let (bias, dy) = (rand_tensor(&[32], 33), rand_tensor(&[4, 32, 16, 16], 34));
    assert_both_arms_match_lowered_transpose(&x, &w, &bias, &dy, spec);
}

/// Regression: `conv2d_backward` used to ignore the weight's
/// input-channel extent, so a mismatched weight indexed out of bounds
/// (or silently read the wrong rows) instead of failing like the
/// forward pass does — on the implicit and on the lowered path.
#[test]
fn conv2d_backward_rejects_channel_mismatch() {
    let x = Tensor::zeros(&[1, 2, 6, 6]);
    for (w_channels, stride) in [(3, 1), (1, 1), (3, 2), (1, 2)] {
        let spec = Conv2dSpec {
            stride,
            padding: 1,
            dilation: 1,
        };
        let w = Tensor::zeros(&[4, w_channels, 3, 3]);
        let o = spec.out_extent(6, 3);
        let dy = Tensor::zeros(&[1, 4, o, o]);
        assert!(matches!(
            conv2d_backward(&x, &w, &dy, spec),
            Err(TensorError::InvalidShape { .. })
        ));
    }
}

/// Regression: the same hole in `conv_transpose2d_backward`, whose
/// weight is `(C_in, C_out, KH, KW)`.
#[test]
fn conv_transpose2d_backward_rejects_channel_mismatch() {
    let x = Tensor::zeros(&[1, 2, 6, 6]);
    let spec = Conv2dSpec {
        stride: 2,
        padding: 1,
        dilation: 1,
    };
    let o = spec.transpose_out_extent(6, 4);
    let dy = Tensor::zeros(&[1, 4, o, o]);
    for w_channels in [1, 3] {
        let w = Tensor::zeros(&[w_channels, 4, 4, 4]);
        assert!(matches!(
            conv_transpose2d_backward(&x, &w, &dy, spec),
            Err(TensorError::InvalidShape { .. })
        ));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The backward input gradient is the adjoint of the forward map:
    /// <conv(x), g> == <x, dx(g)> for any spec and geometry.
    #[test]
    fn conv_backward_is_adjoint(
        seed in 0u64..10_000,
        c_in in 1usize..4,
        c_out in 1usize..4,
        h in 5usize..12,
        k in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..2,
        dilation in 1usize..3,
    ) {
        let spec = Conv2dSpec { stride, padding, dilation };
        let eff = spec.effective_kernel(k);
        prop_assume!(h + 2 * padding >= eff);
        let x = rand_tensor(&[1, c_in, h, h], seed);
        let w = rand_tensor(&[c_out, c_in, k, k], seed ^ 1);
        let y = conv2d(&x, &w, None, spec).unwrap();
        let g = rand_tensor(y.shape().dims(), seed ^ 2);
        let grads = conv2d_backward(&x, &w, &g, spec).unwrap();
        let lhs = inner(&y, &g);
        let rhs = inner(&x, &grads.dx);
        prop_assert!(
            (lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()),
            "adjoint mismatch: {lhs} vs {rhs}"
        );
    }

    /// Weight gradient adjointness: <conv_w(x), g> is linear in w, so
    /// <y, g> == <w, dw> for bias-free convolution.
    #[test]
    fn conv_weight_gradient_is_adjoint(
        seed in 0u64..10_000,
        c_in in 1usize..3,
        c_out in 1usize..3,
        h in 5usize..10,
        k in 1usize..4,
    ) {
        // `same` padding only exists for odd kernels (even k now panics).
        prop_assume!(k % 2 == 1);
        let spec = Conv2dSpec::same(k);
        let x = rand_tensor(&[2, c_in, h, h], seed);
        let w = rand_tensor(&[c_out, c_in, k, k], seed ^ 3);
        let y = conv2d(&x, &w, None, spec).unwrap();
        let g = rand_tensor(y.shape().dims(), seed ^ 4);
        let grads = conv2d_backward(&x, &w, &g, spec).unwrap();
        let lhs = inner(&y, &g);
        let rhs = inner(&w, &grads.dw);
        prop_assert!(
            (lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()),
            "weight adjoint mismatch: {lhs} vs {rhs}"
        );
    }

    /// im2col and col2im are adjoint for arbitrary geometry.
    #[test]
    fn unfold_fold_adjoint(
        seed in 0u64..10_000,
        c in 1usize..4,
        h in 4usize..10,
        w in 4usize..10,
        k in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..2,
    ) {
        let spec = Conv2dSpec { stride, padding, dilation: 1 };
        prop_assume!(h + 2 * padding >= k && w + 2 * padding >= k);
        let oh = spec.out_extent(h, k);
        let ow = spec.out_extent(w, k);
        let x = rand_tensor(&[c, h, w], seed);
        let cvec = rand_tensor(&[c * k * k * oh * ow], seed ^ 5);
        let mut col = vec![0.0f32; c * k * k * oh * ow];
        im2col(x.data(), c, h, w, k, k, spec, &mut col);
        let mut img = vec![0.0f32; c * h * w];
        col2im(cvec.data(), c, h, w, k, k, spec, &mut img);
        let lhs: f64 = col.iter().zip(cvec.data()).map(|(&a, &b)| a as f64 * b as f64).sum();
        let rhs: f64 = x.data().iter().zip(img.iter()).map(|(&a, &b)| a as f64 * b as f64).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()));
    }

    /// Max pooling: every output is an element of its window, is >= all
    /// elements of the window, and the backward pass conserves gradient
    /// mass for non-overlapping windows.
    #[test]
    fn max_pool_properties(
        seed in 0u64..10_000,
        c in 1usize..4,
        h in 4usize..12,
    ) {
        let x = rand_tensor(&[1, c, h, h], seed);
        let out = max_pool2d(&x, 2, 2).unwrap();
        let oh = (h - 2) / 2 + 1;
        for ci in 0..c {
            for oi in 0..oh {
                for oj in 0..oh {
                    let m = out.y.at(&[0, ci, oi, oj]);
                    let mut found = false;
                    for di in 0..2 {
                        for dj in 0..2 {
                            let v = x.at(&[0, ci, oi * 2 + di, oj * 2 + dj]);
                            prop_assert!(m >= v);
                            if m == v {
                                found = true;
                            }
                        }
                    }
                    prop_assert!(found, "max must come from the window");
                }
            }
        }
        let dy = rand_tensor(out.y.shape().dims(), seed ^ 6);
        let dx = max_pool2d_backward(&[1, c, h, h], &out, &dy).unwrap();
        prop_assert!((dx.sum() - dy.sum()).abs() < 1e-3 * (1.0 + dy.sum().abs()));
    }

    /// Derived RNG streams do not collide for distinct labels.
    #[test]
    fn rng_streams_are_distinct(seed in 0u64..10_000, l1 in 0u64..1000, l2 in 0u64..1000) {
        prop_assume!(l1 != l2);
        let parent = Xoshiro256::seed_from(seed);
        let mut a = parent.derive(l1);
        let mut b = parent.derive(l2);
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        prop_assert_ne!(xs, ys);
    }

    /// Tensor reshape round-trips preserve data for any compatible split.
    #[test]
    fn reshape_round_trip(len in 1usize..64, seed in 0u64..10_000) {
        let t = rand_tensor(&[len], seed);
        let reshaped = t.clone().reshape(&[1, len]).unwrap().reshape(&[len]).unwrap();
        prop_assert_eq!(t, reshaped);
    }
}

// ---------------------------------------------------------------------
// The oracle of the elementwise sweeps: each one's expression for one
// element, in scalar code. Contract rules 1, 3 and 4 make every arm
// reproduce it bit for bit, wherever the element falls in the slice.
// ---------------------------------------------------------------------

/// `min` with x86 `vminps` semantics: `if a < b { a } else { b }`
/// (`b` when either is NaN or both compare equal).
fn min_ps(a: f32, b: f32) -> f32 {
    if a < b {
        a
    } else {
        b
    }
}

/// `max` with x86 `vmaxps` semantics: `if a > b { a } else { b }`.
fn max_ps(a: f32, b: f32) -> f32 {
    if a > b {
        a
    } else {
        b
    }
}

/// Exponent clamp bounds of the kernels' `exp`.
const EXP_HI: f32 = 88.722_84;
const EXP_LO: f32 = -87.336_55;

/// The kernels' polynomial `expf`: Cephes-style range reduction
/// (`x = n·ln2 + r`), a degree-5 minimax polynomial and an exponent-bit
/// `2ⁿ` scale. `x` is the second operand of the clamp, so a NaN passes
/// through it, and through everything after, unchanged but for being
/// quieted.
fn exp_lane(x: f32) -> f32 {
    const MAGIC: f32 = 12_582_912.0;
    let xc = max_ps(EXP_LO, min_ps(EXP_HI, x));
    let n = (xc * std::f32::consts::LOG2_E + MAGIC) - MAGIC;
    let r = xc - n * 0.693_359_4;
    let r = r - n * -2.121_944_4e-4;
    let mut y = 1.987_569_1e-4;
    y = y * r + 1.398_2e-3;
    y = y * r + 8.333_452e-3;
    y = y * r + 4.166_579_6e-2;
    y = y * r + 1.666_666_5e-1;
    y = y * r + 5.000_000_3e-1;
    let y = ((y * r) * r + r) + 1.0;
    // `as` takes a NaN to 0: its scale is 1.
    let scale = f32::from_bits((((n as i32) + 127) << 23) as u32);
    y * scale
}

fn axpy_lane(alpha: f32, x: f32, y: f32) -> f32 {
    y + alpha * x
}

fn scale_lane(alpha: f32, x: f32) -> f32 {
    x * alpha
}

fn relu_lane(x: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        0.0
    }
}

fn relu_backward_lane(dy: f32, x: f32) -> f32 {
    if x > 0.0 {
        dy
    } else {
        0.0
    }
}

fn sigmoid_lane(x: f32) -> f32 {
    1.0 / (1.0 + exp_lane(-x))
}

fn sigmoid_backward_lane(dy: f32, y: f32) -> f32 {
    (dy * y) * (1.0 - y)
}

/// One Adam element: updates `(m, v)` and returns the new value.
fn adam_lane(value: f32, m: &mut f32, v: &mut f32, grad: f32, s: &AdamStep) -> f32 {
    let g = if s.weight_decay != 0.0 {
        grad + s.weight_decay * value
    } else {
        grad
    };
    *m = s.beta1 * *m + (1.0 - s.beta1) * g;
    *v = s.beta2 * *v + ((1.0 - s.beta2) * g) * g;
    let m_hat = *m / s.bias1;
    let v_hat = *v / s.bias2;
    value - (s.lr * m_hat) / (v_hat.sqrt() + s.eps)
}

/// Rule 3's sum: element `i` into lane `i % 8` in ascending `i`, only
/// the elements there are, the lanes combined by [`reduce8`].
fn sum_lanes(x: &[f32]) -> f32 {
    let mut lanes = [0.0f32; LANES];
    for (i, &v) in x.iter().enumerate() {
        lanes[i % LANES] += v;
    }
    reduce8(&lanes)
}

/// Values a sweep must carry through bit for bit: NaN, ±inf, both
/// zeros, subnormals, the edges of the `exp` clamp, and values past it.
const SWEEP_SPECIALS: [f32; 12] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    -0.0,
    0.0,
    1e-40,
    -1e-40,
    f32::MIN_POSITIVE,
    88.7,
    -88.7,
    100.0,
    -100.0,
];

/// `len` normal values scaled by `scale`, about one in five replaced by
/// a [`SWEEP_SPECIALS`] value when `specials` is set.
fn sweep_operand(rng: &mut Xoshiro256, len: usize, scale: f32, specials: bool) -> Vec<f32> {
    (0..len)
        .map(|_| {
            if specials && rng.bernoulli(0.2) {
                SWEEP_SPECIALS[(rng.next_u64() % SWEEP_SPECIALS.len() as u64) as usize]
            } else {
                scale * rng.normal()
            }
        })
        .collect()
}

/// What every sweep leaves, by name: `scale`, ReLU and the sigmoid on
/// `x`, `axpy` into `g`, the backward passes on `g` behind `x` (as the
/// sigmoid's output), the Adam step of `x` by `g` with moments `m` and
/// `v`, and the sum of `x`.
type SweepOutputs = Vec<(&'static str, Vec<f32>)>;

/// [`SweepOutputs`] of the kernels on `arm`.
fn sweep_outputs(
    arm: SimdBackend,
    [x, g, m, v]: [&[f32]; 4],
    alpha: f32,
    step: &AdamStep,
) -> SweepOutputs {
    let run = |from: &[f32], f: &dyn Fn(&mut [f32])| {
        let mut out = from.to_vec();
        f(&mut out);
        out
    };
    let (mut value, mut m, mut v) = (x.to_vec(), m.to_vec(), v.to_vec());
    simd::adam_step_with(arm, &mut value, &mut m, &mut v, g, step);
    vec![
        ("axpy", run(g, &|y| simd::axpy_with(arm, alpha, x, y))),
        ("scale", run(x, &|x| simd::scale_with(arm, alpha, x))),
        ("sum", vec![simd::sum_with(arm, x)]),
        ("relu", run(x, &|x| simd::relu_with(arm, x))),
        (
            "relu_backward",
            run(g, &|dy| simd::relu_backward_with(arm, dy, x)),
        ),
        ("sigmoid", run(x, &|x| simd::sigmoid_with(arm, x))),
        (
            "sigmoid_backward",
            run(g, &|dy| simd::sigmoid_backward_with(arm, dy, x)),
        ),
        ("adam value", value),
        ("adam m", m),
        ("adam v", v),
    ]
}

/// [`SweepOutputs`] of the oracle.
fn sweep_oracle([x, g, m, v]: [&[f32]; 4], alpha: f32, step: &AdamStep) -> SweepOutputs {
    let map = |f: &dyn Fn(f32) -> f32| x.iter().map(|&v| f(v)).collect();
    let zip = |f: &dyn Fn(f32, f32) -> f32| g.iter().zip(x).map(|(&g, &x)| f(g, x)).collect();
    let (mut m, mut v) = (m.to_vec(), v.to_vec());
    let value = (0..x.len())
        .map(|i| adam_lane(x[i], &mut m[i], &mut v[i], g[i], step))
        .collect();
    vec![
        ("axpy", zip(&|y, x| axpy_lane(alpha, x, y))),
        ("scale", map(&|x| scale_lane(alpha, x))),
        ("sum", vec![sum_lanes(x)]),
        ("relu", map(&relu_lane)),
        ("relu_backward", zip(&relu_backward_lane)),
        ("sigmoid", map(&sigmoid_lane)),
        ("sigmoid_backward", zip(&sigmoid_backward_lane)),
        ("adam value", value),
        ("adam m", m),
        ("adam v", v),
    ]
}

/// Asserts `got` and `want` equal sweep by sweep, element by element,
/// in [`nan_blind_bits`].
fn assert_outputs_eq(got: &SweepOutputs, want: &SweepOutputs, what: &str) {
    for ((name, got), (_, want)) in got.iter().zip(want) {
        assert_eq!(got.len(), want.len(), "{name} {what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let (g_bits, w_bits) = (nan_blind_bits(*g), nan_blind_bits(*w));
            assert_eq!(g_bits, w_bits, "{name}[{i}] {what}: {g} vs {w}");
        }
    }
}

/// The bits of `v`, with every NaN the same NaN. Where two NaNs meet in
/// one `+` or `·`, x86 returns the first operand's sign and payload, and
/// the compiler may swap the operands of either (on either arm), so only
/// that a NaN comes out is fixed.
fn nan_blind_bits(v: f32) -> u32 {
    if v.is_nan() {
        f32::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

proptest! {
    #![proptest_config(cases(64))]

    /// Contract rules 1, 3 and 4, sweeps: `axpy`, `scale`, `sum`, ReLU
    /// and sigmoid forward and backward, and the Adam step (value and
    /// both moments) equal their per-element oracle bit for bit on both
    /// arms (a NaN's sign and payload aside, see [`nan_blind_bits`]), at
    /// every length from empty to past eight full chunks, so every tail
    /// length is drawn. The data is normal at scales that
    /// reach the `exp` clamp, with NaN, ±inf, −0.0, subnormals and ±88.7
    /// drawn in; Adam runs with and without weight decay.
    #[test]
    fn sweeps_match_their_per_element_oracle_bitwise(
        seed in 0u64..1_000_000,
        len in 0usize..68,
        scale_sel in 0usize..3,
        specials in 0u32..3,
        decay in 0u32..2,
    ) {
        let mut rng = Xoshiro256::seed_from(seed);
        let scale = [1.0, 30.0, 1e-3][scale_sel];
        let specials = specials > 0;
        let x = sweep_operand(&mut rng, len, scale, specials);
        let g = sweep_operand(&mut rng, len, 1.0, specials);
        let m = sweep_operand(&mut rng, len, 0.1, specials);
        let v: Vec<f32> = sweep_operand(&mut rng, len, 0.01, specials)
            .iter()
            .map(|v| v * v)
            .collect();
        let t = 1 + (rng.next_u64() % 50) as i32;
        let step = AdamStep {
            beta1: 0.9,
            beta2: 0.999,
            bias1: 1.0 - 0.9f32.powi(t),
            bias2: 1.0 - 0.999f32.powi(t),
            lr: 2e-4,
            eps: 1e-8,
            weight_decay: if decay > 0 { 1e-5 } else { 0.0 },
        };
        let alpha = scale * rng.normal();
        let operands = [&x[..], &g, &m, &v];
        let want = sweep_oracle(operands, alpha, &step);
        for arm in [SimdBackend::Scalar, SimdBackend::detect()] {
            let got = sweep_outputs(arm, operands, alpha, &step);
            assert_outputs_eq(&got, &want, &format!("[{arm}, len {len}]"));
        }
    }
}

/// The kernels' `exp` — through its oracle, which the sweeps match bit
/// for bit — stays within 1e-5 of libm inside its clamp, saturates
/// outside it, and carries the sigmoid's limits and NaN.
#[test]
fn exp_oracle_tracks_libm() {
    for i in -800..=800 {
        let x = i as f32 * 0.11;
        if !(EXP_LO..=EXP_HI).contains(&x) {
            continue;
        }
        let (got, want) = (f64::from(exp_lane(x)), f64::from(x).exp());
        let rel = ((got - want) / want).abs();
        assert!(rel < 1e-5, "exp({x}): {got} vs {want} (rel {rel})");
    }
    assert_eq!(exp_lane(0.0), 1.0);
    assert!(exp_lane(f32::NAN).is_nan());
    assert_eq!(exp_lane(1000.0), f32::INFINITY);
    assert!(exp_lane(-1000.0) > 0.0, "deep negative saturates, not 0");
    assert!(
        sigmoid_lane(f32::NAN).is_nan(),
        "sigmoid must propagate NaN"
    );
    assert_eq!(sigmoid_lane(f32::INFINITY), 1.0);
    assert_eq!(sigmoid_lane(f32::NEG_INFINITY), 0.0);
}
