//! The implicit-GEMM convolution kernels of [`crate::simd`] — contract
//! rule 5 of the parent module — each written **once**: a generic body
//! over the eight abstract lanes of [`Lanes8`], instantiated for the
//! portable [`Scalar8`] and for the AVX2 lanes in the parent, so an
//! accumulation order is stated in one place and an arm is one `impl`.
//! They serve every [`crate::conv::Conv2dSpec`] — any stride, padding
//! and dilation — and, with the operands swapped, the transposed
//! convolution, which is the adjoint of this one.
//!
//! The kernels contain no `unsafe`. They describe where they read as
//! [`Walk`]s through a loop nest; a [`Nest`] works out, once per call,
//! from which starting positions the whole nest stays inside its slices,
//! and [`Lanes8::run`] compares each register tile's starts with that
//! before it reads — which is what lets the AVX2 arm load through raw
//! pointers without a bounds test per load.
//!
//! Three ways of not doing work, all bit-neutral (rule 5 has the
//! arguments): *forward* and the *weight gradient* leave out the products
//! of padding rows — the weight gradient of one-vector-wide rows those of
//! padding columns too — when [`skippable_rows`] says the other operand
//! is all finite; the *input gradient* gathers, per pixel, only the taps
//! whose output position exists.

#[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
use super::avx2;
use super::lanes::{Lanes8, Scalar8};
use super::{reduce8, SimdBackend, LANES};
use std::ops::Range;

/// Geometry of one convolution read straight from a zero-padded image —
/// the operand layout of the implicit-GEMM kernels behind
/// [`conv_fwd_skip_with`], [`conv_dw_acc_skip_with`] and
/// [`conv_dx_acc_padded_with`].
///
/// The padded image is `c_in × hp × wp` row-major (the `h × w` input
/// centred inside `padding` zeros on every side) followed by
/// `stride · (7·wp + LANES)` slack floats, so that a register tile of
/// eight output rows overhanging the last one, and an 8-lane read whose
/// valid lanes end at the last pixel, still read inside the slice.
/// Output position `(oi, oj)` reads tap `(ci, ki, kj)` at
/// `ci·hp·wp + (oi·stride + ki·dilation)·wp + oj·stride + kj·dilation`:
/// no bounds test per tap. The geometry does not say how wide the
/// padding is: the `*_skip_with` and `*_padded_with` entry points are
/// told what they need to know of it, and the ones without treat every
/// float of the padded image as data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeom {
    /// Input channels.
    pub c_in: usize,
    /// Output channels.
    pub c_out: usize,
    /// Padded image height (`h + 2·padding`).
    pub hp: usize,
    /// Padded image width (`w + 2·padding`).
    pub wp: usize,
    /// Kernel height (≥ 1).
    pub kh: usize,
    /// Kernel width (≥ 1).
    pub kw: usize,
    /// Stride (≥ 1).
    pub stride: usize,
    /// Kernel dilation (≥ 1).
    pub dilation: usize,
}

impl ConvGeom {
    /// Output height: the windows that fit in `hp`, `stride` apart.
    pub fn oh(&self) -> usize {
        (self.hp - self.dilation * (self.kh - 1) - 1) / self.stride + 1
    }

    /// Output width.
    pub fn ow(&self) -> usize {
        (self.wp - self.reach() - 1) / self.stride + 1
    }

    /// Taps per output element, `c_in·kh·kw` — the implicit GEMM's `k`.
    pub fn ckk(&self) -> usize {
        self.c_in * self.kh * self.kw
    }

    /// Length of a padded image slice, slack included.
    pub fn padded_len(&self) -> usize {
        self.c_in * self.hp * self.wp + self.stride * ((LANES - 1) * self.wp + LANES)
    }

    /// Length of the scratch [`conv_dx_acc_padded_with`] copies `dy` into:
    /// every output row between `dilation·(kw − 1)` zeros on either side, so
    /// a tap shifted off the row's end reads zeros, plus slack.
    pub fn dy_padded_len(&self) -> usize {
        self.c_out * self.oh() * (self.ow() + 2 * self.reach()) + LANES
    }

    /// Length of the scratch a [`DwBatch`] over `channels` output
    /// channels needs: nothing, or — when the weight gradient puts
    /// channels in the lanes — room for one image's `xp` and `dy` and for
    /// `dw`, all three with the channels innermost and those of `dy` and
    /// `dw` padded to whole groups of eight.
    pub fn dw_scratch_len(&self, channels: usize) -> usize {
        if self.channel_lanes(channels) {
            let pitch = channels.next_multiple_of(LANES);
            self.c_in * self.hp * self.wp + (self.oh() * self.ow() + self.ckk()) * pitch
        } else {
            0
        }
    }

    /// Whether the weight gradient of a run of `channels` output channels
    /// puts eight of them in the hardware lanes ([`conv_dw_acc_lanes`])
    /// rather than eight output positions ([`conv_dw_acc_tiled`]): when a
    /// row is one vector wide — a virtual lane is then a column, and a
    /// tile's chains too short to pay for reducing them — and there are
    /// the output channels to fill a vector and whole tiles of eight
    /// input channels to fill the accumulators. A rule of the shape, like
    /// the stride rule, and of nothing else; the bits are the same either
    /// way.
    fn channel_lanes(&self, channels: usize) -> bool {
        self.ow() == LANES && channels >= LANES && self.c_in > 0 && self.c_in % LANES == 0
    }

    /// Columns between a kernel row's first and last tap.
    fn reach(&self) -> usize {
        self.dilation * (self.kw - 1)
    }

    /// For each tap in ascending flattened order
    /// `p = (ci·kh + ki)·kw + kj`, its offset from an output position's
    /// own offset `oi·stride·wp + oj·stride` in the padded image, and its
    /// `ki`.
    fn taps(&self) -> Taps {
        Taps {
            left: self.ckk(),
            kj: 0,
            ki: 0,
            kw: self.kw,
            kh: self.kh,
            next: 0,
            row: 0,
            plane: 0,
            step: self.dilation,
            row_step: self.dilation * self.wp,
            plane_step: self.hp * self.wp,
        }
    }

    /// The kernel rows that may read an image row outside the top and
    /// bottom `skip` rows of the padded image for output rows
    /// `oi0..=oi1`: `skip ≤ oi·stride + ki·d < hp − skip` for some
    /// `oi·stride` in the range `oi0·stride..=oi1·stride`. (Between
    /// strided rows that is more than the rows that do; a kernel row
    /// kept that only meets padding adds its `±0.0` products.)
    fn live_kernel_rows(&self, skip: usize, oi0: usize, oi1: usize) -> Range<usize> {
        let (top, bottom) = (oi0 * self.stride, oi1 * self.stride);
        let below = self.hp.saturating_sub(skip).saturating_sub(top);
        let hi = below.div_ceil(self.dilation).min(self.kh);
        skip.saturating_sub(bottom).div_ceil(self.dilation).min(hi)..hi
    }

    /// The output rows whose image row under kernel row `ki` lies
    /// outside the top and bottom `skip` rows of the padded image.
    fn live_output_rows(&self, skip: usize, ki: usize) -> (usize, usize) {
        self.live_outputs(self.hp, self.oh(), skip, ki * self.dilation)
    }

    /// The output columns whose image column under kernel column `kj`
    /// lies outside the left and right `skip` columns of the padded image.
    fn live_output_cols(&self, skip: usize, kj: usize) -> (usize, usize) {
        self.live_outputs(self.wp, self.ow(), skip, kj * self.dilation)
    }

    /// Along one axis of a padded image `padded` long with `skip` padding
    /// at either end: the first and one past the last of its `outputs`
    /// output positions, `stride` apart, whose image position under a tap
    /// `shift` further on is not padding.
    fn live_outputs(
        &self,
        padded: usize,
        outputs: usize,
        skip: usize,
        shift: usize,
    ) -> (usize, usize) {
        let (lo, hi) = (
            skip.saturating_sub(shift),
            padded.saturating_sub(skip).saturating_sub(shift),
        );
        // (No division where there is nothing to divide by: this runs
        // once a pass of taps.)
        let (lo, hi) = match self.stride {
            1 => (lo, hi),
            stride => (lo.div_ceil(stride), hi.div_ceil(stride)),
        };
        (lo, hi.min(outputs))
    }

    /// The conditions every index computed from this geometry relies on;
    /// checked at each kernel entry because the fields are public.
    fn assert_valid(&self, padding: usize) {
        assert!(
            self.kh >= 1 && self.kw >= 1 && self.stride >= 1 && self.dilation >= 1,
            "ConvGeom: zero kernel extent, stride or dilation"
        );
        assert!(
            self.dilation * (self.kh - 1) < self.hp && self.reach() < self.wp,
            "ConvGeom: dilated kernel larger than the padded image"
        );
        assert!(
            2 * padding <= self.hp.min(self.wp),
            "ConvGeom: padding wider than the padded image"
        );
    }
}

/// [`ConvGeom::taps`]: three counters and three running offsets,
/// because `dw` asks for every tap of every pass and unflattening `p`
/// would cost four divisions a time.
struct Taps {
    left: usize,
    kj: usize,
    ki: usize,
    kw: usize,
    kh: usize,
    /// Offset of the tap `next()` returns, of its kernel row's first
    /// tap, and of its channel's first tap.
    next: usize,
    row: usize,
    plane: usize,
    step: usize,
    row_step: usize,
    plane_step: usize,
}

impl Iterator for Taps {
    type Item = (usize, usize);

    #[inline]
    fn next(&mut self) -> Option<(usize, usize)> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let tap = (self.next, self.ki);
        self.kj += 1;
        self.next += self.step;
        if self.kj == self.kw {
            self.kj = 0;
            self.ki += 1;
            self.row += self.row_step;
            if self.ki == self.kh {
                self.ki = 0;
                self.plane += self.plane_step;
                self.row = self.plane;
            }
            self.next = self.row;
        }
        Some(tap)
    }
}

/// How many rows (and columns) of zero padding a kernel may leave out:
/// `padding` if every element of `other` — the operand they are
/// multiplied by — is finite, else 0. A product `v · 0.0` is `±0.0` exactly when `v` is
/// finite, and adding `±0.0` to an accumulator that started at `+0.0`
/// (which no sum of such an accumulator ever turns into `−0.0`) leaves
/// its bits alone; one NaN or infinity anywhere and every product is
/// computed, so it poisons what it would in a column matrix.
pub fn skippable_rows(padding: usize, other: &[f32]) -> usize {
    let non_finite = other.iter().filter(|v| !v.is_finite()).count();
    if non_finite == 0 {
        padding
    } else {
        0
    }
}

/// [`conv_fwd_skip_with`] skipping nothing: every float of `xp` is
/// multiplied.
///
/// # Panics
///
/// Panics if the geometry is degenerate or any slice length is
/// inconsistent with it.
pub fn conv_fwd_with(backend: SimdBackend, g: &ConvGeom, xp: &[f32], w: &[f32], y: &mut [f32]) {
    conv_fwd_skip_with(backend, g, 0, xp, w, y);
}

/// Convolution forward for one image:
/// `y[co, oi, oj] = Σ w[co, ci, ki, kj] · xp[ci, oi·s + ki·d, oj·s + kj·d]`,
/// each output element adding its products from `0.0` in strictly
/// ascending `(ci, ki, kj)` order on every arm — the order (and the
/// bits) of a matrix product over an im2col matrix, without the matrix.
///
/// `xp` is the padded image described by [`ConvGeom`], `w` is
/// `c_out × ckk` row-major, `y` is `c_out × oh × ow` and is overwritten.
/// `skip` is [`skippable_rows`] of the image's padding and `w`: the
/// caller vouches that the top and bottom `skip` rows of `xp` are `+0.0`
/// and, unless it is 0, that `w` is all finite. Kernel rows that meet
/// only those rows are then not multiplied (`docs/ARCHITECTURE.md`,
/// rule 5); the bits are those of multiplying them.
///
/// # Panics
///
/// Panics if the geometry is degenerate or any slice length is
/// inconsistent with it.
pub fn conv_fwd_skip_with(
    backend: SimdBackend,
    g: &ConvGeom,
    skip: usize,
    xp: &[f32],
    w: &[f32],
    y: &mut [f32],
) {
    g.assert_valid(skip);
    assert!(xp.len() >= g.padded_len(), "conv_fwd: padded image length");
    assert_eq!(w.len(), g.c_out * g.ckk(), "conv_fwd: weight length");
    assert_eq!(y.len(), g.c_out * g.oh() * g.ow(), "conv_fwd: out length");
    dispatch!(
        backend,
        conv_fwd::<Scalar8>(g, skip, xp, w, y),
        avx2::conv_fwd(g, skip, xp, w, y)
    );
}

/// [`conv_dw_acc_skip_with`] skipping nothing: every float of `xp` is
/// multiplied.
///
/// # Panics
///
/// Panics if the geometry is degenerate or any slice length is
/// inconsistent with it.
pub fn conv_dw_acc_with(
    backend: SimdBackend,
    g: &ConvGeom,
    xp: &[f32],
    dy: &[f32],
    dw: &mut [f32],
) {
    conv_dw_acc_skip_with(backend, g, 0, xp, dy, dw);
}

/// Weight gradient of a run of output channels for one image,
/// accumulated: for each channel `c` of the run and each tap `p`,
/// `dw[c·ckk + p] += reduce8(lanes)` where the flattened output index
/// `i = oi·ow + oj` adds `dy[c·ohw + i] · xp[tap p at i]` into lane
/// `i % 8` in ascending `i` — the lanes (and the bits) of an 8-lane dot
/// product against a row of an im2col matrix, without the matrix.
///
/// `dy` holds the channels' `oh × ow` output gradients back to back and
/// `dw` their `ckk` weight gradients; the run may be any contiguous
/// subset of the layer's `c_out` channels (callers split channels
/// across threads), so its length comes from the slices. `skip` is as
/// in [`conv_fwd_skip_with`], with `dy` the operand that must be finite
/// and the caller vouching for the left and right `skip` *columns* of
/// `xp` as well: output rows whose image row under a tap is one of the
/// skipped rows are not multiplied, nor — where the kernel takes the
/// form that can tell them apart — output columns whose image column is
/// a skipped one. One image of a [`DwBatch`].
///
/// # Panics
///
/// Panics if the geometry is degenerate or any slice length is
/// inconsistent with it.
pub fn conv_dw_acc_skip_with(
    backend: SimdBackend,
    g: &ConvGeom,
    skip: usize,
    xp: &[f32],
    dy: &[f32],
    dw: &mut [f32],
) {
    g.assert_valid(skip);
    let (ohw, ckk) = (g.oh() * g.ow(), g.ckk());
    assert_eq!(dy.len() % ohw, 0, "conv_dw_acc: dy length");
    assert_eq!(dw.len(), dy.len() / ohw * ckk, "conv_dw_acc: dw length");
    if ckk == 0 {
        return;
    }
    let mut scratch = vec![0.0f32; g.dw_scratch_len(dy.len() / ohw)];
    let mut batch = DwBatch::new(g, dw, &mut scratch);
    batch.add(backend, skip, xp, dy);
    batch.finish();
}

/// The weight gradients of a run of output channels while a batch of
/// images is added to them, one [`DwBatch::add`] an image in batch
/// order, then [`DwBatch::finish`]. Which form the kernel takes — and so
/// whether the sums are kept transposed until the end — is the
/// geometry's business (`ConvGeom::channel_lanes`), not the caller's.
pub struct DwBatch<'a> {
    g: ConvGeom,
    dw: &'a mut [f32],
    /// The operands of [`conv_dw_acc_lanes`] — the image and `dy` being
    /// added, and `dw` — all empty unless the geometry puts channels in
    /// the lanes.
    xt: &'a mut [f32],
    dyt: &'a mut [f32],
    dwt: &'a mut [f32],
}

impl<'a> DwBatch<'a> {
    /// Starts a batch into `dw`, the `ckk` weight gradients of each
    /// channel of the run back to back (whatever they hold is added to),
    /// with [`ConvGeom::dw_scratch_len`] floats of scratch, contents
    /// ignored.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate or has no taps, or a slice
    /// length is inconsistent with it.
    pub fn new(g: &ConvGeom, dw: &'a mut [f32], scratch: &'a mut [f32]) -> Self {
        g.assert_valid(0);
        let (ohw, ckk) = (g.oh() * g.ow(), g.ckk());
        assert!(ckk > 0 && dw.len() % ckk == 0, "DwBatch: dw length");
        let channels = dw.len() / ckk;
        assert_eq!(
            scratch.len(),
            g.dw_scratch_len(channels),
            "DwBatch: scratch length"
        );
        let image = if g.channel_lanes(channels) {
            g.c_in * g.hp * g.wp
        } else {
            0
        };
        let (xt, rest) = scratch.split_at_mut(image);
        // The padding channels of `dyᵀ` stay zero; `dwᵀ` starts there.
        rest.iter_mut().for_each(|v| *v = 0.0);
        let (dyt, dwt) = rest.split_at_mut(rest.len() / (ohw + ckk) * ohw);
        DwBatch {
            g: *g,
            dw,
            xt,
            dyt,
            dwt,
        }
    }

    /// Adds one image's weight gradient: `xp` its padded image, `dy` the
    /// run's `oh × ow` output gradients back to back, `skip` as in
    /// [`conv_dw_acc_skip_with`].
    ///
    /// # Panics
    ///
    /// Panics if a slice length is inconsistent with the geometry.
    pub fn add(&mut self, backend: SimdBackend, skip: usize, xp: &[f32], dy: &[f32]) {
        let g = &self.g;
        g.assert_valid(skip);
        assert!(
            xp.len() >= g.padded_len(),
            "conv_dw_acc: padded image length"
        );
        let (ohw, ckk) = (g.oh() * g.ow(), g.ckk());
        assert_eq!(
            dy.len() * ckk,
            self.dw.len() * ohw,
            "conv_dw_acc: dy length"
        );
        let lanes = !self.dwt.is_empty();
        let (xp, dy, dw) = if lanes {
            transpose(&xp[..self.xt.len()], g.c_in, self.xt);
            transpose(dy, self.dyt.len() / ohw, self.dyt);
            (&*self.xt, &*self.dyt, &mut *self.dwt)
        } else {
            (xp, dy, &mut *self.dw)
        };
        dispatch!(
            backend,
            conv_dw_acc::<Scalar8>(g, skip, xp, dy, dw, lanes),
            avx2::conv_dw_acc(g, skip, xp, dy, dw, lanes)
        );
    }

    /// Adds what the batch summed to `dw`.
    pub fn finish(self) {
        if self.dwt.is_empty() {
            return;
        }
        let ckk = self.g.ckk();
        let pitch = self.dwt.len() / ckk;
        for (p, sums) in self.dwt.chunks_exact(pitch).enumerate() {
            for (c, &sum) in sums[..self.dw.len() / ckk].iter().enumerate() {
                self.dw[c * ckk + p] += sum;
            }
        }
    }
}

/// `dst[i·pitch + c] = src[c·rows + i]`: the rows of `src`, `rows =
/// dst.len() / pitch` long, become the first columns of `dst`; its other
/// columns keep what they hold.
fn transpose(src: &[f32], pitch: usize, dst: &mut [f32]) {
    let row = dst.len() / pitch;
    for (c, src_row) in src.chunks_exact(row).enumerate() {
        for (i, &v) in src_row.iter().enumerate() {
            dst[i * pitch + c] = v;
        }
    }
}

/// [`conv_dx_acc_padded_with`] over the whole padded image (`padding`
/// 0): `dxp` is `c_in × hp × wp` plus slack, and the pixels of what a
/// caller regards as the padding ring are gathered like any other —
/// each holds the sum of the taps that reach it from inside the output.
/// Pads `dy` into a buffer of its own.
///
/// # Panics
///
/// Panics if the geometry is degenerate or any slice length is
/// inconsistent with it.
pub fn conv_dx_acc_with(
    backend: SimdBackend,
    g: &ConvGeom,
    w: &[f32],
    dy: &[f32],
    dxp: &mut [f32],
) {
    g.assert_valid(0);
    assert!(
        dxp.len() >= g.padded_len(),
        "conv_dx_acc: padded image length"
    );
    let mut dyp = vec![0.0f32; g.dy_padded_len()];
    let image = g.c_in * g.hp * g.wp;
    conv_dx_acc_padded_with(backend, g, 0, w, dy, &mut dyp, &mut dxp[..image]);
}

/// Input gradient for one image, accumulated, as a gather: each pixel
/// `(ci, i, j)` of the `h × w` image inside `padding` sums, from `+0.0`
/// and in ascending `(ki, kj)` order, the chains
/// `Σ_co w[co, ci, ki, kj] · dy[co, (i + padding − ki·d)/s, (j + padding − kj·d)/s]`
/// of the taps whose `dy` position exists (both divisions exact), each
/// chain in ascending `co` order, and the sum is added to `dx[ci, i, j]`
/// once — per pixel the chains (and, into a zeroed `dx`, the bits) of
/// the transposed matrix product of `w` and `dy` folded back by col2im.
/// A tap with no `dy` position is left out, never multiplied by zero, so
/// a non-finite weight reaches exactly the pixels col2im lets it reach.
/// With the operands swapped this is the forward pass of the transposed
/// convolution.
///
/// `w` is `c_out × ckk`, `dy` is `c_out × oh × ow`, `dx` is the unpadded
/// `c_in × h × w`, and `dyp` is [`ConvGeom::dy_padded_len`] floats of
/// scratch (contents ignored) that receive a zero-padded copy of `dy`.
///
/// # Panics
///
/// Panics if the geometry is degenerate or any slice length is
/// inconsistent with it.
pub fn conv_dx_acc_padded_with(
    backend: SimdBackend,
    g: &ConvGeom,
    padding: usize,
    w: &[f32],
    dy: &[f32],
    dyp: &mut [f32],
    dx: &mut [f32],
) {
    g.assert_valid(padding);
    let (oh, ow, reach) = (g.oh(), g.ow(), g.reach());
    assert_eq!(w.len(), g.c_out * g.ckk(), "conv_dx_acc: weight length");
    assert_eq!(dy.len(), g.c_out * oh * ow, "conv_dx_acc: dy length");
    assert_eq!(dyp.len(), g.dy_padded_len(), "conv_dx_acc: scratch length");
    let image = (g.hp - 2 * padding) * (g.wp - 2 * padding);
    assert_eq!(dx.len(), g.c_in * image, "conv_dx_acc: dx length");
    if dx.is_empty() || g.c_out == 0 {
        return;
    }
    dyp.iter_mut().for_each(|v| *v = 0.0);
    let rows = dyp.chunks_exact_mut(ow + 2 * reach);
    for (dst, src) in rows.zip(dy.chunks_exact(ow)) {
        dst[reach..reach + ow].copy_from_slice(src);
    }
    dispatch!(
        backend,
        conv_dx_acc::<Scalar8>(g, padding, w, dyp, dx),
        avx2::conv_dx_acc(g, padding, w, dyp, dx)
    );
}

// ---------------------------------------------------------------------
// The implicit-GEMM kernels, written once over eight abstract lanes.
// ---------------------------------------------------------------------

/// How a kernel's reads of one operand move while it runs a three-deep
/// loop nest: from wherever a read starts, `steps[l]` (either way) with
/// every iteration of loop `l`, outermost first. `lane` is how far apart
/// the eight lanes of a read are: 0 takes the one float there in every
/// lane, 1 the eight floats from there on, and `s` every `s`-th float
/// of the `7·s + 1` from there on.
#[derive(Clone, Copy)]
pub(super) struct Walk<'a> {
    pub(super) src: &'a [f32],
    pub(super) steps: [isize; 3],
    pub(super) lane: usize,
}

impl Walk<'_> {
    /// The first and last start positions from which every read of a
    /// nest with `counts` iterations per loop stays inside `src` — the
    /// nest moves furthest back and ahead of its start where each loop
    /// is at whichever end its step points to — or `None` if there is no
    /// such start.
    fn safe_starts(&self, counts: [usize; 3]) -> Option<(usize, usize)> {
        let width = self.lane.checked_mul(LANES - 1)?.checked_add(1)?;
        let (mut back, mut ahead) = (0isize, 0isize);
        for l in 0..3 {
            let last = isize::try_from(counts[l].checked_sub(1)?).ok()?;
            let span = last.checked_mul(self.steps[l])?;
            back = back.checked_add(span.min(0))?;
            ahead = ahead.checked_add(span.max(0))?;
        }
        let first = usize::try_from(back.checked_neg()?).ok()?;
        let room = self.src.len().checked_sub(width)?;
        let last = room.checked_sub(usize::try_from(ahead).ok()?)?;
        (first <= last).then_some((first, last))
    }

    /// How far a read has moved at iteration `at` of the nest.
    #[inline(always)]
    pub(super) fn offset(&self, at: [usize; 3]) -> isize {
        (0..3).fold(0isize, |sum, l| {
            sum.wrapping_add((at[l] as isize).wrapping_mul(self.steps[l]))
        })
    }
}

/// Three walks, the loop nest they run through, and for each walk the
/// start positions that keep the whole nest inside its slice. An arm
/// compares a tile's starts against those once ([`Nest::admit`]) and
/// then reads without a bounds test per load, so nothing may change a
/// nest after [`Nest::new`]: `counts` and `safe` are private to this
/// module, and `walks` is only ever read. `STRIDED` says whether a walk
/// may read lanes more than one float apart — a property of the kernel,
/// fixed when it is compiled, so that the reads of a nest without are
/// the splats and loads they would be anyway.
pub(super) struct Nest<'a, const STRIDED: bool> {
    pub(super) walks: [Walk<'a>; 3],
    counts: [usize; 3],
    safe: [Option<(usize, usize)>; 3],
}

/// A walk of nothing, for a [`Nest`] that needs fewer than three.
const NO_WALK: Walk<'static> = Walk {
    src: &[],
    steps: [0; 3],
    lane: 1,
};

impl<'a, const STRIDED: bool> Nest<'a, STRIDED> {
    #[inline]
    fn new(walks: [Walk<'a>; 3], counts: [usize; 3]) -> Self {
        assert!(
            STRIDED || walks.iter().all(|walk| walk.lane <= 1),
            "simd: a strided walk in a nest without strided reads"
        );
        let safe = walks.map(|walk| walk.safe_starts(counts));
        Nest {
            walks,
            counts,
            safe,
        }
    }

    /// `part` cut down to the nest — what an arm may iterate — or `None`
    /// if that is nothing.
    ///
    /// # Panics
    ///
    /// Panics if one of `starts`, the positions the three walks are read
    /// from, could take a read of the nest outside its walk's slice.
    #[inline(always)]
    pub(super) fn admit(
        &self,
        starts: [&[usize]; 3],
        part: [Range<usize>; 3],
    ) -> Option<[Range<usize>; 3]> {
        let part: [_; 3] = std::array::from_fn(|l| part[l].start..part[l].end.min(self.counts[l]));
        if part.iter().any(|range| range.is_empty()) {
            return None;
        }
        for (safe, starts) in self.safe.iter().zip(starts) {
            let inside = |&p: &usize| safe.is_some_and(|(first, last)| first <= p && p <= last);
            assert!(
                starts.iter().all(inside),
                "simd: a kernel would read outside its operand"
            );
        }
        Some(part)
    }
}

/// Implicit-GEMM forward. The register tile is `CT` output channels ×
/// `RT` output rows × 8 columns: on a [`Lanes8::WIDE`] arm eight
/// accumulators, 4 × 2 when there are channels to share each image load
/// and 1 × 8 otherwise, so a single-channel layer still runs eight
/// independent chains; half as many rows on a narrow one.
#[inline(always)]
pub(super) fn conv_fwd<V: Lanes8>(g: &ConvGeom, skip: usize, xp: &[f32], w: &[f32], y: &mut [f32]) {
    if g.stride == 1 {
        conv_fwd_shaped::<V, false>(g, skip, xp, w, y);
    } else {
        conv_fwd_shaped::<V, true>(g, skip, xp, w, y);
    }
}

/// [`conv_fwd`] with the image read `stride` floats a lane apart
/// (`STRIDED`) or contiguously.
#[inline(always)]
fn conv_fwd_shaped<V: Lanes8, const STRIDED: bool>(
    g: &ConvGeom,
    skip: usize,
    xp: &[f32],
    w: &[f32],
    y: &mut [f32],
) {
    match (g.c_out >= 4, V::WIDE) {
        (true, true) => conv_fwd_tiled::<V, 4, 2, STRIDED>(g, skip, xp, w, y),
        (true, false) => conv_fwd_tiled::<V, 4, 1, STRIDED>(g, skip, xp, w, y),
        (false, true) => conv_fwd_tiled::<V, 1, 8, STRIDED>(g, skip, xp, w, y),
        (false, false) => conv_fwd_tiled::<V, 1, 4, STRIDED>(g, skip, xp, w, y),
    }
}

/// [`conv_fwd`] for one tile shape (`c_out ≥ CT`). The last channel
/// tile slides back over channels already stored rather than overhang
/// `c_out`, and a row tile that overhangs `oh` reads on into the padded
/// image's slack and skips those stores, so there is no remainder
/// kernel. Each accumulator adds its `w · x` products from zero in
/// ascending tap order — one uninterrupted chain per output element —
/// over the kernel rows that are live for the tile's output rows
/// ([`ConvGeom::live_kernel_rows`]; all of them when `skip` is 0).
#[inline(always)]
fn conv_fwd_tiled<V: Lanes8, const CT: usize, const RT: usize, const STRIDED: bool>(
    g: &ConvGeom,
    skip: usize,
    xp: &[f32],
    w: &[f32],
    y: &mut [f32],
) {
    let (oh, ow, wp, ckk, stride) = (g.oh(), g.ow(), g.wp, g.ckk(), g.stride);
    let (ohw, plane, khw, step) = (oh * ow, g.hp * wp, g.kh * g.kw, g.dilation);
    let weights = Walk {
        src: w,
        steps: [khw, g.kw, 1].map(|s| s as isize),
        lane: 0,
    };
    let windows = Walk {
        src: xp,
        steps: [plane, step * wp, step].map(|s| s as isize),
        lane: stride,
    };
    let nest = Nest::<STRIDED>::new([weights, windows, NO_WALK], [g.c_in, g.kh, g.kw]);
    for co0 in (0..g.c_out).step_by(CT) {
        let co0 = co0.min(g.c_out - CT);
        let w_rows: [usize; CT] = std::array::from_fn(|c| (co0 + c) * ckk);
        for oi0 in (0..oh).step_by(RT) {
            let rows = RT.min(oh - oi0);
            let taps = [
                0..g.c_in,
                g.live_kernel_rows(skip, oi0, oi0 + rows - 1),
                0..g.kw,
            ];
            for oj0 in (0..ow).step_by(LANES) {
                let x_rows: [usize; RT] = std::array::from_fn(|r| ((oi0 + r) * wp + oj0) * stride);
                let mut acc = [[V::splat(0.0); RT]; CT];
                V::run(
                    &nest,
                    (&w_rows, &x_rows, &[]),
                    taps.clone(),
                    |wv, xv, []| {
                        for r in 0..RT {
                            for c in 0..CT {
                                acc[c][r] = acc[c][r].add(wv[c].mul(xv[r]));
                            }
                        }
                    },
                );
                let jw = (ow - oj0).min(LANES);
                for c in 0..CT {
                    for r in 0..rows {
                        let at = (co0 + c) * ohw + (oi0 + r) * ow + oj0;
                        y[at..at + jw].copy_from_slice(&acc[c][r].to_array()[..jw]);
                    }
                }
            }
        }
    }
}

/// Implicit-GEMM weight gradient. `lanes` says the operands are the
/// transposed ones of [`conv_dw_acc_lanes`], which [`DwBatch`] chooses
/// for rows one vector wide. Otherwise, when the output width is a
/// multiple of 8 every output row starts at lane 0 (every layer of the
/// three models on the corpus grids) and the register tile is `CT`
/// channels × `TT` taps: 4 × 2 when there are (four) channels to share
/// each image window and 1 × 8 otherwise on a [`Lanes8::WIDE`] arm, 2 × 2
/// and 1 × 4 on a narrow one. Other widths rotate the lane phase from row
/// to row and gather each tap's column row instead.
#[inline(always)]
pub(super) fn conv_dw_acc<V: Lanes8>(
    g: &ConvGeom,
    skip: usize,
    xp: &[f32],
    dy: &[f32],
    dw: &mut [f32],
    lanes: bool,
) {
    if lanes {
        conv_dw_acc_lanes::<V>(g, skip, xp, dy, dw);
    } else if g.ow() % LANES != 0 {
        conv_dw_acc_rotating(g, xp, dy, dw);
    } else if g.stride == 1 {
        conv_dw_acc_shaped::<V, false>(g, skip, xp, dy, dw);
    } else {
        conv_dw_acc_shaped::<V, true>(g, skip, xp, dy, dw);
    }
}

/// [`conv_dw_acc`]'s register tile, with the image read `stride` floats
/// a lane apart (`STRIDED`) or contiguously.
#[inline(always)]
fn conv_dw_acc_shaped<V: Lanes8, const STRIDED: bool>(
    g: &ConvGeom,
    skip: usize,
    xp: &[f32],
    dy: &[f32],
    dw: &mut [f32],
) {
    match (dy.len() >= 4 * g.oh() * g.ow(), V::WIDE) {
        (true, true) => conv_dw_acc_tiled::<V, 4, 2, STRIDED>(g, skip, xp, dy, dw),
        (true, false) => conv_dw_acc_tiled::<V, 2, 2, STRIDED>(g, skip, xp, dy, dw),
        (false, true) => conv_dw_acc_tiled::<V, 1, 8, STRIDED>(g, skip, xp, dy, dw),
        (false, false) => conv_dw_acc_tiled::<V, 1, 4, STRIDED>(g, skip, xp, dy, dw),
    }
}

/// [`conv_dw_acc`] for one tile shape (`CT · TT` ≤ 8 accumulators, at
/// least `CT` channels). A pass takes `TT` consecutive taps, tabulated
/// once and shared by every channel group: each accumulator is the 8
/// lanes of one (channel, tap) over the flattened output index, each
/// image window is loaded once per `CT` channels and each `dy` vector
/// once per `TT` taps, and the eight are reduced together with
/// [`reduce8`]'s tree — an 8-lane dot product's lanes, with the column
/// row read as windows of the padded image. Output rows that are
/// dead for every tap of the pass ([`ConvGeom::live_output_rows`]) are
/// left out. The last channel tile slides back over channels already
/// done and the last pass keeps taps of the pass before it; neither copy
/// is added.
#[inline(always)]
fn conv_dw_acc_tiled<V: Lanes8, const CT: usize, const TT: usize, const STRIDED: bool>(
    g: &ConvGeom,
    skip: usize,
    xp: &[f32],
    dy: &[f32],
    dw: &mut [f32],
) {
    let (oh, ow, wp, ckk, stride) = (g.oh(), g.ow(), g.wp, g.ckk(), g.stride);
    let (ohw, channels) = (oh * ow, dy.len() / (oh * ow));
    let grads = Walk {
        src: dy,
        steps: [0, ow, LANES].map(|s| s as isize),
        lane: 1,
    };
    let windows = Walk {
        src: xp,
        steps: [0, stride * wp, stride * LANES].map(|s| s as isize),
        lane: stride,
    };
    let nest = Nest::<STRIDED>::new([grads, windows, NO_WALK], [1, oh, ow / LANES]);
    let mut taps = g.taps();
    let mut offs = [0usize; TT];
    for p0 in (0..ckk).step_by(TT) {
        let tn = TT.min(ckk - p0);
        // The live rows move up as `ki` grows, so the pass's lowest and
        // highest kernel rows bound those of all its taps.
        let (mut ki_min, mut ki_max) = (g.kh, 0);
        for (off, (tap, ki)) in offs.iter_mut().zip(taps.by_ref().take(tn)) {
            (*off, ki_min, ki_max) = (tap, ki_min.min(ki), ki_max.max(ki));
        }
        let (lo, hi) = (
            g.live_output_rows(skip, ki_max).0,
            g.live_output_rows(skip, ki_min).1,
        );
        for c0 in (0..channels).step_by(CT) {
            let first = c0.min(channels - CT);
            let dy_rows: [usize; CT] = std::array::from_fn(|c| (first + c) * ohw);
            let mut acc = [[V::splat(0.0); TT]; CT];
            let outputs = [0..1, lo..hi, 0..ow / LANES];
            V::run(&nest, (&dy_rows, &offs, &[]), outputs, |dyv, xv, []| {
                for t in 0..TT {
                    for c in 0..CT {
                        acc[c][t] = acc[c][t].add(dyv[c].mul(xv[t]));
                    }
                }
            });
            let zero = V::splat(0.0);
            let tile = std::array::from_fn(|i| {
                if i < CT * TT {
                    acc[i / TT][i % TT]
                } else {
                    zero
                }
            });
            let sums = V::reduce(&tile).to_array();
            for c in c0 - first..CT {
                let at = (first + c) * ckk + p0;
                for (out, &sum) in dw[at..at + tn].iter_mut().zip(&sums[c * TT..]) {
                    *out += sum;
                }
            }
        }
    }
}

/// [`reduce8`]'s tree across eight registers instead of along one: lane
/// `t` of the result combines lane `t` of the eight, `r[l]` in the place
/// of virtual lane `l`.
#[inline(always)]
fn reduce_across<V: Lanes8>(r: &[V; LANES]) -> V {
    let (s0, s1) = (r[0].add(r[4]), r[1].add(r[5]));
    let (s2, s3) = (r[2].add(r[6]), r[3].add(r[7]));
    s0.add(s2).add(s1.add(s3))
}

/// [`conv_dw_acc`] for rows one vector wide, with eight output
/// *channels* in the hardware lanes and every operand channels-innermost:
/// `xt` is the padded image as `hp·wp` rows of `c_in`, `dyt` is `oh·ow`
/// rows of the output channels padded with zeros to whole groups of
/// eight, `dwt` is `ckk` rows of the same width. Rule 5 fixes what is
/// added to what — position `i` into virtual lane `i % 8` in ascending
/// `i`, the lanes combined by [`reduce8`]'s tree — not where a partial
/// sum is held. The input channels are taken in tiles of as many as
/// there are accumulators for: eight on a [`Lanes8::WIDE`] arm, four on
/// a narrow one.
#[inline(always)]
fn conv_dw_acc_lanes<V: Lanes8>(
    g: &ConvGeom,
    skip: usize,
    xt: &[f32],
    dyt: &[f32],
    dwt: &mut [f32],
) {
    if V::WIDE {
        conv_dw_acc_lanes_tiled::<V, 8>(g, skip, xt, dyt, dwt);
    } else {
        conv_dw_acc_lanes_tiled::<V, 4>(g, skip, xt, dyt, dwt);
    }
}

/// [`conv_dw_acc_lanes`] in tiles of `T` input channels (`c_in` is a
/// whole number of them). With eight outputs to a row a virtual lane is
/// an output column, and an accumulator is one lane of one (input
/// channel, kernel position) for a group of eight output channels: down
/// the column it adds a splat of the image times a row of `dyt`, which
/// the `T` channels — neighbours in `xt`, so one pointer serves them —
/// share. The columns are run one after the other and parked;
/// [`reduce_across`] then combines them with seven vertical adds and the
/// result is added to a row of `dwt` — nothing horizontal, and no scalar.
/// Output rows that are padding under the kernel row are left out, and so
/// are the columns that are padding under the kernel column: a lane of
/// those is the `+0.0` it would have summed to.
#[inline(always)]
fn conv_dw_acc_lanes_tiled<V: Lanes8, const T: usize>(
    g: &ConvGeom,
    skip: usize,
    xt: &[f32],
    dyt: &[f32],
    dwt: &mut [f32],
) {
    let (oh, wp, step, stride) = (g.oh(), g.wp, g.dilation, g.stride);
    let pitch = dyt.len() / (oh * LANES);
    let image = Walk {
        src: xt,
        steps: [0, stride * g.c_in, stride * wp * g.c_in].map(|s| s as isize),
        lane: 0,
    };
    let grads = Walk {
        src: dyt,
        steps: [0, pitch, LANES * pitch].map(|s| s as isize),
        lane: 1,
    };
    let nest = Nest::<false>::new([image, grads, NO_WALK], [1, LANES, oh]);
    let zero = V::splat(0.0);
    for ci0 in (0..g.c_in).step_by(T) {
        for ki in 0..g.kh {
            let (lo, hi) = g.live_output_rows(skip, ki);
            let rows = hi.saturating_sub(lo);
            for kj in 0..g.kw {
                let (jl, jh) = g.live_output_cols(skip, kj);
                let x_channels: [usize; T] =
                    std::array::from_fn(|t| (ki * wp + kj) * step * g.c_in + ci0 + t);
                // Parked as plain arrays: a vector-aligned local would have
                // the whole function realign its stack, and the tiles beside
                // this form lose a register to the frame pointer.
                let mut lanes = [[Scalar8::splat(0.0); T]; LANES];
                for group in (0..pitch).step_by(LANES) {
                    let (mut acc, mut left, mut lane) = ([zero; T], rows, jl);
                    let outputs = [0..1, jl..jh, lo..hi];
                    V::run(
                        &nest,
                        (&x_channels, &[group], &[]),
                        outputs,
                        |xv, [dv], []| {
                            for t in 0..T {
                                acc[t] = acc[t].add(xv[t].mul(dv));
                            }
                            left -= 1;
                            if left == 0 {
                                lanes[lane] = acc.map(|sum| Scalar8(sum.to_array()));
                                (acc, left, lane) = ([zero; T], rows, lane + 1);
                            }
                        },
                    );
                    for t in 0..T {
                        let sums = reduce_across(&std::array::from_fn(|l| lanes[l][t]));
                        let at = (((ci0 + t) * g.kh + ki) * g.kw + kj) * pitch + group;
                        for (out, sum) in dwt[at..at + LANES].iter_mut().zip(sums.to_array()) {
                            *out += sum;
                        }
                    }
                }
            }
        }
    }
}

/// Implicit-GEMM input gradient as a gather (see
/// [`conv_dx_acc_padded_with`]).
#[inline(always)]
pub(super) fn conv_dx_acc<V: Lanes8>(
    g: &ConvGeom,
    pad: usize,
    w: &[f32],
    dyp: &[f32],
    dx: &mut [f32],
) {
    if g.c_out == 1 {
        conv_dx_acc_tiles::<V, true>(g, pad, w, dyp, dx);
    } else {
        conv_dx_acc_tiles::<V, false>(g, pad, w, dyp, dx);
    }
}

/// [`conv_dx_acc`] with `ONE` saying whether `c_out` is 1. The input
/// channels are taken in tiles of eight on a [`Lanes8::WIDE`] arm — eight
/// `c_out` chains in flight, which is what keeps their adds from waiting
/// on each other — and on a narrow one of four when a chain is one
/// product and of two beside the chains a `c_out > 1` layer carries; what
/// is left over goes in tiles of half that, down to one.
#[inline(always)]
fn conv_dx_acc_tiles<V: Lanes8, const ONE: bool>(
    g: &ConvGeom,
    pad: usize,
    w: &[f32],
    dyp: &[f32],
    dx: &mut [f32],
) {
    let mut from = 0;
    if V::WIDE {
        from = conv_dx_acc_tiled::<V, 8, ONE>(g, pad, w, dyp, dx, from);
    }
    if V::WIDE || ONE {
        from = conv_dx_acc_tiled::<V, 4, ONE>(g, pad, w, dyp, dx, from);
    }
    from = conv_dx_acc_tiled::<V, 2, ONE>(g, pad, w, dyp, dx, from);
    conv_dx_acc_tiled::<V, 1, ONE>(g, pad, w, dyp, dx, from);
}

/// [`conv_dx_acc`] for the whole tiles of `CT` input channels from
/// channel `from` on (`ONE` iff `c_out` is 1); returns the first channel
/// it left. The register tile is `CT` input channels × 8 pixels of one
/// image row and one column phase — pixels `stride` apart, which the
/// same taps reach from consecutive `dy` columns — and its accumulators
/// live across *all* taps (beside eight chains some of them on the
/// stack, touched once a tap): per tap one `dy` vector per output channel
/// is shared by the channels' chains, and each chain is added once, under
/// the tap's lane mask. A tap reaches a pixel only if its shift is a
/// multiple of the stride from it, so along either axis the taps that do
/// are `stride / gcd(stride, dilation)` kernel positions apart; the
/// kernel rows are bounded to those whose `dy` row exists, and the taps
/// along a row to those with a pixel in range. A masked-out lane adds
/// `+0.0`, and a chain that is its one product (`ONE`) rather than
/// `0.0 +` it can differ in the sign of a zero: either way a zero is
/// added to an accumulator which started at `+0.0`, is therefore never
/// `−0.0`, and keeps its bits.
#[inline(always)]
fn conv_dx_acc_tiled<V: Lanes8, const CT: usize, const ONE: bool>(
    g: &ConvGeom,
    pad: usize,
    w: &[f32],
    dyp: &[f32],
    dx: &mut [f32],
    from: usize,
) -> usize {
    let until = from + (g.c_in - from) / CT * CT;
    if until == from {
        return from;
    }
    let (oh, ow, step, stride, ckk) = (g.oh(), g.ow(), g.dilation, g.stride, g.ckk());
    let (h, wd, khw) = (g.hp - 2 * pad, g.wp - 2 * pad, g.kh * g.kw);
    let (reach, owp) = (g.reach(), g.ow() + 2 * g.reach());
    // From one tap that reaches a pixel to the next: `apart` kernel
    // positions, `back` `dy` positions.
    let apart = stride / gcd(stride, step);
    let back = step * apart / stride;
    let weights = Walk {
        src: w,
        steps: [apart * g.kw, apart, ckk].map(|s| s as isize),
        lane: 0,
    };
    let grads = Walk {
        src: dyp,
        steps: [
            -((back * owp) as isize),
            -(back as isize),
            (oh * owp) as isize,
        ],
        lane: 1,
    };
    // The `dy` position of tap offset `shifted = position + pad − k·d`,
    // if the stride divides it (no division where there is nothing to
    // divide by).
    let on_stride = |shifted: isize| match stride as isize {
        1 => Some(shifted),
        stride => (shifted % stride == 0).then_some(shifted / stride),
    };
    // Per image row, its first kernel row whose `dy` row exists, exactly
    // — `0 ≤ (i + pad − ki·d) / stride < oh` — that `dy` row, and how
    // many kernel rows do.
    let rows: Vec<(usize, usize, usize)> = (0..h)
        .map(|i| {
            let row = |ki: usize| on_stride((i + pad) as isize - (ki * step) as isize);
            let mut live =
                (0..g.kh).filter(|&ki| row(ki).is_some_and(|r| r >= 0 && r < oh as isize));
            live.next().map_or((0, 0, 0), |ki| {
                let dy_row = row(ki).map_or(0, |r| r as usize);
                (ki, dy_row, 1 + live.count())
            })
        })
        .collect();
    let mut masks: Vec<f32> = Vec::with_capacity(g.kw * LANES);
    for phase in 0..stride {
        let pixels = wd.saturating_sub(phase).div_ceil(stride);
        for m0 in (0..pixels).step_by(LANES) {
            let (j0, jw) = (phase + m0 * stride, (pixels - m0).min(LANES));
            // Lane `l` of tap `kj` reads `dy` column `col + l`: the taps
            // with a lane in range are consecutive among those on the
            // stride.
            masks.clear();
            let mut first = None;
            for kj in 0..g.kw {
                let Some(col) = on_stride((j0 + pad) as isize - (kj * step) as isize) else {
                    continue;
                };
                let lanes = (-col).max(0)..(ow as isize - col).min(jw as isize);
                if !lanes.is_empty() {
                    first.get_or_insert((kj, col));
                    let bits = |l| f32::from_bits(if lanes.contains(&l) { u32::MAX } else { 0 });
                    masks.extend((0..LANES as isize).map(bits));
                }
            }
            let (kj_lo, col_lo) = first.unwrap_or((0, 0));
            let lane_masks = Walk {
                src: &masks,
                steps: [0, LANES as isize, 0],
                lane: 1,
            };
            for (i, &(ki_lo, dy_row, ki_count)) in rows.iter().enumerate() {
                let taps = [ki_count, masks.len() / LANES, g.c_out];
                let nest = Nest::<false>::new([weights, grads, lane_masks], taps);
                let dy_row = dy_row * owp + (reach as isize + col_lo) as usize;
                for ci0 in (from..until).step_by(CT) {
                    let w_rows: [usize; CT] =
                        std::array::from_fn(|c| (ci0 + c) * khw + ki_lo * g.kw + kj_lo);
                    let starts = (&w_rows, &[dy_row], &[0]);
                    let mut acc = [V::splat(0.0); CT];
                    if ONE {
                        V::run(
                            &nest,
                            starts,
                            taps.map(|count| 0..count),
                            |wv, [dv], [mask]| {
                                for c in 0..CT {
                                    acc[c] = acc[c].add(wv[c].mul(dv).and(mask));
                                }
                            },
                        );
                    } else {
                        let (mut chain, mut co) = ([V::splat(0.0); CT], 0);
                        V::run(
                            &nest,
                            starts,
                            taps.map(|count| 0..count),
                            |wv, [dv], [mask]| {
                                for c in 0..CT {
                                    chain[c] = chain[c].add(wv[c].mul(dv));
                                }
                                co += 1;
                                if co == g.c_out {
                                    for c in 0..CT {
                                        acc[c] = acc[c].add(chain[c].and(mask));
                                    }
                                    (chain, co) = ([V::splat(0.0); CT], 0);
                                }
                            },
                        );
                    }
                    for c in 0..CT {
                        let (at, sums) = (((ci0 + c) * h + i) * wd + j0, acc[c].to_array());
                        if stride == 1 {
                            for (out, sum) in dx[at..at + jw].iter_mut().zip(sums) {
                                *out += sum;
                            }
                        } else {
                            let pixels = dx[at..].iter_mut().step_by(stride);
                            for (out, sum) in pixels.zip(&sums[..jw]) {
                                *out += sum;
                            }
                        }
                    }
                }
            }
        }
    }
    until
}

/// Greatest common divisor.
fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Implicit-GEMM weight gradient for output widths that are not a
/// multiple of 8, where the lane of an output position depends on
/// its row: per tap, the `ohw` elements of its column row are
/// gathered once from the padded image into a row-sized buffer (a
/// row, never the matrix) and every channel of the run takes
/// `dot_lanes` against it. Both arms run this.
fn conv_dw_acc_rotating(g: &ConvGeom, xp: &[f32], dy: &[f32], dw: &mut [f32]) {
    let (ow, wp, ckk, stride) = (g.ow(), g.wp, g.ckk(), g.stride);
    let ohw = g.oh() * ow;
    let mut col_row = vec![0.0f32; ohw];
    for (p, (off, _)) in g.taps().enumerate() {
        for (oi, dst) in col_row.chunks_exact_mut(ow).enumerate() {
            let row = &xp[off + oi * stride * wp..];
            for (oj, v) in dst.iter_mut().enumerate() {
                *v = row[oj * stride];
            }
        }
        for (dy_co, dw_co) in dy.chunks_exact(ohw).zip(dw.chunks_exact_mut(ckk)) {
            dw_co[p] += dot_lanes(dy_co, &col_row);
        }
    }
}

/// 8-lane dot product: lane `i % 8` accumulates element `i` in ascending
/// order, reduced with [`reduce8`] — the weight gradient's summation tree
/// (rule 5) over one stored row, which both arms run where an output row
/// does not start at lane 0.
fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
    let mut lanes = [0.0f32; LANES];
    for (ca, cb) in a.chunks(LANES).zip(b.chunks(LANES)) {
        for (lane, (&x, &y)) in lanes.iter_mut().zip(ca.iter().zip(cb)) {
            *lane += x * y;
        }
    }
    reduce8(&lanes)
}
