//! 2-D convolution, transposed convolution, pooling and pixel-shuffle
//! kernels in NCHW layout, with exact backward passes.
//!
//! Every convolution — any stride, padding and dilation — runs as an
//! *implicit* GEMM and never builds a column matrix: the forward pass
//! ([`crate::simd::conv_fwd_skip_with`]) and the weight gradient
//! ([`crate::simd::DwBatch`]) read a per-thread zero-padded copy of one
//! image, and the input gradient
//! ([`crate::simd::conv_dx_acc_padded_with`]) gathers each pixel's taps
//! from a per-thread zero-padded copy of `dy` straight into `dx`. A
//! transposed convolution is the adjoint of the convolution with the
//! same weights, so it runs on the same three kernels with the operands
//! swapped: its forward pass is that convolution's input gradient, its
//! input gradient that convolution's forward pass, and its weight
//! gradient that convolution's, with the transposed input in the place
//! of `dy`. This module knows which part of a padded image is padding,
//! so it is also where [`crate::simd::skippable_rows`] decides — one
//! scan of the weights per call, of `dy` per item — whether the kernels
//! may leave the padding rows' products out. The bits are those of the
//! im2col lowering, which `tests/kernel_properties.rs` keeps as the
//! oracle.
//!
//! These are the primitives that the `rte-nn` layer types wrap with
//! parameter storage; they are exposed here as free functions so they can be
//! benchmarked and property-tested in isolation.

use std::cell::RefCell;

use crate::parallel::{self, Parallelism};
use crate::simd::{self, ConvGeom};
use crate::{Tensor, TensorError};

/// Minimum multiply-adds of one whole call — every batch item, every
/// channel — before it fans out to worker threads; below this the
/// kernels run inline (results are identical either way).
///
/// Opening and joining a two-worker [`parallel`] region that does
/// nothing measured 55–82 µs on the 2-core benchmark host (the
/// `parallel_region` row of `BENCH_kernels.json`), and two workers beat
/// one only once the call's serial time exceeds about twice that. The
/// AVX2 kernels sustain 20–40 GMAC/s on the model layers and the AVX-512
/// ones 30–40 on FLNet's (more on its forward pass), so 2²² multiply-adds
/// are 100–200 µs of serial work, near that break-even point. Measured
/// again with the gate removed, on the AVX-512 arm with FLNet's 9×9
/// layers at batch 1–4: two workers lost at 2²¹·⁹ multiply-adds (input
/// conv, batch 2) and won from 2²²·⁵ (batch 3) on, so the gate stays.
/// It used to compare *one item's* multiplies with 2¹⁶ — 2 µs of work
/// at those rates — so every convolution on the main thread paid a
/// region larger than itself.
const PAR_MIN_CALL_MACS: usize = 1 << 22;

std::thread_local! {
    /// Per-thread scratch — the padded image or padded `dy` of the
    /// kernels — reused across kernel *calls* (the training loop
    /// convolves thousands of times with identical geometry, so a
    /// per-call `Vec` is pure allocator churn).
    static SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on a thread-local scratch slice of exactly `len` elements.
///
/// Contents are unspecified on entry — every caller writes what it reads
/// (the padded images are zero-filled first, and the kernels clear the
/// scratch they are handed). Falls back to a fresh allocation if the
/// scratch is already borrowed (re-entrant kernels), so nesting degrades
/// instead of panicking.
fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut buf) => {
            if buf.len() < len {
                buf.resize(len, 0.0);
            }
            f(&mut buf[..len])
        }
        Err(_) => f(&mut vec![0.0f32; len]),
    })
}

/// Geometry of a 2-D convolution: stride, zero padding and dilation
/// (identical in both spatial dimensions, as used by all three paper
/// models).
///
/// # Example
///
/// ```
/// use rte_tensor::conv::Conv2dSpec;
///
/// // The paper's FLNet uses 9×9 kernels with "same" padding at stride 1.
/// let spec = Conv2dSpec::same(9);
/// assert_eq!(spec.out_extent(32, 9), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dSpec {
    /// Spatial stride (≥ 1).
    pub stride: usize,
    /// Symmetric zero padding.
    pub padding: usize,
    /// Kernel dilation (1 = dense kernel).
    pub dilation: usize,
}

impl Default for Conv2dSpec {
    fn default() -> Self {
        Conv2dSpec {
            stride: 1,
            padding: 0,
            dilation: 1,
        }
    }
}

impl Conv2dSpec {
    /// Stride-1, dilation-1 spec with the padding that preserves spatial
    /// size for an odd kernel (`padding = k / 2`).
    ///
    /// # Panics
    ///
    /// Panics on an even (or zero) kernel: `padding = k / 2` would *grow*
    /// the output by one position per axis instead of preserving it
    /// (`out = in + 2·(k/2) − k + 1 = in + 1` for even `k`), silently
    /// desynchronizing layer geometry downstream.
    pub fn same(kernel: usize) -> Self {
        assert!(
            kernel % 2 == 1,
            "Conv2dSpec::same requires an odd kernel (got {kernel}): \
             even kernels cannot preserve spatial extent symmetrically"
        );
        Conv2dSpec {
            stride: 1,
            padding: kernel / 2,
            dilation: 1,
        }
    }

    /// "Same"-size spec for a dilated odd kernel: the effective kernel is
    /// `d*(k-1)+1`, so padding `d*(k-1)/2` preserves the extent at stride 1.
    ///
    /// # Panics
    ///
    /// Panics on an even (or zero) kernel. For even `k` with odd `d` the
    /// required padding `d*(k-1)/2` is fractional, so flooring it shrinks
    /// the output (see [`Conv2dSpec::same`] for the mirror-image bug);
    /// even `k` with even `d` happens to preserve the extent but off-center
    /// — the kernel's reach is asymmetric around each output site. Both
    /// are rejected so "same" always means *centered* same-size.
    pub fn same_dilated(kernel: usize, dilation: usize) -> Self {
        assert!(
            kernel % 2 == 1,
            "Conv2dSpec::same_dilated requires an odd kernel (got {kernel}): \
             even kernels cannot preserve spatial extent symmetrically"
        );
        Conv2dSpec {
            stride: 1,
            padding: dilation * (kernel - 1) / 2,
            dilation,
        }
    }

    /// Effective kernel extent once dilation is applied.
    pub fn effective_kernel(&self, kernel: usize) -> usize {
        self.dilation * (kernel - 1) + 1
    }

    /// Output extent of a convolution over `input` positions with kernel
    /// size `kernel`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration yields no valid output positions.
    pub fn out_extent(&self, input: usize, kernel: usize) -> usize {
        let eff = self.effective_kernel(kernel);
        let padded = input + 2 * self.padding;
        assert!(
            padded >= eff,
            "conv output would be empty: input {input}, kernel {kernel}, spec {self:?}"
        );
        (padded - eff) / self.stride + 1
    }

    /// Output extent of a *transposed* convolution over `input` positions.
    pub fn transpose_out_extent(&self, input: usize, kernel: usize) -> usize {
        (input - 1) * self.stride + self.effective_kernel(kernel) - 2 * self.padding
    }
}

fn expect_rank4(t: &Tensor, what: &str) -> Result<(), TensorError> {
    if t.shape().rank() != 4 {
        return Err(TensorError::InvalidShape {
            reason: format!("{what} must be rank-4 (NCHW), got {}", t.shape()),
        });
    }
    Ok(())
}

/// Validated extents of one convolution call.
struct ConvDims {
    n: usize,
    c_in: usize,
    h: usize,
    w: usize,
    c_out: usize,
    kh: usize,
    kw: usize,
    oh: usize,
    ow: usize,
    spec: Conv2dSpec,
}

impl ConvDims {
    /// Checks ranks and that `x` and `w` agree on the input channels.
    fn new(x: &Tensor, w: &Tensor, spec: Conv2dSpec, what: &str) -> Result<Self, TensorError> {
        expect_rank4(x, "conv2d input")?;
        expect_rank4(w, "conv2d weight")?;
        let (n, c_in, h, w_in) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
        let (c_out, wc_in, kh, kw) = (w.dim(0), w.dim(1), w.dim(2), w.dim(3));
        if c_in != wc_in {
            return Err(TensorError::InvalidShape {
                reason: format!("{what}: input has {c_in} channels but weight expects {wc_in}"),
            });
        }
        Ok(ConvDims {
            n,
            c_in,
            h,
            w: w_in,
            c_out,
            kh,
            kw,
            oh: spec.out_extent(h, kh),
            ow: spec.out_extent(w_in, kw),
            spec,
        })
    }

    /// [`ConvDims::new`] plus the output gradient's shape.
    fn with_dy(x: &Tensor, w: &Tensor, dy: &Tensor, spec: Conv2dSpec) -> Result<Self, TensorError> {
        let d = ConvDims::new(x, w, spec, "conv2d_backward")?;
        expect_rank4(dy, "conv2d output grad")?;
        if dy.shape().dims() != [d.n, d.c_out, d.oh, d.ow] {
            return Err(TensorError::InvalidShape {
                reason: format!(
                    "conv2d_backward: dy shape {} != [{}, {}, {}, {}]",
                    dy.shape(),
                    d.n,
                    d.c_out,
                    d.oh,
                    d.ow
                ),
            });
        }
        Ok(d)
    }

    /// The convolution whose adjoint is the transposed convolution of `x`
    /// by `w`: `w`, laid out `(C_in, C_out, KH, KW)`, is that
    /// convolution's `(c_out, c_in, kh, kw)` weight, its input is shaped
    /// like the transposed output and its output like `x`.
    fn transposed(
        x: &Tensor,
        w: &Tensor,
        spec: Conv2dSpec,
        what: &str,
    ) -> Result<Self, TensorError> {
        expect_rank4(x, "conv_transpose2d input")?;
        expect_rank4(w, "conv_transpose2d weight")?;
        let (n, c_in, h, w_in) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
        let (wc_in, c_out, kh, kw) = (w.dim(0), w.dim(1), w.dim(2), w.dim(3));
        if c_in != wc_in {
            return Err(TensorError::InvalidShape {
                reason: format!("{what}: input has {c_in} channels but weight expects {wc_in}"),
            });
        }
        Ok(ConvDims {
            n,
            c_in: c_out,
            h: spec.transpose_out_extent(h, kh),
            w: spec.transpose_out_extent(w_in, kw),
            c_out: c_in,
            kh,
            kw,
            oh: h,
            ow: w_in,
            spec,
        })
    }

    /// Taps per output element (the GEMM's `k`).
    fn ckk(&self) -> usize {
        self.c_in * self.kh * self.kw
    }

    /// Output positions per channel.
    fn ohw(&self) -> usize {
        self.oh * self.ow
    }

    /// Elements of one input image.
    fn chw(&self) -> usize {
        self.c_in * self.h * self.w
    }

    /// The implicit kernels' geometry.
    fn geom(&self) -> ConvGeom {
        let g = ConvGeom {
            c_in: self.c_in,
            c_out: self.c_out,
            hp: self.h + 2 * self.spec.padding,
            wp: self.w + 2 * self.spec.padding,
            kh: self.kh,
            kw: self.kw,
            stride: self.spec.stride,
            dilation: self.spec.dilation,
        };
        debug_assert_eq!((g.oh(), g.ow()), (self.oh, self.ow));
        g
    }

    /// `par`, degraded to serial when the whole call is too small to pay
    /// for a parallel region.
    fn parallelism(&self, par: Parallelism) -> Parallelism {
        if self.n * self.c_out * self.ckk() * self.ohw() < PAR_MIN_CALL_MACS {
            Parallelism::serial()
        } else {
            par
        }
    }

    /// Offset of row `i` of channel `ci` inside the padded image.
    fn padded_row(&self, ci: usize, i: usize) -> usize {
        let p = self.spec.padding;
        ((ci * (self.h + 2 * p) + i + p) * (self.w + 2 * p)) + p
    }

    /// Zeroes the padded image `xp` and writes image `x_n` into its centre.
    fn pad(&self, x_n: &[f32], xp: &mut [f32]) {
        xp.iter_mut().for_each(|v| *v = 0.0);
        for ci in 0..self.c_in {
            for i in 0..self.h {
                let (src, dst) = ((ci * self.h + i) * self.w, self.padded_row(ci, i));
                xp[dst..dst + self.w].copy_from_slice(&x_n[src..src + self.w]);
            }
        }
    }
}

/// 2-D convolution forward pass with the process-global [`Parallelism`]
/// (see [`crate::parallel::set_global`]); equivalent to [`conv2d_with`].
///
/// * `x`: input `(N, C_in, H, W)`
/// * `w`: kernels `(C_out, C_in, KH, KW)`
/// * `bias`: optional `(C_out)` bias
///
/// Returns `(N, C_out, OH, OW)`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidShape`] when ranks or channel counts are
/// inconsistent.
pub fn conv2d(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
) -> Result<Tensor, TensorError> {
    conv2d_with(x, w, bias, spec, parallel::global())
}

/// [`conv2d`] with an explicit thread budget: batch items fan out to
/// worker threads, each with its own scratch buffer. Results are
/// bit-identical for every `par` (each item's arithmetic is independent
/// and written to a disjoint output slice).
///
/// # Errors
///
/// Returns [`TensorError::InvalidShape`] when ranks or channel counts are
/// inconsistent.
pub fn conv2d_with(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
    par: Parallelism,
) -> Result<Tensor, TensorError> {
    let d = ConvDims::new(x, w, spec, "conv2d")?;
    check_bias(bias, d.c_out, "conv2d")?;
    Ok(forward(&d, x.data(), w.data(), bias.map(Tensor::data), par))
}

/// Refuses a bias that is not one value per output channel.
fn check_bias(bias: Option<&Tensor>, channels: usize, what: &str) -> Result<(), TensorError> {
    match bias {
        Some(b) if b.shape().dims() != [channels] => Err(TensorError::InvalidShape {
            reason: format!("{what}: bias shape {} != [{channels}]", b.shape()),
        }),
        _ => Ok(()),
    }
}

/// Adds `bias[c]` to every element of channel `c` of `y`, whose channel
/// planes are `plane` long (one image or a batch of them).
fn add_bias(y: &mut [f32], bias: &[f32], plane: usize) {
    for (y_c, &b) in y.chunks_exact_mut(plane).zip(bias.iter().cycle()) {
        y_c.iter_mut().for_each(|v| *v += b);
    }
}

/// Gradients of [`conv2d`] with respect to input, weight and bias.
#[derive(Debug, Clone)]
pub struct Conv2dGrads {
    /// Gradient w.r.t. the input, shaped like `x`.
    pub dx: Tensor,
    /// Gradient w.r.t. the weight, shaped like `w`.
    pub dw: Tensor,
    /// Gradient w.r.t. the bias, shape `(C_out)`.
    pub db: Tensor,
}

/// Gradients of [`conv2d`] with respect to its parameters only — what a
/// network's first layer needs, since nothing reads its input gradient.
#[derive(Debug, Clone)]
pub struct Conv2dParamGrads {
    /// Gradient w.r.t. the weight, shaped like `w`.
    pub dw: Tensor,
    /// Gradient w.r.t. the bias, shape `(C_out)`.
    pub db: Tensor,
}

/// 2-D convolution backward pass with the process-global [`Parallelism`];
/// equivalent to [`conv2d_backward_with`].
///
/// `dy` must be shaped `(N, C_out, OH, OW)` as produced by [`conv2d`] on
/// `x`/`w` with the same `spec`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidShape`] when shapes are inconsistent.
pub fn conv2d_backward(
    x: &Tensor,
    w: &Tensor,
    dy: &Tensor,
    spec: Conv2dSpec,
) -> Result<Conv2dGrads, TensorError> {
    conv2d_backward_with(x, w, dy, spec, parallel::global())
}

/// [`conv2d_backward`] with an explicit thread budget.
///
/// `dx` fans out over batch items (disjoint slices). The batch-summed
/// `dw` fans out over output channels, each worker adding every item's
/// exact contribution in batch order, and `db` is summed on the caller's
/// thread, so the summation tree is fixed and the gradients are
/// bit-identical for every `par` (including serial).
///
/// # Errors
///
/// Returns [`TensorError::InvalidShape`] when shapes are inconsistent.
pub fn conv2d_backward_with(
    x: &Tensor,
    w: &Tensor,
    dy: &Tensor,
    spec: Conv2dSpec,
    par: Parallelism,
) -> Result<Conv2dGrads, TensorError> {
    let d = ConvDims::with_dy(x, w, dy, spec)?;
    Ok(Conv2dGrads {
        dx: input_grad(&d, w.data(), dy.data(), par),
        dw: weight_grad(&d, x.data(), dy.data(), par),
        db: bias_grad(dy.data(), d.c_out, d.ohw()),
    })
}

/// The `dw`/`db` half of [`conv2d_backward`] with the process-global
/// [`Parallelism`]: bit-identical parameter gradients, no input gradient
/// computed.
///
/// # Errors
///
/// Returns [`TensorError::InvalidShape`] when shapes are inconsistent.
pub fn conv2d_backward_params(
    x: &Tensor,
    w: &Tensor,
    dy: &Tensor,
    spec: Conv2dSpec,
) -> Result<Conv2dParamGrads, TensorError> {
    conv2d_backward_params_with(x, w, dy, spec, parallel::global())
}

/// [`conv2d_backward_params`] with an explicit thread budget.
///
/// # Errors
///
/// Returns [`TensorError::InvalidShape`] when shapes are inconsistent.
pub fn conv2d_backward_params_with(
    x: &Tensor,
    w: &Tensor,
    dy: &Tensor,
    spec: Conv2dSpec,
    par: Parallelism,
) -> Result<Conv2dParamGrads, TensorError> {
    let d = ConvDims::with_dy(x, w, dy, spec)?;
    Ok(Conv2dParamGrads {
        dw: weight_grad(&d, x.data(), dy.data(), par),
        db: bias_grad(dy.data(), d.c_out, d.ohw()),
    })
}

/// The convolution of every image of `x` by `w`, plus `bias`: one
/// disjoint slice of the output per batch item.
fn forward(d: &ConvDims, x: &[f32], w: &[f32], bias: Option<&[f32]>, par: Parallelism) -> Tensor {
    let ohw = d.ohw();
    let mut y = Tensor::zeros(&[d.n, d.c_out, d.oh, d.ow]);
    if d.n == 0 || d.c_out == 0 {
        return y;
    }
    let (g, arm) = (d.geom(), simd::global());
    let skip = simd::skippable_rows(d.spec.padding, w);
    parallel::for_each_chunk_mut(
        d.parallelism(par),
        y.data_mut(),
        d.c_out * ohw,
        |ni, y_n| {
            let x_n = &x[ni * d.chw()..(ni + 1) * d.chw()];
            with_scratch(g.padded_len(), |xp| {
                d.pad(x_n, xp);
                simd::conv_fwd_skip_with(arm, &g, skip, xp, w, y_n);
            });
            if let Some(b) = bias {
                add_bias(y_n, b, ohw);
            }
        },
    );
    y
}

/// Input gradient, one disjoint slice per batch item, which the kernel
/// gathers into (zeroed) itself.
fn input_grad(d: &ConvDims, w: &[f32], dy: &[f32], par: Parallelism) -> Tensor {
    let ohw = d.ohw();
    let mut dx = Tensor::zeros(&[d.n, d.c_in, d.h, d.w]);
    // A zero-channel input (dx has no elements) trivially has no input
    // gradient to compute.
    if d.n == 0 || d.c_out == 0 || d.chw() == 0 {
        return dx;
    }
    let (g, arm) = (d.geom(), simd::global());
    parallel::for_each_chunk_mut(d.parallelism(par), dx.data_mut(), d.chw(), |ni, dx_n| {
        let dy_n = &dy[ni * d.c_out * ohw..(ni + 1) * d.c_out * ohw];
        with_scratch(g.dy_padded_len(), |dyp| {
            simd::conv_dx_acc_padded_with(arm, &g, d.spec.padding, w, dy_n, dyp, dx_n);
        });
    });
    dx
}

/// Weight gradient, summed over the batch in batch order. Output
/// channels are independent, so each worker owns an equal group of them
/// and adds every item's contribution straight into its slice of `dw`,
/// in batch order: no per-item partials, nothing to reduce, and the
/// serial schedule is the one-group case of the same loop.
fn weight_grad(d: &ConvDims, x: &[f32], dy: &[f32], par: Parallelism) -> Tensor {
    let (n, c_out, ckk, ohw) = (d.n, d.c_out, d.ckk(), d.ohw());
    let mut dw = Tensor::zeros(&[c_out, d.c_in, d.kh, d.kw]);
    if n == 0 || c_out == 0 || ckk == 0 {
        return dw;
    }
    let par = d.parallelism(par);
    let (g, arm) = (d.geom(), simd::global());
    let groups = (1..=par.workers_for(c_out))
        .rev()
        .find(|k| c_out % k == 0)
        .unwrap_or(1);
    let per_group = c_out / groups;
    parallel::for_each_chunk_mut(par, dw.data_mut(), per_group * ckk, |group, dw_g| {
        let channels = group * per_group * ohw..(group + 1) * per_group * ohw;
        let scratch = g.padded_len() + g.dw_scratch_len(arm, per_group);
        with_scratch(scratch, |scratch| {
            let (xp, rest) = scratch.split_at_mut(g.padded_len());
            let mut batch = simd::DwBatch::new(arm, &g, dw_g, rest);
            for ni in 0..n {
                d.pad(&x[ni * d.chw()..(ni + 1) * d.chw()], xp);
                let dy_g = &dy[ni * c_out * ohw..][channels.clone()];
                let skip = simd::skippable_rows(d.spec.padding, dy_g);
                batch.add(skip, xp, dy_g);
            }
            batch.finish();
        });
    });
    dw
}

/// Bias gradient: each channel's `plane`-long gradients summed per item
/// and added up in batch order.
fn bias_grad(dy: &[f32], channels: usize, plane: usize) -> Tensor {
    let mut db = Tensor::zeros(&[channels]);
    if channels * plane == 0 {
        return db;
    }
    for dy_n in dy.chunks_exact(channels * plane) {
        for (acc, dy_c) in db.data_mut().iter_mut().zip(dy_n.chunks_exact(plane)) {
            *acc += simd::sum(dy_c);
        }
    }
    db
}

/// Transposed 2-D convolution (a.k.a. deconvolution) forward pass: the
/// input gradient of the convolution by the same weights, gathered into
/// each output pixel, plus `bias`.
///
/// * `x`: input `(N, C_in, H, W)`
/// * `w`: kernels `(C_in, C_out, KH, KW)` (PyTorch `ConvTranspose2d` layout)
/// * `bias`: optional `(C_out)`
///
/// Returns `(N, C_out, OH, OW)` with
/// `OH = (H-1)*stride + dilation*(KH-1) + 1 - 2*padding`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidShape`] when shapes are inconsistent.
pub fn conv_transpose2d(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
) -> Result<Tensor, TensorError> {
    let d = ConvDims::transposed(x, w, spec, "conv_transpose2d")?;
    check_bias(bias, d.c_in, "conv_transpose2d")?;
    let mut y = input_grad(&d, w.data(), x.data(), parallel::global());
    if let Some(b) = bias {
        add_bias(y.data_mut(), b.data(), d.h * d.w);
    }
    Ok(y)
}

/// Transposed-convolution backward pass; field meanings mirror
/// [`Conv2dGrads`] with `dw` shaped `(C_in, C_out, KH, KW)`. The input
/// gradient is the forward pass of the convolution by the same weights
/// over `dy`, and the weight gradient that convolution's, with `x` as
/// its output gradient.
///
/// # Errors
///
/// Returns [`TensorError::InvalidShape`] when shapes are inconsistent.
pub fn conv_transpose2d_backward(
    x: &Tensor,
    w: &Tensor,
    dy: &Tensor,
    spec: Conv2dSpec,
) -> Result<Conv2dGrads, TensorError> {
    let d = ConvDims::transposed(x, w, spec, "conv_transpose2d_backward")?;
    expect_rank4(dy, "conv_transpose2d output grad")?;
    if dy.shape().dims() != [d.n, d.c_in, d.h, d.w] {
        return Err(TensorError::InvalidShape {
            reason: format!(
                "conv_transpose2d_backward: dy shape {} != [{}, {}, {}, {}]",
                dy.shape(),
                d.n,
                d.c_in,
                d.h,
                d.w
            ),
        });
    }
    let par = parallel::global();
    Ok(Conv2dGrads {
        dx: forward(&d, dy.data(), w.data(), None, par),
        dw: weight_grad(&d, dy.data(), x.data(), par),
        db: bias_grad(dy.data(), d.c_in, d.h * d.w),
    })
}

/// Output of [`max_pool2d`]: pooled tensor plus flat argmax indices used by
/// [`max_pool2d_backward`].
#[derive(Debug, Clone)]
pub struct MaxPoolOutput {
    /// Pooled tensor `(N, C, OH, OW)`.
    pub y: Tensor,
    /// For each pooled element, the flat `h*W + w` offset (within its
    /// `(n, c)` image) of the selected maximum.
    pub argmax: Vec<u32>,
}

/// Max pooling with square window `kernel` and stride `stride`, no padding.
///
/// # Errors
///
/// Returns [`TensorError::InvalidShape`] if `x` is not rank-4 or smaller
/// than the window.
pub fn max_pool2d(x: &Tensor, kernel: usize, stride: usize) -> Result<MaxPoolOutput, TensorError> {
    expect_rank4(x, "max_pool2d input")?;
    let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
    if h < kernel || w < kernel {
        return Err(TensorError::InvalidShape {
            reason: format!("max_pool2d: input {h}×{w} smaller than window {kernel}"),
        });
    }
    let oh = (h - kernel) / stride + 1;
    let ow = (w - kernel) / stride + 1;
    let mut y = Tensor::zeros(&[n, c, oh, ow]);
    let mut argmax = vec![0u32; n * c * oh * ow];
    let x_data = x.data();
    let y_data = y.data_mut();
    for nc in 0..n * c {
        let img = &x_data[nc * h * w..(nc + 1) * h * w];
        let out = &mut y_data[nc * oh * ow..(nc + 1) * oh * ow];
        let arg = &mut argmax[nc * oh * ow..(nc + 1) * oh * ow];
        for oi in 0..oh {
            for oj in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = 0u32;
                for ki in 0..kernel {
                    for kj in 0..kernel {
                        let ii = oi * stride + ki;
                        let jj = oj * stride + kj;
                        let v = img[ii * w + jj];
                        if v > best {
                            best = v;
                            best_idx = (ii * w + jj) as u32;
                        }
                    }
                }
                out[oi * ow + oj] = best;
                arg[oi * ow + oj] = best_idx;
            }
        }
    }
    Ok(MaxPoolOutput { y, argmax })
}

/// Backward pass of [`max_pool2d`]: routes each output gradient to the
/// input location that won the max.
///
/// # Errors
///
/// Returns [`TensorError::InvalidShape`] if `input_dims` is not rank-4 or
/// is inconsistent with the pooled geometry (batch/channel mismatch,
/// pooled extent larger than the input, argmax length or indices out of
/// range), and [`TensorError::ShapeMismatch`] if `dy` does not match the
/// pooled shape. Without these checks a short or wrong `input_dims` slice
/// would panic out of bounds or silently scatter gradients into the wrong
/// locations.
pub fn max_pool2d_backward(
    input_dims: &[usize],
    pooled: &MaxPoolOutput,
    dy: &Tensor,
) -> Result<Tensor, TensorError> {
    if dy.shape() != pooled.y.shape() {
        return Err(TensorError::ShapeMismatch {
            left: dy.shape().clone(),
            right: pooled.y.shape().clone(),
        });
    }
    if input_dims.len() != 4 {
        return Err(TensorError::InvalidShape {
            reason: format!(
                "max_pool2d_backward: input dims must be rank-4 (NCHW), got {input_dims:?}"
            ),
        });
    }
    let (n, c, h, w) = (input_dims[0], input_dims[1], input_dims[2], input_dims[3]);
    let (oh, ow) = (pooled.y.dim(2), pooled.y.dim(3));
    if pooled.y.dim(0) != n || pooled.y.dim(1) != c || oh > h || ow > w {
        return Err(TensorError::InvalidShape {
            reason: format!(
                "max_pool2d_backward: input dims {input_dims:?} inconsistent with pooled shape {}",
                pooled.y.shape()
            ),
        });
    }
    if pooled.argmax.len() != n * c * oh * ow {
        return Err(TensorError::InvalidShape {
            reason: format!(
                "max_pool2d_backward: argmax has {} entries, pooled geometry needs {}",
                pooled.argmax.len(),
                n * c * oh * ow
            ),
        });
    }
    if let Some(&bad) = pooled.argmax.iter().find(|&&idx| idx as usize >= h * w) {
        return Err(TensorError::InvalidShape {
            reason: format!(
                "max_pool2d_backward: argmax index {bad} outside the {h}×{w} input plane"
            ),
        });
    }
    let mut dx = Tensor::zeros(&[n, c, h, w]);
    let dx_data = dx.data_mut();
    let dy_data = dy.data();
    for nc in 0..n * c {
        let g_in = &mut dx_data[nc * h * w..(nc + 1) * h * w];
        let g_out = &dy_data[nc * oh * ow..(nc + 1) * oh * ow];
        let arg = &pooled.argmax[nc * oh * ow..(nc + 1) * oh * ow];
        for (&g, &idx) in g_out.iter().zip(arg.iter()) {
            g_in[idx as usize] += g;
        }
    }
    Ok(dx)
}

/// Pixel shuffle (sub-pixel upsampling, depth-to-space): rearranges
/// `(N, C*r², H, W)` into `(N, C, H*r, W*r)` as used by the PROS model's
/// upsampling blocks.
///
/// # Errors
///
/// Returns [`TensorError::InvalidShape`] if the channel count is not a
/// multiple of `r²`.
pub fn pixel_shuffle(x: &Tensor, r: usize) -> Result<Tensor, TensorError> {
    expect_rank4(x, "pixel_shuffle input")?;
    let (n, c_in, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
    if r == 0 || c_in % (r * r) != 0 {
        return Err(TensorError::InvalidShape {
            reason: format!(
                "pixel_shuffle: {c_in} channels not divisible by r²={}",
                r * r
            ),
        });
    }
    let c_out = c_in / (r * r);
    let mut y = Tensor::zeros(&[n, c_out, h * r, w * r]);
    let x_data = x.data();
    let y_data = y.data_mut();
    let (ohw, ih_w) = ((h * r) * (w * r), h * w);
    for ni in 0..n {
        for co in 0..c_out {
            for di in 0..r {
                for dj in 0..r {
                    let ci = co * r * r + di * r + dj;
                    let src = &x_data[(ni * c_in + ci) * ih_w..(ni * c_in + ci + 1) * ih_w];
                    let dst = &mut y_data[(ni * c_out + co) * ohw..(ni * c_out + co + 1) * ohw];
                    for i in 0..h {
                        for j in 0..w {
                            dst[(i * r + di) * (w * r) + (j * r + dj)] = src[i * w + j];
                        }
                    }
                }
            }
        }
    }
    Ok(y)
}

/// Inverse of [`pixel_shuffle`] (space-to-depth); also its exact backward
/// pass since pixel shuffle is a permutation.
///
/// # Errors
///
/// Returns [`TensorError::InvalidShape`] if spatial extents are not
/// multiples of `r`.
pub fn pixel_unshuffle(y: &Tensor, r: usize) -> Result<Tensor, TensorError> {
    expect_rank4(y, "pixel_unshuffle input")?;
    let (n, c_out, oh, ow) = (y.dim(0), y.dim(1), y.dim(2), y.dim(3));
    if r == 0 || oh % r != 0 || ow % r != 0 {
        return Err(TensorError::InvalidShape {
            reason: format!("pixel_unshuffle: {oh}×{ow} not divisible by r={r}"),
        });
    }
    let (h, w) = (oh / r, ow / r);
    let c_in = c_out * r * r;
    let mut x = Tensor::zeros(&[n, c_in, h, w]);
    let y_data = y.data();
    let x_data = x.data_mut();
    let (ohw, ih_w) = (oh * ow, h * w);
    for ni in 0..n {
        for co in 0..c_out {
            for di in 0..r {
                for dj in 0..r {
                    let ci = co * r * r + di * r + dj;
                    let src = &y_data[(ni * c_out + co) * ohw..(ni * c_out + co + 1) * ohw];
                    let dst = &mut x_data[(ni * c_in + ci) * ih_w..(ni * c_in + ci + 1) * ih_w];
                    for i in 0..h {
                        for j in 0..w {
                            dst[i * w + j] = src[(i * r + di) * ow + (j * r + dj)];
                        }
                    }
                }
            }
        }
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    fn rand_tensor(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = Xoshiro256::seed_from(seed);
        Tensor::from_fn(dims, |_| rng.normal())
    }

    #[test]
    fn out_extent_formulas() {
        let same9 = Conv2dSpec::same(9);
        assert_eq!(same9.padding, 4);
        assert_eq!(same9.out_extent(24, 9), 24);
        let strided = Conv2dSpec {
            stride: 2,
            padding: 1,
            dilation: 1,
        };
        assert_eq!(strided.out_extent(8, 3), 4);
        let dil = Conv2dSpec::same_dilated(3, 2);
        assert_eq!(dil.padding, 2);
        assert_eq!(dil.out_extent(10, 3), 10);
        assert_eq!(dil.effective_kernel(3), 5);
    }

    #[test]
    fn transpose_extent_inverts_conv_extent() {
        let spec = Conv2dSpec {
            stride: 2,
            padding: 1,
            dilation: 1,
        };
        // conv: 8 -> 4; transpose must map 4 -> back to something conv maps to 4.
        let up = spec.transpose_out_extent(4, 3);
        assert_eq!(spec.out_extent(up, 3), 4);
    }

    #[test]
    fn conv2d_identity_kernel() {
        // 1×1 kernel with unit weight reproduces the input.
        let x = rand_tensor(&[2, 3, 5, 5], 1);
        let mut w = Tensor::zeros(&[3, 3, 1, 1]);
        for c in 0..3 {
            w.set(&[c, c, 0, 0], 1.0);
        }
        let y = conv2d(&x, &w, None, Conv2dSpec::default()).unwrap();
        assert_eq!(y.shape(), x.shape());
        for (a, b) in x.data().iter().zip(y.data().iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn conv2d_known_values() {
        // 1×1×3×3 input, 3×3 sum kernel, valid padding → scalar sum.
        let x = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 1, 3, 3]).unwrap();
        let w = Tensor::ones(&[1, 1, 3, 3]);
        let y = conv2d(&x, &w, None, Conv2dSpec::default()).unwrap();
        assert_eq!(y.shape().dims(), &[1, 1, 1, 1]);
        assert_eq!(y.data()[0], 45.0);
    }

    #[test]
    fn conv2d_bias_added_per_channel() {
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let w = Tensor::zeros(&[2, 1, 1, 1]);
        let b = Tensor::from_vec(vec![1.5, -2.0], &[2]).unwrap();
        let y = conv2d(&x, &w, Some(&b), Conv2dSpec::default()).unwrap();
        assert!(y.data()[..4].iter().all(|&v| v == 1.5));
        assert!(y.data()[4..].iter().all(|&v| v == -2.0));
    }

    #[test]
    fn conv2d_rejects_channel_mismatch() {
        let x = Tensor::zeros(&[1, 2, 4, 4]);
        let w = Tensor::zeros(&[1, 3, 3, 3]);
        assert!(conv2d(&x, &w, None, Conv2dSpec::same(3)).is_err());
    }

    /// Finite-difference gradient check for a scalar loss L = Σ y∘g.
    fn check_conv2d_grads(spec: Conv2dSpec, xd: &[usize], wd: &[usize]) {
        let x = rand_tensor(xd, 11);
        let w = rand_tensor(wd, 12).scale(0.5);
        let b = rand_tensor(&[wd[0]], 13);
        let y = conv2d(&x, &w, Some(&b), spec).unwrap();
        let g = rand_tensor(y.shape().dims(), 14);
        let grads = conv2d_backward(&x, &w, &g, spec).unwrap();
        let eps = 1e-2f32;
        let loss = |x: &Tensor, w: &Tensor, b: &Tensor| -> f64 {
            let y = conv2d(x, w, Some(b), spec).unwrap();
            y.data()
                .iter()
                .zip(g.data().iter())
                .map(|(&a, &b)| a as f64 * b as f64)
                .sum()
        };
        // Check a scattering of coordinates in each gradient.
        for (analytic, param, which) in [
            (&grads.dx, &x, "dx"),
            (&grads.dw, &w, "dw"),
            (&grads.db, &b, "db"),
        ] {
            let stride = (param.numel() / 7).max(1);
            for i in (0..param.numel()).step_by(stride) {
                let mut plus = param.clone();
                plus.data_mut()[i] += eps;
                let mut minus = param.clone();
                minus.data_mut()[i] -= eps;
                let (lp, lm) = match which {
                    "dx" => (loss(&plus, &w, &b), loss(&minus, &w, &b)),
                    "dw" => (loss(&x, &plus, &b), loss(&x, &minus, &b)),
                    _ => (loss(&x, &w, &plus), loss(&x, &w, &minus)),
                };
                let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
                let got = analytic.data()[i];
                assert!(
                    (numeric - got).abs() < 2e-2 * (1.0 + numeric.abs().max(got.abs())),
                    "{which}[{i}]: numeric {numeric} vs analytic {got}"
                );
            }
        }
    }

    #[test]
    fn conv2d_gradients_match_finite_differences() {
        check_conv2d_grads(Conv2dSpec::same(3), &[2, 2, 5, 5], &[3, 2, 3, 3]);
    }

    #[test]
    fn conv2d_strided_dilated_gradients() {
        let spec = Conv2dSpec {
            stride: 2,
            padding: 2,
            dilation: 2,
        };
        check_conv2d_grads(spec, &[1, 2, 7, 7], &[2, 2, 3, 3]);
    }

    #[test]
    fn conv_transpose_matches_conv_adjoint() {
        // <conv(x), y> must equal <x, conv_transpose(y)> when the transpose
        // uses the same weights with swapped channel axes.
        let spec = Conv2dSpec {
            stride: 2,
            padding: 1,
            dilation: 1,
        };
        // Size chosen so (h + 2p - k) % s == 0, making the conv geometry
        // exactly invertible (otherwise PyTorch would need output_padding).
        let x = rand_tensor(&[1, 2, 5, 5], 21);
        let w = rand_tensor(&[3, 2, 3, 3], 22); // conv weight (Cout=3, Cin=2)
        let y = conv2d(&x, &w, None, spec).unwrap();
        let z = rand_tensor(y.shape().dims(), 23);
        // Build the transpose weight (Cin=3 → Cout=2) by permuting axes.
        let mut wt = Tensor::zeros(&[3, 2, 3, 3]);
        for co in 0..3 {
            for ci in 0..2 {
                for a in 0..3 {
                    for b in 0..3 {
                        wt.set(&[co, ci, a, b], w.at(&[co, ci, a, b]));
                    }
                }
            }
        }
        let xt = conv_transpose2d(&z, &wt, None, spec).unwrap();
        assert_eq!(xt.shape(), x.shape());
        let lhs: f64 = y
            .data()
            .iter()
            .zip(z.data().iter())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        let rhs: f64 = x
            .data()
            .iter()
            .zip(xt.data().iter())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        assert!(
            (lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn conv_transpose_upsamples() {
        let spec = Conv2dSpec {
            stride: 2,
            padding: 0,
            dilation: 1,
        };
        let x = rand_tensor(&[1, 4, 5, 5], 31);
        let w = rand_tensor(&[4, 2, 2, 2], 32);
        let y = conv_transpose2d(&x, &w, None, spec).unwrap();
        assert_eq!(y.shape().dims(), &[1, 2, 10, 10]);
    }

    #[test]
    fn conv_transpose_gradients_match_finite_differences() {
        let spec = Conv2dSpec {
            stride: 2,
            padding: 1,
            dilation: 1,
        };
        let x = rand_tensor(&[1, 3, 4, 4], 41);
        let w = rand_tensor(&[3, 2, 3, 3], 42).scale(0.5);
        let y = conv_transpose2d(&x, &w, None, spec).unwrap();
        let g = rand_tensor(y.shape().dims(), 43);
        let grads = conv_transpose2d_backward(&x, &w, &g, spec).unwrap();
        let eps = 1e-2f32;
        let loss = |x: &Tensor, w: &Tensor| -> f64 {
            let y = conv_transpose2d(x, w, None, spec).unwrap();
            y.data()
                .iter()
                .zip(g.data().iter())
                .map(|(&a, &b)| a as f64 * b as f64)
                .sum()
        };
        for i in (0..x.numel()).step_by(x.numel() / 6) {
            let mut p = x.clone();
            p.data_mut()[i] += eps;
            let mut m = x.clone();
            m.data_mut()[i] -= eps;
            let numeric = ((loss(&p, &w) - loss(&m, &w)) / (2.0 * eps as f64)) as f32;
            let got = grads.dx.data()[i];
            assert!(
                (numeric - got).abs() < 2e-2 * (1.0 + numeric.abs()),
                "dx[{i}]"
            );
        }
        for i in (0..w.numel()).step_by(w.numel() / 6) {
            let mut p = w.clone();
            p.data_mut()[i] += eps;
            let mut m = w.clone();
            m.data_mut()[i] -= eps;
            let numeric = ((loss(&x, &p) - loss(&x, &m)) / (2.0 * eps as f64)) as f32;
            let got = grads.dw.data()[i];
            assert!(
                (numeric - got).abs() < 2e-2 * (1.0 + numeric.abs()),
                "dw[{i}]"
            );
        }
    }

    #[test]
    fn max_pool_forward_and_backward() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 4.0, //
                3.0, 0.0, 1.0, 2.0, //
                7.0, 1.0, 0.0, 1.0, //
                2.0, 8.0, 3.0, 4.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let out = max_pool2d(&x, 2, 2).unwrap();
        assert_eq!(out.y.data(), &[3.0, 5.0, 8.0, 4.0]);
        let dy = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let dx = max_pool2d_backward(&[1, 1, 4, 4], &out, &dy).unwrap();
        assert_eq!(dx.at(&[0, 0, 1, 0]), 1.0); // 3.0 won
        assert_eq!(dx.at(&[0, 0, 0, 2]), 2.0); // 5.0 won
        assert_eq!(dx.at(&[0, 0, 3, 1]), 3.0); // 8.0 won
        assert_eq!(dx.at(&[0, 0, 3, 3]), 4.0); // 4.0 won
        assert_eq!(dx.sum(), 10.0);
    }

    #[test]
    fn pixel_shuffle_round_trip() {
        let x = rand_tensor(&[2, 8, 3, 3], 51);
        let y = pixel_shuffle(&x, 2).unwrap();
        assert_eq!(y.shape().dims(), &[2, 2, 6, 6]);
        let back = pixel_unshuffle(&y, 2).unwrap();
        assert_eq!(back, x);
    }

    #[test]
    fn pixel_shuffle_layout() {
        // One output 2×2 block comes from the r² channels at one spatial site.
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4, 1, 1]).unwrap();
        let y = pixel_shuffle(&x, 2).unwrap();
        assert_eq!(y.data(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
    }

    #[test]
    fn pixel_shuffle_rejects_bad_channels() {
        let x = Tensor::zeros(&[1, 3, 2, 2]);
        assert!(pixel_shuffle(&x, 2).is_err());
    }

    /// Regression: a kernel column that lies *entirely* in padding
    /// (no output position reads the image through it, e.g. w=1 with
    /// kw=6, padding=3) must contribute nothing, not a wrapped negative
    /// index — forward and backward, strided and not.
    #[test]
    fn fully_padded_kernel_columns_are_zero() {
        for (h, w, kh, kw, stride, padding, dilation) in [
            (1usize, 1usize, 6usize, 6usize, 1usize, 3usize, 1usize),
            (4, 1, 3, 6, 1, 3, 1),
            (1, 2, 5, 7, 2, 4, 1),
            (3, 1, 3, 5, 1, 4, 2),
        ] {
            let spec = Conv2dSpec {
                stride,
                padding,
                dilation,
            };
            let c = 2;
            let xb = rand_tensor(&[1, c, h, w], 98);
            let wt = rand_tensor(&[1, c, kh, kw], 99);
            let y = conv2d(&xb, &wt, None, spec).unwrap();
            assert!(y.data().iter().all(|v| v.is_finite()));
            let grads = conv2d_backward(&xb, &wt, &y, spec).unwrap();
            assert!(grads.dx.data().iter().all(|v| v.is_finite()));
            assert!(grads.dw.data().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    #[should_panic(expected = "odd kernel")]
    fn same_rejects_even_kernel() {
        // Regression: padding = k/2 for even k grows the extent by one
        // (e.g. k=4: 10 + 2·2 − 4 + 1 = 11), so "same" must refuse it.
        let _ = Conv2dSpec::same(4);
    }

    #[test]
    #[should_panic(expected = "odd kernel")]
    fn same_dilated_rejects_even_kernel() {
        let _ = Conv2dSpec::same_dilated(2, 3);
    }

    #[test]
    fn odd_same_specs_preserve_extent() {
        for k in [1, 3, 5, 7, 9] {
            assert_eq!(Conv2dSpec::same(k).out_extent(17, k), 17, "kernel {k}");
        }
        for d in [1, 2, 3] {
            assert_eq!(
                Conv2dSpec::same_dilated(3, d).out_extent(17, 3),
                17,
                "dilation {d}"
            );
        }
    }

    #[test]
    fn max_pool_backward_rejects_bad_input_dims() {
        let x = rand_tensor(&[1, 2, 4, 4], 71);
        let out = max_pool2d(&x, 2, 2).unwrap();
        let dy = Tensor::ones(&[1, 2, 2, 2]);
        // Short slice (rank ≠ 4).
        assert!(matches!(
            max_pool2d_backward(&[1, 2, 4], &out, &dy),
            Err(TensorError::InvalidShape { .. })
        ));
        // Batch/channel mismatch with the pooled tensor.
        assert!(matches!(
            max_pool2d_backward(&[2, 2, 4, 4], &out, &dy),
            Err(TensorError::InvalidShape { .. })
        ));
        // Input plane smaller than the pooled output.
        assert!(matches!(
            max_pool2d_backward(&[1, 2, 1, 1], &out, &dy),
            Err(TensorError::InvalidShape { .. })
        ));
        // Argmax indices outside the claimed (smaller but ≥ pooled) plane.
        assert!(matches!(
            max_pool2d_backward(&[1, 2, 3, 3], &out, &dy),
            Err(TensorError::InvalidShape { .. })
        ));
        // Corrupted argmax length.
        let mut truncated = out.clone();
        truncated.argmax.pop();
        assert!(matches!(
            max_pool2d_backward(&[1, 2, 4, 4], &truncated, &dy),
            Err(TensorError::InvalidShape { .. })
        ));
        // The valid call still works.
        assert!(max_pool2d_backward(&[1, 2, 4, 4], &out, &dy).is_ok());
    }

    #[test]
    fn backward_handles_zero_channel_input() {
        // Regression: a zero-channel input (dx has zero elements) must
        // produce empty dx/dw and a well-defined db, not a chunking panic.
        let x = Tensor::zeros(&[1, 0, 4, 4]);
        let w = Tensor::zeros(&[2, 0, 3, 3]);
        let y = conv2d(&x, &w, None, Conv2dSpec::default()).unwrap();
        assert_eq!(y.shape().dims(), &[1, 2, 2, 2]);
        let dy = Tensor::ones(&[1, 2, 2, 2]);
        let grads = conv2d_backward(&x, &w, &dy, Conv2dSpec::default()).unwrap();
        assert_eq!(grads.dx.numel(), 0);
        assert_eq!(grads.dw.numel(), 0);
        assert_eq!(grads.db.data(), &[4.0, 4.0]);
    }

    #[test]
    fn parallel_conv2d_is_bit_identical_to_serial() {
        use crate::parallel::Parallelism;
        let spec = Conv2dSpec {
            stride: 2,
            padding: 2,
            dilation: 1,
        };
        // Large enough that the per-item work clears the spawn threshold,
        // so the multi-thread runs genuinely take the parallel path.
        let x = rand_tensor(&[7, 8, 21, 19], 81);
        let w = rand_tensor(&[16, 8, 5, 5], 82);
        let b = rand_tensor(&[16], 83);
        let serial = conv2d_with(&x, &w, Some(&b), spec, Parallelism::serial()).unwrap();
        for threads in [2, 4, 16] {
            let par = conv2d_with(&x, &w, Some(&b), spec, Parallelism::new(threads)).unwrap();
            assert_eq!(par, serial, "{threads} threads");
        }
    }

    #[test]
    fn parallel_conv2d_backward_is_bit_identical_to_serial() {
        use crate::parallel::Parallelism;
        let spec = Conv2dSpec::same(3);
        let x = rand_tensor(&[5, 6, 14, 14], 91);
        let w = rand_tensor(&[8, 6, 3, 3], 92);
        let y = conv2d(&x, &w, None, spec).unwrap();
        let g = rand_tensor(y.shape().dims(), 93);
        let serial = conv2d_backward_with(&x, &w, &g, spec, Parallelism::serial()).unwrap();
        for threads in [2, 3, 8] {
            let par = conv2d_backward_with(&x, &w, &g, spec, Parallelism::new(threads)).unwrap();
            assert_eq!(par.dx, serial.dx, "{threads} threads dx");
            assert_eq!(par.dw, serial.dw, "{threads} threads dw");
            assert_eq!(par.db, serial.db, "{threads} threads db");
        }
    }
}
