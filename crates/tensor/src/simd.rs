//! Runtime-dispatched SIMD kernel backend with bit-identical,
//! lane-ordered reductions.
//!
//! Every training method in the workspace bottoms out in a handful of
//! `f32` kernels: the implicit-GEMM convolutions behind [`crate::conv`]
//! (submodule `implicit`) and the elementwise activation / optimizer
//! sweeps in `rte-nn`. This module multi-versions those kernels over
//! instruction-set *arms* and picks one at runtime:
//!
//! - **`Avx2`** — x86-64 AVX2 (+FMA availability is required for
//!   detection parity with common deployments, but fused contraction is
//!   deliberately **not** used; see below), 8-lane `f32` vectors,
//! - **`Scalar`** — a portable fallback that *emulates the same 8-lane
//!   schedule* so its results are bit-identical to the vector arm.
//!
//! The arm is chosen once per process from the `RTE_SIMD` environment
//! variable (`auto` | `avx2` | `scalar`, default `auto` =
//! best-available), and can be overridden programmatically with
//! [`set_global`] — the same shape as [`crate::parallel`]'s thread knob.
//! Every kernel also has a `*_with` variant taking an explicit
//! [`SimdBackend`] so tests and benches can pin arms without touching
//! process state.
//!
//! # Determinism contract: the 8-lane virtual SIMD machine
//!
//! The workspace guarantees bit-identical outputs across thread counts;
//! this module extends that guarantee across *instruction sets*. Every
//! arm implements the same **fixed 8-lane virtual-SIMD accumulation
//! order**:
//!
//! 1. **Elementwise maps** (`axpy`, `scale`, SGD/Adam steps, ReLU and
//!    sigmoid forward/backward) evaluate one fixed expression per
//!    element, built only from IEEE-exact operations (`+ - * / sqrt`,
//!    comparisons/selects). Vector lanes are independent, so any
//!    vector width reproduces the scalar expression bit for bit.
//!    **No FMA contraction is ever emitted** — a fused `a*b+c` rounds
//!    once where `mul`+`add` round twice, which would split the arms.
//! 2. **Chains** — a matrix product's output element — add their `k`
//!    products from `0.0` in strictly ascending `k` order on every arm
//!    (lanes are distinct outputs, never partial sums of one output):
//!    the order of the scalar i-k-j loop, [`crate::linalg::matmul`].
//! 3. **Reductions** ([`sum`], a dot product) accumulate into 8 virtual
//!    lanes — element `i` goes to lane `i % 8` in ascending `i` order —
//!    and the lanes are combined by the fixed tree [`reduce8`]:
//!    `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))` evaluated as pairwise
//!    sums. The scalar arm maintains the 8 lanes in an array; the vector
//!    arm's tail elements reuse the *same scalar lane code*, so tails
//!    cannot diverge by construction.
//! 4. **Transcendentals** (the sigmoid's `exp`) never call libm:
//!    both arms evaluate one shared Cephes-style polynomial
//!    ([`exp_lane`]) with an identical operation sequence, so the
//!    vector arm is a pure 8-wide transcription of the scalar arm.
//! 5. **Implicit-GEMM convolutions** ([`conv_fwd_skip_with`],
//!    [`conv_dw_acc_skip_with`], [`conv_dx_acc_padded_with`]), at any
//!    stride, are rules 2 and 3 over an im2col matrix left unbuilt, and
//!    each is one generic body over eight abstract lanes
//!    (`implicit::Lanes8`) that both arms instantiate — the order below
//!    is stated once, not transcribed. *Forward* is rule 2's chain per
//!    output element. The *weight gradient* is rule 3's summation tree
//!    per output `dw[c, p]` — a dot product of `dy[c]` with column row
//!    `p`: position `i` of the flattened output index goes into
//!    **virtual** lane `i % 8` in ascending `i`, and the eight are
//!    combined by [`reduce8`]. The rule fixes that tree — what is added
//!    to what — and not where a partial sum is held. The (output
//!    channels × taps) register tile keeps a virtual lane in a hardware
//!    lane and reduces along registers; for rows one vector wide the
//!    kernel keeps eight output *channels* in the hardware lanes and each
//!    virtual lane in a register of its own, so `reduce8`'s tree is seven
//!    vertical adds: the same additions on the same operands. The *input
//!    gradient* is a gather with a tree per pixel: the `c_out` products
//!    of a tap are a rule-2 chain in ascending `co`, the chains of the
//!    taps that reach the pixel are added from `+0.0` in ascending tap
//!    order — col2im's order — and the sum is added to `dx` once; how
//!    many pixels' chains are in flight, and whether a pixel's running
//!    sum waits in a register or in memory between taps, is free. A tap
//!    whose output position does not exist is left out by a loop bound
//!    or a lane mask, as col2im leaves it out. A transposed convolution
//!    runs on the same three kernels with the operands swapped.
//!    **Skip only a product known to be ±0.0:** forward and the weight
//!    gradient may leave out the rows of a padded image that are zero
//!    padding (the weight gradient of one-vector-wide rows, where a
//!    virtual lane is an output column, the padding columns too: such a
//!    lane is the `+0.0` it would have summed to), but only when the
//!    *other* factor of every such product is finite ([`skippable_rows`]
//!    scans it) — then the product is `±0.0` and adding it to an
//!    accumulator that began at `+0.0`, which is never `−0.0`
//!    afterwards, changes nothing. With one NaN or infinity
//!    in that operand nothing is skipped and it propagates exactly as
//!    through a column matrix. All of it is bit-identical to the im2col
//!    lowering on every arm.
//!
//! `tests/simd_determinism.rs` pins the contract end to end: every
//! kernel bitwise across arms over randomized shapes, and a full FedProx
//! training run producing a bit-identical `MethodOutcome` per arm.
//!
//! # Safety
//!
//! The workspace denies `unsafe_code`; this module carries a scoped
//! allow because SIMD intrinsics are unsafe to call by design. The
//! invariant that makes every `unsafe` here sound is: **`Avx2` kernels
//! are only reachable through [`SimdBackend::Avx2`], and that variant is
//! only ever constructed after `is_x86_feature_detected!` confirmed
//! AVX2+FMA support** (or by a caller who explicitly forced it, which
//! [`SimdBackend::from_env`] refuses to do on unsupported CPUs). The
//! convolution kernels themselves are safe code in the `implicit`
//! submodule; their `unsafe` is confined to the AVX2 impl of `Lanes8`
//! in this file, which reads only where a checked `implicit::Nest` has
//! shown every read of the loop nest to be in bounds.
#![allow(unsafe_code)]

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

/// Instruction-set arm used by the dispatched kernels.
///
/// All arms produce bit-identical results (see the module docs); the
/// choice only trades wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdBackend {
    /// Portable scalar arm emulating the 8-lane schedule.
    Scalar,
    /// x86-64 AVX2 arm (8-lane `f32`); constructed only after feature
    /// detection (or an explicit, checked override).
    Avx2,
}

impl SimdBackend {
    /// The best arm the running CPU supports.
    pub fn detect() -> SimdBackend {
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        {
            if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
                return SimdBackend::Avx2;
            }
        }
        SimdBackend::Scalar
    }

    /// Resolves the `RTE_SIMD` environment variable: `scalar` and `avx2`
    /// force an arm; `auto`, empty or unset mean [`SimdBackend::detect`].
    ///
    /// # Panics
    ///
    /// Panics when `RTE_SIMD=avx2` is forced on a CPU without AVX2+FMA,
    /// and on any unrecognized value — an explicit request that cannot
    /// be honored must not silently degrade to a different arm, because
    /// the caller asked for a specific arm's wall-clock.
    pub fn from_env() -> SimdBackend {
        match crate::knobs::raw("RTE_SIMD") {
            Some(v) => Self::parse(&v),
            None => SimdBackend::detect(),
        }
    }

    /// [`SimdBackend::from_env`]'s parsing rule, factored out for tests.
    ///
    /// # Panics
    ///
    /// See [`SimdBackend::from_env`].
    pub fn parse(value: &str) -> SimdBackend {
        match value.trim().to_ascii_lowercase().as_str() {
            "" | "auto" => SimdBackend::detect(),
            "scalar" => SimdBackend::Scalar,
            "avx2" => {
                assert!(
                    SimdBackend::detect() == SimdBackend::Avx2,
                    "RTE_SIMD=avx2 requested but this CPU does not support AVX2+FMA"
                );
                SimdBackend::Avx2
            }
            other => panic!(
                "RTE_SIMD={other:?} is not a valid SIMD arm; accepted values: \
                 auto (or unset/empty), scalar, avx2"
            ),
        }
    }

    /// Stable lowercase name (`"scalar"` / `"avx2"`), used by bench
    /// output and `BENCH_kernels.json`.
    pub fn name(self) -> &'static str {
        match self {
            SimdBackend::Scalar => "scalar",
            SimdBackend::Avx2 => "avx2",
        }
    }
}

impl fmt::Display for SimdBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Process-wide arm for kernels dispatched without an explicit
/// `*_with` argument. `0` = not yet resolved from `RTE_SIMD`.
static GLOBAL_BACKEND: AtomicU8 = AtomicU8::new(0);

const BACKEND_SCALAR: u8 = 1;
const BACKEND_AVX2: u8 = 2;

fn encode(backend: SimdBackend) -> u8 {
    match backend {
        SimdBackend::Scalar => BACKEND_SCALAR,
        SimdBackend::Avx2 => BACKEND_AVX2,
    }
}

/// Sets the process-wide [`SimdBackend`] used by all dispatched kernels.
///
/// Results are bit-identical for every arm; this knob only trades
/// wall-clock, exactly like [`crate::parallel::set_global`].
pub fn set_global(backend: SimdBackend) {
    GLOBAL_BACKEND.store(encode(backend), Ordering::Relaxed);
}

/// The current process-wide [`SimdBackend`], resolved from `RTE_SIMD`
/// (unset = auto-detect) on first use.
pub fn global() -> SimdBackend {
    match GLOBAL_BACKEND.load(Ordering::Relaxed) {
        BACKEND_SCALAR => SimdBackend::Scalar,
        BACKEND_AVX2 => SimdBackend::Avx2,
        _ => {
            let backend = SimdBackend::from_env();
            // Benign race: concurrent first readers resolve identically.
            GLOBAL_BACKEND.store(encode(backend), Ordering::Relaxed);
            backend
        }
    }
}

/// Number of virtual lanes every arm schedules around.
pub const LANES: usize = 8;

/// The fixed lane-combination tree shared by every reduction on every
/// arm: `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`, evaluated pairwise.
///
/// This is exactly the shape of an AVX2 horizontal add performed as
/// `low128 + high128`, then two in-register shuffles — so the vector
/// arm can reduce in registers while the scalar arm reduces the array,
/// and both round identically.
#[inline]
pub fn reduce8(lanes: &[f32; LANES]) -> f32 {
    let s0 = lanes[0] + lanes[4];
    let s1 = lanes[1] + lanes[5];
    let s2 = lanes[2] + lanes[6];
    let s3 = lanes[3] + lanes[7];
    (s0 + s2) + (s1 + s3)
}

// ---------------------------------------------------------------------
// Shared per-lane expressions.
//
// Each scalar helper below is THE definition of one kernel's per-element
// arithmetic. The scalar arm loops them; the vector arm transcribes the
// identical operation sequence into 8-wide intrinsics and reuses the
// helper verbatim for non-multiple-of-8 tails.
// ---------------------------------------------------------------------

/// `min` with x86 `vminps` semantics: `if a < b { a } else { b }`
/// (returns `b` when `a` is NaN or both compare equal).
#[inline]
fn min_ps(a: f32, b: f32) -> f32 {
    if a < b {
        a
    } else {
        b
    }
}

/// `max` with x86 `vmaxps` semantics: `if a > b { a } else { b }`.
#[inline]
fn max_ps(a: f32, b: f32) -> f32 {
    if a > b {
        a
    } else {
        b
    }
}

/// Exponent clamp bounds: `exp` saturates to `+inf` above `EXP_HI` and
/// to the smallest normal below `EXP_LO`, keeping the `2^n` scale factor
/// constructible from exponent bits on every arm.
const EXP_HI: f32 = 88.722_84;
const EXP_LO: f32 = -87.336_55;
/// `log2(e)` for the range reduction `x = n·ln2 + r`.
const EXP_LOG2E: f32 = std::f32::consts::LOG2_E;
/// Cody–Waite split of `ln 2` (high part exactly representable).
const EXP_LN2_HI: f32 = 0.693_359_4;
/// Low-order correction of the `ln 2` split.
const EXP_LN2_LO: f32 = -2.121_944_4e-4;
/// `1.5 · 2²³`: adding and subtracting rounds to the nearest integer
/// (ties to even) with plain `+`/`-`, identically on both arms.
const EXP_MAGIC: f32 = 12_582_912.0;
/// Cephes `expf` minimax polynomial, degree 5 → constant term.
const EXP_P0: f32 = 1.987_569_1e-4;
const EXP_P1: f32 = 1.398_2e-3;
const EXP_P2: f32 = 8.333_452e-3;
const EXP_P3: f32 = 4.166_579_6e-2;
const EXP_P4: f32 = 1.666_666_5e-1;
const EXP_P5: f32 = 5.000_000_3e-1;

/// Shared polynomial `expf`: Cephes-style range reduction
/// (`x = n·ln2 + r`, `|r| ≤ ln2/2`), a degree-5 minimax polynomial and
/// an exponent-bit `2^n` scale — every step an IEEE-exact op in a fixed
/// order, so the AVX2 transcription is bit-identical per lane.
///
/// Accuracy is ~2 ulp on the reduced range (ample for the sigmoid);
/// NaN inputs pass through unchanged; out-of-range inputs saturate to
/// `+inf` / the smallest normal instead of libm's gradual underflow.
#[inline]
pub fn exp_lane(x: f32) -> f32 {
    if x.is_nan() {
        return x;
    }
    let xc = max_ps(min_ps(x, EXP_HI), EXP_LO);
    let n = (xc * EXP_LOG2E + EXP_MAGIC) - EXP_MAGIC;
    let r = xc - n * EXP_LN2_HI;
    let r = r - n * EXP_LN2_LO;
    let mut y = EXP_P0;
    y = y * r + EXP_P1;
    y = y * r + EXP_P2;
    y = y * r + EXP_P3;
    y = y * r + EXP_P4;
    y = y * r + EXP_P5;
    let y = ((y * r) * r + r) + 1.0;
    let scale = f32::from_bits((((n as i32) + 127) << 23) as u32);
    y * scale
}

#[inline]
fn axpy_lane(alpha: f32, x: f32, y: f32) -> f32 {
    y + alpha * x
}

#[inline]
fn scale_lane(alpha: f32, x: f32) -> f32 {
    x * alpha
}

#[inline]
fn relu_lane(x: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        0.0
    }
}

#[inline]
fn relu_backward_lane(dy: f32, x: f32) -> f32 {
    if x > 0.0 {
        dy
    } else {
        0.0
    }
}

#[inline]
fn sigmoid_lane(x: f32) -> f32 {
    1.0 / (1.0 + exp_lane(-x))
}

#[inline]
fn sigmoid_backward_lane(dy: f32, y: f32) -> f32 {
    (dy * y) * (1.0 - y)
}

#[inline]
fn sgd_lane(value: f32, grad: f32, lr: f32, wd: f32) -> f32 {
    let g = if wd != 0.0 { grad + wd * value } else { grad };
    value + (-lr) * g
}

/// Hyper-parameters of one fused Adam step (see [`adam_step`]); the
/// bias corrections are precomputed by the caller because they depend
/// on the step counter, not the parameter.
#[derive(Debug, Clone, Copy)]
pub struct AdamStep {
    /// First-moment decay (β₁).
    pub beta1: f32,
    /// Second-moment decay (β₂).
    pub beta2: f32,
    /// First-moment bias correction `1 - β₁ᵗ`.
    pub bias1: f32,
    /// Second-moment bias correction `1 - β₂ᵗ`.
    pub bias2: f32,
    /// Learning rate.
    pub lr: f32,
    /// Denominator fuzz (ε).
    pub eps: f32,
    /// L2 strength folded into the gradient (0 disables the term).
    pub weight_decay: f32,
}

/// One Adam lane: updates `(m, v)` in place and returns the new value.
#[inline]
fn adam_lane(value: f32, m: &mut f32, v: &mut f32, grad: f32, s: &AdamStep) -> f32 {
    let g = if s.weight_decay != 0.0 {
        grad + s.weight_decay * value
    } else {
        grad
    };
    let mi = s.beta1 * *m + (1.0 - s.beta1) * g;
    let vi = s.beta2 * *v + ((1.0 - s.beta2) * g) * g;
    *m = mi;
    *v = vi;
    let m_hat = mi / s.bias1;
    let v_hat = vi / s.bias2;
    value - (s.lr * m_hat) / (v_hat.sqrt() + s.eps)
}

// ---------------------------------------------------------------------
// Dispatched public kernels.
// ---------------------------------------------------------------------

macro_rules! dispatch {
    ($backend:expr, $scalar:expr, $avx2:expr) => {
        match $backend {
            SimdBackend::Scalar => $scalar,
            #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
            // SAFETY: `SimdBackend::Avx2` is only constructed after
            // `is_x86_feature_detected!("avx2") && ("fma")` succeeded
            // (detect / checked parse), so the target features the
            // callee was compiled for are present at runtime.
            SimdBackend::Avx2 => unsafe { $avx2 },
            // Unreachable in practice: `detect` never returns Avx2 off
            // x86 and `parse` refuses to construct it; tolerate a
            // hand-built value by degrading to the (bit-identical)
            // scalar arm rather than panicking.
            #[cfg(not(any(target_arch = "x86_64", target_arch = "x86")))]
            SimdBackend::Avx2 => $scalar,
        }
    };
}

mod implicit;
pub use implicit::{
    conv_dw_acc_skip_with, conv_dw_acc_with, conv_dx_acc_padded_with, conv_dx_acc_with,
    conv_fwd_skip_with, conv_fwd_with, skippable_rows, ConvGeom, DwBatch,
};

/// `y[i] += alpha * x[i]` (BLAS `axpy`) on the process-global arm.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    axpy_with(global(), alpha, x, y);
}

/// [`axpy`] with an explicit arm.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy_with(backend: SimdBackend, alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    dispatch!(backend, scalar::axpy(alpha, x, y), avx2::axpy(alpha, x, y));
}

/// `x[i] *= alpha` on the process-global arm.
pub fn scale(alpha: f32, x: &mut [f32]) {
    scale_with(global(), alpha, x);
}

/// [`scale`] with an explicit arm.
pub fn scale_with(backend: SimdBackend, alpha: f32, x: &mut [f32]) {
    dispatch!(backend, scalar::scale(alpha, x), avx2::scale(alpha, x));
}

/// Lane-ordered sum: element `i` accumulates into virtual lane `i % 8`
/// in ascending order, and the lanes reduce via [`reduce8`] — identical
/// on every arm (and deliberately different from a plain sequential
/// fold, which no arm could vectorize).
pub fn sum(x: &[f32]) -> f32 {
    sum_with(global(), x)
}

/// [`sum`] with an explicit arm.
pub fn sum_with(backend: SimdBackend, x: &[f32]) -> f32 {
    dispatch!(backend, scalar::sum(x), avx2::sum(x))
}

/// Fused SGD step `value -= lr * (grad + wd * value)` (no momentum) on
/// the process-global arm; the `wd` term is skipped exactly when
/// `wd == 0` so the expression matches the unfused axpy pair bit for bit.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sgd_step(value: &mut [f32], grad: &[f32], lr: f32, wd: f32) {
    sgd_step_with(global(), value, grad, lr, wd);
}

/// [`sgd_step`] with an explicit arm.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sgd_step_with(backend: SimdBackend, value: &mut [f32], grad: &[f32], lr: f32, wd: f32) {
    assert_eq!(value.len(), grad.len(), "sgd_step: length mismatch");
    dispatch!(
        backend,
        scalar::sgd_step(value, grad, lr, wd),
        avx2::sgd_step(value, grad, lr, wd)
    );
}

/// Fused Adam step on the process-global arm: updates the moment
/// buffers `m`/`v` in place and applies the bias-corrected update to
/// `value`. All ops are IEEE-exact (`sqrt`/`div` included), so the arms
/// agree bitwise.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn adam_step(value: &mut [f32], m: &mut [f32], v: &mut [f32], grad: &[f32], step: &AdamStep) {
    adam_step_with(global(), value, m, v, grad, step);
}

/// [`adam_step`] with an explicit arm.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn adam_step_with(
    backend: SimdBackend,
    value: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    grad: &[f32],
    step: &AdamStep,
) {
    assert_eq!(value.len(), grad.len(), "adam_step: grad length mismatch");
    assert_eq!(value.len(), m.len(), "adam_step: m length mismatch");
    assert_eq!(value.len(), v.len(), "adam_step: v length mismatch");
    dispatch!(
        backend,
        scalar::adam_step(value, m, v, grad, step),
        avx2::adam_step(value, m, v, grad, step)
    );
}

/// In-place ReLU `x = if x > 0 { x } else { 0 }` on the process-global
/// arm (NaN maps to `+0.0` on every arm).
pub fn relu(x: &mut [f32]) {
    relu_with(global(), x);
}

/// [`relu`] with an explicit arm.
pub fn relu_with(backend: SimdBackend, x: &mut [f32]) {
    dispatch!(backend, scalar::relu(x), avx2::relu(x));
}

/// In-place ReLU backward: `dy[i] = if x[i] > 0 { dy[i] } else { 0 }`
/// on the process-global arm.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn relu_backward(dy: &mut [f32], x: &[f32]) {
    relu_backward_with(global(), dy, x);
}

/// [`relu_backward`] with an explicit arm.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn relu_backward_with(backend: SimdBackend, dy: &mut [f32], x: &[f32]) {
    assert_eq!(dy.len(), x.len(), "relu_backward: length mismatch");
    dispatch!(
        backend,
        scalar::relu_backward(dy, x),
        avx2::relu_backward(dy, x)
    );
}

/// In-place logistic sigmoid `x = 1 / (1 + exp(-x))` on the
/// process-global arm, built on the shared polynomial [`exp_lane`].
pub fn sigmoid(x: &mut [f32]) {
    sigmoid_with(global(), x);
}

/// [`sigmoid`] with an explicit arm.
pub fn sigmoid_with(backend: SimdBackend, x: &mut [f32]) {
    dispatch!(backend, scalar::sigmoid(x), avx2::sigmoid(x));
}

/// In-place sigmoid backward `dy[i] = dy[i] * y[i] * (1 - y[i])` (where
/// `y` is the cached forward output) on the process-global arm.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sigmoid_backward(dy: &mut [f32], y: &[f32]) {
    sigmoid_backward_with(global(), dy, y);
}

/// [`sigmoid_backward`] with an explicit arm.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sigmoid_backward_with(backend: SimdBackend, dy: &mut [f32], y: &[f32]) {
    assert_eq!(dy.len(), y.len(), "sigmoid_backward: length mismatch");
    dispatch!(
        backend,
        scalar::sigmoid_backward(dy, y),
        avx2::sigmoid_backward(dy, y)
    );
}

// ---------------------------------------------------------------------
// Scalar arm.
// ---------------------------------------------------------------------

/// The portable arm: loops the shared lane expressions and emulates the
/// 8-lane reduction schedule. Inner loops use `zip`/`chunks_exact`
/// slicing so the compiler drops the bounds checks and autovectorizes
/// the independent accumulation streams.
mod scalar {
    use super::*;

    /// 8-lane dot product: lane `i % 8` accumulates element `i` in
    /// ascending order, reduced with [`reduce8`] — the weight gradient's
    /// summation tree (rule 5) over one stored row, which both arms run
    /// where an output row does not start at lane 0.
    pub(super) fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
        let mut lanes = [0.0f32; LANES];
        for (ca, cb) in a.chunks(LANES).zip(b.chunks(LANES)) {
            for (lane, (&x, &y)) in lanes.iter_mut().zip(ca.iter().zip(cb)) {
                *lane += x * y;
            }
        }
        reduce8(&lanes)
    }

    pub(super) fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        for (o, &xi) in y.iter_mut().zip(x.iter()) {
            *o = axpy_lane(alpha, xi, *o);
        }
    }

    pub(super) fn scale(alpha: f32, x: &mut [f32]) {
        for o in x.iter_mut() {
            *o = scale_lane(alpha, *o);
        }
    }

    /// Lane-ordered sum; see [`super::sum`] for the schedule.
    pub(super) fn sum(x: &[f32]) -> f32 {
        let mut lanes = [0.0f32; LANES];
        let blocks = x.len() / LANES;
        for chunk in x.chunks_exact(LANES).take(blocks) {
            for l in 0..LANES {
                lanes[l] += chunk[l];
            }
        }
        sum_tail(&mut lanes, &x[blocks * LANES..]);
        reduce8(&lanes)
    }

    /// Adds a sub-8 tail into the lane accumulators (lane = offset).
    #[inline]
    pub(super) fn sum_tail(lanes: &mut [f32; LANES], x: &[f32]) {
        for (l, &v) in x.iter().enumerate() {
            lanes[l] += v;
        }
    }

    pub(super) fn sgd_step(value: &mut [f32], grad: &[f32], lr: f32, wd: f32) {
        for (v, &g) in value.iter_mut().zip(grad.iter()) {
            *v = sgd_lane(*v, g, lr, wd);
        }
    }

    pub(super) fn adam_step(
        value: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        grad: &[f32],
        step: &AdamStep,
    ) {
        let inner = m.iter_mut().zip(v.iter_mut()).zip(grad.iter());
        for (p, ((mi, vi), &g)) in value.iter_mut().zip(inner) {
            *p = adam_lane(*p, mi, vi, g, step);
        }
    }

    pub(super) fn relu(x: &mut [f32]) {
        for v in x.iter_mut() {
            *v = relu_lane(*v);
        }
    }

    pub(super) fn relu_backward(dy: &mut [f32], x: &[f32]) {
        for (d, &xi) in dy.iter_mut().zip(x.iter()) {
            *d = relu_backward_lane(*d, xi);
        }
    }

    pub(super) fn sigmoid(x: &mut [f32]) {
        for v in x.iter_mut() {
            *v = sigmoid_lane(*v);
        }
    }

    pub(super) fn sigmoid_backward(dy: &mut [f32], y: &[f32]) {
        for (d, &yi) in dy.iter_mut().zip(y.iter()) {
            *d = sigmoid_backward_lane(*d, yi);
        }
    }
}

// ---------------------------------------------------------------------
// AVX2 arm.
// ---------------------------------------------------------------------

/// The x86 AVX2 arm: 8-wide transcriptions of the shared lane
/// expressions, the lanes the convolution kernels are instantiated
/// over, and [`reduce8`]-ordered reductions. Every function is `#[target_feature(enable = "avx2")]`;
/// callers reach them only through the [`dispatch!`] macro, whose
/// safety argument lives at the single `unsafe` site.
#[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
mod avx2 {
    use super::implicit::{self, Lanes8, Nest};
    use super::*;
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// Spills an 8-lane accumulator register to the lane array the
    /// scalar tail/reduction code operates on.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the [`dispatch!`] invariant); the
    /// store itself targets a local array of exactly [`LANES`] floats.
    #[target_feature(enable = "avx2")]
    unsafe fn spill(acc: __m256) -> [f32; LANES] {
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        lanes
    }

    /// The eight floats `lane` apart from `p` on, `lane` ≥ 2: for a
    /// stride of 2 the even floats of two loads that overlap in one, for
    /// a wider one a gather. Kept out of the closure that reads a walk's
    /// lanes: a closure lacks the kernel's target feature, so nothing it
    /// calls is inlined into it, and it is itself inlined into the
    /// kernel only while it stays a few calls long.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, and the `7·lane + 1` floats from `p`
    /// on must be readable. No read needs alignment.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn read_strided(p: *const f32, lane: usize) -> __m256 {
        if lane == 2 {
            // Floats 0, 2, 4, 6 of the first load and 1, 3, 5, 7 of the
            // second (floats 8, 10, 12, 14), paired per half and the
            // pairs put in order.
            let (lo, hi) = (_mm256_loadu_ps(p), _mm256_loadu_ps(p.add(LANES - 1)));
            let pairs = _mm256_shuffle_ps::<0b11_01_10_00>(lo, hi);
            let order = _mm256_permute4x64_pd::<0b11_01_10_00>(_mm256_castps_pd(pairs));
            _mm256_castpd_ps(order)
        } else {
            let at = _mm256_mullo_epi32(
                _mm256_set1_epi32(lane as i32),
                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            );
            _mm256_i32gather_ps::<4>(p, at)
        }
    }

    /// Eight lanes in one `ymm` register. The type is private to this
    /// module, whose only entry points are `unsafe fn`s that require
    /// AVX2, so none of the methods below can run on a CPU without it.
    #[derive(Clone, Copy)]
    struct Avx8(__m256);

    impl Lanes8 for Avx8 {
        const WIDE: bool = true;
        #[inline(always)]
        fn splat(v: f32) -> Self {
            // SAFETY: AVX2 is present (see `Avx8`); no memory access.
            Avx8(unsafe { _mm256_set1_ps(v) })
        }
        #[inline(always)]
        fn to_array(self) -> [f32; LANES] {
            let mut lanes = [0.0f32; LANES];
            // SAFETY: AVX2 is present (see `Avx8`) and `lanes` is eight
            // writable floats; the store needs no alignment.
            unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), self.0) };
            lanes
        }
        #[inline(always)]
        fn add(self, rhs: Self) -> Self {
            // SAFETY: AVX2 is present (see `Avx8`); no memory access.
            Avx8(unsafe { _mm256_add_ps(self.0, rhs.0) })
        }
        #[inline(always)]
        fn mul(self, rhs: Self) -> Self {
            // SAFETY: AVX2 is present (see `Avx8`); no memory access.
            Avx8(unsafe { _mm256_mul_ps(self.0, rhs.0) })
        }
        #[inline(always)]
        fn and(self, mask: Self) -> Self {
            // SAFETY: AVX2 is present (see `Avx8`); no memory access.
            Avx8(unsafe { _mm256_and_ps(self.0, mask.0) })
        }
        /// `low128 + high128` of accumulators `t` and `t + 4` side by
        /// side gives `(l0+l4, l1+l5, l2+l6, l3+l7)` of both, a 4×4
        /// transpose in each half lines the eight accumulators' partial
        /// sums up, and two more adds finish the tree
        /// `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))` — the same additions
        /// on the same operands as the scalar [`reduce8`], eight results
        /// per instruction.
        #[inline(always)]
        fn reduce(acc: &[Self; LANES]) -> Self {
            // SAFETY: AVX2 is present (see `Avx8`); no memory access.
            unsafe {
                let mut s = [_mm256_setzero_ps(); 4];
                for (t, half) in s.iter_mut().enumerate() {
                    let (a, b) = (acc[t].0, acc[t + 4].0);
                    *half = _mm256_add_ps(
                        _mm256_permute2f128_ps::<0x20>(a, b),
                        _mm256_permute2f128_ps::<0x31>(a, b),
                    );
                }
                let (t0, t1) = (
                    _mm256_unpacklo_ps(s[0], s[1]),
                    _mm256_unpackhi_ps(s[0], s[1]),
                );
                let (t2, t3) = (
                    _mm256_unpacklo_ps(s[2], s[3]),
                    _mm256_unpackhi_ps(s[2], s[3]),
                );
                let (s0, s1) = (
                    _mm256_shuffle_ps::<0x44>(t0, t2),
                    _mm256_shuffle_ps::<0xEE>(t0, t2),
                );
                let (s2, s3) = (
                    _mm256_shuffle_ps::<0x44>(t1, t3),
                    _mm256_shuffle_ps::<0xEE>(t1, t3),
                );
                Avx8(_mm256_add_ps(_mm256_add_ps(s0, s2), _mm256_add_ps(s1, s3)))
            }
        }
        #[inline(always)]
        fn run<const STRIDED: bool, const A: usize, const B: usize, const C: usize>(
            nest: &Nest<STRIDED>,
            starts: (&[usize; A], &[usize; B], &[usize; C]),
            part: [std::ops::Range<usize>; 3],
            mut f: impl FnMut([Self; A], [Self; B], [Self; C]),
        ) {
            let Some(part) = nest.admit([starts.0, starts.1, starts.2], part) else {
                return;
            };
            // SAFETY: AVX2 is present (see `Avx8`), and `p` is only ever
            // where a walk of `nest` reads, from a start `admit` found
            // safe, at an iteration inside `nest.counts` (`admit` again)
            // — inside the walk's slice by `Walk::safe_starts`: one
            // float there for a splat, eight for a load, `7·lane + 1` for
            // a strided read. No read needs alignment.
            let read = |p: *const f32, lane: usize| unsafe {
                Avx8(if lane == 0 {
                    _mm256_broadcast_ss(&*p)
                } else if !STRIDED || lane == 1 {
                    _mm256_loadu_ps(p)
                } else {
                    read_strided(p, lane)
                })
            };
            // One running offset per walk and loop, applied with
            // `wrapping_offset`: the step past a loop's last iteration
            // may leave the slice, and is never read.
            let [a, b, c] = &nest.walks;
            let first = std::array::from_fn(|l| part[l].start);
            let pa = starts.0.map(|at| a.src.as_ptr().wrapping_add(at));
            let pb = starts.1.map(|at| b.src.as_ptr().wrapping_add(at));
            let pc = starts.2.map(|at| c.src.as_ptr().wrapping_add(at));
            let mut outer = [a.offset(first), b.offset(first), c.offset(first)];
            let advance = |offsets: &mut [isize; 3], l: usize| {
                let steps = [a.steps[l], b.steps[l], c.steps[l]];
                *offsets = std::array::from_fn(|w| offsets[w].wrapping_add(steps[w]));
            };
            for _ in part[0].clone() {
                let mut middle = outer;
                for _ in part[1].clone() {
                    let mut inner = middle;
                    for _ in part[2].clone() {
                        f(
                            std::array::from_fn(|i| read(pa[i].wrapping_offset(inner[0]), a.lane)),
                            std::array::from_fn(|i| read(pb[i].wrapping_offset(inner[1]), b.lane)),
                            std::array::from_fn(|i| read(pc[i].wrapping_offset(inner[2]), c.lane)),
                        );
                        advance(&mut inner, 2);
                    }
                    advance(&mut middle, 1);
                }
                advance(&mut outer, 0);
            }
        }
    }

    /// [`implicit::conv_fwd`] over [`Avx8`].
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the [`dispatch!`] invariant).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn conv_fwd(g: &ConvGeom, skip: usize, xp: &[f32], w: &[f32], y: &mut [f32]) {
        implicit::conv_fwd::<Avx8>(g, skip, xp, w, y);
    }

    /// [`implicit::conv_dw_acc`] over [`Avx8`].
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the [`dispatch!`] invariant).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn conv_dw_acc(
        g: &ConvGeom,
        skip: usize,
        xp: &[f32],
        dy: &[f32],
        dw: &mut [f32],
        lanes: bool,
    ) {
        implicit::conv_dw_acc::<Avx8>(g, skip, xp, dy, dw, lanes);
    }

    /// [`implicit::conv_dx_acc`] over [`Avx8`].
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the [`dispatch!`] invariant).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn conv_dx_acc(
        g: &ConvGeom,
        pad: usize,
        w: &[f32],
        dyp: &[f32],
        dx: &mut [f32],
    ) {
        implicit::conv_dx_acc::<Avx8>(g, pad, w, dyp, dx);
    }

    /// Lane-ordered sum: 8-lane strided partials, scalar tail folded
    /// into the lanes, then the fixed-order [`reduce8`] tree.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the [`dispatch!`] invariant); all
    /// loads are bounded by `x.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sum(x: &[f32]) -> f32 {
        let kb = x.len() / LANES * LANES;
        let mut acc = _mm256_setzero_ps();
        let mut p = 0;
        while p < kb {
            acc = _mm256_add_ps(acc, _mm256_loadu_ps(x.as_ptr().add(p)));
            p += LANES;
        }
        let mut lanes = spill(acc);
        scalar::sum_tail(&mut lanes, &x[kb..]);
        reduce8(&lanes)
    }

    /// `y += alpha * x`, elementwise (no cross-lane reduction, so
    /// vectorization is trivially bit-neutral).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the [`dispatch!`] invariant) and `y`
    /// must be at least as long as `x` (loads/stores are bounded by
    /// `x.len()`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        let full = x.len() / LANES * LANES;
        let av = _mm256_set1_ps(alpha);
        let mut p = 0;
        while p < full {
            let xv = _mm256_loadu_ps(x.as_ptr().add(p));
            let yv = _mm256_loadu_ps(y.as_ptr().add(p));
            _mm256_storeu_ps(
                y.as_mut_ptr().add(p),
                _mm256_add_ps(yv, _mm256_mul_ps(av, xv)),
            );
            p += LANES;
        }
        for (o, &xi) in y[full..].iter_mut().zip(x[full..].iter()) {
            *o = axpy_lane(alpha, xi, *o);
        }
    }

    /// `x *= alpha`, elementwise.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the [`dispatch!`] invariant); all
    /// loads/stores are bounded by `x.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scale(alpha: f32, x: &mut [f32]) {
        let full = x.len() / LANES * LANES;
        let av = _mm256_set1_ps(alpha);
        let mut p = 0;
        while p < full {
            let xv = _mm256_loadu_ps(x.as_ptr().add(p));
            _mm256_storeu_ps(x.as_mut_ptr().add(p), _mm256_mul_ps(xv, av));
            p += LANES;
        }
        for o in x[full..].iter_mut() {
            *o = scale_lane(alpha, *o);
        }
    }

    /// SGD update `value -= lr * (grad + wd * value)`, elementwise,
    /// op-for-op the scalar [`sgd_lane`] (weight decay folded first,
    /// separate mul/add — never contracted).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the [`dispatch!`] invariant) and
    /// `grad` must be at least as long as `value` (loads/stores are
    /// bounded by `value.len()`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sgd_step(value: &mut [f32], grad: &[f32], lr: f32, wd: f32) {
        let full = value.len() / LANES * LANES;
        let neg_lr = _mm256_set1_ps(-lr);
        let wdv = _mm256_set1_ps(wd);
        let fold_wd = wd != 0.0;
        let mut p = 0;
        while p < full {
            let v = _mm256_loadu_ps(value.as_ptr().add(p));
            let mut g = _mm256_loadu_ps(grad.as_ptr().add(p));
            if fold_wd {
                g = _mm256_add_ps(g, _mm256_mul_ps(wdv, v));
            }
            _mm256_storeu_ps(
                value.as_mut_ptr().add(p),
                _mm256_add_ps(v, _mm256_mul_ps(neg_lr, g)),
            );
            p += LANES;
        }
        for (v, &g) in value[full..].iter_mut().zip(grad[full..].iter()) {
            *v = sgd_lane(*v, g, lr, wd);
        }
    }

    /// Adam update, elementwise, op-for-op the scalar [`adam_lane`]
    /// (same moment/bias-correction expression tree, separate mul/add —
    /// never contracted).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the [`dispatch!`] invariant) and
    /// `m`/`v`/`grad` must each be at least as long as `value`
    /// (loads/stores are bounded by `value.len()`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn adam_step(
        value: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        grad: &[f32],
        s: &AdamStep,
    ) {
        let full = value.len() / LANES * LANES;
        let b1 = _mm256_set1_ps(s.beta1);
        let omb1 = _mm256_set1_ps(1.0 - s.beta1);
        let b2 = _mm256_set1_ps(s.beta2);
        let omb2 = _mm256_set1_ps(1.0 - s.beta2);
        let bias1 = _mm256_set1_ps(s.bias1);
        let bias2 = _mm256_set1_ps(s.bias2);
        let lr = _mm256_set1_ps(s.lr);
        let eps = _mm256_set1_ps(s.eps);
        let wd = _mm256_set1_ps(s.weight_decay);
        let fold_wd = s.weight_decay != 0.0;
        let mut p = 0;
        while p < full {
            let pv = _mm256_loadu_ps(value.as_ptr().add(p));
            let mut g = _mm256_loadu_ps(grad.as_ptr().add(p));
            if fold_wd {
                g = _mm256_add_ps(g, _mm256_mul_ps(wd, pv));
            }
            let mv = _mm256_loadu_ps(m.as_ptr().add(p));
            let vv = _mm256_loadu_ps(v.as_ptr().add(p));
            let mi = _mm256_add_ps(_mm256_mul_ps(b1, mv), _mm256_mul_ps(omb1, g));
            let vi = _mm256_add_ps(
                _mm256_mul_ps(b2, vv),
                _mm256_mul_ps(_mm256_mul_ps(omb2, g), g),
            );
            _mm256_storeu_ps(m.as_mut_ptr().add(p), mi);
            _mm256_storeu_ps(v.as_mut_ptr().add(p), vi);
            let m_hat = _mm256_div_ps(mi, bias1);
            let v_hat = _mm256_div_ps(vi, bias2);
            let denom = _mm256_add_ps(_mm256_sqrt_ps(v_hat), eps);
            let upd = _mm256_div_ps(_mm256_mul_ps(lr, m_hat), denom);
            _mm256_storeu_ps(value.as_mut_ptr().add(p), _mm256_sub_ps(pv, upd));
            p += LANES;
        }
        let inner = m[full..].iter_mut().zip(v[full..].iter_mut());
        for ((pv, (mi, vi)), &g) in value[full..].iter_mut().zip(inner).zip(grad[full..].iter()) {
            *pv = adam_lane(*pv, mi, vi, g, s);
        }
    }

    /// In-place ReLU via a compare-and-mask (`max` would lose the
    /// scalar arm's `-0.0`/NaN semantics).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the [`dispatch!`] invariant); all
    /// loads/stores are bounded by `x.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn relu(x: &mut [f32]) {
        let full = x.len() / LANES * LANES;
        let zero = _mm256_setzero_ps();
        let mut p = 0;
        while p < full {
            let v = _mm256_loadu_ps(x.as_ptr().add(p));
            let mask = _mm256_cmp_ps::<_CMP_GT_OQ>(v, zero);
            _mm256_storeu_ps(x.as_mut_ptr().add(p), _mm256_and_ps(mask, v));
            p += LANES;
        }
        for o in x[full..].iter_mut() {
            *o = relu_lane(*o);
        }
    }

    /// ReLU backward: zeroes `dy` lanes where the forward input was
    /// not strictly positive, via the same compare-and-mask as [`relu`].
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the [`dispatch!`] invariant) and `dy`
    /// must be at least as long as `x` (loads/stores are bounded by
    /// `x.len()`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn relu_backward(dy: &mut [f32], x: &[f32]) {
        let full = x.len() / LANES * LANES;
        let zero = _mm256_setzero_ps();
        let mut p = 0;
        while p < full {
            let xv = _mm256_loadu_ps(x.as_ptr().add(p));
            let dv = _mm256_loadu_ps(dy.as_ptr().add(p));
            let mask = _mm256_cmp_ps::<_CMP_GT_OQ>(xv, zero);
            _mm256_storeu_ps(dy.as_mut_ptr().add(p), _mm256_and_ps(mask, dv));
            p += LANES;
        }
        for (d, &xi) in dy[full..].iter_mut().zip(x[full..].iter()) {
            *d = relu_backward_lane(*d, xi);
        }
    }

    /// 8-wide transcription of [`exp_lane`] — op for op, including the
    /// clamp semantics (`vminps`/`vmaxps`) and the magic-number round —
    /// with NaN lanes of the input blended back at the end.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the [`dispatch!`] invariant); the
    /// body is pure register arithmetic, no memory access.
    #[target_feature(enable = "avx2")]
    unsafe fn exp_ps(x: __m256) -> __m256 {
        let xc = _mm256_max_ps(
            _mm256_min_ps(x, _mm256_set1_ps(EXP_HI)),
            _mm256_set1_ps(EXP_LO),
        );
        let magic = _mm256_set1_ps(EXP_MAGIC);
        let n = _mm256_sub_ps(
            _mm256_add_ps(_mm256_mul_ps(xc, _mm256_set1_ps(EXP_LOG2E)), magic),
            magic,
        );
        let r = _mm256_sub_ps(xc, _mm256_mul_ps(n, _mm256_set1_ps(EXP_LN2_HI)));
        let r = _mm256_sub_ps(r, _mm256_mul_ps(n, _mm256_set1_ps(EXP_LN2_LO)));
        let mut y = _mm256_set1_ps(EXP_P0);
        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(EXP_P1));
        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(EXP_P2));
        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(EXP_P3));
        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(EXP_P4));
        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(EXP_P5));
        let y = _mm256_add_ps(
            _mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(y, r), r), r),
            _mm256_set1_ps(1.0),
        );
        let ni = _mm256_cvtps_epi32(n);
        let scale = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            ni,
            _mm256_set1_epi32(127),
        )));
        let result = _mm256_mul_ps(y, scale);
        // NaN inputs pass through unchanged, as in the scalar arm.
        let nan_mask = _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x);
        _mm256_blendv_ps(result, x, nan_mask)
    }

    /// In-place sigmoid `1 / (1 + exp(-x))` over [`exp_ps`], matching
    /// the scalar [`sigmoid_lane`] op for op.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the [`dispatch!`] invariant); all
    /// loads/stores are bounded by `x.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sigmoid(x: &mut [f32]) {
        let full = x.len() / LANES * LANES;
        let one = _mm256_set1_ps(1.0);
        let sign = _mm256_set1_ps(-0.0);
        let mut p = 0;
        while p < full {
            let v = _mm256_loadu_ps(x.as_ptr().add(p));
            let e = exp_ps(_mm256_xor_ps(v, sign));
            _mm256_storeu_ps(
                x.as_mut_ptr().add(p),
                _mm256_div_ps(one, _mm256_add_ps(one, e)),
            );
            p += LANES;
        }
        for o in x[full..].iter_mut() {
            *o = sigmoid_lane(*o);
        }
    }

    /// Sigmoid backward `dy *= y * (1 - y)` from the forward output,
    /// elementwise, matching the scalar [`sigmoid_backward_lane`].
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (the [`dispatch!`] invariant) and `dy`
    /// must be at least as long as `y` (loads/stores are bounded by
    /// `y.len()`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sigmoid_backward(dy: &mut [f32], y: &[f32]) {
        let full = y.len() / LANES * LANES;
        let one = _mm256_set1_ps(1.0);
        let mut p = 0;
        while p < full {
            let dv = _mm256_loadu_ps(dy.as_ptr().add(p));
            let yv = _mm256_loadu_ps(y.as_ptr().add(p));
            let r = _mm256_mul_ps(_mm256_mul_ps(dv, yv), _mm256_sub_ps(one, yv));
            _mm256_storeu_ps(dy.as_mut_ptr().add(p), r);
            p += LANES;
        }
        for (d, &yi) in dy[full..].iter_mut().zip(y[full..].iter()) {
            *d = sigmoid_backward_lane(*d, yi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = Xoshiro256::seed_from(seed);
        (0..len).map(|_| rng.normal()).collect()
    }

    fn arms() -> Vec<SimdBackend> {
        let mut arms = vec![SimdBackend::Scalar];
        if SimdBackend::detect() == SimdBackend::Avx2 {
            arms.push(SimdBackend::Avx2);
        }
        arms
    }

    fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}[{i}]: {g} vs {w} (bits differ)"
            );
        }
    }

    #[test]
    fn parse_selects_arms() {
        assert_eq!(SimdBackend::parse("scalar"), SimdBackend::Scalar);
        assert_eq!(SimdBackend::parse(" SCALAR "), SimdBackend::Scalar);
        assert_eq!(SimdBackend::parse("auto"), SimdBackend::detect());
        assert_eq!(SimdBackend::parse(""), SimdBackend::detect());
        if SimdBackend::detect() == SimdBackend::Avx2 {
            assert_eq!(SimdBackend::parse("avx2"), SimdBackend::Avx2);
        }
        assert_eq!(SimdBackend::Scalar.to_string(), "scalar");
        assert_eq!(SimdBackend::Avx2.name(), "avx2");
    }

    #[test]
    #[should_panic(expected = "accepted values")]
    fn parse_rejects_unknown_arms_loudly() {
        let _ = SimdBackend::parse("typo");
    }

    #[test]
    fn reduce8_has_the_documented_tree() {
        // Values chosen so a different association order would round
        // differently: the documented tree must be reproduced literally.
        let lanes = [1e8f32, 1.0, -1e8, 2.0, 3.0, -4.0, 5.0, 6.0];
        let s0 = lanes[0] + lanes[4];
        let s1 = lanes[1] + lanes[5];
        let s2 = lanes[2] + lanes[6];
        let s3 = lanes[3] + lanes[7];
        let want = (s0 + s2) + (s1 + s3);
        assert_eq!(reduce8(&lanes).to_bits(), want.to_bits());
    }

    #[test]
    fn exp_lane_tracks_libm() {
        for i in -800..=800 {
            let x = i as f32 * 0.11;
            let got = exp_lane(x) as f64;
            let want = (x as f64).exp();
            let rel = if want == 0.0 {
                got.abs()
            } else {
                ((got - want) / want).abs()
            };
            // The clamp saturates to the smallest normal / inf at the
            // extremes; inside the clamp the poly stays within ~1e-6.
            if (EXP_LO..=EXP_HI).contains(&x) {
                assert!(rel < 1e-5, "exp({x}): {got} vs {want} (rel {rel})");
            }
        }
        assert_eq!(exp_lane(0.0), 1.0);
        assert!(exp_lane(f32::NAN).is_nan());
        assert_eq!(exp_lane(1000.0), f32::INFINITY);
        assert!(exp_lane(-1000.0) > 0.0, "deep negative saturates, not 0");
    }

    #[test]
    fn elementwise_ops_are_bitwise_identical_across_arms() {
        for len in [0usize, 1, 7, 8, 9, 64, 100, 1000] {
            let x = rand_vec(len, 100 + len as u64);
            let g = rand_vec(len, 200 + len as u64);
            for arm in arms() {
                let tag = format!("[{arm}] len {len}");

                let mut want = x.clone();
                super::scalar::axpy(0.37, &g, &mut want);
                let mut got = x.clone();
                axpy_with(arm, 0.37, &g, &mut got);
                assert_bits_eq(&got, &want, &format!("axpy {tag}"));

                let mut want = x.clone();
                super::scalar::scale(-1.3, &mut want);
                let mut got = x.clone();
                scale_with(arm, -1.3, &mut got);
                assert_bits_eq(&got, &want, &format!("scale {tag}"));

                let want = super::scalar::sum(&x);
                let got = sum_with(arm, &x);
                assert_eq!(got.to_bits(), want.to_bits(), "sum {tag}");

                for wd in [0.0f32, 1e-5] {
                    let mut want = x.clone();
                    super::scalar::sgd_step(&mut want, &g, 0.01, wd);
                    let mut got = x.clone();
                    sgd_step_with(arm, &mut got, &g, 0.01, wd);
                    assert_bits_eq(&got, &want, &format!("sgd(wd={wd}) {tag}"));
                }

                let step = AdamStep {
                    beta1: 0.9,
                    beta2: 0.999,
                    bias1: 0.1,
                    bias2: 0.001,
                    lr: 2e-4,
                    eps: 1e-8,
                    weight_decay: 1e-5,
                };
                let m0 = rand_vec(len, 300 + len as u64);
                let v0: Vec<f32> = rand_vec(len, 400 + len as u64)
                    .iter()
                    .map(|v| v.abs())
                    .collect();
                let (mut wp, mut wm, mut wv) = (x.clone(), m0.clone(), v0.clone());
                super::scalar::adam_step(&mut wp, &mut wm, &mut wv, &g, &step);
                let (mut gp, mut gm, mut gv) = (x.clone(), m0.clone(), v0.clone());
                adam_step_with(arm, &mut gp, &mut gm, &mut gv, &g, &step);
                assert_bits_eq(&gp, &wp, &format!("adam value {tag}"));
                assert_bits_eq(&gm, &wm, &format!("adam m {tag}"));
                assert_bits_eq(&gv, &wv, &format!("adam v {tag}"));

                let mut want = x.clone();
                super::scalar::relu(&mut want);
                let mut got = x.clone();
                relu_with(arm, &mut got);
                assert_bits_eq(&got, &want, &format!("relu {tag}"));

                let mut want = g.clone();
                super::scalar::relu_backward(&mut want, &x);
                let mut got = g.clone();
                relu_backward_with(arm, &mut got, &x);
                assert_bits_eq(&got, &want, &format!("relu_backward {tag}"));

                let mut want = x.clone();
                super::scalar::sigmoid(&mut want);
                let mut got = x.clone();
                sigmoid_with(arm, &mut got);
                assert_bits_eq(&got, &want, &format!("sigmoid {tag}"));

                let y = want;
                let mut want = g.clone();
                super::scalar::sigmoid_backward(&mut want, &y);
                let mut got = g.clone();
                sigmoid_backward_with(arm, &mut got, &y);
                assert_bits_eq(&got, &want, &format!("sigmoid_backward {tag}"));
            }
        }
    }

    #[test]
    fn special_values_are_preserved_across_arms() {
        let x = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            1.0,
            -1.0,
            f32::MIN_POSITIVE,
            100.0,
        ];
        for arm in arms() {
            let mut relu_s = x;
            super::scalar::relu(&mut relu_s);
            let mut relu_a = x;
            relu_with(arm, &mut relu_a);
            assert_bits_eq(&relu_a, &relu_s, &format!("relu specials [{arm}]"));

            let mut sig_s = x;
            super::scalar::sigmoid(&mut sig_s);
            let mut sig_a = x;
            sigmoid_with(arm, &mut sig_a);
            assert_bits_eq(&sig_a, &sig_s, &format!("sigmoid specials [{arm}]"));
            assert!(sig_a[0].is_nan(), "sigmoid must propagate NaN");
            assert_eq!(sig_a[1], 1.0, "sigmoid(+inf) = 1");
            assert_eq!(sig_a[2], 0.0, "sigmoid(-inf) = 0");
            assert_eq!(sig_a[5], sigmoid_lane(1.0));
        }
    }

    #[test]
    fn global_round_trips() {
        let before = global();
        set_global(SimdBackend::Scalar);
        assert_eq!(global(), SimdBackend::Scalar);
        set_global(before);
        assert_eq!(global(), before);
    }
}
