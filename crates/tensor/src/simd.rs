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
//! 1. **Elementwise maps** (`axpy`, `scale`, the Adam step, ReLU and
//!    sigmoid forward/backward) evaluate one fixed expression per
//!    element, built only from IEEE-exact operations (`+ - * / sqrt`,
//!    negation, comparison masks, `vminps`/`vmaxps`-style min/max).
//!    Each is written once, as a generic body over eight abstract lanes
//!    (`lanes::Lanes8`) that both arms instantiate (submodule `sweep`);
//!    a slice's last `len % 8` elements run as one padded chunk whose
//!    dead lanes are never stored. Lanes are independent, so every
//!    element gets its scalar expression's bits on either arm. **No FMA
//!    contraction is ever emitted** — a fused `a*b+c` rounds once where
//!    `mul`+`add` round twice, which would split the arms.
//! 2. **Chains** — a matrix product's output element — add their `k`
//!    products from `0.0` in strictly ascending `k` order on every arm
//!    (lanes are distinct outputs, never partial sums of one output):
//!    the order of the scalar i-k-j loop, [`crate::linalg::matmul`].
//! 3. **Reductions** ([`sum`], a dot product) accumulate into 8 virtual
//!    lanes — element `i` goes to lane `i % 8` in ascending `i` order —
//!    and the lanes are combined by the fixed tree [`reduce8`]:
//!    `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))` evaluated as pairwise
//!    sums. [`sum`] is one generic body too: its tail chunk is padded
//!    with `−0.0`, the bitwise identity of `+`, so a dead lane adds
//!    nothing and only the elements there are reach the lanes.
//! 4. **Transcendentals** (the sigmoid's `exp`) never call libm: one
//!    Cephes-style polynomial, written once over `Lanes8` with the
//!    exponent-bit `2ⁿ` scale as a lane operation, runs the same
//!    operation sequence on both arms.
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
//! `rte-tensor`'s `tests/kernel_properties.rs` holds the oracles: the
//! im2col lowering for the convolutions, and each sweep's per-element
//! expression in scalar code.
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
//! kernels themselves, convolutions (`implicit`) and sweeps (`sweep`)
//! alike, are safe code generic over `Lanes8`; the intrinsics, and the
//! `unsafe` blocks that call them, are confined to the AVX2 impl of
//! `Lanes8` in this file and the strided read it calls (the one other
//! `unsafe` block is `dispatch!`'s call into an AVX2 wrapper, whose
//! safety argument is above). A sweep's loads and stores take one
//! 8-float chunk by reference, so their bounds are the type's; the
//! convolutions' reads go only where a checked `implicit::Nest` has
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
mod lanes;
mod sweep;
pub use implicit::{
    conv_dw_acc_skip_with, conv_dw_acc_with, conv_dx_acc_padded_with, conv_dx_acc_with,
    conv_fwd_skip_with, conv_fwd_with, skippable_rows, ConvGeom, DwBatch,
};
use lanes::Scalar8;

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
    dispatch!(
        backend,
        sweep::axpy::<Scalar8>(alpha, x, y),
        avx2::axpy(alpha, x, y)
    );
}

/// `x[i] *= alpha` on the process-global arm.
pub fn scale(alpha: f32, x: &mut [f32]) {
    scale_with(global(), alpha, x);
}

/// [`scale`] with an explicit arm.
pub fn scale_with(backend: SimdBackend, alpha: f32, x: &mut [f32]) {
    dispatch!(
        backend,
        sweep::scale::<Scalar8>(alpha, x),
        avx2::scale(alpha, x)
    );
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
    dispatch!(backend, sweep::sum::<Scalar8>(x), avx2::sum(x))
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
        sweep::adam_step::<Scalar8>(value, m, v, grad, step),
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
    dispatch!(backend, sweep::relu::<Scalar8>(x), avx2::relu(x));
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
        sweep::relu_backward::<Scalar8>(dy, x),
        avx2::relu_backward(dy, x)
    );
}

/// In-place logistic sigmoid `x = 1 / (1 + exp(-x))` on the
/// process-global arm, its `exp` a polynomial (rule 4), not libm's.
pub fn sigmoid(x: &mut [f32]) {
    sigmoid_with(global(), x);
}

/// [`sigmoid`] with an explicit arm.
pub fn sigmoid_with(backend: SimdBackend, x: &mut [f32]) {
    dispatch!(backend, sweep::sigmoid::<Scalar8>(x), avx2::sigmoid(x));
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
        sweep::sigmoid_backward::<Scalar8>(dy, y),
        avx2::sigmoid_backward(dy, y)
    );
}

// ---------------------------------------------------------------------
// AVX2 arm.
// ---------------------------------------------------------------------

/// The x86 AVX2 arm: the eight lanes every kernel is instantiated over,
/// and one `#[target_feature(enable = "avx2")]` wrapper per kernel that
/// instantiates it; callers reach those only through the [`dispatch!`]
/// macro, whose safety argument lives at the single `unsafe` site.
#[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
mod avx2 {
    use super::implicit::{self, Nest};
    use super::lanes::Lanes8;
    use super::*;
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

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
        #[inline(always)]
        fn sub(self, rhs: Self) -> Self {
            // SAFETY: AVX2 is present (see `Avx8`); no memory access.
            Avx8(unsafe { _mm256_sub_ps(self.0, rhs.0) })
        }
        #[inline(always)]
        fn div(self, rhs: Self) -> Self {
            // SAFETY: AVX2 is present (see `Avx8`); no memory access.
            Avx8(unsafe { _mm256_div_ps(self.0, rhs.0) })
        }
        #[inline(always)]
        fn sqrt(self) -> Self {
            // SAFETY: AVX2 is present (see `Avx8`); no memory access.
            Avx8(unsafe { _mm256_sqrt_ps(self.0) })
        }
        #[inline(always)]
        fn neg(self) -> Self {
            // SAFETY: AVX2 is present (see `Avx8`); no memory access.
            Avx8(unsafe { _mm256_xor_ps(self.0, _mm256_set1_ps(-0.0)) })
        }
        #[inline(always)]
        fn gt(self, rhs: Self) -> Self {
            // SAFETY: AVX2 is present (see `Avx8`); no memory access.
            Avx8(unsafe { _mm256_cmp_ps::<_CMP_GT_OQ>(self.0, rhs.0) })
        }
        #[inline(always)]
        fn min(self, rhs: Self) -> Self {
            // SAFETY: AVX2 is present (see `Avx8`); no memory access.
            Avx8(unsafe { _mm256_min_ps(self.0, rhs.0) })
        }
        #[inline(always)]
        fn max(self, rhs: Self) -> Self {
            // SAFETY: AVX2 is present (see `Avx8`); no memory access.
            Avx8(unsafe { _mm256_max_ps(self.0, rhs.0) })
        }
        /// A NaN converts to `0x8000_0000`, whose `+ 127` shifted left
        /// by 23 is the bits of 1.0, as on the scalar arm.
        #[inline(always)]
        fn exp2i(self) -> Self {
            // SAFETY: AVX2 is present (see `Avx8`); no memory access.
            Avx8(unsafe {
                let n = _mm256_add_epi32(_mm256_cvtps_epi32(self.0), _mm256_set1_epi32(127));
                _mm256_castsi256_ps(_mm256_slli_epi32::<23>(n))
            })
        }
        #[inline(always)]
        fn load(chunk: &[f32; LANES]) -> Self {
            // SAFETY: AVX2 is present (see `Avx8`) and `chunk` is eight
            // readable floats; the load needs no alignment.
            Avx8(unsafe { _mm256_loadu_ps(chunk.as_ptr()) })
        }
        #[inline(always)]
        fn store(self, chunk: &mut [f32; LANES]) {
            // SAFETY: AVX2 is present (see `Avx8`) and `chunk` is eight
            // writable floats; the store needs no alignment.
            unsafe { _mm256_storeu_ps(chunk.as_mut_ptr(), self.0) };
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

    /// One `#[target_feature]` wrapper per sweep of [`super::sweep`],
    /// instantiating its body over [`Avx8`], as above for the
    /// convolutions.
    macro_rules! sweeps_over_avx8 {
        ($($name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)?;)*) => {$(
            /// [`super::sweep`]'s body over [`Avx8`].
            ///
            /// # Safety
            ///
            /// The CPU must support AVX2 (the [`dispatch!`] invariant).
            #[target_feature(enable = "avx2")]
            pub(super) unsafe fn $name($($arg: $ty),*) $(-> $ret)? {
                sweep::$name::<Avx8>($($arg),*)
            }
        )*};
    }

    sweeps_over_avx8! {
        sum(x: &[f32]) -> f32;
        axpy(alpha: f32, x: &[f32], y: &mut [f32]);
        scale(alpha: f32, x: &mut [f32]);
        adam_step(value: &mut [f32], m: &mut [f32], v: &mut [f32], grad: &[f32], s: &AdamStep);
        relu(x: &mut [f32]);
        relu_backward(dy: &mut [f32], x: &[f32]);
        sigmoid(x: &mut [f32]);
        sigmoid_backward(dy: &mut [f32], y: &[f32]);
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

    /// Every arm this machine can run; each is checked against the
    /// `Scalar` arm, the `Scalar8` instantiation of the same bodies.
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
    fn elementwise_ops_are_bitwise_identical_across_arms() {
        let scalar = SimdBackend::Scalar;
        for len in [0usize, 1, 7, 8, 9, 64, 100, 1000] {
            let x = rand_vec(len, 100 + len as u64);
            let g = rand_vec(len, 200 + len as u64);
            for arm in arms() {
                let tag = format!("[{arm}] len {len}");

                let mut want = x.clone();
                axpy_with(scalar, 0.37, &g, &mut want);
                let mut got = x.clone();
                axpy_with(arm, 0.37, &g, &mut got);
                assert_bits_eq(&got, &want, &format!("axpy {tag}"));

                let mut want = x.clone();
                scale_with(scalar, -1.3, &mut want);
                let mut got = x.clone();
                scale_with(arm, -1.3, &mut got);
                assert_bits_eq(&got, &want, &format!("scale {tag}"));

                let want = sum_with(scalar, &x);
                let got = sum_with(arm, &x);
                assert_eq!(got.to_bits(), want.to_bits(), "sum {tag}");

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
                adam_step_with(scalar, &mut wp, &mut wm, &mut wv, &g, &step);
                let (mut gp, mut gm, mut gv) = (x.clone(), m0.clone(), v0.clone());
                adam_step_with(arm, &mut gp, &mut gm, &mut gv, &g, &step);
                assert_bits_eq(&gp, &wp, &format!("adam value {tag}"));
                assert_bits_eq(&gm, &wm, &format!("adam m {tag}"));
                assert_bits_eq(&gv, &wv, &format!("adam v {tag}"));

                let mut want = x.clone();
                relu_with(scalar, &mut want);
                let mut got = x.clone();
                relu_with(arm, &mut got);
                assert_bits_eq(&got, &want, &format!("relu {tag}"));

                let mut want = g.clone();
                relu_backward_with(scalar, &mut want, &x);
                let mut got = g.clone();
                relu_backward_with(arm, &mut got, &x);
                assert_bits_eq(&got, &want, &format!("relu_backward {tag}"));

                let mut want = x.clone();
                sigmoid_with(scalar, &mut want);
                let mut got = x.clone();
                sigmoid_with(arm, &mut got);
                assert_bits_eq(&got, &want, &format!("sigmoid {tag}"));

                let y = want;
                let mut want = g.clone();
                sigmoid_backward_with(scalar, &mut want, &y);
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
            relu_with(SimdBackend::Scalar, &mut relu_s);
            let mut relu_a = x;
            relu_with(arm, &mut relu_a);
            assert_bits_eq(&relu_a, &relu_s, &format!("relu specials [{arm}]"));

            let mut sig_s = x;
            sigmoid_with(SimdBackend::Scalar, &mut sig_s);
            let mut sig_a = x;
            sigmoid_with(arm, &mut sig_a);
            assert_bits_eq(&sig_a, &sig_s, &format!("sigmoid specials [{arm}]"));
            assert!(sig_a[0].is_nan(), "sigmoid must propagate NaN");
            assert_eq!(sig_a[1], 1.0, "sigmoid(+inf) = 1");
            assert_eq!(sig_a[2], 0.0, "sigmoid(-inf) = 0");
            let want = 1.0 / (1.0 + (-1.0f64).exp());
            let rel = ((sig_a[5] as f64 - want) / want).abs();
            assert!(rel < 1e-5, "sigmoid(1) = {} vs {want}", sig_a[5]);
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
