//! The elementwise sweeps of [`crate::simd`] — contract rules 1, 3 and 4
//! of the parent module — each written **once**: a generic body over the
//! eight abstract lanes of [`Lanes8`] on one driver, [`lanes`],
//! instantiated for the portable `Scalar8` and, through a
//! `#[target_feature]` wrapper each, for the AVX2 lanes in the parent.
//! Lanes are independent, so every element gets the bits of its scalar
//! expression on either arm and wherever it falls in the slice.

use super::lanes::Lanes8;
use super::{reduce8, AdamStep, LANES};

/// Runs `f` over slices that are only read (`read`) and slices that are
/// updated in place (`write`), all `len` long, eight elements at a time:
/// the full chunks first, then the last `len % 8` elements as one chunk
/// padded with `−0.0`, whose dead lanes are never stored. `−0.0` is the
/// identity of `+`, bit for bit, so a dead lane adds nothing to a
/// lane-wise sum either.
///
/// Every `f` below is `#[inline(always)]`: a closure does not take on
/// the target feature of the AVX2 wrapper it ends up in, so one that is
/// not inlined into it calls each intrinsic instead of emitting it (the
/// sigmoid ran 25× slower so).
#[inline(always)]
fn lanes<V: Lanes8, const R: usize, const W: usize>(
    len: usize,
    read: [&[f32]; R],
    mut write: [&mut [f32]; W],
    mut f: impl FnMut([V; R], [V; W]) -> [V; W],
) {
    let full = len / LANES;
    for i in 0..full {
        let out = f(
            std::array::from_fn(|k| V::load(chunk(read[k], i))),
            std::array::from_fn(|k| V::load(chunk(write[k], i))),
        );
        for k in 0..W {
            out[k].store(chunk_mut(write[k], i));
        }
    }
    let tail = full * LANES..len;
    if tail.is_empty() {
        return;
    }
    let pad = |s: &[f32]| {
        let mut chunk = [-0.0; LANES];
        chunk[..tail.len()].copy_from_slice(&s[tail.clone()]);
        V::load(&chunk)
    };
    let out = f(read.map(pad), std::array::from_fn(|k| pad(write[k])));
    for (lanes, s) in out.into_iter().zip(&mut write) {
        s[tail.clone()].copy_from_slice(&lanes.to_array()[..tail.len()]);
    }
}

/// Chunk `i` of `s`.
#[inline(always)]
fn chunk(s: &[f32], i: usize) -> &[f32; LANES] {
    s[i * LANES..][..LANES].try_into().expect("a full chunk")
}

/// Chunk `i` of `s`, to write.
#[inline(always)]
fn chunk_mut(s: &mut [f32], i: usize) -> &mut [f32; LANES] {
    (&mut s[i * LANES..][..LANES])
        .try_into()
        .expect("a full chunk")
}

/// Lane-ordered sum (rule 3): element `i` into lane `i % 8` in
/// ascending `i`, the lanes combined by [`reduce8`].
#[inline(always)]
pub(super) fn sum<V: Lanes8>(x: &[f32]) -> f32 {
    let mut acc = V::splat(0.0);
    lanes::<V, 1, 0>(
        x.len(),
        [x],
        [],
        #[inline(always)]
        |[x], []| {
            acc = acc.add(x);
            []
        },
    );
    reduce8(&acc.to_array())
}

/// `y + alpha · x`.
#[inline(always)]
pub(super) fn axpy<V: Lanes8>(alpha: f32, x: &[f32], y: &mut [f32]) {
    let alpha = V::splat(alpha);
    lanes::<V, 1, 1>(
        y.len(),
        [x],
        [y],
        #[inline(always)]
        |[x], [y]| [y.add(alpha.mul(x))],
    );
}

/// `x · alpha`.
#[inline(always)]
pub(super) fn scale<V: Lanes8>(alpha: f32, x: &mut [f32]) {
    let alpha = V::splat(alpha);
    lanes::<V, 0, 1>(
        x.len(),
        [],
        [x],
        #[inline(always)]
        |[], [x]| [x.mul(alpha)],
    );
}

/// One Adam step: the weight decay folded into the gradient (when it is
/// not 0), the moments updated, and the bias-corrected step taken.
#[inline(always)]
pub(super) fn adam_step<V: Lanes8>(
    value: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    grad: &[f32],
    s: &AdamStep,
) {
    let decay = s.weight_decay != 0.0;
    let [wd, beta1, keep1, beta2, keep2, bias1, bias2, lr, eps] = [
        s.weight_decay,
        s.beta1,
        1.0 - s.beta1,
        s.beta2,
        1.0 - s.beta2,
        s.bias1,
        s.bias2,
        s.lr,
        s.eps,
    ]
    .map(V::splat);
    let len = value.len();
    lanes::<V, 1, 3>(
        len,
        [grad],
        [value, m, v],
        #[inline(always)]
        |[g], [value, m, v]| {
            let g = if decay { g.add(wd.mul(value)) } else { g };
            let m = beta1.mul(m).add(keep1.mul(g));
            let v = beta2.mul(v).add(keep2.mul(g).mul(g));
            let (m_hat, v_hat) = (m.div(bias1), v.div(bias2));
            [value.sub(lr.mul(m_hat).div(v_hat.sqrt().add(eps))), m, v]
        },
    );
}

/// `x` where `x > 0`, else `+0.0` (NaN included).
#[inline(always)]
pub(super) fn relu<V: Lanes8>(x: &mut [f32]) {
    let zero = V::splat(0.0);
    lanes::<V, 0, 1>(
        x.len(),
        [],
        [x],
        #[inline(always)]
        |[], [x]| [x.and(x.gt(zero))],
    );
}

/// `dy` where `x > 0`, else `+0.0`.
#[inline(always)]
pub(super) fn relu_backward<V: Lanes8>(dy: &mut [f32], x: &[f32]) {
    let zero = V::splat(0.0);
    lanes::<V, 1, 1>(
        dy.len(),
        [x],
        [dy],
        #[inline(always)]
        |[x], [dy]| [dy.and(x.gt(zero))],
    );
}

/// `1 / (1 + exp(−x))`.
#[inline(always)]
pub(super) fn sigmoid<V: Lanes8>(x: &mut [f32]) {
    let one = V::splat(1.0);
    lanes::<V, 0, 1>(
        x.len(),
        [],
        [x],
        #[inline(always)]
        |[], [x]| [one.div(one.add(exp(x.neg())))],
    );
}

/// `(dy · y) · (1 − y)`, `y` the sigmoid's output.
#[inline(always)]
pub(super) fn sigmoid_backward<V: Lanes8>(dy: &mut [f32], y: &[f32]) {
    let one = V::splat(1.0);
    lanes::<V, 1, 1>(
        dy.len(),
        [y],
        [dy],
        #[inline(always)]
        |[y], [dy]| [dy.mul(y).mul(one.sub(y))],
    );
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
const EXP_P: [f32; 6] = [
    1.987_569_1e-4,
    1.398_2e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    1.666_666_5e-1,
    5.000_000_3e-1,
];

/// Polynomial `expf` (rule 4): Cephes-style range reduction
/// (`x = n·ln2 + r`, `|r| ≤ ln2/2`), a degree-5 minimax polynomial and
/// an exponent-bit `2ⁿ` scale, every step an IEEE-exact operation in a
/// fixed order. About 2 ulp on the reduced range (ample for the
/// sigmoid); out-of-range inputs saturate to `+inf` / the smallest
/// normal instead of libm's gradual underflow. The clamp puts `x` second
/// in `min` and `max`, which return their second operand for a NaN, so
/// a NaN goes through every step unchanged but for being quieted.
#[inline(always)]
fn exp<V: Lanes8>(x: V) -> V {
    let xc = V::splat(EXP_LO).max(V::splat(EXP_HI).min(x));
    let magic = V::splat(EXP_MAGIC);
    let n = xc.mul(V::splat(EXP_LOG2E)).add(magic).sub(magic);
    let r = xc.sub(n.mul(V::splat(EXP_LN2_HI)));
    let r = r.sub(n.mul(V::splat(EXP_LN2_LO)));
    let [p0, p1, p2, p3, p4, p5] = EXP_P.map(V::splat);
    let y = p0.mul(r).add(p1).mul(r).add(p2).mul(r).add(p3);
    let y = y.mul(r).add(p4).mul(r).add(p5);
    let y = y.mul(r).mul(r).add(r).add(V::splat(1.0));
    y.mul(n.exp2i())
}
