//! The eight `f32` lanes every kernel of [`crate::simd`] is written
//! over — the implicit-GEMM convolutions of `implicit` and the
//! elementwise sweeps of the parent alike — and the portable arm's
//! [`Scalar8`]; the AVX2 arm's lanes live with its intrinsics in the
//! parent.

use super::implicit::{Nest, Walk};
use super::{reduce8, LANES};
use std::ops::Range;

/// Eight `f32` lanes — the register of the 8-lane virtual machine. A
/// kernel body generic over this trait is the *one* statement of its
/// accumulation order; an arm is an impl ([`Scalar8`], `avx2::Avx8`).
/// Every arithmetic method is one IEEE-exact operation per lane, never
/// fused.
pub(super) trait Lanes8: Copy {
    /// Whether the arm has registers for a tile of eight accumulators
    /// beside its operands (sixteen 8-lane registers); an arm without
    /// gets tiles of four. A tile's shape decides which loads are
    /// shared, never what is added to what.
    const WIDE: bool;
    /// All lanes `v`.
    fn splat(v: f32) -> Self;
    /// The lanes, in order.
    fn to_array(self) -> [f32; LANES];
    /// Lane-wise `self + rhs`.
    fn add(self, rhs: Self) -> Self;
    /// Lane-wise `self · rhs`.
    fn mul(self, rhs: Self) -> Self;
    /// Lane-wise bitwise and: `self` where `mask`'s bits are all ones,
    /// `+0.0` where they are all zero.
    fn and(self, mask: Self) -> Self;
    /// Lane-wise `self − rhs`.
    fn sub(self, rhs: Self) -> Self;
    /// Lane-wise `self / rhs`.
    fn div(self, rhs: Self) -> Self;
    /// Lane-wise square root.
    fn sqrt(self) -> Self;
    /// Lane-wise `−self`: the sign bit flipped, a NaN's too.
    fn neg(self) -> Self;
    /// Lane-wise `self > rhs` as a mask for [`Lanes8::and`]: all ones
    /// where it holds, all zeros where it does not (a NaN operand
    /// included).
    fn gt(self, rhs: Self) -> Self;
    /// `vminps`: lane-wise `if self < rhs { self } else { rhs }`, so
    /// `rhs` where either is NaN and where they compare equal.
    fn min(self, rhs: Self) -> Self;
    /// `vmaxps`: lane-wise `if self > rhs { self } else { rhs }`.
    fn max(self, rhs: Self) -> Self;
    /// `2ⁿ` built from exponent bits, for lanes holding an integer `n`
    /// in `[−126, 128]` (128 gives `+∞`); a NaN lane gives 1.0 on every
    /// arm.
    fn exp2i(self) -> Self;
    /// The eight floats of one chunk of a slice.
    fn load(chunk: &[f32; LANES]) -> Self;
    /// Writes the lanes to one chunk.
    fn store(self, chunk: &mut [f32; LANES]);
    /// Lane `t` is [`reduce8`] of `acc[t]`.
    fn reduce(acc: &[Self; LANES]) -> Self;
    /// Runs the iterations `part` of `nest` in order, innermost loop
    /// fastest, calling `f` with what the three walks read at each when
    /// they start from `a`, `b` and `c`; panics, before the first call,
    /// if a read would fall outside its slice.
    fn run<const STRIDED: bool, const A: usize, const B: usize, const C: usize>(
        nest: &Nest<STRIDED>,
        starts: (&[usize; A], &[usize; B], &[usize; C]),
        part: [Range<usize>; 3],
        f: impl FnMut([Self; A], [Self; B], [Self; C]),
    );
}

/// The portable arm's lanes: an array the compiler may or may not
/// vectorize; the operations per lane are the same either way.
#[derive(Clone, Copy)]
pub(super) struct Scalar8(pub(super) [f32; LANES]);

impl Scalar8 {
    /// `f` of each lane of `self` and the same lane of `rhs`.
    #[inline(always)]
    fn zip(self, rhs: Self, f: impl Fn(f32, f32) -> f32) -> Self {
        Scalar8(std::array::from_fn(|l| f(self.0[l], rhs.0[l])))
    }

    /// What `walk` reads `offset` away from each of `starts`.
    #[inline(always)]
    fn read<const STRIDED: bool, const N: usize>(
        walk: &Walk,
        starts: &[usize; N],
        offset: isize,
    ) -> [Self; N] {
        let from = |i: usize| &walk.src[starts[i].wrapping_add_signed(offset)..];
        if STRIDED && walk.lane > 1 {
            let step = walk.lane;
            return std::array::from_fn(|i| {
                let from = &from(i)[..(LANES - 1) * step + 1];
                Scalar8(std::array::from_fn(|l| from[l * step]))
            });
        }
        // (`from_fn`, not `map`: an array `map` of a closure this size
        // is compiled as a call, with the accumulators spilled around it.)
        std::array::from_fn(|i| {
            let from = from(i);
            if walk.lane == 0 {
                Self::splat(from[0])
            } else {
                Scalar8(from[..LANES].try_into().expect("eight lanes"))
            }
        })
    }
}

impl Lanes8 for Scalar8 {
    // Sixteen 4-lane registers at best: eight of these values.
    const WIDE: bool = false;
    #[inline(always)]
    fn splat(v: f32) -> Self {
        Scalar8([v; LANES])
    }
    #[inline(always)]
    fn to_array(self) -> [f32; LANES] {
        self.0
    }
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Scalar8(std::array::from_fn(|l| self.0[l] + rhs.0[l]))
    }
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Scalar8(std::array::from_fn(|l| self.0[l] * rhs.0[l]))
    }
    #[inline(always)]
    fn and(self, mask: Self) -> Self {
        Scalar8(std::array::from_fn(|l| {
            f32::from_bits(self.0[l].to_bits() & mask.0[l].to_bits())
        }))
    }
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        self.zip(rhs, |a, b| a - b)
    }
    #[inline(always)]
    fn div(self, rhs: Self) -> Self {
        self.zip(rhs, |a, b| a / b)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        Scalar8(self.0.map(f32::sqrt))
    }
    #[inline(always)]
    fn neg(self) -> Self {
        Scalar8(self.0.map(|v| -v))
    }
    #[inline(always)]
    fn gt(self, rhs: Self) -> Self {
        self.zip(rhs, |a, b| f32::from_bits(if a > b { u32::MAX } else { 0 }))
    }
    #[inline(always)]
    fn min(self, rhs: Self) -> Self {
        self.zip(rhs, |a, b| if a < b { a } else { b })
    }
    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        self.zip(rhs, |a, b| if a > b { a } else { b })
    }
    #[inline(always)]
    fn exp2i(self) -> Self {
        // `as` takes a NaN to 0, so its lane is 2⁰.
        Scalar8(
            self.0
                .map(|n| f32::from_bits(((n as i32 + 127) << 23) as u32)),
        )
    }
    #[inline(always)]
    fn load(chunk: &[f32; LANES]) -> Self {
        Scalar8(*chunk)
    }
    #[inline(always)]
    fn store(self, chunk: &mut [f32; LANES]) {
        *chunk = self.0;
    }
    #[inline(always)]
    fn reduce(acc: &[Self; LANES]) -> Self {
        Scalar8(std::array::from_fn(|t| reduce8(&acc[t].0)))
    }
    #[inline(always)]
    fn run<const STRIDED: bool, const A: usize, const B: usize, const C: usize>(
        nest: &Nest<STRIDED>,
        starts: (&[usize; A], &[usize; B], &[usize; C]),
        part: [Range<usize>; 3],
        mut f: impl FnMut([Self; A], [Self; B], [Self; C]),
    ) {
        let Some(part) = nest.admit([starts.0, starts.1, starts.2], part) else {
            return;
        };
        // One running offset per walk and loop, as in the AVX2 arm.
        let [a, b, c] = &nest.walks;
        let first = std::array::from_fn(|l| part[l].start);
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
                        Self::read::<STRIDED, A>(a, starts.0, inner[0]),
                        Self::read::<STRIDED, B>(b, starts.1, inner[1]),
                        Self::read::<STRIDED, C>(c, starts.2, inner[2]),
                    );
                    advance(&mut inner, 2);
                }
                advance(&mut middle, 1);
            }
            advance(&mut outer, 0);
        }
    }
}
