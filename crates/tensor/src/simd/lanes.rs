//! The registers every kernel of [`crate::simd`] is written over — the
//! implicit-GEMM convolutions of `implicit` over [`Lanes`], the
//! elementwise sweeps of the parent over [`Lanes8`] — and the portable
//! arm's [`Scalar`]; the x86 arms' lanes live with their intrinsics in
//! the parent.

use super::implicit::{Nest, Walk};
use super::{reduce8, LANES};
use std::ops::Range;

/// One register of the 8-lane virtual machine: `GROUPS` independent
/// groups of eight `f32` lanes side by side. A convolution body generic
/// over this trait is the *one* statement of its accumulation order; an
/// arm is an impl ([`Scalar`], `avx2::Avx8`, `avx512::Avx16`). Every
/// arithmetic method is one IEEE-exact operation per lane, never fused,
/// so a group computes what a one-group register would: where a body
/// puts its groups (two column blocks, two channels) decides which
/// loads are shared, never what is added to what.
pub(super) trait Lanes: Copy {
    /// How many values of this type the arm's register file holds beside
    /// nothing else: 8 for a portable register (sixteen 4-lane ones at
    /// best), 16 on AVX2, 32 on AVX-512. A tile's shape follows from it
    /// and decides which loads are shared, never what is added to what.
    const REGISTERS: usize;
    /// Independent groups of eight lanes in one register.
    const GROUPS: usize;
    /// The lanes as plain floats, group by group.
    type Array: Copy + AsRef<[[f32; LANES]]>;
    /// All lanes `v`.
    fn splat(v: f32) -> Self;
    /// Lane-wise `self + rhs`.
    fn add(self, rhs: Self) -> Self;
    /// Lane-wise `self · rhs`.
    fn mul(self, rhs: Self) -> Self;
    /// Lane-wise bitwise and: `self` where `mask`'s bits are all ones,
    /// `+0.0` where they are all zero.
    fn and(self, mask: Self) -> Self;
    /// The lanes, group by group and in order within a group.
    fn to_array(self) -> Self::Array;
    /// Lane `t` of group `g` is [`reduce8`] of group `g` of `acc[t]`.
    fn reduce(acc: &[Self; LANES]) -> Self;
    /// Runs the iterations `part` of `nest` in order, innermost loop
    /// fastest, calling `f` with what the three walks read at each when
    /// they start from `a`, `b` and `c` — group `g` of a read
    /// `g · walk.group` floats on from group 0's; panics, before the
    /// first call, if a read would fall outside its slice.
    fn run<const STRIDED: bool, const A: usize, const B: usize, const C: usize>(
        nest: &Nest<STRIDED>,
        starts: (&[usize; A], &[usize; B], &[usize; C]),
        part: [Range<usize>; 3],
        f: impl FnMut([Self; A], [Self; B], [Self; C]),
    );
}

/// A one-group register with the rest of the elementwise operations —
/// what the sweeps are written over.
pub(super) trait Lanes8: Lanes<Array = [[f32; LANES]; 1]> {
    /// Lane-wise `self − rhs`.
    fn sub(self, rhs: Self) -> Self;
    /// Lane-wise `self / rhs`.
    fn div(self, rhs: Self) -> Self;
    /// Lane-wise square root.
    fn sqrt(self) -> Self;
    /// Lane-wise `−self`: the sign bit flipped, a NaN's too.
    fn neg(self) -> Self;
    /// Lane-wise `self > rhs` as a mask for [`Lanes::and`]: all ones
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
}

/// The portable arm's registers: `G` groups of an array the compiler may
/// or may not vectorize; the operations per lane are the same either
/// way. `Scalar<1>` is the `Scalar` arm; `Scalar<2>` runs the paired
/// convolution bodies of the AVX-512 arm, tile for tile, on any CPU
/// (the `rte_portable_pairs` configuration of the `Scalar` arm).
#[derive(Clone, Copy)]
pub(super) struct Scalar<const G: usize>(pub(super) [[f32; LANES]; G]);

/// The `Scalar` arm's one-group register.
pub(super) type Scalar8 = Scalar<1>;

impl<const G: usize> Scalar<G> {
    /// `f` of each lane of `self` and the same lane of `rhs`.
    #[inline(always)]
    fn zip(self, rhs: Self, f: impl Fn(f32, f32) -> f32) -> Self {
        Scalar(std::array::from_fn(|g| {
            std::array::from_fn(|l| f(self.0[g][l], rhs.0[g][l]))
        }))
    }

    /// `f` of each lane of `self`.
    #[inline(always)]
    fn each(self, f: impl Fn(f32) -> f32) -> Self {
        Scalar(self.0.map(|group| group.map(&f)))
    }

    /// What `walk` reads `offset` away from each of `starts`.
    #[inline(always)]
    fn read<const STRIDED: bool, const N: usize>(
        walk: &Walk,
        starts: &[usize; N],
        offset: isize,
    ) -> [Self; N] {
        let from = |i: usize, g: usize| {
            &walk.src[starts[i].wrapping_add_signed(offset) + g * walk.group..]
        };
        if STRIDED && walk.lane > 1 {
            let step = walk.lane;
            return std::array::from_fn(|i| {
                Scalar(std::array::from_fn(|g| {
                    let from = &from(i, g)[..(LANES - 1) * step + 1];
                    std::array::from_fn(|l| from[l * step])
                }))
            });
        }
        // (`from_fn`, not `map`: an array `map` of a closure this size
        // is compiled as a call, with the accumulators spilled around it.)
        std::array::from_fn(|i| {
            Scalar(std::array::from_fn(|g| {
                let from = from(i, g);
                if walk.lane == 0 {
                    [from[0]; LANES]
                } else {
                    from[..LANES].try_into().expect("eight lanes")
                }
            }))
        })
    }
}

impl<const G: usize> Lanes for Scalar<G> {
    // Sixteen 4-lane registers at best: eight one-group values. A pair
    // takes the AVX-512 arm's tiles, which it stands in for.
    const REGISTERS: usize = if G == 1 { 8 } else { 32 };
    const GROUPS: usize = G;
    type Array = [[f32; LANES]; G];
    #[inline(always)]
    fn splat(v: f32) -> Self {
        Scalar([[v; LANES]; G])
    }
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Scalar(std::array::from_fn(|g| {
            std::array::from_fn(|l| self.0[g][l] + rhs.0[g][l])
        }))
    }
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Scalar(std::array::from_fn(|g| {
            std::array::from_fn(|l| self.0[g][l] * rhs.0[g][l])
        }))
    }
    #[inline(always)]
    fn and(self, mask: Self) -> Self {
        self.zip(mask, |a, m| f32::from_bits(a.to_bits() & m.to_bits()))
    }
    #[inline(always)]
    fn to_array(self) -> Self::Array {
        self.0
    }
    #[inline(always)]
    fn reduce(acc: &[Self; LANES]) -> Self {
        Scalar(std::array::from_fn(|g| {
            std::array::from_fn(|t| reduce8(&acc[t].0[g]))
        }))
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
        // One running offset per walk and loop, as in the x86 arms.
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

impl Lanes8 for Scalar8 {
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
        self.each(f32::sqrt)
    }
    #[inline(always)]
    fn neg(self) -> Self {
        self.each(|v| -v)
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
        self.each(|n| f32::from_bits(((n as i32 + 127) << 23) as u32))
    }
    #[inline(always)]
    fn load(chunk: &[f32; LANES]) -> Self {
        Scalar([*chunk])
    }
    #[inline(always)]
    fn store(self, chunk: &mut [f32; LANES]) {
        *chunk = self.0[0];
    }
}
