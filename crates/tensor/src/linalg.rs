//! Dense matrix multiplication primitives.
//!
//! The strided and transposed convolutions in [`crate::conv`] lower to
//! these routines via im2col (stride-1 convolutions run implicit-GEMM
//! kernels that keep the same accumulation orders). All routines
//! operate on row-major slices so they can run on scratch buffers
//! without allocating.
//!
//! Since the SIMD backend landed, the production entry points here are
//! thin dispatchers over [`crate::simd`]: the process-global
//! [`SimdBackend`](crate::simd::SimdBackend) (env knob `RTE_SIMD`)
//! selects between a packed AVX2 micro-kernel GEMM and a blocked,
//! bounds-check-free scalar arm. The arms are **bit-identical** — see
//! the lane-ordered reduction contract in [`crate::simd`]:
//!
//! - [`matmul`] / [`matmul_tn`] accumulate each output element over `k`
//!   in strictly ascending order on every arm, so results match the
//!   scalar reference [`matmul_naive`] bit for bit — with one deliberate
//!   historical exception carried over from the register-blocking PR:
//!   no kernel skips `a == 0.0` terms, so IEEE `0 × inf = NaN`
//!   propagation is preserved.
//! - [`matmul_nt_acc`] computes each output element as an 8-lane
//!   virtual-SIMD dot product (lane `i % 8`, fixed
//!   [`reduce8`](crate::simd::reduce8) tree) — the same order on every
//!   arm, chosen so the vector arm can keep the lanes in registers.
//!
//! [`matmul_naive`] remains the untouched scalar i-k-j reference and the
//! baseline of the kernel benchmarks.

use crate::simd;

/// `out = A @ B` where `A` is `m×k`, `B` is `k×n`, `out` is `m×n`.
///
/// Dispatches to the process-global [`crate::simd`] arm. Per output
/// element the `k` accumulation order is strictly ascending on every
/// arm, so the result is bit-identical to [`matmul_naive`] (and across
/// arms, thread counts and machines).
///
/// # Panics
///
/// Panics if any slice length is inconsistent with the given dimensions.
pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    simd::matmul(a, b, m, k, n, out);
}

/// Scalar i-k-j reference kernel: the original pre-blocking
/// implementation, kept for correctness cross-checks and as the baseline
/// in the kernel benchmarks (`cargo bench -p rte-bench --bench kernels`).
///
/// # Panics
///
/// Panics if any slice length is inconsistent with the given dimensions.
pub fn matmul_naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "matmul_naive: lhs length");
    assert_eq!(b.len(), k * n, "matmul_naive: rhs length");
    assert_eq!(out.len(), m * n, "matmul_naive: out length");
    out.iter_mut().for_each(|x| *x = 0.0);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (p, &a_ip) in a_row.iter().enumerate() {
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &b_pj) in out_row.iter_mut().zip(b_row.iter()) {
                *o += a_ip * b_pj;
            }
        }
    }
}

/// `out = Aᵀ @ B` where `A` is `k×m` (so `Aᵀ` is `m×k`), `B` is `k×n`.
///
/// Dispatches to the process-global [`crate::simd`] arm; same
/// ascending-`k` per-element accumulation order as [`matmul`].
///
/// # Panics
///
/// Panics if any slice length is inconsistent with the given dimensions.
pub fn matmul_tn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    simd::matmul_tn(a, b, m, k, n, out);
}

/// `out += A @ Bᵀ` where `A` is `m×k`, `B` is `n×k` (so `Bᵀ` is `k×n`).
///
/// Accumulating (`+=`) because the convolution weight gradient sums over
/// the batch; zero `out` first when a plain product is needed.
///
/// Dispatches to the process-global [`crate::simd`] arm. Each output
/// element is an 8-lane virtual-SIMD dot product over `k` with the fixed
/// [`reduce8`](crate::simd::reduce8) lane tree — identical on every arm.
///
/// # Panics
///
/// Panics if any slice length is inconsistent with the given dimensions.
pub fn matmul_nt_acc(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    simd::matmul_nt_acc(a, b, m, k, n, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    #[test]
    fn matmul_small() {
        // [1 2; 3 4] @ [5 6; 7 8] = [19 22; 43 50]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut out = [0.0; 4];
        matmul(&a, &b, 2, 2, 2, &mut out);
        assert_eq!(out, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        // (1x3) @ (3x2)
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        let mut out = [0.0; 2];
        matmul(&a, &b, 1, 3, 2, &mut out);
        assert_eq!(out, [4.0, 5.0]);
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

    #[test]
    fn identity_is_neutral() {
        let a = [3.0, -1.0, 0.5, 2.0];
        let eye = [1.0, 0.0, 0.0, 1.0];
        let mut out = [0.0; 4];
        matmul(&a, &eye, 2, 2, 2, &mut out);
        assert_eq!(out, a);
    }

    fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = Xoshiro256::seed_from(seed);
        (0..len).map(|_| rng.normal()).collect()
    }

    /// The dispatched kernels preserve the per-element accumulation
    /// order of the scalar reference kernel, so all shapes — including
    /// remainder rows/columns when the dimension is not a multiple of
    /// the register block — must agree bit for bit.
    #[test]
    fn dispatched_kernels_match_reference_bitwise() {
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 2),
            (4, 7, 9),
            (5, 3, 6),
            (9, 4, 13),
            (8, 8, 8),
            (17, 40, 23),
        ] {
            let a = rand_vec(m * k, 1000 + (m * k * n) as u64);
            let b = rand_vec(k * n, 2000 + (m + k + n) as u64);
            let mut want = vec![0.0f32; m * n];
            matmul_naive(&a, &b, m, k, n, &mut want);
            let mut got = vec![0.0f32; m * n];
            matmul(&a, &b, m, k, n, &mut got);
            assert_eq!(got, want, "matmul {m}x{k}x{n}");

            // matmul_tn: build Aᵀ explicitly, compare against reference.
            let at = rand_vec(k * m, 3000 + (m * n) as u64); // stored k×m
            let mut a_rowmajor = vec![0.0f32; m * k]; // m×k
            for p in 0..k {
                for i in 0..m {
                    a_rowmajor[i * k + p] = at[p * m + i];
                }
            }
            let mut want_tn = vec![0.0f32; m * n];
            matmul_naive(&a_rowmajor, &b, m, k, n, &mut want_tn);
            let mut got_tn = vec![0.0f32; m * n];
            matmul_tn(&at, &b, m, k, n, &mut got_tn);
            assert_eq!(got_tn, want_tn, "matmul_tn {m}x{k}x{n}");

            // matmul_nt_acc against a transpose-then-reference product.
            let bt = rand_vec(n * k, 4000 + (k * n) as u64); // stored n×k
            let mut b_kn = vec![0.0f32; k * n];
            for j in 0..n {
                for p in 0..k {
                    b_kn[p * n + j] = bt[j * k + p];
                }
            }
            let mut want_nt = vec![0.0f32; m * n];
            matmul_naive(&a, &b_kn, m, k, n, &mut want_nt);
            let mut got_nt = vec![0.0f32; m * n];
            matmul_nt_acc(&a, &bt, m, k, n, &mut got_nt);
            for (g, w) in got_nt.iter().zip(want_nt.iter()) {
                // The 8-lane dot-product accumulation differs in
                // rounding from the i-k-j reference, so compare
                // numerically here (cross-arm bit-identity is pinned in
                // crate::simd and tests/simd_determinism.rs).
                assert!((g - w).abs() <= 1e-4 * (1.0 + w.abs()), "{g} vs {w}");
            }
        }
    }

    /// Regression for the zero-skip bug: `0 × NaN` and `0 × inf` must
    /// poison the product (IEEE 754), not be silently skipped.
    #[test]
    fn zero_times_nonfinite_propagates() {
        // A = [0 1], B = [[NaN], [2]]: out = 0·NaN + 1·2 = NaN.
        let a = [0.0f32, 1.0];
        let b = [f32::NAN, 2.0];
        let mut out = [0.0f32; 1];
        matmul(&a, &b, 1, 2, 1, &mut out);
        assert!(out[0].is_nan(), "matmul swallowed 0×NaN: {}", out[0]);

        // Same structure for Aᵀ: A is k×m = 2×1 with a zero in row 0.
        let a_t = [0.0f32, 1.0];
        let b2 = [f32::INFINITY, 2.0];
        let mut out_tn = [0.0f32; 1];
        matmul_tn(&a_t, &b2, 1, 2, 1, &mut out_tn);
        assert!(
            out_tn[0].is_nan(),
            "matmul_tn swallowed 0×inf: {}",
            out_tn[0]
        );

        // And a register-blocked-path (m ≥ 4) case: every row sees the
        // NaN column.
        let m = 5;
        let a_blk: Vec<f32> = (0..m * 2)
            .map(|i| if i % 2 == 0 { 0.0 } else { 1.0 })
            .collect();
        let b_blk = [f32::NAN, 3.0];
        let mut out_blk = vec![0.0f32; m];
        matmul(&a_blk, &b_blk, m, 2, 1, &mut out_blk);
        assert!(out_blk.iter().all(|v| v.is_nan()), "{out_blk:?}");
    }
}
