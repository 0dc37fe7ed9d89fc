//! The scalar reference matrix product.
//!
//! No convolution runs through a matrix product: every
//! [`crate::conv`] entry point runs the implicit kernels of
//! [`crate::simd`], which state their accumulation orders in terms of
//! one. [`matmul`] is that statement as code — each output element adds
//! its `k` products from `0.0` in strictly ascending order — kept public
//! as the plain i-k-j loop for cross-checks and as the baseline of the
//! matrix-product probe of the end-to-end benchmark.

/// `out = A @ B` where `A` is `m×k`, `B` is `k×n`, `out` is `m×n`, all
/// row-major: the scalar i-k-j loop. No product is skipped, so IEEE
/// `0 × inf = NaN` propagates.
///
/// # Panics
///
/// Panics if any slice length is inconsistent with the given dimensions.
pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "matmul: lhs length");
    assert_eq!(b.len(), k * n, "matmul: rhs length");
    assert_eq!(out.len(), m * n, "matmul: out length");
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn identity_is_neutral() {
        let a = [3.0, -1.0, 0.5, 2.0];
        let eye = [1.0, 0.0, 0.0, 1.0];
        let mut out = [0.0; 4];
        matmul(&a, &eye, 2, 2, 2, &mut out);
        assert_eq!(out, a);
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

        // Every row of a taller product sees the infinite column.
        let m = 5;
        let a_blk: Vec<f32> = (0..m * 2)
            .map(|i| if i % 2 == 0 { 0.0 } else { 1.0 })
            .collect();
        let b_blk = [f32::INFINITY, 3.0];
        let mut out_blk = vec![0.0f32; m];
        matmul(&a_blk, &b_blk, m, 2, 1, &mut out_blk);
        assert!(out_blk.iter().all(|v| v.is_nan()), "{out_blk:?}");
    }
}
