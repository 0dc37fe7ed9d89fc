//! Reusable composite blocks.

use rte_tensor::Tensor;

use crate::{Layer, NnError, Param, Sequential};

/// Residual wrapper: `y = x + inner(x)`.
///
/// The inner chain must preserve shape. Used by the PROS replica's dilated
/// and refinement blocks.
///
/// # Example
///
/// ```
/// use rte_nn::models::Residual;
/// use rte_nn::{Conv2d, Layer, Relu, Sequential};
/// use rte_tensor::conv::Conv2dSpec;
/// use rte_tensor::rng::Xoshiro256;
/// use rte_tensor::Tensor;
///
/// let mut rng = Xoshiro256::seed_from(0);
/// let mut inner = Sequential::new();
/// inner.push("conv", Conv2d::new(4, 4, 3, Conv2dSpec::same(3), &mut rng));
/// inner.push("act", Relu::new());
/// let mut block = Residual::new(inner);
/// let x = Tensor::ones(&[1, 4, 6, 6]);
/// let y = block.forward(&x, true)?;
/// assert_eq!(y.shape(), x.shape());
/// # Ok::<(), rte_nn::NnError>(())
/// ```
#[derive(Debug)]
pub struct Residual {
    inner: Sequential,
}

impl Residual {
    /// Wraps a shape-preserving chain.
    pub fn new(inner: Sequential) -> Self {
        Residual { inner }
    }
}

impl Layer for Residual {
    fn forward(&mut self, x: &Tensor, training: bool) -> Result<Tensor, NnError> {
        let y = self.inner.forward(x, training)?;
        Ok(y.add(x)?)
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor, NnError> {
        let dx_inner = self.inner.backward(dy)?;
        Ok(dx_inner.add(dy)?)
    }

    fn backward_params(&mut self, dy: &Tensor) -> Result<(), NnError> {
        self.inner.backward_params(dy)
    }

    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(String, &mut Param)) {
        self.inner.visit_params(prefix, f);
    }

    fn visit_buffers(&mut self, prefix: &str, f: &mut dyn FnMut(String, &mut Tensor)) {
        self.inner.visit_buffers(prefix, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Conv2d, Relu};
    use rte_tensor::conv::Conv2dSpec;
    use rte_tensor::rng::Xoshiro256;

    fn block(seed: u64) -> Residual {
        let mut rng = Xoshiro256::seed_from(seed);
        let mut inner = Sequential::new();
        inner.push("conv", Conv2d::new(2, 2, 3, Conv2dSpec::same(3), &mut rng));
        inner.push("act", Relu::new());
        Residual::new(inner)
    }

    #[test]
    fn identity_inner_doubles_gradient() {
        // With a zeroed conv the block is the identity; gradient must pass
        // through the skip path unchanged plus the (zero) inner path.
        let mut b = block(1);
        b.visit_params("", &mut |_, p| p.value.fill(0.0));
        let x = Tensor::from_fn(&[1, 2, 4, 4], |i| i as f32 * 0.1);
        let y = b.forward(&x, true).unwrap();
        // bias is also zero, so y == x.
        for (a, c) in x.data().iter().zip(y.data().iter()) {
            assert!((a - c).abs() < 1e-6);
        }
        let dy = Tensor::ones(&[1, 2, 4, 4]);
        let dx = b.backward(&dy).unwrap();
        // Inner path is dead (ReLU of 0 pre-activations has zero grad mask
        // only where inputs were ≤ 0; with all-zero conv output, mask is
        // false everywhere), so dx == dy exactly.
        assert_eq!(dx, dy);
    }

    #[test]
    fn gradient_check() {
        let mut b = block(2);
        let mut rng = Xoshiro256::seed_from(3);
        let x = Tensor::from_fn(&[1, 2, 4, 4], |_| rng.normal());
        let g = Tensor::from_fn(&[1, 2, 4, 4], |_| rng.normal());
        b.forward(&x, true).unwrap();
        let dx = b.backward(&g).unwrap();
        let eps = 1e-2f32;
        for i in (0..x.numel()).step_by(7) {
            let mut p = x.clone();
            p.data_mut()[i] += eps;
            let mut m = x.clone();
            m.data_mut()[i] -= eps;
            let mut bp = block(2);
            let yp = bp.forward(&p, true).unwrap();
            let mut bm = block(2);
            let ym = bm.forward(&m, true).unwrap();
            let lp: f64 = yp
                .data()
                .iter()
                .zip(g.data().iter())
                .map(|(&a, &b)| a as f64 * b as f64)
                .sum();
            let lm: f64 = ym
                .data()
                .iter()
                .zip(g.data().iter())
                .map(|(&a, &b)| a as f64 * b as f64)
                .sum();
            let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (numeric - dx.data()[i]).abs() < 2e-2 * (1.0 + numeric.abs()),
                "dx[{i}]"
            );
        }
    }

    #[test]
    fn params_are_exposed() {
        let mut b = block(4);
        assert!(b.param_count() > 0);
    }
}
