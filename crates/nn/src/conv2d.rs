//! Convolution layers.

use rte_tensor::conv::{
    conv2d, conv2d_backward, conv2d_backward_params, conv_transpose2d, conv_transpose2d_backward,
    Conv2dSpec,
};
use rte_tensor::rng::Xoshiro256;
use rte_tensor::{init, Tensor};

use crate::layer::join_path;
use crate::{Layer, NnError, Param};

/// 2-D convolution layer with bias (NCHW).
///
/// Weight layout `(C_out, C_in, KH, KW)`, Kaiming-uniform initialized.
///
/// Forward and backward lower to the `rte-tensor` batched kernels, which
/// fan out over the batch dimension under the process-global
/// [`rte_tensor::parallel`] budget; outputs and gradients are
/// bit-identical for every thread count.
///
/// # Example
///
/// ```
/// use rte_nn::{Conv2d, Layer};
/// use rte_tensor::conv::Conv2dSpec;
/// use rte_tensor::rng::Xoshiro256;
/// use rte_tensor::Tensor;
///
/// let mut rng = Xoshiro256::seed_from(1);
/// let mut conv = Conv2d::new(3, 8, 3, Conv2dSpec::same(3), &mut rng);
/// let y = conv.forward(&Tensor::zeros(&[2, 3, 8, 8]), true)?;
/// assert_eq!(y.shape().dims(), &[2, 8, 8, 8]);
/// # Ok::<(), rte_nn::NnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    spec: Conv2dSpec,
    cached_x: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution with square `kernel` and the given geometry.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        spec: Conv2dSpec,
        rng: &mut Xoshiro256,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        let weight =
            init::kaiming_uniform(&[out_channels, in_channels, kernel, kernel], fan_in, rng);
        let bias = init::conv_bias(&[out_channels], fan_in, rng);
        Conv2d {
            weight: Param::new(weight),
            bias: Param::new(bias),
            spec,
            cached_x: None,
        }
    }

    /// The convolution geometry.
    pub fn spec(&self) -> Conv2dSpec {
        self.spec
    }

    /// Immutable view of the weight parameter.
    pub fn weight(&self) -> &Param {
        &self.weight
    }
}

impl Conv2d {
    /// The input cached by the last training-mode forward.
    fn cached_input(&self) -> Result<&Tensor, NnError> {
        self.cached_x
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward {
                layer: "Conv2d".into(),
            })
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, training: bool) -> Result<Tensor, NnError> {
        let y = conv2d(x, &self.weight.value, Some(&self.bias.value), self.spec)?;
        self.cached_x = training.then(|| x.clone());
        Ok(y)
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor, NnError> {
        let grads = conv2d_backward(self.cached_input()?, &self.weight.value, dy, self.spec)?;
        self.weight.grad.add_assign(&grads.dw)?;
        self.bias.grad.add_assign(&grads.db)?;
        Ok(grads.dx)
    }

    fn backward_params(&mut self, dy: &Tensor) -> Result<(), NnError> {
        let grads =
            conv2d_backward_params(self.cached_input()?, &self.weight.value, dy, self.spec)?;
        self.weight.grad.add_assign(&grads.dw)?;
        self.bias.grad.add_assign(&grads.db)?;
        Ok(())
    }

    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(String, &mut Param)) {
        f(join_path(prefix, "weight"), &mut self.weight);
        f(join_path(prefix, "bias"), &mut self.bias);
    }
}

/// Transposed 2-D convolution layer (learned upsampling) with bias.
///
/// Weight layout `(C_in, C_out, KH, KW)` as in PyTorch's `ConvTranspose2d`.
#[derive(Debug, Clone)]
pub struct ConvTranspose2d {
    weight: Param,
    bias: Param,
    spec: Conv2dSpec,
    cached_x: Option<Tensor>,
}

impl ConvTranspose2d {
    /// Creates a transposed convolution with square `kernel`.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        spec: Conv2dSpec,
        rng: &mut Xoshiro256,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        let weight =
            init::kaiming_uniform(&[in_channels, out_channels, kernel, kernel], fan_in, rng);
        let bias = init::conv_bias(&[out_channels], fan_in, rng);
        ConvTranspose2d {
            weight: Param::new(weight),
            bias: Param::new(bias),
            spec,
            cached_x: None,
        }
    }

    /// The convolution geometry.
    pub fn spec(&self) -> Conv2dSpec {
        self.spec
    }
}

impl Layer for ConvTranspose2d {
    fn forward(&mut self, x: &Tensor, training: bool) -> Result<Tensor, NnError> {
        let y = conv_transpose2d(x, &self.weight.value, Some(&self.bias.value), self.spec)?;
        self.cached_x = training.then(|| x.clone());
        Ok(y)
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor, NnError> {
        let x = self
            .cached_x
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward {
                layer: "ConvTranspose2d".into(),
            })?;
        let grads = conv_transpose2d_backward(x, &self.weight.value, dy, self.spec)?;
        self.weight.grad.add_assign(&grads.dw)?;
        self.bias.grad.add_assign(&grads.db)?;
        Ok(grads.dx)
    }

    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(String, &mut Param)) {
        f(join_path(prefix, "weight"), &mut self.weight);
        f(join_path(prefix, "bias"), &mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv2d_shapes_and_params() {
        let mut rng = Xoshiro256::seed_from(0);
        let mut conv = Conv2d::new(4, 16, 3, Conv2dSpec::same(3), &mut rng);
        let x = Tensor::zeros(&[2, 4, 10, 10]);
        let y = conv.forward(&x, true).unwrap();
        assert_eq!(y.shape().dims(), &[2, 16, 10, 10]);
        assert_eq!(conv.param_count(), 16 * 4 * 9 + 16);
    }

    #[test]
    fn conv2d_backward_requires_forward() {
        let mut rng = Xoshiro256::seed_from(0);
        let mut conv = Conv2d::new(1, 1, 3, Conv2dSpec::same(3), &mut rng);
        let dy = Tensor::zeros(&[1, 1, 4, 4]);
        assert!(matches!(
            conv.backward(&dy),
            Err(NnError::BackwardBeforeForward { .. })
        ));
    }

    #[test]
    fn conv2d_gradients_accumulate_until_zeroed() {
        let mut rng = Xoshiro256::seed_from(3);
        let mut conv = Conv2d::new(1, 2, 3, Conv2dSpec::same(3), &mut rng);
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let dy = Tensor::ones(&[1, 2, 4, 4]);
        conv.forward(&x, true).unwrap();
        conv.backward(&dy).unwrap();
        let g1 = conv.weight().grad.clone();
        conv.forward(&x, true).unwrap();
        conv.backward(&dy).unwrap();
        let g2 = conv.weight().grad.clone();
        assert_eq!(g2, g1.scale(2.0));
        conv.zero_grad();
        assert_eq!(conv.weight().grad.sum(), 0.0);
    }

    #[test]
    fn transpose_upsamples_by_stride() {
        let mut rng = Xoshiro256::seed_from(5);
        let spec = Conv2dSpec {
            stride: 2,
            padding: 1,
            dilation: 1,
        };
        let mut up = ConvTranspose2d::new(8, 4, 4, spec, &mut rng);
        let x = Tensor::zeros(&[1, 8, 6, 6]);
        let y = up.forward(&x, true).unwrap();
        assert_eq!(y.shape().dims(), &[1, 4, 12, 12]);
        let dx = up.backward(&Tensor::zeros(&[1, 4, 12, 12])).unwrap();
        assert_eq!(dx.shape().dims(), &[1, 8, 6, 6]);
    }

    #[test]
    fn layer_results_are_thread_invariant() {
        // The layer inherits the tensor crate's global parallelism; the
        // forward activations and all accumulated gradients must not
        // change by a single bit when the kernels run multi-threaded.
        use rte_tensor::parallel::{self, Parallelism};
        let run = || {
            let mut rng = Xoshiro256::seed_from(11);
            let mut conv = Conv2d::new(3, 8, 5, Conv2dSpec::same(5), &mut rng);
            let x = Tensor::from_fn(&[6, 3, 12, 12], |i| (i % 17) as f32 * 0.1 - 0.8);
            let y = conv.forward(&x, true).unwrap();
            let dy = Tensor::from_fn(y.shape().dims(), |i| (i % 13) as f32 * 0.05 - 0.3);
            let dx = conv.backward(&dy).unwrap();
            (y, dx, conv.weight().grad.clone())
        };
        let before = parallel::global();
        let serial = run();
        parallel::set_global(Parallelism::new(4));
        let threaded = run();
        parallel::set_global(before);
        assert_eq!(serial.0, threaded.0, "forward");
        assert_eq!(serial.1, threaded.1, "dx");
        assert_eq!(serial.2, threaded.2, "dw");
    }

    #[test]
    fn visit_params_names() {
        let mut rng = Xoshiro256::seed_from(7);
        let mut conv = Conv2d::new(1, 1, 3, Conv2dSpec::same(3), &mut rng);
        let mut names = Vec::new();
        conv.visit_params("layer0", &mut |n, _| names.push(n));
        assert_eq!(names, vec!["layer0/weight", "layer0/bias"]);
    }
}
