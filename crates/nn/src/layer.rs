//! The [`Layer`] trait and [`Param`] storage.

use rte_tensor::Tensor;

use crate::NnError;

/// A learnable parameter: its current value and the gradient accumulated by
/// the most recent backward pass.
///
/// # Example
///
/// ```
/// use rte_nn::Param;
/// use rte_tensor::Tensor;
///
/// let mut p = Param::new(Tensor::ones(&[2, 2]));
/// p.grad.fill(0.5);
/// p.zero_grad();
/// assert_eq!(p.grad.sum(), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Gradient of the loss w.r.t. this parameter (same shape as `value`).
    pub grad: Tensor,
}

impl Param {
    /// Wraps an initial value with a zeroed gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().dims());
        Param { value, grad }
    }

    /// Resets the gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }
}

/// A differentiable computation stage with optional learnable parameters
/// and non-learnable buffers.
///
/// Layers cache whatever they need during a *training-mode*
/// [`Layer::forward`] and consume that cache in [`Layer::backward`];
/// an evaluation-mode forward caches nothing (and drops any earlier
/// cache), so a backward after it fails like a backward before any
/// forward. Gradients *accumulate* into [`Param::grad`], so callers zero
/// them (via [`Layer::zero_grad`]) between optimizer steps.
///
/// Buffers are non-learnable state that is still part of the model's
/// communicated state dict — concretely the BatchNorm running statistics,
/// whose behaviour under federated parameter averaging is central to the
/// paper's §4.2 argument for FLNet.
pub trait Layer {
    /// Runs the layer on `x`. `training` selects training-time behaviour
    /// (e.g. BatchNorm batch statistics vs running statistics).
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] when `x` has an incompatible shape.
    fn forward(&mut self, x: &Tensor, training: bool) -> Result<Tensor, NnError>;

    /// Propagates `dy` (gradient w.r.t. this layer's output) backwards,
    /// accumulating parameter gradients and returning the gradient w.r.t.
    /// the layer's input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BackwardBeforeForward`] when no training-mode
    /// forward pass has been cached, or a shape error when `dy` does not
    /// match the cached output.
    fn backward(&mut self, dy: &Tensor) -> Result<Tensor, NnError>;

    /// [`Layer::backward`] for a caller that will not read the input
    /// gradient — a training step on a whole model: accumulates exactly
    /// the same parameter gradients and returns nothing, which lets a
    /// model's first convolution skip the input-gradient product
    /// altogether. The default computes and drops it.
    ///
    /// # Errors
    ///
    /// As [`Layer::backward`].
    fn backward_params(&mut self, dy: &Tensor) -> Result<(), NnError> {
        self.backward(dy).map(drop)
    }

    /// Visits all learnable parameters as `(name, param)` pairs, depth
    /// first, with `/`-joined path names (e.g. `"input_conv/weight"`).
    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(String, &mut Param));

    /// Visits all non-learnable buffers (default: none).
    fn visit_buffers(&mut self, _prefix: &str, _f: &mut dyn FnMut(String, &mut Tensor)) {}

    /// Zeroes every parameter gradient.
    fn zero_grad(&mut self) {
        self.visit_params("", &mut |_, p| p.zero_grad());
    }

    /// Total number of learnable scalar parameters.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params("", &mut |_, p| n += p.value.numel());
        n
    }
}

/// Joins a parameter path segment onto a prefix.
pub(crate) fn join_path(prefix: &str, name: &str) -> String {
    if prefix.is_empty() {
        name.to_string()
    } else {
        format!("{prefix}/{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_new_zeroes_grad() {
        let p = Param::new(Tensor::ones(&[3]));
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.grad.shape(), p.value.shape());
    }

    #[test]
    fn join_path_behaviour() {
        assert_eq!(join_path("", "weight"), "weight");
        assert_eq!(join_path("conv1", "weight"), "conv1/weight");
    }
}
