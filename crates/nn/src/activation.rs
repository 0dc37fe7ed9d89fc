//! Pointwise activation layers.
//!
//! The elementwise sweeps run on the process-global
//! [`rte_tensor::simd`] arm: results are bit-identical on every arm,
//! only the wall-clock differs.

use rte_tensor::{simd, Tensor};

use crate::{Layer, NnError, Param};

/// Rectified linear unit: `y = max(0, x)`.
///
/// # Example
///
/// ```
/// use rte_nn::{Layer, Relu};
/// use rte_tensor::Tensor;
///
/// let mut relu = Relu::new();
/// let x = Tensor::from_vec(vec![-1.0, 2.0], &[1, 1, 1, 2])?;
/// let y = relu.forward(&x, true)?;
/// assert_eq!(y.data(), &[0.0, 2.0]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Relu {
    /// Forward input, cached for the backward gate `x > 0` (a dense
    /// `f32` copy vectorizes on both passes, unlike a `Vec<bool>` mask).
    cached_x: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor, training: bool) -> Result<Tensor, NnError> {
        self.cached_x = training.then(|| x.clone());
        let mut y = x.clone();
        simd::relu(y.data_mut());
        Ok(y)
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor, NnError> {
        let x = self
            .cached_x
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward {
                layer: "Relu".into(),
            })?;
        if x.numel() != dy.numel() {
            return Err(NnError::Tensor(rte_tensor::TensorError::InvalidShape {
                reason: format!("Relu backward: dy has {} elements", dy.numel()),
            }));
        }
        let mut dx = dy.clone();
        simd::relu_backward(dx.data_mut(), x.data());
        Ok(dx)
    }

    fn visit_params(&mut self, _prefix: &str, _f: &mut dyn FnMut(String, &mut Param)) {}
}

/// Logistic sigmoid: `y = 1 / (1 + e^{-x})`.
///
/// All three paper models end in a sigmoid so the output is a per-tile
/// hotspot probability in `[0, 1]`, trained against `{0, 1}` DRC labels
/// with the squared loss of the paper's Eq. 1.
#[derive(Debug, Clone, Default)]
pub struct Sigmoid {
    cached_y: Option<Tensor>,
}

impl Sigmoid {
    /// Creates a sigmoid layer.
    pub fn new() -> Self {
        Sigmoid::default()
    }
}

impl Layer for Sigmoid {
    fn forward(&mut self, x: &Tensor, training: bool) -> Result<Tensor, NnError> {
        // The SIMD arm's shared polynomial `exp` (not libm), so the
        // forward pass is bit-identical across arms and machines.
        let mut y = x.clone();
        simd::sigmoid(y.data_mut());
        self.cached_y = training.then(|| y.clone());
        Ok(y)
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor, NnError> {
        let y = self
            .cached_y
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward {
                layer: "Sigmoid".into(),
            })?;
        if y.shape() != dy.shape() {
            return Err(NnError::Tensor(rte_tensor::TensorError::ShapeMismatch {
                left: y.shape().clone(),
                right: dy.shape().clone(),
            }));
        }
        let mut dx = dy.clone();
        simd::sigmoid_backward(dx.data_mut(), y.data());
        Ok(dx)
    }

    fn visit_params(&mut self, _prefix: &str, _f: &mut dyn FnMut(String, &mut Param)) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-2.0, -0.5, 0.0, 1.5], &[4]).unwrap();
        let y = relu.forward(&x, true).unwrap();
        assert_eq!(y.data(), &[0.0, 0.0, 0.0, 1.5]);
        let dy = Tensor::ones(&[4]);
        let dx = relu.backward(&dy).unwrap();
        assert_eq!(dx.data(), &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn sigmoid_values_and_gradient() {
        let mut sig = Sigmoid::new();
        let x = Tensor::from_vec(vec![0.0, 100.0, -100.0], &[3]).unwrap();
        let y = sig.forward(&x, true).unwrap();
        assert!((y.data()[0] - 0.5).abs() < 1e-6);
        assert!((y.data()[1] - 1.0).abs() < 1e-6);
        assert!(y.data()[2] < 1e-6);
        // dy/dx at 0 = 0.25; saturated ends ≈ 0.
        let dx = sig.backward(&Tensor::ones(&[3])).unwrap();
        assert!((dx.data()[0] - 0.25).abs() < 1e-6);
        assert!(dx.data()[1].abs() < 1e-6);
        assert!(dx.data()[2].abs() < 1e-6);
    }

    #[test]
    fn sigmoid_gradient_check() {
        let mut sig = Sigmoid::new();
        let x = Tensor::from_vec(vec![0.3, -1.2, 2.0], &[3]).unwrap();
        sig.forward(&x, true).unwrap();
        let dx = sig.backward(&Tensor::ones(&[3])).unwrap();
        let eps = 1e-3f32;
        for i in 0..3 {
            let f = |v: f32| 1.0 / (1.0 + (-v).exp());
            let numeric = (f(x.data()[i] + eps) - f(x.data()[i] - eps)) / (2.0 * eps);
            assert!((numeric - dx.data()[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut relu = Relu::new();
        assert!(relu.backward(&Tensor::zeros(&[1])).is_err());
        let mut sig = Sigmoid::new();
        assert!(sig.backward(&Tensor::zeros(&[1])).is_err());
    }

    #[test]
    fn activations_have_no_params() {
        let mut relu = Relu::new();
        assert_eq!(relu.param_count(), 0);
        let mut sig = Sigmoid::new();
        assert_eq!(sig.param_count(), 0);
    }
}
