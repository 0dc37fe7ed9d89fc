//! Pooling layers.

use rte_tensor::conv::{max_pool2d, max_pool2d_backward, MaxPoolOutput};
use rte_tensor::Tensor;

use crate::{Layer, NnError, Param};

/// Max pooling layer with square window and stride (no padding), as used by
/// the RouteNet replica's downsampling stage.
///
/// # Example
///
/// ```
/// use rte_nn::{Layer, MaxPool2d};
/// use rte_tensor::Tensor;
///
/// let mut pool = MaxPool2d::new(2, 2);
/// let y = pool.forward(&Tensor::zeros(&[1, 3, 8, 8]), true)?;
/// assert_eq!(y.shape().dims(), &[1, 3, 4, 4]);
/// # Ok::<(), rte_nn::NnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
    cache: Option<(Vec<usize>, MaxPoolOutput)>,
}

impl MaxPool2d {
    /// Creates a max-pool layer.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize) -> Self {
        assert!(kernel > 0 && stride > 0, "MaxPool2d: zero kernel/stride");
        MaxPool2d {
            kernel,
            stride,
            cache: None,
        }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: &Tensor, training: bool) -> Result<Tensor, NnError> {
        let out = max_pool2d(x, self.kernel, self.stride)?;
        if !training {
            self.cache = None;
            return Ok(out.y);
        }
        let y = out.y.clone();
        self.cache = Some((x.shape().dims().to_vec(), out));
        Ok(y)
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor, NnError> {
        let (dims, out) = self
            .cache
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward {
                layer: "MaxPool2d".into(),
            })?;
        Ok(max_pool2d_backward(dims, out, dy)?)
    }

    fn visit_params(&mut self, _prefix: &str, _f: &mut dyn FnMut(String, &mut Param)) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_halves_extent() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_fn(&[1, 1, 4, 4], |i| i as f32);
        let y = pool.forward(&x, true).unwrap();
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        // Row-major: max of each 2×2 block.
        assert_eq!(y.data(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn backward_routes_to_argmax() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_fn(&[1, 1, 4, 4], |i| i as f32);
        pool.forward(&x, true).unwrap();
        let dy = Tensor::ones(&[1, 1, 2, 2]);
        let dx = pool.backward(&dy).unwrap();
        assert_eq!(dx.sum(), 4.0);
        assert_eq!(dx.at(&[0, 0, 1, 1]), 1.0);
        assert_eq!(dx.at(&[0, 0, 3, 3]), 1.0);
        assert_eq!(dx.at(&[0, 0, 0, 0]), 0.0);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut pool = MaxPool2d::new(2, 2);
        assert!(pool.backward(&Tensor::zeros(&[1, 1, 2, 2])).is_err());
    }
}
