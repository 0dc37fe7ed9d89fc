//! Sub-pixel upsampling (pixel shuffle).

use rte_tensor::conv::{pixel_shuffle, pixel_unshuffle};
use rte_tensor::Tensor;

use crate::{Layer, NnError, Param};

/// Pixel-shuffle layer: `(N, C·r², H, W) → (N, C, H·r, W·r)`.
///
/// This is the upsampling primitive of the PROS replica's sub-pixel
/// upsampling blocks; being a pure permutation its backward pass is the
/// inverse shuffle.
///
/// # Example
///
/// ```
/// use rte_nn::{Layer, PixelShuffle};
/// use rte_tensor::Tensor;
///
/// let mut up = PixelShuffle::new(2);
/// let y = up.forward(&Tensor::zeros(&[1, 8, 4, 4]), true)?;
/// assert_eq!(y.shape().dims(), &[1, 2, 8, 8]);
/// # Ok::<(), rte_nn::NnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PixelShuffle {
    factor: usize,
    saw_forward: bool,
}

impl PixelShuffle {
    /// Creates a pixel-shuffle layer with upscale factor `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn new(factor: usize) -> Self {
        assert!(factor > 0, "PixelShuffle: zero factor");
        PixelShuffle {
            factor,
            saw_forward: false,
        }
    }

    /// The upscale factor.
    pub fn factor(&self) -> usize {
        self.factor
    }
}

impl Layer for PixelShuffle {
    fn forward(&mut self, x: &Tensor, training: bool) -> Result<Tensor, NnError> {
        let y = pixel_shuffle(x, self.factor)?;
        self.saw_forward = training;
        Ok(y)
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor, NnError> {
        if !self.saw_forward {
            return Err(NnError::BackwardBeforeForward {
                layer: "PixelShuffle".into(),
            });
        }
        Ok(pixel_unshuffle(dy, self.factor)?)
    }

    fn visit_params(&mut self, _prefix: &str, _f: &mut dyn FnMut(String, &mut Param)) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use rte_tensor::rng::Xoshiro256;

    #[test]
    fn forward_backward_round_trip() {
        let mut rng = Xoshiro256::seed_from(1);
        let x = Tensor::from_fn(&[2, 4, 3, 3], |_| rng.normal());
        let mut layer = PixelShuffle::new(2);
        let y = layer.forward(&x, true).unwrap();
        let dx = layer.backward(&y).unwrap();
        assert_eq!(dx, x);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut layer = PixelShuffle::new(2);
        assert!(layer.backward(&Tensor::zeros(&[1, 1, 2, 2])).is_err());
    }
}
