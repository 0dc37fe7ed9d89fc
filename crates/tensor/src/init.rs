//! Weight initializers.
//!
//! All initializers draw from an explicit [`Xoshiro256`] stream so model
//! construction is deterministic given a seed — a hard requirement for the
//! federated-learning experiments, where every client must start each round
//! from bit-identical parameters.

use crate::rng::Xoshiro256;
use crate::Tensor;

/// Kaiming (He) uniform initialization for convolution weights shaped
/// `(C_out, C_in, KH, KW)` (or the transposed layout — only `fan_in`
/// matters, which the caller provides).
///
/// Samples from `U(-b, b)` with `b = sqrt(6 / fan_in)`, the PyTorch default
/// for layers followed by ReLU.
///
/// # Panics
///
/// Panics if `fan_in` is zero.
pub fn kaiming_uniform(dims: &[usize], fan_in: usize, rng: &mut Xoshiro256) -> Tensor {
    assert!(fan_in > 0, "kaiming_uniform: fan_in must be positive");
    let bound = (6.0 / fan_in as f64).sqrt() as f32;
    Tensor::from_fn(dims, |_| rng.uniform_in(-bound, bound))
}

/// Uniform bias initialization matching PyTorch's conv default:
/// `U(-1/sqrt(fan_in), 1/sqrt(fan_in))`.
///
/// # Panics
///
/// Panics if `fan_in` is zero.
pub fn conv_bias(dims: &[usize], fan_in: usize, rng: &mut Xoshiro256) -> Tensor {
    assert!(fan_in > 0, "conv_bias: fan_in must be positive");
    let bound = (1.0 / (fan_in as f64).sqrt()) as f32;
    Tensor::from_fn(dims, |_| rng.uniform_in(-bound, bound))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kaiming_uniform_within_bound() {
        let mut rng = Xoshiro256::seed_from(1);
        let t = kaiming_uniform(&[16, 4, 3, 3], 4 * 9, &mut rng);
        let bound = (6.0f64 / 36.0).sqrt() as f32;
        assert!(t.data().iter().all(|&x| x.abs() <= bound));
        // Not degenerate: spread over the interval.
        assert!(t.max().unwrap() > bound * 0.5);
        assert!(t.min().unwrap() < -bound * 0.5);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = Xoshiro256::seed_from(9);
        let mut b = Xoshiro256::seed_from(9);
        let ta = kaiming_uniform(&[4, 4, 3, 3], 36, &mut a);
        let tb = kaiming_uniform(&[4, 4, 3, 3], 36, &mut b);
        assert_eq!(ta, tb);
    }

    #[test]
    fn bias_bound() {
        let mut rng = Xoshiro256::seed_from(4);
        let t = conv_bias(&[32], 100, &mut rng);
        assert!(t.data().iter().all(|&x| x.abs() <= 0.1));
    }
}
