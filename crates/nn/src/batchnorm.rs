//! Batch normalization.
//!
//! BatchNorm is central to the paper's analysis: RouteNet and PROS depend on
//! it, and its *running statistics* are part of the communicated model
//! state. Under federated parameter averaging those statistics are averaged
//! across clients with heterogeneous feature distributions, which degrades
//! convergence — the main reason the paper's FLNet deliberately contains no
//! BatchNorm (§4.2).

use rte_tensor::Tensor;

use crate::layer::join_path;
use crate::{Layer, NnError, Param};

/// Per-channel batch normalization over NCHW tensors.
///
/// Training mode normalizes with batch statistics and updates running
/// estimates; evaluation mode normalizes with the running estimates.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
    dims: [usize; 4],
}

impl BatchNorm2d {
    /// Creates a BatchNorm layer for `channels` feature maps with PyTorch
    /// defaults (`momentum = 0.1`, `eps = 1e-5`).
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Param::new(Tensor::ones(&[channels])),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        }
    }

    /// Number of normalized channels.
    pub fn channels(&self) -> usize {
        self.gamma.value.numel()
    }

    /// Current running mean (one entry per channel).
    pub fn running_mean(&self) -> &Tensor {
        &self.running_mean
    }

    /// Current running variance (one entry per channel).
    pub fn running_var(&self) -> &Tensor {
        &self.running_var
    }

    fn check_input(&self, x: &Tensor) -> Result<(), NnError> {
        if x.shape().rank() != 4 || x.dim(1) != self.channels() {
            return Err(NnError::Tensor(rte_tensor::TensorError::InvalidShape {
                reason: format!(
                    "BatchNorm2d expects (N, {}, H, W), got {}",
                    self.channels(),
                    x.shape()
                ),
            }));
        }
        Ok(())
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, x: &Tensor, training: bool) -> Result<Tensor, NnError> {
        self.check_input(x)?;
        let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
        let m = (n * h * w) as f64;
        let hw = h * w;
        let mut y = Tensor::zeros(&[n, c, h, w]);
        // Only a training-mode pass is ever followed by `backward`.
        let mut x_hat = training.then(|| Tensor::zeros(&[n, c, h, w]));
        let mut inv_std = vec![0.0f32; c];
        for ci in 0..c {
            let (mean, var) = if training {
                let mut sum = 0.0f64;
                let mut sq = 0.0f64;
                for ni in 0..n {
                    let base = (ni * c + ci) * hw;
                    for &v in &x.data()[base..base + hw] {
                        sum += v as f64;
                        sq += (v as f64) * (v as f64);
                    }
                }
                let mean = sum / m;
                let var = (sq / m - mean * mean).max(0.0);
                // Update running statistics (biased variance, as PyTorch's
                // functional semantics for the normalization itself; the
                // running update uses the unbiased estimate).
                let unbiased = if m > 1.0 { var * m / (m - 1.0) } else { var };
                let rm = &mut self.running_mean.data_mut()[ci];
                *rm = (1.0 - self.momentum) * *rm + self.momentum * mean as f32;
                let rv = &mut self.running_var.data_mut()[ci];
                *rv = (1.0 - self.momentum) * *rv + self.momentum * unbiased as f32;
                (mean as f32, var as f32)
            } else {
                (
                    self.running_mean.data()[ci],
                    self.running_var.data()[ci].max(0.0),
                )
            };
            let istd = 1.0 / (var + self.eps).sqrt();
            inv_std[ci] = istd;
            let g = self.gamma.value.data()[ci];
            let b = self.beta.value.data()[ci];
            for ni in 0..n {
                let base = (ni * c + ci) * hw;
                for i in 0..hw {
                    let xh = (x.data()[base + i] - mean) * istd;
                    if let Some(x_hat) = &mut x_hat {
                        x_hat.data_mut()[base + i] = xh;
                    }
                    y.data_mut()[base + i] = g * xh + b;
                }
            }
        }
        self.cache = x_hat.map(|x_hat| BnCache {
            x_hat,
            inv_std,
            dims: [n, c, h, w],
        });
        Ok(y)
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor, NnError> {
        let cache = self
            .cache
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward {
                layer: "BatchNorm2d".into(),
            })?;
        let [n, c, h, w] = cache.dims;
        if dy.shape().dims() != [n, c, h, w] {
            return Err(NnError::Tensor(rte_tensor::TensorError::InvalidShape {
                reason: format!("BatchNorm2d backward: dy shape {}", dy.shape()),
            }));
        }
        let hw = h * w;
        let m = (n * hw) as f64;
        let mut dx = Tensor::zeros(&[n, c, h, w]);
        for ci in 0..c {
            let g = self.gamma.value.data()[ci];
            let istd = cache.inv_std[ci];
            // Per-channel reductions.
            let mut sum_dy = 0.0f64;
            let mut sum_dy_xhat = 0.0f64;
            for ni in 0..n {
                let base = (ni * c + ci) * hw;
                for i in 0..hw {
                    let d = dy.data()[base + i] as f64;
                    sum_dy += d;
                    sum_dy_xhat += d * cache.x_hat.data()[base + i] as f64;
                }
            }
            self.gamma.value.data(); // no-op read to keep borrowck simple
            self.gamma.grad.data_mut()[ci] += sum_dy_xhat as f32;
            self.beta.grad.data_mut()[ci] += sum_dy as f32;
            let mean_dy = (sum_dy / m) as f32;
            let mean_dy_xhat = (sum_dy_xhat / m) as f32;
            for ni in 0..n {
                let base = (ni * c + ci) * hw;
                for i in 0..hw {
                    let d = dy.data()[base + i];
                    let xh = cache.x_hat.data()[base + i];
                    dx.data_mut()[base + i] = g * istd * (d - mean_dy - xh * mean_dy_xhat);
                }
            }
        }
        Ok(dx)
    }

    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(String, &mut Param)) {
        f(join_path(prefix, "gamma"), &mut self.gamma);
        f(join_path(prefix, "beta"), &mut self.beta);
    }

    fn visit_buffers(&mut self, prefix: &str, f: &mut dyn FnMut(String, &mut Tensor)) {
        f(join_path(prefix, "running_mean"), &mut self.running_mean);
        f(join_path(prefix, "running_var"), &mut self.running_var);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rte_tensor::rng::Xoshiro256;

    fn rand_tensor(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = Xoshiro256::seed_from(seed);
        Tensor::from_fn(dims, |_| rng.normal() * 2.0 + 1.0)
    }

    #[test]
    fn training_output_is_normalized() {
        let mut bn = BatchNorm2d::new(3);
        let x = rand_tensor(&[4, 3, 6, 6], 1);
        let y = bn.forward(&x, true).unwrap();
        // Per channel: mean ≈ 0, var ≈ 1 (gamma=1, beta=0 at init).
        let hw = 36;
        for c in 0..3 {
            let mut vals = Vec::new();
            for n in 0..4 {
                let base = (n * 3 + c) * hw;
                vals.extend_from_slice(&y.data()[base..base + hw]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "var {var}");
        }
    }

    #[test]
    fn running_stats_track_batch_stats() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::full(&[2, 1, 2, 2], 5.0);
        for _ in 0..200 {
            bn.forward(&x, true).unwrap();
        }
        // Constant input: mean → 5, var → 0.
        assert!((bn.running_mean().data()[0] - 5.0).abs() < 1e-2);
        assert!(bn.running_var().data()[0] < 1e-2);
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        // Train on data with mean 2, then eval on zeros: output should be
        // ≈ (0 - 2)/std, not re-normalized to zero mean.
        let x = rand_tensor(&[8, 1, 4, 4], 3).map(|v| v + 1.0);
        for _ in 0..100 {
            bn.forward(&x, true).unwrap();
        }
        let y = bn.forward(&Tensor::zeros(&[1, 1, 4, 4]), false).unwrap();
        assert!(y.mean() < -0.2, "eval output should reflect running mean");
    }

    #[test]
    fn gradient_check_training_mode() {
        let mut bn = BatchNorm2d::new(2);
        let x = rand_tensor(&[2, 2, 3, 3], 5);
        let g = rand_tensor(&[2, 2, 3, 3], 6);
        let y0 = bn.forward(&x, true).unwrap();
        let _ = y0;
        let dx = bn.backward(&g).unwrap();
        let eps = 1e-2f32;
        // Fresh BN per evaluation so running stats do not leak into loss.
        let loss = |x: &Tensor| -> f64 {
            let mut bn2 = BatchNorm2d::new(2);
            let y = bn2.forward(x, true).unwrap();
            y.data()
                .iter()
                .zip(g.data().iter())
                .map(|(&a, &b)| a as f64 * b as f64)
                .sum()
        };
        for i in (0..x.numel()).step_by(5) {
            let mut p = x.clone();
            p.data_mut()[i] += eps;
            let mut m = x.clone();
            m.data_mut()[i] -= eps;
            let numeric = ((loss(&p) - loss(&m)) / (2.0 * eps as f64)) as f32;
            let got = dx.data()[i];
            assert!(
                (numeric - got).abs() < 3e-2 * (1.0 + numeric.abs()),
                "dx[{i}]: numeric {numeric} vs {got}"
            );
        }
    }

    #[test]
    fn buffers_are_exposed() {
        let mut bn = BatchNorm2d::new(4);
        let mut names = Vec::new();
        bn.visit_buffers("bn", &mut |n, _| names.push(n));
        assert_eq!(names, vec!["bn/running_mean", "bn/running_var"]);
        let mut pnames = Vec::new();
        bn.visit_params("bn", &mut |n, _| pnames.push(n));
        assert_eq!(pnames, vec!["bn/gamma", "bn/beta"]);
    }

    #[test]
    fn rejects_wrong_channel_count() {
        let mut bn = BatchNorm2d::new(3);
        assert!(bn.forward(&Tensor::zeros(&[1, 2, 4, 4]), true).is_err());
    }
}
