//! Optimizers.
//!
//! The paper trains with Adam (lr 2e-4) plus an L2 regularization strength
//! of 1e-5, and Adam is the optimizer provided. Optimizer state is keyed
//! by parameter path so it survives parameter re-loading during federated
//! rounds. The state maps are `BTreeMap`, not `HashMap`:
//! updates are applied in `visit_params` order regardless, but any code
//! that ever *iterates* the state (serialization, federated state sync,
//! debugging dumps) must see the same lexicographic order on every run
//! and platform — `rte-lint` rule L2 enforces the discipline
//! workspace-wide.
//!
//! The per-parameter update sweeps are fused kernels on the
//! process-global [`rte_tensor::simd`] arm — every arithmetic op is
//! IEEE-exact, so the update is bit-identical on every arm.

use std::collections::BTreeMap;

use rte_tensor::simd;
use rte_tensor::Tensor;

use crate::{Layer, Param};

/// A gradient-descent parameter update rule.
pub trait Optimizer {
    /// Applies one update step to every parameter of `model` using the
    /// gradients accumulated in [`Param::grad`]. Does not zero gradients.
    fn step(&mut self, model: &mut dyn Layer);

    /// Learning rate currently in effect.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (used by fine-tuning schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Adam optimizer with L2 regularization folded into the gradient
/// (classic Adam + weight decay, matching the paper's setup).
///
/// # Example
///
/// ```
/// use rte_nn::optim::{Adam, Optimizer};
/// use rte_nn::{Conv2d, Layer};
/// use rte_tensor::conv::Conv2dSpec;
/// use rte_tensor::rng::Xoshiro256;
/// use rte_tensor::Tensor;
///
/// let mut rng = Xoshiro256::seed_from(1);
/// let mut conv = Conv2d::new(1, 1, 3, Conv2dSpec::same(3), &mut rng);
/// let mut opt = Adam::new(2e-4, 1e-5);
/// let y = conv.forward(&Tensor::ones(&[1, 1, 4, 4]), true)?;
/// conv.backward(&y)?; // pretend dL/dy = y
/// opt.step(&mut conv);
/// conv.zero_grad();
/// # Ok::<(), rte_nn::NnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    first: BTreeMap<String, Tensor>,
    second: BTreeMap<String, Tensor>,
}

impl Adam {
    /// Creates an Adam optimizer with the paper's defaults
    /// (`beta1 = 0.9`, `beta2 = 0.999`, `eps = 1e-8`).
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive.
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "Adam: non-positive learning rate");
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            t: 0,
            first: BTreeMap::new(),
            second: BTreeMap::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, model: &mut dyn Layer) {
        self.t += 1;
        let step = simd::AdamStep {
            beta1: self.beta1,
            beta2: self.beta2,
            bias1: 1.0 - self.beta1.powi(self.t as i32),
            bias2: 1.0 - self.beta2.powi(self.t as i32),
            lr: self.lr,
            eps: self.eps,
            // The kernel folds the decay term only when nonzero,
            // reproducing the historical `wd > 0.0` guard.
            weight_decay: if self.weight_decay > 0.0 {
                self.weight_decay
            } else {
                0.0
            },
        };
        let first = &mut self.first;
        let second = &mut self.second;
        model.visit_params("", &mut |name, p: &mut Param| {
            let m = first
                .entry(name.clone())
                .or_insert_with(|| Tensor::zeros(p.grad.shape().dims()));
            let v = second
                .entry(name)
                .or_insert_with(|| Tensor::zeros(p.grad.shape().dims()));
            // One fused sweep per parameter: moment updates and the
            // bias-corrected step, no gradient clone.
            simd::adam_step(
                p.value.data_mut(),
                m.data_mut(),
                v.data_mut(),
                p.grad.data(),
                &step,
            );
        });
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::mse;
    use crate::{Conv2d, Sequential, Sigmoid};
    use rte_tensor::conv::Conv2dSpec;
    use rte_tensor::rng::Xoshiro256;

    fn tiny_model(seed: u64) -> Sequential {
        let mut rng = Xoshiro256::seed_from(seed);
        let mut net = Sequential::new();
        net.push("conv", Conv2d::new(1, 1, 3, Conv2dSpec::same(3), &mut rng));
        net.push("sig", Sigmoid::new());
        net
    }

    fn train_step(net: &mut Sequential, opt: &mut dyn Optimizer, x: &Tensor, t: &Tensor) -> f32 {
        let y = net.forward(x, true).unwrap();
        let out = mse(&y, t).unwrap();
        net.zero_grad();
        net.backward(&out.grad).unwrap();
        opt.step(net);
        out.value
    }

    #[test]
    fn adam_reduces_loss() {
        let mut rng = Xoshiro256::seed_from(3);
        let x = Tensor::from_fn(&[4, 1, 5, 5], |_| rng.normal());
        let t = x.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
        let mut net = tiny_model(7);
        let mut adam = Adam::new(0.01, 0.0);
        let first = train_step(&mut net, &mut adam, &x, &t);
        let mut last = first;
        for _ in 0..60 {
            last = train_step(&mut net, &mut adam, &x, &t);
        }
        assert!(last < first * 0.6, "loss {first} -> {last}");
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut net = tiny_model(5);
        // With a zero gradient, the only push on a weight is the decay
        // term folded into it: Adam's first step moves every nonzero
        // weight by `lr` against its sign.
        let mut before = 0.0;
        net.visit_params("", &mut |_, p| before += p.value.norm_sq());
        let mut opt = Adam::new(0.01, 0.5);
        net.zero_grad();
        opt.step(&mut net);
        let mut after = 0.0;
        net.visit_params("", &mut |_, p| after += p.value.norm_sq());
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn optimizer_state_order_is_deterministic_and_bitwise_stable() {
        // Two independent runs from identical seeds must produce
        // bitwise-identical parameters, state keys, and moment tensors,
        // and the state must iterate in lexicographic key order — the
        // reason the moment maps are `BTreeMap`: anything that walks
        // them (state sync, serialization) sees one order everywhere.
        let run = || {
            let mut net = tiny_model(11);
            let mut opt = Adam::new(2e-4, 1e-5);
            let mut rng = Xoshiro256::seed_from(13);
            let x = Tensor::from_fn(&[2, 1, 5, 5], |_| rng.normal());
            let t = x.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
            for _ in 0..5 {
                train_step(&mut net, &mut opt, &x, &t);
            }
            let mut params: Vec<(String, Vec<u32>)> = Vec::new();
            net.visit_params("", &mut |name, p| {
                params.push((name, p.value.data().iter().map(|v| v.to_bits()).collect()));
            });
            let keys: Vec<String> = opt.first.keys().cloned().collect();
            let moments: Vec<Vec<u32>> = opt
                .first
                .values()
                .chain(opt.second.values())
                .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
                .collect();
            (params, keys, moments)
        };
        let (p1, k1, m1) = run();
        let (p2, k2, m2) = run();
        assert_eq!(p1, p2, "parameters must be bitwise identical across runs");
        assert_eq!(k2, k1);
        assert_eq!(m1, m2, "moment state must be bitwise identical across runs");
        let mut sorted = k1.clone();
        sorted.sort();
        assert_eq!(k1, sorted, "state iteration must be lexicographic");
        assert!(!k1.is_empty());
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Adam::new(2e-4, 1e-5);
        assert_eq!(opt.learning_rate(), 2e-4);
        opt.set_learning_rate(1e-3);
        assert_eq!(opt.learning_rate(), 1e-3);
    }
}
