//! Client-side local training (the per-round inner loop of Eq. 1).

use std::collections::BTreeMap;

use rte_nn::loss::mse;
use rte_nn::optim::{Adam, Optimizer};
use rte_nn::{Layer, StateDict};
use rte_tensor::rng::Xoshiro256;

use crate::{ClientSet, FedError};

/// Runs minibatch Adam on one client's data, optionally with the FedProx
/// proximal term `μ‖W^r − w_k‖²` pulling towards a reference (global)
/// state dict.
///
/// A fresh optimizer is constructed per call: each round's local training
/// starts from freshly deployed global parameters, so stale Adam moments
/// must not leak across rounds.
#[derive(Debug, Clone)]
pub struct LocalTrainer {
    /// Learning rate.
    pub lr: f32,
    /// L2 regularization strength.
    pub weight_decay: f32,
    /// FedProx proximal strength μ (0 recovers FedAvg-style local SGD).
    pub mu: f32,
    /// Minibatch size.
    pub batch_size: usize,
}

impl LocalTrainer {
    /// Creates a trainer.
    ///
    /// # Panics
    ///
    /// Panics if `lr` or `batch_size` is not positive.
    pub fn new(lr: f32, weight_decay: f32, mu: f32, batch_size: usize) -> Self {
        assert!(lr > 0.0, "LocalTrainer: non-positive lr");
        assert!(batch_size > 0, "LocalTrainer: zero batch size");
        LocalTrainer {
            lr,
            weight_decay,
            mu,
            batch_size,
        }
    }

    /// Trains `model` for `steps` minibatch updates on `data`, returning
    /// the mean training loss over the steps.
    ///
    /// When `reference` is `Some`, each parameter gradient receives the
    /// FedProx term `2μ(w − W^r)` before the optimizer step.
    ///
    /// # Errors
    ///
    /// Returns [`FedError`] on forward/backward failures, when the data
    /// set is empty, or when `steps` is zero (which would otherwise
    /// report a fabricated 0.0 loss without doing any training).
    pub fn train(
        &self,
        model: &mut dyn Layer,
        data: &ClientSet,
        reference: Option<&StateDict>,
        steps: usize,
        rng: &mut Xoshiro256,
    ) -> Result<f32, FedError> {
        if data.is_empty() {
            return Err(FedError::InvalidConfig {
                reason: "training on empty client set".into(),
            });
        }
        if steps == 0 {
            return Err(FedError::InvalidConfig {
                reason: "training with zero steps would report a fake 0.0 loss".into(),
            });
        }
        let reference_map: Option<BTreeMap<&str, &rte_tensor::Tensor>> =
            reference.map(|sd| sd.iter().map(|(n, t)| (n.as_str(), t)).collect());
        let mut optimizer = Adam::new(self.lr, self.weight_decay);
        let mut total_loss = 0.0f64;
        // A split no larger than the batch is the whole minibatch at
        // every step, drawn without touching the RNG: read it once.
        let whole = if data.len() <= self.batch_size {
            Some(data.try_sample_minibatch(self.batch_size, rng)?)
        } else {
            None
        };
        for _ in 0..steps {
            let sampled;
            let (x, y) = match &whole {
                Some(batch) => batch,
                None => {
                    sampled = data.try_sample_minibatch(self.batch_size, rng)?;
                    &sampled
                }
            };
            let pred = model.forward(x, true)?;
            let loss = mse(&pred, y)?;
            total_loss += loss.value as f64;
            model.zero_grad();
            // Nothing reads the gradient w.r.t. the minibatch itself.
            model.backward_params(&loss.grad)?;
            if let (Some(map), true) = (&reference_map, self.mu > 0.0) {
                add_proximal_grad(model, map, self.mu)?;
            }
            optimizer.step(model);
        }
        Ok((total_loss / steps as f64) as f32)
    }

    /// Mean MSE of `model` on a full pass over `data` without updating
    /// parameters (used by IFCA's cluster selection).
    ///
    /// # Errors
    ///
    /// Returns [`FedError`] on forward failures or empty data.
    pub fn eval_loss(&self, model: &mut dyn Layer, data: &ClientSet) -> Result<f32, FedError> {
        if data.is_empty() {
            return Err(FedError::InvalidConfig {
                reason: "loss evaluation on empty client set".into(),
            });
        }
        let n = data.len();
        let mut total = 0.0f64;
        let mut start = 0usize;
        while start < n {
            let end = (start + self.batch_size).min(n);
            let (x, y) = data.try_minibatch_range(start..end)?;
            let pred = model.forward(&x, false)?;
            total += mse(&pred, &y)?.value as f64 * (end - start) as f64;
            start = end;
        }
        Ok((total / n as f64) as f32)
    }
}

/// Adds the FedProx term's gradient `d/dw μ‖w − W‖² = 2μ(w − W)` to
/// every parameter gradient of `model`, `W` the parameter of the same
/// name in `reference`.
fn add_proximal_grad(
    model: &mut dyn Layer,
    reference: &BTreeMap<&str, &rte_tensor::Tensor>,
    mu: f32,
) -> Result<(), FedError> {
    let mut prox_error: Option<FedError> = None;
    model.visit_params("", &mut |name, p| {
        if prox_error.is_some() {
            return;
        }
        match reference.get(name.as_str()) {
            Some(global) => {
                if global.numel() != p.value.numel() {
                    prox_error = Some(FedError::AggregationMismatch {
                        reason: format!(
                            "reference {name} has {} elements, parameter has {}",
                            global.numel(),
                            p.value.numel()
                        ),
                    });
                    return;
                }
                let pairs = p.value.data().iter().zip(global.data());
                for (g, (&w, &w_ref)) in p.grad.data_mut().iter_mut().zip(pairs) {
                    *g += 2.0 * mu * (w - w_ref);
                }
            }
            None => {
                prox_error = Some(FedError::AggregationMismatch {
                    reason: format!("reference dict lacks {name}"),
                });
            }
        }
    });
    prox_error.map_or(Ok(()), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rte_nn::models::{FlNet, FlNetConfig};
    use rte_nn::state_dict;
    use rte_tensor::Tensor;

    fn toy_data(seed: u64, n: usize) -> ClientSet {
        // Labels correlate with channel 0: learnable task.
        let mut rng = Xoshiro256::seed_from(seed);
        let mut x = Tensor::from_fn(&[n, 2, 8, 8], |_| rng.uniform());
        let mut y = Tensor::zeros(&[n, 1, 8, 8]);
        for ni in 0..n {
            for i in 0..64 {
                let v = x.data()[ni * 128 + i];
                y.data_mut()[ni * 64 + i] = if v > 0.6 { 1.0 } else { 0.0 };
            }
        }
        // Add mild noise to the other channel so it is uninformative.
        for ni in 0..n {
            for i in 0..64 {
                x.data_mut()[ni * 128 + 64 + i] = rng.uniform();
            }
        }
        ClientSet::new(x, y).unwrap()
    }

    fn small_model(seed: u64) -> FlNet {
        let mut rng = Xoshiro256::seed_from(seed);
        FlNet::new(
            FlNetConfig {
                in_channels: 2,
                hidden: 6,
                kernel: 3,
                depth: 2,
            },
            &mut rng,
        )
    }

    #[test]
    fn training_reduces_loss() {
        let data = toy_data(1, 8);
        let mut model = small_model(2);
        let trainer = LocalTrainer::new(5e-3, 0.0, 0.0, 4);
        let mut rng = Xoshiro256::seed_from(3);
        let first = trainer.train(&mut model, &data, None, 5, &mut rng).unwrap();
        let later = trainer
            .train(&mut model, &data, None, 60, &mut rng)
            .unwrap();
        assert!(later < first, "loss {first} -> {later}");
    }

    #[test]
    fn proximal_term_limits_drift() {
        let data = toy_data(4, 8);
        let trainer_free = LocalTrainer::new(5e-3, 0.0, 0.0, 4);
        let trainer_prox = LocalTrainer::new(5e-3, 0.0, 0.5, 4);
        let mut m_free = small_model(5);
        let mut m_prox = small_model(5);
        let reference = state_dict(&mut m_free);
        let mut rng1 = Xoshiro256::seed_from(6);
        let mut rng2 = Xoshiro256::seed_from(6);
        trainer_free
            .train(&mut m_free, &data, Some(&reference), 40, &mut rng1)
            .unwrap();
        trainer_prox
            .train(&mut m_prox, &data, Some(&reference), 40, &mut rng2)
            .unwrap();
        let drift_free =
            crate::params::l2_distance_sq(&state_dict(&mut m_free), &reference).unwrap();
        let drift_prox =
            crate::params::l2_distance_sq(&state_dict(&mut m_prox), &reference).unwrap();
        assert!(
            drift_prox < drift_free,
            "prox drift {drift_prox} !< free drift {drift_free}"
        );
    }

    #[test]
    fn zero_steps_is_error_not_fake_loss() {
        // Regression: `steps == 0` used to return Ok(0.0) via the
        // `steps.max(1)` divisor — a fabricated perfect loss with no
        // training performed.
        let data = toy_data(20, 4);
        let mut model = small_model(21);
        let trainer = LocalTrainer::new(1e-3, 0.0, 0.0, 2);
        let mut rng = Xoshiro256::seed_from(22);
        let err = trainer
            .train(&mut model, &data, None, 0, &mut rng)
            .unwrap_err();
        assert!(matches!(err, FedError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn mismatched_reference_shape_is_error_not_panic() {
        // Regression: a reference entry with the right name but the wrong
        // shape used to index out of bounds inside the prox loop.
        let data = toy_data(23, 4);
        let mut model = small_model(24);
        let trainer = LocalTrainer::new(1e-3, 0.0, 0.1, 2);
        let mut reference = state_dict(&mut model);
        reference[0].1 = Tensor::zeros(&[1]);
        let mut rng = Xoshiro256::seed_from(25);
        let err = trainer
            .train(&mut model, &data, Some(&reference), 1, &mut rng)
            .unwrap_err();
        assert!(matches!(err, FedError::AggregationMismatch { .. }), "{err}");
    }

    #[test]
    fn missing_reference_entry_is_error() {
        let data = toy_data(7, 4);
        let mut model = small_model(8);
        let trainer = LocalTrainer::new(1e-3, 0.0, 0.1, 2);
        let bad_reference = vec![("nonexistent".to_string(), Tensor::zeros(&[1]))];
        let mut rng = Xoshiro256::seed_from(9);
        assert!(trainer
            .train(&mut model, &data, Some(&bad_reference), 1, &mut rng)
            .is_err());
    }

    #[test]
    fn empty_data_is_error() {
        let x = Tensor::zeros(&[0, 2, 8, 8]);
        let y = Tensor::zeros(&[0, 1, 8, 8]);
        let empty = ClientSet::new(x, y).unwrap();
        let mut model = small_model(1);
        let trainer = LocalTrainer::new(1e-3, 0.0, 0.0, 2);
        let mut rng = Xoshiro256::seed_from(1);
        assert!(trainer
            .train(&mut model, &empty, None, 1, &mut rng)
            .is_err());
        assert!(trainer.eval_loss(&mut model, &empty).is_err());
    }

    #[test]
    fn eval_loss_is_batch_invariant() {
        let data = toy_data(10, 6);
        let mut model = small_model(11);
        let t1 = LocalTrainer::new(1e-3, 0.0, 0.0, 1);
        let t6 = LocalTrainer::new(1e-3, 0.0, 0.0, 6);
        let a = t1.eval_loss(&mut model, &data).unwrap();
        let b = t6.eval_loss(&mut model, &data).unwrap();
        assert!((a - b).abs() < 1e-5, "{a} vs {b}");
    }

    #[test]
    fn deterministic_training() {
        let data = toy_data(12, 6);
        let trainer = LocalTrainer::new(2e-3, 1e-5, 1e-4, 3);
        let run = || {
            let mut model = small_model(13);
            let reference = state_dict(&mut model);
            let mut rng = Xoshiro256::seed_from(14);
            trainer
                .train(&mut model, &data, Some(&reference), 10, &mut rng)
                .unwrap();
            state_dict(&mut model)
        };
        assert_eq!(run(), run());
    }
    /// The FedProx term's gradient against a central difference of
    /// `μ‖w − W‖²`, summed in `f64` over every parameter: the term is
    /// quadratic, so the difference is exact but for the rounding of
    /// `w ± eps` to `f32`.
    #[test]
    fn proximal_grad_matches_finite_differences() {
        let mu = 0.3;
        let mut model = small_model(15);
        let reference = state_dict(&mut small_model(16));
        let map: BTreeMap<&str, &Tensor> = reference.iter().map(|(n, t)| (n.as_str(), t)).collect();
        model.zero_grad();
        add_proximal_grad(&mut model, &map, mu).unwrap();
        let prox = |model: &mut FlNet| {
            let dist: f64 = state_dict(model)
                .iter()
                .zip(reference.iter())
                .flat_map(|((_, w), (_, w_ref))| w.data().iter().zip(w_ref.data()))
                .map(|(&w, &w_ref)| (f64::from(w) - f64::from(w_ref)).powi(2))
                .sum();
            f64::from(mu) * dist
        };
        let mut grads = Vec::new();
        model.visit_params("", &mut |name, p| grads.push((name, p.grad.clone())));
        const EPS: f32 = 1e-2;
        for (name, grad) in grads {
            for i in (0..grad.numel()).step_by(7) {
                // Sets the element, returning what it held.
                let set = |model: &mut FlNet, to: f32| {
                    let mut was = 0.0;
                    model.visit_params("", &mut |n, p| {
                        if n == name {
                            was = std::mem::replace(&mut p.value.data_mut()[i], to);
                        }
                    });
                    was
                };
                let w = set(&mut model, 0.0);
                set(&mut model, w + EPS);
                let up = prox(&mut model);
                set(&mut model, w - EPS);
                let down = prox(&mut model);
                set(&mut model, w);
                let numeric = (up - down) / f64::from(2.0 * EPS);
                let analytic = f64::from(grad.data()[i]);
                assert!(
                    (numeric - analytic).abs() < 1e-4 * (1.0 + analytic.abs()),
                    "{name}[{i}]: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }
}
