//! Hostile-client scenario injection — the Table 6 robustness harness.
//!
//! The paper's federation assumes every client is honest. This module
//! drops that assumption: a [`ScenarioConfig`] wraps any aggregating
//! method with a per-client attack assignment plus a per-round
//! availability trace, and [`run_scenario`] produces one grid cell per
//! client — a healthy [`EvalReport`] or a typed
//! [`FedError::ClientDiverged`] — instead of aborting the run when an
//! attack succeeds.
//!
//! # Attack surface
//!
//! Attacks hook the federation at three distinct points:
//!
//! - **Data poisoning** ([`Attack::LabelNoise`], [`Attack::FeatureDrift`])
//!   rewrites a hostile client's *training* split once, before training
//!   starts ([`ScenarioConfig::poison_clients`]). Test splits stay clean:
//!   the grid measures what the attack does to honest clients, not to
//!   the attacker's own ground truth.
//! - **Byzantine updates** ([`Attack::SignFlip`], [`Attack::ScaledNoise`])
//!   corrupt what the hostile client *sends back* each round. The
//!   harness applies the corruption on the coordinator thread in job
//!   order, after the honest local training completed — exactly where a
//!   real attacker sits, between local training and aggregation.
//! - **Availability** (`dropout`) drops clients from rounds via an
//!   independent per-`(round, client)` Bernoulli trace, composed on top
//!   of [`FedConfig::participation`] sampling. At least one participant
//!   always survives.
//!
//! # Determinism (contract rule 6)
//!
//! Every scenario decision is a pure function of
//! `(scenario seed, round, client)`, drawn from RNG streams salted
//! *differently* from the training streams: poisoning, corruption and
//! availability never consume training randomness, so an honest client's
//! minibatch sequence under attack is bit-identical to its sequence in a
//! clean run. Byzantine corruption and dropout filtering run on the
//! coordinator thread in fixed job order — scenario outcomes are
//! bit-identical at every thread count and SIMD arm
//! (`tests/scenario_determinism.rs` pins a full grid).
//!
//! [`FedConfig::participation`]: crate::FedConfig

use rte_nn::StateDict;
use rte_tensor::rng::Xoshiro256;

use crate::config::Aggregation;
use crate::eval::EvalReport;
use crate::methods::{deploy_method, Harness};
use crate::{Client, ClientSet, FedConfig, FedError, Method, ModelFactory};

/// Salt for the data-poisoning streams (one per hostile client).
const DATA_SALT: u64 = 0x5C3A_0DA7;
/// Salt for the Byzantine-corruption streams (one per round × client).
const BYZANTINE_SALT: u64 = 0x5C3A_B42E;
/// Salt for the availability trace (one draw per round × client).
const DROPOUT_SALT: u64 = 0x5C3A_D809;

/// What one client does to the federation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Attack {
    /// An honest client.
    None,
    /// Each training label pixel flips independently with probability
    /// `rate` (applied once, before training).
    LabelNoise {
        /// Per-pixel flip probability in `[0, 1]`.
        rate: f32,
    },
    /// Additive Gaussian drift `x += σ·N(0,1)` on every training feature
    /// value (applied once, before training).
    FeatureDrift {
        /// Drift standard deviation (finite, `>= 0`).
        sigma: f32,
    },
    /// The client trains honestly, then sends
    /// `start − scale·(trained − start)`: its true update with the sign
    /// flipped and amplified — the classic model-poisoning attack.
    SignFlip {
        /// Amplification factor (finite, `>= 0`).
        scale: f32,
    },
    /// The client sends `trained + σ·N(0,1)` per parameter — a noise
    /// injection that a mean dilutes but never rejects.
    ScaledNoise {
        /// Noise standard deviation (finite, `>= 0`).
        sigma: f32,
    },
}

impl Attack {
    /// Short stable name used in grid headers and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            Attack::None => "clean",
            Attack::LabelNoise { .. } => "label-noise",
            Attack::FeatureDrift { .. } => "feature-drift",
            Attack::SignFlip { .. } => "sign-flip",
            Attack::ScaledNoise { .. } => "scaled-noise",
        }
    }

    /// True when the attack rewrites the client's training data before
    /// training starts.
    fn poisons_data(&self) -> bool {
        matches!(
            self,
            Attack::LabelNoise { .. } | Attack::FeatureDrift { .. }
        )
    }

    /// True when the attack corrupts the update the client sends back.
    fn is_byzantine(&self) -> bool {
        matches!(self, Attack::SignFlip { .. } | Attack::ScaledNoise { .. })
    }

    fn validate(&self) -> Result<(), FedError> {
        let bad = |reason: String| Err(FedError::InvalidConfig { reason });
        match *self {
            Attack::None => Ok(()),
            Attack::LabelNoise { rate } => {
                if !(0.0..=1.0).contains(&rate) {
                    return bad(format!("label-noise rate {rate} outside [0, 1]"));
                }
                Ok(())
            }
            Attack::FeatureDrift { sigma } => {
                if !sigma.is_finite() || sigma < 0.0 {
                    return bad(format!("feature-drift sigma {sigma} not finite and >= 0"));
                }
                Ok(())
            }
            Attack::SignFlip { scale } => {
                if !scale.is_finite() || scale < 0.0 {
                    return bad(format!("sign-flip scale {scale} not finite and >= 0"));
                }
                Ok(())
            }
            Attack::ScaledNoise { sigma } => {
                if !sigma.is_finite() || sigma < 0.0 {
                    return bad(format!("scaled-noise sigma {sigma} not finite and >= 0"));
                }
                Ok(())
            }
        }
    }
}

/// A seeded adversarial scenario: one [`Attack`] per client plus a
/// round-level dropout probability.
///
/// Build with [`ScenarioConfig::honest`] and layer hostility on top:
///
/// ```
/// use rte_fed::{Attack, ScenarioConfig};
///
/// let scenario = ScenarioConfig::honest(7, 9)
///     .hostile_tail(2, Attack::SignFlip { scale: 4.0 })
///     .with_dropout(0.1);
/// assert_eq!(scenario.attacks.len(), 9);
/// assert!(scenario.validate(9).is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Seed of the scenario streams (independent of the training seed).
    pub seed: u64,
    /// One attack per client, in client order.
    pub attacks: Vec<Attack>,
    /// Per-round per-client dropout probability in `[0, 1)`.
    pub dropout: f32,
}

impl ScenarioConfig {
    /// An all-honest scenario over `n_clients` clients with no dropout.
    pub fn honest(seed: u64, n_clients: usize) -> Self {
        ScenarioConfig {
            seed,
            attacks: vec![Attack::None; n_clients],
            dropout: 0.0,
        }
    }

    /// Assigns `attack` to the last `count` clients — the convention the
    /// `table6_robustness` bench uses for its adversary pool.
    pub fn hostile_tail(mut self, count: usize, attack: Attack) -> Self {
        let n = self.attacks.len();
        for slot in self.attacks.iter_mut().skip(n.saturating_sub(count)) {
            *slot = attack;
        }
        self
    }

    /// Sets the per-round per-client dropout probability.
    pub fn with_dropout(mut self, dropout: f32) -> Self {
        self.dropout = dropout;
        self
    }

    /// Checks the scenario against a federation of `n_clients` clients.
    ///
    /// # Errors
    ///
    /// Returns [`FedError::InvalidConfig`] when the attack list length
    /// disagrees with `n_clients`, the dropout probability is outside
    /// `[0, 1)`, or any attack parameter is degenerate.
    pub fn validate(&self, n_clients: usize) -> Result<(), FedError> {
        if self.attacks.len() != n_clients {
            return Err(FedError::InvalidConfig {
                reason: format!(
                    "{} attack assignments for {} clients",
                    self.attacks.len(),
                    n_clients
                ),
            });
        }
        if !self.dropout.is_finite() || !(0.0..1.0).contains(&self.dropout) {
            return Err(FedError::InvalidConfig {
                reason: format!("dropout {} outside [0, 1)", self.dropout),
            });
        }
        for attack in &self.attacks {
            attack.validate()?;
        }
        Ok(())
    }

    /// Whether `client` shows up for `round` — a pure function of
    /// `(seed, round, client)`, drawn from the availability stream.
    pub fn available(&self, round: usize, client: usize) -> bool {
        if self.dropout <= 0.0 {
            return true;
        }
        let mut rng = Xoshiro256::seed_from(self.seed ^ DROPOUT_SALT)
            .derive(round as u64 + 1)
            .derive(client as u64 + 1);
        !rng.bernoulli(self.dropout as f64)
    }

    /// Applies the data-poisoning attacks, returning a new client list.
    ///
    /// Hostile training splits are materialized in memory, rewritten
    /// under that client's poisoning stream, and rewrapped; honest
    /// clients (and every test split) are passed through untouched.
    ///
    /// # Errors
    ///
    /// Returns [`FedError::InvalidConfig`] when the scenario does not
    /// validate against `clients`, and propagates storage errors from
    /// materializing streamed splits.
    pub fn poison_clients(&self, clients: &[Client]) -> Result<Vec<Client>, FedError> {
        self.validate(clients.len())?;
        let mut out = Vec::with_capacity(clients.len());
        for (k, client) in clients.iter().enumerate() {
            let attack = self.attacks[k];
            if !attack.poisons_data() {
                out.push(client.clone());
                continue;
            }
            let n = client.train.len();
            let (mut x, mut y) = client.train.try_minibatch_range(0..n)?;
            let mut rng = Xoshiro256::seed_from(self.seed ^ DATA_SALT).derive(k as u64 + 1);
            match attack {
                Attack::LabelNoise { rate } => {
                    for v in y.data_mut() {
                        if rng.bernoulli(rate as f64) {
                            *v = 1.0 - *v;
                        }
                    }
                }
                Attack::FeatureDrift { sigma } => {
                    for v in x.data_mut() {
                        *v += sigma * rng.normal();
                    }
                }
                _ => {}
            }
            out.push(Client::new(
                client.id,
                ClientSet::new(x, y)?,
                client.test.clone(),
            ));
        }
        Ok(out)
    }

    /// The Byzantine corruption client `client` applies to its trained
    /// update in `round`: `None` for honest senders, `Some(corrupted)`
    /// for [`Attack::SignFlip`] / [`Attack::ScaledNoise`]. Stateless per
    /// `(round, client)`, so it runs inside the training slot.
    ///
    /// # Errors
    ///
    /// Returns [`FedError::AggregationMismatch`] when `start` and
    /// `trained` disagree structurally (cannot happen for updates the
    /// harness produced itself).
    pub(crate) fn corrupt_update(
        &self,
        round: usize,
        client: usize,
        start: &StateDict,
        trained: &StateDict,
    ) -> Result<Option<StateDict>, FedError> {
        let attack = self.attacks[client];
        if !attack.is_byzantine() {
            return Ok(None);
        }
        if start.len() != trained.len()
            || start
                .iter()
                .zip(trained.iter())
                .any(|((an, at), (bn, bt))| an != bn || at.shape() != bt.shape())
        {
            return Err(FedError::AggregationMismatch {
                reason: format!("client {client} start/trained state dicts disagree"),
            });
        }
        let mut out = StateDict::with_capacity(trained.len());
        match attack {
            Attack::SignFlip { scale } => {
                for ((name, s), (_, t)) in start.iter().zip(trained.iter()) {
                    let mut tensor = t.clone();
                    for (v, &sv) in tensor.data_mut().iter_mut().zip(s.data().iter()) {
                        *v = sv - scale * (*v - sv);
                    }
                    out.push((name.clone(), tensor));
                }
            }
            Attack::ScaledNoise { sigma } => {
                let mut rng = Xoshiro256::seed_from(self.seed ^ BYZANTINE_SALT)
                    .derive(round as u64 + 1)
                    .derive(client as u64 + 1);
                for (name, t) in trained.iter() {
                    let mut tensor = t.clone();
                    for v in tensor.data_mut() {
                        *v += sigma * rng.normal();
                    }
                    out.push((name.clone(), tensor));
                }
            }
            _ => {}
        }
        Ok(Some(out))
    }
}

/// One method × defense cell row of the robustness grid: per-client
/// outcomes under a fixed scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// The method that ran.
    pub method: Method,
    /// The aggregation rule that defended it.
    pub aggregation: Aggregation,
    /// One cell per client: a healthy report, or
    /// [`FedError::ClientDiverged`] when the deployed model's scores
    /// were rejected by the metrics layer.
    pub cells: Vec<Result<EvalReport, FedError>>,
}

impl ScenarioOutcome {
    /// AUC per client, `None` for diverged cells.
    pub fn cell_aucs(&self) -> Vec<Option<f64>> {
        self.cells
            .iter()
            .map(|c| c.as_ref().ok().map(|r| r.auc))
            .collect()
    }

    /// Indices of the diverged clients.
    pub fn diverged(&self) -> Vec<usize> {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_err())
            .map(|(k, _)| k)
            .collect()
    }

    /// Mean AUC over the healthy cells; `None` when every client
    /// diverged.
    pub fn healthy_average_auc(&self) -> Option<f64> {
        let aucs: Vec<f64> = self
            .cells
            .iter()
            .filter_map(|c| c.as_ref().ok().map(|r| r.auc))
            .collect();
        if aucs.is_empty() {
            None
        } else {
            Some(aucs.iter().sum::<f64>() / aucs.len() as f64)
        }
    }
}

/// Runs one aggregating method under an adversarial scenario and scores
/// the final deployment tolerantly: a client whose model diverged under
/// attack becomes a typed cell, not an aborted run.
///
/// Mid-training history evaluation is disabled for the run
/// (`eval_every = 0`): the grid scores only the final deployment, so a
/// mid-round divergence never kills the round loop.
///
/// # Errors
///
/// Returns [`FedError::InvalidConfig`] for a scenario that does not
/// validate against `clients` or a method with no aggregation step to
/// defend (local-only, centralized), and propagates infrastructure
/// failures (model, tensor, streaming errors). Divergence under attack
/// is **not** an error — it lands in [`ScenarioOutcome::cells`].
pub fn run_scenario(
    method: Method,
    clients: &[Client],
    factory: &ModelFactory,
    config: &FedConfig,
    scenario: &ScenarioConfig,
) -> Result<ScenarioOutcome, FedError> {
    let poisoned = scenario.poison_clients(clients)?;
    let mut cfg = config.clone();
    cfg.scenario = Some(scenario.clone());
    cfg.eval_every = 0;
    let mut harness = Harness::new(&poisoned, factory, &cfg)?;
    let (cells, _history) = deploy_method(method, &mut harness)?;
    for cell in &cells {
        if let Err(e) = cell {
            if !matches!(e, FedError::ClientDiverged { .. }) {
                return Err(e.clone());
            }
        }
    }
    Ok(ScenarioOutcome {
        method,
        aggregation: cfg.aggregation,
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::run_method;
    use crate::methods::test_support::{clients, factory};

    fn state(values: &[f32]) -> StateDict {
        vec![(
            "w".to_string(),
            rte_tensor::Tensor::from_vec(values.to_vec(), &[values.len()]).unwrap(),
        )]
    }

    #[test]
    fn validate_rejects_degenerate_scenarios() {
        let s = ScenarioConfig::honest(1, 3);
        assert!(s.validate(3).is_ok());
        assert!(s.validate(4).is_err(), "length mismatch");
        assert!(s.clone().with_dropout(1.0).validate(3).is_err());
        assert!(s.clone().with_dropout(-0.1).validate(3).is_err());
        for (client, attack) in [
            (0, Attack::LabelNoise { rate: 1.5 }),
            (1, Attack::SignFlip { scale: f32::NAN }),
            (2, Attack::FeatureDrift { sigma: -1.0 }),
        ] {
            let mut hostile = s.clone();
            hostile.attacks[client] = attack;
            assert!(hostile.validate(3).is_err(), "{attack:?}");
        }
    }

    #[test]
    fn hostile_tail_marks_the_last_clients() {
        let s = ScenarioConfig::honest(0, 4).hostile_tail(2, Attack::SignFlip { scale: 2.0 });
        assert_eq!(s.attacks[0], Attack::None);
        assert_eq!(s.attacks[1], Attack::None);
        assert_eq!(s.attacks[2], Attack::SignFlip { scale: 2.0 });
        assert_eq!(s.attacks[3], Attack::SignFlip { scale: 2.0 });
    }

    #[test]
    fn poisoning_is_deterministic_and_train_only() {
        let clients = clients(3);
        let mut scenario = ScenarioConfig::honest(9, 3);
        scenario.attacks[1] = Attack::LabelNoise { rate: 0.5 };
        scenario.attacks[2] = Attack::FeatureDrift { sigma: 0.3 };
        let a = scenario.poison_clients(&clients).unwrap();
        let b = scenario.poison_clients(&clients).unwrap();
        let all = |set: &ClientSet| set.minibatch_range(0..set.len());
        for k in 0..3 {
            assert_eq!(
                all(&a[k].train),
                all(&b[k].train),
                "same scenario, same bytes"
            );
            assert_eq!(
                all(&a[k].test),
                all(&b[k].test),
                "same scenario, same bytes"
            );
            // Every test split untouched.
            assert_eq!(
                all(&a[k].test),
                all(&clients[k].test),
                "client {k} test split"
            );
            assert_eq!(a[k].id, clients[k].id);
        }
        // Honest client untouched.
        assert_eq!(all(&a[0].train), all(&clients[0].train));
        // Hostile training splits actually changed.
        assert_ne!(
            all(&a[1].train),
            all(&clients[1].train),
            "label noise must flip"
        );
        assert_ne!(
            all(&a[2].train),
            all(&clients[2].train),
            "drift must move features"
        );
        // Label noise flips labels only; drift moves features only.
        let n1 = clients[1].train.len();
        let (x_orig, _) = clients[1].train.try_minibatch_range(0..n1).unwrap();
        let (x_noisy, _) = a[1].train.try_minibatch_range(0..n1).unwrap();
        assert_eq!(x_orig, x_noisy, "label noise leaves features alone");
        let n2 = clients[2].train.len();
        let (_, y_orig) = clients[2].train.try_minibatch_range(0..n2).unwrap();
        let (_, y_drift) = a[2].train.try_minibatch_range(0..n2).unwrap();
        assert_eq!(y_orig, y_drift, "drift leaves labels alone");
    }

    #[test]
    fn label_noise_flip_fraction_tracks_rate() {
        let clients = clients(1);
        let rate = 0.25f32;
        let mut scenario = ScenarioConfig::honest(4, 1);
        scenario.attacks[0] = Attack::LabelNoise { rate };
        let poisoned = scenario.poison_clients(&clients).unwrap();
        let n = clients[0].train.len();
        let (_, y0) = clients[0].train.try_minibatch_range(0..n).unwrap();
        let (_, y1) = poisoned[0].train.try_minibatch_range(0..n).unwrap();
        let flipped = y0
            .data()
            .iter()
            .zip(y1.data().iter())
            .filter(|(a, b)| a != b)
            .count();
        let fraction = flipped as f64 / y0.data().len() as f64;
        assert!(
            (fraction - rate as f64).abs() < 0.15,
            "flip fraction {fraction} vs rate {rate}"
        );
    }

    #[test]
    fn sign_flip_mirrors_the_update_exactly() {
        let mut scenario = ScenarioConfig::honest(0, 2);
        scenario.attacks[1] = Attack::SignFlip { scale: 3.0 };
        let start = state(&[1.0, 2.0]);
        let trained = state(&[2.0, 1.5]);
        // Honest client: untouched.
        assert_eq!(
            scenario.corrupt_update(1, 0, &start, &trained).unwrap(),
            None
        );
        // Hostile client: start − 3·(trained − start).
        let corrupted = scenario
            .corrupt_update(1, 1, &start, &trained)
            .unwrap()
            .unwrap();
        assert_eq!(corrupted[0].1.data(), &[-2.0, 3.5]);
    }

    #[test]
    fn scaled_noise_is_per_round_deterministic() {
        let mut scenario = ScenarioConfig::honest(7, 1);
        scenario.attacks[0] = Attack::ScaledNoise { sigma: 1.0 };
        let start = state(&[0.0, 0.0, 0.0]);
        let trained = state(&[1.0, 1.0, 1.0]);
        let a = scenario.corrupt_update(2, 0, &start, &trained).unwrap();
        let b = scenario.corrupt_update(2, 0, &start, &trained).unwrap();
        assert_eq!(a, b, "same (round, client) stream");
        let c = scenario.corrupt_update(3, 0, &start, &trained).unwrap();
        assert_ne!(a, c, "different round, different noise");
        assert_ne!(a.unwrap()[0].1.data(), trained[0].1.data());
    }

    #[test]
    fn corrupt_update_rejects_mismatched_dicts() {
        let mut scenario = ScenarioConfig::honest(0, 1);
        scenario.attacks[0] = Attack::SignFlip { scale: 1.0 };
        let err = scenario
            .corrupt_update(1, 0, &state(&[1.0]), &state(&[1.0, 2.0]))
            .unwrap_err();
        assert!(matches!(err, FedError::AggregationMismatch { .. }));
    }

    #[test]
    fn availability_is_deterministic_and_total_without_dropout() {
        let s = ScenarioConfig::honest(3, 4);
        assert!((0..4).all(|k| s.available(1, k)), "no dropout: all present");
        let s = s.with_dropout(0.5);
        let trace: Vec<bool> = (1..=40).map(|r| s.available(r, 2)).collect();
        let again: Vec<bool> = (1..=40).map(|r| s.available(r, 2)).collect();
        assert_eq!(trace, again);
        assert!(trace.iter().any(|&a| a), "client must sometimes show up");
        assert!(trace.iter().any(|&a| !a), "p=0.5 must sometimes drop");
    }

    #[test]
    fn honest_scenario_reproduces_the_plain_run() {
        let clients = clients(3);
        let factory = factory();
        let config = FedConfig::tiny();
        let scenario = ScenarioConfig::honest(1, 3);
        let outcome =
            run_scenario(Method::FedProx, &clients, &factory, &config, &scenario).unwrap();
        let plain = run_method(Method::FedProx, &clients, &factory, &config).unwrap();
        assert_eq!(outcome.diverged(), Vec::<usize>::new());
        for (cell, report) in outcome.cells.iter().zip(plain.per_client.iter()) {
            assert_eq!(cell.as_ref().unwrap(), report);
        }
        assert_eq!(
            outcome.healthy_average_auc().unwrap(),
            plain.average_auc,
            "honest scenario is bitwise-neutral"
        );
    }

    #[test]
    fn scenario_rejects_non_aggregating_methods() {
        let clients = clients(2);
        let factory = factory();
        let config = FedConfig::tiny();
        let scenario = ScenarioConfig::honest(1, 2);
        for method in [Method::LocalOnly, Method::Centralized] {
            let err = run_scenario(method, &clients, &factory, &config, &scenario).unwrap_err();
            assert!(matches!(err, FedError::InvalidConfig { .. }), "{method}");
        }
    }

    #[test]
    fn dropout_keeps_training_alive() {
        let clients = clients(3);
        let factory = factory();
        let config = FedConfig::tiny();
        let scenario = ScenarioConfig::honest(5, 3).with_dropout(0.6);
        let outcome =
            run_scenario(Method::FedProx, &clients, &factory, &config, &scenario).unwrap();
        assert_eq!(outcome.cells.len(), 3);
        assert!(outcome.cells.iter().all(|c| c.is_ok()));
    }
}
