//! The eight training methods of the paper's Tables 3-5.
//!
//! Every method consumes the same ingredients — a client list, a
//! deterministic [`ModelFactory`] and a [`FedConfig`] — and produces a
//! [`MethodOutcome`] with one [`EvalReport`] per client (ROC AUC, average
//! precision, confusion at the 0.5 deployment threshold, score
//! histograms) plus an optional per-round history (used to regenerate the
//! Fig. 1/2 convergence series). Evaluation fans out per client through
//! [`crate::eval::Evaluator`], exactly like training fans out through
//! the harness' internal `train_clients` round loop.

mod alpha_sync;
mod assigned;
mod centralized;
mod fedprox;
mod finetune;
mod ifca;
mod lg;
mod local;

pub use fedprox::fedprox_rounds;

use rte_nn::{load_state_dict, state_dict, Layer, StateDict};
use rte_tensor::rng::Xoshiro256;

use crate::eval::{aucs, mean_auc, EvalReport, Evaluator};
use crate::{Client, FedConfig, FedError, LocalTrainer, Method, ModelFactory};

/// Evaluation batch size (evaluation is forward-only, so bigger batches
/// are safe and faster).
pub(crate) const EVAL_BATCH: usize = 16;

/// One recorded evaluation during training.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// Communication round (1-based; 0 = before training).
    pub round: usize,
    /// Full evaluation report per client, in client order.
    pub per_client: Vec<EvalReport>,
    /// ROC AUC per client, in client order (the scalar view of
    /// `per_client`).
    pub per_client_auc: Vec<f64>,
    /// Mean of `per_client_auc`.
    pub average_auc: f64,
    /// Mean training loss reported by this round's participants (what
    /// each client's worker returned alongside its update).
    pub mean_train_loss: f64,
}

impl RoundRecord {
    /// Builds a record from per-client reports and the round's mean
    /// training loss, deriving the scalar AUC views.
    pub fn new(round: usize, per_client: Vec<EvalReport>, mean_train_loss: f64) -> Self {
        let per_client_auc = aucs(&per_client);
        let average_auc = mean_auc(&per_client);
        RoundRecord {
            round,
            per_client,
            per_client_auc,
            average_auc,
            mean_train_loss,
        }
    }
}

/// Final result of one training method.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodOutcome {
    /// The method that produced this outcome.
    pub method: Method,
    /// Full final evaluation report per client, in client order.
    pub per_client: Vec<EvalReport>,
    /// Final ROC AUC per client, in client order (one table cell each —
    /// the scalar view of `per_client`).
    pub per_client_auc: Vec<f64>,
    /// Mean over clients (the table's "Average" column).
    pub average_auc: f64,
    /// Per-round evaluations (non-empty when `FedConfig::eval_every > 0`
    /// and the method is round-based).
    pub history: Vec<RoundRecord>,
}

impl MethodOutcome {
    /// Builds an outcome from per-client reports, deriving the scalar
    /// AUC views.
    pub fn new(method: Method, per_client: Vec<EvalReport>, history: Vec<RoundRecord>) -> Self {
        let per_client_auc = aucs(&per_client);
        let average_auc = mean_auc(&per_client);
        MethodOutcome {
            method,
            per_client,
            per_client_auc,
            average_auc,
            history,
        }
    }
}

/// The model(s) a finished method hands to deployment: one shared state
/// dict (generalized methods) or one per client (personalized methods).
/// This is the seam the scenario harness evaluates tolerantly — the same
/// states [`run_method`] scores strictly.
pub(crate) enum Deployed {
    /// One shared model evaluated on every client.
    Global(StateDict),
    /// One model per client, in client order.
    PerClient(Vec<StateDict>),
}

/// Trains `method` to its final deployable state(s) without the final
/// evaluation pass. [`run_method`] adds a strict evaluation;
/// [`crate::scenario::run_scenario`] adds a tolerant per-cell one.
///
/// # Errors
///
/// Returns [`FedError::InvalidConfig`] for methods with no aggregation
/// step (local-only, centralized train without a federation round loop),
/// otherwise any training failure.
pub(crate) fn deployed_states(
    method: Method,
    clients: &[Client],
    factory: &ModelFactory,
    config: &FedConfig,
) -> Result<(Deployed, Vec<RoundRecord>), FedError> {
    match method {
        Method::FedProx => fedprox::deployed(clients, factory, config),
        Method::FedProxLg => lg::deployed(clients, factory, config),
        Method::Ifca => ifca::deployed(clients, factory, config),
        Method::FedProxFinetune => finetune::deployed(clients, factory, config),
        Method::AssignedClustering => assigned::deployed(clients, factory, config),
        Method::AlphaSync => alpha_sync::deployed(clients, factory, config),
        Method::LocalOnly | Method::Centralized => Err(FedError::InvalidConfig {
            reason: format!("{method} has no aggregation step to defend against hostile clients"),
        }),
    }
}

/// One client's training assignment within a round: where it starts and
/// what it is proximally pulled towards.
pub(crate) struct TrainJob<'s> {
    /// Client position in the harness' client list.
    pub client: usize,
    /// State dict the client's model is deployed from.
    pub start: &'s StateDict,
    /// FedProx proximal reference (`None` = plain local SGD).
    pub reference: Option<&'s StateDict>,
}

/// What one client sends back to the coordinator after local training.
pub(crate) struct ClientUpdate<U = StateDict> {
    /// Client position (mirrors [`TrainJob::client`]).
    pub client: usize,
    /// The locally trained parameters (or, on the masked aggregation
    /// stage, their pairwise-masked quantization).
    pub state: U,
    /// Mean training loss over the local steps (surfaced through
    /// [`RoundRecord::mean_train_loss`]).
    pub loss: f32,
}

/// Mean of the training losses a round's participants reported.
pub(crate) fn mean_loss<U>(updates: &[ClientUpdate<U>]) -> f64 {
    if updates.is_empty() {
        return 0.0;
    }
    updates.iter().map(|u| u.loss as f64).sum::<f64>() / updates.len() as f64
}

/// Shared machinery for the method implementations: a scratch model for
/// state-dict extraction (and centralized training), the local trainer,
/// the parallel [`Evaluator`], and derived RNG streams.
pub(crate) struct Harness<'a> {
    pub clients: &'a [Client],
    pub config: &'a FedConfig,
    pub trainer: LocalTrainer,
    pub scratch: Box<dyn Layer>,
    pub evaluator: Evaluator,
    factory: &'a ModelFactory,
    root_rng: Xoshiro256,
}

impl<'a> Harness<'a> {
    pub fn new(
        clients: &'a [Client],
        factory: &'a ModelFactory,
        config: &'a FedConfig,
    ) -> Result<Self, FedError> {
        if clients.is_empty() {
            return Err(FedError::InvalidConfig {
                reason: "no clients".into(),
            });
        }
        config.validate_core()?;
        if let Some(scenario) = &config.scenario {
            scenario.validate(clients.len())?;
        }
        let trainer =
            LocalTrainer::new(config.lr, config.weight_decay, config.mu, config.batch_size);
        Ok(Harness {
            clients,
            config,
            trainer,
            scratch: factory(config.seed),
            evaluator: Evaluator::new(config.parallelism, EVAL_BATCH),
            factory,
            root_rng: fleet_rng(config.seed),
        })
    }

    /// The initial state dict every client starts from.
    pub fn initial_state(&mut self) -> StateDict {
        state_dict(self.scratch.as_mut())
    }

    /// Deterministic RNG for (round, client) training batches.
    pub fn round_rng(&self, round: usize, client: usize) -> Xoshiro256 {
        round_client_rng(&self.root_rng, round, client)
    }

    /// The clients participating in `round` under
    /// [`FedConfig::participation`]: all of them at 1.0, otherwise a
    /// deterministic per-round sample of
    /// `ceil(participation · K)` clients (at least one). When a
    /// scenario with dropout is active, its availability trace filters
    /// the sample afterwards (the lowest-indexed sampled client is kept
    /// if the whole round would otherwise drop out).
    pub fn participants(&self, round: usize) -> Vec<usize> {
        let k = self.clients.len();
        let mut sample = if self.config.participation >= 1.0 {
            (0..k).collect()
        } else {
            let take = ((self.config.participation as f64 * k as f64).ceil() as usize).clamp(1, k);
            let mut rng = self.root_rng.derive(0x9A37).derive(round as u64);
            let mut sample = rng.sample_indices(k, take);
            sample.sort_unstable();
            sample
        };
        if let Some(scenario) = &self.config.scenario {
            if scenario.dropout > 0.0 {
                let fallback = sample[0];
                sample.retain(|&c| scenario.available(round, c));
                if sample.is_empty() {
                    sample.push(fallback);
                }
            }
        }
        sample
    }

    /// Evaluates `sds[k]` on client `k`'s test split for every `k`
    /// (personalized deployment), clients on worker threads.
    pub fn eval_states(&self, sds: &[&StateDict]) -> Result<Vec<EvalReport>, FedError> {
        self.evaluator
            .eval_states(self.factory, self.config.seed, self.clients, sds)
    }

    /// Evaluates one state dict per client (personalized deployment).
    pub fn eval_personalized(&self, sds: &[StateDict]) -> Result<Vec<EvalReport>, FedError> {
        let refs: Vec<&StateDict> = sds.iter().collect();
        self.eval_states(&refs)
    }

    /// Evaluates one shared state dict on every client (generalized
    /// deployment).
    pub fn eval_global(&self, sd: &StateDict) -> Result<Vec<EvalReport>, FedError> {
        self.evaluator
            .eval_global(self.factory, self.config.seed, self.clients, sd)
    }

    /// Strictly evaluates a method's final deployment (either shape).
    pub fn eval_deployed(&self, deployed: &Deployed) -> Result<Vec<EvalReport>, FedError> {
        match deployed {
            Deployed::Global(sd) => self.eval_global(sd),
            Deployed::PerClient(sds) => self.eval_personalized(sds),
        }
    }

    /// The reports a finished run's outcome carries. A run that recorded
    /// its final round (`eval_every > 0`) has already evaluated the
    /// global state it deploys — the last record *is* that evaluation —
    /// so it is reused; every other deployment is evaluated here.
    pub(crate) fn eval_final(
        &self,
        deployed: &Deployed,
        history: &[RoundRecord],
    ) -> Result<Vec<EvalReport>, FedError> {
        match (deployed, history.last()) {
            (Deployed::Global(_), Some(last)) if last.round == self.config.rounds => {
                Ok(last.per_client.clone())
            }
            _ => self.eval_deployed(deployed),
        }
    }

    /// Tolerantly evaluates a method's final deployment: diverged
    /// clients come back as typed [`FedError::ClientDiverged`] cells in
    /// their slots instead of aborting the evaluation (the scenario
    /// harness' grid path).
    pub fn eval_deployed_cells(
        &self,
        deployed: &Deployed,
    ) -> Result<Vec<Result<EvalReport, FedError>>, FedError> {
        let states: Vec<&StateDict> = match deployed {
            Deployed::Global(sd) => vec![sd; self.clients.len()],
            Deployed::PerClient(sds) => sds.iter().collect(),
        };
        self.evaluator
            .eval_states_cells(self.factory, self.config.seed, self.clients, &states)
    }

    /// True when round `r` (1-based) should be recorded in the history.
    pub fn should_record(&self, round: usize) -> bool {
        self.config.eval_every > 0
            && (round % self.config.eval_every == 0 || round == self.config.rounds)
    }

    /// For every client, evaluates `argmin_c L_k(W_c)` over the cluster
    /// models on worker threads (IFCA's selection step — forward-only,
    /// read-only per client, and as embarrassingly parallel as the
    /// training half of the round). Ties break towards the lower cluster
    /// index, and each worker iterates clusters in order, so the result
    /// is identical for every thread count.
    ///
    /// # Errors
    ///
    /// Returns the first failing client's [`FedError`] in client order.
    pub fn pick_clusters(&self, cluster_models: &[StateDict]) -> Result<Vec<usize>, FedError> {
        let factory = self.factory;
        let clients = self.clients;
        let trainer = &self.trainer;
        let seed = self.config.seed;
        let ks: Vec<usize> = (0..clients.len()).collect();
        let results = rte_tensor::parallel::map_with(
            self.config.parallelism,
            &ks,
            || factory(seed),
            |model, _, &k| -> Result<usize, FedError> {
                let mut best = 0usize;
                let mut best_loss = f32::INFINITY;
                for (c, sd) in cluster_models.iter().enumerate() {
                    load_state_dict(model.as_mut(), sd)?;
                    let loss = trainer.eval_loss(model.as_mut(), &clients[k].train)?;
                    if loss < best_loss {
                        best_loss = loss;
                        best = c;
                    }
                }
                Ok(best)
            },
        );
        results.into_iter().collect()
    }

    /// Trains one round's participants on worker threads, up to
    /// [`FedConfig::parallelism`] at a time.
    ///
    /// Each worker builds its own model instance from the factory, then
    /// runs [`train_slot`] for every job it claims, on private state. The
    /// returned updates are **in job order**, and aggregation stays with
    /// the caller on the coordinator thread, so outcomes are bit-identical
    /// for every thread count (`tests/determinism.rs` pins this down).
    ///
    /// # Errors
    ///
    /// Returns the first failing job's [`FedError`] in job order.
    pub fn train_clients(
        &self,
        jobs: &[TrainJob<'_>],
        round: usize,
        steps: usize,
    ) -> Result<Vec<ClientUpdate>, FedError> {
        // Borrowed piecewise: the scratch model keeps `self` from being
        // shared with the workers.
        let (factory, clients, config) = (self.factory, self.clients, self.config);
        let (trainer, root_rng) = (&self.trainer, &self.root_rng);
        let results = rte_tensor::parallel::map_with(
            config.parallelism,
            jobs,
            || factory(config.seed),
            |model, _, job| {
                train_slot(
                    model.as_mut(),
                    trainer,
                    &clients[job.client],
                    config,
                    root_rng,
                    job,
                    round,
                    steps,
                )
            },
        );
        results.into_iter().collect()
    }
}

/// One training slot, the body shared by the harness' workers and the
/// remote [`crate::federation::ClientSession`]: deploy `job.start` into
/// `model`, draw the per-`(round, client)` minibatch stream, train
/// `steps` on `client` — the data of fleet position `job.client` —
/// against `job.reference`, then apply the scenario's Byzantine
/// corruption if this client has one (after honest training, from a
/// per-`(round, client)` stream independent of the training RNG).
///
/// # Errors
///
/// Returns any training failure.
pub(crate) fn train_slot(
    model: &mut dyn Layer,
    trainer: &LocalTrainer,
    client: &Client,
    config: &FedConfig,
    root_rng: &Xoshiro256,
    job: &TrainJob<'_>,
    round: usize,
    steps: usize,
) -> Result<ClientUpdate, FedError> {
    load_state_dict(model, job.start)?;
    let mut rng = round_client_rng(root_rng, round, job.client);
    let loss = trainer.train(model, &client.train, job.reference, steps, &mut rng)?;
    let mut state = state_dict(model);
    if let Some(scenario) = &config.scenario {
        if let Some(corrupted) = scenario.corrupt_update(round, job.client, job.start, &state)? {
            state = corrupted;
        }
    }
    Ok(ClientUpdate {
        client: job.client,
        state,
        loss,
    })
}

/// The one place the per-`(round, client)` minibatch stream is derived:
/// [`train_slot`] (every worker, every remote session) and the serial
/// [`Harness::round_rng`] helper must draw from exactly this stream, or
/// serial, threaded, and over-the-wire schedules would silently train
/// on different batches.
fn round_client_rng(root: &Xoshiro256, round: usize, client: usize) -> Xoshiro256 {
    root.derive(round as u64 + 1).derive(client as u64 + 1)
}

/// The fleet-level root RNG every coordinator and client derives its
/// per-round streams from. One derivation point (determinism rule 3):
/// [`Harness::new`] and the wire-side [`crate::federation`] peers both
/// call this, which is what makes a remote round bit-identical to the
/// in-process one.
pub(crate) fn fleet_rng(seed: u64) -> Xoshiro256 {
    Xoshiro256::seed_from(seed ^ 0x5EED_0F0C)
}

/// Runs one training method end to end.
///
/// # Errors
///
/// Returns [`FedError`] for invalid configurations or model failures.
pub fn run_method(
    method: Method,
    clients: &[Client],
    factory: &ModelFactory,
    config: &FedConfig,
) -> Result<MethodOutcome, FedError> {
    match method {
        Method::LocalOnly => local::run(clients, factory, config),
        Method::Centralized => centralized::run(clients, factory, config),
        _ => {
            let (deployed, history) = deployed_states(method, clients, factory, config)?;
            let harness = Harness::new(clients, factory, config)?;
            let per_client = harness.eval_final(&deployed, &history)?;
            Ok(MethodOutcome::new(method, per_client, history))
        }
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use crate::ClientSet;
    use rte_nn::models::{FlNet, FlNetConfig};
    use rte_tensor::Tensor;

    /// Builds a tiny synthetic client whose labels depend on channel 0,
    /// with a per-client distribution shift on the threshold (client-level
    /// heterogeneity in miniature).
    pub fn synthetic_client(id: usize, n_train: usize, n_test: usize, seed: u64) -> Client {
        let threshold = 0.45 + 0.1 * (id as f32 % 3.0) / 3.0;
        let make = |n: usize, salt: u64| -> ClientSet {
            let mut rng = Xoshiro256::seed_from(seed ^ salt);
            let mut x = Tensor::from_fn(&[n, 2, 8, 8], |_| rng.uniform());
            let mut y = Tensor::zeros(&[n, 1, 8, 8]);
            for ni in 0..n {
                for i in 0..64 {
                    let v = x.data()[ni * 128 + i];
                    y.data_mut()[ni * 64 + i] = if v > threshold { 1.0 } else { 0.0 };
                }
                for i in 0..64 {
                    x.data_mut()[ni * 128 + 64 + i] = rng.uniform();
                }
            }
            ClientSet::new(x, y).unwrap()
        };
        Client::new(id, make(n_train, 0xAAAA), make(n_test, 0xBBBB))
    }

    pub fn clients(n: usize) -> Vec<Client> {
        (0..n)
            .map(|k| synthetic_client(k + 1, 6, 3, 100 + k as u64))
            .collect()
    }

    pub fn factory() -> ModelFactory {
        Box::new(|seed| {
            let mut rng = Xoshiro256::seed_from(seed);
            Box::new(FlNet::new(
                FlNetConfig {
                    in_channels: 2,
                    hidden: 6,
                    kernel: 3,
                    depth: 2,
                },
                &mut rng,
            ))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::{clients, factory};
    use super::*;

    #[test]
    fn all_methods_produce_per_client_aucs() {
        let clients = clients(2);
        let factory = factory();
        let config = FedConfig::tiny();
        for method in Method::ALL {
            let outcome = run_method(method, &clients, &factory, &config).unwrap();
            assert_eq!(outcome.per_client_auc.len(), 2, "{method}");
            assert!(
                outcome
                    .per_client_auc
                    .iter()
                    .all(|a| (0.0..=1.0).contains(a)),
                "{method}: {:?}",
                outcome.per_client_auc
            );
            let mean = outcome.per_client_auc.iter().sum::<f64>() / 2.0;
            assert!((outcome.average_auc - mean).abs() < 1e-12);
        }
    }

    #[test]
    fn methods_are_deterministic() {
        let clients = clients(2);
        let factory = factory();
        let config = FedConfig::tiny();
        let a = run_method(Method::FedProx, &clients, &factory, &config).unwrap();
        let b = run_method(Method::FedProx, &clients, &factory, &config).unwrap();
        assert_eq!(a.per_client_auc, b.per_client_auc);
    }

    #[test]
    fn history_recorded_when_requested() {
        let clients = clients(2);
        let factory = factory();
        let mut config = FedConfig::tiny();
        config.eval_every = 1;
        let outcome = run_method(Method::FedProx, &clients, &factory, &config).unwrap();
        assert_eq!(outcome.history.len(), config.rounds);
        for (i, rec) in outcome.history.iter().enumerate() {
            assert_eq!(rec.round, i + 1);
            assert_eq!(rec.per_client_auc.len(), 2);
        }
    }

    /// With the final round recorded, the outcome reuses that record's
    /// reports instead of evaluating the same state again: bitwise what
    /// the separate evaluation of an unrecorded run returns, for both
    /// methods that deploy the global state and for one that does not.
    #[test]
    fn recorded_final_round_is_the_outcome() {
        let clients = clients(3);
        let factory = factory();
        let mut plain = FedConfig::tiny();
        plain.finetune_steps = 0;
        let mut recorded = plain.clone();
        recorded.eval_every = 2;
        for method in [Method::FedProx, Method::FedProxFinetune, Method::Ifca] {
            let evaluated = run_method(method, &clients, &factory, &plain).unwrap();
            let reused = run_method(method, &clients, &factory, &recorded).unwrap();
            assert!(evaluated.history.is_empty(), "{method}");
            assert_eq!(
                reused.history.last().unwrap().round,
                recorded.rounds,
                "{method}"
            );
            assert_eq!(reused.per_client, evaluated.per_client, "{method}");
            assert_eq!(
                reused.average_auc.to_bits(),
                evaluated.average_auc.to_bits(),
                "{method}"
            );
        }
        let fedprox = run_method(Method::FedProx, &clients, &factory, &recorded).unwrap();
        assert_eq!(
            fedprox.per_client,
            fedprox.history.last().unwrap().per_client
        );
    }

    #[test]
    fn empty_clients_rejected() {
        let factory = factory();
        let config = FedConfig::tiny();
        assert!(run_method(Method::FedProx, &[], &factory, &config).is_err());
    }
}
