//! The eight training methods of the paper's Tables 3-5.
//!
//! Every method consumes the same ingredients — a client list, a
//! deterministic [`ModelFactory`] and a [`FedConfig`] — and produces a
//! [`MethodOutcome`] with one [`EvalReport`] per client (ROC AUC, average
//! precision, confusion at the 0.5 deployment threshold, score
//! histograms) plus an optional per-round history (used to regenerate the
//! Fig. 1/2 convergence series).
//!
//! The six round-based methods run on the one round loop,
//! [`crate::engine`]'s `run_rounds`, and differ only in what they deploy
//! — a configuration of the engine's deployment seam:
//!
//! - FedProx: the one global state,
//! - FedProx-LG (`lg`): a global part plus one private output layer per
//!   client, one composite per client,
//! - IFCA (`ifca`) and assigned clustering (`assigned`): one model per
//!   cluster, the assignment re-picked by training loss each round
//!   (IFCA, distinct inits) or fixed from `assigned_clusters` (shared
//!   init),
//! - α-sync (`alpha_sync`): one personalized blend per client,
//! - FedProx + fine-tuning: FedProx's global state, then per-client
//!   fine-tuning at deploy time.
//!
//! The local and centralized baselines have no rounds. Training fans
//! out per round through the harness' `train_clients` and evaluation per
//! client through [`crate::eval::Evaluator`].

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

use crate::engine::{deploy, run_rounds, Deployment, InProcess, Plain};
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

/// One evaluation cell per client: a report, or the typed error of a
/// client whose deployed model diverged.
pub(crate) type Cells = Vec<Result<EvalReport, FedError>>;

/// The deployment `method` runs the round engine with ([`crate::engine`]'s
/// seam): the configuration that makes it that method. FedProx +
/// fine-tuning runs FedProx's; its fine-tuning pass comes after the
/// rounds ([`deploy_method`]).
///
/// # Errors
///
/// Returns [`FedError::InvalidConfig`] for methods with no aggregation
/// step (local-only, centralized train without a federation round loop)
/// and for an invalid cluster count or assignment.
pub(crate) fn deployment(
    method: Method,
    harness: &mut Harness<'_>,
) -> Result<Box<dyn Deployment>, FedError> {
    let n = harness.clients.len();
    Ok(match method {
        Method::FedProx | Method::FedProxFinetune => Box::new(harness.initial_state()),
        Method::FedProxLg => Box::new(lg::Lg(vec![harness.initial_state(); n])),
        Method::Ifca => Box::new(ifca::Clusters::ifca(harness)?),
        Method::AssignedClustering => Box::new(assigned::clusters(harness)?),
        Method::AlphaSync => Box::new(alpha_sync::AlphaSync(vec![harness.initial_state(); n])),
        Method::LocalOnly | Method::Centralized => {
            let reason =
                format!("{method} has no aggregation step to defend against hostile clients");
            return Err(FedError::InvalidConfig { reason });
        }
    })
}

/// Trains `method` on `harness`' fleet and evaluates what it deploys,
/// one cell per client. [`run_method`] collects the cells strictly;
/// [`crate::scenario::run_scenario`] keeps diverged clients as cells.
///
/// # Errors
///
/// As [`deployment`], otherwise any training failure.
pub(crate) fn deploy_method(
    method: Method,
    harness: &mut Harness<'_>,
) -> Result<(Cells, Vec<RoundRecord>), FedError> {
    let mut deployment = deployment(method, harness)?;
    let history = rounds(harness, deployment.as_mut())?;
    // `S' = 0` degenerates to plain FedProx: no fine-tuning pass
    // (LocalTrainer rejects zero-step runs), the global model as-is.
    if method == Method::FedProxFinetune && harness.config.finetune_steps > 0 {
        let cells = finetune::finetune(harness, deployment.state(0))?;
        return Ok((cells, history));
    }
    Ok((deploy(harness, deployment.as_mut(), &history)?, history))
}

/// The round engine in process on the plain stage, from round 1.
fn rounds(
    harness: &Harness<'_>,
    deployment: &mut (impl Deployment + ?Sized),
) -> Result<Vec<RoundRecord>, FedError> {
    run_rounds(
        harness,
        &Plain,
        &mut InProcess(harness),
        deployment,
        0,
        None,
    )
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

/// The running mean of the training losses a round's participants
/// report, fed in participant order as the updates arrive.
pub(crate) struct LossMean {
    sum: f64,
    n: usize,
}

impl Default for LossMean {
    /// Starts from `-0.0`, the neutral element `Iterator::sum` starts
    /// from, so the fold has the bits of a sum over the collected losses.
    fn default() -> Self {
        LossMean { sum: -0.0, n: 0 }
    }
}

impl LossMean {
    pub(crate) fn add(&mut self, loss: f32) {
        self.sum += loss as f64;
        self.n += 1;
    }

    /// The mean, 0 when no loss was reported.
    pub(crate) fn mean(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.sum / self.n as f64
    }
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

    /// Evaluates `sds[k]` on client `k`'s test split for every `k`,
    /// keeping a diverged client as a [`FedError::ClientDiverged`] cell
    /// in its slot instead of aborting the evaluation.
    pub fn eval_cells(&self, sds: &[&StateDict]) -> Result<Cells, FedError> {
        self.evaluator
            .eval_states_cells(self.factory, self.config.seed, self.clients, sds)
    }

    /// Evaluates one shared state dict on every client (generalized
    /// deployment).
    pub fn eval_global(&self, sd: &StateDict) -> Result<Vec<EvalReport>, FedError> {
        self.evaluator
            .eval_global(self.factory, self.config.seed, self.clients, sd)
    }

    /// True when round `r` (1-based) should be recorded in the history.
    pub fn should_record(&self, round: usize) -> bool {
        self.config.eval_every > 0
            && (round.is_multiple_of(self.config.eval_every) || round == self.config.rounds)
    }

    /// Trains one round's participants on worker threads, up to
    /// [`FedConfig::parallelism`] at a time, and hands each update to
    /// `sink` on the calling thread **in job order**, as soon as every
    /// earlier job's update has been handed over.
    ///
    /// Each worker builds its own model instance from the factory, then
    /// runs [`train_slot`] for every job it claims, on private state.
    /// Aggregation stays with the caller on the coordinator thread, in
    /// job order, so outcomes are bit-identical for every thread count
    /// (`tests/determinism.rs` pins this down).
    ///
    /// # Errors
    ///
    /// Returns the first failing job's [`FedError`] in job order; no
    /// update after it reaches `sink`.
    pub fn train_clients(
        &self,
        jobs: &[TrainJob<'_>],
        round: usize,
        steps: usize,
        mut sink: impl FnMut(ClientUpdate),
    ) -> Result<(), FedError> {
        // Borrowed piecewise: the scratch model keeps `self` from being
        // shared with the workers.
        let (factory, clients, config) = (self.factory, self.clients, self.config);
        let (trainer, root_rng) = (&self.trainer, &self.root_rng);
        let mut failed = None;
        rte_tensor::parallel::map_ordered(
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
            |_, trained| match trained {
                Ok(update) if failed.is_none() => sink(update),
                Ok(_) => {}
                Err(e) => {
                    failed.get_or_insert(e);
                }
            },
        );
        failed.map_or(Ok(()), Err)
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
    let mut harness = Harness::new(clients, factory, config)?;
    let (cells, history) = match method {
        Method::LocalOnly => (local::run(&mut harness)?, Vec::new()),
        Method::Centralized => (centralized::run(&mut harness)?, Vec::new()),
        _ => deploy_method(method, &mut harness)?,
    };
    let per_client = cells.into_iter().collect::<Result<_, _>>()?;
    Ok(MethodOutcome::new(method, per_client, history))
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
