//! A FedProx round loop assembled from public pieces, for the traced
//! run of the in-process workloads.
//!
//! `methods::run_method` keeps its round loop (`Harness`) private, so
//! there is no seam inside it to hang a span on. This replica performs
//! the same computation from the public functions the wire path is
//! built on — `ClientSession::train_slot` for a `(round, client)` slot,
//! fanned out with `rte_tensor::parallel::map_with`;
//! `params::aggregate`; `Evaluator::eval_global` — with a span on each.
//! The transport determinism suite pins those pieces to the in-process
//! loop bit for bit, and the benchmark re-checks it on every traced
//! iteration: a replica whose AUC bits differ from the untraced run's
//! counts as a failed iteration.
//!
//! One known difference in *work*, not in bits: `train_slot` builds a
//! fresh model per slot where the harness builds one per worker thread
//! (`nn.model_build.us` per slot; it shows up in `bench.trace_overhead`).

use decentralized_routability::fed::params::aggregate;
use decentralized_routability::fed::{
    Client, ClientSession, Evaluator, FedConfig, FedError, Method, MethodOutcome, ModelFactory,
};
use decentralized_routability::nn::{state_dict, StateDict};
use decentralized_routability::tensor::parallel::map_with;

use crate::trace::Tracer;

/// Evaluation batch size of the in-process loop (`methods::EVAL_BATCH`,
/// private there). A different value would still give the same AUC
/// bits — evaluation is per-sample — but not the same work.
const EVAL_BATCH: usize = 16;

/// What the replica did, beyond the outcome.
pub struct ReplicaRun {
    /// Same shape as `run_method`'s result.
    pub outcome: MethodOutcome,
    /// Samples training and evaluation asked the client sets for.
    pub samples_consumed: u64,
}

/// Runs FedProx over `clients`, spanning rounds, train slots,
/// aggregation and evaluation.
///
/// # Errors
///
/// [`FedError::InvalidConfig`] for configurations the replica does not
/// cover (partial participation, scenarios, per-round evaluation) —
/// the benchmark's workloads use none of them — otherwise any training
/// failure.
pub fn fedprox(
    clients: &[Client],
    factory: &ModelFactory,
    config: &FedConfig,
    tracer: &Tracer,
) -> Result<ReplicaRun, FedError> {
    if config.participation < 1.0 || config.scenario.is_some() || config.eval_every != 0 {
        return Err(FedError::InvalidConfig {
            reason: "the traced replica covers full participation, no scenario, \
                     final evaluation only"
                .into(),
        });
    }
    let participants: Vec<usize> = (0..clients.len()).collect();
    let mut global = state_dict(factory(config.seed).as_mut());
    let mut samples_consumed = 0u64;
    for round in 1..=config.rounds {
        let _round_span = tracer.span("fed.round").round(round);
        let updates: Vec<(StateDict, f32)> = {
            let phase = tracer.span("fed.train_phase").round(round);
            let phase_id = phase.id();
            let start = &global;
            map_with(
                config.parallelism,
                &participants,
                || (),
                |_, _, &k| {
                    let _slot = tracer
                        .span_under(phase_id, "fed.train_slot")
                        .round(round)
                        .client(k);
                    ClientSession::new(clients, k, factory, config, None)?.train_slot(
                        round as u64,
                        config.local_steps,
                        start,
                    )
                },
            )
            .into_iter()
            .collect::<Result<_, _>>()?
        };
        for client in clients {
            let batch = config.batch_size.min(client.train.len());
            samples_consumed += (config.local_steps * batch) as u64;
        }
        let _aggregate_span = tracer.span("fed.aggregate").round(round);
        let weighted: Vec<(&StateDict, f64)> = updates
            .iter()
            .zip(clients)
            .map(|((state, _), client)| (state, client.weight() as f64))
            .collect();
        global = aggregate(&weighted, config.aggregation)?;
    }
    let per_client = {
        let _span = tracer.span("fed.eval_global");
        Evaluator::new(config.parallelism, EVAL_BATCH).eval_global(
            factory,
            config.seed,
            clients,
            &global,
        )?
    };
    samples_consumed += clients.iter().map(|c| c.test.len() as u64).sum::<u64>();
    Ok(ReplicaRun {
        outcome: MethodOutcome::new(Method::FedProx, per_client, Vec::new()),
        samples_consumed,
    })
}
