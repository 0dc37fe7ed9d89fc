//! Local-only baselines (`b_1 … b_K`): the paper's "traditional ML model
//! construction" reference point — each client trains on its private data
//! alone, with the same total update budget as a federated run
//! (`rounds × local_steps`), no proximal term.

use rte_nn::StateDict;

use crate::methods::{Cells, Harness, TrainJob};
use crate::FedError;

pub(super) fn run(harness: &mut Harness<'_>) -> Result<Cells, FedError> {
    harness.trainer.mu = 0.0; // no proximal term for isolated training
    let init = harness.initial_state();
    let total_steps = harness.config.rounds * harness.config.local_steps;
    // The baselines are fully independent — the ideal parallel workload.
    let jobs: Vec<TrainJob<'_>> = (0..harness.clients.len())
        .map(|k| TrainJob {
            client: k,
            start: &init,
            reference: None,
        })
        .collect();
    // Every trained state is held: evaluation fans back out per client.
    let mut states = Vec::with_capacity(jobs.len());
    harness.train_clients(&jobs, 0, total_steps, |u| states.push(u.state))?;
    // Updates come in job order == client order.
    harness.eval_cells(&states.iter().collect::<Vec<&StateDict>>())
}

#[cfg(test)]
mod tests {
    use crate::methods::run_method;
    use crate::methods::test_support::{clients, factory};
    use crate::{FedConfig, Method};

    #[test]
    fn local_models_learn_their_own_client() {
        let clients = clients(2);
        let factory = factory();
        let mut config = FedConfig::tiny();
        config.rounds = 4;
        config.local_steps = 10;
        let outcome = run_method(Method::LocalOnly, &clients, &factory, &config).unwrap();
        // The synthetic task is learnable: both clients should beat chance.
        for (k, auc) in outcome.per_client_auc.iter().enumerate() {
            assert!(*auc > 0.55, "client {k}: AUC {auc}");
        }
    }
}
