//! FedProx + local fine-tuning (§4.3): run FedProx to convergence, then
//! let every client fine-tune the received global model on its own data
//! for `S'` extra steps without the decentralized restrictions. The
//! paper's best personalization method (Table 3: 0.80 average).

use rte_nn::StateDict;

use crate::methods::{Cells, Harness, TrainJob};
use crate::FedError;

/// Every client fine-tunes FedProx's final `global` model on its own
/// data for `S'` steps, and is evaluated with the result.
pub(super) fn finetune(harness: &mut Harness<'_>, global: &StateDict) -> Result<Cells, FedError> {
    let config = harness.config;
    // Fine-tuning happens outside the decentralized setting: no proximal
    // pull (the paper notes "such finetuning process is no longer under
    // the decentralized setting").
    harness.trainer.mu = 0.0;
    let jobs: Vec<TrainJob<'_>> = (0..harness.clients.len())
        .map(|k| TrainJob {
            client: k,
            start: global,
            reference: None,
        })
        .collect();
    // Every tuned state is held for the evaluation that follows.
    let mut tuned = Vec::with_capacity(jobs.len());
    harness.train_clients(&jobs, config.rounds + 1, config.finetune_steps, |u| {
        tuned.push(u.state)
    })?;
    // Updates come in job order == client order.
    harness.eval_cells(&tuned.iter().collect::<Vec<&StateDict>>())
}

#[cfg(test)]
mod tests {
    use crate::methods::run_method;
    use crate::methods::test_support::{clients, factory};
    use crate::{FedConfig, Method};

    #[test]
    fn finetuning_runs_and_scores_all_clients() {
        let clients = clients(2);
        let factory = factory();
        let mut config = FedConfig::tiny();
        config.finetune_steps = 10;
        let outcome = run_method(Method::FedProxFinetune, &clients, &factory, &config).unwrap();
        assert_eq!(outcome.method, Method::FedProxFinetune);
        assert_eq!(outcome.per_client_auc.len(), 2);
    }

    #[test]
    fn zero_finetune_steps_equals_fedprox() {
        let clients = clients(2);
        let factory = factory();
        let mut config = FedConfig::tiny();
        config.finetune_steps = 0;
        let tuned = run_method(Method::FedProxFinetune, &clients, &factory, &config).unwrap();
        let prox = crate::methods::run_method(crate::Method::FedProx, &clients, &factory, &config)
            .unwrap();
        for (a, b) in tuned.per_client_auc.iter().zip(prox.per_client_auc.iter()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }
}
