//! FedProx + local fine-tuning (§4.3): run FedProx to convergence, then
//! let every client fine-tune the received global model on its own data
//! for `S'` extra steps without the decentralized restrictions. The
//! paper's best personalization method (Table 3: 0.80 average).

use crate::methods::fedprox::fedprox_rounds;
use crate::methods::{Deployed, Harness, RoundRecord, TrainJob};
use crate::{Client, FedConfig, FedError, ModelFactory};

pub(crate) fn deployed(
    clients: &[Client],
    factory: &ModelFactory,
    config: &FedConfig,
) -> Result<(Deployed, Vec<RoundRecord>), FedError> {
    let (global, history) = fedprox_rounds(clients, factory, config)?;
    // `S' = 0` degenerates to plain FedProx: skip the training pass
    // entirely (LocalTrainer rejects zero-step runs) and deploy the
    // global model as-is.
    if config.finetune_steps == 0 {
        return Ok((Deployed::Global(global), history));
    }
    let mut harness = Harness::new(clients, factory, config)?;
    // Fine-tuning happens outside the decentralized setting: no proximal
    // pull (the paper notes "such finetuning process is no longer under
    // the decentralized setting").
    harness.trainer.mu = 0.0;
    let jobs: Vec<TrainJob<'_>> = (0..clients.len())
        .map(|k| TrainJob {
            client: k,
            start: &global,
            reference: None,
        })
        .collect();
    let tuned = harness.train_clients(&jobs, config.rounds + 1, config.finetune_steps)?;
    // Updates come back in job order == client order.
    let states: Vec<rte_nn::StateDict> = tuned.into_iter().map(|u| u.state).collect();
    Ok((Deployed::PerClient(states), history))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::run_method;
    use crate::methods::test_support::{clients, factory};
    use crate::Method;

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
