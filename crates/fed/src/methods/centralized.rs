//! Centralized training: all clients' data pooled on one machine. The
//! paper treats its accuracy as the empirical upper limit a decentralized
//! method should aim for (no privacy, no heterogeneity penalty).

use rte_nn::state_dict;

use crate::methods::{Cells, Harness};
use crate::{ClientSet, FedError};

pub(super) fn run(harness: &mut Harness<'_>) -> Result<Cells, FedError> {
    harness.trainer.mu = 0.0; // centralized training has no proximal term
    let pooled_sets: Vec<&ClientSet> = harness.clients.iter().map(|c| &c.train).collect();
    let pooled = ClientSet::concat(&pooled_sets)?;
    let total_steps = harness.config.rounds * harness.config.local_steps;

    // Train directly on the pooled set using the scratch model, which
    // holds the initial state.
    let mut rng = harness.round_rng(0, usize::MAX - 1);
    harness.trainer.train(
        harness.scratch.as_mut(),
        &pooled,
        None,
        total_steps,
        &mut rng,
    )?;
    let trained = state_dict(harness.scratch.as_mut());
    harness.eval_cells(&vec![&trained; harness.clients.len()])
}

#[cfg(test)]
mod tests {
    use crate::methods::run_method;
    use crate::methods::test_support::{clients, factory};
    use crate::{FedConfig, Method};

    #[test]
    fn centralized_beats_chance_on_all_clients() {
        let clients = clients(3);
        let factory = factory();
        let mut config = FedConfig::tiny();
        config.rounds = 4;
        config.local_steps = 10;
        let outcome = run_method(Method::Centralized, &clients, &factory, &config).unwrap();
        for (k, auc) in outcome.per_client_auc.iter().enumerate() {
            assert!(*auc > 0.55, "client {k}: AUC {auc}");
        }
    }
}
