//! FedProx (§4.1): the paper's proposed method for the generalized model.
//!
//! Each round, every client trains from the deployed global parameters
//! with the proximal term `μ‖W^r − w_k‖²`, the developer aggregates
//! `W^{r+1} = Σ_k (n_k/n) w_k^r`, and the aggregate is redeployed.
//! `μ = 0` recovers FedAvg — the `fig1_convergence` bench uses exactly
//! that switch.

use rte_nn::StateDict;

use crate::methods::{rounds, Harness, RoundRecord};
use crate::{Client, FedConfig, FedError, ModelFactory};

/// Runs the FedProx round loop and returns the final global state dict
/// plus any recorded history — the round engine ([`crate::engine`]) on
/// its in-process exchange, plain aggregation stage and one-state
/// deployment, for callers that want the global state itself (the
/// convergence figure, the deployment examples).
///
/// # Errors
///
/// Returns [`FedError`] for invalid configurations or model failures.
pub fn fedprox_rounds(
    clients: &[Client],
    factory: &ModelFactory,
    config: &FedConfig,
) -> Result<(StateDict, Vec<RoundRecord>), FedError> {
    let mut harness = Harness::new(clients, factory, config)?;
    let mut global = harness.initial_state();
    let history = rounds(&harness, &mut global)?;
    Ok((global, history))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::run_method;
    use crate::methods::test_support::{clients, factory};
    use crate::params::l2_distance_sq;
    use crate::Method;

    #[test]
    fn aggregation_moves_the_global_model() {
        let clients = clients(2);
        let factory = factory();
        let config = FedConfig::tiny();
        let mut harness = Harness::new(&clients, &factory, &config).unwrap();
        let init = harness.initial_state();
        let (global, _) = fedprox_rounds(&clients, &factory, &config).unwrap();
        let moved = l2_distance_sq(&init, &global).unwrap();
        assert!(moved > 0.0, "global model must change");
    }

    #[test]
    fn mu_zero_is_fedavg_and_differs_from_fedprox() {
        let clients = clients(2);
        let factory = factory();
        let mut cfg_avg = FedConfig::tiny();
        cfg_avg.mu = 0.0;
        let mut cfg_prox = FedConfig::tiny();
        cfg_prox.mu = 0.5; // exaggerated to make the difference visible
        let (g_avg, _) = fedprox_rounds(&clients, &factory, &cfg_avg).unwrap();
        let (g_prox, _) = fedprox_rounds(&clients, &factory, &cfg_prox).unwrap();
        assert!(l2_distance_sq(&g_avg, &g_prox).unwrap() > 0.0);
    }

    #[test]
    fn federated_model_learns() {
        let clients = clients(3);
        let factory = factory();
        let mut config = FedConfig::tiny();
        config.rounds = 4;
        config.local_steps = 8;
        let outcome = run_method(Method::FedProx, &clients, &factory, &config).unwrap();
        assert!(
            outcome.average_auc > 0.55,
            "average AUC {}",
            outcome.average_auc
        );
    }
}

#[cfg(test)]
mod participation_tests {
    use super::*;
    use crate::methods::run_method;
    use crate::methods::test_support::{clients, factory};
    use crate::methods::Harness;
    use crate::Method;

    #[test]
    fn full_participation_selects_everyone() {
        let clients = clients(3);
        let factory = factory();
        let config = FedConfig::tiny();
        let harness = Harness::new(&clients, &factory, &config).unwrap();
        assert_eq!(harness.participants(1), vec![0, 1, 2]);
        assert_eq!(harness.participants(2), vec![0, 1, 2]);
    }

    #[test]
    fn partial_participation_samples_deterministically() {
        let clients = clients(3);
        let factory = factory();
        let mut config = FedConfig::tiny();
        config.participation = 0.34; // ceil(0.34 × 3) = 2 of 3
        let harness = Harness::new(&clients, &factory, &config).unwrap();
        let r1 = harness.participants(1);
        assert_eq!(r1.len(), 2);
        assert_eq!(r1, harness.participants(1), "same round, same sample");
        // Across many rounds every client must participate sometimes.
        let mut seen = [false; 3];
        for round in 1..=20 {
            for k in harness.participants(round) {
                seen[k] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn partial_participation_trains_end_to_end() {
        let clients = clients(3);
        let factory = factory();
        let mut config = FedConfig::tiny();
        config.participation = 0.5;
        let outcome = run_method(Method::FedProx, &clients, &factory, &config).unwrap();
        assert_eq!(outcome.per_client_auc.len(), 3);
        assert!(outcome.per_client_auc.iter().all(|a| a.is_finite()));
    }

    #[test]
    fn invalid_participation_rejected() {
        let mut config = FedConfig::tiny();
        config.participation = 0.0;
        assert!(config.validate_core().is_err());
        config.participation = 1.5;
        assert!(config.validate_core().is_err());
    }
}
