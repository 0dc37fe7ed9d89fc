//! Iterative Federated Clustering Algorithm (§4.3, after Ghosh et al.):
//! `C` cluster models, each client picks the cluster whose model has the
//! lowest loss on its training data, trains it, and the developer
//! aggregates per cluster. The clustering is re-derived every round.
//! Both halves of the round — selection and training — run clients on
//! worker threads.

use rte_nn::StateDict;

use crate::methods::{mean_loss, Deployed, Harness, RoundRecord, TrainJob};
use crate::params::aggregate;
use crate::{Client, FedConfig, FedError, ModelFactory};

pub(crate) fn deployed(
    clients: &[Client],
    factory: &ModelFactory,
    config: &FedConfig,
) -> Result<(Deployed, Vec<RoundRecord>), FedError> {
    config.validate_clusters(clients.len())?;
    let harness = Harness::new(clients, factory, config)?;
    // One model per cluster, each with its own initialization (IFCA needs
    // distinct starting points for the clustering to break symmetry).
    let mut cluster_models: Vec<StateDict> = (0..config.clusters)
        .map(|c| {
            let mut model = factory(config.seed.wrapping_add(1 + c as u64));
            rte_nn::state_dict(model.as_mut())
        })
        .collect();
    let mut history = Vec::new();

    for round in 1..=config.rounds {
        // 1. Cluster selection by training loss, clients in parallel.
        let choice = harness.pick_clusters(&cluster_models)?;
        // 2. Local training of the chosen cluster model, the round's
        // participants in parallel; per-cluster grouping happens
        // afterwards in client order so aggregation stays deterministic.
        // (Selection is forward-only, so it runs for everyone; dropout
        // only gates who trains and sends an update.)
        let jobs: Vec<TrainJob<'_>> = harness
            .participants(round)
            .into_iter()
            .map(|k| TrainJob {
                client: k,
                start: &cluster_models[choice[k]],
                reference: Some(&cluster_models[choice[k]]),
            })
            .collect();
        let trained = harness.train_clients(&jobs, round, config.local_steps)?;
        let round_loss = mean_loss(&trained);
        let mut updates: Vec<Vec<(StateDict, f64)>> = vec![Vec::new(); config.clusters];
        for update in trained {
            let c = choice[update.client];
            updates[c].push((update.state, clients[update.client].weight() as f64));
        }
        // 3. Per-cluster aggregation; empty clusters keep their model.
        for (c, cluster_updates) in updates.iter().enumerate() {
            if cluster_updates.is_empty() {
                continue;
            }
            let refs: Vec<(&StateDict, f64)> =
                cluster_updates.iter().map(|(sd, w)| (sd, *w)).collect();
            cluster_models[c] = aggregate(&refs, config.aggregation)?;
        }
        if harness.should_record(round) {
            let per_client: Vec<&StateDict> = choice.iter().map(|&c| &cluster_models[c]).collect();
            let reports = harness.eval_states(&per_client)?;
            history.push(RoundRecord::new(round, reports, round_loss));
        }
    }

    // Deploy: each client re-picks its best cluster.
    let choice = harness.pick_clusters(&cluster_models)?;
    let per_client: Vec<StateDict> = choice.iter().map(|&c| cluster_models[c].clone()).collect();
    Ok((Deployed::PerClient(per_client), history))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::run_method;
    use crate::methods::test_support::{clients, factory};
    use crate::Method;

    #[test]
    fn runs_with_more_clusters_than_needed() {
        let clients = clients(3);
        let factory = factory();
        let mut config = FedConfig::tiny();
        config.clusters = 3;
        let outcome = run_method(Method::Ifca, &clients, &factory, &config).unwrap();
        assert_eq!(outcome.per_client_auc.len(), 3);
        assert_eq!(outcome.method, Method::Ifca);
    }

    #[test]
    fn single_cluster_degenerates_to_fedprox_like_training() {
        let clients = clients(2);
        let factory = factory();
        let mut config = FedConfig::tiny();
        config.clusters = 1;
        let outcome = run_method(Method::Ifca, &clients, &factory, &config).unwrap();
        assert!(outcome.per_client_auc.iter().all(|a| a.is_finite()));
    }
}
