//! Assigned clustering (§4.3): like IFCA but with the cluster of each
//! client fixed up front from prior knowledge of client similarity — in
//! the paper, the benchmark-suite grouping {1-3}, {4-6}, {7-8}, {9}.
//! Within a cluster this is plain FedProx.

use rte_nn::StateDict;

use crate::methods::{mean_loss, Deployed, Harness, RoundRecord, TrainJob};
use crate::params::aggregate;
use crate::{Client, FedConfig, FedError, ModelFactory};

pub(crate) fn deployed(
    clients: &[Client],
    factory: &ModelFactory,
    config: &FedConfig,
) -> Result<(Deployed, Vec<RoundRecord>), FedError> {
    config.validate_assignment(clients.len())?;
    let mut harness = Harness::new(clients, factory, config)?;
    let groups = &config.assigned_clusters;
    // All clusters share one initialization (unlike IFCA there is no
    // symmetry to break — membership is fixed).
    let init = harness.initial_state();
    let mut cluster_models: Vec<StateDict> = vec![init; groups.len()];
    // client -> cluster lookup.
    let mut cluster_of = vec![0usize; clients.len()];
    for (c, group) in groups.iter().enumerate() {
        for &k in group {
            cluster_of[k] = c;
        }
    }
    let mut history = Vec::new();

    for round in 1..=config.rounds {
        // Within-cluster FedProx: the round's participants train in
        // parallel, the per-cluster grouping below runs in client order.
        // A cluster whose members all dropped out keeps its model.
        let jobs: Vec<TrainJob<'_>> = harness
            .participants(round)
            .into_iter()
            .map(|k| TrainJob {
                client: k,
                start: &cluster_models[cluster_of[k]],
                reference: Some(&cluster_models[cluster_of[k]]),
            })
            .collect();
        let trained = harness.train_clients(&jobs, round, config.local_steps)?;
        let round_loss = mean_loss(&trained);
        let mut updates: Vec<Vec<(StateDict, f64)>> = vec![Vec::new(); groups.len()];
        for update in trained {
            let c = cluster_of[update.client];
            updates[c].push((update.state, clients[update.client].weight() as f64));
        }
        for (c, cluster_updates) in updates.iter().enumerate() {
            if cluster_updates.is_empty() {
                continue;
            }
            let refs: Vec<(&StateDict, f64)> =
                cluster_updates.iter().map(|(sd, w)| (sd, *w)).collect();
            cluster_models[c] = aggregate(&refs, config.aggregation)?;
        }
        if harness.should_record(round) {
            let per_client: Vec<&StateDict> =
                cluster_of.iter().map(|&c| &cluster_models[c]).collect();
            let reports = harness.eval_states(&per_client)?;
            history.push(RoundRecord::new(round, reports, round_loss));
        }
    }

    let per_client: Vec<StateDict> = cluster_of
        .iter()
        .map(|&c| cluster_models[c].clone())
        .collect();
    Ok((Deployed::PerClient(per_client), history))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::run_method;
    use crate::methods::test_support::{clients, factory};
    use crate::Method;

    #[test]
    fn respects_fixed_assignment() {
        let clients = clients(3);
        let factory = factory();
        let mut config = FedConfig::tiny();
        config.assigned_clusters = vec![vec![0, 2], vec![1]];
        let outcome = run_method(Method::AssignedClustering, &clients, &factory, &config).unwrap();
        assert_eq!(outcome.per_client_auc.len(), 3);
    }

    #[test]
    fn invalid_assignment_is_rejected() {
        let clients = clients(2);
        let factory = factory();
        let mut config = FedConfig::tiny();
        config.assigned_clusters = vec![vec![0]]; // client 1 missing
        assert!(run_method(Method::AssignedClustering, &clients, &factory, &config).is_err());
    }
}
