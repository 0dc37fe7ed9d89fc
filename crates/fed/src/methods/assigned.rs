//! Assigned clustering (§4.3): like IFCA but with the cluster of each
//! client fixed up front from prior knowledge of client similarity — in
//! the paper, the benchmark-suite grouping {1-3}, {4-6}, {7-8}, {9}.
//! Within a cluster this is plain FedProx.

use crate::methods::ifca::Clusters;
use crate::methods::Harness;
use crate::FedError;

/// Assigned clustering's configuration of [`Clusters`]: the assignment
/// read from `assigned_clusters` and never re-picked, every cluster
/// starting from the one shared initialization (unlike IFCA there is no
/// symmetry to break — membership is fixed).
pub(super) fn clusters(harness: &mut Harness<'_>) -> Result<Clusters, FedError> {
    let config = harness.config;
    config.validate_assignment(harness.clients.len())?;
    let groups = &config.assigned_clusters;
    let mut of = vec![0; harness.clients.len()];
    for (c, group) in groups.iter().enumerate() {
        for &k in group {
            of[k] = c;
        }
    }
    Ok(Clusters {
        models: vec![harness.initial_state(); groups.len()],
        of,
        repick: false,
    })
}

#[cfg(test)]
mod tests {
    use crate::methods::run_method;
    use crate::methods::test_support::{clients, factory};
    use crate::{FedConfig, Method};

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
