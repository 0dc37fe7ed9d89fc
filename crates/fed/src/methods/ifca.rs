//! Iterative Federated Clustering Algorithm (§4.3, after Ghosh et al.):
//! `C` cluster models, each client picks the cluster whose model has the
//! lowest loss on its training data, trains it, and the developer
//! aggregates per cluster. The clustering is re-derived every round and
//! once more at deploy time. Both halves of the round — selection and
//! training — run clients on worker threads.
//!
//! [`Clusters`] is the engine configuration IFCA shares with assigned
//! clustering (`assigned`), which fixes the assignment instead. IFCA
//! stays in process: its pick reads every client's training loss on
//! the coordinator, which no wire message carries.

use rte_nn::{load_state_dict, state_dict, StateDict};

use crate::engine::{Deployment, Exchanged, Plain, Round};
use crate::methods::Harness;
use crate::FedError;

/// One model per cluster; client `k` starts from, and is evaluated
/// with, `models[of[k]]`. Each cluster aggregates its own members'
/// updates, and a cluster none of whose members took part in a round
/// keeps its model.
pub(super) struct Clusters {
    pub(super) models: Vec<StateDict>,
    pub(super) of: Vec<usize>,
    /// Re-pick `of` by training loss before every round and at deploy
    /// (IFCA); otherwise `of` is fixed.
    pub(super) repick: bool,
}

impl Clusters {
    /// IFCA's configuration: one model per cluster, each with its own
    /// initialization (distinct starting points break the clustering's
    /// symmetry), the assignment re-picked.
    pub(super) fn ifca(harness: &Harness<'_>) -> Result<Self, FedError> {
        let config = harness.config;
        config.validate_clusters(harness.clients.len())?;
        let init = |c: u64| state_dict((harness.factory)(config.seed.wrapping_add(1 + c)).as_mut());
        Ok(Clusters {
            models: (0..config.clusters as u64).map(init).collect(),
            of: vec![0; harness.clients.len()],
            repick: true,
        })
    }
}

impl Deployment for Clusters {
    /// For every client, `argmin_c L_k(W_c)` over the cluster models on
    /// worker threads (forward-only, read-only per client, and run for
    /// every client whether or not it takes part in the round). Ties
    /// break towards the lower cluster index, and each worker iterates
    /// clusters in order, so the pick is identical for every thread
    /// count.
    fn pick(&mut self, harness: &Harness<'_>) -> Result<bool, FedError> {
        if !self.repick {
            return Ok(false);
        }
        // Borrowed piecewise: the harness' scratch model is not shared
        // with the workers.
        let (clients, factory, trainer) = (harness.clients, harness.factory, &harness.trainer);
        let (models, seed) = (&self.models, harness.config.seed);
        let ks: Vec<usize> = (0..clients.len()).collect();
        let of = rte_tensor::parallel::map_with(
            harness.config.parallelism,
            &ks,
            || factory(seed),
            |model, _, &k| -> Result<usize, FedError> {
                let mut best = (0usize, f32::INFINITY);
                for (c, sd) in models.iter().enumerate() {
                    load_state_dict(model.as_mut(), sd)?;
                    let loss = trainer.eval_loss(model.as_mut(), &clients[k].train)?;
                    if loss < best.1 {
                        best = (c, loss);
                    }
                }
                Ok(best.0)
            },
        )
        .into_iter()
        .collect::<Result<Vec<usize>, FedError>>()?;
        let moved = of != self.of;
        self.of = of;
        Ok(moved)
    }

    fn state(&self, k: usize) -> &StateDict {
        &self.models[self.of[k]]
    }

    /// The pick fixed every participant's cluster before the round, so
    /// each cluster folds its own members' updates as they arrive.
    fn advance(
        &mut self,
        round: &Round<'_, Plain>,
        exchange: &mut Exchanged<'_, Plain>,
    ) -> Result<(), FedError> {
        let mut sums: Vec<_> = (0..self.models.len())
            .map(|c| {
                let members: Vec<usize> = round
                    .participants
                    .iter()
                    .copied()
                    .filter(|&k| self.of[k] == c)
                    .collect();
                round.open(&members)
            })
            .collect();
        exchange(&*self, &mut |update| {
            round.add(&mut sums[self.of[update.client]], update)
        })?;
        for (model, sum) in self.models.iter_mut().zip(sums) {
            if let Some(next) = round.finish(sum)? {
                *model = next;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::methods::run_method;
    use crate::methods::test_support::{clients, factory};
    use crate::{FedConfig, Method};

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
