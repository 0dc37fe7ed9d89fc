//! FedProx-LG (§4.3, after Liang et al.): the model is split into a
//! *global* part (aggregated as usual) and a *local* part (the output
//! layer, kept private per client). Each client ends with the composite
//! `{G^R, l_k^R}`.

use rte_nn::StateDict;

use crate::engine::{Deployment, Exchanged, Plain, Round};
use crate::methods::ClientUpdate;
use crate::params::{apply_updates, partition};
use crate::FedError;

/// The paper sets "the output layers of the three models to be the local
/// part" — all three model zoo members name theirs `output_conv`.
fn is_local(name: &str) -> bool {
    name.starts_with("output_conv")
}

/// FedProx-LG's deployment: one composite `{G^r, l_k}` per client, both
/// where the client starts (and what it is proximally pulled towards,
/// matching Fig. 2a's objective) and what it is evaluated with.
pub(super) struct Lg(pub(super) Vec<StateDict>);

impl Deployment for Lg {
    fn state(&self, k: usize) -> &StateDict {
        &self.0[k]
    }

    /// The participants' global parts fold into `G^{r+1}` as they
    /// arrive, and each participant's trained local part waits in its
    /// client's slot; an absent client keeps the local part it had, and
    /// every composite takes the new global part.
    fn advance(
        &mut self,
        round: &Round<'_, Plain>,
        exchange: &mut Exchanged<'_, Plain>,
    ) -> Result<(), FedError> {
        let mut global = round.open(round.participants);
        let mut locals: Vec<Option<StateDict>> = vec![None; self.0.len()];
        exchange(&*self, &mut |update| {
            let (local, global_part) = partition(&update.state, is_local);
            locals[update.client] = Some(local);
            let global_part = ClientUpdate {
                state: global_part,
                ..update
            };
            round.add(&mut global, global_part)
        })?;
        let global = round.finish(global)?;
        for (composite, local) in self.0.iter_mut().zip(locals) {
            if let Some(local) = local {
                apply_updates(composite, &local)?;
            }
            if let Some(global) = &global {
                apply_updates(composite, global)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::test_support::{clients, factory};
    use crate::methods::{rounds, Harness};
    use crate::FedConfig;

    #[test]
    fn local_parts_diverge_across_clients() {
        let clients = clients(2);
        let factory = factory();
        let config = FedConfig::tiny();
        let mut harness = Harness::new(&clients, &factory, &config).unwrap();
        let mut lg = Lg(vec![harness.initial_state(); 2]);
        let history = rounds(&harness, &mut lg).unwrap();
        assert!(history.is_empty());
        // Personalization: the clients' output layers differ, and the
        // global part every composite carries is one and the same.
        let [a, b] = [lg.state(0), lg.state(1)];
        assert_eq!(a.len(), b.len());
        let mut locals = 0;
        for ((name, ta), (name_b, tb)) in a.iter().zip(b) {
            assert_eq!(name, name_b);
            if is_local(name) {
                locals += 1;
                assert_ne!(ta, tb, "{name} is private per client");
            } else {
                assert_eq!(ta, tb, "{name} is shared");
            }
        }
        assert!(locals > 0, "no output_conv entries");
    }

    #[test]
    fn partition_predicate_targets_output_layer() {
        assert!(is_local("output_conv/weight"));
        assert!(is_local("output_conv/bias"));
        assert!(!is_local("input_conv/weight"));
        assert!(!is_local("head_conv/weight"));
    }
}
