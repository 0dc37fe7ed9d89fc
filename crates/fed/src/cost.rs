//! Communication and computation cost accounting.
//!
//! The paper's §4.3 trades personalization accuracy against "extra
//! training cost" (fine-tuning) and notes α-portion sync has "much less
//! extra cost". This module makes those trade-offs measurable: given a
//! model's state-dict size and a [`FedConfig`], it computes per-method
//! upload/download volume and local update counts analytically.

use rte_nn::Layer;

use crate::{FedConfig, Method};

/// Analytic cost of running one training method to completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MethodCost {
    /// Total parameters uploaded from clients to the developer over the
    /// whole run (in scalar counts; multiply by 4 for f32 bytes).
    pub upload_params: u64,
    /// Total parameters downloaded from the developer to clients.
    pub download_params: u64,
    /// Total local gradient steps across all clients.
    pub local_steps: u64,
    /// Number of per-round server aggregations performed.
    pub aggregations: u64,
}

/// Number of scalars in the model's communicated state (parameters plus
/// buffers — BatchNorm statistics travel too).
pub fn model_params(model: &mut dyn Layer) -> u64 {
    let mut n = 0u64;
    model.visit_params("", &mut |_, p| n += p.value.numel() as u64);
    model.visit_buffers("", &mut |_, b| n += b.numel() as u64);
    n
}

/// Computes the analytic cost of `method` for a model with `params`
/// communicated scalars, `local_part` of which stay private under
/// FedProx-LG (0 for the other methods), across `k` clients.
///
/// Costs follow the algorithm definitions:
/// - FedProx/IFCA/assigned/α-sync: every round each client uploads one
///   model and downloads one (IFCA additionally downloads all `C` cluster
///   models for selection).
/// - FedProx-LG: only the global part travels.
/// - Fine-tuning adds `finetune_steps` local steps per client, no
///   communication.
/// - Local/centralized: no per-round communication (centralized ships the
///   data once, which this parameter-centric model counts as zero —
///   that asymmetry is the privacy point of the paper).
pub fn method_cost(
    method: Method,
    params: u64,
    local_part: u64,
    k: u64,
    config: &FedConfig,
) -> MethodCost {
    let r = config.rounds as u64;
    let s = config.local_steps as u64;
    let per_round_steps = k * s;
    match method {
        Method::LocalOnly => MethodCost {
            upload_params: 0,
            download_params: 0,
            local_steps: r * s * k,
            aggregations: 0,
        },
        Method::Centralized => MethodCost {
            upload_params: 0,
            download_params: 0,
            local_steps: r * s,
            aggregations: 0,
        },
        Method::FedProx => MethodCost {
            upload_params: r * k * params,
            download_params: r * k * params,
            local_steps: r * per_round_steps,
            aggregations: r,
        },
        Method::FedProxLg => {
            let global = params - local_part;
            MethodCost {
                upload_params: r * k * global,
                download_params: r * k * global,
                local_steps: r * per_round_steps,
                aggregations: r,
            }
        }
        Method::Ifca => {
            let c = config.clusters as u64;
            MethodCost {
                upload_params: r * k * params,
                // Selection requires all C cluster models at each client.
                download_params: r * k * c * params,
                local_steps: r * per_round_steps,
                aggregations: r * c,
            }
        }
        Method::FedProxFinetune => MethodCost {
            upload_params: r * k * params,
            download_params: r * k * params,
            local_steps: r * per_round_steps + k * config.finetune_steps as u64,
            aggregations: r,
        },
        Method::AssignedClustering => MethodCost {
            upload_params: r * k * params,
            download_params: r * k * params,
            local_steps: r * per_round_steps,
            aggregations: r * config.assigned_clusters.len().max(1) as u64,
        },
        Method::AlphaSync => MethodCost {
            upload_params: r * k * params,
            download_params: r * k * params,
            local_steps: r * per_round_steps,
            // One personalized aggregate per client per round.
            aggregations: r * k,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rte_nn::models::{FlNet, FlNetConfig};
    use rte_tensor::rng::Xoshiro256;

    fn config() -> FedConfig {
        let mut c = FedConfig::tiny();
        c.rounds = 10;
        c.local_steps = 20;
        c.finetune_steps = 100;
        c.clusters = 4;
        c
    }

    #[test]
    fn model_params_counts_buffers() {
        let mut rng = Xoshiro256::seed_from(1);
        let mut flnet = FlNet::new(FlNetConfig::new(3), &mut rng);
        let total = model_params(&mut flnet);
        assert_eq!(total as usize, flnet.param_count(), "FLNet has no buffers");
    }

    #[test]
    fn local_and_centralized_communicate_nothing() {
        let c = config();
        for method in [Method::LocalOnly, Method::Centralized] {
            let cost = method_cost(method, 1000, 0, 9, &c);
            assert_eq!(
                (cost.upload_params, cost.download_params),
                (0, 0),
                "{method}"
            );
            assert_eq!(cost.aggregations, 0);
        }
    }

    #[test]
    fn fedprox_symmetric_updown() {
        let cost = method_cost(Method::FedProx, 1000, 0, 9, &config());
        assert_eq!(cost.upload_params, 10 * 9 * 1000);
        assert_eq!(cost.upload_params, cost.download_params);
        assert_eq!(cost.local_steps, 10 * 9 * 20);
        assert_eq!(cost.aggregations, 10);
    }

    #[test]
    fn lg_saves_the_local_part() {
        let full = method_cost(Method::FedProx, 1000, 0, 9, &config());
        let lg = method_cost(Method::FedProxLg, 1000, 300, 9, &config());
        assert!(lg.upload_params + lg.download_params < full.upload_params + full.download_params);
        assert_eq!(lg.upload_params, 10 * 9 * 700);
    }

    #[test]
    fn ifca_downloads_scale_with_clusters() {
        let c = config();
        let ifca = method_cost(Method::Ifca, 1000, 0, 9, &c);
        let prox = method_cost(Method::FedProx, 1000, 0, 9, &c);
        assert_eq!(ifca.download_params, prox.download_params * 4);
        assert_eq!(ifca.upload_params, prox.upload_params);
    }

    #[test]
    fn finetune_adds_only_local_steps() {
        let c = config();
        let ft = method_cost(Method::FedProxFinetune, 1000, 0, 9, &c);
        let prox = method_cost(Method::FedProx, 1000, 0, 9, &c);
        assert_eq!(
            (ft.upload_params, ft.download_params),
            (prox.upload_params, prox.download_params)
        );
        assert_eq!(ft.local_steps, prox.local_steps + 9 * 100);
    }

    #[test]
    fn alpha_sync_costs_like_fedprox_in_bandwidth() {
        // The paper's "much less extra cost" claim: same communication as
        // FedProx, extra work only server-side (aggregations).
        let c = config();
        let alpha = method_cost(Method::AlphaSync, 1000, 0, 9, &c);
        let prox = method_cost(Method::FedProx, 1000, 0, 9, &c);
        assert_eq!(
            (alpha.upload_params, alpha.download_params),
            (prox.upload_params, prox.download_params)
        );
        assert_eq!(alpha.local_steps, prox.local_steps);
        assert!(alpha.aggregations > prox.aggregations);
    }
}
