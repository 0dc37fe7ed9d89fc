//! Regenerates **Table 3**: FLNet accuracy under all eight training
//! methods across the nine Table 2 clients.
//!
//! The paper's headline claims this table carries:
//! - FedProx beats the local baselines on average (0.78 vs 0.72),
//! - FedProx + fine-tuning is the best personalization (0.80), close to
//!   the centralized upper bound (0.81),
//! - FedProx-LG underperforms plain FedProx for FLNet.

use rte_bench::reference::TABLE3_FLNET;
use rte_nn::models::ModelKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    rte_bench::table_main(
        env!("CARGO_BIN_NAME"),
        ModelKind::FlNet,
        &TABLE3_FLNET,
        &[
            (
                "Training Centrally on All Data",
                "Local Average (b1 to b9)",
                "central pooling is the upper bound",
            ),
            (
                "FedProx",
                "Local Average (b1 to b9)",
                "collaboration helps FLNet",
            ),
            (
                "FedProx + Fine-tuning",
                "FedProx",
                "fine-tuning adds local accuracy",
            ),
            (
                "FedProx",
                "FedProx-LG",
                "keeping the output layer local hurts FLNet",
            ),
        ],
    )
}
