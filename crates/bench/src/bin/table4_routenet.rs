//! Regenerates **Table 4**: RouteNet accuracy under all eight training
//! methods.
//!
//! The shape to reproduce: RouteNet is competitive (even slightly better
//! than FLNet) under local and centralized training, but *collapses* under
//! decentralized training — FedProx lands below the local baselines, and
//! only local fine-tuning (which escapes the decentralized setting)
//! recovers the accuracy.

use rte_bench::reference::TABLE4_ROUTENET;
use rte_nn::models::ModelKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    rte_bench::table_main(
        env!("CARGO_BIN_NAME"),
        ModelKind::RouteNet,
        &TABLE4_ROUTENET,
        &[
            (
                "Training Centrally on All Data",
                "Local Average (b1 to b9)",
                "central pooling is the upper bound",
            ),
            (
                "Local Average (b1 to b9)",
                "FedProx",
                "RouteNet degrades under decentralized training",
            ),
            (
                "FedProx + Fine-tuning",
                "FedProx",
                "fine-tuning escapes the decentralized penalty",
            ),
        ],
    )
}
