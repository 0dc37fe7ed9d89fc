//! Regenerates **Table 5**: PROS accuracy under all eight training
//! methods.
//!
//! The shape to reproduce: PROS — the most complex model — has the lowest
//! accuracy overall, degrades under decentralized training like RouteNet,
//! and fine-tuning brings it back towards its (already modest)
//! centralized accuracy.

use rte_bench::reference::TABLE5_PROS;
use rte_nn::models::ModelKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    rte_bench::table_main(
        env!("CARGO_BIN_NAME"),
        ModelKind::Pros,
        &TABLE5_PROS,
        &[
            (
                "Training Centrally on All Data",
                "Local Average (b1 to b9)",
                "central pooling is the upper bound",
            ),
            (
                "FedProx + Fine-tuning",
                "FedProx",
                "fine-tuning recovers accuracy",
            ),
        ],
    )
}
